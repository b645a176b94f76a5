"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e`` (< 60 s).

Outside tier-1's ``testpaths``.  Every workload runs at 1/20 size through
the contract command line; the correctness gates are shown to fire.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from repro import errors  # noqa: E402
from tracing import ROOT  # noqa: E402
from workloads import BY_NAME, WORKLOADS, generate, scaled  # noqa: E402

CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
SCALE = 0.05


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*CONTRACT["command"], *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_contract_lists_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == [w.name for w in WORKLOADS]
    assert [w["why"] for w in CONTRACT["workloads"]] == [w.why for w in WORKLOADS]


def test_the_seed_draws_the_corpus_not_the_questions():
    workload = scaled(BY_NAME["smi_selective"], SCALE)
    one, two = generate(workload, 1), generate(workload, 2)
    assert one.corpus_sha3 != two.corpus_sha3
    assert one.queries_sha3 == two.queries_sha3
    assert not set(one.queries) & set(one.warmup)
    again = generate(workload, 1)
    assert (again.corpus_sha3, again.queries) == (one.corpus_sha3, one.queries)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_every_named_metric_is_reported(name, trace):
    done = _run(
        REPO,
        "--workload", name, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--scale", str(SCALE),
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        got = line["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert math.isfinite(got["value"])
        # every metric is printed by name with its unit
        assert f"{spec['name']} " in done.stdout
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
        return
    # The harness refuses to report when a split VO differs from
    # process_query's bytes, so a returned traced run means they matched.
    spans = [
        json.loads(row)
        for row in (HERE / "out" / f"trace-{name}.jsonl").read_text().splitlines()
    ]
    by_id = {span["id"]: span for span in spans}
    assert {span["name"] for span in spans} >= {ROOT, "verify.verify_query"}
    for span in spans:
        if span["parent"] is None:
            assert span["name"] == ROOT
        else:
            assert by_id[span["parent"]]["query"] == span["query"]
    layer = line["metrics"]
    assert abs(layer["trace.unattributed_pct"]["value"]) <= 5
    sharded = BY_NAME[name].sharded
    for metric, got in layer.items():
        if metric.startswith(("affine.", "engine.")) and metric != "affine.ingest_scatter_bytes":
            assert (got["value"] > 0) == sharded, metric


def test_negative_controls_fire_and_skipped_verification_is_caught(
    tmp_path, monkeypatch
):
    workload = scaled(BY_NAME["smi_selective"], SCALE)
    result = harness.run_workload(workload, 7, 0, False, tmp_path)
    assert set(result["controls"]) == {"flip", "splice"}
    for reaction in result["controls"].values():
        assert issubclass(getattr(errors, reaction), errors.ReproError)

    from repro.core.query.verify import VerifiedResults
    from repro.sp import protocol

    def trusting(query, answer, proof_system):
        return VerifiedResults(ids=set(answer.result_ids))

    monkeypatch.setattr(protocol, "verify_query", trusting)
    with pytest.raises(harness.BenchmarkInvalid, match="tampered"):
        harness.run_workload(workload, 7, 0, False, tmp_path)


def test_a_bug_during_the_control_is_not_taken_for_a_rejection(
    tmp_path, monkeypatch
):
    from repro.sp import protocol

    honest = protocol.verify_query

    def buggy(query, answer, proof_system):
        try:
            return honest(query, answer, proof_system)
        except errors.VerificationError as exc:
            raise TypeError("not a rejection") from exc

    monkeypatch.setattr(protocol, "verify_query", buggy)
    with pytest.raises(TypeError):
        harness.run_workload(
            scaled(BY_NAME["smi_selective"], SCALE), 7, 0, False, tmp_path
        )


def test_wrong_answers_count_as_failed(tmp_path, monkeypatch):
    workload = scaled(BY_NAME["ci_broad"], SCALE)
    # An oracle that disagrees with the program must surface as failures.
    monkeypatch.setattr(
        harness.Inputs, "expected", lambda self, query: [-1], raising=True
    )
    result = harness.run_workload(workload, 7, 0, False, tmp_path)
    assert result["failed"] == workload.queries


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = _run(
        tmp_path, "--workload", "smi_selective", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

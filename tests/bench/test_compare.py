"""Bench baseline comparison: flattening, tolerance bands, CLI gating."""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import (
    append_trend,
    compare,
    compare_files,
    flatten,
    metric_direction,
)
from repro.cli import main as repro_main
from repro.errors import ReproError

DOC = {
    "experiment": "shard",
    "rows": {
        "cpu_count": 8,
        "ingest": [
            {
                "shards": 1,
                "executor": "process",
                "ingest_ms": 100.0,
                "objects_per_s": 6000.0,
            },
            {
                "shards": 4,
                "executor": "process",
                "ingest_ms": 40.0,
                "objects_per_s": 15000.0,
            },
        ],
        "identity": [
            {"scheme": "mi", "shards": 4, "vo_identical": True},
        ],
    },
}


def _variant(**overrides):
    doc = json.loads(json.dumps(DOC))
    for path, value in overrides.items():
        node = doc
        *parts, leaf = path.split("/")
        for part in parts:
            node = node[int(part)] if part.isdigit() else node[part]
        if value is ...:
            del node[leaf]
        else:
            node[leaf] = value
    return doc


class TestFlatten:
    def test_rows_are_addressed_by_identity_not_position(self):
        flat = flatten(DOC)
        key = "rows.ingest[executor=process shards=4].ingest_ms"
        assert flat[key] == 40.0
        reordered = _variant()
        reordered["rows"]["ingest"].reverse()
        assert flatten(reordered)[key] == 40.0

    def test_strings_become_identity_not_metrics(self):
        flat = flatten(DOC)
        assert not any(k.endswith(".scheme") for k in flat)
        assert "rows.identity[scheme=mi shards=4].vo_identical" in flat

    def test_duplicate_identities_get_positional_suffixes(self):
        flat = flatten({"runs": [{"ms": 1.0}, {"ms": 2.0}]})
        assert flat["runs[0].ms"] == 1.0
        assert flat["runs[1].ms"] == 2.0


class TestDirections:
    @pytest.mark.parametrize(
        ("metric", "expected"),
        [
            ("rows.ingest[shards=4].ingest_ms", "lower"),
            ("verify_seconds", "lower"),
            ("cache_misses", "lower"),
            ("objects_per_s", "higher"),
            ("speedup_cold", "higher"),
            ("cache_hits", "higher"),
            ("cpu_count", "info"),
            ("keywords", "info"),
            ("rows.shards", "info"),
        ],
    )
    def test_inference_from_leaf_name(self, metric, expected):
        assert metric_direction(metric) == expected


class TestCompare:
    def test_identical_documents_pass(self):
        report = compare(DOC, DOC)
        assert report.passed
        assert report.regressions == []

    def test_timing_regression_beyond_tolerance_fails(self):
        current = _variant(**{"rows/ingest/1/ingest_ms": 60.0})
        report = compare(DOC, current, tolerance=0.25)
        assert not report.passed
        assert [d.metric for d in report.regressions] == [
            "rows.ingest[executor=process shards=4].ingest_ms"
        ]

    def test_timing_within_tolerance_passes(self):
        current = _variant(**{"rows/ingest/1/ingest_ms": 48.0})
        assert compare(DOC, current, tolerance=0.25).passed

    def test_throughput_drop_beyond_tolerance_fails(self):
        current = _variant(**{"rows/ingest/0/objects_per_s": 3000.0})
        report = compare(DOC, current, tolerance=0.25)
        assert not report.passed

    def test_improvements_always_pass(self):
        current = _variant(
            **{
                "rows/ingest/1/ingest_ms": 5.0,
                "rows/ingest/1/objects_per_s": 90000.0,
            }
        )
        assert compare(DOC, current, tolerance=0.0).passed

    def test_invariant_flip_fails_regardless_of_tolerance(self):
        current = _variant(**{"rows/identity/0/vo_identical": False})
        report = compare(DOC, current, tolerance=100.0)
        assert not report.passed
        assert report.regressions[0].direction == "invariant"

    def test_missing_metric_fails(self):
        current = _variant(**{"rows/ingest/1/objects_per_s": ...})
        report = compare(DOC, current)
        assert not report.passed
        assert report.regressions[0].status == "missing"

    def test_informational_changes_never_fail(self):
        current = _variant(**{"rows/cpu_count": 1})
        assert compare(DOC, current, tolerance=0.0).passed

    def test_new_metrics_are_reported_not_failed(self):
        current = _variant()
        current["rows"]["ingest"][0]["warm_ms"] = 1.0
        report = compare(DOC, current)
        assert report.passed
        assert any(d.status == "new" for d in report.deltas)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ReproError):
            compare(DOC, DOC, tolerance=-0.1)

    def test_render_names_the_verdict(self):
        good = compare(DOC, DOC).render()
        assert "PASS" in good
        bad = compare(
            DOC, _variant(**{"rows/ingest/1/ingest_ms": 600.0})
        ).render()
        assert "FAIL" in bad and "REGRESSED" in bad


class TestDeterministicMoves:
    """Gas and VO bytes are deterministic per seed: any move is listed."""

    ROW = {
        "src_lines": 19807,
        "constructor_args": 12,
        "metrics": {
            "smi_selective": {"vo_bytes_per_query": 15553.08, "ingest_gas_per_object": 262388.9,
                              "query_p50_ms": 1.5},
            "ci_broad": {"vo_bytes_per_query": 889.09, "ingest_gas_per_object": 104000.0},
        },
    }

    def _moved(self, **metrics):
        doc = json.loads(json.dumps(self.ROW))
        for path, value in metrics.items():
            workload, metric = path.split("__")
            doc["metrics"][workload][metric] = value
        return doc

    def test_workloads_whose_gas_or_vo_bytes_moved_are_listed(self):
        current = self._moved(
            smi_selective__vo_bytes_per_query=5977.2,  # an improvement: still listed
            smi_selective__query_p50_ms=1.51,  # a timing: not deterministic
        )
        report = compare(self.ROW, current)
        assert report.passed
        assert {
            workload: [d.metric for d in deltas]
            for workload, deltas in report.moved.items()
        } == {"smi_selective": ["metrics.smi_selective.vo_bytes_per_query"]}
        text = report.render()
        assert "MOVED      smi_selective: vo_bytes_per_query 1.555e+04 -> 5977" in text
        assert "query_p50_ms" not in text
        assert report.to_dict()["moved"] == ["smi_selective"]
        assert not compare(self.ROW, self.ROW).moved
        gas = compare(self.ROW, self._moved(ci_broad__ingest_gas_per_object=104001.0))
        assert list(gas.moved) == ["ci_broad"]

    def test_a_run_documents_values_are_named_by_their_metric(self):
        run = {"metrics": {"vo_bytes_per_query": {"value": 15553.08, "unit": "bytes"}}}
        moved = json.loads(json.dumps(run))
        moved["metrics"]["vo_bytes_per_query"]["value"] = 5977.2
        assert list(compare(run, moved).moved) == ["metrics"]
        assert "vo_bytes_per_query 1.555e+04 -> 5977" in compare(run, moved).render()

    def test_size_change_is_printed_when_both_rows_carry_it(self):
        current = dict(self.ROW, src_lines=19990)
        report = compare(self.ROW, current)
        assert report.size == {"src_lines": (19807, 19990), "constructor_args": (12, 12)}
        assert "SIZE       src_lines 19807 -> 19990 (+183), constructor_args 12 -> 12 (+0)" in report.render()
        older = {key: value for key, value in self.ROW.items() if key != "src_lines"}
        assert "src_lines" not in compare(older, current).size
        assert "SIZE" not in compare(DOC, DOC).render()


class TestTrend:
    def test_append_trend_accumulates_jsonl_records(self, tmp_path):
        path = tmp_path / "trend.jsonl"
        report = compare(DOC, DOC)
        append_trend(report, str(path))
        append_trend(report, str(path))
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert len(records) == 2
        assert records[0]["passed"] is True
        assert records[0]["regressions"] == []
        assert any(
            key.endswith("ingest_ms") for key in records[0]["metrics"]
        )


class TestCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_clean_compare_exits_zero(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", DOC)
        code = repro_main(
            ["bench", "compare", "--baseline", baseline, "--current", baseline]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        baseline = self._write(tmp_path, "base.json", DOC)
        current = self._write(
            tmp_path,
            "cur.json",
            _variant(**{"rows/ingest/1/ingest_ms": 600.0}),
        )
        trend = tmp_path / "trend.jsonl"
        code = repro_main(
            [
                "bench",
                "compare",
                "--baseline",
                baseline,
                "--current",
                current,
                "--json",
                "--trend-out",
                str(trend),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["regressions"]
        assert json.loads(trend.read_text())["passed"] is False

    def test_unreadable_baseline_is_a_clean_error(self, tmp_path, capsys):
        code = repro_main(
            [
                "bench",
                "compare",
                "--baseline",
                str(tmp_path / "absent.json"),
                "--current",
                str(tmp_path / "absent.json"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_files_reads_disk(self, tmp_path):
        baseline = self._write(tmp_path, "base.json", DOC)
        report = compare_files(baseline, baseline)
        assert report.passed

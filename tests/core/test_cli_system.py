"""Tests for the ``repro`` operational CLI."""

import json
import shutil
from pathlib import Path

import pytest

from repro import HybridStorageSystem
from repro.cli import main
from repro.core.persistence import load_system
from repro.core.system import ADS_CONTRACT

#: Keys the fixture registry's manifest holds for arguments since retired.
RETIRED = {
    "mine_every", "witness_warmer", "warm_hot_threshold",
    "join_order", "join_plan", "verify_cache_size", "filter_bits",
}


@pytest.fixture()
def registry(tmp_path):
    directory = str(tmp_path / "registry")
    assert main(["init", directory, "--scheme", "smi", "--seed", "3"]) == 0
    return directory


class TestInit:
    def test_creates_manifest(self, registry, tmp_path):
        manifest = json.loads(
            (tmp_path / "registry" / "manifest.json").read_text()
        )
        assert manifest["scheme"] == "smi"
        assert manifest["seed"] == 3


class TestAddAndQuery:
    def test_single_add_and_query(self, registry, capsys):
        assert (
            main(
                [
                    "add",
                    registry,
                    "--id",
                    "1",
                    "--keywords",
                    "covid-19,vaccine",
                    "--content",
                    "trial report",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["query", registry, "covid-19 AND vaccine"]) == 0
        out = capsys.readouterr().out
        assert "verified: True" in out
        assert "results:  [1]" in out

    def test_parent_commit_registry_still_answers(self, tmp_path, capsys):
        """``tests/fixtures/registry_pr22`` is what ``repro init --shards 2
        --pool affine --engine disk`` plus two ``add``s left at 78f1db4: its
        manifest carries ``mine_every``, ``witness_warmer``,
        ``warm_hot_threshold``, ``join_order``, ``join_plan``,
        ``verify_cache_size`` and ``filter_bits``, which no constructor
        takes any more.  It reopens to the on-chain digests a system built
        now from its objects has."""
        fixture = Path(__file__).resolve().parents[1] / "fixtures" / "registry_pr22"
        manifest = json.loads((fixture / "manifest.json").read_text())
        assert RETIRED <= set(manifest["config"])
        reopened = load_system(fixture)
        rebuilt = HybridStorageSystem(scheme="ci*", seed=7)
        rebuilt.add_objects(reopened.get_object(oid) for oid in reopened.all_object_ids())
        for keyword in ("covid-19", "vaccine", "mask", "absent"):
            assert reopened.chain.call_view(
                ADS_CONTRACT, "view_digest", keyword
            ) == rebuilt.chain.call_view(ADS_CONTRACT, "view_digest", keyword)
        reopened.close()
        rebuilt.close()
        directory = tmp_path / "registry"
        shutil.copytree(fixture, directory)
        assert main(["query", str(directory), "covid-19 AND vaccine"]) == 0
        out = capsys.readouterr().out
        assert "verified: True" in out
        assert "results:  [1]" in out
        # A re-save (every ``add`` does one) drops the retired keys.
        assert (
            main(
                [
                    "add", str(directory), "--id", "3",
                    "--keywords", "covid-19,vaccine", "--content", "three",
                ]
            )
            == 0
        )
        resaved = json.loads((directory / "manifest.json").read_text())
        assert not RETIRED & set(resaved["config"])
        assert resaved["config"]["pool"] == "affine"
        capsys.readouterr()
        assert main(["query", str(directory), "covid-19 AND vaccine"]) == 0
        assert "results:  [1, 3]" in capsys.readouterr().out

    def test_bulk_add_from_jsonl(self, registry, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "\n".join(
                json.dumps(
                    {"id": i, "keywords": ["a", "b"], "content": f"doc{i}"}
                )
                for i in (1, 2, 3)
            )
        )
        assert main(["add", registry, "--from-jsonl", str(corpus)]) == 0
        capsys.readouterr()
        assert main(["query", registry, "a AND b", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result_ids"] == [1, 2, 3]
        assert payload["verified"]

    def test_add_requires_arguments(self, registry, capsys):
        assert main(["add", registry]) == 1
        assert "error" in capsys.readouterr().err

    def test_info(self, registry, capsys):
        main(
            [
                "add",
                registry,
                "--id",
                "1",
                "--keywords",
                "x",
                "--content",
                "c",
            ]
        )
        capsys.readouterr()
        assert main(["info", registry]) == 0
        out = capsys.readouterr().out
        assert "objects:       1" in out
        assert "chain linked:  True" in out

    def test_query_missing_directory(self, tmp_path, capsys):
        assert main(["query", str(tmp_path / "nope"), "a"]) == 1


class TestCompact:
    @pytest.fixture()
    def disk_registry(self, tmp_path):
        directory = str(tmp_path / "disk-registry")
        assert (
            main(
                [
                    "init",
                    directory,
                    "--scheme",
                    "smi",
                    "--seed",
                    "3",
                    "--shards",
                    "2",
                    "--engine",
                    "disk",
                ]
            )
            == 0
        )
        for object_id in ("1", "2", "3"):
            assert (
                main(
                    [
                        "add",
                        directory,
                        "--id",
                        object_id,
                        "--keywords",
                        "a,b",
                        "--content",
                        f"doc{object_id}",
                    ]
                )
                == 0
            )
        return directory

    def test_compact_truncates_journals(self, disk_registry, capsys):
        capsys.readouterr()
        assert main(["compact", disk_registry, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["shards_compacted"] == 2
        assert report["journal_bytes_after"] < report["journal_bytes_before"]
        assert report["reclaimed"] > 0
        assert report["checkpoint_bytes"] > 0
        ckpts = sorted(
            p.name
            for p in (Path(disk_registry) / "shard-journals").glob("*.ckpt")
        )
        assert ckpts == ["shard-000.ckpt", "shard-001.ckpt"]

    def test_queries_verify_after_compaction(self, disk_registry, capsys):
        assert main(["compact", disk_registry]) == 0
        out = capsys.readouterr().out
        assert "compacted 2 shard journal(s)" in out
        assert main(["query", disk_registry, "a AND b", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"]
        assert payload["result_ids"] == [1, 2, 3]

    def test_compact_is_idempotent(self, disk_registry, capsys):
        assert main(["compact", disk_registry]) == 0
        capsys.readouterr()
        assert main(["compact", disk_registry, "--json"]) == 0
        again = json.loads(capsys.readouterr().out)
        assert again["shards_compacted"] == 2
        assert again["reclaimed"] >= 0

    def test_memory_engine_has_nothing_to_compact(self, registry, capsys):
        assert main(["compact", registry]) == 0
        out = capsys.readouterr().out
        assert "nothing to compact" in out
        assert not (Path(registry) / "shard-journals").exists()


class TestObsSubcommands:
    def _add_one(self, registry):
        assert (
            main(
                [
                    "add",
                    registry,
                    "--id",
                    "1",
                    "--keywords",
                    "alpha,beta",
                    "--content",
                    "hello",
                ]
            )
            == 0
        )

    def test_bare_obs_form_still_traces(self, registry, capsys):
        self._add_one(registry)
        capsys.readouterr()
        assert main(["obs", registry, "alpha"]) == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "metrics:" in out

    def test_trace_out_writes_span_records(self, registry, capsys, tmp_path):
        """Every line of the ``--trace-out`` dump is one span record."""
        self._add_one(registry)
        capsys.readouterr()
        trace = tmp_path / "t.jsonl"
        assert main(["obs", registry, "alpha", "--trace-out", str(trace)]) == 0
        assert "spans to" in capsys.readouterr().out
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records
        fields = {
            "name",
            "span_id",
            "parent_id",
            "thread",
            "start_s",
            "end_s",
            "duration_ms",
            "attributes",
        }
        ids = {record["span_id"] for record in records}
        for record in records:
            assert set(record) == fields
            assert record["end_s"] >= record["start_s"]
            assert record["parent_id"] is None or record["parent_id"] in ids
        assert any(record["name"].startswith("query") for record in records)

"""Tests for replay-based persistence."""

import json

import pytest

from repro import DataObject, HybridStorageSystem
from repro.core.persistence import load_system, save_system
from repro.errors import ReproError


def make_docs():
    return [
        DataObject(1, ("a", "b"), b"one"),
        DataObject(2, ("a",), b"two"),
        DataObject(3, ("b", "c"), b"three"),
        DataObject(5, ("a", "c"), b"five"),
    ]


@pytest.mark.parametrize("scheme", ["smi", "ci", "ci*"])
class TestSaveLoadRoundTrip:
    def test_state_equivalence(self, scheme, tmp_path):
        original = HybridStorageSystem(
            scheme=scheme, cvc_modulus_bits=512, seed=11
        )
        original.add_objects(make_docs())
        save_system(original, tmp_path / "snap", seed=11)
        restored = load_system(tmp_path / "snap")
        assert len(restored) == len(original)
        # Same on-chain digests, gas accounting and query behaviour.
        assert (
            restored.maintenance_meter().total
            == original.maintenance_meter().total
        )
        for text in ("a AND b", "c", "a AND missing"):
            assert (
                restored.query(text).result_ids
                == original.query(text).result_ids
            )

    def test_restored_system_accepts_new_objects(self, scheme, tmp_path):
        original = HybridStorageSystem(
            scheme=scheme, cvc_modulus_bits=512, seed=11
        )
        original.add_objects(make_docs())
        save_system(original, tmp_path / "snap", seed=11)
        restored = load_system(tmp_path / "snap")
        restored.add_object(DataObject(9, ("a", "b"), b"nine"))
        assert restored.query("a AND b").result_ids == [1, 9]


@pytest.mark.parametrize("shards", [1, 2, 8])
@pytest.mark.parametrize("scheme", ["mi", "smi", "ci", "ci*"])
class TestFullConfigGrid:
    """The v1 manifest dropped most knobs; v2 must round-trip them all.

    Every scheme is saved with non-default modulus / gas / cache
    knobs at several shard counts; the restored system must
    carry the exact configuration and produce byte-identical digests
    and VOs (a wrong restored modulus changes key derivation, so the
    query comparison below would fail loudly).
    """

    KNOBS = dict(
        cvc_modulus_bits=768,
        gas_limit=9_000_000,
        verify_cache_size=64,
    )

    def test_round_trip_preserves_config_and_vo(
        self, scheme, shards, tmp_path
    ):
        original = HybridStorageSystem(
            scheme=scheme, seed=11, shards=shards, **self.KNOBS
        )
        original.add_objects(make_docs())
        save_system(original, tmp_path / "snap", seed=11)
        restored = load_system(tmp_path / "snap")

        for field, expected in {**self.KNOBS, "shards": shards}.items():
            assert getattr(restored, field) == expected, field
        assert restored.scheme == original.scheme

        assert (
            restored.maintenance_meter().total
            == original.maintenance_meter().total
        )
        for text in ("a AND b", "c", "a AND missing"):
            result = original.query(text)
            restored_result = restored.query(text)
            assert restored_result.verified
            assert restored_result.result_ids == result.result_ids
            assert restored_result.vo_sp_bytes == result.vo_sp_bytes
            assert restored_result.vo_chain_bytes == result.vo_chain_bytes

        # Post-restore insertions keep verifying against the replayed
        # digests.
        restored.add_object(DataObject(9, ("a", "b"), b"nine"))
        post = restored.query("a AND b")
        assert post.verified
        assert post.result_ids == [1, 9]
        original.close()
        restored.close()


class TestLegacyManifests:
    def test_v1_manifest_still_loads(self, tmp_path):
        system = HybridStorageSystem(
            scheme="ci", cvc_modulus_bits=512, seed=11
        )
        system.add_objects(make_docs())
        path = save_system(system, tmp_path / "snap", seed=11)
        manifest = json.loads((path / "manifest.json").read_text())
        # Rewrite as the v1 schema: the seven-field config map plus a
        # top-level cvc_modulus_bits recording the modulus bit length
        # (which may sit one short of the nominal keygen size).
        manifest["version"] = 1
        manifest["cvc_modulus_bits"] = 511
        manifest["config"] = {
            field: manifest["config"][field]
            for field in (
                "fanout",
                "arity",
                "bloom_capacity",
                "filter_bits",
                "join_order",
                "join_plan",
            )
        }
        manifest["config"]["mine_every"] = 1  # retired; v1 builds wrote it
        (path / "manifest.json").write_text(json.dumps(manifest))
        restored = load_system(path)
        assert restored.cvc_modulus_bits == 512
        for text in ("a AND b", "c"):
            assert (
                restored.query(text).result_ids
                == system.query(text).result_ids
            )
        system.close()
        restored.close()

    @pytest.mark.parametrize("version", [2, 3])
    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("witness_batching", False, id="witness_batching"),
            pytest.param("mine_every", 4, id="mine_every"),
            pytest.param("witness_warmer", True, id="witness_warmer"),
            pytest.param("warm_hot_threshold", 5, id="warm_hot_threshold"),
        ],
    )
    def test_retired_key_is_ignored(self, key, value, version, tmp_path):
        """Older builds wrote these keys; each selects nothing now."""
        system = HybridStorageSystem(
            scheme="ci", cvc_modulus_bits=512, seed=11
        )
        system.add_objects(make_docs())
        path = save_system(system, tmp_path / "snap", seed=11)
        manifest = json.loads((path / "manifest.json").read_text())
        assert key not in manifest["config"]
        manifest["version"] = version
        manifest["config"][key] = value
        if version == 2:
            del manifest["node_store"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        restored = load_system(path)
        assert not hasattr(restored, key)
        for text in ("a AND b", "c"):
            result = restored.query(text)
            assert result.verified
            assert result.result_ids == system.query(text).result_ids
            assert result.vo_sp_bytes == system.query(text).vo_sp_bytes
        system.close()
        restored.close()

    def test_disk_engine_restores_in_memory_by_default(self, tmp_path):
        original = HybridStorageSystem(
            scheme="smi",
            seed=3,
            shards=2,
            engine="disk",
            engine_dir=tmp_path / "journals",
        )
        original.add_objects(make_docs())
        save_system(original, tmp_path / "snap", seed=3)
        # Without a fresh engine_dir the journals must not be reused —
        # replaying them on top of the object-log replay would
        # double-apply every record.
        restored = load_system(tmp_path / "snap")
        assert all(e.kind == "memory" for e in restored._sp.engines)
        # The runtime substitution must not leak into the recorded
        # configuration: a re-save keeps the declared disk engine.
        assert restored.engine == "disk"
        resaved = save_system(restored, tmp_path / "resnap", seed=3)
        remanifest = json.loads((resaved / "manifest.json").read_text())
        assert remanifest["config"]["engine"] == "disk"
        assert restored.query("a AND b").result_ids == [1]
        fresh = load_system(
            tmp_path / "snap", engine_dir=tmp_path / "fresh-journals"
        )
        assert fresh.engine == "disk"
        assert all(e.kind == "disk" for e in fresh._sp.engines)
        assert fresh.query("a AND b").result_ids == [1]
        original.close()
        restored.close()
        fresh.close()


class TestManifestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ReproError):
            load_system(tmp_path / "nowhere")

    def test_version_mismatch(self, tmp_path):
        system = HybridStorageSystem(scheme="smi", seed=1)
        path = save_system(system, tmp_path / "snap", seed=1)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ReproError):
            load_system(path)

    def test_truncated_log_detected(self, tmp_path):
        system = HybridStorageSystem(scheme="smi", seed=1)
        system.add_objects(make_docs())
        path = save_system(system, tmp_path / "snap", seed=1)
        lines = (path / "objects.jsonl").read_text().splitlines()
        (path / "objects.jsonl").write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ReproError):
            load_system(path)

    def test_empty_system_roundtrip(self, tmp_path):
        system = HybridStorageSystem(scheme="smi", seed=1)
        path = save_system(system, tmp_path / "snap", seed=1)
        restored = load_system(path)
        assert len(restored) == 0

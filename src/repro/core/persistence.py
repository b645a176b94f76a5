"""Durable system state via event-sourced snapshots.

A :class:`HybridStorageSystem` is a deterministic function of its
configuration, its seed and the ordered object stream: key material is
derived from the seed, tree shapes from the stream, gas from the
replayed transactions.  Persistence therefore stores exactly that —
a JSON manifest (configuration + seed) plus an append-friendly JSONL
object log — and restores by replay.  This is the same recovery model
the deployment itself implies (the chain and the DO's stream are the
durable ground truth; SP state is always reconstructible), and it can
never deserialise inconsistent cryptographic state.

Manifest v2 captures the *complete* constructor configuration.  The v1
schema recorded a subset (a non-default modulus, which changes key
derivation, restored as the default); v1 manifests remain readable, and
their missing fields load as those defaults.

Layout::

    <dir>/manifest.json    configuration and seed
    <dir>/objects.jsonl    one object per line, insertion order
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.nodestore import NODESTORE_VERSION
from repro.core.objects import object_to_record, record_to_object
from repro.core.system import HybridStorageSystem
from repro.crypto.bloom import DEFAULT_FILTER_BITS
from repro.errors import ParameterError, ReproError

#: Manifest schema version.  v3 adds the node-store format version (the
#: flat-buffer record layout trees persist/snapshot in); v1 and v2
#: manifests are still readable.
MANIFEST_VERSION = 3

#: System constructor arguments captured in a v2 manifest — the full
#: configuration surface (everything except ``seed``, stored top-level,
#: and the runtime-only ``engine_dir``).
_CONFIG_FIELDS = (
    "fanout",
    "arity",
    "bloom_capacity",
    "cvc_modulus_bits",
    "gas_limit",
    "track_state",
    "shards",
    "engine",
    "pool",
)

#: The v1 subset (plus a top-level ``cvc_modulus_bits``); kept for the
#: backward-compatible reader.
_V1_CONFIG_FIELDS = (
    "fanout",
    "arity",
    "bloom_capacity",
)

#: Keys older builds wrote into ``config`` for arguments that no longer
#: exist.  None of them changed a root, a VO or gas: ``witness_batching``
#: chose between two ingest opening paths with equal bytes,
#: ``mine_every`` set how many inserts shared a block (callers only ever
#: used one), the two ``warm*`` keys configured a cache warmer that
#: left the cache a scan query leaves, and ``join_order``, ``join_plan``
#: and ``verify_cache_size`` chose what is now fixed, at equal results.
#: They are ignored on load, and so is ``filter_bits`` at the paper's
#: 256; any other width is refused: its CI* filters cannot be rebuilt.
_RETIRED_CONFIG_FIELDS = (
    "witness_batching",
    "mine_every",
    "witness_warmer",
    "warm_hot_threshold",
    "join_order",
    "join_plan",
    "verify_cache_size",
    "filter_bits",
)


def save_system(
    system: HybridStorageSystem, directory: str | Path, seed: int
) -> Path:
    """Persist ``system`` (built with ``seed``) under ``directory``.

    The seed must be the one the system was constructed with — replay
    regenerates identical key material from it.  Unseeded systems
    (``seed=None``) are not persistable by replay and are rejected.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "version": MANIFEST_VERSION,
        "scheme": system.scheme.value,
        "seed": seed,
        "node_store": NODESTORE_VERSION,
        "config": {
            field: getattr(system, field) for field in _CONFIG_FIELDS
        },
        "object_count": len(system),
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))
    with (path / "objects.jsonl").open("w") as log:
        for object_id in system.all_object_ids():
            record = object_to_record(system.get_object(object_id))
            log.write(json.dumps(record) + "\n")
    return path


def _kwargs_from_manifest(manifest: dict) -> dict:
    """Constructor kwargs for either manifest schema version."""
    version = manifest.get("version")
    if version == 1:
        kwargs = {
            field: manifest["config"][field]
            for field in _V1_CONFIG_FIELDS
            if field in manifest.get("config", {})
        }
        if manifest.get("cvc_modulus_bits"):
            # v1 stored the modulus' bit_length, which may be one short
            # of the nominal size; round up to the byte the keygen was
            # called with.
            bits = manifest["cvc_modulus_bits"]
            kwargs["cvc_modulus_bits"] = (bits + 7) // 8 * 8
        return kwargs
    if version == 2:
        # v2 is v3 without the node-store field (object-graph era trees
        # rebuild from the object stream regardless of layout).
        return dict(manifest["config"])
    if version == MANIFEST_VERSION:
        node_store = manifest.get("node_store", NODESTORE_VERSION)
        if node_store > NODESTORE_VERSION:
            raise ReproError(
                f"manifest requires node-store format {node_store}; this "
                f"build supports up to {NODESTORE_VERSION}"
            )
        return dict(manifest["config"])
    raise ReproError(f"unsupported manifest version {version!r}")


def load_system(
    directory: str | Path, engine_dir: str | Path | None = None
) -> HybridStorageSystem:
    """Rebuild a persisted system by replaying its object stream.

    The object log is the durable ground truth; a system saved with
    ``engine="disk"`` restores with in-memory engines unless an empty
    ``engine_dir`` is supplied for the rebuilt shard journals (one that
    already holds shard state is refused with
    :class:`~repro.errors.IntegrityError`).
    """
    path = Path(directory)
    manifest_path = path / "manifest.json"
    if not manifest_path.exists():
        raise ReproError(f"no manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    bits = manifest.get("config", {}).get("filter_bits", DEFAULT_FILTER_BITS)
    if bits != DEFAULT_FILTER_BITS:
        raise ParameterError(f"manifest holds {bits}-bit Bloom filters; only 256 rebuild")
    kwargs = _kwargs_from_manifest(manifest)
    for retired in _RETIRED_CONFIG_FIELDS:
        kwargs.pop(retired, None)
    declared_engine = kwargs.get("engine")
    if declared_engine == "disk":
        if engine_dir is None:
            kwargs["engine"] = "memory"
        else:
            kwargs["engine_dir"] = engine_dir
    system = HybridStorageSystem(
        scheme=manifest["scheme"], seed=manifest["seed"], **kwargs
    )
    if declared_engine is not None and system.engine != declared_engine:
        # The in-memory downgrade is a runtime substitution only; keep
        # the declared engine on the system so a re-save does not
        # rewrite the manifest's configuration.
        system.engine = declared_engine
    objects_path = path / "objects.jsonl"
    count = 0
    if objects_path.exists():
        with objects_path.open() as log:
            for line in log:
                line = line.strip()
                if not line:
                    continue
                system.add_object(record_to_object(json.loads(line)))
                count += 1
    expected = manifest.get("object_count", count)
    if count != expected:
        raise ReproError(
            f"object log holds {count} records; manifest says {expected}"
        )
    return system

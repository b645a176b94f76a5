"""A disk shard writes the journal bytes the fixtures pin.

``tests/fixtures/journal_smi.bin`` and ``journal_cistar.bin`` are the
``shard-000.journal`` journals of a one-shard SMI and CI* system (seed
8, 512-bit CVC modulus) after :func:`write_journal` ingested
``JOURNAL_DOCS`` in ``JOURNAL_BATCHES``; see ``tests/fixtures/README.md``
for the build that wrote them.  A disk engine must write exactly those
bytes, and reopening one must rebuild the trees the live system holds.
The fixtures are never regenerated: a change that moves them changes
what every existing shard journal means.  (``journal_smi.jsonl`` and
``journal_cistar.jsonl`` are the same journals as the JSONL builds
wrote them; ``test_engine_recovery.py`` checks they are refused.)
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core.chameleon_index import ChameleonSP
from repro.core.merkle_family import MerkleInvertedSP
from repro.core.objects import DataObject
from repro.core.system import HybridStorageSystem
from repro.sp.engine import make_engine

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"

JOURNAL_DOCS = (
    DataObject(1, ("covid-19", "sars-cov-2"), b"a"),
    DataObject(2, ("covid-19",), b"b\x00\xff"),
    DataObject(4, ("covid-19", "symptom", "vaccine"), b"c"),
    DataObject(5, ("covid-19", "vaccine"), b""),
    DataObject(6, ("symptom",), b"e" * 40),
    DataObject(7, ("sars-cov-2", "vaccine"), b"f"),
)

#: Sizes of the batches ``JOURNAL_DOCS`` is ingested in, in order.
JOURNAL_BATCHES = (2, 3, 1)

#: Fixture file -> scheme.
FIXTURES = {"journal_smi.bin": "smi", "journal_cistar.bin": "ci*"}


def write_journal(
    scheme: str, directory: Path, pool: str = "stateless"
) -> HybridStorageSystem:
    """A one-shard disk system over ``directory`` holding ``JOURNAL_DOCS``."""
    system = HybridStorageSystem(
        scheme=scheme,
        seed=8,
        cvc_modulus_bits=512,
        engine="disk",
        engine_dir=directory,
        pool=pool,
    )
    start = 0
    for size in JOURNAL_BATCHES:
        system.add_objects_batched(list(JOURNAL_DOCS[start : start + size]))
        start += size
    return system


def index_factory(index):
    """A factory for empty copies of ``index``'s kind and parameters."""
    if isinstance(index, ChameleonSP):
        return lambda: ChameleonSP(pp=index.pp, arity=index.arity, bloom=index.bloom)
    return lambda: MerkleInvertedSP(fanout=index.fanout)


def roots_of(index) -> dict:
    """Each keyword's root: a Merkle digest or a root commitment."""
    return {
        keyword: getattr(tree, "root_hash", None) or tree.root_commitment
        for keyword, tree in index.trees.items()
    }


@pytest.mark.parametrize("pool", ["stateless", "affine"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_disk_shard_writes_the_fixture_bytes(name, pool, tmp_path):
    # In an affine worker each object arrives deferred, as its bytes.
    system = write_journal(FIXTURES[name], tmp_path / "live", pool)
    system.close()
    written = (tmp_path / "live" / "shard-000.journal").read_bytes()
    assert written == (FIXTURE_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_reopening_the_fixture_gives_the_live_roots(name, tmp_path):
    system = write_journal(FIXTURES[name], tmp_path / "live")
    index = system.sp_index
    expected = roots_of(index)
    system.close()
    (tmp_path / "copy").mkdir()
    shutil.copyfile(FIXTURE_DIR / name, tmp_path / "copy" / "shard-000.journal")
    engine = make_engine("disk", 0, index_factory(index), directory=tmp_path / "copy")
    try:
        assert roots_of(engine.index) == expected
        assert len(expected) == 4
        assert engine.all_object_ids() == [obj.object_id for obj in JOURNAL_DOCS]
        assert [engine.get_object(obj.object_id) for obj in JOURNAL_DOCS] == list(
            JOURNAL_DOCS
        )
    finally:
        engine.close()

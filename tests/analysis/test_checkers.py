"""Per-rule unit tests for repro-lint.

Every checker gets at least one *triggering* fixture (asserting the rule
id and the anchored line) and one *clean* fixture.  Fixtures steer the
checker scoping via the ``module`` argument of :func:`lint_source`.
"""

from repro.analysis import lint_source


def rules(findings):
    return [f.rule for f in findings]


def lines(findings):
    return [f.line for f in findings]


# -- timing-safe-compare ------------------------------------------------------

TIMING_BAD = """\
def verify_proof(proof, payload, root):
    return proof.compute_root(payload) == root
"""

TIMING_GOOD = """\
from repro.crypto.hashing import digests_equal


def verify_proof(proof, payload, root):
    return digests_equal(proof.compute_root(payload), root)
"""


class TestTimingSafeCompare:
    def test_flags_digest_equality(self):
        findings = lint_source(TIMING_BAD, module="crypto/merkle.py")
        assert rules(findings) == ["timing-safe-compare"]
        assert findings[0].line == 2
        assert findings[0].symbol == "verify_proof"

    def test_flags_not_equal_on_roots(self):
        src = "ok = stored_root != computed_root\n"
        findings = lint_source(src, module="ethereum/state.py")
        assert rules(findings) == ["timing-safe-compare"]

    def test_flags_digest_attribute_operand(self):
        src = "ok = entry.object_hash == expected\n"
        findings = lint_source(src, module="core/query/verify.py")
        assert rules(findings) == ["timing-safe-compare"]

    def test_clean_fixture(self):
        assert lint_source(TIMING_GOOD, module="crypto/merkle.py") == []

    def test_out_of_scope_module_is_ignored(self):
        assert lint_source(TIMING_BAD, module="bench/report.py") == []

    def test_non_digest_comparison_is_ignored(self):
        src = "def verify_count(a, b):\n    return a == b\n"
        assert lint_source(src, module="crypto/merkle.py") == []


# -- crypto-hygiene -----------------------------------------------------------

HYGIENE_BAD = """\
import random
import secrets
import time


def slot_of(position):
    return hash(position)
"""

HYGIENE_GOOD = """\
from repro.crypto.hashing import sha3
from repro.crypto.numbers import make_random


def slot_of(position):
    return sha3(position.to_bytes(8, "big"))
"""


class TestCryptoHygiene:
    def test_flags_banned_imports_and_builtin_hash(self):
        findings = lint_source(HYGIENE_BAD, module="crypto/cvc.py")
        assert rules(findings) == ["crypto-hygiene"] * 4
        assert lines(findings) == [1, 2, 3, 7]

    def test_entropy_home_may_import_secrets(self):
        assert lint_source("import secrets\n", module="crypto/numbers.py") == []

    def test_os_urandom_flagged_outside_entropy_home(self):
        src = "import os\n\nkey = os.urandom(32)\n"
        findings = lint_source(src, module="crypto/prf.py")
        assert rules(findings) == ["crypto-hygiene"]
        assert findings[0].line == 3

    def test_clean_fixture(self):
        assert lint_source(HYGIENE_GOOD, module="crypto/cvc.py") == []

    def test_out_of_scope_module_is_ignored(self):
        assert lint_source(HYGIENE_BAD, module="bench/report.py") == []


# -- determinism --------------------------------------------------------------

DETERMINISM_BAD = """\
def commit(items):
    out = []
    for key in items.keys():
        out.append(key)
    return b"|".join({b"a", b"b"})
"""

DETERMINISM_GOOD = """\
def commit(items):
    out = []
    for key in sorted(items.keys()):
        out.append(key)
    return b"|".join(sorted({b"a", b"b"}))
"""


class TestDeterminism:
    def test_flags_keys_iteration_and_set_join(self):
        findings = lint_source(DETERMINISM_BAD, module="core/objects.py")
        assert rules(findings) == ["determinism"] * 2
        assert lines(findings) == [3, 5]

    def test_flags_set_comprehension_source(self):
        src = "digests = [h for h in set(parts)]\n"
        findings = lint_source(src, module="crypto/hashing.py")
        assert rules(findings) == ["determinism"]

    def test_sorted_wrapping_is_clean(self):
        assert lint_source(DETERMINISM_GOOD, module="core/objects.py") == []


# -- determinism: shard maps --------------------------------------------------

SHARD_MAP_BAD = """\
def gather(self):
    parts = []
    for engine in self.engines.values():
        parts.append(engine.view())
    rows = [view for _, view in self.shard_views.items()]
    return parts + rows
"""

SHARD_MAP_GOOD = """\
def gather(self):
    parts = []
    for shard_id in sorted(self.engines):
        parts.append(self.engines[shard_id].view())
    rows = [view for _, view in sorted(self.shard_views.items())]
    return parts + rows
"""


class TestDeterminismShardMaps:
    def test_flags_values_and_items_on_shard_maps(self):
        findings = lint_source(SHARD_MAP_BAD, module="core/sp_frontend.py")
        assert rules(findings) == ["determinism"] * 2
        assert lines(findings) == [3, 5]

    def test_engine_module_is_in_scope(self):
        src = "order = [e for e in engines.values()]\n"
        findings = lint_source(src, module="sp/engine.py")
        assert rules(findings) == ["determinism"]

    def test_non_shard_receivers_are_not_flagged(self):
        src = "order = [v for v in counters.values()]\n"
        assert lint_source(src, module="core/sp_frontend.py") == []

    def test_sorted_shard_iteration_is_clean(self):
        assert lint_source(SHARD_MAP_GOOD, module="core/sp_frontend.py") == []

    def test_out_of_scope_module_is_ignored(self):
        assert lint_source(DETERMINISM_BAD, module="sp/provider.py") == []


# -- verification-discipline --------------------------------------------------

VERIFY_BARE_EXCEPT = """\
def verify_vo(vo):
    try:
        vo.recompute()
    except:
        raise ValueError("bad vo")
"""

VERIFY_EXCEPT_PASS = """\
def verify_vo(vo):
    try:
        vo.recompute()
    except ValueError:
        pass
"""

VERIFY_RETURN_TRUE = """\
def verify_entry(entry):
    return True
"""

VERIFY_GOOD = """\
def verify_entry(entry):
    check_digest(entry)
    return True
"""


class TestVerificationDiscipline:
    def test_flags_bare_except(self):
        findings = lint_source(VERIFY_BARE_EXCEPT, module="core/query/verify.py")
        assert rules(findings) == ["verification-discipline"]
        assert findings[0].line == 4

    def test_flags_except_pass(self):
        findings = lint_source(VERIFY_EXCEPT_PASS, module="core/query/verify.py")
        assert rules(findings) == ["verification-discipline"]
        assert findings[0].line == 4

    def test_flags_unconditional_return_true(self):
        findings = lint_source(VERIFY_RETURN_TRUE, module="core/query/verify.py")
        assert rules(findings) == ["verification-discipline"]
        assert findings[0].line == 2
        assert findings[0].symbol == "verify_entry"

    def test_return_true_after_a_check_is_clean(self):
        assert lint_source(VERIFY_GOOD, module="core/query/verify.py") == []

    def test_applies_to_every_module(self):
        findings = lint_source(VERIFY_RETURN_TRUE, module="bench/report.py")
        assert rules(findings) == ["verification-discipline"]

    def test_non_verifier_functions_are_ignored(self):
        src = "def summarise(x):\n    return True\n"
        assert lint_source(src, module="core/query/verify.py") == []


# -- gas-integrality ----------------------------------------------------------

GAS_BAD = """\
def charge(gas_used):
    refund = gas_used / 2
    fee = 1.5
    return float(gas_used) + refund
"""

GAS_GOOD = """\
ETH_PRICE_USD = 229.0

GAS_SSTORE = 20000


def charge(gas_used):
    return gas_used + GAS_SSTORE // 2


def gas_to_usd(gas):
    return gas * ETH_PRICE_USD / 1e9
"""


class TestGasIntegrality:
    def test_flags_division_float_literal_and_cast(self):
        findings = lint_source(GAS_BAD, module="ethereum/gas.py")
        assert rules(findings) == ["gas-integrality"] * 3
        assert lines(findings) == [2, 3, 4]

    def test_usd_reporting_helpers_are_exempt(self):
        assert lint_source(GAS_GOOD, module="ethereum/gas.py") == []

    def test_out_of_scope_module_is_ignored(self):
        assert lint_source(GAS_BAD, module="ethereum/chain.py") == []


# -- lock-discipline ----------------------------------------------------------

LOCK_BAD = """\
import threading


class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0
        self._entries = {}

    def seen(self, key):
        with self._lock:
            present = key in self._entries
        self.hits += 1
        return present
"""

LOCK_GOOD = """\
import threading


class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0
        self._entries = {}

    def seen(self, key):
        with self._lock:
            present = key in self._entries
            self.hits += 1
        return present
"""

MODULE_LOCK_BAD = """\
import threading

_tables = {}
_tables_lock = threading.Lock()


def put(key, value):
    with _tables_lock:
        _tables[key] = value


def drop(key):
    _tables.pop(key)
"""


class TestLockDiscipline:
    def test_flags_counter_mutation_outside_lock(self):
        findings = lint_source(LOCK_BAD, module="core/proofcache.py")
        assert rules(findings) == ["lock-discipline"]
        assert findings[0].line == 13
        assert findings[0].symbol == "Cache.seen"

    def test_mutation_under_lock_is_clean(self):
        assert lint_source(LOCK_GOOD, module="core/proofcache.py") == []

    def test_lockless_classes_are_ignored(self):
        src = (
            "class Tally:\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        )
        assert lint_source(src, module="obs/metrics.py") == []

    def test_flags_guarded_module_global_outside_lock(self):
        findings = lint_source(MODULE_LOCK_BAD, module="crypto/numbers.py")
        assert rules(findings) == ["lock-discipline"]
        assert findings[0].line == 13


# -- wallclock ----------------------------------------------------------------

WALLCLOCK_BAD = """\
import time


def bench():
    started = time.time()
    run()
    return time.time() - started
"""

WALLCLOCK_GOOD = """\
import time


def bench():
    started = time.perf_counter()
    run()
    elapsed = time.perf_counter() - started
    record(timestamp=time.time(), elapsed=elapsed)
    return {"at": time.time(), "elapsed": elapsed}
"""


class TestWallClock:
    def test_flags_stopwatch_assignment_and_subtraction(self):
        findings = lint_source(WALLCLOCK_BAD, module="bench/runner.py")
        assert rules(findings) == ["wallclock", "wallclock"]
        assert lines(findings) == [5, 7]

    def test_epoch_timestamp_uses_are_clean(self):
        assert lint_source(WALLCLOCK_GOOD, module="bench/runner.py") == []

    def test_bare_time_import_is_flagged(self):
        src = (
            "from time import time\n"
            "def go():\n"
            "    t0 = time()\n"
        )
        findings = lint_source(src, module="bench/fastpath.py")
        assert rules(findings) == ["wallclock"]
        assert findings[0].symbol == "go"

    def test_non_stopwatch_name_is_clean(self):
        src = (
            "import time\n"
            "def stamp():\n"
            "    created_at = time.time()\n"
            "    return created_at\n"
        )
        assert lint_source(src, module="ethereum/chain.py") == []


# -- multiproof-batched-path --------------------------------------------------

MULTIPROOF_BAD = """\
from repro.core.mbtree import MerklePath, PathStep


def rebuild(entry, steps):
    parts = [PathStep(index=i, before=(), after=()) for i in steps]
    return MerklePath(steps=tuple(parts))
"""

MULTIPROOF_SUPPRESSED = """\
from repro.core.mbtree import MerklePath


def legacy_decode(steps):
    # reprolint: disable-next-line=multiproof-batched-path
    return MerklePath(steps=steps)
"""


class TestMultiproofBatchedPath:
    def test_flags_path_construction_in_query_pipeline(self):
        findings = lint_source(MULTIPROOF_BAD, module="core/query/codec.py")
        assert rules(findings) == [
            "multiproof-batched-path",
            "multiproof-batched-path",
        ]
        assert lines(findings) == [5, 6]
        assert findings[0].symbol == "rebuild"

    def test_flags_sp_frontend(self):
        src = "proof = MerklePath(steps=())\n"
        findings = lint_source(src, module="core/sp_frontend.py")
        assert rules(findings) == ["multiproof-batched-path"]

    def test_flags_per_entry_proving_in_the_merkle_views(self):
        src = (
            "def all_proven(self):\n"
            "    return [self.tree.prove(e.key) for e in self.tree.iter_entries()]\n"
            "def boundaries_proven(self, target):\n"
            "    return self.tree.boundaries(target)\n"
            "def located(self, target):\n"
            "    return self.tree.locate(target)\n"
        )
        findings = lint_source(src, module="core/merkle_family.py")
        assert rules(findings) == ["multiproof-batched-path"] * 2
        assert lines(findings) == [2, 4]
        # Elsewhere those method names mean other things.
        assert lint_source(src, module="core/sp_frontend.py") == []
        assert rules(
            lint_source(MULTIPROOF_BAD, module="core/merkle_family.py")
        ) == ["multiproof-batched-path"] * 2

    def test_multiproof_module_is_out_of_scope(self):
        assert lint_source(MULTIPROOF_BAD, module="core/multiproof.py") == []

    def test_mbtree_itself_is_out_of_scope(self):
        assert lint_source(MULTIPROOF_BAD, module="core/mbtree.py") == []

    def test_suppression_comment_is_honoured(self):
        findings = lint_source(
            MULTIPROOF_SUPPRESSED, module="core/query/codec.py"
        )
        assert findings == []

    def test_unrelated_calls_are_clean(self):
        src = "vo = QueryVO(conjuncts=())\n"
        assert lint_source(src, module="core/query/vo.py") == []


# -- flatbuf-node-storage -----------------------------------------------------

FLATBUF_BAD = """\
class LeafNode:
    def __init__(self, entries):
        self.entries = entries


def _rehash(view, index):
    entries = [Entry(key=k, value_hash=h) for k, h in view.slots(index)]
    return LeafNode(entries)
"""

FLATBUF_GOOD = """\
def _rehash(view, index):
    view.set_digest(index, leaf_digest(_leaf_digests(view, index)))


def iter_entries(view, index):
    for slot in range(view.count(index)):
        yield Entry(
            key=view.leaf_key(index, slot),
            value_hash=view.leaf_value_hash(index, slot),
        )
"""


class TestFlatbufNodeStorage:
    def test_flags_node_class_and_hot_path_entries(self):
        findings = lint_source(FLATBUF_BAD, module="core/mbtree.py")
        assert rules(findings) == [
            "flatbuf-node-storage",
            "flatbuf-node-storage",
            "flatbuf-node-storage",
        ]
        assert lines(findings) == [1, 7, 8]

    def test_read_side_entry_materialisation_is_clean(self):
        assert lint_source(FLATBUF_GOOD, module="core/mbtree.py") == []

    def test_other_modules_are_out_of_scope(self):
        assert lint_source(FLATBUF_BAD, module="baselines/gem2.py") == []

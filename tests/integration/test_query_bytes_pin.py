"""What ``system.query`` returns, pinned per scheme and seed.

For seeds 7–9 and all four schemes, a fixed corpus answers a fixed
query list; each answer's result IDs and its cold ``VO_sp`` (every
table in full), proof-only and ``VO_chain`` byte counts must equal the
values recorded below.  They
were recorded while ``system.query`` still verified the SP's in-memory
answer, before it became the wire client over the in-process server: a
change that moves them changes what the client is sent or charged.
"""

import random

import pytest

from repro import DataObject, HybridStorageSystem, KeywordQuery

VOCABULARY = ("alpha", "beta", "gamma", "delta", "two words", "and")

QUERIES = (
    "alpha",
    "alpha AND beta",
    "(beta AND gamma) OR delta",
    '"two words" AND alpha',
    '"and" OR (gamma AND delta AND alpha)',
    "alpha AND absent",
    # Sent as its text: the keywords need quoting to come back intact.
    KeywordQuery.conjunctive(["Two Words", "and"]),
)

#: ``(result_ids, vo_cold_bytes, vo_proof_bytes, vo_chain_bytes)`` per query.
PINNED = {
    ('mi', 7): [([2, 3, 4, 5, 6, 7, 9, 19, 24], 386, 12, 32), ([4, 24], 718, 216, 64), ([1, 5, 7, 9, 17, 20, 21, 24], 797, 124, 96), ([2, 3, 4, 7, 9, 19], 857, 190, 64), ([2, 8, 17, 19, 22], 568, 88, 128), ([], 25, 0, 64), ([2, 19], 709, 124, 64)],
    ('mi', 8): [([3, 6, 8, 9, 11, 12, 19], 304, 10, 32), ([3, 8, 9], 570, 148, 64), ([5, 6, 7, 8, 10, 11, 13, 17, 24], 881, 128, 96), ([6, 12, 19], 689, 182, 64), ([2, 3, 7, 14, 16, 18, 19, 20, 22], 1147, 266, 128), ([], 25, 0, 64), ([18, 19, 22], 793, 88, 64)],
    ('mi', 9): [([3, 4, 7, 9, 10, 11, 13, 17, 19, 22], 426, 12, 32), ([10, 11, 17], 806, 24, 64), ([3, 5, 6, 9, 10, 11, 12, 15, 16, 18], 963, 130, 96), ([9, 19], 697, 150, 64), ([2, 3, 4, 5, 14, 19, 22], 1033, 232, 128), ([], 25, 0, 64), ([19], 549, 84, 64)],
    ('smi', 7): [([2, 3, 4, 5, 6, 7, 9, 19, 24], 386, 12, 32), ([4, 24], 718, 216, 64), ([1, 5, 7, 9, 17, 20, 21, 24], 797, 124, 96), ([2, 3, 4, 7, 9, 19], 857, 190, 64), ([2, 8, 17, 19, 22], 568, 88, 128), ([], 25, 0, 64), ([2, 19], 709, 124, 64)],
    ('smi', 8): [([3, 6, 8, 9, 11, 12, 19], 304, 10, 32), ([3, 8, 9], 570, 148, 64), ([5, 6, 7, 8, 10, 11, 13, 17, 24], 881, 128, 96), ([6, 12, 19], 689, 182, 64), ([2, 3, 7, 14, 16, 18, 19, 20, 22], 1147, 266, 128), ([], 25, 0, 64), ([18, 19, 22], 793, 88, 64)],
    ('smi', 9): [([3, 4, 7, 9, 10, 11, 13, 17, 19, 22], 426, 12, 32), ([10, 11, 17], 806, 24, 64), ([3, 5, 6, 9, 10, 11, 12, 15, 16, 18], 963, 130, 96), ([9, 19], 697, 150, 64), ([2, 3, 4, 5, 14, 19, 22], 1033, 232, 128), ([], 25, 0, 64), ([19], 549, 84, 64)],
    ('ci', 7): [([2, 3, 4, 5, 6, 7, 9, 19, 24], 1611, 1237, 72), ([4, 24], 2558, 2056, 144), ([1, 5, 7, 9, 17, 20, 21, 24], 3358, 2685, 216), ([2, 3, 4, 7, 9, 19], 3435, 2768, 144), ([2, 8, 17, 19, 22], 2579, 2099, 288), ([], 25, 0, 144), ([2, 19], 2837, 2252, 144)],
    ('ci', 8): [([3, 6, 8, 9, 11, 12, 19], 1271, 977, 72), ([3, 8, 9], 2324, 1902, 144), ([5, 6, 7, 8, 10, 11, 13, 17, 24], 3698, 2945, 216), ([6, 12, 19], 2627, 2120, 144), ([2, 3, 7, 14, 16, 18, 19, 20, 22], 4921, 4040, 288), ([], 25, 0, 144), ([18, 19, 22], 3283, 2578, 144)],
    ('ci', 9): [([3, 4, 7, 9, 10, 11, 13, 17, 19, 22], 1781, 1367, 72), ([10, 11, 17], 3386, 2604, 144), ([3, 5, 6, 9, 10, 11, 12, 15, 16, 18], 3868, 3035, 216), ([9, 19], 2627, 2080, 144), ([2, 3, 4, 5, 14, 19, 22], 4093, 3292, 288), ([], 25, 0, 144), ([19], 2263, 1798, 144)],
    ('ci*', 7): [([2, 3, 4, 5, 6, 7, 9, 19, 24], 1611, 1237, 112), ([4, 24], 2792, 2290, 224), ([1, 5, 7, 9, 17, 20, 21, 24], 3252, 2699, 336), ([2, 3, 4, 7, 9, 19], 3753, 2966, 224), ([2, 8, 17, 19, 22], 1703, 1304, 448), ([], 25, 0, 184), ([2, 19], 3071, 2446, 224)],
    ('ci*', 8): [([3, 6, 8, 9, 11, 12, 19], 1271, 977, 112), ([3, 8, 9], 1984, 1602, 224), ([5, 6, 7, 8, 10, 11, 13, 17, 24], 2546, 1954, 336), ([6, 12, 19], 2627, 2160, 224), ([2, 3, 7, 14, 16, 18, 19, 20, 22], 3599, 2919, 448), ([], 25, 0, 184), ([18, 19, 22], 3177, 2632, 224)],
    ('ci*', 9): [([3, 4, 7, 9, 10, 11, 13, 17, 19, 22], 1781, 1367, 112), ([10, 11, 17], 3174, 2632, 224), ([3, 5, 6, 9, 10, 11, 12, 15, 16, 18], 4038, 3285, 336), ([9, 19], 2945, 2398, 224), ([2, 3, 4, 5, 14, 19, 22], 4475, 3514, 448), ([], 25, 0, 184), ([19], 2263, 1878, 224)],
}


def corpus(seed: int) -> list[DataObject]:
    rng = random.Random(seed)
    return [
        DataObject(
            oid,
            tuple(rng.sample(VOCABULARY, rng.randint(1, 3))),
            b"object %d" % oid,
        )
        for oid in range(1, 25)
    ]


def answers(scheme: str, seed: int) -> list:
    system = HybridStorageSystem(scheme=scheme, cvc_modulus_bits=512, seed=seed)
    system.add_objects(corpus(seed))
    out = []
    for query in QUERIES:
        result = system.query(query)
        # A table the session verified earlier is sent as a reference;
        # what is pinned is the VO a client holding nothing receives.
        assert result.vo_sp_bytes <= result.vo_cold_bytes
        out.append(
            (
                result.result_ids,
                result.vo_cold_bytes,
                result.vo_proof_bytes,
                result.vo_chain_bytes,
            )
        )
    return out


@pytest.mark.parametrize("seed", (7, 8, 9))
@pytest.mark.parametrize("scheme", ("mi", "smi", "ci", "ci*"))
def test_query_bytes_pinned(scheme, seed):
    assert answers(scheme, seed) == PINNED[scheme, seed]


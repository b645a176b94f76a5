"""The byte sweeps' two budgets.

A sweep mutates a message at each offset in turn.  Tier-1 runs a seeded
sample of the offsets; ``REPRO_FULL_SWEEPS=1`` (the CI step that also
compiles asserts out) runs every offset.
"""

from __future__ import annotations

import os
import random

#: Offsets of each sweep run in tier-1; every offset under the env flag.
SAMPLE = None if os.environ.get("REPRO_FULL_SWEEPS") == "1" else 96


def offsets(length: int, salt: int = 0) -> list[int]:
    """Every offset below ``length``, or a seeded sample of them."""
    every = list(range(length))
    if SAMPLE is None or SAMPLE >= length:
        return every
    return sorted(random.Random(length * 31 + salt).sample(every, SAMPLE))

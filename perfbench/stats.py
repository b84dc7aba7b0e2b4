"""Statistical acceptance bounds shared by the op checks and the run-level checks."""

from __future__ import annotations

import math

# Binomial standard errors allowed between a coverage estimate and its level.
# The acceptance suite's +-3 SE would fail one check in 370 by chance, and a
# run makes hundreds of them.
Z_COVERAGE = 5.0
# Null rejection rate of the KS bound for the elliptical families, for the
# same reason; the negative control must exceed the 1% critical value.
KS_ALPHA = 1e-6
KS_CONTROL = 1.63
# Nominal level of every pooled coverage group (local_ci and cov.*).
POOLED_LEVEL = 0.95


def coverage_ok(hits: float, n: float, level: float) -> bool:
    return abs(hits / n - level) <= Z_COVERAGE * math.sqrt(level * (1.0 - level) / n)


def ks_bound(reps: int) -> float:
    """KS distance exceeded with probability about KS_ALPHA under the null."""
    return math.sqrt(math.log(2.0 / KS_ALPHA) / 2.0) / math.sqrt(reps)

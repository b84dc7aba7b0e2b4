"""Counter-based random streams, batched across replications.

Each Monte Carlo replication owns a splitmix64 stream whose initial state is a
64-bit hash mix of (master seed, replication index), so results do not depend
on how replications are split into blocks or workers.  A block of
replications is a ``uint64`` state array (numpy array arithmetic wraps
silently).  Every draw takes the state array and a selection of it (all of
it, a boolean mask or an index array), advances the selected states in place
and returns one value per selected replication.  Rejection samplers retry
only the replications that rejected, so each replication consumes exactly
the draws it would if its stream were run on its own.  splitmix64 advances
by a constant, so the next ``count`` states of a stream are ``s + j * GOLDEN``
for j = 1..count, and ``next_normals`` draws a whole (count, n) block of
normals in one array operation.

The draws are bit-identical to evaluating one stream at a time with Python
floats, which take ``log`` and ``cos`` from libm through ``math``.  So do the
array loops here: ``log`` is ``scipy.special.xlogy(1.0, x)``, SciPy's compiled
loop over the C library ``log`` (and ``1.0 * log(x)`` is exact), and ``cos``
is ``np.cos``, whose float64 loop on the tested builds is the C library
``cos`` (numpy does not promise this).  ``np.log`` is not used: its SIMD loop
differs from libm in the last ulp on about 0.35% of inputs.
``tests/test_rng.py`` checks both loops against ``math`` element for element.
Every expression keeps the scalar evaluation order.  ``scipy.special`` is
imported on first use, by ``_log``, so importing this module does not load it.
"""

from __future__ import annotations

import numpy as np

from misspec.errors import InputError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_U53 = 0.5**53
_TWO_PI = 2.0 * np.pi

_ALL = slice(None)


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise libm ``log``."""
    import scipy.special

    return scipy.special.xlogy(1.0, x)


_cos = np.cos


def mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


def check_seed(seed) -> None:
    """Refuse a master seed that is not an integer in [0, 2**64); a bool is refused."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise InputError(f"seed must be an integer in [0, 2**64), got {seed!r}")


# Float64 values a sampler may hold at once: 2**26, 512 MiB.
MAX_SAMPLE_VALUES = 2**26


def check_positive_int(value, name: str) -> None:
    """Refuse a count that is not a positive integer; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")


def stream_states(seed: int, rep_start: int, rep_stop: int) -> np.ndarray:
    """Initial stream states of replications ``[rep_start, rep_stop)``."""
    h = mix64(np.array([seed], dtype=np.uint64) + _GOLDEN)
    reps = np.arange(rep_start, rep_stop, dtype=np.uint64)
    return mix64(h ^ (reps * _MIX2 + _GOLDEN))


def _next_uniforms(state: np.ndarray, count: int, sel=_ALL) -> np.ndarray:
    """``count`` successive uniform draws in (0, 1] (top 53 bits), shape (count, n)."""
    s = state[sel] + np.arange(1, count + 1, dtype=np.uint64)[:, None] * _GOLDEN
    state[sel] = s[-1]
    return ((mix64(s) >> _S11).astype(np.float64) + 1.0) * _U53


def skip_uniforms(state: np.ndarray, count: int) -> None:
    """Advance every stream past ``count`` uniform draws without making them."""
    # An array product wraps silently; one of numpy uint64 scalars warns.
    state += np.full(1, count, dtype=np.uint64) * _GOLDEN


def next_u01(state: np.ndarray, sel=_ALL) -> np.ndarray:
    """Uniform draws in (0, 1] (top 53 bits)."""
    return _next_uniforms(state, 1, sel)[0]


def next_normals(state: np.ndarray, count: int, sel=_ALL) -> np.ndarray:
    """``count`` successive standard normal draws, shape (count, n).

    Box-Muller on two successive uniforms per draw, so the block equals
    ``count`` calls of ``next_normal`` and leaves the states where they would.
    """
    u = _next_uniforms(state, 2 * count, sel)
    return np.sqrt(-2.0 * _log(u[0::2])) * _cos(_TWO_PI * u[1::2])


def next_normal(state: np.ndarray, sel=_ALL) -> np.ndarray:
    """Standard normal draws via Box-Muller (two uniforms per draw)."""
    return next_normals(state, 1, sel)[0]


def next_exponential(state: np.ndarray, sel=_ALL) -> np.ndarray:
    """Unit-rate exponential draws."""
    return -_log(next_u01(state, sel))


def next_gamma(state: np.ndarray, shape: float, sel=_ALL) -> np.ndarray:
    """Gamma(shape, 1) draws by Marsaglia-Tsang squeeze, boosted for shape < 1."""
    idx = np.arange(state.size)[sel]
    boost = np.ones(idx.size)
    a = shape
    if a < 1.0:
        inv = 1.0 / a
        boost = np.array([u**inv for u in next_u01(state, idx).tolist()])
        a = a + 1.0
    d = a - 1.0 / 3.0
    cc = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(idx.size)
    pending = np.arange(idx.size)
    while pending.size:
        x = next_normal(state, idx[pending])
        t = 1.0 + cc * x
        drew = t > 0.0
        retry = pending[~drew]
        pending, x, t = pending[drew], x[drew], t[drew]
        v = t * t * t
        u = next_u01(state, idx[pending])
        x2 = x * x
        done = u < 1.0 - 0.0331 * x2 * x2
        slow = np.flatnonzero(~done)
        done[slow] = _log(u[slow]) < 0.5 * x2[slow] + d * (1.0 - v[slow] + _log(v[slow]))
        out[pending[done]] = boost[pending[done]] * d * v[done]
        pending = np.concatenate([retry, pending[~done]])
    return out


def next_chisquare(state: np.ndarray, dof: float, sel=_ALL) -> np.ndarray:
    return 2.0 * next_gamma(state, 0.5 * dof, sel)

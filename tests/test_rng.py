import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from misspec import _rng


def _draws(fn, n, seed=123, **kwargs):
    return fn(_rng.stream_states(seed, 0, n), **kwargs)


def _ks_pvalue_ok(samples, cdf):
    # 1% level at n samples; distributional sanity, not a precision claim.
    n = samples.size
    s = np.sort(samples)
    f = cdf(s)
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - f), np.max(f - (i - 1) / n))
    return ks < 1.63 / np.sqrt(n)


def test_uniform_distribution():
    u = _draws(_rng.next_u01, 20_000)
    assert np.all((u > 0.0) & (u <= 1.0))
    assert _ks_pvalue_ok(u, lambda x: x)


def test_normal_distribution():
    z = _draws(_rng.next_normal, 20_000)
    assert _ks_pvalue_ok(z, scipy.stats.norm.cdf)


def test_exponential_distribution():
    e = _draws(_rng.next_exponential, 20_000)
    assert _ks_pvalue_ok(e, lambda x: 1.0 - np.exp(-x))


def test_chisquare_distribution_all_shape_regimes():
    # dof/2 < 1 exercises the boosted gamma branch.
    for dof in (0.7, 3.0, 5.0):
        w = _draws(_rng.next_chisquare, 20_000, dof=dof)
        assert _ks_pvalue_ok(w, lambda x: scipy.stats.chi2.cdf(x, dof))


def test_streams_are_reproducible_and_distinct():
    assert np.array_equal(_rng.stream_states(9, 4, 5), _rng.stream_states(9, 0, 10)[4:5])
    states = {int(s) for seed in range(50) for s in _rng.stream_states(seed, 0, 50)}
    assert len(states) == 2500


def test_draws_advance_the_state():
    state = _rng.stream_states(1, 0, 1)
    start = state.copy()
    u1 = _rng.next_u01(state)
    u2 = _rng.next_u01(state)
    assert state[0] != start[0]
    assert u1[0] != u2[0]


@pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
def test_stream_states_equal_scalar(seed):
    with np.errstate(over="ignore"):
        expected = [oracles.stream_state(seed, rep) for rep in [*range(1000, 1200), 2**40 + 3]]
    got = np.concatenate([_rng.stream_states(seed, 1000, 1200), _rng.stream_states(seed, 2**40 + 3, 2**40 + 4)])
    assert np.array_equal(got, np.array(expected, dtype=np.uint64))


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("next_u01", {}),
        ("next_normal", {}),
        ("next_exponential", {}),
        ("next_gamma", {"shape": 0.35}),
        ("next_gamma", {"shape": 1.0}),
        ("next_gamma", {"shape": 4.5}),
        ("next_chisquare", {"dof": 0.7}),
        ("next_chisquare", {"dof": 3.0}),
    ],
)
def test_draws_equal_scalar(name, kwargs):
    # Three successive draws per replication, so the states after a draw
    # (including rejection retries) are compared too.
    n = 3000
    state = _rng.stream_states(42, 0, n)
    got = np.array([getattr(_rng, name)(state, **kwargs) for _ in range(3)])
    expected = oracles.scalar_draws(getattr(oracles, name), 42, 0, n, count=3, **kwargs)
    assert np.array_equal(got, expected)


def test_masked_draws_advance_only_the_selection():
    n = 500
    state = _rng.stream_states(5, 0, n)
    odd = np.arange(n) % 2 == 1
    _rng.next_gamma(state, 0.4, odd)
    got = _rng.next_normal(state)
    first = oracles.scalar_draws(oracles.next_normal, 5, 0, n)[0]
    assert np.array_equal(got[~odd], first[~odd])
    expected = np.empty(n)
    with np.errstate(over="ignore"):
        for rep in np.flatnonzero(odd):
            _, s = oracles.next_gamma(oracles.stream_state(5, rep), 0.4)
            expected[rep], _ = oracles.next_normal(s)
    assert np.array_equal(got[odd], expected[odd])


def test_log_and_cos_loops_are_libm():
    # The draws are bit-identical to the scalar oracle only if the array loops
    # behind _rng._log and _rng._cos return what math.log/math.cos do on this
    # machine: on Box-Muller uniforms, on 2 pi times them, and on the
    # squeeze's v = t**3, t = 1 + cc * x, near 1 for small cc.
    state = _rng.stream_states(2024, 0, 2**20)
    u = _rng.next_u01(state)
    t = 1.0 + 2.0 ** -(2 + np.arange(u.size) % 40) * _rng.next_normal(state)
    v = (t * t * t)[t > 0.0]
    for fn, ref, x in [(_rng._log, math.log, u), (_rng._cos, math.cos, 2.0 * math.pi * u), (_rng._log, math.log, v)]:
        expected = np.array([ref(e) for e in x.tolist()])
        assert np.array_equal(fn(x), expected)


@settings(max_examples=60)
@given(
    count=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    shape=st.sampled_from([None, 0.35, 1.0, 4.5]),
    mask=st.lists(st.booleans(), min_size=1, max_size=30),
)
def test_normal_block_equals_successive_draws(count, seed, shape, mask):
    # States first advanced on a masked subset: by a rejection (gamma) draw,
    # or by a single normal draw when shape is None.
    mask = np.array(mask)
    state = _rng.stream_states(seed, 0, mask.size)
    if shape is None:
        _rng.next_normal(state, mask)
    else:
        _rng.next_gamma(state, shape, mask)
    successive = state.copy()
    block = _rng.next_normals(state, count)
    assert block.shape == (count, mask.size)
    assert np.array_equal(block, np.array([_rng.next_normal(successive) for _ in range(count)]))
    assert np.array_equal(state, successive)
    expected = np.empty((count, mask.size))
    final = []
    with np.errstate(over="ignore"):
        for rep, advanced in enumerate(mask):
            s = oracles.stream_state(seed, rep)
            if advanced:
                _, s = oracles.next_normal(s) if shape is None else oracles.next_gamma(s, shape)
            for i in range(count):
                expected[i, rep], s = oracles.next_normal(s)
            final.append(s)
    assert np.array_equal(block, expected)
    assert np.array_equal(state, np.array(final, dtype=np.uint64))

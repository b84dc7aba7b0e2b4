import numpy as np
import pytest
import scipy.stats

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

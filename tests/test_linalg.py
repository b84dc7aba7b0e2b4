"""The numpy-only linear algebra of the per-model path: SPD validation, lazy
eigendecomposition factors, and the Cholesky solve."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from misspec import _linalg
from misspec.errors import InputError, ModelValidationError
from misspec.inference import InferenceConfig, analyze
from misspec.model import ModelInstance
from oracles import random_model_arrays, random_spd


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


class TestLazyFactors:
    def test_analyze_needs_no_eigenvectors(self, eigh_calls):
        y, x, w = random_model_arrays(np.random.default_rng(1), 5, 2)
        m = ModelInstance(Y=y, X=x, W=w)
        analyze(m, InferenceConfig(v=[1.0, -0.5]), (0.5, 1.0, 4.0))
        assert eigh_calls == []

    def test_one_eigh_serves_every_factor(self, eigh_calls):
        y, x, w = random_model_arrays(np.random.default_rng(2), 4, 1)
        m = ModelInstance(Y=y, X=x, W=w)
        wf = m.design.w_factor
        _ = (wf.root, wf.inv_root, wf.inverse, wf.log_det)
        assert eigh_calls == [(4, 4)]

    @pytest.mark.parametrize("spread", [1.0, 11.0])
    def test_factors_are_the_eigh_formulas(self, spread):
        rng = np.random.default_rng(3)
        for k in (1, 2, 5, 8):
            w = random_spd(rng, k, spread=spread)
            m = ModelInstance(Y=np.zeros(k), X=np.ones((k, 1)), W=w)
            sym = 0.5 * (w + w.T)
            vals, vecs = np.linalg.eigh(sym)
            sq = np.sqrt(vals)
            root = (vecs * sq) @ vecs.T
            inv_root = (vecs / sq) @ vecs.T
            inverse = (vecs / vals) @ vecs.T
            assert_array_equal(m.W, sym)
            assert_array_equal(m.design.w_factor.root, 0.5 * (root + root.T))
            assert_array_equal(m.design.w_factor.inv_root, 0.5 * (inv_root + inv_root.T))
            assert_array_equal(m.design.w_factor.inverse, 0.5 * (inverse + inverse.T))
            assert m.design.w_factor.log_det == float(np.sum(np.log(vals)))


class TestSpdValidation:
    W = np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.1], [0.0, 0.1, 2.0]])
    TOL = 1e-8 * (1.0 + 2.0)

    def _skewed(self, delta):
        w = self.W.copy()
        w[0, 1] += delta
        return w

    def test_rejects_asymmetry_above_tolerance(self):
        with pytest.raises(ModelValidationError, match="W must be symmetric"):
            _linalg.spd_factor(self._skewed(2.0 * self.TOL))

    def test_accepts_asymmetry_below_tolerance(self):
        w = self._skewed(0.5 * self.TOL)
        assert_array_equal(_linalg.spd_factor(w).matrix, 0.5 * (w + w.T))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ModelValidationError, match="Sigma must be finite"):
            _linalg.spd_factor(self._skewed(bad), "Sigma")


class TestChoSolve:
    @pytest.mark.parametrize("spread", [1.0, 11.0])
    def test_matches_dense_solve(self, spread):
        rng = np.random.default_rng(4)
        eps = np.finfo(np.float64).eps
        for p in range(1, 7):
            for _ in range(10):
                k = p + int(rng.integers(1, 5))
                _, x, _ = random_model_arrays(rng, k, p)
                h = x.T @ random_spd(rng, k, spread=spread) @ x
                lower = _linalg.cholesky(h)
                tol = 50.0 * p * np.linalg.cond(h) * eps
                for b in (rng.standard_normal(p), rng.standard_normal((p, k))):
                    got = _linalg.cho_solve(lower, b)
                    ref = np.linalg.solve(h, b)
                    assert got.shape == b.shape
                    err = np.linalg.norm(got - ref, axis=0)
                    assert np.all(err <= tol * np.linalg.norm(ref, axis=0))

    def test_cholesky_is_plain_lower_factor(self):
        h = np.array([[4.0, 2.0], [2.0, 3.0]])
        lower = _linalg.cholesky(h)
        assert lower[0, 1] == 0.0
        assert_allclose(lower @ lower.T, h, rtol=1e-15)

    def test_leaves_right_hand_side_alone(self):
        lower = _linalg.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        _linalg.cho_solve(lower, b)
        assert_array_equal(b, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 2, 1)])
    def test_rejects_mismatched_right_hand_side(self, shape):
        lower = _linalg.cholesky(np.eye(2))
        with pytest.raises(InputError, match="right-hand side"):
            _linalg.cho_solve(lower, np.ones(shape))

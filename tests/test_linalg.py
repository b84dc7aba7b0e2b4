"""The numpy-only linear algebra of the per-model path: SPD validation, the
factors of its one eigendecomposition, and H^{-1} from the design's SVD."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from misspec import _linalg
from misspec.errors import ModelValidationError
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
    def test_analyze_takes_one_eigh_per_w(self, eigh_calls):
        # The eigh that validates W also gives the root that whitens the design.
        y, x, w = random_model_arrays(np.random.default_rng(1), 5, 2)
        m = ModelInstance(Y=y, X=x, W=w)
        analyze(m, InferenceConfig(v=[1.0, -0.5]), (0.5, 1.0, 4.0))
        assert eigh_calls == [(5, 5)]

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


class TestHessianInverse:
    @pytest.mark.parametrize("spread", [1.0, 11.0])
    def test_matches_dense_solve(self, spread):
        # H^{-1} = 2^n V S^-2 V' from the whitened design's SVD, against a
        # dense solve of H = X'WX, to H's own condition number.
        rng = np.random.default_rng(4)
        eps = np.finfo(np.float64).eps
        for p in range(1, 7):
            for _ in range(10):
                k = p + int(rng.integers(1, 5))
                _, x, _ = random_model_arrays(rng, k, p)
                w = random_spd(rng, k, spread=spread)
                h = x.T @ w @ x
                got = ModelInstance(Y=np.zeros(k), X=x, W=w).design.hessian_inv.matrix
                ref = np.linalg.solve(h, np.eye(p))
                tol = 50.0 * p * np.linalg.cond(h) * eps
                assert np.linalg.norm(got - ref) <= tol * np.linalg.norm(ref)

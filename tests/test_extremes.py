"""The fit and the CLI at the numerical extremes of float64.

Every model here is a golden model (``m1.json``, ``m2.json``) or the
near-collinear one with Y, X and W each scaled by a power of two, so the true
results follow from the unscaled ones.  A run must exit 0 with finite numbers
that match those, or exit 1 or 2 with the one-line JSON error; it must never
end in a traceback or raise a ``RuntimeWarning``.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from misspec.cli import main
from oracles import collinear_model, least_squares_mp

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
TINY = 2.0**-1022  # the smallest normal float


def _golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def _scaled(model: dict, ey: int, ex: int, ew: int, exact: bool = False) -> dict | None:
    """The model with Y, X and W times 2^ey, 2^ex and 2^ew.

    Entries that underflow round, unless ``exact``.  None where a scaled input
    overflows, or with ``exact`` where one rounds.
    """
    out = dict(model)
    for name, e in (("Y", ey), ("X", ex), ("W", ew)):
        a = np.asarray(model[name], dtype=np.float64)
        with np.errstate(over="ignore"):
            scaled = np.ldexp(a, e)
        if not np.isfinite(scaled).all() or (exact and not np.array_equal(np.ldexp(scaled, -e), a)):
            return None
        out[name] = scaled.tolist()
    return out


def _cli(command: str, model: dict, *args: str) -> tuple[int, str, str]:
    """Run the CLI in-process on ``model`` with warnings as errors: (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(model, fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([command, "--model", path, *args])
    out, err = out.getvalue(), err.getvalue()
    if code != 0:
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert code in (1, 2) and payload["code"] == code and out == ""
    else:
        assert err == ""
    return code, out, err


def _close(got, want, rtol=1e-9) -> bool:
    """Equal to rtol where ``want`` is normal, and to a few subnormal steps below that."""
    return abs(got - want) <= rtol * abs(want) + 2.0**-1070


def _report(model: dict, d_values) -> tuple[int, dict | None]:
    code, out, _ = _cli("analyze", model, "--d", ",".join(repr(d) for d in d_values))
    return code, (json.loads(out) if code == 0 else None)


def _check_report(got: dict, want: dict, ey: int, ex: int, ew: int) -> None:
    """``got`` is ``want`` for the model scaled by (2^ey, 2^ex, 2^ew)."""
    shift = ey - ex  # theta_W, the intervals and the identified sets
    for g, w in zip(got["theta_w"], want["theta_w"]):
        assert _close(g, math.ldexp(w, shift))
    assert _close(got["j_stat"], math.ldexp(want["j_stat"], 2 * ey + ew))
    assert _close(got["sigma_v"], want["sigma_v"] * 2.0 ** (-ex - 0.5 * ew))
    for key in ("lower", "upper"):
        assert _close(got["ci"][key], math.ldexp(want["ci"][key], shift))
    for g, w in zip(got["identified_sets"], want["identified_sets"]):
        assert (g["empty"], g["singleton"]) == (w["empty"], w["singleton"])
        if not g["empty"]:
            for key in ("lower", "upper"):
                assert _close(g[key], math.ldexp(w[key], shift))


def _finite_csv(out: str) -> dict:
    """The values of a sweep's CSV by (axis, metric), each checked against its metric's range."""
    lines = out.splitlines()
    assert lines[0] == "axis,metric,value"
    rows = {}
    for line in lines[1:]:
        axis, metric, value = line.split(",")
        rows[float(axis), metric] = float(value)
    for (axis, metric), value in rows.items():
        if metric.startswith(("mass_outside", "tv_to")):
            assert 0.0 <= value <= 1.0
        elif metric == "posterior_sd":
            assert value >= 0.0  # inf where the posterior dof is at most 2
        else:
            assert math.isfinite(value) or math.isnan(value)  # a Bayes action: nan without a mean
    return rows


exponents = st.integers(-1074, 1023)
scales = st.one_of(st.just(0), st.integers(-40, 40), exponents)
models = st.sampled_from(["m1.json", "m2.json"])
prior_scales = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
radii = st.floats(-150.0, 150.0).map(lambda e: 10.0**e)


@settings(max_examples=300)
@given(models, scales, scales, scales, st.sampled_from([1.0, 4.0]))
def test_analyze_is_the_scaled_report_or_a_refusal(name, ey, ex, ew, d):
    # The norm bound d scales as the W-norm of Y: by 2^ey sqrt(2^ew).
    model = _golden(name)
    scaled = _scaled(model, ey, ex, ew, exact=True)
    assume(scaled is not None)
    with np.errstate(over="ignore", under="ignore"):
        d_scaled = float(np.ldexp(d, ey) * np.sqrt(np.ldexp(1.0, ew)))
    ds = [d_scaled] if TINY <= d_scaled < math.inf else []
    code, want = _report(model, [d] if ds else [])
    assert code == 0
    code, got = _report(scaled, ds)
    if code == 0:
        _check_report(got, want, ey, ex, ew)
    if max(abs(ey), abs(ex), abs(ew)) <= 200:
        assert code == 0  # far from the range's ends nothing is refused


@settings(max_examples=150)
@given(models, scales, scales, scales, st.sampled_from(["normal", "t:5", "powerlaw:2"]), prior_scales,
       radii)
def test_concentration_is_finite_or_a_refusal(name, ey, ex, ew, radial, c, eps):
    model = _scaled(_golden(name), ey, ex, ew)
    assume(model is not None)
    code, out, _ = _cli("concentration", model, "--radial", radial, "--c-grid", repr(c),
                        "--eps", repr(eps))
    if code == 0:
        _finite_csv(out)


@settings(max_examples=150)
@given(models, scales, scales, scales, st.sampled_from(["normal", "t:5"]), prior_scales,
       prior_scales, radii)
def test_contamination_is_finite_or_a_refusal(name, ey, ex, ew, radial, c, c_cont, eps):
    model = _scaled(_golden(name), ey, ex, ew)
    assume(model is not None)
    code, out, _ = _cli("contaminate", model, "--radial", radial, "--phi", "0.01", "--c-grid", repr(c),
                        "--contaminant-c", repr(c_cont), "--eps", repr(eps))
    if code == 0:
        _finite_csv(out)


class TestScaledModels:
    """Scalings that printed nulls or ended in a traceback when the fit formed X'WX."""

    def test_huge_y_refuses_the_overflowing_j(self):
        # m2 with Y x 1e160: J is about 5e320, past float64; it used to print
        # "j_stat": null and a point interval.
        model = _golden("m2.json")
        model["Y"] = [1e160 * y for y in model["Y"]]
        code, _, err = _cli("analyze", model)
        assert code == 2 and "J = inf" in err

    def test_tiny_x_and_w_give_the_scaled_interval(self):
        # m1 with X x 2^-236 and W x 2^-570: the interval is 2^236 times the unscaled one.
        model = _golden("m1.json")
        code, want = _report(model, [])
        code, got = _report(_scaled(model, 0, -236, -570), [])
        assert code == 0
        _check_report(got, want, 0, -236, -570)

    def test_tinier_x_needs_no_hessian(self):
        # m1 with X x 2^-772: X'WX underflowed and Cholesky raised LinAlgError.
        model = _golden("m1.json")
        code, want = _report(model, [])
        code, got = _report(_scaled(model, 0, -772, 0), [])
        assert code == 0
        _check_report(got, want, 0, -772, 0)

    def test_w_near_the_largest_float(self):
        # W = 1e308 I: X'WX overflowed in the product.  With m2's Y halved, J is
        # 1.3e308 and the interval that of W = I; with m2's own Y, J is 5.3e308.
        model = _golden("m2.json")
        model["Y"] = [0.5 * y for y in model["Y"]]
        code, want = _report(model, [])
        model["W"] = (1e308 * np.eye(5)).tolist()
        code, got = _report(model, [])
        assert code == 0
        assert _close(got["j_stat"], 1e308 * want["j_stat"])
        for key in ("lower", "upper"):
            assert _close(got["ci"][key], want["ci"][key])
        model["Y"] = _golden("m2.json")["Y"]
        code, _, err = _cli("analyze", model)
        assert code == 2 and "J = inf" in err

    def test_near_collinear_design_is_fitted(self):
        # kappa(X) = 1.8e9: the rank check passes and the Cholesky factor of
        # X'WX failed with LinAlgError; the orthogonal fit is 2e-8 off at worst.
        y, x, w = collinear_model(1e-9)
        code, got = _report({"k": 4, "p": 2, "Y": y.tolist(), "X": x.tolist(), "W": w.tolist()}, [])
        assert code == 0
        theta, j = least_squares_mp(y, x, w)
        assert np.max(np.abs(np.subtract(got["theta_w"], theta))) <= 1e-7 * np.max(np.abs(theta))
        assert abs(got["j_stat"] - j) <= 1e-7 * j


@pytest.mark.parametrize("command", ["pivot", "coverage"])
def test_monte_carlo_runs_are_free_of_the_scale_of_x(command):
    # The t statistic of each replication is free of X's scale; at X x 2^1000
    # sigma_v^2 underflowed in the kernel (every T infinite), and at X x 2^-1000
    # it overflowed with a RuntimeWarning.
    model = _golden("m2.json")
    outs = [_cli(command, _scaled(model, 0, e, 0), "--reps", "500") for e in (0, -1000, 1000)]
    assert outs[0][0] == 0 and outs[1] == outs[0] == outs[2]


@pytest.mark.parametrize("d", [1e-6, 1e-7, 1e-8, 1e-9])
def test_near_collinear_fit_is_as_accurate_as_lstsq(d):
    # theta_W and J against 50-digit mpmath, within 10 times the error of
    # numpy's orthogonal least squares on the whitened problem.
    from misspec.model import ModelInstance, pseudo_true

    y, x, w = collinear_model(d)
    theta, j = least_squares_mp(y, x, w)
    fit = pseudo_true(ModelInstance(Y=y, X=x, W=w))
    root = np.linalg.cholesky(w).T
    ref_theta, ref_res, *_ = np.linalg.lstsq(root @ x, root @ y, rcond=None)
    scale = np.max(np.abs(theta))
    ref_err = max(np.max(np.abs(ref_theta - theta)) / scale, 1e-16)
    assert np.max(np.abs(fit.theta_w - theta)) / scale <= 10.0 * ref_err
    ref_j_err = max(abs(float(ref_res[0]) - j) / j, 1e-16)
    assert abs(fit.j_stat - j) / j <= 10.0 * ref_j_err

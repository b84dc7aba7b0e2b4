"""The benchmark's four workloads: generated inputs, timed ops and output checks.

Every op is one call (or one short chain of calls) into ``misspec`` on inputs
made beforehand from the run's seed; only that call is timed.  Each op is
then checked against an independent reference or a statistical guarantee.
The checks test guarantees, not exact hit counts, so a kernel that differs in
the last ulp still passes and a broken one does not:

* CI: theta_W and J from least squares on the Cholesky-whitened system,
  sigma_v from its R factor and t* from ``scipy.special.stdtrit``; endpoints
  agree within ``CI_RTOL`` of (1 + |centre| + half-width).
* Coverage: within ``stats.Z_COVERAGE`` binomial standard errors of the
  nominal level, per op and pooled over a run (pooled in ``run.py``).
* KS: below ``stats.ks_bound`` for elliptical families; above 1.63/sqrt(reps),
  the 1% critical value, for the non-elliptical negative control.
* Posteriors: normal-family grid posteriors match the Gaussian closed form;
  power-law posteriors do not depend on c.
* Tails: ratios match the chi-square (normal) and F (t) survival functions
  from ``scipy.special``, and t-family ratios match a^(-dof) at c = 1e-6.
* CLI: exit status 0 and parseable output, with the checks above where the
  output carries the quantity.

A tail-ratio row that raises ``NumericalError`` (tail_ratio's documented
report of non-convergence) counts as an op that failed to compute, not as a
wrong output.  The kept row (normal, c=1e-6, a=4, tau=10) does so today.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.special

from misspec import errors, inference, montecarlo, posteriors, priors, scenarios
from misspec import model as model_mod
from run import child_env
from stats import KS_CONTROL, coverage_ok, ks_bound

CI_RTOL = 1e-7
LEVELS = (0.90, 0.95, 0.99)
C_1D = (1e-6, 1e-4, 1e-2, 1.0)
EPS = 0.1
# A grid mass outside a ball is off by at most two boundary cells of peak
# density: 2 * (24 sd / 2000) * 1 / (sqrt(2 pi) sd) on run_concentration's
# default p=1 grid of 2001 points over +-12 sd.
MASS_ATOL = 2.0 * (24.0 / 2000.0) / math.sqrt(2.0 * math.pi)


class CheckFailed(Exception):
    """An op's output failed its check."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    work: float = 0.0
    n_c: int = 1
    group: str | None = None
    tolerated: tuple = ()
    tally: list = field(default_factory=list)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- input generation ------------------------------------------------------


def _well_conditioned(rng, k: int, p: int, max_cond: float) -> np.ndarray:
    while True:
        x = rng.standard_normal((k, p))
        if np.linalg.cond(x) <= max_cond:
            return x


def _dense_spd(rng, k: int, ridge: float = 0.5) -> np.ndarray:
    a = rng.standard_normal((k, k))
    w = a @ a.T / k + ridge * np.eye(k)
    return 0.5 * (w + w.T)


def reference_ci(y, x, w, v, level) -> dict:
    """Interval ingredients from the Cholesky-whitened least-squares problem."""
    y, x, w, v = (np.asarray(a, dtype=np.float64) for a in (y, x, w, v))
    k, p = x.shape
    lower = np.linalg.cholesky(0.5 * (w + w.T))
    xt, yt = lower.T @ x, lower.T @ y
    theta = np.linalg.lstsq(xt, yt, rcond=None)[0]
    resid = yt - xt @ theta
    j = float(resid @ resid)
    r = np.linalg.qr(xt, mode="r")
    sv = float(np.linalg.norm(scipy.linalg.solve_triangular(r, v, trans="T")))
    tstar = float(scipy.special.stdtrit(k - p, 0.5 * (1.0 + level)))
    center = float(v @ theta)
    ywy = float(yt @ yt)
    exact = j <= 1e-12 * (1.0 + ywy)
    hw = 0.0 if exact else math.sqrt(j / (k - p)) * sv * tstar
    return {"theta": theta, "j": j, "sv": sv, "center": center, "hw": hw, "ywy": ywy}


def check_interval(ci, ref: dict, what: str) -> None:
    scale = 1.0 + abs(ref["center"]) + ref["hw"]
    tol = CI_RTOL * scale
    _require(not ci.empty, f"{what}: empty interval")
    _require(
        abs(ci.lower - (ref["center"] - ref["hw"])) <= tol
        and abs(ci.upper - (ref["center"] + ref["hw"])) <= tol,
        f"{what}: [{ci.lower}, {ci.upper}] vs centre {ref['center']} +- {ref['hw']}",
    )


# --- inference -------------------------------------------------------------


class Inference:
    """Per-dataset path: analyze, local_ci and iv_sample + finite_sample_ci.

    model, _linalg, special, inference and scenarios do all the work;
    _kernels and posteriors do none.  Models used once (local_ci, iv_ci) sit
    beside one that analyze uses four times, so a cached fit that speeds
    reuse but taxes construction shows.
    """

    def __init__(self, rng):
        self.rng = rng
        # Acceptance criterion 10's local-misspecification IV study.
        self.scenario = scenarios.IVScenario(
            k=3, theta_ate=1.0, beta_vec=np.array([0.5, 1.0, 1.5]),
            first_stage=np.array([0.4, 0.5, 0.6]),
            z_cov=np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]]),
        )
        pop = scenarios.iv_population_model(self.scenario)
        self.x_l = np.asarray(pop.X)
        self.w_l = np.asarray(pop.W)
        w_inv = np.linalg.inv(self.w_l)
        self.chol_om = np.linalg.cholesky(0.6 * w_inv)
        self.chol_sg = np.linalg.cholesky(0.4 * w_inv)
        self.local = inference.LocalExperiment(
            Gamma_L=-self.x_l, Sigma=0.4 * w_inv, mu=np.zeros(3), K=[1.0], W_L=self.w_l
        )
        self.dgp = scenarios.IVDgpParams()
        self.iv_cfg = inference.InferenceConfig(v=[1.0], level=0.95)

    def warmup(self) -> None:
        for op in self.cycle():
            op.run()

    def _analyze_op(self) -> Op:
        rng = self.rng
        k = int(rng.integers(2, 13))
        p = int(rng.integers(1, min(3, k - 1) + 1))
        x = _well_conditioned(rng, k, p, 30.0)
        w = _dense_spd(rng, k)
        y = x @ rng.standard_normal(p)
        if rng.random() >= 0.1:  # about one model in ten is an exact fit
            y = y + rng.standard_normal(k)
        v = rng.standard_normal(p)
        level = float(LEVELS[int(rng.integers(len(LEVELS)))])
        ref = reference_ci(y, x, w, v, level)
        root_j = math.sqrt(ref["j"])
        ds = (0.5 * root_j, 1.5 * root_j, 3.0 * root_j) if ref["hw"] > 0.0 else (0.5, 1.0, 2.0)

        def run():
            m = model_mod.ModelInstance(Y=y, X=x, W=w)
            return inference.analyze(m, inference.InferenceConfig(v=v, level=level), ds)

        def check(report):
            check_interval(report.ci, ref, "analyze ci")
            _require(
                abs(report.j_stat - ref["j"]) <= 1e-9 * (1.0 + ref["ywy"]),
                f"J {report.j_stat} vs {ref['j']}",
            )
            _require(abs(report.sigma_v - ref["sv"]) <= CI_RTOL * ref["sv"], "sigma_v")
            for (d, iv), d_ref in zip(report.identified_sets, ds):
                _require(d == d_ref, "identified-set d")
                if d * d < ref["j"] * (1.0 - 1e-6):
                    _require(iv.empty, f"identified set at d={d} should be empty")
                else:
                    hw = ref["sv"] * math.sqrt(d * d - ref["j"])
                    check_interval(iv, {**ref, "hw": hw}, "identified set")

        return Op("analyze", run, check, work=1.0)

    def _local_op(self) -> Op:
        rng = self.rng
        theta = 2.0 * rng.standard_normal(1)
        y_l = (
            self.x_l @ theta
            + self.chol_om @ rng.standard_normal(3)
            + self.chol_sg @ rng.standard_normal(3)
        )
        ref = reference_ci(y_l, self.x_l, self.w_l, [1.0], 0.95)
        tally = []

        def run():
            return inference.local_ci(self.local, y_l, level=0.95)

        def check(ci):
            check_interval(ci, ref, "local_ci")
            tally.append((1 if ci.lower <= theta[0] <= ci.upper else 0, 1))

        return Op("local_ci", run, check, work=1.0, group="local_ci", tally=tally)

    def _iv_op(self) -> Op:
        n = int(self.rng.integers(1000, 10001))
        seed = int(self.rng.integers(2**31))

        def run():
            yn, xn, wn = scenarios.iv_sample(self.scenario, n, self.dgp, seed=seed)
            return yn, xn, wn, inference.finite_sample_ci(yn, xn, wn, self.iv_cfg)

        def check(out):
            yn, xn, wn, ci = out
            check_interval(ci, reference_ci(yn, xn, wn, [1.0], 0.95), "finite_sample_ci")

        return Op("iv_ci", run, check, work=1.0)

    def cycle(self) -> list[Op]:
        ops = [self._analyze_op(), self._local_op(), self._iv_op()]
        return [ops[i] for i in self.rng.permutation(len(ops))]


# --- montecarlo --------------------------------------------------------------


class MonteCarlo:
    """Verification study: run_coverage and run_pivotality replication loops.

    _kernels and _rng do nearly all the work.  Normal vs t isolates the gamma
    rejection sampler, coverage vs pivot the hit count vs the t-statistic
    array and KS sort, and the k=12 fixture the O(k^2) inner loops.
    """

    COVERAGE_REPS = 1000
    COVERAGE_REPS_K12 = 500
    PIVOT_REPS = 2000

    def __init__(self, rng):
        self.rng = rng
        w5, w4 = np.eye(5), np.eye(4)
        self.cov_cfg = inference.InferenceConfig(v=[1.0, 0.0], level=0.95)
        self.piv_cfg = inference.InferenceConfig(v=[1.0], level=0.95)
        theta2 = posteriors.ThetaPrior.gaussian([0.0, 0.0], 10.0)
        x12 = _well_conditioned(rng, 12, 3, 10.0)
        w12 = _dense_spd(rng, 12)
        cfg12 = inference.InferenceConfig(v=rng.standard_normal(3), level=0.95)
        theta3 = posteriors.ThetaPrior.gaussian([0.0, 0.0, 0.0], 10.0)
        normal, t5, t3 = priors.NormalRadial(), priors.StudentTRadial(5.0), priors.StudentTRadial(3.0)
        x5 = montecarlo.DEFAULT_COVERAGE_X
        self.coverage = {
            "cov.normal_c1": (x5, w5, theta2, priors.ScaledPrior(normal, 1.0, w5), self.cov_cfg, self.COVERAGE_REPS),
            "cov.t5_c1": (x5, w5, theta2, priors.ScaledPrior(t5, 1.0, w5), self.cov_cfg, self.COVERAGE_REPS),
            "cov.normal_c100": (x5, w5, theta2, priors.ScaledPrior(normal, 100.0, w5), self.cov_cfg, self.COVERAGE_REPS),
            "cov.k12": (x12, w12, theta3, priors.ScaledPrior(normal, 1.0, w12), cfg12, self.COVERAGE_REPS_K12),
        }
        xp = montecarlo.DEFAULT_PIVOT_X
        self.pivot = {
            "piv.normal": (xp, w4, priors.ScaledPrior(normal, 1.0, w4), False),
            "piv.t3": (xp, w4, priors.ScaledPrior(t3, 1.0, w4), False),
            "piv.control": (xp, w4, priors.ScaledPrior(normal, 1.0, w4), True),
        }

    def warmup(self) -> None:
        for x, w, theta, eta, cfg, _ in self.coverage.values():
            montecarlo.run_coverage(x, w, theta, eta, cfg, reps=100, seed=0)
        for x, w, eta, control in self.pivot.values():
            montecarlo.run_pivotality(x, w, eta, self.piv_cfg, reps=100, seed=0, negative_control=control)

    def _coverage_op(self, kind) -> Op:
        x, w, theta, eta, cfg, reps = self.coverage[kind]
        seed = int(self.rng.integers(2**31))
        tally = []

        def run():
            return montecarlo.run_coverage(x, w, theta, eta, cfg, reps=reps, seed=seed)

        def check(res):
            _require(res.reps == reps and 0 <= res.hits <= reps, "coverage counts")
            _require(coverage_ok(res.hits, reps, cfg.level), f"{kind} coverage {res.coverage}")
            tally.append((res.hits, reps))

        return Op(kind, run, check, work=float(reps), group=kind, tally=tally)

    def _pivot_op(self, kind) -> Op:
        x, w, eta, control = self.pivot[kind]
        reps = self.PIVOT_REPS
        seed = int(self.rng.integers(2**31))

        def run():
            return montecarlo.run_pivotality(
                x, w, eta, self.piv_cfg, reps=reps, seed=seed, negative_control=control
            )

        def check(ks):
            if control:
                _require(ks > KS_CONTROL / math.sqrt(reps), f"negative control KS {ks}")
            else:
                _require(ks < ks_bound(reps), f"{kind} KS {ks}")

        return Op(kind, run, check, work=float(reps))

    def cycle(self) -> list[Op]:
        ops = [self._coverage_op(k) for k in self.coverage] + [self._pivot_op(k) for k in self.pivot]
        return [ops[i] for i in self.rng.permutation(len(ops))]


# --- sweeps ----------------------------------------------------------------


def _sweep_model(rng, k: int, p: int) -> model_mod.ModelInstance:
    x = _well_conditioned(rng, k, p, 3.0)
    w = np.eye(k) + 0.2 * _dense_spd(rng, k, ridge=0.0)
    y = x @ rng.standard_normal(p) + rng.standard_normal(k)
    return model_mod.ModelInstance(Y=y, X=x, W=w)


class Sweeps:
    """Grid posteriors (concentration, contamination) and tail-ratio tables.

    posteriors and priors do the work; kernels and quantiles do none.  One
    grid far beyond cache (2001 x 2001) vs many small ones separates per-point
    from per-call cost.
    """

    LARGE = 2001  # run_concentration's and the CLI's default points per axis
    SMALL = 201  # library default points per axis at p = 2
    C_SMALL = (1e-4, 1e-2, 1.0)
    C_LARGE = (1e-3, 1e-2, 1e-1, 1.0)
    CONTAM_POINTS = 1601
    TAIL_FAMILIES = ("normal", "t:3", "t:5")

    def __init__(self, rng):
        self.rng = rng
        # Fixed dimensions: the p=2 grid's time and memory scale with k.
        self.m2 = _sweep_model(rng, 5, 2)
        self.m1 = _sweep_model(rng, 3, 1)
        self.contaminant = priors.ScaledPrior(priors.NormalRadial(), 4.0, self.m1.W)
        self.families = {
            "conc1d_normal": priors.NormalRadial(),
            "conc1d_t5": priors.StudentTRadial(5.0),
            "conc1d_powerlaw": priors.PowerLawRadial(2.0),
        }
        self.hinv = {m.p: np.linalg.inv(m.X.T @ m.W @ m.X) for m in (self.m1, self.m2)}
        self.theta_w = {
            2: reference_ci(self.m2.Y, self.m2.X, self.m2.W, [1.0, 0.0], 0.95)["theta"],
            1: reference_ci(self.m1.Y, self.m1.X, self.m1.W, [1.0], 0.95)["theta"],
        }

    def warmup(self) -> None:
        montecarlo.run_concentration(self.m2, priors.NormalRadial(), [1e-2], [EPS], grid_points=self.SMALL)
        for family in self.families.values():
            montecarlo.run_concentration(self.m1, family, [1e-2], [EPS], grid_points=201)
        montecarlo.run_contamination(self.m1, priors.NormalRadial(), self.contaminant, 0.01, [1e-2], grid_points=201)
        montecarlo.run_tails(priors.StudentTRadial(3.0), [2.0], [1.0], [1e-2], k=2)

    def _check_normal_trace(self, trace, p, c_grid, rtol) -> None:
        """Grid posterior sd and mean against the Gaussian closed form N(theta_W, c H^-1)."""
        diag = np.diag(self.hinv[p])
        names = ["bayes_action"] if p == 1 else [f"bayes_action_{i + 1}" for i in range(p)]
        for i, c in enumerate(c_grid):
            sd = math.sqrt(c * float(np.max(diag)))
            got = trace.metrics["posterior_sd"][i]
            _require(abs(got - sd) <= rtol * sd, f"posterior sd {got} vs {sd} at c={c}")
            for j, name in enumerate(names):
                mean = trace.metrics[name][i]
                _require(abs(mean - self.theta_w[p][j]) <= rtol * sd + 1e-12, f"{name} at c={c}")
            mass = trace.metrics[f"mass_outside_{EPS:g}"][i]
            _require(0.0 <= mass <= 1.0, "mass outside ball")

    def _conc2d(self, kind, c_grid, points, rtol) -> Op:
        def run():
            return montecarlo.run_concentration(
                self.m2, priors.NormalRadial(), list(c_grid), [EPS], grid_points=points
            )

        def check(trace):
            self._check_normal_trace(trace, 2, c_grid, rtol)

        return Op(kind, run, check, work=float(points * points * len(c_grid)), n_c=len(c_grid))

    def _conc1d(self, kind) -> Op:
        family = self.families[kind]

        def run():
            return montecarlo.run_concentration(self.m1, family, list(C_1D), [EPS])

        def check(trace):
            sds = trace.metrics["posterior_sd"]
            _require(all(math.isfinite(s) and s > 0.0 for s in sds), "posterior sd")
            for name, values in trace.metrics.items():
                _require(all(math.isfinite(x) for x in values), f"{name} not finite")
            if kind == "conc1d_normal":
                self._check_normal_trace(trace, 1, C_1D, 1e-6)
                for i, c in enumerate(C_1D):
                    closed = posteriors.normal_posterior(self.m1, c)
                    mass = posteriors.mass_outside_ball(closed, self.theta_w[1], EPS)
                    got = trace.metrics[f"mass_outside_{EPS:g}"][i]
                    _require(abs(got - mass) <= MASS_ATOL, f"mass outside {got} vs {mass} at c={c}")
            elif kind == "conc1d_powerlaw":
                _require(max(sds) - min(sds) <= 1e-9 * max(sds), "power-law posterior depends on c")

        return Op(kind, run, check, work=float(self.LARGE * len(C_1D)), n_c=len(C_1D))

    def _contam(self) -> Op:
        def run():
            return montecarlo.run_contamination(
                self.m1, priors.NormalRadial(), self.contaminant, 0.01, list(C_1D), eps_list=[0.05]
            )

        def check(trace):
            for name, values in trace.metrics.items():
                _require(all(0.0 <= x <= 1.0 for x in values), f"{name} outside [0, 1]")

        # Nominal points: the composite axis (wide grid plus one dense core per
        # c) times the contaminant posterior and one posterior per c.
        points = (self.CONTAM_POINTS + 401 * len(C_1D)) * (len(C_1D) + 1)
        return Op("contam1d", run, check, work=float(points), n_c=len(C_1D))

    def _tail_op(self, spec, k, c, a, tau) -> Op:
        family = priors.parse_radial(spec)

        def run():
            return montecarlo.run_tails(family, [a], [tau], [c], k=k)

        def check(table):
            ratio = float(table[0, 3])
            _require(0.0 <= ratio <= 1.0, f"tail ratio {ratio}")
            ref = reference_tail_ratio(spec, k, c, a, tau)
            if math.isnan(ref):
                _require(ratio <= 1e-6, f"normal tail ratio {ratio} should vanish")
            else:
                _require(abs(ratio - ref) <= 1e-8 * ref + 1e-200, f"tail ratio {ratio} vs {ref}")
            if spec.startswith("t:") and c == 1e-6:
                dof = float(spec[2:])
                _require(abs(ratio - a ** (-dof)) < 0.005, f"t tail {ratio} vs a^-dof")

        return Op("tails_row", run, check, tolerated=(errors.NumericalError,))

    def cycle(self) -> list[Op]:
        c_large = float(self.C_LARGE[int(self.rng.integers(len(self.C_LARGE)))])
        ops = [
            self._conc2d("conc2d_large", (c_large,), self.LARGE, 1e-6),
            self._conc2d("conc2d_small", self.C_SMALL, self.SMALL, 1e-4),
            *(self._conc1d(kind) for kind in self.families),
            self._contam(),
        ]
        ops = [ops[i] for i in self.rng.permutation(len(ops))]
        for spec in self.TAIL_FAMILIES:
            for k in (2, 5):
                for c in C_1D:
                    for a in (1.5, 2.0, 4.0):
                        for tau in (1.0, 10.0):
                            ops.append(self._tail_op(spec, k, c, a, tau))
        return ops


def reference_tail_ratio(spec: str, k: int, c: float, a: float, tau: float) -> float:
    """Pr{||eta|| >= a tau | ||eta|| >= tau} from chi-square or F survival functions.

    NaN where the lower survival probability underflows (normal family only).
    """
    s_lo = tau * tau / c
    s_hi = a * a * s_lo
    if spec == "normal":
        lo, hi = scipy.special.gammaincc(k / 2, s_lo / 2), scipy.special.gammaincc(k / 2, s_hi / 2)
    else:
        nu = float(spec[2:])
        lo = scipy.special.betainc(nu / 2, k / 2, nu / (nu + s_lo))
        hi = scipy.special.betainc(nu / 2, k / 2, nu / (nu + s_hi))
    return float(hi / lo) if lo > 1e-300 else math.nan


# --- cli ---------------------------------------------------------------------


def _parse_csv(text: str, header: list[str]) -> list[list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == header, f"csv header {rows[:1]}")
    out = []
    for row in rows[1:]:
        _require(len(row) == len(header), "csv row width")
        vals = []
        for cell in row:
            try:
                vals.append(float(cell))
            except ValueError:
                vals.append(cell)
        out.append(vals)
    _require(len(out) > 0, "csv has no rows")
    return out


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


class Cli:
    """One CLI subprocess at a time: import and every subcommand at small sizes.

    The only workload that pays the per-process import and runs cli and
    serialize.
    """

    REPS = 2000

    def __init__(self, rng, workdir: Path, root: Path):
        self.rng = rng
        self.workdir = workdir
        # Set for the traced phase: invocations then run through cli_child.py
        # and leave their span sums here.
        self.trace_dir: Path | None = None
        self.calls = 0
        workdir.mkdir(parents=True, exist_ok=True)
        self.env = child_env(root)
        self.iv_params = self._write("iv.json", {
            "k": 3, "theta_ate": 1.0, "beta_vec": [0.5, 1.0, 1.5],
            "first_stage": [0.4, 0.5, 0.6],
            "z_cov": [[1.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.0]],
        })
        probs = rng.random(4) + 0.5
        probs = probs / probs.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        self.logit_params = self._write("logit.json", {
            "support": [0.0, 1.0, 2.0, 3.0],
            "probs": probs.tolist(),
            "cond_means": (0.2 + 0.6 * rng.random(4)).tolist(),
            "x_star": [-1.0, 5.0],
        })
        self.output_bytes = 0
        self.invocations = 0

    def _write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def _model_file(self, name, k, p):
        rng = self.rng
        x = _well_conditioned(rng, k, p, 10.0)
        w = _dense_spd(rng, k)
        y = x @ rng.standard_normal(p) + rng.standard_normal(k)
        path = self._write(name, {"k": k, "p": p, "Y": y.tolist(), "X": x.tolist(), "W": w.tolist()})
        return path, (y, x, w)

    def _command(self, args: list[str]) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "misspec.cli", *args]
        self.calls += 1
        sums = self.trace_dir / f"cli-{os.getpid()}-{self.calls}.json"
        child = str(Path(__file__).resolve().parent / "cli_child.py")
        return [sys.executable, child, "--sums", str(sums), "--", *args]

    def _invoke(self, cmd: list[str]):
        return subprocess.run(
            cmd, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=120
        )

    def warmup(self) -> None:
        self._invoke([sys.executable, "-c", "import misspec"])

    def _op(self, kind, args, check, import_only=False) -> Op:
        cmd = [sys.executable, "-c", "import misspec"] if import_only else self._command(args)

        def run():
            return self._invoke(cmd)

        def checked(proc):
            _require(proc.returncode == 0, f"{kind} exit {proc.returncode}: {proc.stderr[-300:]}")
            if not import_only:
                self.output_bytes += len(proc.stdout.encode())
                self.invocations += 1
                check(proc.stdout)

        return Op(kind, run, checked, work=1.0)

    def cycle(self) -> list[Op]:
        rng = self.rng
        k = int(rng.integers(3, 9))
        p = int(rng.integers(1, 3))
        analyze_path, (y, x, w) = self._model_file("analyze.json", k, p)
        level = float(LEVELS[int(rng.integers(len(LEVELS)))])
        v = np.zeros(p)
        v[0] = 1.0
        ref = reference_ci(y, x, w, v, level)
        sweep_path, _ = self._model_file("sweep.json", int(rng.integers(2, 6)), 1)
        seed_cov, seed_piv = (str(int(s)) for s in rng.integers(2**31, size=2))

        def check_analyze(text):
            out = json.loads(text)
            ci = out["ci"]
            check_interval(SimpleNamespace(lower=ci["lower"], upper=ci["upper"], empty=False), ref, "cli analyze")

        def check_coverage(text):
            out = json.loads(text)
            _require(out["reps"] == self.REPS, "coverage reps")
            _require(coverage_ok(out["hits"], self.REPS, 0.95), f"cli coverage {out['coverage']}")

        def check_pivot(text):
            out = json.loads(text)
            _require(out["ks"] < ks_bound(self.REPS), f"cli pivot KS {out['ks']}")

        def check_trace(text):
            for _, _, value in _parse_csv(text, ["axis", "metric", "value"]):
                _require(_finite(value), "sweep value not finite")

        def check_tails(text):
            for a, tau, c, ratio in _parse_csv(text, ["a", "tau", "c", "ratio"]):
                _require(abs(ratio - a ** -3.0) < 0.005, f"cli tails {ratio}")

        def check_model(text):
            out = json.loads(text)
            kk, pp = out["k"], out["p"]
            _require(len(out["Y"]) == kk and len(out["X"]) == kk and len(out["W"]) == kk, "model shape")
            _require(all(len(row) == pp for row in out["X"]), "model X shape")

        ops = [
            self._op("import", None, None, import_only=True),
            self._op("cli.analyze", ["analyze", "--model", analyze_path, "--level", repr(level), "--d", "1,2,3"], check_analyze),
            self._op("cli.coverage", ["coverage", "--radial", "normal", "--c", "1", "--reps", str(self.REPS), "--seed", seed_cov], check_coverage),
            self._op("cli.pivot", ["pivot", "--radial", "normal", "--reps", str(self.REPS), "--seed", seed_piv], check_pivot),
            self._op("cli.concentration", ["concentration", "--model", sweep_path, "--radial", "normal", "--c-grid", "1e-6,1e-4,1e-2", "--eps", "0.1"], check_trace),
            self._op("cli.contaminate", ["contaminate", "--model", sweep_path, "--phi", "0.01", "--c-grid", "1e-6,1e-2", "--contaminant-c", "4"], check_trace),
            self._op("cli.tails", ["tails", "--radial", "t:3", "--a", "1.5,2,4", "--tau", "1,10", "--c", "1e-6"], check_tails),
            self._op("cli.scenario_iv", ["scenario", "iv", "--params", self.iv_params], check_model),
            self._op("cli.scenario_logit", ["scenario", "logit", "--params", self.logit_params], check_model),
        ]
        return [ops[i] for i in rng.permutation(len(ops))]


def make(name: str, seed: int, part: int, workdir: Path, root: Path):
    """Build a workload; its inputs are a function of (seed, part) only."""
    rng = np.random.default_rng([seed, part])
    if name == "inference":
        return Inference(rng)
    if name == "montecarlo":
        return MonteCarlo(rng)
    if name == "sweeps":
        return Sweeps(rng)
    if name == "cli":
        return Cli(rng, workdir, root)
    raise ValueError(f"unknown workload {name!r}")

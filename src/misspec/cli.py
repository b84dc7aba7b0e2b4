"""Command-line interface.

Subcommands: analyze, coverage, pivot, concentration, contaminate, tails,
scenario.  Results go to stdout (or --out); every run is a pure function of
its flags, input files, and seed.  Errors are written to stderr as one-line
JSON {code, message}; exit status is 0 on success, 1 on validation errors,
and 2 on numerical failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from misspec import montecarlo, serialize
from misspec.errors import InputError, MisspecError, NumericalError
from misspec.inference import InferenceConfig, analyze
from misspec.model import ModelInstance
from misspec.posteriors import ThetaPrior
from misspec.priors import ScaledPrior, parse_radial
from misspec.scenarios import (
    IVDgpParams,
    IVScenario,
    LogitScenario,
    iv_population_model,
    iv_sample,
    logit_population_model,
)


class _UsageError(Exception):
    def __init__(self, message: str, usage: str):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _csv_floats(text: str, name: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InputError(f"--{name} must be a comma-separated float list") from exc


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _default_v(p: int, raw: str | None) -> np.ndarray:
    if raw is None:
        v = np.zeros(p)
        v[0] = 1.0
        return v
    vals = _csv_floats(raw, "v")
    if len(vals) != p:
        raise InputError(f"--v must have {p} entries, got {len(vals)}")
    return np.asarray(vals)


def _mc_inputs(args, default_x: np.ndarray) -> tuple:
    """(X, W, cfg, eta prior) of a coverage or pivot run; (X, W) from --model or (default_x, I)."""
    if args.model:
        m = serialize.load_model(args.model)
        x, w = np.asarray(m.X), np.asarray(m.W)
    else:
        x, w = default_x.copy(), np.eye(default_x.shape[0])
    cfg = InferenceConfig(v=_default_v(x.shape[1], args.v), level=args.level)
    eta_prior = ScaledPrior(family=parse_radial(args.radial), c=args.c, W=w)
    return x, w, cfg, eta_prior


def _cmd_analyze(args) -> int:
    model = serialize.load_model(args.model)
    cfg = InferenceConfig(v=_default_v(model.p, args.v), level=args.level)
    ds = tuple(_csv_floats(args.d, "d")) if args.d else ()
    report = analyze(model, cfg, ds)
    _write(serialize.dumps(serialize.report_to_dict(report)) + "\n", args.out)
    return 0


def _cmd_coverage(args) -> int:
    x, w, cfg, eta_prior = _mc_inputs(args, montecarlo.DEFAULT_COVERAGE_X)
    p = x.shape[1]
    mean = (
        np.zeros(p)
        if args.theta_mean is None
        else np.asarray(_csv_floats(args.theta_mean, "theta-mean"))
    )
    theta_prior = ThetaPrior.gaussian(mean, args.theta_sd)
    result = montecarlo.run_coverage(
        x, w, theta_prior, eta_prior, cfg, reps=args.reps, seed=args.seed
    )
    _write(serialize.dumps(serialize.coverage_to_dict(result)) + "\n", args.out)
    return 0


def _cmd_pivot(args) -> int:
    x, w, cfg, eta_prior = _mc_inputs(args, montecarlo.DEFAULT_PIVOT_X)
    p = x.shape[1]
    ks = montecarlo.run_pivotality(
        x,
        w,
        eta_prior,
        cfg,
        reps=args.reps,
        seed=args.seed,
        negative_control=args.negative_control,
    )
    payload = {
        "ks": ks,
        "threshold_1pct": 1.63 / np.sqrt(args.reps),
        "dof": x.shape[0] - p,
        "reps": args.reps,
        "seed": args.seed,
        "radial": args.radial,
        "c": args.c,
        "negative_control": args.negative_control,
    }
    _write(serialize.dumps(payload) + "\n", args.out)
    return 0


def _cmd_concentration(args) -> int:
    model = serialize.load_model(args.model)
    trace = montecarlo.run_concentration(
        model,
        parse_radial(args.radial),
        np.asarray(_csv_floats(args.c_grid, "c-grid")),
        _csv_floats(args.eps, "eps"),
    )
    _write(serialize.trace_to_csv(trace), args.out)
    return 0


def _cmd_contaminate(args) -> int:
    model = serialize.load_model(args.model)
    contaminant = ScaledPrior(
        family=parse_radial(args.contaminant), c=args.contaminant_c, W=np.asarray(model.W)
    )
    trace = montecarlo.run_contamination(
        model,
        parse_radial(args.radial),
        contaminant,
        args.phi,
        np.asarray(_csv_floats(args.c_grid, "c-grid")),
        eps_list=_csv_floats(args.eps, "eps"),
    )
    _write(serialize.trace_to_csv(trace), args.out)
    return 0


def _cmd_tails(args) -> int:
    table = montecarlo.run_tails(
        parse_radial(args.radial),
        _csv_floats(args.a, "a"),
        _csv_floats(args.tau, "tau"),
        _csv_floats(args.c, "c"),
        k=args.k,
    )
    _write(serialize.tails_to_csv(table), args.out)
    return 0


def _param(params: dict, name: str, convert, kind: str):
    """``convert(params[name])``; a missing or malformed field is an InputError naming it."""
    try:
        raw = params[name]
    except KeyError as exc:
        raise InputError(f"{kind} scenario params missing field {exc}") from exc
    try:
        return convert(raw)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{kind} scenario params field {name!r} is malformed: {exc}") from exc


def _floats(raw) -> np.ndarray:
    return np.asarray(raw, dtype=np.float64)


def _pair(raw) -> tuple[float, float]:
    x1, x2 = (float(t) for t in raw)
    return x1, x2


# Converters of the optional dgp fields; an absent field keeps the IVDgpParams default.
_DGP_FIELDS = {"c0": float, "c": _floats, "delta": float, "theta_bar": float}


def _cmd_scenario(args) -> int:
    params = serialize._load_json(args.params)
    if args.kind == "iv":
        scenario = IVScenario(
            k=_param(params, "k", serialize._integer, "iv"),
            theta_ate=_param(params, "theta_ate", float, "iv"),
            beta_vec=_param(params, "beta_vec", _floats, "iv"),
            first_stage=_param(params, "first_stage", _floats, "iv"),
            z_cov=_param(params, "z_cov", _floats, "iv"),
        )
        if args.sample is None:
            model = iv_population_model(scenario)
        else:
            dgp_raw = _param(params, "dgp", dict, "iv") if "dgp" in params else {}
            dgp = IVDgpParams(
                **{f: _param(dgp_raw, f, cv, "iv") for f, cv in _DGP_FIELDS.items() if f in dgp_raw}
            )
            yn, xn, wn = iv_sample(scenario, args.sample, dgp, seed=args.seed)
            model = ModelInstance(Y=yn, X=xn, W=wn)
    else:
        scenario = LogitScenario(
            support=_param(params, "support", _floats, "logit"),
            probs=_param(params, "probs", _floats, "logit"),
            cond_means=_param(params, "cond_means", _floats, "logit"),
            x_star=_param(params, "x_star", _pair, "logit"),
        )
        model = logit_population_model(scenario)
    _write(serialize.dumps(serialize.model_to_dict(model)) + "\n", args.out)
    return 0


def _add_run_flags(sp: argparse.ArgumentParser, reps: int) -> None:
    """The flags coverage and pivot share: those _mc_inputs reads, reps, seed and out."""
    sp.add_argument("--model", default=None, help="model JSON supplying (X, W)")
    sp.add_argument("--v", default=None)
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--radial", default="normal")
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--reps", type=int, default=reps)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="misspec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("analyze", help="inference report for a model JSON file")
    sp.add_argument("--model", required=True)
    sp.add_argument("--v", default=None, help="comma-separated linear combination")
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--d", default=None, help="comma-separated norm bounds")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("coverage", help="Monte Carlo average-coverage experiment")
    _add_run_flags(sp, reps=20_000)
    sp.add_argument("--theta-sd", dest="theta_sd", type=float, default=10.0)
    sp.add_argument("--theta-mean", dest="theta_mean", default=None)
    sp.set_defaults(func=_cmd_coverage)

    sp = sub.add_parser("pivot", help="pivotal t-statistic KS experiment")
    _add_run_flags(sp, reps=10_000)
    sp.add_argument("--negative-control", action="store_true")
    sp.set_defaults(func=_cmd_pivot)

    sp = sub.add_parser("concentration", help="posterior concentration sweep over c")
    sp.add_argument("--model", required=True)
    sp.add_argument("--radial", default="normal")
    sp.add_argument("--c-grid", dest="c_grid", required=True)
    sp.add_argument("--eps", default="0.1")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_concentration)

    sp = sub.add_parser("contaminate", help="prior contamination sweep over c")
    sp.add_argument("--model", required=True)
    sp.add_argument("--radial", default="normal", help="base (concentrating) family")
    sp.add_argument("--contaminant", default="normal")
    sp.add_argument("--contaminant-c", dest="contaminant_c", type=float, default=1.0)
    sp.add_argument("--phi", type=float, required=True)
    sp.add_argument("--c-grid", dest="c_grid", required=True)
    sp.add_argument("--eps", default="0.05")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_contaminate)

    sp = sub.add_parser("tails", help="conditional radial tail-ratio table")
    sp.add_argument("--radial", required=True)
    sp.add_argument("--a", default="1.5,2,4")
    sp.add_argument("--tau", default="1")
    sp.add_argument("--c", default="1e-4")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_tails)

    sp = sub.add_parser("scenario", help="emit a model JSON from a scenario file")
    sp.add_argument("kind", choices=["iv", "logit"])
    sp.add_argument("--params", required=True)
    sp.add_argument("--sample", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_scenario)

    return parser


def _fail(code: int, message: str) -> int:
    sys.stderr.write(serialize.dumps({"code": code, "message": message}) + "\n")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(exc.usage)
        return _fail(1, str(exc))
    try:
        return args.func(args)
    except NumericalError as exc:
        return _fail(2, str(exc))
    except MisspecError as exc:
        return _fail(1, str(exc))
    except OSError as exc:
        return _fail(1, f"i/o error: {exc}")


if __name__ == "__main__":
    sys.exit(main())

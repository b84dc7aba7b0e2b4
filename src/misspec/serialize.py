"""Deterministic JSON and CSV emission plus the model JSON schema.

All floating-point values are written with 17 significant digits so that
output is byte-identical across runs and round-trips losslessly; the standard
json module controls neither, hence the small emitter here.  NaN and infinity
(e.g. the bounds of an empty interval) serialize as null.
"""

from __future__ import annotations

import json
import math

import numpy as np

from misspec.errors import InputError
from misspec.inference import InferenceReport, Interval
from misspec.model import ModelInstance
from misspec.montecarlo import CoverageResult, SweepTrace

__all__ = [
    "fmt_float",
    "dumps",
    "model_to_dict",
    "model_from_dict",
    "interval_to_dict",
    "report_to_dict",
    "coverage_to_dict",
    "trace_to_csv",
    "tails_to_csv",
]


def fmt_float(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    return format(float(x), ".17g")


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return fmt_float(x) if math.isfinite(x) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)) or (isinstance(obj, np.ndarray)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Serialize to a single-line JSON string with 17-digit floats."""
    return _emit(obj)


def model_to_dict(model: ModelInstance) -> dict:
    return {
        "k": model.k,
        "p": model.p,
        "Y": list(model.Y),
        "X": [list(row) for row in model.X],
        "W": [list(row) for row in model.W],
    }


def _load_json(path: str) -> dict:
    """The JSON object in the UTF-8 file ``path``; anything else is an InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot parse JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    return data


def _integer(raw) -> int:
    """An integral JSON number (``int`` alone would truncate 2.7 to 2)."""
    if isinstance(raw, bool) or not (
        isinstance(raw, int) or (isinstance(raw, float) and raw.is_integer())
    ):
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def _float_array(data: dict, name: str) -> np.ndarray:
    """``data[name]`` as a float64 array; a non-numeric or ragged one is an InputError."""
    try:
        return np.asarray(data[name], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"model JSON field {name} must be a numeric array: {exc}") from exc


def model_from_dict(data: dict) -> ModelInstance:
    """Build a validated model from its JSON object form.

    Checks the declared dimensions against the array shapes before handing
    off to the constructor, whose errors name the violated invariant.
    """
    if not isinstance(data, dict):
        raise InputError("model JSON must be an object")
    missing = [key for key in ("k", "p", "Y", "X", "W") if key not in data]
    if missing:
        raise InputError(f"model JSON is missing fields: {', '.join(missing)}")
    try:
        k, p = _integer(data["k"]), _integer(data["p"])
    except ValueError as exc:
        raise InputError(f"model JSON fields k and p must be integers: {exc}") from exc
    if k < 1 or p < 1:
        raise InputError(f"model JSON requires positive dimensions, got k={k}, p={p}")
    y, x, w = (_float_array(data, name) for name in ("Y", "X", "W"))
    if y.shape != (k,):
        raise InputError(f"Y must be an array of length k={k}, got shape {y.shape}")
    if x.shape != (k, p):
        raise InputError(f"X must be a {k}x{p} array, got shape {x.shape}")
    if w.shape != (k, k):
        raise InputError(f"W must be a {k}x{k} array, got shape {w.shape}")
    return ModelInstance(Y=y, X=x, W=w)


def load_model(path: str) -> ModelInstance:
    return model_from_dict(_load_json(path))


def interval_to_dict(iv: Interval) -> dict:
    return {
        "lower": None if iv.empty else iv.lower,
        "upper": None if iv.empty else iv.upper,
        "empty": iv.empty,
        "singleton": iv.singleton,
    }


def report_to_dict(report: InferenceReport) -> dict:
    return {
        "theta_w": list(report.theta_w),
        "j_stat": report.j_stat,
        "sigma_v": report.sigma_v,
        "ci": {"lower": report.ci.lower, "upper": report.ci.upper},
        "identified_sets": [
            {"d": d, **interval_to_dict(iv)} for d, iv in report.identified_sets
        ],
    }


def coverage_to_dict(result: CoverageResult) -> dict:
    return {
        "reps": result.reps,
        "hits": result.hits,
        "coverage": result.coverage,
        "std_err": result.std_err,
        "seed": result.seed,
        "config": result.config,
    }


def trace_to_csv(trace: SweepTrace) -> str:
    lines = ["axis,metric,value"]
    for i, a in enumerate(trace.axis):
        for name, values in trace.metrics.items():
            lines.append(f"{fmt_float(a)},{name},{fmt_float(values[i])}")
    return "\n".join(lines) + "\n"


def tails_to_csv(table: np.ndarray) -> str:
    lines = ["a,tau,c,ratio"]
    for a, tau, c, ratio in table:
        lines.append(f"{fmt_float(a)},{fmt_float(tau)},{fmt_float(c)},{fmt_float(ratio)}")
    return "\n".join(lines) + "\n"


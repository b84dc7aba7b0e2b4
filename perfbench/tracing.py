"""Span tracing for the benchmark's traced run, installed from outside the package.

``Tracer.install`` wraps the public functions and methods of each layer
module and rebinds every module attribute of the ``misspec`` package that is
the wrapped function object, so a function imported by name into another
module (``t_quantile`` in ``inference`` and ``montecarlo``) is traced there
too and nested calls become child spans.  Spans are kept in memory, one list
entry each, and only while the benchmark has an op open; calls made by the
benchmark's own output checks are not recorded.

Not wrapped: the per-draw ``_rng`` helpers (one span per kernel call is kept
instead, with its rep count), properties, and ``RadialFamily.log_f_from_log``,
which the tail quadrature calls once per integrand point.

``summarize`` reduces one process's spans to additive sums; ``merge_sums`` and
``layer_metrics`` turn the sums of several processes into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "model",
    "_linalg",
    "special",
    "inference",
    "scenarios",
    "_kernels",
    "montecarlo",
    "posteriors",
    "priors",
    "serialize",
    "cli",
)

# Called once per quadrature point: tracing them would dwarf the work traced.
SKIP = {"priors.RadialFamily.log_f_from_log"}
for _cls in ("NormalRadial", "StudentTRadial", "PowerLawRadial"):
    SKIP.add(f"priors.{_cls}.log_f_from_log")

# Private callables that carry a layer metric.
EXTRA = {"cli": ("_build_parser",)}

# Kernel family codes, as defined in misspec._kernels.
ETA_NAMES = {0: "normal", 1: "t", 2: "control"}


def _kernel_attr(code_index):
    def attr(args, kwargs, result):
        return [int(args[2]) - int(args[1]), ETA_NAMES.get(int(args[code_index]), "other")]

    return attr


def _grid_attr(args, kwargs, result):
    points = int(result.density.size)
    return [points, result.p, int(args[0].k)]


def _batch_attr(args, kwargs, result):
    etas = args[1]
    return 1 if getattr(etas, "ndim", 1) == 1 else int(len(etas))


def _iv_bytes_attr(args, kwargs, result):
    scenario, n = args[0], args[1] if len(args) > 1 else kwargs["n"]
    return int(n) * int(scenario.k) * 8


ATTRS = {
    "_kernels.coverage_hits": _kernel_attr(5),
    "_kernels.pivot_tstats": _kernel_attr(4),
    "posteriors.grid_posterior": _grid_attr,
    "priors.ScaledPrior.log_density": _batch_attr,
    "priors.ContaminatedPrior.log_density": _batch_attr,
    "scenarios.iv_sample": _iv_bytes_attr,
}


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent_index, op_id, attr, raised]``;
    ``parent_index`` is -1 for an op's root span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.quantile_args: set = set()

    # --- span recording -------------------------------------------------
    def _enter(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.op_id, None, False]
        self.spans.append(span)
        self.stack.append(idx)
        return span

    def wrap(self, name, fn, attr=None):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf()
                span[6] = True
                tracer.stack.pop()
                raise
            span[2] = perf()
            tracer.stack.pop()
            if attr is not None:
                span[5] = attr(args, kwargs, result)
            return result

        return traced

    def begin_op(self, op_id: int, kind: str):
        self.op_id = op_id
        span = self._enter("op." + kind)
        span[1] = time.perf_counter()
        return span

    def end_op(self, span, raised: bool):
        span[2] = time.perf_counter()
        span[6] = raised
        self.stack.clear()
        self.op_id = None

    # --- installation ---------------------------------------------------
    def _quantile_attr(self):
        def attr(args, kwargs, result):
            key = (float(args[0].dof), float(args[1]))
            if key in self.quantile_args:
                return 1
            self.quantile_args.add(key)
            return 0

        return attr

    def install(self, package: str = "misspec") -> None:
        """Wrap every layer's public callables and rebind them package-wide."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        replace: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr_name, obj in list(vars(mod).items()):
                public = not attr_name.startswith("_") or attr_name in EXTRA.get(layer, ())
                if not public or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and id(obj) not in replace:
                    name = f"{layer}.{obj.__name__}"
                    replace[id(obj)] = self.wrap(name, obj, self._attr_for(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        parser_cls = modules[LAYERS.index("cli")]._Parser
        parser_cls.parse_args = self.wrap("cli._Parser.parse_args", parser_cls.parse_args)
        for mod_name, mod in list(_package_modules(package)):
            for attr_name, obj in list(vars(mod).items()):
                wrapped = replace.get(id(obj))
                if wrapped is not None and getattr(wrapped, "__wrapped__", None) is obj:
                    setattr(mod, attr_name, wrapped)
        # tail_ratio's quadrature calls, counted per row.
        integrate = importlib.import_module("scipy.integrate")
        integrate.quad = self.wrap("scipy.integrate.quad", integrate.quad)

    def _attr_for(self, name):
        if name == "special.t_quantile":
            return self._quantile_attr()
        return ATTRS.get(name)

    def _wrap_class(self, layer, cls):
        for attr_name, obj in list(vars(cls).items()):
            if attr_name.startswith("_") and attr_name != "__init__":
                continue
            label = f"{layer}.{cls.__name__}" + ("" if attr_name == "__init__" else f".{attr_name}")
            if label in SKIP:
                continue
            if isinstance(obj, staticmethod):
                setattr(cls, attr_name, staticmethod(self.wrap(label, obj.__func__, ATTRS.get(label))))
            elif inspect.isfunction(obj):
                setattr(cls, attr_name, self.wrap(label, obj, ATTRS.get(label)))

    # --- output -----------------------------------------------------------
    def write(self, path, header: dict, children=()) -> None:
        """JSON lines: the header, this process's spans, then each child's.

        Child ``i`` is the i-th traced CLI invocation of the process: its spans
        follow a ``{"child": i}`` line, and their parent indices refer to that
        child's list.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for i, spans in enumerate(children):
                fh.write(json.dumps({"child": i}) + "\n")
                for span in spans:
                    fh.write(json.dumps(span) + "\n")


def _package_modules(package: str):
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == package or name.startswith(package + ".")):
            yield name, mod


def summarize(tracer: Tracer) -> dict:
    """Additive sums over one process's spans (see ``layer_metrics``)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    calls: dict[str, list[float]] = {}
    extra: dict[str, float] = {}

    def add(key, value):
        extra[key] = extra.get(key, 0.0) + value

    for i, span in enumerate(spans):
        name, dur = span[0], span[2] - span[1]
        row = calls.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_time[i]
        parent = spans[span[3]][0] if span[3] >= 0 else None
        attr = span[5]
        if name.startswith("op."):
            add("ops", 1)
        elif name in ("_kernels.coverage_hits", "_kernels.pivot_tstats") and attr:
            add(f"{name}.reps.{attr[1]}", attr[0])
            add(f"{name}.time.{attr[1]}", dur)
        elif name == "posteriors.grid_posterior" and attr:
            points, p, k = attr
            size = "p1" if p == 1 else ("p2_large" if points >= 1_000_000 else "p2_small")
            add("grid.points", points)
            add("grid.eta_bytes", points * k * 8)
            add(f"grid.points.{size}", points)
            add(f"grid.time.{size}", dur)
        elif name == "priors.ScaledPrior.log_density" and attr:
            add("scaled.points", attr)
            if parent == "priors.ContaminatedPrior.log_density" and attr == 1:
                add("contaminant.calls", 1)
        elif name == "priors.ContaminatedPrior.log_density" and attr:
            add("contaminated.points", attr)
        elif name == "special.t_cdf" and parent == "special.t_quantile":
            add("t_cdf.in_quantile", 1)
        elif name == "special.t_quantile" and attr is not None:
            add("t_quantile.repeats", attr)
        elif name == "scenarios.iv_sample" and attr:
            add("iv_sample.bytes", attr)
        elif name == "scipy.integrate.quad" and parent == "priors.tail_ratio":
            add("tail_ratio.quad_calls", 1)
        if name == "priors.tail_ratio" and span[6]:
            add("tail_ratio.failed", 1)
        if name == "cli._build_parser" or (
            name == "cli._Parser.parse_args" and parent == "cli.main"
        ):
            add("cli.parse_time", dur)
        if name == "cli.main":
            add("cli.invocations", 1)
    return {"calls": calls, "extra": extra}


def merge_sums(parts) -> dict:
    calls: dict[str, list[float]] = {}
    extra: dict[str, float] = {}
    for part in parts:
        for name, row in part["calls"].items():
            acc = calls.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for key, value in part["extra"].items():
            extra[key] = extra.get(key, 0.0) + value
    return {"calls": calls, "extra": extra}


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(sums: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from merged span sums; 0 where a layer did no work."""
    calls, extra = sums["calls"], sums["extra"]
    ops = extra.get("ops", 0.0)

    def n(name):
        return calls.get(name, [0, 0.0, 0.0])[0]

    def self_mean(name, scale):
        row = calls.get(name, [0, 0.0, 0.0])
        return _ratio(row[2], row[0], scale)

    def dur(name):
        return calls.get(name, [0, 0.0, 0.0])[1]

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("model.ModelInstance.self_us", self_mean("model.ModelInstance", 1e6), "us")
    put("model.pseudo_true.calls_per_op", _ratio(n("model.pseudo_true"), ops), "calls/op")
    put("model.pseudo_true.self_us", self_mean("model.pseudo_true", 1e6), "us")
    put("model.hessian.calls_per_op", _ratio(n("model.ModelInstance.hessian"), ops), "calls/op")
    put("model.sigma_v.calls_per_op", _ratio(n("model.sigma_v"), ops), "calls/op")
    put("linalg.spd_factor.calls_per_op", _ratio(n("_linalg.spd_factor"), ops), "calls/op")
    put("linalg.spd_solve.calls_per_op", _ratio(n("_linalg.spd_solve"), ops), "calls/op")
    put("linalg.spd_solve.self_us", self_mean("_linalg.spd_solve", 1e6), "us")
    quantiles = n("special.t_quantile")
    put("special.t_quantile.calls_per_op", _ratio(quantiles, ops), "calls/op")
    put("special.t_quantile.self_us", self_mean("special.t_quantile", 1e6), "us")
    put("special.t_cdf.calls_per_quantile", _ratio(extra.get("t_cdf.in_quantile", 0), quantiles), "calls")
    put("special.t_quantile.repeat_share", _ratio(extra.get("t_quantile.repeats", 0), quantiles), "ratio")
    for fn in ("analyze", "confidence_interval", "identified_set_projection", "local_ci", "finite_sample_ci"):
        put(f"inference.{fn}.self_us", self_mean(f"inference.{fn}", 1e6), "us")
    put("scenarios.iv_sample.self_us", self_mean("scenarios.iv_sample", 1e6), "us")
    put("scenarios.iv_sample.bytes", _ratio(extra.get("iv_sample.bytes", 0), n("scenarios.iv_sample")), "B")

    for fam in ("normal", "t"):
        put(
            f"kernels.coverage_hits.us_per_rep.{fam}",
            _ratio(extra.get(f"_kernels.coverage_hits.time.{fam}", 0),
                   extra.get(f"_kernels.coverage_hits.reps.{fam}", 0), 1e6),
            "us",
        )
    for fam in ("normal", "t", "control"):
        put(
            f"kernels.pivot_tstats.us_per_rep.{fam}",
            _ratio(extra.get(f"_kernels.pivot_tstats.time.{fam}", 0),
                   extra.get(f"_kernels.pivot_tstats.reps.{fam}", 0), 1e6),
            "us",
        )
    put("montecarlo.run_coverage.self_ms", self_mean("montecarlo.run_coverage", 1e3), "ms")
    put("montecarlo.ks_statistic.self_ms", self_mean("montecarlo.ks_statistic", 1e3), "ms")
    kernel_time = dur("_kernels.coverage_hits") + dur("_kernels.pivot_tstats")
    engine_time = dur("montecarlo.run_coverage") + dur("montecarlo.run_pivotality")
    put("montecarlo.kernel_share", _ratio(kernel_time, engine_time), "ratio")
    put("montecarlo.run_concentration.self_ms", self_mean("montecarlo.run_concentration", 1e3), "ms")
    put("montecarlo.run_contamination.self_ms", self_mean("montecarlo.run_contamination", 1e3), "ms")

    put("posteriors.grid_posterior.points", _ratio(extra.get("grid.points", 0), n("posteriors.grid_posterior")), "points")
    for size in ("p2_large", "p2_small", "p1"):
        put(
            f"posteriors.grid_posterior.ns_per_point.{size}",
            _ratio(extra.get(f"grid.time.{size}", 0), extra.get(f"grid.points.{size}", 0), 1e9),
            "ns",
        )
    put("posteriors.grid_posterior.eta_bytes", _ratio(extra.get("grid.eta_bytes", 0), n("posteriors.grid_posterior")), "B")
    for fn in ("mass_outside_ball", "posterior_sd", "bayes_action_quadratic", "tv_distance"):
        put(f"posteriors.{fn}.self_ms", self_mean(f"posteriors.{fn}", 1e3), "ms")
    put(
        "priors.ScaledPrior.log_density.ns_per_point",
        _ratio(dur("priors.ScaledPrior.log_density"), extra.get("scaled.points", 0), 1e9),
        "ns",
    )
    put("priors.ContaminatedPrior.log_density.self_ms", self_mean("priors.ContaminatedPrior.log_density", 1e3), "ms")
    put(
        "priors.contaminant_calls_per_point",
        _ratio(extra.get("contaminant.calls", 0), extra.get("contaminated.points", 0)),
        "calls",
    )
    put("priors.tail_ratio.self_ms", self_mean("priors.tail_ratio", 1e3), "ms")
    put("priors.tail_ratio.quad_calls_per_row", _ratio(extra.get("tail_ratio.quad_calls", 0), n("priors.tail_ratio")), "calls")
    put("priors.tail_ratio.failed", extra.get("tail_ratio.failed", 0), "count")

    put("cli.parse_ms", _ratio(extra.get("cli.parse_time", 0), extra.get("cli.invocations", 0), 1e3), "ms")
    for fn in ("dumps", "trace_to_csv", "tails_to_csv"):
        put(f"serialize.{fn}.self_us", self_mean(f"serialize.{fn}", 1e6), "us")
    return out

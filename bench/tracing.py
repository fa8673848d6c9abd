"""Span tracing of flutterspec's public functions, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper at every
module attribute that holds it (``flutterspec.flutter.compute_det_field``,
``flutterspec.continuation.predictor``, ...), so calls between modules
are recorded as well as the benchmark's own calls.  Spans are kept in
memory as flat arrays (name, parent, start, end) and reduced to a
per-function table: calls, inclusive time, self time (duration minus the
time covered by child spans) and a few work counters.
"""

from __future__ import annotations

import logging
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

MODULES = ("flutterspec", "flutterspec.operator", "flutterspec.models",
           "flutterspec.pseudospectrum", "flutterspec.flutter",
           "flutterspec.continuation", "flutterspec.cli")

# (module, function) pairs, keyed by the layer name used in span names.
TRACED = {
    "models": ("flutterspec.models", ("build_trajectory_operator", "build_typical_section",
                                      "build_normal_operator", "build_galerkin_wing")),
    "operator": ("flutterspec.operator", ("evaluate", "sigma_min", "param_derivatives",
                                          "residual_norm")),
    "pseudospectrum": ("flutterspec.pseudospectrum", (
        "compute_sigma_field", "compute_det_field", "extract_contours",
        "epsilon_pseudospectrum", "find_borderline_regions")),
    "flutter": ("flutterspec.flutter", ("find_flutter_points", "locate_candidates",
                                        "polish_flutter_point")),
    "continuation": ("flutterspec.continuation", (
        "trace_path", "predictor", "initial_tangent", "fd_tangent", "corrector_slp",
        "corrector_newton", "solve_at_airspeed", "natural_continuation",
        "damping_continuation", "flight_envelope", "extremum_damping")),
    "cli": ("flutterspec.cli", ("build_model", "cmd_flutter", "cmd_pseudo", "cmd_trace",
                                "cmd_envelope", "cmd_damping_plot")),
}


def _trace_corrector(args, kwargs) -> str:
    settings = kwargs.get("settings", args[3] if len(args) > 3 else None)
    return getattr(settings, "corrector", "slp")


# Work counters taken from a call's result (or exception), per span name.
def _on_return(name: str, result) -> Dict[str, float]:
    if name in ("pseudospectrum.compute_sigma_field", "pseudospectrum.compute_det_field"):
        return {"nodes": result.grid.u_axis[2] * result.grid.w_axis[2]}
    if name == "pseudospectrum.extract_contours":
        return {"vertices": sum(len(p) for p in result.polylines)}
    if name == "flutter.polish_flutter_point":
        return {"iterations": result.iterations}
    if name == "flutter.find_flutter_points":
        return {"points": len(result)}
    if name.startswith("continuation.trace_path"):
        return {"accepted": len(result.points) - 1}
    return {}


def _on_error(name: str, exc: BaseException) -> Dict[str, float]:
    if name == "flutter.polish_flutter_point":
        return {"iterations": getattr(exc, "iterations", 0), "failures": 1}
    return {"failures": 1}


class PolishFailureCounter(logging.Handler):
    """Counts flutter polishes that fail and are only logged."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord):
        if "polish failed" in record.getMessage():
            self.count += 1

    def attach(self) -> "PolishFailureCounter":
        logging.getLogger("flutterspec.flutter").addHandler(self)
        return self

    def detach(self):
        logging.getLogger("flutterspec.flutter").removeHandler(self)


class Tracer:
    def __init__(self):
        self._originals: List[Tuple[Any, str, Callable]] = []
        self.active = False
        self.reset()

    def reset(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.extra: Dict[int, Dict[str, float]] = {}
        self._stack: List[int] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        split = name == "continuation.trace_path"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = f"{name}.{_trace_corrector(args, kwargs)}" if split else name
            idx = len(tracer.start)
            tracer.name_id.append(tracer._intern(span_name))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(time.perf_counter())
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.extra[idx] = _on_error(span_name, exc)
                raise
            else:
                counters = _on_return(span_name, result)
                if counters:
                    tracer.extra[idx] = counters
                return result
            finally:
                tracer._stack.pop()
                tracer.end[idx] = time.perf_counter()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [sys.modules[m] for m in MODULES if m in sys.modules]
        for layer, (mod_name, funcs) in TRACED.items():
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{layer}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._originals.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total_s, self_s and summed work counters."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            for key, val in self.extra.get(i, {}).items():
                row[key] = row.get(key, 0) + val
        return dict(out)

    def dump_spans(self, path: str):
        """Write the recorded spans as CSV (name, parent index, start, end)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,parent,start,end\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]},{self.parent[i]},"
                         f"{self.start[i]!r},{self.end[i]!r}\n")


def merge_tables(tables: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {})
            for key, val in row.items():
                acc[key] = acc.get(key, 0) + val
    return out


def layer_metrics(table: Dict[str, Dict[str, float]], polish_failures: int) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    def get(name, key="self_s"):
        return table.get(name, {}).get(key, 0)

    sigma_nodes = get("pseudospectrum.compute_sigma_field", "nodes")
    sigma_total = get("pseudospectrum.compute_sigma_field", "total_s")
    det_nodes = get("pseudospectrum.compute_det_field", "nodes")
    det_total = get("pseudospectrum.compute_det_field", "total_s")
    polish_calls = get("flutter.polish_flutter_point", "calls")
    attempted = get("continuation.predictor", "calls")
    accepted = (get("continuation.trace_path.slp", "accepted")
                + get("continuation.trace_path.newton", "accepted"))
    return {
        "models.build.self_s": sum(get(f"models.{f}") for f in TRACED["models"][1]),
        "operator.evaluate.calls": get("operator.evaluate", "calls"),
        "operator.evaluate.self_s": get("operator.evaluate"),
        "operator.sigma_min.calls": get("operator.sigma_min", "calls"),
        "operator.sigma_min.self_s": get("operator.sigma_min"),
        "operator.param_derivatives.calls": get("operator.param_derivatives", "calls"),
        "operator.param_derivatives.self_s": get("operator.param_derivatives"),
        "pseudospectrum.sigma_field.self_s": get("pseudospectrum.compute_sigma_field"),
        "pseudospectrum.sigma_field.nodes_per_s": sigma_nodes / sigma_total if sigma_total else 0.0,
        "pseudospectrum.det_field.calls": get("pseudospectrum.compute_det_field", "calls"),
        "pseudospectrum.det_field.self_s": get("pseudospectrum.compute_det_field"),
        "pseudospectrum.det_field.nodes_per_s": det_nodes / det_total if det_total else 0.0,
        "pseudospectrum.contours.self_s": get("pseudospectrum.extract_contours"),
        "pseudospectrum.contours.vertices": get("pseudospectrum.extract_contours", "vertices"),
        "pseudospectrum.borderline.self_s": get("pseudospectrum.find_borderline_regions"),
        "flutter.search.self_s": get("flutter.find_flutter_points"),
        "flutter.polish.calls": polish_calls,
        "flutter.polish.self_s": get("flutter.polish_flutter_point"),
        "flutter.polish.iterations": get("flutter.polish_flutter_point", "iterations"),
        "flutter.polish.failures": polish_failures,
        "flutter.polish.useful_ratio": (get("flutter.find_flutter_points", "points") / polish_calls
                                        if polish_calls else 0.0),
        "continuation.trace.slp.self_s": get("continuation.trace_path.slp"),
        "continuation.trace.newton.self_s": get("continuation.trace_path.newton"),
        "continuation.steps.attempted": attempted,
        "continuation.steps.accepted": accepted,
        "continuation.accept_ratio": accepted / attempted if attempted else 0.0,
        "continuation.initial_tangent.self_s": get("continuation.initial_tangent"),
        "continuation.solve_at_airspeed.calls": get("continuation.solve_at_airspeed", "calls"),
        "continuation.solve_at_airspeed.self_s": get("continuation.solve_at_airspeed"),
        "continuation.envelope.self_s": get("continuation.flight_envelope"),
        "continuation.extremum.self_s": get("continuation.extremum_damping"),
    }


CLI_LAYER = ("cli.flutter.wall_s", "cli.pseudo.wall_s", "cli.trace.wall_s", "cli.envelope.wall_s",
             "cli.damping-plot.wall_s", "cli.output_bytes", "cli.import.ndimage_s")
OVERHEAD = ("trace.overhead_s", "trace.overhead_share")


def per_layer_names():
    """Every per-layer metric, in report order."""
    return list(layer_metrics({}, 0)) + list(CLI_LAYER) + list(OVERHEAD)


def unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("calls", "iterations", "failures", "vertices", "attempted", "accepted"):
        return "count"
    if last.endswith("ratio") or last.endswith("share"):
        return "ratio"
    return {"nodes_per_s": "1/s", "output_bytes": "bytes"}.get(last, "s")


"""The four benchmark workloads: seeded inputs, set-up, task lists, checks.

A workload's ``setup`` builds the operators and computes the seeds its
tasks need (flutter start points, natural-continuation seeds).  Its
``tasks`` are run once per pass, in order; each task is a few public
flutterspec calls (or one CLI command) plus an answer check against an
oracle from ``oracles.py``.  A task fails when it raises, exits with
another code than the documented one, returns an incomplete answer
(a missing flutter point, a path that stops inside the window) or a
wrong one.  Later passes must reproduce the first pass bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import flutterspec as fs
from flutterspec import models

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

README_WINDOW = fs.Window(10.0, 400.0, 20.0, 200.0)
NORMAL_WINDOW = fs.Window(-10.0, 10.0, -10.0, 20.0)
NORMAL_GRID_AXES = ((0.0, 1.0), (0.0, 8.0))
MAX_MIXING_CONDITION = 100.0
TRAJ_GRID_SIZES = (21, 101)   # smoke and full sigma-field grids
POINT_REL_TOL = 1e-6        # flutter points, envelope U*, extremum zeta
PATH_TOL = 1e-8             # trajectory paths vs closed form, SLP vs Newton
FIELD_TOL = 1e-9            # closed-form sigma fields
FIELD_REL_TOL = 1e-12       # sigma fields vs numpy SVD, relative to sigma_max

# Failure kinds.  "wrong-answer" and "nondeterministic" make a run incorrect;
# the others count as failed tasks.
RAISED, EXIT_CODE, INCOMPLETE = "raised", "exit-code", "incomplete"
WRONG, NONDETERMINISTIC = "wrong-answer", "nondeterministic"

Failure = Tuple[str, str]


# ---------------------------------------------------------------------------
# seeded inputs


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides; the oracles stay exact for every draw."""

    seed: int
    mixing: np.ndarray              # 2x2 trajectory mixing matrix, cond <= 100
    normal_eigenvalues: np.ndarray  # spectrum of the normal operator
    # eps levels for the trajectory sigma field, per grid size
    traj_eps: Dict[int, Tuple[float, ...]]

    def record(self) -> Dict[str, Any]:
        return {"seed": self.seed, "mixing": self.mixing.tolist(),
                "mixing_cond": float(np.linalg.cond(self.mixing)),
                "normal_eigenvalues": [[z.real, z.imag] for z in self.normal_eigenvalues],
                "traj_eps": {str(k): v for k, v in self.traj_eps.items()}}


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    while True:
        t = rng.standard_normal((2, 2))
        if np.linalg.cond(t) <= MAX_MIXING_CONDITION:
            break
    # Four eigenvalues, real parts at least 1 apart inside (1, 7) and
    # imaginary parts below the smallest epsilon level, so every level
    # yields polylines on the (0, 8) chi_R axis.
    while True:
        re_parts = np.sort(rng.uniform(1.0, 7.0, 4))
        if np.all(np.diff(re_parts) >= 1.0):
            break
    im_parts = rng.uniform(-0.05, 0.05, 4)
    # Mixing rescales the trajectory sigma field by up to cond(T) either way,
    # so fixed levels can miss it; levels near the 2nd, 5th and 10th
    # percentiles of the closed-form field always cut it.
    oracle = trajectory_oracle(trajectory_spec(models.reference_restabilization_spec(), t))
    traj_eps = {}
    for n in TRAJ_GRID_SIZES:
        grid = fs.Grid2D.over_window(README_WINDOW, n, n)
        values = oracle.sigma_field(grid.u_values(), grid.w_values())
        traj_eps[n] = tuple(_level_between_nodes(values, q) for q in (0.02, 0.05, 0.10))
    return Inputs(seed, t, re_parts + 1j * im_parts, traj_eps)


def _level_between_nodes(values: np.ndarray, q: float) -> float:
    """A level near quantile q that lies well between two node values, so
    no contour vertex falls on a grid node."""
    v = np.unique(values)
    k = int(q * (v.size - 1))
    while v[k + 1] - v[k] <= 1e-9 * v[k + 1]:
        k += 1
    return float(0.5 * (v[k] + v[k + 1]))


def trajectory_spec(preset: models.TrajectorySpec, mixing: np.ndarray) -> models.TrajectorySpec:
    return models.TrajectorySpec(modes=preset.modes, mixing=mixing)


def trajectory_oracle(spec: models.TrajectorySpec) -> oracles.Trajectory:
    return oracles.Trajectory([(m.omega_coeffs, m.g_coeffs) for m in spec.modes], spec.mixing)


def wing_spec(n: int) -> models.GalerkinWingSpec:
    return models.GalerkinWingSpec(n_bending=n // 2, n_torsion=n // 2)


def reference_points(name: str) -> List[Tuple[float, float]]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return [(p["U"], p["chi_R"]) for p in doc["flutter_points"][name]["points"]]


# ---------------------------------------------------------------------------
# tasks


@dataclass
class Task:
    id: str
    run: Callable[[Dict[str, Any]], Any]
    check: Callable[[Any, Dict[str, Any]], List[Failure]]


@dataclass
class Raised:
    """A task whose program call raised."""

    error: str


def fingerprint(obj: Any) -> str:
    """Stable hash of a result: floats by repr, arrays by bytes."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(f"nd{o.dtype}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            h.update(type(o).__name__.encode())
            for f in dataclasses.fields(o):
                feed(getattr(o, f.name))
        elif isinstance(o, dict):
            for k in sorted(o, key=str):
                feed(str(k))
                feed(o[k])
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for v in o:
                feed(v)
            h.update(b"]")
        else:
            h.update(repr(o).encode())
        h.update(b";")

    feed(obj)
    return h.hexdigest()


def singular_failures(op, points: Sequence[Tuple[float, float, float]], what: str) -> List[Failure]:
    """Each (U, chi_R, chi_I) must be a singular pair of op (numpy SVD)."""
    for u, wr, wi in points:
        ratio = oracles.singular_ratio(op.func(complex(wr, wi), u))
        if ratio > oracles.SINGULAR_REL_TOL:
            return [(WRONG, f"{what} point (U={u!r}, chi={wr!r}{wi:+}j) is not singular: "
                            f"sigma_min/sigma_max = {ratio:.2e}")]
    return []


class Workload:
    name = ""
    why = ""
    min_passes = 1
    runs_children = False   # the program runs in child processes (peak RSS of those)

    def setup(self, inputs: Inputs, smoke: bool) -> Any:
        raise NotImplementedError

    def tasks(self, state: Any) -> List[Task]:
        raise NotImplementedError

    def step_ms(self, ctx: Dict[str, Any]) -> float:
        """Wall time per unit of the workload's stepwise work, in ms."""
        meter = ctx["meter"]
        return 1e3 * meter["step_s"] / meter["steps"] if meter["steps"] else math.nan

    def layer_extras(self, ctx: Dict[str, Any]) -> Dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# pseudo_map


class PseudoMap(Workload):
    name = "pseudo_map"
    why = ("sigma_min fields, epsilon contours and borderline regions; per-node SVD and "
           "Python marching squares, no flutter or continuation work in the passes")

    def setup(self, inputs, smoke):
        grid_n, normal_n = (21, 21) if smoke else (101, 200)
        traj_spec = trajectory_spec(models.reference_restabilization_spec(), inputs.mixing)
        cases = {"traj": (models.build_trajectory_operator(traj_spec), README_WINDOW, grid_n,
                          inputs.traj_eps[grid_n], trajectory_oracle(traj_spec)),
                 "typical_section": (models.build_typical_section(), None, grid_n,
                                     (300.0, 1000.0), None)}
        for n in () if smoke else (8, 16):
            cases[f"wing_n{n}"] = (models.build_galerkin_wing(wing_spec(n)), None, grid_n,
                                   (100.0, 200.0), None)
        normal_op = models.build_normal_operator(inputs.normal_eigenvalues, NORMAL_WINDOW)
        state = {}
        for key, (op, window, n, eps, oracle) in cases.items():
            window = window or op.window
            flutter = fs.find_flutter_points(op, window)
            state[key] = dict(op=op, grid=fs.Grid2D.over_window(window, n, n), eps=eps,
                              oracle=oracle, flutter=flutter)
        (u0, u1), (w0, w1) = NORMAL_GRID_AXES
        state["normal"] = dict(op=normal_op, grid=fs.Grid2D((u0, u1, normal_n), (w0, w1, normal_n)),
                               eps=(0.1, 0.3), oracle=inputs.normal_eigenvalues, flutter=[])
        return state

    def tasks(self, state):
        tasks = []
        for key, case in state.items():
            tasks += [
                Task(f"field:{key}", self._field_run(case), self._field_check(key, case)),
                Task(f"contours:{key}", self._contours_run(key, case),
                     self._contours_check(key, case)),
                Task(f"borderline:{key}", self._borderline_run(key, case),
                     self._borderline_check(key, case)),
            ]
        return tasks

    @staticmethod
    def _field_run(case):
        def run(ctx):
            t0 = time.perf_counter()
            fld = fs.compute_sigma_field(case["op"], case["grid"])
            ctx["meter"]["step_s"] += time.perf_counter() - t0
            ctx["meter"]["steps"] += fld.values.size
            return fld
        return run

    @staticmethod
    def _field_check(key, case):
        def check(fld, ctx):
            us, ws = fld.grid.u_values(), fld.grid.w_values()
            if key == "traj":
                err = float(np.abs(fld.values - case["oracle"].sigma_field(us, ws)).max())
                bad = err > FIELD_TOL
            elif key == "normal":
                ref = np.tile(oracles.distance_to_spectrum(case["oracle"], ws), (us.size, 1))
                err = float(np.abs(fld.values - ref).max())
                bad = err > FIELD_TOL
            else:
                smin, smax = oracles.svd_rows(case["op"].func, us, ws)
                rel = np.abs(fld.values - smin) / smax
                err = float(rel.max())
                bad = err > FIELD_REL_TOL
            return [(WRONG, f"sigma field off its oracle by {err:.2e}")] if bad else []
        return check

    @staticmethod
    def _contours_run(key, case):
        def run(ctx):
            fld = ctx[f"field:{key}"]
            return [fs.extract_contours(fld, eps) for eps in case["eps"]]
        return run

    @staticmethod
    def _contours_check(key, case):
        def check(contours, ctx):
            fld = ctx[f"field:{key}"]
            us, ws = fld.grid.u_values(), fld.grid.w_values()
            for eps, cs in zip(case["eps"], contours):
                if not cs.polylines:
                    return [(WRONG, f"eps={eps} yields no polylines")]
                err = oracles.contour_error(fld.values, us, ws, eps, np.vstack(cs.polylines))
                if err:
                    return [(WRONG, f"eps={eps}: {err}")]
            return []
        return check

    @staticmethod
    def _borderline_run(key, case):
        def run(ctx):
            return fs.find_borderline_regions(ctx[f"field:{key}"], min(case["eps"]),
                                              case["flutter"])
        return run

    @staticmethod
    def _borderline_check(key, case):
        def check(regions, ctx):
            fld = ctx[f"field:{key}"]
            centers = [(fp.point.U, fp.point.chi_R) for fp in case["flutter"]]
            expected = oracles.sublevel_regions(fld.values, fld.grid.u_values(),
                                                fld.grid.w_values(), min(case["eps"]), centers)
            got = [(r.center, r.min_sigma, r.extent, r.near_flutter) for r in regions]
            if got != expected:
                return [(WRONG, f"{len(got)} borderline region(s), oracle has {len(expected)} "
                                f"or they differ")]
            return []
        return check


# ---------------------------------------------------------------------------
# flutter_search


class FlutterSearch(Workload):
    name = "flutter_search"
    why = ("det fields, det-component contours and FD-slogdet polishes on six operators; "
           "shows the dropped-point defect")

    def setup(self, inputs, smoke):
        traj = trajectory_spec(models.reference_restabilization_spec(), inputs.mixing)
        two = trajectory_spec(models.two_crossing_spec(), inputs.mixing)
        traj_op, two_op = models.build_trajectory_operator(traj), models.build_trajectory_operator(two)
        cases = {
            "traj": (traj_op, README_WINDOW, trajectory_oracle(traj).flutter_points(README_WINDOW)),
            "two_crossing": (two_op, two_op.window,
                             trajectory_oracle(two).flutter_points(two_op.window)),
            "typical_section": (models.build_typical_section(), None,
                                reference_points("typical_section")),
        }
        for n in () if smoke else (4, 8, 16):
            cases[f"wing_n{n}"] = (models.build_galerkin_wing(wing_spec(n)), None,
                                   reference_points(f"wing_n{n}"))
        return {k: (op, win or op.window, pts) for k, (op, win, pts) in cases.items()}

    def tasks(self, state):
        return [Task(f"search:{key}", self._run(*case), self._check(*case))
                for key, case in state.items()]

    @staticmethod
    def _run(op, window, expected):
        def run(ctx):
            t0 = time.perf_counter()
            points = fs.find_flutter_points(op, window)
            ctx["meter"]["step_s"] += time.perf_counter() - t0
            ctx["meter"]["steps"] += len(points)
            return points
        return run

    @staticmethod
    def _check(op, window, expected):
        def check(points, ctx):
            out = singular_failures(op, [(fp.point.U, fp.point.chi_R, fp.point.chi_I)
                                         for fp in points], "flutter")
            if any(fp.point.chi_I != 0.0 for fp in points):
                out.append((WRONG, "flutter point with chi_I != 0"))
            found = [(fp.point.U, fp.point.chi_R) for fp in points]
            spurious, missing = oracles.match_points(found, expected, POINT_REL_TOL)
            if spurious:
                out.append((WRONG, f"points not in the oracle set: {spurious}"))
            if missing:
                out.append((INCOMPLETE, "oracle points not found: "
                                        + ", ".join(f"U={u:.6g}" for u, _ in missing)))
            return out
        return check


# ---------------------------------------------------------------------------
# trace_envelope


@dataclass
class TraceOutcome:
    path: Any = None
    crossings: Any = None
    extremum: Any = None
    errors: Dict[str, str] = field(default_factory=dict)


@dataclass
class TraceCase:
    key: str                     # operator key in the set-up state
    start: Tuple[float, float]   # oracle flutter point (U, chi_R)
    direction: int
    settings: fs.ContinuationSettings
    zeta_max: float


class TraceEnvelope(Workload):
    name = "trace_envelope"
    why = ("pseudo-arclength SLP and Newton paths, envelopes and extrema; corrector-bound, "
           "one operator evaluation at a time")

    def setup(self, inputs, smoke):
        steps = 20 if smoke else None
        traj_spec = trajectory_spec(models.reference_restabilization_spec(), inputs.mixing)
        ops = {"traj": (models.build_trajectory_operator(traj_spec), README_WINDOW),
               "typical_section": (models.build_typical_section(), None)}
        for n in () if smoke else (4, 8):
            ops[f"wing_n{n}"] = (models.build_galerkin_wing(wing_spec(n)), None)
        found = {k: fs.find_flutter_points(op, win or op.window) for k, (op, win) in ops.items()}

        def settings(**kw):
            if steps is not None:
                kw["max_steps"] = steps
            return fs.ContinuationSettings(**kw)

        cases = [TraceCase("traj", (120.0, 54.0), -1,
                           settings(ds=0.025, max_ds=0.025, max_steps=300), -0.02)]
        ts_point = reference_points("typical_section")[0]
        cases += [TraceCase("typical_section", ts_point, d, settings(ds=0.01, max_ds=0.01), z)
                  for d, z in ((+1, 0.005), (-1, -0.1))]
        for n in () if smoke else (4, 8):
            cases += [TraceCase(f"wing_n{n}", p, +1, settings(), 0.005)
                      for p in reference_points(f"wing_n{n}")[:2]]

        op = ops["traj"][0]
        u_end = 100.0 if smoke else 700.0
        _, x = fs.sigma_min(op, complex(60.0, 0.0), 0.0)
        guess = fs.EigenPoint.from_vector(op, 60.0, 0.0, 0.0, x)
        seed = fs.solve_at_airspeed(op, 0.0, guess)
        return dict(ops={k: v[0] for k, v in ops.items()}, found=found, cases=cases,
                    oracle=trajectory_oracle(traj_spec), natural=(seed, u_end))

    def tasks(self, state):
        tasks = []
        for case in state["cases"]:
            start = self._start(state, case)
            for corrector in ("newton", "slp"):
                tid = (f"trace:{case.key}@{case.start[0]:.4f}:{case.direction:+d}:{corrector}")
                tasks.append(Task(tid, self._trace_run(state, case, start, corrector),
                                  self._trace_check(state, case, corrector, tid)))
        tasks.append(Task("natural:traj", self._natural_run(state), self._natural_check(state)))
        return tasks

    @staticmethod
    def _start(state, case):
        for fp in state["found"][case.key]:
            if (abs(fp.point.U - case.start[0]) <= POINT_REL_TOL * case.start[0]
                    and abs(fp.point.chi_R - case.start[1]) <= POINT_REL_TOL * case.start[1]):
                return fp
        return None

    @staticmethod
    def _trace_run(state, case, start, corrector):
        op = state["ops"][case.key]
        settings = dataclasses.replace(case.settings, corrector=corrector)

        def run(ctx):
            out = TraceOutcome()
            if start is None:
                out.errors["start"] = "the flutter search in set-up did not return this point"
                return out
            t0 = time.perf_counter()
            try:
                out.path = fs.trace_path(op, start, direction=case.direction, settings=settings)
            except Exception as exc:  # counted as a failed task
                out.errors["trace"] = f"{type(exc).__name__}: {exc}"
            ctx["meter"]["step_s"] += time.perf_counter() - t0
            if out.path is None:
                return out
            ctx["meter"]["steps"] += len(out.path.points) - 1
            try:
                out.crossings = fs.flight_envelope(out.path, case.zeta_max, op=op)
            except Exception as exc:  # counted as a failed task
                out.errors["envelope"] = f"{type(exc).__name__}: {exc}"
            try:
                out.extremum = fs.extremum_damping(out.path, op=op)
            except Exception as exc:  # counted as a failed task
                out.errors["extremum"] = f"{type(exc).__name__}: {exc}"
            return out
        return run

    @staticmethod
    def _trace_check(state, case, corrector, tid):
        op = state["ops"][case.key]

        def check(out: TraceOutcome, ctx):
            fails: List[Failure] = []
            if "start" in out.errors:
                return [(INCOMPLETE, out.errors["start"])]
            if "trace" in out.errors:
                return [(RAISED, out.errors["trace"])]
            path = out.path
            fails += [(RAISED, f"{k}: {v}") for k, v in out.errors.items()]
            if path.termination_reason == "min-ds-exhausted":
                fails.append((INCOMPLETE, f"path stops inside the window at "
                                          f"U={path.points[-1].U:.6g} (min-ds-exhausted)"))
            triples = [(p.U, p.chi_R, p.chi_I) for p in path.points]
            fails += singular_failures(op, triples, "path")
            ref = ctx.get(tid.rsplit(":", 1)[0] + ":newton") if corrector == "slp" else None
            ref = ref if isinstance(ref, TraceOutcome) and ref.path is not None else None
            if ref is not None:
                gap = _prefix_gap(path, ref.path)
                if gap > PATH_TOL:
                    fails.append((WRONG, f"SLP and Newton paths differ by {gap:.2e} "
                                         f"over their common prefix"))
            if case.key == "traj":
                fails += _trajectory_path_checks(state["oracle"], path, out, case.zeta_max)
            else:
                fails += _envelope_invariants(op, out, case.zeta_max, ref)
            return fails
        return check

    @staticmethod
    def _natural_run(state):
        seed, u_end = state["natural"]
        op = state["ops"]["traj"]

        def run(ctx):
            return fs.natural_continuation(op, 0.0, u_end, 5.0, seed)
        return run

    @staticmethod
    def _natural_check(state):
        def check(path, ctx):
            if path.termination_reason != "completed":
                return [(INCOMPLETE, f"natural continuation: {path.termination_reason}")]
            err = state["oracle"].path_error(0, [(p.U, p.chi_R, p.chi_I) for p in path.points])
            return [(WRONG, f"damping plot off the closed form by {err:.2e}")] if err > PATH_TOL else []
        return check


def _prefix_gap(a, b) -> float:
    """Largest scaled distance between points at equal arclength."""
    worst = 0.0
    for sa, sb, p, q in zip(a.s, b.s, a.points, b.points):
        if abs(sa - sb) > 1e-12 * max(1.0, abs(sa)):
            break
        worst = max(worst, math.sqrt(((p.U - q.U) / a.scale[0]) ** 2
                                     + ((p.chi_R - q.chi_R) / a.scale[1]) ** 2
                                     + ((p.chi_I - q.chi_I) / a.scale[1]) ** 2))
    return worst


def _trajectory_path_checks(oracle: oracles.Trajectory, path, out: TraceOutcome,
                            zeta_max: float) -> List[Failure]:
    fails = []
    err = oracle.path_error(0, [(p.U, p.chi_R, p.chi_I) for p in path.points])
    if err > PATH_TOL:
        fails.append((WRONG, f"path off omega(U) + i g(U) by {err:.2e}"))
    us = [p.U for p in path.points]
    if out.crossings is not None:
        expected = oracle.zeta_crossings(0, zeta_max, min(us), max(us))
        got = sorted(c.u_star for c in out.crossings)
        if len(got) != len(expected) or any(abs(g - e) > POINT_REL_TOL * e
                                            for g, e in zip(got, expected)):
            fails.append((WRONG, f"envelope U* {got} != oracle {expected}"))
    if out.extremum is not None and not out.extremum.on_boundary:
        expected = oracle.zeta_extremum(0, min(us), max(us))
        if expected is None or abs(out.extremum.zeta - expected) > POINT_REL_TOL:
            fails.append((WRONG, f"extremum zeta {out.extremum.zeta!r} != oracle {expected!r}"))
    return fails


def _envelope_invariants(op, out: TraceOutcome, zeta_max: float,
                         ref: Optional[TraceOutcome]) -> List[Failure]:
    """Without a closed form: refined points are singular and on their level,
    and SLP crossings and extrema agree with the Newton path's."""
    fails = []
    for c in out.crossings or []:
        if c.point is None:
            fails.append((WRONG, "envelope crossing not refined"))
            continue
        zeta = c.point.chi_I / abs(c.point.chi)
        if c.u_star != c.point.U:
            fails.append((WRONG, f"crossing U*={c.u_star!r} is not its refined point's U"))
        if abs(zeta - zeta_max) > PATH_TOL:
            fails.append((WRONG, f"refined crossing has zeta {zeta!r}, not {zeta_max!r}"))
        fails += singular_failures(op, [(c.point.U, c.point.chi_R, c.point.chi_I)], "envelope")
        if ref is not None and ref.crossings is not None and not any(
                abs(c.u_star - r.u_star) <= POINT_REL_TOL * abs(r.u_star) for r in ref.crossings):
            fails.append((WRONG, f"SLP crossing U*={c.u_star!r} not on the Newton path"))
    ext = out.extremum
    if ext is not None and not ext.on_boundary:
        fails += singular_failures(op, [(ext.point.U, ext.point.chi_R, ext.point.chi_I)],
                                   "extremum")
        same_path = ref is not None and out.path.s == ref.path.s
        if same_path and ref.extremum is not None and \
                abs(ext.zeta - ref.extremum.zeta) > POINT_REL_TOL:
            fails.append((WRONG, f"SLP extremum zeta {ext.zeta!r} != Newton "
                                 f"{ref.extremum.zeta!r}"))
    return fails


# ---------------------------------------------------------------------------
# cli_session


CLI_ENVELOPE_ZETA = -0.02
CLI_COMMANDS = ("import", "flutter", "pseudo", "trace", "envelope", "damping-plot")
CLI_OUTPUTS = {
    "import": (),
    "flutter": ("flutter_points.json",),
    "pseudo": ("sigma_field.csv", "contours.csv", "borderline.json"),
    "trace": ("path.csv", "path.json"),
    "envelope": ("envelope.json",),
    "damping-plot": ("damping_plot.csv", "damping_plot.json"),
}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("FLUTTERSPEC_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_import_s() -> float:
    """Wall time of ``python -c "import flutterspec"`` in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import flutterspec"], env=child_env(),
                          cwd=ROOT, capture_output=True, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import flutterspec failed: {proc.stderr.decode()[-500:]}")
    return dt


@dataclass
class CliOutcome:
    returncode: int
    digests: Dict[str, str]


class CliSession(Workload):
    name = "cli_session"
    why = ("five CLI subcommands and an import, each in a fresh interpreter; interpreter "
           "start, import and file output on every call")
    min_passes = 2          # every command runs at least twice and must be byte-identical
    runs_children = True

    def setup(self, inputs, smoke):
        workdir = ROOT / ".bench_out" / f"cli-seed{inputs.seed}"
        (workdir / "out").mkdir(parents=True, exist_ok=True)
        preset = models.reference_restabilization_spec()
        spec = trajectory_spec(preset, inputs.mixing)
        grid = 21 if smoke else 101
        doc = {
            "model": {"kind": "trajectory",
                      "modes": [{"omega_coeffs": list(m.omega_coeffs), "g_coeffs": list(m.g_coeffs)}
                                for m in preset.modes],
                      "mixing": inputs.mixing.tolist()},
            "window": dataclasses.asdict(README_WINDOW),
            "grid": {"u_count": grid, "w_count": grid},
            "eps_list": [0.04, 0.08],
            "borderline": {"threshold": 0.15},
            "flutter": {"grid_count": 64, "refine_iters": 3, "tol": 1e-10, "max_iters": 50},
            "continuation": {"ds": 0.05, "max_steps": 20 if smoke else 200, "direction": -1},
            "natural": {"u_start": 0.0, "u_end": 100.0 if smoke else 700.0, "du": 5.0,
                        "seed_chi_r": 60.0},
            "output": {"dir": "out"},
        }
        (workdir / "run.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return dict(workdir=workdir, oracle=trajectory_oracle(spec), grid=grid,
                    eps=inputs.traj_eps[grid][:2])

    @staticmethod
    def argv(command: str, eps: Sequence[float]) -> List[str]:
        if command == "import":
            return ["-c", "import flutterspec"]
        args = {"pseudo": ["pseudo", "--config", "run.json", "--eps", ",".join(map(repr, eps))],
                "envelope": ["envelope", "out/path.json", "--zeta-max", str(CLI_ENVELOPE_ZETA),
                             "--output-dir", "out"]}
        return args.get(command, [command, "--config", "run.json"])

    def tasks(self, state):
        return [Task(f"cli:{cmd}", self._run(state, cmd), self._check(state, cmd))
                for cmd in CLI_COMMANDS]

    def _run(self, state, command):
        workdir = state["workdir"]
        outputs = [workdir / "out" / f for f in CLI_OUTPUTS[command]]

        def run(ctx):
            for f in outputs:
                f.unlink(missing_ok=True)
            argv = self.argv(command, state["eps"])
            table = workdir / f"spans-{command}.json"
            table.unlink(missing_ok=True)
            if command != "import":
                if ctx["traced"]:
                    argv = [str(HERE / "cli_child.py"), str(table)] + argv
                else:
                    argv = ["-m", "flutterspec.cli"] + argv
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable] + argv, cwd=workdir, env=child_env(),
                                  capture_output=True, timeout=170)
            dt = time.perf_counter() - t0
            if table.exists():
                ctx["child_tables"].append(table)
            if command == "import":
                ctx["meter"]["import_s"] = dt
            if command == "trace":
                ctx["meter"]["step_s"] += dt
            digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                       for f in outputs if f.exists()}
            ctx["meter"]["output_bytes"] += sum(f.stat().st_size for f in outputs if f.exists())
            if command == "trace" and (workdir / "out" / "path.csv").exists():
                rows = (workdir / "out" / "path.csv").read_text(encoding="utf-8").count("\n") - 2
                ctx["meter"]["steps"] += max(rows, 0)
            return CliOutcome(proc.returncode, digests)
        return run

    def _check(self, state, command):
        out_dir = state["workdir"] / "out"
        oracle: oracles.Trajectory = state["oracle"]

        def check(res: CliOutcome, ctx):
            if res.returncode != 0:
                return [(EXIT_CODE, f"{command} exited {res.returncode}, documented 0")]
            missing = [f for f in CLI_OUTPUTS[command] if f not in res.digests]
            if missing:
                return [(INCOMPLETE, f"{command} wrote no {missing}")]
            if command == "pseudo":
                return _cli_pseudo_check(out_dir, oracle, state["eps"])
            return {"flutter": _cli_flutter_check, "trace": _cli_path_check,
                    "damping-plot": _cli_path_check,
                    "envelope": _cli_envelope_check}.get(command, lambda *a: [])(
                out_dir, oracle, command)
        return check

    def layer_extras(self, ctx):
        return {"cli.output_bytes": ctx["meter"]["output_bytes"],
                "cli.import.ndimage_s": ndimage_import_s()}


def ndimage_import_s() -> float:
    """Cumulative scipy.ndimage import time, from ``python -X importtime``.

    scipy loads the subpackage lazily, so its own line may be missing; the
    outermost ``scipy.ndimage.*`` lines are summed instead.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import flutterspec"],
                          env=child_env(), cwd=ROOT, capture_output=True, timeout=120, text=True)
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        name = parts[-1] if len(parts) == 3 else ""
        if name.strip() == "scipy.ndimage" or name.strip().startswith("scipy.ndimage."):
            rows.append((len(name) - len(name.lstrip()), int(parts[1])))
    if not rows:
        return 0.0
    top = min(indent for indent, _ in rows)
    return 1e-6 * sum(us for indent, us in rows if indent == top)


def _read_csv(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines if line])


def _cli_flutter_check(out_dir, oracle, command):
    doc = json.loads((out_dir / "flutter_points.json").read_text(encoding="utf-8"))
    found = [(p["U"], p["chi_R"]) for p in doc["points"]]
    spurious, missing = oracles.match_points(found, oracle.flutter_points(README_WINDOW),
                                             POINT_REL_TOL)
    fails = [(WRONG, f"flutter points not in the oracle set: {spurious}")] if spurious else []
    if missing:
        fails.append((INCOMPLETE, f"oracle flutter points not found: {missing}"))
    return fails


def _cli_pseudo_check(out_dir, oracle, eps_levels):
    rows = _read_csv(out_dir / "sigma_field.csv")
    us, ws = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    values = rows[:, 2].reshape(us.size, ws.size)
    err = float(np.abs(values - oracle.sigma_field(us, ws)).max())
    if err > FIELD_TOL:
        return [(WRONG, f"sigma_field.csv off the closed form by {err:.2e}")]
    contours = _read_csv(out_dir / "contours.csv")
    for eps in eps_levels:
        verts = contours[contours[:, 0] == eps][:, 3:5]
        if verts.size == 0:
            return [(WRONG, f"contours.csv has no polylines at eps={eps}")]
        msg = oracles.contour_error(values, us, ws, eps, verts)
        if msg:
            return [(WRONG, f"contours.csv eps={eps}: {msg}")]
    doc = json.loads((out_dir / "borderline.json").read_text(encoding="utf-8"))
    expected = oracles.sublevel_regions(values, us, ws, doc["threshold"],
                                        [tuple(p) for p in doc["flutter_points"]])
    got = [((r["center_U"], r["center_chi_R"]), r["min_sigma"],
            tuple(r["extent"][k] for k in ("u_min", "u_max", "chi_r_min", "chi_r_max")),
            r["near_flutter"]) for r in doc["regions"]]
    if got != expected:
        return [(WRONG, "borderline.json regions differ from the flood-fill oracle")]
    return []


def _cli_path_check(out_dir, oracle, command):
    stem = "path" if command == "trace" else "damping_plot"
    rows = _read_csv(out_dir / f"{stem}.csv")
    err = oracle.path_error(0, [(r[1], r[2], r[3]) for r in rows])
    if err > PATH_TOL:
        return [(WRONG, f"{stem}.csv off omega(U) + i g(U) by {err:.2e}")]
    doc = json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))
    if doc["termination_reason"] == "min-ds-exhausted" or \
            doc["termination_reason"].startswith("non-convergence"):
        return [(INCOMPLETE, f"{stem}: {doc['termination_reason']}")]
    return []


def _cli_envelope_check(out_dir, oracle, command):
    rows = _read_csv(out_dir / "path.csv")
    expected = oracle.zeta_crossings(0, CLI_ENVELOPE_ZETA, rows[:, 1].min(), rows[:, 1].max())
    doc = json.loads((out_dir / "envelope.json").read_text(encoding="utf-8"))
    got = sorted(c["U_star"] for c in doc["crossings"])
    if len(got) != len(expected) or any(abs(g - e) > POINT_REL_TOL * e
                                        for g, e in zip(got, expected)):
        return [(WRONG, f"envelope U* {got} != oracle {expected}")]
    if not doc["refined"] or any(abs(c["zeta_check"] - CLI_ENVELOPE_ZETA) > PATH_TOL
                                 for c in doc["crossings"]):
        return [(WRONG, "envelope crossings not refined onto zeta_max")]
    return []


WORKLOADS = {w.name: w for w in (PseudoMap(), FlutterSearch(), TraceEnvelope(), CliSession())}

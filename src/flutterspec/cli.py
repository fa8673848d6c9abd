"""Batch front-end: model configs in, plot-ready CSV/JSON out.

One JSON config document drives every subcommand; the listed CLI flags
override the corresponding config fields.  :meth:`RunConfig.from_dict`
turns the document and the flags into the library's own objects (the
operator, its window and grid, the flutter and continuation settings)
once, so every section and key is checked before a subcommand starts: a
bad section, or a key that nothing reads, writes no file.  The CLI emits
data only (no plotting): CSV for tables, JSON for structured records, UTF-8
with LF line endings, and shortest round-trip float formatting so identical
runs are byte-identical.

Exit codes: 0 success with results, 2 continuation first-step failure,
3 success with an empty result, 1 any error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import continuation as cont
from . import models
from .errors import ConvergenceError, FlutterSpecError
from .flutter import FlutterPoint, FlutterSearchSettings, find_flutter_points
from .operator import EigenPoint, ParametricOperator, Window, sigma_min
from .pseudospectrum import (Grid2D, _borderline_threshold, _eps_levels, compute_sigma_field,
                             extract_contours, find_borderline_regions)

__all__ = ["RunConfig", "main", "cmd_flutter", "cmd_pseudo", "cmd_trace",
           "cmd_envelope", "cmd_damping_plot"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FIRST_STEP = 2
EXIT_EMPTY = 3

PATH_CSV_HEADER = "s,U,chi_R,chi_I,zeta,residual"
FIELD_CSV_HEADER = "U,chi_R,sigma_min"
CONTOUR_CSV_HEADER = "eps,polyline_id,vertex_id,U,chi_R"

# The keys of a config document and of its `natural` section.  The sections read
# into a dataclass take its field names (continuation also takes `direction`).
_CONFIG_KEYS = ("model", "window", "grid", "eps_list", "borderline", "flutter", "continuation",
               "natural", "output")
_NATURAL_KEYS = ("u_start", "u_end", "du", "seed_chi_r", "seed_chi_i")


def _fmt(x: float) -> str:
    return repr(float(x))


def _field_names(cls) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _only(section: Optional[Dict[str, Any]], where: str, keys: Sequence[str]) -> Dict[str, Any]:
    """A copy of a config section (empty for none or null); the one key rule: a key
    outside ``keys`` is an error."""
    section = dict(section or {})
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ValueError(f"{where} takes only {', '.join(map(repr, keys))}, not {unknown}")
    return section


def _zeta_of(chi_R: float, chi_I: float) -> float:
    nrm = math.hypot(chi_R, chi_I)
    return chi_I / nrm if nrm > 0.0 else math.nan


@dataclass
class RunConfig:
    """Parsed run configuration, built by :meth:`from_dict`; see the README for the schema."""

    model: Dict[str, Any]  # the model document, copied into path JSONs
    op: ParametricOperator
    window: Window  # the model's window with the config's window fields and flags applied
    grid: Grid2D  # over window
    eps_list: List[float]
    threshold: float  # of the borderline regions
    flutter: FlutterSearchSettings
    continuation: cont.ContinuationSettings
    natural: Dict[str, Any]
    output_dir: Path
    direction: int

    @classmethod
    def load(cls, path: Path, overrides: Dict[str, Any]) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls.from_dict(doc, overrides, base_dir=path.parent)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any], overrides: Dict[str, Any],
                  base_dir: Path = Path(".")) -> "RunConfig":
        if "direction" in doc:
            raise ValueError("top-level 'direction' is not read; set continuation.direction")
        _only(doc, "a config", _CONFIG_KEYS)
        model = doc.get("model")
        if isinstance(model, str):
            with open(base_dir / model, encoding="utf-8") as fh:
                model = json.load(fh)
        if not isinstance(model, dict):
            raise ValueError("config must supply a model object or model file path")
        op = build_model(model)

        window = _only(doc.get("window"), "window", _field_names(Window))
        for key in ("u_min", "u_max", "chi_r_min", "chi_r_max"):
            if overrides.get(key) is not None:
                window[key] = overrides[key]
        window = replace(op.window, **window)

        grid = {"u_count": 101, "w_count": 101,
                **_only(doc.get("grid"), "grid", ("u_count", "w_count"))}
        if overrides.get("grid") is not None:
            grid = {"u_count": overrides["grid"], "w_count": overrides["grid"]}

        eps_list = _eps_levels(overrides["eps"].split(",") if overrides.get("eps")
                               else doc.get("eps_list") or [0.04, 0.08])

        borderline = _only(doc.get("borderline"), "borderline", ("threshold",))
        threshold = _borderline_threshold(borderline.get("threshold", min(eps_list)))

        continuation = _only(doc.get("continuation"), "continuation",
                             _field_names(cont.ContinuationSettings) + ("direction",))
        direction = continuation.pop("direction", 1)
        if direction not in (-1, 1):
            raise ValueError(f"continuation.direction must be -1 or 1, not {direction!r}")
        if overrides.get("ds") is not None:
            continuation["ds"] = overrides["ds"]
        if overrides.get("direction") is not None:
            direction = overrides["direction"]

        flutter = _only(doc.get("flutter"), "flutter", _field_names(FlutterSearchSettings))
        output = _only(doc.get("output"), "output", ("dir",))
        out_dir = Path(overrides.get("output_dir") or output.get("dir", "out"))
        return cls(model=model, op=op, window=window,
                   grid=Grid2D.over_window(window, grid["u_count"], grid["w_count"]),
                   eps_list=eps_list, threshold=threshold,
                   flutter=FlutterSearchSettings(**flutter),
                   continuation=cont.ContinuationSettings(**continuation),
                   natural=_only(doc.get("natural"), "natural", _NATURAL_KEYS), output_dir=out_dir,
                   direction=int(direction))


def build_model(doc: Dict[str, Any]) -> ParametricOperator:
    """Build a ParametricOperator from a kind-tagged model document.

    Besides ``kind`` and ``window``, a trajectory takes ``preset`` or ``modes`` and
    ``mixing``, a normal operator ``eigenvalues`` and the other kinds their spec's fields.
    """
    kind = doc.get("kind")
    keys = {"trajectory": ("preset",) if "preset" in doc else ("modes", "mixing"),
            "typical_section": _field_names(models.TypicalSectionSpec),
            "normal": ("eigenvalues",),
            "galerkin_wing": _field_names(models.GalerkinWingSpec)}
    if kind not in keys:
        raise ValueError(f"unknown model kind {kind!r}")
    doc = _only(doc, f"a {kind} model", ("kind", "window") + keys[kind])
    del doc["kind"]
    win_doc = _only(doc.pop("window", None), "a model window", _field_names(Window))
    kwargs = {"window": Window(**win_doc)} if win_doc else {}
    if kind == "trajectory":
        preset = doc.pop("preset", None)
        if preset == "restabilization":
            spec = models.reference_restabilization_spec()
        elif preset == "two_crossing":
            spec = models.two_crossing_spec()
        elif preset is None:
            mixing = doc.pop("mixing", None)
            modes = [_only(m, "a trajectory mode", ("omega_coeffs", "g_coeffs"))
                     for m in doc.pop("modes")]
            spec = models.TrajectorySpec(
                modes=tuple(models.ModeTrajectory(tuple(m["omega_coeffs"]), tuple(m["g_coeffs"]))
                            for m in modes),
                mixing=np.asarray(mixing, dtype=float) if mixing is not None else None)
        else:
            raise ValueError(f"unknown trajectory preset {preset!r}")
        return models.build_trajectory_operator(spec, **kwargs)
    if kind == "typical_section":
        return models.build_typical_section(models.TypicalSectionSpec(**doc), **kwargs)
    if kind == "normal":
        eig = [complex(e[0], e[1]) if isinstance(e, (list, tuple)) else complex(e)
               for e in doc.pop("eigenvalues")]
        return models.build_normal_operator(eig, **kwargs)
    return models.build_galerkin_wing(models.GalerkinWingSpec(**doc), **kwargs)


def _write_text(path: Path, lines: Sequence[str]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _point_record(s: float, p: EigenPoint) -> Dict[str, Any]:
    return {"s": s, "U": p.U, "chi_R": p.chi_R, "chi_I": p.chi_I,
            "zeta": _zeta_of(p.chi_R, p.chi_I), "residual": p.residual,
            "x_re": [float(v) for v in p.x.real], "x_im": [float(v) for v in p.x.imag]}


def _write_path(out_dir: Path, stem: str, mode_path: cont.ModePath, model_doc: Dict[str, Any]):
    lines = [PATH_CSV_HEADER]
    for s, p in zip(mode_path.s, mode_path.points):
        zeta = _zeta_of(p.chi_R, p.chi_I)
        lines.append(",".join(_fmt(v) for v in (s, p.U, p.chi_R, p.chi_I, zeta, p.residual)))
    _write_text(out_dir / f"{stem}.csv", lines)

    origin = mode_path.origin
    if isinstance(origin, FlutterPoint):
        origin_doc = {"type": "flutter", "U": origin.point.U, "chi_R": origin.point.chi_R,
                      "iterations": origin.iterations, "static": origin.static}
    elif isinstance(origin, EigenPoint):
        origin_doc = {"type": "point", "U": origin.U, "chi_R": origin.chi_R,
                      "chi_I": origin.chi_I}
    else:
        origin_doc = {"type": str(origin)}
    _write_json(out_dir / f"{stem}.json", {
        "origin": origin_doc,
        "direction": mode_path.direction,
        "parameterization_note": "CHI_I",
        "termination_reason": mode_path.termination_reason,
        "scale": list(mode_path.scale),
        "notes": list(mode_path.notes),
        "model": model_doc,
        "points": [_point_record(s, p) for s, p in zip(mode_path.s, mode_path.points)],
    })


def read_path_file(path: Path) -> Tuple[cont.ModePath, Optional[Dict[str, Any]]]:
    """Rebuild a ModePath from a path JSON (full) or path CSV (values only).

    Also returns the JSON's model document, None for a CSV.
    """
    if path.suffix.lower() == ".json":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        points, s = [], []
        for rec in doc["points"]:
            x = np.asarray(rec["x_re"], dtype=float) + 1j * np.asarray(rec["x_im"], dtype=float)
            points.append(EigenPoint(rec["chi_R"], rec["chi_I"], rec["U"], x, rec["residual"]))
            s.append(rec["s"])
        mp = cont.ModePath(points=points, s=s, origin=doc["origin"].get("type", "natural"),
                           direction=doc.get("direction", 1),
                           scale=tuple(doc.get("scale", (1.0, 1.0))),
                           termination_reason=doc.get("termination_reason"))
        return mp, doc.get("model")

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != PATH_CSV_HEADER:
            raise ValueError(f"unexpected path CSV header {header!r}")
        points, s = [], []
        for line in fh:
            if not line.strip():
                continue
            sv, u, wr, wi, _zeta, res = (float(v) for v in line.strip().split(","))
            points.append(EigenPoint(wr, wi, u, np.array([1.0 + 0j]), res))
            s.append(sv)
    return cont.ModePath(points=points, s=s, origin="natural"), None


def _flutter_point_record(fp: FlutterPoint) -> Dict[str, Any]:
    p = fp.point
    return {"U": p.U, "chi_R": p.chi_R, "chi_I": p.chi_I, "residual": p.residual,
            "iterations": fp.iterations, "static": fp.static,
            "x_re": [float(v) for v in p.x.real], "x_im": [float(v) for v in p.x.imag],
            "window_history": [asdict(w) for w in fp.window_history]}


def cmd_flutter(cfg: RunConfig) -> int:
    points = find_flutter_points(cfg.op, cfg.window, cfg.flutter)
    _write_json(cfg.output_dir / "flutter_points.json", {
        "window": asdict(cfg.window), "points": [_flutter_point_record(f) for f in points]})
    print(f"{len(points)} flutter point(s) -> {cfg.output_dir / 'flutter_points.json'}")
    return EXIT_OK if points else EXIT_EMPTY


def cmd_pseudo(cfg: RunConfig) -> int:
    fld = compute_sigma_field(cfg.op, cfg.grid)

    us, ws = cfg.grid.u_values(), cfg.grid.w_values()
    lines = [FIELD_CSV_HEADER]
    for i, u in enumerate(us):
        for j, w in enumerate(ws):
            lines.append(",".join((_fmt(u), _fmt(w), _fmt(fld.values[i, j]))))
    _write_text(cfg.output_dir / "sigma_field.csv", lines)

    lines = [CONTOUR_CSV_HEADER]
    for eps in cfg.eps_list:
        contour = extract_contours(fld, eps)
        for pid, pl in enumerate(contour.polylines):
            for vid, (u, w) in enumerate(pl):
                lines.append(",".join((_fmt(eps), str(pid), str(vid), _fmt(u), _fmt(w))))
    _write_text(cfg.output_dir / "contours.csv", lines)

    try:
        flutter_points = find_flutter_points(cfg.op, cfg.window, cfg.flutter)
    except FlutterSpecError as exc:
        print(f"flutter search for near_flutter flags failed: {exc}", file=sys.stderr)
        flutter_points = []
    regions = find_borderline_regions(fld, cfg.threshold, flutter_points)
    _write_json(cfg.output_dir / "borderline.json", {
        "threshold": cfg.threshold,
        "flutter_points": [[fp.point.U, fp.point.chi_R] for fp in flutter_points],
        "regions": [{"center_U": r.center[0], "center_chi_R": r.center[1],
                     "min_sigma": r.min_sigma,
                     "extent": {"u_min": r.extent[0], "u_max": r.extent[1],
                                "chi_r_min": r.extent[2], "chi_r_max": r.extent[3]},
                     "near_flutter": r.near_flutter} for r in regions],
    })
    print(f"sigma field {fld.values.shape}, {len(cfg.eps_list)} eps level(s), "
          f"{len(regions)} borderline region(s) -> {cfg.output_dir}")
    return EXIT_OK


def _solve_seed(op: ParametricOperator, u: float, chi: complex) -> EigenPoint:
    """Eigenpoint at airspeed u, started from chi and its sigma_min vector.

    Raises ConvergenceError when the airspeed-fixed solve fails.
    """
    _, x = sigma_min(op, chi, u)
    guess = EigenPoint.from_vector(op, chi.real, chi.imag, u, x)
    return cont.solve_at_airspeed(op, u, guess)


def _resolve_trace_start(cfg: RunConfig, args) -> Optional[object]:
    if args.start_point is not None:
        u, wr, wi = (float(v) for v in args.start_point.split(","))
        return _solve_seed(cfg.op, u, complex(wr, wi))
    points = find_flutter_points(cfg.op, cfg.window, cfg.flutter)
    if not points:
        return None
    idx = args.start_index
    if not 0 <= idx < len(points):
        raise ValueError(f"start index {idx} out of range ({len(points)} flutter points)")
    return points[idx]


def cmd_trace(cfg: RunConfig, args) -> int:
    start = _resolve_trace_start(cfg, args)
    if start is None:
        print("no flutter point to start from", file=sys.stderr)
        return EXIT_EMPTY
    try:
        path = cont.trace_path(cfg.op, start, direction=cfg.direction, settings=cfg.continuation)
    except ConvergenceError as exc:
        print(f"first continuation step failed: {exc}", file=sys.stderr)
        return EXIT_FIRST_STEP
    _write_path(cfg.output_dir, "path", path, cfg.model)
    print(f"{len(path.points)} path point(s), terminated: {path.termination_reason} "
          f"-> {cfg.output_dir}")
    return EXIT_OK


def cmd_envelope(path_file: Path, zeta_max: float, out_dir: Path) -> int:
    mode_path, model_doc = read_path_file(path_file)
    op = build_model(model_doc) if model_doc else None
    crossings = cont.flight_envelope(mode_path, zeta_max, op=op)
    _write_json(out_dir / "envelope.json", {
        "zeta_max": zeta_max,
        "refined": op is not None,
        "crossings": [{"U_star": c.u_star, "side": c.side,
                       "bracket": list(c.bracket),
                       "zeta_check": (_zeta_of(c.point.chi_R, c.point.chi_I)
                                      if c.point is not None else None)}
                      for c in crossings],
    })
    print(f"{len(crossings)} crossing(s) -> {out_dir / 'envelope.json'}")
    return EXIT_OK if crossings else EXIT_EMPTY


def cmd_damping_plot(cfg: RunConfig) -> int:
    nat = cfg.natural
    for key in ("u_start", "u_end", "du", "seed_chi_r"):
        if key not in nat:
            raise ValueError(f"damping-plot requires config natural.{key}")
    u0 = float(nat["u_start"])
    chi = complex(float(nat["seed_chi_r"]), float(nat.get("seed_chi_i", 0.0)))
    try:
        seed = _solve_seed(cfg.op, u0, chi)
        path = cont.natural_continuation(cfg.op, u0, float(nat["u_end"]), float(nat["du"]), seed)
    except ConvergenceError as exc:
        print(f"seed solve failed: {exc}", file=sys.stderr)
        return EXIT_FIRST_STEP
    _write_path(cfg.output_dir, "damping_plot", path, cfg.model)
    print(f"{len(path.points)} point(s), terminated: {path.termination_reason} "
          f"-> {cfg.output_dir}")
    return EXIT_OK


# Flags of the config subcommands besides --config and --output-dir, with
# their argparse keywords.  A flag's dest names the RunConfig.from_dict
# override it sets; --start-index and --start-point are read by cmd_trace.
_FLAGS = {
    "--u-min": {"type": float},
    "--u-max": {"type": float},
    "--chi-r-min": {"type": float},
    "--chi-r-max": {"type": float},
    "--grid": {"type": int, "help": "grid count for both axes"},
    "--eps": {"type": str, "help": "comma-separated epsilon levels"},
    "--ds": {"type": float, "help": "arclength step (scaled units)"},
    "--direction": {"type": int, "choices": (-1, 1)},
    "--start-index": {"type": int, "default": 0, "help": "flutter point index (sorted by U)"},
    "--start-point": {"type": str, "help": "explicit start triple 'U,chi_R,chi_I'"},
}
_WINDOW_FLAGS = ("--u-min", "--u-max", "--chi-r-min", "--chi-r-max")
_COMMAND_FLAGS = {
    "flutter": _WINDOW_FLAGS,
    "pseudo": _WINDOW_FLAGS + ("--grid", "--eps"),
    "trace": _WINDOW_FLAGS + ("--ds", "--direction", "--start-index", "--start-point"),
    "damping-plot": (),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="flutterspec",
        description="Pseudospectral flutter analysis: fields, flutter points, "
                    "continuation paths and envelopes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, required=True, help="JSON run configuration")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--output-dir", type=Path)

    p_env = sub.add_parser("envelope")
    p_env.add_argument("path_file", type=Path, help="path CSV or JSON from trace/damping-plot")
    p_env.add_argument("--zeta-max", type=float, required=True)
    p_env.add_argument("--output-dir", type=Path, default=Path("out"))

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 after --help
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        if args.command == "envelope":
            return cmd_envelope(args.path_file, args.zeta_max, args.output_dir)
        cfg = RunConfig.load(args.config, vars(args))
        if args.command == "trace":
            return cmd_trace(cfg, args)
        return {"flutter": cmd_flutter, "pseudo": cmd_pseudo,
                "damping-plot": cmd_damping_plot}[args.command](cfg)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError,
            FlutterSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

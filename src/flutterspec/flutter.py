"""Flutter point location by the iterated contour-plot method.

Flutter points are real pairs (U, chi_R) with chi_I = 0 where A is
singular.  Candidates come from intersecting the Re(det) = 0 and
Im(det) = 0 contours of a determinant field, refined by shrinking the
window around each intersection; the bordered Newton the continuation
correctors share then polishes each candidate onto chi_I = 0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, NumericalError
from .operator import (RESIDUAL_TOL, EigenPoint, ParametricOperator, Window, _solve_bordered,
                       sigma_min)
from .pseudospectrum import ContourSet, Grid2D, compute_det_field, det_zero_contours

__all__ = [
    "FlutterSearchSettings",
    "FlutterPoint",
    "locate_candidates",
    "polish_flutter_point",
    "find_flutter_points",
]

logger = logging.getLogger(__name__)

# |chi_R| below this fraction of the window span marks a static
# (divergence) instability rather than flutter.
STATIC_CHI_R_FRACTION = 1e-6


@dataclass(frozen=True)
class FlutterSearchSettings:
    grid_count: int = 64
    refine_iters: int = 3
    tol: float = RESIDUAL_TOL
    max_iters: int = 50

    def __post_init__(self):
        if self.grid_count < 8:
            raise ValueError("grid_count must be >= 8")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be >= 1")
        if self.tol <= 0.0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters >= 1")


@dataclass(frozen=True)
class FlutterPoint:
    """A polished instability point; chi_I is stored as exactly zero."""

    point: EigenPoint
    window_history: Tuple[Window, ...] = ()
    iterations: int = 0
    static: bool = False


def _segment_arrays(contours: ContourSet) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of all segments, each (N, 2); the empty line keeps N = 0 stackable."""
    lines = [np.empty((0, 2)), *contours.polylines]
    return np.vstack([pl[:-1] for pl in lines]), np.vstack([pl[1:] for pl in lines])


def _polyline_intersections(re_set: ContourSet, im_set: ContourSet) -> List[Tuple[float, float]]:
    """Pairwise segment intersections between two contour families."""
    a1, a2 = _segment_arrays(re_set)
    b1, b2 = _segment_arrays(im_set)
    d1 = a2 - a1                                   # (N, 2)
    d2 = b2 - b1                                   # (M, 2)
    denom = d1[:, None, 0] * d2[None, :, 1] - d1[:, None, 1] * d2[None, :, 0]
    rel = b1[None, :, :] - a1[:, None, :]          # (N, M, 2)
    t_num = rel[:, :, 0] * d2[None, :, 1] - rel[:, :, 1] * d2[None, :, 0]
    s_num = rel[:, :, 0] * d1[:, None, 1] - rel[:, :, 1] * d1[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t_num / denom
        s = s_num / denom
    hit = (np.abs(denom) > 0.0) & (t >= 0.0) & (t <= 1.0) & (s >= 0.0) & (s <= 1.0)
    ii, jj = np.nonzero(hit)
    pts = a1[ii] + t[ii, jj, None] * d1[ii]
    return [(float(u), float(w)) for u, w in pts]


def _merge_points(points: List[Tuple[float, float, tuple]],
                  du: float, dw: float) -> List[Tuple[float, float, tuple]]:
    """Greedy clustering: points closer than one cell in both axes merge."""
    merged: List[List] = []
    for u, w, hist in points:
        for cluster in merged:
            if abs(cluster[0] - u) <= du and abs(cluster[1] - w) <= dw:
                n = cluster[3]
                cluster[0] = (cluster[0] * n + u) / (n + 1)
                cluster[1] = (cluster[1] * n + w) / (n + 1)
                cluster[3] = n + 1
                break
        else:
            merged.append([u, w, hist, 1])
    return [(c[0], c[1], c[2]) for c in merged]


def _shrunk_window(parent: Window, outer: Window, u: float, w: float) -> Window:
    """Quarter-span window centered on (u, w), clamped inside ``outer``."""
    su, sw = parent.u_span / 4.0, parent.chi_r_span / 4.0
    u_min = min(max(u - su / 2.0, outer.u_min), outer.u_max - su)
    w_min = min(max(w - sw / 2.0, outer.chi_r_min), outer.chi_r_max - sw)
    return Window(u_min, u_min + su, w_min, w_min + sw)


def _locate_with_history(op: ParametricOperator, window: Window, grid_count: int, refine_iters: int
                         ) -> Tuple[List[Tuple[float, float, Tuple[Window, ...]]], float, float]:
    """Merged candidates (U, chi_R, window history) of the last level and its grid cell."""
    active: List[Tuple[Window, Tuple[Window, ...]]] = [(window, (window,))]
    for level in range(refine_iters + 1):
        found = []
        cell_u = cell_w = 0.0
        for win, hist in active:
            grid = Grid2D.over_window(win, grid_count, grid_count, 0.0)
            fld = compute_det_field(op, grid)
            pts = _polyline_intersections(*det_zero_contours(fld))
            found.extend((u, w, hist) for u, w in pts)
            cell_u = max(cell_u, win.u_span / (grid_count - 1))
            cell_w = max(cell_w, win.chi_r_span / (grid_count - 1))
        found = _merge_points(found, cell_u, cell_w)
        if not found or level == refine_iters:
            return found, cell_u, cell_w
        next_active = []
        for u, w, hist in found:
            win = _shrunk_window(hist[-1], window, u, w)
            next_active.append((win, hist + (win,)))
        active = next_active


def locate_candidates(op: ParametricOperator, window: Window,
                      grid_count: int = FlutterSearchSettings.grid_count,
                      refine_iters: int = FlutterSearchSettings.refine_iters
                      ) -> List[Tuple[float, float]]:
    """Candidate (U, chi_R) pairs from iterated Re/Im det contour crossings.

    Each refinement shrinks a window around every candidate to a quarter
    span per side and recomputes the contours; candidates within one
    final-grid cell are merged.  No intersections is not an error.  Settings
    outside the ranges of :class:`FlutterSearchSettings`, or a window outside
    the operator window, raise ValueError before any evaluation.
    """
    FlutterSearchSettings(grid_count=grid_count, refine_iters=refine_iters)
    return [(u, w) for u, w, _ in _locate_with_history(op, window, grid_count, refine_iters)[0]]


def _real_chi_row(wr: float, wi: float, u: float):
    return wi, (0.0, 1.0, 0.0)


def polish_flutter_point(op: ParametricOperator, candidate: Tuple[float, float],
                         tol: float = FlutterSearchSettings.tol,
                         max_iters: int = FlutterSearchSettings.max_iters) -> FlutterPoint:
    """Bordered Newton on {A x = 0, c*x = 1, chi_I = 0} from a candidate (U, chi_R).

    The solver is the one the continuation correctors use, started from
    the minimum singular vector at the candidate; it converges when the
    unit-eigenvector residual and |chi_I| are both <= tol.  The result
    stores chi_I as exactly zero.  A singular Jacobian raises
    NumericalError; no convergence raises ConvergenceError with
    best = (U, chi_R, chi_I).  tol and max_iters outside the ranges of
    :class:`FlutterSearchSettings` raise ValueError before any evaluation.
    """
    FlutterSearchSettings(tol=tol, max_iters=max_iters)
    u, w = float(candidate[0]), float(candidate[1])
    if not op.window.contains(u, w):
        raise ValueError(f"candidate {candidate} outside operator window {op.window}")
    _, x0 = sigma_min(op, complex(w, 0.0), u)
    try:
        pt, iterations = _solve_bordered(op, (u, w, 0.0), x0, _real_chi_row, tol, max_iters)
    except ConvergenceError as exc:
        if isinstance(exc.__cause__, np.linalg.LinAlgError):
            raise NumericalError(
                f"{exc} polishing candidate (U={u}, chi_R={w}); refine the search window "
                f"(locate_candidates with more refine_iters) and retry") from exc
        raise
    return FlutterPoint(point=EigenPoint.from_vector(op, pt.chi_R, 0.0, pt.U, pt.x),
                        iterations=iterations)


def find_flutter_points(op: ParametricOperator, window: Optional[Window] = None,
                        settings: Optional[FlutterSearchSettings] = None) -> List[FlutterPoint]:
    """Locate candidates, polish each, and return points sorted by U.

    Failed polishes are logged (not silently dropped); if every candidate
    fails, the per-candidate errors are aggregated into one exception.
    Duplicate polished points within one final-grid cell are merged,
    keeping the smaller residual.  Points with |chi_R| below 1e-6 of the
    window span are flagged static (divergence).
    """
    window = window or op.window
    settings = settings or FlutterSearchSettings()
    candidates, cell_u, cell_w = _locate_with_history(op, window, settings.grid_count,
                                                      settings.refine_iters)

    points: List[FlutterPoint] = []
    failures: List[str] = []
    for u, w, hist in candidates:
        try:
            fp = polish_flutter_point(op, (u, w), tol=settings.tol, max_iters=settings.max_iters)
        except (ConvergenceError, NumericalError) as exc:
            failures.append(f"candidate (U={u:.6g}, chi_R={w:.6g}): {exc}")
            logger.warning("flutter polish failed for %s", failures[-1])
            continue
        static = abs(fp.point.chi_R) < STATIC_CHI_R_FRACTION * window.chi_r_span
        points.append(replace(fp, window_history=hist, static=static))

    if candidates and not points:
        raise ConvergenceError("all flutter candidates failed to polish:\n  "
                               + "\n  ".join(failures))

    points.sort(key=lambda p: p.point.residual)
    unique: List[FlutterPoint] = []
    for fp in points:
        if not any(abs(fp.point.U - q.point.U) <= cell_u
                   and abs(fp.point.chi_R - q.point.chi_R) <= cell_w for q in unique):
            unique.append(fp)
    unique.sort(key=lambda p: p.point.U)
    return unique

"""Flutter point location from the crossings of one determinant grid.

Flutter points are real pairs (U, chi_R) with chi_I = 0 where A is
singular.  Candidates are the crossings of the Re(det) = 0 and
Im(det) = 0 contours of a determinant field over the search window,
intersected cell by cell from their marching-squares segments without
chaining them into polylines.  The bordered Newton the continuation
correctors share polishes each candidate onto chi_I = 0; a candidate
whose polish fails or leaves the window is retried from the crossings of
a det grid in a shrunk window around it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, NumericalError
from .operator import (RESIDUAL_TOL, DampingParameterization, EigenPoint, ParametricOperator,
                       Window, _damping_row, _solve_bordered, sigma_min)
from .pseudospectrum import Grid2D, _det_zero_crossings, compute_det_field

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


def _shrunk_window(parent: Window, outer: Window, u: float, w: float) -> Window:
    """Quarter-span window centered on (u, w), clamped inside ``outer``."""
    su, sw = parent.u_span / 4.0, parent.chi_r_span / 4.0
    u_min = min(max(u - su / 2.0, outer.u_min), outer.u_max - su)
    w_min = min(max(w - sw / 2.0, outer.chi_r_min), outer.chi_r_max - sw)
    return Window(u_min, u_min + su, w_min, w_min + sw)


def locate_candidates(op: ParametricOperator, window: Window,
                      grid_count: int = FlutterSearchSettings.grid_count
                      ) -> List[Tuple[float, float]]:
    """Candidate (U, chi_R) pairs: the Re/Im det contour crossings of one det grid.

    The grid has ``grid_count`` nodes per side over ``window``.  No
    intersections is not an error.  A ``grid_count`` outside the range of
    :class:`FlutterSearchSettings`, or a window outside the operator window,
    raises ValueError before any evaluation.
    """
    FlutterSearchSettings(grid_count=grid_count)
    grid = Grid2D.over_window(window, grid_count, grid_count, 0.0)
    return _det_zero_crossings(compute_det_field(op, grid))


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
    real_chi = _damping_row(DampingParameterization.CHI_I, 0.0)
    try:
        pt, iterations = _solve_bordered(op, (u, w, 0.0), x0, real_chi, tol, max_iters)
    except ConvergenceError as exc:
        if isinstance(exc.__cause__, np.linalg.LinAlgError):
            raise NumericalError(
                f"{exc} polishing candidate (U={u}, chi_R={w}); refine the search (a larger "
                f"FlutterSearchSettings.grid_count or refine_iters) and retry") from exc
        raise
    return FlutterPoint(point=EigenPoint.from_vector(op, pt.chi_R, 0.0, pt.U, pt.x),
                        iterations=iterations)


def find_flutter_points(op: ParametricOperator, window: Optional[Window] = None,
                        settings: Optional[FlutterSearchSettings] = None) -> List[FlutterPoint]:
    """Polish each det-grid crossing in the window and return the points sorted by U.

    A candidate whose polish fails, or lands outside the window, is retried
    from the crossings of a det grid in a quarter-span window around it, at
    most ``refine_iters`` windows deep; ``window_history`` holds the windows
    a point's candidate came from.  A candidate that runs out of retries is
    logged (not silently dropped); if no candidate polishes, the errors of
    every attempt are aggregated into one exception.  Polished points within
    one cell of a ``refine_iters``-deep grid are duplicates; the one with the
    smaller residual is kept.  Points with |chi_R| below 1e-6 of the window
    span are flagged static (divergence).
    """
    window = window or op.window
    settings = settings or FlutterSearchSettings()
    pending = [(u, w, (window,)) for u, w in locate_candidates(op, window, settings.grid_count)]

    points: List[FlutterPoint] = []
    failures: List[str] = []
    for u, w, hist in pending:  # retries join the end of the list
        try:
            fp = polish_flutter_point(op, (u, w), tol=settings.tol, max_iters=settings.max_iters)
        except (ConvergenceError, NumericalError) as exc:
            error = str(exc)
        else:
            if window.contains(fp.point.U, fp.point.chi_R):
                static = abs(fp.point.chi_R) < STATIC_CHI_R_FRACTION * window.chi_r_span
                points.append(replace(fp, window_history=hist, static=static))
                continue
            error = (f"polished to (U={fp.point.U:.6g}, chi_R={fp.point.chi_R:.6g}) "
                     f"outside the search window")
        failures.append(f"candidate (U={u:.6g}, chi_R={w:.6g}): {error}")
        retries = []
        if len(hist) <= settings.refine_iters:
            sub = _shrunk_window(hist[-1], window, u, w)
            retries = [(cu, cw, hist + (sub,))
                       for cu, cw in locate_candidates(op, sub, settings.grid_count)]
        if not retries:
            logger.warning("flutter polish failed for %s", failures[-1])
        pending.extend(retries)

    if failures and not points:
        raise ConvergenceError("all flutter candidates failed to polish:\n  "
                               + "\n  ".join(failures))

    cell_u, cell_w = (span / 4.0 ** settings.refine_iters / (settings.grid_count - 1)
                      for span in (window.u_span, window.chi_r_span))
    points.sort(key=lambda p: p.point.residual)
    unique: List[FlutterPoint] = []
    for fp in points:
        if not any(abs(fp.point.U - q.point.U) <= cell_u
                   and abs(fp.point.chi_R - q.point.chi_R) <= cell_w for q in unique):
            unique.append(fp)
    unique.sort(key=lambda p: p.point.U)
    return unique

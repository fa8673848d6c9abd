"""Flutter point location from the zeros of one determinant grid.

Flutter points are real pairs (U, chi_R) with chi_I = 0 where A is
singular.  Candidates are the zeros of det A over the search window: one
per cell of a determinant field around which the phase of det winds (the
argument principle), placed where the cell's linear interpolant vanishes.
The bordered Newton the continuation correctors share polishes each
candidate onto chi_I = 0.  One rule retries a candidate whose polish fails,
leaves the window or lands on a point already found: from the zeros of a
det grid in a shrunk window around it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, NumericalError
from .operator import (RESIDUAL_TOL, DampingParameterization, EigenPoint, ParametricOperator,
                       Window, _check_count, _solve_bordered, sigma_min)
from .pseudospectrum import Grid2D, _det_zeros, compute_det_field

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
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, not {self.tol!r}")
        for name, least in {"grid_count": 8, "refine_iters": 1, "max_iters": 1}.items():
            _check_count(name, getattr(self, name), least)


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
    """Candidate (U, chi_R) pairs: the zeros of one det grid, one per winding cell.

    The grid has ``grid_count`` nodes per side over ``window``.  No
    zeros is not an error.  A ``grid_count`` outside the range of
    :class:`FlutterSearchSettings`, or a window outside the operator window,
    raises ValueError before any evaluation.
    """
    FlutterSearchSettings(grid_count=grid_count)
    grid = Grid2D.over_window(window, grid_count, grid_count, 0.0)
    return _det_zeros(compute_det_field(op, grid))


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
    real_chi = DampingParameterization.CHI_I.row(0.0)
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
    """Polish each det-grid zero in the window and return the points sorted by U.

    Polished points within one cell of a ``refine_iters``-deep grid are
    duplicates, and the first one kept stands.  A candidate whose polish
    fails, lands outside the window or lands on a point already kept is
    retried from the zeros of a det grid in a quarter-span window around
    it, at most ``refine_iters`` windows deep; ``window_history`` holds the
    windows a point's candidate came from.  Only a polish that raises is a
    failure, not a landing outside the window: a failure that runs out of
    retries is logged (not silently dropped), and failures with no point
    kept are aggregated into one ConvergenceError.  Points with |chi_R|
    below 1e-6 of the window span are flagged static (divergence).
    """
    window = window or op.window
    settings = settings or FlutterSearchSettings()
    cell_u, cell_w = (span / 4.0 ** settings.refine_iters / (settings.grid_count - 1)
                      for span in (window.u_span, window.chi_r_span))
    pending = [(u, w, (window,)) for u, w in locate_candidates(op, window, settings.grid_count)]

    points: List[FlutterPoint] = []
    failures: List[str] = []
    for u, w, hist in pending:  # retries join the end of the list
        error = None
        try:
            fp = polish_flutter_point(op, (u, w), tol=settings.tol, max_iters=settings.max_iters)
        except (ConvergenceError, NumericalError) as exc:
            error = str(exc)
        else:
            pu, pw = fp.point.U, fp.point.chi_R
            if window.contains(pu, pw) and not any(
                    abs(pu - q.point.U) <= cell_u and abs(pw - q.point.chi_R) <= cell_w
                    for q in points):
                static = abs(pw) < STATIC_CHI_R_FRACTION * window.chi_r_span
                points.append(replace(fp, window_history=hist, static=static))
                continue
        retries = []
        if len(hist) <= settings.refine_iters:
            sub = _shrunk_window(hist[-1], window, u, w)
            retries = [(cu, cw, hist + (sub,))
                       for cu, cw in locate_candidates(op, sub, settings.grid_count)]
        pending.extend(retries)
        if error is not None:  # an outside or duplicate landing is not a failure
            failures.append(f"candidate (U={u:.6g}, chi_R={w:.6g}): {error}")
            if not retries:
                logger.warning("flutter polish failed for %s", failures[-1])

    if failures and not points:
        raise ConvergenceError("all flutter candidates failed to polish:\n  "
                               + "\n  ".join(failures))
    points.sort(key=lambda p: p.point.U)
    return points

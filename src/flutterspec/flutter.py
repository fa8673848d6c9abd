"""Flutter point location from tracked eigenvalue rows.

Flutter points are real pairs (U, chi_R) with chi_I = 0 where A is
singular.  Every operator gets its candidates by one rule: the eigenvalues
chi of A(., U) at evenly spaced airspeeds (the rows), matched from row to
row, and a candidate where a branch's chi_I changes sign (the p-k view).
The rows have two sources.  A pencil with a U-free, well-conditioned leading
chi coefficient gives the eigenvalues of its companion.  Any other operator
gives those of a Chebyshev interpolant of A(., U) over the window's chi_R
range, linearized as a colleague pencil (Effenberger & Kressner, BIT 52,
2012).  The bordered Newton the continuation correctors share polishes each
candidate onto chi_I = 0.  One rule retries a candidate whose polish fails,
leaves the window or lands on a point already found: from the candidates in
a shrunk window around it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ConvergenceError, NumericalError
from .operator import (RESIDUAL_TOL, DampingParameterization, EigenPoint, ParametricOperator,
                       Pencil, Window, _check_count, _solve_bordered, evaluate_batch, sigma_min)

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

# A pencil whose leading chi coefficient depends on U or has a larger condition number has
# no companion: its rows come from the Chebyshev interpolant, as a plain callable's do.
LEAD_COND_MAX = 1e12

# The Chebyshev rows: the interpolant's degree is at most CHEB_DEGREE_CAP, and ends at the
# last coefficient above CHEB_TAIL of the largest; the colleague pencil is shift-inverted at
# CHEB_SHIFT (in x, where chi = c + h x maps [-1, 1] onto the chi_R range), and a shifted
# eigenvalue |mu| <= CHEB_INFINITE max |mu| is infinite.
CHEB_DEGREE_CAP = 16
CHEB_TAIL = 1e-13
CHEB_SHIFT = 0.37 + 1.13j
CHEB_INFINITE = 1e-14

# A branch that moves between two rows by more than this share of its distance to the
# nearest other eigenvalue of the next row, and by at least its distance to the real axis,
# has an ambiguous match near the axis: the row interval is halved, at most BISECT_DEPTH
# times.
MATCH_FRACTION = 0.5
BISECT_DEPTH = 6

# A row whose every |chi_I| is within this share of its largest |chi| is real, as U = 0 is
# for a real pencil, and is left out: the signs of its chi_I are rounding.
REAL_ROW_TOL = 1e-12


@dataclass(frozen=True)
class FlutterSearchSettings:
    """Flutter search settings.

    ``grid_count`` (>= 8) is the number of airspeed rows that give the candidates, for every
    operator (see :func:`locate_candidates`).  ``refine_iters`` (>= 1) bounds how deep the
    retry windows go and sets the size of the cell within which two points are one; ``tol``
    and ``max_iters`` are the polish's (see :func:`polish_flutter_point`).  ``tol`` lies in
    (0, RESIDUAL_TOL]: a looser polish keeps points that ``trace_path``'s start check refuses.
    """

    grid_count: int = 64
    refine_iters: int = 3
    tol: float = RESIDUAL_TOL
    max_iters: int = 50

    def __post_init__(self):
        if not 0.0 < self.tol <= RESIDUAL_TOL:
            raise ValueError(f"tol must be positive and finite, at most the trace gate "
                             f"operator.RESIDUAL_TOL = {RESIDUAL_TOL!r}, not {self.tol!r}")
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


def _monic_terms(pencil: Pencil) -> Optional[np.ndarray]:
    """The pencil in lambda = i chi, made monic: t[a, b] = L^-1 (-i)^a C_ab for a < m, where
    L = (-i)^m C_m0 is the leading chi coefficient, so A(chi, U) is singular exactly when
    lambda^m I + sum over a < m and b of lambda^a U^b t[a, b] is.  Real when every
    (-i)^a C_ab is real.  None when no term has a power of chi, or L depends on U or has a
    condition number above LEAD_COND_MAX."""
    exps = np.array(pencil.exps)
    m, k = exps.max(axis=0)
    c = np.zeros((m + 1, k + 1) + pencil.coeffs.shape[1:], dtype=complex)
    np.add.at(c, (exps[:, 0], exps[:, 1]),
              np.array([1, -1j, -1, 1j])[exps[:, 0] % 4, None, None] * pencil.coeffs)
    c = c if c.imag.any() else c.real
    if m == 0 or c[m, 1:].any() or not np.linalg.cond(c[m, 0]) <= LEAD_COND_MAX:
        return None
    return np.linalg.solve(c[m, 0], c[:m])


def _row_chis(terms: np.ndarray, us: np.ndarray) -> np.ndarray:
    """The eigenvalues chi of A(., U) at each airspeed of ``us``, (len(us), m n): one batched
    eigvals of the block companions of the monic ``terms`` (real when they are)."""
    m, n = terms.shape[0], terms.shape[-1]
    top = np.tensordot(us[:, None] ** np.arange(terms.shape[1]), terms, axes=(1, 1))
    comp = np.zeros((us.size, m * n, m * n), dtype=terms.dtype)
    comp[:, :-n, n:] = np.eye((m - 1) * n)
    comp[:, -n:] = -top.swapaxes(1, 2).reshape(us.size, n, m * n)
    return -1j * np.linalg.eigvals(comp)


def _colleague_eigvals(coeffs: np.ndarray) -> np.ndarray:
    """The eigenvalues x of sum_k T_k(x) C_k per row of ``coeffs`` (rows, d + 1, n, n), d >= 1.

    The colleague pencil x B - A on (T_0 y, ..., T_(d-1) y) takes x T_0 = T_1 and
    x T_k = (T_(k-1) + T_(k+1)) / 2 as its first block rows and the polynomial, with
    T_d = 2 x T_(d-1) - T_(d-2), as its last; one batched eigvals of (A - sigma B)^-1 B gives
    mu = 1 / (x - sigma) at sigma = CHEB_SHIFT.  An infinite eigenvalue (mu = 0 up to
    CHEB_INFINITE) is put at sigma: finite, with chi_I > 0 in every row.  A singular
    A - sigma B (det A(., U) vanishing for every chi, say) raises NumericalError.
    """
    rows, d, n = coeffs.shape[0], coeffs.shape[1] - 1, coeffs.shape[-1]
    recurrence = 0.5 * (np.eye(d * n, k=n) + np.eye(d * n, k=-n))
    recurrence[:n] *= 2.0
    a = np.repeat(recurrence[None].astype(complex), rows, axis=0)
    a[:, -n:] = -coeffs[:, :d].transpose(0, 2, 1, 3).reshape(rows, n, d * n)
    b = np.repeat(np.eye(d * n, dtype=complex)[None], rows, axis=0)
    b[:, -n:, -n:] = coeffs[:, d] * (2.0 if d > 1 else 1.0)
    if d > 1:
        a[:, -n:, -2 * n:-n] += coeffs[:, d]
    try:
        mu = np.linalg.eigvals(np.linalg.solve(a - CHEB_SHIFT * b, b))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Chebyshev eigenvalue rows: {exc}") from exc
    finite = np.abs(mu) > CHEB_INFINITE * np.abs(mu).max(axis=1, keepdims=True)
    return CHEB_SHIFT + np.divide(1.0, mu, out=np.zeros_like(mu), where=finite)


def _chebyshev_rows(op: ParametricOperator, window: Window
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """The row source of an operator without a companion: us -> the eigenvalues chi of the
    Chebyshev interpolant of A(., U) over the window's chi_R range, (len(us), d n).

    The coefficients of degree d come from A at the d + 1 first-kind Chebyshev points, times
    the cosine matrix.  d is picked once, from interpolants of degree CHEB_DEGREE_CAP at the
    window's first, middle and last airspeeds: the last coefficient whose norm is above
    CHEB_TAIL of its row's largest, and at least 1.
    """
    c, h = 0.5 * (window.chi_r_min + window.chi_r_max), 0.5 * window.chi_r_span

    def coeffs(us: np.ndarray, degree: int) -> np.ndarray:  # (len(us), degree + 1, n, n)
        theta = math.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
        values = evaluate_batch(op, c + h * np.cos(theta), us[:, None]).reshape(
            us.size, degree + 1, op.dim, op.dim)
        cosines = np.cos(np.outer(np.arange(degree + 1), theta)) * (2.0 / (degree + 1))
        cosines[0] *= 0.5
        return np.einsum("kj,rjab->rkab", cosines, values)

    norms = np.linalg.norm(coeffs(np.array([window.u_min, 0.5 * (window.u_min + window.u_max),
                                            window.u_max]), CHEB_DEGREE_CAP), axis=(2, 3))
    degree = max(1, int(np.nonzero(norms > CHEB_TAIL * norms.max(axis=1, keepdims=True))[1]
                        .max(initial=0)))
    return lambda us: c + h * _colleague_eigvals(coeffs(us, degree))


def _match(left: np.ndarray, right: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy nearest matching of the two rows of each interval, all intervals at once.

    Returns ``right`` reordered to follow the branches of ``left``, and per interval whether
    its match is ambiguous: some branch moved by more than MATCH_FRACTION of its distance to
    the nearest other eigenvalue of the next row, and by at least its distance to the real
    axis at one end.
    """
    size = left.shape[1]
    dist = np.abs(left[:, :, None] - right[:, None, :])
    perm = dist.argmin(axis=2)  # the greedy match wherever no two branches share a nearest
    ordered = np.sort(perm, axis=1)
    shared = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if shared.size:
        work, rows = dist[shared], np.arange(shared.size)
        for _ in range(size):  # the closest pair left, in every such interval at once
            i, j = np.divmod(work.reshape(shared.size, size * size).argmin(axis=1), size)
            perm[shared, i] = j
            work[rows, i] = np.inf
            work[rows, :, j] = np.inf
    matched = np.take_along_axis(right, perm, axis=1)
    move = np.take_along_axis(dist, perm[..., None], axis=2)[..., 0]
    np.put_along_axis(dist, perm[..., None], np.inf, axis=2)
    near = np.minimum(np.abs(left.imag), np.abs(matched.imag)) <= move
    return matched, np.any(near & (move > MATCH_FRACTION * dist.min(axis=2)), axis=1)


def _real_rows(chis: np.ndarray) -> np.ndarray:
    """Rows whose every eigenvalue is real to within REAL_ROW_TOL of the row's largest."""
    return np.all(np.abs(chis.imag) <= REAL_ROW_TOL * np.abs(chis).max(axis=1, keepdims=True),
                  axis=1)


def _eigenvalue_row_zeros(row_chis: Callable[[np.ndarray], np.ndarray], window: Window,
                          count: int) -> List[Tuple[float, float]]:
    """Where a tracked eigenvalue branch crosses chi_I = 0 with chi_R in ``window``, sorted by U.

    ``row_chis`` maps airspeeds to their rows of eigenvalues chi, (len(us), k).  ``count``
    airspeed rows span the window, and a row whose every eigenvalue is real is left out, so
    its neighbours bound one interval.  The rows of each interval are matched greedily, and
    an interval with an ambiguous match is halved, at most BISECT_DEPTH times, unless its
    midpoint is such a real row.  A branch crosses where chi_I > 0 holds at one end of an
    interval and not at the other (so a branch real at a row crosses once), at the linear
    interpolant's zero.
    """
    us = np.linspace(window.u_min, window.u_max, count)
    chis = row_chis(us)
    complex_rows = ~_real_rows(chis)
    us, chis = us[complex_rows], chis[complex_rows]
    u0, u1, c0, c1 = us[:-1], us[1:], chis[:-1], chis[1:]
    found_u, found_w = [], []
    for depth in range(BISECT_DEPTH + 1):
        c1, split = _match(c0, c1)
        split &= depth < BISECT_DEPTH
        if split.any():
            um = 0.5 * (u0[split] + u1[split])
            mid = row_chis(um)
            complex_rows = ~_real_rows(mid)  # a real midpoint leaves its interval whole
            split[split] = complex_rows
            um, mid = um[complex_rows], mid[complex_rows]
        y0, y1 = c0.imag, c1.imag
        k, i = np.nonzero(((y0 > 0.0) != (y1 > 0.0)) & ~split[:, None])
        t = y0[k, i] / (y0[k, i] - y1[k, i])
        w = c0.real[k, i] + t * (c1.real[k, i] - c0.real[k, i])
        inside = (window.chi_r_min <= w) & (w <= window.chi_r_max)
        found_u.append((u0[k] + t * (u1[k] - u0[k]))[inside])
        found_w.append(w[inside])
        if not split.any():
            break
        u0, u1 = np.concatenate([u0[split], um]), np.concatenate([um, u1[split]])
        c0, c1 = np.concatenate([c0[split], mid]), np.concatenate([mid, c1[split]])
    u, w = np.concatenate(found_u), np.concatenate(found_w)
    order = np.lexsort((w, u))
    return list(zip(u[order].tolist(), w[order].tolist()))


def locate_candidates(op: ParametricOperator, window: Window,
                      grid_count: int = FlutterSearchSettings.grid_count
                      ) -> List[Tuple[float, float]]:
    """Candidate (U, chi_R) pairs in ``window``: where an eigenvalue branch crosses chi_I = 0.

    The eigenvalues chi of A(., U) at ``grid_count`` airspeeds are tracked from row to row,
    and a candidate lies where a branch's chi_I changes sign (a row interval whose match is
    ambiguous near the real axis is bisected).  A :class:`Pencil` whose leading chi
    coefficient is U-free and well conditioned (see ``LEAD_COND_MAX``) gives the rows from
    its chi-companion; any other operator from the colleague pencil of a Chebyshev
    interpolant of A(., U) over the window's chi_R range, whose degree is picked once per
    call.  No candidate is not an error.  A ``grid_count`` outside the range of
    :class:`FlutterSearchSettings`, or a window outside the operator window, raises
    ValueError before any evaluation.
    """
    FlutterSearchSettings(grid_count=grid_count)
    op.window._admit(window)
    terms = _monic_terms(op.func) if isinstance(op.func, Pencil) else None
    row_chis = (_chebyshev_rows(op, window) if terms is None
                else lambda us: _row_chis(terms, us))
    return _eigenvalue_row_zeros(row_chis, window, grid_count)


def polish_flutter_point(op: ParametricOperator, candidate: Tuple[float, float],
                         tol: float = FlutterSearchSettings.tol,
                         max_iters: int = FlutterSearchSettings.max_iters) -> FlutterPoint:
    """Bordered Newton on {A x = 0, c*x = 1, chi_I = 0} from a candidate (U, chi_R).

    The solver is the one the continuation correctors use, started from
    the minimum singular vector at the candidate; it converges when the
    unit-eigenvector residual and |chi_I| are both <= tol.  The result
    stores chi_I as exactly zero.  No convergence (a singular Jacobian too)
    raises the solver's ConvergenceError, best = (U, chi_R, chi_I); an SVD
    breakdown raises NumericalError.  tol and max_iters outside the ranges of
    :class:`FlutterSearchSettings` raise ValueError before any evaluation.
    """
    FlutterSearchSettings(tol=tol, max_iters=max_iters)
    u, w = float(candidate[0]), float(candidate[1])
    if not op.window.contains(u, w):
        raise ValueError(f"candidate {candidate} outside operator window {op.window}")
    _, x0 = sigma_min(op, complex(w, 0.0), u)
    real_chi = DampingParameterization.CHI_I.row(0.0)
    pt, iterations = _solve_bordered(op, (u, w, 0.0), x0, real_chi, tol, max_iters)
    return FlutterPoint(point=EigenPoint.from_vector(op, pt.chi_R, 0.0, pt.U, pt.x),
                        iterations=iterations)


def find_flutter_points(op: ParametricOperator, window: Optional[Window] = None,
                        settings: Optional[FlutterSearchSettings] = None) -> List[FlutterPoint]:
    """Polish each candidate in the window and return the points sorted by U.

    The candidates come from :func:`locate_candidates`.  Polished points
    within one cell of a ``refine_iters``-deep grid are duplicates, and the
    first one kept stands.  A candidate whose polish fails, lands outside the
    window or lands on a point already kept is retried from the candidates in
    a quarter-span window around it, at most ``refine_iters`` windows deep;
    ``window_history`` holds the windows a point's candidate came from.  Only
    a polish that raises is a failure, not a landing outside the window: a
    failure that runs out of retries is logged (not silently dropped), and
    failures with no point kept are aggregated into one ConvergenceError.
    Points with |chi_R| below 1e-6 of the window span are flagged static
    (divergence).
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

"""Pseudo-arclength continuation of modal damping paths.

A path point is a solved eigentriple (chi_R, chi_I, U).  Pseudo-arclength
steps predict along the local tangent and correct back onto the solution
curve subject to the arclength constraint t.(p - p0) = ds; the constraint
is imposed either through a multiparameter eigenvalue corrector solved by
successive linear problems (the real arclength row eliminates one
increment; the 2x2 operator determinants of the remaining two-parameter
problem, each one outer product table gathered into a Hermitian basis and made
real, give one real eigenproblem of size n^2 per step, shift-inverted on 0) or
through a damped Newton solve of the bordered real system, which serves as
the cross-check oracle.  Natural continuation in airspeed and continuation on
a damping-parameter grid are provided as the classical reference methods; the
latter cannot pass damping turning points and says so when it stops.

All tangents and step lengths live in scaled coordinates
(U/u_scale, chi_R/chi_scale, chi_I/chi_scale) so that ds is dimensionless.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError, DegenerateTangentError, NumericalError
from .flutter import FlutterPoint
from .operator import (NEWTON_MAX_ITERS, RESIDUAL_TOL, DampingParameterization, EigenPoint,
                       ParametricOperator, RowFn, _check_count, _converged, _norm, _sigma_min_of,
                       _solve_bordered, _unit_phased, _zeta, evaluate, param_derivatives)

__all__ = [
    "Tangent",
    "ContinuationSettings",
    "ModePath",
    "EnvelopeCrossing",
    "DampingExtremum",
    "initial_tangent",
    "fd_tangent",
    "predictor",
    "corrector_slp",
    "corrector_newton",
    "trace_path",
    "natural_continuation",
    "damping_continuation",
    "solve_at_airspeed",
    "flight_envelope",
    "extremum_damping",
]

TURNING_POINT_REASON = "turning-point suspected"

# Accepted damping-continuation steps that jump farther than this in scaled
# coordinates are treated as branch jumps past a turning point.
DAMPING_JUMP_GUARD = 0.25

# Eigenvector change (after phase alignment) flagged as a mode switch.
MODE_SWITCH_NORM = 0.5

DEGENERATE_TANGENT_TOL = 1e-14  # initial_tangent: |det| <= this ||dA/dchi_R||_F^2 is singular

STEP_SHRINK = 0.5  # ds factor after a failed corrector solve
STEP_GROW = 1.3  # ds factor after a solve of <= 3 iterations, up to max_ds

Scale = Tuple[float, float]  # (u_scale, chi_scale)
Triple = Tuple[float, float, float]  # (U, chi_R, chi_I)


@dataclass(frozen=True)
class Tangent:
    """Unit tangent in scaled (U, chi_R, chi_I) coordinates."""

    du: float
    dchi_r: float
    dchi_i: float

    def array(self) -> np.ndarray:
        return np.array([self.du, self.dchi_r, self.dchi_i])

    def negated(self) -> "Tangent":
        return Tangent(-self.du, -self.dchi_r, -self.dchi_i)


@dataclass(frozen=True)
class ContinuationSettings:
    """Settings of :func:`trace_path` and the correctors.

    - ds (first step), min_ds, max_ds: arclengths in scaled, unitless coordinates.
    - max_steps, max_corrector_iters: counts; caps on accepted steps and corrector iterations.
    - scale: (u_scale in m/s, chi_scale in rad/s); None takes (max(|U|, 1), max(|chi_R|, 1))
      at the start point of :func:`trace_path`, or at ``base`` in a corrector called alone.
    - corrector: "slp" | "newton"; constraint_form: "eq2" (row with -ds) | "eq3" (increments).
    """

    ds: float = 0.05
    max_steps: int = 500
    max_corrector_iters: int = NEWTON_MAX_ITERS
    min_ds: float = 1e-6
    max_ds: float = 0.5
    scale: Optional[Scale] = None
    corrector: str = "slp"
    constraint_form: str = "eq2"

    def __post_init__(self):
        for name, least in {"max_steps": 0, "max_corrector_iters": 1}.items():
            _check_count(name, getattr(self, name), least)
        if not (0.0 < self.min_ds <= self.ds <= self.max_ds < math.inf):
            raise ValueError(f"need 0 < min_ds <= ds <= max_ds < inf, not min_ds={self.min_ds!r}, "
                             f"ds={self.ds!r}, max_ds={self.max_ds!r}")
        if self.scale is not None:
            scale = tuple(self.scale) if isinstance(self.scale, (tuple, list, np.ndarray)) else ()
            if not (len(scale) == 2 and all(0.0 < v < math.inf for v in scale)):
                raise ValueError(f"scale must be None or two finite positive numbers: {self.scale}")
            object.__setattr__(self, "scale", scale)
        if self.corrector not in ("slp", "newton"):
            raise ValueError("corrector must be 'slp' or 'newton'")
        if self.constraint_form not in ("eq2", "eq3"):
            raise ValueError("constraint_form must be 'eq2' or 'eq3'")


@dataclass
class ModePath:
    """Ordered eigentriples with cumulative arclength bookkeeping."""

    points: List[EigenPoint]
    s: List[float]
    origin: Union[FlutterPoint, EigenPoint, str]  # trace_path's start, or a tag ("natural")
    direction: int = 1
    scale: Scale = (1.0, 1.0)
    termination_reason: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def zetas(self) -> np.ndarray:
        return _zeta([p.chi for p in self.points])


@dataclass(frozen=True)
class EnvelopeCrossing:
    """A zeta = zeta_max crossing along a path."""

    zeta_max: float
    u_star: float
    bracket: Tuple[int, int]
    side: str                      # "subcritical" | "supercritical"
    point: Optional[EigenPoint] = None


@dataclass(frozen=True)
class DampingExtremum:
    point: EigenPoint
    zeta: float
    on_boundary: bool


def _scaled_step(a: EigenPoint, b: EigenPoint, scale: Scale) -> np.ndarray:
    """b - a in scaled coordinates (U/u_scale, chi_R/chi_scale, chi_I/chi_scale)."""
    us, cs = scale
    return np.array([b.U / us - a.U / us, b.chi_R / cs - a.chi_R / cs, b.chi_I / cs - a.chi_I / cs])


def _mode_jumped(x_ref: np.ndarray, x: np.ndarray) -> bool:
    """True when x, phase-aligned to x_ref, lies farther than MODE_SWITCH_NORM from it."""
    v = np.vdot(x_ref, x)
    aligned = x * np.exp(-1j * np.arctan2(v.imag, v.real))  # np.angle(v) without its checks
    return _norm(aligned - x_ref) > MODE_SWITCH_NORM


def _resolve_scale(scale: Optional[Scale], p: EigenPoint) -> Scale:
    """``scale``, or by default (max(|U|, 1), max(|chi_R|, 1)) at p."""
    return scale if scale is not None else (max(abs(p.U), 1.0), max(abs(p.chi_R), 1.0))


def _direction(value, name: str = "direction") -> int:
    """``value`` if it is the int -1 or 1 (a bool or a float is not), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or abs(value) != 1:
        raise ValueError(f"{name} must be -1 or 1, not {value!r}")
    return int(value)


def _arclength_row(base: EigenPoint, t: Tangent, ds: float, scale: Scale) -> RowFn:
    tu, tr, ti = t.du, t.dchi_r, t.dchi_i
    us, cs = scale

    def row(wr, wi, u):
        value = (tu * (u - base.U) / us + tr * (wr - base.chi_R) / cs
                 + ti * (wi - base.chi_I) / cs - ds)
        return value, (tr / cs, ti / cs, tu / us)

    return row


def solve_at_airspeed(op: ParametricOperator, U: float, seed: EigenPoint) -> EigenPoint:
    """Solve the eigentriple at a fixed airspeed, seeded by a nearby point."""

    def row(wr, wi, u):
        return u - U, (0.0, 0.0, 1.0)

    return _solve_bordered(op, (U, seed.chi_R, seed.chi_I), seed.x, row)[0]


def fd_tangent(prev: EigenPoint, curr: EigenPoint, scale: Scale) -> Tangent:
    """Normalized scaled secant from prev to curr."""
    delta = _scaled_step(prev, curr, scale)
    nrm = _norm(delta)
    if nrm == 0.0:
        raise DegenerateTangentError("tangent requested between coincident points")
    return Tangent(*(delta / nrm).tolist())


def initial_tangent(op: ParametricOperator, fp: Union[FlutterPoint, EigenPoint],
                    scale: Optional[Scale] = None) -> Tangent:
    """First-step tangent dchi/dU from one SVD at the start point (Tisseur, LAA 309, 2000):
    Re/Im (a_R dchi_R + a_I dchi_I) = -Re/Im b for a_R, a_I, b = y^H A' x, y and x the
    singular vectors of sigma_min and A' = dA/dchi_R, dA/dchi_I, dA/dU (dchi/dU = -b / a_R
    for A holomorphic in chi).  Singular to rounding relative to ||dA/dchi_R||^2 (a defective
    or multiple eigenvalue), it is a DegenerateTangentError.  Scaled, normalized and signed
    dchi_i > 0, it heads into the stable side; callers negate for the supercritical one.
    """
    point = fp.point if isinstance(fp, FlutterPoint) else fp
    scale = _resolve_scale(scale, point)
    _, x, y = _sigma_min_of(op, evaluate(op, point.chi, point.U), point.chi, point.U)
    d_r, d_i, d_u = param_derivatives(op, point.chi_R, point.chi_I, point.U)
    a_r, a_i, b = (np.vdot(y, d @ x) for d in (d_r, d_i, d_u))
    det = (a_r.conjugate() * a_i).imag  # of [[Re a_R, Re a_I], [Im a_R, Im a_I]]; Cramer's rule
    if not abs(det) > DEGENERATE_TANGENT_TOL * np.linalg.norm(d_r) ** 2:
        raise DegenerateTangentError(f"non-simple eigenvalue at U={point.U}, chi={point.chi}")
    dchi = complex(-(b.conjugate() * a_i).imag, -(a_r.conjugate() * b).imag) / det
    raw = np.array([1.0 / scale[0], dchi.real / scale[1], dchi.imag / scale[1]])
    raw /= _norm(raw)
    if raw[2] < 0.0 or (raw[2] == 0.0 and raw[0] < 0.0):
        raw = -raw
    return Tangent(*raw.tolist())


def predictor(base: EigenPoint, t: Tangent, ds: float, scale: Scale) -> Triple:
    """Step ds along the tangent in scaled coordinates; physical units out."""
    return (base.U + ds * t.du * scale[0],
            base.chi_R + ds * t.dchi_r * scale[1],
            base.chi_I + ds * t.dchi_i * scale[1])


@functools.cache
def _hermitian_index(n: int) -> np.ndarray:
    """Shared and read-only (n^2, n^2) flat indices into the table T[(i, k), (j, l)] =
    p_ik conj(q_jl) that gather G = p (x) conj(q), its rows and columns both in the order
    e_ii, then e_ij and e_ji for i < j (e_ij = e_i (x) e_j)."""
    i, j = np.triu_indices(n, 1)
    r, c = np.concatenate([np.arange(n), i, j]), np.concatenate([np.arange(n), j, i])
    index = (r[:, None] * n + r) * (n * n) + c[:, None] * n + c
    index.flags.writeable = False
    return index


def _real_forms(tops: np.ndarray) -> np.ndarray:
    """The real (3, n^2, n^2) forms U^H (i Delta) U of the 2x2 operator determinants.

    For tops = (B_a, B_b, -B_0) of (B_0 + eta_a B_a + eta_b B_b) x = 0 paired with
    its elementwise conjugate, Delta(p, q) = p (x) conj(q) - q (x) conj(p) gives
    Delta_0 = Delta(B_a, B_b) and, by Cramer's rule, Delta_a = Delta(-B_0, B_b) and
    Delta_b = Delta(B_a, -B_0).  The Hermitian basis U (columns e_ii, then
    (e_ij + e_ji)/sqrt2, then i(e_ij - e_ji)/sqrt2) has conj(U) = P U for the swap P
    of the tensor factors, and q (x) conj(p) = P conj(G) P for G = p (x) conj(q), so
    U^H (i Delta) U = -2 Im(U^H G U): one outer product table per determinant, gathered
    once into G (:func:`_hermitian_index`), then its column and its row slices combined,
    in O(n^4).  The pencils keep their eigenvalues.
    """
    n = tops.shape[1]
    nn, h = n * n, math.sqrt(0.5)
    d, s, t = slice(n), slice(n, (nn + n) // 2), slice((nn + n) // 2, nn)  # ii, ij, ji
    p, q = tops[[0, 2, 0]], tops[[1, 1, 2]]
    g = np.take((p.reshape(3, nn, 1) * q.conj().reshape(3, 1, nn)).reshape(3, -1),
                _hermitian_index(n), axis=1)
    a, b = g[:, :, s], g[:, :, t]
    gu = np.concatenate([g[:, :, d], h * (a + b), 1j * h * (a - b)], axis=2)
    # -2 Im of the rows e_ii, (e_ij + e_ji)/sqrt2 and -i(e_ij - e_ji)/sqrt2 of U^H
    a, b = gu[:, s], gu[:, t]
    return np.concatenate([-2.0 * gu[:, d].imag, -2.0 * h * (a + b).imag,
                           2.0 * h * (a - b).real], axis=1)


def _slp_increment(a0: np.ndarray, v1: np.ndarray, v2: np.ndarray, v3: np.ndarray,
                   t: Tangent, r: float) -> Tuple[np.ndarray, float]:
    """Real increment triple of smallest norm for one SLP linear problem.

    Solves (a0 + eta_1 v1 + eta_2 v2 + eta_3 v3) x = 0 together with the
    scalar row t_r eta_1 + t_i eta_2 + t_u eta_3 = r for real eta.  The row
    eliminates eta_k for the largest |t_k|, which leaves the two-parameter
    problem (B_0 + eta_a B_a + eta_b B_b) x = 0 with
    B_j = v_j - (t_j / t_k) v_k and B_0 = a0 + (r / t_k) v_k.  Its 2x2
    operator determinants turn it into the generalized eigenproblem
    Delta_a z = eta_a Delta_0 z.  Its real form (one gathered product table per
    determinant in the Hermitian basis, :func:`_real_forms`), shift-inverted on
    the target 0, is the standard eigenproblem (R_a^-1 R_0) z = mu z of size n^2
    with eta_a = 1/mu (mu = 0 is dropped as infinite; an exactly singular R_a is
    a ConvergenceError).  eta_b is the Rayleigh quotient of Delta_b on
    every eigenvector in one product, and eta_k follows from the row.
    Returns (eta, |eta|).
    """
    ts = (t.dchi_r, t.dchi_i, t.du)
    vs = (v1, v2, v3)
    k = int(np.argmax(np.abs(ts)))
    if ts[k] == 0.0:
        raise ConvergenceError("no real increment triple found (zero tangent)")
    a, b = (j for j in range(3) if j != k)
    tops = np.empty((3,) + a0.shape, dtype=complex)
    tops[0], tops[1] = vs[a] - (ts[a] / ts[k]) * vs[k], vs[b] - (ts[b] / ts[k]) * vs[k]
    tops[2] = -(a0 + (r / ts[k]) * vs[k])
    r0, ra, rb = _real_forms(tops)
    try:
        mu, z = np.linalg.eig(np.linalg.solve(ra, r0))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Delta-matrix eigenproblem failed: {exc}") from exc

    eta = np.empty((3, mu.size), dtype=complex)
    with np.errstate(all="ignore"):
        d0z = r0 @ z
        eta[a] = 1.0 / mu
        eta[b] = (d0z.conj() * (rb @ z)).sum(axis=0) / (d0z.conj() * d0z).sum(axis=0)
        eta[k] = (r - ts[a] * eta[a] - ts[b] * eta[b]) / ts[k]
        re = eta.real
        real = (np.isfinite(eta).all(axis=0)
                & (np.abs(eta.imag).max(axis=0) <= 1e-6 * (1.0 + np.abs(re).max(axis=0))))
        norms = np.where(real, np.linalg.norm(re, axis=0), np.inf)
    if not real.any():
        raise ConvergenceError("no real increment triple found (Delta_0 may be singular)")
    candidate = re[:, np.argmin(norms)]
    return candidate, _norm(candidate)


def corrector_slp(op: ParametricOperator, guess: Triple, base: EigenPoint, t: Tangent, ds: float,
                  settings: Optional[ContinuationSettings] = None) -> Tuple[EigenPoint, int]:
    """Correct a predictor guess by successive linear problems; returns (point, iterations).

    Each iteration linearizes A in (chi_R, chi_I, U), pairs the linearized
    equation with its elementwise conjugate acting on the conjugate
    eigenvector (which forces real increments), and appends the scalar
    pseudo-arclength row (t.dp - r)y = 0.  The row eliminates one increment,
    and the 2x2 operator determinants of the remaining two-parameter
    problem give a generalized eigenproblem on n^2 x n^2 matrices, solved
    shift-inverted on the target 0 in the Hermitian basis where each
    determinant is real and comes from one gathered product table
    (:func:`_slp_increment`); the real increment triple of smallest scaled
    norm is applied and the eigenvector is refreshed as the minimum
    singular vector of the updated operator.

    With constraint_form "eq2" the scalar residual r is recomputed every
    iteration from absolute coordinates (the -ds form); "eq3" keeps the
    increment-only form r = 0, exact when the predictor already satisfies
    the constraint.  The scale is taken as :class:`ContinuationSettings` says.

    Each iteration starts at the one gate, :func:`_converged` on sigma_min
    (the residual the point keeps) and the row; a rounding-level increment
    (<= 1e-2 RESIDUAL_TOL) gets one more check, even past the cap, or stalls.
    """
    settings = settings or ContinuationSettings()
    scale = _resolve_scale(settings.scale, base)
    u, wr, wi = float(guess[0]), float(guess[1]), float(guess[2])
    us, cs = scale
    constraint = _arclength_row(base, t, ds, scale)
    stalled, iteration = False, 0
    while iteration < settings.max_corrector_iters or stalled:
        chi = complex(wr, wi)
        a0 = evaluate(op, chi, u)
        sig, x, _ = _sigma_min_of(op, a0, chi, u)
        g, _ = constraint(wr, wi, u)
        if _converged(sig, g):
            return EigenPoint(float(wr), float(wi), float(u), _unit_phased(x), sig), iteration
        if stalled:
            raise ConvergenceError(f"SLP stalled at U={u} (sigma={sig:.3e}, |g|={abs(g):.3e})",
                                   iterations=iteration - 1)

        d_r, d_i, d_u = param_derivatives(op, wr, wi, u)
        r = -g if settings.constraint_form == "eq2" else 0.0
        try:
            candidate, candidate_norm = _slp_increment(a0, cs * d_r, cs * d_i, us * d_u, t, r)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} at U={u}", iterations=iteration) from exc

        c_r, c_i, c_u = candidate.tolist()  # Python floats: the next iteration's scalar work
        wr, wi, u = wr + cs * c_r, wi + cs * c_i, u + us * c_u
        stalled = candidate_norm <= 1e-2 * RESIDUAL_TOL
        iteration += 1

    raise ConvergenceError(f"SLP corrector did not converge in "
                           f"{settings.max_corrector_iters} iterations",
                           iterations=settings.max_corrector_iters)


def corrector_newton(op: ParametricOperator, guess: Triple, base: EigenPoint, t: Tangent,
                     ds: float, settings: Optional[ContinuationSettings] = None
                     ) -> Tuple[EigenPoint, int]:
    """Correct a predictor guess by the bordered Newton solve with the arclength row;
    returns (point, iterations).  The scale is as in :func:`corrector_slp`."""
    settings = settings or ContinuationSettings()
    row = _arclength_row(base, t, ds, _resolve_scale(settings.scale, base))
    return _solve_bordered(op, guess, base.x, row, max_iters=settings.max_corrector_iters)


# Bound at import: wrappers later set on the names (bench/tracing.py) leave these calls alone.
_CORRECTORS = {"slp": corrector_slp, "newton": corrector_newton}


def trace_path(op: ParametricOperator, start: Union[FlutterPoint, EigenPoint],
               direction: int = 1,
               settings: Optional[ContinuationSettings] = None) -> ModePath:
    """Trace a modal damping path outward from a solved start point.

    Repeats tangent -> predictor -> corrector with step adaptation: a
    corrector failure shrinks ds (permanent failure below min_ds), fast
    convergence grows it up to max_ds.  Terminates on max_steps, window
    exit or min_ds exhaustion, recording the reason.  ``direction`` is -1 or +1.
    """
    settings = settings or ContinuationSettings()
    point = start.point if isinstance(start, FlutterPoint) else start
    if not _converged(point.residual):
        raise ValueError(f"start point residual {point.residual:.3e} exceeds {RESIDUAL_TOL:.1e}")
    direction = _direction(direction)
    scale = _resolve_scale(settings.scale, point)
    settings = replace(settings, scale=scale)  # the correctors step on the start point's scale
    correct = _CORRECTORS[settings.corrector]

    path = ModePath(points=[point], s=[0.0], origin=start, direction=direction, scale=scale)
    tangent = initial_tangent(op, point, scale=scale)
    if path.direction < 0:
        tangent = tangent.negated()

    ds = settings.ds
    for _ in range(settings.max_steps):
        base = path.points[-1]
        accepted = None
        while accepted is None and ds >= settings.min_ds:
            guess = predictor(base, tangent, ds, scale)
            try:
                accepted, iters = correct(op, guess, base, tangent, ds, settings)
            except (ConvergenceError, NumericalError):
                ds *= STEP_SHRINK
        if accepted is None:
            if len(path.points) == 1:
                raise ConvergenceError("first continuation step failed at every ds "
                                       f">= min_ds={settings.min_ds}")
            path.termination_reason = "min-ds-exhausted"
            return path

        if _mode_jumped(base.x, accepted.x):
            path.notes.append(f"mode switch suspected at step {len(path.points)}")

        path.points.append(accepted)
        path.s.append(path.s[-1] + ds)
        if not op.window.contains(accepted.U, accepted.chi_R):
            path.termination_reason = "window-exit"
            return path
        tangent = fd_tangent(base, accepted, scale)
        if iters <= 3:
            ds = min(ds * STEP_GROW, settings.max_ds)

    path.termination_reason = "max-steps"
    return path


def natural_continuation(op: ParametricOperator, U_start: float, U_end: float, dU: float,
                         seed: EigenPoint) -> ModePath:
    """March airspeed on a fixed grid, solving (chi_R, chi_I) at each U.

    The classical modal damping plot; the reference method for the
    pseudo-arclength tracer.  No step adaptation: a failed step terminates
    the path with the reason recorded.
    """
    if not (math.isfinite(U_start) and math.isfinite(U_end) and 0.0 < dU < math.inf):
        raise ValueError(f"U_start and U_end must be finite and dU must be positive and finite, "
                         f"not {U_start}, {U_end}, {dU}")
    if abs(seed.U - U_start) > 1e-9 * max(1.0, abs(U_start)):
        raise ValueError(f"seed is converged at U={seed.U}, not at U_start={U_start}")
    scale = _resolve_scale(None, seed)
    sign = 1.0 if U_end >= U_start else -1.0
    targets = []
    k = 1
    while abs((U_start + sign * k * dU) - U_start) < abs(U_end - U_start):
        targets.append(U_start + sign * k * dU)
        k += 1
    if U_end != U_start:
        targets.append(U_end)

    path = ModePath(points=[seed], s=[0.0], origin="natural",
                    direction=+1 if sign > 0 else -1, scale=scale)
    for u in targets:
        prev = path.points[-1]
        try:
            nxt = solve_at_airspeed(op, u, prev)
        except ConvergenceError as exc:
            path.termination_reason = f"non-convergence at U={u:.6g}: {exc}"
            return path
        step = _norm(_scaled_step(prev, nxt, scale))
        path.points.append(nxt)
        path.s.append(path.s[-1] + step)
    path.termination_reason = "completed"
    return path


def damping_continuation(op: ParametricOperator, d_values: Sequence[float],
                         p: DampingParameterization, seed: EigenPoint) -> ModePath:
    """Solve (chi_R, U) on a grid of damping values; stops at turning points.

    Fixing the damping parameter restricts each solve to the fixed-d slice;
    past a damping turning point no nearby solution exists, so the step
    either fails to converge or jumps branches, and the path terminates
    with reason "turning-point suspected".  Every level is checked (see
    :class:`DampingParameterization`) before the first solve.
    """
    d_values = [float(d) for d in d_values]
    if not d_values:
        raise ValueError("d_values must be nonempty")
    rows = [p.row(d) for d in d_values]
    diffs = np.diff(d_values)
    if diffs.size and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("d_values must be monotone")
    d_seed = p.level(seed.chi)
    if abs(d_seed - d_values[0]) > 1e-6 * (1.0 + abs(d_seed)):
        raise ValueError(f"seed damping {d_seed} does not match d_values[0] = {d_values[0]}")
    scale = _resolve_scale(None, seed)

    path = ModePath(points=[seed], s=[0.0], origin="natural",
                    direction=+1 if (diffs.size == 0 or diffs[0] > 0) else -1, scale=scale)
    for row in rows[1:]:
        prev = path.points[-1]
        try:
            nxt, _ = _solve_bordered(op, (prev.U, prev.chi_R, prev.chi_I), prev.x, row)
        except ConvergenceError:
            path.termination_reason = TURNING_POINT_REASON
            return path
        jump = _norm(_scaled_step(prev, nxt, scale))
        if jump > DAMPING_JUMP_GUARD:
            path.termination_reason = TURNING_POINT_REASON
            return path
        path.points.append(nxt)
        path.s.append(path.s[-1] + jump)
    path.termination_reason = "completed"
    return path


def _interp_triple(path: ModePath, k: int, s_star: float) -> Triple:
    p0, p1 = path.points[k], path.points[k + 1]
    s0, s1 = path.s[k], path.s[k + 1]
    f = (s_star - s0) / (s1 - s0)
    return (p0.U + f * (p1.U - p0.U), p0.chi_R + f * (p1.chi_R - p0.chi_R),
            p0.chi_I + f * (p1.chi_I - p0.chi_I))


def _side(path: ModePath, zetas: np.ndarray, lo: int, hi: int) -> str:
    """Envelope side from the dzeta/dU slope between path points lo and hi."""
    du = path.points[hi].U - path.points[lo].U
    slope = (zetas[hi] - zetas[lo]) / du if du != 0.0 else 0.0
    return "subcritical" if slope < 0.0 else "supercritical"


def flight_envelope(path: ModePath, zeta_max: float,
                    op: Optional[ParametricOperator] = None) -> List[EnvelopeCrossing]:
    """All zeta = zeta_max crossings along a path.

    Each sign change of (zeta - zeta_max) is located by piecewise-linear
    interpolation in arclength; when the operator is supplied the crossing
    is refined by one bordered corrector solve with the ZETA damping row
    replacing the arclength row (so the reported U_star re-evaluates to
    zeta_max at solver accuracy).  That row vanishes at zeta = zeta_max only
    where chi_R > 0, so a crossing whose interpolated guess has chi_R <= 0
    stays unrefined (point None).  Sides follow the local dzeta/dU sign:
    negative slope means damping is deteriorating with airspeed, the
    subcritical approach to instability.  A zeta_max that is not finite or
    lies outside (-1, 1) raises ValueError.
    """
    row = DampingParameterization.ZETA.row(zeta_max)
    zetas = path.zetas()
    crossings: List[EnvelopeCrossing] = []
    last = len(zetas) - 1
    for k in range(last + 1):
        z0 = zetas[k] - zeta_max
        if z0 == 0.0:
            # a path point exactly on the level is itself the crossing
            lo, hi = max(k - 1, 0), min(k + 1, last)
            crossings.append(EnvelopeCrossing(float(zeta_max), float(path.points[k].U), (lo, hi),
                                              _side(path, zetas, lo, hi), path.points[k]))
        if k == last:
            break
        z1 = zetas[k + 1] - zeta_max
        if not (np.isfinite(z0) and np.isfinite(z1)) or z0 * z1 >= 0.0:
            continue
        frac = z0 / (z0 - z1)
        s_star = path.s[k] + frac * (path.s[k + 1] - path.s[k])
        guess = _interp_triple(path, k, s_star)
        point = None
        u_star = guess[0]
        if op is not None and guess[1] > 0.0:
            point, _ = _solve_bordered(op, guess, path.points[k].x, row)
            u_star = point.U
        crossings.append(EnvelopeCrossing(float(zeta_max), float(u_star), (k, k + 1),
                                          _side(path, zetas, k, k + 1), point))
    return crossings


def extremum_damping(path: ModePath, op: Optional[ParametricOperator] = None) -> DampingExtremum:
    """Interior extremum of zeta along a path.

    Located by a quadratic fit in arclength over the bracketing triple and
    refined by one arclength-constrained corrector solve.  When several
    interior extrema exist, the one closest to the stability boundary
    (smallest |zeta|) is reported: that is the near-restabilization
    feature borderline-zone analysis is after.  A monotone path reports
    the endpoint with the larger |zeta|, flagged on_boundary, unrefined.
    """
    if len(path.points) < 3:
        raise ValueError("extremum search needs a path with >= 3 points")
    z = path.zetas()
    interior = [k for k in range(1, len(z) - 1)
                if (z[k] - z[k - 1]) * (z[k + 1] - z[k]) <= 0.0]
    if not interior:
        k = 0 if abs(z[0]) >= abs(z[-1]) else len(z) - 1
        return DampingExtremum(path.points[k], float(z[k]), True)

    k = min(interior, key=lambda i: abs(z[i]))
    s0, s1, s2 = path.s[k - 1], path.s[k], path.s[k + 1]
    z0, z1, z2 = z[k - 1], z[k], z[k + 1]
    denom = (z0 * (s1 - s2) + z1 * (s2 - s0) + z2 * (s0 - s1))
    if denom == 0.0:
        s_star = s1
    else:
        s_star = ((z0 * (s1 * s1 - s2 * s2) + z1 * (s2 * s2 - s0 * s0)
                   + z2 * (s0 * s0 - s1 * s1)) / (2.0 * denom))
    s_star = min(max(s_star, s0), s2)

    seg = k - 1 if s_star <= s1 else k
    guess = _interp_triple(path, seg, s_star)
    point = path.points[k]
    if op is not None:
        t = fd_tangent(path.points[k - 1], path.points[k + 1], path.scale)
        row = _arclength_row(path.points[k], t, s_star - s1, path.scale)
        point, _ = _solve_bordered(op, guess, path.points[k].x, row)
    return DampingExtremum(point, float(_zeta(point.chi)), False)

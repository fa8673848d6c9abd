"""Parametric operator abstraction and modal damping parameterizations.

An operator is a matrix-valued function A(chi, U) of a complex modal
frequency chi = chi_R + i*chi_I (rad/s, convention x(t) = x0*exp(i*chi*t),
so chi_I > 0 means decay) and a real airspeed U (m/s).  Everything
downstream (pseudospectrum fields, flutter location, continuation) is
built on the operations here: evaluation, residual norms, minimum
singular values, parameter derivatives, the bordered Newton and the
damping-level rows that pick its point.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, NumericalError

__all__ = [
    "Window",
    "DampingParameterization",
    "ParametricOperator",
    "Pencil",
    "EigenPoint",
    "polynomial_pencil",
    "evaluate",
    "evaluate_batch",
    "residual_norm",
    "sigma_min",
    "param_derivatives",
    "damping_to_complex",
    "complex_to_damping",
]

UNIT_NORM_TOL = 1e-12

# The one residual gate (see _converged) and the corrector iteration cap.
RESIDUAL_TOL = 1e-10
NEWTON_MAX_ITERS = 25

# Base step of the central differences taken for operators without derivs.
FD_STEP = 1e-6


@dataclass(frozen=True)
class Window:
    """Admissible rectangle in the (U, chi_R) plane."""

    u_min: float
    u_max: float
    chi_r_min: float
    chi_r_max: float

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.chi_r_min < self.chi_r_max):
            raise ValueError(f"degenerate window {self}")
        if not all(math.isfinite(v) for v in (self.u_min, self.u_max, self.chi_r_min, self.chi_r_max)):
            raise ValueError("window bounds must be finite")

    @property
    def u_span(self) -> float:
        return self.u_max - self.u_min

    @property
    def chi_r_span(self) -> float:
        return self.chi_r_max - self.chi_r_min

    def contains(self, U: float, chi_R: float) -> bool:
        return self.u_min <= U <= self.u_max and self.chi_r_min <= chi_R <= self.chi_r_max


class DampingParameterization(enum.Enum):
    """How a scalar damping parameter d maps to a complex frequency.

    CHI_I: chi = chi_R + i*d (dimensional imaginary part).
    ZETA:  d is the modal damping ratio chi_I/|chi|.
    XI:    chi = chi_R*(1 + i*d) (dimensionless, linear in d).
    """

    CHI_I = "chi_I"
    ZETA = "zeta"
    XI = "xi"


Term = Tuple[int, int, np.ndarray]


@dataclass(frozen=True, eq=False)
class Pencil:
    """A(chi, U) = sum over k of chi^a U^b coeffs[k], (a, b) = exps[k]; equal only to itself.

    ``exps`` holds one nonnegative integer pair per matrix of ``coeffs``, a read-only complex
    (K, n, n) copy of the given stack; the value and :meth:`derivs` weight it by one powers table.
    """

    exps: Tuple[Tuple[int, int], ...]
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        exps = tuple((int(a), int(b)) for a, b in self.exps)
        coeffs = np.array(self.coeffs, dtype=complex)
        if (not exps or exps != tuple(map(tuple, self.exps)) or min(map(min, exps)) < 0
                or coeffs.shape != (len(exps),) + coeffs.shape[-1:] * 2):  # (K, n, n)
            raise ValueError(f"a pencil takes nonnegative integer exponent pairs, one per square "
                             f"coefficient, not {self.exps} with a stack of shape {coeffs.shape}")
        coeffs.flags.writeable = False
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "coeffs", coeffs)

    def _powers(self, chi, U) -> Tuple[list, list]:
        """chi^0..chi^max(a) and U^0..U^max(b), by repeated multiplication."""
        pc, pu = [1 + 0 * chi], [1 + 0 * U]
        for a, b in self.exps:
            while len(pc) <= a:
                pc.append(pc[-1] * chi)
            while len(pu) <= b:
                pu.append(pu[-1] * U)
        return pc, pu

    def __call__(self, chi, U) -> np.ndarray:
        """The sum at one node, (n, n), or at 1-D node arrays, (N, n, n): weights w.T @ coeffs."""
        pc, pu = self._powers(chi, U)
        w = np.array([pc[a] * pu[b] for a, b in self.exps])
        return (w.T @ self.coeffs.reshape(len(self.exps), -1)).reshape(
            np.shape(chi) + self.coeffs.shape[1:])

    def derivs(self, chi: complex, U: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dA/dchi_R, dA/dchi_I = i dA/dchi_R, dA/dU) at one node: the same terms
        weighted by a chi^(a-1) U^b and b chi^a U^(b-1), one (2, K) x (K, n^2) product."""
        pc, pu = self._powers(chi, U)
        w = np.array([[a * pc[a - 1] * pu[b] if a else 0j for a, b in self.exps],
                      [b * pc[a] * pu[b - 1] if b else 0j for a, b in self.exps]])
        d_chi, d_u = (w @ self.coeffs.reshape(len(self.exps), -1)).reshape(
            (2,) + self.coeffs.shape[1:])
        return d_chi, 1j * d_chi, d_u


@dataclass(frozen=True)
class ParametricOperator:
    """A matrix family A(chi, U) with its admissible window.

    ``func`` must be pure: repeated evaluation at identical arguments is
    bit-identical.  ``derivs``, when given, returns (dA/dchi_R, dA/dchi_I,
    dA/dU); otherwise :func:`param_derivatives` takes central finite
    differences with base step ``FD_STEP``.

    A ``func`` that is a :class:`Pencil` (see :func:`polynomial_pencil`) is
    summed over many nodes at once by :func:`evaluate_batch`; any other
    callable is evaluated node by node.  Replacing ``func`` keeps ``derivs``.
    A :class:`Pencil` is read-only, and the sigma field evaluates its chunks on
    worker threads; any other ``func``, and ``derivs``, only run on the
    caller's thread: they need not be thread-safe.
    """

    name: str
    dim: int
    func: Callable[[complex, float], np.ndarray]
    window: Window
    derivs: Optional[Callable[[complex, float], Tuple[np.ndarray, np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("operator dimension must be >= 1")
        if isinstance(self.func, Pencil) and self.func.coeffs.shape[1:] != (self.dim, self.dim):
            raise ValueError(f"pencil terms of '{self.name}' must be {self.dim}x{self.dim}")


def polynomial_pencil(name: str, terms: Sequence[Term], window: Window) -> ParametricOperator:
    """Operator A(chi, U) = sum over (a, b, C) in ``terms`` of chi^a U^b C.

    ``func`` is a :class:`Pencil`, summed at one node or, by :func:`evaluate_batch`, over
    many (equal to rounding), and ``derivs`` is its :meth:`Pencil.derivs`.
    """
    pencil = Pencil(tuple((a, b) for a, b, _ in terms), [c for _, _, c in terms])
    return ParametricOperator(name=name, dim=pencil.coeffs.shape[1], func=pencil, window=window,
                              derivs=pencil.derivs)


@dataclass(frozen=True)
class EigenPoint:
    """A solved triple (chi_R, chi_I, U), its unit eigenvector and the residual that
    :func:`_converged` accepted: sigma_min of A for SLP, ||A x|| for Newton and from_vector."""

    chi_R: float
    chi_I: float
    U: float
    x: np.ndarray = field(repr=False)
    residual: float = 0.0

    @property
    def chi(self) -> complex:
        return complex(self.chi_R, self.chi_I)

    @classmethod
    def from_vector(cls, op: ParametricOperator, chi_R: float, chi_I: float, U: float,
                    x: np.ndarray) -> "EigenPoint":
        """Normalize x and record ||A x||, evaluated here (seeds, the polish's chi_I = 0 point)."""
        a = evaluate(op, complex(chi_R, chi_I), U)
        x = _unit_phased(np.asarray(x, dtype=complex).reshape(op.dim))
        return cls(float(chi_R), float(chi_I), float(U), x, float(np.linalg.norm(a @ x)))


def _unit_phased(x: np.ndarray) -> np.ndarray:
    """x / ||x||, its free phase fixed: the largest-modulus entry (first on ties) real >= 0."""
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ValueError("eigenvector must be nonzero")
    x = x / nrm
    return x * (np.conj(x[np.argmax(np.abs(x))]) / np.abs(x).max())


def _check_finite_args(chi: complex, U: float):
    if not (cmath.isfinite(chi) and math.isfinite(U)):
        raise ValueError(f"non-finite arguments chi={chi}, U={U}")


def evaluate(op: ParametricOperator, chi: complex, U: float) -> np.ndarray:
    """Evaluate A(chi, U).

    Out-of-window points are not rejected: continuation correctors may
    transiently overshoot the window, which only gates grid construction
    and path termination.
    """
    _check_finite_args(chi, U)
    a = np.asarray(op.func(complex(chi), float(U)), dtype=complex)
    if a.shape != (op.dim, op.dim):
        raise ValueError(f"operator '{op.name}' returned shape {a.shape}, expected {(op.dim, op.dim)}")
    return a


def evaluate_batch(op: ParametricOperator, chis, Us) -> np.ndarray:
    """A(chi_k, U_k) as an (N, n, n) stack; ``chis`` and ``Us`` broadcast to N nodes.

    A :class:`Pencil` ``func`` is summed over all nodes in one call; any other
    callable is evaluated node by node through :func:`evaluate`, with its checks.
    """
    chis, Us = np.broadcast_arrays(np.asarray(chis, dtype=complex), np.asarray(Us, dtype=float))
    chis, Us = chis.ravel(), Us.ravel()
    if not isinstance(op.func, Pencil):
        out = np.empty((chis.size, op.dim, op.dim), dtype=complex)
        for k in range(chis.size):
            out[k] = evaluate(op, chis[k], Us[k])
        return out
    if not (np.isfinite(chis).all() and np.isfinite(Us).all()):
        raise ValueError(f"non-finite arguments in batch evaluation of operator '{op.name}'")
    return op.func(chis, Us)


def residual_norm(op: ParametricOperator, chi: complex, U: float, x: np.ndarray) -> float:
    """||A(chi, U) x||_2 for a unit vector x."""
    x = np.asarray(x, dtype=complex).reshape(op.dim)
    if abs(np.linalg.norm(x) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"x is not unit (||x|| = {np.linalg.norm(x):.3e})")
    return float(np.linalg.norm(evaluate(op, chi, U) @ x))


def sigma_min(op: ParametricOperator, chi: complex, U: float) -> Tuple[float, np.ndarray]:
    """Smallest singular value of A(chi, U) and its right singular vector."""
    return _sigma_min_of(op, evaluate(op, chi, U), chi, U)


def _sigma_min_of(op: ParametricOperator, a: np.ndarray, chi: complex,
                  U: float) -> Tuple[float, np.ndarray]:
    """:func:`sigma_min` of an already evaluated a = A(chi, U)."""
    try:
        _, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed for operator '{op.name}' at chi={chi}, U={U}: {exc}") from exc
    return float(s[-1]), vh[-1].conj()


def param_derivatives(op: ParametricOperator, chi_R: float, chi_I: float,
                      U: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dA/dchi_R, dA/dchi_I, dA/dU) at the given point.

    Analytic derivatives are used when the operator supplies them; central
    differences otherwise, with steps max(FD_STEP, 1e-8*|value|) per the
    second-order-stencil scaling.
    """
    chi = complex(chi_R, chi_I)
    _check_finite_args(chi, U)
    if op.derivs is not None:
        d_r, d_i, d_u = op.derivs(chi, float(U))
        return (np.asarray(d_r, dtype=complex), np.asarray(d_i, dtype=complex),
                np.asarray(d_u, dtype=complex))

    h_chi = max(FD_STEP, 1e-8 * abs(chi_R))
    h_u = max(FD_STEP, 1e-8 * abs(U))
    d_r = (evaluate(op, chi + h_chi, U) - evaluate(op, chi - h_chi, U)) / (2.0 * h_chi)
    d_i = (evaluate(op, chi + 1j * h_chi, U) - evaluate(op, chi - 1j * h_chi, U)) / (2.0 * h_chi)
    d_u = (evaluate(op, chi, U + h_u) - evaluate(op, chi, U - h_u)) / (2.0 * h_u)
    return d_r, d_i, d_u


# A scalar constraint row(chi_R, chi_I, U) -> (value, its gradient in (chi_R, chi_I, U)).
RowFn = Callable[[float, float, float], Tuple[float, Tuple[float, float, float]]]


def _converged(residual: float, row: float = 0.0, tol: float = RESIDUAL_TOL) -> bool:
    """The one convergence test: the residual (||A x||, or SLP's sigma_min) and |row| <= tol."""
    return residual <= tol and abs(row) <= tol


def _solve_bordered(op: ParametricOperator, triple: Tuple[float, float, float], x0: np.ndarray,
                    row_fn: RowFn, tol: float = RESIDUAL_TOL,
                    max_iters: int = NEWTON_MAX_ITERS) -> Tuple[EigenPoint, int]:
    """Damped Newton on {A x = 0, c*x = 1, scalar row = 0}.

    Unknowns are (Re x, Im x, chi_R, chi_I, U), started at ``triple`` =
    (U, chi_R, chi_I); the fixed normalization vector c is the initial
    eigenvector guess.  Stops when :func:`_converged` accepts the unit
    eigenvector residual and the scalar row; the point carries that residual.
    """
    n = op.dim
    u, wr, wi = float(triple[0]), float(triple[1]), float(triple[2])
    x = np.asarray(x0, dtype=complex).reshape(n)
    x = x / np.linalg.norm(x)
    c = x.copy()

    def full_residual(xv, wr_v, wi_v, u_v):
        a = evaluate(op, complex(wr_v, wi_v), u_v)
        ax = a @ xv
        cn = np.vdot(c, xv) - 1.0
        rowv, rowg = row_fn(wr_v, wi_v, u_v)
        return np.concatenate([ax.real, ax.imag, [cn.real, cn.imag, rowv]]), a, rowg

    best = (math.inf, None)
    f, a, rowg = full_residual(x, wr, wi, u)
    for iteration in range(max_iters):
        xhat = x / np.linalg.norm(x)
        res = float(np.linalg.norm(a @ xhat))
        if _converged(res, f[-1], tol):
            return EigenPoint(float(wr), float(wi), float(u), _unit_phased(xhat), res), iteration
        fn = float(np.linalg.norm(f))
        if fn < best[0]:
            best = (fn, (u, wr, wi))

        d_r, d_i, d_u = param_derivatives(op, wr, wi, u)
        jac = np.zeros((2 * n + 3, 2 * n + 3))
        jac[:n, :n] = a.real
        jac[:n, n:2 * n] = -a.imag
        jac[n:2 * n, :n] = a.imag
        jac[n:2 * n, n:2 * n] = a.real
        for col, mat in ((2 * n, d_r), (2 * n + 1, d_i), (2 * n + 2, d_u)):
            mv = mat @ x
            jac[:n, col] = mv.real
            jac[n:2 * n, col] = mv.imag
        jac[2 * n, :n] = c.real
        jac[2 * n, n:2 * n] = c.imag
        jac[2 * n + 1, :n] = -c.imag
        jac[2 * n + 1, n:2 * n] = c.real
        jac[2 * n + 2, 2 * n:] = rowg

        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"bordered Jacobian singular at U={u}, chi={wr}+{wi}j",
                                   best=best[1], iterations=iteration) from exc

        step = 1.0
        for _ in range(20):
            x_t = x + step * (delta[:n] + 1j * delta[n:2 * n])
            wr_t = wr + step * delta[2 * n]
            wi_t = wi + step * delta[2 * n + 1]
            u_t = u + step * delta[2 * n + 2]
            f_t, a_t, rowg_t = full_residual(x_t, wr_t, wi_t, u_t)
            if np.linalg.norm(f_t) < fn:
                break
            step *= 0.5
        else:
            raise ConvergenceError(f"bordered Newton stalled at U={u}, chi={wr}+{wi}j "
                                   f"(|F|={fn:.3e})", best=best[1], iterations=iteration)
        x, wr, wi, u, f, a, rowg = x_t, wr_t, wi_t, u_t, f_t, a_t, rowg_t

    raise ConvergenceError(f"bordered Newton did not converge in {max_iters} iterations "
                           f"(best |F|={best[0]:.3e})", best=best[1], iterations=max_iters)


def _zeta_root(d: float) -> float:
    """sqrt(1 - d^2) of a damping ratio d, which must lie in (-1, 1)."""
    if abs(d) >= 1.0:
        raise ValueError(f"zeta value {d} outside (-1, 1)")
    return math.sqrt(1.0 - d * d)


def damping_to_complex(p: DampingParameterization, chi_R: float, d: float) -> complex:
    """Map (chi_R, d) to the complex frequency under parameterization p.

    ZETA follows the ratio definition zeta = chi_I/|chi| (the unique chi
    with Re(chi) = chi_R > 0 and that ratio equal to d), which requires
    |d| < 1.
    """
    if not (math.isfinite(chi_R) and math.isfinite(d)):
        raise ValueError("non-finite damping arguments")
    if p is DampingParameterization.CHI_I:
        return complex(chi_R, d)
    if p is DampingParameterization.XI:
        return complex(chi_R, chi_R * d)
    if p is DampingParameterization.ZETA:
        root = _zeta_root(d)
        if chi_R <= 0.0:
            raise ValueError(f"zeta parameterization requires chi_R > 0, got {chi_R}")
        return complex(chi_R, chi_R * d / root)
    raise ValueError(f"unknown parameterization {p}")


def complex_to_damping(p: DampingParameterization, chi: complex) -> Tuple[float, float]:
    """Inverse of :func:`damping_to_complex`: (chi_R, d) from chi."""
    if not cmath.isfinite(chi):
        raise ValueError("non-finite chi")
    chi_R, chi_I = chi.real, chi.imag
    if p is DampingParameterization.CHI_I:
        return chi_R, chi_I
    if chi_R <= 0.0:
        raise ValueError(f"{p.value} inversion requires Re(chi) > 0, got {chi_R}")
    if p is DampingParameterization.XI:
        return chi_R, chi_I / chi_R
    if p is DampingParameterization.ZETA:
        return chi_R, chi_I / abs(chi)
    raise ValueError(f"unknown parameterization {p}")


def _damping_row(p: DampingParameterization, d: float) -> RowFn:
    """The row that fixes the damping level d under p; it vanishes at
    chi = damping_to_complex(p, chi_R, d)."""
    if p is DampingParameterization.CHI_I:
        def row(wr, wi, u):
            return wi - d, (0.0, 1.0, 0.0)
    elif p is DampingParameterization.XI:
        def row(wr, wi, u):
            return wi - d * wr, (-d, 1.0, 0.0)
    elif p is DampingParameterization.ZETA:
        root = _zeta_root(d)

        def row(wr, wi, u):
            return wi * root - d * wr, (-d, root, 0.0)
    else:
        raise ValueError(f"unknown parameterization {p}")
    return row

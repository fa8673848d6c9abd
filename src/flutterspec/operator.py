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

    def _admit(self, inner: "Window"):
        """The rule for grids, search and config windows: ``inner`` lies inside this one."""
        if not (self.contains(inner.u_min, inner.chi_r_min)
                and self.contains(inner.u_max, inner.chi_r_max)):
            raise ValueError(f"window {inner} exceeds the operator window {self}")


class DampingParameterization(enum.Enum):
    """How a scalar damping level d maps to a complex frequency, and back.

    CHI_I: chi = chi_R + i*d (dimensional imaginary part).
    ZETA:  d is the modal damping ratio chi_I/|chi| in (-1, 1); the chi with
           real part chi_R > 0 and that ratio is chi_R*(1 + i*d/sqrt(1 - d^2)).
    XI:    chi = chi_R*(1 + i*d) (dimensionless, linear in d).

    A level must be finite, and inside (-1, 1) for ZETA; :meth:`chi` and
    :meth:`row` raise ValueError on any other.
    """

    CHI_I = "chi_I"
    ZETA = "zeta"
    XI = "xi"

    def _root(self, d: float) -> float:
        """The one domain check of a level d; returns sqrt(1 - d^2) for ZETA and 1 otherwise,
        so that chi_I/chi_R = d/root off CHI_I."""
        if not math.isfinite(d):
            raise ValueError(f"non-finite damping arguments: {self.value} level {d}")
        if self is not DampingParameterization.ZETA:
            return 1.0
        if abs(d) >= 1.0:
            raise ValueError(f"zeta value {d} outside (-1, 1)")
        return math.sqrt(1.0 - d * d)

    def chi(self, chi_R: float, d: float) -> complex:
        """The complex frequency at real part chi_R and level d (ZETA needs chi_R > 0)."""
        if not math.isfinite(chi_R):
            raise ValueError(f"non-finite damping arguments: chi_R {chi_R}")
        root = self._root(d)
        if self is DampingParameterization.CHI_I:
            return complex(chi_R, d)
        if self is DampingParameterization.ZETA and chi_R <= 0.0:
            raise ValueError(f"zeta parameterization requires chi_R > 0, got {chi_R}")
        return complex(chi_R, chi_R * d / root)

    def level(self, chi: complex) -> float:
        """The inverse of :meth:`chi`: the level d of chi (Re(chi) > 0 off CHI_I)."""
        if not cmath.isfinite(chi):
            raise ValueError("non-finite chi")
        if self is DampingParameterization.CHI_I:
            return chi.imag
        if chi.real <= 0.0:
            raise ValueError(f"{self.value} inversion requires Re(chi) > 0, got {chi.real}")
        return chi.imag / chi.real if self is DampingParameterization.XI else float(_zeta(chi))

    def row(self, d: float) -> RowFn:
        """The bordered solver's row that fixes the level d: it vanishes at chi(chi_R, d)."""
        root = self._root(d)
        if self is DampingParameterization.CHI_I:
            return lambda wr, wi, u: (wi - d, (0.0, 1.0, 0.0))
        return lambda wr, wi, u: (wi * root - d * wr, (-d, root, 0.0))


Term = Tuple[int, int, np.ndarray]


@dataclass(frozen=True, eq=False)
class Pencil:
    """A(chi, U) = sum over k of chi^a U^b coeffs[k], (a, b) = exps[k]; equal only to itself.

    ``exps`` holds one nonnegative integer pair per matrix of ``coeffs``, a read-only complex
    (K, n, n) copy of the given finite stack; the value and :meth:`derivs` weight it by one
    powers table.  Every built-in model passes here, so a NaN or infinite model parameter is a
    ValueError when it is built.  A plain callable is not checked: each evaluation is on the
    correctors' hot path.
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
        if not np.isfinite(coeffs).all():
            raise ValueError("a pencil's coefficients must be finite, not NaN or infinite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_top", (max(a for a, _ in exps), max(b for _, b in exps)))

    def _powers(self, chi, U) -> Tuple[list, list]:
        """chi^0..chi^max(a) and U^0..U^max(b), by repeated multiplication."""
        pc, pu = [1 + 0 * chi], [1 + 0 * U]
        for _ in range(self._top[0]):
            pc.append(pc[-1] * chi)
        for _ in range(self._top[1]):
            pu.append(pu[-1] * U)
        return pc, pu

    def __call__(self, chi, U) -> np.ndarray:
        """The sum at one node, (n, n), or at 1-D node arrays, (N, n, n): weights w.T @ coeffs."""
        pc, pu = self._powers(chi, U)
        w = np.array([pc[a] * pu[b] for a, b in self.exps])
        return (w.T @ self.coeffs.reshape(len(self.exps), -1)).reshape(
            w.shape[1:] + self.coeffs.shape[1:])

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
    A :class:`Pencil` is read-only, and the sigma and det fields evaluate its
    chunks on worker threads; any other ``func``, and ``derivs``, only run on
    the caller's thread: they need not be thread-safe.
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


@dataclass(frozen=True, eq=False)
class EigenPoint:
    """A solved triple (chi_R, chi_I, U), its unit eigenvector and its residual: sigma_min
    of A for SLP, ||A x|| at the stored triple for Newton and from_vector; equal only to itself."""

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
        """Normalize x and record :func:`residual_norm` (seeds, the polish's chi_I = 0 point)."""
        x = _unit_phased(np.asarray(x, dtype=complex).reshape(op.dim))
        return cls(float(chi_R), float(chi_I), float(U), x,
                   residual_norm(op, complex(chi_R, chi_I), U, x))


def _norm(x: np.ndarray) -> float:
    """||x||_2 of a 1-D float or complex array by numpy's own formula, sqrt(x.x) or
    sqrt(re.re + im.im), equal to np.linalg.norm(x) bit for bit without its dispatch."""
    x = x.ravel(order="K")
    if x.dtype.kind != "c":
        return math.sqrt(x.dot(x))
    return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))


def _unit_phased(x: np.ndarray) -> np.ndarray:
    """x / ||x||, its free phase fixed: the largest-modulus entry (first on ties) real >= 0."""
    nrm = _norm(x)
    if nrm == 0.0:
        raise ValueError("eigenvector must be nonzero")
    x = x / nrm
    return x * (np.conj(x[np.argmax(np.abs(x))]) / np.abs(x).max())


def _check_count(name: str, value, least: int):
    """ValueError naming ``name`` if ``value`` is not an integer (a bool is not one) or is
    below ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


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
    return _sigma_min_of(op, evaluate(op, chi, U), chi, U)[:2]


def _sigma_min_of(op: ParametricOperator, a: np.ndarray, chi: complex,
                  U: float) -> Tuple[float, np.ndarray, np.ndarray]:
    """(sigma, x, y) of an already evaluated a = A(chi, U): its smallest singular value
    and the right and left singular vectors, a x = sigma y."""
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed for operator '{op.name}' at chi={chi}, U={U}: {exc}") from exc
    return float(s[-1]), vh[-1].conj(), u[:, -1]


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
    x = x / _norm(x)
    c = x.copy()

    def full_residual(xv, wr_v, wi_v, u_v, out):  # F into out; returns A and the row gradient
        a = evaluate(op, complex(wr_v, wi_v), u_v)
        ax = a @ xv
        cn = np.vdot(c, xv) - 1.0
        rowv, rowg = row_fn(wr_v, wi_v, u_v)
        out[:n], out[n:2 * n], out[2 * n:] = ax.real, ax.imag, (cn.real, cn.imag, rowv)
        return a, rowg

    jac = np.zeros((2 * n + 3, 2 * n + 3))
    jac[2 * n, :2 * n] = np.concatenate([c.real, c.imag])
    jac[2 * n + 1, :2 * n] = np.concatenate([-c.imag, c.real])
    mv = np.empty((n, 3), dtype=complex)
    best = (math.inf, None)
    f, f_t = np.empty(2 * n + 3), np.empty(2 * n + 3)  # the residual and the line search's trial
    a, rowg = full_residual(x, wr, wi, u, f)
    for iteration in range(max_iters):
        xhat = x / _norm(x)
        res = _norm(a @ xhat)
        if _converged(res, f[-1], tol):
            return EigenPoint(float(wr), float(wi), float(u), _unit_phased(xhat), res), iteration
        fn = _norm(f)
        if fn < best[0]:
            best = (fn, (u, wr, wi))

        d_r, d_i, d_u = param_derivatives(op, wr, wi, u)
        jac[:n, :n] = a.real
        jac[:n, n:2 * n] = -a.imag
        jac[n:2 * n, :n] = a.imag
        jac[n:2 * n, n:2 * n] = a.real
        mv[:, 0], mv[:, 1], mv[:, 2] = d_r @ x, d_i @ x, d_u @ x
        jac[:n, 2 * n:] = mv.real
        jac[n:2 * n, 2 * n:] = mv.imag
        jac[2 * n + 2, 2 * n:] = rowg

        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"bordered Jacobian singular at U={u}, chi={wr}+{wi}j",
                                   best=best[1], iterations=iteration) from exc

        dx, (dwr, dwi, du) = delta[:n] + 1j * delta[n:2 * n], delta[2 * n:].tolist()
        step = 1.0
        for _ in range(20):
            x_t = x + step * dx
            wr_t, wi_t, u_t = wr + step * dwr, wi + step * dwi, u + step * du
            a_t, rowg_t = full_residual(x_t, wr_t, wi_t, u_t, f_t)
            if _norm(f_t) < fn:
                break
            step *= 0.5
        else:
            raise ConvergenceError(f"bordered Newton stalled at U={u}, chi={wr}+{wi}j "
                                   f"(|F|={fn:.3e})", best=best[1], iterations=iteration)
        x, wr, wi, u, a, rowg, f, f_t = x_t, wr_t, wi_t, u_t, a_t, rowg_t, f_t, f

    raise ConvergenceError(f"bordered Newton did not converge in {max_iters} iterations "
                           f"(best |F|={best[0]:.3e})", best=best[1], iterations=max_iters)


def _zeta(chi):
    """The damping ratio chi_I/|chi| of one chi or of an array (nan at chi = 0): the one
    formula behind ModePath.zetas, the ZETA level, the extremum and the CLI's zeta values."""
    chi = np.asarray(chi, dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore"):
        return chi.imag / np.abs(chi)

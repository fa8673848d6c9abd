"""Parametric operator abstraction and modal damping parameterizations.

An operator is a matrix-valued function A(chi, U) of a complex modal
frequency chi = chi_R + i*chi_I (rad/s, convention x(t) = x0*exp(i*chi*t),
so chi_I > 0 means decay) and a real airspeed U (m/s).  Everything
downstream (pseudospectrum fields, flutter location, continuation) is
built on the operations here: evaluation, residual norms, minimum
singular values and parameter derivatives.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NumericalError

__all__ = [
    "Window",
    "DampingParameterization",
    "ParametricOperator",
    "EigenPoint",
    "evaluate",
    "residual_norm",
    "sigma_min",
    "param_derivatives",
    "damping_to_complex",
    "complex_to_damping",
]

UNIT_NORM_TOL = 1e-12


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


@dataclass(frozen=True)
class ParametricOperator:
    """A matrix family A(chi, U) with its admissible window.

    ``func`` must be pure: repeated evaluation at identical arguments is
    bit-identical.  ``derivs``, when given, returns (dA/dchi_R, dA/dchi_I,
    dA/dU); otherwise central finite differences with ``fd_step`` base
    step sizes are used.
    """

    name: str
    dim: int
    func: Callable[[complex, float], np.ndarray]
    window: Window
    derivs: Optional[Callable[[complex, float], Tuple[np.ndarray, np.ndarray, np.ndarray]]] = None
    fd_step: Tuple[float, float] = (1e-6, 1e-6)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("operator dimension must be >= 1")


@dataclass(frozen=True)
class EigenPoint:
    """A solved triple (chi_R, chi_I, U) with its unit eigenvector."""

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
        """Normalize x and record the recomputed residual norm."""
        x = np.asarray(x, dtype=complex).reshape(op.dim)
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            raise ValueError("eigenvector must be nonzero")
        x = x / nrm
        res = float(np.linalg.norm(evaluate(op, complex(chi_R, chi_I), U) @ x))
        return cls(float(chi_R), float(chi_I), float(U), x, res)


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


def residual_norm(op: ParametricOperator, chi: complex, U: float, x: np.ndarray) -> float:
    """||A(chi, U) x||_2 for a unit vector x."""
    x = np.asarray(x, dtype=complex).reshape(op.dim)
    if abs(np.linalg.norm(x) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"x is not unit (||x|| = {np.linalg.norm(x):.3e})")
    return float(np.linalg.norm(evaluate(op, chi, U) @ x))


def sigma_min(op: ParametricOperator, chi: complex, U: float) -> Tuple[float, np.ndarray]:
    """Smallest singular value of A(chi, U) and its right singular vector."""
    a = evaluate(op, chi, U)
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
    differences otherwise, with steps max(fd_step, 1e-8*|value|) per the
    second-order-stencil scaling.
    """
    chi = complex(chi_R, chi_I)
    _check_finite_args(chi, U)
    if op.derivs is not None:
        d_r, d_i, d_u = op.derivs(chi, float(U))
        return (np.asarray(d_r, dtype=complex), np.asarray(d_i, dtype=complex),
                np.asarray(d_u, dtype=complex))

    h_chi = max(op.fd_step[0], 1e-8 * abs(chi_R))
    h_u = max(op.fd_step[1], 1e-8 * abs(U))
    if h_chi == 0.0 or h_u == 0.0:
        raise NumericalError("finite-difference step underflowed to zero")
    d_r = (evaluate(op, chi + h_chi, U) - evaluate(op, chi - h_chi, U)) / (2.0 * h_chi)
    d_i = (evaluate(op, chi + 1j * h_chi, U) - evaluate(op, chi - 1j * h_chi, U)) / (2.0 * h_chi)
    d_u = (evaluate(op, chi, U + h_u) - evaluate(op, chi, U - h_u)) / (2.0 * h_u)
    return d_r, d_i, d_u


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
        if abs(d) >= 1.0:
            raise ValueError(f"zeta parameterization requires |d| < 1, got {d}")
        if chi_R <= 0.0:
            raise ValueError(f"zeta parameterization requires chi_R > 0, got {chi_R}")
        return complex(chi_R, chi_R * d / math.sqrt(1.0 - d * d))
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

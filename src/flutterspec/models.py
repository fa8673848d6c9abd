"""Built-in parametric operator fixtures with oracle-computable behavior.

Four families:

* trajectory operators whose eigenvalue paths chi_k(U) = omega_k(U) + i*g_k(U)
  are prescribed polynomials (exact oracles for flutter and damping paths),
* a 2-DOF typical-section wing with quasi-steady aerodynamics,
* normal operators diag(lambda_k) - chi*I whose sigma_min field is the
  distance to the spectrum,
* a configurable Galerkin beam-wing assembled from cantilever free-vibration
  mode shapes.

Damping sign convention matches the operator module: g > 0 is stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .operator import ParametricOperator, Window, polynomial_pencil

__all__ = [
    "ModeTrajectory",
    "TrajectorySpec",
    "TypicalSectionSpec",
    "GalerkinWingSpec",
    "build_trajectory_operator",
    "build_typical_section",
    "build_normal_operator",
    "build_galerkin_wing",
    "reference_restabilization_spec",
    "two_crossing_spec",
]

MAX_MIXING_CONDITION = 100.0

# Roots of cosh(x)*cos(x) + 1 = 0 (clamped-free Euler-Bernoulli beam).
_CANTILEVER_BETA_L = (1.8751040687119611, 4.694091132974175,
                      7.854757438237613, 10.995540734875467)


@dataclass(frozen=True)
class ModeTrajectory:
    """One prescribed eigenvalue path: ascending polynomial coefficients
    for omega(U) and g(U), both in rad/s."""

    omega_coeffs: Tuple[float, ...]
    g_coeffs: Tuple[float, ...]

    def omega(self, U):
        return np.polynomial.polynomial.polyval(U, self.omega_coeffs)

    def g(self, U):
        return np.polynomial.polynomial.polyval(U, self.g_coeffs)


@dataclass(frozen=True)
class TrajectorySpec:
    modes: Tuple[ModeTrajectory, ...]
    mixing: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.modes:
            raise ValueError("at least one mode trajectory required")


@dataclass(frozen=True)
class TypicalSectionSpec:
    """Plunge/pitch section with quasi-steady strip aerodynamics.

    The assembled pencil is, normatively for this fixture,
    A(chi, U) = -chi^2*M + i*chi*rho*U*b*C_La*[[1,0],[-e,0]]
                + K_s + rho*U^2*b*C_La*[[0,1],[0,-e]]
    with M = [[m, S], [S, I_a]] and K_s = diag(k_h, k_a).
    """

    m: float = 50.0       # mass per span, kg/m
    S: float = 5.0        # static imbalance, kg
    I_a: float = 4.5      # pitch inertia per span, kg*m
    k_h: float = 20000.0  # plunge stiffness, N/m^2
    k_a: float = 7200.0   # pitch stiffness, N
    rho: float = 1.225    # air density, kg/m^3
    b: float = 0.5        # semichord, m
    e: float = 0.25       # aero-center offset, m
    C_La: float = 2.0 * math.pi

    def __post_init__(self):
        for name in ("m", "I_a", "k_h", "k_a", "rho", "b", "C_La"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"typical-section parameter {name} must be positive")
        if self.m * self.I_a - self.S ** 2 <= 0.0:
            raise ValueError("mass matrix must be positive definite (m*I_a > S^2)")


@dataclass(frozen=True)
class GalerkinWingSpec:
    """Cantilever beam-wing discretized with assumed free-vibration modes."""

    EI: float = 2.0e4            # bending rigidity, N*m^2
    GJ: float = 4.0e3            # torsional rigidity, N*m^2
    mass_per_span: float = 5.0   # kg/m
    inertia_per_span: float = 0.25  # torsional inertia, kg*m
    span: float = 5.0            # m
    cg_offset: float = 0.05      # cg aft of elastic axis, m
    aero_offset: float = 0.2     # aero center ahead of elastic axis, m
    n_bending: int = 2
    n_torsion: int = 2
    rho: float = 1.225
    b: float = 0.5               # semichord, m
    C_La: float = 2.0 * math.pi

    def __post_init__(self):
        for name in ("EI", "GJ", "mass_per_span", "inertia_per_span", "span", "rho", "b", "C_La"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"galerkin-wing parameter {name} must be positive")
        if self.n_bending < 1 or self.n_torsion < 1:
            raise ValueError("mode counts must be >= 1")


def reference_restabilization_spec() -> TrajectorySpec:
    """Engineered two-mode fixture: flutter exactly at U = 120 and a
    supercritical near-restabilization hump around U = 598.

    Mode 1: omega = 60 - 0.05*U, g = -1e-7*(U - 120)*((U - 600)^2 + 2000).
    Mode 2 is well separated and uniformly stable.
    """
    p = np.polynomial.polynomial
    g1 = -1e-7 * p.polymul(p.polymul((-120.0, 1.0), (-600.0, 1.0)), (-600.0, 1.0))
    g1 = p.polyadd(g1, -1e-7 * 2000.0 * np.asarray((-120.0, 1.0)))
    mode1 = ModeTrajectory(omega_coeffs=(60.0, -0.05), g_coeffs=tuple(g1))
    mode2 = ModeTrajectory(omega_coeffs=(150.0,), g_coeffs=(5.0,))
    return TrajectorySpec(modes=(mode1, mode2))


def two_crossing_spec() -> TrajectorySpec:
    """Trajectory fixture whose first mode crosses g = 0 at U = 120 and 300."""
    p = np.polynomial.polynomial
    g1 = -1e-5 * p.polymul((-120.0, 1.0), (-300.0, 1.0))
    mode1 = ModeTrajectory(omega_coeffs=(80.0, -0.02), g_coeffs=tuple(g1))
    mode2 = ModeTrajectory(omega_coeffs=(170.0,), g_coeffs=(4.0,))
    return TrajectorySpec(modes=(mode1, mode2))


def build_trajectory_operator(spec: TrajectorySpec,
                              window: Window = Window(0.0, 1100.0, 1.0, 250.0)) -> ParametricOperator:
    """Operator T*diag(chi - chi_k(U))*T^-1 with exact eigenvalue paths."""
    n = len(spec.modes)
    if spec.mixing is not None:
        t = np.asarray(spec.mixing, dtype=float)
        if t.shape != (n, n):
            raise ValueError(f"mixing matrix must be {n}x{n}")
        if np.linalg.cond(t) > MAX_MIXING_CONDITION:
            raise ValueError("mixing matrix is too ill-conditioned")
        t_inv = np.linalg.inv(t)
    else:
        t = t_inv = np.eye(n)
    # chi_k(U) = sum_b U^b (omega_k,b + i g_k,b): one mixed diagonal per power of U
    degree = max(max(len(m.omega_coeffs), len(m.g_coeffs)) for m in spec.modes)
    chi_coeffs = np.zeros((degree, n), dtype=complex)
    for k, m in enumerate(spec.modes):
        chi_coeffs[:len(m.omega_coeffs), k] += m.omega_coeffs
        chi_coeffs[:len(m.g_coeffs), k] += 1j * np.asarray(m.g_coeffs, dtype=float)
    terms = [(1, 0, np.eye(n))] + [(0, b, -(t * c) @ t_inv) for b, c in enumerate(chi_coeffs)]
    return polynomial_pencil("trajectory", terms, window)


def build_typical_section(spec: TypicalSectionSpec = TypicalSectionSpec(),
                          window: Window = Window(0.5, 80.0, 5.0, 75.0)) -> ParametricOperator:
    mass = np.array([[spec.m, spec.S], [spec.S, spec.I_a]], dtype=complex)
    k_s = np.diag([spec.k_h, spec.k_a]).astype(complex)
    q = spec.rho * spec.b * spec.C_La
    d_mat = q * np.array([[1.0, 0.0], [-spec.e, 0.0]], dtype=complex)
    e_mat = q * np.array([[0.0, 1.0], [0.0, -spec.e]], dtype=complex)

    return _aeroelastic_pencil("typical_section", mass, d_mat, k_s, e_mat, window)


def build_normal_operator(eigenvalues: Sequence[complex],
                          window: Window = Window(-1e6, 1e6, -1e6, 1e6)) -> ParametricOperator:
    """diag(lambda_k) - chi*I; sigma_min at chi is min_k |chi - lambda_k|."""
    lam = np.asarray(list(eigenvalues), dtype=complex)
    if lam.size == 0:
        raise ValueError("eigenvalue list must be nonempty")
    return polynomial_pencil("normal", [(0, 0, np.diag(lam)), (1, 0, -np.eye(lam.size))], window)


def _aeroelastic_pencil(name: str, mass, d_mat, stiff, e_mat, window: Window) -> ParametricOperator:
    """-chi^2 M + i chi U D + K + U^2 E, the quasi-steady aeroelastic pencil."""
    return polynomial_pencil(name, [(2, 0, -mass), (1, 1, 1j * d_mat), (0, 0, stiff),
                                    (0, 2, e_mat)], window)


def _beta_l(i: int) -> float:
    """beta*L of clamped-free bending mode i (1-based); (2i - 1)*pi/2 past the table."""
    return _CANTILEVER_BETA_L[i - 1] if i <= len(_CANTILEVER_BETA_L) else (2 * i - 1) * math.pi / 2.0


def _bending_shape(i: int, y: np.ndarray, span: float) -> Tuple[np.ndarray, np.ndarray]:
    """Clamped-free bending mode i (1-based), tip amplitude 2, and its second derivative."""
    bl = _beta_l(i)
    beta = bl / span
    sigma = (math.sinh(bl) - math.sin(bl)) / (math.cosh(bl) + math.cos(bl))
    by = beta * y
    return (np.cosh(by) - np.cos(by) - sigma * (np.sinh(by) - np.sin(by)),
            beta ** 2 * (np.cosh(by) + np.cos(by) - sigma * (np.sinh(by) + np.sin(by))))


def _torsion_shape(j: int, y: np.ndarray, span: float) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-free torsion mode j (1-based) and its first derivative."""
    k = (2 * j - 1) * math.pi / (2.0 * span)
    return np.sin((2 * j - 1) * math.pi * y / (2.0 * span)), k * np.cos(k * y)


def build_galerkin_wing(spec: GalerkinWingSpec = GalerkinWingSpec(),
                        window: Window = Window(0.5, 120.0, 2.0, 60.0)) -> ParametricOperator:
    """Assemble the (n_bending + n_torsion)-dim quasi-steady wing pencil.

    Strip lift per span rho*U*b*C_La*(w_dot + U*theta) acts on bending and,
    with moment arm -aero_offset, on torsion; inertial coupling comes from
    the chordwise cg offset.  Quadrature is fixed 96-point Gauss-Legendre,
    exact to rounding for these smooth integrands.
    """
    nb, nt = spec.n_bending, spec.n_torsion
    n = nb + nt
    span = spec.span
    nodes, weights = np.polynomial.legendre.leggauss(96)
    y = 0.5 * span * (nodes + 1.0)
    w = 0.5 * span * weights

    phi, phi_dd = map(np.stack, zip(*[_bending_shape(i, y, span) for i in range(1, nb + 1)]))
    psi, psi_d = map(np.stack, zip(*[_torsion_shape(j, y, span) for j in range(1, nt + 1)]))

    bb = (phi * w) @ phi.T          # int phi_i phi_k dy
    bt = (phi * w) @ psi.T          # int phi_i psi_j dy
    tt = (psi * w) @ psi.T          # int psi_j psi_l dy

    s_span = spec.mass_per_span * spec.cg_offset
    mass = np.zeros((n, n))
    mass[:nb, :nb] = spec.mass_per_span * bb
    mass[:nb, nb:] = s_span * bt
    mass[nb:, :nb] = s_span * bt.T
    mass[nb:, nb:] = spec.inertia_per_span * tt

    stiff = np.zeros((n, n))
    stiff[:nb, :nb] = spec.EI * (phi_dd * w) @ phi_dd.T
    stiff[nb:, nb:] = spec.GJ * (psi_d * w) @ psi_d.T

    q = spec.rho * spec.b * spec.C_La
    d_mat = np.zeros((n, n))
    d_mat[:nb, :nb] = q * bb
    d_mat[nb:, :nb] = -spec.aero_offset * q * bt.T
    e_mat = np.zeros((n, n))
    e_mat[:nb, nb:] = q * bt
    e_mat[nb:, nb:] = -spec.aero_offset * q * tt

    return _aeroelastic_pencil("galerkin_wing", mass, d_mat, stiff, e_mat, window)

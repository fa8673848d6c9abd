"""Fixture operators: trajectory, typical section, normal, Galerkin wing."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from flutterspec import (Window, build_galerkin_wing, build_normal_operator,
                         build_trajectory_operator, build_typical_section, evaluate,
                         find_flutter_points, param_derivatives, sigma_min)
from flutterspec.models import (GalerkinWingSpec, ModeTrajectory, TrajectorySpec,
                                TypicalSectionSpec)


class TestTrajectoryOperator:
    def test_single_mode_singular_line(self):
        spec = TrajectorySpec(modes=(ModeTrajectory((50.0,), (0.0,)),))
        op = build_trajectory_operator(spec, Window(0.0, 100.0, 10.0, 90.0))
        for u in (0.0, 37.0, 100.0):
            assert sigma_min(op, 50.0 + 0.0j, u)[0] <= 1e-14
            assert sigma_min(op, 51.0 + 0.0j, u)[0] == pytest.approx(1.0, abs=1e-12)

    def test_reference_spec_flutter_exactly_at_120(self, traj_oracle):
        assert traj_oracle.g(120.0) == pytest.approx(0.0, abs=1e-10)
        assert 120.0 < traj_oracle.dip_u < traj_oracle.hump_u < 700.0
        assert traj_oracle.hump_g < 0.0  # supercritical, not restabilized

    def test_mixing_preserves_trajectories(self, traj_spec, traj_oracle):
        angle = 0.7
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        mixed = dataclasses.replace(traj_spec, mixing=rot)
        op = build_trajectory_operator(mixed)
        cond = np.linalg.cond(rot)
        for u in (50.0, 120.0, 400.0, 650.0):
            chi = complex(traj_oracle.omega(u), traj_oracle.g(u))
            assert sigma_min(op, chi, u)[0] <= 1e-10 * cond

    def test_ill_conditioned_mixing_rejected(self, traj_spec):
        bad = dataclasses.replace(traj_spec, mixing=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]))
        with pytest.raises(ValueError):
            build_trajectory_operator(bad)

    def test_analytic_derivatives_consistent(self, traj_op):
        fd_op = dataclasses.replace(traj_op, derivs=None)
        analytic = param_derivatives(traj_op, 45.0, -0.8, 333.0)
        numeric = param_derivatives(fd_op, 45.0, -0.8, 333.0)
        for a, n in zip(analytic, numeric):
            assert np.linalg.norm(a - n) <= 1e-5 * max(np.linalg.norm(a), 1.0)


class TestTypicalSection:
    def test_zero_airspeed_roots_are_natural_frequencies(self, ts_op):
        spec = TypicalSectionSpec()
        m = np.array([[spec.m, spec.S], [spec.S, spec.I_a]])
        k = np.diag([spec.k_h, spec.k_a])
        omegas = np.sqrt(np.sort(scipy.linalg.eigvals(np.linalg.solve(m, k)).real))
        for w in omegas:
            det = np.linalg.det(evaluate(ts_op, complex(w, 0.0), 0.0))
            assert abs(det) <= 1e-6 * abs(np.linalg.det(evaluate(ts_op, 0.0, 0.0)))
            assert w.imag == 0.0

    def test_default_flutter_matches_oracle(self, ts_flutter, ts_oracle):
        assert ts_flutter.point.U == pytest.approx(ts_oracle[0], rel=1e-6)

    def test_decoupled_section_has_no_flutter(self):
        spec = TypicalSectionSpec(S=0.0, e=0.0)
        op = build_typical_section(spec)
        assert find_flutter_points(op) == []

    def test_conjugate_pencil_symmetry(self, ts_op, ts_flutter):
        # real time-domain coefficients give A(-conj(chi), U) = conj(A(chi, U)):
        # eigenvalues pair across the imaginary axis under the exp(i chi t)
        # convention
        rng = np.random.default_rng(5)
        for _ in range(10):
            chi = complex(rng.uniform(5.0, 70.0), rng.uniform(-3.0, 3.0))
            u = rng.uniform(1.0, 75.0)
            assert np.array_equal(evaluate(ts_op, -np.conj(chi), u),
                                  np.conj(evaluate(ts_op, chi, u)))
        pt = ts_flutter.point
        assert sigma_min(ts_op, -np.conj(pt.chi), pt.U)[0] <= 1e-10

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            TypicalSectionSpec(S=20.0)  # m*I_a - S^2 <= 0
        with pytest.raises(ValueError):
            TypicalSectionSpec(k_h=-1.0)


class TestNormalOperator:
    def test_single_eigenvalue_distance(self):
        op = build_normal_operator([0.0])
        assert sigma_min(op, 3.0 + 0.0j, 0.0)[0] == pytest.approx(3.0, abs=1e-12)

    def test_nearest_of_two(self):
        op = build_normal_operator([1.0 + 1.0j, 4.0])
        assert sigma_min(op, 1.0 + 0.0j, 0.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            build_normal_operator([])


def _cantilever_bending_frequencies(spec):
    # omega_i = (beta_i L / L)^2 sqrt(EI / mu), cosh(bl) cos(bl) = -1
    roots = (1.8751040687119611, 4.694091132974175, 7.854757438237613, 10.995540734875467)
    return np.array([(bl / spec.span) ** 2 * math.sqrt(spec.EI / spec.mass_per_span)
                     for bl in roots[:spec.n_bending]])


def _cantilever_torsion_frequencies(spec):
    j = np.arange(1, spec.n_torsion + 1)
    return (2 * j - 1) * math.pi / (2.0 * spec.span) * math.sqrt(spec.GJ / spec.inertia_per_span)


class TestGalerkinWing:
    def test_structural_frequencies_match_closed_form(self):
        spec = GalerkinWingSpec(cg_offset=0.0, n_bending=4, n_torsion=3)
        op = build_galerkin_wing(spec)
        # aero terms carry U and U^2 factors, so A(chi, 0) is the bare pencil
        k = evaluate(op, 0.0, 0.0).real
        m = k - evaluate(op, 1.0, 0.0).real
        freqs = np.sort(np.sqrt(scipy.linalg.eigvalsh(k, m)))
        expected = np.sort(np.concatenate([_cantilever_bending_frequencies(spec),
                                           _cantilever_torsion_frequencies(spec)]))
        assert np.abs(freqs - expected).max() <= 0.01 * expected.min()

    def test_single_mode_pair_matches_congruent_typical_section(self):
        # with zero aero moment arm the 2-DOF wing is exactly congruent to a
        # typical section via diag(1, a/c); flutter points must coincide
        gs = GalerkinWingSpec(n_bending=1, n_torsion=1, aero_offset=0.0)
        span = gs.span
        bl = 1.8751040687119611
        beta = bl / span
        sg = (math.sinh(bl) - math.sin(bl)) / (math.cosh(bl) + math.cos(bl))

        def phi(y):
            return (math.cosh(beta * y) - math.cos(beta * y)
                    - sg * (math.sinh(beta * y) - math.sin(beta * y)))

        def phi_dd(y):
            return beta ** 2 * (math.cosh(beta * y) + math.cos(beta * y)
                                - sg * (math.sinh(beta * y) + math.sin(beta * y)))

        def psi(y):
            return math.sin(math.pi * y / (2.0 * span))

        def psi_d(y):
            return math.pi / (2.0 * span) * math.cos(math.pi * y / (2.0 * span))

        a = quad(lambda y: phi(y) ** 2, 0.0, span, limit=200)[0]
        c = quad(lambda y: phi(y) * psi(y), 0.0, span, limit=200)[0]
        d = quad(lambda y: psi(y) ** 2, 0.0, span, limit=200)[0]
        k_h = gs.EI * quad(lambda y: phi_dd(y) ** 2, 0.0, span, limit=200)[0]
        k_a = gs.GJ * quad(lambda y: psi_d(y) ** 2, 0.0, span, limit=200)[0]
        q = a / c
        ts_spec = TypicalSectionSpec(
            m=gs.mass_per_span * a, S=gs.mass_per_span * gs.cg_offset * a,
            I_a=q * q * gs.inertia_per_span * d, k_h=k_h, k_a=q * q * k_a,
            rho=gs.rho, b=gs.b, e=0.0, C_La=gs.C_La * a)

        window = Window(0.5, 80.0, 5.0, 75.0)
        wing_points = find_flutter_points(build_galerkin_wing(gs, window), window)
        ts_points = find_flutter_points(build_typical_section(ts_spec, window), window)
        assert len(wing_points) == 1 and len(ts_points) == 1
        assert wing_points[0].point.U == pytest.approx(ts_points[0].point.U, rel=1e-9)
        assert wing_points[0].point.chi_R == pytest.approx(ts_points[0].point.chi_R, rel=1e-9)

    def test_mode_doubling_changes_first_flutter_by_under_two_percent(self):
        speeds = []
        for nb, nt in ((2, 2), (4, 4)):
            spec = GalerkinWingSpec(n_bending=nb, n_torsion=nt)
            op = build_galerkin_wing(spec)
            points = find_flutter_points(op)
            assert points
            speeds.append(points[0].point.U)
        assert abs(speeds[1] - speeds[0]) <= 0.02 * speeds[0]

    def test_analytic_derivatives_consistent(self):
        op = build_galerkin_wing()
        fd_op = dataclasses.replace(op, derivs=None)
        analytic = param_derivatives(op, 20.0, 0.5, 40.0)
        numeric = param_derivatives(fd_op, 20.0, 0.5, 40.0)
        for a, n in zip(analytic, numeric):
            assert np.linalg.norm(a - n) <= 1e-5 * max(np.linalg.norm(a), 1.0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            GalerkinWingSpec(n_bending=0)
        with pytest.raises(ValueError):
            GalerkinWingSpec(EI=-1.0)

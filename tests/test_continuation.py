"""Pseudo-arclength machinery: tangents, correctors, tracing, envelopes."""

import dataclasses
import functools
import logging
import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import (crossing_pencil, draw_oscillators, kron_operator_determinants,
                      oscillator_operator, reference_slp_increment, swap_symmetric_unitary)
from flutterspec import (ContinuationSettings, ConvergenceError, DampingParameterization,
                         DegenerateTangentError, EigenPoint, GalerkinWingSpec, Tangent, Window,
                         build_galerkin_wing, build_trajectory_operator, build_typical_section,
                         corrector_newton, corrector_slp, damping_continuation,
                         extremum_damping, fd_tangent, find_flutter_points, flight_envelope,
                         initial_tangent, natural_continuation, predictor, residual_norm,
                         reference_restabilization_spec, sigma_min, solve_at_airspeed,
                         trace_path, two_crossing_spec)
from flutterspec import continuation
from flutterspec.continuation import (_CORRECTORS, ModePath, _hermitian_index, _mode_jumped,
                                      _real_forms, _slp_increment)
from flutterspec.models import ModeTrajectory, TrajectorySpec
from flutterspec.operator import ParametricOperator, _converged, _sigma_min_of


def scaled_gap(a, b, scale):
    return np.linalg.norm([(a.U - b.U) / scale[0], (a.chi_R - b.chi_R) / scale[1],
                           (a.chi_I - b.chi_I) / scale[1]])


def linear_damping_mode(u0):
    """One mode chi = 50 + 0.01 i (U - 10) in U in [0, 100], and its exact point at u0."""
    spec = TrajectorySpec(modes=(ModeTrajectory((50.0,), (-0.1, 0.01)),))
    op = build_trajectory_operator(spec, Window(0.0, 100.0, 40.0, 60.0))
    return op, EigenPoint.from_vector(op, 50.0, float(spec.modes[0].g(u0)), u0, np.array([1.0]))


def wing_flutter(n, u_start):
    """The n-mode Galerkin wing and its flutter point near U = u_start."""
    op = build_galerkin_wing(GalerkinWingSpec(n_bending=n // 2, n_torsion=n // 2))
    return op, next(fp for fp in find_flutter_points(op) if abs(fp.point.U - u_start) < 1e-3)


def ending_mode(op, u_end):
    """op.func below u_end; above it the identity, which has no eigenvalue."""
    def func(chi, u):
        return op.func(chi, u) if u < u_end else np.eye(op.dim, dtype=complex)
    return func


@pytest.fixture(scope="module")
def traj_scale(traj_flutter):
    p = traj_flutter.point
    return (max(abs(p.U), 1.0), max(abs(p.chi_R), 1.0))


def closed_form_tangent(u, chi_r, dchi):
    """The unit tangent initial_tangent should give for the branch slope dchi = dchi/dU at
    (u, chi_r): scaled by its default scale, normalized, dchi_i >= 0."""
    us, cs = max(abs(u), 1.0), max(abs(chi_r), 1.0)
    t = np.array([1.0 / us, dchi.real / cs, dchi.imag / cs])
    t /= np.linalg.norm(t)
    return -t if t[2] < 0.0 else t


def scaled_operator(op, c):
    """c A(chi, U), with its derivatives scaled alike."""
    return dataclasses.replace(op, func=lambda chi, u: c * op.func(chi, u),
                               derivs=lambda chi, u: tuple(c * d for d in op.derivs(chi, u)))


@functools.lru_cache(maxsize=None)
def scale_cases():
    """(operator, start, tangent): the typical section's flutter point and the n=4 wing's three."""
    ops = (build_typical_section(), build_galerkin_wing())
    return [(op, fp, initial_tangent(op, fp)) for op in ops for fp in find_flutter_points(op)]


class TestInitialTangent:
    def test_matches_closed_form_slope(self, traj_op, traj_flutter, traj_oracle, traj_scale):
        t = initial_tangent(traj_op, traj_flutter)
        slope = (t.dchi_i * traj_scale[1]) / (t.du * traj_scale[0])
        g_prime = P.polyval(120.0, P.polyder(traj_oracle.mode.g_coeffs))
        assert slope == pytest.approx(g_prime, rel=1e-12)
        assert t.dchi_i > 0.0
        assert np.isclose(np.linalg.norm(t.array()), 1.0, atol=1e-12)

    @pytest.mark.parametrize("preset, u", [(reference_restabilization_spec, 120.0),
                                           (two_crossing_spec, 120.0), (two_crossing_spec, 300.0)],
                             ids=["restabilization@120", "two_crossing@120", "two_crossing@300"])
    def test_trajectory_presets_match_their_closed_form(self, preset, u):
        # dchi/dU = omega'(U) + i g'(U) of the crossing mode
        mode = preset().modes[0]
        op = build_trajectory_operator(preset())
        p = next(fp.point for fp in find_flutter_points(op, Window(10.0, 500.0, 20.0, 200.0))
                 if abs(fp.point.U - u) < 1e-6)
        dchi = complex(P.polyval(p.U, P.polyder(mode.omega_coeffs)),
                       P.polyval(p.U, P.polyder(mode.g_coeffs)))
        expected = closed_form_tangent(p.U, p.chi_R, dchi)  # on the point's own scale
        assert initial_tangent(op, p).array() == pytest.approx(expected, abs=1e-12)

    def test_symmetric_trajectory_collinear(self):
        # g(U) = c (U_f - U): tangent collinear with (1, omega', -c) scaled
        c, u_f = 0.02, 150.0
        spec = TrajectorySpec(modes=(
            ModeTrajectory(omega_coeffs=(60.0, -0.05), g_coeffs=(c * u_f, -c)),
            ModeTrajectory(omega_coeffs=(170.0,), g_coeffs=(4.0,))))
        op = build_trajectory_operator(spec)
        fp = find_flutter_points(op, Window(50.0, 250.0, 30.0, 100.0))[0]
        t = initial_tangent(op, fp)
        scale = (max(abs(fp.point.U), 1.0), max(abs(fp.point.chi_R), 1.0))
        ref = np.array([1.0 / scale[0], -0.05 / scale[1], -c / scale[1]])
        ref /= np.linalg.norm(ref)
        cosine = abs(float(t.array() @ ref))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_generated_oscillators_match_their_closed_form(self):
        # mode k of each draw has dchi/dU = -i a_k omega_k at its flutter point (U_k, omega_k)
        count = 0
        for k, (u_k, omega, a, q) in enumerate(draw_oscillators(np.random.default_rng(1), 300)):
            op = oscillator_operator(u_k, omega, a, q)
            for fp in find_flutter_points(op):
                j = int(np.argmin(np.abs(u_k - fp.point.U)))
                expected = closed_form_tangent(fp.point.U, fp.point.chi_R, -1j * a[j] * omega[j])
                assert initial_tangent(op, fp).array() == pytest.approx(expected, abs=1e-10), k
                count += 1
        assert count >= 700  # each found point is checked; the search itself is test_flutter's

    @settings(max_examples=60)
    @given(case=st.integers(0, 3), exponent=st.floats(-6.0, 9.0))
    def test_rescaled_operator_gives_the_same_tangent(self, case, exponent):
        # c A has the same singular vectors and branch: c log-uniform in [1e-6, 1e9]
        op, fp, t = scale_cases()[case]
        scaled = initial_tangent(scaled_operator(op, 10.0 ** exponent), fp)
        assert scaled.array() == pytest.approx(t.array(), abs=1e-12)

    def test_non_holomorphic_callable(self):
        # A = (chi_R - omega(U)) + 2i (chi_I - g(U)) vanishes on chi = omega + i g, but is not
        # holomorphic in chi (dA/dchi_I = 2i, not i dA/dchi_R): -b / a_R would double g'
        def func(chi, u):
            return np.array([[chi.real - (50.0 - 0.05 * u) + 2j * (chi.imag - 0.01 * (u - 100.0))]])

        def derivs(chi, u):
            return np.array([[1.0 + 0j]]), np.array([[2j]]), np.array([[0.05 - 0.02j]])

        op = ParametricOperator("non_holomorphic", 1, func, Window(0.0, 200.0, 10.0, 90.0),
                                derivs=derivs)
        start = EigenPoint.from_vector(op, 45.0, 0.0, 100.0, np.array([1.0]))
        expected = closed_form_tangent(100.0, 45.0, complex(-0.05, 0.01))
        assert initial_tangent(op, start).array() == pytest.approx(expected, abs=1e-15)

    def test_defective_start_is_a_degenerate_tangent(self):
        # at the double eigenvalue y^H dA/dchi x = 0: there is no one branch to follow
        op = crossing_pencil()
        start = EigenPoint.from_vector(op, 50.0, 0.0, 100.0, np.array([1.0, 0.0]))
        assert _converged(start.residual)
        with pytest.raises(DegenerateTangentError, match="non-simple eigenvalue at U=100.0"):
            initial_tangent(op, start)

    def test_negation_is_exact(self):
        t = Tangent(0.6, -0.64, 0.48)
        n = t.negated()
        assert (n.du, n.dchi_r, n.dchi_i) == (-0.6, 0.64, -0.48)


class TestModeJumped:
    @settings(max_examples=40)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1),
           theta=st.floats(-2 * np.pi, 2 * np.pi))
    def test_phase_is_ignored_and_an_orthogonal_vector_jumps(self, n, seed, theta):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        x /= np.linalg.norm(x)
        y -= np.vdot(x, y) * x
        y /= np.linalg.norm(y)
        assert not _mode_jumped(x, x * np.exp(1j * theta))
        assert _mode_jumped(x, y)


class TestFdTangent:
    def test_axis_step(self, traj_op):
        x = np.array([1.0, 0.0])
        prev = EigenPoint(1.0, 0.0, 1.0, x)
        curr = EigenPoint(1.0, 0.0, 2.0, x)
        t = fd_tangent(prev, curr, (1.0, 1.0))
        assert (t.du, t.dchi_r, t.dchi_i) == (1.0, 0.0, 0.0)

    def test_diagonal_step(self):
        x = np.array([1.0, 0.0])
        prev = EigenPoint(0.0, 0.0, 0.0, x)
        curr = EigenPoint(1.0, 0.0, 1.0, x)
        t = fd_tangent(prev, curr, (1.0, 1.0))
        assert t.du == pytest.approx(1 / np.sqrt(2.0), abs=1e-15)
        assert t.dchi_r == pytest.approx(1 / np.sqrt(2.0), abs=1e-15)

    def test_coincident_points_rejected(self):
        x = np.array([1.0, 0.0])
        p = EigenPoint(1.0, 0.0, 1.0, x)
        with pytest.raises(DegenerateTangentError):
            fd_tangent(p, p, (1.0, 1.0))

    def test_first_order_against_analytic(self, traj_point, traj_oracle, traj_scale):
        u0 = 300.0
        analytic = np.array([1.0 / traj_scale[0], traj_oracle.domega(u0) / traj_scale[1],
                             traj_oracle.dg(u0) / traj_scale[1]])
        analytic /= np.linalg.norm(analytic)
        errs = []
        for du in (12.0, 6.0):
            t = fd_tangent(traj_point(u0 - du), traj_point(u0), traj_scale)
            errs.append(np.linalg.norm(t.array() - analytic))
        assert errs[1] <= 0.75 * errs[0]  # first-order secant error


class TestPredictor:
    def test_zero_step(self, traj_point, traj_scale):
        base = traj_point(200.0)
        t = Tangent(1.0, 0.0, 0.0)
        assert predictor(base, t, 0.0, traj_scale) == (base.U, base.chi_R, base.chi_I)

    def test_unit_scale_step(self):
        base = EigenPoint(50.0, 0.0, 100.0, np.array([1.0, 0.0]))
        guess = predictor(base, Tangent(1.0, 0.0, 0.0), 2.0, (1.0, 1.0))
        assert guess == (102.0, 50.0, 0.0)

    def test_quadratic_error(self, traj_point, traj_oracle, traj_scale):
        base = traj_point(300.0)

        def chord_point(ds):
            def gap(u):
                p = traj_point(u)
                return scaled_gap(p, base, traj_scale) - ds
            u_true = brentq(gap, 300.0 + 1e-9, 420.0, xtol=1e-13)
            return traj_point(u_true)

        raw = np.array([1.0, traj_oracle.domega(300.0), traj_oracle.dg(300.0)])
        t_arr = np.array([raw[0] / traj_scale[0], raw[1] / traj_scale[1], raw[2] / traj_scale[1]])
        t_arr /= np.linalg.norm(t_arr)
        t = Tangent(*t_arr)
        errs = []
        for ds in (0.4, 0.2):
            guess = predictor(base, t, ds, traj_scale)
            true = chord_point(ds)
            errs.append(np.linalg.norm([(guess[0] - true.U) / traj_scale[0],
                                        (guess[1] - true.chi_R) / traj_scale[1],
                                        (guess[2] - true.chi_I) / traj_scale[1]]))
        assert 3.3 <= errs[0] / errs[1] <= 4.7


class TestCorrectors:
    def test_fixed_point_converges_immediately(self, traj_op, traj_point, traj_scale):
        base = traj_point(300.0)
        target = traj_point(306.0)
        t = fd_tangent(base, target, traj_scale)
        ds = scaled_gap(target, base, traj_scale)
        settings = ContinuationSettings(ds=0.05, scale=traj_scale)
        for correct in (corrector_slp, corrector_newton):
            out, _ = correct(traj_op, (target.U, target.chi_R, target.chi_I), base, t, ds,
                             settings)
            assert scaled_gap(out, target, traj_scale) <= 1e-10

    def test_large_step_lands_on_trajectory(self, traj_op, traj_flutter, traj_oracle,
                                            traj_scale):
        settings = ContinuationSettings(ds=0.5, max_ds=0.5)
        t = initial_tangent(traj_op, traj_flutter).negated()
        base = traj_flutter.point
        guess = predictor(base, t, 0.5, traj_scale)
        pt, _ = corrector_slp(traj_op, guess, base, t, 0.5, settings)
        assert abs(pt.chi_R - traj_oracle.omega(pt.U)) <= 1e-8
        assert abs(pt.chi_I - traj_oracle.g(pt.U)) <= 1e-8
        constraint = (t.array() @ np.array([(pt.U - base.U) / traj_scale[0],
                                            (pt.chi_R - base.chi_R) / traj_scale[1],
                                            (pt.chi_I - base.chi_I) / traj_scale[1]]) - 0.5)
        assert abs(constraint) <= 1e-10

    def test_constraint_forms_agree(self, traj_op, traj_flutter, traj_scale):
        base = traj_flutter.point
        t = initial_tangent(traj_op, traj_flutter).negated()
        guess = predictor(base, t, 0.2, traj_scale)
        eq2, _ = corrector_slp(traj_op, guess, base, t, 0.2,
                               ContinuationSettings(constraint_form="eq2"))
        eq3, _ = corrector_slp(traj_op, guess, base, t, 0.2,
                               ContinuationSettings(constraint_form="eq3"))
        assert scaled_gap(eq2, eq3, traj_scale) <= 1e-8

    def test_slp_newton_agree_on_step(self, ts_op, ts_flutter):
        scale = (max(abs(ts_flutter.point.U), 1.0), max(abs(ts_flutter.point.chi_R), 1.0))
        t = initial_tangent(ts_op, ts_flutter)
        base = ts_flutter.point
        guess = predictor(base, t, 0.1, scale)
        settings = ContinuationSettings(scale=scale)
        a, _ = corrector_slp(ts_op, guess, base, t, 0.1, settings)
        b, _ = corrector_newton(ts_op, guess, base, t, 0.1, settings)
        assert scaled_gap(a, b, scale) <= 1e-8
        assert a.residual <= 1e-10 and b.residual <= 1e-10

    def test_slp_point_carries_the_sigma_min_it_accepted(self, ts_op, ts_flutter):
        scale = (max(abs(ts_flutter.point.U), 1.0), max(abs(ts_flutter.point.chi_R), 1.0))
        t = initial_tangent(ts_op, ts_flutter)
        base = ts_flutter.point
        p, _ = corrector_slp(ts_op, predictor(base, t, 0.1, scale), base, t, 0.1,
                             ContinuationSettings(scale=scale))
        assert p.residual == sigma_min(ts_op, p.chi, p.U)[0]

    def test_slp_accepted_point_is_not_evaluated_again(self, ts_op, ts_flutter):
        calls = []

        def func(chi, u):
            calls.append((chi, u))
            return ts_op.func(chi, u)

        op = dataclasses.replace(ts_op, name="counting", func=func)
        scale = (max(abs(ts_flutter.point.U), 1.0), max(abs(ts_flutter.point.chi_R), 1.0))
        t = initial_tangent(ts_op, ts_flutter)
        base = ts_flutter.point
        settings = ContinuationSettings(scale=scale)
        _, iterations = corrector_slp(op, predictor(base, t, 0.1, scale), base, t, 0.1,
                                      settings)
        assert iterations >= 2
        assert len(calls) == iterations + 1
        assert sum(a == b for a, b in zip(calls, calls[1:])) == 0

    def test_slp_stall_is_a_convergence_error(self, ts_op, ts_flutter):
        # A scaled by 1e9: the increments reach rounding level while sigma_min stays above the gate
        op = dataclasses.replace(
            ts_op, func=lambda chi, u: 1e9 * ts_op.func(chi, u),
            derivs=lambda chi, u: tuple(1e9 * d for d in ts_op.derivs(chi, u)))
        base = ts_flutter.point
        t = initial_tangent(ts_op, ts_flutter)
        guess = predictor(base, t, 0.05, (max(abs(base.U), 1.0), max(abs(base.chi_R), 1.0)))
        with pytest.raises(ConvergenceError, match="SLP stalled") as info:
            corrector_slp(op, guess, base, t, 0.05)
        assert info.value.iterations == 2

    def test_slp_eigenvector_jump_is_noted_once_by_trace_path(self, ts_op, ts_flutter,
                                                              monkeypatch, caplog):
        # from the second call on (the first is initial_tangent's), the sigma_min vector is
        # swapped for its orthogonal one: the SLP corrector only returns it, so the step
        # lands where it did unswapped, and trace_path notes the switch once, logging nothing
        settings = ContinuationSettings(corrector="slp", max_steps=1)
        plain = trace_path(ts_op, ts_flutter, settings=settings)
        vectors = []

        def swapped(op, a, chi, u):
            sigma, x, y = _sigma_min_of(op, a, chi, u)
            vectors.append(x)
            return sigma, x if len(vectors) == 1 else np.array([-x[1].conj(), x[0].conj()]), y

        monkeypatch.setattr("flutterspec.continuation._sigma_min_of", swapped)
        with caplog.at_level(logging.DEBUG):
            path = trace_path(ts_op, ts_flutter, settings=settings)
        assert len(vectors) >= 3  # the tangent's, then two corrector iterations or more
        assert plain.notes == [] and path.notes == ["mode switch suspected at step 1"]
        assert [(p.U, p.chi_R, p.chi_I) for p in path.points] == [
            (p.U, p.chi_R, p.chi_I) for p in plain.points]
        assert caplog.records == []

    def test_slp_zero_tangent_has_no_increment(self, ts_op, ts_flutter):
        # every term of Delta_0 carries a tangent component, so Delta_0 = 0
        base = ts_flutter.point
        with pytest.raises(ConvergenceError, match="no real increment triple"):
            corrector_slp(ts_op, (base.U, base.chi_R, base.chi_I), base, Tangent(0.0, 0.0, 0.0),
                          0.1)

    def test_trace_path_dispatches_to_the_public_correctors(self):
        assert _CORRECTORS == {"slp": corrector_slp, "newton": corrector_newton}

    @pytest.mark.parametrize("corrector", ["slp", "newton"])
    def test_first_trace_step_is_the_corrector_point(self, ts_op, ts_flutter, corrector):
        # a corrector called alone takes its default scale at base, here the start point
        settings = ContinuationSettings(corrector=corrector, max_steps=1)
        path = trace_path(ts_op, ts_flutter, settings=settings)
        base = ts_flutter.point
        t = initial_tangent(ts_op, base)
        guess = predictor(base, t, settings.ds, path.scale)
        point, _ = _CORRECTORS[corrector](ts_op, guess, base, t, settings.ds, settings)
        first = path.points[1]
        assert path.s == [0.0, settings.ds]
        assert (first.chi_R, first.chi_I, first.U, first.residual) == (
            point.chi_R, point.chi_I, point.U, point.residual)
        assert np.array_equal(first.x, point.x)

    @pytest.mark.parametrize("correct", [corrector_slp, corrector_newton], ids=["slp", "newton"])
    def test_corrector_counts_its_iterations(self, ts_op, ts_flutter, correct):
        base = ts_flutter.point
        t = initial_tangent(ts_op, base)
        scale = (max(abs(base.U), 1.0), max(abs(base.chi_R), 1.0))
        point, iterations = correct(ts_op, predictor(base, t, 0.1, scale), base, t, 0.1)
        assert type(iterations) is int and iterations >= 1
        assert _converged(point.residual)


def random_blocks(seed, n):
    """Complex n x n tops (V1, V2, V3, -A0) and a real scalar row."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n)),
            tuple(rng.standard_normal(4)))


def known_solution_problem(seed, n):
    """A0 = B - sum eta*_k V_k with B x = 0, and the row value r = t.eta*."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    b -= np.outer(b @ x, x.conj())                     # B x = 0
    vs = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    eta_star = rng.uniform(-0.1, 0.1, 3)
    a0 = b - np.einsum("k,kij->ij", eta_star, vs)
    du, dr, di = rng.standard_normal(3)
    t = Tangent(du, dr, di)
    r = dr * eta_star[0] + di * eta_star[1] + du * eta_star[2]
    return a0, vs, t, r, eta_star


class TestSlpLinearStep:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_cached_gather_index_is_a_read_only_permutation(self, n):
        index = _hermitian_index(n)
        assert index is _hermitian_index(n) and index.shape == (n * n, n * n)
        assert np.array_equal(np.sort(index, axis=None), np.arange(n ** 4))
        with pytest.raises(ValueError, match="read-only"):
            index[0, 0] = 0

    # n up to 8, the largest SLP operator the benchmark traces (the n = 8 wing)
    @settings(max_examples=30)
    @given(n=st.integers(1, 8), pivot=st.integers(0, 2), seed=st.integers(0, 2 ** 32 - 1))
    def test_real_forms_are_the_determinants_in_the_hermitian_basis(self, n, pivot, seed):
        # eliminating eta_k with the scalar row scales Delta_0, Delta_a, Delta_b
        # of the three-parameter problem by (-1)^k / t_k
        tops, bots = random_blocks(seed, n)
        row = list(bots[:3])
        top = int(np.argmax(np.abs(row)))
        row[pivot], row[top] = row[top], row[pivot]
        bots = (*row, bots[3])
        a, b = (j for j in range(3) if j != pivot)
        tk, vk = row[pivot], tops[pivot]
        forms = _real_forms(np.stack([
            tops[a] - (row[a] / tk) * vk, tops[b] - (row[b] / tk) * vk,
            tops[3] - (bots[3] / tk) * vk]))
        deltas = (-1.0) ** pivot * kron_operator_determinants(tops, bots)[[0, a + 1, b + 1]] / tk
        u = swap_symmetric_unitary(n)
        dense = np.array([u.conj().T @ (1j * d) @ u for d in deltas])
        assert np.abs(dense.imag).max() <= 1e-14 * np.abs(dense).max()
        assert forms.dtype == np.float64 and forms.shape == (3, n * n, n * n)
        assert np.abs(forms - dense.real).max() <= 1e-14 * np.abs(forms).max()
        complex_qz = scipy.linalg.eig(deltas[1], deltas[0], right=False)
        real_qz = scipy.linalg.eig(forms[1], forms[0], right=False)
        for lam in real_qz[real_qz.imag == 0.0].real:
            assert np.min(np.abs(complex_qz - lam)) <= 1e-9 * max(1.0, abs(lam))

    # n up to 8, the largest SLP operator the benchmark traces (the n = 8 wing)
    @settings(max_examples=30)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_step_solves_a_problem_with_known_solution(self, n, seed):
        a0, vs, t, r, eta_star = known_solution_problem(seed, n)
        eta, nrm = _slp_increment(a0, vs[0], vs[1], vs[2], t, r)
        assert eta.dtype == np.float64 and nrm == np.linalg.norm(eta)
        a = a0 + np.einsum("k,kij->ij", eta, vs)
        scale = np.linalg.norm(a0) + sum(abs(e) * np.linalg.norm(v) for e, v in zip(eta, vs))
        assert np.linalg.svd(a, compute_uv=False)[-1] <= 1e-10 * scale
        assert abs(t.dchi_r * eta[0] + t.dchi_i * eta[1] + t.du * eta[2] - r) <= 1e-12 * (1.0 + abs(r))
        assert nrm <= np.linalg.norm(eta_star) * (1.0 + 1e-9)

    @settings(max_examples=30)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_step_matches_three_parameter_reference(self, n, seed):
        a0, vs, t, r, _ = known_solution_problem(seed, n)
        expected, norms = reference_slp_increment(a0, vs, t, r)
        first, second = np.sort(norms)[:2] if len(norms) > 1 else (norms[0], np.inf)
        assume(first < (1.0 - 1e-6) * second)             # a near-tie may pick either
        eta, _ = _slp_increment(a0, vs[0], vs[1], vs[2], t, r)
        assert np.linalg.norm(eta - expected) <= 1e-8 * np.linalg.norm(expected)

    def test_exactly_singular_delta_a_is_a_convergence_error(self):
        # a0 = 0 and r = 0 make B_0 = 0, so Delta_a = Delta(-B_0, B_b) is exactly zero
        _, vs, t, _, _ = known_solution_problem(7, 3)
        with pytest.raises(ConvergenceError, match="eigenproblem failed"):
            _slp_increment(np.zeros((3, 3), complex), vs[0], vs[1], vs[2], t, 0.0)

    def test_no_real_triple_is_a_convergence_error(self):
        # the 8th complex normal draw of default_rng(0) has no real increment triple
        rng = np.random.default_rng(0)
        blocks = [rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
                  for _ in range(8)][-1]
        with pytest.raises(ConvergenceError, match="no real increment triple"):
            _slp_increment(*blocks, Tangent(0.3, 0.5, 0.8), 0.1)


def off_newton_branch(op, path, newton):
    """Largest relative chi gap between each path point and the airspeed-fixed solve there,
    seeded from the Newton path point nearest in U."""
    us = np.array([p.U for p in newton.points])
    gaps = [abs(solve_at_airspeed(op, p.U, newton.points[int(np.argmin(np.abs(us - p.U)))]).chi
                - p.chi) / abs(p.chi) for p in path.points]
    return max(gaps)


JUMP = ("default SLP from the wing points near U = 53.47 leaves the Newton branch near "
        "U = 81.3 and still ends window-exit")


class TestWingSlp:
    @pytest.mark.parametrize("n, u_start", [
        (8, 9.2458),
        pytest.param(4, 53.4609, marks=pytest.mark.xfail(strict=True, reason=JUMP)),
        pytest.param(8, 53.4733, marks=pytest.mark.xfail(strict=True, reason=JUMP)),
    ])
    def test_default_slp_stays_on_the_newton_branch(self, n, u_start):
        op, start = wing_flutter(n, u_start)
        slp = trace_path(op, start, +1, ContinuationSettings(corrector="slp"))
        newton = trace_path(op, start, +1, ContinuationSettings(corrector="newton"))
        assert slp.termination_reason == newton.termination_reason == "window-exit"
        assert off_newton_branch(op, slp, newton) <= 1e-8

    @pytest.mark.parametrize("n, rank", [(4, 0), (4, 1), (8, 0), (8, 1)])
    def test_paths_are_robust_to_rounding_in_the_slp_increment(self, monkeypatch, n, rank):
        # each increment scaled by 1 + 1e-13 N(0, 1) keeps the path's point count and end;
        # the counts themselves depend on the BLAS build, so only their invariance is pinned
        op = build_galerkin_wing(GalerkinWingSpec(n_bending=n // 2, n_torsion=n // 2))
        start = sorted(find_flutter_points(op), key=lambda fp: fp.point.U)[rank]
        base = trace_path(op, start, +1)
        increment = continuation._slp_increment
        for seed in range(4):
            rng = np.random.default_rng(seed)
            calls = []

            def perturbed(*args):
                eta, norm = increment(*args)
                factor = 1.0 + 1e-13 * rng.standard_normal()
                calls.append(factor)
                return eta * factor, norm * factor

            monkeypatch.setattr(continuation, "_slp_increment", perturbed)
            path = trace_path(op, start, +1)
            assert calls
            assert ((len(path.points), path.termination_reason)
                    == (len(base.points), base.termination_reason)), seed


@pytest.fixture(scope="module")
def flutter_starts(traj_op, traj_flutter, ts_op, ts_flutter):
    wing = build_galerkin_wing()
    return {"traj": (traj_op, [traj_flutter]), "typical_section": (ts_op, [ts_flutter]),
            "wing_n4": (wing, find_flutter_points(wing))}


class TestAcceptedResidual:
    """A path point carries the residual its corrector accepted, so it is a valid start."""

    @pytest.mark.parametrize("corrector", ["newton", "slp"])
    @pytest.mark.parametrize("key, direction, kwargs", [
        ("traj", -1, {"ds": 0.025, "max_ds": 0.025, "max_steps": 300}),
        ("typical_section", +1, {}),
        ("typical_section", -1, {}),
        ("wing_n4", +1, {}),
    ], ids=["traj", "typical_section+1", "typical_section-1", "wing_n4"])
    def test_every_path_point_passes_the_gate(self, flutter_starts, key, direction, kwargs,
                                              corrector):
        op, starts = flutter_starts[key]
        for start in starts:
            path = trace_path(op, start, direction,
                              ContinuationSettings(corrector=corrector, **kwargs))
            assert len(path.points) > 1
            assert all(_converged(p.residual) for p in path.points)

    def test_sixteen_mode_wing_restarts_from_every_slp_point(self):
        # accepted at sigma_min <= 1e-10, these points' ||A x|| reaches 5.9e-10
        op, start = wing_flutter(16, 9.2458)
        path = trace_path(op, start, +1, ContinuationSettings())
        assert len(path.points) > 1
        for p in path.points[1:]:
            trace_path(op, p, settings=ContinuationSettings(max_steps=0))


class TestContinuationSettings:
    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            ContinuationSettings(max_steps=-3)

    @pytest.mark.parametrize("scale", [[1.0], [0.0, 1.0], [1.0, float("inf")], 2.0])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale"):
            ContinuationSettings(scale=scale)

    @pytest.mark.parametrize("kwargs, message", [
        ({"ds": 0.0, "min_ds": 0.0}, "min_ds <= ds"),
        ({"ds": 1e-7}, "min_ds <= ds"),
        ({"ds": 0.6}, "ds <= max_ds"),
        ({"ds": math.inf, "max_ds": math.inf}, "max_ds < inf"),
        ({"max_ds": math.inf}, "max_ds < inf"),
        ({"max_ds": math.nan}, "max_ds < inf"),
        ({"max_corrector_iters": 0}, "max_corrector_iters"),
        ({"corrector": "broyden"}, "corrector"),
        ({"constraint_form": "eq4"}, "constraint_form"),
        ({"max_steps": 2.5}, "max_steps must be an integer"),
        ({"max_steps": True}, "max_steps must be an integer"),
        ({"max_corrector_iters": 2.5}, "max_corrector_iters must be an integer"),
        ({"max_corrector_iters": True}, "max_corrector_iters must be an integer"),
    ], ids=["zero_min_ds", "ds_below_min_ds", "ds_above_max_ds", "infinite_ds_and_max_ds",
            "infinite_max_ds", "nan_max_ds", "max_corrector_iters",
            "corrector", "constraint_form", "float_max_steps", "bool_max_steps",
            "float_max_corrector_iters", "bool_max_corrector_iters"])
    def test_invalid_field_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ContinuationSettings(**kwargs)

    def test_scale_stored_as_tuple(self):
        assert ContinuationSettings(scale=[120.0, 54.0]).scale == (120.0, 54.0)


class TestTracePath:
    def test_zero_steps_returns_start_only(self, traj_op, traj_flutter):
        path = trace_path(traj_op, traj_flutter,
                          settings=ContinuationSettings(max_steps=0))
        assert len(path.points) == 1
        assert path.s == [0.0]
        assert path.termination_reason == "max-steps"

    def test_zero_steps_from_a_non_simple_start_is_a_degenerate_tangent(self):
        # the start's tangent is taken before the step loop, whatever max_steps is
        op = crossing_pencil()
        start = EigenPoint.from_vector(op, 50.0, 0.0, 100.0, np.array([1.0, 0.0]))
        with pytest.raises(DegenerateTangentError, match="non-simple eigenvalue at U=100.0"):
            trace_path(op, start, settings=ContinuationSettings(max_steps=0))

    def test_start_residual_validated(self, traj_op):
        bad = EigenPoint(54.0, 0.0, 119.0, np.array([1.0, 0.0]), residual=1.0)
        with pytest.raises(ValueError):
            trace_path(traj_op, bad)

    def test_path_invariants(self, traj_op, traj_oracle, super_path):
        settings_tol = 1e-10
        assert super_path.termination_reason in ("max-steps", "window-exit")
        s = np.array(super_path.s)
        assert (np.diff(s) > 0).all()
        for p in super_path.points:
            assert p.residual <= settings_tol
            assert abs(np.linalg.norm(p.x) - 1.0) <= 1e-12
            assert abs(p.chi_R - traj_oracle.omega(p.U)) <= 1e-8
            assert abs(p.chi_I - traj_oracle.g(p.U)) <= 1e-8

    def test_constraint_satisfied_each_step(self, super_path, traj_op):
        pts = super_path.points
        scale = super_path.scale
        ds = np.diff(super_path.s)
        t = initial_tangent(traj_op, pts[0], scale=scale).negated()
        for k in range(len(pts) - 1):
            if k >= 1:
                t = fd_tangent(pts[k - 1], pts[k], scale)
            gap = np.array([(pts[k + 1].U - pts[k].U) / scale[0],
                            (pts[k + 1].chi_R - pts[k].chi_R) / scale[1],
                            (pts[k + 1].chi_I - pts[k].chi_I) / scale[1]])
            assert abs(float(t.array() @ gap) - ds[k]) <= 1e-10

    def test_step_distance_matches_ds(self, traj_op, traj_flutter):
        # chord length approaches the arclength step as O(curvature^2 ds^3)
        settings = ContinuationSettings(ds=0.0125, max_ds=0.0125, max_steps=60)
        path = trace_path(traj_op, traj_flutter, direction=-1, settings=settings)
        pts, scale = path.points, path.scale
        ds = np.diff(path.s)
        for k in range(len(pts) - 1):
            assert abs(scaled_gap(pts[k + 1], pts[k], scale) - ds[k]) <= 1e-8

    def test_min_ds_exhausted_after_accepted_steps(self):
        op, seed = linear_damping_mode(10.0)
        ends = dataclasses.replace(op, func=ending_mode(op, 12.5), derivs=None)
        for corrector in ("newton", "slp"):
            settings = ContinuationSettings(ds=0.05, max_ds=0.1, min_ds=1e-3,
                                            corrector=corrector)
            path = trace_path(ends, seed, settings=settings)
            assert path.termination_reason == "min-ds-exhausted"
            assert len(path.points) >= 2
            assert all(p.U < 12.5 for p in path.points)

    def test_newton_path_on_typical_section_has_no_notes(self, ts_op, ts_flutter):
        # both directions reach the window edge (9 and 17 points) on the flutter mode
        for direction in (+1, -1):
            path = trace_path(ts_op, ts_flutter, direction=direction,
                              settings=ContinuationSettings(corrector="newton"))
            assert path.termination_reason == "window-exit" and len(path.points) > 5
            assert path.notes == []

    # True == 1 and 1.0 == 1, but neither is the int -1 or 1
    @pytest.mark.parametrize("direction", [0, 7, -2, 0.5, True, 1.0, -1.0])
    def test_direction_other_than_plus_or_minus_one_rejected(self, ts_op, ts_flutter,
                                                             direction):
        with pytest.raises(ValueError, match=rf"direction must be -1 or 1, not {direction!r}"):
            trace_path(ts_op, ts_flutter, direction=direction)

    def test_direction_sign(self, traj_op, traj_flutter):
        settings = ContinuationSettings(ds=0.05, max_ds=0.05, max_steps=3)
        sub = trace_path(traj_op, traj_flutter, direction=+1, settings=settings)
        sup = trace_path(traj_op, traj_flutter, direction=-1, settings=settings)
        assert sub.points[1].chi_I > 0 > sup.points[1].chi_I


class TestNaturalContinuation:
    def test_zero_length_range(self, traj_op, traj_point):
        seed = traj_point(250.0)
        path = natural_continuation(traj_op, 250.0, 250.0, 5.0, seed)
        assert len(path.points) == 1
        assert path.points[0] is seed

    def test_restabilization_matches_closed_form(self, traj_op, traj_point, traj_oracle):
        path = natural_continuation(traj_op, 0.0, 700.0, 5.0, traj_point(0.0))
        assert path.termination_reason == "completed"
        assert len(path.points) == 141
        for p in path.points:
            assert abs(p.chi_I - traj_oracle.g(p.U)) <= 1e-8

    def test_typical_section_crossing_brackets_oracle(self, ts_op, ts_oracle):
        from flutterspec import sigma_min
        _, x = sigma_min(ts_op, complex(43.2, 0.0), 1.0)
        guess = EigenPoint.from_vector(ts_op, 43.2, 0.0, 1.0, x)
        seed = solve_at_airspeed(ts_op, 1.0, guess)
        path = natural_continuation(ts_op, 1.0, 60.0, 0.5, seed)
        zs = np.array([p.chi_I for p in path.points])
        us = np.array([p.U for p in path.points])
        k = np.nonzero((zs[:-1] > 0) & (zs[1:] <= 0))[0]
        assert k.size == 1
        assert us[k[0]] <= ts_oracle[0] <= us[k[0] + 1]

    def test_non_convergence_ends_the_path(self):
        op, seed = linear_damping_mode(10.0)
        ends = dataclasses.replace(op, func=ending_mode(op, 12.5), derivs=None)
        path = natural_continuation(ends, 10.0, 20.0, 1.0, seed)
        assert path.termination_reason.startswith("non-convergence at U=13:")
        assert [p.U for p in path.points] == [10.0, 11.0, 12.0]

    def test_seed_airspeed_validated(self, traj_op, traj_point):
        with pytest.raises(ValueError):
            natural_continuation(traj_op, 100.0, 200.0, 5.0, traj_point(250.0))


class TestDampingContinuation:
    def test_single_value_returns_seed(self, traj_op, traj_point, traj_oracle):
        u0 = 500.0
        seed = traj_point(u0)
        path = damping_continuation(traj_op, [traj_oracle.g(u0)],
                                    DampingParameterization.CHI_I, seed)
        assert path.points == [seed]
        assert path.termination_reason == "completed"

    def test_terminates_before_hump_extremum(self, traj_op, traj_point, traj_oracle):
        u0 = brentq(lambda u: traj_oracle.g(u) + 0.3, 400.0, traj_oracle.hump_u)
        seed = traj_point(u0)
        d_values = np.arange(traj_oracle.g(u0), -0.04, 0.01)
        path = damping_continuation(traj_op, d_values, DampingParameterization.CHI_I, seed)
        assert path.termination_reason == "turning-point suspected"
        assert path.points[-1].chi_I < traj_oracle.hump_g
        assert len(path.points) < len(d_values)

    def test_zeta_round_trips_chi_i_run(self, traj_op, traj_point, traj_oracle):
        u0 = brentq(lambda u: traj_oracle.g(u) + 0.3, 400.0, traj_oracle.hump_u)
        seed = traj_point(u0)
        d_values = [traj_oracle.g(u0) + 0.05 * k for k in range(4)]
        chi_run = damping_continuation(traj_op, d_values, DampingParameterization.CHI_I, seed)
        assert chi_run.termination_reason == "completed"
        zeta_values = [p.chi_I / abs(p.chi) for p in chi_run.points]
        zeta_run = damping_continuation(traj_op, zeta_values, DampingParameterization.ZETA,
                                        seed)
        assert zeta_run.termination_reason == "completed"
        scale = (max(abs(u0), 1.0), max(abs(seed.chi_R), 1.0))
        for a, b in zip(chi_run.points, zeta_run.points):
            assert scaled_gap(a, b, scale) <= 1e-8

    def test_xi_round_trips_chi_i_run(self, traj_op, traj_point, traj_oracle):
        u0 = brentq(lambda u: traj_oracle.g(u) + 0.3, 400.0, traj_oracle.hump_u)
        seed = traj_point(u0)
        d_values = [traj_oracle.g(u0) + 0.05 * k for k in range(4)]
        chi_run = damping_continuation(traj_op, d_values, DampingParameterization.CHI_I, seed)
        xi_values = [p.chi_I / p.chi_R for p in chi_run.points]
        xi_run = damping_continuation(traj_op, xi_values, DampingParameterization.XI, seed)
        assert xi_run.termination_reason == "completed"
        scale = (max(abs(u0), 1.0), max(abs(seed.chi_R), 1.0))
        for a, b in zip(chi_run.points, xi_run.points):
            assert scaled_gap(a, b, scale) <= 1e-8

    def test_far_converged_step_hits_the_jump_guard(self):
        # chi_I = 0.01 (U - 10): a damping step of 0.04 moves U by 4, 0.4 of the U scale
        op, seed = linear_damping_mode(10.0)
        path = damping_continuation(op, [seed.chi_I, 0.01, 0.05],
                                    DampingParameterization.CHI_I, seed)
        assert path.termination_reason == "turning-point suspected"
        assert [p.U for p in path.points] == pytest.approx([10.0, 11.0], abs=1e-9)

    @pytest.mark.parametrize("p, levels", [
        (DampingParameterization.CHI_I, [math.nan]),
        (DampingParameterization.XI, [0.0, math.inf]),
        (DampingParameterization.ZETA, [0.0, 0.001, 1.5]),
    ], ids=["nan_seed_level", "infinite_level", "zeta_past_one"])
    def test_every_level_is_checked_before_the_first_solve(self, p, levels):
        op, seed = linear_damping_mode(10.0)  # chi_I = 0 at the seed: level 0 in each p
        calls = []

        def func(chi, u):
            calls.append(u)
            return op.func(chi, u)

        with pytest.raises(ValueError):
            damping_continuation(dataclasses.replace(op, func=func), levels, p, seed)
        assert calls == []

    def test_monotonicity_validated(self, traj_op, traj_point, traj_oracle):
        seed = traj_point(500.0)
        g0 = traj_oracle.g(500.0)
        with pytest.raises(ValueError):
            damping_continuation(traj_op, [g0, g0 + 0.1, g0 - 0.1],
                                 DampingParameterization.CHI_I, seed)


class TestFlightEnvelope:
    def test_out_of_range_level_empty(self, super_path, traj_op):
        # levels inside (-1, 1) that the path never reaches
        zetas = super_path.zetas()
        assert flight_envelope(super_path, (zetas.min() - 1.0) / 2.0, op=traj_op) == []
        assert flight_envelope(super_path, (zetas.max() + 1.0) / 2.0, op=traj_op) == []

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, 1.0, -1.5])
    @pytest.mark.parametrize("refined", [True, False])
    def test_level_outside_the_zeta_domain_rejected(self, super_path, traj_op, level, refined):
        # a damping ratio lies in (-1, 1): a level outside it is an error, not an empty result
        with pytest.raises(ValueError, match="zeta"):
            flight_envelope(super_path, level, op=traj_op if refined else None)

    def test_level_crossing_matches_closed_form(self, traj_op, traj_flutter, traj_oracle):
        settings = ContinuationSettings(ds=0.05, max_ds=0.05, max_steps=40)
        path = trace_path(traj_op, traj_flutter, direction=+1, settings=settings)
        crossings = flight_envelope(path, 0.05, op=traj_op)
        assert len(crossings) == 1
        u_star = traj_oracle.u_at_zeta(0.05, 10.0, 119.0)
        assert crossings[0].u_star == pytest.approx(u_star, rel=1e-6)
        assert crossings[0].side == "subcritical"

    def test_zero_level_recovers_flutter_point(self, traj_op, traj_point):
        path = natural_continuation(traj_op, 100.0, 140.0, 1.7, traj_point(100.0))
        crossings = flight_envelope(path, 0.0, op=traj_op)
        assert len(crossings) == 1
        assert crossings[0].u_star == pytest.approx(120.0, abs=1e-8)

    def test_crossing_consistency_and_sides(self, super_path, traj_op):
        crossings = flight_envelope(super_path, -0.01, op=traj_op)
        assert len(crossings) == 3
        assert [c.side for c in crossings] == ["subcritical", "supercritical", "subcritical"]
        for c in crossings:
            zeta = c.point.chi_I / abs(c.point.chi)
            assert abs(zeta - (-0.01)) <= 1e-8
            u_lo, u_hi = sorted((super_path.points[c.bracket[0]].U,
                                 super_path.points[c.bracket[1]].U))
            assert u_lo <= c.u_star <= u_hi

    @pytest.mark.parametrize("at", ["first", "interior", "last"])
    def test_level_exactly_at_a_path_point(self, traj_op, traj_point, at):
        path = natural_continuation(traj_op, 100.0, 140.0, 1.7, traj_point(100.0))
        zetas = path.zetas()
        assert np.all(np.diff(zetas) < 0.0)  # one crossing per level
        last = len(zetas) - 1
        k = {"first": 0, "interior": 5, "last": last}[at]
        crossings = flight_envelope(path, float(zetas[k]), op=traj_op)
        # the neighbouring segments, with a zero end, add no crossing of their own
        assert len(crossings) == 1
        c = crossings[0]
        assert c.bracket == (max(k - 1, 0), min(k + 1, last))
        assert c.u_star == path.points[k].U and c.point is path.points[k]
        assert c.side == "subcritical"

    def test_interpolation_only_without_operator(self, super_path):
        refined = flight_envelope(super_path, -0.01, op=None)
        assert len(refined) == 3
        assert all(c.point is None for c in refined)

    @pytest.mark.parametrize("omega", [50.0, -50.0])
    def test_crossing_refined_only_where_chi_r_is_positive(self, omega):
        # chi = omega + 0.01 i (U - 10): zeta = 0.001 near U = 15 on either sign of omega, but
        # there the ZETA row vanishes at zeta = 0.001 only for omega > 0 (at -0.001 for omega < 0)
        spec = TrajectorySpec(modes=(ModeTrajectory((omega,), (-0.1, 0.01)),))
        op = build_trajectory_operator(spec, Window(0.0, 100.0, -60.0, 60.0))
        points = [EigenPoint.from_vector(op, omega, float(spec.modes[0].g(u)), u, np.array([1.0]))
                  for u in (10.0, 20.0)]
        path = ModePath(points=points, s=[0.0, 1.0], origin="natural")
        [c] = flight_envelope(path, 0.001, op=op)
        assert c.bracket == (0, 1)
        if omega > 0.0:
            assert c.point.chi_I / abs(c.point.chi) == pytest.approx(0.001, abs=1e-15)
            assert c.u_star == pytest.approx(10.0 + 100.0 * omega * 0.001 / math.sqrt(1.0 - 1e-6),
                                             rel=1e-12)
        else:
            assert c.point is None
            assert c.u_star == pytest.approx(15.0, abs=1e-3)


class TestExtremumDamping:
    def test_monotone_path_boundary_flag(self, traj_op, traj_flutter):
        settings = ContinuationSettings(ds=0.05, max_ds=0.05, max_steps=10)
        path = trace_path(traj_op, traj_flutter, direction=+1, settings=settings)
        result = extremum_damping(path, op=traj_op)
        assert result.on_boundary is True
        assert result.point is path.points[-1]

    def test_hump_extremum(self, super_path, traj_op, traj_oracle):
        result = extremum_damping(super_path, op=traj_op)
        assert result.on_boundary is False
        assert result.point.U == pytest.approx(traj_oracle.zeta_ext_u, rel=1e-4)
        assert result.zeta == pytest.approx(traj_oracle.zeta(traj_oracle.zeta_ext_u),
                                            abs=1e-6)

    def test_symmetric_hump_center(self):
        spec = TrajectorySpec(modes=(
            ModeTrajectory(omega_coeffs=(50.0,), g_coeffs=(0.5 - 1e-4 * 300.0 ** 2,
                                                           2e-4 * 300.0, -1e-4)),))
        op = build_trajectory_operator(spec, Window(200.0, 400.0, 40.0, 60.0))
        mode = spec.modes[0]
        seed = EigenPoint.from_vector(op, 50.0, float(mode.g(250.0)), 250.0, np.array([1.0]))
        path = natural_continuation(op, 250.0, 350.0, 5.0, seed)
        result = extremum_damping(path, op=op)
        assert result.on_boundary is False
        assert result.point.U == pytest.approx(300.0, abs=1e-6)

    def test_flat_bracket_takes_the_middle_point(self, traj_op):
        points = [EigenPoint.from_vector(traj_op, 50.0, 0.0, u, np.array([1.0, 0.0]))
                  for u in (100.0, 101.0, 102.0)]
        path = ModePath(points=points, s=[0.0, 0.01, 0.02], origin="flat")
        result = extremum_damping(path)
        assert result.point is points[1]
        assert result.zeta == 0.0 and result.on_boundary is False

    def test_short_path_rejected(self, traj_op, traj_point):
        path = natural_continuation(traj_op, 250.0, 250.0, 5.0, traj_point(250.0))
        with pytest.raises(ValueError):
            extremum_damping(path, op=traj_op)


@pytest.mark.parametrize("call, message", [
    (lambda op, pt: natural_continuation(op, 250.0, 300.0, 0.0, pt), "dU must be positive"),
    (lambda op, pt: natural_continuation(op, 250.0, math.inf, 5.0, pt), "must be finite"),
    (lambda op, pt: natural_continuation(op, math.nan, 300.0, 5.0, pt), "must be finite"),
    (lambda op, pt: natural_continuation(op, 250.0, 300.0, math.inf, pt), "positive and finite"),
    (lambda op, pt: damping_continuation(op, [pt.chi_I / abs(pt.chi), 1.0],
                                         DampingParameterization.ZETA, pt),
     r"zeta value 1.0 outside \(-1, 1\)"),
    (lambda op, pt: damping_continuation(op, [], DampingParameterization.CHI_I, pt),
     "d_values must be nonempty"),
    (lambda op, pt: damping_continuation(op, [pt.chi_I + 0.5], DampingParameterization.CHI_I, pt),
     "does not match d_values"),
], ids=["natural_dU", "natural_U_end_inf", "natural_U_start_nan", "natural_dU_inf",
        "zeta_out_of_range", "empty_d_values", "seed_damping"])
def test_invalid_arguments_rejected(traj_op, traj_point, call, message):
    with pytest.raises(ValueError, match=message):
        call(traj_op, traj_point(250.0))

"""Operator evaluation, singular values, derivatives, damping maps."""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flutterspec import (DampingParameterization, EigenPoint, Grid2D, NumericalError,
                         ParametricOperator, Window, build_normal_operator, compute_sigma_field,
                         evaluate, param_derivatives, residual_norm, sigma_min)
from flutterspec.continuation import ModePath
from flutterspec.flutter import FlutterPoint
from flutterspec.operator import (Pencil, _norm, _solve_bordered, evaluate_batch,
                                  polynomial_pencil)

from conftest import NORMAL_EIGENVALUES, distance_to_spectrum

WIDE = Window(-100.0, 100.0, -100.0, 100.0)


@pytest.fixture(scope="module")
def identity_op():
    return ParametricOperator("identity", 2, lambda chi, u: np.eye(2, dtype=complex), WIDE)


@pytest.fixture(scope="module")
def shifted_op():
    return build_normal_operator([1.0, 3.0], WIDE)


class TestEvaluate:
    def test_identity(self, identity_op):
        for chi, u in ((0.0, 0.0), (1 + 2j, 5.0), (-3.0, 40.0)):
            assert np.array_equal(evaluate(identity_op, chi, u), np.eye(2))

    def test_shifted_diagonal(self, shifted_op):
        a = evaluate(shifted_op, 1.0, 0.0)
        assert np.array_equal(a, np.diag([0.0, 2.0]).astype(complex))

    def test_typical_section_at_origin_is_stiffness(self, ts_op):
        a = evaluate(ts_op, 0.0, 0.0)
        assert np.allclose(a, np.diag([20000.0, 7200.0]), rtol=0, atol=0)

    def test_nonfinite_arguments_rejected(self, identity_op):
        with pytest.raises(ValueError):
            evaluate(identity_op, complex(np.nan, 0.0), 1.0)
        with pytest.raises(ValueError):
            evaluate(identity_op, 1.0, np.inf)

    def test_wrong_shape_rejected(self):
        op = ParametricOperator("bad", 3, lambda chi, u: np.eye(2, dtype=complex), WIDE)
        with pytest.raises(ValueError):
            evaluate(op, 0.0, 0.0)


class TestEvaluateBatch:
    @settings(max_examples=40)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
           exps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                         min_size=1, max_size=12, unique=True))
    def test_random_pencil_matches_per_node(self, n, seed, exps):
        rng = np.random.default_rng(seed)
        coeffs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                  for _ in exps]
        op = polynomial_pencil("random", [(a, b, c) for (a, b), c in zip(exps, coeffs)], WIDE)
        chis = rng.uniform(-30.0, 30.0, 9) + 1j * rng.uniform(-3.0, 3.0, 9)
        us = rng.uniform(-20.0, 60.0, 9)
        batch = evaluate_batch(op, chis, us)
        assert batch.shape == (9, n, n)
        for k, (chi, u) in enumerate(zip(chis, us)):
            weights = [complex(chi) ** a * float(u) ** b for a, b in exps]
            direct = sum(w * c for w, c in zip(weights, coeffs))
            bound = 1e-14 * sum(abs(w) * np.linalg.norm(c) for w, c in zip(weights, coeffs))
            assert np.linalg.norm(batch[k] - evaluate(op, chi, u)) <= bound
            assert np.linalg.norm(batch[k] - direct) <= bound

    def test_broadcast_scalar_airspeed(self, ts_op):
        chis = np.linspace(5.0, 70.0, 6) + 0.5j
        batch = evaluate_batch(ts_op, chis, 30.0)
        for k, chi in enumerate(chis):
            assert np.allclose(batch[k], evaluate(ts_op, chi, 30.0), rtol=1e-14, atol=0)

    def test_plain_callable_node_by_node(self):
        calls = []

        def func(chi, u):
            calls.append((chi, u))
            return np.array([[chi, u], [chi * u, 1.0]], dtype=complex)

        op = ParametricOperator("callable", 2, func, WIDE)
        chis = np.array([1.0 + 2.0j, -3.0, 0.5j])
        batch = evaluate_batch(op, chis, [4.0, 5.0, 6.0])
        nodes = [(1.0 + 2.0j, 4.0), (-3.0 + 0j, 5.0), (0.5j, 6.0)]
        assert calls == nodes
        for k, (chi, u) in enumerate(nodes):
            assert np.array_equal(batch[k], func(chi, u))

    @pytest.mark.parametrize("bad", [(complex(np.nan, 0.0), 1.0), (1.0, np.inf)])
    def test_nonfinite_arguments_rejected(self, shifted_op, identity_op, bad):
        for op in (shifted_op, identity_op):
            with pytest.raises(ValueError):
                evaluate_batch(op, [0.5, bad[0]], [0.0, bad[1]])

    def test_wrong_shape_rejected(self):
        op = ParametricOperator("bad", 3, lambda chi, u: np.eye(2, dtype=complex), WIDE)
        with pytest.raises(ValueError):
            evaluate_batch(op, [0.0, 1.0], 0.0)

    def test_pencil_derivatives_are_exact(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = np.array([[0.0, 1.0], [-1.0, 0.5]])
        op = polynomial_pencil("pencil", [(2, 0, -m), (1, 1, 1j * d), (0, 3, m)], WIDE)
        chi, u = 1.7 - 0.2j, 3.0
        d_r, d_i, d_u = param_derivatives(op, chi.real, chi.imag, u)
        assert np.allclose(d_r, -2.0 * chi * m + 1j * u * d, rtol=1e-15, atol=1e-15)
        assert np.allclose(d_i, 1j * d_r, rtol=0, atol=0)
        assert np.allclose(d_u, 1j * chi * d + 3.0 * u ** 2 * m, rtol=1e-15, atol=1e-14)

    def test_replaced_func_is_followed(self, shifted_op):
        """dataclasses.replace(op, func=f) batches through f, pencil or not."""
        grid = Grid2D((0.0, 1.0, 3), (0.0, 4.0, 9))
        chis, us = grid.w_values(), 0.5
        doubled = dataclasses.replace(shifted_op, func=lambda chi, u: 2.0 * shifted_op.func(chi, u))
        other = polynomial_pencil("other", [(0, 0, np.diag([2.0, 6.0])), (1, 0, -2.0 * np.eye(2))],
                                  WIDE)
        repenciled = dataclasses.replace(shifted_op, func=other.func)
        base = evaluate_batch(shifted_op, chis, us)
        for op in (doubled, repenciled):
            assert np.array_equal(evaluate_batch(op, chis, us), 2.0 * base)
            assert np.array_equal(compute_sigma_field(op, grid).values,
                                  2.0 * compute_sigma_field(shifted_op, grid).values)
        with pytest.raises(ValueError, match="must be 3x3"):
            dataclasses.replace(shifted_op, dim=3)

    def test_pencil_is_read_only_and_equal_by_identity(self, shifted_op):
        pencil = shifted_op.func
        assert isinstance(pencil, Pencil) and shifted_op.derivs == pencil.derivs
        with pytest.raises(ValueError):
            pencil.coeffs[0, 0, 0] = 5.0
        twin = Pencil(pencil.exps, pencil.coeffs)
        assert twin != pencil and pencil == pencil
        assert shifted_op == dataclasses.replace(shifted_op)
        assert shifted_op != dataclasses.replace(shifted_op, func=twin, derivs=twin.derivs)

    def test_invalid_terms_rejected(self):
        with pytest.raises(ValueError):
            polynomial_pencil("empty", [], WIDE)
        with pytest.raises(ValueError):
            polynomial_pencil("negative", [(-1, 0, np.eye(2))], WIDE)
        with pytest.raises(ValueError):
            polynomial_pencil("mixed", [(0, 0, np.eye(2)), (1, 0, np.eye(3))], WIDE)


class TestPencil:
    """A Pencil built from its terms alone: checked, read-only, and its own derivatives."""

    @settings(max_examples=40)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           exps=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=8))
    @example(n=2, seed=0, exps=[(0, 0)])
    @example(n=3, seed=1, exps=[(1, 2), (0, 0), (1, 2), (2, 0), (2, 0)])
    def test_derivs_differentiate_the_terms(self, n, seed, exps):
        rng = np.random.default_rng(seed)
        shape = (len(exps), n, n)
        coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        pencil = Pencil(exps, coeffs)
        op = ParametricOperator("direct", n, pencil, WIDE, derivs=pencil.derivs)
        fd_op = dataclasses.replace(op, derivs=None)
        for chi, u in zip(rng.uniform(-2.0, 2.0, 5) + 1j * rng.uniform(-1.0, 1.0, 5),
                          rng.uniform(-2.0, 2.0, 5)):
            d_r, d_i, d_u = param_derivatives(op, chi.real, chi.imag, u)
            # the derivative sum, term by term, and its per-term magnitude
            w_chi = [a * complex(chi) ** (a - 1) * float(u) ** b if a else 0.0 for a, b in exps]
            w_u = [b * complex(chi) ** a * float(u) ** (b - 1) if b else 0.0 for a, b in exps]
            for d, ws in ((d_r, w_chi), (d_u, w_u)):
                direct = sum(w * c for w, c in zip(ws, coeffs))
                bound = 1e-13 * sum(abs(w) * np.linalg.norm(c) for w, c in zip(ws, coeffs))
                assert np.linalg.norm(d - direct) <= bound
            assert np.array_equal(d_i, 1j * d_r)
            for a, fd in zip((d_r, d_i, d_u), param_derivatives(fd_op, chi.real, chi.imag, u)):
                # the acceptance bound on analytic vs central-difference derivatives
                assert np.linalg.norm(a - fd) <= 1e-5 * max(np.linalg.norm(a), 1.0)

    def test_directly_built_pencil_gives_exact_derivatives(self):
        """The same derivatives as test_pencil_derivatives_are_exact's pencil, bit for bit."""
        m = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = np.array([[0.0, 1.0], [-1.0, 0.5]])
        pencil = Pencil(((2, 0), (1, 1), (0, 3)), np.stack([-m, 1j * d, m]))
        op = ParametricOperator("direct", 2, pencil, WIDE, derivs=pencil.derivs)
        built = polynomial_pencil("built", [(2, 0, -m), (1, 1, 1j * d), (0, 3, m)], WIDE)
        for ours, theirs in zip(param_derivatives(op, 1.7, -0.2, 3.0),
                                param_derivatives(built, 1.7, -0.2, 3.0)):
            assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("exps, shape", [
        (((-1, 0),), (1, 2, 2)),
        (((0, -2),), (1, 2, 2)),
        (((0.5, 0),), (1, 2, 2)),
        (((0, 0), (1, 0)), (1, 2, 2)),
        (((0, 0),), (2, 2, 2)),
        (((0, 0),), (1, 2, 3)),
        (((0, 0),), (2, 2)),
        ((), (0, 2, 2)),
    ], ids=["negative_a", "negative_b", "fractional", "more_exponents", "more_coefficients",
            "non_square", "not_a_stack", "empty"])
    def test_invalid_terms_rejected(self, exps, shape):
        with pytest.raises(ValueError):
            Pencil(exps, np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_coefficients_rejected(self, bad):
        coeffs = np.ones((2, 2, 2), dtype=complex)
        coeffs[1, 0, 1] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            Pencil(((0, 0), (1, 0)), coeffs)

    def test_stack_is_a_read_only_copy(self):
        coeffs = np.array([np.eye(2), np.diag([1.0, 2.0])])
        pencil = Pencil(((0, 0), (1, 0)), coeffs)
        assert coeffs.flags.writeable and not pencil.coeffs.flags.writeable
        assert pencil.coeffs.dtype == complex
        with pytest.raises(ValueError):
            pencil.coeffs[0, 0, 0] = 5.0
        coeffs[0, 0, 0] = 5.0
        assert pencil.coeffs[0, 0, 0] == 1.0
        assert np.array_equal(pencil(2.0 + 0j, 0.0), np.diag([3.0, 5.0]))


# entries within a factor 1e4 of each other, so that the summation order shows in the
# last bit, or zero; scaled by 10^-148 to 10^148, the squares neither overflow nor underflow
ENTRIES = st.one_of(st.just(0.0), st.builds(lambda m, e, sign: sign * m * 10.0 ** e,
                                            st.floats(1.0, 10.0), st.integers(-2, 1),
                                            st.sampled_from((-1.0, 1.0))))


class TestNorm:
    @settings(max_examples=200)
    @given(re=st.lists(ENTRIES, max_size=80), im=st.lists(ENTRIES, max_size=80),
           exponent=st.integers(-148, 148), is_complex=st.booleans(), stride=st.integers(1, 2))
    def test_equals_numpy_bit_for_bit(self, re, im, exponent, is_complex, stride):
        # length 0 to 40, contiguous or every other entry of a longer array
        x = np.array(re)
        if is_complex:
            x = x[:len(im)] + 1j * np.array(im[:len(x)])
        x = (x * 10.0 ** exponent)[::stride][:40]
        assert type(_norm(x)) is float
        assert _norm(x) == np.linalg.norm(x)


class TestResidualNorm:
    def test_identity_basis_vector(self, identity_op):
        assert residual_norm(identity_op, 0.0, 0.0, np.array([1.0, 0.0])) == 1.0

    def test_exact_null_vector(self, shifted_op):
        assert residual_norm(shifted_op, 1.0, 0.0, np.array([1.0, 0.0])) == 0.0

    def test_closed_form_eigentriple(self, traj_op, traj_oracle):
        u = 310.0
        chi = complex(traj_oracle.omega(u), traj_oracle.g(u))
        assert residual_norm(traj_op, chi, u, np.array([1.0, 0.0])) <= 1e-12

    def test_non_unit_vector_rejected(self, identity_op):
        with pytest.raises(ValueError):
            residual_norm(identity_op, 0.0, 0.0, np.array([1.0, 1.0]))


class TestSigmaMin:
    def test_identity(self, identity_op):
        sigma, x = sigma_min(identity_op, 0.0, 0.0)
        assert sigma == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-14)

    def test_shifted_null_direction(self, shifted_op):
        sigma, x = sigma_min(shifted_op, 1.0, 0.0)
        assert sigma == 0.0
        assert abs(x[0]) == pytest.approx(1.0, abs=1e-14)

    def test_normal_fixture_distance(self, normal_op):
        rng = np.random.default_rng(7)
        for chi in rng.uniform(-2.0, 9.0, size=40):
            sigma, _ = sigma_min(normal_op, complex(chi, 0.0), 0.0)
            assert sigma == pytest.approx(distance_to_spectrum(chi), abs=1e-9)

    def test_residual_matches_sigma(self, ts_op):
        sigma, x = sigma_min(ts_op, complex(30.0, 2.0), 25.0)
        assert residual_norm(ts_op, complex(30.0, 2.0), 25.0, x) == pytest.approx(sigma, abs=1e-10)

    def test_nan_operator_is_a_numerical_error(self):
        op = ParametricOperator("nan", 2, lambda chi, u: np.full((2, 2), np.nan, dtype=complex),
                                WIDE)
        with pytest.raises(NumericalError, match="SVD failed for operator 'nan'"):
            sigma_min(op, 1.0, 0.0)

    def test_min_max_bound(self, ts_op):
        rng = np.random.default_rng(11)
        sigma, _ = sigma_min(ts_op, complex(35.0, 1.0), 30.0)
        for _ in range(50):
            x = rng.normal(size=2) + 1j * rng.normal(size=2)
            x /= np.linalg.norm(x)
            assert sigma <= residual_norm(ts_op, complex(35.0, 1.0), 30.0, x) + 1e-12


class TestParamDerivatives:
    def test_polynomial_pencil(self):
        m = np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex)
        k = np.diag([5.0, 9.0]).astype(complex)
        op = ParametricOperator("pencil", 2, lambda chi, u: -chi * chi * m + k, WIDE)
        chi_r = 1.7
        d_r, d_i, d_u = param_derivatives(op, chi_r, 0.0, 0.0)
        assert np.allclose(d_r, -2.0 * chi_r * m, rtol=1e-7)
        assert np.allclose(d_i, -2.0j * chi_r * m, rtol=1e-7)
        assert np.allclose(d_u, 0.0, atol=1e-8)

    def test_typical_section_fd_vs_analytic(self, ts_op):
        fd_op = dataclasses.replace(ts_op, derivs=None)
        analytic = param_derivatives(ts_op, 30.0, 1.5, 20.0)
        numeric = param_derivatives(fd_op, 30.0, 1.5, 20.0)
        for a, n in zip(analytic, numeric):
            assert np.linalg.norm(a - n) / np.linalg.norm(a) <= 1e-6

    def test_fd_consistency_all_fixtures(self, traj_op, ts_op, normal_op):
        rng = np.random.default_rng(3)
        for op in (traj_op, ts_op, normal_op):
            fd_op = dataclasses.replace(op, derivs=None)
            w = op.window
            for _ in range(5):
                u = rng.uniform(w.u_min + 0.1 * w.u_span, w.u_max - 0.1 * w.u_span)
                wr = rng.uniform(w.chi_r_min + 0.1 * w.chi_r_span,
                                 w.chi_r_max - 0.1 * w.chi_r_span)
                wi = rng.uniform(-1.0, 1.0)
                analytic = param_derivatives(op, wr, wi, u)
                numeric = param_derivatives(fd_op, wr, wi, u)
                for a, n in zip(analytic, numeric):
                    scale = max(np.linalg.norm(a), 1.0)
                    assert np.linalg.norm(a - n) / scale <= 1e-5


ZETA, XI, CHI_I = (DampingParameterization.ZETA, DampingParameterization.XI,
                   DampingParameterization.CHI_I)


def member_and_level():
    """A parameterization and a level in its domain: |d| up to 1 - 1e-6 for ZETA, 5 otherwise."""
    return st.sampled_from(list(DampingParameterization)).flatmap(
        lambda p: st.tuples(st.just(p), st.floats(-(1.0 - 1e-6), 1.0 - 1e-6) if p is ZETA
                            else st.floats(-5.0, 5.0)))


class TestDampingMaps:
    def test_chi_i_forward(self):
        assert CHI_I.chi(2.0, 0.5) == 2.0 + 0.5j

    def test_xi_forward(self):
        assert XI.chi(2.0, 0.1) == pytest.approx(2.0 + 0.2j, abs=1e-15)

    def test_zeta_zero_damping(self):
        for omega in (0.5, 2.0, 731.0):
            assert ZETA.chi(omega, 0.0) == omega

    def test_zeta_ratio_definition(self):
        # forward map realizes zeta = chi_I/|chi| exactly
        chi = ZETA.chi(3.0, 0.6)
        assert chi.imag / abs(chi) == pytest.approx(0.6, abs=1e-15)
        assert chi.real == 3.0

    def test_chi_i_inverse(self):
        assert CHI_I.level(2.0 + 0.5j) == 0.5

    def test_zeta_inverse_pythagorean(self):
        assert ZETA.level(3.0 + 4.0j) == pytest.approx(0.8, abs=1e-15)

    @settings(max_examples=200)
    @given(member=member_and_level(), chi_r=st.floats(0.1, 500.0), u=st.floats(0.0, 100.0))
    @example(member=(ZETA, 1.0 - 1e-6), chi_r=500.0, u=0.0)
    @example(member=(ZETA, -(1.0 - 1e-6)), chi_r=0.1, u=100.0)
    def test_level_inverts_chi_and_row_vanishes_there(self, member, chi_r, u):
        # level(chi(chi_R, d)) is d, and the bordered solver's row for d is zero (to rounding)
        # at that chi, with its gradient the row's derivative in (chi_R, chi_I, U)
        p, d = member
        chi = p.chi(chi_r, d)
        assert chi.real == chi_r
        assert p.level(chi) == pytest.approx(d, rel=1e-12, abs=1e-300)
        row = p.row(d)
        value, grad = row(chi.real, chi.imag, u)
        assert abs(value) <= 1e-12 * (1.0 + abs(chi))
        h = 1e-3
        for k in range(3):
            step = np.eye(3)[k] * h
            plus = row(*(np.array([chi.real, chi.imag, u]) + step))[0]
            minus = row(*(np.array([chi.real, chi.imag, u]) - step))[0]
            assert (plus - minus) / (2.0 * h) == pytest.approx(grad[k], abs=1e-9)

    def test_zeta_domain_errors(self):
        with pytest.raises(ValueError, match=r"zeta value 1.0 outside \(-1, 1\)"):
            ZETA.row(1.0)
        with pytest.raises(ValueError):
            ZETA.chi(2.0, 1.0)
        with pytest.raises(ValueError):
            ZETA.chi(-2.0, 0.5)
        with pytest.raises(ValueError):
            ZETA.level(-1.0 + 1.0j)
        with pytest.raises(ValueError):
            XI.level(-1.0 + 1.0j)

    @pytest.mark.parametrize("p", list(DampingParameterization))
    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, p, d):
        with pytest.raises(ValueError, match="non-finite damping arguments"):
            p.row(d)
        with pytest.raises(ValueError, match="non-finite damping arguments"):
            p.chi(2.0, d)


class TestEigenPoint:
    def test_invariants(self, traj_op, traj_oracle):
        u = 250.0
        pt = EigenPoint.from_vector(traj_op, traj_oracle.omega(u), traj_oracle.g(u), u,
                                    np.array([2.0, 0.0]))
        assert abs(np.linalg.norm(pt.x) - 1.0) <= 1e-12
        assert pt.residual == residual_norm(traj_op, pt.chi, pt.U, pt.x)
        assert all(math.isfinite(v) for v in (pt.chi_R, pt.chi_I, pt.U))

    def test_zero_vector_rejected(self, traj_op):
        with pytest.raises(ValueError):
            EigenPoint.from_vector(traj_op, 50.0, 0.0, 10.0, np.zeros(2))

    @pytest.mark.parametrize("theta", [0.3, -1.2, math.pi / 2, math.pi, 2.9])
    def test_phase_is_fixed(self, ts_op, theta):
        x = np.array([0.3 - 0.4j, -0.8 + 0.1j])
        expected = x / np.linalg.norm(x) * np.exp(-1j * np.angle(x[1]))
        pt = EigenPoint.from_vector(ts_op, 30.0, 1.0, 20.0, x * np.exp(1j * theta))
        assert np.abs(pt.x - expected).max() <= 1e-15
        assert pt.x[1].real > 0.0 and abs(pt.x[1].imag) <= 1e-16

    def test_phase_tie_takes_first_entry(self, ts_op):
        pt = EigenPoint.from_vector(ts_op, 30.0, 1.0, 20.0, np.array([0.6j, -0.6]))
        assert np.abs(pt.x - np.array([1.0, 1.0j]) / math.sqrt(2.0)).max() <= 1e-15

    def test_equal_only_to_itself(self, ts_op):
        # comparing the eigenvector array raised for n >= 2; a point, and so each record
        # that holds one, compares and hashes by identity
        p = EigenPoint.from_vector(ts_op, 30.0, 1.0, 20.0, np.array([0.6, 0.8j]))
        twin = copy.copy(p)
        assert p == p and p != twin
        assert p in [twin, p] and twin not in [p]
        assert hash(p) == hash(p)
        fp = FlutterPoint(p, (ts_op.window,), iterations=3)
        table = {fp: "first", FlutterPoint(twin): "twin"}
        assert table[fp] == "first" and table[dataclasses.replace(fp)] == "first"
        path = ModePath(points=[p, twin], s=[0.0, 0.1], origin=fp)
        assert path == path and path != ModePath(points=[twin, p], s=[0.0, 0.1], origin=fp)


class TestSolveBordered:
    def test_accepted_point_is_not_evaluated_again(self, ts_op):
        calls = []

        def func(chi, u):
            calls.append((chi, u))
            return ts_op.func(chi, u)

        op = ParametricOperator("counting", 2, func, ts_op.window)
        _, x = sigma_min(ts_op, 43.2, 1.0)
        _, iterations = _solve_bordered(op, (1.0, 43.2, 0.0), x,
                                        lambda wr, wi, u: (u - 1.0, (0.0, 0.0, 1.0)))
        assert iterations >= 2
        repeats = sum(a == b for a, b in zip(calls, calls[1:]))
        # the accepted point reuses the A of the last iteration
        assert repeats == 0


class TestWindow:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Window(1.0, 1.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            Window(0.0, 1.0, 3.0, 2.0)

    def test_contains(self):
        w = Window(0.0, 10.0, 1.0, 5.0)
        assert w.contains(0.0, 1.0) and w.contains(10.0, 5.0)
        assert not w.contains(-0.1, 2.0) and not w.contains(5.0, 5.1)

    def test_admits_only_rectangles_inside_it(self):
        w = Window(0.0, 10.0, 1.0, 5.0)
        w._admit(w)
        w._admit(Window(2.0, 3.0, 4.0, 5.0))
        for inner in (Window(-0.1, 3.0, 2.0, 3.0), Window(2.0, 10.1, 2.0, 3.0),
                      Window(2.0, 3.0, 0.5, 3.0), Window(2.0, 3.0, 2.0, 5.5),
                      Window(-1.0, 11.0, 0.0, 6.0)):
            with pytest.raises(ValueError) as info:
                w._admit(inner)
            assert str(info.value) == f"window {inner!r} exceeds the operator window {w!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: Window(0.0, math.inf, 0.0, 1.0), "window bounds must be finite"),
    (lambda: ParametricOperator("empty", 0, lambda chi, u: np.zeros((0, 0)), WIDE),
     "operator dimension must be >= 1"),
    (lambda: CHI_I.chi(math.nan, 0.1), "non-finite damping arguments"),
    (lambda: CHI_I.level(complex(math.inf, 0.0)), "non-finite chi"),
], ids=["infinite_window", "zero_dimension", "nan_chi_R", "infinite_chi"])
def test_invalid_arguments_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()

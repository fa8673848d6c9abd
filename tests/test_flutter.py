"""Flutter location: eigenvalue-row candidates from a pencil's companion or from a Chebyshev
interpolant (plain callables, pencils without a companion), Newton polish and retries, checked
against the grid-free Hopf oracle, which is itself checked here against closed forms."""

import dataclasses
import functools
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flutterspec import flutter
from flutterspec import (ConvergenceError, FlutterSearchSettings, GalerkinWingSpec,
                         NumericalError, Window, build_galerkin_wing, build_normal_operator,
                         build_trajectory_operator, build_typical_section, evaluate,
                         find_flutter_points, locate_candidates, polish_flutter_point,
                         reference_restabilization_spec, residual_norm, sigma_min,
                         two_crossing_spec)
from flutterspec.models import MAX_MIXING_CONDITION, ModeTrajectory, TrajectorySpec
from flutterspec.operator import ParametricOperator, Pencil
from flutterspec.pseudospectrum import Grid2D, compute_det_field

from conftest import crossing_pencil, draw_oscillators, hopf_points, oscillator_operator

SEARCH = Window(10.0, 400.0, 20.0, 200.0)
README = Path(__file__).resolve().parents[1] / "README.md"

# The wing's flutter points to display precision, by mode count (the oracle gives them exactly).
WING_FLUTTER_U = {4: [9.2458, 53.4609, 64.5157], 8: [9.2458, 53.4733, 64.4316],
                  16: [9.2458, 53.4723, 64.4307]}


@functools.lru_cache(maxsize=None)
def wing_and_oracle(n):
    """The n-mode Galerkin wing and the Hopf oracle's flutter points in its window."""
    op = build_galerkin_wing(GalerkinWingSpec(n_bending=n // 2, n_torsion=n // 2))
    return op, hopf_points(op.func, op.window)


def plain_twin(op):
    """``op`` with its Pencil behind a plain callable: the same values and ``derivs``, but
    the search takes its rows from the Chebyshev interpolant, as for any plain callable."""
    return dataclasses.replace(op, func=lambda chi, u: op.func(chi, u))


@functools.lru_cache(maxsize=None)
def sweep_model(model):
    """(operator, search window, oracle flutter points sorted by U) of a sweep model: the
    Hopf oracle's points, or the closed form of a trajectory preset."""
    if model.startswith("wing"):
        op, expected = wing_and_oracle(int(model[len("wing_n"):]))
        return op, op.window, expected
    if model == "typical_section":
        op = build_typical_section()
        return op, op.window, hopf_points(op.func, op.window)
    readme = model == "restabilization"
    spec, crossings = ((reference_restabilization_spec(), [120.0]) if readme
                       else (two_crossing_spec(), [120.0, 300.0]))
    op = build_trajectory_operator(spec)
    return (op, SEARCH if readme else op.window,  # SEARCH is the README run's window
            [(u, float(spec.modes[0].omega(u))) for u in crossings])


def draw_quasi_steady(rng, count):
    """``count`` quasi-steady operators -chi^2 M + i chi U D + K + U^2 E from a numpy generator,
    on U in [1, 100] and chi_R in [1, 60]: n in 2..4, M = Q diag(0.5..2) Q^T, K = R diag(w^2) R^T
    with w sorted in (5, 50), Q and R orthogonal from QR, and D, E uniform in (-1, 1) times a
    scale drawn in (0.05, 1) and (0.01, 0.3)."""
    for _ in range(count):
        n = int(rng.integers(2, 5))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        m = q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T
        w = np.sort(rng.uniform(5.0, 50.0, n))
        r = np.linalg.qr(rng.standard_normal((n, n)))[0]
        k = r @ np.diag(w ** 2) @ r.T
        d = rng.uniform(-1.0, 1.0, (n, n)) * rng.uniform(0.05, 1.0)
        e = rng.uniform(-1.0, 1.0, (n, n)) * rng.uniform(0.01, 0.3)
        pencil = Pencil(((2, 0), (1, 1), (0, 0), (0, 2)), [-m, 1j * d, (k + k.T) / 2, e])
        yield ParametricOperator("quasi_steady", n, pencil, Window(1.0, 100.0, 1.0, 60.0),
                                 derivs=pencil.derivs)


@functools.lru_cache(maxsize=None)
def quasi_steady_family(seed, count=300):
    """(Hopf oracle points, searched (U, chi_R) points) of each ``draw_quasi_steady`` draw."""
    return [(hopf_points(op.func, op.window),
             [(fp.point.U, fp.point.chi_R) for fp in find_flutter_points(op)])
            for op in draw_quasi_steady(np.random.default_rng(seed), count)]


def same_point(p, q, rel=1e-9):
    return all(abs(a - b) <= rel * abs(b) for a, b in zip(p, q))


@pytest.mark.parametrize("kwargs, message", [
    ({"grid_count": 7}, "grid_count"),
    ({"refine_iters": 0}, "refine_iters"),
    ({"tol": 0.0}, "tol must be positive"),
    ({"tol": math.inf}, "tol must be positive and finite"),
    ({"tol": math.nan}, "tol must be positive and finite"),
    ({"max_iters": 0}, "max_iters"),
    ({"grid_count": 64.0}, "grid_count must be an integer"),
    ({"refine_iters": 1.5}, "refine_iters must be an integer"),
    ({"refine_iters": True}, "refine_iters must be an integer"),
    ({"max_iters": 2.5}, "max_iters must be an integer"),
    ({"max_iters": True}, "max_iters must be an integer"),
], ids=["grid_count", "refine_iters", "tol", "infinite_tol", "nan_tol", "max_iters",
        "float_grid_count", "float_refine_iters", "bool_refine_iters", "float_max_iters",
        "bool_max_iters"])
def test_invalid_search_settings_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        FlutterSearchSettings(**kwargs)


class TestLocateCandidates:
    def test_airspeed_independent_operator_is_empty(self):
        op = build_normal_operator([1.0, 3.0], Window(-10.0, 10.0, -1.0, 5.0))
        assert locate_candidates(op, Window(-5.0, 5.0, 0.0, 4.0)) == []

    def test_restabilization_candidate_in_final_cell(self, traj_op, traj_oracle):
        grid_count = 64
        cands = locate_candidates(traj_op, SEARCH, grid_count)
        assert len(cands) == 1
        cell_u = SEARCH.u_span / (grid_count - 1)
        cell_w = SEARCH.chi_r_span / (grid_count - 1)
        u, w = cands[0]
        assert abs(u - 120.0) <= cell_u
        assert abs(w - traj_oracle.omega(120.0)) <= cell_w

    def test_typical_section_candidate_near_oracle(self, ts_op, ts_oracle):
        cands = locate_candidates(ts_op, ts_op.window)
        assert len(cands) == 1
        cell_u = ts_op.window.u_span / 63.0
        cell_w = ts_op.window.chi_r_span / 63.0
        assert abs(cands[0][0] - ts_oracle[0]) <= cell_u
        assert abs(cands[0][1] - ts_oracle[1]) <= cell_w

    def test_refinement_never_worsens_displacement(self, traj_op):
        polished = 120.0, 54.0
        prev = np.inf
        for grid_count in (16, 32, 64, 128):
            cands = locate_candidates(traj_op, SEARCH, grid_count)
            assert len(cands) == 1
            disp = np.hypot(cands[0][0] - polished[0], cands[0][1] - polished[1])
            assert disp <= prev + 1e-12
            prev = disp

    @pytest.mark.parametrize("b, c", [(1.0, 1j), (2.0, 1.0 + 1j)], ids=["unit", "skew"])
    def test_det_zero_on_a_grid_node_of_a_plain_callable(self, b, c):
        # det = b (U - 31) + c (chi - 31) is zero at (31, 31), on the airspeed row U = 31,
        # where the interpolant's one eigenvalue is real: the branch crosses once
        op = ParametricOperator(
            "node", 1, lambda chi, u: np.array([[b * (u - 31.0) + c * (chi - 31.0)]]),
            Window(0.0, 63.0, 0.0, 63.0))
        (candidate,) = locate_candidates(op, op.window)
        assert candidate == pytest.approx((31.0, 31.0), rel=1e-12)
        (fp,) = find_flutter_points(op)
        assert (fp.point.U, fp.point.chi_R) == pytest.approx((31.0, 31.0), rel=1e-12)

    @pytest.mark.parametrize("a, b, lead", [
        (2, 0, np.zeros((2, 2))), (2, 0, np.diag([1e-4, 0.0])), (2, 0, np.diag([1e-3, 0.0])),
        (2, 0, np.diag([1e-2, 0.0])), (1, 1, 1e-4 * np.eye(2))],
        ids=["zero_lead", "singular_lead_1e-4", "singular_lead_1e-3", "singular_lead_1e-2",
             "airspeed_lead"])
    def test_pencil_without_a_companion_takes_the_chebyshev_rows(self, a, b, lead):
        # a chi^2 term with a singular coefficient makes the leading chi coefficient singular,
        # a chi U term makes it depend on U: neither pencil has a monic companion, so the
        # Chebyshev interpolant gives the rows.  The mode-1 entry s chi^2 + chi - chi_1(U) has
        # real roots where chi_1 does, so the chi_I = 0 crossings stay at U = 120 and 300
        base = build_trajectory_operator(two_crossing_spec())
        pencil = Pencil(base.func.exps + ((a, b),), [*base.func.coeffs, lead])
        assert flutter._monic_terms(pencil) is None
        op = ParametricOperator("no_companion", 2, pencil, base.window, derivs=pencil.derivs)
        window = Window(10.0, 500.0, 20.0, 200.0)
        assert [u for u, _ in locate_candidates(op, window)] == pytest.approx([120.0, 300.0],
                                                                             rel=1e-3)
        points = find_flutter_points(op, window)
        assert [fp.point.U for fp in points] == pytest.approx([120.0, 300.0], rel=1e-9)

    def test_infinite_eigenvalues_give_no_candidate(self):
        # lead diag(1e-2, 0) is exactly singular: the degree-2 interpolant's colleague pencil
        # has one infinite eigenvalue per row, put at the shift in every row, where its chi_I
        # never changes sign; the candidates are the two crossings alone
        base = build_trajectory_operator(two_crossing_spec())
        pencil = Pencil(base.func.exps + ((2, 0),), [*base.func.coeffs, np.diag([1e-2, 0.0])])
        op = ParametricOperator("singular_lead", 2, pencil, base.window, derivs=pencil.derivs)
        window = Window(10.0, 500.0, 20.0, 200.0)
        rows = flutter._chebyshev_rows(op, window)(np.linspace(10.0, 500.0, 64))
        assert rows.shape == (64, 4) and np.isfinite(rows).all()
        shift = 110.0 + 90.0 * flutter.CHEB_SHIFT
        assert (np.abs(rows - shift) <= 1e-9 * abs(shift)).sum(axis=1).tolist() == [1] * 64
        candidates = locate_candidates(op, window)
        assert [u for u, _ in candidates] == pytest.approx([120.0, 300.0], rel=1e-3)
        for (_, w), u in zip(candidates, (120.0, 300.0)):
            chi_1 = float(two_crossing_spec().modes[0].omega(u))
            assert w == pytest.approx((math.sqrt(1.0 + 4e-2 * chi_1) - 1.0) / 2e-2, rel=1e-3)

    def test_identically_singular_callable_is_a_numerical_error(self):
        # a zero row makes det A(., U) vanish for every chi: the colleague pencil is singular
        op = ParametricOperator("zero_row", 2, lambda chi, u: np.array(
            [[chi - 40.0 + 0.01j * (u - 50.0), 1.0], [0.0, 0.0]]), Window(0.0, 100.0, 10.0, 60.0))
        with pytest.raises(NumericalError, match="Chebyshev eigenvalue rows: Singular matrix"):
            find_flutter_points(op)

    def test_chebyshev_rows_are_the_companion_rows(self):
        # on 50 quasi-steady draws the twin's colleague-pencil eigenvalues are the pencil's
        # companion eigenvalues, each to 1e-12 of the row's largest
        us = np.linspace(1.0, 100.0, 64)
        for k, op in enumerate(draw_quasi_steady(np.random.default_rng(1), 50)):
            rows = flutter._chebyshev_rows(plain_twin(op), op.window)(us)
            companion = flutter._row_chis(flutter._monic_terms(op.func), us)
            assert rows.shape == companion.shape, k
            gap = np.abs(rows[:, :, None] - companion[:, None, :]).min(axis=2)
            assert np.all(gap <= 1e-12 * np.abs(companion).max(axis=1, keepdims=True)), k

    @pytest.mark.parametrize("model, degree", [
        ("typical_section", 2), ("wing_n4", 2), ("wing_n16", 2), ("restabilization", 1),
        ("rational", flutter.CHEB_DEGREE_CAP)])
    def test_chebyshev_degree_is_picked_once_from_the_coefficients(self, model, degree):
        # a plain-callable pencil twin gets its own chi degree; a rational callable, whose
        # coefficients never fall below the tail, gets the cap: d n eigenvalues per row
        if model == "rational":
            op = ParametricOperator("rational", 1, lambda chi, u: np.array(
                [[chi - 40.0 + 0.01j * u + 5.0 / (chi + 30j)]]), Window(0.0, 100.0, 10.0, 60.0))
            window = op.window
        else:
            pencil, window, _ = sweep_model(model)
            op = plain_twin(pencil)
        rows = flutter._chebyshev_rows(op, window)(np.array([window.u_min, window.u_max]))
        assert rows.shape == (2, degree * op.dim)

    def test_argument_validation(self, traj_op):
        with pytest.raises(ValueError):
            locate_candidates(traj_op, SEARCH, grid_count=4)
        with pytest.raises(ValueError):
            locate_candidates(traj_op, Window(-10.0, 100.0, 20.0, 40.0))


class TestPolish:
    @pytest.mark.parametrize("kwargs, message", [
        ({"tol": 0.0}, "tol must be positive and finite"),
        ({"tol": -1.0}, "tol must be positive and finite"),
        ({"max_iters": 0}, "max_iters must be >= 1"),
    ], ids=["zero_tol", "negative_tol", "no_iterations"])
    def test_settings_out_of_range_rejected(self, traj_op, kwargs, message):
        with pytest.raises(ValueError, match=message):
            polish_flutter_point(traj_op, (119.7, 54.0), **kwargs)

    def test_restabilization_from_nearby_candidate(self, traj_op, traj_oracle):
        candidate = (119.7, traj_oracle.omega(119.7))
        fp = polish_flutter_point(traj_op, candidate, tol=1e-10)
        assert fp.point.U == pytest.approx(120.0, rel=1e-8)
        assert fp.point.chi_R == pytest.approx(traj_oracle.omega(120.0), rel=1e-8)
        assert fp.point.residual <= 1e-10
        assert fp.point.chi_I == 0.0

    def test_already_converged_returns_immediately(self, traj_flutter, traj_op):
        fp = polish_flutter_point(traj_op, (traj_flutter.point.U, traj_flutter.point.chi_R))
        assert fp.iterations <= 1
        assert fp.point.U == pytest.approx(traj_flutter.point.U, abs=1e-10)

    def test_typical_section_matches_oracle(self, ts_op, ts_oracle):
        seed = (ts_oracle[0] * 1.002, ts_oracle[1] * 0.998)
        fp = polish_flutter_point(ts_op, seed)
        assert fp.point.U == pytest.approx(ts_oracle[0], rel=1e-6)
        assert fp.point.chi_R == pytest.approx(ts_oracle[1], rel=1e-6)

    def test_singular_jacobian_reported(self):
        # the bordered solver's ConvergenceError comes through with its best iterate
        op = build_normal_operator([1.0, 3.0], Window(-10.0, 10.0, -1.0, 5.0))
        with pytest.raises(ConvergenceError, match="bordered Jacobian singular") as info:
            polish_flutter_point(op, (0.0, 2.0))
        assert info.value.best == (0.0, 2.0, 0.0)
        assert info.value.iterations == 0

    def test_candidate_outside_window_rejected(self, traj_op):
        with pytest.raises(ValueError):
            polish_flutter_point(traj_op, (5000.0, 54.0))


class TestFindFlutterPoints:
    def test_window_without_instability_is_empty(self, traj_op):
        assert find_flutter_points(traj_op, Window(150.0, 400.0, 40.0, 52.0)) == []

    def test_two_crossings_sorted_by_airspeed(self):
        op = build_trajectory_operator(two_crossing_spec())
        points = find_flutter_points(op, Window(10.0, 500.0, 20.0, 200.0))
        assert [round(fp.point.U, 6) for fp in points] == [120.0, 300.0]
        mode = two_crossing_spec().modes[0]
        for fp in points:
            assert fp.point.chi_R == pytest.approx(float(mode.omega(fp.point.U)), rel=1e-9)

    def test_typical_section_unique_point(self, ts_op, ts_flutter, ts_oracle):
        assert ts_flutter.point.U == pytest.approx(ts_oracle[0], rel=1e-6)
        assert ts_flutter.point.chi_R == pytest.approx(ts_oracle[1], rel=1e-6)

    def test_returned_point_invariants(self, traj_op, traj_flutter):
        pt = traj_flutter.point
        assert pt.chi_I == 0.0
        assert pt.residual <= 1e-10
        assert sigma_min(traj_op, complex(pt.chi_R, 0.0), pt.U)[0] <= 1e-10
        assert residual_norm(traj_op, pt.chi, pt.U, pt.x) <= 1e-10
        assert traj_flutter.window_history
        assert traj_flutter.static is False

    def test_no_duplicates_within_final_cell(self):
        op = build_trajectory_operator(two_crossing_spec())
        window = Window(10.0, 500.0, 20.0, 200.0)
        settings = FlutterSearchSettings(grid_count=32, refine_iters=2)
        points = find_flutter_points(op, window, settings)
        cell_u = window.u_span / 16.0 / 31.0
        cell_w = window.chi_r_span / 16.0 / 31.0
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                assert (abs(a.point.U - b.point.U) > cell_u
                        or abs(a.point.chi_R - b.point.chi_R) > cell_w)

    @staticmethod
    def failing_polish(monkeypatch, fails):
        """Patch the polish to raise for candidates with fails(U); returns the candidates seen."""
        seen, polish = [], flutter.polish_flutter_point

        def patched(op, candidate, **kwargs):
            seen.append(candidate)
            if fails(candidate[0]):
                error = NumericalError if candidate[0] < 200.0 else ConvergenceError
                raise error(f"no polish at U={candidate[0]}")
            return polish(op, candidate, **kwargs)

        monkeypatch.setattr(flutter, "polish_flutter_point", patched)
        return seen

    def test_failed_polish_is_logged_and_others_kept(self, monkeypatch, caplog):
        op = build_trajectory_operator(two_crossing_spec())
        seen = self.failing_polish(monkeypatch, lambda u: u > 200.0)
        with caplog.at_level(logging.WARNING, logger="flutterspec.flutter"):
            points = find_flutter_points(op, Window(10.0, 500.0, 20.0, 200.0),
                                         FlutterSearchSettings(grid_count=32, refine_iters=2))
        # U = 120 polishes; U = 300 fails on the search grid and in both retry windows
        assert len(seen) == 4
        assert [round(fp.point.U, 6) for fp in points] == [120.0]
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "polish failed" in warnings[0].getMessage()
        assert "no polish at U=" in warnings[0].getMessage()

    def test_all_polishes_failing_names_each_candidate(self, monkeypatch):
        op = build_trajectory_operator(two_crossing_spec())
        seen = self.failing_polish(monkeypatch, lambda u: True)
        with pytest.raises(ConvergenceError, match="all flutter candidates failed") as info:
            find_flutter_points(op, Window(10.0, 500.0, 20.0, 200.0),
                                FlutterSearchSettings(grid_count=32, refine_iters=2))
        assert len(seen) == 6  # each of the two candidates, then two retries of each
        for u, w in seen:
            assert f"candidate (U={u:.6g}, chi_R={w:.6g}): no polish at U={u}" in str(info.value)

    def test_outside_landings_alone_give_an_empty_result(self, monkeypatch, caplog):
        # every polish is made to land below u_min: each candidate, then two retries of each,
        # and no point; such landings are no failure, so nothing raises and nothing is logged
        op = build_trajectory_operator(two_crossing_spec())
        window = Window(10.0, 500.0, 20.0, 200.0)
        seen, polish = [], flutter.polish_flutter_point

        def outside(op, candidate, **kwargs):
            seen.append(candidate)
            fp = polish(op, candidate, **kwargs)
            return dataclasses.replace(fp, point=dataclasses.replace(fp.point, U=5.0))

        monkeypatch.setattr(flutter, "polish_flutter_point", outside)
        with caplog.at_level(logging.WARNING, logger="flutterspec.flutter"):
            points = find_flutter_points(op, window,
                                         FlutterSearchSettings(grid_count=32, refine_iters=2))
        assert points == [] and len(seen) == 6
        assert caplog.records == []

    def test_window_without_a_hopf_point_gives_no_candidate(self):
        # no in-window point: neither the pencil's companion rows nor its plain-callable
        # twin's Chebyshev rows give a candidate
        op = list(draw_quasi_steady(np.random.default_rng(1), 275))[-1]
        assert hopf_points(op.func, op.window) == []
        assert locate_candidates(op, op.window) == []
        assert locate_candidates(plain_twin(op), op.window) == []

    def test_divergence_flagged_static(self):
        # singular along chi_R = 0 at U = 150: a static (divergence) point
        spec = TrajectorySpec(modes=(
            ModeTrajectory(omega_coeffs=(0.0,), g_coeffs=(-1.5, 0.01)),))
        op = build_trajectory_operator(spec, Window(100.0, 200.0, -5.0, 5.0))
        points = find_flutter_points(op, Window(100.0, 200.0, -5.0, 5.0))
        assert len(points) == 1
        assert points[0].static is True
        assert points[0].point.U == pytest.approx(150.0, rel=1e-8)
        assert abs(points[0].point.chi_R) < 1e-6 * 10.0

    @pytest.mark.parametrize("grid_count", [16, 64], ids=["grid16", "grid64"])
    @pytest.mark.parametrize("n", [4, 8, 16], ids=["n4", "n8", "n16"])
    def test_wing_lowest_point_comes_first(self, n, grid_count):
        # |A| ~ 4.5e4 here; the point at U ~ 9.2458 must not be dropped
        op, expected = wing_and_oracle(n)
        points = find_flutter_points(op, settings=FlutterSearchSettings(grid_count=grid_count))
        assert [u for u, _ in expected] == pytest.approx(WING_FLUTTER_U[n], abs=1e-4)
        assert len(points) == len(expected)
        for fp, (u, chi_r) in zip(points, expected):
            assert fp.point.U == pytest.approx(u, rel=1e-9)
            assert fp.point.chi_R == pytest.approx(chi_r, rel=1e-9)
            assert fp.point.residual <= 1e-10

    def test_eight_mode_wing_scan_has_three_points(self):
        # a det scan at 160 airspeeds missed the point at U ~ 64.43; the oracle has no grid
        op, expected = wing_and_oracle(8)
        assert [u for u, _ in expected] == pytest.approx([9.2458, 53.4733, 64.4316], abs=1e-4)
        for u, chi_r in expected:
            s = np.linalg.svd(evaluate(op, complex(chi_r, 0.0), u), compute_uv=False)
            assert s[-1] / s[0] <= 1e-10

    @pytest.mark.parametrize("grid_count", range(8, 33))
    @pytest.mark.parametrize("model", ["typical_section", "wing_n4", "wing_n8",
                                       "restabilization", "two_crossing"])
    def test_coarse_grids_find_exactly_the_oracle_points(self, model, grid_count):
        # neighbouring crossings (wing n=4 at grid 8, the two-crossing preset at grids 8-10)
        # both come back; on the wings at grid 8 a row interval is bisected
        op, window, expected = sweep_model(model)
        points = find_flutter_points(op, window, FlutterSearchSettings(grid_count=grid_count))
        assert len(points) == len(expected)
        for fp, (u, chi_r) in zip(points, expected):
            assert fp.point.U == pytest.approx(u, rel=1e-9)
            assert fp.point.chi_R == pytest.approx(chi_r, rel=1e-9)

    @pytest.mark.parametrize("grid_count", range(8, 33))
    @pytest.mark.parametrize("model", ["typical_section", "wing_n4", "wing_n8",
                                       "restabilization", "two_crossing"])
    def test_coarse_grids_on_the_twins_find_exactly_the_oracle_points(self, model, grid_count):
        # the same sweep on the plain-callable twins, whose rows are the Chebyshev ones
        op, window, expected = sweep_model(model)
        points = find_flutter_points(plain_twin(op), window,
                                     FlutterSearchSettings(grid_count=grid_count))
        assert len(points) == len(expected)
        for fp, (u, chi_r) in zip(points, expected):
            assert fp.point.U == pytest.approx(u, rel=1e-9)
            assert fp.point.chi_R == pytest.approx(chi_r, rel=1e-9)

    @pytest.mark.parametrize("grid_count", [10, 11])
    def test_coarse_grid_twin_finds_the_lowest_wing_point(self, grid_count):
        # the plain-callable twin's Chebyshev rows at 10 and 11 airspeeds find all three
        # points, the one near U = 9.25 too, next to the U = 0 singularity
        op, expected = wing_and_oracle(4)
        points = find_flutter_points(plain_twin(op),
                                     settings=FlutterSearchSettings(grid_count=grid_count))
        assert len(points) == len(expected) == 3
        for fp, (u, chi_r) in zip(points, expected):
            assert fp.point.U == pytest.approx(u, rel=1e-9)
            assert fp.point.chi_R == pytest.approx(chi_r, rel=1e-9)
        assert points[0].point.U == pytest.approx(9.2458, abs=1e-4)

    def test_jordan_crossing_point_to_solver_accuracy(self):
        # both eigenvalues of the triangular crossing pencil reach chi_I = 0 at U = 100,
        # chi = 50, where A is a Jordan block; the ambiguous row interval around it is
        # halved until its midpoint U = 100, a row whose every eigenvalue is real, and
        # both branches cross at U = 100 in the interval that spans it
        points = find_flutter_points(crossing_pencil(), Window(50.0, 150.0, 30.0, 70.0))
        assert len(points) == 1
        assert points[0].point.U == pytest.approx(100.0, rel=1e-9)

    def test_jordan_crossing_twin_finds_the_point(self):
        # the plain-callable twin's Chebyshev rows cross at U = 100 too
        twin = plain_twin(crossing_pencil())
        points = find_flutter_points(twin, Window(50.0, 150.0, 30.0, 70.0))
        assert len(points) == 1
        assert points[0].point.U == pytest.approx(100.0, rel=1e-9)
        assert points[0].point.chi_R == pytest.approx(50.0, rel=1e-9)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 21: the absolute 1e-10 polish gate "
                       "passes U = 99.99938743, 6e-6 off the Jordan point")
    def test_jordan_polish_from_the_det_grid_candidate(self):
        # (77.57, 50) is where a 64^2 det grid put its first zero on the crossing pencil;
        # from there the polish residual falls below 1e-10 while the two eigenvalues are
        # still apart, and the polish stops there
        op = crossing_pencil()
        assert polish_flutter_point(op, (77.57, 50.0)).point.U == pytest.approx(100.0, rel=1e-9)

    def test_non_holomorphic_callable_gives_its_crossing(self):
        # A = chi_R - (50 - 0.05 U) + 2i (chi_I - 0.01 (U - 100)) is not holomorphic in chi;
        # the interpolant in real chi has the eigenvalue chi_R + 2i chi_I of A's zero, whose
        # chi_I changes sign where A's does: at U = 100, chi_R = 45
        def func(chi, u):
            return np.array([[chi.real - (50.0 - 0.05 * u) + 2j * (chi.imag - 0.01 * (u - 100.0))]])

        op = ParametricOperator("non_holomorphic", 1, func, Window(0.0, 200.0, 10.0, 90.0))
        (candidate,) = locate_candidates(op, op.window)
        assert candidate == pytest.approx((100.0, 45.0), rel=1e-9)
        (fp,) = find_flutter_points(op)
        assert (fp.point.U, fp.point.chi_R) == pytest.approx((100.0, 45.0), rel=1e-9)

    @pytest.mark.parametrize("grid_count", range(8, 17))
    def test_points_and_their_windows_lie_in_the_search_window(self, grid_count):
        op = build_galerkin_wing()
        window = op.window
        points = find_flutter_points(op, settings=FlutterSearchSettings(grid_count=grid_count))
        assert points
        for fp in points:
            assert window.contains(fp.point.U, fp.point.chi_R)
            assert fp.window_history[0] == window
            for win in fp.window_history:
                assert window.contains(win.u_min, win.chi_r_min)
                assert window.contains(win.u_max, win.chi_r_max)

    def test_det_zero_on_a_grid_node_gives_one_point(self):
        # dyadic coefficients: flutter exactly at U = 120, chi_R = 52.5, and the
        # 64-node axes below put a det-grid node on it, where det is exactly zero, and an
        # airspeed row, where one eigenvalue is real: that branch crosses once
        spec = TrajectorySpec(modes=(
            ModeTrajectory(omega_coeffs=(60.0, -0.0625), g_coeffs=(-15.0, 0.125)),
            ModeTrajectory(omega_coeffs=(150.0,), g_coeffs=(5.0,))))
        op = build_trajectory_operator(spec)
        window = Window(120.0 - 31 * 2.0, 120.0 + 32 * 2.0, 52.5 - 31 * 0.5, 52.5 + 32 * 0.5)
        field = compute_det_field(op, Grid2D.over_window(window, 64, 64))
        assert field.log_magnitude[31, 31] == -np.inf
        assert locate_candidates(op, window) == [(120.0, 52.5)]
        points = find_flutter_points(op, window)
        assert len(points) == 1
        assert points[0].point.U == pytest.approx(120.0, rel=1e-9)
        assert points[0].point.chi_R == pytest.approx(52.5, rel=1e-9)

    @settings(max_examples=15)
    @given(entries=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    def test_mixed_two_crossing_points_are_closed_form(self, entries):
        mixing = np.array(entries).reshape(2, 2)
        assume(np.linalg.cond(mixing) <= MAX_MIXING_CONDITION)
        spec = two_crossing_spec()
        op = build_trajectory_operator(TrajectorySpec(modes=spec.modes, mixing=mixing))
        points = find_flutter_points(op, Window(10.0, 500.0, 20.0, 200.0))
        assert [fp.point.U for fp in points] == pytest.approx([120.0, 300.0], rel=1e-9)
        for fp in points:
            assert fp.point.chi_R == pytest.approx(float(spec.modes[0].omega(fp.point.U)),
                                                   rel=1e-9)
            assert fp.point.chi_I == 0.0
            assert fp.point.residual <= 1e-10

    def test_default_grid_finds_every_point_of_300_generated_oscillators(self):
        # the default grid's miss count on this family is stated in the README: 0 of 300
        for k, (u_k, omega, a, q) in enumerate(draw_oscillators(np.random.default_rng(0), 300)):
            points = find_flutter_points(oscillator_operator(u_k, omega, a, q))
            got = [(fp.point.U, fp.point.chi_R) for fp in points]
            assert len(got) == len(u_k), (k, got, u_k, omega)
            assert np.array(got) == pytest.approx(np.column_stack([u_k, omega]), rel=1e-9), k

    def test_default_grid_finds_every_point_of_100_generated_oscillator_twins(self):
        # the plain-callable twins of the first 100 oscillator draws, on the Chebyshev rows
        for k, (u_k, omega, a, q) in enumerate(draw_oscillators(np.random.default_rng(0), 100)):
            points = find_flutter_points(plain_twin(oscillator_operator(u_k, omega, a, q)))
            got = [(fp.point.U, fp.point.chi_R) for fp in points]
            assert len(got) == len(u_k), (k, got, u_k, omega)
            assert np.array(got) == pytest.approx(np.column_stack([u_k, omega]), rel=1e-9), k

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_quasi_steady_family_points_are_hopf_points(self, seed):
        # 300 generated quasi-steady operators per seed (ROADMAP item 13): no search raises,
        # and every point returned is one of the oracle's in-window points
        for k, (hits, got) in enumerate(quasi_steady_family(seed)):
            for p in got:
                assert any(same_point(p, h) for h in hits), (k, p, hits)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_quasi_steady_family_points_are_all_found(self, seed):
        missed = [k for k, (hits, got) in enumerate(quasi_steady_family(seed))
                  if not all(any(same_point(p, h) for p in got) for h in hits)]
        assert missed == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_quasi_steady_family_twins_find_exactly_the_hopf_points(self, seed):
        # the plain-callable twins take the Chebyshev rows: no search raises, every oracle
        # point is returned, and no other
        ops = draw_quasi_steady(np.random.default_rng(seed), 300)
        for k, (op, (hits, _)) in enumerate(zip(ops, quasi_steady_family(seed))):
            got = [(fp.point.U, fp.point.chi_R) for fp in find_flutter_points(plain_twin(op))]
            assert len(got) == len(hits), (k, got, hits)
            assert all(any(same_point(p, h) for h in hits) for p in got), (k, got, hits)
            assert all(any(same_point(p, h) for p in got) for h in hits), (k, got, hits)


# The wing's Hopf points above chi_R = 60 in its default U range, (U, chi_R) by mode count: the
# points its default window excludes, as the README's table lists them.
WING_EXCLUDED_POINTS = {
    4: [(27.7375, 108.83)],
    8: [(27.7375, 108.83), (46.229, 181.38), (53.114, 259.02), (64.721, 253.93),
        (114.054, 147.61)],
    16: [(27.7375, 108.83), (46.229, 181.38), (47.322, 260.85), (64.721, 253.93),
         (83.213, 326.48), (85.959, 575.24), (101.704, 399.04), (114.260, 148.13)]}


@pytest.mark.parametrize("n", [4, 8, 16], ids=["n4", "n8", "n16"])
def test_points_the_default_wing_window_excludes(n):
    # over chi_R in (-1e6, 1e6): the window's own points, the listed ones above chi_R = 60, and
    # the -chi_R mirror of each, which the real pencil implies; nothing else
    op, in_window = wing_and_oracle(n)
    w = op.window
    hits = hopf_points(op.func, Window(w.u_min, w.u_max, -1e6, 1e6))
    above = [h for h in hits if h[1] > w.chi_r_max]
    assert np.array(above) == pytest.approx(np.array(WING_EXCLUDED_POINTS[n]), rel=1e-4)
    positive = [h for h in hits if h[1] > 0.0]
    assert positive == sorted(in_window + above)
    mirrors = sorted((u, -c) for u, c in hits if c < 0.0)
    assert np.array(mirrors) == pytest.approx(np.array(positive), rel=1e-9)
    row = re.search(rf"^\| {n} \| (.*) \|$", README.read_text(encoding="utf-8"), re.M).group(1)
    listed = [tuple(map(float, m)) for m in re.findall(r"([\d.]+) \(([\d.]+)\)", row)]
    assert listed == WING_EXCLUDED_POINTS[n]


def test_the_typical_section_window_excludes_only_a_mirror():
    op = build_typical_section()
    w = op.window
    hits = hopf_points(op.func, Window(w.u_min, w.u_max, -1e6, 1e6))
    assert np.array(hits) == pytest.approx(np.array([(40.3343, -35.3861), (40.3343, 35.3861)]),
                                           rel=1e-5)
    assert hopf_points(op.func, w) == hits[1:]


@pytest.mark.parametrize("model", ["typical_section", "wing_n4", "wing_n8", "wing_n16"])
def test_plain_callable_twin_finds_the_pencils_points(model):
    # one oracle for both row sources: the twin's Chebyshev rows and the pencil's companion
    # rows give the same candidates and points, and they are the Hopf oracle's
    op, window, expected = sweep_model(model)
    twin = plain_twin(op)
    twin_candidates, candidates = locate_candidates(twin, window), locate_candidates(op, window)
    assert len(twin_candidates) == len(candidates)
    assert all(same_point(p, q) for p, q in zip(twin_candidates, candidates))
    twin_points, points = find_flutter_points(twin, window), find_flutter_points(op, window)
    assert len(twin_points) == len(points) == len(expected)
    for tp, fp, h in zip(twin_points, points, expected):
        assert same_point((tp.point.U, tp.point.chi_R), (fp.point.U, fp.point.chi_R))
        assert same_point((tp.point.U, tp.point.chi_R), h)


class TestHopfOracle:
    @settings(max_examples=10)
    @given(modes=st.lists(st.tuples(st.floats(5.0, 95.0), st.floats(1.0, 50.0),
                                    st.floats(0.01, 0.2)), min_size=1, max_size=4),
           entries=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
    def test_mixed_damped_oscillators_flutter_at_closed_form(self, modes, entries):
        u_k, omega, a = map(np.array, zip(*sorted(modes)))
        assume(np.all(np.diff(u_k) >= 1.0))
        n = len(modes)
        q = np.eye(n) + 0.5 * np.array(entries[:n * n]).reshape(n, n)
        assume(np.linalg.cond(q) <= MAX_MIXING_CONDITION)
        op = oscillator_operator(u_k, omega, a, q)
        hits = hopf_points(op.func, op.window)
        assert len(hits) == n
        assert np.array(hits) == pytest.approx(np.column_stack([u_k, omega]), rel=1e-9)
        # the search on the same pencil finds exactly the closed-form points
        points = find_flutter_points(op)
        assert len(points) == n
        assert np.array([(fp.point.U, fp.point.chi_R) for fp in points]) == pytest.approx(
            np.column_stack([u_k, omega]), rel=1e-9)

    def test_complex_coefficients_are_refused(self, traj_op):
        with pytest.raises(ValueError, match="Hopf oracle needs every"):
            hopf_points(traj_op.func, traj_op.window)

    @pytest.mark.parametrize("model, expected", [
        ("typical_section", [(14.6400, 19.785)]),
        ("wing", [(1.31295, 8.8743), (1.33342, 55.691), (54.7597, 9.2089), (63.7545, 15.568)]),
    ], ids=["typical_section", "wing_n4"])
    def test_damping_level_points_are_singular(self, model, expected):
        op = build_typical_section() if model == "typical_section" else build_galerkin_wing()
        hits = hopf_points(op.func, op.window, level=0.5)
        assert np.array(hits) == pytest.approx(np.array(expected), rel=1e-4)
        for u, chi_r in hits:
            s = np.linalg.svd(evaluate(op, complex(chi_r, 0.5), u), compute_uv=False)
            assert s[-1] / s[0] <= 1e-10

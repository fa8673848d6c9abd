"""Flutter location: iterated contour candidates and Newton polish."""

import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flutterspec import flutter
from flutterspec import (ConvergenceError, FlutterSearchSettings, GalerkinWingSpec,
                         NumericalError, Window, build_galerkin_wing, build_normal_operator,
                         build_trajectory_operator, find_flutter_points, locate_candidates,
                         polish_flutter_point, residual_norm, sigma_min, two_crossing_spec)
from flutterspec.models import MAX_MIXING_CONDITION, ModeTrajectory, TrajectorySpec

from conftest import det_scan_flutter

SEARCH = Window(10.0, 400.0, 20.0, 200.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"grid_count": 7}, "grid_count"),
    ({"refine_iters": 0}, "refine_iters"),
    ({"tol": 0.0}, "tol must be positive"),
    ({"max_iters": 0}, "max_iters"),
], ids=["grid_count", "refine_iters", "tol", "max_iters"])
def test_invalid_search_settings_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        FlutterSearchSettings(**kwargs)


class TestLocateCandidates:
    def test_airspeed_independent_operator_is_empty(self):
        op = build_normal_operator([1.0, 3.0], Window(-10.0, 10.0, -1.0, 5.0))
        assert locate_candidates(op, Window(-5.0, 5.0, 0.0, 4.0)) == []

    def test_restabilization_candidate_in_final_cell(self, traj_op, traj_oracle):
        grid_count, refine_iters = 64, 3
        cands = locate_candidates(traj_op, SEARCH, grid_count, refine_iters)
        assert len(cands) == 1
        cell_u = SEARCH.u_span / 4.0 ** refine_iters / (grid_count - 1)
        cell_w = SEARCH.chi_r_span / 4.0 ** refine_iters / (grid_count - 1)
        u, w = cands[0]
        assert abs(u - 120.0) <= cell_u
        assert abs(w - traj_oracle.omega(120.0)) <= cell_w

    def test_typical_section_candidate_near_oracle(self, ts_op, ts_oracle):
        cands = locate_candidates(ts_op, ts_op.window)
        assert len(cands) == 1
        cell_u = ts_op.window.u_span / 64.0 / 63.0
        cell_w = ts_op.window.chi_r_span / 64.0 / 63.0
        assert abs(cands[0][0] - ts_oracle[0]) <= cell_u
        assert abs(cands[0][1] - ts_oracle[1]) <= cell_w

    def test_refinement_never_worsens_displacement(self, traj_op):
        polished = 120.0, 54.0
        prev = np.inf
        for iters in (1, 2, 4):
            cands = locate_candidates(traj_op, SEARCH, 32, iters)
            assert len(cands) == 1
            disp = np.hypot(cands[0][0] - polished[0], cands[0][1] - polished[1])
            assert disp <= prev + 1e-12
            prev = disp

    def test_argument_validation(self, traj_op):
        with pytest.raises(ValueError):
            locate_candidates(traj_op, SEARCH, grid_count=4)
        with pytest.raises(ValueError):
            locate_candidates(traj_op, SEARCH, refine_iters=0)
        with pytest.raises(ValueError):
            locate_candidates(traj_op, Window(-10.0, 100.0, 20.0, 40.0))


class TestPolish:
    @pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0}, {"max_iters": 0}],
                             ids=["zero_tol", "negative_tol", "no_iterations"])
    def test_settings_out_of_range_rejected(self, traj_op, kwargs):
        with pytest.raises(ValueError, match="tol must be positive and max_iters >= 1"):
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
        op = build_normal_operator([1.0, 3.0], Window(-10.0, 10.0, -1.0, 5.0))
        with pytest.raises(NumericalError, match="refine"):
            polish_flutter_point(op, (0.0, 2.0))

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
        assert len(seen) == 2
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
        assert len(seen) == 2
        for u, w in seen:
            assert f"candidate (U={u:.6g}, chi_R={w:.6g}): no polish at U={u}" in str(info.value)

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

    def test_wing_lowest_point_comes_first(self):
        # |A| ~ 4.5e4 here; the point at U ~ 9.2458 must not be dropped
        op = build_galerkin_wing()
        w = op.window
        expected = sorted(det_scan_flutter(op, w.u_min, w.u_max, w.chi_r_min, w.chi_r_max))
        points = find_flutter_points(op)
        assert expected[0][0] == pytest.approx(9.2458, abs=1e-4)
        assert len(points) == len(expected)
        for fp, (u, chi_r) in zip(points, expected):
            assert fp.point.U == pytest.approx(u, rel=1e-9)
            assert fp.point.chi_R == pytest.approx(chi_r, rel=1e-9)
            assert fp.point.residual <= 1e-10

    def test_sixteen_mode_wing_keeps_point_near_64(self):
        op = build_galerkin_wing(GalerkinWingSpec(n_bending=8, n_torsion=8))
        expected = det_scan_flutter(op, 60.0, 70.0, op.window.chi_r_min, op.window.chi_r_max)
        assert len(expected) == 1
        u, chi_r = expected[0]
        near = [fp for fp in find_flutter_points(op) if 60.0 <= fp.point.U <= 70.0]
        assert len(near) == 1
        assert near[0].point.U == pytest.approx(u, rel=1e-9)
        assert near[0].point.chi_R == pytest.approx(chi_r, rel=1e-9)
        assert near[0].point.residual <= 1e-10

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

"""Fields, marching-squares contours, pseudospectra, borderline regions."""

import dataclasses
import math
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from flutterspec import (GalerkinWingSpec, Grid2D, NumericalError, ParametricOperator,
                         ScalarField, Window, build_galerkin_wing, build_normal_operator,
                         build_trajectory_operator, build_typical_section, compute_det_field,
                         compute_sigma_field, det_zero_contours, epsilon_pseudospectrum,
                         extract_contours, find_borderline_regions, sigma_min)
from flutterspec.operator import evaluate_batch
from flutterspec.models import ModeTrajectory, TrajectorySpec, reference_restabilization_spec
from flutterspec import pseudospectrum
from flutterspec.pseudospectrum import ComplexField, _det_zero_crossings, _label_components

from conftest import (NORMAL_EIGENVALUES, det_pair_values, distance_to_spectrum,
                      edge_crossings, polyline_intersections, reference_det_zero_contours,
                      reference_det_zero_segments, reference_march)


def assert_contours_on_grid(contour, grid):
    """Every vertex on a cell edge; consecutive vertices share a cell."""
    us, ws = grid.u_values(), grid.w_values()

    def cells(u, w):
        ui = np.nonzero(us == u)[0]
        wi = np.nonzero(ws == w)[0]
        if ui.size:  # on a w-directed edge: u is a grid line
            u_cells = {max(ui[0] - 1, 0), min(ui[0], us.size - 2)}
        else:
            u_cells = {int(np.searchsorted(us, u) - 1)}
        if wi.size:
            w_cells = {max(wi[0] - 1, 0), min(wi[0], ws.size - 2)}
        else:
            w_cells = {int(np.searchsorted(ws, w) - 1)}
        assert ui.size or wi.size, f"vertex ({u}, {w}) not on any grid edge"
        return {(a, b) for a in u_cells for b in w_cells}

    for pl in contour.polylines:
        prev = None
        for u, w in pl:
            cur = cells(u, w)
            if prev is not None:
                assert prev & cur, "consecutive vertices do not share a cell"
            prev = cur


class TestGrid2D:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2D((1.0, 0.0, 5), (0.0, 1.0, 5))
        with pytest.raises(ValueError):
            Grid2D((0.0, 1.0, 1), (0.0, 1.0, 5))
        with pytest.raises(ValueError):
            Grid2D((0.0, 1.0, 5), (0.0, 1.0, 5), chi_I_fixed=np.inf)

    def test_outside_window_rejected(self, normal_op):
        grid = Grid2D((-50.0, 50.0, 4), (0.0, 1.0, 4))
        with pytest.raises(ValueError):
            compute_sigma_field(normal_op, grid)

    def test_axes_built_once_and_read_only(self):
        grid = Grid2D((10.0, 400.0, 101), (20.0, 200.0, 64))
        for values, axis in ((grid.u_values, grid.u_axis), (grid.w_values, grid.w_axis)):
            nodes = values()
            assert nodes.tobytes() == np.linspace(*axis).tobytes()
            assert values() is nodes
            with pytest.raises(ValueError, match="read-only"):
                nodes[0] = 0.0


class TestSigmaField:
    def test_identity_like_constant(self):
        op = build_normal_operator([0.0], Window(-1.0, 1.0, 0.5, 3.0))
        grid = Grid2D((-1.0, 1.0, 5), (1.0, 2.0, 7))
        fld = compute_sigma_field(op, grid)
        assert np.allclose(fld.values, grid.w_values()[None, :], atol=1e-14)

    def test_normal_fixture_equals_distance(self, normal_op):
        grid = Grid2D((0.0, 1.0, 50), (0.0, 8.0, 50))
        fld = compute_sigma_field(normal_op, grid)
        expected = np.array([[distance_to_spectrum(w) for w in grid.w_values()]
                             for _ in grid.u_values()])
        assert np.abs(fld.values - expected).max() <= 1e-9

    def test_restabilization_flutter_node(self, traj_op):
        # grid hits the flutter point (120, 54) exactly
        grid = Grid2D((100.0, 140.0, 41), (50.0, 58.0, 41))
        fld = compute_sigma_field(traj_op, grid)
        i = np.nonzero(grid.u_values() == 120.0)[0][0]
        j = np.nonzero(grid.w_values() == 54.0)[0][0]
        assert fld.values[i, j] <= 1e-10

    @settings(max_examples=25)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_normal_spectrum_equals_distance(self, n, seed):
        # Q diag(eigs) Q^H - chi*I with a random unitary Q: normal, not diagonal
        rng = np.random.default_rng(seed)
        eigs = rng.uniform(0.0, 10.0, n) + 1j * rng.uniform(-0.5, 0.5, n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a0 = q @ np.diag(eigs) @ q.conj().T
        op = ParametricOperator("rotated_normal", n, lambda chi, u: a0 - chi * np.eye(n),
                                Window(-1.0, 1.0, -1.0, 11.0))
        grid = Grid2D((-1.0, 1.0, 3), (-1.0, 11.0, 41), chi_I_fixed=rng.uniform(-0.5, 0.5))
        fld = compute_sigma_field(op, grid)
        chis = grid.w_values() + 1j * grid.chi_I_fixed
        expected = np.abs(chis[:, None] - eigs[None, :]).min(axis=1)
        assert np.abs(fld.values - expected[None, :]).max() <= 1e-9

    def test_nan_row_names_its_airspeed(self, monkeypatch):
        base = build_normal_operator([1.0, 2.0], Window(0.0, 4.0, 0.0, 3.0))

        def func(chi, u):
            a = base.func(chi, u)
            return a * np.nan if u in (2.0, 4.0) else a

        op = dataclasses.replace(base, func=func)
        grid = Grid2D((0.0, 4.0, 5), (0.0, 3.0, 7))
        # one chunk by default; at 60 entries two rows (28 entries each) per chunk,
        # so the NaN rows i=2 and i=4 open the second and third chunks; at 1 entry
        # one row per chunk
        for cpus in (1, 2, 3, 4):
            set_available_cpus(monkeypatch, cpus)
            for chunk_entries in (pseudospectrum.CHUNK_ENTRIES, 60, 1):
                monkeypatch.setattr(pseudospectrum, "CHUNK_ENTRIES", chunk_entries)
                with pytest.raises(NumericalError, match=r"row i=2, U=2\.0\b"):
                    compute_sigma_field(op, grid)

    def test_evaluation_error_waits_for_earlier_chunks(self, monkeypatch):
        """A NaN row is reported before a later row's evaluation error."""
        base = build_normal_operator([1.0, 2.0], Window(0.0, 4.0, 0.0, 3.0))

        def func(chi, u):
            if u == 3.0:
                raise ValueError("no model at U=3")
            return base.func(chi, u) * (np.nan if u == 2.0 else 1.0)

        op = dataclasses.replace(base, func=func)
        grid = Grid2D((0.0, 4.0, 5), (0.0, 3.0, 7))
        monkeypatch.setattr(pseudospectrum, "CHUNK_ENTRIES", 1)
        set_available_cpus(monkeypatch, 4)
        with pytest.raises(NumericalError, match=r"row i=2, U=2\.0\b"):
            compute_sigma_field(op, grid)
        grid = Grid2D((2.5, 4.0, 4), (0.0, 3.0, 7))  # no NaN row before U=3
        with pytest.raises(ValueError, match="no model at U=3"):
            compute_sigma_field(op, grid)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_plain_callable_runs_on_the_calling_thread(self, monkeypatch, cpus):
        base = build_normal_operator([1.0, 2.0], Window(0.0, 4.0, 0.0, 3.0))
        callers = set()

        def func(chi, u):
            callers.add(threading.get_ident())
            return base.func(chi, u)

        op = dataclasses.replace(base, func=func)
        grid = Grid2D((0.0, 4.0, 9), (0.0, 3.0, 7))
        monkeypatch.setattr(pseudospectrum, "CHUNK_ENTRIES", 60)  # two rows per chunk
        set_available_cpus(monkeypatch, cpus)
        fld = compute_sigma_field(op, grid)
        assert callers == {threading.get_ident()}
        expected = np.abs(grid.w_values()[:, None] - np.array([1.0, 2.0])).min(axis=1)
        assert np.abs(fld.values - expected).max() <= 1e-12


    def test_nan_rows_of_pencil_chunks_on_workers(self, monkeypatch):
        """Pencil chunks fail on worker threads; the first failing row is still named."""
        op = build_normal_operator([1.0, 2.0], Window(0.0, 4.0, 0.0, 3.0))
        evaluate_batch, callers = pseudospectrum.evaluate_batch, set()

        def nan_rows(op_, chis, us):
            callers.add(threading.get_ident())
            node_us = np.broadcast_arrays(chis, us)[1].ravel()
            nan = np.where(np.isin(node_us, (2.0, 4.0)), np.nan, 1.0)
            return evaluate_batch(op_, chis, us) * nan[:, None, None]

        monkeypatch.setattr(pseudospectrum, "evaluate_batch", nan_rows)
        monkeypatch.setattr(pseudospectrum, "CHUNK_ENTRIES", 1)  # one row per chunk
        grid = Grid2D((0.0, 4.0, 5), (0.0, 3.0, 7))
        for cpus in (1, 2, 3, 4):  # from 3 workers up, both NaN chunks run at once
            set_available_cpus(monkeypatch, cpus)
            with pytest.raises(NumericalError, match=r"row i=2, U=2\.0\b"):
                compute_sigma_field(op, grid)
        assert callers and threading.get_ident() not in callers


def set_available_cpus(monkeypatch, count):
    """Make the sigma field see ``count`` CPUs available to the process."""
    monkeypatch.setattr(pseudospectrum.os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


class TestDetField:
    def test_shifted_diagonal_product(self):
        op = build_normal_operator([1.0, 3.0], Window(-1.0, 1.0, 0.0, 4.0))
        grid = Grid2D((0.0, 1.0, 3), (0.0, 4.0, 21))
        fld = compute_det_field(op, grid)
        ws = grid.w_values()
        expected = (1.0 - ws) * (3.0 - ws)
        values = np.exp(fld.log_magnitude[0]) * np.exp(1j * fld.phase[0])
        assert np.allclose(values.real, expected, atol=1e-12)
        assert np.allclose(values.imag, 0.0, atol=1e-12)
        re_contours, im_contours = det_zero_contours(fld)
        lines = sorted(pl[:, 1].mean() for pl in re_contours.polylines)
        assert lines == pytest.approx([1.0, 3.0], abs=1e-12)
        # det always real: no isolated Im contour anywhere
        assert im_contours.polylines == []

    def test_typical_section_real_slice_at_zero_airspeed(self, ts_op):
        grid = Grid2D((0.5, 20.0, 6), (10.0, 60.0, 31))
        fld = compute_det_field(ts_op, grid)
        assert not imag_degenerate_rows(fld).any()
        grid0 = Grid2D((0.0, 20.0, 6), (10.0, 60.0, 31))
        op0 = build_typical_window_op(ts_op)
        fld0 = compute_det_field(op0, grid0)
        degen = imag_degenerate_rows(fld0)
        assert degen[0] and not degen[1:].any()
        # no Im-contour vertex may touch the degenerate U = 0 row
        _, im_c = det_zero_contours(fld0)
        assert im_c.polylines
        for pl in im_c.polylines:
            assert (pl[:, 0] >= grid0.u_values()[1]).all()

    def test_restabilization_intersections_near_flutter(self, traj_op, traj_oracle):
        grid = Grid2D((100.0, 140.0, 33), (48.0, 60.0, 33))
        fld = compute_det_field(traj_op, grid)
        pts = _det_zero_crossings(fld)
        assert len(pts) >= 1
        cell_u, cell_w = 40.0 / 32, 12.0 / 32
        hits = [(u, w) for u, w in pts
                if abs(u - 120.0) <= cell_u and abs(w - traj_oracle.omega(120.0)) <= cell_w]
        assert len(hits) >= 1

    def test_det_field_is_not_a_sigma_field(self, traj_op):
        grid = Grid2D((100.0, 140.0, 5), (48.0, 60.0, 5))
        fld = compute_det_field(traj_op, grid)
        with pytest.raises(TypeError):
            extract_contours(fld, 0.0)


def imag_degenerate_rows(fld):
    """Rows on which Im(det) vanishes identically (|sin(phase)| at rounding level)."""
    return np.all(np.abs(np.sin(fld.phase)) <= pseudospectrum.DEGENERATE_COMPONENT_TOL, axis=1)


def build_typical_window_op(ts_op):
    """Same pencil, window widened to include U = 0 for the degenerate slice."""
    return dataclasses.replace(ts_op, window=Window(0.0, 80.0, 5.0, 75.0))


# wing_n16 on 30x11: 2^16 // (11*16*16) = 23 rows per chunk, so chunks of 23 and 7 rows
@pytest.mark.parametrize("model,u_count", [("typical_section", 9), ("wing_n8", 9),
                                           ("wing_n16", 30)],
                         ids=["typical_section", "wing_n8", "wing_n16"])
def test_batched_fields_match_per_node_numpy(model, u_count):
    """Chunk-batched fields against per-node numpy svd/slogdet of op.func."""
    if model == "typical_section":
        op = build_typical_section()
    else:
        half = int(model[len("wing_n"):]) // 2
        op = build_galerkin_wing(GalerkinWingSpec(n_bending=half, n_torsion=half))
    grid = Grid2D.over_window(op.window, u_count, 11, chi_I_fixed=0.5)
    sig = compute_sigma_field(op, grid).values
    det = compute_det_field(op, grid)
    for i, u in enumerate(grid.u_values()):
        for j, w in enumerate(grid.w_values()):
            a = np.asarray(op.func(complex(w, 0.5), float(u)), dtype=complex)
            s = np.linalg.svd(a, compute_uv=False)
            assert sig[i, j] == pytest.approx(s[-1], rel=1e-13, abs=1e-13 * s[0])
            sign, logdet = np.linalg.slogdet(a)
            assert det.log_magnitude[i, j] == pytest.approx(logdet, rel=1e-13, abs=1e-13)
            assert det.phase[i, j] == pytest.approx(np.angle(sign), rel=1e-13, abs=1e-13)


def test_sigma_field_identical_for_any_worker_count(monkeypatch):
    """wing_n16 on 30x11 (chunks of 23 and 7 rows): 1 and 4 workers give the bytes of a
    serial per-chunk SVD of the same evaluate_batch stacks."""
    op = build_galerkin_wing(GalerkinWingSpec(n_bending=8, n_torsion=8))
    grid = Grid2D.over_window(op.window, 30, 11, chi_I_fixed=0.5)
    chis, us = grid.w_values() + 0.5j, grid.u_values()
    serial = np.concatenate([
        np.linalg.svd(evaluate_batch(op, chis[None, :], us[rows, None]).reshape(-1, 11, 16, 16),
                      compute_uv=False)[..., -1]
        for rows in (slice(0, 23), slice(23, 30))])
    fields = []
    for cpus in (1, 4):
        set_available_cpus(monkeypatch, cpus)
        fields.append(compute_sigma_field(op, grid).values)
    assert np.array_equal(fields[0], fields[1])
    assert np.array_equal(fields[0], serial)


def test_sigma_chunks_in_flight_are_bounded(monkeypatch):
    """With slow SVDs, each of 3 workers evaluates and decomposes one chunk at a time:
    no chunk is evaluated while 3 others await their SVD."""
    op = build_typical_section()
    grid = Grid2D.over_window(op.window, 40, 11)
    monkeypatch.setattr(pseudospectrum, "CHUNK_ENTRIES", 44)  # one row (11 2x2 nodes) per chunk
    set_available_cpus(monkeypatch, 3)
    svd, evaluate_batch = np.linalg.svd, pseudospectrum.evaluate_batch
    done, ahead = [], []

    def slow_svd(*args, **kwargs):
        time.sleep(0.002)
        out = svd(*args, **kwargs)
        done.append(1)
        return out

    def counting_batch(*args):
        ahead.append(len(ahead) - len(done))
        return evaluate_batch(*args)

    monkeypatch.setattr(np.linalg, "svd", slow_svd)
    monkeypatch.setattr(pseudospectrum, "evaluate_batch", counting_batch)
    compute_sigma_field(op, grid)
    assert len(ahead) == 40 and len(done) == 40
    assert max(ahead) <= 2


def test_small_det_field_is_one_batch(monkeypatch):
    """A 64x64 n=2 det field fits one chunk: one evaluate_batch call, not one per row."""
    calls, evaluate_batch = [], pseudospectrum.evaluate_batch

    def counting(*args):
        calls.append(args)
        return evaluate_batch(*args)

    op = build_typical_section()
    monkeypatch.setattr(pseudospectrum, "evaluate_batch", counting)
    compute_det_field(op, Grid2D.over_window(op.window, 64, 64))
    assert len(calls) == 1


class TestContours:
    def test_constant_field_empty(self):
        grid = Grid2D((0.0, 1.0, 4), (0.0, 1.0, 4))
        fld = ScalarField(grid, np.ones((4, 4)))
        assert extract_contours(fld, 0.5).polylines == []

    def test_linear_field_exact(self):
        grid = Grid2D((0.0, 1.0, 4), (0.0, 4.0, 5))
        fld = ScalarField(grid, np.broadcast_to(grid.w_values(), (4, 5)).copy())
        cs = extract_contours(fld, 2.0)
        assert len(cs.polylines) == 1
        pl = cs.polylines[0]
        assert np.allclose(pl[:, 1], 2.0, atol=0)
        assert len(pl) == 4

    def test_vertex_reevaluation_five_percent(self, normal_op):
        grid = Grid2D((0.0, 1.0, 200), (0.0, 8.0, 200))
        fld = compute_sigma_field(normal_op, grid)
        cs = extract_contours(fld, 0.1)
        assert cs.polylines
        worst = 0.0
        for pl in cs.polylines:
            for u, w in pl:
                sigma, _ = sigma_min(normal_op, complex(w, 0.0), u)
                worst = max(worst, abs(sigma - 0.1))
        assert worst <= 0.05 * 0.1

    def test_geometry_invariants(self, normal_op):
        grid = Grid2D((0.0, 1.0, 24), (0.0, 8.0, 40))
        fld = compute_sigma_field(normal_op, grid)
        for level in (0.1, 0.35, 0.8):
            assert_contours_on_grid(extract_contours(fld, level), grid)

    def test_closed_loop_repeats_first_vertex(self, traj_op):
        grid = Grid2D((100.0, 140.0, 41), (50.0, 58.0, 41))
        fld = compute_sigma_field(traj_op, grid)
        cs = extract_contours(fld, 0.3)
        loops = [pl for pl in cs.polylines
                 if np.array_equal(pl[0], pl[-1]) and len(pl) > 3]
        assert loops, "expected a closed contour around the flutter point"


def assert_vertices_match(contour, expected, grid, tol=1e-12):
    """Contour vertices are the oracle's crossings, one each, within tol of a cell."""
    got = [pl[:-1] if len(pl) > 2 and np.array_equal(pl[0], pl[-1]) else pl
           for pl in contour.polylines]
    got = np.vstack(got) if got else np.empty((0, 2))
    expected = np.array(expected).reshape(-1, 2)
    assert len(got) == len(expected)
    assert np.isfinite(got).all()
    if not len(got):
        return
    cell = min(np.diff(grid.u_values()).min(), np.diff(grid.w_values()).min())
    dist = np.abs(got[:, None, :] - expected[None, :, :]).max(axis=2) / cell
    for k in range(len(expected)):  # greedy one-to-one matching
        m = int(dist[:, k].argmin())
        assert dist[m, k] <= tol, f"no vertex at crossing {expected[k]}"
        dist[m, :] = np.inf


def _scalar_pairs(values):
    return lambda p, q: (values[p], values[q])


class TestArrayMarch:
    """Marching squares against the brute-force edge oracle of conftest."""

    @settings(max_examples=60)
    @given(nu=st.integers(2, 9), nw=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1),
           level=st.floats(-1.0, 1.0))
    def test_random_scalar_field(self, nu, nw, seed, level):
        rng = np.random.default_rng(seed)
        grid = Grid2D((0.0, 1.0, nu), (-2.0, 3.0, nw))
        values = rng.standard_normal((nu, nw))
        cs = extract_contours(ScalarField(grid, values), level)
        expected = edge_crossings(grid.u_values(), grid.w_values(), _scalar_pairs(values), level)
        assert_vertices_match(cs, expected, grid, tol=0.0)
        assert_contours_on_grid(cs, grid)

    @settings(max_examples=40)
    @given(nu=st.integers(2, 9), nw=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_det_component(self, nu, nw, seed):
        rng = np.random.default_rng(seed)
        grid = Grid2D((0.0, 1.0, nu), (0.0, 1.0, nw))
        log_mag = rng.uniform(-5.0, 5.0, (nu, nw))
        phase = rng.uniform(-np.pi, np.pi, (nu, nw))
        contours = det_zero_contours(ComplexField(grid, log_mag, phase))
        for cs, unit in zip(contours, (np.cos(phase), np.sin(phase))):
            expected = edge_crossings(grid.u_values(), grid.w_values(),
                                      det_pair_values(log_mag, unit), 0.0)
            assert_vertices_match(cs, expected, grid)

    @pytest.mark.parametrize("center_inside", [True, False])
    @pytest.mark.parametrize("case", [5, 10])
    def test_saddle_cells(self, case, center_inside):
        # one cell; the diagonal pair c00, c11 (case 5) or c10, c01 (case 10) is inside
        grid = Grid2D((0.0, 1.0, 2), (0.0, 1.0, 2))
        high, low = (1.5, -1.0) if center_inside else (1.0, -3.0)
        values = np.full((2, 2), low)
        for node in ([(0, 0), (1, 1)] if case == 5 else [(1, 0), (0, 1)]):
            values[node] = high
        assert bool(values.mean() >= 0.0) is center_inside
        cs = extract_contours(ScalarField(grid, values), 0.0)

        def side(u, w):
            return {0.0: "left", 1.0: "right"}.get(u) or {0.0: "bottom", 1.0: "top"}[w]

        pieces = {frozenset(side(u, w) for u, w in pl) for pl in cs.polylines}
        # each piece cuts off one corner, and the cut-off corners are the ones
        # outside when the center is inside (the inside pair joins through it)
        inside = {(0, 0), (1, 1)} if case == 5 else {(1, 0), (0, 1)}
        cut = {(0, 0), (1, 0), (0, 1), (1, 1)} - inside if center_inside else inside
        corner_sides = {(0, 0): {"left", "bottom"}, (1, 0): {"right", "bottom"},
                        (0, 1): {"left", "top"}, (1, 1): {"right", "top"}}
        assert pieces == {frozenset(corner_sides[c]) for c in cut}
        assert all(len(pl) == 2 for pl in cs.polylines)

    def test_singular_node_det_field(self):
        # det = (1 - chi)(3 - chi) is exactly 0 on the grid lines chi_R = 1 and 3
        op = build_normal_operator([1.0, 3.0], Window(0.0, 1.0, 0.0, 4.0))
        grid = Grid2D((0.0, 1.0, 4), (0.0, 4.0, 9))
        fld = compute_det_field(op, grid)
        assert np.isneginf(fld.log_magnitude).sum() == 2 * 4
        cs, _ = det_zero_contours(fld)
        expected = edge_crossings(grid.u_values(), grid.w_values(),
                                  det_pair_values(fld.log_magnitude, np.cos(fld.phase)), 0.0)
        assert_vertices_match(cs, expected, grid)

    def test_all_singular_cells_give_no_vertices(self):
        grid = Grid2D((0.0, 1.0, 4), (0.0, 1.0, 4))
        log_mag = np.full((4, 4), -np.inf)
        log_mag[3, 3] = 0.0
        phase = np.zeros((4, 4))
        phase[3, 3] = np.pi
        cs, _ = det_zero_contours(ComplexField(grid, log_mag, phase))
        expected = edge_crossings(grid.u_values(), grid.w_values(),
                                  det_pair_values(log_mag, np.cos(phase)), 0.0)
        assert len(expected) == 2
        assert_vertices_match(cs, expected, grid)

    def test_closed_loop_repeats_first_vertex(self):
        grid = Grid2D((0.0, 1.0, 13), (0.0, 2.0, 17))
        us, ws = grid.u_values(), grid.w_values()
        values = (us[:, None] - 0.45) ** 2 + ((ws[None, :] - 1.1) / 2.0) ** 2
        cs = extract_contours(ScalarField(grid, values), 0.07)
        assert len(cs.polylines) == 1
        loop = cs.polylines[0]
        assert np.array_equal(loop[0], loop[-1])
        assert len(np.unique(loop[:-1], axis=0)) == len(loop) - 1
        assert_vertices_match(cs, edge_crossings(us, ws, _scalar_pairs(values), 0.07), grid,
                              tol=0.0)

    def test_degenerate_rows_skipped(self):
        grid = Grid2D((0.0, 1.0, 7), (0.0, 1.0, 9))
        us, ws = grid.u_values(), grid.w_values()
        phase = np.sin(7.0 * us[:, None] + 5.0 * ws[None, :]) * 2.5
        phase[[0, 3]] = 0.0            # Im(det) identically zero on rows 0 and 3
        log_mag = np.zeros_like(phase)
        fld = ComplexField(grid, log_mag, phase)
        unit = np.sin(phase)
        flat = np.all(np.abs(unit) <= 1e-12, axis=1)
        assert flat.tolist() == [True, False, False, True, False, False, False]

        def in_live_cell(p, q):
            # a cell is live when neither of its rows is flat
            rows = {p[0], q[0]}
            cells = [(r, r + 1) for r in range(len(us) - 1) if rows <= {r, r + 1}]
            return any(not flat[a] and not flat[b] for a, b in cells)

        _, cs = det_zero_contours(fld)
        expected = edge_crossings(us, ws, det_pair_values(log_mag, unit), 0.0, in_live_cell)
        assert expected
        assert_vertices_match(cs, expected, grid)
        assert all(u not in (us[0], us[3]) for pl in cs.polylines for u in pl[:, 0])


def assert_same_polylines(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def cell_corners(values):
    return values[:-1, :-1], values[1:, :-1], values[1:, 1:], values[:-1, 1:]


def saddle_phase(rng, nu, nw):
    """Phases whose Re signs alternate like a checkerboard (a saddle in every
    cell) and whose Im signs alternate by U row, each away from the axes."""
    i, j = np.indices((nu, nw))
    angle = rng.uniform(0.1, 1.4, (nu, nw))
    return np.where((i + j) % 2 == 0, angle, np.pi - angle) * np.where(i % 2 == 0, 1.0, -1.0)


@st.composite
def det_fields(draw):
    """Det fields on up to 9 x 9 nodes with what the zero contours must survive:
    -inf nodes, nodes more than 745 below a neighbour (scaled to +-0, inside),
    exact phases 0, +-pi/2 and pi, rows where one component vanishes, and
    saddle cells of both kinds."""
    nu, nw = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    log_mag = rng.uniform(-5.0, 5.0, (nu, nw))
    if draw(st.booleans()):
        phase = saddle_phase(rng, nu, nw)
    else:
        phase = rng.uniform(-np.pi, np.pi, (nu, nw))

    def some(share):
        return rng.random((nu, nw)) < share

    exact = some(draw(st.sampled_from([0.0, 0.2, 0.5])))
    phase[exact] = rng.choice([0.0, np.pi / 2, -np.pi / 2, np.pi], exact.sum())
    log_mag[some(draw(st.sampled_from([0.0, 0.1, 0.3])))] = -np.inf
    log_mag[some(draw(st.sampled_from([0.0, 0.2, 0.4])))] -= 800.0
    rows = rng.random(nu) < draw(st.sampled_from([0.0, 0.3]))
    phase[rows] = rng.choice([0.0, np.pi, np.pi / 2, -np.pi / 2])
    return ComplexField(Grid2D((100.0, 140.0, nu), (48.0, 60.0, nw)), log_mag, phase)


class TestMarchMatchesReference:
    """The array marching gives the per-cell loop's polylines bit for bit."""

    @settings(max_examples=60)
    @given(nu=st.integers(2, 9), nw=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1),
           level=st.floats(-1.0, 1.0), on_node=st.booleans(), integer=st.booleans())
    def test_random_scalar_field(self, nu, nw, seed, level, on_node, integer):
        rng = np.random.default_rng(seed)
        grid = Grid2D((0.0, 1.0, nu), (-2.0, 3.0, nw))
        # integer values make many nodes sit exactly on a level taken from a node
        values = (rng.integers(-2, 3, (nu, nw)).astype(float) if integer
                  else rng.standard_normal((nu, nw)))
        if on_node:
            level = float(values.flat[rng.integers(values.size)])
        cs = extract_contours(ScalarField(grid, values), level)
        assert_same_polylines(cs.polylines, reference_march(
            grid.u_values(), grid.w_values(), cell_corners(values), level))

    @settings(max_examples=100)
    @given(fld=det_fields())
    def test_random_det_field(self, fld):
        for cs, expected in zip(det_zero_contours(fld), reference_det_zero_contours(fld)):
            assert_same_polylines(cs.polylines, expected)

    @pytest.mark.parametrize("level", [0.04, 0.08, 0.15, 1.0, 4.0, "node"])
    def test_readme_sigma_field(self, level):
        # the README `pseudo` run: its eps 0.04 and 0.08 give no polylines on this grid
        op = build_trajectory_operator(reference_restabilization_spec())
        fld = compute_sigma_field(op, Grid2D((10.0, 400.0, 101), (20.0, 200.0, 101)))
        if level == "node":  # the node value at the 5th percentile
            level = float(np.sort(fld.values, axis=None)[fld.values.size // 20])
        cs = extract_contours(fld, level)
        assert bool(cs.polylines) is (level > 0.1)
        assert_same_polylines(cs.polylines, reference_march(
            fld.grid.u_values(), fld.grid.w_values(), cell_corners(fld.values), level))


class TestDetZeroCrossings:
    """Per-cell crossings against all Re x Im segment pairs."""

    @settings(max_examples=300)
    @given(fld=det_fields())
    def test_same_crossings_as_all_pairs(self, fld):
        # every segment run in the segment table's direction, as the per-cell
        # pass runs it: the same arithmetic, so the same crossings bit for bit
        re, im = ([np.array([cache[a], cache[b]]) for a, b in segments]
                  for segments, cache in reference_det_zero_segments(fld))
        assert sorted(_det_zero_crossings(fld)) == sorted(polyline_intersections(re, im))

    @settings(max_examples=100)
    @given(nu=st.integers(2, 9), nw=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1))
    def test_chained_contours_give_the_same_crossings(self, nu, nw, seed):
        # A chained polyline may run a segment either way.  That moves an
        # intersection by rounding (up to 2e-14 relative in 3000 random fields),
        # and at a segment end it can decide a touching pair either way, so this
        # takes generic fields only: uniform phases and finite log|det|.
        rng = np.random.default_rng(seed)
        fld = ComplexField(Grid2D((100.0, 140.0, nu), (48.0, 60.0, nw)),
                           rng.uniform(-5.0, 5.0, (nu, nw)), rng.uniform(-np.pi, np.pi, (nu, nw)))
        got = _det_zero_crossings(fld)
        expected = polyline_intersections(*(cs.polylines for cs in det_zero_contours(fld)))
        assert len(got) == len(expected)
        unmatched = list(got)
        for u, w in expected:
            unmatched.remove(next(p for p in unmatched if p == pytest.approx((u, w), rel=1e-12)))
        # generic crossings lie inside their cell, and the cells come in row-major order
        cells = [(np.searchsorted(fld.grid.u_values(), u), np.searchsorted(fld.grid.w_values(), w))
                 for u, w in got]
        assert cells == sorted(cells)

    def test_saddle_fields_have_both_saddle_cases(self):
        rng = np.random.default_rng(0)
        phase = saddle_phase(rng, 9, 9)
        log_mag = rng.uniform(-5.0, 5.0, (9, 9))
        re = np.exp(log_mag - log_mag.max()) * np.cos(phase)
        c00, c10, c11, c01 = cell_corners(re >= 0.0)
        assert np.all((c00 == c11) & (c10 == c01) & (c00 != c10))  # every cell a saddle
        center = sum(cell_corners(re))  # rescaling a cell keeps the sign of its center
        assert (center >= 0.0).any() and (center < 0.0).any()
        fld = ComplexField(Grid2D((100.0, 140.0, 9), (48.0, 60.0, 9)), log_mag, phase)
        assert _det_zero_crossings(fld)


class TestEpsilonPseudospectrum:
    def test_constant_above_eps_empty(self):
        op = build_normal_operator([0.0], Window(-1.0, 1.0, 0.5, 3.0))
        grid = Grid2D((-1.0, 1.0, 4), (1.0, 2.0, 5))
        sets = epsilon_pseudospectrum(op, grid, [0.5])
        assert sets[0].polylines == []

    def test_nesting_against_known_disks(self, normal_op):
        grid = Grid2D((0.0, 1.0, 120), (0.0, 8.0, 120))
        sets = epsilon_pseudospectrum(normal_op, grid, [0.1, 0.2])
        assert sets[0].polylines and sets[1].polylines
        for pl in sets[0].polylines:
            for _, w in pl:
                assert distance_to_spectrum(w) <= 0.2

    def test_paper_demonstration_levels_accepted(self, normal_op):
        grid = Grid2D((0.0, 1.0, 40), (0.0, 8.0, 120))
        sets = epsilon_pseudospectrum(normal_op, grid, [0.04, 0.08])
        assert len(sets) == 2
        assert sets[0].level == 0.04 and sets[1].level == 0.08

    def test_eps_list_validation(self, normal_op):
        grid = Grid2D((0.0, 1.0, 4), (0.0, 8.0, 4))
        with pytest.raises(ValueError):
            epsilon_pseudospectrum(normal_op, grid, [])
        with pytest.raises(ValueError):
            epsilon_pseudospectrum(normal_op, grid, [0.2, 0.1])
        with pytest.raises(ValueError):
            epsilon_pseudospectrum(normal_op, grid, [-0.1, 0.2])
        for eps in ([math.nan, 0.04], [0.04, math.inf]):
            with pytest.raises(ValueError, match="must be finite"):
                epsilon_pseudospectrum(normal_op, grid, eps)


class TestBorderlineRegions:
    def test_constant_field_empty(self):
        grid = Grid2D((0.0, 1.0, 4), (0.0, 1.0, 4))
        fld = ScalarField(grid, np.ones((4, 4)))
        assert find_borderline_regions(fld, 0.5) == []

    def test_threshold_validation(self):
        grid = Grid2D((0.0, 1.0, 4), (0.0, 1.0, 4))
        fld = ScalarField(grid, np.ones((4, 4)))
        for threshold in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                find_borderline_regions(fld, threshold)

    def test_dipping_trajectory_single_region(self):
        # one mode whose damping dips to 0.03 at U = 200, no flutter anywhere
        spec = TrajectorySpec(modes=(
            ModeTrajectory(omega_coeffs=(50.0,), g_coeffs=(4.03, -0.04, 1e-4)),))
        op = build_trajectory_operator(spec, Window(100.0, 300.0, 40.0, 60.0))
        assert spec.modes[0].g(200.0) == pytest.approx(0.03, abs=1e-12)
        grid = Grid2D((150.0, 250.0, 101), (49.5, 50.5, 101))
        fld = compute_sigma_field(op, grid)
        regions = find_borderline_regions(fld, 0.08, flutter_points=[])
        assert len(regions) == 1
        assert regions[0].near_flutter is False
        assert regions[0].min_sigma == pytest.approx(0.03, abs=1e-3)
        assert regions[0].center[0] == pytest.approx(200.0, abs=1.0)

    def test_restabilization_hump_region(self, traj_op, traj_oracle, traj_flutter):
        grid = Grid2D((450.0, 700.0, 251), (26.0, 36.0, 501))
        fld = compute_sigma_field(traj_op, grid)
        threshold = 1.5 * abs(traj_oracle.hump_g)
        regions = find_borderline_regions(
            fld, threshold, flutter_points=[traj_flutter])
        off_flutter = [r for r in regions if not r.near_flutter]
        assert len(off_flutter) == 1
        region = off_flutter[0]
        cell_u, cell_w = 250.0 / 250, 10.0 / 500
        assert abs(region.center[0] - traj_oracle.hump_u) <= cell_u
        assert abs(region.center[1] - traj_oracle.omega(traj_oracle.hump_u)) <= cell_w
        assert region.min_sigma < threshold
        # region must stay clear of the near-flutter ellipse (5% of each span)
        ex_u, ex_w = 0.05 * 250.0, 0.05 * 10.0
        fu, fw = traj_flutter.point.U, traj_flutter.point.chi_R
        assert ((region.center[0] - fu) / ex_u) ** 2 + ((region.center[1] - fw) / ex_w) ** 2 > 1.0

    def test_near_flutter_flag(self, traj_op, traj_flutter):
        # window containing the flutter point: its sublevel region is flagged
        grid = Grid2D((80.0, 160.0, 161), (52.0, 56.0, 161))
        fld = compute_sigma_field(traj_op, grid)
        regions = find_borderline_regions(fld, 0.1, flutter_points=[traj_flutter])
        assert regions
        flagged = [r for r in regions if r.near_flutter]
        assert flagged
        best = min(regions, key=lambda r: r.min_sigma)
        assert best.near_flutter is True
        assert abs(best.center[0] - 120.0) <= 1.0


@st.composite
def masks(draw):
    """Boolean grids from 1x1 to 15x15: random, empty, full, checkerboard, one row or column."""
    kind = draw(st.sampled_from(["random", "empty", "full", "checkerboard", "row", "column"]))
    rows = 1 if kind == "row" else draw(st.integers(1, 15))
    cols = 1 if kind == "column" else draw(st.integers(1, 15))
    if kind == "empty":
        return np.zeros((rows, cols), dtype=bool)
    if kind == "full":
        return np.ones((rows, cols), dtype=bool)
    if kind == "checkerboard":
        return np.indices((rows, cols)).sum(axis=0) % 2 == draw(st.integers(0, 1))
    bits = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    return np.array(bits, dtype=bool).reshape(rows, cols)


def ndimage_regions(fld, threshold):
    """(center, min_sigma, extent) per 4-connected sublevel region, labelled by scipy.ndimage."""
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    labels, count = ndimage.label(fld.values < threshold)
    regions = []
    for lbl in range(1, count + 1):
        ii, jj = np.nonzero(labels == lbl)
        k = np.argmin(fld.values[ii, jj])
        regions.append(((us[ii[k]], ws[jj[k]]), fld.values[ii[k], jj[k]],
                        (us[ii.min()], us[ii.max()], ws[jj.min()], ws[jj.max()])))
    return sorted(regions)


class TestLabelComponents:
    @settings(max_examples=200)
    @given(mask=masks())
    def test_same_partition_as_ndimage(self, mask):
        labels, count = _label_components(mask)
        expected, expected_count = ndimage.label(mask)
        assert labels.shape == mask.shape and count == expected_count
        assert np.array_equal(labels == 0, ~mask)
        pairs = set(zip(labels[mask].tolist(), expected[mask].tolist()))
        # one label pair per region: the two labellings differ by a permutation
        assert len(pairs) == count
        assert {a for a, _ in pairs} == set(range(1, count + 1))
        assert {b for _, b in pairs} == set(range(1, count + 1))

    @pytest.mark.parametrize("threshold", [0.15, 1.0, 4.0])
    def test_readme_sigma_field_regions(self, threshold):
        op = build_trajectory_operator(reference_restabilization_spec())
        fld = compute_sigma_field(op, Grid2D((10.0, 400.0, 101), (20.0, 200.0, 101)))
        got = [(r.center, r.min_sigma, r.extent)
               for r in find_borderline_regions(fld, threshold)]
        assert got and got == ndimage_regions(fld, threshold)

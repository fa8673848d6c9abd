"""Fields, marching-squares contours, pseudospectra, borderline regions."""

import dataclasses
import math
import re
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
                         compute_sigma_field, epsilon_pseudospectrum, extract_contours,
                         find_borderline_regions, sigma_min)
from flutterspec.operator import evaluate_batch
from flutterspec.models import ModeTrajectory, TrajectorySpec, reference_restabilization_spec
from flutterspec import pseudospectrum

from conftest import (NORMAL_EIGENVALUES, distance_to_spectrum, edge_crossings, hopf_points,
                      reference_march)


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

    @pytest.mark.parametrize("u_count, w_count, message", [
        (3.0, 3, "u_axis count must be an integer, not 3.0"),
        (3, 4.0, "w_axis count must be an integer, not 4.0"),
        (True, 3, "u_axis count must be an integer, not True"),
        (3, np.float64(3.0), "w_axis count must be an integer"),
        (np.int64(1), 3, "u_axis count must be >= 2"),
    ], ids=["float_u", "float_w", "bool_u", "numpy_float_w", "numpy_int_below_2"])
    def test_counts_must_be_integers(self, u_count, w_count, message):
        with pytest.raises(ValueError, match=message):
            Grid2D((0.0, 1.0, u_count), (0.0, 1.0, w_count))

    def test_numpy_integer_counts_accepted(self):
        grid = Grid2D((0.0, 1.0, np.int64(3)), (0.0, 1.0, np.int32(4)))
        assert grid.u_values().tolist() == [0.0, 0.5, 1.0]
        assert grid.w_values().size == 4

    @pytest.mark.parametrize("compute", [compute_sigma_field, compute_det_field],
                             ids=["sigma", "det"])
    def test_outside_window_rejected(self, normal_op, compute):
        # both fields take the operator window's one rule, whose error names both rectangles
        grid = Grid2D((-50.0, 50.0, 4), (0.0, 1.0, 4))
        message = (r"window Window\(u_min=-50\.0, u_max=50\.0, chi_r_min=0\.0, chi_r_max=1\.0\) "
                   rf"exceeds the operator window {re.escape(repr(normal_op.window))}$")
        with pytest.raises(ValueError, match=message):
            compute(normal_op, grid)

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

    def test_failed_batch_redone_row_by_row(self, monkeypatch):
        # the batched SVD of each chunk raises and every row's SVD succeeds: the redo row
        # by row gives the field the batched SVD gives
        op = build_galerkin_wing(GalerkinWingSpec(n_bending=2, n_torsion=2))
        grid = Grid2D.over_window(op.window, 9, 11, chi_I_fixed=0.5)
        expected = compute_sigma_field(op, grid).values
        svd, ranks = np.linalg.svd, []

        def stack_fails(a, *args, **kwargs):
            ranks.append(np.ndim(a))
            if np.ndim(a) == 4:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", stack_fails)
        assert np.array_equal(compute_sigma_field(op, grid).values, expected)
        assert ranks.count(4) == 1 and ranks.count(3) == 9

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

    @pytest.mark.parametrize("compute", [compute_sigma_field, compute_det_field],
                             ids=["sigma", "det"])
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_plain_callable_runs_on_the_calling_thread(self, monkeypatch, cpus, compute):
        base = build_normal_operator([1.0, 2.0], Window(0.0, 4.0, 0.0, 3.0))
        callers = set()

        def func(chi, u):
            callers.add(threading.get_ident())
            return base.func(chi, u)

        op = dataclasses.replace(base, func=func)
        grid = Grid2D((0.0, 4.0, 9), (0.0, 3.0, 7))
        monkeypatch.setattr(pseudospectrum, "CHUNK_ENTRIES", 60)  # two rows per chunk
        set_available_cpus(monkeypatch, cpus)
        fld = compute(op, grid)
        assert callers == {threading.get_ident()}
        distances = np.abs(grid.w_values()[:, None] - np.array([1.0, 2.0]))
        if compute is compute_sigma_field:
            assert np.abs(fld.values - distances.min(axis=1)).max() <= 1e-12
        else:
            assert np.abs(np.exp(fld.log_magnitude) - distances.prod(axis=1)).max() <= 1e-12


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

    def test_typical_section_real_slice_at_zero_airspeed(self, ts_op):
        grid = Grid2D((0.5, 20.0, 6), (10.0, 60.0, 31))
        fld = compute_det_field(ts_op, grid)
        assert not imag_degenerate_rows(fld).any()
        # U = 0 up to past the one flutter point
        grid0 = Grid2D((0.0, 60.0, 13), (10.0, 60.0, 26))
        op0 = build_typical_window_op(ts_op)
        fld0 = compute_det_field(op0, grid0)
        degen = imag_degenerate_rows(fld0)
        assert degen[0] and not degen[1:].any()
        # A is singular on the real U = 0 slice at the two natural frequencies, where the
        # real det changes sign: twice along that row
        at_rest = hopf_points(op0.func, Window(0.0, 60.0, 10.0, 60.0))
        assert len({round(w, 6) for u, w in at_rest if u < 1e-9}) == 2
        assert np.count_nonzero(np.diff(np.sign(np.cos(fld0.phase[0])))) == 2

    def test_restabilization_smallest_det_at_flutter(self, traj_op, traj_oracle):
        # the flutter point (120, 54) is the node (16, 16) of this grid
        grid = Grid2D((100.0, 140.0, 33), (48.0, 60.0, 33))
        fld = compute_det_field(traj_op, grid)
        i, j = np.unravel_index(np.argmin(fld.log_magnitude), fld.log_magnitude.shape)
        assert (grid.u_values()[i], grid.w_values()[j]) == (120.0, traj_oracle.omega(120.0))

    def test_det_field_is_not_a_sigma_field(self, traj_op):
        grid = Grid2D((100.0, 140.0, 5), (48.0, 60.0, 5))
        fld = compute_det_field(traj_op, grid)
        with pytest.raises(TypeError):
            extract_contours(fld, 0.0)


def imag_degenerate_rows(fld):
    """Rows on which Im(det) vanishes identically (|sin(phase)| <= 1e-12 at every node)."""
    return np.all(np.abs(np.sin(fld.phase)) <= 1e-12, axis=1)


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


def test_fields_identical_for_any_worker_count(monkeypatch):
    """wing_n16 on 30x11 (chunks of 23 and 7 rows): 1 and 4 workers give the bytes of a
    serial per-chunk SVD and slogdet of the same evaluate_batch stacks."""
    op = build_galerkin_wing(GalerkinWingSpec(n_bending=8, n_torsion=8))
    grid = Grid2D.over_window(op.window, 30, 11, chi_I_fixed=0.5)
    chis, us = grid.w_values() + 0.5j, grid.u_values()
    stacks = [evaluate_batch(op, chis[None, :], us[rows, None]).reshape(-1, 11, 16, 16)
              for rows in (slice(0, 23), slice(23, 30))]
    sign, log_mag = (np.concatenate(part) for part in zip(*map(np.linalg.slogdet, stacks)))
    serial = [np.concatenate([np.linalg.svd(a, compute_uv=False)[..., -1] for a in stacks]),
              log_mag, np.angle(sign)]
    for cpus in (1, 4):
        set_available_cpus(monkeypatch, cpus)
        det = compute_det_field(op, grid)
        fields = [compute_sigma_field(op, grid).values, det.log_magnitude, det.phase]
        assert all(np.array_equal(a, b) for a, b in zip(fields, serial))


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


@pytest.mark.parametrize("compute", [compute_sigma_field, compute_det_field],
                         ids=["sigma", "det"])
def test_small_field_is_one_batch(monkeypatch, compute):
    """A 64x64 n=2 field fits one chunk: one evaluate_batch call, not one per row."""
    calls, evaluate_batch = [], pseudospectrum.evaluate_batch

    def counting(*args):
        calls.append(args)
        return evaluate_batch(*args)

    op = build_typical_section()
    monkeypatch.setattr(pseudospectrum, "evaluate_batch", counting)
    compute(op, Grid2D.over_window(op.window, 64, 64))
    assert len(calls) == 1


class TestContours:
    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    def test_level_must_be_finite_and_positive(self, level):
        # the rule of eps_list: a sigma field has no contour at such a level
        fld = ScalarField(Grid2D((0.0, 1.0, 4), (0.0, 1.0, 4)), np.ones((4, 4)))
        with pytest.raises(ValueError, match="level must be positive and finite"):
            extract_contours(fld, level)

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


def polyline_vertices(contour):
    """The vertices of a contour set, a closed loop's repeated first vertex once."""
    got = [pl[:-1] if len(pl) > 2 and np.array_equal(pl[0], pl[-1]) else pl
           for pl in contour.polylines]
    return np.vstack(got) if got else np.empty((0, 2))


def assert_vertices_match(got, expected, grid, tol=1e-12):
    """Vertices (N, 2) are the oracle's crossings, one each, within tol of a cell."""
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
           level=st.floats(1.0, 5.0))
    def test_random_scalar_field(self, nu, nw, seed, level):
        rng = np.random.default_rng(seed)
        grid = Grid2D((0.0, 1.0, nu), (-2.0, 3.0, nw))
        values = rng.uniform(1.0, 5.0, (nu, nw))  # a level must be positive
        cs = extract_contours(ScalarField(grid, values), level)
        expected = edge_crossings(grid.u_values(), grid.w_values(), _scalar_pairs(values), level)
        assert_vertices_match(polyline_vertices(cs), expected, grid, tol=0.0)
        assert_contours_on_grid(cs, grid)

    @pytest.mark.parametrize("center_inside", [True, False])
    @pytest.mark.parametrize("case", [5, 10])
    def test_saddle_cells(self, case, center_inside):
        # one cell; the diagonal pair c00, c11 (case 5) or c10, c01 (case 10) is inside
        grid = Grid2D((0.0, 1.0, 2), (0.0, 1.0, 2))
        high, low = (2.5, 0.0) if center_inside else (2.0, -2.0)  # about the level 1
        values = np.full((2, 2), low)
        for node in ([(0, 0), (1, 1)] if case == 5 else [(1, 0), (0, 1)]):
            values[node] = high
        assert bool(values.mean() >= 1.0) is center_inside
        cs = extract_contours(ScalarField(grid, values), 1.0)

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

    def test_closed_loop_repeats_first_vertex(self):
        grid = Grid2D((0.0, 1.0, 13), (0.0, 2.0, 17))
        us, ws = grid.u_values(), grid.w_values()
        values = (us[:, None] - 0.45) ** 2 + ((ws[None, :] - 1.1) / 2.0) ** 2
        cs = extract_contours(ScalarField(grid, values), 0.07)
        assert len(cs.polylines) == 1
        loop = cs.polylines[0]
        assert np.array_equal(loop[0], loop[-1])
        assert len(np.unique(loop[:-1], axis=0)) == len(loop) - 1
        assert_vertices_match(polyline_vertices(cs),
                              edge_crossings(us, ws, _scalar_pairs(values), 0.07), grid, tol=0.0)


@st.composite
def marching_fields(draw):
    """(us, ws, values, level) for _cell_segments: increasing axes of uneven spacing, and
    values uniform, small integers or a checkerboard (a saddle of one of the two kinds in
    every cell, its centre on either side), the level often tied to a node value."""
    nu, nw = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    us, ws = (np.cumsum(rng.uniform(0.1, 2.0, count)) - 3.0 for count in (nu, nw))
    kind = draw(st.sampled_from(["uniform", "integer", "saddle"]))
    if kind == "uniform":
        values = rng.uniform(1.0, 5.0, (nu, nw))
    elif kind == "integer":
        values = rng.integers(1, 6, (nu, nw)).astype(float)
    else:
        i, j = np.indices((nu, nw))
        values = 3.0 + np.where((i + j) % 2 == 0, 1.0, -1.0) * rng.uniform(0.5, 2.0, (nu, nw))
    if draw(st.booleans()):
        level = float(values.flat[rng.integers(values.size)])
    else:
        level = draw(st.floats(1.0, 5.0))
    return us, ws, values, level


class TestCellSegments:
    @settings(max_examples=200)
    @given(field=marching_fields())
    def test_segment_ends_on_one_edge_have_one_vertex(self, field):
        # the two cells on a grid edge read its corners in one order and interpolate them
        # with one formula, so their vertices agree bit for bit
        keys, verts = pseudospectrum._cell_segments(*field)
        vertex = {}
        for key, (u, w) in zip(keys.ravel().tolist(), verts.reshape(-1, 2).tolist()):
            assert vertex.setdefault(key, (u.hex(), w.hex())) == (u.hex(), w.hex())


def assert_same_polylines(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def cell_corners(values):
    return values[:-1, :-1], values[1:, :-1], values[1:, 1:], values[:-1, 1:]


class TestMarchMatchesReference:
    """The array marching gives the per-cell loop's polylines bit for bit."""

    @settings(max_examples=60)
    @given(nu=st.integers(2, 9), nw=st.integers(2, 9), seed=st.integers(0, 2 ** 32 - 1),
           level=st.floats(1.0, 5.0), on_node=st.booleans(), integer=st.booleans())
    def test_random_scalar_field(self, nu, nw, seed, level, on_node, integer):
        rng = np.random.default_rng(seed)
        grid = Grid2D((0.0, 1.0, nu), (-2.0, 3.0, nw))
        # integer values make many nodes sit exactly on a level taken from a node; every
        # value is positive, as a level must be
        values = (rng.integers(1, 6, (nu, nw)).astype(float) if integer
                  else rng.uniform(1.0, 5.0, (nu, nw)))
        if on_node:
            level = float(values.flat[rng.integers(values.size)])
        cs = extract_contours(ScalarField(grid, values), level)
        assert_same_polylines(cs.polylines, reference_march(
            grid.u_values(), grid.w_values(), cell_corners(values), level))

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
    """Boolean grids from 2x2 to 15x15 (a grid has two nodes per axis at least): random,
    empty, full, checkerboard, two rows or two columns."""
    kind = draw(st.sampled_from(["random", "empty", "full", "checkerboard", "row", "column"]))
    rows = 2 if kind == "row" else draw(st.integers(2, 15))
    cols = 2 if kind == "column" else draw(st.integers(2, 15))
    if kind == "empty":
        return np.zeros((rows, cols), dtype=bool)
    if kind == "full":
        return np.ones((rows, cols), dtype=bool)
    if kind == "checkerboard":
        return np.indices((rows, cols)).sum(axis=0) % 2 == draw(st.integers(0, 1))
    bits = draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    return np.array(bits, dtype=bool).reshape(rows, cols)


def field_on_mask(mask, seed):
    """A sigma field on a unit grid that lies below 0.5 exactly on ``mask``: k/8 there, with
    k = 0..3 drawn from ``seed`` (so regions have tied minima), and 0.5 or 1 elsewhere."""
    rng = np.random.default_rng(seed)
    values = np.where(mask, rng.integers(0, 4, mask.shape) / 8, rng.integers(1, 3, mask.shape) / 2)
    return ScalarField(Grid2D((0.0, 1.0, mask.shape[0]), (0.0, 1.0, mask.shape[1])), values)


def ndimage_regions(fld, threshold):
    """(center, min_sigma, extent) per 4-connected sublevel region, labelled by scipy.ndimage."""
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    labels, count = ndimage.label(fld.values < threshold)
    regions = []
    for lbl, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        ii, jj = np.nonzero(labels[rows, cols] == lbl)  # row-major within the bounding box
        ii, jj = ii + rows.start, jj + cols.start
        k = np.argmin(fld.values[ii, jj])
        regions.append(((us[ii[k]], ws[jj[k]]), fld.values[ii[k], jj[k]],
                        (us[ii.min()], us[ii.max()], ws[jj.min()], ws[jj.max()])))
    return sorted(regions)


def region_tuples(fld, threshold):
    return [(r.center, r.min_sigma, r.extent) for r in find_borderline_regions(fld, threshold)]


class TestLabelComponents:
    @settings(max_examples=200)
    @given(mask=masks(), seed=st.integers(0, 2 ** 32 - 1))
    def test_same_partition_as_ndimage(self, mask, seed):
        # regions, their first minimum as center and their extents, as ndimage labels them
        fld = field_on_mask(mask, seed)
        assert region_tuples(fld, 0.5) == ndimage_regions(fld, 0.5)

    def test_many_region_field(self):
        fld = ScalarField(Grid2D((0.0, 1.0, 300), (0.0, 1.0, 300)),
                          np.random.default_rng(1).uniform(size=(300, 300)))
        got = region_tuples(fld, 0.5)
        assert len(got) > 5000 and got == ndimage_regions(fld, 0.5)

    @pytest.mark.parametrize("threshold", [0.15, 1.0, 4.0])
    def test_readme_sigma_field_regions(self, threshold):
        op = build_trajectory_operator(reference_restabilization_spec())
        fld = compute_sigma_field(op, Grid2D((10.0, 400.0, 101), (20.0, 200.0, 101)))
        got = region_tuples(fld, threshold)
        assert got and got == ndimage_regions(fld, threshold)

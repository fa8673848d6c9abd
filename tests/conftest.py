"""Shared fixtures and independent oracles.

Oracles live here so every expected value in the tests traces back to a
computation that does not share code with the path it checks: closed-form
polynomial trajectories, brute-force distance-to-spectrum, a dense
determinant scan with bisection refinement for the typical section, and
explicit Kronecker expansions for the SLP corrector's operator determinants
with the three-parameter linear step built on them, and marching squares
cell by cell with the all-pairs intersection of Re/Im det contours (the
Python loop and the N x M pass that the array code replaced).
"""

import itertools

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
import scipy.linalg
from hypothesis import settings
from scipy.optimize import brentq

from flutterspec import (ContinuationSettings, EigenPoint, Window, evaluate,
                         build_normal_operator, build_trajectory_operator,
                         build_typical_section, find_flutter_points,
                         reference_restabilization_spec, trace_path)
from flutterspec import pseudospectrum

# Property tests run a fixed example sequence with no per-example deadline,
# so a slow or loaded machine cannot make them flaky.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# ---------------------------------------------------------------------------
# closed-form oracle for the reference restabilization trajectory


class TrajectoryOracle:
    """Exact values for the engineered two-mode restabilization fixture."""

    def __init__(self, spec):
        self.mode = spec.modes[0]
        self.u_flutter = 120.0
        dg = P.polyder(self.mode.g_coeffs)
        roots = np.sort(np.roots(dg[::-1]).real)
        interior = roots[(roots > 120.0) & (roots < 700.0)]
        self.dip_u = float(interior[0])       # damping minimum (most unstable)
        self.hump_u = float(interior[-1])     # near-restabilization maximum
        self.hump_g = float(self.mode.g(self.hump_u))
        # extremum of zeta: root of g'(U) omega(U) - g(U) omega'(U)
        h = P.polysub(P.polymul(dg, self.mode.omega_coeffs),
                      P.polymul(self.mode.g_coeffs, P.polyder(self.mode.omega_coeffs)))
        zr = np.roots(h[::-1])
        zr = zr[np.abs(zr.imag) < 1e-9].real
        self.zeta_ext_u = float([r for r in zr if 400.0 < r < 700.0][0])

    def omega(self, u):
        return float(self.mode.omega(u))

    def g(self, u):
        return float(self.mode.g(u))

    def domega(self, u):
        return float(P.polyval(u, P.polyder(self.mode.omega_coeffs)))

    def dg(self, u):
        return float(P.polyval(u, P.polyder(self.mode.g_coeffs)))

    def zeta(self, u):
        chi = complex(self.omega(u), self.g(u))
        return chi.imag / abs(chi)

    def u_at_zeta(self, level, lo, hi):
        return brentq(lambda u: self.zeta(u) - level, lo, hi, xtol=1e-12, rtol=8.9e-16)


@pytest.fixture(scope="session")
def traj_spec():
    return reference_restabilization_spec()


@pytest.fixture(scope="session")
def traj_oracle(traj_spec):
    return TrajectoryOracle(traj_spec)


@pytest.fixture(scope="session")
def traj_op(traj_spec):
    return build_trajectory_operator(traj_spec)


@pytest.fixture(scope="session")
def traj_flutter(traj_op):
    points = find_flutter_points(traj_op, Window(10.0, 400.0, 20.0, 200.0))
    assert len(points) == 1
    return points[0]


@pytest.fixture(scope="session")
def traj_point(traj_oracle, traj_op):
    """Exact closed-form eigenpoint factory for the trajectory fixture."""

    def make(u):
        return EigenPoint.from_vector(traj_op, traj_oracle.omega(u), traj_oracle.g(u),
                                      u, np.array([1.0, 0.0]))

    return make


@pytest.fixture(scope="session")
def super_path(traj_op, traj_flutter):
    """Supercritical reference path: fixed ds, through the hump and beyond."""
    settings = ContinuationSettings(ds=0.025, max_ds=0.025, max_steps=300)
    return trace_path(traj_op, traj_flutter, direction=-1, settings=settings)


# ---------------------------------------------------------------------------
# typical section and its determinant-scan oracle


@pytest.fixture(scope="session")
def ts_op():
    return build_typical_section()


@pytest.fixture(scope="session")
def ts_flutter(ts_op):
    points = find_flutter_points(ts_op)
    assert len(points) == 1
    return points[0]


def det_at(op, w, u):
    return complex(np.linalg.det(evaluate(op, complex(w, 0.0), u)))


def _re_det_roots(op, u, w_lo, w_hi, n_w):
    ws = np.linspace(w_lo, w_hi, n_w)
    vals = np.array([det_at(op, w, u).real for w in ws])
    roots = []
    for a, b, va, vb in zip(ws[:-1], ws[1:], vals[:-1], vals[1:]):
        if va == 0.0:
            roots.append(float(a))
        elif va * vb < 0.0:
            roots.append(brentq(lambda w: det_at(op, w, u).real, a, b,
                                xtol=1e-13, rtol=8.9e-16))
    return roots


def _branch_at(op, u, w_near, h, max_expand=50):
    lo, hi = w_near - h, w_near + h
    for _ in range(max_expand):
        if det_at(op, lo, u).real * det_at(op, hi, u).real <= 0.0:
            break
        lo -= h
        hi += h
    else:
        raise RuntimeError("oracle lost the Re(det) root branch")
    w = brentq(lambda w_: det_at(op, w_, u).real, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return w, det_at(op, w, u).imag


def det_scan_flutter(op, u_lo, u_hi, w_lo, w_hi, n_u=320, n_w=400):
    """Brute-force oracle: scan (U, chi_R) for simultaneous Re/Im det zeros.

    For each airspeed the Re(det) roots in chi_R are found by scan plus
    bisection; Im(det) is tracked along each root branch and its sign
    changes are bisected in U.  Independent of the contour machinery.
    """
    h = (w_hi - w_lo) / (n_w - 1)
    us = np.linspace(u_lo, u_hi, n_u)
    hits = []
    prev = None
    for u in us:
        cur = [(w, det_at(op, w, u).imag) for w in _re_det_roots(op, u, w_lo, w_hi, n_w)]
        if prev is not None:
            u_prev, branches = prev
            for w0, im0 in branches:
                if not cur:
                    continue
                w1, im1 = min(cur, key=lambda t: abs(t[0] - w0))
                if abs(w1 - w0) > (w_hi - w_lo) / 10.0:
                    continue
                if im0 * im1 < 0.0:
                    ua, ub, w = u_prev, u, w0
                    im_a = im0
                    for _ in range(80):
                        um = 0.5 * (ua + ub)
                        wm, im_m = _branch_at(op, um, w, h)
                        if im_m == 0.0:
                            ua = ub = um
                            w = wm
                            break
                        if im_a * im_m < 0.0:
                            ub = um
                        else:
                            ua, im_a = um, im_m
                        w = wm
                        if ub - ua <= 1e-13 * max(1.0, abs(um)):
                            break
                    um = 0.5 * (ua + ub)
                    wm, _ = _branch_at(op, um, w, h)
                    hits.append((um, wm))
        prev = (u, cur)
    return hits


@pytest.fixture(scope="session")
def ts_oracle(ts_op):
    hits = det_scan_flutter(ts_op, 1.0, 80.0, 5.0, 75.0)
    assert len(hits) == 1, f"oracle expected a unique flutter point, got {hits}"
    return hits[0]


# ---------------------------------------------------------------------------
# normal operator with prescribed spectrum

NORMAL_EIGENVALUES = (2.0 + 0.03j, 4.5 + 0.0j, 6.0 - 0.05j)


@pytest.fixture(scope="session")
def normal_op():
    return build_normal_operator(NORMAL_EIGENVALUES, Window(-10.0, 10.0, -10.0, 20.0))


def distance_to_spectrum(chi):
    """Brute-force min_k |chi - lambda_k| for the prescribed spectrum."""
    return min(abs(complex(chi) - lam) for lam in NORMAL_EIGENVALUES)


# ---------------------------------------------------------------------------
# marching-squares oracle: every straddling grid edge, interpolated linearly


def edge_crossings(us, ws, pair_values, level, edge_ok=lambda p, q: True):
    """Crossing points of all grid edges whose endpoints straddle ``level``.

    ``pair_values(p, q)`` gives the two endpoint values of the edge between
    nodes p and q (index pairs); "inside" means value >= level.  Edges with
    ``edge_ok(p, q)`` false are left out.  Brute force over every edge, no
    cells and no chaining.
    """
    points = []
    for i in range(len(us)):
        for j in range(len(ws)):
            for p, q in (((i, j), (i + 1, j)), ((i, j), (i, j + 1))):
                if q[0] >= len(us) or q[1] >= len(ws) or not edge_ok(p, q):
                    continue
                a, b = pair_values(p, q)
                if (a >= level) == (b >= level):
                    continue
                t = (level - a) / (b - a)
                points.append((us[p[0]] + t * (us[q[0]] - us[p[0]]),
                               ws[p[1]] + t * (ws[q[1]] - ws[p[1]])))
    return points


def det_pair_values(log_mag, unit):
    """Endpoint values of a det component, both scaled by the larger |det|."""

    def pair(p, q):
        top = max(log_mag[p], log_mag[q])
        if top == -np.inf:
            return 0.0, 0.0
        return (float(np.exp(log_mag[p] - top) * unit[p]),
                float(np.exp(log_mag[q] - top) * unit[q]))

    return pair


# ---------------------------------------------------------------------------
# marching squares cell by cell, as before the array marching: a Python loop
# over the crossed cells and a vertex cache, chained by the package's
# unchanged chainer; and the all-pairs intersection of two contour families

_REFERENCE_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),), 5: ((0, 3), (1, 2)),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((0, 2),), 10: ((0, 1), (2, 3)),
    11: ((1, 2),), 12: ((1, 3),), 13: ((0, 1),), 14: ((3, 0),),
    21: ((0, 1), (2, 3)), 26: ((0, 3), (1, 2)),
}


def reference_segments(us, ws, corners, level, skip_rows=None):
    """Marching squares over per-cell corner arrays (c00, c10, c11, c01), unchained.

    Returns the segments as edge-key pairs, in row-major cell order and the
    segment table's direction, and the vertex of every key: each grid edge
    gets its vertex from the first crossing cell (``setdefault``).
    ``skip_rows[i]`` drops the cells of row i.
    """
    c00, c10, c11, c01 = corners
    case = ((c00 >= level) | (c10 >= level) << 1 | (c11 >= level) << 2
            | (c01 >= level) << 3).astype(int)
    saddle = (case == 5) | (case == 10)
    case += 16 * (saddle & (0.25 * (c00 + c10 + c11 + c01) >= level))
    active = (case != 0) & (case != 15)
    if skip_rows is not None:
        active &= ~skip_rows[:, None]
    n_w, n_u_edges = ws.size, (us.size - 1) * ws.size
    segments, vertex_cache = [], {}
    for i, j in zip(*np.nonzero(active)):
        ends = ((c00[i, j], c10[i, j]), (c10[i, j], c11[i, j]), (c01[i, j], c11[i, j]),
                (c00[i, j], c01[i, j]))
        keys = (i * n_w + j, n_u_edges + (i + 1) * (n_w - 1) + j, i * n_w + j + 1,
                n_u_edges + i * (n_w - 1) + j)
        for edge_pair in _REFERENCE_SEGMENTS[int(case[i, j])]:
            for e in edge_pair:
                a, b = ends[e]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = (level - a) / (b - a)
                u0, u1, w0, w1 = us[i], us[i + 1], ws[j], ws[j + 1]
                vertex = ((u0 + t * (u1 - u0), w0), (u1, w0 + t * (w1 - w0)),
                          (u0 + t * (u1 - u0), w1), (u0, w0 + t * (w1 - w0)))[e]
                vertex_cache.setdefault(int(keys[e]), tuple(float(x) for x in vertex))
            segments.append(tuple(int(keys[e]) for e in edge_pair))
    return segments, vertex_cache


def reference_march(us, ws, corners, level, skip_rows=None):
    """The polylines of :func:`reference_segments`."""
    return pseudospectrum._chain_segments(*reference_segments(us, ws, corners, level, skip_rows))


def reference_det_zero_segments(fld):
    """(Re, Im) zero-contour segments of a det field as :func:`reference_segments`
    gives them: every cell rescaled by its largest |det| corner (an all-singular
    cell reads as zeros), identically vanishing rows skipped."""
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    lm = fld.log_magnitude
    lm_corners = (lm[:-1, :-1], lm[1:, :-1], lm[1:, 1:], lm[:-1, 1:])
    top = np.maximum.reduce(lm_corners)
    with np.errstate(invalid="ignore"):
        scale = [np.exp(c - top) for c in lm_corners]
    out = []
    for unit in (np.cos(fld.phase), np.sin(fld.phase)):
        unit_corners = (unit[:-1, :-1], unit[1:, :-1], unit[1:, 1:], unit[:-1, 1:])
        corners = [np.where(top == -np.inf, 0.0, s * c) for s, c in zip(scale, unit_corners)]
        flat = np.all(np.abs(unit) <= 1e-12, axis=1)
        out.append(reference_segments(us, ws, corners, 0.0, skip_rows=flat[:-1] | flat[1:]))
    return out


def reference_det_zero_contours(fld):
    """(Re, Im) zero polylines of a det field from :func:`reference_det_zero_segments`."""
    return [pseudospectrum._chain_segments(*component)
            for component in reference_det_zero_segments(fld)]


def segment_arrays(polylines):
    """(starts, ends) of all segments of some polylines, each (N, 2)."""
    lines = [np.empty((0, 2)), *polylines]
    return np.vstack([pl[:-1] for pl in lines]), np.vstack([pl[1:] for pl in lines])


def polyline_intersections(re_polylines, im_polylines):
    """Intersections of every Re segment with every Im segment (ends included)."""
    a1, a2 = segment_arrays(re_polylines)
    b1, b2 = segment_arrays(im_polylines)
    d1 = a2 - a1                                   # (N, 2)
    d2 = b2 - b1                                   # (M, 2)
    denom = d1[:, None, 0] * d2[None, :, 1] - d1[:, None, 1] * d2[None, :, 0]
    rel = b1[None, :, :] - a1[:, None, :]          # (N, M, 2)
    t_num = rel[:, :, 0] * d2[None, :, 1] - rel[:, :, 1] * d2[None, :, 0]
    s_num = rel[:, :, 0] * d1[:, None, 1] - rel[:, :, 1] * d1[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t_num / denom
        s = s_num / denom
    hit = (np.abs(denom) > 0.0) & (t >= 0.0) & (t <= 1.0) & (s >= 0.0) & (s <= 1.0)
    ii, jj = np.nonzero(hit)
    pts = a1[ii] + t[ii, jj, None] * d1[ii]
    return [(float(u), float(w)) for u, w in pts]


# ---------------------------------------------------------------------------
# operator determinants of the SLP corrector: Kronecker permutation expansion


def _parity(perm):
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1.0 if inversions % 2 else 1.0


def kron_operator_determinants(tops, bots):
    """Delta_0..Delta_3 of a 3x3 block array, one np.kron per permutation term.

    Block column c is (tops[c], conj(tops[c]), bots[c]) for c = 0..3, with
    column 3 the right-hand side: Delta_0 is the determinant of columns
    (0, 1, 2) and Delta_k puts column 3 in place of column k.  Terms are summed
    over the permutations in lexicographic order, row 0 taking the Kronecker
    left factor, row 1 the right factor and row 2 the scalar.
    """
    n = tops[0].shape[0]
    deltas = []
    for cols in ((0, 1, 2), (3, 1, 2), (0, 3, 2), (0, 1, 3)):
        delta = np.zeros((n * n, n * n), dtype=complex)
        for perm in itertools.permutations(range(3)):
            left, right, scalar = (cols[p] for p in perm)
            delta += _parity(perm) * bots[scalar] * np.kron(tops[left], np.conj(tops[right]))
        deltas.append(delta)
    return np.array(deltas)


def swap_symmetric_unitary(n):
    """Dense unitary on C^n (x) C^n with columns e_ii, then (e_ij + e_ji)/sqrt2,
    then i(e_ij - e_ji)/sqrt2, for i < j in row-major order (e_ij = e_i (x) e_j)."""
    eye = np.eye(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cols = [np.kron(eye[i], eye[i]) for i in range(n)]
    cols += [(np.kron(eye[i], eye[j]) + np.kron(eye[j], eye[i])) / np.sqrt(2.0)
             for i, j in pairs]
    cols += [1j * (np.kron(eye[i], eye[j]) - np.kron(eye[j], eye[i])) / np.sqrt(2.0)
             for i, j in pairs]
    return np.array(cols, dtype=complex).T


def reference_slp_increment(a0, vs, t, r):
    """The three-parameter SLP linear step, one eigenpair at a time.

    Delta_0..Delta_3 from :func:`kron_operator_determinants` with tops
    (V1, V2, V3, -A0) and scalar row (t_r, t_i, t_u, r), complex QZ of
    (Delta_1, Delta_0), eta_2 and eta_3 as Rayleigh quotients of Delta_2 and
    Delta_3, candidates kept when finite with imaginary parts within
    1e-6 (1 + max|Re eta|), and the first of smallest norm chosen.  Returns
    (eta, norms of all candidates in eigenvalue order).
    """
    deltas = kron_operator_determinants(np.stack([*vs, -a0]), (t.dchi_r, t.dchi_i, t.du, r))
    eigvals, eigvecs = scipy.linalg.eig(deltas[1], deltas[0])
    best, norms = None, []
    for k in range(eigvals.size):
        z = eigvecs[:, k]
        d0z = deltas[0] @ z
        denom = np.vdot(d0z, d0z)
        if not np.isfinite(eigvals[k]) or denom == 0.0:
            continue
        eta = np.array([eigvals[k], np.vdot(d0z, deltas[2] @ z) / denom,
                        np.vdot(d0z, deltas[3] @ z) / denom])
        if (not np.all(np.isfinite(eta))
                or np.max(np.abs(eta.imag)) > 1e-6 * (1.0 + np.max(np.abs(eta.real)))):
            continue
        norms.append(float(np.linalg.norm(eta.real)))
        if norms[-1] < min(norms[:-1], default=np.inf):
            best = eta.real
    return best, norms

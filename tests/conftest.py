"""Shared fixtures and independent oracles.

Oracles live here so every expected value in the tests traces back to a
computation that does not share code with the path it checks: closed-form
polynomial trajectories, brute-force distance-to-spectrum, the bialternate
Hopf test for the flutter and damping-level points of real pencils, and
explicit Kronecker expansions for the SLP corrector's operator determinants
with the three-parameter linear step built on them, and marching squares cell
by cell (the Python loop that the array code replaced).
"""

import itertools

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
import scipy.linalg
from hypothesis import settings
from scipy.optimize import brentq

from flutterspec import (ContinuationSettings, EigenPoint, Window,
                         build_normal_operator, build_trajectory_operator,
                         build_typical_section, find_flutter_points,
                         reference_restabilization_spec, trace_path)
from flutterspec import pseudospectrum
from flutterspec.models import MAX_MIXING_CONDITION
from flutterspec.operator import ParametricOperator, Pencil

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
# typical section, and the grid-free Hopf oracle for real pencils


@pytest.fixture(scope="session")
def ts_op():
    return build_typical_section()


@pytest.fixture(scope="session")
def ts_flutter(ts_op):
    points = find_flutter_points(ts_op)
    assert len(points) == 1
    return points[0]


def _bialternate(a):
    """2A (.) I, the bialternate product of a real matrix, whose eigenvalues are
    lambda_i + lambda_j (i > j) over the eigenvalues of A."""
    p, q = np.tril_indices(len(a), -1)
    return (a[np.ix_(p, p)] * (q[:, None] == q) + a[np.ix_(q, q)] * (p[:, None] == p)
            - a[np.ix_(p, q)] * (q[:, None] == p) - a[np.ix_(q, p)] * (p[:, None] == q))


def _real_companion(pencil):
    """(S_0, ..., S_k) of the real companion S(U) = sum_b U^b S_b of a Pencil written in
    lambda = i chi: A(chi, U) is singular exactly when i chi is an eigenvalue of S(U)."""
    m, k = np.max(pencil.exps, axis=0)
    n = pencil.coeffs.shape[1]
    c = np.zeros((m + 1, k + 1, n, n), dtype=complex)
    for (a, b), term in zip(pencil.exps, pencil.coeffs):
        c[a, b] += (1, -1j, -1, 1j)[a % 4] * term       # chi^a C_ab = lambda^a (-i)^a C_ab
    if np.any(c.imag != 0.0) or np.any(c[m, 1:] != 0.0) or np.linalg.cond(c[m, 0].real) > 1e12:
        raise ValueError("the Hopf oracle needs every (-i)^a C_ab real and a U-free, "
                         "invertible leading chi coefficient")
    s = np.zeros((k + 1, m * n, m * n))
    s[0, :-n, n:] = np.eye((m - 1) * n)
    s[:, -n:] = -np.linalg.solve(c[m, 0].real, np.concatenate(c[:m].real, axis=-1))
    return s


def hopf_points(pencil, window, level=0.0):
    """Grid-free oracle: every (U, chi_R) in ``window`` at which A(chi_R + i*level, U) is
    singular, sorted by U, from a Pencil's ``exps`` and ``coeffs`` alone.

    At chi_I = level, lambda = i chi_R - level, so S(U) + level*I has the eigenvalue i chi_R.
    A real matrix has two eigenvalues with lambda_i + lambda_j = 0, a pair +-i chi_R among
    them, exactly when its bialternate product is singular (Guckenheimer, Myers & Sturmfels,
    SINUM 34, 1997), so the airspeeds are real roots U of det sum_b U^b (2 S_b (.) I) = 0,
    solved by QZ on its companion linearization.  A root is kept where S(U) has an eigenvalue
    with Re ~ 0 and Im = chi_R in the window; the roots of real pairs +-mu are not flutter.
    """
    s = _real_companion(pencil)
    s[0] += level * np.eye(len(s[0]))
    mats = [_bialternate(term) for term in s]
    k, size = len(mats) - 1, len(mats[0])
    lhs = np.eye(k * size, k=size)
    lhs[-size:] = -np.hstack(mats[:-1])
    rhs = np.eye(k * size)
    rhs[-size:, -size:] = mats[-1]
    hits = []
    for u in scipy.linalg.eigvals(lhs, rhs):
        if abs(u.imag) <= 1e-8 * abs(u) and window.u_min <= u.real <= window.u_max:
            lam = np.linalg.eigvals(np.tensordot(u.real ** np.arange(k + 1), s, 1))
            hits += [(float(u.real), float(v.imag)) for v in lam if abs(v.real) <= 1e-8 * abs(v)
                     and window.chi_r_min <= v.imag <= window.chi_r_max]
    return sorted(hits)


@pytest.fixture(scope="session")
def ts_oracle(ts_op):
    hits = hopf_points(ts_op.func, Window(1.0, 80.0, 5.0, 75.0))
    assert len(hits) == 1, f"oracle expected a unique flutter point, got {hits}"
    return hits[0]


def crossing_pencil():
    """[[l_1(U) - chi, 1], [0, l_2(U) - chi]] with l_k = 50 + k i (1 - 0.01 U): both
    eigenvalues cross chi_I = 0 at chi = 50, U = 100, where A is a Jordan block."""
    pencil = Pencil(((0, 0), (0, 1), (1, 0)), [np.array([[50.0 + 1j, 1.0], [0.0, 50.0 + 2j]]),
                                               np.diag([-0.01j, -0.02j]), -np.eye(2)])
    return ParametricOperator("crossing", 2, pencil, Window(0.0, 200.0, 10.0, 90.0),
                              derivs=pencil.derivs)


# ---------------------------------------------------------------------------
# generated damped oscillators, whose flutter points and tangents are closed forms


def oscillator_operator(u_k, omega, a, q):
    """Mixed damped oscillators on U in (0, 100), chi_R in (0.5, 60).  Mode k is
    -chi^2 + i chi 2 a_k w_k (U_k - U) + w_k^2, singular at chi = +-w_k when U = U_k, and
    the modes are mixed as q^T diag(.) q: the flutter points are (U_k, w_k) in closed form."""
    n = len(u_k)

    def mixed(diagonal):
        return q.T @ np.diag(diagonal) @ q

    pencil = Pencil(((2, 0), (1, 0), (1, 1), (0, 0)),
                    [mixed(-np.ones(n)), 1j * mixed(2 * a * omega * u_k),
                     1j * mixed(-2 * a * omega), mixed(omega ** 2)])
    return ParametricOperator("oscillators", n, pencil, Window(0.0, 100.0, 0.5, 60.0),
                              derivs=pencil.derivs)


def draw_oscillators(rng, count):
    """``count`` (U_k, omega_k, a_k, q) draws from a numpy generator: 1-4 modes, U_k sorted in
    (5, 95) at least 1 apart, omega_k in (1, 50), a_k in (0.01, 0.2) and q = I + 0.5 R with R
    uniform in (-1, 1), cond(q) <= 100; a draw that breaks a rule is drawn again."""
    while count:
        n = int(rng.integers(1, 5))
        u_k = np.sort(rng.uniform(5.0, 95.0, n))
        omega, a = rng.uniform(1.0, 50.0, n), rng.uniform(0.01, 0.2, n)
        q = np.eye(n) + 0.5 * rng.uniform(-1.0, 1.0, (n, n))
        if np.all(np.diff(u_k) >= 1.0) and np.linalg.cond(q) <= MAX_MIXING_CONDITION:
            count -= 1
            yield u_k, omega, a, q


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


# ---------------------------------------------------------------------------
# marching squares cell by cell, as before the array marching: a Python loop
# over the crossed cells and a vertex cache, chained by the package's
# unchanged chainer

_REFERENCE_SEGMENTS = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),), 5: ((0, 3), (1, 2)),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((0, 2),), 10: ((0, 1), (2, 3)),
    11: ((1, 2),), 12: ((1, 3),), 13: ((0, 1),), 14: ((3, 0),),
    21: ((0, 1), (2, 3)), 26: ((0, 3), (1, 2)),
}


def reference_segments(us, ws, corners, level):
    """Marching squares over per-cell corner arrays (c00, c10, c11, c01), unchained.

    Returns the segments as edge-key pairs, in row-major cell order and the
    segment table's direction, and the vertex of every key: each grid edge
    gets its vertex from the first crossing cell (``setdefault``).
    """
    c00, c10, c11, c01 = corners
    case = ((c00 >= level) | (c10 >= level) << 1 | (c11 >= level) << 2
            | (c01 >= level) << 3).astype(int)
    saddle = (case == 5) | (case == 10)
    case += 16 * (saddle & (0.25 * (c00 + c10 + c11 + c01) >= level))
    active = (case != 0) & (case != 15)
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


def reference_march(us, ws, corners, level):
    """The polylines of :func:`reference_segments`."""
    return pseudospectrum._chain_segments(*reference_segments(us, ws, corners, level))


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

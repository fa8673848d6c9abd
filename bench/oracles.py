"""Independent answer checks for the benchmark.

Nothing here calls flutterspec's field, contour, flutter or continuation
code.  Expected values come from closed forms (trajectory operators,
normal operators), from plain numpy SVDs of the assembled matrices, from
committed det-scan reference data (``reference.json``), or from
invariants any correct answer satisfies (a contour vertex interpolates
to its level on a grid edge; a path point is a singular pair).
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.optimize import brentq

# Backward-error bound for "this (chi, U) is an eigenvalue of A":
# sigma_min(A) / sigma_max(A), from a fresh numpy SVD.
SINGULAR_REL_TOL = 1e-11


def singular_ratio(matrix: np.ndarray) -> float:
    s = np.linalg.svd(matrix, compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0.0 else 0.0


def svd_rows(func, us: np.ndarray, ws: np.ndarray, chi_i: float = 0.0):
    """(sigma_min, sigma_max) of func(chi, U) on the grid, one batched SVD per row."""
    smin = np.empty((us.size, ws.size))
    smax = np.empty((us.size, ws.size))
    for i, u in enumerate(us):
        mats = np.stack([func(complex(w, chi_i), float(u)) for w in ws])
        s = np.linalg.svd(mats, compute_uv=False)
        smin[i], smax[i] = s[:, -1], s[:, 0]
    return smin, smax


class Trajectory:
    """Closed forms for T diag(chi - chi_k(U)) T^-1 with polynomial chi_k."""

    def __init__(self, modes: Sequence[Tuple[Sequence[float], Sequence[float]]],
                 mixing: np.ndarray):
        self.modes = [(np.asarray(o, float), np.asarray(g, float)) for o, g in modes]
        self.t = np.asarray(mixing, float)
        self.t_inv = np.linalg.inv(self.t)

    def omega(self, k: int, u):
        return P.polyval(u, self.modes[k][0])

    def g(self, k: int, u):
        return P.polyval(u, self.modes[k][1])

    def zeta(self, k: int, u: float) -> float:
        w, g = float(self.omega(k, u)), float(self.g(k, u))
        return g / math.hypot(w, g)

    def sigma_field(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """sigma_min of the assembled matrices on a (U, chi_R) grid."""
        out = np.empty((us.size, ws.size))
        for i, u in enumerate(us):
            chis = np.array([self.omega(k, u) + 1j * self.g(k, u)
                             for k in range(len(self.modes))])
            d = ws[:, None] - chis[None, :]                       # (n_w, n)
            mats = (self.t[None, :, :] * d[:, None, :]) @ self.t_inv
            out[i] = np.linalg.svd(mats, compute_uv=False)[:, -1]
        return out

    def flutter_points(self, window) -> List[Tuple[float, float]]:
        """Real roots of g_k inside the window with omega_k inside it too."""
        pts = []
        for k, (o, g) in enumerate(self.modes):
            if len(g) < 2:
                continue
            for r in np.roots(g[::-1]):
                if abs(r.imag) > 1e-9 * max(1.0, abs(r.real)):
                    continue
                u = float(r.real)
                w = float(self.omega(k, u))
                if window.u_min <= u <= window.u_max and window.chi_r_min <= w <= window.chi_r_max:
                    pts.append((u, w))
        return sorted(pts)

    def path_error(self, k: int, points) -> float:
        """Largest |chi - (omega_k + i g_k)| over (U, chi_R, chi_I) triples."""
        worst = 0.0
        for u, wr, wi in points:
            worst = max(worst, abs(wr - float(self.omega(k, u))), abs(wi - float(self.g(k, u))))
        return worst

    def zeta_crossings(self, k: int, level: float, u_lo: float, u_hi: float) -> List[float]:
        us = np.linspace(u_lo, u_hi, 4001)
        vals = np.array([self.zeta(k, u) - level for u in us])
        roots = []
        for a, b, va, vb in zip(us[:-1], us[1:], vals[:-1], vals[1:]):
            if va * vb < 0.0:
                roots.append(brentq(lambda u: self.zeta(k, u) - level, a, b,
                                    xtol=1e-12, rtol=8.9e-16))
        return roots

    def zeta_extremum(self, k: int, u_lo: float, u_hi: float) -> Optional[float]:
        """zeta at the interior extremum closest to zeta = 0, if any.

        Extrema of g/|chi| in U are the real roots of g' w - g w'.
        """
        o, g = self.modes[k]
        h = P.polysub(P.polymul(P.polyder(g), o), P.polymul(g, P.polyder(o)))
        roots = [float(r.real) for r in np.roots(np.asarray(h)[::-1])
                 if abs(r.imag) < 1e-9 and u_lo < r.real < u_hi]
        if not roots:
            return None
        return min((self.zeta(k, u) for u in roots), key=abs)


def distance_to_spectrum(eigenvalues: np.ndarray, ws: np.ndarray, chi_i: float = 0.0) -> np.ndarray:
    chi = ws + 1j * chi_i
    return np.min(np.abs(chi[:, None] - eigenvalues[None, :]), axis=1)


def match_points(found: Sequence[Tuple[float, float]], expected: Sequence[Tuple[float, float]],
                 rel: float) -> Tuple[List[Tuple[float, float]], List[Tuple[float, float]]]:
    """(found points matching no expected one, expected points never found)."""
    def close(a, b):
        return (abs(a[0] - b[0]) <= rel * abs(b[0])
                and abs(a[1] - b[1]) <= rel * max(abs(b[1]), 1e-300))

    spurious = [f for f in found if not any(close(f, e) for e in expected)]
    missing = [e for e in expected if not any(close(f, e) for f in found)]
    return spurious, missing


def contour_error(values: np.ndarray, us: np.ndarray, ws: np.ndarray, level: float,
                  vertices: np.ndarray) -> Optional[str]:
    """Marching-squares invariants for the vertices of one level.

    Every vertex lies on a grid edge whose endpoints straddle the level and
    linearly interpolates to it, and every straddling edge carries exactly
    one distinct vertex.
    """
    inside = values >= level
    expected = set()
    for i, j in zip(*np.nonzero(inside[:-1, :] != inside[1:, :])):
        expected.add(("u", int(i), int(j)))
    for i, j in zip(*np.nonzero(inside[:, :-1] != inside[:, 1:])):
        expected.add(("w", int(i), int(j)))

    seen = set()
    for u, w in vertices:
        j = int(np.searchsorted(ws, w))
        i = int(np.searchsorted(us, u))
        if j < ws.size and ws[j] == w and 0 < i < us.size:
            key, a, b, t = ("u", i - 1, j), values[i - 1, j], values[i, j], \
                (u - us[i - 1]) / (us[i] - us[i - 1])
        elif i < us.size and us[i] == u and 0 < j < ws.size:
            key, a, b, t = ("w", i, j - 1), values[i, j - 1], values[i, j], \
                (w - ws[j - 1]) / (ws[j] - ws[j - 1])
        else:
            return f"vertex ({u!r}, {w!r}) is not on a grid edge"
        if key not in expected:
            return f"vertex ({u!r}, {w!r}) on an edge that does not straddle {level}"
        interp = a + t * (b - a)
        if abs(interp - level) > 1e-9 * max(1.0, abs(a) + abs(b)):
            return f"vertex ({u!r}, {w!r}) interpolates to {interp!r}, not {level!r}"
        seen.add(key)
    if seen != expected:
        return f"{len(expected - seen)} straddling edge(s) carry no vertex"
    return None


def sublevel_regions(values: np.ndarray, us: np.ndarray, ws: np.ndarray, threshold: float,
                     centers: Sequence[Tuple[float, float]]) -> List[tuple]:
    """4-connected components of {values < threshold} by breadth-first search.

    Returns (center, min_value, extent, near_flutter) per region, sorted by
    center, with the same conventions as the program's borderline regions:
    the center is the first minimizing node in row-major order and
    near_flutter uses the default 5%-of-span exclusion ellipse.
    """
    mask = values < threshold
    seen = np.zeros_like(mask)
    radius = (0.05 * (us[-1] - us[0]), 0.05 * (ws[-1] - ws[0]))
    regions = []
    for i0, j0 in zip(*np.nonzero(mask)):
        if seen[i0, j0]:
            continue
        nodes, queue = [], deque([(i0, j0)])
        seen[i0, j0] = True
        while queue:
            i, j = queue.popleft()
            nodes.append((i, j))
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= a < mask.shape[0] and 0 <= b < mask.shape[1] and mask[a, b] \
                        and not seen[a, b]:
                    seen[a, b] = True
                    queue.append((a, b))
        nodes.sort()
        ii = np.array([n[0] for n in nodes])
        jj = np.array([n[1] for n in nodes])
        k = int(np.argmin(values[ii, jj]))
        center = (float(us[ii[k]]), float(ws[jj[k]]))
        extent = (float(us[ii.min()]), float(us[ii.max()]),
                  float(ws[jj.min()]), float(ws[jj.max()]))
        near = any(((center[0] - cu) / radius[0]) ** 2 + ((center[1] - cw) / radius[1]) ** 2
                   <= 1.0 for cu, cw in centers)
        regions.append((center, float(values[ii[k], jj[k]]), extent, near))
    regions.sort(key=lambda r: r[0])
    return regions

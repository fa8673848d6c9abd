"""Scalar/determinant fields over (U, chi_R) grids and their contours.

The epsilon-pseudospectrum is the sublevel set of the minimum-singular-value
field; its contours come from marching squares with linear edge
interpolation.  Determinant fields are stored as (log-magnitude, phase)
pairs so that zero contours survive overflow; the zero contours of their
real/imaginary parts come from per-cell rescaling, which leaves the
crossings exactly where the unscaled values would put them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericalError
from .operator import ParametricOperator, Pencil, Window, evaluate_batch

__all__ = [
    "Grid2D",
    "ScalarField",
    "ComplexField",
    "ContourSet",
    "BorderlineRegion",
    "compute_sigma_field",
    "compute_det_field",
    "extract_contours",
    "det_zero_contours",
    "epsilon_pseudospectrum",
    "find_borderline_regions",
]

# Relative size below which a det component counts as identically zero
# along a grid row (real pencils give |sin(phase)| at rounding level).
DEGENERATE_COMPONENT_TOL = 1e-12

# Complex entries (1 MB) per field chunk: a whole n=16 grid in one stack ran slower.
# The chunk count also caps the sigma field's worker threads, so its parallelism.
CHUNK_ENTRIES = 1 << 16

# Semi-axes of the ellipse that marks a borderline region near a flutter point,
# as a share of each grid span.
NEAR_FLUTTER_SPAN = 0.05


@dataclass(frozen=True)
class Grid2D:
    """Rectangular sampling of the (U, chi_R) plane at fixed chi_I."""

    u_axis: Tuple[float, float, int]
    w_axis: Tuple[float, float, int]
    chi_I_fixed: float = 0.0

    def __post_init__(self):
        for lo, hi, count in (self.u_axis, self.w_axis):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"axis bounds ({lo}, {hi}) must be finite with min < max")
            if count < 2:
                raise ValueError("axis count must be >= 2")
        if not math.isfinite(self.chi_I_fixed):
            raise ValueError("chi_I_fixed must be finite")

    @classmethod
    def over_window(cls, window: Window, u_count: int, w_count: int,
                    chi_I_fixed: float = 0.0) -> "Grid2D":
        return cls((window.u_min, window.u_max, u_count),
                   (window.chi_r_min, window.chi_r_max, w_count), chi_I_fixed)

    def u_values(self) -> np.ndarray:
        return np.linspace(*self.u_axis)

    def w_values(self) -> np.ndarray:
        return np.linspace(*self.w_axis)


@dataclass(frozen=True)
class ScalarField:
    """sigma_min sampled on a grid; values[i, j] belongs to (u_i, w_j)."""

    grid: Grid2D
    values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ComplexField:
    """det A on a grid, stored as log|det| and arg(det)."""

    grid: Grid2D
    log_magnitude: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ContourSet:
    """Iso-level polylines; closed loops repeat their first vertex."""

    level: float
    polylines: List[np.ndarray]


@dataclass(frozen=True)
class BorderlineRegion:
    """Connected sublevel region of a sigma field."""

    center: Tuple[float, float]
    min_sigma: float
    extent: Tuple[float, float, float, float]  # (u_min, u_max, w_min, w_max)
    near_flutter: bool


def _chunk_rows(op: ParametricOperator, grid: Grid2D) -> List[slice]:
    """Grid rows of each field chunk: <= 2^16 entries (``CHUNK_ENTRIES``) or one row."""
    if not (op.window.contains(grid.u_axis[0], grid.w_axis[0])
            and op.window.contains(grid.u_axis[1], grid.w_axis[1])):
        raise ValueError(f"grid {grid.u_axis[:2]}x{grid.w_axis[:2]} exceeds the "
                         f"operator window {op.window}")
    step = max(1, CHUNK_ENTRIES // (grid.w_axis[2] * op.dim * op.dim))
    return [slice(i0, min(i0 + step, grid.u_axis[2])) for i0 in range(0, grid.u_axis[2], step)]


def _rows_stack(op: ParametricOperator, grid: Grid2D, rows: slice) -> Tuple[np.ndarray, np.ndarray]:
    """(us, stack) of one chunk of U rows: stack[r, j] = A(w_j + i*chi_I_fixed, us[r])."""
    chis = grid.w_values() + 1j * grid.chi_I_fixed
    us = grid.u_values()[rows]
    stack = evaluate_batch(op, chis[None, :], us[:, None])
    return us, stack.reshape(-1, chis.size, op.dim, op.dim)


def compute_sigma_field(op: ParametricOperator, grid: Grid2D) -> ScalarField:
    """Minimum-singular-value field over the grid, one batched SVD per chunk of U rows.

    Each chunk is evaluated and decomposed as one unit of work.  A :class:`Pencil`
    ``func`` (read-only numpy) has its chunks mapped over one worker thread per
    available CPU and chunk; any other ``func`` runs chunk by chunk on the calling
    thread.  Results come in row order, and a failing chunk cancels the later ones.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept out of `import flutterspec`

    def chunk_sigma(rows: slice) -> np.ndarray:
        us, stack = _rows_stack(op, grid, rows)
        try:
            return np.linalg.svd(stack, compute_uv=False)[..., -1]
        except np.linalg.LinAlgError:  # redo row by row, to name the first failing row
            sigma = np.empty(stack.shape[:2])
            for r, (u, row) in enumerate(zip(us, stack)):
                try:
                    sigma[r] = np.linalg.svd(row, compute_uv=False)[:, -1]
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(f"sigma field row i={rows.start + r}, U={u} of "
                                         f"operator '{op.name}': {exc}") from exc
            return sigma

    chunks = _chunk_rows(op, grid)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(cpus or 1, len(chunks))) as pool:
        run = pool.map if isinstance(op.func, Pencil) else map
        values = np.concatenate(list(run(chunk_sigma, chunks)))
    return ScalarField(grid, values)


def compute_det_field(op: ParametricOperator, grid: Grid2D) -> ComplexField:
    """Determinant field in (log|det|, phase) form, one batched slogdet per chunk of U rows.

    A singular node gets log|det| = -inf and phase 0 (the angle of sign 0).
    Serial: numpy's batched slogdet holds the GIL, so threads would not overlap.
    """
    log_mag = np.empty((grid.u_axis[2], grid.w_axis[2]))
    phase = np.empty_like(log_mag)
    for rows in _chunk_rows(op, grid):
        sign, log_mag[rows] = np.linalg.slogdet(_rows_stack(op, grid, rows)[1])
        phase[rows] = np.angle(sign)
    return ComplexField(grid, log_mag, phase)


# Marching squares.  Corners of cell (i, j): c00=(i,j), c10=(i+1,j),
# c11=(i+1,j+1), c01=(i,j+1); edges 0=bottom, 1=right, 2=top, 3=left.
# Case bits: c00 | c10<<1 | c11<<2 | c01<<3, "inside" meaning value >= level;
# the saddles 5 and 10 add 16 when the cell-center value is inside.
_SEGMENT_TABLE = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),), 5: ((0, 3), (1, 2)),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((0, 2),), 10: ((0, 1), (2, 3)),
    11: ((1, 2),), 12: ((1, 3),), 13: ((0, 1),), 14: ((3, 0),),
    21: ((0, 1), (2, 3)), 26: ((0, 3), (1, 2)),
}


def _cell_corners(values: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(c00, c10, c11, c01) of every cell, each (u_count - 1, w_count - 1)."""
    return values[:-1, :-1], values[1:, :-1], values[1:, 1:], values[:-1, 1:]


def _march(us: np.ndarray, ws: np.ndarray, corners: Sequence[np.ndarray], level: float,
           skip_rows: Optional[np.ndarray] = None) -> List[np.ndarray]:
    """Marching squares over per-cell corner arrays; returns chained polylines.

    Cells are classified in numpy; only those the contour crosses reach
    Python.  ``skip_rows[i]`` drops the cells of row i.  A grid edge gets
    its vertex once, from the first crossing cell in row-major order, so
    shared edges agree bit-exactly.
    """
    c00, c10, c11, c01 = corners
    case = ((c00 >= level) | (c10 >= level) << 1 | (c11 >= level) << 2
            | (c01 >= level) << 3).astype(int)
    saddle = (case == 5) | (case == 10)
    case += 16 * (saddle & (0.25 * (c00 + c10 + c11 + c01) >= level))
    active = (case != 0) & (case != 15)
    if skip_rows is not None:
        active &= ~skip_rows[:, None]
    ii, jj = np.nonzero(active)

    # per active cell and edge (bottom, right, top, left): crossing vertex
    # from this cell's corners, and the global edge id (u-directed edges first)
    a = np.stack([c00[ii, jj], c10[ii, jj], c01[ii, jj], c00[ii, jj]], axis=1)
    b = np.stack([c10[ii, jj], c11[ii, jj], c11[ii, jj], c01[ii, jj]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (level - a) / (b - a)
    u0, u1, w0, w1 = us[ii], us[ii + 1], ws[jj], ws[jj + 1]
    vert_u = np.stack([u0 + t[:, 0] * (u1 - u0), u1, u0 + t[:, 2] * (u1 - u0), u0], axis=1)
    vert_w = np.stack([w0, w0 + t[:, 1] * (w1 - w0), w1, w0 + t[:, 3] * (w1 - w0)], axis=1)
    n_w, n_u_edges = ws.size, (us.size - 1) * ws.size
    keys = np.stack([ii * n_w + jj, n_u_edges + (ii + 1) * (n_w - 1) + jj,
                     ii * n_w + jj + 1, n_u_edges + ii * (n_w - 1) + jj], axis=1)

    segments: List[Tuple[int, int]] = []
    vertex_cache: Dict[int, Tuple[float, float]] = {}
    for code, cell_keys, cell_u, cell_w in zip(case[ii, jj].tolist(), keys.tolist(),
                                               vert_u.tolist(), vert_w.tolist()):
        for ea, eb in _SEGMENT_TABLE[code]:
            for e in (ea, eb):
                vertex_cache.setdefault(cell_keys[e], (cell_u[e], cell_w[e]))
            segments.append((cell_keys[ea], cell_keys[eb]))
    return _chain_segments(segments, vertex_cache)


def _chain_segments(segments, vertex_cache) -> List[np.ndarray]:
    """Chain segments sharing edge keys: forward from the tail, then back from the head."""
    at_key: Dict[int, List[int]] = {}
    for idx, seg in enumerate(segments):
        for key in seg:
            at_key.setdefault(key, []).append(idx)
    used = [False] * len(segments)
    polylines = []
    for start, seg in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        chain = list(seg)
        for forward in (True, False):
            while chain[0] != chain[-1]:
                key = chain[-1] if forward else chain[0]
                nxt = next((i for i in at_key[key] if not used[i]), None)
                if nxt is None:
                    break
                used[nxt] = True
                ka, kb = segments[nxt]
                chain.insert(len(chain) if forward else 0, kb if ka == key else ka)
        polylines.append(np.array([vertex_cache[k] for k in chain]))
    return polylines


def extract_contours(fld: ScalarField, level: float) -> ContourSet:
    """Iso-contours {value = level} of a sigma field as marching-squares polylines.

    Saddle cells are resolved by the cell-center value.  An empty result
    is not an error.  Determinant fields go to :func:`det_zero_contours`.
    """
    if not isinstance(fld, ScalarField):
        raise TypeError(f"cannot contour {type(fld).__name__}")
    polylines = _march(fld.grid.u_values(), fld.grid.w_values(), _cell_corners(fld.values),
                       float(level))
    return ContourSet(float(level), polylines)


def det_zero_contours(fld: ComplexField) -> Tuple[ContourSet, ContourSet]:
    """The Re(det) = 0 and Im(det) = 0 contours of a determinant field.

    Each cell is rescaled by its largest |det| corner, which leaves the zero
    crossings where the unscaled values would put them; an all-singular cell
    (every log|det| = -inf) reads as four zeros.  Rows where a component
    vanishes identically are skipped: a real pencil makes Im(det) zero along
    whole airspeed slices, which would give spurious flutter candidates.
    """
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    lm = _cell_corners(fld.log_magnitude)
    top = np.maximum.reduce(lm)
    with np.errstate(invalid="ignore"):
        scale = [np.exp(c - top) for c in lm]
    sets = []
    for unit in (np.cos(fld.phase), np.sin(fld.phase)):  # Re, Im at unit magnitude
        corners = [np.where(top == -math.inf, 0.0, s * c)
                   for s, c in zip(scale, _cell_corners(unit))]
        degenerate = np.all(np.abs(unit) <= DEGENERATE_COMPONENT_TOL, axis=1)
        sets.append(ContourSet(0.0, _march(us, ws, corners, 0.0,
                                           skip_rows=degenerate[:-1] | degenerate[1:])))
    return sets[0], sets[1]


def epsilon_pseudospectrum(op: ParametricOperator, grid: Grid2D,
                           eps_list: Sequence[float]) -> List[ContourSet]:
    """One contour set per epsilon, all from a single shared sigma field."""
    eps = [float(e) for e in eps_list]
    if not eps:
        raise ValueError("eps_list must be nonempty")
    if any(e <= 0.0 for e in eps) or any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_list must be strictly ascending and positive")
    fld = compute_sigma_field(op, grid)
    return [extract_contours(fld, e) for e in eps]


def _label_components(mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """4-connected components of a boolean grid, numbered from 1 in row-major order."""
    padded = np.pad(mask, 1)  # a False border keeps every neighbour lookup on the grid
    inside = padded.tolist()
    labels = np.zeros(padded.shape, dtype=int).tolist()
    count = 0
    for i0, j0 in np.argwhere(padded).tolist():
        if labels[i0][j0]:
            continue
        count += 1
        labels[i0][j0] = count
        stack = [(i0, j0)]
        while stack:
            i, j = stack.pop()
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if inside[a][b] and not labels[a][b]:
                    labels[a][b] = count
                    stack.append((a, b))
    return np.array(labels, dtype=int)[1:-1, 1:-1], count


def find_borderline_regions(fld: ScalarField, threshold: float,
                            flutter_points: Sequence = ()) -> List[BorderlineRegion]:
    """Connected components (4-connectivity) of {sigma_min < threshold}.

    Each region reports its minimizing node as center; near_flutter is set
    when the center falls inside the axis-aligned ellipse of some supplied
    flutter point (``FlutterPoint``s, read at ``fp.point.U`` and
    ``fp.point.chi_R``) with semi-axes ``NEAR_FLUTTER_SPAN`` of each grid span.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    radius = (NEAR_FLUTTER_SPAN * (us[-1] - us[0]), NEAR_FLUTTER_SPAN * (ws[-1] - ws[0]))
    centers = [(float(fp.point.U), float(fp.point.chi_R)) for fp in flutter_points]

    mask = fld.values < threshold
    labels, n_regions = _label_components(mask)
    regions = []
    for lbl in range(1, n_regions + 1):
        ii, jj = np.nonzero(labels == lbl)
        vals = fld.values[ii, jj]
        k = int(np.argmin(vals))
        center = (float(us[ii[k]]), float(ws[jj[k]]))
        extent = (float(us[ii.min()]), float(us[ii.max()]),
                  float(ws[jj.min()]), float(ws[jj.max()]))
        near = any(((center[0] - cu) / radius[0]) ** 2
                   + ((center[1] - cw) / radius[1]) ** 2 <= 1.0
                   for cu, cw in centers)
        regions.append(BorderlineRegion(center, float(vals[k]), extent, near))
    regions.sort(key=lambda r: r.center)
    return regions

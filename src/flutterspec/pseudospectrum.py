"""Scalar/determinant fields over (U, chi_R) grids and their contours.

The epsilon-pseudospectrum is the sublevel set of the minimum-singular-value
field; its contours come from marching squares with linear edge
interpolation, run as array code over the cells a contour crosses, whose
segments are then chained into polylines.  Determinant fields are stored as
(log-magnitude, phase) pairs so that zero contours survive overflow; the
zero contours of their real/imaginary parts come from per-cell rescaling,
which leaves the crossings exactly where the unscaled values would put
them.  Where the Re and Im zero contours cross (the flutter candidates)
is found cell by cell from the same segments, without chaining.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

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
    """Rectangular (U, chi_R) grid at fixed chi_I; its node axes are built once, read-only."""

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
        axes = (np.linspace(*self.u_axis), np.linspace(*self.w_axis))
        for a in axes:
            a.flags.writeable = False
        object.__setattr__(self, "_axes", axes)

    @classmethod
    def over_window(cls, window: Window, u_count: int, w_count: int,
                    chi_I_fixed: float = 0.0) -> "Grid2D":
        return cls((window.u_min, window.u_max, u_count),
                   (window.chi_r_min, window.chi_r_max, w_count), chi_I_fixed)

    def u_values(self) -> np.ndarray:
        return self._axes[0]

    def w_values(self) -> np.ndarray:
        return self._axes[1]


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


def _rows_stack(op: ParametricOperator, chis: np.ndarray, us: np.ndarray) -> np.ndarray:
    """stack[r, j] = A(chis[j], us[r]) for one chunk of U rows."""
    return evaluate_batch(op, chis[None, :], us[:, None]).reshape(-1, chis.size, op.dim, op.dim)


def compute_sigma_field(op: ParametricOperator, grid: Grid2D) -> ScalarField:
    """Minimum-singular-value field over the grid, one batched SVD per chunk of U rows.

    Each chunk is evaluated and decomposed as one unit of work.  A :class:`Pencil`
    ``func`` (read-only numpy) has its chunks mapped over one worker thread per
    available CPU and chunk; any other ``func`` runs chunk by chunk on the calling
    thread.  Results come in row order, and a failing chunk cancels the later ones.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept out of `import flutterspec`

    u_nodes, chis = grid.u_values(), grid.w_values() + 1j * grid.chi_I_fixed

    def chunk_sigma(rows: slice) -> np.ndarray:
        us = u_nodes[rows]
        stack = _rows_stack(op, chis, us)
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
    Serial: mapping its chunks over threads as the sigma field does gave bit-identical
    fields but a slower search on 2 CPUs (n=16 wing: 0.17-0.20 s -> 0.28-0.32 s).
    """
    log_mag = np.empty((grid.u_axis[2], grid.w_axis[2]))
    phase = np.empty_like(log_mag)
    us, chis = grid.u_values(), grid.w_values() + 1j * grid.chi_I_fixed
    for rows in _chunk_rows(op, grid):
        sign, log_mag[rows] = np.linalg.slogdet(_rows_stack(op, chis, us[rows]))
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
# The table as arrays: segments per case, and their edge pairs (unused rows stay 0).
_SEGMENT_COUNT = np.zeros(27, dtype=int)
_SEGMENT_EDGES = np.zeros((27, 2, 2), dtype=int)
for _code, _segs in _SEGMENT_TABLE.items():
    _SEGMENT_COUNT[_code] = len(_segs)
    _SEGMENT_EDGES[_code, :len(_segs)] = _segs
# The corners (from, to) of each edge, as indices into (c00, c10, c11, c01).
_EDGE_CORNERS = np.array([[0, 1], [1, 2], [3, 2], [0, 3]])


def _cell_corners(values: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(c00, c10, c11, c01) of every cell, each (..., u_count - 1, w_count - 1)."""
    return values[..., :-1, :-1], values[..., 1:, :-1], values[..., 1:, 1:], values[..., :-1, 1:]


def _cell_cases(corners: Sequence[np.ndarray], level: float) -> np.ndarray:
    """Case code of each cell from its corners (c00, c10, c11, c01), any array shape."""
    c00, c10, c11, c01 = corners
    case = ((c00 >= level) | (c10 >= level) << 1 | (c11 >= level) << 2
            | (c01 >= level) << 3).astype(int)
    saddle = (case == 5) | (case == 10)
    return case + 16 * (saddle & (0.25 * (c00 + c10 + c11 + c01) >= level))


def _cell_segments(us: np.ndarray, ws: np.ndarray, ii: np.ndarray, jj: np.ndarray,
                   code: np.ndarray, corners: Sequence[np.ndarray], level: float
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Marching-squares segments of the cells (ii, jj), listed in row-major order.

    ``code`` and ``corners`` hold the case code (:func:`_cell_cases`) and the
    corners (c00, c10, c11, c01) of each listed cell.  Returns per segment its
    cell (i, j), the global edge ids of its two ends (S, 2; u-directed edges
    first) and their (U, chi_R) vertices (S, 2, 2); a cell's segments follow
    ``_SEGMENT_TABLE`` in order and direction.  A grid edge gets its vertex
    once, from the first listed cell that crosses it, so shared edges agree
    bit-exactly.
    """
    cell, seg = np.nonzero(np.arange(2) < _SEGMENT_COUNT[code][:, None])
    edge = _SEGMENT_EDGES[code[cell], seg]
    i, j = ii[cell][:, None], jj[cell][:, None]
    ends = np.stack(corners, axis=-1)[cell[:, None, None], _EDGE_CORNERS[edge]]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (level - ends[..., 0]) / (ends[..., 1] - ends[..., 0])
    u0, u1, w0, w1 = us[i], us[i + 1], ws[j], ws[j + 1]
    along_u = edge % 2 == 0
    vert_u = np.where(along_u, u0 + t * (u1 - u0), np.where(edge == 1, u1, u0))
    vert_w = np.where(along_u, np.where(edge == 2, w1, w0), w0 + t * (w1 - w0))
    n_w = ws.size
    keys = np.where(along_u, i * n_w + j + (edge == 2),
                    (us.size - 1) * n_w + (i + (edge == 1)) * (n_w - 1) + j)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    verts = np.stack([vert_u, vert_w], axis=-1).reshape(-1, 2)[first][inverse.reshape(-1)]
    return ii[cell], jj[cell], keys, verts.reshape(-1, 2, 2)


def _march(us: np.ndarray, ws: np.ndarray, case: np.ndarray, corners: Sequence[np.ndarray],
           level: float, cells: np.ndarray) -> List[np.ndarray]:
    """The segments of :func:`_cell_segments` for the ``cells`` of 2-D case and
    corner arrays, chained into polylines."""
    ii, jj = np.nonzero(cells)
    _, _, keys, verts = _cell_segments(us, ws, ii, jj, case[ii, jj], [c[ii, jj] for c in corners],
                                       level)
    vertex_cache = dict(zip(keys.ravel().tolist(), map(tuple, verts.reshape(-1, 2).tolist())))
    return _chain_segments(keys.tolist(), vertex_cache)


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
    level = float(level)
    corners = _cell_corners(fld.values)
    case = _cell_cases(corners, level)
    polylines = _march(fld.grid.u_values(), fld.grid.w_values(), case, corners, level,
                       (case != 0) & (case != 15))
    return ContourSet(level, polylines)


def _det_components(fld: ComplexField) -> Tuple[np.ndarray, List[np.ndarray], np.ndarray]:
    """Re(det) and Im(det) of a determinant field, set up for their zero contours.

    Returns (case, corners, cells): the case code and the corners (c00, c10,
    c11, c01) of every cell for both components, each (2, u_count - 1,
    w_count - 1), and the cells each component's zero contour crosses.  Each
    cell is rescaled by its largest |det| corner, which leaves the zero
    crossings where the unscaled values would put them; an all-singular cell
    (every log|det| = -inf) reads as four zeros.  Rows where a component
    vanishes identically are left out: a real pencil makes Im(det) zero along
    whole airspeed slices, which would give spurious flutter candidates.
    """
    lm = _cell_corners(fld.log_magnitude)
    top = np.maximum.reduce(lm)
    top[top == -math.inf] = 0.0  # exp(-inf - 0) = 0: an all-singular cell is all zeros
    unit = np.stack([np.cos(fld.phase), np.sin(fld.phase)])  # Re, Im at unit magnitude
    corners = [np.exp(c - top) * u for c, u in zip(lm, _cell_corners(unit))]
    case = _cell_cases(corners, 0.0)
    degenerate = np.all(np.abs(unit) <= DEGENERATE_COMPONENT_TOL, axis=-1)
    skip = (degenerate[:, :-1] | degenerate[:, 1:])[..., None]
    return case, corners, (case != 0) & (case != 15) & ~skip


def det_zero_contours(fld: ComplexField) -> Tuple[ContourSet, ContourSet]:
    """The Re(det) = 0 and Im(det) = 0 contours of a determinant field.

    Each cell is rescaled by its largest |det| corner, and rows where a
    component vanishes identically are skipped (see :func:`_det_components`).
    """
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    case, corners, cells = _det_components(fld)
    re_set, im_set = (ContourSet(0.0, _march(us, ws, case[k], [c[k] for c in corners], 0.0,
                                             cells[k])) for k in (0, 1))
    return re_set, im_set


def _det_zero_crossings(fld: ComplexField) -> List[Tuple[float, float]]:
    """Crossings (U, chi_R) of the Re(det) = 0 and Im(det) = 0 contours, without chaining.

    The segments are those of :func:`det_zero_contours`, with the same vertices.
    Each Re segment is intersected with the Im segments of its own cell and of
    the eight around it, the only cells it can touch.  So the hits are those of
    all Re x Im segment pairs, while the pairing work grows with the cells the
    contours cross, and they come in row-major order of the Re segments' cells.
    """
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    case, corners, cells = _det_components(fld)
    kk, ii, jj = np.nonzero(cells)
    # both components in one pass: Im on a second copy of the grid after Re along U
    # (no cell spans the two), so their edges get distinct ids
    seg_i, seg_j, _, verts = _cell_segments(np.tile(us, 2), ws, kk * us.size + ii, jj,
                                            case[kk, ii, jj], [c[kk, ii, jj] for c in corners],
                                            0.0)
    n_re = np.searchsorted(seg_i, us.size)
    re_i, re_j, re_v = seg_i[:n_re], seg_j[:n_re], verts[:n_re]
    im_i, im_j, im_v = seg_i[n_re:] - us.size, seg_j[n_re:], verts[n_re:]

    # Im segment ids per cell (-1 for none), padded by one cell on each side
    im_at = np.full((us.size + 1, ws.size + 1, 2), -1)
    second = np.r_[False, (im_i[1:] == im_i[:-1]) & (im_j[1:] == im_j[:-1])]
    im_at[im_i + 1, im_j + 1, second.astype(int)] = np.arange(im_i.size)
    di, dj = np.divmod(np.arange(9), 3)
    near_im = im_at[re_i[:, None] + di, re_j[:, None] + dj].reshape(re_i.size, 18)
    p, k = np.nonzero(near_im >= 0)
    q = near_im[p, k]

    a1, a2, b1, b2 = re_v[p, 0], re_v[p, 1], im_v[q, 0], im_v[q, 1]
    d1, d2, rel = a2 - a1, b2 - b1, b1 - a1
    denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    t_num = rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]
    s_num = rel[:, 0] * d1[:, 1] - rel[:, 1] * d1[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t_num / denom
        s = s_num / denom
    hit = (np.abs(denom) > 0.0) & (t >= 0.0) & (t <= 1.0) & (s >= 0.0) & (s <= 1.0)
    pts = a1[hit] + t[hit, None] * d1[hit]
    return [(float(u), float(w)) for u, w in pts]


def epsilon_pseudospectrum(op: ParametricOperator, grid: Grid2D,
                           eps_list: Sequence[float]) -> List[ContourSet]:
    """One contour set per epsilon, all from a single shared sigma field."""
    eps = _eps_levels(eps_list)
    fld = compute_sigma_field(op, grid)
    return [extract_contours(fld, e) for e in eps]


def _eps_levels(eps_list: Sequence[float]) -> List[float]:
    """``eps_list`` as floats, which must be nonempty, positive and strictly ascending."""
    eps = [float(e) for e in eps_list]
    if not eps:
        raise ValueError("eps_list must be nonempty")
    if not all(math.isfinite(e) for e in eps):
        raise ValueError(f"eps_list levels must be finite, not {eps}")
    if any(e <= 0.0 for e in eps) or any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps_list must be strictly ascending and positive")
    return eps


def _borderline_threshold(threshold: float) -> float:
    """A borderline-region ``threshold`` as a float, which must be finite and positive."""
    t = float(threshold)
    if not 0.0 < t < math.inf:
        raise ValueError(f"threshold must be positive and finite, not {t}")
    return t


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
    threshold = _borderline_threshold(threshold)
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

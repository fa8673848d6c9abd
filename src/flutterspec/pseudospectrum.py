"""Scalar/determinant fields over (U, chi_R) grids and their contours.

The epsilon-pseudospectrum is the sublevel set of the minimum-singular-value
field; its contours come from marching squares with linear edge
interpolation, run as array code over the cells a contour crosses, whose
segments are then chained into polylines.  Determinant fields are stored as
(log-magnitude, phase) pairs so that they survive overflow; the flutter
search does not use them (its candidates come from eigenvalue rows, see
:mod:`flutterspec.flutter`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import NumericalError
from .operator import ParametricOperator, Pencil, Window, _check_count, evaluate_batch

__all__ = [
    "Grid2D",
    "ScalarField",
    "ComplexField",
    "ContourSet",
    "BorderlineRegion",
    "compute_sigma_field",
    "compute_det_field",
    "extract_contours",
    "epsilon_pseudospectrum",
    "find_borderline_regions",
]

# Complex entries (1 MB) per field chunk: a whole n=16 grid in one stack ran slower.
# The chunk count also caps a field's worker threads, so its parallelism.
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
        for name, (lo, hi, count) in (("u_axis", self.u_axis), ("w_axis", self.w_axis)):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"axis bounds ({lo}, {hi}) must be finite with min < max")
            _check_count(f"{name} count", count, 2)
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


def _rows_stack(op: ParametricOperator, chis: np.ndarray, us: np.ndarray) -> np.ndarray:
    """stack[r, j] = A(chis[j], us[r]) for one chunk of U rows."""
    return evaluate_batch(op, chis[None, :], us[:, None]).reshape(-1, chis.size, op.dim, op.dim)


def _map_chunks(op: ParametricOperator, grid: Grid2D,
                reduce: Callable[[slice, np.ndarray], object]) -> list:
    """``reduce(rows, stack)`` of each chunk of U rows of a grid inside the operator window,
    in row order.  A chunk is at most ``CHUNK_ENTRIES`` complex entries, or one row.

    Each chunk is evaluated and reduced as one unit of work, so its stack lives only in the
    worker that reduces it.  A :class:`Pencil` ``func`` (read-only numpy) has its chunks
    mapped over one worker thread per available CPU and chunk; any other ``func`` runs chunk
    by chunk on the calling thread.  A failing chunk cancels the later ones.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept out of `import flutterspec`

    op.window._admit(Window(*grid.u_axis[:2], *grid.w_axis[:2]))
    us, chis = grid.u_values(), grid.w_values() + 1j * grid.chi_I_fixed
    step = max(1, CHUNK_ENTRIES // (grid.w_axis[2] * op.dim * op.dim))
    chunks = [slice(i0, i0 + step) for i0 in range(0, grid.u_axis[2], step)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(min(cpus or 1, len(chunks))) as pool:
        run = pool.map if isinstance(op.func, Pencil) else map
        return list(run(lambda rows: reduce(rows, _rows_stack(op, chis, us[rows])), chunks))


def compute_sigma_field(op: ParametricOperator, grid: Grid2D) -> ScalarField:
    """Minimum-singular-value field over the grid, one batched SVD per chunk of U rows
    (see :func:`_map_chunks`); a failing chunk is redone row by row, and the NumericalError
    names the first failing row."""
    def sigma(rows: slice, stack: np.ndarray) -> np.ndarray:
        try:
            return np.linalg.svd(stack, compute_uv=False)[..., -1]
        except np.linalg.LinAlgError:
            out = np.empty(stack.shape[:2])
            for i, row in enumerate(stack, rows.start):
                try:
                    out[i - rows.start] = np.linalg.svd(row, compute_uv=False)[:, -1]
                except np.linalg.LinAlgError as exc:
                    raise NumericalError(f"sigma field row i={i}, U={grid.u_values()[i]} of "
                                         f"operator '{op.name}': {exc}") from exc
            return out

    return ScalarField(grid, np.concatenate(_map_chunks(op, grid, sigma)))


def compute_det_field(op: ParametricOperator, grid: Grid2D) -> ComplexField:
    """Determinant field in (log|det|, phase) form, one batched slogdet per chunk of U rows
    (see :func:`_map_chunks`); a singular node gets log|det| = -inf and phase 0 (sign 0)."""
    sign, log_mag = (np.concatenate(part) for part in zip(
        *_map_chunks(op, grid, lambda rows, stack: np.linalg.slogdet(stack))))
    return ComplexField(grid, log_mag, np.angle(sign))


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


def _cell_segments(us: np.ndarray, ws: np.ndarray, values: np.ndarray, level: float
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Marching-squares segments of the cells the contour {values = level} crosses.

    Returns per segment the global edge ids of its two ends (S, 2; u-directed
    edges first) and their (U, chi_R) vertices (S, 2, 2), in row-major cell
    order; a cell's segments follow ``_SEGMENT_TABLE`` in order and direction.
    The cells on a grid edge read its corners in one order, so their vertices agree bit-exactly.
    """
    c00, c10, c11, c01 = corners = (values[:-1, :-1], values[1:, :-1], values[1:, 1:],
                                    values[:-1, 1:])
    case = ((c00 >= level) | (c10 >= level) << 1 | (c11 >= level) << 2
            | (c01 >= level) << 3).astype(int)
    saddle = (case == 5) | (case == 10)
    case += 16 * (saddle & (0.25 * (c00 + c10 + c11 + c01) >= level))
    ii, jj = np.nonzero((case != 0) & (case != 15))
    code = case[ii, jj]
    cell, seg = np.nonzero(np.arange(2) < _SEGMENT_COUNT[code][:, None])
    edge = _SEGMENT_EDGES[code[cell], seg]
    i, j = ii[cell][:, None], jj[cell][:, None]
    ends = np.stack([c[ii, jj] for c in corners], axis=-1)[cell[:, None, None],
                                                           _EDGE_CORNERS[edge]]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (level - ends[..., 0]) / (ends[..., 1] - ends[..., 0])
    u0, u1, w0, w1 = us[i], us[i + 1], ws[j], ws[j + 1]
    along_u = edge % 2 == 0
    vert_u = np.where(along_u, u0 + t * (u1 - u0), np.where(edge == 1, u1, u0))
    vert_w = np.where(along_u, np.where(edge == 2, w1, w0), w0 + t * (w1 - w0))
    n_w = ws.size
    keys = np.where(along_u, i * n_w + j + (edge == 2),
                    (us.size - 1) * n_w + (i + (edge == 1)) * (n_w - 1) + j)
    return keys, np.stack([vert_u, vert_w], axis=-1)


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
    is not an error.  Determinant fields raise TypeError, and a ``level`` that is
    not finite and positive (the rule of ``eps_list``) raises ValueError.
    """
    if not isinstance(fld, ScalarField):
        raise TypeError(f"cannot contour {type(fld).__name__}")
    level = _positive_finite("level", level)
    keys, verts = _cell_segments(fld.grid.u_values(), fld.grid.w_values(), fld.values, level)
    vertex_cache = dict(zip(keys.ravel().tolist(), map(tuple, verts.reshape(-1, 2).tolist())))
    return ContourSet(level, _chain_segments(keys.tolist(), vertex_cache))


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


def _positive_finite(name: str, value: float) -> float:
    """``value`` as a float, which must be finite and positive; a ValueError names it."""
    v = float(value)
    if not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be positive and finite, not {v}")
    return v


def find_borderline_regions(fld: ScalarField, threshold: float,
                            flutter_points: Sequence = ()) -> List[BorderlineRegion]:
    """Connected components (4-connectivity) of {sigma_min < threshold}.

    Each region reports its minimizing node as center; near_flutter is set
    when the center falls inside the axis-aligned ellipse of some supplied
    flutter point (``FlutterPoint``s, read at ``fp.point.U`` and
    ``fp.point.chi_R``) with semi-axes ``NEAR_FLUTTER_SPAN`` of each grid span.
    """
    threshold = _positive_finite("threshold", threshold)
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    radius = (NEAR_FLUTTER_SPAN * (us[-1] - us[0]), NEAR_FLUTTER_SPAN * (ws[-1] - ws[0]))
    centers = [(float(fp.point.U), float(fp.point.chi_R)) for fp in flutter_points]

    mask = np.pad(fld.values < threshold, 1)  # a False border keeps every neighbour on the grid
    width = mask.shape[1]
    inside = mask.ravel().tolist()
    regions = []
    for start in np.flatnonzero(mask).tolist():
        if not inside[start]:
            continue
        inside[start] = False
        stack, nodes = [start], []
        while stack:
            p = stack.pop()
            nodes.append(p)
            for q in (p - width, p + width, p - 1, p + 1):
                if inside[q]:
                    inside[q] = False
                    stack.append(q)
        # padded node (i+1)*width + j+1 -> grid (i, j), row-major: argmin keeps the first minimum
        ii, jj = np.divmod(np.sort(nodes) - width - 1, width)
        vals = fld.values[ii, jj]
        k = int(np.argmin(vals))
        center = (float(us[ii[k]]), float(ws[jj[k]]))
        extent = (float(us[ii[0]]), float(us[ii[-1]]), float(ws[jj.min()]), float(ws[jj.max()]))
        near = any(((center[0] - cu) / radius[0]) ** 2
                   + ((center[1] - cw) / radius[1]) ** 2 <= 1.0
                   for cu, cw in centers)
        regions.append(BorderlineRegion(center, float(vals[k]), extent, near))
    regions.sort(key=lambda r: r.center)
    return regions

"""Scalar/determinant fields over (U, chi_R) grids and their contours.

The epsilon-pseudospectrum is the sublevel set of the minimum-singular-value
field; its contours come from marching squares with linear edge
interpolation.  Determinant fields are stored as (log-magnitude, phase)
pairs so that zero contours survive overflow; their real/imaginary parts
are contoured with per-cell rescaling, which leaves level-0 crossings
exactly where the unscaled values would put them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NumericalError
from .operator import ParametricOperator, Window, evaluate

__all__ = [
    "Grid2D",
    "ScalarField",
    "ComplexField",
    "DetComponentField",
    "ContourSet",
    "BorderlineRegion",
    "compute_sigma_field",
    "compute_det_field",
    "extract_contours",
    "epsilon_pseudospectrum",
    "find_borderline_regions",
]

# Relative size below which a det component counts as identically zero
# along a grid row (real pencils give |sin(phase)| at rounding level).
DEGENERATE_COMPONENT_TOL = 1e-12


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

    @property
    def values(self) -> np.ndarray:
        return np.exp(self.log_magnitude) * np.exp(1j * self.phase)

    def real_part(self) -> "DetComponentField":
        return DetComponentField(self.grid, self.log_magnitude, self.phase, "real")

    def imag_part(self) -> "DetComponentField":
        return DetComponentField(self.grid, self.log_magnitude, self.phase, "imag")


@dataclass(frozen=True)
class DetComponentField:
    """Re or Im of a determinant field, contourable at level 0 only."""

    grid: Grid2D
    log_magnitude: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)
    component: str = "real"

    def __post_init__(self):
        if self.component not in ("real", "imag"):
            raise ValueError("component must be 'real' or 'imag'")

    def unit_values(self) -> np.ndarray:
        """cos/sin of the phase: the component at unit magnitude."""
        return np.cos(self.phase) if self.component == "real" else np.sin(self.phase)

    def degenerate_rows(self) -> np.ndarray:
        """Rows (fixed-U slices) where the component vanishes identically.

        A real matrix pencil makes Im(det) exactly zero along whole
        airspeed slices; contouring those rows would manufacture spurious
        flutter candidates, so they are skipped.
        """
        return np.all(np.abs(self.unit_values()) <= DEGENERATE_COMPONENT_TOL, axis=1)


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


def _check_grid_window(op: ParametricOperator, grid: Grid2D):
    if not (op.window.contains(grid.u_axis[0], grid.w_axis[0])
            and op.window.contains(grid.u_axis[1], grid.w_axis[1])):
        raise ValueError(f"grid {grid.u_axis[:2]}x{grid.w_axis[:2]} exceeds the "
                         f"operator window {op.window}")


def _row_stacks(op: ParametricOperator, grid: Grid2D):
    """Yield (i, u_i, stack) per U row, stack[j] = A(w_j + i*chi_I_fixed, u_i).

    The stack is one buffer refilled for every row, so memory grows by
    w_count*n*n entries rather than the whole grid's; use it before
    advancing.
    """
    _check_grid_window(op, grid)
    ws = grid.w_values()
    stack = np.empty((ws.size, op.dim, op.dim), dtype=complex)
    for i, u in enumerate(grid.u_values()):
        for j, w in enumerate(ws):
            stack[j] = evaluate(op, complex(w, grid.chi_I_fixed), u)
        yield i, u, stack


def compute_sigma_field(op: ParametricOperator, grid: Grid2D) -> ScalarField:
    """Minimum-singular-value field over the grid, one batched SVD per U row."""
    values = np.empty((grid.u_axis[2], grid.w_axis[2]))
    for i, u, stack in _row_stacks(op, grid):
        try:
            values[i] = np.linalg.svd(stack, compute_uv=False)[:, -1]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"sigma field row i={i}, U={u} of operator '{op.name}': {exc}") from exc
    return ScalarField(grid, values)


def compute_det_field(op: ParametricOperator, grid: Grid2D) -> ComplexField:
    """Determinant field in (log|det|, phase) form, one batched slogdet per U row.

    A singular node gets log|det| = -inf and phase 0 (the angle of sign 0).
    """
    log_mag = np.empty((grid.u_axis[2], grid.w_axis[2]))
    phase = np.empty_like(log_mag)
    for i, _, stack in _row_stacks(op, grid):
        sign, log_mag[i] = np.linalg.slogdet(stack)
        phase[i] = np.angle(sign)
    return ComplexField(grid, log_mag, phase)


# Marching squares.  Corners of cell (i, j): c00=(i,j), c10=(i+1,j),
# c11=(i+1,j+1), c01=(i,j+1); edges 0=bottom, 1=right, 2=top, 3=left.
# Case bits: c00 | c10<<1 | c11<<2 | c01<<3, "inside" meaning value >= level.
_SEGMENT_TABLE = {
    1: ((3, 0),), 2: ((0, 1),), 3: ((3, 1),), 4: ((1, 2),),
    6: ((0, 2),), 7: ((3, 2),), 8: ((2, 3),), 9: ((0, 2),),
    11: ((1, 2),), 12: ((1, 3),), 13: ((0, 1),), 14: ((3, 0),),
}


def _cell_edge_key(i: int, j: int, edge: int) -> Tuple[str, int, int]:
    if edge == 0:
        return ("u", i, j)
    if edge == 1:
        return ("w", i + 1, j)
    if edge == 2:
        return ("u", i, j + 1)
    return ("w", i, j)


def _edge_vertex(key, corners, us, ws, level) -> Tuple[float, float]:
    kind, i, j = key
    if kind == "u":
        a, b = corners[(i, j)], corners[(i + 1, j)]
        t = (level - a) / (b - a)
        return (us[i] + t * (us[i + 1] - us[i]), ws[j])
    a, b = corners[(i, j)], corners[(i, j + 1)]
    t = (level - a) / (b - a)
    return (us[i], ws[j] + t * (ws[j + 1] - ws[j]))


def _march(us: np.ndarray, ws: np.ndarray, cell_corner_values, level: float,
           skip_cell=None) -> List[np.ndarray]:
    """Generic marching squares over cells; returns chained polylines.

    ``cell_corner_values(i, j)`` returns (c00, c10, c11, c01) for the cell;
    vertices are cached per grid edge so shared edges agree bit-exactly.
    """
    segments: List[Tuple[Tuple, Tuple]] = []
    corner_cache: Dict[Tuple[int, int], float] = {}
    vertex_cache: Dict[Tuple, Tuple[float, float]] = {}

    for i in range(us.size - 1):
        for j in range(ws.size - 1):
            if skip_cell is not None and skip_cell(i, j):
                continue
            c00, c10, c11, c01 = cell_corner_values(i, j)
            corner_cache[(i, j)] = c00
            corner_cache[(i + 1, j)] = c10
            corner_cache[(i + 1, j + 1)] = c11
            corner_cache[(i, j + 1)] = c01
            case = (int(c00 >= level) | int(c10 >= level) << 1
                    | int(c11 >= level) << 2 | int(c01 >= level) << 3)
            if case in (0, 15):
                continue
            if case in (5, 10):
                center_in = 0.25 * (c00 + c10 + c11 + c01) >= level
                if case == 5:
                    segs = ((0, 1), (2, 3)) if center_in else ((0, 3), (1, 2))
                else:
                    segs = ((0, 3), (1, 2)) if center_in else ((0, 1), (2, 3))
            else:
                segs = _SEGMENT_TABLE[case]
            for ea, eb in segs:
                ka, kb = _cell_edge_key(i, j, ea), _cell_edge_key(i, j, eb)
                for key in (ka, kb):
                    if key not in vertex_cache:
                        vertex_cache[key] = _edge_vertex(key, corner_cache, us, ws, level)
                segments.append((ka, kb))

    return _chain_segments(segments, vertex_cache)


def _chain_segments(segments, vertex_cache) -> List[np.ndarray]:
    by_key: Dict[Tuple, List[int]] = {}
    for idx, (ka, kb) in enumerate(segments):
        by_key.setdefault(ka, []).append(idx)
        by_key.setdefault(kb, []).append(idx)

    used = [False] * len(segments)
    polylines = []

    def other_segment(key, idx):
        for cand in by_key[key]:
            if cand != idx and not used[cand]:
                return cand
        return None

    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = list(segments[start])
        # extend forward from the tail, then backward from the head
        for end in (1, 0):
            prev_idx = start
            while True:
                key = chain[-1] if end == 1 else chain[0]
                nxt = other_segment(key, prev_idx)
                if nxt is None:
                    break
                used[nxt] = True
                ka, kb = segments[nxt]
                new_key = kb if ka == key else ka
                if end == 1:
                    chain.append(new_key)
                else:
                    chain.insert(0, new_key)
                prev_idx = nxt
                if chain[0] == chain[-1]:
                    break
            if chain[0] == chain[-1]:
                break
        pts = np.array([vertex_cache[k] for k in chain])
        polylines.append(pts)
    return polylines


def extract_contours(fld: Union[ScalarField, DetComponentField], level: float) -> ContourSet:
    """Iso-contours {value = level} as marching-squares polylines.

    Saddle cells are resolved by the cell-center value.  An empty result
    is not an error.  For det component fields only level 0 is meaningful
    (per-cell rescaling preserves only zero crossings), and identically
    zero rows are skipped.
    """
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    if isinstance(fld, ScalarField):
        v = fld.values

        def corners(i, j):
            return v[i, j], v[i + 1, j], v[i + 1, j + 1], v[i, j + 1]

        polylines = _march(us, ws, corners, float(level))
    elif isinstance(fld, DetComponentField):
        if level != 0.0:
            raise ValueError("det component fields can only be contoured at level 0")
        unit = fld.unit_values()
        log_mag = fld.log_magnitude
        degenerate = fld.degenerate_rows()

        def corners(i, j):
            lm = (log_mag[i, j], log_mag[i + 1, j], log_mag[i + 1, j + 1], log_mag[i, j + 1])
            top = max(lm)
            if top == -math.inf:
                return 0.0, 0.0, 0.0, 0.0
            sc = (math.exp(lm[0] - top), math.exp(lm[1] - top),
                  math.exp(lm[2] - top), math.exp(lm[3] - top))
            return (sc[0] * unit[i, j], sc[1] * unit[i + 1, j],
                    sc[2] * unit[i + 1, j + 1], sc[3] * unit[i, j + 1])

        def skip(i, j):
            return degenerate[i] or degenerate[i + 1]

        polylines = _march(us, ws, corners, 0.0, skip_cell=skip)
    else:
        raise TypeError(f"cannot contour {type(fld).__name__}")
    return ContourSet(float(level), polylines)


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


def find_borderline_regions(fld: ScalarField, threshold: float,
                            flutter_points: Sequence = (),
                            exclusion_radius: Optional[Tuple[float, float]] = None
                            ) -> List[BorderlineRegion]:
    """Connected components (4-connectivity) of {sigma_min < threshold}.

    Each region reports its minimizing node as center; near_flutter is set
    when the center falls inside the axis-aligned exclusion ellipse of some
    supplied flutter point (``FlutterPoint``s, read at ``fp.point.U`` and
    ``fp.point.chi_R``; default semi-axes: 5% of each grid span).
    """
    from scipy import ndimage  # lazy: only this function needs it
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    us, ws = fld.grid.u_values(), fld.grid.w_values()
    if exclusion_radius is None:
        exclusion_radius = (0.05 * (us[-1] - us[0]), 0.05 * (ws[-1] - ws[0]))
    centers = [(float(fp.point.U), float(fp.point.chi_R)) for fp in flutter_points]

    mask = fld.values < threshold
    labels, n_regions = ndimage.label(mask, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    regions = []
    for lbl in range(1, n_regions + 1):
        ii, jj = np.nonzero(labels == lbl)
        vals = fld.values[ii, jj]
        k = int(np.argmin(vals))
        center = (float(us[ii[k]]), float(ws[jj[k]]))
        extent = (float(us[ii.min()]), float(us[ii.max()]),
                  float(ws[jj.min()]), float(ws[jj.max()]))
        near = any(((center[0] - cu) / exclusion_radius[0]) ** 2
                   + ((center[1] - cw) / exclusion_radius[1]) ** 2 <= 1.0
                   for cu, cw in centers)
        regions.append(BorderlineRegion(center, float(vals[k]), extent, near))
    regions.sort(key=lambda r: r.center)
    return regions

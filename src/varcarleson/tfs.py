"""Time-frequency-scale geometry: grids, trees, strips, fields.

Points of the parameter space are triples (eta, y, t) of modulation,
translation, and scale.  A *tree* with top (xi_T, x_T, s_T) is the image of
the model region {theta in Theta, |zeta| < 1 - sigma, 0 < sigma} under

    (theta, zeta, sigma) -> (xi_T + theta/(s_T sigma), x_T + s_T zeta, s_T sigma),

split into "in" and "out" parts by a subinterval Theta_in.  A *strip* keeps
only the translation-scale constraint |y - x_D| < s_D - t.  Discretized
fields live on a product grid (uniform eta, uniform y, geometric t); the
reference measure deta dy dt gets node weights d_eta * d_y * (t * log rho),
and on a tree the model measure dtheta dzeta dsigma/sigma becomes
(deta dy dt)/s_T.  A dictionary stores its grid, its elements with their top
scales and offsets, and per region (full, in, out) one per-row cell index:
each element's flat cell numbers, derived for every region at first use from
the elements' own geometry by the node rule that the membership functions
apply to one element.  The dense node rows are built a chunk at a time and
dropped, so no dictionary keeps an (n_elements x n_cells) array.  Size
evaluations, cover picks, strip restrictions and sub-dictionaries all read
the index; a pure sup size reads the union of the rows, kept as one cell mask
per region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, NormedSpace, _freeze, norm_eval

__all__ = [
    "TFSGrid",
    "OuterField",
    "Tree",
    "Strip",
    "TreeDictionary",
    "StripDictionary",
    "tree_membership",
    "strip_membership",
]


def _axis(name: str, values, geometric: bool = False) -> tuple:
    """A 1-D axis of >= 2 finite numbers and its step: difference > 0, or ratio > 1 if geometric."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        arr = np.array(np.nan)  # fails the check below
    if arr.ndim != 1 or arr.size < 2 or not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} grid must be a 1-D array of >= 2 finite numbers")
    if geometric and np.any(arr <= 0):
        raise ConfigurationError(f"{name} grid must be positive")
    steps, least = (arr[1:] / arr[:-1], 1.0) if geometric else (np.diff(arr), 0.0)
    if np.any(steps <= least) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        shape = "geometric with ratio > 1" if geometric else "ascending and uniformly spaced"
        raise ConfigurationError(f"{name} grid must be {shape}")
    return arr, float(steps[0])


@dataclass(frozen=True)
class TFSGrid:
    """Product grid: uniform eta and y, geometric t."""

    eta: np.ndarray
    y: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        eta, d_eta = _axis("eta", self.eta)
        y, d_y = _axis("y", self.y)
        t, ratio = _axis("t", self.t, geometric=True)
        for name, arr in (("eta", eta), ("y", y), ("t", t)):
            object.__setattr__(self, name, _freeze(arr))
        object.__setattr__(self, "d_eta", d_eta)
        object.__setattr__(self, "d_y", d_y)
        object.__setattr__(self, "log_ratio", float(np.log(ratio)))

    @classmethod
    def build(
        cls,
        eta_range: tuple,
        eta_steps: int,
        y_range: tuple,
        y_steps: int,
        t_min: float,
        t_max: float,
        ratio: float,
    ) -> "TFSGrid":
        if not (0 < t_min < t_max) or not ratio > 1.0:
            raise ConfigurationError(
                f"need 0 < t_min < t_max and ratio > 1, got {t_min}, {t_max}, {ratio}"
            )
        # tolerate roundoff when t_max/t_min is an exact power of ratio
        count = int(math.floor(math.log(t_max / t_min) / math.log(ratio) + 1e-9)) + 1
        t = t_min * ratio ** np.arange(count)
        return cls(
            np.linspace(eta_range[0], eta_range[1], int(eta_steps)),
            np.linspace(y_range[0], y_range[1], int(y_steps)),
            t,
        )

    @property
    def shape(self) -> tuple:
        return (self.eta.size, self.y.size, self.t.size)

    def cell_weights(self) -> np.ndarray:
        """deta dy dt node weights, shape (n_eta, n_y, n_t)."""
        w_t = self.t * self.log_ratio
        return (
            np.full(self.eta.size, self.d_eta)[:, None, None]
            * np.full(self.y.size, self.d_y)[None, :, None]
            * w_t[None, None, :]
        )


@dataclass(frozen=True)
class OuterField:
    """A C^d-valued function sampled on a TFSGrid."""

    grid: TFSGrid
    values: np.ndarray  # (n_eta, n_y, n_t, d) complex
    space: NormedSpace

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        expected = self.grid.shape + (self.space.dim,)
        if vals.shape != expected:
            raise ConfigurationError(f"values must have shape {expected}, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("field values must be finite")
        object.__setattr__(self, "values", _freeze(vals))

    def norms(self) -> np.ndarray:
        """Pointwise coordinate-space norms, shape (n_eta, n_y, n_t)."""
        return norm_eval(self.values, self.space)

    def restrict(self, mask: np.ndarray) -> "OuterField":
        """Zero the field outside the boolean node mask."""
        if mask.shape != self.grid.shape:
            raise ValueError(f"mask shape {mask.shape} != grid shape {self.grid.shape}")
        return OuterField(self.grid, np.where(mask[..., None], self.values, 0.0), self.space)


@dataclass(frozen=True)
class Tree:
    """Top (xi, x, s) plus the shared angular windows Theta_in subset Theta."""

    xi: float
    x: float
    s: float
    theta: tuple
    theta_in: tuple

    def __post_init__(self):
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ConfigurationError(f"tree scale must be positive, got {self.s}")
        lo, hi = map(float, self.theta)
        lo_in, hi_in = map(float, self.theta_in)
        if not (lo < hi and lo_in < hi_in):
            raise ConfigurationError("theta windows must be nonempty open intervals")
        if lo_in < lo or hi_in > hi:
            raise ConfigurationError("theta_in must be contained in theta")
        object.__setattr__(self, "theta", (lo, hi))
        object.__setattr__(self, "theta_in", (lo_in, hi_in))


@dataclass(frozen=True)
class Strip:
    """Translation-scale strip with top (x, s)."""

    x: float
    s: float

    def __post_init__(self):
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ConfigurationError(f"strip scale must be positive, got {self.s}")


def _angular(grid: TFSGrid, trees, window: str) -> np.ndarray:
    """theta strictly inside each tree's ``window`` ("theta" or "theta_in"), (n, n_eta, n_t)."""
    xi = np.array([tree.xi for tree in trees], dtype=float)
    lo, hi = np.array([getattr(tree, window) for tree in trees], dtype=float).reshape(-1, 2).T
    theta = grid.t[None, None, :] * (grid.eta[None, :, None] - xi[:, None, None])
    return (theta > lo[:, None, None]) & (theta < hi[:, None, None])


def _tree_nodes(grid: TFSGrid, trees) -> np.ndarray:
    """Node masks of many trees at once, one row per tree: (n_trees, n_eta, n_y, n_t).

    Membership uses open conditions: theta strictly inside the window and
    |zeta| < 1 - sigma (so a node at the top scale, sigma = 1, is excluded).
    """
    x = np.array([tree.x for tree in trees], dtype=float)
    s = np.array([tree.s for tree in trees], dtype=float)
    zeta = (grid.y[None, :] - x[:, None]) / s[:, None]  # (n, n_y)
    sigma = grid.t[None, :] / s[:, None]  # (n, n_t)
    spatial = np.abs(zeta)[:, :, None] < (1.0 - sigma)[:, None, :]  # (n, n_y, n_t)
    return _angular(grid, trees, "theta")[:, :, None, :] & spatial[:, None, :, :]


def _tree_regions(grid: TFSGrid, trees) -> dict:
    """Node masks per region: the full tree, its in part (theta in Theta_in) and its out part."""
    full = _tree_nodes(grid, trees)
    inner = _angular(grid, trees, "theta_in")[:, :, None, :]
    return {"full": full, "in": full & inner, "out": full & ~inner}


def _strip_nodes(grid: TFSGrid, strips) -> np.ndarray:
    """Node masks |y - x_D| < s_D - t of many strips, shape (n_strips, n_eta, n_y, n_t)."""
    x = np.array([strip.x for strip in strips], dtype=float)
    gap = np.array([strip.s for strip in strips], dtype=float)[:, None] - grid.t[None, :]
    mask = np.abs(grid.y[None, :] - x[:, None])[:, None, :, None] < gap[:, None, None, :]
    return np.broadcast_to(mask, (len(strips),) + grid.shape)


def tree_membership(grid: TFSGrid, tree: Tree, region: str = "full") -> np.ndarray:
    """Boolean node mask for the tree, its in-part, or its out-part.

    The one-tree case of the node rows a dictionary derives its cell index
    from: open conditions, theta strictly inside the window and
    |zeta| < 1 - sigma; in/out split by Theta_in.
    """
    regions = _tree_regions(grid, (tree,))
    if region not in regions:
        raise ValueError(f"region must be 'full', 'in', or 'out', got {region!r}")
    return regions[region][0]


def strip_membership(grid: TFSGrid, strip: Strip) -> np.ndarray:
    """Boolean node mask |y - x_D| < s_D - t (implies t < s_D)."""
    return _strip_nodes(grid, (strip,))[0]


_SCALE_FACTOR = 2.0  # ratio of consecutive dictionary top scales
_EXTRA_SCALES = 1  # top scales beyond the first one above the grid's largest t


def _scale_ladder(t_min: float, t_max: float) -> np.ndarray:
    rungs = math.ceil(math.log(t_max / t_min) / math.log(_SCALE_FACTOR))
    count = rungs + 1 + _EXTRA_SCALES
    return t_min * _SCALE_FACTOR ** np.arange(1, count + 1)


def _check_strides(**strides) -> None:
    for name, stride in strides.items():
        if stride < 1:
            raise ConfigurationError(f"{name} must be at least 1, got {stride}")


def _covering(elements: list, full: np.ndarray, what: str) -> tuple:
    """Drop elements without nodes, check that the rest cover the grid."""
    missing = int((~full.any(axis=0)).sum())
    if missing:
        raise ConfigurationError(
            f"{what} dictionary does not cover the grid ({missing} nodes uncovered); "
            "reduce the strides or add scales"
        )
    keep = full.reshape(len(elements), -1).any(axis=1)
    return tuple(e for e, k in zip(elements, keep) if k)


_DENSE_CHUNK = 1 << 20  # dense nodes held at once while a row-cell index is derived


class _Incidence:
    """The grid cells of a dictionary's elements, as one per-row cell index per region.

    A flat density with a 0 appended reduces over every row with one
    ``np.add.reduceat(padded[index], bounds[:-1])`` for a sum or
    ``np.maximum.reduceat`` for a max, and the sentinel's 0 changes neither.
    """

    def _init_elements(self, elements: tuple) -> None:
        object.__setattr__(self, "_elements", elements)
        scales = np.array([e.s for e in elements], dtype=float)
        offsets = np.array([abs(e.x) for e in elements], dtype=float)
        object.__setattr__(self, "scales", _freeze(scales))
        object.__setattr__(self, "offsets", _freeze(offsets))
        object.__setattr__(self, "_cells", {})
        object.__setattr__(self, "_unions", {})

    def _row_cells(self, region: str = "full") -> tuple:
        """The region's flat cell index row by row (ascending), and the row bounds.

        Derived for every region at first use from the elements' dense node
        rows, a chunk at a time, and kept with the region's union cell mask.
        Each row is led by the sentinel cell -1, so a row without cells still
        has a segment; row i is ``index[bounds[i]:bounds[i + 1]]``.  The index
        is ``np.intp``, as numpy would cast a narrower one on every gather.
        """
        if not self._cells:
            cells = math.prod(self.grid.shape)
            step = max(1, _DENSE_CHUNK // cells)
            parts = {}
            for lo in range(0, len(self) or 1, step):  # an empty dictionary still names its regions
                for name, rows in self._rows(self._elements[lo : lo + step]).items():
                    flat = rows.reshape(-1, cells)
                    sentinel = np.ones((flat.shape[0], 1), dtype=bool)
                    column = np.flatnonzero(np.hstack([sentinel, flat])) % (cells + 1) - 1
                    # int32 while held: the chunks of every region are alive until the end
                    parts.setdefault(name, []).append(column.astype(np.int32))
            for name in list(parts):
                index = np.concatenate(parts.pop(name), dtype=np.intp)
                bounds = np.append(np.flatnonzero(index == -1), index.size)
                self._cells[name] = (_freeze(index), _freeze(bounds))
                covered = np.zeros(cells + 1, dtype=bool)
                covered[index] = True  # the sentinel -1 lands on the dropped last entry
                self._unions[name] = _freeze(covered[:-1])
        if region not in self._cells:
            raise ValueError(f"region must be one of {sorted(self._cells)}, got {region!r}")
        return self._cells[region]

    def cells(self, element: int, region: str = "full") -> np.ndarray:
        """Flat indices of the cells in one element's region part, ascending."""
        index, bounds = self._row_cells(region)
        return index[bounds[element] + 1 : bounds[element + 1]]

    def _union(self, region: str) -> np.ndarray:
        """Flat mask of the cells in some element's region part (not all in a sub-dictionary)."""
        self._row_cells(region)
        return self._unions[region]

    def __len__(self) -> int:
        return len(self._elements)


@dataclass(frozen=True, eq=False)
class TreeDictionary(_Incidence):
    """Trees with tops on the grid across a ladder of scales.

    The trees are the one source of their node sets: the per-row cell index
    of each region (full, in, out) is derived from them on first use.
    ``scales`` and ``offsets`` hold each tree's top scale s and top distance
    |x| from the origin.
    """

    grid: TFSGrid
    trees: tuple

    def __post_init__(self):
        self._init_elements(self.trees)

    @classmethod
    def build(
        cls,
        grid: TFSGrid,
        theta: tuple,
        theta_in: tuple,
        *,
        eta_stride: int = 1,
        y_stride: int = 1,
    ) -> "TreeDictionary":
        _check_strides(eta_stride=eta_stride, y_stride=y_stride)
        scales = _scale_ladder(grid.t[0], grid.t[-1])
        trees = [
            Tree(float(xi), float(x), float(s), theta, theta_in)
            for s in scales
            for xi in grid.eta[::eta_stride]
            for x in grid.y[::y_stride]
        ]
        return cls(grid, _covering(trees, _tree_nodes(grid, trees), "tree"))

    def _rows(self, trees: tuple) -> dict:
        return _tree_regions(self.grid, trees)


@dataclass(frozen=True, eq=False)
class StripDictionary(_Incidence):
    """Strips with tops on the y grid across a ladder of scales.

    The strips' cell index is derived from them on first use; strips have no
    in/out split.  ``scales`` and ``offsets`` hold each strip's top scale s
    and |x|.
    """

    grid: TFSGrid
    strips: tuple

    def __post_init__(self):
        self._init_elements(self.strips)

    @classmethod
    def build(
        cls,
        grid: TFSGrid,
        *,
        y_stride: int = 1,
    ) -> "StripDictionary":
        _check_strides(y_stride=y_stride)
        scales = _scale_ladder(grid.t[0], grid.t[-1])
        strips = [Strip(float(x), float(s)) for s in scales for x in grid.y[::y_stride]]
        return cls(grid, _covering(strips, _strip_nodes(grid, strips), "strip"))

    def _rows(self, strips: tuple) -> dict:
        return {"full": _strip_nodes(self.grid, strips)}  # strips have no in/out split

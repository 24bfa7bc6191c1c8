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
(deta dy dt)/s_T.  A dictionary holds its elements' node masks as one boolean
incidence per region, stacked (n_elements, n_eta, n_y, n_t); the membership
functions are its one-element case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, NormedSpace, norm_eval

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


def _uniform_steps(name: str, arr: np.ndarray) -> float:
    d = np.diff(arr)
    if arr.size < 2 or np.any(d <= 0):
        raise ConfigurationError(f"{name} must be ascending with >= 2 points")
    if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
        raise ConfigurationError(f"{name} must be uniformly spaced")
    return float(d[0])


@dataclass(frozen=True)
class TFSGrid:
    """Product grid: uniform eta and y, geometric t."""

    eta: np.ndarray
    y: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        y = np.asarray(self.y, dtype=float)
        t = np.asarray(self.t, dtype=float)
        d_eta = _uniform_steps("eta grid", eta)
        d_y = _uniform_steps("y grid", y)
        if t.size < 2 or np.any(t <= 0):
            raise ConfigurationError("t grid needs >= 2 positive points")
        ratios = t[1:] / t[:-1]
        if np.any(ratios <= 1.0) or not np.allclose(ratios, ratios[0], rtol=1e-9, atol=0.0):
            raise ConfigurationError("t grid must be geometric with ratio > 1")
        for name, arr in (("eta", eta), ("y", y), ("t", t)):
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "d_eta", d_eta)
        object.__setattr__(self, "d_y", d_y)
        object.__setattr__(self, "log_ratio", float(np.log(ratios[0])))

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
        t = t_min * ratio ** np.arange(max(count, 2))
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
        vals = np.ascontiguousarray(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _angular(grid: TFSGrid, trees, window: str) -> np.ndarray:
    """theta strictly inside each tree's ``window`` ("theta" or "theta_in"), (n, n_eta, n_t)."""
    xi = np.array([tree.xi for tree in trees], dtype=float)
    lo, hi = np.array([getattr(tree, window) for tree in trees], dtype=float).reshape(-1, 2).T
    theta = grid.t[None, None, :] * (grid.eta[None, :, None] - xi[:, None, None])
    return (theta > lo[:, None, None]) & (theta < hi[:, None, None])


def _tree_incidence(grid: TFSGrid, trees, region: str = "full") -> np.ndarray:
    """Node masks of many trees at once, one row per tree: (n_trees, n_eta, n_y, n_t).

    Membership uses open conditions: theta strictly inside the window and
    |zeta| < 1 - sigma (so a node at the top scale, sigma = 1, is excluded).
    The in/out parts partition the tree by theta in Theta_in or not.
    """
    x = np.array([tree.x for tree in trees], dtype=float)
    s = np.array([tree.s for tree in trees], dtype=float)
    zeta = (grid.y[None, :] - x[:, None]) / s[:, None]  # (n, n_y)
    sigma = grid.t[None, :] / s[:, None]  # (n, n_t)
    spatial = np.abs(zeta)[:, :, None] < (1.0 - sigma)[:, None, :]  # (n, n_y, n_t)
    full = _angular(grid, trees, "theta")[:, :, None, :] & spatial[:, None, :, :]
    if region == "full":
        return full
    return _split(grid, trees, full, region)


def _split(grid: TFSGrid, trees, full: np.ndarray, region: str) -> np.ndarray:
    if region not in ("in", "out"):
        raise ValueError(f"region must be 'full', 'in', or 'out', got {region!r}")
    inner = _angular(grid, trees, "theta_in")[:, :, None, :]
    return full & inner if region == "in" else full & ~inner


def _strip_incidence(grid: TFSGrid, strips) -> np.ndarray:
    """Node masks |y - x_D| < s_D - t of many strips, shape (n_strips, n_eta, n_y, n_t)."""
    x = np.array([strip.x for strip in strips], dtype=float)
    gap = np.array([strip.s for strip in strips], dtype=float)[:, None] - grid.t[None, :]
    mask = np.abs(grid.y[None, :] - x[:, None])[:, None, :, None] < gap[:, None, None, :]
    return np.broadcast_to(mask, (len(strips),) + grid.shape)


def tree_membership(grid: TFSGrid, tree: Tree, region: str = "full") -> np.ndarray:
    """Boolean node mask for the tree, its in-part, or its out-part.

    The one-tree case of the dictionary incidence: open conditions, theta
    strictly inside the window and |zeta| < 1 - sigma; in/out split by
    Theta_in.
    """
    return _tree_incidence(grid, (tree,), region)[0]


def strip_membership(grid: TFSGrid, strip: Strip) -> np.ndarray:
    """Boolean node mask |y - x_D| < s_D - t (implies t < s_D)."""
    return _strip_incidence(grid, (strip,))[0]


def _scale_ladder(t_min: float, t_max: float, factor: float, extra: int) -> np.ndarray:
    if factor <= 1.0:
        raise ConfigurationError(f"scale factor must exceed 1, got {factor}")
    count = int(math.ceil(math.log(t_max / t_min) / math.log(factor))) + 1 + extra
    return t_min * factor ** np.arange(1, count + 1)


def _covering(elements: list, full: np.ndarray, what: str) -> tuple:
    """Drop elements without nodes, check that the rest cover the grid."""
    missing = int((~full.any(axis=0)).sum())
    if missing:
        raise ConfigurationError(
            f"{what} dictionary does not cover the grid ({missing} nodes uncovered); "
            "reduce the strides or add scales"
        )
    keep = full.reshape(len(elements), -1).any(axis=1)
    return tuple(e for e, k in zip(elements, keep) if k), full[keep]


def _stacked(masks, count: int, grid: TFSGrid) -> np.ndarray:
    stack = np.asarray(masks, dtype=bool)
    if stack.shape != (count,) + grid.shape:
        raise ValueError(f"need {count} masks of shape {grid.shape}, got {stack.shape}")
    return _frozen(stack)


@dataclass(frozen=True, eq=False)
class TreeDictionary:
    """Trees with tops on the grid across a ladder of scales, plus node masks.

    ``masks`` is the full-tree incidence, one boolean row per tree, shape
    (n_trees, n_eta, n_y, n_t); the in/out parts are built alongside it and
    read through :meth:`incidence`.
    """

    grid: TFSGrid
    trees: tuple
    masks: np.ndarray

    def __post_init__(self):
        full = _stacked(self.masks, len(self.trees), self.grid)
        object.__setattr__(self, "masks", full)
        regions = {"full": full}
        for region in ("in", "out"):
            regions[region] = _frozen(_split(self.grid, self.trees, full, region))
        object.__setattr__(self, "_regions", regions)

    @classmethod
    def build(
        cls,
        grid: TFSGrid,
        theta: tuple,
        theta_in: tuple,
        *,
        eta_stride: int = 1,
        y_stride: int = 1,
        scale_factor: float = 2.0,
        extra_scales: int = 1,
    ) -> "TreeDictionary":
        scales = _scale_ladder(grid.t[0], grid.t[-1], scale_factor, extra_scales)
        trees = [
            Tree(float(xi), float(x), float(s), theta, theta_in)
            for s in scales
            for xi in grid.eta[::eta_stride]
            for x in grid.y[::y_stride]
        ]
        kept, masks = _covering(trees, _tree_incidence(grid, trees), "tree")
        return cls(grid=grid, trees=kept, masks=masks)

    def incidence(self, region: str = "full") -> np.ndarray:
        """Stacked node masks of every tree's full, in, or out part."""
        if region not in self._regions:
            raise ValueError(f"region must be 'full', 'in', or 'out', got {region!r}")
        return self._regions[region]

    def __len__(self) -> int:
        return len(self.trees)


@dataclass(frozen=True, eq=False)
class StripDictionary:
    """Strips with tops on the y grid across a ladder of scales, plus masks.

    ``masks`` is the strip incidence, shape (n_strips, n_eta, n_y, n_t).
    """

    grid: TFSGrid
    strips: tuple
    masks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "masks", _stacked(self.masks, len(self.strips), self.grid))

    @classmethod
    def build(
        cls,
        grid: TFSGrid,
        *,
        y_stride: int = 1,
        scale_factor: float = 2.0,
        extra_scales: int = 1,
    ) -> "StripDictionary":
        scales = _scale_ladder(grid.t[0], grid.t[-1], scale_factor, extra_scales)
        strips = [Strip(float(x), float(s)) for s in scales for x in grid.y[::y_stride]]
        kept, masks = _covering(strips, _strip_incidence(grid, strips), "strip")
        return cls(grid=grid, strips=kept, masks=masks)

    def incidence(self, region: str = "full") -> np.ndarray:
        """Stacked node masks of every strip; strips have no in/out split."""
        if region != "full":
            raise ValueError("strips have no in/out split")
        return self.masks

    def __len__(self) -> int:
        return len(self.strips)

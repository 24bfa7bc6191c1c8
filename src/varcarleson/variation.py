"""r-variation seminorms of finite vector-valued paths.

The r-variation of a path (x_0, ..., x_{k-1}) is the supremum over strictly
increasing index subsequences of the l^r sum of increment norms.  On a finite
path the supremum is attained and computable by dynamic programming in
O(k^2); an exponential brute-force enumerator is kept for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import NormedSpace, norm_eval

__all__ = ["Path", "variation_norm", "variation_norm_bruteforce", "linf_norm"]

_BRUTEFORCE_LIMIT = 20  # 2^20 subsequences is the cost ceiling we accept


@dataclass(frozen=True)
class Path:
    """An ordered tuple of points in C^d with the norm used for increments."""

    points: np.ndarray  # (k, d) complex
    space: NormedSpace

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must be a nonempty (k, d) array, got shape {pts.shape}")
        if pts.shape[1] != self.space.dim:
            raise ValueError(
                f"points have {pts.shape[1]} coordinates, space has dim {self.space.dim}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("path points must be finite")
        pts = np.ascontiguousarray(pts)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def _check_r(r: float) -> float:
    r = float(r)
    if not (math.isfinite(r) and r >= 1.0):
        raise ValueError(f"variation exponent must satisfy r >= 1, got {r}")
    return r


def _increment_norms(path: Path) -> np.ndarray:
    pts = path.points
    return norm_eval(pts[None, :, :] - pts[:, None, :], path.space)


def _batched_variation(path_vals: np.ndarray, space: NormedSpace, r: float) -> np.ndarray:
    """r-variation of (m, K, d) paths along axis 1; one DP for every path.

    ``best[:, j]`` is the largest sum of r-th powers of increment norms over
    subsequences ending at index j; each step appends j to the best
    predecessor.
    """
    m, steps, _ = path_vals.shape
    if steps < 2:
        return np.zeros(m)
    best = np.zeros((m, steps))
    for j in range(1, steps):
        inc = norm_eval(path_vals[:, :j, :] - path_vals[:, j : j + 1, :], space) ** r
        best[:, j] = (best[:, :j] + inc).max(axis=1)
    return best.max(axis=1) ** (1.0 / r)


def variation_norm(path: Path, r: float) -> float:
    """Exact r-variation via the longest-weighted-chain dynamic program."""
    r = _check_r(r)
    return float(_batched_variation(path.points[None], path.space, r)[0])


def variation_norm_bruteforce(path: Path, r: float) -> float:
    """Enumerate every increasing subsequence; only for k <= 20."""
    r = _check_r(r)
    k = len(path)
    if k > _BRUTEFORCE_LIMIT:
        raise ValueError(f"brute force is limited to {_BRUTEFORCE_LIMIT} points, got {k}")
    if k < 2:
        return 0.0
    dist = _increment_norms(path) ** r
    best = 0.0
    indices = range(k)
    for size in range(2, k + 1):
        for sub in combinations(indices, size):
            total = 0.0
            for a, b in zip(sub[:-1], sub[1:]):
                total += dist[a, b]
            if total > best:
                best = total
    return best ** (1.0 / r)


def linf_norm(path: Path) -> float:
    """Largest point norm along the path."""
    return float(np.max(norm_eval(path.points, path.space)))

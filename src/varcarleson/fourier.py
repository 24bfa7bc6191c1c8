"""Partial Fourier integrals and their variational operators.

The partial Fourier integral of a sampled signal up to cutoff ``xi`` is the
inverse transform of its DFT coefficients restricted to frequencies below the
cutoff.  A coefficient sitting exactly at the cutoff contributes half weight
(symmetric Riemann convention); everything strictly below is fully included.
The map ``xi -> C_xi f(x)`` is then piecewise constant between neighboring
DFT frequencies, and the r-variation operator, linearized variation
increments, and coordinatewise variation are all evaluated over a finite
cutoff grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    FrequencySelection,
    NormedSpace,
    SampledSignal,
    SequenceSignal,
    _dft_values,
    _freq_grid,
    _idft_values,
    norm_eval,
)
from .variation import _batched_variation, _check_r

__all__ = [
    "Spectrum",
    "dft",
    "partial_fourier",
    "carleson_path",
    "variational_carleson",
    "linearized_vc",
    "pointwise_variational",
    "pointwise_norm_comparison",
]


@dataclass(frozen=True)
class Spectrum:
    """DFT coefficients on the ascending frequency grid k/(n*dx)."""

    frequencies: np.ndarray  # (n,) ascending
    coefficients: np.ndarray  # (n, d) complex
    x0: float
    dx: float
    space: NormedSpace

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if freqs.ndim != 1 or coeffs.ndim != 2 or coeffs.shape[0] != freqs.size:
            raise ValueError(
                f"inconsistent shapes: frequencies {freqs.shape}, coefficients {coeffs.shape}"
            )
        if coeffs.shape[1] != self.space.dim:
            raise ValueError(
                f"coefficients have {coeffs.shape[1]} coordinates, space has dim {self.space.dim}"
            )
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        for name, arr in (("frequencies", freqs), ("coefficients", coeffs)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dxi(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


def _require_power_of_two(n: int) -> None:
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"sample count must be a power of two, got {n}")


def dft(signal: SampledSignal) -> Spectrum:
    """Forward transform; fhat(xi_k) = dx * sum_j f(x_j) e^{-2 pi i xi_k x_j}."""
    _require_power_of_two(signal.n)
    coeffs = _dft_values(signal.values, signal.x0, signal.dx)
    freqs = _freq_grid(signal.n, signal.dx)
    return Spectrum(freqs, coeffs, signal.x0, signal.dx, signal.space)


def _cutoff_weights(freqs: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Weights (len(cutoffs), len(freqs)): 1 below, 1/2 at, 0 above each cutoff.

    "At" means equality up to 1e-9 of a frequency step, so cutoffs drawn from
    the grid itself hit the half-weight branch deterministically.
    """
    cutoffs = np.atleast_1d(np.asarray(cutoffs, dtype=float))
    tol = 1e-9 * float(freqs[1] - freqs[0])
    diff = freqs[None, :] - cutoffs[:, None]
    w = np.where(diff < -tol, 1.0, 0.0)
    w[np.abs(diff) <= tol] = 0.5
    return w


def partial_fourier(signal: SampledSignal, xi: float) -> SampledSignal:
    """Partial Fourier integral with cutoff ``xi``.

    Cutoffs outside the represented band [-Nyquist, Nyquist) are clamped with
    a warning; below-band clamps to the zero signal, above-band to the full
    inverse transform.
    """
    xi = float(xi)
    if math.isnan(xi):
        raise ValueError("cutoff must not be NaN")
    nyq = 0.5 / signal.dx
    if abs(xi) > nyq:
        warnings.warn(
            f"cutoff {xi} is outside the represented band [{-nyq}, {nyq}]; clamping",
            stacklevel=2,
        )
        xi = min(max(xi, -nyq), nyq)
    return signal.with_values(carleson_path(signal, [xi])[:, 0, :])


def _default_grid(spec: Spectrum) -> np.ndarray:
    return np.asarray(spec.frequencies, dtype=float)


def carleson_path(signal: SampledSignal, xi_grid: np.ndarray | None = None) -> np.ndarray:
    """Partial-integral values at every sample and cutoff, shape (n, K, d)."""
    spec = dft(signal)
    grid = _default_grid(spec) if xi_grid is None else np.asarray(xi_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or not np.all(np.isfinite(grid)):
        raise ValueError("cutoff grid must be a finite 1-D array")
    weights = _cutoff_weights(spec.frequencies, grid)  # (K, n)
    out = np.empty((signal.n, grid.size, signal.dim), dtype=complex)
    block = max(1, (1 << 22) // (signal.n * signal.dim))  # cap scratch at ~64 MiB
    for start in range(0, grid.size, block):
        sel = slice(start, min(start + block, grid.size))
        partial = weights[sel][:, :, None] * spec.coefficients[None, :, :]  # (Kb, n, d)
        stacked = np.moveaxis(partial, 1, 0).reshape(signal.n, -1)
        vals = _idft_values(stacked, signal.x0, signal.dx)
        out[:, sel, :] = vals.reshape(signal.n, sel.stop - sel.start, signal.dim)
    return out


def variational_carleson(
    signal: SampledSignal, r: float, xi_grid: np.ndarray | None = None
) -> np.ndarray:
    """r-variation of the cutoff path at each sample; shape (n,)."""
    r = _check_r(r)
    path = carleson_path(signal, xi_grid)
    return _batched_variation(path, signal.space, r)


def pointwise_variational(
    signal: SampledSignal, r: float, xi_grid: np.ndarray | None = None
) -> np.ndarray:
    """Coordinatewise r-variation of the cutoff path; shape (n, d).

    Each coordinate gets its own exact scalar dynamic program, so the result
    is the lattice supremum over per-coordinate candidate subsequences.
    """
    r = _check_r(r)
    path = carleson_path(signal, xi_grid)
    n, steps, dim = path.shape
    scalar = np.moveaxis(path, 2, 1).reshape(n * dim, steps, 1)
    return _batched_variation(scalar, NormedSpace(1, 2.0), r).reshape(n, dim)


def _rowwise_partial(signal: SampledSignal, cutoffs: np.ndarray) -> np.ndarray:
    """C_{c(x_i)} f(x_i) with a per-sample cutoff array; shape (n, d)."""
    spec = dft(signal)
    x = signal.grid()
    w = _cutoff_weights(spec.frequencies, cutoffs)  # (n_x, n_freq)
    phases = np.exp(2j * np.pi * x[:, None] * spec.frequencies[None, :]) * spec.dxi
    return np.einsum("xk,xk,kd->xd", w, phases, spec.coefficients, optimize=True)


def linearized_vc(signal: SampledSignal, selection: FrequencySelection) -> SequenceSignal:
    """Increments C_{c_{j+1}(x)} f(x) - C_{c_j(x)} f(x), one signal per j.

    The selection must carry one row per sample; the increments telescope to
    C_{c_J} f - C_{c_0} f exactly.
    """
    if selection.n != signal.n:
        raise ValueError(
            f"selection has {selection.n} rows, signal has {signal.n} samples"
        )
    levels = selection.levels
    stages = [_rowwise_partial(signal, levels[:, j]) for j in range(levels.shape[1])]
    entries = [signal.with_values(stages[j + 1] - stages[j]) for j in range(selection.steps)]
    return SequenceSignal(tuple(entries))


def _random_monotone_subsets(rng: np.random.Generator, length: int, count: int) -> list:
    subs = []
    for _ in range(count):
        size = int(rng.integers(2, length + 1))
        subs.append(np.sort(rng.choice(length, size=size, replace=False)))
    return subs


def pointwise_norm_comparison(
    signal: SampledSignal,
    r: float,
    s: float,
    xi_grid: np.ndarray | None = None,
    *,
    candidates: int = 40,
    seed: int = 0,
) -> dict:
    """Compare coordinatewise vs norm-valued variation over shared candidates.

    For each candidate increasing cutoff subsequence c the two sides are
      lattice(c, x) = || (sum_j |Delta_j(x, w)|^r)^{1/r} ||_{l^s over w}
      normed(c, x)  = ( sum_j ||Delta_j(x, .)||_{l^s}^r )^{1/r}.
    For s >= r lattice <= normed holds pointwise (r-convexity of l^s), for
    s <= r the inequality reverses, with equality at s = r; the same order
    then holds for suprema over any shared candidate family.  Returns the
    worst signed violations over a family of random candidates plus the full
    grid, for both the per-candidate and the sup-over-candidates comparison.
    """
    r = _check_r(r)
    s = float(s)
    if not (s >= 1.0):
        raise ValueError(f"outer exponent must satisfy s >= 1, got {s}")
    path = carleson_path(signal, xi_grid)
    n, K, _ = path.shape
    rng = np.random.default_rng(seed)
    family = [np.arange(K)] + _random_monotone_subsets(rng, K, candidates)
    outer = NormedSpace(signal.dim, s)

    sup_lattice = np.zeros(n)
    sup_normed = np.zeros(n)
    worst_le = 0.0  # max of (lattice - normed), relevant when s >= r
    worst_ge = 0.0  # max of (normed - lattice), relevant when s <= r
    for idx in family:
        delta = path[:, idx[1:], :] - path[:, idx[:-1], :]  # (n, L, d)
        lattice = norm_eval(
            ((np.abs(delta) ** r).sum(axis=1)) ** (1.0 / r), outer
        )  # (n,)
        normed = (norm_eval(delta, outer) ** r).sum(axis=1) ** (1.0 / r)
        worst_le = max(worst_le, float((lattice - normed).max()))
        worst_ge = max(worst_ge, float((normed - lattice).max()))
        sup_lattice = np.maximum(sup_lattice, lattice)
        sup_normed = np.maximum(sup_normed, normed)

    return {
        "candidates": len(family),
        "per_candidate_lattice_minus_normed": worst_le,
        "per_candidate_normed_minus_lattice": worst_ge,
        "sup_lattice_minus_sup_normed": float((sup_lattice - sup_normed).max()),
        "sup_normed_minus_sup_lattice": float((sup_normed - sup_lattice).max()),
        "scale": float(max(sup_lattice.max(), sup_normed.max())),
    }

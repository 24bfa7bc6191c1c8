"""Partial Fourier integrals and their variational operators.

The partial Fourier integral of a sampled signal up to cutoff ``xi`` is the
inverse transform of its DFT coefficients restricted to frequencies below the
cutoff.  A coefficient sitting exactly at the cutoff contributes half weight
(symmetric Riemann convention); everything strictly below is fully included.
The map ``xi -> C_xi f(x)`` is then piecewise constant between neighboring
DFT frequencies, and the r-variation operator, linearized variation
increments, and coordinatewise variation are all evaluated over a finite
cutoff grid.  Each operator takes the frequencies and coefficients straight
from the transform conventions of :mod:`varcarleson.core` (``_freq_grid``,
``_dft_values``), once per call.
"""

from __future__ import annotations

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
    "partial_fourier",
    "carleson_path",
    "variational_carleson",
    "linearized_vc",
    "pointwise_norm_comparison",
]


def _spectrum(signal: SampledSignal) -> tuple:
    """Ascending frequencies k/(n*dx) and DFT coefficients, shapes (n,) and (n, d).

    fhat(xi_k) = dx * sum_j f(x_j) e^{-2 pi i xi_k x_j}; the sample count
    must be a power of two.
    """
    n = signal.n
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"sample count must be a power of two, got {n}")
    return _freq_grid(n, signal.dx), _dft_values(signal.values, signal.x0, signal.dx)


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
    """Partial Fourier integral with cutoff ``xi``, one column of :func:`carleson_path`.

    Its weight rule alone decides: a cutoff below every frequency (``-inf``
    among them) gives the zero signal, one above every frequency (``+inf``
    among them) the full inverse transform.
    """
    return signal.with_values(carleson_path(signal, [xi])[:, 0, :])


def carleson_path(signal: SampledSignal, xi_grid: np.ndarray | None = None) -> np.ndarray:
    """Partial-integral values at every sample and cutoff, shape (n, K, d).

    One rule, :func:`_cutoff_weights` (1 below, 1/2 at, 0 above), for any
    cutoff but NaN: ``-inf`` and ``+inf`` weigh every coefficient 0 and 1.
    The cutoffs default to the frequencies themselves.
    """
    freqs, coeffs = _spectrum(signal)
    grid = freqs if xi_grid is None else np.asarray(xi_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or np.any(np.isnan(grid)):
        raise ValueError("cutoff grid must be a 1-D array without NaN")
    weights = _cutoff_weights(freqs, grid)  # (K, n)
    out = np.empty((signal.n, grid.size, signal.dim), dtype=complex)
    block = max(1, (1 << 22) // (signal.n * signal.dim))  # cap scratch at ~64 MiB
    for start in range(0, grid.size, block):
        sel = slice(start, min(start + block, grid.size))
        partial = weights[sel][:, :, None] * coeffs[None, :, :]  # (Kb, n, d)
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


def _rowwise_partial(
    freqs: np.ndarray, coeffs: np.ndarray, phases: np.ndarray, cutoffs: np.ndarray
) -> np.ndarray:
    """C_{c(x_i)} f(x_i) with a per-sample cutoff array; shape (n, d).

    ``phases`` is the (n, n) table exp(2 pi i x_i xi_k) * dxi on the sample
    grid.  It and the transform do not depend on the cutoffs, so
    ``linearized_vc`` builds them once per call and shares them across every
    level.
    """
    w = _cutoff_weights(freqs, cutoffs)  # (n_x, n_freq)
    return np.einsum("xk,xk,kd->xd", w, phases, coeffs, optimize=True)


def linearized_vc(signal: SampledSignal, selection: FrequencySelection) -> SequenceSignal:
    """Increments C_{c_{j+1}(x)} f(x) - C_{c_j(x)} f(x), one signal per j.

    The selection must carry one row per sample; the increments telescope to
    C_{c_J} f - C_{c_0} f exactly.  The transform and the phase table are
    built once per call; each level only adds its cutoff weights and one
    contraction.
    """
    if selection.n != signal.n:
        raise ValueError(
            f"selection has {selection.n} rows, signal has {signal.n} samples"
        )
    levels = selection.levels
    freqs, coeffs = _spectrum(signal)
    x = signal.grid()
    dxi = float(freqs[1] - freqs[0])
    phases = np.exp(2j * np.pi * x[:, None] * freqs[None, :]) * dxi
    stages = [
        _rowwise_partial(freqs, coeffs, phases, levels[:, j]) for j in range(levels.shape[1])
    ]
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
    The cutoffs are the signal's DFT frequencies.

    Candidates share most of their consecutive pairs (i, j), so the
    increments, ``|Delta|^r`` and ``||Delta||^r`` are built once per distinct
    pair in (pair, n, d) layout; each candidate sums its rows in order, and
    one ``norm_eval`` call takes the lattice side of every candidate.
    """
    r = _check_r(r)
    s = float(s)
    if not (s >= 1.0):
        raise ValueError(f"outer exponent must satisfy s >= 1, got {s}")
    if candidates < 0:
        raise ValueError(f"candidate count must be at least 0, got {candidates}")
    path = carleson_path(signal)
    n, K, _ = path.shape
    rng = np.random.default_rng(seed)
    family = [np.arange(K)] + _random_monotone_subsets(rng, K, candidates)
    outer = NormedSpace(signal.dim, s)

    pair_ids = np.concatenate([idx[:-1] * K + idx[1:] for idx in family])
    unique, rows = np.unique(pair_ids, return_inverse=True)
    by_cutoff = np.moveaxis(path, 1, 0)  # (K, n, d)
    delta = by_cutoff[unique % K] - by_cutoff[unique // K]  # (U, n, d)
    lattice_terms = np.abs(delta) ** r
    normed_terms = norm_eval(delta, outer) ** r  # (U, n)
    sizes = np.array([idx.size - 1 for idx in family])
    stops = np.cumsum(sizes)
    lattice_sums = np.empty((len(family), n, signal.dim))
    normed_sums = np.empty((len(family), n))
    for c, (lo, hi) in enumerate(zip(stops - sizes, stops)):
        lattice_sums[c] = lattice_terms[rows[lo:hi]].sum(axis=0)
        normed_sums[c] = normed_terms[rows[lo:hi]].sum(axis=0)
    lattice = norm_eval(lattice_sums ** (1.0 / r), outer)  # (C, n)
    normed = normed_sums ** (1.0 / r)

    sup_lattice = np.maximum(0.0, lattice.max(axis=0))
    sup_normed = np.maximum(0.0, normed.max(axis=0))
    return {
        "candidates": len(family),
        # max of (lattice - normed), relevant when s >= r
        "per_candidate_lattice_minus_normed": max(0.0, float((lattice - normed).max())),
        # max of (normed - lattice), relevant when s <= r
        "per_candidate_normed_minus_lattice": max(0.0, float((normed - lattice).max())),
        "sup_lattice_minus_sup_normed": float((sup_lattice - sup_normed).max()),
        "sup_normed_minus_sup_lattice": float((sup_normed - sup_lattice).max()),
        "scale": float(max(sup_lattice.max(), sup_normed.max())),
    }

"""Partial Fourier integrals, maximal and variational operators."""

import math

import numpy as np
import pytest

from varcarleson.core import (
    FrequencySelection,
    NormedSpace,
    SampledSignal,
    _dft_values,
    _freq_grid,
    _idft_values,
    make_signal,
    norm_eval,
)
from varcarleson import fourier
from varcarleson.fourier import (
    _cutoff_weights,
    carleson_path,
    linearized_vc,
    partial_fourier,
    pointwise_norm_comparison,
    variational_carleson,
)

SPACE1 = NormedSpace(1, 2.0)


def _gaussian(n=256, dx=1 / 16, space=SPACE1):
    return make_signal("gaussian", {}, n=n, dx=dx, space=space)


def _random_band(seed, n=128, dx=1 / 8, space=SPACE1, band=1.5):
    return make_signal("bandlimited-random", {"band": band}, n=n, dx=dx, space=space, seed=seed)


def _transform(signal):
    """Ascending DFT frequencies and coefficients of a signal."""
    return _freq_grid(signal.n, signal.dx), _dft_values(signal.values, signal.x0, signal.dx)


def test_dft_round_trip_and_parseval():
    sig = _random_band(1, space=NormedSpace(3, 2.0))
    freqs, coeffs = _transform(sig)
    back = _idft_values(coeffs, sig.x0, sig.dx)
    assert np.abs(back - sig.values).max() < 1e-10
    lhs = (np.abs(sig.values) ** 2).sum() * sig.dx
    rhs = (np.abs(coeffs) ** 2).sum() * (freqs[1] - freqs[0])
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_dft_requires_power_of_two():
    sig = SampledSignal(0.0, 0.1, np.ones((100, 1)), SPACE1)
    with pytest.raises(ValueError, match="power of two"):
        carleson_path(sig)
    with pytest.raises(ValueError, match="power of two"):
        linearized_vc(sig, FrequencySelection.constant([-1.0, 1.0], sig.n))


def test_dft_matches_direct_sum_oracle():
    # slow quadratic transform, independent of the FFT path
    sig = _random_band(7, n=32, dx=0.25)
    freqs, coeffs = _transform(sig)
    x = sig.grid()
    for k in (0, 5, 17, 31):
        xi = freqs[k]
        direct = sig.dx * (sig.values[:, 0] * np.exp(-2j * np.pi * xi * x)).sum()
        assert coeffs[k, 0] == pytest.approx(direct, abs=1e-12)


def test_partial_fourier_recovers_bandlimited_signal():
    sig = _random_band(3)  # band 1.5, Nyquist 4
    out = partial_fourier(sig, 3.5)
    assert np.abs(out.values - sig.values).max() < 1e-10
    zero = partial_fourier(sig, -3.5)
    assert np.abs(zero.values).max() < 1e-10


def test_partial_fourier_halves_at_central_cutoff():
    sig = _gaussian()
    i0 = int(np.argmin(np.abs(sig.grid())))
    got = partial_fourier(sig, 0.0).values[i0, 0]
    assert got == pytest.approx(sig.values[i0, 0] / 2.0, abs=1e-8)


def test_cutoff_weight_convention_is_symmetric():
    # value at an on-grid cutoff is the mean of the two adjacent off-grid values
    sig = _random_band(9)
    freqs, _ = _transform(sig)
    xi = float(freqs[40])
    h = (freqs[1] - freqs[0]) / 2
    mid = partial_fourier(sig, xi).values
    lo = partial_fourier(sig, xi - h).values
    hi = partial_fourier(sig, xi + h).values
    assert np.abs(mid - 0.5 * (lo + hi)).max() < 1e-12


def test_partial_fourier_clamps_with_warning():
    sig = _gaussian(n=64, dx=1 / 8)
    out = partial_fourier(sig, 100.0)
    assert np.abs(out.values - sig.values).max() < 1e-10


def test_partial_fourier_past_the_band_follows_the_weight_rule():
    # a unit cosine at Nyquist (n = 16, dx = 0.5) lives on the -Nyquist bin alone
    x = np.arange(16) * 0.5
    sig = SampledSignal(0.0, 0.5, np.cos(2.0 * np.pi * x)[:, None], SPACE1)
    for below in (-1.5, -math.inf):
        assert np.abs(partial_fourier(sig, below).values).max() == 0.0
    # at -Nyquist the bin takes half weight
    assert np.abs(partial_fourier(sig, -1.0).values - 0.5 * sig.values).max() < 1e-12
    for above in (1.5, math.inf):
        assert np.abs(partial_fourier(sig, above).values - sig.values).max() < 1e-12
    with pytest.raises(ValueError, match="NaN"):
        partial_fourier(sig, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        carleson_path(sig, [0.0, math.nan])


def test_carleson_path_matches_direct_oracle():
    sig = _random_band(5, n=64, dx=0.25, space=NormedSpace(2, 2.0))
    freqs, coeffs = _transform(sig)
    dxi = freqs[1] - freqs[0]
    grid = np.array([-1.3, -0.25, 0.0, 0.6, 1.9])
    path = carleson_path(sig, grid)
    x = sig.grid()
    tol = 1e-9 * dxi
    for kc, xi in enumerate(grid):
        w = np.where(freqs < xi - tol, 1.0, 0.0)
        w[np.abs(freqs - xi) <= tol] = 0.5
        direct = np.einsum(
            "k,kd,xk->xd",
            w,
            coeffs,
            np.exp(2j * np.pi * np.outer(x, freqs)),
        ) * dxi
        assert np.abs(path[:, kc, :] - direct).max() < 1e-10


def test_max_bounded_by_variation_and_grid_refinement():
    sig = _random_band(13, space=NormedSpace(2, 1.5))
    freqs, _ = _transform(sig)
    cmax = norm_eval(carleson_path(sig), sig.space).max(axis=1)
    for r in (1.0, 2.0, 4.0):
        v = variational_carleson(sig, r)
        assert np.all(cmax <= v + 1e-10)
    coarse = freqs[::4]
    fine = freqs[::2]
    v_coarse = variational_carleson(sig, 2.0, coarse)
    v_fine = variational_carleson(sig, 2.0, fine)
    assert np.all(v_coarse <= v_fine + 1e-12)  # refinement adds candidates


def test_single_frequency_variation_equals_max():
    n, dx = 128, 1 / 8
    x0 = -n * dx / 2
    x = x0 + dx * np.arange(n)
    nu = 1.0  # on the frequency grid for this span
    sig = SampledSignal(x0, dx, np.exp(2j * np.pi * nu * x), SPACE1)
    i0 = int(np.argmin(np.abs(x)))
    cmax = norm_eval(carleson_path(sig), sig.space).max(axis=1)
    for r in (1.0, 1.5, 2.0, 4.0):
        v = variational_carleson(sig, r)
        assert v[i0] == pytest.approx(cmax[i0], abs=1e-12)
        assert v[i0] == pytest.approx(1.0, abs=1e-10)


def test_variational_carleson_homogeneity():
    sig = _random_band(17)
    v1 = variational_carleson(sig, 2.5)
    v2 = variational_carleson(sig.with_values(3.0 * sig.values), 2.5)
    assert np.allclose(v2, 3.0 * v1, rtol=1e-10, atol=1e-12)


def test_linearized_increments_telescope():
    sig = _random_band(21, space=NormedSpace(2, 2.0))
    rng = np.random.default_rng(4)
    rows = np.sort(rng.uniform(-4.0, 4.0, size=(sig.n, 4)), axis=1)
    sel = FrequencySelection(rows)
    seq = linearized_vc(sig, sel)
    assert len(seq) == 3
    total = sum(e.values for e in seq.entries)
    # direct first/last partial integrals with per-row cutoffs
    freqs, coeffs = _transform(sig)
    dxi = freqs[1] - freqs[0]
    x = sig.grid()
    phases = np.exp(2j * np.pi * x[:, None] * freqs[None, :]) * dxi
    tol = 1e-9 * dxi

    def rowwise(cuts):
        diff = freqs[None, :] - cuts[:, None]
        w = np.where(diff < -tol, 1.0, 0.0)
        w[np.abs(diff) <= tol] = 0.5
        return np.einsum("xk,xk,kd->xd", w, phases, coeffs)

    direct = rowwise(rows[:, -1]) - rowwise(rows[:, 0])
    assert np.abs(total - direct).max() < 1e-12


def test_linearized_vc_shape_errors():
    sig = _gaussian(n=64, dx=1 / 8)
    sel = FrequencySelection.constant([-1.0, 1.0], n=32)
    with pytest.raises(ValueError):
        linearized_vc(sig, sel)


def test_linearized_vc_is_linear_in_signal():
    a = _random_band(31, space=NormedSpace(2, 2.0))
    b = _random_band(32, space=NormedSpace(2, 2.0))
    sel = FrequencySelection.constant([-2.0, 0.3, 1.1], a.n)
    combo = a.with_values(2.0 * a.values - 1.5j * b.values)
    lhs = linearized_vc(combo, sel).stack()
    rhs = 2.0 * linearized_vc(a, sel).stack() - 1.5j * linearized_vc(b, sel).stack()
    assert np.abs(lhs - rhs).max() < 1e-12


def _linearized_oracle(signal, selection):
    """Oracle: the per-level route, a fresh transform and phase table per level."""

    def stage(cutoffs):
        freqs, coeffs = _transform(signal)
        x = signal.grid()
        w = _cutoff_weights(freqs, cutoffs)
        phases = np.exp(2j * np.pi * x[:, None] * freqs[None, :]) * float(freqs[1] - freqs[0])
        return np.einsum("xk,xk,kd->xd", w, phases, coeffs, optimize=True)

    stages = [stage(selection.levels[:, j]) for j in range(selection.levels.shape[1])]
    return [stages[j + 1] - stages[j] for j in range(selection.steps)]


def _sweep_case():
    # the ref sweep's shape: constant cutoffs drawn from the frequency grid
    sig = _random_band(71, n=128, dx=0.125, space=NormedSpace(2, 2.0), band=3.2)
    freqs, _ = _transform(sig)
    idx = np.sort(np.random.default_rng(1).choice(freqs.size, size=8, replace=False))
    return sig, FrequencySelection.constant(freqs[idx], sig.n)


def _dual_case():
    # the dual representation's shape: one increment between two cutoffs
    sig = _random_band(72, n=256, dx=0.0625, band=0.9)
    return sig, FrequencySelection.constant([-0.3, 1.7], sig.n)


def _per_sample_case():
    # per-row cutoffs, a third of them exactly on grid frequencies (half weight)
    sig = _random_band(73, space=NormedSpace(2, 2.0))
    freqs, _ = _transform(sig)
    rng = np.random.default_rng(2)
    rows = rng.uniform(-4.0, 4.0, size=(sig.n, 5))
    on_grid = rng.random(rows.shape) < 1 / 3
    rows[on_grid] = rng.choice(freqs, size=int(on_grid.sum()))
    return sig, FrequencySelection(np.sort(rows, axis=1))


@pytest.mark.parametrize(
    "case", [_sweep_case, _dual_case, _per_sample_case], ids=["sweep", "dual", "per_sample"]
)
def test_linearized_vc_matches_per_level_oracle(case):
    sig, sel = case()
    seq = linearized_vc(sig, sel)
    want = _linearized_oracle(sig, sel)
    assert len(seq) == len(want)
    for entry, expected in zip(seq.entries, want):
        assert np.array_equal(entry.values, expected)


def test_linearized_vc_makes_one_transform(monkeypatch):
    sig, sel = _sweep_case()
    calls = []

    def counting_dft(values, x0, dx):
        calls.append(values)
        return _dft_values(values, x0, dx)

    monkeypatch.setattr(fourier, "_dft_values", counting_dft)
    linearized_vc(sig, sel)
    assert len(calls) == 1


def test_constant_extreme_selection_returns_signal():
    # cutoffs far beyond the band: the single increment is f itself
    sig = _random_band(41)
    sel = FrequencySelection.constant([-100.0, 100.0], sig.n)
    seq = linearized_vc(sig, sel)
    assert np.abs(seq[0].values - sig.values).max() < 1e-10


def test_pointwise_norm_comparison_directions():
    space = NormedSpace(4, 2.0)
    sig = _random_band(61, space=space)
    r = 2.0
    scaleless = 1e-10
    for s, direction in ((4.0, "le"), (1.5, "ge"), (2.0, "eq")):
        rep = pointwise_norm_comparison(sig, r, s, seed=5)
        tol = scaleless * max(1.0, rep["scale"])
        if direction in ("le", "eq"):
            assert rep["per_candidate_lattice_minus_normed"] <= tol
            assert rep["sup_lattice_minus_sup_normed"] <= tol
        if direction in ("ge", "eq"):
            assert rep["per_candidate_normed_minus_lattice"] <= tol
            assert rep["sup_normed_minus_sup_lattice"] <= tol


def test_pointwise_norm_comparison_rejects_negative_candidate_count():
    sig = _random_band(61, space=NormedSpace(2, 2.0))
    with pytest.raises(ValueError, match="candidate"):
        pointwise_norm_comparison(sig, 2.0, 2.0, candidates=-1)
    assert pointwise_norm_comparison(sig, 2.0, 2.0, candidates=0)["candidates"] == 1


def _ptnm_oracle(signal, r, s, candidates, seed):
    """Oracle: the per-candidate loop, increments rebuilt for every candidate."""
    path = carleson_path(signal)
    n, K, _ = path.shape
    rng = np.random.default_rng(seed)
    family = [np.arange(K)] + fourier._random_monotone_subsets(rng, K, candidates)
    outer = NormedSpace(signal.dim, s)
    sup_lattice = np.zeros(n)
    sup_normed = np.zeros(n)
    worst_le = worst_ge = 0.0
    for idx in family:
        delta = path[:, idx[1:], :] - path[:, idx[:-1], :]  # (n, L, d)
        lattice = norm_eval(((np.abs(delta) ** r).sum(axis=1)) ** (1.0 / r), outer)
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


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_pointwise_norm_comparison_matches_per_candidate_oracle(dim):
    # the ptnm shape (n 64, dx 0.25, 64 cutoffs); s on both sides of r and equal to it
    for seed in range(4):
        sig = _random_band(80 + seed, n=64, dx=0.25, space=NormedSpace(dim, 2.0), band=0.9)
        for r in (1.5, 2.5, 4.0):
            for s in (1.0, 1.5, 2.5, 4.0, math.inf):
                fast = pointwise_norm_comparison(sig, r, s, candidates=40, seed=seed)
                assert fast == _ptnm_oracle(sig, r, s, 40, seed)


@pytest.mark.parametrize(
    "n, dx, hi, points", [(128, 0.125, 3.5, 12), (256, 0.0625, 6.0, 25), (256, 0.0625, 6.0, 49)]
)
def test_carleson_path_suffixes_are_slices(n, dx, hi, points):
    # vc converge takes every suffix tail from one path (the converge grids of
    # tiny, ref and fine); the slices must equal the suffix grids' paths exactly
    sig = _random_band(91, n=n, dx=dx, space=NormedSpace(2, 2.0), band=0.5)
    nyquist = 0.5 / dx
    grid = np.append(np.linspace(0.25, hi, points), nyquist)
    path = carleson_path(sig, grid)
    for k in range(points):
        assert np.array_equal(path[:, k:], carleson_path(sig, grid[k:]))


def test_variation_domain_error():
    sig = _gaussian(n=64, dx=1 / 8)
    with pytest.raises(ValueError):
        variational_carleson(sig, 0.5)

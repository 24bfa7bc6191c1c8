"""Partial Fourier integrals, maximal and variational operators."""

import math

import numpy as np
import pytest

from varcarleson.core import (
    FrequencySelection,
    NormedSpace,
    SampledSignal,
    _idft_values,
    make_signal,
    norm_eval,
)
from varcarleson.fourier import (
    carleson_path,
    dft,
    linearized_vc,
    partial_fourier,
    pointwise_norm_comparison,
    pointwise_variational,
    variational_carleson,
)

SPACE1 = NormedSpace(1, 2.0)


def _gaussian(n=256, dx=1 / 16, space=SPACE1):
    return make_signal("gaussian", {}, n=n, dx=dx, space=space)


def _random_band(seed, n=128, dx=1 / 8, space=SPACE1, band=1.5):
    return make_signal("bandlimited-random", {"band": band}, n=n, dx=dx, space=space, seed=seed)


def test_dft_round_trip_and_parseval():
    sig = _random_band(1, space=NormedSpace(3, 2.0))
    spec = dft(sig)
    back = _idft_values(spec.coefficients, spec.x0, spec.dx)
    assert np.abs(back - sig.values).max() < 1e-10
    lhs = (np.abs(sig.values) ** 2).sum() * sig.dx
    rhs = (np.abs(spec.coefficients) ** 2).sum() * spec.dxi
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_dft_requires_power_of_two():
    sig = SampledSignal(0.0, 0.1, np.ones((100, 1)), SPACE1)
    with pytest.raises(ValueError):
        dft(sig)


def test_dft_matches_direct_sum_oracle():
    # slow quadratic transform, independent of the FFT path
    sig = _random_band(7, n=32, dx=0.25)
    spec = dft(sig)
    x = sig.grid()
    for k in (0, 5, 17, 31):
        xi = spec.frequencies[k]
        direct = sig.dx * (sig.values[:, 0] * np.exp(-2j * np.pi * xi * x)).sum()
        assert spec.coefficients[k, 0] == pytest.approx(direct, abs=1e-12)


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
    spec = dft(sig)
    xi = float(spec.frequencies[40])
    h = spec.dxi / 2
    mid = partial_fourier(sig, xi).values
    lo = partial_fourier(sig, xi - h).values
    hi = partial_fourier(sig, xi + h).values
    assert np.abs(mid - 0.5 * (lo + hi)).max() < 1e-12


def test_partial_fourier_clamps_with_warning():
    sig = _gaussian(n=64, dx=1 / 8)
    with pytest.warns(UserWarning):
        out = partial_fourier(sig, 100.0)
    assert np.abs(out.values - sig.values).max() < 1e-10


def test_carleson_path_matches_direct_oracle():
    sig = _random_band(5, n=64, dx=0.25, space=NormedSpace(2, 2.0))
    spec = dft(sig)
    grid = np.array([-1.3, -0.25, 0.0, 0.6, 1.9])
    path = carleson_path(sig, grid)
    x = sig.grid()
    tol = 1e-9 * spec.dxi
    for kc, xi in enumerate(grid):
        w = np.where(spec.frequencies < xi - tol, 1.0, 0.0)
        w[np.abs(spec.frequencies - xi) <= tol] = 0.5
        direct = np.einsum(
            "k,kd,xk->xd",
            w,
            spec.coefficients,
            np.exp(2j * np.pi * np.outer(x, spec.frequencies)),
        ) * spec.dxi
        assert np.abs(path[:, kc, :] - direct).max() < 1e-10


def test_max_bounded_by_variation_and_grid_refinement():
    sig = _random_band(13, space=NormedSpace(2, 1.5))
    spec = dft(sig)
    cmax = norm_eval(carleson_path(sig), sig.space).max(axis=1)
    for r in (1.0, 2.0, 4.0):
        v = variational_carleson(sig, r)
        assert np.all(cmax <= v + 1e-10)
    coarse = spec.frequencies[::4]
    fine = spec.frequencies[::2]
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
    spec = dft(sig)
    x = sig.grid()
    phases = np.exp(2j * np.pi * x[:, None] * spec.frequencies[None, :]) * spec.dxi
    tol = 1e-9 * spec.dxi

    def rowwise(cuts):
        diff = spec.frequencies[None, :] - cuts[:, None]
        w = np.where(diff < -tol, 1.0, 0.0)
        w[np.abs(diff) <= tol] = 0.5
        return np.einsum("xk,xk,kd->xd", w, phases, spec.coefficients)

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


def test_constant_extreme_selection_returns_signal():
    # cutoffs far beyond the band: the single increment is f itself
    sig = _random_band(41)
    sel = FrequencySelection.constant([-100.0, 100.0], sig.n)
    seq = linearized_vc(sig, sel)
    assert np.abs(seq[0].values - sig.values).max() < 1e-10


def test_pointwise_variation_coordinatewise():
    space = NormedSpace(3, 2.0)
    sig = _random_band(51, space=space)
    r = 2.5
    pv = pointwise_variational(sig, r)
    assert pv.shape == (sig.n, 3)
    # each coordinate agrees with the scalar operator on that coordinate alone
    for w in range(3):
        coord = SampledSignal(sig.x0, sig.dx, sig.values[:, w], SPACE1)
        sv = variational_carleson(coord, r)
        assert np.array_equal(pv[:, w], sv)


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


def test_variation_domain_error():
    sig = _gaussian(n=64, dx=1 / 8)
    with pytest.raises(ValueError):
        variational_carleson(sig, 0.5)
    with pytest.raises(ValueError):
        pointwise_variational(sig, 0.0)

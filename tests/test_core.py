"""Spaces, pairings, and signal generators."""

import math

import numpy as np
import pytest

from varcarleson.core import (
    ConfigurationError,
    FrequencySelection,
    NormedSpace,
    SampledSignal,
    SequenceSignal,
    _dft_values,
    _freq_grid,
    dual_exponent,
    duality_pairing,
    make_signal,
    norm_eval,
)

EXPONENTS = [1.0, 1.5, 2.0, 3.0, math.inf]


def _random_vectors(rng, count, dim):
    return rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))


def test_norm_hand_values():
    space = NormedSpace(2, 2.0)
    assert norm_eval([3.0, 4.0], space) == pytest.approx(5.0, abs=1e-15)
    assert norm_eval([3.0, 4.0], NormedSpace(2, 1.0)) == pytest.approx(7.0, abs=1e-15)
    assert norm_eval([3.0, 4.0], NormedSpace(2, math.inf)) == pytest.approx(4.0, abs=1e-15)
    assert norm_eval([1j, 0.0], space) == pytest.approx(1.0, abs=1e-15)


def test_norm_triangle_inequality_random_pairs():
    rng = np.random.default_rng(11)
    for p in EXPONENTS:
        space = NormedSpace(5, p)
        v = _random_vectors(rng, 200, 5)
        w = _random_vectors(rng, 200, 5)
        lhs = norm_eval(v + w, space)
        rhs = norm_eval(v, space) + norm_eval(w, space)
        assert np.all(lhs <= rhs + 1e-12)


def test_norm_homogeneity_and_zero():
    rng = np.random.default_rng(7)
    for p in EXPONENTS:
        space = NormedSpace(4, p)
        v = _random_vectors(rng, 64, 4)
        scale = 2.75 - 1.5j
        assert np.allclose(norm_eval(scale * v, space), abs(scale) * norm_eval(v, space), atol=1e-12)
    assert norm_eval(np.zeros(4), NormedSpace(4, 1.5)) == 0.0


def _norm_oracle(v, p):
    """Oracle: the norm as numpy's reductions over the last axis."""
    mags = np.abs(np.asarray(v, dtype=complex))
    if math.isinf(p):
        return mags.max(axis=-1)
    if p == 1.0:
        return mags.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((mags * mags).sum(axis=-1))
    top = mags.max(axis=-1, keepdims=True)
    safe = np.where(top > 0.0, top, 1.0)
    return top[..., 0] * ((mags / safe) ** p).sum(axis=-1) ** (1.0 / p)


def _norm_inputs(rng, dim):
    base = rng.standard_normal((6, 40, 2 * dim)) + 1j * rng.standard_normal((6, 40, 2 * dim))
    base[0, :5] = 0.0  # zero vectors take the top == 0 branch
    return {
        "contiguous": np.ascontiguousarray(base[..., :dim]),
        "strided": base[:, ::3, ::2],  # a non-contiguous view
        "transposed": np.ascontiguousarray(base[..., :dim].transpose(1, 0, 2)).transpose(1, 0, 2),
        "vector": base[1, 7, :dim],
    }


@pytest.mark.parametrize("dim", range(1, 8))
def test_norm_fold_equals_numpy_reduction_exactly(dim):
    # numpy sums fewer than 8 terms left to right, so the fold is bit-identical
    rng = np.random.default_rng(100 + dim)
    for p in EXPONENTS + [4.0]:
        space = NormedSpace(dim, p)
        for name, v in _norm_inputs(rng, dim).items():
            got, want = norm_eval(v, space), _norm_oracle(v, p)
            assert np.array_equal(got, want), (p, name)


@pytest.mark.parametrize("dim", [8, 9, 16, 33])
def test_norm_fold_agrees_with_pairwise_sum_for_long_vectors(dim):
    # numpy's pairwise sum groups 8 or more terms differently
    rng = np.random.default_rng(200 + dim)
    tol = 4 * dim * np.finfo(float).eps
    for p in EXPONENTS + [4.0]:
        space = NormedSpace(dim, p)
        for name, v in _norm_inputs(rng, dim).items():
            got, want = norm_eval(v, space), _norm_oracle(v, p)
            assert np.all(np.abs(got - want) <= tol * want), (p, name)


def test_holder_pairing_random_pairs():
    rng = np.random.default_rng(23)
    for p in EXPONENTS:
        space = NormedSpace(6, p)
        dual = NormedSpace(6, dual_exponent(p))
        v = _random_vectors(rng, 200, 6)
        w = _random_vectors(rng, 200, 6)
        lhs = np.abs(duality_pairing(v, w))
        rhs = norm_eval(v, space) * norm_eval(w, dual)
        assert np.all(lhs <= rhs + 1e-12)


def test_dual_exponents():
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == pytest.approx(2.0)
    assert dual_exponent(1.5) == pytest.approx(3.0)
    assert dual_exponent(4.0) == pytest.approx(4.0 / 3.0)
    # exponents below 1 (admissibility reaches r/(r0-1) = 0.75) have dual inf
    assert dual_exponent(0.75) == math.inf


def test_pairing_is_sesquilinear_sum():
    v = np.array([1.0 + 2.0j, -1.0j])
    w = np.array([2.0, 3.0 + 1.0j])
    expected = (1 + 2j) * 2 + (-1j) * (3 - 1j)
    assert duality_pairing(v, w) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(ValueError):
        duality_pairing(v, np.ones(3))


def test_space_validation():
    with pytest.raises(ConfigurationError):
        NormedSpace(0, 2.0)
    with pytest.raises(ConfigurationError):
        NormedSpace(2, 0.5)
    with pytest.raises(ValueError):
        norm_eval([np.nan, 0.0], NormedSpace(2, 2.0))


def test_signal_validation():
    space = NormedSpace(2, 2.0)
    with pytest.raises(ConfigurationError):
        SampledSignal(0.0, -1.0, np.zeros((4, 2)), space)
    with pytest.raises(ConfigurationError):
        SampledSignal(0.0, 1.0, np.zeros((1, 2)), space)
    with pytest.raises(ConfigurationError):
        SampledSignal(0.0, 1.0, np.zeros((4, 3)), space)
    bad = np.zeros((4, 2), dtype=complex)
    bad[1, 1] = np.inf
    with pytest.raises(ConfigurationError):
        SampledSignal(0.0, 1.0, bad, space)
    sig = SampledSignal(-2.0, 0.5, np.ones((8, 2)), space)
    assert sig.n == 8 and sig.n * sig.dx == pytest.approx(4.0)
    assert sig.grid()[0] == -2.0
    with pytest.raises(ValueError):
        sig.values[0, 0] = 5.0  # frozen storage


def test_sequence_signal_grid_agreement():
    space = NormedSpace(1, 2.0)
    a = SampledSignal(0.0, 1.0, np.ones((4, 1)), space)
    b = SampledSignal(0.0, 1.0, 2 * np.ones((4, 1)), space)
    seq = SequenceSignal((a, b))
    assert len(seq) == 2 and seq.stack().shape == (2, 4, 1)
    shifted = SampledSignal(0.5, 1.0, np.ones((4, 1)), space)
    with pytest.raises(ConfigurationError):
        SequenceSignal((a, shifted))


def test_frequency_selection_rejects_decreasing():
    FrequencySelection(np.array([[0.0, 0.0, 1.0], [-1.0, 2.0, 2.0]]))
    with pytest.raises(ValueError):
        FrequencySelection(np.array([[0.0, -0.5, 1.0]]))
    sel = FrequencySelection.constant([-1.0, 0.0, 3.5], n=5)
    assert sel.n == 5 and sel.steps == 2


def test_gaussian_generator_contract():
    space = NormedSpace(3, 2.0)
    sig = make_signal("gaussian", {"direction": [0.0, 1.0, 0.0]}, n=256, dx=1 / 16, space=space)
    i0 = int(np.argmin(np.abs(sig.grid())))
    assert sig.grid()[i0] == 0.0
    assert sig.values[i0, 1] == pytest.approx(1.0, abs=1e-15)
    assert sig.values[i0, 0] == 0.0
    # real and even on the symmetric part of the grid
    assert np.abs(sig.values.imag).max() == 0.0
    assert sig.values[i0 - 5, 1] == pytest.approx(sig.values[i0 + 5, 1], abs=1e-15)
    # too wide a profile for the grid must fail the edge-decay contract
    with pytest.raises(ConfigurationError):
        make_signal("gaussian", {"sigma": 8.0}, n=64, dx=1 / 16, space=space)


def test_bandlimited_random_support_and_determinism():
    space = NormedSpace(2, 2.0)
    a = make_signal("bandlimited-random", {"band": 1.5}, n=128, dx=1 / 8, space=space, seed=42)
    b = make_signal("bandlimited-random", {"band": 1.5}, n=128, dx=1 / 8, space=space, seed=42)
    assert np.array_equal(a.values, b.values)
    c = make_signal("bandlimited-random", {"band": 1.5}, n=128, dx=1 / 8, space=space, seed=43)
    assert not np.array_equal(a.values, c.values)
    coeffs = _dft_values(a.values, a.x0, a.dx)
    outside = np.abs(_freq_grid(a.n, a.dx)) > 1.5
    assert np.abs(coeffs[outside]).max() < 1e-13
    with pytest.raises(ConfigurationError):
        make_signal("bandlimited-random", {"band": 1.5}, n=128, dx=1 / 8, space=space)
    with pytest.raises(ConfigurationError):
        make_signal("bandlimited-random", {"band": 10.0}, n=128, dx=1 / 8, space=space, seed=1)


def test_make_signal_rejects_unknown():
    for kind in ("sawtooth", "chirp"):
        with pytest.raises(ConfigurationError):
            make_signal(kind, {}, n=64, dx=0.25)
    with pytest.raises(ConfigurationError):
        make_signal("gaussian", {"wobble": 3}, n=64, dx=0.25)

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


def test_holder_pairing_random_pairs():
    rng = np.random.default_rng(23)
    for p in EXPONENTS:
        space = NormedSpace(6, p)
        dual = space.dual()
        v = _random_vectors(rng, 200, 6)
        w = _random_vectors(rng, 200, 6)
        lhs = np.abs(duality_pairing(v, w))
        rhs = norm_eval(v, space) * norm_eval(w, dual)
        assert np.all(lhs <= rhs + 1e-12)


def test_dual_exponents():
    assert NormedSpace(1, 1.0).dual_exponent == math.inf
    assert NormedSpace(1, math.inf).dual_exponent == 1.0
    assert NormedSpace(1, 2.0).dual_exponent == pytest.approx(2.0)
    assert NormedSpace(1, 1.5).dual_exponent == pytest.approx(3.0)
    assert NormedSpace(1, 4.0).dual_exponent == pytest.approx(4.0 / 3.0)
    # exponents below 1 (admissibility reaches r/(r0-1) = 0.75) have dual inf
    assert dual_exponent(0.75) == math.inf
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(1.5) == NormedSpace(1, 1.5).dual_exponent


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
    assert sig.n == 8 and sig.span == pytest.approx(4.0)
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
    from varcarleson.fourier import dft

    spec = dft(a)
    outside = np.abs(spec.frequencies) > 1.5
    assert np.abs(spec.coefficients[outside]).max() < 1e-13
    with pytest.raises(ConfigurationError):
        make_signal("bandlimited-random", {"band": 1.5}, n=128, dx=1 / 8, space=space)
    with pytest.raises(ConfigurationError):
        make_signal("bandlimited-random", {"band": 10.0}, n=128, dx=1 / 8, space=space, seed=1)


def test_chirp_and_bump_generators():
    sig = make_signal("chirp", {"freq": 1.0, "rate": 0.5}, n=256, dx=1 / 16)
    assert np.abs(sig.values[0]).max() < 1e-12
    with pytest.raises(ConfigurationError):
        make_signal("chirp", {"freq": 7.5}, n=256, dx=1 / 16)
    bump = make_signal("modulated-bump", {"radius": 2.0, "freq": 1.0}, n=256, dx=1 / 16)
    x = bump.grid()
    assert np.abs(bump.values[np.abs(x) >= 2.0]).max() == 0.0
    with pytest.raises(ConfigurationError):
        make_signal("modulated-bump", {"radius": 100.0}, n=256, dx=1 / 16)


def test_make_signal_rejects_unknown():
    with pytest.raises(ConfigurationError):
        make_signal("sawtooth", {}, n=64, dx=0.25)
    with pytest.raises(ConfigurationError):
        make_signal("gaussian", {"wobble": 3}, n=64, dx=0.25)

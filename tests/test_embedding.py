import json
import math

import numpy as np
import pytest

from varcarleson.cli import load_calibration
from varcarleson.core import (
    ConfigurationError,
    FrequencySelection,
    NormedSpace,
    SampledSignal,
    SequenceSignal,
    _dft_values,
    _freq_grid,
    duality_pairing,
    make_signal,
    norm_eval,
)
from varcarleson.embedding import (
    EmbeddingConfig,
    analyzing_window,
    check_domination,
    check_dual_representation,
    domination_dictionaries,
    dump_field,
    embed_majorant,
    embed_packet_sequence,
    embed_packets,
    embed_signal,
    load_field,
    theta_windows,
)
from varcarleson.fourier import linearized_vc
from varcarleson.outersize import size_holder_check
from varcarleson.tfs import StripDictionary, TFSGrid, TreeDictionary, tree_membership
from varcarleson.wavepacket import BumpSpec, assemble_m, packet_hat

CALIBRATION = load_calibration()

SPACE = NormedSpace(2, 2.0)


@pytest.fixture(scope="module")
def table():
    # wider bumps than the wavepacket default: eta windows stay resolvable
    # on coarse modulation grids
    return assemble_m(BumpSpec(b=0.125, eps=1.0 / 128.0))


@pytest.fixture(scope="module")
def config(table):
    return EmbeddingConfig(table)


@pytest.fixture(scope="module")
def narrow_table():
    return assemble_m(BumpSpec())


def signal_grid_tfs(signal, eta_range, eta_steps, t_min, t_max, ratio=2.0):
    stop = signal.x0 + signal.dx * (signal.n - 1)
    return TFSGrid.build(eta_range, eta_steps, (signal.x0, stop), signal.n, t_min, t_max, ratio)


def test_config_validation(table):
    with pytest.raises(ConfigurationError):
        EmbeddingConfig(table, kernel_power=1)
    with pytest.raises(ConfigurationError):
        EmbeddingConfig(table, r_prime=0.5)
    assert math.isinf(EmbeddingConfig(table, r_prime=math.inf).r_prime)


def test_theta_windows_mirror(table):
    plus, plus_in = theta_windows(table, +1)
    minus, minus_in = theta_windows(table, -1)
    assert minus == (-plus[1], -plus[0])
    assert minus_in == (-plus_in[1], -plus_in[0])
    assert plus_in[1] == 1.0 - table.spec.eps
    with pytest.raises(ValueError):
        theta_windows(table, 0)


def test_analyzing_window_bands(config):
    b = config.table.spec.b
    zeta = np.array([0.0, 0.25 * b, 0.5 * b, 0.55 * b, 0.7 * b, 0.75 * b, b, 2.0])
    w = analyzing_window(config, zeta)
    assert np.all(w[:3] == 1.0)  # plateau including its edge
    assert np.all((w[3:5] > 0.0) & (w[3:5] < 1.0))
    assert np.all(w[5:] == 0.0)  # support edge and beyond
    # even and nonincreasing in |zeta|
    assert np.array_equal(analyzing_window(config, -zeta), w)
    ladder = analyzing_window(config, np.linspace(0.0, b, 200))
    assert np.all(np.diff(ladder) <= 1e-12)


def test_embed_undersampled_grid_raises(config, table):
    f = make_signal("gaussian", {"sigma": 0.4}, n=256, dx=1.0 / 16.0, space=SPACE)
    bad = signal_grid_tfs(f, (-1.0, 1.0), 3, 1.5, 3.0)  # t_max 3 > b/dxi = 2
    with pytest.raises(ConfigurationError):
        embed_signal(f, bad, config)
    with pytest.raises(ConfigurationError):
        embed_packets(f, table, (-2.5, 2.5), bad, sign=+1)
    with pytest.raises(ValueError):
        good = signal_grid_tfs(f, (-1.0, 1.0), 3, 0.4, 0.9)
        embed_packets(f, table, (-2.5, 2.5), good, method="fancy")


def test_embed_signal_parseval_on_plateau(config):
    f = make_signal("bandlimited-random", {"band": 0.2}, n=256, dx=1.0 / 16.0,
                    space=SPACE, seed=11)
    grid = signal_grid_tfs(f, (-1.0, 1.0), 9, 0.1, 0.3)
    e = embed_signal(f, grid, config)
    norm2 = float(np.sum(np.abs(f.values) ** 2) * f.dx)
    # window == 1 on the whole band when t * (band + |eta|) <= b/2
    for k in range(grid.t.size):
        pair = complex(duality_pairing(e.values[4, :, k, :], f.values).sum() * f.dx)
        assert abs(pair - norm2) <= 1e-12 * norm2
    off = complex(duality_pairing(e.values[0, :, 0, :], f.values).sum() * f.dx)
    assert abs(off) < 0.5 * norm2


def test_embed_signal_modulation_covariance(config):
    f = make_signal("bandlimited-random", {"band": 0.2}, n=256, dx=1.0 / 16.0,
                    space=SPACE, seed=5)
    grid = signal_grid_tfs(f, (-1.0, 1.0), 9, 0.1, 0.3)
    e = embed_signal(f, grid, config)
    xi0 = 0.25  # on the frequency grid and a multiple of the eta spacing
    shifted = f.with_values(f.values * np.exp(2j * np.pi * xi0 * f.grid())[:, None])
    e_shift = embed_signal(shifted, grid, config)
    k = int(round(xi0 / grid.d_eta))
    phase = np.exp(2j * np.pi * xi0 * grid.y)[None, :, None, None]
    lhs = e_shift.values[k:]
    rhs = (phase * e.values)[: grid.eta.size - k]
    scale = np.abs(e.values).max()
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_embed_signal_commutes_with_y_subsampling(config):
    f = make_signal("bandlimited-random", {"band": 0.3}, n=256, dx=1.0 / 16.0,
                    space=SPACE, seed=2)
    fast_grid = signal_grid_tfs(f, (-0.5, 0.5), 5, 0.1, 0.3)
    stride = 8
    sub = f.grid()[::stride]
    slow_grid = TFSGrid.build((-0.5, 0.5), 5, (sub[0], sub[-1]), sub.size, 0.1, 0.3, 2.0)
    e_fast = embed_signal(f, fast_grid, config)
    e_slow = embed_signal(f, slow_grid, config)
    scale = np.abs(e_fast.values).max()
    assert np.abs(e_slow.values - e_fast.values[:, ::stride]).max() <= 1e-10 * scale


def test_embed_packets_direct_route_matches_spectral(narrow_table):
    # wide span and small scale keep the continuum kernel free of wraparound
    # a Gaussian chirp sweeping up from frequency 50
    g = make_signal("gaussian", {"sigma": 3.0, "direction": [1.0, 0.4j]}, n=8192,
                    dx=1.0 / 128.0, space=SPACE)
    x = g.grid()
    f = g.with_values(g.values * np.exp(2j * np.pi * (50.0 * x + 0.05 * x * x))[:, None])
    grid = TFSGrid.build((50.05, 50.15), 2, (-2.0, 2.0), 5, 0.02, 0.05, 2.0)
    a_spec = embed_packets(f, narrow_table, (0.0, math.inf), grid, sign=+1)
    a_dir = embed_packets(f, narrow_table, (0.0, math.inf), grid, sign=+1, method="direct")
    scale = np.abs(a_spec.values).max()
    assert scale > 0.0
    assert np.abs(a_spec.values - a_dir.values).max() <= 1e-8 * scale
    # the ridge of the larger scale sits far from these modulations: both zero
    assert np.abs(a_spec.values[:, :, 1, :]).max() == 0.0
    assert np.abs(a_dir.values[:, :, 1, :]).max() == 0.0

    mirror = TFSGrid.build((-50.15, -50.05), 2, (-2.0, 2.0), 5, 0.02, 0.05, 2.0)
    m_spec = embed_packets(f, narrow_table, (-math.inf, 0.0), mirror, sign=-1)
    m_dir = embed_packets(f, narrow_table, (-math.inf, 0.0), mirror, sign=-1, method="direct")
    m_scale = max(np.abs(m_spec.values).max(), scale)
    assert np.abs(m_spec.values - m_dir.values).max() <= 1e-8 * m_scale


def test_embed_packets_vanish_when_window_empty(config, table):
    # bounded-interval windows need c_plus - c_minus > 2 (1 - eps) / t
    f = make_signal("bandlimited-random", {"band": 0.9}, n=256, dx=1.0 / 16.0,
                    space=SPACE, seed=9)
    grid = signal_grid_tfs(f, (-2.0, 2.0), 17, 0.2, 1.7)  # scales 0.2 ... 1.6
    for sign in (+1, -1):
        a = embed_packets(f, table, (-2.5, 2.5), grid, sign=sign)
        assert np.abs(a.values[:, :, 0, :]).max() == 0.0  # t = 0.2 < 2(1-eps)/5
        assert np.abs(a.values[:, :, 1:, :]).max() > 0.0


def test_embed_packet_sequence_constant_sums_intervals(config, table):
    f = make_signal("bandlimited-random", {"band": 0.9}, n=256, dx=1.0 / 16.0,
                    space=SPACE, seed=13)
    g = make_signal("bandlimited-random", {"band": 0.9}, n=256, dx=1.0 / 16.0,
                    space=SPACE, seed=14)
    grid = signal_grid_tfs(f, (-2.0, 2.0), 9, 0.5, 1.7)
    selection = FrequencySelection.constant([-2.5, 0.0, 2.5], f.n)
    combined = embed_packet_sequence(SequenceSignal((f, g)), table, selection, grid)
    want = (embed_packets(f, table, (-2.5, 0.0), grid).values
            + embed_packets(g, table, (0.0, 2.5), grid).values)
    assert np.abs(combined.values - want).max() <= 1e-13 * np.abs(want).max()

    # an empty interval contributes nothing instead of failing
    flat = FrequencySelection.constant([-2.5, -2.5], f.n)
    silent = embed_packet_sequence(SequenceSignal((f,)), table, flat, grid)
    assert np.abs(silent.values).max() == 0.0


def test_embed_packet_sequence_per_sample_matches_split(config, table):
    f = make_signal("bandlimited-random", {"band": 0.9}, n=128, dx=1.0 / 8.0,
                    space=SPACE, seed=15)
    grid = signal_grid_tfs(f, (-2.0, 2.0), 9, 0.5, 1.7)
    half = np.arange(f.n) < f.n // 2
    levels = np.where(half[:, None], [-2.5, 2.5], [-2.0, 3.0])
    selection = FrequencySelection(levels)
    got = embed_packet_sequence(SequenceSignal((f,)), table, selection, grid,
                                method="direct")
    # each cutoff group equals the embedding of the signal zeroed elsewhere
    want = np.zeros_like(got.values)
    for rows, interval in ((half, (-2.5, 2.5)), (~half, (-2.0, 3.0))):
        part = f.with_values(np.where(rows[:, None], f.values, 0.0))
        want += embed_packets(part, table, interval, grid, method="direct").values
    assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()

    with pytest.raises(ConfigurationError):
        embed_packet_sequence(SequenceSignal((f,)), table, selection, grid)
    with pytest.raises(ValueError):
        embed_packet_sequence(SequenceSignal((f,)), table,
                              FrequencySelection.constant([0.0, 1.0], f.n + 1), grid)
    with pytest.raises(ValueError):
        embed_packet_sequence(SequenceSignal((f, f)), table,
                              FrequencySelection.constant([0.0, 1.0], f.n), grid)


def test_embed_majorant_kernel_mass(config):
    f = make_signal("gaussian", {"sigma": 0.4, "direction": [1.0, -0.3]},
                    n=256, dx=1.0 / 16.0, space=SPACE)
    increments = linearized_vc(f, FrequencySelection.constant([-20.0, 20.0], f.n))
    anchors = np.zeros((f.n, 1))
    wide = TFSGrid.build((0.0, 0.1), 2, (-40.0, 40.0), 1601, 0.5, 0.6, 2.0)
    m = embed_majorant(increments, anchors, wide, (-0.25, 1.125), config)
    assert m.space.dim == 1
    assert np.abs(m.values.imag).max() == 0.0
    assert m.values.real.min() >= 0.0
    n_pow = config.kernel_power
    mass = math.sqrt(math.pi) * math.gamma((n_pow - 1) / 2.0) / math.gamma(n_pow / 2.0)
    want = mass * float(norm_eval(increments[0].values, SPACE).sum() * f.dx)
    for i, k in ((0, 0), (1, 0), (0, 1)):
        got = float(m.values[i, :, k, 0].real.sum() * wide.d_y)
        assert got == pytest.approx(want, rel=1e-10)


def test_embed_majorant_window_gating_and_sup(config):
    f = make_signal("gaussian", {"sigma": 0.5, "direction": [0.6, 0.8]},
                    n=64, dx=1.0 / 4.0, space=SPACE)
    increments = linearized_vc(f, FrequencySelection.constant([-1.0, 0.0, 1.0], f.n))
    grid = TFSGrid.build((0.0, 1.0), 3, (-4.0, 4.0), 9, 0.5, 1.1, 2.0)
    # anchors far outside the angular window: the field vanishes identically
    silent = embed_majorant(increments, np.full((f.n, 2), 50.0), grid,
                            (-0.25, 1.125), config)
    assert np.abs(silent.values).max() == 0.0

    # sup branch at r' = inf: one active anchor per sample reproduces the
    # kernel smear of the larger increment norm
    sup_cfg = EmbeddingConfig(config.table, r_prime=math.inf)
    anchors = np.zeros((f.n, 2))
    m = embed_majorant(increments, anchors, grid, (-0.25, 1.125), sup_cfg)
    norms = np.maximum(norm_eval(increments[0].values, SPACE),
                       norm_eval(increments[1].values, SPACE))
    t = grid.t[0]
    u = (f.grid()[None, :] - grid.y[:, None]) / t
    kernel = (1.0 + u * u) ** (-0.5 * config.kernel_power) / t
    want = kernel @ norms * f.dx
    assert np.abs(m.values[0, :, 0, 0] - want).max() <= 1e-12 * want.max()

    with pytest.raises(ValueError):
        embed_majorant(increments, np.zeros((f.n, 3)), grid, (-0.25, 1.125), config)
    with pytest.raises(ConfigurationError):
        embed_majorant(increments, anchors, grid, (0.5, 0.5), config)


def test_embed_majorant_lorentzian_value(config):
    # unit-norm entry, anchors pinned inside the window: the field value is
    # the plain kernel integral, which for power 2 is arctan mass pi
    n, dx = 1 << 17, 1.0 / 32.0
    ones = SampledSignal(-0.5 * n * dx, dx, np.ones((n, 1), dtype=complex),
                         NormedSpace(1, 2.0))
    grid = TFSGrid(np.array([0.0, 0.05]), np.array([0.0, 1.0]), np.array([0.5, 1.0]))
    soft = EmbeddingConfig(config.table, kernel_power=2)
    m = embed_majorant(SequenceSignal((ones,)), np.zeros((n, 1)), grid,
                       (-0.25, 1.125), soft)
    assert abs(float(m.values[0, 0, 0, 0].real) - math.pi) <= 1e-3


def test_embed_majorant_additive_over_disjoint_entries(config):
    f = make_signal("gaussian", {"sigma": 0.5, "direction": [0.6, 0.8]},
                    n=64, dx=1.0 / 4.0, space=SPACE)
    left = f.with_values(np.where((f.grid() < 0.0)[:, None], f.values, 0.0))
    right = f.with_values(f.values - left.values)
    grid = TFSGrid.build((0.0, 1.0), 3, (-4.0, 4.0), 9, 0.5, 1.1, 2.0)
    theta = (-0.25, 1.125)
    anchors2 = np.zeros((f.n, 2))
    both = embed_majorant(SequenceSignal((left, right)), anchors2, grid, theta, config)
    parts = [embed_majorant(SequenceSignal((g,)), np.zeros((f.n, 1)), grid,
                            theta, config).values
             for g in (left, right)]
    # disjoint sample supports make the r'-sum collapse termwise
    want = parts[0] + parts[1]
    assert np.abs(both.values - want).max() <= 1e-12 * np.abs(want).max()


def test_embed_majorant_scaling_and_phase_invariance(config):
    f = make_signal("bandlimited-random", {"band": 0.6}, n=64, dx=1.0 / 4.0,
                    space=SPACE, seed=23)
    grid = TFSGrid.build((0.0, 1.0), 3, (-4.0, 4.0), 9, 0.5, 1.1, 2.0)
    theta = (-0.25, 1.125)
    anchors = np.zeros((f.n, 1))

    def field(sig):
        return embed_majorant(SequenceSignal((sig,)), anchors, grid, theta, config).values

    base = field(f)
    assert np.abs(field(f.with_values(3.0 * f.values)) - 3.0 * base).max() \
        <= 1e-12 * np.abs(base).max()
    # quarter-turn phases leave the sample norms bit-identical
    for phase in (-1.0, 1j, -1j):
        assert np.array_equal(field(f.with_values(phase * f.values)), base)
    rng = np.random.default_rng(3)
    spun = f.values * np.exp(2j * np.pi * rng.random(f.n))[:, None]
    assert np.abs(field(f.with_values(spun)) - base).max() <= 1e-13 * np.abs(base).max()


def dual_rep_signals():
    f = make_signal("gaussian", {"sigma": 0.4, "direction": [1.0, 0.5]},
                    n=256, dx=1.0 / 16.0, space=SPACE)
    g = make_signal("bandlimited-random", {"band": 0.9}, n=256, dx=1.0 / 16.0,
                    space=SPACE, seed=7)
    return f, g


def test_dual_representation_lhs_oracle(table):
    # recompute the increment pairing spectrally, straight from np.fft
    f, g = dual_rep_signals()
    rep = check_dual_representation(f, g, (-2.5, 2.5), table,
                                    t_min=0.25, t_max=0.75, t_steps=16, eta_per_window=2)
    xi = np.fft.fftshift(np.fft.fftfreq(f.n, f.dx))
    phase = np.exp(-2j * np.pi * xi * f.x0)[:, None]
    f_hat = f.dx * phase * np.fft.fftshift(np.fft.fft(f.values, axis=0), axes=0)
    g_hat = g.dx * phase * np.fft.fftshift(np.fft.fft(g.values, axis=0), axes=0)
    keep = (np.abs(xi) < 2.5)[:, None]
    dxi = 1.0 / (f.n * f.dx)
    want = complex((np.where(keep, f_hat * np.conj(g_hat), 0.0)).sum() * dxi)
    assert rep["lhs"] == pytest.approx(want, rel=1e-12)


def test_dual_representation_converges(table):
    f, g = dual_rep_signals()
    cal = CALIBRATION["dual_representation"]
    rels = {}
    for label in ("coarse", "ref", "fine"):
        steps, per = cal["quadrature"][label]
        rep = check_dual_representation(f, g, tuple(cal["interval"]), table,
                                        t_min=cal["t_range"][0], t_max=cal["t_range"][1],
                                        t_steps=steps, eta_per_window=per)
        rels[label] = rep["rel_err"]
    assert rels["ref"] <= cal["ref_rel_max"]
    assert rels["fine"] <= cal["fine_rel_max"]
    assert rels["coarse"] > rels["ref"] > rels["fine"]


def test_dual_representation_validation(table):
    f, g = dual_rep_signals()
    with pytest.raises(ConfigurationError):
        check_dual_representation(f, g, (-math.inf, 2.5), table)
    with pytest.raises(ConfigurationError):
        check_dual_representation(f, g, (-2.5, 2.5), table, t_steps=4)
    other = make_signal("gaussian", {"sigma": 0.4}, n=128, dx=1.0 / 16.0,
                        space=NormedSpace(1, 2.0))
    with pytest.raises(ValueError):
        check_dual_representation(f, other, (-2.5, 2.5), table)


@pytest.mark.parametrize(
    "t_min, t_max", [(0.75, 0.25), (0.5, 0.5), (-0.25, 0.75), (0.25, math.inf)]
)
def test_dual_representation_rejects_bad_scale_range(table, t_min, t_max):
    f, g = dual_rep_signals()
    with pytest.raises(ConfigurationError, match="t_min"):
        check_dual_representation(f, g, (-2.5, 2.5), table, t_min=t_min, t_max=t_max)


def build_calibrated_grid(entry):
    eta = entry["eta"]
    y = entry["y"]
    t = entry["t"]
    return TFSGrid.build((eta[0], eta[1]), eta[2], (y[0], y[1]), y[2], t[0], t[1], t[2])


def domination_setup(config):
    f = make_signal("bandlimited-random", {"band": 0.9}, n=256, dx=1.0 / 16.0,
                    space=SPACE, seed=21)
    grid = TFSGrid.build((-2.0, 2.0), 17, (-8.0, 8.0), 9, 0.4, 1.6, math.sqrt(2.0))
    selection = FrequencySelection.constant([-1.5, 1.5], f.n)
    dicts = domination_dictionaries(grid, config.table)
    return f, grid, selection, dicts


def test_domination_zero_sequence_is_vacuous(config):
    f, grid, selection, dicts = domination_setup(config)
    zero = SequenceSignal((f.with_values(np.zeros_like(f.values)),))
    rep = check_domination(zero, selection, grid, config, dictionaries=dicts)
    assert rep["vacuous"] and not rep["violation"] and rep["finite"]
    for key in ("plus_full_ratio", "plus_masked_ratio",
                "minus_full_ratio", "minus_masked_ratio"):
        assert rep[key] == 0.0


def test_domination_mask_readings_and_exclusion(config):
    f, grid, selection, dicts = domination_setup(config)
    seq = SequenceSignal((f,))
    plain = check_domination(seq, selection, grid, config, dictionaries=dicts)
    assert plain["finite"] and not plain["violation"] and not plain["vacuous"]
    for side in ("plus", "minus"):
        # no exclusion: the two readings of the right-hand mask coincide
        assert plain[f"{side}_full_ratio"] == plain[f"{side}_masked_ratio"]
        assert plain[f"{side}_numerator"] > 0.0

    excluded = tree_membership(grid, dicts[+1].trees[len(dicts[+1]) // 2])
    masked = check_domination(seq, selection, grid, config,
                              excluded=excluded, dictionaries=dicts)
    assert masked["finite"]
    for side in ("plus", "minus"):
        # zeroing cells can only lower sizes; the masked denominator is
        # the smaller one, so its ratio dominates the full reading
        assert masked[f"{side}_numerator"] <= plain[f"{side}_numerator"] + 1e-12
        assert masked[f"{side}_denominator_masked"] <= masked[f"{side}_denominator_full"]
        assert masked[f"{side}_masked_ratio"] >= masked[f"{side}_full_ratio"]


def test_domination_validation(config):
    f, grid, selection, dicts = domination_setup(config)
    seq = SequenceSignal((f,))
    with pytest.raises(ValueError):
        check_domination(seq, FrequencySelection.constant([-1.0, 0.0, 1.0], f.n),
                         grid, config, dictionaries=dicts)
    with pytest.raises(ValueError):
        check_domination(seq, selection, grid, config,
                         excluded=np.zeros((2, 2, 2), dtype=bool), dictionaries=dicts)


def test_holder_on_embedded_fields(config):
    cal = CALIBRATION["holder"]
    grid = build_calibrated_grid(cal["grids"]["ref"])
    theta, theta_in = theta_windows(config.table, +1)
    trees = TreeDictionary.build(grid, theta, theta_in,
                                 eta_stride=cal["grids"]["ref"]["eta_stride"],
                                 y_stride=cal["grids"]["ref"]["y_stride"])
    strips = StripDictionary.build(grid, y_stride=cal["grids"]["ref"]["strip_stride"])
    sig = cal["signal"]
    seed = cal["seeds"][0]
    f = make_signal(sig["kind"], {"band": sig["band"]}, n=sig["n"], dx=sig["dx"],
                    space=SPACE, seed=seed)
    g = make_signal(sig["kind"], {"band": sig["band"]}, n=sig["n"], dx=sig["dx"],
                    space=SPACE, seed=seed + 1000)
    f_field = embed_signal(f, grid, config)
    g_field = embed_signal(g, grid, config)
    tol = cal["seed_tolerance"]
    full = size_holder_check(f_field, g_field, trees, kind="full", p=2.0)
    assert not full["infinite"]
    assert abs(full["ratio"] - cal["ratios"]["ref_full"]) <= tol * cal["ratios"]["ref_full"]
    leb = size_holder_check(f_field, g_field, trees, strips, kind="lebesgue", p=2.0, q=2.0)
    assert not leb["infinite"]
    assert abs(leb["ratio"] - cal["ratios"]["ref_lebesgue"]) <= tol * cal["ratios"]["ref_lebesgue"]


def test_field_dump_roundtrip(config, table, tmp_path):
    f = make_signal("bandlimited-random", {"band": 0.9}, n=256, dx=1.0 / 16.0,
                    space=SPACE, seed=4)
    grid = signal_grid_tfs(f, (-1.0, 1.0), 5, 0.5, 1.7)
    field = embed_packets(f, table, (-2.5, 2.5), grid)
    path = tmp_path / "field.vcf"
    dump_field(field, path)
    back = load_field(path)
    assert np.array_equal(back.values, field.values)
    assert back.space == field.space
    for axis in ("eta", "y", "t"):
        assert np.array_equal(getattr(back.grid, axis), getattr(field.grid, axis))

    mangled = tmp_path / "mangled.vcf"
    mangled.write_bytes(b"not a field\n" + b"\0" * 16)
    with pytest.raises(ConfigurationError):
        load_field(mangled)


def small_field_dump(config, path):
    f = make_signal("bandlimited-random", {"band": 0.9}, n=128, dx=1.0 / 8.0,
                    space=SPACE, seed=4)
    grid = TFSGrid.build((-1.0, 1.0), 2, (-8.0, 8.0), 2, 0.5, 1.0, 2.0)
    dump_field(embed_signal(f, grid, config), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(header), payload


@pytest.mark.parametrize("key, value, message", [
    ("dim", None, r"lacks dim in .*field\.vcf"),
    ("dim", "two", r"malformed value .* in .*field\.vcf"),
], ids=["missing-key", "mistyped-value"])
def test_load_field_rejects_bad_header(config, tmp_path, key, value, message):
    path = tmp_path / "field.vcf"
    header, payload = small_field_dump(config, path)
    if value is None:
        del header[key]
    else:
        header[key] = value
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
    with pytest.raises(ConfigurationError, match=message):
        load_field(path)


def test_load_field_rejects_truncated_payload(config, tmp_path):
    path = tmp_path / "field.vcf"
    header, payload = small_field_dump(config, path)
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload[:-16])
    with pytest.raises(ConfigurationError, match=r"240 bytes, header needs 256, in .*field"):
        load_field(path)


# --- per-node oracles --------------------------------------------------------
#
# The embeddings evaluate packet profiles over whole node arrays.  These loops
# are the one-node-at-a-time evaluation they replace, kept here as oracles:
# the batched fields must reproduce them bit for bit.


def loop_spectral_field(signal, grid, profile):
    coeffs = _dft_values(signal.values, signal.x0, signal.dx)
    xi = _freq_grid(signal.n, signal.dx)
    dxi = 1.0 / (signal.n * signal.dx)
    phases = np.exp(2j * np.pi * np.outer(xi, grid.y)) * dxi
    out = np.empty(grid.shape + (signal.dim,), dtype=complex)
    for i, eta in enumerate(grid.eta):
        for k, t in enumerate(grid.t):
            windowed = profile(eta, t, xi)[:, None] * coeffs
            out[i, :, k, :] = phases.T @ windowed
    return out


def loop_majorant(increments, anchors, grid, theta, config):
    first = increments.entries[0]
    x = first.grid()
    lo, hi = theta
    norms = np.stack([norm_eval(e.values, e.space) for e in increments.entries])
    rp = config.r_prime
    out = np.empty(grid.shape + (1,), dtype=complex)
    for k, t in enumerate(grid.t):
        u = (x[None, :] - grid.y[:, None]) / t
        kernel = (1.0 + u * u) ** (-0.5 * config.kernel_power) / t
        for i, eta in enumerate(grid.eta):
            ang = t * (eta - anchors.T)
            active = (ang > lo) & (ang < hi)
            if math.isinf(rp):
                amp = np.where(active, norms, 0.0).max(axis=0)
            else:
                amp = (np.where(active, norms**rp, 0.0).sum(axis=0)) ** (1.0 / rp)
            out[i, :, k, 0] = kernel @ amp * first.dx
    return out


def loop_dual_rhs(signal, dual, interval, table, t_min, t_max, t_steps, eta_per_window):
    c_lo, c_hi = interval
    xi = _freq_grid(signal.n, signal.dx)
    dxi = 1.0 / (signal.n * signal.dx)
    cross = duality_pairing(_dft_values(signal.values, signal.x0, signal.dx),
                            _dft_values(dual.values, dual.x0, dual.dx)) * dxi
    keep = np.abs(cross) > 0.0
    xi_band, cross_band = xi[keep], cross[keep]
    eps = table.spec.eps
    dlt = math.log(t_max / t_min) / t_steps
    rhs = 0.0 + 0.0j
    nodes = 0
    for sign in (+1, -1):
        for t in t_min * np.exp((np.arange(t_steps) + 0.5) * dlt):
            if sign == +1:
                lo = c_lo + (1.0 - eps) / t
                hi = min(c_hi - (1.0 - eps) / t, c_lo + (1.0 + eps) / t)
            else:
                lo = max(c_lo + (1.0 - eps) / t, c_hi - (1.0 + eps) / t)
                hi = c_hi - (1.0 - eps) / t
            if not hi > lo:
                continue
            width = hi - lo
            for eta in lo + (np.arange(eta_per_window) + 0.5) * width / eta_per_window:
                prof = packet_hat(table, interval, eta, t, t * (xi_band - eta), sign=sign)
                rhs += (cross_band * prof).sum() * (width / eta_per_window) * (t * dlt)
                nodes += 1
    return rhs, nodes


def test_embed_signal_matches_node_loop(config):
    f = make_signal("bandlimited-random", {"band": 0.9}, n=128, dx=1.0 / 8.0,
                    space=SPACE, seed=31)
    on_axis = signal_grid_tfs(f, (-2.0, 2.0), 9, 0.4, 1.7)
    off_axis = TFSGrid.build((-2.0, 2.0), 9, (-8.0, 8.0), 9, 0.4, 1.6, 2.0)
    for grid in (on_axis, off_axis):
        want = loop_spectral_field(
            f, grid, lambda eta, t, xi: analyzing_window(config, t * (xi - eta)))
        assert np.abs(want).max() > 0.0
        assert np.array_equal(embed_signal(f, grid, config).values, want)


def test_embed_packets_matches_node_loop(table):
    f = make_signal("bandlimited-random", {"band": 0.9}, n=128, dx=1.0 / 8.0,
                    space=SPACE, seed=32)
    on_axis = signal_grid_tfs(f, (-2.0, 2.0), 17, 0.4, 1.7)
    off_axis = TFSGrid.build((-2.0, 2.0), 17, (-8.0, 8.0), 9, 0.4, 1.6, 2.0)
    cases = ((+1, (-2.5, 2.5)), (-1, (-2.5, 2.5)), (+1, (-1.5, math.inf)),
             (-1, (-math.inf, 1.5)))
    for grid in (on_axis, off_axis):
        for sign, interval in cases:
            want = loop_spectral_field(
                f, grid,
                lambda eta, t, xi: packet_hat(table, interval, eta, t, t * (xi - eta),
                                              sign=sign))
            assert np.abs(want).max() > 0.0
            got = embed_packets(f, table, interval, grid, sign=sign).values
            assert np.array_equal(got, want)


def test_embed_majorant_matches_node_loop(config):
    f = make_signal("bandlimited-random", {"band": 0.9}, n=64, dx=1.0 / 4.0,
                    space=SPACE, seed=33)
    increments = linearized_vc(f, FrequencySelection.constant([-1.0, 0.0, 1.0], f.n))
    grid = TFSGrid.build((-1.0, 1.0), 9, (-4.0, 4.0), 9, 0.5, 1.1, 2.0)
    anchors = np.tile([-0.6, 0.3], (f.n, 1))
    anchors[::3, 0] = 0.1  # per-sample anchors switch the window on and off
    theta = (-0.25, 1.125)
    for r_prime in (2.0, 3.0, math.inf):
        cfg = EmbeddingConfig(config.table, r_prime=r_prime)
        want = loop_majorant(increments, anchors, grid, theta, cfg)
        assert np.abs(want).max() > 0.0
        got = embed_majorant(increments, anchors, grid, theta, cfg).values
        assert np.array_equal(got, want)


def test_dual_representation_matches_node_loop(table):
    f, g = dual_rep_signals()
    for interval, t_range, steps, per in (((-2.5, 2.5), (0.25, 0.75), 40, 4),
                                          ((-1.0, 1.5), (0.3, 1.2), 24, 3)):
        rep = check_dual_representation(f, g, interval, table, t_min=t_range[0],
                                        t_max=t_range[1], t_steps=steps, eta_per_window=per)
        rhs, nodes = loop_dual_rhs(f, g, interval, table, *t_range, steps, per)
        assert nodes > 0
        assert rep["nodes"] == nodes
        assert rep["rhs"] == rhs

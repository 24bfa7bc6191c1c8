import math

import numpy as np
import pytest

from varcarleson import wavepacket
from varcarleson.core import ConfigurationError
from varcarleson.wavepacket import (
    BumpSpec,
    assemble_m,
    build_bumps,
    compute_m_plus,
    packet_hat,
    verify_reconstruction,
)

# Frozen reference values for the default radii b = 1/16, eps = 1/256,
# computed with an independent adaptive double quadrature (abs error
# estimates below 5e-15) before the implementation existed.
M0 = 2.4067557776219016e-05
M_PLUS_049 = 2.2772325157969338e-05
M_PLUS_050 = 1.1907607675087348e-05
M_PLUS_051 = 1.2376784203182556e-06
M_RATIO_HALF = 0.9895152458543772


@pytest.fixture(scope="module")
def table():
    return assemble_m(BumpSpec())


def test_bump_spec_validation():
    with pytest.raises(ConfigurationError):
        BumpSpec(b=0.25)
    with pytest.raises(ConfigurationError):
        BumpSpec(b=-0.01)
    with pytest.raises(ConfigurationError):
        BumpSpec(b=1.0 / 16.0, eps=1.0 / 64.0)  # eps above its cap b/16
    with pytest.raises(ConfigurationError):
        BumpSpec(eps=0.0)
    spec = BumpSpec()
    assert math.isclose(spec.eps, spec.b / 16.0, rel_tol=1e-12)


def test_bump_values_and_partition():
    spec = BumpSpec()
    bumps = build_bumps(spec)
    eps = spec.eps
    assert math.isclose(float(bumps.chi(0.0)), math.exp(-1.0), rel_tol=1e-14)
    assert float(bumps.chi(eps)) == 0.0
    assert float(bumps.chi(-2.0 * eps)) == 0.0
    assert float(bumps.chi_plus(-eps)) == 0.0
    assert float(bumps.chi_plus(eps)) == 1.0
    assert math.isclose(float(bumps.chi_plus(0.0)), 0.5, abs_tol=1e-12)
    z = np.linspace(-3.0 * eps, 3.0 * eps, 1201)
    total = bumps.chi_plus(z) + bumps.chi_minus(z)
    assert np.abs(total - 1.0).max() <= 1e-12
    steps = np.diff(bumps.chi_plus(np.linspace(-eps, eps, 2001)))
    assert steps.min() >= -1e-12  # smooth step is nondecreasing
    assert float(bumps.phi_hat(0.5 * spec.b)) == 0.0
    assert float(bumps.phi_hat(0.0)) == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_bump_step_maps_nan_to_nan():
    bumps = build_bumps(BumpSpec())
    z = np.array([math.nan, -1.0, 0.0, 1.0, math.nan])
    for values in (bumps.chi_plus(z), bumps.chi_minus(z)):
        assert np.isnan(values[[0, 4]]).all()
        assert not np.isnan(values[1:4]).any()
    assert math.isnan(float(bumps.chi_plus(math.nan)))


def test_build_bumps_is_memoized_per_spec():
    bumps = build_bumps(BumpSpec(1.0 / 16.0))
    # eps defaults to b/16 = 1/256, so both specs are equal keys
    assert build_bumps(BumpSpec(1.0 / 16.0, 1.0 / 256.0)) is bumps
    assert build_bumps(BumpSpec(0.125, 1.0 / 128.0)) is not bumps
    z = np.linspace(-3.0 * bumps.spec.eps, 3.0 * bumps.spec.eps, 601)
    assert np.abs(bumps.chi_plus(z) + bumps.chi_minus(z) - 1.0).max() <= 1e-12


def test_multiplier_constant_matches_frozen_value():
    assert compute_m_plus(BumpSpec(), 0.3) == pytest.approx(M0, rel=1e-9)
    # chi_minus factor is identically 1 there, so any point below the
    # transition zone reproduces the same quadrature sum exactly
    assert compute_m_plus(BumpSpec(), 0.45) == pytest.approx(
        compute_m_plus(BumpSpec(), 0.3), rel=1e-14
    )


def test_multiplier_transition_values_match_frozen_oracle():
    # the truncation boundary cuts through the quadrature box here, so the
    # frozen values are checked at high order where the rule has converged
    spec = BumpSpec()
    assert compute_m_plus(spec, 0.49, order=256) == pytest.approx(M_PLUS_049, rel=1e-9)
    assert compute_m_plus(spec, 0.50, order=256) == pytest.approx(M_PLUS_050, rel=1e-10)
    assert compute_m_plus(spec, 0.51, order=256) == pytest.approx(M_PLUS_051, rel=1e-8)
    assert compute_m_plus(spec, 0.52) == 0.0
    assert compute_m_plus(spec, 0.9) == 0.0


def test_multiplier_extension_outside_unit_interval():
    spec = BumpSpec()
    m0 = compute_m_plus(spec, 0.3)
    assert compute_m_plus(spec, 0.0) == pytest.approx(m0, rel=1e-14)
    assert compute_m_plus(spec, -0.7) == pytest.approx(m0, rel=1e-14)
    assert compute_m_plus(spec, 1.0) == 0.0
    assert compute_m_plus(spec, 1.3) == 0.0


def test_multiplier_quadrature_order_convergence():
    spec = BumpSpec()
    for xi in (0.49, 0.5, 0.51):
        d1 = abs(compute_m_plus(spec, xi, order=64) - compute_m_plus(spec, xi, order=128))
        d2 = abs(compute_m_plus(spec, xi, order=128) - compute_m_plus(spec, xi, order=256))
        assert d2 < d1 <= 1e-4 * M0
        assert d2 <= 1e-6 * M0
    with pytest.raises(ConfigurationError):
        compute_m_plus(spec, 0.5, order=4)


def test_table_positive_symmetric_and_flat_outside_zone(table):
    assert table.m0 == pytest.approx(M0, rel=1e-9)
    assert table.m_values.min() > 0.0
    lo, hi = table.zone
    assert np.abs(table.m_values - table.m_values[::-1]).max() <= 1e-8 * table.m0
    outside = (table.xi_grid <= lo) | (table.xi_grid >= hi)
    assert np.all(table.m_values[outside] == table.m0)
    assert table.m_at(lo - 0.01) == table.m0
    assert table.m_at(hi + 0.01) == table.m0
    assert table.m_at(-5.0) == table.m0  # constant extension beyond the grid
    assert table.m_at(0.5) == pytest.approx(M_RATIO_HALF * table.m0, rel=1e-6)
    assert table.m_inv_at(0.0) == 1.0 / table.m0
    assert table.m_inv_at(1.0) == 1.0 / table.m0
    mid = table.m_at(np.linspace(lo, hi, 257))
    assert np.all(mid >= table.m_at(0.5) * (1.0 - 1e-9))  # dip is at the center


def test_table_mirror_symmetry_pointwise(table):
    xi = np.linspace(-0.1, 1.1, 601)
    assert np.abs(table.m_at(xi) - table.m_at(1.0 - xi)).max() <= 1e-8 * table.m0


def test_assemble_construction_defect_is_a_program_error(monkeypatch):
    # a broken quadrature is a bug, not bad input: it must not pose as a
    # ConfigurationError (exit 2 in the CLI)
    monkeypatch.setattr(wavepacket, "compute_m_plus", lambda spec, xi, order: -np.ones_like(xi))
    with pytest.raises(RuntimeError, match="not positive") as err:
        assemble_m(BumpSpec())
    assert not isinstance(err.value, ConfigurationError)


def dense_m_plus(spec, xi, order):
    """The box sum of compute_m_plus run at every xi, with no band classification (oracle)."""
    v, w, base, bumps = wavepacket._box_nodes(spec, order)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.where(xi <= 0.0, base.sum(), 0.0)
    inside = np.flatnonzero((xi > 0.0) & (xi < 1.0))
    block = max(1, (1 << 22) // (order * order))
    for start in range(0, inside.size, block):
        at = inside[start:start + block]
        with np.errstate(divide="ignore", over="ignore"):
            arg = v[None, :, None] - w[None, :, :] / xi[at, None, None] + 1.0
        out[at] = (base[None, :, :] * bumps.chi_minus(arg)).sum(axis=(1, 2))
    return out


PRESET_SPEC = BumpSpec(0.125, 1.0 / 128.0)  # the table of every vc preset


@pytest.mark.parametrize("spec", [BumpSpec(), PRESET_SPEC], ids=["default", "preset"])
def test_banded_quadrature_matches_dense_box_sum(spec):
    knots = np.linspace(-wavepacket._M_DELTA, 1.0 + wavepacket._M_DELTA, wavepacket._M_KNOTS)
    xi = np.concatenate([knots, [-3.0, -1e-300, 0.0, 1e-300, 1e-12, 1.0, 1.5]])
    assert np.array_equal(compute_m_plus(spec, xi), dense_m_plus(spec, xi, 64))
    few = np.array([1e-9, 0.3, 0.5 - 0.5 * spec.b, 0.49, 0.5, 0.52, 0.6, 0.999])
    for order in (32, 256):
        assert np.array_equal(compute_m_plus(spec, few, order), dense_m_plus(spec, few, order))
    table = assemble_m(spec)
    m_plus = dense_m_plus(spec, knots, 64)
    m_raw = m_plus + m_plus[::-1]
    half = 0.5 * spec.b
    flat = (knots <= 0.5 - half) | (knots >= 0.5 + half)
    assert table.m0 == dense_m_plus(spec, 0.0, 64)[0]
    assert np.array_equal(table.m_values, np.where(flat, table.m0, 0.5 * (m_raw + m_raw[::-1])))


def test_preset_table_has_all_three_knot_classes():
    # the band route must see knots where chi_minus is 1, 0 and neither on the box
    eps = PRESET_SPEC.eps
    v, w, _, _ = wavepacket._box_nodes(PRESET_SPEC, 64)
    xi = np.linspace(-wavepacket._M_DELTA, 1.0 + wavepacket._M_DELTA, wavepacket._M_KNOTS)
    xi = xi[(xi > 0.0) & (xi < 1.0)][::8]  # every 8th knot keeps the box small
    arg = v[None, :, None] - w[None, :, :] / xi[:, None, None] + 1.0
    ones = (arg <= -eps).all(axis=(1, 2))
    zeros = (arg >= eps).all(axis=(1, 2))
    assert ones.any() and zeros.any() and (~ones & ~zeros).any()
    assert wavepacket._box_nodes(PRESET_SPEC, 64)[2] is wavepacket._box_nodes(PRESET_SPEC, 64)[2]
    assert not wavepacket._box_nodes(PRESET_SPEC, 64)[2].flags.writeable


def _knot_sets():
    rng = np.random.default_rng(3)
    uniform = np.linspace(-1.0, 2.0, 41)
    nonuniform = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.5, 40))])
    return {"uniform": uniform, "nonuniform": nonuniform}


def _piece_derivatives(spline, h):
    """Value and first three derivatives of every cubic piece at offsets h."""
    c0, c1, c2, c3 = spline.coefficients
    return (
        ((c0 * h + c1) * h + c2) * h + c3,
        (3.0 * c0 * h + 2.0 * c1) * h + c2,
        6.0 * c0 * h + 2.0 * c1,
        6.0 * c0,
    )


@pytest.mark.parametrize("knots", ["uniform", "nonuniform"])
def test_spline_interpolates_with_c2_joins_and_not_a_knot_ends(knots):
    x = _knot_sets()[knots]
    y = np.sin(3.0 * x) + np.random.default_rng(4).normal(scale=0.3, size=x.size)
    spline = wavepacket._NotAKnotSpline(x, y)
    values = spline(x)
    assert np.array_equal(values[:-1], y[:-1])  # h = 0 returns the knot value
    assert values[-1] == pytest.approx(y[-1], rel=0.0, abs=1e-13)
    # each piece's right end against the next piece's left end
    ends = _piece_derivatives(spline, np.diff(x))
    starts = _piece_derivatives(spline, np.zeros(x.size - 1))
    for order in range(3):
        scale = np.abs(starts[order]).max()
        assert np.abs(ends[order][:-1] - starts[order][1:]).max() <= 1e-12 * scale
    # not-a-knot: the third derivative is also continuous at x[1] and x[-2]
    third = starts[3]
    assert abs(third[0] - third[1]) <= 1e-10 * np.abs(third).max()
    assert abs(third[-2] - third[-1]) <= 1e-10 * np.abs(third).max()
    assert abs(third[0] - third[1]) < 1e-6 * abs(third[1] - third[2])  # not a mere C^2 join


@pytest.mark.parametrize("knots", ["uniform", "nonuniform"])
def test_spline_reproduces_cubics(knots):
    x = _knot_sets()[knots]
    cubic = np.polynomial.Polynomial([0.7, -1.3, 0.4, 0.25])
    spline = wavepacket._NotAKnotSpline(x, cubic(x))
    z = np.concatenate([x, np.random.default_rng(6).uniform(x[0], x[-1], 2001)])
    scale = np.abs(cubic(z)).max()
    assert np.abs(spline(z) - cubic(z)).max() <= 1e-13 * scale


def test_spline_tables_hold_their_knots(table):
    # both wave-packet tables go through the package's spline
    knots = table._spline.x
    assert np.array_equal(knots, table.xi_grid)
    assert np.abs(table._spline(knots) - table.m_values).max() <= 1e-15 * table.m0
    cdf = build_bumps(table.spec)._cdf_spline
    knots = cdf.x
    assert knots.size == wavepacket._CDF_KNOTS
    assert cdf(knots[0]) == 0.0
    assert cdf(knots[-1]) == pytest.approx(1.0, rel=0.0, abs=1e-15)
    assert np.all(np.diff(cdf(knots)) >= 0.0)


def test_packet_domain_errors(table):
    with pytest.raises(ValueError):
        packet_hat(table, (1.0, 0.5), 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        packet_hat(table, (-np.inf, np.inf), 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        packet_hat(table, (-np.inf, 1.0), 1.0, 1.0, 0.0, sign=+1)
    with pytest.raises(ValueError):
        packet_hat(table, (0.0, np.inf), 1.0, 1.0, 0.0, sign=-1)
    with pytest.raises(ValueError):
        packet_hat(table, (0.0, 1.0), 1.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        packet_hat(table, (0.0, 1.0), 1.0, 1.0, 0.0, sign=3)


def _plus_window(c_minus, c_plus, t, eps):
    lo = c_minus + (1.0 - eps) / t
    hi = min(c_plus - (1.0 - eps) / t, c_minus + (1.0 + eps) / t)
    return lo, hi


def test_packet_vanishes_outside_modulation_window(table):
    # nonzero value at zeta = 0 implies the modulation lies strictly in the
    # admissible window; checked on random intervals and scales
    eps = table.spec.eps
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(2000):
        c_minus = rng.uniform(-2.0, 2.0)
        c_plus = c_minus + rng.uniform(0.5, 3.0)
        t = rng.uniform(0.3, 3.5)
        center = c_minus + 1.0 / t
        eta = center + rng.uniform(-3.0, 3.0) * eps / t
        val = float(packet_hat(table, (c_minus, c_plus), eta, t, 0.0))
        lo, hi = _plus_window(c_minus, c_plus, t, eps)
        if val != 0.0:
            hits += 1
            assert lo < eta < hi
    assert hits > 200  # the sampling straddles the window, so plenty land inside


def test_packet_nonzero_well_inside_window(table):
    eps = table.spec.eps
    rng = np.random.default_rng(8)
    for _ in range(500):
        t = rng.uniform(0.3, 3.5)
        c_minus = rng.uniform(-2.0, 2.0)
        c_plus = c_minus + (2.0 + 2.0 * eps) / t + rng.uniform(0.1, 2.0)
        eta = c_minus + (1.0 + rng.uniform(-0.5, 0.5) * eps) / t
        assert float(packet_hat(table, (c_minus, c_plus), eta, t, 0.0)) > 0.0


def test_packet_zeta_support(table):
    half = 0.5 * table.spec.b
    eta, t = 1.0 / 0.9 + 0.3, 0.9
    zeta = np.array([-2.0 * half, -half, half, 1.5 * half])
    assert np.all(packet_hat(table, (0.3, 5.0), eta, t, zeta) == 0.0)
    inside = packet_hat(table, (0.3, 5.0), eta, t, np.linspace(-0.9 * half, 0.9 * half, 9))
    assert np.isrealobj(inside) and np.all(inside > 0.0)


def test_far_right_endpoint_matches_half_line_packet(table):
    # once the right endpoint clears the modulation by 3/t the bounded and
    # half-infinite packets coincide exactly
    eps = table.spec.eps
    rng = np.random.default_rng(9)
    zeta = np.linspace(-0.5 * table.spec.b, 0.5 * table.spec.b, 401)
    for _ in range(50):
        t = rng.uniform(0.3, 3.0)
        c_minus = rng.uniform(-2.0, 2.0)
        eta = c_minus + (1.0 + rng.uniform(-0.5, 0.5) * eps) / t
        c_plus = eta + 3.0 / t + rng.uniform(1e-3, 5.0)
        bounded = packet_hat(table, (c_minus, c_plus), eta, t, zeta)
        half_line = packet_hat(table, (c_minus, np.inf), eta, t, zeta)
        scale = np.abs(half_line).max()
        assert scale > 0.0
        assert np.abs(bounded - half_line).max() <= 1e-10 * scale


def test_left_truncation_is_reflection_of_right_truncation(table):
    rng = np.random.default_rng(10)
    zeta = np.linspace(-0.5 * table.spec.b, 0.5 * table.spec.b, 301)
    for _ in range(50):
        c_minus = rng.uniform(-2.0, 1.0)
        c_plus = c_minus + rng.uniform(0.8, 3.0)
        t = rng.uniform(0.8, 3.0)
        eta = c_minus + rng.uniform(0.995, 1.005) / t
        plus = packet_hat(table, (c_minus, c_plus), eta, t, zeta, sign=+1)
        mirror = packet_hat(table, (-c_plus, -c_minus), -eta, t, -zeta, sign=-1)
        scale = max(np.abs(plus).max(), 1e-300)
        assert np.abs(plus - mirror).max() <= 1e-12 * scale


def test_interval_rescaling_identity(table):
    # doubling the interval while halving modulation relative to it: the
    # profile for (0, 2) at (eta, t) equals the one for (0, 1) at (eta/2, 2t)
    t = 1.5
    eta = 1.0 / t
    zeta = np.linspace(-0.5 * table.spec.b, 0.5 * table.spec.b, 501)
    wide = packet_hat(table, (0.0, 2.0), eta, t, zeta)
    narrow = packet_hat(table, (0.0, 1.0), 0.5 * eta, 2.0 * t, zeta)
    scale = np.abs(wide).max()
    assert scale > 0.0
    assert np.abs(wide - narrow).max() <= 1e-12 * scale


def test_half_line_packet_dilation_invariance(table):
    zeta = np.linspace(-0.5 * table.spec.b, 0.5 * table.spec.b, 301)
    for t, eta in ((0.7, 1.0 / 0.7), (2.5, 1.0 / 2.5 + 0.001)):
        a = packet_hat(table, (0.0, np.inf), eta, t, zeta)
        b = packet_hat(table, (0.0, np.inf), t * eta, 1.0, zeta)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


def test_reconstruction_residual_small_and_refining(table):
    interval = (-0.5, 1.5)
    length = interval[1] - interval[0]
    u = np.linspace(0.02, 0.98, 193)
    xi = np.concatenate(
        [interval[0] + length * u, [interval[0] - 0.3, interval[1] + 0.3, -5.0, 7.0]]
    )
    report = verify_reconstruction(table, interval, xi, cells=12, refine=2)
    assert report.sup_ref <= 5e-3
    assert report.ratio >= 2.0
    assert report.exterior_max == 0.0


def test_reconstruction_domain_errors(table):
    with pytest.raises(ValueError):
        verify_reconstruction(table, (0.0, np.inf), np.array([0.5]))
    with pytest.raises(ConfigurationError):
        verify_reconstruction(table, (0.0, 1.0), np.array([0.5]), cells=1)


def test_scale_windows_separate_around_shared_level(table):
    # packets truncated just above a frequency level live at strictly
    # smaller scales than packets truncated just below it; the window
    # endpoints match (theta -+ (1 - eps)) / level and their ratio is < 1
    eps = table.spec.eps
    rng = np.random.default_rng(11)
    for _ in range(25):
        theta = rng.uniform(1.01, 1.2)
        level = rng.uniform(0.2, 3.0)
        up_center = (theta - 1.0) / level
        down_center = (theta + 1.0) / level
        s_up = np.linspace(0.2 * up_center, 3.0 * up_center, 1601)
        s_down = np.linspace(0.5 * down_center, 1.5 * down_center, 1601)
        up = packet_hat(table, (level, np.inf), theta / s_up, s_up, 0.0, sign=+1)
        down = packet_hat(table, (-np.inf, level), theta / s_down, s_down, 0.0, sign=-1)
        hit_up = s_up[up != 0.0]
        hit_down = s_down[down != 0.0]
        assert hit_up.size > 0 and hit_down.size > 0
        sup_up = (theta - (1.0 - eps)) / level
        inf_down = (theta + 1.0 - eps) / level
        assert hit_up.max() < sup_up
        assert hit_down.min() > inf_down
        assert hit_up.max() < hit_down.min()
        assert sup_up / inf_down < 1.0

import numpy as np
import pytest

from varcarleson import cli
from varcarleson.core import ConfigurationError, NormedSpace
from varcarleson.embedding import domination_dictionaries, dump_field, load_field, theta_windows
from varcarleson.outersize import SizeSpec, local_size
from varcarleson.tfs import (
    OuterField,
    Strip,
    StripDictionary,
    TFSGrid,
    Tree,
    TreeDictionary,
    strip_membership,
    tree_membership,
)

THETA = (-0.25, 1.125)
THETA_IN = (-0.25, 0.9)


def small_grid():
    return TFSGrid.build((-2.0, 2.0), 17, (-2.0, 2.0), 17, 0.1, 0.8, 2.0)


def test_grid_build_and_weights():
    grid = small_grid()
    assert grid.shape == (17, 17, 4)
    assert np.allclose(grid.t, [0.1, 0.2, 0.4, 0.8], rtol=1e-12)
    assert grid.d_eta == pytest.approx(0.25)
    assert grid.log_ratio == pytest.approx(np.log(2.0))
    w = grid.cell_weights()
    assert w.shape == grid.shape
    assert w[3, 5, 2] == pytest.approx(0.25 * 0.25 * 0.4 * np.log(2.0), rel=1e-12)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        TFSGrid(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0]), np.array([0.1, 0.2]))
    with pytest.raises(ConfigurationError):
        TFSGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.1, 0.3, 0.5]))
    with pytest.raises(ConfigurationError):
        TFSGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([-0.1, 0.2]))
    with pytest.raises(ConfigurationError):
        TFSGrid.build((-1.0, 1.0), 9, (-1.0, 1.0), 9, 0.5, 0.1, 2.0)
    with pytest.raises(ConfigurationError):
        TFSGrid.build((-1.0, 1.0), 9, (-1.0, 1.0), 9, 0.1, 0.5, 0.9)


def test_tree_validation():
    with pytest.raises(ConfigurationError):
        Tree(0.0, 0.0, -1.0, THETA, THETA_IN)
    with pytest.raises(ConfigurationError):
        Tree(0.0, 0.0, 1.0, (0.5, 0.5), THETA_IN)
    with pytest.raises(ConfigurationError):
        Tree(0.0, 0.0, 1.0, THETA, (-0.5, 0.9))  # inner window sticks out
    with pytest.raises(ConfigurationError):
        Strip(0.0, 0.0)


def test_top_scale_nodes_are_excluded():
    # |zeta| < 1 - sigma fails at sigma = 1 even directly above the top
    grid = TFSGrid(np.array([0.0, 0.25]), np.array([0.0, 0.25]), np.array([0.5, 1.0]))
    tree = Tree(0.0, 0.0, 1.0, THETA, THETA_IN)
    mask = tree_membership(grid, tree)
    assert mask[0, 0, 0]  # theta = 0, zeta = 0, sigma = 1/2
    assert not mask[0, 0, 1]  # sigma = 1
    assert not mask[1, 0, 1]


def test_membership_window_is_open():
    grid = TFSGrid(np.array([0.0, 1.0]), np.array([0.0, 0.5]), np.array([0.25, 0.5]))
    tree = Tree(0.0, 0.0, 1.0, (0.0, 1.0), (0.0, 0.5))
    mask = tree_membership(grid, tree)
    assert not mask[0, 0, 0]  # theta = 0 sits on the open boundary
    assert mask[1, 0, 0]  # theta = 0.25 inside
    assert not mask[1, 1, 1]  # zeta = 0.5, sigma = 0.5: |zeta| < 1 - sigma fails


def test_in_out_partition():
    grid = small_grid()
    rng = np.random.default_rng(4)
    for _ in range(20):
        tree = Tree(
            rng.uniform(-1.5, 1.5),
            rng.uniform(-1.5, 1.5),
            rng.uniform(0.3, 2.5),
            THETA,
            THETA_IN,
        )
        full = tree_membership(grid, tree, "full")
        t_in = tree_membership(grid, tree, "in")
        t_out = tree_membership(grid, tree, "out")
        assert np.array_equal(full, t_in | t_out)
        assert not (t_in & t_out).any()
    with pytest.raises(ValueError):
        tree_membership(grid, Tree(0.0, 0.0, 1.0, THETA, THETA_IN), "inner")


def test_membership_translation_invariance():
    grid = small_grid()
    shift = 3
    base = Tree(grid.eta[2], grid.y[2], 0.9, THETA, THETA_IN)
    moved = Tree(grid.eta[2 + shift], grid.y[2 + shift], 0.9, THETA, THETA_IN)
    m0 = tree_membership(grid, base)
    m1 = tree_membership(grid, moved)
    assert np.array_equal(m0[: -shift or None, : -shift or None], m1[shift:, shift:])


def test_strip_membership_definition_and_nesting():
    grid = small_grid()
    strip = Strip(0.25, 0.9)
    mask = strip_membership(grid, strip)
    expect = np.abs(grid.y[None, :, None] - 0.25) < (0.9 - grid.t)[None, None, :]
    assert np.array_equal(mask, np.broadcast_to(expect, grid.shape))
    bigger = strip_membership(grid, Strip(0.25, 1.7))
    assert np.all(bigger[mask])
    # the strip's outer measure is its top scale
    ones = OuterField(grid, np.ones(grid.shape + (1,)), NormedSpace(1, 2.0))
    mass = grid.cell_weights()[mask].sum()
    assert local_size(ones, strip, SizeSpec("lp", 1.0)) == pytest.approx(mass / 0.9, rel=1e-12)


def test_tree_nesting_in_scale():
    grid = small_grid()
    small = Tree(0.3, -0.5, 0.7, THETA, THETA_IN)
    large = Tree(0.3, -0.5, 1.9, THETA, THETA_IN)
    m_small = tree_membership(grid, small)
    m_large = tree_membership(grid, large)
    assert np.all(m_large[m_small])
    # the tree's outer measure is its top scale
    ones = OuterField(grid, np.ones(grid.shape + (1,)), NormedSpace(1, 2.0))
    for tree, mask in ((small, m_small), (large, m_large)):
        mass = grid.cell_weights()[mask].sum()
        assert local_size(ones, tree, SizeSpec("lp", 1.0)) == pytest.approx(
            mass / tree.s, rel=1e-12
        )


def test_dictionary_coverage():
    grid = small_grid()
    td = TreeDictionary.build(grid, THETA, THETA_IN, eta_stride=2, y_stride=2)
    union = np.zeros(grid.shape, dtype=bool)
    for tree in td.trees:
        union |= tree_membership(grid, tree)
    assert union.all()
    assert len(td) == len(td.trees)
    assert len(TreeDictionary(grid, td.trees[:2])) == 2
    sd = StripDictionary.build(grid, y_stride=2)
    union = np.zeros(grid.shape, dtype=bool)
    for strip in sd.strips:
        union |= strip_membership(grid, strip)
    assert union.all()
    assert len(sd) == len(sd.strips)


@pytest.mark.parametrize("section", ["holder", "domination"])
def test_incidence_rows_are_memberships(section):
    # the per-row cell index of the tiny and ref dictionaries, row by row and
    # region by region, holds the cells of the one-element membership rule
    for preset in ("tiny", "ref"):
        settings = cli.PRESETS[preset]
        sec = settings[section]
        table = cli._table_from(settings)
        grid = cli._grid_from(sec["grid"])
        strides = {"eta_stride": int(sec["eta_stride"]), "y_stride": int(sec["y_stride"])}
        if section == "holder":
            dictionaries = [TreeDictionary.build(grid, *theta_windows(table, +1), **strides)]
            strips = StripDictionary.build(grid, y_stride=int(sec["strip_stride"]))
            for i, strip in enumerate(strips.strips):
                rows = strip_membership(grid, strip)
                assert np.array_equal(strips.cells(i), np.flatnonzero(rows))
            with pytest.raises(ValueError):
                strips.cells(0, "in")
        else:
            dictionaries = list(domination_dictionaries(grid, table, **strides).values())
        for trees in dictionaries:
            for region in ("full", "in", "out"):
                index, bounds = trees._row_cells(region)
                assert index.dtype == bounds.dtype == np.intp
                assert not index.flags.writeable and not bounds.flags.writeable
                union = np.zeros(grid.shape, dtype=bool)
                for i, tree in enumerate(trees.trees):
                    rows = tree_membership(grid, tree, region)
                    assert np.array_equal(trees.cells(i, region), np.flatnonzero(rows))
                    union |= rows
                assert np.array_equal(trees._union(region), union.ravel())
            with pytest.raises(ValueError):
                trees.cells(0, "inner")


def test_dictionary_coverage_failure_raises():
    # strip tops at y = -8 and 8 only: the widest strip, at scale 3.2, leaves
    # the middle of the y axis uncovered
    grid = TFSGrid.build((-8.0, 8.0), 17, (-8.0, 8.0), 17, 0.1, 0.8, 2.0)
    with pytest.raises(ConfigurationError, match="does not cover"):
        StripDictionary.build(grid, y_stride=16)
    with pytest.raises(ConfigurationError, match="does not cover"):
        TreeDictionary.build(grid, THETA, THETA_IN, y_stride=16)
    StripDictionary.build(grid, y_stride=4)


@pytest.mark.parametrize("stride", [0, -1])
def test_dictionary_stride_below_one_is_rejected(stride):
    # a negative stride would reverse the tops, a zero one cannot slice
    grid = small_grid()
    for name in ("eta_stride", "y_stride"):
        with pytest.raises(ConfigurationError, match=name):
            TreeDictionary.build(grid, THETA, THETA_IN, **{name: stride})
    with pytest.raises(ConfigurationError, match="y_stride"):
        StripDictionary.build(grid, y_stride=stride)


def test_field_validation_and_restrict():
    grid = small_grid()
    space = NormedSpace(2, 2.0)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=grid.shape + (2,)) + 1j * rng.normal(size=grid.shape + (2,))
    field = OuterField(grid, vals, space)
    assert field.norms().shape == grid.shape
    with pytest.raises(ConfigurationError):
        OuterField(grid, vals[..., :1], space)
    bad = vals.copy()
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ConfigurationError):
        OuterField(grid, bad, space)
    mask = tree_membership(grid, Tree(0.0, 0.0, 1.0, THETA, THETA_IN))
    restricted = field.restrict(mask)
    assert np.all(restricted.values[~mask] == 0.0)
    assert np.array_equal(restricted.values[mask], field.values[mask])
    with pytest.raises(ValueError):
        field.restrict(mask[:2])


def test_field_io_round_trip(tmp_path):
    grid = small_grid()
    space = NormedSpace(3, 1.5)
    rng = np.random.default_rng(7)
    vals = rng.normal(size=grid.shape + (3,)) + 1j * rng.normal(size=grid.shape + (3,))
    field = OuterField(grid, vals, space)
    path = tmp_path / "field.vcf"
    dump_field(field, path)
    loaded = load_field(path)
    assert np.array_equal(loaded.values, field.values)
    assert np.array_equal(loaded.grid.eta, grid.eta)
    assert np.array_equal(loaded.grid.t, grid.t)
    assert loaded.space == space

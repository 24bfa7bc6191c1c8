import itertools
import math

import numpy as np
import pytest

from varcarleson import cli, outersize
from varcarleson.core import ConfigurationError, NormedSpace
from varcarleson.embedding import domination_dictionaries, theta_windows
from varcarleson.outersize import (
    CoverSelection,
    SizeSpec,
    greedy_cover_profile,
    iterated_quasinorm,
    local_size,
    outer_lp_quasinorm,
    outer_size,
    pairing_integral,
    size_holder_check,
    super_level_measure,
)
from varcarleson.tfs import (
    OuterField,
    StripDictionary,
    TFSGrid,
    Tree,
    TreeDictionary,
    strip_membership,
    tree_membership,
)

THETA = (-0.25, 1.125)
THETA_IN = (-0.25, 0.9)


def make_grid(steps=17):
    return TFSGrid.build((-2.0, 2.0), steps, (-2.0, 2.0), steps, 0.1, 0.8, 2.0)


def make_field(grid, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    e, y, t = np.meshgrid(grid.eta, grid.y, grid.t, indexing="ij")
    envelope = np.exp(-2.0 * (e - 0.4) ** 2 - 2.0 * (y + 0.3) ** 2 - np.log(t / 0.3) ** 2)
    noise = rng.normal(size=grid.shape + (dim,)) + 1j * rng.normal(size=grid.shape + (dim,))
    return OuterField(grid, envelope[..., None] * noise, NormedSpace(dim, 2.0))


@pytest.fixture(scope="module")
def setting():
    grid = make_grid()
    field = make_field(grid)
    trees = TreeDictionary.build(grid, THETA, THETA_IN, eta_stride=2, y_stride=2)
    strips = StripDictionary.build(grid, y_stride=4)
    return grid, field, trees, strips


def test_size_spec_validation():
    with pytest.raises(ConfigurationError):
        SizeSpec("energy")
    with pytest.raises(ConfigurationError):
        SizeSpec("lp")  # missing exponent
    with pytest.raises(ConfigurationError):
        SizeSpec("lp", 0.5)
    with pytest.raises(ConfigurationError):
        SizeSpec("lp", 2.0, "boundary")
    with pytest.raises(ConfigurationError):
        SizeSpec("f", 2.0)
    with pytest.raises(ConfigurationError):
        SizeSpec("r")


def test_local_lp_size_recomputation(setting):
    grid, field, trees, _ = setting
    tree = trees.trees[100]
    for exponent in (1.0, 2.0, 3.0):
        spec = SizeSpec("lp", exponent, "full")
        mask = tree_membership(grid, tree)
        expect = (
            (grid.cell_weights()[mask] * field.norms()[mask] ** exponent).sum() / tree.s
        ) ** (1.0 / exponent)
        assert local_size(field, tree, spec) == pytest.approx(expect, rel=1e-12)
    mask = tree_membership(grid, tree)
    assert local_size(field, tree, SizeSpec("lp", math.inf)) == pytest.approx(
        field.norms()[mask].max(), rel=1e-12
    )


def test_indicator_size_approaches_model_volume():
    # constant field on a tree whose window image stays inside the grid at
    # every scale: the L1 size tends to the model volume
    # |Theta| * sum_k 2 (1 - sigma_k) log(ratio) as eta/y resolution grows
    tree = Tree(0.0, 0.0, 1.0, (-0.2, 0.16), (-0.2, 0.1))
    sizes = []
    for steps in (17, 33, 65, 129):
        grid = make_grid(steps)
        ones = OuterField(grid, np.ones(grid.shape + (1,), dtype=complex), NormedSpace(1, 2.0))
        sizes.append(local_size(ones, tree, SizeSpec("lp", 1.0, "full")))
    sig = np.array([0.1, 0.2, 0.4, 0.8])
    expect = 0.36 * (2.0 * (1.0 - sig) * np.log(2.0)).sum()
    errs = [abs(s - expect) / expect for s in sizes]
    assert errs[3] < errs[0]
    assert errs[3] < 0.1


def test_energy_size_equals_l2_out(setting):
    # the composites' energy part goes through the duality pairing
    grid, field, trees, _ = setting
    checked = 0
    for tree in trees.trees[::7]:
        via_norms = local_size(field, tree, SizeSpec("lp", 2.0, "out"))
        if via_norms > 0.0:
            checked += 1
            sup_full = local_size(field, tree, SizeSpec("lp", math.inf, "full"))
            l1_in = local_size(field, tree, SizeSpec("lp", 1.0, "in"))
            via_f = local_size(field, tree, SizeSpec("f")) - sup_full
            via_fstar = local_size(field, tree, SizeSpec("fstar")) - l1_in
            assert via_f == pytest.approx(via_norms, rel=1e-12)
            assert via_fstar == pytest.approx(via_norms, rel=1e-12)
    assert checked >= 5


def test_composite_sizes_are_sums_of_parts(setting):
    grid, field, trees, _ = setting
    tree = trees.trees[150]
    l2_out = local_size(field, tree, SizeSpec("lp", 2.0, "out"))
    sup_full = local_size(field, tree, SizeSpec("lp", math.inf, "full"))
    l1_in = local_size(field, tree, SizeSpec("lp", 1.0, "in"))
    assert local_size(field, tree, SizeSpec("f")) == pytest.approx(l2_out + sup_full, rel=1e-12)
    assert local_size(field, tree, SizeSpec("fstar")) == pytest.approx(l2_out + l1_in, rel=1e-12)


def test_outer_size_is_max_local(setting):
    grid, field, trees, _ = setting
    spec = SizeSpec("lp", 2.0, "full")
    expect = max(local_size(field, t, spec) for t in trees.trees)
    assert outer_size(field, trees, spec) == pytest.approx(expect, rel=1e-12)


def test_greedy_profile_structure(setting):
    grid, field, trees, _ = setting
    spec = SizeSpec("lp", 2.0, "full")
    top = outer_size(field, trees, spec)
    profile = greedy_cover_profile(field, trees, spec, stop_below=top / 1e3)
    assert profile.sizes[0] == pytest.approx(top, rel=1e-12)
    assert len(set(profile.order)) == len(profile.order)
    assert all(a >= b for a, b in zip(profile.sizes, profile.sizes[1:]))
    assert all(a < b for a, b in zip(profile.prefix_costs, profile.prefix_costs[1:]))


def oracle_replay(field, trees, spec, order):
    """Replay a pick order, recomputing every live size with local_size.

    Before each pick of ``order`` the residual field is re-restricted and every
    live tree re-measured; returns per pick the oracle's own choice under the
    greedy tie rule with its size, the oracle size of the replayed pick, and
    the oracle's largest live size after the last pick.
    """
    alive = np.ones(field.grid.shape, dtype=bool)
    live = set(range(len(trees)))
    own, replayed = [], []
    for pick in tuple(order) + (None,):
        residual = field.restrict(alive)
        vals = {i: local_size(residual, trees.trees[i], spec) for i in live}
        # largest size, then larger scale, then top closer to the origin, then smaller index
        best = max(live, key=lambda i: (vals[i], trees.trees[i].s, -abs(trees.trees[i].x), -i))
        if pick is None:
            return own, replayed, vals[best]
        own.append((best, vals[best]))
        replayed.append(vals[pick])
        alive &= ~tree_membership(field.grid, trees.trees[pick])
        live.remove(pick)


@pytest.mark.parametrize(
    "spec, flips",
    [
        (SizeSpec("lp", 2.0, "full"), {}),
        # at picks 6, 9 and 10 two trees of one scale have equal sizes (same
        # live out cells, same sup); their decremented energy numerators differ
        # in the last bits and the engine takes the top the tie rule ranks second
        (SizeSpec("f"), {6: (262, 261), 9: (271, 270), 10: (346, 347)}),
        (SizeSpec("fstar"), {}),
        (SizeSpec("lp", math.inf, "full"), {}),
        (SizeSpec("lp", math.inf, "in"), {}),
    ],
    ids=["lp2", "f", "fstar", "sup_full", "sup_in"],
)
def test_greedy_matches_recomputing_oracle(setting, spec, flips):
    grid, field, trees, _ = setting
    top = outer_size(field, trees, spec)
    profile = greedy_cover_profile(field, trees, spec, stop_below=top / 1e3)
    own, replayed, rest = oracle_replay(field, trees, spec, profile.order)
    # decremented numerators keep an absolute error of a few ulps of their
    # first values, so late, small sizes are compared relative to the top
    tol = 1e-12 * top
    assert np.allclose(profile.sizes, replayed, rtol=0.0, atol=tol)
    if spec.exponent == math.inf:  # a max has no rounding
        assert list(profile.sizes) == replayed
    assert rest <= top / 1e3  # the engine stops where the oracle would
    differ = {k: (best, pick) for k, ((best, _), pick) in enumerate(zip(own, profile.order))
              if best != pick}
    assert differ == flips
    for k in differ:
        assert abs(own[k][1] - replayed[k]) <= tol  # a tie, not a wrong pick


def test_iterated_evaluates_only_touched_live_strips(setting, monkeypatch):
    # every strip once up front, then after each pick only the live strips
    # that overlap the removed cells: 70 inner quasinorms on this fixture
    grid, field, trees, strips = setting
    calls = []
    inner = outersize._lp_quasinorm

    def counting(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(outersize, "_lp_quasinorm", counting)
    iterated_quasinorm(field, trees, strips, SizeSpec("lp", 2.0, "full"), 2.0, 2.0)
    assert len(strips) == 25
    assert len(calls) == 70


@pytest.mark.parametrize(
    "spec", [SizeSpec("lp", 2.0, "full"), SizeSpec("f"), SizeSpec("fstar")],
    ids=["lp2", "f", "fstar"],
)
@pytest.mark.parametrize("q", [2.0, 1.5, math.inf], ids=["q2", "q1.5", "qinf"])
def test_zeroed_terms_match_restricted_field(setting, spec, q):
    # a strip's inner quasinorm from the whole field's terms zeroed off its
    # live cells equals the quasinorm of the restricted field, bit for bit
    grid, field, trees, strips = setting
    subsets = outersize._strip_subsets(trees, strips)
    stack = np.stack([strip_membership(grid, strip).ravel() for strip in strips.strips])
    norms, terms = outersize._size_terms(field, spec)
    rng = np.random.default_rng(17)
    masks = [np.ones(stack.shape[1], dtype=bool)]
    masks += [rng.random(stack.shape[1]) < share for share in (0.8, 0.5)]
    positive = 0
    for alive in masks:
        for i, sub in enumerate(subsets):
            keep = stack[i] & alive
            fast = outersize._lp_quasinorm(sub, *outersize._zeroed(keep, norms, terms), q)
            restricted = field.restrict(keep.reshape(grid.shape))
            assert fast == outer_lp_quasinorm(restricted, sub, spec, q)
            positive += fast > 0.0
    assert positive >= len(subsets)


def test_lex_pick_matches_full_lexsort():
    # random sizes, with ties planted in size, scale and offset at once
    rng = np.random.default_rng(23)
    tied = 0
    for trial in range(600):
        n = int(rng.integers(1, 30))
        if trial % 2:
            vals = rng.choice([0.0, 0.5, 1.0], n)
        else:
            vals = rng.random(n)
        scales = rng.choice([0.5, 1.0, 2.0], n)
        offsets = rng.choice([0.0, 1.0, 2.0], n)
        live = rng.random(n) < 0.7
        live[rng.integers(n)] = True
        cand = np.where(live, vals, -np.inf)
        expect = int(np.lexsort((-np.arange(n), -offsets, scales, cand))[-1])
        assert outersize._lex_pick(vals, scales, offsets, live) == expect
        tied += int((cand == cand.max()).sum() > 1)
    assert tied >= 100


def membership_rows(dictionary, region):
    """The dense (n_trees, n_cells) incidence from the one-tree membership rule (oracle)."""
    grid = dictionary.grid
    rows = [tree_membership(grid, tree, region).ravel() for tree in dictionary.trees]
    return np.array(rows, dtype=bool).reshape(len(dictionary), math.prod(grid.shape))


def dense_region_max(dictionary, region, density):
    """The region max over the membership rows (oracle for ``_region_reduce(np.maximum, ...)``)."""
    return np.where(membership_rows(dictionary, region), density, 0.0).max(axis=1)


def nodeless_tree(grid):
    """A tree whose top scale is the grid's smallest t: sigma >= 1 everywhere, so it has no node."""
    tree = Tree(0.0, 0.0, float(grid.t[0]), THETA, THETA_IN)
    assert not tree_membership(grid, tree).any()
    return tree


@pytest.fixture(scope="module")
def ref_dictionaries():
    """The tree dictionaries of ``vc verify holder|domination --preset ref``."""
    settings = cli.resolve_config("verify", preset="ref").settings
    table = cli._table_from(settings)
    holder, domination = settings["holder"], settings["domination"]
    theta, theta_in = theta_windows(table, +1)
    trees = TreeDictionary.build(
        cli._grid_from(holder["grid"]), theta, theta_in,
        eta_stride=int(holder["eta_stride"]), y_stride=int(holder["y_stride"]),
    )
    signed = domination_dictionaries(
        cli._grid_from(domination["grid"]), table,
        eta_stride=int(domination["eta_stride"]), y_stride=int(domination["y_stride"]),
    )
    return {"holder": trees, "domination+": signed[+1], "domination-": signed[-1]}


@pytest.mark.parametrize("name", ["holder", "domination+", "domination-"])
def test_region_max_matches_dense_oracle(ref_dictionaries, name):
    dictionary = ref_dictionaries[name]
    cells = math.prod(dictionary.grid.shape)
    rng = np.random.default_rng(5)
    density = rng.random(cells)
    density[rng.random(cells) < 0.4] = 0.0  # exact zeros
    empty_rows = 0
    for region in ("full", "in", "out"):
        for dens in (density, np.zeros(cells)):
            fast = outersize._region_reduce(np.maximum, dictionary, region, dens)
            assert np.array_equal(fast, dense_region_max(dictionary, region, dens))
        empty_rows += int((~membership_rows(dictionary, region).any(axis=1)).sum())
    assert empty_rows > 0  # the out regions have trees without cells


@pytest.mark.parametrize("name", ["holder", "domination+", "domination-"])
def test_region_sum_matches_dense_oracle(ref_dictionaries, name):
    # the segment sums of a full size evaluation against the dense product
    dictionary = ref_dictionaries[name]
    cells = math.prod(dictionary.grid.shape)
    rng = np.random.default_rng(5)
    density = rng.random(cells)
    density[rng.random(cells) < 0.4] = 0.0  # exact zeros
    for region in ("full", "in", "out"):
        mat = membership_rows(dictionary, region)
        fast = outersize._sizes_over(dictionary, [(region, 1.0, density)])
        dense = (mat @ density) / dictionary.scales
        assert np.allclose(fast, dense, rtol=1e-13, atol=0.0)
        assert np.all(fast[~mat.any(axis=1)] == 0.0)
        zero = outersize._sizes_over(dictionary, [(region, 1.0, np.zeros(cells))])
        assert np.all(zero == 0.0)


def test_region_max_reads_zero_on_an_empty_row(setting):
    grid, field, trees, _ = setting
    hand = TreeDictionary(grid, (trees.trees[100], nodeless_tree(grid), trees.trees[150]))
    density = field.norms().ravel()
    for region in ("full", "in", "out"):
        fast = outersize._region_reduce(np.maximum, hand, region, density)
        assert fast[1] == 0.0
        assert np.array_equal(fast, dense_region_max(hand, region, density))


def assert_sup_size_is_largest_tree_max(field, dictionary):
    """The sup outer size over the union of the trees against the per-tree maxima."""
    for region in ("full", "in", "out"):
        spec = SizeSpec("lp", math.inf, region)
        terms = outersize._size_terms(field, spec)[1]
        per_tree = float(outersize._sizes_over(dictionary, terms).max(initial=0.0))
        assert outer_size(field, dictionary, spec) == per_tree


@pytest.mark.parametrize("name", ["holder", "domination+", "domination-"])
def test_sup_size_is_largest_tree_max(ref_dictionaries, name):
    dictionary = ref_dictionaries[name]
    grid = dictionary.grid
    rng = np.random.default_rng(11)
    field = make_field(grid, seed=4)
    holes = np.where((rng.random(grid.shape) < 0.4)[..., None], 0.0, field.values)
    sparse = OuterField(grid, holes, field.space)  # exact zeros
    zero = OuterField(grid, np.zeros_like(field.values), field.space)
    # zeroed on the union of a few trees, as a domination draw excludes them
    picks = rng.choice(len(dictionary), size=3, replace=False)
    excluded = np.any([tree_membership(grid, dictionary.trees[i]) for i in picks], axis=0)
    for case in (field, sparse, zero, field.restrict(~excluded)):
        assert_sup_size_is_largest_tree_max(case, dictionary)
    assert outer_size(zero, dictionary, SizeSpec("lp", math.inf)) == 0.0


def test_sup_size_reads_only_a_sub_dictionary_s_cells(ref_dictionaries):
    # a strip's sub-dictionary can leave cells uncovered: a peak there is not its size
    trees = ref_dictionaries["holder"]
    grid = trees.grid
    stride = cli.resolve_config("verify", preset="ref").settings["holder"]["strip_stride"]
    strips = StripDictionary.build(grid, y_stride=int(stride))
    subsets = outersize._strip_subsets(trees, strips)
    sub = max(subsets, key=lambda d: np.count_nonzero(~d._union("full")))
    outside = np.flatnonzero(~sub._union("full"))
    assert 0 < len(sub) < len(trees) and outside.size > 0
    field = make_field(grid, seed=6)
    values = field.values.copy().reshape(-1, field.space.dim)
    values[outside[0]] = 10.0 * field.norms().max()
    peaked = OuterField(grid, values.reshape(field.values.shape), field.space)
    assert_sup_size_is_largest_tree_max(peaked, sub)
    sup = outer_size(peaked, sub, SizeSpec("lp", math.inf))
    assert 0.0 < sup < peaked.norms().max()


def test_sup_size_with_empty_rows(setting):
    grid, field, trees, _ = setting
    nodeless = nodeless_tree(grid)
    hand = TreeDictionary(grid, (trees.trees[100], nodeless, trees.trees[150]))
    assert_sup_size_is_largest_tree_max(field, hand)
    empty = TreeDictionary(grid, (nodeless,))
    assert_sup_size_is_largest_tree_max(field, empty)
    assert outer_size(field, empty, SizeSpec("lp", math.inf)) == 0.0


def stored_arrays(dictionary):
    """Every array a dictionary keeps in its attributes, through dicts and tuples."""
    pending, found = list(vars(dictionary).values()), []
    while pending:
        item = pending.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, dict):
            pending.extend(item.values())
        elif isinstance(item, tuple):
            pending.extend(item)
    return found


def test_dictionaries_store_no_dense_incidence():
    # a dictionary keeps per-element tops, cell indices and grid-sized
    # cell masks, never an (n_elements x n_cells) array, before and after use
    grid = make_grid()
    field = make_field(grid)
    cells = math.prod(grid.shape)
    trees = TreeDictionary.build(grid, THETA, THETA_IN, eta_stride=2, y_stride=2)
    strips = StripDictionary.build(grid, y_stride=4)

    def check(dictionary):
        arrays = stored_arrays(dictionary)
        assert arrays
        for arr in arrays:
            assert arr.ndim == 1 and not arr.flags.writeable
            if arr.dtype == bool:
                assert arr.size == cells
            elif arr.dtype == float:
                assert arr.size == len(dictionary)
            else:
                assert arr.dtype == np.intp

    check(trees)
    check(strips)
    for spec in (SizeSpec("f"), SizeSpec("fstar"), SizeSpec("lp", math.inf, "in")):
        greedy_cover_profile(field, trees, spec)
        outer_size(field, trees, spec)
    iterated_quasinorm(field, trees, strips, SizeSpec("f"), 2.0, 2.0)
    assert set(trees._cells) == set(trees._unions) == {"full", "in", "out"}
    assert set(strips._cells) == {"full"}
    for dictionary in (trees, strips, *outersize._strip_subsets(trees, strips)):
        check(dictionary)


@pytest.mark.parametrize(
    "spec", [SizeSpec("lp", 2.0, "full"), SizeSpec("f"), SizeSpec("fstar")],
    ids=["lp2", "f", "fstar"],
)
@pytest.mark.parametrize("p, q", [(2.0, 2.0), (3.0, 1.5)], ids=["p2q2", "p3q1.5"])
def test_strip_local_covers_match_whole_dictionary(setting, monkeypatch, spec, p, q):
    grid, field, trees, strips = setting
    subsets = outersize._strip_subsets(trees, strips)
    assert min(len(sub) for sub in subsets) < len(trees)  # strips do drop trees
    local = iterated_quasinorm(field, trees, strips, spec, p, q)
    monkeypatch.setattr(outersize, "_strip_subsets", lambda t, s: (t,) * len(s))
    assert iterated_quasinorm(field, trees, strips, spec, p, q) == local


def test_strip_meeting_no_tree_has_size_zero(setting, monkeypatch):
    grid, field, trees, strips = setting
    one = TreeDictionary(grid, (trees.trees[100],))
    assert min(len(sub) for sub in outersize._strip_subsets(one, strips)) == 0
    local = iterated_quasinorm(field, one, strips, SizeSpec("f"), 2.0, 2.0)
    assert local > 0.0
    monkeypatch.setattr(outersize, "_strip_subsets", lambda t, s: (t,) * len(s))
    assert iterated_quasinorm(field, one, strips, SizeSpec("f"), 2.0, 2.0) == local


@pytest.mark.parametrize(
    "spec",
    [SizeSpec("lp", 2.0, region) for region in ("full", "in", "out")]
    + [SizeSpec("lp", math.inf), SizeSpec("f"), SizeSpec("fstar")],
    ids=["lp2_full", "lp2_in", "lp2_out", "sup", "f", "fstar"],
)
@pytest.mark.parametrize("where", ["setting", "domination"])
def test_first_cover_size_is_outer_size(setting, ref_dictionaries, spec, where):
    # the cover's first round is the full evaluation whose largest value is
    # the outer size, so the two agree exactly
    if where == "setting":
        _, field, trees, _ = setting
    else:
        trees = ref_dictionaries["domination+"]
        field = make_field(trees.grid, seed=3)
    top = outer_size(field, trees, spec)
    profile = greedy_cover_profile(field, trees, spec, stop_below=top / 1e3)
    assert top > 0.0
    assert profile.sizes[0] == top


def looped_super_level_measure(selection, level):
    """The cost of the picks before the first size not above the level, by a loop (oracle)."""
    measure = 0.0
    for size, cost in zip(selection.sizes, selection.prefix_costs):
        if size > level:
            measure = cost
        else:
            break
    return measure


def test_super_level_measure_matches_loop(setting):
    grid, field, trees, _ = setting
    spec = SizeSpec("f")
    top = outer_size(field, trees, spec)
    profile = greedy_cover_profile(field, trees, spec, stop_below=top / 1e3)
    sizes = np.array(profile.sizes)
    levels = np.concatenate(
        [sizes, np.nextafter(sizes, 0.0), np.nextafter(sizes, np.inf),
         np.geomspace(top / 1e3, top, 64) * (1.0 - 1e-12), [0.0, 2.0 * top]]
    )
    expect = [looped_super_level_measure(profile, lam) for lam in levels]
    assert [super_level_measure(profile, lam) for lam in levels] == expect
    assert outersize._prefix_measures(profile, levels).tolist() == expect
    empty = CoverSelection((), (), ())
    assert outersize._prefix_measures(empty, levels).tolist() == [0.0] * levels.size


def test_level_grid_is_geomspace():
    rng = np.random.default_rng(11)
    tops = np.concatenate([rng.lognormal(0.0, 8.0, 4000), [1e-300, 1e300, 1e-320, 1.0, 1e3]])
    for top in tops.tolist():
        assert np.array_equal(outersize._level_grid(top), np.geomspace(top / 1e3, top, 64))
    for top in (5e-324, 1e-322):  # the lowest level underflows to 0, as geomspace refuses
        with pytest.raises(ValueError):
            outersize._level_grid(top)


def test_super_level_measure_monotone_and_certified(setting):
    grid, field, trees, _ = setting
    spec = SizeSpec("lp", 2.0, "full")
    top = outer_size(field, trees, spec)
    profile = greedy_cover_profile(field, trees, spec, stop_below=top / 1e3)
    levels = np.geomspace(top / 500.0, 2.0 * top, 17)
    mus = [super_level_measure(profile, lam) for lam in levels]
    assert all(a >= b for a, b in zip(mus, mus[1:]))
    assert super_level_measure(profile, top) == 0.0
    for lam in (0.6 * top, 0.15 * top):
        removed = np.zeros(grid.shape, dtype=bool)
        for idx, size in zip(profile.order, profile.sizes):
            if size > lam:
                removed |= tree_membership(grid, trees.trees[idx])
        assert outer_size(field.restrict(~removed), trees, spec) <= lam


def test_greedy_against_exhaustive_cover(setting):
    grid, field, trees, _ = setting
    spec = SizeSpec("lp", 2.0, "full")
    step = len(trees.trees) // 12
    picked = tuple(range(0, 12 * step, step))
    sub = TreeDictionary(grid=grid, trees=tuple(trees.trees[i] for i in picked))
    rows = [tree_membership(grid, tree) for tree in sub.trees]
    profile = greedy_cover_profile(field, sub, spec)
    top = outer_size(field, sub, spec)
    for lam in (0.5 * top, 0.1 * top):
        greedy_cost = super_level_measure(profile, lam)
        best = math.inf
        for r in range(13):
            for combo in itertools.combinations(range(12), r):
                removed = np.zeros(grid.shape, dtype=bool)
                for i in combo:
                    removed |= rows[i]
                if outer_size(field.restrict(~removed), sub, spec) <= lam:
                    best = min(best, sum(sub.trees[i].s for i in combo))
        assert greedy_cost <= (1.0 + math.log(12)) * best + 1e-12


def test_quasinorm_homogeneity(setting):
    grid, field, trees, _ = setting
    spec = SizeSpec("lp", 2.0, "full")
    base = outer_lp_quasinorm(field, trees, spec, 2.0)
    for c in (4.0, 3.0):
        scaled = OuterField(grid, c * field.values, field.space)
        val = outer_lp_quasinorm(scaled, trees, spec, 2.0)
        assert abs(val - c * base) <= 1e-10 * c * base


def test_linf_quasinorm_is_outer_size(setting):
    grid, field, trees, _ = setting
    spec = SizeSpec("lp", 2.0, "full")
    assert outer_lp_quasinorm(field, trees, spec, math.inf) == outer_size(field, trees, spec)


def test_single_tree_closed_form(setting):
    grid, field, trees, _ = setting
    spec = SizeSpec("lp", 2.0, "full")
    one = TreeDictionary(grid=grid, trees=(trees.trees[100],))
    numeric = outer_lp_quasinorm(field, one, spec, 2.0)
    closed = outer_size(field, one, spec) * trees.trees[100].s ** 0.5
    assert numeric == pytest.approx(closed, rel=1e-2)


def test_restriction_is_almost_monotone(setting):
    grid, field, trees, _ = setting
    spec = SizeSpec("lp", 2.0, "full")
    full = outer_lp_quasinorm(field, trees, spec, 2.0)
    rng = np.random.default_rng(13)
    for _ in range(3):
        mask = rng.random(grid.shape) < 0.6
        restricted = outer_lp_quasinorm(field.restrict(mask), trees, spec, 2.0)
        assert restricted <= full * 1.01  # slack for the level-grid quadrature


def test_iterated_single_strip_reduction(setting):
    grid, field, trees, strips = setting
    spec = SizeSpec("lp", 2.0, "full")
    one = StripDictionary(grid=grid, strips=(strips.strips[3],))
    lhs = iterated_quasinorm(field, trees, one, spec, 3.0, 2.0)
    restricted = field.restrict(strip_membership(grid, strips.strips[3]))
    inner = outer_lp_quasinorm(restricted, trees, spec, 2.0)
    closed = strips.strips[3].s ** (1.0 / 3.0 - 1.0 / 2.0) * inner
    assert lhs == pytest.approx(closed, rel=1e-2)


def test_iterated_quasinorm_homogeneity(setting):
    grid, field, trees, strips = setting
    spec = SizeSpec("lp", 2.0, "full")
    base = iterated_quasinorm(field, trees, strips, spec, 2.0, 2.0)
    scaled = OuterField(grid, 4.0 * field.values, field.space)
    val = iterated_quasinorm(scaled, trees, strips, spec, 2.0, 2.0)
    assert abs(val - 4.0 * base) <= 1e-10 * 4.0 * base


def test_pairing_integral_and_bound(setting):
    grid, field, trees, _ = setting
    other = make_field(grid, seed=21)
    pairing = pairing_integral(field, other)
    w = grid.cell_weights()
    direct = (w * np.abs((field.values * other.values.conj()).sum(axis=-1))).sum()
    assert pairing == pytest.approx(float(direct), rel=1e-12)
    cauchy = (w * field.norms() * other.norms()).sum()
    assert pairing <= float(cauchy) * (1.0 + 1e-12)
    with pytest.raises(ValueError):
        pairing_integral(field, make_field(grid, seed=1, dim=3))


def test_holder_check_full_and_lebesgue(setting):
    grid, field, trees, strips = setting
    other = make_field(grid, seed=22)
    full = size_holder_check(field, other, trees, p=2.0)
    assert full["ratio"] > 0.0 and np.isfinite(full["ratio"])
    assert not full["infinite"]
    lebesgue = size_holder_check(field, other, trees, strips, kind="lebesgue", p=2.0, q=2.0)
    assert lebesgue["ratio"] > 0.0 and np.isfinite(lebesgue["ratio"])
    assert not lebesgue["infinite"]


def test_holder_check_flags_degenerate_bound(setting):
    grid, field, trees, _ = setting
    # a dictionary of one far-away tree sees none of the mass, so the right
    # norm vanishes while the pairing does not
    lonely = Tree(0.0, 0.0, 0.15, THETA, THETA_IN)
    mask = tree_membership(grid, lonely)
    off = field.restrict(~mask)
    tiny = TreeDictionary(grid=grid, trees=(lonely,))
    result = size_holder_check(off, off, tiny, p=2.0)
    assert result["pairing"] > 0.0
    assert result["rhs_norm"] == 0.0
    assert result["infinite"] and result["ratio"] == math.inf


def test_domain_errors(setting):
    grid, field, trees, strips = setting
    spec = SizeSpec("lp", 2.0, "full")
    with pytest.raises(ConfigurationError):
        outer_lp_quasinorm(field, trees, spec, 0.0)
    with pytest.raises(ConfigurationError):
        size_holder_check(field, field, trees, p=1.0)
    with pytest.raises(ConfigurationError):
        size_holder_check(field, field, trees, kind="lebesgue", p=2.0, q=2.0)
    with pytest.raises(ConfigurationError):
        size_holder_check(field, field, trees, strips, kind="lebesgue", p=2.0, q=1.0)
    with pytest.raises(ConfigurationError):
        size_holder_check(field, field, trees, kind="weak", p=2.0)
    with pytest.raises(ValueError, match="trees only"):
        local_size(field, strips.strips[0], SizeSpec("f"))
    with pytest.raises(ValueError):
        CoverSelection((0,), (1.0,), ())

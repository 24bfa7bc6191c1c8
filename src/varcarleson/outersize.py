"""Outer measures on time-frequency-scale space: sizes, covers, quasinorms.

The outer measure is generated by trees (measure: top scale).  A *size*
assigns each tree a local average of a field over its nodes; the outer
essential supremum is the largest local size over a dictionary.  Super-level
measures come from a greedy cover: repeatedly remove the tree whose local
size of the remaining field is largest, recording the removal costs.  The
pick sequence does not depend on the level, so one profile serves every
level and the outer Lebesgue quasinorm is a weighted integral of the prefix
costs over 64 logarithmically spaced levels.  Iterated quasinorms run the
same engine at strip level with the strip-localized, scale-normalized inner
quasinorm as the size; each strip's inner cover runs on only the trees that
meet the strip.  Everything reads a dictionary's incidence off its per-row
cell index (see :mod:`varcarleson.tfs`).  The outer size of a pure sup size
is the largest density over the dictionary's covered cells (the union of its
trees' region cells), which is exactly the largest per-tree max.  Every other
full size evaluation is one segment sum or max per tree.  The cover's
decrements (its sizes from the second round on) seed their numerators by one
product of a boolean submatrix scattered from the index, then remove exactly.

Each quasinorm call builds the field's size terms once, and the top and the
cover share them.  The full evaluation whose largest value is the top is also
the cover's first round, so the first recorded size is the outer size.  A
strip's densities are the field's densities zeroed off the strip's live
cells, which equals restricting the field, since every term is per cell and
a zeroed cell gives exact zeros.  ``tests/test_outersize.py`` pins both
against the restricted-field route
(``test_zeroed_terms_match_restricted_field``), the argmax pick against the
full tie-rule lexsort (``test_lex_pick_matches_full_lexsort``), the segment
sums against the dense product of the one-tree membership rows
(``test_region_sum_matches_dense_oracle``),
the sup over the covered cells against the per-tree maxima
(``test_sup_size_is_largest_tree_max``) and the first recorded size against
the outer size (``test_first_cover_size_is_outer_size``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, _ratio, dual_exponent, duality_pairing
from .tfs import (
    OuterField,
    Strip,
    StripDictionary,
    Tree,
    TreeDictionary,
    strip_membership,
    tree_membership,
)

__all__ = [
    "SizeSpec",
    "local_size",
    "outer_size",
    "CoverSelection",
    "greedy_cover_profile",
    "super_level_measure",
    "outer_lp_quasinorm",
    "iterated_quasinorm",
    "pairing_integral",
    "size_holder_check",
]

_LEVELS = 64  # log-spaced super-levels per quasinorm integral
_LEVEL_SPAN = 1e3  # lowest level = top level / span
_LEFT_LIMIT = 1.0 - 1e-12  # sample measures just below each level


@dataclass(frozen=True)
class SizeSpec:
    """Which local size to use: plain lp over a tree region, or a composite.

    ``lp`` takes an exponent (>= 1 or inf) and a region (full/in/out).  The
    composites share an energy part, the L2 average over the out part
    computed through the duality pairing rather than the norm evaluator:
    ``f`` adds the sup over the full tree to it, ``fstar`` the L1 average
    over the in part.
    """

    kind: str
    exponent: float | None = None
    region: str = "full"

    def __post_init__(self):
        if self.kind not in ("lp", "f", "fstar"):
            raise ConfigurationError(f"unknown size kind {self.kind!r}")
        if self.kind == "lp":
            if self.exponent is None or not (
                self.exponent >= 1.0 or math.isinf(self.exponent)
            ):
                raise ConfigurationError("lp size needs an exponent >= 1 (or inf)")
            if self.region not in ("full", "in", "out"):
                raise ConfigurationError(f"unknown tree region {self.region!r}")
        elif self.exponent is not None:
            raise ConfigurationError(f"size kind {self.kind!r} takes no exponent")


def _size_terms(field: OuterField, spec: SizeSpec) -> tuple:
    """The flat cell norms of the field and its size as (region, exponent, density) terms.

    A finite exponent p makes a term (region sum of the density / measure)^(1/p)
    with the density already raised to p; p = inf makes it the region max of
    the density.  ``f`` and ``fstar`` are the energy term (L2 over the out
    part) plus the sup over the full tree or the L1 average over the in part.
    Every density is a per-cell value, so a field zeroed off some cells has
    exactly the terms of :func:`_zeroed`.
    """
    norms = field.norms().ravel()
    weights = field.grid.cell_weights().ravel()

    def lp(exponent: float, region: str) -> tuple:
        return (region, exponent, norms if math.isinf(exponent) else weights * norms**exponent)

    if spec.kind == "lp":
        return norms, [lp(spec.exponent, spec.region)]
    # energy density through the duality pairing, not the norm evaluator
    quad = np.real(duality_pairing(field.values, field.values)).ravel()
    energy = ("out", 2.0, weights * quad)
    extra = lp(math.inf, "full") if spec.kind == "f" else lp(1.0, "in")
    return norms, [energy, extra]


def _zeroed(keep: np.ndarray, norms: np.ndarray, terms: list) -> tuple:
    """Norms and terms of the field zeroed off the flat cell mask ``keep``.

    Equal to the terms of ``field.restrict(keep)``: a zeroed cell has norm,
    pairing and weighted power exactly 0, and a kept cell keeps its value.
    """
    zeroed = [(region, exponent, np.where(keep, dens, 0.0)) for region, exponent, dens in terms]
    return np.where(keep, norms, 0.0), zeroed


def _region_reduce(ufunc, dictionary, region: str, values: np.ndarray) -> np.ndarray:
    """``ufunc`` (``np.add`` or ``np.maximum``) over each element's region cells of ``values``.

    One segment reduction over the dictionary's per-row cell index, whose
    leading sentinel cell reads an appended 0 (False), which changes no sum
    or max: an element with no cell reads 0.  A max is exact; on a cell mask
    it tells which elements meet the mask.
    """
    index, bounds = dictionary._row_cells(region)
    return ufunc.reduceat(np.append(values, np.zeros(1, values.dtype))[index], bounds[:-1])


def _cell_mask(cells: np.ndarray, size: int) -> np.ndarray:
    """The flat boolean mask of ``size`` cells that holds exactly ``cells``."""
    mask = np.zeros(size, dtype=bool)
    mask[cells] = True
    return mask


def _sizes_over(dictionary: TreeDictionary, terms: list) -> np.ndarray:
    """Local sizes of every tree: one segment sum or max per term over the per-row cell index."""
    measures = dictionary.scales
    parts = []
    for region, exponent, density in terms:
        if math.isinf(exponent):
            parts.append(_region_reduce(np.maximum, dictionary, region, density))
        else:
            sums = _region_reduce(np.add, dictionary, region, density)
            parts.append((np.maximum(sums, 0.0) / measures) ** (1.0 / exponent))
    return sum(parts[1:], parts[0])


def _region_mask(field: OuterField, element, region: str) -> np.ndarray:
    if isinstance(element, Tree):
        return tree_membership(field.grid, element, region)
    if isinstance(element, Strip):
        if region != "full":
            raise ValueError("strips have no in/out split")
        return strip_membership(field.grid, element)
    raise TypeError(f"expected Tree or Strip, got {type(element).__name__}")


def local_size(field: OuterField, element, spec: SizeSpec) -> float:
    """Local average of the field over one tree (or strip), per ``spec``.

    Evaluates one element from its membership mask, independently of the
    dictionary cell index that :func:`outer_size` and the covers read
    (oracle: used by tests/verify only).
    """
    measure = element.s

    def lp_part(exponent: float, region: str) -> float:
        mask = _region_mask(field, element, region)
        if not mask.any():
            return 0.0
        norms = field.norms()[mask]
        if math.isinf(exponent):
            return float(norms.max())
        total = float((field.grid.cell_weights()[mask] * norms**exponent).sum())
        return (total / measure) ** (1.0 / exponent)

    if spec.kind == "lp":
        return lp_part(spec.exponent, spec.region)
    if not isinstance(element, Tree):
        raise ValueError(f"size kind {spec.kind!r} is defined on trees only")
    mask = _region_mask(field, element, "out")
    quad = float(
        (
            field.grid.cell_weights()[mask]
            * np.real(duality_pairing(field.values[mask], field.values[mask]))
        ).sum()
    )
    energy = math.sqrt(max(quad, 0.0) / measure)
    if spec.kind == "f":
        return energy + lp_part(math.inf, "full")
    return energy + lp_part(1.0, "in")


def outer_size(field: OuterField, dictionary: TreeDictionary, spec: SizeSpec) -> float:
    """Outer essential supremum: the largest local size over the dictionary (0 if empty).

    A pure sup size (``lp`` with exponent inf) is the largest density over the
    union of the trees' region cells, which equals the largest per-tree max
    exactly; every other size takes the largest of the per-tree sizes.
    """
    terms = _size_terms(field, spec)[1]
    if len(terms) == 1 and math.isinf(terms[0][1]):
        region, _, density = terms[0]
        return float(density[dictionary._union(region)].max(initial=0.0))
    return float(_sizes_over(dictionary, terms).max(initial=0.0))


@dataclass(frozen=True)
class CoverSelection:
    """Greedy cover profile: pick order, sizes before removal, prefix costs."""

    order: tuple
    sizes: tuple
    prefix_costs: tuple

    def __post_init__(self):
        if not (len(self.order) == len(self.sizes) == len(self.prefix_costs)):
            raise ValueError("order, sizes, prefix_costs must align")


class _LinearPiece:
    """One additive size term with a cell density: decremented exactly.

    Numerators only ever decrease (densities are nonnegative), and integer
    support counts detect exact emptiness so fully removed elements report
    size zero without float residue.  The seed multiplies the supported
    densities by the region's incidence on those cells, scattered from the index.
    """

    def __init__(self, dictionary, region: str, support: np.ndarray, density: np.ndarray):
        rows, cols = len(dictionary), support.size
        # the column of each cell; other cells and the index's sentinel -1 go to a spare one
        self.colmap = np.full(density.size + 1, cols)
        self.colmap[support] = np.arange(cols)
        index, bounds = dictionary._row_cells(region)
        offsets = np.repeat(np.arange(rows) * (cols + 1), bounds[1:] - bounds[:-1])
        flat = np.zeros(rows * (cols + 1), dtype=bool)
        flat[offsets + self.colmap[index]] = True
        self.mat = np.ascontiguousarray(flat.reshape(rows, cols + 1)[:, :cols])
        # per supported cell its density and a 1 that counts it
        self.rhs = np.stack([density[support], np.ones(cols)], axis=1)
        acc = self.mat @ self.rhs
        self.numerators = acc[:, 0].copy()
        self.counts = np.rint(acc[:, 1]).astype(np.int64)

    def remove(self, cells: np.ndarray) -> None:
        cols = self.colmap[cells]
        cols = cols[cols < self.rhs.shape[0]]
        if cols.size == 0:
            return
        acc = self.mat[:, cols] @ self.rhs[cols]
        self.numerators -= acc[:, 0]
        self.counts -= np.rint(acc[:, 1]).astype(np.int64)

    def values(self) -> np.ndarray:
        out = np.maximum(self.numerators, 0.0)
        out[self.counts <= 0] = 0.0
        return out


def _spec_state(
    dictionary, norms: np.ndarray, terms: list, alive: np.ndarray, first: np.ndarray
):
    """Incremental sizes of every element as cells leave ``alive``.

    The first round's sizes are ``first``, the :func:`_sizes_over` of the
    whole field; later rounds read the decremented pieces.
    """
    support = np.flatnonzero(norms > 0.0)
    measures = dictionary.scales
    sups, pieces = [], []
    for region, exponent, density in terms:
        if math.isinf(exponent):
            sups.append((region, density))
        else:
            pieces.append((_LinearPiece(dictionary, region, support, density), exponent))

    pending = [first]

    def sizes() -> np.ndarray:
        if pending:
            return pending.pop()
        # a sup term is never listed before a sum term, so this is term order
        total = np.zeros(measures.size)
        for piece, exponent in pieces:
            total += (piece.values() / measures) ** (1.0 / exponent)
        for region, density in sups:
            total += _region_reduce(np.maximum, dictionary, region, np.where(alive, density, 0.0))
        return total

    def remove(cells: np.ndarray) -> None:
        for piece, _ in pieces:
            piece.remove(cells)

    return sizes, remove


def _lex_pick(vals: np.ndarray, scales: np.ndarray, offsets: np.ndarray, live: np.ndarray) -> int:
    """Largest size, ties to larger scale, then top closer to the origin,
    then the smaller index; ineligible elements carry -inf.

    A unique largest size is the ``argmax``; only tied sizes are lexsorted.
    """
    cand = np.where(live, vals, -np.inf)
    best = int(cand.argmax())
    top = cand == cand[best]
    if np.count_nonzero(top) <= 1:
        return best
    ties = np.flatnonzero(top)
    return int(ties[np.lexsort((-ties, -offsets[ties], scales[ties]))[-1]])


def _greedy(dictionary, sizes, remove, alive, live, stop_below: float) -> CoverSelection:
    """Repeatedly remove the live element of largest size until sizes fall.

    ``sizes()`` gives the current size of every element and ``remove(cells)``
    updates them once the flat ``cells`` of a pick have left the field; both
    may read ``alive`` (uncovered cells) and ``live`` (unpicked elements),
    which this loop clears before calling ``remove``.
    """
    measures = dictionary.scales
    order, picked, costs = [], [], []
    total = 0.0
    while live.any():
        vals = sizes()
        best = _lex_pick(vals, measures, dictionary.offsets, live)
        if vals[best] <= stop_below or vals[best] == 0.0:
            break
        order.append(best)
        picked.append(float(vals[best]))
        total += float(measures[best])
        costs.append(total)
        cells = dictionary.cells(best)
        cells = cells[alive[cells]]
        alive[cells] = False
        live[best] = False
        remove(cells)
    return CoverSelection(tuple(order), tuple(picked), tuple(costs))


def _cover(
    dictionary, norms: np.ndarray, terms: list, first: np.ndarray, stop_below: float
) -> CoverSelection:
    """Greedy cover of the field with the given norms, size terms and first-round sizes."""
    alive = np.ones(norms.size, dtype=bool)
    sizes, remove = _spec_state(dictionary, norms, terms, alive, first)
    live = np.ones(len(dictionary), dtype=bool)
    return _greedy(dictionary, sizes, remove, alive, live, stop_below)


def greedy_cover_profile(
    field: OuterField,
    dictionary: TreeDictionary,
    spec: SizeSpec,
    *,
    stop_below: float = 0.0,
) -> CoverSelection:
    """Level-independent greedy cover: always remove the largest local size.

    Ties break toward the larger top scale, then the top position closer to
    the origin.  The recorded sizes are nonincreasing, so the super-level
    measure at any level is a prefix cost, and the first one is
    :func:`outer_size`.
    """
    norms, terms = _size_terms(field, spec)
    return _cover(dictionary, norms, terms, _sizes_over(dictionary, terms), stop_below)


def _prefix_measures(selection: CoverSelection, levels: np.ndarray) -> np.ndarray:
    """Cover cost of the picks before the first recorded size not above each level."""
    above = np.array(selection.sizes, dtype=float)[None, :] > levels[:, None]
    first = np.logical_and.accumulate(above, axis=1).sum(axis=1)
    return np.concatenate(([0.0], selection.prefix_costs))[first]


def super_level_measure(selection: CoverSelection, level: float) -> float:
    """Total cover cost of the picks whose residual size exceeds the level."""
    return float(_prefix_measures(selection, np.array([level]))[0])


def _level_grid(top: float) -> np.ndarray:
    """``np.geomspace(top / _LEVEL_SPAN, top, _LEVELS)`` bit for bit, at a fraction of its cost.

    These are geomspace's own rounded steps: a linspace of the base-10 logs
    with its last end reset, the power, then both ends reset.
    """
    lowest = top / _LEVEL_SPAN
    if lowest == 0.0:
        raise ValueError("Geometric sequence cannot include zero")
    a, b = np.log10(lowest), np.log10(top)
    y = np.arange(float(_LEVELS)) * ((b - a) / (_LEVELS - 1))
    y += a
    y[-1] = b
    levels = 10.0**y
    levels[0], levels[-1] = lowest, top
    return levels


def _quasinorm(first: np.ndarray, p: float, cover) -> float:
    """Outer L^p quasinorm from the first-round sizes and a greedy profile.

    The top is the largest first-round size; p = inf returns it and a zero
    top returns 0.  Otherwise ``cover(stop_below)`` runs the greedy down to
    ``top / _LEVEL_SPAN`` and the measure's p-th moment is integrated over
    the level grid.
    """
    top = float(first.max(initial=0.0))
    if math.isinf(p):
        return top
    if top <= 0.0:
        return 0.0
    selection = cover(top / _LEVEL_SPAN)
    levels = _level_grid(top)
    # left limits: at the top level itself the measure has already dropped
    mu = _prefix_measures(selection, levels * _LEFT_LIMIT)
    integrand = p * levels**p * mu
    integral = float(np.trapezoid(integrand, np.log(levels)))
    # below the smallest level the measure is frozen at its last sampled value
    tail = mu[0] * levels[0] ** p
    return (integral + tail) ** (1.0 / p)


def _lp_quasinorm(dictionary, norms: np.ndarray, terms: list, p: float) -> float:
    """Outer L^p quasinorm from built size terms: the top, then the greedy profile."""
    first = _sizes_over(dictionary, terms)
    return _quasinorm(first, p, lambda stop: _cover(dictionary, norms, terms, first, stop))


def outer_lp_quasinorm(
    field: OuterField, dictionary: TreeDictionary, spec: SizeSpec, p: float
) -> float:
    """Outer Lebesgue quasinorm via the greedy super-level profile."""
    if not (p > 0.0):
        raise ConfigurationError(f"outer exponent must be positive, got {p}")
    return _lp_quasinorm(dictionary, *_size_terms(field, spec), p)


@functools.lru_cache(maxsize=4)
def _strip_subsets(tree_dictionary: TreeDictionary, strip_dictionary: StripDictionary) -> tuple:
    """Per strip, the sub-dictionary of the trees that meet it, in tree order.

    On a field restricted to a strip, a tree that misses the strip has size
    exactly 0 and is never picked, and keeping the tree order keeps the
    index tie-break, so the strip's inner cover needs only these trees.
    """
    size = math.prod(tree_dictionary.grid.shape)
    subsets = []
    for i in range(len(strip_dictionary)):
        strip = _cell_mask(strip_dictionary.cells(i), size)
        meets = np.flatnonzero(_region_reduce(np.maximum, tree_dictionary, "full", strip))
        trees = tuple(tree_dictionary.trees[j] for j in meets)
        subsets.append(TreeDictionary(tree_dictionary.grid, trees))
    return tuple(subsets)


def iterated_quasinorm(
    field: OuterField,
    tree_dictionary: TreeDictionary,
    strip_dictionary: StripDictionary,
    spec: SizeSpec,
    p: float,
    q: float,
) -> float:
    """Outer L^p over strips of the strip-localized inner L^q quasinorm.

    The size of a strip is nu(D)^(-1/q) times the inner quasinorm of the
    field restricted to the strip's live cells, taken over the trees that
    meet the strip; the strip-level engine is the same greedy profile that
    drives the tree-level quasinorm.  The field's size terms are built once
    per call and each strip reads them zeroed off its live cells, which
    equals the terms of the restricted field.
    """
    if not (p > 0.0 and q > 0.0):
        raise ConfigurationError(f"exponents must be positive, got p={p}, q={q}")
    subsets = _strip_subsets(tree_dictionary, strip_dictionary)
    measures = strip_dictionary.scales
    live = np.ones(measures.size, dtype=bool)
    norms, terms = _size_terms(field, spec)
    alive = np.ones(norms.size, dtype=bool)

    def strip_value(i: int) -> float:
        keep = _cell_mask(strip_dictionary.cells(i), norms.size) & alive
        inner = _lp_quasinorm(subsets[i], *_zeroed(keep, norms, terms), q)
        return inner if math.isinf(q) else float(measures[i] ** (-1.0 / q) * inner)

    vals = np.array([strip_value(i) for i in range(measures.size)])

    def remove(cells: np.ndarray) -> None:
        # only live strips overlapping the removed cells see a different residual
        cells_hit = _cell_mask(cells, norms.size)
        touched = _region_reduce(np.maximum, strip_dictionary, "full", cells_hit)
        for i in np.flatnonzero(live & touched):
            vals[i] = strip_value(i)

    return _quasinorm(
        vals, p, lambda stop: _greedy(strip_dictionary, lambda: vals, remove, alive, live, stop)
    )


def pairing_integral(field_a: OuterField, field_b: OuterField) -> float:
    """Node-weighted integral of |<A; B>| over the whole grid."""
    if field_a.grid.shape != field_b.grid.shape or field_a.space.dim != field_b.space.dim:
        raise ValueError("fields must share grid and coordinate dimension")
    inner = duality_pairing(field_a.values, field_b.values)
    return float((field_a.grid.cell_weights() * np.abs(inner)).sum())


def size_holder_check(
    field_a: OuterField,
    field_b: OuterField,
    tree_dictionary: TreeDictionary,
    strip_dictionary: StripDictionary | None = None,
    *,
    kind: str = "full",
    p: float = 2.0,
    q: float | None = None,
) -> dict:
    """Pairing against the product of dual outer quasinorms.

    ``kind="full"`` compares with outer L^p (composite size with the sup
    part) times outer L^p' (composite size with the in-average part);
    ``kind="lebesgue"`` uses the strip-iterated quasinorms with inner
    exponents q and q'.  Reports the two norms, the pairing, their ratio,
    and whether the bound degenerates (zero product against a nonzero
    pairing).
    """
    if not (p > 1.0) or math.isinf(p):
        raise ConfigurationError(f"need 1 < p < inf, got {p}")
    pairing = pairing_integral(field_a, field_b)
    spec_a = SizeSpec("f")
    spec_b = SizeSpec("fstar")
    if kind == "full":
        lhs = outer_lp_quasinorm(field_a, tree_dictionary, spec_a, p)
        rhs = outer_lp_quasinorm(field_b, tree_dictionary, spec_b, dual_exponent(p))
    elif kind == "lebesgue":
        if strip_dictionary is None:
            raise ConfigurationError("lebesgue check needs a strip dictionary")
        if q is None or not (q > 1.0) or math.isinf(q):
            raise ConfigurationError(f"need 1 < q < inf, got {q}")
        lhs = iterated_quasinorm(field_a, tree_dictionary, strip_dictionary, spec_a, p, q)
        rhs = iterated_quasinorm(
            field_b,
            tree_dictionary,
            strip_dictionary,
            spec_b,
            dual_exponent(p),
            dual_exponent(q),
        )
    else:
        raise ConfigurationError(f"unknown check kind {kind!r}")
    ratio, infinite = _ratio(pairing, lhs * rhs)
    return {
        "pairing": pairing,
        "lhs_norm": lhs,
        "rhs_norm": rhs,
        "ratio": ratio,
        "infinite": infinite,
        "kind": kind,
        "p": p,
        "q": q,
    }

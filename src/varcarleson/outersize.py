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
quasinorm as the size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, dual_exponent, duality_pairing
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

    ``lp`` takes an exponent (>= 1 or inf) and a region (full/in/out).
    ``r`` is the energy size: the L2 average over the out part, computed
    through the duality pairing rather than the norm evaluator.  ``f`` adds
    the sup over the full tree to ``r``; ``fstar`` adds the L1 average over
    the in part.
    """

    kind: str
    exponent: float | None = None
    region: str = "full"

    def __post_init__(self):
        if self.kind not in ("lp", "r", "f", "fstar"):
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


def _elements(dictionary):
    return dictionary.trees if isinstance(dictionary, TreeDictionary) else dictionary.strips


def _measures(dictionary) -> np.ndarray:
    return np.array([e.s for e in _elements(dictionary)])


def _terms(field: OuterField, norms: np.ndarray, spec: SizeSpec) -> list:
    """The size as a sum of (region, exponent, density) terms over flat cells.

    A finite exponent p makes a term (region sum of the density / measure)^(1/p)
    with the density already raised to p; p = inf makes it the region max of
    the density.  ``r`` is the energy term alone; ``f`` and ``fstar`` add the
    sup over the full tree or the L1 average over the in part to it.
    """
    weights = field.grid.cell_weights().ravel()

    def lp(exponent: float, region: str) -> tuple:
        return (region, exponent, norms if math.isinf(exponent) else weights * norms**exponent)

    if spec.kind == "lp":
        return [lp(spec.exponent, spec.region)]
    # energy density through the duality pairing, not the norm evaluator
    quad = np.real(duality_pairing(field.values, field.values)).ravel()
    energy = ("out", 2.0, weights * quad)
    extra = {"r": [], "f": [lp(math.inf, "full")], "fstar": [lp(1.0, "in")]}
    return [energy] + extra[spec.kind]


def _region_max(mat: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Largest density over each row's cells; 0 for a row with no cell."""
    return np.where(mat, density[None, :], 0.0).max(axis=1)


def _sizes_over(field: OuterField, dictionary, spec: SizeSpec) -> np.ndarray:
    """Local sizes of every dictionary element, one pass over each term's incidence."""
    measures = _measures(dictionary)
    parts = []
    for region, exponent, density in _terms(field, field.norms().ravel(), spec):
        mat = dictionary.incidence(region).reshape(measures.size, -1)
        if math.isinf(exponent):
            parts.append(_region_max(mat, density))
        else:
            parts.append((np.maximum(mat @ density, 0.0) / measures) ** (1.0 / exponent))
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
    dictionary incidence that :func:`outer_size` and the covers read
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
    if spec.kind == "r":
        return energy
    if spec.kind == "f":
        return energy + lp_part(math.inf, "full")
    return energy + lp_part(1.0, "in")


def outer_size(field: OuterField, dictionary: TreeDictionary, spec: SizeSpec) -> float:
    """Outer essential supremum: the largest local size over the dictionary."""
    return float(_sizes_over(field, dictionary, spec).max())


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
    size zero without float residue.
    """

    def __init__(self, stack: np.ndarray, support: np.ndarray, density: np.ndarray):
        self.colmap = np.full(stack.shape[1], -1)
        self.colmap[support] = np.arange(support.size)
        self.mat = np.ascontiguousarray(stack[:, support])
        self.density = density[support]
        acc = self.mat @ np.stack([self.density, np.ones(support.size)], axis=1)
        self.numerators = acc[:, 0].copy()
        self.counts = np.rint(acc[:, 1]).astype(np.int64)

    def remove(self, cells: np.ndarray) -> None:
        cols = self.colmap[cells]
        cols = cols[cols >= 0]
        if cols.size == 0:
            return
        acc = self.mat[:, cols] @ np.stack([self.density[cols], np.ones(cols.size)], axis=1)
        self.numerators -= acc[:, 0]
        self.counts -= np.rint(acc[:, 1]).astype(np.int64)

    def values(self) -> np.ndarray:
        out = np.maximum(self.numerators, 0.0)
        out[self.counts <= 0] = 0.0
        return out


def _spec_state(field: OuterField, dictionary, spec: SizeSpec, alive: np.ndarray):
    """Incremental sizes of every element as cells leave ``alive``."""
    norms = field.norms().ravel()
    support = np.flatnonzero(norms > 0.0)
    measures = _measures(dictionary)
    sups, pieces = [], []
    for region, exponent, density in _terms(field, norms, spec):
        stack = dictionary.incidence(region).reshape(measures.size, -1)
        if math.isinf(exponent):
            sups.append((stack, density))
        else:
            pieces.append((_LinearPiece(stack, support, density), exponent))

    def sizes() -> np.ndarray:
        # a sup term is never listed before a sum term, so this is term order
        total = np.zeros(measures.size)
        for piece, exponent in pieces:
            total += (piece.values() / measures) ** (1.0 / exponent)
        for stack, density in sups:
            total += _region_max(stack, np.where(alive, density, 0.0))
        return total

    def remove(cells: np.ndarray) -> None:
        for piece, _ in pieces:
            piece.remove(cells)

    return sizes, remove


def _lex_pick(vals: np.ndarray, scales: np.ndarray, offsets: np.ndarray, live: np.ndarray) -> int:
    """Largest size, ties to larger scale, then top closer to the origin,
    then the smaller index; ineligible elements carry -inf."""
    cand = np.where(live, vals, -np.inf)
    idx = np.arange(cand.size)
    return int(np.lexsort((-idx, -offsets, scales, cand))[-1])


def _greedy(dictionary, sizes, remove, alive, live, stop_below: float) -> CoverSelection:
    """Repeatedly remove the live element of largest size until sizes fall.

    ``sizes()`` gives the current size of every element and ``remove(cells)``
    updates them once the flat ``cells`` of a pick have left the field; both
    may read ``alive`` (uncovered cells) and ``live`` (unpicked elements),
    which this loop clears before calling ``remove``.
    """
    elements = _elements(dictionary)
    measures = _measures(dictionary)
    offsets = np.array([abs(e.x) for e in elements])
    flat = dictionary.masks.reshape(len(elements), -1)
    order, picked, costs = [], [], []
    total = 0.0
    while live.any():
        vals = sizes()
        best = _lex_pick(vals, measures, offsets, live)
        if vals[best] <= stop_below or vals[best] == 0.0:
            break
        order.append(best)
        picked.append(float(vals[best]))
        total += float(measures[best])
        costs.append(total)
        cells = np.flatnonzero(flat[best] & alive)
        alive[cells] = False
        live[best] = False
        remove(cells)
    return CoverSelection(tuple(order), tuple(picked), tuple(costs))


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
    measure at any level is a prefix cost.
    """
    alive = np.ones(int(np.prod(field.grid.shape)), dtype=bool)
    sizes, remove = _spec_state(field, dictionary, spec, alive)
    live = np.ones(len(dictionary), dtype=bool)
    return _greedy(dictionary, sizes, remove, alive, live, stop_below)


def super_level_measure(selection: CoverSelection, level: float) -> float:
    """Total cover cost of the picks whose residual size exceeds the level."""
    measure = 0.0
    for size, cost in zip(selection.sizes, selection.prefix_costs):
        if size > level:
            measure = cost
        else:
            break
    return measure


def _quasinorm_from_profile(top: float, selection: CoverSelection, p: float) -> float:
    if top <= 0.0:
        return 0.0
    levels = np.geomspace(top / _LEVEL_SPAN, top, _LEVELS)
    # left limits: at the top level itself the measure has already dropped
    mu = np.array([super_level_measure(selection, lam * _LEFT_LIMIT) for lam in levels])
    integrand = p * levels**p * mu
    integral = float(np.trapezoid(integrand, np.log(levels)))
    # below the smallest level the measure is frozen at its last sampled value
    tail = mu[0] * levels[0] ** p
    return (integral + tail) ** (1.0 / p)


def outer_lp_quasinorm(
    field: OuterField, dictionary: TreeDictionary, spec: SizeSpec, p: float
) -> float:
    """Outer Lebesgue quasinorm via the greedy super-level profile."""
    if not (p > 0.0):
        raise ConfigurationError(f"outer exponent must be positive, got {p}")
    top = outer_size(field, dictionary, spec)
    if math.isinf(p):
        return top
    if top <= 0.0:
        return 0.0
    selection = greedy_cover_profile(field, dictionary, spec, stop_below=top / _LEVEL_SPAN)
    return _quasinorm_from_profile(top, selection, p)


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
    field restricted to the strip; the strip-level engine is the same greedy
    profile that drives the tree-level quasinorm.
    """
    if not (p > 0.0 and q > 0.0):
        raise ConfigurationError(f"exponents must be positive, got p={p}, q={q}")
    measures = _measures(strip_dictionary)
    stack = strip_dictionary.masks.reshape(measures.size, -1)
    alive = np.ones(stack.shape[1], dtype=bool)
    live = np.ones(measures.size, dtype=bool)

    def strip_value(i: int) -> float:
        keep = (stack[i] & alive).reshape(field.grid.shape)
        inner = outer_lp_quasinorm(field.restrict(keep), tree_dictionary, spec, q)
        return inner if math.isinf(q) else float(measures[i] ** (-1.0 / q) * inner)

    vals = np.array([strip_value(i) for i in range(measures.size)])

    def remove(cells: np.ndarray) -> None:
        # only live strips overlapping the removed cells see a different residual
        for i in np.flatnonzero(live & stack[:, cells].any(axis=1)):
            vals[i] = strip_value(i)

    top = float(vals.max())
    if math.isinf(p):
        return top
    if top <= 0.0:
        return 0.0
    selection = _greedy(strip_dictionary, lambda: vals, remove, alive, live, top / _LEVEL_SPAN)
    return _quasinorm_from_profile(top, selection, p)


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
    product = lhs * rhs
    infinite = product == 0.0 and pairing > 0.0
    ratio = math.inf if infinite else (pairing / product if product > 0.0 else 0.0)
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

"""Experiment front end: sweeps, verification checks, convergence tables, dumps.

Subcommands
-----------
``vc sweep``
    Empirical ratios of the variational cutoff operator against the signal
    norm over a random corpus, one CSV row per (exponent cell, draw), with
    the admissibility flag of each cell.  The per-cell maxima go to stderr
    as a JSON summary (stdout stays a single machine-readable stream).
``vc verify <which>``
    One of ``reconstruction | dual | holder | domination | ptnm``.  Emits a
    JSON report with stable key order; exit code 1 when the preset's
    tolerance policy fails.
``vc converge``
    Sup-error of the cutoff reconstruction and the variation tail per
    cutoff, as CSV; fails (exit 1) when the tail column is not
    nonincreasing, the tail does not bound the sup-error, or the
    kind-specific trend breaks.
``vc packets dump``
    Truncated wave-packet field of the configured interval written as a
    binary field dump (JSON header line + row-major complex array).

Flags shared by all subcommands: ``--preset tiny|ref|fine`` picks a pinned
resolution bundle, ``--config FILE`` deep-merges a JSON object over the
preset, ``--seed N`` overrides the seed, ``--out PATH`` redirects the
artifact (required for ``packets dump``).  Exit codes: 0 all checks pass,
1 tolerance failure, 2 configuration or I/O error, 3 internal error (a
program fault; ``vc: internal error`` and the traceback go to stderr).

Corpus distributions: random signals draw independent complex Gaussian
spectral coefficients on the covered band (``bandlimited-random``); cutoff
selections draw their levels uniformly from the signal's frequency grid;
excluded unions draw trees uniformly from the dictionaries.  All randomness
flows through generators seeded from (config, seed) alone, and corpus items
are evaluated in a fixed order with single-writer emission, so reports are
reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import sys
import traceback
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import (
    ConfigurationError,
    FrequencySelection,
    NormedSpace,
    SequenceSignal,
    _freq_grid,
    dual_exponent,
    make_signal,
    norm_eval,
)
from .embedding import (
    EmbeddingConfig,
    _check_scales,
    check_domination,
    check_dual_representation,
    domination_dictionaries,
    dump_field,
    embed_packets,
    embed_signal,
    theta_windows,
)
from .fourier import carleson_path, linearized_vc, pointwise_norm_comparison
from .outersize import size_holder_check
from .tfs import StripDictionary, TFSGrid, TreeDictionary
from .variation import _batched_variation, _check_r
from .wavepacket import BumpSpec, assemble_m, verify_reconstruction

__all__ = [
    "ExperimentConfig",
    "PRESETS",
    "VERIFY_KINDS",
    "admissibility_flags",
    "load_calibration",
    "resolve_config",
    "run_sweep",
    "run_verify",
    "run_convergence",
    "run_packets_dump",
    "main",
]

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_INTERNAL = 0, 1, 2, 3

VERIFY_KINDS = ("reconstruction", "dual", "holder", "domination", "ptnm")

_SQRT2 = math.sqrt(2.0)

# Every preset pins the full resolution bundle so recorded constants and
# tolerances mean the same thing on every machine.  tiny exists for smoke
# tests and carries no recorded constants; ref is the calibration anchor;
# fine doubles the sampled resolutions at identical ranges, scale ladders,
# and dictionary tops.
PRESETS: dict = {
    "tiny": {
        "seed": 0,
        "space": {"dim": 2, "exponent": 2.0},
        "table": {"b": 0.125, "eps": 1.0 / 128.0},
        "embed": {"N": 8, "rprime": 2.0},
        "exponents": {"p": 2.0, "q": 2.0, "r": 2.5, "r0": 2.0},
        "sweep": {
            "p_values": [1.5, 2.0],
            "r_values": [2.5],
            "r0_values": [2.0],
            "corpus": 4,
            "levels": 4,
            # spectral mass must reach most of the cutoff range, or draws
            # straddle the whole band and every quotient collapses to 1
            "signal": {"band": 3.2, "n": 128, "dx": 0.125},
        },
        "reconstruction": {
            "interval": [-0.5, 1.5],
            "points": 49,
            "cells": 6,
            "refine": 2,
            "sup_max": 0.05,
            "ratio_min": 2.0,
        },
        "dual": {
            "dim": 1,
            "interval": [-2.5, 2.5],
            "t_range": [0.25, 0.75],
            "t_steps": 40,
            "eta_per_window": 4,
            "instances": 1,
            "rel_max": 0.15,
            "signal": {"n": 256, "dx": 0.0625, "band": 0.9},
        },
        "holder": {
            "grid": {"eta": [-2.0, 2.0, 9], "y": [-8.0, 8.0, 5], "t": [0.4, 1.6, 2.0]},
            "eta_stride": 2,
            "y_stride": 2,
            # the 5-point translation axis needs unit strip spacing to cover
            "strip_stride": 2,
            "pairs": 6,
            "p": 2.0,
            "q": 2.0,
            "signal": {"band": 0.9, "n": 128, "dx": 0.125},
        },
        "domination": {
            "grid": {"eta": [-2.0, 2.0, 17], "y": [-4.0, 4.0, 17], "t": [0.4, 0.8, _SQRT2]},
            "eta_stride": 2,
            "y_stride": 2,
            "instances": 4,
            "cut_lo": [-2.25, -2.0],
            "gap": [3.5, 4.5],
            "max_excluded": 3,
            "signal": {"band": 0.9, "n": 128, "dx": 0.0625},
        },
        "ptnm": {
            "dim": 4,
            "signals": 8,
            "candidates": 16,
            "s_values": [1.5, 2.5, 4.0],
            "tol": 1e-10,
            "signal": {"band": 0.9, "n": 64, "dx": 0.25},
        },
        "converge": {
            "points": 12,
            "xi_range": [0.25, 3.5],
            "gaussian": {"sigma": 0.4},
            "bandlimited": {"band": 0.5},
            "n": 128,
            "dx": 0.125,
        },
        "packets": {
            "interval": [-2.5, 2.5],
            "sign": 1,
            "grid": {"eta": [-2.0, 2.0, 9], "y": [-8.0, 8.0, 9], "t": [0.4, 1.6, 2.0]},
            "signal": {"band": 0.9, "n": 256, "dx": 0.0625},
        },
    },
}

PRESETS["ref"] = _ref = copy.deepcopy(PRESETS["tiny"])
_ref["sweep"].update(
    {
        "p_values": [1.5, 2.0, 3.0],
        "r_values": [1.5, 2.5, 4.0],
        "r0_values": [2.0, 3.0],
        "corpus": 8,
        "levels": 8,
    }
)
_ref["reconstruction"].update({"points": 193, "cells": 12, "sup_max": 1e-2})
_ref["dual"].update({"t_steps": 160, "eta_per_window": 8, "instances": 3, "rel_max": 0.05})
_ref["holder"].update(
    {
        "grid": {"eta": [-2.0, 2.0, 17], "y": [-8.0, 8.0, 9], "t": [0.4, 1.6, 2.0]},
        "eta_stride": 2,
        "y_stride": 2,
        "strip_stride": 4,
        "pairs": 100,
    }
)
_ref["domination"].update(
    {
        "grid": {"eta": [-2.0, 2.0, 33], "y": [-4.0, 4.0, 33], "t": [0.4, 0.8, _SQRT2]},
        "instances": 50,
    }
)
_ref["ptnm"].update({"signals": 50, "candidates": 40})
_ref["converge"].update({"points": 25, "n": 256, "dx": 0.0625, "xi_range": [0.25, 6.0]})

PRESETS["fine"] = _fine = copy.deepcopy(PRESETS["ref"])
_fine["reconstruction"].update({"cells": 24, "sup_max": 5e-3})
_fine["dual"].update({"t_steps": 320, "eta_per_window": 16, "rel_max": 0.005})
_fine["holder"].update(
    {
        "grid": {"eta": [-2.0, 2.0, 33], "y": [-8.0, 8.0, 17], "t": [0.4, 1.6, 2.0]},
        "eta_stride": 4,
        "y_stride": 4,
        "strip_stride": 8,
    }
)
# Refinement doubles translation sampling only.  Packet modulation windows are
# slivers of width 2*eps/t (about 0.02 here), far below any affordable eta
# spacing, so eta stays at the ref sampling and the tree tops stay identical.
_fine["domination"].update(
    {
        "grid": {"eta": [-2.0, 2.0, 33], "y": [-4.0, 4.0, 65], "t": [0.4, 0.8, _SQRT2]},
        "eta_stride": 2,
        "y_stride": 4,
    }
)
_fine["converge"].update({"points": 49})
del _ref, _fine


def load_calibration() -> dict:
    """Recorded constants and tolerances shipped with the package."""
    text = resources.files("varcarleson").joinpath("calibration.json").read_text()
    return json.loads(text)


def admissibility_flags(p: float, q: float, r: float, r0: float) -> dict:
    """Exponent-region flags for the variational bound and its dual pairing.

    The operator flag needs r beyond the convexity index and p beyond the
    dual of r/(r0-1); at r0 = 2 it reduces to p > r'.  The pairing flags
    need the dual exponent of q beyond the dual of r and q beyond
    min(p, r0)' * (r0 - 1).
    """
    if min(p, q, r) < 1.0 or r0 <= 1.0:
        raise ConfigurationError(
            f"exponents need p, q, r >= 1 and r0 > 1, got p={p} q={q} r={r} r0={r0}"
        )
    p_threshold = dual_exponent(r / (r0 - 1.0))
    operator_ok = r > r0 and p > p_threshold
    pairing_dual_ok = dual_exponent(q) > dual_exponent(r)
    pairing_ok = q > dual_exponent(min(p, r0)) * (r0 - 1.0)
    return {
        "p_threshold": p_threshold,
        "operator": operator_ok,
        "pairing_dual": pairing_dual_ok,
        "pairing": pairing_ok,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run description: preset merged with overrides, seed pinned."""

    experiment: str
    seed: int
    preset: str
    space: NormedSpace
    exponents: dict
    settings: dict

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ConfigurationError(f"seed must be a u64, got {self.seed}")

    def admissibility(self) -> dict:
        e = self.exponents
        return admissibility_flags(float(e["p"]), float(e["q"]), float(e["r"]), float(e["r0"]))


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    """Override values of ``base``; a key that ``base`` lacks is a typo.

    An override keeps the preset value's JSON type, except that an integer
    may fill a number slot.
    """
    out = dict(base)
    for key, value in override.items():
        name = f"{path}{key}"
        if key not in out:
            raise ConfigurationError(f"unknown config key {name!r}")
        slot = type(out[key])
        if type(value) is not slot and not (slot is float and type(value) is int):
            raise ConfigurationError(
                f"config key {name!r} must be of type {slot.__name__}, got {json.dumps(value)}"
            )
        out[key] = _deep_merge(out[key], value, name + ".") if type(value) is dict else value
    return out


def _setting(settings: dict, name: str):
    """The value at a dotted config path such as ``sweep.signal.n``."""
    for key in name.split("."):
        settings = settings[key]
    return settings


def _misfit(keys, reason) -> ConfigurationError:
    """The error for settings that pass their own rules but do not fit together."""
    names = [f"'{key}'" for key in keys]
    return ConfigurationError(
        f"config keys {', '.join(names[:-1])} and {names[-1]} do not fit together: {reason}"
    )


# --- config rules ----------------------------------------------------------------
# A rule judges the value at its dotted key, given the values at the keys it
# reads besides, and returns what that value must be, or None when it passes.
# A rule that calls a library guard lets the guard's ConfigurationError through,
# and the error then names every key of the rule.


def _is_finite(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _rule(need: str, holds):
    """A rule that asks for ``need`` wherever ``holds`` is false."""
    return lambda *values: None if holds(*values) else need


def _least(bound):  # NaN fails and, in a number slot, inf passes
    return _rule(f"be at least {bound}", lambda value: value >= bound)


def _finite(op: str, bound: int):
    strict = op == ">"
    return _rule(
        f"be finite and {op} {bound}",
        lambda value: _is_finite(value) and (value > bound if strict else value >= bound),
    )


def _each(op: str, bound: int):
    element = _finite(op, bound)
    return _rule(
        f"list at least one value, each finite and {op} {bound}",
        lambda values: bool(values) and all(element(v) is None for v in values),
    )


def _ordered(ends: tuple, order: str, holds):
    return _rule(
        f"be [{', '.join(ends)}] with {order}",
        lambda value: len(value) == len(ends) and all(map(_is_finite, value)) and holds(*value),
    )


def _at_most_samples(levels, n):  # a selection draws distinct frequencies of its signal
    return None if levels <= n else f"be at most sweep.signal.n = {n}"


def _below_nyquist(dx_key: str):
    """A band or cutoff range inside (0, 0.5/dx), the frequencies the samples represent."""

    def rule(value, dx):
        nyquist = 0.5 / dx
        inside = all(0.0 < v < nyquist for v in (value if type(value) is list else [value]))
        return None if inside else f"lie in (0, 0.5/{dx_key} = {nyquist:g})"

    return rule


def _draw_cells(values, n, dx) -> tuple:
    """The frequency cell 1/(n dx) of a signal and the range ``values`` in cells."""
    dxi = 1.0 / (int(n) * float(dx))
    return dxi, [int(round(v / dxi)) for v in values]


def _spans_a_cell(gap, n, dx):  # a gap of 0 cells draws only empty intervals
    dxi, cells = _draw_cells(gap, n, dx)
    return None if cells[0] >= 1 else f"span at least one frequency cell 1/(n dx) = {dxi:g}"


def _bump_radii(b, eps):
    BumpSpec(b, eps)  # builds no table: BumpSpec only checks its radii


def _resolves_scales(n, dx, eta, t, b):
    """The embedding's scale guard for a section's signal; it reads the eta and t axes only."""
    if n < 2 or not (_is_finite(dx) and dx > 0.0):
        raise ConfigurationError(f"need n >= 2 and a finite dx > 0, got {n} and {dx}")
    _check_scales(TFSGrid.build((eta[0], eta[1]), eta[2], (0.0, 1.0), 2, *t), n, dx, b)


def _two_scales(t_min, t_max, ratio) -> bool:
    """Whether ``TFSGrid.build``, by its own rules, makes a scale ladder from these."""
    try:
        TFSGrid.build((0.0, 1.0), 2, (0.0, 1.0), 2, t_min, t_max, ratio)
    except ConfigurationError:
        return False
    return True


def _gaussian_decays(sigma, n, dx):
    make_signal("gaussian", {"sigma": sigma}, n=n, dx=dx)  # the edge-decay rule


_count = _least(1)  # a count below 1 runs no check and passes vacuously
_positive = _finite(">", 0)  # steps, widths and tolerances; a tolerance <= 0 never passes
_exponent = _finite(">=", 1)
_power_of_two = _rule("be a power of two", lambda n: n >= 2 and not n & (n - 1))
_interval = _ordered(("lo", "hi"), "lo < hi", lambda lo, hi: lo < hi)
_rising = _ordered(("lo", "hi"), "0 < lo < hi", lambda lo, hi: 0.0 < lo < hi)
_axis = _ordered(
    ("lo", "hi", "count"),
    "lo < hi and an integer count >= 2",
    lambda lo, hi, count: lo < hi and type(count) is int and count >= 2,
)
_ladder = _ordered(
    ("t_min", "t_max", "ratio"),
    "0 < t_min < t_max, ratio > 1 and two scales t_min * ratio^k inside [t_min, t_max]",
    _two_scales,
)


def _signal(section: str) -> tuple:
    """Rules of a section's signal that goes through the radix-2 transform."""
    dx = f"{section}.signal.dx"
    return (
        (f"{section}.signal.n", _power_of_two),
        (dx, _positive),
        (f"{section}.signal.band", _below_nyquist(dx), dx),
    )


def _embedded(section: str) -> tuple:
    """Rules of a section's TFS grid and of the signal embedded on it."""
    n, dx, eta, t = (f"{section}.{key}" for key in ("signal.n", "signal.dx", "grid.eta", "grid.t"))
    return (
        (eta, _axis),
        (f"{section}.grid.y", _axis),
        (t, _ladder),
        (n, _resolves_scales, dx, eta, t, "table.b"),
        (f"{section}.signal.band", _below_nyquist(dx), dx),
    )


# (key, rule, *keys the rule reads besides), in the order they run: a key's own
# rule runs before any rule that reads it
_RULES = (
    ("space.dim", _count),
    ("space.exponent", _least(1)),
    ("table.b", _bump_radii, "table.eps"),  # before the embedded-signal rules read table.b
    ("embed.N", _least(2)),
    ("embed.rprime", _least(1)),
    ("exponents.p", _exponent),
    ("exponents.q", _exponent),
    ("exponents.r", _exponent),
    ("exponents.r0", _finite(">", 1)),
    ("sweep.p_values", _each(">=", 1)),
    ("sweep.r_values", _each(">=", 1)),
    ("sweep.r0_values", _each(">", 1)),
    ("sweep.corpus", _count),
    *_signal("sweep"),
    ("sweep.levels", _least(2)),
    ("sweep.levels", _at_most_samples, "sweep.signal.n"),
    ("reconstruction.interval", _interval),
    ("reconstruction.points", _count),
    ("reconstruction.cells", _least(2)),
    ("reconstruction.refine", _least(2)),
    ("reconstruction.sup_max", _positive),
    ("reconstruction.ratio_min", _positive),
    ("dual.dim", _count),
    ("dual.interval", _interval),
    ("dual.t_range", _rising),
    ("dual.t_steps", _least(8)),  # the quadrature needs a rule to run
    ("dual.eta_per_window", _least(2)),
    ("dual.instances", _count),
    ("dual.rel_max", _positive),
    *_signal("dual"),
    *_embedded("holder"),
    ("holder.eta_stride", _count),  # a stride below 1 reverses the tops or cannot slice
    ("holder.y_stride", _count),
    ("holder.strip_stride", _count),
    ("holder.pairs", _count),
    ("holder.p", _finite(">", 1)),
    ("holder.q", _finite(">", 1)),
    *_embedded("domination"),
    ("domination.eta_stride", _count),
    ("domination.y_stride", _count),
    ("domination.instances", _count),
    ("domination.max_excluded", _count),  # each draw excludes 1 to max_excluded trees
    ("domination.cut_lo", _ordered(("lo", "hi"), "lo <= hi", lambda lo, hi: lo <= hi)),
    ("domination.gap", _ordered(("lo", "hi"), "0 < lo <= hi", lambda lo, hi: 0.0 < lo <= hi)),
    ("domination.gap", _spans_a_cell, "domination.signal.n", "domination.signal.dx"),
    ("ptnm.dim", _count),
    ("ptnm.signals", _count),
    ("ptnm.candidates", _least(0)),
    ("ptnm.s_values", _each(">=", 1)),
    ("ptnm.tol", _positive),
    *_signal("ptnm"),
    ("converge.points", _count),
    ("converge.n", _power_of_two),
    ("converge.dx", _positive),
    ("converge.xi_range", _rising),
    ("converge.xi_range", _below_nyquist("converge.dx"), "converge.dx"),
    ("converge.bandlimited.band", _below_nyquist("converge.dx"), "converge.dx"),
    ("converge.gaussian.sigma", _positive),
    ("converge.gaussian.sigma", _gaussian_decays, "converge.n", "converge.dx"),
    ("packets.interval", _interval),
    ("packets.sign", _rule("be -1 or +1", lambda sign: sign in (-1, 1))),
    *_embedded("packets"),
)


def resolve_config(
    experiment: str,
    preset: str = "ref",
    config_path: str | None = None,
    seed: int | None = None,
) -> ExperimentConfig:
    if preset not in PRESETS:
        raise ConfigurationError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    settings = copy.deepcopy(PRESETS[preset])
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            override = json.load(fh)
        if not isinstance(override, dict):
            raise ConfigurationError(f"config file {config_path} must hold a JSON object")
        settings = _deep_merge(settings, override)
    for name, rule, *reads in _RULES:
        value = _setting(settings, name)
        try:
            need = rule(value, *(_setting(settings, key) for key in reads))
        except ConfigurationError as exc:
            raise _misfit((name, *reads), exc) from None
        if need is not None:
            raise ConfigurationError(f"config key {name!r} must {need}, got {json.dumps(value)}")
    if seed is not None:
        settings["seed"] = seed
    return ExperimentConfig(
        experiment=experiment,
        seed=int(settings["seed"]),
        preset=preset,
        space=NormedSpace(int(settings["space"]["dim"]), float(settings["space"]["exponent"])),
        exponents=dict(settings["exponents"]),
        settings=settings,
    )


_table_cache: dict = {}


def _table_from(settings: dict):
    sec = settings["table"]
    key = (float(sec["b"]), float(sec["eps"]))
    if key not in _table_cache:
        _table_cache[key] = assemble_m(BumpSpec(*key))
    return _table_cache[key]


def _embed_config(settings: dict) -> EmbeddingConfig:
    sec = settings["embed"]
    return EmbeddingConfig(
        _table_from(settings),
        kernel_power=int(sec["N"]),
        r_prime=float(sec["rprime"]),
    )


def _grid_from(sec: dict) -> TFSGrid:
    eta, y, t = sec["eta"], sec["y"], sec["t"]
    return TFSGrid.build((eta[0], eta[1]), eta[2], (y[0], y[1]), y[2], t[0], t[1], t[2])


def _covering_build(section: str, keys: tuple, build, *args, **kwargs):
    """Build a dictionary; one that leaves the grid uncovered names the config keys."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise _misfit([f"{section}.{key}" for key in ("grid",) + keys], exc) from None


def _seed_of(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _band_signal(sec: dict, space: NormedSpace, seed: int):
    return make_signal(
        "bandlimited-random",
        {"band": float(sec["band"])},
        n=int(sec["n"]),
        dx=float(sec["dx"]),
        space=space,
        seed=seed,
    )


def _grid_selection(rng: np.random.Generator, signal, count: int) -> FrequencySelection:
    """Strictly increasing cutoffs drawn uniformly from the frequency grid."""
    freqs = _freq_grid(signal.n, signal.dx)
    idx = np.sort(rng.choice(freqs.size, size=count, replace=False))
    return FrequencySelection.constant(freqs[idx], signal.n)


# --- sweep -------------------------------------------------------------------


def sweep_ratio(signal, selection: FrequencySelection, p: float, r: float) -> float | None:
    """||V_c f||_{L^p(l^r)} / ||f||_{L^p}, or None for the zero signal."""
    weights = norm_eval(signal.values, signal.space)
    denominator = float((weights**p).sum() * signal.dx) ** (1.0 / p)
    if denominator == 0.0:
        return None
    stack = linearized_vc(signal, selection).stack()  # (J, n, d)
    increments = norm_eval(stack, signal.space)  # (J, n)
    vc = ((increments**r).sum(axis=0)) ** (1.0 / r)
    numerator = float((vc**p).sum() * signal.dx) ** (1.0 / p)
    return numerator / denominator


def _header(config: ExperimentConfig, experiment: str) -> dict:
    """The keys that open every sweep, verify and converge report."""
    return {
        "experiment": experiment,
        "preset": config.preset,
        "seed": config.seed,
        "admissibility": config.admissibility(),
    }


def run_sweep(config: ExperimentConfig) -> dict:
    sec = config.settings["sweep"]
    levels = int(sec["levels"])
    r0_of_cell = [float(v) for v in sec["r0_values"]]
    cells = [
        (float(p), float(r), r0)
        for p in sec["p_values"]
        for r in sec["r_values"]
        for r0 in r0_of_cell
    ]
    rows = []
    summary = []
    for cell_index, (p, r, r0) in enumerate(cells):
        flags = admissibility_flags(p, float(config.exponents["q"]), r, r0)
        admissible = flags["operator"]
        best = None
        for draw in range(int(sec["corpus"])):
            row_seed = _seed_of(config.seed, cell_index, draw)
            signal = _band_signal(sec["signal"], config.space, row_seed)
            selection = _grid_selection(np.random.default_rng(row_seed), signal, levels)
            ratio = sweep_ratio(signal, selection, p, r)
            if ratio is None:
                continue  # zero draw: 0/0 carries no information
            rows.append(
                {
                    "p": p,
                    "r": r,
                    "r0": r0,
                    "seed": row_seed,
                    "ratio": ratio,
                    "admissible": admissible,
                }
            )
            best = ratio if best is None else max(best, ratio)
        summary.append({"p": p, "r": r, "r0": r0, "admissible": admissible, "max_ratio": best})
    return {**_header(config, "sweep"), "rows": rows, "cells": summary}


# --- verify ------------------------------------------------------------------


def _verify_reconstruction(config: ExperimentConfig) -> dict:
    sec = config.settings["reconstruction"]
    table = _table_from(config.settings)
    lo, hi = (float(v) for v in sec["interval"])
    length = hi - lo
    inner = lo + length * np.linspace(0.02, 0.98, int(sec["points"]))
    outside = np.array([lo - 0.3, hi + 0.3, lo - 4.0, hi + 4.0])
    report = verify_reconstruction(
        table, (lo, hi), np.concatenate([inner, outside]),
        cells=int(sec["cells"]), refine=int(sec["refine"]),
    )
    zone = np.abs(table.xi_grid - 0.5) <= 0.5 * table.spec.b
    mirror_gap = float(
        np.abs(table.m_values - np.interp(1.0 - table.xi_grid, table.xi_grid, table.m_values)).max()
    )
    flat_gap = float(np.abs(table.m_values[~zone] - table.m0).max())
    checks = {
        "sup_ref": report.sup_ref <= float(sec["sup_max"]),
        "refinement_ratio": report.ratio >= float(sec["ratio_min"]),
        "exterior": report.exterior_max == 0.0,
        "m_positive": bool(np.all(table.m_values > 0.0)),
        "m_mirror": mirror_gap <= 1e-8,
        "m_flat_outside_zone": flat_gap == 0.0,
    }
    return {
        "sup_ref": report.sup_ref,
        "sup_fine": report.sup_fine,
        "ratio": report.ratio,
        "exterior_max": report.exterior_max,
        "m_mirror_gap": mirror_gap,
        "m0": table.m0,
        "cells": [report.cells_ref, report.cells_fine],
        "residual_curve": {
            "xi": report.xi.tolist(),
            "ref": report.residual_ref.tolist(),
            "fine": report.residual_fine.tolist(),
        },
        "checks": checks,
        "pass": all(checks.values()),
    }


def _verify_dual(config: ExperimentConfig) -> dict:
    sec = config.settings["dual"]
    table = _table_from(config.settings)
    space = NormedSpace(int(sec["dim"]), 2.0)
    sig = sec["signal"]
    instances = []
    worst = 0.0
    for i in range(int(sec["instances"])):
        rng = np.random.default_rng(_seed_of(config.seed, 17, i))
        try:
            f = make_signal(
                "gaussian",
                {"sigma": float(rng.uniform(0.3, 0.6)), "center": float(rng.uniform(-1.0, 1.0))},
                n=int(sig["n"]), dx=float(sig["dx"]), space=space,
            )
        except ConfigurationError as exc:  # the draw's edge decay: the grid is too short
            raise _misfit(["dual.signal.n", "dual.signal.dx"], exc) from None
        g = _band_signal(sig, space, _seed_of(config.seed, 18, i))
        rep = check_dual_representation(
            f, g, tuple(sec["interval"]), table,
            t_min=float(sec["t_range"][0]), t_max=float(sec["t_range"][1]),
            t_steps=int(sec["t_steps"]), eta_per_window=int(sec["eta_per_window"]),
        )
        worst = max(worst, rep["rel_err"])
        instances.append(
            {
                "lhs": [rep["lhs"].real, rep["lhs"].imag],
                "rhs": [rep["rhs"].real, rep["rhs"].imag],
                "abs_err": rep["abs_err"],
                "rel_err": rep["rel_err"],
                "nodes": rep["nodes"],
            }
        )
    return {
        "instances": instances,
        "max_rel_err": worst,
        "rel_max": float(sec["rel_max"]),
        "pass": worst <= float(sec["rel_max"]),
    }


def holder_corpus_maxima(config: ExperimentConfig) -> dict:
    """Max pairing/(product of dual quasinorms) over the random pair corpus."""
    sec = config.settings["holder"]
    table = _table_from(config.settings)
    embed_cfg = _embed_config(config.settings)
    grid = _grid_from(sec["grid"])
    theta, theta_in = theta_windows(table, +1)
    trees = _covering_build(
        "holder", ("eta_stride", "y_stride"), TreeDictionary.build, grid, theta, theta_in,
        eta_stride=int(sec["eta_stride"]), y_stride=int(sec["y_stride"]),
    )
    strips = _covering_build(
        "holder", ("strip_stride",), StripDictionary.build,
        grid, y_stride=int(sec["strip_stride"]),
    )
    p, q = float(sec["p"]), float(sec["q"])
    max_full = max_leb = 0.0
    degenerate = 0
    for child in np.random.SeedSequence(config.seed).spawn(int(sec["pairs"])):
        s1, s2 = (int(v) for v in child.generate_state(2))
        f = _band_signal(sec["signal"], config.space, s1)
        g = _band_signal(sec["signal"], config.space, s2)
        field_a = embed_signal(f, grid, embed_cfg)
        field_b = embed_signal(g, grid, embed_cfg)
        full = size_holder_check(field_a, field_b, trees, kind="full", p=p)
        leb = size_holder_check(field_a, field_b, trees, strips, kind="lebesgue", p=p, q=q)
        degenerate += int(full["infinite"]) + int(leb["infinite"])
        max_full = max(max_full, full["ratio"])
        max_leb = max(max_leb, leb["ratio"])
    return {"full": max_full, "lebesgue": max_leb, "degenerate_pairs": degenerate}


def _band_checks(maxima: dict, keys, recorded: dict, tolerance: str, suffix: str) -> dict:
    """One ``<key>_<suffix>`` check per key: the maximum lies within the relative
    ``recorded[tolerance]`` of its recorded ref value.
    """
    tol = float(recorded[tolerance])
    checks = {}
    for key in keys:
        want = float(recorded["maxima"]["ref"][key])
        checks[f"{key}_{suffix}"] = abs(maxima[key] - want) <= tol * want
    return checks


def _verify_holder(config: ExperimentConfig) -> dict:
    maxima = holder_corpus_maxima(config)
    checks = {
        "finite": math.isfinite(maxima["full"]) and math.isfinite(maxima["lebesgue"]),
        "nonzero": maxima["full"] > 0.0 and maxima["lebesgue"] > 0.0,
        "no_degenerate_pairs": maxima["degenerate_pairs"] == 0,
    }
    recorded = load_calibration()["holder_corpus"]
    # Band checks compare against recorded maxima and only make sense at the
    # seeds they were recorded for; other seeds keep the structural checks.
    kinds = ("full", "lebesgue")
    if config.preset == "ref" and config.seed in recorded["check_seeds"]:
        checks.update(_band_checks(maxima, kinds, recorded, "seed_tolerance", "within_seed_band"))
    elif config.preset == "fine" and config.seed == int(recorded["seed"]):
        checks.update(
            _band_checks(maxima, kinds, recorded, "refine_tolerance", "within_refine_band")
        )
    return {"maxima": maxima, "checks": checks, "pass": all(checks.values())}


def domination_instance(
    sec: dict,
    space: NormedSpace,
    rng: np.random.Generator,
    grid: TFSGrid,
    dictionaries: dict,
):
    """One random (sequence, selection, excluded-union) draw."""
    g = _band_signal(sec["signal"], space, int(rng.integers(0, 2**63 - 1)))
    n, dx = sec["signal"]["n"], sec["signal"]["dx"]
    dxi, lo_cells = _draw_cells(sec["cut_lo"], n, dx)
    _, gap_cells = _draw_cells(sec["gap"], n, dx)
    lo = dxi * float(rng.integers(lo_cells[0], lo_cells[1] + 1))
    gap = dxi * float(rng.integers(gap_cells[0], gap_cells[1] + 1))
    selection = FrequencySelection.constant([lo, lo + gap], g.n)
    count = int(rng.integers(1, int(sec["max_excluded"]) + 1))
    mask = np.zeros(grid.shape, dtype=bool)
    for sign in (+1, -1):
        trees = dictionaries[sign]
        for index in rng.choice(len(trees), size=count, replace=False):
            mask.flat[trees.cells(index)] = True
    return SequenceSignal((g,)), selection, mask


def domination_corpus_maxima(config: ExperimentConfig) -> dict:
    """Max masked-packet/majorant size ratios over random instances."""
    sec = config.settings["domination"]
    table = _table_from(config.settings)
    embed_cfg = _embed_config(config.settings)
    grid = _grid_from(sec["grid"])
    dictionaries = _covering_build(
        "domination", ("eta_stride", "y_stride"), domination_dictionaries, grid, table,
        eta_stride=int(sec["eta_stride"]), y_stride=int(sec["y_stride"]),
    )
    # each draw excludes up to max_excluded distinct trees of each sign
    trees = min(len(d) for d in dictionaries.values())
    if sec["max_excluded"] > trees:
        raise _misfit(
            [f"domination.{key}" for key in ("max_excluded", "grid", "eta_stride", "y_stride")],
            f"each draw excludes up to {sec['max_excluded']} distinct trees of each sign, "
            f"but the smaller dictionary holds {trees}",
        )
    rng = np.random.default_rng(config.seed)
    keys = ("plus_full", "plus_masked", "minus_full", "minus_masked")
    maxima = dict.fromkeys(keys, 0.0)
    violations = vacuous = 0
    for _ in range(int(sec["instances"])):
        sequence, selection, excluded = domination_instance(
            sec, config.space, rng, grid, dictionaries
        )
        rep = check_domination(
            sequence, selection, grid, embed_cfg,
            excluded=excluded, dictionaries=dictionaries,
        )
        violations += int(rep["violation"])
        vacuous += int(rep["vacuous"])
        for key in keys:
            maxima[key] = max(maxima[key], rep[f"{key}_ratio"])
    return {"maxima": maxima, "violations": violations, "vacuous": vacuous}


def _verify_domination(config: ExperimentConfig) -> dict:
    result = domination_corpus_maxima(config)
    maxima = result["maxima"]
    checks = {
        "finite": all(math.isfinite(v) for v in maxima.values()),
        "nonzero": all(v > 0.0 for v in maxima.values()),
        "no_violations": result["violations"] == 0,
    }
    recorded = load_calibration()["domination"]
    if config.seed == int(recorded["seed"]):
        if config.preset == "ref":
            checks.update(_band_checks(maxima, maxima, recorded, "seed_tolerance", "within_band"))
        elif config.preset == "fine":
            checks.update(
                _band_checks(maxima, maxima, recorded, "refine_tolerance", "within_refine_band")
            )
    return {**result, "checks": checks, "pass": all(checks.values())}


def _verify_ptnm(config: ExperimentConfig) -> dict:
    sec = config.settings["ptnm"]
    space = NormedSpace(int(sec["dim"]), 2.0)
    r = float(config.exponents["r"])
    tol = float(sec["tol"])
    worst: dict = {}
    for s in (float(v) for v in sec["s_values"]):
        convex_gap = concave_gap = 0.0  # signed violations of each direction
        scale = 0.0
        for i in range(int(sec["signals"])):
            f = _band_signal(sec["signal"], space, _seed_of(config.seed, 31, i))
            rep = pointwise_norm_comparison(
                f, r, s, candidates=int(sec["candidates"]), seed=_seed_of(config.seed, 32, i)
            )
            convex_gap = max(convex_gap, rep["per_candidate_lattice_minus_normed"])
            concave_gap = max(concave_gap, rep["per_candidate_normed_minus_lattice"])
            scale = max(scale, rep["scale"])
        bound = tol * max(scale, 1.0)
        if s > r:
            ok = convex_gap <= bound
        elif s < r:
            ok = concave_gap <= bound
        else:
            ok = convex_gap <= bound and concave_gap <= bound
        worst[str(s)] = {
            "lattice_minus_normed": convex_gap,
            "normed_minus_lattice": concave_gap,
            "scale": scale,
            "pass": ok,
        }
    return {"r": r, "per_s": worst, "pass": all(v["pass"] for v in worst.values())}


_VERIFY_RUNNERS = {
    "reconstruction": _verify_reconstruction,
    "dual": _verify_dual,
    "holder": _verify_holder,
    "domination": _verify_domination,
    "ptnm": _verify_ptnm,
}


def run_verify(config: ExperimentConfig, which: str) -> dict:
    if which not in _VERIFY_RUNNERS:
        raise ConfigurationError(f"unknown check {which!r}; choose from {sorted(_VERIFY_RUNNERS)}")
    return {**_header(config, f"verify:{which}"), **_VERIFY_RUNNERS[which](config)}


# --- converge ----------------------------------------------------------------


def run_convergence(config: ExperimentConfig) -> dict:
    sec = config.settings["converge"]
    n, dx = int(sec["n"]), float(sec["dx"])
    r = _check_r(config.exponents["r"])
    nyquist = 0.5 / dx
    lo, hi = (float(v) for v in sec["xi_range"])
    cutoffs = np.linspace(lo, hi, int(sec["points"]))
    band = float(sec["bandlimited"]["band"])
    signals = {
        "gaussian": make_signal(
            "gaussian", {"sigma": float(sec["gaussian"]["sigma"])}, n=n, dx=dx, space=config.space
        ),
        "bandlimited": make_signal(
            "bandlimited-random", {"band": band}, n=n, dx=dx, space=config.space, seed=config.seed
        ),
    }
    rows = []
    checks = {}
    for kind, signal in signals.items():
        grid = np.append(cutoffs, nyquist)  # the final cutoff recovers the signal
        path = carleson_path(signal, grid)
        errors = norm_eval(path - signal.values[:, None, :], signal.space).max(axis=0)
        # the suffix paths are slices of the one path: carleson_path(signal,
        # grid[k:]) equals path[:, k:, :] exactly
        tails = np.array(
            [_batched_variation(path[:, k:], signal.space, r).max() for k in range(cutoffs.size)]
        )
        sup_errors = errors[: cutoffs.size]
        for xi, err, tail in zip(cutoffs, sup_errors, tails):
            rows.append({"kind": kind, "xi": float(xi), "sup_error": float(err), "vr_tail": float(tail)})
        scale = float(norm_eval(signal.values, signal.space).max())
        checks[f"{kind}_tail_nonincreasing"] = bool(np.all(np.diff(tails) <= 1e-12 * scale))
        checks[f"{kind}_tail_bounds_error"] = bool(
            np.all(sup_errors <= tails + 1e-12 * scale)
        )
        if kind == "bandlimited":
            past = cutoffs > band * nyquist
            checks["bandlimited_exact_past_band"] = bool(
                past.any() and np.all(sup_errors[past] <= 1e-10 * scale)
            )
        else:
            live = sup_errors > 1e-12 * scale
            checks["gaussian_strictly_decreasing"] = bool(
                np.all(np.diff(sup_errors[live]) < 0.0)
            )
    report = {"rows": rows, "checks": checks, "pass": all(checks.values())}
    return {**_header(config, "converge"), **report}


# --- packets dump -------------------------------------------------------------


def run_packets_dump(config: ExperimentConfig, out: str) -> dict:
    sec = config.settings["packets"]
    table = _table_from(config.settings)
    grid = _grid_from(sec["grid"])
    signal = _band_signal(sec["signal"], config.space, config.seed)
    field = embed_packets(
        signal, table, tuple(sec["interval"]), grid, sign=int(sec["sign"])
    )
    dump_field(field, out)
    return {
        "experiment": "packets:dump",
        "preset": config.preset,
        "seed": config.seed,
        "out": out,
        "shape": list(field.values.shape),
        "interval": [float(v) for v in sec["interval"]],
        "sign": int(sec["sign"]),
    }


# --- emission ----------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    return obj


def _emit_json(report: dict, out: str | None) -> None:
    text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_csv(rows: list, header: list, out: str | None) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(row[key]) for key in header])

    if out is None:
        write(sys.stdout)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write(fh)


def _csv_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


# --- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vc",
        description="Variational time-frequency toolkit: sweeps, checks, tables, dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--preset", choices=sorted(PRESETS), default="ref")
        sp.add_argument("--config", help="JSON file deep-merged over the preset")
        sp.add_argument("--seed", type=int, help="u64 seed overriding the preset")
        sp.add_argument("--out", help="artifact path (default: stdout)")

    common(sub.add_parser("sweep", help="exponent-cell ratio sweep (CSV)"))
    verify = sub.add_parser("verify", help="run one verification check (JSON)")
    verify.add_argument("which", choices=VERIFY_KINDS)
    common(verify)
    common(sub.add_parser("converge", help="cutoff error and variation tail (CSV)"))
    packets = sub.add_parser("packets", help="wave-packet field utilities")
    actions = packets.add_subparsers(dest="action", required=True)
    common(actions.add_parser("dump", help="write the packet field as a binary dump"))
    return parser


def _dispatch(args) -> int:
    experiment = args.command if args.command != "packets" else "packets:" + args.action
    config = resolve_config(experiment, preset=args.preset, config_path=args.config, seed=args.seed)
    if args.command == "sweep":
        report = run_sweep(config)
        _emit_csv(report["rows"], ["p", "r", "r0", "seed", "ratio", "admissible"], args.out)
        summary = {k: report[k] for k in ("experiment", "preset", "seed", "admissibility", "cells")}
        sys.stderr.write(json.dumps(_jsonable(summary), sort_keys=True) + "\n")
        return EXIT_OK
    if args.command == "verify":
        report = run_verify(config, args.which)
        _emit_json(report, args.out)
        return EXIT_OK if report["pass"] else EXIT_FAIL
    if args.command == "converge":
        report = run_convergence(config)
        _emit_csv(report["rows"], ["kind", "xi", "sup_error", "vr_tail"], args.out)
        summary = {k: report[k] for k in ("experiment", "preset", "seed", "checks", "pass")}
        sys.stderr.write(json.dumps(_jsonable(summary), sort_keys=True) + "\n")
        return EXIT_OK if report["pass"] else EXIT_FAIL
    if args.out is None:
        raise ConfigurationError("packets dump writes binary data and needs --out")
    report = run_packets_dump(config, args.out)
    sys.stderr.write(json.dumps(_jsonable(report), sort_keys=True) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return _dispatch(args)
    except (ConfigurationError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"vc: configuration error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        target = getattr(exc, "filename", None) or "<unknown path>"
        sys.stderr.write(f"vc: io error at {target}: {exc}\n")
        return EXIT_CONFIG
    except Exception:  # a program fault, not bad input: it must not pose as exit 1 or 2
        sys.stderr.write("vc: internal error\n" + traceback.format_exc())
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

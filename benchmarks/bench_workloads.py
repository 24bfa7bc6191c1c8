"""Corpus workloads of the benchmark: set-up, item streams and item checks.

Each workload drives its corpus items through the public functions and the
seed derivation of the matching ``vc`` experiment at the ``ref`` preset
(``dual_quadrature`` at ``tiny``, the coarse quadrature rung);
``test_bench_matches_cli.py`` pins the item loops to the ``vc`` functions.
Calls go through module attributes (``embedding.embed_signal``) so that the
traced run, which rebinds those attributes, sees every call.  The few lines
of ``vc``'s private helpers the items need (seed derivation, signal draw,
grid and selection builders) are restated here, so that the benchmark
depends on public names only.

Item checks are structural, not the calibration bands of ``vc verify``: a
corpus cut to the items a run has time for has other maxima than the full
corpus the bands describe.
"""

from __future__ import annotations

import math

import numpy as np

from varcarleson import cli, core, embedding, fourier, outersize, tfs, wavepacket


def seed_of(*parts) -> int:
    """The ``vc`` derivation of a u64 seed from a tuple of integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def band_signal(sec: dict, space, seed: int):
    return core.make_signal(
        "bandlimited-random",
        {"band": float(sec["band"])},
        n=int(sec["n"]),
        dx=float(sec["dx"]),
        space=space,
        seed=seed,
    )


def grid_from(sec: dict):
    eta, y, t = sec["eta"], sec["y"], sec["t"]
    return tfs.TFSGrid.build((eta[0], eta[1]), eta[2], (y[0], y[1]), y[2], t[0], t[1], t[2])


def grid_selection(rng: np.random.Generator, signal, count: int):
    """Strictly increasing cutoffs drawn uniformly from the frequency grid."""
    freqs = np.fft.fftshift(np.fft.fftfreq(signal.n, d=signal.dx))
    idx = np.sort(rng.choice(freqs.size, size=count, replace=False))
    return core.FrequencySelection.constant(freqs[idx], signal.n)


def multiplier_table(settings: dict):
    sec = settings["table"]
    return wavepacket.assemble_m(wavepacket.BumpSpec(float(sec["b"]), float(sec["eps"])))


def embed_config(settings: dict, table):
    sec = settings["embed"]
    return embedding.EmbeddingConfig(
        table, kernel_power=int(sec["N"]), r_prime=float(sec["rprime"])
    )


def pairing_mass(f, g) -> float:
    """The integral of ``|f^(xi) . conj(g^(xi))|`` over the sampled frequencies."""
    cross = (np.fft.fft(f.values, axis=0) * np.conj(np.fft.fft(g.values, axis=0))).sum(axis=-1)
    return float(np.abs(cross).sum() * f.dx / f.n)


def _finite_positive(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value > 0.0


class HolderCorpus:
    """Hölder pairs: two signal embeddings, then the full and lebesgue checks."""

    name = "holder_corpus"
    MAXIMA = ("full", "lebesgue")

    def __init__(self, config):
        self.config = config
        sec = config.settings["holder"]
        self.sec = sec
        table = multiplier_table(config.settings)
        self.embed_cfg = embed_config(config.settings, table)
        self.grid = grid_from(sec["grid"])
        theta, theta_in = embedding.theta_windows(table, +1)
        self.trees = tfs.TreeDictionary.build(
            self.grid, theta, theta_in,
            eta_stride=int(sec["eta_stride"]), y_stride=int(sec["y_stride"]),
        )
        self.strips = tfs.StripDictionary.build(self.grid, y_stride=int(sec["strip_stride"]))

    def items(self, seed: int):
        sec, space = self.sec, self.config.space
        p, q = float(sec["p"]), float(sec["q"])
        parent = np.random.SeedSequence(seed)
        while True:
            (child,) = parent.spawn(1)
            s1, s2 = (int(v) for v in child.generate_state(2))
            f = band_signal(sec["signal"], space, s1)
            g = band_signal(sec["signal"], space, s2)
            field_a = embedding.embed_signal(f, self.grid, self.embed_cfg)
            field_b = embedding.embed_signal(g, self.grid, self.embed_cfg)
            full = outersize.size_holder_check(field_a, field_b, self.trees, kind="full", p=p)
            leb = outersize.size_holder_check(
                field_a, field_b, self.trees, self.strips, kind="lebesgue", p=p, q=q
            )
            yield {
                "full": full["ratio"],
                "lebesgue": leb["ratio"],
                "infinite": bool(full["infinite"] or leb["infinite"]),
            }

    @classmethod
    def check(cls, result: dict) -> list:
        bad = [k for k in cls.MAXIMA if not _finite_positive(result[k])]
        return bad + (["infinite"] if result["infinite"] else [])

    @classmethod
    def reference_values(cls, result: dict) -> list:
        return [result[k] for k in cls.MAXIMA]


class DominationCorpus:
    """Domination instances: one random draw, then the masked size comparison."""

    name = "domination_corpus"
    MAXIMA = ("plus_full", "plus_masked", "minus_full", "minus_masked")

    def __init__(self, config):
        self.config = config
        sec = config.settings["domination"]
        self.sec = sec
        table = multiplier_table(config.settings)
        self.embed_cfg = embed_config(config.settings, table)
        self.grid = grid_from(sec["grid"])
        self.dictionaries = embedding.domination_dictionaries(
            self.grid, table, eta_stride=int(sec["eta_stride"]), y_stride=int(sec["y_stride"])
        )

    def items(self, seed: int):
        rng = np.random.default_rng(seed)
        while True:
            sequence, selection, excluded = cli.domination_instance(
                self.sec, self.config.space, rng, self.grid, self.dictionaries
            )
            rep = embedding.check_domination(
                sequence, selection, self.grid, self.embed_cfg,
                excluded=excluded, dictionaries=self.dictionaries,
            )
            out = {key: rep[f"{key}_ratio"] for key in self.MAXIMA}
            out["violation"] = bool(rep["violation"])
            out["vacuous"] = bool(rep["vacuous"])
            yield out

    @classmethod
    def check(cls, result: dict) -> list:
        # one instance may have a zero ratio (the excluded union can cover
        # every packet); the corpus maxima must not, see maxima_problems
        bad = [k for k in cls.MAXIMA if not (math.isfinite(result[k]) and result[k] >= 0.0)]
        return bad + [k for k in ("violation", "vacuous") if result[k]]

    @classmethod
    def reference_values(cls, result: dict) -> list:
        return [result[k] for k in cls.MAXIMA]


class CutoffCorpus:
    """Per-draw work of ``vc sweep``, ``vc verify ptnm`` and ``vc converge``.

    Item ``d`` is draw ``d`` of every sweep cell, signal ``d`` of the ptnm
    corpus at every outer exponent, and the suffix variation tails of the
    converge table for the band-limited signal of seed ``seed_of(seed, d)``.
    """

    name = "cutoff_corpus"
    MAXIMA = ()

    def __init__(self, config):
        self.config = config
        settings = config.settings
        sweep = settings["sweep"]
        self.cells = [
            (float(p), float(r), float(r0))
            for p in sweep["p_values"]
            for r in sweep["r_values"]
            for r0 in sweep["r0_values"]
        ]
        self.sweep = sweep
        self.ptnm = settings["ptnm"]
        self.ptnm_space = core.NormedSpace(int(self.ptnm["dim"]), 2.0)
        conv = settings["converge"]
        self.conv = conv
        nyquist = 0.5 / float(conv["dx"])
        lo, hi = (float(v) for v in conv["xi_range"])
        self.cutoffs = np.linspace(lo, hi, int(conv["points"]))
        self.conv_grid = np.append(self.cutoffs, nyquist)

    def _sweep_ratios(self, seed: int, draw: int) -> list:
        levels = int(self.sweep["levels"])
        ratios = []
        for cell_index, (p, r, _) in enumerate(self.cells):
            row_seed = seed_of(seed, cell_index, draw)
            signal = band_signal(self.sweep["signal"], self.config.space, row_seed)
            selection = grid_selection(np.random.default_rng(row_seed), signal, levels)
            ratios.append(cli.sweep_ratio(signal, selection, p, r))
        return ratios

    def _ptnm(self, seed: int, draw: int, r: float) -> list:
        sec = self.ptnm
        out = []
        for s in (float(v) for v in sec["s_values"]):
            f = band_signal(sec["signal"], self.ptnm_space, seed_of(seed, 31, draw))
            rep = fourier.pointwise_norm_comparison(
                f, r, s, candidates=int(sec["candidates"]), seed=seed_of(seed, 32, draw)
            )
            out.append(
                {
                    "s": s,
                    "lattice_minus_normed": rep["per_candidate_lattice_minus_normed"],
                    "normed_minus_lattice": rep["per_candidate_normed_minus_lattice"],
                    "scale": rep["scale"],
                }
            )
        return out

    def _converge(self, seed: int, r: float) -> dict:
        conv = self.conv
        signal = core.make_signal(
            "bandlimited-random",
            {"band": float(conv["bandlimited"]["band"])},
            n=int(conv["n"]), dx=float(conv["dx"]), space=self.config.space, seed=seed,
        )
        grid = self.conv_grid
        path = fourier.carleson_path(signal, grid)
        errors = core.norm_eval(path - signal.values[:, None, :], signal.space).max(axis=0)
        tails = [
            float(fourier.variational_carleson(signal, r, grid[k:]).max())
            for k in range(self.cutoffs.size)
        ]
        return {
            "sup_errors": [float(v) for v in errors[: self.cutoffs.size]],
            "tails": tails,
            "scale": float(core.norm_eval(signal.values, signal.space).max()),
        }

    def items(self, seed: int):
        r = float(self.config.exponents["r"])
        draw = 0
        while True:
            yield {
                "sweep_ratios": self._sweep_ratios(seed, draw),
                "ptnm": self._ptnm(seed, draw, r),
                "converge": self._converge(seed_of(seed, draw), r),
                "r": r,
            }
            draw += 1

    def check(self, result: dict) -> list:
        bad = []
        if not all(ratio is not None and _finite_positive(ratio) for ratio in result["sweep_ratios"]):
            bad.append("sweep_ratio")
        r, tol = result["r"], float(self.ptnm["tol"])
        for rep in result["ptnm"]:
            # s >= r: lattice <= normed; s <= r: normed <= lattice
            bound = tol * max(rep["scale"], 1.0)
            if rep["s"] >= r and rep["lattice_minus_normed"] > bound:
                bad.append(f"ptnm_direction_s{rep['s']}")
            if rep["s"] <= r and rep["normed_minus_lattice"] > bound:
                bad.append(f"ptnm_direction_s{rep['s']}")
        conv = result["converge"]
        tails, errors = np.array(conv["tails"]), np.array(conv["sup_errors"])
        slack = 1e-12 * conv["scale"]
        if not (np.all(np.isfinite(tails)) and tails[0] > 0.0):
            bad.append("tails_finite_nonzero")
        if not np.all(np.diff(tails) <= slack):
            bad.append("tails_nonincreasing")
        if not np.all(errors <= tails + slack):
            bad.append("tails_bound_error")
        nyquist = 0.5 / float(self.conv["dx"])
        past = self.cutoffs > float(self.conv["bandlimited"]["band"]) * nyquist
        if not (past.any() and np.all(errors[past] <= 1e-10 * conv["scale"])):
            bad.append("exact_past_band")
        return bad

    @staticmethod
    def reference_values(result: dict) -> list:
        return (
            result["sweep_ratios"]
            + [rep["scale"] for rep in result["ptnm"]]
            + result["converge"]["tails"]
        )


class DualQuadrature:
    """``check_dual_representation`` instances of the preset's quadrature rung.

    The workload runs at ``tiny``: the coarse (40, 4) rung of the
    calibration's ladder with ``rel_max`` 0.15, on the same multiplier table
    as ``ref``.

    The check bounds the quadrature error by ``rel_max`` times the absolute
    pairing mass, the integral of ``|f^ g^|`` over all frequencies, not times
    ``|lhs|`` as ``vc verify dual`` does: the packet superposition
    approximates the indicator of the interval, so its error scales with
    that mass, while ``lhs``, an integral of an oscillating product, can
    nearly cancel.  Over 360 random instances (seeds 1-12, items 0-29)
    ``abs_err`` stays below 0.025 of the mass, while ``rel_err`` reaches 0.85
    on the instance whose ``|lhs|`` is twenty times below the usual size.
    """

    name = "dual_quadrature"
    MAXIMA = ()

    def __init__(self, config):
        self.config = config
        sec = config.settings["dual"]
        self.sec = sec
        self.space = core.NormedSpace(int(sec["dim"]), 2.0)
        self.table = multiplier_table(config.settings)

    def items(self, seed: int):
        sec, sig = self.sec, self.sec["signal"]
        index = 0
        while True:
            rng = np.random.default_rng(seed_of(seed, 17, index))
            f = core.make_signal(
                "gaussian",
                {"sigma": float(rng.uniform(0.3, 0.6)), "center": float(rng.uniform(-1.0, 1.0))},
                n=int(sig["n"]), dx=float(sig["dx"]), space=self.space,
            )
            g = band_signal(sig, self.space, seed_of(seed, 18, index))
            rep = embedding.check_dual_representation(
                f, g, tuple(sec["interval"]), self.table,
                t_min=float(sec["t_range"][0]), t_max=float(sec["t_range"][1]),
                t_steps=int(sec["t_steps"]), eta_per_window=int(sec["eta_per_window"]),
            )
            yield {
                "lhs": [rep["lhs"].real, rep["lhs"].imag],
                "rhs": [rep["rhs"].real, rep["rhs"].imag],
                "abs_err": rep["abs_err"],
                "rel_err": rep["rel_err"],
                "nodes": rep["nodes"],
                "mass": pairing_mass(f, g),
            }
            index += 1

    def check(self, result: dict) -> list:
        values = result["lhs"] + result["rhs"]
        bad = [] if all(math.isfinite(v) for v in values) and any(values) else ["finite_nonzero"]
        bound = float(self.sec["rel_max"]) * result["mass"]
        if not (math.isfinite(result["abs_err"]) and result["abs_err"] <= bound):
            bad.append("abs_err")
        return bad

    @staticmethod
    def reference_values(result: dict) -> list:
        return result["lhs"] + result["rhs"] + [result["rel_err"]]


_CLASSES = {cls.name: cls for cls in (HolderCorpus, DominationCorpus, CutoffCorpus, DualQuadrature)}
_PRESETS = {
    "holder_corpus": "ref",
    "domination_corpus": "ref",
    "cutoff_corpus": "ref",
    "dual_quadrature": "tiny",
}
_EXPERIMENTS = {
    "holder_corpus": "verify:holder",
    "domination_corpus": "verify:domination",
    "cutoff_corpus": "sweep",
    "dual_quadrature": "verify:dual",
}


def setup(name: str):
    """Everything the workload's ``vc`` invocation pays before its first item."""
    return _CLASSES[name](cli.resolve_config(_EXPERIMENTS[name], preset=_PRESETS[name]))


def maxima_problems(workload, results: list) -> list:
    """The corpus maxima over ``results`` must be finite and nonzero."""
    return [
        f"max_{key}"
        for key in workload.MAXIMA
        if not _finite_positive(max(float(r[key]) for r in results))
    ]

"""End-to-end acceptance battery.

One test per shipped guarantee, each ending in a single summary line
``criterion NN: PASS/FAIL (detail)``; run with ``pytest -s`` to see the
lines as they appear.  Tolerances and recorded constants come from the
packaged calibration file; nothing here is tuned per machine.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from varcarleson.cli import (
    domination_corpus_maxima,
    holder_corpus_maxima,
    load_calibration,
    resolve_config,
    run_sweep,
    run_verify,
)
from varcarleson.core import NormedSpace, make_signal, norm_eval
from varcarleson.embedding import check_dual_representation
from varcarleson.fourier import partial_fourier
from varcarleson.outersize import (
    SizeSpec,
    greedy_cover_profile,
    outer_lp_quasinorm,
    outer_size,
    super_level_measure,
)
from varcarleson.tfs import OuterField, TFSGrid, TreeDictionary, tree_membership
from varcarleson.variation import Path, variation_norm, variation_norm_bruteforce
from varcarleson.wavepacket import BumpSpec, assemble_m, packet_hat

CAL = load_calibration()


def conclude(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number:02d} failed: {detail}"


@pytest.fixture(scope="module")
def table():
    return assemble_m(BumpSpec(b=0.125, eps=1.0 / 128.0))


def random_path(rng):
    k = int(rng.integers(2, 13))
    d = int(rng.integers(1, 4))
    pts = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
    return Path(pts, NormedSpace(d, 2.0))


def test_criterion_01_variation_dp_matches_bruteforce():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    for i in range(200):
        path = random_path(rng)
        r = (1.0, 1.4, 2.0, 3.0)[i % 4]
        fast = variation_norm(path, r)
        slow = variation_norm_bruteforce(path, r)
        worst = max(worst, abs(fast - slow) / max(slow, 1.0))
    elapsed = time.monotonic() - started
    conclude(1, worst <= 1e-12 and elapsed < 5.0,
             f"max rel gap {worst:.2e} over 200 paths in {elapsed:.2f}s")


def test_criterion_02_variation_telescoping_and_monotone():
    rng = np.random.default_rng(202)
    tele_gap = 0.0
    mono_gap = 0.0
    for _ in range(60):
        path = random_path(rng)
        steps = norm_eval(np.diff(path.points, axis=0), path.space).sum()
        tele_gap = max(tele_gap, abs(variation_norm(path, 1.0) - steps) / max(steps, 1.0))
        values = [variation_norm(path, r) for r in (1.0, 1.5, 2.0, 2.5, 4.0)]
        mono_gap = max(mono_gap, max((b - a) / max(a, 1.0)
                                     for a, b in zip(values, values[1:])))
    conclude(2, tele_gap <= 1e-12 and mono_gap <= 1e-12,
             f"telescoping gap {tele_gap:.2e}, monotonicity gap {mono_gap:.2e}")


def test_criterion_03_cutoff_recovery_and_half_value():
    space = NormedSpace(1, 2.0)
    band = make_signal("bandlimited-random", {"band": 0.6}, n=256, dx=1.0 / 16.0,
                       space=space, seed=33)
    recovered = partial_fourier(band, 0.8 * 8.0)
    scale = float(np.abs(band.values).max())
    recovery_gap = float(np.abs(recovered.values - band.values).max()) / scale

    bump = make_signal("gaussian", {"sigma": 0.5}, n=256, dx=1.0 / 16.0, space=space)
    half = partial_fourier(bump, 0.0)
    middle = int(round(-bump.x0 / bump.dx))
    half_gap = float(np.abs(half.values[middle] - 0.5 * bump.values[middle]).max())
    conclude(3, recovery_gap <= 1e-10 and half_gap <= 1e-8,
             f"band recovery {recovery_gap:.2e}, zero-cutoff midpoint gap {half_gap:.2e}")


def test_criterion_04_reconstruction_and_multiplier_invariants():
    report = run_verify(resolve_config("verify", preset="ref"), "reconstruction")
    checks = report["checks"]
    conclude(4, report["pass"],
             f"sup residual {report['sup_ref']:.2e} at {report['cells'][0]} cells, "
             f"refinement ratio {report['ratio']:.2f}, exterior {report['exterior_max']:.1e}, "
             f"table checks {sorted(k for k, v in checks.items() if not v) or 'all pass'}")


def test_criterion_05_packet_support_and_far_endpoint(table):
    eps = table.spec.eps
    rng = np.random.default_rng(505)
    hits = 0
    support_ok = True
    for _ in range(10_000):
        c_minus = float(rng.uniform(-2.0, 2.0))
        c_plus = c_minus + float(rng.uniform(0.5, 3.0))
        t = float(rng.uniform(0.3, 3.5))
        eta = c_minus + (1.0 + float(rng.uniform(-3.0, 3.0)) * eps) / t
        value = float(packet_hat(table, (c_minus, c_plus), eta, t, 0.0))
        if value != 0.0:
            hits += 1
            lo = c_minus + (1.0 - eps) / t
            hi = min(c_plus - (1.0 - eps) / t, c_minus + (1.0 + eps) / t)
            support_ok = support_ok and lo < eta < hi

    zeta = np.linspace(-0.5 * table.spec.b, 0.5 * table.spec.b, 33)
    endpoint_gap = 0.0
    for _ in range(10_000):
        t = float(rng.uniform(0.3, 3.0))
        c_minus = float(rng.uniform(-2.0, 2.0))
        eta = c_minus + (1.0 + float(rng.uniform(-0.5, 0.5)) * eps) / t
        c_plus = eta + 3.0 / t + float(rng.uniform(1e-3, 5.0))
        bounded = packet_hat(table, (c_minus, c_plus), eta, t, zeta)
        half_line = packet_hat(table, (c_minus, np.inf), eta, t, zeta)
        scale = float(np.abs(half_line).max())
        endpoint_gap = max(endpoint_gap, float(np.abs(bounded - half_line).max()) / scale)
    conclude(5, support_ok and hits > 1000 and endpoint_gap <= 1e-10,
             f"{hits} nonzero support draws all inside the window, "
             f"far-endpoint gap {endpoint_gap:.2e}")


def test_criterion_06_dual_representation_ladder(table):
    started = time.monotonic()
    cal = CAL["dual_representation"]
    space = NormedSpace(1, 2.0)
    ladder_ok = True
    ref_worst = 0.0
    details = []
    for i in range(3):
        rng = np.random.default_rng(606 + i)
        f = make_signal("gaussian",
                        {"sigma": float(rng.uniform(0.3, 0.6)),
                         "center": float(rng.uniform(-1.0, 1.0))},
                        n=256, dx=1.0 / 16.0, space=space)
        g = make_signal("bandlimited-random", {"band": 0.9}, n=256, dx=1.0 / 16.0,
                        space=space, seed=660 + i)
        rels = []
        for label in ("coarse", "ref", "fine"):
            steps, per = cal["quadrature"][label]
            rep = check_dual_representation(
                f, g, tuple(cal["interval"]), table,
                t_min=cal["t_range"][0], t_max=cal["t_range"][1],
                t_steps=steps, eta_per_window=per)
            rels.append(rep["rel_err"])
        ladder_ok = ladder_ok and rels[0] > rels[1] > rels[2]
        ref_worst = max(ref_worst, rels[1])
        details.append(f"{rels[0]:.1e}>{rels[1]:.1e}>{rels[2]:.1e}")
    elapsed = time.monotonic() - started
    conclude(6, ref_worst <= cal["ref_rel_max"] and ladder_ok and elapsed < 120.0,
             f"ladders {', '.join(details)} in {elapsed:.1f}s")


def test_criterion_07_pointwise_norm_comparison():
    report = run_verify(resolve_config("verify", preset="ref"), "ptnm")
    gaps = {s: (v["lattice_minus_normed"], v["normed_minus_lattice"])
            for s, v in report["per_s"].items()}
    conclude(7, report["pass"],
             "; ".join(f"s={s}: gaps {a:.1e}/{b:.1e}" for s, (a, b) in sorted(gaps.items())))


def acceptance_outer_setting(seed):
    grid = TFSGrid.build((-1.0, 1.0), 9, (-2.0, 2.0), 9, 0.3, 1.0, 2.0)
    rng = np.random.default_rng(seed)
    e, y, t = np.meshgrid(grid.eta, grid.y, grid.t, indexing="ij")
    envelope = np.exp(-2.0 * (e - 0.4) ** 2 - 2.0 * (y + 0.3) ** 2 - np.log(t / 0.3) ** 2)
    noise = rng.normal(size=grid.shape + (2,)) + 1j * rng.normal(size=grid.shape + (2,))
    field = OuterField(grid, envelope[..., None] * noise, NormedSpace(2, 2.0))
    trees = TreeDictionary.build(grid, (-0.25, 1.125), (-0.25, 1.0), eta_stride=2, y_stride=2)
    return grid, field, trees


def test_criterion_08_outer_measure_laws():
    spec = SizeSpec("lp", 2.0, "full")
    mono_ok = cert_ok = ratio_ok = homog_ok = linf_ok = True
    greedy_worst = 0.0
    for seed in (81, 82, 83):
        grid, field, trees = acceptance_outer_setting(seed)
        top = outer_size(field, trees, spec)
        profile = greedy_cover_profile(field, trees, spec, stop_below=top / 1e3)
        mus = [super_level_measure(profile, lam)
               for lam in np.geomspace(top / 300.0, 1.5 * top, 15)]
        mono_ok = mono_ok and all(a >= b for a, b in zip(mus, mus[1:]))
        for lam in (0.6 * top, 0.2 * top):
            removed = np.zeros(grid.shape, dtype=bool)
            for idx, size in zip(profile.order, profile.sizes):
                if size > lam:
                    removed |= tree_membership(grid, trees.trees[idx])
            cert_ok = cert_ok and outer_size(field.restrict(~removed), trees, spec) <= lam

        step = max(1, len(trees.trees) // 12)
        picked = tuple(range(0, 12 * step, step))[:12]
        sub = TreeDictionary(grid=grid, trees=tuple(trees.trees[i] for i in picked))
        rows = [tree_membership(grid, tree) for tree in sub.trees]
        sub_profile = greedy_cover_profile(field, sub, spec)
        sub_top = outer_size(field, sub, spec)
        for lam in (0.5 * sub_top, 0.1 * sub_top):
            greedy_cost = super_level_measure(sub_profile, lam)
            best = math.inf
            for count in range(13):
                for combo in itertools.combinations(range(12), count):
                    removed = np.zeros(grid.shape, dtype=bool)
                    for i in combo:
                        removed |= rows[i]
                    if outer_size(field.restrict(~removed), sub, spec) <= lam:
                        best = min(best, sum(sub.trees[i].s for i in combo))
            ratio_ok = ratio_ok and greedy_cost <= (1.0 + math.log(12.0)) * best + 1e-12
            if best > 0.0:
                greedy_worst = max(greedy_worst, greedy_cost / best)

        base = outer_lp_quasinorm(field, trees, spec, 2.0)
        for c in (3.0, 7.5):
            scaled = OuterField(grid, c * field.values, field.space)
            value = outer_lp_quasinorm(scaled, trees, spec, 2.0)
            homog_ok = homog_ok and abs(value - c * base) <= 1e-10 * c * base
        linf_ok = linf_ok and outer_lp_quasinorm(field, trees, spec, math.inf) == top
    conclude(8, mono_ok and cert_ok and ratio_ok and homog_ok and linf_ok,
             f"monotone {mono_ok}, certificates {cert_ok}, greedy/opt <= {greedy_worst:.2f} "
             f"(cap {1.0 + math.log(12.0):.2f}), homogeneity {homog_ok}, Linf {linf_ok}")


def test_criterion_09_holder_corpus_stability():
    cal = CAL["holder_corpus"]
    seed_tol, refine_tol = cal["seed_tolerance"], cal["refine_tolerance"]
    recorded = cal["maxima"]["ref"]
    seed_ok = True
    details = []
    for seed in cal["check_seeds"]:
        maxima = holder_corpus_maxima(resolve_config("verify", preset="ref", seed=seed))
        for kind in ("full", "lebesgue"):
            gap = abs(maxima[kind] - recorded[kind]) / recorded[kind]
            seed_ok = seed_ok and gap <= seed_tol
        details.append(f"seed {seed}: {maxima['full']:.4f}/{maxima['lebesgue']:.4f}")
    fine = holder_corpus_maxima(resolve_config("verify", preset="fine", seed=cal["seed"]))
    refine_ok = all(
        abs(fine[kind] - recorded[kind]) <= refine_tol * recorded[kind]
        for kind in ("full", "lebesgue")
    )
    conclude(9, seed_ok and refine_ok,
             f"recorded {recorded['full']:.4f}/{recorded['lebesgue']:.4f}; "
             + "; ".join(details) + f"; fine {fine['full']:.4f}/{fine['lebesgue']:.4f}")


def test_criterion_10_domination_corpus_stability():
    cal = CAL["domination"]
    recorded = cal["maxima"]["ref"]
    seed = cal["seed"]
    ref = domination_corpus_maxima(resolve_config("verify", preset="ref", seed=seed))
    fine = domination_corpus_maxima(resolve_config("verify", preset="fine", seed=seed))
    keys = ("plus_full", "plus_masked", "minus_full", "minus_masked")
    finite_ok = all(math.isfinite(ref["maxima"][k]) and ref["maxima"][k] > 0.0 for k in keys)
    record_ok = all(
        abs(ref["maxima"][k] - recorded[k]) <= cal["seed_tolerance"] * recorded[k]
        for k in keys
    )
    refine_ok = all(
        abs(fine["maxima"][k] - ref["maxima"][k]) <= cal["refine_tolerance"] * ref["maxima"][k]
        for k in keys
    )
    clean = ref["violations"] == 0 and fine["violations"] == 0
    drift = max(abs(fine["maxima"][k] - ref["maxima"][k]) / ref["maxima"][k] for k in keys)
    conclude(10, finite_ok and record_ok and refine_ok and clean,
             f"ref maxima {[round(ref['maxima'][k], 2) for k in keys]}, "
             f"max refinement drift {100.0 * drift:.1f}% (cap "
             f"{100.0 * cal['refine_tolerance']:.0f}%), violations {ref['violations']}")


def test_criterion_11_sweep_flags_and_bounded_ratios(tmp_path):
    growth_cap = 0.25
    maxima = {}
    for corpus in (8, 16, 32):
        override = tmp_path / f"sweep{corpus}.json"
        override.write_text(json.dumps({"sweep": {"corpus": corpus}}))
        report = run_sweep(resolve_config("sweep", preset="ref", seed=2,
                                          config_path=str(override)))
        for row in report["rows"]:
            if row["r0"] == 2.0 and row["r"] > 2.0:
                assert row["admissible"] == (row["p"] > row["r"] / (row["r"] - 1.0))
        maxima[corpus] = {
            (c["p"], c["r"], c["r0"]): c["max_ratio"]
            for c in report["cells"] if c["admissible"]
        }
    assert maxima[8], "no admissible cells in the sweep"
    growth = 0.0
    for cell, base in maxima[8].items():
        for corpus in (16, 32):
            growth = max(growth, (maxima[corpus][cell] - base) / base)
    conclude(11, growth <= growth_cap,
             f"{len(maxima[8])} admissible cells, max ratio growth "
             f"{100.0 * growth:.1f}% from corpus 8 to 32 (cap {100.0 * growth_cap:.0f}%)")

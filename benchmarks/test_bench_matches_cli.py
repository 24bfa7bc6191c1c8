"""The benchmark's item loops run the same code as ``vc``.

On small configurations, the items of each workload, taken in order,
reproduce the ``vc`` experiment they stand for exactly: corpus maxima, sweep
ratios, ptnm gaps, converge tails and dual quadrature instances.
"""

import itertools
import json

import bench_workloads
import pytest
from varcarleson import cli


@pytest.fixture
def config(tmp_path):
    def resolve(experiment, override):
        path = tmp_path / "override.json"
        path.write_text(json.dumps(override))
        return cli.resolve_config(experiment, preset="tiny", config_path=str(path), seed=11)

    return resolve


def _items(workload, count):
    return list(itertools.islice(workload.items(workload.config.seed), count))


def test_holder_items_reproduce_corpus_maxima(config):
    cfg = config("verify:holder", {"holder": {"pairs": 4}})
    results = _items(bench_workloads.HolderCorpus(cfg), 4)
    want = cli.holder_corpus_maxima(cfg)
    assert max(r["full"] for r in results) == want["full"]
    assert max(r["lebesgue"] for r in results) == want["lebesgue"]
    assert sum(r["infinite"] for r in results) == want["degenerate_pairs"] == 0


def test_domination_items_reproduce_corpus_maxima(config):
    cfg = config("verify:domination", {"domination": {"instances": 3}})
    results = _items(bench_workloads.DominationCorpus(cfg), 3)
    want = cli.domination_corpus_maxima(cfg)
    for key in bench_workloads.DominationCorpus.MAXIMA:
        assert max(r[key] for r in results) == want["maxima"][key]
    assert sum(r["violation"] for r in results) == want["violations"]
    assert sum(r["vacuous"] for r in results) == want["vacuous"]


def test_cutoff_items_reproduce_sweep_ptnm_and_converge(config):
    cfg = config("sweep", {"sweep": {"corpus": 3}, "ptnm": {"signals": 3}})
    workload = bench_workloads.CutoffCorpus(cfg)
    results = _items(workload, 3)

    rows = cli.run_sweep(cfg)["rows"]
    assert len(rows) == len(workload.cells) * 3
    for index, row in enumerate(rows):
        cell, draw = divmod(index, 3)
        assert (row["p"], row["r"], row["r0"]) == workload.cells[cell]
        assert row["ratio"] == results[draw]["sweep_ratios"][cell]

    per_s = cli.run_verify(cfg, "ptnm")["per_s"]
    for k, s in enumerate(cfg.settings["ptnm"]["s_values"]):
        want = per_s[str(float(s))]
        reps = [r["ptnm"][k] for r in results]
        for key in ("lattice_minus_normed", "normed_minus_lattice", "scale"):
            assert max([0.0] + [rep[key] for rep in reps]) == want[key]

    for draw, result in enumerate(results):
        seed = bench_workloads.seed_of(cfg.seed, draw)
        conv = cli.resolve_config("converge", preset="tiny", seed=seed)
        rows = [r for r in cli.run_convergence(conv)["rows"] if r["kind"] == "bandlimited"]
        assert [r["vr_tail"] for r in rows] == result["converge"]["tails"]
        assert [r["sup_error"] for r in rows] == result["converge"]["sup_errors"]
        assert workload.check(result) == []


def test_dual_items_reproduce_verify_dual(config):
    cfg = config("verify:dual", {"dual": {"instances": 2}})
    results = _items(bench_workloads.DualQuadrature(cfg), 2)
    instances = cli.run_verify(cfg, "dual")["instances"]
    for got, want in zip(results, instances):
        for key in ("lhs", "rhs", "rel_err", "nodes"):
            assert got[key] == want[key]

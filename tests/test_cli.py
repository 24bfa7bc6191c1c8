import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from varcarleson import cli
from varcarleson.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_OK,
    PRESETS,
    admissibility_flags,
    load_calibration,
    main,
    resolve_config,
    run_convergence,
    run_sweep,
    run_verify,
    sweep_ratio,
)
from varcarleson.core import (
    ConfigurationError,
    FrequencySelection,
    NormedSpace,
    make_signal,
)
from varcarleson.embedding import load_field

SMALL_SWEEP = {
    "sweep": {
        "p_values": [1.5, 2.0, 3.0],
        "r_values": [1.8, 2.5],
        "r0_values": [2.0],
        "corpus": 3,
        "levels": 3,
        "signal": {"band": 1.6, "n": 64, "dx": 0.25},
    }
}


def write_config(tmp_path, payload, name="override.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_admissibility_flags_region():
    # at r0 = 2 the operator flag is exactly p beyond the dual exponent of r
    for p in (1.2, 1.5, 2.0, 3.0, 10.0):
        for r in (2.2, 2.5, 4.0):
            flags = admissibility_flags(p, 2.0, r, 2.0)
            assert flags["operator"] == (p > r / (r - 1.0))
    assert not admissibility_flags(3.0, 2.0, 1.5, 2.0)["operator"]  # r below r0
    assert admissibility_flags(3.0, 2.0, 4.0, 3.0)["p_threshold"] == 2.0
    flags = admissibility_flags(2.0, 2.0, 2.5, 2.0)
    assert flags["pairing_dual"] == (2.0 < 2.5)
    assert not flags["pairing"]  # q = 2 sits exactly on the strict threshold
    assert admissibility_flags(2.0, 2.5, 2.5, 2.0)["pairing"]
    with pytest.raises(ConfigurationError):
        admissibility_flags(0.5, 2.0, 2.5, 2.0)
    with pytest.raises(ConfigurationError):
        admissibility_flags(2.0, 2.0, 2.5, 1.0)


def test_presets_share_shape():
    keys = {name: sorted(settings) for name, settings in PRESETS.items()}
    assert keys["tiny"] == keys["ref"] == keys["fine"]
    for settings in PRESETS.values():
        assert set(settings["exponents"]) == {"p", "q", "r", "r0"}
    # refinement changes sampling only: ranges and scale ladders agree
    for section in ("holder", "domination"):
        ref, fine = PRESETS["ref"][section]["grid"], PRESETS["fine"][section]["grid"]
        for axis in ("eta", "y", "t"):
            assert ref[axis][:2] == fine[axis][:2]
        assert ref["t"][2] == fine["t"][2]


def test_resolve_config_merge_and_validation(tmp_path):
    path = write_config(tmp_path, {"exponents": {"r": 3.0}, "sweep": {"corpus": 2}})
    cfg = resolve_config("sweep", preset="tiny", config_path=path, seed=99)
    assert cfg.exponents["r"] == 3.0
    assert cfg.exponents["p"] == PRESETS["tiny"]["exponents"]["p"]  # untouched key
    assert cfg.settings["sweep"]["corpus"] == 2
    assert cfg.settings["sweep"]["levels"] == PRESETS["tiny"]["sweep"]["levels"]
    assert cfg.seed == 99 and cfg.preset == "tiny"
    assert cfg.space == NormedSpace(2, 2.0)

    with pytest.raises(ConfigurationError):
        resolve_config("sweep", preset="huge")
    with pytest.raises(ConfigurationError):
        resolve_config("sweep", preset="tiny", seed=-1)
    bad = write_config(tmp_path, ["not", "an", "object"], "list.json")
    with pytest.raises(ConfigurationError):
        resolve_config("sweep", preset="tiny", config_path=bad)
    alien = write_config(tmp_path, {"embed": {"phi_kind": "hann"}}, "alien.json")
    with pytest.raises(ConfigurationError):
        resolve_config("sweep", preset="tiny", config_path=alien)


def test_sweep_rows_and_cells(tmp_path):
    path = write_config(tmp_path, SMALL_SWEEP)
    report = run_sweep(resolve_config("sweep", preset="tiny", config_path=path, seed=1))
    cells = {(c["p"], c["r"], c["r0"]): c for c in report["cells"]}
    assert len(cells) == 6
    for row in report["rows"]:
        assert set(row) == {"p", "r", "r0", "seed", "ratio", "admissible"}
        assert math.isfinite(row["ratio"]) and row["ratio"] > 0.0
        r_dual = row["r"] / (row["r"] - 1.0)
        want = row["r"] > row["r0"] and row["p"] > r_dual
        assert row["admissible"] == want
    for key, cell in cells.items():
        drawn = [r["ratio"] for r in report["rows"] if (r["p"], r["r"], r["r0"]) == key]
        assert len(drawn) == 3
        assert cell["max_ratio"] == max(drawn)

    # doubling the corpus only appends draws: the earlier rows are unchanged
    bigger = dict(SMALL_SWEEP["sweep"], corpus=6)
    path2 = write_config(tmp_path, {"sweep": bigger}, "bigger.json")
    more = run_sweep(resolve_config("sweep", preset="tiny", config_path=path2, seed=1))
    by_cell_small = {}
    for row in report["rows"]:
        by_cell_small.setdefault((row["p"], row["r"], row["r0"]), []).append(row)
    by_cell_big = {}
    for row in more["rows"]:
        by_cell_big.setdefault((row["p"], row["r"], row["r0"]), []).append(row)
    for key, small_rows in by_cell_small.items():
        assert by_cell_big[key][: len(small_rows)] == small_rows


def test_sweep_excludes_zero_draws():
    f = make_signal("gaussian", {"sigma": 0.5}, n=64, dx=0.25, space=NormedSpace(2, 2.0))
    zero = f.with_values(np.zeros_like(f.values))
    selection = FrequencySelection.constant([-1.0, 0.0, 1.0], f.n)
    assert sweep_ratio(zero, selection, 2.0, 2.5) is None
    assert sweep_ratio(f, selection, 2.0, 2.5) > 0.0


def test_sweep_cli_csv_bytes_reproducible(tmp_path):
    cfg = write_config(tmp_path, SMALL_SWEEP)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["sweep", "--preset", "tiny", "--config", cfg,
                     "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
    blob = out1.read_bytes()
    assert blob == out2.read_bytes()
    assert blob.count(b"\r\n") == blob.count(b"\n")  # RFC 4180 line endings
    with open(out1, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "r", "r0", "seed", "ratio", "admissible"]
    assert len(rows) == 1 + 6 * 3
    assert {row[5] for row in rows[1:]} <= {"true", "false"}
    float(rows[1][4])  # ratio parses


def test_verify_reconstruction_report(tmp_path):
    out = tmp_path / "rec.json"
    code = main(["verify", "reconstruction", "--preset", "tiny", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    report = json.loads(text)
    assert report["pass"] is True
    assert set(report["checks"]) >= {"sup_ref", "refinement_ratio", "exterior",
                                     "m_positive", "m_mirror", "m_flat_outside_zone"}
    assert all(report["checks"].values())
    assert report["sup_fine"] <= report["sup_ref"]
    assert len(report["residual_curve"]["xi"]) == len(report["residual_curve"]["ref"])
    # stable key order: the emitted text is its own canonical re-serialization
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_verify_ptnm_directions(tmp_path):
    path = write_config(tmp_path, {"ptnm": {"signals": 4, "candidates": 8}})
    report = run_verify(resolve_config("verify", preset="tiny", config_path=path), "ptnm")
    assert report["pass"] is True
    per_s = report["per_s"]
    assert set(per_s) == {"1.5", "2.5", "4.0"}
    scale = per_s["2.5"]["scale"]
    assert per_s["2.5"]["lattice_minus_normed"] <= 1e-10 * max(scale, 1.0)
    assert per_s["2.5"]["normed_minus_lattice"] <= 1e-10 * max(scale, 1.0)


def test_verify_rejects_unknown_check():
    cfg = resolve_config("verify", preset="tiny")
    with pytest.raises(ConfigurationError):
        run_verify(cfg, "everything")
    assert main(["verify", "everything"]) == EXIT_CONFIG


def test_converge_table_and_checks(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["converge", "--preset", "tiny", "--seed", "3", "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    kinds = {row["kind"] for row in rows}
    assert kinds == {"gaussian", "bandlimited"}
    for kind in kinds:
        sup = [float(r["sup_error"]) for r in rows if r["kind"] == kind]
        tail = [float(r["vr_tail"]) for r in rows if r["kind"] == kind]
        assert all(s <= t + 1e-9 for s, t in zip(sup, tail))
        assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))
    report = run_convergence(resolve_config("converge", preset="tiny", seed=3))
    assert report["pass"] is True
    gauss = [r for r in report["rows"] if r["kind"] == "gaussian"]
    live = [r["sup_error"] for r in gauss if r["sup_error"] > 1e-12]
    assert all(a > b for a, b in zip(live, live[1:]))
    band = PRESETS["tiny"]["converge"]["bandlimited"]["band"]
    nyquist = 0.5 / PRESETS["tiny"]["converge"]["dx"]
    past = [r["sup_error"] for r in report["rows"]
            if r["kind"] == "bandlimited" and r["xi"] > band * nyquist]
    assert past and max(past) <= 1e-10


def test_packets_dump_roundtrip(tmp_path):
    out = tmp_path / "field.vcf"
    assert main(["packets", "dump", "--preset", "tiny", "--seed", "5",
                 "--out", str(out)]) == EXIT_OK
    field = load_field(out)
    sec = PRESETS["tiny"]["packets"]
    assert field.values.shape[:3] == (sec["grid"]["eta"][2], sec["grid"]["y"][2],
                                      field.grid.t.size)
    assert np.abs(field.values).max() > 0.0
    # binary dumps have no stdout fallback
    assert main(["packets", "dump", "--preset", "tiny"]) == EXIT_CONFIG


def test_main_maps_failures_to_exit_codes(tmp_path):
    assert main([]) == EXIT_CONFIG
    assert main(["sweep", "--preset", "huge"]) == EXIT_CONFIG
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["sweep", "--config", str(garbled)]) == EXIT_CONFIG
    assert main(["verify", "dual", "--out", str(tmp_path / "no" / "dir.json"),
                 "--preset", "tiny"]) == EXIT_CONFIG
    assert main(["--help"]) == EXIT_OK


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    path = write_config(tmp_path, {"sweep": {"corpsu": 2}}, "typo.json")
    assert main(["sweep", "--preset", "tiny", "--config", path]) == EXIT_CONFIG
    assert "sweep.corpsu" in capsys.readouterr().err
    # the signal generator is fixed, so there is no kind to choose
    path = write_config(tmp_path, {"sweep": {"signal": {"kind": "gaussian"}}}, "kind.json")
    assert main(["sweep", "--preset", "tiny", "--config", path]) == EXIT_CONFIG
    assert "sweep.signal.kind" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, None], ids=["true", "null"])
def test_config_value_of_wrong_type_is_rejected(tmp_path, capsys, value):
    path = write_config(tmp_path, {"sweep": {"corpus": value}}, "typed.json")
    assert main(["sweep", "--preset", "tiny", "--config", path]) == EXIT_CONFIG
    assert "sweep.corpus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, command, count",
    [
        pytest.param(name, command, count, id=name)
        for name, command, count in (
            ("sweep.corpus", ["sweep"], 0),
            ("dual.instances", ["verify", "dual"], -3),
            ("holder.pairs", ["verify", "holder"], 0),
            ("domination.instances", ["verify", "domination"], 0),
            ("domination.max_excluded", ["verify", "domination"], 0),
            ("ptnm.signals", ["verify", "ptnm"], 0),
            ("reconstruction.points", ["verify", "reconstruction"], -1),
            ("converge.points", ["converge"], 0),
        )
    ],
)
def test_corpus_count_below_one_is_rejected(tmp_path, capsys, name, command, count):
    # an empty corpus runs no check, so it must not pass vacuously
    section, key = name.split(".")
    path = write_config(tmp_path, {section: {key: count}}, "count.json")
    assert main(command + ["--preset", "tiny", "--config", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert name in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "name, command",
    [
        ("sweep.p_values", ["sweep"]),
        ("sweep.r_values", ["sweep"]),
        ("sweep.r0_values", ["sweep"]),
        ("ptnm.s_values", ["verify", "ptnm"]),
    ],
    ids=["p_values", "r_values", "r0_values", "s_values"],
)
def test_empty_exponent_list_is_rejected(tmp_path, capsys, name, command):
    # an empty list of exponents runs no check, so it must not pass vacuously
    section, key = name.split(".")
    path = write_config(tmp_path, {section: {key: []}}, "empty.json")
    assert main(command + ["--preset", "tiny", "--config", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert name in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "name, command",
    [
        pytest.param(name, command, id=name)
        for name, command in (
            ("sweep.signal.n", ["sweep"]),
            ("dual.signal.n", ["verify", "dual"]),
            ("ptnm.signal.n", ["verify", "ptnm"]),
            ("converge.n", ["converge"]),
        )
    ],
)
def test_sample_count_not_power_of_two_is_rejected(tmp_path, capsys, name, command):
    # the radix-2 transform needs a power-of-two sample count
    payload = 100
    for key in reversed(name.split(".")):
        payload = {key: payload}
    path = write_config(tmp_path, payload, "samples.json")
    assert main(command + ["--preset", "tiny", "--config", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert name in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "section, override, command",
    [
        # largest scale 1.6 > b * n * dx = 1.5625
        ("holder", {"signal": {"n": 100}}, ["verify", "holder"]),
        # the band 0.5/dx = 2 leaves no headroom beyond the eta range [-2, 2]
        ("domination", {"signal": {"dx": 0.25}}, ["verify", "domination"]),
        # largest scale 6.4 > b * n * dx = 2
        ("packets", {"grid": {"t": [0.4, 6.4, 2.0]}}, ["packets", "dump"]),
        ("holder", {"signal": {"dx": 0.0}}, ["verify", "holder"]),
    ],
    ids=["holder", "domination", "packets", "holder_dx_zero"],
)
def test_signal_too_coarse_for_scales_is_rejected(tmp_path, capsys, section, override, command):
    # the embedding's scale check, run in resolve_config, names the keys that fix it
    path = write_config(tmp_path, {section: override}, "coarse.json")
    out = tmp_path / "field.bin"
    argv = command + ["--preset", "tiny", "--config", path, "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    for key in ("signal.n", "signal.dx", "grid.t"):
        assert f"{section}.{key}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "name, command, values",
    [
        pytest.param(name, command, values, id=name)
        for name, command, values in (
            # a negative stride reverses the dictionary tops, a zero one cannot slice
            ("holder.eta_stride", ["verify", "holder"], [-1, 0]),
            ("holder.y_stride", ["verify", "holder"], [-1, 0]),
            ("holder.strip_stride", ["verify", "holder"], [-1, 0]),
            ("domination.eta_stride", ["verify", "domination"], [-1, 0]),
            ("domination.y_stride", ["verify", "domination"], [-1, 0]),
            # a reversed scale range would pose as a tolerance failure
            ("dual.t_range", ["verify", "dual"], [[0.75, 0.25], [-0.25, 0.75], [0.5, 0.5],
                                                  [0.25], [0.25, "x"]]),
            ("domination.cut_lo", ["verify", "domination"], [[-2.0, -2.25]]),
            # at tiny the frequency cell 1/(n dx) is 0.125, and a gap that rounds
            # to 0 cells would draw only empty intervals
            ("domination.gap", ["verify", "domination"],
             [[4.5, 3.5], [-1.0, 3.5], [0, 3.5], [0.01, 0.02]]),
            ("ptnm.candidates", ["verify", "ptnm"], [-1]),
            # reversed or empty frequency intervals
            ("reconstruction.interval", ["verify", "reconstruction"], [[1.5, -0.5], [0.5, 0.5]]),
            ("dual.interval", ["verify", "dual"], [[2.5, -2.5]]),
            ("packets.interval", ["packets", "dump"], [[2.5, -2.5]]),
            # quadrature and refinement sizes that leave no rule to run
            ("dual.t_steps", ["verify", "dual"], [7, 0]),
            ("dual.eta_per_window", ["verify", "dual"], [1]),
            ("reconstruction.cells", ["verify", "reconstruction"], [1]),
            ("reconstruction.refine", ["verify", "reconstruction"], [1, 0]),
            # a zero step divides by zero; at tiny 0.5 moves Nyquist below the cutoffs
            ("converge.dx", ["converge"], [0.0, -0.125, math.inf, 0.5]),
            # cutoffs must sit inside (0, Nyquist), which is 4 at tiny
            ("converge.xi_range", ["converge"], [[0.25, 99.0], [0.0, 1.0], [2.0, 1.0]]),
            # a selection draws distinct levels from the 128 frequencies at tiny
            ("sweep.levels", ["sweep"], [1, 0, 200]),
            # signal steps and widths that make_signal refuses
            ("sweep.signal.dx", ["sweep"], [0, -0.125]),
            ("dual.signal.dx", ["verify", "dual"], [0]),
            ("ptnm.signal.dx", ["verify", "ptnm"], [0]),
            # at tiny a sigma of 5 leaves the Gaussian above 1e-12 of its peak at the edges
            ("converge.gaussian.sigma", ["converge"], [0, -0.4, 5.0]),
            # bands must sit inside (0, Nyquist), which is 4 for the sweep at tiny
            ("sweep.signal.band", ["sweep"], [0, 4.0]),
            ("dual.signal.band", ["verify", "dual"], [0]),
            ("holder.signal.band", ["verify", "holder"], [0]),
            ("domination.signal.band", ["verify", "domination"], [0]),
            ("ptnm.signal.band", ["verify", "ptnm"], [0]),
            ("packets.signal.band", ["packets", "dump"], [0]),
            ("converge.bandlimited.band", ["converge"], [0]),
            # TFS grid axes: at least two ascending nodes, a rising scale ladder
            ("holder.grid.y", ["verify", "holder"], [[-4, 4, -2], [-4, 4, 1], [4, -4, 9]]),
            ("domination.grid.eta", ["verify", "domination"], [[-2, 2, 0], [-2, 2, 16.5]]),
            # [0.4, 0.5, 2.0] holds one scale of the ladder: TFSGrid.build refuses it
            ("packets.grid.t", ["packets", "dump"],
             [[0.4, 1.6, 1.0], [1.6, 0.4, 2.0], [0.4], [0.4, 0.5, 2.0]]),
            # bump radii need 0 < b <= 1/8 and 0 < eps <= b/16; b is read by the
            # embedded-signal checks too, so it must be rejected by its own key first
            ("table.b", ["verify", "dual"], [0.0, -0.125, 0.25]),
            ("table.eps", ["verify", "dual"], [0.1, 0.0]),
            # the embedding kernel decays with a power >= 2 on a lattice exponent >= 1
            ("embed.N", ["verify", "holder"], [0, 1]),
            ("embed.rprime", ["verify", "holder"], [0.5, 0.0]),
            # the exponent region of admissibility_flags: p, q, r >= 1 and r0 > 1
            ("exponents.p", ["converge"], [0.5, -1, math.nan]),
            ("exponents.q", ["converge"], [0.5, math.inf]),
            ("exponents.r", ["converge"], [0, math.nan]),
            ("exponents.r0", ["converge"], [1.0, 0.5, math.inf]),
            ("sweep.p_values", ["sweep"], [[0.5, 2.0], [1.5, math.nan], [1.5, "x"]]),
            ("sweep.r_values", ["sweep"], [[0.5], [-2.5]]),
            ("sweep.r0_values", ["sweep"], [[1.0], [2.0, math.inf]]),
            # size_holder_check needs 1 < p < inf and 1 < q < inf
            ("holder.p", ["verify", "holder"], [1.0, 0.5, math.inf]),
            ("holder.q", ["verify", "holder"], [1.0, math.nan]),
            ("ptnm.s_values", ["verify", "ptnm"], [[0.5], [1.5, -2.5], [math.inf]]),
            # coordinate spaces C^d with d >= 1 and an l^p exponent p >= 1
            ("space.dim", ["sweep"], [0, -1]),
            ("space.exponent", ["sweep"], [0.5, -1, math.nan]),
            ("dual.dim", ["verify", "dual"], [0, -2]),
            ("ptnm.dim", ["verify", "ptnm"], [0]),
            ("packets.sign", ["packets", "dump"], [0, 2, -3]),
            # a tolerance <= 0 or NaN never passes, a ratio bound <= 0 always does
            ("reconstruction.sup_max", ["verify", "reconstruction"], [0, -0.05, math.nan]),
            ("reconstruction.ratio_min", ["verify", "reconstruction"], [0, -2.0, math.nan]),
            ("dual.rel_max", ["verify", "dual"], [0, -1, math.nan]),
            ("ptnm.tol", ["verify", "ptnm"], [0, -1e-10, math.nan]),
        )
    ],
)
def test_out_of_range_setting_is_rejected(tmp_path, capsys, name, command, values):
    for value in values:
        payload = value
        for key in reversed(name.split(".")):
            payload = {key: payload}
        path = write_config(tmp_path, payload, "range.json")
        assert main(command + ["--preset", "tiny", "--config", path]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert name in captured.err
        assert captured.out == ""


@pytest.mark.parametrize(
    "payload, command, keys",
    [
        pytest.param(
            {"converge": {"gaussian": {"sigma": 5.0}}}, ["converge"],
            ["converge.gaussian.sigma", "converge.n", "converge.dx"], id="converge-gaussian",
        ),
        # two eta nodes: the stride-2 tree tops leave nodes uncovered
        pytest.param(
            {"holder": {"grid": {"eta": [-2, 2, 2]}}}, ["verify", "holder"],
            ["holder.grid", "holder.eta_stride", "holder.y_stride"], id="holder-grid",
        ),
        pytest.param(
            {"domination": {"grid": {"eta": [-2, 2, 2]}}}, ["verify", "domination"],
            ["domination.grid", "domination.eta_stride", "domination.y_stride"],
            id="domination-grid",
        ),
        pytest.param(
            # the dual corpus Gaussians do not decay inside a 32-sample grid
            {"dual": {"signal": {"n": 32}}}, ["verify", "dual"],
            ["dual.signal.n", "dual.signal.dx"],
            id="dual-gaussian",
        ),
    ],
)
def test_settings_that_do_not_fit_together_name_every_key(
    tmp_path, capsys, payload, command, keys
):
    path = write_config(tmp_path, payload)
    assert main(command + ["--preset", "tiny", "--config", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    for key in keys:
        assert f"'{key}'" in captured.err
    assert captured.out == ""


def test_runs_without_scipy(tmp_path):
    # the package needs numpy alone: importing the CLI loads no scipy, and
    # the two checks that read the spline tables and the holder check (trees,
    # strips, covers) run with scipy blocked
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    plain = "import sys, varcarleson.cli; assert 'scipy' not in sys.modules, 'scipy loaded'"
    blocked = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from varcarleson import cli\n"
        "for which in ('dual', 'reconstruction', 'holder'):\n"
        "    assert cli.main(['verify', which, '--preset', 'tiny']) == 0, which\n"
    )
    for script in (plain, blocked):
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def test_max_excluded_above_tree_count_is_rejected(tmp_path, capsys):
    # each domination draw excludes max_excluded distinct trees of each sign,
    # and the tiny dictionaries hold 324 trees per sign
    path = write_config(tmp_path, {"domination": {"max_excluded": 100000}}, "big.json")
    assert main(["verify", "domination", "--preset", "tiny", "--config", path]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "domination.max_excluded" in captured.err
    assert "324" in captured.err
    assert captured.out == ""
    path = write_config(
        tmp_path, {"domination": {"max_excluded": 324, "instances": 1}}, "all.json"
    )
    assert main(["verify", "domination", "--preset", "tiny", "--config", path]) != EXIT_CONFIG
    assert "maxima" in json.loads(capsys.readouterr().out)


def test_verify_tolerance_failure_exits_one(tmp_path):
    # an impossible residual bound turns the reconstruction check red
    path = write_config(tmp_path, {"reconstruction": {"sup_max": 1e-12}})
    assert main(["verify", "reconstruction", "--preset", "tiny",
                 "--config", path, "--out", str(tmp_path / "r.json")]) == EXIT_FAIL


def test_calibration_resource_loads():
    cal = load_calibration()
    for section in ("holder", "holder_corpus", "domination", "dual_representation"):
        assert section in cal
    assert cal["holder_corpus"]["seed_tolerance"] < cal["holder_corpus"]["refine_tolerance"]


def _numeric_leaves(settings, path=""):
    for key, value in settings.items():
        if type(value) is dict:
            yield from _numeric_leaves(value, f"{path}{key}.")
        elif f"{path}{key}" != "seed":
            yield f"{path}{key}", value


def _fuzz_values(value):
    if type(value) is list:
        return {
            "empty": [],
            "zeroed": [0] * len(value),
            "negated": [-v for v in value],
            "reversed": value[::-1],
        }
    return {"zero": 0, "minus_one": -1, "nan": math.nan}


# the command that reads each section; the shared sections go to one reader each
_FUZZ_COMMANDS = {
    "space": ["converge"],
    "exponents": ["converge"],
    "table": ["verify", "reconstruction"],
    "embed": ["verify", "holder"],
    "sweep": ["sweep"],
    "converge": ["converge"],
    "packets": ["packets", "dump"],
}
# a cutoff range of one point at 0 draws selections whose packets vanish to
# roundoff (maxima <= 1e-14): a valid run that fails its `nonzero` check
_HONEST_FAILURES = {("domination.cut_lo", "zeroed"): ["nonzero"]}


@pytest.mark.parametrize(
    "name, label, value",
    [
        pytest.param(name, label, value, id=f"{name}-{label}")
        for name, leaf in _numeric_leaves(PRESETS["tiny"])
        for label, value in _fuzz_values(leaf).items()
    ],
)
def test_every_override_is_rejected_by_key_or_runs(tmp_path, capsys, name, label, value):
    payload = value
    for key in reversed(name.split(".")):
        payload = {key: payload}
    path = write_config(tmp_path, payload, "fuzz.json")
    try:
        resolve_config("fuzz", preset="tiny", config_path=path)
    except ConfigurationError as exc:
        assert f"'{name}'" in str(exc)
        return
    section = name.split(".")[0]
    command = _FUZZ_COMMANDS.get(section, ["verify", section])
    out = ["--out", str(tmp_path / "field.bin")] if section == "packets" else []
    code = main(command + ["--preset", "tiny", "--config", path] + out)
    captured = capsys.readouterr()
    failing = _HONEST_FAILURES.get((name, label))
    if failing is None:
        assert code == EXIT_OK, captured.err
    else:
        assert code == EXIT_FAIL
        checks = json.loads(captured.out)["checks"]
        assert [key for key, ok in checks.items() if not ok] == failing


@pytest.mark.parametrize("error", [ValueError, RuntimeError], ids=["value", "runtime"])
def test_internal_error_exits_three_with_traceback(monkeypatch, capsys, error):
    # a program fault poses neither as a configuration error (2) nor as a failed check (1)
    def broken(config):
        raise error("raised inside a runner")

    monkeypatch.setattr(cli, "run_sweep", broken)
    assert main(["sweep", "--preset", "tiny"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.err.startswith("vc: internal error\nTraceback")
    assert f"{error.__name__}: raised inside a runner" in captured.err
    assert captured.out == ""


def test_config_file_not_utf8_is_a_configuration_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"sweep": {"corpus": 2}} // réglage'.encode("latin-1"))
    assert main(["sweep", "--preset", "tiny", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("vc: configuration error: 'utf-8' codec")
    assert captured.out == ""


def test_readme_lists_every_config_rule_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for name, _rule, *reads in cli._RULES:
        for key in (name, *reads):
            assert f"`{key}`" in readme, key

import csv
import json
import math

import numpy as np
import pytest

from varcarleson.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
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


def test_converge_rejects_bad_cutoff_range(tmp_path):
    path = write_config(tmp_path, {"converge": {"xi_range": [0.25, 99.0]}})
    assert main(["converge", "--preset", "tiny", "--config", path]) == EXIT_CONFIG


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

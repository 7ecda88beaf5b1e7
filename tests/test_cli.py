import csv
import hashlib
import json
import math

import numpy as np
import pytest

import cpbsim.cli
import cpbsim.experiment
from cpbsim.cli import main
from cpbsim.config import config_from_mapping, load_config


def _write_config(tmp_path, mapping, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping), encoding="utf-8")
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"bogus": 1})
    code = main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("n_charges", [1, 3])
def test_device_rule_is_the_config_rule(tmp_path, capsys, n_charges):
    cfg = _write_config(tmp_path, {"device": {"n_charges": n_charges}})
    out = tmp_path / "o"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert "n_charges must be odd and >= 5" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    code = main(["spectrum", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_bad_temperatures_flag_exits_2(tmp_path):
    code = main(["gibbs", "--temperatures", "ten", "--out", str(tmp_path / "o")])
    assert code == 2
    code = main(["gibbs", "--temperatures", "-5", "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "mapping, argv",
    [
        ({"device": {"josephson_energy_total": math.nan}}, ["run", "--dt", "1e-3"]),
        ({"device": {"charging_energy": 10**400}}, ["run", "--dt", "1e-3"]),
        ({}, ["gibbs", "--exact", "--temperatures", "nan"]),
        ({}, ["gibbs", "--exact", "--temperatures", "inf"]),
    ],
    ids=["config-nan", "config-int-overflow", "temperature-nan", "temperature-inf"],
)
def test_non_finite_values_exit_2(tmp_path, capsys, mapping, argv):
    # Python's json reads NaN and Infinity, so the config layer must refuse them
    cfg = _write_config(tmp_path, mapping)
    out = tmp_path / "o"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_failed_command_leaves_no_output_directory(tmp_path, capsys):
    # one event cannot give an exponentiated-work mean; the failure comes
    # after the first temperature's payloads were formed
    out = tmp_path / "partial"
    code = main(["gibbs", "--sampled", "--events", "1", "--dt", "1e-3", "--out", str(out)])
    assert code == 2
    assert "at least two sampled events" in capsys.readouterr().err
    assert not out.exists()


def test_gibbs_refuses_underflowing_weights(tmp_path, capsys):
    # at 1 mK the Boltzmann weights of labels 0, 1 and 2 underflow to 0,
    # which used to drop them from the exact exponentiated-work sum
    out = tmp_path / "cold"
    code = main(["gibbs", "--exact", "--temperatures", "1e-3", "--dt", "1e-3", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "label 0 underflows to 0 at 0.001 K" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, message",
    [
        ([1], "config section 'propagator' must be a JSON object"),
        ({"time_step": "1e-4"}, "config key 'propagator.time_step' must be a number"),
        ({"time_step": True}, "config key 'propagator.time_step' must be a number"),
        ({"time_step": None}, "config key 'propagator.time_step' must be a number"),
        ({"time_step": math.nan}, "config key 'propagator.time_step' must be finite"),
        ({"time_step": 0.0}, "time_step must be positive"),
        ({"step": 1e-4}, "unknown config key(s) in propagator: ['step']"),
    ],
    ids=["not-object", "string", "bool", "null", "nan", "zero", "unknown-key"],
)
def test_malformed_propagator_messages(section, message):
    with pytest.raises(ValueError) as excinfo:
        config_from_mapping({"propagator": section})
    assert str(excinfo.value) == message


@pytest.mark.parametrize("temperatures", ["10,10", "10,10.0000001"])
def test_colliding_output_names_exit_2(tmp_path, capsys, temperatures):
    # both temperatures format as T10K, so their work files share a name
    out = tmp_path / "o"
    code = main(["gibbs", "--exact", "--dt", "1e-3", "--temperatures", temperatures,
                 "--out", str(out)])
    assert code == 2
    assert "work_forward_T10K.csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 14.6 TiB"), "Unable to allocate 14.6 TiB"),
        (MemoryError(), "MemoryError"),
        (OverflowError("math range error"), "math range error"),
        (FloatingPointError("overflow encountered"), "overflow encountered"),
        (ZeroDivisionError("float division by zero"), "float division by zero"),
    ],
    ids=["MemoryError", "MemoryError-bare", "OverflowError", "FloatingPointError",
         "ZeroDivisionError"],
)
def test_numeric_errors_exit_2(tmp_path, capsys, monkeypatch, error, line):
    def failing_evolve(*args, **kwargs):
        raise error

    monkeypatch.setattr(cpbsim.cli, "evolve", failing_evolve)
    out = tmp_path / "o"
    assert main(["run", "--dt", "1e-3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"cpbsim: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_config_reader_shared_by_cli_and_loader(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_config(path)
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"cpbsim: {excinfo.value}\n"


def test_spectrum_outputs_and_manifest(tmp_path):
    out = tmp_path / "levels"
    cfg = _write_config(tmp_path, {"spectrum_samples": 41})
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "spectrum.csv")
    assert len(rows) == 42
    assert rows[0][0] == "t_ns" and rows[0][1] == "e00" and rows[0][-1] == "e50"
    for row in rows[1:]:
        levels = [float(c) for c in row[1:]]
        assert levels[0] == 0.0
        assert all(b >= a for a, b in zip(levels, levels[1:]))

    manifest = _read_json(out / "manifest.json")
    assert manifest["tool"] == "cpbsim"
    digest = hashlib.sha256((out / "spectrum.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["spectrum.csv"] == digest
    # the resolved-config echo must round-trip through the parser unchanged
    echo = manifest["config"]
    assert config_from_mapping(echo).resolved() == echo


def test_run_forward_exact_outputs(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--dt", "1e-3", "--exact", "--out", str(out)]) == 0
    rows = _read_csv(out / "transition_matrix.csv")
    assert len(rows) == 52
    matrix = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-10)

    prep = _read_csv(out / "preparation.csv")
    assert prep[0] == ["label", "probability"]
    total = sum(float(r[1]) for r in prep[1:])
    assert total == pytest.approx(1.0, abs=1e-10)

    report = _read_json(out / "run_report.json")
    assert report["stochasticity_defect"] < 1e-12
    assert report["subspace"] == [-2, -1, 0, 1, 2]
    assert report["subspace_mass"] > 0.999
    assert not (out / "counts.csv").exists()


def test_run_sampled_counts(tmp_path):
    out = tmp_path / "runs"
    code = main(
        ["run", "--dt", "1e-3", "--sampled", "--events", "2000", "--seed", "9",
         "--out", str(out)]
    )
    assert code == 0
    rows = _read_csv(out / "counts.csv")
    counts = np.array([[int(c) for c in row[1:]] for row in rows[1:]])
    assert counts.sum() == 2000
    assert _read_json(out / "run_report.json")["events"] == 2000


# counts.csv of `run --sampled --dt 1e-3 --events 250017`: the events cross
# a partition boundary, and the payload holds only integers
SAMPLED_COUNTS_SHA256 = {
    "11": "aaaa57c238fb86b0b01d62e1aeb30050ea2b9e82f1254eaec9c0af0633fd6eb5",
    "20260814": "8a683d0a4bd4cbcf8ebacce53bcef4a5c1bb7906a2d5a7144b2f571560de87d4",
}


@pytest.mark.parametrize("seed", sorted(SAMPLED_COUNTS_SHA256))
def test_run_sampled_counts_bytes_are_pinned(tmp_path, seed):
    out = tmp_path / "runs"
    code = main(["run", "--dt", "1e-3", "--sampled", "--events", "250017",
                 "--seed", seed, "--out", str(out)])
    assert code == 0
    digest = hashlib.sha256((out / "counts.csv").read_bytes()).hexdigest()
    assert digest == SAMPLED_COUNTS_SHA256[seed]
    assert _read_json(out / "manifest.json")["outputs"]["counts.csv"] == digest


def test_run_propagates_once(tmp_path, monkeypatch):
    calls = []
    evolve = cpbsim.cli.evolve

    def counting_evolve(*args, **kwargs):
        calls.append(args[1].direction)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(cpbsim.cli, "evolve", counting_evolve)
    monkeypatch.setattr(cpbsim.experiment, "evolve", counting_evolve)
    out = tmp_path / "once"
    code = main(
        ["run", "--dt", "1e-3", "--sampled", "--events", "1000", "--out", str(out)]
    )
    assert code == 0
    assert (out / "preparation.csv").exists() and (out / "counts.csv").exists()
    assert calls == ["forward"]


def test_run_backward_skips_preparation(tmp_path):
    out = tmp_path / "bwd"
    cfg = _write_config(tmp_path, {"protocol": {"direction": "backward"}})
    assert main(["run", "--config", cfg, "--dt", "1e-3", "--out", str(out)]) == 0
    assert not (out / "preparation.csv").exists()
    doc = _read_json(out / "transition_matrix.json")
    assert doc["direction"] == "backward"


def test_microrev_passes_by_default(tmp_path):
    out = tmp_path / "mr"
    assert main(["microrev", "--dt", "1e-3", "--out", str(out)]) == 0
    doc = _read_json(out / "microrev.json")
    assert doc["passed"] is True
    assert doc["max_abs"] < 1e-3
    cells = _read_csv(out / "microrev_cells.csv")
    assert len(cells) == 26  # header + 5x5 subspace
    # cells carry 12 significant digits, so recomputation is only that good
    for row in cells[1:]:
        assert abs(float(row[2]) - float(row[3])) == pytest.approx(
            float(row[4]), abs=1e-11
        )


def test_microrev_flags_broken_reversal(tmp_path):
    out = tmp_path / "mrbad"
    code = main(["microrev", "--dt", "1e-3", "--no-flux-inversion", "--out", str(out)])
    assert code == 3
    doc = _read_json(out / "microrev.json")
    assert doc["passed"] is False
    assert doc["max_abs"] > 1e-2
    assert doc["invert_flux"] is False


def test_gibbs_exact_full_space(tmp_path):
    out = tmp_path / "gibbs"
    cfg = _write_config(tmp_path, {"subspace": "all", "temperatures_k": [10.0]})
    code = main(["gibbs", "--config", cfg, "--dt", "1e-3", "--exact", "--out", str(out)])
    assert code == 0
    report = _read_json(out / "bk_report.json")
    assert report["mode"] == "exact"
    assert len(report["ladder"]["labels"]) == 51
    assert abs(report["table"][0]["one_minus_mean"]) < 1e-9

    work = _read_csv(out / "work_forward_T10K.csv")
    assert work[0] == ["W_rad_per_ns", "probability"]
    total = math.fsum(float(r[1]) for r in work[1:])
    assert total == pytest.approx(1.0, abs=1e-9)

    ratio = _read_csv(out / "bk_ratio_T10K.csv")
    assert ratio[0][:3] == ["W_rad_per_ns", "log_ratio", "reference"]
    assert len(ratio) > 1


def test_gibbs_sampled_counts(tmp_path):
    out = tmp_path / "gibbs_s"
    code = main(
        ["gibbs", "--temperatures", "10", "--sampled", "--events", "5000",
         "--dt", "1e-3", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    work = _read_csv(out / "work_forward_T10K.csv")
    assert work[0] == ["W_rad_per_ns", "count"]
    counts = [int(r[1]) for r in work[1:]]
    row = _read_json(out / "bk_report.json")["table"][0]
    assert sum(counts) == row["n_events"]
    assert row["n_events"] + row["n_discarded"] == 5000


def test_payloads_are_byte_deterministic(tmp_path):
    cfg = _write_config(tmp_path, {"temperatures_k": [10.0]})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["gibbs", "--config", cfg, "--dt", "1e-3", "--exact",
                     "--out", str(out)])
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name == "manifest.json":
            continue
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # manifests agree except for the timestamp and the differing --out echo
    docs = [_read_json(out / "manifest.json") for out in outs]
    for doc in docs:
        doc.pop("timestamp_utc")
        doc["config"].pop("output_dir")
    assert docs[0] == docs[1]


def test_waveform_table_protocol(tmp_path):
    table = tmp_path / "wave.csv"
    times = np.linspace(0.0, 2.0 / 3.0, 201)
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_ns", "flux_phi0", "n_g"])
        for t in times:
            writer.writerow(
                [f"{t:.12g}",
                 f"{0.5 * math.cos(3.0 * math.pi * t):.12g}",
                 f"{0.05 - 2.0 * math.cos(3.0 * math.pi * t):.12g}"]
            )
    cfg = _write_config(
        tmp_path,
        {"protocol": {"family": "table", "table_path": str(table)},
         "spectrum_samples": 11},
    )
    out = tmp_path / "tab"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "spectrum.csv")
    assert len(rows) == 12
    assert float(rows[-1][0]) == pytest.approx(2.0 / 3.0)


def test_waveform_table_rejects_duration(tmp_path):
    table = tmp_path / "wave.csv"
    table.write_text("t_ns,flux_phi0,n_g\n0,0.5,-1.95\n0.5,0.5,-1.95\n")
    cfg = _write_config(
        tmp_path,
        {"protocol": {"family": "table", "table_path": str(table), "duration": 1.0}},
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_waveform_table_rejects_nan_cell(tmp_path, capsys):
    table = tmp_path / "wave.csv"
    table.write_text("t_ns,flux_phi0,n_g\n0,0.5,-1.95\n0.25,nan,-1.95\n0.5,0.5,-1.95\n")
    cfg = _write_config(
        tmp_path, {"protocol": {"family": "table", "table_path": str(table)}}
    )
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--dt", "1e-3", "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_seed_changes_sampled_output(tmp_path):
    blobs = []
    for seed in ("5", "6"):
        out = tmp_path / f"s{seed}"
        code = main(["run", "--dt", "1e-3", "--sampled", "--events", "1000",
                     "--seed", seed, "--out", str(out)])
        assert code == 0
        blobs.append((out / "counts.csv").read_bytes())
    assert blobs[0] != blobs[1]

"""Correctness checks of one operation's output directories.

An operation passes when every subcommand exits 0, every payload named by
the subcommand is present and matches its sha256 in ``manifest.json``, the
physics gates hold, the deterministic payloads match the values recorded in
``reference.json`` at the seed commit, and the sampled counts agree
statistically with the distributions they were drawn from.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.special import chdtrc

from workloads import payload_names

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# |value - reference| <= atol + rtol * |reference|. Roundoff-level drift
# (a different LAPACK path or summation order moves these values by ~1e-13)
# passes; a wrong step count, drive sample or integrator moves transition
# probabilities by >= 1e-7 and fails. The T2/T1 ratios divide by a squared
# matrix-element difference that is small near the avoided crossings, which
# amplifies eigenvector roundoff, hence the looser relative bound there.
TOLERANCES = {
    "transition_matrix": (0.0, 1e-9),
    "preparation": (0.0, 1e-9),
    "ladder_energies": (1e-9, 1e-9),
    "spectrum_rows": (1e-9, 1e-9),
    "spectrum_colsum": (1e-9, 1e-9),
    "noise_rows": (1e-7, 1e-12),
    "noise_colsum": (1e-7, 1e-12),
    "detector": (1e-9, 0.0),
}

#: Row stride of the spectrum and noise-trace samples kept as reference.
REFERENCE_STRIDE = 25

#: Sampled counts fail a chi-square test below this p-value.
P_MIN = 1e-7

#: The sampled exponentiated-work mean must lie within BK_Z stderr of 1. The
#: usual 3 stderr would fail about 1% of seeds by chance across the six
#: temperatures; 5 keeps the chance below 1e-5 per operation.
BK_Z = 5.0

#: Bins with a smaller expected count are pooled before the chi-square test.
MIN_EXPECTED = 5.0

#: Row/column sums of a transition matrix may miss 1 by roundoff only.
ROUNDOFF = 1e-10


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_output_set(outdir: Path, expected: set, seed: int):
    """sha256 of every payload against the manifest; returns (sums, problems)."""
    manifest_path = outdir / "manifest.json"
    if not manifest_path.is_file():
        return {}, [f"{outdir.name}: manifest.json missing"]
    manifest = _json(manifest_path)
    problems = []
    if manifest.get("seed") != seed:
        problems.append(f"{outdir.name}: manifest seed {manifest.get('seed')} != {seed}")
    outputs = manifest.get("outputs", {})
    on_disk = {p.name for p in outdir.iterdir()} - {"manifest.json"}
    for name in sorted(expected - on_disk):
        problems.append(f"{outdir.name}: payload {name} missing")
    for name in sorted((on_disk | set(outputs)) - expected):
        problems.append(f"{outdir.name}: unexpected payload {name}")
    for name in sorted(expected & on_disk):
        digest = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        if outputs.get(name) != digest:
            problems.append(f"{outdir.name}: {name} sha256 does not match manifest")
    return outputs, problems


def chi_square_p(observed: np.ndarray, expected: np.ndarray) -> float:
    """p-value of observed counts against expected counts, small bins pooled."""
    observed = np.asarray(observed, dtype=float).ravel()
    expected = np.asarray(expected, dtype=float).ravel()
    big = expected >= MIN_EXPECTED
    obs = list(observed[big])
    exp = list(expected[big])
    if not big.all():
        obs.append(observed[~big].sum())
        exp.append(expected[~big].sum())
    if exp[-1] == 0.0:
        if obs[-1] > 0.0:
            return 0.0
        obs.pop()
        exp.pop()
    if len(exp) < 2:
        return 1.0
    obs_a, exp_a = np.asarray(obs), np.asarray(exp)
    stat = float(np.sum((obs_a - exp_a) ** 2 / exp_a))
    return float(chdtrc(len(exp_a) - 1, stat))


def extract(workload: str, dirs: dict) -> dict:
    """Deterministic (seed-independent) payload values compared to reference."""
    if workload == "ensemble":
        out = dirs["run"]
        return {
            "transition_matrix": np.asarray(_json(out / "transition_matrix.json")["matrix"]),
            "preparation": _table(out / "preparation.csv"),
        }
    if workload == "work_sweep":
        report = _json(dirs["gibbs"] / "bk_report.json")
        return {"ladder_energies": np.asarray(report["ladder"]["energies"])}
    if workload == "spectral_scan":
        spectrum = _table(dirs["spectrum"] / "spectrum.csv")
        trace = _table(dirs["noise"] / "noise_trace.csv")
        det = _json(dirs["noise"] / "detector.json")
        return {
            "spectrum_rows": _strided(spectrum),
            "spectrum_colsum": spectrum.sum(axis=0),
            "noise_rows": _strided(trace),
            "noise_colsum": trace.sum(axis=0),
            "detector": np.asarray(
                [
                    det["sigma_q_e"],
                    det["delta_q_e"],
                    det["distance"],
                    det["distance_quadrature"],
                    det["p_correct"],
                ]
            ),
        }
    raise ValueError(f"unknown workload {workload!r}")


def _strided(rows: np.ndarray) -> np.ndarray:
    keep = list(range(0, rows.shape[0], REFERENCE_STRIDE))
    if keep[-1] != rows.shape[0] - 1:
        keep.append(rows.shape[0] - 1)
    return rows[keep]


def compare_reference(values: dict, reference: dict) -> list:
    problems = []
    for key, got in values.items():
        want = np.asarray(reference[key], dtype=float)
        if got.shape != want.shape:
            problems.append(f"{key}: shape {got.shape} != reference {want.shape}")
            continue
        rtol, atol = TOLERANCES[key]
        bad = ~np.isclose(got, want, rtol=rtol, atol=atol)
        if bad.any():
            worst = float(np.max(np.abs(got - want)[bad]))
            problems.append(f"{key}: {int(bad.sum())} values off reference (worst {worst:.3e})")
    return problems


def _gates_ensemble(dirs, mapping, reference):
    out = dirs["run"]
    report = _json(out / "run_report.json")
    matrix = np.asarray(_json(out / "transition_matrix.json")["matrix"])
    prep = _table(out / "preparation.csv")[:, 1]
    counts = _table(out / "counts.csv")[:, 1:]
    events = mapping["events"]
    problems = []
    if not report["stochasticity_defect"] <= ROUNDOFF:
        problems.append(f"stochasticity_defect {report['stochasticity_defect']:.3e}")
    if report.get("events") != events or int(counts.sum()) != events:
        problems.append(f"counts total {int(counts.sum())} != {events} events")
    # counts[second, first]: first from the preparation, second from its column
    expected = events * (prep / prep.sum())[None, :] * (matrix / matrix.sum(axis=0))
    p = chi_square_p(counts, expected)
    if p < P_MIN:
        problems.append(f"event counts fail chi-square against P x preparation (p={p:.2e})")
    return problems


def _gates_work_sweep(dirs, mapping, reference):
    out = dirs["gibbs"]
    report = _json(out / "bk_report.json")
    events = mapping["events"]
    problems = []
    for row in report["table"]:
        t = row["temperature_k"]
        tag = f"T{t:g}K"
        if row["n_events"] + row["n_discarded"] != events:
            problems.append(f"{tag}: kept + discarded != {events}")
        if not abs(1.0 - row["mean"]) <= BK_Z * row["stderr"]:
            problems.append(
                f"{tag}: BK mean {row['mean']:.6f} not within {BK_Z} stderr "
                f"({row['stderr']:.2e}) of 1"
            )
        for direction in ("forward", "backward"):
            work = _table(out / f"work_{direction}_{tag}.csv")
            if direction == "forward" and int(work[:, 1].sum()) != row["n_events"]:
                problems.append(f"{tag}: forward counts disagree with bk_report")
            if reference is None:
                continue
            exact = reference["exact_work"][direction][tag]
            p = chi_square_p(work[:, 1], work[:, 1].sum() * _on_grid(work[:, 0], exact))
            if p < P_MIN:
                problems.append(f"{tag} {direction}: work counts fail chi-square (p={p:.2e})")
    return problems


def _on_grid(values: np.ndarray, exact: dict) -> np.ndarray:
    """Exact probabilities placed on the sampled work grid (0 where absent)."""
    ref_w = np.asarray(exact["values"])
    ref_p = np.asarray(exact["probability"])
    probs = np.zeros(values.size)
    for i, w in enumerate(values):
        hit = np.flatnonzero(np.abs(ref_w - w) <= 1e-6 * max(1.0, abs(w)))
        if hit.size:
            probs[i] = ref_p[hit[0]]
    return probs


def _gates_spectral_scan(dirs, mapping, reference):
    spectrum = _table(dirs["spectrum"] / "spectrum.csv")
    trace = _table(dirs["noise"] / "noise_trace.csv")
    det = _json(dirs["noise"] / "detector.json")
    problems = []
    if spectrum.shape[0] != mapping["spectrum_samples"]:
        problems.append(f"spectrum has {spectrum.shape[0]} rows")
    levels = spectrum[:, 1:]
    if np.any(levels[:, 0] != 0.0) or np.any(np.diff(levels, axis=1) < 0.0):
        problems.append("spectrum rows are not ground-referenced ascending levels")
    if trace.shape != (mapping["trace_samples"], 4):
        problems.append(f"noise trace shape {trace.shape}")
    elif not np.all((trace[:, 2] > 0.0) & (trace[:, 2] <= 2.0)):
        problems.append("T2/T1 outside (0, 2]")
    if not det["closed_form_defect"] <= 1e-8:
        problems.append(f"detector closed form vs quadrature {det['closed_form_defect']:.2e}")
    return problems


GATES = {
    "ensemble": _gates_ensemble,
    "work_sweep": _gates_work_sweep,
    "spectral_scan": _gates_spectral_scan,
}


def validate(workload, dirs: dict, codes: list, mapping: dict, seed: int, reference):
    """Checks of one operation: returns (payload sha256 per command, problems).

    ``reference`` is this workload's entry of reference.json, or None at the
    tiny size, whose outputs have no recorded reference.
    """
    problems = [f"{cmd} exited {rc}" for cmd, rc in zip(workload.commands, codes) if rc != 0]
    sums = {}
    for cmd in workload.commands:
        sums[cmd], found = check_output_set(dirs[cmd], payload_names(cmd, mapping), seed)
        problems += found
    if problems:
        return sums, problems
    try:
        problems += GATES[workload.name](dirs, mapping, reference)
        if reference is not None:
            problems += compare_reference(extract(workload.name, dirs), reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return sums, problems


def load_reference(workload: str):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]

"""Command-line front end: subcommand dispatch and persisted run artifacts.

``main`` reads an optional JSON config, applies flag overrides and hands the
subcommand the run's ``_OutputSet``, the only code that formats payloads.
It finishes the run with the set's manifest (config echo, tool version,
timestamp, LAPACK binding, seed, sha256 per file), also when a command
exits 3. Payload bytes depend only on config and seed; the timestamp and
the binding (which library, and which OpenBLAS kernels it picked for the
CPU) are confined to the manifest so repeat runs stay byte-identical.

Exit codes: 0 success, 2 validation, I/O or numerical failure, 3 a physics
threshold (currently the microreversibility tolerance) was exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._lapack import BINDING as LAPACK_BINDING
from .config import RunConfig, _section, config_from_mapping, read_mapping
from .drive import FORWARD
from .drive import reverse_protocol
from .experiment import (
    derive_seed,
    microrev_deviation,
    prepare_ensemble,
    run_protocol,
    sample_experiment,
    stochasticity_defect,
    transition_matrix,
)
from .model import charge_labels, label_rows
from .noise import (
    detector_distinguishability,
    kolmogorov_distance_quadrature,
    ratio_trace,
)
from .propagate import evolve, spectrum_trace
from .thermo import (
    EXACT,
    SAMPLED,
    bk_equality,
    bk_ratio_check,
    energy_ladder,
    gibbs_weights,
    sample_work,
    work_distribution_exact,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_THRESHOLD = 3


_BOOLS = (bool, np.bool_)
_FLOATS = (float, np.floating)


def _csv_conversion(kind: type) -> str:
    """The ``%`` conversion of a CSV cell of this type."""
    if issubclass(kind, _BOOLS):
        return "%s"
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, _FLOATS):
        return "%.12g"
    return "%s"


def _csv(rows) -> str:
    """CSV text: each row through one ``%`` template per tuple of cell types,
    its bool cells first replaced by their words."""
    templates = {}
    lines = []
    for row in rows:
        values = tuple(row)
        kinds = tuple(map(type, values))
        compiled = templates.get(kinds)
        if compiled is None:
            bools = [i for i, kind in enumerate(kinds) if issubclass(kind, _BOOLS)]
            template = ",".join(map(_csv_conversion, kinds))
            compiled = templates[kinds] = template, bools
        template, bools = compiled
        if bools:
            values = list(values)
            for i in bools:
                values[i] = "true" if values[i] else "false"
            values = tuple(values)
        lines.append(template % values)
    return "\n".join(lines) + "\n"


def _json_scalar(value) -> str:
    """One JSON scalar: a bool, int, float, str or None."""
    if isinstance(value, _BOOLS):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    if isinstance(value, _FLOATS):
        # JSON has no inf or nan literal
        return "%.17g" % value if math.isfinite(value) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _jdump(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion order kept, floats at 17 digits.

    A list of finite floats goes through one ``%`` template.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_jdump(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        kinds = set(map(type, obj))
        if all(issubclass(k, _FLOATS) for k in kinds) and all(map(math.isfinite, obj)):
            items = ",\n".join([inner + "%.17g"] * len(obj))
            return ("[\n" + items + "\n" + pad + "]") % tuple(obj)
        items = [f"{inner}{_jdump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)


class _OutputSet:
    """The run's payloads, their one formatter and the checksummed manifest.

    :meth:`write` takes rows for a ``.csv`` name and an object for a
    ``.json`` name. Payloads stay in memory until :meth:`manifest`, which
    creates the output directory and writes them, so a command that fails
    part way leaves no files behind.
    """

    def __init__(self, outdir: str) -> None:
        self.outdir = Path(outdir)
        self.payloads: dict = {}

    def write(self, name: str, payload) -> None:
        if name in self.payloads:
            raise ValueError(f"two outputs of this run are named {name}")
        text = _jdump(payload) + "\n" if name.endswith(".json") else _csv(payload)
        self.payloads[name] = text.encode("utf-8")

    def manifest(self, cfg: RunConfig) -> None:
        self.outdir.mkdir(parents=True, exist_ok=True)
        checksums = {}
        for name, data in self.payloads.items():
            (self.outdir / name).write_bytes(data)
            checksums[name] = hashlib.sha256(data).hexdigest()
        doc = {
            "tool": "cpbsim",
            "version": __version__,
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "lapack": LAPACK_BINDING,
            "seed": cfg.seed,
            "config": cfg.resolved(),
            "outputs": {k: checksums[k] for k in sorted(checksums)},
        }
        path = self.outdir / "manifest.json"
        path.write_text(_jdump(doc) + "\n", encoding="utf-8")


def _matrix_rows(matrix: np.ndarray, labels: np.ndarray):
    labels = labels.tolist()
    return [["label", *labels]] + [[m, *row] for m, row in zip(labels, matrix.tolist())]


def cmd_spectrum(cfg: RunConfig, out: _OutputSet) -> int:
    trace = spectrum_trace(cfg.device, cfg.protocol, cfg.spectrum_samples)
    header = ["t_ns"] + [f"e{k:02d}" for k in range(cfg.device.n_charges)]
    rows = np.column_stack((trace.times, trace.energies)).tolist()
    out.write("spectrum.csv", [header] + rows)
    return EXIT_OK


def cmd_run(cfg: RunConfig, out: _OutputSet) -> int:
    u = evolve(cfg.device, cfg.protocol, cfg.propagator)
    trans = transition_matrix(u, charge_labels(cfg.device), cfg.protocol.direction)
    out.write("transition_matrix.csv", _matrix_rows(trans.matrix, trans.labels))
    out.write(
        "transition_matrix.json",
        {
            "direction": trans.direction,
            "labels": trans.labels.tolist(),
            "matrix": trans.matrix.tolist(),
        },
    )
    subspace = trans.labels[label_rows(trans.labels, cfg.subspace)].tolist()
    leakage = trans.subspace_leakage(subspace)
    report = {
        "direction": trans.direction,
        "stochasticity_defect": stochasticity_defect(trans),
        "subspace": subspace,
        "column_leakage": {str(n): float(v) for n, v in zip(subspace, leakage)},
    }
    if cfg.protocol.direction == FORWARD:
        prep = prepare_ensemble(cfg.device, cfg.protocol, u, subspace)
        rows = list(zip(prep.labels.tolist(), prep.probabilities.tolist()))
        out.write("preparation.csv", [["label", "probability"]] + rows)
        report["subspace_mass"] = prep.subspace_mass
        if cfg.mode != EXACT:
            sample = sample_experiment(prep, trans, cfg.events, cfg.seed)
            out.write("counts.csv", _matrix_rows(sample.counts, sample.labels))
            report["events"] = sample.n_events
    out.write("run_report.json", report)
    return EXIT_OK


def cmd_microrev(cfg: RunConfig, out: _OutputSet) -> int:
    forward = dataclasses.replace(cfg.protocol, direction=FORWARD)
    backward = reverse_protocol(forward)
    t_fwd = run_protocol(cfg.device, forward, cfg.propagator)
    t_bwd = run_protocol(cfg.device, backward, cfg.propagator)
    rep = microrev_deviation(t_fwd, t_bwd, cfg.subspace)
    passed = rep.max_abs <= cfg.microrev_tolerance
    out.write(
        "microrev.json",
        {
            **dataclasses.asdict(rep),
            "tolerance": cfg.microrev_tolerance,
            "passed": passed,
            "mirror_time": cfg.protocol.mirror_time,
            "invert_flux": cfg.protocol.invert_flux,
        },
    )
    rows = [["m", "n", "p_forward", "p_backward_transposed", "abs_diff"]]
    cells = list(zip(rep.subspace, label_rows(t_fwd.labels, rep.subspace)))
    for m, i in cells:
        for n, j in cells:
            pf = float(t_fwd.matrix[i, j])
            pb = float(t_bwd.matrix[j, i])
            rows.append([m, n, pf, pb, abs(pf - pb)])
    out.write("microrev_cells.csv", rows)
    return EXIT_OK if passed else EXIT_THRESHOLD


def cmd_gibbs(cfg: RunConfig, out: _OutputSet) -> int:
    forward = dataclasses.replace(cfg.protocol, direction=FORWARD)
    backward = reverse_protocol(forward)
    ladder = energy_ladder(
        cfg.device, forward, subspace=cfg.subspace, bare=cfg.bare_ladder
    )
    # weights and file tags first: a temperature whose weights underflow,
    # or whose tag repeats an earlier one, fails before anything is propagated
    all_weights = [gibbs_weights(ladder, t) for t in cfg.temperatures_k]
    tags = [f"T{t:g}K" for t in cfg.temperatures_k]
    for ti, tag in enumerate(tags):
        if tag in tags[:ti]:
            name = f"work_forward_{tag}.csv"
            raise ValueError(f"two outputs of this run are named {name}")
    t_fwd = run_protocol(cfg.device, forward, cfg.propagator)
    t_bwd = run_protocol(cfg.device, backward, cfg.propagator)
    table = []
    for ti, (temperature, weights, tag) in enumerate(
        zip(cfg.temperatures_k, all_weights, tags)
    ):
        if cfg.mode == EXACT:
            dist_f = work_distribution_exact(weights, t_fwd, ladder)
            dist_b = work_distribution_exact(weights, t_bwd, ladder)
            value_header = "probability"
        else:
            dist_f = sample_work(
                weights, t_fwd, ladder, cfg.events, derive_seed(cfg.seed, ti, 0)
            )
            dist_b = sample_work(
                weights, t_bwd, ladder, cfg.events, derive_seed(cfg.seed, ti, 1)
            )
            value_header = "count"
        for dist, name in ((dist_f, "forward"), (dist_b, "backward")):
            rows = list(zip(dist.values.tolist(), dist.mass.tolist()))
            out.write(f"work_{name}_{tag}.csv", [["W_rad_per_ns", value_header]] + rows)
        header = [
            "W_rad_per_ns",
            "log_ratio",
            "reference",
            "forward_mass",
            "backward_mass",
            "matched",
        ]
        records = bk_ratio_check(dist_f, dist_b, temperature)
        out.write(
            f"bk_ratio_{tag}.csv", [header] + [dataclasses.astuple(r) for r in records]
        )
        eq = bk_equality(dist_f, temperature)
        table.append(
            {
                "temperature_k": temperature,
                "one_minus_mean": 1.0 - eq.mean,
                "mean": eq.mean,
                "stderr": eq.stderr,
                "n_events": eq.n_events,
                "n_discarded": dist_f.n_discarded,
            }
        )
    columns = ["temperature_k", "one_minus_mean", "stderr", "n_events"]
    out.write("bk_table.csv", [columns] + [[row[k] for k in columns] for row in table])
    out.write(
        "bk_report.json",
        {
            "mode": cfg.mode,
            "events": cfg.events,
            "ladder": {
                "labels": ladder.labels.tolist(),
                "energies": ladder.energies.tolist(),
                "bare": ladder.bare,
            },
            "table": table,
        },
    )
    return EXIT_OK


def cmd_noise(cfg: RunConfig, out: _OutputSet) -> int:
    points = ratio_trace(
        cfg.device, cfg.protocol, cfg.trace_samples, cfg.bath_temperature_k
    )
    rows = [[p.time, p.tphi_over_t1, p.t2_over_t1, p.beta] for p in points]
    out.write("noise_trace.csv", [["t_ns", "ratio", "t2_over_t1", "beta"]] + rows)
    det = detector_distinguishability(cfg.detector)
    quad = kolmogorov_distance_quadrature(cfg.detector)
    out.write(
        "detector.json",
        {
            "sigma_q_e": det.sigma_q,
            "delta_q_e": det.delta_q,
            "distance": det.distance,
            "distance_quadrature": quad,
            "closed_form_defect": abs(det.distance - quad),
            "p_correct": det.p_correct,
            "bath_temperature_k": cfg.bath_temperature_k,
        },
    )
    return EXIT_OK


_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def _merge_overrides(mapping: dict, args: argparse.Namespace) -> dict:
    """``mapping`` with each given flag's value at the dotted key its dest names."""
    # every section on a flag's path is copied as it is entered
    merged = dict(mapping)
    for dest, value in vars(args).items():
        if value is None or dest.split(".")[0] not in _KEYS:
            continue
        if dest == "temperatures_k":
            tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
            if not tokens:
                raise ValueError("--temperatures needs a comma-separated kelvin list")
            try:
                value = [float(tok) for tok in tokens]
            except ValueError:
                raise ValueError(f"bad --temperatures value: {value!r}") from None
        *sections, key = dest.split(".")
        target = merged
        for name in sections:
            target[name] = _section(name, target.get(name))
            target = target[name]
        target[key] = value
    return merged


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpbsim",
        description="Driven Cooper-pair box: reversal symmetry and work statistics",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="JSON config file")
    # each override's dest is the config key it sets; see _merge_overrides
    common.add_argument("--seed", dest="seed", type=int, help="RNG seed (u64)")
    common.add_argument("--events", dest="events", type=int, help="Monte Carlo events")
    common.add_argument(
        "--dt", dest="propagator.time_step", type=float, help="propagator step (ns)"
    )
    common.add_argument(
        "--duration",
        dest="protocol.duration",
        type=float,
        help="protocol duration (ns)",
    )
    common.add_argument(
        "--temperatures", dest="temperatures_k", help="comma-separated kelvin list"
    )
    for flag, key, kept in (
        ("--no-flux-inversion", "protocol.invert_flux", "flux sign"),
        ("--no-time-mirror", "protocol.mirror_time", "clock"),
    ):
        common.add_argument(
            flag,
            dest=key,
            action="store_false",
            default=None,
            help=f"negative control: reversed protocol keeps the forward {kept}",
        )
    common.add_argument("--out", dest="output_dir", help="output directory")
    mode = common.add_mutually_exclusive_group()
    for flag, const, text in (
        ("--exact", EXACT, "deterministic distributions"),
        ("--sampled", SAMPLED, "Monte Carlo event counts"),
    ):
        mode.add_argument(
            flag, dest="mode", action="store_const", const=const, help=text
        )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (
        ("spectrum", cmd_spectrum, "instantaneous eigenenergies along the drive"),
        ("run", cmd_run, "transition matrix and preparation ensemble"),
        ("microrev", cmd_microrev, "forward/backward transition symmetry check"),
        ("gibbs", cmd_gibbs, "work distributions and exponentiated-work table"),
        ("noise", cmd_noise, "decoherence ratio trace and detector fidelity"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mapping = {} if args.config is None else read_mapping(args.config)
        cfg = config_from_mapping(_merge_overrides(mapping, args))
        out = _OutputSet(cfg.output_dir)
        code = args.func(cfg, out)
        out.manifest(cfg)
        return code
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"cpbsim: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())

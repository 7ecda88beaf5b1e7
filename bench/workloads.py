"""The three benchmark workloads and what one operation of each runs.

An operation is one or more ``cpbsim`` subcommands, each called through
``cpbsim.cli.main(argv)`` with the workload's config file, the workload
seed as ``--seed`` and its own output directory. Every workload runs the
reference device (N = 51 charge states) and the default drive; they differ
in which layers carry the time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TEMPERATURES_K = (1.0, 10.0, 20.0, 30.0, 40.0, 50.0)

# Tiny sizes keep every code path of a workload but finish in well under a
# second; they serve the warm-up operation and the self-test. The tiny sweep
# skips 1 K, where 2e4 events are too few for the exponentiated-work mean
# (dominated there by rare large-weight events) to meet its stderr gate.
TINY_STEP = 5e-3
TINY_EVENTS = 20_000
TINY_SAMPLES = 50
TINY_TEMPERATURES_K = (10.0, 50.0)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    config: dict
    tiny_config: dict

    def mapping(self, tiny: bool) -> dict:
        """Config-file contents of one operation (the seed travels as a flag)."""
        return dict(self.tiny_config if tiny else self.config)

    def argvs(self, config_path: str, seed: int, outdir) -> list:
        return [
            [cmd, "--config", config_path, "--seed", str(seed), "--out", str(outdir / cmd)]
            for cmd in self.commands
        ]


# Operations are kept under a second where the checks allow, so that one run
# holds dozens of them and its mean is not at the mercy of a few. work_sweep
# keeps 1e6 events: with fewer, the heavy-tailed 1 K exponentiated-work mean
# comes too close to its 5-stderr gate on some seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ensemble",
            commands=("run",),
            config={
                "mode": "sampled",
                "events": 400_000,
                "propagator": {"time_step": 1e-3},
            },
            tiny_config={
                "mode": "sampled",
                "events": TINY_EVENTS,
                "propagator": {"time_step": TINY_STEP},
            },
        ),
        Workload(
            name="work_sweep",
            commands=("gibbs",),
            config={
                "mode": "sampled",
                "events": 1_000_000,
                "temperatures_k": list(TEMPERATURES_K),
                "propagator": {"time_step": 1e-3},
            },
            tiny_config={
                "mode": "sampled",
                "events": TINY_EVENTS,
                "temperatures_k": list(TINY_TEMPERATURES_K),
                "propagator": {"time_step": TINY_STEP},
            },
        ),
        Workload(
            name="spectral_scan",
            commands=("spectrum", "noise"),
            config={"spectrum_samples": 500, "trace_samples": 500},
            tiny_config={"spectrum_samples": TINY_SAMPLES, "trace_samples": TINY_SAMPLES},
        ),
    )
}


def payload_names(command: str, mapping: dict) -> set:
    """Payload files (manifest excluded) a subcommand writes for a config."""
    if command == "run":
        names = {
            "transition_matrix.csv",
            "transition_matrix.json",
            "run_report.json",
            "preparation.csv",
        }
        if mapping.get("mode", "sampled") == "sampled":
            names.add("counts.csv")
        return names
    if command == "gibbs":
        names = {"bk_table.csv", "bk_report.json"}
        for t in mapping.get("temperatures_k", TEMPERATURES_K):
            tag = f"T{t:g}K"
            names |= {
                f"work_forward_{tag}.csv",
                f"work_backward_{tag}.csv",
                f"bk_ratio_{tag}.csv",
            }
        return names
    if command == "spectrum":
        return {"spectrum.csv"}
    if command == "noise":
        return {"noise_trace.csv", "detector.json"}
    raise ValueError(f"unknown subcommand {command!r}")


def grid_steps(span: float, dt: float) -> int:
    """Steps the midpoint integrator takes over ``span``: full steps plus a
    remainder step when ``dt`` does not divide it (the integrator's tiling)."""
    n_full = int(math.floor(span / dt * (1.0 + 1e-12) + 1e-9))
    remainder = span - n_full * dt
    return n_full + (1 if remainder >= 1e-9 * dt else 0)


def step_flops(n: int) -> int:
    """Computed real floating-point operations of one propagator step.

    A complex Hermitian eigendecomposition with vectors is taken as 36 n^3
    (Golub and Van Loan's 9 n^3 for the real symmetric case, times 4 for
    complex arithmetic); each of the two complex n x n products costs 8 n^3;
    scaling the rows by the phases costs 6 n^2.
    """
    return 36 * n**3 + 2 * 8 * n**3 + 6 * n**2

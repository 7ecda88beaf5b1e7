"""Check that the working tree writes the same payload bytes as a commit.

    python tools/same_bytes.py --against REV

Runs a fixed matrix of cpbsim commands on the working tree and on REV and
compares the sha256 of every payload that each command's ``manifest.json``
lists under ``outputs``. REV is extracted with ``git archive`` into a
temporary directory, which is removed afterwards. Each
tree runs all commands in one fresh interpreter that imports cpbsim from
the tree's own ``src``, with ``OPENBLAS_NUM_THREADS=1`` and no bytecode
written. The matrix: ``spectrum``, ``noise``, ``run --exact``, ``run
--sampled --dt 1e-3`` at 400000, 250017 and 65537 events, ``microrev --dt
1e-3``, ``gibbs --exact --dt 1e-3`` and ``gibbs --sampled --dt 1e-3`` at the
default events and at 250017, each at seeds 1 and 20261019, plus ``gibbs
--exact --dt 1e-3`` with ``{"bare_ladder": true}``, ``gibbs --sampled
--dt 1e-3 --events 250017`` on the subspace ``[3, -4, 0, 4, -1, 2, -3, 1,
-2]`` (a ladder order that differs from basis order, nine label runs per
partition and a partition boundary crossed), ``run --exact --dt 1e-3``,
``spectrum`` and ``noise`` on ``{"protocol": {"direction": "backward"}}``
(``run`` without preparation or counts; both traces on the mirrored clock
and inverted flux), and ``run --exact --dt 1e-3``, ``gibbs --exact --dt
1e-3``, ``spectrum`` and ``noise`` on a waveform table of the default drive,
201 rows over t in [0, 2/3] that the tool writes into its temporary
directory, and ``microrev --dt 1e-3 --no-flux-inversion``, a broken reversal
that exits 3 with its payloads: 30 commands.

Prints one line per payload whose digest differs. Exit status: 0 when every
command's outputs are equal, 1 on a difference, 2 when a checkout fails, or
a command exits other than 0 or 3, or with other codes on the two trees.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SEEDS = (1, 20261019)
COMMANDS = (
    ["spectrum"],
    ["noise"],
    ["run", "--exact"],
    *(["run", "--sampled", "--dt", "1e-3", "--events", n] for n in ("400000", "250017", "65537")),
    ["microrev", "--dt", "1e-3"],
    ["gibbs", "--exact", "--dt", "1e-3"],
    ["gibbs", "--sampled", "--dt", "1e-3"],
    ["gibbs", "--sampled", "--dt", "1e-3", "--events", "250017"],
)

# Exits 3, so the threshold path's payloads are compared too.
BROKEN_REVERSAL = ["microrev", "--dt", "1e-3", "--no-flux-inversion"]

# Runs in the tree's interpreter: argv[1] is a JSON list of [label, argv,
# out]; prints {label: [exit code, manifest outputs or None]} and where
# cpbsim was imported from.
CHILD = """
import json, sys
import cpbsim
from cpbsim.cli import main
results = {}
for label, argv, out in json.loads(sys.argv[1]):
    code = main(argv + ["--out", out])
    outputs = None
    if code in (0, 3):
        with open(out + "/manifest.json", encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
    results[label] = [code, outputs]
print(json.dumps({"cpbsim": cpbsim.__file__, "results": results}))
"""


# Config-file runs: (label, config, argv).
CONFIG_RUNS = (
    ("bare ladder", {"bare_ladder": True}, ["gibbs", "--exact", "--dt", "1e-3"]),
    (
        "9-label subspace",
        {"subspace": [3, -4, 0, 4, -1, 2, -3, 1, -2]},
        ["gibbs", "--sampled", "--dt", "1e-3", "--events", "250017"],
    ),
    *(
        ("backward", {"protocol": {"direction": "backward"}}, argv)
        for argv in (["run", "--exact", "--dt", "1e-3"], ["spectrum"], ["noise"])
    ),
)

# Commands run on the waveform table that ``matrix`` writes.
TABLE_COMMANDS = (
    ["run", "--exact", "--dt", "1e-3"],
    ["gibbs", "--exact", "--dt", "1e-3"],
    ["spectrum"],
    ["noise"],
)


def waveform_table() -> str:
    """The default drive, flux 0.5 cos(3 pi t) and n_g 0.05 - 2 cos(3 pi t),
    at 201 times t = i/300 ns, as a waveform table CSV of float reprs."""
    lines = ["t_ns,flux_phi0,n_g"]
    for i in range(201):
        t = i / 300
        c = math.cos(3.0 * math.pi * t)
        lines.append(f"{t!r},{0.5 * c!r},{0.05 - 2.0 * c!r}")
    return "\n".join(lines) + "\n"


def matrix(tmp: Path):
    """(label, argv) of every command, in run order; writes the waveform
    table and the config files of ``CONFIG_RUNS`` and ``TABLE_COMMANDS``
    into ``tmp``."""
    runs = [
        [f"seed {seed}: {' '.join(argv)}", [*argv, "--seed", str(seed)]]
        for seed in SEEDS
        for argv in COMMANDS
    ]
    table = tmp / "table.csv"
    table.write_text(waveform_table(), encoding="utf-8")
    on_table = {"protocol": {"family": "table", "table_path": str(table)}}
    configs = [*CONFIG_RUNS, *(("waveform table", on_table, argv) for argv in TABLE_COMMANDS)]
    for i, (name, config, argv) in enumerate(configs):
        path = tmp / f"config{i}.json"
        path.write_text(json.dumps(config) + "\n", encoding="utf-8")
        runs.append([f"{name}: {' '.join(argv)}", [*argv, "--config", str(path)]])
    runs.append([" ".join(BROKEN_REVERSAL), BROKEN_REVERSAL])
    return runs


def run_tree(tree: Path, runs, workdir: Path):
    """{label: (exit code, outputs)} of every run on ``tree``, written under
    ``workdir``, or None with the reason printed when the interpreter fails."""
    workdir.mkdir()
    jobs = [[label, argv, str(workdir / str(i))] for i, (label, argv) in enumerate(runs)]
    env = dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        OPENBLAS_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",
    )
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(jobs)],
        cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        print(f"same_bytes: the interpreter for {tree} exited {proc.returncode}")
        return None
    report = json.loads(proc.stdout)
    if not Path(report["cpbsim"]).resolve().is_relative_to((tree / "src").resolve()):
        print(f"same_bytes: {tree} imported cpbsim from {report['cpbsim']}")
        return None
    print(f"{tree}: {len(runs)} commands in {time.perf_counter() - start:.1f} s")
    return report["results"]


def compare(runs, here, there, rev: str) -> int:
    failed = differ = 0
    for label, _argv in runs:
        (code_here, out_here), (code_there, out_there) = here[label], there[label]
        if code_here not in (0, 3) or code_here != code_there:
            print(f"FAILED {label}: exit {code_here} here, {code_there} at {rev}")
            failed += 1
            continue
        names = sorted(set(out_here) | set(out_there))
        changed = [n for n in names if out_here.get(n) != out_there.get(n)]
        for name in changed:
            print(f"DIFFERS {label}: {name}")
        differ += bool(changed)
    print(f"{len(runs)} commands against {rev}: {differ} differ, {failed} failed")
    return 2 if failed else 1 if differ else 0


def git(*args) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV", help="commit to compare with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_bytes.") as tmp:
        tmp = Path(tmp)
        runs = matrix(tmp)
        checkout = tmp / "rev"
        checkout.mkdir()
        try:
            rev = git("rev-parse", "--short", f"{args.against}^{{commit}}")
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", rev], check=True, stdout=subprocess.PIPE
            ).stdout
            subprocess.run(["tar", "-x", "-C", str(checkout)], input=archive, check=True)
        except subprocess.CalledProcessError as exc:
            print(f"same_bytes: cannot check out {args.against}: {exc}")
            return 2
        here = run_tree(ROOT, runs, tmp / "here")
        there = None if here is None else run_tree(checkout, runs, tmp / "there")
    if here is None or there is None:
        return 2
    return compare(runs, here, there, rev)


if __name__ == "__main__":
    raise SystemExit(main())

"""Record reference.json: the deterministic payload values of each workload.

Run once, from the root of a checkout of the commit the references belong
to (they were recorded at the commit that introduced this benchmark):

    python3 bench/record_reference.py

Each workload runs one full-size operation; ``checks.extract`` picks the
values later operations are compared with. work_sweep also stores the exact
work distributions (``gibbs --exact``) its sampled counts are tested against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, PIN_THREADS, SRC, THREAD_VARS
from workloads import WORKLOADS


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(PIN_THREADS)
    sys.path.insert(0, str(SRC))
    # numpy is imported (through checks and cpbsim) only after the pin
    from checks import REFERENCE_PATH, _table, extract
    from cpbsim import cli

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR))
    reference = {}
    try:
        for name, workload in WORKLOADS.items():
            config = workdir / f"{name}.json"
            config.write_text(json.dumps(workload.config), encoding="utf-8")
            outdir = workdir / name
            for argv in workload.argvs(str(config), 0, outdir):
                if cli.main(argv) != 0:
                    raise SystemExit(f"{name}: {argv[0]} failed")
            dirs = {cmd: outdir / cmd for cmd in workload.commands}
            reference[name] = {k: v.tolist() for k, v in extract(name, dirs).items()}
            print(f"recorded {name}", file=sys.stderr)
        sweep = WORKLOADS["work_sweep"]
        exact_cfg = workdir / "exact.json"
        exact_cfg.write_text(json.dumps({**sweep.config, "mode": "exact"}), encoding="utf-8")
        exact_dir = workdir / "exact"
        if cli.main(["gibbs", "--config", str(exact_cfg), "--out", str(exact_dir)]) != 0:
            raise SystemExit("work_sweep: gibbs --exact failed")
        exact_work = {}
        for direction in ("forward", "backward"):
            for t in sweep.config["temperatures_k"]:
                rows = _table(exact_dir / f"work_{direction}_T{t:g}K.csv")
                exact_work.setdefault(direction, {})[f"T{t:g}K"] = {
                    "values": rows[:, 0].tolist(),
                    "probability": rows[:, 1].tolist(),
                }
        reference["work_sweep"]["exact_work"] = exact_work
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Quick self-test of the benchmark at the tiny size (about 30 seconds).

    python3 bench/selftest.py

Checks BENCHMARK.json against the result schema, runs every workload at the
tiny size untraced and traced (twice, with different seeds), and checks the
last stdout line: exact keys, a correct run, and exactly the metric names
and units BENCHMARK.json declares. Count metrics must repeat exactly across
seeds. Finally it checks that the runner refuses, with a nonzero exit and no
result line, a directory that holds only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED_INDEPENDENT_UNITS = ("count", "flop")


def check_spec(spec: dict) -> list:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
        return problems
    if not 1 <= spec["run_seconds"] <= 60 or int(spec["run_seconds"]) != spec["run_seconds"]:
        problems.append("run_seconds must be a whole number in [1, 60]")
    for path in spec["paths"]:
        if not (ROOT / path).is_dir():
            problems.append(f"path {path} is not a directory")
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w}")
        names.append(w["name"])
    for group, keys in (
        ("end_to_end", {"name", "unit", "better", "bound"}),
        ("per_layer", {"name", "unit", "better"}),
    ):
        for m in spec[group]:
            if set(m) != keys or m["better"] not in ("lower", "higher"):
                problems.append(f"bad {group} entry {m}")
            elif not UNIT.match(m["unit"]):
                problems.append(f"bad unit {m['unit']!r}")
            elif group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']} outside (0, 0.25]")
            names.append(m["name"])
    bad_names = [n for n in names if not NAME.match(n)]
    if bad_names or len(set(names)) != len(names):
        problems.append(f"names must be unique and well formed: {bad_names}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower is better) is required")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    return problems


def run(args: list, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines[-1] if lines else ""


def check_result(label: str, line: str, declared: dict) -> tuple:
    problems = []
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None, [f"{label}: last line is not JSON: {line[:200]!r}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, [f"{label}: result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(
            f"{label}: metric names differ; missing {sorted(set(declared) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(declared))}"
        )
    for name, m in metrics.items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or not isinstance(value, (int, float)):
            problems.append(f"{label}: {name} is {m}")
        elif not math.isfinite(value):
            problems.append(f"{label}: {name} is not finite")
        elif name in declared and m["unit"] != declared[name]:
            problems.append(f"{label}: {name} unit {m['unit']} != {declared[name]}")
    return result, problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        counts = []
        for trace, seed in ((0, 1), (1, 1), (1, 2)):
            label = f"{name} trace={trace} seed={seed}"
            proc, line = run(
                ["--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
            )
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result, found = check_result(label, line, per_layer if trace else end_to_end)
            problems += found
            if trace and result is not None:
                counts.append(
                    {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in SEED_INDEPENDENT_UNITS}
                )
            print(f"selftest: {label}: {'ok' if not found else 'FAILED'}", flush=True)
        if len(counts) == 2 and counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{name}: count metrics differ between seeds: {diff}")

    OUT_DIR.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        name = spec["workloads"][0]["name"]
        proc, line = run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        refused = proc.returncode != 0 and '"correct"' not in line
        if not refused:
            problems.append("runner did not refuse a directory without the program")
        print(f"selftest: bare directory: {'refused' if refused else 'FAILED'}", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"selftest: FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

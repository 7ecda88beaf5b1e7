"""Seeded fuzz of the command-line exit-code contract.

Each case runs a command on a cheap base config with one or two keys set to
a boundary value or a value of the wrong type. The keys come from walking
``RunConfig``'s fields, so a new key is fuzzed without editing this file.
Every case runs in-process through ``cli.main`` and must end with exit 0 or
3 and exactly the files its manifest lists, or with exit 2, one ``cpbsim:``
line on stderr and no ``--out``.
"""

import copy
import dataclasses
import json
import random

import pytest

from cpbsim.cli import main
from cpbsim.config import RunConfig

# Every case that is accepted stays cheap: 11 charge states, 112 steps per
# direction, 1,000 events and five samples. The pool's huge values are
# refused before anything is allocated or run: the event, sample, step and
# basis counts are bounded.
BASE = {
    "device": {"n_charges": 11},
    "propagator": {"time_step": 6e-3},
    "temperatures_k": [10.0],
    "events": 1000,
    "spectrum_samples": 5,
    "trace_samples": 5,
}
POOL = (0, -1, 5e-324, 1e308, 2**63 - 1, "x", None, True, [], {}, [1.5])
COMMANDS = ("spectrum", "noise", "run", "microrev", "gibbs")
SEEDS = range(10)
CASES_PER_SEED = 20


def _paths(ref, prefix=()):
    """Key path of every field of dataclass ``ref`` and of its sections."""
    for f in dataclasses.fields(ref):
        path = (*prefix, f.name)
        yield path
        value = getattr(ref, f.name)
        if dataclasses.is_dataclass(value):
            yield from _paths(value, path)


PATHS = tuple(_paths(RunConfig()))


def _case(rng):
    """``(argv, mapping)`` of one case: one or two keys set from POOL."""
    mapping = copy.deepcopy(BASE)
    for path in rng.sample(PATHS, rng.randint(1, 2)):
        target = mapping
        for name in path[:-1]:
            target = target.setdefault(name, {})
            if not isinstance(target, dict):
                break
        else:
            target[path[-1]] = copy.deepcopy(rng.choice(POOL))
    argv = [rng.choice(COMMANDS), rng.choice(["--exact", "--sampled"])]
    # a broken reversal, so that microrev exits 3
    argv += rng.choice([[], ["--no-flux-inversion"]])
    return argv, mapping


def _check(argv, mapping, tmp_path, capsys):
    tmp_path.mkdir()
    config = tmp_path / "config.json"
    config.write_text(json.dumps(mapping), encoding="utf-8")
    out = tmp_path / "out"
    code = main(argv + ["--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    case = f"{argv} {mapping}"
    assert code in (0, 2, 3), case
    if code == 2:
        assert err.startswith("cpbsim: ") and err.count("\n") == 1, (case, err)
        assert err.endswith("\n"), (case, err)
        assert not out.exists(), case
    else:
        listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["outputs"]
        assert {p.name for p in out.iterdir()} == {"manifest.json", *listed}, case


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_configs_keep_the_exit_code_contract(seed, tmp_path, capsys):
    rng = random.Random(seed)
    for i in range(CASES_PER_SEED):
        argv, mapping = _case(rng)
        _check(argv, mapping, tmp_path / str(i), capsys)

"""Seeded fuzz of the command-line exit-code contract.

Each case runs a command on a cheap base config with one or two keys set to
a boundary value or a value of the wrong type. The keys come from walking
``RunConfig``'s fields, so a new key is fuzzed without editing this file.
Every case runs in-process through ``cli.main`` and must end with exit 0 or
3 and exactly the files its manifest lists, or with exit 2, one ``cpbsim:``
line on stderr and no ``--out``. Fixed cases set each size bound's own key
one past its bound on every command, which the seeded draws seldom do.
"""

import copy
import dataclasses
import json
import random

import pytest

from cpbsim.cli import main
from cpbsim.config import RunConfig

# Every case that is accepted stays cheap: 11 charge states, 112 steps per
# direction (17,167 at a duration of 103 ns), at most 10^5 + 1 events and
# 103 samples. The pool's huge values are refused before anything is
# allocated or run: the event, step, sample, basis and temperature counts
# are bounded, and the pool holds one value past each of the last three.
BASE = {
    "device": {"n_charges": 11},
    "propagator": {"time_step": 6e-3},
    "temperatures_k": [10.0],
    "events": 1000,
    "spectrum_samples": 5,
    "trace_samples": 5,
}
POOL = (
    0, -1, 5e-324, 1e308, 2**63 - 1, "x", None, True, [], {}, [1.5],
    103, 10**5 + 1, [1.5] * 101,
)
COMMANDS = ("spectrum", "noise", "run", "microrev", "gibbs")
SEEDS = range(10)
CASES_PER_SEED = 20
# (key path, the value one past its bound)
PAST_BOUNDS = (
    (("device", "n_charges"), 103),
    (("spectrum_samples",), 10**5 + 1),
    (("trace_samples",), 10**5 + 1),
    (("events",), 10**11 + 1),
    (("temperatures_k",), [1.5] * 101),
)


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
    return code, err


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_configs_keep_the_exit_code_contract(seed, tmp_path, capsys):
    rng = random.Random(seed)
    for i in range(CASES_PER_SEED):
        argv, mapping = _case(rng)
        _check(argv, mapping, tmp_path / str(i), capsys)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "path, value", PAST_BOUNDS, ids=[path[-1] for path, _value in PAST_BOUNDS]
)
def test_each_bound_refuses_its_own_key(command, path, value, tmp_path, capsys):
    mapping = copy.deepcopy(BASE)
    target = mapping
    for name in path[:-1]:
        target = target.setdefault(name, {})
    target[path[-1]] = value
    code, err = _check([command], mapping, tmp_path / "case", capsys)
    assert code == 2 and path[-1] in err, err

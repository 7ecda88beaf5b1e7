"""The README's examples and key table agree with the code."""

import dataclasses
import json
import re
from pathlib import Path

import cpbsim
from cpbsim.config import RunConfig, config_from_mapping

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 1
    assert "import cpbsim as cs\n" in blocks[0]
    names = set(re.findall(r"\bcs\.(\w+)", blocks[0]))
    assert len(names) >= 10
    assert sorted(n for n in names if not hasattr(cpbsim, n)) == []
    exec(compile(blocks[0], str(README), "exec"), {})
    # the two values its comments name: ~5e-11, and 1 minus the leakage skew
    deviation, mean = map(float, capsys.readouterr().out.split())
    assert deviation < 1e-10
    assert abs(1.0 - mean) < 1e-3


def test_config_key_table_lists_runconfig_fields():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^\| Key \|.*?\n(?=[^|])", text, flags=re.M | re.S).group(0)
    keys = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    assert keys == [f.name for f in dataclasses.fields(RunConfig)]


def test_json_example_is_a_valid_config():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 1
    config_from_mapping(json.loads(blocks[0]))

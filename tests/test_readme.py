"""The README's library quickstart uses only names that cpbsim exports."""

import re
from pathlib import Path

import cpbsim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_names_resolve():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 1
    assert "import cpbsim as cs\n" in blocks[0]
    names = set(re.findall(r"\bcs\.(\w+)", blocks[0]))
    assert len(names) >= 10
    assert sorted(n for n in names if not hasattr(cpbsim, n)) == []

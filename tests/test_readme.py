"""The README's library example runs as written and segments its disk."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def test_readme_library_example(capsys):
    blocks = PYTHON_BLOCK.findall(README.read_text())
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert float(capsys.readouterr().out) < 1.0   # SA, percent misclassified

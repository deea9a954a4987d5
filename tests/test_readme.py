"""README's library examples run as written: its python blocks, in order,
in one namespace, from the repository root (on fixtures/toy)."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.S | re.M)


def test_readme_python_blocks_run(monkeypatch, capsys):
    blocks = _PYTHON_BLOCK.findall((ROOT / "README.md").read_text("utf-8"))
    assert len(blocks) == 2
    monkeypatch.chdir(ROOT)
    namespace = {}
    for k, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
    assert capsys.readouterr().out.strip()
    assert namespace["summary"].selected

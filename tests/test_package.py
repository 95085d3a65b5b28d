import re
from pathlib import Path

import actsense

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_once():
    names = actsense.__all__
    assert len(names) == len(set(names)), "actsense.__all__ lists a name twice"
    missing = [n for n in names if not hasattr(actsense, n)]
    assert missing == [], f"actsense.__all__ names undefined attributes: {missing}"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README's Library section has no python block"
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})
    assert capsys.readouterr().out.strip()

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert block, "README has no ```python block under ## Library"
    exec(compile(block.group(1), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1
    assert 0.0 <= float(printed[0]) <= 1.0

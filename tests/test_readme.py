"""The README's library quickstart runs as written."""

from pathlib import Path
import re

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    # the first print of the quickstart: the sweep's branch counts
    assert capsys.readouterr().out.startswith("4 0\n")

"""The README's python blocks run as written, so the quick start cannot drift
from the API."""

import re
from pathlib import Path

from corex.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Every fenced python block, in order and in one namespace (a block may
    use what an earlier one imported), in a directory that holds the
    edges.tsv of a generated instance."""
    assert len(BLOCKS) >= 2
    assert main(["generate", "--graphon", "1", "--n-core", "30", "--n-periphery", "30",
                 "--density", "0.1", "--out-dir", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), namespace)

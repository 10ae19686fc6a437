"""The README's Python examples run as written: every ```python block is
executed in a fresh interpreter with `src` on the path, and each line it
prints must equal the `# "..."` comment on the `print` line that printed
it, in order."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
EXPECTED = re.compile(r'^\s*print\(.*#\s*"(.*)"\s*$')


def expected_output(block: str) -> list[str]:
    """The quoted comments of the block's `print` lines, in order."""
    return [m.group(1) for line in block.splitlines() if (m := EXPECTED.match(line))]


def test_the_check_reads_each_print_comment():
    block = 'x = 1  # "not a print"\nprint(x)   # "1"\nprint("a # b")  # "a # b"\nprint(2)\n'
    assert expected_output(block) == ["1", "a # b"]


def test_the_readme_has_python_examples():
    assert BLOCKS and all(expected_output(block) for block in BLOCKS)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_prints_what_it_says(block):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=300, cwd=ROOT
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == expected_output(block)

"""Every ```python block of README.md runs as written, every ``$ downsum``
transcript prints what it shows, and the package imports only the
standard library."""

import ast
import pathlib
import re
import shlex
import sys

import pytest

from downsum import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
TRANSCRIPTS = re.findall(r"^```\n\$ downsum (.*?)\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_has_transcripts():
    assert TRANSCRIPTS


@pytest.mark.parametrize("command, output", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_readme_transcript_output(capsys, command, output):
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out == output


def test_library_imports_only_the_standard_library():
    for path in sorted((README.parent / "src" / "downsum").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                roots = [(node.module or "").split(".")[0]] if node.level == 0 else []
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "downsum", (path.name, root)

"""Every demo script runs to the end and prints its walkthrough, and the
README's code gives the results its comments show."""

import ast
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RESULT = re.compile(r"#\s*(\[.*\])\s*$")  # a result comment: "# [...]" ending its line


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_python_blocks_give_their_commented_results():
    # each ```python block runs statement by statement in its own namespace;
    # an expression whose line ends in a "# [...]" comment must equal it
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        env, lines, checked = {}, block.splitlines(), 0
        for stmt in ast.parse(block).body:
            code = ast.get_source_segment(block, stmt)
            result = RESULT.search(lines[stmt.end_lineno - 1])
            if result:
                assert isinstance(stmt, ast.Expr), code
                assert eval(code, env) == ast.literal_eval(result[1]), code
                checked += 1
            else:
                exec(code, env)
        assert checked == sum(map(bool, map(RESULT.search, lines)))

"""The README's library example runs as written.

The python block under the ``## Library`` heading is executed statement
by statement, and the values its comments state are checked, so a public
name the README uses cannot be removed or renamed unseen.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs_and_states_true_values():
    code = library_block()
    namespace: dict = {}
    values = {}
    for node in ast.parse(code).body:
        segment = ast.get_source_segment(code, node)
        if isinstance(node, ast.Expr):
            values[segment] = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert values["sync_delay(tm).delay"] == 4
    assert values["winning_set(language(tm, 4).words).maximal"] == ((2, 1, 2, 1), (2, 2, 1, 2))
    assert values["member(language(tm, 4).words, (2, 2, 1, 2)).win"] is True

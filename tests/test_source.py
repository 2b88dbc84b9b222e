import ast
from pathlib import Path

import provar

SRC = Path(provar.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, and every verification in the
    # package must still run there
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.rglob("*.py"))) >= 10
    assert not found, f"assert statements in provar: {found}"

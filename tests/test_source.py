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


def _quoted_annotation_names(tree):
    """Names read in string annotations, such as -> "PermGroup"."""
    for node in ast.walk(tree):
        # arguments and annotated assignments have an annotation, functions returns
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if annotation is None:
            continue
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                yield from (n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                            if isinstance(n, ast.Name))


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports to re-export, so it is left out
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_quoted_annotation_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                found += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                          for alias in node.names
                          if (alias.asname or alias.name).split(".")[0] not in used]
    assert not found, f"imported and never used: {found}"

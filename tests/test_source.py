"""Source checks over the package: line length and unused top-level imports."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "k3tk").glob("*.py"))


def test_no_line_over_99_characters():
    assert "theta.py" in [path.name for path in SOURCES]
    long = [(path.name, n) for path in SOURCES
            for n, line in enumerate(path.read_text().splitlines(), 1) if len(line) > 99]
    assert long == []


def test_every_top_level_import_is_used():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):        # import a.b binds a
                bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {alias.asname or alias.name for alias in node.names}
        # a name read directly, or as the base of an attribute, is an ast.Name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.name, name) for name in sorted(bound - used)]
    assert unused == []

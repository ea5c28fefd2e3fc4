"""Source checks over the package: line length, unused top-level imports,
unreferenced private helpers, one module per literal InputError message, and
no validated Goettsche lookup inside the series and theta loops."""

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


def test_every_private_top_level_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):       # imported by another module
                used.add(node.name)
    # cli looks its _cmd_<name> handlers up by name from _COMMANDS
    dead = [(name, node.name) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not (name == "cli.py" and node.name.startswith("_cmd_"))
            and node.name not in used]
    assert dead == []


def test_each_input_error_message_has_one_home():
    homes = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "InputError" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                homes.setdefault(node.args[0].value, set()).add(path.name)
    assert "tau must lie in the upper half plane" in homes
    assert {message: sorted(names) for message, names in homes.items() if len(names) > 1} == {}


def test_no_loop_in_partitions_or_theta_calls_hilb_euler():
    # loops read the table that qseries._hilb_table grew once; a while loop whose end
    # is not known in advance (theta._a_sum_bound) may grow it as it goes
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    calls = []
    for path in SOURCES:
        if path.name in ("partitions.py", "theta.py"):
            for loop in ast.walk(ast.parse(path.read_text())):
                if isinstance(loop, loops):
                    calls += [(path.name, node.lineno) for node in ast.walk(loop)
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                              and node.func.id == "hilb_euler"]
    assert calls == []

"""Source checks over the package: line length, unused top-level imports,
unreferenced private helpers and module-level names, one module per literal
InputError message, no validated Goettsche lookup inside the series and theta
loops, no module-level container in the series and theta modules, and mpmath
imported in one function."""

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


def _names_read(trees) -> set[str]:
    """Every name the package reads: loaded, taken as an attribute or imported."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):       # imported by another module
                used.add(node.name)
    return used


def test_every_private_top_level_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = _names_read(trees)
    # cli looks its _cmd_<name> handlers up by name from _COMMANDS
    dead = [(name, node.name) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and not (name == "cli.py" and node.name.startswith("_cmd_"))
            and node.name not in used]
    assert dead == []


def test_every_module_level_name_is_read():
    # a knob or table outlives its last reader otherwise
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assigned = []
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign) else [node.target]
                       if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
            assigned += [(name, n.id) for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name) and not n.id.startswith("__")]
    assert ("errors.py", "MAX_WORK") in assigned
    used = _names_read(trees)
    assert [pair for pair in assigned if pair[1] not in used] == []


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


def test_partitions_and_theta_keep_no_module_level_container():
    # what the sums keep lives on a Splitting and dies with it
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for path in SOURCES:
        if path.name in ("partitions.py", "theta.py"):
            for node in ast.parse(path.read_text()).body:
                value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
                if isinstance(value, containers) or (
                        isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                        and value.func.id in ("dict", "list", "set", "defaultdict")):
                    found.append((path.name, node.lineno))
    assert found == []


def test_only_the_literal_hecke_path_imports_mpmath():
    # every other spawn stays free of mpmath, and retiring that path leaves src/ without it
    homes = set()

    def scan(node, module, where):
        for child in ast.iter_child_nodes(node):
            names = ([alias.name for alias in child.names] if isinstance(child, ast.Import)
                     else [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "mpmath" for name in names):
                homes.add((module, where))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scan(child, module, f"{where}.{child.name}" if where else child.name)
            else:
                scan(child, module, where)

    for path in SOURCES:
        scan(ast.parse(path.read_text()), path.name, "")
    assert homes == {("partitions.py", "z_psu_hecke_literal")}

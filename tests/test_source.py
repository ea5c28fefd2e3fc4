"""Source checks over the package: line length, unused top-level imports,
unreferenced private helpers and module-level names, one module per literal
InputError message, no validated Goettsche lookup inside the series and theta
loops, no module-level container in the series and theta modules, mpmath
imported in one function, isometries bound and applied only inside
IsometryWord, a Mukai vector's memo read and written only by moduli._record,
one Jacobi per splitting with no least eigenvalue kept, no float added by the
builtin sum in theta, no tail read off a qs_evaluate result, with _hilb_tail
read only by _a_sums, and no argparse; the benchmark workloads read only public
names, and every name the benchmark's fresh-process probes import exists."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "k3tk").glob("*.py"))


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
    # each sum grows the table of chi(Hilb^n) once, to an index known before its loops, and
    # its loops only read it; a tail past the table is theta._hilb_tail's closed form
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    calls = []
    for path in SOURCES:
        if path.name in ("partitions.py", "theta.py"):
            for loop in ast.walk(ast.parse(path.read_text())):
                if isinstance(loop, loops):
                    calls += [(path.name, node.lineno) for node in ast.walk(loop)
                              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                              and node.func.id in ("hilb_euler", "_hilb_table")]
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


def _scoped(node, where=""):
    """Each node below node, with the dotted name of the class or function it sits in."""
    for child in ast.iter_child_nodes(node):
        yield where, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scoped(child, f"{where}.{child.name}" if where else child.name)
        else:
            yield from _scoped(child, where)


def test_only_the_literal_hecke_path_imports_mpmath():
    # every other spawn stays free of mpmath, and retiring that path leaves src/ without it
    homes = set()
    for path in SOURCES:
        for where, node in _scoped(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "mpmath" for name in names):
                homes.add((path.name, where))
    assert homes == {("partitions.py", "z_psu_hecke_literal")}


def test_isometries_apply_only_as_words():
    # a generator is checked and bound only when a word is built, and a bound step runs
    # only when a word is applied, so no second application path grows back unnoticed
    homes = {}
    for path in SOURCES:
        for where, node in _scoped(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("_bind", "_steps"):
                homes.setdefault(node.attr, set()).add((path.name, where))
    assert homes == {"_bind": {("isometry.py", "IsometryWord.__init__")},
                     "_steps": {("isometry.py", "IsometryWord.apply")}}


def test_only_the_moduli_record_reads_the_memo():
    # a vector's memo slot is declared and started empty in lattice and read and written by
    # moduli._record alone, so its layout is known to one function
    homes = set()
    for path in SOURCES:
        for where, node in _scoped(ast.parse(path.read_text())):
            if getattr(node, "attr", None) == "_memo" or getattr(node, "value", None) == "_memo":
                homes.add((path.name, where))
    assert homes == {("lattice.py", "MukaiVector"), ("lattice.py", "MukaiVector.__init__"),
                     ("lattice.py", "_mukai"), ("moduli.py", "_record")}


def test_one_jacobi_per_splitting_and_no_least_eigenvalue():
    # the majorant's pivots decide that it is definite and bound every count, so the form's
    # Jacobi runs once, for the spectral projectors, and no least eigenvalue is kept
    reads, lam_min = [], []
    for path in SOURCES:
        for where, node in _scoped(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or \
                getattr(node, "arg", None) or getattr(node, "value", None)
            if name == "_eigh" and isinstance(getattr(node, "ctx", None), ast.Load):
                reads.append((path.name, where))
            elif name == "_lam_min":
                lam_min.append((path.name, where))
    assert reads == [("theta.py", "Splitting.spectral")]
    assert lam_min == []


def _lengths(node) -> bool:
    """node is len(...) or a sum of such."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _lengths(node.left) and _lengths(node.right)
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"


def test_theta_adds_no_float_with_the_builtin_sum():
    # the builtin sum compensates float rounding from Python 3.12 on, so a float sum taken by
    # it would not keep its bits on every interpreter; the left fold from 0 (_dot, reduce)
    # takes them, and only the two table sizes, whose every term is a len(...), keep sum
    tree = ast.parse((ROOT / "src" / "k3tk" / "theta.py").read_text())
    named = [node for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == "sum"]
    sizes = [node.func for node in ast.walk(tree)
             if isinstance(node, ast.Call) and node.func in named and len(node.args) == 1
             and isinstance(node.args[0], ast.GeneratorExp) and _lengths(node.args[0].elt)]
    assert len(sizes) == 2
    assert [node.lineno for node in named if node not in sizes] == []


def _reads(node, names) -> bool:
    """node reads one of names or calls qs_evaluate."""
    return any(getattr(n, "id", None) in names
               or getattr(getattr(n, "func", None), "id", None) == "qs_evaluate"
               for n in ast.walk(node))


def test_one_kernel_bounds_every_goettsche_tail():
    # qs_evaluate extrapolates nothing, so no sum reads a tail off its result (or off a name
    # assigned from it, directly or through another such name), and every tail of a
    # Goettsche-type sum is _a_sums', the one reader of _hilb_tail
    tail_reads, kernel = [], []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            assigns = [node for node in ast.walk(func) if isinstance(node, ast.Assign)]
            evaluated = set()
            while more := {n.id for node in assigns if _reads(node.value, evaluated)
                           for target in node.targets for n in ast.walk(target)
                           if isinstance(n, ast.Name)} - evaluated:
                evaluated |= more
            tail_reads += [(path.name, func.name) for node in ast.walk(func)
                           if isinstance(node, ast.Attribute) and node.attr == "tail"
                           and _reads(node.value, evaluated)]
        kernel += [(path.name, where) for where, node in _scoped(tree)
                   if isinstance(node, ast.Name) and node.id == "_hilb_tail"]
    assert tail_reads == []
    assert kernel == [("theta.py", "_a_sums")]


def test_no_source_names_argparse():
    # the CLI parses its command table and writes its help itself: argparse and the
    # gettext and locale it loads would cost every spawn a few ms
    assert "cli.py" in [path.name for path in SOURCES]
    assert [path.name for path in SOURCES if "argparse" in path.read_text()] == []


def test_benchmark_workloads_read_only_public_names():
    # the workloads take the package as k3; a name they read that the package drops or
    # renames fails here rather than in a benchmark run
    import k3tk

    read, built = set(), []
    for path in sorted((ROOT / "k3bench").glob("wl_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "k3"):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and "Splitting" in (getattr(node.func, "attr", 0),
                                                                getattr(node.func, "id", 0)):
                built.append((path.name, node.lineno))
    assert {"Splitting", "theta_siegel_narain", "z_full_factorized"} <= read
    assert sorted(read - set(k3tk.__all__)) == []
    assert built == []          # a splitting comes from Splitting.spectral or identity_positive


def test_benchmark_probe_imports_resolve():
    # the traced run's probes are code strings run in fresh interpreters, which no import
    # check sees; a module move would otherwise break them only at --trace 1
    found = set()
    for node in ast.walk(ast.parse((ROOT / "k3bench" / "run.py").read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for module, names in re.findall(r"\bfrom (k3tk[\w.]*) import (\w+(?:, \w+)*)",
                                            node.value):
                found |= {(module, name) for name in names.split(", ")}
    assert {("k3tk.qseries", "hilb_euler"), ("k3tk.cli", "main")} <= found
    assert sorted((module, name) for module, name in found
                  if not hasattr(importlib.import_module(module), name)) == []

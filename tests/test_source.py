"""Rules on the package source that a test can hold."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "posetsat"


def test_source_has_no_assert_statements():
    # python -O strips assert statements, and every check in the package
    # must still run there: raise instead.
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def test_source_imports_no_private_names():
    # Modules share only public names, so a search internal can change
    # without another module, the solver included, reaching into it.
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [
        f"{path.name}:{node.lineno} {node.module or '.'}.{alias.name}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "posetsat")
        for alias in node.names
        if alias.name.startswith("_") or any(
            part.startswith("_") for part in (node.module or "").split(".")
        )
    ]
    assert not found, f"private names imported across modules: {found}"


def test_source_defines_no_unused_private_names():
    # A private helper that a change leaves without callers is dead code:
    # every _-prefixed function, method or class defined in the package
    # must be used somewhere in it, as a name, an attribute or an import.
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    trees = [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]
    defined = {}
    used = set()
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.setdefault(name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
    unused = sorted(f"{where} {name}" for name, where in defined.items() if name not in used)
    assert defined, "no private definitions found"
    assert not unused, f"private names defined but never used: {unused}"


def test_pinned_verdicts_go_through_completes():
    # Whether a set completes a copy is asked of CopySearch.completes, the
    # one place that reuses copies found before; a pinned search called
    # from the sweep or the solver would bypass it.
    found = [
        f"{name}:{node.lineno}"
        for name in ("verify.py", "solver.py")
        for node in ast.walk(ast.parse((SRC / name).read_text(), filename=name))
        if isinstance(node, ast.Attribute) and node.attr == "find_containing"
    ]
    assert not found, f"pinned searches outside CopySearch.completes: {found}"


def test_verify_builds_searchers_at_one_site():
    # Every sweep is set up in one place (searcher, twin classes, freeness,
    # then the ground cap); a second construction in verify.py would copy
    # that set-up out again.
    tree = ast.parse((SRC / "verify.py").read_text(), filename="verify.py")
    sites = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "CopySearch"
    ]
    assert len(sites) == 1, f"CopySearch constructed in verify.py at lines {sites}"


def test_chain_engine_appends_nodes_at_one_site():
    # A fresh chain engine and a grown one append each top's nodes through
    # one step; a second site that adds nodes would be a second build path
    # whose rows could drift from the first.
    tree = ast.parse((SRC / "embed.py").read_text(), filename="embed.py")
    engine = next(
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_ChainEngine"
    )

    def is_nodes(node):
        return (isinstance(node, ast.Name) and node.id == "nodes") or (
            isinstance(node, ast.Attribute) and node.attr == "nodes"
        )

    sites = [
        node.lineno
        for node in ast.walk(engine)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend", "insert")
            and is_nodes(node.func.value)
        )
        or (isinstance(node, ast.AugAssign) and is_nodes(node.target))
    ]
    assert len(sites) == 1, f"_ChainEngine.nodes extended in embed.py at lines {sites}"

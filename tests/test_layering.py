"""The package's import graph, read from the source with ``ast``.

``ffield`` sits at the bottom: it holds the polynomial kernel that every
other module builds on, so it may import nothing from the package but
``errors``.  The module-level imports between package modules form no
cycle, and the one import made inside a function is canon's place scan
reaching arith.
"""
import ast
import functools
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "src" / "cubicext"
MODULES = sorted(p.stem for p in PKG.glob("*.py"))


def _package_imports(node):
    """Package modules named by an import node (relative or absolute)."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and (node.module or "").split(".")[0] != "cubicext":
            return []
        base = (node.module or "").split(".")[-1] if node.module else ""
        if base in MODULES:
            return [base]
        return [a.name for a in node.names if a.name in MODULES]
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names
                if a.name.startswith("cubicext.") and a.name.split(".")[1] in MODULES]
    return []


@functools.lru_cache(maxsize=None)
def _imports():
    """{module: (module-level imports, [(function, imported module)])}."""
    out = {}
    for name in MODULES:
        tree = ast.parse((PKG / f"{name}.py").read_text())
        top = set()
        for node in tree.body:
            top.update(_package_imports(node))
        local = []
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    local.extend((fn.name, m) for m in _package_imports(node))
        out[name] = (top - {name}, local)
    return out


def test_ffield_imports_only_errors():
    top, local = _imports()["ffield"]
    assert top == {"errors"}
    assert local == []


def test_module_level_imports_form_no_cycle():
    graph = {name: top for name, (top, _) in _imports().items()}
    state = {}

    def visit(name, path):
        if state.get(name) == "done":
            return
        assert state.get(name) != "open", " -> ".join(path + [name])
        state[name] = "open"
        for dep in sorted(graph[name]):
            visit(dep, path + [name])
        state[name] = "done"

    for name in MODULES:
        visit(name, [])


def test_only_function_level_import_is_canon_to_arith():
    local = {(name, fn, dep) for name, (_, pairs) in _imports().items() for fn, dep in pairs}
    assert local == {("canon", "_separate_by_signature", "arith")}


def test_the_reader_sees_every_package_import():
    # a reader that missed an import form would make the checks above vacuous
    top, _ = _imports()["polyring"]
    assert {"errors", "ffield"} <= top
    assert ("_separate_by_signature", "arith") in _imports()["canon"][1]

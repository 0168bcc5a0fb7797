"""The package holds only what the program runs: every top-level function
and class in `src/dirac1d`, private helpers included, and every method and
property of those classes other than dunders, is reachable from what uses
the package.

The roots are the modules' top-level statements other than imports and
definitions (tables such as `_KERNELS`, and `main`), the names the demos and
the README's "Library use" snippet use, and the functions the benchmark's
tracer wraps.  A name reaches every definition of that name, a member by its
attribute name, and a definition reaches the names its body uses; a class's
body is its statements outside its members, dunders included.  Reference
code that only tests call belongs in `tests/` (see `reference.py`).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def used_names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def members(cls: ast.ClassDef) -> list:
    """The methods and properties of a class, dunders left out."""
    return [n for n in cls.body if isinstance(n, ast.FunctionDef)
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def body_names(node) -> set:
    """The names a definition uses; a class's members count on their own."""
    if not isinstance(node, ast.ClassDef):
        return used_names(node)
    own = [n for n in ast.iter_child_nodes(node) if n not in members(node)]
    return set().union(*map(used_names, own))


def tracer_targets() -> set:
    """The attributes in SPANNED and TALLIED of perfbench/tracing.py, read as literals."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    return {attr for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name) and t.id in ("SPANNED", "TALLIED")
            for _, attr, _ in ast.literal_eval(node.value)}


def roots_and_definitions():
    roots, defs = {"main"} | tracer_targets(), {}
    for path in sorted((ROOT / "src" / "dirac1d").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path.name, node))
                for m in members(node) if isinstance(node, ast.ClassDef) else ():
                    defs.setdefault(m.name, []).append((f"{path.name}:{node.name}", m))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= used_names(node)
    for path in sorted((ROOT / "demos").glob("*.py")):
        roots |= used_names(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    snippet = re.search(r"## Library use\s+```python\n(.*?)```", readme, re.S).group(1)
    roots |= used_names(ast.parse(snippet))
    return roots, defs


def test_every_definition_is_reachable():
    roots, defs = roots_and_definitions()
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for _, node in defs.get(name, ()) for n in body_names(node)]
    unreached = sorted(f"{module}:{name}" for name, found in defs.items()
                       for module, _ in found if name not in reached)
    assert not unreached, f"definitions nothing in the program uses: {unreached}"


def test_the_roots_are_found():
    # a parse that found no snippet, demo or tracer target would pass vacuously
    roots, defs = roots_and_definitions()
    assert {"run_experiment", "compute_profile"} <= tracer_targets()
    assert {"run", "make_initial_data", "TriangleSides", "tail_bound"} <= roots
    assert {"run", "eval_N", "Grid", "main"} <= set(defs)
    # and the members: a method, a property and a classmethod
    assert {"on_step", "cells", "from_domain"} <= set(defs)

"""The package holds only what the program runs: every top-level function
and class in `src/dirac1d`, private helpers included, is reachable from what
uses the package.

The roots are the modules' top-level statements other than imports and
definitions (tables such as `_KERNELS`, and `main`), the names the demos and
the README's "Library use" snippet use, and the functions the benchmark's
tracer wraps.  A name reaches every top-level definition of that name, and a
definition reaches the names its body uses.  Reference code that only tests
call belongs in `tests/` (see `reference.py`).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def used_names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


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
            todo += [n for _, node in defs.get(name, ()) for n in used_names(node)]
    unreached = sorted(f"{module}:{name}" for name, found in defs.items()
                       for module, _ in found if name not in reached)
    assert not unreached, f"definitions nothing in the program uses: {unreached}"


def test_the_roots_are_found():
    # a parse that found no snippet, demo or tracer target would pass vacuously
    roots, defs = roots_and_definitions()
    assert {"run_experiment", "compute_profile"} <= tracer_targets()
    assert {"run", "make_initial_data", "TriangleSides", "tail_bound"} <= roots
    assert {"run", "eval_N", "Grid", "main"} <= set(defs)

"""The public surface: every public top-level function or class of the
package has a caller in the package or the bench, not only in tests."""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "lentparticle").glob("*.py"))
CALLERS = SOURCES + sorted((REPO / "bench").glob("*.py"))

# public names that may wait for their caller, each with the reason
ALLOWED = {
    # ROADMAP item 7 wires it into diagnostics.hypothesis_report
    ("diagnostics", "ellipticity_scan"),
    # the whole-chunk form of `mark_blocks`: the bench's sample_mark_sets
    # rows count its calls by name, and the tests read it as a reference
    ("ensemble", "sample_mark_sets"),
}


def _named(path: Path) -> set:
    """Every identifier a module refers to: names, attributes and imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.rsplit(".", 1)[-1], node.asname)))
    return found


def _registered(node) -> bool:
    """A scenario builder: the catalog reaches it through `_register`."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_register" for d in node.decorator_list)


def test_every_public_name_has_a_caller_outside_tests():
    named = set().union(*map(_named, CALLERS))
    unused = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and not _registered(node)
                    and node.name not in named and (path.stem, node.name) not in ALLOWED):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public names that only tests reach: {unused}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    # a leading underscore keeps a name to its own module: one that another
    # module needs gets a public name (imports, and reads through a sibling
    # module such as `prm._poisson`)
    modules = {path.stem for path in SOURCES}
    reads = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                reads += [f"{path.stem}: {alias.name}" for alias in node.names
                          if _private(alias.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, ast.Name) and node.value.id in modules
                  and node.value.id != path.stem):
                reads.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert not reads, f"private names read across modules: {reads}"

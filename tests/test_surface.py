"""Every public function, class and method of lpadapt has a caller in the program.

The program is the package (src/lpadapt) and the benchmark that drives it
(perfbench).  A public name that only the tests reach is surface kept working
for no caller, so this guard walks the ASTs of both and fails on any public
definition of the package whose name is loaded nowhere outside its own body.
A name stays without a caller only on ALLOWED, with the reason; an entry that
gains a caller or loses its definition must leave the list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "lpadapt").glob("*.py"))
PROGRAM = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

_TRACER = ("bound by name in perfbench/tracing.py's spans, so its deletion waits on a change to the benchmark "
           "that retargets the tracer (ROADMAP item 4)")

ALLOWED = {
    "LadderDesign.fit": _TRACER,
    "select_adaptive": _TRACER,
    "adaptive_estimate": _TRACER,
}


def _public_definitions() -> dict[str, str]:
    """Qualified name -> bare name of each public module-level function and class, and of their methods."""
    found = {}
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = item.name
    return found


class _Loads(ast.NodeVisitor):
    """Names loaded as a variable or an attribute, except inside the definition of the same name."""

    def __init__(self):
        self.names: set[str] = set()
        self._enclosing: list[str] = []

    def _definition(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _load(self, name: str, ctx):
        if isinstance(ctx, ast.Load) and name not in self._enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._load(node.id, node.ctx)

    def visit_Attribute(self, node):
        self._load(node.attr, node.ctx)
        self.generic_visit(node)


def _loaded_names() -> set[str]:
    loads = _Loads()
    for path in PROGRAM:
        loads.visit(ast.parse(path.read_text(encoding="utf-8")))
    return loads.names


def test_every_public_name_has_a_caller_in_the_program():
    loaded = _loaded_names()
    dead = sorted(q for q, name in _public_definitions().items() if name not in loaded and q not in ALLOWED)
    assert not dead, f"public names that nothing in src/lpadapt or perfbench calls: {dead}"


def test_allowlist_holds_only_defined_names_without_a_caller():
    defined, loaded = _public_definitions(), _loaded_names()
    stale = sorted(q for q in ALLOWED if q not in defined or defined[q] in loaded)
    assert not stale, f"allowlisted names that are gone or now have a caller: {stale}"

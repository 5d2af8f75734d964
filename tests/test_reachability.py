"""Every function, class, method and property of annocamp is reached from a root.

The roots are the command line (`cli.main`), the bundled experiments
(`campaign.reproduce`) and the library calls bench/workload.py makes. The
walk follows name references through the parsed source: a name bound by a
relative import resolves to its definition in the imported module, and a
module's attribute (`campaign.ingest`) to that module's definition.
Module-level statements always run, class bodies, decorators and default
values included, except an `if __name__ == "__main__":` block, which runs
only when its module runs as a script (cli's calls `main`, a root of its
own); a function body runs once its function is reached. A
method or property of a reached class is reached when it is a dunder
method, or when a reached body (or a module-level statement) loads its name
as an attribute. Annotations are never evaluated (every module imports
`annotations` from `__future__`).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "annocamp"

ROOTS = (
    "cli.main",
    "campaign.reproduce",
    # The library calls of bench/workload.py.
    "campaign.simulate_campaign",
    "evaluate.aggregate",
    "evaluate.metrics",
    "planner.BudgetConstraint",
    "planner.enumerate_plans",
    "planner.optimize",
    "taxonomy.singleton_taxonomy",
    "workersim.VideoTruth",
    "workersim.Worker",
    "workersim.default_behavior",
    "workersim.fit_hard_mixture",
    "evaluate.LabelMatrix.binary",
)

# Definitions no root reaches that stay, each with its reason.
KEEP: dict[str, str] = {}

MAIN_GUARD = "__name__ == '__main__'"  # as ast.unparse spells the test


def _references(node):
    """(name, attribute) for each name a node loads, attribute being the one
    loaded of the name or None; (None, attribute) for each attribute loaded
    of any other expression."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        yield node.value.id, node.attr if isinstance(node.ctx, ast.Load) else None
    elif isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load):
            yield node.id, None
    else:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield None, node.attr
        for name, value in ast.iter_fields(node):
            if name in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from _references(child)


def _parts(function):
    """(what runs at definition time, the body) of a function definition."""
    args = function.args
    now = [*function.decorator_list, *args.defaults, *filter(None, args.kw_defaults)]
    return now, function.body


def _graph():
    """(definitions: "module.name" or "module.Class.method" -> the references
    its body makes once it is reached, references made at import time, import
    bindings per module)."""
    definitions, at_import, bindings = {}, [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        bound = bindings[module] = {}
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            deferred = []
            if isinstance(statement, ast.If) and ast.unparse(statement.test) == MAIN_GUARD:
                continue
            if isinstance(statement, ast.ImportFrom) and statement.level == 1:
                for alias in statement.names:
                    target = f"{statement.module}.{alias.name}" if statement.module else alias.name
                    bound[alias.asname or alias.name] = target
                continue
            if isinstance(statement, ast.FunctionDef):
                now, deferred = _parts(statement)
            elif isinstance(statement, ast.ClassDef):
                now = [*statement.decorator_list, *statement.bases, *statement.keywords]
                for item in statement.body:
                    if isinstance(item, ast.FunctionDef):
                        before, body = _parts(item)
                        now += before
                        definitions[f"{module}.{statement.name}.{item.name}"] = [
                            (module, ref) for node in body for ref in _references(node)
                        ]
                    else:
                        now.append(item)
            else:
                now = [statement]
            at_import += [(module, ref) for node in now for ref in _references(node)]
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                definitions[f"{module}.{statement.name}"] = [
                    (module, ref) for node in deferred for ref in _references(node)
                ]
    return definitions, at_import, bindings


def _resolve(definitions, bindings, module, reference):
    name, attribute = reference
    if name is None:
        return None
    target = bindings[module].get(name, f"{module}.{name}")
    if target in bindings:  # a module: its attribute is the definition
        target = f"{target}.{attribute}"
    while target not in definitions:  # follow re-exports
        owner, _, name = target.partition(".")
        if name not in bindings.get(owner, {}):
            return None
        target = bindings[owner][name]
    return target


def _reached(roots) -> set:
    definitions, at_import, bindings = _graph()
    missing = [r for r in roots if r not in definitions]
    assert not missing, f"roots that are not definitions: {missing}"
    methods = [(name, *name.rsplit(".", 1)) for name in definitions if name.count(".") == 2]
    reached, loaded, todo, references = set(), set(), list(roots), at_import
    while todo or references:
        loaded.update(attribute for _, (_, attribute) in references)
        todo += [_resolve(definitions, bindings, m, ref) for m, ref in references]
        references = []
        while todo:
            name = todo.pop()
            if name is None or name in reached:
                continue
            reached.add(name)
            references += definitions[name]
        if not references:  # the methods that the loads so far reach
            todo = [name for name, owner, method in methods if name not in reached
                    and owner in reached
                    and (method.startswith("__") and method.endswith("__") or method in loaded)]
    return reached


def test_every_definition_is_reached_or_kept():
    definitions = _graph()[0]
    unreached = sorted(set(definitions) - _reached(ROOTS + tuple(KEEP)))
    assert not unreached, f"no command, experiment or benchmark call reaches {unreached}"


def test_kept_definitions_are_unreached():
    reached = _reached(ROOTS)
    assert not [name for name in KEEP if name in reached], "a reached definition needs no KEEP entry"


def test_walk_follows_module_attributes_and_imports(tmp_path, monkeypatch):
    reached = _reached(("cli.main",))
    # cli calls campaign.ingest as a module attribute; ingest calls
    # expand_answer through `from .taxonomy import`.
    assert {"campaign.ingest", "taxonomy.expand_answer", "output.atomic_open"} <= reached
    # A dunder method of a reached class, and a method whose name a reached
    # body loads (`plan.modifiers.label()` in the plan command).
    assert {"workersim.EventTable.__len__", "workersim.ModifierSet.label"} <= reached
    # A definition no reached body references stays unreached: a library
    # root reaches no command. cli's `__main__` guard, which calls `main`,
    # is not import-time code.
    assert "campaign.ingest" not in _reached(("taxonomy.singleton_taxonomy",))
    # The same on a two-module package, whole.
    (tmp_path / "a.py").write_text("from .b import used\n\n\ndef root():\n    return used()\n")
    (tmp_path / "b.py").write_text("def used():\n    pass\n\n\ndef unused():\n    pass\n")
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    assert _reached(("a.root",)) == {"a.root", "b.used"}

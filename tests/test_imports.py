"""Import structure: every module loads on its own, and the one-step
oracle stays independent of the engine it checks."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import subprocess_env

import procreal
from procreal.corpus import corpus_proofs
from procreal.logic import _TAIL, PExchange, cut_eliminate

MODULES = sorted(m.name for m in pkgutil.iter_modules(procreal.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    # a fresh interpreter per module, so an import cycle cannot hide
    # behind a module that an earlier import already loaded
    proc = subprocess.run(
        [sys.executable, "-c", f"import procreal.{name}"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr


def _imported(filename: str) -> set:
    """The modules that the test module `filename` imports, and each name
    it imports from one, as `module.name`."""
    imported = set()
    for node in ast.walk(ast.parse((Path(__file__).parent / filename).read_text())):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    return imported


def test_oracle_step_does_not_import_the_engine():
    engine = ("procreal.semantics", "procreal.equivalence")
    assert not [m for m in _imported("oracle_step.py") if m.startswith(engine)]


def test_oracle_types_imports_only_terms_names_and_the_step_oracle():
    # the typed layer's oracle reads types and classes as plain attributes,
    # so it needs nothing of the engine or of `semtypes`
    imported = _imported("oracle_types.py")
    allowed = ("procreal.names", "procreal.terms")
    assert [m for m in imported if m.startswith("procreal")] and all(
        m.startswith(allowed) for m in imported if m.startswith("procreal")
    )
    assert "oracle_step" in imported


def _definitions(*modules) -> dict:
    """The module-level functions and classes of the named engine
    modules, by name."""
    defs = {}
    for module in modules:
        source = Path(procreal.__file__).parent / f"{module}.py"
        for node in ast.parse(source.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
    return defs


def _named(node) -> set:
    """The names and attribute names that `node`'s code reads."""
    named = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            named.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            named.add(sub.attr)
    return named


def test_bounded_failures_route_reads_nothing_of_the_engine_route():
    # failures_bounded is the oracle the normal-form route is checked
    # against, so no definition it reaches, in its module or in the
    # semantics it steps and closes with, names a memo, graph or normal
    # form; that includes the determinisation the two routes share
    defs = _definitions("semantics", "equivalence")
    route, todo = set(), ["failures_bounded"]
    while todo:
        name = todo.pop()
        if name not in route:
            route.add(name)
            todo.extend(n for n in _named(defs[name]) if n in defs)
    assert {"failures_bounded", "StepMemo", "_determinise", "_move_key", "_minimize", "FailureSet",
            "tau_closure", "step"} <= route
    named = set().union(*(_named(defs[name]) for name in route))
    assert not named & {"_MEMO", "build_lts", "normal_form", "_normalise"}


def _tracer_targets() -> dict:
    """`TARGETS` of bench/tracing.py, built by running only the statements
    of that file that assign or update it, so nothing of bench/ is
    imported."""
    source = Path(__file__).parent.parent / "bench" / "tracing.py"
    names = {"TARGETS", "COMBINATORS"}
    kept = [
        node for node in ast.parse(source.read_text()).body
        if isinstance(node, ast.Assign) and {getattr(t, "id", None) for t in node.targets} <= names
        or isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute) and getattr(node.value.func.value, "id", None) in names
    ]
    namespace: dict = {}
    exec(compile(ast.Module(body=kept, type_ignores=[]), str(source), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_function_the_benchmark_tracer_wraps_exists():
    # the tracer patches these by name, a method in its class's own
    # namespace; a refactor that renames or moves one breaks traced runs
    targets = _tracer_targets()
    assert ("procreal.semantics", "step") in targets and ("procreal.combinators", "seq") in targets
    for module, name in targets:
        owner, _, attr = name.rpartition(".")
        found = importlib.import_module(module)
        where = vars(getattr(found, owner)) if owner else vars(found)
        assert callable(where.get(attr)), f"{module}.{name}"


SOURCES = sorted((Path(procreal.__file__).parent).glob("*.py"))


def _is_code(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "code" or isinstance(node, ast.Attribute) and node.attr == "code"


def test_code_arithmetic_is_written_only_in_the_codings():
    # a coding's residue arithmetic lives in its renaming's apply_code;
    # everywhere else a coded name, label or action is built by applying
    # a renaming, so the name coding is decided in one place
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    classes = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    renamings = {"Renaming"}
    for c in classes:  # a base class comes before its subclasses
        if any(getattr(b, "id", None) in renamings for b in c.bases):
            renamings.add(c.name)
    allowed = {
        id(node)
        for c in classes if c.name in renamings
        for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "apply_code"
        for node in ast.walk(f)
    }
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp):
                operands = (node.left, node.right)
            elif isinstance(node, ast.UnaryOp):
                operands = (node.operand,)
            elif isinstance(node, ast.AugAssign):
                operands = (node.target, node.value)
            else:
                continue
            if id(node) not in allowed and any(map(_is_code, operands)):
                found.append(f"{name}:{node.lineno}")
    assert not found


def _dict_keys(tree, name: str) -> list:
    """The keys, as written, of the dict literal assigned to `name` at
    the top of `tree`."""
    (found,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    return [key.id for key in found.keys]


def test_each_rule_shape_is_written_once():
    # a rule's shape is its `_TAIL` entry and its `_PRINCIPAL` entry,
    # which the checker and every cut-elimination step read; the axiom,
    # the cut and the exchange have their own shapes
    tree = ast.parse((Path(procreal.__file__).parent / "logic.py").read_text())
    rules = sorted(
        node.name for node in tree.body
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "Proof" for b in node.bases)
    )
    assert len(rules) == 14 and sorted(_dict_keys(tree, "RULE_NAMES")) == rules
    shaped = [r for r in rules if r not in ("PAxiom", "PCut", "PExchange")]
    assert sorted(_dict_keys(tree, "_TAIL")) == sorted(_dict_keys(tree, "_PRINCIPAL")) == shaped


def test_each_realizer_layout_is_read_off_the_rule_shape():
    # a premise's port layout is derived from `_sources` and `_TAIL` in
    # `_layouts`; only the cut's packing into `seq`'s binary layout and its
    # unpacking, and the promotion's two port splits, are written by hand
    tree = ast.parse((Path(procreal.__file__).parent / "extraction.py").read_text())
    calls = {
        outer.name: sum(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "relayout"
            for node in ast.walk(outer)
        )
        for outer in tree.body if isinstance(outer, ast.FunctionDef)
    }
    assert {name: n for name, n in calls.items() if n} == {"_layouts": 1, "_cut_layout": 1, "_realize": 3}
    # every derived layout is printed by the corpus_realizers golden
    met = set()
    todo = [p for e in corpus_proofs().values() for p in cut_eliminate(e["proof"], keep_trail=True).trail]
    while todo:
        node = todo.pop()
        met.add(type(node))
        todo.extend(node.premises())
    assert {*_TAIL, PExchange} <= met


def test_no_step_writes_a_permutation_by_hand():
    # a reduct's formulas reach their places through `_restore`; only the
    # tail-last order of a commuted premise and a contraction's order
    # exchange otherwise
    callers = [
        outer.name
        for path in SOURCES for outer in ast.parse(path.read_text()).body
        if isinstance(outer, ast.FunctionDef)
        for node in ast.walk(outer)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_exchange_to"
    ]
    assert sorted(callers) == ["_commute", "_contract", "_restore"]


def _nested_functions(fn) -> list:
    """The functions defined in `fn`'s own body, not inside a function or
    class nested in it."""
    out, todo = [], list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node)
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def test_no_nested_function_names_itself():
    # a nested function that reaches itself through the names it reads,
    # directly or through a sibling, makes a reference cycle (function,
    # cell, closure) at every call of the function around it, which only
    # the collector frees; a recursive walk recurses at module level
    found = []
    for path in SOURCES:
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested = {f.name: f for f in _nested_functions(outer)}
            reads = {
                name: {n.id for n in ast.walk(f) if isinstance(n, ast.Name)} & nested.keys()
                for name, f in nested.items()
            }
            for name in nested:
                seen, todo = set(), list(reads[name])
                while todo:
                    other = todo.pop()
                    if other not in seen:
                        seen.add(other)
                        todo.extend(reads[other])
                if name in seen:
                    found.append(f"{path.name}: {outer.name}.{name}")
    assert not found


def test_every_import_is_used():
    # a module-level import that nothing in its module reads is dead code;
    # `__future__` imports are directives, not names
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                found += [
                    f"{path.stem}.{name}"
                    for name in (a.asname or a.name.split(".")[0] for a in node.names)
                    if name not in read
                ]
    assert not found


def _methods(cls) -> dict:
    return {f.name: f for f in cls.body if isinstance(f, ast.FunctionDef)}


def _keeps_hash(fn) -> bool:
    """`fn` keeps `_hash` in its instance's `__dict__`."""
    return any(
        isinstance(n, ast.Subscript) and isinstance(n.value, ast.Attribute) and n.value.attr == "__dict__"
        and isinstance(n.slice, ast.Constant) and n.slice.value == "_hash"
        for n in ast.walk(fn)
    )


def _reduces(name, classes: dict) -> bool:
    """The class `name`, or a base of it among `classes`, defines `__reduce__`."""
    c = classes.get(name)
    return c is not None and (
        "__reduce__" in _methods(c) or any(_reduces(getattr(b, "id", None), classes) for b in c.bases)
    )


def test_a_class_that_keeps_its_hash_pickles_from_its_fields():
    # a kept hash is of strings or addresses, which hash differently in
    # each process, so no pickle or copy may carry it: a class whose
    # `__hash__` keeps it in `__dict__` defines `__reduce__`, in itself or
    # in a base
    classes = {
        node.name: node
        for path in SOURCES for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
    }
    keeping = {name for name, c in classes.items() if _keeps_hash(_methods(c).get("__hash__", ast.Pass()))}
    assert {"RepPER", "SemType", "Formula"} <= keeping
    assert not [name for name in sorted(keeping) if not _reduces(name, classes)]


def _dict_stores(node, in_hash=False):
    """The `x.__dict__[...] = ...` stores under `node`, as (line, whether
    a `__hash__` method holds it) pairs."""
    if isinstance(node, ast.FunctionDef):
        in_hash = in_hash or node.name == "__hash__"
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store) and isinstance(
        node.value, ast.Attribute
    ) and node.value.attr == "__dict__":
        yield node.lineno, in_hash
    for child in ast.iter_child_nodes(node):
        yield from _dict_stores(child, in_hash)


def test_an_answer_is_kept_on_its_object_by_cached_property():
    # what is asked of an object is kept on it by `functools.cached_property`;
    # only a kept hash is written into `__dict__` by hand
    stores = [
        (path.name, line, in_hash)
        for path in SOURCES for line, in_hash in _dict_stores(ast.parse(path.read_text()))
    ]
    assert [(name, line) for name, line, in_hash in stores if not in_hash] == []
    assert sorted({name for name, _, _ in stores}) == ["logic.py", "semtypes.py"]


def _declares_verdict(cls: ast.ClassDef) -> bool:
    """A class body that declares a `verdict` field, or code in the class
    that sets a `verdict` attribute."""
    for stmt in cls.body:
        targets = [stmt.target] if isinstance(stmt, ast.AnnAssign) else getattr(stmt, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "verdict" for t in targets):
            return True
    return any(
        isinstance(node, ast.Attribute) and node.attr == "verdict" and isinstance(node.ctx, ast.Store)
        for node in ast.walk(cls)
    )


def test_one_record_answers_every_question():
    # every question answers with `semantics.Verdict`, so no result class
    # of its own may grow back beside it
    found = [
        f"{path.name}: {node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and _declares_verdict(node)
    ]
    assert found == ["semantics.py: Verdict"]

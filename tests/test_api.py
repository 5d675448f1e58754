"""The package's import surface: private names stay in their module, every
name the package exports resolves, and so does every name the benchmark
traces. Every public method, and every function the package exports, has a
caller outside the tests, and every attribute the package stores has a
reader outside them: a load on `self` in its own class, or on another
object. Every sparse SPD form, global or on a patch, is factored only by `cembasis.BandedCholesky` (LAPACK pbtrf), the fine step's
quasi-definite block only in `timestepping.FineSolver._factorize` (SuperLU)
and a projected coarse matrix only in
`timestepping.CoarseSolver.set_space` (`PivotedCholesky`, LAPACK pstrf),
a local eigenproblem is solved only by `spectral._deflated_eigh`, and only
`assembly` takes a triangle of a sparse form."""

import ast
import importlib
import importlib.util
import os
import re
from collections import defaultdict
from types import SimpleNamespace

import cemporo

PKG = os.path.dirname(cemporo.__file__)
MODULES = sorted(f[:-3] for f in os.listdir(PKG) if f.endswith(".py"))
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")
# traced names whose code is gone; their per-layer metrics read 0
KNOWN_GONE = {"assembly.restrict"}


def _imports_from(module):
    """(line, source module, imported name) of every `from ... import`."""
    with open(os.path.join(PKG, module + ".py")) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and not source.startswith("cemporo"):
                continue  # a third-party or standard module
            for alias in node.names:
                yield node.lineno, source, alias.name


def test_no_private_names_imported_from_siblings():
    offenders = ["%s.py:%d imports %s from %s" % (m, line, name, src or ".")
                 for m in MODULES
                 for line, src, name in _imports_from(m)
                 if name.startswith("_")]
    assert not offenders, "\n".join(offenders)


def test_package_exports_resolve():
    names = [name for _, _, name in _imports_from("__init__")]
    assert names
    for name in names:
        assert hasattr(cemporo, name), name
    for module in MODULES:
        if module != "__main__":  # running it runs the command line
            importlib.import_module("cemporo." + module)


def _resolves(dotted):
    """Whether `module.Name[.attr]` names something in the package."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module("cemporo." + module)
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_perfbench_traced_names_resolve(monkeypatch):
    # a renamed function or method would silently read 0 in the per-layer
    # metrics
    monkeypatch.syspath_prepend(PERFBENCH)  # tracing imports pipeline
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    read = defaultdict(lambda: (0, 0.0, 0.0))  # every span name it reads
    tracer = SimpleNamespace(summary=lambda: read, enrichers=[], names=[],
                             counters=defaultdict(float), probe_s=0.0)
    tracing.layer_metrics(tracer, SimpleNamespace(
        space=SimpleNamespace(n_u=0, n_p=0)))
    names = {n for n in set(tracing.PROBES) | set(read)
             if n.split(".")[0] in tracing.LAYERS}
    assert "cembasis.PatchSolver.__init__" in names
    missing = {n for n in names if not _resolves(n)}
    assert missing <= KNOWN_GONE, sorted(missing - KNOWN_GONE)


def _trees(directory, skip=()):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py") and name not in skip:
            with open(os.path.join(directory, name)) as fh:
                yield ast.parse(fh.read())


def _docstrings(tree):
    """The docstring constants of a module and its classes and functions."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _referenced_outside_tests():
    """Every attribute and bare name the package (its import list aside) and
    the benchmark use, and every word inside their strings: the methods
    perfbench traces by name count as used. A docstring mention is no use."""
    referenced = set()
    for tree in (list(_trees(PKG, skip=("__init__.py",)))
                 + list(_trees(PERFBENCH))):
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docs):
                referenced.update(re.findall(r"\w+", node.value))
    return referenced


def test_public_methods_have_callers_outside_tests():
    # a method only the tests read is dead weight
    referenced = _referenced_outside_tests()
    unused = ["%s.%s" % (cls.name, fn.name)
              for tree in _trees(PKG) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef)
              and not fn.name.startswith("_") and fn.name not in referenced]
    assert not unused, unused


def test_exported_functions_have_callers_outside_tests():
    # a module-level function the package exports only for the tests
    # belongs with them
    referenced = _referenced_outside_tests()
    unused = []
    for _, module, name in _imports_from("__init__"):
        with open(os.path.join(PKG, module + ".py")) as fh:
            body = ast.parse(fh.read()).body
        if (any(isinstance(fn, ast.FunctionDef) and fn.name == name
                for fn in body) and name not in referenced):
            unused.append("%s.%s" % (module, name))
    assert not unused, unused


def _stored_attributes():
    """`Class.name` of every attribute a package class stores on `self` and
    of every dataclass field."""
    stored = set()
    for tree in _trees(PKG):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any(isinstance(d, ast.Name) and d.id == "dataclass"
                   for d in cls.decorator_list):
                stored.update((cls.name, node.target.id) for node in cls.body
                              if isinstance(node, ast.AnnAssign))
            stored.update(
                (cls.name, node.attr) for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")
    return stored


def _loaded_attributes():
    """Where each attribute is loaded: (C, name) for `self.name` inside
    package class C, and (None, name) for a load on any other object in the
    package or the benchmark's non-test files. A load is `x.name`,
    `getattr(x, "name")`, or `getattr(x, "prefix_" + family)` as both
    `prefix_u` and `prefix_p`."""
    loaded = set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef) and cls != "perfbench":
            cls = node.name
        obj, names = None, ()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            obj, names = node.value, (node.attr,)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2):
            obj, name = node.args[:2]
            if isinstance(name, ast.Constant):
                names = (name.value,)
            elif (isinstance(name, ast.BinOp)
                  and isinstance(name.left, ast.Constant)):
                names = tuple(name.left.value + f for f in ("u", "p"))
        if isinstance(obj, ast.Name) and obj.id == "self":
            # a benchmark class is no package class: its loads stay apart
            loaded.update((cls, n) for n in names)
        else:
            loaded.update((None, n) for n in names)
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for tree in _trees(PKG):
        visit(tree, None)
    for tree in _trees(PERFBENCH, skip=tuple(
            f for f in os.listdir(PERFBENCH) if f.startswith("test_"))):
        visit(tree, "perfbench")
    return loaded


def test_stored_attributes_have_readers_outside_tests():
    # state that only the tests read is dead weight, like an unused method;
    # a read of the same name on another class's `self` does not count
    loaded = _loaded_attributes()
    unread = sorted("%s.%s" % (cls, name)
                    for cls, name in _stored_attributes()
                    if not {(cls, name), (None, name)} & loaded)
    assert not unread, unread


def _calls():
    """(caller, callee) of every call in the package: the caller as
    `module.Qualified.name`, the callee as written, with an imported name at
    its head spelled out (`sp.tril` is `scipy.sparse.tril`)."""
    calls = set()

    def visit(node, module, scope, imported):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call):
            head, dot, rest = ast.unparse(node.func).partition(".")
            calls.add((".".join((module,) + scope),
                       imported.get(head, head) + dot + rest))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope, imported)

    for module in MODULES:
        with open(os.path.join(PKG, module + ".py")) as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname, a.name) for a in node.names
                                if a.asname)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.update((a.asname or a.name, node.module + "." + a.name)
                                for a in node.names)
        visit(tree, module, (), imported)
    return calls


def test_splu_factors_only_the_fine_step():
    # the fine step's quasi-definite block is the one sparse form that is
    # not SPD; an splu call elsewhere would factor an SPD form a second way
    callers = {caller for caller, callee in _calls()
               if callee.rpartition(".")[2] == "splu"}
    assert callers == {"timestepping.FineSolver._factorize"}


def test_band_factors_go_through_banded_cholesky():
    # every sparse SPD form, global or on a patch, is banded; one owner of
    # pbtrf keeps its failure check in one place
    callers = {caller for caller, callee in _calls()
               if callee.rpartition(".")[2] == "dpbtrf"}
    assert callers == {"cembasis.BandedCholesky.__init__"}


def test_coarse_factors_go_through_set_space():
    # the coarse solver factors each projected matrix once per space, and
    # the initial state and the online filter read those factors; a factor
    # built elsewhere would repeat that work for every call
    callers = {caller for caller, callee in _calls()
               if callee.rpartition(".")[2] == "PivotedCholesky"}
    assert callers == {"timestepping.CoarseSolver.set_space"}


def test_eigensolves_go_through_deflated_eigh():
    # the local kernels are deflated exactly and only the kept vectors are
    # computed in one place; a second eigh would do neither
    callers = {caller for caller, callee in _calls()
               if callee.rpartition(".")[2] == "eigh"}
    assert callers == {"spectral._deflated_eigh"}


def test_forms_are_symmetrized_only_in_assembly():
    # assembly hands out every square form exactly symmetric; a triangle of
    # a sparse form taken anywhere else would symmetrize one a second time
    callers = {caller for caller, callee in _calls()
               if callee in ("scipy.sparse.tril", "scipy.sparse.triu")}
    assert {caller.split(".")[0] for caller in callers} == {"assembly"}, \
        sorted(callers)

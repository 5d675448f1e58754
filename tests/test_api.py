"""The package's import surface: private names stay in their module, every
name the package exports resolves, and so does every name the benchmark
traces. Every public method, and every function the package exports, has a
caller outside the tests, and every attribute the package stores has a
reader outside them: a load on `self` in its own class, or on another
object. Every sparse SPD form, global or on a patch, is factored only by `cembasis.BandedCholesky` (LAPACK pbtrf), the fine step's
quasi-definite block only in `timestepping.FineSolver._factorize` (SuperLU,
in the order `timestepping._dissection` gives it) and a projected coarse
matrix only in `timestepping.CoarseSolver.set_space` (`PivotedCholesky`,
LAPACK pstrf), only `CoarseSolver` reads those factors or appends to a space,
a local eigenproblem is solved only by `spectral._deflated_eigh`, only
`assembly` takes a triangle of a sparse form or hands a sparse constructor
(data, (rows, cols)) triplets, and only `assembly`, which
builds them, and `timestepping`, which states the step, read the step's
mass and coupling forms, and only `assembly` and `spectral` read a spectral
weight form. No module of the package or
the tests imports a name it never uses. README's library quick start runs
as written, on a smaller mesh, and its configuration block lists the
defaults the program uses."""

import ast
import importlib
import importlib.util
import json
import os
import re
from collections import defaultdict
from types import SimpleNamespace

import cemporo
from cemporo import cli

PKG = os.path.dirname(cemporo.__file__)
MODULES = sorted(f[:-3] for f in os.listdir(PKG) if f.endswith(".py"))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
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
    """(caller, callee, call node) of every call in the package: the caller
    as `module.Qualified.name`, the callee as written, with an imported name
    at its head spelled out (`sp.tril` is `scipy.sparse.tril`)."""
    calls = set()

    def visit(node, module, scope, imported):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        elif isinstance(node, ast.Call):
            head, dot, rest = ast.unparse(node.func).partition(".")
            calls.add((".".join((module,) + scope),
                       imported.get(head, head) + dot + rest, node))
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
    callers = {caller for caller, callee, _ in _calls()
               if callee.rpartition(".")[2] == "splu"}
    assert callers == {"timestepping.FineSolver._factorize"}


def test_fine_step_order_has_one_owner():
    # the fine block comes to SuperLU already in `_dissection` order; an
    # ordering of SuperLU's own would order it a second way
    specs = [ast.unparse(kw.value) for _, callee, node in _calls()
             if callee.rpartition(".")[2] == "splu"
             for kw in node.keywords if kw.arg == "permc_spec"]
    assert specs == ["'NATURAL'"]


def test_band_factors_go_through_banded_cholesky():
    # every sparse SPD form, global or on a patch, is banded; one owner of
    # pbtrf keeps its failure check in one place
    callers = {caller for caller, callee, _ in _calls()
               if callee.rpartition(".")[2] == "dpbtrf"}
    assert callers == {"cembasis.BandedCholesky.__init__"}


def test_coarse_factors_go_through_set_space():
    # the coarse solver factors each projected matrix once per space, and
    # the initial state and the online filter read those factors; a factor
    # built elsewhere would repeat that work for every call
    callers = {caller for caller, callee, _ in _calls()
               if callee.rpartition(".")[2] == "PivotedCholesky"}
    assert callers == {"timestepping.CoarseSolver.set_space"}


def _module_trees():
    for module in MODULES:
        with open(os.path.join(PKG, module + ".py")) as fh:
            yield module, ast.parse(fh.read())


def test_only_the_coarse_solver_grows_a_space():
    # the near-dependence filter reads the coarse factors, and a grown space
    # is re-projected from the projections the solver holds: both stay in
    # CoarseSolver, which owns its space. The package calls a space `space`
    # wherever it holds one.
    factor_reads = sorted(
        "%s.py:%d" % (module, node.lineno)
        for module, tree in _module_trees() if module != "timestepping"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in ("L", "pivots", "factor_u", "factor_p"))
        or (isinstance(node, ast.Constant) and node.value == "factor_"))
    assert not factor_reads, factor_reads
    appenders = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "append"
              and ast.unparse(node.func.value).endswith("space")):
            appenders.add(".".join(scope[:2]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for module, tree in _module_trees():
        visit(tree, (module,))
    assert appenders == {"timestepping.CoarseSolver"}, appenders


def test_only_timestepping_states_the_step():
    # the mass and coupling forms enter only the step and its residuals;
    # read anywhere else, they would state the step's equation a second time
    forms = ("mass_p", "mass_p_full", "coupling")
    reads = sorted(
        "%s.py:%d" % (module, node.lineno)
        for module, tree in _module_trees()
        if module not in ("assembly", "timestepping")
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in forms)
        or (isinstance(node, ast.Constant) and node.value in forms))
    assert not reads, reads


def test_only_the_spectral_stage_reads_a_weight_form():
    # CEM states the constraint from each cell's own weight: `assembly`
    # forms it over one cell's fine cells and `spectral` applies it to that
    # cell's eigenfunctions. A weight form read anywhere else would state
    # the constraint a second time
    forms = ("aux_u", "aux_p", "aux_")
    reads = sorted(
        "%s.py:%d" % (module, node.lineno)
        for module, tree in _module_trees()
        if module not in ("assembly", "spectral")
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr in forms)
        or (isinstance(node, ast.Constant) and node.value in forms))
    assert not reads, reads


def test_eigensolves_go_through_deflated_eigh():
    # the local kernels are deflated exactly and only the kept vectors are
    # computed in one place; a second eigh would do neither
    callers = {caller for caller, callee, _ in _calls()
               if callee.rpartition(".")[2] == "eigh"}
    assert callers == {"spectral._deflated_eigh"}


def test_forms_are_symmetrized_only_in_assembly():
    # assembly hands out every square form exactly symmetric; a triangle of
    # a sparse form taken anywhere else would symmetrize one a second time
    callers = {caller for caller, callee, _ in _calls()
               if callee in ("scipy.sparse.tril", "scipy.sparse.triu")}
    assert {caller.split(".")[0] for caller in callers} == {"assembly"}, \
        sorted(callers)


def test_only_assembly_places_triplets():
    # `DofMap.columns` places dense blocks into a family's sparse matrix and
    # `OperatorSet` sums element matrices; a (data, (rows, cols)) tuple
    # handed to a sparse constructor anywhere else is a second scatter
    places = {(caller.split(".")[0], node.lineno)
              for caller, callee, node in _calls()
              if callee.startswith("scipy.sparse.") and node.args
              and isinstance(node.args[0], ast.Tuple)
              and len(node.args[0].elts) == 2
              and isinstance(node.args[0].elts[1], ast.Tuple)}
    assert any(module == "assembly" for module, _ in places)
    outside = sorted("%s.py:%d" % p for p in places if p[0] != "assembly")
    assert not outside, outside


def _unused_imports(path):
    """(line, name) of every name the module at `path` imports and never
    reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_every_imported_name_is_used():
    # no linter runs on the repository, and an import nothing reads is dead
    # weight; the package's `__init__` imports are its exports
    unused = ["%s:%d %s" % (os.path.relpath(path, ROOT), line, name)
              for directory in (PKG, os.path.join(ROOT, "tests"))
              for path in sorted(os.path.join(directory, f)
                                 for f in os.listdir(directory)
                                 if f.endswith(".py") and f != "__init__.py")
              for line, name in _unused_imports(path)]
    assert not unused, unused


def test_readme_quick_start_runs():
    # a signature change that breaks the documented example fails here; the
    # 3x3 mesh of refinement 3 keeps it to a second
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    full = "cp.build_grids(10, 10, 10)"
    assert full in code
    scope = {}
    exec(compile(code.replace(full, "cp.build_grids(3, 3, 3)"), "README.md",
                 "exec"), scope)
    assert scope["ops"].grid.n_fine_cells == 81
    assert 0.0 < scope["err_u"] < 1.0 and 0.0 < scope["err_p"] < 1.0


def test_readme_configuration_block_is_the_defaults():
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Configuration", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert json.loads(block) == cli._DEFAULTS

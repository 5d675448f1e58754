"""The package's import surface: private names stay in their module, and
every name the package exports resolves."""

import ast
import importlib
import os

import cemporo

PKG = os.path.dirname(cemporo.__file__)
MODULES = sorted(f[:-3] for f in os.listdir(PKG) if f.endswith(".py"))


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

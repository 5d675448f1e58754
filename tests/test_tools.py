"""The line counter `tools/code_lines.py`, which design changes quote."""

import importlib.util
import os
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _count(module, source):
    return module.code_lines(textwrap.dedent(source))


def test_docstrings_comments_and_blank_lines_do_not_count(code_lines):
    source = '''
        """Module docstring,
        on two lines."""

        # a comment


        class A:
            """Class docstring."""

            def f(self):
                """Function
                docstring."""
                # another comment
                return 1
        '''
    assert _count(code_lines, source) == 3  # class, def, return


def test_a_code_line_with_a_trailing_comment_counts_once(code_lines):
    assert _count(code_lines, "x = 1  # one\ny = 2\n") == 2


def test_a_string_that_is_not_a_docstring_counts_every_line(code_lines):
    source = '''
        def f():
            x = 1
            return """a
            b
            c"""
        '''
    # def, x, and the three lines of the returned string
    assert _count(code_lines, source) == 5
    assert _count(code_lines, 'x = 1\n"""not a\ndocstring\nhere"""\n') == 4


def test_main_prints_each_file_and_the_total(code_lines, tmp_path, capsys):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n')
    (pkg / "sub" / "b.py").write_text("# comment\nz = 3\n")
    (pkg / "notes.txt").write_text("w = 4\n")
    assert code_lines.main([str(pkg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", str(pkg / "a.py")], ["1", str(pkg / "sub" / "b.py")],
        ["3", "total"]]

"""Count the code lines of Python files: lines that hold a code token.

Docstrings, comments and blank lines do not count; a line that holds code
and a comment does. A string that is not a docstring counts on every line
it spans.

    python3 tools/code_lines.py            # every .py file under src/
    python3 tools/code_lines.py src tests  # files or directories

Prints one line per file, `<code lines>  <path>`, and the total last.
Uses the standard library only.
"""

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """(line, column) where each module, class and function docstring
    starts."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source):
    """The number of lines of `source` that hold a code token."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths):
    """The .py files named by `paths`, directories searched recursively."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    total = 0
    for path in python_files(paths):
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        total += count
        print("%6d  %s" % (count, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the line count of the library under ``src/``, twice.

    python3 tools/src_lines.py [ROOT]

The first count is every line of every ``.py`` file.  The second leaves
out docstrings, comments and blank lines: a line counts as code when
``tokenize`` finds a token on it other than a comment or a line break,
and ``ast`` does not place it inside a module, class or function
docstring.  ``ROOT`` defaults to the ``src/`` beside this directory.
"""

import ast
import os
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers covered by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(all lines, code lines) of one source file."""
    with open(path, "rb") as f:
        source = f.read()
    code = set()
    with open(path, "rb") as f:
        for token in tokenize.tokenize(f.readline):
            if token.type not in LAYOUT:
                code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.decode("utf-8").splitlines()), len(code)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    total = code = 0
    for folder, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py"):
                lines, code_lines = count(os.path.join(folder, name))
                total += lines
                code += code_lines
    print(f"src lines: {total} total, "
          f"{code} without docstrings, comments and blank lines")


if __name__ == "__main__":
    main(sys.argv)

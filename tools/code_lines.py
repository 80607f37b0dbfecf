"""Count code lines per module of a Python source tree.

    python tools/code_lines.py SRC

A code line is a non-blank line that is neither comment-only nor part of a
docstring (the string that opens a module, class or function body).  Comments
are found with ``tokenize`` and docstrings with ``ast``, so a ``#`` inside a
string does not count as a comment.  Prints one line per ``*.py`` file under
SRC, relative to SRC and sorted, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Non-blank lines of ``text`` that hold a token other than a comment,
    outside every docstring."""
    skip = docstring_lines(ast.parse(text))
    code = set()
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in ignored:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main(src: str):
    root = Path(src)
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])

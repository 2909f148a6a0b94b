"""Count the code lines of the package's modules.

    python bench/sloc.py [DIRECTORY]

A code line holds at least one token that is not a comment, and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstrings are left out, since removing them
does not make the code any smaller.  DIRECTORY defaults to src/rwcosmo next
to this script.  Prints one JSON object: ``files``, each module's count by
file name, and ``total``, their sum.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in the Python ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(directory: Path) -> dict:
    files = {path.name: code_lines(path.read_text())
             for path in sorted(directory.glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parents[1] / "src" / "rwcosmo"
    print(json.dumps(main(root), indent=2))

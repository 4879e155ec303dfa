"""Count the code, docstring, comment and blank lines of each module of a package.

Every line falls in one class.  A docstring is the first statement of a
module, class or function when it is a string, and all its lines count
as docstring, its blank ones included.  Outside docstrings, a line with
nothing but whitespace is blank, a line with nothing but a comment is a
comment, and any other line is code.

    python scripts/src_size.py [DIR]

DIR defaults to ``src/dgossip`` beside this script.  One row per ``.py``
file under DIR, sorted by path, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
DEFAULT_DIR = Path(__file__).resolve().parents[1] / "src" / "dgossip"


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers (from 1) of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """{kind: lines} of one module's source."""
    docs = docstring_lines(ast.parse(source))
    comment_only, code = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment_only.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docs:
            kind = "docstring"
        elif number in code:
            kind = "code"
        elif number in comment_only:
            kind = "comment"
        else:
            kind = "blank"
        counts[kind] += 1
    return counts


def table(root: Path) -> list[tuple[str, dict[str, int]]]:
    """(module path relative to ``root``, counts) per ``.py`` file, then ("total", sums)."""
    paths = sorted(root.rglob("*.py"))
    rows = [(str(path.relative_to(root)), count(path.read_text(encoding="utf-8"))) for path in paths]
    total = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    return rows + [("total", total)]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=DEFAULT_DIR)
    args = parser.parse_args(argv)
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, counts in table(args.dir):
        print(f"{name:<16}{sum(counts.values()):>7}" + "".join(f"{counts[kind]:>11}" for kind in KINDS))


if __name__ == "__main__":
    main()

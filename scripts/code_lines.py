"""Code lines of each Python module, without docstrings, comments and
blank lines, as JSON.

    python scripts/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them (default:
src/safefilt of the checkout that holds this script). A line counts
where tokenize finds a token on it other than a comment, a newline, an
indent or a dedent, and the ast does not place it inside a docstring:
the leading string constant of a module, class or function body. A
statement spread over several lines counts each line it spans that
holds a token. The output maps each module, relative to the current
directory, to its count, and "total" to their sum.
"""

import ast
import io
import json
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths):
    """The .py files named by paths, directories searched, sorted."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                for name in sorted(files):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def main(argv):
    paths = argv or [os.path.join(ROOT, "src", "safefilt")]
    counts = {}
    for path in modules(paths):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.relpath(path)] = code_lines(fh.read())
    counts["total"] = sum(counts.values())
    json.dump(counts, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])

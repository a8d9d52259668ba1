"""Every function, class and method of the library is reached from the
library itself, the scripts or the benchmark, not only from the tests.

A definition counts as reached when its name occurs as an identifier in
``src/``, ``scripts/`` or ``perfbench/`` more often than it is defined
there.  Under ``perfbench/``, which wraps library functions by name, a
string literal that is exactly one identifier counts as an occurrence too;
elsewhere a string such as a CLI choice does not.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rootseq"
SEARCHED = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]
BY_NAME = ROOT / "perfbench"  # where a string literal names a definition


def _definitions():
    """(name, "module:line") of every non-dunder def and class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield name, f"{path.name}:{node.lineno}"


def _identifier_counts():
    counts = Counter()
    for base in SEARCHED:
        for path in base.rglob("*.py"):
            src = path.read_text()
            for tok in tokenize.generate_tokens(io.StringIO(src).readline):
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
                elif tok.type == tokenize.STRING and base == BY_NAME:
                    text = tok.string.strip("'\"")
                    if text.isidentifier():
                        counts[text] += 1
    return counts


def test_every_definition_is_reached():
    defs = list(_definitions())
    n_defs = Counter(name for name, _ in defs)
    counts = _identifier_counts()
    # each definition contributes one identifier ("def name" / "class name")
    unreached = sorted(
        f"{name} ({where})"
        for name, where in defs
        if counts[name] <= n_defs[name]
    )
    assert not unreached, "reached only from the tests: " + ", ".join(unreached)

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
import re
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


def _names(src: str, by_name: bool = False):
    """The identifiers of a source text, one per occurrence: its NAME tokens,
    with by_name every string literal that is exactly one identifier, and
    the identifiers of the replacement fields of its f-strings.  Before
    Python 3.12 an f-string is one STRING token, so its fields are parsed
    and tokenized here; from 3.12 on, tokenize yields their NAME tokens
    itself."""
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.NAME:
            yield tok.string
        elif tok.type == tokenize.STRING:
            text = tok.string.strip("'\"")
            if by_name and text.isidentifier():
                yield text
            if "f" in re.match(r"[a-zA-Z]*", tok.string).group().lower():
                for field in _fields(ast.parse(tok.string, mode="eval").body):
                    yield from _names(ast.unparse(field))


def _fields(joined: ast.JoinedStr):
    """The expressions of the replacement fields of an f-string, those of
    its format specs included, each once."""
    for value in joined.values:
        if isinstance(value, ast.FormattedValue):
            yield value.value
            if value.format_spec is not None:
                yield from _fields(value.format_spec)


def _identifier_counts():
    counts = Counter()
    for base in SEARCHED:
        for path in base.rglob("*.py"):
            counts.update(_names(path.read_text(), by_name=base == BY_NAME))
    return counts


def test_a_name_used_only_in_an_f_string_is_counted():
    """A call inside an f-string's replacement field reaches its name, as
    ``rootseq arq show`` once reached ``ARQuiver.coordinate``; nested
    f-strings and format specs are counted once, and plain strings are
    not read outside ``perfbench/``."""
    src = (
        'line = f"{fmt(r)}@{arq.coordinate(r)[1]}"\n'
        'cell = f"{f\'{inner(x)}\'!r:>{width(y)}}"\n'
        'choice = "outside"\n'
    )
    counts = Counter(_names(src))
    assert counts["coordinate"] == counts["fmt"] == 1 and counts["r"] == 2
    assert counts["inner"] == counts["width"] == 1
    assert counts["outside"] == 0
    assert Counter(_names(src, by_name=True))["outside"] == 1


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

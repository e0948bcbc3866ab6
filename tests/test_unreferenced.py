"""Every function and class of the package is used somewhere.

The `.py` files under src/tokenslide, tests and clibench are tokenized.
A function or class defined in src/tokenslide counts as used when its
name occurs as a NAME token more often than it is defined (each `def`
or `class` line holds one occurrence), or when a string literal equals
it: the benchmark's tracer names the functions it wraps by string.
Dunder methods are called by Python itself and are not checked.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tokenslide"
SCANNED = (PACKAGE, ROOT / "tests", ROOT / "clibench")


def _tokens(path):
    return list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))


def _definitions(tokens):
    """Names that follow `def` or `class`."""
    return [b.string for a, b in zip(tokens, tokens[1:])
            if a.type == tokenize.NAME and a.string in ("def", "class")]


def _string_value(token):
    try:
        return ast.literal_eval(token.string)
    except (SyntaxError, ValueError):
        return None  # an f-string


def unreferenced():
    defined, names, strings = Counter(), Counter(), set()
    for root in SCANNED:
        for path in sorted(root.rglob("*.py")):
            tokens = _tokens(path)
            if root == PACKAGE:
                defined.update(_definitions(tokens))
            for tok in tokens:
                if tok.type == tokenize.NAME:
                    names[tok.string] += 1
                elif tok.type == tokenize.STRING:
                    strings.add(_string_value(tok))
    return sorted(name for name, count in defined.items()
                  if not (name.startswith("__") and name.endswith("__"))
                  and names[name] <= count and name not in strings)


def test_every_definition_is_referenced():
    assert unreferenced() == []

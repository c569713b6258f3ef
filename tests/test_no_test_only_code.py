"""Every function, class and method in ``src/repro`` has a caller outside
the tests.

A name counts as used when it appears, as a Python name or as a quoted
attribute name (``getattr``/patch style), somewhere in ``src/``,
``jobs/``, ``perfbench/`` or the root ``conftest.py`` more often than it
is defined there. Code that only tests call is dead
weight for the reproduction.
"""
import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, defs):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                f.name for f in node.body
                if isinstance(f, defs[:2])
                and not (f.name.startswith("__") and f.name.endswith("__"))
            ]
    return names


def _name_counts(paths) -> Counter:
    counts: Counter = Counter()
    for path in paths:
        for tok in tokenize.generate_tokens(
            io.StringIO(path.read_text()).readline
        ):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
            elif tok.type == tokenize.STRING and tok.string[:1] in "'\"":
                counts[tok.string.strip("'\"")] += 1
    return counts


def test_no_code_only_tests_call():
    src = sorted((ROOT / "src" / "repro").rglob("*.py"))
    defined = Counter(name for p in src for name in _definitions(p))
    users = [p for d in ("src", "jobs", "perfbench")
             for p in (ROOT / d).rglob("*.py")] + [ROOT / "conftest.py"]
    counts = _name_counts(users)
    unused = {name for name, n in defined.items() if counts[name] <= n}
    assert unused == set()

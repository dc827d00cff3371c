"""Guard: no code in ``src/repro`` is reached only by its tests.

The scan parses every module of the package and lists its top-level
functions and classes. A name counts as used when the program refers to
it: anywhere in ``src/`` outside its own definition, or in ``scripts/``,
``examples/`` or ``bench/`` — as a name, an attribute, an imported name or
an identifier inside a string (``"module:attr"`` registries). A name the
program never refers to, but tests do, is a test double or a code path
the system never takes, and the test fails on it unless ``ALLOWED`` says
why it stays. Names in ``repro.__all__`` are public API and exempt.
"""

import ast
import functools
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]
PROGRAM_DIRS = ("scripts", "examples", "bench")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Test-only names that stay for now, each with the reason.
ALLOWED = {
    "ScriptedControlPlane": "test double for control-plane failures; "
                            "belongs in tests/helpers.py",
    "apply_stages": "stage-by-stage reference the compile tests check "
                    "apply_plan and the executor against",
    "format_path": "path renderer kept beside format_link, which the "
                   "kernel's error messages use",
    "k_shortest_paths": "networkx k-shortest search; the lazy-networkx "
                        "test checks it still loads networkx on demand",
    "path_hops": "hop count the k-shortest ordering test reads",
    "replayed_stream": "replays a batch queue through the service, for "
                       "the streaming-equals-batch tests",
}


def _definitions() -> dict[str, list[tuple[Path, int, int]]]:
    """Top-level function and class names of ``src/repro`` → where each is
    defined (file, first line, last line)."""
    found: dict[str, list[tuple[Path, int, int]]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) \
                    and not node.name.startswith("__"):
                found.setdefault(node.name, []).append(
                    (path, node.lineno, node.end_lineno))
    return found


def _references(path: Path):
    """``(name, line)`` of every name ``path`` refers to."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for token in IDENTIFIER.findall(node.value):
                yield token, node.lineno


def _referenced(dirs, definitions=None) -> set[str]:
    """Names referred to from ``dirs`` (this file, which names the allowed
    ones, excepted); with ``definitions``, a reference inside the
    referenced name's own definition does not count."""
    names = set()
    for directory in dirs:
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            for name, line in _references(path):
                if definitions and any(
                        path == where and first <= line <= last
                        for where, first, last in definitions.get(name, ())):
                    continue
                names.add(name)
    return names


@functools.cache
def _test_only() -> frozenset[str]:
    definitions = _definitions()
    program = (_referenced(["src"], definitions)
               | _referenced(PROGRAM_DIRS))
    tested = _referenced(["tests"])
    return frozenset(name for name in definitions
                     if name not in program and name in tested
                     and name not in repro.__all__)


def test_no_code_is_reached_only_by_tests():
    unexplained = sorted(_test_only() - ALLOWED.keys())
    assert not unexplained, (
        f"only tests refer to {unexplained}: move a test double into "
        f"tests/, delete code the program never calls, or add the name to "
        f"ALLOWED with the reason it stays")


def test_allowlist_has_no_stale_entries():
    stale = sorted(ALLOWED.keys() - _test_only())
    assert not stale, f"ALLOWED names no longer test-only: {stale}"

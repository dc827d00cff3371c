"""Guard: no code in ``src/repro`` is reached only by its tests.

The scan parses every module of the package and lists its top-level
functions and classes and the public methods of those classes. A name
counts as used when the program refers to it: anywhere in ``src/``
outside its own definition, or in ``scripts/``, ``examples/`` or
``bench/`` — as a name, an attribute, an imported name or an identifier
inside a string (``"module:attr"`` registries). A docstring is prose, not
a reference. A name the program never refers to, but tests do, is a test
double or a code path the system never takes, and the test fails on it
unless ``ALLOWED`` says why it stays. Names in ``repro.__all__`` are
public API and exempt.
"""

import ast
import functools
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]
PROGRAM_DIRS = ("scripts", "examples", "bench")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Test-only names that stay for now, each with the reason. The public
#: methods among them are candidates for deletion, one by one.
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
    # Public methods and properties.
    "ReliableControlPlane": "explicit spelling of the default control "
                            "plane (None)",
    "active_failures": "failure-injector query the failure tests read",
    "cancelled": "EventHandle state the engine tests read",
    "describe": "one-line rendering of a plan step for debugging",
    "exporter": "the service's counter exporter, for embedding callers",
    "getrandbits": "called by random.Random's own choice/randrange, "
                   "which no name scan sees",
    "has_edge": "networkx-compatible graph query the topology tests read",
    "heal_all": "failure-injector reset the failure tests use",
    "hit_rate": "probe-cache hit ratio the cache tests read",
    "in_state": "lifecycle query the lifecycle and audit tests read",
    "is_active": "failure-injector query the failure tests read",
    "knows": "lifecycle membership query",
    "link_rows": "templated pair's link indices, which the respawn "
                 "reference reads",
    "link_version": "string-keyed version read; the program reads "
                    "link_version_idx",
    "max_utilization": "utilization summary the network tests read",
    "number_of_edges": "networkx-compatible graph size",
    "pending_tags": "pending-callback listing for stall diagnostics",
    "processed": "count of engine events executed",
    "rules_free": "rule-table headroom the rule tests read",
    "save_model": "writes the learned model out for offline reuse",
    "schedule_after": "relative-time form of schedule_at",
    "total_capacity": "network summary the network tests read",
    "total_used": "network summary the network and scenario tests read",
    "transition_count": "lifecycle counter the lifecycle tests read",
    "warm": "pre-builds a provider's candidate cache for known pairs",
    "with_": "Scenario copy with fields replaced",
}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions() -> dict[str, list[tuple[Path, int, int]]]:
    """Top-level function and class names of ``src/repro``, and the public
    methods of those classes → where each is defined (file, first line,
    last line)."""
    found: dict[str, list[tuple[Path, int, int]]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFINITIONS) \
                    or node.name.startswith("__"):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [member for member in node.body
                            if isinstance(member, _DEFINITIONS[:2])
                            and not member.name.startswith("_")]
            for member in members:
                found.setdefault(member.name, []).append(
                    (path, member.lineno, member.end_lineno))
    return found


def _docstrings(tree: ast.AST) -> set[int]:
    """``id()`` of every docstring node in ``tree``."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *_DEFINITIONS)) and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _references(path: Path):
    """``(name, line)`` of every name ``path`` refers to."""
    tree = ast.parse(path.read_text())
    prose = _docstrings(tree)
    for node in ast.walk(tree):
        if id(node) in prose:
            continue
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

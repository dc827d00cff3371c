"""Cheap cell functions for exercising the experiment runner.

Workers resolve cells by ``"module:function"`` reference, so these live in
an importable module (tests put this directory on ``sys.path``; forked
workers inherit it) instead of inline in the test files.
"""

from __future__ import annotations

import os


def echo(value):
    """Return the input — the identity cell."""
    return {"value": value, "pid": os.getpid()}


def boom(message: str = "kaboom"):
    """Always fail."""
    raise RuntimeError(message)


def bail(code: int):
    """Raise SystemExit, as a cell calling ``sys.exit`` would."""
    raise SystemExit(code)


def die(code: int):
    """Exit the worker process without reporting a result."""
    os._exit(code)


def touch(path: str):
    """Create ``path`` as evidence that the cell ran; return it."""
    with open(path, "w"):
        pass
    return path


def record_pid():
    """Report which process ran the cell."""
    return os.getpid()

"""Small filesystem and artifact-identity utilities shared across the
library.

Result artifacts (trace logs, experiment JSON, service checkpoints) are
what resume logic and downstream tooling trust, so they must never be
observable half-written. :func:`atomic_write_text` provides the standard
write-to-temp-then-rename pattern: a crash or interrupt mid-write leaves
either the previous content or the complete new content, never a
truncated file. :func:`replace_text` is the same rename without the
fsyncs, for files no resume reads (live snapshots, the heartbeat).
:func:`payload_fingerprint` is the shared content hash those artifacts
embed so loaders can reject entries written by a differently-parameterized
producer.
"""

from __future__ import annotations

import json
import os
import random
from hashlib import sha256
from pathlib import Path
from typing import Any


def _canonical_json(payload: Any) -> str:
    """The one encoding fingerprints are taken over: sorted keys, ``str()``
    for stray non-JSON leaves."""
    return json.dumps(payload, sort_keys=True, default=str)


def _digest(blob: str, length: int = 16) -> str:
    if length < 4 or length > 64:
        raise ValueError(f"fingerprint length must be in [4, 64], "
                         f"got {length}")
    return sha256(blob.encode("utf-8")).hexdigest()[:length]


def payload_fingerprint(payload: Any, length: int = 16) -> str:
    """Stable short hash of a JSON-serializable ``payload``.

    Canonicalizes with sorted keys (and ``str()`` for stray non-JSON
    leaves), so the fingerprint depends only on content, not dict insertion
    order. The service's snapshot and checkpoint loaders use it to verify
    what :func:`fingerprinted_json` wrote.
    """
    return _digest(_canonical_json(payload), length)


def fingerprinted_json(payload: dict[str, Any]) -> str:
    """``payload`` as one JSON object carrying its own fingerprint.

    The payload is encoded once; the ``"fingerprint"`` member appended to
    that text is the hash of the very bytes it is appended to, and equals
    ``payload_fingerprint(payload)``. A reader verifies by parsing, popping
    ``"fingerprint"`` and fingerprinting the rest.
    """
    if not payload or "fingerprint" in payload:
        raise ValueError("fingerprinted_json needs a non-empty payload "
                         "without a 'fingerprint' member")
    blob = _canonical_json(payload)
    return f'{blob[:-1]}, "fingerprint": "{_digest(blob)}"}}'


def rng_state_payload(rng: random.Random) -> list:
    """JSON-ready encoding of a ``random.Random`` state.

    ``getstate()`` returns ``(version, tuple_of_ints, gauss_next)``; JSON
    has no tuples, so the shape is normalized to nested lists. Exact
    round-trip: ints are ints and ``gauss_next`` (a float or None) survives
    JSON's repr-based float encoding bit-for-bit.
    """
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


def set_rng_state(rng: random.Random, payload: list) -> None:
    """Restore a ``random.Random`` from :func:`rng_state_payload` output."""
    version, internal, gauss_next = payload
    rng.setstate((version, tuple(internal), gauss_next))


def fsync_dir(path: str | Path) -> None:
    """fsync a directory so a just-renamed/created entry survives a crash.

    ``os.replace`` makes the rename atomic but not durable: until the
    directory inode itself is flushed, a power loss can roll the directory
    back to a state without the new name. Platforms whose directories cannot
    be opened (or fsynced) are tolerated silently — the rename is still
    atomic there, just not crash-durable.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str,
                      encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically and durably.

    The content goes to a temporary sibling file (same directory, so the
    final ``os.replace`` stays on one filesystem), is flushed and fsynced,
    and then renamed over the target; the parent directory is fsynced after
    the rename so a crash immediately afterwards cannot lose the entry.
    Readers concurrent with the write see the old content until the rename
    lands.
    """
    _replace(Path(path), text, encoding, durable=True)


def replace_text(path: str | Path, text: str,
                 encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically, without fsync.

    For files nothing reads back after a crash (live metric snapshots, the
    supervisor heartbeat): readers never see a torn file, but power loss
    may leave the previous content, or none.
    """
    _replace(Path(path), text, encoding, durable=False)


def _replace(target: Path, text: str, encoding: str,
             durable: bool) -> None:
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    renamed = False
    try:
        with open(tmp, "w", encoding=encoding) as handle:
            handle.write(text)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
        renamed = True
        if durable:
            fsync_dir(target.parent)
    finally:
        # Only the failure path may unlink: after a successful rename the
        # tmp name is gone, and a third party recreating it (or a racing
        # writer) must not have its file swept by our cleanup.
        if not renamed:
            tmp.unlink(missing_ok=True)

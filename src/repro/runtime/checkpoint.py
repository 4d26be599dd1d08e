"""Content-addressed on-disk checkpoint store for prepared corpora.

The first concrete step of the ROADMAP's persistent prepared-corpus store:
each completed trace's preparation artifacts (the Setting-A session log
as its float and int column matrices, plus the baseline and posterior
draws) are written to one ``.npz`` file whose name is
a fingerprint of everything the artifacts depend on — the ground-truth
trace, the Setting-A design, the abduction model and the per-trace seed —
so a restarted ``prepare_corpus(checkpoint_dir=...)`` reloads finished
traces byte for byte and re-does **zero** deployment/abduction work, and
an incremental corpus ingest only prepares the genuinely new traces.

The store itself is deliberately dumb: fingerprint → dict of numpy
arrays.  Writes are atomic (tmp file + ``os.replace``) so a crash mid-save
never leaves a truncated entry, and unreadable/corrupted entries are
treated as absent rather than fatal — a damaged cache costs recomputation,
never correctness.
"""

from __future__ import annotations

import hashlib
import io
import os
from pathlib import Path

import numpy as np

__all__ = ["CheckpointStore", "fingerprint"]

_FORMAT_VERSION = "2"
"""Bump to invalidate every existing checkpoint on disk.

Part of every fingerprint, so an entry of another version is a miss:
recomputed once under the new key, never misread.  Version 2 stores the
session log as column matrices instead of a JSON string."""


def fingerprint(parts) -> str:
    """A stable sha256 hex digest over heterogeneous ``parts``.

    Accepts strings, bytes, ints, floats and numpy arrays; floats hash
    their exact IEEE bits (via ``repr`` round-tripping) so two configs
    collide only when they are value-identical.
    """
    digest = hashlib.sha256()
    digest.update(_FORMAT_VERSION.encode())
    for part in parts:
        digest.update(b"\x00")
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            digest.update(str(arr.dtype).encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        elif isinstance(part, bytes):
            digest.update(part)
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


class CheckpointStore:
    """A directory of content-addressed ``.npz`` payloads."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.directory / f"trace-{key}.npz"

    def load(self, key: str) -> dict | None:
        """The stored arrays for ``key``, or ``None`` if absent/corrupt."""
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                return {name: data[name] for name in data.files}
        except FileNotFoundError:
            return None
        except Exception:
            # A truncated or garbled entry (e.g. a crash before the atomic
            # rename landed on a non-POSIX filesystem): recompute it.
            return None

    def save(self, key: str, arrays: dict) -> Path:
        """Atomically persist ``arrays`` under ``key``; returns the path."""
        path = self.path_for(key)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(buffer.getvalue())
        os.replace(tmp, path)
        return path

    def keys(self) -> list[str]:
        """Every fingerprint currently stored (sorted, for stable output)."""
        return sorted(
            p.name[len("trace-") : -len(".npz")]
            for p in self.directory.glob("trace-*.npz")
        )

    def __len__(self) -> int:
        return len(self.keys())

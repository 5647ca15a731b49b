"""Pluggable byte-level backends for result-store shards.

The :class:`~repro.store.store.ResultStore` separates *what* it stores
(envelope lines addressed by :class:`~repro.store.keys.StoreKey`, indexed
in a local sqlite file) from *where* the shard bytes live.  A
:class:`StoreBackend` is the latter: a tiny append/read/replace interface
over named shard files, in the spirit of the pluggable ``S3Client``-style
trace backends of storage-research harnesses — the local filesystem
backend is the default, and another backend slots in behind the same
six methods as a :class:`StoreBackend` instance passed to the store.

Append atomicity contract: :meth:`StoreBackend.append_line` must make the
whole line visible atomically — concurrent writers may interleave *lines*
but never *bytes within a line*.  The local backend gets this from a
single ``os.write`` on an ``O_APPEND`` descriptor (POSIX appends are
atomic per ``write`` call); any future backend must provide the same
guarantee or wrap appends in its own locking.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import List

__all__ = [
    "StoreBackendError",
    "StoreBackend",
    "LocalBackend",
]


class StoreBackendError(RuntimeError):
    """A backend operation failed."""


class StoreBackend(ABC):
    """Byte storage for shard files, by name (``"ab.jsonl"``).

    Shard names never contain path separators; the backend owns the
    mapping from name to physical location.  All payloads are bytes of
    complete, newline-terminated JSONL lines.
    """

    @abstractmethod
    def append_line(self, name: str, data: bytes) -> None:
        """Atomically append one newline-terminated line to a shard."""

    @abstractmethod
    def read_bytes(self, name: str) -> bytes:
        """The shard's full contents; empty bytes if it does not exist."""

    @abstractmethod
    def replace(self, name: str, data: bytes) -> None:
        """Atomically replace a shard's contents (gc compaction)."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Remove a shard; missing shards are not an error."""

    @abstractmethod
    def list_shards(self) -> List[str]:
        """Every existing shard name, sorted."""

    @abstractmethod
    def quarantine(self, name: str) -> str:
        """Move a corrupt shard out of the data path; return its new name.

        Quarantined shards are kept (never silently destroyed — an
        operator may want the bytes) but stop being served; the caller is
        responsible for purging index rows that pointed into them.
        """


class LocalBackend(StoreBackend):
    """Shards as files under ``<root>/shards/`` (the default backend).

    Appends go through a single ``os.write`` on an ``O_APPEND``
    descriptor, so concurrent store writers — two ``repro experiment``
    processes sharing one store — interleave whole lines, never partial
    ones.  Quarantined shards move to ``<root>/quarantine/`` with a
    monotonic suffix.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.shard_dir = os.path.join(root, "shards")
        self.quarantine_dir = os.path.join(root, "quarantine")
        os.makedirs(self.shard_dir, exist_ok=True)

    def _path(self, name: str) -> str:
        if os.sep in name or (os.altsep and os.altsep in name) or name.startswith("."):
            raise StoreBackendError(f"illegal shard name {name!r}")
        return os.path.join(self.shard_dir, name)

    def append_line(self, name: str, data: bytes) -> None:
        """Atomically append one line (single ``write`` on ``O_APPEND``)."""
        if not data.endswith(b"\n"):
            raise StoreBackendError("append_line payload must be newline-terminated")
        fd = os.open(self._path(name), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def read_bytes(self, name: str) -> bytes:
        """The shard's contents, or ``b""`` for a shard never written."""
        try:
            with open(self._path(name), "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            return b""

    def replace(self, name: str, data: bytes) -> None:
        """Write-then-rename so readers always see a complete shard."""
        path = self._path(name)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)

    def delete(self, name: str) -> None:
        """Remove the shard file if present."""
        try:
            os.unlink(self._path(name))
        except FileNotFoundError:
            pass

    def list_shards(self) -> List[str]:
        """Sorted shard names currently on disk."""
        try:
            return sorted(
                entry
                for entry in os.listdir(self.shard_dir)
                if entry.endswith(".jsonl")
            )
        except FileNotFoundError:
            return []

    def quarantine(self, name: str) -> str:
        """Move the shard into ``quarantine/`` under a non-clobbering name."""
        os.makedirs(self.quarantine_dir, exist_ok=True)
        source = self._path(name)
        for attempt in range(10_000):
            target_name = f"{name}.{attempt}" if attempt else name
            target = os.path.join(self.quarantine_dir, target_name)
            if not os.path.exists(target):
                try:
                    os.replace(source, target)
                except FileNotFoundError:
                    return target_name  # already gone: quarantined by a peer
                return target_name
        raise StoreBackendError(f"cannot find a quarantine slot for {name!r}")

"""Filesystem-backed immutable blob store with a barrier wait.

Keys follow ``runs/<run_id>/regions/<region>/<artifact>`` with artifact
``upload`` (a region's one upload per run) or ``result`` (the merged run
result, under the pseudo-region ``cloud``). Writes go to a temp file and are
hard-linked into place, so readers never observe partial blobs and the first
writer of a key wins. Safe for concurrent use from multiple processes on one host.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

ARTIFACTS = ("upload", "result")
MAX_KEY_LEN = 512
POLL_INTERVAL_S = 0.002

RESULT_REGION = "cloud"


class StoreError(Exception):
    pass


class InvalidKeyError(StoreError):
    pass


class AlreadyExistsError(StoreError):
    pass


class NotFoundError(StoreError):
    pass


def validate_key(key: str) -> None:
    if not key or len(key) > MAX_KEY_LEN:
        raise InvalidKeyError(f"key length must be 1..{MAX_KEY_LEN}")
    parts = key.split("/")
    if any(p == "" for p in parts):
        raise InvalidKeyError(f"empty component in key {key!r}")
    if any(p == ".." or p == "." for p in parts):
        raise InvalidKeyError(f"path traversal in key {key!r}")
    if any("\\" in p or "\x00" in p for p in parts):
        raise InvalidKeyError(f"illegal characters in key {key!r}")
    if len(parts) != 5 or parts[0] != "runs" or parts[2] != "regions":
        raise InvalidKeyError(
            f"key must look like runs/<run_id>/regions/<region>/<artifact>, got {key!r}")
    if parts[4] not in ARTIFACTS:
        raise InvalidKeyError(f"artifact must be one of {ARTIFACTS}, got {parts[4]!r}")


def upload_key(run_id: str, region: str) -> str:
    return f"runs/{run_id}/regions/{region}/upload"


def result_key(run_id: str) -> str:
    return f"runs/{run_id}/regions/{RESULT_REGION}/result"


@dataclass(frozen=True)
class WaitResult:
    complete: bool
    missing: tuple[str, ...] = ()


class FileStore:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._tmp = self.root / ".tmp"
        self._tmp.mkdir(exist_ok=True)

    def _path(self, key: str) -> Path:
        validate_key(key)
        return self.root / key

    def put(self, key: str, blob: bytes) -> None:
        """Atomic, immutable write; a second put to the same key fails."""
        path = self._path(key)
        if path.exists():
            raise AlreadyExistsError(f"key already written: {key}")
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._tmp / f"{uuid.uuid4().hex}.part"
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        try:
            os.link(tmp, path)   # atomic fail-if-exists publish
        except FileExistsError:
            raise AlreadyExistsError(f"key already written: {key}") from None
        finally:
            tmp.unlink(missing_ok=True)

    def get(self, key: str) -> bytes:
        path = self._path(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            raise NotFoundError(f"no such key: {key}") from None

    def exists(self, key: str) -> bool:
        return self._path(key).exists()

    def list(self, prefix: str = "") -> list[str]:
        """All keys under ``prefix``, lexicographically sorted."""
        keys = []
        for path in self.root.rglob("*"):
            if not path.is_file():
                continue
            rel = path.relative_to(self.root).as_posix()
            if rel.startswith(".tmp/"):
                continue
            if rel.startswith(prefix):
                keys.append(rel)
        return sorted(keys)

    def wait_for(self, keys: list[str], deadline: float, clock=time) -> WaitResult:
        """Poll until every key exists or the (absolute) deadline passes."""
        keys = list(keys)
        for k in keys:
            validate_key(k)
        while True:
            missing = tuple(k for k in keys if not self.exists(k))
            if not missing:
                return WaitResult(complete=True)
            if clock.time() >= deadline:
                return WaitResult(complete=False, missing=missing)
            clock.sleep(POLL_INTERVAL_S)

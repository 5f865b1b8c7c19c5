"""Line-oriented node event logs: ISO-8601 timestamp, node id, event, key=value pairs."""

from __future__ import annotations

import threading
from datetime import datetime, timezone
from pathlib import Path


def _format_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".6f").rstrip("0").rstrip(".") or "0"
    return str(v).replace(" ", "_").replace("\n", "_")


class EventLog:
    """Appends one line per event; safe to call from several threads."""

    def __init__(self, node_id: str, path: str | Path | None = None):
        self.node_id = node_id
        self.path = Path(path) if path else None
        self._lock = threading.Lock()
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    def log(self, event: str, *, ts: float | None = None, **fields) -> str:
        if ts is None:
            stamp = datetime.now(timezone.utc)
        else:
            stamp = datetime.fromtimestamp(ts, tz=timezone.utc)
        parts = [stamp.isoformat(timespec="microseconds"), self.node_id, event]
        parts += [f"{k}={_format_value(v)}" for k, v in fields.items()]
        line = " ".join(parts)
        if self.path:
            with self._lock, open(self.path, "a") as fh:
                fh.write(line + "\n")
        return line


def parse_line(line: str) -> tuple[float, str, str, dict[str, str]]:
    """Split a log line into (unix seconds, node id, event, fields)."""
    parts = line.strip().split(" ")
    if len(parts) < 3:
        raise ValueError(f"not a log line: {line!r}")
    ts = datetime.fromisoformat(parts[0]).timestamp()
    fields = {}
    for kv in parts[3:]:
        if "=" in kv:
            k, v = kv.split("=", 1)
            fields[k] = v
    return ts, parts[1], parts[2], fields


def read_events(path: str | Path) -> list[tuple[float, str, str, dict[str, str]]]:
    events = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            events.append(parse_line(line))
    return events

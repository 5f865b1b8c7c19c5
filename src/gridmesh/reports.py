"""Stage-timing and verdict reports assembled from node logs and the store.

The CSV schema is documented in REPORTS.md: one row per observed stage event,
timestamps in milliseconds relative to the cloud's run_open instant. Events
emitted before the run opened (UE reports, edge receptions) appear with
negative offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import pipeline
from .eventlog import read_events
from .store import FileStore, result_key

STAGES = ("ue_send", "edge_recv", "edge_compute_done", "store_put_done",
          "barrier_done", "sim_done", "result_recv")

CSV_HEADER = "run_id,stage,node,t_ms"


class ReportError(Exception):
    pass


@dataclass(frozen=True)
class StageRow:
    run_id: str
    stage: str
    node: str
    t_ms: float


@dataclass(frozen=True)
class RunReport:
    run_id: str
    rows: tuple[StageRow, ...]
    outcome: str                  # Complete | TimedOut | Failed | Unknown
    missing_regions: tuple[str, ...]
    result_summary: str
    partial: bool                 # logs were incomplete

    def csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.run_id},{r.stage},{r.node},{r.t_ms:.3f}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"run {self.run_id}: {self.outcome}"]
        if self.partial:
            lines.append("warning: partial report (run_open not found in logs)")
        if self.outcome == "TimedOut":
            lines.append(f"missing regions: {', '.join(self.missing_regions)}")
        if self.result_summary:
            lines.append(self.result_summary)
        for stage in STAGES:
            vals = [r.t_ms for r in self.rows if r.stage == stage]
            if vals:
                lines.append(
                    f"{stage}: n={len(vals)} mean={sum(vals)/len(vals):.3f}ms "
                    f"min={min(vals):.3f}ms max={max(vals):.3f}ms")
        return "\n".join(lines) + "\n"


def emit_report(run_id: str, store: FileStore, log_paths) -> RunReport:
    """Build the stage-timing report for one run from node logs plus the store."""
    events = []
    for path in log_paths:
        p = Path(path)
        if p.exists():
            events.extend(read_events(p))
    events.sort(key=lambda e: e[0])

    run_events = [e for e in events
                  if e[3].get("run") in (None, run_id) or e[2] in ("ue_send",)]
    opened = [e for e in events if e[2] == "run_open" and e[3].get("run") == run_id]
    has_result = store.exists(result_key(run_id))
    if not opened and not has_result:
        raise ReportError(f"run {run_id} not found in logs or store")

    partial = not opened
    t0 = opened[0][0] if opened else (events[0][0] if events else 0.0)

    rows = []
    for ts, node, event, fields in run_events:
        if event in STAGES:
            rows.append(StageRow(run_id=run_id, stage=event, node=node,
                                 t_ms=(ts - t0) * 1e3))

    aborted = [e for e in events if e[2] == "run_aborted" and e[3].get("run") == run_id]
    failed = [e for e in events if e[2] == "run_failed" and e[3].get("run") == run_id]
    if aborted:
        outcome = "TimedOut"
        missing = tuple(aborted[0][3].get("missing", "").split(","))
    elif failed:
        outcome, missing = "Failed", ()
    elif has_result:
        outcome, missing = "Complete", ()
    else:
        outcome, missing = "Unknown", ()

    summary = pipeline.result_summary(store.get(result_key(run_id))) if has_result else ""
    return RunReport(run_id=run_id, rows=tuple(rows), outcome=outcome,
                     missing_regions=missing, result_summary=summary, partial=partial)

"""CONFIG.md names exactly the fields ``pipeline`` writes in an upload, its
``partial`` and its ``scenario_set``, so a retired field cannot linger in the
docs, nor a new one go undocumented."""

import json
import re
from pathlib import Path

from gridmesh import pipeline
from gridmesh.model import load_bundled_case
from gridmesh.pipeline import DsaParams

ROOT = Path(__file__).resolve().parent.parent
SECTION = (ROOT / "CONFIG.md").read_text().split("## store.*", 1)[1].split("\n## ", 1)[0]


def documented() -> dict[str, set[str]]:
    rows = re.findall(r"^\| ([^|]+?) \| (`[^|]+) \|$", SECTION, re.M)
    return {obj: set(re.findall(r"`([a-z_]+)`", fields)) for obj, fields in rows}


def written() -> dict[str, set[str]]:
    case = load_bundled_case("case9")
    topo = json.loads(pipeline.edge_topology_blob(case, "R1"))
    dsa = json.loads(pipeline.edge_scenarios_blob(case, "R1", DsaParams(n_raw=20, k=2, seed=1)))
    return {"Topology upload": set(topo), "DSA upload": set(dsa),
            "`partial`": set(topo["partial"]), "`scenario_set`": set(dsa["scenario_set"])}


def test_upload_table_lists_every_field_written_and_no_other():
    assert documented() == written()


def test_prose_names_no_field_outside_the_table():
    fields = set().union(*written().values())
    named = set(re.findall(r"`([a-z_]+)`", SECTION))
    assert named - fields <= {"upload", "result", "cloud"}

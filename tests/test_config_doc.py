"""CONFIG.md names exactly the fields ``pipeline`` writes in an upload, its
``partial`` and its ``scenario_set``, and exactly the CLI flags that read a
config key; and README, the ``model`` docstring and the bundled case files
list exactly the columns of the case model; and README's package layout lists
exactly the package's modules. So a retired field, flag or module cannot
linger in the docs, nor a new one go undocumented."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from gridmesh import model, pipeline
from gridmesh.model import Branch, Bus, Generator, bundled_case_path, load_bundled_case
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


def test_flag_list_names_the_flags_that_read_a_config_key():
    listed = (ROOT / "CONFIG.md").read_text().split("CLI flags that map onto these keys:", 1)[1]
    listed = set(re.findall(r"`--([a-z-]+)`", listed.split("\n\n", 1)[0])) - {"config"}
    cli = (ROOT / "src" / "gridmesh" / "cli.py").read_text()
    reading = re.findall(r'resolve\(\s*(?:args\.(\w+)|getattr\(args, "(\w+)")', cli)
    assert listed == {(a or b).replace("_", "-") for a, b in reading}


CASE_COLUMNS = {"meta": ["base_mva", "freq_hz"],
                **{name: [f.name for f in fields(cls)]
                   for name, cls in (("bus", Bus), ("branch", Branch), ("gen", Generator))}}


def column_lists(text: str) -> dict[str, list[str]]:
    """Each ``[section]`` header of a case-format listing and the column list
    on the line under it, which may be a ``#`` comment."""
    return {name: cols.split(",") for name, cols in re.findall(
        r"^[ \t]*\[(\w+)\]\n[ \t]*(?:#[ \t]*)?([a-z_]+(?:,[a-z_]+)+)[ \t]*$", text, re.M)}


README_FORMAT = column_lists(
    (ROOT / "README.md").read_text().split("## Case file format", 1)[1].split("```")[1])


def test_readme_case_format_lists_the_model_columns():
    assert README_FORMAT == CASE_COLUMNS


@pytest.mark.parametrize("where", ["model docstring"] + sorted(
    path.stem for path in bundled_case_path("case9").parent.glob("*.txt")))
def test_case_format_is_listed_as_in_readme(where):
    text = model.__doc__ if where == "model docstring" else bundled_case_path(where).read_text()
    assert column_lists(text) == README_FORMAT


def test_package_layout_lists_every_module_and_no_other():
    layout = (ROOT / "README.md").read_text().split("## Package layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `gridmesh\.(\w+)` \|", layout, re.M)
    modules = {path.stem for path in (ROOT / "src" / "gridmesh").glob("*.py")}
    assert sorted(listed) == sorted(modules - {"__init__", "__main__"})

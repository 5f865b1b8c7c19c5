"""PROTOCOL.md names exactly the message kinds and error codes the code uses,
the kinds the nodes ack and the payload fields the frames carry, so a retired
kind, code or field cannot linger in the docs, nor a new one or a changed ack
rule go undocumented."""

import re
from pathlib import Path

import pytest

from gridmesh import core, virtualdemo
from gridmesh.core import UeScriptItem
from gridmesh.dynamics import SimulationConfig
from gridmesh.linkem import zero_impairment_profile
from gridmesh.model import FaultSpec, load_bundled_case
from gridmesh.pipeline import DsaParams, RunManifest
from gridmesh.sampling import ForecastSpec
from gridmesh.store import FileStore
from gridmesh.virtualdemo import run_virtual_demo
from gridmesh.wire import MessageKind

ROOT = Path(__file__).resolve().parent.parent
DOC = (ROOT / "PROTOCOL.md").read_text()
# "Codes 0x05 (UploadReady), ... are retired": the codes and their kinds' names
RETIRED = dict(re.findall(r"(0x[0-9A-Fa-f]{2}) \((\w+)\)",
                          re.split(r"\sare\sretired", DOC, 1)[0].rsplit("\n\n", 1)[1]))


def test_message_table_lists_every_kind_and_no_other():
    section = DOC.split("## Message kinds", 1)[1].split("\n## ", 1)[0]
    codes = [int(c, 16) for c in re.findall(r"^\| (0x[0-9A-Fa-f]{2}) \|", section, re.M)]
    assert sorted(codes) == sorted(int(k) for k in MessageKind)


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    """``(sender, receiver, envelope)`` of each frame sent in a Topology and a
    DSA demo, each with a forecast, a topology report and a report on a branch
    the receiving edge does not own, which it refuses with an ErrorMsg."""
    tmp_path = tmp_path_factory.mktemp("demos")
    sent = []
    send = virtualdemo.CoreNode.send

    def recording(node, dst, env, direction):
        sent.append((node, dst, env))
        send(node, dst, env, direction)

    forecast = ForecastSpec(n_dims=1, dist="uniform", half_width=0.02).to_dict()
    opens_9 = ({"id": 9, "status": "Open"},)                   # branch 9 is R2's
    scripts = {"ue-1": ("R1", [UeScriptItem(at_s=0.0, kind="forecast", forecast=forecast)]),
               "ue-2": ("R2", [UeScriptItem(at_s=0.1, kind="topology", branches=opens_9)]),
               "ue-3": ("R3", [UeScriptItem(at_s=0.0, kind="topology", branches=opens_9)])}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(virtualdemo.CoreNode, "send", recording)
        for mode, dsa in (("Topology", None), ("DSA", DsaParams(n_raw=20, k=2, seed=1))):
            manifest = RunManifest(run_id="ab" * 16, expected_regions=("R1", "R2", "R3"),
                                   mode=mode, fault=FaultSpec(faulted_bus=7, t_fault=0.1,
                                                              t_clear=0.3, cleared_branch=6),
                                   sim_cfg=SimulationConfig(t_end=1.0, dt=0.005), dsa=dsa)
            out = run_virtual_demo(load_bundled_case("case9"), manifest,
                                   FileStore(tmp_path / mode / "store"), tmp_path / mode / "logs",
                                   zero_impairment_profile(), scripts)
            assert out.exit_code == 0
    return sent


def kind_rows() -> list[tuple[MessageKind, str, str]]:
    """Each row of the message table: its kind, payload fields and acked mark."""
    section = DOC.split("## Message kinds", 1)[1].split("\n## ", 1)[0]
    return [(MessageKind(int(code, 16)), fields, acked) for code, fields, acked in
            re.findall(r"^\| (0x[0-9A-Fa-f]{2}) \| \w+ \| (.*) \| ([^|]*?) \|$", section, re.M)]


def test_the_acked_column_names_exactly_the_kinds_the_nodes_ack(frames):
    # a frame is acked when its receiver sends an Ack naming its seq back on
    # the same link
    column = {kind: acked for kind, _, acked in kind_rows()}
    assert set(column.values()) <= {"yes", "no", "-"}
    acks = {(node, dst, env.obj()["of"]) for node, dst, env in frames
            if env.msg_type == MessageKind.ACK}
    acked = {env.msg_type for node, dst, env in frames
             if (dst, node, env.obj().get("seq")) in acks}
    assert {MessageKind.HELLO, MessageKind.TOPOLOGY_REPORT, MessageKind.FORECAST_REPORT,
            MessageKind.RUN_RESULT} <= {env.msg_type for _, _, env in frames}
    assert acked == {kind for kind, mark in column.items() if mark == "yes"}


def test_the_payload_fields_column_names_exactly_the_keys_the_frames_carry(frames):
    # the top-level names: not those inside [{...}], nor the values or notes
    # in parentheses; RunOpen carries the manifest, whose fields CONFIG.md lists
    carried = {}
    for _, _, env in frames:
        carried.setdefault(env.msg_type, set()).update(env.obj())
    rows = [(kind, fields) for kind, fields, _ in kind_rows() if kind != MessageKind.RUN_OPEN]
    assert {kind for kind, _ in rows} <= set(carried)
    for kind, fields in rows:
        top = re.sub(r"\[\{.*?\}\]|\(.*?\)", "", fields)
        assert set(re.findall(r"`(\w+)`", top)) == carried[kind], kind.name


def test_error_codes_in_use_match_the_cores():
    listed = DOC.split("Error codes in use:", 1)[1].split("\n\n", 1)[0]
    used = re.findall(r'error_msg\(\s*"([a-z_]+)"', Path(core.__file__).read_text())
    assert set(re.findall(r"`([a-z_]+)`", listed)) == set(used)



def test_the_retired_codes_are_exactly_those_not_in_use():
    unused = set(range(0x01, 0x0B)) - {int(k) for k in MessageKind}
    assert {int(c, 16) for c in RETIRED} == unused


@pytest.mark.parametrize("doc", ["README.md", "REPORTS.md", "CONFIG.md"])
def test_no_other_doc_names_a_retired_kind(doc):
    text = (ROOT / doc).read_text()
    assert [name for name in RETIRED.values() if name in text] == []

"""PROTOCOL.md names exactly the message kinds and error codes the code uses,
so a retired kind or code cannot linger in the docs, nor a new one go
undocumented."""

import re
from pathlib import Path

import pytest

from gridmesh import core
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

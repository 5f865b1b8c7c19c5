import pytest

from gridmesh.config import ConfigError, get_float, get_int, load_config, parse_config, \
    resolve
from gridmesh.eventlog import EventLog, parse_line, read_events


class TestParse:
    def test_basic(self):
        cfg = parse_config("store.root = /tmp/s\nlink.loss = 0.1\n")
        assert cfg == {"store.root": "/tmp/s", "link.loss": "0.1"}

    def test_comments_and_blanks(self):
        cfg = parse_config("# top\n\nlink.seed = 7   # inline\n")
        assert cfg == {"link.seed": "7"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("store.root /tmp\n")

    def test_key_needs_section(self):
        with pytest.raises(ConfigError):
            parse_config("root = /tmp\n")

    def test_load(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("node.region = R2\n")
        assert load_config(p) == {"node.region": "R2"}


class TestPrecedence:
    def test_flag_beats_file_beats_default(self):
        cfg = {"run.seed": "7"}
        assert resolve(99, cfg, "run.seed", 1) == 99          # flag wins
        assert resolve(None, cfg, "run.seed", 1) == "7"       # file wins
        assert resolve(None, {}, "run.seed", 1) == 1          # default

    def test_typed_getters(self):
        cfg = {"a.f": "2.5", "a.i": "3"}
        assert get_float(cfg, "a.f", 0.0) == 2.5
        assert get_int(cfg, "a.i", 0) == 3
        assert get_float(cfg, "a.missing", 1.5) == 1.5
        with pytest.raises(ConfigError):
            get_float({"a.f": "abc"}, "a.f", 0.0)


class TestEventLog:
    def test_line_roundtrip(self, tmp_path):
        path = tmp_path / "n.log"
        log = EventLog("edge-R1", path=path)
        log.log("store_put_done", run="abc", key="runs/abc/regions/R1/upload")
        ts, node, event, fields = read_events(path)[0]
        assert node == "edge-R1" and event == "store_put_done"
        assert fields == {"run": "abc", "key": "runs/abc/regions/R1/upload"}
        assert ts > 0

    def test_explicit_timestamp(self, tmp_path):
        path = tmp_path / "n.log"
        EventLog("cloud", path=path).log("run_open", ts=12.75, run="x")
        ts, _, _, _ = read_events(path)[0]
        assert ts == pytest.approx(12.75)

    def test_values_with_spaces_flattened(self):
        line = EventLog("n").log("evt", msg="two words")
        _, _, _, fields = parse_line(line)
        assert fields["msg"] == "two_words"

import json
from dataclasses import replace
from pathlib import Path

import pytest

from gridmesh import cli
from gridmesh.cli import (EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, _parse_fault,
                          _resolve_profile, main)
from gridmesh.config import resolve
from gridmesh.linkem import default_5g_sa_profile, zero_impairment_profile
from gridmesh.model import bundled_case_path, load_bundled_case

CASE9 = str(bundled_case_path("case9"))
CASE3 = str(bundled_case_path("case3"))


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["ybus", CASE3, "--frobnicate"]) == EXIT_USAGE
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_missing_required(self, capsys):
        assert main(["ue", "--script", "x.json"]) == EXIT_USAGE

    def test_cloud_deadline_comes_from_the_manifest(self, capsys):
        assert main(["cloud", "--manifest", "m.json", "--deadline-s", "4"]) == EXIT_USAGE


class TestYbus:
    def test_prints_three_bus_matrix(self, capsys):
        assert main(["ybus", CASE3]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "bus,1,2,3"
        assert len(lines) == 4
        # spot value: self-admittance of bus 1 from the two attached branches
        from gridmesh.ybus import build_ybus
        v = build_ybus(load_bundled_case("case3")).to_dense()[0, 0]
        assert f"{v.real:+.4f}{v.imag:+.4f}j" in lines[1]

    def test_missing_case_file(self, capsys):
        assert main(["ybus", "/nonexistent/case.txt"]) == EXIT_RUNTIME


class TestSimulate:
    def test_simulate_with_trajectory(self, tmp_path, capsys):
        out_csv = tmp_path / "traj.csv"
        code = main(["simulate", CASE9, "bus=7,t_fault=0.1,t_clear=0.2,branch=6",
                     "--t-end", "1.0", "--out", str(out_csv)])
        assert code == EXIT_OK
        assert "verdict:" in capsys.readouterr().out
        header = out_csv.read_text().splitlines()[0]
        assert header.startswith("t,delta_1")

    @pytest.mark.parametrize("t_end", ["nan", "inf"])
    def test_a_non_finite_t_end_fails_before_the_power_flow(self, t_end, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the run started")
        monkeypatch.setattr(cli.pipeline, "monolithic_topology", never)
        code = main(["simulate", CASE9, "bus=7,t_fault=0.1,t_clear=0.2,branch=6",
                     "--t-end", t_end])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == \
            f"error: DynamicsError: t_end must be finite and > 0, got {t_end}\n"

    def test_an_infinite_t_clear_is_a_case_error(self, capsys):
        code = main(["simulate", CASE9, "bus=7,t_fault=0.1,t_clear=inf,branch=6",
                     "--t-end", "1.0"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == ("error: CaseError: fault times must be finite "
                                           "and satisfy 0 <= t_fault < t_clear\n")

    def test_fault_spec_needs_bus(self):
        assert main(["simulate", CASE9, "t_fault=0.1,t_clear=0.2"]) == EXIT_USAGE

    def test_an_unknown_fault_spec_key_is_a_usage_error(self, capsys):
        # a misspelt key once simulated the default t_clear and exited 0
        assert main(["simulate", CASE9, "bus=7,tclear=5"]) == EXIT_USAGE
        assert capsys.readouterr().err == \
            "unknown key 'tclear'; expected one of: bus, t_fault, t_clear, branch\n"

    def test_an_unknown_sample_spec_key_is_a_usage_error(self, capsys):
        assert main(["sample", "dims=2,sigmaa=9"]) == EXIT_USAGE
        assert capsys.readouterr().err == ("unknown key 'sigmaa'; expected one of: "
                                           "dims, dist, sigma, half_width, trunc_sigmas\n")

    def test_fault_spec_value_that_does_not_parse_is_a_usage_error(self, capsys):
        assert main(["simulate", CASE9, "bus=x"]) == EXIT_USAGE
        assert capsys.readouterr().err == "bus must be int, got 'x'\n"

    def test_sample_spec_value_that_does_not_parse_is_a_usage_error(self, capsys):
        assert main(["sample", "dims=x"]) == EXIT_USAGE
        assert capsys.readouterr().err == "dims must be int, got 'x'\n"

    def test_parse_fault(self):
        f = _parse_fault("bus=7,t_fault=0.1,t_clear=0.3,branch=6")
        assert (f.faulted_bus, f.cleared_branch) == (7, 6)
        assert _parse_fault("bus=2,t_fault=0.0,t_clear=0.5").cleared_branch is None


class TestSample:
    @pytest.mark.parametrize("spec", ["dist=gaussian,sigma=0.05,dims=2",
                                      "dist=uniform,half_width=0.05,dims=2"],
                             ids=["gaussian", "uniform"])
    def test_prints_representatives(self, spec, capsys):
        code = main(["sample", spec, "--n-raw", "50", "--k", "4", "--seed", "9"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "id,weight,m1,m2"
        assert 2 <= len(lines) <= 5
        rows = [[float(cell) for cell in line.split(",")[1:]] for line in lines[1:]]
        assert sum(row[0] for row in rows) == pytest.approx(1.0, abs=1e-9)
        assert all(0.85 <= m <= 1.15 for row in rows for m in row[1:])


class TestReportCommand:
    def test_unknown_run_exit_2(self, tmp_path, capsys):
        (tmp_path / "logs").mkdir()
        code = main(["report", "ee" * 16, "--out-dir", str(tmp_path)])
        assert code == EXIT_RUNTIME
        assert "not found" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_profile_flag_beats_config(self, tmp_path):
        cfg_file = tmp_path / "conf.cfg"
        cfg_file.write_text("link.profile = zero\nlink.seed = 3\n")

        class Args:
            profile = None
            config = str(cfg_file)

        from gridmesh.config import load_config
        cfg = load_config(cfg_file)
        p = _resolve_profile(Args(), cfg)
        assert p.delay_max_ms == 0.0 and p.seed == 3      # config file wins over default

        Args.profile = "default5g"
        p2 = _resolve_profile(Args(), cfg)
        assert p2.delay_max_ms == 18.5                     # flag beats config file
        assert p2.seed == 3                                # untouched keys still apply

    def test_profile_names_files_and_overrides(self, tmp_path):
        class Args:
            profile = None

        prof = tmp_path / "slow.cfg"
        prof.write_text("link.delay_min_ms = 40\nlink.delay_max_ms = 60\nlink.seed = 1\n")
        cases = [
            ("default5g", {}, default_5g_sa_profile()),
            ("zero", {}, zero_impairment_profile()),
            ("zero", {"link.seed": "3", "link.jitter_mean_ms": "2"},
             replace(zero_impairment_profile(), seed=3, jitter_mean_ms=2.0)),
            ("default5g", {"link.bw_up_mbps": "10"},
             replace(default_5g_sa_profile(), bw_up_bps=10e6)),
            (str(prof), {"link.seed": "3"},
             replace(default_5g_sa_profile(), delay_min_ms=40.0, delay_max_ms=60.0,
                     seed=3)),
        ]
        for name, cfg, expected in cases:
            Args.profile = name
            assert _resolve_profile(Args(), cfg) == expected, (name, cfg)

    @pytest.mark.parametrize("flag", ["--profile", "--config"])
    def test_an_unknown_link_key_fails_by_name(self, flag, tmp_path, capsys):
        # a key no profile reads, such as the retired link.loss, is not ignored
        cfg = tmp_path / "link.cfg"
        cfg.write_text("link.delay_min_ms = 1\nlink.loss = 0.1\n")
        code = main(["demo", "topology", "--virtual-time", flag, str(cfg),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_RUNTIME
        assert "error: ConfigError: unknown key link.loss;" in capsys.readouterr().err

    def test_resolve_chain(self):
        assert resolve("flag", {"k.x": "file"}, "k.x", "default") == "flag"
        assert resolve(None, {"k.x": "file"}, "k.x", "default") == "file"
        assert resolve(None, {}, "k.x", "default") == "default"


class TestDemoChecks:
    @pytest.mark.parametrize("which,expected", [
        (["topology"], ["monolithic equivalence: PASS (bitwise)"]),
        (["dsa", "--n-raw", "20", "--k", "2"],
         ["monolithic equivalence: PASS (bitwise)",
          "brute-force insecurity probability (20 joint raw draws): ",
          "brute-force standard error sqrt(p(1-p)/20): ", "representative within 2 SE: ",
          "difference: "]),
    ])
    def test_virtual_demo_runs_its_oracle_check(self, which, expected, tmp_path, capsys):
        code = main(["demo", *which, "--virtual-time", "--profile", "zero",
                     "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK, out
        for line in expected:
            assert line in out


class TestDemoNodes:
    def test_config_and_profile_reach_every_node(self, tmp_path, monkeypatch):
        # the demo resolves its link from the config's link.* keys, and so must its nodes
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("link.seed = 3\n")
        spawned = []

        class Exited:
            def __init__(self, code):
                self.code = code

            def poll(self):
                return self.code

            def wait(self, timeout=None):
                return self.code

        def spawn(cmd):
            spawned.append(cmd)
            if "--addr-file" in cmd:
                Path(cmd[cmd.index("--addr-file") + 1]).write_text("127.0.0.1:9\n")
            return Exited(3 if cmd[3] == "cloud" else 0)    # a barrier timeout

        monkeypatch.setattr(cli, "_spawn", spawn)
        code = main(["demo", "topology", "--config", str(cfg), "--profile", "zero",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert [cmd[3] for cmd in spawned] == ["cloud", "edge", "edge", "edge", "ue", "ue", "ue"]
        assert all(cmd[-4:] == ["--config", str(cfg), "--profile", "zero"] for cmd in spawned)

    def test_a_used_out_dir_is_refused_before_any_node_starts(self, tmp_path, capsys):
        # reports read every log in the directory, so two runs' lines would mix
        args = ["demo", "topology", "--virtual-time", "--profile", "zero",
                "--out-dir", str(tmp_path)]
        assert main(args) == EXIT_OK
        logs = {p: p.read_bytes() for p in (tmp_path / "logs").glob("*.log")}
        capsys.readouterr()
        assert main(args) == EXIT_USAGE
        assert "new --out-dir" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in (tmp_path / "logs").glob("*.log")} == logs


class TestUeCommand:
    def test_connection_refused_exit_2(self, tmp_path, capsys):
        script = tmp_path / "s.json"
        script.write_text(json.dumps([]))
        code = main(["ue", "--edge-addr", "127.0.0.1:9", "--script", str(script),
                     "--profile", "zero"])
        assert code == EXIT_RUNTIME
        assert "delivered=0 failed=0 rejected=0 error=connect" in capsys.readouterr().out

    @pytest.mark.parametrize("script, error", [
        ({"at_s": 0.0, "kind": "topology"}, "script must be a list of items, got dict"),
        (["topology"], "script item 0: must be an object, got str"),
        ([{"at_s": 0.0}], "script item 0: missing kind"),
        ([{"at_s": 0.0, "kind": "topology"}, {"kind": "topology"}],
         "script item 1: missing at_s"),
        ([{"at_s": "x", "kind": "topology"}], "script item 0: at_s must be a number, got 'x'"),
        ([{"at_s": True, "kind": "topology"}], "script item 0: at_s must be a number, got True"),
        ([{"at_s": None, "kind": "topology"}], "script item 0: at_s must be a number, got None"),
        ([{"at_s": 0, "kind": "topology", "branches": 5}],
         "script item 0: branches must be a list of objects"),
        ([{"at_s": 0, "kind": "topology", "branches": [5]}],
         "script item 0: branches must be a list of objects"),
        ([{"at_s": 0, "kind": "topology", "branches": [{"id": 9}]}],
         "script item 0: missing branches[0].status"),
        ([{"at_s": 0, "kind": "topology", "buses": [{"id": 5}]}],
         "script item 0: missing buses[0].p_load"),
        ([{"at_s": 0, "kind": "topology", "buses": {"id": 5}}],
         "script item 0: buses must be a list of objects"),
        ([{"at_s": 0, "kind": "forecast", "forecast": 3}],
         "script item 0: forecast must be an object, got int"),
    ], ids=["object", "item-not-object", "no-kind", "no-at_s", "at_s-string", "at_s-bool",
            "at_s-null", "branches-int", "branch-int", "branch-no-status", "bus-no-p_load",
            "buses-object", "forecast-int"])
    def test_a_malformed_script_is_refused_before_connecting(self, script, error, tmp_path,
                                                             capsys, monkeypatch):
        monkeypatch.setattr(cli, "ue_agent", lambda *a, **k: pytest.fail("the UE connected"))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(script))
        code = main(["ue", "--edge-addr", "127.0.0.1:9", "--script", str(path),
                     "--profile", "zero"])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: ValueError: {error}\n"

"""Command-line entry point.

Subcommands: ``ue``/``edge``/``cloud`` run one node from flags and config;
``demo topology`` and ``demo dsa`` orchestrate the two end-to-end workflows on
one host (separate OS processes over loopback, or ``--virtual-time`` for the
deterministic in-process variant); ``ybus``, ``simulate`` and ``sample``
expose the compute pieces directly; ``report`` emits stage timings and
verdicts for a finished run.

Exit codes: 0 success, 1 usage error, 2 runtime failure, 3 barrier timeout.
Setting precedence for every option: CLI flag, then config file, then default.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from . import pipeline, reports
from .config import load_config, resolve
from .dynamics import SimulationConfig, write_trajectory_csv
from .linkem import LinkProfile, profile_from_config, zero_impairment_profile
from .model import FaultSpec, GridCase, bundled_case_path, load_case
from .core import parse_ue_script
from .nodes import CloudNode, EdgeNode, format_addr, load_ue_script, parse_addr, ue_agent
from .eventlog import EventLog
from .pipeline import DsaParams, RunManifest
from .sampling import ForecastSpec, draw_samples, reduce_scenarios
from .store import FileStore, result_key
from .virtualdemo import run_virtual_demo
from .ybus import build_ybus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_BARRIER = 3

DEMO_FAULT = {"topology": FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.3,
                                    cleared_branch=6),
              "dsa": FaultSpec(faulted_bus=7, t_fault=0.1, t_clear=0.27,
                               cleared_branch=6)}
DEMO_SIM_T_END = 3.0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    p = _Parser(prog="gridmesh", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *names):
        if "config" in names:
            sp.add_argument("--config", help="flat section.key = value config file")
        if "profile" in names:
            sp.add_argument("--profile",
                            help="link profile: 'default5g', 'zero', or a config file")
        if "store" in names:
            sp.add_argument("--store-root", help="object store root directory")
        if "log" in names:
            sp.add_argument("--log", help="node event log file")

    sp = sub.add_parser("ybus", help="print the admittance matrix of a case")
    sp.add_argument("case")

    sp = sub.add_parser("simulate", help="monolithic fault simulation of a case")
    sp.add_argument("case")
    sp.add_argument("fault", help="e.g. bus=7,t_fault=0.1,t_clear=0.3,branch=6")
    sp.add_argument("--dt", type=float, default=SimulationConfig.dt)
    sp.add_argument("--t-end", type=float, default=5.0)
    sp.add_argument("--out", help="trajectory CSV path")

    sp = sub.add_parser("sample", help="draw and reduce forecast scenarios")
    sp.add_argument("spec", help="e.g. dist=gaussian,sigma=0.05,dims=3")
    sp.add_argument("--n-raw", type=int, default=200)
    sp.add_argument("--k", type=int, default=10)
    sp.add_argument("--seed", type=int, default=42)

    sp = sub.add_parser("ue", help="run a UE agent script against an edge")
    sp.add_argument("--edge-addr", required=True)
    sp.add_argument("--script", required=True)
    sp.add_argument("--node-id", default="ue-1")
    common(sp, "config", "profile", "log")

    sp = sub.add_parser("edge", help="run an edge server until terminated")
    sp.add_argument("--region")
    sp.add_argument("--case")
    sp.add_argument("--cloud-addr")
    sp.add_argument("--listen")
    sp.add_argument("--addr-file", help="write the bound address here once listening")
    common(sp, "config", "profile", "store", "log")

    sp = sub.add_parser("cloud", help="run the cloud coordinator for one manifest")
    sp.add_argument("--case")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--wait-manifest", action="store_true",
                    help="poll until the manifest file appears")
    sp.add_argument("--listen")
    sp.add_argument("--addr-file")
    common(sp, "config", "profile", "store", "log")

    sp = sub.add_parser("demo", help="run an end-to-end workflow on this host")
    sp.add_argument("which", choices=["topology", "dsa"])
    sp.add_argument("--out-dir")
    sp.add_argument("--case")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--deadline-s", type=float, default=None)
    sp.add_argument("--virtual-time", action="store_true",
                    help="deterministic in-process run on a simulated clock")
    sp.add_argument("--n-raw", type=int, default=200,
                    help="dsa only: raw forecast scenarios drawn per region")
    sp.add_argument("--k", type=int, default=10,
                    help="dsa only: representatives kept per region")
    sp.add_argument("--withhold-region",
                    help="do not start this region's edge (barrier demo)")
    common(sp, "config", "profile")

    sp = sub.add_parser("report", help="stage timings and verdicts for a run")
    sp.add_argument("run_id")
    sp.add_argument("--out-dir", help="demo output directory (store/ and logs/)")
    sp.add_argument("--logs", help="log directory (default <out-dir>/logs)")
    sp.add_argument("--out", help="CSV output path (default stdout)")
    common(sp, "config", "store")

    return p


def _load_cfg(args) -> dict:
    if getattr(args, "config", None):
        return load_config(args.config)
    return {}


def _resolve_profile(args, cfg: dict) -> LinkProfile:
    """The named profile (or profile file), then the config's ``link.*`` keys."""
    name = resolve(getattr(args, "profile", None), cfg, "link.profile", "default5g")
    overrides = {k: v for k, v in cfg.items() if k.startswith("link.")}
    if name == "zero":
        return profile_from_config(overrides, zero_impairment_profile())
    file_keys = {} if name == "default5g" else load_config(name)
    return profile_from_config({**file_keys, **overrides})


def _resolve_case(args, cfg: dict) -> GridCase:
    path = resolve(getattr(args, "case", None), cfg, "node.case",
                   str(bundled_case_path("case9")))
    return load_case(path)


def _parse_kv(text: str, keys: tuple[str, ...]) -> dict[str, str]:
    """``key=value`` pairs; a key not in ``keys`` is a usage error naming it."""
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise _UsageError(f"expected key=value, got {part!r}")
        k, v = (s.strip() for s in part.split("=", 1))
        if k not in keys:
            raise _UsageError(f"unknown key {k!r}; expected one of: {', '.join(keys)}")
        out[k] = v
    return out


def _kv_value(kv: dict[str, str], key: str, parse, default=None):
    """``kv[key]`` read by ``parse`` (``default`` when absent); a value that
    ``parse`` refuses is a usage error naming the key."""
    try:
        return parse(kv[key]) if key in kv else default
    except ValueError:
        raise _UsageError(f"{key} must be {parse.__name__}, got {kv[key]!r}") from None


def _parse_fault(text: str) -> FaultSpec:
    kv = _parse_kv(text, ("bus", "t_fault", "t_clear", "branch"))
    if "bus" not in kv:
        raise _UsageError("fault spec needs bus")
    return FaultSpec(faulted_bus=_kv_value(kv, "bus", int),
                     t_fault=_kv_value(kv, "t_fault", float, 0.1),
                     t_clear=_kv_value(kv, "t_clear", float, 0.3),
                     cleared_branch=_kv_value(kv, "branch", int))


# ----------------------------------------------------------------------
# Leaf commands

def _cmd_ybus(args) -> int:
    case = load_case(args.case)
    dense = build_ybus(case).to_dense()
    ids = [b.id for b in case.buses]
    print(f"# {case.n} buses, {np.count_nonzero(dense)} nonzero entries; rows/cols by bus id")
    print("bus," + ",".join(str(i) for i in ids))
    for r in range(case.n):
        cells = []
        for c in range(case.n):
            v = dense[r, c]
            cells.append(f"{v.real:+.4f}{v.imag:+.4f}j" if v != 0 else "0")
        print(f"{ids[r]}," + ",".join(cells))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    case = load_case(args.case)
    fault = _parse_fault(args.fault)
    cfg = SimulationConfig(t_end=args.t_end, dt=args.dt,
                           omega_s=2 * np.pi * case.freq_hz)
    result, blob = pipeline.monolithic_topology(case, {}, fault, cfg)
    print(pipeline.result_summary(blob))
    if args.out:
        write_trajectory_csv(result, args.out)
        print(f"trajectory written to {args.out}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    kv = _parse_kv(args.spec, ("dims", "dist", "sigma", "half_width", "trunc_sigmas"))
    spec = ForecastSpec(
        n_dims=_kv_value(kv, "dims", int, 1),
        dist=kv.get("dist", ForecastSpec.dist),
        sigma=_kv_value(kv, "sigma", float, ForecastSpec.sigma),
        half_width=_kv_value(kv, "half_width", float, ForecastSpec.half_width),
        trunc_sigmas=_kv_value(kv, "trunc_sigmas", float, ForecastSpec.trunc_sigmas),
    )
    samples = draw_samples(spec, args.n_raw, args.seed)
    sset = reduce_scenarios(samples, args.k, args.seed)
    print("id,weight," + ",".join(f"m{i+1}" for i in range(spec.n_dims)))
    for i, w, row in zip(sset.ids.tolist(), sset.weights.tolist(), sset.multipliers.tolist()):
        print(f"{i},{w!r}," + ",".join(repr(m) for m in row))
    return EXIT_OK


def _cmd_ue(args) -> int:
    cfg = _load_cfg(args)
    profile = _resolve_profile(args, cfg)
    script = load_ue_script(args.script)
    log = EventLog(args.node_id, path=args.log) if args.log else EventLog(args.node_id)
    r = ue_agent(args.node_id, script, parse_addr(args.edge_addr), profile=profile, log=log)
    print(f"{args.node_id}: delivered={len(r.delivered)} failed={len(r.failed)} "
          f"rejected={len(r.rejected)} error={r.error or 'none'}")
    return EXIT_OK if r.clean else EXIT_RUNTIME


def _wait_for_sigterm() -> None:
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *a: stop.set())
    signal.signal(signal.SIGINT, lambda *a: stop.set())
    stop.wait()


def _cmd_edge(args) -> int:
    cfg = _load_cfg(args)
    region = resolve(args.region, cfg, "node.region", None)
    cloud_addr = resolve(args.cloud_addr, cfg, "node.cloud_addr", None)
    if not region or not cloud_addr:
        raise _UsageError("edge needs --region and --cloud-addr (or config keys)")
    listen = parse_addr(resolve(args.listen, cfg, "node.listen", "127.0.0.1:0"))
    store = FileStore(resolve(args.store_root, cfg, "store.root", "./store"))
    case = _resolve_case(args, cfg)
    log = EventLog(f"edge-{region}", path=args.log)
    node = EdgeNode(region, case, store, parse_addr(cloud_addr), listen=listen,
                    profile=_resolve_profile(args, cfg), log=log)
    addr = node.start()
    if args.addr_file:
        Path(args.addr_file).write_text(format_addr(addr) + "\n")
    try:
        _wait_for_sigterm()
    finally:
        node.close()
    return EXIT_OK


def _cmd_cloud(args) -> int:
    cfg = _load_cfg(args)
    listen = parse_addr(resolve(args.listen, cfg, "node.listen", "127.0.0.1:0"))
    store = FileStore(resolve(args.store_root, cfg, "store.root", "./store"))
    case = _resolve_case(args, cfg)
    log = EventLog("cloud", path=args.log)
    node = CloudNode(case, store, listen=listen,
                     profile=_resolve_profile(args, cfg), log=log)
    addr = node.start()
    if args.addr_file:
        Path(args.addr_file).write_text(format_addr(addr) + "\n")
    try:
        manifest_path = Path(args.manifest)
        if args.wait_manifest:
            while not manifest_path.exists():
                time.sleep(0.05)
        return node.execute_run(RunManifest.load(manifest_path))
    finally:
        node.close()


# ----------------------------------------------------------------------
# Demos

def _demo_run_id(which: str, seed: int) -> str:
    return hashlib.blake2s(f"demo-{which}-{seed}".encode(), digest_size=16).hexdigest()


def _spawn(cmd: list[str]) -> subprocess.Popen:
    return subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def _wait_file(path: Path, timeout: float = 15.0, what: str = "file") -> str:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if path.exists():
            text = path.read_text().strip()
            if text:
                return text
        time.sleep(0.05)
    raise RuntimeError(f"timed out waiting for {what}: {path}")


def _terminate(procs: list[subprocess.Popen]) -> None:
    for p in procs:
        if p.poll() is None:
            p.terminate()
    for p in procs:
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            p.kill()


def _demo_setup(args):
    cfg = _load_cfg(args)
    out = Path(args.out_dir or tempfile.mkdtemp(prefix="gridmesh-demo-"))
    if any((out / "logs").glob("*.log")):
        # reports read every log in the directory, so a second run's would mix in
        raise _UsageError(f"{out / 'logs'} holds an earlier run's logs; give a new --out-dir")
    (out / "logs").mkdir(parents=True, exist_ok=True)
    profile = _resolve_profile(args, cfg)
    seed = resolve(args.seed, cfg, "run.seed", 42)
    deadline = float(resolve(args.deadline_s, cfg, "run.deadline_s",
                             pipeline.DEFAULT_DEADLINE_S))
    return cfg, out, profile, int(seed), deadline


def _demo_manifest(which: str, seed: int, deadline: float, regions, case: GridCase,
                   dsa: DsaParams | None) -> RunManifest:
    return RunManifest(
        run_id=_demo_run_id(which, seed),
        expected_regions=tuple(regions),
        mode=pipeline.MODE_TOPOLOGY if which == "topology" else pipeline.MODE_DSA,
        fault=DEMO_FAULT[which],
        sim_cfg=SimulationConfig(t_end=DEMO_SIM_T_END, omega_s=2 * np.pi * case.freq_hz),
        deadline_s=deadline,
        dsa=dsa,
    )


def _node_args(args) -> list[str]:
    """The demo's own --config and --profile, for every node it spawns."""
    return [a for flag in ("config", "profile") if getattr(args, flag, None)
            for a in (f"--{flag}", getattr(args, flag))]


def _run_demo_processes(out: Path, case_path: Path, manifest: RunManifest,
                        ue_plan: dict[str, tuple[str, list[dict]]],
                        withhold: set[str], args) -> int:
    """Spawn cloud/edges/UEs as OS processes over loopback; returns exit code."""
    exe = [sys.executable, "-m", "gridmesh"]
    store_root = str(out / "store")
    procs: list[subprocess.Popen] = []
    try:
        cloud = _spawn(exe + ["cloud", "--case", str(case_path),
                              "--store-root", store_root,
                              "--listen", "127.0.0.1:0",
                              "--addr-file", str(out / "cloud.addr"),
                              "--manifest", str(out / "manifest.json"),
                              "--wait-manifest",
                              "--log", str(out / "logs" / "cloud.log")]
                       + _node_args(args))
        procs.append(cloud)
        cloud_addr = _wait_file(out / "cloud.addr", what="cloud address")

        edge_addrs: dict[str, str] = {}
        for region in manifest.expected_regions:
            if region in withhold:
                continue
            e = _spawn(exe + ["edge", "--region", region, "--case", str(case_path),
                              "--cloud-addr", cloud_addr,
                              "--store-root", store_root,
                              "--listen", "127.0.0.1:0",
                              "--addr-file", str(out / f"edge-{region}.addr"),
                              "--log", str(out / "logs" / f"edge-{region}.log")]
                       + _node_args(args))
            procs.append(e)
        for region in manifest.expected_regions:
            if region not in withhold:
                edge_addrs[region] = _wait_file(out / f"edge-{region}.addr",
                                                what=f"edge {region} address")

        ue_procs = []
        for ue_name, (region, script) in sorted(ue_plan.items()):
            if region in withhold:
                continue
            script_path = out / f"{ue_name}.json"
            script_path.write_text(json.dumps(script))
            u = _spawn(exe + ["ue", "--edge-addr", edge_addrs[region],
                              "--script", str(script_path), "--node-id", ue_name,
                              "--log", str(out / "logs" / f"{ue_name}.log")]
                       + _node_args(args))
            procs.append(u)
            ue_procs.append((ue_name, u))
        for ue_name, u in ue_procs:
            if u.wait(timeout=60) != 0:
                print(f"{ue_name} failed: {u.stderr.read().decode()[-500:]}",
                      file=sys.stderr)
                return EXIT_RUNTIME

        tmp = out / "manifest.json.tmp"
        manifest.save(tmp)
        os.replace(tmp, out / "manifest.json")

        rc = cloud.wait(timeout=manifest.deadline_s + 120)
        if rc not in (EXIT_OK, EXIT_BARRIER):
            print(f"cloud failed: {cloud.stderr.read().decode()[-800:]}",
                  file=sys.stderr)
        return rc
    finally:
        _terminate(procs)


def _print_report(out: Path, manifest: RunManifest, store: FileStore) -> None:
    log_paths = sorted((out / "logs").glob("*.log"))
    try:
        report = reports.emit_report(manifest.run_id, store, log_paths)
    except reports.ReportError as exc:
        print(f"report unavailable: {exc}")
        return
    (out / "report.csv").write_text(report.csv())
    print(report.summary(), end="")
    print(f"stage timings: {out / 'report.csv'}")


def _cmd_demo(args) -> int:
    cfg, out, profile, seed, deadline = _demo_setup(args)
    which = args.which
    withhold = {args.withhold_region} if args.withhold_region else set()

    case_path = Path(resolve(args.case, cfg, "node.case",
                             str(bundled_case_path("case9"))))
    case = load_case(case_path)
    regions = case.regions()
    dsa = DsaParams(n_raw=args.n_raw, k=args.k, seed=seed) if which == "dsa" else None
    manifest = _demo_manifest(which, seed, deadline, regions, case, dsa)
    deltas = {9: "Open"} if which == "topology" else {}
    open_9 = [{"at_s": 0.2, "kind": "topology", "branches": [{"id": 9, "status": "Open"}]}]
    ue_plan = {f"ue-{i + 1}": (regions[i % len(regions)],
                               open_9 if which == "topology" and i == 1 else [])
               for i in range(3)}

    print(f"demo {which}: run {manifest.run_id} -> {out}")
    store = FileStore(out / "store")
    if args.virtual_time:
        scripts = {name: (region, parse_ue_script(items))
                   for name, (region, items) in ue_plan.items()}
        outcome = run_virtual_demo(case, manifest, store, out / "logs", profile,
                                   scripts, withhold_regions=withhold)
        rc = outcome.exit_code
    else:
        rc = _run_demo_processes(out, case_path, manifest, ue_plan, withhold, args)
    if rc == EXIT_OK:
        rc = _demo_checks(which, case, manifest, deltas, store, profile)
    _print_report(out, manifest, store)
    print(f"demo {which}: exit {rc}")
    return rc


def _demo_checks(which: str, case: GridCase, manifest: RunManifest,
                 deltas: dict[int, str], store: FileStore, profile: LinkProfile) -> int:
    blob = store.get(result_key(manifest.run_id))
    if which == "topology":
        if profile.loss_rate == 0:
            _, expected = pipeline.monolithic_topology(case, deltas, manifest.fault,
                                                       manifest.sim_cfg)
            ok = blob == expected
            print(f"monolithic equivalence: {'PASS (bitwise)' if ok else 'FAIL'}")
            if not ok:
                return EXIT_RUNTIME
        return EXIT_OK

    report = pipeline.parse_dsa_result(blob)
    p_rep = report.insecurity_probability
    print(f"representative insecurity probability (k={manifest.dsa.k}): {p_rep:.4f}")
    p_brute = pipeline.dsa_bruteforce_probability(
        case, deltas, manifest.dsa, manifest.fault, manifest.sim_cfg)
    print(f"brute-force insecurity probability ({manifest.dsa.n_raw} joint raw "
          f"draws): {p_brute:.4f}")
    se = math.sqrt(p_brute * (1 - p_brute) / manifest.dsa.n_raw)
    within = "yes" if abs(p_rep - p_brute) <= 2 * se else "no"
    print(f"brute-force standard error sqrt(p(1-p)/{manifest.dsa.n_raw}): {se:.4f}; "
          f"representative within 2 SE: {within}")
    print(f"difference: {abs(p_rep - p_brute):.4f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    cfg = _load_cfg(args)
    out_dir = Path(args.out_dir) if args.out_dir else None
    store_root = resolve(args.store_root, cfg, "store.root",
                         str(out_dir / "store") if out_dir else "./store")
    logs_dir = Path(resolve(args.logs, cfg, "node.logs",
                            str(out_dir / "logs") if out_dir else "./logs"))
    store = FileStore(store_root)
    log_paths = sorted(logs_dir.glob("*.log")) if logs_dir.exists() else []
    try:
        report = reports.emit_report(args.run_id, store, log_paths)
    except reports.ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.out:
        Path(args.out).write_text(report.csv())
    else:
        print(report.csv(), end="")
    print(report.summary(), end="", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "ybus": _cmd_ybus,
    "simulate": _cmd_simulate,
    "sample": _cmd_sample,
    "ue": _cmd_ue,
    "edge": _cmd_edge,
    "cloud": _cmd_cloud,
    "demo": _cmd_demo,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

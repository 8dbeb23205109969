"""Two-clock benchmark of the ModChecker reproduction.

Usage (from the repository root)::

    python bench/run.py                      # all workloads -> results JSON
    python bench/run.py --quick              # ~10 ops per workload
    python bench/run.py --workload pool-pairwise --seed 42 --seconds 20 \\
        --trace 0                            # one run; last line is JSON
    python bench/run.py compare A.json B.json

Host time is process CPU time, calibrated op by op against a fixed unit
of interpreter work (see :func:`calibrate`), so the numbers are stable
on a shared box. Simulated time is the paper's model clock. A run with
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` re-runs the
workload's deterministic prefix under outside-in hooks
(:mod:`tracing`) and reports per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, SETUP_LAYERS, SIM_STAGES, Tracer
from workloads import WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: CPU ms one :func:`calibrate` call takes on the reference box (2-core
#: x86_64, CPython 3.11). Calibrated times read as that box's CPU ms.
CALIB_REF_MS = 1.2
#: setup repetitions per run; ``setup_s`` is their median
SETUP_REPS = 3
#: traced ops whose spans are kept for the Chrome trace
TRACE_KEEP_OPS = 3
#: a run stops starting ops after this many wall seconds
DEADLINE_S = 150.0

E2E_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "op_p95_ms": "ms",
             "vm_checks_per_s": "1/s", "peak_rss_mb": "MB"}

_CAL_BUF = bytes(range(256)) * 256        # 64 KiB
_CAL_U32 = struct.Struct("<I")


def calibrate() -> tuple[int, int]:
    """One fixed unit of interpreter work; returns its (CPU, wall) ns.

    8k ``struct.unpack_from`` calls, 2k dict updates and an MD5 of
    64 KiB: the same mix of bytecode dispatch, small-object churn and
    native hashing the simulator spends its time on.
    """
    c0, w0 = time.process_time_ns(), time.perf_counter_ns()
    unpack = _CAL_U32.unpack_from
    buf = _CAL_BUF
    acc = 0
    for off in range(0, 8192 * 4, 4):
        acc += unpack(buf, off)[0]
    table: dict[int, int] = {}
    for k in range(2048):
        table[k & 255] = table.get(k & 255, 0) + k
    hashlib.md5(buf).digest()
    return time.process_time_ns() - c0, time.perf_counter_ns() - w0


def _calibrated_ms(raw_ns: float, calib_ns: float) -> float:
    return raw_ns / calib_ns * CALIB_REF_MS


def _round_median(values: list[float], round_len: int) -> float:
    """Median over whole rounds of the mean value per op in the round.

    A round visits every op kind once (each module, each writer phase),
    so op times cluster by kind; a plain median would sit on the
    boundary between two clusters and jump between them from seed to
    seed.
    """
    rounds = [sum(values[i:i + round_len]) / round_len
              for i in range(0, len(values) - round_len + 1, round_len)]
    return statistics.median(rounds or values)


def _p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile (an actual sample)."""
    ordered = sorted(values)
    return ordered[max(0, -(-95 * len(ordered) // 100) - 1)]


def _git_commit() -> str:
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def _provenance(seed: int, calib_ms: float) -> dict:
    return {"commit": _git_commit(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": os.cpu_count(),
            "calib_ref_ms": CALIB_REF_MS, "calib_median_ms": calib_ms,
            "seed": seed}


def _fingerprint(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _import_repro() -> int:
    """Import the package under test; returns the CPU ns it took."""
    c0 = time.process_time_ns()
    import repro.cloud  # noqa: F401
    import repro.obs  # noqa: F401
    return time.process_time_ns() - c0


# -- the closed loop ---------------------------------------------------------

class _Loop:
    """One closed-loop pass: ops back to back, each followed by a
    calibration; everything the metrics need, op by op."""

    def __init__(self) -> None:
        self.cpu_ns: list[int] = []
        self.wall_ns: list[int] = []
        #: mean of the calibrations before and after each op
        self.cal_cpu: list[float] = []
        self.cal_wall: list[float] = []
        self.records: list = []
        self.verdicts: list[int] = []
        self.sim_s: list[float] = []
        self.errors: list[tuple[int, str]] = []
        self.clock_at_prefix: float | None = None
        #: peak RSS once the prefix is done: ops past the prefix depend
        #: on the budget, and retained state (obs spans) grows with them
        self.rss_at_prefix_mb = 0.0
        self.truncated = False

    @property
    def ops(self) -> int:
        return len(self.cpu_ns)

    def cal_ms(self) -> list[float]:
        return [_calibrated_ms(c, k) for c, k in zip(self.cpu_ns, self.cal_cpu)]

    def digest(self, prefix: int) -> str:
        blob = json.dumps([self.records[:prefix], repr(self.clock_at_prefix)],
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _run_ops(wl, st, *, prefix: int, seconds: float, deadline: float,
             tracer=None) -> _Loop:
    """Run ops until ``prefix`` are done and ``seconds`` of wall time
    have passed, stopping on a whole ``round_len`` so every run sees the
    same op mix."""
    loop = _Loop()
    cal_prev = calibrate()
    started = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if now > deadline:
            loop.truncated = i < prefix
            break
        if i >= prefix and i % wl.round_len == 0 \
                and now - started >= seconds:
            break
        if tracer is not None:
            tracer.op, tracer.keep, tracer.on = i, i < TRACE_KEEP_OPS, True
        c0, w0 = time.process_time_ns(), time.perf_counter_ns()
        try:
            op = wl.op(st, i)
        except Exception as exc:    # a failed op, not a failed run
            op = Op(["raised", type(exc).__name__], 0, 0.0,
                    f"raised {type(exc).__name__}: {exc}")
        c1, w1 = time.process_time_ns(), time.perf_counter_ns()
        if tracer is not None:
            tracer.on = False
        cal = calibrate()
        loop.cpu_ns.append(c1 - c0)
        loop.wall_ns.append(w1 - w0)
        loop.cal_cpu.append((cal_prev[0] + cal[0]) / 2)
        loop.cal_wall.append((cal_prev[1] + cal[1]) / 2)
        loop.records.append(op.record)
        loop.verdicts.append(op.verdicts)
        loop.sim_s.append(op.sim_s)
        if op.error is not None:
            loop.errors.append((i, op.error))
        if i == prefix - 1:
            loop.clock_at_prefix = st.hv.clock.now
            loop.rss_at_prefix_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        cal_prev = cal
        i += 1
    return loop


# -- one workload run --------------------------------------------------------

def run_untraced(wl, seed: int, seconds: float, *, quick: bool = False,
                 started: float | None = None) -> dict:
    """Set up ``SETUP_REPS`` times, then the closed loop: end-to-end
    metrics plus raw values and the verdict digest."""
    deadline = (started or time.perf_counter()) + DEADLINE_S
    import_cpu = _import_repro()
    reps = 1 if quick else SETUP_REPS
    setup_cpu, st = [], None
    for _ in range(reps):
        st = None
        gc.collect()
        c0 = time.process_time_ns()
        st = wl.setup(seed)
        setup_cpu.append(import_cpu + time.process_time_ns() - c0)
    gc.collect()
    prefix = wl.quick_ops if quick else wl.prefix_ops
    loop = _run_ops(wl, st, prefix=prefix, seconds=0 if quick else seconds,
                    deadline=deadline)
    op_ms = loop.cal_ms()
    calib_ns = statistics.median(loop.cal_cpu)
    # set-up steps last up to seconds and churn memory, which a single
    # adjacent calibration tracks badly; they use the run's median one
    setup_ms = [_calibrated_ms(c, calib_ns) for c in setup_cpu]
    metrics = {
        "setup_s": statistics.median(setup_ms) / 1000,
        "op_p50_ms": _round_median(op_ms, wl.round_len),
        "op_p95_ms": _p95(op_ms),
        "vm_checks_per_s": sum(loop.verdicts) / (sum(op_ms) / 1000),
        "peak_rss_mb": loop.rss_at_prefix_mb,
    }
    sim_op_ms = _round_median(loop.sim_s[:prefix], wl.round_len) * 1000
    return {
        "workload": wl.name, "seed": seed, "trace": False,
        "provenance": _provenance(seed, calib_ns / 1e6),
        "config": wl.config(), "fingerprint": _fingerprint(wl.config()),
        "attempted": loop.ops, "failed": len(loop.errors),
        "error_rate": len(loop.errors) / max(1, loop.ops),
        "errors": loop.errors[:10], "truncated": loop.truncated,
        "prefix_ops": prefix, "verdict_digest": loop.digest(prefix),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in E2E_UNITS.items()},
        "model": {"sim_op_ms": {"value": sim_op_ms, "unit": "sim_ms"}},
        "raw": {"op_p50_cpu_ms": _round_median(
                    [c / 1e6 for c in loop.cpu_ns], wl.round_len),
                "op_p50_wall_ms": _round_median(
                    [w / 1e6 for w in loop.wall_ns], wl.round_len),
                "setup_cpu_ms": [c / 1e6 for c in setup_cpu],
                "setup_calibrated_ms": setup_ms,
                "calib_cpu_ms_min": min(loop.cal_cpu) / 1e6,
                "calib_cpu_ms_max": max(loop.cal_cpu) / 1e6},
    }


def _session_stats(wl_state, tracer) -> dict:
    """Public counters of the VMI sessions, checkers, traps and obs."""
    vmi_fields = ("pages_mapped", "pages_checksummed", "page_cache_hits",
                  "batch_reads", "batch_fallbacks")
    out = {f: sum(getattr(v.stats, f) for v in tracer.vmis)
           for f in vmi_fields}
    checkers = wl_state.checkers
    out["manifest_hits"] = sum(c.manifests.stats.hits for c in checkers)
    out["manifest_lookups"] = sum(c.manifests.stats.lookups
                                  for c in checkers)
    out["pair_replays"] = sum(c.pair_replays for c in checkers)
    out["trap_fallbacks"] = sum(sum(c.trap_fallbacks.values())
                                for c in checkers)
    out["traps_delivered"] = wl_state.hv.traps.stats.delivered
    obs = wl_state.obs
    out["obs_spans"] = len(obs.tracer.finished_spans()) if obs else 0
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(wl, seed: int, *, quick: bool = False,
               started: float | None = None) -> dict:
    """The deterministic prefix twice: untraced (the overhead baseline
    and a second digest), then under the hooks. Writes the Chrome trace
    to ``bench/out/<workload>.trace.json``."""
    deadline = (started or time.perf_counter()) + DEADLINE_S
    _import_repro()
    n = wl.quick_ops if quick else wl.prefix_ops
    st = wl.setup(seed)
    gc.collect()
    base = _run_ops(wl, st, prefix=n, seconds=0, deadline=deadline)
    st = None
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        tracer.on = True
        w0 = time.perf_counter_ns()
        st = wl.setup(seed)
        setup_wall = time.perf_counter_ns() - w0
        tracer.on = False
        gc.collect()
        before = _session_stats(st, tracer)
        tracer.phase("ops")
        hv = st.hv
        tracer.sim = lambda: hv.dom0_cpu_seconds
        traced = _run_ops(wl, st, prefix=n, seconds=0, deadline=deadline,
                          tracer=tracer)
        after = _session_stats(st, tracer)
    finally:
        tracer.uninstall()
    tracer.write_chrome_trace(OUT / f"{wl.name}.trace.json")

    ops = traced.ops
    wall_factor = CALIB_REF_MS * 1e6 / statistics.median(traced.cal_wall)
    op_wall = sum(traced.wall_ns)
    calls = tracer.by_layer("ops", "calls")
    self_ns = tracer.by_layer("ops", "self_ns")
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        if layer in SETUP_LAYERS:
            continue
        m[f"{layer}.calls_per_op"] = (calls[layer] / ops, "count")
        m[f"{layer}.self_ms_per_op"] = (
            self_ns[layer] / ops * wall_factor / 1e6, "ms")
        m[f"{layer}.self_share"] = (self_ns[layer] / op_wall, "ratio")
    setup_calls = tracer.by_layer("setup", "calls")
    setup_self = tracer.by_layer("setup", "self_ns")
    for layer in SETUP_LAYERS:
        m[f"{layer}.calls_per_setup"] = (setup_calls[layer], "count")
        m[f"{layer}.self_ms_per_setup"] = (
            setup_self[layer] * wall_factor / 1e6, "ms")
        m[f"{layer}.setup_share"] = (setup_self[layer] / setup_wall,
                                     "ratio")
    d = {k: after[k] - before[k] for k in after}
    probes = tracer.phases["ops"]["probes"]
    compares = tracer.hook_value(
        "ops", "calls", "repro.core.integrity:IntegrityChecker.compare_pair")
    m.update({
        "vmi.pages_per_op": (
            (d["pages_mapped"] + d["pages_checksummed"]) / ops, "count"),
        "vmi.page_cache_hit_ratio": (_ratio(
            d["page_cache_hits"], d["page_cache_hits"] + d["pages_mapped"]),
            "ratio"),
        "vmi.batch_fallback_ratio": (_ratio(
            d["batch_fallbacks"], d["batch_reads"] + d["batch_fallbacks"]),
            "ratio"),
        "core.rva.bytes_per_op": (probes["rva_bytes"] / ops, "bytes"),
        "core.rva.unresolved_per_op": (probes["rva_unresolved"] / ops,
                                       "count"),
        "core.modchecker.manifest_hit_ratio": (_ratio(
            d["manifest_hits"], d["manifest_lookups"]), "ratio"),
        "core.modchecker.pair_replay_ratio": (_ratio(
            d["pair_replays"], d["pair_replays"] + compares), "ratio"),
        "core.modchecker.trap_fallbacks_per_op": (
            d["trap_fallbacks"] / ops, "count"),
        "hypervisor.guest_demand_calls_per_op": (
            tracer.phases["ops"]["counts"].get(
                "hypervisor.guest_demand", 0) / ops, "count"),
        "hypervisor.traps_delivered_per_op": (d["traps_delivered"] / ops,
                                              "count"),
        "obs.events_per_op": (tracer.hook_value(
            "ops", "calls", "repro.obs.events:EventLog.emit") / ops,
            "count"),
        "obs.spans_per_op": (d["obs_spans"] / ops, "count"),
    })
    sim = {name.rsplit(".", 1)[1]: tracer.hook_value("ops", "sim_s", name)
           for name in SIM_STAGES}
    model = {
        "sim.searcher_ms_per_op": sim["fetch_modules"] - sim["parse"],
        "sim.parser_ms_per_op": sim["parse"],
        "sim.checker_ms_per_op": sim["check_pool"] - sim["fetch_modules"],
    }
    m["trace.overhead_ratio"] = (
        sum(traced.cal_ms()) / sum(base.cal_ms()), "ratio")
    m["trace.coverage"] = (sum(self_ns.values()) / op_wall, "ratio")
    m["trace.missing_hooks"] = (len(tracer.missing), "count")

    failed = len(base.errors) + len(traced.errors)
    return {
        "workload": wl.name, "seed": seed, "trace": True,
        "provenance": _provenance(
            seed, statistics.median(traced.cal_cpu) / 1e6),
        "config": wl.config(), "fingerprint": _fingerprint(wl.config()),
        "attempted": base.ops + ops, "failed": failed,
        "errors": (base.errors + traced.errors)[:10],
        "truncated": base.truncated or traced.truncated,
        "prefix_ops": n, "verdict_digest": traced.digest(n),
        "untraced_digest": base.digest(n),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in m.items()},
        "model": {name: {"value": sim_s / ops * 1000, "unit": "sim_ms"}
                  for name, sim_s in model.items()},
        "missing_hooks": tracer.missing, "hooks": len(tracer.names),
    }


# -- command line ------------------------------------------------------------

def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_one(args) -> int:
    started = time.perf_counter()
    wl = WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(wl, args.seed, quick=args.quick, started=started)
        correct = (not result["failed"] and not result["truncated"]
                   and result["verdict_digest"] == result["untraced_digest"])
        kind = "layers"
    else:
        result = run_untraced(wl, args.seed, args.seconds, quick=args.quick,
                              started=started)
        correct = not result["failed"] and not result["truncated"]
        kind = "e2e"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{wl.name}.{kind}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True))
    for i, error in result["errors"]:
        print(f"op {i}: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


def _run_all(args) -> int:
    merged: dict = {}
    for name in WORKLOADS:
        for trace, kind in ((0, "e2e"), (1, "layers")):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--quick"] if args.quick else [])
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=DEADLINE_S + 120)
            sys.stderr.write(proc.stderr)
            if proc.returncode:
                print(f"{name} (trace {trace}) exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads((OUT / f"{name}.{kind}.json").read_text())
            entry = merged.setdefault(name, {
                "config": result["config"],
                "fingerprint": result["fingerprint"], "model": {}})
            entry["model"].update(result["model"])
            if trace:
                entry.update(per_layer=result["metrics"],
                             traced_digest=result["verdict_digest"],
                             untraced_prefix_digest=result["untraced_digest"],
                             traced_failed=result["failed"],
                             missing_hooks=result["missing_hooks"])
            else:
                entry.update(end_to_end=result["metrics"],
                             verdict_digest=result["verdict_digest"],
                             attempted=result["attempted"],
                             failed=result["failed"],
                             error_rate=result["error_rate"],
                             errors=result["errors"], raw=result["raw"],
                             provenance=result["provenance"])
    first = merged[next(iter(merged))]["provenance"]
    results = {"provenance": {k: v for k, v in first.items()
                              if k != "calib_median_ms"},
               "seconds": args.seconds, "quick": args.quick,
               "workloads": merged}
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True))
    _print_table(merged)
    print(f"results: {out}; traces: {OUT}/<workload>.trace.json")
    return 0 if all(w["failed"] == 0 and w["traced_failed"] == 0
                    for w in merged.values()) else 1


def _print_table(merged: dict) -> None:
    print(f"{'metric':<18}" + "".join(f"{w:>16}" for w in merged))
    for name in list(E2E_UNITS) + ["sim_op_ms", "error_rate"]:
        row = f"{name:<18}"
        for w in merged.values():
            if name == "error_rate":
                row += f"{w['error_rate']:>16.4f}"
                continue
            metric = w["model" if name == "sim_op_ms" else "end_to_end"][name]
            row += f"{metric['value']:>9.4g} {metric['unit']:<6}"
        print(row)


def _compare(paths: list[str]) -> int:
    """Rows of workload x end-to-end metric; exit 1 on a regression
    beyond the metric's bound, a rise in error rate, or a digest
    change."""
    if len(paths) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in paths)
    specs = _benchmark_spec()["end_to_end"]
    bad: list[str] = []
    print(f"{'workload':<16}{'metric':<17}{'A':>12}{'B':>12}"
          f"{'change':>9}{'bound':>7}  verdict")
    for wl in [w for w in a if w in b]:
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            va = a[wl]["end_to_end"][name]["value"]
            vb = b[wl]["end_to_end"][name]["value"]
            change = (vb - va) / va
            worse = change if spec["better"] == "lower" else -change
            verdict = "ok"
            if worse > bound:
                verdict = "WORSE"
                bad.append(f"{wl} {name}")
            print(f"{wl:<16}{name:<17}{va:>12.5g}{vb:>12.5g}"
                  f"{change:>+9.2%}{bound:>7.0%}  {verdict}")
        ea, eb = a[wl]["error_rate"], b[wl]["error_rate"]
        print(f"{wl:<16}{'error_rate':<17}{ea:>12.5g}{eb:>12.5g}"
              f"{'':>16}  {'WORSE' if eb > ea else 'ok'}")
        if eb > ea:
            bad.append(f"{wl} error_rate")
        sa = a[wl]["model"]["sim_op_ms"]["value"]
        sb = b[wl]["model"]["sim_op_ms"]["value"]
        print(f"{wl:<16}{'sim_op_ms':<17}{sa:>12.5g}{sb:>12.5g}"
              f"{'':>16}  (the model; covered by the digest)")
        same = a[wl]["verdict_digest"] == b[wl]["verdict_digest"]
        print(f"{wl:<16}{'verdict_digest':<17}"
              f"{'same' if same else 'DIFFERENT':>24}")
        if not same:
            bad.append(f"{wl} verdict_digest")
        la, lb = a[wl].get("per_layer", {}), b[wl].get("per_layer", {})
        moved = sorted(k for k in la if k.endswith(".calls_per_op")
                       and k in lb and la[k]["value"] != lb[k]["value"])
        if moved:
            print(f"{wl:<16}calls_per_op changed (not gated): "
                  f"{', '.join(moved)}")
    if bad:
        print(f"REGRESSION: {'; '.join(bad)}")
        return 1
    print("no regression beyond the bounds")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return _compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measured wall seconds per untraced run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="a few ops per workload, one setup")
    parser.add_argument("--out", help="results JSON (all-workload mode)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package under test at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.seconds is None:
        args.seconds = _benchmark_spec()["run_seconds"]
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Experiment harness: regenerate every paper table/figure as text.

Usage::

    python benchmarks/harness.py            # everything
    python benchmarks/harness.py e1 fig7    # selected experiments

Experiments: e1 e2 e3 e4 fig4 fig7 fig8 fig9 a1..a7 h1 rw
Options: --csv DIR   also write figure series as CSV

Each command prints the same rows/series the paper's corresponding
figure plots (simulated seconds — shapes, not absolute hardware
numbers). EXPERIMENTS.md records a captured run against the paper.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Allow `python benchmarks/harness.py` from the repo root: the sibling
# experiment modules import as the `benchmarks` package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.analysis import (detect_knee, format_seconds, linear_fit,
                            render_series, render_table)
from repro.attacks import attack_for_experiment
from repro.cloud import build_testbed
from repro.core import ADJUSTERS, ModChecker
from repro.guest import build_catalog
from repro.perf import HEAVY_LOAD, GuestResourceMonitor, apply_workload

SEED = 42
VICTIM = "Dom3"

#: When set (via --csv DIR), figure sweeps also write CSV series here.
EXPORT_DIR: Path | None = None


def _export(name: str, columns: dict, meta: dict | None = None) -> None:
    if EXPORT_DIR is None:
        return
    from repro.analysis import SeriesBundle, write_csv
    bundle = SeriesBundle(name=name, meta=meta or {})
    for label, values in columns.items():
        bundle.add_column(label, list(values))
    path = write_csv(bundle, EXPORT_DIR / f"{name}.csv")
    print(f"[csv] wrote {path}")


# --------------------------------------------------------------------------
# Detection experiments (paper §V-B)
# --------------------------------------------------------------------------

def run_detection(exp_id: str) -> None:
    attack, module = attack_for_experiment(exp_id)
    catalog = build_catalog(seed=SEED)
    result = attack.apply(catalog[module])
    tb = build_testbed(6, seed=SEED,
                       infected={VICTIM: {module: result.infected}})
    mc = ModChecker(tb.hypervisor, tb.profile)
    report = mc.check_pool(module).report

    print(f"\n=== {exp_id}: {attack.name} on {module} "
          f"(victim {VICTIM}, pool of {len(tb.vm_names)}) ===")
    rows = []
    for vm in report.vm_names:
        v = report.verdicts[vm]
        rows.append([vm, f"{v.matches}/{v.comparisons}",
                     "CLEAN" if v.clean else "FLAGGED",
                     ", ".join(v.mismatched_regions) or "-"])
    print(render_table(["VM", "matches", "verdict", "mismatched components"],
                       rows))
    got = set(report.mismatched_regions(VICTIM))
    expected = set(result.expected_regions)
    print(f"paper signature reproduced: {got == expected} "
          f"({len(got)} component(s))")


# --------------------------------------------------------------------------
# Fig. 4 — RVA adjustment illustration
# --------------------------------------------------------------------------

def run_fig4() -> None:
    """Recreate the paper's Fig. 4 walk-through on the dummy driver."""
    import hashlib

    catalog = build_catalog(seed=SEED)
    tb = build_testbed(2, seed=SEED)
    mc = ModChecker(tb.hypervisor, tb.profile)
    parsed, *_ = mc.fetch_modules("dummy.sys", tb.vm_names)
    a, b = parsed
    ra = next(r for r in a.code_regions if r.name == ".text")
    rb = next(r for r in b.code_regions if r.name == ".text")
    da, db = a.region_bytes(ra), b.region_bytes(rb)

    print("\n=== Fig. 4: RVA adjustment of dummy.sys .text across 2 VMs ===")
    print(f"VM1 base: {a.base:#010x}    VM2 base: {b.base:#010x}")
    print(f"raw .text MD5s:      {hashlib.md5(da).hexdigest()}  "
          f"{hashlib.md5(db).hexdigest()}  "
          f"match={hashlib.md5(da).hexdigest() == hashlib.md5(db).hexdigest()}")
    adj_a, adj_b, stats = ADJUSTERS["robust"](da, a.base, db, b.base)
    print(f"adjusted .text MD5s: {hashlib.md5(adj_a).hexdigest()}  "
          f"{hashlib.md5(adj_b).hexdigest()}  "
          f"match={adj_a == adj_b}")
    print(f"absolute addresses reverted to RVAs: {stats.replaced}; "
          f"unresolved: {stats.unresolved}")
    # show one adjusted window like the figure's hex panels
    diffs = [i for i, (x, y) in enumerate(zip(da, db)) if x != y]
    if diffs:
        j = max(diffs[0] - 4, 0)
        w = slice(j, j + 12)
        print(f"window @+{j:#06x}  VM1: {da[w].hex(' ')}")
        print(f"               VM2: {db[w].hex(' ')}")
        print(f"          adjusted: {adj_a[w].hex(' ')}")


# --------------------------------------------------------------------------
# Fig. 7 / Fig. 8 — runtime sweeps
# --------------------------------------------------------------------------

def _sweep(tb, loaded: bool):
    mc = ModChecker(tb.hypervisor, tb.profile)
    rows = []
    for t in range(2, len(tb.vm_names) + 1):
        vms = tb.vm_names[:t]
        tb.set_guest_loads(0.0)
        if loaded:
            for name in vms:
                apply_workload(tb.hypervisor.domain(name), HEAVY_LOAD)
        out = mc.check_on_vm("http.sys", vms[0], vms)
        rows.append((t, out.timings))
    tb.set_guest_loads(0.0)
    return rows


def run_fig7() -> None:
    tb = build_testbed(15, seed=SEED)
    rows = _sweep(tb, loaded=False)
    print("\n=== Fig. 7: runtime vs #VMs, idle guests (simulated s) ===")
    print(render_table(
        ["#VMs", "Module-Searcher", "Module-Parser", "Integrity-Checker",
         "ModChecker total"],
        [[t, format_seconds(tm.searcher), format_seconds(tm.parser),
          format_seconds(tm.checker), format_seconds(tm.total)]
         for t, tm in rows]))
    xs = [t for t, _ in rows]
    ys = [tm.total for _, tm in rows]
    _export("fig7_idle_runtime", {
        "n_vms": xs,
        "searcher_s": [tm.searcher for _, tm in rows],
        "parser_s": [tm.parser for _, tm in rows],
        "checker_s": [tm.checker for _, tm in rows],
        "total_s": ys,
    }, {"module": "http.sys", "seed": SEED})
    fit = linear_fit(xs, ys)
    print(f"linearity: R^2 = {fit.r_squared:.5f} "
          f"(slope {format_seconds(fit.slope)}/VM); knee: "
          f"{detect_knee(xs, ys)}")
    print(render_series(xs, ys, title="total runtime", x_label="#VMs",
                        y_label="sim s"))


def run_fig8() -> None:
    tb = build_testbed(15, seed=SEED)
    idle = _sweep(tb, loaded=False)
    loaded = _sweep(tb, loaded=True)
    print("\n=== Fig. 8: runtime vs #VMs, HeavyLoad guests (simulated s) ===")
    print(render_table(
        ["#VMs", "Searcher", "Parser", "Checker", "total(loaded)",
         "total(idle)", "slowdown"],
        [[t, format_seconds(tm.searcher), format_seconds(tm.parser),
          format_seconds(tm.checker), format_seconds(tm.total),
          format_seconds(ti.total), f"{tm.total / ti.total:.2f}x"]
         for (t, tm), (_, ti) in zip(loaded, idle)]))
    xs = [t for t, _ in loaded]
    ys = [tm.total for _, tm in loaded]
    _export("fig8_loaded_runtime", {
        "n_vms": xs,
        "total_loaded_s": ys,
        "total_idle_s": [ti.total for _, ti in idle],
    }, {"module": "http.sys", "seed": SEED})
    knee = detect_knee(xs, ys)
    cores = tb.hypervisor.cpu.logical_cpus
    print(f"knee at ~{knee} VMs (logical CPUs: {cores}) — the paper's "
          f"'sudden nonlinear growth' past the virtual-core count")
    print(render_series(xs, ys, title="total runtime (loaded)",
                        x_label="#VMs", y_label="sim s"))


# --------------------------------------------------------------------------
# Fig. 9 — in-guest impact
# --------------------------------------------------------------------------

def run_fig9() -> None:
    tb = build_testbed(3, seed=SEED)
    mc = ModChecker(tb.hypervisor, tb.profile)
    monitor = GuestResourceMonitor(tb.hypervisor.domain("Dom1"), tb.clock,
                                   seed=7)
    def check():
        return mc.check_pool("http.sys")
    trace = monitor.run(duration=120.0, interval=0.5,
                        events=[(t, check) for t in (20, 50, 80, 110)])
    print("\n=== Fig. 9: in-guest resource impact during introspection ===")
    print(f"introspection windows: "
          f"{[(round(a, 2), round(b, 2)) for a, b in trace.introspection_windows]}")
    rows = []
    for attr in ("cpu_idle_pct", "cpu_user_pct", "cpu_privileged_pct",
                 "mem_free_physical_pct", "mem_free_virtual_pct",
                 "page_faults_per_s"):
        inside, outside = trace.split_by_window(attr)
        z = trace.perturbation(attr)
        rows.append([attr, f"{outside.mean():.2f}", f"{inside.mean():.2f}",
                     f"{z:.2f}", "none" if z < 3 else "PERTURBED"])
    print(render_table(["series", "mean outside", "mean inside",
                        "|z|", "perturbation"], rows))
    t, idle = trace.series("cpu_idle_pct")
    _, free = trace.series("mem_free_physical_pct")
    _export("fig9_guest_impact", {
        "t_s": list(t), "cpu_idle_pct": list(idle),
        "mem_free_physical_pct": list(free),
    }, {"windows": trace.introspection_windows})


# --------------------------------------------------------------------------
# Ablations
# --------------------------------------------------------------------------

def run_a1() -> None:
    print("\n=== A1: parallel introspection (paper §V-C-1 future work) ===")
    rows = []
    for threads in (1, 2, 4, 8):
        tb = build_testbed(12, seed=SEED)
        seq = ModChecker(tb.hypervisor, tb.profile)
        with tb.clock.span() as s:
            seq.check_on_vm("http.sys", "Dom1")
        par = ModChecker(tb.hypervisor, tb.profile, workers=threads)
        with tb.clock.span() as p:
            par.check_on_vm("http.sys", "Dom1")
        rows.append([threads, format_seconds(s.elapsed),
                     format_seconds(p.elapsed),
                     f"{s.elapsed / p.elapsed:.2f}x"])
    print(render_table(["Dom0 threads", "sequential", "parallel", "speedup"],
                       rows))


def run_a2() -> None:
    print("\n=== A2: libvmi cache ablation ===")
    rows = []
    for label, kwargs in (
            ("caches off", dict(enable_caches=False)),
            ("flush each round (default)",
             dict(enable_caches=True, flush_caches_each_round=True)),
            ("warm caches", dict(enable_caches=True,
                                 flush_caches_each_round=False))):
        tb = build_testbed(8, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile, **kwargs)
        mc.check_pool("http.sys")
        with tb.clock.span() as span:
            mc.check_pool("http.sys")
        rows.append([label, format_seconds(span.elapsed)])
    print(render_table(["configuration", "round time (sim)"], rows))


def run_a3() -> None:
    import time
    from benchmarks.test_ablation_rva import BASE1, BASE2, N_SLOTS, _big_pair
    from tests.core.rva_oracle import oracle_adjust_rva_robust
    print("\n=== A3: Algorithm 2 implementation ablation "
          f"(256 KiB section, {N_SLOTS} fixups) ===")
    canonical, c1, c2 = _big_pair()
    rows = []
    variants = {**ADJUSTERS, "oracle (per-byte)": oracle_adjust_rva_robust}
    for mode, fn in variants.items():
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            adj1, adj2, stats = fn(c1, BASE1, c2, BASE2)
            best = min(best, time.perf_counter() - t0)
        rows.append([mode, f"{best * 1e3:.1f} ms", stats.replaced,
                     stats.unresolved,
                     "yes" if adj1 == adj2 == canonical else "NO"])
    print(render_table(["variant", "wall time (min of 5)", "replaced",
                        "unresolved", "recovers canonical"], rows))


def run_a4() -> None:
    from benchmarks.test_ablation_majority import POOL, spread_outcome
    print("\n=== A4: majority vote vs infection spread "
          f"(pool of {POOL}) ===")
    rows = []
    for k in range(0, POOL + 1):
        n_flagged, victims_flagged, discrepancy = spread_outcome(k)
        rows.append([k, n_flagged,
                     "yes" if victims_flagged and k else "-",
                     "yes" if discrepancy else "no"])
    print(render_table(["#infected", "#flagged", "victims all flagged",
                        "discrepancy raised"], rows))


def run_a5() -> None:
    import time
    from repro.core import SUPPORTED_HASHES
    print("\n=== A5: digest-algorithm ablation (6-VM pool check) ===")
    rows = []
    for algorithm in SUPPORTED_HASHES:
        tb = build_testbed(6, seed=SEED)
        mc = ModChecker(tb.hypervisor, tb.profile, hash_algorithm=algorithm)
        t0 = time.perf_counter()
        report = mc.check_pool("http.sys").report
        dt = time.perf_counter() - t0
        rows.append([algorithm, f"{dt * 1e3:.1f} ms",
                     "clean" if report.all_clean else "FLAGGED"])
    print(render_table(["digest", "wall time", "verdict"], rows))
    print("verdicts are digest-agnostic; MD5 matches the paper, SHA-256 "
          "is the modern deployment choice")


def run_h1() -> None:
    from repro.core import ModuleSearcher
    from repro.errors import ModuleNotLoadedError
    print("\n=== H1: hidden-module detection (anti-DKOM extension) ===")
    tb = build_testbed(4, seed=SEED)
    kernel = tb.hypervisor.domain("Dom2").kernel
    mod = kernel.module("dummy.sys")
    text = tb.catalog["dummy.sys"].section(".text")
    kernel.aspace.write(mod.base + text.virtual_address + 0x18, b"\xCC\xCC")
    kernel.unload_module("dummy.sys")
    print("staged: dummy.sys patched in memory and unlinked from "
          "PsLoadedModuleList on Dom2")

    mc = ModChecker(tb.hypervisor, tb.profile)
    try:
        ModuleSearcher(mc.vmi_for("Dom2")).find("dummy.sys")
        blind = False
    except ModuleNotLoadedError:
        blind = True
    print(f"list-walking searcher blind: {blind}")
    hidden = mc.detect_hidden_modules("Dom2")
    for carved, name in hidden:
        print(f"carver: image at {carved.base:#010x} "
              f"({len(carved.image)} bytes) identified as {name}")
        report = mc.check_carved_module(carved, name)
        print(f"integrity vs pool: "
              f"{'clean' if report.clean else 'TAMPERED'} "
              f"({', '.join(report.mismatched_regions())})")


def run_a6() -> None:
    print("\n=== A6: pool-check algorithm — pairwise O(t²) vs "
          "canonical O(t) ===")
    tb = build_testbed(15, seed=SEED)
    mc = ModChecker(tb.hypervisor, tb.profile)
    rows = []
    for t in (4, 8, 12, 15):
        vms = tb.vm_names[:t]
        pw = mc.check_pool("http.sys", vms, mode="pairwise")
        cn = mc.check_pool("http.sys", vms, mode="canonical")
        rows.append([t, t * (t - 1) // 2, t - 1,
                     format_seconds(pw.timings.checker),
                     format_seconds(cn.timings.checker),
                     f"{pw.timings.checker / cn.timings.checker:.1f}x"])
    print(render_table(["#VMs", "pairwise cmps", "canonical cmps",
                        "pairwise checker", "canonical checker", "speedup"],
                       rows))


def run_a7() -> None:
    import importlib.util
    from pathlib import Path
    spec = importlib.util.spec_from_file_location(
        "_a7", Path(__file__).resolve().parent
        / "test_ablation_versioning.py")
    mod = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(mod)
    from repro.core import check_pool_versioned
    print("\n=== A7: version drift — rolling hal.dll update over a "
          "9-VM pool ===")
    rows = []
    for n_updated in range(0, 10):
        mc, parsed, _ = mod.rollout_pool(9, n_updated)
        naive = mc.checker.check_pool(parsed)
        versioned = check_pool_versioned(parsed, mc.checker)
        rows.append([n_updated, len(naive.flagged()),
                     len(versioned.flagged()),
                     ",".join(versioned.singletons) or "-"])
    print(render_table(["#updated VMs", "naive flags", "versioned flags",
                        "suspicious singletons"], rows))
    print("naive cross-checking false-alarms through the whole rollout; "
          "fingerprint partitioning stays quiet except for 1-VM cohorts")


def run_rw() -> None:
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "_rw", Path(__file__).resolve().parent
        / "test_related_work_matrix.py")
    mod = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(mod)

    class _Bench:
        def pedantic(self, fn, rounds=1, iterations=1):
            return fn()
    print("\n=== RW: related-work detection matrix (paper SS II) ===")
    # reuse the bench's matrix builder through its benchmark shim
    matrix = None
    def capture(fn, rounds=1, iterations=1):
        nonlocal matrix
        matrix = fn()
        return matrix
    bench = type("B", (), {"pedantic": staticmethod(capture)})()
    try:
        mod.test_detection_matrix(bench)
    except AssertionError:
        pass
    scenarios = ["file-level", "memory-level", "update", "all-infected"]
    tools = ["modchecker", "svv", "dictionary"]
    rows = []
    for scenario in scenarios:
        rows.append([scenario] + [
            ("ALARM" if matrix[(scenario, tool)] else "quiet")
            for tool in tools])
    print(render_table(["scenario"] + tools, rows))
    print("file-level: SVV quiet = its disk-first blind spot; "
          "update: dictionary ALARM = the false positive ModChecker "
          "exists to avoid; all-infected: cross-VM blind spot")


COMMANDS = {
    "e1": lambda: run_detection("E1"),
    "e2": lambda: run_detection("E2"),
    "e3": lambda: run_detection("E3"),
    "e4": lambda: run_detection("E4"),
    "fig4": run_fig4,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "a1": run_a1,
    "a2": run_a2,
    "a3": run_a3,
    "a4": run_a4,
    "a5": run_a5,
    "a6": run_a6,
    "a7": run_a7,
    "h1": run_h1,
    "rw": run_rw,
}


def main(argv: list[str]) -> int:
    global EXPORT_DIR
    args = list(argv)
    if "--csv" in args:
        i = args.index("--csv")
        try:
            EXPORT_DIR = Path(args[i + 1])
        except IndexError:
            print("--csv needs a directory argument")
            return 2
        del args[i:i + 2]
    targets = [a.lower() for a in args] or list(COMMANDS)
    unknown = [t for t in targets if t not in COMMANDS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; "
              f"known: {' '.join(COMMANDS)}")
        return 2
    for target in targets:
        COMMANDS[target]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

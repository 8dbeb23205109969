"""Command-line interface: ``python -m repro.cli`` (or ``modchecker``).

Drives the whole reproduction from a shell::

    modchecker check --module hal.dll --vms 6
    modchecker check --module hal.dll --vms 6 --infect E1 --victim Dom3
    modchecker sweep --vms 4
    modchecker hidden --vms 3 --hide dummy.sys --victim Dom2
    modchecker daemon --vms 4 --cycles 5 --infect E2 --victim Dom2
    modchecker daemon --vms 5 --cycles 10 --churn-rate 0.2
    modchecker chaos --vms 5 --cycles 20 --admit-infected 5
    modchecker explain --vms 4 --infect E1 --victim Dom3
    modchecker fleet --vms 64 --shard-size 16 --cycles 5
    modchecker profile --scenario substrate --flame-out profile.folded
    modchecker experiment e1 fig7 ...      # the benchmark harness

Exit status: 0 = no discrepancy, 1 = discrepancy detected (so the tool
scripts cleanly into cron-style monitoring), 2 = usage error. Flag values
are parsed and range-checked once, by argparse: a malformed or
out-of-range value is a usage error on every subcommand, fleet included.

``fleet`` is the operational health check and follows the stricter
node-pipeline contract instead: 0 = OK (healthy, or killswitch
active), 1 = WARN (degraded availability, no integrity finding),
2 = CRITICAL (integrity/hidden-module/decoy alert), 3 = UNKNOWN
(bad ``--sink`` configuration).

``--slo`` / ``--slo-config`` (on daemon, chaos, fleet) attach the SLO
engine: the run additionally evaluates error budgets and multi-window
burn rates, and the exit status is raised to the SLO verdict (budget
exhausted -> 1/WARN, burn-rate critical -> 2/CRITICAL) — the same
contract the fleet check speaks. See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .analysis import format_seconds, render_table
from .attacks import attack_for_experiment
from .cloud import build_testbed
from .core import ADJUSTERS, ModChecker
from .core.daemon import CheckDaemon, RoundRobinPolicy
from .errors import InsufficientPool
from .guest import build_catalog

__all__ = ["main", "build_arg_parser"]

DEFAULT_SEED = 2012


def _checked(kind, ok, rule: str):
    """An argparse ``type=`` parsing with ``kind`` and range-checking with
    ``ok``; a bad value is a usage error (exit 2) naming the flag."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    # argparse names the type in its "invalid <type> value" message
    parse.__name__ = kind.__name__
    return parse


_RATE = _checked(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_NONZERO_RATE = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_POSITIVE = _checked(float, lambda v: v > 0.0, "> 0")
_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, ">= 1")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modchecker",
        description="ModChecker reproduction: cross-VM kernel-module "
                    "integrity checking on a simulated cloud.")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="deterministic testbed seed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs(p):
        p.add_argument("--trace-out", metavar="PATH",
                       help="write a Chrome trace-event JSON of the run "
                            "(load via chrome://tracing or Perfetto)")
        p.add_argument("--metrics-out", metavar="PATH",
                       help="write run metrics; .json suffix = JSON "
                            "snapshot, anything else = Prometheus text")
        p.add_argument("--events-out", metavar="PATH",
                       help="write the structured JSONL audit log of "
                            "the run (correlated by check_id)")

    def add_common(p):
        p.add_argument("--vms", type=_AT_LEAST_ONE, default=6,
                       help="number of cloned guests")
        p.add_argument("--infect", metavar="EXP",
                       help="stage a paper experiment (E1..E4) first")
        p.add_argument("--victim", default="Dom3",
                       help="VM that boots the infected module")
        p.add_argument("--fault-rate", type=_RATE, default=0.0,
                       metavar="P",
                       help="inject transient introspection faults on "
                            "P of guest reads (deterministic, seeded "
                            "from --seed)")
        add_obs(p)

    def add_checker(p):
        """The ModChecker flags; :func:`_checker_kwargs` maps them."""
        p.add_argument("--retry", type=int, default=None, metavar="N",
                       help="attempts per failing guest read "
                            "(default: policy default; 0 disables "
                            "retries)")
        p.add_argument("--evidence-out", metavar="DIR",
                       help="capture an evidence bundle into DIR for "
                            "every non-clean pool verdict")
        p.add_argument("--incremental", action="store_true",
                       help="skip copy/parse/compare for modules whose "
                            "content-addressed page manifest still "
                            "matches (cheap per-page checksum sweep)")
        p.add_argument("--recheck-ttl", type=_POSITIVE, default=None,
                       metavar="SECONDS",
                       help="force a full re-verification of a manifest "
                            "this long after its last clean full check "
                            "(default: never)")
        p.add_argument("--event-driven", action="store_true",
                       help="write-protect committed manifests and "
                            "re-check only trapped pages — O(writes) "
                            "steady state (implies --incremental)")

    def add_slo(p):
        p.add_argument("--slo", action="store_true",
                       help="track SLOs (cycle/detection latency, MTTR, "
                            "coverage) with the default objectives and "
                            "raise the exit status to the SLO verdict "
                            "(budget exhausted=1, burn critical=2)")
        p.add_argument("--slo-config", metavar="PATH",
                       help="JSON SLO config (objectives, windows, burn "
                            "thresholds); implies --slo. Schema in "
                            "docs/OBSERVABILITY.md")

    def add_repair(p):
        p.add_argument("--repair", nargs="?", const="repair", default=None,
                       choices=["repair", "quarantine-on-repeat-failure"],
                       metavar="POLICY",
                       help="restore tampered modules in place from the "
                            "majority reference and re-verify (bare "
                            "--repair; POLICY=quarantine-on-repeat-"
                            "failure additionally trips the VM's breaker "
                            "when the retry budget runs out)")
        p.add_argument("--repair-attempts", type=_AT_LEAST_ONE, default=3,
                       metavar="N",
                       help="restore attempts per tampered module before "
                            "giving up (default: 3)")

    p_check = sub.add_parser("check", help="cross-check one module")
    add_common(p_check)
    add_checker(p_check)
    add_repair(p_check)
    p_check.add_argument("--module", default="hal.dll")
    p_check.add_argument("--rva-mode", default="robust",
                         choices=sorted(ADJUSTERS))
    p_check.add_argument("--hash", default="md5",
                         choices=["md5", "sha1", "sha256"])
    p_check.add_argument("--pool-mode", default="pairwise",
                         choices=["pairwise", "canonical"],
                         help="pairwise = paper's O(t^2) vote; canonical "
                              "= O(t) fingerprint clustering")

    p_sweep = sub.add_parser("sweep", help="check every loaded module")
    add_common(p_sweep)
    add_checker(p_sweep)
    add_repair(p_sweep)

    p_hidden = sub.add_parser("hidden", help="carve for DKOM-hidden modules")
    p_hidden.add_argument("--vms", type=_AT_LEAST_ONE, default=3)
    p_hidden.add_argument("--hide", metavar="MODULE",
                          help="unlink MODULE on the victim first (demo)")
    p_hidden.add_argument("--victim", default="Dom2")

    p_cross = sub.add_parser("crossview",
                             help="compare listed vs carved module views")
    p_cross.add_argument("--vms", type=_AT_LEAST_ONE, default=3)
    p_cross.add_argument("--hide", metavar="MODULE",
                         help="demo: unlink MODULE on the victim")
    p_cross.add_argument("--decoy", action="store_true",
                         help="demo: plant a fake LDR entry on the victim")
    p_cross.add_argument("--victim", default="Dom2")

    p_dump = sub.add_parser("dump",
                            help="acquire memory dumps and check offline")
    add_common(p_dump)
    p_dump.add_argument("--module", default="hal.dll")

    p_daemon = sub.add_parser("daemon", help="run periodic checking cycles")
    add_common(p_daemon)
    add_checker(p_daemon)
    add_repair(p_daemon)
    p_daemon.add_argument("--cycles", type=int, default=5)
    p_daemon.add_argument("--interval", type=_POSITIVE, default=60.0)
    p_daemon.add_argument("--churn-rate", type=_RATE, default=0.0,
                          metavar="P",
                          help="drive seeded lifecycle churn (reboots, "
                               "pauses, migrations, destroys, creates) "
                               "at scalar rate P between cycles")
    add_slo(p_daemon)

    p_chaos = sub.add_parser(
        "chaos", help="soak the daemon under lifecycle churn")
    p_chaos.add_argument("--vms", type=_AT_LEAST_ONE, default=5,
                         help="initial pool size")
    p_chaos.add_argument("--cycles", type=int, default=20)
    p_chaos.add_argument("--interval", type=_POSITIVE, default=60.0)
    p_chaos.add_argument("--churn-rate", type=_NONZERO_RATE, default=0.2,
                         metavar="P",
                         help="scalar churn knob, split across event "
                              "kinds (see ChaosConfig.from_churn_rate)")
    p_chaos.add_argument("--admit-infected", type=int, default=None,
                         metavar="CYCLE",
                         help="boot an infected clone into the pool at "
                              "this cycle (the detection-under-churn "
                              "scenario)")
    p_chaos.add_argument("--infect", metavar="EXP", default="E2",
                         help="which paper infection the clone carries")
    add_obs(p_chaos)
    add_checker(p_chaos)
    add_repair(p_chaos)
    add_slo(p_chaos)

    p_explain = sub.add_parser(
        "explain",
        help="render a forensic incident report for a non-clean check")
    add_common(p_explain)
    add_checker(p_explain)
    p_explain.add_argument("--bundle", metavar="PATH",
                           help="load and render an existing evidence "
                                "bundle instead of re-running a scenario")
    p_explain.add_argument("--module", default="hal.dll",
                           help="module to check when re-running")
    p_explain.add_argument("--bundle-out", metavar="PATH",
                           help="also persist the captured bundle here")

    p_fleet = sub.add_parser(
        "fleet",
        help="run the sharded fleet health check (OK/WARN/CRITICAL)")
    add_common(p_fleet)
    add_checker(p_fleet)
    add_repair(p_fleet)
    p_fleet.set_defaults(vms=24)
    p_fleet.add_argument("--shard-size", type=_AT_LEAST_ONE, default=8,
                         help="max VMs per voting shard; same-key "
                              "overflow opens a sibling shard")
    p_fleet.add_argument("--workers", type=_AT_LEAST_ONE, default=8,
                         help="Dom0 threads the shard scheduler models")
    p_fleet.add_argument("--cycles", type=int, default=5)
    p_fleet.add_argument("--interval", type=_POSITIVE, default=60.0)
    p_fleet.add_argument("--churn-rate", type=_RATE, default=0.0,
                         metavar="P",
                         help="seeded lifecycle churn across the fleet")
    p_fleet.add_argument("--no-borrow", action="store_true",
                         help="never lend sibling references to "
                              "quorum-starved shards")
    p_fleet.add_argument("--killswitch", action="store_true",
                         help="skip all checks and exit OK (the "
                              "fleet-wide disable used during "
                              "maintenance windows)")
    p_fleet.add_argument("--sink", default="do_nothing",
                         help="telemetry destination for the result "
                              "record: do_nothing (default), stdout, "
                              "jsonl, prometheus")
    p_fleet.add_argument("--sink-opts", action="append", default=None,
                         metavar="KEY=VALUE",
                         help="sink options (repeatable), e.g. "
                              "path=fleet.jsonl")
    add_slo(p_fleet)

    p_profile = sub.add_parser(
        "profile",
        help="run a traced scenario and report where the simulated "
             "microseconds went")
    p_profile.add_argument("--scenario", default="substrate",
                           choices=["substrate", "fleet"],
                           help="substrate = sequential daemon sweeps "
                                "(exclusive-time weights); fleet = the "
                                "sharded scheduler (charged-CPU weights, "
                                "since shard clocks are frozen under "
                                "deferred charging)")
    p_profile.add_argument("--vms", type=_AT_LEAST_ONE, default=None,
                           help="pool size (default: 6 substrate, "
                                "24 fleet)")
    p_profile.add_argument("--cycles", type=int, default=3)
    p_profile.add_argument("--top", type=int, default=10,
                           help="hotspot rows to print")
    p_profile.add_argument("--flame-out", metavar="PATH",
                           help="write collapsed-stack text (feed to "
                                "flamegraph.pl or speedscope)")
    p_profile.add_argument("--json-out", metavar="PATH",
                           help="write the machine-readable profile "
                                "(modchecker-profile/1)")

    p_exp = sub.add_parser("experiment",
                           help="run paper experiments (harness)")
    p_exp.add_argument("targets", nargs="*",
                       help="e1 e2 e3 e4 fig4 fig7 fig8 fig9 a1..a7 h1 rw "
                            "(default: all)")
    return parser


def _build(args, module: str | None = None):
    infected = None
    if getattr(args, "infect", None):
        attack, target_module = attack_for_experiment(args.infect)
        if module is not None and target_module != module:
            # the experiment dictates its own module; tell the user
            print(f"note: {args.infect} targets {target_module}; "
                  f"checking that instead of {module}")
        module = target_module
        catalog = build_catalog(seed=args.seed)
        result = attack.apply(catalog[module])
        infected = {args.victim: {module: result.infected}}
    tb = build_testbed(args.vms, seed=args.seed, infected=infected)
    _install_faults(args, tb.hypervisor)
    return tb, module


def _install_faults(args, hypervisor) -> None:
    """Inject seeded transient read faults at --fault-rate (none at 0)."""
    rate = getattr(args, "fault_rate", 0.0)
    if not rate:
        return
    from .hypervisor.faults import FaultConfig, FaultInjector
    from .rng import derive_seed
    FaultInjector(FaultConfig(transient_rate=rate),
                  seed=derive_seed(args.seed, "cli-faults")
                  ).install(hypervisor)
    print(f"(faults) injecting transient faults on {rate:.1%} of "
          f"guest reads")


def _obs_for(args, clock, live=False):
    """Observability for this invocation: live when any flag is set (or
    ``live``); the tracer, which keeps every span and charge, only when
    ``--trace-out`` writes them."""
    from .obs import NULL_OBS, NULL_TRACER, make_observability
    if getattr(args, "trace_out", None):
        return make_observability(clock)
    if (live or getattr(args, "metrics_out", None)
            or getattr(args, "events_out", None)):
        return replace(make_observability(clock), tracer=NULL_TRACER)
    return NULL_OBS


def _evidence_for(args):
    """An EvidenceRecorder writing to --evidence-out, when requested."""
    out_dir = getattr(args, "evidence_out", None)
    if not out_dir:
        return None
    from .forensics import EvidenceRecorder
    return EvidenceRecorder(out_dir=out_dir)


def _export_obs(args, obs, evidence=None) -> None:
    """Write the trace / metrics / events files the user asked for."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from .analysis.export import write_chrome_trace
        write_chrome_trace(obs.tracer, trace_out)
        print(f"(obs) wrote {len(obs.tracer.spans)} spans to {trace_out}")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        if metrics_out.endswith(".json"):
            obs.metrics.write_json(metrics_out)
        else:
            obs.metrics.write_prometheus(metrics_out)
        print(f"(obs) wrote metrics to {metrics_out}")
    events_out = getattr(args, "events_out", None)
    if events_out:
        obs.events.write_jsonl(events_out)
        print(f"(obs) wrote {len(obs.events)} events to {events_out}")
    if evidence is not None and evidence.out_dir and evidence.captures:
        print(f"(forensics) captured {evidence.captures} evidence "
              f"bundle(s) in {evidence.out_dir}")


def _slo_engine(args, obs):
    """Build an SloEngine when --slo / --slo-config asked for one."""
    config_path = getattr(args, "slo_config", None)
    if not (getattr(args, "slo", False) or config_path):
        return None
    from .obs.slo import SloConfig, SloEngine
    if config_path:
        try:
            config = SloConfig.load(config_path)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
    else:
        config = SloConfig()
    names = ", ".join(o.name for o in config.objectives)
    print(f"(slo) tracking {names}; windows "
          f"{config.fast_window:.0f}s/{config.slow_window:.0f}s, burn "
          f"thresholds {config.fast_burn}x/{config.slow_burn}x")
    return SloEngine(config, obs=obs)


def _print_slo(status) -> int:
    """Render an SloStatus; returns its exit-code contribution."""
    if status is None:
        return 0
    for obj in status.objectives:
        if not (obj.good or obj.bad):
            continue
        p99 = obj.quantiles.get(0.99, 0.0)
        print(f"(slo) {obj.name}: {obj.state.upper()} "
              f"budget={obj.budget_remaining:+.2f} "
              f"burn={obj.fast_burn:.1f}x/{obj.slow_burn:.1f}x "
              f"good/bad={obj.good}/{obj.bad} p99={p99:.4g}")
    print(f"(slo) verdict: {status.state.upper()} "
          f"(exit contribution {status.exit_code})")
    return status.exit_code


def _checker_kwargs(args, **extra) -> dict:
    """ModChecker kwargs from the checker and repair flags, plus ``extra``.

    --retry maps to a RetryPolicy (0 or less disables retries), and
    --evidence-out to an EvidenceRecorder; subcommands without repair
    flags keep the checker's detect-only default.
    """
    from .vmi.retry import DEFAULT_RETRY_POLICY, RetryPolicy
    attempts = args.retry
    if attempts is None:
        retry = DEFAULT_RETRY_POLICY
    else:
        retry = RetryPolicy(max_attempts=attempts) if attempts > 0 else None
    return {"retry": retry,
            "evidence": _evidence_for(args),
            "incremental": args.incremental,
            "recheck_ttl": args.recheck_ttl,
            "event_driven": args.event_driven,
            "repair_policy": getattr(args, "repair", None) or "detect-only",
            "repair_max_attempts": getattr(args, "repair_attempts", 3),
            **extra}


def _print_remediations(remediations) -> None:
    for rec in remediations:
        line = (f"(repair) {rec.vm_name}/{rec.module_name}: "
                f"{rec.status.upper()} after {rec.attempts} attempt(s), "
                f"{rec.hunks_written} hunk(s)/{rec.bytes_written} byte(s) "
                f"written, {rec.raced_writes} raced write(s)")
        if rec.mttr is not None:
            line += f"; MTTR {format_seconds(rec.mttr)}"
        if rec.reason:
            line += f"; {rec.reason}"
        print(line)


def cmd_check(args) -> int:
    tb, module = _build(args, args.module)
    module = module or args.module
    obs = _obs_for(args, tb.clock)
    mc = ModChecker(tb.hypervisor, tb.profile, **_checker_kwargs(
        args, obs=obs, rva_mode=args.rva_mode, hash_algorithm=args.hash))
    out = mc.check_pool(module, mode=args.pool_mode)
    report = out.report
    _print_remediations(out.remediations)
    _export_obs(args, obs, mc.evidence)
    rows = [[vm, f"{v.matches}/{v.comparisons}",
             "CLEAN" if v.clean else "FLAGGED",
             ", ".join(v.mismatched_regions) or "-"]
            for vm, v in report.verdicts.items()]
    rows += [[vm, "-", "DEGRADED", reason]
             for vm, reason in sorted(report.degraded.items())]
    print(render_table(["VM", "matches", "verdict", "mismatched"], rows,
                       title=f"{module} across {len(report.vm_names)} VMs "
                             f"({args.hash}, {args.rva_mode})"))
    print(f"simulated runtime: {format_seconds(out.timings.total)} "
          f"(searcher {format_seconds(out.timings.searcher)})")
    return 0 if report.all_clean else 1


def cmd_sweep(args) -> int:
    tb, _ = _build(args)
    obs = _obs_for(args, tb.clock)
    mc = ModChecker(tb.hypervisor, tb.profile,
                    **_checker_kwargs(args, obs=obs))
    outcomes = mc.check_all_modules()
    _export_obs(args, obs, mc.evidence)
    rows = []
    dirty = False
    for name, outcome in outcomes.items():
        flagged = outcome.report.flagged()
        dirty |= bool(flagged)
        rows.append([name, "CLEAN" if not flagged else "FLAGGED",
                     ",".join(flagged) or "-"])
        _print_remediations(outcome.remediations)
    print(render_table(["module", "verdict", "flagged VMs"], rows,
                       title=f"catalog sweep over {args.vms} VMs"))
    return 1 if dirty else 0


def cmd_hidden(args) -> int:
    tb, _ = _build(args)
    if args.hide:
        tb.hypervisor.domain(args.victim).kernel.unload_module(args.hide)
        print(f"(demo) unlinked {args.hide} from {args.victim}'s "
              f"PsLoadedModuleList")
    mc = ModChecker(tb.hypervisor, tb.profile)
    dirty = False
    for vm in tb.vm_names:
        hidden = mc.detect_hidden_modules(vm)
        for carved, name in hidden:
            dirty = True
            print(f"{vm}: HIDDEN module at {carved.base:#010x} "
                  f"({len(carved.image)} bytes) -> "
                  f"identified as {name or 'unknown'}")
            if name:
                report = mc.check_carved_module(carved, name)
                verdict = "clean" if report.clean else "TAMPERED"
                print(f"        integrity vs pool: {verdict}")
        if not hidden:
            print(f"{vm}: no hidden modules")
    return 1 if dirty else 0


def cmd_crossview(args) -> int:
    from .attacks import LdrDecoyAttack
    from .core import cross_view
    tb, _ = _build(args)
    if args.hide:
        tb.hypervisor.domain(args.victim).kernel.unload_module(args.hide)
        print(f"(demo) unlinked {args.hide} on {args.victim}")
    if args.decoy:
        LdrDecoyAttack().apply(tb.hypervisor.domain(args.victim).kernel)
        print(f"(demo) planted ghost.sys decoy entry on {args.victim}")
    mc = ModChecker(tb.hypervisor, tb.profile)
    dirty = False
    for vm in tb.vm_names:
        report = cross_view(mc.vmi_for(vm))
        print(report.summary())
        for m in report.carved_only:
            print(f"    hidden image at {m.base:#010x} "
                  f"({len(m.image)} bytes)")
        for e in report.listed_only:
            print(f"    decoy entry {e.name!r} -> DllBase "
                  f"{e.dll_base:#010x} (unbacked)")
        dirty |= not report.consistent
    return 1 if dirty else 0


def cmd_dump(args) -> int:
    from .core import IntegrityChecker, ModuleParser, ModuleSearcher
    from .vmi import DumpAnalyzer, acquire_dump
    tb, module = _build(args, args.module)
    module = module or args.module
    dumps = [acquire_dump(tb.hypervisor, vm, tb.profile)
             for vm in tb.vm_names]
    total = sum(d.resident_bytes for d in dumps) // 1024
    print(f"acquired {len(dumps)} dumps ({total} KiB resident); "
          f"analysing offline ...")
    obs = _obs_for(args, tb.clock)
    parsed = []
    for dump in dumps:
        analyzer = DumpAnalyzer(dump)
        analyzer.obs = obs          # duck-typed; searcher picks it up
        copy = ModuleSearcher(analyzer).copy_module(module)
        parsed.append(ModuleParser(obs=obs).parse(copy))
    report = IntegrityChecker().check_pool(parsed)
    _export_obs(args, obs)
    rows = [[vm, f"{v.matches}/{v.comparisons}",
             "CLEAN" if v.clean else "FLAGGED",
             ", ".join(v.mismatched_regions) or "-"]
            for vm, v in report.verdicts.items()]
    print(render_table(["dump", "matches", "verdict", "mismatched"], rows,
                       title=f"{module}: offline cross-check of "
                             f"{len(dumps)} dumps"))
    return 0 if report.all_clean else 1


def _chaos_engine(args, tb):
    """Build a seeded churn engine from --churn-rate (None when 0)."""
    rate = args.churn_rate
    if not rate:
        return None
    from .cloud import ChaosConfig, ChaosEngine
    engine = ChaosEngine(tb.hypervisor, ChaosConfig.from_churn_rate(rate),
                         seed=args.seed, catalog=tb.catalog)
    print(f"(chaos) lifecycle churn at {rate:.1%} per guest per cycle")
    return engine


def _print_repair_summary(mc) -> None:
    if mc.repair is None:
        return
    st = mc.repair.stats
    line = (f"repair: {st.verified} verified, {st.failed} failed, "
            f"{st.quarantined} quarantined "
            f"({st.attempts} attempt(s), {st.raced_writes} raced write(s))")
    if st.mttr_count:
        line += (f"; MTTR mean {format_seconds(st.mttr_mean)} "
                 f"max {format_seconds(st.mttr_max)}")
    print(line)


def cmd_daemon(args) -> int:
    tb, _ = _build(args)
    obs = _obs_for(args, tb.clock)
    mc = ModChecker(tb.hypervisor, tb.profile,
                    **_checker_kwargs(args, obs=obs))
    daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=3),
                         interval=args.interval,
                         chaos=_chaos_engine(args, tb),
                         slo=_slo_engine(args, obs))
    for cycle in range(args.cycles):
        alerts = daemon.run_cycle()
        stamp = tb.clock.now
        if alerts:
            for alert in alerts:
                print(str(alert))
        else:
            print(f"[{stamp:10.3f}s] cycle {cycle}: quiet")
        if daemon.quarantined:
            print(f"[{stamp:10.3f}s] quarantined: "
                  f"{', '.join(daemon.quarantined)}")
    _export_obs(args, obs, mc.evidence)
    _print_repair_summary(mc)
    print(f"{len(daemon.log)} alert(s) over {args.cycles} cycles")
    rc = 1 if len(daemon.log) else 0
    return max(rc, _print_slo(daemon.last_slo_status))


def cmd_chaos(args) -> int:
    """Soak the daemon under churn.

    Exit status is the gate: on a clean pool, 0 iff zero integrity
    alerts (no false positives); with ``--admit-infected``, 0 iff the
    infected clone was convicted and nobody else was.
    """
    tb = build_testbed(args.vms, seed=args.seed)
    obs = _obs_for(args, tb.clock)
    mc = ModChecker(tb.hypervisor, tb.profile,
                    **_checker_kwargs(args, obs=obs))
    engine = _chaos_engine(args, tb)
    daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=3),
                         interval=args.interval, chaos=engine,
                         slo=_slo_engine(args, obs))
    infected_vm = None
    for cycle in range(args.cycles):
        if args.admit_infected is not None and cycle == args.admit_infected:
            attack, module = attack_for_experiment(args.infect)
            infection = attack.apply(tb.catalog[module])
            catalog = dict(tb.catalog)
            catalog[module] = infection.infected
            infected_vm = "Mallory"
            engine.create_guest(infected_vm, catalog)
            daemon.admit_vm(infected_vm)
            print(f"[{tb.clock.now:10.3f}s] admitted infected clone "
                  f"{infected_vm} ({args.infect} in {module})")
        alerts = daemon.run_cycle()
        for alert in alerts:
            print(str(alert))
        if not alerts:
            print(f"[{tb.clock.now:10.3f}s] cycle {cycle}: quiet "
                  f"(pool={len(tb.hypervisor.guests())}, "
                  f"open={len(daemon.quarantined)})")
    _export_obs(args, obs, mc.evidence)
    stats = engine.stats
    print(f"churn: {stats.events} events over {stats.steps} steps "
          f"({stats.reboots} reboots, {stats.pauses} pauses, "
          f"{stats.migrations} migrations, {stats.destroys} destroys, "
          f"{stats.creates} creates)")
    integrity = [a for a in daemon.log.alerts
                 if a.kind in ("integrity", "hidden-module", "decoy-entry")]
    degraded = len(daemon.log) - len(integrity)
    _print_repair_summary(mc)
    print(f"{len(integrity)} integrity alert(s), {degraded} degraded "
          f"alert(s) over {args.cycles} cycles")
    if infected_vm is not None:
        caught = any(infected_vm in a.flagged_vms for a in daemon.log.alerts
                     if a.kind == "integrity")
        spurious = [a for a in integrity
                    if infected_vm not in a.flagged_vms]
        print(f"infected clone {infected_vm}: "
              f"{'DETECTED' if caught else 'MISSED'}"
              + (f" (+{len(spurious)} spurious alert(s))"
                 if spurious else ""))
        rc = 0 if caught and not spurious else 1
        return max(rc, _print_slo(daemon.last_slo_status))
    rc = 1 if integrity else 0
    return max(rc, _print_slo(daemon.last_slo_status))


def cmd_fleet(args) -> int:
    """Sharded fleet health check with the node-pipeline contract.

    Exit status: 0 = OK (healthy fleet, or ``--killswitch``), 1 = WARN
    (degraded availability: tripped breakers / starved quorums, but no
    integrity finding), 2 = CRITICAL (an integrity, hidden-module or
    decoy alert anywhere in the fleet), 3 = UNKNOWN (``--sink`` was
    misconfigured; nothing ran).

    With ``--repair``, remediation outcomes count toward the status:
    integrity findings where *every* repair ended verified clean
    downgrade to WARN (the fleet self-healed; the operator still sees
    the finding in the record), while any failed, aborted or
    quarantined repair keeps the fleet CRITICAL.
    """
    from .obs import SinkError, parse_sink, parse_sink_opts
    from .obs.sinks import PromSink
    try:
        sink = parse_sink(args.sink, parse_sink_opts(args.sink_opts))
    except SinkError as exc:
        print(f"fleet UNKNOWN: {exc}", file=sys.stderr)
        return 3
    if args.killswitch:
        print("fleet OK: killswitch active; checks skipped")
        return 0

    from .cloud import build_fleet_testbed
    infected = None
    if args.infect:
        attack, module = attack_for_experiment(args.infect)
        result = attack.apply(build_catalog(seed=args.seed)[module])
        infected = {args.victim: {module: result.infected}}
    try:
        tb = build_fleet_testbed(args.vms, seed=args.seed,
                                 infected=infected)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    _install_faults(args, tb.hypervisor)
    # the prometheus sink scrapes the registry; make it live
    obs = _obs_for(args, tb.clock, live=isinstance(sink, PromSink))

    from .cloud import Fleet
    checker_kwargs = _checker_kwargs(args)
    fleet = Fleet(tb.hypervisor, shard_size=args.shard_size,
                  workers=args.workers, interval=args.interval,
                  borrow=not args.no_borrow,
                  chaos=_chaos_engine(args, tb), obs=obs,
                  slo=_slo_engine(args, obs),
                  checker_kwargs=checker_kwargs)
    print(f"fleet: {args.vms} VM(s) in {len(fleet.shards)} shard(s), "
          f"{args.workers} worker(s)")
    for _ in range(args.cycles):
        report = fleet.run_cycle()
        for shard_name, alert in report.alerts:
            print(f"  [{shard_name}] {alert}")
        print(f"[{tb.clock.now:10.3f}s] cycle {report.cycle}: "
              f"shards={report.shards} vms={report.vms} "
              f"makespan={report.duration:.4f}s "
              f"borrowed={report.borrowed}")

    integrity = [a for _, a in fleet.alert_log
                 if a.kind in ("integrity", "hidden-module",
                               "decoy-entry")]
    degraded = [a for _, a in fleet.alert_log if a.kind == "degraded"]
    open_breakers = sum(len(s.daemon.health.open_vms())
                        for s in fleet.shards.values())
    stats = fleet.stats
    repairs_bad = (stats.repairs_failed_total
                   + stats.repairs_quarantined_total)
    self_healed = (args.repair is not None and integrity
                   and stats.repairs_verified_total > 0
                   and not repairs_bad)
    if integrity and not self_healed:
        status, rc = "CRITICAL", 2
    elif integrity or degraded or open_breakers:
        status, rc = "WARN", 1
    else:
        status, rc = "OK", 0
    slo_status = fleet.last_slo_status
    if slo_status is not None and slo_status.exit_code > rc:
        # the SLO verdict speaks the same contract and can only
        # escalate: budget exhausted -> WARN, burn critical -> CRITICAL
        rc = slo_status.exit_code
        status = {0: "OK", 1: "WARN", 2: "CRITICAL"}[rc]
    record = {
        "check": "modchecker-fleet",
        "status": status,
        "exit_code": rc,
        "cycles": stats.cycles,
        "shards": len(fleet.shards),
        "vms": len(tb.hypervisor.guests()),
        "checks_total": stats.checks_total,
        "vm_checks_total": stats.vm_checks_total,
        "borrowed_refs_total": stats.borrowed_refs_total,
        "integrity_alerts": len(integrity),
        "degraded_alerts": len(degraded),
        "open_breakers": open_breakers,
        "repairs_verified": stats.repairs_verified_total,
        "repairs_failed": stats.repairs_failed_total,
        "repairs_quarantined": stats.repairs_quarantined_total,
        "checks_per_sec": round(stats.checks_per_sec, 3),
        "p99_cycle_seconds": round(stats.p99_cycle_seconds, 6),
        "sim_seconds": round(tb.clock.now, 3),
    }
    if slo_status is not None:
        record["slo"] = slo_status.to_dict()
    sink.emit(record)
    sink.finalize(obs)
    _export_obs(args, obs, checker_kwargs["evidence"])
    repair_note = ""
    if args.repair is not None:
        repair_note = (f", repairs: {stats.repairs_verified_total} "
                       f"verified / {stats.repairs_failed_total} failed "
                       f"/ {stats.repairs_quarantined_total} quarantined")
    print(f"fleet {status}: {record['vms']} VM(s) in "
          f"{record['shards']} shard(s); "
          f"{record['vm_checks_total']} VM-checks over "
          f"{stats.cycles} cycle(s), "
          f"{len(integrity)} integrity / {len(degraded)} degraded "
          f"alert(s), {open_breakers} open breaker(s){repair_note}")
    _print_slo(slo_status)
    return rc


def cmd_profile(args) -> int:
    """Trace a canonical scenario and report the cost attribution.

    ``substrate`` runs sequential daemon sweeps over a clone pool and
    weighs nodes by exclusive simulated time; ``fleet`` runs the
    sharded scheduler and weighs by charged Dom0 CPU (shard clocks are
    frozen under deferred charging, so span durations there are zero).
    Exit status 0 — profiling is reporting, not a gate.
    """
    from .obs import make_observability
    from .obs.profiler import Profile
    if args.scenario == "substrate":
        vms = args.vms if args.vms is not None else 6
        tb = build_testbed(vms, seed=args.seed)
        obs = make_observability(tb.clock)
        mc = ModChecker(tb.hypervisor, tb.profile, obs=obs)
        daemon = CheckDaemon(mc, RoundRobinPolicy(per_cycle=3))
        for _ in range(args.cycles):
            daemon.run_cycle()
        weight = "time"
    else:
        from .cloud import Fleet, build_fleet_testbed
        vms = args.vms if args.vms is not None else 24
        tb = build_fleet_testbed(vms, seed=args.seed)
        obs = make_observability(tb.clock)
        fleet = Fleet(tb.hypervisor, shard_size=8, obs=obs)
        fleet.run(args.cycles)
        weight = "cpu"

    profile = Profile.from_tracer(obs.tracer)
    rows = [[r["path"], str(r["calls"]), f"{r['exclusive'] * 1e3:.3f}",
             f"{r['cpu'] * 1e3:.3f}", f"{r['share']:.1%}"]
            for r in profile.hotspots(args.top, weight=weight)]
    print(render_table(
        ["call path", "calls", "excl ms", "cpu ms", "share"], rows,
        title=f"{args.scenario}: top {len(rows)} hotspots by "
              f"{'exclusive sim-time' if weight == 'time' else 'Dom0 CPU'}"
              f" ({vms} VM(s), {args.cycles} cycle(s))"))
    shares = (profile.stage_shares() if weight == "time"
              else profile.op_shares())
    breakdown = ", ".join(f"{name} {share:.1%}" for name, share in
                          sorted(shares.items(), key=lambda kv: -kv[1]))
    print(f"{'stage' if weight == 'time' else 'op'} shares: {breakdown}")
    print(f"totals: {format_seconds(profile.total_seconds)} simulated, "
          f"{format_seconds(profile.total_cpu_seconds)} Dom0 CPU charged "
          f"across {len(obs.tracer.spans)} span(s)")
    if args.flame_out:
        profile.write_collapsed(args.flame_out, weight=weight)
        print(f"(profile) wrote collapsed stacks to {args.flame_out} "
              f"(flamegraph.pl {args.flame_out} > profile.svg)")
    if args.json_out:
        profile.write_json(args.json_out, scenario=args.scenario)
        print(f"(profile) wrote JSON profile to {args.json_out}")
    return 0


def cmd_explain(args) -> int:
    """Render the forensic incident report for a non-clean check.

    Either loads an existing bundle (``--bundle``) or re-runs a seeded
    scenario with evidence capture enabled and explains what it caught.
    Exit status follows the tool convention: 1 iff the report contains
    unexplained (tamper) hunks.
    """
    from .forensics import (EvidenceRecorder, load_bundle,
                            render_incident_report, write_bundle)
    if args.bundle:
        bundle = load_bundle(args.bundle)
        print(render_incident_report(bundle), end="")
        return 1 if bundle.unexplained_hunks else 0
    tb, module = _build(args, args.module)
    module = module or args.module
    from .obs import make_observability
    obs = make_observability(tb.clock)
    recorder = EvidenceRecorder(out_dir=args.evidence_out)
    mc = ModChecker(tb.hypervisor, tb.profile,
                    **_checker_kwargs(args, obs=obs, evidence=recorder))
    out = mc.check_pool(module)
    _export_obs(args, obs, recorder)
    if recorder.last is None:
        print(f"pool is clean: {module!r} consistent across "
              f"{len(out.report.vm_names)} VM(s); nothing to explain")
        return 0
    bundle = recorder.last
    if args.bundle_out:
        write_bundle(bundle, args.bundle_out)
        print(f"(forensics) wrote bundle to {args.bundle_out}")
    print(render_incident_report(bundle), end="")
    return 1 if bundle.unexplained_hunks else 0


def cmd_experiment(args) -> int:
    # Reuse the benchmark harness (import lazily: it adds its own path).
    import importlib.util
    from pathlib import Path
    harness_path = Path(__file__).resolve().parents[2] / "benchmarks" \
        / "harness.py"
    if not harness_path.exists():
        print("benchmarks/harness.py not found (installed without the "
              "repository checkout)")
        return 2
    spec = importlib.util.spec_from_file_location("_harness", harness_path)
    harness = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(harness)
    return harness.main(args.targets)


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": cmd_check,
        "sweep": cmd_sweep,
        "hidden": cmd_hidden,
        "crossview": cmd_crossview,
        "dump": cmd_dump,
        "daemon": cmd_daemon,
        "chaos": cmd_chaos,
        "fleet": cmd_fleet,
        "profile": cmd_profile,
        "explain": cmd_explain,
        "experiment": cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except InsufficientPool as exc:
        # Degradation (e.g. --fault-rate with --retry 0) can shrink the
        # quorum below 2; that is an operational outcome, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

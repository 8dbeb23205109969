#!/usr/bin/env python
"""Gate pytest-benchmark results against a checked-in baseline.

Absolute wall-clock on shared CI runners is noisy, so the default
comparison is **relative**: each benchmark's share of the run's total
mean time. A real regression (one path suddenly slower) shifts its
share; a uniformly slow runner shifts nothing. The check is one-sided —
only a share *increase* beyond the tolerance fails; getting faster is
not an error, and drift smaller than an absolute noise floor
(``SHARE_NOISE_FLOOR``) is ignored — sub-percent shares move by more
than any sane relative tolerance on jitter alone. Pass ``--absolute``
to compare raw mean seconds instead (useful on a dedicated box).

``--fleet`` switches to the fleet-tier contract instead: the results
file is the ``{"metrics": {...}}`` JSON the 10k-VM tier writes (see
``benchmarks/test_scale.py``), every metric is a *simulated-clock*
scalar (deterministic, so tight tolerances are safe), and the gate is
direction-aware — ``checks_per_sec`` must not *drop*, latency metrics
must not *rise*.

``--wallclock`` gates *real speedup ratios* between benchmark pairs
measured in the same run: each tier in the baseline's ``wallclock``
section names a numerator and denominator benchmark and the minimum
mean-time ratio the pair must sustain. Because both sides of a ratio
come from one process on one runner, the gate is immune to the
machine-speed noise that makes absolute seconds useless on shared CI —
a genuinely faster runner speeds both sides. A tier that also names a
``benchmark`` reads its numerator and denominator from that
benchmark's ``extra_info`` instead: timings the benchmark took itself,
interleaved in one loop and reduced to the min of N each (e.g. the
scalar reference read must stay ≥3x slower than the vectorised batch
read), so a burst of runner load hits both sides alike.

``--profile`` gates cost *attribution* instead of cost: the results
file is a ``modchecker profile --json-out`` document, and the check
compares each stage's and each page-op's **share** of the simulated
total against ``benchmarks/baseline_profile.json``. Shares are
dimensionless fractions of a deterministic simulation, so the
comparison is two-sided and uses an *absolute* drift tolerance
(default 0.05): work silently migrating between stages is a regression
even when the total stays flat. The baseline holds one entry per
scenario (``substrate``, ``fleet``), matched via the document's
``scenario`` key. A share vector whose entries are all zero is
rejected on either side (and never written by ``--update``): a drift
gate over zeros passes whatever the run did.

Usage::

    python tools/check_bench_regression.py results.json            # gate
    python tools/check_bench_regression.py results.json --update   # rebase
    python tools/check_bench_regression.py results.json \
        --baseline benchmarks/baseline_substrate.json --tolerance 0.20
    python tools/check_bench_regression.py fleet-metrics.json --fleet
    python tools/check_bench_regression.py profile.json --profile
    python tools/check_bench_regression.py results.json --wallclock

Exit status: 0 = within tolerance, 1 = regression, 2 = usage/schema
error (missing baseline, benchmark set drift).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_BASELINE = (Path(__file__).resolve().parent.parent
                    / "benchmarks" / "baseline_substrate.json")
DEFAULT_FLEET_BASELINE = (Path(__file__).resolve().parent.parent
                          / "benchmarks" / "baseline_fleet.json")
DEFAULT_PROFILE_BASELINE = (Path(__file__).resolve().parent.parent
                            / "benchmarks" / "baseline_profile.json")

#: Minimum absolute share drift the relative gate will act on. The
#: micro-benchmarks span four orders of magnitude, so the smallest
#: ones hold well under 1% of the total: run-to-run jitter in the
#: *dominant* benchmarks swings those shares by far more than 20% of
#: their own size with no code change at all. Below this floor a share
#: increase carries no signal; the fast paths are still gated in real
#: terms by the wall-clock ratio tiers (--wallclock).
SHARE_NOISE_FLOOR = 0.0075

#: Which way each fleet metric is allowed to move. Throughput must not
#: fall below baseline*(1-tolerance); anything else (latencies) must
#: not rise above baseline*(1+tolerance). Unknown metrics default to
#: lower-is-better, the safe direction for a latency-like scalar.
FLEET_HIGHER_IS_BETTER = ("checks_per_sec",)


def load_means(path: Path) -> dict[str, float]:
    """Benchmark name -> mean seconds, from pytest-benchmark JSON."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    benches = data.get("benchmarks")
    if not benches:
        raise SystemExit(f"error: {path} holds no benchmarks")
    return {b["name"]: float(b["stats"]["mean"]) for b in benches}


def load_extra_info(path: Path) -> dict[str, dict]:
    """Benchmark name -> its ``extra_info``, from pytest-benchmark JSON."""
    data = json.loads(path.read_text())
    return {b["name"]: b.get("extra_info", {})
            for b in data.get("benchmarks", ())}


def load_fleet_metrics(path: Path) -> dict[str, float]:
    """Metric name -> simulated scalar, from the fleet tier's JSON."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    metrics = data.get("metrics")
    if not metrics:
        raise SystemExit(f"error: {path} holds no fleet metrics")
    return {name: float(value) for name, value in metrics.items()}


def compare_fleet(current: dict[str, float], baseline: dict[str, float],
                  tolerance: float) -> list[str]:
    """Direction-aware fleet gate; returns failure lines."""
    failures = []
    missing = sorted(set(baseline) - set(current))
    added = sorted(set(current) - set(baseline))
    if missing:
        failures.append(f"metrics missing from run: {', '.join(missing)}")
    if added:
        failures.append(
            f"metrics not in baseline (rebase with --update): "
            f"{', '.join(added)}")
    if failures:
        return failures
    for name in sorted(baseline):
        if name in FLEET_HIGHER_IS_BETTER:
            floor = baseline[name] * (1.0 - tolerance)
            if current[name] < floor:
                failures.append(
                    f"{name}: {current[name]:.6g} < "
                    f"{baseline[name]:.6g} -{tolerance:.0%}")
        else:
            ceiling = baseline[name] * (1.0 + tolerance)
            if current[name] > ceiling:
                failures.append(
                    f"{name}: {current[name]:.6g} > "
                    f"{baseline[name]:.6g} +{tolerance:.0%}")
    return failures


def load_profile(path: Path) -> tuple[str, dict[str, dict[str, float]]]:
    """(scenario, {axis: {name: share}}) from a profiler JSON doc."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    if data.get("format") != "modchecker-profile/1":
        raise SystemExit(
            f"error: {path} is not a modchecker profile document")
    scenario = data.get("scenario")
    if not scenario:
        raise SystemExit(f"error: {path} carries no scenario tag")
    return scenario, {
        axis: {name: float(v)
               for name, v in data.get(axis, {}).items()}
        for axis in ("stage_shares", "op_shares")}


def zero_share_axes(shares: dict[str, dict[str, float]]) -> list[str]:
    """Axes whose shares are present but all zero (nothing attributed)."""
    return [axis for axis, vector in sorted(shares.items())
            if vector and not any(vector.values())]


def compare_profile(current: dict[str, dict[str, float]],
                    baseline: dict[str, dict[str, float]],
                    tolerance: float) -> list[str]:
    """Two-sided absolute share-drift gate; returns failure lines."""
    failures = []
    for axis in ("stage_shares", "op_shares"):
        cur, base = current.get(axis, {}), baseline.get(axis, {})
        missing = sorted(set(base) - set(cur))
        added = sorted(set(cur) - set(base))
        if missing:
            failures.append(
                f"{axis} missing from run: {', '.join(missing)}")
        if added:
            failures.append(
                f"{axis} not in baseline (rebase with --update): "
                f"{', '.join(added)}")
        if missing or added:
            continue
        for name in sorted(base):
            drift = cur[name] - base[name]
            if abs(drift) > tolerance:
                failures.append(
                    f"{axis}/{name}: share {cur[name]:.4f} vs baseline "
                    f"{base[name]:.4f} (drift {drift:+.4f} > "
                    f"±{tolerance:.2f})")
    return failures


def load_wallclock_tiers(path: Path) -> list[dict]:
    """The ``wallclock`` ratio tiers from a baseline document."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    tiers = data.get("wallclock")
    if not tiers:
        raise SystemExit(
            f"error: {path} holds no wallclock ratio tiers")
    for tier in tiers:
        for key in ("name", "numerator", "denominator", "min_ratio"):
            if key not in tier:
                raise SystemExit(
                    f"error: wallclock tier missing {key!r}: {tier}")
    return tiers


def tier_values(tier: dict, means: dict[str, float],
                extra: dict[str, dict]) -> dict[str, float]:
    """The timings a tier's numerator and denominator name: benchmark
    means, or entries of the tier's ``benchmark``'s ``extra_info``."""
    if "benchmark" in tier:
        return {k: float(v)
                for k, v in extra.get(tier["benchmark"], {}).items()
                if isinstance(v, (int, float))}
    return means


def compare_wallclock(means: dict[str, float], tiers: list[dict],
                      extra: dict[str, dict] | None = None) -> list[str]:
    """Ratio-tier gate; returns failure lines (empty = pass)."""
    failures = []
    for tier in tiers:
        num, den = tier["numerator"], tier["denominator"]
        values = tier_values(tier, means, extra or {})
        absent = [n for n in (num, den) if n not in values]
        if absent:
            failures.append(
                f"{tier['name']}: benchmarks missing from run: "
                f"{', '.join(absent)}")
            continue
        if values[den] <= 0:
            failures.append(f"{tier['name']}: non-positive mean for {den}")
            continue
        ratio = values[num] / values[den]
        if ratio < float(tier["min_ratio"]):
            failures.append(
                f"{tier['name']}: {num}/{den} speedup {ratio:.2f}x < "
                f"required {float(tier['min_ratio']):.2f}x")
    return failures


def shares(means: dict[str, float]) -> dict[str, float]:
    total = sum(means.values())
    if total <= 0:
        raise SystemExit("error: zero total benchmark time")
    return {name: mean / total for name, mean in means.items()}


def compare(current: dict[str, float], baseline: dict[str, float],
            tolerance: float, *, absolute: bool) -> list[str]:
    """Return failure lines; empty = gate passes."""
    failures = []
    missing = sorted(set(baseline) - set(current))
    added = sorted(set(current) - set(baseline))
    if missing:
        failures.append(f"benchmarks missing from run: {', '.join(missing)}")
    if added:
        failures.append(
            f"benchmarks not in baseline (rebase with --update): "
            f"{', '.join(added)}")
    if failures:
        return failures
    cur = current if absolute else shares(current)
    base = baseline if absolute else shares(baseline)
    unit = "s" if absolute else " share"
    for name in sorted(base):
        headroom = base[name] * tolerance
        if not absolute:
            # A relative tolerance on a sub-percent share gates timer
            # noise, not code: the dominant benchmark's jitter moves
            # every small share by more than 20% of itself. Drift below
            # an absolute floor is indistinguishable from that noise.
            headroom = max(headroom, SHARE_NOISE_FLOOR)
        if cur[name] > base[name] + headroom:
            failures.append(
                f"{name}: {cur[name]:.6g}{unit} > "
                f"{base[name]:.6g}{unit} +{tolerance:.0%}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmark results regress vs the baseline.")
    parser.add_argument("results", type=Path,
                        help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=None,
                        help="allowed drift (default 0.20 relative; "
                             "0.05 absolute share under --profile)")
    parser.add_argument("--absolute", action="store_true",
                        help="compare raw mean seconds, not shares of "
                             "total (noisier across machines)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from these results")
    parser.add_argument("--fleet", action="store_true",
                        help="gate the fleet tier's simulated metrics "
                             "JSON (direction-aware) instead of "
                             "pytest-benchmark wall timings")
    parser.add_argument("--profile", action="store_true",
                        help="gate a `modchecker profile --json-out` "
                             "document's stage/op cost shares against "
                             "the attribution baseline (two-sided "
                             "absolute drift, default tolerance 0.05)")
    parser.add_argument("--wallclock", action="store_true",
                        help="gate real speedup ratios between benchmark "
                             "pairs of the same run against the "
                             "baseline's wallclock tiers (machine-speed "
                             "independent)")
    args = parser.parse_args(argv)
    if args.tolerance is not None and args.tolerance < 0:
        parser.error("--tolerance must be >= 0")
    if sum((args.fleet, args.profile, args.wallclock)) > 1:
        parser.error("--fleet, --profile and --wallclock are "
                     "mutually exclusive")
    if args.tolerance is None:
        args.tolerance = 0.05 if args.profile else 0.20

    if args.profile:
        if args.baseline == DEFAULT_BASELINE:
            args.baseline = DEFAULT_PROFILE_BASELINE
        tolerance = args.tolerance
        scenario, current = load_profile(args.results)
        zeros = zero_share_axes(current)
        if zeros:
            print(f"error: {args.results} [{scenario}] attributes "
                  f"nothing: every {' and '.join(zeros)} entry is 0",
                  file=sys.stderr)
            return 1
        if args.update:
            doc = {"scenarios": {}}
            if args.baseline.exists():
                doc = json.loads(args.baseline.read_text())
            doc.setdefault("scenarios", {})[scenario] = current
            args.baseline.parent.mkdir(parents=True, exist_ok=True)
            args.baseline.write_text(
                json.dumps(doc, indent=2, sort_keys=True) + "\n")
            print(f"profile baseline rebased: {args.baseline} "
                  f"[{scenario}]")
            return 0
        if not args.baseline.exists():
            print(f"error: no profile baseline at {args.baseline}; "
                  f"create one with --update", file=sys.stderr)
            return 2
        doc = json.loads(args.baseline.read_text())
        baseline = doc.get("scenarios", {}).get(scenario)
        if baseline is None:
            print(f"error: baseline has no scenario {scenario!r}; "
                  f"rebase with --update", file=sys.stderr)
            return 2
        zeros = zero_share_axes(baseline)
        if zeros:
            print(f"error: baseline [{scenario}] has all-zero "
                  f"{' and '.join(zeros)}; rebase with --update",
                  file=sys.stderr)
            return 2
        failures = compare_profile(current, baseline, tolerance)
        if failures:
            print(f"cost-attribution drift [{scenario}] (tolerance "
                  f"±{tolerance:.2f} absolute share):")
            for line in failures:
                print(f"  {line}")
            return 1 if not any("missing" in f or "not in baseline" in f
                                for f in failures) else 2
        checked = sum(len(current[a]) for a in current)
        print(f"cost attribution stable [{scenario}] ({checked} shares "
              f"checked, tolerance ±{tolerance:.2f})")
        return 0

    if args.fleet:
        if args.baseline == DEFAULT_BASELINE:
            args.baseline = DEFAULT_FLEET_BASELINE
        metrics = load_fleet_metrics(args.results)
        if args.update:
            args.baseline.parent.mkdir(parents=True, exist_ok=True)
            args.baseline.write_text(json.dumps(
                {"metrics": dict(sorted(metrics.items()))},
                indent=2, sort_keys=True) + "\n")
            print(f"fleet baseline rebased: {args.baseline} "
                  f"({len(metrics)} metrics)")
            return 0
        if not args.baseline.exists():
            print(f"error: no fleet baseline at {args.baseline}; "
                  f"create one with --update", file=sys.stderr)
            return 2
        baseline = load_fleet_metrics(args.baseline)
        failures = compare_fleet(metrics, baseline, args.tolerance)
        if failures:
            print(f"fleet metric regression (tolerance "
                  f"{args.tolerance:.0%}):")
            for line in failures:
                print(f"  {line}")
            return 1 if not any("missing" in f or "not in baseline" in f
                                for f in failures) else 2
        print(f"fleet metrics within tolerance ({len(metrics)} checked, "
              f"tolerance {args.tolerance:.0%})")
        return 0

    if args.wallclock:
        means = load_means(args.results)
        if args.update:
            parser.error("--wallclock tiers are hand-written contracts; "
                         "edit the baseline's wallclock section directly")
        if not args.baseline.exists():
            print(f"error: no baseline at {args.baseline}",
                  file=sys.stderr)
            return 2
        tiers = load_wallclock_tiers(args.baseline)
        extra = load_extra_info(args.results)
        failures = compare_wallclock(means, tiers, extra)
        if failures:
            print("wall-clock speedup regression:")
            for line in failures:
                print(f"  {line}")
            return 1 if not any("missing" in f for f in failures) else 2
        for tier in tiers:
            values = tier_values(tier, means, extra)
            ratio = values[tier["numerator"]] / values[tier["denominator"]]
            print(f"{tier['name']}: {ratio:.2f}x "
                  f"(required {float(tier['min_ratio']):.2f}x)")
        print(f"wall-clock tiers hold ({len(tiers)} checked)")
        return 0

    means = load_means(args.results)
    if args.update:
        doc = {"benchmarks": [{"name": n, "stats": {"mean": m}}
                              for n, m in sorted(means.items())]}
        if args.baseline.exists():
            # carry hand-written sections (wallclock tiers) across rebases
            old = json.loads(args.baseline.read_text())
            if "wallclock" in old:
                doc["wallclock"] = old["wallclock"]
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"baseline rebased: {args.baseline} "
              f"({len(means)} benchmarks)")
        return 0

    if not args.baseline.exists():
        print(f"error: no baseline at {args.baseline}; create one with "
              f"--update", file=sys.stderr)
        return 2
    baseline = load_means(args.baseline)
    failures = compare(means, baseline, args.tolerance,
                       absolute=args.absolute)
    mode = "absolute" if args.absolute else "relative"
    if failures:
        print(f"benchmark regression ({mode}, tolerance "
              f"{args.tolerance:.0%}):")
        for line in failures:
            print(f"  {line}")
        return 1 if not any("missing" in f or "not in baseline" in f
                            for f in failures) else 2
    print(f"benchmarks within tolerance ({mode}, {len(means)} checked, "
          f"tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

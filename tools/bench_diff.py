#!/usr/bin/env python3
"""Compare two bench ``--json`` reports and flag wall-time regressions.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]
                        [--metric COLUMN] [--quantile-threshold PCT]
                        [--require-rows NAME ...]
    tools/bench_diff.py --self-test

Both files follow the schema written by ``da::obs::BenchReporter`` (see
docs/OBSERVABILITY.md). The comparison walks the rows of the captured
``benchmarks`` table (one row per google-benchmark run, keyed by the
benchmark's full name, e.g. ``BM_BehaviorSearch/5/1``) and reports every
row whose ``real_ms`` grew by more than ``--threshold`` percent (default
15). Rows present only in the baseline are reported as ``REMOVED`` —
coverage that silently disappeared deserves a visible diff line — and
rows present only in the candidate as ``ADDED``; neither fails the run.

Two advisory passes ride along:

- the reports' recorded context (``seed``, ``jobs``) is compared first;
  a mismatch prints a loud warning, because timing and quantile deltas
  between differently-configured runs reflect the configuration, not the
  code (the BENCH_perf.json policy is seed 7 / jobs 1 / clean tree);
- the ``metrics.quantiles`` sections are diffed per sketch name on p50
  and p99, for the *virtual*-time sketches only. Those are deterministic
  — any drift past ``--quantile-threshold`` percent (default 5) means
  service behaviour changed, not the machine. A sketch whose name ends in
  ``_ms`` (``sim.round_ms``, ``service.tick_ms``, ``sweep.shard_wall_ms``,
  ...) holds wall-clock milliseconds, i.e. machine noise, and is skipped.
  Drift is printed as ``<< CHANGED`` but never fails the run: features
  legitimately move latency, the diff just makes the move visible.

``--require-rows NAME`` (repeatable) turns a missing candidate row into a
hard failure: the run exits 1 unless the candidate carries a benchmark
named ``NAME`` exactly or a parameterization of it (``NAME/...``). Rows
the benchmark suite is *supposed* to produce — the ablation rows CI keys
on — thus cannot silently vanish behind the advisory REMOVED note.

Exit status: 0 when no benchmarks-table row regressed past the threshold
(including when either report carries no benchmarks table at all — old
baselines), 1 when at least one did or a ``--require-rows`` name is
absent from the candidate. CI runs the timing diff as an advisory step:
shared-runner timing noise means a red result is a prompt to look, not a
gate. Required-row failures are not noise and are enforced.

``--self-test`` runs the built-in unit checks (synthetic reports through
the real comparison path) and exits 0/1; ctest wires this in as the
``bench_diff_self_test`` entry.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def bench_rows(report: dict, path: str, metric: str) -> dict[str, float] | None:
    """Benchmark name -> metric value, or None if no benchmarks table."""
    for table in report.get("tables", []):
        if table.get("name") != "benchmarks":
            continue
        header = table.get("header", [])
        if "benchmark" not in header or metric not in header:
            raise SystemExit(
                f"{path}: benchmarks table lacks a "
                f"'benchmark' or '{metric}' column: {header}"
            )
        name_col = header.index("benchmark")
        metric_col = header.index(metric)
        rows = {}
        for row in table.get("rows", []):
            rows[row[name_col]] = float(row[metric_col])
        return rows
    return None


def context_warnings(baseline: dict, candidate: dict) -> list[str]:
    """Warn when the two reports were produced under different settings."""
    lines = []
    mismatched = [
        (field, baseline.get(field), candidate.get(field))
        for field in ("seed", "jobs")
        if baseline.get(field) != candidate.get(field)
    ]
    if mismatched:
        detail = ", ".join(
            f"{field} {base!r} vs {cand!r}" for field, base, cand in mismatched
        )
        lines.append(
            f"WARNING: reports were produced under different settings "
            f"({detail}); deltas below may reflect the configuration, not "
            f"the code (baseline policy: seed 7, jobs 1, clean tree)"
        )
    return lines


def quantile_rows(report: dict) -> dict[str, dict[str, float]]:
    """Sketch name -> {p50, p99}, from the metrics.quantiles section.

    Wall-clock sketches (names ending in ``_ms``) are left out: only the
    virtual-time ones are deterministic enough to diff.
    """
    rows = {}
    quantiles = report.get("metrics", {}).get("quantiles", {})
    for name, sketch in quantiles.items():
        if name.endswith("_ms") or not isinstance(sketch, dict):
            continue
        try:
            rows[name] = {
                "p50": float(sketch["p50"]),
                "p99": float(sketch["p99"]),
            }
        except (KeyError, TypeError, ValueError):
            continue
    return rows


def diff_quantiles(
    baseline: dict, candidate: dict, threshold: float
) -> tuple[list[str], int]:
    """Advisory p50/p99 diff of the metrics.quantiles sections.

    Returns (output lines, number of sketches drifting past threshold).
    """
    base = quantile_rows(baseline)
    cand = quantile_rows(candidate)
    shared = sorted(set(base) & set(cand))
    if not shared:
        return [], 0
    lines = [
        "",
        f"{'quantile sketch':<34} {'col':>4} {'base':>12} {'cand':>12} "
        f"{'delta':>9}",
    ]
    changed = 0
    for name in shared:
        drifted = False
        for col in ("p50", "p99"):
            b = base[name][col]
            c = cand[name][col]
            delta_pct = 0.0 if b == 0 else (c - b) / b * 100.0
            flag = ""
            if abs(delta_pct) > threshold or (b == 0) != (c == 0):
                drifted = True
                flag = "  << CHANGED"
            lines.append(
                f"{name:<34} {col:>4} {b:>12.4f} {c:>12.4f} "
                f"{delta_pct:>+8.1f}%{flag}"
            )
        if drifted:
            changed += 1
    if changed:
        lines.append(
            f"note: {changed} sketch(es) drifted past {threshold:.0f}% on "
            "p50/p99 — virtual-time quantiles are deterministic, so this is "
            "a behaviour change, not machine noise (advisory, not a failure)"
        )
    return lines, changed


def compare(
    baseline: dict,
    candidate: dict,
    *,
    metric: str = "real_ms",
    threshold: float = 15.0,
    quantile_threshold: float = 5.0,
    require_rows: list[str] | None = None,
    baseline_path: str = "<baseline>",
    candidate_path: str = "<candidate>",
) -> tuple[int, list[str]]:
    """Full report-vs-report comparison. Returns (exit status, lines)."""
    lines = context_warnings(baseline, candidate)

    base_rows = bench_rows(baseline, baseline_path, metric)
    cand_rows = bench_rows(candidate, candidate_path, metric)
    regressions = []
    if base_rows is None or cand_rows is None:
        missing = baseline_path if base_rows is None else candidate_path
        lines.append(
            f"note: {missing} has no 'benchmarks' table; nothing to compare"
        )
        shared = []
    else:
        shared = sorted(set(base_rows) & set(cand_rows))
        lines.append(
            f"{'benchmark':<40} {'base ' + metric:>14} "
            f"{'cand ' + metric:>14} {'delta':>9}"
        )
        for name in shared:
            base = base_rows[name]
            cand = cand_rows[name]
            delta_pct = 0.0 if base == 0 else (cand - base) / base * 100.0
            flag = ""
            if delta_pct > threshold:
                regressions.append((name, base, cand, delta_pct))
                flag = "  << REGRESSION"
            lines.append(
                f"{name:<40} {base:>14.3f} {cand:>14.3f} "
                f"{delta_pct:>+8.1f}%{flag}"
            )

        removed = sorted(set(base_rows) - set(cand_rows))
        added = sorted(set(cand_rows) - set(base_rows))
        for name in removed:
            lines.append(
                f"{name:<40} {base_rows[name]:>14.3f} {'--':>14} {'':>9}"
                "  << REMOVED (advisory: benchmark row gone from candidate)"
            )
        for name in added:
            lines.append(
                f"{name:<40} {'--':>14} {cand_rows[name]:>14.3f} {'':>9}"
                "  ADDED"
            )
        if removed:
            lines.append(
                f"\nnote: {len(removed)} benchmark row(s) present in the "
                "baseline were not produced by the candidate (advisory, "
                "not a failure)"
            )

    qlines, _ = diff_quantiles(baseline, candidate, quantile_threshold)
    lines.extend(qlines)

    # Required rows gate on the *candidate*: a name matches itself or any
    # parameterization of itself (NAME/...), so one entry covers a whole
    # google-benchmark Args family.
    missing_required = []
    for required in require_rows or []:
        present = cand_rows is not None and any(
            name == required or name.startswith(required + "/")
            for name in cand_rows
        )
        if not present:
            missing_required.append(required)
    if missing_required:
        lines.append(
            f"\n{len(missing_required)} required row(s) MISSING from the "
            "candidate (the benchmark suite no longer produces them):"
        )
        for required in missing_required:
            lines.append(f"  {required}")
        return 1, lines

    if regressions:
        lines.append(
            f"\n{len(regressions)} row(s) regressed more than "
            f"{threshold:.0f}% on {metric}:"
        )
        for name, base, cand, delta_pct in regressions:
            lines.append(f"  {name}: {base:.3f} -> {cand:.3f} ({delta_pct:+.1f}%)")
        return 1, lines
    if base_rows is not None and cand_rows is not None:
        lines.append(
            f"\nno regression beyond {threshold:.0f}% across "
            f"{len(shared)} rows"
        )
    return 0, lines


def _report(
    *,
    seed: int = 7,
    jobs: int = 1,
    benchmarks: dict[str, float] | None = None,
    quantiles: dict[str, dict[str, float]] | None = None,
) -> dict:
    """Minimal schema-shaped report for the self-test."""
    tables = []
    if benchmarks is not None:
        tables.append(
            {
                "name": "benchmarks",
                "header": ["benchmark", "real_ms", "cpu_ms", "iterations"],
                "rows": [
                    [name, value, value, 1]
                    for name, value in benchmarks.items()
                ],
            }
        )
    return {
        "bench": "bench_perf",
        "seed": seed,
        "jobs": jobs,
        "git_describe": "self-test",
        "tables": tables,
        "metrics": {
            "counters": {},
            "gauges": {},
            "quantiles": quantiles or {},
        },
    }


def self_test() -> int:
    """Unit checks for the comparison logic; exits nonzero on failure."""
    failures = []

    def check(label: str, ok: bool) -> None:
        print(f"  {'ok' if ok else 'FAIL'}  {label}")
        if not ok:
            failures.append(label)

    # 1. A >threshold wall-time regression fails the diff.
    status, lines = compare(
        _report(benchmarks={"BM_A": 10.0}),
        _report(benchmarks={"BM_A": 13.0}),
        threshold=15.0,
    )
    check("regression past threshold exits 1", status == 1)
    check(
        "regression row is flagged",
        any("REGRESSION" in line for line in lines),
    )

    # 2. Growth within the threshold passes.
    status, _ = compare(
        _report(benchmarks={"BM_A": 10.0}),
        _report(benchmarks={"BM_A": 11.0}),
        threshold=15.0,
    )
    check("in-threshold growth exits 0", status == 0)

    # 3. Removed/added rows are advisory, never failures.
    status, lines = compare(
        _report(benchmarks={"BM_A": 10.0, "BM_B": 5.0}),
        _report(benchmarks={"BM_A": 10.0, "BM_C": 5.0}),
    )
    check("removed/added rows stay advisory", status == 0)
    check("removed row printed", any("REMOVED" in line for line in lines))
    check("added row printed", any("ADDED" in line for line in lines))

    # 4. A missing benchmarks table compares clean (old baselines).
    status, lines = compare(
        _report(benchmarks=None),
        _report(benchmarks={"BM_A": 10.0}),
    )
    check("missing benchmarks table exits 0", status == 0)
    check(
        "missing table is noted",
        any("no 'benchmarks' table" in line for line in lines),
    )

    # 5. Seed/jobs context mismatch warns loudly (but does not fail).
    status, lines = compare(
        _report(seed=7, jobs=1, benchmarks={"BM_A": 10.0}),
        _report(seed=7, jobs=2, benchmarks={"BM_A": 10.0}),
    )
    check("context mismatch exits 0", status == 0)
    check(
        "context mismatch warns",
        any("different settings" in line and "jobs" in line for line in lines),
    )
    _, lines = compare(
        _report(benchmarks={"BM_A": 1.0}), _report(benchmarks={"BM_A": 1.0})
    )
    check(
        "matched context does not warn",
        not any("different settings" in line for line in lines),
    )

    # 6. Quantile p50/p99 drift past the quantile threshold is flagged.
    base_q = {"service.decision_latency": {"p50": 2.0, "p99": 8.0}}
    drift_q = {"service.decision_latency": {"p50": 2.0, "p99": 9.0}}
    status, lines = compare(
        _report(benchmarks={"BM_A": 1.0}, quantiles=base_q),
        _report(benchmarks={"BM_A": 1.0}, quantiles=drift_q),
        quantile_threshold=5.0,
    )
    check("quantile drift stays advisory", status == 0)
    check(
        "quantile drift is flagged",
        any("CHANGED" in line and "p99" in line for line in lines),
    )
    _, lines = compare(
        _report(benchmarks={"BM_A": 1.0}, quantiles=base_q),
        _report(benchmarks={"BM_A": 1.0}, quantiles=base_q),
    )
    check(
        "stable quantiles are not flagged",
        not any("CHANGED" in line for line in lines),
    )

    # 7. The symmetry-ablation rows (BM_BehaviorSearchCanonical/<n>/<sym>)
    # are keyed by their full parameterized name: a regression on one
    # parameterization flags that row alone, and a baseline that predates
    # the ablation treats the new rows as ADDED, not as a failure.
    canonical_rows = {
        "BM_BehaviorSearchCanonical/5/0": 40.0,
        "BM_BehaviorSearchCanonical/5/1": 8.0,
    }
    status, lines = compare(
        _report(benchmarks=canonical_rows),
        _report(
            benchmarks={
                "BM_BehaviorSearchCanonical/5/0": 41.0,
                "BM_BehaviorSearchCanonical/5/1": 16.0,
            }
        ),
        threshold=15.0,
    )
    check("canonical-row regression exits 1", status == 1)
    check(
        "only the regressed parameterization is flagged",
        any(
            "BM_BehaviorSearchCanonical/5/1" in line and "REGRESSION" in line
            for line in lines
        )
        and not any(
            "BM_BehaviorSearchCanonical/5/0" in line and "REGRESSION" in line
            for line in lines
        ),
    )
    status, lines = compare(
        _report(benchmarks={"BM_BehaviorSearch/5/1": 30.0}),
        _report(
            benchmarks={"BM_BehaviorSearch/5/1": 30.0, **canonical_rows}
        ),
    )
    check("new canonical rows vs old baseline exit 0", status == 0)
    check(
        "new canonical rows print as ADDED",
        sum(
            "BM_BehaviorSearchCanonical" in line and "ADDED" in line
            for line in lines
        )
        == 2,
    )

    # 8. The front-end and per-class rows (BM_FrontendThroughput/<jobs>,
    # BM_ServiceClassLatency/<class>) follow the same full-name keying: a
    # regression on one admission class flags that class alone, and a
    # baseline that predates the front-end treats its rows as ADDED.
    class_rows = {
        "BM_ServiceClassLatency/0": 3.0,
        "BM_ServiceClassLatency/1": 3.0,
        "BM_ServiceClassLatency/2": 3.0,
    }
    status, lines = compare(
        _report(benchmarks=class_rows),
        _report(
            benchmarks={
                "BM_ServiceClassLatency/0": 3.1,
                "BM_ServiceClassLatency/1": 6.0,
                "BM_ServiceClassLatency/2": 3.1,
            }
        ),
        threshold=15.0,
    )
    check("per-class regression exits 1", status == 1)
    check(
        "only the regressed class row is flagged",
        any(
            "BM_ServiceClassLatency/1" in line and "REGRESSION" in line
            for line in lines
        )
        and not any(
            "BM_ServiceClassLatency/0" in line and "REGRESSION" in line
            for line in lines
        ),
    )
    frontend_rows = {
        "BM_FrontendThroughput/1": 30.0,
        "BM_FrontendThroughput/4": 9.0,
    }
    status, lines = compare(
        _report(benchmarks={"BM_ServiceThroughput/1": 25.0}),
        _report(
            benchmarks={"BM_ServiceThroughput/1": 25.0, **frontend_rows}
        ),
    )
    check("new frontend rows vs old baseline exit 0", status == 0)
    check(
        "new frontend rows print as ADDED",
        sum(
            "BM_FrontendThroughput" in line and "ADDED" in line
            for line in lines
        )
        == 2,
    )

    # 9. --require-rows: a present row (exact or parameterized) passes; a
    # missing one fails hard even though REMOVED alone stays advisory.
    subset_rows = {
        "BM_BehaviorSearchSubsetCanonical/5/0": 8.0,
        "BM_BehaviorSearchSubsetCanonical/5/1": 2.0,
    }
    status, lines = compare(
        _report(benchmarks=subset_rows),
        _report(benchmarks=subset_rows),
        require_rows=["BM_BehaviorSearchSubsetCanonical"],
    )
    check("required parameterized row present exits 0", status == 0)
    status, lines = compare(
        _report(benchmarks=subset_rows),
        _report(benchmarks={"BM_A": 1.0}),
        require_rows=["BM_BehaviorSearchSubsetCanonical"],
    )
    check("required row missing exits 1", status == 1)
    check(
        "missing required row is named",
        any(
            "MISSING" in line or "BM_BehaviorSearchSubsetCanonical" == line.strip()
            for line in lines
        )
        and any("MISSING" in line for line in lines),
    )
    status, _ = compare(
        _report(benchmarks=subset_rows),
        _report(benchmarks={"BM_BehaviorSearchSubsetCanonicalX/5/1": 2.0}),
        require_rows=["BM_BehaviorSearchSubsetCanonical"],
    )
    check("prefix match requires a '/' boundary", status == 1)
    status, _ = compare(
        _report(benchmarks=subset_rows),
        _report(benchmarks=None),
        require_rows=["BM_BehaviorSearchSubsetCanonical"],
    )
    check("required rows fail on a missing benchmarks table", status == 1)
    status, _ = compare(
        _report(benchmarks={"BM_A": 10.0}),
        _report(benchmarks={"BM_A": 10.0, **subset_rows}),
        require_rows=["BM_BehaviorSearchSubsetCanonical", "BM_A"],
    )
    check("multiple required rows all present exit 0", status == 0)

    # 10. Malformed quantile entries are skipped, not fatal.
    status, _ = compare(
        _report(benchmarks={"BM_A": 1.0}, quantiles={"bad": {"p50": 1.0}}),
        _report(benchmarks={"BM_A": 1.0}, quantiles=base_q),
    )
    check("partial quantile entries are tolerated", status == 0)

    # 11. Wall-clock sketches (``*_ms``) are machine noise: drift there is
    # never flagged, while a virtual-time sketch in the same report is.
    wall_base = {
        "sim.round_ms": {"p50": 0.002, "p99": 0.04},
        "sweep.shard_wall_ms": {"p50": 3.0, "p99": 9.0},
        **base_q,
    }
    wall_drift = {
        "sim.round_ms": {"p50": 0.004, "p99": 0.09},
        "sweep.shard_wall_ms": {"p50": 5.0, "p99": 20.0},
        **drift_q,
    }
    status, lines = compare(
        _report(benchmarks={"BM_A": 1.0}, quantiles=wall_base),
        _report(benchmarks={"BM_A": 1.0}, quantiles=wall_drift),
        quantile_threshold=5.0,
    )
    check("wall-clock sketches stay advisory", status == 0)
    check(
        "wall-clock sketch drift is not flagged",
        not any("_ms" in line and "CHANGED" in line for line in lines),
    )
    check(
        "wall-clock sketches are left out of the quantile table",
        not any(line.startswith(("sim.round_ms", "sweep.shard_wall_ms"))
                for line in lines),
    )
    check(
        "virtual-time drift next to wall-clock sketches is still flagged",
        any("service.decision_latency" in line and "CHANGED" in line
            for line in lines),
    )

    if failures:
        print(f"self-test: {len(failures)} check(s) FAILED")
        return 1
    print("self-test: all checks passed")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline", nargs="?", help="baseline bench report (JSON)"
    )
    parser.add_argument(
        "candidate", nargs="?", help="candidate bench report (JSON)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=15.0,
        metavar="PCT",
        help="regression threshold in percent (default: %(default)s)",
    )
    parser.add_argument(
        "--metric",
        default="real_ms",
        help="benchmarks-table column to compare (default: %(default)s)",
    )
    parser.add_argument(
        "--quantile-threshold",
        type=float,
        default=5.0,
        metavar="PCT",
        help="advisory p50/p99 drift threshold in percent "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--require-rows",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless the candidate carries this benchmark row (exact "
        "name or NAME/<args> parameterization); repeatable",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in unit checks and exit",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.candidate is None:
        parser.error("baseline and candidate reports are required")

    status, lines = compare(
        load_report(args.baseline),
        load_report(args.candidate),
        metric=args.metric,
        threshold=args.threshold,
        quantile_threshold=args.quantile_threshold,
        require_rows=args.require_rows,
        baseline_path=args.baseline,
        candidate_path=args.candidate,
    )
    try:
        print("\n".join(lines))
    except BrokenPipeError:
        # A downstream `| head` closed the pipe early; swallow the write
        # error (and park stdout on devnull so interpreter shutdown does
        # not raise it again) but keep the regression exit status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())

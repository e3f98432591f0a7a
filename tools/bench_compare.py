#!/usr/bin/env python3
"""Diff BENCH_kernels.json files and flag perf regressions.

Usage:
    tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold PCT]
    tools/bench_compare.py --pairs B1.json C1.json B2.json C2.json ...

Matches rows by kernel and reports the ns/op delta for each;
exits 1 when any kernel regressed by more than --threshold percent (default
10). Rows present in only one file are listed but never fail the diff (new
kernels appear, old ones retire).

--pairs judges k >= 2 alternating baseline/candidate runs (B1 C1 B2 C2 ...,
each pair run back to back) by the paired rule perfbench claims are judged
by: a kernel is flagged only when the candidate is worse than its baseline
in all k pairs and its median is worse than the baseline median by more
than the spread of the k baseline runs (the distance between their
quartiles). One noisy pair cannot trip it, and neither can a shift smaller
than the baseline's own run-to-run spread. Kernels better by the same rule
are marked "faster". --threshold does not apply; kernels missing from any
file are skipped.

--metrics restricts the comparison to kernels matching any of the given
comma-separated glob patterns (e.g. `--metrics ogws_iteration` or
`--metrics 'lrs_*,timing_*'`), to pin one hot loop without flaking on
unrelated kernels.

The lrsizer-bench-kernels-v2 schema this consumes (and the batch/cache
schemas its sibling reports use) is documented in docs/SCHEMAS.md.

Stdlib-only so it runs anywhere CI has a python3.
"""

import argparse
import fnmatch
import json
import statistics
import sys


def load_rows(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != "lrsizer-bench-kernels-v2":
        sys.exit(f"{path}: not a lrsizer-bench-kernels-v2 file "
                 f"(schema = {doc.get('schema')!r})")
    rows = {row["kernel"]: row["ns_per_op"] for row in doc.get("kernels", [])}
    return doc, rows


def select(rows, metrics):
    """Rows whose kernel matches one of the comma-separated globs."""
    if not metrics:
        return rows
    patterns = [p.strip() for p in metrics.split(",") if p.strip()]
    return {k: v for k, v in rows.items()
            if any(fnmatch.fnmatch(k, p) for p in patterns)}


def compare_pairs(paths, metrics):
    """The paired rule over alternating baseline/candidate files."""
    if len(paths) < 4 or len(paths) % 2:
        sys.exit("--pairs needs an even number of files, at least two pairs "
                 "(B1 C1 B2 C2 ...)")
    docs = [load_rows(path) for path in paths]
    base_runs = [select(rows, metrics) for _, rows in docs[0::2]]
    cand_runs = [select(rows, metrics) for _, rows in docs[1::2]]
    if all(not rows for rows in base_runs + cand_runs):
        sys.exit(f"--metrics {metrics!r} matched no kernels")
    profiles = {doc.get("profile") for doc, _ in docs}
    if len(profiles) > 1:
        print("warning: different profiles — deltas are not comparable",
              file=sys.stderr)
    k = len(base_runs)
    print(f"{k} pairs; baseline git {docs[0][0].get('git_sha', '?')}, "
          f"candidate git {docs[1][0].get('git_sha', '?')}, "
          f"profile {docs[0][0].get('profile', '?')}")

    kernels = set.intersection(*(set(rows) for rows in base_runs + cand_runs))
    skipped = set.union(*(set(rows) for rows in base_runs + cand_runs)) - kernels
    regressions = []
    width = max((len(name) for name in kernels), default=6) + 2
    print(f"{'kernel':<{width}} {'base med':>12} {'cand med':>12} {'delta':>8} "
          f"{'IQR':>8} {'worse':>6} {'better':>6}")
    for kernel in sorted(kernels):
        base = [rows[kernel] for rows in base_runs]
        cand = [rows[kernel] for rows in cand_runs]
        quartiles = statistics.quantiles(base, n=4)
        spread = quartiles[2] - quartiles[0]
        worse = sum(c > b for b, c in zip(base, cand))
        better = sum(c < b for b, c in zip(base, cand))
        b_med, c_med = statistics.median(base), statistics.median(cand)
        delta = 100.0 * (c_med - b_med) / b_med if b_med > 0 else 0.0
        spread_pct = 100.0 * spread / b_med if b_med > 0 else 0.0
        marker = ""
        if worse == k and c_med - b_med > spread:
            marker = "  REGRESSION"
            regressions.append((kernel, delta))
        elif better == k and b_med - c_med > spread:
            marker = "  faster"
        print(f"{kernel:<{width}} {b_med:>12.0f} {c_med:>12.0f} {delta:>+7.1f}% "
              f"{spread_pct:>7.1f}% {worse:>3}/{k} {better:>3}/{k}{marker}")
    for kernel in sorted(skipped):
        print(f"{kernel:<{width}} not in every file, skipped")

    if regressions:
        print(f"\n{len(regressions)} kernel(s) worse in all {k} pairs, the "
              "median by more than the baseline IQR:", file=sys.stderr)
        for kernel, delta in regressions:
            print(f"  {kernel}: {delta:+.1f}% (median)", file=sys.stderr)
        return 1
    print(f"\nno kernel worse in all {k} pairs with its median worse by more "
          "than the baseline IQR")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="BASELINE CANDIDATE, or with --pairs "
                             "B1 C1 B2 C2 ...")
    parser.add_argument("--pairs", action="store_true",
                        help="judge alternating baseline/candidate runs by "
                             "the paired rule")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    parser.add_argument("--metrics", default=None,
                        help="comma-separated kernel-name globs; only "
                             "matching rows are compared (default: all)")
    args = parser.parse_args()
    if args.pairs:
        return compare_pairs(args.files, args.metrics)
    if len(args.files) != 2:
        parser.error("expected BASELINE CANDIDATE (or --pairs B1 C1 B2 C2 ...)")
    baseline, candidate = args.files

    base_doc, base = load_rows(baseline)
    cand_doc, cand = load_rows(candidate)
    if args.metrics:
        base = select(base, args.metrics)
        cand = select(cand, args.metrics)
        if not base and not cand:
            sys.exit(f"--metrics {args.metrics!r} matched no kernels")
    print(f"baseline  {baseline} (git {base_doc.get('git_sha', '?')}, "
          f"profile {base_doc.get('profile', '?')})")
    print(f"candidate {candidate} (git {cand_doc.get('git_sha', '?')}, "
          f"profile {cand_doc.get('profile', '?')})")
    if base_doc.get("profile") != cand_doc.get("profile"):
        print("warning: different profiles — deltas are not comparable",
              file=sys.stderr)

    regressions = []
    width = max((len(k) for k in base.keys() | cand.keys()), default=6) + 2
    print(f"{'kernel':<{width}} {'base ns':>12} {'cand ns':>12} {'delta':>8}")
    for kernel in sorted(base.keys() | cand.keys()):
        if kernel not in base:
            print(f"{kernel:<{width}} {'-':>12} {cand[kernel]:>12.0f}      new")
            continue
        if kernel not in cand:
            print(f"{kernel:<{width}} {base[kernel]:>12.0f} {'-':>12}  removed")
            continue
        b, c = base[kernel], cand[kernel]
        delta = 100.0 * (c - b) / b if b > 0 else 0.0
        marker = ""
        if delta > args.threshold:
            marker = "  REGRESSION"
            regressions.append((kernel, delta))
        print(f"{kernel:<{width}} {b:>12.0f} {c:>12.0f} {delta:>+7.1f}%{marker}")

    if regressions:
        print(f"\n{len(regressions)} kernel(s) regressed more than "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for kernel, delta in regressions:
            print(f"  {kernel}: {delta:+.1f}%", file=sys.stderr)
        return 1
    print("\nno regressions above threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

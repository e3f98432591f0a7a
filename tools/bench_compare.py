#!/usr/bin/env python3
"""Diff two BENCH_kernels.json files and flag perf regressions.

Usage:
    tools/bench_compare.py BASELINE.json CANDIDATE.json [--threshold PCT]

Matches rows by (kernel, threads) and reports the ns/op delta for each;
exits 1 when any kernel regressed by more than --threshold percent (default
10). Rows present in only one file are listed but never fail the diff (new
kernels appear, old ones retire).

--metrics restricts the comparison to kernels matching any of the given
comma-separated glob patterns (e.g. `--metrics ogws_iteration` or
`--metrics 'lrs_*,timing_*'`) — the shape CI's trace-disabled bench guard
uses to pin one hot loop without flaking on unrelated kernels.

The lrsizer-bench-kernels-v1 schema this consumes (and the batch/cache
schemas its sibling reports use) is documented in docs/SCHEMAS.md.

Stdlib-only so it runs anywhere CI has a python3.
"""

import argparse
import fnmatch
import json
import sys


def load_rows(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != "lrsizer-bench-kernels-v1":
        sys.exit(f"{path}: not a lrsizer-bench-kernels-v1 file "
                 f"(schema = {doc.get('schema')!r})")
    rows = {(row["kernel"], row["threads"]): row["ns_per_op"]
            for row in doc.get("kernels", [])}
    return doc, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    parser.add_argument("--metrics", default=None,
                        help="comma-separated kernel-name globs; only "
                             "matching rows are compared (default: all)")
    args = parser.parse_args()

    base_doc, base = load_rows(args.baseline)
    cand_doc, cand = load_rows(args.candidate)
    if args.metrics:
        patterns = [p.strip() for p in args.metrics.split(",") if p.strip()]
        selected = lambda kernel: any(  # noqa: E731
            fnmatch.fnmatch(kernel, p) for p in patterns)
        base = {k: v for k, v in base.items() if selected(k[0])}
        cand = {k: v for k, v in cand.items() if selected(k[0])}
        if not base and not cand:
            sys.exit(f"--metrics {args.metrics!r} matched no kernels")
    print(f"baseline  {args.baseline} (git {base_doc.get('git_sha', '?')}, "
          f"profile {base_doc.get('profile', '?')})")
    print(f"candidate {args.candidate} (git {cand_doc.get('git_sha', '?')}, "
          f"profile {cand_doc.get('profile', '?')})")
    if base_doc.get("profile") != cand_doc.get("profile"):
        print("warning: different profiles — deltas are not comparable",
              file=sys.stderr)

    regressions = []
    width = max((len(k) for k, _ in base.keys() | cand.keys()), default=6) + 2
    print(f"{'kernel':<{width}} {'thr':>3} {'base ns':>12} {'cand ns':>12} {'delta':>8}")
    for key in sorted(base.keys() | cand.keys()):
        kernel, threads = key
        if key not in base:
            print(f"{kernel:<{width}} {threads:>3} {'-':>12} {cand[key]:>12.0f}      new")
            continue
        if key not in cand:
            print(f"{kernel:<{width}} {threads:>3} {base[key]:>12.0f} {'-':>12}  removed")
            continue
        delta = 100.0 * (cand[key] - base[key]) / base[key] if base[key] > 0 else 0.0
        marker = ""
        if delta > args.threshold:
            marker = "  REGRESSION"
            regressions.append((kernel, threads, delta))
        print(f"{kernel:<{width}} {threads:>3} {base[key]:>12.0f} "
              f"{cand[key]:>12.0f} {delta:>+7.1f}%{marker}")

    if regressions:
        print(f"\n{len(regressions)} kernel(s) regressed more than "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for kernel, threads, delta in regressions:
            print(f"  {kernel} (threads={threads}): {delta:+.1f}%", file=sys.stderr)
        return 1
    print("\nno regressions above threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

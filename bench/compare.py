"""Compare two result sets, one row per workload x metric.

A result set is a file holding the captured standard output of any
number of runs (`python3 bench/run.py ... >> base.txt`); only the
`{"bench_record": ...}` lines are read.  Each row gives both sides'
median with quartiles and run count, the ratio NEW/BASE with its base,
and a verdict for end-to-end metrics:

    REGRESSION  NEW's median is worse than BASE's by more than the bound
    improved    better by more than the bound
    ok          within the bound
    unresolved  either side's quartile spread (as a share of its median)
                is wider than the bound, and not every NEW run beats
                every BASE run

Per-layer metrics (from `--trace 1` runs) are listed without a verdict.
"""

import json
import statistics

from run import E2E


def _records(path):
    with open(path) as fh:
        return [json.loads(line)["bench_record"] for line in fh
                if line.startswith('{"bench_record"')]


def _collect(records, key):
    out = {}
    for rec in records:
        for name, value in rec.get(key, {}).items():
            out.setdefault((rec["workload"], name), []).append(value)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _spread(values):
    q1, q3 = _quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base, new, better, bound):
    mb, mn = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mn - mb) / abs(mb) if mb else sign * (mn - mb)
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if bound > 0 and max(_spread(base), _spread(new)) > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "REGRESSION"
    if worse < -bound:
        return "improved"
    return "ok"


def _side(values):
    q1, q3 = _quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(base_path, new_path):
    base_recs, new_recs = _records(base_path), _records(new_path)
    if not base_recs or not new_recs:
        print("error: no bench_record lines in one of the result sets")
        return 2
    rows = []
    for key in ("metrics", "per_layer"):
        base, new = _collect(base_recs, key), _collect(new_recs, key)
        for (workload, name) in sorted(set(base) & set(new)):
            b, n = base[(workload, name)], new[(workload, name)]
            mb = statistics.median(b)
            ratio = f"{statistics.median(n) / mb:.4f}" if mb else "n/a"
            if key == "metrics":
                unit, better, bound = E2E[name]
                flag = verdict(b, n, better, bound)
            else:
                unit, flag = "", "-"
            rows.append((workload, name, _side(b), _side(n),
                         f"{ratio} (base {mb:.6g} {unit})".rstrip(), flag))
    header = ("workload", "metric", "BASE median [q1, q3]", "NEW median [q1, q3]",
              "NEW/BASE", "verdict")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if any(r[-1] == "REGRESSION" for r in rows) else 0

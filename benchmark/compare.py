#!/usr/bin/env python3
"""Summarise or compare arrayflex_bench outputs.

    compare.py DIR         every metric's median and quartiles per workload,
                           and the tracing overhead when DIR holds traced runs
    compare.py BASE NEW    each end-to-end metric on each workload labelled
                           better, worse, unchanged or unresolved

A directory holds the run records `run.sh DIR` writes, one JSON file per
run.  The bound and direction of each end-to-end metric come from
BENCHMARK.json.  The rules:

  unresolved  either side's spread (interquartile range / median) is wider
              than the bound, unless every NEW run reads better than every
              BASE run;
  better      NEW wins at least 9 in 10 of the runs paired by seed (ties
              count for neither) and the medians differ by more than BASE's
              interquartile range;
  worse       NEW's median is worse than BASE's by more than the bound;
  unchanged   otherwise.

Exit status: 1 when a run failed a correctness check or a metric is worse,
else 0.  Standard library only.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIR_WIN_SHARE = 0.9


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load_runs(directory):
    """{(workload, traced): [record, ...]} with records sorted by seed."""
    runs = {}
    paths = sorted(pathlib.Path(directory).glob("*.json"))
    if not paths:
        sys.exit(f"compare.py: no run records in {directory}")
    for path in paths:
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["traced"]), []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) cuts them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def values(records, group, name):
    return [r[group][name]["value"] for r in records if name in r[group]]


def label(base, new, bound, higher_is_better):
    sign = 1 if higher_is_better else -1
    b_q1, b_median, b_q3 = quartiles(base)
    _, n_median, _ = quartiles(new)
    if higher_is_better:
        all_better = min(new) > max(base)
    else:
        all_better = max(new) < min(base)
    if (spread(base) > bound or spread(new) > bound) and not all_better:
        return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    gain = sign * (n_median - b_median) / abs(b_median)
    if gain > 0 and wins >= PAIR_WIN_SHARE * len(pairs) and \
            abs(n_median - b_median) > b_q3 - b_q1:
        return "better"
    if gain < -bound:
        return "worse"
    return "unchanged"


def fmt(v):
    return f"{v:.4g}"


def describe(vals):
    q1, median, q3 = quartiles(vals)
    return f"{fmt(median)} [{fmt(q1)}, {fmt(q3)}]"


def check_correct(runs, name):
    ok = True
    for records in runs.values():
        for r in records:
            if not r["correct"]:
                ok = False
                print(f"{name}: {r['workload']} seed {r['seed']} FAILED its checks: "
                      + "; ".join(r.get("failures", [])))
    return ok


def summarise(directory, spec):
    runs = load_runs(directory)
    ok = check_correct(runs, directory)
    for workload in sorted({w for w, _ in runs}):
        plain = runs.get((workload, False), [])
        traced = runs.get((workload, True), [])
        r0 = (plain or traced)[0]
        print(f"\n{workload}: {len(plain)} untraced + {len(traced)} traced runs, "
              f"commit {r0['commit']}, {r0['build_type']} build, "
              f"{r0['hardware_threads']} hardware threads, {r0['seconds']} s per run")
        print(f"  {'end-to-end':<36} {'median [q1, q3]':<34} {'spread':>7} {'bound':>6}"
              f"  {'tracing overhead':>18}")
        for name, m in spec.items():
            vals = values(plain, "end_to_end", name)
            if not vals:
                continue
            overhead = ""
            traced_vals = values(traced, "end_to_end", name)
            if traced_vals:
                base = statistics.median(vals)
                delta = statistics.median(traced_vals) - base
                overhead = f"{fmt(delta)} ({100 * delta / base:+.1f}%)"
            print(f"  {name + ' (' + r0['end_to_end'][name]['unit'] + ')':<36} "
                  f"{describe(vals):<34} {spread(vals):7.3f} {m['bound']:6.2f}  {overhead:>18}")
        for group, records, title in (("extra", plain, "workload-specific"),
                                      ("per_layer", traced, "per-layer (traced)")):
            names = sorted({n for r in records for n in r[group]})
            if names:
                print(f"  {title}")
            for name in names:
                unit = next(r[group][name]["unit"] for r in records if name in r[group])
                print(f"    {name + ' (' + unit + ')':<46} {describe(values(records, group, name))}")
    return ok


def compare(base_dir, new_dir, spec):
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    base_ok = check_correct(base_runs, base_dir)
    new_ok = check_correct(new_runs, new_dir)
    ok = base_ok and new_ok
    print(f"{'workload':<18} {'metric':<14} {'base median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'change':>8}  label")
    for workload in sorted({w for w, traced in base_runs if not traced}):
        base = base_runs.get((workload, False), [])
        new = new_runs.get((workload, False), [])
        for name, m in spec.items():
            b, n = values(base, "end_to_end", name), values(new, "end_to_end", name)
            if not b or not n:
                print(f"{workload:<18} {name:<14} missing")
                continue
            verdict = label(b, n, m["bound"], m["better"] == "higher")
            change = 100 * (statistics.median(n) - statistics.median(b)) / statistics.median(b)
            print(f"{workload:<18} {name:<14} {describe(b):<32} {describe(n):<32} "
                  f"{change:+7.1f}%  {verdict}")
            ok = ok and verdict != "worse"
    return ok


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    spec = load_spec()
    ok = summarise(argv[1], spec) if len(argv) == 2 else compare(argv[1], argv[2], spec)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

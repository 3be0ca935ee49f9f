#!/usr/bin/env python3
"""Checks of the benchmark's own tools; ctest runs it in the benchmark build.

    test_tools.py ARRAYFLEX_BENCH

* compare.py labels fixture outputs better, worse, unchanged and
  unresolved, and exits 1 when a metric got worse or a run failed a check;
* arrayflex_bench rejects an unknown --workload with exit status 2 and
  prints no result line;
* arrayflex_bench measures exactly the metrics BENCHMARK.json lists.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
COMPARE = HERE.parent / "compare.py"
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
# Run-to-run jitter of the fixtures: a spread of about 1%.
JITTER = [1.0, 0.99, 1.01, 0.995, 1.005, 0.998, 1.002, 0.992, 1.008, 1.0]


def write_runs(directory, metrics_by_run, correct=True):
    directory.mkdir()
    for seed, metrics in enumerate(metrics_by_run, start=1):
        record = {
            "workload": "fixture", "seed": seed, "seconds": 1, "traced": False,
            "build_type": "Release", "hardware_threads": 4, "commit": "fixture",
            "correct": correct, "attempted": 1, "failed": 0, "failures": [],
            "end_to_end": {n: {"value": v, "unit": E2E[n]["unit"]}
                           for n, v in metrics.items()},
            "per_layer": {}, "extra": {},
        }
        (directory / f"fixture.seed{seed}.json").write_text(json.dumps(record))


def runs(scale=None, jitter=JITTER):
    """Ten runs of every end-to-end metric around 100, times scale[name]."""
    scale = scale or {}
    return [{n: 100.0 * scale.get(n, 1.0) * j for n in E2E} for j in jitter]


def compare(base, new):
    p = subprocess.run([sys.executable, str(COMPARE), str(base), str(new)],
                       capture_output=True, text=True)
    labels = {}
    for line in p.stdout.splitlines():
        fields = line.split()
        if fields and fields[0] == "fixture":
            labels[fields[1]] = fields[-1]
    return p.returncode, labels, p.stdout + p.stderr


def expect(condition, what, detail=""):
    if not condition:
        print(f"FAIL: {what}\n{detail}")
        sys.exit(1)


def factor(name, worse):
    """A change of twice the metric's bound, in the bad or the good way."""
    step = 2 * E2E[name]["bound"]
    good_is_up = E2E[name]["better"] == "higher"
    return 1 + step if good_is_up != worse else 1 - step


def test_compare(tmp):
    names = list(E2E)
    better, worse, unresolved = names[1], names[2], names[3]
    write_runs(tmp / "base", runs())

    # Same code twice, different jitter: every metric unchanged, exit 0.
    write_runs(tmp / "same", runs(jitter=JITTER[::-1]))
    code, labels, out = compare(tmp / "base", tmp / "same")
    expect(code == 0 and set(labels.values()) == {"unchanged"} and
           len(labels) == len(names), "identical runs compare unchanged", out)

    # One metric better, one worse, one too noisy to tell.
    new = runs({better: factor(better, worse=False), worse: factor(worse, worse=True)})
    bound = E2E[unresolved]["bound"]
    for i, run in enumerate(new):
        run[unresolved] = 100.0 * (1 + 2 * bound * (1 if i % 2 else -1))
    write_runs(tmp / "new", new)
    code, labels, out = compare(tmp / "base", tmp / "new")
    expect(labels.get(better) == "better", f"{better} labelled better", out)
    expect(labels.get(worse) == "worse", f"{worse} labelled worse", out)
    expect(labels.get(unresolved) == "unresolved", f"{unresolved} labelled unresolved", out)
    expect(labels.get(names[0]) == "unchanged", f"{names[0]} labelled unchanged", out)
    expect(code == 1, "a worse metric makes compare.py exit 1", out)

    # A noisy base still resolves when every new run beats every base run.
    noisy = runs()
    for i, run in enumerate(noisy):
        run[better] = 100.0 * (1 + 2 * E2E[better]["bound"] * (1 if i % 2 else -1))
    write_runs(tmp / "noisy", noisy)
    step = factor(better, worse=False) ** 2
    write_runs(tmp / "clear", runs({better: step}))
    code, labels, out = compare(tmp / "noisy", tmp / "clear")
    expect(labels.get(better) == "better", f"{better} beyond a noisy base is better", out)

    # A run that failed its correctness checks fails the comparison.
    write_runs(tmp / "broken", runs(), correct=False)
    code, _, out = compare(tmp / "base", tmp / "broken")
    expect(code == 1, "a failed correctness check makes compare.py exit 1", out)


def test_bench(bench):
    p = subprocess.run([bench, "--workload", "no_such_workload", "--seed", "1"],
                       capture_output=True, text=True)
    expect(p.returncode == 2, "unknown --workload exits 2", p.stdout + p.stderr)
    expect(not any(line.startswith("{") for line in p.stdout.splitlines()),
           "unknown --workload prints no result", p.stdout)

    p = subprocess.run([bench, "--list-metrics"], capture_output=True, text=True)
    listed = [line.split() for line in p.stdout.splitlines()]
    for group in ("end_to_end", "per_layer"):
        have = [name for g, name in listed if g == group]
        want = [m["name"] for m in SPEC[group]]
        expect(have == want, f"{group} metrics match BENCHMARK.json", f"{have}\n{want}")
    have = sorted(name for g, name in listed if g == "workload")
    want = sorted(w["name"] for w in SPEC["workloads"])
    expect(have == want, "workloads match BENCHMARK.json", f"{have}\n{want}")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        test_compare(pathlib.Path(tmp))
    test_bench(sys.argv[1])
    print("benchmark tools: all checks passed")


if __name__ == "__main__":
    main()

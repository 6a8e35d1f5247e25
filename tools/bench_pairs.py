"""Measure the checkout's uncommitted change against HEAD in alternated pairs, kept as BENCH_<pr>.json.

    python tools/bench_pairs.py PR

Run it from inside a git checkout before committing the change. The parent
is HEAD; the change is HEAD with the index's and the working tree's edits to
tracked files (``git stash create``, which leaves both untouched), so add new
files to the index first. Both trees are extracted with ``git archive`` into
temporary directories, removed afterwards. For each (workload, seed, pairs)
in SERIES, pair i runs each tree's own ``bench/run.py --workload W --seed S
--seconds 20`` once, the parent first when i is odd and the change first
when i is even. The runs go to ``BENCH_<PR>.json`` at the root of the
checkout, in tools/bench_backfill.py's layout with "commit" null (the file
is committed with the change it measures); then each series' end-to-end
metrics are printed: the medians and quartiles of both trees, the change's
move in percent, and the number of pairs where the change read lower.
"""

import statistics
import subprocess
import sys
import tempfile

from bench_backfill import ROOT, extract, git, run_workload, write_bench

SECONDS = 20
# (workload, seed, pairs): 5 pairs of each workload on seed 11, one the
# change was not tuned on. Every workload builds a dihedral irrep set
# (dihedral:31, :32 and :128), whose stacks are float64, so each may
# move a little in setup_s and spectrum_s and none may regress
SERIES = [("cli_exact", 11, 5), ("dense_lift", 11, 5), ("big_groups", 11, 5)]


def summarize(runs: list) -> None:
    series = {}
    for run in runs:
        if run["result"] is None:
            print(f"{run['workload']} seed {run['seed']} pair {run['pair']} "
                  f"{run['tree']}: exit {run['exit']}, no result")
            continue
        series.setdefault((run["workload"], run["seed"]), {}).setdefault(
            run["pair"], {})[run["tree"]] = run["result"]["metrics"]
    for (workload, seed), pairs in series.items():
        pairs = [pair for pair in pairs.values() if len(pair) == 2]
        print(f"{workload} seed {seed}, {len(pairs)} pairs")
        for name in pairs[0]["parent"]:
            p = [pair["parent"][name]["value"] for pair in pairs]
            c = [pair["commit"][name]["value"] for pair in pairs]
            (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(x, n=4) for x in (p, c))
            lower = sum(ci < pi for pi, ci in zip(p, c))
            print(f"  {name:12} {pm:.6g} [{p1:.6g}, {p3:.6g}] -> {cm:.6g} "
                  f"[{c1:.6g}, {c3:.6g}] {100 * (cm - pm) / pm:+.1f}%, "
                  f"lower in {lower} of {len(pairs)}")


def main() -> None:
    name = f"BENCH_{int(sys.argv[1])}.json"
    parent = git("rev-parse", "HEAD")
    change = git("stash", "create") or sys.exit("no change to tracked files")
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as p, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as c:
        trees = {"parent": extract(parent, p), "commit": extract(change, c)}
        for workload, seed, pairs in SERIES:
            for i in range(1, pairs + 1):
                order = ["parent", "commit"] if i % 2 else ["commit", "parent"]
                for side in order:
                    runs.append(run_workload(trees[side], workload, seed, SECONDS,
                                             side=side, pair=i))
                print(f"{workload} seed {seed} pair {i}: exit "
                      f"{', '.join(str(r['exit']) for r in runs[-2:])}", flush=True)
    write_bench(name, None, parent, runs)
    summarize(runs)


if __name__ == "__main__":
    main()

"""Run the benchmark at past commits and keep each commit's runs as BENCH_<pr or sha>.json.

    python tools/bench_backfill.py

Run it from inside a git checkout. For each commit in COMMITS, the commits
that changed a hot path, the commit's tree is extracted with ``git archive``
into a temporary directory, which is removed afterwards, and that tree's own
``bench/run.py`` runs each workload once, ``--seed 1 --seconds 4``. The file
is ``BENCH_<pr>.json`` at the root of the checkout, where <pr> is the number
in a "PR <n>:" subject line, or ``BENCH_<sha>.json`` for a commit without one.
Use one machine for a whole series: the times are in the benchmark's
reference seconds, but a series mixed across machines still compares poorly.

Every BENCH_*.json, from this script or from tools/bench_pairs.py, has one
layout (write_bench)::

    {"commit": <sha, or null when written before its commit>,
     "parent": <sha>,
     "runs": [{"tree": "commit" | "parent", "pair": <int> | null,
               "workload": ..., "seed": ..., "seconds": ..., "exit": <int>,
               "record": {...}, "result": {...},
               "stdout_tail": [...] | null, "stderr_tail": [...]}, ...]}

``record`` and ``result`` are the last two lines ``run.py`` prints: the run
record (input hash, failed ops, environment) and the result (``correct``,
``attempted``, ``failed`` and ``metrics``). The record's raw per-run time
lists (``op_times``, ``probe_times``, tens of kilobytes a run) are kept as
their count, median and quartiles (compact_record); ``stdout_tail`` holds
the text when those lines are not JSON.
"""

import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["big_groups", "cli_exact", "dense_lift"]
SEED = 1
SECONDS = 4
# the commits where a change touched a hot path, oldest first
COMMITS = [
    "22210b0", "be0dc0d", "007428b", "f9fb801", "988b2e6", "2e2c839", "fddbcc5",
    "bd974be", "5a13bc7", "c0a1ae0", "eddbba6", "4d36991", "0a9db9c", "aaabb7c",
    "abce518", "91633b1", "8895b8e", "a2a6e92", "3d1330f", "50f063b", "73ad3b3",
    "808c40e", "f8ec40d", "dc897ed", "27f2247", "254fc59", "cca0712", "db14a43",
    "27fac8f", "90a8fef", "44c1809",
]


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: str) -> Path:
    """The tree of commit ``rev``, written into the directory ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return Path(dest)


def compact_record(record: dict) -> dict:
    """record with each list of times in op_times and probe_times replaced
    by its count, median and quartiles."""
    def summary(times):
        if len(times) < 2:
            return {"runs": len(times), "times": times}
        q1, median, q3 = statistics.quantiles(times, n=4)
        return {"runs": len(times), "median": median, "q1": q1, "q3": q3}

    out = dict(record)
    for key in ("op_times", "probe_times"):
        times = record.get(key)
        if isinstance(times, dict):
            out[key] = {k: summary(v) for k, v in times.items()}
        elif isinstance(times, list):
            out[key] = summary(times)
    return out


def run_workload(tree: Path, workload: str, seed: int, seconds: float, *,
                 side: str = "commit", pair=None) -> dict:
    """One run of ``tree``'s own bench/run.py, as a run of the layout above."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()[-2:]
    try:
        record, result = (json.loads(line) for line in lines)
    except ValueError:  # fewer than two lines, or not JSON: keep the text
        record, result = None, None
    return {"tree": side, "pair": pair, "workload": workload, "seed": seed,
            "seconds": seconds, "exit": proc.returncode,
            "record": None if record is None else compact_record(record),
            "result": result, "stdout_tail": None if result else lines,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:] if proc.returncode else []}


def write_bench(name: str, commit, parent: str, runs: list) -> Path:
    out = ROOT / name
    doc = {"commit": commit, "parent": parent, "runs": runs}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return out


def main() -> None:
    for commit in COMMITS:
        sha = git("rev-parse", commit)
        with tempfile.TemporaryDirectory(prefix=f"bench-{commit}-") as tmp:
            tree = extract(sha, tmp)
            runs = [run_workload(tree, w, SEED, SECONDS) for w in WORKLOADS]
        match = re.match(r"PR (\d+):", git("log", "-1", "--format=%s", sha))
        out = write_bench(f"BENCH_{match[1] if match else commit}.json", sha,
                          git("rev-parse", f"{sha}^"), runs)
        codes = ", ".join(f"{r['workload']} exit {r['exit']}" for r in runs)
        print(f"{commit}: {out.name} ({codes})", flush=True)


if __name__ == "__main__":
    main()

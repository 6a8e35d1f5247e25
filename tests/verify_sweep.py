"""The 400-digraph verify sweep: `voltlift verify` on random correct lifts.

Every lift here is correct, so every exit code other than 0 is a false
alarm (1, a route comparison reported a mismatch) or a failure (2). The
draw is pinned: one default_rng(77), then for each group below, in this
order, 80 digraphs from conftest.random_voltage_digraph(rng, g,
max_vertices=4, max_arcs=10). Each runs in-process through cli.run at the
default tolerance.

    python tests/verify_sweep.py

prints the count of each exit code and every failing case with the
`matched` flag of each of its reports. It imports voltlift from src/ of
this checkout. The file name keeps pytest from collecting it; the tier-1
test tests/test_cli.py::test_verify_sweep_fails_only_on_known_false_alarms
runs sweep() and checks its failing cases against the known ones.
"""

import collections
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402

import voltlift as vl  # noqa: E402
from voltlift import cli  # noqa: E402
from conftest import random_voltage_digraph  # noqa: E402

SPECS = ["dihedral:4", "dihedral:6", "dihedral:8", "cyclic:6", "product:cyclic:2,dihedral:3"]
PER_GROUP = 80


def digraph_doc(d):
    names = d.group.element_names
    return {
        "vertices": list(d.vertices),
        "arcs": [
            {"from": d.vertices[u], "to": d.vertices[v], "voltage": names[x]}
            for u, v, x in d.arcs
        ],
    }


def sweep():
    """Run the sweep: the count of each exit code, and the failing cases as
    (spec, index, exit code, {report name: matched}) in sweep order."""
    rng = np.random.default_rng(77)
    codes = collections.Counter()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "digraph.json"), os.path.join(tmp, "verify.json")
        for spec in SPECS:
            g = vl.build_builtin_group(spec)
            for i in range(PER_GROUP):
                d = random_voltage_digraph(rng, g, max_vertices=4, max_arcs=10)
                with open(path, "w") as f:
                    json.dump(digraph_doc(d), f)
                if os.path.exists(out):
                    os.remove(out)
                code = cli.run(["verify", "--digraph", path, "--group", spec, "--out", out])
                codes[code] += 1
                if code:
                    reports = {}
                    if os.path.exists(out):
                        with open(out) as f:
                            reports = {k: v["matched"] for k, v in json.load(f).items()}
                    failures.append((spec, i, code, reports))
    return codes, failures


def main():
    codes, failures = sweep()
    total = sum(codes.values())
    print("exit codes: " + ", ".join(f"{c}: {codes[c]}" for c in sorted(codes)))
    print(f"failing: {total - codes[0]} of {total}")
    for spec, i, code, reports in failures:
        flags = ", ".join(f"{k}: {v}" for k, v in reports.items())
        print(f"  {spec} #{i}: exit {code} ({flags})")


if __name__ == "__main__":
    main()

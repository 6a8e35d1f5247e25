import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import voltlift as vl

# the worked example: two vertices, a loop at each and two parallel edges
# between them, over dihedral:3
K2STAR_PATH = os.path.join(os.path.dirname(__file__), "data", "k2star_dihedral3.json")
with open(K2STAR_PATH) as f:
    K2STAR_DOC = json.load(f)



# inputs with one huge value, each with the parser that reads it: "digraph"
# and "chars" documents over dihedral:3, and a "group" spec. An error
# message must not echo the value whole.
LONG_NAME = "q" * 100000
HUGE_INPUTS = {
    "voltage-name": ("digraph", {"vertices": ["a"], "arcs": [
        {"from": "a", "to": "a", "voltage": LONG_NAME}]}),
    "vertex-name": ("digraph", {"vertices": ["a"], "arcs": [
        {"from": "a", "to": LONG_NAME, "voltage": "r^0"}]}),
    "nested-voltage": ("digraph", {"vertices": ["a"], "arcs": [
        {"from": "a", "to": "a", "voltage": json.loads("[" * 900 + "]" * 900)}]}),
    "class-name": ("chars", {"classes": [[LONG_NAME]], "rows": [[[1, 0]]]}),
    "group-spec": ("group", LONG_NAME),
    "group-spec-number": ("group", "cyclic:" + "1" * 4000),
}


@pytest.fixture(scope="session")
def d3():
    return vl.build_builtin_group("dihedral:3")


@pytest.fixture(scope="session")
def d3_irreps(d3):
    return vl.builtin_irreps(d3)


@pytest.fixture(scope="session")
def k2star(d3):
    return vl.parse_voltage_digraph(K2STAR_DOC, d3)


def irrep_matrices(s, i):
    """The (n, d, d) matrices of irrep i of s: the stacks are in
    dimension-major order, so irrep i is row i - dims.index(d) of stacks[d]."""
    d = s.dims[i]
    return s.stacks[d][i - s.dims.index(d)]


def replaced_stacks(s, i, mats):
    """The stacks of s, with the matrices of irrep i replaced by mats in a
    copy of its dimension's stack, in the dtype that holds both: complex
    mats are written whole into a copy of a float64 stack."""
    d = s.dims[i]
    stack = np.array(s.stacks[d], dtype=np.result_type(s.stacks[d], mats))
    stack[i - s.dims.index(d)] = mats
    return {**s.stacks, d: stack}


def replaced(s, i, mats):
    """s with the matrices of irrep i replaced by mats: a new IrrepSet,
    validated as it is made, so an invalid one raises here."""
    return vl.IrrepSet(s.group, replaced_stacks(s, i, mats))


def unvalidated(s, i, mats):
    """The same stacks as replaced(s, i, mats), not validated, in a plain
    holder of group, dims and stacks: the input of validate_irrep_set and
    its oracle, which no IrrepSet can carry."""
    return SimpleNamespace(group=s.group, dims=s.dims, stacks=replaced_stacks(s, i, mats))


# builtin groups of order <= 24 used by the randomized suites
GROUP_POOL_SPECS = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:6",
    "cyclic:8",
    "cyclic:12",
    "dihedral:2",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "dihedral:12",
    "product:cyclic:2,cyclic:3",
    "product:cyclic:2,cyclic:2",
    "product:cyclic:2,dihedral:3",
    "product:cyclic:3,dihedral:4",
]


def random_voltage_digraph(rng, group, max_vertices=6, max_arcs=20):
    r = int(rng.integers(1, max_vertices + 1))
    n_arcs = int(rng.integers(1, max_arcs + 1))
    arcs = [
        (int(rng.integers(r)), int(rng.integers(r)), int(rng.integers(group.order)))
        for _ in range(n_arcs)
    ]
    names = [f"v{i}" for i in range(r)]
    return vl.VoltageDigraph(group, names, arcs)


def term_cases(rng, g):
    """Digraphs over g whose quotient matrices have every kind of nonzero:
    random ones, one with a coefficient of 2 and one of 3 from parallel
    arcs of one voltage, with loops and a vertex d with no in-arcs (a
    column of B with no nonzeros), and one with no arcs at all."""
    cases = [random_voltage_digraph(rng, g, max_vertices=5, max_arcs=14) for _ in range(3)]
    x, y = (int(e) for e in rng.integers(g.order, size=2))
    parallel = [(0, 1, x)] * 2 + [(1, 1, y)] * 3 + [(2, 2, x), (2, 0, y), (1, 0, x), (3, 1, y)]
    cases.append(vl.VoltageDigraph(g, ["a", "b", "c", "d"], parallel))
    cases.append(vl.VoltageDigraph(g, ["a", "b"], []))
    return cases


def random_voltage_graph(rng, group, max_vertices=6, max_edges=12):
    """An undirected voltage graph: at most one edge per pair of vertices
    and one loop per vertex, each an arc (u, v, x) and its reverse
    (v, u, x^-1), a loop with a self-inverse x its own reverse. Every block
    of the quotient matrix sums at most two terms, so under the builtin
    irreps, which map x^-1 to rho(x)^H exactly, each image is exactly
    Hermitian."""
    r = int(rng.integers(1, max_vertices + 1))
    pairs = [(u, v) for u in range(r) for v in range(u, r)]
    chosen = rng.permutation(len(pairs))[:int(rng.integers(1, max_edges + 1))]
    arcs = []
    for u, v in (pairs[i] for i in sorted(chosen)):
        x = int(rng.integers(group.order))
        x_inv = int(group.inverse[x])
        arcs += [(u, v, x)] if (u, v, x) == (v, u, x_inv) else [(u, v, x), (v, u, x_inv)]
    return vl.VoltageDigraph(group, [f"v{i}" for i in range(r)], arcs)


def symmetric_lift(d):
    """Whether d is undirected, by definition: its lift adjacency is symmetric."""
    a = vl.build_lift(d)
    return np.array_equal(a, a.T)


# one PASS/FAIL line per acceptance criterion at the end of the run
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            name = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in name:
                label = name.split("::test_criterion_", 1)[1]
                results[label] = status
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(results, key=lambda s: int(s.split("_")[0])):
        verdict = "PASS" if results[label] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {label.replace('_', ' ')}: {verdict}")

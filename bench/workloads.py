"""The benchmark's workloads: seeded inputs, the timed ops, and their checks.

Every workload runs the same four kinds of op on its own inputs, so every
end-to-end metric exists on every workload; op counts and sizes are set so
that one layer does most of the work (see README.md):

- ``spectrum``: ``lift_spectrum_repr`` (the CLI ``spectrum`` in cli_exact);
- ``verify``: repr plus bruteforce plus ``spectra_equal`` (the CLI
  ``verify`` in cli_exact, which adds charsum);
- ``walks``: the CLI ``walks`` command, the walk-count table;
- ``eigvecs``: ``lift_eigenvectors``.

The library receives only the generated documents: groups by spec string,
digraphs as JSON documents (parsed during set-up, or written to files for
the CLI).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

import checks

KINDS = ("spectrum", "verify", "walks", "eigvecs")
# Comparison tolerance of the verify ops, as the CLI uses for repr vs
# bruteforce.
MATCH_TOL = 1e-7
# Clustering tolerance of the cli_exact ops; see README.md ("Tolerance").
CLI_TOL = "1e-4"


@dataclass
class Op:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    out_path: str = ""  # the output file of a CLI op


@dataclass
class Setup:
    ops: List[Op]
    inputs_sha256: str


@dataclass
class Instance:
    """One generated digraph with everything its checks need."""

    group: object
    irreps: object
    spec: str
    digraph: object
    path: str = ""


# Base graphs are fixed per workload and only the voltages depend on the
# seed: the sparsity of the quotient matrix, which the group-algebra
# products and clustering depend on, is a property of the base graph.

# r = 6, every in- and out-degree 3: u -> u+1, u+2, u+3 (mod 6).
CIRCULANT_6 = [(u, (u + k) % 6) for k in (1, 2, 3) for u in range(6)]
# r = 6, 18 arcs u -> v with u < v: the quotient is nilpotent, so the whole
# lift spectrum is one 6n-fold zero eigenvalue.
ACYCLIC_6 = [(u, v) for u in range(6) for v in range(u + 1, 6)] + [(0, 1), (2, 3), (4, 5)]
# r = 1, three loops (three loop pairs when undirected).
BOUQUET = [(0, 0)] * 3
# r = 4, the three perfect matchings of K4 plus the first one again: a
# connected multigraph with every vertex of degree 4.
K4_PLUS = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2), (0, 1), (2, 3)]
# r = 8, the cube graph: every vertex of degree 3.
CUBE = [(u, u ^ bit) for bit in (1, 2, 4) for u in range(8) if u < u ^ bit]


def automorphism(group, rng):
    """A random automorphism of a builtin group, as an index array phi with
    phi[x] the image of element x.

    cyclic:n maps j to a*j; dihedral:m maps r^j to r^(a*j) and r^j*s to
    r^(a*j+b)*s, with a a unit mod n (resp. m); a product maps each factor.
    """
    kind, _, arg = group.family.partition(":")
    phi = _family_automorphism(kind, arg, rng)
    bijective = len(np.unique(phi)) == group.order
    if not bijective or not np.array_equal(phi[group.mul], group.mul[phi[:, None], phi[None, :]]):
        raise ValueError(f"not an automorphism of {group.family}")
    return phi


def _family_automorphism(kind, arg, rng):
    if kind == "product":
        maps = [_family_automorphism(*spec.split(":"), rng) for spec in arg.split(",")]
        sizes = [len(m) for m in maps]
        # product elements are ordered lexicographically, first factor first
        parts = np.indices(sizes).reshape(len(sizes), -1)
        return np.ravel_multi_index([m[p] for m, p in zip(maps, parts)], sizes)
    n = int(arg)
    a = int(rng.choice([k for k in range(1, n + 1) if math.gcd(k, n) == 1]))
    j = np.arange(n)
    if kind == "cyclic":
        return a * j % n
    b = int(rng.integers(n))
    return np.concatenate([a * j % n, n + (a * j + b) % n])


class Voltages:
    """Voltage assignments drawn as a fixed template per instance, relabelled
    by a random automorphism of the group drawn from the seed.

    Every seed gives different documents, but each is isomorphic to the
    template instance: the lifts are isomorphic and the quotient entries
    have the same sparsity, so every seed costs the same work, and the
    spread across seeds measures the machine. Template voltages drawn fresh
    from the seed made the charsum and walks ops of cli_exact vary by ~13%
    from seed to seed.
    """

    def __init__(self, seed, workload):
        key = zlib.crc32(workload.encode())
        self.template = np.random.default_rng(key)
        self.seeded = np.random.default_rng([seed, key])

    def _draw(self, group, count):
        phi = automorphism(group, self.seeded)
        return [int(phi[x]) for x in self.template.integers(group.order, size=count)]

    def directed(self, group, base):
        """One arc per base arc."""
        return [(u, v, x) for (u, v), x in zip(base, self._draw(group, len(base)))]

    def undirected(self, group, base):
        """Per base edge, an arc with voltage x and its reverse with x^-1,
        so the lift is undirected."""
        arcs = []
        for (u, v), x in zip(base, self._draw(group, len(base))):
            arcs += [(u, v, x), (v, u, group.inverse[x])]
        return arcs


def _doc(group, arcs, r):
    names = group.element_names
    vertices = [f"v{i}" for i in range(r)]
    return {
        "vertices": vertices,
        "arcs": [
            {"from": vertices[u], "to": vertices[v], "voltage": names[x]}
            for u, v, x in arcs
        ],
    }


class _Context:
    """Builds groups and instances for one set-up, recording every input."""

    def __init__(self, lib, workdir):
        self.lib = lib
        self.workdir = workdir
        self.groups = {}
        self.record = []

    def group(self, spec):
        if spec not in self.groups:
            g = self.lib.groups.build_builtin_group(spec)
            s = self.lib.reps.builtin_irreps(g)  # validates the irrep set
            t = self.lib.reps.character_table(s)
            chars = checks.integer_linear_characters(g.mul, t.rows)
            self.groups[spec] = (g, s, chars)
        return self.groups[spec]

    def instance(self, spec, arcs, r, label, write=False):
        g, s, _ = self.group(spec)
        doc = _doc(g, arcs, r)
        self.record.append({"label": label, "group": spec, "digraph": doc})
        d = self.lib.voltage.parse_voltage_digraph(doc, g)
        inst = Instance(group=g, irreps=s, spec=spec, digraph=d)
        if write:
            inst.path = os.path.join(self.workdir, f"{label}.json")
            with open(inst.path, "w") as f:
                json.dump(doc, f)
        return inst

    def digest(self, params):
        blob = json.dumps({"params": params, "inputs": self.record}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Ops


def _spectrum_op(lib, label, inst):
    d = inst.digraph
    g = inst.group

    def run():
        return lib.spectra.lift_spectrum_repr(d, inst.irreps)

    def check(spectrum):
        checks.check_spectrum(spectrum.entries, d.arcs, d.order, g.order, g.identity, g.mul)

    return Op(f"spectrum:{label}", "spectrum", run, check)


def _verify_op(lib, label, inst):
    d = inst.digraph
    rn = d.order * inst.group.order

    def run():
        by_repr = lib.spectra.lift_spectrum_repr(d, inst.irreps)
        by_brute = lib.spectra.lift_spectrum_bruteforce(d)
        report = lib.spectra.spectra_equal(by_repr, by_brute, MATCH_TOL)
        return by_repr.total, by_brute.total, report

    def check(out):
        total_repr, total_brute, report = out
        if total_repr != rn or total_brute != rn:
            raise checks.CheckFailed(
                f"multiplicity totals {total_repr}, {total_brute} != r*n = {rn}"
            )
        checks.check_verify_reports(
            {"repr vs bruteforce": {"matched": report.matched,
                                    "worst_distance": report.worst_distance}},
            ["repr vs bruteforce"],
        )

    return Op(f"verify:{label}", "verify", run, check)


def _eigvecs_op(lib, label, inst):
    d = inst.digraph
    g = inst.group

    def run():
        return lib.spectra.lift_eigenvectors(d, inst.irreps)

    def check(result):
        checks.check_eigenvectors(
            result.pairs, result.zero_vectors_excluded, result.skipped_irreps,
            inst.irreps.dims, d.arcs, d.order, g.order, g.mul,
        )

    return Op(f"eigvecs:{label}", "eigvecs", run, check)


def _cli(lib, argv):
    """Run the CLI in-process; returns its exit code as a shell would see it."""
    try:
        return lib.cli.run(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _read_cli_output(code, path):
    if code != 0:
        raise checks.CheckFailed(f"CLI exit code {code}")
    with open(path) as f:
        return json.load(f)


def _cli_op(lib, kind, label, inst, argv, check_payload):
    out = inst.path[:-len(".json")] + f".{kind}.out.json"
    argv = argv + ["--digraph", inst.path, "--group", inst.spec, "--out", out]

    def run():
        if os.path.exists(out):
            os.remove(out)
        return _cli(lib, argv)

    def check(code):
        check_payload(_read_cli_output(code, out))

    return Op(f"{kind}:{label}", kind, run, check, out)


def _cli_walks_op(lib, label, inst, length, chars):
    d = inst.digraph

    def check_payload(payload):
        checks.check_walk_table(
            payload, d.arcs, d.order, d.vertices, inst.group.element_names, length, chars
        )

    return _cli_op(lib, "walks", label, inst, ["walks", "--length", str(length)], check_payload)


def _cli_spectrum_op(lib, label, inst):
    d = inst.digraph
    g = inst.group

    def check_payload(payload):
        entries = [(complex(e["re"], e["im"]), e["mult"]) for e in payload["eigenvalues"]]
        checks.check_spectrum(entries, d.arcs, d.order, g.order, g.identity, g.mul)

    argv = ["spectrum", "--method", "repr", "--tol", CLI_TOL]
    return _cli_op(lib, "spectrum", label, inst, argv, check_payload)


def _cli_verify_op(lib, label, inst):
    def check_payload(payload):
        checks.check_verify_reports(payload, ["repr vs bruteforce", "charsum vs repr"])

    return _cli_op(lib, "verify", label, inst, ["verify", "--tol", CLI_TOL], check_payload)


# ---------------------------------------------------------------------------
# Workloads


def setup_big_groups(lib, seed, workdir):
    volts = Voltages(seed, "big_groups")
    ctx = _Context(lib, workdir)
    specs = ["dihedral:128", "cyclic:512", "product:dihedral:8,cyclic:16"]
    groups = [ctx.group(spec) for spec in specs]
    dihedral, cyclic, product = groups
    ops = [
        _spectrum_op(lib, "dag-dihedral", ctx.instance(
            specs[0], volts.directed(dihedral[0], ACYCLIC_6), 6, "dag-dihedral")),
        _spectrum_op(lib, "circ-cyclic", ctx.instance(
            specs[1], volts.directed(cyclic[0], CIRCULANT_6), 6, "circ-cyclic")),
    ]
    circ = ctx.instance(specs[2], volts.directed(product[0], CIRCULANT_6), 6, "circ-product", write=True)
    bouquet = ctx.instance(specs[2], volts.undirected(product[0], BOUQUET), 1, "bouquet-product")
    ops += [
        _spectrum_op(lib, "circ-product", circ),
        _verify_op(lib, "bouquet-product", bouquet),
        _cli_walks_op(lib, "circ-product", circ, 3, product[2]),
        _eigvecs_op(lib, "bouquet-product", bouquet),
    ]
    return Setup(ops, ctx.digest({"specs": specs, "walk_length": 3}))


def setup_cli_exact(lib, seed, workdir):
    volts = Voltages(seed, "cli_exact")
    ctx = _Context(lib, workdir)
    spec = "dihedral:31"
    g, _, chars = ctx.group(spec)
    inst = ctx.instance(spec, volts.undirected(g, K4_PLUS), 4, "k4", write=True)
    ops = [
        _cli_spectrum_op(lib, "k4", inst),
        _cli_verify_op(lib, "k4", inst),
        _cli_walks_op(lib, "k4", inst, 40, chars),
        _eigvecs_op(lib, "k4", inst),
    ]
    return Setup(ops, ctx.digest({"spec": spec, "walk_length": 40, "tol": CLI_TOL}))


def setup_dense_lift(lib, seed, workdir):
    volts = Voltages(seed, "dense_lift")
    ctx = _Context(lib, workdir)
    spec = "dihedral:32"
    g, _, chars = ctx.group(spec)
    ops = []
    for j in range(2):
        label = f"cube{j}"
        inst = ctx.instance(spec, volts.undirected(g, CUBE), 8, label, write=True)
        if j == 0:
            ops.append(_verify_op(lib, label, inst))
        ops += [
            _spectrum_op(lib, label, inst),
            _eigvecs_op(lib, label, inst),
            _cli_walks_op(lib, label, inst, 6, chars),
        ]
    return Setup(ops, ctx.digest({"spec": spec, "walk_length": 6}))


WORKLOADS = {
    "big_groups": setup_big_groups,
    "cli_exact": setup_cli_exact,
    "dense_lift": setup_dense_lift,
}

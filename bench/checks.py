"""Correctness checks for benchmark ops, independent of the code they check.

Each check raises ``CheckFailed`` with a short reason. The checks recompute
their reference values without the library routes under test: closed-walk
counts come from enumerating base walks, walk tables are tested against
integer one-dimensional characters verified on the group table, and
eigenvector residuals apply the lift adjacency through the voltage
structure instead of building the lift.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance of the power-sum check; eigenvalues from dense
# eigensolvers reproduce trace identities to ~1e-13 relative.
POWER_SUM_RTOL = 1e-8
# Criterion 8's residual bound: 1e-8 * (1 + ||A||_2) * ||w||.
RESIDUAL_FACTOR = 1e-8


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def closed_walk_counts(arcs, identity, mul, max_len):
    """Per length l = 1..max_len, the number of closed base walks of length
    l whose net voltage is the identity, by direct enumeration."""
    out_arcs = {}
    for u, v, x in arcs:
        out_arcs.setdefault(u, []).append((v, x))
    counts = [0] * (max_len + 1)
    starts = {u for u, _, _ in arcs}
    for start in starts:
        stack = [(start, identity, 0)]
        while stack:
            vertex, volt, steps = stack.pop()
            if steps and vertex == start and volt == identity:
                counts[steps] += 1
            if steps == max_len:
                continue
            for head, x in out_arcs.get(vertex, ()):
                stack.append((head, int(mul[volt, x]), steps + 1))
    return counts[1:]


def check_spectrum(entries, arcs, order, n, identity, mul, max_len=3):
    """entries: (complex value, multiplicity) pairs of a lift spectrum.

    Total multiplicity must be r*n, and the power sums for l = 1..max_len
    must equal n * (closed base walks of length l with identity voltage),
    which is tr(A^l) of the lift.
    """
    total = sum(m for _, m in entries)
    if total != order * n:
        raise CheckFailed(f"multiplicity total {total} != r*n = {order * n}")
    vals = np.array([complex(v) for v, _ in entries])
    mults = np.array([m for _, m in entries], dtype=float)
    exact = closed_walk_counts(arcs, identity, mul, max_len)
    for ell, walks in enumerate(exact, start=1):
        got = complex(np.sum(mults * vals ** ell))
        scale = 1.0 + float(np.sum(mults * np.abs(vals) ** ell))
        if abs(got - n * walks) > POWER_SUM_RTOL * scale:
            raise CheckFailed(
                f"power sum l={ell}: spectrum gives {got:.10g}, "
                f"closed walks give {n * walks}"
            )


def integer_linear_characters(mul, candidates):
    """The candidate rows that are +-1-valued homomorphisms of the table.

    Candidates come from the irreps' characters; each is rounded to
    integers and kept only if chi(a*b) = chi(a)*chi(b) holds exactly on the
    whole table, so a wrong candidate can never weaken the check.
    """
    chars = []
    for row in candidates:
        chi = np.rint(np.real(row)).astype(np.int64)
        if np.abs(np.asarray(row) - chi).max() > 1e-9 or not np.all(np.abs(chi) == 1):
            continue
        if np.array_equal(chi[mul], np.outer(chi, chi)):
            chars.append(chi)
    return chars


def check_walk_table(payload, arcs, order, vertices, names, length, chars):
    """The walks coefficient table must satisfy, for every integer linear
    character chi, sum_g chi(g) * coeff_g(u, v) = (A_chi^L)[u][v] exactly,
    where A_chi[u][v] sums chi over the voltages of the arcs u -> v."""
    if payload.get("length") != length:
        raise CheckFailed(f"walk table length {payload.get('length')} != {length}")
    if len(chars) < 1:
        raise CheckFailed("no integer linear character to check against")
    index = {name: i for i, name in enumerate(names)}
    vindex = {name: i for i, name in enumerate(vertices)}
    table = {}
    for e in payload["entries"]:
        table[(vindex[e["from"]], vindex[e["to"]])] = {
            index[g]: int(c) for g, c in e["coeffs"].items()
        }
    if len(table) != order * order:
        raise CheckFailed(f"walk table has {len(table)} entries, expected {order * order}")
    for chi in chars:
        a = np.zeros((order, order), dtype=object)
        for u, v, x in arcs:
            a[u, v] += int(chi[x])
        power = np.identity(order, dtype=object)
        for _ in range(length):
            power = power.dot(a)
        for (u, v), coeffs in table.items():
            got = sum(int(chi[g]) * c for g, c in coeffs.items())
            if got != power[u, v]:
                raise CheckFailed(
                    f"walk table ({u}, {v}): character sum {got} != (A_chi^L) entry {power[u, v]}"
                )


def check_verify_reports(reports, expected):
    """Every named report must be present and matched."""
    for name in expected:
        if name not in reports:
            raise CheckFailed(f"verify report {name!r} missing")
    for name, report in reports.items():
        if not report["matched"]:
            raise CheckFailed(f"{name}: mismatch (worst distance {report['worst_distance']:.3g})")


def lift_apply(arcs, n, mul, w):
    """A @ w for the lift adjacency A, from the voltage structure: the base
    arc (u, v, x) links lift vertex (u, g) to (v, g*x)."""
    out = np.zeros_like(w)
    for u, v, x in arcs:
        out[u * n:(u + 1) * n] += w[v * n + mul[:, x]]
    return out


def check_eigenvectors(pairs, zeros, skipped, dims, arcs, order, n, mul):
    """Every lift vector is accounted for (assembled, excluded as zero, or
    in a skipped irrep's r*d^2 share) and every pair meets criterion 8's
    residual bound."""
    skipped_count = sum(order * dims[i] ** 2 for i in skipped)
    if len(pairs) + zeros + skipped_count != order * n:
        raise CheckFailed(
            f"{len(pairs)} pairs + {zeros} zero vectors + {skipped_count} skipped "
            f"!= r*n = {order * n}"
        )
    if not pairs:
        return
    w = np.column_stack([vec for _, vec in pairs])
    mus = np.array([mu for mu, _ in pairs])
    indeg = np.zeros(order)
    outdeg = np.zeros(order)
    for u, v, _ in arcs:
        outdeg[u] += 1
        indeg[v] += 1
    # sqrt(||A||_1 ||A||_inf) bounds ||A||_2 and equals it for the
    # degree-regular inputs the workloads generate
    bound = RESIDUAL_FACTOR * (1 + np.sqrt(indeg.max() * outdeg.max()))
    residuals = np.linalg.norm(lift_apply(arcs, n, mul, w) - w * mus, axis=0)
    norms = np.linalg.norm(w, axis=0)
    bad = np.nonzero(residuals > bound * norms)[0]
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(
            f"{bad.size} eigenpairs exceed the residual bound; pair {i}: "
            f"{residuals[i]:.3e} > {bound * norms[i]:.3e}"
        )

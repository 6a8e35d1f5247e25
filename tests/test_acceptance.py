"""Acceptance suite: one test per criterion, pinned tolerances.

A summary section with one PASS/FAIL line per criterion is printed at the
end of the pytest run (see conftest.pytest_terminal_summary).
"""

import functools
import time

import numpy as np
import pytest

import voltlift as vl
from voltlift.spectra import cluster_spectrum

from conftest import GROUP_POOL_SPECS, K2STAR_DOC, random_voltage_digraph


@functools.lru_cache(maxsize=None)
def group_pool():
    out = []
    for spec in GROUP_POOL_SPECS:
        g = vl.build_builtin_group(spec)
        if g.order <= 24:
            out.append((g, vl.builtin_irreps(g)))
    return out


@functools.lru_cache(maxsize=None)
def theorem_instances():
    """The 200 randomized voltage digraphs shared by criteria 4 and 8."""
    rng = np.random.default_rng(20260823)
    pool = group_pool()
    out = []
    for _ in range(200):
        g, irreps = pool[int(rng.integers(len(pool)))]
        d = random_voltage_digraph(rng, g, max_vertices=6, max_arcs=20)
        out.append((d, irreps))
    return out


def paper_example():
    g = vl.build_builtin_group("dihedral:3")
    return g, vl.builtin_irreps(g), vl.parse_voltage_digraph(K2STAR_DOC, g)


EXPECTED_EXAMPLE = [(3, 1), (1, 3), (0, 4), (-1, 3), (-3, 1)]


def test_criterion_1_example_repr_spectrum():
    start = time.perf_counter()
    g, irreps, d = paper_example()
    spectrum = vl.lift_spectrum_repr(d, irreps, 1e-7)
    elapsed = time.perf_counter() - start
    assert spectrum.total == 12
    assert len(spectrum.entries) == 5
    for (value, mult), (want, want_mult) in zip(spectrum.entries, EXPECTED_EXAMPLE):
        assert abs(value - want) <= 1e-9
        assert mult == want_mult
    assert elapsed < 1.0


def test_criterion_2_example_intermediate_matrices():
    g, irreps, d = paper_example()
    b = vl.associated_matrix(d)
    m1, m2 = vl.rho_matrix(b, irreps.stacks[1][:2])
    assert np.array_equal(m1, np.array([[1, 2], [2, 1]], dtype=complex))
    assert np.array_equal(m2, np.array([[-1, 2], [2, -1]], dtype=complex))
    ev1 = sorted(np.linalg.eigvals(m1), key=lambda z: z.real)
    ev2 = sorted(np.linalg.eigvals(m2), key=lambda z: z.real)
    assert abs(ev1[0] + 1) <= 1e-10 and abs(ev1[1] - 3) <= 1e-10
    assert abs(ev2[0] + 3) <= 1e-10 and abs(ev2[1] - 1) <= 1e-10


def test_criterion_3_example_charsum_path():
    g, irreps, d = paper_example()
    t = vl.character_table(irreps)
    b = vl.associated_matrix(d)
    sums = vl.power_sums_from_characters(b, t.rows[2], 4, g)
    assert sums.tolist() == [0, 2, 0, 2]
    roots = vl.roots_from_power_sums(sums)
    got = cluster_spectrum(roots, 1e-7)
    want = cluster_spectrum([1, 0, 0, -1], 1e-7)
    assert vl.spectra_equal(got, want, 1e-8).matched
    full = vl.lift_spectrum_charsum(d, t, 1e-7)
    for (value, mult), (want_v, want_m) in zip(full.entries, EXPECTED_EXAMPLE):
        assert abs(value - want_v) <= 1e-8
        assert mult == want_m


def test_criterion_4_theorem_property_suite():
    start = time.perf_counter()
    failures = []
    # clustering at 1e-4 collapses eigenvalue clouds smeared by defective
    # (Jordan-block) eigenvalues; cluster means are trace-accurate, so the
    # comparison itself still holds at 1e-7
    for i, (d, irreps) in enumerate(theorem_instances()):
        by_repr = vl.lift_spectrum_repr(d, irreps, 1e-4)
        by_brute = vl.lift_spectrum_bruteforce(d, 1e-4)
        report = vl.spectra_equal(by_repr, by_brute, 1e-7)
        if not report.matched:
            failures.append((i, report))
    elapsed = time.perf_counter() - start
    assert not failures, f"{len(failures)} of 200 mismatched: {failures[:3]}"
    assert elapsed < 60.0


def test_criterion_5_walk_count_property_suite():
    rng = np.random.default_rng(5150)
    pool = [g for g, _ in group_pool()]
    for _ in range(50):
        g = pool[int(rng.integers(len(pool)))]
        max_r = max(1, min(6, 60 // g.order))
        d = random_voltage_digraph(rng, g, max_vertices=max_r, max_arcs=12)
        n = g.order
        b = vl.associated_matrix(d)
        ell = int(rng.integers(1, 6))
        bp = vl.algebra_matrix_power(b, ell, g)
        ap = np.linalg.matrix_power(vl.build_lift(d).astype(object), ell)
        hs = np.arange(n)
        for u in range(d.order):
            for v in range(d.order):
                coeffs = tuple(bp[u, v])
                block = ap[u * n:(u + 1) * n, v * n:(v + 1) * n]
                for gg in range(n):
                    walks = block[hs, g.mul[:, gg]]
                    assert all(w == coeffs[gg] for w in walks)
        closed = sum(bp[u, u, g.identity] for u in range(d.order))
        assert int(np.trace(ap)) == n * closed


def test_criterion_6_root_recovery_round_trip():
    rng = np.random.default_rng(66)
    for _ in range(100):
        deg = int(rng.integers(1, 11))
        roots = rng.uniform(-3, 3, deg) + 1j * rng.uniform(-3, 3, deg)
        sums = np.array([complex(np.sum(roots ** k)) for k in range(1, deg + 1)])
        got = vl.roots_from_power_sums(sums)
        rep = vl.spectra_equal(
            cluster_spectrum(got, 1e-9), cluster_spectrum(roots, 1e-9), 1e-6
        )
        assert rep.matched, f"degree {deg}: worst {rep.worst_distance:.3e}"
        # roots_from_power_sums itself refuses roots whose power sums miss
        # the input by more than 1e-5 * max(1, |s|); the Newton coefficients
        # are held to the determinant formula in test_spectra


def test_criterion_7_cayley_circulant_closed_form():
    rng = np.random.default_rng(777)
    for _ in range(20):
        m = int(rng.integers(1, 65))
        k = int(rng.integers(1, min(m, 8) + 1))
        deltas = [int(x) for x in rng.integers(0, m, size=k)]
        g = vl.build_builtin_group(f"cyclic:{m}")
        d = vl.VoltageDigraph(g, ["v"], [(0, 0, x) for x in deltas])
        spectrum = vl.lift_spectrum_repr(d, vl.builtin_irreps(g), 1e-10)
        closed_form = [
            complex(np.sum(np.exp(2j * np.pi * kk * np.asarray(deltas) / m)))
            for kk in range(m)
        ]
        rep = vl.spectra_equal(
            spectrum, cluster_spectrum(closed_form, 1e-10), 1e-9
        )
        assert rep.matched, f"m={m}, deltas={deltas}: worst {rep.worst_distance:.3e}"


def test_criterion_8_eigenvector_suite():
    for d, irreps in theorem_instances():
        result = vl.lift_eigenvectors(d, irreps)
        if result.skipped_irreps:
            continue  # defective instance: spectrum-only mode, by contract
        rn = d.order * d.group.order
        assert len(result.pairs) + result.zero_vectors_excluded == rn
        a = vl.build_lift(d).astype(float)
        bound = 1e-8 * (1 + np.linalg.norm(a, 2))
        w_mat = np.column_stack([w for _, w in result.pairs])
        mus = np.array([mu for mu, _ in result.pairs])
        residuals = np.linalg.norm(a @ w_mat - w_mat * mus, axis=0)
        norms = np.linalg.norm(w_mat, axis=0)
        assert np.all(residuals <= bound * norms)
        got = cluster_spectrum(mus, 1e-9)
        expected = vl.lift_spectrum_repr(d, irreps, 1e-9)
        assert vl.spectra_equal(got, expected, 1e-7).matched

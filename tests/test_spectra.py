import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltlift as vl
from voltlift import spectra
from voltlift.reps import by_dimension
from voltlift.spectra import (
    DEFECTIVE_COND_LIMIT,
    EIG_RESIDUAL_FACTOR,
    SpectrumError,
    _newton_poly_coeffs,
    cluster_spectrum,
)

from conftest import irrep_matrices, random_voltage_digraph
from oracles import (
    cluster_spectrum_loop,
    determinant_poly_coeffs,
    lift_eigenvectors_loop,
    power_sums_by_walk_enumeration,
    roots_from_power_sums_loop,
    spectra_equal_loop,
)
from test_groups import FAMILY_SPECS


def power_sums_of(roots, length):
    roots = np.asarray(roots, dtype=complex)
    return tuple(complex(np.sum(roots ** k)) for k in range(1, length + 1))


class TestRhoMatrix:
    def test_trivial_and_sign_characters(self, k2star, d3_irreps):
        b = vl.associated_matrix(k2star)
        m1, m2 = vl.rho_matrix(b, d3_irreps.stacks[1])
        assert np.allclose(m1, [[1, 2], [2, 1]], atol=1e-12)
        assert np.allclose(m2, [[-1, 2], [2, -1]], atol=1e-12)

    def test_two_dim_irrep_eigenvalues(self, k2star, d3_irreps):
        b = vl.associated_matrix(k2star)
        (m3,) = vl.rho_matrix(b, d3_irreps.stacks[2])
        assert m3.shape == (4, 4)
        assert np.abs(m3.imag).max() < 1e-12
        vals = sorted(np.linalg.eigvals(m3).real)
        assert np.allclose(vals, [-1, 0, 0, 1], atol=1e-9)

    @pytest.mark.parametrize("spec", ["cyclic:5", "dihedral:4", "product:cyclic:2,dihedral:3"])
    def test_matches_entrywise_loop(self, spec):
        # reference: sum c * rho(g) entry by entry, in element order
        g = vl.build_builtin_group(spec)
        d = random_voltage_digraph(np.random.default_rng(3), g, max_vertices=4, max_arcs=14)
        b = vl.associated_matrix(d)
        s = vl.builtin_irreps(g)
        for i, k in enumerate(s.dims):
            mats = irrep_matrices(s, i)
            want = np.zeros((d.order * k, d.order * k), dtype=complex)
            for u in range(d.order):
                for v in range(d.order):
                    for x in range(g.order):
                        want[u * k:(u + 1) * k, v * k:(v + 1) * k] += b[u, v, x] * mats[x]
            assert np.array_equal(vl.rho_matrix(b, mats[None])[0], want)

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_every_stack_matches_block_construction(self, spec):
        # reference: the blocks sum_x b[u, v, x] rho(x) of each irrep of a
        # stack, built with the Kronecker product E_uv (x) rho(x)
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        d = random_voltage_digraph(np.random.default_rng(4), g, max_vertices=4, max_arcs=14)
        b = vl.associated_matrix(d)
        r = d.order
        for k, stack in s.stacks.items():
            got = vl.rho_matrix(b, stack)
            assert got.shape == (len(stack), r * k, r * k)
            for q, mats in enumerate(stack):
                want = sum(
                    complex(b[u, v, x]) * np.kron(np.eye(r)[:, [u]] @ np.eye(r)[[v]], mats[x])
                    for u, v, x in zip(*np.nonzero(b))
                )
                assert np.abs(got[q] - want).max() <= 1e-12

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_functoriality(self, k2star, d3_irreps, ell):
        # rho(B^ell) == rho(B)^ell
        b = vl.associated_matrix(k2star)
        bp = vl.algebra_matrix_power(b, ell, k2star.group)
        for stack in d3_irreps.stacks.values():
            for lhs, m in zip(vl.rho_matrix(bp, stack), vl.rho_matrix(b, stack)):
                rhs = np.linalg.matrix_power(m, ell)
                scale = max(1.0, np.linalg.norm(rhs))
                assert np.abs(lhs - rhs).max() <= 1e-9 * scale


class TestEig:
    def test_identity(self):
        vals, *_ = vl.eig(np.eye(3)[None])
        assert np.allclose(sorted(vals[0].real), [1, 1, 1])

    def test_two_by_two(self):
        vals, *_ = vl.eig(np.array([[1.0, 2.0], [2.0, 1.0]])[None])
        assert np.allclose(sorted(vals[0].real), [-1, 3])

    def test_nilpotent_defective(self):
        vals, *_ = vl.eig(np.array([[0.0, 1.0], [0.0, 0.0]])[None])
        assert np.allclose(vals, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(SpectrumError, match="non-finite"):
            vl.eig(np.array([[np.nan, 0.0], [0.0, 1.0]])[None])

    def test_rejects_non_square(self):
        with pytest.raises(SpectrumError, match="square"):
            vl.eig(np.zeros((2, 3))[None])

    def test_rejects_a_single_matrix(self):
        with pytest.raises(SpectrumError, match="stack"):
            vl.eig(np.eye(3))

    def test_flags_only_the_defective_matrix(self):
        # a diagonalizable matrix and the Jordan block J_3(2) (+) (5) in one
        # stack, the block conjugated by the unimodular integer matrix
        # u = I + N, so that it stays exact. Flags are computed as
        # lift_eigenvectors computes them: a column is flagged when its
        # residual misses its own matrix's bound or its matrix's
        # eigenvector matrix is worse conditioned than DEFECTIVE_COND_LIMIT.
        rng = np.random.default_rng(6)
        s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = np.eye(4) + np.eye(4, k=1)
        jordan = np.diag([2.0, 2.0, 2.0, 5.0]) + np.diag([1.0, 1.0, 0.0], k=1)
        stack = np.array([
            s @ np.diag([2.0, 2.0 + 1e-3, -1.0, 5.0]) @ np.linalg.inv(s),
            u @ jordan @ np.linalg.inv(u).round(),
        ])
        vals, vecs, res, bound = vl.eig(stack)
        assert vals.shape == res.shape == (2, 4) and vecs.shape == (2, 4, 4)
        assert np.allclose(sorted(vals[1].real), [2, 2, 2, 5])
        for q, m in enumerate(stack):
            assert bound[q] == EIG_RESIDUAL_FACTOR * (1 + np.linalg.norm(m, 2))
        # the residual test alone passes every column, the Jordan block's too
        assert np.all(res <= bound[:, None])
        cond = np.linalg.cond(vecs)
        flagged = (res > bound[:, None]) | (cond > DEFECTIVE_COND_LIMIT)[:, None]
        assert flagged.tolist() == [[False] * 4, [True] * 4]


class TestSpectrumMultiset:
    def test_clustering(self):
        sp = cluster_spectrum([1.0, 1.0 + 1e-12, 0.5, -2.0], tol=1e-9)
        assert [m for _, m in sp.entries] == [2, 1, 1]
        # descending real part
        assert [v.real for v, _ in sp.entries] == sorted(
            [v.real for v, _ in sp.entries], reverse=True
        )

    def test_total(self):
        sp = cluster_spectrum([1, 2, 3], tol=1e-9)
        assert sp.total == 3

    @pytest.mark.parametrize(
        "values, tol",
        [([1.0], 0.0), ([1.0], -1e-9), ([1.0], np.nan), ([1.0, np.nan], 1e-9),
         ([complex(0, np.inf)], 1e-9), ([1.0], np.inf)],
    )
    def test_rejects_bad_tolerance_or_values(self, values, tol):
        with pytest.raises(SpectrumError):
            cluster_spectrum(values, tol)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_pairwise_loop(self, data):
        # the pairwise loop links iff |z_i - z_j| < tol; draw the cases where
        # that decision is closest: exact duplicates, signed zeros, chains
        # spaced just under tol, pairs exactly tol apart, conjugate pairs
        tol = data.draw(st.sampled_from([1e-9, 1e-4, 0.5]))
        offset = data.draw(st.sampled_from([0.0, 1.0, -3.0, 1e3]))
        grid = st.integers(min_value=-4, max_value=4)
        direction = st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / np.sqrt(2)])
        values = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            z = offset + complex(data.draw(grid), data.draw(grid)) * tol * data.draw(
                st.sampled_from([0.3, 0.999, 1.0, 2.5])
            )
            kind = data.draw(st.sampled_from(
                ["point", "duplicate", "signed_zero", "chain", "at_tol", "conjugate"]
            ))
            if kind == "point":
                values.append(z)
            elif kind == "duplicate":
                values += [z] * data.draw(st.integers(min_value=2, max_value=4))
            elif kind == "signed_zero":
                values += [complex(0.0, 0.0), complex(-0.0, 0.0),
                           complex(0.0, -0.0), complex(-0.0, -0.0)]
            elif kind == "chain":
                step = np.nextafter(tol, 0) * data.draw(direction)
                values += [z + k * step for k in range(data.draw(st.integers(2, 5)))]
            elif kind == "at_tol":
                values += [z, z + tol * data.draw(direction)]
            else:
                values += [z, z.conjugate()]
        got = cluster_spectrum(values, tol).entries
        want = cluster_spectrum_loop(values, tol)
        assert list(got) == sorted(got, key=lambda e: (-e[0].real, e[0].imag))
        # match clusters one to one: equal multiplicity, mean within 1e-12
        # of the scale (the means may be summed in another order)
        scale = max(1.0, max(abs(z) for z in values))
        assert len(got) == len(want)
        unused = list(got)
        for mean, mult in want:
            j = min(range(len(unused)),
                    key=lambda k: (unused[k][1] != mult, abs(unused[k][0] - mean)))
            got_mean, got_mult = unused.pop(j)
            assert got_mult == mult
            assert abs(got_mean - mean) <= 1e-12 * scale


class TestCharsumMatchTol:
    EPS = float(np.finfo(float).eps)

    def test_multiplicity_is_the_largest_cluster_within_one_image(self):
        # reference: cluster each image's eigenvalues on its own
        rng = np.random.default_rng(12)
        for _ in range(300):
            tol = float(rng.choice([1e-9, 0.3]))
            values = {}
            for dim in rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False):
                shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)) * int(dim))
                values[int(dim)] = (
                    (rng.integers(-3, 4, size=shape) + 1j * rng.integers(-1, 2, size=shape)) * 0.25
                    + rng.choice([0.0, 1e-10], size=shape)
                )
            rows = [row for v in values.values() for row in v]
            k = max(max(m for _, m in cluster_spectrum(row, tol).entries) for row in rows)
            rho = max(float(np.abs(row).max()) for row in rows)
            got_tol, got_k = spectra.charsum_match_tol(values, tol)
            assert got_k == k
            assert got_tol == max(tol, 1e-6, 10 * (1 + rho) * self.EPS ** (1 / k))

    def test_equal_values_in_different_images_do_not_add_up(self):
        tol, k = spectra.charsum_match_tol({1: np.array([[1.0, 3.0], [1.0, 2.0]])}, 1e-9)
        assert k == 1
        assert tol == 1e-6

    def test_independent_of_the_degree(self):
        # 32 simple roots in one image: the bound is that of k = 1
        roots = np.exp(2j * np.pi * np.arange(32) / 32)
        assert spectra.charsum_match_tol({4: roots[None]}, 1e-9) == (1e-6, 1)
        tol, k = spectra.charsum_match_tol({1: np.zeros((1, 8)), 4: roots[None]}, 1e-9)
        assert k == 8
        assert tol == 10 * 2 * self.EPS ** (1 / 8)


class TestSpectraEqual:
    def test_identical(self):
        a = cluster_spectrum([3, -1], 1e-9)
        assert vl.spectra_equal(a, a, 1e-12).matched

    def test_order_free(self):
        a = cluster_spectrum([3, -1], 1e-9)
        b = cluster_spectrum([-1, 3], 1e-9)
        rep = vl.spectra_equal(a, b, 1e-12)
        assert rep.matched and rep.worst_distance == 0.0

    def test_size_mismatch(self):
        a = cluster_spectrum([1, 2], 1e-9)
        b = cluster_spectrum([1], 1e-9)
        rep = vl.spectra_equal(a, b, 1e-6)
        assert not rep.matched
        assert "sizes differ" in rep.message

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_greedy_loop_over_every_copy(self, data):
        # values on a coarse grid, so that distances tie and entries repeat a
        # mean; multiplicities up to 4, zero included
        grid = st.integers(min_value=-2, max_value=2)
        value = st.builds(lambda x, y, f: complex(x, y) * f, grid, grid,
                          st.sampled_from([0.5, 1.0, 1e-8]))
        entry = st.tuples(value, st.integers(min_value=0, max_value=4))
        a = vl.SpectrumMultiset(tuple(data.draw(st.lists(entry, max_size=8))))
        b = vl.SpectrumMultiset(tuple(data.draw(st.lists(entry, max_size=8))))
        if data.draw(st.booleans()):
            b = vl.SpectrumMultiset(tuple(
                (v + data.draw(st.sampled_from([0, 0.5, 1e-9j])), m) for v, m in a.entries
            ))
        tol = data.draw(st.sampled_from([1e-12, 1e-7, 0.5, 2.0]))
        assert vl.spectra_equal(a, b, tol) == spectra_equal_loop(a, b, tol)


class TestSpectrumRoutes:
    def test_worked_example_all_routes(self, k2star, d3_irreps):
        expected = cluster_spectrum(
            [3, 1, 1, 1, 0, 0, 0, 0, -1, -1, -1, -3], 1e-9
        )
        by_repr = vl.lift_spectrum_repr(k2star, d3_irreps, 1e-7)
        by_brute = vl.lift_spectrum_bruteforce(k2star, 1e-7)
        t = vl.character_table(d3_irreps)
        by_chars = vl.lift_spectrum_charsum(k2star, t, 1e-7)
        for sp in (by_repr, by_brute, by_chars):
            assert vl.spectra_equal(sp, expected, 1e-8).matched

    def test_trivial_group_gives_base_spectrum(self):
        g = vl.build_builtin_group("cyclic:1")
        rng = np.random.default_rng(3)
        d = random_voltage_digraph(rng, g, max_vertices=5, max_arcs=12)
        base_vals = np.linalg.eigvals(vl.build_lift(d).astype(float))
        sp = vl.lift_spectrum_repr(d, vl.builtin_irreps(g), 1e-8)
        assert vl.spectra_equal(sp, cluster_spectrum(base_vals, 1e-8), 1e-7).matched

    def test_cayley_z4_cycle(self):
        g = vl.build_builtin_group("cyclic:4")
        d = vl.make_voltage_digraph(g, ["v"], [(0, 0, 1)])
        sp = vl.lift_spectrum_bruteforce(d, 1e-9)
        expected = cluster_spectrum([1, 1j, -1, -1j], 1e-9)
        assert vl.spectra_equal(sp, expected, 1e-9).matched

    def test_bruteforce_size_cap(self, monkeypatch):
        g = vl.build_builtin_group("cyclic:8")
        d = vl.make_voltage_digraph(g, ["v"], [(0, 0, 1)])
        monkeypatch.setattr(spectra, "BRUTEFORCE_MAX_ORDER", 4)
        with pytest.raises(SpectrumError, match="cap"):
            vl.lift_spectrum_bruteforce(d, 1e-9)

    def test_abelian_charsum_agrees_with_repr(self):
        g = vl.build_builtin_group("product:cyclic:2,cyclic:3")
        rng = np.random.default_rng(11)
        s = vl.builtin_irreps(g)
        t = vl.character_table(s)
        for _ in range(5):
            d = random_voltage_digraph(rng, g, max_vertices=3, max_arcs=8)
            a = vl.lift_spectrum_repr(d, s, 1e-8)
            b = vl.lift_spectrum_charsum(d, t, 1e-8)
            assert vl.spectra_equal(a, b, 1e-6).matched


    @pytest.mark.parametrize("spec", ["dihedral:7", "product:dihedral:4,cyclic:3", "cyclic:12"])
    def test_repr_batches_one_eigvals_per_dimension(self, spec, monkeypatch):
        # one eigvals call per dimension, on one irrep of each conjugate
        # pair: every real character and half of the complex ones
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        real = np.abs(s.characters.imag).max(axis=1) < 1e-9
        solved = {
            k: int(real[idx].sum()) + int((~real[idx]).sum()) // 2
            for k, idx in by_dimension(s.dims)
        }
        rng = np.random.default_rng(21)
        for _ in range(4):
            d = random_voltage_digraph(rng, g, max_vertices=4, max_arcs=12)
            b = vl.associated_matrix(d)
            # reference: one residual-checked eig per irrep
            values = []
            for i, k in enumerate(s.dims):
                image = vl.rho_matrix(b, irrep_matrices(s, i)[None])
                values += [complex(z) for z in vl.eig(image)[0][0]] * k
            want = cluster_spectrum(values, 1e-8)
            stacks = []
            eigvals = np.linalg.eigvals

            def spy(a):
                stacks.append(a.shape)
                return eigvals(a)

            monkeypatch.setattr(np.linalg, "eigvals", spy)
            got = vl.lift_spectrum_repr(d, s, 1e-8)
            monkeypatch.undo()
            assert sorted(stacks) == sorted(
                (solved[k], d.order * k, d.order * k) for k in set(s.dims)
            )
            assert got.total == want.total == d.order * g.order
            assert vl.spectra_equal(got, want, 1e-7).matched

    @pytest.mark.parametrize("spec", ["cyclic:12", "product:dihedral:4,cyclic:3"])
    def test_partner_rows_are_exact_conjugates(self, spec):
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        d = random_voltage_digraph(np.random.default_rng(5), g, max_vertices=4, max_arcs=12)
        values = vl.irrep_eigenvalues(d, s)
        paired = 0
        for k, idx in by_dimension(s.dims):
            assert values[k].shape == (len(idx), d.order * k)
            for q, i in enumerate(idx):
                p = idx.index(int(s.conjugates[i]))
                if p < q:
                    assert np.array_equal(values[k][q], values[k][p].conj())
                    paired += 1
        assert paired

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_bruteforce_solver_matches_repr(self, symmetric, monkeypatch):
        g = vl.build_builtin_group("dihedral:4")
        rng = np.random.default_rng(8)
        d = random_voltage_digraph(rng, g, max_vertices=4, max_arcs=10)
        if symmetric:
            # every arc gets its reverse with the inverse voltage
            arcs = d.arcs + tuple((v, u, int(g.inverse[x])) for u, v, x in d.arcs)
            d = vl.make_voltage_digraph(g, d.vertices, arcs)
        called = []

        def spy(name, solver):
            def solve(a):
                called.append(name)
                return solver(a)
            return solve

        for name in ("eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        by_brute = vl.lift_spectrum_bruteforce(d, 1e-8)
        monkeypatch.undo()
        assert called == ["eigvalsh" if symmetric else "eigvals"]
        by_repr = vl.lift_spectrum_repr(d, vl.builtin_irreps(g), 1e-8)
        assert by_brute.total == d.order * g.order
        assert vl.spectra_equal(by_brute, by_repr, 1e-7).matched

    def test_acyclic_lift_is_one_zero_cluster(self):
        # arcs only run from lower to higher vertices, so every image of B is
        # strictly upper triangular and the lift is nilpotent
        g = vl.build_builtin_group("dihedral:128")
        rng = np.random.default_rng(4)
        pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        arcs = [(*pairs[i], int(rng.integers(g.order)))
                for i in rng.integers(len(pairs), size=18)]
        d = vl.make_voltage_digraph(g, [f"v{i}" for i in range(6)], arcs)
        sp = vl.lift_spectrum_repr(d, vl.builtin_irreps(g))
        assert sp.entries == ((0, 1536),)

    @pytest.mark.parametrize("route, solver", [
        ("repr", "eigvals"), ("charsum", "eigvals"), ("bruteforce", "eigvals"),
        ("eigenvectors", "eig"),
    ])
    def test_solver_failure_is_a_spectrum_error(self, route, solver, k2star, d3_irreps,
                                                monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("no convergence")

        call = {
            "repr": lambda: vl.lift_spectrum_repr(k2star, d3_irreps, 1e-7),
            "charsum": lambda: vl.lift_spectrum_charsum(
                k2star, vl.character_table(d3_irreps), 1e-7),
            "bruteforce": lambda: vl.lift_spectrum_bruteforce(k2star, 1e-7),
            "eigenvectors": lambda: vl.lift_eigenvectors(k2star, d3_irreps),
        }[route]
        monkeypatch.setattr(np.linalg, solver, fail)
        with pytest.raises(SpectrumError, match="eigensolver did not converge: no convergence"):
            call()

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    @pytest.mark.parametrize("route", ["repr", "bruteforce", "charsum"])
    def test_non_finite_tol_raises(self, route, tol, k2star, d3_irreps, monkeypatch):
        # inf would cluster every eigenvalue into one entry; bruteforce must
        # refuse before it builds the lift
        def no_lift(d):
            raise AssertionError("lift built")

        monkeypatch.setattr(spectra, "build_lift", no_lift)
        run = {
            "repr": lambda: vl.lift_spectrum_repr(k2star, d3_irreps, tol),
            "bruteforce": lambda: vl.lift_spectrum_bruteforce(k2star, tol),
            "charsum": lambda: vl.lift_spectrum_charsum(
                k2star, vl.character_table(d3_irreps), tol),
        }[route]
        with pytest.raises(SpectrumError, match="positive and finite"):
            run()

    @pytest.mark.parametrize("route", ["repr", "bruteforce", "charsum"])
    def test_tol_that_links_every_pair_raises(self, route, k2star, d3_irreps, monkeypatch):
        # every eigenvalue of the k2star lift lies within its max in-degree 3
        # of 0, so from 2 * 3 = 6 on any two spectra would match
        monkeypatch.setattr(spectra, "build_lift", lambda d: 1 / 0)
        run = {
            "repr": lambda tol: vl.lift_spectrum_repr(k2star, d3_irreps, tol),
            "bruteforce": lambda tol: vl.lift_spectrum_bruteforce(k2star, tol),
            "charsum": lambda tol: vl.lift_spectrum_charsum(
                k2star, vl.character_table(d3_irreps), tol),
        }[route]
        for tol in (6.0, 6.01, 8.0, 1e3):
            with pytest.raises(SpectrumError, match="merges the whole spectrum"):
                run(tol)
        if route != "bruteforce":
            assert run(5.99).total == 12

    def test_checked_cluster_tol(self, k2star, d3):
        check = spectra._checked_cluster_tol
        assert check(k2star, None) == 1e-9 * (1 + int(k2star.in_degrees().max()))
        assert check(k2star, 5.99) == 5.99
        # with no arcs the only eigenvalue is 0, so any tolerance is harmless
        no_arcs = vl.make_voltage_digraph(d3, ["u"], [])
        assert check(no_arcs, 1e3) == 1e3
        for d, tol in [(k2star, 6), (k2star, 6.01), (no_arcs, 0.0), (k2star, 0.0),
                       (k2star, np.nan)]:
            with pytest.raises(SpectrumError):
                check(d, tol)

    @pytest.mark.parametrize("route", ["repr", "charsum", "eigenvectors"])
    def test_irreps_of_another_group_of_equal_order_raise(self, route, k2star):
        # cyclic:6 has the order of dihedral:3, not its multiplication table
        s = vl.builtin_irreps(vl.build_builtin_group("cyclic:6"))
        run = {
            "repr": lambda: vl.lift_spectrum_repr(k2star, s),
            "charsum": lambda: vl.lift_spectrum_charsum(k2star, vl.character_table(s)),
            "eigenvectors": lambda: vl.lift_eigenvectors(k2star, s),
        }[route]
        with pytest.raises(SpectrumError, match="different groups"):
            run()

    @pytest.mark.parametrize("route", ["irrep_eigenvalues", "repr", "eigenvectors", "verify"])
    def test_an_unvalidated_irrep_set_raises_on_every_irrep_route(self, route, k2star, d3):
        # right shapes, wrong matrices: the dim-2 irrep is all zeros, so the
        # identity maps to no identity matrix; make_irrep_set checks only shapes
        s = vl.make_irrep_set(d3, (1, 1, 2), [
            ([0, 1], np.ones((2, d3.order, 1, 1))),
            ([2], np.zeros((1, d3.order, 2, 2))),
        ])
        run = {
            "irrep_eigenvalues": vl.irrep_eigenvalues,
            "repr": vl.lift_spectrum_repr,
            "eigenvectors": vl.lift_eigenvectors,
            "verify": vl.verify,
        }[route]
        with pytest.raises(vl.RepresentationError):
            run(k2star, s)

    def test_irreps_of_a_rebuilt_equal_group_are_accepted(self, k2star, d3):
        g = vl.build_builtin_group("dihedral:3")
        assert g is not d3
        s = vl.builtin_irreps(g)
        assert vl.lift_spectrum_repr(k2star, s).total == 12
        assert vl.lift_spectrum_charsum(k2star, vl.character_table(s)).total == 12
        assert len(vl.lift_eigenvectors(k2star, s).pairs) > 0


class TestPowerSums:
    def test_chi3_values(self, k2star, d3_irreps):
        b = vl.associated_matrix(k2star)
        t = vl.character_table(d3_irreps)
        ps = vl.power_sums_from_characters(b, t.rows[2], 4, k2star.group)
        assert ps.tolist() == [0, 2, 0, 2]

    def test_chi1_values(self, k2star, d3_irreps):
        # trace(B) = 2*sigma so s1 = 2; s2 cross-checked against the known
        # eigenvalues {3, -1}: 9 + 1 = 10
        b = vl.associated_matrix(k2star)
        t = vl.character_table(d3_irreps)
        ps = vl.power_sums_from_characters(b, t.rows[0], 2, k2star.group)
        assert ps.tolist() == [2, 10]

    def test_trivial_group_traces(self):
        g = vl.build_builtin_group("cyclic:1")
        d = vl.make_voltage_digraph(g, ["a", "b"], [(0, 1, 0), (1, 0, 0), (0, 0, 0)])
        b = vl.associated_matrix(d)
        adj = np.array([[1.0, 1.0], [1.0, 0.0]])
        ps = vl.power_sums_from_characters(b, np.ones(1), 2, g)
        for ell, s in enumerate(ps, start=1):
            assert abs(s - np.trace(np.linalg.matrix_power(adj, ell))) < 1e-12

    def test_walk_enumeration_oracle(self, k2star, d3_irreps):
        # closed-walk enumeration agrees with the algebraic trace route
        b = vl.associated_matrix(k2star)
        t = vl.character_table(d3_irreps)
        for row in t.rows:
            ps = vl.power_sums_from_characters(b, row, 4, k2star.group)
            walks = power_sums_by_walk_enumeration(k2star, row, 4)
            assert np.allclose(ps, walks, atol=1e-9)


class TestRootsFromPowerSums:
    def test_paper_system(self):
        roots = vl.roots_from_power_sums(np.array([0, 2, 0, 2]))
        sp = cluster_spectrum(roots, 1e-7)
        expected = cluster_spectrum([1, 0, 0, -1], 1e-7)
        assert vl.spectra_equal(sp, expected, 1e-8).matched

    def test_single_value(self):
        roots = vl.roots_from_power_sums(np.array([5]))
        assert np.allclose(roots, [5])

    def test_complex_roots_round_trip(self):
        # forward-computed power sums of {2, i, -i}
        sums = power_sums_of([2, 1j, -1j], 3)
        assert np.allclose(sums, (2, 2, 8))
        roots = vl.roots_from_power_sums(np.array(sums))
        got = cluster_spectrum(roots, 1e-7)
        expected = cluster_spectrum([2, 1j, -1j], 1e-7)
        assert vl.spectra_equal(got, expected, 1e-7).matched

    def test_degree_cap(self):
        with pytest.raises(SpectrumError, match="cap"):
            vl.roots_from_power_sums(np.arange(40))

    def test_newton_and_determinant_agree(self):
        # the batched recurrence against the determinant formula, row by
        # row, relative to the row's largest coefficient
        rng = np.random.default_rng(5)
        for d in range(1, 9):
            roots = rng.uniform(-3, 3, (50, d)) + 1j * rng.uniform(-3, 3, (50, d))
            sums = np.array([power_sums_of(row, d) for row in roots])
            for got, row in zip(_newton_poly_coeffs(sums), sums):
                want = determinant_poly_coeffs(row)
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("exact_zeros", [False, True])
    def test_batched_roots_match_per_row_np_roots(self, exact_zeros):
        # one stack per degree against np.roots row by row, on simple roots.
        # Distinct Gaussian integers plus k zeros give exactly zero trailing
        # coefficients, which np.roots strips and returns as exact zeros
        rng = np.random.default_rng(9)
        grid = np.add.outer(np.arange(-3, 4), 1j * np.arange(-3, 4)).ravel()
        grid = grid[grid != 0]
        for d in range(1, 11):
            if exact_zeros:
                roots = np.zeros((30, d), dtype=complex)
                for row in roots:
                    k = int(rng.integers(d + 1))
                    row[k:] = rng.choice(grid, d - k, replace=False)
            else:
                roots = rng.uniform(-3, 3, (30, d)) + 1j * rng.uniform(-3, 3, (30, d))
            sums = np.array([power_sums_of(row, d) for row in roots])
            got = vl.roots_from_power_sums(sums)
            assert got.shape == (30, d)
            for mine, row in zip(got, sums):
                theirs = roots_from_power_sums_loop(row)
                assert np.count_nonzero(mine == 0) == np.count_nonzero(theirs == 0)
                rep = vl.spectra_equal(
                    cluster_spectrum(mine, 1e-12), cluster_spectrum(theirs, 1e-12), 1e-8
                )
                assert rep.matched, f"degree {d}: worst {rep.worst_distance:.3e}"

    def test_one_row_is_a_slice_of_the_stack(self):
        rng = np.random.default_rng(10)
        roots = rng.uniform(-3, 3, (4, 6)) + 1j * rng.uniform(-3, 3, (4, 6))
        sums = np.array([power_sums_of(row, 6) for row in roots])
        stack = vl.roots_from_power_sums(sums)
        for row, want in zip(sums, stack):
            assert np.array_equal(vl.roots_from_power_sums(row), want)

    def test_round_trip_failure_raises(self, monkeypatch):
        # roots that do not reproduce their sums must be refused
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) + 1e-3)
        with pytest.raises(SpectrumError, match="inconsistent power sums"):
            vl.roots_from_power_sums(np.array([0, 2, 0, 2]))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        d = data.draw(st.integers(min_value=1, max_value=8))
        # draw on a half-integer grid: distinct roots are then at least 0.5
        # apart, so exact multiplicities match numerical ones (arbitrary
        # floats can land eps-close together, acting as a higher-multiplicity
        # root with far worse recovery conditioning)
        parts = st.integers(min_value=-6, max_value=6)
        roots = [
            complex(data.draw(parts) / 2, data.draw(parts) / 2)
            for _ in range(d)
        ]
        sums = power_sums_of(roots, d)
        got = vl.roots_from_power_sums(np.array(sums))
        # polynomial root finding smears a multiplicity-k root by roughly
        # eps**(1/k), so the match tolerance must scale with the largest
        # multiplicity the draw happened to produce
        expected = cluster_spectrum(roots, 1e-9)
        kmax = max(mult for _, mult in expected.entries)
        tol = max(1e-5, 100 * float(np.finfo(float).eps) ** (1.0 / kmax))
        rep = vl.spectra_equal(cluster_spectrum(got, 1e-8), expected, tol)
        assert rep.matched


class TestLiftEigenvectors:
    def test_worked_example_counts_and_residuals(self, k2star, d3_irreps):
        result = vl.lift_eigenvectors(k2star, d3_irreps)
        a = vl.build_lift(k2star).astype(float)
        bound = 1e-8 * (1 + np.linalg.norm(a, 2))
        assert len(result.pairs) + result.zero_vectors_excluded == 12
        for mu, w in result.pairs:
            assert np.linalg.norm(a @ w - mu * w) <= bound * np.linalg.norm(w)

    def test_perron_vector(self, k2star, d3_irreps):
        # the lift is 3-regular: eigenvalue 3 carries the all-ones vector
        result = vl.lift_eigenvectors(k2star, d3_irreps)
        for mu, w in result.pairs:
            if abs(mu - 3) < 1e-9:
                w = w / w[0]
                assert np.allclose(w, 1.0, atol=1e-9)
                break
        else:
            pytest.fail("no eigenvector for eigenvalue 3")

    def test_sign_character_vector(self, d3, k2star, d3_irreps):
        # eigenvalue -3 comes from the sign character: value chi2(h) on
        # fiber a, -chi2(h) on fiber b (up to scale)
        t = vl.character_table(d3_irreps)
        chi2 = t.rows[1].real
        w = np.concatenate([chi2, -chi2])
        a = vl.build_lift(k2star).astype(float)
        assert np.allclose(a @ w, -3 * w, atol=1e-9)
        result = vl.lift_eigenvectors(k2star, d3_irreps)
        minus3 = [p for p in result.pairs if abs(p[0] + 3) < 1e-9]
        assert len(minus3) == 1

    def test_trivial_representation_constant_on_fibers(self, d3):
        rng = np.random.default_rng(2)
        d = random_voltage_digraph(rng, d3, max_vertices=3, max_arcs=6)
        s = vl.builtin_irreps(d3)
        result = vl.lift_eigenvectors(d, s)
        n = d3.order
        # eigenvalues from the trivial irrep appear with fiber-constant vectors
        base = vl.rho_matrix(vl.associated_matrix(d), s.stacks[1][:1])[0]
        base_vals = np.linalg.eigvals(base)
        for mu, w in result.pairs:
            fibers = w.reshape(d.order, n)
            constant = np.allclose(fibers, fibers[:, :1], atol=1e-9)
            if constant and len(base_vals):
                assert np.min(np.abs(base_vals - mu)) < 1e-7

    def test_eigenvalue_multiset_matches_spectrum(self, k2star, d3_irreps):
        result = vl.lift_eigenvectors(k2star, d3_irreps)
        assert result.zero_vectors_excluded == 0
        got = cluster_spectrum([mu for mu, _ in result.pairs], 1e-7)
        expected = vl.lift_spectrum_repr(k2star, d3_irreps, 1e-7)
        assert vl.spectra_equal(got, expected, 1e-7).matched


    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_matches_per_irrep_loop(self, spec):
        # the batched pass against one eig per irrep and one product per
        # (eigencolumn, base vertex), on directed and undirected digraphs
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        rng = np.random.default_rng(31)
        for t in range(6):
            d = random_voltage_digraph(rng, g, max_vertices=5, max_arcs=12)
            if t % 2:
                # every arc gets its reverse with the inverse voltage
                arcs = d.arcs + tuple((v, u, int(g.inverse[x])) for u, v, x in d.arcs)
                d = vl.make_voltage_digraph(g, d.vertices, arcs)
            got = vl.lift_eigenvectors(d, s)
            want = lift_eigenvectors_loop(d, s)
            assert got.skipped_irreps == want.skipped_irreps
            assert len(got.skip_reasons) == len(got.skipped_irreps)
            assert got.zero_vectors_excluded == want.zero_vectors_excluded
            assert len(got.pairs) == len(want.pairs)
            mus = [np.array([mu for mu, _ in r.pairs], dtype=complex) for r in (got, want)]
            assert mus[0].tobytes() == mus[1].tobytes()
            for (_, w), (_, v) in zip(got.pairs, want.pairs):
                assert np.linalg.norm(w - v) <= 1e-12 * np.linalg.norm(v)

    def test_vectors_are_views_of_one_array_per_dimension(self, k2star, d3_irreps):
        result = vl.lift_eigenvectors(k2star, d3_irreps)
        assert not result.skipped_irreps
        assert not any(w.flags.owndata for _, w in result.pairs)
        assert len({id(w.base) for _, w in result.pairs}) == len(set(d3_irreps.dims))

    @staticmethod
    def accounted(d, s, result):
        # pairs + zero vectors + r * d^2 per skipped irrep = rn
        skipped = sum(d.order * s.dims[i] ** 2 for i in result.skipped_irreps)
        return len(result.pairs) + result.zero_vectors_excluded + skipped

    def test_acyclic_digraph_skips_every_irrep(self):
        # on the path a -> b -> c every image of B is nilpotent, with
        # invertible blocks rho(x) above the diagonal: one Jordan chain per
        # coordinate, so every eigenvector matrix is singular
        g = vl.build_builtin_group("dihedral:4")
        s = vl.builtin_irreps(g)
        d = vl.make_voltage_digraph(g, ["a", "b", "c"], [(0, 1, 3), (1, 2, 6)])
        result = vl.lift_eigenvectors(d, s)
        assert result.skipped_irreps == tuple(range(len(s.dims)))
        assert result.pairs == ()
        assert self.accounted(d, s, result) == d.order * g.order
        assert len(result.skip_reasons) == len(s.dims)
        for why in result.skip_reasons:
            assert re.fullmatch(r"cond \S+ > 1e\+12", why), why
            assert float(why.split()[1]) > spectra.DEFECTIVE_COND_LIMIT
        assert lift_eigenvectors_loop(d, s).skipped_irreps == result.skipped_irreps

    def test_some_irreps_skipped_others_kept(self):
        # loops r and r*s over dihedral:4: the 2-dim image
        # rho(r)(1 + rho(s)) is nonzero and squares to zero, while every
        # 1 x 1 image is diagonalisable
        g = vl.build_builtin_group("dihedral:4")
        s = vl.builtin_irreps(g)
        names = g.element_names
        d = vl.make_voltage_digraph(
            g, ["v"], [(0, 0, names.index("r^1")), (0, 0, names.index("r^1*s"))])
        result = vl.lift_eigenvectors(d, s)
        two_dim = tuple(i for i, k in enumerate(s.dims) if k == 2)
        assert result.skipped_irreps == two_dim
        assert len(result.pairs) == 4
        assert self.accounted(d, s, result) == d.order * g.order
        assert [why.split()[0] for why in result.skip_reasons] == ["cond"]
        want = lift_eigenvectors_loop(d, s)
        assert want.skipped_irreps == two_dim
        assert [mu for mu, _ in result.pairs] == [mu for mu, _ in want.pairs]

    def test_residual_branch_reports_residual_and_bound(self, k2star, d3_irreps, monkeypatch):
        # a bound far below rounding error fails every residual test
        monkeypatch.setattr(spectra, "EIG_RESIDUAL_FACTOR", 1e-30)
        result = vl.lift_eigenvectors(k2star, d3_irreps)
        assert result.skipped_irreps == (0, 1, 2)
        assert self.accounted(k2star, d3_irreps, result) == 12
        for why in result.skip_reasons:
            match = re.fullmatch(r"residual (\S+) > bound (\S+)", why)
            assert match, why
            assert float(match[1]) > float(match[2])
        assert lift_eigenvectors_loop(k2star, d3_irreps).skipped_irreps == (0, 1, 2)


class TestMainEquivalenceSample:
    """Small randomized slice of the Theorem check; the full 200-case run
    lives in the acceptance suite."""

    @pytest.mark.parametrize("seed", range(8))
    def test_repr_equals_bruteforce(self, seed):
        rng = np.random.default_rng(100 + seed)
        specs = ["cyclic:5", "dihedral:3", "dihedral:4",
                 "product:cyclic:2,cyclic:3", "cyclic:8"]
        g = vl.build_builtin_group(specs[seed % len(specs)])
        s = vl.builtin_irreps(g)
        d = random_voltage_digraph(rng, g, max_vertices=4, max_arcs=12)
        a = vl.lift_spectrum_repr(d, s, 1e-9)
        b = vl.lift_spectrum_bruteforce(d, 1e-9)
        assert vl.spectra_equal(a, b, 1e-7).matched

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltlift as vl
from voltlift import spectra
from voltlift.spectra import (
    SpectrumError,
    _determinant_poly_coeffs,
    _newton_poly_coeffs,
    cluster_spectrum,
)

from conftest import random_voltage_digraph
from oracles import cluster_spectrum_loop, power_sums_by_walk_enumeration


def power_sums_of(roots, length):
    roots = np.asarray(roots, dtype=complex)
    return tuple(complex(np.sum(roots ** k)) for k in range(1, length + 1))


class TestRhoMatrix:
    def test_trivial_and_sign_characters(self, k2star, d3_irreps):
        b = vl.associated_matrix(k2star)
        m1 = vl.rho_matrix(b, d3_irreps.irreps[0])
        m2 = vl.rho_matrix(b, d3_irreps.irreps[1])
        assert np.allclose(m1, [[1, 2], [2, 1]], atol=1e-12)
        assert np.allclose(m2, [[-1, 2], [2, -1]], atol=1e-12)

    def test_two_dim_irrep_eigenvalues(self, k2star, d3_irreps):
        b = vl.associated_matrix(k2star)
        m3 = vl.rho_matrix(b, d3_irreps.irreps[2])
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
        for irrep in vl.builtin_irreps(g).irreps:
            k = irrep.dim
            want = np.zeros((d.order * k, d.order * k), dtype=complex)
            for u in range(d.order):
                for v in range(d.order):
                    for x in range(g.order):
                        want[u * k:(u + 1) * k, v * k:(v + 1) * k] += b[u, v, x] * irrep.matrices[x]
            assert np.array_equal(vl.rho_matrix(b, irrep), want)

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_functoriality(self, k2star, d3_irreps, ell):
        # rho(B^ell) == rho(B)^ell
        b = vl.associated_matrix(k2star)
        bp = vl.algebra_matrix_power(b, ell, k2star.group)
        for irrep in d3_irreps.irreps:
            lhs = vl.rho_matrix(bp, irrep)
            rhs = np.linalg.matrix_power(vl.rho_matrix(b, irrep), ell)
            scale = max(1.0, np.linalg.norm(rhs))
            assert np.abs(lhs - rhs).max() <= 1e-9 * scale


class TestEig:
    def test_identity(self):
        dec = vl.eig(np.eye(3))
        assert np.allclose(sorted(dec.eigenvalues.real), [1, 1, 1])

    def test_two_by_two(self):
        dec = vl.eig(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.allclose(sorted(dec.eigenvalues.real), [-1, 3])

    def test_nilpotent_defective(self):
        dec = vl.eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(SpectrumError, match="non-finite"):
            vl.eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(SpectrumError, match="square"):
            vl.eig(np.zeros((2, 3)))


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
         ([complex(0, np.inf)], 1e-9)],
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
        lift = vl.build_lift(d)
        base_vals = np.linalg.eigvals(lift.adjacency.astype(float))
        sp = vl.lift_spectrum_repr(d, vl.builtin_irreps(g), 1e-8)
        assert vl.spectra_equal(sp, cluster_spectrum(base_vals, 1e-8), 1e-7).matched

    def test_cayley_z4_cycle(self):
        g = vl.build_builtin_group("cyclic:4")
        d = vl.make_voltage_digraph(g, ["v"], [(0, 0, 1)])
        sp = vl.lift_spectrum_bruteforce(d, 1e-9)
        expected = cluster_spectrum([1, 1j, -1, -1j], 1e-9)
        assert vl.spectra_equal(sp, expected, 1e-9).matched

    def test_bruteforce_size_cap(self):
        g = vl.build_builtin_group("cyclic:8")
        d = vl.make_voltage_digraph(g, ["v"], [(0, 0, 1)])
        with pytest.raises(SpectrumError, match="cap"):
            vl.lift_spectrum_bruteforce(d, 1e-9, max_order=4)

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


    @pytest.mark.parametrize("spec", ["dihedral:7", "product:dihedral:4,cyclic:3"])
    def test_repr_batches_one_eigvals_per_dimension(self, spec, monkeypatch):
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        assert len(set(s.dims)) > 1
        rng = np.random.default_rng(21)
        for _ in range(4):
            d = random_voltage_digraph(rng, g, max_vertices=4, max_arcs=12)
            b = vl.associated_matrix(d)
            # reference: one residual-checked eig per irrep
            values = []
            for irrep in s.irreps:
                values += [complex(z) for z in vl.eig(vl.rho_matrix(b, irrep)).eigenvalues] * irrep.dim
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
                (s.dims.count(k), d.order * k, d.order * k) for k in set(s.dims)
            )
            assert got.total == want.total == d.order * g.order
            assert vl.spectra_equal(got, want, 1e-7).matched

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

    @pytest.mark.parametrize("route", ["repr", "bruteforce", "charsum"])
    def test_lost_multiplicity_raises(self, route, k2star, d3_irreps, monkeypatch):
        # a clustering that drops an entry must fail the total check, also
        # under python -O
        cluster = spectra.cluster_spectrum
        monkeypatch.setattr(
            spectra, "cluster_spectrum",
            lambda values, tol: vl.SpectrumMultiset(cluster(values, tol).entries[:-1]),
        )
        run = {
            "repr": lambda: vl.lift_spectrum_repr(k2star, d3_irreps, 1e-7),
            "bruteforce": lambda: vl.lift_spectrum_bruteforce(k2star, 1e-7),
            "charsum": lambda: vl.lift_spectrum_charsum(
                k2star, vl.character_table(d3_irreps), 1e-7),
        }[route]
        with pytest.raises(SpectrumError, match="multiplicities sum to 11, expected 12"):
            run()


class TestPowerSums:
    def test_chi3_values(self, k2star, d3_irreps):
        b = vl.associated_matrix(k2star)
        t = vl.character_table(d3_irreps)
        ps = vl.power_sums_from_characters(b, t.rows[2], 4, k2star.group)
        assert ps.sums == (0, 2, 0, 2)

    def test_chi1_values(self, k2star, d3_irreps):
        # trace(B) = 2*sigma so s1 = 2; s2 cross-checked against the known
        # eigenvalues {3, -1}: 9 + 1 = 10
        b = vl.associated_matrix(k2star)
        t = vl.character_table(d3_irreps)
        ps = vl.power_sums_from_characters(b, t.rows[0], 2, k2star.group)
        assert ps.sums == (2, 10)

    def test_trivial_group_traces(self):
        g = vl.build_builtin_group("cyclic:1")
        d = vl.make_voltage_digraph(g, ["a", "b"], [(0, 1, 0), (1, 0, 0), (0, 0, 0)])
        b = vl.associated_matrix(d)
        adj = np.array([[1.0, 1.0], [1.0, 0.0]])
        ps = vl.power_sums_from_characters(b, np.ones(1), 2, g)
        for ell, s in enumerate(ps.sums, start=1):
            assert abs(s - np.trace(np.linalg.matrix_power(adj, ell))) < 1e-12

    def test_walk_enumeration_oracle(self, k2star, d3_irreps):
        # closed-walk enumeration agrees with the algebraic trace route
        b = vl.associated_matrix(k2star)
        t = vl.character_table(d3_irreps)
        for row in t.rows:
            ps = vl.power_sums_from_characters(b, row, 4, k2star.group)
            walks = power_sums_by_walk_enumeration(k2star, row, 4)
            assert np.allclose(ps.sums, walks, atol=1e-9)


class TestRootsFromPowerSums:
    def test_paper_system(self):
        roots = vl.roots_from_power_sums(vl.PowerSums((0, 2, 0, 2), 4))
        sp = cluster_spectrum(roots, 1e-7)
        expected = cluster_spectrum([1, 0, 0, -1], 1e-7)
        assert vl.spectra_equal(sp, expected, 1e-8).matched

    def test_single_value(self):
        roots = vl.roots_from_power_sums(vl.PowerSums((5,), 1))
        assert np.allclose(roots, [5])

    def test_complex_roots_round_trip(self):
        # forward-computed power sums of {2, i, -i}
        sums = power_sums_of([2, 1j, -1j], 3)
        assert np.allclose(sums, (2, 2, 8))
        roots = vl.roots_from_power_sums(vl.PowerSums(sums, 3))
        got = cluster_spectrum(roots, 1e-7)
        expected = cluster_spectrum([2, 1j, -1j], 1e-7)
        assert vl.spectra_equal(got, expected, 1e-7).matched

    def test_degree_cap(self):
        with pytest.raises(SpectrumError, match="cap"):
            vl.roots_from_power_sums(vl.PowerSums(tuple(range(40)), 40))

    def test_newton_and_determinant_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            roots = rng.uniform(-3, 3, d) + 1j * rng.uniform(-3, 3, d)
            sums = power_sums_of(roots, d)
            c1 = _newton_poly_coeffs(sums, d)
            c2 = _determinant_poly_coeffs(sums, d)
            smax = max(1.0, max(abs(s) for s in sums))
            assert np.abs(c1 - c2).max() <= 1e-8 * smax ** d

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
        got = vl.roots_from_power_sums(vl.PowerSums(sums, d))
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
        lift = vl.build_lift(k2star)
        a = lift.adjacency.astype(float)
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
        lift = vl.build_lift(k2star)
        a = lift.adjacency.astype(float)
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
        base = vl.rho_matrix(vl.associated_matrix(d), s.irreps[0])
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

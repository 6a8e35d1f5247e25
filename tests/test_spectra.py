import json
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltlift as vl
from voltlift import reps, spectra, voltage
from voltlift.spectra import (
    DEFECTIVE_COND_LIMIT,
    EIG_RESIDUAL_FACTOR,
    SpectrumError,
    _newton_poly_coeffs,
    cluster_spectrum,
)

from conftest import (
    GROUP_POOL_SPECS,
    irrep_matrices,
    random_voltage_digraph,
    random_voltage_graph,
    replaced,
    symmetric_lift,
    term_cases,
    unvalidated,
)
from oracles import (
    associated_matrix_loop,
    bottleneck_distance_loop,
    charsum_match_tol_dense,
    cluster_spectrum_loop,
    determinant_poly_coeffs,
    lift_eigenvalues_by_component,
    lift_eigenvalues_gathered,
    lift_eigenvalues_whole,
    lift_eigenvectors_loop,
    power_sums_by_walk_enumeration,
    roots_from_power_sums_loop,
)
from test_groups import FAMILY_SPECS, components_bfs
from test_reps import d3_with_one_imaginary_part, with_negative_zero_imaginary_parts


def stack_indices(s):
    """(dim, indices of its irreps) for each stack of s: one range each,
    since the irrep order is dimension-major."""
    for d, stack in s.stacks.items():
        first = s.dims.index(d)
        yield d, np.arange(first, first + len(stack))


def reverse_completed(d):
    """d plus, for each arc, its reverse with the inverse voltage: a digraph
    whose lift is undirected."""
    inverse = d.group.inverse
    arcs = d.arcs + tuple((v, u, int(inverse[x])) for u, v, x in d.arcs)
    return vl.VoltageDigraph(d.group, d.vertices, arcs)


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


DATA = os.path.join(os.path.dirname(__file__), "data")


def q8_set():
    """Q8 from its group table, with the irreps loaded from their document."""
    with open(os.path.join(DATA, "q8_group.json")) as f:
        g = vl.parse_group_table(f.read())
    with open(os.path.join(DATA, "q8_irreps.json")) as f:
        return vl.load_irreps(f.read(), g)


class TestQuotientTerms:
    """The irrep routes read B's nonzeros from the arcs (_quotient_terms)
    and never build B; their images must be rho_matrix's to the bit."""

    @staticmethod
    def assert_images_are_rho_matrix(d, s):
        # in the dtype of the stack as stored: float64 for a stack with no
        # nonzero imaginary part, whose images are then the real parts of
        # those of the same stack in complex128, to the bit
        b = vl.associated_matrix(d)
        stacks = list(s.stacks.items())
        got = list(spectra._irrep_images(d, s))
        assert [(dim, first) for dim, first, _ in got] == [
            (dim, s.dims.index(dim)) for dim, _ in stacks]
        for (_, _, images), (_, stack) in zip(got, stacks):
            real = stack.dtype == float
            assert real or (stack.dtype == complex and stack.imag.any())
            want = vl.rho_matrix(b, stack)
            assert images.dtype == want.dtype == (float if real else complex)
            assert images.shape == want.shape
            assert images.tobytes() == want.tobytes()
            if real:
                full = vl.rho_matrix(b, stack.astype(complex))
                assert full.dtype == complex and not full.imag.any()
                assert images.tobytes() == np.ascontiguousarray(full.real).tobytes()

    @pytest.mark.parametrize("spec", GROUP_POOL_SPECS)
    def test_terms_are_the_nonzeros_of_b_in_order(self, spec):
        # B by one increment per arc (tests/oracles.py), not from the terms
        # that associated_matrix itself scatters
        g = vl.build_builtin_group(spec)
        for d in term_cases(np.random.default_rng(5), g):
            b = associated_matrix_loop(d)
            got = vl.associated_matrix(d)
            assert got.dtype == object and np.array_equal(got, b)
            assert all(type(c) is int for c in got.flat)
            u, v, x, count = voltage._quotient_terms(d)
            want = np.nonzero(b)
            for got, ref in zip((u, v, x), want):
                assert got.dtype == np.int64 and np.array_equal(got, ref)
            assert count.dtype == np.int64
            assert count.tolist() == b[want].tolist()

    def test_parallel_arcs_count_once_per_arc(self, d3):
        d = vl.VoltageDigraph(d3, ["a", "b"], [(0, 1, 4), (1, 1, 2), (0, 1, 4), (1, 1, 2),
                                               (1, 1, 2), (0, 0, 0)])
        terms = [t.tolist() for t in voltage._quotient_terms(d)]
        assert terms == [[0, 0, 1], [0, 1, 1], [0, 4, 2], [1, 2, 3]]

    @pytest.mark.parametrize("spec", GROUP_POOL_SPECS)
    def test_route_images_equal_rho_matrix_bitwise(self, spec):
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        for d in term_cases(np.random.default_rng(6), g):
            self.assert_images_are_rho_matrix(d, s)

    def test_route_images_equal_rho_matrix_bitwise_on_loaded_q8(self):
        s = q8_set()
        for d in term_cases(np.random.default_rng(7), s.group):
            self.assert_images_are_rho_matrix(d, s)

    def test_irrep_routes_never_build_b(self, k2star, d3_irreps, monkeypatch):
        want = (vl.irrep_eigenvalues(k2star, d3_irreps),
                vl.lift_spectrum_repr(k2star, d3_irreps),
                vl.lift_eigenvectors(k2star, d3_irreps))

        def refuse(d):
            raise AssertionError("an irrep route built the quotient matrix")

        # every module that binds it: spectra no longer does
        for module in (vl, voltage, spectra):
            if hasattr(module, "associated_matrix"):
                monkeypatch.setattr(module, "associated_matrix", refuse)
        got = (vl.irrep_eigenvalues(k2star, d3_irreps),
               vl.lift_spectrum_repr(k2star, d3_irreps),
               vl.lift_eigenvectors(k2star, d3_irreps))
        for k, vals in want[0].items():
            assert got[0][k].tobytes() == vals.tobytes()
        assert got[1] == want[1]
        assert [mu for mu, _ in got[2].pairs] == [mu for mu, _ in want[2].pairs]
        for (_, w), (_, v) in zip(got[2].pairs, want[2].pairs):
            assert w.tobytes() == v.tobytes()


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

    @pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 0)])
    def test_empty_stacks(self, shape):
        vals, vecs, res, bounds = vl.eig(np.zeros(shape))
        assert vals.shape == res.shape == shape[:2] and vecs.shape == shape
        assert bounds.shape == (shape[0],) and not bounds.any()

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

    @staticmethod
    def hermitian_with_skew(rng, n, ratio, diagonal=False):
        # H + S with ||(H + S) - (H + S)^H||_F = 2 ||S||_F equal to
        # ratio * n^2 * eps * ||H||_F, S skew-Hermitian. With a real diagonal
        # H the sum H + S is exact, so the ratio holds to rounding;
        # otherwise adding S to H's entries rounds it by a few percent
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h, skew = (a + a.conj().T) / 2, (a - a.conj().T) / 2
        if diagonal:
            h = np.diag(rng.standard_normal(n)).astype(complex)
        scale = ratio * n * n * np.finfo(float).eps * np.linalg.norm(h) / 2
        return h + skew * scale / np.linalg.norm(skew)

    def test_hermitian_gate_is_n_squared_eps_of_the_norm(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 16):
            stack = np.array([self.hermitian_with_skew(rng, n, ratio, diagonal=True)
                              for ratio in (0.0, 0.5, 0.99, 1.01, 2.0, 1e6)])
            assert spectra._hermitian(stack).tolist() == [True] * 3 + [False] * 3
        assert spectra._hermitian(np.zeros((1, 3, 3), dtype=complex)).tolist() == [True]

    def test_hermitian_matrix_goes_to_eigh(self, monkeypatch):
        rng = np.random.default_rng(13)
        m = self.hermitian_with_skew(rng, 6, 0.5)[None]
        called = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a, solve=solve: called.append(a) or solve(a))
        vals, vecs, res, bound = vl.eig(m)
        only_vals = spectra._eigvals(m)
        monkeypatch.undo()
        # eigh and eigvalsh read one triangle, so they are given the
        # Hermitian part alone, and agree on the eigenvalues
        assert len(called) == 2
        assert all(np.array_equal(a, spectra._hermitian_part(m)) for a in called)
        assert np.allclose(only_vals, vals, rtol=0, atol=1e-13)
        assert np.all(vals.imag == 0)
        assert np.allclose(vecs[0].conj().T @ vecs[0], np.eye(6), atol=1e-13)
        # the residuals are M's own; ||M||_2 is read off the eigenvalues
        assert np.array_equal(
            res, np.linalg.norm(m @ vecs - vecs * vals[:, None, :], axis=1)
            / np.linalg.norm(vecs, axis=1))
        assert bound[0] == EIG_RESIDUAL_FACTOR * (1 + np.abs(vals[0]).max())
        assert abs(np.abs(vals[0]).max() - np.linalg.norm(m[0], 2)) <= 1e-12
        assert np.all(res <= bound[:, None])

    def test_each_matrix_is_solved_alone(self):
        # a mixed stack: every field of slice q equals the solve of m[q] alone
        rng = np.random.default_rng(14)
        stack = np.array([
            self.hermitian_with_skew(rng, 5, 0.5),
            rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)),
            self.hermitian_with_skew(rng, 5, 3.0),
            self.hermitian_with_skew(rng, 5, 0.0),
        ])
        assert spectra._hermitian(stack).tolist() == [True, False, False, True]
        batched = vl.eig(stack)
        for q in range(len(stack)):
            for got, want in zip(batched, vl.eig(stack[q:q + 1])):
                assert got[q:q + 1].tobytes() == want.tobytes()


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

    def test_no_values(self):
        sp = cluster_spectrum([], tol=1e-9)
        assert sp.entries == () and sp.total == 0

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
            k = max(max(m for _, m in cluster_spectrum_loop(row, tol)) for row in rows)
            rho = max(float(np.abs(row).max()) for row in rows)
            got_tol, got_k = spectra.charsum_match_tol(values, tol)
            assert got_k == k
            assert got_tol == max(tol, 1e-6, 10 * (1 + rho) * self.EPS ** (1 / k))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_dense_reference(self, data):
        # the reference links every pair of one image iff |z_i - z_j| < tol;
        # draw the images from one pool of the cases where that decision is
        # closest, so values repeat within and across images: conjugate
        # pairs, chains spaced just under tol, pairs exactly tol apart, and
        # rows of one value
        tol = data.draw(st.sampled_from([1e-9, 2.0 ** -20, 0.25, 0.3]))
        offset = data.draw(st.sampled_from([0.0, 1.0, -3.0]))
        grid = st.integers(min_value=-4, max_value=4)
        direction = st.sampled_from([1, -1, 1j, -1j, (1 + 1j) / np.sqrt(2)])
        pool = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            z = offset + complex(data.draw(grid), data.draw(grid)) * tol * data.draw(
                st.sampled_from([0.3, 1.0, 2.5]))
            step = data.draw(direction)
            pool += [z, z.conjugate(), z + tol * step]
            pool += [z + k * np.nextafter(tol, 0) * step for k in (1, 2, 3)]
        values = {}
        for dim in data.draw(st.sets(st.integers(min_value=1, max_value=3), min_size=1)):
            num = data.draw(st.integers(min_value=1, max_value=4))
            size = data.draw(st.sampled_from([1, 2, 4, 6]))
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                       min_size=num * size, max_size=num * size))
            values[dim] = np.array(pool)[picks].reshape(num, size)
        assert spectra.charsum_match_tol(values, tol) == charsum_match_tol_dense(values, tol)

    def test_a_full_stack_holds_no_pairwise_gaps(self):
        # 4096 images of 32 values, the largest stack of 1-dim images that
        # charsum solves at MAX_ORDER: their pairwise gaps alone would be a
        # (4096, 32, 32) complex array, 64 MiB. The windows of distinct
        # random values hold few links, and the kernel a few arrays of one
        # entry per value
        rng = np.random.default_rng(5)
        v = rng.standard_normal((4096, 32)) + 1j * rng.standard_normal((4096, 32))
        tracemalloc.start()
        try:
            assert spectra.charsum_match_tol({1: v}, 1e-9) == (1e-6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("last, k", [(0, 32), (5e-10 + 10j, 31)])
    def test_a_stack_of_equal_values_holds_no_implied_links(self, last, k):
        # 4096 images of 31 zeros and one more value: every pair of zeros
        # is within tol, 2 million pairs in all, but the 30 steps between
        # them link them and the kernel stores no other link. A last value
        # of 5e-10 + 10i is in every zero's window but links to none, so
        # each zero stays a candidate to the end of its row
        v = np.zeros((4096, 32), dtype=complex)
        v[:, -1] = last
        tracemalloc.start()
        try:
            assert spectra.charsum_match_tol({1: v}, 1e-9)[1] == k
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

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
    def test_agrees_with_the_bottleneck_matching_over_every_copy(self, data):
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
        rep = vl.spectra_equal(a, b, tol)
        if a.total != b.total:
            assert rep == vl.MatchReport(False, float("inf"), a.total, b.total,
                                         f"sizes differ: {a.total} vs {b.total}")
            return
        assert (rep.count_left, rep.count_right, rep.message) == (a.total, b.total, "")
        # the reported pairing is a real one: never below the bottleneck,
        # and within tol whenever it is a MATCH
        bottleneck = bottleneck_distance_loop(a, b)
        assert rep.worst_distance >= bottleneck
        if rep.matched:
            assert rep.worst_distance <= tol
        # on the real line the sorted pairing is a bottleneck matching: the
        # verdict is exact, and a MATCH reports the bottleneck itself
        a, b = (vl.SpectrumMultiset(tuple((complex(v.real), m) for v, m in s.entries))
                for s in (a, b))
        rep, bottleneck = vl.spectra_equal(a, b, tol), bottleneck_distance_loop(a, b)
        assert rep.worst_distance >= bottleneck
        assert rep.matched == (bottleneck <= tol)
        if rep.matched:
            assert rep.worst_distance == bottleneck

    @staticmethod
    def of(*values):
        return vl.SpectrumMultiset(tuple((complex(v), 1) for v in values))

    def test_a_pairing_greedy_matching_misses(self):
        # greedy pairs 0.5 with its nearest, 0.9, and leaves 1 with 0
        rep = vl.spectra_equal(self.of(0.5, 1), self.of(0, 0.9), 0.6)
        assert rep.matched and rep.worst_distance == 0.5

    def test_a_mismatch_only_the_counts_show(self):
        # equal totals, and every value has a copy on both sides
        rep = vl.spectra_equal(self.of(0, 0, 1), self.of(0, 1, 1), 0.1)
        assert not rep.matched and rep.worst_distance == 1.0

    def test_a_shifted_value_reports_its_shift(self):
        rep = vl.spectra_equal(self.of(0, 5), self.of(0, 5.5), 0.1)
        assert not rep.matched and rep.worst_distance == 0.5

    def test_a_pair_exactly_tol_apart_matches(self):
        a, b = self.of(0.1, 2j), self.of(0.3, 2j)
        tol = float(np.abs(complex(0.3) - complex(0.1)))
        rep = vl.spectra_equal(a, b, tol)
        assert rep.matched and rep.worst_distance == tol
        assert not vl.spectra_equal(a, b, np.nextafter(tol, 0)).matched

    def test_tol_zero_is_exact_equality(self):
        a = cluster_spectrum([3, -1, 1j, 1j], 1e-9)
        assert vl.spectra_equal(a, a, 0.0) == vl.MatchReport(True, 0.0, 4, 4)
        assert not vl.spectra_equal(self.of(1), self.of(np.nextafter(1, 2)), 0.0).matched

    def test_empty_spectra_match(self):
        assert vl.spectra_equal(self.of(), self.of(), 0.5) == vl.MatchReport(True, 0.0, 0, 0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_rejects_a_tolerance_that_is_negative_or_not_finite(self, tol):
        with pytest.raises(SpectrumError):
            vl.spectra_equal(self.of(1), self.of(1), tol)


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
        d = vl.VoltageDigraph(g, ["v"], [(0, 0, 1)])
        sp = vl.lift_spectrum_bruteforce(d, 1e-9)
        expected = cluster_spectrum([1, 1j, -1, -1j], 1e-9)
        assert vl.spectra_equal(sp, expected, 1e-9).matched

    def test_bruteforce_solve_budget(self, monkeypatch):
        # the directed 8-cycle is priced at the measured eigvals cost of an
        # 8-vertex block: admitted when that cost is the budget, one eigvals
        # solve of 2000 vertices, and refused when it is more
        g = vl.build_builtin_group("cyclic:8")
        d = vl.VoltageDigraph(g, ["v"], [(0, 0, 1)])
        at = spectra.BRUTEFORCE_SIZES.index(8)
        for cost, admitted in ((1.0, True), (1.01, False)):
            table = list(spectra.BRUTEFORCE_COST["eigvals"])
            table[at] = cost
            monkeypatch.setitem(spectra.BRUTEFORCE_COST, "eigvals", tuple(table))
            if admitted:
                assert vl.lift_spectrum_bruteforce(d, 1e-9).total == 8
            else:
                with pytest.raises(SpectrumError, match="over the budget"):
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

    def test_charsum_refuses_a_degree_past_the_hard_cap(self):
        # 17 vertices times the 2-dim irrep of dihedral:3: degree 34 > 32
        g = vl.build_builtin_group("dihedral:3")
        d = vl.VoltageDigraph(g, [f"v{i}" for i in range(17)], [(0, 1, 0)])
        with pytest.raises(SpectrumError, match=re.escape(
                f"power-sum degree 34 exceeds conditioning cap {spectra.CHARSUM_HARD_CAP}")):
            vl.lift_spectrum_charsum(d, vl.character_table(vl.builtin_irreps(g)))

    def test_charsum_refuses_degrees_no_irrep_set_has(self):
        # the all-ones 3 x 6 table over dihedral:3 has degrees 1, 1, 1,
        # whose squares sum to 3, not 6: its spectrum would miss 3 of the
        # lift's 6 eigenvalues (one vertex, loops r and r^2: 2^2, -1^4).
        # No such table can be made, so no route ever receives one
        g = vl.build_builtin_group("dihedral:3")
        with pytest.raises(vl.RepresentationError,
                           match="sum of squared degrees 3 != group order 6"):
            vl.CharacterTable(g, np.ones((3, 6)))


    @pytest.mark.parametrize("spec", ["dihedral:7", "product:dihedral:4,cyclic:3", "cyclic:12"])
    def test_repr_batches_one_eigvals_per_dimension(self, spec, monkeypatch):
        # one solver call per dimension, on one irrep of each conjugate
        # pair: every real character and half of the complex ones. Images
        # far from Hermitian miss the gate and go to eigvals
        self.check_one_call_per_dimension(spec, "eigvals", monkeypatch)

    @pytest.mark.parametrize("spec", ["dihedral:7", "product:dihedral:4,cyclic:3", "cyclic:12"])
    def test_repr_batches_one_eigvalsh_per_dimension_when_undirected(self, spec, monkeypatch):
        # the images of an undirected voltage graph are Hermitian and go to
        # eigvalsh, in as many calls on as many images
        self.check_one_call_per_dimension(spec, "eigvalsh", monkeypatch)

    @staticmethod
    def check_one_call_per_dimension(spec, solver, monkeypatch):
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        real = np.abs(s.characters.imag).max(axis=1) < 1e-9
        solved = {
            k: int(real[idx].sum()) + int((~real[idx]).sum()) // 2
            for k, idx in stack_indices(s)
        }
        rng = np.random.default_rng(21)
        for _ in range(4):
            if solver == "eigvalsh":
                d = random_voltage_graph(rng, g, max_vertices=4, max_edges=8)
                assert symmetric_lift(d)
            else:
                d = gate_missing_digraph(rng, s, max_vertices=4, max_arcs=12)
            b = vl.associated_matrix(d)
            # reference: one residual-checked eig per irrep
            values = []
            for i, k in enumerate(s.dims):
                image = vl.rho_matrix(b, irrep_matrices(s, i)[None])
                values += [complex(z) for z in vl.eig(image)[0][0]] * k
            want = cluster_spectrum(values, 1e-8)
            stacks = []

            def spy(name, solve):
                def call(a):
                    stacks.append((name, a.shape))
                    return solve(a)
                return call

            for name in ("eigvals", "eigvalsh"):
                monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
            got = vl.lift_spectrum_repr(d, s, 1e-8)
            monkeypatch.undo()
            assert sorted(stacks) == sorted(
                (solver, (solved[k], d.order * k, d.order * k)) for k in set(s.dims)
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
        for k, idx in stack_indices(s):
            assert values[k].shape == (len(idx), d.order * k)
            for q, i in enumerate(idx):
                p = int(s.conjugates[i]) - idx[0]
                if p < q:
                    assert np.array_equal(values[k][q], values[k][p].conj())
                    paired += 1
        assert paired

    @staticmethod
    def bruteforce_solver_calls(d, monkeypatch):
        """lift_spectrum_bruteforce(d) and each of its solver calls, as
        (name, matrix) for eigvals, eigvalsh and svd; every call must be
        given a float64 stack of blocks, 3-D even when it holds one."""
        called = []

        def spy(name, solver):
            def solve(a, **kwargs):
                assert a.ndim == 3 and a.dtype == np.float64, (name, a.shape, a.dtype)
                called.append((name, a))
                return solver(a, **kwargs)
            return solve

        for name in ("eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        by_brute = vl.lift_spectrum_bruteforce(d, 1e-8)
        monkeypatch.undo()
        return by_brute, called

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_bruteforce_solver_matches_repr(self, symmetric, monkeypatch):
        # the symmetric lift is one bipartite component: a loop at v1 with
        # voltage 3, not the identity, lifts to no loop
        g = vl.build_builtin_group("dihedral:4")
        rng = np.random.default_rng(8)
        d = random_voltage_digraph(rng, g, max_vertices=4, max_arcs=10)
        if symmetric:
            d = reverse_completed(d)
        by_brute, called = self.bruteforce_solver_calls(d, monkeypatch)
        assert [name for name, _ in called] == ["svd" if symmetric else "eigvals"]
        by_repr = vl.lift_spectrum_repr(d, vl.builtin_irreps(g), 1e-8)
        assert by_brute.total == d.order * g.order
        assert vl.spectra_equal(by_brute, by_repr, 1e-7).matched

    def test_one_non_bipartite_component_is_solved_whole(self, monkeypatch):
        # the symmetric lift above with a loop of voltage identity at v0,
        # and the lift of the triangle fixture over dihedral:3: each is one
        # component, not bipartite, so one eigvalsh call on a float64
        # (1, rn, rn) stack written from the arcs, and bitwise the
        # eigenvalues of one solve of the whole adjacency
        g = vl.build_builtin_group("dihedral:4")
        rng = np.random.default_rng(8)
        d = reverse_completed(random_voltage_digraph(rng, g, max_vertices=4, max_arcs=10))
        looped = vl.VoltageDigraph(g, d.vertices, d.arcs + ((0, 0, g.identity),))
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "triangle_dihedral3.json")) as f:
            triangle = vl.parse_voltage_digraph(f.read(), vl.build_builtin_group("dihedral:3"))
        for d in (looped, triangle):
            rn = d.order * d.group.order
            by_brute, called = self.bruteforce_solver_calls(d, monkeypatch)
            assert [(name, a.shape) for name, a in called] == [("eigvalsh", (1, rn, rn))]
            by_repr = vl.lift_spectrum_repr(d, vl.builtin_irreps(d.group), 1e-8)
            assert vl.spectra_equal(by_brute, by_repr, 1e-7).matched
            assert np.array_equal(spectra._lift_eigenvalues(d), lift_eigenvalues_whole(d))
        # and the stack is the one rn x rn array: on the Cayley graph of
        # dihedral:256 on r and s with a loop at every vertex (rn = 512),
        # the traced peak stays under 1.25 rn^2 * 8 bytes, which a second
        # copy, a gather or an int64 lift cast to float, would pass
        g = vl.build_builtin_group("dihedral:256")
        r, s = g.element_names.index("r^1"), g.element_names.index("r^0*s")
        d = vl.VoltageDigraph(g, ["v"], [(0, 0, r), (0, 0, int(g.inverse[r])), (0, 0, s),
                                         (0, 0, g.identity)])
        rn = g.order
        tracemalloc.start()
        by_brute, called = self.bruteforce_solver_calls(d, monkeypatch)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert [(name, a.shape) for name, a in called] == [("eigvalsh", (1, rn, rn))]
        assert by_brute.total == rn and peak <= 1.25 * rn * rn * 8, peak

    def test_acyclic_lift_is_one_zero_cluster(self):
        # arcs only run from lower to higher vertices, so every image of B is
        # strictly upper triangular and the lift is nilpotent
        g = vl.build_builtin_group("dihedral:128")
        rng = np.random.default_rng(4)
        pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        arcs = [(*pairs[i], int(rng.integers(g.order)))
                for i in rng.integers(len(pairs), size=18)]
        d = vl.VoltageDigraph(g, [f"v{i}" for i in range(6)], arcs)
        sp = vl.lift_spectrum_repr(d, vl.builtin_irreps(g))
        assert sp.entries == ((0, 1536),)

    @pytest.mark.parametrize("route, solver", [
        ("repr", "eigvals"), ("charsum", "eigvals"), ("bruteforce", "eigvals"),
        ("eigenvectors", "eig"), ("undirected repr", "eigvalsh"),
        ("undirected bruteforce", "eigvalsh"), ("undirected eigenvectors", "eigh"),
        ("bipartite bruteforce", "svd"),
    ])
    def test_solver_failure_is_a_spectrum_error(self, route, solver, k2star, d3_irreps,
                                                monkeypatch):
        def fail(m, **kwargs):
            raise np.linalg.LinAlgError("no convergence")

        # k2star's 2-dim image misses the Hermitian gate (see
        # TestSolverChoice); the triangle with every reverse is undirected,
        # and its lift is two 9-cycles, not bipartite; an edge lifts to six
        # disjoint edges, bipartite
        d3 = k2star.group
        r1, r2 = d3.element_names.index("r^1"), d3.element_names.index("r^2")
        triangle = vl.VoltageDigraph(d3, ["a", "b", "c"], [
            (0, 1, r1), (1, 0, r2), (1, 2, r1), (2, 1, r2), (2, 0, 0), (0, 2, 0)])
        edge = vl.VoltageDigraph(d3, ["a", "b"], [(0, 1, r1), (1, 0, r2)])
        assert not symmetric_lift(k2star) and symmetric_lift(triangle) and symmetric_lift(edge)
        call = {
            "repr": lambda: vl.lift_spectrum_repr(k2star, d3_irreps, 1e-7),
            "charsum": lambda: vl.lift_spectrum_charsum(
                k2star, vl.character_table(d3_irreps), 1e-7),
            "bruteforce": lambda: vl.lift_spectrum_bruteforce(k2star, 1e-7),
            "eigenvectors": lambda: vl.lift_eigenvectors(k2star, d3_irreps),
            "undirected repr": lambda: vl.lift_spectrum_repr(triangle, d3_irreps, 1e-7),
            "undirected bruteforce": lambda: vl.lift_spectrum_bruteforce(triangle, 1e-7),
            "undirected eigenvectors": lambda: vl.lift_eigenvectors(triangle, d3_irreps),
            "bipartite bruteforce": lambda: vl.lift_spectrum_bruteforce(edge, 1e-7),
        }[route]
        monkeypatch.setattr(np.linalg, solver, fail)
        with pytest.raises(SpectrumError, match="eigensolver did not converge: no convergence"):
            call()

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    @pytest.mark.parametrize("route", ["repr", "bruteforce", "charsum"])
    def test_non_finite_tol_raises(self, route, tol, k2star, d3_irreps, monkeypatch):
        # inf would cluster every eigenvalue into one entry; bruteforce must
        # refuse before it reads the lift's arcs
        def no_lift(d):
            raise AssertionError("lift read")

        monkeypatch.setattr(spectra, "_lift_arcs", no_lift)
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
        # of 0, so from 2 * 3 = 6 on any two spectra would match; bruteforce
        # must refuse before it reads the lift's arcs
        monkeypatch.setattr(spectra, "_lift_arcs", lambda d: 1 / 0)
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
        no_arcs = vl.VoltageDigraph(d3, ["u"], [])
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

    @pytest.mark.parametrize("r", [3, 17])
    def test_verify_refuses_a_character_table_of_another_group(self, r):
        # a directed r-cycle over cyclic:6 with dihedral:3's table: at r = 17,
        # r * max(dim) = 34 is past CHARSUM_HARD_CAP and charsum does not run
        g = vl.build_builtin_group("cyclic:6")
        d = vl.VoltageDigraph(
            g, [f"v{i}" for i in range(r)], [(i, (i + 1) % r, 1) for i in range(r)])
        t = vl.character_table(vl.builtin_irreps(vl.build_builtin_group("dihedral:3")))
        with pytest.raises(SpectrumError, match="different groups"):
            vl.verify(d, vl.builtin_irreps(g), t)

    @pytest.mark.parametrize("route", ["irrep_eigenvalues", "repr", "eigenvectors", "verify"])
    def test_an_unvalidated_irrep_set_raises_on_every_irrep_route(self, route, k2star, d3):
        # right shapes, wrong matrices: irrep 1 is a second trivial irrep
        # and the dim-2 irrep is all zeros. The IrrepSet constructor
        # validates and raises at the first; the same stacks in a plain
        # holder, which nothing validated, the route itself refuses
        stacks = {1: np.ones((2, d3.order, 1, 1)), 2: np.zeros((1, d3.order, 2, 2))}
        with pytest.raises(vl.RepresentationError, match=r"irrep 1 \(dim 1\): non-trivial"):
            vl.IrrepSet(d3, stacks)
        holder = SimpleNamespace(group=d3, dims=(1, 1, 2), stacks=stacks)
        message = "expected an IrrepSet, got SimpleNamespace"
        run = {
            "irrep_eigenvalues": vl.irrep_eigenvalues,
            "repr": vl.lift_spectrum_repr,
            "eigenvectors": vl.lift_eigenvectors,
            "verify": vl.verify,
        }[route]
        with pytest.raises(vl.RepresentationError, match=message):
            run(k2star, holder)

    @pytest.mark.parametrize("route", ["charsum", "verify"])
    @pytest.mark.parametrize("table", ["irrep set", "holder"])
    def test_a_table_that_is_no_character_table_raises_on_every_character_route(
            self, route, table, k2star, d3_irreps):
        # an IrrepSet has a group and dims but no rows; a plain holder of a
        # table's fields was never proven. Each is refused as a table, not
        # read until an AttributeError
        t = vl.character_table(d3_irreps)
        given = {"irrep set": d3_irreps,
                 "holder": SimpleNamespace(group=t.group, rows=t.rows, dims=t.dims)}[table]
        run = {"charsum": lambda: vl.lift_spectrum_charsum(k2star, given),
               "verify": lambda: vl.verify(k2star, d3_irreps, given)}[route]
        name = type(given).__name__
        with pytest.raises(vl.RepresentationError,
                           match=f"expected a CharacterTable, got {name}"):
            run()

    def test_irreps_of_a_rebuilt_equal_group_are_accepted(self, k2star, d3):
        g = vl.build_builtin_group("dihedral:3")
        assert g is not d3
        s = vl.builtin_irreps(g)
        assert vl.lift_spectrum_repr(k2star, s).total == 12
        assert vl.lift_spectrum_charsum(k2star, vl.character_table(s)).total == 12
        assert len(vl.lift_eigenvectors(k2star, s).pairs) > 0


class TestBruteforceComponents:
    """The brute-force route solves each weakly connected component of the
    lift alone, components of one kind and shape in one batched call:
    bitwise against one solve per component in a loop
    (lift_eigenvalues_by_component), and against one solve of the whole
    adjacency (lift_eigenvalues_whole)."""

    @staticmethod
    def solve(d, monkeypatch):
        """The lift's eigenvalues as the brute-force route computes them,
        checked against both oracles, and its svd, eigvalsh and eigvals
        calls as sorted (name, stack shape) pairs."""
        calls = []

        def spy(name, solver):
            def call(m, **kwargs):
                assert m.ndim == 3 and m.dtype == np.float64, (name, m.shape, m.dtype)
                calls.append((name, m.shape))
                return solver(m, **kwargs)
            return call

        for name in ("svd", "eigvalsh", "eigvals"):
            monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
        vals = spectra._lift_eigenvalues(d)
        monkeypatch.undo()
        assert vals.shape == (d.order * d.group.order,)
        assert np.array_equal(np.sort_complex(vals),
                              np.sort_complex(lift_eigenvalues_by_component(d)))
        if symmetric_lift(d):
            # both solvers are backward stable: each eigenvalue within
            # O(eps ||A||_2), and ||A||_2 <= ||A||_1, the largest in-degree
            assert vals.dtype == float
            tol = 1e-12 * (1 + int(d.in_degrees().max()))
            assert np.abs(np.sort(vals) - np.sort(lift_eigenvalues_whole(d))).max() <= tol
        assert vl.lift_spectrum_bruteforce(d, 1e-9) == cluster_spectrum(vals, 1e-9)
        return vals, sorted(calls)

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_reverse_completed_random_lifts(self, spec, monkeypatch):
        g = vl.build_builtin_group(spec)
        rng = np.random.default_rng(61)
        solvers = set()
        for _ in range(6):
            d = reverse_completed(random_voltage_digraph(rng, g, max_vertices=5, max_arcs=8))
            solvers.update(name for name, _ in self.solve(d, monkeypatch)[1])
        assert "svd" in solvers and "eigvals" not in solvers

    def test_a_lift_split_by_a_proper_subgroup(self, monkeypatch):
        # a 4-cycle over cyclic:12 whose voltages lie in {0, 4, 8}: its lift
        # is four 12-cycles, one per coset, each bipartite with sides of 6,
        # so one svd call solves the four 6 x 6 biadjacency blocks
        g = vl.build_builtin_group("cyclic:12")
        d = reverse_completed(vl.VoltageDigraph(
            g, ["a", "b", "c", "d"], [(0, 1, 4), (1, 2, 0), (2, 3, 8), (3, 0, 8)]))
        vals, calls = self.solve(d, monkeypatch)
        assert calls == [("svd", (4, 6, 6))]
        # the 12-cycle's spectrum 2 cos(2 pi k / 12), four times
        cycle = 2 * np.cos(2 * np.pi * np.arange(12) / 12)
        assert np.allclose(np.sort(vals), np.sort(np.tile(cycle, 4)), atol=1e-12)

    def test_a_path_has_sides_of_unequal_size(self, monkeypatch):
        # a path a - b - c lifts to n paths, each with sides {a, c} and {b}:
        # eigenvalues +sqrt 2 and -sqrt 2, and |2 - 1| = 1 zero, per copy
        g = vl.build_builtin_group("cyclic:3")
        d = reverse_completed(vl.VoltageDigraph(
            g, ["a", "b", "c"], [(0, 1, 1), (1, 2, 2)]))
        vals, calls = self.solve(d, monkeypatch)
        assert calls == [("svd", (3, 2, 1))]
        assert np.allclose(np.sort(vals), np.repeat([-np.sqrt(2), 0, np.sqrt(2)], 3),
                           atol=1e-12)

    def test_bipartite_components_of_two_shapes_make_one_call_each(self, monkeypatch):
        # the path a - b - c and an edge d - e over cyclic:3: three 2 x 1
        # blocks and three 1 x 1 blocks, and each path adds one zero to the
        # singular values' +sigma and -sigma
        g = vl.build_builtin_group("cyclic:3")
        d = reverse_completed(vl.VoltageDigraph(
            g, ["a", "b", "c", "d", "e"], [(0, 1, 1), (1, 2, 2), (3, 4, 1)]))
        vals, calls = self.solve(d, monkeypatch)
        assert calls == [("svd", (3, 1, 1)), ("svd", (3, 2, 1))]
        assert np.allclose(np.sort(vals), np.repeat([-np.sqrt(2), -1, 0, 1, np.sqrt(2)], 3),
                           atol=1e-12)

    def test_each_component_takes_its_own_solver(self, monkeypatch):
        # over cyclic:3, the edge lifts to three disjoint edges, bipartite,
        # and the triangle, of net voltage 1, to one 9-cycle, which is not:
        # the edges go to svd and the 9-cycle alone to eigvalsh, a stack
        # of one, since it is the one component of its shape
        g = vl.build_builtin_group("cyclic:3")
        d = reverse_completed(vl.VoltageDigraph(
            g, ["a", "b", "c", "d", "e"], [(0, 1, 1), (2, 3, 1), (3, 4, 0), (4, 2, 0)]))
        vals, calls = self.solve(d, monkeypatch)
        assert calls == [("eigvalsh", (1, 9, 9)), ("svd", (3, 1, 1))]
        cycle = 2 * np.cos(2 * np.pi * np.arange(9) / 9)
        assert np.allclose(np.sort(vals), np.sort([-1, -1, -1, 1, 1, 1, *cycle]), atol=1e-12)

    def test_components_of_two_sizes_and_both_kinds_make_one_call_per_shape(
            self, monkeypatch):
        # over cyclic:4: an edge a - b lifts to four edges (1 x 1 blocks),
        # the triangle c - d - e of net voltage 0 to four triangles, not
        # bipartite, and the triangle f - g - h of net voltage 2 to two
        # 6-cycles with sides of 3: three shapes, one call each
        g = vl.build_builtin_group("cyclic:4")
        d = reverse_completed(vl.VoltageDigraph(
            g, list("abcdefgh"),
            [(0, 1, 3), (2, 3, 1), (3, 4, 2), (4, 2, 1), (5, 6, 0), (6, 7, 2), (7, 5, 0)]))
        vals, calls = self.solve(d, monkeypatch)
        assert calls == [("eigvalsh", (4, 3, 3)), ("svd", (2, 3, 3)), ("svd", (4, 1, 1))]
        hexagon = 2 * np.cos(2 * np.pi * np.arange(6) / 6)
        want = [*[-1, 1] * 4, *[2, -1, -1] * 4, *hexagon, *hexagon]
        assert np.allclose(np.sort(vals), np.sort(want), atol=1e-12)

    @pytest.mark.parametrize("spec, vertices, call", [
        ("cyclic:4", ["a", "b", "c"], ("svd", (12, 1, 0))),
        ("cyclic:1", ["a"], ("svd", (1, 1, 0))),
    ])
    def test_a_digraph_with_no_arcs_lifts_to_zeros(self, spec, vertices, call, monkeypatch):
        # every lift vertex is a component of its own, bipartite with an
        # empty second side: 1 x 0 blocks, one for each, even when the
        # one vertex is the whole lift
        d = vl.VoltageDigraph(vl.build_builtin_group(spec), vertices, [])
        vals, calls = self.solve(d, monkeypatch)
        assert calls == [call]
        assert vals.tolist() == [0.0] * len(vals)

    def test_a_directed_lift_is_split_by_its_own_arcs(self, monkeypatch):
        # the directed triangle a -> b -> c -> a with identity voltages
        # lifts to four directed triangles. The double cover links only
        # a -- b', b -- c' and c -- a', so its labels would put c apart
        # from a and b, and every block would be nilpotent
        g = vl.build_builtin_group("cyclic:4")
        d = vl.VoltageDigraph(g, ["a", "b", "c"], [(0, 1, 0), (1, 2, 0), (2, 0, 0)])
        vals, calls = self.solve(d, monkeypatch)
        assert calls == [("eigvals", (4, 3, 3))]
        roots = np.exp(2j * np.pi * np.arange(3) / 3)
        assert np.allclose(np.sort_complex(vals), np.sort_complex(np.tile(roots, 4)),
                           atol=1e-12)

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_a_directed_lift_is_solved_per_component(self, spec, monkeypatch):
        # bitwise: as the per-component oracle on every draw, and, when
        # the lift is connected, as one eigvals call on the whole adjacency,
        # a stack of one.
        # A split lift is also matched one to one with the whole solve,
        # which shares no component split, within verify's 1e-7 for repr
        # against bruteforce: a defective eigenvalue of multiplicity k
        # moves by about eps^(1/k), so eigvals' backward error gives no
        # tighter bound (one dihedral:6 draw is 9e-9 apart)
        g = vl.build_builtin_group(spec)
        rng = np.random.default_rng(62)
        connected = split = 0
        for _ in range(8):
            d = random_voltage_digraph(rng, g, max_vertices=5, max_arcs=8)
            if symmetric_lift(d):
                continue
            vals, calls = self.solve(d, monkeypatch)
            assert {name for name, _ in calls} == {"eigvals"}
            whole = lift_eigenvalues_whole(d)
            label = components_bfs(len(vals), *np.nonzero(vl.build_lift(d)))
            if max(label) == 0:
                connected += 1
                assert calls == [("eigvals", (1, *vals.shape * 2))]
                assert np.array_equal(vals, whole)
            else:
                split += 1
                copies = [vl.SpectrumMultiset(tuple((complex(v), 1) for v in x))
                          for x in (vals, whole)]
                assert bottleneck_distance_loop(*copies) <= 1e-7
        assert connected and split


DATA = os.path.join(os.path.dirname(__file__), "data")
# every digraph fixture of tests/data, read over the builtin group its name
# ends in (cube_dihedral32 over dihedral:32), or over Q8's table
DIGRAPH_FIXTURES = [
    "bouquet_dihedral1000", "cayley_dihedral1500", "circ6_cyclic16", "clique4_dihedral25",
    "cube_cyclic64", "cube_dihedral32", "cycle_cyclic4096", "directed_dihedral500",
    "k2star_dihedral3", "loop_cyclic3", "parallel_dihedral4", "pendant_cycle_cyclic12",
    "q8_triangle", "split_bipartite_cyclic12", "split_directed_dihedral512",
    "triangle_dihedral3", "walks4_dihedral2048",
]


def load_fixture(name):
    if name.startswith("q8"):
        with open(os.path.join(DATA, "q8_group.json")) as f:
            g = vl.parse_group_table(f.read())
    else:
        spec = name.rsplit("_", 1)[1]
        family = spec.rstrip("0123456789")
        g = vl.build_builtin_group(f"{family}:{spec[len(family):]}")
    with open(os.path.join(DATA, f"{name}.json")) as f:
        return vl.parse_voltage_digraph(f.read(), g)


def test_the_fixture_list_is_every_digraph_in_tests_data():
    names = set()
    for entry in os.listdir(DATA):
        with open(os.path.join(DATA, entry)) as f:
            if "vertices" in json.load(f):
                names.add(entry[:-len(".json")])
    assert names == set(DIGRAPH_FIXTURES)


def fake_solvers(monkeypatch):
    """Replace eigvals, eigvalsh and svd by the row sums of the matrices
    they are given, cut to as many values as the solver returns: exact and
    cheap, so the matrices of two routes can be compared through them."""
    for name in ("eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, lambda m: m.sum(axis=-1))
    monkeypatch.setattr(np.linalg, "svd", lambda m, compute_uv: m.sum(axis=-1)[..., :min(m.shape[-2:])])


class TestBruteforceFromArcs:
    """The brute-force route reads the lift from its arc list: its exact
    symmetry test, its blocks, written from the arcs, and its admission by
    solve cost, priced from BRUTEFORCE_COST, and by BRUTEFORCE_MAX_VERTICES."""

    @pytest.mark.parametrize("name", DIGRAPH_FIXTURES)
    def test_eigenvalues_equal_the_dense_gather_bitwise(self, name, monkeypatch):
        d = load_fixture(name)
        rn = d.order * d.group.order
        if name == "walks4_dihedral2048":
            # 16384 vertices in one component, about 1500 s of eigvals
            with pytest.raises(SpectrumError, match="over the budget"):
                spectra._lift_eigenvalues(d)
            return
        if rn > 2000:
            # past 2000 vertices the solves would take seconds: the blocks
            # themselves are compared, through their row sums
            fake_solvers(monkeypatch)
        assert np.array_equal(spectra._lift_eigenvalues(d), lift_eigenvalues_gathered(d))

    def test_a_missing_reverse_arc_or_a_parallel_pair_facing_one_arc_is_not_symmetric(
            self, monkeypatch):
        # an undirected path a - b - c over dihedral:3 is symmetric; with
        # one reverse arc dropped, or with a second a -> b arc facing the
        # one b -> a, it is not, although every arc still has a reverse
        # in the second case: only the arc multiset tells
        g = vl.build_builtin_group("dihedral:3")
        r1, r2 = g.element_names.index("r^1"), g.element_names.index("r^2")
        path = [(0, 1, r1), (1, 0, r2), (1, 2, r1), (2, 1, r2)]
        cases = {
            "undirected": (path, {"svd"}),
            "a reverse arc missing": (path[:3], {"eigvals"}),
            "a parallel pair facing one arc": (path + [(0, 1, r1)], {"eigvals"}),
            "a parallel pair facing a parallel pair": (path + [(0, 1, r1), (1, 0, r2)],
                                                      {"svd"}),
        }
        for arcs, solvers in cases.values():
            d = vl.VoltageDigraph(g, ["a", "b", "c"], arcs)
            vals, calls = TestBruteforceComponents.solve(d, monkeypatch)
            assert {name for name, _ in calls} == solvers
            assert symmetric_lift(d) == (solvers == {"svd"})

    def test_a_lift_of_many_components_past_2000_vertices(self):
        # 4 vertices over dihedral:512, voltages in <r^8>: 16 components of
        # 256, so the blocks hold rn^2 / 16 entries; a dense lift, rn^2
        # entries of 8 bytes, is never made
        d = load_fixture("split_directed_dihedral512")
        rn = d.order * d.group.order
        tracemalloc.start()
        by_brute = vl.lift_spectrum_bruteforce(d)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rn == 4096 and by_brute.total == rn
        assert peak <= rn * rn * 8 / 8, peak
        reports = vl.verify(d, vl.builtin_irreps(d.group))
        assert all(report.matched for report, _ in reports.values()), reports

    @pytest.mark.parametrize("name", [
        "bouquet_dihedral1000", "circ6_cyclic16", "clique4_dihedral25", "cube_cyclic64",
        "cube_dihedral32", "directed_dihedral500", "k2star_dihedral3", "loop_cyclic3",
        "parallel_dihedral4", "pendant_cycle_cyclic12", "q8_triangle",
        "split_directed_dihedral512", "triangle_dihedral3",
    ])
    def test_a_connected_base_lifts_to_components_of_one_shape(self, name, monkeypatch):
        # left translation by G permutes the lift's components
        # transitively (Gross and Tucker, Topological Graph Theory, ch. 2):
        # one shape, one solver call, and every eigenvalue of one component
        # is one of each, so every multiplicity is a multiple of their count
        d = load_fixture(name)
        u, v, _ = d.arc_array.T
        assert set(components_bfs(d.order, u, v)) == {0}
        tails, heads = (x.ravel() for x in voltage._lift_arcs(d))
        c = len(set(components_bfs(d.order * d.group.order, tails, heads)))
        by_brute, called = TestSpectrumRoutes.bruteforce_solver_calls(d, monkeypatch)
        assert len(called) == 1
        (_, m), = called
        assert len(m) == c
        assert all(mult % c == 0 for _, mult in by_brute.entries), (c, by_brute)
        if name == "split_directed_dihedral512":
            assert c == 16

    @staticmethod
    def cycle(n, undirected=False):
        """A loop g^1 over cyclic:n, and its reverse g^-1 if undirected: the
        lift is the n-cycle, connected, and bipartite when undirected and n
        is even."""
        g = vl.build_builtin_group(f"cyclic:{n}")
        arcs = [(0, 0, 1)] + ([(0, 0, int(g.inverse[1]))] if undirected else [])
        return vl.VoltageDigraph(g, ["v"], arcs)

    def test_a_connected_directed_lift_of_2000_vertices_costs_the_budget(self, monkeypatch):
        # eigvals at 2000 is the budget itself, and is admitted; one vertex
        # more is refused before any solver runs, with the cost and the
        # budget named
        calls = []

        def solve(m):
            calls.append(m.shape)
            return np.zeros(m.shape[:-1], dtype=complex)

        monkeypatch.setattr(np.linalg, "eigvals", solve)
        assert spectra._block_cost("eigvals", np.array([2000.0])).tolist() == [1.0]
        assert vl.lift_spectrum_bruteforce(self.cycle(2000)).entries == ((0, 2000),)
        assert calls == [(1, 2000, 2000)]
        cost = (2001 / 2000) ** 3
        with pytest.raises(SpectrumError, match=re.escape(
                f"2001-vertex lift costs as much as {cost:.6g} eigvals solves of 2000 "
                "vertices, over the budget of one")):
            vl.lift_spectrum_bruteforce(self.cycle(2001))
        assert calls == [(1, 2000, 2000)]

    def test_a_bipartite_lift_is_priced_by_its_singular_values(self, monkeypatch):
        # the undirected 2n-cycle, sides of n: svd at n = 2000 costs 0.84
        # eigvals solves of 2000 vertices, and (n / 2000)^3 times that past
        # it, so n = 2119 is admitted and n = 2120 refused, before any
        # solver runs. The undirected 4096-cycle over cyclic:4096 (n = 2048) fits
        def no_solve(m, **kwargs):
            raise AssertionError("solver called")

        for name in ("eigvals", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, no_solve)
        for n, admitted in ((2048, True), (2119, True), (2120, False)):
            g = vl.build_builtin_group(f"cyclic:{n}")
            d = vl.VoltageDigraph(g, ["a", "b"], [(0, 1, 0), (1, 0, 0), (0, 1, 1),
                                                  (1, 0, int(g.inverse[1]))])
            with pytest.raises((AssertionError if admitted else SpectrumError),
                               match="solver called" if admitted else "over the budget"):
                spectra._lift_eigenvalues(d)

    def test_every_lift_of_at_most_2000_vertices_is_admitted(self):
        # no block of any kind costs more per vertex than the eigvals solve
        # of 2000 vertices, 1/2000, so blocks of 2000 vertices in all cost
        # at most one such solve (a p x q biadjacency block is priced at a
        # size of at most p + q). Between the measured sizes the cost is
        # interpolated in log-log: at 362, about sqrt(256 * 512), it is
        # about the geometric mean of the costs at 256 and 512
        sizes = np.arange(1, 2001, dtype=float)
        for kind, table in spectra.BRUTEFORCE_COST.items():
            cost = spectra._block_cost(kind, sizes)
            assert (cost <= sizes / 2000).all(), kind
            assert (np.diff(cost / sizes) >= 0).all(), kind
            at = spectra.BRUTEFORCE_SIZES.index(256)
            mid = spectra._block_cost(kind, np.array([np.sqrt(256 * 512)]))[0]
            assert mid == pytest.approx(np.sqrt(table[at] * table[at + 1]))
        # 1000 directed edges a -> b, each a 2-vertex component
        g = vl.build_builtin_group("cyclic:1000")
        d = vl.VoltageDigraph(g, ["a", "b"], [(0, 1, 0)])
        assert vl.lift_spectrum_bruteforce(d).entries == ((0, 2000),)

    def test_a_lift_past_the_vertex_ceiling_is_refused_before_its_arcs_are_read(
            self, monkeypatch):
        # base vertices with no arcs over cyclic:4096 lift to isolated
        # vertices, 1 x 0 biadjacency blocks that cost next to nothing: 61
        # of them (249856 lift vertices) are admitted, with a traced peak
        # under one 2000 x 2000 float64 matrix, and 62 (253952) are refused
        # before the arcs are read or the components labelled
        g = vl.build_builtin_group("cyclic:4096")
        d = vl.VoltageDigraph(g, [f"v{i}" for i in range(61)], [])
        tracemalloc.start()
        vals = spectra._lift_eigenvalues(d)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert vals.shape == (249856,) and not vals.any()
        assert peak <= 2000 * 2000 * 8, peak

        def no_work(*args):
            raise AssertionError("lift read")

        monkeypatch.setattr(spectra, "_lift_arcs", no_work)
        monkeypatch.setattr(spectra, "connected_components", no_work)
        d = vl.VoltageDigraph(g, [f"v{i}" for i in range(62)], [])
        with pytest.raises(SpectrumError, match=re.escape(
                "the 253952-vertex lift is past the brute-force route's ceiling of 250000 "
                "vertices")):
            vl.lift_spectrum_bruteforce(d)

    def test_verify_refuses_an_over_budget_lift_before_any_irrep_image(self, monkeypatch):
        # verify runs the oracle before the irrep route, so a lift the
        # oracle refuses costs no irrep image: 251 isolated vertices over
        # cyclic:1000 (251000 lift vertices, past the ceiling) and the
        # directed 40-cycle with one arc of voltage g^1 (one component of
        # 40000 vertices, past the budget)
        g = vl.build_builtin_group("cyclic:1000")
        s = vl.builtin_irreps(g)

        def no_images(*args):
            raise AssertionError("irrep images made")

        monkeypatch.setattr(spectra, "irrep_eigenvalues", no_images)
        isolated = vl.VoltageDigraph(g, [f"v{i}" for i in range(251)], [])
        cycle = vl.VoltageDigraph(g, [f"v{i}" for i in range(40)],
                                  [(i, (i + 1) % 40, int(i == 0)) for i in range(40)])
        for d, refusal in ((isolated, "past the brute-force route's ceiling"),
                           (cycle, "over the budget of one")):
            with pytest.raises(SpectrumError, match=refusal):
                vl.verify(d, s)

    @pytest.mark.parametrize("name", ["cube_cyclic64", "k2star_dihedral3", None],
                             ids=["cyclic", "dihedral", "product"])
    def test_verify_without_irreps_reads_the_builtin_ones(self, name):
        # the same reports, matched, worst distance and details, as when
        # the builtin set is given
        if name is None:
            g = vl.build_builtin_group("product:cyclic:2,dihedral:3")
            d = vl.VoltageDigraph(g, ["a", "b", "c"],
                                  [(0, 1, 1), (1, 2, 5), (2, 0, 3), (0, 0, 7), (1, 0, 10)])
        else:
            d = load_fixture(name)
        want = vl.verify(d, vl.builtin_irreps(d.group))
        assert list(want) == ["repr vs bruteforce", "charsum vs repr"]
        assert vl.verify(d) == want

    def test_verify_refuses_a_document_group_without_irreps_before_the_oracle(
            self, monkeypatch):
        def no_oracle(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(spectra, "_lift_eigenvalues", no_oracle)
        d = load_fixture("q8_triangle")
        with pytest.raises(vl.RepresentationError, match=re.escape(
                "unsupported builtin family None; supply irreps via load_irreps")):
            vl.verify(d)

SOLVERS = ("eigvals", "eigvalsh", "eig", "eigh")


def gate_missing_digraph(rng, s, **draw):
    """A random_voltage_digraph over s's group, drawn again until every
    irrep image M has ||M - M^H||_F > 1e-3 ||M||_F, far past the Hermitian
    gate. Such a digraph is directed; the converse fails, since an image of
    a directed digraph can be Hermitian (a 1 x 1 real one always is)."""
    while True:
        d = random_voltage_digraph(rng, s.group, **draw)
        b = vl.associated_matrix(d)
        images = [vl.rho_matrix(b, stack) for stack in s.stacks.values()]
        if all(np.all(np.linalg.norm(m - m.conj().swapaxes(1, 2), axis=(1, 2))
                      > 1e-3 * np.linalg.norm(m, axis=(1, 2))) for m in images):
            return d


@pytest.fixture
def solver_calls(monkeypatch):
    """Every call of numpy's four dense eigensolvers, as (name, stack shape)."""
    calls = []

    def spy(name, solve):
        def call(a):
            calls.append((name, a.shape))
            return solve(a)
        return call

    for name in SOLVERS:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


class TestSolverChoice:
    """Which solver the repr and eigenvector routes give each irrep image:
    the Hermitian one exactly when the image is Hermitian up to rounding,
    whatever the digraph."""

    @staticmethod
    def solve_both_routes(d, s, calls):
        # the solver calls of irrep_eigenvalues and of lift_eigenvectors;
        # repr must match bruteforce whichever solvers ran. A directed lift
        # can be defective, and both routes smear a k-fold defective
        # eigenvalue by about eps^(1/k), so it is matched more loosely
        calls.clear()
        values = vl.irrep_eigenvalues(d, s)
        by_values = list(calls)
        calls.clear()
        vectors = vl.lift_eigenvectors(d, s)
        by_vectors = list(calls)
        by_repr = spectra.spectrum_from_irrep_eigenvalues(values, 1e-8)
        tol = 1e-7 if symmetric_lift(d) else 1e-3
        assert vl.spectra_equal(by_repr, vl.lift_spectrum_bruteforce(d, 1e-8), tol).matched
        return by_values, by_vectors, vectors

    @staticmethod
    def per_dimension(s, d, name, count=None):
        # one call of the named solver per irrep dimension, on `count`
        # images of that dimension (all of them if None)
        counts = count or {k: s.dims.count(k) for k in set(s.dims)}
        return sorted((name, (counts[k], d.order * k, d.order * k)) for k in counts)

    @pytest.mark.parametrize("spec", ["dihedral:4", "cyclic:12", "product:cyclic:3,dihedral:4",
                                      "dihedral:32"])
    def test_undirected_builtin_lifts_take_the_hermitian_solver(self, spec, solver_calls):
        # cyclic:12 pairs conjugate characters: only one irrep of each pair
        # is solved in the repr route, and all of them for eigenvectors
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        solved = {k: int((s.conjugates[idx] >= idx).sum()) for k, idx in stack_indices(s)}
        rng = np.random.default_rng(51)
        for _ in range(4):
            d = random_voltage_graph(rng, g, max_vertices=5, max_edges=9)
            assert symmetric_lift(d)
            by_values, by_vectors, vectors = self.solve_both_routes(d, s, solver_calls)
            assert sorted(by_values) == self.per_dimension(s, d, "eigvalsh", solved)
            assert sorted(by_vectors) == self.per_dimension(s, d, "eigh")
            assert not vectors.skipped_irreps
            assert all(mu.imag == 0 for mu, _ in vectors.pairs)

    @pytest.mark.parametrize("spec", ["dihedral:4", "cyclic:12", "product:cyclic:3,dihedral:4"])
    def test_directed_digraphs_take_the_general_solver(self, spec, solver_calls):
        # directed digraphs whose every image misses the gate
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        solved = {k: int((s.conjugates[idx] >= idx).sum()) for k, idx in stack_indices(s)}
        rng = np.random.default_rng(52)
        for _ in range(4):
            d = gate_missing_digraph(rng, s, max_vertices=5, max_arcs=12)
            by_values, by_vectors, _ = self.solve_both_routes(d, s, solver_calls)
            assert sorted(by_values) == self.per_dimension(s, d, "eigvals", solved)
            assert sorted(by_vectors) == self.per_dimension(s, d, "eig")

    def test_a_missing_reverse_arc_takes_the_general_solver(self, solver_calls):
        # the cube over dihedral:4 with one arc dropped: every image lacks
        # one term rho(x^-1) of its Hermitian form and misses the gate
        g = vl.build_builtin_group("dihedral:4")
        s = vl.builtin_irreps(g)
        rng = np.random.default_rng(53)
        arcs = []
        for u, v in [(u, u ^ bit) for bit in (1, 2, 4) for u in range(8) if u < u ^ bit]:
            x = int(rng.integers(g.order))
            arcs += [(u, v, x), (v, u, int(g.inverse[x]))]
        names = [f"v{i}" for i in range(8)]
        assert symmetric_lift(vl.VoltageDigraph(g, names, arcs))
        d = vl.VoltageDigraph(g, names, arcs[:-1])
        assert not symmetric_lift(d)
        by_values, by_vectors, _ = self.solve_both_routes(d, s, solver_calls)
        assert sorted(by_values) == self.per_dimension(s, d, "eigvals")
        assert sorted(by_vectors) == self.per_dimension(s, d, "eig")

    def test_a_directed_digraph_sends_each_image_to_its_own_solver(
            self, k2star, d3_irreps, solver_calls):
        # k2star is directed: its arc a -> b with voltage r^1 has a reverse
        # with r^1, not r^2. Its images under the two 1-dim irreps are real
        # symmetric all the same and pass the gate; the 2-dim image misses it
        assert not symmetric_lift(k2star)
        by_values, by_vectors, vectors = self.solve_both_routes(k2star, d3_irreps, solver_calls)
        assert sorted(by_values) == [("eigvals", (1, 4, 4)), ("eigvalsh", (2, 2, 2))]
        assert sorted(by_vectors) == [("eig", (1, 4, 4)), ("eigh", (2, 2, 2))]
        assert not vectors.skipped_irreps
        # the first four pairs are the 1-dim irreps', from eigh
        assert all(mu.imag == 0 for mu, _ in vectors.pairs[:4])

    def test_a_non_unitary_loaded_irrep_takes_the_general_solver(self, d3, solver_calls):
        # the 2-dim irrep conjugated by P, as in
        # TestLiftEigenvectors::test_loaded_non_unitary_irrep_vectors_are_bounded_below:
        # its images are far from Hermitian, the 1-dim images stay Hermitian
        s = vl.builtin_irreps(d3)
        p = np.array([[1.0, 5.0], [0.0, 1.0]])
        loaded = replaced(s, 2, p @ irrep_matrices(s, 2) @ np.linalg.inv(p))
        rng = np.random.default_rng(54)
        for _ in range(4):
            d = random_voltage_graph(rng, d3, max_vertices=4, max_edges=8)
            r = d.order
            by_values, by_vectors, _ = self.solve_both_routes(d, loaded, solver_calls)
            assert sorted(by_values) == [("eigvals", (1, 2 * r, 2 * r)), ("eigvalsh", (2, r, r))]
            assert sorted(by_vectors) == [("eig", (1, 2 * r, 2 * r)), ("eigh", (2, r, r))]

    @pytest.mark.parametrize("spec", GROUP_POOL_SPECS)
    def test_eigenvalues_match_the_general_solver(self, spec):
        # per image, the repr and eigenvector routes against numpy's general
        # solvers, clustered and matched at the default tolerance; the
        # undirected digraphs have parallel arcs and loops, so some images
        # cancel and take the general solver too
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        rng = np.random.default_rng(55)
        for t in range(8):
            d = random_voltage_digraph(rng, g, max_vertices=5, max_arcs=10)
            if t % 2:
                arcs = d.arcs + tuple((v, u, int(g.inverse[x])) for u, v, x in d.arcs)
                d = vl.VoltageDigraph(g, d.vertices, arcs)
            tol = spectra._checked_cluster_tol(d, None)
            values = vl.irrep_eigenvalues(d, s)
            vectors = vl.lift_eigenvectors(d, s)
            mus = iter(mu for mu, _ in vectors.pairs)
            b = vl.associated_matrix(d)
            for i, k in enumerate(s.dims):
                # the complex128 image: on a float64 one, eigvals would split
                # a defective eigenvalue differently from the route's solver
                image = vl.rho_matrix(b, irrep_matrices(s, i)[None])[0].astype(complex)
                checks = [(values[k][s.dims[:i].count(k)], np.linalg.eigvals(image))]
                if i not in vectors.skipped_irreps:
                    # r * k eigencolumns of k slots each, slot-minor
                    mu = [next(mus) for _ in range(d.order * k * k)][::k]
                    checks.append((mu, np.linalg.eig(image)[0]))
                for got, want in checks:
                    got, want = cluster_spectrum(got, tol), cluster_spectrum(want, tol)
                    assert vl.spectra_equal(got, want, tol).matched, (spec, t, i)


@pytest.fixture
def solver_dtypes(monkeypatch):
    """Every call of numpy's four dense eigensolvers, as (name, input
    dtype, number of matrices)."""
    calls = []

    def spy(name, solve):
        def call(a):
            calls.append((name, a.dtype, len(a)))
            return solve(a)
        return call

    for name in SOLVERS:
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


class TestRealStacks:
    """A float64 stack, one with no nonzero imaginary part, is built,
    solved by eigvalsh and eigh and written in float64; a complex stack,
    and every image that misses the Hermitian gate, reach the solvers as
    complex128."""

    @pytest.mark.parametrize("spec", ["dihedral:5", "product:dihedral:3,dihedral:4", "cyclic:12"])
    def test_each_solver_gets_the_dtype_of_its_path(self, spec, solver_dtypes):
        # the dihedral groups' stacks are all real and cyclic:12's all
        # complex; directed and undirected draws reach all four solvers
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        real = spec != "cyclic:12"
        assert {stack.dtype for stack in s.stacks.values()} == {np.dtype(float if real else complex)}
        rng = np.random.default_rng(56)
        for t in range(6):
            d = random_voltage_digraph(rng, g, max_vertices=4, max_arcs=10)
            d = reverse_completed(d) if t % 2 else d
            vl.irrep_eigenvalues(d, s)
            vl.lift_eigenvectors(d, s)
        assert {name for name, _, _ in solver_dtypes} == set(SOLVERS)
        for name, dtype, _ in solver_dtypes:
            hermitian_path = name in ("eigvalsh", "eigh")
            assert dtype == (np.float64 if real and hermitian_path else np.complex128), name

    def test_realness_is_exact(self, solver_dtypes):
        # an undirected voltage graph over dihedral:3, whose every image
        # passes the gate: a 2-dim stack with one imaginary part of 5e-324
        # is solved as complex128, and with imaginary parts of -0.0 as
        # float64; the 1-dim stack (2 irreps) is real in both
        tiny = d3_with_one_imaginary_part()
        zero = with_negative_zero_imaginary_parts(tiny)
        d = random_voltage_graph(np.random.default_rng(57), tiny.group, max_vertices=4)
        by_repr = []
        for s, two in ((tiny, np.complex128), (zero, np.float64)):
            solver_dtypes.clear()
            by_repr.append(vl.lift_spectrum_repr(d, s, 1e-8))
            result = vl.lift_eigenvectors(d, s)
            assert sorted(solver_dtypes, key=lambda c: (c[0], -c[2])) == [
                ("eigh", np.float64, 2), ("eigh", two, 1),
                ("eigvalsh", np.float64, 2), ("eigvalsh", two, 1)]
            assert not result.skipped_irreps
            assert {w.dtype for _, w in result.pairs} == {np.dtype(np.float64), np.dtype(two)}
        assert vl.spectra_equal(*by_repr, 1e-12).matched

    @pytest.mark.parametrize("spec", ["dihedral:4", "dihedral:5", "product:dihedral:3,dihedral:4"])
    def test_gate_missing_images_get_the_complex_solvers_results_bitwise(self, spec):
        # directed draws over float64 stacks: the float64 image misses the
        # gate exactly when the complex128 one does, and each that misses
        # gets the eigenvalues (and eig's vectors) of the complex image, to
        # the bit
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        rng = np.random.default_rng(58)
        missed = 0
        for _ in range(6):
            d = random_voltage_digraph(rng, g, max_vertices=4, max_arcs=10)
            b = vl.associated_matrix(d)
            values = vl.irrep_eigenvalues(d, s)
            for k, stack in s.stacks.items():
                assert stack.dtype == float
                images = vl.rho_matrix(b, stack.astype(complex))
                miss = ~spectra._hermitian(images)
                hermitian, vals, vecs, *_ = spectra._eig(vl.rho_matrix(b, stack))
                assert np.array_equal(hermitian, ~miss)
                if miss.any():
                    missed += int(miss.sum())
                    want = np.linalg.eigvals(images[miss])
                    assert values[k][miss].tobytes() == want.tobytes()
                    want_vals, want_vecs = np.linalg.eig(images[miss])
                    assert vals[miss].tobytes() == want_vals.tobytes()
                    assert vecs[miss].tobytes() == want_vecs.tobytes()
        assert missed >= 10

    def test_undirected_dihedral_lifts_give_float64_vectors(self, k2star, d3_irreps):
        g = vl.build_builtin_group("dihedral:5")
        s = vl.builtin_irreps(g)
        rng = np.random.default_rng(59)
        for _ in range(3):
            d = random_voltage_graph(rng, g, max_vertices=4)
            result = vl.lift_eigenvectors(d, s)
            assert len(result.pairs) == d.order * g.order
            assert all(w.dtype == np.float64 for _, w in result.pairs)
        # directed k2star: its 1-dim images pass the gate and its 2-dim
        # image misses it, so 2 * 2 real pairs, then 4 * 2 complex ones
        result = vl.lift_eigenvectors(k2star, d3_irreps)
        assert [w.dtype for _, w in result.pairs] == [np.float64] * 4 + [np.complex128] * 8

    def test_eig_returns_float64_vectors_only_when_every_matrix_passes(self):
        sym = np.array([[2.0, 1.0], [1.0, -1.0]])
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        for stack, dtype in ((np.array([sym, 3 * sym]), np.float64),
                             (np.array([sym, rot]), np.complex128),
                             (np.array([sym, sym]).astype(complex), np.complex128)):
            vals, vecs, res, bound = vl.eig(stack)
            assert vals.dtype == np.complex128 and vecs.dtype == dtype
            assert np.all(res <= bound[:, None])


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
        d = vl.VoltageDigraph(g, ["a", "b"], [(0, 1, 0), (1, 0, 0), (0, 0, 0)])
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

    @pytest.mark.parametrize("shape", [(0,), (3, 0)])
    def test_degree_zero(self, shape):
        with pytest.raises(SpectrumError, match="degree must be >= 1"):
            vl.roots_from_power_sums(np.zeros(shape))

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
                d = vl.VoltageDigraph(g, d.vertices, arcs)
            self.assert_matches_loop(d, s)

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_matches_per_irrep_loop_on_hermitian_images(self, spec):
        # undirected voltage graphs, whose every image goes to eigh: one
        # batched call per dimension against one call per image
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        rng = np.random.default_rng(32)
        for _ in range(4):
            self.assert_matches_loop(random_voltage_graph(rng, g, max_vertices=5), s)

    @staticmethod
    def assert_matches_loop(d, s):
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
    def pair_dims(d, s, result):
        # the irrep dimension behind each pair: r * dim^2 pairs per kept irrep
        return [k for i, k in enumerate(s.dims) if i not in result.skipped_irreps
                for _ in range(d.order * k * k)]

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_builtin_vectors_have_norm_sqrt_n_over_dim(self, spec):
        # the builtin irreps are unitary and eig returns unit columns x, so
        # by Schur orthogonality every lift vector has norm sqrt(n / dim)
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        rng = np.random.default_rng(41)
        for t in range(8):
            d = random_voltage_digraph(rng, g, max_vertices=5, max_arcs=12)
            if t % 2:
                arcs = d.arcs + tuple((v, u, int(g.inverse[x])) for u, v, x in d.arcs)
                d = vl.VoltageDigraph(g, d.vertices, arcs)
            result = vl.lift_eigenvectors(d, s)
            assert result.zero_vectors_excluded == 0
            dims = self.pair_dims(d, s, result)
            assert len(dims) == len(result.pairs)
            for (_, w), k in zip(result.pairs, dims):
                want = np.sqrt(g.order / k)
                assert abs(np.linalg.norm(w) - want) <= 1e-12 * want

    def test_loaded_non_unitary_irrep_vectors_are_bounded_below(self, d3):
        # the 2-dim irrep conjugated by P: no vector is shorter than
        # sqrt(n / dim) / cond(P), so none is zero
        s = vl.builtin_irreps(d3)
        p = np.array([[1.0, 5.0], [0.0, 1.0]])
        loaded = replaced(s, 2, p @ irrep_matrices(s, 2) @ np.linalg.inv(p))  # validates
        cond = np.linalg.cond(p)
        rng = np.random.default_rng(43)
        for _ in range(12):
            d = random_voltage_digraph(rng, d3, max_vertices=4, max_arcs=10)
            result = vl.lift_eigenvectors(d, loaded)
            assert result.zero_vectors_excluded == 0
            assert self.accounted(d, loaded, result) == d.order * d3.order
            a = vl.build_lift(d).astype(float)
            bound = 1e-8 * (1 + np.linalg.norm(a, 2))
            for (mu, w), k in zip(result.pairs, self.pair_dims(d, loaded, result)):
                norm = np.linalg.norm(w)
                assert norm >= np.sqrt(d3.order / k) / cond
                assert np.linalg.norm(a @ w - mu * w) <= bound * norm

    def test_validation_bounds_the_conditioning_of_a_loaded_irrep(self, d3):
        # conjugating by a P of cond ~1e4 breaks the homomorphism check, so
        # a loaded set that validates cannot make lift vectors vanish
        s = vl.builtin_irreps(d3)
        p = np.array([[1.0, 100.0], [0.0, 1.0]])
        mats = p @ irrep_matrices(s, 2) @ np.linalg.inv(p)
        with pytest.raises(vl.RepresentationError, match="not a homomorphism"):
            reps.validate_irrep_set(unvalidated(s, 2, mats))
        with pytest.raises(vl.RepresentationError, match="not a homomorphism"):
            replaced(s, 2, mats)

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
        d = vl.VoltageDigraph(g, ["a", "b", "c"], [(0, 1, 3), (1, 2, 6)])
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
        d = vl.VoltageDigraph(
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

    def test_condition_number_only_of_general_solver_images(self, monkeypatch):
        # the same loops: the four 1 x 1 images are real, so eigh solves
        # them, and the defective 2-dim image goes to the general solver.
        # Only its eigenvector matrix gets a condition number, and it is
        # still skipped for it
        g = vl.build_builtin_group("dihedral:4")
        s = vl.builtin_irreps(g)
        names = g.element_names
        d = vl.VoltageDigraph(
            g, ["v"], [(0, 0, names.index("r^1")), (0, 0, names.index("r^1*s"))])
        seen, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda m: seen.append(m.shape) or cond(m))
        result = vl.lift_eigenvectors(d, s)
        assert seen == [(1, 2, 2)]
        assert result.skipped_irreps == tuple(i for i, k in enumerate(s.dims) if k == 2)
        assert [why.split()[0] for why in result.skip_reasons] == ["cond"]

    @pytest.mark.parametrize("spec", ["dihedral:5", "product:cyclic:2,dihedral:3"])
    def test_eigh_images_never_report_a_condition_number(self, spec, monkeypatch):
        # every image of an undirected voltage graph goes to eigh, whose
        # basis is unitary, so none gets a condition number: even a limit
        # of 1, which a computed condition number of a unitary matrix
        # misses by rounding, skips none
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        monkeypatch.setattr(spectra, "DEFECTIVE_COND_LIMIT", 1.0)
        seen, cond = [], np.linalg.cond
        monkeypatch.setattr(np.linalg, "cond", lambda m: seen.append(m.shape) or cond(m))
        rng = np.random.default_rng(44)
        for _ in range(4):
            d = random_voltage_graph(rng, g, max_vertices=5)
            result = vl.lift_eigenvectors(d, s)
            assert seen == []
            assert result.skipped_irreps == () and result.skip_reasons == ()
            assert len(result.pairs) == d.order * g.order

    def test_residual_branch_reports_residual_and_bound(self, k2star, d3_irreps, monkeypatch):
        # a bound far below rounding error fails every residual test. With
        # its arc b -> a of voltage r^1 dropped, no image of k2star is
        # Hermitian, so every image goes to the general solver, whose
        # residuals are not 0; a Hermitian image's eigh residuals can be
        # exactly 0
        d = vl.VoltageDigraph(k2star.group, k2star.vertices, k2star.arcs[:-1])
        b = vl.associated_matrix(d)
        for stack in d3_irreps.stacks.values():
            assert not spectra._hermitian(vl.rho_matrix(b, stack)).any()
        monkeypatch.setattr(spectra, "EIG_RESIDUAL_FACTOR", 1e-30)
        result = vl.lift_eigenvectors(d, d3_irreps)
        assert result.skipped_irreps == (0, 1, 2)
        assert self.accounted(d, d3_irreps, result) == 12
        for why in result.skip_reasons:
            match = re.fullmatch(r"residual (\S+) > bound (\S+)", why)
            assert match, why
            assert float(match[1]) > float(match[2])
        assert lift_eigenvectors_loop(d, d3_irreps).skipped_irreps == (0, 1, 2)

    def test_one_column_past_the_residual_bound_skips_its_irrep(
            self, k2star, d3_irreps, monkeypatch):
        # the general solver's worst residual over random images is about
        # 4e-10 * (1 + ||M||), and the bound is 1e-8 * (1 + ||M||). One
        # eigenvector column of the 2-dim image, moved off its eigenvector
        # until its residual is 1e-6 * (1 + ||M||), between the two, must
        # fail the bound: that irrep alone is skipped, for its residual,
        # where a bound 10^4 times looser would keep it
        d = vl.VoltageDigraph(k2star.group, k2star.vertices, k2star.arcs[:-1])
        two = d3_irreps.dims.index(2)
        assert vl.lift_eigenvectors(d, d3_irreps).skipped_irreps == ()
        solve, target = spectra._solve, []

        def perturbed(solver, m, **kwargs):
            vals, vecs = solve(solver, m, **kwargs)
            if solver is np.linalg.eig and m.shape == (1, 4, 4):
                # v + eps e_0 has residual eps ||(M - lambda) e_0|| up to rounding
                shift = m[0] - vals[0, 0] * np.eye(4)
                target.append(1e-6 * (1 + np.linalg.norm(m[0], 2)))
                vecs = vecs.copy()
                vecs[0, 0, 0] += target[0] / np.linalg.norm(shift[:, 0])
            return vals, vecs

        monkeypatch.setattr(spectra, "_solve", perturbed)
        result = vl.lift_eigenvectors(d, d3_irreps)
        assert len(target) == 1
        assert result.skipped_irreps == (two,)
        assert self.accounted(d, d3_irreps, result) == 12
        match = re.fullmatch(r"residual (\S+) > bound (\S+)", result.skip_reasons[0])
        assert match, result.skip_reasons
        residual, bound = float(match[1]), float(match[2])
        assert 0.5 * target[0] < residual < 2 * target[0]
        assert bound == pytest.approx(1e-8 / 1e-6 * target[0], rel=5e-2)  # printed to 2 digits


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

import json
import os
import re
import tracemalloc
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltlift as vl
from voltlift import voltage
from voltlift.cli import run
from voltlift.groups import short_repr
from voltlift.voltage import VoltageError

from conftest import GROUP_POOL_SPECS, K2STAR_DOC, random_voltage_digraph, term_cases
from oracles import (
    algebra_matmul_loop,
    algebra_matrix_power_loop,
    algebra_trace_powers_loop,
)

CUBE_PATH = os.path.join(os.path.dirname(__file__), "data", "cube_dihedral32.json")
# three vertices over dihedral:4, each column of B two nonzeros, two of them
# parallel arcs: coefficients 2 and 3
PARALLEL_PATH = os.path.join(os.path.dirname(__file__), "data", "parallel_dihedral4.json")
K2STAR_PATH = os.path.join(os.path.dirname(__file__), "data", "k2star_dihedral3.json")


def naive_convolution(a, b, group):
    # independent second route: dict accumulation instead of the library loop
    acc = {}
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            k = int(group.mul[i, j])
            acc[k] = acc.get(k, 0) + ai * bj
    return tuple(acc.get(k, 0) for k in range(group.order))


def elem(group, terms):
    coeffs = [0] * group.order
    for name, c in terms.items():
        coeffs[group.index_of(name)] += c
    return np.array(coeffs, dtype=object)


class TestParseVoltageDigraph:
    def test_k2star(self, d3, k2star):
        assert k2star.order == 2
        assert len(k2star.arcs) == 6

    def test_single_vertex_no_arcs(self, d3):
        d = vl.parse_voltage_digraph({"vertices": ["a"], "arcs": []}, d3)
        b = vl.associated_matrix(d)
        assert not np.any(b[0, 0])

    def test_unknown_vertex(self, d3):
        doc = {
            "vertices": ["a", "b"],
            "arcs": [{"from": "a", "to": "c", "voltage": "r^0"}],
        }
        with pytest.raises(VoltageError, match="unknown vertex"):
            vl.parse_voltage_digraph(doc, d3)

    def test_unknown_voltage(self, d3):
        doc = {
            "vertices": ["a"],
            "arcs": [{"from": "a", "to": "a", "voltage": "nope"}],
        }
        with pytest.raises(VoltageError, match="unknown voltage"):
            vl.parse_voltage_digraph(doc, d3)

    def test_empty_vertices(self, d3):
        with pytest.raises(VoltageError, match="empty"):
            vl.parse_voltage_digraph({"vertices": [], "arcs": []}, d3)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"vertices": "ab", "arcs": []},
            {"vertices": ["a"], "arcs": {}},
            {"vertices": ["a"], "arcs": [["a", "a", "r^0"]]},
            {"vertices": ["a"], "arcs": [{"from": "a", "to": "a"}]},
            {"vertices": ["a"], "arcs": [{"from": ["a"], "to": "a", "voltage": "r^0"}]},
        ],
    )
    def test_malformed_document(self, d3, doc):
        with pytest.raises(VoltageError):
            vl.parse_voltage_digraph(doc, d3)

    def test_refuses_a_group_that_is_no_group_table(self):
        # the group is checked before the document is read
        with pytest.raises(VoltageError, match="expected a GroupTable, got str"):
            vl.parse_voltage_digraph(K2STAR_DOC, "dihedral:3")


class TestMakeVoltageDigraph:
    # a float would be truncated, a bool taken as 0 or 1, a string or a
    # wrong length would raise a bare TypeError or ValueError
    @pytest.mark.parametrize("arc", [
        (0, 1.5, 0), (0, 1, 2.9), (0, 1, True), (np.True_, 1, 0), (0, 1, np.float64(2)),
        ("0", 1, 0), (0, 1), (0, 1, 0, 0), "012", 5, None,
    ])
    def test_rejects_an_arc_that_is_not_three_integers(self, d3, arc):
        message = f"arc {short_repr(arc)} is not three integers"
        with pytest.raises(VoltageError, match=re.escape(message)):
            vl.VoltageDigraph(d3, ["a", "b"], [(0, 0, 0), arc])

    @pytest.mark.parametrize("arc", [
        (0, 1, 2), [0, 1, 2], (np.int64(0), np.uint8(1), np.int32(2)), np.array([0, 1, 2]),
    ])
    def test_accepts_python_and_numpy_integers(self, d3, arc):
        d = vl.VoltageDigraph(d3, ["a", "b"], [arc])
        assert d.arcs == ((0, 1, 2),) and all(type(e) is int for e in d.arcs[0])

    def test_arc_array_is_derived_and_read_only(self, d3, k2star):
        assert k2star.arc_array.dtype == np.int64
        assert k2star.arc_array.tolist() == [list(arc) for arc in k2star.arcs]
        assert not k2star.arc_array.flags.writeable
        assert vl.VoltageDigraph(d3, ["a"], []).arc_array.shape == (0, 3)
        assert "arc_array" not in repr(k2star)
        with pytest.raises(TypeError):
            vl.VoltageDigraph(d3, ["a"], [], arc_array=np.zeros((0, 3), dtype=np.int64))

    @pytest.mark.parametrize("vertices, arc, message", [
        ([], None, "vertex list is empty"),
        (["a", "a"], None, "duplicate vertex names"),
        (["a", "b"], (0, 2, 0), "arc endpoint out of range: (0, 2)"),
        (["a", "b"], (-1, 0, 0), "arc endpoint out of range: (-1, 0)"),
        (["a", "b"], (0, 1, 6), "voltage index out of range: 6"),
        (["a"], (0, 0, -1), "voltage index out of range: -1"),  # not read as the last element
        (["a"], (0, 0, 7), "voltage index out of range: 7"),
        (["a"], (0, 0, 1.0), "arc (0, 0, 1.0) is not three integers (tail, head, voltage)"),
    ])
    def test_refusals(self, d3, vertices, arc, message):
        with pytest.raises(VoltageError, match=re.escape(message)):
            vl.VoltageDigraph(d3, vertices, [] if arc is None else [arc])

    def test_refuses_a_group_that_is_no_group_table(self):
        # a spec names a group but proves none, so no digraph is made over it
        with pytest.raises(VoltageError, match="expected a GroupTable, got str"):
            vl.VoltageDigraph("dihedral:3", ["a"], [])


class TestAssociatedMatrix:
    def test_k2star_entries(self, d3, k2star):
        b = vl.associated_matrix(k2star)
        sigma = elem(d3, {"r^0*s": 1})
        iota_rho = elem(d3, {"r^0": 1, "r^1": 1})
        assert tuple(b[0, 0]) == tuple(sigma)
        assert tuple(b[1, 1]) == tuple(sigma)
        assert tuple(b[0, 1]) == tuple(iota_rho)
        assert tuple(b[1, 0]) == tuple(iota_rho)

    def test_cayley_case(self):
        g = vl.build_builtin_group("cyclic:3")
        d = vl.VoltageDigraph(g, ["v"], [(0, 0, 1), (0, 0, 2)])
        b = vl.associated_matrix(d)
        assert tuple(b[0, 0]) == (0, 1, 1)

    def test_parallel_arcs_multiplicity(self, d3):
        d = vl.VoltageDigraph(d3, ["u", "v"], [(0, 1, 2), (0, 1, 2)])
        b = vl.associated_matrix(d)
        assert b[0, 1, 2] == 2


class TestAlgebraMul:
    def test_iota_plus_rho_squared(self, d3):
        x = elem(d3, {"r^0": 1, "r^1": 1})
        got = voltage.algebra_mul(x, x, d3)
        expected = elem(d3, {"r^0": 1, "r^1": 2, "r^2": 1})
        assert tuple(got) == tuple(expected)
        assert tuple(got) == naive_convolution(x, x, d3)

    def test_involution(self, d3):
        s = elem(d3, {"r^0*s": 1})
        assert tuple(voltage.algebra_mul(s, s, d3)) == tuple(elem(d3, {"r^0": 1}))

    def test_unit(self, d3):
        x = elem(d3, {"r^1": 3, "r^2*s": 2})
        unit = elem(d3, {"r^0": 1})
        assert tuple(voltage.algebra_mul(x, unit, d3)) == tuple(x)
        assert tuple(voltage.algebra_mul(unit, x, d3)) == tuple(x)

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(["cyclic:4", "dihedral:3", "product:cyclic:2,cyclic:2"]),
        data=st.data(),
    )
    def test_associative_and_matches_naive(self, spec, data):
        g = vl.build_builtin_group(spec)
        coeff = st.integers(min_value=-3, max_value=3)
        vec = st.lists(coeff, min_size=g.order, max_size=g.order)
        a = np.array(data.draw(vec), dtype=object)
        b = np.array(data.draw(vec), dtype=object)
        c = np.array(data.draw(vec), dtype=object)
        left = voltage.algebra_mul(voltage.algebra_mul(a, b, g), c, g)
        right = voltage.algebra_mul(a, voltage.algebra_mul(b, c, g), g)
        assert tuple(left) == tuple(right)
        assert tuple(voltage.algebra_mul(a, b, g)) == naive_convolution(a, b, g)


class TestMatrixPower:
    def test_power_zero_is_identity(self, d3, k2star):
        b = vl.associated_matrix(k2star)
        p0 = vl.algebra_matrix_power(b, 0, d3)
        unit = elem(d3, {"r^0": 1})
        zero = elem(d3, {})
        assert tuple(p0[0, 0]) == tuple(unit)
        assert tuple(p0[0, 1]) == tuple(zero)

    def test_power_one_is_b(self, k2star):
        b = vl.associated_matrix(k2star)
        p1 = vl.algebra_matrix_power(b, 1, k2star.group)
        for u in range(2):
            for v in range(2):
                assert tuple(p1[u, v]) == tuple(b[u, v])

    def test_square_diagonal_entry(self, d3, k2star):
        # hand expansion: sigma^2 + (iota + rho)^2 = 2*iota + 2*rho + rho^2
        b = vl.associated_matrix(k2star)
        p2 = vl.algebra_matrix_power(b, 2, d3)
        expected = elem(d3, {"r^0": 2, "r^1": 2, "r^2": 1})
        assert tuple(p2[0, 0]) == tuple(expected)


class TestBuildLift:
    def test_k2star_counts(self, d3, k2star):
        adj = vl.build_lift(k2star)
        assert adj.shape == (12, 12) and adj.dtype == np.int64
        assert len(vl.lift_to_json(k2star)["arcs"]) == 36
        assert np.all(adj.sum(axis=1) == 3)
        assert np.all(adj.sum(axis=0) == 3)

    def test_adjacency_is_read_only(self, k2star):
        adj = vl.build_lift(k2star)
        with pytest.raises(ValueError, match="read-only"):
            adj[0, 0] = 5
        assert adj[0, 0] == 0

    def test_trivial_group_gives_base(self):
        g = vl.build_builtin_group("cyclic:1")
        d = vl.VoltageDigraph(g, ["a", "b"], [(0, 1, 0), (1, 0, 0), (0, 0, 0)])
        adj = vl.build_lift(d)
        expected = np.array([[1, 1], [1, 0]])
        assert np.array_equal(adj, expected)

    def test_single_loop_z3_gives_cycle(self):
        g = vl.build_builtin_group("cyclic:3")
        d = vl.VoltageDigraph(g, ["v"], [(0, 0, 1)])
        adj = vl.build_lift(d)
        cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert np.array_equal(adj, cycle)

    def test_covering_degrees(self, d3):
        rng = np.random.default_rng(7)
        d = random_voltage_digraph(rng, d3, max_vertices=4, max_arcs=10)
        adj = vl.build_lift(d)
        n = d3.order
        out_base = np.bincount([u for u, _, _ in d.arcs], minlength=d.order)
        in_base = d.in_degrees()
        for u in range(d.order):
            for g in range(n):
                i = u * n + g
                assert adj[i].sum() == out_base[u]
                assert adj[:, i].sum() == in_base[u]


class TestCountWalks:
    def test_paper_counts(self, d3, k2star):
        a2 = np.linalg.matrix_power(vl.build_lift(k2star).astype(object), 2)
        n = d3.order
        a = 0  # base vertex a; lift vertex (u, g) sits at index u * n + g
        a_iota = a * n + d3.identity
        assert a2[a_iota, a_iota] == 2
        rho2 = d3.index_of("r^2")
        assert a2[a_iota, a * n + rho2] == 1

    def test_length_zero(self, d3, k2star):
        a0 = np.linalg.matrix_power(vl.build_lift(k2star).astype(object), 0)
        assert a0[3, 3] == 1
        assert a0[3, 4] == 0


class TestWalkCountIdentity:
    """Exact agreement between algebra powers and explicit lift walks."""

    @pytest.mark.parametrize("seed", range(6))
    def test_coefficients_match_all_offsets(self, seed):
        rng = np.random.default_rng(seed)
        specs = ["cyclic:4", "dihedral:3", "cyclic:6", "product:cyclic:2,cyclic:2"]
        g = vl.build_builtin_group(specs[seed % len(specs)])
        d = random_voltage_digraph(rng, g, max_vertices=3, max_arcs=8)
        n = g.order
        adj = vl.build_lift(d).astype(object)
        b = vl.associated_matrix(d)
        for ell in range(0, 5):
            bp = vl.algebra_matrix_power(b, ell, g)
            ap = np.linalg.matrix_power(adj, ell)
            for u in range(d.order):
                for v in range(d.order):
                    coeffs = tuple(bp[u, v])
                    block = ap[u * n:(u + 1) * n, v * n:(v + 1) * n]
                    for gg in range(n):
                        col = g.mul[:, gg]
                        for h in range(n):
                            assert block[h, col[h]] == coeffs[gg]

    def test_trace_identity(self, d3, k2star):
        adj = vl.build_lift(k2star).astype(object)
        b = vl.associated_matrix(k2star)
        n = d3.order
        for ell in range(1, 7):
            bp = vl.algebra_matrix_power(b, ell, d3)
            ap = np.linalg.matrix_power(adj, ell)
            closed = sum(bp[u, u, d3.identity] for u in range(2))
            assert np.trace(ap) == n * closed


    def test_exact_past_int64(self, d3, k2star):
        # 3-regular lift: length-45 walk counts are near 3**45 / 12 > 2**63
        ell = 45
        n = d3.order
        bp = vl.algebra_matrix_power(vl.associated_matrix(k2star), ell, d3)
        ap = np.linalg.matrix_power(vl.build_lift(k2star).astype(object), ell)
        for u in range(k2star.order):
            for v in range(k2star.order):
                for h in range(n):
                    for gg in range(n):
                        walks = ap[u * n + h, v * n + int(d3.mul[h, gg])]
                        assert type(bp[u, v, gg]) is int
                        assert bp[u, v, gg] == walks
        assert max(bp.ravel()) > 2**63

def largest_primes_below_2_31(k):
    """The k largest primes below 2^31, by trial division."""
    small = np.arange(2, 46341)  # every prime factor of a composite < 2^31
    for q in range(2, 216):
        small = small[(small % q != 0) | (small == q)]
    primes, m = [], 2**31 - 1
    while len(primes) < k:
        if np.all(m % small):
            primes.append(m)
        m -= 2
    return primes


PRIMES = largest_primes_below_2_31(6)


def obj(x):
    return np.array(x, dtype=object)


def assert_exact(got, want):
    assert got.shape == want.shape and got.dtype == object
    assert all(type(c) is int for c in got.flat)
    assert np.array_equal(got, want)


class TestResidueArithmetic:
    """Every product equals the Python-int loop of tests/oracles.py."""

    def test_primes_and_bound(self):
        # the fewest largest primes below 2^31 whose product exceeds twice
        # the bound
        for k in range(1, 5):
            m = prod(PRIMES[:k])
            assert voltage._primes_for((m - 1) // 2) == PRIMES[:k]
            assert voltage._primes_for((m + 1) // 2) == PRIMES[:k + 1]
        assert voltage._primes_for(0) == PRIMES[:1]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_from_residues_at_the_ends_of_the_range(self, k):
        # Horner's first step stays in int64, so one or two primes never
        # leave it, and every later step runs in Python ints; each k returns
        # Python ints, with both ends of |x| < M / 2 and the values next to
        # 0 exact
        primes = PRIMES[:k]
        m = prod(primes)
        values = [-(m - 1) // 2, -1, 0, 1, (m - 1) // 2]
        res = np.array([[v % p for v in values] for p in primes], dtype=np.int64)
        for shape in [(5,), (5, 1), (1, 5, 1)]:
            got = voltage._from_residues(res.reshape(k, *shape), primes)
            assert_exact(got, obj(values).reshape(shape))

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_power_at_a_prime_product_boundary(self, k, sign):
        # B = [[c]] over the trivial group: B^l = c^l and the bound |c|^l is
        # attained; |c|^l just below M / 2 needs exactly k primes, just
        # above it k + 1, and both ends of the symmetric range come back
        g = vl.build_builtin_group("cyclic:1")
        m = prod(PRIMES[:k])
        for c, ell in [((m - 1) // 2, 1), ((m + 1) // 2, 1), (isqrt((m - 1) // 2), 2)]:
            b = obj([[[sign * c]]])
            got = vl.algebra_matrix_power(b, ell, g)
            assert_exact(got, algebra_matrix_power_loop(b, ell, g))
            assert got[0, 0, 0] == (sign * c) ** ell

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(["cyclic:1", "cyclic:4", "dihedral:3", "product:cyclic:2,cyclic:2"]),
        data=st.data(),
    )
    def test_matmul_huge_and_negative_coefficients(self, spec, data):
        g = vl.build_builtin_group(spec)
        r, s, t = (data.draw(st.integers(1, 3)) for _ in range(3))
        coeff = st.one_of(
            st.integers(-3, 3),
            st.sampled_from([2**70, -(2**70), 2**63, -(2**63), 2**31 - 2, 1 - 2**31]),
            st.integers(-(2**80), 2**80),
        )
        a = obj(data.draw(st.lists(coeff, min_size=r * s * g.order, max_size=r * s * g.order)))
        b = obj(data.draw(st.lists(coeff, min_size=s * t * g.order, max_size=s * t * g.order)))
        a, b = a.reshape(r, s, g.order), b.reshape(s, t, g.order)
        assert_exact(voltage.algebra_matmul(a, b, g), algebra_matmul_loop(a, b, g))
        assert_exact(voltage.algebra_mul(a[0, 0], b[0, 0], g),
                     algebra_matmul_loop(a[:1, :1], b[:1, :1], g)[0, 0])

    @pytest.mark.parametrize("p, q, s", [(3, 2, 1), (1, 3, 4), (2, 0, 3), (0, 2, 3), (2, 3, 0)])
    @pytest.mark.parametrize("a_scale", [1, 2**70])
    def test_matmul_is_a_block_of_a_square(self, p, q, s, a_scale):
        # ab is block (0, 2) of M^2, M of size p + q + s: outer sizes that
        # differ, an empty inner size (ab = 0), empty outer ones, and an a
        # whose row norm exceeds b's, so that ||a|| sets the bound
        g = vl.build_builtin_group("dihedral:3")
        rng = np.random.default_rng(100 * p + 10 * q + s)
        a = rng.integers(-4, 5, size=(p, q, g.order)).astype(object) * a_scale
        b = rng.integers(-4, 5, size=(q, s, g.order)).astype(object)
        if a_scale > 1 and p * q:
            assert voltage._row_norm(voltage._terms(a), p) > voltage._row_norm(voltage._terms(b), q)
        assert_exact(voltage.algebra_matmul(a, b, g), algebra_matmul_loop(a, b, g))

    @pytest.mark.parametrize("c", [-1, -(2**70) - 1, PRIMES[4] - 1])
    def test_column_of_residues_near_p_does_not_overflow(self, c):
        # -1 is p - 1 modulo every prime: unreduced, the 24 terms of
        # (p - 1)^2 in column 1 would sum to about 12 * 2^63; so would the
        # two terms of column 2 scaled by a coefficient just below min(p)
        g = vl.build_builtin_group("dihedral:4")
        b = np.zeros((3, 3, g.order), dtype=object)
        b[:, 1] = c
        b[0, 2, :2] = c
        a = np.full((2, 3, g.order), -1, dtype=object)
        assert_exact(voltage.algebra_matmul(a, b, g), algebra_matmul_loop(a, b, g))
        for ell in (2, 3):
            assert_exact(vl.algebra_matrix_power(b, ell, g),
                         algebra_matrix_power_loop(b, ell, g))
        assert_exact(voltage.algebra_trace_powers(b, 3, g),
                     algebra_trace_powers_loop(b, 3, g))

    @pytest.mark.parametrize("spec", ["cyclic:1", "dihedral:3", "cyclic:6"])
    def test_powers_and_traces_match_the_loop(self, spec):
        rng = np.random.default_rng(11)
        g = vl.build_builtin_group(spec)
        d = random_voltage_digraph(rng, g, max_vertices=4, max_arcs=12)
        b = vl.associated_matrix(d)
        for ell in (0, 1, 2, 7, 30):
            assert_exact(vl.algebra_matrix_power(b, ell, g),
                         algebra_matrix_power_loop(b, ell, g))
        assert_exact(voltage.algebra_trace_powers(b, 20, g),
                     algebra_trace_powers_loop(b, 20, g))

    @pytest.mark.parametrize("case", ["k2star", "signed"])
    def test_traces_are_the_traces_of_the_powers(self, d3, k2star, case):
        # one power loop serves both: tr B^l from algebra_matrix_power is
        # column l - 1 of algebra_trace_powers, at a bound of 3 or more primes
        if case == "k2star":
            b, length = vl.associated_matrix(k2star), 45
        else:
            rng = np.random.default_rng(3)
            b, length = obj(rng.integers(-5, 6, size=(3, 3, d3.order)).tolist()), 30
        norm = voltage._row_norm(voltage._terms(b), len(b))
        assert len(voltage._primes_for(len(b) * norm ** length)) >= 3
        traces = voltage.algebra_trace_powers(b, length, d3)
        for ell in range(1, length + 1):
            power = vl.algebra_matrix_power(b, ell, d3)
            assert_exact(traces[:, ell - 1], power[range(len(b)), range(len(b))].sum(axis=0))

    def test_digraph_without_arcs(self, d3):
        d = vl.VoltageDigraph(d3, ["u", "v"], [])
        b = vl.associated_matrix(d)
        for ell in range(4):
            assert_exact(vl.algebra_matrix_power(b, ell, d3),
                         algebra_matrix_power_loop(b, ell, d3))
        for length in (0, 3):
            assert_exact(voltage.algebra_trace_powers(b, length, d3),
                         algebra_trace_powers_loop(b, length, d3))

    def test_cube_traces_to_length_64(self):
        # about 2^96 per coefficient: four primes by the bound 8 * 3^64
        g = vl.build_builtin_group("dihedral:32")
        with open(CUBE_PATH) as f:
            b = vl.associated_matrix(vl.parse_voltage_digraph(f.read(), g))
        got = voltage.algebra_trace_powers(b, 64, g)
        assert_exact(got, algebra_trace_powers_loop(b, 64, g))
        assert max(got[:, -1]) > 2**95

    def test_k2star_traces_to_length_64(self, d3, k2star):
        b = vl.associated_matrix(k2star)
        assert_exact(voltage.algebra_trace_powers(b, 64, d3),
                     algebra_trace_powers_loop(b, 64, d3))

    @pytest.mark.parametrize("length", [45, 64])
    def test_k2star_past_the_deferred_reductions(self, d3, k2star, length):
        # c = 3 and the bound starts at 1, so the power is reduced before
        # step 40 and again before step 60; unreduced, the length-45
        # coefficients (near 3^45 / 6 > 2^63) would wrap
        b = vl.associated_matrix(k2star)
        assert_exact(vl.algebra_matrix_power(b, length, d3),
                     algebra_matrix_power_loop(b, length, d3))
        assert_exact(voltage.algebra_trace_powers(b, length, d3),
                     algebra_trace_powers_loop(b, length, d3))

    def test_cube_power_to_length_64(self):
        g = vl.build_builtin_group("dihedral:32")
        with open(CUBE_PATH) as f:
            d = vl.parse_voltage_digraph(f.read(), g)
        b = vl.associated_matrix(d)
        terms = voltage._quotient_terms(d)
        assert voltage._product_terms(terms, len(b), PRIMES[:4], g)[0] == 3
        got = vl.algebra_matrix_power(b, 64, g)
        assert_exact(got, algebra_matrix_power_loop(b, 64, g))
        assert_exact(voltage._matrix_power(terms, len(b), 64, g), got)
        assert max(got.ravel()) > 2**90

    @staticmethod
    def all_ones_pair():
        # every arc u -> v of two vertices over the trivial group: c = 2, no
        # scale, and B^l = 2^(l - 1) everywhere
        g = vl.build_builtin_group("cyclic:1")
        d = vl.VoltageDigraph(g, ["u", "v"], [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
        return g, d

    @pytest.mark.parametrize("length", [62, 63, 64, 65])
    def test_two_slots_per_column_around_2_to_the_63(self, length):
        # the bound c^(l - 1) after step l is exact here; it first passes
        # 2^63 - 1 before step 64, which reduces first. From length 64 on an
        # unreduced entry would be 2^63 or more and wrap, so a guard that
        # lets c * top reach 2 * (2^63 - 1) fails at 64 and 65
        g, d = self.all_ones_pair()
        b = vl.associated_matrix(d)
        terms = voltage._quotient_terms(d)
        c, blocks = voltage._product_terms(terms, len(b), PRIMES[:2], g)
        assert c == 2 and blocks[0][2] is None
        got = vl.algebra_matrix_power(b, length, g)
        assert_exact(got, algebra_matrix_power_loop(b, length, g))
        assert got[0, 1, 0] == 2 ** (length - 1)
        assert_exact(voltage._matrix_power(terms, len(b), length, g), got)
        assert_exact(voltage.algebra_trace_powers(b, length, g),
                     algebra_trace_powers_loop(b, length, g))

    def test_the_bound_is_exact_so_reductions_wait(self):
        # a reduction rewrites the last power yielded in place, so the
        # yielded views show where the loop reduced: with the bound 2^(l - 1)
        # after step l, B^63 is the first power reduced, before step 64, and
        # every earlier one holds its coefficient 2^(l - 1) unreduced; B^64
        # and B^65 are sums of reduced entries, congruent to theirs
        g, d = self.all_ones_pair()
        primes = voltage._primes_for(2**64)
        mod = np.array(primes)[:, None]
        powers = list(voltage._residue_powers(voltage._quotient_terms(d), 2, 65, primes, g))
        for ell, power in enumerate(powers[1:], 1):
            if ell < 63:
                assert np.all(power == 2 ** (ell - 1))
            else:
                assert np.all(power % mod == np.array([2 ** (ell - 1) % p for p in primes])[:, None])
        assert np.all(powers[63] < mod)

    def test_a_column_of_pads_only(self, d3):
        # z has no in-arcs, so column z of B is all pads, while column b
        # holds the most nonzeros, c = 3
        d = vl.VoltageDigraph(d3, ["a", "b", "z"],
                              [(0, 1, 1), (1, 0, 3), (1, 1, 2), (2, 0, 4), (2, 1, 0)])
        b = vl.associated_matrix(d)
        terms = voltage._quotient_terms(d)
        offset = voltage._product_terms(terms, len(b), PRIMES[:1], d3)[1][0][0]
        assert offset.shape == (3, 3, 1) and np.all(offset[2] == 3 * d3.order)
        assert_exact(voltage._matrix_power(terms, len(b), 40, d3),
                     vl.algebra_matrix_power(b, 40, d3))
        for ell in (1, 2, 5, 40):
            got = vl.algebra_matrix_power(b, ell, d3)
            assert_exact(got, algebra_matrix_power_loop(b, ell, d3))
            assert not np.any(got[:, 2] != 0)
        assert_exact(voltage.algebra_trace_powers(b, 40, d3),
                     algebra_trace_powers_loop(b, 40, d3))
        assert_exact(voltage.algebra_matmul(b, b, d3), algebra_matmul_loop(b, b, d3))

    @pytest.mark.parametrize("length", [1, 2, 31, 64])
    def test_parallel_arcs_take_the_scaled_path(self, length):
        g = vl.build_builtin_group("dihedral:4")
        with open(PARALLEL_PATH) as f:
            d = vl.parse_voltage_digraph(f.read(), g)
        b = vl.associated_matrix(d)
        assert sorted(set(b.ravel())) == [0, 1, 2, 3]
        terms = voltage._quotient_terms(d)
        c, blocks = voltage._product_terms(terms, len(b), PRIMES[:1], g)
        assert c == 2 and blocks[0][2] is not None
        got = vl.algebra_matrix_power(b, length, g)
        assert_exact(got, algebra_matrix_power_loop(b, length, g))
        assert_exact(voltage._matrix_power(terms, len(b), length, g), got)
        assert_exact(voltage.algebra_trace_powers(b, length, g),
                     algebra_trace_powers_loop(b, length, g))
        assert (max(got.ravel()) > 2**63) == (length == 64)

    def test_matmul_negative_coefficients(self):
        # column 0 mixes coefficients 1 and negative ones (the scaled path,
        # each residue near p), column 1 is all -1, column 2 all pads
        g = vl.build_builtin_group("dihedral:4")
        rng = np.random.default_rng(8)
        a = obj(rng.integers(-9, 10, size=(2, 3, g.order)).tolist())
        a[0, 1, 3] = -(2**70)
        b = np.zeros((3, 3, g.order), dtype=object)
        b[0, 0, :3] = [1, -1, -(2**40)]
        b[2, 0, 5] = 1
        b[:, 1] = -1
        assert_exact(voltage.algebra_matmul(a, b, g), algebra_matmul_loop(a, b, g))

    def test_a_full_column_gathers_in_blocks(self):
        # over cyclic:4096, column 0 of B holds every element in both rows:
        # c = 8192 slots, so one gather of all of them would hold
        # 2 * 8192 * 4096 * 2 int64 entries (1 GiB) and its index 512 MiB;
        # blocks of at most BLOCK_ENTRIES entries keep the step small
        g = vl.build_builtin_group("cyclic:4096")
        b = np.zeros((2, 2, g.order), dtype=object)
        b[:, 0] = 1
        tracemalloc.start()
        try:
            got = vl.algebra_matrix_power(b, 1, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert_exact(got, b)

    def test_non_square_power_raises(self, d3):
        b = np.zeros((2, 3, d3.order), dtype=object)
        with pytest.raises(VoltageError, match="size mismatch"):
            vl.algebra_matrix_power(b, 2, d3)

    @pytest.mark.parametrize("call, message", [
        (lambda z, g: voltage.algebra_trace_powers(z(2, 3), 2, g), "matrix size mismatch"),
        (lambda z, g: voltage.algebra_matmul(z(1, 2), z(3, 1), g), "matrix size mismatch"),
        (lambda z, g: voltage.algebra_matmul(z(1, 3), z(2, 1), g), "matrix size mismatch"),
        (lambda z, g: vl.algebra_matrix_power(z(2, 2), -1, g), "negative power"),
    ])
    def test_refusals(self, d3, call, message):
        with pytest.raises(VoltageError, match=message):
            call(lambda r, s: np.zeros((r, s, d3.order), dtype=object), d3)


class TestQuotientEngine:
    """The exact routes read B's terms from the arcs (_quotient_terms), and
    the public B-form functions read them from np.nonzero(b) (_terms): one
    kernel, so both forms must give the same results, to the bit."""

    @staticmethod
    def assert_same_blocks(got, want):
        assert got[0] == want[0] and len(got[1]) == len(want[1])
        for got_block, want_block in zip(got[1], want[1]):
            for x, y in zip(got_block, want_block):
                assert (x is None) == (y is None)
                if x is not None:
                    assert x.dtype == y.dtype and np.array_equal(x, y)

    @pytest.mark.parametrize("spec", GROUP_POOL_SPECS)
    def test_terms_path_equals_the_b_path(self, spec):
        # random digraphs, parallel arcs (coefficients 2 and 3), loops, a
        # vertex with no in-arcs and a digraph with no arcs (term_cases)
        g = vl.build_builtin_group(spec)
        for d in term_cases(np.random.default_rng(12), g):
            b, r = vl.associated_matrix(d), d.order
            terms, b_terms = voltage._quotient_terms(d), voltage._terms(b)
            assert voltage._row_norm(terms, r) == voltage._row_norm(b_terms, r)
            for primes in (PRIMES[:1], PRIMES[:3]):
                self.assert_same_blocks(
                    voltage._product_terms(terms, r, primes, g),
                    voltage._product_terms(b_terms, r, primes, g))
            for ell in (0, 1, 2, 5):
                assert_exact(voltage._matrix_power(terms, r, ell, g),
                             vl.algebra_matrix_power(b, ell, g))
            assert_exact(voltage._trace_powers(terms, r, 6, g),
                         voltage.algebra_trace_powers(b, 6, g))

    def test_exact_routes_never_build_b(self, k2star, d3_irreps, monkeypatch, capsys):
        # charsum's traces and the CLI's walks read the arcs' terms: neither
        # builds the object array B nor takes its np.nonzero (_terms)
        t = vl.character_table(d3_irreps)
        argv = ["walks", "--digraph", K2STAR_PATH, "--group", "dihedral:3", "--length", "45"]
        want = vl.lift_spectrum_charsum(k2star, t)
        assert run(argv) == 0
        want_out = capsys.readouterr().out

        def refuse(*args):
            raise AssertionError("an exact route built the quotient matrix")

        for module in (vl, voltage):
            monkeypatch.setattr(module, "associated_matrix", refuse)
        monkeypatch.setattr(voltage, "_terms", refuse)
        assert vl.lift_spectrum_charsum(k2star, t) == want
        assert run(argv) == 0
        assert capsys.readouterr().out == want_out


def test_lift_json_roundtrip(d3, k2star):
    adj = vl.build_lift(k2star)
    doc = vl.lift_to_json(k2star)
    assert len(doc["vertices"]) == 12
    assert len(doc["arcs"]) == 36
    assert doc["vertices"][0] == "a.r^0"
    # re-read as an ordinary digraph over the trivial group
    g1 = vl.build_builtin_group("cyclic:1")
    arcs = [{"from": a, "to": b, "voltage": "g^0"} for a, b in doc["arcs"]]
    d = vl.parse_voltage_digraph({"vertices": doc["vertices"], "arcs": arcs}, g1)
    assert np.array_equal(vl.build_lift(d), adj)


# base vertex x.y with element z and base vertex x with element y.z would
# both be labelled x.y.z
DOTTED_GROUP = {"elements": ["z", "y.z"], "mul": [[0, 1], [1, 0]]}


def test_lift_json_refuses_a_label_of_two_vertices():
    g = vl.parse_group_table(DOTTED_GROUP)
    d = vl.VoltageDigraph(g, ["x", "x.y"], [(0, 1, 1)])
    with pytest.raises(VoltageError, match=re.escape(
            "lift vertex label 'x.y.z' names both (x, y.z) and (x.y, z)")):
        vl.lift_to_json(d)


def test_lift_json_keeps_dotted_labels_that_do_not_collide():
    g = vl.parse_group_table(DOTTED_GROUP)
    d = vl.VoltageDigraph(g, ["x.y", "w"], [(0, 1, 1)])
    doc = vl.lift_to_json(d)
    assert doc["vertices"] == ["x.y.z", "x.y.y.z", "w.z", "w.y.z"]
    assert doc["arcs"] == [["x.y.z", "w.y.z"], ["x.y.y.z", "w.z"]]

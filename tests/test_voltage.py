import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltlift as vl
from voltlift.voltage import VoltageError

from conftest import K2STAR_DOC, random_voltage_digraph


def naive_convolution(a, b):
    # independent second route: dict accumulation instead of the library loop
    group = a.group
    acc = {}
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            k = group.mul_idx(i, j)
            acc[k] = acc.get(k, 0) + ai * bj
    return tuple(acc.get(k, 0) for k in range(group.order))


def elem(group, terms):
    coeffs = [0] * group.order
    for name, c in terms.items():
        coeffs[group.index_of(name)] += c
    return vl.GroupAlgebraElement(group, tuple(coeffs))


class TestParseVoltageDigraph:
    def test_k2star(self, d3, k2star):
        assert k2star.order == 2
        assert len(k2star.arcs) == 6

    def test_single_vertex_no_arcs(self, d3):
        d = vl.parse_voltage_digraph({"vertices": ["a"], "arcs": []}, d3)
        b = vl.associated_matrix(d)
        assert b.entry(0, 0).is_zero()

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


class TestAssociatedMatrix:
    def test_k2star_entries(self, d3, k2star):
        b = vl.associated_matrix(k2star)
        sigma = elem(d3, {"r^0*s": 1})
        iota_rho = elem(d3, {"r^0": 1, "r^1": 1})
        assert b.entry(0, 0).coeffs == sigma.coeffs
        assert b.entry(1, 1).coeffs == sigma.coeffs
        assert b.entry(0, 1).coeffs == iota_rho.coeffs
        assert b.entry(1, 0).coeffs == iota_rho.coeffs

    def test_cayley_case(self):
        g = vl.build_builtin_group("cyclic:3")
        d = vl.make_voltage_digraph(g, ["v"], [(0, 0, 1), (0, 0, 2)])
        b = vl.associated_matrix(d)
        assert b.entry(0, 0).coeffs == (0, 1, 1)

    def test_parallel_arcs_multiplicity(self, d3):
        d = vl.make_voltage_digraph(d3, ["u", "v"], [(0, 1, 2), (0, 1, 2)])
        b = vl.associated_matrix(d)
        assert b.entry(0, 1).coeffs[2] == 2


class TestAlgebraMul:
    def test_iota_plus_rho_squared(self, d3):
        x = elem(d3, {"r^0": 1, "r^1": 1})
        got = vl.algebra_mul(x, x)
        expected = elem(d3, {"r^0": 1, "r^1": 2, "r^2": 1})
        assert got.coeffs == expected.coeffs
        assert got.coeffs == naive_convolution(x, x)

    def test_involution(self, d3):
        s = elem(d3, {"r^0*s": 1})
        assert vl.algebra_mul(s, s).coeffs == vl.algebra_unit(d3).coeffs

    def test_unit(self, d3):
        x = elem(d3, {"r^1": 3, "r^2*s": 2})
        assert vl.algebra_mul(x, vl.algebra_unit(d3)).coeffs == x.coeffs
        assert vl.algebra_mul(vl.algebra_unit(d3), x).coeffs == x.coeffs

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(["cyclic:4", "dihedral:3", "product:cyclic:2,cyclic:2"]),
        data=st.data(),
    )
    def test_associative_and_matches_naive(self, spec, data):
        g = vl.build_builtin_group(spec)
        coeff = st.integers(min_value=-3, max_value=3)
        vec = st.lists(coeff, min_size=g.order, max_size=g.order)
        a = vl.GroupAlgebraElement(g, tuple(data.draw(vec)))
        b = vl.GroupAlgebraElement(g, tuple(data.draw(vec)))
        c = vl.GroupAlgebraElement(g, tuple(data.draw(vec)))
        left = vl.algebra_mul(vl.algebra_mul(a, b), c)
        right = vl.algebra_mul(a, vl.algebra_mul(b, c))
        assert left.coeffs == right.coeffs
        assert vl.algebra_mul(a, b).coeffs == naive_convolution(a, b)


class TestMatrixPower:
    def test_power_zero_is_identity(self, d3, k2star):
        b = vl.associated_matrix(k2star)
        p0 = vl.algebra_matrix_power(b, 0)
        unit = vl.algebra_unit(d3)
        zero = vl.algebra_zero(d3)
        assert p0.entry(0, 0).coeffs == unit.coeffs
        assert p0.entry(0, 1).coeffs == zero.coeffs

    def test_power_one_is_b(self, k2star):
        b = vl.associated_matrix(k2star)
        p1 = vl.algebra_matrix_power(b, 1)
        for u in range(2):
            for v in range(2):
                assert p1.entry(u, v).coeffs == b.entry(u, v).coeffs

    def test_square_diagonal_entry(self, d3, k2star):
        # hand expansion: sigma^2 + (iota + rho)^2 = 2*iota + 2*rho + rho^2
        b = vl.associated_matrix(k2star)
        p2 = vl.algebra_matrix_power(b, 2)
        expected = elem(d3, {"r^0": 2, "r^1": 2, "r^2": 1})
        assert p2.entry(0, 0).coeffs == expected.coeffs


class TestBuildLift:
    def test_k2star_counts(self, d3, k2star):
        lift = vl.build_lift(k2star)
        assert lift.order == 12
        assert len(lift.arcs) == 36
        assert np.all(lift.adjacency.sum(axis=1) == 3)
        assert np.all(lift.adjacency.sum(axis=0) == 3)

    def test_trivial_group_gives_base(self):
        g = vl.build_builtin_group("cyclic:1")
        d = vl.make_voltage_digraph(g, ["a", "b"], [(0, 1, 0), (1, 0, 0), (0, 0, 0)])
        lift = vl.build_lift(d)
        expected = np.array([[1, 1], [1, 0]])
        assert np.array_equal(lift.adjacency, expected)

    def test_single_loop_z3_gives_cycle(self):
        g = vl.build_builtin_group("cyclic:3")
        d = vl.make_voltage_digraph(g, ["v"], [(0, 0, 1)])
        lift = vl.build_lift(d)
        cycle = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert np.array_equal(lift.adjacency, cycle)

    def test_covering_degrees(self, d3):
        rng = np.random.default_rng(7)
        d = random_voltage_digraph(rng, d3, max_vertices=4, max_arcs=10)
        lift = vl.build_lift(d)
        n = d3.order
        out_base = d.out_degrees()
        in_base = d.in_degrees()
        for u in range(d.order):
            for g in range(n):
                i = u * n + g
                assert lift.adjacency[i].sum() == out_base[u]
                assert lift.adjacency[:, i].sum() == in_base[u]


class TestCountWalks:
    def test_paper_counts(self, d3, k2star):
        lift = vl.build_lift(k2star)
        a_iota = lift.vertex_index(0, d3.identity)
        assert vl.count_walks_lift(lift, a_iota, a_iota, 2) == 2
        rho2 = d3.index_of("r^2")
        assert vl.count_walks_lift(lift, a_iota, lift.vertex_index(0, rho2), 2) == 1

    def test_length_zero(self, d3, k2star):
        lift = vl.build_lift(k2star)
        assert vl.count_walks_lift(lift, 3, 3, 0) == 1
        assert vl.count_walks_lift(lift, 3, 4, 0) == 0


class TestWalkCountIdentity:
    """Exact agreement between algebra powers and explicit lift walks."""

    @pytest.mark.parametrize("seed", range(6))
    def test_coefficients_match_all_offsets(self, seed):
        rng = np.random.default_rng(seed)
        specs = ["cyclic:4", "dihedral:3", "cyclic:6", "product:cyclic:2,cyclic:2"]
        g = vl.build_builtin_group(specs[seed % len(specs)])
        d = random_voltage_digraph(rng, g, max_vertices=3, max_arcs=8)
        n = g.order
        lift = vl.build_lift(d)
        b = vl.associated_matrix(d)
        for ell in range(0, 5):
            bp = vl.algebra_matrix_power(b, ell)
            ap = vl.lift_adjacency_power(lift, ell)
            for u in range(d.order):
                for v in range(d.order):
                    coeffs = bp.entry(u, v).coeffs
                    block = ap[u * n:(u + 1) * n, v * n:(v + 1) * n]
                    for gg in range(n):
                        col = g.mul[:, gg]
                        for h in range(n):
                            assert block[h, col[h]] == coeffs[gg]

    def test_trace_identity(self, d3, k2star):
        lift = vl.build_lift(k2star)
        b = vl.associated_matrix(k2star)
        n = d3.order
        for ell in range(1, 7):
            bp = vl.algebra_matrix_power(b, ell)
            ap = vl.lift_adjacency_power(lift, ell)
            closed = sum(bp.entry(u, u).coeffs[d3.identity] for u in range(2))
            assert np.trace(ap) == n * closed


def test_lift_json_roundtrip(d3, k2star):
    lift = vl.build_lift(k2star)
    doc = vl.lift_to_json(lift)
    assert len(doc["vertices"]) == 12
    assert len(doc["arcs"]) == 36
    assert doc["vertices"][0] == "a.r^0"
    # re-read as an ordinary digraph over the trivial group
    g1 = vl.build_builtin_group("cyclic:1")
    arcs = [{"from": a, "to": b, "voltage": "g^0"} for a, b in doc["arcs"]]
    d = vl.parse_voltage_digraph({"vertices": doc["vertices"], "arcs": arcs}, g1)
    relift = vl.build_lift(d)
    assert np.array_equal(relift.adjacency, lift.adjacency)

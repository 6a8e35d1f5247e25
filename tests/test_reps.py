import itertools
import math
import os
import re
from functools import reduce

import numpy as np
import pytest

import voltlift as vl
from voltlift import groups, reps
from voltlift.reps import RepresentationError

from conftest import (
    GROUP_POOL_SPECS,
    irrep_matrices,
    random_voltage_digraph,
    random_voltage_graph,
    replaced,
    symmetric_lift,
    unvalidated,
)
from oracles import conjugate_pairing_by_characters

DATA = os.path.join(os.path.dirname(__file__), "data")

SMALL_BUILTINS = [
    "cyclic:1",
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:7",
    "cyclic:12",
    "dihedral:2",
    "dihedral:3",
    "dihedral:4",
    "dihedral:5",
    "dihedral:6",
    "dihedral:7",
    "product:cyclic:2,cyclic:3",
    "product:cyclic:2,dihedral:3",
    "product:dihedral:3,cyclic:4",
]


def irreps_to_doc(group, irrep_set):
    return [
        {
            "dim": d,
            "matrices": {
                name: [
                    [[m.real, m.imag] for m in row]
                    for row in irrep_matrices(irrep_set, i)[group.index_of(name)]
                ]
                for name in group.element_names
            },
        }
        for i, d in enumerate(irrep_set.dims)
    ]


class TestBuiltinIrreps:
    def test_a_spec_is_no_group_table(self):
        # a spec names a group but proves none: it is refused by type, not
        # read as a table
        with pytest.raises(RepresentationError, match="expected a GroupTable, got str"):
            vl.builtin_irreps("dihedral:3")

    def test_cyclic_2_characters(self):
        g = vl.build_builtin_group("cyclic:2")
        t = vl.character_table(vl.builtin_irreps(g))
        assert np.allclose(t.rows, [[1, 1], [1, -1]])

    def test_d3_matches_printed_table(self, d3, d3_irreps):
        t = vl.character_table(d3_irreps)
        rot = d3.index_of("r^1")
        refl = d3.index_of("r^0*s")
        e = d3.identity
        expected = {
            0: (1, 1, 1),
            1: (1, -1, 1),
            2: (2, 0, -1),
        }
        for i, (ce, cs, cr) in expected.items():
            assert abs(t.rows[i][e] - ce) < 1e-12
            assert abs(t.rows[i][refl] - cs) < 1e-12
            assert abs(t.rows[i][rot] - cr) < 1e-12

    def test_d4_dims(self):
        g = vl.build_builtin_group("dihedral:4")
        s = vl.builtin_irreps(g)
        assert s.dims == (1, 1, 1, 1, 2)
        assert sum(d * d for d in s.dims) == 8

    def test_cyclic_4_powers_of_i(self):
        g = vl.build_builtin_group("cyclic:4")
        t = vl.character_table(vl.builtin_irreps(g))
        for k in range(4):
            for j in range(4):
                assert abs(t.rows[k][j] - 1j ** (k * j)) < 1e-12

    @pytest.mark.parametrize("spec", SMALL_BUILTINS)
    def test_all_invariants(self, spec):
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        reps.validate_irrep_set(s)  # homomorphism, zero-sum, orthogonality
        vl.CharacterTable(g, vl.character_table(s).rows)  # proves the rows
        assert len(s.dims) == len(g.classes)
        assert sum(d * d for d in s.dims) == g.order

    @pytest.mark.parametrize("spec", SMALL_BUILTINS + ["dihedral:512", "cyclic:1024"])
    def test_inverse_maps_to_conjugate_transpose_exactly(self, spec):
        # rho(x^-1) == rho(x)^H bit for bit, so the image of an undirected
        # digraph with one voltage per edge is exactly Hermitian
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        inverse = np.asarray(g.inverse)
        for stack in s.stacks.values():
            assert np.array_equal(stack[:, inverse], stack.conj().swapaxes(2, 3))

    def test_untagged_group_rejected(self):
        g = vl.parse_group_table({"elements": ["e", "a"], "mul": [[0, 1], [1, 0]]})
        with pytest.raises(RepresentationError, match=re.escape(
                "unsupported builtin family None; supply irreps via load_irreps")):
            vl.builtin_irreps(g)

    @pytest.mark.parametrize("spec", ["dihedral:8", "product:dihedral:8,cyclic:3"])
    def test_one_table_and_one_irrep_set_validated(self, spec, monkeypatch):
        # every check runs once, on the finished group and irrep set
        calls = []

        def spy(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, **k: calls.append(name) or original(*a, **k))

        spy(groups, "make_group_table")
        spy(groups, "_check_associativity")  # the table's proof, in GroupTable
        spy(reps, "validate_irrep_set")
        vl.builtin_irreps(vl.build_builtin_group(spec))
        assert sorted(calls) == ["_check_associativity", "make_group_table", "validate_irrep_set"]

    def test_a_perturbed_factor_irrep_breaks_the_product(self, monkeypatch):
        # a 2-dim irrep of the dihedral:8 factor off at r^3, which is no
        # generator of dihedral:8: only the product's validation can see it
        assert 3 not in vl.build_builtin_group("dihedral:8").generators
        dihedral = reps._FAMILY_IRREPS["dihedral"]

        def perturbed(m):
            stacks = dihedral(m)
            mats = stacks[2].copy()
            mats[0, 3, 0, 1] += 1e-6
            return {**stacks, 2: mats}

        monkeypatch.setitem(reps._FAMILY_IRREPS, "dihedral", perturbed)
        g = vl.build_builtin_group("product:dihedral:8,cyclic:3")
        with pytest.raises(RepresentationError, match=r"irrep 12 \(dim 2\): not a homomorphism"):
            vl.builtin_irreps(g)


# every product in the pool, and one whose factor-by-factor order would
# interleave the dimensions 1, 2, 4 and 8
PRODUCT_SPECS = [spec for spec in GROUP_POOL_SPECS if spec.startswith("product:")] + [
    "product:dihedral:4,dihedral:4,dihedral:4"]


@pytest.mark.parametrize("spec", PRODUCT_SPECS)
class TestProductOrder:
    def test_characters_are_kronecker_products_per_dimension(self, spec):
        # dims never decrease, and the rows are, per choice of one dimension
        # for each factor in itertools.product order, the Kronecker products
        # of the factors' rows of those dimensions, in itertools.product
        # order; listed per dimension
        s = vl.builtin_irreps(vl.build_builtin_group(spec))
        assert list(s.dims) == sorted(s.dims)
        factors = [vl.builtin_irreps(vl.build_builtin_group(f"{kind}:{m}"))
                   for kind, m in groups.parse_builtin_spec(spec)]
        want = {}
        for choice in itertools.product(*(sorted(set(f.dims)) for f in factors)):
            rows = [f.characters[np.equal(f.dims, k)] for f, k in zip(factors, choice)]
            want.setdefault(math.prod(choice), []).extend(
                reduce(np.kron, combo) for combo in itertools.product(*rows))
        want = np.array([row for k in sorted(want) for row in want[k]])
        assert s.characters.shape == want.shape
        assert np.abs(s.characters - want).max() <= 1e-12

    def test_repr_spectrum_matches_bruteforce(self, spec):
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        rng = np.random.default_rng(61)
        size = max(1, 1000 // g.order)  # lifts of at most 1000 vertices
        for d in (random_voltage_digraph(rng, g, max_vertices=size, max_arcs=8),
                  random_voltage_graph(rng, g, max_vertices=size, max_edges=6)):
            tol = 1e-7 if symmetric_lift(d) else 1e-3
            match = vl.spectra_equal(
                vl.lift_spectrum_repr(d, s, 1e-8), vl.lift_spectrum_bruteforce(d, 1e-8), tol)
            assert match.matched, match


class TestCharacterTable:
    def test_trivial_group(self):
        g = vl.build_builtin_group("cyclic:1")
        t = vl.character_table(vl.builtin_irreps(g))
        assert t.rows.shape == (1, 1)
        assert t.rows[0, 0] == 1

    def test_rows_constant_on_classes(self, d3, d3_irreps):
        t = vl.character_table(d3_irreps)
        for row in t.rows:
            for cls in d3.classes:
                vals = row[list(cls)]
                assert np.abs(vals - vals[0]).max() < 1e-12


    def test_row_not_constant_on_class(self, d3, d3_irreps):
        rows = np.array(vl.character_table(d3_irreps).rows)
        rows[1, d3.index_of("r^2*s")] += 1e-6
        with pytest.raises(RepresentationError, match="not constant on class"):
            vl.CharacterTable(group=d3, rows=rows)

    def test_perturbed_columns_fail_the_row_relation(self, d3, d3_irreps):
        # a table that breaks the column relation X*X = I breaks the row
        # relation XX* = I too, since the table is square
        rows = np.array(vl.character_table(d3_irreps).rows)
        rows[2, [d3.index_of("r^1"), d3.index_of("r^2")]] = -1.5
        message = "character rows 2 and 2 violate orthogonality"
        with pytest.raises(RepresentationError, match=message):
            vl.CharacterTable(group=d3, rows=rows)

    def test_a_table_of_a_group_that_is_no_group_table(self):
        with pytest.raises(RepresentationError, match="expected a GroupTable, got str"):
            vl.CharacterTable("x", [[1]])


class TestLoadIrreps:
    def test_roundtrip_d3(self, d3, d3_irreps):
        doc = irreps_to_doc(d3, d3_irreps)
        loaded = vl.load_irreps(doc, d3)
        # compare character rows, not matrices: irreps are only defined up
        # to equivalence
        t1 = vl.character_table(loaded)
        t2 = vl.character_table(d3_irreps)
        assert np.allclose(sorted(t1.rows.tolist(), key=str),
                           sorted(t2.rows.tolist(), key=str))

    def test_irreps_are_stacked_per_dimension(self, d3, d3_irreps):
        # the fixture lists the 2-dim irrep first, then the trivial and the
        # sign irrep: loaded, the set is dimension-major, trivial first
        with open(os.path.join(DATA, "d3_irreps_2dim_first.json")) as f:
            loaded = vl.load_irreps(f.read(), d3)
        assert loaded.dims == (1, 1, 2)
        assert np.array_equal(loaded.characters, d3_irreps.characters)

    def test_trivial_moved_first(self, d3, d3_irreps):
        doc = irreps_to_doc(d3, d3_irreps)
        doc = doc[1:] + doc[:1]  # trivial now last
        loaded = vl.load_irreps(doc, d3)
        assert loaded.dims == (1, 1, 2)
        assert np.allclose(loaded.stacks[1][0], 1.0)

    def test_duplicate_row_fails_orthogonality(self):
        g = vl.build_builtin_group("cyclic:2")
        sign = {
            "dim": 1,
            "matrices": {"g^0": [[[1.0, 0.0]]], "g^1": [[[-1.0, 0.0]]]},
        }
        with pytest.raises(RepresentationError, match="orthogonality"):
            vl.load_irreps([sign, sign], g)

    def test_non_homomorphism_names_pair(self):
        g = vl.build_builtin_group("cyclic:2")
        bad = {
            "dim": 1,
            "matrices": {"g^0": [[[1.0, 0.0]]], "g^1": [[[2.0, 0.0]]]},
        }
        triv = {
            "dim": 1,
            "matrices": {"g^0": [[[1.0, 0.0]]], "g^1": [[[1.0, 0.0]]]},
        }
        with pytest.raises(RepresentationError, match="homomorphism at pair"):
            vl.load_irreps([triv, bad], g)

    def test_perturbed_non_generator_detected(self):
        g = vl.build_builtin_group("dihedral:64")
        s = vl.builtin_irreps(g)
        assert 77 not in g.generators
        i = s.dims.index(2)
        mats = np.array(irrep_matrices(s, i))
        mats[77, 0, 1] += 1e-9
        with pytest.raises(RepresentationError, match="homomorphism at pair"):
            reps.validate_irrep_set(unvalidated(s, i, mats))
        with pytest.raises(RepresentationError, match="homomorphism at pair"):
            replaced(s, i, mats)

    @pytest.mark.parametrize(
        "doc", [{"dim": 1}, [[1, 0]], [{"dim": "x", "matrices": {}}],
                [{"dim": 1, "matrices": []}], [{"dim": True, "matrices": {}}],
                # rejected before anything of size dim * dim is allocated
                [{"dim": 2**40, "matrices": {}}]]
    )
    def test_malformed_document(self, d3, doc):
        with pytest.raises(RepresentationError):
            vl.load_irreps(doc, d3)

    def test_malformed_matrix(self, d3, d3_irreps):
        doc = irreps_to_doc(d3, d3_irreps)
        doc[0]["matrices"]["r^1"] = [[[1.0, 0.0], [2.0]]]
        with pytest.raises(RepresentationError, match="re, im"):
            vl.load_irreps(doc, d3)

    @pytest.mark.parametrize(
        "value", [["1", "0"], [True, False], [None, 0], [1, False], [0.5, True],
                  [float("inf"), 0], [0, float("nan")]]
    )
    def test_non_numeric_matrix_entry(self, d3, d3_irreps, value):
        doc = irreps_to_doc(d3, d3_irreps)
        doc[0]["matrices"]["r^1"] = [[value]]
        with pytest.raises(RepresentationError, match="re, im"):
            vl.load_irreps(doc, d3)

    def test_missing_element(self, d3, d3_irreps):
        doc = irreps_to_doc(d3, d3_irreps)
        del doc[0]["matrices"]["r^1"]
        with pytest.raises(RepresentationError, match="missing matrix"):
            vl.load_irreps(doc, d3)

    @pytest.mark.parametrize("irrep", [0, 2])
    def test_a_matrix_for_no_element_is_refused(self, d3, d3_irreps, irrep):
        # every element has its matrix, and one more key names none
        doc = irreps_to_doc(d3, d3_irreps)
        doc[irrep]["matrices"]["bogus"] = doc[irrep]["matrices"]["r^1"]
        with pytest.raises(RepresentationError) as info:
            vl.load_irreps(doc, d3)
        assert str(info.value) == f"irrep {irrep}: unknown element name 'bogus'"

    def test_wrong_count(self, d3, d3_irreps):
        doc = irreps_to_doc(d3, d3_irreps)
        with pytest.raises(RepresentationError, match="3 irreps"):
            vl.load_irreps(doc[:2], d3)

    def test_matrices_of_the_wrong_shape(self, d3, d3_irreps):
        doc = irreps_to_doc(d3, d3_irreps)
        doc[2]["dim"] = 3  # its matrices stay 2 x 2
        with pytest.raises(RepresentationError, match=re.escape(
                "irrep 2: matrices have shape (2, 2), expected (3, 3)")):
            vl.load_irreps(doc, d3)

    def test_squared_dimensions_must_sum_to_the_order(self, d3):
        # three 1-dim irreps, one per class of dihedral:3, but 3 != 6
        with pytest.raises(RepresentationError,
                           match="sum of squared dimensions 3 != group order 6"):
            vl.IrrepSet(d3, {1: np.ones((3, d3.order, 1, 1))})

    def test_an_irrep_set_of_a_group_that_is_no_group_table(self):
        with pytest.raises(RepresentationError, match="expected a GroupTable, got str"):
            vl.IrrepSet("x", {})

    def test_loading_over_a_group_that_is_no_group_table(self, d3, d3_irreps):
        # the group is checked before the document is read
        with pytest.raises(RepresentationError, match="expected a GroupTable, got str"):
            vl.load_irreps(irreps_to_doc(d3, d3_irreps), "dihedral:3")


class TestLoadCharacterTable:
    def d3_doc(self, d3):
        return {
            "classes": [["r^0"], ["r^0*s", "r^1*s", "r^2*s"], ["r^1", "r^2"]],
            "rows": [
                [[1, 0], [1, 0], [1, 0]],
                [[1, 0], [-1, 0], [1, 0]],
                [[2, 0], [0, 0], [-1, 0]],
            ],
        }

    def test_printed_table_valid(self, d3):
        t = vl.load_character_table(self.d3_doc(d3), d3)
        assert t.dims == (1, 1, 2)

    def test_loading_over_a_group_that_is_no_group_table(self, d3):
        # the group is checked before the document is read
        with pytest.raises(RepresentationError, match="expected a GroupTable, got str"):
            vl.load_character_table(self.d3_doc(d3), "dihedral:3")

    def test_duplicate_rows_rejected(self):
        g = vl.build_builtin_group("cyclic:2")
        doc = {
            "classes": [["g^0"], ["g^1"]],
            "rows": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
        }
        # the second all-ones row is checked as a 1-dim irrep: its element
        # sum, its inner product with the trivial row, is not 0
        with pytest.raises(RepresentationError,
                           match=r"irrep 1 \(dim 1\): non-trivial irrep with nonzero element sum"):
            vl.load_character_table(doc, g)

    def test_cyclic_3_roots_of_unity(self):
        g = vl.build_builtin_group("cyclic:3")
        w = np.exp(2j * np.pi / 3)
        doc = {
            "classes": [["g^0"], ["g^1"], ["g^2"]],
            "rows": [
                [[1, 0], [1, 0], [1, 0]],
                [[1, 0], [w.real, w.imag], [(w ** 2).real, (w ** 2).imag]],
                [[1, 0], [(w ** 2).real, (w ** 2).imag], [w.real, w.imag]],
            ],
        }
        t = vl.load_character_table(doc, g)
        assert t.rows.shape == (3, 3)

    def test_a_degree_1_row_must_be_a_homomorphism(self):
        # rows 1 and 2 mix chi_1 and chi_2 of cyclic:3 by a unitary 2 x 2
        # matrix: constant on classes, degree 1 and orthonormal, but not
        # characters (chi(g)^2 = 1.866, chi(g^2) = 0.366)
        g = vl.build_builtin_group("cyclic:3")
        with open(os.path.join(DATA, "c3_mixed_chars.json")) as f:
            doc = f.read()
        with pytest.raises(RepresentationError,
                           match=r"irrep 1 \(dim 1\): not a homomorphism at pair"):
            vl.load_character_table(doc, g)

    def test_each_row_block_is_checked(self, monkeypatch):
        # one row per block: the last row of the cyclic:8 table, negated at
        # one element, fails in the last block
        monkeypatch.setattr(reps, "BLOCK_ENTRIES", 8)
        g = vl.build_builtin_group("cyclic:8")
        rows = np.array(vl.builtin_irreps(g).characters)
        rows[7, 3] *= -1
        with pytest.raises(RepresentationError, match=r"irrep 7 \(dim 1\): not a homomorphism"):
            vl.CharacterTable(group=g, rows=rows)

    def test_non_integer_identity_value(self, d3):
        doc = self.d3_doc(d3)
        doc["rows"][2][0] = [1.5, 0]
        with pytest.raises(RepresentationError):
            vl.load_character_table(doc, d3)

    @pytest.mark.parametrize(
        "doc", [[], {"classes": [["r^0"]]}, {"classes": "r^0", "rows": []}]
    )
    def test_malformed_document(self, d3, doc):
        with pytest.raises(RepresentationError, match="classes"):
            vl.load_character_table(doc, d3)

    def test_malformed_value(self, d3):
        doc = self.d3_doc(d3)
        doc["rows"][1][1] = "minus one"
        with pytest.raises(RepresentationError, match="re, im"):
            vl.load_character_table(doc, d3)

    @pytest.mark.parametrize(
        "values", [{(0, 0): [True, 0]}, {(1, 1): [-1, False]},
                   {(0, 0): [True, 0], (1, 1): [-1, False]},
                   {(2, 2): [float("inf"), 0]}, {(1, 2): [1, float("nan")]}]
    )
    def test_bool_or_non_finite_value(self, d3, values):
        # np.asarray would read true and false as 1 and 0
        doc = self.d3_doc(d3)
        for (i, c), value in values.items():
            doc["rows"][i][c] = value
        with pytest.raises(RepresentationError, match="re, im"):
            vl.load_character_table(doc, d3)

    @pytest.mark.parametrize("name", ["q" * 100000, ["r^0"], {"r": 0}, 7, None])
    def test_unknown_class_member_is_named_briefly(self, d3, name):
        doc = self.d3_doc(d3)
        doc["classes"][2] = ["r^1", name]
        with pytest.raises(RepresentationError,
                           match="document classes: unknown element name") as info:
            vl.load_character_table(doc, d3)
        assert len(str(info.value)) <= 200

    def test_names_are_looked_up_in_one_dict(self, d3, monkeypatch):
        # a list search per name made loading O(n^2)
        def no_search(self, name):
            raise AssertionError("linear search")

        monkeypatch.setattr(vl.GroupTable, "index_of", no_search)
        assert vl.load_character_table(self.d3_doc(d3), d3).dims == (1, 1, 2)

    def test_wrong_row_count(self, d3):
        doc = self.d3_doc(d3)
        with pytest.raises(RepresentationError, match="rows"):
            vl.load_character_table({"classes": doc["classes"], "rows": doc["rows"][:2]}, d3)

    def test_a_row_with_the_wrong_number_of_class_values(self, d3):
        doc = self.d3_doc(d3)
        doc["rows"] = [row[:2] for row in doc["rows"]]
        with pytest.raises(RepresentationError,
                           match=re.escape("rows have 2 values, expected 3 (one per class)")):
            vl.load_character_table(doc, d3)


def test_zero_sum_all_builtin_nontrivial():
    for spec in SMALL_BUILTINS:
        g = vl.build_builtin_group(spec)
        s = vl.builtin_irreps(g)
        for i in range(1, len(s.dims)):
            total = irrep_matrices(s, i).sum(axis=0)
            assert np.abs(total).max() <= 1e-8 * g.order


class TestConjugates:
    @staticmethod
    def check_pairing(s):
        conj, rows = s.conjugates, s.characters
        assert conj.shape == (len(s.dims),) and not conj.flags.writeable
        assert np.array_equal(conj[conj], np.arange(len(conj)))
        assert np.abs(rows[conj] - rows.conj()).max() <= 1e-12
        return conj

    # dihedral:7 has only real characters, so its pairing is the identity
    @pytest.mark.parametrize("spec", ["cyclic:12", "product:dihedral:4,cyclic:3", "dihedral:7"])
    def test_exactly_the_real_characters_map_to_themselves(self, spec):
        s = vl.builtin_irreps(vl.build_builtin_group(spec))
        conj = self.check_pairing(s)
        real = np.abs(s.characters.imag).max(axis=1) < 1e-9
        assert np.array_equal(conj == np.arange(len(conj)), real)

    def test_shuffled_document_pairs_by_character(self):
        # chi_k(g) = w^k and conj(chi_k) = chi_{5-k}; after the shuffle the
        # pairing is no longer i -> -i mod 5, so it must come from the rows
        g = vl.build_builtin_group("cyclic:5")
        doc = irreps_to_doc(g, vl.builtin_irreps(g))
        shuffled = [doc[k] for k in (1, 2, 4, 0, 3)]
        loaded = vl.load_irreps(shuffled, g)
        conj = self.check_pairing(loaded)
        # loaded order, the trivial irrep moved first: chi_0, chi_1, chi_2, chi_4, chi_3
        assert conj.tolist() == [0, 3, 4, 1, 2]

    @pytest.mark.parametrize("spec", GROUP_POOL_SPECS + ["product:dihedral:4,cyclic:3"])
    def test_pairing_matches_the_character_oracle(self, spec):
        s = vl.builtin_irreps(vl.build_builtin_group(spec))
        assert np.array_equal(self.check_pairing(s), conjugate_pairing_by_characters(s.characters))

    @pytest.mark.parametrize("tamper", ["perturbed", "duplicated"])
    def test_row_without_partner_raises(self, tamper):
        # a cyclic:5 document whose row 2 (perturbed) or row 1 (a copy of
        # row 4) has lost its conjugate partner is no irrep set of the
        # group, and is refused at load, before any pairing
        g = vl.build_builtin_group("cyclic:5")
        doc = irreps_to_doc(g, vl.builtin_irreps(g))
        if tamper == "perturbed":
            doc[2]["matrices"]["g^1"][0][0][1] += 1e-3
            match = "not a homomorphism"
        else:
            doc[1]["matrices"] = doc[4]["matrices"]
            match = "violate orthogonality"
        with pytest.raises(RepresentationError, match=match):
            vl.load_irreps(doc, g)

    def test_a_partner_one_ulp_off_is_solved_on_its_own(self, monkeypatch):
        # irrep 4 of cyclic:5 is conj(rho_1); moved by one ulp at the
        # generator g^1, it pairs with nothing, and neither does irrep 1:
        # both are solved, and the spectrum is unchanged
        g = vl.build_builtin_group("cyclic:5")
        assert g.generators == (g.index_of("g^1"),)
        doc = irreps_to_doc(g, vl.builtin_irreps(g))
        entry = doc[4]["matrices"]["g^1"][0][0]
        entry[1] = float(np.nextafter(entry[1], np.inf))
        s = vl.load_irreps(doc, g)
        assert s.conjugates.tolist() == [0, 1, 3, 2, 4]
        d = vl.VoltageDigraph(g, ["u", "v"], [(0, 1, 1), (1, 0, 2), (1, 1, 1), (0, 0, 3)])
        solved = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: solved.append(m) or eigvals(m))
        got = vl.lift_spectrum_repr(d, s, 1e-8)
        monkeypatch.undo()
        images = vl.rho_matrix(vl.associated_matrix(d), s.stacks[1])
        (stack,) = solved
        for i in (1, 4):
            assert any(np.array_equal(m, images[i]) for m in stack)
        assert vl.spectra_equal(got, vl.lift_spectrum_bruteforce(d, 1e-8), 1e-12).matched


def d3_with_one_imaginary_part():
    """dihedral:3 loaded from its document, with the 2-dim irrep's (1, 1)
    entry at r^1 given the imaginary part 5e-324, the least there is."""
    g = vl.build_builtin_group("dihedral:3")
    doc = irreps_to_doc(g, vl.builtin_irreps(g))
    next(e for e in doc if e["dim"] == 2)["matrices"]["r^1"][1][1][1] = 5e-324
    return vl.load_irreps(doc, g)


def with_negative_zero_imaginary_parts(s):
    """s with every imaginary part set to -0.0: a new IrrepSet."""
    stacks = {k: np.array(stack) for k, stack in s.stacks.items()}
    for stack in stacks.values():
        stack.imag = -0.0
    return vl.IrrepSet(s.group, stacks)


class TestRealDims:
    """IrrepSet.real_dims: the dimensions whose stack has no nonzero
    imaginary part, decided exactly, on first read."""

    @pytest.mark.parametrize("spec, real", [
        ("cyclic:1", {1}), ("cyclic:2", {1}), ("cyclic:12", set()), ("dihedral:5", {1, 2}),
        ("product:dihedral:3,dihedral:4", {1, 2, 4}), ("product:cyclic:3,dihedral:4", set()),
    ])
    def test_builtin_stacks(self, spec, real):
        s = vl.builtin_irreps(vl.build_builtin_group(spec))
        assert "real_dims" not in vars(s)  # not computed when the set is made
        assert isinstance(s.real_dims, frozenset) and s.real_dims == real
        assert "real_dims" in vars(s)

    def test_one_tiny_imaginary_part_keeps_a_stack_complex(self):
        s = d3_with_one_imaginary_part()
        assert s.stacks[2].imag.max() == 5e-324
        assert s.real_dims == {1}

    def test_negative_zero_imaginary_parts_count_as_zero(self):
        s = with_negative_zero_imaginary_parts(d3_with_one_imaginary_part())
        assert all(np.signbit(stack.imag).all() for stack in s.stacks.values())
        assert s.real_dims == {1, 2}

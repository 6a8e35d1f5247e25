"""Blocked irrep-set validation against the one-irrep-at-a-time oracle.

Every perturbed set below keeps the irrep count and the sum of squared
dimensions, so only the homomorphism, identity, norm or regular-character
test can reject it; each test pins the message that names what failed. An
IrrepSet validates itself when made, so the perturbed stacks reach the
validators in a plain holder (conftest.unvalidated), and make_irrep_set is
checked on its own to raise the same message.
"""

import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest

import voltlift as vl
from voltlift import reps
from voltlift.reps import RepresentationError

from conftest import irrep_matrices, replaced, unvalidated
from oracles import validate_irrep_set_loop
from test_groups import FAMILY_SPECS
from test_reps import irreps_to_doc

D8 = vl.build_builtin_group("dihedral:8")
D8_IRREPS = vl.builtin_irreps(D8)  # dims (1, 1, 1, 1, 2, 2, 2)
D64 = vl.build_builtin_group("dihedral:64")
D64_IRREPS = vl.builtin_irreps(D64)
# 2-dim irreps of dihedral:64 three to a block: the second block is 7, 8, 9
D64_BLOCK_ENTRIES = 3 * D64.order * 4 * len(D64.generators)
NON_GENERATOR = 77


# each perturbation is (set, irrep index, its new matrices)
def duplicate():
    return D8_IRREPS, 5, np.array(irrep_matrices(D8_IRREPS, 4))


def conjugated_duplicate():
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return D8_IRREPS, 5, u @ irrep_matrices(D8_IRREPS, 4) @ u.conj().T


def reducible():
    mats = np.zeros((D8.order, 2, 2), dtype=complex)
    mats[:, 0, 0] = irrep_matrices(D8_IRREPS, 1)[:, 0, 0]
    mats[:, 1, 1] = irrep_matrices(D8_IRREPS, 2)[:, 0, 0]
    return D8_IRREPS, 5, mats


def perturbed_non_generator():
    mats = np.array(irrep_matrices(D64_IRREPS, 8))
    mats[NON_GENERATOR, 0, 1] += 1e-9
    return D64_IRREPS, 8, mats


def identity_not_i(i):
    mats = np.array(irrep_matrices(D8_IRREPS, i))
    mats[D8.identity, 0, 0] += 1e-6
    return D8_IRREPS, i, mats


# (perturbation, message the blocked validator gives): the regular-character
# test rejects a duplicate, the norm test a reducible row; the shape check
# (reps.stack_pieces) rejects a short irrep before any validation
PERTURBED = {
    "duplicate": (duplicate, r"character rows 4 and 5 violate orthogonality"),
    "conjugated duplicate": (conjugated_duplicate, r"rows 4 and 5 violate orthogonality"),
    "reducible": (reducible, r"character rows 5 and 5 violate orthogonality"),
    "non-generator": (perturbed_non_generator, r"irrep 8 \(dim 2\): not a homomorphism at"),
    "identity dim 1": (lambda: identity_not_i(2), r"irrep 2 \(dim 1\): identity element is"),
    "identity dim 2": (lambda: identity_not_i(5), r"irrep 5 \(dim 2\): identity element is"),
    "one matrix short": (
        lambda: (D8_IRREPS, 5, np.array(irrep_matrices(D8_IRREPS, 5)[:-1])),
        r"irrep 5 \(dim 2\): expected 16 matrices of size 2x2, got shape \(15, 2, 2\)",
    ),
}


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(reps, "BLOCK_ENTRIES", D64_BLOCK_ENTRIES)


@pytest.mark.parametrize("name", PERTURBED)
def test_perturbed_set_rejected(small_blocks, name):
    make, message = PERTURBED[name]
    with pytest.raises(RepresentationError, match=message):
        vl.validate_irrep_set(unvalidated(*make()))


@pytest.mark.parametrize("name", PERTURBED)
def test_oracle_rejects_perturbed_set(name):
    make, _ = PERTURBED[name]
    with pytest.raises(RepresentationError):
        validate_irrep_set_loop(unvalidated(*make()))


@pytest.mark.parametrize("name", PERTURBED)
def test_make_irrep_set_rejects_perturbed_set(small_blocks, name):
    make, message = PERTURBED[name]
    with pytest.raises(RepresentationError, match=message):
        replaced(*make())


@pytest.mark.parametrize("shape", [(15, 2, 2), (17, 2, 2), (16, 3, 3), (16, 2, 3)])
def test_constructor_rejects_a_misshapen_irrep(shape):
    # a short irrep, one matrix too many, and the wrong size d: named
    # before anything is validated
    message = f"irrep 6 (dim 2): expected 16 matrices of size 2x2, got shape {shape}"
    with pytest.raises(RepresentationError, match=re.escape(message)):
        replaced(D8_IRREPS, 6, np.zeros(shape, dtype=complex))


def test_constructor_rejects_a_piece_of_mixed_dimensions():
    # one (7, 16, 1, 1) piece for all of dihedral:8: irrep 4 is the first of dim 2
    pieces = [(range(7), np.ones((7, D8.order, 1, 1)))]
    message = "irrep 4 (dim 2): expected 16 matrices of size 2x2, got shape (16, 1, 1)"
    with pytest.raises(RepresentationError, match=re.escape(message)):
        vl.make_irrep_set(D8, D8_IRREPS.dims, pieces)


def test_irrep_no_piece_gives_fails_the_identity_check():
    pieces = [([j], irrep_matrices(D8_IRREPS, j)[None]) for j in range(7) if j != 3]
    _, stacks = reps.stack_pieces(D8, D8_IRREPS.dims, pieces)
    assert not stacks[1][3].any()  # irrep 3 stays zero
    message = r"irrep 3 \(dim 1\): identity element"
    with pytest.raises(RepresentationError, match=message):
        vl.validate_irrep_set(SimpleNamespace(group=D8, dims=D8_IRREPS.dims, stacks=stacks))
    with pytest.raises(RepresentationError, match=message):
        vl.make_irrep_set(D8, D8_IRREPS.dims, pieces)


def test_constructor_keeps_the_only_piece_of_a_dimension_as_a_view():
    mats = np.array(D8_IRREPS.stacks[2])
    pieces = [([0, 1, 2, 3], D8_IRREPS.stacks[1]), ([4, 5, 6], mats)]
    s = vl.make_irrep_set(D8, D8_IRREPS.dims, pieces)
    assert s.stacks[2].base is mats and not s.stacks[2].flags.writeable
    assert mats.flags.writeable  # the caller's array is not frozen
    assert np.array_equal(s.characters, D8_IRREPS.characters)


def test_perturbed_irrep_is_mid_block():
    two = [i for i, d in enumerate(D64_IRREPS.dims) if d == 2]
    size = D64_BLOCK_ENTRIES // (D64.order * 4 * len(D64.generators))
    blocks = [two[k:k + size] for k in range(0, len(two), size)]
    assert [7, 8, 9] in blocks
    assert NON_GENERATOR not in D64.generators


def test_non_generator_message_names_a_failing_pair(small_blocks):
    with pytest.raises(RepresentationError) as info:
        vl.validate_irrep_set(unvalidated(*perturbed_non_generator()))
    a, b = re.search(r"pair \('([^']*)', '([^']*)'\)", str(info.value)).groups()
    g, s = D64.index_of(a), D64.index_of(b)
    assert s in D64.generators
    # rho(g) rho(s) = rho(g s) fails exactly where g or g s is the element
    assert NON_GENERATOR in (g, D64.mul_idx(g, s))


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_accepts_builtin_sets_as_the_oracle_does(spec):
    s = vl.builtin_irreps(vl.build_builtin_group(spec))
    validate_irrep_set_loop(s)
    rows = vl.validate_irrep_set(s)
    traces = [np.trace(irrep_matrices(s, i), axis1=1, axis2=2) for i in range(len(s.dims))]
    assert np.allclose(rows, traces, atol=1e-9)


def test_accepts_loaded_d3_set_as_the_oracle_does(d3, d3_irreps):
    s = vl.load_irreps(irreps_to_doc(d3, d3_irreps), d3)
    validate_irrep_set_loop(s)
    vl.validate_irrep_set(s)


def test_character_table_reuses_the_validated_rows(d3_irreps):
    t = vl.character_table(d3_irreps)
    assert t.rows is d3_irreps.characters
    assert not t.rows.flags.writeable


def test_characters_of_an_invalid_set_raise():
    # an IrrepSet validates before it sets its character rows, however it
    # is made: by make_irrep_set, by its own constructor or by replace
    stacks = unvalidated(*duplicate()).stacks
    for make in (lambda: replaced(*duplicate()),
                 lambda: vl.IrrepSet(D8, D8_IRREPS.dims, stacks),
                 lambda: dataclasses.replace(D8_IRREPS, stacks=stacks)):
        with pytest.raises(RepresentationError, match="rows 4 and 5 violate orthogonality"):
            make()


def test_characters_are_a_read_only_field_set_when_made():
    s = vl.IrrepSet(D8, D8_IRREPS.dims, D8_IRREPS.stacks)
    assert "characters" in vars(s)  # set by the constructor, not on a first read
    assert np.array_equal(s.characters, D8_IRREPS.characters)
    assert not s.characters.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.characters = D8_IRREPS.characters
    with pytest.raises(TypeError):  # not a constructor argument
        vl.IrrepSet(D8, D8_IRREPS.dims, D8_IRREPS.stacks, characters=D8_IRREPS.characters)


def test_stacks_are_frozen_when_made():
    # made from a dict of writable arrays, the set keeps a read-only
    # mapping of read-only stacks: no matrix can be swapped in or edited
    # after validation, so every route uses the matrices the checks saw
    given = {k: np.array(stack) for k, stack in D8_IRREPS.stacks.items()}
    assert all(stack.flags.writeable for stack in given.values())
    for s in (vl.IrrepSet(D8, D8_IRREPS.dims, given),
              dataclasses.replace(D8_IRREPS, stacks=dict(given))):
        with pytest.raises(TypeError):
            s.stacks[2] = np.zeros_like(s.stacks[2])
        with pytest.raises(ValueError, match="read-only"):
            s.stacks[2][0, 0, 0, 0] = 0
        assert np.array_equal(s.characters, D8_IRREPS.characters)
    given.clear()  # the caller's dict is not the set's
    assert sorted(s.stacks) == [1, 2]


def test_cyclic_set_stores_its_table_as_one_view():
    (stack,) = vl.builtin_irreps(vl.build_builtin_group("cyclic:64")).stacks.values()
    assert stack.shape == (64, 64, 1, 1)
    assert not stack.flags.owndata and not stack.flags.writeable


class TestCyclicIrrepsByGather:
    M = 4096
    K = np.r_[0, 1, 2, M // 2, M - 1, np.random.default_rng(5).integers(0, M, 24)][:, None]
    J = np.arange(M)[None, :]

    @pytest.fixture(scope="class")
    def table(self):
        """Rows K of the character table [k, j] = chi_k(g^j), and row 1."""
        dims, [(_, stack)] = reps._cyclic_irreps(self.M)
        assert dims == (1,) * self.M and stack.shape == (self.M, self.M, 1, 1)
        return stack[self.K[:, 0], :, 0, 0], stack[1, :, 0, 0]

    def test_entries_are_gathered_roots(self, table):
        # chi_k(g^j) is bitwise the root chi_1(g^(k j mod m))
        rows, chi_1 = table
        assert np.array_equal(rows, chi_1[(self.K * self.J) % self.M])


    def test_matches_exp_of_the_unreduced_argument(self, table):
        # the unreduced argument 2 pi k j / m reaches 2.6e4 rad; its rounding
        # alone moves exp by up to about 2.6e4 * eps = 5.7e-12
        unreduced = np.exp(2j * np.pi * self.K * self.J / self.M)
        assert np.abs(table[0] - unreduced).max() <= 1e-11

    @pytest.mark.skipif(np.finfo(np.longdouble).precision < 18,
                        reason="long double is no wider than double here")
    def test_matches_an_extended_precision_reference(self, table):
        # the unreduced argument in extended precision, pi included
        angle = 2 * np.arccos(np.longdouble(-1)) * (self.K * self.J) / self.M
        reference = np.cos(angle).astype(float) + 1j * np.sin(angle).astype(float)
        assert np.abs(table[0] - reference).max() <= 2e-15

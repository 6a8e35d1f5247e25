"""Blocked irrep-set validation against the one-irrep-at-a-time oracle.

Every perturbed set below keeps the irrep count and the sum of squared
dimensions, so only the homomorphism, identity, norm or regular-character
test can reject it; each test pins the message that names what failed. An
IrrepSet validates itself when made, so the perturbed stacks reach the
validators in a plain holder of group, dims and stacks, and the IrrepSet
constructor is checked on its own to raise the same message. The
constructor checks the stacks' shapes before it calls validate_irrep_set,
so a holder for validate_irrep_set has its shapes checked first (shaped).
"""

import dataclasses
import re
import types
from types import SimpleNamespace

import numpy as np
import pytest

import voltlift as vl
from voltlift import reps
from voltlift.reps import RepresentationError

from conftest import irrep_matrices, replaced_stacks, unvalidated
from oracles import validate_irrep_set_loop
from test_groups import FAMILY_SPECS
from test_reps import irreps_to_doc, loaded_set

D8 = vl.build_builtin_group("dihedral:8")
D8_IRREPS = vl.builtin_irreps(D8)  # dims (1, 1, 1, 1, 2, 2, 2)
D64 = vl.build_builtin_group("dihedral:64")
D64_IRREPS = vl.builtin_irreps(D64)
# 2-dim irreps of dihedral:64 three to a block: the second block is 7, 8, 9
D64_BLOCK_ENTRIES = 3 * D64.order * 4 * len(D64.generators)
NON_GENERATOR = 77


# each perturbation is (set, its perturbed stacks)
def duplicate():
    return D8_IRREPS, replaced_stacks(D8_IRREPS, 5, irrep_matrices(D8_IRREPS, 4))


def conjugated_duplicate():
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return D8_IRREPS, replaced_stacks(D8_IRREPS, 5, u @ irrep_matrices(D8_IRREPS, 4) @ u.conj().T)


def reducible():
    mats = np.zeros((D8.order, 2, 2), dtype=complex)
    mats[:, 0, 0] = irrep_matrices(D8_IRREPS, 1)[:, 0, 0]
    mats[:, 1, 1] = irrep_matrices(D8_IRREPS, 2)[:, 0, 0]
    return D8_IRREPS, replaced_stacks(D8_IRREPS, 5, mats)


def perturbed_non_generator():
    return D64_IRREPS, replaced_stacks(*non_generator_change())


def non_generator_change():
    mats = np.array(irrep_matrices(D64_IRREPS, 8))
    mats[NON_GENERATOR, 0, 1] += 1e-9
    return D64_IRREPS, 8, mats


def identity_not_i(i):
    mats = np.array(irrep_matrices(D8_IRREPS, i))
    mats[D8.identity, 0, 0] += 1e-6
    return D8_IRREPS, replaced_stacks(D8_IRREPS, i, mats)


def non_finite(i, value):
    mats = np.array(irrep_matrices(D8_IRREPS, i))
    mats[1, 0, -1] = value
    return D8_IRREPS, replaced_stacks(D8_IRREPS, i, mats)


def holder(s, stacks):
    """stacks in a plain holder with s's group and dims, not validated."""
    return SimpleNamespace(group=s.group, dims=s.dims, stacks=stacks)


def shaped(s, stacks):
    """holder(s, stacks) after the shape check that IrrepSet runs before it
    calls validate_irrep_set, which takes the shapes as checked."""
    for d, stack in stacks.items():
        reps._check_stack_shape(d, stack, s.group.order)
    return holder(s, stacks)


# (perturbation, message the blocked validator gives): the regular-character
# test rejects a duplicate, the norm test a reducible row; the shape check
# rejects a stack whose irreps are one matrix short, and the finiteness
# check a nan or an inf, before any validation
PERTURBED = {
    "duplicate": (duplicate, r"character rows 4 and 5 violate orthogonality"),
    "conjugated duplicate": (conjugated_duplicate, r"rows 4 and 5 violate orthogonality"),
    "reducible": (reducible, r"character rows 5 and 5 violate orthogonality"),
    "non-generator": (perturbed_non_generator, r"irrep 8 \(dim 2\): not a homomorphism at"),
    "identity dim 1": (lambda: identity_not_i(2), r"irrep 2 \(dim 1\): identity element is"),
    "identity dim 2": (lambda: identity_not_i(5), r"irrep 5 \(dim 2\): identity element is"),
    "one matrix short": (
        lambda: (D8_IRREPS, {**D8_IRREPS.stacks, 2: D8_IRREPS.stacks[2][:, :-1]}),
        r"stack of dim 2: expected shape \(K, 16, 2, 2\) with K >= 1, got \(3, 15, 2, 2\)",
    ),
    "nan dim 1": (lambda: non_finite(2, np.nan), r"stack of dim 1: holds a non-finite entry"),
    "nan dim 2": (lambda: non_finite(5, np.nan), r"stack of dim 2: holds a non-finite entry"),
    "inf dim 1": (lambda: non_finite(2, np.inf), r"stack of dim 1: holds a non-finite entry"),
    "inf dim 2": (lambda: non_finite(5, -np.inf), r"stack of dim 2: holds a non-finite entry"),
}


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(reps, "BLOCK_ENTRIES", D64_BLOCK_ENTRIES)


@pytest.mark.parametrize("name", PERTURBED)
def test_perturbed_set_rejected(small_blocks, name):
    make, message = PERTURBED[name]
    with pytest.raises(RepresentationError, match=message):
        reps.validate_irrep_set(shaped(*make()))


@pytest.mark.parametrize("name", PERTURBED)
def test_oracle_rejects_perturbed_set(name):
    make, _ = PERTURBED[name]
    with pytest.raises(RepresentationError):
        validate_irrep_set_loop(holder(*make()))


@pytest.mark.parametrize("name", PERTURBED)
def test_make_irrep_set_rejects_perturbed_set(small_blocks, name):
    # making an IrrepSet from the perturbed stacks raises the same message
    make, message = PERTURBED[name]
    s, stacks = make()
    with pytest.raises(RepresentationError, match=message):
        vl.IrrepSet(s.group, stacks)


# the dim-2 stack of dihedral:8 with every irrep one matrix short or one too
# many, of size 3x3 under key 2, not square, with no irrep axis, or empty
@pytest.mark.parametrize("shape", [(3, 15, 2, 2), (3, 17, 2, 2), (3, 16, 3, 3), (3, 16, 2, 3),
                                   (16, 2, 2), (0, 16, 2, 2)])
def test_constructor_rejects_a_misshapen_irrep(shape):
    # named by its dimension before anything is validated, also in a holder
    stacks = {**D8_IRREPS.stacks, 2: np.zeros(shape, dtype=complex)}
    message = f"stack of dim 2: expected shape (K, 16, 2, 2) with K >= 1, got {shape}"
    with pytest.raises(RepresentationError, match=re.escape(message)):
        vl.IrrepSet(D8, stacks)
    with pytest.raises(RepresentationError, match=re.escape(message)):
        reps.validate_irrep_set(shaped(D8_IRREPS, stacks))


@pytest.mark.parametrize("key", [3, 0])
def test_constructor_rejects_a_stack_under_another_dimension(key):
    # the dim-2 stack keyed 3, or a (3, 16, 0, 0) stack keyed 0: the key
    # must be the stack's matrix size, and at least 1
    stack = D8_IRREPS.stacks[2] if key else np.zeros((3, D8.order, 0, 0))
    message = f"stack of dim {key}: expected shape (K, 16, {key}, {key}) with K >= 1"
    with pytest.raises(RepresentationError, match=re.escape(message)):
        vl.IrrepSet(D8, {**D8_IRREPS.stacks, key: stack})


@pytest.mark.parametrize("key", ["2", 2.0])
def test_constructor_rejects_a_key_that_is_no_int(key):
    # beside the int key 1, which sorting could not compare it with
    message = f"stack of dim {key!r}: expected shape (K, 16, {key!r}, {key!r}) with K >= 1"
    with pytest.raises(RepresentationError, match=re.escape(message)):
        vl.IrrepSet(D8, {1: D8_IRREPS.stacks[1], key: D8_IRREPS.stacks[2]})


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("d", [1, 2])
def test_a_non_finite_entry_is_rejected(d, value):
    # every comparison with nan is false, so only a finiteness check sees
    # it; a complex one is written whole, into a complex copy of the stack
    stack = np.array(D3_IRREPS.stacks[d], dtype=np.result_type(D3_IRREPS.stacks[d], value))
    stack[-1, 1, 0, 0] = value
    stacks = {**D3_IRREPS.stacks, d: stack}
    message = f"stack of dim {d}: holds a non-finite entry"
    for make in (lambda: vl.IrrepSet(D3, stacks),
                 lambda: dataclasses.replace(D3_IRREPS, stacks=stacks)):
        with pytest.raises(RepresentationError, match=message):
            make()


def test_one_irrep_too_many_fails_the_count():
    stacks = {**D8_IRREPS.stacks, 2: np.concatenate([D8_IRREPS.stacks[2]] * 2)[:4]}
    with pytest.raises(RepresentationError, match=r"expected 7 irreps .*, got 8"):
        vl.IrrepSet(D8, stacks)


def test_orders_the_stacks_by_their_dimension_and_derives_dims():
    s = vl.IrrepSet(D8, {2: D8_IRREPS.stacks[2], 1: D8_IRREPS.stacks[1]})
    assert list(s.stacks) == [1, 2] and s.dims == (1, 1, 1, 1, 2, 2, 2)
    assert np.array_equal(s.characters, D8_IRREPS.characters)


# one vertex with loops r and r^2 over dihedral:3: spectrum 2^2, -1^4
D3 = vl.build_builtin_group("dihedral:3")
D3_IRREPS = vl.builtin_irreps(D3)
LOOPS = vl.VoltageDigraph(D3, ["v"], [(0, 0, D3.index_of("r^1")), (0, 0, D3.index_of("r^2"))])


@pytest.mark.parametrize("read_only_view", [False, True])
def test_a_set_does_not_change_with_its_callers_array(read_only_view):
    # made from a writable array, or from a read-only view of one, the set
    # keeps a copy: zeroing the caller's array changes neither its stack
    # nor its spectrum
    mats = np.array(D3_IRREPS.stacks[2])
    given = mats
    if read_only_view:
        given = mats.view()
        given.setflags(write=False)
    s = vl.IrrepSet(D3, {1: D3_IRREPS.stacks[1], 2: given})
    mats[:] = 0
    assert mats.flags.writeable and not np.shares_memory(s.stacks[2], mats)
    assert np.array_equal(s.stacks[2], D3_IRREPS.stacks[2])
    assert str(vl.lift_spectrum_repr(LOOPS, s)) == "2^2, -1^4"
    assert str(vl.lift_spectrum_bruteforce(LOOPS)) == "2^2, -1^4"


@pytest.mark.parametrize("read_only_view", [False, True])
def test_a_callers_read_only_stack_is_copied(read_only_view):
    # the owner of a read-only array can turn writing back on, so a set
    # copies every stack it did not freeze itself: zeroing the caller's
    # array after that changes neither the stack nor its spectrum
    frozen = np.array(D3_IRREPS.stacks[2])
    frozen.setflags(write=False)
    given = frozen[::-1][::-1] if read_only_view else frozen
    s = vl.IrrepSet(D3, {1: D3_IRREPS.stacks[1], 2: given})
    assert not np.shares_memory(s.stacks[2], frozen)
    frozen.setflags(write=True)
    frozen[:] = 0
    assert np.array_equal(s.stacks[2], D3_IRREPS.stacks[2])
    assert str(vl.lift_spectrum_repr(LOOPS, s)) == "2^2, -1^4"


def _kept_as_given(monkeypatch):
    """Record, for each array _stored_stack or _unwritable reads, whether
    it was kept as given."""
    kept = []
    for name in ("_stored_stack", "_unwritable"):
        def spy(a, what, original=getattr(reps, name)):
            out = original(a, what)
            kept.append(out is a)
            return out

        monkeypatch.setattr(reps, name, spy)
    return kept


def test_loaded_and_reused_stacks_are_not_copied(d3, d3_irreps, monkeypatch):
    kept = _kept_as_given(monkeypatch)
    s = vl.load_irreps(irreps_to_doc(d3, d3_irreps), d3)
    again = vl.IrrepSet(d3, s.stacks)
    # character_table takes the set's proven rows as they are, with no
    # _unwritable of its own
    assert vl.character_table(again).rows is again.characters
    assert kept == [True] * (2 * len(s.stacks))
    assert all(again.stacks[d] is s.stacks[d] for d in s.stacks)
    # the Q8 document's 1-dim stack is real: load_irreps stores it once,
    # as a float64 array of its own, not a view of a complex one, and the
    # set keeps it
    kept.clear()
    q8 = loaded_set("q8_group.json", "q8_irreps.json")
    assert kept == [True] * len(q8.stacks)
    one = q8.stacks[1]
    assert one.dtype == np.float64 and one.flags.owndata and one.base is None
    assert q8.stacks[2].dtype == np.complex128


@pytest.mark.parametrize("spec", ["cyclic:64", "dihedral:8", "dihedral:2",
                                  "product:dihedral:4,cyclic:3", "product:dihedral:3,dihedral:4"])
def test_no_builtin_stack_is_copied(spec):
    g = vl.build_builtin_group(spec)
    stacks = reps._builtin_stacks(vl.groups.parse_builtin_spec(spec))
    s = vl.IrrepSet(g, stacks)
    assert all(s.stacks[d] is stack for d, stack in stacks.items())


def d64_blocks():
    """The blocks the walk cuts dihedral:64's dim-2 stack into under
    small_blocks, as lists of irrep indices."""
    two = [i for i, d in enumerate(D64_IRREPS.dims) if d == 2]
    size = D64_BLOCK_ENTRIES // (D64.order * 4 * len(D64.generators))
    return [two[k:k + size] for k in range(0, len(two), size)]


def test_perturbed_irrep_is_mid_block():
    assert [7, 8, 9] in d64_blocks()
    assert NON_GENERATOR not in D64.generators


def test_non_generator_message_names_a_failing_pair(small_blocks):
    with pytest.raises(RepresentationError) as info:
        reps.validate_irrep_set(unvalidated(*non_generator_change()))
    a, b = re.search(r"pair \('([^']*)', '([^']*)'\)", str(info.value)).groups()
    g, s = D64.index_of(a), D64.index_of(b)
    assert s in D64.generators
    # rho(g) rho(s) = rho(g s) fails exactly where g or g s is the element
    assert NON_GENERATOR in (g, int(D64.mul[g, s]))


def test_a_non_finite_entry_in_a_later_block_is_refused(small_blocks):
    # irrep 34, the last of the dim-2 stack, is in its last block; every
    # earlier block is proven first, and the walk still finds the nan
    blocks = d64_blocks()
    assert len(blocks) > 1 and blocks[-1][-1] == 34 and 34 not in blocks[0]
    mats = np.array(irrep_matrices(D64_IRREPS, 34))
    mats[NON_GENERATOR, 1, 0] = np.nan
    stacks = replaced_stacks(D64_IRREPS, 34, mats)
    for validate in (lambda: reps.validate_irrep_set(shaped(D64_IRREPS, stacks)),
                     lambda: vl.IrrepSet(D64, stacks)):
        with pytest.raises(RepresentationError, match="stack of dim 2: holds a non-finite entry"):
            validate()


def doubled(i, j):
    """diag(chi_i, chi_j) of dihedral:64's 1-dim irreps i and j: a reducible
    representation with <chi, chi> = 2n, or 4n when i = j."""
    mats = np.zeros((D64.order, 2, 2), dtype=complex)
    mats[:, 0, 0] = irrep_matrices(D64_IRREPS, i)[:, 0, 0]
    mats[:, 1, 1] = irrep_matrices(D64_IRREPS, j)[:, 0, 0]
    return mats


@pytest.mark.parametrize("early, late, worse", [(doubled(1, 2), doubled(1, 1), 30),
                                                (doubled(3, 3), doubled(1, 2), 5)])
def test_the_worse_of_two_reducible_rows_in_different_blocks_is_named(
        small_blocks, early, late, worse):
    # irreps 5 and 30 are in different blocks; the norms of every block are
    # kept, and the norm check names the row farthest from n, 4n against 2n
    assert not any(5 in block and 30 in block for block in d64_blocks())
    stacks = replaced_stacks(D64_IRREPS, 5, early)
    stacks[2][30 - D64_IRREPS.dims.index(2)] = late
    n = D64.order
    message = re.escape(f"character rows {worse} and {worse} violate orthogonality "
                        f"(<chi_{worse}, chi_{worse}> = {4 * n}, expected {n})")
    with pytest.raises(RepresentationError, match=message):
        reps.validate_irrep_set(shaped(D64_IRREPS, stacks))
    with pytest.raises(RepresentationError, match=message):
        vl.IrrepSet(D64, stacks)


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_accepts_builtin_sets_as_the_oracle_does(spec):
    s = vl.builtin_irreps(vl.build_builtin_group(spec))
    validate_irrep_set_loop(s)
    rows = reps.validate_irrep_set(s)
    traces = [np.trace(irrep_matrices(s, i), axis1=1, axis2=2) for i in range(len(s.dims))]
    assert np.allclose(rows, traces, atol=1e-9)


def test_accepts_loaded_d3_set_as_the_oracle_does(d3, d3_irreps):
    s = vl.load_irreps(irreps_to_doc(d3, d3_irreps), d3)
    validate_irrep_set_loop(s)
    reps.validate_irrep_set(s)


def test_character_table_reuses_the_validated_rows(d3_irreps):
    t = vl.character_table(d3_irreps)
    assert t.rows is d3_irreps.characters
    assert not t.rows.flags.writeable


def test_characters_of_an_invalid_set_raise():
    # an IrrepSet validates before it sets its character rows, however it
    # is made: by its constructor from a dict or a read-only mapping, or by replace
    _, stacks = duplicate()
    for make in (lambda: vl.IrrepSet(D8, stacks),
                 lambda: vl.IrrepSet(D8, types.MappingProxyType(stacks)),
                 lambda: dataclasses.replace(D8_IRREPS, stacks=stacks)):
        with pytest.raises(RepresentationError, match="rows 4 and 5 violate orthogonality"):
            make()


def test_characters_are_a_read_only_field_set_when_made():
    s = vl.IrrepSet(D8, D8_IRREPS.stacks)
    assert "characters" in vars(s)  # set by the constructor, not on a first read
    assert np.array_equal(s.characters, D8_IRREPS.characters)
    assert not s.characters.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.characters = D8_IRREPS.characters
    with pytest.raises(TypeError):  # not constructor arguments: dims come from the stacks
        vl.IrrepSet(D8, D8_IRREPS.stacks, characters=D8_IRREPS.characters)
    with pytest.raises(TypeError):
        vl.IrrepSet(D8, D8_IRREPS.dims, D8_IRREPS.stacks)


def test_stacks_are_frozen_when_made():
    # made from a dict of writable arrays, the set keeps a read-only
    # mapping of read-only copies: no matrix can be swapped in or edited
    # after validation, so every route uses the matrices the checks saw
    given = {k: np.array(stack) for k, stack in D8_IRREPS.stacks.items()}
    for s in (vl.IrrepSet(D8, given),
              dataclasses.replace(D8_IRREPS, stacks=dict(given))):
        with pytest.raises(TypeError):
            s.stacks[2] = np.zeros_like(s.stacks[2])
        with pytest.raises(ValueError, match="read-only"):
            s.stacks[2][0, 0, 0, 0] = 0
        assert np.array_equal(s.characters, D8_IRREPS.characters)
    assert all(stack.flags.writeable for stack in given.values())  # not frozen: copied
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
        (stack,) = reps._cyclic_irreps(self.M).values()
        assert stack.shape == (self.M, self.M, 1, 1)
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

"""Character-table validation against the full-Gram oracle.

A CharacterTable checks its rows' shape, finiteness and degrees when it is
made, puts them in dimension-major order, and then proves them the
irreducible characters with no nu x nu Gram product on success: the
degree-1 rows are checked as 1-dim irreps, the trivial row and the
regular character as for an IrrepSet, and only the rows of degree 2 or
more against every row, over class representatives. The tables below
show what each part catches that the irrep shortcut alone would not, and
that construction accepts exactly the tables
validate_character_table_gram accepts, bar a table at the edge of the
tolerances, which the regular-character test alone refuses.
"""

import json
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

import voltlift as vl
from voltlift import reps
from voltlift.reps import RepresentationError

from conftest import GROUP_POOL_SPECS
from oracles import validate_character_table_gram

DATA = os.path.join(os.path.dirname(__file__), "data")
D3 = vl.build_builtin_group("dihedral:3")
D3_ROWS = vl.builtin_irreps(D3).characters
D5 = vl.build_builtin_group("dihedral:5")
D4C3 = vl.build_builtin_group("product:dihedral:4,cyclic:3")
C3 = vl.build_builtin_group("cyclic:3")
C8 = vl.build_builtin_group("cyclic:8")


def builtin_rows(g):
    return np.array(vl.builtin_irreps(g).characters)


def d5_mixed():
    """The committed dihedral:5 table whose degree-2 rows are
    (chi2 + chi3 + chi1 - chi0) / 2 and (chi2 + chi3 - chi1 + chi0) / 2."""
    return D5, rows_of_doc("d5_mixed_chars.json", D5)


def rows_of_doc(name, g):
    """A character-table document's rows per element, unvalidated."""
    with open(os.path.join(DATA, name)) as f:
        doc = json.load(f)
    rows = np.empty((len(doc["rows"]), g.order), dtype=complex)
    for c, cls in enumerate(doc["classes"]):
        for i, row in enumerate(doc["rows"]):
            rows[i, [g.index_of(x) for x in cls]] = complex(*row[c])
    return rows


def duplicated_linear_row():
    rows = builtin_rows(D4C3)
    rows[2] = rows[1]
    return D4C3, rows


def changed(g, i, elements, value):
    rows = builtin_rows(g)
    rows[i, elements] = value
    return g, rows


# tables that are not the characters of their group, each (group, rows)
BAD_TABLES = {
    "d5 mixed degree 2": d5_mixed,
    "duplicated degree 1": duplicated_linear_row,
    "c3 mixed degree 1": lambda: (C3, rows_of_doc("c3_mixed_chars.json", C3)),
    "cyclic:8 row 7 negated at g^3": lambda: changed(C8, 7, 3, -builtin_rows(C8)[7, 3]),
    "not constant on a class": lambda: changed(D3, 1, D3.index_of("r^2*s"), -1 + 1e-6),
    "perturbed columns": lambda: changed(D3, 2, [D3.index_of("r^1"), D3.index_of("r^2")], -1.5),
    "degrees 1, 1, 1": lambda: (D3, np.ones((3, 6))),
    "nan": lambda: changed(D3, 2, 4, np.nan),
    "inf": lambda: changed(D3, 0, 1, np.inf),
}


def library_accepts(g, rows) -> bool:
    try:
        vl.CharacterTable(g, rows)
    except RepresentationError:
        return False
    return True


def oracle_accepts(g, rows) -> bool:
    try:
        validate_character_table_gram(SimpleNamespace(group=g, rows=rows))
    except RepresentationError:
        return False
    return True


@pytest.mark.parametrize("spec", GROUP_POOL_SPECS)
def test_builtin_tables_are_accepted_as_the_oracle_accepts_them(spec):
    g = vl.build_builtin_group(spec)
    assert library_accepts(g, builtin_rows(g)) and oracle_accepts(g, builtin_rows(g))


@pytest.mark.parametrize("name", BAD_TABLES)
def test_bad_tables_are_refused_as_the_oracle_refuses_them(name):
    g, rows = BAD_TABLES[name]()
    assert not library_accepts(g, rows)
    assert not oracle_accepts(g, rows)


def test_the_mixed_degree_2_rows_pass_the_irrep_shortcut():
    # every row has norm n and sum d_i chi_i is the regular character, so
    # the norm and regular-character tests alone accept the table; only
    # the degree-2 rows' orthogonality to the linear rows refuses it
    g, rows = d5_mixed()
    chi0, chi1, chi2, chi3 = builtin_rows(g)
    mixed = [chi0, chi1, (chi2 + chi3 + chi1 - chi0) / 2, (chi2 + chi3 - chi1 + chi0) / 2]
    assert np.allclose(rows, mixed, rtol=0, atol=1e-12)
    assert np.array_equal(rows[:, [c[0] for c in g.classes]],
                          [[1, 1, 1, 1], [1, 1, 1, -1], [2, -0.5, -0.5, -1], [2, -0.5, -0.5, 1]])
    assert np.allclose(np.einsum("ig,ig->i", rows, rows.conj()), g.order)
    reps._check_regular_character(g, rows, (1, 1, 2, 2))
    with open(os.path.join(DATA, "d5_mixed_chars.json")) as f:
        doc = f.read()
    with pytest.raises(RepresentationError,
                       match=r"character rows [23] and [01] violate orthogonality"):
        vl.load_character_table(doc, g)


def test_the_regular_character_test_is_stricter_than_the_gram_product():
    # every 2-dim row of dihedral:12 raised by eps at the central r^6, where
    # each is +-2: every Gram entry moves by at most 4 eps + eps^2, inside
    # SUM_TOL * n, but sum_i d_i chi_i moves by 2 * 5 * eps at r^6, past it;
    # the Gram product passes, and the regular-character test refuses
    g = vl.build_builtin_group("dihedral:12")
    rows, eps = builtin_rows(g), 4e-8
    rows[np.array(vl.builtin_irreps(g).dims) == 2, g.index_of("r^6")] += eps
    n = g.order
    assert np.abs(rows @ rows.conj().T - n * np.eye(len(rows))).max() < reps.SUM_TOL * n
    assert oracle_accepts(g, rows)
    with pytest.raises(RepresentationError, match=re.escape(
            "character rows violate orthogonality: sum of dim * chi is not the regular character")):
        vl.CharacterTable(g, rows)


def test_a_first_row_that_is_not_trivial_is_refused():
    # sign, sign and 3 [g = e] - sign: the degree-1 rows are homomorphisms,
    # the second with zero sum, and 2 sign + 2 (3 [g = e] - sign) is the
    # regular character; only the trivial-row test is left to refuse it.
    # An IrrepSet cannot get here: its rows are characters, and the
    # zero-sum test refuses a trivial irrep that is not first
    sign = D3_ROWS[1]
    rows = np.array([sign, sign, 3 * (np.arange(D3.order) == D3.identity) - sign])
    with pytest.raises(RepresentationError, match="first character row is not the trivial character"):
        vl.CharacterTable(D3, rows)
    assert not oracle_accepts(D3, rows)


def test_a_duplicated_degree_1_row_is_refused():
    # the rows pass the shape and degree checks (the first three degrees
    # are 1), but the higher rows are orthogonal to both copies; the
    # regular character test fails, and the Gram product names the pair,
    # when the table is made
    g, rows = duplicated_linear_row()
    assert np.array_equal(rows[:3, g.identity], [1, 1, 1])
    with pytest.raises(RepresentationError, match=r"character rows 1 and 2 violate orthogonality"):
        vl.CharacterTable(g, rows)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("row, element", [(0, 1), (2, 0), (2, 4)])
def test_non_finite_rows_are_refused_when_made(value, row, element):
    _, rows = changed(D3, row, element, value)
    with pytest.raises(RepresentationError, match="character rows hold a non-finite entry"):
        vl.CharacterTable(D3, rows)


@pytest.mark.parametrize("rows, accepted", [
    (D3_ROWS.tolist(), True),
    ([[1] * 6] * 3, False),  # degrees 1, 1, 1
    ([[1] * 6, [1] * 5, [2] * 6], False),  # ragged
    ([["one"] * 6] * 3, False),
    ([[None] * 6] * 3, False),  # read as nan
    ([1] * 6, False),
    ([[[1]] * 6] * 3, False),
])
def test_nested_list_rows_are_accepted_or_refused_cleanly(rows, accepted):
    # a list has no setflags: it is read as an array, never an AttributeError
    if accepted:
        t = vl.CharacterTable(D3, rows)
        assert np.array_equal(t.rows, D3_ROWS) and not t.rows.flags.writeable
    else:
        with pytest.raises(RepresentationError):
            vl.CharacterTable(D3, rows)


@pytest.mark.parametrize("read_only_view", [False, True])
def test_a_table_does_not_change_with_its_callers_array(read_only_view):
    rows = np.array(D3_ROWS)
    given = rows
    if read_only_view:
        given = rows.view()
        given.setflags(write=False)
    t = vl.CharacterTable(D3, given)
    rows[:] = 0
    assert rows.flags.writeable and not np.shares_memory(t.rows, rows)
    assert np.array_equal(t.rows, D3_ROWS) and not t.rows.flags.writeable


def test_read_only_rows_of_a_caller_are_copied():
    # a caller can turn writing back on, so only rows the library froze
    # itself are kept as given
    frozen = np.array(D3_ROWS)
    frozen.setflags(write=False)
    t = vl.CharacterTable(D3, frozen)
    assert not np.shares_memory(t.rows, frozen)
    frozen.setflags(write=True)
    frozen[:] = 0
    assert np.array_equal(t.rows, D3_ROWS)
    s = vl.builtin_irreps(D4C3)
    assert vl.character_table(s).rows is s.characters


def test_rows_out_of_degree_order_come_back_dimension_major():
    g = D4C3
    s = vl.builtin_irreps(g)
    order = [0] + list(range(len(s.dims) - 1, 0, -1))  # trivial first, the rest reversed
    given = s.characters[order]
    t = vl.CharacterTable(g, given)
    assert t.dims == s.dims
    assert np.array_equal(t.rows, given[np.argsort(np.asarray(s.dims)[order], kind="stable")])
    d = vl.VoltageDigraph(g, ["u", "v"], [(0, 1, 1), (1, 0, 5), (1, 1, 7), (0, 0, 2)])
    want = vl.lift_spectrum_charsum(d, vl.character_table(s), 1e-8)
    got = vl.lift_spectrum_charsum(d, t, 1e-8)
    assert got.total == want.total == d.order * g.order
    assert vl.spectra_equal(got, want, 1e-9).matched


@pytest.mark.parametrize("spec", ["cyclic:64", "dihedral:16", "product:dihedral:4,cyclic:3"])
def test_success_forms_no_gram_product(spec, monkeypatch):
    # one (nu - linear) x nu product over classes for the higher rows, none
    # for an abelian group; the nu x nu Gram product only names a failure
    g = vl.build_builtin_group(spec)
    s = vl.builtin_irreps(g)
    shapes = []
    monkeypatch.setattr(reps, "_check_orthogonality",
                        lambda gram, first, n: shapes.append((gram.shape, first)))
    t = vl.CharacterTable(g, s.characters)
    linear = t.dims.count(1)
    nu = len(t.dims)
    assert shapes == ([((nu - linear, nu), linear)] if linear < nu else [])


@pytest.mark.parametrize("rows_per_block", [1, 2, 3, None])
def test_class_constancy_names_the_first_row_and_class_in_row_major_order(
        rows_per_block, monkeypatch):
    # rows 8 and 9 of dihedral:16 are each broken on two classes; blocked
    # or not, the message names what the whole (nu, n - k) comparison
    # names first in row-major order: row 8, at its earlier class
    g = vl.build_builtin_group("dihedral:16")
    rows = np.array(vl.character_table(vl.builtin_irreps(g)).rows)
    later = [x for cls in g.classes for x in cls[1:]]
    if rows_per_block:
        monkeypatch.setattr(reps, "BLOCK_ENTRIES", rows_per_block * len(later))
    broken = [(9, g.classes[1][1]), (8, g.classes[-1][-1]), (8, g.classes[2][1]),
              (9, g.classes[-2][1])]
    for i, x in broken:
        rows[i, x] += 0.5
    first = [cls[0] for cls in g.classes for _ in cls[1:]]
    i, k = np.unravel_index(np.argmax(np.abs(rows[:, later] - rows[:, first]) > 1e-9),
                            (len(rows), len(later)))
    cls = next(c for c in g.classes if later[k] in c)
    assert (i, cls) == (8, g.classes[2])
    with pytest.raises(RepresentationError, match=re.escape(f"row 8 is not constant on class {cls}")):
        vl.CharacterTable(g, rows)


def test_a_degree_1_row_that_fails_only_in_a_later_block_is_refused(monkeypatch):
    # the 64 linear rows of cyclic:64, 48 to a block: row 60, in the second
    # block, moved by 1e-6 at g^5 is no homomorphism, and nothing in the
    # first block fails
    g = vl.build_builtin_group("cyclic:64")
    size = 48
    monkeypatch.setattr(reps, "BLOCK_ENTRIES", size * g.order * len(g.generators))
    _, rows = changed(g, 60, g.index_of("g^5"), builtin_rows(g)[60, g.index_of("g^5")] + 1e-6)
    assert size <= 60 < 2 * size
    with pytest.raises(RepresentationError, match=r"irrep 60 \(dim 1\): not a homomorphism at pair"):
        vl.CharacterTable(g, rows)
    assert not oracle_accepts(g, rows)

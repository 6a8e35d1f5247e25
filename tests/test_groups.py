import dataclasses
import json
import math
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import voltlift as vl
from voltlift import groups
from voltlift.groups import GroupError, connected_components, make_group_table

from conftest import GROUP_POOL_SPECS
from oracles import closure_generators, find_isomorphism
from test_reps import SMALL_BUILTINS

FAMILY_SPECS = ["cyclic:5", "cyclic:12", "dihedral:2", "dihedral:4", "dihedral:6",
                "product:cyclic:2,dihedral:3", "product:cyclic:4,cyclic:4"]
ALL_BUILTIN_SPECS = sorted(set(FAMILY_SPECS + GROUP_POOL_SPECS + SMALL_BUILTINS))
Q8_PATH = os.path.join(os.path.dirname(__file__), "data", "q8_group.json")


def components_bfs(m, tails, heads):
    """Oracle: label each node with the smallest node of its component, by a
    breadth-first search from each unlabelled node in increasing order."""
    adjacent = [[] for _ in range(m)]
    for t, h in zip(np.asarray(tails).tolist(), np.asarray(heads).tolist()):
        adjacent[t].append(h)
        adjacent[h].append(t)
    label = [-1] * m
    for start in range(m):
        if label[start] < 0:
            label[start] = start
            queue = [start]
            for x in queue:  # the queue grows while it is read
                for y in adjacent[x]:
                    if label[y] < 0:
                        label[y] = start
                        queue.append(y)
    return label


def conjugacy_partition_all_elements(g):
    """Oracle: classes as orbits under conjugation by every element."""
    inv = np.asarray(g.inverse)
    hs = np.arange(g.order)
    seen = set()
    classes = []
    for x in range(g.order):
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for z in np.unique(g.mul[g.mul[hs, y], inv]):
                if int(z) not in orbit:
                    orbit.add(int(z))
                    frontier.append(int(z))
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: c[0])
    classes.sort(key=lambda c: g.identity not in c)
    return tuple(classes)


def closure_under_products(g, gens):
    """Every element reachable from the identity by right-multiplying by gens."""
    reached = {g.identity}
    frontier = [g.identity]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = int(g.mul[x, s])
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def assert_group_invariants(g):
    n = g.order
    target = np.arange(n)
    # Latin square
    assert np.array_equal(np.sort(g.mul, axis=1), np.tile(target, (n, 1)))
    assert np.array_equal(np.sort(g.mul, axis=0), np.tile(target[:, None], (1, n)))
    # identity and inverses
    assert np.array_equal(g.mul[g.identity], target)
    assert np.array_equal(g.mul[:, g.identity], target)
    for a in range(n):
        assert g.mul[a, g.inverse[a]] == g.identity
        assert g.mul[g.inverse[a], a] == g.identity
    # exhaustive associativity (callers keep n <= 64)
    for a in range(n):
        assert np.array_equal(g.mul[g.mul[a], :], g.mul[a][g.mul])
    # classes form a partition and are conjugation orbits
    flat = sorted(x for cls in g.classes for x in cls)
    assert flat == list(range(n))
    inv = np.asarray(g.inverse)
    for cls in g.classes:
        orbit = set()
        for x in cls:
            orbit.update(int(y) for y in g.mul[g.mul[:, x], inv])
        assert orbit == set(cls)


class TestBuiltinGroups:
    def test_trivial(self):
        g = vl.build_builtin_group("cyclic:1")
        assert g.order == 1
        assert g.classes == ((0,),)
        assert_group_invariants(g)

    def test_dihedral_3_classes(self):
        g = vl.build_builtin_group("dihedral:3")
        assert g.order == 6
        sizes = sorted(len(c) for c in g.classes)
        assert sizes == [1, 2, 3]
        # identity's class comes first
        assert g.classes[0] == (g.identity,)
        assert_group_invariants(g)

    def test_product_c2_c3_abelian(self):
        g = vl.build_builtin_group("product:cyclic:2,cyclic:3")
        assert g.order == 6
        assert g.is_abelian()
        assert len(g.classes) == 6
        assert_group_invariants(g)

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_invariants_across_families(self, spec):
        g = vl.build_builtin_group(spec)
        assert_group_invariants(g)

    def test_dihedral_relations(self):
        g = vl.build_builtin_group("dihedral:5")
        r = g.index_of("r^1")
        s = g.index_of("r^0*s")
        rs = int(g.mul[r, s])
        assert int(g.mul[s, s]) == g.identity
        assert int(g.mul[rs, rs]) == g.identity
        x = r
        for _ in range(4):
            x = int(g.mul[x, r])
        assert x == g.identity

    @pytest.mark.parametrize(
        "spec", ["cyclic", "cyclic:x", "frobnicate:3", "dihedral:1", "cyclic:0",
                 "product:cyclic:2", "cyclic:9999"]
    )
    def test_malformed_specs(self, spec):
        with pytest.raises(GroupError):
            vl.build_builtin_group(spec)

    def test_order_cap(self):
        with pytest.raises(GroupError):
            vl.build_builtin_group("dihedral:3000")

    def test_product_order_is_not_taken_modulo_2_64(self):
        # 2^64 factors of order 2 would wrap to 0 in int64
        message = f"product order {2 ** 64} exceeds supported maximum 4096"
        with pytest.raises(GroupError, match=message):
            vl.build_builtin_group("product:" + ",".join(["cyclic:2"] * 64))


# (spec, its canonical family tag or the GroupError message)
SPEC_GRAMMAR = [
    ("cyclic:007", "cyclic:7"),
    (" cyclic:5 ", "cyclic:5"),
    ("product: cyclic:2, dihedral:3", "product:cyclic:2,dihedral:3"),
    ("cyclic:0", "cyclic group order must be >= 1"),
    ("dihedral:1", "dihedral parameter must be >= 2"),
    ("product:cyclic:2", "product spec needs at least two factors: 'product:cyclic:2'"),
    ("product:product:cyclic:2,cyclic:2,cyclic:3", "nested product specs are not supported"),
    ("product:cyclic:5000,cyclic:1", "order 5000 exceeds supported maximum 4096"),
    ("product:cyclic:64,cyclic:128", "product order 8192 exceeds supported maximum 4096"),
    ("product:cyclic:2,quat:8", "unknown group family 'quat' in spec 'quat:8'"),
    ("Cyclic:4", "unknown group family 'Cyclic' in spec 'Cyclic:4'"),
    ("cyclic:", "malformed group spec 'cyclic:'"),
    ("cyclic:4:5", "malformed group spec 'cyclic:4:5'"),
    ("product:cyclic:2,,cyclic:3", "malformed group spec ''"),
    # n is ASCII decimal digits, nothing else int() would read
    ("cyclic:3_0", "malformed group spec 'cyclic:3_0'"),
    ("dihedral:0_2", "malformed group spec 'dihedral:0_2'"),
    ("cyclic:+3", "malformed group spec 'cyclic:+3'"),
    ("cyclic: 3", "malformed group spec 'cyclic: 3'"),
    ("cyclic:-3", "malformed group spec 'cyclic:-3'"),
    ("cyclic:\u0663", "malformed group spec 'cyclic:\u0663'"),
    ("product:cyclic:2,dihedral:+3", "malformed group spec 'dihedral:+3'"),
    # past the interpreter's digit limit int() raises too
    pytest.param("cyclic:" + "1" * 5000,
                 "malformed group spec " + groups.short_repr("cyclic:" + "1" * 5000),
                 id="5000-digit-n"),
]


@pytest.mark.parametrize("spec, outcome", SPEC_GRAMMAR)
def test_spec_grammar(spec, outcome):
    if outcome.startswith(("cyclic:", "dihedral:", "product:")):
        g = vl.build_builtin_group(spec)
        assert g.family == outcome
        assert np.array_equal(g.mul, vl.build_builtin_group(outcome).mul)
    else:
        with pytest.raises(GroupError) as info:
            vl.build_builtin_group(spec)
        assert str(info.value) == outcome


class TestFactorChecks:
    """A product's table is validated once, as a whole, and no factor table
    on its own: a broken factor must still break the product."""

    @staticmethod
    def replace_cyclic(monkeypatch, m, mul):
        cyclic = groups._FAMILIES["cyclic"]
        table = cyclic[0]
        monkeypatch.setitem(groups._FAMILIES, "cyclic", (
            lambda k: (table(k)[0], mul) if k == m else table(k), *cyclic[1:]))

    def test_a_non_latin_factor_breaks_the_product(self, monkeypatch):
        mul = (np.arange(3)[:, None] + np.arange(3)) % 3
        mul[2] = mul[1]
        self.replace_cyclic(monkeypatch, 3, mul)
        with pytest.raises(GroupError, match="not a Latin square"):
            vl.build_builtin_group("product:cyclic:2,cyclic:3")

    def test_a_non_associative_factor_breaks_the_product(self, monkeypatch):
        # the smallest loop that is not a group: a Latin square with
        # identity 0 and x * x = 0, but (1*2)*4 = 1 != 4 = 1*(2*4)
        loop = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
        self.replace_cyclic(monkeypatch, 5, loop)
        with pytest.raises(GroupError, match="associativity fails"):
            vl.build_builtin_group("product:dihedral:3,cyclic:5")


@pytest.mark.parametrize(
    "spec", ALL_BUILTIN_SPECS + ["dihedral:128", "product:dihedral:8,cyclic:16", "q8"]
)
def test_generators_and_classes(spec):
    if spec == "q8":
        with open(Q8_PATH) as f:
            g = vl.parse_group_table(f.read())
    else:
        g = vl.build_builtin_group(spec)
    assert closure_under_products(g, g.generators) == set(range(g.order))
    assert len(g.generators) <= math.ceil(math.log2(g.order))
    assert g.classes == conjugacy_partition_all_elements(g)


# CI's four MAX_ORDER specs
MAX_ORDER_SPECS = ["cyclic:4096", "dihedral:2048", "product:dihedral:32,cyclic:64",
                   "product:cyclic:2,cyclic:2048"]


@pytest.mark.parametrize(
    "spec", ALL_BUILTIN_SPECS + ["dihedral:128", "product:dihedral:8,cyclic:16", "q8"]
    + MAX_ORDER_SPECS)
def test_generators_equal_the_closure_rule(spec):
    # the identity's component of the links x -- x*s is the subgroup the
    # generators generate, so the greedy rule picks the closure rule's tuple
    if spec == "q8":
        with open(Q8_PATH) as f:
            g = vl.parse_group_table(f.read())
    else:
        g = vl.build_builtin_group(spec)
    assert g.generators == closure_generators(g.mul, g.identity)


def test_a_non_associative_latin_square_is_refused_through_its_generators():
    # the smallest loop that is not a group: every element is reached by
    # left-bracketed products of the generators, so Light's test over them
    # still finds a failure, (1*1)*2 = 2 != 4 = 1*(1*2) at the first one
    loop = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    gens = groups._generating_set(loop, 0)
    table = SimpleNamespace(mul=loop, identity=0)
    assert closure_under_products(table, gens) == set(range(5))
    assert gens == closure_generators(loop, 0)
    with pytest.raises(GroupError, match=re.escape("associativity fails at (1, 1, 2)")):
        make_group_table(list("eabcd"), loop)


@pytest.mark.parametrize("spec", GROUP_POOL_SPECS + ["q8", "s3_relabelled"])
def test_is_abelian_matches_the_table(spec):
    # is_abelian reads the classes; the oracle is the table's own symmetry
    if spec == "q8":
        with open(Q8_PATH) as f:
            g = vl.parse_group_table(f.read())
    elif spec == "s3_relabelled":
        # dihedral:3 as a custom table, rows and columns shuffled
        d3 = vl.build_builtin_group("dihedral:3")
        p = np.array([3, 0, 5, 1, 4, 2])
        mul = np.empty_like(d3.mul)
        mul[p[:, None], p[None, :]] = p[d3.mul]
        g = make_group_table([f"x{i}" for i in range(6)], mul)
        assert g.family is None
    else:
        g = vl.build_builtin_group(spec)
    assert g.is_abelian() == np.array_equal(g.mul, g.mul.T)


def test_identity_class_first_at_any_index():
    # dihedral:5 relabelled so that the identity is not element 0
    g = vl.build_builtin_group("dihedral:5")
    p = np.roll(np.arange(g.order), 4)
    mul = np.empty_like(g.mul)
    mul[p[:, None], p[None, :]] = p[g.mul]
    h = make_group_table([str(i) for i in range(g.order)], mul)
    assert h.identity == 6
    assert h.classes[0] == (6,)
    assert h.classes == conjugacy_partition_all_elements(h)


class TestConnectedComponents:
    @staticmethod
    def check(m, tails, heads):
        tails, heads = np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)
        label = connected_components(m, tails, heads)
        assert label.tolist() == components_bfs(m, tails, heads)
        return label

    def test_no_links(self):
        assert self.check(5, [], []).tolist() == [0, 1, 2, 3, 4]

    def test_self_links(self):
        assert self.check(4, [0, 2, 3], [0, 2, 3]).tolist() == [0, 1, 2, 3]

    def test_either_direction(self):
        # 3 -- 1 given as (3, 1) and 2 -- 4 as (2, 4)
        assert self.check(5, [3, 2], [1, 4]).tolist() == [0, 1, 2, 1, 2]

    def test_duplicate_links(self):
        assert self.check(4, [2, 3, 2, 3, 3], [3, 2, 3, 2, 0]).tolist() == [0, 1, 0, 0]

    @pytest.mark.parametrize("cycle", [False, True])
    def test_shuffled_path_and_cycle(self, cycle):
        # 4096 nodes in a random order along a path (closed into a cycle),
        # its links shuffled and each given in a random direction
        rng = np.random.default_rng(5)
        m = 4096
        walk = rng.permutation(m)
        tails, heads = walk[:-1], walk[1:]
        if cycle:
            tails, heads = np.append(tails, walk[-1]), np.append(heads, walk[0])
        shuffle = rng.permutation(len(tails))
        flip = rng.random(len(tails)) < 0.5
        tails, heads = np.where(flip, heads, tails)[shuffle], np.where(flip, tails, heads)[shuffle]
        assert not self.check(m, tails, heads).any()

    def test_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 60))
            links = int(rng.integers(0, m + 1))
            self.check(m, rng.integers(m, size=links), rng.integers(m, size=links))


class TestParseGroupTable:
    def test_z2(self):
        g = vl.parse_group_table({"elements": ["e", "a"], "mul": [[0, 1], [1, 0]]})
        assert g.identity == 0
        assert g.inverse[1] == 1
        assert_group_invariants(g)

    def test_json_text_input(self):
        doc = json.dumps({"elements": ["e", "a"], "mul": [[0, 1], [1, 0]]})
        g = vl.parse_group_table(doc)
        assert g.order == 2

    def test_not_latin_square(self):
        with pytest.raises(GroupError, match="Latin square"):
            vl.parse_group_table({"elements": ["e", "a"], "mul": [[0, 0], [1, 1]]})

    def test_no_identity(self):
        # subtraction mod 3: a Latin square with no two-sided identity
        mul = [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
        with pytest.raises(GroupError, match="identity"):
            vl.parse_group_table({"elements": list("abc"), "mul": mul})

    def test_duplicate_names(self):
        with pytest.raises(GroupError, match="duplicate"):
            vl.parse_group_table({"elements": ["e", "e"], "mul": [[0, 1], [1, 0]]})

    def test_associativity_failure(self):
        # a Latin square with identity row/col that is not associative
        mul = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupError, match="associativity"):
            vl.parse_group_table({"elements": list("eabcd"), "mul": mul})

    def test_large_associativity_failure(self):
        # cyclic:300 with one intercalate swapped: still a Latin square with
        # identity 0 and two-sided inverses, but no longer associative
        mul = np.array(vl.build_builtin_group("cyclic:300").mul)
        rows, cols = [3, 153], [7, 157]
        mul[np.ix_(rows, cols)] = mul[np.ix_(rows, cols[::-1])]
        names = [f"x{i}" for i in range(300)]
        with pytest.raises(GroupError, match="associativity"):
            make_group_table(names, mul)

    def test_associativity_check_holds_one_generator_pair(self):
        # dihedral:512 has two generators and n = 1024; the check peaks at
        # a block of rows of each side, BLOCK_ENTRIES int64 entries each
        # (the previous block's two sides live until the new left side
        # replaces them), and their bool comparison: never at an n x n
        # array, let alone at two generators' pairs
        g = vl.build_builtin_group("dihedral:512")
        n = g.order
        assert len(g.generators) == 2 and g.mul.dtype == np.int64
        assert 25 * groups.BLOCK_ENTRIES + 2**16 < 8 * n * n  # one n x n int64 array
        tracemalloc.start()
        try:
            groups._check_associativity(g.mul, g.generators)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25 * groups.BLOCK_ENTRIES + 2**16

    def test_latin_square_check_holds_one_block(self):
        # one int64 key and one flag per entry of a block, made once
        g = vl.build_builtin_group("dihedral:512")
        tracemalloc.start()
        try:
            groups._check_latin_square(g.mul)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11 * groups.BLOCK_ENTRIES + 2**16

    @pytest.mark.parametrize("rows_per_block", [1, 7, 64, None])
    def test_associativity_failure_in_the_last_row_block(self, rows_per_block, monkeypatch):
        # product:cyclic:150,cyclic:2 puts (i, j) at 2i + j, so (0, 1), of
        # order 2, links rows 298 and 299, and columns 6 and 7: swapping the
        # four entries keeps a Latin square with identity and inverses. The
        # first failure, at generator (1, 0), is in row 296 = 298 - 2, in
        # the last block of 7, 64 or the default number of rows, and the
        # blocked test names the witness of the whole n x n comparison: the
        # first failing generator's first (x, y) in row-major order
        g = vl.build_builtin_group("product:cyclic:150,cyclic:2")
        mul = np.array(g.mul)
        mul[np.ix_([298, 299], [6, 7])] = mul[np.ix_([298, 299], [7, 6])]
        for a in groups._generating_set(mul, g.identity):
            left, right = mul[mul[:, a], :], mul[:, mul[a]]
            if (left != right).any():
                x, y = np.argwhere(left != right)[0]
                break
        assert (a, x) == (2, 296)
        if rows_per_block:
            monkeypatch.setattr(groups, "BLOCK_ENTRIES", rows_per_block * g.order)
        message = (f"associativity fails at ({x}, {a}, {y}): ({x}*{a})*{y} = {left[x, y]} "
                   f"!= {x}*({a}*{y}) = {right[x, y]}")
        with pytest.raises(GroupError) as info:
            make_group_table(g.element_names, mul)
        assert str(info.value) == message

    @pytest.mark.parametrize("rows_per_block", [1, 7, None])
    @pytest.mark.parametrize("what", ["row", "column"])
    def test_latin_square_failure_in_the_last_block(self, what, rows_per_block, monkeypatch):
        # cyclic:300 with a repeated entry in row 299, or with row 10's
        # entries in columns 298 and 299 swapped, which leaves every row a
        # permutation but not those two columns: either is in the last block
        mul = np.array(vl.build_builtin_group("cyclic:300").mul)
        if what == "row":
            mul[299, 5] = mul[299, 6]
        else:
            mul[10, [298, 299]] = mul[10, [299, 298]]
        if rows_per_block:
            monkeypatch.setattr(groups, "BLOCK_ENTRIES", rows_per_block * 300)
        with pytest.raises(GroupError, match=fr"not a Latin square \(bad {what}\)"):
            make_group_table([f"x{i}" for i in range(300)], mul)

    def test_elements_not_a_list_of_names(self):
        with pytest.raises(GroupError, match="list of names"):
            vl.parse_group_table({"elements": "ea", "mul": [[0, 1], [1, 0]]})

    def test_ragged_table(self):
        with pytest.raises(GroupError, match="square array"):
            vl.parse_group_table({"elements": ["e", "a"], "mul": [[0, 1], [1]]})

    @pytest.mark.parametrize(
        "mul",
        [[[0.0, 1.0], [1.0, 0.0]], [[0.4, 1], [1, 0]], [[True, False], [False, True]],
         [[0, 1], [1, 2**70]], 9.2e18, "01", [[False, 1], [1, 0]], [[0, 1], [1, True]]],
    )
    def test_non_integer_table(self, mul):
        # a float entry must not be truncated to an index
        with pytest.raises(GroupError, match="square array of integers"):
            vl.parse_group_table({"elements": ["e", "a"], "mul": mul})

    def test_d3_from_presentation_matches_builtin(self, d3):
        # generate the table from the dihedral presentation independently:
        # words over {r, s} normalized as permutations of 3 points
        import itertools

        r_perm = (1, 2, 0)
        s_perm = (0, 2, 1)

        def compose(p, q):
            return tuple(p[q[i]] for i in range(3))

        elements = sorted(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(elements)}
        mul = [[index[compose(p, q)] for q in elements] for p in elements]
        g = vl.parse_group_table(
            {"elements": [str(p) for p in elements], "mul": mul}
        )
        assert find_isomorphism(g, d3) is not None


class TestMakeGroupTableRefusals:
    def test_more_names_than_max_order(self):
        names = [f"x{i}" for i in range(groups.MAX_ORDER + 1)]
        with pytest.raises(GroupError, match=f"group order {groups.MAX_ORDER + 1} exceeds "
                                             f"supported maximum {groups.MAX_ORDER}"):
            make_group_table(names, [[0]])

    def test_table_not_n_by_n(self):
        with pytest.raises(GroupError, match=re.escape("must be 2x2, got (2, 3)")):
            make_group_table(["e", "a"], [[0, 1, 0], [1, 0, 1]])

    def test_entry_out_of_range(self):
        with pytest.raises(GroupError, match="table entry out of range"):
            make_group_table(["e", "a"], [[0, 1], [1, 2]])

    def test_latin_loop_without_two_sided_inverses(self):
        # a Latin square with identity 0 where 2 * 3 = 0 but 3 * 2 = 1
        rows = ["01234", "10342", "23401", "34120", "42013"]
        mul = [[int(c) for c in row] for row in rows]
        with pytest.raises(GroupError, match="element 2 has no two-sided inverse"):
            make_group_table([f"x{i}" for i in range(5)], mul)

    def test_index_of_an_unknown_name(self, d3):
        with pytest.raises(GroupError, match="unknown element name 'x'"):
            d3.index_of("x")


class TestGroupTableConstructor:
    """A GroupTable proves itself when made: no table can reach a route unproven."""

    @pytest.mark.parametrize("mul, message", [
        ([[0, 1, 2], [1, 2, 0], [1, 2, 0]], r"not a Latin square \(bad column\)"),
        ([[0, 1, 2], [1, 0, 2], [2, 2, 0]], r"not a Latin square \(bad row\)"),
        # a Latin square with identity 0 and two-sided inverses
        ([[int(c) for c in row] for row in ["01234", "10342", "24013", "32401", "43120"]],
         "associativity fails at"),
    ])
    def test_a_table_that_is_no_group_is_refused(self, mul, message):
        with pytest.raises(GroupError, match=message):
            vl.GroupTable([f"x{i}" for i in range(len(mul))], mul)

    def test_the_derived_fields_are_no_arguments(self):
        # order, identity, inverse, classes and generators come from the table
        with pytest.raises(TypeError, match="order"):
            vl.GroupTable(("e", "a", "b"), [[0, 1, 2], [1, 2, 0], [2, 0, 1]], order=3)
        init = [f.name for f in dataclasses.fields(vl.GroupTable) if f.init]
        assert init == ["element_names", "mul"]

    # a tag that is no builtin spec, a spec of another group, and no string
    @pytest.mark.parametrize("family", ["quat:8", "cyclic:x", "product:cyclic:2", "cyclic:4:5",
                                        "cyclic:3", 3])
    def test_the_family_tag_is_no_argument(self, family):
        # only build_builtin_group sets it, to the spec it built
        g = vl.build_builtin_group("cyclic:2")
        with pytest.raises(TypeError, match="family"):
            vl.GroupTable(g.element_names, g.mul, family=family)
        with pytest.raises(ValueError, match="family"):
            dataclasses.replace(g, family=family)
        assert g.family == "cyclic:2"

    def test_the_constructor_derives_the_other_fields(self):
        g = vl.GroupTable(("e", "a", "b"), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        h = make_group_table(("e", "a", "b"), [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert (g.order, g.identity, g.inverse, g.generators) == (3, 0, (0, 2, 1), (1,))
        assert g.classes == h.classes == ((0,), (1,), (2,))
        assert g.family is None is h.family
        assert vl.build_builtin_group("cyclic:3").family == "cyclic:3"
        assert not g.mul.flags.writeable


@pytest.mark.parametrize("spec", GROUP_POOL_SPECS)
def test_a_builtin_group_is_tagged_with_its_canonical_spec(spec):
    # the pool's specs are canonical, so each is its own tag
    assert vl.build_builtin_group(spec).family == spec


def test_names_only_the_cli_or_tests_used_leave_the_package_api():
    for name in ["make_group_table", "format_eigenvalue", "spectrum_to_json", "spectrum_to_text"]:
        assert not hasattr(vl, name), name
    # the benchmark's tracer wraps it in groups by name
    assert callable(groups.make_group_table)


class TestConjugacyClasses:
    def test_trivial(self):
        g = vl.build_builtin_group("cyclic:1")
        assert g.classes == ((0,),)

    def test_cyclic_5_singletons(self):
        g = vl.build_builtin_group("cyclic:5")
        assert g.classes == tuple((i,) for i in range(5))

    def test_d3_class_contents(self, d3):
        classes = {frozenset(c) for c in d3.classes}
        rots = frozenset({d3.index_of("r^1"), d3.index_of("r^2")})
        refl = frozenset(d3.index_of(f"r^{j}*s") for j in range(3))
        assert classes == {frozenset({d3.identity}), rots, refl}


def test_d3_isomorphic_to_s3(d3):
    # brute-force bijection search against the symmetric group on 3 points
    import itertools

    elements = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(elements)}
    mul = [
        [index[tuple(p[q[i]] for i in range(3))] for q in elements] for p in elements
    ]
    s3 = vl.parse_group_table({"elements": [str(p) for p in elements], "mul": mul})
    assert find_isomorphism(d3, s3) is not None

"""Arbitrary JSON-shaped input to the four document parsers.

Each parser must either accept a document or raise its own library error;
any other exception would reach the CLI as a traceback. Inputs are random
JSON values, and valid documents with one random subtree replaced.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltlift as vl
from voltlift.groups import GroupError
from voltlift.reps import RepresentationError
from voltlift.voltage import VoltageError

from conftest import HUGE_INPUTS, K2STAR_DOC, irrep_matrices

D3 = vl.build_builtin_group("dihedral:3")
D3_IRREPS = vl.builtin_irreps(D3)
NAMES = list(D3.element_names)


def pair(z):
    return [float(z.real), float(z.imag)]


GROUP_DOC = {"elements": NAMES, "mul": D3.mul.tolist()}
IRREPS_DOC = [
    {"dim": d,
     "matrices": {name: [[pair(z) for z in row] for row in m]
                  for name, m in zip(NAMES, irrep_matrices(D3_IRREPS, i))}}
    for i, d in enumerate(D3_IRREPS.dims)
]
CHARS_DOC = {
    "classes": [[NAMES[g] for g in cls] for cls in D3.classes],
    "rows": [[pair(row[cls[0]]) for cls in D3.classes]
             for row in vl.character_table(D3_IRREPS).rows],
}

KEYS = ["vertices", "arcs", "from", "to", "voltage", "a", "b", "elements", "mul",
        "dim", "matrices", "classes", "rows"] + NAMES
scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(KEYS)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated(draw, doc):
    """A copy of doc with the subtree at a random path replaced."""
    doc = copy.deepcopy(doc)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    replacement = draw(json_values)
    if parent is None:
        return replacement
    parent[key] = replacement
    return doc


def documents(valid):
    return json_values | mutated(valid)


def accepts_or_raises(parse, doc, error):
    try:
        parse(doc)
    except error:
        pass


@settings(max_examples=300, deadline=None)
@given(doc=documents(K2STAR_DOC))
def test_parse_voltage_digraph(doc):
    accepts_or_raises(lambda x: vl.parse_voltage_digraph(x, D3), doc, VoltageError)


@settings(max_examples=300, deadline=None)
@given(doc=documents(GROUP_DOC))
def test_parse_group_table(doc):
    accepts_or_raises(vl.parse_group_table, doc, GroupError)


@settings(max_examples=300, deadline=None)
@given(doc=documents(IRREPS_DOC))
def test_load_irreps(doc):
    accepts_or_raises(lambda x: vl.load_irreps(x, D3), doc, RepresentationError)


@settings(max_examples=300, deadline=None)
@given(doc=documents(CHARS_DOC))
def test_load_character_table(doc):
    accepts_or_raises(lambda x: vl.load_character_table(x, D3), doc, RepresentationError)


def test_valid_documents_parse():
    # the seeds of the mutation strategy are themselves accepted
    assert vl.parse_voltage_digraph(K2STAR_DOC, D3).order == 2
    assert np.array_equal(vl.parse_group_table(GROUP_DOC).mul, D3.mul)
    assert vl.load_irreps(IRREPS_DOC, D3).dims == (1, 1, 2)
    assert vl.load_character_table(CHARS_DOC, D3).dims == (1, 1, 2)


@pytest.mark.parametrize("text", ["", "{", "[1,]", b"\xff"])
def test_invalid_json_text(text):
    with pytest.raises(VoltageError, match="not valid JSON"):
        vl.parse_voltage_digraph(text, D3)
    with pytest.raises(GroupError, match="not valid JSON"):
        vl.parse_group_table(text)
    with pytest.raises(RepresentationError, match="not valid JSON"):
        vl.load_irreps(text, D3)
    with pytest.raises(RepresentationError, match="not valid JSON"):
        vl.load_character_table(text, D3)


@pytest.mark.parametrize("name", list(HUGE_INPUTS))
def test_error_message_does_not_echo_a_huge_value(name):
    kind, doc = HUGE_INPUTS[name]
    parse, error = {
        "digraph": (lambda: vl.parse_voltage_digraph(doc, D3), VoltageError),
        "chars": (lambda: vl.load_character_table(doc, D3), RepresentationError),
        "group": (lambda: vl.build_builtin_group(doc), GroupError),
    }[kind]
    with pytest.raises(error) as info:
        parse()
    assert len(str(info.value)) <= 300

"""Parsing, canonical emission and conversions for the .fsc format."""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcodes.fsc import (
    FscDocument,
    FscParseError,
    document_to_states,
    emit_fsc,
    parse_fsc,
    states_to_document,
)
from frcodes.gf import GF
from frcodes.storage import RepairingCollection
from frcodes.subspace import span
from oracles import exact_to_states

DATA = pathlib.Path(__file__).parent / "data"

MINIMAL = """\
FSC 1
field 2 1
ambient 4
params 4 2 3 2 1
subspace A
  row 1 0 0 0
  row 0 1 0 0
end
"""


def read_fixture(name):
    return (DATA / name).read_text()


class TestParse:
    def test_example_fixture(self):
        doc = parse_fsc(read_fixture("example1.fsc"))
        assert (doc.p, doc.e, doc.m) == (2, 1, 4)
        assert (doc.n, doc.k, doc.r, doc.alpha, doc.beta) == (4, 2, 3, 2, 1)
        assert sorted(doc.subspaces) == ["U0", "U1", "U2", "U3"]
        assert sorted(doc.collections) == ["C0", "C1", "C2", "C3"]
        assert doc.states == {"C0": "U0", "C1": "U1", "C2": "U2", "C3": "U3"}
        assert doc.subspaces["U0"] == span(GF(2), 4, [(1, 0, 0, 0), (0, 0, 1, 1)])
        assert doc.collections["C0"] == ("U1", "U2", "U3")

    def test_collections_only_document(self):
        doc = parse_fsc(MINIMAL)
        assert doc.states == {}
        assert doc.collections == {}
        assert list(doc.subspaces) == ["A"]

    def test_generator_presentation_is_irrelevant(self):
        variant = MINIMAL.replace("row 1 0 0 0", "row 1 1 0 0")
        # both presentations span the same plane
        assert parse_fsc(variant) == parse_fsc(MINIMAL)

    def test_comments_and_whitespace(self):
        text = MINIMAL.replace("field 2 1", "field 2 1   # binary")
        text = "# header comment\n\n" + text.replace("  row", "\trow")
        assert parse_fsc(text) == parse_fsc(MINIMAL)

    def test_member_order_is_normalized(self):
        base = read_fixture("example1.fsc")
        swapped = base.replace("collection C0 U1 U2 U3", "collection C0 U3 U2 U1")
        assert parse_fsc(swapped) == parse_fsc(base)


def error_of(text):
    with pytest.raises(FscParseError) as info:
        parse_fsc(text)
    return info.value


class TestParseErrors:
    def test_version(self):
        err = error_of(MINIMAL.replace("FSC 1", "FSC 2"))
        assert err.line == 1
        assert "version" in str(err)

    def test_unknown_field_order(self):
        err = error_of(MINIMAL.replace("field 2 1", "field 6 1"))
        assert err.line == 2
        assert "field" in str(err)

    def test_row_length(self):
        err = error_of(MINIMAL.replace("row 0 1 0 0", "row 0 1 0"))
        assert err.line == 7
        assert "expected 4" in str(err)

    def test_entry_out_of_field(self):
        err = error_of(MINIMAL.replace("row 0 1 0 0", "row 0 2 0 0"))
        assert err.line == 7
        assert err.col == 9
        assert "field of order 2" in str(err)

    def test_undefined_subspace(self):
        err = error_of(MINIMAL + "collection C A B\n")
        assert err.line == 9
        assert err.col == 16
        assert "undefined subspace 'B'" in str(err)

    def test_undefined_collection_in_state(self):
        err = error_of(MINIMAL + "state C -> A\n")
        assert "undefined collection 'C'" in str(err)

    def test_duplicate_subspace(self):
        err = error_of(MINIMAL + "subspace A\nend\n")
        assert "duplicate subspace 'A'" in str(err)

    def test_unclosed_block(self):
        err = error_of(MINIMAL.replace("end\n", ""))
        assert "not closed" in str(err)

    def test_unknown_directive(self):
        err = error_of(MINIMAL + "frobnicate\n")
        assert "unknown directive" in str(err)

    def test_map_is_an_unknown_directive(self):
        # the format has no map blocks
        err = error_of(MINIMAL + "map M\n  row 0 1 0 0\n  row 1 0 0 0\n"
                       "  row 0 0 1 0\n  row 0 0 0 1\nend\n")
        assert (err.line, err.col) == (9, 1)
        assert "unknown directive 'map'" in str(err)

    def test_ambient_above_the_maximum(self):
        # rejected at its token, before any row of that length is read
        row = "  row" + " 1" + " 0" * 64 + "\n"
        text = MINIMAL.replace("ambient 4", "ambient 65").replace(
            "  row 1 0 0 0\n  row 0 1 0 0\n", row)
        err = error_of(text)
        assert (err.line, err.col) == (3, 9)
        assert "between 1 and 64" in str(err)

    def test_bad_params(self):
        err = error_of(MINIMAL.replace("params 4 2 3 2 1", "params 4 2 9 2 1"))
        assert err.line == 4

    def test_missing_header(self):
        err = error_of("FSC 1\nfield 2 1\n")
        assert "ambient" in str(err)


class TestEmit:
    def test_round_trip_identity(self):
        doc = parse_fsc(read_fixture("example1.fsc"))
        assert parse_fsc(emit_fsc(doc)) == doc

    def test_canonical_text_is_stable(self):
        doc = parse_fsc(read_fixture("example1.fsc"))
        text = emit_fsc(doc)
        assert emit_fsc(parse_fsc(text)) == text

    def test_equal_documents_emit_identically(self):
        base = read_fixture("example1.fsc")
        shuffled = base.replace("collection C0 U1 U2 U3", "collection C0 U3 U1 U2")
        assert emit_fsc(parse_fsc(shuffled)) == emit_fsc(parse_fsc(base))


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,4}", fullmatch=True)


@st.composite
def documents(draw):
    # a document over GF(2), GF(3) or GF(4) with state lines; member
    # counts need not match the parameters, which only a state set checks
    p, e = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    r = draw(st.integers(1, n - 1))
    alpha = draw(st.integers(1, m))
    beta = draw(st.integers(1, alpha))
    rows = st.lists(st.tuples(*[st.integers(0, p ** e - 1)] * m), max_size=m)
    subspaces = draw(st.dictionaries(NAMES, rows.map(lambda vs: span(GF(p, e), m, vs)),
                                     min_size=1, max_size=4))
    members = st.lists(st.sampled_from(sorted(subspaces)), min_size=1, max_size=3)
    collections = draw(st.dictionaries(NAMES, members.map(lambda ms: tuple(sorted(ms))),
                                       max_size=4))
    states = {name: draw(st.sampled_from(sorted(subspaces)))
              for name in draw(st.lists(st.sampled_from(sorted(collections)), unique=True))
              } if collections else {}
    return FscDocument(p, e, m, n, k, r, alpha, beta, subspaces, collections, states)


@settings(max_examples=80, deadline=None)
@given(documents())
def test_round_trip_with_state_lines(doc):
    text = emit_fsc(doc)
    again = parse_fsc(text)
    assert again == doc
    assert emit_fsc(again) == text


def test_documents_compare_by_value():
    one = FscDocument(2, 1, 4, 4, 2, 3, 2, 1, {}, {}, {})
    two = FscDocument(p=2, e=1, m=4, n=4, k=2, r=3, alpha=2, beta=1,
                      subspaces={}, collections={}, states={})
    assert one == two
    one.states["C0"] = "A"
    assert two.states == {} and one != two


class TestConversions:
    def test_document_to_states_verifies(self):
        doc = parse_fsc(read_fixture("example1.fsc"))
        states = document_to_states(doc)
        assert len(states) == 4
        assert states.verify().ok

    def test_state_lines_are_certificates(self):
        doc = parse_fsc(read_fixture("example1.fsc"))
        states = document_to_states(doc)
        keys = {name: RepairingCollection(doc.subspaces[u] for u in members).key
                for name, members in doc.collections.items()}
        assert states.certificates == {keys[name]: doc.subspaces[u]
                                       for name, u in doc.states.items()}
        assert len(states.certificates) == 4
        # a repeated collection may repeat its state line, not change it
        again = read_fixture("example1.fsc") + "collection D U1 U2 U3\nstate D -> U0\n"
        assert document_to_states(parse_fsc(again)).certificates == states.certificates
        with pytest.raises(ValueError, match="different newcomer"):
            document_to_states(parse_fsc(again.replace("D -> U0", "D -> U1")))

    def test_document_with_wrong_member_count(self):
        text = MINIMAL + "subspace B\n  row 0 0 1 0\n  row 0 0 0 1\nend\n" \
            "collection C A B\n"
        doc = parse_fsc(text)
        with pytest.raises(ValueError, match="members"):
            document_to_states(doc)

    def test_empty_state_set_has_no_document(self):
        # with no space there is no field to name
        empty = document_to_states(parse_fsc(MINIMAL))
        assert len(empty) == 0
        with pytest.raises(ValueError, match="cannot serialize an empty state set"):
            states_to_document(empty)

    def test_states_round_trip(self, exact_code_spaces):
        params, spaces = exact_code_spaces
        states = exact_to_states(spaces, params)
        states.verify()
        doc = states_to_document(states)
        assert len(doc.collections) == 4
        assert len(doc.states) == 4
        again = document_to_states(doc)
        assert sorted(again.collections) == sorted(states.collections)
        assert parse_fsc(emit_fsc(doc)) == doc

"""Line-oriented text format for codes: .fsc files.

A document declares a field, an ambient dimension, the code parameters,
named subspaces, named collections of those subspaces, and declared
newcomers per collection.  The grammar is line-oriented and diffable:

    FSC 1
    field 2 1
    ambient 4
    params 4 2 3 2 1
    subspace A
      row 1 0 0 0
      row 0 0 1 1
    end
    collection C0 A B C
    state C0 -> D

A state line is a certificate: the repair check of its collection
checks the declared newcomer (dimension alpha, a repair witness, every
replacement in the set) and fails if it does not check, with no search
for another newcomer.  `#` starts a comment.  Field elements are
integers 0..q-1, in the same digit convention as the gf module.
Parsing is total: every rejected input carries a line and column
diagnostic.  Emission is canonical (sorted names, normalized
whitespace), so equal documents emit byte-identical text and
parse(emit(doc)) == doc.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .gf import GF, Field
from .storage import CodeParams, RepairingCollection, StateSet
from .subspace import MAX_AMBIENT, Subspace, Vector, span

__all__ = [
    "FscDocument",
    "FscParseError",
    "parse_fsc",
    "emit_fsc",
    "document_to_states",
    "states_to_document",
]

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


class FscParseError(ValueError):
    """Rejected .fsc input, with a 1-based line and column position."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class FscDocument(NamedTuple):
    """Parsed content of an .fsc file.

    Collection member lists are kept sorted, so two documents with the
    same meaning compare equal and emit identical text.
    """

    p: int
    e: int
    m: int
    n: int
    k: int
    r: int
    alpha: int
    beta: int
    subspaces: dict[str, Subspace]
    collections: dict[str, tuple[str, ...]]
    states: dict[str, str]

    @property
    def field(self) -> Field:
        return GF(self.p, self.e)

    @property
    def params(self) -> CodeParams:
        return CodeParams(m=self.m, n=self.n, k=self.k, r=self.r,
                          alpha=self.alpha, beta=self.beta, q=self.p ** self.e)


class _Cursor:
    """Line stream with comment stripping and position reporting."""

    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.index = 0

    def next_content(self) -> Optional[tuple[int, str]]:
        while self.index < len(self.raw):
            number = self.index + 1
            line = self.raw[self.index].split("#", 1)[0]
            self.index += 1
            if line.strip():
                return number, line
        return None


def _tokens(line: str) -> list[tuple[int, str]]:
    return [(match.start() + 1, match.group()) for match in re.finditer(r"\S+", line)]


def _parse_int(token: str, number: int, col: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FscParseError(f"{what} must be an integer, got {token!r}", number, col)


def _expect_directive(cursor: _Cursor, keyword: str) -> tuple[int, list[tuple[int, str]]]:
    item = cursor.next_content()
    if item is None:
        raise FscParseError(f"missing {keyword} line", len(cursor.raw) + 1)
    number, line = item
    toks = _tokens(line)
    if toks[0][1] != keyword:
        raise FscParseError(f"expected {keyword} line, got {toks[0][1]!r}",
                            number, toks[0][0])
    return number, toks


def _parse_name(toks: list[tuple[int, str]], number: int, what: str) -> str:
    if len(toks) < 2:
        raise FscParseError(f"{what} needs a name", number, toks[0][0])
    col, name = toks[1]
    if not _NAME.match(name):
        raise FscParseError(f"invalid name {name!r}", number, col)
    return name


def _parse_rows(cursor: _Cursor, field: Field, m: int, header: int) -> list[Vector]:
    rows: list[Vector] = []
    while True:
        item = cursor.next_content()
        if item is None:
            raise FscParseError("block is not closed by end", header)
        number, line = item
        toks = _tokens(line)
        word = toks[0][1]
        if word == "end":
            if len(toks) > 1:
                raise FscParseError("unexpected token after end", number, toks[1][0])
            return rows
        if word != "row":
            raise FscParseError(f"expected row or end, got {word!r}", number, toks[0][0])
        if len(toks) - 1 != m:
            raise FscParseError(f"row has {len(toks) - 1} entries, expected {m}",
                                number, toks[0][0])
        entries = []
        for col, token in toks[1:]:
            value = _parse_int(token, number, col, "row entry")
            if not 0 <= value < field.q:
                raise FscParseError(
                    f"entry {value} is outside the field of order {field.q}",
                    number, col)
            entries.append(value)
        rows.append(tuple(entries))


def parse_fsc(text: str) -> FscDocument:
    """Parse .fsc text into a document, or raise FscParseError."""
    cursor = _Cursor(text)
    number, toks = _expect_directive(cursor, "FSC")
    if [t for _, t in toks[1:]] != ["1"]:
        raise FscParseError("unsupported version, expected FSC 1", number,
                            toks[1][0] if len(toks) > 1 else toks[0][0])

    number, toks = _expect_directive(cursor, "field")
    if len(toks) != 3:
        raise FscParseError("field line needs p and e", number, toks[0][0])
    p = _parse_int(toks[1][1], number, toks[1][0], "p")
    e = _parse_int(toks[2][1], number, toks[2][0], "e")
    try:
        field = GF(p, e)
    except ValueError as err:
        raise FscParseError(f"unknown field order: {err}", number, toks[1][0])

    number, toks = _expect_directive(cursor, "ambient")
    if len(toks) != 2:
        raise FscParseError("ambient line needs one dimension", number, toks[0][0])
    m = _parse_int(toks[1][1], number, toks[1][0], "ambient")
    if not 1 <= m <= MAX_AMBIENT:
        raise FscParseError(f"ambient dimension must be between 1 and {MAX_AMBIENT}",
                            number, toks[1][0])

    number, toks = _expect_directive(cursor, "params")
    if len(toks) != 6:
        raise FscParseError("params line needs n k r alpha beta", number, toks[0][0])
    values = [_parse_int(t, number, c, "parameter") for c, t in toks[1:]]
    n, k, r, alpha, beta = values
    try:
        CodeParams(m=m, n=n, k=k, r=r, alpha=alpha, beta=beta, q=field.q)
    except ValueError as err:
        raise FscParseError(str(err), number, toks[0][0])

    subspaces: dict[str, Subspace] = {}
    collections: dict[str, tuple[str, ...]] = {}
    states: dict[str, str] = {}
    while True:
        item = cursor.next_content()
        if item is None:
            break
        number, line = item
        toks = _tokens(line)
        word = toks[0][1]
        if word == "subspace":
            name = _parse_name(toks, number, "subspace")
            if len(toks) > 2:
                raise FscParseError("unexpected token after subspace name",
                                    number, toks[2][0])
            if name in subspaces:
                raise FscParseError(f"duplicate subspace {name!r}", number, toks[1][0])
            rows = _parse_rows(cursor, field, m, number)
            subspaces[name] = span(field, m, rows)
        elif word == "collection":
            name = _parse_name(toks, number, "collection")
            if name in collections:
                raise FscParseError(f"duplicate collection {name!r}", number, toks[1][0])
            if len(toks) < 3:
                raise FscParseError("collection needs at least one member",
                                    number, toks[1][0])
            members = []
            for col, token in toks[2:]:
                if token not in subspaces:
                    raise FscParseError(f"undefined subspace {token!r}", number, col)
                members.append(token)
            collections[name] = tuple(sorted(members))
        elif word == "state":
            if len(toks) != 4 or toks[2][1] != "->":
                raise FscParseError("state line must read: state COLLECTION -> SUBSPACE",
                                    number, toks[0][0])
            coll = toks[1][1]
            target = toks[3][1]
            if coll not in collections:
                raise FscParseError(f"undefined collection {coll!r}", number, toks[1][0])
            if target not in subspaces:
                raise FscParseError(f"undefined subspace {target!r}", number, toks[3][0])
            if coll in states:
                raise FscParseError(f"duplicate state for {coll!r}", number, toks[1][0])
            states[coll] = target
        else:
            raise FscParseError(f"unknown directive {word!r}", number, toks[0][0])
    return FscDocument(p, e, m, n, k, r, alpha, beta, subspaces, collections, states)


def emit_fsc(doc: FscDocument) -> str:
    """Canonical text for a document: sorted names, normalized spacing."""
    lines = [
        "FSC 1",
        f"field {doc.p} {doc.e}",
        f"ambient {doc.m}",
        f"params {doc.n} {doc.k} {doc.r} {doc.alpha} {doc.beta}",
    ]
    for name in sorted(doc.subspaces):
        lines.append(f"subspace {name}")
        lines.extend("  row " + " ".join(map(str, row)) for row in doc.subspaces[name].rows)
        lines.append("end")
    for name in sorted(doc.collections):
        lines.append(f"collection {name} " + " ".join(sorted(doc.collections[name])))
    for name in sorted(doc.states):
        lines.append(f"state {name} -> {doc.states[name]}")
    return "\n".join(lines) + "\n"


def document_to_states(doc: FscDocument) -> StateSet:
    """Build the state set declared by a document's collections, with each
    state line's newcomer as its collection's certificate.

    Raises ValueError when two collections with the same members declare
    different newcomers.
    """
    collections = []
    certificates: dict[tuple[bytes, ...], Subspace] = {}
    for name in sorted(doc.collections):
        collection = RepairingCollection(doc.subspaces[u] for u in doc.collections[name])
        collections.append(collection)
        if name in doc.states:
            declared = doc.subspaces[doc.states[name]]
            if certificates.setdefault(collection.key, declared) != declared:
                raise ValueError(f"collection {name} repeats the members of another "
                                 "collection but declares a different newcomer")
    return StateSet(doc.params, collections, certificates)


def states_to_document(states: StateSet) -> FscDocument:
    """Serialize a state set with generated names.

    Subspaces are named S0, S1, ... in canonical key order, collections
    C0, C1, ... likewise.  Verified newcomers are included as state
    lines (their spaces are added to the named subspaces if needed).
    """
    params = states.params
    spaces: dict[bytes, Subspace] = {}
    for collection in states:
        for space in collection.spaces:
            spaces[space.key] = space
    for admissible in states.witnesses.values():
        spaces[admissible.newcomer.key] = admissible.newcomer
    space_names = {key: f"S{i}" for i, key in enumerate(sorted(spaces))}
    field = None
    for space in spaces.values():
        field = space.field
        break
    if field is None:
        raise ValueError("cannot serialize an empty state set")
    subspaces = {space_names[key]: spaces[key] for key in spaces}
    collections: dict[str, tuple[str, ...]] = {}
    states_map: dict[str, str] = {}
    for i, collection in enumerate(states):
        name = f"C{i}"
        collections[name] = tuple(sorted(
            space_names[s.key] for s in collection.spaces))
        witness = states.witnesses.get(collection.key)
        if witness is not None:
            states_map[name] = space_names[witness.newcomer.key]
    return FscDocument(field.p, field.e, params.m, params.n, params.k,
                       params.r, params.alpha, params.beta,
                       subspaces, collections, states_map)

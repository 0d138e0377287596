"""Bundled dataset registry and CSV parsing/validation."""
from __future__ import annotations

import codecs
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qconcepts import datasets
from qconcepts.datasets import (
    ANIMAL_ACTS_OUTCOMES,
    EXEMPLAR_HEADER,
    MEMBERSHIP_HEADER,
    _exemplar_columns,
    _exemplar_row,
    _membership_columns,
    _membership_row,
    _split,
    _table,
    dataset_file_bytes,
    dataset_ids,
    list_datasets,
    load_coincidence_csv,
    load_dataset,
    load_exemplar_csv,
    load_membership_csv,
    parse_coincidence_csv,
    parse_exemplar_csv,
    parse_membership_csv,
)
from qconcepts.disjunction_model import ExemplarColumns, ExemplarRow
from qconcepts.errors import DataError, ModelError

MEMBERSHIP_TEXT = """\
exemplar,conceptA,conceptB,muA,muB,muJoint,connective
Mint,Food,Plant,0.87,0.81,0.9,and
Mushroom,Fruits,Vegetables,0.0,0.5,0.9,or
"""

EXEMPLAR_TEXT = """\
index,name,muA,muB,muAorB
1,Almond,0.0359,0.0133,0.0269
2,Acorn,0.0425,0.0108,0.0249
"""


def test_registry_ids_are_sorted_and_complete():
    ids = dataset_ids()
    assert ids == sorted(ids)
    assert ids == [
        "animal-acts-table1",
        "animal-acts-table1-counts",
        "fruits-vegetables-table2",
        "hampton-table3",
        "hampton-table3-conjunction",
        "hampton-table3-disjunction",
    ]


def test_bundled_row_counts():
    assert len(load_dataset("fruits-vegetables-table2").rows) == 24
    assert len(load_dataset("animal-acts-table1").rows) == 4
    assert len(load_dataset("animal-acts-table1-counts").rows) == 4
    assert len(load_dataset("hampton-table3").rows) == 39
    assert len(load_dataset("hampton-table3-disjunction").rows) == 25
    assert len(load_dataset("hampton-table3-conjunction").rows) == 14


def test_connective_views_partition_the_full_table():
    full = load_dataset("hampton-table3").rows
    disj = load_dataset("hampton-table3-disjunction").rows
    conj = load_dataset("hampton-table3-conjunction").rows
    assert disj.is_and.tolist() == [False] * 25 and conj.is_and.tolist() == [True] * 14
    # the full table lists the disjunction block first, as published
    assert _column_lists(full.take(list(range(25)))) == _column_lists(disj)
    assert _column_lists(full.take(list(range(25, 39)))) == _column_lists(conj)


def test_verbatim_spellings_preserved():
    names = load_dataset("hampton-table3").rows.names
    for spelling in ("Underwater", "Appartment Block", "Synagoge", "Hifi",
                     "Course Liner", "Phone box"):
        assert spelling in names


def test_counts_dataset_blocks_total_81():
    for table in load_dataset("animal-acts-table1-counts").rows:
        assert table.total == 81.0


def test_outcome_sentences_attached():
    tables = {t.label: t for t in load_dataset("animal-acts-table1").rows}
    assert tables["AB"].outcome_names == ANIMAL_ACTS_OUTCOMES["AB"]
    assert tables["AB"].outcome_names[0] == "Horse Growls"
    assert tables["A'B'"].outcome_names[3] == "Cat Meows"


def test_unknown_dataset_lists_known_ids():
    with pytest.raises(DataError, match="animal-acts-table1.*hampton-table3"):
        load_dataset("no-such-table")
    with pytest.raises(DataError, match="unknown dataset"):
        dataset_file_bytes("no-such-table")


def test_dataset_file_bytes_stable():
    blob = dataset_file_bytes("fruits-vegetables-table2")
    assert blob == dataset_file_bytes("fruits-vegetables-table2")
    assert b"Almond" in blob
    # connective views share the full table's file
    assert dataset_file_bytes("hampton-table3") == dataset_file_bytes(
        "hampton-table3-disjunction")


def test_catalog_is_deterministic():
    one = json.dumps(list_datasets(), sort_keys=True)
    two = json.dumps(list_datasets(), sort_keys=True)
    assert one == two
    catalog = {entry["id"]: entry for entry in list_datasets()}
    assert catalog["fruits-vegetables-table2"]["rows"] == 24
    assert catalog["fruits-vegetables-table2"]["kind"] == "exemplar"
    assert catalog["animal-acts-table1"]["kind"] == "coincidence"
    assert catalog["hampton-table3"]["kind"] == "membership"
    assert any("Tomato" in note for note in catalog["fruits-vegetables-table2"]["notes"])


def test_parse_membership_basics():
    cols = parse_membership_csv(MEMBERSHIP_TEXT)
    assert len(cols) == 2
    assert cols.names[cols.exemplar[0]] == "Mint" and cols.is_and[0]
    assert cols.mu_joint[1] == 0.9
    # a header alone yields empty columns, from the comma split and from the
    # row loop (which a blank line after the header selects)
    header = MEMBERSHIP_TEXT.splitlines()[0]
    for text in (header, header + "\n\n"):
        empty = parse_membership_csv(text)
        assert len(empty) == 0 and empty.names == []
        assert all(col.dtype == np.intp and col.shape == (0,)
                   for col in (empty.exemplar, empty.concept_a, empty.concept_b))
        assert all(col.dtype == float and col.shape == (0,)
                   for col in (empty.mu_a, empty.mu_b, empty.mu_joint))


def test_parse_membership_weight_out_of_range_carries_line():
    text = MEMBERSHIP_TEXT + "Bad,Food,Plant,1.2,0.5,0.5,and\n"
    with pytest.raises(DataError) as exc_info:
        parse_membership_csv(text)
    assert exc_info.value.line == 4
    assert "muA" in str(exc_info.value)
    with pytest.raises(DataError, match=r"muB must lie in \[0, 1\], got -0.1"):
        parse_membership_csv(MEMBERSHIP_TEXT + "Bad,Food,Plant,0.2,-0.1,0.5,or\n")


def test_parse_membership_field_count_and_connective_errors():
    with pytest.raises(DataError, match="expected 7 fields"):
        parse_membership_csv(MEMBERSHIP_TEXT + "Bad,Food,Plant,0.5,0.5\n")
    with pytest.raises(DataError) as exc_info:
        parse_membership_csv(MEMBERSHIP_TEXT + "Bad,Food,Plant,0.5,0.5,0.5,nor\n")
    assert exc_info.value.column == "connective"
    with pytest.raises(DataError, match="not a number") as exc_info:
        parse_membership_csv(MEMBERSHIP_TEXT + "Bad,Food,Plant,x,0.5,0.5,and\n")
    assert exc_info.value.column == "muA"


def test_parse_membership_missing_or_wrong_header():
    with pytest.raises(DataError, match="missing header"):
        parse_membership_csv("")
    with pytest.raises(DataError, match="expected header"):
        parse_membership_csv("a,b,c\n1,2,3\n")


def test_parse_exemplar_phi_optional_all_or_none():
    rows = parse_exemplar_csv(EXEMPLAR_TEXT)
    assert [r.phi_deg for r in rows] == [None, None]
    with_phi = EXEMPLAR_TEXT.replace(",muAorB", ",muAorB,phi_deg").replace(
        ",0.0269", ",0.0269,83.8854").replace(",0.0249", ",0.0249,-87.6039")
    rows = parse_exemplar_csv(with_phi)
    assert rows[0].phi_deg == 83.8854 and rows[1].phi_deg == -87.6039
    # phi column in the header but missing in a row is a field-count error
    broken = with_phi.rsplit(",-87.6039", 1)[0] + "\n"
    with pytest.raises(DataError, match="expected 6 fields"):
        parse_exemplar_csv(broken)


def test_parse_exemplar_rejects_nan_phase():
    text = "index,name,muA,muB,muAorB,phi_deg\n1,Almond,0.0359,0.0133,0.0269,nan\n"
    with pytest.raises(DataError, match="phi") as exc_info:
        parse_exemplar_csv(text)
    assert exc_info.value.line == 2


@pytest.mark.parametrize("load, text", [
    (load_membership_csv, MEMBERSHIP_TEXT),
    (load_exemplar_csv, EXEMPLAR_TEXT),
    (load_coincidence_csv, "experiment,outcome11,outcome12,outcome21,outcome22\nAB,4,51,21,5\n"),
], ids=["membership", "exemplar", "coincidence"])
def test_a_leading_byte_order_mark_is_skipped(load, text, tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with EF BB BF
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    loaded = [load(plain), load(marked)]
    if load is load_membership_csv:
        loaded = list(map(_column_lists, loaded))
    elif load is load_exemplar_csv:
        loaded = list(map(_exemplar_lists, loaded))
    assert loaded[0] == loaded[1]


def test_load_rejects_undecodable_bytes_with_a_data_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(MEMBERSHIP_TEXT.encode() + b"Bad\xff,Food,Plant,0.5,0.5,0.5,and\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_membership_csv(path)


def test_parse_exemplar_index_must_be_integer():
    with pytest.raises(DataError) as exc_info:
        parse_exemplar_csv("index,name,muA,muB,muAorB\none,Almond,0.1,0.1,0.1\n")
    assert exc_info.value.column == "index"
    assert exc_info.value.line == 2


def test_comment_and_blank_lines_keep_raw_numbering():
    text = (
        "# provenance comment\n"
        "\n"
        "exemplar,conceptA,conceptB,muA,muB,muJoint,connective\n"
        "\n"
        "Mint,Food,Plant,0.87,0.81,0.9,and\n"
        "Bad,Food,Plant,2.0,0.5,0.5,and\n"
    )
    with pytest.raises(DataError) as exc_info:
        parse_membership_csv(text)
    assert exc_info.value.line == 6


def test_parse_coincidence_block_sum_error_carries_line():
    text = (
        "experiment,outcome11,outcome12,outcome21,outcome22\n"
        "AB,0.5,0.4,0.2,0.1\n"
    )
    with pytest.raises(DataError) as exc_info:
        parse_coincidence_csv(text)
    assert exc_info.value.line == 2
    assert "off by" in str(exc_info.value)


def test_bundled_files_carry_provenance_comments():
    blob = dataset_file_bytes("animal-acts-table1")
    assert blob.lstrip().startswith(b"#")


def _reference_iter_csv_rows(text, source):
    """Every non-blank, non-comment line through its own csv.reader."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            fields = next(csv.reader(io.StringIO(raw)))
        except csv.Error as exc:
            raise DataError(f"{source}: malformed CSV: {exc}", line=lineno)
        yield lineno, [f.strip() for f in fields]


def _rows_then_error(rows):
    seen = []
    try:
        for item in rows:
            seen.append(item)
    except DataError as exc:
        return seen, (str(exc), exc.line)
    return seen, None


# quotes (also unterminated), every line break splitlines knows, blanks, NUL, comments
_csv_pieces = st.sampled_from(['a', 'b c', ',', '"', '""', '"x,y"', '\r', '\n', '\r\n', '\x0b',
                               '\x1c', '\x85', ' ', '\t', '\x00', '#', '\n#', '\n\n', 'é'])


def _split_lines(text, source):
    """``_split`` over the lines the reader parses, with their line numbers."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, _split(raw, source, lineno)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(text=st.lists(_csv_pieces, max_size=40).map("".join))
def test_comma_split_matches_the_per_line_csv_reader(text):
    assert _rows_then_error(_split_lines(text, "t.csv")) == \
        _rows_then_error(_reference_iter_csv_rows(text, "t.csv"))


# ---------------------------------------------- membership parse against a reference

def _reference_membership(text, source):
    """A per-row membership parser independent of ``datasets``: one validated
    7-tuple per row, each line through its own csv.reader."""
    rows, header_seen = [], False
    for lineno, fields in _reference_iter_csv_rows(text, source):
        if not header_seen:
            if fields != list(MEMBERSHIP_HEADER):
                raise DataError(f"{source}: expected header {','.join(MEMBERSHIP_HEADER)}"
                                f", got {','.join(fields)}", line=lineno)
            header_seen = True
            continue
        if len(fields) != 7:
            raise DataError(f"{source}: expected 7 fields, got {len(fields)}", line=lineno)
        if fields[6] not in ("and", "or"):
            raise DataError(f"{source}: connective must be one of ('and', 'or'),"
                            f" got {fields[6]!r}", line=lineno, column="connective")
        values = []
        for i in (3, 4, 5):
            try:
                values.append(float(fields[i]))
            except ValueError:
                raise DataError(f"{source}: {MEMBERSHIP_HEADER[i]} is not a number:"
                                f" {fields[i]!r}", line=lineno,
                                column=MEMBERSHIP_HEADER[i]) from None
        for label, value in zip(("muA", "muB", "muJoint"), values):
            if not (0.0 <= value <= 1.0):
                raise DataError(f"{source}: {label} must lie in [0, 1], got {value!r}",
                                line=lineno, column=label)
        rows.append((*fields[:3], *values, fields[6]))
    if not header_seen:
        raise DataError(f"{source}: missing header row")
    return rows


def _column_lists(cols):
    """Seven lists, weights as float.hex, of ``MembershipColumns`` or of 7-tuple rows.

    Columns have their names decoded, after a check that ``names`` holds each
    name once and that every code indexes it.
    """
    if isinstance(cols, list):
        cols = [[r[i] for r in cols] for i in range(7)]
    else:
        codes = (cols.exemplar, cols.concept_a, cols.concept_b)
        assert len(set(cols.names)) == len(cols.names)
        assert all(c.dtype == np.intp and ((c >= 0) & (c < len(cols.names))).all() for c in codes)
        assert cols.is_and.dtype == bool
        cols = [*([cols.names[i] for i in c.tolist()] for c in codes),
                cols.mu_a.tolist(), cols.mu_b.tolist(), cols.mu_joint.tolist(),
                np.where(cols.is_and, "and", "or").tolist()]
    assert all(type(v) is float for col in cols[3:6] for v in col)
    return cols[:3] + [[v.hex() for v in col] for col in cols[3:6]] + cols[6:]


def _membership_rows(text, source):
    """The row loop alone: every row through ``_membership_row``, then the column builder."""
    rows = _table(text, source, MEMBERSHIP_HEADER, _membership_row)
    return _membership_columns([f for r in rows for f in r], len(MEMBERSHIP_HEADER))


def _columns_or_error(parse, text):
    """The parsed columns as ``_column_lists``, or the error's message, line and column."""
    try:
        return _column_lists(parse(text, "t.csv"))
    except DataError as exc:
        return str(exc), exc.line, exc.column


_plain_names = st.sampled_from(["Mint", "Root Ginger", " padded\t", "é日☃", "", "and"])
# '\x1c' breaks a line for str.splitlines
_names = st.one_of(_plain_names, st.sampled_from(
    ["x#y", "\x1cA", '"Tomato, cherry"', '"Say ""hi"""', '"open']))
# valid weights: signed zero, exponent form, subnormals, padding, underscores
_valid_weights = st.one_of(
    st.sampled_from(["0", "1", "0.5", "-0.0", "0.0", "1e-05", "5e-324",
                     "2.2250738585072014e-308", " 0.25 ", "\t0.75", "0.2_5", "١"]),
    st.floats(0.0, 1.0).map(repr))
# and cells that fail: non-finite, out of range, not a number (or one only to
# numpy's string cast), a bad connective, quoting
_bad_cells = st.sampled_from(["nan", "-inf", "1e309", "1_0", "1.5", "-0.2", "x", "", "0.5\x00",
                              "\x1c0.5", "0,5", "nor", "AND", '"q"', '"open', "a\rb"])
_weights = st.one_of(_valid_weights, _bad_cells)
_plain_row = st.tuples(_plain_names, _plain_names, _plain_names, _valid_weights,
                       _valid_weights, _valid_weights, st.sampled_from(["and", "or", " or "]))
_row = st.one_of(
    st.tuples(_names, _names, _names, _weights, _weights, _weights,
              st.sampled_from(["and", "or", " or ", "nor", "AND"])),
    st.lists(st.one_of(_names, _weights), min_size=6, max_size=8).map(tuple),
).map(",".join)
# lines the per-row loop skips or rejects; some hold 6 commas, as a row does
_odd_lines = st.sampled_from(["", "   ", "# comment", "#,a,b,c,d,e,f", "# A,B,C,0.5,0.5,0.5,and",
                              " #A,B,C,0.5,0.5,0.5,or", "A,B,C,0.5,0.5,and",
                              "A,B,C,0.5,0.5,0.5,and,x", ' "unterminated', "\x00"])
_breaks = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x85", " "])
_header = st.sampled_from([",".join(MEMBERSHIP_HEADER), " " + ",".join(MEMBERSHIP_HEADER),
                           "# provenance\n" + ",".join(MEMBERSHIP_HEADER),
                           ",".join(MEMBERSHIP_HEADER[:6]), ""])


@st.composite
def _membership_text(draw):
    """A valid table, the same with a cell or line spoiled, or fuzzed text."""
    mode = draw(st.sampled_from(["plain", "spoiled", "fuzzed"]))
    if mode == "fuzzed":
        lines = [draw(_header), *draw(st.lists(st.one_of(_row, _row, _odd_lines), max_size=8))]
        return "".join(line + draw(_breaks) for line in lines)
    rows = draw(st.lists(_plain_row.map(list), min_size=mode == "spoiled", max_size=8))
    lines = [",".join(row) for row in rows]
    if mode == "spoiled":
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[i][draw(st.integers(0, 6))] = draw(_bad_cells)
            lines[i] = ",".join(rows[i])
        else:
            lines.insert(i, draw(_odd_lines))
    return "".join(line + "\n" for line in [",".join(MEMBERSHIP_HEADER), *lines])


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(text=_membership_text())
# a 6-field row then an 8-field one: 14 fields in all, split into two 7-field rows
@example(text=",".join(MEMBERSHIP_HEADER) + "\nA,B,C,0.5,0.5,0.5\nand,D,E,F,0.5,0.5,0.5,or\n")
@example(text=",".join(MEMBERSHIP_HEADER) + "\nA,B,C,-0.0,0.0,5e-324,or\nD,E,F,1e-05,1,0,and\n")
# numpy's string cast drops a trailing NUL; float() rejects it
@example(text=",".join(MEMBERSHIP_HEADER) + "\nA,B,C,0.5\x00,0.5,0.5,and\n")
def test_columnar_membership_parse_matches_the_per_row_loop(text):
    want = _columns_or_error(_reference_membership, text)
    assert _columns_or_error(parse_membership_csv, text) == want
    # the row loop alone, also on the tables the comma split takes
    assert _columns_or_error(_membership_rows, text) == want


def _recording(monkeypatch, name):
    """Replace ``datasets.<name>`` with a wrapper that records each row it checks."""
    calls, real = [], getattr(datasets, name)

    def row(fields, number):
        calls.append(fields)
        return real(fields, number)

    monkeypatch.setattr(datasets, name, row)
    return calls


def test_columnar_fast_path_takes_plain_tables_and_declines_the_rest(monkeypatch):
    calls = _recording(monkeypatch, "_membership_row")
    header = ",".join(MEMBERSHIP_HEADER)
    plain = f"# note\n\n{header}\nMint,Food,Plant,0.87,0.81,0.9,and\n A ,B,C,-0.0, 1e-05 ,0,or\n"
    cols = parse_membership_csv(plain)
    assert len(cols) == 2
    assert cols.names == ["Mint", "A", "Food", "B", "Plant", "C"]
    assert cols.exemplar.tolist() == [0, 1] and cols.mu_a[1].hex() == "-0x0.0p+0"
    assert len(parse_membership_csv(header)) == 0
    assert calls == []
    for body in ('"Mint",Food,Plant,0.87,0.81,0.9,and', "Mint,Food,Plant,0.87,0.81,0.9,and\n#",
                 "Mint,Food,Plant,0.87,0.81,0.9,and\n\nA,B,C,0.5,0.5,0.5,or",
                 "Mint,Food,Plant,0.87,0.81,0.9,and\nA,B,C,0.5,0.5,or\nD,E,F,0.5,0.5,0.5,or,x",
                 "Mint,Food,Plant,1_0,0.81,0.9,and", "Mint,Food,Plant,0.87,0.81,0.9\x00,and"):
        text = f"{header}\n{body}\n"
        calls.clear()
        got = _columns_or_error(parse_membership_csv, text)
        assert calls != []
        assert got == _columns_or_error(_reference_membership, text)


def test_bundled_membership_table_takes_the_comma_split(monkeypatch):
    # its provenance comments above the header hold quotes; its body does not
    calls = _recording(monkeypatch, "_membership_row")
    text = dataset_file_bytes("hampton-table3").decode("utf-8")
    assert '"' in text.split("\nexemplar,")[0]
    assert _column_lists(load_dataset("hampton-table3").rows) == \
        _column_lists(_reference_membership(text, "hampton_membership.csv"))
    assert calls == []


def test_membership_dataset_columns_match_the_per_row_loop():
    text = dataset_file_bytes("hampton-table3").decode("utf-8")
    rows = _reference_membership(text, "hampton_membership.csv")
    for view, keep in (("hampton-table3", ("and", "or")), ("hampton-table3-disjunction", ("or",)),
                       ("hampton-table3-conjunction", ("and",))):
        assert _column_lists(load_dataset(view).rows) == \
            _column_lists([r for r in rows if r[6] in keep])


# ------------------------------------------------ exemplar parse against a reference

def _exemplar_lists(cols):
    """Indices, names, then each weight column and phi_deg (None if absent)
    as float.hex, of ``ExemplarColumns``."""
    assert all(type(i) is int for i in cols.index)
    floats = [cols.mu_a, cols.mu_b, cols.mu_a_or_b] + (
        [] if cols.phi_deg is None else [cols.phi_deg])
    assert all(col.dtype == float and col.shape == (len(cols),) for col in floats)
    hexes = [[v.hex() for v in col.tolist()] for col in floats]
    return [cols.index, cols.name, *hexes[:3], hexes[3] if hexes[3:] else None]


def _reference_exemplar(text, source):
    """A per-row exemplar parser independent of ``datasets``: one ``ExemplarRow``
    per row, each line through its own csv.reader, then the rows' columns."""
    rows, names = [], None
    for lineno, fields in _reference_iter_csv_rows(text, source):
        if names is None:
            if fields not in (list(EXEMPLAR_HEADER), [*EXEMPLAR_HEADER, "phi_deg"]):
                raise DataError(f"{source}: expected header {','.join(EXEMPLAR_HEADER)}"
                                f"[,phi_deg], got {','.join(fields)}", line=lineno)
            names = fields
            continue
        if len(fields) != len(names):
            raise DataError(f"{source}: expected {len(names)} fields, got {len(fields)}",
                            line=lineno)
        try:
            index = int(fields[0])
        except ValueError:
            raise DataError(f"{source}: index is not an integer: {fields[0]!r}", line=lineno,
                            column="index") from None
        values = []
        for name, cell in zip(names[2:], fields[2:]):
            try:
                values.append(float(cell))
            except ValueError:
                raise DataError(f"{source}: {name} is not a number: {cell!r}", line=lineno,
                                column=name) from None
        try:
            rows.append(ExemplarRow(index, fields[1], *values))
        except ModelError as exc:
            raise DataError(f"{source}: {exc}", line=lineno, column=exc.column) from None
    if names is None:
        raise DataError(f"{source}: missing header row")
    mu = ([getattr(r, f) for r in rows] for f in ("mu_a", "mu_b", "mu_a_or_b"))
    phi = [r.phi_deg for r in rows] if rows and len(names) == 6 else None
    return ExemplarColumns([r.index for r in rows], [r.name for r in rows],
                           *(np.array(col, dtype=float) for col in mu),
                           None if phi is None else np.array(phi, dtype=float))


def _exemplar_rows(text, source):
    """The row loop alone: every row through ``_exemplar_row``, then the column builder."""
    rows = _table(text, source, EXEMPLAR_HEADER, _exemplar_row, optional="phi_deg")
    # a table with no rows gives the same empty columns at either width
    return _exemplar_columns([f for r in rows for f in r], len(rows[0]) if rows else 5)


def _exemplar_or_error(parse, text):
    """The parsed columns as ``_exemplar_lists``, or the error's message, line and column."""
    try:
        return _exemplar_lists(parse(text, "t.csv"))
    except DataError as exc:
        return str(exc), exc.line, exc.column


_EXEMPLAR_HEADERS = (",".join(EXEMPLAR_HEADER), ",".join(EXEMPLAR_HEADER) + ",phi_deg")
# indices int() takes: signs, padding, other digits, underscores, beyond int64
_valid_indices = st.sampled_from(["1", "2", "-3", "+3", "0", " 7 ", "\u00a08", "٣", "1_0",
                                  "100000000000000000000"])
_valid_angles = st.one_of(
    st.sampled_from(["-180", "180", "-0.0", "83.8854", "5e-324", " -90.5 ", "1_8"]),
    st.floats(-180.0, 180.0).map(repr))
_exemplar_names = st.sampled_from(["Almond", "Root Ginger", " padded\t", "é日☃", "", "x0001"])
# cells some column rejects: non-finite, out of range, not a number, a float
# index, quoting, a comment sign
_bad_exemplar_cells = st.sampled_from(["nan", "inf", "-inf", "1e309", "1.5", "-0.2", "180.5",
                                       "-181", "x", "", "1.0", "1e3", "0.5\x00", '"q"', '"open',
                                       "a#b", "٣.٥"])


@st.composite
def _exemplar_text(draw):
    """A valid table with or without phi_deg, the same with a cell or line
    spoiled, or fuzzed text."""
    mode = draw(st.sampled_from(["plain", "spoiled", "fuzzed"]))
    width = draw(st.sampled_from([5, 6]))
    weight = st.one_of(_valid_weights, _valid_weights, _bad_exemplar_cells)
    if mode == "fuzzed":
        header = draw(st.sampled_from([*_EXEMPLAR_HEADERS, " " + _EXEMPLAR_HEADERS[1],
                                       "# note\n" + _EXEMPLAR_HEADERS[0],
                                       ",".join(EXEMPLAR_HEADER[:4]), ""]))
        cell = st.one_of(_valid_indices, _exemplar_names, weight, _valid_angles)
        row = st.lists(cell, min_size=4, max_size=7).map(",".join)
        lines = [header, *draw(st.lists(st.one_of(row, row, _odd_lines), max_size=8))]
        return "".join(line + draw(_breaks) for line in lines)
    cells = [_valid_indices, _exemplar_names, _valid_weights, _valid_weights, _valid_weights,
             _valid_angles][:width]
    rows = draw(st.lists(st.tuples(*cells).map(list), min_size=mode == "spoiled", max_size=8))
    lines = [",".join(row) for row in rows]
    if mode == "spoiled":
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[i][draw(st.integers(0, width - 1))] = draw(_bad_exemplar_cells)
            lines[i] = ",".join(rows[i])
        else:
            lines.insert(i, draw(st.one_of(_odd_lines, st.sampled_from(
                ["1,A,0.5,0.5", "1,A,0.5,0.5,0.5,10,x", "1,A,0.5,0.5,0.5,10"]))))
    return "".join(line + draw(_breaks) for line in [_EXEMPLAR_HEADERS[width == 6], *lines])


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(text=_exemplar_text())
# a 5-field row then a 7-field one under the 6-field header: 12 fields in all
@example(text=_EXEMPLAR_HEADERS[1] + "\n1,A,0.5,0.5,0.5\n2,B,0.5,0.5,0.5,10,x\n")
@example(text=_EXEMPLAR_HEADERS[1] + "\n-3,A,-0.0,5e-324,1e-05,-0.0\n+3,B,1,0,0.5,-180\n")
@example(text=_EXEMPLAR_HEADERS[1] + "\n1,A,0.5,0.5,0.5,nan\n")
@example(text=_EXEMPLAR_HEADERS[1] + "\n1,A,0.5,0.5,0.5,-180.00000000000003\n")
@example(text=_EXEMPLAR_HEADERS[1] + "\n")
def test_columnar_exemplar_parse_matches_the_per_row_loop(text):
    want = _exemplar_or_error(_reference_exemplar, text)
    assert _exemplar_or_error(parse_exemplar_csv, text) == want
    # the row loop alone, also on the tables the comma split takes
    assert _exemplar_or_error(_exemplar_rows, text) == want


def test_exemplar_fast_path_takes_plain_tables_and_declines_the_rest(monkeypatch):
    calls = _recording(monkeypatch, "_exemplar_row")
    table2 = dataset_file_bytes("fruits-vegetables-table2").decode("utf-8")
    cols = parse_exemplar_csv(table2)
    assert len(cols) == 24 and cols.phi_deg[7] == 87.6039
    assert _exemplar_lists(cols) == _exemplar_lists(_reference_exemplar(table2, "t.csv"))
    # as the benchmark writes them: full-precision weights and no phi_deg column
    plain = _EXEMPLAR_HEADERS[0] + "\n" + "".join(
        f"{k},x{k:04d},{0.1 / k!r},{0.2 / k!r},{0.15 / k!r}\n" for k in range(1, 6))
    cols = parse_exemplar_csv(plain)
    assert cols.index == [1, 2, 3, 4, 5] and cols.phi_deg is None
    padded = f"# note\n\n{_EXEMPLAR_HEADERS[1]}\n 7 , A ,-0.0, 1e-05 ,0, -0.0\n"
    cols = parse_exemplar_csv(padded)
    assert cols.index == [7] and cols.name == ["A"] and cols.phi_deg[0].hex() == "-0x0.0p+0"
    for header in _EXEMPLAR_HEADERS:
        empty = parse_exemplar_csv(header)
        assert len(empty) == 0 and empty.phi_deg is None
    assert calls == []
    for body in ('1,"Almond",0.1,0.1,0.1', "1,Almond,0.1,0.1,0.1\n#",
                 "1,Almond,0.1,0.1,0.1\n\n2,Acorn,0.2,0.2,0.2",
                 "1,Almond,0.1,0.1,0.1\n2,Acorn,0.2,0.2\n3,B,0.2,0.2,0.2,x",
                 "1,Almond,1_0,0.1,0.1",
                 "1,Almond,0.1,0.1,0.1\x00"):
        text = f"{_EXEMPLAR_HEADERS[0]}\n{body}\n"
        calls.clear()
        got = _exemplar_or_error(parse_exemplar_csv, text)
        assert calls != []
        assert got == _exemplar_or_error(_reference_exemplar, text)

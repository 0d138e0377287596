"""Bundled dataset registry and CSV parsing/validation."""
from __future__ import annotations

import json

import pytest

from qconcepts.datasets import (
    ANIMAL_ACTS_OUTCOMES,
    dataset_file_bytes,
    dataset_ids,
    list_datasets,
    load_dataset,
    load_membership_csv,
    parse_coincidence_csv,
    parse_exemplar_csv,
    parse_membership_csv,
)
from qconcepts.errors import DataError

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
    assert all(r.connective == "or" for r in disj)
    assert all(r.connective == "and" for r in conj)
    # the full table lists the disjunction block first, as published
    assert full[:25] == disj and full[25:] == conj


def test_verbatim_spellings_preserved():
    names = [r.exemplar for r in load_dataset("hampton-table3").rows]
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
    rows = parse_membership_csv(MEMBERSHIP_TEXT)
    assert len(rows) == 2
    assert rows[0].exemplar == "Mint" and rows[0].connective == "and"
    assert rows[1].mu_joint == 0.9
    # header alone yields an empty list
    assert parse_membership_csv(MEMBERSHIP_TEXT.splitlines()[0]) == []


def test_parse_membership_weight_out_of_range_carries_line():
    text = MEMBERSHIP_TEXT + "Bad,Food,Plant,1.2,0.5,0.5,and\n"
    with pytest.raises(DataError) as exc_info:
        parse_membership_csv(text)
    assert exc_info.value.line == 4
    assert "muA" in str(exc_info.value)


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

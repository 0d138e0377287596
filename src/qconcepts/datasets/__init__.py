"""Bundled experimental datasets and CSV ingestion.

Three data families ship with the package:

* ``animal-acts-table1`` (and its raw-count twin): four coincidence
  experiments on the combination "The Animal Acts", for the CHSH analysis.
* ``fruits-vegetables-table2``: Hampton (1988b) relative frequencies for
  Fruits, Vegetables, and their disjunction, with published phase angles.
* ``hampton-table3`` (and per-connective views): Hampton (1988a,b)
  membership weights for exemplars of eight concept pairs.

Every CSV goes through one reader. It finds and checks the header row; a
plain body (no quote, comment or blank line, one field count) splits on
commas in one pass into columns, and any other body, or one whose values
fail a check, goes row by row. There each ``DataError`` carries the 1-based
line number (and, where one is at fault, the column) of the first bad row.
Membership and exemplar rows are checked through the owning module's
rules, so a dataset that loads has already passed the model invariants, and
load as columns with weights in float arrays.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
from importlib import resources
from itertools import repeat

import numpy as np

from ..classicality import CONNECTIVES
from ..disjunction_model import ExemplarColumns, ExemplarRow
from ..entanglement import DEFAULT_OUTCOME_NAMES, coincidence_from_values
from ..errors import DataError, ModelError, check_unit_interval

MEMBERSHIP_HEADER = ("exemplar", "conceptA", "conceptB", "muA", "muB", "muJoint", "connective")
EXEMPLAR_HEADER = ("index", "name", "muA", "muB", "muAorB")
COINCIDENCE_HEADER = ("experiment", "outcome11", "outcome12", "outcome21", "outcome22")

# outcome sentences for the bundled coincidence blocks, in (11, 12, 21, 22) order
ANIMAL_ACTS_OUTCOMES = {
    "AB": ("Horse Growls", "Horse Whinnies", "Bear Growls", "Bear Whinnies"),
    "A'B": ("Tiger Growls", "Tiger Whinnies", "Cat Growls", "Cat Whinnies"),
    "AB'": ("Horse Snorts", "Horse Meows", "Bear Snorts", "Bear Meows"),
    "A'B'": ("Tiger Snorts", "Tiger Meows", "Cat Snorts", "Cat Meows"),
}


@dataclass(frozen=True)
class Dataset:
    """A bundled table: identifier, citation, validated rows, and caveats.

    ``rows`` is a ``MembershipColumns`` or ``ExemplarColumns`` for those
    kinds and a tuple of ``CoincidenceTable`` for coincidence blocks.
    """

    id: str
    provenance: str
    kind: str                 # membership | exemplar | coincidence
    rows: MembershipColumns | ExemplarColumns | tuple
    notes: tuple


def _split(raw, source, lineno):
    """The stripped fields of one line. A line with no quote splits on commas
    exactly as ``csv.reader`` would split it; a quoted line goes through its
    own reader, so a stray quote cannot swallow the next line."""
    if '"' in raw:
        try:
            fields = next(csv.reader([raw]))
        except csv.Error as exc:
            raise DataError(f"{source}: malformed CSV: {exc}", line=lineno)
    else:
        fields = raw.split(",")
    return [f.strip() for f in fields]


def _parse_float(fields, names, idx):
    try:
        return float(fields[idx])
    except ValueError:
        raise DataError(f"{names[idx]} is not a number: {fields[idx]!r}",
                        column=names[idx]) from None


def _table(text, source, header, row, columns=None, optional=None):
    """The rows of a CSV table: ``columns(fields, width)`` over its body
    fields in row order, or without ``columns`` the list of ``row`` results.

    The first row that is not blank or a ``#`` comment must be ``header``,
    or ``header`` then ``optional``. A body with no quote, comment or blank
    line and one comma count throughout splits on commas in one pass. Any
    other body, or one for which ``columns`` raises ValueError, goes row by
    row: each row must have the header's width and pass ``row(fields,
    number)``, where ``number(i)`` parses field i as a float; a
    ``ModelError`` there becomes a ``DataError`` with the line, and the
    column if the error named one. ``row`` and ``columns`` check the same
    things, so once every row passes ``row``, ``columns`` must not raise
    (a ValueError there would escape the CLI as a traceback).

    The lines and the joined body stay alive until ``columns`` returns:
    freed before it, they raise glibc's mmap threshold, the columns land on
    the heap, and a 100k-row classicality call then peaked up to 10 MB
    higher in resident memory (in 3 of 4 checkout paths tried).
    """
    lines = text.splitlines()
    for start, raw in enumerate(lines):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            break
    else:
        raise DataError(f"{source}: missing header row")
    names = _split(lines[start], source, start + 1)
    if names not in (list(header), [*header, optional]):
        raise DataError(
            f"{source}: expected header {','.join(header)}"
            + (f"[,{optional}]" if optional else "") + f", got {','.join(names)}",
            line=start + 1)
    width = len(names)
    body = lines[start + 1:]
    joined = ",".join(body)
    if (columns and '"' not in joined and "#" not in joined
            and set(map(str.count, body, repeat(","))) <= {width - 1}):
        try:
            return columns(joined.split(",") if body else [], width)
        except ValueError:
            pass
    rows = []
    for lineno, raw in enumerate(body, start=start + 2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = _split(raw, source, lineno)
        if len(fields) != width:
            raise DataError(f"{source}: expected {width} fields, got {len(fields)}",
                            line=lineno)
        try:
            rows.append(row(fields, partial(_parse_float, fields, names)))
        except ModelError as exc:
            raise DataError(f"{source}: {exc}", line=lineno, column=exc.column) from exc
    return rows if columns is None else columns([f for r in rows for f in r], width)


def read_bytes(path) -> bytes:
    """The bytes of an input file; an OSError becomes a DataError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def _read_text(path):
    try:
        return read_bytes(path).decode("utf-8-sig")     # a leading BOM is skipped
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


@dataclass(frozen=True)
class MembershipColumns:
    """A membership table by column, in file order. ``names`` holds each
    distinct name once, in order of first use down the exemplar, conceptA
    and conceptB columns in turn; those columns are intp codes into it.
    Weights are float64 arrays, and ``is_and`` marks the conjunction rows."""

    names: list
    exemplar: np.ndarray
    concept_a: np.ndarray
    concept_b: np.ndarray
    mu_a: np.ndarray
    mu_b: np.ndarray
    mu_joint: np.ndarray
    is_and: np.ndarray

    def __len__(self):
        return len(self.is_and)

    def take(self, index):
        """The rows ``index`` (positions or a bool mask) selects, sharing ``names``."""
        return MembershipColumns(self.names, self.exemplar[index], self.concept_a[index],
                                 self.concept_b[index], self.mu_a[index], self.mu_b[index],
                                 self.mu_joint[index], self.is_and[index])


def _float_columns(fields, width, columns, lo=0.0, hi=1.0):
    """``columns`` of a ``_table`` split as float64 arrays, each cell read by
    ``float`` as ``_parse_float`` reads it (numpy's string cast reads other
    text); ValueError unless every value lies in [lo, hi]."""
    cols = [np.fromiter(map(float, fields[i::width]), float, len(fields) // width)
            for i in columns]
    if not all(((col >= lo) & (col <= hi)).all() for col in cols):
        raise ValueError("a value out of range")
    return cols


def _membership_row(fields, number):
    if fields[6] not in CONNECTIVES:
        raise DataError(f"connective must be one of {CONNECTIVES}, got {fields[6]!r}",
                        column="connective")
    check_unit_interval(zip(("muA", "muB", "muJoint"), [number(i) for i in (3, 4, 5)]))
    return fields


class _Codes(dict):
    """Name -> code; a name not seen before gets the next code."""

    def __missing__(self, name):
        self[name] = code = len(self)
        return code


def _membership_columns(fields, width):
    # each stripped cell goes straight to its code: lists of stripped names
    # took a 100k-row classicality call's peak RSS from 175 to 195 MB in 3 of
    # 4 checkout paths tried. CONNECTIVES.index raises ValueError on a bad one.
    mu = _float_columns(fields, width, (3, 4, 5))
    n, codes = len(fields) // width, _Codes()
    exemplar, concept_a, concept_b = (
        np.fromiter(map(codes.__getitem__, map(str.strip, fields[i::width])), np.intp, n)
        for i in (0, 1, 2))
    connective = np.fromiter(map(CONNECTIVES.index, map(str.strip, fields[6::width])), np.intp, n)
    return MembershipColumns(list(codes), exemplar, concept_a, concept_b, *mu,
                             connective == CONNECTIVES.index("and"))


def parse_membership_csv(text, source="<membership csv>"):
    """Parse a membership-weight CSV into validated columns; a ``DataError``
    carries the line and, where one is at fault, the column."""
    return _table(text, source, MEMBERSHIP_HEADER, _membership_row, _membership_columns)


def load_membership_csv(path):
    """Parse a membership-weight CSV file into validated columns."""
    return parse_membership_csv(_read_text(path), source=str(path))


def _exemplar_row(fields, number):
    try:
        index = int(fields[0])
    except ValueError:
        raise DataError(f"index is not an integer: {fields[0]!r}", column="index") from None
    ExemplarRow(index, fields[1], number(2), number(3), number(4),
                number(5) if len(fields) == 6 else None)
    return fields


def _exemplar_columns(fields, width):
    mu = _float_columns(fields, width, (2, 3, 4))
    phi = _float_columns(fields, width, range(5, width), -180.0, 180.0)
    return ExemplarColumns(list(map(int, fields[::width])), list(map(str.strip, fields[1::width])),
                           *mu, phi[0] if phi and fields else None)


def parse_exemplar_csv(text, source="<exemplar csv>"):
    """Parse an exemplar-weight CSV (optionally with phases) into validated
    ``ExemplarColumns``; see ``parse_membership_csv`` for errors."""
    return _table(text, source, EXEMPLAR_HEADER, _exemplar_row, _exemplar_columns,
                  optional="phi_deg")


def load_exemplar_csv(path):
    """Parse an exemplar-weight CSV file into validated ``ExemplarColumns``."""
    return parse_exemplar_csv(_read_text(path), source=str(path))


def parse_coincidence_csv(text, source="<coincidence csv>", outcome_names=None):
    def block(fields, number):
        names = (outcome_names or {}).get(fields[0], DEFAULT_OUTCOME_NAMES)
        return coincidence_from_values(fields[0], [number(i) for i in range(1, 5)],
                                       outcome_names=names)

    return _table(text, source, COINCIDENCE_HEADER, block)


def load_coincidence_csv(path):
    """Parse a coincidence CSV (probabilities or raw counts, auto-detected)."""
    return parse_coincidence_csv(_read_text(path), source=str(path))


_NOTES_ANIMAL_ACTS = (
    "block A'B sums to 0.999 as published; the 0.001 deficit is rounding",
    "expectation values recomputed from 3-decimal probabilities differ from the"
    " published 4-decimal ones in the fourth decimal",
)
_NOTES_ANIMAL_ACTS_COUNTS = (
    "counts are back-inferred as round(p * 81); every block totals 81 and"
    " re-rounds to the published probabilities",
)
_NOTES_TABLE2 = (
    "muA, muB, muAorB columns sum to 1.0001, 1.0001, 0.9999; the 25th basis"
    " component of the model absorbs nothing (sums already exceed 1 minus"
    " rounding)",
    "the published Tomato phase 100.7557 deg is inconsistent with the Tomato"
    " weights, which imply magnitude 96.8315 deg; stored verbatim",
)
_NOTES_TABLE3 = (
    "exemplar spellings preserved verbatim, including 'Underwater',"
    " 'Appartment Block', 'Synagoge', 'Hifi', 'Course Liner'",
    "source comma-decimals ('1,05', '0,6') normalized to dot-decimal",
    "published delta/k/f columns are not stored; 12 of those printed cells"
    " disagree with recomputation from the mu columns by more than 0.005",
)

_PROV_ANIMAL = ("Coincidence experiments AB, A'B, AB', A'B' on the combination"
                " 'The Animal Acts'; 81-participant questionnaire.")
_PROV_TABLE2 = ("Hampton (1988b) membership data for Fruits, Vegetables, and their"
                " disjunction, as relative frequencies over 24 exemplars.")
_PROV_TABLE3 = ("Hampton (1988a,b) membership weights for exemplars of eight"
                " concept pairs under conjunction and disjunction.")


# dataset id -> (kind, shipped file, provenance, notes, the ``is_and`` value
# of the rows a Table 3 view keeps: None keeps every row)
_REGISTRY = {
    "animal-acts-table1": ("coincidence", "animal_acts.csv", _PROV_ANIMAL, _NOTES_ANIMAL_ACTS,
                           None),
    "animal-acts-table1-counts": ("coincidence", "animal_acts_counts.csv", _PROV_ANIMAL,
                                  _NOTES_ANIMAL_ACTS_COUNTS, None),
    "fruits-vegetables-table2": ("exemplar", "fruits_vegetables.csv", _PROV_TABLE2,
                                 _NOTES_TABLE2, None),
    **{view: ("membership", "hampton_membership.csv", _PROV_TABLE3, _NOTES_TABLE3, is_and)
       for view, is_and in (("hampton-table3", None), ("hampton-table3-disjunction", False),
                            ("hampton-table3-conjunction", True))},
}

# kind -> parser of a shipped file's text
_PARSERS = {
    "membership": parse_membership_csv,
    "exemplar": parse_exemplar_csv,
    "coincidence": partial(parse_coincidence_csv, outcome_names=ANIMAL_ACTS_OUTCOMES),
}


def dataset_ids():
    return sorted(_REGISTRY)


def _entry(dataset_id: str):
    try:
        return _REGISTRY[dataset_id]
    except KeyError:
        known = ", ".join(dataset_ids())
        raise DataError(f"unknown dataset {dataset_id!r}; bundled: {known}") from None


def dataset_file_bytes(dataset_id: str) -> bytes:
    """Raw bytes of the CSV backing a bundled dataset."""
    return resources.files(__package__).joinpath(_entry(dataset_id)[1]).read_bytes()


def load_dataset(dataset_id: str) -> Dataset:
    """Load and validate one bundled dataset by id."""
    kind, filename, provenance, notes, is_and = _entry(dataset_id)
    rows = _PARSERS[kind](dataset_file_bytes(dataset_id).decode("utf-8"), source=filename)
    if is_and is not None:
        rows = rows.take(rows.is_and == is_and)
    return Dataset(dataset_id, provenance, kind,
                   tuple(rows) if kind == "coincidence" else rows, notes)


def list_datasets():
    """Stable catalog of every bundled dataset: id, provenance, size, notes."""
    catalog = []
    for dataset_id in dataset_ids():
        ds = load_dataset(dataset_id)
        catalog.append({
            "id": ds.id,
            "kind": ds.kind,
            "provenance": ds.provenance,
            "rows": len(ds.rows),
            "notes": list(ds.notes),
        })
    return catalog

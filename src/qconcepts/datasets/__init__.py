"""Bundled experimental datasets and CSV ingestion.

Three data families ship with the package:

* ``animal-acts-table1`` (and its raw-count twin): four coincidence
  experiments on the combination "The Animal Acts", for the CHSH analysis.
* ``fruits-vegetables-table2``: Hampton (1988b) relative frequencies for
  Fruits, Vegetables, and their disjunction, with published phase angles.
* ``hampton-table3`` (and per-connective views): Hampton (1988a,b)
  membership weights for exemplars of eight concept pairs.

Loaders validate every row through the owning module's types, so a dataset
that loads has already passed the model invariants. Parse errors carry the
1-based line number of the offending CSV row. A membership table also loads
as columns (``load_membership_columns``): the weights parse straight into
float arrays, and only text that fails there goes through the per-row
validator for its error.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import partial
from importlib import resources
from itertools import repeat

import numpy as np

from ..classicality import CONNECTIVES, MembershipTriple
from ..disjunction_model import ExemplarRow
from ..entanglement import CoincidenceTable, coincidence_from_values
from ..errors import DataError, ModelError

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
    """A bundled table: identifier, citation, validated rows, and caveats."""

    id: str
    provenance: str
    kind: str                 # membership | exemplar | coincidence
    rows: tuple
    notes: tuple


def _iter_csv_rows(text, source):
    """Yield (line_number, fields) skipping blank and comment lines.

    Each line is parsed on its own, so a stray quote cannot swallow the
    next line. A line with no quote character splits on commas exactly as
    ``csv.reader`` would split it (splitlines leaves no CR or LF inside).
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if '"' in raw:
            try:
                fields = next(csv.reader(io.StringIO(raw)))
            except csv.Error as exc:
                raise DataError(f"{source}: malformed CSV: {exc}", line=lineno)
        else:
            fields = raw.split(",")
        yield lineno, [f.strip() for f in fields]


def _check_header(fields, expected, optional, source, lineno):
    base = list(expected)
    if list(fields) == base:
        return False
    if optional and list(fields) == base + [optional]:
        return True
    raise DataError(
        f"{source}: expected header {','.join(base)}"
        + (f"[,{optional}]" if optional else "") + f", got {','.join(fields)}",
        line=lineno,
    )


def _parse_float(fields, idx, names, source, lineno):
    try:
        return float(fields[idx])
    except ValueError:
        raise DataError(
            f"{source}: {names[idx]} is not a number: {fields[idx]!r}",
            line=lineno, column=names[idx],
        ) from None


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


@dataclass(frozen=True)
class MembershipColumns:
    """A membership table by column, in file order: names as lists of str,
    weights as float64 arrays."""

    exemplar: list
    concept_a: list
    concept_b: list
    mu_a: np.ndarray
    mu_b: np.ndarray
    mu_joint: np.ndarray
    connective: list

    def __len__(self):
        return len(self.connective)

    def take(self, index):
        """The rows at the positions in ``index``, in that order."""
        def pick(names):
            return [names[i] for i in index]

        return MembershipColumns(pick(self.exemplar), pick(self.concept_a), pick(self.concept_b),
                                 self.mu_a[index], self.mu_b[index], self.mu_joint[index],
                                 pick(self.connective))


def _membership_rows(text, source):
    rows, header_seen = [], False
    for lineno, fields in _iter_csv_rows(text, source):
        if not header_seen:
            _check_header(fields, MEMBERSHIP_HEADER, None, source, lineno)
            header_seen = True
            continue
        if len(fields) != len(MEMBERSHIP_HEADER):
            raise DataError(
                f"{source}: expected {len(MEMBERSHIP_HEADER)} fields, got {len(fields)}",
                line=lineno,
            )
        if fields[6] not in CONNECTIVES:
            raise DataError(
                f"{source}: connective must be one of {CONNECTIVES}, got {fields[6]!r}",
                line=lineno, column="connective",
            )
        values = [_parse_float(fields, i, MEMBERSHIP_HEADER, source, lineno) for i in (3, 4, 5)]
        try:
            rows.append(MembershipTriple(
                exemplar=fields[0], concept_a=fields[1], concept_b=fields[2],
                mu_a=values[0], mu_b=values[1], mu_joint=values[2],
                connective=fields[6],
            ))
        except ModelError as exc:
            raise DataError(f"{source}: {exc}", line=lineno) from exc
    if not header_seen:
        raise DataError(f"{source}: missing header row")
    return rows


def _membership_fast(text):
    """The columns of a table with no quote, comment or blank line after its
    header and exactly 6 commas per row, all values valid; else None.

    The body is split on commas in one pass, and each weight goes through
    Python's ``float`` as in ``_parse_float`` (numpy's string cast accepts
    other text). Anything this declines goes to the per-row loop, which
    gives the same columns or the error.
    """
    if '"' in text:
        return None
    lines = text.splitlines()
    for start, raw in enumerate(lines):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            break
    else:
        return None
    if [f.strip() for f in lines[start].split(",")] != list(MEMBERSHIP_HEADER):
        return None
    body = lines[start + 1:]
    joined = ",".join(body)
    if "#" in joined or set(map(str.count, body, repeat(","))) - {6}:
        return None
    fields = joined.split(",") if body else []
    n = len(body)
    try:
        mu = [np.fromiter(map(float, fields[i::7]), float, n) for i in (3, 4, 5)]
    except ValueError:
        return None
    if not all(((col >= 0.0) & (col <= 1.0)).all() for col in mu):
        return None
    exemplar, concept_a, concept_b, connective = (
        list(map(str.strip, fields[i::7])) for i in (0, 1, 2, 6))
    if not set(connective) <= set(CONNECTIVES):
        return None
    return MembershipColumns(exemplar, concept_a, concept_b, *mu, connective)


def parse_membership_columns(text, source="<membership csv>"):
    """Parse a membership-weight CSV into validated columns.

    Errors are those of the per-row loop: a ``DataError`` with the line
    and, where one is at fault, the column.
    """
    columns = _membership_fast(text)
    if columns is None:
        rows = _membership_rows(text, source)
        columns = MembershipColumns(
            *([getattr(r, f) for r in rows] for f in ("exemplar", "concept_a", "concept_b")),
            *(np.array([getattr(r, f) for r in rows], dtype=float)
              for f in ("mu_a", "mu_b", "mu_joint")),
            [r.connective for r in rows])
    return columns


def load_membership_columns(path):
    """Parse a membership-weight CSV file into validated columns."""
    return parse_membership_columns(_read_text(path), source=str(path))


def _triples(columns):
    return list(map(MembershipTriple, columns.exemplar, columns.concept_a, columns.concept_b,
                    columns.mu_a.tolist(), columns.mu_b.tolist(), columns.mu_joint.tolist(),
                    columns.connective))


def parse_membership_csv(text, source="<membership csv>"):
    """Parse a membership-weight CSV into validated triples."""
    return _triples(parse_membership_columns(text, source))


def load_membership_csv(path):
    """Parse a membership-weight CSV file into validated triples."""
    return _triples(load_membership_columns(path))


def parse_exemplar_csv(text, source="<exemplar csv>"):
    rows, header_seen, has_phi = [], False, False
    for lineno, fields in _iter_csv_rows(text, source):
        if not header_seen:
            has_phi = _check_header(fields, EXEMPLAR_HEADER, "phi_deg", source, lineno)
            header_seen = True
            continue
        expected = len(EXEMPLAR_HEADER) + (1 if has_phi else 0)
        if len(fields) != expected:
            raise DataError(f"{source}: expected {expected} fields, got {len(fields)}", line=lineno)
        try:
            index = int(fields[0])
        except ValueError:
            raise DataError(f"{source}: index is not an integer: {fields[0]!r}",
                            line=lineno, column="index") from None
        names = EXEMPLAR_HEADER + ("phi_deg",)
        values = [_parse_float(fields, i, names, source, lineno) for i in (2, 3, 4)]
        phi = _parse_float(fields, 5, names, source, lineno) if has_phi else None
        try:
            rows.append(ExemplarRow(index=index, name=fields[1], mu_a=values[0],
                                    mu_b=values[1], mu_a_or_b=values[2], phi_deg=phi))
        except ModelError as exc:
            raise DataError(f"{source}: {exc}", line=lineno) from exc
    if not header_seen:
        raise DataError(f"{source}: missing header row")
    return rows


def load_exemplar_csv(path):
    """Parse an exemplar-weight CSV (optionally with phases) into validated rows."""
    return parse_exemplar_csv(_read_text(path), source=str(path))


def parse_coincidence_csv(text, source="<coincidence csv>", outcome_names=None):
    tables, header_seen = [], False
    for lineno, fields in _iter_csv_rows(text, source):
        if not header_seen:
            _check_header(fields, COINCIDENCE_HEADER, None, source, lineno)
            header_seen = True
            continue
        if len(fields) != len(COINCIDENCE_HEADER):
            raise DataError(
                f"{source}: expected {len(COINCIDENCE_HEADER)} fields, got {len(fields)}",
                line=lineno,
            )
        values = [_parse_float(fields, i, COINCIDENCE_HEADER, source, lineno)
                  for i in range(1, 5)]
        names = (outcome_names or {}).get(fields[0])
        try:
            if names is None:
                tables.append(coincidence_from_values(fields[0], values))
            else:
                tables.append(coincidence_from_values(fields[0], values, outcome_names=names))
        except ModelError as exc:
            raise DataError(f"{source}: {exc}", line=lineno) from exc
    if not header_seen:
        raise DataError(f"{source}: missing header row")
    return tables


def load_coincidence_csv(path, outcome_names=None):
    """Parse a coincidence CSV (probabilities or raw counts, auto-detected)."""
    return parse_coincidence_csv(_read_text(path), source=str(path),
                                 outcome_names=outcome_names)


def _bundled_text(filename):
    return resources.files(__package__).joinpath(filename).read_text(encoding="utf-8")


# which shipped file backs each dataset id (for input digests in run manifests)
DATASET_FILES = {
    "animal-acts-table1": "animal_acts.csv",
    "animal-acts-table1-counts": "animal_acts_counts.csv",
    "fruits-vegetables-table2": "fruits_vegetables.csv",
    "hampton-table3": "hampton_membership.csv",
    "hampton-table3-disjunction": "hampton_membership.csv",
    "hampton-table3-conjunction": "hampton_membership.csv",
}


def dataset_file_bytes(dataset_id: str) -> bytes:
    """Raw bytes of the CSV backing a bundled dataset."""
    try:
        filename = DATASET_FILES[dataset_id]
    except KeyError:
        known = ", ".join(sorted(DATASET_FILES))
        raise DataError(f"unknown dataset {dataset_id!r}; bundled: {known}") from None
    return resources.files(__package__).joinpath(filename).read_bytes()


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


def _load_animal_acts(counts=False):
    filename = "animal_acts_counts.csv" if counts else "animal_acts.csv"
    return tuple(parse_coincidence_csv(_bundled_text(filename), source=filename,
                                       outcome_names=ANIMAL_ACTS_OUTCOMES))


# the Table 3 views: dataset id -> the connective whose rows it keeps (None: all)
_TABLE3_VIEWS = {
    "hampton-table3": None,
    "hampton-table3-disjunction": "or",
    "hampton-table3-conjunction": "and",
}


def membership_dataset_columns(dataset_id):
    """The rows of a bundled membership dataset (a Table 3 view) as columns."""
    connective = _TABLE3_VIEWS[dataset_id]
    columns = parse_membership_columns(_bundled_text("hampton_membership.csv"),
                                       source="hampton_membership.csv")
    if connective is None:
        return columns
    return columns.take([i for i, c in enumerate(columns.connective) if c == connective])


def _load_table3(dataset_id):
    return tuple(_triples(membership_dataset_columns(dataset_id)))


def _load_table2():
    return tuple(parse_exemplar_csv(_bundled_text("fruits_vegetables.csv"),
                                    source="fruits_vegetables.csv"))


# dataset id -> (kind, provenance, notes, loader of its rows)
_REGISTRY = {
    "animal-acts-table1": ("coincidence", _PROV_ANIMAL, _NOTES_ANIMAL_ACTS, _load_animal_acts),
    "animal-acts-table1-counts": ("coincidence", _PROV_ANIMAL, _NOTES_ANIMAL_ACTS_COUNTS,
                                  partial(_load_animal_acts, counts=True)),
    "fruits-vegetables-table2": ("exemplar", _PROV_TABLE2, _NOTES_TABLE2, _load_table2),
    **{view: ("membership", _PROV_TABLE3, _NOTES_TABLE3, partial(_load_table3, view))
       for view in _TABLE3_VIEWS},
}


def dataset_ids():
    return sorted(_REGISTRY)


def _entry(dataset_id: str):
    try:
        return _REGISTRY[dataset_id]
    except KeyError:
        known = ", ".join(dataset_ids())
        raise DataError(f"unknown dataset {dataset_id!r}; bundled: {known}") from None


def dataset_kind(dataset_id: str) -> str:
    """The kind of rows a bundled dataset holds (membership, exemplar or coincidence)."""
    return _entry(dataset_id)[0]


def load_dataset(dataset_id: str) -> Dataset:
    """Load and validate one bundled dataset by id."""
    kind, provenance, notes, build = _entry(dataset_id)
    return Dataset(dataset_id, provenance, kind, build(), notes)


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

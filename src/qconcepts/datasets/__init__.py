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
1-based line number of the offending CSV row.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources

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


def parse_membership_csv(text, source="<membership csv>"):
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


def load_membership_csv(path):
    """Parse a membership-weight CSV into validated triples."""
    return parse_membership_csv(_read_text(path), source=str(path))


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


def _load_table3(connective=None):
    rows = parse_membership_csv(_bundled_text("hampton_membership.csv"),
                                source="hampton_membership.csv")
    if connective is not None:
        rows = [r for r in rows if r.connective == connective]
    return tuple(rows)


def _load_table2():
    return tuple(parse_exemplar_csv(_bundled_text("fruits_vegetables.csv"),
                                    source="fruits_vegetables.csv"))


_REGISTRY = {
    "animal-acts-table1": lambda: Dataset(
        "animal-acts-table1", _PROV_ANIMAL, "coincidence",
        _load_animal_acts(), _NOTES_ANIMAL_ACTS),
    "animal-acts-table1-counts": lambda: Dataset(
        "animal-acts-table1-counts", _PROV_ANIMAL, "coincidence",
        _load_animal_acts(counts=True), _NOTES_ANIMAL_ACTS_COUNTS),
    "fruits-vegetables-table2": lambda: Dataset(
        "fruits-vegetables-table2", _PROV_TABLE2, "exemplar",
        _load_table2(), _NOTES_TABLE2),
    "hampton-table3": lambda: Dataset(
        "hampton-table3", _PROV_TABLE3, "membership",
        _load_table3(), _NOTES_TABLE3),
    "hampton-table3-disjunction": lambda: Dataset(
        "hampton-table3-disjunction", _PROV_TABLE3, "membership",
        _load_table3("or"), _NOTES_TABLE3),
    "hampton-table3-conjunction": lambda: Dataset(
        "hampton-table3-conjunction", _PROV_TABLE3, "membership",
        _load_table3("and"), _NOTES_TABLE3),
}


def dataset_ids():
    return sorted(_REGISTRY)


def load_dataset(dataset_id: str) -> Dataset:
    """Load and validate one bundled dataset by id."""
    try:
        build = _REGISTRY[dataset_id]
    except KeyError:
        known = ", ".join(dataset_ids())
        raise DataError(f"unknown dataset {dataset_id!r}; bundled: {known}") from None
    return build()


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

"""Command-line interface: analysis verbs over files or bundled datasets.

Subcommands: classicality, fock, chsh, disjunction-model, wavefield,
datasets. Every verb prints a human report by default and pure JSON with
``--json``. Verbs that write files also write a run manifest (inputs by
sha256 digest, fully resolved parameters, output names, tool version; no
timestamps), so identical inputs and flags give byte-identical artifacts.

Exit codes: 0 success, 1 validation/model error (machine-readable JSON on
standard error), 2 usage error. Output files land in ``--out-dir`` when
given, else ``$QCONCEPTS_OUT_DIR``, else the working directory; all file
writes go through a temp file and an atomic rename.

Angles are degrees everywhere here: 2 decimals in human text, 4 in JSON.
Other numbers print at 6 significant digits in human text and full
precision in JSON.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys

import numpy as np

from . import __version__, classicality, datasets, disjunction_model, entanglement, fock, wavefield
from .errors import ConstructionInapplicable, DataError, ModelError, NoInterferenceSolution


def _sig(x) -> str:
    return f"{float(x):.6g}"


def _deg_json(radians) -> list:
    """Each angle in degrees, rounded to 4 decimals."""
    return [round(d, 4) for d in np.degrees(radians).tolist()]


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get("QCONCEPTS_OUT_DIR") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ModelError(
            f"cannot create output directory {out}: {exc.strerror or exc}") from None
    return out


_encode_str = json.encoder.encode_basestring_ascii

ROWS_PER_CHUNK = 4096       # list elements per chunk of streamed JSON and CSV text


def _json_pieces(obj, encoded=()):
    """Yield ``json.dumps(obj, indent=2, sort_keys=True)`` of a dict in pieces.

    Each key of ``encoded`` is added to the top-level dict with a sequence
    of text chunks, already encoded at indent 0, as its value. Each chunk is
    re-indented on its own by replacing its newlines, which is safe because
    JSON strings never hold a raw newline.
    """
    texts = {key: [json.dumps(value, indent=2, sort_keys=True)] for key, value in obj.items()}
    texts.update(encoded)
    sep = "{\n  "
    for key in sorted(texts):
        yield f"{sep}{_encode_str(key)}: "
        for chunk in texts[key]:
            yield chunk.replace("\n", "\n  ")
        sep = ",\n  "
    yield "{}" if sep == "{\n  " else "\n}"


def _join_chunks(sep, texts):
    """``sep.join`` of each run of up to ROWS_PER_CHUNK consecutive texts,
    none of which may be empty."""
    texts = iter(texts)
    while chunk := sep.join(itertools.islice(texts, ROWS_PER_CHUNK)):
        yield chunk


def _gather(texts, codes) -> list:
    """``texts[c]`` for each code ``c``."""
    return np.array(texts, dtype=object)[np.asarray(codes, dtype=np.intp)].tolist()


def _json_float_column(col) -> list:
    """JSON text of each float as json.dumps writes it, each distinct value
    formatted once.

    Worth it where values repeat, as survey weights do. Values are keyed by
    bit pattern: ``np.unique`` on the values would merge -0.0 with 0.0,
    whose reprs differ.
    """
    col = np.asarray(col, dtype=np.float64)
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    encode = float.__repr__ if np.isfinite(col).all() else json.dumps
    return _gather(list(map(encode, bits.view(np.float64).tolist())), inverse)


def _json_list(texts):
    """Yield ``json.dumps`` of a list at indent 0 in chunks of ROWS_PER_CHUNK
    elements, given each element's JSON text as it sits in the list."""
    opened = False
    for chunk in _join_chunks(",\n  ", texts):
        yield ",\n  " if opened else "[\n  "
        yield chunk
        opened = True
    yield "\n]" if opened else "[]"


def _json_rows(columns: dict):
    """Yield ``json.dumps`` of a list of dicts in chunks (see ``_json_list``),
    given each key's column of encoded values.

    Every row is formatted through one %-template holding the keys in
    sort_keys order, so no per-row encoder runs.
    """
    keys = sorted(columns)
    template = "{\n" + ",\n".join(
        f"    {_encode_str(key).replace('%', '%%')}: %s" for key in keys) + "\n  }"
    return _json_list(map(template.__mod__, zip(*(columns[key] for key in keys))))


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _write_manifest(argv, args, out, name, parameters, outputs) -> dict:
    """Write the run manifest ``name`` in ``out``, adding dataset, input and out_dir."""
    source, read = ((args.dataset, datasets.dataset_file_bytes) if args.dataset
                    else (args.input, datasets.read_bytes))
    manifest = {
        "command": list(argv),
        "inputs": {source: _digest(read(source))},
        "parameters": dict(parameters, dataset=args.dataset, input=args.input, out_dir=out),
        "outputs": sorted(outputs),
        "tool_version": __version__,
    }
    wavefield.atomic_write(os.path.join(out, name),
                           itertools.chain(map(str.encode, _json_pieces(manifest)), [b"\n"]))
    return manifest


def _emit(args, payload: dict, human_lines, encoded=()):
    """Write the payload (see ``_json_pieces``) with --json, else the human lines."""
    if args.json:
        for piece in _json_pieces(payload, encoded):
            sys.stdout.write(piece)
        sys.stdout.write("\n")
    else:
        for line in human_lines:
            print(line)


def _dataset_rows(args, kind: str):
    """Rows from --input or --dataset, checked against the expected payload kind."""
    if args.dataset:
        ds = datasets.load_dataset(args.dataset)
        if ds.kind != kind:
            raise ModelError(
                f"dataset {args.dataset!r} holds {ds.kind} rows; this command needs {kind} rows")
        return ds.rows
    return getattr(datasets, f"load_{kind}_csv")(args.input)


# ---------------------------------------------------------------- classicality

def _csv_field(text: str) -> str:
    """A CSV field quoted as csv.QUOTE_MINIMAL would quote it, only when it must be."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_classicality(args, argv):
    table = _dataset_rows(args, "membership")
    diag = classicality.batch_diagnose(table.mu_a, table.mu_b, table.mu_joint, table.is_and)
    ext_names = [e.value for e in classicality.ExtensionClass]
    names_json, names_csv = (list(map(encode, table.names)) for encode in (_encode_str, _csv_field))
    columns = {
        "exemplar": _gather(names_json, table.exemplar),
        "conceptA": _gather(names_json, table.concept_a),
        "conceptB": _gather(names_json, table.concept_b),
        "muA": _json_float_column(table.mu_a),
        "muB": _json_float_column(table.mu_b),
        "muJoint": _json_float_column(table.mu_joint),
        "connective": _gather(['"or"', '"and"'], table.is_and),
        "delta": _json_float_column(diag.delta),
        "k": _json_float_column(diag.kolmogorov_factor),
        "f": _json_float_column(diag.interference_need),
        "classical": _gather(["false", "true"], diag.classical_representable),
        "extension_class": _gather(list(map(_encode_str, ext_names)), diag.extension_code),
    }
    # kept until stdout is written, which repeats them
    rows_json = list(_json_rows(columns))

    out = _out_dir(args)
    json_name, csv_name = "classicality.json", "classicality.csv"
    wavefield.atomic_write(os.path.join(out, json_name),
                           itertools.chain(map(str.encode, rows_json), [b"\n"]))
    # the weights are validated finite, so their JSON text is also their repr
    csv_lines = map(("%s," * 11 + "%s\n").__mod__, zip(
        *(_gather(names_csv, c) for c in (table.exemplar, table.concept_a, table.concept_b)),
        columns["muA"], columns["muB"], columns["muJoint"],
        _gather(["or", "and"], table.is_and), columns["delta"], columns["k"], columns["f"],
        columns["classical"], _gather(ext_names, diag.extension_code)))
    header = ("exemplar,conceptA,conceptB,muA,muB,muJoint,connective,"
              "delta,k,f,classical,extension_class\n")
    wavefield.atomic_write(os.path.join(out, csv_name),
                           map(str.encode, itertools.chain([header], _join_chunks("", csv_lines))))
    manifest = _write_manifest(argv, args, out, "classicality_manifest.json",
                               {"slack": classicality.ZERO_SLACK}, [json_name, csv_name])

    def human():
        n = len(table)
        n_classical = int(np.count_nonzero(diag.classical_representable))
        counts = np.bincount(diag.extension_code, minlength=len(ext_names)).tolist()
        class_summary = ", ".join(f"{c} {m}" for c, m in sorted(zip(ext_names, counts)) if m)
        yield f"{n} rows: {n_classical} classically representable, {n - n_classical} not"
        yield f"extension classes: {class_summary}"
        delta, k, f = (col.tolist() for col in
                       (diag.delta, diag.kolmogorov_factor, diag.interference_need))
        for name, conn, d_, k_, f_, ext_ in zip(
                _gather(table.names, table.exemplar), _gather(["or", "and"], table.is_and),
                delta, k, f, _gather(ext_names, diag.extension_code)):
            yield (f"  {name:<18} {conn:<3} delta {_sig(d_):>9}"
                   f"  k {_sig(k_):>9}  f {_sig(f_):>9}  {ext_}")
        yield f"wrote {json_name}, {csv_name}, classicality_manifest.json in {out}"

    _emit(args, {"outputs": manifest["outputs"]}, human(), encoded={"rows": rows_json})


# ------------------------------------------------------------------------ fock

# connective -> (angle extraction, forward prediction)
_FOCK_CONNECTIVES = {
    "and": (fock.interference_angle_conjunction, fock.fock_conjunction),
    "or": (fock.interference_angle_disjunction, fock.fock_disjunction),
}


def _cmd_fock(args, argv):
    weights = fock.FockWeights(args.m2, 1.0 - args.m2)
    extract, forward = _FOCK_CONNECTIVES[args.connective]
    beta = extract(args.mu_a, args.mu_b, args.mu_joint, weights)
    try:
        vec_a, vec_b, proj = fock.build_c3_vectors(args.mu_a, args.mu_b, beta)
        c3 = {
            "vector_a": [[z.real, z.imag] for z in vec_a.components],
            "vector_b": [[z.real, z.imag] for z in vec_b.components],
            "projector_indices": list(proj.basis_indices),
        }
    except ConstructionInapplicable:
        c3 = None
    roundtrip = forward(args.mu_a, args.mu_b, beta, weights)
    payload = {
        "connective": args.connective,
        "muA": args.mu_a,
        "muB": args.mu_b,
        "muJoint": args.mu_joint,
        "weights": {"m2": weights.m_sq, "n2": weights.n_sq},
        "beta_deg": _deg_json([beta])[0],
        "prediction_roundtrip": roundtrip,
        "c3": c3,
    }
    human = [
        f"interference angle: {np.degrees(beta):.2f} deg",
        f"sector weights: m2 = {_sig(weights.m_sq)}, n2 = {_sig(weights.n_sq)}",
        f"round-trip prediction: {_sig(roundtrip)} (target {_sig(args.mu_joint)})",
        "3-d realization: " + ("included" if c3 else
                               "not applicable (needs muA > 0 and muA + muB >= 1)"),
    ]
    _emit(args, payload, human)


# ------------------------------------------------------------------------ chsh

def _cmd_chsh(args, argv):
    result = entanglement.chsh_statistic(_dataset_rows(args, "coincidence"))
    diagnostics = []
    for t in result.tables:
        total = sum(t.probabilities)
        diagnostics.append({
            "label": t.label,
            "outcomes": list(t.outcome_names),
            "probabilities": list(t.probabilities),
            "sum": total,
            "normalization_deficit": 1.0 - total,
            "count_total": t.total,
        })
    payload = {
        "expectations": result.expectations,
        "s": result.s,
        "classification": result.classification.value,
        "local_deterministic_bound": entanglement.local_deterministic_bound(),
        "tsirelson_bound": entanglement.tsirelson_bound(),
        "tables": diagnostics,
    }
    human = [
        "E(A,B) = {}   E(A',B) = {}   E(A,B') = {}   E(A',B') = {}".format(
            *map(_sig, result.expectations.values())),
        f"s = E(A',B') + E(A',B) + E(A,B') - E(A,B) = {_sig(result.s)}",
        f"classification: {result.classification.value} "
        f"(classical bound 2, quantum bound {_sig(entanglement.tsirelson_bound())})",
    ]
    for d in diagnostics:
        note = "" if d["count_total"] is None else f" (from {int(d['count_total'])} counts)"
        human.append(
            f"  {d['label']:<5} sum {_sig(d['sum'])}"
            f" deficit {_sig(d['normalization_deficit'])}{note}"
        )
    _emit(args, payload, human)


# ----------------------------------------------------------- disjunction-model

def _cmd_disjunction_model(args, argv):
    rows = _dataset_rows(args, "exemplar")
    model = disjunction_model.build_model(rows)
    predictions = [disjunction_model.predict_disjunction(model, k)
                   for k in range(1, len(rows) + 1)]
    errors = np.abs(np.array(predictions) - rows.mu_a_or_b)
    phi_deg = _deg_json(model.phases)
    rows_json = _json_rows({
        "index": list(map(str, rows.index)),
        "name": list(map(_encode_str, rows.name)),
        "muA": _json_float_column(rows.mu_a),
        "muB": _json_float_column(rows.mu_b),
        "muAorB": _json_float_column(rows.mu_a_or_b),
        "phi_deg_supplied": (["null"] * len(rows) if rows.phi_deg is None
                             else _json_float_column(rows.phi_deg)),
        "phi_deg": _json_float_column(phi_deg),
        "prediction": _json_float_column(predictions),
        "abs_error": _json_float_column(errors),
    })
    payload = {
        "dim": model.dim,
        "sign_source": model.sign_source,
        "sign_residual": model.sign_residual,
        "orthogonality_residual": disjunction_model.orthogonality_residual(model),
        "norm_deviation_a": model.norm_deviation_a,
        "norm_deviation_b": model.norm_deviation_b,
        "max_abs_prediction_error": float(errors.max()),
    }
    encoded = {"rows": rows_json, "c": _json_list(["1.0"] * len(rows))}
    if args.emit_vectors:
        # each vector is a list of [re, im] pairs, encoded as _json_rows encodes rows
        pair = "[\n    %s,\n    %s\n  ]"
        encoded["vectors"] = _json_pieces({}, {
            label: _json_list(map(pair.__mod__, zip(
                _json_float_column(vec.real), _json_float_column(vec.imag))))
            for label, vec in (("A", model.vector_a), ("B", model.vector_b))})

    def human():
        yield f"{model.dim}-dimensional model over {len(rows)} exemplars"
        yield (f"phase signs: {model.sign_source}"
               f" (imaginary residual {_sig(model.sign_residual)})")
        yield f"orthogonality residual |<A|B>|: {_sig(payload['orthogonality_residual'])}"
        yield f"max |prediction - muAorB|: {_sig(payload['max_abs_prediction_error'])}"
        for index, name, phi, pred, observed in zip(rows.index, rows.name, phi_deg, predictions,
                                                    rows.mu_a_or_b.tolist()):
            yield (f"  {index:>3} {name:<14} phi {phi:>9.2f} deg"
                   f"  predicted {_sig(pred):>9}  observed {_sig(observed)}")

    _emit(args, payload, human(), encoded=encoded)


# ------------------------------------------------------------------- wavefield

def _grid_spec(text: str):
    try:
        nx, ny = text.lower().split("x")
        nx, ny = int(nx), int(ny)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 512x512, got {text!r}")
    if nx < 2 or ny < 2:
        raise argparse.ArgumentTypeError("grid must be at least 2x2")
    return nx, ny


def _cmd_wavefield(args, argv):
    nx, ny = args.grid
    if nx * ny > wavefield.MAX_GRID_PIXELS:     # refused before any table is read
        raise ModelError(f"grid {nx}x{ny} is too large to allocate")
    rows = _dataset_rows(args, "exemplar")
    model = disjunction_model.build_model(rows)
    config = wavefield.default_config(rows)
    poly = wavefield.fit_phase_field(config.positions, model.phases)
    patterns = wavefield.evaluate_patterns(config, poly, grid=args.grid)

    px, py = config.positions[:, 0], config.positions[:, 1]
    i_a, i_b, superposed, _ = wavefield.evaluate_at(config, poly, config.positions)
    sup = patterns[wavefield.GridKind.SUPERPOSED]
    residuals = {
        "placement_a": float(np.max(np.abs(i_a - rows.mu_a))),
        "placement_b": float(np.max(np.abs(i_b - rows.mu_b))),
        "phase_fit": float(np.max(np.abs(poly.evaluate(px, py) - model.phases))),
        "superposed_vs_observed": float(np.max(np.abs(superposed - rows.mu_a_or_b))),
        "constructive_pixels": sup.constructive_count,
        "destructive_pixels": sup.destructive_count,
    }

    out = _out_dir(args)
    outputs = []
    for kind, pattern in patterns.items():
        name = f"wavefield_{kind.name.lower()}.{args.format}"
        written = wavefield.export_grid(pattern, os.path.join(out, name), fmt=args.format)
        outputs.extend(os.path.basename(p) for p in written)
    parameters = {
        "grid": list(args.grid),
        "extent": list(wavefield.DEFAULT_EXTENT),
        "format": args.format,
        **dataclasses.asdict(config),
        "positions": config.positions.tolist(),
        "polynomial": dataclasses.asdict(poly),
        "sign_source": model.sign_source,
        "clamp_count": sup.clamp_count,
        "residuals": residuals,
    }
    manifest = _write_manifest(argv, args, out, "wavefield_manifest.json", parameters, outputs)

    human = [
        f"fitted widths: sigma_A = {_sig(config.sigma_ax)} (circular),"
        f" sigma_Bx = {_sig(config.sigma_bx)}, sigma_By = {_sig(config.sigma_by)}",
        f"placed {len(rows)} exemplars;"
        f" phase polynomial on {len(poly.terms)} monomials"
        f" (fallback: {'yes' if poly.fallback_used else 'no'})",
        f"superposed matches observed disjunction weights within"
        f" {_sig(residuals['superposed_vs_observed'])}",
        f"interference: {residuals['constructive_pixels']} constructive,"
        f" {residuals['destructive_pixels']} destructive pixels;"
        f" clamped {parameters['clamp_count']} negative pixels",
        f"wrote {', '.join(sorted(outputs))} and wavefield_manifest.json in {out}",
    ]
    _emit(args, {"manifest": manifest}, human)


# -------------------------------------------------------------------- datasets

def _cmd_datasets(args, argv):
    catalog = datasets.list_datasets()
    human = []
    for entry in catalog:
        human.append(f"{entry['id']}  ({entry['kind']}, {entry['rows']} rows)")
        human.append(f"  {entry['provenance']}")
        for note in entry["notes"]:
            human.append(f"  - {note}")
    _emit(args, {"datasets": catalog}, human)


# ----------------------------------------------------------------- entry point

def _add_source_flags(sub, kind_label):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help=f"path to a {kind_label} CSV file")
    group.add_argument("--dataset", help="bundled dataset id (see the datasets verb)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qconcepts",
        description="Quantum-theoretic models of concept combinations: "
                    "classicality diagnostics, interference angles, CHSH "
                    "statistics, an explicit disjunction model, and wavefield "
                    "rasters.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("classicality",
                        help="delta/k/f diagnostics and extension classes per row")
    _add_source_flags(p, "membership")
    p.add_argument("--out-dir", help="directory for the JSON/CSV reports")
    p.set_defaults(func=_cmd_classicality)

    p = subs.add_parser("fock",
                        help="two-sector interference angle for one weight triple")
    p.add_argument("--mu-a", type=float, required=True, dest="mu_a")
    p.add_argument("--mu-b", type=float, required=True, dest="mu_b")
    p.add_argument("--mu-joint", type=float, required=True, dest="mu_joint")
    p.add_argument("--connective", choices=_FOCK_CONNECTIVES, required=True)
    p.add_argument("--m2", type=float, default=0.3,
                   help="pair-sector weight m^2 (default 0.3)")
    p.set_defaults(func=_cmd_fock)

    p = subs.add_parser("chsh", help="CHSH statistic over four coincidence blocks")
    _add_source_flags(p, "coincidence")
    p.set_defaults(func=_cmd_chsh)

    p = subs.add_parser("disjunction-model",
                        help="explicit superposition model over an exemplar list")
    _add_source_flags(p, "exemplar")
    p.add_argument("--emit-vectors", action="store_true",
                   help="include the complex concept vectors in the JSON")
    p.set_defaults(func=_cmd_disjunction_model)

    p = subs.add_parser("wavefield",
                        help="fit, rasterize, and export the four intensity patterns")
    _add_source_flags(p, "exemplar")
    p.add_argument("--grid", type=_grid_spec, default=wavefield.DEFAULT_GRID,
                   metavar="NXxNY", help="raster size, e.g. 512x512 (default)")
    p.add_argument("--format", choices=("pgm", "csv"), default="pgm")
    p.add_argument("--out-dir", help="directory for the pattern files")
    p.set_defaults(func=_cmd_wavefield)

    p = subs.add_parser("datasets", help="catalog of bundled datasets")
    p.set_defaults(func=_cmd_datasets)
    for p in subs.choices.values():
        p.add_argument("--json", action="store_true", help="pure JSON on stdout")
    return parser


def _error_payload(exc: ModelError) -> dict:
    info = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NoInterferenceSolution) and exc.argument is not None:
        info["argument"] = exc.argument
    if isinstance(exc, DataError):
        if exc.line is not None:
            info["line"] = exc.line
        if exc.column is not None:
            info["column"] = exc.column
    return {"error": info}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, argv)
        sys.stdout.flush()
        return 0
    except ModelError as exc:
        error = _error_payload(exc)
    except BrokenPipeError:
        # stdout's reader has gone: send what is still buffered to devnull,
        # so the interpreter's last flush at exit has nothing to report
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass        # a stdout with no file descriptor
        finally:
            os.close(devnull)
        error = {"error": {"type": "BrokenPipeError",
                           "message": "standard output was closed before the report was written"}}
    print(json.dumps(error, indent=2, sort_keys=True), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

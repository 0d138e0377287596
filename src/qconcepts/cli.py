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
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, classicality, datasets, disjunction_model, entanglement, fock, wavefield
from .errors import DataError, ModelError, NoInterferenceSolution

CHSH_BLOCKS = ("AB", "A'B", "AB'", "A'B'")

_PATTERN_FILES = (
    (wavefield.GridKind.INTENSITY_A, "wavefield_intensity_a"),
    (wavefield.GridKind.INTENSITY_B, "wavefield_intensity_b"),
    (wavefield.GridKind.SUPERPOSED, "wavefield_superposed"),
    (wavefield.GridKind.CLASSICAL_AVERAGE, "wavefield_classical_average"),
)


def _sig(x) -> str:
    return f"{float(x):.6g}"


def _deg_json(radians) -> float:
    return round(float(np.degrees(radians)), 4)


def _out_dir(args) -> str:
    out = args.out_dir or os.environ.get("QCONCEPTS_OUT_DIR") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ModelError(
            f"cannot create output directory {out}: {exc.strerror or exc}") from None
    return out


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _input_digests(args) -> dict:
    if getattr(args, "dataset", None):
        return {args.dataset: _digest(datasets.dataset_file_bytes(args.dataset))}
    try:
        with open(args.input, "rb") as fh:
            return {str(args.input): _digest(fh.read())}
    except OSError as exc:
        raise DataError(f"cannot read {args.input}: {exc.strerror or exc}") from None


def _manifest(argv, args, parameters, outputs) -> dict:
    return {
        "command": list(argv),
        "inputs": _input_digests(args),
        "parameters": parameters,
        "outputs": sorted(outputs),
        "tool_version": __version__,
    }


def _emit(args, payload: dict, human_lines):
    if args.json:
        print(_dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _dataset_rows(args, kind: str):
    """Rows from --input or --dataset, checked against the expected payload kind."""
    if getattr(args, "dataset", None):
        ds = datasets.load_dataset(args.dataset)
        if ds.kind != kind:
            raise ModelError(
                f"dataset {ds.id!r} holds {ds.kind} rows; this command needs {kind} rows"
            )
        return list(ds.rows)
    loader = {
        "membership": datasets.load_membership_csv,
        "exemplar": datasets.load_exemplar_csv,
        "coincidence": datasets.load_coincidence_csv,
    }[kind]
    return loader(args.input)


# ---------------------------------------------------------------- classicality

def _cmd_classicality(args, argv) -> int:
    triples = _dataset_rows(args, "membership")
    reports = classicality.batch_diagnose(triples)
    records = []
    for t, r in zip(triples, reports):
        records.append({
            "exemplar": t.exemplar,
            "conceptA": t.concept_a,
            "conceptB": t.concept_b,
            "muA": t.mu_a,
            "muB": t.mu_b,
            "muJoint": t.mu_joint,
            "connective": t.connective,
            "delta": r.delta,
            "k": r.kolmogorov_factor,
            "f": r.interference_need,
            "classical": r.classical_representable,
            "extension_class": r.extension_class.value,
        })

    out = _out_dir(args)
    json_name, csv_name = "classicality.json", "classicality.csv"
    wavefield.atomic_write(os.path.join(out, json_name), (_dumps(records) + "\n").encode())
    header = "exemplar,conceptA,conceptB,muA,muB,muJoint,connective,delta,k,f,classical,extension_class"
    lines = [header]
    for rec in records:
        lines.append(",".join([
            rec["exemplar"], rec["conceptA"], rec["conceptB"],
            repr(rec["muA"]), repr(rec["muB"]), repr(rec["muJoint"]),
            rec["connective"], repr(rec["delta"]), repr(rec["k"]), repr(rec["f"]),
            "true" if rec["classical"] else "false", rec["extension_class"],
        ]))
    wavefield.atomic_write(os.path.join(out, csv_name), ("\n".join(lines) + "\n").encode())
    manifest = _manifest(argv, args, {
        "dataset": getattr(args, "dataset", None),
        "input": str(args.input) if getattr(args, "input", None) else None,
        "slack": classicality.ZERO_SLACK,
        "out_dir": args.out_dir or os.environ.get("QCONCEPTS_OUT_DIR") or ".",
    }, [json_name, csv_name])
    wavefield.atomic_write(os.path.join(out, "classicality_manifest.json"),
                           (_dumps(manifest) + "\n").encode())

    n_classical = sum(1 for r in records if r["classical"])
    by_class = {}
    for r in records:
        by_class[r["extension_class"]] = by_class.get(r["extension_class"], 0) + 1
    class_summary = ", ".join(f"{k} {v}" for k, v in sorted(by_class.items()))
    human = [
        f"{len(records)} rows: {n_classical} classically representable,"
        f" {len(records) - n_classical} not",
        f"extension classes: {class_summary}",
    ]
    for rec in records:
        human.append(
            f"  {rec['exemplar']:<18} {rec['connective']:<3}"
            f" delta {_sig(rec['delta']):>9}  k {_sig(rec['k']):>9}"
            f"  f {_sig(rec['f']):>9}  {rec['extension_class']}"
        )
    human.append(f"wrote {json_name}, {csv_name}, classicality_manifest.json in {out}")
    _emit(args, {"rows": records, "outputs": manifest["outputs"]}, human)
    return 0


# ------------------------------------------------------------------------ fock

def _cmd_fock(args, argv) -> int:
    weights = fock.FockWeights(args.m2, 1.0 - args.m2)
    solution = fock.solve_interference(args.mu_a, args.mu_b, args.mu_joint,
                                       args.connective, weights)
    forward = fock.fock_conjunction if args.connective == "and" else fock.fock_disjunction
    roundtrip = forward(args.mu_a, args.mu_b, solution.beta, weights)
    payload = {
        "connective": args.connective,
        "muA": args.mu_a,
        "muB": args.mu_b,
        "muJoint": args.mu_joint,
        "weights": {"m2": weights.m_sq, "n2": weights.n_sq},
        "beta_deg": _deg_json(solution.beta),
        "prediction_roundtrip": roundtrip,
        "c3": None,
    }
    if solution.vector_a is not None:
        payload["c3"] = {
            "vector_a": [[z.real, z.imag] for z in solution.vector_a.components],
            "vector_b": [[z.real, z.imag] for z in solution.vector_b.components],
            "projector_indices": list(solution.projector.basis_indices),
        }
    human = [
        f"interference angle: {np.degrees(solution.beta):.2f} deg",
        f"sector weights: m2 = {_sig(weights.m_sq)}, n2 = {_sig(weights.n_sq)}",
        f"round-trip prediction: {_sig(roundtrip)} (target {_sig(args.mu_joint)})",
        "3-d realization: " + ("included" if payload["c3"] else
                               "not applicable (needs muA > 0 and muA + muB >= 1)"),
    ]
    _emit(args, payload, human)
    return 0


# ------------------------------------------------------------------------ chsh

def _cmd_chsh(args, argv) -> int:
    tables = _dataset_rows(args, "coincidence")
    by_label = {}
    for t in tables:
        if t.label in by_label:
            raise ModelError(f"duplicate coincidence block {t.label!r}")
        by_label[t.label] = t
    missing = [b for b in CHSH_BLOCKS if b not in by_label]
    if missing:
        raise ModelError(f"missing coincidence blocks: {', '.join(missing)}")
    extra = [lbl for lbl in by_label if lbl not in CHSH_BLOCKS]
    if extra:
        raise ModelError(f"unexpected coincidence blocks: {', '.join(sorted(extra))}")
    result = entanglement.chsh_statistic(
        by_label["AB"], by_label["A'B"], by_label["AB'"], by_label["A'B'"])

    diagnostics = []
    for block in CHSH_BLOCKS:
        t = by_label[block]
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
        "expectations": {
            "AB": result.e_ab, "A'B": result.e_apb,
            "AB'": result.e_abp, "A'B'": result.e_apbp,
        },
        "s": result.s,
        "classification": result.classification.value,
        "local_deterministic_bound": entanglement.local_deterministic_bound(),
        "tsirelson_bound": entanglement.tsirelson_bound(),
        "tables": diagnostics,
    }
    human = [
        f"E(A,B) = {_sig(result.e_ab)}   E(A',B) = {_sig(result.e_apb)}   "
        f"E(A,B') = {_sig(result.e_abp)}   E(A',B') = {_sig(result.e_apbp)}",
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
    return 0


# ----------------------------------------------------------- disjunction-model

def _cmd_disjunction_model(args, argv) -> int:
    rows = _dataset_rows(args, "exemplar")
    model = disjunction_model.build_model(rows)
    predictions = [disjunction_model.predict_disjunction(model, k)
                   for k in range(1, len(rows) + 1)]
    errors = [abs(p - r.mu_a_or_b) for p, r in zip(predictions, model.rows)]
    row_payload = []
    for r, phase, pred, err in zip(model.rows, model.phases, predictions, errors):
        row_payload.append({
            "index": r.index,
            "name": r.name,
            "muA": r.mu_a,
            "muB": r.mu_b,
            "muAorB": r.mu_a_or_b,
            "phi_deg_supplied": r.phi_deg,
            "phi_deg": _deg_json(phase),
            "prediction": pred,
            "abs_error": err,
        })
    payload = {
        "dim": model.dim,
        "c": list(model.c),
        "sign_source": model.sign_source,
        "sign_residual": model.sign_residual,
        "orthogonality_residual": disjunction_model.orthogonality_residual(model),
        "norm_deviation_a": model.norm_deviation_a,
        "norm_deviation_b": model.norm_deviation_b,
        "max_abs_prediction_error": max(errors),
        "rows": row_payload,
    }
    if args.emit_vectors:
        payload["vectors"] = {
            "A": [[z.real, z.imag] for z in model.vector_a],
            "B": [[z.real, z.imag] for z in model.vector_b],
        }
    human = [
        f"{model.dim}-dimensional model over {len(rows)} exemplars",
        f"phase signs: {model.sign_source}"
        f" (imaginary residual {_sig(model.sign_residual)})",
        f"orthogonality residual |<A|B>|: {_sig(payload['orthogonality_residual'])}",
        f"max |prediction - muAorB|: {_sig(payload['max_abs_prediction_error'])}",
    ]
    for rp in row_payload:
        human.append(
            f"  {rp['index']:>3} {rp['name']:<14} phi {rp['phi_deg']:>9.2f} deg"
            f"  predicted {_sig(rp['prediction']):>9}  observed {_sig(rp['muAorB'])}"
        )
    _emit(args, payload, human)
    return 0


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


def _cmd_wavefield(args, argv) -> int:
    rows = _dataset_rows(args, "exemplar")
    model = disjunction_model.build_model(rows)
    config = wavefield.default_config(rows)
    poly = wavefield.fit_phase_field(config.positions, model.phases)
    patterns = wavefield.evaluate_patterns(config, poly, grid=args.grid)

    px, py = config.positions[:, 0], config.positions[:, 1]
    i_a, i_b, superposed, _ = wavefield.evaluate_at(config, poly, config.positions)
    mu_a = np.array([r.mu_a for r in rows])
    mu_b = np.array([r.mu_b for r in rows])
    mu_or = np.array([r.mu_a_or_b for r in rows])
    sup_vals = patterns[wavefield.GridKind.SUPERPOSED].values
    cla_vals = patterns[wavefield.GridKind.CLASSICAL_AVERAGE].values
    residuals = {
        "placement_a": float(np.max(np.abs(i_a - mu_a))),
        "placement_b": float(np.max(np.abs(i_b - mu_b))),
        "phase_fit": float(np.max(np.abs(poly.evaluate(px, py) - model.phases))),
        "superposed_vs_observed": float(np.max(np.abs(superposed - mu_or))),
        "constructive_pixels": int(np.sum(sup_vals > cla_vals)),
        "destructive_pixels": int(np.sum(sup_vals < cla_vals)),
    }

    out = _out_dir(args)
    outputs = []
    for kind, stem in _PATTERN_FILES:
        name = f"{stem}.{args.format}"
        written = wavefield.export_grid(patterns[kind], os.path.join(out, name),
                                        fmt=args.format)
        outputs.extend(os.path.basename(p) for p in written)
    parameters = {
        "dataset": getattr(args, "dataset", None),
        "input": str(args.input) if getattr(args, "input", None) else None,
        "grid": list(args.grid),
        "extent": list(wavefield.DEFAULT_EXTENT),
        "format": args.format,
        "amplitude_a": config.amplitude_a,
        "amplitude_b": config.amplitude_b,
        "sigma_ax": config.sigma_ax,
        "sigma_ay": config.sigma_ay,
        "sigma_bx": config.sigma_bx,
        "sigma_by": config.sigma_by,
        "center_b": list(config.center_b),
        "positions": [[float(x), float(y)] for x, y in config.positions],
        "polynomial": {
            "terms": [[mx, my, coef] for mx, my, coef in poly.terms],
            "fallback_used": poly.fallback_used,
        },
        "sign_source": model.sign_source,
        "clamp_count": patterns[wavefield.GridKind.SUPERPOSED].clamp_count,
        "residuals": residuals,
        "out_dir": args.out_dir or os.environ.get("QCONCEPTS_OUT_DIR") or ".",
    }
    manifest = _manifest(argv, args, parameters, outputs)
    wavefield.atomic_write(os.path.join(out, "wavefield_manifest.json"),
                           (_dumps(manifest) + "\n").encode())

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
    return 0


# -------------------------------------------------------------------- datasets

def _cmd_datasets(args, argv) -> int:
    catalog = datasets.list_datasets()
    human = []
    for entry in catalog:
        human.append(f"{entry['id']}  ({entry['kind']}, {entry['rows']} rows)")
        human.append(f"  {entry['provenance']}")
        for note in entry["notes"]:
            human.append(f"  - {note}")
    _emit(args, {"datasets": catalog}, human)
    return 0


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
    p.add_argument("--json", action="store_true", help="pure JSON on stdout")
    p.set_defaults(func=_cmd_classicality)

    p = subs.add_parser("fock",
                        help="two-sector interference angle for one weight triple")
    p.add_argument("--mu-a", type=float, required=True, dest="mu_a")
    p.add_argument("--mu-b", type=float, required=True, dest="mu_b")
    p.add_argument("--mu-joint", type=float, required=True, dest="mu_joint")
    p.add_argument("--connective", choices=("and", "or"), required=True)
    p.add_argument("--m2", type=float, default=0.3,
                   help="pair-sector weight m^2 (default 0.3)")
    p.add_argument("--json", action="store_true", help="pure JSON on stdout")
    p.set_defaults(func=_cmd_fock)

    p = subs.add_parser("chsh", help="CHSH statistic over four coincidence blocks")
    _add_source_flags(p, "coincidence")
    p.add_argument("--json", action="store_true", help="pure JSON on stdout")
    p.set_defaults(func=_cmd_chsh)

    p = subs.add_parser("disjunction-model",
                        help="explicit superposition model over an exemplar list")
    _add_source_flags(p, "exemplar")
    p.add_argument("--emit-vectors", action="store_true",
                   help="include the complex concept vectors in the JSON")
    p.add_argument("--json", action="store_true", help="pure JSON on stdout")
    p.set_defaults(func=_cmd_disjunction_model)

    p = subs.add_parser("wavefield",
                        help="fit, rasterize, and export the four intensity patterns")
    _add_source_flags(p, "exemplar")
    p.add_argument("--grid", type=_grid_spec, default=wavefield.DEFAULT_GRID,
                   metavar="NXxNY", help="raster size, e.g. 512x512 (default)")
    p.add_argument("--format", choices=("pgm", "csv"), default="pgm")
    p.add_argument("--out-dir", help="directory for the pattern files")
    p.add_argument("--json", action="store_true", help="pure JSON on stdout")
    p.set_defaults(func=_cmd_wavefield)

    p = subs.add_parser("datasets", help="catalog of bundled datasets")
    p.add_argument("--json", action="store_true", help="pure JSON on stdout")
    p.set_defaults(func=_cmd_datasets)
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
        return args.func(args, argv)
    except ModelError as exc:
        print(_dumps(_error_payload(exc)), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

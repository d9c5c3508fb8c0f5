"""Command-line interface.

Subcommands: ``model`` builds canonical detector files, ``characterize``
computes estimators and taxonomy, ``wigner`` exports a Wigner grid with a
non-classicality sidecar, ``herald`` scans two-mode squeezing toward the
retrodictive limit, ``retrodict`` computes Bayesian posteriors over a probe
ensemble, ``verify`` re-checks a saved report's internal identities.

Exit codes: 0 success, 2 validation failure, 3 numeric guard tripped,
4 I/O or parse failure.  Tolerance defaults honour ``QDETCHAR_*``
environment variables, read only by the subcommands that use them;
``verify`` reads none and checks a report under its own stored settings.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

from ._version import __version__
from .config import CategoryThresholds, Tolerances
from .detectors import (
    Povm,
    complete_with_rest,
    ideal_pnr,
    lossy_pnr,
    on_off_apd,
    scaled_projector,
)
from .errors import (
    HeraldImpossibleError,
    NullOutcomeError,
    PovmFormatError,
    PovmValidationError,
    ReportValidationError,
    TailToleranceError,
    UnreachableOutcomeError,
)
from .fileio import (
    FORMAT_VERSION,
    ReportFile,
    _comment,
    _row_problems,
    load_ensemble,
    load_povm,
    load_report,
    nonclassicality_to_dict,
    save_povm,
    save_report,
    sha256_digest,
    write_json,
    write_wigner_grid,
)
from .fock import coherent_state, fock_state, squeezed_vacuum
from .herald import retrodictive_limit_scan
from .phasespace import PhaseSpaceGrid, wigner, witness_report
from .retrodiction import (
    EstimatorReport,
    _rows_from_weights,
    estimator_identity_residuals,
    estimator_report,
    projectivity,
    retrodict_ensemble,
    retrodicted_state,
)


def parse_target(spec: str, dim: int):
    """Parse ``fock:n``, ``coherent:re,im`` or ``squeezed:r`` into a ket; errors name ``spec``."""
    kind, sep, arg = spec.partition(":")
    try:
        if not sep:
            raise ValueError("expected kind:params")
        if kind == "fock":
            return spec, fock_state(int(arg), dim)
        if kind == "coherent":
            parts = arg.split(",")
            if len(parts) != 2:
                raise ValueError("expected coherent:re,im")
            return spec, coherent_state(complex(float(parts[0]), float(parts[1])), dim)
        if kind == "squeezed":
            return spec, squeezed_vacuum(float(arg), dim)
        raise ValueError(f"unknown kind {kind!r}")
    except ValueError as exc:
        raise ValueError(f"target {spec!r}: {exc}") from None


def _thresholds(args) -> CategoryThresholds:
    """``QDETCHAR_*`` thresholds with any ``--projectivity-min``/``--ideality-min`` on top."""
    flags = {"projectivity_min": args.projectivity_min, "ideality_min": args.ideality_min}
    return replace(
        CategoryThresholds.from_env(),
        **{name: value for name, value in flags.items() if value is not None},
    )


# Each model kind's flags after --dim, in the order its file's metadata
# records them, and its constructor.  Every flag but --nu (default 0) is required.
_MODELS = {
    "ideal-pnr": ((), lambda a: ideal_pnr(a.dim)),
    "lossy-pnr": (("eta",), lambda a: lossy_pnr(a.eta, a.dim)),
    "apd": (("eta", "nu"), lambda a: on_off_apd(a.eta, a.nu, a.dim)),
    "scaled-projector": (("target", "zeta"), lambda a: complete_with_rest(
        [scaled_projector(parse_target(a.target, a.dim)[1], a.zeta)], Tolerances.from_env()
    )),
}


def cmd_model(args):
    kind, (flags, build) = args.kind, _MODELS[args.kind]
    every = dict.fromkeys(flag for used, _ in _MODELS.values() for flag in used)
    unused = [f"--{f}" for f in every if f not in flags and getattr(args, f) is not None]
    if unused:
        raise ValueError(f"{kind} does not use {' or '.join(unused)}")
    args.nu = 0.0 if args.nu is None else args.nu
    if any(getattr(args, flag) is None for flag in flags):
        required = " and ".join(f"--{flag}" for flag in flags if flag != "nu")
        raise ValueError(f"{kind} requires {required}")
    povm = build(args)
    # str of a float is its repr, and a target is stored as it was given.
    meta = {"model": kind, "dim": str(args.dim)}
    meta.update((flag, str(getattr(args, flag))) for flag in flags)
    povm = Povm(povm.elements, guard_levels=povm.guard_levels, metadata=meta)
    save_povm(povm, args.out)
    print(f"wrote {kind} (dim {povm.dim}, {len(povm)} outcomes) to {args.out}")
    return 0


def _witnesses(retro, grid, tols, thresholds):
    """One retrodicted outcome's Wigner grid and its witness row."""
    wg = wigner(retro.state, grid, tols)
    return wg, witness_report(
        retro.state, wg, retro.element.label, projectivity(retro), tols, thresholds
    )


def _report(povm, digest, targets, grid, tols, thresholds) -> ReportFile:
    """Every live outcome's estimator rows and witness row, one outcome after another.

    A POVM with ``weights`` (every element real and diagonal) has its
    estimator rows built from them for all outcomes at once; any other POVM,
    and an outcome those rows cannot serve, has each live outcome retrodicted
    once, and its estimator rows and witness row read that state.
    """
    batch = [None] * len(povm)
    if povm.weights is not None:
        batch = _rows_from_weights(povm, targets, thresholds, tols)
    rows, witness_rows = [], []
    for element, ready in zip(povm, batch):
        if element.is_null(tols):
            print(f"skipping null outcome {element.label!r}", file=sys.stderr)
            continue
        if ready is not None and grid is None:
            rows += ready
            continue
        retro = retrodicted_state(element, tols)
        if ready is None:
            ready = [estimator_report(retro, ket, label, thresholds, tols) for label, ket in targets]
        rows += ready
        if grid is not None:
            witness_rows.append(_witnesses(retro, grid, tols, thresholds)[1])
    return ReportFile(
        tool_version=__version__,
        input_digest=digest,
        dim=povm.dim,
        thresholds=thresholds,
        estimators=tuple(rows),
        nonclassicality=tuple(witness_rows),
        tolerances=tols,
    )


def cmd_characterize(args):
    tols, thresholds = Tolerances.from_env(), _thresholds(args)
    povm = load_povm(args.povm, tols)
    targets = [parse_target(t, povm.dim) for t in args.target] or [(None, None)]
    grid = None
    if args.witnesses:
        grid = PhaseSpaceGrid.symmetric(args.grid_radius, args.grid_points)
    report = _report(povm, sha256_digest(args.povm), targets, grid, tols, thresholds)
    save_report(report, args.out)
    for row in report.estimators:
        extra = ""
        if row.target is not None:
            extra = (
                f"  target={row.target}  fidelity={row.fidelity:.6f}"
                f"  detectivity={row.detectivity:.6f}"
            )
        print(
            f"{row.outcome_label}: projectivity={row.projectivity:.6f}  "
            f"ideality={row.ideality:.6f}  weight={row.trace_weight:.6f}  "
            f"{row.category.value}{extra}"
        )
    print(f"wrote report to {args.out}")
    return 0


def cmd_wigner(args):
    tols, thresholds = Tolerances.from_env(), _thresholds(args)
    povm = load_povm(args.povm, tols)
    digest = sha256_digest(args.povm)
    element = povm.outcome(args.outcome)
    grid = PhaseSpaceGrid(args.xmin, args.xmax, args.pmin, args.pmax, args.nx, args.np)
    wg, report = _witnesses(retrodicted_state(element, tols), grid, tols, thresholds)
    write_wigner_grid(wg, args.out, source_digest=digest, outcome_label=element.label)
    sidecar = str(args.out) + ".report.json"
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": "qdetchar",
        "tool_version": __version__,
        "input_digest": digest,
        "outcome": element.label,
        "witnesses": nonclassicality_to_dict(report),
    }
    write_json(doc, sidecar)
    print(
        f"{element.label}: min W = {report.min_wigner:.6g}, negativity volume = "
        f"{report.negativity_volume:.6g}, squeezing = {report.squeezing_witness}, "
        f"{report.gaussianity.value}"
    )
    print(f"wrote grid to {args.out} and witnesses to {sidecar}")
    return 0


def cmd_herald(args):
    tols = Tolerances.from_env()
    povm = load_povm(args.povm, tols)
    digest = sha256_digest(args.povm)
    element = povm.outcome(args.outcome)
    scan = retrodictive_limit_scan(element, args.lam, tols)
    text = _comment(
        "qdetchar herald scan",
        f"source: {digest} outcome: {element.label} dim: {povm.dim}",
        f"fidelity_monotonic: {str(scan.fidelity_monotonic).lower()}",
        "columns: lam fidelity success_probability",
    )
    for pt in scan.points:
        text += f"{pt.lam!r} {pt.fidelity!r} {pt.success_probability!r}\n"
        print(
            f"lam={pt.lam}: fidelity={pt.fidelity:.9f} "
            f"success={pt.success_probability:.6g}"
        )
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote scan to {args.out}")
    print(f"fidelity monotonic: {scan.fidelity_monotonic}")
    return 0


def cmd_retrodict(args):
    tols = Tolerances.from_env()
    povm = load_povm(args.povm, tols)
    ensemble = load_ensemble(args.ensemble, tols)
    for i, entry in enumerate(ensemble):  # each label is the first column of a table row
        if entry.label.split() != [entry.label] or "#" in entry.label:
            raise ValueError(
                f"{args.ensemble}: entries[{i}]: label {entry.label!r} is not one word "
                "without '#', so it cannot head a posterior row"
            )
    posterior = retrodict_ensemble(povm, args.outcome, ensemble, tols)
    text = _comment(
        "qdetchar retrodiction posterior",
        f"source: {sha256_digest(args.povm)} outcome: {args.outcome}",
        f"ensemble: {sha256_digest(args.ensemble)}",
        "columns: label posterior",
    )
    for label, prob in posterior:
        text += f"{label} {prob!r}\n"
        print(f"{label}: {prob:.9f}")
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote posterior to {args.out}")
    return 0


def cmd_verify(args):
    report = load_report(args.report, validate=False)
    checked = _row_problems(report)
    worst = 0.0
    failed = 0
    for row, problems in checked:
        if problems:
            failed += 1
            print(f"[FAIL] {row.outcome_label}: " + "; ".join(problems))
        elif isinstance(row, EstimatorReport):
            weight_res, det_res = estimator_identity_residuals(row)
            worst = max(worst, weight_res, det_res or 0.0)
            detail = f", detectivity residual {det_res:.3g}" if det_res is not None else ""
            print(f"[ok] {row.outcome_label}: weight residual {weight_res:.3g}{detail}")
        else:
            print(f"[ok] {row.outcome_label}: witness row consistent")
    if failed:
        print(
            f"verification FAILED ({failed} of {len(checked)} rows)",
            file=sys.stderr,
        )
        return 2
    print(f"verified {len(checked)} rows (worst residual {worst:.3g})")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; :func:`main` reuses it on every call."""
    parser = argparse.ArgumentParser(
        prog="qdetchar",
        description="Characterize measurement devices from their POVM description.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="build a canonical detector model file")
    p.add_argument("kind", choices=list(_MODELS))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--eta", type=float, help="detection efficiency in [0, 1]")
    p.add_argument("--nu", type=float, help="dark-count rate in [0, 1] (default 0)")
    p.add_argument("--target", help="fock:n | coherent:re,im | squeezed:r")
    p.add_argument("--zeta", type=float, help="weight of the scaled projector")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("characterize", help="estimators and taxonomy per outcome")
    p.add_argument("povm")
    p.add_argument(
        "--target",
        action="append",
        default=[],
        help="fock:n | coherent:re,im | squeezed:r (repeatable)",
    )
    p.add_argument("--witnesses", action="store_true", help="add phase-space witness rows")
    p.add_argument("--grid-radius", type=float, default=6.0)
    p.add_argument("--grid-points", type=int, default=121)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("wigner", help="Wigner grid plus non-classicality sidecar")
    p.add_argument("povm")
    p.add_argument("--outcome", required=True)
    p.add_argument("--xmin", type=float, default=-6.0)
    p.add_argument("--xmax", type=float, default=6.0)
    p.add_argument("--pmin", type=float, default=-6.0)
    p.add_argument("--pmax", type=float, default=6.0)
    p.add_argument("--nx", type=int, default=201)
    p.add_argument("--np", type=int, default=201)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("herald", help="two-mode squeezing scan toward the retrodictive limit")
    p.add_argument("povm")
    p.add_argument("--outcome", required=True)
    p.add_argument(
        "--lam",
        type=float,
        action="append",
        required=True,
        help="squeezing parameter in [0, 1) (repeatable)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_herald)

    p = sub.add_parser("retrodict", help="Bayesian posterior over a probe ensemble")
    p.add_argument("povm")
    p.add_argument("--outcome", required=True)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_retrodict)

    p = sub.add_parser("verify", help="re-check a saved report's identities")
    p.add_argument("report")
    p.set_defaults(func=cmd_verify)

    for sp in (sub.choices["characterize"], sub.choices["wigner"]):
        sp.add_argument(
            "--projectivity-min",
            type=float,
            help="projective-outcome threshold (default 0.99)",
        )
        sp.add_argument(
            "--ideality-min",
            type=float,
            help="ideal-outcome threshold (default 0.99)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PovmValidationError, ReportValidationError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        NullOutcomeError,
        UnreachableOutcomeError,
        HeraldImpossibleError,
        TailToleranceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PovmFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

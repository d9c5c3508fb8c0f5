"""On-disk formats: measurement files, ensembles, reports, Wigner grids.

Every JSON file goes through one writer, :func:`write_json`: objects are
indented by two spaces, and in measurements and ensembles each matrix row
of explicit ``[re, im]`` pairs is one line, so files still diff cleanly,
row by row.  Files from earlier versions, with every number on a line of
its own, load unchanged.  Floats survive a save/load/save cycle byte for
byte (Python's shortest-repr float encoding is exact for IEEE doubles).
Wigner grids are plain whitespace-separated ``x p W`` rows behind ``#``
header lines, readable by ``numpy.loadtxt``.

Reports embed the SHA-256 digest of their input file and the tool version,
so every number in them can be traced back to the bytes it came from.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLS, CategoryThresholds, Tolerances
from .detectors import Povm, PovmElement, default_guard_levels, require_valid
from .errors import PovmFormatError, ReportValidationError
from .fock import assert_density_matrix
from .phasespace import (
    CONVENTION,
    Gaussianity,
    NonClassicalityReport,
    PhaseSpaceGrid,
    WignerGrid,
    _witness_verdicts,
)
from .retrodiction import (
    IDENTITY_SLACK,
    EstimatorReport,
    OutcomeCategory,
    ProbeEnsemble,
    ProbeEntry,
    classify_outcome,
)

__all__ = [
    "FORMAT_VERSION",
    "sha256_digest",
    "write_json",
    "save_povm",
    "load_povm",
    "save_ensemble",
    "load_ensemble",
    "ReportFile",
    "save_report",
    "load_report",
    "estimator_identity_residuals",
    "estimator_row_problems",
    "witness_row_problems",
    "write_wigner_grid",
    "read_wigner_grid",
    "nonclassicality_to_dict",
    "nonclassicality_from_dict",
]

FORMAT_VERSION = "1"


def sha256_digest(path) -> str:
    """``sha256:<hex>`` digest of a file's bytes."""
    h = hashlib.sha256(Path(path).read_bytes())
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------- helpers

class _Rows(list):
    """A matrix as rows of ``(re, im)`` pairs; :func:`write_json` writes a row per line."""


def _matrix_to_pairs(m: np.ndarray) -> _Rows:
    # ndarray.tolist() gives the same Python floats as float(z.real), so the
    # JSON text (and a signed zero) is unchanged.  Each pair is a tuple, which
    # JSON writes as a list and zip builds without a Python loop per entry.
    m = np.asarray(m, dtype=complex)
    return _Rows(list(zip(re, im)) for re, im in zip(m.real.tolist(), m.imag.tolist()))


def _matrix_from_pairs(rows, dim: int, where: str) -> np.ndarray:
    """Complex ``dim x dim`` matrix from rows of ``[re, im]`` pairs.

    Each part must be a finite JSON number; ``true`` and ``false`` are read
    as 1 and 0.  Anything else (a string, ``null``, a nested list, a missing
    part, an integer too large for a float, ``NaN`` or ``Infinity``) is a
    :class:`PovmFormatError` naming the first such entry.
    """
    if not isinstance(rows, list) or len(rows) != dim:
        raise PovmFormatError(f"{where}: expected {dim} matrix rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise PovmFormatError(f"{where}: row {i} must hold {dim} entries")
    try:
        parts = np.array(rows)
    except ValueError:  # ragged: some entry is not a flat pair
        parts = None
    if parts is None or parts.shape != (dim, dim, 2) or parts.dtype.kind not in "biuf":
        parts = _checked_pairs(rows, where)
    parts = np.ascontiguousarray(parts, dtype=float)
    if not np.isfinite(parts).all():
        i, j = np.argwhere(~np.isfinite(parts).all(axis=-1))[0]
        raise PovmFormatError(f"{where}: entry ({i},{j}) is not finite")
    # A view, not re + 1j*im, which would turn an imaginary -0.0 into +0.0.
    return parts.view(complex)[..., 0]


def _checked_pairs(rows, where: str) -> np.ndarray:
    """The pairs as floats, one entry at a time; names the first bad entry.

    Reached only when numpy cannot read the rows as one numeric array: for
    malformed entries, and for integers beyond 64 bits that still fit a
    float.
    """
    out = np.empty((len(rows), len(rows), 2))
    for i, row in enumerate(rows):
        for j, pair in enumerate(row):
            try:
                if not (
                    isinstance(pair, list)
                    and len(pair) == 2
                    and all(isinstance(v, (int, float)) for v in pair)
                ):
                    raise TypeError
                out[i, j] = [float(v) for v in pair]
            except (TypeError, OverflowError):
                raise PovmFormatError(
                    f"{where}: entry ({i},{j}) must be a [re, im] pair of numbers"
                ) from None
    return out


def _parse_json(path):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PovmFormatError(
            f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise PovmFormatError(f"{path}: not valid JSON: {exc}") from exc


def _expect(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise PovmFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise PovmFormatError(
            f"{where}: field {key!r} has type {type(value).__name__}"
        )
    return value


def _check_header(doc, path):
    version = _expect(doc, "format_version", str, str(path))
    if version != FORMAT_VERSION:
        raise PovmFormatError(
            f"{path}: format_version {version!r} unsupported (expected {FORMAT_VERSION!r})"
        )
    dim = _expect(doc, "dim", int, str(path))
    if dim < 2:
        raise PovmFormatError(f"{path}: dim must be at least 2, got {dim}")
    return dim


def _metadata_out(metadata) -> dict:
    return {str(k): str(v) for k, v in (metadata or {}).items()}


# Without ``indent`` CPython encodes in C; with it, every value goes through
# the pure-Python encoder.
_compact = json.JSONEncoder(allow_nan=False).encode


def _layout(value, newline: str) -> str:
    """``value`` as ``json.dumps(indent=2)`` lays it out, but a matrix row per line."""
    inner = newline + "  "
    if isinstance(value, _Rows):
        items, ends = map(_compact, value), "[]"
    elif isinstance(value, dict) and value:
        items = (_compact(k) + ": " + _layout(v, inner) for k, v in value.items())
        ends = "{}"
    elif isinstance(value, list) and value:
        items, ends = (_layout(v, inner) for v in value), "[]"
    else:
        return _compact(value)
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1]


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as the JSON text of every file this program writes.

    Objects and lists are indented by two spaces, byte for byte as
    ``json.dumps(doc, indent=2)`` writes them; each row of a matrix from
    :func:`_matrix_to_pairs` is one compact line.  The whole text is built
    before the file is opened, so a NaN or infinity raises ``ValueError``
    and leaves any file at ``path`` as it was.
    """
    text = _layout(doc, "\n") + "\n"
    Path(path).write_text(text)


# ---------------------------------------------------------------- POVM files

def save_povm(povm: Povm, path) -> None:
    """Write a measurement to JSON (schema version 1)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": povm.dim,
        "guard_levels": povm.guard_levels,
        "outcomes": [
            {"label": e.label, "matrix": _matrix_to_pairs(e.matrix)} for e in povm
        ],
        "metadata": _metadata_out(povm.metadata),
    }
    write_json(doc, path)


def load_povm(path, tols: Tolerances = DEFAULT_TOLS, validate: bool = True) -> Povm:
    """Read and physically validate a measurement file.

    Files written without an explicit ``guard_levels`` get the conservative
    default (top fifth of the space guarded).  Validation failures raise
    :class:`~qdetchar.errors.PovmValidationError` carrying the full report.
    """
    doc = _parse_json(path)
    dim = _check_header(doc, path)
    if "guard_levels" in doc:
        guard = _expect(doc, "guard_levels", int, str(path))
        if not 0 <= guard < dim:
            raise PovmFormatError(f"{path}: guard_levels {guard} outside 0..{dim - 1}")
    else:
        guard = default_guard_levels(dim)
    outcomes = _expect(doc, "outcomes", list, str(path))
    if not outcomes:
        raise PovmFormatError(f"{path}: outcomes list is empty")
    elements = []
    for idx, entry in enumerate(outcomes):
        where = f"{path}: outcomes[{idx}]"
        if not isinstance(entry, dict):
            raise PovmFormatError(f"{where}: expected an object")
        label = _expect(entry, "label", str, where)
        matrix = _matrix_from_pairs(_expect(entry, "matrix", list, where), dim, where)
        elements.append(PovmElement(label, matrix))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise PovmFormatError(f"{path}: metadata must be an object")
    povm = Povm(tuple(elements), guard_levels=guard, metadata=_metadata_out(metadata))
    if validate:
        require_valid(povm, tols)
    return povm


# ---------------------------------------------------------------- ensembles

def save_ensemble(ensemble: ProbeEnsemble, path, metadata=None) -> None:
    """Write a probe ensemble to JSON (same matrix encoding as measurements)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": ensemble.dim,
        "entries": [
            {
                "label": e.label,
                "prior": float(e.prior),
                "matrix": _matrix_to_pairs(e.state),
            }
            for e in ensemble
        ],
        "metadata": _metadata_out(metadata),
    }
    write_json(doc, path)


def load_ensemble(path, tols: Tolerances = DEFAULT_TOLS) -> ProbeEnsemble:
    """Read a probe ensemble file; each entry must be a valid density matrix."""
    doc = _parse_json(path)
    dim = _check_header(doc, path)
    entries_doc = _expect(doc, "entries", list, str(path))
    if not entries_doc:
        raise PovmFormatError(f"{path}: entries list is empty")
    entries = []
    for idx, entry in enumerate(entries_doc):
        where = f"{path}: entries[{idx}]"
        if not isinstance(entry, dict):
            raise PovmFormatError(f"{where}: expected an object")
        label = _expect(entry, "label", str, where)
        prior = _expect(entry, "prior", (int, float), where)
        try:
            prior = float(prior)
        except OverflowError:
            raise PovmFormatError(f"{where}: prior is too large for a float") from None
        matrix = _matrix_from_pairs(_expect(entry, "matrix", list, where), dim, where)
        assert_density_matrix(matrix, tols, what=where)
        entries.append(ProbeEntry(prior=prior, state=matrix, label=label))
    return ProbeEnsemble(tuple(entries))


# ---------------------------------------------------------------- reports

def _estimator_to_dict(row: EstimatorReport) -> dict:
    return {
        "outcome": row.outcome_label,
        "projectivity": row.projectivity,
        "ideality": row.ideality,
        "trace_weight": row.trace_weight,
        "category": row.category.value,
        "target": row.target,
        "fidelity": row.fidelity,
        "detectivity": row.detectivity,
    }


def _estimator_from_dict(entry: dict, where: str) -> EstimatorReport:
    try:
        category = OutcomeCategory(entry["category"])
        return EstimatorReport(
            outcome_label=str(entry["outcome"]),
            projectivity=float(entry["projectivity"]),
            ideality=float(entry["ideality"]),
            trace_weight=float(entry["trace_weight"]),
            category=category,
            target=entry.get("target"),
            fidelity=None if entry.get("fidelity") is None else float(entry["fidelity"]),
            detectivity=(
                None if entry.get("detectivity") is None else float(entry["detectivity"])
            ),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PovmFormatError(f"{where}: malformed estimator row ({exc})") from exc


def nonclassicality_to_dict(row: NonClassicalityReport) -> dict:
    return {
        "outcome": row.outcome_label,
        "min_wigner": row.min_wigner,
        "negativity_volume": row.negativity_volume,
        "squeezing_witness": row.squeezing_witness,
        "is_nonclassical": row.is_nonclassical,
        "gaussianity": row.gaussianity.value,
        "hudson_inconsistent": row.hudson_inconsistent,
    }


def nonclassicality_from_dict(entry: dict, where: str) -> NonClassicalityReport:
    try:
        return NonClassicalityReport(
            outcome_label=str(entry["outcome"]),
            min_wigner=float(entry["min_wigner"]),
            negativity_volume=float(entry["negativity_volume"]),
            squeezing_witness=bool(entry["squeezing_witness"]),
            is_nonclassical=bool(entry["is_nonclassical"]),
            gaussianity=Gaussianity(entry["gaussianity"]),
            hudson_inconsistent=bool(entry["hudson_inconsistent"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PovmFormatError(f"{where}: malformed witness row ({exc})") from exc


def estimator_identity_residuals(row: EstimatorReport):
    """Residuals of the two internal identities for one report row.

    Returns ``(weight_residual, detectivity_residual)`` where the second is
    ``None`` when the row carries no target metrics.
    """
    weight_res = abs(row.ideality - row.projectivity * row.trace_weight)
    det_res = None
    if row.fidelity is not None and row.detectivity is not None:
        det_res = abs(row.detectivity * row.projectivity - row.ideality * row.fidelity)
    return weight_res, det_res


def estimator_row_problems(row: EstimatorReport, thresholds: CategoryThresholds) -> list:
    """Why a stored report row is inconsistent; an empty list when it is not.

    A residual of either identity fails unless it is at most
    ``IDENTITY_SLACK``, so a NaN residual fails.  The stored category must
    be the one :func:`~qdetchar.retrodiction.classify_outcome` gives the
    row's projectivity and ideality under the report's ``thresholds``.
    ``fidelity`` and ``detectivity`` must be present exactly when the row
    names a ``target``, as :func:`~qdetchar.retrodiction.estimator_report`
    writes them, so erasing them cannot skip the detectivity identity.
    """
    problems = []
    targeted = row.target is not None
    if (row.fidelity is not None, row.detectivity is not None) != (targeted, targeted):
        problems.append(
            "must carry fidelity and detectivity exactly when it names a target"
        )
    weight_res, det_res = estimator_identity_residuals(row)
    if not (weight_res <= IDENTITY_SLACK and (det_res is None or det_res <= IDENTITY_SLACK)):
        problems.append(
            f"breaks the estimator identities (residuals {weight_res:.3g}"
            + (f", {det_res:.3g}" if det_res is not None else "")
            + ")"
        )
    expected = classify_outcome(row.projectivity, row.ideality, thresholds)
    if row.category is not expected:
        problems.append(
            f"is filed as {row.category.value} but its projectivity and ideality "
            f"give {expected.value}"
        )
    return problems


def witness_row_problems(row: NonClassicalityReport, report: ReportFile) -> list:
    """Why a stored witness row is inconsistent; an empty list when it is not.

    ``min_wigner`` must lie in ``[-1/pi, 1/pi]`` up to ``tols.neg``, and
    ``negativity_volume`` must be finite, non-negative and zero when
    ``min_wigner >= 0``.  The row must name an outcome of the report's
    estimator rows; that row's projectivity and the report's own thresholds
    and tolerances ``tols`` then re-derive ``is_nonclassical`` and
    ``hudson_inconsistent`` as :func:`~qdetchar.phasespace.witness_report`
    does.  The problems that depend on ``tols.neg`` name its value.
    """
    problems = []
    tols = report.tolerances
    minw, negv = row.min_wigner, row.negativity_volume
    dead_band = f" (checked with negativity dead band {tols.neg!r})"
    if not abs(minw) <= 1.0 / math.pi + tols.neg:
        problems.append(
            f"witness row has min_wigner {minw!r} outside [-1/pi, 1/pi]" + dead_band
        )
    if not 0.0 <= negv < math.inf or (minw >= 0.0 and negv != 0.0):
        problems.append(
            f"witness row has negativity_volume {negv!r}, which is not a finite "
            f"volume that fits min_wigner {minw!r}"
        )
    proj = {r.outcome_label: r.projectivity for r in report.estimators}.get(row.outcome_label)
    if proj is None:
        return problems + ["witness row names no estimator row"]
    expected = _witness_verdicts(
        minw, negv, row.squeezing_witness, row.gaussianity, proj, tols, report.thresholds
    )
    stored = (row.is_nonclassical, row.hudson_inconsistent)
    for name, got, want in zip(("is_nonclassical", "hudson_inconsistent"), stored, expected):
        if got != want:
            problems.append(
                f"witness row has {name} {got} but its witnesses give {want}" + dead_band
            )
    return problems


def _row_problems(report: ReportFile) -> list:
    """``(row, problems)`` for every estimator row, then every witness row."""
    checked = [(r, estimator_row_problems(r, report.thresholds)) for r in report.estimators]
    return checked + [(r, witness_row_problems(r, report)) for r in report.nonclassicality]


@dataclass(frozen=True)
class ReportFile:
    """In-memory form of a characterization report file and its settings."""

    tool_version: str
    input_digest: str
    dim: int
    thresholds: CategoryThresholds
    estimators: tuple
    nonclassicality: tuple = ()
    tolerances: Tolerances = DEFAULT_TOLS


def save_report(report: ReportFile, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": "qdetchar",
        "tool_version": report.tool_version,
        "input_digest": report.input_digest,
        "dim": report.dim,
        "thresholds": asdict(report.thresholds),
        "tolerances": asdict(report.tolerances),
        "estimators": [_estimator_to_dict(r) for r in report.estimators],
    }
    if report.nonclassicality:
        doc["nonclassicality"] = [
            nonclassicality_to_dict(r) for r in report.nonclassicality
        ]
    write_json(doc, path)


def _settings_from_dict(doc: dict, key: str, cls, path):
    """The ``thresholds`` or ``tolerances`` block; an absent field is the default."""
    block = _expect(doc, key, dict, str(path))
    try:
        if not all(isinstance(value, (int, float)) for value in block.values()):
            raise TypeError(f"fields must be numbers, got {block!r}")
        return cls(**{name: float(value) for name, value in block.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise PovmFormatError(f"{path}: malformed {key} ({exc})") from exc


def load_report(path, validate: bool = True) -> ReportFile:
    """Read a report; optionally re-check every row under its own settings.

    A report without a ``tolerances`` block reads as made under the defaults.
    """
    doc = _parse_json(path)
    _check_header(doc, path)
    thresholds = _settings_from_dict(doc, "thresholds", CategoryThresholds, path)
    doc.setdefault("tolerances", {})
    tolerances = _settings_from_dict(doc, "tolerances", Tolerances, path)
    rows = [
        _estimator_from_dict(entry, f"{path}: estimators[{i}]")
        for i, entry in enumerate(_expect(doc, "estimators", list, str(path)))
    ]
    witness_rows = tuple(
        nonclassicality_from_dict(entry, f"{path}: nonclassicality[{i}]")
        for i, entry in enumerate(doc.get("nonclassicality", []))
    )
    report = ReportFile(
        tool_version=str(doc.get("tool_version", "")),
        input_digest=str(_expect(doc, "input_digest", str, str(path))),
        dim=_expect(doc, "dim", int, str(path)),
        thresholds=thresholds,
        estimators=tuple(rows),
        nonclassicality=witness_rows,
        tolerances=tolerances,
    )
    if validate:
        for row, problems in _row_problems(report):
            if problems:
                raise ReportValidationError(
                    f"{path}: outcome {row.outcome_label!r} " + "; ".join(problems)
                )
    return report


# ---------------------------------------------------------------- Wigner grids

def write_wigner_grid(
    wgrid: WignerGrid, path, source_digest: str = "", outcome_label: str = ""
) -> None:
    """Write ``x p W`` rows behind ``#`` headers recording grid and convention."""
    g = wgrid.grid
    header = "\n".join(
        [
            "qdetchar wigner grid",
            f"convention: {CONVENTION}",
            f"source: {source_digest} outcome: {outcome_label}",
            f"x_axis: {g.x_min!r} {g.x_max!r} {g.n_x}",
            f"p_axis: {g.p_min!r} {g.p_max!r} {g.n_p}",
            "columns: x p wigner",
        ]
    )
    # The bytes of np.savetxt(path, rows, fmt="%.17g", header=header),
    # streamed one x row at a time.  Each axis value is formatted once: a
    # row's template holds every p, "\0" stands in for its x, and only the
    # W values are formatted per point.
    row_template = "".join("\0 %s %%.17g\n" % ("%.17g" % p) for p in g.p_axis.tolist())
    values = np.asarray(wgrid.values, dtype=float).reshape(g.n_x, g.n_p)
    with open(path, "w") as fh:
        fh.write("# " + header.replace("\n", "\n# ") + "\n")
        for x, row in zip(g.x_axis.tolist(), values):
            fh.write(row_template.replace("\0", "%.17g" % x) % tuple(row.tolist()))


def read_wigner_grid(path) -> WignerGrid:
    """Re-read a grid file written by :func:`write_wigner_grid`."""
    axes = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            for name in ("x_axis", "p_axis"):
                if body.startswith(name + ":"):
                    lo, hi, n = body.split(":", 1)[1].split()
                    axes[name] = (float(lo), float(hi), int(n))
    if set(axes) != {"x_axis", "p_axis"}:
        raise PovmFormatError(f"{path}: missing axis headers")
    (x_min, x_max, n_x) = axes["x_axis"]
    (p_min, p_max, n_p) = axes["p_axis"]
    grid = PhaseSpaceGrid(x_min, x_max, p_min, p_max, n_x, n_p)
    data = np.loadtxt(path)
    if data.shape != (n_x * n_p, 3):
        raise PovmFormatError(
            f"{path}: expected {n_x * n_p} rows of 3 columns, got {data.shape}"
        )
    return WignerGrid(grid=grid, values=data[:, 2].reshape(n_x, n_p))

"""On-disk formats: measurement files, ensembles, reports, Wigner grids.

Every JSON file goes through one writer, :func:`write_json`: objects are
indented by two spaces, and in measurements and ensembles each matrix row
of explicit ``[re, im]`` pairs is one line, so files still diff cleanly,
row by row.  A row's text is built from the array directly: a row of +0.0
alone, such as most rows of a diagonal matrix, takes the one text of a zero
row of its width, and every other row is laid out from its values.  Each
float is ``repr``'s text, the one ``json.dumps`` writes, from :func:`_r17`.
Files from earlier versions, with every number on a line of its own, load
unchanged.  Floats survive a save/load/save cycle byte for byte (Python's
shortest-repr float encoding is exact for IEEE doubles).
Wigner grids are plain whitespace-separated ``x p W`` rows behind ``#``
header lines, readable by ``numpy.loadtxt``: the bytes of
``numpy.savetxt(fmt="%.17g")``, built in numpy about 4,096 points at a time.
Each W text comes from :func:`_g17`: once per distinct radius of the
grid geometry the kernel keeps, for a grid whose values are radial bit for
bit, and once per point for any other grid.  It and :func:`_r17` give
``"%.17g" % v`` and ``repr(v)`` exactly without a Python call per value (a
Dekker product against exact powers of ten, checked against a rounding
margin) for values below 1, as every W value and every matrix entry but 1.0
and its rounding neighbours is, and hand CPython the rest and the few values
that margin cannot decide.

Reports embed the SHA-256 digest of their input file and the tool version,
so every number in them can be traced back to the bytes it came from.  The
report schema is the record dataclasses: one writer and one reader follow the
fields and types that ``EstimatorReport``, ``NonClassicalityReport``,
``CategoryThresholds`` and ``Tolerances`` declare.  Every field of every
JSON file is read by one type rule, :func:`_expect`.

Measurements and ensembles are files of labelled ``[re, im]`` matrices, read
by :func:`_read_labelled` and written by :func:`_write_labelled`; in both,
``metadata`` is an object of strings, and any other value is a format error
naming the file and the key.  The text is parsed with each zero pair the
writer stored, ``[0.0, 0.0]``, replaced by ``null``, so the parser builds no
list for it, and as written where the text holds ``null`` or that rewrite
cannot be kept (:func:`_loads_labelled`).  Both parses decode each matrix by
one rule, :func:`_matrix_hook`, as the parser closes its entry's object: a
``null`` is a zero pair, and the matrix becomes one float array, so that
entry's lists are freed before the next entry is read, and a file's pairs
never all exist as Python objects at once.  Either way the arrays are the
same bit for bit, and every refusal keeps its wording.
Readers and writers leave Python's cyclic garbage collector as they find
it: a dense dim-30 file sets off 4 youngest-generation passes and reads
about as fast as with the collector paused, and the writers build a string
per row and few containers.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cache, cached_property, partial
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLS, CategoryThresholds, Tolerances
from .detectors import Povm, PovmElement, default_guard_levels, require_valid
from .errors import PovmFormatError, ReportValidationError
from .phasespace import (
    CONVENTION,
    Gaussianity,
    NonClassicalityReport,
    PhaseSpaceGrid,
    WignerGrid,
    _kept_geometry,
    _witness_verdicts,
)
from .retrodiction import (
    EstimatorReport,
    OutcomeCategory,
    ProbeEnsemble,
    ProbeEntry,
    _identity_problems,
    classify_outcome,
)

__all__ = [
    "FORMAT_VERSION",
    "sha256_digest",
    "save_povm",
    "load_povm",
    "save_ensemble",
    "load_ensemble",
    "ReportFile",
    "save_report",
    "load_report",
    "estimator_row_problems",
    "witness_row_problems",
    "write_wigner_grid",
    "read_wigner_grid",
]

FORMAT_VERSION = "1"


def sha256_digest(path) -> str:
    """``sha256:<hex>`` digest of a file's bytes."""
    h = hashlib.sha256(Path(path).read_bytes())
    return "sha256:" + h.hexdigest()


# ---------------------------------------------------------------- float text

# A float's text formatted in numpy is a row of four little-endian uint64
# words, 32 byte slots in the order of the text, and dropping the NULs of
# the slots it leaves empty gives the text.  Word 0 holds the sign, "0." and
# up to three zeros (the lead of fixed notation below 1), the first digit
# and a slot for a point after it; words 1 and 2 the other 16 digits; and
# word 3 the exponent, "e", its sign and two or three digits.
_G17_WIDTH = 32
_BLOCK = 4096  # values formatted, and grid points written, at a time
# Decimal exponents k, 10**k <= |v| < 10**(k+1), that the formatter takes
# itself.  Below _K_MIN a product in _scaled could underflow.  Every value
# the program writes lies within 1, a matrix entry of an element or a state
# within 1 and a Wigner value within 1/pi, so CPython formats every value
# from 1 up: of those the program writes only 1.0 and its rounding neighbours.
_K_MIN, _K_MAX = -280, -1
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split of a double into two 26-bit halves
_MARGIN = 1e-9  # how far from a tie a rounding or a read-back must be to be decided


def _split(x: np.ndarray):
    """Veltkamp's split: ``(high, low)``, each of 26 significant bits, with sum ``x``."""
    c = _SPLIT * x
    high = c - (c - x)
    return high, x - high


@cache
def _g17_tables():
    """``(powers, heads, tails, digits, trailing, keep, zeros)`` for :func:`_texts`.

    Built at its first call, not at import.  The first three are indexed by
    ``k - _K_MIN``, for ``_K_MIN <= k <= _K_MAX``.  A column of ``powers``
    holds ``hi``, ``lo`` and ``_split(hi)`` for ``10**(16 - k)``, a whole
    number since ``k < 0``: ``hi`` is the double nearest the power and
    ``lo`` the double nearest the rest, each by exact integer arithmetic.
    ``heads[negative]`` holds the sign and lead slots of a text's word 0,
    and ``tails`` its word 3, the exponent (which fixed notation leaves
    out).  Per four-digit group "0000" to "9999", ``digits`` holds its ASCII
    digits as the low half of a word, and ``trailing`` its trailing zeros
    (4 for "0000").  ``keep[c]`` masks the first ``c`` bytes of a word.
    ``zeros[negative]`` is the row of ``repr(0.0)`` or ``repr(-0.0)``.
    """
    ks = range(_K_MIN, _K_MAX + 1)
    nums = [10 ** (16 - k) for k in ks]  # int to float is correctly rounded
    powers = np.array([(float(num), float(num - int(float(num)))) for num in nums])
    heads = [sign + (b"0." + b"0" * (-k - 1) if k >= -4 else b"") for sign in (b"", b"-") for k in ks]
    groups = np.arange(10_000)
    digits = ((groups[:, None] // [1000, 100, 10, 1] % 10 + 48) << [0, 8, 16, 24]).sum(axis=1)
    return (np.vstack([powers.T, *_split(powers[:, 0])]),
            np.array(heads, dtype="S6").astype("S8").view("<u8").reshape(2, -1),
            np.array([b"e%+03d" % k for k in ks], dtype="S8").view("<u8"),
            digits.astype("<u8"),
            sum(groups % 10**i == 0 for i in range(1, 5)).astype(np.int8),
            np.array([(1 << 8 * c) - 1 for c in range(9)], dtype="<u8"),
            np.array([b"0.0", b"-0.0"], dtype=f"S{_G17_WIDTH}").view(f"V{_G17_WIDTH}"))


def _scaled(a: np.ndarray, k: np.ndarray):
    """``(whole, frac)``: the integer and fractional parts of ``a * 10**(16 - k)``.

    The product with ``hi + lo`` is Dekker's exact two-product with ``hi``
    plus ``a * lo``; its error is below 1e-14, so ``whole`` is exact and the
    rounding is decided whenever ``frac`` lies more than that from 1/2.
    """
    hi, lo, hi_high, hi_low = _g17_tables()[0][:, k - _K_MIN]
    a_high, a_low = _split(a)
    p = a * hi  # an integer: at least 2**53 wherever the result is used
    t = a_high * hi_high
    t -= p
    t += a_high * hi_low
    t += a_low * hi_high
    t += a_low * hi_low
    t += a * lo
    whole = np.floor(t)
    t -= whole
    return p.astype(np.int64) + whole.astype(np.int64), t


def _g17(values: np.ndarray) -> np.ndarray:
    """``(n, _G17_WIDTH)`` bytes: row ``i`` is ``b"%.17g" % values[i]`` in its slots.

    The 17 digits are ``round(|v| * 10**(16 - k))``, taken where the
    fraction rounded off lies more than ``_MARGIN`` from 1/2 and the rounding
    does not carry out of the decade; :func:`_texts` lays them out.
    """
    return _texts(values, shortest=False)


def _r17(values: np.ndarray) -> np.ndarray:
    """``(n, _G17_WIDTH)`` bytes: row ``i`` is ``repr(values[i])``, as ASCII, in its slots.

    That is the text ``json.dumps`` writes for a float: the fewest digits
    whose decimal reads back as ``v`` (the Steele-White and Ryu criterion),
    and of those the decimal nearest ``v``.  :func:`_shortest_digits` finds
    them from :func:`_scaled`'s ``whole + frac``, ``|v| * 10**(16 - k)``, and
    from ``h = spacing(|v|) / 2 * hi``, half the gap to the neighbouring
    doubles in the same units.  ``whole + frac`` lies within 1e-14 of the
    true product, and ``h``, at most 11.1, within 2e-15 of its true value,
    so every comparison of the two whose sides differ by more than
    ``_MARGIN`` is exact.  Zeros are ``0.0`` and ``-0.0`` from a table; every
    other value that :func:`_texts` cannot decide goes to CPython's ``repr``.
    """
    values = np.ascontiguousarray(values, dtype=float).ravel()
    out = _g17_tables()[6][np.signbit(values).view(np.int8)]  # one 32-byte item per text
    nonzero = np.flatnonzero(values)  # a diagonal matrix is mostly zeros
    out[nonzero] = _texts(values[nonzero], shortest=True).view(out.dtype)[:, 0]
    return out.view(np.uint8).reshape(-1, _G17_WIDTH)


def _texts(values: np.ndarray, shortest: bool) -> np.ndarray:
    """The rows of :func:`_r17` (``shortest``) or :func:`_g17`, formatted a block at a time."""
    values = np.ascontiguousarray(values, dtype=float).ravel()
    out = np.empty((values.size, _G17_WIDTH), np.uint8)
    for start in range(0, values.size, _BLOCK):
        _text_block(values[start: start + _BLOCK], out[start: start + _BLOCK], shortest)
    return out


def _trailing_zeros(x: np.ndarray) -> np.ndarray:
    """The trailing decimal zeros of each positive integer of ``x``, counted in its last 16 digits."""
    table = _g17_tables()[4]
    zeros = np.zeros(x.size, np.int8)
    ends = np.flatnonzero(x % 10 == 0)
    high, low = np.divmod(x[ends], 10**8)
    count = 0  # "0000" groups at the end, then the zeros before them
    for group in (high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4):
        trailing = table[group]
        count = np.where(trailing == 4, count + 4, trailing)
    zeros[ends] = count
    return zeros


def _shortest_digits(a, whole, frac, half_gap):
    """``(n, significant, decided)``: :func:`_r17`'s digits, as a 17-digit integer and a count.

    In units of the 17th digit, the decimals that read back as ``v`` are the
    integers within ``half_gap`` of ``whole + frac``, ``lo`` to ``hi``.  A
    multiple of ``10**j`` lies among them when ``hi % 10**j <= hi - lo``, which
    is at most 22: so ``j`` is 0 or 1 by the last two digits of ``hi``, and
    from 2 up, 2 plus the trailing zeros of ``hi // 100``.  With the largest
    such ``j`` the text has ``17 - j`` digits, ``whole + frac`` rounded to a
    multiple of ``10**j``: the nearest one lies among them, since they are
    centred on it.  A value is not ``decided`` when ``lo`` or ``hi`` or the
    rounding is within ``_MARGIN`` of a tie, when the rounding carries out of
    the decade, or when it is a power of two, whose lower gap is half its
    upper one.
    """
    below, above = frac - half_gap, frac + half_gap
    lo = whole + np.floor(below).astype(np.int64) + 1
    hi = whole + np.ceil(above).astype(np.int64) - 1
    span = hi - lo
    two = hi % 100 <= span
    j = (hi % 10 <= span).astype(np.int64) + two
    j[two] = np.minimum(j[two] + _trailing_zeros(hi[two] // 100), 16)
    unit = 10**j
    q, r = np.divmod(whole, unit)
    off = (r - unit / 2) + frac  # from the tie between the two nearest multiples
    q += off > 0
    decided = (a.view(np.int64) & (2**52 - 1)) != 0
    decided &= (abs(off) > _MARGIN) & (q < 10 ** (17 - j))
    for end in (below, above):
        decided &= abs(end - np.round(end)) > _MARGIN
    return q * unit, 17 - j, decided


def _text_block(v: np.ndarray, out: np.ndarray, shortest: bool) -> None:
    """Format one block of :func:`_texts` into ``out``.

    A value is formatted here in five steps: its decimal exponent ``k`` from
    ``log10``; a 17-digit integer ``n`` from :func:`_scaled`, either the
    rounded ``|v| * 10**(16 - k)`` or, for ``repr``, :func:`_shortest_digits`;
    its digits from a table of four-digit groups; the trailing zeros left out,
    which ``%g`` drops and ``repr`` never has; and the slots of its sign and
    exponent from tables, one row per (sign, ``k``) class.  For the ``k < 0``
    taken here, ``%g`` and ``repr`` share one rule: fixed notation from
    ``k >= -4`` ("0." and up to three zeros lead the digits), exponent
    notation below it.  The value is taken only where ``k`` lies within
    ``_K_MIN.._K_MAX`` (which leaves out zeros, subnormals and every value
    from 1 up), where ``n / 10**16`` has one digit before the point (so that
    ``log10`` found the decade), and where the digits are decided; CPython
    formats every other value.
    """
    powers, heads, tails, digits4, _, keep, _ = _g17_tables()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(a))
    taken = (k >= _K_MIN) & (k <= _K_MAX)
    a = np.where(taken, a, 1.0)
    k = np.where(taken, k, _K_MAX).astype(np.int64)
    whole, frac = _scaled(a, k)
    taken &= (whole >= 10**16) & (whole < 10**17)
    if shortest:
        half_gap = np.spacing(a) * (0.5 * powers[0, k - _K_MIN])
        n, significant, decided = _shortest_digits(a, whole, frac, half_gap)
    else:
        n = whole + (frac > 0.5)
        decided = (n < 10**17) & (abs(frac - 0.5) > _MARGIN)
    taken &= decided
    n = np.where(taken, n, 10**16)
    if not shortest:
        significant = 17 - _trailing_zeros(n)
    high, low = (part.astype(np.int32) for part in np.divmod(n, 10**8))
    groups = [high // 10**4 % 10**4, high % 10**4, low // 10**4, low % 10**4]
    fixed = k >= -4
    words = out.view("<u8")
    words[:, 0] = heads[(v < 0).astype(np.intp), k - _K_MIN]
    words[:, 0] |= (high // 10**8 + 48).astype("<u8") << 48
    point = ~fixed & (significant > 1)  # fixed notation has "0." in its lead
    words[:, 0] |= point.astype("<u8") * (ord(".") << 56)
    words[:, 1] = digits4[groups[0]] | digits4[groups[1]] << 32
    words[:, 2] = digits4[groups[2]] | digits4[groups[3]] << 32
    words[:, 3] = np.where(fixed, 0, tails[k - _K_MIN])
    kept = significant - 1  # of the digits in words 1 and 2
    cut = np.flatnonzero(kept < 16)
    words[cut, 1] &= keep[np.minimum(kept[cut], 8)]
    words[cut, 2] &= keep[np.maximum(kept[cut] - 8, 0)]
    rest = np.flatnonzero(~taken)
    if rest.size:
        out[rest] = _by_cpython(v[rest].tolist(), shortest)


def _by_cpython(values: list, shortest: bool) -> np.ndarray:
    """CPython's ``repr`` (``shortest``) or ``%.17g`` of the values the formatter leaves."""
    texts = [repr(x).encode() for x in values] if shortest else [b"%.17g" % x for x in values]
    return np.array(texts, dtype=f"S{_G17_WIDTH}").view(np.uint8).reshape(-1, _G17_WIDTH)


# ---------------------------------------------------------------- helpers

# The text the writer gives a zero entry; the reader parses it as null.
_ZERO_PAIR = "[0.0, 0.0]"
_AS_WRITTEN = object()  # the stand-in of text parsed as written: no JSON value is this object


def _matrix_to_pairs(matrices: list) -> list:
    """Per matrix, its rows of ``[re, im]`` pairs as compact JSON lines, from one :func:`_r17` call."""
    # A complex row viewed as floats interleaves re and im, the order of its
    # [re, im] pairs, and repr is the float text the JSON encoder writes, signed
    # zeros included.  Like write_json, a NaN or infinity raises ValueError.
    # A row whose parts are all +0.0, no bit set, takes the one text of a zero
    # row of its width; a -0.0 sets the sign bit, so its row is laid out as the
    # others are.  There, a pair other than [0.0, 0.0] fills a fixed-width slot,
    # "[", re, ", ", im and "], ", with a newline for the space where a run of
    # such pairs ends; dropping the NULs and splitting at the newlines gives
    # each run's text.  A row joins those runs and its runs of zero pairs, so a
    # diagonal row takes a few string operations however wide it is.
    parts = [np.ascontiguousarray(m, dtype=complex).view(float) for m in matrices]
    if not all(np.isfinite(p).all() for p in parts):
        raise ValueError("Out of range float values are not JSON compliant")
    live = [p.view(np.int64).any(axis=1) for p in parts]  # the rows that are not zero rows
    pairs = np.concatenate([p[rows].reshape(-1, 2) for p, rows in zip(parts, live)])
    zero = ~pairs.view(np.int64).any(axis=1)
    widths = np.repeat([p.shape[1] // 2 for p in parts], [np.count_nonzero(r) for r in live])
    row = np.zeros(len(pairs) + 1, bool)  # where a row starts, and the end
    row[np.cumsum(widths) - widths] = row[-1] = True
    run = row.copy()  # where a run of zero or of other pairs starts, and the end
    run[1:-1] |= zero[1:] != zero[:-1]
    w = _G17_WIDTH
    texts = _r17(pairs[~zero]).reshape(-1, 2, w)
    slots = np.empty((len(texts), 2 * w + 6), np.uint8)
    slots[:, 0] = ord("[")
    slots[:, 1: w + 1] = texts[:, 0]
    slots[:, w + 1: w + 3] = np.frombuffer(b", ", np.uint8)
    slots[:, w + 3: 2 * w + 3] = texts[:, 1]
    slots[:, 2 * w + 3:] = np.frombuffer(b"], ", np.uint8)
    slots[run[1:][~zero], -1] = ord("\n")
    runs = iter(slots.tobytes().translate(None, b"\0").decode("ascii").split("\n"))
    starts = np.flatnonzero(run)
    pieces = [", ".join([_ZERO_PAIR] * n) + "," if z else next(runs)  # each ends in ","
              for z, n in zip(zero[starts[:-1]].tolist(), np.diff(starts).tolist())]
    firsts = np.flatnonzero(row[starts]).tolist()  # each row's first run, and the end
    lines = ("[" + " ".join(pieces[i:j])[:-1] + "]" for i, j in zip(firsts, firsts[1:]))
    out = []
    for p, rows in zip(parts, live):
        blank = "[" + ", ".join([_ZERO_PAIR] * (p.shape[1] // 2)) + "]"
        out.append([next(lines) if r else blank for r in rows.tolist()])
    return out


def _matrix_hook(obj: dict, zero=_AS_WRITTEN, filled: list | None = None) -> dict:
    """``obj``, a labelled entry's ``matrix`` made one ``(n, n, 2)`` float array where it is one.

    Runs as the parser closes each object, so an entry's lists are freed
    before the next entry is read.  A matrix is ``n >= 1`` lists of ``n``
    entries.  An entry that is the stand-in ``zero`` is a zero pair; it is
    ``None`` or ``_AS_WRITTEN``, and neither equals any other JSON value.
    Rows holding no stand-in go whole into one ``np.array``, and the other
    entries of the other rows into a second; each must give flat pairs of
    booleans, integers or floats.  Any other matrix stays a list, for
    :func:`_matrix_from_pairs` to name the fault: a ragged or non-square
    matrix, an entry that is not a flat pair, a part that is not a JSON
    number, or an integer beyond 64 bits.  ``zero`` is ``_AS_WRITTEN`` for
    text parsed as written, and ``None`` for :func:`_loads_labelled`'s
    rewrite; given ``filled``, a one-item count, each zero pair filled in is
    added to it.
    """
    rows = obj.get("matrix")
    if type(obj.get("label")) is not str or type(rows) is not list or not rows:
        return obj
    n = len(rows)
    whole, found = [], []  # the rows without a stand-in; the flat index of each other entry
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != n:
            return obj
        count = row.count(zero)
        if not count:
            whole.append(i)
        elif count == n - 1 and row[i] is not zero:  # a diagonal entry alone, found at once
            found.append(i * n + i)
        elif count < n:
            found += [i * n + j for j, v in enumerate(row) if v is not zero]
    out = np.zeros((n, n, 2))  # owns its data, so PovmElement keeps it without a copy
    flat = out.reshape(n * n, 2)
    for target, at, entries in ((out, whole, [rows[i] for i in whole]),
                                (flat, found, [rows[k // n][k % n] for k in found])):
        if at:
            try:
                parts = np.array(entries)
            except ValueError:  # ragged: some entry is not a flat pair
                return obj
            if parts.shape != (len(at), *target.shape[1:]) or parts.dtype.kind not in "biuf":
                return obj
            target[at] = parts
    if filled is not None:
        filled[0] += n * (n - len(whole)) - len(found)
    obj["matrix"] = out
    return obj


def _matrix_from_pairs(rows, dim: int, where: str) -> np.ndarray:
    """Complex ``dim x dim`` matrix from rows of ``[re, im]`` pairs.

    ``rows`` is the array :func:`_matrix_hook` made of them, or the parsed
    list it left, which is checked entry by entry.  Each part must be a
    finite JSON number; ``true`` and ``false`` are read as 1 and 0.  Anything
    else (a string, ``null``, a nested list, a missing part, an integer too
    large for a float, ``NaN`` or ``Infinity``) is a :class:`PovmFormatError`
    naming the first such entry.
    """
    if len(rows) != dim:
        raise PovmFormatError(f"{where}: expected {dim} matrix rows")
    if type(rows) is np.ndarray:
        parts = rows
    else:
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise PovmFormatError(f"{where}: row {i} must hold {dim} entries")
        parts = _checked_pairs(rows, where)
    if not np.isfinite(parts).all():
        i, j = np.argwhere(~np.isfinite(parts).all(axis=-1))[0]
        raise PovmFormatError(f"{where}: entry ({i},{j}) is not finite")
    # A read-only view, which PovmElement keeps without a copy; re + 1j*im
    # would turn an imaginary -0.0 into +0.0.
    parts.setflags(write=False)
    return parts.view(complex)[..., 0]


def _checked_pairs(rows, where: str) -> np.ndarray:
    """The pairs as floats, one entry at a time; names the first bad entry.

    Reached only for rows :func:`_matrix_hook` left as lists: for malformed
    entries, and for integers beyond 64 bits that still fit a float.
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


def _loads_labelled(text: str):
    """``json.loads(text, object_hook=_matrix_hook)``, parsing each zero pair as ``null``.

    A ``null`` is one token where ``[0.0, 0.0]`` is a list and two floats.
    A text that holds ``null`` anywhere is parsed as written.  Otherwise
    each ``null`` of the rewrite is a replaced pair, and each replacement
    shortens the text by 6 characters; the rewrite is kept only when the
    hook filled in that many zero pairs, for then every replaced pair was a
    matrix entry, and no label, key or string was touched.  Otherwise, or
    when the rewrite does not parse, the text itself is parsed, so every
    refusal keeps its wording, line and column.
    """
    rewrite = text if "null" in text else text.replace(_ZERO_PAIR, "null")
    count = (len(text) - len(rewrite)) // 6
    if count:
        filled = [0]
        try:
            doc = json.loads(rewrite, object_hook=partial(_matrix_hook, zero=None, filled=filled))
            if filled[0] == count:
                return doc
        except (ValueError, RecursionError):
            pass
    return json.loads(text, object_hook=_matrix_hook)


def _parse_json(path, loads=json.loads):
    try:
        # The bytes are freed once decoded; _loads_labelled also holds its rewrite.
        text = Path(path).read_bytes().decode("utf-8")
        return loads(text)
    except json.JSONDecodeError as exc:
        raise PovmFormatError(
            f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer literal past Python's digit limit, or nesting past the recursion limit
        raise PovmFormatError(f"{path}: not valid JSON: {exc}") from exc


# JSON types read as each type other than the type itself; a bool is never a number.
_JSON_TYPES = {float: (int, float), OutcomeCategory: (str,), Gaussianity: (str,)}


def _expect(doc: dict, key: str, kind, where: str):
    """``doc[key]`` as a ``kind``, by the one type rule of every field read here.

    It must have a JSON type ``_JSON_TYPES`` gives ``kind`` (or ``kind`` itself).
    """
    if key not in doc:
        raise PovmFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    try:
        if type(value) not in _JSON_TYPES.get(kind, (kind,)):
            # An array is a JSON list that _matrix_hook converted as it was parsed.
            name = "list" if type(value) is np.ndarray else type(value).__name__
            raise TypeError(f"has type {name}, not {kind.__name__}")
        return value if type(value) is kind else kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise PovmFormatError(f"{where}: field {key!r}: {exc}") from None


def _check_header(doc, path):
    if type(doc) is not dict:
        raise PovmFormatError(f"{path}: expected a JSON object")
    version = _expect(doc, "format_version", str, str(path))
    if version != FORMAT_VERSION:
        raise PovmFormatError(
            f"{path}: format_version {version!r} unsupported (expected {FORMAT_VERSION!r})"
        )
    dim = _expect(doc, "dim", int, str(path))
    if dim < 2:
        raise PovmFormatError(f"{path}: dim must be at least 2, got {dim}")
    if dim > sys.maxsize:  # no array has that many rows, and no float may hold it
        raise PovmFormatError(f"{path}: dim must be at most {sys.maxsize}, got {dim}")
    return dim


def _read_labelled(path, key: str):
    """``(doc, dim, entries)``: ``(where, entry, label, matrix)`` per object of ``doc[key]``.

    ``doc["metadata"]`` is an object of strings, ``{}`` when the file has none.
    """
    doc = _parse_json(path, _loads_labelled)
    dim = _check_header(doc, path)
    entries = _expect(doc, key, list, str(path))
    if not entries:
        raise PovmFormatError(f"{path}: {key} list is empty")
    labelled = []
    for i, entry in enumerate(entries):
        where = f"{path}: {key}[{i}]"
        if type(entry) is not dict:
            raise PovmFormatError(f"{where}: expected an object")
        label = _expect(entry, "label", str, where)
        rows = entry.get("matrix")
        if type(rows) is not np.ndarray:
            rows = _expect(entry, "matrix", list, where)
        labelled.append((where, entry, label, _matrix_from_pairs(rows, dim, where)))
    doc = {"metadata": {}, **doc}
    for name in _expect(doc, "metadata", dict, str(path)):
        _expect(doc["metadata"], name, str, f"{path}: metadata")
    return doc, dim, labelled


def _write_labelled(path, dim: int, key: str, entries: list, metadata, **fields) -> None:
    """Write a measurement or ensemble file: the header, ``fields``, ``entries`` under ``key``."""
    metadata = {str(k): str(v) for k, v in metadata.items()}
    write_json({"format_version": FORMAT_VERSION, "dim": dim, **fields, key: entries,
                "metadata": metadata}, path)


# Without ``indent`` CPython encodes in C; with it, every value goes through
# the pure-Python encoder.
_compact = json.JSONEncoder(allow_nan=False).encode


# Matrix entries whose rows are built at a time: a dim-60 file's 60 matrices
# in four calls, and a larger matrix alone, so the slots stay a few megabytes.
_BATCH = 2**16


def _matrix_rows(arrays: list) -> list:
    """:func:`_matrix_to_pairs` of ``arrays``, taken ``_BATCH`` entries (or one array) at a time."""
    rows, batch, size = [], [], 0
    for array in arrays:
        if batch and size + array.size > _BATCH:
            rows += _matrix_to_pairs(batch)
            batch, size = [], 0
        batch.append(array)
        size += array.size
    return rows + _matrix_to_pairs(batch) if batch else rows


def _layout(value, newline: str, arrays: list, out: list) -> None:
    """Append to ``out`` the pieces of ``value`` as ``json.dumps(indent=2)`` lays it out.

    An array is a matrix, one row per line, whose text is not built here: its
    place in ``out`` holds ``None``, and ``(place, array, newline)`` is
    appended to ``arrays``, in the order the walk meets them.  Every level
    appends to the one list ``out``, which the caller joins once.
    """
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        arrays.append((len(out), value, newline))
        out.append(None)
    elif isinstance(value, dict) and value:
        sep = "{" + inner
        for k, v in value.items():
            out += (sep, _compact(k), ": ")
            _layout(v, inner, arrays, out)
            sep = "," + inner
        out += (newline, "}")
    elif isinstance(value, list) and value:
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _layout(v, inner, arrays, out)
            sep = "," + inner
        out += (newline, "]")
    else:
        out.append(_compact(value))


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as the JSON text of every file this program writes.

    Objects and lists are indented by two spaces, byte for byte as
    ``json.dumps(doc, indent=2)`` writes them; a numpy array is a matrix of
    ``[re, im]`` pairs, each row on one compact line.  One walk,
    :func:`_layout`, collects the text's pieces in one list and leaves each
    array's place open; one :func:`_matrix_rows` call builds the rows of
    every array, which then fill those places, and the list is joined once.
    The whole text is built before the file is opened, so a NaN or infinity
    raises ``ValueError`` naming ``path`` and leaves any file there as it was.
    """
    pieces, arrays = [], []
    try:
        _layout(doc, "\n", arrays, pieces)
        rows = _matrix_rows([array for _, array, _ in arrays])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for (place, _, newline), lines in zip(arrays, rows):
        inner = newline + "  "
        pieces[place] = "[" + inner + ("," + inner).join(lines) + newline + "]"
    pieces.append("\n")
    Path(path).write_text("".join(pieces))


# ---------------------------------------------------------------- POVM files

def save_povm(povm: Povm, path) -> None:
    """Write a measurement to JSON (schema version 1)."""
    outcomes = [{"label": e.label, "matrix": e.matrix} for e in povm]
    _write_labelled(path, povm.dim, "outcomes", outcomes, povm.metadata,
                    guard_levels=povm.guard_levels)


def load_povm(path, tols: Tolerances = DEFAULT_TOLS) -> Povm:
    """Read and physically validate a measurement file.

    Files written without an explicit ``guard_levels`` get the conservative
    default (top fifth of the space guarded).  Validation failures raise
    :class:`~qdetchar.errors.PovmValidationError` carrying the full report.
    """
    doc, dim, outcomes = _read_labelled(path, "outcomes")
    doc = {"guard_levels": default_guard_levels(dim), **doc}
    guard = _expect(doc, "guard_levels", int, str(path))
    if not 0 <= guard < dim:
        raise PovmFormatError(f"{path}: guard_levels {guard} outside 0..{dim - 1}")
    elements = tuple(PovmElement(label, matrix) for _, _, label, matrix in outcomes)
    try:
        povm = Povm(elements, guard_levels=guard, metadata=doc["metadata"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    require_valid(povm, tols)
    return povm


# ---------------------------------------------------------------- ensembles

def save_ensemble(ensemble: ProbeEnsemble, path) -> None:
    """Write a probe ensemble to JSON (same matrix encoding as measurements)."""
    entries = [{"label": e.label, "prior": e.prior, "matrix": e.state} for e in ensemble]
    _write_labelled(path, ensemble.dim, "entries", entries, {})


def load_ensemble(path, tols: Tolerances = DEFAULT_TOLS) -> ProbeEnsemble:
    """Read a probe ensemble file; each entry must be a valid density matrix."""
    _, _, labelled = _read_labelled(path, "entries")
    entries = []
    for where, entry, label, matrix in labelled:
        prior = _expect(entry, "prior", float, where)
        try:
            entries.append(ProbeEntry(prior=prior, state=matrix, label=label))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    try:
        return ProbeEnsemble(tuple(entries), tols)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------- reports

# The estimates an estimator row holds of its outcome, whatever its target.
_OUTCOME_FIELDS = ("projectivity", "ideality", "trace_weight", "category")

# A record's JSON keys are its field names, but for this one.
_KEYS = {"outcome_label": "outcome"}


def _schema(cls):
    """``(name, key, kind, optional, required)`` per field of ``cls``, in order."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        args = typing.get_args(hints[f.name])  # (kind, NoneType) for Optional[kind]
        kind = args[0] if args else hints[f.name]
        yield f.name, _KEYS.get(f.name, f.name), kind, bool(args), f.default is MISSING


_SCHEMAS = {
    cls: tuple(_schema(cls))
    for cls in (EstimatorReport, NonClassicalityReport, CategoryThresholds, Tolerances)
}


def _record_to_dict(record) -> dict:
    """A record as a JSON object: its fields in declared order, an enum as its value."""
    values = ((key, getattr(record, name)) for name, key, *_ in _SCHEMAS[type(record)])
    return {key: v.value if isinstance(v, Enum) else v for key, v in values}


nonclassicality_to_dict = _record_to_dict  # the ``witnesses`` block of a wigner sidecar


def _record_from_dict(cls, doc, where: str):
    """The ``cls`` record held by the JSON object ``doc``; errors name ``where``.

    A value of the field's declared type, or ``null`` in an ``Optional``
    field, is taken as it is; any other goes through :func:`_expect`.  An
    absent field takes its default.
    """
    if type(doc) is not dict:
        raise PovmFormatError(f"{where}: expected an object")
    values = {}
    for name, key, kind, optional, required in _SCHEMAS[cls]:
        if key in doc:
            value = doc[key]
            taken = type(value) is kind or (value is None and optional)
            values[name] = value if taken else _expect(doc, key, kind, where)
        elif required:
            raise PovmFormatError(f"{where}: missing field {key!r}")
    if len(values) < len(doc):
        unknown = doc.keys() - {key for _, key, *_ in _SCHEMAS[cls]}
        raise PovmFormatError(f"{where}: unknown field {min(unknown)!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise PovmFormatError(f"{where}: {exc}") from None


def estimator_row_problems(row: EstimatorReport, report: ReportFile) -> list:
    """Why a stored report row is inconsistent; an empty list when it is not.

    Both estimator identities must hold to ``IDENTITY_SLACK`` (a NaN residual
    fails).  Projectivity must lie in ``[1/dim, 1]``, trace_weight in
    ``(trace_floor, dim]``, the rest in ``[0, 1]``, each bound widened by
    ``2 * (norm + dim * psd)`` of the report's own tolerances: validation
    lets a state's trace miss 1 by ``norm`` and its ``dim`` eigenvalues dip
    below 0 by ``psd``.  The category must be the one
    :func:`~qdetchar.retrodiction.classify_outcome` gives under the report's
    ``thresholds``, and ``fidelity`` and ``detectivity`` must be present
    exactly when the row names a ``target``, so erasing them cannot skip the
    detectivity identity.  Projectivity, ideality, trace weight and category
    describe the outcome, not the target, so each must equal that of the
    outcome's first row in the report.
    """
    problems = _identity_problems(row)
    targeted = row.target is not None
    if (row.fidelity is not None, row.detectivity is not None) != (targeted, targeted):
        problems.append(
            "must carry fidelity and detectivity exactly when it names a target"
        )
    dim, tols = report.dim, report.tolerances
    slack = 2.0 * (tols.norm + dim * tols.psd)
    for name, lo, hi in (
        ("projectivity", 1.0 / dim, 1.0),
        ("trace_weight", 0.0, dim),
        ("ideality", 0.0, 1.0),
        ("fidelity", 0.0, 1.0),
        ("detectivity", 0.0, 1.0),
    ):
        value = getattr(row, name)
        if value is not None and not lo - slack <= value <= hi + slack:
            problems.append(f"has {name} {value!r} outside [{lo:.6g}, {hi:.6g}] at dim {dim}")
    if not row.trace_weight > tols.trace_floor:
        problems.append(f"has trace_weight {row.trace_weight!r}, at or below the trace floor")
    expected = classify_outcome(row.projectivity, row.ideality, report.thresholds)
    if row.category is not expected:
        problems.append(
            f"is filed as {row.category.value} but its projectivity and ideality "
            f"give {expected.value}"
        )
    first = report._first_rows.get(row.outcome_label, row)
    moved = [name for name in _OUTCOME_FIELDS if getattr(row, name) != getattr(first, name)]
    if first is not row and moved:
        problems.append("disagrees with the outcome's first row on " + ", ".join(moved))
    return problems


def witness_row_problems(row: NonClassicalityReport, report: ReportFile) -> list:
    """Why a stored witness row is inconsistent; an empty list when it is not.

    ``min_wigner`` must lie in ``[-1/pi, 1/pi]`` up to ``tols.neg``, and
    ``negativity_volume`` must be finite, non-negative and zero when
    ``min_wigner >= 0``.  The row must name an outcome of the report's
    estimator rows; its first row's projectivity and the report's own thresholds
    and tolerances ``tols`` then re-derive ``is_nonclassical`` and
    ``hudson_inconsistent`` as :func:`~qdetchar.phasespace.witness_report`
    does.  The problems that depend on ``tols.neg`` name its value.  An
    outcome has one witness row: a row that repeats an earlier witness row's
    outcome is a problem.
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
    if report._first_witness_rows.get(row.outcome_label, row) is not row:
        problems.append("witness row repeats the outcome of an earlier witness row")
    first = report._first_rows.get(row.outcome_label)
    if first is None:
        return problems + ["witness row names no estimator row"]
    expected = _witness_verdicts(
        minw, negv, row.squeezing_witness, row.gaussianity, first.projectivity, tols,
        report.thresholds,
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
    checked = [(r, estimator_row_problems(r, report)) for r in report.estimators]
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

    @cached_property
    def _first_rows(self) -> dict:
        """Each outcome's first estimator row, built once per report."""
        return {row.outcome_label: row for row in reversed(self.estimators)}

    @cached_property
    def _first_witness_rows(self) -> dict:
        """Each outcome's first witness row, built once per report."""
        return {row.outcome_label: row for row in reversed(self.nonclassicality)}


def save_report(report: ReportFile, path) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": "qdetchar",
        "tool_version": report.tool_version,
        "input_digest": report.input_digest,
        "dim": report.dim,
        "thresholds": _record_to_dict(report.thresholds),
        "tolerances": _record_to_dict(report.tolerances),
        "estimators": [_record_to_dict(r) for r in report.estimators],
    }
    if report.nonclassicality:
        doc["nonclassicality"] = [_record_to_dict(r) for r in report.nonclassicality]
    write_json(doc, path)


def load_report(path, validate: bool = True) -> ReportFile:
    """Read a report; optionally re-check every row under its own settings.

    A report without ``tolerances`` reads as made under the defaults; one
    without ``nonclassicality`` or ``tool_version`` reads as empty there.
    """
    doc = _parse_json(path)
    dim = _check_header(doc, path)
    doc = {"tool_version": "", "tolerances": {}, "nonclassicality": [], **doc}

    def settings(cls, key):
        return _record_from_dict(cls, doc.get(key), f"{path}: malformed {key}")

    def records(cls, key, what):
        entries = enumerate(_expect(doc, key, list, str(path)))
        return tuple(_record_from_dict(cls, e, f"{path}: {key}[{i}]: {what}") for i, e in entries)

    report = ReportFile(
        tool_version=_expect(doc, "tool_version", str, str(path)),
        input_digest=_expect(doc, "input_digest", str, str(path)),
        dim=dim,
        thresholds=settings(CategoryThresholds, "thresholds"),
        estimators=records(EstimatorReport, "estimators", "malformed estimator row"),
        nonclassicality=records(NonClassicalityReport, "nonclassicality", "malformed witness row"),
        tolerances=settings(Tolerances, "tolerances"),
    )
    if validate:
        for row, problems in _row_problems(report):
            if problems:
                raise ReportValidationError(
                    f"{path}: outcome {row.outcome_label!r} " + "; ".join(problems)
                )
    return report


# ---------------------------------------------------------------- Wigner grids

def _comment(*lines) -> str:
    """``lines`` as ``#`` lines; a break (``\\n``, ``\\r``, ``\\r\\n``) in one opens a new one."""
    text = "\n".join(lines).replace("\r\n", "\n").replace("\r", "\n")
    return "# " + text.replace("\n", "\n# ") + "\n"


def write_wigner_grid(
    wgrid: WignerGrid, path, source_digest: str = "", outcome_label: str = ""
) -> None:
    """Write ``x p W`` rows behind ``#`` headers recording grid and convention.

    The bytes are those of ``np.savetxt(fmt="%.17g")``.  Where
    :func:`~qdetchar.phasespace.wigner` keeps the grid's geometry within its
    tables' budget (a text per radius is then held beside it), ``values`` is
    scattered to one slot per distinct radius; where the gather back
    reproduces ``values`` bit for bit, signed zeros included, each radius's
    W is formatted once.  Otherwise each point's is, and no geometry is
    built.  A NaN or infinite W raises ``ValueError`` before the file is
    opened, so any file at ``path`` stays as it was.
    """
    g = wgrid.grid
    if not np.isfinite(wgrid.values).all():
        raise ValueError(f"{path}: non-finite Wigner values; nothing written")
    values = np.ascontiguousarray(wgrid.values, dtype=float)
    geo, texts = _kept_geometry(g), None
    if geo is not None:
        per_radius = np.empty(geo.radii.size)
        per_radius[geo.where] = values
        if np.array_equal(per_radius[geo.where].view(np.int64), values.view(np.int64)):
            texts = _g17(per_radius)
    header = _comment(
        "qdetchar wigner grid",
        f"convention: {CONVENTION}",
        f"source: {source_digest} outcome: {outcome_label}",
        f"x_axis: {g.x_min!r} {g.x_max!r} {g.n_x}",
        f"p_axis: {g.p_min!r} {g.p_max!r} {g.n_p}",
        "columns: x p wigner",
    )
    # The rows of np.savetxt(path, rows, fmt="%.17g"), built _BLOCK points at
    # a time as fixed-width bytes, x | p | W | newline, with NULs where a text
    # leaves its field short, which are then dropped.  Each axis value, and
    # on the radial route each radius's W, is formatted once.
    xs, ps = (np.array([b"%.17g" % t for t in axis.tolist()]).view(np.uint8).reshape(axis.size, -1)
              for axis in (g.x_axis, g.p_axis))
    wx, wp = xs.shape[1], ps.shape[1]
    rows = max(1, _BLOCK // g.n_p)
    with open(path, "w") as fh:
        fh.write(header)
        for start in range(0, g.n_x, rows):
            block = slice(start, start + rows)
            w = _g17(values[block]) if texts is None else texts[geo.where[block]]
            lines = np.empty((len(xs[block]), g.n_p, wx + wp + _G17_WIDTH + 3), np.uint8)
            lines[..., :wx] = xs[block, None]
            lines[..., wx] = lines[..., wx + wp + 1] = ord(" ")
            lines[..., wx + 1: wx + wp + 1] = ps
            lines[..., wx + wp + 2: -1] = w.reshape(*lines.shape[:2], _G17_WIDTH)
            lines[..., -1] = ord("\n")
            fh.write(lines.tobytes().translate(None, b"\0").decode())


def read_wigner_grid(path) -> WignerGrid:
    """Re-read a grid file written by :func:`write_wigner_grid`.

    The x and p columns must repeat the header's axes exactly, since the
    writer's ``%.17g`` round-trips every double, and each W must be finite.
    """
    axes = {}
    with open(path) as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            for name in ("x_axis", "p_axis"):
                if body.startswith(name + ":"):
                    parts = body.split(":", 1)[1].split()
                    try:
                        lo, hi, n = parts
                        axes[name] = (float(lo), float(hi), int(n))
                    except ValueError:
                        raise PovmFormatError(
                            f"{path}: {name} header must be 'min max points', got {parts}"
                        ) from None
    if set(axes) != {"x_axis", "p_axis"}:
        raise PovmFormatError(f"{path}: missing axis headers")
    (x_min, x_max, n_x) = axes["x_axis"]
    (p_min, p_max, n_p) = axes["p_axis"]
    try:
        grid = PhaseSpaceGrid(x_min, x_max, p_min, p_max, n_x, n_p)
        data = np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise PovmFormatError(f"{path}: {exc}") from None
    if data.shape != (n_x * n_p, 3):
        raise PovmFormatError(
            f"{path}: expected {n_x * n_p} rows of 3 columns, got {data.shape}"
        )
    if not (
        np.array_equal(data[:, 0], np.repeat(grid.x_axis, n_p))
        and np.array_equal(data[:, 1], np.tile(grid.p_axis, n_x))
    ):
        raise PovmFormatError(f"{path}: x and p columns do not follow the axis headers")
    if not np.isfinite(data[:, 2]).all():
        raise PovmFormatError(f"{path}: non-finite Wigner values")
    return WignerGrid(grid=grid, values=data[:, 2].reshape(n_x, n_p))

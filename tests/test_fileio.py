"""File formats: measurements, ensembles, reports, Wigner grids."""

import dataclasses
import enum
import gc
import json
import re
import sys
import tracemalloc
import typing
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from conftest import (
    ANY_JSON, ENSEMBLE_SITES, JSON_PARTS, MEASUREMENT_SITES, mutated, random_density, random_pure
)

from qdetchar import (
    CONVENTION,
    DEFAULT_TOLS,
    CategoryThresholds,
    EstimatorReport,
    Gaussianity,
    NonClassicalityReport,
    OutcomeCategory,
    PhaseSpaceGrid,
    Povm,
    PovmElement,
    PovmFormatError,
    PovmValidationError,
    ReportFile,
    ReportValidationError,
    Tolerances,
    TruncationWarning,
    WignerGrid,
    estimator_identity_residuals,
    estimator_report,
    estimator_row_problems,
    fock_state,
    ideal_pnr,
    load_ensemble,
    load_povm,
    load_report,
    lossy_pnr,
    nonclassicality_of_measurement,
    on_off_apd,
    read_wigner_grid,
    retrodicted_state,
    save_ensemble,
    save_povm,
    save_report,
    sha256_digest,
    uniform_fock_ensemble,
    wigner,
    witness_row_problems,
    write_wigner_grid,
)
from qdetchar import fileio, phasespace
from qdetchar._version import __version__
from qdetchar.cli import main
from qdetchar.detectors import default_guard_levels
from qdetchar.fileio import _SCHEMAS, _matrix_to_pairs, write_json

# Finite floats, with signed zeros, subnormals and values near +-1e308 forced in.
_PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)
# Each example overwrites the same files, so one tmp_path serves them all.
_FIXTURE = HealthCheck.function_scoped_fixture


class TestDigest:
    def test_known_bytes(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"hello\n")
        assert sha256_digest(path) == (
            "sha256:5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"
        )


class TestPovmFiles:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        povm = lossy_pnr(0.37, 9)
        povm = Povm(
            povm.elements,
            guard_levels=2,
            metadata={"source": "unit test", "eta": "0.37"},
        )
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_povm(povm, a)
        save_povm(load_povm(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_preserves_everything(self, tmp_path):
        povm = on_off_apd(0.5, 0.01, 7)
        path = tmp_path / "apd.json"
        save_povm(povm, path)
        loaded = load_povm(path)
        assert loaded.labels == povm.labels
        assert loaded.guard_levels == povm.guard_levels
        for orig, back in zip(povm, loaded):
            np.testing.assert_array_equal(orig.matrix, back.matrix)

    def test_loaded_elements_keep_the_decoded_matrices_without_a_copy(self, tmp_path):
        # Each decoded matrix is a read-only complex view of the parsed pairs,
        # which PovmElement keeps as it is rather than copying.
        path = tmp_path / "apd.json"
        save_povm(on_off_apd(0.5, 0.01, 7), path)
        for element in load_povm(path):
            assert not element.matrix.flags.writeable
            assert not element.matrix.flags.owndata

    def test_guard_defaults_when_absent(self, tmp_path):
        path = tmp_path / "p.json"
        save_povm(ideal_pnr(10), path)
        doc = json.loads(path.read_text())
        del doc["guard_levels"]
        path.write_text(json.dumps(doc))
        assert load_povm(path).guard_levels == default_guard_levels(10)

    def test_overcomplete_file_rejected_with_residual(self, tmp_path):
        # two elements summing to 1.5 * identity: residual 0.5
        el = [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.75, 0.0]]]
        doc = {
            "format_version": "1",
            "dim": 2,
            "guard_levels": 0,
            "outcomes": [{"label": "a", "matrix": el}, {"label": "b", "matrix": el}],
        }
        path = tmp_path / "over.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PovmValidationError) as err:
            load_povm(path)
        np.testing.assert_allclose(err.value.report.completeness_residual, 0.5)

    def test_parse_error_taxonomy(self, tmp_path):
        path = tmp_path / "bad.json"

        def expect(text, fragment):
            path.write_text(text)
            with pytest.raises(PovmFormatError, match=fragment):
                load_povm(path)

        expect("{not json", "not valid JSON")
        expect(json.dumps({"dim": 4}), "format_version")
        expect(json.dumps({"format_version": "99", "dim": 4}), "unsupported")
        expect(json.dumps({"format_version": "1", "dim": "4"}), "type")
        expect(json.dumps({"format_version": "1", "dim": 1}), "at least 2")
        expect(
            json.dumps({"format_version": "1", "dim": 2, "outcomes": []}), "empty"
        )
        expect(
            json.dumps({"format_version": "1", "dim": 2, "outcomes": [{"label": "x"}]}),
            "matrix",
        )
        expect(
            json.dumps(
                {
                    "format_version": "1",
                    "dim": 2,
                    "outcomes": [{"label": "x", "matrix": [[[0, 0]], [[0, 0]]]}],
                }
            ),
            "row 0",
        )
        expect(
            json.dumps(
                {
                    "format_version": "1",
                    "dim": 2,
                    "outcomes": [
                        {"label": "x", "matrix": [[[0, 0], "no"], [[0, 0], [0, 0]]]}
                    ],
                }
            ),
            r"re, im",
        )
        expect(
            json.dumps(
                {
                    "format_version": "1",
                    "dim": 2,
                    "guard_levels": 5,
                    "outcomes": [{"label": "x", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}],
                }
            ),
            "guard_levels",
        )

    @pytest.mark.parametrize(
        "entry",
        ['"0.5"', "null", "[[0.5], 0]", "[[0.5, 0], [0, 0]]", "[0.5]", "[0.5, 0, 0]",
         '{"re": 0.5}', "[1" + "0" * 400 + ", 0]", "[0, -1" + "0" * 400 + "]",
         "[NaN, 0]", "[0, Infinity]", "[-Infinity, 0]", "[1e400, 0]"],
        ids=["string", "null", "nested-part", "too-deep", "short", "long",
             "object", "huge-int", "huge-negative-int",
             "nan", "infinity", "negative-infinity", "float-overflow"],
    )
    def test_non_numeric_entries_are_named(self, tmp_path, entry):
        # the offending entry sits at (1, 0); every other entry is a valid pair
        matrix = "[[[1, 0], [0, 0]], [%s, [0, 0]]]" % entry
        povm_path = tmp_path / "p.json"
        povm_path.write_text(
            '{"format_version": "1", "dim": 2, "guard_levels": 0, '
            '"outcomes": [{"label": "x", "matrix": %s}]}' % matrix
        )
        with pytest.raises(PovmFormatError, match=r"outcomes\[0\]: entry \(1,0\)"):
            load_povm(povm_path)
        ens_path = tmp_path / "e.json"
        ens_path.write_text(
            '{"format_version": "1", "dim": 2, '
            '"entries": [{"label": "x", "prior": 1.0, "matrix": %s}]}' % matrix
        )
        with pytest.raises(PovmFormatError, match=r"entries\[0\]: entry \(1,0\)"):
            load_ensemble(ens_path)

    def test_booleans_read_as_zero_and_one(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "format_version": "1",
            "dim": 2,
            "guard_levels": 0,
            "outcomes": [{"label": "x", "matrix": [[[True, False], [0, False]],
                                                   [[False, 0.0], [1, False]]]}],
        }))
        povm = load_povm(path)
        np.testing.assert_array_equal(povm.outcome("x").matrix, np.eye(2))

    def test_integers_beyond_64_bits_that_fit_a_float(self, tmp_path):
        path = tmp_path / "p.json"
        big = 2**64 + 1
        path.write_text(json.dumps({
            "format_version": "1",
            "dim": 2,
            "outcomes": [{"label": "x", "matrix": [[[big, 0], [0, -big]], [[0, big], [1, 0]]]}],
        }))
        _, _, [(_, _, _, m)] = fileio._read_labelled(path, "outcomes")
        assert m[0, 0] == float(big) and m[0, 1] == -1j * float(big)
        assert m[1, 0] == 1j * float(big) and m[1, 1] == 1.0

    def test_oversized_prior_is_a_format_error(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text(
            '{"format_version": "1", "dim": 2, "entries": [{"label": "x", "prior": 1%s, '
            '"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}]}' % ("0" * 400)
        )
        with pytest.raises(PovmFormatError, match="prior"):
            load_ensemble(path)

    def test_signed_zeros_survive_byte_for_byte(self, tmp_path):
        m = np.array([[1.0, complex(-0.0, -0.0)], [complex(-0.0, 0.0), complex(0.0, -0.0)]])
        povm = Povm((PovmElement("x", m), PovmElement("y", np.eye(2) - m)), guard_levels=0)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_povm(povm, a)
        pairs = np.array(json.loads(a.read_text())["outcomes"][0]["matrix"])
        np.testing.assert_array_equal(np.signbit(pairs[..., 0]), np.signbit(m.real))
        np.testing.assert_array_equal(np.signbit(pairs[..., 1]), np.signbit(m.imag))
        back = load_povm(a).outcome("x").matrix
        np.testing.assert_array_equal(np.signbit(back.real), np.signbit(m.real))
        np.testing.assert_array_equal(np.signbit(back.imag), np.signbit(m.imag))
        save_povm(load_povm(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_povm(tmp_path / "nope.json")


class TestEnsembleFiles:
    def test_round_trip_byte_identical(self, tmp_path):
        ens = uniform_fock_ensemble(6)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_ensemble(ens, a)
        save_ensemble(load_ensemble(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_loaded_entries_keep_the_decoded_matrices_without_a_copy(self, tmp_path):
        path = tmp_path / "e.json"
        save_ensemble(uniform_fock_ensemble(4), path)
        for entry in load_ensemble(path):
            assert not entry.state.flags.writeable
            assert not entry.state.flags.owndata

    def test_entries_must_be_states(self, tmp_path):
        path = tmp_path / "e.json"
        doc = {
            "format_version": "1",
            "dim": 2,
            "entries": [
                {"label": "bad", "prior": 1.0, "matrix": [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]}
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: entries\[0\]: trace"):
            load_ensemble(path)

    def test_priors_checked_on_load(self, tmp_path):
        path = tmp_path / "e.json"
        eye = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        doc = {
            "format_version": "1",
            "dim": 2,
            "entries": [{"label": "a", "prior": 0.4, "matrix": eye}],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="priors"):
            load_ensemble(path)


def _save_measurement(path):
    save_povm(ideal_pnr(3), path)


def _save_ensemble(path):
    save_ensemble(uniform_fock_ensemble(3), path)


def _save_report(path):
    rows = tuple(estimator_report(el) for el in ideal_pnr(3))
    save_report(ReportFile(__version__, "sha256:" + "0" * 64, 3, CategoryThresholds(), rows), path)


def _collections_during(fn, *args):
    """``fn(*args)`` and the generations the cyclic collector started on during the call.

    A full collection first empties the youngest generation, so the few
    containers that the call's own arguments add cannot set one off.
    """
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(record)
    try:
        return fn(*args), started
    finally:
        gc.callbacks.remove(record)


class TestCollectorPause:
    """Readers and writers set off no cyclic collection, and leave the collector as found."""

    def test_dim_60_file_is_read_and_written_without_a_collection(self, tmp_path):
        # Zero pairs parsed as null leave about 5,500 lists of the 220,000
        # that a dim-60 file parsed as written builds: too few for a collection.
        path, ens_path = tmp_path / "p.json", tmp_path / "e.json"
        save_povm(lossy_pnr(0.7, 60), path)
        povm, started = _collections_during(load_povm, path)
        assert started == []
        _, started = _collections_during(save_povm, povm, tmp_path / "q.json")
        assert started == []
        assert (tmp_path / "q.json").read_bytes() == path.read_bytes()
        save_ensemble(uniform_fock_ensemble(60), ens_path)
        _, started = _collections_during(load_ensemble, ens_path)
        assert started == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
    def test_collector_state_is_restored(self, tmp_path, enabled):
        good, malformed, unphysical = (tmp_path / n for n in ("good", "malformed", "unphysical"))
        save_povm(ideal_pnr(3), good)
        malformed.write_text('{"format_version": "1", "dim": 2, "outcomes": [')
        save_povm(Povm((PovmElement("over", 2 * np.eye(2)),)), unphysical)
        save_ensemble(uniform_fock_ensemble(3), tmp_path / "ensemble")
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            load_povm(good)
            assert gc.isenabled() is enabled
            load_ensemble(tmp_path / "ensemble")
            assert gc.isenabled() is enabled
            with pytest.raises(PovmFormatError):
                load_povm(malformed)
            assert gc.isenabled() is enabled
            with pytest.raises(PovmValidationError):
                load_povm(unphysical)
            assert gc.isenabled() is enabled
            _save_report(tmp_path / "r.json")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()


@st.composite
def _retyped(draw, rows):
    """``rows`` of ``[re, im]`` pairs, each 0 or 1 drawn as a float, an int or a bool."""
    return [[[draw(st.sampled_from([v, int(v), bool(v)])) if v in (0, 1) else v for v in pair]
             for pair in row] for row in rows]


def _stand_ins(rows):
    """Values to put in place of the matrix ``rows``: its own parts retyped, a square
    matrix of any JSON numbers one size either side of it, or any JSON value."""
    square = st.sampled_from([len(rows) - 1, len(rows), len(rows) + 1]).flatmap(
        lambda n: st.lists(st.lists(st.lists(JSON_PARTS, min_size=2, max_size=2),
                                    min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return _retyped(rows) | square | ANY_JSON


class TestMatricesReadAsTheirEntriesClose:
    """Each matrix becomes an array as the parser closes its entry; the reading is unchanged."""

    @pytest.mark.parametrize(
        "save, load",
        [(lambda path: save_povm(lossy_pnr(0.7, 30), path), load_povm),
         (lambda path: save_ensemble(uniform_fock_ensemble(30), path), load_ensemble)],
        ids=["lossy-pnr-30", "uniform-fock-30"],
    )
    def test_a_dim_30_file_loads_without_holding_its_pairs(self, tmp_path, save, load):
        # Each file is 0.34 MB of text and its matrices take 0.45 MB.  Holding
        # every [re, im] pair as a list of two floats at once peaked at 4.6 MB.
        path = tmp_path / "file.json"
        save(path)
        load(path)  # once untraced, so that imports and caches do not count
        tracemalloc.start()
        try:
            load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @pytest.mark.parametrize("load, key", [(load_povm, "outcomes"), (load_ensemble, "entries")])
    def test_a_square_matrix_of_the_wrong_dim_keeps_its_message(self, tmp_path, load, key):
        path = tmp_path / "file.json"
        eye3 = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
        path.write_text(json.dumps({
            "format_version": "1",
            "dim": 2,
            key: [{"label": "x", "prior": 1.0, "matrix": eye3}],
        }))
        with pytest.raises(PovmFormatError, match=rf"{key}\[0\]: expected 2 matrix rows$"):
            load(path)

    def test_an_outcome_with_an_extra_key_loads_as_before(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "format_version": "1",
            "dim": 2,
            "guard_levels": 0,
            "outcomes": [{"label": "x", "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "note": "kept"},
                         {"label": "y", "matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}],
        }))
        povm = load_povm(path)
        assert povm.labels == ("x", "y")
        np.testing.assert_array_equal(povm.outcome("x").matrix, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize(
        "metadata, key, kind",
        [({"nested": {"label": "z", "matrix": [[[1, 0]]]}}, "nested", "dict"),
         ({"plain": [[[1, 0]]]}, "plain", "list"),
         ({"flag": True}, "flag", "bool"),
         ({"eta": 0.7}, "eta", "float"),
         ({"note": None}, "note", "NoneType"),
         ({"label": "z", "matrix": [[[1, 0]]]}, "matrix", "list")],
        ids=["labelled-matrix", "list", "true", "number", "null", "itself-a-labelled-matrix"],
    )
    @pytest.mark.parametrize("measurement", [True, False], ids=["measurement", "ensemble"])
    def test_a_metadata_value_that_is_not_a_string_is_refused_by_key(
        self, tmp_path, capsys, metadata, key, kind, measurement
    ):
        # Metadata values are read by the type rule of every field, so none can
        # hold a matrix the hook made an array of.  Metadata that is itself a
        # labelled matrix names its matrix by its JSON type, a list.
        povm_path, ens_path = tmp_path / "p.json", tmp_path / "e.json"
        save_povm(ideal_pnr(2), povm_path)
        save_ensemble(uniform_fock_ensemble(2), ens_path)
        path = povm_path if measurement else ens_path
        doc = json.loads(path.read_text())
        doc["metadata"] = {"source": "kept", **metadata}
        path.write_text(json.dumps(doc))
        message = f"{path}: metadata: field {key!r}: has type {kind}, not str"
        with pytest.raises(PovmFormatError, match=f"^{re.escape(message)}$"):
            (load_povm if measurement else load_ensemble)(path)
        argv = (["characterize", str(path), "--out", str(tmp_path / "r.json")] if measurement
                else ["retrodict", str(povm_path), "--outcome", "1", "--ensemble", str(path)])
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error: {message}\n"

    @settings(max_examples=150, deadline=None, suppress_health_check=[_FIXTURE])
    @given(data=st.data(), dim=st.sampled_from([2, 3]), index=st.sampled_from([0, 1]))
    def test_any_value_in_place_of_a_matrix_loads_exactly_or_is_refused_by_name(
        self, tmp_path, data, dim, index
    ):
        cases = [
            (save_povm, ideal_pnr(dim), "outcomes", lambda path: load_povm(path).elements),
            (save_ensemble, uniform_fock_ensemble(dim), "entries",
             lambda path: [e.state for e in load_ensemble(path)]),
        ]
        for save, obj, key, matrices in cases:
            path = tmp_path / "file.json"
            save(obj, path)
            doc = json.loads(path.read_text())
            value = data.draw(_stand_ins(doc[key][index]["matrix"]), label=key)
            doc[key][index]["matrix"] = value
            path.write_text(json.dumps(doc))
            try:
                loaded = matrices(path)[index]
            except (PovmFormatError, PovmValidationError, ValueError) as exc:
                if isinstance(exc, PovmValidationError):  # its report names each outcome
                    assert exc.report is not None
                else:
                    assert f"{key}[{index}]: " in str(exc), str(exc)
                continue
            loaded = getattr(loaded, "matrix", loaded)
            expected = np.asarray(value, dtype=float).view(complex)[..., 0]
            assert loaded.shape == expected.shape
            assert loaded.tobytes() == expected.tobytes()


def _same(a, b) -> bool:
    """Whether two parsed documents are equal: arrays as floats and floats by their bits."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and a.shape == b.shape
                and np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes())
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return repr(a) == repr(b)


def _parses(monkeypatch):
    """The texts ``json.loads`` is given from now on."""
    texts, loads = [], json.loads

    def spy(text, **kwargs):
        texts.append(text)
        return loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    return texts


# The writer's zero entry, as a value and as the text of a label, key or value,
# and the words null, true and false, as strings.
_ZEROS = st.sampled_from([[0.0, 0.0], "[0.0, 0.0]", "x[0.0, 0.0]", "null", "true", "false"])

# Labels and notes made of pieces of the zero pair: its brackets and parts,
# the pair itself, and longer lists that hold its text, or all of it but "]".
_FRAGMENTS = st.lists(
    st.sampled_from(["[", "]", ", ", "0.0", "[0.0, 0.0", "[0.0, 0.0]", "[0.0, 0.0, 0.0]"]),
    min_size=1, max_size=6,
).map("".join)


class TestZeroPairsParsedAsNull:
    """Each stored zero pair is parsed as null; what is read does not change."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # The third file holds null and a label that is a zero pair, so it is parsed as written.
        path = tmp_path_factory.mktemp("zeros")
        pnr = lossy_pnr(0.7, 3)
        save_povm(pnr, path / "p.json")
        save_ensemble(uniform_fock_ensemble(3), path / "e.json")
        outcomes = (PovmElement("[0.0, 0.0]", pnr.elements[0].matrix), *pnr.elements[1:])
        save_povm(Povm(outcomes, metadata={**pnr.metadata, "note": "null"}), path / "n.json")
        sites = MEASUREMENT_SITES + [("metadata", "[0.0, 0.0]")]
        return [((path / "p.json").read_text(), sites),
                ((path / "e.json").read_text(), ENSEMBLE_SITES + [("metadata", "[0.0, 0.0]")]),
                ((path / "n.json").read_text(), sites)]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), value=_ZEROS | ANY_JSON)
    def test_any_value_at_any_site_parses_as_the_text_itself(self, files, data, value):
        text, sites = data.draw(st.sampled_from(files), label="file")
        text = mutated(text, data.draw(st.sampled_from(sites), label="site"), value)
        try:
            expected = json.loads(text, object_hook=fileio._matrix_hook)
        except Exception as exc:  # noqa: BLE001 - the parse below must raise the same
            with pytest.raises(type(exc)) as raised:
                fileio._loads_labelled(text)
            assert str(raised.value) == str(exc)
        else:
            assert _same(fileio._loads_labelled(text), expected)

    def test_a_diagonal_file_is_parsed_once_without_its_zero_pairs(self, tmp_path, monkeypatch):
        path = tmp_path / "p.json"
        save_povm(ideal_pnr(12), path)
        texts = _parses(monkeypatch)
        povm = load_povm(path)
        assert len(texts) == 1 and fileio._ZERO_PAIR not in texts[0]
        np.testing.assert_array_equal(povm.outcome("3").matrix, np.diag(np.arange(12) == 3))

    @pytest.mark.parametrize("words", [["null"], ["null", "true"]], ids=["null", "null-true"])
    def test_a_file_holding_null_is_parsed_once_as_written(self, tmp_path, monkeypatch, words):
        # A label or a note reading null sends the whole file to the parse as written.
        path = tmp_path / "p.json"
        pnr = ideal_pnr(3)
        outcomes = (PovmElement(words[0], pnr.elements[0].matrix), *pnr.elements[1:])
        save_povm(Povm(outcomes, metadata={"note": " ".join(words)}), path)
        texts = _parses(monkeypatch)
        povm = load_povm(path)
        assert povm.labels == (words[0], "1", "2") and povm.metadata == {"note": " ".join(words)}
        assert texts == [path.read_text()]
        for back, element in zip(povm, pnr):
            assert back.matrix.tobytes() == element.matrix.tobytes()

    def test_a_file_holding_every_stand_in_is_parsed_once_from_its_text(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "p.json"
        save_povm(Povm(ideal_pnr(3).elements, metadata={"note": "null true false"}), path)
        texts = _parses(monkeypatch)
        assert load_povm(path).metadata == {"note": "null true false"}
        assert texts == [path.read_text()]

    @pytest.mark.parametrize(
        "note, bare", [("null", "1"), ("null", "1.0"), ("null true", "0"), ("null true", "0.0")]
    )
    def test_a_bare_number_equal_to_the_stand_in_is_no_zero_pair(self, tmp_path, note, bare):
        # A bare 1 (or 0) in a matrix equals true (or false).  Were either word
        # a stand-in and the number counted as a zero pair, it would make up
        # for the label's replaced pair, and the rewrite would be kept, label
        # changed.  The file holds null, so it must read as its text.
        pnr = ideal_pnr(3)
        outcomes = (PovmElement(fileio._ZERO_PAIR, pnr.elements[0].matrix), *pnr.elements[1:])
        path = tmp_path / "p.json"
        save_povm(Povm(outcomes, metadata={"note": note}), path)
        text = path.read_text()
        row = text.index("[[", text.index('"label": "1"'))
        text = text[:row] + text[row:].replace(fileio._ZERO_PAIR, bare, 1)
        expected = json.loads(text, object_hook=fileio._matrix_hook)
        assert expected["outcomes"][0]["label"] == fileio._ZERO_PAIR
        assert _same(fileio._loads_labelled(text), expected)

    @settings(max_examples=100, deadline=None, suppress_health_check=[_FIXTURE])
    @given(label=_FRAGMENTS, note=_FRAGMENTS)
    def test_the_count_taken_from_the_shortened_text_is_the_count_of_zero_pairs(
        self, tmp_path, monkeypatch, label, note
    ):
        # Each replacement shortens the text by 6 characters, and the pairs a
        # label or note holds make the rewrite fall back to the text.
        pnr = ideal_pnr(3)
        path = tmp_path / "p.json"
        save_povm(Povm((PovmElement(label, pnr.elements[0].matrix), *pnr.elements[1:]),
                       metadata={"note": note}), path)
        text, pair = path.read_text(), fileio._ZERO_PAIR
        assert (len(text) - len(text.replace(pair, "null"))) // 6 == text.count(pair)
        with monkeypatch.context() as patch:
            texts = _parses(patch)
            doc = fileio._loads_labelled(text)
        assert _same(doc, json.loads(text, object_hook=fileio._matrix_hook))
        assert len(texts) == (2 if pair in label + "\0" + note else 1)

    def test_a_label_holding_a_zero_pair_keeps_its_text(self, tmp_path, monkeypatch):
        path = tmp_path / "p.json"
        pnr = ideal_pnr(3)
        save_povm(Povm((PovmElement("[0.0, 0.0]", pnr.elements[0].matrix), *pnr.elements[1:])),
                  path)
        texts = _parses(monkeypatch)
        povm = load_povm(path)
        assert povm.labels == ("[0.0, 0.0]", "1", "2")
        assert len(texts) == 2 and texts[1] == path.read_text()  # the rewrite, then the text
        for back, element in zip(povm, pnr):
            assert back.matrix.tobytes() == element.matrix.tobytes()

    def test_a_syntax_error_after_zero_pairs_names_its_own_line_and_column(self, tmp_path):
        rows = ",\n".join(["[" + ", ".join(["[0.0, 0.0]"] * 10) + "]"] * 10)
        text = ('{"format_version": "1", "dim": 10, "outcomes": [{"label": "0", "matrix": [\n'
                + rows + "\n]} oops]}")
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as raised:
            json.loads(text)
        exc = raised.value
        message = f"{path}: not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        with pytest.raises(PovmFormatError, match=f"^{re.escape(message)}$"):
            load_povm(path)
        assert (exc.lineno, exc.colno) == (12, 4)

    def test_the_writer_writes_the_zero_pair_the_reader_replaces(self):
        # Files saved so far hold this text; were the writer's float text to
        # change, _ZERO_PAIR would follow it and those files would lose the route.
        assert fileio._ZERO_PAIR == "[0.0, 0.0]"
        pair = fileio._ZERO_PAIR
        assert _matrix_to_pairs([np.zeros((2, 2))]) == [[f"[{pair}, {pair}]"] * 2]


def _reference_hook(obj: dict) -> dict:
    """The rule of a matrix parsed as written: ``np.array(rows)`` gives an ``(n, n, 2)``
    array of booleans, integers or floats, or the list stays."""
    rows = obj.get("matrix")
    if type(obj.get("label")) is str and type(rows) is list:
        try:
            parts = np.array(rows)
        except ValueError:  # ragged
            return obj
        n = len(parts)
        if parts.shape == (n, n, 2) and parts.dtype.kind in "biuf":
            obj["matrix"] = parts
    return obj


# Pairs of any JSON numbers, integers beyond 64 bits included, and entries that are no pair.
_PAIRS = (st.lists(JSON_PARTS, min_size=2, max_size=2)
          | st.lists(st.floats(), min_size=2, max_size=2))
_NO_PAIRS = (
    st.lists(JSON_PARTS, max_size=1) | st.lists(JSON_PARTS, min_size=3, max_size=3)
    | st.text(max_size=2) | st.lists(_PAIRS, min_size=1, max_size=2)
    | st.dictionaries(st.text(max_size=1), JSON_PARTS, max_size=1) | st.none() | JSON_PARTS
)


class TestOneDecoder:
    """Both parses of a labelled file decode its matrices by one rule, ``_matrix_hook``'s."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_the_decoder_is_the_reference_with_each_stand_in_a_zero_pair(self, data):
        zero = data.draw(st.sampled_from([fileio._AS_WRITTEN, None]), label="zero")
        n = data.draw(st.integers(1, 6), label="n")
        diagonal = data.draw(st.booleans(), label="diagonal")
        entry = st.just(zero) | _PAIRS
        rows = [[zero if diagonal and i != j else data.draw(entry) for j in range(n)]
                for i in range(n)]
        fault = data.draw(st.sampled_from([None, None, "entry", "short", "long", "row"]))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if fault == "entry":
            rows[i][j] = data.draw(_NO_PAIRS.filter(lambda v: v is not zero), label="entry")
        elif fault == "short":
            del rows[i][j]
        elif fault == "long":
            rows[i].append(data.draw(entry))
        elif fault == "row":
            rows[i] = data.draw(_NO_PAIRS, label="row")
        written = [[[0.0, 0.0] if v is zero else v for v in row] if type(row) is list else row
                   for row in rows]
        want = _reference_hook({"label": "x", "matrix": written})["matrix"]
        filled = [0]
        got = fileio._matrix_hook({"label": "x", "matrix": rows}, zero, filled)["matrix"]
        if type(want) is list:
            assert got is rows and filled == [0]
        else:
            assert got.dtype == np.float64 and got.flags.owndata and got.flags.c_contiguous
            assert got.tobytes() == np.asarray(want, dtype=float).tobytes()
            assert filled == [sum(v is zero for row in rows for v in row)]

    def test_both_parses_hand_the_decoder_to_the_parser(self, tmp_path, monkeypatch):
        # A label holding a zero pair makes the rewrite fall back to the text.
        pnr = ideal_pnr(3)
        path = tmp_path / "p.json"
        save_povm(Povm((PovmElement(fileio._ZERO_PAIR, pnr.elements[0].matrix),
                        *pnr.elements[1:])), path)
        hooks, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: hooks.append(kw["object_hook"])
                            or loads(text, **kw))
        fileio._loads_labelled(path.read_text())
        assert hooks[0].func is fileio._matrix_hook and hooks[0].keywords["zero"] is None
        assert hooks[1:] == [fileio._matrix_hook]


class TestTextEncoding:
    """Every JSON file is read as UTF-8; other bytes are a format error naming the file."""

    @pytest.mark.parametrize("encoding", ["latin-1", "utf-16"])
    @pytest.mark.parametrize(
        "save, load",
        [(_save_measurement, load_povm), (_save_ensemble, load_ensemble),
         (_save_report, load_report)],
        ids=["measurement", "ensemble", "report"],
    )
    def test_non_utf8_file_is_a_format_error(self, tmp_path, save, load, encoding):
        path = tmp_path / "file.json"
        save(path)
        # An unknown top-level key is ignored, so only the encoding differs.
        text = path.read_text(encoding="utf-8").replace("{", '{\n  "note": "caf\u00e9",', 1)
        path.write_bytes(text.encode("utf-8"))
        load(path)
        path.write_bytes(text.encode(encoding))
        message = f"^{re.escape(str(path))}: not valid JSON: 'utf-8' codec"
        with pytest.raises(PovmFormatError, match=message):
            load(path)


# Documents with matrices at any depth, beside scalars and empty containers.
_MATRICES = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: arrays(float, (*shape, 2), elements=_PARTS)
).map(lambda parts: parts.view(complex)[..., 0])
_DOCUMENTS = st.recursive(
    _MATRICES | st.just([]) | st.just({}) | st.none() | st.booleans() | st.integers()
    | st.text(max_size=3) | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


def _as_rows(value, placeholder=None):
    """``value`` with each array as its rows of ``[re, im]`` pairs, or as ``placeholder``."""
    if isinstance(value, np.ndarray):
        return placeholder or value.view(float).reshape(*value.shape, 2).tolist()
    if isinstance(value, dict):
        return {k: _as_rows(v, placeholder) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_rows(v, placeholder) for v in value]
    return value


class TestJsonLayout:
    @settings(max_examples=60, deadline=None, suppress_health_check=[_FIXTURE])
    @given(
        st.integers(2, 8).flatmap(
            lambda d: st.lists(arrays(float, (d, d, 2), elements=_PARTS), min_size=1, max_size=3)
        )
    )
    def test_random_matrices_round_trip_bit_for_bit(self, tmp_path, parts):
        povm = Povm(
            tuple(PovmElement(str(k), p.view(complex)[..., 0]) for k, p in enumerate(parts)),
            guard_levels=0,
        )
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_povm(povm, a)
        _, _, outcomes = fileio._read_labelled(a, "outcomes")
        back = Povm(tuple(PovmElement(label, m) for *_, label, m in outcomes), guard_levels=0)
        for p, element in zip(parts, back):
            got = element.matrix.view(float).reshape(p.shape)
            assert got.tobytes() == p.tobytes()
            np.testing.assert_array_equal(np.signbit(got), np.signbit(p))
        save_povm(back, b)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        row_lines = [line for line in text.splitlines() if line.lstrip().startswith("[[")]
        assert [json.loads(line.rstrip(",")) for line in row_lines] == [
            row for p in parts for row in p.tolist()
        ]

    @settings(max_examples=100, deadline=None, suppress_health_check=[_FIXTURE])
    @given(st.dictionaries(st.text(), _JSON_VALUES, max_size=6))
    def test_documents_without_matrices_are_laid_out_as_indent_2(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        write_json(doc, path)
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"

    @settings(max_examples=150, deadline=None, suppress_health_check=[_FIXTURE])
    @given(st.dictionaries(st.text(max_size=3), _DOCUMENTS, max_size=4))
    def test_every_array_keeps_its_place_in_the_one_walk(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        write_json(doc, path)
        text = path.read_text()
        assert json.dumps(json.loads(text)) == json.dumps(_as_rows(doc))
        # Each matrix is "[", one line per row, "]"; no other line starts with "[[".
        placed = re.sub(r"\[(\n +)\[\[[^\n]*(?:\1\[\[[^\n]*)*\n *\]", '"\\\\u0000matrix"', text)
        assert placed == json.dumps(_as_rows(doc, "\0matrix"), indent=2) + "\n"

    def test_one_call_builds_the_rows_of_every_array_in_document_order(self, tmp_path, monkeypatch):
        calls, batches = [], []
        matrix_rows, to_pairs = fileio._matrix_rows, fileio._matrix_to_pairs
        monkeypatch.setattr(fileio, "_matrix_rows", lambda a: calls.append(a) or matrix_rows(a))
        monkeypatch.setattr(fileio, "_matrix_to_pairs", lambda m: batches.append(len(m)) or to_pairs(m))
        walks = []

        class Walked(dict):  # counts each walk through its entries
            def items(self):
                walks.append("items")
                return super().items()

            def values(self):
                walks.append("values")
                return super().values()

        m = [np.full((2, 2), k, dtype=complex) for k in range(3)]
        write_json(Walked(a=[m[0], {"b": m[1]}, []], c={}, d=m[2]), tmp_path / "doc.json")
        assert len(walks) == 1
        assert len(calls) == 1 and list(map(id, calls[0])) == list(map(id, m))
        povm = lossy_pnr(0.7, 60)
        calls.clear()
        batches.clear()
        save_povm(povm, tmp_path / "m.json")  # _BATCH entries a call: 18 matrices of 3,600
        assert len(calls) == 1 and list(map(id, calls[0])) == [id(e.matrix) for e in povm]
        assert batches == [18, 18, 18, 6]

    def test_files_in_the_earlier_indent_2_layout_load_unchanged(self, tmp_path):
        m = np.array([[0.5, complex(-0.0, -0.0)], [complex(-0.0, 0.0), complex(0.5, -0.0)]])
        povm = Povm((PovmElement("x", m), PovmElement("y", np.eye(2) - m)), guard_levels=0)
        ensemble = uniform_fock_ensemble(4)
        for save, load, obj, items in [
            (save_povm, load_povm, povm, lambda x: [e.matrix for e in x]),
            (save_ensemble, load_ensemble, ensemble, lambda x: [e.state for e in x]),
        ]:
            new = tmp_path / "new.json"
            old = tmp_path / "old.json"
            save(obj, new)
            old.write_text(json.dumps(json.loads(new.read_text()), indent=2) + "\n")
            assert old.stat().st_size > new.stat().st_size
            for want, got in zip(items(obj), items(load(old))):
                assert got.tobytes() == np.asarray(want, dtype=complex).tobytes()

    def test_non_finite_matrix_entries_are_never_written(self, tmp_path):
        for bad in (float("nan"), float("inf"), complex(0.0, -float("inf"))):
            with pytest.raises(ValueError):
                doc = {"matrix": _matrix_to_pairs([np.array([[1.0, bad], [0.0, 1.0]])])}
                write_json(doc, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("writer", ["write_json", "save_povm", "save_ensemble", "save_report"])
    def test_a_non_finite_value_is_refused_naming_the_file(self, tmp_path, writer):
        path = tmp_path / "kept.json"
        path.write_bytes(b"earlier bytes\n")
        nan = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        if writer == "write_json":
            call = lambda: write_json({"a": [1.0, {"b": float("inf")}]}, path)  # noqa: E731
        elif writer == "save_povm":
            povm = ideal_pnr(2)
            object.__setattr__(povm.elements[0], "matrix", nan)  # past the element's own check
            call = lambda: save_povm(povm, path)  # noqa: E731
        elif writer == "save_ensemble":
            ensemble = uniform_fock_ensemble(2)
            object.__setattr__(ensemble.entries[1], "state", nan)
            call = lambda: save_ensemble(ensemble, path)  # noqa: E731
        else:
            rows = tuple(estimator_report(el) for el in ideal_pnr(2))
            rows = (dataclasses.replace(rows[0], projectivity=float("nan")),) + rows[1:]
            report = ReportFile(__version__, "sha256:" + "0" * 64, 2, CategoryThresholds(), rows)
            call = lambda: save_report(report, path)  # noqa: E731
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value).startswith(f"{path}: Out of range float values")
        assert path.read_bytes() == b"earlier bytes\n"


# Few values, so that rows drawn from them repeat, within a matrix and across matrices.
_M_POOL = st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 1.0, -1 / 3])
_encode = json.JSONEncoder(allow_nan=False).encode


def _encoded_rows(m):
    """Each row of ``m`` as ``(re, im)`` tuples through the JSON encoder: the oracle."""
    m = np.asarray(m, dtype=complex)
    return [_encode(list(zip(re, im))) for re, im in zip(m.real.tolist(), m.imag.tolist())]


class TestMatrixRows:
    """Each matrix row is the JSON encoder's text, built from the array directly."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_finite_matrices_give_the_encoder_rows(self, data):
        # One call takes several matrices, of different shapes, as write_json does.
        matrices = []
        for _ in range(data.draw(st.integers(1, 2))):
            shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 8)))
            pooled = data.draw(st.booleans())
            parts = data.draw(arrays(float, (*shape, 2), elements=_M_POOL if pooled else _PARTS))
            matrices.append(parts.view(complex)[..., 0])
        assert _matrix_to_pairs(matrices) == [_encoded_rows(m) for m in matrices]

    @pytest.mark.parametrize("kind", ["dense", "diagonal", "signed-zero", "subnormal"])
    def test_seeded_matrices_give_the_encoder_rows(self, kind):
        rng = np.random.default_rng(33)
        m = random_density(rng, 60)
        if kind == "diagonal":
            m = np.diag(rng.uniform(0.0, 1.0, 60) ** 9)  # 1 to 1e-80 or so, fixed and exponent
        elif kind == "signed-zero":
            m = np.where(rng.random((60, 60)) < 0.5, m, complex(-0.0, -0.0))
            m[::7] = complex(0.0, -0.0)
        elif kind == "subnormal":
            m = m * 1e-310
        assert _matrix_to_pairs([m]) == [_encoded_rows(m)]
        assert _matrix_to_pairs([m, m.T, -m]) == [_encoded_rows(x) for x in (m, m.T, -m)]

    @pytest.mark.parametrize("kind", ["lossy-pnr", "dense"])
    def test_zeros_are_filled_in_not_formatted(self, kind, monkeypatch):
        # The zeros of a diagonal matrix take their text from a table; only the
        # other values of its rows that are not zero rows reach the digit engine.
        if kind == "lossy-pnr":
            matrices = [e.matrix for e in lossy_pnr(0.7, 60)]
        else:  # no zeros but the imaginary diagonal
            matrices = [random_density(np.random.default_rng(17), 60)]
        seen, texts = [], fileio._texts

        def spy(values, shortest):
            seen.append(values.size)
            return texts(values, shortest)

        monkeypatch.setattr(fileio, "_texts", spy)
        for n, m in enumerate(matrices):
            seen.clear()
            assert _matrix_to_pairs([m]) == [_encoded_rows(m)]
            # the diagonal below the first weight is zero; the dense diagonal is real
            assert seen == ([60 - n] if kind == "lossy-pnr" else [7200 - 60])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rows_drawn_from_a_small_pool_give_the_encoder_rows(self, data):
        # Rows repeat, and some differ from the zero row only in the sign of a
        # zero or by the smallest subnormal, so each must keep its own text.
        width = data.draw(st.integers(1, 6))
        zero = np.zeros(2 * width)
        signed, tiny = zero.copy(), zero.copy()
        signed[data.draw(st.integers(0, 2 * width - 1))] = -0.0
        tiny[data.draw(st.integers(0, 2 * width - 1))] = 5e-324
        drawn = data.draw(st.lists(arrays(float, 2 * width, elements=_PARTS), max_size=2))
        pool = [zero, signed, tiny, *drawn]
        picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=10))
        m = np.array([pool[i] for i in picks]).view(complex)
        assert _matrix_to_pairs([m]) == [_encoded_rows(m)]

    @pytest.mark.parametrize("model", ["ideal-pnr", "lossy-pnr"])
    def test_each_distinct_row_is_formatted_once(self, model, monkeypatch, tmp_path):
        # A diagonal element's levels below its first non-zero weight are zero
        # rows, which take one text without the formatter, and each other row
        # carries one weight: 1 row for ideal PNR, 60 - n for lossy PNR.  The
        # zero pairs are no number's text either, so only the one non-zero
        # pair of each such row reaches the formatter.
        povm = ideal_pnr(60) if model == "ideal-pnr" else lossy_pnr(0.7, 60)
        seen, r17 = [], fileio._r17

        def spy(values):
            seen.append(np.ravel(values).tolist())
            return r17(values)

        monkeypatch.setattr(fileio, "_r17", spy)
        for n, element in enumerate(povm):
            seen.clear()
            assert _matrix_to_pairs([element.matrix]) == [_encoded_rows(element.matrix)]
            weights = np.diag(element.matrix)[np.diag(element.matrix) != 0]
            assert seen == [weights.view(float).tolist()], element.label
        seen.clear()
        save_povm(povm, tmp_path / "m.json")  # four batches of at most 18 elements (_BATCH entries)
        assert len(seen) == 4 and sum(map(len, seen)) == 2 * (60 if model == "ideal-pnr" else 60 * 61 // 2)

    def test_zero_rows_of_any_width_take_their_text_without_the_formatter(self, monkeypatch):
        # A row of -0.0 sets the sign bit, so it is no zero row: its parts are
        # formatted with those of the other rows.
        rng = np.random.default_rng(8)
        a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in (6, 9))
        a[[0, 3]] = b[[1, 2, 7]] = 0.0
        a[5] = complex(-0.0, -0.0)
        seen, r17 = [], fileio._r17
        monkeypatch.setattr(fileio, "_r17", lambda values: seen.append(values.tobytes()) or r17(values))
        assert _matrix_to_pairs([a, b]) == [_encoded_rows(a), _encoded_rows(b)]
        assert seen == [np.concatenate([a[[1, 2, 4, 5]], b[[0, 3, 4, 5, 6, 8]]], axis=None).tobytes()]


class TestReportFiles:
    def build(self, tmp_path):
        povm_path = tmp_path / "apd.json"
        povm = on_off_apd(0.5, 0.0, 40)
        save_povm(povm, povm_path)
        target = fock_state(1, 40)
        rows = tuple(
            estimator_report(el, target, "fock:1") for el in povm
        )
        witnesses = (
            nonclassicality_of_measurement(
                povm.outcome("off"), PhaseSpaceGrid.symmetric(6.0, 41)
            ),
        )
        return ReportFile(
            tool_version=__version__,
            input_digest=sha256_digest(povm_path),
            dim=40,
            thresholds=CategoryThresholds(),
            estimators=rows,
            nonclassicality=witnesses,
        )

    def test_round_trip(self, tmp_path):
        report = self.build(tmp_path)
        a = tmp_path / "r.json"
        b = tmp_path / "r2.json"
        save_report(report, a)
        back = load_report(a)
        assert back == report
        save_report(back, b)
        assert a.read_bytes() == b.read_bytes()

    def test_settings_round_trip(self, tmp_path):
        report = dataclasses.replace(
            self.build(tmp_path),
            thresholds=CategoryThresholds(projectivity_min=0.9, ideality_min=0.8),
            tolerances=Tolerances(neg=0.25, trace_floor=0.0),
        )
        a = tmp_path / "r.json"
        b = tmp_path / "r2.json"
        save_report(report, a)
        back = load_report(a)
        assert (back.thresholds, back.tolerances) == (report.thresholds, report.tolerances)
        save_report(back, b)
        assert a.read_bytes() == b.read_bytes()
        assert (
            '  "thresholds": {\n    "projectivity_min": 0.9,\n    "ideality_min": 0.8\n  },\n'
            '  "tolerances": {\n    "herm": 1e-10,'
        ) in a.read_text()

    @pytest.mark.parametrize(
        "edit",
        [
            {"neg": -1.0},
            {"nosuch": 1.0},
            {"neg": "small"},
            {"neg": "0.5"},
            {"neg": None},
            {"neg": float("nan")},
        ],
        ids=["negative", "unknown", "string", "numeric-string", "null", "nan"],
    )
    def test_bad_tolerances_are_format_errors(self, tmp_path, edit):
        path = self.tampered(tmp_path, lambda doc: doc["tolerances"].update(edit))
        with pytest.raises(PovmFormatError, match="malformed tolerances"):
            load_report(path, validate=False)

    def test_tampered_numbers_fail_validation(self, tmp_path):
        report = self.build(tmp_path)
        path = tmp_path / "r.json"
        save_report(report, path)
        doc = json.loads(path.read_text())
        doc["estimators"][0]["ideality"] += 0.05
        path.write_text(json.dumps(doc))
        with pytest.raises(ReportValidationError, match="identities"):
            load_report(path)
        assert load_report(path, validate=False).dim == 40

    @pytest.mark.parametrize("dim", [2**63, 10**400], ids=["2**63", "10**400"])
    def test_a_dim_no_array_can_have_is_a_format_error(self, tmp_path, dim):
        path = self.tampered(tmp_path, lambda doc: doc.update(dim=dim))
        message = f"{path}: dim must be at most {sys.maxsize}, got {dim}"
        with pytest.raises(PovmFormatError, match=f"^{re.escape(message)}$"):
            load_report(path)

    def tampered(self, tmp_path, edit):
        path = tmp_path / "r.json"
        save_report(self.build(tmp_path), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    def test_flipped_category_fails_validation(self, tmp_path):
        path = self.tampered(
            tmp_path, lambda doc: doc["estimators"][0].update(category="ProjectiveIdeal")
        )
        with pytest.raises(ReportValidationError, match="filed as ProjectiveIdeal"):
            load_report(path)

    def test_nan_scalars_fail_validation(self, tmp_path):
        def edit(doc):
            doc["estimators"][0].update(projectivity=float("nan"), ideality=float("nan"))

        with pytest.raises(ReportValidationError, match="identities"):
            load_report(self.tampered(tmp_path, edit))

    @pytest.mark.parametrize(
        "edit",
        [
            {"fidelity": None, "detectivity": None},
            {"fidelity": None},
            {"detectivity": None},
            {"target": None},
        ],
        ids=["both-erased", "fidelity-erased", "detectivity-erased", "target-erased"],
    )
    def test_target_metrics_must_match_target(self, tmp_path, edit):
        path = self.tampered(tmp_path, lambda doc: doc["estimators"][0].update(edit))
        with pytest.raises(ReportValidationError, match="exactly when it names a target"):
            load_report(path)
        assert load_report(path, validate=False).estimators[0].target == (
            None if "target" in edit else "fock:1"
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "high", None])
    def test_bad_thresholds_are_format_errors(self, tmp_path, value):
        path = self.tampered(
            tmp_path, lambda doc: doc["thresholds"].update(projectivity_min=value)
        )
        with pytest.raises(PovmFormatError, match="thresholds"):
            load_report(path, validate=False)

    def test_non_finite_numbers_are_never_written(self, tmp_path):
        report = self.build(tmp_path)
        row = dataclasses.replace(report.estimators[0], fidelity=float("nan"))
        bad = dataclasses.replace(report, estimators=(row,))
        with pytest.raises(ValueError):
            save_report(bad, tmp_path / "bad.json")

    def test_non_finite_number_leaves_an_existing_file_untouched(self, tmp_path):
        report = self.build(tmp_path)
        path = tmp_path / "r.json"
        save_report(report, path)
        before = path.read_bytes()
        for bad in (float("nan"), float("-inf")):
            row = dataclasses.replace(report.estimators[0], ideality=bad)
            with pytest.raises(ValueError):
                save_report(dataclasses.replace(report, estimators=(row,)), path)
            assert path.read_bytes() == before

    def test_bytes_are_the_indent_2_layout(self, tmp_path):
        path = tmp_path / "r.json"
        save_report(self.build(tmp_path), path)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_malformed_rows_are_format_errors(self, tmp_path):
        report = self.build(tmp_path)
        path = tmp_path / "r.json"
        save_report(report, path)
        doc = json.loads(path.read_text())
        del doc["estimators"][0]["projectivity"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PovmFormatError, match="estimator row"):
            load_report(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"min_wigner": 5.0}, "min_wigner 5.0 outside"),
            ({"min_wigner": float("nan")}, "min_wigner nan outside"),
            ({"negativity_volume": -0.1}, "negativity_volume -0.1"),
            ({"negativity_volume": 0.2}, "negativity_volume 0.2"),
            ({"negativity_volume": float("inf")}, "negativity_volume inf"),
            ({"is_nonclassical": True}, "is_nonclassical True but its witnesses give False"),
            ({"hudson_inconsistent": True}, "hudson_inconsistent True"),
            ({"outcome": "nosuch"}, "names no estimator row"),
        ],
        ids=["min-wigner-high", "min-wigner-nan", "negative-volume", "volume-without-dip",
             "infinite-volume", "nonclassical-flipped", "hudson-flipped", "renamed"],
    )
    def test_tampered_witness_rows_fail_validation(self, tmp_path, edit, message):
        path = self.tampered(tmp_path, lambda doc: doc["nonclassicality"][0].update(edit))
        with pytest.raises(ReportValidationError, match=message):
            load_report(path)
        assert len(load_report(path, validate=False).nonclassicality) == 1

    def test_witness_rows_are_checked_under_the_default_tolerances(self, tmp_path):
        def set_min_wigner(value):
            return self.tampered(
                tmp_path, lambda doc: doc["nonclassicality"][0].update(min_wigner=value)
            )

        load_report(set_min_wigner(-1.0 / np.pi - 0.5 * DEFAULT_TOLS.neg))
        path = set_min_wigner(-0.35)
        with pytest.raises(ReportValidationError, match=r"min_wigner -0.35 .*dead band 1e-06"):
            load_report(path)
        report = load_report(path, validate=False)
        row = report.nonclassicality[0]
        lax = dataclasses.replace(report, tolerances=Tolerances(neg=0.1))
        assert witness_row_problems(row, lax) == []

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(dim=2), r"projectivity 0\.\d+ outside \[0\.5, 1\] at dim 2"),
            (
                lambda doc: doc["estimators"][1].update(
                    fidelity=2.0, detectivity=doc["estimators"][1]["trace_weight"] * 2.0
                ),
                r"fidelity 2\.0 outside \[0, 1\]",
            ),
            (
                lambda doc: doc["estimators"][1].update(trace_weight=0.0, ideality=0.0),
                "trace_weight 0.0, at or below the trace floor",
            ),
        ],
        ids=["dim-2", "fidelity-2", "zero-weight"],
    )
    def test_values_outside_their_range_fail_validation(self, tmp_path, edit, message):
        path = self.tampered(tmp_path, edit)
        with pytest.raises(ReportValidationError, match=message):
            load_report(path)

    def test_rows_of_one_outcome_must_agree(self, tmp_path):
        povm = on_off_apd(0.5, 0.0, 12)
        targets = [("fock:1", fock_state(1, 12)), ("fock:2", fock_state(2, 12))]
        rows = tuple(estimator_report(el, ket, label) for el in povm for label, ket in targets)
        report = ReportFile("", "", 12, CategoryThresholds(), rows)
        assert [estimator_row_problems(row, report) for row in rows] == [[]] * 4
        first = rows[0]  # off, fock:1
        moved = dataclasses.replace(
            first, projectivity=0.4, ideality=0.4 * first.trace_weight,
            detectivity=first.trace_weight * first.fidelity,
        )
        tampered = dataclasses.replace(report, estimators=(moved,) + rows[1:])
        assert estimator_row_problems(moved, tampered) == []  # consistent on its own
        problems = estimator_row_problems(rows[1], tampered)
        assert problems == ["disagrees with the outcome's first row on projectivity, ideality"]
        path = tmp_path / "r.json"
        save_report(tampered, path)
        with pytest.raises(ReportValidationError, match="outcome 'off' disagrees"):
            load_report(path)

    def test_range_slack_comes_from_the_stored_tolerances(self):
        # At dim 40 the default slack is 2 * (1e-9 + 40 * 1e-10) = 1e-8.
        report = ReportFile("", "", 40, CategoryThresholds(), ())

        def projector(excess):
            p = 1.0 + excess
            return EstimatorReport("x", p, p, 1.0, OutcomeCategory.PROJECTIVE_IDEAL)

        assert estimator_row_problems(projector(5e-9), report) == []
        problems = estimator_row_problems(projector(2e-8), report)
        assert [p.split()[1] for p in problems] == ["projectivity", "ideality"]
        lax = dataclasses.replace(report, tolerances=Tolerances(norm=1e-7))
        assert estimator_row_problems(projector(2e-8), lax) == []
        low = 1.0 / 40 - 1e-17  # a maximally mixed state, rounded down
        mixed = EstimatorReport("y", low, low, 1.0, OutcomeCategory.NON_PROJECTIVE)
        assert estimator_row_problems(mixed, report) == []

    def test_a_target_needs_a_label(self):
        el = on_off_apd(0.5, 0.0, 6).outcome("on")
        with pytest.raises(ValueError, match=r"^outcome 'on': a target needs a target_label$"):
            estimator_report(el, fock_state(1, 6))

    @settings(max_examples=60, deadline=None)
    @given(
        weights=arrays(float, st.integers(2, 6), elements=st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
        targeted=st.booleans(),
        label=st.none() | st.text(max_size=12),
    )
    def test_every_row_estimator_report_builds_passes_its_verifier(
        self, weights, seed, targeted, label
    ):
        assume(weights.sum() > 1e-6)  # well above the trace floor
        rng = np.random.default_rng(seed)
        d = weights.size
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        el = PovmElement("e", (q * weights) @ q.conj().T)
        target = random_pure(rng, d) if targeted else None
        if targeted and label is None:
            with pytest.raises(ValueError, match="a target needs a target_label"):
                estimator_report(el, target, label)
            return
        row = estimator_report(el, target, label)
        assert (row.target is None) == (not targeted)
        assert estimator_row_problems(row, ReportFile("", "", d, CategoryThresholds(), (row,))) == []

    def test_identity_residuals_without_target(self):
        row = estimator_report(ideal_pnr(5).outcome("2"))
        weight_res, det_res = estimator_identity_residuals(row)
        assert weight_res <= 1e-12 and det_res is None


_TEXT = st.text(max_size=12)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SETTING = st.floats(min_value=0.0, max_value=1e300) | st.sampled_from([0.0, 5e-324, 1e-12])
_ESTIMATOR_ROWS = st.builds(
    EstimatorReport,
    outcome_label=_TEXT,
    projectivity=_FLOATS,
    ideality=_FLOATS,
    trace_weight=_FLOATS,
    category=st.sampled_from(OutcomeCategory),
    target=st.none() | _TEXT,
    fidelity=st.none() | _FLOATS,
    detectivity=st.none() | _FLOATS,
)
_WITNESS_ROWS = st.builds(
    NonClassicalityReport,
    outcome_label=_TEXT,
    min_wigner=_FLOATS,
    negativity_volume=_FLOATS,
    squeezing_witness=st.booleans(),
    is_nonclassical=st.booleans(),
    gaussianity=st.sampled_from(Gaussianity),
    hudson_inconsistent=st.booleans(),
)
_RECORDS = (EstimatorReport, NonClassicalityReport, CategoryThresholds, Tolerances)
# One JSON value of each kind, for type tampers.
_JSON_KINDS = ["x", "0.5", "", True, False, None, [], [0.5], {}, {"a": 1}, 0, 1, -2, 0.5]


def _settings(cls):
    return st.builds(cls, **{f.name: _SETTING for f in dataclasses.fields(cls)})


def _field_types(cls) -> dict:
    """Declared type per JSON key of a record (``outcome_label`` is stored as ``outcome``)."""
    hints = typing.get_type_hints(cls)
    return {
        {"outcome_label": "outcome"}.get(f.name, f.name): hints[f.name]
        for f in dataclasses.fields(cls)
    }


def _takes(field_type, value) -> bool:
    """Whether a field of ``field_type`` may hold the JSON ``value``, by the README's rule."""
    if typing.get_origin(field_type) is typing.Union:  # Optional[...]
        return value is None or _takes(typing.get_args(field_type)[0], value)
    if field_type is float:
        return type(value) in (int, float)
    if isinstance(field_type, type) and issubclass(field_type, enum.Enum):
        return value in [member.value for member in field_type]
    return type(value) is field_type


@pytest.fixture(scope="module")
def witness_report_path(tmp_path_factory):
    """A valid report with a target and witness rows, so no optional field is null."""
    path = tmp_path_factory.mktemp("records") / "report.json"
    povm = on_off_apd(0.5, 0.0, 12)
    grid = PhaseSpaceGrid.symmetric(3.0, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        witnesses = tuple(nonclassicality_of_measurement(el, grid) for el in povm)
    save_report(
        ReportFile(
            tool_version=__version__,
            input_digest="sha256:" + "0" * 64,
            dim=12,
            thresholds=CategoryThresholds(),
            estimators=tuple(estimator_report(el, fock_state(1, 12), "fock:1") for el in povm),
            nonclassicality=witnesses,
        ),
        path,
    )
    assert main(["verify", str(path)]) == 0
    return path


class TestReportRecords:
    """Report rows and settings blocks, written and read from their dataclasses."""

    @pytest.mark.parametrize("cls", _RECORDS)
    def test_schema_covers_every_declared_field(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        assert [name for name, *_ in _SCHEMAS[cls]] == names
        assert [key for _, key, *_ in _SCHEMAS[cls]] == list(_field_types(cls))

    @settings(max_examples=60, deadline=None, suppress_health_check=[_FIXTURE])
    @given(
        estimators=st.lists(_ESTIMATOR_ROWS, max_size=4),
        witnesses=st.lists(_WITNESS_ROWS, max_size=3),
        thresholds=_settings(CategoryThresholds),
        tolerances=_settings(Tolerances),
        tool_version=_TEXT,
        dim=st.integers(2, 10**6),
    )
    def test_random_records_round_trip(
        self, tmp_path, estimators, witnesses, thresholds, tolerances, tool_version, dim
    ):
        report = ReportFile(
            tool_version, "sha256:" + "f" * 64, dim, thresholds,
            tuple(estimators), tuple(witnesses), tolerances,
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_report(report, a)
        back = load_report(a, validate=False)
        records = zip(
            (back.thresholds, back.tolerances, *back.estimators, *back.nonclassicality),
            (thresholds, tolerances, *estimators, *witnesses),
        )
        for got, want in records:
            assert type(got) is type(want)
            for f in dataclasses.fields(want):
                got_value, want_value = getattr(got, f.name), getattr(want, f.name)
                assert type(got_value) is type(want_value) and got_value == want_value, f.name
        assert back == report
        save_report(back, b)
        assert a.read_bytes() == b.read_bytes()

    @settings(max_examples=150, deadline=None, suppress_health_check=[_FIXTURE])
    @given(data=st.data())
    def test_any_type_tamper_is_a_format_error(self, tmp_path, witness_report_path, data):
        """A value of a type its field does not take, in any row or settings block, exits 4.

        Every such value is refused by the reader before any row is checked.
        Value tampers that keep the type are left to the row checks, and some
        of them only a replay of the measurement file (a future ``verify
        --povm``) can catch:
        - a ``target`` label changed to another valid spec, such as ``fock:2``;
        - an ``outcome`` label renamed the same way in its estimator and
          witness rows, or ``input_digest`` or ``tool_version`` changed;
        - projectivity, ideality, trace weight, fidelity and detectivity moved
          together so that both identities, every range and the category hold.
          It is caught only in a report with two or more targets, whose rows
          of one outcome must agree on projectivity, ideality, trace weight
          and category, and only when not all of them are moved alike; with
          one target it is still left for the replay;
        - ``gaussianity`` switched between ``Gaussian`` and ``Undetermined``,
          or ``squeezing_witness`` flipped where negativity already fires.
        """
        doc = json.loads(witness_report_path.read_text())
        blocks = ["estimators", "nonclassicality", "thresholds", "tolerances"]
        block = data.draw(st.sampled_from(blocks))
        cls = dict(zip(blocks, _RECORDS))[block]
        entry = doc[block]
        if isinstance(entry, list):
            entry = entry[data.draw(st.integers(0, len(entry) - 1))]
        key, field_type = data.draw(st.sampled_from(sorted(_field_types(cls).items())))
        value = data.draw(st.sampled_from([v for v in _JSON_KINDS if not _takes(field_type, v)]))
        entry[key] = value
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PovmFormatError, match=repr(key)):
            load_report(path, validate=False)
        assert main(["verify", str(path)]) == 4


_GRIDS = [PhaseSpaceGrid.symmetric(4.0, 31), PhaseSpaceGrid(-1.0, 4.0, -3.0, 2.0, 23, 17)]


class TestWignerGridFiles:
    def test_values_survive_exactly(self, tmp_path):
        state = np.outer(fock_state(1, 15), fock_state(1, 15))
        wg = wigner(state, PhaseSpaceGrid.symmetric(3.5, 21))
        path = tmp_path / "w.dat"
        write_wigner_grid(wg, path, source_digest="sha256:abc", outcome_label="1")
        back = read_wigner_grid(path)
        assert back.grid == wg.grid
        np.testing.assert_array_equal(back.values, wg.values)

    def test_grid_built_from_numpy_scalars_reads_back(self, tmp_path):
        # the header holds plain numbers, not "np.float64(-2.0)"
        grid = PhaseSpaceGrid(np.float64(-2.0), np.float32(2.0), -2, 2.0, np.int64(5), 5)
        wg = wigner(np.outer(fock_state(1, 8), fock_state(1, 8)), grid)
        path = tmp_path / "w.dat"
        write_wigner_grid(wg, path)
        assert "# x_axis: -2.0 2.0 5\n# p_axis: -2.0 2.0 5\n" in path.read_text()
        assert read_wigner_grid(path).grid == grid

    def test_file_is_loadtxt_compatible(self, tmp_path):
        state = np.outer(fock_state(0, 8), fock_state(0, 8))
        wg = wigner(state, PhaseSpaceGrid.symmetric(2.0, 5))
        path = tmp_path / "w.dat"
        write_wigner_grid(wg, path)
        data = np.loadtxt(path)
        assert data.shape == (25, 3)
        # first row is the (x_min, p_min) corner
        np.testing.assert_allclose(data[0, :2], [-2.0, -2.0])

    @pytest.mark.parametrize(
        "grid, state",
        [(grid, state) for state in ("fock", "dense") for grid in _GRIDS],
        ids=["grid0", "grid1", "grid0-dense", "grid1-dense"],
    )
    def test_bytes_match_savetxt(self, tmp_path, grid, state):
        if state == "fock":
            rho = np.outer(fock_state(3, 30), fock_state(3, 30))
        else:
            rho = random_density(np.random.default_rng(17), 16)
        wg = wigner(rho, grid)
        _assert_written_as_savetxt(tmp_path, wg)  # as the kernel made it
        values = wg.values.copy()
        values[0, :3] = [0.0, -0.0, 5e-324]  # signed zero and a subnormal
        distinct = np.unique(values.view(np.int64)).size
        if state == "dense":  # every value distinct
            assert distinct == values.size
        elif grid.n_x == grid.n_p:  # a centred grid: one value per radius, each repeated
            assert 2 * distinct <= values.size
        _assert_written_as_savetxt(tmp_path, WignerGrid(grid=grid, values=values))

    @pytest.mark.parametrize("n_x, n_p", [(97, 100), (3, 5000)], ids=["partial-block", "wide-rows"])
    def test_grids_that_end_inside_a_block_match_savetxt(self, tmp_path, n_x, n_p):
        # 4096 // 100 = 40 x rows a block, so the last block holds 17; a row of
        # 5000 points is a block of its own, its values formatted in two parts.
        grid = PhaseSpaceGrid(-1.0, 2.0, -0.5, 0.5, n_x, n_p)
        values = np.random.default_rng(5).normal(scale=0.1, size=(n_x, n_p))
        _assert_written_as_savetxt(tmp_path, WignerGrid(grid=grid, values=values))

    @settings(max_examples=80, deadline=None, suppress_health_check=[_FIXTURE])
    @given(data=st.data())
    def test_any_finite_values_write_as_savetxt_and_read_back(self, tmp_path, data):
        lo = data.draw(st.tuples(_EXTENT, _EXTENT))
        width = data.draw(st.tuples(_WIDTH, _WIDTH))
        shape = data.draw(st.tuples(st.integers(2, 9), st.integers(2, 9)))
        grid = PhaseSpaceGrid(lo[0], lo[0] + width[0], lo[1], lo[1] + width[1], *shape)
        pooled = data.draw(st.booleans())
        values = data.draw(arrays(float, shape, elements=_W_POOL if pooled else _PARTS))
        wg = WignerGrid(grid=grid, values=values)
        path = _assert_written_as_savetxt(tmp_path, wg)
        back = read_wigner_grid(path)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, values)
        np.testing.assert_array_equal(np.signbit(back.values), np.signbit(values))

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    @settings(max_examples=60, deadline=None, suppress_health_check=[_FIXTURE])
    @given(data=st.data())
    def test_any_kernel_grid_writes_as_savetxt(self, monkeypatch, tmp_path, data):
        # A diagonal state's grid is radial and has one W formatted per radius,
        # a dense state's one per point; both must give np.savetxt's bytes.
        dim = data.draw(st.integers(2, 24), label="dim")
        diagonal = data.draw(st.booleans(), label="diagonal")
        if diagonal:
            weights = data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0),
                                         min_size=dim, max_size=dim).filter(lambda w: sum(w) > 0))
            rho = np.diag(np.array(weights) / sum(weights))
        else:
            rho = random_density(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), dim)
        half = data.draw(st.tuples(st.floats(0.5, 6.0), st.floats(0.5, 6.0)), label="half-widths")
        centre = (0.0, 0.0) if data.draw(st.booleans(), label="centred") else data.draw(
            st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), label="centre")
        shape = data.draw(st.tuples(st.integers(2, 64), st.integers(2, 64)), label="shape")
        grid = PhaseSpaceGrid(centre[0] - half[0], centre[0] + half[0],
                              centre[1] - half[1], centre[1] + half[1], *shape)
        wg = wigner(rho, grid)
        radii = phasespace._cached_geometry(grid).radii.size
        assert _formatted(monkeypatch, tmp_path, wg) == (radii if diagonal else wg.values.size)

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    @pytest.mark.parametrize("edit", ["changed", "signed-zero"])
    def test_kernel_grid_edited_after_the_kernel_writes_its_values(self, monkeypatch, tmp_path, edit):
        # Past x^2 + p^2 = 745 the vacuum's W underflows to +0.0, which
        # equals -0.0 but has other bits: the writer must compare bits.  The
        # edited point (i, j) shares its radius with its mirror (j, i), which keeps
        # the kernel's value, so the grid is no longer radial.
        grid = PhaseSpaceGrid(0.0, 30.0, 0.0, 30.0, 31, 31)
        wg = wigner(np.diag([1.0, 0.0]), grid)
        radii = phasespace._cached_geometry(grid).radii.size
        assert _formatted(monkeypatch, tmp_path, wg) == radii < wg.values.size
        i, j = (3, 5) if edit == "changed" else (30, 29)
        assert wg.values[i, j] == wg.values[j, i] and (edit == "changed") != (wg.values[i, j] == 0.0)
        wg.values[i, j] = wg.values[i, j] + 1e-3 if edit == "changed" else -0.0
        assert _formatted(monkeypatch, tmp_path, wg) == wg.values.size
        path = tmp_path / "w.dat"
        row = path.read_text().splitlines()[6 + i * grid.n_p + j]
        assert row.split()[2] == ("-0" if edit == "signed-zero" else "%.17g" % wg.values[i, j])
        assert read_wigner_grid(path).values[i, j] == wg.values[i, j]

    def test_radial_grid_writes_the_same_after_its_geometry_is_evicted(self, tmp_path):
        grid = PhaseSpaceGrid.symmetric(4.0, 41)
        wg = wigner(retrodicted_state(lossy_pnr(0.7, 16).outcome("1")).state, grid)
        before = _assert_written_as_savetxt(tmp_path, wg).read_bytes()
        _evict(grid)
        misses = phasespace._cached_geometry.cache_info().misses
        assert _assert_written_as_savetxt(tmp_path, wg).read_bytes() == before
        assert phasespace._cached_geometry.cache_info().misses == misses + 1  # rebuilt to write

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    @pytest.mark.parametrize("case", ["diagonal", "dense", "read-back", "copied", "evicted"])
    def test_radial_grid_formats_one_w_per_radius(self, monkeypatch, tmp_path, case):
        # Were the writer to format every point again, no output would change:
        # the count of values handed to the formatter is what shows it.  A grid
        # is radial by its values alone, however it was made.
        grid = PhaseSpaceGrid.symmetric(6.0, 201)
        radii = phasespace._cached_geometry(grid).radii.size
        if case == "dense":
            wg = wigner(random_density(np.random.default_rng(3), 16), grid)
        else:
            wg = wigner(retrodicted_state(lossy_pnr(0.7, 16).outcome("1")).state, grid)
        if case == "read-back":
            write_wigner_grid(wg, tmp_path / "kernel.dat")
            wg = read_wigner_grid(tmp_path / "kernel.dat")
        elif case == "copied":
            wg = WignerGrid(grid, wg.values.copy())
        elif case == "evicted":
            _evict(grid)
        assert _formatted(monkeypatch, tmp_path, wg) == (wg.values.size if case == "dense" else radii)
        assert radii < wg.values.size / 4

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    @pytest.mark.parametrize("state", ["radial", "dense"])
    def test_a_grid_sends_few_values_to_cpython(self, monkeypatch, tmp_path, state):
        # Were the formatter to hand most W values back, writing would slow to
        # CPython's per-value %.17g without any output changing.
        if state == "radial":
            rho = retrodicted_state(lossy_pnr(0.7, 60).outcome("3")).state
        else:
            rho = random_density(np.random.default_rng(24), 24)
        grid = PhaseSpaceGrid.symmetric(6.0, 201)
        wg = wigner(rho, grid)
        seen, by_cpython = [], fileio._by_cpython

        def spy(values, shortest):
            seen.extend(values)
            return by_cpython(values, shortest)

        monkeypatch.setattr(fileio, "_by_cpython", spy)
        formatted = _formatted(monkeypatch, tmp_path, wg)
        radii = phasespace._cached_geometry(grid).radii.size
        assert formatted == (wg.values.size if state == "dense" else radii)
        assert len(seen) < 0.01 * formatted

    @pytest.mark.parametrize(
        "values",
        [np.zeros((3, 3), complex), np.zeros(9), np.zeros((3, 3), object), np.zeros((2, 2))],
        ids=["complex", "flat", "object", "wrong-size"],
    )
    def test_malformed_values_are_refused_where_they_enter(self, tmp_path, values):
        path = _small_grid_file(tmp_path)
        before = path.read_bytes()
        grid = PhaseSpaceGrid.symmetric(1.0, 3)
        with pytest.raises(ValueError, match=re.escape("real array of shape (3, 3)")):
            write_wigner_grid(WignerGrid(grid=grid, values=values), path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_values_are_refused_before_the_file_is_opened(self, tmp_path, value):
        path = _small_grid_file(tmp_path)
        before = path.read_bytes()
        values = np.zeros((3, 3))
        values[1, 1] = value
        grid = WignerGrid(grid=PhaseSpaceGrid.symmetric(1.0, 3), values=values)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ": non-finite Wigner values"):
            write_wigner_grid(grid, path)
        assert path.read_bytes() == before

    def test_missing_headers_rejected(self, tmp_path):
        path = tmp_path / "w.dat"
        path.write_text("# no axes here\n0 0 0.5\n")
        with pytest.raises(PovmFormatError, match="axis"):
            read_wigner_grid(path)

    @pytest.mark.parametrize(
        "header", ["x_axis: -1.0 1.0", "x_axis: -1.0 one 3", "x_axis: -1.0 1.0 3.5"],
        ids=["two-fields", "not-a-number", "fractional-points"],
    )
    def test_malformed_axis_header_rejected(self, tmp_path, header):
        path = _small_grid_file(tmp_path)
        path.write_text(path.read_text().replace("x_axis: -1.0 1.0 3", header))
        with pytest.raises(PovmFormatError, match=re.escape(str(path)) + ".*x_axis"):
            read_wigner_grid(path)

    @pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, tmp_path, word):
        path = _small_grid_file(tmp_path)
        _set_in_last_row(path, 2, word)
        with pytest.raises(PovmFormatError, match=re.escape(str(path)) + ".*non-finite"):
            read_wigner_grid(path)

    @pytest.mark.parametrize("column", [0, 1], ids=["x", "p"])
    def test_columns_off_the_header_axes_rejected(self, tmp_path, column):
        path = _small_grid_file(tmp_path)
        _set_in_last_row(path, column, repr([1.0, 0.5][column] + 1e-12))  # last x, last p
        with pytest.raises(PovmFormatError, match=re.escape(str(path)) + ".*axis headers"):
            read_wigner_grid(path)

    @pytest.mark.parametrize("edit", ["dropped", "added"])
    def test_a_row_count_off_the_headers_rejected(self, tmp_path, edit):
        path = _small_grid_file(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1] if edit == "dropped" else lines + lines[-1:]))
        shape = (5, 3) if edit == "dropped" else (7, 3)
        message = f"{path}: expected 6 rows of 3 columns, got {shape}"
        with pytest.raises(PovmFormatError, match="^" + re.escape(message) + "$"):
            read_wigner_grid(path)

    def test_grid_the_header_cannot_describe_rejected(self, tmp_path):
        path = _small_grid_file(tmp_path)
        path.write_text(path.read_text().replace("x_axis: -1.0 1.0 3", "x_axis: 1.0 -1.0 3"))
        with pytest.raises(PovmFormatError, match=re.escape(str(path)) + ".*extents"):
            read_wigner_grid(path)


def _g17_texts(values) -> list:
    """The texts of ``fileio._g17``, each row with its NULs dropped."""
    return [row.tobytes().replace(b"\0", b"") for row in fileio._g17(np.asarray(values, float))]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# The double below 1, 1.0 and the six above it: the diagonal entries that
# ideal and lossy detectors and eigh-built rest elements hold.
_ONE_AND_ABOVE = [float(np.nextafter(1.0, 0.0)), *(1.0 + n * 2.0**-52 for n in range(7))]


class TestPercent17g:
    """``fileio._g17`` gives the bytes of ``b"%.17g" % v`` for every finite double."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.integers(1, 40), elements=_FINITE))
    def test_any_finite_double(self, values):
        assert _g17_texts(values) == [b"%.17g" % v for v in values.tolist()]

    def test_a_million_random_bit_patterns(self):
        bits = np.random.default_rng(2010).integers(0, 2**64, 1_050_000, dtype=np.uint64)
        values = bits.view(float)
        values = values[np.isfinite(values)]  # both signs, every exponent
        assert values.size > 10**6 and (values < 0).any() and (values > 0).any()
        rows = np.zeros((values.size, fileio._G17_WIDTH + 1), np.uint8)
        rows[:, :-1], rows[:, -1] = fileio._g17(values), ord("\n")
        expected = "\n".join(["%.17g"] * values.size) % tuple(values.tolist()) + "\n"
        assert rows.tobytes().translate(None, b"\0").decode() == expected

    @pytest.mark.parametrize(
        "value",
        [
            0.0, 5e-324, 1.7976931348623157e308,
            -2.2250738585072014e-308,  # the longest text, 24 bytes
            1e-14, 1e-79,  # 17 digits round up to 10**17: the next decade
            0.0001, 9.999999999999999e-05, 1e-05,  # fixed notation to k = -4, then exponent
            1e16, 12345678901234568.0, 1e17, 1.2345678901234568e17,  # fixed to k = 16
            2.0**-25, 123456789012345.625,  # exact ties, rounded half to even
            0.5, 123.0, 100.5, 1e22, 9.5,
            # the last decade the formatter takes, and the first it leaves
            *_ONE_AND_ABOVE, 9.999999999999998,
            # and the next decade's edges
            float(np.nextafter(10.0, 0.0)), 10.0, float(np.nextafter(10.0, 20.0)),
            99.99999999999999,
        ],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+", "-"])
    def test_edge_values(self, value, sign):
        assert _g17_texts([sign * value]) == [b"%.17g" % (sign * value)]

    def test_a_log10_one_ulp_low_still_gives_the_text(self, monkeypatch):
        # Such a log10 puts the carries 1e-14 and 1e-79 in their true decade,
        # where 17 digits round up to 10**17: CPython must format them.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
        values = [10.0**n for n in range(-300, 300)] + [1e-14, 1e-79, 0.1, 0.3, 123.456]
        values += [float(np.nextafter(v, d)) for v in values for d in (0.0, np.inf)]
        assert _g17_texts(values) == [b"%.17g" % v for v in values]

    def test_powers_of_two_and_ten(self):
        # Exact products, ties among them, and every decade's edge.
        values = [2.0**n for n in range(-1074, 1024)] + [10.0**n for n in range(-323, 309)]
        values += [float(np.nextafter(v, d)) for v in values for d in (0.0, np.inf)]
        values = np.array([v for v in values if np.isfinite(v)])
        assert _g17_texts(values) == [b"%.17g" % v for v in values.tolist()]


def _r17_texts(values) -> list:
    """The texts of ``fileio._r17``, each row with its NULs dropped."""
    return [row.tobytes().replace(b"\0", b"") for row in fileio._r17(np.asarray(values, float))]


def _neighbours(values) -> np.ndarray:
    """``values`` and the doubles on either side of each, the finite ones."""
    values = np.asarray(values, float)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return values[np.isfinite(values)]


class TestRepr:
    """``fileio._r17`` gives the bytes of ``repr(v)``, the JSON encoder's float text."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.integers(1, 40), elements=_FINITE))
    def test_any_finite_double(self, values):
        assert _r17_texts(values) == [repr(v).encode() for v in values.tolist()]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(1983).integers(0, 2**64, 100_000, dtype=np.uint64)
        values = bits.view(float)
        values = values[np.isfinite(values)]  # both signs, every exponent
        rows = np.zeros((values.size, fileio._G17_WIDTH + 1), np.uint8)
        rows[:, :-1], rows[:, -1] = fileio._r17(values), ord("\n")
        expected = "\n".join(map(repr, values.tolist())) + "\n"
        assert rows.tobytes().translate(None, b"\0").decode() == expected

    @pytest.mark.parametrize(
        "value",
        [
            0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
            1e16, 9999999999999998.0, 1e15, 1234567890123456.8,  # fixed notation to 1e16
            1e-5, 0.0001, 9.999999999999999e-05,  # and from 1e-4
            0.1 + 0.2, 0.1, 1 / 3, 2 / 3, 100.0, 123.0, 5.0, 9.5, 1e22, 1e23,
            1e-14, 1e-79,  # just below a power of ten: log10 gives the next decade
            # the last decade the formatter takes, and the first it leaves
            *_ONE_AND_ABOVE, 9.999999999999998,
            # and the next decade's edges
            float(np.nextafter(10.0, 0.0)), 10.0, float(np.nextafter(10.0, 20.0)),
            99.99999999999999,
        ],
    )
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+", "-"])
    def test_edge_values(self, value, sign):
        assert _r17_texts([sign * value]) == [repr(sign * value).encode()]

    def test_powers_of_two_and_ten(self):
        # A power of two's lower gap is half its upper one; a power of ten is
        # one digit, whose double lies just above or below it.
        values = [2.0**n for n in range(-1074, 1024)] + [10.0**n for n in range(-323, 309)]
        values = _neighbours(values)
        assert _r17_texts(values) == [repr(v).encode() for v in values.tolist()]

    def test_short_decimals_and_their_neighbours(self):
        # Few digits, which the shortest search shortens furthest.
        digits = (1, 2, 5, 9, 25, 123, 999, 1001, 4503599627370497, 9999999999999999)
        values = _neighbours([float(f"{d}e{e}") for d in digits for e in range(-300, 300)])
        assert _r17_texts(values) == [repr(v).encode() for v in values.tolist()]

    def test_a_log10_one_ulp_low_still_gives_the_text(self, monkeypatch):
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), -np.inf))
        values = _neighbours([10.0**n for n in range(-300, 300)] + [1e-14, 1e-79, 0.1, 0.3, 123.456])
        assert _r17_texts(values) == [repr(v).encode() for v in values.tolist()]

    def test_a_dense_matrix_sends_few_values_to_cpython(self, monkeypatch):
        # Were the formatter to hand most values back, saving would slow to
        # CPython's per-value repr without any output changing.
        seen, by_cpython = [], fileio._by_cpython

        def spy(values, shortest):
            seen.extend(values)
            return by_cpython(values, shortest)

        monkeypatch.setattr(fileio, "_by_cpython", spy)
        m = random_density(np.random.default_rng(60), 60)
        assert _matrix_to_pairs([m]) == [_encoded_rows(m)]
        assert len(seen) < 0.02 * 2 * m.size


# Grid extents and widths for the round-trip property, and a pool of W values
# that repeat.
_EXTENT = st.floats(-10.0, 10.0)
_WIDTH = st.floats(1e-3, 20.0)
_W_POOL = st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 0.1, -1 / np.pi])


def _small_grid_file(tmp_path):
    """A 3 x 2 grid file over x in [-1, 1], p in [0, 0.5]."""
    path = tmp_path / "small.dat"
    grid = PhaseSpaceGrid(-1.0, 1.0, 0.0, 0.5, 3, 2)
    write_wigner_grid(WignerGrid(grid=grid, values=np.arange(6.0).reshape(3, 2) / 10), path)
    return path


def _set_in_last_row(path, column, text):
    """Replace one field of a grid file's last ``x p W`` row."""
    lines = path.read_text().splitlines(keepends=True)
    cols = lines[-1].split()
    cols[column] = text
    lines[-1] = " ".join(cols) + "\n"
    path.write_text("".join(lines))


def _evict(grid):
    """Fill the geometry cache with eight other grids, evicting ``grid``'s geometry."""
    for n in range(phasespace._GEOMETRIES):
        other = PhaseSpaceGrid.symmetric(1.0 + n, 5)
        assert other != grid
        phasespace._cached_geometry(other)


def _formatted(monkeypatch, tmp_path, wg):
    """Write ``wg`` as ``np.savetxt`` would; return how many W values ``fileio._g17`` formatted."""
    sizes, g17 = [], fileio._g17
    with monkeypatch.context() as m:
        m.setattr(fileio, "_g17", lambda v: sizes.append(np.size(v)) or g17(v))
        _assert_written_as_savetxt(tmp_path, wg)
    return sum(sizes)


def _assert_written_as_savetxt(tmp_path, wg):
    """Write ``wg`` and require the bytes ``np.savetxt`` gives; return the path."""
    grid = wg.grid
    path = tmp_path / "w.dat"
    write_wigner_grid(wg, path, source_digest="sha256:abc", outcome_label="3")
    rows = np.column_stack(
        [np.repeat(grid.x_axis, grid.n_p), np.tile(grid.p_axis, grid.n_x), wg.values.reshape(-1)]
    )
    header = "\n".join(
        [
            "qdetchar wigner grid",
            f"convention: {CONVENTION}",
            "source: sha256:abc outcome: 3",
            f"x_axis: {grid.x_min!r} {grid.x_max!r} {grid.n_x}",
            f"p_axis: {grid.p_min!r} {grid.p_max!r} {grid.n_p}",
            "columns: x p wigner",
        ]
    )
    reference = tmp_path / "savetxt.dat"
    np.savetxt(reference, rows, fmt="%.17g", header=header)
    assert path.read_bytes() == reference.read_bytes()
    return path


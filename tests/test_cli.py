"""End-to-end command-line tests; every invocation goes through main()."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest
from conftest import (
    ANY_JSON, ENSEMBLE_SITES, MEASUREMENT_SITES, every_edge_at_every_site, mutated,
    random_dense_povm,
)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qdetchar
from qdetchar import (
    Povm,
    PovmElement,
    ProbeEnsemble,
    ProbeEntry,
    ReportValidationError,
    fock_state,
    load_povm,
    load_report,
    read_wigner_grid,
    save_ensemble,
    save_povm,
    uniform_fock_ensemble,
)
from qdetchar import cli, retrodiction
from qdetchar.cli import build_parser, main, parse_target
from qdetchar.detectors import lossy_pnr, on_off_apd


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseTarget:
    def test_kinds(self):
        label, ket = parse_target("fock:2", 6)
        assert label == "fock:2" and abs(ket[2]) == 1.0
        _, ket = parse_target("coherent:0.5,-0.25", 30)
        np.testing.assert_allclose(abs(ket[0]) ** 2, np.exp(-(0.5**2 + 0.25**2)), atol=1e-9)
        _, ket = parse_target("squeezed:0.3", 30)
        assert ket[1] == 0.0

    def test_rejects_malformed(self):
        for bad in ("fock", "coherent:1", "thermal:2", "fock:x"):
            with pytest.raises(ValueError):
                parse_target(bad, 10)


_PROJECTOR_FLAGS = "scaled-projector requires --target and --zeta"


class TestModel:
    def test_each_kind_writes_a_loadable_file(self, tmp_path, capsys):
        cases = [
            (["model", "ideal-pnr", "--dim", "6"], "5"),
            (["model", "lossy-pnr", "--dim", "6", "--eta", "0.7"], "5"),
            (["model", "apd", "--dim", "6", "--eta", "0.5", "--nu", "0.01"], "on"),
            (
                [
                    "model",
                    "scaled-projector",
                    "--dim",
                    "6",
                    "--target",
                    "fock:1",
                    "--zeta",
                    "0.3",
                ],
                "rest",
            ),
        ]
        for argv, expected_label in cases:
            out_path = tmp_path / (argv[1] + ".json")
            code, out, _ = run(capsys, *argv, "--out", str(out_path))
            assert code == 0
            assert "wrote" in out
            povm = load_povm(out_path)
            assert expected_label in povm.labels
            assert povm.metadata["model"] == argv[1]

    def test_missing_model_parameter_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "model", "lossy-pnr", "--dim", "6", "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "eta" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lossy-pnr"], "lossy-pnr requires --eta"),
            (["apd", "--nu", "0.1"], "apd requires --eta"),
            (["scaled-projector"], _PROJECTOR_FLAGS),
            (["scaled-projector", "--target", "fock:1"], _PROJECTOR_FLAGS),
            (["scaled-projector", "--zeta", "0.5"], _PROJECTOR_FLAGS),
        ],
        ids=["lossy-pnr", "apd", "scaled-projector", "without-zeta", "without-target"],
    )
    def test_missing_flag_names_every_required_flag(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "model", *argv, "--dim", "6", "--out", str(out))
        assert code == 2 and err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ideal-pnr", "--eta", "0.5"], "ideal-pnr does not use --eta"),
            (
                ["lossy-pnr", "--eta", "0.5", "--nu", "0.3", "--zeta", "0.2"],
                "lossy-pnr does not use --nu or --zeta",
            ),
            (["apd", "--eta", "0.5", "--target", "fock:1"], "apd does not use --target"),
            (
                ["scaled-projector", "--target", "fock:1", "--zeta", "0.5", "--nu", "0"],
                "scaled-projector does not use --nu",
            ),
        ],
        ids=["ideal-pnr", "lossy-pnr", "apd", "scaled-projector"],
    )
    def test_flag_the_kind_does_not_use_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "model", *argv, "--dim", "6", "--out", str(out))
        assert code == 2 and err == f"error: {message}\n"
        assert not out.exists()

    def test_dim_whose_weights_overflow_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["model", "lossy-pnr", "--dim", "1031", "--eta", "0.5", "--out", str(out)]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error: dim 1031: binomial weight")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, metadata",
        [
            (["ideal-pnr"], {}),
            (["lossy-pnr", "--eta", "0.25"], {"eta": "0.25"}),
            (["apd", "--eta", "1e-3"], {"eta": "0.001", "nu": "0.0"}),
            (["apd", "--nu", "0.01", "--eta", "1"], {"eta": "1.0", "nu": "0.01"}),
            (
                ["scaled-projector", "--zeta", ".5", "--target", "coherent:0.5,-0.25"],
                {"target": "coherent:0.5,-0.25", "zeta": "0.5"},
            ),
        ],
        ids=["ideal-pnr", "lossy-pnr", "apd", "apd-with-nu", "scaled-projector"],
    )
    def test_metadata_records_each_flag_in_order(self, tmp_path, capsys, argv, metadata):
        out = tmp_path / "x.json"
        assert run(capsys, "model", *argv, "--dim", "6", "--out", str(out))[0] == 0
        expected = {"model": argv[0], "dim": "6", **metadata}
        assert list(load_povm(out).metadata.items()) == list(expected.items())


@pytest.fixture
def apd_file(tmp_path):
    path = tmp_path / "apd.json"
    save_povm(on_off_apd(0.5, 0.0, 12), path)
    return path


class TestCharacterize:
    @pytest.mark.parametrize("radius", ["inf", "1e200"])
    def test_grid_that_cannot_be_evaluated_exits_2(self, apd_file, tmp_path, capsys, radius):
        out = tmp_path / "r.json"
        argv = ["characterize", str(apd_file), "--witnesses", "--grid-radius", radius]
        code, _, err = run(capsys, *argv, "--out", str(out))
        r = float(radius)
        assert code == 2
        assert err.startswith(f"error: grid x [{-r}, {r}], p [{-r}, {r}]: extents")
        assert sorted(tmp_path.iterdir()) == [apd_file]

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    def test_far_grid_reports_the_truth(self, tmp_path, capsys):
        # Clenshaw's sum overflowed to nan at radius 1000 and the run exited
        # 2; the Laguerre table starts each radius at its own power of two, so
        # each outcome's report reads its 60-digit truth on all 121 points
        path = tmp_path / "pnr60.json"
        run(capsys, "model", "ideal-pnr", "--dim", "60", "--out", str(path))
        argv = ["characterize", str(path), "--witnesses", "--grid-points", "11"]
        ok = tmp_path / "r300.json"
        assert run(capsys, *argv, "--grid-radius", "300", "--out", str(ok))[0] == 0
        out = tmp_path / "r1000.json"
        assert run(capsys, *argv, "--grid-radius", "1000", "--out", str(out))[0] == 0
        axis = np.linspace(-1000.0, 1000.0, 11)
        rows = json.loads(out.read_text())["nonclassicality"]
        assert [row["outcome"] for row in rows] == [str(n) for n in range(60)]
        for n, row in enumerate(rows):
            # |n><n| is radial, so the truth at (|x|, |p|) serves all four signs
            near = {(x, p): oracles.fock_wigner(np.eye(60)[n], x, p) for x in axis[5:] for p in axis[5:]}
            w = np.array([[near[abs(x), abs(p)] for p in axis] for x in axis])
            assert w[5, 5] == (-1) ** n / np.pi and np.count_nonzero(w) == 1
            assert row["min_wigner"] == w.min()
            assert row["negativity_volume"] == pytest.approx(np.sum(np.abs(w) - w) * 200.0**2, rel=1e-15)

    def test_outcome_at_the_trace_floor_is_skipped(self, tmp_path, capsys):
        tiny = np.diag([5e-13, 0.0, 0.0, 0.0])
        povm = qdetchar.Povm(
            (qdetchar.PovmElement("tiny", tiny), qdetchar.PovmElement("rest", np.eye(4) - tiny))
        )
        path, out = tmp_path / "tiny.json", tmp_path / "report.json"
        save_povm(povm, path)
        code, _, err = run(capsys, "characterize", str(path), "--out", str(out))
        assert code == 0
        assert "skipping null outcome 'tiny'" in err
        assert [r.outcome_label for r in load_report(out).estimators] == ["rest"]

    def test_report_and_stdout(self, apd_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, text, _ = run(
            capsys,
            "characterize",
            str(apd_file),
            "--target",
            "fock:1",
            "--out",
            str(out),
        )
        assert code == 0
        assert "on: projectivity=" in text and "NonProjective" in text
        report = load_report(out)
        assert report.dim == 12
        assert report.input_digest.startswith("sha256:")
        by_label = {r.outcome_label: r for r in report.estimators}
        assert by_label["on"].category.value == "NonProjective"
        assert by_label["on"].fidelity is not None

    # the broad "on" retro state legitimately trips truncation warnings;
    # this test checks the report plumbing, not the witness physics
    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    def test_witness_rows_optional(self, tmp_path, capsys):
        povm_path = tmp_path / "apd40.json"
        save_povm(on_off_apd(0.5, 0.0, 40), povm_path)
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "characterize",
            str(povm_path),
            "--witnesses",
            "--grid-radius",
            "6",
            "--grid-points",
            "61",
            "--out",
            str(out),
        )
        assert code == 0
        report = load_report(out)
        assert {w.outcome_label for w in report.nonclassicality} == {"on", "off"}

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    def test_each_live_outcome_is_retrodicted_once(self, tmp_path, capsys, monkeypatch):
        checked = []
        check = retrodiction.assert_density_matrix

        def spy(rho, tols, what, least=None):
            checked.append(what)
            return check(rho, tols, what, least=least)

        monkeypatch.setattr(retrodiction, "assert_density_matrix", spy)
        path, out = tmp_path / "lossy.json", tmp_path / "report.json"
        povm = lossy_pnr(0.7, 12)
        save_povm(povm, path)
        argv = ["characterize", str(path), "--target", "fock:1", "--target", "coherent:1,0"]
        code, _, _ = run(capsys, *argv, "--witnesses", "--grid-points", "21", "--out", str(out))
        assert code == 0
        assert checked == [f"retrodicted state of {label!r}" for label in povm.labels]
        report = load_report(out)
        assert (len(report.estimators), len(report.nonclassicality)) == (24, 12)

    def test_null_outcomes_skipped_with_notice(self, tmp_path, capsys):
        povm_path = tmp_path / "blind.json"
        save_povm(lossy_pnr(0.0, 6), povm_path)
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "characterize", str(povm_path), "--out", str(out))
        assert code == 0
        assert "skipping null outcome" in err
        assert len(load_report(out).estimators) == 1

    def test_threshold_flag_reclassifies(self, apd_file, tmp_path, capsys):
        # the "on" outcome sits at projectivity 0.0933 for this dim;
        # dropping the threshold below that must flip its category
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "characterize",
            str(apd_file),
            "--projectivity-min",
            "0.09",
            "--out",
            str(out),
        )
        assert code == 0
        report = load_report(out)
        assert report.thresholds.projectivity_min == 0.09
        by_label = {r.outcome_label: r for r in report.estimators}
        assert by_label["on"].category.value == "ProjectiveNonIdeal"

    def test_threshold_env_override(self, apd_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QDETCHAR_PROJECTIVITY_MIN", "0.09")
        out = tmp_path / "report.json"
        code, text, _ = run(capsys, "characterize", str(apd_file), "--out", str(out))
        assert code == 0
        by_label = {r.outcome_label: r for r in load_report(out).estimators}
        assert by_label["on"].category.value == "ProjectiveNonIdeal"
        assert by_label["off"].category.value == "ProjectiveNonIdeal"

    @pytest.mark.parametrize(
        "labels, weight, message",
        [(("a", "b"), 0.75, "0.5"),
         (("0", "0"), 0.5, "error: {path}: outcome labels must be unique\n")],
        ids=["overcomplete", "repeated-label"],
    )
    def test_a_file_the_measurement_refuses_exits_2(self, tmp_path, capsys, labels, weight, message):
        # two elements summing to 2 * weight * identity
        el = [[[weight, 0.0], [0.0, 0.0]], [[0.0, 0.0], [weight, 0.0]]]
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": "1",
                    "dim": 2,
                    "guard_levels": 0,
                    "outcomes": [{"label": label, "matrix": el} for label in labels],
                }
            )
        )
        code, _, err = run(
            capsys, "characterize", str(path), "--out", str(tmp_path / "r.json")
        )
        assert code == 2
        assert message.format(path=path) in err

    def test_unparseable_file_exits_4(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{]")
        code, _, err = run(
            capsys, "characterize", str(path), "--out", str(tmp_path / "r.json")
        )
        assert code == 4
        assert "JSON" in err

    @pytest.mark.parametrize("digits", [400, 5000], ids=["beyond-float", "beyond-digit-limit"])
    def test_oversized_integer_exits_4(self, apd_file, tmp_path, capsys, digits):
        # an integer too large for a float used to escape as OverflowError, and
        # one past Python's integer digit limit as a bare ValueError (exit 2)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        message = "not valid JSON" if 0 < limit < digits else "outcomes[1]: entry (0,1)"
        doc = json.loads(apd_file.read_text())
        doc["outcomes"][1]["matrix"][0][1] = ["HUGE", 0]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * digits))
        code, _, err = run(capsys, "characterize", str(path), "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert err.startswith(f"error: {path}") and message in err
        assert not (tmp_path / "r.json").exists()

    def test_non_finite_entry_exits_4(self, apd_file, tmp_path, capsys):
        doc = json.loads(apd_file.read_text())
        doc["outcomes"][0]["matrix"][0][0] = ["NAN", 0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc).replace('"NAN"', "NaN"))
        code, _, err = run(capsys, "characterize", str(path), "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert err.startswith(f"error: {path}") and "outcomes[0]: entry (0,0) is not finite" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("text", ["5", '"report"', "[]", "null"])
    def test_file_that_is_not_a_json_object_exits_4(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        report = tmp_path / "r.json"
        for argv in (["characterize", str(path), "--out", str(report)], ["verify", str(path)]):
            code, _, err = run(capsys, *argv)
            assert code == 4
            assert "expected a JSON object" in err

    @pytest.mark.parametrize("encoding", ["latin-1", "utf-16"])
    def test_file_that_is_not_utf8_exits_4(self, apd_file, tmp_path, capsys, encoding):
        path = tmp_path / "bad.json"
        path.write_bytes(apd_file.read_text().replace("0.0", "0.0\u00e9", 1).encode(encoding))
        report = tmp_path / "r.json"
        for argv in (["characterize", str(path), "--out", str(report)], ["verify", str(path)]):
            code, _, err = run(capsys, *argv)
            assert code == 4
            assert err.startswith(f"error: {path}: not valid JSON") and "utf-8" in err
        assert not report.exists()

    @pytest.mark.parametrize("kind", ["measurement", "ensemble", "report"])
    def test_file_nested_past_the_recursion_limit_exits_4(self, apd_file, tmp_path, capsys, kind):
        # The parser's RecursionError escaped as a traceback (exit 1).
        nested = "[" * 100_000 + "]" * 100_000
        path = tmp_path / "deep.json"
        key = "outcomes" if kind == "measurement" else "entries"
        path.write_text(nested if kind == "report" else
                        f'{{"format_version": "1", "dim": 2, "{key}": {nested}}}')
        argv = {"measurement": ["characterize", str(path), "--out", str(tmp_path / "r.json")],
                "ensemble": ["retrodict", str(apd_file), "--outcome", "on", "--ensemble", str(path)],
                "report": ["verify", str(path)]}[kind]
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith(f"error: {path}: not valid JSON: maximum recursion depth exceeded")

    def test_missing_file_exits_4(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "characterize",
            str(tmp_path / "absent.json"),
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == 4


class TestMutatedMeasurementFiles:
    @pytest.fixture
    def canonical(self, tmp_path, capsys):
        path = tmp_path / "pnr.json"
        run(capsys, "model", "lossy-pnr", "--dim", "3", "--eta", "0.7", "--out", str(path))
        return path.read_text()

    # A dim-3 file is too small for the default grid and moments, by design:
    # the property is about exit codes.  Each example overwrites the same
    # files, so one tmp_path serves them all.
    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(site=st.sampled_from(MEASUREMENT_SITES), value=ANY_JSON)
    @every_edge_at_every_site(MEASUREMENT_SITES)
    def test_any_value_at_any_site_exits_with_a_code(
        self, tmp_path, capsys, canonical, site, value
    ):
        path, out = tmp_path / "mutated.json", tmp_path / "out"
        path.write_text(mutated(canonical, site, value))
        for argv in (
            ["characterize", str(path), "--out", str(out)],
            ["wigner", str(path), "--outcome", "1", "--nx", "5", "--np", "5", "--out", str(out)],
            ["herald", str(path), "--outcome", "1", "--lam", "0.3"],
        ):
            assert run(capsys, *argv)[0] in (0, 2, 3, 4), argv


class TestMutatedEnsembleFiles:
    @pytest.fixture
    def canonical(self, tmp_path):
        save_povm(lossy_pnr(0.7, 3), tmp_path / "pnr.json")
        save_ensemble(uniform_fock_ensemble(3), tmp_path / "ens.json")
        return (tmp_path / "ens.json").read_text()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(site=st.sampled_from(ENSEMBLE_SITES), value=ANY_JSON)
    @every_edge_at_every_site(ENSEMBLE_SITES)
    def test_any_value_at_any_site_exits_with_a_code(
        self, tmp_path, capsys, canonical, site, value
    ):
        path = tmp_path / "mutated.json"
        path.write_text(mutated(canonical, site, value))
        argv = ["retrodict", str(tmp_path / "pnr.json"), "--outcome", "1", "--ensemble", str(path)]
        assert run(capsys, *argv)[0] in (0, 2, 3, 4)


# Where a mutation puts its value in a saved `characterize --witnesses` report of
# lossy_pnr(0.7, 3): each header field, the thresholds and tolerances and one
# field of each, the estimator rows, one row and one of its fields, and the
# witness rows and one field of one of them.
_REPORT_SITES = [
    ("format_version",), ("tool",), ("tool_version",), ("input_digest",), ("dim",),
    ("thresholds",), ("thresholds", "projectivity_min"), ("tolerances",), ("tolerances", "norm"),
    ("estimators",), ("estimators", 1), ("estimators", 1, "projectivity"),
    ("nonclassicality",), ("nonclassicality", 1, "min_wigner"),
]


class TestMutatedReportFiles:
    @pytest.fixture
    def canonical(self, tmp_path):
        save_povm(lossy_pnr(0.7, 3), tmp_path / "pnr.json")
        report = tmp_path / "report.json"
        with pytest.warns(qdetchar.TruncationWarning):  # the default grid outruns dim 3
            assert main(["characterize", str(tmp_path / "pnr.json"), "--witnesses",
                         "--out", str(report)]) == 0
        return report.read_text()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(site=st.sampled_from(_REPORT_SITES), value=ANY_JSON)
    @every_edge_at_every_site(_REPORT_SITES)  # 10**400 at dim crashed the range checks
    def test_any_value_at_any_site_exits_with_a_code(
        self, tmp_path, capsys, canonical, site, value
    ):
        path = tmp_path / "mutated.json"
        path.write_text(mutated(canonical, site, value))
        assert run(capsys, "verify", str(path))[0] in (0, 2, 3, 4)


class TestTargetNumbers:
    @pytest.mark.parametrize(
        "target", ["coherent:1e200,0", "coherent:nan,0", "coherent:0,inf", "squeezed:inf"]
    )
    def test_non_finite_target_exits_2_and_writes_nothing(
        self, apd_file, tmp_path, capsys, target
    ):
        out = tmp_path / "out.json"
        for argv in (
            ["characterize", str(apd_file), "--target", target],
            ["model", "scaled-projector", "--dim", "12", "--zeta", "0.5", "--target", target],
        ):
            code, _, err = run(capsys, *argv, "--out", str(out))
            assert code == 2
            assert err.startswith(f"error: target {target!r}:") and "finite" in err
            assert not out.exists()


class TestEstimatorRoutes:
    """A POVM with ``weights`` gets its rows from them, any other one outcome at a time.

    Each case runs ``characterize`` twice: as it is, and with ``Povm.weights``
    read as ``None``, which sends any POVM down the per-outcome route.  Exit
    code, stdout, stderr and the report must match.
    """

    @staticmethod
    def both_routes(tmp_path, capsys, monkeypatch, povm, *flags):
        path = tmp_path / "povm.json"
        save_povm(povm, path)
        runs = []
        for route in ("weights", "per outcome"):
            out = tmp_path / f"{route}.json"
            with monkeypatch.context() as m:
                if route == "per outcome":
                    m.setattr(Povm, "weights", property(lambda self: None))
                code, text, err = run(capsys, "characterize", str(path), *flags, "--out", str(out))
            report = out.read_bytes() if out.exists() else None
            runs.append((code, text.replace(str(out), "OUT"), err, report))
        assert runs[0] == runs[1]
        return runs[0]

    def test_a_small_outcome_failing_its_state_check_is_refused_in_the_per_outcome_wording(
        self, tmp_path, capsys, monkeypatch
    ):
        # -5e-11 passes validation (psd 1e-10), but over a weight of 1e-3 the
        # retrodicted state's least eigenvalue is -5e-8
        small = np.diag([1e-3, -5e-11, 0.0, 0.0])
        zero = np.zeros((4, 4))
        povm = Povm((
            PovmElement("null a", zero), PovmElement("small", small),
            PovmElement("null b", zero), PovmElement("rest", np.eye(4) - small),
        ))
        code, text, err, report = self.both_routes(
            tmp_path, capsys, monkeypatch, povm, "--target", "fock:1"
        )
        assert code == 2 and text == "" and report is None
        assert err == (
            "skipping null outcome 'null a'\n"
            "error: retrodicted state of 'small': negative eigenvalue -5e-08 beyond 1e-10\n"
        )

    def test_an_imaginary_diagonal_entry_takes_the_per_outcome_route(self, tmp_path, capsys, monkeypatch):
        calls = []
        report = cli.estimator_report

        def spy(*args):
            calls.append(args[0].element.label)
            return report(*args)

        monkeypatch.setattr(cli, "estimator_report", spy)
        real = np.diag([0.5, 0.25, 0.125]).astype(complex)
        imaginary = real.copy()
        imaginary[1, 1] += 1e-12j  # a Hermiticity defect of 2e-12, within 1e-10
        for e, expected in ((real, []), (imaginary, ["a", "b"])):
            calls.clear()
            path, out = tmp_path / "povm.json", tmp_path / "report.json"
            save_povm(Povm((PovmElement("a", e), PovmElement("b", np.eye(3) - e))), path)
            assert (load_povm(path).weights is None) == bool(expected)
            assert run(capsys, "characterize", str(path), "--target", "fock:1", "--out", str(out))[0] == 0
            assert calls == expected

    # the one live state, I/3, trips the moments' truncation warning
    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    @pytest.mark.parametrize(
        "witnesses", [[], ["--witnesses", "--grid-points", "11"]], ids=["rows", "witnesses"]
    )
    def test_null_outcomes_print_one_notice_each_in_label_order(
        self, tmp_path, capsys, monkeypatch, witnesses
    ):
        zero = np.zeros((3, 3))
        labels = ["z", "live", "a", "m"]
        povm = Povm(tuple(PovmElement(label, np.eye(3) if label == "live" else zero) for label in labels))
        flags = ["--target", "fock:0", *witnesses]
        code, _, err, _ = self.both_routes(tmp_path, capsys, monkeypatch, povm, *flags)
        assert code == 0
        assert err == "".join(f"skipping null outcome {label!r}\n" for label in ("z", "a", "m"))


class TestWigner:
    def test_grid_and_sidecar(self, tmp_path, capsys):
        povm_path = tmp_path / "proj.json"
        run(
            capsys,
            "model",
            "scaled-projector",
            "--dim",
            "30",
            "--target",
            "fock:1",
            "--zeta",
            "1.0",
            "--out",
            str(povm_path),
        )
        out = tmp_path / "w.dat"
        code, text, _ = run(
            capsys,
            "wigner",
            str(povm_path),
            "--outcome",
            "hit",
            "--xmin",
            "-5",
            "--xmax",
            "5",
            "--pmin",
            "-5",
            "--pmax",
            "5",
            "--nx",
            "101",
            "--np",
            "101",
            "--out",
            str(out),
        )
        assert code == 0
        assert "min W" in text
        wg = read_wigner_grid(out)
        np.testing.assert_allclose(wg.min_value(), -1.0 / np.pi, atol=1e-6)
        sidecar_text = (tmp_path / "w.dat.report.json").read_text()
        sidecar = json.loads(sidecar_text)
        assert sidecar["witnesses"]["is_nonclassical"] is True
        assert sidecar["witnesses"]["gaussianity"] == "NonGaussian"
        assert sidecar_text == json.dumps(sidecar, indent=2) + "\n"

    @pytest.mark.parametrize("xmin", ["-inf", "-1e200", "nan"])
    def test_grid_that_cannot_be_evaluated_exits_2(self, apd_file, tmp_path, capsys, xmin):
        # -1e200 is finite, but x*x overflows to inf
        out = tmp_path / "w.dat"
        argv = ["wigner", str(apd_file), "--outcome", "on", f"--xmin={xmin}", "--xmax", "3"]
        code, _, err = run(capsys, *argv, "--nx", "5", "--np", "5", "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: grid x [{float(xmin)}, 3.0], p [-6.0, 6.0]: extents")
        assert sorted(tmp_path.iterdir()) == [apd_file]

    def test_far_grid_writes_the_truth(self, tmp_path, capsys):
        # 2*(x^2+p^2) is finite; Clenshaw's sum overflowed to nan here and
        # the run exited 2, while the Laguerre table reads the truth's zeros
        path, out = tmp_path / "a.json", tmp_path / "w.dat"
        run(capsys, "model", "apd", "--dim", "6", "--eta", "0.5", "--out", str(path))
        argv = ["wigner", str(path), "--outcome", "on", "--xmin=-1e100", "--xmax", "3"]
        with pytest.warns(qdetchar.TruncationWarning):
            code, _, err = run(capsys, *argv, "--nx", "5", "--np", "5", "--out", str(out))
        assert (code, err) == (0, "")
        grid = read_wigner_grid(out)
        weights = retrodiction.retrodicted_state(load_povm(path).outcome("on")).state.diagonal().real
        truth = [[oracles.fock_wigner(weights, x, p) for p in grid.grid.p_axis] for x in grid.grid.x_axis]
        assert not grid.values[:-1].any() and grid.values[-1].all()
        np.testing.assert_allclose(grid.values, truth, rtol=0, atol=oracles.EPS / np.pi)

    def test_grid_of_too_many_points_exits_2_before_allocating_it(self, apd_file, tmp_path, capsys):
        # 10**10 points: the geometry alone would need tens of GiB
        out = tmp_path / "w.dat"
        argv = ["wigner", str(apd_file), "--outcome", "on", "--nx", "100000", "--np", "100000"]
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith(
            "error: grid x [-6.0, 6.0], p [-6.0, 6.0]: 100000 x 100000 = 10000000000 points"
        )
        assert sorted(tmp_path.iterdir()) == [apd_file]

    def test_unknown_outcome_exits_2(self, apd_file, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "wigner",
            str(apd_file),
            "--outcome",
            "zzz",
            "--out",
            str(tmp_path / "w.dat"),
        )
        assert code == 2
        assert "zzz" in err


class TestHerald:
    @pytest.fixture
    def projector_file(self, tmp_path, capsys):
        path = tmp_path / "proj.json"
        run(
            capsys,
            "model",
            "scaled-projector",
            "--dim",
            "30",
            "--target",
            "fock:2",
            "--zeta",
            "1.0",
            "--out",
            str(path),
        )
        return path

    def test_scan_output(self, projector_file, tmp_path, capsys):
        out = tmp_path / "scan.dat"
        code, text, _ = run(
            capsys,
            "herald",
            str(projector_file),
            "--outcome",
            "hit",
            "--lam",
            "0.3",
            "--lam",
            "0.6",
            "--out",
            str(out),
        )
        assert code == 0
        assert "fidelity monotonic: True" in text
        content = out.read_text()
        assert "# fidelity_monotonic: true" in content
        data = np.loadtxt(out)
        assert data.shape == (2, 3)
        np.testing.assert_allclose(data[:, 1], 1.0, atol=1e-12)

    def test_scan_uses_the_files_dim_and_takes_no_dim_flag(self, projector_file, tmp_path, capsys):
        argv = ["herald", str(projector_file), "--outcome", "hit", "--lam", "0.3"]
        out = tmp_path / "scan.dat"
        assert run(capsys, *argv, "--out", str(out))[0] == 0
        assert " outcome: hit dim: 30\n" in out.read_text()
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--dim", "20"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dim 20" in capsys.readouterr().err

    def test_fat_tail_exits_3(self, projector_file, capsys):
        code, _, err = run(
            capsys,
            "herald",
            str(projector_file),
            "--outcome",
            "hit",
            "--lam",
            "0.999",
        )
        assert code == 3
        assert "increase dim" in err


class TestOneSpectrumPerElement:
    """A loaded dense element's spectrum is solved once, by validation, and read from then on."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The size of each matrix ``np.linalg.eigvalsh`` is given, in call order."""
        sizes, solve = [], np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(np.shape(a)[0])
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return sizes

    @staticmethod
    def dense_file(tmp_path, dim):
        elements = random_dense_povm(np.random.default_rng(dim), dim, 4)
        path = tmp_path / "dense.json"
        save_povm(Povm(tuple(PovmElement(f"e{k}", e) for k, e in enumerate(elements))), path)
        return path

    def test_a_herald_scan_solves_each_element_once(self, tmp_path, capsys, solves):
        path = self.dense_file(tmp_path, 20)
        lams = [f for k in range(1, 11) for f in ("--lam", str(0.05 * k))]
        assert run(capsys, "herald", str(path), "--outcome", "e1", *lams)[0] == 0
        assert solves == [20] * 4  # 15 before: validation, the limit and ten closed forms

    def test_characterize_solves_each_element_once(self, tmp_path, capsys, solves):
        path = self.dense_file(tmp_path, 12)
        argv = ["characterize", str(path), "--target", "fock:1", "--out", str(tmp_path / "r.json")]
        assert run(capsys, *argv)[0] == 0
        assert solves == [12] * 4  # 8 before: validation and each retrodicted state


class TestRetrodict:
    def test_posterior_roundtrip(self, tmp_path, capsys):
        povm_path = tmp_path / "pnr.json"
        ens_path = tmp_path / "ens.json"
        run(capsys, "model", "ideal-pnr", "--dim", "10", "--out", str(povm_path))
        save_ensemble(uniform_fock_ensemble(10), ens_path)
        out = tmp_path / "post.dat"
        code, text, _ = run(
            capsys,
            "retrodict",
            str(povm_path),
            "--outcome",
            "4",
            "--ensemble",
            str(ens_path),
            "--out",
            str(out),
        )
        assert code == 0
        assert "\n4: 1.000000000" in text
        assert "\n4 1.0" in out.read_text()

    @pytest.mark.parametrize(
        "norm_tol, excess, expected",
        [("1e-3", 1e-6, 0), (None, 1e-6, 2), ("1e-12", 1e-10, 2)],
    )
    def test_prior_sum_is_checked_under_the_tolerances_in_force(
        self, tmp_path, capsys, monkeypatch, norm_tol, excess, expected
    ):
        povm_path, ens_path = tmp_path / "pnr.json", tmp_path / "ens.json"
        run(capsys, "model", "ideal-pnr", "--dim", "3", "--out", str(povm_path))
        save_ensemble(uniform_fock_ensemble(3), ens_path)
        doc = json.loads(ens_path.read_text())
        doc["entries"][1]["prior"] += excess
        ens_path.write_text(json.dumps(doc))
        monkeypatch.delenv("QDETCHAR_NORM_TOL", raising=False)
        if norm_tol is not None:
            monkeypatch.setenv("QDETCHAR_NORM_TOL", norm_tol)
        argv = ["retrodict", str(povm_path), "--outcome", "1", "--ensemble", str(ens_path)]
        code, text, err = run(capsys, *argv)
        assert code == expected
        if expected == 0:
            assert "\n1: 1.000000000" in text
        else:
            assert err.startswith(f"error: {ens_path}: priors sum to 1.0000")

    def test_an_entry_that_is_not_a_state_exits_2(self, tmp_path, capsys):
        povm_path, ens_path = tmp_path / "pnr.json", tmp_path / "ens.json"
        run(capsys, "model", "ideal-pnr", "--dim", "3", "--out", str(povm_path))
        save_ensemble(uniform_fock_ensemble(3), ens_path)
        doc = json.loads(ens_path.read_text())
        doc["entries"][1]["matrix"][1][1] = [2.0, 0.0]
        ens_path.write_text(json.dumps(doc))
        argv = ["retrodict", str(povm_path), "--outcome", "1", "--ensemble", str(ens_path)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {ens_path}: entries[1]: trace 2.0 deviates from 1")

    def test_an_out_of_range_prior_names_the_file_and_entry(self, tmp_path, capsys):
        povm_path, ens_path = tmp_path / "pnr.json", tmp_path / "ens.json"
        run(capsys, "model", "ideal-pnr", "--dim", "3", "--out", str(povm_path))
        save_ensemble(uniform_fock_ensemble(3), ens_path)
        doc = json.loads(ens_path.read_text())
        doc["entries"][2]["prior"] = 1.5
        ens_path.write_text(json.dumps(doc))
        argv = ["retrodict", str(povm_path), "--outcome", "1", "--ensemble", str(ens_path)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: {ens_path}: entries[2]: prior must lie in [0, 1], got 1.5\n"

    def test_a_repeated_entry_label_exits_2_naming_the_file(self, tmp_path, capsys):
        povm_path, ens_path = tmp_path / "pnr.json", tmp_path / "ens.json"
        run(capsys, "model", "ideal-pnr", "--dim", "3", "--out", str(povm_path))
        save_ensemble(uniform_fock_ensemble(3), ens_path)
        doc = json.loads(ens_path.read_text())
        doc["entries"][1]["label"] = "0"
        ens_path.write_text(json.dumps(doc))
        argv = ["retrodict", str(povm_path), "--outcome", "1", "--ensemble", str(ens_path)]
        code, text, err = run(capsys, *argv)
        assert (code, text) == (2, "")
        assert err == f"error: {ens_path}: entry labels must be unique\n"

    def test_an_ensemble_of_another_dim_exits_2(self, tmp_path, capsys):
        povm_path, ens_path = tmp_path / "pnr.json", tmp_path / "ens.json"
        run(capsys, "model", "ideal-pnr", "--dim", "4", "--out", str(povm_path))
        save_ensemble(uniform_fock_ensemble(3), ens_path)
        argv = ["retrodict", str(povm_path), "--outcome", "1", "--ensemble", str(ens_path)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "ensemble dim 3 != measurement dim 4" in err

    @pytest.mark.parametrize(
        "label",
        ["a b", "c\n9 9", "", "tab\there", "#1"],
        ids=["space", "lf", "empty", "tab", "hash"],
    )
    def test_a_label_that_cannot_head_a_table_row_exits_2(self, tmp_path, capsys, label):
        povm_path, ens_path, out = tmp_path / "pnr.json", tmp_path / "ens.json", tmp_path / "r.dat"
        run(capsys, "model", "ideal-pnr", "--dim", "3", "--out", str(povm_path))
        labels = ["0", label, "2"]
        entries = (ProbeEntry(1 / 3, fock_state(m, 3), labels[m]) for m in range(3))
        save_ensemble(ProbeEnsemble(tuple(entries)), ens_path)
        out.write_bytes(b"kept")
        argv = ["retrodict", str(povm_path), "--outcome", "1", "--ensemble", str(ens_path)]
        code, text, err = run(capsys, *argv, "--out", str(out))
        assert (code, text) == (2, "")
        assert err == (
            f"error: {ens_path}: entries[1]: label {label!r} is not one word "
            "without '#', so it cannot head a posterior row\n"
        )
        assert out.read_bytes() == b"kept"

    # numpy notes that the "#" header lines hold no data when it reads strings.
    @pytest.mark.filterwarnings("ignore:Input line 1 contained no data")
    def test_the_posterior_table_loads_as_one_row_per_entry(self, tmp_path, capsys):
        povm_path, ens_path, out = tmp_path / "pnr.json", tmp_path / "ens.json", tmp_path / "r.dat"
        run(capsys, "model", "lossy-pnr", "--dim", "6", "--eta", "0.7", "--out", str(povm_path))
        labels = ["vac", "one", "2", "n=3", "|4>", "five!"]
        entries = (ProbeEntry(1 / 6, fock_state(m, 6), labels[m]) for m in range(6))
        save_ensemble(ProbeEnsemble(tuple(entries)), ens_path)
        argv = ["retrodict", str(povm_path), "--outcome", "1", "--ensemble", str(ens_path)]
        assert run(capsys, *argv, "--out", str(out))[0] == 0
        table = np.loadtxt(out, dtype=str, ndmin=2)
        assert table.shape == (6, 2)
        assert table[:, 0].tolist() == labels
        assert table[:, 1].astype(float).sum() == pytest.approx(1.0)

    def test_unreachable_outcome_exits_3(self, tmp_path, capsys):
        povm_path = tmp_path / "pnr.json"
        ens_path = tmp_path / "ens.json"
        run(capsys, "model", "ideal-pnr", "--dim", "10", "--out", str(povm_path))
        first_three = (ProbeEntry(1 / 3, fock_state(m, 10), str(m)) for m in range(3))
        save_ensemble(ProbeEnsemble(tuple(first_three)), ens_path)
        code, _, err = run(
            capsys,
            "retrodict",
            str(povm_path),
            "--outcome",
            "5",
            "--ensemble",
            str(ens_path),
        )
        assert code == 3
        assert "5" in err


class TestTextHeaders:
    """A line break in an outcome label stays inside the ``#`` header of each text file."""

    @pytest.mark.filterwarnings("ignore::qdetchar.TruncationWarning")
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_each_text_file_loads_with_loadtxt(self, brk, tmp_path, capsys):
        label = f"on{brk}1 2 3"
        off, on = on_off_apd(0.5, 0.0, 12)
        povm_path, ens_path = tmp_path / "apd.json", tmp_path / "ens.json"
        save_povm(Povm((off, PovmElement(label, on.matrix))), povm_path)
        save_ensemble(uniform_fock_ensemble(12), ens_path)
        runs = {
            "herald": (["--lam", "0.3"], (1, 3)),
            "retrodict": (["--ensemble", str(ens_path)], (12, 2)),
            "wigner": (["--nx", "3", "--np", "2"], (6, 3)),
        }
        for command, (flags, shape) in runs.items():
            out = tmp_path / f"{command}.dat"
            argv = [command, str(povm_path), "--outcome", label, "--out", str(out), *flags]
            assert run(capsys, *argv)[0] == 0, command
            assert np.loadtxt(out, ndmin=2).shape == shape, command
        assert read_wigner_grid(tmp_path / "wigner.dat").values.shape == (3, 2)


class TestVerify:
    def test_good_report_passes(self, apd_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(capsys, "characterize", str(apd_file), "--target", "fock:1", "--out", str(out))
        code, text, _ = run(capsys, "verify", str(out))
        assert code == 0
        assert "[ok]" in text and "verified" in text

    def test_tampered_report_fails(self, apd_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(capsys, "characterize", str(apd_file), "--out", str(out))
        doc = json.loads(out.read_text())
        doc["estimators"][0]["projectivity"] = 0.9
        out.write_text(json.dumps(doc))
        code, text, err = run(capsys, "verify", str(out))
        assert code == 2
        assert "[FAIL]" in text
        assert "FAILED" in err


    @pytest.mark.parametrize(
        "edit",
        [
            {"category": "ProjectiveIdeal"},
            {"projectivity": float("nan"), "ideality": float("nan")},
        ],
        ids=["flipped-category", "nan-scalars"],
    )
    def test_edited_row_fails(self, apd_file, tmp_path, capsys, edit):
        out = tmp_path / "report.json"
        run(capsys, "characterize", str(apd_file), "--out", str(out))
        doc = json.loads(out.read_text())
        doc["estimators"][0].update(edit)
        out.write_text(json.dumps(doc))
        code, text, err = run(capsys, "verify", str(out))
        assert code == 2
        assert text.startswith("[FAIL] off:")
        assert "verification FAILED (1 of 2 rows)" in err

    @pytest.mark.parametrize(
        "edit",
        [{"fidelity": None, "detectivity": None}, {"target": None}],
        ids=["metrics-erased", "target-erased"],
    )
    def test_targeted_row_edits_fail(self, apd_file, tmp_path, capsys, edit):
        out = tmp_path / "report.json"
        run(capsys, "characterize", str(apd_file), "--target", "fock:1", "--out", str(out))
        doc = json.loads(out.read_text())
        doc["estimators"][0].update(edit)
        out.write_text(json.dumps(doc))
        code, text, err = run(capsys, "verify", str(out))
        assert code == 2
        assert text.startswith("[FAIL] off:") and "exactly when it names a target" in text
        assert "verification FAILED (1 of 2 rows)" in err

    @pytest.fixture
    def witness_report_file(self, apd_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        with pytest.warns(qdetchar.TruncationWarning):  # the grid outruns dim 12
            code, _, _ = run(
                capsys, "characterize", str(apd_file), "--witnesses", "--target", "fock:1",
                "--out", str(out),
            )
        assert code == 0
        return out

    def test_report_with_witness_rows_passes(self, witness_report_file, capsys):
        code, text, _ = run(capsys, "verify", str(witness_report_file))
        assert code == 0
        assert "[ok] on: witness row consistent" in text
        assert "verified 4 rows" in text

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"min_wigner": 5.0}, "min_wigner 5.0 outside [-1/pi, 1/pi]"),
            ({"is_nonclassical": False}, "is_nonclassical False but its witnesses give True"),
            ({"outcome": "nosuch"}, "names no estimator row"),
        ],
        ids=["min-wigner", "nonclassical-flipped", "renamed"],
    )
    def test_tampered_witness_row_fails(self, witness_report_file, capsys, edit, message):
        doc = json.loads(witness_report_file.read_text())
        row = next(r for r in doc["nonclassicality"] if r["outcome"] == "on")
        row.update(edit)
        witness_report_file.write_text(json.dumps(doc))
        code, text, err = run(capsys, "verify", str(witness_report_file))
        assert code == 2
        assert f"[FAIL] {row['outcome']}: witness row" in text and message in text
        assert "verification FAILED (1 of 4 rows)" in err

    def test_a_second_witness_row_for_one_outcome_fails(self, tmp_path, capsys):
        save_povm(lossy_pnr(0.7, 4), tmp_path / "pnr.json")
        out = tmp_path / "report.json"
        with pytest.warns(qdetchar.TruncationWarning):  # the default grid outruns dim 4
            assert run(capsys, "characterize", str(tmp_path / "pnr.json"), "--witnesses",
                       "--out", str(out))[0] == 0
        doc = json.loads(out.read_text())
        first = next(r for r in doc["nonclassicality"] if r["outcome"] == "0")
        doc["nonclassicality"].append(
            dict(first, min_wigner=0.25, negativity_volume=0.0, is_nonclassical=False)
        )
        out.write_text(json.dumps(doc))
        code, text, err = run(capsys, "verify", str(out))
        assert code == 2
        failed = [line for line in text.splitlines() if line.startswith("[FAIL]")]
        assert failed == ["[FAIL] 0: witness row repeats the outcome of an earlier witness row"]
        assert "verification FAILED (1 of 9 rows)" in err
        with pytest.raises(ReportValidationError, match="repeats the outcome"):
            load_report(out)

    def test_witness_rows_are_checked_under_the_reports_own_tolerances(
        self, apd_file, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "report.json"
        monkeypatch.setenv("QDETCHAR_NEG_TOL", "0.5")
        with pytest.warns(qdetchar.TruncationWarning):
            code, _, _ = run(
                capsys, "characterize", str(apd_file), "--witnesses", "--out", str(out)
            )
        assert code == 0
        assert json.loads(out.read_text())["tolerances"]["neg"] == 0.5
        monkeypatch.delenv("QDETCHAR_NEG_TOL")
        for neg_tol in (None, "1e-9"):
            if neg_tol is not None:
                monkeypatch.setenv("QDETCHAR_NEG_TOL", neg_tol)
            code, text, _ = run(capsys, "verify", str(out))
            assert code == 0
            assert "[ok] on: witness row consistent" in text
            assert load_report(out).tolerances.neg == 0.5

    def test_report_without_tolerances_reads_as_defaults(self, witness_report_file, capsys):
        doc = json.loads(witness_report_file.read_text())
        del doc["tolerances"]
        witness_report_file.write_text(json.dumps(doc, indent=2))
        assert load_report(witness_report_file).tolerances == qdetchar.DEFAULT_TOLS
        code, text, _ = run(capsys, "verify", str(witness_report_file))
        assert code == 0
        assert "verified 4 rows" in text

    def test_malformed_tolerances_exit_4(self, witness_report_file, capsys):
        doc = json.loads(witness_report_file.read_text())
        doc["tolerances"]["neg"] = -1.0
        witness_report_file.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(witness_report_file))
        assert code == 4
        assert "malformed tolerances" in err and "non-negative" in err


    @pytest.mark.parametrize(
        "edit, field",
        [
            (
                lambda doc: doc["nonclassicality"][1].update(is_nonclassical="false"),
                "is_nonclassical",
            ),
            (lambda doc: doc["estimators"][1].update(projectivity="0.09"), "projectivity"),
            (lambda doc: doc["estimators"][1].update(target=7), "target"),
            (lambda doc: doc.update(tool_version=3), "tool_version"),
            (lambda doc: doc["estimators"][1].update(extra=1.0), "extra"),
            (lambda doc: doc["estimators"][1].pop("category"), "category"),
            (lambda doc: doc["thresholds"].update(ideality_min="0.5"), "ideality_min"),
        ],
        ids=["bool-as-string", "number-as-string", "int-target", "int-tool-version",
             "unknown-field", "missing-field", "threshold-as-string"],
    )
    def test_wrong_type_exits_4_naming_the_field(self, witness_report_file, capsys, edit, field):
        doc = json.loads(witness_report_file.read_text())
        edit(doc)
        witness_report_file.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(witness_report_file))
        assert code == 4
        assert f"field {field!r}" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(dim=2), "[FAIL] on: has projectivity 0.0933"),
            (
                lambda doc: doc["estimators"][1].update(
                    fidelity=2.0, detectivity=doc["estimators"][1]["trace_weight"] * 2.0
                ),
                "[FAIL] on: has fidelity 2.0 outside [0, 1] at dim 12",
            ),
        ],
        ids=["dim-2", "fidelity-2"],
    )
    def test_value_outside_its_range_fails(self, witness_report_file, capsys, edit, message):
        doc = json.loads(witness_report_file.read_text())
        edit(doc)
        witness_report_file.write_text(json.dumps(doc))
        code, text, _ = run(capsys, "verify", str(witness_report_file))
        assert code == 2
        assert message in text

    def test_rows_of_one_outcome_must_agree(self, apd_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["characterize", str(apd_file), "--witnesses", "--grid-points", "11"]
        with pytest.warns(qdetchar.TruncationWarning):  # the grid outruns dim 12
            assert run(capsys, *argv, "--target", "fock:1", "--target", "coherent:1,0",
                       "--out", str(out))[0] == 0
        assert run(capsys, "verify", str(out))[0] == 0
        doc = json.loads(out.read_text())
        row = doc["estimators"][0]  # off, fock:1; the off, coherent:1,0 row is untouched
        assert (row["outcome"], row["target"]) == ("off", "fock:1")
        row.update(projectivity=0.4, ideality=0.4 * row["trace_weight"])
        out.write_text(json.dumps(doc))
        code, text, err = run(capsys, "verify", str(out))
        assert code == 2
        failure = "[FAIL] off: disagrees with the outcome's first row on projectivity, ideality"
        assert failure in text
        assert "verification FAILED (1 of 6 rows)" in err

    @staticmethod
    def canonical_reports_verify(tmp_path, capsys, dim, targets):
        """Every canonical model's ``characterize`` report at ``dim`` verifies.

        Returns how many of them have an outcome whose projectivity is 1/dim.
        """
        etas = ("0", "0.5", "1")
        models = [["ideal-pnr"]] + [["lossy-pnr", "--eta", eta] for eta in etas]
        models += [["apd", "--eta", eta] for eta in etas]
        zetas = ("1e-3", "0.5", "1")  # the scaled projector's weight stands in for eta
        models += [["scaled-projector", "--target", "fock:1", "--zeta", z] for z in zetas]
        povm, out = tmp_path / "povm.json", tmp_path / "report.json"
        target_flags = [flag for target in targets for flag in ("--target", target)]
        mixed = 0
        for model in models:
            code, _, _ = run(capsys, "model", *model, "--dim", str(dim), "--out", str(povm))
            assert code == 0
            argv = ["characterize", str(povm), *target_flags, "--out", str(out)]
            assert run(capsys, *argv)[0] == 0
            code, text, _ = run(capsys, "verify", str(out))
            assert code == 0, (model, text)
            rows = load_report(out).estimators
            mixed += any(abs(row.projectivity - 1.0 / dim) < 1e-12 for row in rows)
        return mixed

    @pytest.mark.parametrize("dim", [2, 12, 60])
    def test_every_canonical_report_verifies(self, tmp_path, capsys, dim):
        mixed = self.canonical_reports_verify(tmp_path, capsys, dim, ["fock:1"])
        assert mixed >= 2  # the eta = 0 outcomes of the lossy counter and the APD

    @pytest.mark.parametrize("dim", [2, 12, 60])
    def test_every_canonical_report_with_two_targets_verifies(self, tmp_path, capsys, dim):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", qdetchar.TruncationWarning)  # coherent at dim 2
            self.canonical_reports_verify(tmp_path, capsys, dim, ["fock:1", "coherent:1,0.5"])


class TestConfigErrors:
    @pytest.mark.parametrize("var", ["QDETCHAR_PROJECTIVITY_MIN", "QDETCHAR_NEG_TOL"])
    def test_non_finite_env_value_exits_2(self, apd_file, tmp_path, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "nan")
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "characterize", str(apd_file), "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("var", ["QDETCHAR_NEG_TOL", "QDETCHAR_HERM_TOL"])
    def test_negative_env_value_exits_2(self, apd_file, tmp_path, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "-1")
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "characterize", str(apd_file), "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: {var}='-1':") and "non-negative" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--projectivity-min", "--ideality-min"])
    def test_non_finite_flag_exits_2(self, apd_file, tmp_path, capsys, flag):
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "characterize", str(apd_file), flag, "inf", "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "finite" in err
        assert not out.exists()


class TestSettingsPerSubcommand:
    def test_threshold_flags_are_a_usage_error_on_verify(self, apd_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        run(capsys, "characterize", str(apd_file), "--out", str(out))
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(out), "--projectivity-min", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --projectivity-min" in capsys.readouterr().err

    def test_bad_env_value_does_not_stop_verify(self, apd_file, tmp_path, capsys, monkeypatch):
        out = tmp_path / "report.json"
        run(capsys, "characterize", str(apd_file), "--out", str(out))
        for var in ("QDETCHAR_GAUSS_TOL", "QDETCHAR_PROJECTIVITY_MIN"):
            monkeypatch.setenv(var, "abc")
        code, text, _ = run(capsys, "verify", str(out))
        assert code == 0 and "verified" in text

    @pytest.mark.parametrize("var", ["QDETCHAR_GAUSS_TOL", "QDETCHAR_PROJECTIVITY_MIN"])
    def test_bad_env_value_still_stops_characterize(
        self, apd_file, tmp_path, capsys, monkeypatch, var
    ):
        monkeypatch.setenv(var, "abc")
        out = tmp_path / "report.json"
        code, _, err = run(capsys, "characterize", str(apd_file), "--out", str(out))
        assert code == 2
        assert err.startswith(f"error: {var}='abc':")
        assert not out.exists()


class TestRepeatedCalls:
    """main() reuses one parser per process; no call's arguments reach the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_targets_do_not_carry_over(self, apd_file, tmp_path, capsys):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run(capsys, "characterize", str(apd_file), "--target", "fock:1", "--out", str(first))[0] == 0
        assert run(capsys, "characterize", str(apd_file), "--out", str(second))[0] == 0
        assert {r.target for r in load_report(first).estimators} == {"fock:1"}
        assert {r.target for r in load_report(second).estimators} == {None}

    def test_lam_lists_do_not_carry_over(self, apd_file, tmp_path, capsys):
        for lams in (["0.1", "0.2", "0.3"], ["0.25"]):
            out = tmp_path / f"scan{len(lams)}.dat"
            flags = [arg for lam in lams for arg in ("--lam", lam)]
            assert run(capsys, "herald", str(apd_file), "--outcome", "on", *flags, "--out", str(out))[0] == 0
            np.testing.assert_array_equal(np.loadtxt(out, ndmin=2)[:, 0], [float(x) for x in lams])

    def test_nu_does_not_carry_over(self, tmp_path, capsys):
        for extra, nu in ((["--nu", "0.01"], "0.01"), ([], "0.0")):
            out = tmp_path / f"apd{nu}.json"
            assert run(capsys, "model", "apd", "--dim", "6", "--eta", "0.5", *extra, "--out", str(out))[0] == 0
            assert load_povm(out).metadata["nu"] == nu

    def test_exits_still_raise_between_calls(self, apd_file, tmp_path, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["--version"])
            assert exit_info.value.code == 0
            with pytest.raises(SystemExit) as exit_info:
                main(["characterize", str(apd_file), "--no-such-flag", "--out", str(tmp_path / "r.json")])
            assert exit_info.value.code == 2
            assert "--no-such-flag" in capsys.readouterr().err
            assert run(capsys, "verify", str(tmp_path / "missing.json"))[0] == 4


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.strip()

    def test_module_entry_prints_the_version(self):
        env = dict(os.environ)
        package_root = str(Path(qdetchar.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-m", "qdetchar.cli", "--version"],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == qdetchar.__version__

    def test_runtime_depends_on_numpy_alone(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
        test_extra = {d.split(">")[0] for d in project["optional-dependencies"]["test"]}
        assert test_extra == {"pytest", "scipy", "hypothesis", "mpmath"}

        env = dict(os.environ)
        package_root = str(Path(qdetchar.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        script = (
            "import sys, qdetchar, qdetchar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_console_script_installed(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        target = project.get("scripts", {}).get("qdetchar")
        assert target == "qdetchar.cli:main"

        # The loader that an installed wrapper script uses.
        entry_point = importlib.metadata.EntryPoint(
            name="qdetchar", value=target, group="console_scripts"
        )
        assert entry_point.load() is main

        # The wrapper's own body, run against the package imported here.
        env = dict(os.environ)
        package_root = str(Path(qdetchar.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from qdetchar.cli import main; sys.exit(main())",
                "--version",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == project["version"]

        # Where the package is installed, its script must be there too.
        try:
            distribution = importlib.metadata.distribution("qdetchar")
        except importlib.metadata.PackageNotFoundError:
            return
        installed = {
            ep.name: ep.value
            for ep in distribution.entry_points
            if ep.group == "console_scripts"
        }
        assert installed.get("qdetchar") == target
        search_path = os.pathsep.join(
            filter(None, [sysconfig.get_path("scripts"), os.environ.get("PATH")])
        )
        assert shutil.which("qdetchar", path=search_path) is not None

"""Each benchmark check accepts the program's real output and rejects a perturbed one.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for _p in (str(HERE), str(HERE.parent / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from qdetchar import fileio, phasespace  # noqa: E402
from qdetchar.detectors import lossy_pnr  # noqa: E402
from qdetchar.retrodiction import uniform_fock_ensemble  # noqa: E402


@pytest.fixture
def dense6():
    return gen.Model("dense", 6, 11, gen.build_povm("dense", 6, 11))


def _cli(*argv):
    res = workloads.call_cli([str(a) for a in argv])
    assert res.rc == 0, res.stderr
    return res


def test_wigner_grid_shifted_by_1e_6_fails(tmp_path, dense6):
    model = dense6
    model.path = tmp_path / "dense.json"
    fileio.save_povm(model.povm, model.path)
    grid = tmp_path / "w.dat"
    res = _cli("wigner", model.path, "--outcome", "0", "--nx", 41, "--np", 41, "--out", grid)
    workloads._check_wigner(model, "0", grid, res)  # the real output passes
    sidecar = json.loads(Path(str(grid) + ".report.json").read_text())
    rho = model.povm.outcome("0").matrix / model.povm.outcome("0").trace_weight
    data = np.loadtxt(grid)
    checks.check_wigner_grid(data, rho, sidecar, diagonal=False)
    shifted = data.copy()
    shifted[:, 2] += 1e-6
    with pytest.raises(CheckFailed, match="parity oracle"):
        checks.check_wigner_grid(shifted, rho, sidecar, diagonal=False)


def test_diagonal_wigner_symmetry_check_catches_asymmetry(tmp_path):
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    grid = phasespace.PhaseSpaceGrid.symmetric(3.0, 31)
    wg = phasespace.wigner(rho, grid)
    path = tmp_path / "w.dat"
    fileio.write_wigner_grid(wg, path)
    report = phasespace.witness_report(rho, wg, "x", 0.38)
    sidecar = {"witnesses": fileio.nonclassicality_to_dict(report)}
    data = np.loadtxt(path)
    checks.check_wigner_grid(data, rho, sidecar, diagonal=True)
    skewed = data.copy()
    skewed[0, 2] += 1e-9  # one corner, far from the origin
    with pytest.raises(CheckFailed):
        checks.check_wigner_grid(skewed, rho, sidecar, diagonal=True)


def test_heralded_states_of_two_outcomes_swapped_fail(dense6):
    lam = 0.2  # tail lam**(2*6) within the default budget
    e0, e1 = (dense6.povm.outcome(k) for k in ("0", "1"))
    closed = [workloads._closed(e, lam) for e in (e0, e1)]
    joint = [workloads._joint(e, lam) for e in (e0, e1)]
    for (c_state, c_prob), (j_state, _), e in zip(closed, joint, (e0, e1)):
        checks.check_closed_form(c_state, c_prob, e.matrix, lam, diagonal=False)
        checks.check_joint(j_state, c_state)
    with pytest.raises(CheckFailed, match="trace distance"):
        checks.check_joint(joint[1][0], closed[0][0])
    with pytest.raises(CheckFailed, match="closed-form state"):
        checks.check_closed_form(closed[1][0], closed[1][1], e0.matrix, lam, diagonal=False)


def test_route_ops_detect_a_swap_across_outcomes(dense6):
    ops = workloads._route_ops("dense-6", dense6, 0.2)
    outputs = [op.run() for op in ops]
    for op, out in zip(ops, outputs):
        op.check(out)
    # joint result of outcome 1 handed to the check of outcome 0
    with pytest.raises(CheckFailed):
        ops[1].check(outputs[3])


def test_changed_posterior_entry_fails(tmp_path):
    model = gen.Model("apd", 8, 0, gen.build_povm("apd", 8, 0))
    model.path = tmp_path / "apd.json"
    fileio.save_povm(model.povm, model.path)
    ens = tmp_path / "ens.json"
    fileio.save_ensemble(uniform_fock_ensemble(8), ens)
    post = tmp_path / "post.txt"
    res = _cli("retrodict", model.path, "--outcome", "on", "--ensemble", ens, "--out", post)
    workloads._check_retrodict(model, "on", post, res)
    lines = post.read_text().splitlines()
    label, value = lines[5].split()
    lines[5] = f"{label} {float(value) + 1e-9!r}"
    post.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="posterior of level"):
        workloads._check_retrodict(model, "on", post, res)


def test_saved_file_with_one_float_altered_fails(tmp_path, dense6):
    path = tmp_path / "saved.json"
    fileio.save_povm(dense6.povm, path)
    workloads._check_save(dense6, path, None)
    doc = json.loads(path.read_text())
    doc["outcomes"][2]["matrix"][1][3][1] = np.nextafter(doc["outcomes"][2]["matrix"][1][3][1], 1.0)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    with pytest.raises(CheckFailed, match="stored floats differ"):
        workloads._check_save(dense6, path, None)


def test_model_file_with_one_float_altered_fails(tmp_path):
    path = tmp_path / "lossy.json"
    res = _cli("model", "lossy-pnr", "--dim", 6, *workloads.MODEL_ARGS["lossy-pnr"], "--out", path)
    workloads._check_model("lossy-pnr", 6, path, res)
    doc = json.loads(path.read_text())
    doc["outcomes"][1]["matrix"][4][4][0] += 1e-9
    path.write_text(json.dumps(doc, indent=2) + "\n")
    with pytest.raises(CheckFailed, match="stored floats off"):
        workloads._check_model("lossy-pnr", 6, path, res)


def test_report_check_rejects_flipped_category_and_edited_value(tmp_path, dense6):
    model = dense6
    model.path = tmp_path / "dense.json"
    fileio.save_povm(model.povm, model.path)
    rep = tmp_path / "r.json"
    flags = [f for t in gen.TARGETS for f in ("--target", t)]
    res = _cli("characterize", model.path, *flags, "--out", rep)
    workloads._check_characterize(model, rep, gen.TARGETS, res)
    doc = json.loads(rep.read_text())
    doc["estimators"][0]["category"] = "ProjectiveIdeal"
    rep.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed, match="category"):
        workloads._check_characterize(model, rep, gen.TARGETS, res)
    doc["estimators"][0]["category"] = "NonProjective"
    doc["estimators"][0]["detectivity"] += 1e-6
    rep.write_text(json.dumps(doc))
    with pytest.raises(CheckFailed, match="Born"):
        workloads._check_characterize(model, rep, gen.TARGETS, res)


def test_large_lossy_check_rejects_a_wrong_entry():
    els = [np.array(e.matrix) for e in lossy_pnr(0.5, 20)]
    samples = [(3, 7), (0, 19), (5, 5), (9, 2)]
    checks.check_large_lossy(els, 0.5, samples)
    els[3][7, 7] *= 1 + 1e-9
    with pytest.raises(CheckFailed):
        checks.check_large_lossy(els, 0.5, samples)


def test_generated_dense_povm_is_a_partition_of_identity():
    mats = gen.dense_matrices(5, 9)
    assert np.max(np.abs(sum(mats) - np.eye(9))) < 1e-12
    assert all(np.array_equal(m, m.conj().T) for m in mats)
    assert all(np.linalg.eigvalsh(m)[0] > -1e-12 for m in mats)
    assert np.array_equal(gen.dense_matrices(5, 9)[0], mats[0])
    assert not np.array_equal(gen.dense_matrices(6, 9)[0], mats[0])


def test_tail_rank_keeps_ten_samples_beyond():
    import run

    for n in (40, 48, 117, 234):
        pct, rank = run.tail_rank(n)
        assert n - rank >= 10
        assert n - math.ceil((pct + 1) * n / 100) < 10  # the next percentile has fewer
        assert rank >= (n + 1) // 2


def test_metric_names_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


@pytest.mark.parametrize("rc, raises, correct", [(0, False, True), (1, False, False), (0, True, False)])
def test_known_fault_excuses_only_its_symptom(rc, raises, correct):
    """The tampered verify may exit 0 (the known fault); exit 1 or an exception is a new fault."""
    import run

    def op_run():
        if raises:
            raise RuntimeError("verify crashed")
        return workloads.CliResult(rc, "", "")

    op = workloads.Op("verify-tampered", "tampered", op_run, lambda res: workloads.require_rc(res, 2),
                      known_fault="flipped category passes", fault_symptom=lambda res: res.rc == 0)
    runner = run.Runner([op])
    runner.run_pass()
    assert (runner.attempted, runner.failed, runner.correct) == (1, 1, correct)

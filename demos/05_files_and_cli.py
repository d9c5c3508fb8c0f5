"""Round-tripping measurements and reports through files and the CLI.

The command-line tool is a thin wrapper over the library.  This demo
drives both: a measurement survives save/load byte for byte, physically
broken files are refused at the door, and a characterization report can
be re-verified later (and fails loudly once tampered with).

Run: python3 demos/05_files_and_cli.py
"""

import json
import sys
import tempfile
from pathlib import Path

from qdetchar import (
    PovmValidationError,
    load_povm,
    on_off_apd,
    save_povm,
    sha256_digest,
)
from qdetchar.cli import main

# keep stdout and the CLI's stderr interleaved when piped
sys.stdout.reconfigure(line_buffering=True)

with tempfile.TemporaryDirectory(prefix="qdetchar-demo-") as tmp:
    WORK = Path(tmp)
    print(f"working under {WORK}")

    # Save / load round trip is byte identical: load, re-save, compare digests.
    povm = on_off_apd(0.5, 0.0, 12)
    first = WORK / "apd.json"
    second = WORK / "apd-again.json"
    save_povm(povm, first)
    save_povm(load_povm(first), second)
    print("\ndigest of the original:  ", sha256_digest(first))
    print("digest after a round trip:", sha256_digest(second))

    # A file whose outcomes sum past the identity is refused with a report
    # attached, so the caller can see how badly completeness fails.
    doc = json.loads(first.read_text())
    extra = dict(doc["outcomes"][-1])
    extra["label"] = "again"
    doc["outcomes"].append(extra)
    bad = WORK / "overcomplete.json"
    bad.write_text(json.dumps(doc))
    try:
        load_povm(bad)
    except PovmValidationError as exc:
        print(
            "\nrefused a doctored file: completeness residual "
            f"{exc.report.completeness_residual:.3f}"
        )

    # The same loop through the command-line tool.  Each main([...]) call is
    # exactly what the matching `qdetchar ...` shell command would do.
    model_file = WORK / "model.json"
    report_file = WORK / "report.json"

    print(f"\n$ qdetchar model apd --dim 12 --eta 0.5 --out {model_file.name}")
    main(["model", "apd", "--dim", "12", "--eta", "0.5", "--out", str(model_file)])

    print(f"\n$ qdetchar characterize {model_file.name} --out {report_file.name}")
    main(["characterize", str(model_file), "--out", str(report_file)])

    print(f"\n$ qdetchar verify {report_file.name}")
    code = main(["verify", str(report_file)])
    print(f"exit code {code}")

    # Tamper with one stored estimator; verification re-derives the internal
    # identities from the stored numbers and catches the edit.
    doc = json.loads(report_file.read_text())
    doc["estimators"][0]["projectivity"] = 0.5
    report_file.write_text(json.dumps(doc))
    print("\nafter editing the first row's projectivity to 0.5:")
    code = main(["verify", str(report_file)])
    print(f"exit code {code}")

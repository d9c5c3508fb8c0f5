"""Benchmark of the qdetchar pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload characterize --seed 2010 --trace 0
    python3 perfbench/run.py                 # all four workloads, untraced then traced

Each workload is a fixed list of operations built from the seed.  One untimed
warm-up pass checks every output against oracles computed apart from the
program; the list then repeats in whole passes, and each later output must
match the checked one.  The number of passes is ``--seconds`` divided by the
workload's nominal pass time, so every run times the same operations.  Each
operation's time is scaled by fixed reference work timed around it, to cancel
the host's changes of speed (README).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer self times from the traced
ones.  The last line of standard output is one JSON object.  BLAS and OpenMP
are pinned to one thread before numpy loads; the allocator is left as users
get it.

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json`` beside this
directory, the one place the run length is set.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# The benchmark's own modules (checks, gen, spans, workloads) import numpy or
# qdetchar, so they are imported inside functions, after import_program() has
# timed a cold import of the program.

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("characterize", "witnesses", "herald", "export")
DEFAULT_SEED = 2010
SETUP_REPS = 3
MIN_SAMPLES = 40  # below this a tail percentile with ten samples beyond it is no tail
# Times are scaled to a host on which the reference work takes REF_MS[kind],
# its usual time here between operations (README).
REF_LOOP = 10_000
REF_DOC = [[[math.sin(i + j), math.cos(i * j)] for j in range(30)] for i in range(12)]
REF_MS = {"text": 3.6, "product": 2.0}
REF_WINDOW = (2, 4)  # an op is scaled by the median of the references from 2 before to 3 after it
# Nominal scaled seconds per pass; they only set the number of passes.  Passes
# now take about 10% longer (README), but these values keep each workload's
# median and tail ranks inside one kind of operation.
NOMINAL_PASS_S = {"characterize": 2.3, "witnesses": 2.8, "herald": 2.3, "export": 3.6}

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.self_ms": "ms",
    "fileio.load_povm_ms": "ms",
    "fileio.load_ensemble_ms": "ms",
    "fileio.load_report_ms": "ms",
    "fileio.save_povm_ms": "ms",
    "fileio.save_report_ms": "ms",
    "fileio.write_wigner_grid_ms": "ms",
    "fileio.sha256_digest_ms": "ms",
    "fileio.read_mb": "MB",
    "fileio.written_mb": "MB",
    "fileio.parse_mb_per_s": "MB/s",
    "fileio.write_mb_per_s": "MB/s",
    "detectors.validate_povm_ms": "ms",
    "detectors.model_build_ms": "ms",
    "retrodiction.estimator_report_ms": "ms",
    "retrodiction.retrodict_ensemble_ms": "ms",
    "phasespace.wigner_diag_ms": "ms",
    "phasespace.wigner_dense_ms": "ms",
    "phasespace.wigner_term_points": "count",
    "phasespace.witness_report_ms": "ms",
    "herald.joint_ms": "ms",
    "herald.joint_operator_mb": "MB",
    "herald.closed_form_ms": "ms",
    "herald.limit_scan_ms": "ms",
    "bench.self_ms": "ms",
    "setup.import_ms": "ms",
    "host.ref_ms": "ms",
    "trace.overhead_pct": "%",
}
PARSERS = ("fileio.load_povm", "fileio.load_ensemble", "fileio.load_report")
WRITERS = ("fileio.save_povm", "fileio.save_report", "fileio.write_wigner_grid")


class SetupError(Exception):
    pass


try:
    # Between operations, freed heap goes back to the system, as at the end of
    # a CLI process.  The allocator's settings are left alone.  Without this,
    # memory freed by earlier joint-route operations stayed resident and
    # herald's peak RSS read 236 MB instead of 189 MB in 6 runs of 20 (README).
    malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # not glibc
    def malloc_trim(pad):
        return 0


RAISED = object()  # output of an operation that raised


def format_floats() -> None:
    json.dumps(REF_DOC, indent=2)


def matrix_product():
    """A fixed 160 x 160 complex product (numpy is loaded by then)."""
    import numpy as np

    m = np.exp(1j * np.arange(160 * 160).reshape(160, 160) / 7.0)
    return lambda: m @ m


def host_ref_ms(extra=format_floats) -> float:
    """Fixed work that tracks the machine, not the program.

    A pure-Python loop plus work like the workload's own: float formatting
    and allocation, or a BLAS product.  Each speeds up and slows down by its
    own amount when the host changes speed.
    """
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    extra()
    return (time.perf_counter() - t) * 1e3


def host_scale(refs, ref_ms=REF_MS["text"]) -> float:
    """Factor that brings a time measured beside ``refs`` to the reference host."""
    return ref_ms / statistics.median(refs)


def tail_rank(n: int):
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    pct = math.floor(100 * (n - 10) / n)
    return pct, math.ceil(pct * n / 100)


def import_program() -> float:
    if not (SRC / "qdetchar" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import qdetchar
    import qdetchar.cli  # noqa: F401  (the CLI is part of what users import)

    seconds = time.perf_counter() - t
    if Path(qdetchar.__file__).resolve().parent != SRC / "qdetchar":
        raise SetupError(f"imported qdetchar from {qdetchar.__file__}, not from {SRC}")
    return seconds


def timed_setup(fn):
    """Run one set-up step between reference loops; returns (result, scaled seconds)."""
    refs = [host_ref_ms() for _ in range(3)]
    t = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t
    refs += [host_ref_ms() for _ in range(3)]
    return result, seconds * host_scale(refs)


class Pass:
    """One pass: raw op times, the reference loops around them, and spans if traced."""

    def __init__(self, traced, works):
        self.traced = traced
        self.works = works  # kind of work of each op: "text" or "product"
        self.durs = []  # ms as measured
        # ms per kind of reference; refs[k][i] ran just before op i, refs[k][-1] after the last op
        self.refs = {k: [] for k in set(works)}
        self.op_spans = []  # (spans, counts) per op when traced

    def scales(self):
        lo, hi = REF_WINDOW
        return [host_scale(self.refs[w][max(0, i - lo): i + hi], REF_MS[w]) for i, w in enumerate(self.works)]

    def scaled(self):
        return [d * s for d, s in zip(self.durs, self.scales())]


class Runner:
    def __init__(self, ops):
        import spans

        self.ops = ops
        self.works = [op.work for op in ops]
        self.ref_work = {"text": format_floats}
        if "product" in self.works:
            self.ref_work["product"] = matrix_product()
        self.tracer = spans.Tracer()
        self.prints = {}
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _outcome(self, op, out, warm: bool) -> bool:
        import checks

        try:
            if not warm and op.fingerprint is not None and op.label in self.prints:
                checks.require(op.fingerprint(out) == self.prints[op.label],
                               "output differs from the checked warm-up output")
            else:
                op.check(out)
                if warm and op.fingerprint is not None:
                    self.prints[op.label] = op.fingerprint(out)
            return True
        except Exception as exc:  # a check that cannot read the output fails it
            self._problem(op, f"{type(exc).__name__}: {exc}", op.known_fault is not None and op.fault_symptom(out))
            return False

    def _problem(self, op, msg, excused=False):
        """Record a failed op; only the documented symptom of a known fault keeps the run correct."""
        if not excused:
            self.correct = False
        note = f" (known fault: {op.known_fault})" if excused else ""
        line = f"{op.label}: {msg}{note}"
        if line not in self.problems:
            self.problems.append(line)

    def _time_refs(self, result: Pass) -> None:
        for kind, refs in result.refs.items():
            refs.append(host_ref_ms(self.ref_work[kind]))

    def run_pass(self, warm=False, traced=False) -> Pass:
        """One pass over the operation list, each op after a reference loop."""
        gc.collect()
        result = Pass(traced, self.works)
        if traced:
            self.tracer.install()
        try:
            for op in self.ops:
                self._time_refs(result)
                t = time.perf_counter_ns()
                try:
                    out = self.tracer.run_root(op.run) if traced else op.run()
                except Exception:  # an operation that raises is a failed operation
                    out = RAISED
                    self._problem(op, traceback.format_exc(limit=3).strip().splitlines()[-1])
                result.durs.append((time.perf_counter_ns() - t) / 1e6)
                if traced:
                    result.op_spans.append(self.tracer.take())
                ok = out is not RAISED and self._outcome(op, out, warm)
                del out
                malloc_trim(0)
                if not warm:
                    self.attempted += 1
                    self.failed += not ok
            self._time_refs(result)
        finally:
            if traced:
                self.tracer.uninstall()
        return result


def layer_metrics(p: Pass) -> dict:
    """Per-layer self times of one traced pass, each op's scaled to the reference host."""
    import spans

    self_ms, counts = {}, {}
    for (span_list, op_counts), scale in zip(p.op_spans, p.scales()):
        for layer, ms in spans.self_ms(span_list).items():
            self_ms[layer] = self_ms.get(layer, 0.0) + ms * scale
        for key, value in op_counts.items():
            counts[key] = counts.get(key, 0) + value
    out = {}
    for name in PER_LAYER:
        if name.endswith("_ms") and not name.startswith(("setup.", "host.")):
            layer = {"cli.self_ms": "cli", "bench.self_ms": "bench"}.get(name, name[:-3])
            out[name] = self_ms.get(layer, 0.0)
    parse_s = sum(self_ms.get(k, 0.0) for k in PARSERS) / 1e3
    write_s = sum(self_ms.get(k, 0.0) for k in WRITERS) / 1e3
    out["fileio.read_mb"] = counts.get("read_bytes", 0) / 1e6
    out["fileio.written_mb"] = counts.get("written_bytes", 0) / 1e6
    out["fileio.parse_mb_per_s"] = counts.get("parse_bytes", 0) / 1e6 / parse_s if parse_s else 0.0
    out["fileio.write_mb_per_s"] = out["fileio.written_mb"] / write_s if write_s else 0.0
    out["phasespace.wigner_term_points"] = counts.get("term_points", 0)
    out["herald.joint_operator_mb"] = counts.get("joint_bytes", 0) / 1e6
    return out


def summarize(values) -> tuple:
    """(ops per second, median, tail value, tail percentile, tail rank) of op times in ms.

    Median and tail are nearest-rank values, so neither averages two samples
    that sit on either side of a gap between kinds of operation.
    """
    s = sorted(values)
    pct, rank = tail_rank(len(s))
    return len(s) / (sum(s) / 1e3), s[math.ceil(len(s) / 2) - 1], s[rank - 1], pct, rank


def write_inputs(name: str, seed: int, workdir: Path) -> None:
    """Write the workload's input files from a child process, whose memory is not the workload's."""
    cmd = [sys.executable, str(HERE / "gen.py"), "--workload", name, "--seed", str(seed), "--out", str(workdir)]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150, check=False)
    except subprocess.TimeoutExpired:
        raise SetupError(f"generating the {name} inputs took more than 150 s") from None
    if proc.returncode != 0:
        raise SetupError(f"generating the {name} inputs exited {proc.returncode}: {proc.stderr.strip()[-500:]}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_refs = [host_ref_ms() for _ in range(3)]
    import_s = import_program()
    import_s *= host_scale(import_refs + [host_ref_ms() for _ in range(3)])
    import gen
    import workloads

    workdir = HERE / "_work" / name
    gen_s = [timed_setup(lambda: write_inputs(name, seed, workdir))[1] for _ in range(1 if trace else SETUP_REPS)]
    inputs, rebuild_s = timed_setup(lambda: gen.generate(name, seed, workdir, write=False))

    rss_setup = peak_rss_mb()
    runner = Runner(workloads.build(inputs))
    n_ops = len(runner.ops)
    passes = max(math.ceil(MIN_SAMPLES / n_ops), round(seconds / NOMINAL_PASS_S[name]))
    runner.run_pass(warm=True)
    rss_warm = peak_rss_mb()
    # Traced runs alternate untraced and traced passes, so drift hits both alike.
    done = [runner.run_pass(traced=trace and i % 2 == 1) for i in range(max(passes, 2 if trace else 1))]
    untraced = [p for p in done if not p.traced]
    traced = [p for p in done if p.traced]

    (workdir / f"samples-trace{int(trace)}.json").write_text(json.dumps(
        {"ops": [op.label for op in runner.ops], "ref_ms": REF_MS,
         "passes": [{"traced": p.traced, "ms": p.durs, "refs": p.refs} for p in done]}))
    kinds = sorted((d, op.kind) for p in untraced for d, op in zip(p.scaled(), runner.ops))
    ops_s, p50, tail, pct, rank = summarize(d for d, _ in kinds)
    raw = summarize(d for p in untraced for d in p.durs)
    refs = [r for p in done for r in p.refs["text"]]
    lines = [
        f"workload {name}, seed {seed}: {len(untraced)} untraced passes x {n_ops} ops = {len(kinds)} "
        f"samples; tail = p{pct} (rank {rank} of {len(kinds)})",
        f"  at p50: {kinds[math.ceil(len(kinds) / 2) - 1][1]}; at tail: {kinds[rank - 1][1]}",
        f"  as measured: {raw[0]:.4g} ops/s, p50 {raw[1]:.4g} ms, tail {raw[2]:.4g} ms; "
        f"host.ref_ms median {statistics.median(refs):.3f} (text reference; scaled to {REF_MS['text']})",
        f"  peak RSS {rss_setup:.1f} MB after set-up, {rss_warm:.1f} MB after warm-up, "
        f"{peak_rss_mb():.1f} MB at the end",
        "  median scaled ms by kind: " + ", ".join(
            f"{k} {statistics.median(d for d, kk in kinds if kk == k):.1f} (x{sum(kk == k for _, kk in kinds)})"
            for k in dict.fromkeys(op.kind for op in runner.ops)
        ),
    ]
    if trace:
        untraced_ms = statistics.median(sum(p.scaled()) for p in untraced)
        traced_ms = statistics.median(sum(p.scaled()) for p in traced)
        rows = [layer_metrics(p) for p in traced]
        metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
        metrics["setup.import_ms"] = import_s * 1e3
        metrics["host.ref_ms"] = statistics.median(refs)
        metrics["trace.overhead_pct"] = (traced_ms / untraced_ms - 1) * 100
        self_sum = sum(v for k, v in metrics.items() if k.endswith("_ms") and not k.startswith(("setup.", "host.")))
        lines.append(
            f"  traced pass {traced_ms:.1f} ms vs untraced {untraced_ms:.1f} ms "
            f"(overhead {metrics['trace.overhead_pct']:+.2f}%); median self times sum to {self_sum:.1f} ms"
        )
        units = PER_LAYER
    else:
        metrics = {
            "ops_per_s": ops_s,
            "op_p50_ms": p50,
            "op_tail_ms": tail,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": import_s + statistics.median(gen_s) + rebuild_s,
        }
        units = END_TO_END
    for problem in runner.problems:
        lines.append(f"  FAILED {problem}")
    print("\n".join(lines))
    return {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process; prints every result, then a summary line."""
    modes = [args.trace] if args.trace is not None else [0, 1]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(mode)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                summary["metrics"][f"{name}.{key}"] = metric
            print(f"{name} (trace {mode}): attempted {result['attempted']}, failed {result['failed']}")
            for key, metric in result["metrics"].items():
                print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="length of a run; default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds is None:
        try:
            args.seconds = json.loads(SPEC.read_text())["run_seconds"]
        except (OSError, ValueError, KeyError) as exc:
            print(f"no run length: pass --seconds or set run_seconds in {SPEC.name} ({exc})", file=sys.stderr)
            return 2
    if args.workload is None:
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

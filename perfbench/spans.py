"""Span tracing of the program's layers, installed from the benchmark.

The tracer replaces each wrapped public function at the name its caller
looks up (``qdetchar.cli.load_povm``, ``qdetchar.fileio.require_valid``,
``qdetchar.herald.heralded_closed_form``, ...) and restores the originals
on :meth:`Tracer.uninstall`, so untraced passes run the program untouched.
A span is recorded only inside an operation's root span; calls made by the
benchmark's own checks are not recorded.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

import numpy as np

_perf = time.perf_counter_ns


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _size(path) -> int:
    return os.path.getsize(path)


def _read(index, name, parsed):
    def count(args, kwargs, result, counts):
        n = _size(_arg(args, kwargs, index, name))
        counts["read_bytes"] += n
        if parsed:
            counts["parse_bytes"] += n

    return count


def _written(index, name):
    def count(args, kwargs, result, counts):
        counts["written_bytes"] += _size(_arg(args, kwargs, index, name))

    return count


def _joint_bytes(args, kwargs, result, counts):
    n = np.asarray(_arg(args, kwargs, 0, "rho_ab")).shape[0]
    counts["joint_bytes"] += 16 * n * n


def _wigner_layer(args, kwargs, counts):
    """Diagonal or dense kernel input; counts the kernel's nonzero terms."""
    rho = np.asarray(_arg(args, kwargs, 0, "rho"))
    grid = _arg(args, kwargs, 1, "grid")
    upper = np.abs(np.triu(rho)) > 1e-18  # the kernel skips smaller entries
    counts["term_points"] += int(np.count_nonzero(upper)) * grid.n_x * grid.n_p
    dense = bool(np.count_nonzero(upper) - np.count_nonzero(np.diagonal(upper)))
    return "phasespace.wigner_dense" if dense else "phasespace.wigner_diag"


# (module, attribute, layer or layer function, counter)
WRAPS = [
    ("qdetchar.cli", "main", "cli", None),
    ("qdetchar.cli", "load_povm", "fileio.load_povm", _read(0, "path", True)),
    ("qdetchar.cli", "load_ensemble", "fileio.load_ensemble", _read(0, "path", True)),
    ("qdetchar.cli", "load_report", "fileio.load_report", _read(0, "path", True)),
    ("qdetchar.cli", "sha256_digest", "fileio.sha256_digest", _read(0, "path", False)),
    ("qdetchar.cli", "save_povm", "fileio.save_povm", _written(1, "path")),
    ("qdetchar.fileio", "save_povm", "fileio.save_povm", _written(1, "path")),
    ("qdetchar.cli", "save_report", "fileio.save_report", _written(1, "path")),
    ("qdetchar.cli", "write_wigner_grid", "fileio.write_wigner_grid", _written(1, "path")),
    ("qdetchar.fileio", "require_valid", "detectors.validate_povm", None),
    ("qdetchar.cli", "ideal_pnr", "detectors.model_build", None),
    ("qdetchar.cli", "lossy_pnr", "detectors.model_build", None),
    ("qdetchar.cli", "on_off_apd", "detectors.model_build", None),
    ("qdetchar.cli", "scaled_projector", "detectors.model_build", None),
    ("qdetchar.cli", "complete_with_rest", "detectors.model_build", None),
    ("qdetchar.detectors", "lossy_pnr", "detectors.model_build", None),
    ("qdetchar.cli", "estimator_report", "retrodiction.estimator_report", None),
    ("qdetchar.cli", "retrodict_ensemble", "retrodiction.retrodict_ensemble", None),
    ("qdetchar.cli", "wigner", _wigner_layer, None),
    ("qdetchar.cli", "witness_report", "phasespace.witness_report", None),
    ("qdetchar.cli", "retrodictive_limit_scan", "herald.limit_scan", None),
    ("qdetchar.herald", "heralded_closed_form", "herald.closed_form", None),
    ("qdetchar.herald", "tmsv", "herald.joint", None),
    ("qdetchar.herald", "heralded_state", "herald.joint", None),
    ("qdetchar.herald", "heralded_state_from_joint", "herald.joint", _joint_bytes),
]

ROOT = "bench"


class Tracer:
    """Records spans ``(id, parent, layer, duration, self time)`` in memory."""

    def __init__(self):
        self.recording = False
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []  # [span id, layer, start ns, child ns]
        self._next_id = 0
        self._saved = []

    # -- spans
    def _open(self, layer):
        self._next_id += 1
        self._stack.append([self._next_id, layer, _perf(), 0])

    def _close(self):
        span_id, layer, start, child = self._stack.pop()
        dur = _perf() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append((span_id, parent[0] if parent else 0, layer, dur, dur - child))

    def run_root(self, fn):
        """Run one operation inside a root span, recording its children."""
        self.recording = True
        self._open(ROOT)
        try:
            return fn()
        finally:
            self._close()
            self.recording = False

    # -- wrapping
    def _wrapper(self, fn, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            name = layer(args, kwargs, self.counts) if callable(layer) else layer
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                counter(args, kwargs, result, self.counts)
            return result

        return traced

    def install(self):
        for modname, attr, layer, counter in WRAPS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(fn, layer, counter))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self):
        """Return and clear the spans and counts recorded so far."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(float)
        return spans, counts


def self_ms(spans) -> dict:
    """Self time per layer, in milliseconds."""
    out = defaultdict(float)
    for _, _, layer, _, self_ns in spans:
        out[layer] += self_ns / 1e6
    return dict(out)

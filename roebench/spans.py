"""Span tracing around roelab's public functions, installed from outside.

`Tracer.install` wraps each target function or method so that every call
records a span (id, parent id, name, start, end, op).  Module-level
functions are replaced in every roelab module that holds a reference to
them, since `from .operators import spectral_norm` copies the reference;
methods are replaced on their class.  Targets that no longer exist are
skipped.  `uninstall` puts every original back.

Spans live in per-thread arrays (sweep runs seeds on a thread pool), are
kept in memory while the benchmark runs, and are written out once at the
end.  A span's self time is its duration minus the durations of its
child spans on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# (module, attribute path, span name); the span name is the layer metric prefix
TARGETS = [
    ("roelab.spaces", "FiniteMetricSpace.__init__", "spaces.FiniteMetricSpace"),
    ("roelab.serialize", "read_operator", "serialize.read_operator"),
    ("roelab.serialize", "load_space", "serialize.load_space"),
    ("roelab.serialize", "write_operator", "serialize.write_operator"),
    ("roelab.serialize", "report_bytes", "serialize.report_bytes"),
    ("roelab.operators", "BlockOperator.unitarity_residual", "operators.unitarity_residual"),
    ("roelab.operators", "spectral_norm", "operators.spectral_norm"),
    ("roelab.operators", "BlockOperator.corner_norm", "operators.corner_norm"),
    ("roelab.operators", "BlockOperator.band_parts", "operators.band_parts"),
    ("roelab.operators", "random_band_unitary", "operators.random_band_unitary"),
    ("roelab.extraction", "corner_norm_table", "extraction.corner_norm_table"),
    ("roelab.extraction", "minimal_radius", "extraction.minimal_radius"),
    ("roelab.maps", "PointMap.modulus", "maps.modulus"),
    ("roelab.locality", "quasi_locality_violation", "locality.quasi_locality_violation"),
    ("roelab.locality", "approximability_window", "locality.approximability_window"),
    ("roelab.covering", "covering_unitary", "covering.covering_unitary"),
    ("roelab.covering", "outer_roundtrip", "covering.outer_roundtrip"),
    ("roelab.cli", "main", "cli.main"),
    ("roelab.cli", "_cmd_sweep", "cli.sweep"),
    ("roelab.cli", "_sweep_one", "cli.sweep_one"),
]

_COLUMNS = (("id", "q"), ("parent", "q"), ("name", "q"), ("op", "q"),
            ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.op = -1  # index of the op being run; set by the caller
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[dict] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            columns = {key: array(code) for key, code in _COLUMNS}
            state = self._local.state = ([], columns)
            with self._lock:
                self._buffers.append(columns)
        return state

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, columns = self._thread_state()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                columns["id"].append(span_id)
                columns["parent"].append(parent)
                columns["name"].append(name_id)
                columns["op"].append(self.op)
                columns["start"].append(start)
                columns["end"].append(end)

        return traced

    # -- patching --------------------------------------------------------

    @staticmethod
    def _program_modules():
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "roelab" or name.startswith("roelab."))]

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; returns the span names skipped."""
        skipped = []
        for module_name, path, span_name in targets:
            module = sys.modules.get(module_name)
            *owners, attr = path.split(".")
            owner = module
            for part in owners:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                skipped.append(span_name)
                continue
            wrapped = self.wrap(span_name, original)
            if owners:  # a method: patch the class that defines it
                self._patches.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, wrapped)
                continue
            for mod in self._program_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, True))
                        setattr(mod, key, wrapped)
        return skipped

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def spans(self) -> dict:
        """All recorded spans as numpy columns, sorted by span id."""
        with self._lock:
            buffers = list(self._buffers)
        cols = {key: np.concatenate([np.asarray(b[key]) for b in buffers] or [np.zeros(0, code)])
                for key, code in _COLUMNS}
        order = np.argsort(cols["id"], kind="stable")
        return {key: col[order] for key, col in cols.items()}

    def save(self, path) -> None:
        cols = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **cols)


def layer_totals(names: list[str], cols: dict, nested=()) -> dict:
    """Per span name: call count and total self time.  For each (child,
    parent) pair in `nested`, also the number of child spans whose direct
    parent is a parent span, keyed by the pair."""
    duration = cols["end"] - cols["start"]
    n = duration.size
    if not np.array_equal(cols["id"], np.arange(n)):
        raise ValueError("span ids are not dense; a span was still open")
    has_parent = cols["parent"] >= 0
    child_time = np.bincount(cols["parent"][has_parent], weights=duration[has_parent],
                             minlength=n)
    self_time = duration - child_time
    parent_name = np.full(n, -1)
    parent_name[has_parent] = cols["name"][cols["parent"][has_parent]]
    totals = {}
    for name_id, name in enumerate(names):
        mine = cols["name"] == name_id
        totals[name] = {"calls": int(mine.sum()), "self_s": float(self_time[mine].sum()),
                        "total_s": float(duration[mine].sum())}
    for child, parent in nested:
        mine = cols["name"] == names.index(child) if child in names else np.zeros(n, bool)
        above = names.index(parent) if parent in names else -2
        totals[(child, parent)] = int((mine & (parent_name == above)).sum())
    return totals

"""Span recorder and the per-layer instrumentation of cinecho.

Spans are kept in memory (id, parent id, name, start, end) and written out
when the benchmark ends.  Each traced function is wrapped where it is looked
up at call time: modules that import a name directly (``trial`` imports
``apply_stcsf``, ``harness`` imports ``run_trial``) are patched in the
importing module, so the package itself is never edited.

Only the calling process is traced: sweep points computed in pool workers
would record nothing.  Import this module only after the BLAS thread cap is
set: it imports numpy.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# bytes moved by one fftn/ifftn pair on an n-voxel real stack, computed from
# array sizes: fftn reads 8n and writes 16n, ifftn reads 16n and writes 16n
FFT_BYTES_PER_VOXEL = 8 + 16 + 16 + 16


class Recorder:
    """In-memory spans plus exact counters of one benchmark process."""

    def __init__(self):
        self.spans = []          # (id, parent, name, start, end)
        self.counts = Counter()
        self.stack = []
        self._seq = 0
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """A stand-in for fn that records one span per call.

        count(counts, args, kwargs, result) adds exact counts after the call.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            recorder._seq += 1
            span_id = recorder._seq
            parent = recorder.stack[-1] if recorder.stack else None
            recorder.stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                recorder.stack.pop()
                recorder.spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(recorder.counts, args, kwargs, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def replace(self, owner, attr, new) -> None:
        """Set owner.attr to new until unpatch_all."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr, name, count=None):
        """Trace owner.attr under the given span name until unpatch_all."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        spans = [dict(zip(("id", "parent", "name", "start", "end"), s))
                 for s in self.spans]
        path.write_text(json.dumps({"spans": spans,
                                    "counts": dict(self.counts)}))


# ---------------------------------------------------------------------------
# exact counters


def _count_points(counts, args, kwargs, result):
    counts["csf.stcsf.points"] += int(np.broadcast(args[0], args[1]).size)


def _count_fft_bytes(counts, args, kwargs, result):
    counts["percept.fft_bytes"] += FFT_BYTES_PER_VOXEL * int(np.size(args[0]))


def _count_ridge(counts, args, kwargs, result):
    counts["observer.templates_trained"] += 1
    counts["observer.templates_ridged"] += int(result[3] > 0)


def _file_bytes(path) -> int:
    return os.path.getsize(path) + os.path.getsize(str(path) + ".hdr")


def _count_written(counts, args, kwargs, result):
    counts["stacks.bytes_written"] += _file_bytes(args[1])


def _count_read(counts, args, kwargs, result):
    counts["stacks.bytes_read"] += _file_bytes(args[0])


def instrument(recorder: Recorder) -> None:
    """Patch every traced cinecho function; recorder.unpatch_all undoes it."""
    from cinecho import harness, observer, percept, stacks, trial
    from cinecho.display import DisplayModel
    from cinecho.errors import LesionClippingWarning

    insert_lesion = stacks.insert_lesion

    @functools.wraps(insert_lesion)
    def counted_insert(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = insert_lesion(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, LesionClippingWarning):
                recorder.counts["stacks.lesion_clipping_warnings"] += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    recorder.replace(stacks, "insert_lesion", counted_insert)
    p = recorder.patch
    p(DisplayModel, "code_to_luminance", "display.code_to_luminance")
    p(trial, "apply_stcsf", "percept.apply_stcsf")
    p(percept, "taper_margins", "percept.taper_margins")
    p(percept, "filter_contrast", "percept.filter_contrast",
      count=_count_fft_bytes)
    p(percept, "transfer_gain", "percept.transfer_gain")
    p(percept, "stcsf", "csf.stcsf", count=_count_points)
    p(percept, "derive_optics", "csf.derive_optics")
    p(trial, "lg_channel_bank", "observer.lg_channel_bank")
    p(trial, "channelize_slices", "observer.channelize_slices")
    p(trial, "train_mscho_from_responses",
      "observer.train_mscho_from_responses")
    p(observer, "hotelling_template", "observer.hotelling_template",
      count=_count_ridge)
    p(trial, "score_responses", "observer.score_responses")
    p(trial, "run_trial", "trial.run_trial")
    p(harness, "run_trial", "trial.run_trial")
    p(trial, "split_dataset", "trial.split_dataset")
    p(trial, "auc_wilcoxon", "trial.auc_wilcoxon")
    p(trial, "one_shot_mrmc", "trial.one_shot_mrmc")
    p(stacks, "generate_dataset", "stacks.generate_dataset")
    p(stacks, "generate_background", "stacks.generate_background")
    p(stacks, "insert_lesion", "stacks.insert_lesion")
    p(stacks, "write_dataset", "stacks.write_dataset")
    p(stacks, "read_dataset", "stacks.read_dataset")
    p(stacks, "write_stack", "stacks.write_stack", count=_count_written)
    p(stacks, "read_stack", "stacks.read_stack", count=_count_read)
    p(harness, "run_sweep", "harness.run_sweep")
    p(harness, "emit_csv", "harness.emit_csv")
    p(harness, "emit_svg_plot", "harness.emit_svg_plot")


# ---------------------------------------------------------------------------
# per-layer summary


def layer_stats(recorder: Recorder) -> dict:
    """Totals per span name: s, self_s, calls and per-call latencies.

    self_s is a span's duration minus the time its child spans cover; the
    children of one span run one after another, so their durations add.
    """
    covered = Counter()
    for _, parent, _, start, end in recorder.spans:
        if parent is not None:
            covered[parent] += end - start
    stats = {}
    for span_id, _, name, start, end in recorder.spans:
        entry = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                        "durations": []})
        duration = end - start
        entry["s"] += duration
        entry["self_s"] += duration - covered[span_id]
        entry["calls"] += 1
        entry["durations"].append(duration)
    return stats


def percentile_ms(durations, q: int) -> float:
    """The q-th percentile of durations in ms (0.0 without samples)."""
    if len(durations) < 2:
        return 1e3 * durations[0] if durations else 0.0
    return 1e3 * statistics.quantiles(durations, n=100,
                                      method="inclusive")[q - 1]

"""Spans around the public functions of each ssbc module, kept in memory.

A traced run replaces each function listed in ``targets`` by a wrapper at
the attribute its callers look up (``ssbc.encoder.affinity_matrix`` for the
call inside ``ssbc_train``, ``FdSketch.insert`` on the class for every
sketch). Each call records a span: name, start, end and the index of the
span that was open when it began. Nothing under ``src/`` changes; the
wrappers are removed again before the benchmark checks the outputs.

A span's self time is its duration minus the durations of its direct
children. The program is single-threaded, so children nest inside their
parent and never overlap.
"""

import functools
import statistics
import time


def targets(ssbc):
    """(owner, attribute, span name) for every wrapped function.

    The span name's prefix is the layer: the module that defines the
    function, whatever module the caller looked it up in.
    """
    aff, base, data, enc, ev, fmt = (ssbc.affinity, ssbc.baselines, ssbc.data,
                                     ssbc.encoder, ssbc.evaluation, ssbc.formats)
    sketch_cls = ssbc.sketch.FdSketch
    return [
        (data, "synth_uniform", "data.synth_uniform"),
        (data, "split", "data.split"),
        (aff, "estimate_sigma_nn", "affinity.estimate_sigma_nn"),
        (enc, "affinity_matrix", "affinity.affinity_matrix"),
        (enc, "affinity_vector", "affinity.affinity_vector"),
        (sketch_cls, "insert", "sketch.insert"),
        (sketch_cls, "shrink", "sketch.shrink"),
        (sketch_cls, "basis", "sketch.basis"),
        (enc, "ssbc_train", "encoder.ssbc_train"),
        (enc, "ssbc_encode_batch", "encoder.ssbc_encode_batch"),
        (enc, "ssbc_process_online", "encoder.ssbc_process_online"),
        (enc, "sign_project", "encoder.sign_project"),
        (enc, "signs", "encoder.signs"),
        (base, "signs", "encoder.signs"),
        (base, "lsh_train", "baselines.lsh_train"),
        (base, "lsh_encode_batch", "baselines.lsh_encode_batch"),
        (ev, "ground_truth", "evaluation.ground_truth"),
        (ev, "hamming_matrix", "evaluation.hamming_matrix"),
        (ev, "pr_curve", "evaluation.pr_curve"),
        (ev, "rank_by_hamming", "evaluation.rank_by_hamming"),
        (ev, "mean_average_precision", "evaluation.mean_average_precision"),
        (ev, "evaluate_retrieval", "evaluation.evaluate_retrieval"),
        (fmt, "write_codes", "formats.write_codes"),
        (fmt, "write_json", "formats.write_json"),
        (fmt, "write_reports_csv", "formats.write_reports_csv"),
    ]


class Tracer:
    """Nested spans in memory; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []
        self._saved = []

    def begin(self, name):
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.parents.append(self._open[-1] if self._open else -1)
        self._open.append(len(self.names) - 1)

    def end(self):
        self.ends[self._open.pop()] = time.perf_counter()

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()
        return traced

    def install(self, wraps):
        for owner, attr, name in wraps:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def summary(self):
        """Per span name: call count, durations, and self times, grouped by
        the root span ("bench.setup" or "bench.round") each call ran under."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        self_t = list(dur)
        root = list(range(n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                self_t[p] -= dur[i]
                root[i] = root[p]
        out = {}
        for i in range(n):
            key = (self.names[root[i]], self.names[i])
            entry = out.setdefault(key, {"calls": 0, "dur": [], "self": 0.0})
            entry["calls"] += 1
            entry["dur"].append(dur[i])
            entry["self"] += self_t[i]
        return out


class LayerStats:
    """Per-setup plus per-round figures from a Tracer summary."""

    def __init__(self, summary, setups, rounds):
        self.summary = summary
        self.per = {"bench.setup": setups, "bench.round": rounds}

    def _entries(self, names):
        for (root, name), entry in self.summary.items():
            if name in names and root in self.per:
                yield self.per[root], entry

    def calls(self, *names):
        total = sum(e["calls"] / per for per, e in self._entries(names))
        return int(total) if total == int(total) else total

    def self_s(self, *names):
        return sum(e["self"] / per for per, e in self._entries(names))

    def median_ms(self, *names):
        durs = [d for _, e in self._entries(names) for d in e["dur"]]
        return 1e3 * statistics.median(durs) if durs else 0.0

"""Span tracer for the traced run.

The tracer replaces, by attribute, the functions each layer calls in the
next one down (for example `grandnoma.link.orbgrand_decode`, the name the
link module calls, or `grandnoma.harness.run_trial`) with a wrapper that
records a span: name, start, end, parent span and trial id.  Nothing under
`src/` is edited, and `uninstall` restores every attribute.  Spans stay in
memory in flat arrays until the run ends.

Span names are `<layer>.<what>`; the layer is the `grandnoma` module whose
code runs inside the span.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import grandnoma.crc
import grandnoma.grand
import grandnoma.harness
import grandnoma.link

# (owner, attribute, span name).  The owner is the module (or class) through
# which the caller looks the function up, so the wrapper sees every call.
LAYER_FUNCTIONS = [
    (grandnoma.harness, "run_point", "harness.run_point"),
    (grandnoma.harness, "_run_batch", "harness.batch"),
    (grandnoma.harness, "derive_trial_rng", "harness.rng"),
    (grandnoma.harness, "run_trial", "link.trial"),
    (grandnoma.link, "draw_trial", "link.draw"),
    (grandnoma.link, "simulate_trial", "link.simulate"),
    (grandnoma.link, "transmit", "link.transmit"),
    (grandnoma.link, "receive_user2", "link.receive_user2"),
    (grandnoma.link, "sic_user1", "link.sic_user1"),
    (grandnoma.link, "receive_user1", "link.receive_user1"),
    (grandnoma.link, "awgn_channel", "phy.channel"),
    (grandnoma.link, "rayleigh_channel", "phy.channel"),
    (grandnoma.link, "bpsk_modulate", "phy.modulate"),
    (grandnoma.link, "superimpose", "phy.superimpose"),
    (grandnoma.link, "propagate", "phy.propagate"),
    (grandnoma.link, "equalize", "phy.equalize"),
    (grandnoma.link, "hard_demod", "phy.hard_demod"),
    (grandnoma.link, "effective_noise_variance", "phy.noise_variance"),
    (grandnoma.link, "compute_llrs", "phy.llr"),
    (grandnoma.link, "crc_encode", "crc.encode"),
    (grandnoma.crc.CrcCode, "syndrome", "crc.syndrome"),
    (grandnoma.link, "orbgrand_decode", "grand.orb"),
    (grandnoma.link, "hard_grand_decode", "grand.hard"),
    (grandnoma.grand, "rank_by_reliability", "grand.rank"),
]
DECODER_SPANS = {"grand.orb": "orbgrand_decode", "grand.hard": "hard_grand_decode"}
TRIAL_SPAN = "link.trial"


class Tracer:
    """Records spans while installed; use as a context manager.

    `capture_every` > 0 also keeps copies of the arguments and results of
    the decoder calls made in every `capture_every`-th trial, for the
    reference re-decode check.
    """

    def __init__(self, capture_every: int = 0):
        self.capture_every = capture_every
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trial = array("q")
        self.decoder_span = array("q")  # span index of each decoder call
        self.queries = array("q")
        self.abandoned = array("b")
        self.captured: list[tuple[str, tuple, dict, object]] = []
        self._stack = [-1]
        self._trial_id = -1
        self._trials = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in LAYER_FUNCTIONS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span_name, start, end = self.span_name, self.start, self.end
        parent, trial, stack = self.parent, self.trial, self._stack
        clock = time.perf_counter_ns
        is_trial = name == TRIAL_SPAN
        decoder = DECODER_SPANS.get(name)

        def traced(*args, **kwargs):
            idx = len(start)
            if is_trial:
                self._trial_id = self._trials
                self._trials += 1
            span_name.append(nid)
            parent.append(stack[-1])
            trial.append(self._trial_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                if is_trial:
                    self._trial_id = -1
            if decoder is not None:
                self._record_decode(decoder, idx, args, kwargs, result)
            return result

        return traced

    def _record_decode(self, decoder: str, idx: int, args, kwargs, result) -> None:
        self.decoder_span.append(idx)
        self.queries.append(result.queries)
        self.abandoned.append(bool(result.abandoned))
        if self.capture_every and self._trial_id % self.capture_every == 0:
            copied = tuple(np.array(a) if isinstance(a, np.ndarray) else a for a in args)
            self.captured.append((decoder, copied, dict(kwargs), result))

    def spans(self) -> dict[str, np.ndarray]:
        """Span table as arrays; `self_ns` is duration minus child durations."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "trial": np.frombuffer(self.trial, dtype=np.int64),
            "dur_ns": dur,
            "self_ns": dur - child,
        }

    def write_csv(self, path) -> None:
        s = self.spans()
        t0 = int(s["start"].min()) if len(s["start"]) else 0
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,trial,self_ns\n")
            for i in range(len(s["start"])):
                fh.write(f"{i},{self.names[s['name'][i]]},{s['start'][i] - t0},"
                         f"{s['end'][i] - t0},{s['parent'][i]},{s['trial'][i]},{s['self_ns'][i]}\n")

"""In-memory span tracing of the vsr modules, installed from outside.

The tracer replaces the module-level names through which one vsr module
calls another (for example ``vsr.model.blstm_forward``, the name
``model.py`` resolves when it calls into ``layers.py``) with wrappers that
record a span per call. Nothing under ``src/`` is edited: ``uninstall``
puts every original back, so untraced work runs the unmodified program.

Each span keeps its metric key, start, end, parent span and the phase it
ran in (``setup`` or the index of a timed job). Counts (FLOP and bytes
computed from tensor shapes, calls, frames) are recorded at the same
boundaries. ``per_layer`` folds it all into the per-layer metrics, each
normalised to one setup plus one job.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import vsr.data
import vsr.evaluation
import vsr.layers
import vsr.model
import vsr.numerics
import vsr.rbm
import vsr.training

MODULES = ("numerics", "layers", "model", "rbm", "data", "training", "evaluation")

# Span keys are the names of the per-layer time metrics they feed. Spans
# with other keys (the fit, pretrain_stack, the LSTM recurrence) only feed
# their module's self time.
TIME_METRICS = (
    "numerics.adam.s", "numerics.clip.s",
    "layers.encoder.fwd_s", "layers.encoder.bwd_s", "layers.delta.fwd_s",
    "layers.delta.bwd_s", "layers.blstm.fwd_s", "layers.blstm.bwd_s",
    "layers.fusion_blstm.fwd_s", "layers.fusion_blstm.bwd_s", "layers.head.fwd_s",
    "layers.head.bwd_s", "layers.softmax_xent.s",
    "model.forward.s", "model.backward.s", "model.predict_label.s",
    "model.save_checkpoint.s", "model.load_checkpoint.s",
    "rbm.cd1.s", "data.synth.s", "data.load_utterances.s", "data.stream_features.s",
    "training.make_batches.s", "training.train_epoch.s", "training.validate.s",
    "evaluation.evaluate.s", "evaluation.model_logits.s",
)


class Tracer:
    def __init__(self):
        self.spans: list = []          # [key, start, end, parent, phase]
        self.counts: dict = defaultdict(float)   # (phase, name) -> value
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list = []
        self.missing: list[str] = []
        # parameter objects seen as classifier heads / fusion BLSTMs, so a
        # shared layer call can be attributed without reading private names
        self._heads: set[int] = set()
        self._fusion_blstms: set[int] = set()

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(self.phase, name)] += value

    def _call(self, key, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [key, 0.0, 0.0, parent, self.phase]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, owner, attr: str, key, before=None, after=None) -> None:
        """Replace owner.attr with a span-recording wrapper.

        key is a metric key or a function of the call arguments returning
        one; before/after record counts from the arguments and result.
        A name the program no longer has is listed in ``missing`` and its
        metrics read 0, so a refactor of the program cannot break the run.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            k = key(*args, **kwargs) if callable(key) else key
            if before is not None:
                before(*args, **kwargs)
            out = self._call(k, orig, args, kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._heads.clear()
        self._fusion_blstms.clear()
        self.missing.clear()
        t, m, ev, d = vsr.training, vsr.model, vsr.evaluation, vsr.data

        def note_model(model, *_a, **_k):
            if isinstance(model, m.SingleStreamModel):
                self._heads.add(id(model.head))
            elif isinstance(model, m.FusionModel):
                self._heads.add(id(model.out))
                self._fusion_blstms.add(id(model.fusion_blstm))

        for owner in (t, ev):
            self._wrap(owner, "stream_forward_batch", "model.forward.s", before=note_model)
            self._wrap(owner, "fusion_forward_batch", "model.forward.s", before=note_model)
            self._wrap(owner, "predict_label", "model.predict_label.s")
            self._wrap(owner, "stream_features", "data.stream_features.s",
                       after=lambda out, *a, **k: self.count("data.stream_features.frames",
                                                             out.shape[0]))
        self._wrap(t, "stream_backward_batch", "model.backward.s", before=note_model)
        self._wrap(t, "fusion_backward_batch", "model.backward.s", before=note_model)

        def fc_key(direction):
            return lambda layer, *a, **k: (
                f"layers.head.{direction}_s" if id(layer) in self._heads
                else f"layers.encoder.{direction}_s")

        def fc_flops(mult):
            def after(out, layer, cache_or_x, *a, **k):
                if id(layer) in self._heads:
                    return
                x = cache_or_x[0] if isinstance(cache_or_x, tuple) else cache_or_x
                rows = x.size // x.shape[-1]
                fan_out, fan_in = layer.w.shape
                self.count("layers.encoder.flop", mult * 2.0 * rows * fan_in * fan_out)
            return after

        self._wrap(m, "fc_forward", fc_key("fwd"), after=fc_flops(1))
        # backward forms both the weight and the input gradient
        self._wrap(m, "fc_backward", fc_key("bwd"), after=fc_flops(2))
        self._wrap(m, "append_deltas", "layers.delta.fwd_s")
        self._wrap(m, "append_deltas_backward", "layers.delta.bwd_s")

        def blstm_key(direction):
            return lambda bl, *a, **k: (
                f"layers.fusion_blstm.{direction}_s" if id(bl) in self._fusion_blstms
                else f"layers.blstm.{direction}_s")

        self._wrap(m, "blstm_forward", blstm_key("fwd"))
        self._wrap(m, "blstm_backward", blstm_key("bwd"))

        def lstm_steps(out, p, seq, *a, **k):
            self.count("layers.lstm.calls")
            self.count("layers.lstm.steps", seq.shape[0])

        self._wrap(vsr.layers, "lstm_forward", "layers.lstm.fwd", after=lstm_steps)
        self._wrap(t, "softmax_xent", "layers.softmax_xent.s")

        def adam_count(out, opt, params, grads, lr):
            self.count("numerics.adam.calls")
            for p in params.values():
                self.count("numerics.adam.params", p.size)
                # read param, grad, m, v; write param, m, v
                self.count("numerics.adam.bytes", 7.0 * p.size * p.itemsize)

        self._wrap(vsr.numerics.Adam, "step", "numerics.adam.s", after=adam_count)

        def clip_count(out, *a, **k):
            self.count("numerics.clip.calls")
            self.count("numerics.clip.fired", float(out[1] < 1.0))

        self._wrap(t, "clip_global_norm", "numerics.clip.s", after=clip_count)

        def ckpt_bytes(out, path, *a, **k):
            self.count("model.checkpoint.saves")
            self.count("model.checkpoint.bytes", os.path.getsize(path))

        self._wrap(m, "save_checkpoint", "model.save_checkpoint.s", after=ckpt_bytes)
        self._wrap(m, "load_checkpoint", "model.load_checkpoint.s")

        def cd1_flops(out, rbm, batch, *a, **k):
            hidden, visible = rbm.w.shape
            self.count("rbm.cd1.calls")
            # four visible<->hidden products plus the two weight-gradient ones
            self.count("rbm.flop", 12.0 * batch.shape[0] * visible * hidden)

        self._wrap(vsr.rbm, "cd1_update", "rbm.cd1.s", after=cd1_flops)
        self._wrap(vsr.rbm, "pretrain_stack", "rbm.pretrain_stack")
        self._wrap(d, "synth_generate", "data.synth.s")
        self._wrap(d, "load_utterances", "data.load_utterances.s")
        self._wrap(d, "load_utterance", "data.load_utterance",
                   after=lambda out, *a, **k: self.count("data.bytes_read", out.nbytes + 18))

        def batch_fill(batches, *a, **k):
            for b in batches:
                self.count("training.valid_frames", sum(b.lengths))
                self.count("training.padded_slots", b.mask.size)

        self._wrap(t, "make_batches", "training.make_batches.s", after=batch_fill)
        self._wrap(t, "train_epoch", "training.train_epoch.s")
        self._wrap(t, "_validation_accuracy", "training.validate.s")
        self._wrap(t, "train_stream", "training.fit")
        self._wrap(t, "train_fusion", "training.fit")
        self._wrap(ev, "evaluate", "evaluation.evaluate.s")
        self._wrap(ev, "model_logits", "evaluation.model_logits.s",
                   after=lambda out, *a, **k: self.count("evaluation.model_logits.calls"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- aggregation -------------------------------------------------------

    def per_layer(self, n_setups: int, n_jobs: int, overhead_frac: float) -> dict:
        """Per-layer metric values for one setup plus one job, by metric name.

        Totals from the setup phase are divided by n_setups and totals from
        traced jobs by n_jobs, then added.
        """
        def per_run(phase_totals: dict) -> float:
            return (phase_totals.get("setup", 0.0) / max(n_setups, 1)
                    + phase_totals.get("job", 0.0) / max(n_jobs, 1))

        times = defaultdict(lambda: defaultdict(float))
        selfs = defaultdict(lambda: defaultdict(float))
        child = [0.0] * len(self.spans)
        for key, t0, t1, parent, phase in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (key, t0, t1, parent, phase) in enumerate(self.spans):
            bucket = "setup" if phase == "setup" else "job"
            times[key][bucket] += t1 - t0
            selfs[key.split(".")[0]][bucket] += (t1 - t0) - child[idx]
        counts = defaultdict(lambda: defaultdict(float))
        for (phase, name), value in self.counts.items():
            counts[name]["setup" if phase == "setup" else "job"] += value

        def total(name):
            return sum(counts[name].values())

        values = {key: per_run(times[key]) for key in TIME_METRICS}
        values.update({f"{mod}.self_s": per_run(selfs[mod]) for mod in MODULES})
        for name in ("numerics.adam.calls", "layers.lstm.calls", "layers.lstm.steps",
                     "rbm.cd1.calls", "data.bytes_read", "data.stream_features.frames",
                     "evaluation.model_logits.calls"):
            values[name] = per_run(counts[name])
        values["numerics.adam.params"] = (total("numerics.adam.params")
                                          / max(total("numerics.adam.calls"), 1))
        values["numerics.adam.mbytes_computed"] = per_run(counts["numerics.adam.bytes"]) / 1e6
        values["numerics.clip.fired_frac"] = (total("numerics.clip.fired")
                                              / max(total("numerics.clip.calls"), 1))
        values["layers.encoder.gflop_computed"] = per_run(counts["layers.encoder.flop"]) / 1e9
        values["rbm.gflop_computed"] = per_run(counts["rbm.flop"]) / 1e9
        values["model.checkpoint.bytes"] = (total("model.checkpoint.bytes")
                                            / max(total("model.checkpoint.saves"), 1))
        values["training.valid_frame_frac"] = (total("training.valid_frames")
                                               / max(total("training.padded_slots"), 1))
        values["trace.overhead_frac"] = overhead_frac
        return values

    def dump(self, path: str, meta: dict) -> None:
        """Write every span (name, start, end, parent index, phase) as JSON."""
        base = self.spans[0][1] if self.spans else 0.0
        doc = {"meta": meta, "fields": ["name", "start_s", "end_s", "parent", "phase"],
               "spans": [[k, round(t0 - base, 7), round(t1 - base, 7), p, ph]
                         for k, t0, t1, p, ph in self.spans],
               "counts": {f"{ph}:{n}": v for (ph, n), v in sorted(self.counts.items(),
                                                                 key=str)}}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

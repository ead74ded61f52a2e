"""The benchmark's tracer must still find every vsr name it wraps.

perfbench/spans.py times the program by replacing module-level names
(``vsr.model.blstm_forward``, ``vsr.training.train_stream``, ...). A name
the program no longer has is skipped and its metrics read 0, and a name
the program no longer calls through records nothing, so a refactor could
quietly blind the benchmark while every other test passes.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import vsr.data
import vsr.evaluation
import vsr.model
import vsr.rbm
import vsr.training
from vsr.numerics import Rng
from vsr.rbm import PretrainConfig
from vsr.training import TrainConfig

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# training scores through vsr.evaluation.predict_label; the tracer's
# vsr.training.predict_label is stale and awaits a benchmark change
KNOWN_MISSING = {"vsr.training.predict_label"}


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_wrapped_name_exists(tracer):
    assert set(tracer.missing) <= KNOWN_MISSING


def test_a_tiny_pipeline_records_every_timed_span(tracer, tmp_path, monkeypatch):
    manifest = vsr.data.synth_generate(2, 3, 2, 5, 4, 5, 1, tmp_path / "data")
    utts = vsr.data.load_utterances(tmp_path / "data", manifest)
    samples = vsr.training.samples_from_utterances(utts, ("raw", "diff"))
    for i, s in enumerate(samples):  # mixed lengths, so B x T_max exceeds the frames
        s.streams = {k: a[:3 + i % 3] for k, a in s.streams.items()}
    batches = []
    traced_make_batches = vsr.training.make_batches

    def kept_batches(*args, **kwargs):
        out = traced_make_batches(*args, **kwargs)
        batches.extend(out)
        return out

    monkeypatch.setattr(vsr.training, "make_batches", kept_batches)
    frames = np.concatenate([s.streams["raw"] for s in samples])
    layers, _ = vsr.rbm.pretrain_stack([20, 6, 3], frames, PretrainConfig(epochs=1, batch=8))
    shape = dict(encoder_sizes=(6,), bottleneck=3)
    raw = vsr.model.build_stream(20, 2, 3, Rng(1), "raw", encoder_init=layers, **shape)
    diff = vsr.model.build_stream(20, 2, 3, Rng(2), "diff", **shape)
    raw, _ = vsr.training.train_stream(raw, samples, samples,
                                       TrainConfig.for_stream(max_epochs=1))
    fused, _ = vsr.training.train_fusion(raw, diff, samples, samples,
                                         TrainConfig.for_fusion(max_epochs=1))
    vsr.model.save_checkpoint(tmp_path / "f.ckpt", fused)
    vsr.model.load_checkpoint(tmp_path / "f.ckpt")
    vsr.evaluation.evaluate(fused, utts, 2)
    recorded = {span[0] for span in tracer.spans}
    assert set(spans.TIME_METRICS) - recorded == set()

    # the tracer's batch counts: padded slots are B x T_max per batch, what a
    # padded layout would hold (no layer pads), valid frames the frames
    # trained (one epoch per fit)
    counts = {name: sum(n for (_, key), n in tracer.counts.items() if key == name)
              for name in ("training.valid_frames", "training.padded_slots")}
    trained = 2 * sum(s.streams["raw"].shape[0] for s in samples)
    assert counts["training.valid_frames"] == trained
    assert counts["training.padded_slots"] == sum(len(b.lengths) * max(b.lengths)
                                                  for b in batches)
    assert counts["training.padded_slots"] > trained


def test_scoring_alone_records_the_forward_span(tracer, tmp_path):
    """evaluate reaches the model through the tracer's forward wraps, so a
    scoring path around them would read 0 in model.forward.s."""
    manifest = vsr.data.synth_generate(2, 3, 1, 4, 4, 5, 1, tmp_path / "data")
    utts = vsr.data.load_utterances(tmp_path / "data", manifest)
    shape = dict(encoder_sizes=(6,), bottleneck=3)
    raw = vsr.model.build_stream(20, 2, 3, Rng(1), "raw", **shape)
    diff = vsr.model.build_stream(20, 2, 3, Rng(2), "diff", **shape)
    for model in (raw, vsr.model.build_fusion(raw, diff, 3, Rng(3))):
        tracer.spans.clear()
        vsr.evaluation.evaluate(model, utts, 2)
        assert "model.forward.s" in {span[0] for span in tracer.spans}

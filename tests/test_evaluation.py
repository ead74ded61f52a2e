import json

import numpy as np
import pytest

import vsr.evaluation as evaluation
from oracles import ref_mean_std
from vsr.data import LoadedUtterance
from vsr.evaluation import (
    EvalReport,
    RunAggregate,
    aggregate_runs,
    evaluate,
    format_percent,
    render_report,
)
from vsr.model import EncoderStack, build_stream
from vsr.numerics import Rng


def tiny_model(classes=2, dtype=np.float64):
    return build_stream(input_dim=9, classes=classes, hidden=2, rng=Rng(0),
                        encoder_sizes=(4,), bottleneck=2, dtype=dtype)



def test_model_logits_names_a_model_it_cannot_score():
    stack = EncoderStack(layers=tiny_model().net.encoder)
    with pytest.raises(TypeError, match="EncoderStack"):
        evaluation.model_logits(stack, [{"raw": np.zeros((4, 9))}])

def fake_utts(labels, subjects):
    rng = Rng(1)
    return [LoadedUtterance(path=f"u{i}.vsru", subject=s, label=l,
                            frames=rng.integers(256, (4, 3, 3)).astype(np.uint8))
            for i, (l, s) in enumerate(zip(labels, subjects))]


def scripted_logits(predictions):
    """Replacement for evaluation.model_logits: plays back fixed predictions."""
    queue = list(predictions)

    def fake(model, chunk):
        rows = []
        for _ in chunk:
            row = np.zeros((1, model.classes))
            row[0, queue.pop(0)] = 10.0
            rows.append(row)
        return rows

    return fake


def test_evaluate_counts_by_hand(monkeypatch):
    """Truth [0, 0, 1], predictions [0, 1, 1]: accuracy 2/3 and the
    confusion matrix fills by (true row, predicted column)."""
    model = tiny_model(classes=2)
    utts = fake_utts([0, 0, 1], ["sa", "sa", "sb"])
    monkeypatch.setattr(evaluation, "model_logits", scripted_logits([0, 1, 1]))
    report = evaluate(model, utts, n_classes=2, split="test", checkpoint="x.ckpt")
    assert report.accuracy == pytest.approx(2 / 3, abs=1e-12)
    assert report.confusion.tolist() == [[1, 1], [0, 1]]
    assert report.n_utterances == 3
    assert report.per_subject == {
        "sa": {"n_utterances": 2, "accuracy": 0.5},
        "sb": {"n_utterances": 1, "accuracy": 1.0},
    }
    assert report.split == "test" and report.checkpoint == "x.ckpt"


def test_evaluate_confusion_row_sums_are_class_counts(monkeypatch):
    model = tiny_model(classes=3)
    labels = [0, 1, 2, 2, 1, 0, 1]
    utts = fake_utts(labels, ["s"] * 7)
    monkeypatch.setattr(evaluation, "model_logits",
                        scripted_logits([2, 1, 0, 2, 1, 1, 0]))
    report = evaluate(model, utts, n_classes=3)
    assert report.confusion.sum() == 7
    assert report.confusion.sum(axis=1).tolist() == [2, 3, 2]
    assert report.accuracy == pytest.approx(np.trace(report.confusion) / 7)


def test_evaluate_order_invariance():
    model = tiny_model(classes=2)
    utts = fake_utts([0, 1, 0, 1, 1], ["sa", "sb", "sa", "sb", "sc"])
    a = evaluate(model, utts, n_classes=2)
    b = evaluate(model, utts[::-1], n_classes=2)
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.confusion, b.confusion)
    assert a.per_subject == b.per_subject


def test_evaluate_rejects_empty_and_mismatched():
    model = tiny_model(classes=2)
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, [], n_classes=2)
    with pytest.raises(ValueError, match="classes"):
        evaluate(model, fake_utts([0], ["s"]), n_classes=5)


def test_aggregate_hand_case():
    agg = aggregate_runs([0.90, 0.94], seeds=[0, 1])
    assert agg.mean == pytest.approx(0.92, abs=1e-15)
    assert agg.std == pytest.approx(0.0282842712474619, abs=1e-13)
    assert agg.max == 0.94


def test_aggregate_single_run_has_zero_std():
    agg = aggregate_runs([0.8], seeds=[3])
    assert agg.std == 0.0
    assert agg.mean == agg.max == 0.8


def test_aggregate_matches_streaming_reference():
    rng = Rng(2)
    accs = [float(a) for a in rng.uniform(0.5, 1.0, (9,))]
    agg = aggregate_runs(accs, seeds=list(range(9)))
    mean, std = ref_mean_std(accs)
    assert agg.mean == pytest.approx(mean, abs=1e-12)
    assert agg.std == pytest.approx(std, abs=1e-12)


def test_aggregate_validation():
    with pytest.raises(ValueError):
        aggregate_runs([], seeds=[])
    with pytest.raises(ValueError):
        aggregate_runs([0.5], seeds=[1, 2])


def test_format_percent_cases():
    assert format_percent(0.936) == "93.6"
    assert format_percent(0.01) == "1.0"
    assert format_percent(1.0) == "100.0"
    assert format_percent(0.0) == "0.0"
    assert format_percent(0.9349) == "93.5"
    assert format_percent(0.95649) == "95.6"
    # the half case rounds away from zero, not to even
    assert format_percent(0.0865) == "8.7"
    assert format_percent(0.0875) == "8.8"


def test_render_aggregate_text_row():
    agg = aggregate_runs([0.946, 0.926, 0.936], seeds=[0, 1, 2])
    text = render_report(agg, "text")
    assert "Mean (Std) | Max" in text
    assert "93.6 (1.0) | 94.6" in text
    assert "runs: 3" in text


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_render_aggregate_is_text_only(fmt):
    # repeat prints the text table and writes its JSON from the aggregate's fields
    with pytest.raises(ValueError, match=f"renders as text, not '{fmt}'"):
        render_report(aggregate_runs([0.5, 0.75], seeds=[7, 8]), fmt)


def sample_report():
    return EvalReport(
        accuracy=0.75,
        per_subject={"sa": {"n_utterances": 2, "accuracy": 0.5},
                     "sb": {"n_utterances": 2, "accuracy": 1.0}},
        confusion=np.array([[2, 0], [1, 1]]),
        n_utterances=4, split="test", checkpoint="m.ckpt")


def test_render_report_text_sections():
    rep = sample_report()
    full = render_report(rep, "text")
    assert "75.0" in full
    assert "sa" in full and "sb" in full
    bare = render_report(rep, "text", per_subject=False, confusion=False)
    assert "sa" not in bare
    assert "75.0" in bare


def test_render_report_empty_per_subject_section_omitted():
    rep = sample_report()
    rep.per_subject = {}
    text = render_report(rep, "text")
    assert "subject" not in text.lower()


def test_render_report_csv_columns():
    lines = render_report(sample_report(), "csv").strip().splitlines()
    assert lines[0] == "subject,n_utterances,accuracy"
    assert lines[1].split(",")[0] == "sa"
    assert len(lines) == 3


def test_render_report_json_parses_and_reproduces():
    doc = render_report(sample_report(), "json")
    parsed = json.loads(doc)
    assert parsed["accuracy"] == 0.75
    assert parsed["confusion"] == [[2, 0], [1, 1]]
    assert json.dumps(parsed, indent=2, sort_keys=True) == doc


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_report(sample_report(), "yaml")


def test_evaluate_real_model_end_to_end(bench):
    """No stubbing: a real (untrained) model walks real utterances."""
    model = build_stream(input_dim=26 * 44, classes=4, hidden=2, rng=Rng(3),
                         encoder_sizes=(8,), bottleneck=2)
    report = evaluate(model, bench.test, n_classes=4, split="test")
    assert report.n_utterances == 20
    assert 0.0 <= report.accuracy <= 1.0
    assert report.confusion.sum() == 20
    assert sum(v["n_utterances"] for v in report.per_subject.values()) == 20

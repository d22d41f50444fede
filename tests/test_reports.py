"""Accuracy-report pipeline + multi-language sectioning tests."""

from __future__ import annotations

import pytest


@pytest.mark.requires_corpus
def test_accuracy_report_limited(ray_session, models_dir, tmp_path):
    from tiny_lingua_ray.pipelines.accuracy_report import (
        run_accuracy_report,
        write_reports,
    )

    langs = ("en", "de", "es", "fr", "ru", "zh")
    agg = run_accuracy_report(
        languages=langs, limit_per_file=50, concurrency=2
    )
    assert set(agg["true_lang"]) == set(langs)
    assert set(agg["split"]) == {"single-words", "word-pairs", "sentences"}
    # sentences (held-in) must be near-perfect; single-words decent
    sent = agg[agg["split"] == "sentences"]
    assert sent["accuracy_pct"].mean() > 90

    out = write_reports(agg, tmp_path / "reports")
    assert (out / "aggregated-accuracy-values.csv").exists()
    assert (out / "English.txt").read_text().startswith("##### English")


def test_per_mode_model_dirs():
    """Round 5: the two accuracy modes read distinct model artifacts with
    distinct training mixtures (models/train.py per-mode rationale)."""
    from tiny_lingua_ray.models.train import (
        DEFAULT_TRAIN_SPLITS,
        LOW_MODE_TRAIN_SPLITS,
        default_models_dir,
    )

    assert default_models_dir(low_mode=True) != default_models_dir()
    assert set(LOW_MODE_TRAIN_SPLITS) == {
        "sentences", "word-pairs", "single-words",
    }
    # the high tables must NOT include the single-words-weighted mix
    # (golden multilang fixtures pin high-mode behavior)
    assert "single-words" not in DEFAULT_TRAIN_SPLITS


def test_train_splits_marker(tmp_path):
    """Per-mode model dirs carry a _train_splits.txt provenance marker:
    a crossed-mode request (high-mixture dir handed to a low-mode build,
    or vice versa) must hard-error instead of silently scoring with the
    wrong mixture; pre-provenance dirs are adopted (review r5)."""
    from tiny_lingua_ray.models.train import ensure_models

    d = tmp_path / "models"
    ensure_models(d, languages=("en",), use_ray=False)
    marker = d / "_train_splits.txt"
    assert marker.read_text().strip() == "sentences,word-pairs"
    # same-mode re-ensure is a no-op; crossed-mode raises
    ensure_models(d, languages=("en",), use_ray=False)
    with pytest.raises(ValueError, match="must not be crossed"):
        ensure_models(d, languages=("en",), use_ray=False, low_mode=True)
    # legacy adoption: populated dir without a marker gets one written
    marker.unlink()
    ensure_models(d, languages=("en",), use_ray=False)
    assert marker.exists()


def test_ensure_models_refuses_empty_corpus(tmp_path, monkeypatch):
    """A corpus without lines for a language must raise, not train 0-row
    tables that score every text 'unknown'; a 0-row table already in the
    cache is not adopted as built."""
    from tiny_lingua_ray.models import train as mtrain

    monkeypatch.setattr(mtrain, "CORPUS_DIR", tmp_path / "missing")
    with pytest.raises(mtrain.CorpusNotFoundError, match="does not exist"):
        mtrain.ensure_models(tmp_path / "m0", languages=("en",), use_ray=False)

    empty = tmp_path / "corpus"
    (empty / "sentences").mkdir(parents=True)
    monkeypatch.setattr(mtrain, "CORPUS_DIR", empty)
    d = tmp_path / "models"
    with pytest.raises(mtrain.CorpusNotFoundError, match="'en'"):
        mtrain.ensure_models(d, languages=("en",), use_ray=False)
    assert not (d / "en" / "low.parquet").exists()

    mtrain._write_model_file(d / "en" / "low.parquet", {})
    mtrain._write_model_file(d / "en" / "high.parquet", {})
    with pytest.raises(mtrain.CorpusNotFoundError):
        mtrain.ensure_models(d, languages=("en",), use_ray=False)

    from tiny_lingua_ray.models import fast_text

    with pytest.raises(mtrain.CorpusNotFoundError, match="fastText"):
        fast_text.train(("en",))


def test_weighted_split_counting_matches_duplicated_lines(tmp_path, monkeypatch):
    """train_language counts each unique split once and scales by its
    weight; the resulting model file must be byte-identical to training
    over physically k-fold-duplicated lines (review r5)."""
    import pyarrow.parquet as pq

    from tiny_lingua_ray.models import train as mtrain

    corpus = tmp_path / "corpus"
    for split, text in (
        ("sentences", "the cat sat on the mat\nhello world\n"),
        ("word-pairs", "good day\nnew york\n"),
        ("single-words", "apple\nbanana\ncherry\n"),
    ):
        f = corpus / split / "xx.txt"
        f.parent.mkdir(parents=True)
        f.write_text(text, encoding="utf-8")
    monkeypatch.setattr(mtrain, "CORPUS_DIR", corpus)

    weighted = ("sentences",) + ("word-pairs",) * 3 + ("single-words",) * 5
    mtrain.train_language("xx", tmp_path / "scaled", splits=weighted)
    # duplicated-lines ground truth via the raw counting primitives
    dup = mtrain.relative_frequencies(
        mtrain.count_ngrams(mtrain.corpus_lines("xx", weighted))
    )
    got = pq.read_table(tmp_path / "scaled" / "xx" / "low.parquet")
    want = {g: f for g, f in dup.items() if len(g) <= 3}
    assert dict(
        zip(got.column("ngram").to_pylist(), got.column("freq").to_pylist())
    ) == {g: float(f) for g, f in want.items()}


def test_conformance_report_pinned_band():
    """The committed full-corpus conformance artifact (regenerated by
    tools/conformance_report.py, 75 langs x 3 splits x 1000 lines, both
    accuracy modes) must stay inside a pinned band vs the reference's
    aggregated-accuracy-values.csv.  Guards against silent accuracy
    regressions in the detector/models without re-running the 25-minute
    corpus in CI.  Measured at round 5 with PER-MODE training mixtures
    (models/train.DEFAULT_TRAIN_SPLITS / LOW_MODE_TRAIN_SPLITS):
    delta_high mean +2.65 (abs 3.25) and delta_low mean -1.16
    (abs 3.63, min -8.17) — the VERDICT item-5 target was low mean
    within +-1.5.  Round-3 reference point: delta_high +2.65,
    delta_low -3.46 (single sentences+word-pairs mixture)."""
    from pathlib import Path

    import pandas as pd

    repo = Path(__file__).resolve().parent.parent
    d = pd.read_csv(repo / "reports" / "conformance-delta.csv")
    hi = pd.read_csv(repo / "reports" / "accuracy" / "aggregated-accuracy-values.csv")
    lo = pd.read_csv(
        repo / "reports" / "accuracy-low" / "aggregated-accuracy-values.csv"
    )

    assert len(d) == 75 and len(hi) == 75 and len(lo) == 75
    assert not d["ref_lingua_high"].isna().any()
    # delta CSV must be derived from the committed per-mode CSVs
    merged = d.merge(hi[["language", "average"]], on="language")
    assert (merged["ours_high"] - merged["average"]).abs().max() < 0.01

    # pinned bands (generous vs measured, tight vs a real regression)
    assert 85 <= d["ours_high"].mean() <= 95
    assert 70 <= d["ours_low"].mean() <= 84
    assert d["delta_high"].mean() >= -2  # measured +2.65
    assert d["delta_high"].abs().mean() <= 6
    assert d["delta_high"].min() >= -10
    # round-5 target band: mean low delta within +-1.5 of the reference
    assert -1.5 <= d["delta_low"].mean() <= 1.5  # measured -1.16
    assert d["delta_low"].abs().mean() <= 5
    assert d["delta_low"].min() >= -12


@pytest.mark.requires_corpus
def test_multilang_sections(models_dir):
    from pathlib import Path

    from tiny_lingua_ray.detector import LinguaDetector
    from tiny_lingua_ray.models.loader import load_dict_models
    from tiny_lingua_ray.multilang import detect_multi_language

    det = LinguaDetector(load_dict_models(Path(models_dir)))
    text = (
        "This is an English sentence about nothing. "
        "Это русское предложение о погоде сегодня."
    )
    secs = detect_multi_language(det, text)
    assert [s["lang"] for s in secs] == ["en", "ru"]
    assert secs[0]["start"] == 0
    # section end = last LETTER (exclusive) — trailing '.' excluded
    # (PotentialSection end semantics, MultiLanguageDetection.kt:92-93)
    assert secs[-1]["end"] == len(text) - 1

    assert detect_multi_language(det, "") == []
    assert detect_multi_language(det, "12345 !!!") == []

    single = detect_multi_language(det, "just plain english text here")
    assert len(single) == 1 and single[0]["lang"] == "en"

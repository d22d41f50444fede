"""The vectorized batch scorer must agree with the pure-Python detector."""

from __future__ import annotations

import pyarrow as pa
import pytest

from tiny_lingua_ray.detector import LinguaDetector
from tiny_lingua_ray.models.loader import load_dict_models
from tiny_lingua_ray.stages.langid import LangIdScorer

ADVERSARIAL = [
    "",
    "   ",
    "1234567890",
    "!!! ??? ...",
    "a",
    "ab",
    "Ñandú corre rápido por la pampa",
    "日本語のテキストです",
    "你好世界欢迎光临",
    "Привет мир как дела",
    "γειά σου κόσμε τι κάνεις",
    "mixed 语言 text here",
    "ß ß ß",
    "the quick brown fox jumps over the lazy dog " * 5,  # >=120 chars
    "short text",
    "Üben von Xylophon und Querflöte ist ja zweckmäßig",
]


@pytest.fixture(scope="module")
def pair(small_models_dir):
    langs = ("en", "de", "es", "fr", "zh")
    det = LinguaDetector(load_dict_models(small_models_dir, langs))
    scorer = LangIdScorer(
        models_dir=str(small_models_dir), languages=langs, build_if_missing=False
    )
    return det, scorer


def _corpus_sample(n_per_lang=40):
    from tiny_lingua_ray.models.train import CORPUS_DIR

    texts = []
    for split in ("sentences", "single-words", "word-pairs"):
        for lang in ("en", "de", "es", "fr", "zh"):
            f = CORPUS_DIR / split / f"{lang}.txt"
            texts.extend(
                [
                    ln
                    for ln in f.read_text(encoding="utf-8").splitlines()[:n_per_lang]
                    if ln
                ]
            )
    return texts


def test_scorer_matches_pure_detector(pair):
    det, scorer = pair
    texts = _corpus_sample() + ADVERSARIAL
    batch = pa.table({"text": texts})
    out = scorer(batch)
    preds = out.column("pred_lang").to_pylist()
    for t, p in zip(texts, preds):
        assert p == det.detect(t), f"mismatch for {t!r}: vec={p} pure={det.detect(t)}"


def test_scorer_cache_stable_across_batches(pair):
    _, scorer = pair
    texts = _corpus_sample(10)
    b = pa.table({"text": texts})
    first = scorer(b).column("pred_lang").to_pylist()
    second = scorer(b).column("pred_lang").to_pylist()
    assert first == second


def test_scorer_appends_expected_columns(pair):
    _, scorer = pair
    out = scorer(pa.table({"text": ["hello world"], "doc_id": [1]}))
    assert out.column_names == [
        "text",
        "doc_id",
        "pred_lang",
        "lang_margin",
        "lang_path",
    ]


def test_full_model_fast_path_short_texts(models_dir):
    """Regression: the packed concatenated model tables (fast load path for
    the full language set) must include the 4/5-gram tier — the scorer on
    SHORT texts (<120 chars, 1..5-gram path) must match the pure detector
    loaded from the parquet tables."""
    from tiny_lingua_ray.detector import LinguaDetector
    from tiny_lingua_ray.models.loader import (
        load_dict_models,
        load_packed_models_fast,
    )

    packed = load_packed_models_fast(models_dir)
    assert packed is not None, "fast path should be available after build"
    assert len(packed["en"].high_hash) > 0, "4/5-gram tier must not be empty"

    det = LinguaDetector(load_dict_models(models_dir))
    scorer = LangIdScorer(models_dir=str(models_dir), build_if_missing=False)
    texts = [
        "hola mundo como estas amigo",
        "short test",
        "guten tag",
        "bonjour tout le monde",
        "ciao bella",
        "dobry den",
    ]
    out = scorer(pa.table({"text": texts}))
    for t, p in zip(texts, out.column("pred_lang").to_pylist()):
        assert p == det.detect(t), f"{t!r}: scorer={p} pure={det.detect(t)}"


def test_single_latin_language_fast_path(models_dir):
    """Rule filtering to exactly ONE candidate must short-circuit with
    confidence 1.0 on the vectorized all-Latin fast path too
    (LanguageDetector.kt:239-241)."""
    from tiny_lingua_ray.stages.langid import PATH_SINGLE

    scorer = LangIdScorer(
        models_dir=str(models_dir),
        languages=("tn", "ar"),
        build_if_missing=False,
    )
    out = scorer(pa.table({"text": ["qq qq qq"]}))
    assert out.column("pred_lang").to_pylist() == ["tn"]
    assert out.column("lang_path").to_pylist() == [PATH_SINGLE]


def test_emit_confidences_matches_pure_detector(small_models_dir):
    """Opt-in full confidence map (LanguageDetector.kt:191-215 /
    EnumDoubleMap.kt:91-121): same language ORDER as the pure detector,
    values equal to float tolerance (summation order differs between the
    vectorized reduce path and the pure loop).  value_dtype="float64"
    pins bit-level value parity; the float32 default only guarantees
    prediction/order parity (test_value_dtype_paths_agree)."""
    import numpy as np

    langs = ("en", "de", "es", "fr", "zh")
    det = LinguaDetector(load_dict_models(small_models_dir, langs))
    scorer = LangIdScorer(
        models_dir=str(small_models_dir),
        languages=langs,
        build_if_missing=False,
        emit_confidences=True,
        value_dtype="float64",
    )
    texts = _corpus_sample(20) + ADVERSARIAL
    out = scorer(pa.table({"text": texts}))
    conf_col = out.column("confidence_values").to_pylist()
    for t, got in zip(texts, conf_col):
        want = det.confidence_values(t)
        assert [e["lang"] for e in got] == [l for l, _ in want], (
            f"order mismatch for {t!r}: {got} vs {want}"
        )
        np.testing.assert_allclose(
            [e["conf"] for e in got],
            [v for _, v in want],
            rtol=1e-9,
            err_msg=f"conf mismatch for {t!r}",
        )
        if got:
            assert got[0]["conf"] == 1.0  # best is always exactly 1.0


@pytest.mark.requires_corpus
def test_emit_iso3_column(small_models_dir):
    scorer = LangIdScorer(
        models_dir=str(small_models_dir),
        languages=("en", "de", "es", "fr", "zh"),
        build_if_missing=False,
        emit_iso3=True,
    )
    out = scorer(
        pa.table({"text": ["the quick brown fox jumps", "", "你好世界欢迎光临"]})
    )
    iso3 = out.column("pred_lang_iso3").to_pylist()
    pred = out.column("pred_lang").to_pylist()
    from tiny_lingua_ray.languages import ISO3_BY_ISO1

    assert iso3 == [ISO3_BY_ISO1[p] for p in pred]
    assert "eng" in iso3 and "none" in iso3


def test_iso3_codes_match_reference_enum():
    """All 75 ISO-639-3 codes match api/IsoCode639_3.kt (one enum constant
    per language + NONE)."""
    from tiny_lingua_ray.languages import BY_ISO3, ISO3_BY_ISO1, LANGUAGES

    ref = set(
        "afr ara aze bel ben bos bul cat ces cym dan deu ell eng epo est "
        "eus fas fin fra gle guj heb hin hrv hun hye ind isl ita jpn kat "
        "kaz kor lat lav lit lug mar mkd mon mri msa nld nno nob pan pol "
        "por ron rus slk slv sna som sot spa sqi srp swa swe tam tel tgl "
        "tha tsn tso tur ukr urd vie xho yor zho zul".split()
    )
    assert {li.iso3 for li in LANGUAGES} == ref
    assert len(BY_ISO3) == 75
    assert ISO3_BY_ISO1["unknown"] == "none"
    assert ISO3_BY_ISO1["de"] == "deu" and ISO3_BY_ISO1["zh"] == "zho"


def test_subset_attach_matches_cold_resolved(models_dir, monkeypatch):
    """The subset-attach path (base_col_map column slice of the warmed
    75-language resolved cache) must score identically to a cold scorer
    that resolves every value from the packed models at query time.  Uses
    a 6-language Latin subset so batches reach the sliced-gather scoring
    loop (not the single-candidate short-circuit)."""
    import numpy as np

    langs = ("en", "de", "es", "fr", "it", "pt")
    kwargs = dict(
        models_dir=str(models_dir),
        languages=langs,
        build_if_missing=False,
        emit_confidences=True,
        value_dtype="float64",
    )
    warm = LangIdScorer(**kwargs)
    # warmed base must actually be attached through a column map
    assert warm.value_cache.base_n > 0
    assert warm.value_cache.base_col_map is not None
    assert list(warm.value_cache.base_col_map) != list(range(len(langs)))

    monkeypatch.setattr(
        "tiny_lingua_ray.models.loader.load_resolved_cache", lambda d: None
    )
    cold = LangIdScorer(**kwargs)
    assert cold.value_cache.base_n == 0 and cold.uni_hashes is None

    texts = _corpus_sample(20) + ADVERSARIAL
    batch = pa.table({"text": texts})
    out_w, out_c = warm(batch), cold(batch)
    assert (
        out_w.column("pred_lang").to_pylist()
        == out_c.column("pred_lang").to_pylist()
    )
    for t, cw, cc in zip(
        texts,
        out_w.column("confidence_values").to_pylist(),
        out_c.column("confidence_values").to_pylist(),
    ):
        assert [e["lang"] for e in cw] == [e["lang"] for e in cc], (
            f"order mismatch for {t!r}"
        )
        np.testing.assert_allclose(
            [e["conf"] for e in cw],
            [e["conf"] for e in cc],
            rtol=1e-9,
            err_msg=f"conf mismatch for {t!r}",
        )


def test_value_dtype_paths_agree_long_documents(models_dir):
    """Per-level reduceat sums accumulate in float32 on the f32 path, so
    rounding grows with document length — multi-KB documents must still
    predict identically to the float64 path."""
    from tiny_lingua_ray.models.train import CORPUS_DIR

    docs = []
    for lang in ("en", "de", "es", "fr", "zh"):
        lines = [
            ln
            for ln in (CORPUS_DIR / "sentences" / f"{lang}.txt")
            .read_text(encoding="utf-8")
            .splitlines()
            if ln
        ]
        for start in (0, 150, 300):
            doc = " ".join(lines[start : start + 150])
            assert len(doc) > 4000, "long-doc corpus must be multi-KB"
            docs.append(doc)

    batch = pa.table({"text": docs})
    outs = {}
    for dt in ("float32", "float64"):
        s = LangIdScorer(
            models_dir=str(models_dir), build_if_missing=False, value_dtype=dt
        )
        outs[dt] = s(batch).column("pred_lang").to_pylist()
    assert outs["float32"] == outs["float64"]


def test_value_dtype_paths_agree(models_dir):
    """float32 (default) and float64 value caches predict identically on
    the corpus sample — the f32 hot path accumulates partials in f64, so
    precision loss must never flip a prediction here.  Uses the full
    75-language models: the precomputed resolved base (whose dtype the
    knob selects) only attaches when the language set matches it."""
    import pyarrow as pa

    texts = _corpus_sample(20) + ADVERSARIAL
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts))), "text": pa.array(texts)}
    )
    outs = {}
    for dt in ("float32", "float64"):
        s = LangIdScorer(
            models_dir=str(models_dir),
            build_if_missing=False,
            value_dtype=dt,
        )
        assert str(s.value_cache.dtype) == dt
        outs[dt] = s(batch).column("pred_lang").to_pylist()
    assert outs["float32"] == outs["float64"]

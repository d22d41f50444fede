"""Unit tests for the pure-Python detector (reference semantics).

Pinned behaviors cite the reference file:line they reproduce.
"""

from __future__ import annotations

import math

import pytest

from tiny_lingua_ray.detector import (
    LinguaDetector,
    clean_up_input_text,
    detect_language_with_rules,
    extract_ngrams,
    filter_languages_by_rules,
    probe_with_backoff,
    split_words,
)
from tiny_lingua_ray.languages import ALL_ISO1
from tiny_lingua_ray.models.loader import load_dict_models


@pytest.fixture(scope="module")
def det(small_models_dir):
    langs = ("en", "de", "es", "fr", "zh")
    return LinguaDetector(load_dict_models(small_models_dir, langs))


# --- M1 cleaning (LanguageDetector.kt:310-318, Constant.kt:164-166) -------

def test_clean_removes_numbers_and_punct():
    assert clean_up_input_text("Hello, World! 123") == "hello world "


def test_clean_collapses_whitespace():
    assert clean_up_input_text("a\t b\n\nc") == "a b c"


def test_clean_trims_java_style():
    # Java trim strips <= U+0020 only
    assert clean_up_input_text("  abc  ") == "abc"


def test_clean_keeps_symbols():
    # \p{S} (e.g. +, =) is NOT removed — only N* and P*
    assert clean_up_input_text("a+b=c") == "a+b=c"


# --- M3 word split (WordList.kt:18-80) ------------------------------------

def test_split_words_spaces():
    assert split_words("hello  world ") == ["hello", "world"]


def test_split_words_logograms_each_own_word():
    # every logogram char is its own word, splitting surrounding text
    assert split_words("ab你好cd") == ["ab", "你", "好", "cd"]


# --- M5 ngram extraction (TestDataLanguageModel.kt:34-67) -----------------

def test_extract_ngrams_dedup_and_skip():
    # windows containing the space (non-letter) are skipped; duplicates dropped
    assert extract_ngrams("aba ab", 2) == ["ab", "ba"]
    assert extract_ngrams("abc", 3) == ["abc"]
    assert extract_ngrams("ab", 3) == []


# --- J1 backoff (LanguageDetector.kt:581-642, Ngram.kt:44-52) -------------

def test_probe_backoff_keeps_prefix():
    model = {"ab": 0.5, "a": 0.25}
    # "abc" misses, "ab" hits -> ln(0.5)
    assert probe_with_backoff(model, "abc") == math.log(0.5)
    # total miss -> 0.0 contribution
    assert probe_with_backoff({}, "abc") == 0.0


# --- M7 rule-based detection (LanguageDetector.kt:367-464) ----------------

def test_rules_greek_single_language_script():
    words = split_words("γειά σου κόσμε")
    assert detect_language_with_rules(words, frozenset(ALL_ISO1)) == "el"


def test_rules_han_only_is_chinese():
    words = split_words("你好世界")
    assert detect_language_with_rules(words, frozenset(ALL_ISO1)) == "zh"


def test_rules_hiragana_plus_han_is_japanese():
    # zh and ja both voted -> CJK tiebreak returns JAPANESE
    # (LanguageDetector.kt:447-452)
    words = split_words("こんにちは世界")
    assert detect_language_with_rules(words, frozenset(ALL_ISO1)) == "ja"


def test_rules_plain_latin_is_unknown():
    words = split_words("hello plain world")
    assert detect_language_with_rules(words, frozenset(ALL_ISO1)) == "unknown"


# --- M8 rule-based filtering (LanguageDetector.kt:466-533) ----------------

def test_filter_latin_text_keeps_latin_languages():
    words = split_words("hello world")
    out = filter_languages_by_rules(words, frozenset(ALL_ISO1))
    assert "en" in out and "de" in out
    assert "ru" not in out and "zh" not in out


def test_filter_diacritic_subset():
    # 'ß' not in CHARS_TO_LANGUAGES_MAPPING; use Ñ (BASQUE, SPANISH)
    words = split_words("ñoño ñaña")
    out = filter_languages_by_rules(words, frozenset(ALL_ISO1))
    assert out == frozenset({"eu", "es"})


# --- end-to-end (A1-A3) ---------------------------------------------------

@pytest.mark.requires_corpus
def test_detect_basic(det):
    assert det.detect("languages are awesome") == "en"
    assert det.detect("los idiomas son maravillosos") == "es"
    assert det.detect("语言是美好的") == "zh"


def test_detect_empty_and_letterless(det):
    assert det.detect("") == "unknown"
    assert det.detect("1234 ... !!!") == "unknown"


def test_confidence_sorted_best_is_one(det):
    conf = det.confidence_values("the quick brown fox jumps over the lazy dog")
    assert conf[0][1] == 1.0
    vals = [v for _, v in conf]
    assert vals == sorted(vals, reverse=True)


def test_minimum_relative_distance(small_models_dir):
    langs = ("en", "de", "es", "fr", "zh")
    models = load_dict_models(small_models_dir, langs)
    strict = LinguaDetector(models, minimum_relative_distance=0.9)
    # close decision -> unknown under a large required distance
    # (LanguageDetector.kt:128-131)
    assert strict.detect("to be or not to be") in ("unknown", "en")
    conf = LinguaDetector(models).confidence_values("to be or not to be")
    if len(conf) >= 2 and conf[0][1] - conf[1][1] < 0.9:
        assert strict.detect("to be or not to be") == "unknown"


@pytest.mark.requires_corpus
def test_low_accuracy_mode(small_models_dir):
    langs = ("en", "de", "es", "fr", "zh")
    models = load_dict_models(small_models_dir, langs)
    low = LinguaDetector(models, low_accuracy=True)
    # trigram-only path still detects clear cases
    assert low.detect("the quick brown fox jumps over the lazy dog") == "en"
    # len < 3 after cleaning -> empty result (LanguageDetector.kt:244-246)
    assert low.detect("ab") == "unknown"


@pytest.mark.requires_corpus
def test_corpus_sample_accuracy(small_models_dir):
    """Detection over held-in corpus lines must be highly accurate."""
    from tiny_lingua_ray.models.train import CORPUS_DIR

    langs = ("en", "de", "es", "fr", "zh")
    det = LinguaDetector(load_dict_models(small_models_dir, langs))
    ok = tot = 0
    for lang in langs:
        lines = (
            (CORPUS_DIR / "sentences" / f"{lang}.txt")
            .read_text(encoding="utf-8")
            .splitlines()[:50]
        )
        for ln in lines:
            if not ln:
                continue
            tot += 1
            ok += det.detect(ln) == lang
    assert ok / tot > 0.95


def test_builder_validations(small_models_dir):
    """api/LanguageDetectorBuilder.kt:39-75 parity."""
    models = load_dict_models(small_models_dir, ("en", "de"))
    with pytest.raises(ValueError):
        LinguaDetector(models, languages=("en",))
    with pytest.raises(ValueError):
        LinguaDetector(models, minimum_relative_distance=1.5)
    with pytest.raises(ValueError):
        LinguaDetector(models, minimum_relative_distance=-0.1)
    LinguaDetector(models, minimum_relative_distance=0.99)  # boundary ok

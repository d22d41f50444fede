"""Deterministic synthetic stand-in for the reference accuracy corpus.

Writes the reference corpus tree shape:

    <root>/sentences/<iso1>.txt      1000 lines, ~40-140 chars each
    <root>/word-pairs/<iso1>.txt     1000 lines, two words each
    <root>/single-words/<iso1>.txt   1000 lines, one word each

for all 75 languages of ``languages.LANGUAGES``.  The languages are
generated, not real: each draws lowercase letters from its own declared
Unicode scripts (``unicode_tables._SCRIPT_RANGES``) plus its own
``unique_chars``, with a Zipf character distribution over a per-language
letter ranking and a Zipf word vocabulary (frequent words are short).
Letters that the rule engine ties to particular languages
(``CHARS_TO_LANGUAGES_MAPPING`` and every language's unique characters)
are kept out of the shared script alphabets, so a language's text never
carries another language's rule evidence.

Models trained on it are non-empty and mutually distinguishable, which is
all the engine-invariant tests need (vectorized scorer == pure detector,
float32 == float64, cold == warm, pipeline == row-by-row labels).  Facts
about real languages (the golden fixtures, held-in accuracy thresholds)
still need the reference corpus.

Each language is generated from ``random.Random(iso1)`` only — string
seeds hash through SHA-512 — so the output is the same under any
``PYTHONHASHSEED`` and any numpy version.  Downloads nothing.

Usage (from the repo root):  PYTHONPATH=. python tests/synthetic_corpus.py OUT_DIR
"""

from __future__ import annotations

import random
import sys
import unicodedata
from functools import lru_cache
from pathlib import Path

from tiny_lingua_ray.languages import (
    CHARS_TO_LANGUAGES_MAPPING,
    LANGUAGES,
    LANGUAGES_SUPPORTING_LOGOGRAMS,
    LanguageInfo,
)
from tiny_lingua_ray.unicode_tables import _SCRIPT_RANGES

SPLITS = ("sentences", "word-pairs", "single-words")
LINES_PER_FILE = 1000
VOCAB_SIZE = 2000
ALPHABET_SIZE = 26  # letters per alphabetic script
LOGOGRAM_ALPHABET_SIZE = 500
# Where a script's first letters are archaic or combining forms, its
# alphabet starts at the main block instead (Greek lowercase, Hangul
# syllables, CJK unified ideographs).
_SCRIPT_START = {"GREEK": 0x03B1, "HANGUL": 0xAC00, "HAN": 0x4E00}
_LARGE_SCRIPTS = frozenset({"HAN", "HANGUL"})
# scripts written without spaces between words (Chinese, Japanese)
_UNSPACED_SCRIPTS = frozenset({"HAN", "HIRAGANA", "KATAKANA"})


@lru_cache(maxsize=None)
def _claimed_letters() -> frozenset[str]:
    """Letters that are rule evidence for specific languages."""
    claimed = set(CHARS_TO_LANGUAGES_MAPPING)
    for li in LANGUAGES:
        claimed.update(li.unique_chars or "")
    return frozenset(claimed)


@lru_cache(maxsize=None)
def script_alphabet(script: str) -> tuple[str, ...]:
    """The shared lowercase letters of ``script``, in code-point order."""
    cap = LOGOGRAM_ALPHABET_SIZE if script in _LARGE_SCRIPTS else ALPHABET_SIZE
    start = _SCRIPT_START.get(script, 0)
    claimed = _claimed_letters()
    letters: list[str] = []
    for lo, hi, name in _SCRIPT_RANGES:
        if name != script:
            continue
        for cp in range(max(lo, start), min(hi, 0xFFFF) + 1):
            ch = chr(cp)
            if (
                unicodedata.category(ch) in ("Ll", "Lo")
                and ch.lower() == ch
                and not unicodedata.decomposition(ch).startswith("<")
                and ch not in claimed
            ):
                letters.append(ch)
                if len(letters) == cap:
                    return tuple(letters)
    return tuple(letters)


def _own_unique_letters(li: LanguageInfo) -> list[str]:
    return [
        ch
        for ch in dict.fromkeys(li.unique_chars or "")
        if unicodedata.category(ch).startswith("L") and ch.lower() == ch
    ]


def _zipf_cum_weights(n: int) -> list[float]:
    cum, total = [], 0.0
    for rank in range(n):
        total += 1.0 / (rank + 1)
        cum.append(total)
    return cum


def _vocabulary(li: LanguageInfo, rng: random.Random) -> list[str]:
    """VOCAB_SIZE distinct words, most frequent first."""
    letters = [ch for s in li.scripts for ch in script_alphabet(s)]
    rng.shuffle(letters)
    for ch in _own_unique_letters(li):
        # unique characters are mid-frequency letters of their language
        letters.insert(rng.randint(3, min(12, len(letters))), ch)
    cum = _zipf_cum_weights(len(letters))
    logographic = li.iso1 in LANGUAGES_SUPPORTING_LOGOGRAMS
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < VOCAB_SIZE:
        rank = len(words)
        if logographic:
            length = 1 + min(2, int(rng.random() * (1 + rank / 400)))
        else:
            # Zipf's law of abbreviation: frequent words are short
            mean = 2.0 + 1.6 * len(str(rank + 1))
            length = max(1, min(12, round(rng.gauss(mean, 1.3))))
        w = "".join(rng.choices(letters, cum_weights=cum, k=length))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def language_lines(li: LanguageInfo) -> dict[str, list[str]]:
    """{split: LINES_PER_FILE lines} for one language, deterministically."""
    rng = random.Random(li.iso1)
    vocab = _vocabulary(li, rng)
    cum = _zipf_cum_weights(len(vocab))
    sep = "" if set(li.scripts) <= _UNSPACED_SCRIPTS else " "

    def word() -> str:
        return rng.choices(vocab, cum_weights=cum)[0]

    sentences = []
    for _ in range(LINES_PER_FILE):
        target = rng.randint(40, 140)
        parts = [word()]
        while len(sep.join(parts)) < target:
            parts.append(word())
        sentences.append(sep.join(parts))
    pairs = [sep.join((word(), word())) for _ in range(LINES_PER_FILE)]
    singles = [word() for _ in range(LINES_PER_FILE)]
    return {"sentences": sentences, "word-pairs": pairs, "single-words": singles}


def write_synthetic_corpus(root: str | Path) -> Path:
    """Write the full synthetic corpus under ``root``; returns ``root``."""
    root = Path(root)
    for split in SPLITS:
        (root / split).mkdir(parents=True, exist_ok=True)
    for li in LANGUAGES:
        for split, lines in language_lines(li).items():
            (root / split / f"{li.iso1}.txt").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
    return root


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/synthetic_corpus.py OUT_DIR")
    print(write_synthetic_corpus(sys.argv[1]))

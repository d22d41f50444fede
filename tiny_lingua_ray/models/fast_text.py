"""fastText-style hashed char-n-gram linear language classifier.

North-rule component ("fastText langid fallback").  Architecture = public
fastText supervised langid: bag of hashed character n-grams (2..4 with
word-boundary markers) -> averaged feature embedding -> linear softmax
over languages.  Weights are count-estimated (multinomial class-
conditional log-probabilities, i.e. the naive-Bayes solution for this
linear form) rather than SGD-trained: deterministic, builds in seconds,
and no gradient framework exists in this sandbox.  Documented gap:
pretrained lid.176 weights are not downloadable offline
(models/__init__.py).

Trained on the accuracy corpus (models/train.CORPUS_DIR, sentences +
word-pairs); cached as raw .npy arrays under MODEL_DIR, which
``TLR_FASTTEXT_DIR`` redirects.
"""

from __future__ import annotations

import os

import numpy as np

from tiny_lingua_ray.languages import ALL_ISO1
from tiny_lingua_ray.models.train import corpus_lines, fnv1a_64, no_corpus_lines

DIM = 1 << 17
NGRAM_RANGE = (2, 4)
ALPHA = 0.5
LINES_PER_FILE = 500
MODEL_VERSION = "v2"
MODEL_DIR = os.environ.get(
    "TLR_FASTTEXT_DIR", f"/tmp/tlr_models/fasttext_{MODEL_VERSION}"
)


def features(text: str, dim: int = DIM) -> np.ndarray:
    """Hashed char n-gram ids of the lowercased, boundary-marked text."""
    t = "<" + (text or "").lower().replace(" ", "><") + ">"
    ids = []
    lo, hi = NGRAM_RANGE
    for n in range(lo, hi + 1):
        for i in range(len(t) - n + 1):
            ids.append(fnv1a_64(t[i : i + n]) % dim)
    if not ids:
        ids = [0]
    return np.asarray(ids, dtype=np.int64)


def train(languages=ALL_ISO1, alpha: float = ALPHA,
          lines_per_file: int = LINES_PER_FILE) -> dict:
    L = len(languages)
    counts = np.zeros((DIM, L), dtype=np.float64)
    for li, lang in enumerate(languages):
        ids_all: list[np.ndarray] = []
        for split in ("sentences", "word-pairs"):
            for ln in corpus_lines(lang, (split,))[:lines_per_file]:
                ids_all.append(features(ln))
        if not ids_all:
            # an all-zero column would give the language uniform weights
            raise no_corpus_lines(f"language {lang!r} (fastText)")
        counts[:, li] = np.bincount(np.concatenate(ids_all), minlength=DIM)
    totals = counts.sum(axis=0)
    W = np.log((counts + alpha) / (totals[None, :] + alpha * DIM))
    return {"W": W.astype(np.float32), "languages": np.array(languages)}


def ensure_fasttext_model(languages=ALL_ISO1) -> dict:
    # raw .npy + mmap (npz zip reads are pathologically slow on this host)
    w_f = os.path.join(MODEL_DIR, "W.npy")
    l_f = os.path.join(MODEL_DIR, "languages.npy")
    if os.path.exists(w_f) and os.path.exists(l_f):
        try:
            langs = np.load(l_f, allow_pickle=False)
            W = np.load(w_f, allow_pickle=False, mmap_mode="r")
            # a language trained on no lines has the constant column
            # log(1/DIM); such a cache is retrained (and refused), not used
            untrained = np.any(W[0] == np.float32(-np.log(DIM)))
            if list(langs) == list(languages) and not untrained:
                return {"W": W, "languages": langs}
        except (OSError, ValueError):
            pass
    model = train(languages)
    os.makedirs(MODEL_DIR, exist_ok=True)
    for name, arr in (("W", model["W"]), ("languages", model["languages"])):
        tmp = os.path.join(MODEL_DIR, f"{name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as f:
            np.save(f, arr)
        os.replace(tmp, os.path.join(MODEL_DIR, f"{name}.npy"))
    return model


def predict(model: dict, texts: list[str]) -> tuple[list[str], np.ndarray]:
    """(pred_langs, softmax probability of the winner)."""
    W = model["W"]
    langs = [str(l) for l in model["languages"]]
    preds, probs = [], np.zeros(len(texts))
    for i, t in enumerate(texts):
        ids = features(t)
        h = W[ids].mean(axis=0).astype(np.float64)
        h -= h.max()
        e = np.exp(h)
        p = e / e.sum()
        j = int(np.argmax(p))
        preds.append(langs[j])
        probs[i] = p[j]
    return preds, probs

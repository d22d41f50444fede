"""Unit tests for the pipeline stages (no Ray needed — plain batch fns)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from tiny_lingua_ray.sources.cc_pages import HTML_PREFIX, HTML_SUFFIX, make_shard
from tiny_lingua_ray.stages.extract import extract_batch, extract_text
from tiny_lingua_ray.stages.quality import FLAG_NAMES, quality_batch
from tiny_lingua_ray.stages.scrub import scrub_batch, scrub_text


# --- extraction -----------------------------------------------------------

def test_extract_byte_identical_roundtrip():
    texts = ["hello world", "unicode: üñïçødé 你好", ""]
    html = [HTML_PREFIX + t.encode("utf-8") + HTML_SUFFIX for t in texts]
    out = extract_batch(pa.table({"html": html, "text": texts}))
    assert out.column("extracted_text").to_pylist() == texts
    assert "html" not in out.column_names


def test_extract_malformed_html():
    assert extract_text(b"<html>no paragraph</html>") == ""
    assert extract_text(None) == ""


def test_cc_pages_deterministic():
    a = make_shard(0, 50)
    b = make_shard(0, 50)
    assert a.equals(b)
    assert a.schema.names == ["url", "warc_ts", "html", "text", "lang"]
    # extraction recovers text byte-identically for every row
    out = extract_batch(a)
    assert out.column("extracted_text").to_pylist() == a.column("text").to_pylist()


# --- quality rules --------------------------------------------------------

def test_quality_flags():
    rows = {
        "text": [
            "the quick brown fox jumps over the lazy dog and keeps running",
            "a b",                                 # too few words
            "function() { var x = 1; }",           # curly brace
            "lorem ipsum dolor sit amet lorem ipsum dolor sit amet",
            "spam spam spam spam spam spam spam spam spam spam",  # dominance
        ]
    }
    out = quality_batch(pa.table(rows))
    flags = out.column("quality_flags").to_pylist()
    assert flags[0] == 0
    assert flags[1] & (1 << FLAG_NAMES.index("too_few_words"))
    assert flags[2] & (1 << FLAG_NAMES.index("curly_brace"))
    assert flags[3] & (1 << FLAG_NAMES.index("lorem_ipsum"))
    assert flags[4] & (1 << FLAG_NAMES.index("word_dominance"))


# --- scrub ----------------------------------------------------------------

def test_scrub_patterns():
    t, n_pii, _ = scrub_text(
        "mail john@x.com or 555-123-4567; ip 10.0.0.1; ssn 123-45-6789"
    )
    assert "<EMAIL>" in t and "<PHONE>" in t and "<IP>" in t and "<SSN>" in t
    assert n_pii == 4


def test_scrub_toxicity_count():
    _, _, tox = scrub_text("you idiot, that was stupid")
    assert tox == 2


def test_scrub_batch_columns():
    out = scrub_batch(pa.table({"text": ["clean text", "a@b.co here"]}))
    assert out.column("pii_count").to_pylist() == [0, 1]


# --- dedup primitives -----------------------------------------------------

def test_minhash_similarity_monotone():
    from tiny_lingua_ray.stages.dedup import char_shingles, minhash_signature

    a = "the quick brown fox jumps over the lazy dog"
    b = "the quick brown fox jumps over the lazy cat"
    c = "completely different text with nothing shared at all"
    sa = minhash_signature(char_shingles(a))
    sb = minhash_signature(char_shingles(b))
    sc = minhash_signature(char_shingles(c))
    sim_ab = (sa == sb).mean()
    sim_ac = (sa == sc).mean()
    assert sim_ab > sim_ac
    assert (sa == minhash_signature(char_shingles(a))).all()


def test_simhash_near_dup_hamming():
    from tiny_lingua_ray.stages.dedup import simhash64

    a = simhash64("the quick brown fox jumps over the lazy dog")
    b = simhash64("the quick brown fox jumps over the lazy cat")
    c = simhash64("completely different text with nothing shared at all")
    ham_ab = bin(a ^ b).count("1")
    ham_ac = bin(a ^ c).count("1")
    assert ham_ab < ham_ac


def test_simhash_pairs_complete_vs_bruteforce(ray_session):
    """Banding completeness: the 4x16-band operator (fnv production
    scheme) must return EXACTLY the pairs a brute-force popcount over all
    simhashes finds at hamming <= 3 — pigeonhole guarantees no recall
    loss below the band count."""
    import itertools

    import ray.data as rd

    from tiny_lingua_ray.stages.dedup import simhash64, simhash_near_dup_pairs

    base = "the quick brown fox jumps over the lazy dog " * 4
    texts = [base, base + "x", base + "yy", "totally different content here " * 5,
             "another unrelated document about ray data pipelines " * 3,
             base.replace("quick", "rapid"), ""]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    got = (
        simhash_near_dup_pairs(rd.from_items(rows), max_hamming=3)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    sims = [simhash64(t) for t in texts]
    want = sorted(
        (i, j, bin(sims[i] ^ sims[j]).count("1"))
        for i, j in itertools.combinations(range(len(texts)), 2)
        if bin(sims[i] ^ sims[j]).count("1") <= 3
    )
    assert [tuple(r) for r in got.to_numpy()] == want
    assert len(want) >= 1  # the perturbed copies must actually collide


def test_jaccard():
    from tiny_lingua_ray.stages.dedup import jaccard

    assert jaccard("abcdefgh", "abcdefgh") == 1.0
    assert jaccard("abcdefgh", "zzzzzzzz") == 0.0


# --- perplexity -----------------------------------------------------------

@pytest.mark.requires_corpus
def test_perplexity_in_domain_lower(small_models_dir):
    from tiny_lingua_ray.stages.perplexity import PerplexityScorer

    scorer = PerplexityScorer(
        models_dir=str(small_models_dir),
        languages=("en", "de", "es", "fr", "zh"),
        build_if_missing=False,
    )
    batch = pa.table(
        {
            "text": [
                "the quick brown fox jumps over the lazy dog",
                "zzxq jqkv wxzz qqqq zzzz xxxx",
                "no model row",
            ],
            "pred_lang": ["en", "en", "unknown"],
        }
    )
    out = scorer(batch)
    pp = out.column("perplexity").to_pylist()
    assert pp[0] < pp[1]  # gibberish has higher perplexity
    assert np.isnan(pp[2])  # unknown lang -> NaN


def test_fused_scorer_matches_standalone(small_models_dir):
    from tiny_lingua_ray.stages.langid import LangIdScorer
    from tiny_lingua_ray.stages.perplexity import PerplexityScorer

    langs = ("en", "de", "es", "fr", "zh")
    texts = [
        "the quick brown fox jumps over the lazy dog",
        "der schnelle braune fuchs springt über den faulen hund",
        "1234 !!!",
    ]
    fused = LangIdScorer(
        models_dir=str(small_models_dir),
        languages=langs,
        build_if_missing=False,
        compute_perplexity=True,
    )(pa.table({"text": texts}))
    base = LangIdScorer(
        models_dir=str(small_models_dir), languages=langs, build_if_missing=False
    )(pa.table({"text": texts}))
    standalone = PerplexityScorer(
        models_dir=str(small_models_dir), languages=langs, build_if_missing=False
    )(base)
    a = fused.column("perplexity").to_pylist()
    b = standalone.column("perplexity").to_pylist()
    for x, y in zip(a, b):
        assert (np.isnan(x) and np.isnan(y)) or x == pytest.approx(y)


def test_multiformat_sources_identical(ray_session, tmp_path):
    """CSV and JSONL reads of the same corpus produce batch-identical
    Arrow to the Parquet read (sources/formats.py normalizes schema at
    the read)."""
    import pyarrow.parquet as pq

    from tiny_lingua_ray.sources.formats import read_documents, write_documents

    src = "/root/testdata/sf0.001/documents.parquet"
    base = (
        read_documents(src, fmt="parquet")
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    assert len(base) == pq.read_metadata(src).num_rows
    for fmt in ("csv", "jsonl", "jsonl.gz"):
        out = tmp_path / fmt.replace(".", "_")
        write_documents(read_documents(src, fmt="parquet"), str(out), fmt=fmt)
        got = (
            read_documents(str(out), fmt=fmt)
            .to_pandas()
            .sort_values("doc_id", ignore_index=True)
        )
        assert got.equals(base), fmt
    # gzip content sanity: the jsonl.gz files are actually compressed,
    # named so format inference reads the sink's own output back
    import gzip
    import pathlib

    import pytest

    f = next(pathlib.Path(tmp_path / "jsonl_gz").iterdir())
    assert f.name.endswith(".jsonl.gz")
    with gzip.open(f, "rt") as fh:
        assert '"doc_id"' in fh.readline()
    one = read_documents(str(f)).to_pandas()  # fmt inferred from name
    assert len(one) > 0
    # bare .gz of unknown inner format is rejected loudly, not fed to
    # the JSON reader
    with pytest.raises(ValueError, match="gzipped non-JSONL"):
        read_documents("/tmp/whatever.csv.gz")


def test_multiformat_missing_column_fails_loudly(ray_session, tmp_path):
    import pandas as pd
    import pytest
    import ray.data as rd

    from tiny_lingua_ray.sources.formats import read_documents

    bad = tmp_path / "bad.csv"
    pd.DataFrame({"doc_id": [1], "text": ["x"]}).to_csv(bad, index=False)
    with pytest.raises(Exception, match="missing required column"):
        read_documents(str(bad), fmt="csv").materialize()


def test_levenshtein_capped_matches_reference_dp():
    """Fuzz the banded numpy kernel against a plain O(n*m) DP, including
    the early-exit cap semantics (returns cap+1 once exceeded)."""
    import random

    from tiny_lingua_ray.stages.dedup import levenshtein_capped

    def ref(a, b):
        la, lb = len(a), len(b)
        prev = list(range(lb + 1))
        for i in range(1, la + 1):
            cur = [i] + [0] * lb
            for j in range(1, lb + 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                             prev[j - 1] + (a[i - 1] != b[j - 1]))
            prev = cur
        return prev[lb]

    rng = random.Random(7)
    alpha = "abcde"
    for _ in range(300):
        a = "".join(rng.choice(alpha) for _ in range(rng.randrange(0, 30)))
        b = "".join(rng.choice(alpha) for _ in range(rng.randrange(0, 30)))
        for cap in (0, 1, 3, 10, 100):
            want = min(ref(a, b), cap + 1)
            assert levenshtein_capped(a, b, cap) == want, (a, b, cap)


def test_attach_pair_texts_delivers_both_sides(ray_session):
    """The tagged-union cogroup must hand every candidate pair exactly its
    two texts, with ids and text sides matching the pair orientation."""
    import ray.data as rd

    from tiny_lingua_ray.stages.dedup import attach_pair_texts

    docs = rd.from_items(
        [{"doc_id": i, "text": f"text number {i}"} for i in range(20)]
    )
    pairs = rd.from_items(
        [{"id_a": 0, "id_b": 7}, {"id_a": 3, "id_b": 19},
         {"id_a": 5, "id_b": 6}]
    )
    got = (
        attach_pair_texts(docs, pairs, num_shards=4)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert list(got["id_a"]) == [0, 3, 5]
    assert list(got["id_b"]) == [7, 19, 6]
    assert list(got["text_a"]) == ["text number 0", "text number 3",
                                   "text number 5"]
    assert list(got["text_b"]) == ["text number 7", "text number 19",
                                   "text number 6"]


def test_attach_pair_texts_duplicate_pairs_deliver_once(ray_session):
    """A duplicated (id_a, id_b) row in the pairs input must deliver a
    single joined row, not crash column alignment."""
    import ray.data as rd

    from tiny_lingua_ray.stages.dedup import attach_pair_texts

    docs = rd.from_items(
        [{"doc_id": i, "text": f"text number {i}"} for i in range(6)]
    )
    pairs = rd.from_items(
        [{"id_a": 1, "id_b": 4}, {"id_a": 1, "id_b": 4},
         {"id_a": 2, "id_b": 5}]
    )
    got = (
        attach_pair_texts(docs, pairs, num_shards=4)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    assert list(got["id_a"]) == [1, 2]
    assert list(got["text_b"]) == ["text number 4", "text number 5"]

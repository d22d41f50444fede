"""Deterministic synthetic Common-Crawl-style corpus (BASELINE.json input_hint).

Schema (exactly the input_hint shape):
    url:string  warc_ts:timestamp[us]  html:binary  text:string  lang:string

Texts are drawn deterministically from the accuracy corpus
(models/train.CORPUS_DIR: 75 languages x 3 splits), plus adversarial rows
(FIXTURES.md F1): empty, digits/punct-only, short (<120 chars) and long
(>=120) texts, CJK, mixed script, diacritics, PII-bearing, and
low-quality/boilerplate rows.
Domains are Zipf-skewed to exercise domain-hash shuffles.

The generator streams: ``build_cc_pages`` writes a partitioned Parquet
directory (one file per shard) so any scale factor can be produced without
driver-side materialization.
"""

from __future__ import annotations

import hashlib
import os
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tiny_lingua_ray.models.train import CORPUS_DIR, no_corpus_lines

HTML_PREFIX = b"<html><head><title>t</title></head><body><p>"
HTML_SUFFIX = b"</p></body></html>"

_EPOCH = datetime(2024, 1, 1)

PII_SNIPPETS = [
    " contact me at john.doe@example.com for details",
    " call 555-123-4567 any time",
    " server at 192.168.1.100 responded",
    " SSN 123-45-6789 was exposed",
    " card 4111 1111 1111 1111 expires soon",
]

LOWQ_SNIPPETS = [
    "click here click here click here click here",
    "{ } { } function() var x = 1; javascript required",
    "lorem ipsum dolor sit amet " * 4,
    "buy now!!! $$$ >>> free <<< $$$ !!!",
    "a b c d e f g h i j k l m n o p",
]


def _load_corpus_texts() -> list[tuple[str, str]]:
    """[(text, lang)] for all corpus lines, deterministic order."""
    out: list[tuple[str, str]] = []
    for split in ("sentences", "word-pairs", "single-words"):
        d = CORPUS_DIR / split
        for f in sorted(d.glob("*.txt")):
            lang = f.stem
            for ln in f.read_text(encoding="utf-8").splitlines():
                if ln:
                    out.append((ln, lang))
    if not out:
        raise no_corpus_lines("any language")
    return out


_N_DOMAINS = 50
_ZIPF_WEIGHTS = 1.0 / np.arange(1, _N_DOMAINS + 1)
_ZIPF_CDF = np.cumsum(_ZIPF_WEIGHTS) / _ZIPF_WEIGHTS.sum()


def _zipf_domain(i: int) -> str:
    # deterministic Zipf-ish skew: domain j picked with weight ~ 1/(j+1)
    h = int.from_bytes(hashlib.sha1(f"dom{i}".encode()).digest()[:8], "big")
    u = (h % 10**9) / 10**9
    j = int(np.searchsorted(_ZIPF_CDF, u))
    return f"site-{j}.example"


def make_shard(
    shard: int,
    rows_per_shard: int,
    corpus: list[tuple[str, str]] | None = None,
) -> pa.Table:
    """One deterministic shard of cc_pages rows (``corpus`` defaults to
    every line of the accuracy corpus)."""
    if corpus is None:
        corpus = _load_corpus_texts()
    n_corpus = len(corpus)
    if not n_corpus:
        raise ValueError("make_shard needs a non-empty corpus")
    urls, tss, htmls, texts, langs = [], [], [], [], []
    base = shard * rows_per_shard
    for k in range(rows_per_shard):
        i = base + k
        mode = i % 100
        if mode == 0:
            text, lang = "", "unknown"
        elif mode == 1:
            text, lang = "12345 !!! ??? 67890 ...", "unknown"
        elif mode < 5:
            text, lang = LOWQ_SNIPPETS[i % len(LOWQ_SNIPPETS)], "en"
        else:
            text, lang = corpus[(i * 2654435761) % n_corpus]
            if mode < 9:  # PII-bearing rows
                text = text + PII_SNIPPETS[i % len(PII_SNIPPETS)]
        domain = _zipf_domain(i)
        urls.append(f"https://{domain}/p/{i}")
        tss.append(_EPOCH + timedelta(seconds=i))
        htmls.append(HTML_PREFIX + text.encode("utf-8") + HTML_SUFFIX)
        texts.append(text)
        langs.append(lang)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def build_cc_pages(
    out_dir: str | Path,
    total_rows: int = 10_000,
    rows_per_shard: int = 5_000,
    use_ray: bool | None = None,
) -> Path:
    """Write a deterministic cc_pages corpus; returns the directory.

    Already-written shards are skipped (the build itself is resumable).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_shards = (total_rows + rows_per_shard - 1) // rows_per_shard
    todo = []
    for s in range(n_shards):
        rows = min(rows_per_shard, total_rows - s * rows_per_shard)
        f = out / f"part-{s:05d}.parquet"
        if not f.exists():
            todo.append((s, rows, f))
    if not todo:
        return out

    if use_ray is None:
        try:
            import ray

            use_ray = ray.is_initialized() and len(todo) > 1
        except ImportError:
            use_ray = False

    # read (and check) the corpus once on the driver; Ray tasks share it
    # through the object store
    corpus = _load_corpus_texts()
    if use_ray:
        import ray

        @ray.remote(num_cpus=1)
        def _w(s: int, rows: int, f: str, corpus) -> None:
            _write_shard(s, rows, Path(f), corpus)

        ref = ray.put(corpus)
        ray.get([_w.remote(s, r, str(f), ref) for s, r, f in todo])
    else:
        for s, rows, f in todo:
            _write_shard(s, rows, f, corpus)
    return out


def _write_shard(s: int, rows: int, f: Path, corpus) -> None:
    t = make_shard(s, rows, corpus)
    tmp = f.with_suffix(".tmp")
    pq.write_table(t, tmp)
    os.replace(tmp, f)


def default_cc_dir(total_rows: int) -> Path:
    return Path(f"/tmp/tlr_cc_pages/rows{total_rows}")


def documents_to_cc_pages(ds):
    """Adapt a documents-shaped Dataset (doc_id, text, ...) to the
    cc_pages input contract (url, warc_ts, html, text, lang): wraps each
    text in a minimal page so the extract stage's byte-identical
    text-per-url invariant still holds.  Used by the flagship query and
    by the CLI when the input parquet has no ``html`` column."""
    import numpy as np
    import pyarrow as pa

    def to_cc(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "url": pa.array(
                    [f"https://docs.example/{i}" for i in ids], pa.string()
                ),
                "warc_ts": pa.array(np.zeros(len(ids), dtype="datetime64[us]")),
                "html": pa.array(
                    [
                        HTML_PREFIX + (t or "").encode("utf-8") + HTML_SUFFIX
                        for t in texts
                    ],
                    pa.binary(),
                ),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["" for _ in ids], pa.string()),
            }
        )

    return ds.map_batches(to_cc, batch_format="pyarrow")

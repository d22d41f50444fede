"""Accuracy-report conformance pipeline (reference: the accuracyReport
Gradle task — build.gradle.kts:148-262, report/*.kt).

Reference lifecycle (SURVEY.md §3.2): 75 languages x 3 splits x 1000
lines, each detected twice (high + low accuracy), per-language report
files + an aggregated CSV.  Ray translation: one corpus Dataset ->
LangIdScorer actor pool (models load once per actor, not once per JVM
fork) -> groupby(true_lang, split) aggregate -> report tables.

NOTE (documented gap): our n-gram models are trained from this corpus's
sentences+word-pairs splits (upstream Lingua model JSON is not available
offline — models/__init__.py), so absolute accuracies are not comparable
1:1 with /root/reference/accuracy-reports/lingua/*.txt; the *report
machinery* and output format are.  Round 5: each accuracy mode trains
its model artifacts on its own split mixture (see models/train
DEFAULT_TRAIN_SPLITS / LOW_MODE_TRAIN_SPLITS rationale).
"""

from __future__ import annotations

from pathlib import Path

import pandas as pd
import pyarrow as pa

from tiny_lingua_ray.languages import ALL_ISO1, BY_ISO1
from tiny_lingua_ray.models.train import corpus_lines, no_corpus_lines

SPLITS = ("single-words", "word-pairs", "sentences")


def corpus_dataset(
    languages=ALL_ISO1,
    limit_per_file: int | None = None,
    use_splits=SPLITS,
):
    """Corpus Dataset with columns (text, true_lang, split), read from
    models/train.CORPUS_DIR; raises CorpusNotFoundError when it holds no
    line for the requested languages and splits."""
    import ray.data as rd

    texts, langs, splits = [], [], []
    for split in use_splits:
        for lang in languages:
            lines = corpus_lines(lang, (split,))
            if limit_per_file:
                lines = lines[:limit_per_file]
            texts.extend(lines)
            langs.extend([lang] * len(lines))
            splits.extend([split] * len(lines))
    if not texts:
        raise no_corpus_lines(
            f"languages {list(languages)}, splits {list(use_splits)}"
        )
    table = pa.table(
        {
            "text": pa.array(texts, pa.string()),
            "true_lang": pa.array(langs, pa.string()),
            "split": pa.array(splits, pa.string()),
        }
    )
    # from_arrow(table) yields ONE block — the downstream actor pool would
    # receive a single input and run 1-wide no matter its concurrency.
    # Slice into ~64 zero-copy blocks so the pool actually fans out.
    n = max(1, min(64, len(table) // 2048))
    step = -(-len(table) // n)
    return rd.from_arrow(
        [table.slice(i, step) for i in range(0, len(table), step)]
    )


def run_accuracy_report(
    languages=ALL_ISO1,
    low_accuracy: bool = False,
    limit_per_file: int | None = None,
    concurrency: int = 4,
    models_ref=None,
    models_dir=None,
    splits=SPLITS,
) -> pd.DataFrame:
    """Returns per (true_lang, split): n, correct, accuracy_pct."""
    from ray.data.aggregate import Count, Sum

    from tiny_lingua_ray.stages.langid import LangIdScorer

    if models_ref is None and models_dir is None:
        # driver-side pre-build: a cold per-mode dir must be trained ONCE
        # here, not concurrently inside every scorer actor's constructor
        # (duplicated 75-language training × concurrency, review r5)
        from tiny_lingua_ray.models.train import ensure_models

        ensure_models(low_mode=low_accuracy)

    ds = corpus_dataset(languages, limit_per_file, splits)
    kwargs: dict = {
        "languages": tuple(languages),
        "low_accuracy": low_accuracy,
    }
    if models_ref is not None:
        kwargs["models_ref"] = models_ref
    if models_dir is not None:
        kwargs["models_dir"] = str(models_dir)
    scored = ds.map_batches(
        LangIdScorer,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=2048,
        concurrency=concurrency,
        num_cpus=1,
    )

    def mark(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ok = pc.equal(batch.column("pred_lang"), batch.column("true_lang"))
        return pa.table(
            {
                "true_lang": batch.column("true_lang"),
                "split": batch.column("split"),
                "correct": pc.cast(ok, pa.int64()),
            }
        )

    agg = (
        scored.map_batches(mark, batch_format="pyarrow")
        .groupby(["true_lang", "split"])
        .aggregate(Count(alias_name="n"), Sum("correct", alias_name="correct"))
        .to_pandas()
    )
    agg["accuracy_pct"] = (100.0 * agg["correct"] / agg["n"]).round(2)
    return agg.sort_values(["true_lang", "split"], ignore_index=True)


def write_reports(agg: pd.DataFrame, out_dir: str | Path) -> Path:
    """Reference-style outputs: per-language txt + aggregated CSV
    (report/AbstractLanguageDetectionAccuracyReport.kt:85-109,
    build.gradle.kts:223-262)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for lang, g in agg.groupby("true_lang"):
        by_split = {r["split"]: r for _, r in g.iterrows()}
        name = BY_ISO1[lang].name.title() if lang in BY_ISO1 else lang
        avg = g["accuracy_pct"].mean().round(2)
        lines = [f"##### {name} #####", "", f">> Exact values: {avg}"]
        for split in SPLITS:
            r = by_split.get(split)
            if r is not None:
                lines[-1] += f" {r['accuracy_pct']}"
                lines.append(
                    f"\n>> Detection of {int(r['n'])} {split} (average length: "
                    f"-) \nAccuracy: {r['accuracy_pct']}%"
                )
        (out / f"{name}.txt").write_text("\n".join(lines) + "\n")
        rows.append(
            {
                "language": name,
                "average": avg,
                **{
                    s: (
                        by_split[s]["accuracy_pct"]
                        if s in by_split
                        else None
                    )
                    for s in SPLITS
                },
            }
        )
    csv = pd.DataFrame(rows).sort_values("language", ignore_index=True)
    csv.to_csv(out / "aggregated-accuracy-values.csv", index=False)
    return out

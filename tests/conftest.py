"""Shared fixtures. Ray is initialised ONCE per pytest session.

Where the accuracy corpus (models/train.CORPUS_DIR) is absent, the session
generates a deterministic synthetic corpus (tests/synthetic_corpus.py) in
a temporary directory and points the corpus, model-table and fastText
locations there, so the engine-invariant tests run on non-empty models
and nothing trained from generated text lands in the shared model cache.
Tests marked ``requires_corpus`` assert facts about real languages; they
are skipped unless the real corpus is present.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path

import pytest

_corpus_present = True
_corpus_dir: Path | None = None
_synthetic_root: Path | None = None


def pytest_configure(config):
    """Runs before any test module is imported and before Ray starts, so
    the redirect reaches every import of the engine and every Ray worker
    (workers inherit this process's environment)."""
    global _corpus_present, _corpus_dir, _synthetic_root
    from tiny_lingua_ray.models import train

    _corpus_dir = train.CORPUS_DIR
    _corpus_present = _corpus_dir.is_dir()
    if _corpus_present:
        return
    from synthetic_corpus import write_synthetic_corpus

    _synthetic_root = Path(tempfile.mkdtemp(prefix="tlr-synthetic-"))
    corpus = write_synthetic_corpus(_synthetic_root / "corpus")
    os.environ["TLR_CORPUS_DIR"] = str(corpus)
    os.environ["TLR_MODELS_DIR"] = str(_synthetic_root / "models")
    os.environ.pop("TLR_MODELS_DIR_LOW", None)
    os.environ["TLR_FASTTEXT_DIR"] = str(_synthetic_root / "fasttext")
    # train was imported above, before the variable was set
    train.CORPUS_DIR = corpus


def pytest_unconfigure(config):
    if _synthetic_root is not None:
        shutil.rmtree(_synthetic_root, ignore_errors=True)


def pytest_collection_modifyitems(config, items):
    requires_corpus = pytest.mark.skipif(
        not _corpus_present,
        reason=f"asserts real-language output; accuracy corpus not found "
        f"at {_corpus_dir}",
    )
    for item in items:
        if item.get_closest_marker("requires_corpus"):
            item.add_marker(requires_corpus)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def models_dir():
    """All-75-language model tables (built once per models location)."""
    from tiny_lingua_ray.models.train import ensure_models

    return ensure_models(use_ray=False)


@pytest.fixture(scope="session")
def small_models_dir():
    """Five-language model subset for fast unit tests."""
    from tiny_lingua_ray.models.train import ensure_models

    return ensure_models(languages=("en", "de", "es", "fr", "zh"), use_ray=False)

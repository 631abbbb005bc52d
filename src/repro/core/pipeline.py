"""EMD Globalizer pipeline orchestration (Sections III–V).

``build_variant`` performs the per-instantiation offline work the paper
describes in Section VI: fit the Local EMD system (on the WNUT17-train
stand-in), train the Entity Phrase Embedder (deep systems, on synthetic
STS pairs), and train the Entity Classifier on labelled candidate
records mined from the D5 stream.

``EMDGlobalizer.run`` executes one full cycle on a tweet batch/stream
expressed as a Spark DataFrame: Local EMD -> seed candidates -> CTrie ->
occurrence mining -> local candidate embeddings -> pooled global
embeddings -> entity classification -> final mention output. Ablation
switches reproduce Figure 6's curves (``local`` / ``mining`` / ``full``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.ctrie import CTrie
from repro.core.entity_classifier import EntityClassifier, LABEL_ENTITY
from repro.core.mention_extraction import extract_mentions, mine_and_pool
from repro.core.phrase_embedder import (
    PhraseEmbedder,
    pooled_sentence_embeddings,
    train_phrase_embedder,
)
from repro.core.syntactic import N_CATEGORIES
from repro.streams import generator as gen
from repro.streams.sts import generate_sts

__all__ = [
    "MAX_CANDIDATE_TOKENS",
    "FittedVariant",
    "GlobalizerResult",
    "EMDGlobalizer",
    "build_variant",
    "candidate_table",
    "PHRASE_EMB_DIM",
]

# Section V-A: a candidate mention spans a token "together with up to k
# tokens following it" — the window cap, also applied to seed keys.
MAX_CANDIDATE_TOKENS = 5

# Phrase-embedder output width per deep instantiation (Section VI):
# Aguilar keeps its 100-d output size; BERTweet compresses 768 -> 300.
PHRASE_EMB_DIM = {"Aguilar et al.": 100, "BERTweet": 300}


@dataclass
class FittedVariant:
    """One framework instantiation, ready to run on streams."""

    system: object
    classifier: EntityClassifier
    phrase_embedder: PhraseEmbedder | None = None
    pe_history: dict = field(default_factory=dict)
    clf_history: dict = field(default_factory=dict)

    @property
    def emb_dim(self) -> int:
        """Width of local/global candidate embeddings for this variant."""
        if self.system.is_deep:
            return self.phrase_embedder.d_out
        return N_CATEGORIES


@dataclass
class GlobalizerResult:
    """Outputs of one full-cycle run on a tweet batch."""

    local_mentions: pd.DataFrame
    mined_mentions: pd.DataFrame
    final_mentions: pd.DataFrame
    candidates: pd.DataFrame  # key, n_mentions, score, label
    local_seconds: float
    global_seconds: float


def _seed_keys(local_mentions: pd.DataFrame) -> list:
    keys = sorted(set(local_mentions["key"]))
    return [k for k in keys if 1 <= len(k.split(" ")) <= MAX_CANDIDATE_TOKENS]


class EMDGlobalizer:
    """The framework: a fitted variant applied to tweet DataFrames."""

    def __init__(self, variant: FittedVariant):
        self.variant = variant

    def run(
        self, spark: SparkSession, tweets_df: DataFrame, *, ablation: str = "full"
    ) -> GlobalizerResult:
        """One execution cycle (Section III) over a batch of tweets.

        ``ablation``: ``'local'`` stops after Local EMD; ``'mining'``
        adds occurrence mining but skips the classifier (Fig. 6's middle
        curve); ``'full'`` runs everything.
        """
        v = self.variant
        t0 = time.perf_counter()
        local = v.system.tag(tweets_df).toPandas()
        local_seconds = time.perf_counter() - t0

        t1 = time.perf_counter()
        seeds = _seed_keys(local)
        if ablation == "local" or not seeds:
            empty = local.iloc[0:0]
            return GlobalizerResult(
                local, empty, local, pd.DataFrame(columns=["key", "n_mentions", "score", "label"]),
                local_seconds, time.perf_counter() - t1,
            )
        ctrie = CTrie(seeds)
        if ablation == "mining":
            mined = extract_mentions(spark, tweets_df, ctrie).toPandas()
            return GlobalizerResult(
                local, mined, mined,
                pd.DataFrame(columns=["key", "n_mentions", "score", "label"]),
                local_seconds, time.perf_counter() - t1,
            )
        pool = mine_and_pool(spark, tweets_df, ctrie, v.system, v.phrase_embedder)
        mined = pool.mentions
        gstats = pd.DataFrame({"key": pool.keys, "n_mentions": pool.n_mentions})
        if len(gstats):
            scores = v.classifier.scores(pool.embeddings, pool.keys)
            gstats["score"] = scores
            gstats["label"] = [v.classifier.bucket(float(p)) for p in scores]
        else:
            gstats["score"] = []
            gstats["label"] = []
        entity_keys = set(gstats.loc[gstats["label"] == LABEL_ENTITY, "key"])
        final = mined[mined["key"].isin(entity_keys)].reset_index(drop=True)
        global_seconds = time.perf_counter() - t1
        return GlobalizerResult(
            local, mined, final,
            gstats[["key", "n_mentions", "score", "label"]],
            local_seconds, global_seconds,
        )


def candidate_table(
    spark: SparkSession,
    variant_system,
    phrase_embedder: PhraseEmbedder | None,
    tweets_df: DataFrame,
    gold_keys: set,
) -> tuple:
    """Mine the labelled candidate table used to train/evaluate the
    Entity Classifier: run Local EMD + occurrence mining + pooling on a
    training stream, label each candidate by gold membership.

    Returns ``(embs, keys, labels, n_mentions)``, candidates in sorted
    key order (the classifier's train/val split is positional, so a
    stable order makes training reproducible); ``embs`` is
    ``(0, emb_dim)`` when no seed candidate survives.
    """
    local = variant_system.tag(tweets_df).toPandas()
    pool = mine_and_pool(
        spark, tweets_df, CTrie(_seed_keys(local)), variant_system, phrase_embedder
    )
    labels = np.array([1.0 if k in gold_keys else 0.0 for k in pool.keys])
    return pool.embeddings, pool.keys, labels, pool.n_mentions


def build_variant(
    spark: SparkSession,
    system,
    *,
    scale: float = 1.0,
    d5_scale: float | None = None,
    classifier_seed: int = 6,
) -> FittedVariant:
    """Perform all offline training for one framework instantiation.

    ``scale`` shrinks the training corpora (unit tests); ``d5_scale``
    optionally overrides the D5 scale (the 38K-tweet stream is the
    costliest part — benchmarks run it at a fraction, which preserves
    its distribution; see DESIGN.md).
    """
    train = gen.generate("wnut17_train", scale=scale)
    system.fit(train.tweets, train.gold)

    pe = None
    pe_hist: dict = {}
    if system.is_deep:
        n_train = max(200, int(5749 * scale))
        n_val = max(60, int(1500 * scale))
        pairs_train, pairs_val = generate_sts(n_train, n_val)
        A = pooled_sentence_embeddings(system, [p.tokens_a for p in pairs_train], 10_000_000)
        B = pooled_sentence_embeddings(system, [p.tokens_b for p in pairs_train], 20_000_000)
        y = np.array([p.score for p in pairs_train])
        Av = pooled_sentence_embeddings(system, [p.tokens_a for p in pairs_val], 30_000_000)
        Bv = pooled_sentence_embeddings(system, [p.tokens_b for p in pairs_val], 40_000_000)
        yv = np.array([p.score for p in pairs_val])
        d_out = PHRASE_EMB_DIM.get(system.name, system.embedding_dim)
        pe, pe_hist = train_phrase_embedder(
            A, B, y, d_out=d_out, val_split=(Av, Bv, yv)
        )

    d5 = gen.generate("d5", scale=d5_scale if d5_scale is not None else scale)
    d5_df = d5.to_spark(spark)
    gold_keys = set(d5.gold["key"])
    embs, keys, labels, _ = candidate_table(spark, system, pe, d5_df, gold_keys)
    clf = EntityClassifier.build(embs.shape[1], seed=classifier_seed)
    clf_hist = clf.train(embs, keys, labels, seed=classifier_seed)
    return FittedVariant(system, clf, pe, pe_hist, clf_hist)

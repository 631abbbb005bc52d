"""Distributed candidate mention extraction (Section V-A), local
candidate embeddings (Section V-B) and their pooling (Section V-C).

The CTrie built from Local EMD's seed candidates is broadcast, and
``mine_and_pool`` makes one ``mapInPandas`` scan over the tweet
DataFrame. For each tweet-sentence it finds *every* mention of every
candidate (including ones Local EMD missed), attaches the occurrence's
syntactic category, and embeds it from the tokens the scan already
holds:

- non-deep path: the 6-d one-hot of the syntactic category;
- deep path: the sentence's entity-aware token embeddings (recomputed
  deterministically, once per sentence with a hit — bit-equal to the
  values Local EMD produced, see ``repro.local_emd.embeddings``) pooled
  over the mention span and pushed through the Entity Phrase Embedder's
  dense layer (Eq. 1–2).

Each partition yields its mention rows plus one running ``(key, n,
sum)`` partial per candidate — the paper's incrementally updatable pool
— and the driver adds the partials. There is no join, no shuffle and no
per-key Python call. The partials combine as parallel partial sums do
(Chan, Golub & LeVeque 1979): counts and one-hot sums exactly, so the
result does not depend on the partitioning; deep float sums up to
rounding.

``extract_mentions`` and ``collect_local_embeddings`` are the two-pass
form of the same computation (a mining scan, then a join back to the
tweets that re-embeds each sentence). Together with
``repro.core.global_embedding.global_embeddings`` they are the
reference the one-pass path is tested against; the ``mining`` ablation
still uses ``extract_mentions``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import syntactic
from repro.core.ctrie import CTrie

__all__ = [
    "extract_mentions",
    "collect_local_embeddings",
    "mine_and_pool",
    "MinedPool",
    "MINED_SCHEMA",
    "EMB_SCHEMA",
]

MINED_SCHEMA = T.StructType(
    [
        T.StructField("tweet_id", T.LongType(), False),
        T.StructField("sent_id", T.IntegerType(), False),
        T.StructField("start", T.IntegerType(), False),
        T.StructField("length", T.IntegerType(), False),
        T.StructField("key", T.StringType(), False),
        T.StructField("surface", T.StringType(), False),
        T.StructField("category", T.IntegerType(), False),
    ]
)

EMB_SCHEMA = T.StructType(
    MINED_SCHEMA.fields + [T.StructField("emb", T.ArrayType(T.FloatType()), False)]
)

MINED_COLUMNS = MINED_SCHEMA.fieldNames()

# One row type for both outputs of the one-pass scan. A mention row has
# ``n == 0`` and no ``emb_sum``; a partial row has ``n > 0`` mentions of
# ``key`` summed into ``emb_sum`` and sentinel values in the span
# columns. Sentinels rather than nulls keep the integer columns
# non-nullable, so they reach the driver as int64/int32 without a copy.
POOL_SCHEMA = T.StructType(
    MINED_SCHEMA.fields
    + [
        T.StructField("n", T.LongType(), False),
        T.StructField("emb_sum", T.ArrayType(T.DoubleType()), True),
    ]
)


def extract_mentions(
    spark: SparkSession, tweets_df: DataFrame, ctrie: CTrie
) -> DataFrame:
    """Scan every tweet-sentence for candidate mentions via the broadcast
    CTrie; emit one row per occurrence with its syntactic category."""
    bc = spark.sparkContext.broadcast(ctrie)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        trie: CTrie = bc.value
        for pdf in batches:
            rows = []
            for tweet_id, sent_id, toks in zip(
                pdf["tweet_id"], pdf["sent_id"], pdf["tokens"]
            ):
                toks = list(toks)
                for start, length, key in trie.scan(toks):
                    rows.append(
                        (
                            int(tweet_id),
                            int(sent_id),
                            int(start),
                            int(length),
                            key,
                            " ".join(toks[start : start + length]),
                            int(syntactic.mention_category(toks, start, length)),
                        )
                    )
            yield pd.DataFrame(
                rows,
                columns=[
                    "tweet_id",
                    "sent_id",
                    "start",
                    "length",
                    "key",
                    "surface",
                    "category",
                ],
            )

    return tweets_df.mapInPandas(run, schema=MINED_SCHEMA)


def collect_local_embeddings(
    spark: SparkSession,
    tweets_df: DataFrame,
    mined_df: DataFrame,
    system,
    phrase_embedder=None,
) -> DataFrame:
    """Attach a local candidate embedding to every mined mention.

    ``system`` is the Local EMD instantiation. For non-deep systems the
    embedding is the syntactic one-hot (``phrase_embedder`` unused). For
    deep systems the fitted system and phrase embedder are shipped in
    the closure; entity-aware sentence embeddings are computed once per
    sentence within each partition and sliced per mention.
    """
    if not system.is_deep:
        to_onehot = F.udf(
            lambda c: syntactic.one_hot(int(c)).tolist(), T.ArrayType(T.FloatType())
        )
        return mined_df.withColumn("emb", to_onehot(F.col("category")))

    if phrase_embedder is None:
        raise ValueError("deep Local EMD requires a trained PhraseEmbedder")
    joined = mined_df.join(
        tweets_df.select("tweet_id", "sent_id", "tokens"), ["tweet_id", "sent_id"]
    ).repartition("tweet_id")
    dense = phrase_embedder.to_arrays()
    sys_ref = system

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.core.phrase_embedder import PhraseEmbedder

        pe = PhraseEmbedder.from_arrays(dense)
        for pdf in batches:
            if len(pdf) == 0:
                yield pd.DataFrame(
                    {f.name: pd.Series(dtype="object") for f in EMB_SCHEMA.fields}
                )
                continue
            embs = []
            cache_key, cache_val = None, None
            # rows for one sentence are adjacent after the repartition+join
            for r in pdf.sort_values(["tweet_id", "sent_id"]).itertuples():
                sk = (r.tweet_id, r.sent_id)
                if sk != cache_key:
                    cache_key = sk
                    cache_val = sys_ref.entity_aware_embeddings(
                        list(r.tokens), int(r.tweet_id), int(r.sent_id)
                    )
                span = cache_val[r.start : r.start + r.length]
                embs.append((r.Index, pe.embed_tokens(span).tolist()))
            emb_series = pd.Series(
                {i: e for i, e in embs}, name="emb", dtype="object"
            )
            out = pdf.join(emb_series)
            yield out[[f.name for f in EMB_SCHEMA.fields]]

    return joined.mapInPandas(run, schema=EMB_SCHEMA)


@dataclass
class MinedPool:
    """Output of :func:`mine_and_pool`: every mined mention and, per
    candidate key (sorted), its mention count and float64 embedding sum."""

    mentions: pd.DataFrame  # MINED_SCHEMA columns, in scan order
    keys: list
    n_mentions: np.ndarray  # int64, (n_keys,)
    emb_sum: np.ndarray  # float64, (n_keys, emb_dim)

    @property
    def embeddings(self) -> np.ndarray:
        """Pooled global embeddings (mean of local embeddings), float32."""
        return (self.emb_sum / self.n_mentions[:, None]).astype(np.float32)


def mine_and_pool(
    spark: SparkSession,
    tweets_df: DataFrame,
    ctrie: CTrie,
    system,
    phrase_embedder=None,
) -> MinedPool:
    """Mine, embed and pool in one scan (see the module docstring).

    Mentions and counts equal ``extract_mentions`` and
    ``global_embeddings(collect_local_embeddings(...))``; pooled one-hot
    means are exact, deep means agree to float32 rounding (the sums are
    float64 here, float32 in the reference).
    """
    if system.is_deep:
        if phrase_embedder is None:
            raise ValueError("deep Local EMD requires a trained PhraseEmbedder")
        emb_dim = phrase_embedder.d_out
        dense = phrase_embedder.to_arrays()
    else:
        emb_dim = syntactic.N_CATEGORIES
        dense = None
    bc = spark.sparkContext.broadcast(ctrie)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        from repro.core.phrase_embedder import PhraseEmbedder

        trie: CTrie = bc.value
        pe = PhraseEmbedder.from_arrays(dense) if dense is not None else None
        pool: dict = {}  # key -> [n, float64 embedding sum]
        for pdf in batches:
            rows = []
            for tweet_id, sent_id, toks in zip(
                pdf["tweet_id"], pdf["sent_id"], pdf["tokens"]
            ):
                toks = list(toks)
                hits = trie.scan(toks)
                if not hits:
                    continue
                tweet_id, sent_id = int(tweet_id), int(sent_id)
                if pe is not None:
                    ea = system.entity_aware_embeddings(toks, tweet_id, sent_id)
                for start, length, key in hits:
                    cat = int(syntactic.mention_category(toks, start, length))
                    acc = pool.get(key)
                    if acc is None:
                        acc = pool[key] = [0, np.zeros(emb_dim, dtype=np.float64)]
                    acc[0] += 1
                    if pe is None:
                        acc[1][cat] += 1.0  # adds the category's one-hot
                    else:
                        acc[1] += pe.embed_tokens(ea[start : start + length])
                    rows.append(
                        (
                            tweet_id,
                            sent_id,
                            int(start),
                            int(length),
                            key,
                            " ".join(toks[start : start + length]),
                            cat,
                        )
                    )
            yield pd.DataFrame(rows, columns=MINED_COLUMNS).assign(n=0, emb_sum=None)
        if pool:
            keys = list(pool)
            yield pd.DataFrame(
                {
                    "tweet_id": -1,
                    "sent_id": -1,
                    "start": -1,
                    "length": -1,
                    "key": keys,
                    "surface": "",
                    "category": -1,
                    "n": [pool[k][0] for k in keys],
                    "emb_sum": [pool[k][1] for k in keys],
                }
            )

    rows = tweets_df.mapInPandas(run, schema=POOL_SCHEMA).toPandas()
    is_partial = rows["n"].to_numpy() > 0
    mentions = rows.loc[~is_partial, MINED_COLUMNS]
    mentions.index = pd.RangeIndex(len(mentions))
    partials = rows.loc[is_partial]
    if not len(partials):
        return MinedPool(
            mentions, [], np.zeros(0, dtype=np.int64), np.zeros((0, emb_dim))
        )
    # add the partials in sorted key order: a stable sort keeps each
    # key's partials in partition order, so the sums are reproducible
    part_keys = partials["key"].to_numpy()
    order = np.argsort(part_keys, kind="stable")
    keys, starts = np.unique(part_keys[order], return_index=True)
    n_mentions = np.add.reduceat(partials["n"].to_numpy()[order], starts)
    emb_sum = np.add.reduceat(
        np.stack(partials["emb_sum"].to_numpy()[order]), starts, axis=0
    )
    return MinedPool(mentions, keys.tolist(), n_mentions.astype(np.int64), emb_sum)

"""Global candidate embeddings (Section V-C): reference pooling.

A candidate's global embedding is the mean of the local embeddings of
all its mentions found in the stream — "it aggregates all contextual
possibilities in which a candidate appears".

The pipeline computes it in one pass: ``mine_and_pool``
(``repro.core.mention_extraction``) keeps a running (sum, count) per
candidate in each partition and the driver adds the partials, the same
representation ``repro.core.candidate_base`` advances per micro-batch
in streaming mode. This module keeps the two-pass form as the reference
that tests and the benchmark's traced replay compare against:
``groupBy(key)`` + a per-group vector mean via ``applyInPandas`` over
the mention rows of ``collect_local_embeddings``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

__all__ = ["global_embeddings", "GLOBAL_SCHEMA"]

GLOBAL_SCHEMA = T.StructType(
    [
        T.StructField("key", T.StringType(), False),
        T.StructField("n_mentions", T.LongType(), False),
        T.StructField("emb", T.ArrayType(T.FloatType()), False),
    ]
)


def global_embeddings(local_emb_df: DataFrame) -> DataFrame:
    """``(key, emb)`` mention rows -> ``(key, n_mentions, pooled emb)``."""

    def pool(pdf: pd.DataFrame) -> pd.DataFrame:
        vecs = np.stack(pdf["emb"].to_numpy())
        return pd.DataFrame(
            {
                "key": [pdf["key"].iloc[0]],
                "n_mentions": [len(pdf)],
                "emb": [vecs.mean(axis=0).astype(np.float32).tolist()],
            }
        )

    return (
        local_emb_df.select("key", "emb")
        .groupBy("key")
        .applyInPandas(pool, schema=GLOBAL_SCHEMA)
    )


def mention_frequencies(mined_df: DataFrame) -> DataFrame:
    """Per-candidate mention counts (used by the error analysis and the
    windowed streaming aggregation)."""
    return mined_df.groupBy("key").agg(F.count("*").alias("n_mentions"))

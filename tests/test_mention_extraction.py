"""Tests for distributed occurrence mining + local embedding collection,
and for the one-pass mine/embed/pool scan against that two-pass
reference."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.candidate_base import CandidateBase
from repro.core.ctrie import CTrie
from repro.core.global_embedding import global_embeddings
from repro.core.mention_extraction import (
    MINED_SCHEMA,
    collect_local_embeddings,
    extract_mentions,
    mine_and_pool,
)
from repro.core.syntactic import N_CATEGORIES
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tweets_df(spark, d1_small):
    return d1_small.to_spark(spark).cache()


@pytest.fixture(scope="module")
def gold_trie(d1_small):
    return CTrie(sorted(set(d1_small.gold["key"])))


class TestExtractMentions:
    def test_matches_driver_side_scan(self, spark, tweets_df, gold_trie, d1_small):
        mined = extract_mentions(spark, tweets_df, gold_trie).toPandas()
        expected = []
        for r in d1_small.tweets.itertuples():
            for s, l, k in gold_trie.scan(list(r.tokens)):
                expected.append((r.tweet_id, r.sent_id, s, l, k))
        got = set(
            map(tuple, mined[["tweet_id", "sent_id", "start", "length", "key"]].itertuples(index=False))
        )
        assert got == set(expected)

    def test_gold_trie_recovers_nearly_all_gold_mentions(
        self, spark, tweets_df, gold_trie, d1_small
    ):
        """With the full gold candidate set registered, the scan must
        recover essentially every gold span (modulo rare longest-match
        merges of adjacent mentions)."""
        mined = extract_mentions(spark, tweets_df, gold_trie).toPandas()
        cols = ["tweet_id", "sent_id", "start", "length"]
        got = set(map(tuple, mined[cols].itertuples(index=False)))
        gold = set(map(tuple, d1_small.gold[cols].itertuples(index=False)))
        assert len(got & gold) / len(gold) > 0.98

    def test_surface_preserves_original_casing(self, spark, tweets_df, gold_trie):
        mined = extract_mentions(spark, tweets_df, gold_trie).toPandas()
        assert (mined["surface"].str.lower() == mined["key"]).all()
        assert (mined["surface"] != mined["key"]).any()  # some cased forms

    def test_categories_in_range(self, spark, tweets_df, gold_trie):
        mined = extract_mentions(spark, tweets_df, gold_trie).toPandas()
        assert mined["category"].between(0, N_CATEGORIES - 1).all()

    def test_mined_counts_match_duckdb_oracle(self, spark, tweets_df, gold_trie):
        mined_df = extract_mentions(spark, tweets_df, gold_trie)
        agg = mined_df.groupBy("key").agg(F.count("*").alias("n"))
        assert_equivalent(
            agg,
            "SELECT key, COUNT(*) AS n FROM mined GROUP BY key",
            mined=mined_df.toPandas(),
        )

    def test_empty_trie_yields_no_mentions(self, spark, tweets_df):
        mined = extract_mentions(spark, tweets_df, CTrie(["zzznotpresent"])).toPandas()
        assert len(mined) == 0


class TestCollectLocalEmbeddings:
    def test_nondeep_one_hot(self, spark, tweets_df, gold_trie, np_chunker):
        mined = extract_mentions(spark, tweets_df, gold_trie)
        embs = collect_local_embeddings(spark, tweets_df, mined, np_chunker).toPandas()
        assert len(embs) == mined.count()
        for r in embs.head(50).itertuples():
            v = np.asarray(r.emb)
            assert v.shape == (N_CATEGORIES,)
            assert v.sum() == 1.0 and v[r.category] == 1.0

    def test_deep_requires_phrase_embedder(self, spark, tweets_df, gold_trie, aguilar):
        mined = extract_mentions(spark, tweets_df, gold_trie)
        with pytest.raises(ValueError):
            collect_local_embeddings(spark, tweets_df, mined, aguilar, None)

    def test_deep_embeddings_match_direct_computation(
        self, spark, d1_small, aguilar, aguilar_variant
    ):
        """The Spark-side phrase embedding of a mention must equal the
        driver-side Eq.1-2 computation on the same entity-aware
        embeddings (the recompute-don't-materialize invariant)."""
        sub = d1_small.tweets.head(40)
        sub_df = spark.createDataFrame(sub)
        trie = CTrie(sorted(set(d1_small.gold["key"])))
        mined = extract_mentions(spark, sub_df, trie)
        pe = aguilar_variant.phrase_embedder
        embs = collect_local_embeddings(
            spark, sub_df, mined, aguilar_variant.system, pe
        ).toPandas()
        assert len(embs) > 0
        toks = {(r.tweet_id, r.sent_id): list(r.tokens) for r in sub.itertuples()}
        for r in embs.head(20).itertuples():
            sent = toks[(r.tweet_id, r.sent_id)]
            ea = aguilar_variant.system.entity_aware_embeddings(
                sent, int(r.tweet_id), int(r.sent_id)
            )
            expect = pe.embed_tokens(ea[r.start : r.start + r.length])
            assert np.allclose(np.asarray(r.emb), expect, atol=1e-4)

    def test_deep_embedding_width_is_phrase_dim(
        self, spark, d1_small, aguilar_variant
    ):
        sub_df = spark.createDataFrame(d1_small.tweets.head(30))
        trie = CTrie(sorted(set(d1_small.gold["key"])))
        mined = extract_mentions(spark, sub_df, trie)
        embs = collect_local_embeddings(
            spark, sub_df, mined, aguilar_variant.system, aguilar_variant.phrase_embedder
        ).toPandas()
        assert all(len(e) == aguilar_variant.phrase_embedder.d_out for e in embs["emb"])


def _rows(mentions: pd.DataFrame) -> list:
    cols = MINED_SCHEMA.fieldNames()
    return sorted(map(tuple, mentions[cols].itertuples(index=False)))


@pytest.fixture(scope="module", params=["NP Chunker", "Aguilar et al."])
def one_pass(request, spark, d1_small):
    """One system's one-pass output on a small corpus, with the two-pass
    reference (extract_mentions -> collect_local_embeddings ->
    global_embeddings) computed on the same input."""
    if request.param == "NP Chunker":
        system, pe = request.getfixturevalue("np_chunker"), None
    else:
        v = request.getfixturevalue("aguilar_variant")
        system, pe = v.system, v.phrase_embedder
    df = spark.createDataFrame(d1_small.tweets.head(300)).cache()
    trie = CTrie(sorted(set(d1_small.gold["key"])))
    mined_df = extract_mentions(spark, df, trie)
    local_df = collect_local_embeddings(spark, df, mined_df, system, pe)
    case = {
        "system": system,
        "pe": pe,
        "df": df,
        "trie": trie,
        # one-hot sums are small integers, so their means are exact
        "exact": not system.is_deep,
        "pool": mine_and_pool(spark, df, trie, system, pe),
        "ref_mined": mined_df.toPandas(),
        "ref_local": local_df.toPandas(),
        "ref_global": global_embeddings(local_df)
        .toPandas()
        .sort_values("key")
        .reset_index(drop=True),
    }
    yield case
    df.unpersist()


def _assert_close(got, expect, exact: bool, atol: float) -> None:
    if exact:
        assert np.array_equal(got, expect)
    else:
        assert np.max(np.abs(got - expect)) <= atol


class TestMineAndPool:
    def test_mentions_equal_extract_mentions(self, one_pass):
        pool = one_pass["pool"]
        assert len(pool.mentions) > 0
        assert _rows(pool.mentions) == _rows(one_pass["ref_mined"])

    def test_keys_and_counts_equal_reference(self, one_pass):
        pool, ref = one_pass["pool"], one_pass["ref_global"]
        assert pool.keys == ref["key"].tolist()
        assert pool.n_mentions.tolist() == ref["n_mentions"].tolist()

    def test_pooled_embeddings_match_reference(self, one_pass):
        pool, ref = one_pass["pool"], one_pass["ref_global"]
        expect = np.stack(ref["emb"].to_numpy()).astype(np.float32)
        assert pool.embeddings.shape == expect.shape
        _assert_close(pool.embeddings, expect, one_pass["exact"], 1e-6)

    def test_partition_independent(self, spark, one_pass):
        c = one_pass
        df1, df4 = c["df"].coalesce(1), c["df"].repartition(4)
        assert (df1.rdd.getNumPartitions(), df4.rdd.getNumPartitions()) == (1, 4)
        p1, p4 = (
            mine_and_pool(spark, d, c["trie"], c["system"], c["pe"]) for d in (df1, df4)
        )
        assert _rows(p1.mentions) == _rows(p4.mentions) == _rows(c["pool"].mentions)
        assert p1.keys == p4.keys == c["pool"].keys
        assert p1.n_mentions.tolist() == p4.n_mentions.tolist()
        _assert_close(p1.embeddings, p4.embeddings, c["exact"], 1e-6)

    def test_candidate_base_partials_equal_per_mention_adds(self, one_pass):
        pool = one_pass["pool"]
        d = pool.emb_sum.shape[1]
        fed_partials, fed_mentions = CandidateBase(d), CandidateBase(d)
        for key, n, emb_sum in zip(pool.keys, pool.n_mentions, pool.emb_sum):
            fed_partials.add_mention(key, emb_sum, int(n))
        for r in one_pass["ref_local"].itertuples():
            fed_mentions.add_mention(r.key, np.asarray(r.emb, dtype=np.float64))
        assert fed_partials.keys() == fed_mentions.keys()
        for k in fed_partials.keys():
            a, b = fed_partials.get(k), fed_mentions.get(k)
            assert a.n_mentions == b.n_mentions
            # the same float32 local embeddings, summed in float64 in
            # another order
            _assert_close(a.emb_sum, b.emb_sum, one_pass["exact"], 1e-9)

    def test_no_mentions_gives_empty_pool(self, spark, tweets_df, np_chunker):
        pool = mine_and_pool(spark, tweets_df, CTrie(["zzznotpresent"]), np_chunker)
        assert len(pool.mentions) == 0 and pool.keys == []
        assert pool.emb_sum.shape == (0, N_CATEGORIES)
        assert pool.embeddings.shape == (0, N_CATEGORIES)

    def test_deep_requires_phrase_embedder(self, spark, tweets_df, gold_trie, aguilar):
        with pytest.raises(ValueError):
            mine_and_pool(spark, tweets_df, gold_trie, aguilar, None)

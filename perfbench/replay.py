"""Traced replays of ``EMDGlobalizer.run`` and ``StreamingGlobalizer.process_batch``.

Each replay makes the same public calls, in the same order, as the code
it mirrors, with a span around each call into a layer. Spark evaluates
mining, embedding and pooling lazily inside one job, so the replay first
times each prefix of that plan on its own with a ``noop`` write (a probe:
extra work that only the traced run does), and a span that recomputes an
earlier prefix names it in ``recomputes``; its self time excludes it.
The probes add to the traced run's wall time, never to a span's self
time, so their cost shows up only in ``trace.overhead_s``. The workload
asserts that a replay's outputs equal the untraced run's.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import pandas as pd

from repro.core.ctrie import CTrie
from repro.core.entity_classifier import LABEL_ENTITY
from repro.core.global_embedding import global_embeddings
from repro.core.mention_extraction import collect_local_embeddings, extract_mentions
from repro.core.pipeline import MAX_CANDIDATE_TOKENS, GlobalizerResult
from repro.streaming.job import BatchOutput

from perfbench.checks import recovery_counts


class Tracer:
    """Spans kept in memory: name, start, end, parent, and the span whose
    work this one recomputes. Counts are kept beside them."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._open: list = []

    @contextmanager
    def span(self, name: str, recomputes: str | None = None):
        sp = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "recomputes": recomputes,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp["end"] = time.perf_counter()
            self._open.pop()

    def record(self, name: str, seconds: float) -> None:
        """A span made of many short timed calls inside the open span."""
        now = time.perf_counter()
        self.spans.append({
            "id": len(self.spans), "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "recomputes": None, "start": now - seconds, "end": now,
        })

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def self_times(self) -> dict:
        """Seconds per span name: each span's duration minus its children's
        and minus the span it recomputes."""
        dur = {s["id"]: s["end"] - s["start"] for s in self.spans}
        own = dict(dur)
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= dur[s["id"]]
            if s["recomputes"] is not None:
                own[s["id"]] -= dur[self._last(s["recomputes"], s["id"])]
        out: dict = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += own[s["id"]]
        return dict(out)

    def _last(self, name: str, before: int) -> int:
        return max(s["id"] for s in self.spans if s["name"] == name and s["id"] < before)


def materialise(df) -> None:
    """Run a DataFrame's plan to the end without keeping its rows."""
    df.write.format("noop").mode("overwrite").save()


def _seeds(local: pd.DataFrame) -> list:
    return [k for k in sorted(set(local["key"])) if 1 <= len(k.split(" ")) <= MAX_CANDIDATE_TOKENS]


def traced_run(tr: Tracer, variant, spark, tweets_df) -> GlobalizerResult:
    """``EMDGlobalizer.run(ablation="full")`` with a span per layer call."""
    v = variant
    t0 = time.perf_counter()
    with tr.span("local_emd.tag"):
        local = v.system.tag(tweets_df).toPandas()
    local_seconds = time.perf_counter() - t0
    t1 = time.perf_counter()
    with tr.span("ctrie.build"):
        seeds = _seeds(local)
        if seeds:
            ctrie = CTrie(seeds)
    tr.count("local_emd.mentions", len(local))
    tr.count("local_emd.seeds", len(seeds))
    if not seeds:
        empty = local.iloc[0:0]
        no_cands = pd.DataFrame(columns=["key", "n_mentions", "score", "label"])
        return GlobalizerResult(local, empty, local, no_cands, local_seconds, time.perf_counter() - t1)
    tr.count("ctrie.keys", len(ctrie))
    with tr.span("mining.extract"):
        mined_df = extract_mentions(spark, tweets_df, ctrie)
        materialise(mined_df)
    with tr.span("mining.embed", recomputes="mining.extract"):
        local_embs = collect_local_embeddings(spark, tweets_df, mined_df, v.system, v.phrase_embedder)
        materialise(local_embs)
    with tr.span("pool", recomputes="mining.embed"):
        gstats = global_embeddings(local_embs).toPandas().sort_values("key").reset_index(drop=True)
    with tr.span("mining.collect"):
        mined = mined_df.toPandas()
    with tr.span("classify"):
        if len(gstats):
            embs = np.stack(gstats["emb"].to_numpy()).astype(np.float32)
            keys = gstats["key"].tolist()
            scores = v.classifier.scores(embs, keys)
            gstats["score"] = scores
            gstats["label"] = [v.classifier.bucket(float(p)) for p in scores]
        else:
            gstats["score"] = []
            gstats["label"] = []
    with tr.span("emit"):
        entity_keys = set(gstats.loc[gstats["label"] == LABEL_ENTITY, "key"])
        final = mined[mined["key"].isin(entity_keys)].reset_index(drop=True)
    global_seconds = time.perf_counter() - t1
    tr.count("mining.mentions", len(mined))
    tr.count("mining.embed_rows", int(gstats["n_mentions"].sum()) if len(gstats) else 0)
    tr.count("pool.keys", len(gstats))
    tr.count("emit.mentions", len(final))
    recovered, corrected = recovery_counts(local, mined)
    tr.count("mining.recovered_mentions", recovered)
    tr.count("mining.corrected_partials", corrected)
    return GlobalizerResult(
        local, mined, final, gstats[["key", "n_mentions", "score", "label"]],
        local_seconds, global_seconds,
    )


def traced_process_batch(tr: Tracer, sg, spark, batch_df, batch_id: int) -> BatchOutput:
    """``StreamingGlobalizer.process_batch`` with a span per layer call."""
    v = sg.variant
    with tr.span("stream.process_batch"):
        batch_df = batch_df.select("tweet_id", "sent_id", "topic", "tokens").cache()
        try:
            with tr.span("stream.collect"):
                n_tweets = batch_df.count()
                rows = batch_df.select("tweet_id", "sent_id", "tokens").collect()
            with tr.span("tweetbase.add_sentence"):
                for r in rows:
                    sg.tweet_base.add_sentence(r.tweet_id, r.sent_id, list(r.tokens))
            with tr.span("local_emd.tag"):
                local = v.system.tag(batch_df).toPandas()
            with tr.span("ctrie.insert"):
                before = len(sg.ctrie)
                seeds = _seeds(local)
                for key in seeds:
                    sg.ctrie.insert(key)
                n_new = len(sg.ctrie) - before
            tr.count("local_emd.mentions", len(local))
            tr.count("local_emd.seeds", len(seeds))
            tr.count("stream.new_candidates", n_new)
            if len(sg.ctrie) == 0:
                out = BatchOutput(batch_id, n_tweets, 0, local.iloc[0:0])
                sg.outputs.append(out)
                return out
            with tr.span("mining.extract"):
                mined_df = extract_mentions(spark, batch_df, sg.ctrie)
                materialise(mined_df)
            with tr.span("mining.embed", recomputes="mining.extract"):
                embs = collect_local_embeddings(
                    spark, batch_df, mined_df, v.system, v.phrase_embedder
                ).toPandas()
            with tr.span("stream.update"):
                t_add = t_rec = 0.0
                for r in embs.itertuples():
                    emb = np.asarray(r.emb, dtype=np.float64)
                    a = time.perf_counter()
                    sg.candidate_base.add_mention(r.key, emb)
                    b = time.perf_counter()
                    sg.tweet_base.record_mention(r.tweet_id, r.sent_id, r.start, r.length, r.key)
                    t_add += b - a
                    t_rec += time.perf_counter() - b
                tr.record("pool", t_add)
                tr.record("tweetbase.record_mention", t_rec)
            with tr.span("classify"):
                sg.candidate_base.classify_all(v.classifier)
            with tr.span("emit"):
                entity_keys = sg.candidate_base.entity_keys()
                mentions = embs[embs["key"].isin(entity_keys)][
                    ["tweet_id", "sent_id", "start", "length", "key", "surface"]
                ].reset_index(drop=True)
            tr.count("mining.mentions", len(embs))
            tr.count("mining.embed_rows", len(embs))
            tr.count("emit.mentions", len(mentions))
            recovered, corrected = recovery_counts(local, embs)
            tr.count("mining.recovered_mentions", recovered)
            tr.count("mining.corrected_partials", corrected)
        finally:
            batch_df.unpersist()
    out = BatchOutput(batch_id, n_tweets, n_new, mentions)
    sg.outputs.append(out)
    return out

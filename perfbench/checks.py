"""Output checks run on every operation, the output digest, and the
counts that explain F1 (all computed from the program's own outputs)."""
from __future__ import annotations

import hashlib
from collections import Counter, defaultdict

import pandas as pd

from repro.core.entity_classifier import LABEL_AMBIG, LABEL_ENTITY, LABEL_NON

SPAN = ["tweet_id", "sent_id", "start", "length"]
MENTION = SPAN + ["key"]


def span_set(df: pd.DataFrame, cols: list = MENTION) -> set:
    if not len(df):
        return set()
    return set(df[cols].astype({c: int for c in SPAN if c in cols}).itertuples(index=False, name=None))


def check_batch_result(res) -> list:
    """Problems with one ``GlobalizerResult``; empty when it is correct."""
    problems = []
    mined = span_set(res.mined_mentions)
    stray = span_set(res.final_mentions) - mined
    if stray:
        problems.append(f"{len(stray)} final mentions are not mined mentions")
    mined_counts = res.mined_mentions["key"].value_counts().to_dict()
    cand_counts = dict(zip(res.candidates["key"], res.candidates["n_mentions"].astype(int)))
    if cand_counts != mined_counts:
        diff = set(cand_counts.items()) ^ set(mined_counts.items())
        problems.append(f"candidate n_mentions differ from the mined count on {len(diff)} keys")
    return problems


def check_stream(sg, n_corpus: int) -> tuple:
    """``(per_batch_problems, run_problems)`` for a finished stream.

    Every emitted mention must be a mined one (the TweetBase records each
    mined mention), each candidate's ``n_mentions`` must equal its mined
    count, and the micro-batches must together hold the whole corpus.
    """
    recorded = sg.tweet_base.all_mentions()
    mined = set(recorded)
    per_batch = []
    for o in sg.outputs:
        stray = span_set(o.mentions) - mined
        per_batch.append([f"{len(stray)} emitted mentions are not mined mentions"] if stray else [])
    run = []
    mined_counts = Counter(m[4] for m in recorded)
    cb = sg.candidate_base
    cand_counts = {k: cb.get(k).n_mentions for k in cb.keys()}
    if cand_counts != dict(mined_counts):
        run.append("candidate n_mentions differ from the mined count per key")
    n_tweets = sum(o.n_tweets for o in sg.outputs)
    if n_tweets != n_corpus:
        run.append(f"micro-batches hold {n_tweets} tweets, the corpus {n_corpus}")
    return per_batch, run


def digest(mentions: pd.DataFrame, candidates: list) -> str:
    """Digest of the sorted output: mentions and ``(key, n_mentions, label)``."""
    h = hashlib.sha256()
    h.update(repr(sorted(span_set(mentions))).encode())
    h.update(repr(sorted(candidates)).encode())
    return h.hexdigest()


def candidate_rows(candidates: pd.DataFrame) -> list:
    return [(k, int(n), lab) for k, n, lab in zip(candidates["key"], candidates["n_mentions"], candidates["label"])]


def stream_candidate_rows(candidate_base) -> list:
    return [
        (k, candidate_base.get(k).n_mentions, candidate_base.get(k).label)
        for k in candidate_base.keys()
    ]


def recovery_counts(local: pd.DataFrame, mined: pd.DataFrame) -> tuple:
    """``(recovered, corrected_partials)``: mined spans Local EMD missed,
    and Local EMD spans strictly inside a longer mined span of the same
    sentence (Fig. 1's "andy" -> "andy beshear")."""
    local_spans = span_set(local, SPAN)
    mined_spans = span_set(mined, SPAN)
    by_sentence = defaultdict(list)
    for t, s, st, ln in mined_spans:
        by_sentence[(t, s)].append((st, ln))
    corrected = sum(
        any(ms <= st and st + ln <= ms + ml and ml > ln for ms, ml in by_sentence[(t, s)])
        for t, s, st, ln in local_spans
    )
    return len(mined_spans - local_spans), corrected


def label_counts(labels) -> dict:
    c = Counter(labels)
    return {"entity": c[LABEL_ENTITY], "ambiguous": c[LABEL_AMBIG], "non_entity": c[LABEL_NON]}

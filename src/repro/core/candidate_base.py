"""CandidateBase (Section V-C): incremental per-candidate state.

Maintains, for every entity candidate discovered in a stream, the
running (sum, count) of its local mention embeddings — so the pooled
global embedding "can be incrementally updated by adding local
embeddings into the pool as and when new mentions arrive" — plus the
latest classifier verdict. This is the driver-side state advanced by
the Structured Streaming job's ``foreachBatch``, which adds each
micro-batch's per-key partial sums from ``mine_and_pool``; its pooled
means are asserted equal to the reference ``groupBy`` aggregation in
tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.entity_classifier import EntityClassifier, LABEL_AMBIG

__all__ = ["CandidateBase", "CandidateRecord"]


@dataclass
class CandidateRecord:
    """Running pooled state for one candidate key."""

    key: str
    emb_sum: np.ndarray
    n_mentions: int = 0
    label: str = LABEL_AMBIG
    score: float = float("nan")

    @property
    def global_embedding(self) -> np.ndarray:
        return (self.emb_sum / max(1, self.n_mentions)).astype(np.float32)


class CandidateBase:
    """Keyed store of :class:`CandidateRecord` with incremental update."""

    def __init__(self, d_emb: int):
        self.d_emb = d_emb
        self._records: dict = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> CandidateRecord:
        return self._records[key]

    def keys(self) -> list:
        return sorted(self._records)

    def add_mention(self, key: str, emb: np.ndarray, n: int = 1) -> CandidateRecord:
        """Add ``n`` mentions of ``key`` whose local embeddings sum to
        ``emb`` (one mention's embedding when ``n`` is 1)."""
        rec = self._records.get(key)
        if rec is None:
            rec = CandidateRecord(key, np.zeros(self.d_emb, dtype=np.float64))
            self._records[key] = rec
        rec.emb_sum += emb
        rec.n_mentions += n
        return rec

    def classify_all(self, classifier: EntityClassifier) -> None:
        """Re-score every candidate against its current pooled embedding
        (streaming mode re-runs this per micro-batch: gamma candidates
        gain evidence as new mentions arrive)."""
        if not self._records:
            return
        keys = self.keys()
        embs = np.stack([self._records[k].global_embedding for k in keys])
        scores = classifier.scores(embs, keys)
        for k, p in zip(keys, scores):
            self._records[k].score = float(p)
            self._records[k].label = classifier.bucket(float(p))

    def entity_keys(self) -> set:
        from repro.core.entity_classifier import LABEL_ENTITY

        return {k for k, r in self._records.items() if r.label == LABEL_ENTITY}

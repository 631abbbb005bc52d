"""Workloads, the benchmark's Spark session, set-up, the measured loops,
and the metrics they report.

Untraced runs (``--trace 0``) run the public entry points
``EMDGlobalizer.run`` and ``StreamingGlobalizer.run_file_stream``, check
every operation and report the end-to-end metrics: set-up time, F1 and
the driver's memory. Traced runs (``--trace 1``) make one untraced
operation, timed, replay it with spans (``perfbench.replay``), check
that both give the same output, and report the per-layer metrics, the
operation's CPU and wall times among them.

Times are CPU seconds of the whole process tree (this driver, the Spark
JVM and its Python workers), with wall times beside them. On a shared
4-vCPU host both move with the host's load by more than the largest
bound the benchmark may set, so an operation's time is a per-layer
metric, not a gated end-to-end one (see README.md).
"""
from __future__ import annotations

import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from perfbench import checks, replay, sparklog

# Load comes from this one process; Spark runs local[CORES].
CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "3g"
SHUFFLE_PARTITIONS = 64  # as jobs/_session.py
# Variants are built as the ROADMAP baseline builds them; corpora are at
# full Table I size. Smoke mode shrinks both so the tests run in seconds.
SCALE, D5_SCALE, CORPUS_SCALE = 0.3, 0.05, 1.0
SMOKE_SCALE, SMOKE_D5_SCALE, SMOKE_CORPUS_SCALE = 0.05, 0.02, 0.05
# A batch run repeats EMDGlobalizer.run until it has measured --seconds.
# At full scale one repetition takes longer than the 10 s the benchmark
# runs for, and each run also pays about 30 s of set-up; more repetitions
# per run would not fit the time the whole set of runs may take.
MIN_REPS = 1
# Before measuring, a batch run warms the JVM and the Python workers up
# on this share of the corpus: the first operation of a session spends
# several CPU seconds compiling.
WARM_UP_SHARE = 12
# No operation starts when it would end after this many seconds of the
# process's life: a run must exit within 180 s.
DEADLINE_S = 150.0
STREAM_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    system: str
    dataset: str
    stream_batches: int = 0  # micro-batch files; 0 runs EMDGlobalizer.run


WORKLOADS = {
    # Non-deep path: 6-d syntactic embeddings, many mentions per key, so
    # pooling (one Python call per key) dominates Global EMD.
    "batch-chunker-d4": Workload("NP Chunker", "d4"),
    # Deep path: join to tweets, repartition, re-embedding, 100-d pooling
    # over many keys with few mentions each (low entity repetition).
    "batch-aguilar-btc": Workload("Aguilar et al.", "btc"),
    # Streaming state grows batch by batch: CTrie inserts, CandidateBase
    # writes, TweetBase collects; global_embeddings is bypassed.
    "stream-aguilar-d4": Workload("Aguilar et al.", "d4", stream_batches=3),
}
SMOKE_STREAM_BATCHES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "f1": "f1",
    "driver_peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "local_emd.tag_s": "s",
    "local_emd.mentions": "count",
    "local_emd.seeds": "count",
    "ctrie.build_s": "s",
    "ctrie.keys": "count",
    "stream.ctrie_insert_s": "s",
    "mining.extract_s": "s",
    "mining.mentions": "count",
    "mining.recovered_mentions": "count",
    "mining.corrected_partials": "count",
    "mining.embed_s": "s",
    "mining.embed_rows": "count",
    "mining.collect_s": "s",
    "pool_s": "s",
    "pool.keys": "count",
    "pool.mentions_per_key": "count",
    "classify_s": "s",
    "classify.entity": "count",
    "classify.ambiguous": "count",
    "classify.non_entity": "count",
    "emit_s": "s",
    "emit.mentions": "count",
    "stream.process_batch_s": "s",
    "stream.query_overhead_s": "s",
    "stream.collect_s": "s",
    "stream.candidate_base_s": "s",
    "stream.tweet_base_s": "s",
    "stream.new_candidates": "count",
    "stream.ctrie_keys": "count",
    "stream.candidate_base_keys": "count",
    "stream.tweet_base_sentences": "count",
    "stream.batch_f1_gap": "f1",
    "spark.jobs": "count",
    "spark.tasks": "count",
    "spark.shuffle_write_bytes": "B",
    "spark.executor_run_s": "s",
    "total_cpu_s": "s",
    "global_cpu_s": "s",
    "batch_p50_cpu_s": "s",
    "wall.setup_s": "s",
    "wall.total_s": "s",
    "wall.global_s": "s",
    "wall.batch_p50_s": "s",
    "trace.overhead_s": "s",
}


class Ops:
    """Operations attempted and failed; an operation fails if it raises,
    times out, or fails an output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list, what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {what}: {p}", file=sys.stderr)


def _tree() -> list:
    """``(pid, cpu_ticks)`` of this process and its descendants (the
    Spark JVM and its Python workers); a process's ticks include those of
    its reaped children."""
    stats = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        stats[int(pid)] = (int(fields[1]), sum(int(x) for x in fields[11:15]))
    children: dict = {}
    for pid, (ppid, _) in stats.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        out.append((pid, stats.get(pid, (0, 0))[1]))
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu_s() -> float:
    """CPU seconds used so far by this process and its descendants."""
    return sum(ticks for _, ticks in _tree()) / os.sysconf("SC_CLK_TCK")


class Clock:
    """Wall and process-tree CPU seconds since it was made."""

    def __init__(self):
        self.t0, self.c0 = time.perf_counter(), tree_cpu_s()

    def read(self) -> tuple:
        return time.perf_counter() - self.t0, tree_cpu_s() - self.c0


# ----------------------------------------------------------------------
# session, set-up and inputs


def start_spark(work_dir: str, event_dir: str | None):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.master(f"local[{CORES}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config(
            "spark.driver.extraJavaOptions",
            f"-Djava.io.tmpdir={os.path.join(work_dir, 'tmp')} -XX:-UsePerfData",
        )
        .config("spark.local.dir", os.path.join(work_dir, "spark-local"))
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
    )
    if event_dir is not None:
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", "file://" + event_dir)
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM, and wait until every process this
    run started has ended."""
    from pyspark import SparkContext

    for q in spark.streams.active:
        q.stop()
    spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            gateway.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            gateway.proc.kill()
            gateway.proc.wait()
        SparkContext._gateway = SparkContext._jvm = None
    deadline = time.monotonic() + 30
    while len(_tree()) > 1:
        if time.monotonic() > deadline:
            for pid, _ in _tree()[1:]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.1)


def set_up(wl: Workload, smoke: bool, work_dir: str, event_dir: str | None):
    """Spark session start plus ``build_variant``; returns the session,
    the variant and the set-up's ``(wall, cpu)`` seconds."""
    clock = Clock()
    spark = start_spark(work_dir, event_dir)
    from repro.core.pipeline import build_variant
    from repro.eval.experiments import make_system

    variant = build_variant(
        spark,
        make_system(wl.system),
        scale=SMOKE_SCALE if smoke else SCALE,
        d5_scale=SMOKE_D5_SCALE if smoke else D5_SCALE,
    )
    return spark, variant, clock.read()


def make_inputs(wl: Workload, seed: int, smoke: bool, n_batches: int):
    """The workload's corpus. Seed 0 keeps the generator's tweet order;
    any other seed permutes the order in which tweets arrive. On a stream
    the permutation stays inside each micro-batch, so every seed streams
    the same batches: which tweets share a batch moves the streaming F1
    by several points, and an F1 with that spread could not show a loss."""
    from repro.streams import generator as gen

    ds = gen.generate(wl.dataset, scale=SMOKE_CORPUS_SCALE if smoke else CORPUS_SCALE)
    if seed:
        n = len(ds.tweets)
        rng = np.random.default_rng(seed)
        if n_batches:
            per = -(-n // n_batches)  # as write_stream_batches splits
            order = np.concatenate([s + rng.permutation(min(per, n - s)) for s in range(0, n, per)])
        else:
            order = rng.permutation(n)
        ds = dataclasses.replace(ds, tweets=ds.tweets.iloc[order].reset_index(drop=True))
    return ds


def head(ds, share: int):
    """The first ``1/share`` of a corpus's tweets, for a warm-up."""
    return dataclasses.replace(ds, tweets=ds.tweets.iloc[: max(1, len(ds.tweets) // share)])


class _TimedFrame:
    """A DataFrame whose ``toPandas`` adds its wall and CPU time to a timer."""

    def __init__(self, df, timer):
        self._df = df
        self._timer = timer

    def toPandas(self):
        clock = Clock()
        try:
            return self._df.toPandas()
        finally:
            wall, cpu = clock.read()
            self._timer.wall += wall
            self._timer.cpu += cpu


class LocalTagTimer:
    """Times Local EMD (``system.tag(df).toPandas()``) inside an
    operation, so the Global EMD share can exclude it. It patches the
    system's class for the length of the operation; the instance, which
    Spark ships to the executors, stays untouched."""

    def __init__(self, system):
        self.cls = type(system)
        self.wall = self.cpu = 0.0

    def __enter__(self):
        self._own = self.cls.__dict__.get("tag")
        original = self.cls.tag
        timer = self

        def tag(system, tweets_df):
            return _TimedFrame(original(system, tweets_df), timer)

        self.cls.tag = tag
        return self

    def __exit__(self, *exc):
        if self._own is None:
            del self.cls.tag
        else:
            self.cls.tag = self._own


# ----------------------------------------------------------------------
# batch workloads


@dataclass
class Rep:
    res: object
    wall: float
    cpu: float
    global_cpu: float


def batch_rep(g, spark, tweets_df, ops: Ops, first_digest: list) -> Rep | None:
    """One timed ``EMDGlobalizer.run``, checked; None if it raised."""
    tag_timer = LocalTagTimer(g.variant.system)
    with tag_timer:
        clock = Clock()
        try:
            res = g.run(spark, tweets_df, ablation="full")
        except Exception:
            traceback.print_exc()
            ops.record(["EMDGlobalizer.run raised"], "batch repetition")
            return None
        wall, cpu = clock.read()
    problems = checks.check_batch_result(res)
    d = checks.digest(res.final_mentions, checks.candidate_rows(res.candidates))
    if not first_digest:
        first_digest.append(d)
    elif d != first_digest[0]:
        problems.append("output digest differs from the run's first repetition")
    ops.record(problems, "batch repetition")
    return Rep(res, wall, cpu, cpu - tag_timer.cpu)


def warm_up_batch(g, spark, ds, ops: Ops) -> None:
    warm_df = head(ds, WARM_UP_SHARE).to_spark(spark)
    batch_rep(g, spark, warm_df, ops, [])


def measure_batch(spark, variant, ds, seconds: float, deadline: float, ops: Ops) -> dict:
    from repro.core.pipeline import EMDGlobalizer
    from repro.eval.metrics import score_mentions

    g = EMDGlobalizer(variant)
    warm_up_batch(g, spark, ds, ops)
    tweets_df = ds.to_spark(spark).cache()
    tweets_df.count()
    reps, first_digest = [], []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        if time.perf_counter() + max((r.wall for r in reps), default=0.0) > deadline:
            break
        rep = batch_rep(g, spark, tweets_df, ops, first_digest)
        if rep is not None:
            reps.append(rep)
    tweets_df.unpersist()
    if not reps:
        raise RuntimeError("no batch repetition completed")
    print(
        f"perfbench: {len(reps)} repetitions, walls {[round(r.wall, 3) for r in reps]}, "
        f"global walls {[round(r.res.global_seconds, 3) for r in reps]}, "
        f"cpu {[round(r.cpu, 3) for r in reps]}",
        file=sys.stderr,
    )
    return {"f1": statistics.median(score_mentions(r.res.final_mentions, ds.gold).f1 for r in reps)}


def trace_batch(spark, variant, ds, tr, ops: Ops) -> dict:
    """One untraced repetition, then its traced replay; both checked and
    compared. Returns per-layer values that the tracer does not hold."""
    from repro.core.pipeline import EMDGlobalizer

    g = EMDGlobalizer(variant)
    warm_up_batch(g, spark, ds, ops)
    tweets_df = ds.to_spark(spark).cache()
    tweets_df.count()
    window_start = time.time() * 1000
    ref = batch_rep(g, spark, tweets_df, ops, [])
    window = (window_start, time.time() * 1000)
    t0 = time.perf_counter()
    res = replay.traced_run(tr, variant, spark, tweets_df)
    traced = time.perf_counter() - t0
    tweets_df.unpersist()
    if ref is None:
        raise RuntimeError("the untraced repetition failed")
    problems = checks.check_batch_result(res)
    if checks.span_set(res.final_mentions) != checks.span_set(ref.res.final_mentions):
        problems.append("traced final mentions differ from the untraced run's")
    if checks.candidate_rows(res.candidates) != checks.candidate_rows(ref.res.candidates):
        problems.append("traced (key, n_mentions, label) table differs from the untraced run's")
    ops.record(problems, "traced batch repetition")
    labels = checks.label_counts(res.candidates["label"])
    return {
        "window": window,
        "trace.overhead_s": traced - ref.wall,
        "total_cpu_s": ref.cpu,
        "global_cpu_s": ref.global_cpu,
        "batch_p50_cpu_s": ref.cpu,
        "wall.total_s": ref.wall,
        "wall.global_s": ref.res.global_seconds,
        "wall.batch_p50_s": ref.wall,
        "classify.entity": labels["entity"],
        "classify.ambiguous": labels["ambiguous"],
        "classify.non_entity": labels["non_entity"],
    }


# ----------------------------------------------------------------------
# stream workload


def stream_pass(spark, variant, ds, n_batches: int, pass_dir: str, tr=None) -> dict:
    """Write the corpus as micro-batch files and run ``run_file_stream``
    over them once, untraced or (with ``tr``) through the traced replay.
    ``problems`` holds each micro-batch's failed checks."""
    from repro.eval.metrics import score_mentions
    from repro.streaming.job import StreamingGlobalizer, write_stream_batches

    input_dir = os.path.join(pass_dir, "input")
    write_stream_batches(ds, input_dir, n_batches=n_batches)
    sg = StreamingGlobalizer(variant)
    batches: list = []  # (wall, cpu) per micro-batch
    if tr is None:
        process = sg.process_batch

        def timed(spark_, batch_df, batch_id):
            clock = Clock()
            out = process(spark_, batch_df, batch_id)
            batches.append(clock.read())
            return out

        sg.process_batch = timed
    else:
        sg.process_batch = lambda spark_, batch_df, batch_id: replay.traced_process_batch(
            tr, sg, spark_, batch_df, batch_id
        )
    tag_timer = LocalTagTimer(variant.system)
    raised = False
    with tag_timer if tr is None else nullcontext():
        clock = Clock()
        try:
            sg.run_file_stream(spark, input_dir, timeout_seconds=STREAM_TIMEOUT_S)
        except Exception:
            traceback.print_exc()
            raised = True
        wall, cpu = clock.read()
    timed_out = bool(spark.streams.active)
    for q in spark.streams.active:
        q.stop()
    per_batch, run_problems = checks.check_stream(sg, len(ds.tweets))
    if raised or timed_out:
        run_problems.append("the streaming query raised or timed out")
    # micro-batches that never ran count as failed operations
    per_batch += [["micro-batch did not run"]] * max(0, n_batches - len(per_batch))
    per_batch[-1] = per_batch[-1] + run_problems
    return {
        "problems": per_batch,
        "sg": sg,
        "wall": wall,
        "cpu": cpu,
        "batches": batches,
        "global_wall": sum(w for w, _ in batches) - tag_timer.wall,
        "global_cpu": sum(c for _, c in batches) - tag_timer.cpu,
        "f1": score_mentions(sg.all_output_mentions(), ds.gold).f1,
    }


def warm_up_stream(spark, variant, ds, n_batches, work_dir, ops: Ops) -> None:
    """The first streaming query in a session pays a start-up cost; a
    one-file pass over the first batch's tweets pays it before measuring."""
    warm = stream_pass(spark, variant, head(ds, n_batches), 1, os.path.join(work_dir, "stream-warm-up"))
    for problems in warm["problems"]:
        ops.record(problems, "warm-up micro-batch")


def measure_stream(spark, variant, ds, n_batches, seconds, deadline, work_dir, ops: Ops) -> dict:
    # No warm-up pass here: the set of runs could not afford its time, and
    # neither F1 nor the driver's memory depends on it. The times printed
    # on standard error include the first micro-batch's compile cost.
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if time.perf_counter() + max((p["wall"] for p in passes), default=0.0) > deadline:
            break
        p = stream_pass(spark, variant, ds, n_batches, os.path.join(work_dir, f"stream-{len(passes)}"))
        for problems in p["problems"]:
            ops.record(problems, "micro-batch")
        passes.append(p)
    batches = [b for p in passes for b in p["batches"]]
    print(
        f"perfbench: {len(passes)} stream passes, {len(batches)} micro-batches, "
        f"pass walls {[round(p['wall'], 3) for p in passes]}, "
        f"batch walls {[round(w, 3) for w, _ in batches]}, batch cpu {[round(c, 3) for _, c in batches]}",
        file=sys.stderr,
    )
    return {"f1": statistics.median(p["f1"] for p in passes)}


def trace_stream(spark, variant, ds, n_batches, work_dir, tr, ops: Ops) -> dict:
    from repro.core.pipeline import EMDGlobalizer
    from repro.eval.metrics import score_mentions

    warm_up_stream(spark, variant, ds, n_batches, work_dir, ops)
    window_start = time.time() * 1000
    ref = stream_pass(spark, variant, ds, n_batches, os.path.join(work_dir, "stream-untraced"))
    window = (window_start, time.time() * 1000)
    got = stream_pass(spark, variant, ds, n_batches, os.path.join(work_dir, "stream-traced"), tr)
    sg, sg_ref = got["sg"], ref["sg"]
    problems = got["problems"][-1]
    if checks.span_set(sg.all_output_mentions()) != checks.span_set(sg_ref.all_output_mentions()):
        problems.append("traced stream mentions differ from the untraced run's")
    if checks.stream_candidate_rows(sg.candidate_base) != checks.stream_candidate_rows(sg_ref.candidate_base):
        problems.append("traced (key, n_mentions, label) table differs from the untraced run's")
    # batch mode over the same stream, for the streaming F1 gap
    tweets_df = ds.to_spark(spark).cache()
    rep = batch_rep(EMDGlobalizer(variant), spark, tweets_df, ops, [])
    tweets_df.unpersist()
    if rep is None:
        raise RuntimeError("the batch-mode run over the stream failed")
    for problems in ref["problems"] + got["problems"]:
        ops.record(problems, "micro-batch")
    labels = checks.label_counts(r.label for r in map(sg.candidate_base.get, sg.candidate_base.keys()))
    n_keys = len(sg.candidate_base)
    n_pooled = sum(sg.candidate_base.get(k).n_mentions for k in sg.candidate_base.keys())
    st = tr.self_times()
    batch_walls = [w for w, _ in ref["batches"]]
    return {
        "window": window,
        "trace.overhead_s": got["wall"] - ref["wall"],
        "total_cpu_s": ref["cpu"],
        "global_cpu_s": ref["global_cpu"],
        "batch_p50_cpu_s": statistics.median(c for _, c in ref["batches"]),
        "wall.total_s": ref["wall"],
        "wall.global_s": ref["global_wall"],
        "wall.batch_p50_s": statistics.median(batch_walls),
        "stream.process_batch_s": sum(batch_walls),
        "stream.query_overhead_s": ref["wall"] - sum(batch_walls),
        "stream.candidate_base_s": st.get("pool", 0.0) + st.get("classify", 0.0),
        "stream.ctrie_keys": len(sg.ctrie),
        "stream.candidate_base_keys": n_keys,
        "stream.tweet_base_sentences": len(sg.tweet_base),
        "stream.batch_f1_gap": score_mentions(rep.res.final_mentions, ds.gold).f1 - ref["f1"],
        "ctrie.keys": len(sg.ctrie),
        "pool.keys": n_keys,
        "pool.mentions_per_key": n_pooled / n_keys if n_keys else 0.0,
        "classify.entity": labels["entity"],
        "classify.ambiguous": labels["ambiguous"],
        "classify.non_entity": labels["non_entity"],
    }


# ----------------------------------------------------------------------
# metrics


def layer_metrics(tr, extra: dict, spark_counts: dict) -> dict:
    """Per-layer values from the tracer's self times and counts, with the
    workload's own values in ``extra``. A layer not on a workload's path
    reads 0 (see README.md)."""
    st, c = tr.self_times(), tr.counts
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    m.update({
        "local_emd.tag_s": st.get("local_emd.tag", 0.0),
        "ctrie.build_s": st.get("ctrie.build", 0.0) + st.get("ctrie.insert", 0.0),
        "stream.ctrie_insert_s": st.get("ctrie.insert", 0.0),
        "mining.extract_s": st.get("mining.extract", 0.0),
        "mining.embed_s": st.get("mining.embed", 0.0),
        "mining.collect_s": st.get("mining.collect", 0.0),
        "pool_s": st.get("pool", 0.0),
        "classify_s": st.get("classify", 0.0),
        "emit_s": st.get("emit", 0.0),
        "stream.collect_s": st.get("stream.collect", 0.0),
        "stream.tweet_base_s": st.get("tweetbase.add_sentence", 0.0)
        + st.get("tweetbase.record_mention", 0.0),
    })
    for name in (
        "local_emd.mentions", "local_emd.seeds", "ctrie.keys", "mining.mentions",
        "mining.recovered_mentions", "mining.corrected_partials", "mining.embed_rows",
        "pool.keys", "emit.mentions", "stream.new_candidates",
    ):
        m[name] = c.get(name, 0.0)
    if m["pool.keys"]:
        m["pool.mentions_per_key"] = m["mining.embed_rows"] / m["pool.keys"]
    m.update({k: v for k, v in extra.items() if k in PER_LAYER_UNITS})
    m.update(spark_counts)
    return m


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, out_root: str, t_start: float) -> dict:
    """Run one workload; returns the result object the CLI prints."""
    wl = WORKLOADS[workload]
    deadline = t_start + DEADLINE_S
    work_dir = os.path.join(out_root, f"run-{workload}-{seed}-{os.getpid()}")
    event_dir = os.path.join(work_dir, "events") if trace else None
    os.makedirs(os.path.join(work_dir, "tmp"), exist_ok=True)
    if event_dir:
        os.makedirs(event_dir)
    n_batches = (SMOKE_STREAM_BATCHES if smoke else wl.stream_batches) if wl.stream_batches else 0
    ops = Ops()
    tr = replay.Tracer()
    try:
        spark = None
        try:
            spark, variant, (setup_wall, setup_cpu) = set_up(wl, smoke, work_dir, event_dir)
            print(f"perfbench: set-up wall {setup_wall:.3f} s, cpu {setup_cpu:.3f} s", file=sys.stderr)
            ds = make_inputs(wl, seed, smoke, n_batches)
            if not trace:
                if n_batches:
                    values = measure_stream(spark, variant, ds, n_batches, seconds, deadline, work_dir, ops)
                else:
                    values = measure_batch(spark, variant, ds, seconds, deadline, ops)
                values["setup_s"] = setup_cpu
                values["driver_peak_rss_mb"] = _rss_mb()
            elif n_batches:
                extra = trace_stream(spark, variant, ds, n_batches, work_dir, tr, ops)
            else:
                extra = trace_batch(spark, variant, ds, tr, ops)
        finally:
            if spark is not None:
                stop_spark(spark)
        units = END_TO_END_UNITS
        if trace:
            extra["wall.setup_s"] = setup_wall
            values = layer_metrics(tr, extra, sparklog.counters(event_dir, extra["window"]))
            units = PER_LAYER_UNITS
            with open(os.path.join(out_root, f"trace-{workload}-seed{seed}.json"), "w") as f:
                json.dump({"spans": tr.spans, "counts": tr.counts, "metrics": values}, f, indent=1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }

"""``spark.*`` counters read from the Spark event log of the benchmark's
own session, for the jobs submitted inside a wall-clock window."""
from __future__ import annotations

import json
import os


def counters(event_dir: str, window: tuple) -> dict:
    """Jobs, tasks, shuffle bytes written and executor run time of the
    jobs submitted between ``window = (start_ms, end_ms)`` (epoch ms).
    Read it after the session stopped, when the log is complete."""
    stages: set = set()
    jobs = 0
    tasks = shuffle_bytes = run_ms = 0
    for name in sorted(os.listdir(event_dir)):
        with open(os.path.join(event_dir, name)) as f:
            events = [json.loads(line) for line in f if line.strip()]
        for e in events:
            if e["Event"] == "SparkListenerJobStart" and window[0] <= e["Submission Time"] <= window[1]:
                jobs += 1
                stages.update(e["Stage IDs"])
        for e in events:
            if e["Event"] == "SparkListenerTaskEnd" and e["Stage ID"] in stages:
                m = e.get("Task Metrics") or {}
                tasks += 1
                run_ms += m.get("Executor Run Time", 0)
                shuffle_bytes += (m.get("Shuffle Write Metrics") or {}).get("Shuffle Bytes Written", 0)
    return {
        "spark.jobs": jobs,
        "spark.tasks": tasks,
        "spark.shuffle_write_bytes": shuffle_bytes,
        "spark.executor_run_s": run_ms / 1000.0,
    }

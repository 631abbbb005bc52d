"""Shared SparkSession builder for spark-submit entrypoints.

Jobs mirror the test fixture's configuration (shuffle partitions, Arrow,
broadcast joins disabled) so job runs and test runs exercise the same
plans; the console progress bar is off so job logs stay readable. Under
spark-submit the master/memory come from the submit command line; run
standalone, local[*] defaults apply.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark

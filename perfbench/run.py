#!/usr/bin/env python3
"""Benchmark entry point. Run from the root of a checkout:

    python3 perfbench/run.py --workload knn-kosarak --seed 1 --seconds 8 --trace 0

Builds the engine and the benchmark (see build.py), then runs one workload
in a JVM with a pinned environment. Every metric is printed by name with its
unit; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer split. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["knn-kosarak", "range-powerlaw", "insert-mix", "spark-batch"]
# Pinned JVM: fixed heap and collector, so tails and GC time compare across runs.
JVM_HEAP = "2g"
JVM_FLAGS = [f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2",
             "-XX:-UsePerfData",
             "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
             "--add-opens=java.base/java.lang=ALL-UNNAMED",
             "--add-opens=java.base/java.nio=ALL-UNNAMED",
             "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
             "--add-opens=java.base/java.util=ALL-UNNAMED",
             "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED"]
RUN_TIMEOUT_S = 170


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if present."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    try:
        classpath = build.build()
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    out = os.path.join(build.out_dir(), "runs")
    # Temporary files (Spark block manager, shuffle) stay inside the checkout.
    tmp = os.path.abspath(os.path.join(build.out_dir(), "tmp"))
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = (["java"] + JVM_FLAGS +
           [f"-Djava.io.tmpdir={tmp}", f"-Dspark.sql.warehouse.dir={tmp}/warehouse",
            "-cp", classpath, "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", a.trace, "--out", out])
    env = dict(os.environ, SPARK_LOCAL_IP="127.0.0.1", SPARK_LOCAL_DIRS=tmp)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the JVM and its children
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"perfbench: benchmark JVM exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 5
    declared = expected_metrics(a.trace == "1")
    if declared is not None and set(result["metrics"]) != declared:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ declared)}",
              file=sys.stderr)
        return 6
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

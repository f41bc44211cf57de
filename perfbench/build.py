#!/usr/bin/env python3
"""Build file of the benchmark package: compiles the engine sources
(`src/main/scala`) together with the benchmark sources (`perfbench/src`)
into one class directory, with the Scala compiler and the jars of the
Spark distribution the engine builds against.

Run from the root of a checkout:

    python3 perfbench/build.py          # prints the runtime class path

The output lives under `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`) and is rebuilt only when a source file changed.
"""
import hashlib
import os
import shutil
import subprocess
import sys

ENGINE_SRC = os.path.join("src", "main", "scala")
BENCH_SRC = os.path.join("perfbench", "src")
SCALA_VERSION = "2.13.17"


class BuildError(Exception):
    pass


def out_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def spark_jars():
    """The jar directory of the Spark distribution: `$SPARK_HOME/jars`, or
    the one beside the `spark-submit` found on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not os.path.isdir(jars):
        raise BuildError("no Spark distribution found (set SPARK_HOME)")
    return jars


def scala_sources(root):
    found = []
    for d, _, files in os.walk(root):
        found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def build():
    """Compile if needed; returns the runtime class path."""
    if not os.path.isdir(os.path.join(ENGINE_SRC, "repro")):
        raise BuildError(f"engine sources not found under {ENGINE_SRC}; "
                         "run from the root of a full checkout")
    jars_dir = spark_jars()
    jars = sorted(os.path.join(jars_dir, j) for j in os.listdir(jars_dir) if j.endswith(".jar"))
    compiler = [os.path.join(jars_dir, f"scala-{m}-{SCALA_VERSION}.jar")
                for m in ("compiler", "library", "reflect")]
    missing = [j for j in compiler if not os.path.isfile(j)]
    if missing:
        raise BuildError(f"Scala {SCALA_VERSION} compiler jars missing: {missing}")
    sources = scala_sources(ENGINE_SRC) + scala_sources(BENCH_SRC)

    digest = hashlib.sha256()
    for path in sources + [os.path.abspath(__file__)]:
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    digest.update(jars_dir.encode())
    stamp = digest.hexdigest()

    base = out_dir()
    classes = os.path.join(base, "classes")
    stamp_file = os.path.join(base, "stamp")
    classpath = os.pathsep.join([classes] + jars)
    if os.path.isfile(stamp_file) and open(stamp_file).read() == stamp:
        return classpath

    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    cmd = ["java", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
           "-nowarn", "-deprecation:false", "-d", classes,
           "-classpath", os.pathsep.join(jars)] + sources
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BuildError(f"scalac failed with exit code {done.returncode}")
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)

#!/usr/bin/env python3
"""QLOVE benchmark driver.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload netmon-l2 --seed 1 --seconds 30 --trace 0

Builds the benchmark (the repository's main sources plus perfbench/src) with
sbt into .bench_build/ when the sources changed since the last build, then
runs one measurement in a fresh JVM. The JVM's last stdout line, a JSON object
with keys correct/attempted/failed/metrics, is printed as the last line here.
Run records, traces and logs are kept under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
MAIN_CLASS = "repro.perfbench.Main"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# The --add-opens set spark-submit passes on JDK 17 (Kryo and Unsafe need it).
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files(root):
    """Every file the build compiles or configures, in a stable order."""
    out = []
    for top in ("src/main", "perfbench/src/main"):
        for d, _, names in os.walk(os.path.join(root, top)):
            out += [os.path.join(d, n) for n in names]
    out += [os.path.join(root, "perfbench", p) for p in ("build.sbt", "project/build.properties")]
    return sorted(out)


def source_hash(root):
    h = hashlib.sha256()
    for path in source_files(root):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build(root, stamp):
    """Compile with sbt unless the last build has the same source hash;
    returns the runtime classpath."""
    bdir = os.path.join(root, BUILD_DIR)
    cp_file = os.path.join(bdir, "classpath.txt")
    stamp_file = os.path.join(bdir, "stamp.txt")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        code, out = run_bounded(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
             "compile", "export Runtime/fullClasspath"],
            BUILD_TIMEOUT_S, cwd=os.path.join(root, "perfbench"),
            stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL, text=True)
        log.write(out)
    if code != 0:
        fail(f"build failed (exit {code}), see {log_path}")
    lines = [l for l in out.splitlines() if ".jar" in l and not l.startswith("[")]
    if not lines:
        fail(f"build printed no classpath, see {log_path}")
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    root = os.getcwd()
    for need in ("src/main/scala/repro/core/Qlove.scala", "perfbench/build.sbt"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a QLOVE checkout")

    stamp = source_hash(root)
    cp = build(root, stamp)
    bdir = os.path.join(root, BUILD_DIR)
    tmp = os.path.join(bdir, "tmp")
    logs = os.path.join(bdir, "logs")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(logs, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    # A fixed, pre-touched heap on huge pages, with a fixed young generation,
    # keeps garbage-collection cadence and the cost of walking the Level-1
    # tree's nodes the same from run to run.
    cmd = [java, "-Xms2g", "-Xmx2g", "-Xmn768m", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy",
           "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch",
           # no hsperfdata file outside the checkout
           "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.commit={git_commit(root)}", f"-Dperfbench.sources={stamp}"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", cp, MAIN_CLASS, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace, "--work-dir", bdir]
    log_path = os.path.join(logs, f"{a.workload}-seed{a.seed}-trace{a.trace}.log")
    with open(log_path, "w") as log:
        code, out = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, stderr=log,
                                stdin=subprocess.DEVNULL, text=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"benchmark exited with {code}, see {log_path}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last output line is not JSON, see {log_path}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

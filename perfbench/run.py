"""DITS benchmark: one workload, one seed, in its own JVM.

    python3 perfbench/run.py --workload cjsp-k50 --seed 1 --seconds 10 --trace 0

Builds the program and the benchmark when a source changed (build.py), runs
the workload in a fresh JVM, and prints the JVM's output. Its last line is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Everything it writes goes under .bench_build/ in the repository root.
"""
import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import build  # noqa: E402

WORKLOADS = ["ojsp-rw", "cjsp-k50", "multisource-clip", "spark-dist"]
HEAP = {"ojsp-rw": "3g", "cjsp-k50": "1g", "multisource-clip": "1g", "spark-dist": "3g"}
LIMIT_S = 170  # a run must end within 180 s, not counting a first build


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--data-seed", type=int, default=42, help="seed of the generated datasets")
    p.add_argument("--query-seed", type=int, default=7,
                   help="seed of the fixed query set of cjsp-k50 and the multi-source workloads")
    a = p.parse_args()

    classes = build.build()
    out = build.OUT
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    heap = HEAP[a.workload]
    cmd = ["java", f"-Xms{heap}", f"-Xmx{heap}", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={out / 'tmp'}",
           "-cp", f"{classes}{os.pathsep}{build.spark_jars()}/*",
           "repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace, "--data-seed", str(a.data_seed),
           "--query-seed", str(a.query_seed), "--out-dir", str(out)]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"{a.workload}: timed out", file=sys.stderr)
        return 3
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(stdout)
        print(f"{a.workload}: benchmark JVM failed with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Build file of the benchmark: compiles the program (src/main/scala) and
the benchmark (perfbench/scala) into one class directory.

It uses the Scala compiler that ships in the Spark distribution the
program builds against (the same jars the root build.sbt puts on its
classpath), so no dependency is resolved. The result is cached under the
output directory and rebuilt whenever a source file changes.

    python3 perfbench/build.py        # from the root of the repository
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build"


def spark_jars() -> Path:
    jars = Path(os.environ.get("SPARK_HOME", "/opt/spark")) / "jars"
    if not (jars / "scala-compiler-2.13.17.jar").is_file():
        raise SystemExit(f"no Spark distribution with the Scala 2.13 compiler at {jars}")
    return jars


def sources() -> list:
    dirs = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "scala"]
    missing = [str(d) for d in dirs if not d.is_dir()]
    if missing:
        raise SystemExit("missing source directories: " + ", ".join(missing))
    return sorted(p for d in dirs for p in d.rglob("*.scala"))


def build() -> Path:
    """Compile if any source changed; return the class directory."""
    files = sources()
    jars = spark_jars()
    h = hashlib.sha256(str(jars).encode())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    stamp = h.hexdigest()
    classes = OUT / "classes"
    stamp_file = OUT / "classes.stamp"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    stamp_file.unlink(missing_ok=True)
    cmd = ["java", "-Xmx1g", "-XX:-UsePerfData", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(classes)] + [str(f) for f in files]
    print(f"# compiling {len(files)} files", file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    stamp_file.write_text(stamp)
    return classes


if __name__ == "__main__":
    print(build())

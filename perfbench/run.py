#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload alibaba_fifo --seed 42 --seconds 10 --trace 0

Builds `perfbench/` (a cargo package of its own) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the benchmark binary,
and passes its output through.  The last line of standard output is the
result object `{"correct", "attempted", "failed", "metrics"}`.  A `host`
line before it records the machine and source the numbers come from, and
the whole record is also written to `perfbench/results/` for `compare.py`.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 870
# A run measures for --seconds (at least two rounds), plus set-up, a
# warm-up trial and one check trial; nothing takes close to this.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for base in (ROOT / "crates", HERE):
        files += [
            p
            for p in base.rglob("*")
            if p.is_file()
            and (p.suffix in (".rs", ".toml", ".py") or p.name == "Cargo.lock")
            and "results" not in p.relative_to(ROOT).parts
        ]
    h = hashlib.sha256()
    for p in sorted(set(files)):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_metadata(seed):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_commit": command_output(["git", "rev-parse", "HEAD"]) or "none",
        "source_digest": source_digest(),
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(HERE / "results"), help="directory for the run record")
    args = ap.parse_args()

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        # Build output goes to stderr so stdout stays the benchmark's own.
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    cmd = [str(target / "release" / "pcaps-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        ran = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    if ran.returncode != 0:
        fail(f"benchmark exited with code {ran.returncode}")
    lines = ran.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        details = json.loads(lines[-2].removeprefix("details "))
    except (IndexError, ValueError) as e:
        fail(f"benchmark printed no result: {e}")

    host = host_metadata(args.seed)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "host": host, "details": details, "result": result}
    out_dir = Path(args.results)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print("host " + json.dumps(host))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload insert --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The binary is built offline in release mode into $CARGO_TARGET_DIR
(default: .bench_build). Every argument is passed through, plus the
source digest and git commit (when there is one) for the run record.
The last stdout line is the run's result; build output goes to stderr.
A failed build exits with code 2 and prints no result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", ".bench_build"))
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, or None outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:] + [
        "--out", os.path.join(target, "perfbench-runs"),
        "--source-digest", source_digest(),
    ]
    sha = commit()
    if sha:
        args += ["--commit", sha]
    exe = os.path.join(target, "release", "htforge-perfbench")
    return subprocess.run([exe] + args, env=env, timeout=RUN_TIMEOUT_S, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the rigmatch benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <cold_hybrid|cached_enum|serve_rw> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs it with the same arguments. The last line of
standard output is the JSON result. Build output goes to standard error;
a failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 175


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return 3
    binary = target / "release" / "perfbench"
    try:
        run = subprocess.run([str(binary), *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

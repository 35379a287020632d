#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures-cold --seed 0 --seconds 10 --trace 0

Builds `perfbench/` (its own Cargo workspace, with path dependencies on
`crates/*`) into `$CARGO_TARGET_DIR` (default `perfbench/target`), runs the
`perfbench` binary, and passes its output through: the last line of
standard output is the JSON result. Exits non-zero without a result when
the build or the run fails, e.g. when the repository's crates are absent.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["figures-cold", "figures-warm", "seer-many-blocks", "tune-halving"]
# Time a run may take beyond its measured `--seconds`: the last whole
# pass, filling the warm store, the probed pass and the cross-checks.
RUN_MARGIN_S = 150


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: error: the repository's crates/ directory is missing", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.abspath(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: error: build failed", file=sys.stderr)
        return build.returncode or 1

    work = os.path.join(HERE, ".work", "run-%d" % os.getpid())
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
    ]
    # Own process group, so a timeout also stops the fill child.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: error: run timed out", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only if no other run uses it
        except OSError:
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())

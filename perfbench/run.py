#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload tp1-local --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ (Go's build cache,
temporary files, the binary and the span files of traced runs all stay
there), then run with the given arguments. Its last line of standard
output is the JSON result. Exits non-zero, printing no result, if the
build or the run fails.
"""
import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomod"),
        "GOTMPDIR": os.path.join(out, "tmp"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", exe, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

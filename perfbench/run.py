#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>]
    python3 perfbench/run.py --selftest

Run from the repository root.  Builds perfbench/main.exe (or selftest.exe)
from source with dune into _build, with dune's shared cache off and the
compilers' temporary files in .perfbench_tmp, so that nothing is written
outside the checkout, then runs it with the given arguments.  Build output
goes to stderr; the last line on stdout is the benchmark's JSON result.
The exit code is the benchmark's own: 0 when every output passed its
check, non-zero otherwise (including a failed build, which prints no
result).

--all runs every workload of BENCHMARK.json, untraced and then traced, at
its run_seconds (seed 0 unless given), and exits non-zero if any run
failed.
"""

import json
import os
import shutil
import subprocess
import sys


def build(target, env):
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    code = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", target],
        env=env, stdout=sys.stderr).returncode
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
    return code


def main(argv):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: dune-project and lib/ not found; run from the "
              "repository root", file=sys.stderr)
        return 2
    tmp = os.path.abspath(".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    selftest = argv[:1] == ["--selftest"]
    target = "./perfbench/selftest.exe" if selftest else "./perfbench/main.exe"
    code = build(target, env)
    if code != 0:
        return code
    exe = os.path.join("_build", "default", target)
    if selftest:
        return subprocess.run([exe, "BENCHMARK.json"], env=env).returncode
    if argv[:1] == ["--all"]:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        seed = argv[2] if argv[1:2] == ["--seed"] else "0"
        worst = 0
        for w in bench["workloads"]:
            for trace in ("0", "1"):
                worst = max(worst, subprocess.run(
                    [exe, "--workload", w["name"], "--seed", seed, "--seconds",
                     str(bench["run_seconds"]), "--trace", trace],
                    env=env).returncode)
        return worst
    return subprocess.run([exe] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""The repository's benchmark: builds the benchmark executable and the
spnc_serve / spnc_cli binaries from this checkout, runs one workload and
prints, as its last line, one JSON object with the metrics BENCHMARK.json
names for the mode (--trace 0: end-to-end, --trace 1: per-layer).

    python3 perfbench/run.py --workload speaker-batch --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["speaker-batch", "ratspn-compile", "serve-tcp"]
BUILD_TARGETS = [
    "perfbench/spnc_perfbench.exe",
    "bin/spnc_serve.exe",
    "bin/spnc_cli.exe",
]
EXE = os.path.join("_build", "default", "perfbench", "spnc_perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.exists("dune-project") or not os.path.isdir("lib"):
        fail("no dune-project or lib/ here: run from the root of a checkout")
    # the dune cache lives outside the checkout; keep every write inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + BUILD_TARGETS,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        fail("build failed")


def run_one(workload, args):
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # own process group: a timeout takes the spawned server down too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    # the benchmark removes its work directory itself unless it was killed
    shutil.rmtree(os.path.join(".perfbench_work", str(proc.pid)), ignore_errors=True)
    lines = out.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("%s: benchmark exited with code %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def shape(result, spec, trace, workload):
    """Exactly the metrics BENCHMARK.json lists for the mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name not in got:
            fail("%s: metric %s missing" % (workload, name))
        if got[name]["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" % (name, got[name]["unit"], m["unit"]))
        value = got[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s is not a finite number" % (workload, name))
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("BENCHMARK.json: %s" % e)
    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for w in workloads:
            result = run_one(w, args)
            metrics = shape(result, spec, args.trace == 1, w)
            final["correct"] = final["correct"] and result["correct"]
            final["attempted"] += int(result["attempted"])
            final["failed"] += int(result["failed"])
            if len(workloads) == 1:
                final["metrics"] = metrics
            else:
                for name, m in metrics.items():
                    final["metrics"][w + "/" + name] = m
    finally:
        # each run removes its own work directory; drop the empty parent
        try:
            os.rmdir(".perfbench_work")
        except OSError:
            pass
    print(json.dumps(final))


if __name__ == "__main__":
    main()

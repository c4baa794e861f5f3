#!/usr/bin/env python3
"""Build and run the skelex repository benchmark.

    python3 skelbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 skelbench/run.py --self-test

Builds the skelbench executable (this directory's CMake project over the
library sources in ../src, Release) into $CARGO_TARGET_DIR/skelbench,
default .bench_build/skelbench, then runs one workload. Build output goes
to stderr; the last line of stdout is the run's JSON result.

--self-test runs every workload at tiny size, traced and untraced, checks
the result line against BENCHMARK.json (metric names, units, counts), and
checks that a wrong expected golden fingerprint makes the run fail.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["extract_paper", "extract_xl", "sim_window", "serve_mixed"]
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "skelbench"


def build():
    """Configures (once) and builds; returns the executable's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("skelbench: library sources (src/) not found next to "
                 f"{HERE.name}/; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return out / "skelbench"


def run_json(exe, args, quiet=False):
    """Runs the executable; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL if quiet else None,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def self_test(exe):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[kind]}
        for workload in WORKLOADS:
            where = f"{workload} --trace {trace}"
            code, res = run_json(exe, ["--workload", workload, "--seed", "1",
                                       "--seconds", "1", "--trace",
                                       str(trace), "--smoke"])
            if res is None:
                errors.append(f"{where}: exit {code}, no result")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(res)}")
            if res["attempted"] < 1 or res["failed"] != 0 or not res["correct"]:
                errors.append(f"{where}: {res['failed']} of "
                              f"{res['attempted']} operations failed")
            got = res["metrics"]
            if set(got) != set(want):
                errors.append(f"{where}: metric names differ from "
                              f"BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            for name, m in got.items():
                if not NAME_RE.match(name):
                    errors.append(f"{where}: bad metric name {name!r}")
                if not m.get("unit") or m["unit"] != want.get(name):
                    errors.append(f"{where}: {name} unit {m.get('unit')!r}")
                if trace == 0 and not m["value"] > 0:
                    errors.append(f"{where}: {name} = {m['value']}")
    # A wrong expected golden fingerprint must show as failed operations.
    code, res = run_json(exe, ["--workload", "extract_paper", "--seed", "1",
                               "--seconds", "1", "--trace", "0", "--smoke",
                               "--golden", "1"], quiet=True)
    if res is None or res["failed"] == 0 or res["correct"]:
        errors.append(f"wrong golden fingerprint not detected: {res}")
    for e in errors:
        print("self-test:", e)
    print("self-test:", "FAILED" if errors else "OK")
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    exe = build()
    if args.self_test:
        return self_test(exe)
    return subprocess.run([str(exe), "--workload", args.workload, "--seed",
                           str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> [--seconds <s>] --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library sources under src/ together with the benchmark (Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is always the benchmark's result object. --seconds defaults to
run_seconds in BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_mixed", "batch_offline", "compile_cold")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 8))
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", target]
    if subprocess.run(compile_cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / target


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    return json.loads(spec_path.read_text()) if spec_path.is_file() else None


def check_result(spec, line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    if spec is None:
        return None
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not a JSON object"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, units {units}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        sys.exit(subprocess.run([str(binary)], cwd=ROOT).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    if args.seconds is None:
        if spec is None:
            parser.error("--seconds is required without BENCHMARK.json")
        args.seconds = spec["run_seconds"]

    binary = build("perfbench")
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    problem = check_result(spec, lines[-1], args.trace == 1) if proc.returncode in (0, 1) else None
    if problem is not None:
        print("\n".join(lines[:-1]))
        fail(problem, 3)
    print(proc.stdout, end="")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repository benchmark: seeded workloads against the DLS-LBL service
and the Thm 5.3 sweeps (see perfbench/README.md).

Run one workload:

    python3 perfbench/run.py --workload hot_pipe --seed 1 --seconds 10 --trace 0

The first run in a checkout builds perfbench/ (and the libraries it
links) into .bench_build/. Each run prints a report, saves the full
result with its provenance under .bench_build/results/, and ends with
one JSON line holding the metrics BENCHMARK.json registers for the mode:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1
(which also writes a Chrome trace under .bench_build/traces/). The exit
status is 0 only when every answer matched its reference.

Compare two sets of results (files or directories of them):

    python3 perfbench/run.py compare BASE HEAD

It refuses results whose provenance differs (build type, DLS_* levels,
SIMD, compiler, cores, client count, run length) or that ran while the
hypervisor stole more than 5% of the host's CPU time. Load averages are
recorded but not gated: back-to-back runs of the benchmark itself keep
the one-minute load above the core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "dlsbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("hot_pipe", "cold_mixed", "federation_tcp", "sweep")
RESULT_PREFIX = "PERFBENCH_RESULT "

# Runs that lost more CPU than this to other guests are not compared.
MAX_STEAL_SHARE = 0.05
# Provenance that must match before two results may be compared.
PROVENANCE_KEYS = ("build_type", "check_level", "obs_level", "simd_compiled",
                   "simd_available", "compiler", "nproc", "clients")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_registry() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build() -> None:
    """Configures once, then brings dlsbench up to date."""
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    jobs = str(min(8, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "dlsbench",
                  "-j", jobs])
    with log.open("w") as out:
        for step in steps:
            code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode
            if code == 0:
                continue
            tail = log.read_text(errors="replace").splitlines()[-30:]
            print("\n".join(tail), file=sys.stderr)
            if step[1] == "-S":
                # A failed configure must not leave a cache behind that
                # would skip the configure step next time.
                (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
            fail(f"build step failed: {' '.join(step)}")


def source_digest() -> str:
    """sha256 over the sources the benchmark builds, so results from a
    checkout without git history still name the code they measured."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_times() -> list[int] | None:
    """The host-wide jiffy counters of /proc/stat (steal is index 7): a
    run during which the hypervisor gave our CPUs to someone else is not
    comparable to one during which it did not."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(args: argparse.Namespace) -> int:
    registry = load_registry()
    build()
    trace_path = None
    command = [str(BINARY), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        (BUILD_DIR / "traces").mkdir(exist_ok=True)
        trace_path = BUILD_DIR / "traces" / f"{args.workload}-seed{args.seed}.json"
        command += ["--trace-out", str(trace_path)]
    if args.tiny:
        command.append("--tiny")
    cpu_before = cpu_times()
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    cpu_after = cpu_times()
    lines = [l for l in proc.stdout.splitlines() if l.startswith(RESULT_PREFIX)]
    if not lines:
        fail(f"{args.workload} exited {proc.returncode} without a result")
    result = json.loads(lines[-1][len(RESULT_PREFIX):])
    result["provenance"]["commit"] = git_commit()
    result["provenance"]["source_sha256"] = source_digest()
    if cpu_before and cpu_after:
        total = sum(cpu_after) - sum(cpu_before)
        result["provenance"]["steal_share"] = \
            (cpu_after[7] - cpu_before[7]) / total if total > 0 else 0.0
    attempted = result["attempted"]
    result["metrics"]["fail_share"] = {
        "value": result["failed"] / attempted if attempted else 1.0,
        "unit": "ratio", "samples": attempted}

    results_dir = BUILD_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    saved = results_dir / (f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json")
    saved.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    report(result, saved, trace_path)

    wanted = registry["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None or not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail(f"{args.workload} did not measure {entry['name']}")
        if got["unit"] != entry["unit"]:
            fail(f"{entry['name']} measured in {got['unit']}, "
                 f"registered in {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def report(result: dict, saved: Path, trace_path: Path | None) -> None:
    mode = "traced" if result["trace"] else "untraced"
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} ({mode})")
    print(f"  answers: {result['attempted']} attempted, {result['failed']} "
          f"failed, {result['wrong']} wrong"
          + (f" (first: {result['first_error']})" if result["first_error"] else ""))
    for name, m in sorted(result["metrics"].items()):
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']:<9} n={m['samples']}")
    print(f"  info: {json.dumps(result['info'], sort_keys=True)}")
    print(f"  provenance: {json.dumps(result['provenance'], sort_keys=True)}")
    print(f"  result: {saved.relative_to(ROOT)}")
    if trace_path is not None:
        print(f"  trace: {trace_path.relative_to(ROOT)}")


def load_results(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = []
    for f in files:
        try:
            out.append(json.loads(f.read_text()))
        except (OSError, ValueError) as e:
            fail(f"cannot read result {f}: {e}")
    if not out:
        fail(f"no results in {path}")
    return out


def provenance_problems(results: list[dict]) -> list[str]:
    problems = []
    first = results[0]["provenance"]
    for r in results:
        prov = r["provenance"]
        for key in PROVENANCE_KEYS:
            if prov.get(key) != first.get(key):
                problems.append(f"{key}: {first.get(key)!r} vs {prov.get(key)!r}")
        if r["seconds"] != results[0]["seconds"] or r["tiny"] != results[0]["tiny"]:
            problems.append("run length differs")
        if prov.get("steal_share", 0.0) > MAX_STEAL_SHARE:
            problems.append(f"{prov['steal_share']:.1%} of CPU time stolen "
                            "by the hypervisor during a run")
    return sorted(set(problems))


def compare(args: argparse.Namespace) -> int:
    registry = load_registry()
    base, head = load_results(args.base), load_results(args.head)
    problems = provenance_problems(base + head)
    if problems:
        print("perfbench compare: refusing, provenance differs:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 2
    regressions = 0
    for trace in (False, True):
        entries = registry["per_layer" if trace else "end_to_end"]
        for workload in WORKLOADS:
            b = [r for r in base if r["workload"] == workload and r["trace"] == trace]
            h = [r for r in head if r["workload"] == workload and r["trace"] == trace]
            if not b or not h:
                continue
            print(f"{workload} ({'per-layer' if trace else 'end-to-end'}; "
                  f"{len(b)} base, {len(h)} head runs)")
            for entry in entries:
                name = entry["name"]
                bv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
                hv = [r["metrics"][name]["value"] for r in h if name in r["metrics"]]
                if not bv or not hv:
                    continue
                bm, hm = statistics.median(bv), statistics.median(hv)
                change = (hm - bm) / abs(bm) if bm else 0.0
                verdict = ""
                if "bound" in entry:
                    worse = -change if entry["better"] == "higher" else change
                    spread = 0.0
                    if len(bv) >= 2 and bm:
                        q = statistics.quantiles(bv, n=4)
                        spread = (q[2] - q[0]) / abs(bm)
                    if spread > entry["bound"]:
                        verdict = "unresolved (base spread above bound)"
                    elif worse > entry["bound"]:
                        verdict = "REGRESSION"
                        regressions += 1
                    else:
                        verdict = "within bound"
                print(f"  {name:<34} {bm:>14.6g} -> {hm:<14.6g} "
                      f"{change:+8.2%} {entry['unit']:<8} {verdict}")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", help="result file or directory")
        parser.add_argument("head", help="result file or directory")
        return compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small input pools (the self-check's size)")
    return run_workload(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, through run.py
and asserts that:
  * every answer matched its reference and nothing failed;
  * every metric the benchmark defines for the workload was emitted,
    with its unit and a finite value (full result file);
  * the final line is the contract object with exactly the metrics
    BENCHMARK.json registers for the mode;
  * the traced run wrote a Chrome trace with request-id spans;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.
Exit status 0 when all hold.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
SERVED = ("hot_pipe", "cold_mixed", "federation_tcp")
ALL = SERVED + ("sweep",)
PIPES = ("hot_pipe", "cold_mixed")

# name -> (unit, workloads). End-to-end metrics come from untraced runs.
END_TO_END = {
    "throughput_rps": ("req/s", ALL),
    "latency_p50_us": ("us", ALL),
    "latency_p99_us": ("us", ALL),
    "fail_share": ("ratio", ALL),
    "server_cpu_us_per_req": ("us", ALL),
    "sweep_points_per_s": ("points/s", ("sweep",)),
    "setup_s": ("s", ALL),
    "peak_rss_mb": ("MB", ALL),
}

PER_LAYER = {
    "frame.encode_ns": ("ns", SERVED),
    "frame.decode_ns": ("ns", SERVED),
    "frame.bytes_per_req": ("bytes", SERVED),
    "wire.req_decode_ns": ("ns", SERVED),
    "wire.resp_encode_ns": ("ns", SERVED),
    "wire.key_ns": ("ns", SERVED),
    "wire.multi_decode_ns": ("ns", ("cold_mixed",)),
    "wire.multi_encode_ns": ("ns", ("cold_mixed",)),
    "cache.lookup_ns": ("ns", SERVED),
    "cache.hit_share": ("ratio", SERVED),
    "cache.evictions_per_req": ("count", SERVED),
    "service.server_p50_us": ("us", SERVED),
    "service.server_p99_us": ("us", SERVED),
    "service.outside_p50_us": ("us", PIPES),
    "service.stage_sum_p50_us": ("us", PIPES),
    "service.residual_p50_us": ("us", PIPES),
    "service.batched_share": ("ratio", SERVED),
    "service.lanes_per_batch": ("count", SERVED),
    "service.shed_share": ("ratio", SERVED),
    "service.degraded_share": ("ratio", SERVED),
    "service.expired_share": ("ratio", SERVED),
    "service.error_share": ("ratio", SERVED),
    "router.inline_share": ("ratio", ("federation_tcp",)),
    "router.replay_share": ("ratio", ("federation_tcp",)),
    "router.forwards_per_req": ("count", ("federation_tcp",)),
    "router.quorum_agreed_share": ("ratio", ("federation_tcp",)),
    "router.quorum_divergence": ("count", ("federation_tcp",)),
    "router.forward_failures": ("count", ("federation_tcp",)),
    "socket.client_write_ns": ("ns", ("federation_tcp",)),
    "socket.client_wait_us": ("us", ("federation_tcp",)),
    "net.build_ns_per_proc": ("ns", ALL),
    "dlt.solve_ns_per_proc.64": ("ns", ALL),
    "dlt.solve_ns_per_proc.512": ("ns", ("cold_mixed", "federation_tcp")),
    "dlt.solve_ns_per_proc.4096": ("ns", ("cold_mixed",)),
    "dlt.solve_ns_per_proc.1024": ("ns", ("sweep",)),
    "dlt.batch_ns_per_lane_proc": ("ns", ALL),
    "dlt.rebid_ns_per_point": ("ns", ALL),
    "core.assess_ns_per_proc": ("ns", ALL),
    "core.utility_curve_ns_per_point": ("ns", ("sweep",)),
    "multiload.solve_us": ("us", ("cold_mixed",)),
    "multiload.assess_us": ("us", ("cold_mixed",)),
    "exec.dispatch_us": ("us", ALL),
    "exec.parallel_efficiency": ("ratio", ("sweep",)),
    "proc.allocs_per_req": ("count", ALL),
    "dlt.allocs_per_solve": ("count", ALL),
    "proc.threads": ("count", ALL),
    "obs.traced_slowdown": ("ratio", ALL),
}


def check_run(workload: str, trace: int, registry: dict) -> list[str]:
    problems = []
    where = f"{workload} trace={trace}"
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "1",
                                 "--seconds", "1.5", "--trace", str(trace),
                                 "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-600:]}"]
    contract = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(contract) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(contract)}")
    wanted = registry["per_layer" if trace else "end_to_end"]
    if set(contract["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{where}: result metrics differ from BENCHMARK.json")
    for m in wanted:
        got = contract["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')}")
    if not contract["correct"] or contract["failed"] != 0 or contract["attempted"] < 1:
        problems.append(f"{where}: correct={contract['correct']} "
                        f"failed={contract['failed']}")

    saved = ROOT / ".bench_build" / "results" / f"{workload}-seed1-trace{trace}.json"
    full = json.loads(saved.read_text())
    if full["wrong"] != 0:
        problems.append(f"{where}: {full['wrong']} wrong answers: {full['first_error']}")
    catalog = END_TO_END if not trace else PER_LAYER
    for name, (unit, workloads) in catalog.items():
        if workload not in workloads:
            continue
        got = full["metrics"].get(name)
        if got is None:
            problems.append(f"{where}: {name} not emitted")
        elif got["unit"] != unit:
            problems.append(f"{where}: {name} in {got['unit']}, expected {unit}")
        elif got["value"] is None or not math.isfinite(got["value"]):
            problems.append(f"{where}: {name} = {got['value']}")
    if trace and full["metrics"].get("router.quorum_divergence", {}).get("value"):
        problems.append(f"{where}: replicas diverged")

    if trace:
        path = ROOT / ".bench_build" / "traces" / f"{workload}-seed1.json"
        events = json.loads(path.read_text()).get("traceEvents", [])
        spans = [e for e in events if str(e.get("name", "")).startswith("perfbench.")
                 and "request_id" in (e.get("args") or {})]
        if not spans:
            problems.append(f"{where}: no perfbench.* request spans in {path}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, not pass."""
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(RUN + ["--workload", "hot_pipe", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    printed = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode == 0 or printed:
        return [f"bare directory: exit {proc.returncode}, printed {printed}"]
    return []


def main() -> int:
    registry = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare_directory()
    for workload in ALL:
        for trace in (0, 1):
            found = check_run(workload, trace, registry)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(f"  {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

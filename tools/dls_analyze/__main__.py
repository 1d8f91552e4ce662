"""CLI: python3 tools/dls_analyze --build-dir build [options]

Exit codes: 0 clean, 1 findings, 2 infrastructure error (bad compile
database, compiler failure, unparseable waiver file).
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):  # executed as `python3 tools/dls_analyze`
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    __package__ = "dls_analyze"  # noqa: A001

from dls_analyze import (callgraph, compiledb, fpfence, locks, noalloc,
                         reach, report, waivers)

ALL_CHECKS = ("noalloc", "locks", "fpfence", "reach")


def main(argv=None) -> int:
    repo = Path(__file__).resolve().parent.parent.parent
    parser = argparse.ArgumentParser(
        prog="dls_analyze",
        description="Whole-program discipline analyzer (no-alloc "
                    "reachability, lock-order lattice, FP-determinism "
                    "fence, function-level reach). See "
                    "docs/STATIC_ANALYSIS.md.")
    parser.add_argument("--build-dir", default=str(repo / "build"),
                        help="build tree holding compile_commands.json")
    parser.add_argument("--src", default=str(repo / "src"),
                        help="source root to analyze")
    parser.add_argument("--checks", default=",".join(ALL_CHECKS),
                        help="comma-separated subset of: "
                             + ", ".join(ALL_CHECKS))
    parser.add_argument("--waivers",
                        default=str(Path(__file__).resolve().parent
                                    / "waivers.conf"),
                        help="waiver file ('' to run with built-ins only)")
    parser.add_argument("--json", default="",
                        help="also write findings to this JSON file")
    parser.add_argument("--jobs", type=int,
                        default=max(2, (os.cpu_count() or 4) - 1),
                        help="parallel call-graph compiles")
    args = parser.parse_args(argv)

    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = set(checks) - set(ALL_CHECKS)
    if unknown:
        parser.error(f"unknown check(s): {', '.join(sorted(unknown))}")

    try:
        extra_waivers = []
        if args.waivers:
            extra_waivers = waivers.parse_file(args.waivers)

        results = []
        db = entries = None
        if {"noalloc", "fpfence", "reach"} & set(checks):
            db = compiledb.load(args.build_dir)
            entries = compiledb.src_entries(db, args.src)
        if "noalloc" in checks:
            with tempfile.TemporaryDirectory(prefix="dls_analyze_") as tmp:
                graph = callgraph.build(entries, Path(tmp), jobs=args.jobs)
            results.append(noalloc.run(args.src, graph, extra_waivers))
        if "locks" in checks:
            results.append(locks.run(args.src))
        if "fpfence" in checks:
            results.append(fpfence.run(args.src, entries))
        if "reach" in checks:
            with tempfile.TemporaryDirectory(prefix="dls_analyze_") as tmp:
                graph = callgraph.build(reach.select_entries(db, args.src),
                                        Path(tmp), jobs=args.jobs,
                                        levels_off=False)
                results.append(reach.run(args.src, graph, extra_waivers,
                                         args.jobs))
    except compiledb.AnalyzerError as err:
        print(f"dls_analyze: error: {err}", file=sys.stderr)
        return 2

    print(report.render_text(results))
    if args.json:
        report.to_json(results, args.json)
    return 1 if any(res.errors() for res in results) else 0


if __name__ == "__main__":
    sys.exit(main())

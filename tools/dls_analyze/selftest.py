#!/usr/bin/env python3
"""Self-test: run the analyzer against the seeded-violation fixtures.

Each fixture under tools/dls_analyze/fixtures/ plants exactly one
discipline violation (an allocation on an annotated hot path, a lock
inversion, a stray fma, a re-associating `omp simd` reduction). A
healthy analyzer must exit 1 on every one of
them AND say why with a pointed diagnostic — this is the regression
guard against the failure mode static checkers actually die of:
silently going green.

Compile databases are generated on the fly (absolute paths are
machine-specific, so none are committed). Exit 0 when every fixture
fails the way it should, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOL_DIR = Path(__file__).resolve().parent
REPO = TOOL_DIR.parent.parent
FIXTURES = TOOL_DIR / "fixtures"


def _write_compiledb(build_dir: Path, sources: list[Path],
                     extra_flags: list[str]) -> None:
    cxx = os.environ.get("CXX", "c++")
    entries = []
    for src in sources:
        args = [cxx, "-std=c++20", f"-I{REPO / 'src'}",
                "-ffp-contract=off", *extra_flags,
                "-c", str(src), "-o", src.stem + ".o"]
        entries.append({"directory": str(build_dir),
                        "file": str(src),
                        "arguments": args})
    (build_dir / "compile_commands.json").write_text(
        json.dumps(entries, indent=2), encoding="utf-8")


def _run_analyzer(argv: list[str]) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(TOOL_DIR), *argv]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)


def _expect(name: str, proc: subprocess.CompletedProcess,
            substrings: list[str]) -> list[str]:
    problems = []
    if proc.returncode != 1:
        problems.append(
            f"{name}: expected exit 1 (findings), got {proc.returncode}\n"
            f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}")
        return problems
    for want in substrings:
        if want not in proc.stdout:
            problems.append(
                f"{name}: diagnostic does not mention {want!r}\n"
                f"--- stdout ---\n{proc.stdout}")
    return problems


def case_planted_alloc(tmp: Path) -> list[str]:
    src_root = FIXTURES / "planted_alloc" / "src"
    build = tmp / "planted_alloc"
    build.mkdir()
    _write_compiledb(build, [src_root / "hot.cpp"], [])
    proc = _run_analyzer(["--checks", "noalloc",
                          "--build-dir", str(build),
                          "--src", str(src_root),
                          "--waivers", ""])
    return _expect("planted_alloc", proc, [
        "planted_alloc_sum",
        "DLS_HOT_NOALLOC",
        "operator new",
        "call path (shortest)",
    ])


def case_planted_inversion(tmp: Path) -> list[str]:
    src_root = FIXTURES / "planted_inversion" / "src"
    proc = _run_analyzer(["--checks", "locks",
                          "--src", str(src_root),
                          "--waivers", ""])
    return _expect("planted_inversion", proc, [
        "lock-order cycle",
        "Inverted::first_",
        "Inverted::second_",
        "inverted.cpp",
    ])


def case_planted_fma(tmp: Path) -> list[str]:
    src_root = FIXTURES / "planted_fma" / "src"
    build = tmp / "planted_fma"
    build.mkdir()
    _write_compiledb(build, [src_root / "fused.cpp"], [])
    proc = _run_analyzer(["--checks", "fpfence",
                          "--build-dir", str(build),
                          "--src", str(src_root),
                          "--waivers", ""])
    return _expect("planted_fma", proc, [
        "fma() call",
        "fused.cpp",
    ])


def case_planted_simd_reduction(tmp: Path) -> list[str]:
    src_root = FIXTURES / "planted_simd_reduction" / "src"
    build = tmp / "planted_simd_reduction"
    build.mkdir()
    _write_compiledb(build, [src_root / "lane_sum.cpp"], ["-fopenmp-simd"])
    proc = _run_analyzer(["--checks", "fpfence",
                          "--build-dir", str(build),
                          "--src", str(src_root),
                          "--waivers", ""])
    return _expect("planted_simd_reduction", proc, [
        "omp simd with a reduction clause",
        "lane_sum.cpp",
    ])


def main() -> int:
    cases = [case_planted_alloc, case_planted_inversion, case_planted_fma,
             case_planted_simd_reduction]
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="dls_selftest_") as tmp_str:
        tmp = Path(tmp_str)
        for case in cases:
            got = case(tmp)
            status = "FAIL" if got else "ok"
            print(f"selftest [{case.__name__}] {status}")
            problems.extend(got)
    if problems:
        print()
        for p in problems:
            print(p)
        print(f"\nselftest: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print(f"selftest: {len(cases)} fixture(s) all fail as designed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

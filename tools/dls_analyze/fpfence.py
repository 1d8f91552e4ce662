"""fp-fence: keep floating-point contraction and FMA out of everything
except the sanctioned kernel header, and pin the compile flags that make
the bit-identity story (batch lanes vs the scalar solver compared with
exact ==) actually hold.

Three rule groups:

  flags    every src/ TU must compile with -ffp-contract=off (the
           top-level CMakeLists adds it project-wide) and without any of
           the fast-math family — a TU that re-enables contraction can
           fuse a*b+c on one path but not the other and silently break
           the == audits.
  sources  outside the kernel header, std::fma / __builtin_fma* / FMA
           intrinsics / `#pragma STDC FP_CONTRACT ON` are banned, and so
           are the compiler's vectorization hooks — `omp simd`
           directives and target / target_clones attributes: the lane
           loops of dlt/batch_kernels.hpp are the only code the compiler
           is asked to vectorize or clone. Everywhere, the kernel header
           included, an `omp simd` reduction clause (it licenses
           re-association) and <immintrin.h> / <arm_neon.h> includes (the
           kernels are portable loops, not intrinsics) are banned.
  anchors  inside the kernel header the sanctioned left-associated
           spellings of the α̂ recurrence must be present verbatim, and
           kernel-consuming TUs must not re-derive the recurrence inline
           (the `(x + tail) + z` shape) — there is exactly ONE spelling
           of every recurrence, in the kernel header or linear.cpp.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Tuple

from . import compiledb, cpplex
from .report import CheckResult, Finding

KERNEL_HEADER = Path("dlt") / "batch_kernels.hpp"
# linear.cpp holds pair_alpha_hat — the scalar canonical spelling the
# kernels mirror; it may state the recurrence.
SANCTIONED_SOURCES = {KERNEL_HEADER, Path("dlt") / "linear.cpp"}

BANNED_FLAGS = {
    "-ffast-math": "enables unsafe FP transformations project-wide",
    "-funsafe-math-optimizations": "licenses re-association",
    "-fassociative-math": "licenses re-association",
    "-freciprocal-math": "replaces division with reciprocal multiply",
    "-Ofast": "implies -ffast-math",
    "-ffp-contract=fast": "allows FMA fusion across expressions",
    "-ffp-contract=on": "allows FMA fusion within expressions",
}
REQUIRED_FLAG = "-ffp-contract=off"

_FMA_CALL_RE = re.compile(r"\b(?:std\s*::\s*)?fma[fl]?\s*\(")
_FMA_BUILTIN_RE = re.compile(r"\b__builtin_fma\w*\b")
_FMA_INTRIN_RE = re.compile(
    r"\b(?:_mm\d*_f[nm]?m(?:add|sub)\w*|vfma\w*|vfms\w*)\b")
_PRAGMA_RE = re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON")
_SIMD_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](immintrin|arm_neon)\.h[>"]')
_OMP_PRAGMA_RE = re.compile(r"\s*#\s*pragma\s+omp\b")
# `_Pragma("omp ...")`, matched on stripped text; the literal's body is
# read back from the raw text at the same offsets.
_PRAGMA_OP_RE = re.compile(r'\b_Pragma\s*\(\s*"([^"\n]*)"')
_SIMD_WORD_RE = re.compile(r"\bsimd\b")
_REDUCTION_RE = re.compile(r"\breduction\s*\(")
# Function-multiversioning attributes: target_clones / target_version in
# any spelling, and target(...) inside __attribute__((...)) or [[gnu::]].
_TARGET_ATTR_RE = re.compile(
    r"\b(?:__)?target_(?:clones|version)(?:__)?\b"
    r"|\bgnu\s*::\s*(?:__)?target(?:__)?\s*\("
    r"|__attribute__\s*\(\([^;{}]*?\b(?:__)?target(?:__)?\s*\(")

# The exact association-order spellings the kernels and their audits
# rely on; whitespace-insensitive. If a kernel rewrite drops one of
# these, the fence fails loudly so the change is made consciously in
# both places.
KERNEL_ANCHORS = [
    "(w[k] + tail[k]) + z[k]",
    "(w + tail[k]) + z",
    "(bids[k] + tail) + z",
]

# A parenthesized sum ending in a tail-named term, itself summed again:
# the `(x + tail) + z` denominator shape of the α̂ recurrence.
_REDERIVE_RE = re.compile(
    r"\(\s*[A-Za-z_]\w*(?:\[[^\]\n]*\])?\s*\+\s*"
    r"[A-Za-z_]*tail\w*(?:\[[^\]\n]*\])?\s*\)\s*\+")


def _norm(text: str) -> str:
    return re.sub(r"\s+", "", text)


def _omp_directives(raw: str, stripped: str) -> List[Tuple[int, str]]:
    """(line, directive text) of every OpenMP directive: `#pragma omp`
    lines with backslash continuations joined, and `_Pragma("omp ...")`
    operators."""
    out: List[Tuple[int, str]] = []
    lines = stripped.splitlines()
    i = 0
    while i < len(lines):
        start, text = i, lines[i]
        while text.rstrip().endswith("\\") and i + 1 < len(lines):
            i += 1
            text = text.rstrip()[:-1] + " " + lines[i]
        m = _OMP_PRAGMA_RE.match(text)
        if m:
            out.append((start + 1, text[m.end():]))
        i += 1
    for m in _PRAGMA_OP_RE.finditer(stripped):
        body = raw[m.start(1):m.end(1)]
        if re.match(r"\s*omp\b", body):
            out.append((stripped.count("\n", 0, m.start()) + 1, body))
    return sorted(out)


def run(src_root: str, entries: List[compiledb.Entry]) -> CheckResult:
    res = CheckResult(check="fp-fence")
    root = Path(src_root).resolve()

    flagged_tus = 0
    for e in entries:
        rel = _rel(e.resolved_file(), root)
        flags = compiledb.compiler_flags(e)
        joined = set(flags)
        for bad, why in BANNED_FLAGS.items():
            if bad in joined:
                res.findings.append(Finding(
                    "fp-fence", "error", rel, 0,
                    f"compile command carries {bad} ({why}); the solver's "
                    "bit-identity audits require default IEEE semantics"))
        # Last -ffp-contract wins; require the effective value to be off.
        effective = None
        for f in flags:
            if f.startswith("-ffp-contract="):
                effective = f
            elif f == "-Ofast":
                effective = "-ffp-contract=fast"
        if effective != REQUIRED_FLAG:
            got = effective or "compiler default (fast at -O2+ for GCC)"
            res.findings.append(Finding(
                "fp-fence", "error", rel, 0,
                f"compile command must pin {REQUIRED_FLAG} (effective: "
                f"{got}) — contraction may fuse a*b+c into an FMA on one "
                "code path but not its bit-identity twin"))
        else:
            flagged_tus += 1

    files = sorted(p for p in root.rglob("*")
                   if p.suffix in (".cpp", ".hpp", ".h", ".cc"))
    for path in files:
        rel_path = path.relative_to(root)
        rel = _rel(path, root)
        raw = path.read_text(encoding="utf-8", errors="replace")
        stripped = cpplex.strip_comments_and_strings(raw)
        in_kernel = rel_path == KERNEL_HEADER
        for lineno, directive in _omp_directives(raw, stripped):
            if not _SIMD_WORD_RE.search(directive):
                continue
            if _REDUCTION_RE.search(directive):
                res.findings.append(Finding(
                    "fp-fence", "error", rel, lineno,
                    "omp simd with a reduction clause licenses "
                    "re-association — the vector clone's partial sums "
                    "round differently from the scalar reference the "
                    "audits replay"))
            elif not in_kernel:
                res.findings.append(Finding(
                    "fp-fence", "error", rel, lineno,
                    f"omp simd directive outside {KERNEL_HEADER}; the "
                    "lane loops there are the only code the compiler is "
                    "asked to vectorize"))
        for lineno, line in enumerate(stripped.splitlines(), start=1):
            if _PRAGMA_RE.search(line):
                res.findings.append(Finding(
                    "fp-fence", "error", rel, lineno,
                    "#pragma STDC FP_CONTRACT ON re-enables fusion the "
                    "build globally disabled"))
            if _SIMD_INCLUDE_RE.search(line):
                res.findings.append(Finding(
                    "fp-fence", "error", rel, lineno,
                    "SIMD intrinsics header included; the lane kernels "
                    f"in {KERNEL_HEADER} are portable loops the compiler "
                    "vectorizes, with one spelling each"))
            if in_kernel:
                continue
            if _TARGET_ATTR_RE.search(line):
                res.findings.append(Finding(
                    "fp-fence", "error", rel, lineno,
                    "target/target_clones attribute outside "
                    f"{KERNEL_HEADER}; ISA-specific clones of a function "
                    "are confined to the lane kernels"))
            for pat, what in ((_FMA_CALL_RE, "fma() call"),
                              (_FMA_BUILTIN_RE, "__builtin_fma*"),
                              (_FMA_INTRIN_RE, "FMA intrinsic")):
                if pat.search(line):
                    res.findings.append(Finding(
                        "fp-fence", "error", rel, lineno,
                        f"{what} outside {KERNEL_HEADER} — fused rounding "
                        "diverges from the scalar reference the audits "
                        "replay"))

        if rel_path.parts[:1] == ("dlt",) and \
                rel_path not in SANCTIONED_SOURCES:
            for lineno, line in enumerate(stripped.splitlines(), start=1):
                if _REDERIVE_RE.search(line):
                    res.findings.append(Finding(
                        "fp-fence", "error", rel, lineno,
                        "re-derived α̂ recurrence (the '(x + tail) + z' "
                        "association) outside the sanctioned kernels — "
                        "call the batch_kernels.hpp helper instead so "
                        "there is exactly one spelling to audit"))

    kernel = root / KERNEL_HEADER
    if kernel.is_file():
        body = _norm(kernel.read_text(encoding="utf-8", errors="replace"))
        missing = [a for a in KERNEL_ANCHORS if _norm(a) not in body]
        for a in missing:
            res.findings.append(Finding(
                "fp-fence", "error", _rel(kernel, root), 0,
                f"sanctioned association anchor '{a}' not found in the "
                "kernel header — if the kernels were rewritten, update "
                "the fence and the audits together"))
        if not missing:
            res.proven.append(
                f"{len(KERNEL_ANCHORS)} sanctioned association anchors "
                f"present in {KERNEL_HEADER}")

    if flagged_tus and not res.errors():
        res.proven.append(
            f"{flagged_tus} TU(s) pinned to {REQUIRED_FLAG}, no fast-math")
    return res


def _rel(path: Path, root: Path) -> str:
    try:
        return str(Path("src") / path.relative_to(root))
    except ValueError:
        return str(path)

"""reach: every external-linkage function defined under src/ runs from a
bench, an example or perfbench, or carries a waiver with a reason.

Graph. The call edges come from one -O0 -fcallgraph-info
-ffunction-sections compile of every src/, bench/ and examples/ TU in
the compile database, plus perfbench's TUs. perfbench is its own CMake
project, so their commands are a src/ entry's flags with -Iperfbench and
the PERFBENCH_BUILD_TYPE define. Unlike the no-alloc proof, this compile
keeps the database's DLS_CHECK_LEVEL and DLS_OBS_LEVEL: code reached
only through a check or span site is live in that configuration.

Roots. Every `main`, every static initialiser, and every function whose
address is taken: `readelf -r` shows a relocation to it, other than a
direct call's R_X86_64_PLT32, from a .text*, .data*, .rodata* or
.init_array section. -fcallgraph-info records no edge into a vtable
slot, a stored function pointer or a std::function target; the
relocations name all three without any name heuristics. A relocation to
a bodyless C1/D1/D0 clone roots its C2/D2 twin (callgraph.py aliasing),
so the destructors __cxa_atexit registers count.

Findings. A GLOBAL or WEAK function symbol that some TU emits, defined
under src/, that no root reaches. Waivers: `reach <glob> -- <reason>`.
A header that holds only types or unused inline code emits no symbol;
lint_project's file-level `module-reached` rule covers those.
"""

from __future__ import annotations

import concurrent.futures
import re
import subprocess
from pathlib import Path
from typing import Dict, List, Set, Tuple

from . import callgraph, compiledb, waivers
from .compiledb import AnalyzerError
from .report import CheckResult, Finding

ENTRY_DIRS = ("bench", "examples")
PERFBENCH = "perfbench"

_REL_SECTION_RE = re.compile(r"^Relocation section '\.rela?(\S+)'")
_REL_RE = re.compile(r"^\s*[0-9a-f]+\s+[0-9a-f]+\s+(R_\w+)\s+[0-9a-f]+"
                     r"\s+(\S+) ([+-] [0-9a-f]+)$")
_SYM_RE = re.compile(
    r"^\s*\d+:\s+[0-9a-f]+\s+\S+\s+FUNC\s+(GLOBAL|WEAK)\s+\S+\s+(\S+)\s+(\S+)")
_ROOT_SECTIONS = (".text", ".data", ".rodata", ".init_array")


def select_entries(entries: List[compiledb.Entry],
                   src_root: str) -> List[compiledb.Entry]:
    """src/, bench/ and examples/ TUs of the database, then perfbench's,
    compiled with the first src/ entry's flags."""
    root = Path(src_root).resolve()
    src = compiledb.src_entries(entries, str(root))
    if not src:
        raise AnalyzerError("no src/ translation units in the compile "
                            "database")
    out = list(src)
    for d in ENTRY_DIRS:
        out += compiledb.src_entries(entries, str(root.parent / d))
    perf = root.parent / PERFBENCH
    for cpp in sorted(perf.glob("*.cpp")):
        out.append(compiledb.with_file(
            src[0], cpp,
            [f"-I{perf}", '-DPERFBENCH_BUILD_TYPE="dls_analyze"']))
    return out


def _scan_object(obj: Path) -> Tuple[Set[str], Set[str], bool]:
    """(address-taken function names, emitted GLOBAL/WEAK function
    symbols, defines main) of one object."""
    proc = subprocess.run(["readelf", "-W", "-r", "-s", str(obj)],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise AnalyzerError(f"readelf failed on {obj}: {proc.stderr}")
    taken: Set[str] = set()
    external: Set[str] = set()
    section = ""
    for line in proc.stdout.splitlines():
        m = _REL_SECTION_RE.match(line)
        if m:
            section = m.group(1)
            continue
        m = _REL_RE.match(line)
        if m:
            # An addend of 0, or -4 for a PC-relative operand, points at
            # a function's entry; a switch's jump table points inside.
            target, addend = m.group(2), m.group(3).replace(" ", "")
            if target.startswith(".text."):  # a local's section symbol
                target = target[len(".text."):]
            if m.group(1) != "R_X86_64_PLT32" and addend in ("+0", "-4") \
                    and section.startswith(_ROOT_SECTIONS) \
                    and not target.startswith("."):
                taken.add(target)
            continue
        m = _SYM_RE.match(line)
        if m and m.group(2) != "UND":
            external.add(m.group(3))
    return taken, external, "main" in external


def run(src_root: str, graph: callgraph.CallGraph,
        extra: List[waivers.Waiver], jobs: int = 0) -> CheckResult:
    res = CheckResult(check="reach")
    wset = waivers.WaiverSet(extra, "reach")
    workers = jobs if jobs > 0 else 4
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        scans = list(pool.map(_scan_object, graph.objects))

    def canon(key: str) -> str:
        return callgraph.canonical(graph, key)

    taken: Set[str] = set()
    external: Set[str] = set()
    for t, e, _ in scans:
        taken |= t
        external |= e
    mains = sum(1 for _, _, has_main in scans if has_main)
    roots = {canon(k) for k in taken if canon(k) in graph.nodes}
    roots |= {k for k in graph.nodes
              if k == "main" or k.startswith("_GLOBAL__sub_I")}

    reached: Set[str] = set()
    stack = sorted(roots)
    while stack:
        cur = stack.pop()
        if cur in reached:
            continue
        reached.add(cur)
        stack.extend(canon(d) for d in graph.edges.get(cur, {}))

    root = Path(src_root).resolve()
    candidates: Dict[str, callgraph.Node] = {}
    for sym in external:
        node = graph.nodes.get(callgraph.canonical(graph, sym, False))
        if node is None or not node.file:
            continue
        if root in Path(node.file).resolve().parents:
            candidates[node.mangled] = node
    used: Set[str] = set()
    waived = 0
    for key, node in sorted(candidates.items(),
                            key=lambda kv: (kv[1].file, kv[1].line)):
        if key in reached:
            continue
        w = wset.match(node.demangled, key)
        if w is not None:
            used.add(w.origin)
            waived += 1
            continue
        res.findings.append(Finding(
            "reach", "error", _relpath(Path(node.file), root), node.line,
            f"{node.demangled} has external linkage but no main, static "
            "initialiser or address-taken function reaches it; run it "
            "from a bench, an example or perfbench, delete it, or waive "
            "it with a reason"))
    for w in wset.waivers():
        if w.origin not in used:
            res.findings.append(Finding(
                "reach", "warning", w.origin, 0,
                f"reach waiver '{w.pattern}' matches no unreached function"))
    res.proven.append(
        f"{len(candidates) - len(res.errors()) - waived} of "
        f"{len(candidates)} external-linkage function(s) under src/ "
        f"reached from {mains} main(s) and {len(roots)} root(s) over "
        f"{len(graph.objects)} TU(s); {waived} waived")
    return res


def _relpath(path: Path, src_root: Path) -> str:
    try:
        return str(path.resolve().relative_to(src_root.parent))
    except ValueError:
        return str(path)

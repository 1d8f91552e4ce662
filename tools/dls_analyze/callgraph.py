"""Whole-program call graph from GCC -fcallgraph-info dumps.

Engine notes. GCC (>= 10) emits one VCG file per TU when compiled with
-fcallgraph-info; each function defined in the TU becomes a node titled
"<dumpbase>:<mangled>" whose label carries the demangled signature and
the definition's file:line:column, each call becomes an edge labelled
with its call site, and functions merely referenced become bare
"<mangled>" nodes (shape ellipse). Re-running every compile command from
compile_commands.json with the dump flag and merging the per-TU graphs
by mangled name yields the whole-program graph, including template and
inline bodies instantiated per TU. Indirect calls (function pointers,
virtual dispatch) carry no edge — the repo's hot paths are direct-call
only, which is part of the discipline this analyzer enforces by walking
what the compiler actually resolved.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import re
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import compiledb
from .compiledb import AnalyzerError

_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_NODE_RE = re.compile(r'node:\s*\{\s*title:\s*' + _QUOTED +
                      r'(?:\s*label:\s*' + _QUOTED + r')?' +
                      r'(\s*shape\s*:\s*ellipse)?')
_EDGE_RE = re.compile(r'edge:\s*\{\s*sourcename:\s*' + _QUOTED +
                      r'\s*targetname:\s*' + _QUOTED +
                      r'(?:\s*label:\s*' + _QUOTED + r')?')


@dataclasses.dataclass
class Node:
    mangled: str
    demangled: str = ""
    file: str = ""
    line: int = 0
    defined: bool = False


@dataclasses.dataclass
class CallGraph:
    nodes: Dict[str, Node] = dataclasses.field(default_factory=dict)
    # caller mangled -> {callee mangled: "file:line:col" of one call site}
    edges: Dict[str, Dict[str, str]] = dataclasses.field(default_factory=dict)
    # the object file each compile wrote, in entry order
    objects: List[Path] = dataclasses.field(default_factory=list)

    def add_node(self, node: Node) -> None:
        cur = self.nodes.get(node.mangled)
        if cur is None or (node.defined and not cur.defined):
            self.nodes[node.mangled] = node

    def add_edge(self, src: str, dst: str, site: str) -> None:
        self.edges.setdefault(src, {}).setdefault(dst, site)

    def name(self, mangled: str) -> str:
        node = self.nodes.get(mangled)
        if node and node.demangled:
            return node.demangled
        return mangled


def _title_key(title: str) -> str:
    """'path/x.cpp:_ZN3dls3fooEv' -> '_ZN3dls3fooEv'; bare titles pass."""
    if ":" in title:
        return title.rsplit(":", 1)[1]
    return title


def _parse_ci(text: str, graph: CallGraph) -> None:
    for m in _NODE_RE.finditer(text):
        title, label = m.group(1), m.group(2)
        key = _title_key(title)
        node = Node(mangled=key)
        if label and not m.group(3):  # an ellipse is only referenced
            parts = label.split("\\n")
            node.demangled = parts[0]
            if len(parts) >= 2 and ":" in parts[1]:
                loc = parts[1].rsplit(":", 2)
                if len(loc) == 3:
                    node.file = loc[0]
                    try:
                        node.line = int(loc[1])
                    except ValueError:
                        node.line = 0
                    node.defined = True
        graph.add_node(node)
    for m in _EDGE_RE.finditer(text):
        src, dst, site = m.group(1), m.group(2), m.group(3) or ""
        graph.add_edge(_title_key(src), _title_key(dst), site)


def _run_one(entry: compiledb.Entry, tmp: Path, index: int,
             levels_off: bool) -> Path:
    tu_dir = tmp / str(index)
    tu_dir.mkdir(parents=True, exist_ok=True)
    obj = tu_dir / "tu.o"
    argv = compiledb.callgraph_argv(entry, str(obj), levels_off)
    proc = subprocess.run(argv, cwd=entry.directory,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.splitlines()[-12:])
        raise AnalyzerError(
            f"call-graph compile failed for {entry.file}:\n{tail}")
    ci = obj.with_suffix(".ci")
    if not ci.is_file():
        candidates = sorted(tu_dir.glob("*.ci"))
        if not candidates:
            raise AnalyzerError(
                f"{entry.file}: compiler produced no .ci dump "
                "(-fcallgraph-info unsupported by this compiler?)")
        ci = candidates[0]
    return ci


def _demangle(names: List[str]) -> Dict[str, str]:
    mangled = [n for n in names if n.startswith("_Z")]
    if not mangled:
        return {}
    try:
        proc = subprocess.run(["c++filt"], input="\n".join(mangled),
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return {}
    out = proc.stdout.splitlines()
    return dict(zip(mangled, out))


def build(entries: List[compiledb.Entry], tmp: Path,
          jobs: int = 0, levels_off: bool = True) -> CallGraph:
    """Compile every entry with -fcallgraph-info and merge the dumps.
    The objects stay in `tmp` (graph.objects) for relocation scans."""
    if not entries:
        raise AnalyzerError("no translation units selected from the "
                            "compile database")
    graph = CallGraph()
    workers = jobs if jobs > 0 else min(16, len(entries))
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(_run_one, e, tmp, i, levels_off)
                   for i, e in enumerate(entries)]
        ci_files = [f.result() for f in futures]
    graph.objects = [tmp / str(i) / "tu.o" for i in range(len(entries))]
    for ci in ci_files:
        _parse_ci(ci.read_text(encoding="utf-8", errors="replace"), graph)
    for edges in graph.edges.values():
        for dst in edges:
            if dst not in graph.nodes:
                graph.nodes[dst] = Node(mangled=dst)
    _alias_ctor_clones(graph)
    _link_target_clones(graph)
    # Demangle every _Z symbol with c++filt and prefer that over GCC's
    # node label: for template instantiations the VCG label is truncated
    # (it starts mid-signature at the parameter list), which would break
    # both waiver matching and path readability. c++filt names carry no
    # return type, matching how waiver patterns are written.
    filled = _demangle(sorted(graph.nodes))
    for key, nice in filled.items():
        graph.nodes[key].demangled = nice
    for node in graph.nodes.values():
        if not node.demangled:
            node.demangled = node.mangled
    return graph


_CLONE_RE = re.compile(r"(C1|D1|D0)(?=[EI])")
_CLONE_BASE = {"C1": "C2", "D1": "D2", "D0": "D2"}


def _has_body(graph: CallGraph, key: str) -> bool:
    node = graph.nodes.get(key)
    return bool(node and node.defined) or bool(graph.edges.get(key))


def canonical(graph: CallGraph, key: str, bodyless_only: bool = True) -> str:
    """GCC emits the complete-object constructor (C1) / destructor (D1,
    D0) as an alias of the base-object clone (C2/D2) when there are no
    virtual bases: a call or a relocation names C1 but only C2 carries a
    body and outgoing edges. Map such a bodyless clone to its twin; with
    `bodyless_only` off, map every clone to the twin that holds the
    source body (a D0 wraps D1 in operator delete)."""
    if bodyless_only and _has_body(graph, key):
        return key
    for m in _CLONE_RE.finditer(key):
        twin = key[:m.start()] + _CLONE_BASE[m.group(1)] + key[m.end():]
        if _has_body(graph, twin):
            return twin
    return key


def _alias_ctor_clones(graph: CallGraph) -> None:
    """Redirect edges into bodyless clone symbols to the defined twin so
    the walk does not dead-end at an alias."""
    alias = {key: canonical(graph, key) for key in graph.nodes}
    for edges in graph.edges.values():
        for dst in list(edges):
            target = alias.get(dst, dst)
            if target != dst and target not in edges:
                edges[target] = edges[dst]


def _link_target_clones(graph: CallGraph) -> None:
    """A target_clones function (the batch lane kernels) is called
    through a bodyless ifunc symbol X; GCC emits its bodies as X.default,
    X.avx2, ... beside the resolver X.resolver. Add an edge from X to
    every clone so the walk covers the body the loader may bind."""
    by_base: Dict[str, List[str]] = {}
    for key in graph.nodes:
        base, dot, _ = key.rpartition(".")
        if dot and base in graph.nodes:
            by_base.setdefault(base, []).append(key)
    for base, clones in by_base.items():
        if base + ".resolver" not in clones:
            continue
        for clone in sorted(clones):
            graph.add_edge(base, clone, "target_clones ifunc")


def shortest_path(graph: CallGraph, root: str,
                  is_sink, is_pruned) -> Optional[List[Tuple[str, str]]]:
    """BFS from `root`; returns [(mangled, callsite-into-it), ...] ending
    at the first sink, or None if no sink is reachable. Pruned nodes are
    not expanded and cannot be sinks (that is what a waiver means)."""
    parent: Dict[str, Tuple[str, str]] = {root: ("", "")}
    queue = [root]
    while queue:
        cur = queue.pop(0)
        for dst, site in sorted(graph.edges.get(cur, {}).items()):
            if dst in parent:
                continue
            if is_pruned(dst):
                continue
            parent[dst] = (cur, site)
            if is_sink(dst):
                path = [(dst, site)]
                node = cur
                while node != root:
                    prev, psite = parent[node]
                    path.append((node, psite))
                    node = prev
                path.append((root, ""))
                path.reverse()
                return path
            queue.append(dst)
    return None

"""compile_commands.json loading and per-TU re-invocation argv."""

from __future__ import annotations

import dataclasses
import json
import os
import shlex
from pathlib import Path
from typing import List


class AnalyzerError(RuntimeError):
    """Infrastructure failure (not a finding): bad DB, compiler error."""


@dataclasses.dataclass
class Entry:
    directory: str
    file: str
    args: List[str]

    def resolved_file(self) -> Path:
        p = Path(self.file)
        if not p.is_absolute():
            p = Path(self.directory) / p
        return p.resolve()


def load(build_dir: str) -> List[Entry]:
    db = Path(build_dir) / "compile_commands.json"
    if not db.is_file():
        raise AnalyzerError(
            f"{db}: not found — configure the build first "
            "(cmake -B {build_dir} -S . exports the compile database)")
    with open(db, encoding="utf-8") as fh:
        raw = json.load(fh)
    entries = []
    for item in raw:
        if "arguments" in item:
            args = list(item["arguments"])
        else:
            args = shlex.split(item["command"])
        entries.append(Entry(item["directory"], item["file"], args))
    return entries


def src_entries(entries: List[Entry], src_root: str) -> List[Entry]:
    """The project TUs: sources under src_root, one entry per file."""
    root = Path(src_root).resolve()
    seen = set()
    out = []
    for e in entries:
        f = e.resolved_file()
        if root not in f.parents:
            continue
        if f in seen:  # objects built into several targets
            continue
        seen.add(f)
        out.append(e)
    return out


def callgraph_argv(entry: Entry, out_obj: str,
                   levels_off: bool = True) -> List[str]:
    """Rebuild the TU's command line for a call-graph dump compile.

    The no-alloc proof runs against the production configuration
    (`levels_off`): contract auditors (DLS_CHECK_LEVEL) and
    instrumentation (DLS_OBS_LEVEL) are forced to 0 — both layers have
    their own compile-time gates and are allowed to allocate when
    compiled in. The reach check keeps the database's own levels, so
    code reached only through a check or span site counts as reached.
    -O0 keeps every call out of line so the dumped graph is the
    complete, uninlined one; -ffunction-sections gives every function
    its own relocation section; -g0 drops debug info nobody reads.
    """
    args: List[str] = []
    skip_next = False
    for a in entry.args:
        if skip_next:
            skip_next = False
            continue
        if a == "-o":
            skip_next = True
            continue
        if a.startswith("-o") and len(a) > 2 and not a.startswith("-of"):
            continue
        if levels_off and (a.startswith("-DDLS_CHECK_LEVEL")
                           or a.startswith("-DDLS_OBS_LEVEL")):
            continue
        if a.startswith("-fcallgraph-info"):
            continue
        args.append(a)
    if levels_off:
        args += ["-DDLS_CHECK_LEVEL=0", "-DDLS_OBS_LEVEL=0"]
    args += [
        "-O0",
        "-g0",
        "-w",
        "-fcallgraph-info",
        "-ffunction-sections",
        "-o",
        out_obj,
    ]
    return args


def with_file(entry: Entry, path: Path, extra: List[str]) -> Entry:
    """`entry`'s command line compiling `path` instead, plus `extra`."""
    args = [str(path) if a == entry.file else a for a in entry.args]
    if str(path) not in args:
        raise AnalyzerError(f"{entry.file}: source not found on its own "
                            "command line")
    return Entry(entry.directory, str(path), args[:1] + extra + args[1:])


def compiler_flags(entry: Entry) -> List[str]:
    """The flag tokens of an entry (everything but compiler and file)."""
    flags = []
    file_base = os.path.basename(entry.file)
    for a in entry.args[1:]:
        if os.path.basename(a) == file_base:
            continue
        flags.append(a)
    return flags

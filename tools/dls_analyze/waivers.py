"""Waiver file parsing and matching.

Format (see tools/dls_analyze/waivers.conf): one waiver per line,

    <check> <glob-pattern> -- <reason>

`check` is the check name the waiver applies to (`noalloc`, ...).
The glob matches the DEMANGLED name of a function (spaces allowed — the
pattern runs to the ` -- ` separator); mangled names are matched too so
raw symbols like __cxa_* can be named directly. The reason is mandatory:
a waiver without a documented reason is a lie waiting to happen.
"""

from __future__ import annotations

import dataclasses
import fnmatch
from pathlib import Path
from typing import List

from .compiledb import AnalyzerError


@dataclasses.dataclass
class Waiver:
    check: str
    pattern: str
    reason: str
    origin: str  # "<built-in>" or "file:line"


def parse_file(path: str) -> List[Waiver]:
    waivers = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " -- " not in line:
            raise AnalyzerError(
                f"{path}:{lineno}: waiver missing ' -- <reason>' separator")
        head, reason = line.split(" -- ", 1)
        parts = head.split(None, 1)
        if len(parts) != 2 or not reason.strip():
            raise AnalyzerError(
                f"{path}:{lineno}: expected '<check> <pattern> -- <reason>'")
        waivers.append(Waiver(parts[0], parts[1].strip(), reason.strip(),
                              f"{path}:{lineno}"))
    return waivers


def strip_return_type(demangled: str) -> str:
    """'void dls::foo(int)' -> 'dls::foo(int)'. GCC's call-graph labels
    lead with the return type; waiver patterns name the function. The
    name starts after the last top-level space before the parameter
    list (spaces inside template argument lists don't count)."""
    paren = -1
    depth = 0
    for i, c in enumerate(demangled):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "(" and depth == 0:
            paren = i
            break
    if paren <= 0:
        return demangled
    head = demangled[:paren]
    depth = 0
    cut = -1
    for i, c in enumerate(head):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            cut = i
    return demangled[cut + 1:] if cut >= 0 else demangled


class WaiverSet:
    def __init__(self, waivers: List[Waiver], check: str):
        self._waivers = [w for w in waivers if w.check == check]

    def waivers(self) -> List[Waiver]:
        return list(self._waivers)

    def match(self, demangled: str, mangled: str = "") -> Waiver | None:
        stripped = strip_return_type(demangled)
        for w in self._waivers:
            if fnmatch.fnmatchcase(demangled, w.pattern):
                return w
            if stripped != demangled and \
                    fnmatch.fnmatchcase(stripped, w.pattern):
                return w
            if mangled and fnmatch.fnmatchcase(mangled, w.pattern):
                return w
        return None

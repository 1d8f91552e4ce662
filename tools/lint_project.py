#!/usr/bin/env python3
"""Repo-specific lint rules that clang-tidy cannot express.

Rules (library code = everything under src/):

  pragma-once          every header under src/ must contain #pragma once
                       near the top of the file.
  seeded-rng-only      no rand()/srand()/time(nullptr)/std::random_device
                       in src/ — experiments must be reproducible
                       bit-for-bit, so all randomness flows through the
                       seeded common::Rng streams.
  no-stdout-in-library no std::cout/std::cerr/printf in src/ — library
                       code reports through return values, exceptions
                       and caller-provided std::ostream&; only
                       examples/, bench/ and tools/ own a terminal.
  no-using-namespace   no `using namespace std` anywhere (headers or
                       sources) — it leaks into every includer.
  include-hygiene      no <iostream> in src/ headers (it drags static
                       initializers and the whole locale machinery into
                       every includer; sources may include it, headers
                       take std::ostream& via <iosfwd>), and no
                       parent-relative `#include "../"` paths in src/ —
                       includes are rooted at src/ so files can move
                       without rewriting their includers.
  metrics-documented   every metric name src/ emits (a string literal
                       passed to DLS_COUNT, DLS_GAUGE_SET, DLS_GAUGE_MAX,
                       DLS_OBSERVE or MetricsRegistry's counter / gauge /
                       histogram) has a row in docs/OBSERVABILITY.md's
                       metrics table, and every name that table lists is
                       emitted. A `<kind>` placeholder in a documented
                       name matches an emitted literal prefix (a literal
                       followed by `+`). Checked on whole-tree runs only.
  module-reached       every file under src/ is reached from a source
                       under bench/, examples/ or perfbench/: a header
                       through a chain of #include "…" lines, a .cpp
                       through its reached header (whose own includes
                       the walk then follows). Code that no bench,
                       example or benchmark workload runs gets wired
                       into one or deleted. Checked on whole-tree runs
                       only.

A finding can be waived for one line with a trailing comment naming the
rule, e.g. `// lint:allow(no-stdout-in-library): CLI entry point`.
The policy for adding waivers is documented in docs/STATIC_ANALYSIS.md.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SOURCE_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z0-9-]+)\)")

# Each content rule: (name, regex, message). Applied per line, with
# string/comment contents left in place — the patterns are specific
# enough that prose mentions (docs are not linted) do not trip them.
CONTENT_RULES = [
    (
        "seeded-rng-only",
        re.compile(r"\b(?:s?rand\s*\(|time\s*\(\s*(?:nullptr|NULL)\s*\)"
                   r"|std::random_device)"),
        "unseeded randomness; use the seeded common::Rng streams",
    ),
    (
        "no-stdout-in-library",
        re.compile(r"\bstd::c(?:out|err)\b|\b(?:f)?printf\s*\("),
        "library code must not write to the terminal; take std::ostream&",
    ),
    (
        "no-using-namespace",
        re.compile(r"\busing\s+namespace\s+std\b"),
        "`using namespace std` leaks into every includer",
    ),
]

# Which rules apply outside src/ (library-only rules are scoped there).
EVERYWHERE_RULES = {"no-using-namespace"}

# include-hygiene patterns (src/ only; the header half applies to
# .hpp/.h, the parent-relative half to every src/ file).
IOSTREAM_INCLUDE_RE = re.compile(r'#\s*include\s*<iostream>')
PARENT_INCLUDE_RE = re.compile(r'#\s*include\s*"\.\./')

# metrics-documented: where names are emitted and where they are listed.
METRICS_DOC = Path("docs") / "OBSERVABILITY.md"
# Comments (replaced by their newlines, so line numbers hold) and the
# string / char literals a comment marker may hide in (kept as is).
COMMENT_OR_LITERAL_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.S)
METRIC_EMIT_RE = re.compile(
    r'(?:\bDLS_(?:COUNT|GAUGE_SET|GAUGE_MAX|OBSERVE)'
    r'|\.(?:counter|gauge|histogram))\s*\(\s*"([^"\\]+)"(\s*\+)?')
METRIC_KIND_RE = re.compile(r"^\s*(?:counter|gauge|histogram)\b")
BACKTICK_RE = re.compile(r"`([^`]+)`")

# module-reached: the directories whose sources are the entry points,
# and the include form the walk follows (system <...> includes are not
# first-party). A quoted include resolves beside the including file
# first, then under src/.
ENTRY_DIRS = ("bench", "examples", "perfbench")
QUOTE_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def iter_source_files(
        root: Path,
        tops: tuple[str, ...] = ("src", "tests", "bench", "examples"),
) -> list[Path]:
    files: list[Path] = []
    for top in tops:
        base = root / top
        if not base.is_dir():
            continue
        files.extend(
            p for p in sorted(base.rglob("*"))
            if p.suffix in SOURCE_SUFFIXES and p.is_file()
        )
    return files


def lint_file(path: Path, root: Path) -> list[str]:
    rel = path.relative_to(root)
    in_library = rel.parts[0] == "src"
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return [f"{rel}:1: [encoding] file is not valid UTF-8"]

    findings: list[str] = []
    lines = text.splitlines()

    if in_library and path.suffix in {".hpp", ".h"}:
        head = lines[:30]
        if not any(line.strip() == "#pragma once" for line in head):
            findings.append(
                f"{rel}:1: [pragma-once] header must start with "
                "#pragma once (within the first 30 lines)"
            )

    for lineno, line in enumerate(lines, start=1):
        waived = {m.group(1) for m in ALLOW_RE.finditer(line)}
        if in_library and "include-hygiene" not in waived:
            if path.suffix in {".hpp", ".h"} and \
                    IOSTREAM_INCLUDE_RE.search(line):
                findings.append(
                    f"{rel}:{lineno}: [include-hygiene] <iostream> in a "
                    "header drags static initializers into every "
                    "includer; take std::ostream& and include <iosfwd>"
                )
            if PARENT_INCLUDE_RE.search(line):
                findings.append(
                    f"{rel}:{lineno}: [include-hygiene] parent-relative "
                    "include; root the path at src/ instead"
                )
        for name, pattern, message in CONTENT_RULES:
            if name not in EVERYWHERE_RULES and not in_library:
                continue
            if name in waived:
                continue
            if pattern.search(line):
                findings.append(f"{rel}:{lineno}: [{name}] {message}")
    return findings


def strip_comments(text: str) -> str:
    return COMMENT_OR_LITERAL_RE.sub(
        lambda m: m.group(0) if m.group(0)[0] in "\"'"
        else "\n" * m.group(0).count("\n"),
        text)


def emitted_metrics(root: Path) -> list[tuple[str, bool, str]]:
    """(name, is_prefix, "file:line") for every metric literal in src/."""
    found: list[tuple[str, bool, str]] = []
    for path in iter_source_files(root):
        rel = path.relative_to(root)
        if rel.parts[0] != "src":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        code = strip_comments(text)
        for m in METRIC_EMIT_RE.finditer(code):
            lineno = code.count("\n", 0, m.start()) + 1
            if "lint:allow(metrics-documented)" in lines[lineno - 1]:
                continue
            found.append((m.group(1), m.group(2) is not None,
                          f"{rel}:{lineno}"))
    return found


def documented_metrics(root: Path) -> list[tuple[str, str]]:
    """(name, "doc:line") for every name in the metrics table."""
    listed: list[tuple[str, str]] = []
    doc = root / METRICS_DOC
    for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1):
        cells = line.split("|")
        if len(cells) < 4 or not METRIC_KIND_RE.match(cells[2]):
            continue
        for name in BACKTICK_RE.findall(cells[1]):
            listed.append((name, f"{METRICS_DOC}:{lineno}"))
    return listed


def lint_metrics(root: Path) -> list[str]:
    emitted = emitted_metrics(root)
    documented = documented_metrics(root)

    def matches(doc_name: str, name: str, is_prefix: bool) -> bool:
        if "<" in doc_name:
            return is_prefix and doc_name.split("<", 1)[0] == name
        return not is_prefix and doc_name == name

    findings: list[str] = []
    for name, is_prefix, where in emitted:
        if not any(matches(d, name, is_prefix) for d, _ in documented):
            findings.append(
                f"{where}: [metrics-documented] metric \"{name}\" has no "
                f"row in {METRICS_DOC}'s metrics table")
    for doc_name, where in documented:
        if not any(matches(doc_name, n, p) for n, p, _ in emitted):
            findings.append(
                f"{where}: [metrics-documented] documented metric "
                f"\"{doc_name}\" is emitted nowhere in src/")
    return findings


def lint_modules(root: Path) -> list[str]:
    src = (root / "src").resolve()
    pending = [p.resolve() for p in iter_source_files(root, ENTRY_DIRS)]
    reached: set[Path] = set()

    def reach(path: Path) -> None:
        if path not in reached:
            reached.add(path)
            pending.append(path)

    while pending:
        path = pending.pop()
        for name in QUOTE_INCLUDE_RE.findall(
                path.read_text(encoding="utf-8")):
            header = next((c for c in ((path.parent / name).resolve(),
                                       (src / name).resolve())
                           if c.is_file()), None)
            if header is None:
                continue
            reach(header)
            source = header.with_suffix(".cpp")
            if header.is_relative_to(src) and source.is_file():
                reach(source)

    return [
        f"{p.relative_to(root)}:1: [module-reached] no #include chain "
        f"from {', '.join(d + '/' for d in ENTRY_DIRS)} reaches this "
        "file; run it from a bench, an example or perfbench, or delete it"
        for p in iter_source_files(root, ("src",))
        if p.resolve() not in reached
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files to lint (default: all first-party sources)",
    )
    args = parser.parse_args(argv)

    if args.paths:
        files = [p.resolve() for p in args.paths]
        for p in files:
            if not p.is_file():
                print(f"lint_project: no such file: {p}", file=sys.stderr)
                return 2
    else:
        files = iter_source_files(REPO_ROOT)

    findings: list[str] = []
    for path in files:
        findings.extend(lint_file(path, REPO_ROOT))
    if not args.paths:
        findings.extend(lint_metrics(REPO_ROOT))
        findings.extend(lint_modules(REPO_ROOT))

    for finding in findings:
        print(finding)
    if findings:
        print(
            f"lint_project: {len(findings)} finding(s) in "
            f"{len(files)} files",
            file=sys.stderr,
        )
        return 1
    print(f"lint_project: clean ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""hp-lint: project-invariant static analysis for the hecate-polka tree.

The repo rests on conventions no general-purpose linter knows about:

* **determinism** -- fixed-seed runs must produce bit-identical reports
  at any thread count, so wall-clock and ambient-randomness APIs
  (std::chrono, rand, std::random_device, time(), ...) are banned
  outside an explicit allowlist of phase timers (src/obs/, the
  compile/replay wall-clock histograms) and benchmark mains.
* **metric-names** -- every MetricRegistry registration literal must
  follow the lowercase `layer.section[.sub[.name]]` grammar documented
  in docs/OBSERVABILITY.md, never re-register one name as two kinds,
  and fall under a prefix the docs table declares.
* **header-hygiene** -- every public header under src/ must compile as
  its own translation unit (no hidden include-order dependencies).
* **hot-path-purity** -- regions bracketed by `// HP_HOT_BEGIN(name)`
  ... `// HP_HOT_END(name)` (the fold kernels, the batch forwarding
  entry points, replay_slice, the PacketSim event loop) must not
  allocate: no new/malloc, no container growth calls.  They must not
  write registry counters or gauges either (`.add(` / `.sub(` /
  `.set(`): each number is counted once, in the report, and copied
  into the registry after the run.  The dynamic twin of the allocation
  half is tests/alloc_guard_test.cpp.

Rules are classes registered in RULES; each carries its own file scope
and a per-file allowlist whose entries MUST have a written reason and
MUST still suppress at least one finding (stale entries are errors --
the grandfather list stays empty by construction).

Usage:
  hp_lint.py --all              run every rule over the repo tree
  hp_lint.py --rule NAME ...    run selected rules
  hp_lint.py --list             list rules
  hp_lint.py --self-test        run every rule against its golden
                                fixtures under tests/lint_fixtures/

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import fnmatch
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FIXTURES = REPO / "tests" / "lint_fixtures"

CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}


# ---------------------------------------------------------------------------
# Source model


def mask_comments_and_strings(text: str) -> str:
    """Return `text` with comment and string/char-literal *contents*
    blanked (newlines kept), so token scans cannot match inside them.
    Comment markers themselves are blanked too -- rules that need
    comment text (the HP_HOT markers) read the raw text instead."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, STR, CHR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = STR
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = CHR
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        else:  # STR / CHR
            quote = '"' if state == STR else "'"
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = NORMAL
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, root: Path, path: Path):
        self.root = root
        self.path = path
        self.rel = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.lines = self.text.splitlines()
        self._masked: str | None = None

    @property
    def masked(self) -> str:
        if self._masked is None:
            self._masked = mask_comments_and_strings(self.text)
        return self._masked

    @property
    def masked_lines(self) -> list[str]:
        return self.masked.splitlines()


class SourceTree:
    """A lazily-loaded view of the files a rule may scan.

    `fixture_mode` relaxes the repo-shaped checks (required hot regions,
    allowlist staleness) so golden fixtures can be linted in isolation.
    """

    def __init__(self, root: Path, fixture_mode: bool = False):
        self.root = root
        self.fixture_mode = fixture_mode
        self._cache: dict[str, SourceFile] = {}

    def files(self, globs: list[str]) -> list[SourceFile]:
        seen: dict[Path, None] = {}
        for pattern in globs:
            for path in sorted(self.root.glob(pattern)):
                if path.is_file() and path.suffix in CXX_SUFFIXES:
                    seen[path] = None
        return [self.file(p) for p in seen]

    def file(self, path: Path) -> SourceFile:
        key = str(path)
        if key not in self._cache:
            self._cache[key] = SourceFile(self.root, path)
        return self._cache[key]


@dataclass
class Finding:
    rule: str
    rel: str  # path relative to the scanned tree root
    line: int  # 1-based; 0 = whole file
    message: str

    def render(self) -> str:
        loc = f"{self.rel}:{self.line}" if self.line else self.rel
        return f"{loc}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Rule framework


class Rule:
    name = ""
    description = ""
    #: glob patterns (relative to the tree root) this rule scans
    scope = ["src/**/*"]
    #: {path glob: reason} -- files whose findings are intentionally
    #: waived.  Every entry needs a human-written reason; entries that
    #: suppress nothing are reported as stale.
    allowlist: dict[str, str] = {}

    def check(self, tree: SourceTree) -> list[Finding]:
        raise NotImplementedError

    # -- allowlist plumbing -------------------------------------------------

    def allowlist_reason(self, rel: str) -> str | None:
        for pattern, reason in self.allowlist.items():
            if fnmatch.fnmatch(rel, pattern):
                return reason
        return None

    def run(self, tree: SourceTree,
            extra_allowlist: dict[str, str] | None = None) -> list[Finding]:
        saved = self.allowlist
        if extra_allowlist:
            self.allowlist = {**self.allowlist, **extra_allowlist}
        try:
            raw = self.check(tree)
            suppressed_by: dict[str, int] = {p: 0 for p in self.allowlist}
            kept: list[Finding] = []
            for f in raw:
                waived = False
                for pattern in self.allowlist:
                    if fnmatch.fnmatch(f.rel, pattern):
                        suppressed_by[pattern] += 1
                        waived = True
                        break
                if not waived:
                    kept.append(f)
            if not tree.fixture_mode:
                for pattern, reason in self.allowlist.items():
                    if not reason.strip():
                        kept.append(Finding(
                            self.name, pattern, 0,
                            "allowlist entry has no justification -- every "
                            "exemption must say why"))
                    if suppressed_by.get(pattern, 0) == 0:
                        kept.append(Finding(
                            self.name, pattern, 0,
                            "stale allowlist entry: it no longer suppresses "
                            "any finding; delete it"))
            return kept
        finally:
            self.allowlist = saved

    # -- shared helpers -----------------------------------------------------

    @staticmethod
    def scan(src: SourceFile, patterns: list[tuple[re.Pattern, str]],
             rule: str) -> list[Finding]:
        findings = []
        for lineno, line in enumerate(src.masked_lines, start=1):
            for pat, why in patterns:
                if pat.search(line):
                    findings.append(Finding(
                        rule, src.rel, lineno,
                        f"{why}: `{src.lines[lineno - 1].strip()}`"))
        return findings


# ---------------------------------------------------------------------------
# Rule: determinism


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "bans wall-clock and ambient-randomness APIs outside the phase-"
        "timer allowlist, protecting the fixed-seed bit-identical "
        "report contract")
    scope = ["src/**/*", "bench/*", "examples/*"]
    allowlist = {
        "src/obs/trace.hpp":
            "TraceScope IS the wall-clock phase timer; its output is a "
            "timeline, never part of a deterministic report",
        "src/obs/trace.cpp":
            "TraceSink implementation of the wall-clock phase timers",
        "src/scenario/fabric_builder.hpp":
            "note_compile() carries steady_clock points for the "
            "compile.<phase>_ns histograms, documented wall-clock-only "
            "in docs/OBSERVABILITY.md",
        "src/scenario/fabric_builder.cpp":
            "compile.<phase>_ns wall-clock phase histograms (documented "
            "non-deterministic; every replayed value stays seeded)",
        "src/scenario/runner.cpp":
            "replay.slice_ns wall-clock histogram and the report's "
            "seconds field; packet outcomes stay deterministic",
        "bench/*":
            "benchmark mains measure wall clock by definition",
    }

    PATTERNS = [
        (re.compile(r"std\s*::\s*chrono\b"), "std::chrono wall clock"),
        (re.compile(r"<chrono>"), "<chrono> include"),
        (re.compile(r"\bstd\s*::\s*rand\b|(?<![\w.:>])\b(rand|srand)\s*\("),
         "C PRNG seeded from ambient state"),
        (re.compile(r"\brandom_device\b"),
         "std::random_device (non-deterministic entropy source)"),
        (re.compile(r"(?<![\w.:>])\btime\s*\("), "time() wall clock"),
        (re.compile(r"(?<![\w.:>_])\bclock\s*\("), "clock() wall clock"),
        (re.compile(r"\b(gettimeofday|clock_gettime)\s*\("),
         "POSIX wall clock"),
    ]

    def check(self, tree: SourceTree) -> list[Finding]:
        findings = []
        for src in tree.files(self.scope):
            findings += self.scan(src, self.PATTERNS, self.name)
        return findings


# ---------------------------------------------------------------------------
# Rule: metric-names


class MetricNamesRule(Rule):
    name = "metric-names"
    description = (
        "enforces the lowercase layer.section.name grammar on every "
        "MetricRegistry registration literal, rejects one name used as "
        "two kinds, and cross-checks prefixes against the "
        "docs/OBSERVABILITY.md table")
    scope = ["src/**/*"]
    allowlist = {}

    #: 2..4 dot segments, lowercase alnum/underscore, alpha-leading root.
    GRAMMAR = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+){1,3}$")
    LITERAL_CALL = re.compile(
        r"\b(counter|gauge|histogram)\s*\(\s*(?:failure\.\w+\s*\?\s*)?"
        r'"([^"]*)"')
    #: second literal of a `cond ? "a" : "b"` registration argument
    TERNARY_ALT = re.compile(
        r'\b(counter|gauge|histogram)\s*\(\s*[^"()]*\?\s*"[^"]*"\s*:\s*'
        r'"([^"]*)"')
    VARIABLE_CALL = re.compile(
        r"\b(counter|gauge|histogram)\s*\(\s*([A-Za-z_]\w*)\s*\)")
    #: snprintf formats that *look like* metric names: alpha-leading
    #: with a dot ("%.17g"-style numeric formatting never matches).
    SNPRINTF_FMT = re.compile(r'snprintf\s*\([^;]*?"([a-z][^"]*\.[^"]*)"')
    FORMAT_SPEC = re.compile(r"%0?\d*(?:z|l|ll|h)?[duxs]")
    #: docs table row whose first cell is a backticked prefix
    DOC_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|")

    # Registration sites excluded because they *define* the API.
    SELF = {"src/obs/metrics.hpp", "src/obs/metrics.cpp"}

    def doc_path(self, tree: SourceTree) -> Path:
        if tree.fixture_mode:
            return tree.root / "OBSERVABILITY.md"
        return tree.root / "docs" / "OBSERVABILITY.md"

    def documented_prefixes(self, tree: SourceTree) -> list[re.Pattern]:
        path = self.doc_path(tree)
        prefixes = []
        if path.is_file():
            for line in path.read_text(encoding="utf-8").splitlines():
                m = self.DOC_ROW.match(line.strip())
                if not m or "." not in m.group(1):
                    continue
                pat = re.escape(m.group(1))
                pat = pat.replace(re.escape("NNNNN"), r"\d+")
                pat = pat.replace(re.escape("*"), r"[a-z0-9_.]+")
                prefixes.append(re.compile(f"^{pat}$"))
        return prefixes

    def normalize_format(self, fmt: str) -> str:
        """Map printf specifiers onto grammar-shaped stand-ins: numeric
        specifiers become a digit segment, %s a lowercase one."""
        fmt = self.FORMAT_SPEC.sub(
            lambda m: "0" if m.group(0).endswith(("d", "u", "x")) else "x",
            fmt)
        return fmt

    def check(self, tree: SourceTree) -> list[Finding]:
        findings = []
        prefixes = self.documented_prefixes(tree)
        doc_rel = self.doc_path(tree).name
        if not prefixes:
            findings.append(Finding(
                self.name, doc_rel, 0,
                "no metric-prefix table found -- the docs cross-check "
                "needs the `| `prefix` | ... |` table"))
        kinds: dict[str, tuple[str, str, int]] = {}  # name -> (kind, rel, ln)

        def check_name(name: str, kind: str, src: SourceFile, lineno: int,
                       dynamic: bool):
            where = "dynamic format " if dynamic else ""
            if not self.GRAMMAR.match(name):
                findings.append(Finding(
                    self.name, src.rel, lineno,
                    f"metric {where}name '{name}' violates the lowercase "
                    "layer.section.name grammar (2-4 dot segments, "
                    "[a-z0-9_] each)"))
                return
            if prefixes and not any(p.match(name) for p in prefixes):
                findings.append(Finding(
                    self.name, src.rel, lineno,
                    f"metric {where}name '{name}' matches no prefix "
                    f"documented in the {doc_rel} table -- document the "
                    "family or fix the name"))
            if not dynamic:
                prev = kinds.get(name)
                if prev is None:
                    kinds[name] = (kind, src.rel, lineno)
                elif prev[0] != kind:
                    findings.append(Finding(
                        self.name, src.rel, lineno,
                        f"metric '{name}' registered as {kind} here but as "
                        f"{prev[0]} at {prev[1]}:{prev[2]} -- one name, "
                        "one kind"))

        for src in tree.files(self.scope):
            if src.rel in self.SELF:
                continue
            has_dynamic_format = False
            for lineno, line in enumerate(src.lines, start=1):
                for m in self.SNPRINTF_FMT.finditer(line):
                    has_dynamic_format = True
                    check_name(self.normalize_format(m.group(1)),
                               "format", src, lineno, dynamic=True)
            # Join continuation lines so a call split across lines still
            # matches; record the line of the call token.
            joined = "\n".join(src.lines)
            for m in self.LITERAL_CALL.finditer(joined):
                lineno = joined.count("\n", 0, m.start()) + 1
                check_name(m.group(2), m.group(1), src, lineno, dynamic=False)
            for m in self.TERNARY_ALT.finditer(joined):
                lineno = joined.count("\n", 0, m.start()) + 1
                check_name(m.group(2), m.group(1), src, lineno, dynamic=False)
            for m in self.VARIABLE_CALL.finditer(joined):
                arg = m.group(2)
                if arg in {"name", "fmt", "buf"} and has_dynamic_format:
                    continue  # covered by the snprintf format check above
                lineno = joined.count("\n", 0, m.start()) + 1
                findings.append(Finding(
                    self.name, src.rel, lineno,
                    f"metric registered through variable '{arg}' with no "
                    "snprintf format literal in the file -- the name "
                    "cannot be statically checked"))
        return findings


# ---------------------------------------------------------------------------
# Rule: header-hygiene


class HeaderHygieneRule(Rule):
    name = "header-hygiene"
    description = (
        "compiles every public header under src/ as a standalone "
        "translation unit, catching headers that lean on their "
        "includers' includes")
    scope = ["src/**/*.hpp"]
    allowlist = {}

    def compiler(self) -> str | None:
        for cand in (os.environ.get("CXX"), "c++", "g++", "clang++"):
            if cand and shutil.which(cand):
                return cand
        return None

    def include_dir(self, tree: SourceTree) -> Path:
        return tree.root if tree.fixture_mode else tree.root / "src"

    def check(self, tree: SourceTree) -> list[Finding]:
        cxx = self.compiler()
        if cxx is None:
            return [Finding(self.name, "<toolchain>", 0,
                            "no C++ compiler found (set CXX)")]
        findings = []
        include_dir = self.include_dir(tree)
        with tempfile.TemporaryDirectory(prefix="hp_lint_hdr_") as tmp:
            tu = Path(tmp) / "standalone.cpp"
            for src in tree.files(self.scope):
                rel_to_inc = src.path.relative_to(include_dir).as_posix()
                tu.write_text(f'#include "{rel_to_inc}"\n')
                proc = subprocess.run(
                    [cxx, "-std=c++20", "-fsyntax-only",
                     f"-I{include_dir}", str(tu)],
                    capture_output=True, text=True)
                if proc.returncode != 0:
                    first_error = next(
                        (l for l in proc.stderr.splitlines()
                         if "error" in l), proc.stderr.strip())
                    findings.append(Finding(
                        self.name, src.rel, 1,
                        "header does not compile standalone: "
                        f"{first_error.strip()}"))
        return findings


# ---------------------------------------------------------------------------
# Rule: hot-path-purity


class HotPathPurityRule(Rule):
    name = "hot-path-purity"
    description = (
        "rejects allocation, container growth and counter/gauge "
        "writes inside "
        "// HP_HOT_BEGIN(x) ... // HP_HOT_END(x) regions (fold "
        "kernels, batch forwarding, replay_slice, the sim event loop)")
    scope = ["src/**/*"]
    allowlist = {}

    BEGIN = re.compile(r"//\s*HP_HOT_BEGIN\((\w+)\)")
    END = re.compile(r"//\s*HP_HOT_END\((\w+)\)")

    ALLOC_HINT = "hot paths run on storage sized before the walk starts"

    #: (pattern, what, hint)
    BANNED = [
        (re.compile(r"(?<![\w:])\bnew\b(?!\s*\()"), "operator new",
         ALLOC_HINT),
        (re.compile(r"(?<![\w:])\bnew\s*\("), "placement/operator new",
         ALLOC_HINT),
        (re.compile(r"\b(malloc|calloc|realloc|aligned_alloc|strdup)\s*\("),
         "C allocation", ALLOC_HINT),
        (re.compile(r"\bstd\s*::\s*make_(unique|shared)\b"),
         "heap-owning smart-pointer construction", ALLOC_HINT),
        (re.compile(
            r"(?:\.|->)\s*(push_back|emplace_back|push_front|emplace_front|"
            r"resize|reserve|insert|emplace|append|assign|shrink_to_fit)"
            r"\s*\("),
         "container growth", ALLOC_HINT),
        # Histogram::record stays allowed.
        (re.compile(r"(?:\.|->)\s*(add|sub|set)\s*\("),
         "counter/gauge write",
         "count in the report and copy it into the registry after the "
         "run; refresh gauges outside the region"),
    ]

    #: Regions the tree must carry: deleting a marker (or the file's
    #: hot section) is itself a finding.  rel path -> region names.
    REQUIRED = {
        "src/polka/fold_kernels.hpp": ["run_batch"],
        "src/polka/fastpath.cpp": ["forward_batch"],
        "src/scenario/runner.cpp": ["replay_slice"],
        "src/sim/packet_sim.cpp": ["event_loop"],
    }

    def regions(self, src: SourceFile) -> tuple[list, list[Finding]]:
        """Parse marker pairs from the raw text.  Returns
        ([(name, begin_line, end_line)], structural findings)."""
        findings = []
        regions = []
        open_name, open_line = None, 0
        for lineno, line in enumerate(src.lines, start=1):
            b = self.BEGIN.search(line)
            e = self.END.search(line)
            if b:
                if open_name is not None:
                    findings.append(Finding(
                        self.name, src.rel, lineno,
                        f"HP_HOT_BEGIN({b.group(1)}) inside still-open "
                        f"region '{open_name}' (no nesting)"))
                open_name, open_line = b.group(1), lineno
            elif e:
                if open_name is None:
                    findings.append(Finding(
                        self.name, src.rel, lineno,
                        f"HP_HOT_END({e.group(1)}) without a matching "
                        "HP_HOT_BEGIN"))
                elif e.group(1) != open_name:
                    findings.append(Finding(
                        self.name, src.rel, lineno,
                        f"HP_HOT_END({e.group(1)}) closes region "
                        f"'{open_name}'"))
                    open_name = None
                else:
                    regions.append((open_name, open_line, lineno))
                    open_name = None
        if open_name is not None:
            findings.append(Finding(
                self.name, src.rel, open_line,
                f"HP_HOT_BEGIN({open_name}) never closed"))
        return regions, findings

    def check(self, tree: SourceTree) -> list[Finding]:
        findings = []
        seen: dict[str, set[str]] = {}
        for src in tree.files(self.scope):
            regions, structural = self.regions(src)
            findings += structural
            if regions:
                seen.setdefault(src.rel, set()).update(r[0] for r in regions)
            masked = src.masked_lines
            for region, begin, end in regions:
                for lineno in range(begin + 1, end):
                    line = masked[lineno - 1]
                    for pat, why, hint in self.BANNED:
                        if pat.search(line):
                            findings.append(Finding(
                                self.name, src.rel, lineno,
                                f"{why} inside hot region '{region}': "
                                f"`{src.lines[lineno - 1].strip()}` -- "
                                f"{hint}"))
        if not tree.fixture_mode:
            for rel, names in self.REQUIRED.items():
                for name in names:
                    if name not in seen.get(rel, set()):
                        findings.append(Finding(
                            self.name, rel, 0,
                            f"required hot region '{name}' is missing -- "
                            "restore the HP_HOT markers (the allocation "
                            "contract is part of the file's API)"))
        return findings


RULES: list[Rule] = [
    DeterminismRule(),
    MetricNamesRule(),
    HeaderHygieneRule(),
    HotPathPurityRule(),
]


# ---------------------------------------------------------------------------
# Self-test over golden fixtures


FIXTURE_EXPECT = re.compile(r"hp-lint-fixture:\s*expect=(\d+)")


def self_test() -> int:
    """Run each rule against tests/lint_fixtures/<rule>/: every fixture
    file declares `// hp-lint-fixture: expect=N` (findings with an empty
    allowlist); files named allowlisted_* are additionally re-run with
    themselves allowlisted and must then report zero."""
    failures = 0
    checked = 0
    for rule in RULES:
        fixture_dir = FIXTURES / rule.name.replace("-", "_")
        if not fixture_dir.is_dir():
            print(f"FAIL [{rule.name}] no fixture dir {fixture_dir}")
            failures += 1
            continue
        tree = SourceTree(fixture_dir, fixture_mode=True)
        saved_scope = rule.scope
        rule.scope = ["**/*"]
        try:
            rule.allowlist, saved_allow = {}, rule.allowlist
            try:
                findings = rule.run(tree)
            finally:
                rule.allowlist = saved_allow
            by_file: dict[str, int] = {}
            for f in findings:
                by_file[f.rel] = by_file.get(f.rel, 0) + 1
            for path in sorted(fixture_dir.rglob("*")):
                if not (path.is_file() and path.suffix in CXX_SUFFIXES):
                    continue
                rel = path.relative_to(fixture_dir).as_posix()
                m = FIXTURE_EXPECT.search(
                    path.read_text(encoding="utf-8", errors="replace"))
                if not m:
                    print(f"FAIL [{rule.name}] {rel}: missing "
                          "`hp-lint-fixture: expect=N` annotation")
                    failures += 1
                    continue
                expect = int(m.group(1))
                got = by_file.get(rel, 0)
                checked += 1
                if got != expect:
                    failures += 1
                    print(f"FAIL [{rule.name}] {rel}: expected {expect} "
                          f"finding(s), got {got}")
                    for f in findings:
                        if f.rel == rel:
                            print(f"       {f.render()}")
                elif path.name.startswith("allowlisted_"):
                    # The same violations must vanish under an allowlist
                    # entry -- proves the rule honors its allowlist.
                    rule.allowlist, saved_allow = {}, rule.allowlist
                    try:
                        waived = rule.run(
                            tree, extra_allowlist={
                                rel: "fixture: exercises the allowlist"})
                    finally:
                        rule.allowlist = saved_allow
                    leaked = [f for f in waived if f.rel == rel]
                    if leaked:
                        failures += 1
                        print(f"FAIL [{rule.name}] {rel}: allowlisted file "
                              f"still produced {len(leaked)} finding(s)")
                    else:
                        checked += 1
        finally:
            rule.scope = saved_scope
    if failures == 0:
        print(f"hp-lint self-test: {checked} fixture expectation(s) "
              f"across {len(RULES)} rules, all green")
        return 0
    print(f"hp-lint self-test: {failures} failure(s)")
    return 1


# ---------------------------------------------------------------------------
# CLI


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="hp_lint.py",
        description="project-invariant static analysis for hecate-polka")
    parser.add_argument("--all", action="store_true",
                        help="run every registered rule")
    parser.add_argument("--rule", action="append", default=[],
                        metavar="NAME", help="run one rule (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list registered rules")
    parser.add_argument("--self-test", action="store_true",
                        help="check every rule against its golden fixtures")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="tree to scan (default: the repo)")
    args = parser.parse_args(argv)

    if args.list:
        for rule in RULES:
            print(f"{rule.name:18} {rule.description}")
        return 0
    if args.self_test:
        return self_test()

    names = {r.name: r for r in RULES}
    if args.all:
        selected = list(RULES)
    elif args.rule:
        try:
            selected = [names[n] for n in args.rule]
        except KeyError as e:
            print(f"unknown rule {e}; --list shows the registry",
                  file=sys.stderr)
            return 2
    else:
        parser.print_usage(file=sys.stderr)
        return 2

    tree = SourceTree(args.root)
    findings: list[Finding] = []
    for rule in selected:
        findings += rule.run(tree)
    for f in findings:
        print(f.render())
    if findings:
        print(f"hp-lint: {len(findings)} finding(s) across "
              f"{len(selected)} rule(s)", file=sys.stderr)
        return 1
    print(f"hp-lint: clean ({len(selected)} rule(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

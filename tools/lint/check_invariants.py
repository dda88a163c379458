#!/usr/bin/env python3
"""Repo-specific invariant linter (DESIGN.md §9).

Enforces rules the generic tools (clang-tidy, TSan) cannot express because
they are about *this* repo's conventions:

  raw-io        Durable writes must go through util::WriteFileAtomic /
                util::BinaryWriter (or the obs layer's
                WriteFileAtomically). Raw std::ofstream / std::fopen
                in src/ is banned outside the files that implement those
                primitives; escape hatch: a `lint: allow-raw-io(<reason>)`
                comment on the offending line.
  fault-points  Every fault-point name introduced at a sink (FAULT_POINT,
                fault_point defaults, BinaryWriter / WriteFileAtomic string
                args) must be documented in DESIGN.md and introduced from
                exactly one file.
  metric-names  Every obs metric name literal (GetCounter / GetGauge /
                GetHistogram) in src/ or bench/ must appear in the DESIGN.md
                "Observability" section's metric table (trailing-`*` globs
                in the table are honoured, e.g. `bench_*`).
  include-guards  Headers use #ifndef INFUSERKI_<PATH>_H_ derived from the
                repo-relative path (src/ stripped; tests/ and bench/ kept).
  rng-determinism  No std RNG seeded from wall-clock state: bans
                std::random_device, srand/rand, and time()/now() appearing
                in a seeding context. Every stochastic component takes an
                explicit util::Rng seed (DESIGN.md §5).
  arch-file-map  Every `src/...` path ARCHITECTURE.md names must exist on
                disk, and its layer map must mention every immediate
                subdirectory of src/ — the doc-drift rule family from the
                metric table, applied to the architecture overview.
  batching-metrics  Every `serve/...` / `engine/...` metric literal in the
                DESIGN.md "Batched decode" section (§11) must also appear
                in the §6 Observability metric table, so the batching
                narrative cannot drift from the metric registry. Names that
                are fault points in code (e.g. `serve/prefill`) are exempt.
  overload-metrics  Every `serve/...` metric literal in the DESIGN.md
                "Overload control" section (§14) must also appear in the §6
                Observability metric table (fault points exempt), and the
                `kBrownout*` degradation-level constants must match
                bidirectionally between §14 and src/serve/admission.h —
                the brownout ladder is a documented contract, so neither
                side may drift.
  raw-mutex     Raw std::mutex / std::lock_guard / std::unique_lock /
                std::condition_variable / std::scoped_lock / shared_mutex
                in src/ is banned outside the annotated wrapper
                (util::Mutex / util::MutexLock / util::CondVar in
                src/util/mutex.h) — the Thread Safety Analysis (DESIGN.md
                §13) can only track capabilities it can see. Escape hatch:
                `lint: allow-raw-mutex(<reason>)` on the offending line.
  mutex-guards  Every util::Mutex member declared in src/ must have at
                least one GUARDED_BY / PT_GUARDED_BY / REQUIRES peer
                naming it in the same file — a lock that guards nothing
                is either dead or (worse) silently believed to guard
                something the analysis is not told about.
  lock-order    Every lock named in the DESIGN.md §13 lock table must
                exist in src/ under the same class/member names, so the
                documented lock hierarchy cannot drift from the code.
  column-limit  No line in src/, tests/, bench/ or examples/ is longer than
                .clang-format's ColumnLimit (79), counted in Unicode code
                points as clang-format counts them, so an em-dash is one
                column. The clang-format step is skipped on hosts without
                it; this rule runs wherever ctest does.

Exit status: 0 when the tree is clean, 1 when any violation is found,
2 on usage errors. Each violation prints as `file:line: [rule] message`.
"""

import argparse
import fnmatch
import re
import sys
from pathlib import Path

CODE_DIRS = ("src", "tests", "bench", "examples", "tools")
CODE_SUFFIXES = (".cc", ".cpp", ".h", ".hpp")

# Files allowed to perform raw file I/O: the atomic-write primitives
# themselves, and the durability fuzzers that corrupt files on purpose.
RAW_IO_ALLOWLIST = (
    "src/util/atomic_file.cc",
    "src/util/atomic_file.h",
    "src/obs/atomic_io.h",
)
RAW_IO_ANNOTATION = re.compile(r"lint:\s*allow-raw-io\(([^)]+)\)")
RAW_IO_PATTERN = re.compile(r"std::ofstream|std::fopen\b|\bfopen\s*\(")

FAULT_SINKS = (
    re.compile(r'FAULT_POINT\(\s*"([^"]+)"'),
    re.compile(r'fault_point\s*=\s*"([^"]+)"'),
)
# Sinks whose fault-point name is a trailing argument: capture the whole
# argument list and take its *last* string literal (the first may be a
# literal path or payload).
FAULT_TRAILING_SINKS = re.compile(
    r'BinaryWriter\s+\w+\s*\(([^;]*)\)'
    r'|WriteFileAtomic\(([^;]*)\)')
STRING_LITERAL = re.compile(r'"([^"]+)"')

METRIC_PATTERN = re.compile(r'Get(?:Counter|Gauge|Histogram)\("([^"]+)"\)')

RNG_PATTERNS = (
    (re.compile(r"std::random_device"), "std::random_device is nondeterministic"),
    (re.compile(r"\bsrand\s*\("), "srand() seeds the C RNG from ambient state"),
    (re.compile(r"(?<![\w:])rand\s*\(\s*\)"), "rand() is a hidden global RNG"),
    (
        re.compile(
            r"(?:mt19937(?:_64)?|default_random_engine|minstd_rand0?|Rng)"
            r"[^;\n]*(?:\btime\s*\(|::now\s*\()"
        ),
        "RNG seeded from wall-clock time breaks bit-exact reproducibility",
    ),
)

# The only files allowed to touch the raw standard-library primitives: the
# annotated wrapper itself (and the macro header its capability attributes
# come from).
RAW_MUTEX_ALLOWLIST = (
    "src/util/mutex.h",
    "src/util/thread_annotations.h",
)
RAW_MUTEX_ANNOTATION = re.compile(r"lint:\s*allow-raw-mutex\(([^)]+)\)")
RAW_MUTEX_PATTERN = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard"
    r"|unique_lock|scoped_lock|shared_lock|condition_variable(?:_any)?)\b")

# A util::Mutex member declaration: optional `mutable`, optional namespace
# qualification, then the capitalised wrapper type and an identifier.
# Pointer/reference declarations (e.g. the leaked LogMutex singleton) are
# deliberately not matched — they alias a mutex declared elsewhere.
MUTEX_MEMBER_PATTERN = re.compile(
    r"(?:^|[\s(])(?:mutable\s+)?(?:util::|infuserki::util::)?"
    r"Mutex\s+(\w+)\s*[;={]")

# §13 lock-table rows: `| `Class::member` | ...` — the first backticked
# token of each table row is the lock's canonical code name.
LOCK_SECTION = re.compile(
    r"^##[^\n]*Locking contracts[^\n]*\n(.*?)(?=^## |\Z)",
    re.MULTILINE | re.DOTALL)
LOCK_TABLE_ROW = re.compile(r"^\|\s*`([^`]+)`")

BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_FREE_LINE_COMMENT = re.compile(r"//[^\n]*")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text):
    """Blanks comments (preserving line structure) so rules never match doc
    text. String literals containing `//` are rare enough in this tree that
    the simple regex is acceptable; comment *markers* inside strings would
    only ever hide a violation on that same line, never invent one."""
    text = BLOCK_COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    return "\n".join(STRING_FREE_LINE_COMMENT.sub("", ln) for ln in text.split("\n"))


def iter_code_files(root, dirs):
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            # Exclude fixture trees relative to the scanned root, so the
            # fixtures themselves can be linted with --root pointing at them.
            if (path.suffix in CODE_SUFFIXES
                    and "testdata" not in path.relative_to(root).parts):
                yield path


def check_raw_io(root, violations):
    for path in iter_code_files(root, ("src",)):
        rel = path.relative_to(root).as_posix()
        if rel in RAW_IO_ALLOWLIST:
            continue
        raw_lines = path.read_text().split("\n")
        stripped = strip_comments(path.read_text()).split("\n")
        for i, line in enumerate(stripped, 1):
            if RAW_IO_PATTERN.search(line):
                annotation = RAW_IO_ANNOTATION.search(raw_lines[i - 1])
                if annotation:
                    continue
                violations.append(Violation(
                    rel, i, "raw-io",
                    "raw file write; route durable artifacts through "
                    "util::WriteFileAtomic / BinaryWriter "
                    "(or annotate: lint: allow-raw-io(<reason>))"))


def collect_fault_points(root):
    """name -> list of (file, line) introduction sites in src/."""
    sites = {}
    for path in iter_code_files(root, ("src",)):
        rel = path.relative_to(root).as_posix()
        stripped = strip_comments(path.read_text())
        for i, line in enumerate(stripped.split("\n"), 1):
            for pattern in FAULT_SINKS:
                for match in pattern.finditer(line):
                    sites.setdefault(match.group(1), []).append((rel, i))
            for match in FAULT_TRAILING_SINKS.finditer(line):
                arguments = match.group(1) or match.group(2) or ""
                literals = STRING_LITERAL.findall(arguments)
                if literals:
                    sites.setdefault(literals[-1], []).append((rel, i))
    return sites


def check_fault_points(root, design_text, violations):
    documented = set(re.findall(r"`([^`]+)`", design_text))
    for name, sites in sorted(collect_fault_points(root).items()):
        rel, line = sites[0]
        if name not in documented:
            violations.append(Violation(
                rel, line, "fault-points",
                f'fault point "{name}" is not documented in DESIGN.md '
                "(add it, backticked, to the §8 failpoint list)"))
        files = sorted({site_file for site_file, _ in sites})
        if len(files) > 1:
            violations.append(Violation(
                rel, line, "fault-points",
                f'fault point "{name}" is introduced from multiple files '
                f"({', '.join(files)}); give each site a distinct name so "
                "INFUSERKI_FAULTS targets exactly one code path"))


def observability_section(design_text):
    match = re.search(
        r"^##[^\n]*Observability[^\n]*\n(.*?)(?=^## |\Z)",
        design_text, re.MULTILINE | re.DOTALL)
    return match.group(1) if match else None


def metric_documented(name, tokens):
    """True when `name` appears in the §6 metric-table tokens, either
    verbatim or as a `prefix/` row plus a leaf entry (globs honoured)."""
    if name in tokens:
        return True
    prefix, _, leaf = name.rpartition("/")
    if not prefix:
        return False
    if prefix + "/" not in tokens:
        return False
    return any(
        tok == leaf or (tok.endswith("*") and fnmatch.fnmatch(leaf, tok))
        for tok in tokens)


def check_metric_names(root, design_text, violations):
    section = observability_section(design_text)
    tokens = set(re.findall(r"`([^`]+)`", section)) if section else set()

    def documented(name):
        return metric_documented(name, tokens)

    for path in iter_code_files(root, ("src", "bench")):
        rel = path.relative_to(root).as_posix()
        stripped = strip_comments(path.read_text())
        for i, line in enumerate(stripped.split("\n"), 1):
            for match in METRIC_PATTERN.finditer(line):
                name = match.group(1)
                if section is None:
                    violations.append(Violation(
                        rel, i, "metric-names",
                        "DESIGN.md has no '## ... Observability' section to "
                        f'document metric "{name}" against'))
                elif not documented(name):
                    violations.append(Violation(
                        rel, i, "metric-names",
                        f'metric "{name}" is missing from the DESIGN.md §6 '
                        "metric table (document it or fix the name)"))


def expected_guard(rel_path):
    parts = list(rel_path.parts)
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"\.(h|hpp)$", "", stem)
    return "INFUSERKI_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"


def check_include_guards(root, violations):
    for path in iter_code_files(root, CODE_DIRS):
        if path.suffix not in (".h", ".hpp"):
            continue
        rel = path.relative_to(root)
        want = expected_guard(rel)
        text = path.read_text()
        ifndef = re.search(r"#ifndef\s+(\S+)", text)
        define = re.search(r"#define\s+(\S+)", text)
        if not ifndef or not define:
            violations.append(Violation(
                rel.as_posix(), 1, "include-guards",
                f"missing include guard (expected {want})"))
            continue
        if ifndef.group(1) != want or define.group(1) != want:
            violations.append(Violation(
                rel.as_posix(),
                text[:ifndef.start()].count("\n") + 1,
                "include-guards",
                f"guard {ifndef.group(1)} does not match path-derived "
                f"{want}"))


def check_rng_determinism(root, violations):
    for path in iter_code_files(root, CODE_DIRS):
        rel = path.relative_to(root).as_posix()
        stripped = strip_comments(path.read_text())
        for i, line in enumerate(stripped.split("\n"), 1):
            for pattern, why in RNG_PATTERNS:
                if pattern.search(line):
                    violations.append(Violation(
                        rel, i, "rng-determinism",
                        f"{why}; take an explicit seed / util::Rng instead"))


ARCH_PATH_PATTERN = re.compile(r"`(src/[A-Za-z0-9_./-]+)`")


def check_arch_file_map(root, violations):
    """ARCHITECTURE.md is the navigational contract: every src/ path it
    backticks must exist, and the layer map must cover every immediate
    subdirectory of src/. Fixture trees without the doc are exempt (the
    real tree always carries it)."""
    arch_path = root / "ARCHITECTURE.md"
    if not arch_path.is_file():
        return
    text = arch_path.read_text()
    for i, line in enumerate(text.split("\n"), 1):
        for match in ARCH_PATH_PATTERN.finditer(line):
            named = match.group(1)
            if not (root / named.rstrip("/")).exists():
                violations.append(Violation(
                    "ARCHITECTURE.md", i, "arch-file-map",
                    f'path "{named}" does not exist in the tree '
                    "(stale doc reference; update the file map)"))
    src = root / "src"
    if src.is_dir():
        for sub in sorted(p.name for p in src.iterdir() if p.is_dir()):
            if f"src/{sub}/" not in text:
                violations.append(Violation(
                    "ARCHITECTURE.md", 1, "arch-file-map",
                    f'layer map omits "src/{sub}/" (every src/ subdirectory '
                    "must appear in ARCHITECTURE.md)"))


BATCHING_SECTION = re.compile(
    r"^##[^\n]*Batched decode[^\n]*\n(.*?)(?=^## |\Z)",
    re.MULTILINE | re.DOTALL)
BATCHING_METRIC_TOKEN = re.compile(r"^(?:serve|engine)/[A-Za-z0-9_]+$")


def check_batching_metrics(root, design_text, violations):
    match = BATCHING_SECTION.search(design_text)
    if not match:
        return
    section = observability_section(design_text)
    tokens = set(re.findall(r"`([^`]+)`", section)) if section else set()
    fault_points = set(collect_fault_points(root))
    first_line = design_text[:match.start(1)].count("\n") + 1
    for i, line in enumerate(match.group(1).split("\n"), first_line):
        for token in re.findall(r"`([^`]+)`", line):
            if not BATCHING_METRIC_TOKEN.match(token):
                continue
            if token in fault_points:
                continue
            if not metric_documented(token, tokens):
                violations.append(Violation(
                    "DESIGN.md", i, "batching-metrics",
                    f'§11 names metric "{token}" but the §6 metric table '
                    "does not document it (doc drift between the batching "
                    "narrative and the registry)"))


OVERLOAD_SECTION = re.compile(
    r"^##[^\n]*Overload control[^\n]*\n(.*?)(?=^## |\Z)",
    re.MULTILINE | re.DOTALL)
OVERLOAD_METRIC_TOKEN = re.compile(r"^serve/[A-Za-z0-9_]+$")
BROWNOUT_CONSTANT = re.compile(r"\bkBrownout\w+")
ADMISSION_HEADER = "src/serve/admission.h"


def check_overload_metrics(root, design_text, violations):
    """§14's overload narrative may only name metrics the §6 table
    documents (fault points exempt), and the brownout degradation ladder —
    the kBrownout* level constants — must agree between §14 and the code
    that defines it (src/serve/admission.h), in both directions."""
    match = OVERLOAD_SECTION.search(design_text)
    if not match:
        return
    section_text = match.group(1)
    section = observability_section(design_text)
    tokens = set(re.findall(r"`([^`]+)`", section)) if section else set()
    fault_points = set(collect_fault_points(root))
    first_line = design_text[:match.start(1)].count("\n") + 1
    for i, line in enumerate(section_text.split("\n"), first_line):
        for token in re.findall(r"`([^`]+)`", line):
            if not OVERLOAD_METRIC_TOKEN.match(token):
                continue
            if token in fault_points:
                continue
            if not metric_documented(token, tokens):
                violations.append(Violation(
                    "DESIGN.md", i, "overload-metrics",
                    f'§14 names metric "{token}" but the §6 metric table '
                    "does not document it (doc drift between the overload "
                    "narrative and the registry)"))
    admission = root / ADMISSION_HEADER
    if not admission.is_file():
        return
    code_constants = set(
        BROWNOUT_CONSTANT.findall(strip_comments(admission.read_text())))
    doc_constants = set(BROWNOUT_CONSTANT.findall(section_text))
    for name in sorted(doc_constants - code_constants):
        violations.append(Violation(
            "DESIGN.md", first_line, "overload-metrics",
            f'§14 names brownout constant "{name}" but '
            f"{ADMISSION_HEADER} defines no such constant (stale "
            "degradation ladder)"))
    for name in sorted(code_constants - doc_constants):
        violations.append(Violation(
            ADMISSION_HEADER, 1, "overload-metrics",
            f'brownout constant "{name}" is missing from the DESIGN.md §14 '
            "degradation ladder (document every level)"))


def check_raw_mutex(root, violations):
    for path in iter_code_files(root, ("src",)):
        rel = path.relative_to(root).as_posix()
        if rel in RAW_MUTEX_ALLOWLIST:
            continue
        raw_lines = path.read_text().split("\n")
        stripped = strip_comments(path.read_text()).split("\n")
        for i, line in enumerate(stripped, 1):
            if RAW_MUTEX_PATTERN.search(line):
                if RAW_MUTEX_ANNOTATION.search(raw_lines[i - 1]):
                    continue
                violations.append(Violation(
                    rel, i, "raw-mutex",
                    "raw std::mutex-family primitive; use util::Mutex / "
                    "util::MutexLock / util::CondVar (src/util/mutex.h) so "
                    "the thread-safety analysis sees the capability "
                    "(or annotate: lint: allow-raw-mutex(<reason>))"))


def check_mutex_guards(root, violations):
    """A declared util::Mutex must be referenced by at least one GUARDED_BY /
    PT_GUARDED_BY / REQUIRES annotation in the same file. EXCLUDES alone
    does not count: it says callers must not hold the lock, but never ties
    the lock to any state, which is exactly the drift this rule exists to
    catch."""
    for path in iter_code_files(root, ("src",)):
        rel = path.relative_to(root).as_posix()
        if rel in RAW_MUTEX_ALLOWLIST:
            continue
        stripped = strip_comments(path.read_text())
        for i, line in enumerate(stripped.split("\n"), 1):
            for match in MUTEX_MEMBER_PATTERN.finditer(line):
                name = match.group(1)
                peer = re.compile(
                    r"(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES)\("
                    r"[^)]*\b" + re.escape(name) + r"\b[^)]*\)")
                if not peer.search(stripped):
                    violations.append(Violation(
                        rel, i, "mutex-guards",
                        f'util::Mutex "{name}" has no GUARDED_BY / '
                        "PT_GUARDED_BY / REQUIRES peer in this file; "
                        "annotate the state it protects (DESIGN.md §13) "
                        "or delete the dead lock"))


def check_lock_order(root, design_text, violations):
    """Every lock the DESIGN.md §13 table names must exist in src/ under
    the same class/member spelling: some single file must mention both the
    class's last path component and the member as whole words. Catches
    renames that would silently orphan the documented hierarchy."""
    match = LOCK_SECTION.search(design_text)
    if not match:
        return
    file_texts = [
        strip_comments(p.read_text())
        for p in iter_code_files(root, ("src",))]
    first_line = design_text[:match.start(1)].count("\n") + 1
    for i, line in enumerate(match.group(1).split("\n"), first_line):
        row = LOCK_TABLE_ROW.match(line)
        if not row or "::" not in row.group(1):
            continue
        token = row.group(1)
        prefix, _, member = token.rpartition("::")
        cls = prefix.rpartition("::")[2]
        cls_re = re.compile(r"\b" + re.escape(cls) + r"\b")
        member_re = re.compile(r"\b" + re.escape(member) + r"\b")
        if not any(cls_re.search(t) and member_re.search(t)
                   for t in file_texts):
            violations.append(Violation(
                "DESIGN.md", i, "lock-order",
                f'§13 lock table names "{token}" but no src/ file mentions '
                f"both {cls} and {member}; the documented lock hierarchy "
                "has drifted from the code (update the table or the code)"))


# .clang-format's ColumnLimit, over the trees the clang-format step checks.
COLUMN_LIMIT = 79
FORMAT_DIRS = ("src", "tests", "bench", "examples")


def check_column_limit(root, violations):
    for path in iter_code_files(root, FORMAT_DIRS):
        rel = path.relative_to(root).as_posix()
        lines = path.read_text(encoding="utf-8").split("\n")
        for i, line in enumerate(lines, 1):
            if len(line) > COLUMN_LIMIT:
                violations.append(Violation(
                    rel, i, "column-limit",
                    f"{len(line)} columns (code points) exceed "
                    f".clang-format's ColumnLimit of {COLUMN_LIMIT}; wrap "
                    "the line"))


RULES = {
    "raw-io": lambda root, design, v: check_raw_io(root, v),
    "fault-points": check_fault_points,
    "metric-names": check_metric_names,
    "include-guards": lambda root, design, v: check_include_guards(root, v),
    "rng-determinism": lambda root, design, v: check_rng_determinism(root, v),
    "arch-file-map": lambda root, design, v: check_arch_file_map(root, v),
    "batching-metrics": check_batching_metrics,
    "overload-metrics": check_overload_metrics,
    "raw-mutex": lambda root, design, v: check_raw_mutex(root, v),
    "mutex-guards": lambda root, design, v: check_mutex_guards(root, v),
    "lock-order": check_lock_order,
    "column-limit": lambda root, design, v: check_column_limit(root, v),
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--only", action="append", choices=sorted(RULES),
                        help="run only this rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(sorted(RULES)))
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"check_invariants: no such directory: {root}", file=sys.stderr)
        return 2
    design_path = root / "DESIGN.md"
    design_text = design_path.read_text() if design_path.is_file() else ""

    violations = []
    for name in args.only or sorted(RULES):
        RULES[name](root, design_text, violations)

    for violation in violations:
        print(violation)
    if violations:
        print(f"check_invariants: {len(violations)} violation(s) in {root}",
              file=sys.stderr)
        return 1
    print(f"check_invariants: OK ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

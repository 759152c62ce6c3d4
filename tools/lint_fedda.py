#!/usr/bin/env python3
"""Repo-invariant and determinism linter for the fedda tree.

Enforces the contracts the compiler cannot see. Each rule has a stable id
(shown in brackets in every violation) so CI output and the allowlist can
name rules precisely.

Repo invariants:

  no-throw / no-try        `src/` is exception-free. The library's error
                           discipline is Status/Result + CHECK (see
                           src/core/status.h).
  header-using-namespace   No `using namespace` at namespace scope in any
                           header.
  include-guard            Include guards follow FEDDA_<PATH>_H_ and match
                           the file's path.
  test-unregistered        Every `tests/**/*_test.cc` is registered in a
                           CMakeLists.txt.
  fuzz-target-missing      Every decoder on the untrusted-bytes surface
                           (Decode*/Parse*/Deserialize*/Load*/Restore*/
                           ReadFrame declared in src/net/, fl/wire.h,
                           fl/activation.h, graph/graph_io.h,
                           tensor/checkpoint.h, core/flags.h) must be
                           exercised by a registered FEDDA_FUZZ_TARGET
                           under tests/fuzz/. New decoders ship with a
                           fuzz target or not at all (DESIGN.md §12).

Determinism rules (seeded runs must be bit-reproducible — the Table-2/3
goldens and the destination-grouped parallel kernels depend on it; no
sanitizer can catch these, only a static scan can):

  det-random-device        `std::random_device` in src/ outside src/obs/.
                           Ambient entropy breaks seeded reproducibility;
                           derive streams from core::Rng::Split().
  det-libc-rand            `rand()` / `srand()` in src/ outside src/obs/.
                           Hidden global state, not seedable per run.
  det-time-seed            RNG constructed or seeded from a clock in src/
                           outside src/obs/ (e.g. mt19937(time(nullptr))).
  det-thread-id            `std::this_thread::get_id()` in src/ outside
                           src/obs/. Thread identity varies run to run;
                           logic keyed on it diverges under a pool.
  det-unordered-iter       Range-for over a `std::unordered_map`/
                           `std::unordered_set` inside src/fl/, src/tensor/,
                           or any Save/Write/Serialize/Encode function in
                           src/. Hash-iteration order is
                           implementation-defined; accumulation or
                           serialization fed from it is not reproducible.
                           Iterate sorted keys or use an ordered container.

  simd-outside-kernels     Raw SIMD intrinsics (`_mm*`, `vaddq_f32`-style
                           NEON calls) or intrinsic headers (immintrin.h,
                           x86intrin.h, arm_neon.h) in src/ outside
                           src/tensor/kernels/. All vector code lives
                           behind the runtime dispatch layer so the scalar
                           reference, the CPUID gating, and the
                           kernel-equivalence suite stay authoritative
                           (DESIGN.md §13).

Allowlist: tools/lint_allowlist.txt suppresses a (rule, file) pair. Every
entry must carry a justification after `--`; entries without one, and
entries that no longer suppress anything, are themselves violations
(allowlist-missing-justification / allowlist-unused), so the list cannot
rot. The file is shared with tools/analyze/fedda_analyze.py: entries whose
rule id starts with `az-` belong to the AST analyzer — this linter checks
their format but leaves suppression/unused accounting to that tool. One
cross-tool dedup rule: an `az-unordered-iter <path>` entry also suppresses
this linter's regex `det-unordered-iter` findings for the same path, so a
justified unordered iteration needs exactly one allowlist line, not two.

Surface inventory: the untrusted-bytes entry points the fuzz-target rule
scans are exported with --emit-surface as JSON so fedda_analyze.py seeds
its call-graph walk from the same inventory (one source of truth). The
inventory has two tiers: kind "decoder" (name matches the decoder naming
convention; held to fuzz-target-missing) and kind "byte-entry" (a
Status/Result-returning function taking `const std::vector<uint8_t>&` —
a fallible byte consumer that is walk-seeded by the analyzer but not
itself required to have a fuzz target, e.g. RemoteClient::ServeRound).

Exit code 0 when clean, 1 with one line per violation otherwise.

Usage: tools/lint_fedda.py [repo_root] [--emit-surface PATH|-]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

THROW_RE = re.compile(r"\bthrow\b")
TRY_RE = re.compile(r"\btry\s*\{")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")

RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")
LIBC_RAND_RE = re.compile(r"\b(?:std\s*::\s*)?s?rand\s*\(")
THREAD_ID_RE = re.compile(r"\bthis_thread\s*::\s*get_id\s*\(")
# An RNG being constructed (`mt19937 gen(...)`, `Rng(...)`) or (re)seeded...
RNG_SINK_RE = re.compile(
    r"\b(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux\w*|knuth_b|Rng)\b[^;()]*\(|\.\s*seed\s*\(")
# ...from a wall/steady clock or the C time API on the same line.
TIME_SOURCE_RE = re.compile(
    r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)|\bclock\s*\(\s*\)|"
    r"::\s*now\s*\(\s*\)")

# A function whose name marks a serialization path: unordered iteration
# inside it feeds bytes that golden files compare.
SERIAL_FN_RE = re.compile(r"\b(?:Save|Write|Serialize|Encode)\w*\s*\(")

# Raw vector intrinsics: x86 `_mm_*`/`_mm256_*`/`_mm512_*` calls, NEON
# `v*q_f32`-style calls, or including an intrinsic header directly.
SIMD_DIR = "src/tensor/kernels/"
SIMD_INTRINSIC_RE = re.compile(
    r"\b_mm\d{0,3}_\w+\s*\(|\bv(?:add|sub|mul|mla|fma|ld1|st1|dup|max|min|"
    r"ceq|cgt|cge|bsl)\w*_(?:f|s|u)\d+\w*\s*\(")
SIMD_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"](?:immintrin|x86intrin|xmmintrin|emmintrin|'
    r'smmintrin|avxintrin|arm_neon)\.h[>"]')

RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(.*?:\s*[&*]?([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)\s*\)")

# The untrusted-bytes surface: directories / headers whose decoder
# declarations the fuzz-target-missing rule inventories. A new parser
# added here (or a new file in src/net/) is held to "fuzzed or flagged".
FUZZ_SURFACE = (
    "src/net",
    "src/fl/wire.h",
    "src/fl/activation.h",
    "src/graph/graph_io.h",
    "src/tensor/checkpoint.h",
    "src/core/flags.h",
)
# A declaration is a decoder when its name says it turns foreign bytes
# into structure. ReadFrame is grandfathered by exact name (the framing
# entry point predates the naming convention).
DECODER_RE = re.compile(
    r"\b((?:Decode|Parse|Deserialize|Load|Restore)[A-Za-z0-9_]*|ReadFrame)"
    r"\s*\(")
# The second surface tier: a fallible byte consumer — a Status/Result
# returning function taking `const std::vector<uint8_t>&`. These take
# foreign bytes without carrying a decoder name (RemoteClient::ServeRound
# is the canonical case), so the analyzer must seed its walk from them;
# they are NOT held to fuzz-target-missing (the decoders they call are).
BYTE_ENTRY_RE = re.compile(
    r"\b(?:core\s*::\s*)?(?:Status|Result\s*<[^;{}]{0,80}>)\s+"
    r"([A-Za-z_]\w*)\s*\([^;{}()]*?const\s+(?:std\s*::\s*)?vector\s*<\s*"
    r"uint8_t\s*>\s*&",
    re.DOTALL)
FUZZ_TARGET_MACRO = "FEDDA_FUZZ_TARGET"
FUZZ_REGISTER_RE = re.compile(r"fedda_add_fuzz_target\(\s*(\w+)\s*\)")

ALLOWLIST_NAME = Path("tools") / "lint_allowlist.txt"


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path      # repo-relative, posix separators
        self.line = line      # 1-based; 0 = whole file
        self.rule = rule
        self.message = message

    def render(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks out //, /* */ comments and string/char literals, preserving
    line structure so reported line numbers stay valid."""
    out = []
    i = 0
    n = len(text)
    mode = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode is None:
            if c == "/" and nxt == "/":
                mode = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "str"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif mode == "line":
            if c == "\n":
                mode = None
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block":
            if c == "*" and nxt == "/":
                mode = None
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif mode in ("str", "chr"):
            quote = '"' if mode == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                mode = None
            out.append(" " if c != "\n" else "\n")
        i += 1
    return "".join(out)


def expected_guard(root: Path, path: Path) -> str:
    rel = path.relative_to(root)
    parts = list(rel.parts)
    # Headers under src/ drop the src/ prefix (they are included as
    # "core/status.h"); bench/ and tests/ keep their directory.
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"[^A-Za-z0-9]", "_", stem).upper()
    return f"FEDDA_{stem}_"


def src_files(root: Path):
    base = root / "src"
    if not base.is_dir():
        return
    for path in sorted(base.rglob("*")):
        if path.suffix in (".h", ".cc"):
            yield path


def rel_posix(root: Path, path: Path) -> str:
    return path.relative_to(root).as_posix()


def in_obs(root: Path, path: Path) -> bool:
    return rel_posix(root, path).startswith("src/obs/")


def check_exception_free(root: Path, errors: list[Violation]) -> None:
    for path in src_files(root):
        clean = strip_comments_and_strings(path.read_text())
        rel = rel_posix(root, path)
        for lineno, line in enumerate(clean.splitlines(), 1):
            if THROW_RE.search(line):
                errors.append(Violation(
                    rel, lineno, "no-throw",
                    "`throw` in src/ — the library is exception-free; "
                    "return a Status instead"))
            if TRY_RE.search(line):
                errors.append(Violation(
                    rel, lineno, "no-try",
                    "`try` block in src/ — the library is exception-free; "
                    "nothing here throws"))


def check_headers(root: Path, errors: list[Violation]) -> None:
    header_dirs = [root / "src", root / "bench", root / "tests"]
    for base in header_dirs:
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.h")):
            text = path.read_text()
            clean = strip_comments_and_strings(text)
            rel = rel_posix(root, path)
            for lineno, line in enumerate(clean.splitlines(), 1):
                if USING_NAMESPACE_RE.search(line):
                    errors.append(Violation(
                        rel, lineno, "header-using-namespace",
                        "`using namespace` in a header leaks into every "
                        "includer; qualify names instead"))
            guard = expected_guard(root, path)
            ifndef = re.search(r"#ifndef\s+(\S+)", text)
            define = re.search(r"#define\s+(\S+)", text)
            endif_ok = re.search(r"#endif\s*//\s*" + re.escape(guard), text)
            if not ifndef or ifndef.group(1) != guard:
                got = ifndef.group(1) if ifndef else "<none>"
                errors.append(Violation(
                    rel, 1, "include-guard",
                    f"include guard must be {guard} (got {got})"))
            elif not define or define.group(1) != guard:
                errors.append(Violation(
                    rel, 2, "include-guard",
                    f"#define must repeat the guard {guard}"))
            elif not endif_ok:
                errors.append(Violation(
                    rel, 0, "include-guard",
                    f"closing #endif must carry `// {guard}`"))


def check_tests_registered(root: Path, errors: list[Violation]) -> None:
    tests = root / "tests"
    if not tests.is_dir():
        return
    cmake_text = "\n".join(
        p.read_text() for p in tests.rglob("CMakeLists.txt"))
    for path in sorted(tests.rglob("*_test.cc")):
        rel_to_tests = path.relative_to(tests).as_posix()
        if rel_to_tests not in cmake_text:
            errors.append(Violation(
                rel_posix(root, path), 0, "test-unregistered",
                "not registered in any tests/**/CMakeLists.txt — the file "
                "is never compiled"))


def surface_files(root: Path) -> list[Path]:
    surface: list[Path] = []
    for entry in FUZZ_SURFACE:
        path = root / entry
        if path.is_dir():
            surface.extend(sorted(path.rglob("*.h")))
        elif path.is_file():
            surface.append(path)
    return surface


def surface_inventory(root: Path) -> list[dict]:
    """The untrusted-bytes entry-point inventory: every decoder-named
    declaration on the FUZZ_SURFACE headers (kind "decoder") plus every
    Status/Result-returning function taking a const byte span (kind
    "byte-entry"). One entry per (header, name); a name matching both
    tiers is a decoder. This is the single source of truth shared by the
    fuzz-target-missing rule and fedda_analyze.py's trust-boundary walk
    (--emit-surface serializes it)."""
    entries: list[dict] = []
    for header in surface_files(root):
        clean = strip_comments_and_strings(header.read_text())
        rel = rel_posix(root, header)
        seen: dict[str, dict] = {}
        for lineno, line in enumerate(clean.splitlines(), 1):
            for match in DECODER_RE.finditer(line):
                name = match.group(1)
                if name not in seen:
                    seen[name] = {"name": name, "file": rel,
                                  "line": lineno, "kind": "decoder"}
        for match in BYTE_ENTRY_RE.finditer(clean):
            name = match.group(1)
            if name not in seen:
                lineno = clean.count("\n", 0, match.start(1)) + 1
                seen[name] = {"name": name, "file": rel,
                              "line": lineno, "kind": "byte-entry"}
        entries.extend(seen[name] for name in sorted(seen))
    return entries


def check_fuzz_targets(root: Path, errors: list[Violation]) -> None:
    """fuzz-target-missing: every decoder declared on the untrusted-bytes
    surface must be named in a fuzz-target source that is (a) a
    FEDDA_FUZZ_TARGET and (b) registered via fedda_add_fuzz_target in
    tests/fuzz/CMakeLists.txt. Unregistered target sources are flagged too
    — an unbuilt fuzz target is indistinguishable from no fuzz target."""
    fuzz_dir = root / "tests" / "fuzz"
    cmake = fuzz_dir / "CMakeLists.txt"
    cmake_text = cmake.read_text() if cmake.is_file() else ""
    registered = set(FUZZ_REGISTER_RE.findall(cmake_text))
    covered_text = []
    if fuzz_dir.is_dir():
        for path in sorted(fuzz_dir.glob("*.cc")):
            clean = strip_comments_and_strings(path.read_text())
            if FUZZ_TARGET_MACRO + "(" not in clean:
                continue
            name = path.stem
            name = name[len("fuzz_"):] if name.startswith("fuzz_") else name
            if name not in registered:
                errors.append(Violation(
                    rel_posix(root, path), 0, "fuzz-target-missing",
                    f"fuzz target source is not registered — add "
                    f"fedda_add_fuzz_target({name}) to "
                    "tests/fuzz/CMakeLists.txt; an unbuilt target fuzzes "
                    "nothing"))
                continue
            covered_text.append(clean)
    fuzz_text = "\n".join(covered_text)

    for entry in surface_inventory(root):
        if entry["kind"] != "decoder":
            continue
        name = entry["name"]
        if re.search(rf"\b{re.escape(name)}\b", fuzz_text):
            continue
        errors.append(Violation(
            entry["file"], entry["line"], "fuzz-target-missing",
            f"decoder `{name}` is on the untrusted-bytes surface "
            "but no registered FEDDA_FUZZ_TARGET under tests/fuzz/ "
            "exercises it; every byte parser ships with a fuzz "
            "target (DESIGN.md §12)"))


def check_ambient_entropy(root: Path, errors: list[Violation]) -> None:
    """det-random-device / det-libc-rand / det-time-seed / det-thread-id:
    ambient nondeterminism sources, banned in src/ outside src/obs/ (the
    observability layer may hash thread ids and read clocks — it never
    feeds numerics)."""
    for path in src_files(root):
        if in_obs(root, path):
            continue
        clean = strip_comments_and_strings(path.read_text())
        rel = rel_posix(root, path)
        for lineno, line in enumerate(clean.splitlines(), 1):
            if RANDOM_DEVICE_RE.search(line):
                errors.append(Violation(
                    rel, lineno, "det-random-device",
                    "std::random_device draws ambient entropy; seeded runs "
                    "must derive streams from core::Rng::Split()"))
            if LIBC_RAND_RE.search(line):
                errors.append(Violation(
                    rel, lineno, "det-libc-rand",
                    "rand()/srand() use hidden global state; use core::Rng"))
            if THREAD_ID_RE.search(line):
                errors.append(Violation(
                    rel, lineno, "det-thread-id",
                    "std::this_thread::get_id() varies run to run; logic "
                    "keyed on thread identity diverges under a pool"))
            if RNG_SINK_RE.search(line) and TIME_SOURCE_RE.search(line):
                errors.append(Violation(
                    rel, lineno, "det-time-seed",
                    "RNG seeded from a clock; take the seed from options "
                    "so runs are reproducible"))


def unordered_container_names(clean: str) -> set[str]:
    """Identifiers declared in this file with std::unordered_map/set type.
    Angle brackets are matched by depth so nested template args don't
    confuse the scan."""
    names: set[str] = set()
    for match in re.finditer(r"\bunordered_(?:map|set)\s*<", clean):
        depth = 1
        i = match.end()
        while i < len(clean) and depth > 0:
            if clean[i] == "<":
                depth += 1
            elif clean[i] == ">":
                depth -= 1
            i += 1
        ident = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(,)]", clean[i:])
        if ident:
            names.add(ident.group(1))
    return names


def serialization_spans(clean: str) -> list[tuple[int, int]]:
    """(start_line, end_line) 1-based inclusive spans of function bodies
    whose name matches Save/Write/Serialize/Encode. Declarations (`;`
    before `{`) are skipped."""
    spans: list[tuple[int, int]] = []
    for match in SERIAL_FN_RE.finditer(clean):
        i = match.end() - 1  # at the '('
        depth = 0
        # Walk past the parameter list.
        while i < len(clean):
            if clean[i] == "(":
                depth += 1
            elif clean[i] == ")":
                depth -= 1
                if depth == 0:
                    i += 1
                    break
            i += 1
        # A body must open before any ';' (otherwise it's a declaration or
        # a plain call).
        while i < len(clean) and clean[i] not in ";{":
            i += 1
        if i >= len(clean) or clean[i] == ";":
            continue
        start_line = clean.count("\n", 0, i) + 1
        depth = 0
        while i < len(clean):
            if clean[i] == "{":
                depth += 1
            elif clean[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        end_line = clean.count("\n", 0, i) + 1
        spans.append((start_line, end_line))
    return spans


def check_simd_scope(root: Path, errors: list[Violation]) -> None:
    """simd-outside-kernels: raw vector intrinsics are confined to
    src/tensor/kernels/, the one layer with a scalar reference, CPUID
    gating, and bit-exactness tests. Comments and strings are stripped
    first, so *mentioning* an intrinsic is fine; calling one is not."""
    for path in src_files(root):
        rel = rel_posix(root, path)
        if rel.startswith(SIMD_DIR):
            continue
        clean = strip_comments_and_strings(path.read_text())
        for lineno, line in enumerate(clean.splitlines(), 1):
            if SIMD_INTRINSIC_RE.search(line):
                errors.append(Violation(
                    rel, lineno, "simd-outside-kernels",
                    "raw SIMD intrinsic outside src/tensor/kernels/ — "
                    "vector code must go through the dispatched kernel "
                    "layer so the scalar path and equivalence tests stay "
                    "authoritative (DESIGN.md §13)"))
            if SIMD_INCLUDE_RE.search(line):
                errors.append(Violation(
                    rel, lineno, "simd-outside-kernels",
                    "intrinsic header included outside src/tensor/kernels/ "
                    "— only the kernel layer may use vector intrinsics "
                    "(DESIGN.md §13)"))


def check_unordered_iteration(root: Path, errors: list[Violation]) -> None:
    """det-unordered-iter: range-for over an unordered container where the
    iteration order can reach numerics or serialized bytes."""
    for path in src_files(root):
        rel = rel_posix(root, path)
        always_scoped = rel.startswith("src/fl/") or rel.startswith(
            "src/tensor/")
        clean = strip_comments_and_strings(path.read_text())
        names = unordered_container_names(clean)
        if not names:
            continue
        spans = None if always_scoped else serialization_spans(clean)
        for lineno, line in enumerate(clean.splitlines(), 1):
            for loop in RANGE_FOR_RE.finditer(line):
                leaf = re.split(r"\.|->", loop.group(1))[-1]
                if leaf not in names:
                    continue
                if not always_scoped and not any(
                        lo <= lineno <= hi for lo, hi in spans):
                    continue
                errors.append(Violation(
                    rel, lineno, "det-unordered-iter",
                    f"range-for over unordered container `{leaf}` — "
                    "hash-iteration order is implementation-defined; "
                    "iterate sorted keys or use an ordered container"))


def apply_allowlist(root: Path, allowlist: Path,
                    errors: list[Violation]) -> list[Violation]:
    """Filters out violations covered by allowlist entries. Entry format:
    `<rule-id> <path> -- <justification>`; `#` starts a comment. Entries
    missing a justification or matching nothing become violations."""
    allow_rel = allowlist.relative_to(root).as_posix() \
        if allowlist.is_relative_to(root) else str(allowlist)
    entries: dict[tuple[str, str], int] = {}  # (rule, path) -> lineno
    kept: list[Violation] = []
    if allowlist.is_file():
        for lineno, raw in enumerate(allowlist.read_text().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, justification = line.partition("--")
            fields = head.split()
            if len(fields) != 2 or not sep or not justification.strip():
                kept.append(Violation(
                    allow_rel, lineno, "allowlist-missing-justification",
                    "allowlist entries are `<rule-id> <path> -- <why>`; "
                    "the justification is not optional"))
                continue
            entries[(fields[0], fields[1])] = lineno
    used: set[tuple[str, str]] = set()
    for violation in errors:
        key = (violation.rule, violation.path)
        ast_key = ("az-unordered-iter", violation.path)
        if key in entries:
            used.add(key)
        elif violation.rule == "det-unordered-iter" and ast_key in entries:
            # Cross-tool dedup: the AST analyzer's az-unordered-iter entry
            # covers the regex finding for the same path, so one justified
            # allowlist line silences both tools.
            used.add(ast_key)
        else:
            kept.append(violation)
    for key, lineno in entries.items():
        if key in used:
            continue
        if key[0].startswith("az-"):
            # Analyzer-owned entry: fedda_analyze.py does the unused
            # accounting for its own namespace (this linter cannot know
            # what the AST checks match).
            continue
        kept.append(Violation(
            allow_rel, lineno, "allowlist-unused",
            f"entry ({key[0]}, {key[1]}) suppresses nothing; "
            "delete it so the allowlist cannot rot"))
    return kept


def run(root: Path, allowlist: Path | None = None) -> list[str]:
    """Runs every rule over `root`; returns rendered violations."""
    errors: list[Violation] = []
    check_exception_free(root, errors)
    check_headers(root, errors)
    check_tests_registered(root, errors)
    check_fuzz_targets(root, errors)
    check_ambient_entropy(root, errors)
    check_simd_scope(root, errors)
    check_unordered_iteration(root, errors)
    if allowlist is None:
        allowlist = root / ALLOWLIST_NAME
    errors = apply_allowlist(root, allowlist, errors)
    errors.sort(key=lambda v: (v.path, v.line, v.rule))
    return [v.render() for v in errors]


def main() -> int:
    parser = argparse.ArgumentParser(
        description="fedda repo-invariant and determinism linter")
    parser.add_argument(
        "root", nargs="?",
        default=str(Path(__file__).resolve().parent.parent),
        help="repo root (default: the tree containing this script)")
    parser.add_argument(
        "--emit-surface", metavar="PATH",
        help="write the untrusted-bytes entry-point inventory as JSON to "
             "PATH ('-' for stdout) and exit without linting")
    args = parser.parse_args()
    root = Path(args.root)
    if args.emit_surface:
        payload = json.dumps(surface_inventory(root), indent=2) + "\n"
        if args.emit_surface == "-":
            sys.stdout.write(payload)
        else:
            Path(args.emit_surface).write_text(payload)
        return 0
    errors = run(root)
    for err in errors:
        print(err)
    if errors:
        print(f"lint_fedda: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("lint_fedda: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

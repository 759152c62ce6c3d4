#!/usr/bin/env python3
"""AST-level static analyzer for the fedda tree (libclang over
compile_commands.json).

PR 5's regex lint enforces what a line can show; this tool enforces what
only the AST and the call graph can show. It parses every TU named in
compile_commands.json with libclang, distills each function into a small
JSON fact record (the IR), and runs pure-Python checks over the whole
program. The two layers are deliberately separable: extraction needs
libclang (CI has it; dev boxes may not — the tool then skips with a
notice), while the checks and their unit tests run anywhere.

Checks (rule ids carry the `az-` prefix so the shared
tools/lint_allowlist.txt can tell analyzer entries from lint entries):

  az-tb-abort        A FEDDA_CHECK*/CHECK-family abort (or abort()/exit())
                     reachable from the untrusted-bytes entry points that
                     lint_fedda.py inventories (Decode*/Parse*/Deserialize*/
                     Load*/Restore*/ReadFrame plus Status-returning byte
                     consumers like RemoteClient::ServeRound). A remote
                     peer or corrupt file must never abort the process;
                     decoders fail with a Status (DESIGN.md §12/§14).
  az-tb-alloc        An allocation (resize/reserve/new[]/reader block read)
                     in a trust-boundary-reachable function whose size
                     comes from a wire read with no intervening branch on
                     that value. core::ByteReader block reads validate
                     counts against remaining() internally and are exempt.
  az-lock-cycle      A cycle in the global lock-order graph built from
                     core::MutexLock scopes and Mutex::Lock calls,
                     intra- and interprocedurally (Clang thread-safety
                     proves *which* lock, not *in what order*).
  az-unordered-iter  Range-for over a std::unordered_map/set where the
                     iteration order can reach numerics or serialized bytes
                     (src/fl/, src/tensor/, or any Save/Write/Serialize/
                     Encode function). AST-level successor of lint's regex
                     det-unordered-iter: it sees through typedefs, members,
                     and function returns the regex cannot.
  az-fp-contract     A contractible float expression (a*b+c shape) in a
                     src/tensor/kernels/ TU compiled without
                     -ffp-contract=off. Contraction to FMA silently breaks
                     the scalar<->SIMD bit-exactness contract
                     (DESIGN.md §13).
  az-status-ignored  A core::Status/Result local initialized but never read
                     again — [[nodiscard]] cannot see a value that *was*
                     assigned; this check can.

Trust-boundary walk policy: the BFS starts at the shared surface inventory
(lint_fedda.py --emit-surface) and only descends into callees defined in
"boundary modules" — src/net/ plus the .h/.cc pairs of every surface
header plus src/core/binary_io. Past that line (e.g. Client::Update) input
is the process's own validated state; walking further would indict the
whole training stack for CHECKs that guard programmer errors, not bytes.

Suppression: tools/lint_allowlist.txt entries `az-<rule> <path> -- <why>`.
This tool owns the az- namespace: it enforces the justification and flags
unused az- entries; lint_fedda.py does the same for its own rules and
additionally lets an az-unordered-iter entry cover its regex twin.

Usage:
  fedda_analyze.py [--root DIR] [--compdb PATH] [--surface PATH]
                   [--allowlist PATH] [--json OUT] [--emit-ir OUT]
                   [--from-ir PATH] [--scope PREFIX] [--require]

Exit codes: 0 clean (or libclang absent without --require), 1 findings,
2 cannot run and --require was given.
"""

from __future__ import annotations

import argparse
import glob
import json
import re
import shlex
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import lint_fedda  # noqa: E402  (shared surface inventory + allowlist path)

ABORT_MACRO_RE = re.compile(r"^(FEDDA_)?D?CHECK(_[A-Z0-9_]+)?$")
ABORT_CALLS = {"abort", "exit", "_Exit", "quick_exit", "terminate"}
READ_CALL_RE = re.compile(r"^Read[A-Z]\w*$|^Read$")
BLOCK_READS = {"ReadBytes", "ReadFloats", "ReadString"}
SAFE_READER_RE = re.compile(r"\bByteReader\b")
STATUS_TYPE_RE = re.compile(r"(?:^|::)(?:Status|Result<)")
SERIAL_FN_RE = re.compile(r"^(?:Save|Write|Serialize|Encode)")
FLOAT_TYPES = {"float", "double", "long double"}
KERNEL_PATH_MARK = ("src/tensor/kernels/", "/kernels/")
EXTRA_BOUNDARY_STEMS = ("src/core/binary_io",)

RULE_IDS = ("az-tb-abort", "az-tb-alloc", "az-lock-cycle",
            "az-unordered-iter", "az-fp-contract", "az-status-ignored")


class Finding:
    def __init__(self, rule: str, path: str, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def render(self) -> str:
        where = f"{self.path}:{self.line}" if self.line else self.path
        return f"{where}: [{self.rule}] {self.message}"

    def as_json(self) -> dict:
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}


# -- libclang loading -------------------------------------------------------

def load_cindex():
    """Returns (cindex module, None) or (None, reason). Retries the load
    against distro library paths because Debian/Ubuntu ship libclang as
    libclang-<ver>.so without the unversioned symlink the bindings probe."""
    try:
        from clang import cindex  # type: ignore
    except ImportError as exc:
        return None, f"python clang bindings unavailable ({exc})"
    try:
        cindex.Index.create()
        return cindex, None
    except Exception:
        pass
    candidates = (
        sorted(glob.glob("/usr/lib/llvm-*/lib/libclang-*.so*"), reverse=True)
        + sorted(glob.glob("/usr/lib/llvm-*/lib/libclang.so*"), reverse=True)
        + sorted(glob.glob("/usr/lib/*/libclang-*.so*"), reverse=True))
    for candidate in candidates:
        try:
            cindex.Config.set_library_file(candidate)
            cindex.Index.create()
            return cindex, None
        except Exception:
            continue
    return None, "libclang shared library not found"


# -- extraction: libclang -> JSON IR ---------------------------------------

def compile_units(compdb_path: Path, root: Path, scope: str) -> list[dict]:
    """compile_commands.json entries filtered to `scope` under `root`,
    normalized to {file (absolute), args, fp_contract_off}."""
    units = []
    for entry in json.loads(compdb_path.read_text()):
        directory = Path(entry.get("directory", "."))
        resolved = (directory / entry["file"]).resolve()
        try:
            rel = resolved.relative_to(root).as_posix()
        except ValueError:
            continue
        if scope and not rel.startswith(scope):
            continue
        if "arguments" in entry:
            argv = list(entry["arguments"])
        else:
            argv = shlex.split(entry["command"])
        args = []
        skip_next = False
        for token in argv[1:]:
            if skip_next:
                skip_next = False
                continue
            if token == "-c":
                continue
            if token == "-o":
                skip_next = True
                continue
            if not token.startswith("-") and \
                    (directory / token).resolve() == resolved:
                continue
            args.append(token)
        args += ["-working-directory", str(directory)]
        units.append({"file": str(resolved), "args": args,
                      "fp_contract_off": "-ffp-contract=off" in args})
    return units


class Extractor:
    """One pass of libclang over every TU, distilling per-function facts.

    Known approximations (DESIGN.md §14 documents them for readers of
    findings): lambdas are attributed to their enclosing function; a
    Mutex::Lock() call is treated as held to the end of its scope; taint
    is intra-procedural (a count passed as a parameter is the callee's
    caller's problem); `std::vector<T> v(n)` constructor sizing is not a
    recognized sink; member locks are identified per-field, not
    per-instance."""

    FN_KIND_NAMES = ("FUNCTION_DECL", "CXX_METHOD", "CONSTRUCTOR",
                     "DESTRUCTOR", "CONVERSION_FUNCTION",
                     "FUNCTION_TEMPLATE")
    SCOPE_KIND_NAMES = ("NAMESPACE", "CLASS_DECL", "STRUCT_DECL",
                        "CLASS_TEMPLATE",
                        "CLASS_TEMPLATE_PARTIAL_SPECIALIZATION",
                        "UNEXPOSED_DECL", "LINKAGE_SPEC")

    def __init__(self, cindex, root: Path):
        self.cindex = cindex
        self.root = root
        self.ck = cindex.CursorKind
        self.fn_kinds = {getattr(self.ck, n) for n in self.FN_KIND_NAMES}
        self.scope_kinds = {getattr(self.ck, n)
                            for n in self.SCOPE_KIND_NAMES}
        self.functions: dict[str, dict] = {}
        self.tus: dict[str, dict] = {}
        self.macros: set[tuple[str, int, str]] = set()
        self.errors: list[str] = []

    def rel(self, path: str) -> str | None:
        try:
            return Path(path).resolve().relative_to(self.root).as_posix()
        except ValueError:
            return None

    def run(self, units: list[dict]) -> dict:
        index = self.cindex.Index.create()
        options = self.cindex.TranslationUnit.\
            PARSE_DETAILED_PROCESSING_RECORD
        for unit in units:
            try:
                tu = index.parse(unit["file"], args=unit["args"],
                                 options=options)
            except Exception as exc:
                self.errors.append(f"{unit['file']}: parse failed ({exc})")
                continue
            fatal = [d for d in tu.diagnostics if d.severity >= 4]
            if fatal:
                self.errors.append(
                    f"{unit['file']}: {fatal[0].spelling}")
            main_rel = self.rel(unit["file"]) or unit["file"]
            self.tus[main_rel] = {
                "fp_contract_off": unit["fp_contract_off"]}
            self.harvest_tu(tu, main_rel)
        self.attach_macros()
        return {"tus": self.tus,
                "functions": sorted(self.functions.values(),
                                    key=lambda f: (f["file"], f["line"]))}

    def harvest_tu(self, tu, main_rel: str) -> None:
        for cursor in tu.cursor.get_children():
            self.visit_decl(cursor, main_rel)

    def visit_decl(self, cursor, main_rel: str) -> None:
        loc = cursor.location
        if loc.file is None or self.rel(loc.file.name) is None:
            return
        kind = cursor.kind
        if kind == self.ck.MACRO_INSTANTIATION:
            name = cursor.spelling
            if ABORT_MACRO_RE.match(name):
                self.macros.add(
                    (self.rel(loc.file.name), loc.line, name))
            return
        if kind in self.scope_kinds:
            for child in cursor.get_children():
                self.visit_decl(child, main_rel)
            return
        if kind in self.fn_kinds and cursor.is_definition():
            self.harvest_function(cursor, main_rel)

    def qualified(self, cursor) -> str:
        parts = []
        node = cursor
        while node is not None and \
                node.kind != self.ck.TRANSLATION_UNIT:
            if node.spelling:
                parts.append(node.spelling)
            node = node.semantic_parent
        return "::".join(reversed(parts))

    def harvest_function(self, cursor, main_rel: str) -> None:
        usr = cursor.get_usr()
        if not usr or usr in self.functions:
            return
        file_rel = self.rel(cursor.location.file.name)
        if file_rel is None:
            return
        display = self.qualified(cursor)
        # The locking primitives themselves (core::Mutex/MutexLock and the
        # fixture minis) must not contribute lock facts: their internal
        # mu_->Lock() would alias every caller's lock to one node and
        # fabricate cycles.
        parent = cursor.semantic_parent
        primitive = parent is not None and parent.spelling in (
            "Mutex", "MutexLock", "CondVar")
        fact = {
            "usr": usr, "name": cursor.spelling, "display": display,
            "file": file_rel, "tu": main_rel,
            "line": cursor.extent.start.line,
            "end_line": cursor.extent.end.line,
            "calls": [], "aborts": [], "locks": [], "lock_pairs": [],
            "allocs": [], "taints": {}, "guards": [],
            "unordered_fors": [], "contractions": [], "status_vars": [],
        }
        refs: list[int] = []
        status_decls: list[tuple[int, dict]] = []
        self.scan(cursor, fact, [], refs, status_decls, primitive)
        counts: dict[int, int] = defaultdict(int)
        for h in refs:
            counts[h] += 1
        for decl_hash, var in status_decls:
            var["uses"] = counts.get(decl_hash, 0)
            fact["status_vars"].append(var)
        self.functions[usr] = fact

    # -- body scan ----------------------------------------------------

    def scan(self, node, fact, active, refs, status_decls,
             primitive) -> None:
        ck = self.ck
        for child in node.get_children():
            kind = child.kind
            if kind == ck.COMPOUND_STMT:
                self.scan(child, fact, list(active), refs, status_decls,
                          primitive)
            elif kind == ck.DECL_STMT:
                self.scan(child, fact, active, refs, status_decls,
                          primitive)
            elif kind == ck.VAR_DECL:
                self.var_decl(child, fact, active, status_decls,
                              primitive)
                self.scan(child, fact, active, refs, status_decls,
                          primitive)
            elif kind == ck.IF_STMT:
                self.guard(child, fact)
                self.scan(child, fact, list(active), refs, status_decls,
                          primitive)
            elif kind == ck.CXX_FOR_RANGE_STMT:
                self.range_for(child, fact)
                self.scan(child, fact, list(active), refs, status_decls,
                          primitive)
            elif kind == ck.CALL_EXPR:
                self.call(child, fact, active, primitive)
                self.scan(child, fact, active, refs, status_decls,
                          primitive)
            elif kind == ck.CXX_NEW_EXPR:
                self.new_expr(child, fact)
                self.scan(child, fact, active, refs, status_decls,
                          primitive)
            elif kind in (ck.BINARY_OPERATOR,
                          ck.COMPOUND_ASSIGNMENT_OPERATOR):
                self.binop(child, fact, kind)
                self.scan(child, fact, active, refs, status_decls,
                          primitive)
            elif kind == ck.DECL_REF_EXPR:
                if child.referenced is not None:
                    refs.append(child.referenced.hash)
                self.scan(child, fact, active, refs, status_decls,
                          primitive)
            else:
                self.scan(child, fact, active, refs, status_decls,
                          primitive)

    def canonical_type(self, cursor) -> str:
        try:
            return cursor.type.get_canonical().spelling
        except Exception:
            return ""

    def tokens(self, cursor) -> list:
        try:
            return list(cursor.get_tokens())
        except Exception:
            return []

    def token_paths(self, cursor) -> list[str]:
        """Dotted member paths in an expression, from its token stream
        ("entry . size" / "e->size" -> "entry.size"); `this->` is
        stripped so member taints match their uses."""
        spellings = [t.spelling for t in self.tokens(cursor)]
        paths: set[str] = set()
        current = None
        i = 0
        while i < len(spellings):
            tok = spellings[i]
            if re.match(r"[A-Za-z_]\w*$", tok):
                current = tok if current is None else current + "." + tok
                if i + 1 < len(spellings) and \
                        spellings[i + 1] in (".", "->"):
                    i += 2
                    continue
                if current.startswith("this."):
                    current = current[len("this."):]
                if current:
                    paths.add(current)
                current = None
            i += 1
        return sorted(paths)

    def has_read_call(self, cursor) -> bool:
        if cursor.kind == self.ck.CALL_EXPR and \
                READ_CALL_RE.match(cursor.spelling or ""):
            return True
        return any(self.has_read_call(c) for c in cursor.get_children())

    def op_spelling(self, cursor) -> str | None:
        """Operator token of a binary/compound-assignment expression:
        the punctuation between the operand extents (the clang-14
        bindings expose no opcode)."""
        kids = list(cursor.get_children())
        if len(kids) != 2:
            return None
        lhs_end = kids[0].extent.end.offset
        rhs_start = kids[1].extent.start.offset
        for token in self.tokens(cursor):
            offset = token.extent.start.offset
            if lhs_end <= offset < rhs_start and \
                    token.kind.name == "PUNCTUATION":
                return token.spelling
        return None

    def unwrap(self, cursor):
        ck = self.ck
        while cursor.kind in (ck.UNEXPOSED_EXPR, ck.PAREN_EXPR):
            kids = list(cursor.get_children())
            if len(kids) != 1:
                break
            cursor = kids[0]
        return cursor

    def lock_id(self, cursor, fact) -> str | None:
        """Identity of the Mutex an init/receiver expression names:
        qualified field/variable name; locals are qualified by function
        so two functions' local mutexes stay distinct."""
        ck = self.ck
        stack = [cursor]
        while stack:
            node = stack.pop(0)
            if node.kind in (ck.MEMBER_REF_EXPR, ck.DECL_REF_EXPR):
                ref = node.referenced
                if ref is not None and "Mutex" in self.canonical_type(ref) \
                        and "MutexLock" not in self.canonical_type(ref):
                    if ref.kind in (self.ck.VAR_DECL, self.ck.PARM_DECL) \
                            and ref.semantic_parent is not None and \
                            ref.semantic_parent.kind in self.fn_kinds:
                        return fact["display"] + "::" + ref.spelling
                    return self.qualified(ref)
            stack.extend(node.get_children())
        paths = self.token_paths(cursor)
        return paths[-1] if paths else None

    def acquire(self, lock_id, line, fact, active) -> None:
        for held in active:
            fact["lock_pairs"].append([held, lock_id, line])
        fact["locks"].append({"id": lock_id, "line": line})
        active.append(lock_id)

    def var_decl(self, cursor, fact, active, status_decls,
                 primitive) -> None:
        canonical = self.canonical_type(cursor)
        line = cursor.location.line
        init = [c for c in cursor.get_children()
                if c.kind.is_expression()]
        if "MutexLock" in canonical and not primitive:
            lock = self.lock_id(cursor, fact)
            if lock:
                self.acquire(lock, line, fact, active)
            return
        if init and STATUS_TYPE_RE.search(canonical):
            status_decls.append((cursor.hash, {
                "name": cursor.spelling, "line": line,
                "type": canonical.split("<")[0].split("::")[-1],
                "uses": 0}))
        if init and any(self.has_read_call(c) for c in init):
            fact["taints"].setdefault(cursor.spelling, line)

    def guard(self, cursor, fact) -> None:
        ck = self.ck
        stmt_kids = [c for c in cursor.get_children()
                     if c.kind.is_statement() and c.kind != ck.DECL_STMT]
        boundary = stmt_kids[0].extent.start.offset if stmt_kids \
            else cursor.extent.end.offset
        text = "".join(
            t.spelling for t in self.tokens(cursor)
            if t.extent.start.offset < boundary)
        text = text.replace("->", ".")
        fact["guards"].append({"text": text,
                               "line": cursor.location.line})

    def range_for(self, cursor, fact) -> None:
        ck = self.ck
        for child in cursor.get_children():
            if child.kind == ck.VAR_DECL or child.kind.is_statement():
                continue
            canonical = self.canonical_type(child)
            if "unordered_map" in canonical or \
                    "unordered_set" in canonical:
                fact["unordered_fors"].append({
                    "line": cursor.location.line,
                    "container": canonical[:60]})
                return

    def call(self, cursor, fact, active, primitive) -> None:
        name = cursor.spelling or ""
        line = cursor.location.line
        referenced = cursor.referenced
        kids = list(cursor.get_children())
        if name in ABORT_CALLS:
            fact["aborts"].append({"line": line, "macro": name + "()"})
        if name == "Lock" and not primitive and kids:
            receiver_type = self.canonical_type(kids[0])
            if "Mutex" in receiver_type and \
                    "MutexLock" not in receiver_type:
                lock = self.lock_id(kids[0], fact)
                if lock:
                    self.acquire(lock, line, fact, active)
        if name in ("resize", "reserve"):
            args = list(cursor.get_arguments())
            if args:
                receiver = self.token_paths(kids[0])[:1] if kids else []
                fact["allocs"].append({
                    "line": line, "sink": name,
                    "paths": self.token_paths(args[0]),
                    "direct": self.has_read_call(args[0]),
                    "recv": receiver[0] if receiver else ""})
        elif name in BLOCK_READS and kids:
            base_kids = list(kids[0].get_children())
            base_type = self.canonical_type(base_kids[0]) \
                if base_kids else self.canonical_type(kids[0])
            if not SAFE_READER_RE.search(base_type):
                args = list(cursor.get_arguments())
                paths = []
                direct = False
                for arg in args:
                    paths.extend(self.token_paths(arg))
                    direct = direct or self.has_read_call(arg)
                fact["allocs"].append({
                    "line": line, "sink": name, "paths": sorted(set(paths)),
                    "direct": direct, "recv": base_type[:40]})
        if name:
            fact["calls"].append({
                "name": name,
                "usr": referenced.get_usr() if referenced else None,
                "line": line, "held": list(active)})

    def new_expr(self, cursor, fact) -> None:
        spellings = [t.spelling for t in self.tokens(cursor)]
        if "[" not in spellings:
            return
        fact["allocs"].append({
            "line": cursor.location.line, "sink": "new[]",
            "paths": self.token_paths(cursor),
            "direct": self.has_read_call(cursor), "recv": "new[]"})

    def binop(self, cursor, fact, kind) -> None:
        op = self.op_spelling(cursor)
        if op is None:
            return
        kids = list(cursor.get_children())
        ck = self.ck
        if kind == ck.BINARY_OPERATOR and op == "=" and len(kids) == 2:
            if self.has_read_call(kids[1]):
                paths = self.token_paths(kids[0])
                if paths:
                    fact["taints"].setdefault(
                        max(paths, key=len), cursor.location.line)
        result_type = self.canonical_type(cursor)
        if result_type.replace("const ", "") not in FLOAT_TYPES:
            return
        contracted = False
        if kind == ck.BINARY_OPERATOR and op in ("+", "-"):
            contracted = any(
                self.unwrap(k).kind == ck.BINARY_OPERATOR and
                self.op_spelling(self.unwrap(k)) == "*"
                for k in kids)
        elif kind == ck.COMPOUND_ASSIGNMENT_OPERATOR and \
                op in ("+=", "-="):
            rhs = self.unwrap(kids[1]) if len(kids) == 2 else None
            contracted = rhs is not None and \
                rhs.kind == ck.BINARY_OPERATOR and \
                self.op_spelling(rhs) == "*"
        if contracted:
            fact["contractions"].append({"line": cursor.location.line})

    def attach_macros(self) -> None:
        by_file: dict[str, list[dict]] = defaultdict(list)
        for fact in self.functions.values():
            by_file[fact["file"]].append(fact)
        for file_rel, line, name in sorted(self.macros):
            owners = [f for f in by_file.get(file_rel, ())
                      if f["line"] <= line <= f["end_line"]]
            if not owners:
                continue
            innermost = max(owners, key=lambda f: f["line"])
            innermost["aborts"].append({"line": line, "macro": name})
        # One abort per line, preferring the macro name over the abort()
        # call its expansion may contain.
        for fact in self.functions.values():
            by_line: dict[int, dict] = {}
            for abort in fact["aborts"]:
                prev = by_line.get(abort["line"])
                if prev is None or (prev["macro"].endswith("()")
                                    and not abort["macro"].endswith("()")):
                    by_line[abort["line"]] = abort
            fact["aborts"] = [by_line[k] for k in sorted(by_line)]


# -- check layer: pure python over the IR ----------------------------------

def short_name(fact: dict) -> str:
    return re.sub(r"\bfedda::", "", fact["display"])


def build_indexes(model: dict):
    by_usr = {f["usr"]: f for f in model["functions"]}
    by_name: dict[str, list[dict]] = defaultdict(list)
    for fact in model["functions"]:
        by_name[fact["name"]].append(fact)
    return by_usr, by_name


def resolve_call(call: dict, by_usr, by_name) -> dict | None:
    if call.get("usr") and call["usr"] in by_usr:
        return by_usr[call["usr"]]
    candidates = by_name.get(call["name"], [])
    if len(candidates) == 1:
        return candidates[0]
    return None


def boundary_predicate(surface: list[dict]):
    """Boundary modules derived from the surface inventory: all of
    src/net/, the header/source stem pair of every other surface file,
    plus src/core/binary_io (the reader layer every decoder uses)."""
    prefixes: set[str] = set()
    stems: set[str] = set(EXTRA_BOUNDARY_STEMS)
    for entry in surface:
        file_rel = entry["file"]
        if file_rel.startswith("src/net/"):
            prefixes.add("src/net/")
        else:
            stems.add(file_rel.rsplit(".", 1)[0])

    def in_boundary(rel: str) -> bool:
        if any(rel.startswith(p) for p in prefixes):
            return True
        return rel.rsplit(".", 1)[0] in stems

    return in_boundary


def trust_reachable(model: dict, surface: list[dict]):
    """BFS over the call graph from the surface entry points, descending
    only into boundary modules. Returns ({usr: fact}, {usr: parent usr})
    for chain rendering."""
    by_usr, by_name = build_indexes(model)
    in_boundary = boundary_predicate(surface)
    names = {entry["name"] for entry in surface}
    seeds = [f for f in model["functions"]
             if f["name"] in names and in_boundary(f["file"])]
    reachable = {f["usr"]: f for f in seeds}
    parent: dict[str, str | None] = {f["usr"]: None for f in seeds}
    queue = list(seeds)
    while queue:
        fact = queue.pop(0)
        for call in fact["calls"]:
            callee = resolve_call(call, by_usr, by_name)
            if callee is None or callee["usr"] in reachable:
                continue
            if not in_boundary(callee["file"]):
                continue
            reachable[callee["usr"]] = callee
            parent[callee["usr"]] = fact["usr"]
            queue.append(callee)
    return reachable, parent


def chain_of(usr: str, parent: dict, reachable: dict) -> str:
    names = []
    node: str | None = usr
    while node is not None:
        names.append(short_name(reachable[node]))
        node = parent.get(node)
    return " <- ".join(names)


def check_trust_boundary(model: dict,
                         surface: list[dict]) -> list[Finding]:
    findings: list[Finding] = []
    reachable, parent = trust_reachable(model, surface)
    for usr, fact in reachable.items():
        chain = chain_of(usr, parent, reachable)
        for abort in fact["aborts"]:
            findings.append(Finding(
                "az-tb-abort", fact["file"], abort["line"],
                f"{abort['macro']} abort in {short_name(fact)} is "
                f"reachable from the untrusted-bytes surface ({chain}); "
                "foreign input must fail with a Status, never abort the "
                "process"))
        for alloc in fact["allocs"]:
            reason = None
            if alloc["direct"]:
                reason = "its size comes straight from a wire read"
            else:
                for path in alloc["paths"]:
                    taint_line = fact["taints"].get(path)
                    if taint_line is None or taint_line > alloc["line"]:
                        continue
                    pattern = re.compile(
                        r"(?<!\w)" + re.escape(path) + r"(?!\w)")
                    guarded = any(
                        taint_line <= g["line"] <= alloc["line"] and
                        pattern.search(g["text"])
                        for g in fact["guards"])
                    if not guarded:
                        reason = (f"`{path}` was read from the wire at "
                                  f"line {taint_line} and never "
                                  "bounds-checked")
                        break
            if reason:
                findings.append(Finding(
                    "az-tb-alloc", fact["file"], alloc["line"],
                    f"{alloc['sink']} in {short_name(fact)} "
                    f"(reached via {chain}): {reason}; compare against "
                    "remaining() before allocating"))
    return findings


def check_lock_order(model: dict) -> list[Finding]:
    by_usr, by_name = build_indexes(model)
    acquires: dict[str, set[str]] = {
        f["usr"]: {l["id"] for l in f["locks"]}
        for f in model["functions"]}
    changed = True
    while changed:
        changed = False
        for fact in model["functions"]:
            mine = acquires[fact["usr"]]
            for call in fact["calls"]:
                callee = resolve_call(call, by_usr, by_name)
                if callee is None:
                    continue
                extra = acquires[callee["usr"]] - mine
                if extra:
                    mine |= extra
                    changed = True
    edges: dict[tuple[str, str], str] = {}
    for fact in model["functions"]:
        for held, taken, line in fact["lock_pairs"]:
            edges.setdefault(
                (held, taken),
                f"{taken} acquired at {fact['file']}:{line} in "
                f"{short_name(fact)} while {held} is held")
        for call in fact["calls"]:
            if not call["held"]:
                continue
            callee = resolve_call(call, by_usr, by_name)
            if callee is None:
                continue
            for lock in acquires[callee["usr"]]:
                for held in call["held"]:
                    edges.setdefault(
                        (held, lock),
                        f"call to {short_name(callee)} at "
                        f"{fact['file']}:{call['line']} acquires {lock} "
                        f"while {held} is held")
    # Cycle detection: iterative DFS strongly-connected components.
    graph: dict[str, list[str]] = defaultdict(list)
    for (a, b) in edges:
        graph[a].append(b)
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(root_node: str) -> None:
        work = [(root_node, iter(graph[root_node]))]
        index_of[root_node] = lowlink[root_node] = counter[0]
        counter[0] += 1
        stack.append(root_node)
        on_stack.add(root_node)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent_node = work[-1][0]
                lowlink[parent_node] = min(lowlink[parent_node],
                                           lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)

    for node in list(graph):
        if node not in index_of:
            strongconnect(node)

    findings: list[Finding] = []
    for component in sccs:
        cyclic = len(component) > 1 or \
            (component[0], component[0]) in edges
        if not cyclic:
            continue
        members = sorted(component)
        provenance = [edges[(a, b)] for (a, b) in sorted(edges)
                      if a in component and b in component]
        # Anchor the finding at the first provenance site.
        anchor = re.search(r"at (\S+):(\d+)", provenance[0])
        path = anchor.group(1) if anchor else "<unknown>"
        line = int(anchor.group(2)) if anchor else 0
        findings.append(Finding(
            "az-lock-cycle", path, line,
            "lock-order cycle between {" + ", ".join(members) + "}: " +
            "; ".join(provenance) +
            " — impose one global acquisition order"))
    return findings


def check_unordered_iteration(model: dict) -> list[Finding]:
    findings: list[Finding] = []
    for fact in model["functions"]:
        rel = fact["file"]
        scoped = "src/fl/" in rel or "src/tensor/" in rel
        serial = bool(SERIAL_FN_RE.match(fact["name"]))
        if not scoped and not serial:
            continue
        where = ("a serialization function"
                 if serial else "a determinism-scoped path")
        for loop in fact["unordered_fors"]:
            findings.append(Finding(
                "az-unordered-iter", rel, loop["line"],
                f"range-for over `{loop['container']}` in "
                f"{short_name(fact)} ({where}) — hash-iteration order is "
                "implementation-defined; iterate sorted keys or use an "
                "ordered container"))
    return findings


def check_fp_contract(model: dict) -> list[Finding]:
    findings: list[Finding] = []
    for fact in model["functions"]:
        rel = fact["file"]
        if not any(mark in rel for mark in KERNEL_PATH_MARK):
            continue
        if not fact["contractions"]:
            continue
        tu_info = model["tus"].get(fact["tu"], {})
        if tu_info.get("fp_contract_off"):
            continue
        for contraction in fact["contractions"]:
            findings.append(Finding(
                "az-fp-contract", rel, contraction["line"],
                f"contractible float expression in {short_name(fact)} "
                f"but TU {fact['tu']} is compiled without "
                "-ffp-contract=off — FMA contraction breaks the "
                "scalar<->SIMD bit-exactness contract (DESIGN.md §13)"))
    return findings


def check_status_flow(model: dict) -> list[Finding]:
    findings: list[Finding] = []
    for fact in model["functions"]:
        for var in fact["status_vars"]:
            if var["uses"] == 0:
                findings.append(Finding(
                    "az-status-ignored", fact["file"], var["line"],
                    f"`{var['type']} {var['name']}` in "
                    f"{short_name(fact)} is initialized but never read — "
                    "the error vanishes; branch on it, return it, or "
                    "FEDDA_RETURN_IF_ERROR"))
    return findings


def run_checks(model: dict, surface: list[dict]) -> list[Finding]:
    findings: list[Finding] = []
    findings += check_trust_boundary(model, surface)
    findings += check_lock_order(model)
    findings += check_unordered_iteration(model)
    findings += check_fp_contract(model)
    findings += check_status_flow(model)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# -- allowlist (az- namespace of tools/lint_allowlist.txt) ------------------

def apply_allowlist(findings: list[Finding], allowlist: Path,
                    root: Path) -> list[Finding]:
    allow_rel = allowlist.relative_to(root).as_posix() \
        if allowlist.is_relative_to(root) else str(allowlist)
    entries: dict[tuple[str, str], int] = {}
    kept: list[Finding] = []
    if allowlist.is_file():
        for lineno, raw in enumerate(
                allowlist.read_text().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, justification = line.partition("--")
            fields = head.split()
            if len(fields) != 2 or not fields[0].startswith("az-"):
                continue  # lint-owned or malformed; lint_fedda.py checks
            if not sep or not justification.strip():
                kept.append(Finding(
                    "allowlist-missing-justification", allow_rel, lineno,
                    "analyzer allowlist entries are `az-<rule> <path> -- "
                    "<why>`; the justification is not optional"))
                continue
            entries[(fields[0], fields[1])] = lineno
    used: set[tuple[str, str]] = set()
    for finding in findings:
        key = (finding.rule, finding.path)
        if key in entries:
            used.add(key)
        else:
            kept.append(finding)
    for key, lineno in entries.items():
        if key not in used:
            kept.append(Finding(
                "allowlist-unused", allow_rel, lineno,
                f"entry ({key[0]}, {key[1]}) suppresses nothing; delete "
                "it so the allowlist cannot rot"))
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    return kept


# -- driver -----------------------------------------------------------------

def analyze(root: Path, model: dict, surface: list[dict],
            allowlist: Path | None) -> list[Finding]:
    findings = run_checks(model, surface)
    if allowlist is None:
        allowlist = root / lint_fedda.ALLOWLIST_NAME
    return apply_allowlist(findings, allowlist, root)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="libclang repo analyzer: trust-boundary aborts, "
                    "lock-order cycles, determinism, status flow")
    parser.add_argument("--root", default=str(
        Path(__file__).resolve().parent.parent.parent))
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json "
                             "(default: <root>/build/)")
    parser.add_argument("--surface", default=None,
                        help="entry-point inventory JSON (default: "
                             "computed via lint_fedda.surface_inventory)")
    parser.add_argument("--allowlist", default=None)
    parser.add_argument("--scope", default="src/",
                        help="only analyze TUs under this root-relative "
                             "prefix (default src/; '' for all)")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="write findings as JSON")
    parser.add_argument("--emit-ir", default=None, metavar="OUT",
                        help="dump the extracted IR and exit")
    parser.add_argument("--from-ir", default=None, metavar="PATH",
                        help="skip extraction; run checks over a saved IR")
    parser.add_argument("--require", action="store_true",
                        help="fail (exit 2) instead of skipping when "
                             "libclang or the compdb is missing")
    args = parser.parse_args()
    root = Path(args.root).resolve()

    if args.surface:
        surface = json.loads(Path(args.surface).read_text())
    else:
        surface = lint_fedda.surface_inventory(root)

    extraction_errors: list[str] = []
    if args.from_ir:
        model = json.loads(Path(args.from_ir).read_text())
    else:
        cindex, why = load_cindex()
        if cindex is None:
            print(f"fedda_analyze: SKIPPED — {why} (install clang + "
                  "python3-clang; the CI static-analyze job gates on "
                  "this)")
            return 2 if args.require else 0
        compdb = Path(args.compdb) if args.compdb \
            else root / "build" / "compile_commands.json"
        if not compdb.is_file():
            print(f"fedda_analyze: SKIPPED — no compile database at "
                  f"{compdb} (configure with "
                  "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")
            return 2 if args.require else 0
        units = compile_units(compdb, root, args.scope)
        extractor = Extractor(cindex, root)
        model = extractor.run(units)
        extraction_errors = extractor.errors
        for err in extraction_errors:
            print(f"fedda_analyze: warning: {err}", file=sys.stderr)

    if args.emit_ir:
        Path(args.emit_ir).write_text(json.dumps(model, indent=1) + "\n")
        print(f"fedda_analyze: IR written to {args.emit_ir} "
              f"({len(model['functions'])} functions)")
        return 0

    allowlist = Path(args.allowlist) if args.allowlist else None
    findings = analyze(root, model, surface, allowlist)
    if args.json:
        Path(args.json).write_text(json.dumps({
            "findings": [f.as_json() for f in findings],
            "stats": {"functions": len(model["functions"]),
                      "tus": len(model["tus"]),
                      "surface_entries": len(surface),
                      "extraction_errors": extraction_errors},
        }, indent=2) + "\n")
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"fedda_analyze: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"fedda_analyze: clean ({len(model['functions'])} functions, "
          f"{len(model['tus'])} TUs, {len(surface)} surface entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

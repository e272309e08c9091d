#!/usr/bin/env python3
"""vwise_hotpath: prove the per-vector loop is allocation-, lock- and
syscall-free.

Vectorwise's premise is that per-vector primitives amortize interpretation
overhead into tight, predictable loops (paper Sec. I-A). That premise is
silently broken every time a kernel or an Operator::Next hides a malloc, a
mutex, a std::string, or a syscall behind an innocent-looking call. This tool
makes the property checkable: it builds a static call graph over src/,
computes the closure from the hot-path roots, and rejects any reachable
impurity.

Roots
-----
  * every primitive kernel backing the catalog
    (src/expr/primitive_catalog.inc -> the template kernels and operator
    functors defined in src/expr/primitives.h);
  * the catalog's type-erased adapters in src/expr/primitive_registry.cc
    (the adapter column of primitive_catalog.inc): expression dispatch
    reaches them through the bound entry's function pointer, which no call
    graph can follow;
  * the operator boundary: the non-virtual Operator::Next and its
    out-of-line instrumented half (contract checks, profiling counters),
    plus every NextImpl defined in src/exec/ (scan, select, project,
    hash_agg, hash_join, sort, xchg) — with the helpers they reach in
    src/exec/ (key_hash.h, radix_spill.cc, ...);
  * expression dispatch: every Eval/Select defined in src/expr/expression.cc;
  * any function marked VWISE_HOT (src/common/macros.h).

Checked categories
------------------
  alloc            operator new / make_shared / make_unique / malloc,
                   std::vector growth (push_back/resize/reserve/assign/...),
                   std::string construction / to_string / substr,
                   Buffer::Allocate, local std::vector or std::string
                   declarations, ostringstream
  lock             MutexLock / Mutex::Lock / CondVar waits / raw std mutexes
  io               pread/pwrite/fsync/fopen/printf-family, std::cout/cerr
  statusfmt        constructing a non-OK Status (which allocates its message)
                   anywhere but a `return` statement — the success path must
                   not pay for error formatting
  virtual-in-loop  a call to a declared-virtual method inside a `for` loop
                   (repo convention: `for` iterates tuples/values, `while`
                   iterates chunks — per-chunk virtual dispatch is the
                   vectorized model working as intended)

Escape hatch (mirrors tools/vwise_lint.py)
------------------------------------------
A finding on a line is waived by an annotation on the same or the preceding
line:

    // vwise-hotpath: allow(<category>): <rationale>

The rationale is mandatory; an allow() without one is itself an error.
The special category `cold-call` is traversal pruning, not waiving: placed on
a call site, it stops the closure from descending into the callee (stripe
advances, once-per-query consume phases, amortized table doublings). Every
pruned subtree must genuinely be off the per-vector path.

Frontend
--------
A self-contained lexical frontend that runs anywhere: it walks src/, strips
comments and strings, and recovers function definitions and call sites by
brace matching. Resolution is by name, an over-approximation that errs
toward flagging.

Negative checks: tests/compile_fail/hotpath_*.cc carry seeded violations
behind #ifdef VWISE_COMPILE_FAIL; tools/check_compile_fail.py runs this tool
in --src mode twice (control must pass, seeded must fail with the expected
diagnostic). `--self-test` does the same over a patched copy of src/.

Exit codes: 0 = hot path is pure, 1 = findings (or self-test failure),
2 = usage error.
"""

import argparse
import os
import re
import shutil
import sys
import tempfile

ALLOW_RE = re.compile(
    r"//\s*vwise-hotpath:\s*allow\((?P<tag>[\w-]+)\)(?::\s*(?P<why>\S.*))?")

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "decltype", "static_assert", "defined", "noexcept", "assert", "throw",
    "new", "delete", "case", "do", "else", "goto", "typeid", "using",
}

# Categories a finding can carry (cold-call is escape-only).
CATEGORIES = ("alloc", "lock", "io", "statusfmt", "virtual-in-loop")

STATUS_FACTORIES = (
    "InvalidArgument", "NotFound", "AlreadyExists", "IOError", "Corruption",
    "NotImplemented", "Internal", "TransactionConflict", "ResourceExhausted",
    "Cancelled", "DeadlineExceeded",
)

ALLOC_PATTERNS = [
    (re.compile(r"(?<![\w.])new\b(?!\s*\()"), "operator new"),
    (re.compile(r"(?<![\w.])new\s*\("), "operator new"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\b(?:malloc|calloc|realloc|strdup)\s*\("), "malloc-family call"),
    (re.compile(r"[.>]\s*push_back\s*\("), "std::vector::push_back"),
    (re.compile(r"[.>]\s*emplace_back\s*\("), "std::vector::emplace_back"),
    (re.compile(r"[.>]\s*resize\s*\("), "container resize"),
    (re.compile(r"[.>]\s*reserve\s*\("), "container reserve"),
    (re.compile(r"[.>]\s*assign\s*\("), "container assign"),
    (re.compile(r"[.>]\s*insert\s*\("), "container insert"),
    (re.compile(r"[.>]\s*append\s*\("), "string append"),
    (re.compile(r"[.>]\s*substr\s*\("), "std::string::substr (allocates)"),
    (re.compile(r"\bstd::to_string\s*\("), "std::to_string"),
    # Construction or by-value copies only; `const std::string&` references
    # and pointers are free and must not fire.
    (re.compile(r"\bstd::string\s*[({]"), "std::string construction"),
    (re.compile(r"\bstd::string\s+[A-Za-z_]"), "std::string by-value copy"),
    (re.compile(r"\bstd::o?stringstream\b"), "stringstream construction"),
    (re.compile(r"\bstd::vector\s*<[^;=]*>\s+\w+"),
     "local std::vector declaration"),
    (re.compile(r"\bBuffer::(?:Allocate|AllocateZeroed)\b"), "Buffer::Allocate"),
]

LOCK_PATTERNS = [
    (re.compile(r"\bMutexLock\b"), "MutexLock acquisition"),
    (re.compile(r"\bstd::(?:lock_guard|unique_lock|scoped_lock)\b"),
     "raw std lock"),
    (re.compile(r"\bpthread_mutex_\w+\s*\("), "pthread mutex call"),
    (re.compile(r"[.>]\s*(?:Lock|Unlock|TryLock)\s*\(\s*\)"),
     "explicit Mutex lock/unlock"),
    (re.compile(r"[.>]\s*(?:Wait|WaitFor|Signal|SignalAll|notify_one|"
                r"notify_all|wait)\s*\("), "condition-variable traffic"),
]

IO_PATTERNS = [
    (re.compile(r"\b(?:pread|pwrite|fsync|fdatasync|fopen|fread|fwrite|"
                r"fprintf|printf|fflush|fputs|perror|fseek|fclose)\s*\("),
     "I/O call"),
    (re.compile(r"\b::(?:open|read|write|close|lseek)\s*\("), "syscall"),
    (re.compile(r"\bstd::c(?:out|err|log)\b"), "stream I/O"),
]

STATUS_FACTORY_RE = re.compile(
    r"\bStatus::(?:" + "|".join(STATUS_FACTORIES) + r")\s*\(")

CALL_RE = re.compile(
    r"(?<![\w.>:])((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\(")
METHOD_CALL_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
VIRTUAL_DECL_RE = re.compile(
    r"^\s*virtual\s+[^;{=()]*?\b([A-Za-z_]\w*)\s*\(", re.M)
SIG_NAME_RE = re.compile(
    r"([A-Za-z_~]\w*(?:\s*::\s*[A-Za-z_~]\w*)*)\s*\(")

# An operator function's name: `operator` and its symbol (`operator==`,
# `operator()`, `operator[]`, `operator->`, ...), qualified or not.
OPERATOR_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*operator\s*"
    r"(?:\(\s*\)|\[\s*\]|[-+*/%^&|~!=<>,]+))\s*\(")
# Text ending in an operator name's symbol so far: the `=` that follows it
# (`operator==`, `operator<=`, `operator=`) is part of the name, not an
# initializer.
OPERATOR_TAIL_RE = re.compile(r"\boperator\s*[-+*/%^&|~!=<>]*$")

# Attribute specifiers (`[[nodiscard]]`, `__attribute__((target("...")))`)
# that may precede a class or function name; see blank_specifiers.
SPECIFIER_START_RE = re.compile(r"\[\[|\b__attribute__\s*\(")


def blank_specifiers(head):
    """Blanks attribute specifiers in a declaration head, keeping its length,
    so neither a class nor a function is named after `__attribute__` or
    left unnamed by `class [[nodiscard]] X`."""
    out = list(head)
    for m in SPECIFIER_START_RE.finditer(head):
        if out[m.start()] == " ":
            continue  # inside a specifier already blanked
        if m.group(0) == "[[":
            close = head.find("]]", m.end())
            stop = len(head) if close == -1 else close + 2
        else:
            stop = match_close(head, m.end() - 1) + 1
        for j in range(m.start(), stop):
            if out[j] != "\n":
                out[j] = " "
    return "".join(out)


CONTAINER_RE = re.compile(
    r"(?:^|\s)(namespace|class|struct|union|enum)\b")

# The closure is scoped to the layers that ARE the per-vector path. Calls
# resolving outside this scope are not traversed: the baseline engines are
# tuple-at-a-time by design, and storage/compression run behind the
# `cold-call` stripe boundary. Keeping them out of the index is what makes
# name-based resolution sound enough to gate on.
HOT_SCOPE_PREFIXES = ("src/exec/", "src/expr/", "src/vector/",
                      "src/common/", "src/service/query_context.")
# In-scope files whose functions are nevertheless exempt: status.{h,cc} is
# the error-path machinery itself (the statusfmt check polices its call
# sites); json.* and failpoint.* are diagnostics/fault-injection, reached
# only through error paths or test hooks.
EXEMPT_FILES = frozenset({
    "src/common/status.h", "src/common/status.cc",
    "src/common/json.h", "src/common/json.cc",
    "src/common/failpoint.h", "src/common/failpoint.cc",
})

RETURN_STATUS_RE = re.compile(r"\breturn\s+(?:::)?(?:vwise::)?Status::")


def in_hot_scope(path):
    p = path.replace(os.sep, "/")
    return p.startswith(HOT_SCOPE_PREFIXES) and p not in EXEMPT_FILES


def strip_code(text):
    """Blanks out comments and string/char literals, preserving newlines and
    byte offsets, so lexical scanning never trips over quoted braces."""
    out = list(text)
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            # Raw strings: R"delim( ... )delim"
            if quote == '"' and i >= 1 and text[i - 1] == "R":
                m = re.match(r'R"([^(\s]*)\(', text[i - 1:i + 20])
                if m:
                    end = text.find(")" + m.group(1) + '"', i)
                    if end == -1:
                        end = n - 1
                    for j in range(i, min(end + len(m.group(1)) + 2, n)):
                        if text[j] != "\n":
                            out[j] = " "
                    i = end + len(m.group(1)) + 2
                    continue
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    if text[i] != "\n":
                        out[i] = " "
                    i += 1
                if i < n and text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def preprocess_defines(text, defines):
    """Minimal textual #ifdef/#ifndef/#else/#endif evaluation so
    tests/compile_fail/ snippets can seed violations behind
    -DVWISE_COMPILE_FAIL. Unknown conditionals (#if expressions) are treated
    as active. Inactive lines are blanked, preserving numbering."""
    out = []
    # Stack of (taking, seen_else); `taking` False blanks lines.
    stack = []

    def active():
        return all(t for t, _ in stack)

    for line in text.splitlines(keepends=True):
        s = line.strip()
        if s.startswith("#ifdef "):
            name = s.split(None, 1)[1].split()[0]
            stack.append((name in defines, False))
            out.append("\n" if line.endswith("\n") else "")
        elif s.startswith("#ifndef "):
            name = s.split(None, 1)[1].split()[0]
            stack.append((name not in defines, False))
            out.append("\n" if line.endswith("\n") else "")
        elif s.startswith("#if "):
            stack.append((True, False))
            out.append(line)
        elif s.startswith("#else") and stack:
            taking, _ = stack[-1]
            stack[-1] = (not taking, True)
            out.append("\n" if line.endswith("\n") else "")
        elif s.startswith("#endif") and stack:
            stack.pop()
            out.append("\n" if line.endswith("\n") else "")
        else:
            out.append(line if active() else ("\n" if line.endswith("\n") else ""))
    return "".join(out)


class Function:
    __slots__ = ("name", "qual", "path", "start_line", "end_line",
                 "sig_end_line", "head", "body_start", "body_end", "calls",
                 "for_ranges", "is_hot_marked")

    def __init__(self, name, qual, path, start_line, end_line, head):
        self.name = name          # base name, e.g. "Next"
        self.qual = qual          # e.g. "HashJoinOperator::Next"
        self.path = path          # repo-relative
        self.start_line = start_line  # statement start (may precede leading comments)
        self.end_line = end_line
        self.sig_end_line = start_line  # line of the opening brace
        self.calls = []           # (name, line, is_method, offset)
        self.for_ranges = []      # (first_line, last_line) of for-loop bodies
        self.head = head
        self.is_hot_marked = False

    def __repr__(self):
        return f"{self.path}:{self.start_line} {self.qual}"


def match_close(text, open_idx):
    """Index of the '}' or ')' matching the '{' or '(' at open_idx in
    comment-stripped text."""
    opener = text[open_idx]
    closer = "}" if opener == "{" else ")"
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def line_of(offsets, pos):
    """1-based line for byte offset `pos`, given sorted newline offsets."""
    import bisect
    return bisect.bisect_right(offsets, pos) + 1


def parse_functions(path, text, stripped):
    """Recovers function definitions from one translation unit. Lexical:
    walks top-level (and container-nested) braces, classifying each block by
    the signature text before it."""
    newline_offsets = [i for i, c in enumerate(text) if c == "\n"]
    functions = []

    def scan(begin, end, class_stack):
        i = begin
        stmt_start = begin
        while i < end:
            c = stripped[i]
            if c in ";}":
                stmt_start = i + 1
                i += 1
                continue
            if c == "#":
                # Preprocessor directive: skip to end of (continued) line.
                j = i
                while j < end:
                    nl = stripped.find("\n", j)
                    if nl == -1:
                        j = end
                        break
                    if stripped[nl - 1] == "\\":
                        j = nl + 1
                    else:
                        j = nl
                        break
                stmt_start = j + 1
                i = j + 1
                continue
            # Inside a parameter list, `=` opens a default argument and `{`
            # a braced one: neither ends the signature.
            if c in "={" and (stripped.count("(", stmt_start, i) >
                              stripped.count(")", stmt_start, i)):
                i = match_close(stripped, i) + 1 if c == "{" else i + 1
                continue
            if c == "=" and OPERATOR_TAIL_RE.search(stripped, stmt_start, i):
                i += 1
                continue
            if c == "=":
                # Initializer at this nesting level: `int x[] = {...};` or a
                # default member. Skip to the statement end, stepping over
                # any braced initializer.
                j = i + 1
                while j < end and stripped[j] != ";":
                    if stripped[j] == "{":
                        j = match_close(stripped, j)
                    j += 1
                stmt_start = j + 1
                i = j + 1
                continue
            if c == "{":
                head = blank_specifiers(stripped[stmt_start:i])
                close = match_close(stripped, i)
                m_cont = CONTAINER_RE.search(head)
                if m_cont and "(" not in head.split(m_cont.group(1), 1)[1]:
                    # namespace/class/struct/enum block: descend (enums have
                    # no functions but scanning them is harmless).
                    name_m = re.search(
                        m_cont.group(1) + r"\s+(?:\w+\s+)*?([A-Za-z_]\w*)"
                        r"(?:\s+final)?\s*(?::[^{]*)?$", head)
                    inner_name = name_m.group(1) if name_m else ""
                    scan(i + 1, close,
                         class_stack + ([inner_name] if inner_name and
                                        m_cont.group(1) != "namespace" else []))
                elif "(" in head:
                    # Candidate function definition. Find the first
                    # identifier immediately followed by '(' that is not a
                    # keyword — that is the function name (constructors with
                    # init lists included, since the ctor name comes first);
                    # an operator's name is `operator` and its symbol.
                    fname = None
                    m_op = OPERATOR_NAME_RE.search(head)
                    if m_op:
                        fname = re.sub(r"\s+", "", m_op.group(1))
                    else:
                        for m in SIG_NAME_RE.finditer(head):
                            base = m.group(1).split("::")[-1].strip()
                            if base in CPP_KEYWORDS:
                                continue
                            fname = m.group(1).replace(" ", "")
                            break
                    if fname is not None:
                        base = fname.split("::")[-1]
                        qual = fname if "::" in fname else (
                            "::".join(class_stack + [fname]) if class_stack
                            else fname)
                        fn = Function(
                            base, qual, path,
                            line_of(newline_offsets, stmt_start),
                            line_of(newline_offsets, close),
                            head.strip())
                        fn.body_start = i
                        fn.body_end = close
                        fn.sig_end_line = line_of(newline_offsets, i)
                        if "VWISE_HOT" in head:
                            fn.is_hot_marked = True
                        collect_body(fn, i + 1, close)
                        functions.append(fn)
                    # else: unrecognized block; skip it whole.
                # else: bare block (extern "C" without functions etc.): skip.
                stmt_start = close + 1
                i = close + 1
                continue
            i += 1

    def collect_body(fn, begin, end):
        body = stripped[begin:end]
        base_off = begin
        for m in CALL_RE.finditer(body):
            name = m.group(1).replace(" ", "")
            if name.split("::")[-1] in CPP_KEYWORDS:
                continue
            fn.calls.append((name, line_of(newline_offsets, base_off + m.start()),
                             False, base_off + m.start()))
        for m in METHOD_CALL_RE.finditer(body):
            name = m.group(1)
            if name in CPP_KEYWORDS:
                continue
            fn.calls.append((name, line_of(newline_offsets, base_off + m.start()),
                             True, base_off + m.start()))
        # for-loop extents (brace bodies and single statements).
        for m in re.finditer(r"\bfor\s*\(", body):
            p = base_off + m.end() - 1
            close_paren = min(match_close(stripped, p), end)
            j = close_paren + 1
            while j < end and stripped[j] in " \t\n":
                j += 1
            if j < end and stripped[j] == "{":
                last = match_close(stripped, j)
            else:
                last = stripped.find(";", j)
                if last == -1 or last > end:
                    last = end
            fn.for_ranges.append((line_of(newline_offsets, p),
                                  line_of(newline_offsets, last)))

    scan(0, len(stripped), [])
    return functions


class SyntacticFrontend:
    """Builds the call-graph IR by lexical scanning — always available."""

    def __init__(self, repo, files=None, defines=(), preprocess=False):
        self.repo = repo
        self.files = files
        self.defines = set(defines)
        self.preprocess = preprocess  # --src mode: evaluate #ifdef blocks
        self.functions = []       # all Function objects
        self.by_base = {}         # base name -> [Function]
        self.by_qual = {}         # qualified name -> [Function]
        self.virtual_names = set()
        self.file_lines = {}      # rel path -> original lines
        self.file_stripped = {}   # rel path -> comment/string-stripped text
        self.file_stripped_lines = {}

    def default_files(self):
        out = []
        src = os.path.join(self.repo, "src")
        for root, _dirs, names in os.walk(src):
            for name in sorted(names):
                if name.endswith((".cc", ".h", ".inc")):
                    out.append(os.path.join(root, name))
        return out

    def load(self):
        files = self.files if self.files is not None else self.default_files()
        for path in files:
            rel = os.path.relpath(path, self.repo)
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    text = f.read()
            except OSError as e:
                raise RuntimeError(f"cannot read {path}: {e}")
            if self.preprocess:
                text = preprocess_defines(text, self.defines)
            self.file_lines[rel] = text.splitlines()
            if rel.endswith(".inc"):
                continue  # catalog entries are data, not code
            stripped = strip_code(text)
            self.file_stripped[rel] = stripped
            self.file_stripped_lines[rel] = stripped.splitlines()
            for fn in parse_functions(rel, text, stripped):
                self.functions.append(fn)
                self.by_base.setdefault(fn.name, []).append(fn)
                self.by_qual.setdefault(fn.qual, []).append(fn)
            for m in VIRTUAL_DECL_RE.finditer(stripped):
                self.virtual_names.add(m.group(1))
        return self


CATALOG_ADAPTER_RE = re.compile(
    r"^VWISE_\w+_PRIMITIVE\(\s*\w+\s*,\s*[\w:]+\s*,\s*(\w+)\s*,", re.M)


def catalog_adapters(repo):
    """Adapter names in the catalog's third column."""
    path = os.path.join(repo, "src", "expr", "primitive_catalog.inc")
    with open(path, encoding="utf-8") as f:
        return set(CATALOG_ADAPTER_RE.findall(f.read()))


def find_roots(frontend, repo):
    """The hot-path roots per DESIGN.md §9 (see module docstring)."""
    adapters = catalog_adapters(repo)
    roots = []
    for fn in frontend.functions:
        p = fn.path.replace(os.sep, "/")
        if fn.is_hot_marked:
            roots.append(fn)
        elif p == "src/expr/primitives.h":
            roots.append(fn)  # catalog kernels + operator functors
        elif p == "src/expr/primitive_registry.cc" and fn.name in adapters:
            roots.append(fn)  # called through PrimitiveEntry::map / select
        elif fn.qual in ("Operator::Next", "Operator::NextInstrumented"):
            roots.append(fn)  # the boundary every NextImpl runs under
        elif (p.startswith("src/exec/") and p.endswith(".cc") and
              fn.name == "NextImpl"):
            roots.append(fn)
        elif p == "src/expr/expression.cc" and fn.name in ("Eval", "Select"):
            roots.append(fn)
    return roots


def single_file_roots(frontend):
    """Roots in --src mode: VWISE_HOT markers plus NextImpl methods —
    snippets declare their own roots."""
    return [fn for fn in frontend.functions
            if fn.is_hot_marked or fn.name == "NextImpl"]


class Analyzer:
    def __init__(self, frontend, roots, scoped=True):
        self.fe = frontend
        self.roots = roots
        self.scoped = scoped  # False in --src mode: the snippet is the world
        self.errors = []
        self.hot = {}   # Function -> root qual name it was reached from
        self._head_rationale_errors = set()

    def error(self, path, line, msg):
        self.errors.append(f"{path}:{line}: {msg}")

    # --- escapes -------------------------------------------------------------
    def escape_lines(self, path, line):
        """Lines whose allow() annotations govern `line`: the line itself,
        then the run of comment-only lines immediately above it (so a
        rationale may wrap onto continuation lines)."""
        lines = self.fe.file_lines.get(path, ())
        if not (1 <= line <= len(lines)):
            return
        yield line
        lineno = line - 1
        while lineno >= 1 and lines[lineno - 1].lstrip().startswith("//"):
            yield lineno
            lineno -= 1

    def allowance(self, path, line, tag):
        """True when an allow(tag) annotation governs path:line. A
        rationale-less allow still suppresses the original finding but is
        reported as its own error."""
        lines = self.fe.file_lines[path]
        for lineno in self.escape_lines(path, line):
            m = ALLOW_RE.search(lines[lineno - 1])
            if not m or m.group("tag") != tag:
                continue
            if not m.group("why"):
                self.error(path, lineno,
                           f"vwise-hotpath: allow({tag}) needs a rationale: "
                           f"`// vwise-hotpath: allow({tag}): <why>`")
            return True
        return False

    # --- closure -------------------------------------------------------------
    def line_has_any_allow(self, path, line):
        """True when `line` (or the line above) carries a valid allow()
        annotation of any category. An escape on a call line vouches for the
        whole call expression, callee body included — the annotator takes
        responsibility for what the call does, so the closure stops there."""
        lines = self.fe.file_lines.get(path, ())
        for lineno in self.escape_lines(path, line):
            if ALLOW_RE.search(lines[lineno - 1]):
                return True
        return False

    def head_allows(self, fn):
        """Function-level escapes: allow() annotations in the head region
        (between the previous statement and the opening brace — i.e. the
        comment block above the signature). They waive their category for the
        whole body, and any head-level allow also stops descent: the
        annotator vouches for everything the function does."""
        tags = set()
        lines = self.fe.file_lines.get(fn.path, ())
        for lineno in range(fn.start_line, min(fn.sig_end_line, len(lines)) + 1):
            m = ALLOW_RE.search(lines[lineno - 1])
            if not m:
                continue
            if not m.group("why"):
                key = (fn.path, lineno)
                if key not in self._head_rationale_errors:
                    self._head_rationale_errors.add(key)
                    self.error(fn.path, lineno,
                               f"vwise-hotpath: allow({m.group('tag')}) needs "
                               f"a rationale: `// vwise-hotpath: "
                               f"allow({m.group('tag')}): <why>`")
            tags.add(m.group("tag"))
        return tags

    def statement_is_error_return(self, path, offset):
        """True when the statement containing `offset` begins with
        `return Status::` — arguments of an error return are formatted only
        when the error fires, cold by definition. Statement-based (not
        line-based) so multi-line returns are handled."""
        text = self.fe.file_stripped.get(path)
        if text is None:
            return False
        begin = max(text.rfind(";", 0, offset), text.rfind("{", 0, offset),
                    text.rfind("}", 0, offset)) + 1
        return RETURN_STATUS_RE.search(text[begin:offset]) is not None

    def compute_closure(self):
        work = []
        for fn in self.roots:
            if fn not in self.hot:
                self.hot[fn] = fn.qual
                work.append(fn)
        while work:
            fn = work.pop()
            root = self.hot[fn]
            if self.head_allows(fn):
                continue  # function-level escape: body vouched for wholesale
            for name, line, _is_method, offset in fn.calls:
                if self.allowance(fn.path, line, "cold-call"):
                    continue
                if self.line_has_any_allow(fn.path, line):
                    continue
                if self.statement_is_error_return(fn.path, offset):
                    continue
                for callee in self.resolve(name, _is_method):
                    if callee not in self.hot:
                        self.hot[callee] = root
                        work.append(callee)

    def resolve(self, name, is_method=False):
        def eligible(c):
            return (not self.scoped) or in_hot_scope(c.path) or c.is_hot_marked

        if "::" in name:
            cands = self.fe.by_qual.get(name)
            if cands:
                return [c for c in cands if eligible(c)]
            name = name.split("::")[-1]
        cands = [c for c in self.fe.by_base.get(name, []) if eligible(c)]
        if is_method:
            # `obj->F(...)` can only land on a member function; dropping
            # same-named free functions (namespace-level builders like
            # e::Add) keeps StringHeap::Add from aliasing them.
            cands = [c for c in cands if "::" in c.qual]
        return cands

    # --- checks --------------------------------------------------------------
    def check_function(self, fn):
        lines = self.fe.file_stripped_lines.get(fn.path)
        if lines is None:
            return
        root = self.hot[fn]
        via = "" if root == fn.qual else f" (reached from hot root '{root}')"

        # Function-level escape: an allow(<cat>) on the comment block above
        # the definition waives that category for the entire body. Used where
        # every site shares one rationale (e.g. a contract validator whose
        # formatting runs only on failed checks).
        fn_allow = self.head_allows(fn)

        def report(lineno, category, detail):
            if category in fn_allow:
                return
            if self.allowance(fn.path, lineno, category):
                return
            self.error(
                fn.path, lineno,
                f"hot path '{fn.qual}': {category}: {detail}{via} — fix it, "
                f"move it off the per-vector path, or annotate "
                f"`// vwise-hotpath: allow({category}): <why>`")

        first = fn.start_line  # include the signature lines
        last = min(fn.end_line, len(lines))
        line_starts = [0]
        for l in lines:
            line_starts.append(line_starts[-1] + len(l) + 1)
        for lineno in range(first, last + 1):
            text = lines[lineno - 1]
            if not text.strip():
                continue
            for pat, detail in ALLOC_PATTERNS:
                if pat.search(text):
                    report(lineno, "alloc", detail)
                    break
            for pat, detail in LOCK_PATTERNS:
                if pat.search(text):
                    report(lineno, "lock", detail)
                    break
            for pat, detail in IO_PATTERNS:
                if pat.search(text):
                    report(lineno, "io", detail)
                    break
            m = STATUS_FACTORY_RE.search(text)
            # Pass the match END so the statement prefix includes the
            # `Status::` token `return` must precede.
            if m and not self.statement_is_error_return(
                    fn.path, line_starts[lineno - 1] + m.end()):
                report(lineno, "statusfmt",
                       "non-OK Status constructed off the return path (its "
                       "message allocates; error formatting belongs on error "
                       "returns only)")
        # Virtual calls inside per-tuple (for) loops.
        for name, lineno, is_method, _offset in fn.calls:
            if not is_method or name not in self.fe.virtual_names:
                continue
            for lo, hi in fn.for_ranges:
                if lo <= lineno <= hi:
                    report(lineno, "virtual-in-loop",
                           f"virtual call '{name}()' inside a for loop — "
                           "per-tuple dynamic dispatch defeats vectorization")
                    break

    def run(self):
        self.compute_closure()
        for fn in sorted(self.hot, key=lambda f: (f.path, f.start_line)):
            self.check_function(fn)
        # De-duplicate (same line can be flagged through several roots).
        seen = set()
        unique = []
        for e in self.errors:
            if e not in seen:
                seen.add(e)
                unique.append(e)
        self.errors = unique
        return self.errors


# ---------------------------------------------------------------------------
# Self-test: seed violations into a copy of the tree; each must be caught
# with the expected diagnostic, and the pristine tree must pass.
# ---------------------------------------------------------------------------

def patch_file(tmp, rel, old, new):
    path = os.path.join(tmp, rel)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if old not in text:
        raise RuntimeError(f"self-test patch anchor not found in {rel}: {old!r}")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(old, new, 1))


def run_over_tree(repo):
    fe = SyntacticFrontend(repo).load()
    analyzer = Analyzer(fe, find_roots(fe, repo))
    return analyzer.run()


def self_test(repo):
    cases = {
        # A hidden allocation inside a catalog kernel: the exact scenario the
        # catalog grammar cannot see.
        "push_back in a kernel": (
            ("src/expr/primitives.h",
             "  if (sel == nullptr) {\n"
             "    for (size_t i = 0; i < n; i++) out[i] = OP()(a[i], b[i]);",
             "  std::vector<int> shadow;\n"
             "  shadow.push_back(1);\n"
             "  if (sel == nullptr) {\n"
             "    for (size_t i = 0; i < n; i++) out[i] = OP()(a[i], b[i]);"),
            "alloc"),
        # Expression dispatch calls the catalog adapters through a function
        # pointer; they must be roots in their own right.
        "alloc in a catalog adapter": (
            ("src/expr/primitive_registry.cc",
             "size_t SelColVal(const void* a, const void* b, const sel_t* sel, "
             "size_t n,\n                 sel_t* out_sel) {",
             "size_t SelColVal(const void* a, const void* b, const sel_t* sel, "
             "size_t n,\n                 sel_t* out_sel) {\n"
             "  std::vector<int> shadow;\n"
             "  shadow.push_back(1);"),
            "alloc"),
        # The spill lineage's Next is reached from
        # HashAggOperator::NextImpl on every emitted vector of a spilled
        # aggregation.
        "alloc in RadixSpill::Next": (
            ("src/exec/radix_spill.cc",
             "bool RadixSpill::Next() {",
             "bool RadixSpill::Next() {\n"
             "  std::vector<int> shadow;\n"
             "  shadow.push_back(1);"),
            "alloc"),
        # The operator boundary runs around every NextImpl: its instrumented
        # half (contract checks, profiling) is a root in its own right.
        "alloc at the operator boundary": (
            ("src/exec/operator.cc",
             "Status Operator::NextInstrumented(DataChunk* out) {",
             "Status Operator::NextInstrumented(DataChunk* out) {\n"
             "  std::vector<int> shadow;\n"
             "  shadow.push_back(1);"),
            "alloc"),
        # Lock acquisition inside an operator's NextImpl.
        "mutex in Next": (
            ("src/exec/select.cc",
             "Status SelectOperator::NextImpl(DataChunk* out) {",
             "Status SelectOperator::NextImpl(DataChunk* out) {\n"
             "  static Mutex m;\n"
             "  MutexLock guard(&m);"),
            "lock"),
        # I/O on the per-vector path.
        "printf in Next": (
            ("src/exec/project.cc",
             "Status ProjectOperator::NextImpl(DataChunk* out) {",
             "Status ProjectOperator::NextImpl(DataChunk* out) {\n"
             "  printf(\"next\\n\");"),
            "io"),
        # Success-path Status formatting.
        "status message off the return path": (
            ("src/exec/project.cc",
             "Status ProjectOperator::NextImpl(DataChunk* out) {",
             "Status ProjectOperator::NextImpl(DataChunk* out) {\n"
             "  Status probe = Status::Internal(\"speculative\");\n"
             "  (void)probe;"),
            "statusfmt"),
        # Virtual dispatch inside a per-tuple loop.
        "virtual call in a for loop": (
            ("src/exec/select.cc",
             "Status SelectOperator::NextImpl(DataChunk* out) {",
             "Status SelectOperator::NextImpl(DataChunk* out) {\n"
             "  for (size_t i = 0; i < 4; i++) (void)child_->OutputTypes();"),
            "virtual-in-loop"),
        # An allow() escape with no rationale is itself an error.
        "allow() without rationale": (
            ("src/exec/select.cc",
             "Status SelectOperator::NextImpl(DataChunk* out) {",
             "Status SelectOperator::NextImpl(DataChunk* out) {\n"
             "  // vwise-hotpath: allow(alloc)\n"
             "  std::vector<int> scratch;\n"
             "  (void)scratch;"),
            "needs a rationale"),
        # cold-call escapes also demand a rationale.
        "cold-call without rationale": (
            ("src/exec/scan.cc",
             "      // vwise-hotpath: allow(cold-call): stripe boundary — "
             "decode I/O and\n"
             "      // merge-scanner setup run once per stripe, not per vector\n",
             "      // vwise-hotpath: allow(cold-call)\n"),
            "needs a rationale"),
    }

    failures = []
    # `class X final : ...` must record its methods as X::m, not final::m.
    misnamed = sorted({fn.qual for fn in SyntacticFrontend(repo).load().functions
                       if fn.qual.startswith("final::")})
    if misnamed:
        failures.append("methods recorded under the class name 'final': " +
                        ", ".join(misnamed[:5]))
    # In-class comparison and call operators are recorded under their full
    # names: an operator's `=` is not an initializer, and `operator()` is
    # not a function named `operator`.
    names = {fn.qual for fn in SyntacticFrontend(repo).load().functions}
    expected = ["StringVal::operator" + op
                for op in ("==", "!=", "<", "<=", ">", ">=")]
    expected += ["Value::operator==", "BufferManager::Key::operator==",
                 "BufferManager::KeyHash::operator()"]
    missing = [q for q in expected if q not in names]
    if missing:
        failures.append("operators not recorded: " + ", ".join(missing))
    bare = sorted(q for q in names
                  if q == "operator" or q.endswith("::operator"))
    if bare:
        failures.append("operators recorded without their symbol: " +
                        ", ".join(bare[:5]))
    # Attribute specifiers name nothing: `class [[nodiscard]] Status` keeps
    # its methods qualified, and a kernel declared
    # `__attribute__((target(...))) uint32_t FoldPclmul(...)` keeps its name.
    missing = [q for q in ("Result::ok", "Status::ok", "FoldPclmul")
               if q not in names]
    if missing:
        failures.append("functions behind attribute specifiers not recorded: "
                        + ", ".join(missing))
    attr = sorted(q for q in names if "__attribute__" in q or "[[" in q)
    if attr:
        failures.append("functions named after an attribute specifier: " +
                        ", ".join(attr[:5]))
    clean = run_over_tree(repo)
    if clean:
        failures.append("pristine tree must pass, got:\n  " +
                        "\n  ".join(clean[:10]))
    for label, ((rel, old, new), expect) in cases.items():
        tmp = tempfile.mkdtemp(prefix="vwise_hotpath_selftest_")
        try:
            shutil.copytree(os.path.join(repo, "src"),
                            os.path.join(tmp, "src"))
            patch_file(tmp, rel, old, new)
            errors = run_over_tree(tmp)
            hits = [e for e in errors if expect in e]
            if not hits:
                failures.append(
                    f"seeded case '{label}' not caught "
                    f"(expected a diagnostic containing {expect!r}; got "
                    f"{len(errors)} other finding(s))")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    if failures:
        print("vwise_hotpath self-test FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"vwise_hotpath self-test OK ({len(cases)} seeded cases caught, "
          "clean tree passes)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="static hot-path purity analyzer (see module docstring)")
    ap.add_argument("--repo", default=".", help="repository root")
    ap.add_argument("--src", default=None,
                    help="analyze a single file (compile_fail snippets)")
    ap.add_argument("--define", action="append", default=[],
                    help="preprocessor define for --src preprocessing "
                    "(e.g. VWISE_COMPILE_FAIL)")
    ap.add_argument("--self-test", action="store_true",
                    help="seed violations into a copy of src/; each must be "
                    "caught with its expected diagnostic")
    ap.add_argument("--list-roots", action="store_true",
                    help="print the discovered roots and exit")
    args = ap.parse_args()
    repo = os.path.abspath(args.repo)

    if args.self_test:
        return self_test(repo)

    if args.src:
        src = os.path.abspath(args.src)
        fe = SyntacticFrontend(os.path.dirname(src), files=[src],
                               defines=args.define, preprocess=True).load()
        analyzer = Analyzer(fe, single_file_roots(fe), scoped=False)
        errors = analyzer.run()
        for e in errors:
            print(e)
        if not errors:
            print(f"vwise_hotpath: OK — {os.path.basename(src)} is pure")
        return 1 if errors else 0

    fe = SyntacticFrontend(repo).load()
    roots = find_roots(fe, repo)
    if args.list_roots:
        for fn in sorted(roots, key=lambda f: (f.path, f.start_line)):
            mark = " [VWISE_HOT]" if fn.is_hot_marked else ""
            print(f"{fn.path}:{fn.start_line}: {fn.qual}{mark}")
        print(f"{len(roots)} roots")
        return 0

    analyzer = Analyzer(fe, roots)
    errors = analyzer.run()
    for e in errors:
        print(e)
    if errors:
        print(f"vwise_hotpath: {len(errors)} finding(s)", file=sys.stderr)
        return 1
    print(f"vwise_hotpath: OK — {len(analyzer.hot)} functions in the hot "
          f"closure from {len(roots)} roots, all pure")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""vwise-specific lint pass, run as a ctest target.

Checks
------
1. Primitive catalog (src/expr/primitive_catalog.inc):
   * every entry obeys the naming grammar
       map_<op>_<ty>_{col_<ty>_{col,val} | val_<ty>_col}
       sel_<cmp>_<ty>_col_<ty>_{col,val}
     with both type tokens equal and matching the entry's C++ type (every
     storage codec decodes flat at the scan, so no kernel takes an encoded
     operand: a `dict` or `rle` operand kind is a grammar violation);
   * the operand-kind suffix matches the registered adapter kernel, and the
     op token matches the operator functor;
   * no duplicate names; every (op x type) block is a complete kind grid;
   * 1:1 consistency with src/expr/primitives.h: each Op* functor declared
     there is used by the catalog and vice versa; every kernel the catalog
     references exists there; kernels not in the catalog (e.g. MapUnary,
     Gather) must be referenced somewhere else under src/;
   * src/expr/primitive_registry.cc actually expands the catalog into the
     dispatch table (so the .inc is the registry, not a stale copy).
2. Repo rules over src/:
   * header guards follow VWISE_<PATH>_H_;
   * no raw assert() (use VWISE_CHECK / VWISE_DCHECK) and no std::cout
     (report through Status or stderr);
   * macro definitions are VWISE_-prefixed.
3. Operator-child wrapping: every constructor that takes ownership of a
   child plan (an OperatorPtr parameter) must route it through
   InterposeChild(std::move(child), ...) so both interposition wrappers
   (contract checker, profiler) can sit on every parent/child pair. The
   wrappers themselves (CheckedOperator, ProfiledOperator) are the only
   exemptions. The InterposeChild helper in exec/profile.cc must in turn
   route through both MaybeChecked and MaybeProfiled, checker outermost.
4. Thread confinement: no std::thread under src/ outside src/service/.
   Query parallelism goes through the shared WorkerPool (plan fragments)
   and admission runners own their threads in the QueryService; ad-hoc
   threads elsewhere bypass admission control, the memory budget, and
   cooperative cancellation. (std::this_thread — sleeps, yields — is fine.)
5. Discarded Status/Result returns in src/storage, src/txn, src/pdt, and
   repo-wide in tests/ and bench/: a bare `file->Sync();` statement
   silently swallows an I/O error on the durability path (and in a test,
   silently stops testing the thing it claims to test). Every such call
   must be checked, propagated (VWISE_RETURN_IF_ERROR), or explicitly
   waived with `(void)`. Names that are also declared with a void return
   somewhere (e.g. Reset) are skipped — by-name matching cannot tell the
   overloads apart. This textual pass backstops the compiler-enforced
   [[nodiscard]] on Status/Result (common/status.h) for compilers/flags
   where -Wunused-result is off.
6. Raw synchronization primitives: std::mutex, std::lock_guard,
   std::unique_lock, std::scoped_lock, std::condition_variable, etc. are
   forbidden under src/ outside common/thread_annotations.h. Locking must
   go through the annotated vwise::Mutex / MutexLock / CondVar wrappers so
   Clang Thread Safety Analysis (-Wthread-safety, the VWISE_THREAD_SAFETY
   CMake option) sees every acquisition. Escape hatch for the rare
   legitimate exception: `// vwise-lint: allow(raw-mutex): <rationale>` on
   the same or preceding line — the rationale is mandatory.
7. Guarded members: in a header class that has a vwise::Mutex member,
   every data member declared after it (our convention puts the mutex
   first, then the state it protects) must carry VWISE_GUARDED_BY /
   VWISE_PT_GUARDED_BY. Atomics, CondVars, further Mutexes, and thread
   handles are exempt; anything else needs the annotation or
   `// vwise-lint: allow(unguarded-member): <rationale>`.

--self-test seeds deliberate violations (misnamed primitive, catalog /
primitives.h mismatch, an encoded-operand entry, raw assert, a
constructor that stores its child without InterposeChild, a helper that
drops one wrapper, a std::thread spawned outside src/service/, discarded
Status returns on the WAL path and in a test, a raw std::mutex, an allow()
escape with no rationale, a guarded member stripped of its
VWISE_GUARDED_BY) into a scratch copy and verifies the lint reports the
specific expected diagnostic for each.
"""

import argparse
import os
import re
import shutil
import sys
import tempfile

TYPE_TOKENS = {
    "u8": "uint8_t",
    "i32": "int32_t",
    "i64": "int64_t",
    "f64": "double",
    "str": "StringVal",
}
MAP_OPS = {"add": "OpAdd", "sub": "OpSub", "mul": "OpMul", "div": "OpDiv"}
SEL_OPS = {
    "eq": "OpEq", "ne": "OpNe", "lt": "OpLt",
    "le": "OpLe", "gt": "OpGt", "ge": "OpGe",
}
# operand-kind suffix (with %s = type token) -> required adapter kernel
MAP_KINDS = {"col_%s_col": "MapColCol", "col_%s_val": "MapColVal",
             "val_%s_col": "MapValCol"}
SEL_KINDS = {"col_%s_val": "SelColVal", "col_%s_col": "SelColCol"}
# registry adapter -> template kernel in primitives.h
ADAPTER_TO_KERNEL = {
    "MapColCol": "MapColCol",
    "MapColVal": "MapColVal",
    "MapValCol": "MapValCol",
    "SelColVal": "SelectColVal",
    "SelColCol": "SelectColCol",
}

ENTRY_RE = re.compile(
    r"^VWISE_(MAP|SEL)_PRIMITIVE\(\s*(\w+)\s*,\s*([\w:]+)\s*,"
    r"\s*(\w+)\s*,\s*(\w+)\s*\)\s*$")
MAP_NAME_RE = re.compile(
    r"^map_(?P<op>[a-z]+)_(?P<ty1>[a-z0-9]+)_"
    r"(?:col_(?P<ty2c>[a-z0-9]+)_(?P<rhs>col|val)|val_(?P<ty2v>[a-z0-9]+)_col)$")
SEL_NAME_RE = re.compile(
    r"^sel_(?P<op>[a-z]+)_(?P<ty1>[a-z0-9]+)_col_(?P<ty2>[a-z0-9]+)_"
    r"(?P<rhs>col|val)$")


class Lint:
    def __init__(self, repo):
        self.repo = repo
        self.errors = []

    def error(self, path, line, msg):
        self.errors.append(f"{path}:{line}: {msg}")

    # -- catalog ------------------------------------------------------------

    def parse_catalog(self, path):
        entries = []
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("//"):
                    continue
                m = ENTRY_RE.match(line)
                if not m:
                    self.error(path, lineno,
                               f"unparseable catalog line (expected "
                               f"name, ctype, adapter, functor): {line}")
                    continue
                entries.append((lineno, m.group(1), m.group(2), m.group(3),
                                m.group(4), m.group(5)))
        return entries

    def check_catalog(self, catalog_path, primitives_path, registry_path,
                      src_dir):
        entries = self.parse_catalog(catalog_path)
        primsrc = open(primitives_path, encoding="utf-8").read()
        declared_functors = set(re.findall(r"\bstruct\s+(Op\w+)\b", primsrc))
        declared_kernels = set(
            re.findall(r"\b(?:void|size_t)\s+(\w+)\s*\(", primsrc))

        seen_names = set()
        used_functors = set()
        used_kernels = set()
        grid = {}
        for lineno, family, name, ctype, adapter, functor in entries:
            if name in seen_names:
                self.error(catalog_path, lineno, f"duplicate primitive {name}")
                continue
            seen_names.add(name)
            used_functors.add(functor)

            name_re = MAP_NAME_RE if family == "MAP" else SEL_NAME_RE
            ops = MAP_OPS if family == "MAP" else SEL_OPS
            kinds = MAP_KINDS if family == "MAP" else SEL_KINDS
            m = name_re.match(name)
            if not m:
                self.error(catalog_path, lineno,
                           f"primitive name '{name}' violates the naming "
                           "grammar map_<op>_<ty>_col_<ty>_{col,val}")
                continue
            op = m.group("op")
            ty1 = m.group("ty1")
            ty2 = (m.group("ty2") if family == "SEL"
                   else m.group("ty2c") or m.group("ty2v"))
            if op not in ops:
                self.error(catalog_path, lineno,
                           f"'{name}': unknown op token '{op}'")
                continue
            if ty1 not in TYPE_TOKENS:
                self.error(catalog_path, lineno,
                           f"'{name}': unknown type token '{ty1}'")
                continue
            if ty1 != ty2:
                self.error(catalog_path, lineno,
                           f"'{name}': operand type tokens differ "
                           f"({ty1} vs {ty2}); mixed-type primitives are not "
                           "in the catalog grammar")
            if TYPE_TOKENS[ty1] != ctype:
                self.error(catalog_path, lineno,
                           f"'{name}': C++ type {ctype} does not match type "
                           f"token {ty1} (expected {TYPE_TOKENS[ty1]})")
            if ops[op] != functor:
                self.error(catalog_path, lineno,
                           f"'{name}': functor {functor} does not match op "
                           f"token '{op}' (expected {ops[op]})")
            kind_suffix = name[len(f"{'map' if family == 'MAP' else 'sel'}_{op}_{ty1}_"):]
            kind_fmt = kind_suffix.replace(f"_{ty2}_", "_%s_", 1)
            expected_adapter = kinds.get(kind_fmt)
            if expected_adapter is None:
                self.error(catalog_path, lineno,
                           f"'{name}': operand kind '{kind_suffix}' is not "
                           "in the grammar")
            elif expected_adapter != adapter:
                self.error(catalog_path, lineno,
                           f"'{name}': operand kind '{kind_suffix}' requires "
                           f"adapter {expected_adapter}, catalog says "
                           f"{adapter}")
            used_kernels.add(adapter)
            grid.setdefault((family, op, ty1), set()).add(kind_fmt)

        # Grid completeness: every (op, type) block lists every operand kind.
        for (family, op, ty), kinds_seen in sorted(grid.items()):
            want = set(MAP_KINDS if family == "MAP" else SEL_KINDS)
            missing = want - kinds_seen
            for kind in sorted(missing):
                self.error(catalog_path, 0,
                           f"{family.lower()}_{op} over {ty}: missing operand "
                           f"kind '{kind % ty}' (incomplete grid)")

        # 1:1 functor consistency with primitives.h.
        for f in sorted(declared_functors - used_functors):
            self.error(primitives_path, 0,
                       f"functor {f} is declared in primitives.h but not "
                       "used by any catalog entry")
        for f in sorted(used_functors - declared_functors):
            self.error(catalog_path, 0,
                       f"catalog references functor {f} which primitives.h "
                       "does not declare")

        # Every adapter's underlying kernel exists in primitives.h; kernels
        # the catalog does not cover must be used elsewhere in src/.
        catalog_kernels = set()
        for adapter in used_kernels:
            kernel = ADAPTER_TO_KERNEL.get(adapter)
            if kernel is None:
                self.error(catalog_path, 0,
                           f"catalog uses unknown adapter {adapter}")
                continue
            catalog_kernels.add(kernel)
            if kernel not in declared_kernels:
                self.error(catalog_path, 0,
                           f"catalog adapter {adapter} needs kernel {kernel} "
                           "which primitives.h does not define")
        for kernel in sorted(declared_kernels - catalog_kernels):
            if not self.kernel_used_in_src(kernel, src_dir, primitives_path):
                self.error(primitives_path, 0,
                           f"kernel {kernel} is defined in primitives.h but "
                           "neither the catalog nor any src/ file uses it")

        # The registry's dispatch table must expand the catalog rather than
        # keeping its own copy of the list.
        regsrc = open(registry_path, encoding="utf-8").read()
        if "primitive_catalog.inc" not in regsrc:
            self.error(registry_path, 0,
                       "primitive_registry.cc does not include "
                       "expr/primitive_catalog.inc — registry and catalog "
                       "can drift")

    def kernel_used_in_src(self, kernel, src_dir, primitives_path):
        pat = re.compile(r"\b(?:prim::)?" + re.escape(kernel) + r"\s*<")
        for root, _dirs, files in os.walk(src_dir):
            for fn in files:
                if not fn.endswith((".cc", ".h", ".inc")):
                    continue
                path = os.path.join(root, fn)
                if os.path.samefile(path, primitives_path):
                    continue
                if pat.search(open(path, encoding="utf-8").read()):
                    return True
        return False

    # -- operator-child wrapping --------------------------------------------

    # The wrappers themselves store the raw child; everything else must wrap.
    # PreparedQuery is the plan *owner*, not a plan operator: the root edge it
    # holds was already interposed by PlanBuilder::Build ("plan.root") before
    # it can reach a session, so wrapping again would double-count the root.
    CHECKED_EXEMPT = {"CheckedOperator", "ProfiledOperator", "PreparedQuery"}

    @staticmethod
    def balanced_parens(text, open_idx):
        """Returns (contents, index_after_close) for the paren at open_idx."""
        depth = 0
        for i in range(open_idx, len(text)):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    return text[open_idx + 1:i], i + 1
        return None, None

    def check_operator_children(self, src_dir):
        ctor_re = re.compile(
            r"(?:^|\n)[ \t]*(?:explicit\s+)?([A-Z]\w*)(?:::\1)?\s*\(")
        found = 0
        for root, _dirs, files in os.walk(src_dir):
            for fn in sorted(files):
                if not fn.endswith((".cc", ".h")):
                    continue
                path = os.path.join(root, fn)
                text = open(path, encoding="utf-8").read()
                for m in ctor_re.finditer(text):
                    params, after = self.balanced_parens(text, m.end() - 1)
                    if params is None or "OperatorPtr" not in params:
                        continue
                    # Children are OperatorPtr parameters by value; the \b
                    # keeps Tuple/column baseline types (TupleOperatorPtr)
                    # out — the baselines must NOT share the checker.
                    children = re.findall(r"\bOperatorPtr\s+(\w+)", params)
                    if not children:
                        continue
                    rest = text[after:].lstrip()
                    if not rest.startswith((":", "{")):
                        continue  # declaration — the definition is checked
                    found += 1
                    name = m.group(1)
                    if name in self.CHECKED_EXEMPT:
                        continue
                    # Scope = init list + body (up to the body's close).
                    brace = text.find("{", after)
                    depth = 0
                    end = len(text)
                    for i in range(brace, len(text)):
                        if text[i] == "{":
                            depth += 1
                        elif text[i] == "}":
                            depth -= 1
                            if depth == 0:
                                end = i + 1
                                break
                    region = text[after:end]
                    lineno = text.count("\n", 0, m.start() + 1) + 1
                    for child in children:
                        wrap = re.compile(r"InterposeChild\(\s*std::move\(\s*" +
                                          re.escape(child) + r"\b")
                        if not wrap.search(region):
                            self.error(
                                path, lineno,
                                f"{name} takes child '{child}' but does not "
                                "route it through InterposeChild(std::move("
                                f"{child}), ...) — neither the contract "
                                "checker nor the profiler can interpose on "
                                "this edge")
        if found == 0:
            self.error(src_dir, 0,
                       "operator-child pass matched no constructors — the "
                       "detection pattern has rotted; update vwise_lint.py")

    def check_interpose_helper(self, src_dir):
        """InterposeChild must apply BOTH wrappers, checker outermost.

        The operator-child pass above only proves call sites reach the
        helper; if the helper silently dropped MaybeProfiled (or
        MaybeChecked), every edge in every plan would lose that wrapper at
        once, which no per-call-site check would notice.
        """
        path = os.path.join(src_dir, "exec", "profile.cc")
        if not os.path.isfile(path):
            self.error(path, 0,
                       "exec/profile.cc is missing — InterposeChild (the "
                       "combined interposition helper) must live there")
            return
        text = open(path, encoding="utf-8").read()
        m = re.search(r"OperatorPtr\s+InterposeChild\s*\(", text)
        if m is None:
            self.error(path, 0,
                       "InterposeChild definition not found in "
                       "exec/profile.cc")
            return
        _params, after = self.balanced_parens(text, text.index("(", m.start()))
        brace = text.find("{", after)
        depth = 0
        end = len(text)
        for i in range(brace, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i + 1
                    break
        body = text[brace:end]
        lineno = text.count("\n", 0, m.start() + 1) + 1
        checked = body.find("MaybeChecked(")
        profiled = body.find("MaybeProfiled(")
        if checked < 0 or profiled < 0:
            missing = "MaybeChecked" if checked < 0 else "MaybeProfiled"
            self.error(path, lineno,
                       f"InterposeChild does not route through {missing} — "
                       "every plan edge silently loses that wrapper")
            return
        if checked > profiled:
            self.error(path, lineno,
                       "InterposeChild nests MaybeProfiled outside "
                       "MaybeChecked — the checker must be outermost so "
                       "profiled Next() time covers only the child")

    # -- repo rules ---------------------------------------------------------

    def check_repo_rules(self, src_dir):
        assert_re = re.compile(r"(?<!static_)\bassert\s*\(")
        cout_re = re.compile(r"\bstd::cout\b")
        define_re = re.compile(r"^\s*#\s*define\s+([A-Za-z_][A-Za-z0-9_]*)")
        for root, _dirs, files in os.walk(src_dir):
            for fn in sorted(files):
                if not fn.endswith((".cc", ".h", ".inc")):
                    continue
                path = os.path.join(root, fn)
                rel = os.path.relpath(path, src_dir)
                lines = open(path, encoding="utf-8").read().splitlines()
                for lineno, line in enumerate(lines, 1):
                    code = line.split("//", 1)[0]
                    if assert_re.search(code):
                        self.error(path, lineno,
                                   "raw assert() in src/ — use VWISE_CHECK "
                                   "or VWISE_DCHECK")
                    if cout_re.search(code):
                        self.error(path, lineno,
                                   "std::cout in src/ — report through "
                                   "Status, or write to stderr in tools")
                    m = define_re.match(code)
                    if m and not m.group(1).startswith("VWISE_"):
                        self.error(path, lineno,
                                   f"macro {m.group(1)} is not VWISE_-"
                                   "prefixed")
                if fn.endswith(".h"):
                    self.check_header_guard(path, rel, lines)

    # -- kernel growth -------------------------------------------------------

    # Container-growth member calls that are never acceptable inside a
    # primitive kernel: kernels run once per vector over preallocated
    # columns, so any growth call is either a hidden per-vector allocation
    # or state smuggled into what must be a pure function.
    KERNEL_GROWTH_RE = re.compile(
        r"\.\s*(push_back|emplace_back|resize|reserve)\s*\(")

    def check_kernel_growth(self, src_dir):
        """The kernel-catalog files (src/expr/primitives.h and the catalog
        itself) must not grow containers. The deep call-graph closure lives
        in tools/vwise_hotpath.py; this is the shallow always-on backstop
        that keeps the kernel source itself clean even when the analyzer is
        not run. Waive with `// vwise-lint: allow(kernel-growth): <why>`."""
        kernel_files = (
            os.path.join(src_dir, "expr", "primitives.h"),
            os.path.join(src_dir, "expr", "primitive_catalog.inc"),
        )
        for path in kernel_files:
            if not os.path.isfile(path):
                continue
            lines = open(path, encoding="utf-8").read().splitlines()
            for lineno, line in enumerate(lines, 1):
                code = line.split("//", 1)[0]
                m = self.KERNEL_GROWTH_RE.search(code)
                if not m:
                    continue
                if self.allowed(path, lines, lineno, "kernel-growth"):
                    continue
                self.error(
                    path, lineno,
                    f"container growth ({m.group(1)}) in a kernel-catalog "
                    "file — primitive kernels write into preallocated "
                    "vectors and must not allocate; hoist the state to the "
                    "operator, or waive with "
                    "`// vwise-lint: allow(kernel-growth): <why>`")

    # -- thread confinement -------------------------------------------------

    def check_thread_confinement(self, src_dir):
        """std::thread is only allowed under src/service/.

        Everything else must submit work to the shared WorkerPool (plan
        fragments) or run on a QueryService admission runner — a raw thread
        escapes admission control, the per-query memory budget, and
        cooperative cancellation. std::this_thread (sleep/yield) does not
        create threads and is not flagged.
        """
        thread_re = re.compile(r"\bstd::j?thread\b")
        for root, _dirs, files in os.walk(src_dir):
            for fn in sorted(files):
                if not fn.endswith((".cc", ".h", ".inc")):
                    continue
                path = os.path.join(root, fn)
                rel = os.path.relpath(path, src_dir)
                if rel.split(os.sep)[0] == "service":
                    continue
                lines = open(path, encoding="utf-8").read().splitlines()
                for lineno, line in enumerate(lines, 1):
                    code = line.split("//", 1)[0]
                    if thread_re.search(code):
                        self.error(
                            path, lineno,
                            "std::thread outside src/service/ — submit "
                            "fragments to the shared WorkerPool instead so "
                            "the work stays under admission control, the "
                            "memory budget, and cooperative cancellation")

    # -- thread-safety annotations -------------------------------------------

    RAW_MUTEX_RE = re.compile(
        r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
        r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
        r"shared_lock|condition_variable(?:_any)?)\b")
    ALLOW_RE = re.compile(
        r"//\s*vwise-lint:\s*allow\((?P<tag>[\w-]+)\)(?::\s*(?P<why>\S.*))?")
    MUTEX_MEMBER_RE = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+\w+\s*;")
    # A single-line data-member declaration: type tokens, then a name ending
    # in '_' (the member-naming convention), optional brace-or-= initializer.
    MEMBER_RE = re.compile(
        r"^\s*(?:mutable\s+)?[A-Za-z_][\w:]*(?:<[^;]*>)?[\s&*]+(\w+_)\s*"
        r"(?:\{[^{}]*\})?\s*(?:=[^;]*)?;")
    # Member types that legitimately live unguarded next to a Mutex.
    UNGUARDED_OK_RE = re.compile(
        r"std::atomic|CondVar|Mutex|std::thread|std::jthread")

    def allowed(self, path, lines, lineno, tag):
        """True if line `lineno` (1-based) or the one above carries
        `// vwise-lint: allow(<tag>): rationale`. An allow() without a
        rationale suppresses the finding but is itself an error — an
        unexplained escape is indistinguishable from a silenced bug."""
        for ln in (lineno, lineno - 1):
            if not 1 <= ln <= len(lines):
                continue
            m = self.ALLOW_RE.search(lines[ln - 1])
            if m and m.group("tag") == tag:
                if not m.group("why"):
                    self.error(path, ln,
                               f"vwise-lint: allow({tag}) needs a rationale: "
                               f"`// vwise-lint: allow({tag}): <why>`")
                return True
        return False

    def check_raw_mutex(self, src_dir):
        """Raw std:: synchronization primitives are confined to the wrapper
        header. Everywhere else they would be invisible to Clang Thread
        Safety Analysis: a std::lock_guard acquisition proves nothing to
        the checker, so every guarded member it protects would need a
        bogus annotation or an analysis hole."""
        wrapper = os.path.join("common", "thread_annotations.h")
        for root, _dirs, files in os.walk(src_dir):
            for fn in sorted(files):
                if not fn.endswith((".cc", ".h", ".inc")):
                    continue
                path = os.path.join(root, fn)
                if os.path.relpath(path, src_dir) == wrapper:
                    continue
                lines = open(path, encoding="utf-8").read().splitlines()
                for lineno, line in enumerate(lines, 1):
                    code = line.split("//", 1)[0]
                    m = self.RAW_MUTEX_RE.search(code)
                    if not m:
                        continue
                    if self.allowed(path, lines, lineno, "raw-mutex"):
                        continue
                    self.error(
                        path, lineno,
                        f"raw {m.group(0)} in src/ — use the annotated "
                        "vwise::Mutex / MutexLock / CondVar wrappers "
                        "(common/thread_annotations.h) so clang "
                        "-Wthread-safety sees the acquisition; if a raw "
                        "primitive is genuinely required, waive with "
                        "`// vwise-lint: allow(raw-mutex): <why>`")

    def check_guarded_members(self, src_dir):
        """Data members declared after a Mutex member in a header class must
        carry VWISE_GUARDED_BY. Our convention places the mutex first and
        the state it protects below it, so an unannotated member there is
        either shared state the analysis cannot check (annotate it) or
        genuinely lock-free state (atomic, or waive with a rationale).
        Brace-depth tracking keeps nested structs (their members live at a
        deeper depth) out of the enclosing class's mutex scope."""
        for root, _dirs, files in os.walk(src_dir):
            for fn in sorted(files):
                if not fn.endswith(".h"):
                    continue
                path = os.path.join(root, fn)
                if os.path.relpath(path, src_dir) == os.path.join(
                        "common", "thread_annotations.h"):
                    continue
                lines = open(path, encoding="utf-8").read().splitlines()
                depth = 0
                mutex_depths = []  # brace depths that contain a Mutex member
                for lineno, line in enumerate(lines, 1):
                    code = line.split("//", 1)[0]
                    while mutex_depths and depth < mutex_depths[-1]:
                        mutex_depths.pop()
                    in_scope = bool(mutex_depths) and depth == mutex_depths[-1]
                    if self.MUTEX_MEMBER_RE.match(code):
                        if not in_scope:
                            mutex_depths.append(depth)
                    elif in_scope and \
                            "VWISE_GUARDED_BY" not in code and \
                            "VWISE_PT_GUARDED_BY" not in code and \
                            "(" not in code and \
                            not self.UNGUARDED_OK_RE.search(code):
                        m = self.MEMBER_RE.match(code)
                        if m and not self.allowed(path, lines, lineno,
                                                  "unguarded-member"):
                            self.error(
                                path, lineno,
                                f"member '{m.group(1)}' is declared after a "
                                "Mutex but carries no VWISE_GUARDED_BY — "
                                "annotate it with the mutex that protects "
                                "it, or waive with `// vwise-lint: "
                                "allow(unguarded-member): <why>`")
                    depth += code.count("{") - code.count("}")

    # -- discarded Status/Result returns --------------------------------------

    STATUS_DECL_RE = re.compile(
        r"\b(?:Status|Result<[^;{}()]{1,80}>)\s+(?:[A-Z]\w*::)?"
        r"([A-Za-z_]\w*)\s*\(")
    VOID_DECL_RE = re.compile(r"\bvoid\s+(?:[A-Z]\w*::)?([A-Za-z_]\w*)\s*\(")
    # Builder-style members returning a reference (PlanBuilder& Select,
    # Json& Append): discarding the reference is fine, and the name can
    # collide with a Status-returning declaration elsewhere.
    REF_DECL_RE = re.compile(
        r"\b[A-Za-z_][\w:<>]*&\s+(?:[A-Z]\w*::)?([A-Za-z_]\w*)\s*\(")
    CALL_STMT_RE = re.compile(
        r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\(")
    CONTROL_KEYWORDS = {"if", "for", "while", "switch", "return", "case",
                        "else", "do", "sizeof", "catch", "delete", "new"}

    def collect_status_names(self, roots):
        """Names declared under `roots` with a Status or Result return."""
        status_names, other_names = set(), set()
        for top in roots:
            for root, _dirs, files in os.walk(top):
                for fn in files:
                    if not fn.endswith((".cc", ".h")):
                        continue
                    text = open(os.path.join(root, fn),
                                encoding="utf-8").read()
                    status_names.update(self.STATUS_DECL_RE.findall(text))
                    other_names.update(self.VOID_DECL_RE.findall(text))
                    other_names.update(self.REF_DECL_RE.findall(text))
        # A name that is void (or a discardable builder reference) in one
        # class and Status in another (Reset: DataChunk vs Wal; Select:
        # PlanBuilder vs Filter) cannot be judged by name alone — skip it.
        return status_names - other_names

    def check_discarded_status(self, repo):
        """Expression-statement calls that drop a Status/Result return.

        In src/, scoped to the durability-critical trees (storage, txn,
        pdt) where a swallowed error means silent data loss rather than a
        wrong answer. tests/ and bench/ are scanned in full: a test that
        drops a setup Status keeps passing after the thing it exercises
        breaks, and a bench that drops one measures a failed run.
        """
        src = os.path.join(repo, "src")
        scan_roots = [os.path.join(src, sub)
                      for sub in ("storage", "txn", "pdt")]
        decl_roots = [src]
        for extra in ("tests", "bench"):
            d = os.path.join(repo, extra)
            if os.path.isdir(d):  # the self-test scratch may omit them
                scan_roots.append(d)
                decl_roots.append(d)
        names = self.collect_status_names(decl_roots)
        for tdir in scan_roots:
            for root, dirs, files in os.walk(tdir):
                # tests/compile_fail/ holds *deliberate* violations — the
                # negative compile checks prove the compiler rejects them.
                dirs[:] = [d for d in dirs if d != "compile_fail"]
                for fn in sorted(files):
                    if not fn.endswith((".cc", ".h")):
                        continue
                    path = os.path.join(root, fn)
                    lines = open(path, encoding="utf-8").read().splitlines()
                    prev_code = ""
                    for lineno, line in enumerate(lines, 1):
                        code = line.split("//", 1)[0].rstrip()
                        prev, prev_code = prev_code, code or prev_code
                        if not code:
                            continue
                        # Only statement starts: the previous code line must
                        # have closed a statement or opened a block, so that
                        # continuation lines of a multi-line call (which can
                        # themselves look like `foo->Read(...)`) are skipped.
                        if prev and not prev.endswith(("{", "}", ";", ":")):
                            continue
                        if "=" in code or "(void)" in code:
                            continue
                        m = self.CALL_STMT_RE.match(code)
                        if not m:
                            continue
                        name = m.group(1)
                        first = code.lstrip().split("(")[0].split("::")[0]
                        first = first.split("->")[0].split(".")[0].strip()
                        if first in self.CONTROL_KEYWORDS or \
                                first.startswith("VWISE_"):
                            continue
                        if name in self.CONTROL_KEYWORDS or \
                                name.startswith("VWISE_"):
                            continue
                        if name in names:
                            self.error(
                                path, lineno,
                                f"call to {name}() discards its Status/"
                                "Result — check it, propagate it with "
                                "VWISE_RETURN_IF_ERROR, or waive it "
                                "explicitly with (void)")

    def check_header_guard(self, path, rel, lines):
        expected = "VWISE_" + re.sub(r"[/.]", "_", rel).upper() + "_"
        ifndef = define = None
        for lineno, line in enumerate(lines, 1):
            s = line.strip()
            if ifndef is None and s.startswith("#ifndef "):
                ifndef = (lineno, s.split()[1])
                continue
            if ifndef is not None and s.startswith("#define "):
                define = (lineno, s.split()[1])
                break
        if ifndef is None or define is None:
            self.error(path, 1, "missing include guard "
                       f"(expected {expected})")
            return
        if ifndef[1] != expected:
            self.error(path, ifndef[0],
                       f"include guard {ifndef[1]} should be {expected}")
        elif define[1] != ifndef[1]:
            self.error(path, define[0],
                       f"include-guard #define {define[1]} does not match "
                       f"#ifndef {ifndef[1]}")


def run_lint(repo):
    src = os.path.join(repo, "src")
    lint = Lint(repo)
    lint.check_catalog(
        catalog_path=os.path.join(src, "expr", "primitive_catalog.inc"),
        primitives_path=os.path.join(src, "expr", "primitives.h"),
        registry_path=os.path.join(src, "expr", "primitive_registry.cc"),
        src_dir=src)
    lint.check_repo_rules(src)
    lint.check_kernel_growth(src)
    lint.check_operator_children(src)
    lint.check_interpose_helper(src)
    lint.check_thread_confinement(src)
    lint.check_raw_mutex(src)
    lint.check_guarded_members(src)
    lint.check_discarded_status(repo)
    return lint.errors


def self_test(repo):
    """Seeds violations into a scratch copy; the lint must report the
    expected diagnostic for each (substring match — 'some error appeared'
    is not enough, since an unrelated pass could mask a broken one)."""
    failures = []

    def seeded_errors(patch):
        with tempfile.TemporaryDirectory(prefix="vwise_lint_") as tmp:
            for sub in ("src", "tests", "bench"):
                d = os.path.join(repo, sub)
                if os.path.isdir(d):
                    shutil.copytree(d, os.path.join(tmp, sub))
            patch(tmp)
            return run_lint(tmp)

    def patch_file(tmp, rel, old, new):
        path = os.path.join(tmp, rel)
        text = open(path, encoding="utf-8").read()
        if old not in text:
            raise RuntimeError(f"self-test patch anchor missing in {rel}")
        open(path, "w", encoding="utf-8").write(text.replace(old, new, 1))

    # label -> (patch, substring the diagnostics must contain)
    cases = {
        # Misnamed primitive: type tokens disagree.
        "misnamed primitive": (lambda tmp: patch_file(
            tmp, os.path.join("src", "expr", "primitive_catalog.inc"),
            "VWISE_MAP_PRIMITIVE(map_add_i64_col_i64_col, int64_t, "
            "MapColCol, OpAdd)",
            "VWISE_MAP_PRIMITIVE(map_add_i64_col_f64_col, int64_t, "
            "MapColCol, OpAdd)"), "type tokens differ"),
        # Grammar violation: op token not in the grammar.
        "unknown op token": (lambda tmp: patch_file(
            tmp, os.path.join("src", "expr", "primitive_catalog.inc"),
            "VWISE_SEL_PRIMITIVE(sel_eq_u8_col_u8_val, uint8_t, "
            "SelColVal, OpEq)",
            "VWISE_SEL_PRIMITIVE(sel_equals_u8_col_u8_val, uint8_t, "
            "SelColVal, OpEq)"), "unknown op token"),
        # Every codec decodes flat at the scan: a kernel over an encoded
        # operand (here PDICT codes) is outside the grammar.
        "encoded-operand entry": (lambda tmp: patch_file(
            tmp, os.path.join("src", "expr", "primitive_catalog.inc"),
            "VWISE_SEL_PRIMITIVE(sel_ne_str_col_str_val, StringVal, "
            "SelColVal, OpNe)",
            "VWISE_SEL_PRIMITIVE(sel_ne_str_col_str_val, StringVal, "
            "SelColVal, OpNe)\n"
            "VWISE_SEL_PRIMITIVE(sel_ne_str_dict_str_val, StringVal, "
            "SelColVal, OpNe)"), "naming grammar"),
        # primitives.h / catalog drift: a functor disappears.
        "catalog/primitives.h mismatch": (lambda tmp: patch_file(
            tmp, os.path.join("src", "expr", "primitives.h"),
            "struct OpAdd", "struct OpAddRenamed"), "does not declare"),
        # Repo rule: raw assert in src/.
        "raw assert": (lambda tmp: patch_file(
            tmp, os.path.join("src", "vector", "chunk.cc"),
            "namespace vwise {", "namespace vwise {\nstatic void "
            "SelfTestSeed() { assert(1 == 1); }"), "raw assert"),
        # Repo rule: broken header guard.
        "wrong header guard": (lambda tmp: patch_file(
            tmp, os.path.join("src", "common", "config.h"),
            "#ifndef VWISE_COMMON_CONFIG_H_",
            "#ifndef VWISE_CONFIG_H_"), "include guard"),
        # Operator child stored without the interposition helper.
        "unwrapped operator child": (lambda tmp: patch_file(
            tmp, os.path.join("src", "exec", "select.cc"),
            'InterposeChild(std::move(child), config, "select.child")',
            "std::move(child)"), "InterposeChild"),
        # Helper silently drops the profiler wrapper: every call site still
        # lints clean, so only the helper check can catch this.
        "interpose helper drops profiler": (lambda tmp: patch_file(
            tmp, os.path.join("src", "exec", "profile.cc"),
            "MaybeChecked(MaybeProfiled(std::move(op), config, label), "
            "config,\n                      label)",
            "MaybeChecked(std::move(op), config, label)"), "MaybeProfiled"),
        # A raw thread spawned outside src/service/ — bypasses the pool.
        "thread outside service": (lambda tmp: patch_file(
            tmp, os.path.join("src", "exec", "scan.cc"),
            "namespace vwise {", "namespace vwise {\nstatic void "
            "SelfTestSeed() { std::thread t; t.join(); }"),
            "std::thread outside src/service/"),
        # A dropped Status on the WAL durability path: the sync error would
        # be swallowed and the commit acknowledged anyway.
        "discarded Status return": (lambda tmp: patch_file(
            tmp, os.path.join("src", "txn", "wal.cc"),
            "  VWISE_RETURN_IF_ERROR(file_->Truncate(0));",
            "  file_->Sync();\n  VWISE_RETURN_IF_ERROR(file_->Truncate(0));"),
            "discards its Status"),
        # A dropped Status in a test: the test keeps passing after the
        # checkpoint it claims to exercise starts failing.
        "discarded Status in tests": (lambda tmp: patch_file(
            tmp, os.path.join("tests", "txn_test.cc"),
            "namespace {", "namespace {\nvoid SelfTestSeed(Wal* wal) "
            "{\n  wal->Sync();\n}"), "discards its Status"),
        # A kernel-catalog file growing a container: the shallow always-on
        # backstop behind tools/vwise_hotpath.py's call-graph closure.
        "container growth in kernel file": (lambda tmp: patch_file(
            tmp, os.path.join("src", "expr", "primitives.h"),
            "struct OpAdd",
            "inline void SeedGrow(std::vector<int>& v) { v.push_back(1); }\n"
            "struct OpAdd"), "container growth"),
        # A raw std::mutex in src/: invisible to clang -Wthread-safety.
        "raw std::mutex": (lambda tmp: patch_file(
            tmp, os.path.join("src", "storage", "buffer_manager.h"),
            "mutable Mutex mu_;", "mutable std::mutex mu_;"),
            "raw std::mutex"),
        # A raw lock over the wrapper's own mutex in a .cc file.
        "raw std::lock_guard": (lambda tmp: patch_file(
            tmp, os.path.join("src", "storage", "buffer_manager.cc"),
            "  MutexLock lock(&mu_);",
            "  std::lock_guard<std::mutex> lock(raw_mu_);"),
            "raw std::lock_guard"),
        # An allow() escape with no rationale: suppresses the raw-mutex
        # finding but must itself be flagged.
        "allow() without rationale": (lambda tmp: patch_file(
            tmp, os.path.join("src", "storage", "buffer_manager.h"),
            "mutable Mutex mu_;",
            "mutable Mutex mu_;\n  // vwise-lint: allow(raw-mutex)\n"
            "  std::mutex extra_mu_;"), "needs a rationale"),
        # A member after the Mutex stripped of its guard annotation.
        "unguarded member after Mutex": (lambda tmp: patch_file(
            tmp, os.path.join("src", "storage", "buffer_manager.h"),
            "size_t bytes_cached_ VWISE_GUARDED_BY(mu_) = 0;",
            "size_t bytes_cached_ = 0;"), "no VWISE_GUARDED_BY"),
        # The memory governor regressing to a raw mutex: its stats lock is a
        # documented leaf in the service lock order, which only holds if the
        # annotated wrapper keeps it visible to -Wthread-safety.
        "raw mutex in memory governor": (lambda tmp: patch_file(
            tmp, os.path.join("src", "service", "memory_governor.h"),
            "mutable Mutex mu_;", "mutable std::mutex mu_;"),
            "raw std::mutex"),
        # Governor stats losing their guard: admission/shed counters are
        # updated from every runner thread.
        "unguarded governor stats": (lambda tmp: patch_file(
            tmp, os.path.join("src", "service", "memory_governor.h"),
            "Stats stats_ VWISE_GUARDED_BY(mu_);",
            "Stats stats_;"), "no VWISE_GUARDED_BY"),
    }
    for label, (patch, expect) in cases.items():
        errs = seeded_errors(patch)
        hits = [e for e in errs if expect in e]
        if hits:
            print(f"self-test [{label}]: caught ({hits[0]})")
        elif errs:
            failures.append(label)
            print(f"self-test [{label}]: wrong diagnostic (wanted "
                  f"'{expect}', got: {errs[0]})")
        else:
            failures.append(label)
            print(f"self-test [{label}]: NOT caught")

    clean = run_lint(repo)
    if clean:
        failures.append("clean tree")
        print("self-test [clean tree]: unexpected errors:")
        for e in clean:
            print("  " + e)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", default=".", help="repository root")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the lint catches seeded violations")
    args = ap.parse_args()
    repo = os.path.abspath(args.repo)
    if not os.path.isdir(os.path.join(repo, "src")):
        print(f"vwise_lint: {args.repo!r} is not a vwise repo root (no src/)")
        return 2

    if args.self_test:
        failures = self_test(repo)
        if failures:
            print(f"vwise_lint self-test FAILED: {', '.join(failures)}")
            return 1
        print("vwise_lint self-test passed")
        return 0

    errors = run_lint(repo)
    for e in errors:
        print(e)
    if errors:
        print(f"vwise_lint: {len(errors)} error(s)")
        return 1
    print("vwise_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

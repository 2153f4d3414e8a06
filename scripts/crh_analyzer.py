#!/usr/bin/env python3
"""Static analyzer for CRH's determinism, error-path, locking and layering
contracts: the repo's one analyzer, with one baseline, one SARIF log and one
allow syntax.

It ingests compile_commands.json and builds a program model (function table
+ call graph) over src/ and bench/. The whole-program checks read that
model; the file-local checks read every first-party C++ file under src/,
tests/, bench/, examples/ and fuzz/. Fifteen checks; the ones with several
clauses name each clause, and the self-test corpus pairs a firing and a
silent case with every clause:

  determinism-taint     Values derived from wall-clock time (`::now(`,
                        `time(`, `clock_gettime`), unseeded RNG (`rand(`,
                        `std::random_device`), the environment (`getenv`),
                        pointer addresses (`reinterpret_cast<uintptr_t>`),
                        or unordered-container iteration order must not
                        flow — through calls and returns — into published
                        truths, weights, checkpoints, or bench/CLI output.
                        The barrier is `CRH_DETERMINISM_EXEMPT("why")`
                        (src/common/determinism.h): a function carrying it
                        vouches that nondeterminism does not escape its
                        return value (e.g. Stopwatch, which only ever
                        feeds timing reports). Three clauses need no sink:
                        `determinism`: src/core, src/weights and src/stream
                        may not call a raw clock syscall, C rand, random
                        device or getenv at all (they go through the
                        common/ shims); `nondeterminism`: no file may use
                        std::rand/srand or seed from time(nullptr);
                        `unordered-iteration`: no range-for over an
                        unordered container in src/.
  status-path           Every call to a Status/Result-returning function
                        is propagated, handled, or annotated. Reported
                        per call-path: the finding names a representative
                        entry-point → ... → offender chain so the blast
                        radius of the dropped error is visible. Clauses:
                        Callees resolve by the receiver's declared type
                        or the call's qualifier where the model finds
                        them, so a void `ThreadPool::Run` never counts as
                        a dropped `Result<...> Run`. `unchecked-status`
                        extends the statement-level drop of a Status or
                        Result to tests/, examples/ and fuzz/;
                        `void-cast-result`
                        rejects a `(void)` cast of a Result in src/ (a
                        Status may be voided deliberately, a Result may
                        not: it discards a value and an error).
  lock-order            Lock-acquisition order is extracted from MutexLock
                        scopes across all TUs into a digraph; cycles are
                        rejected, as is any fail-point evaluation or
                        std::function callback invocation made while a lock
                        is held — directly (clause `lock-across-callback`)
                        or through a call into a function that
                        (transitively) does one.
  failpoint-dominance   Every raw I/O call (fopen/fwrite/rename/ofstream/
                        std::filesystem mutation, socket/accept/recv/send,
                        ...) in src/stream, src/common, src/data and
                        src/serve must be dominated by a
                        registered fail point in the same function, and
                        every fail-point site string used must appear in a
                        `*FailPointSites()` registry so fault-sweep tests
                        cover it. Writes to stderr/stdout are exempt
                        (crash reporting must not fault-inject).
  mutex-no-guard        A crh::Mutex / std::mutex member in src/ must be
                        named by a CRH_GUARDED_BY / CRH_REQUIRES / ...
                        annotation in its file, and (clause
                        `mutex-annotations`) any header in scope declaring
                        a Mutex/CondVar/std::mutex/std::condition_variable
                        member must include common/thread_annotations.h and
                        use a CRH_* annotation: an unannotated lock is
                        invisible to clang's -Wthread-safety.

two reason about the serving daemon's attack surface (bytes arrive from
outside the process):

  taint                 Byte-derived values are untrusted at their source
                        — socket reads and protocol/chunk field decodes in
                        src/serve (recv, ParseJsonObject, the JsonObject
                        getters, ChunkCodec::Decode), CSV fields in
                        src/data (CsvTokenizer::field, strtod/strtoll), and
                        checkpoint payload reads in src/stream
                        (DecodeCheckpoint, Cursor::Read*). Taint
                        propagates through assignments and the cross-TU
                        call graph (a function returning an unsanitized
                        tainted value taints its callers' results) into
                        sinks: allocation sizes (resize/reserve/new[]),
                        container indexing and `.data() + offset`
                        arithmetic, memcpy/memmove/memset lengths, and
                        for-loop bounds. Every source→sink path must
                        dominate through a sanitizer first: an `if`/
                        CRH_CHECK/CRH_VERIFY_OR_RETURN range comparison
                        naming the tainted value on an earlier (or the
                        same) line, or the CRH_SANITIZED(expr, "why")
                        escape hatch (src/common/taint.h). CRH_SANITIZED
                        wrapping a value the analyzer does not track as
                        tainted is itself a finding — the escape hatch
                        may only bless real untrusted data.
  snapshot-lifetime     No raw pointer, reference, or view derived from an
                        epoch ServeSnapshot (src/serve/snapshot.h) may
                        escape the scope of the owning shared_ptr: a
                        view-returning function must not return
                        `snap->...`/`snap.get()`, members must not store
                        addresses derived from a snapshot, and lambdas
                        must not capture a snapshot variable by
                        reference. Copying values out, returning the
                        shared_ptr itself, and by-value captures stay
                        legal — they pin or outlive the epoch swap.

three architecture-conformance checks (the layer contract lives in
scripts/arch_layers.json; see docs/DESIGN.md for the diagram):

  arch                  Every `#include "module/..."` and cross-TU call
                        edge must point at the same module or a strictly
                        earlier layer of the committed layer DAG. Peer
                        modules within a layer may not depend on each
                        other; headers listed under `private_headers` may
                        only be included by the modules named there.
  global-state          Library layers must be snapshot-safe: no mutable
                        namespace-scope variables, no mutable function-
                        local statics (singletons) anywhere under src/
                        except src/tools. The escape hatch is
                        CRH_GLOBAL_STATE_EXEMPT("why")
                        (src/common/global_state.h): place it on or
                        directly above a namespace-scope declaration, or
                        anywhere in the function owning a static local.
  hot                   Functions annotated CRH_HOT (src/common/hot.h) —
                        the solver's per-shard kernels — must be
                        real-time safe: no allocation (new/malloc/
                        make_unique/container growth/std::to_string), no
                        std::function construction or invocation, no
                        Mutex acquisition, no blocking I/O, no throw, no
                        fail-point evaluation — transitively, through
                        every resolvable callee.

and five line checks over every scanned file:

  include-cc            No `#include` of a `.cc` file: translation units
                        are compiled exactly once, by CMake.
  naked-new             No naked `new` / `delete` outside src/common/.
  raw-assert            No raw `assert(` outside tests/: library code uses
                        CRH_CHECK / CRH_DCHECK (src/common/check.h).
  float-equality        No `==` / `!=` against a floating-point literal or
                        a Value's continuous payload in src/; compare with
                        a tolerance (bitwise round-trips carry an allow).
  unchecked-io-write    Every fwrite/fflush/rename/fclose return value is
                        checked: a full disk surfaces exactly there.

Suppress one line with a trailing `// analyzer:allow(<check>)`. Findings are
gated against scripts/crh_analyzer_baseline.txt: new findings fail, stale
entries fail (delete them or run --update-baseline). Exit 0 clean, 1
findings, 2 tooling error.

`--check=a,b` restricts a run (and the self-test gate) to a subset of
checks; `--graph` prints the observed module graph as Graphviz dot;
`--graph-svg OUT` renders the layer diagram as a deterministic SVG (CI
diffs it against docs/architecture.svg to keep the picture honest).

Backends: the tokenizer frontend is canonical and runs everywhere; with
python3-clang installed, a hybrid libclang backend uses the real AST for
function boundaries and qualified names and feeds the same intra-body
extractor (the file-local checks are lexical on both). Both must pass the
embedded multi-TU self-test corpus before a tree run counts; a misbehaving
libclang degrades loudly to the tokenizer.

Usage: scripts/crh_analyzer.py [--compile-commands PATH] [--self-test]
         [--backend=auto|libclang|token] [--check=LIST] [--graph]
         [--graph-svg OUT.svg] [--sarif OUT.sarif] [--stats]
         [--budget JSON] [--update-baseline] [--no-baseline] [paths...]
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import re
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "scripts" / "crh_analyzer_baseline.txt"
CXX_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

ALLOW_RE = re.compile(r"//\s*analyzer:allow\(([\w-]+)\)")

# Model scope: first-party library + the binaries that publish results.
# The whole-program checks (call graph, locks, taint) see only these.
DEFAULT_DIRS = ["src", "bench"]
# File-local scope: every first-party C++ tree. Files outside the model are
# read by the line checks and the file-level clauses only.
SCANNED_DIRS = ["src", "tests", "bench", "examples", "fuzz"]
# Fail-point dominance applies where durable I/O lives — and in the serving
# layer, whose socket calls are the daemon's I/O surface.
IO_SCOPED_DIRS = ("src/stream/", "src/common/", "src/data/", "src/serve/")
# The lock/fail-point primitives themselves are excluded from the rules
# they implement.
PRIMITIVE_FILES = {
    "src/common/mutex.h",
    "src/common/fault_injection.h",
    "src/common/fault_injection.cc",
    "src/common/determinism.h",
    "src/common/hot.h",
    "src/common/global_state.h",
    "src/common/taint.h",
}

RULE_DOCS = {
    "determinism-taint": "nondeterministic value can reach a published "
                         "output (checkpoint, CSV, bench/CLI report)",
    "status-path": "Status/Result-returning call dropped on an "
                   "entry-point-reachable path",
    "lock-order": "lock-acquisition cycle, or lock held across a "
                  "fail-point/callback boundary",
    "failpoint-dominance": "raw I/O call not dominated by a registered "
                           "fail point, or fail-point site not registered",
    "taint": "untrusted byte-derived value reaches an allocation size, "
             "index, copy length, or loop bound without a dominating "
             "bounds check (or CRH_SANITIZED is misused on trusted data)",
    "snapshot-lifetime": "raw pointer/view derived from an epoch "
                         "ServeSnapshot escapes the owning shared_ptr's "
                         "scope (returned, stored in a member, or "
                         "captured by reference)",
    "arch": "include or call edge violates the committed layer DAG "
            "(scripts/arch_layers.json), or a private header leaks",
    "global-state": "mutable global/static state in a library layer "
                    "breaks epoch-snapshot isolation",
    "hot": "CRH_HOT function (transitively) allocates, locks, blocks, "
           "throws, or evaluates a fail point",
    "mutex-no-guard": "lock member whose protected state carries no "
                      "thread-safety annotation",
    "include-cc": "#include of a .cc file",
    "naked-new": "naked new/delete outside src/common/",
    "raw-assert": "raw assert() outside tests/",
    "float-equality": "exact ==/!= on a floating-point value",
    "unchecked-io-write": "fwrite/fflush/rename/fclose return dropped",
}

# --- determinism-taint configuration -------------------------------------
# (pattern, description, banned outright in DETERMINISM_DIRS). A `::now()`
# or a pointer cast there is legal but tracked to the sinks like any other
# source; the raw C-level sources are not allowed in those layers at all.
TAINT_SOURCE_RES = [
    (re.compile(r"::now\s*\("), "a wall/steady clock read (`::now()`)",
     False),
    (re.compile(r"(?<![\w.:])time\s*\("), "a `time()` call", True),
    (re.compile(r"\bclock_gettime\s*\(|\bgettimeofday\s*\("),
     "a raw clock syscall", True),
    (re.compile(r"std::random_device\b"), "std::random_device", True),
    (re.compile(r"(?<![\w.:])s?rand\s*\("), "unseeded C rand()", True),
    (re.compile(r"(?<![\w.:])getenv\s*\(|std::getenv\b"),
     "an environment variable read", True),
    (re.compile(r"reinterpret_cast\s*<\s*(?:std::)?u?intptr_t"),
     "a pointer address cast to integer", False),
]
# The layers whose bit-identity at every thread count and across
# kill-and-resume is the product guarantee: they reach clocks, entropy and
# the environment only through the common/ shims.
DETERMINISM_DIRS = ("src/core/", "src/weights/", "src/stream/")
# Anywhere: C rand and time-based seeding (use the seeded crh::Rng).
UNSEEDED_RE = re.compile(
    r"std::rand\b|[^\w.]s?rand\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*[*&]{0,2}\s*"
    r"(\w+)\s*[;{=(,)]")
UNORDERED_ALIAS_RE = re.compile(
    r"using\s+(\w+)\s*=\s*std::unordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^;)]*)\)")
EXEMPT_RE = re.compile(r"\bCRH_DETERMINISM_EXEMPT\s*\(")

# Functions whose output is published program state: checkpoint bytes, CSV
# rows, and the mains of bench/CLI binaries (their stdout/JSON is the
# artifact the paper's figures are rebuilt from).
TAINT_SINKS = {
    "EncodeCheckpoint",
    "CheckpointManager::Save",
    "WriteObservationsCsv",
    "WriteGroundTruthCsv",
}
SINK_MAIN_DIRS = ("bench/", "src/tools/")

# --- status-path configuration -------------------------------------------
STATUS_DECL_RE = re.compile(
    r"(?:^|[;{}]|\n)\s*(?:\[\[nodiscard\]\]\s*)?(?:static\s+|virtual\s+)?"
    r"(?:crh::)?(Status|Result)(?:<[^;{}=]{1,120}?>)?\s+(?:([\w:]+)::)?(\w+)\s*\(")
STATUS_FACTORIES = {
    "OK", "InvalidArgument", "OutOfRange", "NotFound", "AlreadyExists",
    "FailedPrecondition", "IOError", "NotImplemented", "Internal",
}
# A statement that is one call: (receiver chain, e.g. `a.b->`; the callee).
CALL_STMT_RE = re.compile(
    r"^\s*((?:[\w\]\[]+(?:\.|->))*)(\w+)\s*\(.*\)\s*;\s*$")
VOID_CAST_RE = re.compile(r"\(\s*void\s*\)\s*((?:[\w:]+(?:\.|->|::))*)(\w+)\s*\(")
# Wrappers whose element type is what a `->` call on them reaches.
POINTER_LIKE_RE = re.compile(
    r"^(?:std::)?(?:optional|unique_ptr|shared_ptr|weak_ptr)\s*<\s*(.*)>$")
# The type ending right before a declared name: `Type `, `ns::T<U>& `.
DECL_TYPE_RE = re.compile(r"(?<![\w:])([A-Za-z_][\w:]*(?:<[^;{}()]*>)?)"
                          r"\s*[&*]*\s+$")
CXX_NON_TYPES = {"return", "else", "case", "delete", "new", "throw", "co_return",
                 "goto", "using", "typedef", "operator", "sizeof", "const"}

# --- lock-order configuration --------------------------------------------
LOCK_DECL_RE = re.compile(
    r"(?:crh::)?MutexLock\s+\w+\s*[({]\s*&?([\w.>-]+)"
    r"|std::(?:lock_guard|unique_lock|scoped_lock)\s*<[^>]*>\s+\w+\s*[({]\s*([\w.>-]+)")
MANUAL_LOCK_RE = re.compile(r"\b([\w.>-]*\w)\s*\.\s*Lock\s*\(\s*\)")
MANUAL_UNLOCK_RE = re.compile(r"\b([\w.>-]*\w)\s*\.\s*Unlock\s*\(\s*\)")
ADOPT_LOCK_RE = re.compile(r"std::adopt_lock")
FAIL_POINT_CALL_RE = re.compile(
    r"\bCRH_FAIL_POINT\s*\(|\bFailPoints\b[^;\n]*\.\s*Hit(?:Write)?\s*\(")
FUNCTION_OBJ_RE = re.compile(
    r"std::function\s*<[^;]*?>\s*[*&]?\s*[*&]?(\w+)\s*[;,)=]")

# --- mutex-no-guard configuration ------------------------------------------
LOCK_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:crh::)?(Mutex|CondVar|std::mutex|"
    r"std::condition_variable(?:_any)?)\s+(\w+)\s*;")
GUARD_USE_RE = re.compile(
    r"CRH_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES|ACQUIRE|RELEASE|"
    r"RETURN_CAPABILITY|ASSERT_CAPABILITY)\s*\(\s*(?:this\s*->\s*)?[&*]?(\w+)")
ANNOTATION_USE_RE = re.compile(
    r"\bCRH_(?:CAPABILITY|SCOPED_CAPABILITY|GUARDED_BY|PT_GUARDED_BY|"
    r"ACQUIRE|RELEASE|REQUIRES|EXCLUDES|RETURN_CAPABILITY|ASSERT_CAPABILITY)\b")
# The wrapper owning the raw std::mutex, and the macro header itself.
MUTEX_EXEMPT_FILES = {"src/common/mutex.h", "src/common/thread_annotations.h"}

# --- line checks -----------------------------------------------------------
# A floating-point literal (1.0, .5, 2.5e-3, 1.f) or the continuous payload
# of a Value (`.continuous()` accessor / `continuous_` member), on either
# side of == or !=. Heuristic by design: it cannot see declared types, but
# these two shapes cover the double comparisons this codebase performs.
_FLOAT_OPERAND = r"(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?f?"
_CONTINUOUS_OPERAND = r"(?:\.|->)continuous\(\)|\bcontinuous_"
# check -> (applies to repo-relative path, pattern over the stripped line,
# message). include-cc reads the raw line of a preprocessor directive,
# since stripping blanks the quoted include path. A pattern that finds
# nothing in a whole file finds nothing in any of its lines, so each file
# is searched once before its lines are.
LINE_CHECKS = {
    "include-cc": (
        lambda rel: True,
        re.compile(r'#\s*include\s+["<][^">]+\.cc[">]'),
        "do not #include .cc files"),
    "naked-new": (
        lambda rel: not rel.startswith("src/common/"),
        re.compile(r"(?:^|[^\w.])new\s+[A-Za-z_:<(]"
                   r"|(?:^|[^\w.])delete(?:\s*\[\s*\])?\s+[A-Za-z_*(]"),
        "naked new/delete outside src/common/; own memory through a "
        "container or smart pointer"),
    "raw-assert": (
        lambda rel: not rel.startswith("tests/"),
        re.compile(r"(?:^|[^\w])assert\s*\("),
        "use CRH_CHECK/CRH_DCHECK instead of assert()"),
    "float-equality": (
        lambda rel: rel.startswith("src/"),
        re.compile(rf"(?:{_FLOAT_OPERAND}|{_CONTINUOUS_OPERAND})\s*[!=]=(?!=)"
                   rf"|[!=]=\s*[-+]?(?:{_FLOAT_OPERAND}|{_CONTINUOUS_OPERAND})"),
        "exact ==/!= on a double; use NearlyEqual or an explicit tolerance "
        "(analyzer:allow(float-equality) if intentional)"),
    "unchecked-io-write": (
        lambda rel: True,
        re.compile(r"^[ \t]*(?:\(void\)\s*)?(?:std::)?(?:fwrite|fflush|rename|"
                   r"fclose)\s*\(.*\)\s*;\s*$", re.M),
        "fwrite/fflush/rename/fclose return value is dropped; a failed "
        "write or close is how torn output happens "
        "(analyzer:allow(unchecked-io-write) if intentional)"),
}

# --- failpoint-dominance configuration -----------------------------------
IO_CALL_RE = re.compile(
    r"\b(?:std::)?(fopen|fwrite|fread|fflush|fclose|rename|remove|fputs|"
    r"fprintf|fscanf|fseek|ftell)\s*\("
    r"|\bstd::(ofstream|ifstream|fstream)\s+\w+\s*[({]"
    r"|\bstd::filesystem::(create_directories|create_directory|remove_all|"
    r"remove|rename|resize_file|directory_iterator)\s*\("
    # The serving layer's I/O surface. poll/close/pipe are deliberately
    # absent: they are control-plane plumbing whose failure modes the
    # fail-point registry does not model.
    r"|\b(socket|bind|listen|accept4|accept|recvmsg|recv|sendmsg|send)\s*\(")
FAIL_SITE_RE = re.compile(
    r"(?:CRH_FAIL_POINT|\.\s*Hit(?:Write)?)\s*\(\s*\"([^\"]+)\"")
REGISTRY_FN_RE = re.compile(r"\w*FailPointSites$")
STRING_LIT_RE = re.compile(r"\"([\w.]+)\"")

# --- arch configuration ----------------------------------------------------
ARCH_MANIFEST = REPO_ROOT / "scripts" / "arch_layers.json"
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

# --- global-state configuration --------------------------------------------
GLOBAL_STATE_SCOPE = "src/"
GLOBAL_STATE_EXCLUDED = ("src/tools/",)
GLOBAL_EXEMPT_MACRO = "CRH_GLOBAL_STATE_EXEMPT"
# Namespace-scope statements that declare something other than a mutable
# variable (types, aliases, constants, templates, externs, ...).
GLOBAL_SKIP_RE = re.compile(
    r"\b(?:const|constexpr|constinit|using|typedef|extern|friend|enum|class|"
    r"struct|union|namespace|template|static_assert|operator)\b")
GLOBAL_DECL_RE = re.compile(
    r"^(?:inline\s+|static\s+|thread_local\s+)*"
    r"[A-Za-z_][\w:]*(?:\s*<[^;]*>)?[\s*&]+"
    r"((?:[A-Za-z_][\w:]*::)?[A-Za-z_]\w*)\s*"
    r"(?:\[[^\]]*\])?\s*(?:=.*)?$")
STATIC_LOCAL_RE = re.compile(
    r"^\s*(?:thread_local\s+)?static\s+(?:thread_local\s+)?"
    r"(?!const\b|constexpr\b)")

# --- hot (CRH_HOT real-time discipline) configuration ----------------------
HOT_ATTR_RE = re.compile(r"\bCRH_HOT\b")
# Lexical patterns that end real-time safety. Locks, raw I/O, fail points
# and std::function invocations are already modeled as their own event
# lists; these cover allocation, container growth and exceptions.
HOT_VIOLATION_RES = [
    (re.compile(r"\bnew\b"), "calls operator new"),
    (re.compile(r"(?<![\w.:])(?:malloc|calloc|realloc|strdup)\s*\("),
     "calls a C heap allocator"),
    (re.compile(r"\bstd::make_(?:unique|shared)\b"),
     "allocates via std::make_unique/make_shared"),
    (re.compile(r"(?:\.|->)\s*(?:push_back|emplace_back|emplace|resize|"
                r"reserve|assign|insert|append)\s*\("),
     "grows a container"),
    (re.compile(r"\bstd::(?:vector|string|map|set|unordered_map|"
                r"unordered_set|deque|list|function|[io]?stringstream)\s*"
                r"(?:<[^;&(]*>)?\s+\w+\s*[({=;]"),
     "constructs a local container/std::function"),
    (re.compile(r"\bthrow\b"), "throws"),
    (re.compile(r"\bstd::to_string\b"), "calls std::to_string (allocates)"),
    (re.compile(r"\bstd::stable_sort\b"),
     "calls std::stable_sort (allocates)"),
]

# --- taint (untrusted input) configuration ---------------------------------
# Where externally-supplied bytes enter: the serving socket + protocol, the
# CSV reader, and the checkpoint loader.
UNTRUSTED_SCOPED_DIRS = ("src/serve/", "src/stream/", "src/data/")
# Seed set of functions whose return value is untrusted (grown by a
# fixpoint: any scoped function returning an unsanitized tainted value
# joins it, so taint crosses TU boundaries through the call graph).
UNTRUSTED_RETURNING = {
    # raw socket ingress + C numeric parsing of external text
    "recv", "recvmsg", "strtoll", "strtoull", "strtod",
    # wire-protocol field decodes (serve/protocol.h)
    "ParseJsonObject", "Find", "GetString", "GetInt", "GetUint",
    "GetDouble", "GetDoubleArray", "GetStringArray",
    # CSV fields (data/csv.h) and chunk/checkpoint payloads
    "ReadObservationsCsv", "field", "Decode", "DecodeCheckpoint",
}
# Checkpoint/payload cursor reads taint their out-parameter:
# `cursor.ReadU64(&count)` makes `count` untrusted.
UNTRUSTED_OUTPARAM_RE = re.compile(
    r"\bRead(?:U8|U16|U32|U64|I8|I16|I32|I64|F32|F64|Varint)\w*"
    r"\s*\(\s*&\s*([\w.]*\w)")
# `var = ...Callee(...)`: taints `var` when Callee is untrusted-returning.
UNTRUSTED_ASSIGN_RE = re.compile(r"\b([A-Za-z_]\w*)\s*=(?![=])")
UNTRUSTED_CALLEE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
# Sanitizers: a range comparison naming the tainted value on an `if` or a
# CRH_CHECK/CRH_VERIFY_OR_RETURN line, or the CRH_SANITIZED escape hatch.
# (`for`/`while` conditions are deliberately not sanitizers: a tainted
# loop bound is the hazard, not the defense.)
UNTRUSTED_GUARD_MACRO_RE = re.compile(
    r"\bCRH_(?:CHECK|DCHECK|VERIFY_OR_RETURN|SANITIZED)\w*\s*\(")
UNTRUSTED_IF_RE = re.compile(r"\bif\s*\(")
RELATIONAL_RE = re.compile(r"[<>]=?|==|!=")
SANITIZED_ARGS_RE = re.compile(r"\bCRH_SANITIZED\s*\(([^;]*)")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
# Sinks: (description, regex whose group(1) holds the controlled operand,
# last_arg_only). For memcpy/memmove/memset and two-arg append/assign only
# the final top-level argument is the length — a tainted *source* operand
# is not a sink. The for-loop pattern captures the full middle condition
# field — `->` in the bound expression must not let backtracking truncate
# it.
UNTRUSTED_SINK_RES = [
    ("an allocation size",
     re.compile(r"(?:\.|->)\s*(?:resize|reserve)\s*\(([^;]*)"), False),
    ("an array-new size",
     re.compile(r"\bnew\s+[\w:]+(?:\s*<[^;\[]*>)?\s*\[([^\]]*)\]"), False),
    ("a raw copy length",
     re.compile(r"\b(?:memcpy|memmove|memset)\s*\(([^;]*)"), True),
    ("a buffer length argument",
     re.compile(r"(?:\.|->)\s*(?:append|assign)\s*\(([^;]*,[^;]*)"), True),
    ("a container index",
     re.compile(r"[\w\])]\s*\[([^\]]+)\]"), False),
    ("pointer arithmetic off .data()",
     re.compile(r"(?:\.|->)\s*data\s*\(\s*\)\s*\+\s*([^;,)]*)"), False),
    ("a loop bound",
     re.compile(r"\bfor\s*\([^;]*;([^;]*[<>][^;]*);"), False),
]
UNTRUSTED_RETURN_RE = re.compile(r"^\s*(?:co_)?return\b(.*)")


def last_call_arg(argtext: str) -> str:
    """Given the text following a call's `(`, returns its final top-level
    argument (stopping at the call's own closing paren): the length
    operand of memcpy/memmove/memset and append/assign."""
    depth = 0
    last_start = 0
    end = len(argtext)
    for i, ch in enumerate(argtext):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                end = i
                break
            depth -= 1
        elif ch == "," and depth == 0:
            last_start = i + 1
    return argtext[last_start:end]

# --- snapshot-lifetime configuration ---------------------------------------
SNAPSHOT_SCOPED_DIRS = ("src/serve/",)
# A snapshot handle: a shared_ptr<const ServeSnapshot> declaration (local
# or single-line-signature parameter) or an assignment from `.Current()`.
# Handles are collected per function body, so the publisher's own
# `current_` member declaration is never one.
SNAPSHOT_DECL_RE = re.compile(
    r"shared_ptr\s*<\s*(?:const\s+)?(?:crh::)?ServeSnapshot\s*>"
    r"\s*&?\s+(\w+)\b")
SNAPSHOT_CURRENT_RE = re.compile(
    r"\b(\w+)\s*=\s*[^;=]*\.\s*Current\s*\(\s*\)")
# A function whose declared return type is a pointer/reference/view.
SNAPSHOT_VIEW_RETURN_RE = re.compile(
    r"[*&]|\bstring_view\b|\b[Ss]pan\b")
SNAPSHOT_MEMBER_STORE_RE = re.compile(r"\b\w+_\s*=(?![=])")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "do",
    "else", "new", "delete", "throw", "co_return", "co_await", "alignof",
    "static_assert", "defined", "decltype",
}
CALL_RE = re.compile(r"(?:([\w:]+)\s*(?:\.|->|::))?\b([A-Za-z_]\w*)\s*\(")

PREPROC_RE = re.compile(r"^\s*#")


# ---------------------------------------------------------------------------
# Lexical helpers shared by every check.


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literal *contents*, preserving every
    newline so line numbers survive."""
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    quote = ""
    while i < n:
        c = text[i]
        if state == "code":
            if c == "/" and i + 1 < n and text[i + 1] == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and i + 1 < n and text[i + 1] == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == 'R' and text[i:i + 2] == 'R"':
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append(" " * len(m.group(0)))
                    i += len(m.group(0))
                    continue
            if c in "\"'":
                quote = c
                state = "string" if c == '"' else "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            if c == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
            i += 1
        else:  # raw string
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def read_text(path: pathlib.Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace")


def rel_str(path: pathlib.Path, root: pathlib.Path = REPO_ROOT) -> str:
    p = path.resolve()
    return p.relative_to(root).as_posix() if p.is_relative_to(root) \
        else str(path)


def unordered_range_expr(expr: str, unordered_names: set[str]) -> bool:
    """True when the range expression of a range-for names (or derefs to) a
    variable/member known to have an unordered container type. Trailing
    call parens (`obj.items()`) hide the type lexically; only bare names
    and member chains are classified."""
    m = re.search(r"([A-Za-z_]\w*)\s*$", expr.strip())
    return bool(m) and m.group(1) in unordered_names


class SourceFile:
    """One scanned file: raw and comment/string-stripped lines plus the
    per-file symbol tables several checks share."""

    def __init__(self, path: pathlib.Path, root: pathlib.Path):
        self.rel = rel_str(path, root)
        self.text = read_text(path)
        self.raw_lines = self.text.splitlines()
        self.clean = strip_comments_and_strings(self.text)
        self.clean_lines = self.clean.splitlines()
        self.unordered_names: set[str] = set()
        self.function_objs: set[str] = set()
        aliases: set[str] = set()
        for line in self.clean_lines:
            self.unordered_names.update(
                m.group(1) for m in UNORDERED_DECL_RE.finditer(line))
            aliases.update(m.group(1) for m in UNORDERED_ALIAS_RE.finditer(line))
            self.function_objs.update(
                m.group(1) for m in FUNCTION_OBJ_RE.finditer(line))
        if aliases:
            alias_decl = re.compile(
                r"\b(?:%s)\s*(?:<[^;]*?>)?\s+(\w+)\s*[;{=(]"
                % "|".join(sorted(aliases)))
            for line in self.clean_lines:
                self.unordered_names.update(
                    m.group(1) for m in alias_decl.finditer(line))

    def raw(self, lineno: int) -> str:
        return self.raw_lines[lineno - 1] \
            if 0 < lineno <= len(self.raw_lines) else ""

    def allowed(self, lineno: int) -> set[str]:
        """Checks suppressed on this line by `// analyzer:allow(<check>)`."""
        return set(ALLOW_RE.findall(self.raw(lineno)))

    def includes(self) -> list[tuple[int, str]]:
        """(line, target) of every quoted #include outside a comment."""
        return [(lineno, m.group(1))
                for lineno, line in enumerate(self.clean_lines, 1)
                if PREPROC_RE.match(line)
                and (m := INCLUDE_RE.match(self.raw(lineno)))]


class Finding:
    def __init__(self, rel: str, line: int, rule: str, message: str):
        self.path = rel  # repo-relative posix string
        self.line = line
        self.rule = rule
        self.message = message

    def key(self) -> str:
        return f"{self.path}: [{self.rule}]"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class FunctionModel:
    """Lexical model of one function definition."""

    def __init__(self, qual_name: str, name: str, rel: str,
                 start_line: int, end_line: int, open_line: int | None = None):
        self.qual_name = qual_name
        self.name = name
        self.rel = rel
        self.start_line = start_line
        self.end_line = end_line
        # Line where the body `{` opens: the signature's own `name(` match
        # up to here must not be mistaken for a recursive call.
        self.open_line = open_line if open_line is not None else start_line
        # [(line, callee_simple_name, frozenset(held_lock_ids))]
        self.calls: list[tuple[int, str, frozenset]] = []
        self.taint_sources: list[tuple[int, str]] = []  # (line, description)
        self.exempt = False
        self.io_sites: list[tuple[int, str]] = []  # (line, call text)
        self.failpoint_lines: list[int] = []
        self.failpoint_sites: list[tuple[int, str]] = []  # (line, site id)
        # [(line, acquired_lock_id, tuple(held_before))]
        self.lock_acquires: list[tuple[int, str, tuple]] = []
        self.callback_invokes: list[tuple[int, str, frozenset]] = []
        # Fail points evaluated while a lock is held: (line, held locks).
        self.held_failpoints: list[tuple[int, frozenset]] = []
        # (line, receiver chain or qualifier, callee)
        self.status_drops: list[tuple[int, str, str]] = []
        self.void_casts: list[tuple[int, str, str]] = []
        self.is_registry = bool(REGISTRY_FN_RE.match(name))
        self.registered_sites: set[str] = set()
        self.hot = False  # carries the CRH_HOT annotation
        self.hot_violations: list[tuple[int, str]] = []  # (line, what)
        # Untrusted-input taint events (the `taint` check).
        self.ut_sources: list[tuple[int, str, str]] = []  # (line, var, desc)
        self.ut_assigns: list[tuple[int, str, str]] = []  # (line, var, callee)
        self.ut_guards: list[tuple[int, frozenset]] = []  # (line, idents)
        self.ut_sinks: list[tuple[int, str, frozenset]] = []
        self.ut_returns: list[tuple[int, frozenset]] = []
        self.ut_sanitized: list[tuple[int, frozenset]] = []
        # Signature text (start..open lines, set by model_file) and escapes
        # of epoch-snapshot-derived views (the `snapshot-lifetime` check).
        self.head = ""
        self.snap_escapes: list[tuple[int, str]] = []  # (line, what)

    def __repr__(self) -> str:  # debugging aid
        return f"<fn {self.qual_name} {self.rel}:{self.start_line}>"


# ---------------------------------------------------------------------------
# Tokenizer frontend: file → function models.


def blank_preprocessor(clean: str) -> str:
    """Blanks preprocessor directives (including continuation lines) so
    `#define`/`#if` bodies do not confuse brace tracking."""
    out_lines = []
    cont = False
    for line in clean.split("\n"):
        active = cont or bool(PREPROC_RE.match(line))
        cont = active and line.rstrip().endswith("\\")
        out_lines.append(" " * len(line) if active else line)
    return "\n".join(out_lines)


HEAD_ATTR_RE = re.compile(r"\[\[[^\]]*\]\]|\bCRH_[A-Z_]+\s*\([^()]*\)")


def classify_head(head: str):
    """Classifies the text between the previous `;`/`{`/`}` and an opening
    `{`. Returns (kind, name) with kind in namespace|class|function|block."""
    head = HEAD_ATTR_RE.sub(" ", head).strip()
    m = re.search(r"\bnamespace\s+([\w:]+)?\s*$", head)
    if m or head.endswith("namespace"):
        return "namespace", (m.group(1) if m and m.group(1) else "")
    m = re.search(r"\b(?:class|struct)\s+(\w+)[^;()]*$", head)
    if m and "(" not in head.split(m.group(1))[-1].split(":")[0]:
        return "class", m.group(1)
    if re.search(r"\benum\b", head):
        return "block", None
    if re.search(r"\b(?:extern|union)\b\s*$", head):
        return "block", None
    # Function: find the first top-level '(' and take the identifier chain
    # immediately before it.
    depth = 0
    paren_at = -1
    for i, c in enumerate(head):
        if c in "<([":
            if c == "(" and depth == 0:
                paren_at = i
                break
            depth += 1
        elif c in ">)]":
            depth = max(0, depth - 1)
    if paren_at < 0:
        return "block", None
    m = re.search(r"([\w:~]+)\s*$", head[:paren_at])
    if not m:
        return "block", None
    # Member access right before the name (`obj.push_back({...})`,
    # `p->emplace({...})`) is a call expression whose brace-init argument
    # reached us, not a definition.
    if m.start() > 0 and (head[m.start() - 1] == "."
                          or head[m.start() - 2:m.start()] == "->"):
        return "block", None
    name = m.group(1)
    simple = name.split("::")[-1].lstrip("~")
    if simple in CONTROL_KEYWORDS or not simple:
        return "block", None
    # `operator` overloads: normalise to a stable name.
    if simple == "operator":
        name = name.replace("operator", "operatorX")
        simple = "operatorX"
    return "function", name


def scan_file_functions(rel: str, clean: str):
    """Yields (qual_name, name, start_line, end_line, head_line) spans for
    every function definition in the (comment/string-stripped) text."""
    text = blank_preprocessor(clean)
    n = len(text)
    line = 1
    i = 0
    head_start = 0
    head_line = 1
    # Stack of (kind, name) for namespace/class/block scopes.
    scope: list[tuple[str, str]] = []
    spans = []
    in_fn = None  # (qual, name, start_line, brace_depth_at_entry)
    depth = 0
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if in_fn is not None:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == in_fn[3]:
                    spans.append((in_fn[0], in_fn[1], in_fn[2], line,
                                  in_fn[4]))
                    in_fn = None
                    head_start = i + 1
                    head_line = line
            i += 1
            continue
        if c == "{":
            head = text[head_start:i]
            kind, name = classify_head(head)
            if kind == "function":
                classes = [s_name for s_kind, s_name in scope
                           if s_kind == "class"]
                if "::" in name:
                    qual = "::".join(name.split("::")[-2:])
                elif classes:
                    qual = f"{classes[-1]}::{name}"
                else:
                    qual = name
                in_fn = (qual, name.split("::")[-1], head_line, depth, line)
                depth += 1
                i += 1
                continue
            scope.append((kind, name or ""))
            depth += 1
            head_start = i + 1
            head_line = line
        elif c == "}":
            depth -= 1
            if scope:
                scope.pop()
            head_start = i + 1
            head_line = line
        elif c == ";":
            head_start = i + 1
            head_line = line
        else:
            if text[head_start:i].strip() == "" and not c.isspace():
                head_line = line
        i += 1
    return spans


def scan_namespace_statements(clean: str):
    """Yields (line, statement_text) for every `;`-terminated statement all
    of whose enclosing brace scopes are namespaces (file scope included) —
    the candidate set for namespace-scope variable declarations. Brace
    initializers (`std::atomic<int> g{0};`, `int a[] = {1};`) stay part of
    their statement; class/function/enum bodies are skipped."""
    text = blank_preprocessor(clean)
    n = len(text)
    i = 0
    line = 1
    head_start = 0
    stmt_line = None
    scope: list[str] = []  # kinds of the enclosing brace scopes
    depth_skip = 0  # > 0 while inside a brace initializer / skipped body
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if depth_skip:
            if c == "{":
                depth_skip += 1
            elif c == "}":
                depth_skip -= 1
            i += 1
            continue
        if c == "{":
            head = text[head_start:i]
            kind, _ = classify_head(head)
            tail = head.rstrip()
            # A `{` classified as a plain block whose head ends in an
            # identifier/`=`/`>`/`]` is a brace initializer (or an enum/
            # union body — equally not a declaration scope): consume it
            # without opening a scope so the statement keeps accumulating.
            if kind == "block" and tail and (tail[-1].isalnum()
                                             or tail[-1] in "_=>]"):
                depth_skip = 1
            else:
                scope.append(kind)
                head_start = i + 1
                stmt_line = None
        elif c == "}":
            if scope:
                scope.pop()
            head_start = i + 1
            stmt_line = None
        elif c == ";":
            if all(k == "namespace" for k in scope):
                stmt = text[head_start:i].strip()
                if stmt and stmt_line is not None:
                    yield (stmt_line, stmt)
            head_start = i + 1
            stmt_line = None
        elif not c.isspace() and stmt_line is None:
            stmt_line = line
        i += 1


def global_state_exempt(raw_lines: list[str], stmt_line: int) -> bool:
    """True when CRH_GLOBAL_STATE_EXEMPT(...) sits on the declaration's
    first line or within the four raw lines above it (the macro call
    itself may wrap over several lines)."""
    lo = max(0, stmt_line - 5)
    hi = min(stmt_line, len(raw_lines))
    return any(GLOBAL_EXEMPT_MACRO in raw_lines[k] for k in range(lo, hi))


def lock_id(name: str, qual_name: str, rel: str) -> str:
    """Stable cross-TU identity for a lock. Member locks (`mu_`, possibly
    reached via `this->` or `obj.`) are identified by owning class; locals
    and parameters by the enclosing function."""
    base = name.split(".")[-1].split(">")[-1]
    cls = qual_name.split("::")[0] if "::" in qual_name else None
    if base.endswith("_") and cls:
        return f"{cls}::{base}"
    if base.endswith("_"):
        return f"{pathlib.PurePosixPath(rel).stem}::{base}"
    return f"{qual_name}::{base}"


def extract_body(fn: FunctionModel, src: SourceFile) -> None:
    """Populates a FunctionModel's event lists from its line span. Shared
    by the tokenizer and libclang backends (the AST supplies boundaries,
    this supplies flow-sensitive intra-body facts)."""
    clean_lines = src.clean_lines
    depth = 0
    scoped_locks: list[tuple[int, str]] = []
    manual_locks: set[str] = set()
    local_function_objs = set(src.function_objs)
    for lineno in range(fn.start_line, fn.end_line + 1):
        if lineno - 1 >= len(clean_lines):
            break
        line = clean_lines[lineno - 1]
        raw_line = src.raw(lineno)
        allow = src.allowed(lineno)

        for m in FUNCTION_OBJ_RE.finditer(line):
            local_function_objs.add(m.group(1))

        # Taint sources.
        if "determinism-taint" not in allow:
            for pattern, desc, _ in TAINT_SOURCE_RES:
                if pattern.search(line):
                    fn.taint_sources.append((lineno, desc))
            for m in RANGE_FOR_RE.finditer(line):
                if unordered_range_expr(m.group(2), src.unordered_names):
                    fn.taint_sources.append(
                        (lineno, "unordered-container iteration order"))
        if EXEMPT_RE.search(line):
            fn.exempt = True

        # CRH_HOT annotation (signature head) + real-time violations. The
        # violation scan covers every function: non-hot callees must carry
        # their dirt so the hot check's transitive closure sees it.
        if lineno <= fn.open_line and HOT_ATTR_RE.search(line):
            fn.hot = True
        if "hot" not in allow:
            for pattern, desc in HOT_VIOLATION_RES:
                if pattern.search(line):
                    fn.hot_violations.append((lineno, desc))

        # Untrusted-input taint events. Sources/assigns/sinks feed the
        # per-function dataflow in untrusted_taint_state; guards are always
        # recorded (they only ever suppress findings).
        line_idents = frozenset(IDENT_RE.findall(line))
        if UNTRUSTED_GUARD_MACRO_RE.search(line) or (
                UNTRUSTED_IF_RE.search(line) and RELATIONAL_RE.search(line)):
            fn.ut_guards.append((lineno, line_idents))
        if "taint" not in allow:
            for m in UNTRUSTED_OUTPARAM_RE.finditer(line):
                fn.ut_sources.append(
                    (lineno, m.group(1).split(".")[-1],
                     "decoded from untrusted payload bytes"))
            for m in UNTRUSTED_ASSIGN_RE.finditer(line):
                rhs = line[m.end():].split(";", 1)[0]
                for cm in UNTRUSTED_CALLEE_RE.finditer(rhs):
                    fn.ut_assigns.append((lineno, m.group(1), cm.group(1)))
            for m in SANITIZED_ARGS_RE.finditer(line):
                fn.ut_sanitized.append(
                    (lineno, frozenset(IDENT_RE.findall(m.group(1)))))
            for desc, pattern, last_arg_only in UNTRUSTED_SINK_RES:
                for m in pattern.finditer(line):
                    operand = last_call_arg(m.group(1)) if last_arg_only \
                        else m.group(1)
                    fn.ut_sinks.append(
                        (lineno, desc, frozenset(IDENT_RE.findall(operand))))
            m = UNTRUSTED_RETURN_RE.match(line)
            if m:
                fn.ut_returns.append(
                    (lineno, frozenset(IDENT_RE.findall(m.group(1)))))

        # Fail points (site literal must come from the raw line: the
        # cleaned text blanks string contents).
        if FAIL_POINT_CALL_RE.search(line):
            fn.failpoint_lines.append(lineno)
            for m in FAIL_SITE_RE.finditer(raw_line):
                fn.failpoint_sites.append((lineno, m.group(1)))
        if fn.is_registry:
            for m in STRING_LIT_RE.finditer(raw_line):
                fn.registered_sites.add(m.group(1))

        # I/O sites (stderr/stdout writes are crash-path reporting: the
        # CRH_CHECK handlers must not themselves fault-inject).
        if "failpoint-dominance" not in allow:
            for m in IO_CALL_RE.finditer(line):
                if m.group(1) in ("fprintf", "fputs", "fflush", "fscanf") \
                        and re.search(r"\b(?:stderr|stdout)\b",
                                      line[m.start():]):
                    continue
                fn.io_sites.append(
                    (lineno,
                     (m.group(1) or m.group(2) or m.group(3) or m.group(4))))

        # Column-ordered event walk: lock acquisitions, releases, calls and
        # fail-point evaluations.
        events = []
        if not ADOPT_LOCK_RE.search(line):
            for m in LOCK_DECL_RE.finditer(line):
                name = m.group(1) or m.group(2) or "?"
                events.append((m.start(), "scoped_lock",
                               lock_id(name, fn.qual_name, fn.rel)))
        for m in MANUAL_LOCK_RE.finditer(line):
            events.append((m.start(), "manual_lock",
                           lock_id(m.group(1), fn.qual_name, fn.rel)))
        for m in MANUAL_UNLOCK_RE.finditer(line):
            events.append((m.start(), "manual_unlock",
                           lock_id(m.group(1), fn.qual_name, fn.rel)))
        for m in FAIL_POINT_CALL_RE.finditer(line):
            events.append((m.start(), "failpoint", None))
        for m in CALL_RE.finditer(line):
            callee = m.group(2)
            if callee in CONTROL_KEYWORDS or callee == "CRH_FAIL_POINT":
                continue
            # The function's own signature (`Type name(args...)`) is not a
            # recursive call.
            if callee == fn.name and lineno <= fn.open_line:
                continue
            events.append((m.start(), "call", callee))
        for m in FUNCTION_OBJ_RE.finditer(line):
            # The declaration itself is not an invocation; drop the call
            # event the CALL_RE above may have produced for it.
            events = [e for e in events
                      if not (e[1] == "call" and e[2] == m.group(1))]
        events.sort(key=lambda e: e[0])
        allow_lock = "lock-order" in allow
        for _, ekind, val in events:
            held = frozenset(n for _, n in scoped_locks) | manual_locks
            if ekind == "scoped_lock":
                if not allow_lock:
                    fn.lock_acquires.append((lineno, val, tuple(sorted(held))))
                scoped_locks.append((depth, val))
            elif ekind == "manual_lock":
                if not allow_lock:
                    fn.lock_acquires.append((lineno, val, tuple(sorted(held))))
                manual_locks.add(val)
            elif ekind == "manual_unlock":
                manual_locks.discard(val)
            elif ekind == "failpoint":
                if held and not allow_lock:
                    fn.held_failpoints.append((lineno, held))
            elif ekind == "call":
                if val in local_function_objs:
                    fn.callback_invokes.append((lineno, val, held))
                else:
                    fn.calls.append((lineno, val, held))

        # Status drops (statement-level call, value unconsumed). The callee
        # set is resolved later against the whole-program function table.
        if "status-path" not in allow:
            m = call_statement(line)
            if m:
                fn.status_drops.append((lineno, m.group(1), m.group(2)))
            fn.void_casts += [(lineno, m.group(1), m.group(2))
                              for m in VOID_CAST_RE.finditer(line)]

        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                scoped_locks = [(d, n) for (d, n) in scoped_locks if d < depth]


def scan_snapshot_escapes(fn: FunctionModel, src: SourceFile) -> None:
    """Populates fn.snap_escapes: uses of an epoch-snapshot handle that
    outlive the owning shared_ptr's scope. Pass 1 finds the handles
    (declarations and `.Current()` assignments, signature lines included);
    pass 2 finds escapes: a view-returning function returning through the
    handle, a member assignment storing an address derived from it, or a
    by-reference lambda capture on a line that names it."""
    clean_lines = src.clean_lines
    handles: set[str] = set()
    for lineno in range(fn.start_line, fn.end_line + 1):
        if lineno - 1 >= len(clean_lines):
            break
        line = clean_lines[lineno - 1]
        for m in SNAPSHOT_DECL_RE.finditer(line):
            handles.add(m.group(1))
        for m in SNAPSHOT_CURRENT_RE.finditer(line):
            handles.add(m.group(1))
    if not handles:
        return
    alt = "|".join(sorted(handles))
    # `snap->...` or `snap.get()`: a raw view through the handle.
    deref_re = re.compile(
        r"\b(?:%s)\s*(?:->|\.\s*get\s*\()" % alt)
    # An address derived from the handle: `&...snap`, `snap.get()`, or a
    # `data()/c_str()/begin()` view reached through it. `&&` is logical,
    # not address-of.
    addr_re = re.compile(
        r"(?<![&\w])&\s*[\w.\[\]()>-]*\b(?:%s)\b" % alt
        + r"|\b(?:%s)\s*\.\s*get\s*\(" % alt
        + r"|\b(?:%s)\s*->[\w.>\[\]()\s-]*?\b(?:data|c_str|begin)\s*\("
        % alt)
    lambda_ref_re = re.compile(r"\[\s*&[^\]]*\]\s*[({]")
    mention_re = re.compile(r"\b(?:%s)\b" % alt)
    returns_view = bool(
        SNAPSHOT_VIEW_RETURN_RE.search(fn.head.split("(", 1)[0]))
    for lineno in range(fn.start_line, fn.end_line + 1):
        if lineno - 1 >= len(clean_lines):
            break
        line = clean_lines[lineno - 1]
        if "snapshot-lifetime" in src.allowed(lineno):
            continue
        if returns_view and UNTRUSTED_RETURN_RE.match(line) \
                and deref_re.search(line):
            fn.snap_escapes.append(
                (lineno, "returns a pointer/reference/view derived from "
                         "an epoch snapshot handle; the owning shared_ptr "
                         "dies with this scope and the next Publish() "
                         "frees the snapshot under the caller"))
        if SNAPSHOT_MEMBER_STORE_RE.search(line) and addr_re.search(line):
            fn.snap_escapes.append(
                (lineno, "stores an address derived from an epoch snapshot "
                         "handle into a member that outlives the handle's "
                         "scope; store the shared_ptr itself (pinning the "
                         "epoch) or copy the value out"))
        if lambda_ref_re.search(line) and mention_re.search(line):
            fn.snap_escapes.append(
                (lineno, "captures an epoch snapshot handle by reference "
                         "in a lambda; if the callback outlives the scope "
                         "it reads a freed snapshot — capture the "
                         "shared_ptr by value instead"))


class ProgramModel:
    def __init__(self):
        self.functions: list[FunctionModel] = []
        self.by_simple: dict[str, list[FunctionModel]] = {}
        self.by_qual: dict[str, FunctionModel] = {}
        # "Status" / "Result" -> names of functions declared returning it:
        # simple names, and qualified ones ("Class::Method" for members,
        # the bare name for free functions) for calls whose receiver type
        # or qualifier is known.
        self.returning: dict[str, set[str]] = {"Status": set(),
                                               "Result": set()}
        self.returning_qual: dict[str, set[str]] = {"Status": set(),
                                                    "Result": set()}
        # (rel, variable) -> class name of its declared type, or None.
        self.var_types: dict[tuple[str, str], str | None] = {}
        # Memoized unions of the two tables above, keyed by kinds.
        self.name_sets: dict[tuple, tuple[set[str], set[str]]] = {}
        # Every scanned file; `modeled` holds the rels of the ones whose
        # functions are in the model (the rest feed file-local checks).
        self.sources: list[SourceFile] = []
        self.modeled: set[str] = set()
        # rel -> [(line, quoted include target)], analyzer:allow filtered.
        self.includes: dict[str, list[tuple[int, str]]] = {}
        # rel -> [(line, name, kind description)] mutable global/static
        # declarations that carry no exemption.
        self.global_decls: dict[str, list[tuple[int, str, str]]] = {}

    def add(self, fn: FunctionModel) -> None:
        self.functions.append(fn)
        self.by_simple.setdefault(fn.name, []).append(fn)
        self.by_qual.setdefault(fn.qual_name, fn)

    def resolve(self, callee: str) -> list[FunctionModel]:
        return self.by_simple.get(callee, [])


def model_file(model: ProgramModel, src: SourceFile, spans=None) -> None:
    rel = src.rel
    raw_lines = src.raw_lines
    clean_lines = src.clean_lines
    model.includes[rel] = [(lineno, target)
                           for lineno, target in src.includes()
                           if "arch" not in src.allowed(lineno)]

    decls: list[tuple[int, str, str]] = []
    for stmt_line, stmt in scan_namespace_statements(src.clean):
        if "(" in stmt or GLOBAL_SKIP_RE.search(stmt):
            continue
        flat = re.sub(r"\{[^{}]*\}", " ", stmt).strip()
        m = GLOBAL_DECL_RE.match(flat)
        if not m:
            continue
        if "global-state" in src.allowed(stmt_line):
            continue
        if global_state_exempt(raw_lines, stmt_line):
            continue
        decls.append((stmt_line, m.group(1),
                      "namespace-scope mutable variable"))

    if spans is None:
        spans = scan_file_functions(rel, src.clean)
    for span in spans:
        qual, name, start, end = span[:4]
        open_line = span[4] if len(span) > 4 else None
        fn = FunctionModel(qual, name, rel, start, end, open_line)
        fn.head = " ".join(
            ln.strip() for ln in clean_lines[fn.start_line - 1:fn.open_line])
        extract_body(fn, src)
        scan_snapshot_escapes(fn, src)
        model.add(fn)

        # Mutable function-local statics (singletons). The enclosing
        # function vouches for all of them by carrying the exemption macro
        # anywhere in its body.
        fn_exempt = any(
            GLOBAL_EXEMPT_MACRO in raw_lines[k]
            for k in range(fn.start_line - 1,
                           min(fn.end_line, len(raw_lines))))
        if fn_exempt:
            continue
        # From the line after the body `{` opens: the head itself may be a
        # `static` member-function definition.
        for lineno in range(fn.open_line + 1,
                            min(fn.end_line, len(clean_lines)) + 1):
            if not STATIC_LOCAL_RE.match(clean_lines[lineno - 1]):
                continue
            if "global-state" in src.allowed(lineno):
                continue
            decls.append((lineno, fn.qual_name,
                          "mutable function-local static in"))
    if decls:
        model.global_decls[rel] = sorted(decls)


def assemble_model(files: list[pathlib.Path], extra: list[pathlib.Path],
                   root: pathlib.Path, spans_of) -> ProgramModel:
    """Models `files` (function spans from `spans_of(path)`, or the
    tokenizer's when it returns None) and reads `extra` for the file-local
    checks only. Relative paths are taken against `root`."""
    model = ProgramModel()
    for path in files:
        src = SourceFile(path, root)
        model.sources.append(src)
        model.modeled.add(src.rel)
        model_file(model, src, spans_of(path))
    model.sources += [SourceFile(path, root) for path in extra]
    for src in model.sources:
        ranges = None
        for m in STATUS_DECL_RE.finditer(src.clean):
            kind, qualifier, name = m.groups()
            if name in STATUS_FACTORIES:
                continue
            model.returning[kind].add(name)
            if qualifier:
                cls = class_of_qualifier(qualifier)
            else:
                if ranges is None:
                    ranges = class_ranges(src.clean)
                inside = [r for r in ranges if r[0] < m.start(3) < r[1]]
                cls = max(inside)[2] if inside else None
            model.returning_qual[kind].add(f"{cls}::{name}" if cls else name)
    return model


def call_statement(line: str):
    """CALL_STMT_RE's match when `line` is one whole call statement — the
    callee's own closing paren followed by `;` — else None. A call whose
    result is used (`F(x).ok();`) or a continuation line closing an
    enclosing call (`F(x)));`) drops nothing."""
    m = CALL_STMT_RE.match(line)
    if not m:
        return None
    depth = 0
    for i in range(m.end(2), len(line)):
        if line[i] == "(":
            depth += 1
        elif line[i] == ")":
            depth -= 1
            if depth == 0:
                return m if line[i + 1:].strip() == ";" else None
    return None


def class_of_qualifier(qualifier: str) -> str | None:
    """The class a `Q::name` qualifier names; None for a namespace (this
    codebase spells classes CamelCase and namespaces lowercase)."""
    last = qualifier.split("::")[-1]
    return last if last[:1].isupper() else None


def class_ranges(clean: str) -> list[tuple[int, int, str]]:
    """(body start, body end, class name) of every class/struct body."""
    text = blank_preprocessor(clean)
    ranges: list[tuple[int, int, str]] = []
    stack: list[tuple[int, str | None]] = []
    head_start = 0
    for i, c in enumerate(text):
        if c == "{":
            kind, name = classify_head(text[head_start:i])
            stack.append((i, name if kind == "class" else None))
            head_start = i + 1
        elif c == "}":
            if stack:
                start, name = stack.pop()
                if name:
                    ranges.append((start, i, name))
            head_start = i + 1
        elif c == ";":
            head_start = i + 1
    return ranges


def declared_class(model: "ProgramModel", rel: str, var: str) -> str | None:
    """Class name of `var`'s declared type, found in its file or the
    file's .h/.cc twin (members are declared in the header); None when no
    declaration is found or the type is not a class."""
    key = (rel, var)
    if key not in model.var_types:
        stem = rel.rsplit(".", 1)[0]
        twins = (rel, stem + ".h", stem + ".cc")
        texts = [src.clean for src in model.sources if src.rel in twins]
        model.var_types[key] = next(
            (typ for text in texts for typ in declared_types(text, var)), None)
    return model.var_types[key]


def declared_types(clean: str, var: str):
    """Yields the class name (None: not a class) of each `Type var`
    declaration in a file. Each use of `var` is matched first and the type
    read backwards from it, which keeps the scan linear."""
    for m in re.finditer(re.escape(var) + r"\b\s*[;,)=({\[]", clean):
        if m.start() > 0 and (clean[m.start() - 1].isalnum()
                              or clean[m.start() - 1] == "_"):
            continue
        before = DECL_TYPE_RE.search(clean[max(0, m.start() - 160):m.start()])
        if not before or before.group(1).strip() in CXX_NON_TYPES:
            continue
        typ = before.group(1).strip()
        inner = POINTER_LIKE_RE.match(typ)
        if inner:
            typ = inner.group(1).strip()
        typ = re.sub(r"<.*", "", typ).split("::")[-1]
        yield typ if typ[:1].isupper() else None


def returns_error(model: "ProgramModel", rel: str, enclosing: str | None,
                  receiver: str, callee: str, kinds=("Status", "Result"),
                  simple_fallback: bool = False) -> bool:
    """Whether a call statement reaches a function returning one of
    `kinds`, resolved by receiver type or qualifier where the model knows
    them, so a void `ThreadPool::Run` never counts as `Result<..> Run`.
    `receiver` is the text before the callee (`a.`, `p->`, `Cls::`, or
    empty); `enclosing` the class of the calling member function. Falls
    back to the simple name for receivers whose type is not found, and for
    unqualified calls too when `simple_fallback` (no caller class known)."""
    key = ("names",) + tuple(kinds)
    if key not in model.name_sets:
        model.name_sets[key] = (
            set().union(*(model.returning_qual[k] for k in kinds)),
            set().union(*(model.returning[k] for k in kinds)))
    qual, simple = model.name_sets[key]
    if callee not in simple:
        return False
    if receiver.endswith("::"):
        cls = class_of_qualifier(receiver[:-2])
        return (f"{cls}::{callee}" if cls else callee) in qual
    if receiver:
        parts = re.split(r"\.|->", receiver.rstrip(".->"))
        cls = declared_class(model, rel, parts[0]) if len(parts) == 1 else None
        return f"{cls}::{callee}" in qual if cls else callee in simple
    if enclosing and f"{enclosing}::{callee}" in qual:
        return True
    return callee in (simple if simple_fallback else qual)


def build_model_token(files: list[pathlib.Path], extra=(),
                      root: pathlib.Path = REPO_ROOT) -> ProgramModel:
    return assemble_model(files, list(extra), root, lambda path: None)


# ---------------------------------------------------------------------------
# Hybrid libclang backend: the AST supplies exact function extents and
# qualified names; extract_body supplies the flow-sensitive facts. Files
# the AST yields nothing for (e.g. unparsable snippets) fall back to the
# tokenizer scanner so coverage never silently shrinks.


def build_model_libclang(files: list[pathlib.Path], extra=(),
                         root: pathlib.Path = REPO_ROOT) -> ProgramModel:
    from clang import cindex  # deferred import; may be absent

    index = cindex.Index.create()
    args = ["-std=c++20", "-x", "c++", f"-I{REPO_ROOT / 'src'}",
            "-Wno-everything"]

    fn_kinds = {cindex.CursorKind.FUNCTION_DECL, cindex.CursorKind.CXX_METHOD,
                cindex.CursorKind.CONSTRUCTOR, cindex.CursorKind.DESTRUCTOR,
                cindex.CursorKind.FUNCTION_TEMPLATE}

    def qual_of(cursor) -> str:
        parent = cursor.semantic_parent
        if parent is not None and parent.kind in (
                cindex.CursorKind.CLASS_DECL, cindex.CursorKind.STRUCT_DECL,
                cindex.CursorKind.CLASS_TEMPLATE):
            return f"{parent.spelling}::{cursor.spelling}"
        return cursor.spelling

    def walk(cursor, resolved, spans):
        for child in cursor.get_children():
            loc = child.location
            if loc.file is None or \
                    pathlib.Path(loc.file.name).resolve() != resolved:
                continue
            if child.kind in fn_kinds and child.is_definition():
                name = child.spelling
                if name.startswith("operator"):
                    name = "operatorX"
                spans.append((qual_of(child) if "::" not in name else name,
                              name, child.extent.start.line,
                              child.extent.end.line))
            else:
                walk(child, resolved, spans)

    def spans_of(path: pathlib.Path):
        resolved = path.resolve()
        tu = index.parse(str(resolved), args=args)
        fatal = [d for d in tu.diagnostics if d.severity >= 4]
        if fatal:
            raise RuntimeError(
                f"libclang could not parse {path}: {fatal[0].spelling}")
        spans: list[tuple[str, str, int, int]] = []
        walk(tu.cursor, resolved, spans)
        return spans or None

    return assemble_model(files, list(extra), root, spans_of)


# ---------------------------------------------------------------------------
# Whole-program fixpoints.


def fix_reachable(model: ProgramModel, seed) -> set[int]:
    """Generic backward fixpoint: the set of functions (by id) for which
    `seed(fn)` holds or that call such a function."""
    flagged: set[int] = set()
    for fn in model.functions:
        if seed(fn):
            flagged.add(id(fn))
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            if id(fn) in flagged:
                continue
            for _, callee, _ in fn.calls:
                if any(id(t) in flagged for t in model.resolve(callee)):
                    flagged.add(id(fn))
                    changed = True
                    break
    return flagged


def transitive_lock_acquires(model: ProgramModel) -> dict[int, set[str]]:
    """For each function: the set of lock ids it (or any transitive callee)
    acquires."""
    acquires: dict[int, set[str]] = {
        id(fn): {lock for _, lock, _ in fn.lock_acquires}
        for fn in model.functions}
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            mine = acquires[id(fn)]
            before = len(mine)
            for _, callee, _ in fn.calls:
                for target in model.resolve(callee):
                    mine |= acquires[id(target)]
            if len(mine) != before:
                changed = True
    return acquires


def call_paths_to(model: ProgramModel, target: FunctionModel,
                  max_hops: int = 8) -> list[str]:
    """A representative entry-point → ... → target chain (qualified names),
    following the reverse call graph breadth-first."""
    callers: dict[str, list[FunctionModel]] = {}
    for fn in model.functions:
        for _, callee, _ in fn.calls:
            callers.setdefault(callee, []).append(fn)
    path = [target.qual_name]
    cur = target
    seen = {id(target)}
    for _ in range(max_hops):
        ups = [c for c in callers.get(cur.name, []) if id(c) not in seen]
        if not ups:
            break
        cur = ups[0]
        seen.add(id(cur))
        path.append(cur.qual_name)
    return list(reversed(path))


# ---------------------------------------------------------------------------
# The checks.


def check_determinism_taint(model: ProgramModel,
                            findings: list[Finding]) -> None:
    tainted = fix_reachable(
        model, lambda fn: bool(fn.taint_sources) and not fn.exempt
        and fn.rel not in PRIMITIVE_FILES)
    # Exempt functions are barriers even when their callees are tainted.
    tainted -= {id(fn) for fn in model.functions if fn.exempt}

    def sink_of(fn: FunctionModel) -> bool:
        if fn.qual_name in TAINT_SINKS or fn.name in TAINT_SINKS:
            return True
        return fn.name == "main" and fn.rel.startswith(SINK_MAIN_DIRS)

    for fn in model.functions:
        if not sink_of(fn):
            continue
        if fn.exempt:
            continue
        # Direct sources in the sink body.
        for lineno, desc in fn.taint_sources:
            findings.append(Finding(
                fn.rel, lineno, "determinism-taint",
                f"{fn.qual_name} publishes results but derives a value from "
                f"{desc}; route it through a CRH_DETERMINISM_EXEMPT shim "
                "(common/stopwatch.h) or remove it"))
        # Transitive: a call chain from the sink to a tainted source.
        for lineno, callee, _ in fn.calls:
            for target in model.resolve(callee):
                if id(target) not in tainted or target.exempt:
                    continue
                chain = trace_taint_chain(model, target, tainted)
                findings.append(Finding(
                    fn.rel, lineno, "determinism-taint",
                    f"{fn.qual_name} publishes results but calls "
                    f"{' -> '.join(chain)}, which reads "
                    f"{taint_leaf_desc(model, chain)}; add "
                    "CRH_DETERMINISM_EXEMPT(\"why\") at the boundary that "
                    "provably keeps it out of published state, or fix the "
                    "source"))
                break

    # Clauses that need no sink, judged line by line over every scanned file
    # (a file whose whole text passes cannot fail on any one line).
    for src in model.sources:
        if direct_nondeterminism(src, src.clean) is None:
            continue
        for lineno, line in enumerate(src.clean_lines, 1):
            why = direct_nondeterminism(src, line)
            if why and "determinism-taint" not in src.allowed(lineno):
                findings.append(Finding(src.rel, lineno, "determinism-taint",
                                        why))


def direct_nondeterminism(src: SourceFile, line: str) -> str | None:
    """Why `line` of `src` breaks determinism on its own, sink or not."""
    if src.rel.startswith(DETERMINISM_DIRS):
        for pattern, desc, banned in TAINT_SOURCE_RES:
            if banned and pattern.search(line):
                return (f"{desc} in a deterministic layer (src/core, "
                        "src/weights, src/stream); go through "
                        "common/stopwatch.h, common/rng.h or the "
                        "fault-injection shims")
    if UNSEEDED_RE.search(line):
        return "std::rand/srand or time-based seeding; use the seeded crh::Rng"
    if src.rel.startswith("src/") and any(
            unordered_range_expr(m.group(2), src.unordered_names)
            for m in RANGE_FOR_RE.finditer(line)):
        return ("range-for over an unordered container: bucket order is "
                "implementation-defined and leaks into anything this loop "
                "computes; probe keys in a deterministic order instead (see "
                "WeightedVote)")
    return None


def trace_taint_chain(model: ProgramModel, start: FunctionModel,
                      tainted: set[int], max_hops: int = 8) -> list[str]:
    chain = [start.qual_name]
    cur = start
    seen = {id(start)}
    for _ in range(max_hops):
        if cur.taint_sources:
            break
        nxt = None
        for _, callee, _ in cur.calls:
            for target in model.resolve(callee):
                if id(target) in tainted and id(target) not in seen:
                    nxt = target
                    break
            if nxt:
                break
        if not nxt:
            break
        cur = nxt
        seen.add(id(cur))
        chain.append(cur.qual_name)
    return chain


def taint_leaf_desc(model: ProgramModel, chain: list[str]) -> str:
    leaf = model.by_qual.get(chain[-1])
    if leaf and leaf.taint_sources:
        return leaf.taint_sources[0][1]
    return "a nondeterministic source"


def check_status_paths(model: ProgramModel,
                       findings: list[Finding]) -> None:
    for fn in model.functions:
        enclosing = fn.qual_name.split("::")[0] if "::" in fn.qual_name \
            else None
        for lineno, receiver, callee in fn.status_drops:
            if not returns_error(model, fn.rel, enclosing, receiver, callee):
                continue
            path = call_paths_to(model, fn)
            via = " -> ".join(path + [f"{callee}()"])
            findings.append(Finding(
                fn.rel, lineno, "status-path",
                f"Status/Result from {callee}() is dropped on call-path "
                f"{via}; propagate with CRH_RETURN_NOT_OK, handle it, or "
                "annotate with analyzer:allow(status-path)"))
        if fn.rel.startswith("src/"):
            for lineno, receiver, callee in fn.void_casts:
                if returns_error(model, fn.rel, enclosing, receiver, callee,
                                 kinds=("Result",)):
                    findings.append(Finding(
                        fn.rel, lineno, "status-path",
                        f"(void)-cast of Result-returning {callee}(): a "
                        "Result is a value or an error; handle it"))
    # Files outside the model (tests/, examples/, fuzz/) have no call graph:
    # a dropped Status or Result is judged line by line, its callee resolved
    # by receiver type like everywhere else.
    for src in model.sources:
        if src.rel in model.modeled:
            continue
        for lineno, line in enumerate(src.clean_lines, 1):
            m = call_statement(line)
            if m and returns_error(model, src.rel, None, m.group(1),
                                   m.group(2), simple_fallback=True) \
                    and "status-path" not in src.allowed(lineno):
                findings.append(Finding(
                    src.rel, lineno, "status-path",
                    f"result of Status/Result-returning {m.group(2)}() is "
                    "dropped; check it, CRH_RETURN_NOT_OK it, or (void)-cast "
                    "it"))


def check_lock_order(model: ProgramModel, findings: list[Finding]) -> None:
    acquires = transitive_lock_acquires(model)
    hits_failpoint = fix_reachable(
        model, lambda fn: bool(fn.failpoint_lines)
        and fn.rel not in PRIMITIVE_FILES)
    invokes_callback = fix_reachable(
        model, lambda fn: bool(fn.callback_invokes))

    # Edge set: (held, acquired) -> first site.
    edges: dict[tuple[str, str], tuple[str, int, str]] = {}
    for fn in model.functions:
        if fn.rel in PRIMITIVE_FILES:
            continue
        for lineno, acquired, held in fn.lock_acquires:
            for h in held:
                if h != acquired:
                    edges.setdefault((h, acquired),
                                     (fn.rel, lineno, fn.qual_name))
        for lineno, callee, held in fn.calls:
            if not held:
                continue
            for target in model.resolve(callee):
                if target.rel in PRIMITIVE_FILES:
                    continue
                for acquired in acquires[id(target)]:
                    for h in held:
                        if h != acquired:
                            edges.setdefault(
                                (h, acquired),
                                (fn.rel, lineno,
                                 f"{fn.qual_name} via {target.qual_name}"))

    # Cycle detection over the lock digraph.
    graph: dict[str, set[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    state: dict[str, int] = {}
    stack: list[str] = []
    cycles: list[list[str]] = []

    def dfs(node: str) -> None:
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt, 0) == 0:
                dfs(nxt)
            elif state.get(nxt) == 1:
                cycles.append(stack[stack.index(nxt):] + [nxt])
        stack.pop()
        state[node] = 2

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            dfs(node)
    for cycle in cycles:
        a, b = cycle[0], cycle[1]
        rel, lineno, where = edges.get((a, b)) or edges.get((b, a)) or \
            ("", 1, "?")
        findings.append(Finding(
            rel, lineno, "lock-order",
            f"lock-order cycle {' -> '.join(cycle)} (edge acquired in "
            f"{where}); impose a single global acquisition order"))

    # Locks held across fail-point / callback boundaries, interprocedural.
    for fn in model.functions:
        if fn.rel in PRIMITIVE_FILES:
            continue
        for lineno, callee, held in fn.calls:
            if not held:
                continue
            for target in model.resolve(callee):
                if target.rel in PRIMITIVE_FILES:
                    continue
                hazard = None
                if id(target) in hits_failpoint:
                    hazard = "evaluates a fail point"
                elif id(target) in invokes_callback:
                    hazard = "invokes a std::function callback"
                if hazard:
                    findings.append(Finding(
                        fn.rel, lineno, "lock-order",
                        f"{fn.qual_name} holds {{{', '.join(sorted(held))}}} "
                        f"while calling {target.qual_name}, which "
                        f"{hazard}; release the lock first (reserve-then-"
                        "write, see CheckpointManager::Save)"))
                    break
        for lineno, name, held in fn.callback_invokes:
            if held:
                findings.append(Finding(
                    fn.rel, lineno, "lock-order",
                    f"{fn.qual_name} invokes callback '{name}' while "
                    f"holding {{{', '.join(sorted(held))}}}; user code must "
                    "never run under a library lock"))
        for lineno, held in fn.held_failpoints:
            findings.append(Finding(
                fn.rel, lineno, "lock-order",
                f"{fn.qual_name} evaluates a fail point while holding "
                f"{{{', '.join(sorted(held))}}}; release the lock first "
                "(reserve-then-write, see CheckpointManager::Save)"))


def check_failpoint_dominance(model: ProgramModel,
                              findings: list[Finding]) -> None:
    registered: set[str] = set()
    for fn in model.functions:
        registered |= fn.registered_sites
    used: dict[str, tuple[str, int]] = {}
    for fn in model.functions:
        for lineno, site in fn.failpoint_sites:
            used.setdefault(site, (fn.rel, lineno))

    for fn in model.functions:
        if not fn.rel.startswith(IO_SCOPED_DIRS) or \
                fn.rel in PRIMITIVE_FILES:
            continue
        for lineno, what in fn.io_sites:
            dominated = any(fp <= lineno for fp in fn.failpoint_lines)
            if not dominated:
                findings.append(Finding(
                    fn.rel, lineno, "failpoint-dominance",
                    f"raw I/O call {what}() in {fn.qual_name} is not "
                    "dominated by a fail point; add CRH_FAIL_POINT(\"...\") "
                    "before it and register the site in the component's "
                    "*FailPointSites() list so fault sweeps cover it"))

    for site, (rel, lineno) in sorted(used.items()):
        if site not in registered:
            findings.append(Finding(
                rel, lineno, "failpoint-dominance",
                f"fail-point site \"{site}\" is hit here but not listed in "
                "any *FailPointSites() registry; fault-sweep tests cannot "
                "see it"))


def load_arch_manifest():
    """Returns (module -> layer index, private_headers map) from
    scripts/arch_layers.json."""
    data = json.loads(ARCH_MANIFEST.read_text())
    layer_of: dict[str, int] = {}
    for idx, layer in enumerate(data["layers"]):
        for mod in layer:
            layer_of[mod] = idx
    return layer_of, data.get("private_headers", {})


def module_of(rel: str) -> str | None:
    parts = pathlib.PurePosixPath(rel).parts
    if parts and parts[0] == "bench":
        return "bench"
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def check_arch(model: ProgramModel, findings: list[Finding]) -> None:
    try:
        layer_of, private = load_arch_manifest()
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        findings.append(Finding("scripts/arch_layers.json", 1, "arch",
                                f"layer manifest unreadable: {exc}"))
        return

    for rel in sorted(model.includes):
        mod = module_of(rel)
        if mod is None:
            continue
        if mod not in layer_of:
            findings.append(Finding(
                rel, 1, "arch",
                f"module '{mod}' is not declared in any layer of "
                "scripts/arch_layers.json; add it to the manifest"))
            continue
        for lineno, target in model.includes[rel]:
            if "/" not in target:
                continue
            tmod = target.split("/", 1)[0]
            if tmod not in layer_of:
                continue
            if target in private and mod not in private[target]:
                findings.append(Finding(
                    rel, lineno, "arch",
                    f"\"{target}\" is a private header "
                    "(scripts/arch_layers.json private_headers); module "
                    f"'{mod}' may not include it — go through the owning "
                    "module's public interface, or widen the allow-list "
                    "with a justification"))
            if tmod != mod and layer_of[tmod] >= layer_of[mod]:
                what = "back-edge" if layer_of[tmod] > layer_of[mod] \
                    else "peer edge"
                findings.append(Finding(
                    rel, lineno, "arch",
                    f"layer {what}: module '{mod}' (layer {layer_of[mod]}) "
                    f"includes \"{target}\" from module '{tmod}' (layer "
                    f"{layer_of[tmod]}); dependencies must point at the "
                    "same module or a strictly earlier layer"))

    # Cross-TU call edges. Simple-name resolution is ambiguous, so an edge
    # is flagged only when EVERY candidate resolution of the callee lives
    # in a strictly later layer — one plausible clean target acquits it.
    for fn in model.functions:
        mod = module_of(fn.rel)
        if mod is None or mod not in layer_of:
            continue
        reported: set[str] = set()
        for lineno, callee, _ in fn.calls:
            if callee in reported:
                continue
            targets = model.resolve(callee)
            if not targets:
                continue
            # Only free functions: a simple name shared with any class
            # method (size/empty/push_back/...) says nothing about which
            # module the receiver lives in.
            if any(t.qual_name != t.name for t in targets):
                continue
            tmods: set[str] | None = set()
            for t in targets:
                tm = module_of(t.rel)
                if tm is None or tm not in layer_of:
                    tmods = None
                    break
                tmods.add(tm)
            if not tmods:
                continue
            if all(tm != mod and layer_of[tm] > layer_of[mod]
                   for tm in tmods):
                reported.add(callee)
                findings.append(Finding(
                    fn.rel, lineno, "arch",
                    f"call back-edge: {fn.qual_name} (module '{mod}') "
                    f"calls {callee}(), which resolves only into later "
                    f"layer(s) {{{', '.join(sorted(tmods))}}}; invert the "
                    "dependency or move the callee down the stack"))


def check_global_state(model: ProgramModel,
                       findings: list[Finding]) -> None:
    for rel in sorted(model.global_decls):
        if not rel.startswith(GLOBAL_STATE_SCOPE) or \
                rel.startswith(GLOBAL_STATE_EXCLUDED) or \
                rel == "src/common/global_state.h":
            continue
        for lineno, name, kind in model.global_decls[rel]:
            findings.append(Finding(
                rel, lineno, "global-state",
                f"{kind} `{name}`: an epoch snapshot must be a pure "
                "function of its inputs, so library layers keep no mutable "
                "global/static state; make it caller-owned, or annotate "
                "with CRH_GLOBAL_STATE_EXEMPT(\"why\") "
                "(src/common/global_state.h)"))


def check_hot(model: ProgramModel, findings: list[Finding]) -> None:
    # Local dirt: allocation/throw patterns plus the already-modeled lock,
    # I/O, fail-point and std::function-invocation events.
    local_reasons: dict[int, list[tuple[int, str]]] = {}
    for fn in model.functions:
        if fn.rel in PRIMITIVE_FILES:
            continue
        reasons = list(fn.hot_violations)
        reasons += [(ln, f"performs raw I/O ({what})")
                    for ln, what in fn.io_sites]
        reasons += [(ln, f"acquires lock {lock}")
                    for ln, lock, _ in fn.lock_acquires]
        reasons += [(ln, "evaluates a fail point")
                    for ln in fn.failpoint_lines]
        reasons += [(ln, f"invokes std::function '{name}'")
                    for ln, name, _ in fn.callback_invokes]
        if reasons:
            local_reasons[id(fn)] = sorted(reasons)

    # Transitive closure, optimistic on ambiguity: a call dirties its
    # caller only when it resolves and EVERY resolution is dirty (span/
    # allocating overload pairs with shared simple names stay apart).
    dirty: dict[int, tuple] = {fid: ("local",) for fid in local_reasons}
    changed = True
    while changed:
        changed = False
        for fn in model.functions:
            if id(fn) in dirty:
                continue
            for lineno, callee, _ in fn.calls:
                targets = model.resolve(callee)
                if targets and all(id(t) in dirty for t in targets):
                    dirty[id(fn)] = ("call", lineno, callee, targets[0])
                    changed = True
                    break

    for fn in model.functions:
        if not fn.hot or id(fn) not in dirty:
            continue
        entry = dirty[id(fn)]
        if entry[0] == "local":
            for lineno, desc in local_reasons[id(fn)][:3]:
                findings.append(Finding(
                    fn.rel, lineno, "hot",
                    f"{fn.qual_name} is CRH_HOT but {desc}; hot solver "
                    "kernels must be allocation-, lock-, I/O- and "
                    "throw-free — hoist the work into caller-owned "
                    "scratch (see SolverScratch in core/crh.cc)"))
        else:
            chain, leaf = trace_hot_chain(model, fn, dirty)
            leaf_why = local_reasons.get(
                id(leaf),
                [(leaf.start_line, "performs a hot-unsafe operation")])[0][1]
            findings.append(Finding(
                fn.rel, entry[1], "hot",
                f"{fn.qual_name} is CRH_HOT but calls "
                f"{' -> '.join(chain[1:])}, which {leaf_why}; every "
                "transitive callee of a hot kernel must be real-time "
                "safe"))


def trace_hot_chain(model: ProgramModel, start: FunctionModel,
                    dirty: dict[int, tuple], max_hops: int = 8):
    """Follows the recorded dirtying call of each function down to a
    locally-dirty leaf; returns (qualified-name chain, leaf model)."""
    chain = [start.qual_name]
    cur = start
    for _ in range(max_hops):
        entry = dirty.get(id(cur))
        if entry is None or entry[0] == "local":
            break
        cur = entry[3]
        chain.append(cur.qual_name)
    return chain, cur


def untrusted_taint_state(fn: FunctionModel, names: set[str]):
    """Flow-sensitive (line-ordered) taint for one function body, given the
    current set of untrusted-returning function names. Returns
    (tainted: var -> (source line, description),
     bad_sinks: [(sink line, kind, var, source line, description)],
     returns_tainted: bool)."""
    tainted: dict[str, tuple[int, str]] = {}
    for line, var, desc in fn.ut_sources:
        if var not in tainted or line < tainted[var][0]:
            tainted[var] = (line, desc)
    for line, var, callee in fn.ut_assigns:
        if callee in names and (var not in tainted or line < tainted[var][0]):
            tainted[var] = (line, f"untrusted bytes via {callee}()")
    if not tainted:
        return tainted, [], False

    guard_lines: dict[str, list[int]] = {v: [] for v in tainted}
    for gline, idents in fn.ut_guards:
        for v in tainted:
            if v in idents:
                guard_lines[v].append(gline)

    def sanitized(var: str, use_line: int) -> bool:
        src = tainted[var][0]
        return any(src <= g <= use_line for g in guard_lines[var])

    bad_sinks: list[tuple[int, str, str, int, str]] = []
    for sline, kind, idents in fn.ut_sinks:
        for var in sorted(idents & tainted.keys()):
            src, desc = tainted[var]
            if sline >= src and not sanitized(var, sline):
                bad_sinks.append((sline, kind, var, src, desc))
                break  # one finding per sink site
    returns_tainted = any(
        var in idents and rline >= tainted[var][0]
        and not sanitized(var, rline)
        for rline, idents in fn.ut_returns for var in tainted)
    return tainted, bad_sinks, returns_tainted


def check_untrusted_taint(model: ProgramModel,
                          findings: list[Finding]) -> None:
    scoped = [fn for fn in model.functions
              if fn.rel.startswith(UNTRUSTED_SCOPED_DIRS)
              and fn.rel not in PRIMITIVE_FILES]
    # Interprocedural fixpoint: a scoped function that returns a tainted
    # value without sanitizing it taints every `x = Fn(...)` assignment
    # from its callers, across TUs.
    names = set(UNTRUSTED_RETURNING)
    changed = True
    while changed:
        changed = False
        for fn in scoped:
            if fn.name in names:
                continue
            if untrusted_taint_state(fn, names)[2]:
                names.add(fn.name)
                changed = True

    for fn in model.functions:
        if fn.rel in PRIMITIVE_FILES:
            continue
        in_scope = fn.rel.startswith(UNTRUSTED_SCOPED_DIRS)
        tainted, bad_sinks, _ = untrusted_taint_state(fn, names)
        if in_scope:
            for sline, kind, var, src, desc in bad_sinks:
                findings.append(Finding(
                    fn.rel, sline, "taint",
                    f"`{var}` ({desc}, line {src}) reaches {kind} in "
                    f"{fn.qual_name} without a dominating bounds check; "
                    "guard it with an if/CRH_CHECK/CRH_VERIFY_OR_RETURN "
                    "range comparison first, or wrap the use in "
                    "CRH_SANITIZED(expr, \"why\") (src/common/taint.h)"))
        # CRH_SANITIZED misuse is flagged everywhere: the escape hatch may
        # only bless values the analyzer tracks as untrusted.
        for sline, idents in fn.ut_sanitized:
            if not (idents & tainted.keys()):
                findings.append(Finding(
                    fn.rel, sline, "taint",
                    f"CRH_SANITIZED in {fn.qual_name} wraps a value the "
                    "analyzer does not track as untrusted; the escape "
                    "hatch exists to bless a real source->sink path — "
                    "remove it, or name the tainted variable in the "
                    "wrapped expression"))


def check_snapshot_lifetime(model: ProgramModel,
                            findings: list[Finding]) -> None:
    for fn in model.functions:
        if not fn.rel.startswith(SNAPSHOT_SCOPED_DIRS) or \
                fn.rel in PRIMITIVE_FILES:
            continue
        for lineno, what in fn.snap_escapes:
            findings.append(Finding(
                fn.rel, lineno, "snapshot-lifetime",
                f"{fn.qual_name} {what}"))


def check_mutex_guard(model: ProgramModel, findings: list[Finding]) -> None:
    for src in model.sources:
        if src.rel in MUTEX_EXEMPT_FILES:
            continue
        members = [(lineno, m) for lineno, line in enumerate(src.clean_lines, 1)
                   if (m := LOCK_MEMBER_RE.match(line))]
        if not members:
            continue
        guarded = {m.group(1) for m in GUARD_USE_RE.finditer(src.clean)}
        annotated = bool(ANNOTATION_USE_RE.search(src.clean)) and any(
            target == "common/thread_annotations.h"
            for _, target in src.includes())
        header = src.rel.endswith((".h", ".hpp"))
        for lineno, m in members:
            kind, name = m.groups()
            if header and not annotated:
                why = (f"header declares lock member '{name}' but lacks the "
                       "common/thread_annotations.h include or any CRH_* "
                       "annotation; annotate what the lock protects so "
                       "-Wthread-safety can check it")
            elif src.rel.startswith("src/") and kind in ("Mutex", "std::mutex") \
                    and name not in guarded:
                why = (f"mutex member '{name}' has no CRH_GUARDED_BY/"
                       "CRH_REQUIRES dependents in this file; annotate what "
                       "it protects (common/thread_annotations.h)")
            else:
                continue
            if "mutex-no-guard" not in src.allowed(lineno):
                findings.append(Finding(src.rel, lineno, "mutex-no-guard", why))


def check_line(name: str, model: ProgramModel,
               findings: list[Finding]) -> None:
    applies, pattern, message = LINE_CHECKS[name]
    for src in model.sources:
        text = src.text if name == "include-cc" else src.clean
        if not applies(src.rel) or not pattern.search(text):
            continue
        for lineno, line in enumerate(src.clean_lines, 1):
            if name == "include-cc":
                # Stripping blanks the quoted path; read the raw directive.
                line = src.raw(lineno) if PREPROC_RE.match(line) else ""
            if pattern.search(line) and name not in src.allowed(lineno):
                findings.append(Finding(src.rel, lineno, name, message))


ALL_CHECKS = {
    "determinism-taint": check_determinism_taint,
    "status-path": check_status_paths,
    "lock-order": check_lock_order,
    "failpoint-dominance": check_failpoint_dominance,
    "mutex-no-guard": check_mutex_guard,
    "taint": check_untrusted_taint,
    "snapshot-lifetime": check_snapshot_lifetime,
    "arch": check_arch,
    "global-state": check_global_state,
    "hot": check_hot,
    **{name: functools.partial(check_line, name) for name in LINE_CHECKS},
}


def run_checks(model: ProgramModel, checks=None,
               timings: dict[str, float] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    for name, check in ALL_CHECKS.items():
        if checks is not None and name not in checks:
            continue
        t0 = time.monotonic()
        check(model, findings)
        if timings is not None:
            timings[name] = time.monotonic() - t0
    # Clauses of one check may flag the same line; report it once.
    unique = {(f.path, f.line, f.rule): f for f in reversed(findings)}
    return sorted(unique.values(), key=lambda f: (f.path, f.line, f.rule))


# ---------------------------------------------------------------------------
# Module-graph rendering (--graph / --graph-svg). Both forms are built from
# the manifest plus the observed include edges and are fully deterministic:
# CI regenerates docs/architecture.svg and diffs it against the committed
# copy, so the picture can never drift from the tree.


def collect_module_edges(files: list[pathlib.Path]):
    """Observed include edges between manifest modules:
    (from_module, to_module) -> include count."""
    layer_of, _ = load_arch_manifest()
    edges: dict[tuple[str, str], int] = {}
    for path in files:
        rel = rel_str(path)
        mod = module_of(rel)
        if mod is None or mod not in layer_of:
            continue
        for raw_line in read_text(path).splitlines():
            m = INCLUDE_RE.match(raw_line)
            if not m or "/" not in m.group(1):
                continue
            tmod = m.group(1).split("/", 1)[0]
            if tmod in layer_of and tmod != mod:
                edges[(mod, tmod)] = edges.get((mod, tmod), 0) + 1
    return edges


def render_module_dot(edges: dict[tuple[str, str], int]) -> str:
    data = json.loads(ARCH_MANIFEST.read_text())
    lines = ["digraph crh_arch {",
             "  // arrows point at the dependency (lower layer)",
             "  rankdir=BT;",
             '  node [shape=box, fontname="Helvetica"];']
    for layer in data["layers"]:
        lines.append("  { rank=same; "
                     + " ".join(f'"{m}";' for m in layer) + " }")
    for (a, b) in sorted(edges):
        lines.append(f'  "{a}" -> "{b}" [label="{edges[(a, b)]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_module_svg(edges: dict[tuple[str, str], int]) -> str:
    data = json.loads(ARCH_MANIFEST.read_text())
    layers = data["layers"]
    bw, bh, hgap, vgap = 130, 40, 46, 70
    margin, top = 40, 72
    nlayers = len(layers)
    widths = [len(lr) * bw + (len(lr) - 1) * hgap for lr in layers]
    total_w = max(widths) + 2 * margin
    total_h = top + nlayers * bh + (nlayers - 1) * vgap + margin
    pos: dict[str, tuple[int, int]] = {}
    for i, layer in enumerate(layers):
        y = top + (nlayers - 1 - i) * (bh + vgap)
        x0 = (total_w - widths[i]) // 2
        for j, mod in enumerate(layer):
            pos[mod] = (x0 + j * (bw + hgap), y)
    layer_fill = ["#e8f5e9", "#e3f2fd", "#fff3e0", "#f3e5f5", "#ffebee",
                  "#e0f7fa", "#f9fbe7"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}" '
        'font-family="Helvetica, Arial, sans-serif">',
        ' <defs><marker id="arr" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#546e7a"/></marker></defs>',
        f' <rect width="{total_w}" height="{total_h}" fill="#ffffff"/>',
        f' <text x="{margin}" y="28" font-size="14" fill="#263238" '
        'font-weight="bold">CRH layer DAG</text>',
        f' <text x="{margin}" y="46" font-size="11" fill="#546e7a">arrows '
        'point at the dependency; generated by scripts/crh_analyzer.py '
        '--graph-svg, checked by --check=arch</text>']
    for (a, b) in sorted(edges):
        x1, y1 = pos[a][0] + bw // 2, pos[a][1] + bh
        x2, y2 = pos[b][0] + bw // 2, pos[b][1]
        out.append(f' <line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                   'stroke="#90a4ae" stroke-width="1.2" '
                   'marker-end="url(#arr)"/>')
    for i, layer in enumerate(layers):
        fill = layer_fill[i % len(layer_fill)]
        out.append(f' <text x="{margin - 28}" '
                   f'y="{top + (nlayers - 1 - i) * (bh + vgap) + bh // 2 + 4}"'
                   f' font-size="11" fill="#90a4ae">L{i}</text>')
        for mod in layer:
            x, y = pos[mod]
            out.append(f' <rect x="{x}" y="{y}" width="{bw}" '
                       f'height="{bh}" rx="6" fill="{fill}" '
                       'stroke="#546e7a"/>')
            out.append(f' <text x="{x + bw // 2}" y="{y + bh // 2 + 5}" '
                       'font-size="14" text-anchor="middle" '
                       f'fill="#263238">{mod}</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Source discovery: compile_commands.json when available, else a tree scan.


def discover_compile_commands(explicit: str | None) -> pathlib.Path | None:
    if explicit:
        p = pathlib.Path(explicit)
        return p if p.exists() else None
    candidates = sorted(REPO_ROOT.glob("build*/compile_commands.json"))
    return candidates[0] if candidates else None


def iter_sources(paths: list[str],
                 compile_commands: pathlib.Path | None) -> list[pathlib.Path]:
    if paths:
        files: list[pathlib.Path] = []
        for p in paths:
            root = pathlib.Path(p)
            if root.is_file():
                if root.suffix in CXX_SUFFIXES:
                    files.append(root)
            else:
                files.extend(f for f in sorted(root.rglob("*"))
                             if f.suffix in CXX_SUFFIXES
                             and "build" not in f.parts)
        return files

    tu_files: list[pathlib.Path] = []
    if compile_commands is not None:
        try:
            db = json.loads(compile_commands.read_text())
            for entry in db:
                f = pathlib.Path(entry["directory"]) / entry["file"] \
                    if not pathlib.Path(entry["file"]).is_absolute() \
                    else pathlib.Path(entry["file"])
                f = f.resolve()
                if f.is_relative_to(REPO_ROOT) and f.suffix in CXX_SUFFIXES \
                        and f.exists():
                    rel = rel_str(f)
                    if rel.startswith(tuple(d + "/" for d in DEFAULT_DIRS)):
                        tu_files.append(f)
        except (json.JSONDecodeError, KeyError, OSError) as exc:
            print(f"crh_analyzer: unreadable {compile_commands}: {exc}; "
                  "falling back to a tree scan", file=sys.stderr)
            tu_files = []
    seen = {str(f) for f in tu_files}
    # Headers never appear as TUs; the model needs them (decls, inline
    # bodies, registries). Scan the same roots for everything else too when
    # no DB was found.
    scan_everything = not tu_files
    for d in DEFAULT_DIRS:
        root = REPO_ROOT / d
        if not root.is_dir():
            continue
        for f in sorted(root.rglob("*")):
            if f.suffix not in CXX_SUFFIXES or "build" in f.parts:
                continue
            if f.suffix in (".h", ".hpp") or scan_everything:
                if str(f.resolve()) not in seen:
                    tu_files.append(f.resolve())
                    seen.add(str(f.resolve()))
    return sorted(tu_files)


def iter_unmodeled(files: list[pathlib.Path]) -> list[pathlib.Path]:
    """Files under SCANNED_DIRS outside the model (tests/, examples/,
    fuzz/, and any src/ or bench/ source missing from compile_commands):
    the file-local checks still read them."""
    modeled = {f.resolve() for f in files}
    return [f.resolve() for d in SCANNED_DIRS if (REPO_ROOT / d).is_dir()
            for f in sorted((REPO_ROOT / d).rglob("*"))
            if f.suffix in CXX_SUFFIXES and "build" not in f.parts
            and f.resolve() not in modeled]


# ---------------------------------------------------------------------------
# SARIF 2.1.0 output: one run, one result per finding, one rule descriptor
# per check, so GitHub code scanning files each check as its own rule.


def write_sarif(path: str, findings: list[Finding]) -> None:
    rules = [{"id": rule_id, "shortDescription": {"text": desc},
              "defaultConfiguration": {"level": "error"}}
             for rule_id, desc in sorted(RULE_DOCS.items())]
    results = [{
        "ruleId": f.rule,
        "level": "error",
        "message": {"text": f.message},
        "locations": [{"physicalLocation": {
            "artifactLocation": {"uri": f.path, "uriBaseId": "SRCROOT"},
            "region": {"startLine": max(1, f.line)},
        }}],
    } for f in findings]
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "crh_analyzer",
                "informationUri":
                    "https://github.com/crh/crh/blob/main/docs/TOOLING.md",
                "rules": rules,
            }},
            "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
            "results": results,
        }],
    }
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(log, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Baseline (justification suffixes + staleness).


def load_baseline() -> set[str]:
    if not BASELINE.exists():
        return set()
    entries = set()
    for line in BASELINE.read_text().splitlines():
        line = line.split(" #", 1)[0].strip()
        if line and not line.startswith("#"):
            entries.add(line)
    return entries


def write_baseline(findings: list[Finding]) -> None:
    lines = [
        "# crh_analyzer baseline: one `path: [rule]` per line. Every entry",
        "# must carry a trailing `# <justification>` explaining why the",
        "# finding is accepted rather than fixed (see docs/TOOLING.md).",
        "# Stale entries fail the run: delete them when the finding is",
        "# fixed, or regenerate with --update-baseline.",
    ]
    for key in sorted({f.key() for f in findings}):
        lines.append(f"{key}  # TODO: justify or fix")
    BASELINE.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Self-test corpus: a miniature multi-TU tree; each check must fire on its
# positive case and stay quiet on the negative twin.

SELF_TEST_FILES = {
    # --- determinism-taint: clock read flows through a helper into the
    # checkpoint encoder (positive), exempt twin is a barrier (negative).
    "src/stream/taint_pos.cc": """
namespace crh {
double SampleClock() {
  return static_cast<double>(Clock::now().time_since_epoch().count());
}
double Jitter() { return SampleClock() * 0.5; }
std::string EncodeCheckpoint(const CheckpointState& state) {
  std::string out;
  out += std::to_string(Jitter());
  return out;
}
}
""",
    "src/stream/taint_neg.cc": """
namespace crh {
double SampleClockExempt() {
  CRH_DETERMINISM_EXEMPT("timing report only; never serialized");
  return static_cast<double>(Clock::now().time_since_epoch().count());
}
std::string EncodeCheckpointNeg(const CheckpointState& state) {
  std::string out;
  out += "v1";
  return out;
}
}
""",
    # --- status-path: dropped Status call (positive) vs propagated twin.
    "src/stream/status_pos.cc": """
namespace crh {
Status SaveThing(int x) { return OkStatus(); }
void CallerDrops() {
  SaveThing(1);
}
void EntryPoint() { CallerDrops(); }
}
""",
    "src/stream/status_neg.cc": """
namespace crh {
Status SaveOther(int x) { return OkStatus(); }
Status CallerPropagates() {
  CRH_RETURN_NOT_OK(SaveOther(1));
  return OkStatus();
}
}
""",
    # --- status-path, name collision: `Run` is a Result-returning member
    # of one class and a void member of another; the call resolves by its
    # receiver's declared type, so only the Result one fires.
    "src/stream/status_collision_pos.cc": """
namespace crh {
class Job {
 public:
  Result<int> Run(int budget);
};
void RunsJob(Job& job) {
  job.Run(3);
}
}
""",
    "src/stream/status_collision_neg.cc": """
namespace crh {
class Crew {
 public:
  void Run(int tasks);
};
void RunsCrew(Crew& crew) {
  crew.Run(3);
}
}
""",
    # --- lock-order: AB/BA cycle across two classes (positive) vs a
    # consistent global order (negative).
    "src/stream/lock_pos.cc": """
namespace crh {
class Left {
 public:
  void PokeRight() {
    MutexLock lock(&mu_);
    right_->PokeBack();
  }
  void TouchLeft() {
    MutexLock lock(&mu_);
  }
  Right* right_;
  Mutex mu_;
};
class Right {
 public:
  void PokeBack() {
    MutexLock lock(&mu_);
    left_->TouchLeft();
  }
  Left* left_;
  Mutex mu_;
};
}
""",
    "src/stream/lock_neg.cc": """
namespace crh {
class Ordered {
 public:
  void CrossA() {
    MutexLock lock(&first_mu_);
    MutexLock lock2(&second_mu_);
  }
  void CrossB() {
    MutexLock lock(&first_mu_);
    MutexLock lock2(&second_mu_);
  }
  Mutex first_mu_;
  Mutex second_mu_;
};
}
""",
    # --- failpoint-dominance: bare fopen (positive) vs hit-then-open with
    # the site registered (negative), plus an unregistered-site positive.
    "src/stream/io_pos.cc": """
namespace crh {
Status WriteRaw(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IOError(path);
  return OkStatus();
}
}
""",
    "src/stream/io_neg.cc": """
namespace crh {
Status WriteGuarded(const std::string& path) {
  CRH_FAIL_POINT("selftest.open_write");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return IOError(path);
  return OkStatus();
}
std::vector<std::string> SelfTestFailPointSites() {
  return {"selftest.open_write", "selftest.orphan_reg",
          "selftest.journal_append"};
}
}
""",
    # --- failpoint-dominance, serving layer: a bare recv() (positive) vs
    # hit-then-recv with the site registered (negative) — the socket calls
    # the daemon makes are I/O and must be sweepable like file I/O.
    "src/serve/socket_pos.cc": """
namespace crh {
Status ReadRequest(int fd) {
  char buffer[256];
  const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
  if (n < 0) return IOError("recv");
  return OkStatus();
}
}
""",
    "src/serve/socket_neg.cc": """
namespace crh {
Status ReadRequestGuarded(int fd) {
  CRH_RETURN_NOT_OK(FailPoints::Instance().Hit("selftest.serve_recv"));
  char buffer[256];
  const ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
  if (n < 0) return IOError("recv");
  return OkStatus();
}
std::vector<std::string> SelfTestServeFailPointSites() {
  return {"selftest.serve_recv"};
}
}
""",
    "src/stream/io_unregistered.cc": """
namespace crh {
Status TouchUnregistered() {
  CRH_FAIL_POINT("selftest.unregistered_site");
  std::FILE* f = std::fopen("x", "wb");
  if (f == nullptr) return IOError("x");
  return OkStatus();
}
}
""",
    # --- arch: a data-layer file includes a stream header (back-edge) and
    # a tools file grabs a private common header (leak); the negative twin
    # is a stream file reading data (strictly earlier layer).
    "src/data/arch_pos.cc": """
#include "data/dataset.h"
#include "stream/chunks.h"
namespace crh {
int DataUsesStream() { return 1; }
}
""",
    "src/tools/arch_private_pos.cc": """
#include "common/mutex.h"
namespace crh {
int ToolsGrabsMutex() { return 2; }
}
""",
    "src/stream/arch_neg.cc": """
#include "common/status.h"
#include "data/dataset.h"
namespace crh {
int StreamReadsData() { return 3; }
}
""",
    # --- global-state: bare mutable global + singleton static local
    # (positive) vs constants and exempted twins (negative).
    "src/core/global_pos.cc": """
namespace crh {
int g_iterations = 0;
double Bump() {
  static int calls = 0;
  ++calls;
  ++g_iterations;
  return 1.0;
}
}
""",
    "src/core/global_neg.cc": """
namespace crh {
constexpr int kMaxIters = 100;
const double kTolerance = 1e-9;
CRH_GLOBAL_STATE_EXEMPT("test-only metrics registry; "
                        "never read by snapshot code");
int g_exempted_registry = 0;
double BumpNeg() {
  CRH_GLOBAL_STATE_EXEMPT("per-process diagnostics counter");
  static int calls = 0;
  ++calls;
  return 2.0;
}
}
""",
    # --- hot: a CRH_HOT kernel that allocates, and one that reaches an
    # allocating helper transitively (positive) vs an index-writing clean
    # kernel next to a non-hot allocator (negative).
    "src/core/hot_pos.cc": """
namespace crh {
void GrowBuffer(std::vector<double>* buf) { buf->push_back(1.0); }
CRH_HOT double HotAccumulate(const double* xs, size_t n) {
  std::vector<double> copy(xs, xs + n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += copy[i];
  return total;
}
CRH_HOT void HotTransitive(std::vector<double>* buf) {
  GrowBuffer(buf);
}
}
""",
    "src/core/hot_neg.cc": """
namespace crh {
void StageResults(std::vector<double>* out) { out->push_back(3.0); }
CRH_HOT double HotDotProduct(const double* xs, const double* ys,
                             double* acc, size_t n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc[i] = xs[i] * ys[i];
    total += acc[i];
  }
  return total;
}
}
""",
    # --- hot + arena: mirrors src/common/arena.h's scratch discipline. A
    # kernel that grows a std::vector per element allocates (positive); a
    # kernel that bump-carves from a preallocated arena is pointer
    # arithmetic only and must stay quiet (negative).
    "src/core/hot_arena_pos.cc": """
namespace crh {
CRH_HOT double HotGatherVector(const double* xs, size_t n,
                               std::vector<double>* scratch) {
  scratch->clear();
  for (size_t i = 0; i < n; ++i) scratch->push_back(xs[i]);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += (*scratch)[i];
  return total;
}
}
""",
    "src/core/hot_arena_neg.cc": """
namespace crh {
class MiniArena {
 public:
  double* Carve(size_t n) {
    double* out = cursor_;
    cursor_ += n;
    return out;
  }
 private:
  double* cursor_ = nullptr;
};
CRH_HOT double HotGatherArena(const double* xs, size_t n, MiniArena* arena) {
  double* scratch = arena->Carve(n);
  for (size_t i = 0; i < n; ++i) scratch[i] = xs[i];
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) total += scratch[i];
  return total;
}
}
""",
    # --- taint: a checkpoint count decoded from payload bytes sizes an
    # allocation unguarded (positive) vs the remaining-bytes guard and a
    # justified CRH_SANITIZED (negative).
    "src/stream/ut_taint_pos.cc": """
namespace crh {
Status LoadFrame(Cursor& cursor, std::vector<double>* out) {
  uint64_t count = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&count));
  out->resize(count);
  return OkStatus();
}
}
""",
    "src/stream/ut_taint_neg.cc": """
namespace crh {
Status LoadFrameGuarded(Cursor& cursor, std::vector<double>* out) {
  uint64_t count = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&count));
  if (count > cursor.remaining() / 8) return Truncated("count");
  out->resize(count);
  return OkStatus();
}
Status LoadFrameSanitized(Cursor& cursor, std::vector<double>* out) {
  uint64_t n = 0;
  CRH_RETURN_NOT_OK(cursor.ReadU64(&n));
  out->resize(CRH_SANITIZED(n, "frame replayed from a CRC-verified image"));
  return OkStatus();
}
}
""",
    # --- taint, interprocedural: a helper returns a decoded length
    # unsanitized, so its caller's allocation in another TU fires
    # (positive); the checked twin sanitizes before returning, killing the
    # propagation (negative).
    "src/serve/ut_flow_pos.cc": """
namespace crh {
uint64_t DecodeLen(Cursor& cursor) {
  uint64_t len = 0;
  (void)cursor.ReadU64(&len);
  return len;
}
}
""",
    "src/serve/ut_flow_caller_pos.cc": """
namespace crh {
void BuildReply(Cursor& cursor, std::string* out) {
  const uint64_t n = DecodeLen(cursor);
  out->reserve(n);
}
}
""",
    "src/serve/ut_flow_neg.cc": """
namespace crh {
uint64_t DecodeLenChecked(Cursor& cursor) {
  uint64_t len = 0;
  (void)cursor.ReadU64(&len);
  if (len > kMaxFrameBytes) return 0;
  return len;
}
void BuildReplyChecked(Cursor& cursor, std::string* out) {
  const uint64_t n = DecodeLenChecked(cursor);
  out->reserve(n);
}
}
""",
    # --- taint, protocol surface: a JSON field drives a loop bound and an
    # index unguarded (positive) vs a size comparison first (negative).
    "src/serve/ut_proto_pos.cc": """
namespace crh {
std::string DumpWeights(const JsonObject& request,
                        const std::vector<double>& weights) {
  auto count = request.GetUint("count");
  std::string out;
  for (size_t i = 0; i < *count; ++i) {
    out += std::to_string(weights[i]);
  }
  return out;
}
}
""",
    "src/serve/ut_proto_neg.cc": """
namespace crh {
std::string DumpWeightsChecked(const JsonObject& request,
                               const std::vector<double>& weights) {
  auto count = request.GetUint("count");
  if (*count > weights.size()) return std::string();
  std::string out;
  for (size_t i = 0; i < *count; ++i) {
    out += std::to_string(weights[i]);
  }
  return out;
}
}
""",
    # --- taint, escape-hatch misuse: CRH_SANITIZED on a value the
    # analyzer never tainted must itself be a finding (the legitimate use
    # lives in ut_taint_neg.cc above).
    "src/serve/ut_sanitized_misuse_pos.cc": """
namespace crh {
size_t StampLimit(size_t configured_cap) {
  return CRH_SANITIZED(configured_cap, "cap comes from trusted config");
}
}
""",
    # --- snapshot-lifetime: a view return, a member-stored raw pointer,
    # and a by-reference lambda capture all outlive the owning shared_ptr
    # (positive) vs value copies, pinning, and by-value capture (negative).
    "src/serve/snap_pos.cc": """
namespace crh {
class LeakyViews {
 public:
  const ValueTable& LeakTruths() {
    auto snapshot = publisher_.Current();
    return snapshot->truths;
  }
  void CacheRawPointer() {
    auto snapshot = publisher_.Current();
    cached_ = &snapshot->truths;
  }
  void DeferByReference() {
    auto snapshot = publisher_.Current();
    deferred_ = [&snapshot] { return snapshot->epoch; };
  }
  SnapshotPublisher publisher_;
  const ValueTable* cached_ = nullptr;
  std::function<uint64_t()> deferred_;
};
}
""",
    "src/serve/snap_neg.cc": """
namespace crh {
class SafeViews {
 public:
  uint64_t Epoch() {
    const std::shared_ptr<const ServeSnapshot> snapshot =
        publisher_.Current();
    if (snapshot == nullptr) return 0;
    return snapshot->epoch;
  }
  std::shared_ptr<const ServeSnapshot> Pin() {
    auto snapshot = publisher_.Current();
    return snapshot;
  }
  void DeferByValue() {
    auto snapshot = publisher_.Current();
    deferred_ = [snapshot] { return snapshot->epoch; };
  }
  SnapshotPublisher publisher_;
  std::function<uint64_t()> deferred_;
};
}
""",
    # --- determinism-taint, `determinism` clause: a raw getenv in a
    # deterministic layer fires with no sink in sight (positive); the same
    # read in src/common, outside those layers and off every sink path,
    # stays quiet (negative).
    "src/weights/det_env_pos.cc": """
namespace crh {
double DecayFromEnv() {
  const char* raw = std::getenv("CRH_DECAY");
  return raw == nullptr ? 0.5 : 0.9;
}
}
""",
    "src/common/env_neg.cc": """
namespace crh {
const char* LogDirectory() { return std::getenv("CRH_LOG_DIR"); }
}
""",
    # --- determinism-taint, `nondeterminism` clause: C rand seeded from the
    # clock in any scanned tree (positive) vs the seeded crh::Rng.
    "examples/seed_pos.cc": """
#include <cstdlib>
#include <ctime>
int main() {
  std::srand(static_cast<unsigned>(std::time(nullptr)));
  return std::rand() % 2;
}
""",
    "examples/seed_neg.cc": """
#include "common/rng.h"
int main() {
  crh::Rng rng(42);
  return static_cast<int>(rng.Next() % 2);
}
""",
    # --- determinism-taint, `unordered-iteration` clause: a range-for over
    # an unordered container in src/ (positive) vs probing its keys in a
    # caller-given order.
    "src/losses/unordered_pos.h": """
#include <unordered_map>
namespace crh {
inline int Sum(const std::unordered_map<int, int>& histogram) {
  int total = 0;
  for (const auto& [key, count] : histogram) total += key * count;
  return total;
}
}
""",
    "src/losses/unordered_neg.h": """
#include <unordered_map>
#include <vector>
namespace crh {
inline int SumInOrder(const std::vector<int>& keys,
                      const std::unordered_map<int, int>& histogram) {
  int total = 0;
  for (int key : keys) total += histogram.count(key);
  return total;
}
}
""",
    # --- status-path, `unchecked-status` clause: a dropped Status in a test
    # file outside the model (positive) vs an asserted and a voided call.
    "tests/status_drop_pos_test.cc": """
#include "common/status.h"
namespace crh {
Status FlushJournal(int fd);
TEST(JournalTest, FlushesOnClose) {
  FlushJournal(3);
}
}
""",
    "tests/status_drop_neg_test.cc": """
#include "common/status.h"
namespace crh {
Status FlushJournalChecked(int fd);
TEST(JournalTest, FlushIsChecked) {
  ASSERT_TRUE(FlushJournalChecked(3).ok());
  (void)FlushJournalChecked(4);
}
}
""",
    # --- status-path, `unchecked-status` clause on a Result, and the
    # receiver-typed resolution that keeps a void `Crew::Run` (collides with
    # `Job::Run` above) quiet in a test.
    "tests/result_drop_pos_test.cc": """
#include "common/status.h"
namespace crh {
TEST(JobTest, RunsOnce) {
  Job job;
  job.Run(1);
}
}
""",
    "tests/result_drop_neg_test.cc": """
#include "common/status.h"
namespace crh {
TEST(CrewTest, RunsOnce) {
  Crew crew;
  crew.Run(1);
  ASSERT_TRUE(Job().Run(2).ok());
}
}
""",
    # --- status-path, `void-cast-result` clause: a Result voided in src/
    # (positive) vs a Result that is inspected.
    "src/data/void_result_pos.h": """
#include "common/status.h"
namespace crh {
Result<int> ParseCount(int raw);
inline void Oops(int raw) {
  (void)ParseCount(raw);
}
}
""",
    "src/data/void_result_neg.h": """
#include "common/status.h"
namespace crh {
Result<int> ParseCountChecked(int raw);
inline int Fine(int raw) {
  auto result = ParseCountChecked(raw);
  return result.ok() ? *result : 0;
}
}
""",
    # --- lock-order, `lock-across-callback` clause: a std::function and a
    # fail point run under a held lock (positive) vs after the lock's scope
    # closes (negative, the reserve-then-write shape).
    "src/stream/lock_callback_pos.h": """
#include <functional>
#include "common/mutex.h"
#include "common/thread_annotations.h"
namespace crh {
class CallbackUnderLock {
 public:
  void Run(const std::function<void()>& callback) {
    MutexLock lock(&mu_);
    ++generation_;
    callback();
  }
 private:
  Mutex mu_;
  int generation_ CRH_GUARDED_BY(mu_) = 0;
};
}
""",
    "src/stream/lock_callback_neg.h": """
#include <functional>
#include "common/mutex.h"
#include "common/thread_annotations.h"
namespace crh {
class CallbackAfterUnlock {
 public:
  void Notify(const std::function<void()>& callback) {
    {
      MutexLock lock(&mu_);
      ++generation_;
    }
    callback();
  }
 private:
  Mutex mu_;
  int generation_ CRH_GUARDED_BY(mu_) = 0;
};
}
""",
    "src/stream/lock_failpoint_pos.cc": """
namespace crh {
class Journal {
 public:
  Status Append() {
    MutexLock lock(&mu_);
    CRH_FAIL_POINT("selftest.journal_append");
    ++records_;
    return OkStatus();
  }
  Mutex mu_;
  int records_ = 0;
};
}
""",
    "src/stream/lock_failpoint_neg.cc": """
namespace crh {
class ReservedJournal {
 public:
  Status Append() {
    {
      MutexLock lock(&mu_);
      ++records_;
    }
    CRH_FAIL_POINT("selftest.journal_append");
    return OkStatus();
  }
  Mutex mu_;
  int records_ = 0;
};
}
""",
    # --- mutex-no-guard: an annotated header whose second mutex guards
    # nothing (positive) vs every mutex naming its state (negative); the
    # `mutex-annotations` clause: a header with lock members and no
    # annotations at all, outside src/ (positive) vs an annotated one.
    "src/serve/mutex_pos.h": """
#include "common/mutex.h"
#include "common/thread_annotations.h"
namespace crh {
class Registry {
 private:
  Mutex mu_;
  Mutex stats_mu_;
  int entries_ CRH_GUARDED_BY(mu_) = 0;
  int lookups_ = 0;
};
}
""",
    "src/serve/mutex_neg.h": """
#include "common/mutex.h"
#include "common/thread_annotations.h"
namespace crh {
class GuardedCounter {
 private:
  Mutex mu_;
  int counter_ CRH_GUARDED_BY(mu_) = 0;
};
}
""",
    "bench/lock_header_pos.h": """
#include <condition_variable>
#include <mutex>
struct WorkQueue {
  std::mutex mu;
  std::condition_variable ready;
  int pending = 0;
};
""",
    "tests/lock_header_neg.h": """
#include <mutex>
#include "common/thread_annotations.h"
struct Counter {
  std::mutex mu;
  int value CRH_GUARDED_BY(mu) = 0;
};
""",
    # --- line checks: one firing and one quiet file each; the quiet twins
    # also prove the allow comment, the src/common and tests/ scope
    # boundaries, and that a commented-out directive is not read.
    "fuzz/include_cc_pos.cc": """
#include "data/csv.cc"
""",
    "fuzz/include_cc_neg.cc": """
#include "data/csv.h"
// #include "data/csv.cc"
""",
    "src/data/naked_new_pos.cc": """
namespace crh {
Table* MakeTable(size_t rows) { return new Table(rows); }
}
""",
    "src/common/naked_new_neg.cc": """
namespace crh {
void* Arena::Grow(size_t bytes) { return new char[bytes]; }
std::unique_ptr<Table> MakeOwnedTable(size_t rows) {
  return std::make_unique<Table>(rows);
}
}
""",
    "src/core/assert_pos.cc": """
namespace crh {
void CheckRows(size_t rows) { assert(rows > 0); }
}
""",
    "tests/assert_neg_test.cc": """
TEST(SanityTest, Arithmetic) {
  assert(1 + 1 == 2);
  static_assert(sizeof(int) >= 2);
}
""",
    "src/eval/float_eq_pos.cc": """
namespace crh {
bool IsHalf(double score) { return score == 0.5; }
}
""",
    "src/eval/float_eq_neg.cc": """
namespace crh {
bool NearHalf(double score) { return std::abs(score - 0.5) < 1e-9; }
bool SameBits(const Value& a, const Value& b) {
  return a.continuous() == b.continuous();  // analyzer:allow(float-equality)
}
}
""",
    "examples/io_write_pos.cc": """
#include <cstdio>
int main() {
  std::FILE* f = std::fopen("out.csv", "w");
  std::fclose(f);
  return 0;
}
""",
    "examples/io_write_neg.cc": """
#include <cstdio>
int main() {
  std::FILE* f = std::fopen("out.csv", "w");
  if (f == nullptr) return 1;
  std::fflush(stderr);  // analyzer:allow(unchecked-io-write) crash path
  return std::fclose(f) == 0 ? 0 : 1;
}
""",
}

# (check, clause, file that must fire, file that must stay quiet). The
# clause names the rule of a multi-clause check that the pair exercises.
SELF_TEST_EXPECTATIONS = [
    ("determinism-taint", "determinism-taint", "src/stream/taint_pos.cc",
     "src/stream/taint_neg.cc"),
    ("determinism-taint", "determinism", "src/weights/det_env_pos.cc",
     "src/common/env_neg.cc"),
    ("determinism-taint", "nondeterminism", "examples/seed_pos.cc",
     "examples/seed_neg.cc"),
    ("determinism-taint", "unordered-iteration",
     "src/losses/unordered_pos.h", "src/losses/unordered_neg.h"),
    ("status-path", "status-path", "src/stream/status_pos.cc",
     "src/stream/status_neg.cc"),
    ("status-path", "unchecked-status", "tests/status_drop_pos_test.cc",
     "tests/status_drop_neg_test.cc"),
    ("status-path", "status-path", "src/stream/status_collision_pos.cc",
     "src/stream/status_collision_neg.cc"),
    ("status-path", "unchecked-status", "tests/result_drop_pos_test.cc",
     "tests/result_drop_neg_test.cc"),
    ("status-path", "void-cast-result", "src/data/void_result_pos.h",
     "src/data/void_result_neg.h"),
    ("lock-order", "lock-order", "src/stream/lock_pos.cc",
     "src/stream/lock_neg.cc"),
    ("lock-order", "lock-across-callback", "src/stream/lock_callback_pos.h",
     "src/stream/lock_callback_neg.h"),
    ("lock-order", "lock-across-callback", "src/stream/lock_failpoint_pos.cc",
     "src/stream/lock_failpoint_neg.cc"),
    ("failpoint-dominance", "failpoint-dominance", "src/stream/io_pos.cc",
     "src/stream/io_neg.cc"),
    ("failpoint-dominance", "failpoint-dominance",
     "src/stream/io_unregistered.cc", "src/stream/io_neg.cc"),
    ("failpoint-dominance", "failpoint-dominance", "src/serve/socket_pos.cc",
     "src/serve/socket_neg.cc"),
    ("mutex-no-guard", "mutex-no-guard", "src/serve/mutex_pos.h",
     "src/serve/mutex_neg.h"),
    ("mutex-no-guard", "mutex-annotations", "bench/lock_header_pos.h",
     "tests/lock_header_neg.h"),
    ("arch", "arch", "src/data/arch_pos.cc", "src/stream/arch_neg.cc"),
    ("arch", "arch", "src/tools/arch_private_pos.cc",
     "src/stream/arch_neg.cc"),
    ("global-state", "global-state", "src/core/global_pos.cc",
     "src/core/global_neg.cc"),
    ("hot", "hot", "src/core/hot_pos.cc", "src/core/hot_neg.cc"),
    ("hot", "hot", "src/core/hot_arena_pos.cc", "src/core/hot_arena_neg.cc"),
    ("taint", "taint", "src/stream/ut_taint_pos.cc",
     "src/stream/ut_taint_neg.cc"),
    ("taint", "taint", "src/serve/ut_flow_caller_pos.cc",
     "src/serve/ut_flow_neg.cc"),
    ("taint", "taint", "src/serve/ut_proto_pos.cc",
     "src/serve/ut_proto_neg.cc"),
    ("taint", "taint", "src/serve/ut_sanitized_misuse_pos.cc",
     "src/stream/ut_taint_neg.cc"),
    ("snapshot-lifetime", "snapshot-lifetime", "src/serve/snap_pos.cc",
     "src/serve/snap_neg.cc"),
    ("include-cc", "include-cc", "fuzz/include_cc_pos.cc",
     "fuzz/include_cc_neg.cc"),
    ("naked-new", "naked-new", "src/data/naked_new_pos.cc",
     "src/common/naked_new_neg.cc"),
    ("raw-assert", "raw-assert", "src/core/assert_pos.cc",
     "tests/assert_neg_test.cc"),
    ("float-equality", "float-equality", "src/eval/float_eq_pos.cc",
     "src/eval/float_eq_neg.cc"),
    ("unchecked-io-write", "unchecked-io-write", "examples/io_write_pos.cc",
     "examples/io_write_neg.cc"),
]


def parse_check_arg(raw: str):
    """Parses a --check=LIST value. Returns (checks, None) on success or
    (None, one-line error naming every valid check) on an unknown name."""
    checks = {c.strip() for c in raw.split(",") if c.strip()}
    unknown = sorted(checks - set(ALL_CHECKS))
    if unknown:
        return None, (
            f"crh_analyzer: unknown check(s): {', '.join(unknown)}; "
            f"valid checks: {', '.join(sorted(ALL_CHECKS))}")
    return checks, None


def check_budget_file(path: str, timings: dict[str, float]) -> list[str]:
    """Compares per-check wall times against the committed budget (ms).
    A check with no budget entry, or one exceeding its budget by >50%,
    is a failure message."""
    try:
        budgets = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"crh_analyzer: unreadable budget file {path}: {exc}"]
    problems: list[str] = []
    for name in sorted(timings):
        ms = timings[name] * 1000.0
        budget = budgets.get(name)
        if not isinstance(budget, (int, float)):
            problems.append(
                f"crh_analyzer: check '{name}' has no committed wall-time "
                f"budget in {path}; add one so CI tracks its cost")
        elif ms > budget * 1.5:
            problems.append(
                f"crh_analyzer: check '{name}' took {ms:.0f}ms, more than "
                f"1.5x its {budget:.0f}ms budget in {path}; speed the check "
                "up or commit a justified new budget")
    return problems


def run_self_test(build_model, checks=None) -> list[str]:
    import tempfile

    failures: list[str] = []
    # --check argument parsing is part of the gated surface: a typo must
    # fail fast with the full valid-check list, and a valid list must
    # survive whitespace.
    ok_checks, err = parse_check_arg(" hot , arch ")
    if err is not None or ok_checks != {"hot", "arch"}:
        failures.append(f"parse_check_arg mangled a valid list: {err!r}")
    bad, err = parse_check_arg("definitely-not-a-check")
    if bad is not None or not err or "\n" in err \
            or "definitely-not-a-check" not in err \
            or any(name not in err for name in ALL_CHECKS):
        failures.append(
            "parse_check_arg must reject an unknown check with a one-line "
            f"error naming every valid check, got: {err!r}")
    with tempfile.TemporaryDirectory(prefix="crh_analyzer_selftest_") as tmp:
        tmpdir = pathlib.Path(tmp)
        files = []
        for rel, code in SELF_TEST_FILES.items():
            path = tmpdir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(code)
            files.append(path)
        # The corpus is a miniature repo: src/ and bench/ files are
        # modeled, the rest are read by the file-local checks only.
        modeled = [f for f in files if rel_str(f, tmpdir.resolve())
                   .startswith(tuple(d + "/" for d in DEFAULT_DIRS))]
        try:
            model = build_model(sorted(modeled),
                                sorted(set(files) - set(modeled)),
                                tmpdir.resolve())
            findings = run_checks(model, checks)
        except Exception as exc:  # noqa: broad — any crash fails the gate
            return [f"backend raised {exc!r}"]
        by_file: dict[str, set[str]] = {}
        for f in findings:
            by_file.setdefault(f.path, set()).add(f.rule)
        for rule, clause, pos, neg in SELF_TEST_EXPECTATIONS:
            if checks is not None and rule not in checks:
                continue
            if rule not in by_file.get(pos, set()):
                failures.append(
                    f"{rule} ({clause}): expected a finding in {pos}, got "
                    f"{sorted(by_file.get(pos, set())) or 'nothing'}")
            if rule in by_file.get(neg, set()):
                failures.append(
                    f"{rule} ({clause}): unexpected finding in negative "
                    f"case {neg}: "
                    f"{[f.render() for f in findings if f.path == neg]}")
    return failures


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=["auto", "libclang", "token"],
                        default="auto")
    parser.add_argument("--compile-commands", default=None,
                        help="path to compile_commands.json (default: "
                             "build*/compile_commands.json)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded multi-TU corpus and exit")
    parser.add_argument("--check", default=None, metavar="LIST",
                        help="comma-separated subset of checks to run "
                             f"(default all: {','.join(ALL_CHECKS)})")
    parser.add_argument("--graph", action="store_true",
                        help="print the observed module dependency graph "
                             "as Graphviz dot and exit")
    parser.add_argument("--graph-svg", default=None, metavar="OUT",
                        help="write the layer diagram as a deterministic "
                             "SVG (docs/architecture.svg) and exit")
    parser.add_argument("--sarif", default=None, metavar="OUT",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("--stats", action="store_true",
                        help="print model size and wall time (for the CI "
                             "job summary)")
    parser.add_argument("--budget", default=None, metavar="JSON",
                        help="per-check wall-time budget file "
                             "(scripts/analyzer_budget.json); a check "
                             "exceeding its budget by >50%% fails the run")
    parser.add_argument("--no-baseline", action="store_true")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline to the current finding "
                             "set (entries get TODO justifications)")
    parser.add_argument("paths", nargs="*")
    opts = parser.parse_args(argv)

    checks = None
    if opts.check:
        checks, err = parse_check_arg(opts.check)
        if err is not None:
            print(err, file=sys.stderr)
            return 2

    if opts.graph or opts.graph_svg:
        cc = discover_compile_commands(opts.compile_commands)
        files = iter_sources(opts.paths, cc)
        try:
            edges = collect_module_edges(files)
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            print(f"crh_analyzer: cannot load {ARCH_MANIFEST}: {exc}",
                  file=sys.stderr)
            return 2
        if opts.graph:
            sys.stdout.write(render_module_dot(edges))
        if opts.graph_svg:
            pathlib.Path(opts.graph_svg).write_text(render_module_svg(edges))
            print(f"crh_analyzer: wrote {opts.graph_svg}", file=sys.stderr)
        return 0

    t0 = time.monotonic()
    build_model = None
    backend_name = opts.backend
    if opts.backend in ("auto", "libclang"):
        try:
            from clang import cindex  # noqa: F401
            build_model = build_model_libclang
            backend_name = "libclang"
        except Exception as exc:
            if opts.backend == "libclang":
                print(f"crh_analyzer: libclang backend unavailable: {exc}",
                      file=sys.stderr)
                return 2
            build_model = build_model_token
            backend_name = "token"
    else:
        build_model = build_model_token
        backend_name = "token"

    failures = run_self_test(build_model, checks)
    if failures and backend_name == "libclang" and opts.backend == "auto":
        print("crh_analyzer: libclang backend failed self-test, falling "
              "back to the tokenizer frontend:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        build_model = build_model_token
        backend_name = "token"
        failures = run_self_test(build_model, checks)
    if failures:
        print(f"crh_analyzer: {backend_name} backend failed self-test:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 2
    if opts.self_test:
        selected = [e for e in SELF_TEST_EXPECTATIONS
                    if checks is None or e[0] in checks]
        print(f"crh_analyzer: self-test OK ({backend_name} backend, "
              f"{len(selected)} expectations covering "
              f"{len({e[1] for e in selected})} rules over "
              f"{len(SELF_TEST_FILES)} files)")
        return 0

    cc = discover_compile_commands(opts.compile_commands)
    if opts.compile_commands and cc is None:
        print(f"crh_analyzer: {opts.compile_commands} not found",
              file=sys.stderr)
        return 2
    files = iter_sources(opts.paths, cc)
    if not files:
        print("crh_analyzer: no sources to analyze", file=sys.stderr)
        return 2
    model = build_model(files, [] if opts.paths else iter_unmodeled(files))
    timings: dict[str, float] = {}
    findings = run_checks(model, checks, timings)
    elapsed = time.monotonic() - t0

    if opts.sarif:
        write_sarif(opts.sarif, findings)

    if opts.update_baseline:
        write_baseline(findings)
        print(f"crh_analyzer: baseline rewritten with "
              f"{len({f.key() for f in findings})} entr(y/ies); fill in the "
              f"justifications in {BASELINE.name}")
        return 0

    baseline = set() if opts.no_baseline else load_baseline()
    new = [f for f in findings if f.key() not in baseline]
    stale = baseline - {f.key() for f in findings}
    if checks is not None:
        # A subset run cannot see findings of the unselected checks, so it
        # must not judge their baseline entries stale.
        stale = {e for e in stale if any(f"[{c}]" in e for c in checks)}

    for f in new:
        print(f.render())
    if opts.stats:
        print(f"crh_analyzer: {backend_name} backend, {len(files)} files "
              f"modeled ({len(model.sources)} scanned), "
              f"{len(model.functions)} functions, "
              f"{sum(len(fn.calls) for fn in model.functions)} call edges, "
              f"{elapsed:.2f}s"
              + (f", compile_commands={rel_str(cc)}" if cc else
                 ", no compile_commands (tree scan)"))
        if timings:
            per_check = ", ".join(f"{name} {timings[name] * 1000:.0f}ms"
                                  for name in timings)
            print(f"crh_analyzer: check wall-times: {per_check}")
    budget_problems = check_budget_file(opts.budget, timings) \
        if opts.budget else []
    for msg in budget_problems:
        print(msg, file=sys.stderr)
    if new:
        print(f"\ncrh_analyzer ({backend_name}): {len(new)} finding(s) not "
              f"in {BASELINE.name}.", file=sys.stderr)
        return 1
    if stale and not opts.paths:
        # Full-tree runs keep the baseline honest; path-scoped runs cannot
        # see every finding, so only tree runs judge staleness.
        for entry in sorted(stale):
            print(f"crh_analyzer: baselined finding no longer present: "
                  f"{entry}", file=sys.stderr)
        print(f"crh_analyzer: delete fixed entries from {BASELINE.name} or "
              "run --update-baseline.", file=sys.stderr)
        return 1
    if budget_problems:
        return 1
    print(f"crh_analyzer ({backend_name}): clean ({len(files)} files, "
          f"{len(model.functions)} functions).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

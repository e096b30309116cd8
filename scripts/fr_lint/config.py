"""Rule configuration for fr-lint: allowlists, banned tokens, layering map.

Policy (DESIGN.md §8): allowlists are the *documented* escape hatches.  A
name belongs here only when every use of it in hot code is allocation-free
and non-blocking by construction (or is the designed boundary, like the
Sink handoff).  One-off exceptions belong at the use site as an inline
`// fr-lint: allow(<rule>): <reason>` suppression instead, so the reason
sits next to the code it excuses.
"""

from __future__ import annotations

# --- hot-path purity ---------------------------------------------------------

# Annotation tokens (src/util/annotations.h).
HOT_ANNOTATION = "FR_HOT"
SINGLE_WRITER_ANNOTATION = "FR_SINGLE_WRITER"

# Call names an FR_HOT body may always make: known allocation-free,
# non-blocking primitives and containers-by-reference accessors.
CALL_ALLOWLIST = frozenset({
    # libc / builtin memory and math primitives (no allocation)
    "memcpy", "memset", "memcmp", "memmove", "abs", "assert",
    # <algorithm>/<numeric>/<bit> value helpers (in-place / pure)
    "min", "max", "clamp", "swap", "move", "forward", "exchange_value",
    "bit_width", "popcount", "countl_zero", "countr_zero",
    # in-place heap maintenance over a preallocated vector
    "push_heap", "pop_heap",
    # std::byte conversion
    "to_integer",
    # container/span/optional accessors (no allocation, by reference)
    "size", "empty", "data", "begin", "end", "rbegin", "rend",
    "front", "back", "first", "last", "subspan", "capacity",
    "value", "value_or", "has_value", "contains", "count",
    "time_since_epoch",
    "pop_back",  # shrinks, never allocates
    # atomics: allowed in hot code generally; the single-writer rule
    # separately bans RMW inside FR_SINGLE_WRITER lanes
    "load", "store", "test_and_set", "clear", "fetch_add", "fetch_sub",
    "fetch_or", "fetch_and", "exchange",
    "compare_exchange_weak", "compare_exchange_strong",
    # pacing primitives of the real-time runtimes: send() spins on the
    # token bucket and idle_until() sleeps by design (the round barrier)
    "yield", "sleep_for",
    # the ScanRuntime::Sink handoff — one indirect call per packet is the
    # receive contract; its target is the engine's FR_HOT on_packet
    "sink",
})

# Type names allowed in constructor position inside an FR_HOT body
# (trivial/POD construction, no heap).
TYPE_ALLOWLIST = frozenset({
    "byte", "span", "array", "optional", "pair", "tuple",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t",
    "int32_t", "int64_t", "size_t", "ptrdiff_t", "Nanos",
    # SpinLock meets BasicLockable; lock_guard over it is two atomic ops.
    # Real mutexes are caught separately by the std::mutex token ban.
    "lock_guard",
    # repo POD/value types constructed on hot paths
    "Ipv4Address", "ByteReader", "ByteWriter", "PacketSlot", "TokenBucket",
    "ProcessedResponse", "Slot", "Entry", "RouteHop",
    "Ipv4Header", "UdpHeader", "TcpHeader", "IcmpHeader", "ParsedResponse",
    "DecodedProbe", "Route",
})

# Call names that mean heap allocation (or unbounded growth) — banned in
# FR_HOT bodies unless suppressed at the use site with a documented reason.
BANNED_CALLS = frozenset({
    "malloc", "calloc", "realloc", "free", "strdup",
    "push_back", "emplace_back", "emplace", "resize", "reserve",
    "assign", "append", "insert", "make_unique", "make_shared",
    "to_string", "str", "substr", "stoi", "stol", "stoul", "stoull",
    # I/O
    "printf", "fprintf", "sprintf", "snprintf", "puts", "fputs",
    "fopen", "fclose", "fwrite", "fread", "fflush", "getline", "flush",
    "open", "close", "write", "read",
})

# Raw tokens banned in FR_HOT bodies (keywords and types; matched on the
# scrubbed source, so comments and strings never trigger them).
BANNED_TOKENS = (
    (r"\bnew\b", "heap allocation (new)"),
    (r"\bdelete\b", "heap deallocation (delete)"),
    (r"\bthrow\b", "throw expression"),
    (r"\bstd::mutex\b", "std::mutex"),
    (r"\bstd::recursive_mutex\b", "std::recursive_mutex"),
    (r"\bstd::shared_mutex\b", "std::shared_mutex"),
    (r"\bstd::condition_variable\b", "std::condition_variable"),
    (r"\bpthread_mutex\w*\b", "pthread mutex"),
    (r"\bstd::string\b", "std::string construction"),
    (r"\bostringstream\b|\bstringstream\b", "string stream"),
    (r"\bstd::cout\b|\bstd::cerr\b|\bstd::clog\b", "stream I/O"),
    (r"\bofstream\b|\bifstream\b|\bfstream\b", "file stream"),
)

# --- determinism -------------------------------------------------------------

DET_RANDOM_TOKENS = (
    (r"\bstd::random_device\b|\brandom_device\b", "std::random_device"),
    (r"\bsrand\s*\(", "srand()"),
    (r"\brand\s*\(\s*\)", "rand()"),
    (r"\bdrand48\s*\(|\blrand48\s*\(|\bmrand48\s*\(", "*rand48()"),
)

DET_WALLCLOCK_TOKENS = (
    (r"\bsystem_clock\b", "std::chrono::system_clock"),
    (r"\bsteady_clock\b", "std::chrono::steady_clock"),
    (r"\bhigh_resolution_clock\b", "std::chrono::high_resolution_clock"),
    (r"\bgettimeofday\s*\(", "gettimeofday()"),
    (r"\bclock_gettime\s*\(", "clock_gettime()"),
    (r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)", "time()"),
    (r"\blocaltime\s*\(|\bgmtime\s*\(", "broken-down wall time"),
)

# Files allowed to read the wall clock: the Clock implementations are the
# single sanctioned boundary (engines only ever see util::Nanos).
DET_WALLCLOCK_FILE_ALLOWLIST = frozenset({
    "src/util/clock.h",
})

# Pointer-keyed unordered containers: iteration order depends on the
# allocator, which breaks run-to-run determinism.  No file in src/ needs
# one; scan outputs are keyed by integers (addresses, /24 indices).
DET_PTR_ITER_FILE_ALLOWLIST: frozenset[str] = frozenset()

# --- layering ----------------------------------------------------------------

# core/ headers that form the engine's *interface* to the rest of the tree:
# runtime abstractions, results, the one probe sender every engine puts its
# probes on the wire through, the one response recorder every engine matches
# and records its replies through, and the codec/target helpers baselines
# and transports legitimately share.  Everything else under core/ (DCBs, the
# tracer itself) is internal.
CORE_INTERFACE_HEADERS = frozenset({
    "core/runtime.h",
    "core/probe_sender.h",
    "core/response_recorder.h",
    "core/result.h",
    "core/threaded_runtime.h",
    "core/sharded_tracer.h",
    "core/probe_codec.h",
    "core/targets.h",
})

# Directory (relative to src/) -> directories it may include from.  A file
# may always include its own directory.  `+core-interface` grants the
# CORE_INTERFACE_HEADERS exception.
LAYERING: dict[str, tuple[frozenset[str], bool]] = {
    "util": (frozenset({"util"}), False),
    "net": (frozenset({"net", "util"}), True),
    "obs": (frozenset({"obs", "util"}), False),
    "io": (frozenset({"io", "net", "util"}), True),
    "core": (frozenset({"core", "net", "util", "obs", "io"}), False),
    "baselines": (frozenset({"baselines", "net", "util", "obs"}), True),
    "sim": (frozenset({"sim", "net", "util", "obs"}), True),
    "analysis": (
        frozenset({"analysis", "core", "net", "util", "obs", "io"}),
        False,
    ),
    # The scan-job service orchestrates everything below it: engines (core),
    # simulated worlds (sim), persistence (io), churn queries (analysis).
    "svc": (
        frozenset({"svc", "core", "net", "util", "obs", "io", "sim",
                   "analysis"}),
        False,
    ),
}

# The service's documented syscall boundary (DESIGN.md §12, §14): every
# socket / poll / pipe call in src/svc lives in the socket files, and every
# journal and archive file write lives in the record-log files (the journal
# files sit on top of them) — nowhere else.  Blocking I/O is their whole
# purpose, so a hot-path annotation inside them is a contradiction — the
# engine flags FR_HOT there as hot-banned.
SVC_IO_BOUNDARY_FILES = frozenset({
    "src/svc/socket.h",
    "src/svc/socket.cc",
    "src/svc/journal.h",
    "src/svc/journal.cc",
    "src/io/record_log.h",
    "src/io/record_log.cc",
})

# --- lock discipline (DESIGN.md §13) -----------------------------------------

# Type names that make a class "mutex-owning" when held by value: every
# other mutable field of such a class must carry FR_GUARDED_BY, an
# `// fr-atomic: <role>` comment, or an explicit allow (rule guarded-member).
MUTEX_TYPES = frozenset({
    "std::mutex", "util::Mutex", "Mutex",
})

# RAII guard types whose declaration lexically acquires a capability for
# the rest of the enclosing block (rules lock-order, cap-boundary).
GUARD_TYPES = frozenset({
    "lock_guard", "unique_lock", "scoped_lock", "MutexLock",
})

# Synchronization-primitive member types that are not "data" for the
# guarded-member rule (they synchronize; nothing guards them).
SYNC_MEMBER_TYPES = frozenset({
    "std::mutex", "util::Mutex", "Mutex",
    "std::condition_variable", "std::condition_variable_any",
    "util::CondVar", "CondVar",
})

# The blocking entry points of the svc I/O boundary (socket.h): calling one
# with any capability held parks a lock on peer behavior (rule
# cap-boundary).  WakePipe::wake()/drain() are deliberately absent — both
# are single-syscall, non-blocking, and documented as cross-thread-safe.
CAP_BOUNDARY_CALLS = frozenset({
    "read_frame", "write_frame", "accept_client", "wait_readable",
    "connect_unix", "bind_and_listen",
})

# --- scan scope --------------------------------------------------------------

SOURCE_DIRS = ("src",)
SOURCE_SUFFIXES = (".h", ".cc")

# C++ keywords that look like calls to the token scanner.
CALL_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "alignas", "decltype", "noexcept", "static_assert", "catch", "case",
    "do", "else", "goto", "new", "delete", "throw", "defined", "requires",
    "operator",
})

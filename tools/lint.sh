#!/usr/bin/env bash
# Repo-local lint: bans patterns that break simulator reproducibility
# or let the protocol drift out of sync with its own metadata. Run
# from anywhere; exits non-zero with a file:line listing per offense.
set -u
cd "$(dirname "$0")/.."

fail=0
complain() {
    echo "lint: $1" >&2
    shift
    printf '  %s\n' "$@" >&2
    fail=1
}

src_files() {
    find src tests bench examples -name '*.cc' -o -name '*.hh' | sort
}

# --- 1. Unseeded randomness outside sim/random.* ----------------------
# Every stochastic decision must flow through the seeded Rng so runs
# (and fault campaigns) replay deterministically.
hits=$(src_files | grep -v 'src/sim/random' |
       xargs grep -nE '\b(rand|srand|random)\(\)|std::random_device|time\(NULL\)|time\(0\)' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "unseeded randomness (use sim/random.hh Rng):" "$hits"
fi

# --- 2. Wall-clock time in simulation code ----------------------------
# Simulated time is EventQueue ticks; wall-clock reads make runs
# nondeterministic. (bench/ may time itself; the harness does it.)
hits=$(find src -name '*.cc' -o -name '*.hh' | sort |
       xargs grep -nE 'std::chrono::(system|steady|high_resolution)_clock::now' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "wall-clock reads in src/ (use EventQueue ticks):" "$hits"
fi

# --- 3. msgTypeName exhaustiveness ------------------------------------
# Every MsgType enumerator must have a case in msgTypeName(); a missing
# one silently prints "?" in traces and violation reports.
enums=$(sed -n '/^enum class MsgType/,/^};/p' src/proto/message.hh |
        grep -oE '^    [A-Z][A-Za-z]+' | tr -d ' ')
missing=""
for e in $enums; do
    grep -qE "case MsgType::$e:" src/proto/message.cc ||
        missing="$missing $e"
done
if [ -n "$missing" ]; then
    complain "MsgType enumerators missing from msgTypeName():" "$missing"
fi

# --- 3b. Protocol-spec declaration exhaustiveness ---------------------
# Every MsgType enumerator must be declared in the protocol spec
# (src/proto/spec.cc); an undeclared one has no class/routing/network
# metadata and protocheck would reject any transition that uses it.
missing=""
for e in $enums; do
    grep -qE "declareMsg\((MsgType|MT)::$e," src/proto/spec.cc ||
        missing="$missing $e"
done
if [ -n "$missing" ]; then
    complain "MsgType enumerators missing a declareMsg() in src/proto/spec.cc:" "$missing"
fi

# --- 4. Naked new/delete ----------------------------------------------
hits=$(src_files |
       xargs grep -nE '=\s*new\s|[^_a-zA-Z]delete\s+[a-z]' 2>/dev/null |
       grep -v 'unique_ptr\|make_unique\|= delete')
if [ -n "$hits" ]; then
    complain "naked new/delete (use std::unique_ptr):" "$hits"
fi

# --- 5. printf-family in the library ----------------------------------
# src/ reports through Trace/warn/panic/StatSet; stray stdout writes
# corrupt machine-readable experiment output.
hits=$(find src -name '*.cc' -o -name '*.hh' | sort |
       grep -v 'src/sim/log' |
       xargs grep -nE '\b(printf|fprintf|puts)\(' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "printf-family in src/ (use Trace/warn/panic):" "$hits"
fi

# --- 6. Hot-path container/callback discipline ------------------------
# The simulated access path allocates nothing on the heap (DESIGN.md
# 3.1; tests/test_alloc_budget.cc pins the count). src/sim, src/net,
# src/proto, src/machine and src/mem use InlineCallback / FunctionRef /
# FlatMap and std::vector. Every scheduled closure and every
# access completion is trivially copyable and fits a fixed inline
# budget (InlineFunction: InlineCallback, ComputeBase::CompletionFn);
# the compiler rejects anything else, so this rule only has to keep
# the other type-erasure and node-based containers out. New
# std::function members, node-based maps and sets, and std::deque
# (which allocates its map and a 512 B node on construction and on
# every move) bring per-event allocations back; use
# sim/inline_callback.hh (owning), sim/function_ref.hh (borrowing
# visitor parameters), sim/flat_map.hh or a vector instead.
# Allowlist, one reason each:
#  - std::function<void(Tick)>: the CIM completion, one per offloaded
#    chunk, not per access.
#  - cimCallbacks_: one FIFO per node, allocated once; CIM requests
#    are per chunk, not per access.
#  - blocked_: one FIFO per node of accesses waiting for a free MSHR,
#    allocated once per node.
#  - stats.hh std::map<std::string, double...>: the sorted stats
#    report; lookups by string_view build no key.
#  - spec_check.cc dfs: the spec static analyzer, run once.
#  - machine.hh SendInterceptor: the model checker's send hook, set
#    once per run, not per access.
hits=$(find src/sim src/net src/proto src/machine src/mem \
           -name '*.cc' -o -name '*.hh' |
       sort |
       xargs grep -nE 'std::function<|std::map<|std::unordered_map<|std::deque<|std::unordered_set<' \
           2>/dev/null |
       grep -vE '^\s*[^:]+:[0-9]+:\s*(//|\*|/\*)' |
       grep -v 'compute_base.hh:.*std::function<void(Tick)>' |
       grep -v 'compute_base.hh:.*cimCallbacks_' |
       grep -v 'compute_base.hh:.*std::deque<PendingAccess> blocked_' |
       grep -v 'compute_base.cc:.*std::function<void(Tick)> cb' |
       grep -v 'stats.hh:.*std::map<std::string, double' |
       grep -v 'spec_check.cc:.*std::function<bool(int)> dfs' |
       grep -v 'machine.hh:.*using SendInterceptor = std::function<')
if [ -n "$hits" ]; then
    complain "std::function / std::deque / node-based map or set in a hot path (use sim/inline_callback.hh, sim/function_ref.hh, sim/flat_map.hh, or std::vector):" "$hits"
fi

# --- 6b. Transition-table construction discipline ---------------------
# The declarative protocol spec is single-source: transition tables are
# built ONLY in src/proto/spec.cc (the real spec) and consumed — never
# rebuilt — everywhere else. The abstract model checker
# (src/check/spec_explorer.cc) holds a private spec copy to seed
# mutation self-tests, and tests/test_protocheck.cc corrupts copies to
# prove the static analyzer catches each violation kind; both are
# deliberate. Any other builder call (declareMsg / on / ignore /
# impossible / ProtocolSpec::build) forks the protocol definition and
# will silently drift from the checked spec.
hits=$(src_files | cat - <(find tools -name '*.cc' | sort) |
       grep -vE 'src/proto/spec\.(cc|hh)' |
       grep -v 'src/check/spec_explorer.cc' |
       grep -v 'tests/test_protocheck.cc' |
       xargs grep -nE '\bdeclareMsg\([^)]|\.on\((spec::)?(Role|R)::|\.ignore\((spec::)?(Role|R)::|\.impossible\((spec::)?(Role|R)::|ProtocolSpec::build\(' \
           2>/dev/null)
if [ -n "$hits" ]; then
    complain "transition-table construction outside src/proto/spec.cc / src/check/spec_explorer.cc (single-source spec):" "$hits"
fi

# --- 7. Fault enum exhaustiveness -------------------------------------
# Every FaultAction / FaultDomain enumerator must have a case in its
# name function (src/sim/fault.cc), and every FaultDomain must be
# handled by the chaos generator (tools/chaos/chaos.cc) — a domain the
# fuzzer cannot draw is a fault path with zero randomized coverage.
for enum_name in FaultAction FaultDomain; do
    enums=$(sed -n "/^enum class $enum_name/,/^};/p" src/sim/fault.hh |
            grep -oE '^    [A-Z][A-Za-z]+' | tr -d ' ')
    missing=""
    for e in $enums; do
        grep -qE "case $enum_name::$e:" src/sim/fault.cc ||
            missing="$missing $e"
    done
    if [ -n "$missing" ]; then
        complain "$enum_name enumerators missing from src/sim/fault.cc name function:" "$missing"
    fi
    if [ "$enum_name" = FaultDomain ]; then
        missing=""
        for e in $enums; do
            grep -qE "case $enum_name::$e:" tools/chaos/chaos.cc ||
                missing="$missing $e"
        done
        if [ -n "$missing" ]; then
            complain "FaultDomain enumerators unhandled by tools/chaos/chaos.cc (generator):" "$missing"
        fi
    fi
done

# --- 8. One definition per class name in src/ headers ----------------
# Two column-0 struct/class definitions with the same name in the one
# pimdsm namespace are an ODR violation: the program silently mixes two
# layouts, and only an -flto build warns (-Wodr). Forward declarations
# (`struct X;`) and template specializations (`struct X<...>`) are not
# definitions and do not count.
hits=$(find src -name '*.hh' | sort |
       xargs grep -nE '^(struct|class) [A-Za-z_][A-Za-z0-9_]*' 2>/dev/null |
       grep -vE ':(struct|class) [A-Za-z_][A-Za-z0-9_]*\s*[<;]' |
       awk '{ name = $2; sub(/[^A-Za-z0-9_].*/, "", name)
              loc = $1; sub(/:(struct|class)$/, "", loc)
              where[name] = where[name] " " loc; n[name]++ }
            END { for (k in n) if (n[k] > 1) print k ":" where[k] }' |
       sort)
if [ -n "$hits" ]; then
    complain "struct/class defined twice in src/ headers (ODR; rename one):" "$hits"
fi

# --- 9. Op generators take their parameters by value ------------------
# A coroutine frame outlives the call that created it: makeStream
# returns the OpGen and its arguments go out of scope, so a reference
# or pointer parameter of a generator dangles on the first next().
# Flags any function returning OpGen whose parameter list (which may
# span lines) holds a & or *.
hits=$(src_files |
       xargs perl -0777 -ne '
           while (/\bOpGen\s+(\w+)\s*\(([^)]*)\)/g) {
               my ($fn, $params, $at) = ($1, $2, $-[0]);
               next unless $params =~ /[&*]/;
               my $line = 1 + (substr($_, 0, $at) =~ tr/\n//);
               $params =~ s/\s+/ /g;
               print "$ARGV:$line: $fn($params)\n";
           }' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "OpGen generator with a reference or pointer parameter (coroutine frames outlive their arguments; take it by value):" "$hits"
fi

# --- 10. Stat names follow the layer.event schema ---------------------
# Every event count lives in the machine's StatSet under a name that
# starts with the layer that counts it, so a RunResult's counter keys
# sort into one block per layer. Flags a string literal passed first
# to add( or set( in src/ (bare, wrapped in std::string, or either arm
# of a `flag ? "a" : "b"` choice) whose text is not <layer>.<event>
# with a known layer and a lower-case event; a new layer joins the
# list here.
hits=$(find src -name '*.cc' -o -name '*.hh' | sort |
       xargs perl -0777 -ne '
           while (/\b(?:add|set)\(\s*(?:std::string\(\s*|[\w.]+\s*\?\s*)?"([^"]*)"(?:\s*:\s*"([^"]*)")?/g) {
               my $at = $-[0];
               my $line = 1 + (substr($_, 0, $at) =~ tr/\n//);
               for my $name (grep { defined } $1, $2) {
                   next if $name =~ /^(compute|home|dnode|coma|fault|check|reconfig)\.[a-z0-9_.]+$/;
                   print "$ARGV:$line: \"$name\"\n";
               }
           }' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "stat name outside the <layer>.<event> schema (layers: compute home dnode coma fault check reconfig):" "$hits"
fi

# --- 11. No hand-built JSON in bench/ or tools/ -----------------------
# Benches and tools write JSON through src/report/json.hh (one writer,
# one escape) and read it back through parseJson. A string literal
# holding an escaped-quote key and a colon (\"name\":) is JSON
# assembled by hand, with its own commas and escaping.
hits=$(find bench tools -name '*.cc' -o -name '*.hh' | sort |
       xargs grep -nE '\\"[A-Za-z_][A-Za-z0-9_]*\\":' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "hand-built JSON in bench/ or tools/ (use JsonWriter / parseJson from src/report/json.hh):" "$hits"
fi

# --- 12. One way to send a message later ------------------------------
# A protocol controller defers a send only through its sendAt helper
# (HomeBase::sendAt clamps egress to commit order; ComputeBase::sendAt
# does not). Flags a scheduled lambda that sends (`] { ctx_.send(`) in
# src/proto anywhere but inside a function named sendAt.
hits=$(find src/proto -name '*.cc' -o -name '*.hh' | sort |
       xargs awk '
           FNR == 1 { fn = "" }
           /^[A-Za-z_][A-Za-z0-9_:<>]*::[A-Za-z_][A-Za-z0-9_]*\(/ {
               fn = $0; sub(/\(.*/, "", fn); sub(/.*::/, "", fn)
           }
           /\][[:space:]]*\{[[:space:]]*ctx_\.send\(/ && fn != "sendAt" {
               print FILENAME ":" FNR ": " $0
           }' 2>/dev/null)
if [ -n "$hits" ]; then
    complain "deferred send outside a sendAt helper in src/proto (use HomeBase::sendAt / ComputeBase::sendAt):" "$hits"
fi

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED" >&2
    exit 1
fi
echo "lint: OK"

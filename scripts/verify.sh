#!/usr/bin/env bash
# CI-style verification: lint, build, test, then smoke-run the repro
# driver in parallel with JSON output and a traced run, checking that
# every artifact exists and parses.
set -euo pipefail
cd "$(dirname "$0")/.."

out=/tmp/repro-ci

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release --workspace
cargo test -q --workspace
cargo test --doc --workspace -q

# Determinism gates (gossip included) and the quick-scale golden guard:
# every experiment's quick report must stay byte-identical to the
# committed manifest (tests/golden/quick.fnv1a.txt).
cargo test -q --release -p guess-bench --test determinism
cargo test -q --release -p guess-bench --test quick_goldens -- --ignored

# Scenario gates: an empty timeline is byte-identical to a plain run on
# every engine, the seven-entry catalog (push-storm included) matches
# its own committed manifest (tests/golden/scenarios.fnv1a.txt), and a
# catalog entry renders identically across --jobs levels.
cargo test -q --release -p guess-bench --test scenario_noop
cargo test -q --release -p guess-bench --test scenario_goldens -- --ignored

# Scenario CLI smoke: one catalog entry end to end through the repro
# driver, with the text artifact present and the JSON parsing.
rm -rf "$out/scenarios"
cargo run --release -p guess-bench --bin repro -- \
    scenario param-flip --quick --jobs 2 --json --out "$out/scenarios"
[ -s "$out/scenarios/param-flip.txt" ] || { echo "missing $out/scenarios/param-flip.txt" >&2; exit 1; }
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/scenarios/param-flip.json"

# Maintenance-plane gate: the CUP-style experiment's quick golden is
# pinned in quick.fnv1a.txt with the rest of the registry; here, the
# report must additionally be byte-identical across --jobs levels, which
# (with the manifest) pins that the default pull mode leaves every other
# report's RNG streams untouched.
rm -rf "$out/maint-j1" "$out/maint-j4"
cargo run --release -p guess-bench --bin repro -- \
    maintenance --quick --jobs 1 --out "$out/maint-j1"
cargo run --release -p guess-bench --bin repro -- \
    maintenance --quick --jobs 4 --out "$out/maint-j4"
diff "$out/maint-j1/maintenance.txt" "$out/maint-j4/maintenance.txt"
echo "maintenance gate: quick report byte-identical at --jobs 1 and 4"

# Lane-mode gates. The lanes=1 serial-identity property and the
# committed lane pins run in the plain workspace suite above; here the
# quick-scale contract gets its release run: a queries-off GUESS run
# with lanes > 1 must be byte-identical at --threads 1 and 4, with an
# exact event count (output is a pure function of (seed, lanes), never
# of the worker count). Then the lane model itself: at equal N with
# queries off, lanes = 8 must keep the cache-health metrics within
# three serial seed-to-seed standard deviations.
cargo test -q --release -p guess-bench --test thread_identity -- --ignored
cargo test -q --release -p guess --test lane_model -- --ignored

# Threaded bench smoke: queries-on GUESS has no lane decomposition, so
# --threads 1,4 through the CLI emits the serial row only, with the
# threads column wired.
rm -rf "$out/bench-threads"
cargo run --release -p guess-bench --bin repro -- \
    bench --quick --iters 1 --only guess-quick --threads 1,4 --out "$out/bench-threads"
python3 - "$out/bench-threads/BENCH_0.json" BENCH_7.json <<'EOF'
import json, sys

def table(path):
    doc = json.load(open(path))
    return next(b for b in doc["blocks"] if b.get("type") == "table")

fresh, base = table(sys.argv[1]), table(sys.argv[2])
cols = fresh["columns"]
for needed in ("workload", "threads", "cores"):
    assert needed in cols, f"{needed} column missing: {cols}"
w, t = cols.index("workload"), cols.index("threads")
rows = {row[w]: int(row[t]) for row in fresh["rows"]}
assert rows == {"guess-quick": 1}, f"unexpected rows: {rows}"
print("bench gate: --threads 1,4 emitted the serial row only")

# Event counts are deterministic: the row must match the committed
# baseline exactly.
def events(t):
    w, e = t["columns"].index("workload"), t["columns"].index("events")
    return {row[w]: row[e] for row in t["rows"]}

got, want = events(fresh), events(base)
for name, n in got.items():
    assert n == want[name], f"{name}: {n} events vs committed {want[name]}"
print(f"bench gate: event counts match the committed baseline on {sorted(got)}")
EOF

# Bench smoke gate: the quick workload matrix completes under a generous
# ceiling, emits valid BENCH JSON, every quick workload processes exactly
# the committed number of events (event counts are deterministic), and
# no quick workload's median has regressed by more than 2x against the
# committed baseline (BENCH_7 — its serial quick rows). Each row's
# bytes_per_peer may exceed the committed figure by at most 2 %.
cargo test -q --release -p guess-bench --test bench_smoke -- --ignored
rm -rf "$out/bench"
cargo run --release -p guess-bench --bin repro -- bench --quick --iters 3 --out "$out/bench"
python3 - "$out/bench/BENCH_0.json" BENCH_7.json <<'EOF'
import json, sys

def rows(path):
    doc = json.load(open(path))
    table = next(b for b in doc["blocks"] if b.get("type") == "table")
    cols = table["columns"]
    w, e, m, b = (cols.index(c) for c in ("workload", "events", "median_s", "bytes_per_peer"))
    return {row[w]: (row[e], row[m], int(row[b])) for row in table["rows"]}

# bytes_per_peer is the counting allocator's peak, which is deterministic:
# the 2 % slack only absorbs allocator-level jitter, while a field that
# adds padding to a per-peer record moves it by far more.
fresh, base = rows(sys.argv[1]), rows(sys.argv[2])
bad = []
for name, (events, got, mem) in fresh.items():
    assert name in base, f"workload {name} missing from committed baseline"
    want_events, want, want_mem = base[name]
    assert events == want_events, f"{name}: {events} events vs committed {want_events}"
    assert mem > 0, f"{name}: non-positive bytes_per_peer {mem}"
    print(f"bench gate: {name:<16} {events} events  committed {want:.4f}s  fresh {got:.4f}s"
          f"  {mem} B/peer (committed {want_mem})")
    if got > 2.0 * want:
        bad.append(f"{name}: {got:.4f}s vs committed {want:.4f}s (>2x)")
    if mem > 1.02 * want_mem:
        bad.append(f"{name}: {mem} B/peer vs committed {want_mem} (>1.02x)")
assert not bad, "bench regressed:\n" + "\n".join(bad)
EOF

# Per-engine gate through the --only filter: the gnutella wavefront path
# is checked in isolation so a regression there cannot hide behind the
# aggregate matrix (and the filter plumbing itself stays exercised).
rm -rf "$out/bench-gnutella"
cargo run --release -p guess-bench --bin repro -- \
    bench --quick --iters 3 --only gnutella-quick --out "$out/bench-gnutella"
python3 - "$out/bench-gnutella/BENCH_0.json" BENCH_7.json <<'EOF'
import json, sys

def rows(path):
    doc = json.load(open(path))
    table = next(b for b in doc["blocks"] if b.get("type") == "table")
    cols = table["columns"]
    w, e, m = (cols.index(c) for c in ("workload", "events", "median_s"))
    return {row[w]: (row[e], row[m]) for row in table["rows"]}

fresh, base = rows(sys.argv[1]), rows(sys.argv[2])
assert set(fresh) == {"gnutella-quick"}, f"--only filter leaked: {sorted(fresh)}"
(events, got), (want_events, want) = fresh["gnutella-quick"], base["gnutella-quick"]
print(f"bench gate: gnutella-quick (solo) {events} events  committed {want:.4f}s  fresh {got:.4f}s")
assert events == want_events, f"gnutella-quick: {events} events vs committed {want_events}"
assert got <= 2.0 * want, f"gnutella-quick regressed: {got:.4f}s vs {want:.4f}s (>2x)"
EOF

cargo run --release -p guess-bench --bin repro -- \
    table3 fig9 --quick --jobs 2 --json --out "$out"

for name in table3 fig9; do
    for ext in txt json; do
        [ -s "$out/$name.$ext" ] || { echo "missing $out/$name.$ext" >&2; exit 1; }
    done
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/$name.json"
done

# Shard-determinism gate: splitting a grid across --shard invocations
# and taking the union of the output files must be byte-identical to
# the unsharded run (seed-addressed determinism makes merging trivial).
rm -rf "$out/shard-all" "$out/shard-0" "$out/shard-1" "$out/shard-merged"
cargo run --release -p guess-bench --bin repro -- \
    table3 fig9 forwarding3 --quick --jobs 2 --json --out "$out/shard-all"
cargo run --release -p guess-bench --bin repro -- \
    table3 fig9 forwarding3 --quick --jobs 2 --json --shard 0/2 --out "$out/shard-0"
cargo run --release -p guess-bench --bin repro -- \
    table3 fig9 forwarding3 --quick --jobs 2 --json --shard 1/2 --out "$out/shard-1"
mkdir -p "$out/shard-merged"
cp "$out/shard-0"/* "$out/shard-1"/* "$out/shard-merged/"
diff -r "$out/shard-all" "$out/shard-merged"
echo "shard gate: 0/2 + 1/2 merge is byte-identical to the unsharded grid"

# Traced runs: the binary itself reconciles each trace against the run
# report (exits non-zero on mismatch); then check every line is JSON.
cargo run --release -p guess-bench --bin repro -- --trace "$out/trace.jsonl" --quick
cargo run --release -p guess-bench --bin repro -- \
    --trace "$out/gossip-trace.jsonl" --engine gossip --quick
for trace in trace gossip-trace; do
    python3 - "$out/$trace.jsonl" <<'EOF'
import json, sys
n = 0
with open(sys.argv[1]) as f:
    for line in f:
        json.loads(line)
        n += 1
assert n > 0, "empty trace"
print(f"{sys.argv[1]}: {n} well-formed JSONL records")
EOF
done
echo "verify: OK"

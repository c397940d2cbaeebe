#!/usr/bin/env bash
# Bench smoke run: verifies the workspace (tier-1 build + tests), then
# executes the two end-to-end benchmarks (`simulator_throughput` and
# `scheduler_latency`) in quick mode and writes a merged JSON snapshot of
# mean ns per trial per scheduler, so the perf trajectory of the simulation
# hot path is tracked PR over PR.
#
# Usage:  crates/bench/smoke.sh [output.json]
#
# The default output is BENCH_<n>.json at the repo root, where <n> is one
# past the highest existing snapshot number (BENCH_1.json for the first run).
# Quick mode (PCAPS_BENCH_QUICK=1) cuts sample counts to 5 per benchmark, so
# the whole smoke run takes well under a minute; drop the variable in the
# commands below for tighter statistics.  Cross-snapshot comparisons should
# use each benchmark's `min_ns` — the minimum per-batch mean is robust to
# one-off scheduler noise, where the overall mean is not.  The snapshot's
# `host` object (perfbench's host_metadata: CPU, nproc, rustc, commit,
# source digest) says which machine and source the numbers come from, so
# compare snapshots only when it matches.
set -euo pipefail
cd "$(dirname "$0")/../.."

out="${1:-}"
if [[ -z "$out" ]]; then
    n=1
    while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
    out="BENCH_${n}.json"
fi

# Never bench a broken tree: the tier-1 verify gate (ROADMAP.md) runs first
# so every BENCH_<n>.json snapshot corresponds to a green build.  The whole
# smoke run denies rustc warnings in workspace crates (exported RUSTFLAGS
# covers the release build of every target — libs, bins, examples, tests,
# benches — plus the test and bench compiles, and keeps cargo's fingerprints
# consistent across the steps) so refactor leftovers (dead code, unused
# imports) cannot linger; the shims under crates/shims/ carry crate-level
# allows (they are deliberate API subsets) and are thereby exempt.
export RUSTFLAGS="${RUSTFLAGS:-} -Dwarnings"
cargo build --release --all-targets
# Clippy over every target of the default members, warnings denied (the
# criterion shim carries a crate-level clippy allow for the same reason as
# its rustc allows).  `cargo fmt` is not gated.
cargo clippy --all-targets -- -D warnings
# Rustdoc over the default members, warnings denied: a doc link to a
# deleted or private name, or a citation like `[48]` read as a link, fails
# here, where neither the compiler nor clippy looks.
RUSTDOCFLAGS="${RUSTDOCFLAGS:-} -D warnings" cargo doc --no-deps
cargo test -q
# Every example runs to completion: the build above compiles them, but
# only running one shows it still works end to end.
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)"
done
# The repository benchmark (perfbench/) is a package of its own that builds
# these crates by path and pins their dependency lists in its own lockfile:
# build it and run its self-test, locked and offline, into the target
# directory perfbench/run.py uses, so a change to a type or function it
# imports, or a new edge between workspace crates, fails here.
CARGO_TARGET_DIR=.bench_build \
    cargo test --release --locked --offline -q --manifest-path perfbench/Cargo.toml

# Conformance suites that must run in full: a filter, an ignore attribute
# or a compile-time gate that silently skipped one would let its guarantees
# rot.  Run each explicitly and fail unless every test in the binary ran:
# at least one passed, none failed, none ignored, none filtered.
require_full_suite() {
    local name="$1" description="$2"
    local out summary
    out=$(cargo test -q --test "$name" 2>&1)
    echo "$out"
    summary=$(grep -E "^test result:" <<<"$out" | tail -n 1)
    if ! grep -qE "test result: ok\. [1-9][0-9]* passed; 0 failed; 0 ignored; 0 measured; 0 filtered out" <<<"$summary"; then
        echo "error: the $description did not run in full: $summary" >&2
        exit 1
    fi
}
# tests/migration.rs pins the engine's never-migrate fingerprints and the
# cross-member accounting; tests/streaming.rs pins the pull-based intake
# pipeline bit-for-bit against the materialized path, on one cluster and on
# a two-member federation; tests/faults.rs pins the fault layer's
# do-no-harm guarantee (empty schedule ≡ no schedule, bit for bit), replay
# determinism under injection (with and without carbon-delta migration),
# and the hand-computed recovery oracles; tests/steady_state.rs pins the
# serving mode (snapshot/restore bit-identity across policies and seeds,
# and on a federation with flows, drains, crashes, an outage and a carbon
# dropout in flight; restore rejecting a differently shaped federation;
# windowed-percentile oracle, admission conservation, open-loop
# determinism, bounded residency); tests/network.rs pins the link-level
# transfer model (flow completions vs the from-scratch max-min oracle,
# fed3_migrate_pcaps replaying its recorded fingerprints and migration-log
# hash whether the matrix is attached by with_transfer_matrix or by
# with_network(from_matrix), drain-then-move replay determinism, and a
# superseded flow arrival never outliving the run); tests/scheduler_state.rs pins the
# incremental probabilistic-scheduler state (DecimaLike's version-stamped
# table of factorised softmax terms, recomputed in full only when the
# max-remaining normaliser changes, and its cached jobs-with-work count)
# bit for bit against a from-scratch factorised oracle, and within rounding
# of the textbook softmax, across arrivals, completions, serve-mode
# compaction and migration; tests/properties.rs holds the structural
# oracles (incremental frontier and task counts under dispatch, finish and
# failure vs a from-scratch recount, streamed DAGs ≡ generator DAGs bit for
# bit); tests/determinism.rs pins the run_trial fingerprints to the v1
# seed's, on the finite and the serving path, and DecimaLike's cache_stats
# counters.
require_full_suite migration "migration conformance suite"
require_full_suite streaming "streaming-equivalence suite"
require_full_suite faults "fault-injection conformance suite"
require_full_suite steady_state "steady-state serving suite"
require_full_suite network "network-topology conformance suite"
require_full_suite scheduler_state "incremental scheduler-state suite"
require_full_suite properties "property-oracle suite"
require_full_suite determinism "determinism fingerprint suite"

# Committed results must regenerate from the code: repro_check reruns the
# multi_region, reliability and steady_state sweeps in full (byte for
# byte) and the 1k/10k-job rows of alibaba_scale (schedule columns), and
# exits non-zero with a row diff on any drift.
cargo run --release -q -p pcaps-experiments --bin repro_check

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

PCAPS_BENCH_QUICK=1 PCAPS_BENCH_JSON="$tmpdir/simulator_throughput.json" \
    cargo bench --bench simulator_throughput
PCAPS_BENCH_QUICK=1 PCAPS_BENCH_JSON="$tmpdir/scheduler_latency.json" \
    cargo bench --bench scheduler_latency

python3 - "$tmpdir" "$out" <<'PYEOF'
import json
import pathlib
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, "perfbench")
from run import host_metadata

tmpdir, out = pathlib.Path(sys.argv[1]), sys.argv[2]
# The criterion specs fix their own seeds, so the run has none to record.
merged = {"host": host_metadata(None)}
for f in sorted(tmpdir.glob("*.json")):
    with open(f) as fh:
        merged[f.stem] = json.load(fh)
with open(out, "w") as fh:
    json.dump(merged, fh, indent=2)
    fh.write("\n")
print(f"wrote {out}")
PYEOF

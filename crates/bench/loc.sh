#!/usr/bin/env bash
# Non-test Rust line count, the size measure of ROADMAP's aim 2: every `.rs`
# file under `crates/` (the shims included), `src/` and `examples/`, each
# cut at its first `#[cfg(test)]` line, so a unit-test module at the foot
# of a file does not count (integration tests, under the root `tests/` or
# a crate's own `tests/`, never do).
#
# Usage:  crates/bench/loc.sh
#
# Prints one `<lines> <file>` row per file, sorted by path, then
# `<total> total`.
set -euo pipefail
cd "$(dirname "$0")/../.."

find crates src examples -path 'crates/*/tests' -prune -o -name '*.rs' -print0 |
    sort -z | xargs -0 awk '
    FNR == 1 {
        if (file != "") { printf "%6d %s\n", n, file; total += n }
        file = FILENAME; n = 0; cut = 0
    }
    /#\[cfg\(test\)\]/ { cut = 1 }
    !cut { n++ }
    END {
        if (file != "") { printf "%6d %s\n", n, file; total += n }
        printf "%6d total\n", total
    }'

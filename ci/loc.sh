#!/bin/sh
# Non-test, non-comment, non-blank Rust lines per crate — the "net LOC"
# figure ROADMAP asks every simplicity PR to report in CHANGES.md.
#
# Counts each `src/**/*.rs` line up to the file's first `#[cfg(test)]`
# that is neither blank nor a `//` (incl. `///`, `//!`) comment line.
# Informational: CI prints it, nothing gates on it.
#
#   ci/loc.sh            # every crate + the root package, and a total
#   ci/loc.sh whisper    # one crate
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' | sort | xargs awk '
        FNR == 1 { t = 0 }
        /^#\[cfg\(test\)\]/ { t = 1 }
        !t && !/^[[:space:]]*(\/\/|$)/ { c++ }
        END { print c + 0 }'
}

if [ $# -gt 0 ]; then
    count "crates/$1/src"
    exit
fi
total=0
for src in crates/*/src src; do
    n=$(count "$src")
    total=$((total + n))
    printf '%7d  %s\n' "$n" "$src"
done
printf '%7d  total\n' "$total"

#!/bin/sh
# Byte-identity of everything `whisper-report` writes, this tree against
# another revision — the proof a "same bytes" PR owes.
#
# Builds REV from `git archive` in a scratch directory, builds this
# tree, runs on both the CI mega-invocation (every gate, `--trace`),
# the `--threads 1` run, a checker run restricted to the two
# happens-before rules (the only one where the engine runs with no
# other rule selected), a `--threads 64` epoch-graph run (the only
# graphs whose vector clocks spill past their eight inline slots), a
# scale-0.3 serve run (where HOPS cross-thread dependencies retire
# most often), every single EXPERIMENT at scale 0.01, and a
# `--dump-traces` / `--from-trace` round trip, and compares every
# artefact: report.txt, report.det.json, violations.json, crash.json,
# crossval.json, optimize.json, serve.json, profile.json, trace.json,
# graphs/, the single-worker report.t1.txt / report.t1.det.json /
# serve.t1.json / crash.t1.json, report.hb.txt / violations.hb.json,
# report.t64.txt / graphs.t64/, report.s03.txt / serve.s03.json,
# experiment.<name>.txt, traces/, and report.archive.txt /
# report.archive.det.json / violations.archive.json (the archive run
# goes through the checker too). A change to the archive format alone
# shows up only under traces/: the report.archive.* files, read back
# from the archive, stay identical while it carries the same events.
# Only report.json is left out: its `metrics` block holds host
# wall-clock time. Prints the paths that differ and exits 1 if any
# does.
#
#   ci/identity.sh HEAD~1            # scratch in a fresh mktemp -d, removed after
#   ci/identity.sh 2158dd6 /tmp/id   # keep the builds and outputs in /tmp/id
#
# Needs ~1 GB of scratch (two 290 MB trace.json files and a second
# target directory) and two release builds.
set -eu

rev=${1:?usage: ci/identity.sh REV [SCRATCH_DIR]}
root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -ge 2 ]; then
    mkdir -p "$2"
    scratch=$(cd "$2" && pwd)
else
    scratch=$(mktemp -d)
    trap 'rm -rf "$scratch"' EXIT
fi

rm -rf "$scratch/rev-src" "$scratch/rev" "$scratch/tree"
mkdir -p "$scratch/rev-src"
git -C "$root" archive "$rev" | tar -x -C "$scratch/rev-src"
echo "identity: building $rev" >&2
cargo build --release --workspace --quiet \
    --manifest-path "$scratch/rev-src/Cargo.toml" --target-dir "$scratch/rev-target"
echo "identity: building the working tree" >&2
cargo build --release --workspace --quiet --manifest-path "$root/Cargo.toml"

# run BIN OUT_DIR: every invocation above, outputs under OUT_DIR.
run() {
    mkdir -p "$2"
    (
        cd "$2"
        "$1" --json report.json --json-det report.det.json \
            --check --check-json violations.json \
            --check-graph graphs \
            --crossval --crossval-json crossval.json \
            --crash --crash-json crash.json \
            --optimize --optimize-json optimize.json \
            --serve --serve-json serve.json \
            --profile --profile-json profile.json \
            --trace trace.json \
            --quiet --scale 0.05 --seed 42 --parallel 1 --threads 4 > report.txt
        "$1" --json-det report.t1.det.json --check \
            --serve --serve-json serve.t1.json \
            --crash --crash-json crash.t1.json \
            --quiet --scale 0.05 --seed 42 --parallel 1 --threads 1 > report.t1.txt
        "$1" table1 --check --check-rules P-EPOCH-RACE,P-CROSS-DEP \
            --check-json violations.hb.json \
            --quiet --scale 0.05 --seed 42 --parallel 1 --threads 4 > report.hb.txt
        "$1" table1 --apps redis,memcached,vacation --threads 64 \
            --check-graph graphs.t64 --quiet --scale 0.05 > report.t64.txt
        "$1" fig10 --serve --serve-json serve.s03.json \
            --quiet --scale 0.3 --seed 7 --parallel 1 --threads 4 > report.s03.txt
        for experiment in table1 fig3 fig4 fig5 fig6 fig10 amplification \
            ntfraction smallwrites consequences; do
            "$1" "$experiment" --quiet --scale 0.01 --seed 42 --parallel 1 \
                > "experiment.$experiment.txt"
        done
        # Relative paths: the archive's row is named after its path.
        "$1" table1 --dump-traces traces --quiet --scale 0.05 --seed 42 --parallel 1 > /dev/null
        "$1" --from-trace traces/hashmap.wtr --json-det report.archive.det.json \
            --check --check-json violations.archive.json --quiet > report.archive.txt
        rm report.json
    )
}
echo "identity: running $rev" >&2
run "$scratch/rev-target/release/whisper-report" "$scratch/rev"
echo "identity: running the working tree" >&2
run "$root/target/release/whisper-report" "$scratch/tree"

if diff -rq "$scratch/rev" "$scratch/tree"; then
    echo "identity: $(find "$scratch/tree" -type f | wc -l) artefacts byte-identical to $rev"
else
    echo "identity: artefacts differ from $rev (listed above)" >&2
    exit 1
fi

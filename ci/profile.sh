#!/bin/sh
# Sampled CPU profile of one of the repo's workloads: where host time
# goes, as a self table (innermost function at each sampled address,
# inlined callees included) and an inclusive table (every function on
# the sampled stack). ROADMAP item 3's question "which layer pays"
# answered by samples instead of spans.
#
#   ci/profile.sh suite      # run_suite at scale 1.0 (what whisper-report costs)
#   ci/profile.sh gates      # the CI invocation minus --trace, quick scale
#   ci/profile.sh consumers  # every trace reader over scale-0.3 traces
#   ci/profile.sh gates --scale 0.05 --runs 3 --top 40 --period-us 500
#
# Builds ci/profile (a package outside the workspace, like benchmark/)
# with frame pointers forced on, so the SIGPROF handler can walk each
# sample's stack; symbols come from the installed addr2line and nm.
# x86-64 Linux (glibc) only. One host thread: --parallel 1 throughout.
set -eu
cd "$(dirname "$0")/.."
[ $# -ge 1 ] || { echo "usage: ci/profile.sh suite|gates|consumers [flags]" >&2; exit 2; }
RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --release --quiet --manifest-path ci/profile/Cargo.toml
exec ci/profile/target/release/whisper-profile "$@"

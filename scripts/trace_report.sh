#!/usr/bin/env sh
# Per-phase timing summary from run manifests.
#
#   ./scripts/trace_report.sh [manifest-dir]
#
# Summarizes every run manifest under target/manifests/ (or the given
# directory): kind, headline counters, content digests, and the per-phase
# simulated-clock table. If the directory does not exist yet, the
# observability example is run first to produce it.
set -eu

cd "$(dirname "$0")/.."

dir="${1:-target/manifests}"

if [ ! -d "$dir" ]; then
    echo "trace_report: $dir missing — running the observability example to produce it"
    cargo run -q --release --offline --example observability
fi

cargo run -q --release --offline --example trace_report -- "$dir"

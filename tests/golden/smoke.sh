#!/usr/bin/env bash
# Behaviour oracle for the workload-facing subcommands.
#
# Runs monitor, fleet, whatif and trace at fixed small sizes into a fixed
# output directory, saving each stdout next to the files it wrote. Every
# output checked here is deterministic, so the SHA-256 digests in
# smoke.sha256 must match exactly:
#
#   cargo build --release
#   tests/golden/smoke.sh
#   sha256sum -c tests/golden/smoke.sha256
#
# A digest that differs means the change altered behaviour; re-recording
# the digest is never the fix. The trace Chrome export (trace-*.json) is
# not digested: its host-track spans carry wall-clock times.
set -euo pipefail

cd "$(dirname "$0")/../.."
BIN=./target/release/limit-repro
OUT=target/golden-smoke
rm -rf "$OUT"
mkdir -p "$OUT"

for w in mysqld memcached logstore proxy; do
    "$BIN" monitor "$w" --threads 4 --queries 40 --out-dir "$OUT" \
        > "$OUT/monitor-$w.stdout"
done

for w in mysqld memcached proxy; do
    "$BIN" fleet "$w" --instances 8 --arrival-rate 8 --jobs 2 --out-dir "$OUT" \
        > "$OUT/fleet-$w.stdout" 2> /dev/null
done

for w in mysqld memcached logstore proxy; do
    "$BIN" whatif "$w" --queries 24 --jobs 2 --out-dir "$OUT" \
        > "$OUT/whatif-$w.stdout" 2> /dev/null
done

for w in mysqld firefox apache memcached logstore proxy; do
    "$BIN" trace "$w" --out-dir "$OUT" > "$OUT/trace-$w.stdout"
done

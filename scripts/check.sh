#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check
# Belt and braces: the bench targets are harness=false binaries and easy
# to leave out of a fmt pass when editing them standalone.
rustfmt --edition 2021 --check crates/bench/benches/*.rs

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo bench --no-run (figure/table harnesses must keep building) =="
cargo bench --workspace --no-run

echo "== cargo test =="
cargo test --workspace -q

echo "== chaos smoke (fixed-seed fault plan, recovery end to end) =="
cargo test -q --test chaos smoke_fixed_seed

echo "== heal-and-repromote smoke (storm-then-quiet must end re-promoted) =="
# A seeded ack-loss storm demotes the pair; once the plan goes quiet the
# canary probes must earn it back: promotions > 0, zero pairs still
# demoted at exit, and the audited rerun byte-identical (DESIGN.md §5h).
cargo test -q --test chaos demoted_pair_heals_after_the_storm_ends

echo "== golden exports (fault-free runs byte-identical to committed goldens) =="
# The health plane must be inert without an active fault plan: any drift
# in these fixed-seed trace/metrics/timeseries/audit exports means the
# recovery layer perturbed a clean run.
cargo test -q --test golden_exports

echo "== trace lint (structural invariants of a sampled fig6b-style export) =="
# No argument: the example generates a small sampled inter-device export
# (counter tracks included) in-process and lints it; exit 1 on violation.
cargo run -q --example trace_lint

echo "== cadence-sweep smoke (two cadences, same run, same final snapshot) =="
cargo test -q --test observability cadence_sweep

echo "== audit smoke (two audited fig6b runs must export identical digests) =="
# VSCC_AUDIT makes the fig6b target re-run its vDMA 8 KiB point under the
# hash-chained scheduler audit stream and export the per-epoch digests.
# Two back-to-back runs (separate processes) must be byte-identical:
# audit_diff exits 0 on identity, 1 on divergence (killing the script).
AUDIT_TMP="$(mktemp -d)"
trap 'rm -rf "$AUDIT_TMP"' EXIT
VSCC_AUDIT="$AUDIT_TMP/a.json" cargo bench -p vscc-bench --bench fig6b_interdevice >/dev/null
VSCC_AUDIT="$AUDIT_TMP/b.json" cargo bench -p vscc-bench --bench fig6b_interdevice >/dev/null
cmp -s "$AUDIT_TMP/a.json" "$AUDIT_TMP/b.json" || { echo "audit exports not byte-identical"; exit 1; }
cargo run -q --example audit_diff -- "$AUDIT_TMP/a.json" "$AUDIT_TMP/b.json"

if [ "${VSCC_PERF_SKIP:-}" = "1" ]; then
    echo "== perf smoke: skipped (VSCC_PERF_SKIP=1) =="
else
    echo "== perf smoke (engine events/sec + allocs/msg vs committed BENCH_engine.json) =="
    # Quick-sample harness run; writes target/BENCH_engine.json and fails
    # if any scenario's events/sec drops >30% below the committed
    # baseline, or a datapath scenario's allocations-per-message rises
    # >20% above it (the alloc counter is deterministic, so that gate is
    # noise-free), or the audited data-path twin loses >10% events/sec
    # against its audit-off twin (the audit-overhead budget).
    # Wall-clock only — the virtual clock never sees it.
    # Set VSCC_PERF_SKIP=1 on noisy/shared machines.
    VSCC_PERF_FAST=1 VSCC_PERF_GATE=1 cargo bench -p vscc-bench --bench engine_micro
fi

echo "All checks passed."

#!/usr/bin/env bash
# Pre-PR gate for the Armada reproduction. Fully offline by design: the
# workspace has zero crates.io dependencies (see DESIGN.md, "Dependencies").
#
#   scripts/verify.sh          # release build + tier-1 tests + fmt and
#                              # clippy checks + recheck gate + e2e smoke
#   scripts/verify.sh --full   # additionally: a quick pass over every
#                              # bench target
#
# The root manifest's `default-members` covers every workspace crate, so
# the plain build and test steps below run the whole workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q (tier-1)"
cargo test -q --offline

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --all-targets --offline -- -D warnings

echo "==> armada recheck gate (emit → recheck, fixture records, v4 record / corrupted witness / torn record → reject, warm --recheck, comment edit → store hit)"
# For every shipped spec, a cold run persists witness-bearing certs (one
# per recipe); the checker must accept every record
# (structural + semantic replay), and a warm --recheck run must
# self-validate its cache hits. Then relabel, corrupt and cut copies of
# one record — recheck must reject each with exit 1.
cargo build --release --offline -p armada --bin armada
RECHECK_BIN=target/release/armada
RC_DIR=$(mktemp -d)
recheck_fail() { echo "recheck gate: $*"; rm -rf "$RC_DIR"; exit 1; }
for spec in specs/*.arm; do
    name=$(basename "$spec" .arm)
    "$RECHECK_BIN" verify "$spec" --cert-cache="$RC_DIR/$name/certs" \
        >/dev/null || recheck_fail "$spec: cold verify failed"
    "$RECHECK_BIN" recheck "$RC_DIR/$name/certs" --source "$spec" \
        >"$RC_DIR/$name/recheck.out" \
        || { cat "$RC_DIR/$name/recheck.out"; recheck_fail "$spec: clean certs rejected"; }
    grep -q "replayed" "$RC_DIR/$name/recheck.out" \
        || recheck_fail "$spec: semantic replay did not run"
    "$RECHECK_BIN" verify "$spec" --cert-cache="$RC_DIR/$name/certs" --recheck \
        >"$RC_DIR/$name/warm.out" || recheck_fail "$spec: warm --recheck failed"
    grep -q "witness rechecked" "$RC_DIR/$name/warm.out" \
        || { cat "$RC_DIR/$name/warm.out"; recheck_fail "$spec: warm hit was not rechecked"; }
    # Certs are keyed on each level pair's span-free content: a copy with
    # one comment line appended must be served whole from the store, and
    # the store's records must recheck against the copy with replay.
    EDITED="$RC_DIR/$name/edited.arm"
    { cat "$spec"; echo "// a comment outside every level"; } >"$EDITED"
    "$RECHECK_BIN" verify "$EDITED" --cert-cache="$RC_DIR/$name/certs" \
        >"$RC_DIR/$name/edited.out" || recheck_fail "$spec: comment-edited copy failed"
    grep -q '^recipe [^ ]*: ' "$RC_DIR/$name/edited.out" \
        || recheck_fail "$spec: comment-edited copy printed no recipe"
    if grep '^recipe [^ ]*: ' "$RC_DIR/$name/edited.out" | grep -qv '(from cert store'; then
        cat "$RC_DIR/$name/edited.out"
        recheck_fail "$spec: a comment edit missed the cert store"
    fi
    "$RECHECK_BIN" recheck "$RC_DIR/$name/certs" --source "$EDITED" \
        >"$RC_DIR/$name/edited_recheck.out" \
        || { cat "$RC_DIR/$name/edited_recheck.out"; recheck_fail "$spec: certs rejected against the comment-edited copy"; }
    grep -q "replayed" "$RC_DIR/$name/edited_recheck.out" \
        || recheck_fail "$spec: replay against the comment-edited copy did not run"
done
# The fixture records pin the current format version through the CLI:
# tests/fixtures/certs holds records of this format (witnessed state
# fingerprints, set digests and every hash), one directory per module
# with a copy of its source, and each must recheck with replay.
for dir in tests/fixtures/certs/*/; do
    name=$(basename "$dir")
    "$RECHECK_BIN" recheck "$dir" --source "$dir$name.arm" \
        >"$RC_DIR/fixture_$name.out" \
        || { cat "$RC_DIR/fixture_$name.out"; recheck_fail "fixture $name: records rejected"; }
    grep -q "replayed" "$RC_DIR/fixture_$name.out" \
        || recheck_fail "fixture $name: semantic replay did not run"
done
CERT_FIXTURE=$(ls "$RC_DIR"/counter/certs/*.cert | head -n1)
# A rejection is exit 1 with a REJECTED line: a panic (101) or an abort
# (134) is a crash, not a verdict.
expect_rejected() {
    local out="$RC_DIR/$1.out" rc=0
    "$RECHECK_BIN" recheck "$RC_DIR/$1" >"$out" 2>&1 || rc=$?
    if [[ $rc -ne 1 ]] || ! grep -q "REJECTED" "$out"; then
        cat "$out"
        recheck_fail "$2 was not rejected (exit $rc; want 1 and REJECTED)"
    fi
}
# Each damaged copy must differ from its source, so an edit that matches
# nothing fails here instead of passing as a rejection.
expect_changed() {
    ! cmp -s "$CERT_FIXTURE" "$1" || recheck_fail "$2 left the record unchanged"
}
mkdir "$RC_DIR/previous" "$RC_DIR/corrupt" "$RC_DIR/torn"
# A fresh record relabelled as the previous format must be rejected,
# naming its version.
sed '1s/^armada-cert v5$/armada-cert v4/' "$CERT_FIXTURE" >"$RC_DIR/previous/relabelled.cert"
expect_changed "$RC_DIR/previous/relabelled.cert" "relabelling armada-cert v4"
expect_rejected previous "a record relabelled armada-cert v4"
grep -q "record format v4" "$RC_DIR/previous.out" \
    || { cat "$RC_DIR/previous.out"; recheck_fail "recheck did not name record format v4"; }
sed '/^set /y/0123456789/1032547698/' "$CERT_FIXTURE" >"$RC_DIR/corrupt/witness.cert"
expect_changed "$RC_DIR/corrupt/witness.cert" "corrupting the set table"
expect_rejected corrupt "a corrupted witness"
head -c "$(( $(wc -c <"$CERT_FIXTURE") / 2 ))" "$CERT_FIXTURE" >"$RC_DIR/torn/half.cert"
expect_changed "$RC_DIR/torn/half.cert" "cutting the record"
expect_rejected torn "a record cut to half its length"
rm -rf "$RC_DIR"

echo "==> e2e smoke (every verdict checked, warm passes and serve repeats must hit the store)"
# One cold pass, ten warm plain/--recheck pairs and twenty serve requests
# over the benchmark corpus: a wrong verdict, or a warm recipe that misses
# the cert store (disk tier or the daemon's memory tier), exits nonzero.
E2E_DIR=$(mktemp -d)
cargo run --release --offline -p armada-bench --bin e2e -- --smoke --out "$E2E_DIR/e2e.json" \
    || { rm -rf "$E2E_DIR"; echo "e2e smoke failed"; exit 1; }
rm -rf "$E2E_DIR"

if [[ "${1:-}" == "--full" ]]; then
    echo "==> quick benches"
    ARMADA_BENCH_QUICK=1 cargo bench -p armada-bench --offline

    cargo build --release --offline -p armada --bin armada
    ARMADA_BIN=target/release/armada
    SMOKE_DIR=$(mktemp -d)
    trap 'rm -rf "$SMOKE_DIR"' EXIT

    echo "==> fault-injection smoke (seeded plan, jobs=1 vs jobs=4)"
    # Seed 3 injects a strategy panic into counter.arm's recipe; the
    # partial report (one crashed recipe, run not lost) must be
    # byte-identical at any job count. The injected crash exits 4 by
    # design.
    "$ARMADA_BIN" verify specs/counter.arm --fault-seed 3 --jobs 1 \
        >"$SMOKE_DIR/fault_j1.out" && rc=0 || rc=$?
    [[ "$rc" -eq 4 ]] || { echo "expected exit 4 from injected crash, got $rc"; exit 1; }
    grep -q "crashed" "$SMOKE_DIR/fault_j1.out" || { echo "missing crashed outcome"; exit 1; }
    "$ARMADA_BIN" verify specs/counter.arm --fault-seed 3 --jobs 4 \
        >"$SMOKE_DIR/fault_j4.out" || true
    diff "$SMOKE_DIR/fault_j1.out" "$SMOKE_DIR/fault_j4.out" \
        || { echo "fault report differs between jobs=1 and jobs=4"; exit 1; }

    echo "==> cert-cache round trip"
    CACHE_DIR="$SMOKE_DIR/certs"
    "$ARMADA_BIN" verify specs/counter.arm --cert-cache="$CACHE_DIR" \
        >"$SMOKE_DIR/cache_first.out"
    grep -q "cert cache miss" "$SMOKE_DIR/cache_first.out" \
        || { echo "first cached run should miss"; exit 1; }
    "$ARMADA_BIN" verify specs/counter.arm --cert-cache="$CACHE_DIR" \
        >"$SMOKE_DIR/cache_second.out"
    grep -q "cert cache hit" "$SMOKE_DIR/cache_second.out" \
        || { echo "second cached run should hit"; exit 1; }
    # Modulo the hit/miss annotation, the two runs must agree exactly
    # (same certs, same chain).
    sed 's/ (cert cache \(hit\|miss\))//; s/ (from cert store)//' \
        "$SMOKE_DIR/cache_first.out" >"$SMOKE_DIR/cache_first.norm"
    sed 's/ (cert cache \(hit\|miss\))//; s/ (from cert store)//' \
        "$SMOKE_DIR/cache_second.out" >"$SMOKE_DIR/cache_second.norm"
    diff "$SMOKE_DIR/cache_first.norm" "$SMOKE_DIR/cache_second.norm" \
        || { echo "cached rerun changed the report"; exit 1; }

    echo "==> reduction on/off differential smoke"
    # Local-step reduction must be invisible in verdicts and reports:
    # for every spec, `verify` with and without --no-reduction must agree
    # on the exit code, and the reduced run must agree with itself across
    # jobs=1 and jobs=4 byte-for-byte.
    for spec in specs/*.arm; do
        "$ARMADA_BIN" verify "$spec" >"$SMOKE_DIR/red_on.out" && rc_on=0 || rc_on=$?
        "$ARMADA_BIN" verify "$spec" --no-reduction >"$SMOKE_DIR/red_off.out" \
            && rc_off=0 || rc_off=$?
        [[ "$rc_on" -eq "$rc_off" ]] \
            || { echo "$spec: reduction changed the exit code ($rc_on vs $rc_off)"; exit 1; }
        "$ARMADA_BIN" verify "$spec" --jobs 4 >"$SMOKE_DIR/red_on_j4.out" || true
        diff "$SMOKE_DIR/red_on.out" "$SMOKE_DIR/red_on_j4.out" \
            || { echo "$spec: report differs between jobs=1 and jobs=4"; exit 1; }
    done

    echo "==> symmetry on/off differential smoke"
    # Canonical state interning must be invisible in verdicts: for every
    # spec, `verify` with and without --no-symmetry must agree on the exit
    # code, and the symmetric run must agree with itself across jobs=1 and
    # jobs=4 byte-for-byte.
    for spec in specs/*.arm; do
        "$ARMADA_BIN" verify "$spec" >"$SMOKE_DIR/sym_on.out" && rc_on=0 || rc_on=$?
        "$ARMADA_BIN" verify "$spec" --no-symmetry >"$SMOKE_DIR/sym_off.out" \
            && rc_off=0 || rc_off=$?
        [[ "$rc_on" -eq "$rc_off" ]] \
            || { echo "$spec: symmetry changed the exit code ($rc_on vs $rc_off)"; exit 1; }
        "$ARMADA_BIN" verify "$spec" --jobs 4 >"$SMOKE_DIR/sym_on_j4.out" || true
        diff "$SMOKE_DIR/sym_on.out" "$SMOKE_DIR/sym_on_j4.out" \
            || { echo "$spec: report differs between jobs=1 and jobs=4"; exit 1; }
    done

    echo "==> armada fuzz smoke gate (fixed seeds, full spec corpus)"
    # The fault-fuzzing campaign over fixed seeds at jobs {1,4}: exit 0
    # means zero invariant violations (taxonomy, no-hang,
    # no-corrupt-cert-served, verdict invariance under recoverable faults,
    # cross-jobs determinism). Any violation would have been shrunk to a
    # minimal reproducer in the report — fail loudly if one appears. The
    # campaign report itself must be byte-identical across reruns.
    "$ARMADA_BIN" fuzz specs/*.arm --seeds 8 --jobs 4 \
        --out "$SMOKE_DIR/fuzz_report.json" \
        || { echo "armada fuzz found invariant violations:"; \
             cat "$SMOKE_DIR/fuzz_report.json"; exit 1; }
    grep -q '"violations": \[\]' "$SMOKE_DIR/fuzz_report.json" \
        || { echo "non-empty violations in fuzz report"; exit 1; }
    "$ARMADA_BIN" fuzz specs/*.arm --seeds 8 --jobs 4 \
        --out "$SMOKE_DIR/fuzz_report_again.json" 2>/dev/null || true
    diff "$SMOKE_DIR/fuzz_report.json" "$SMOKE_DIR/fuzz_report_again.json" \
        || { echo "fuzz campaign report is not deterministic"; exit 1; }

    echo "==> armada fuzz --mutate-bounds gate (per-seed bounds, full spec corpus)"
    # The same sweep with the verification bounds mutated per seed
    # (nondeterminism grid, store-buffer size, node cap), each seed checked
    # against a baseline under its own bounds: clean, and byte-identical
    # across reruns because the mutation is a pure function of the seed.
    "$ARMADA_BIN" fuzz specs/*.arm --seeds 8 --jobs 4 --mutate-bounds \
        --out "$SMOKE_DIR/fuzz_mutated.json" \
        || { echo "armada fuzz --mutate-bounds found invariant violations:"; \
             cat "$SMOKE_DIR/fuzz_mutated.json"; exit 1; }
    grep -q '"violations": \[\]' "$SMOKE_DIR/fuzz_mutated.json" \
        || { echo "non-empty violations in mutated-bounds fuzz report"; exit 1; }
    "$ARMADA_BIN" fuzz specs/*.arm --seeds 8 --jobs 4 --mutate-bounds \
        --out "$SMOKE_DIR/fuzz_mutated_again.json" 2>/dev/null || true
    diff "$SMOKE_DIR/fuzz_mutated.json" "$SMOKE_DIR/fuzz_mutated_again.json" \
        || { echo "mutated-bounds fuzz report is not deterministic"; exit 1; }

    echo "==> armada serve smoke gate (cold+warm+coalesced, clean shutdown)"
    # Boot the daemon on an ephemeral port, drive it through a cold
    # request, a warm (cache-hit) request, and an 8-client same-key storm,
    # then shut it down cleanly. The client preserves the verify exit
    # taxonomy (0 verified; deadline/overload map to 3; protocol errors
    # to 2), and all storm reports must agree modulo cache-disposition
    # annotations.
    SERVE_CACHE="$SMOKE_DIR/serve-certs"
    "$ARMADA_BIN" serve --addr 127.0.0.1:0 --addr-file "$SMOKE_DIR/serve.addr" \
        --cert-cache="$SERVE_CACHE" 2>"$SMOKE_DIR/serve.log" &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        [[ -s "$SMOKE_DIR/serve.addr" ]] && break
        sleep 0.1
    done
    [[ -s "$SMOKE_DIR/serve.addr" ]] \
        || { echo "daemon never published its address"; exit 1; }
    SERVE_ADDR=$(cat "$SMOKE_DIR/serve.addr")
    "$ARMADA_BIN" client "$SERVE_ADDR" specs/counter.arm \
        >"$SMOKE_DIR/serve_cold.out" && rc=0 || rc=$?
    [[ "$rc" -eq 0 ]] || { echo "cold serve request exited $rc"; exit 1; }
    grep -q "cert cache miss" "$SMOKE_DIR/serve_cold.out" \
        || { echo "cold serve request should miss the cache"; exit 1; }
    "$ARMADA_BIN" client "$SERVE_ADDR" specs/counter.arm \
        >"$SMOKE_DIR/serve_warm.out" && rc=0 || rc=$?
    [[ "$rc" -eq 0 ]] || { echo "warm serve request exited $rc"; exit 1; }
    grep -q "cert cache hit" "$SMOKE_DIR/serve_warm.out" \
        || { echo "warm serve request should hit the cache"; exit 1; }
    STORM_PIDS=()
    for i in $(seq 1 8); do
        "$ARMADA_BIN" client "$SERVE_ADDR" specs/spinlock.arm \
            >"$SMOKE_DIR/serve_storm_$i.out" &
        STORM_PIDS+=($!)
    done
    for pid in "${STORM_PIDS[@]}"; do
        wait "$pid" || { echo "storm client $pid failed"; exit 1; }
    done
    for i in $(seq 1 8); do
        sed 's/ (cert cache \(hit\|miss\))//; s/ (from cert store)//' \
            "$SMOKE_DIR/serve_storm_$i.out" >"$SMOKE_DIR/serve_storm_$i.norm"
    done
    for i in $(seq 2 8); do
        diff "$SMOKE_DIR/serve_storm_1.norm" "$SMOKE_DIR/serve_storm_$i.norm" \
            || { echo "storm member $i observed a divergent verdict"; exit 1; }
    done
    "$ARMADA_BIN" client "$SERVE_ADDR" --stats >"$SMOKE_DIR/serve_stats.out" \
        || { echo "stats request failed"; exit 1; }
    grep -q "serve.requests 10" "$SMOKE_DIR/serve_stats.out" \
        || { echo "daemon miscounted its requests:"; \
             cat "$SMOKE_DIR/serve_stats.out"; exit 1; }
    "$ARMADA_BIN" client "$SERVE_ADDR" /nonexistent.arm >/dev/null 2>&1 && rc=0 || rc=$?
    [[ "$rc" -eq 2 ]] \
        || { echo "unreadable client subject should exit 2, got $rc"; exit 1; }
    "$ARMADA_BIN" client "$SERVE_ADDR" --shutdown >/dev/null 2>&1 \
        || { echo "shutdown request failed"; exit 1; }
    wait "$SERVE_PID" || { echo "daemon exited uncleanly"; exit 1; }
    grep -q "armada serve: shut down" "$SMOKE_DIR/serve.log" \
        || { echo "daemon never logged its shutdown"; exit 1; }

    echo "==> armada fuzz --serve smoke gate (8 seeds, server fates, jobs {1,4})"
    # The daemon-level campaign: per (subject, seed, jobs) cell a fresh
    # daemon runs through killed workers, corrupted tier-2 entries under
    # live readers, accept jitter, and same-key storms; zero violations
    # means no hang past deadline+grace, no divergent coalesced verdict,
    # no corrupt cert served, and structured shedding throughout. The
    # report must be byte-identical across reruns.
    "$ARMADA_BIN" fuzz --serve specs/counter.arm specs/spinlock.arm \
        --seeds 8 --jobs 4 --out "$SMOKE_DIR/serve_fuzz.json" \
        || { echo "armada fuzz --serve found invariant violations:"; \
             cat "$SMOKE_DIR/serve_fuzz.json"; exit 1; }
    grep -q '"violations": \[\]' "$SMOKE_DIR/serve_fuzz.json" \
        || { echo "non-empty violations in serve fuzz report"; exit 1; }
    "$ARMADA_BIN" fuzz --serve specs/counter.arm specs/spinlock.arm \
        --seeds 8 --jobs 4 --out "$SMOKE_DIR/serve_fuzz_again.json" 2>/dev/null || true
    diff "$SMOKE_DIR/serve_fuzz.json" "$SMOKE_DIR/serve_fuzz_again.json" \
        || { echo "serve fuzz campaign report is not deterministic"; exit 1; }

    echo "==> stage-pipeline gate (jobs=1 vs jobs=4, telemetry invisible)"
    # The wave-pool stage pipeline must render byte-identically at any
    # job count, and --telemetry must change stderr only: for every spec,
    # compare stdout across jobs {1,4} × telemetry {off,on}, and check
    # the telemetry run actually printed histograms to stderr.
    for spec in specs/*.arm; do
        "$ARMADA_BIN" verify "$spec" --jobs 1 \
            >"$SMOKE_DIR/pipe_j1.out" 2>/dev/null || true
        "$ARMADA_BIN" verify "$spec" --jobs 4 \
            >"$SMOKE_DIR/pipe_j4.out" 2>/dev/null || true
        diff "$SMOKE_DIR/pipe_j1.out" "$SMOKE_DIR/pipe_j4.out" \
            || { echo "$spec: report differs between jobs=1 and jobs=4"; exit 1; }
        "$ARMADA_BIN" verify "$spec" --jobs 4 --telemetry \
            >"$SMOKE_DIR/pipe_tel.out" 2>"$SMOKE_DIR/pipe_tel.err" || true
        diff "$SMOKE_DIR/pipe_j1.out" "$SMOKE_DIR/pipe_tel.out" \
            || { echo "$spec: --telemetry changed stdout"; exit 1; }
        grep -q "pipeline telemetry" "$SMOKE_DIR/pipe_tel.err" \
            || { echo "$spec: --telemetry printed no histograms"; exit 1; }
    done
    # The specs' waves are mostly narrower than the narrow-wave threshold,
    # so the loop above mostly diffs inline runs. One identity test per
    # engine runs jobs=1 vs jobs=4 on waves wide enough to reach the
    # `wave::map` workers and asserts (via the `wave.batches` counter)
    # that they were reached.
    cargo test -q --offline -p armada-sm -p armada-verify \
        wide_waves_run_in_parallel_and_match_serial
    # Resuming a refinement check mid-search (non-root match sets already
    # admitted) must reseed the match-set hash-cons table and reproduce
    # the uninterrupted certificate at jobs {1,4}.
    cargo test -q --offline -p armada-verify \
        resume_mid_search_reseeds_the_match_set_table
    # The spec loop above diffs verified reports only. A refuted check's
    # full counterexample text — fused edges, renamed tids, rendered only
    # once the counterexample is built — must match its pinned rendering
    # at jobs {1,4} and after a checkpoint resume.
    cargo test -q --offline -p armada-verify \
        counterexample_text_is_pinned_across_jobs_and_resume

    echo "==> spill + checkpoint/resume smoke (byte-identity under a mem cap)"
    # The pager must be invisible on stdout and visibly working on stderr:
    # a 1K cap on counter.arm forces evictions (nonzero spill counters in
    # --telemetry output) while the report stays byte-identical to the
    # plain run. Then kill a checkpointed run with a 1ms deadline (exit 3,
    # budget exhausted at the first wave boundary) and resume it: the
    # resumed report must match the uninterrupted one byte-for-byte.
    "$ARMADA_BIN" verify specs/counter.arm >"$SMOKE_DIR/spill_plain.out"
    "$ARMADA_BIN" verify specs/counter.arm --mem-cap 1K \
        --spill-dir "$SMOKE_DIR/spill-pages" --telemetry \
        >"$SMOKE_DIR/spill_capped.out" 2>"$SMOKE_DIR/spill_capped.err"
    diff "$SMOKE_DIR/spill_plain.out" "$SMOKE_DIR/spill_capped.out" \
        || { echo "--mem-cap changed the report"; exit 1; }
    grep -Eq "spill\.evictions +[1-9]" "$SMOKE_DIR/spill_capped.err" \
        || { echo "1K mem cap produced no evictions:"; \
             cat "$SMOKE_DIR/spill_capped.err"; exit 1; }
    CK_DIR="$SMOKE_DIR/checkpoints"
    "$ARMADA_BIN" verify specs/counter.arm --deadline 0.001 \
        --checkpoint="$CK_DIR" >/dev/null && rc=0 || rc=$?
    [[ "$rc" -eq 3 ]] \
        || { echo "1ms deadline should exhaust the budget (exit 3), got $rc"; exit 1; }
    # Only the refinement check checkpoints, each recipe into its own
    # `ck-*` directory under the base; nothing else may land there.
    STRAY=$(find "$CK_DIR" -mindepth 1 -maxdepth 1 \( ! -name 'ck-*' -o ! -type d \))
    [[ -z "$STRAY" ]] \
        || { echo "checkpoint base dir holds more than ck-* dirs:"; echo "$STRAY"; exit 1; }
    "$ARMADA_BIN" verify specs/counter.arm --checkpoint="$CK_DIR" --resume \
        >"$SMOKE_DIR/spill_resumed.out" \
        || { echo "resumed verify failed"; exit 1; }
    diff "$SMOKE_DIR/spill_plain.out" "$SMOKE_DIR/spill_resumed.out" \
        || { echo "resumed report differs from the uninterrupted run"; exit 1; }
    # A definitive verdict removes each recipe's checkpoint dir.
    LEFT=$(find "$CK_DIR" -mindepth 1 -maxdepth 1 -name 'ck-*')
    [[ -z "$LEFT" ]] \
        || { echo "verdict left checkpoint dirs behind:"; echo "$LEFT"; exit 1; }

    echo "==> telemetry overhead gate (<2% of states/sec)"
    cargo run --release --offline --example telemetry_gate

    echo "==> state_engine + symmetry + fuzz_campaign + spill bench smoke"
    cargo run --release --offline -p armada-bench --bin state_engine -- --quick
    cargo run --release --offline -p armada-bench --bin symmetry -- --quick
    cargo run --release --offline -p armada-bench --bin fuzz_campaign -- --quick
    cargo run --release --offline -p armada-bench --bin spill -- --smoke
    # Quick and smoke runs print their reports; none may touch a committed
    # BENCH_*.json.
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        git diff --quiet -- 'BENCH_*.json' \
            || { echo "bench smoke modified a committed BENCH_*.json:"; \
                 git diff --stat -- 'BENCH_*.json'; exit 1; }
    fi
fi

echo "verify.sh: all checks passed"

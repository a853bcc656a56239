#!/usr/bin/env sh
# Tier-1 verify: configure, build, run the full ctest suite, then the
# persistent-cache / --jobs / work-queue smoke checks.
# Usage: scripts/ci.sh [quick|test|smoke|asan]
#   quick  -- build + the fast unit-label subset (pre-commit loop)
#   test   -- build + the full ctest suite
#   smoke  -- cache/backend end-to-end checks against an existing build
#   asan   -- ASan+UBSan instrumented build (build-asan/) + the
#             quick-label suites under both sanitizers
#   (none) -- test + smoke
set -eu

cd "$(dirname "$0")/.."

build() {
    cmake -B build -S .
    cmake --build build -j "$(nproc)"
}

run_tests() {
    ctest --test-dir build --output-on-failure -j "$(nproc)" "$@"
}

# ASan+UBSan instrumented build and quick-label test run, in its own
# build directory so it never dirties the regular one. UBSan halts on
# the first finding (otherwise violations scroll by as warnings and
# the suite still passes).
asan() {
    cmake -B build-asan -S . -DBWSIM_SANITIZE=address,undefined \
        -DBWSIM_BUILD_BENCHES=OFF -DBWSIM_BUILD_EXAMPLES=OFF
    cmake --build build-asan -j "$(nproc)"
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
        ctest --test-dir build-asan --output-on-failure \
        -j "$(nproc)" -L quick
}

# End-to-end checks of the execution backends:
#  1. a warm --cache-dir invocation must simulate nothing (the run
#     counter printed by --exec-stats must say sims=0);
#  2. a --jobs sweep (local forked queue workers) must print tables
#     byte-identical to the single-process run;
#  3. a --jobs run must fail cleanly -- non-zero exit, no worker left
#     running, no scratch spool left in TMPDIR -- when its --trace is
#     unreadable or a worker is killed, and leave no spool behind when
#     it succeeds;
#  4. a --backend=queue sweep drained by two bwsim --worker processes
#     must also print byte-identical tables;
#  5. --cache-stats must report the warm entries and --cache-max-mb=0
#     must evict them all.
smoke() {
    smoke_tmp=$(mktemp -d)
    trap 'rm -rf "$smoke_tmp"' EXIT
    bwsim_args="fig4 --benches=bfs,lbm --shrink=16 --threads=2"

    echo "smoke: cold/warm --cache-dir round trip"
    ./build/bwsim $bwsim_args --cache-dir="$smoke_tmp/cache" \
        --exec-stats > "$smoke_tmp/cold.out" 2> "$smoke_tmp/cold.err"
    ./build/bwsim $bwsim_args --cache-dir="$smoke_tmp/cache" \
        --exec-stats > "$smoke_tmp/warm.out" 2> "$smoke_tmp/warm.err"
    if ! grep -q 'sims=0 ' "$smoke_tmp/warm.err"; then
        echo "smoke FAIL: warm --cache-dir run re-simulated:" >&2
        cat "$smoke_tmp/warm.err" >&2
        exit 1
    fi
    cmp "$smoke_tmp/cold.out" "$smoke_tmp/warm.out" || {
        echo "smoke FAIL: warm run printed different tables" >&2
        exit 1
    }

    echo "smoke: --jobs local-worker sweep parity"
    ./build/bwsim $bwsim_args > "$smoke_tmp/single.out"
    ./build/bwsim $bwsim_args --jobs=2 --cache-dir="$smoke_tmp/jobs" \
        > "$smoke_tmp/jobs.out"
    cmp "$smoke_tmp/single.out" "$smoke_tmp/jobs.out" || {
        echo "smoke FAIL: --jobs=2 tables differ from the" \
             "single-process run" >&2
        exit 1
    }

    echo "smoke: --jobs failure and cleanup"
    # Workers are forked, not exec'd, so they carry the parent's
    # command line: a unique trace path finds any that outlived it.
    jobs_tmp="$smoke_tmp/jobs-tmpdir"
    mkdir "$jobs_tmp"
    missing="$smoke_tmp/no-such-trace-$$.trace"
    if TMPDIR="$jobs_tmp" ./build/bwsim fig4 --trace="$missing" --jobs=2 \
        > /dev/null 2> "$smoke_tmp/jobs-fatal.err"; then
        echo "smoke FAIL: --jobs=2 with an unreadable --trace exited 0" >&2
        exit 1
    fi
    sleep 1
    if pgrep -f "$missing" > /dev/null; then
        echo "smoke FAIL: --jobs workers outlived their failed parent:" >&2
        pgrep -af "$missing" >&2
        exit 1
    fi
    # A worker killed mid-simulation fails the run at once instead of
    # leaving the parent waiting out the job timeout. Unshrunk fig10
    # runs for minutes even on two workers; the kill lands a second
    # in, and the parent has ten seconds to notice.
    TMPDIR="$jobs_tmp" ./build/bwsim fig10 --jobs=2 \
        > /dev/null 2> "$smoke_tmp/jobs-kill.err" &
    jobs_parent=$!
    tries=0
    while [ "$(pgrep -P "$jobs_parent" | wc -l)" -lt 2 ] &&
        [ "$tries" -lt 100 ]; do
        sleep 0.1
        tries=$((tries + 1))
    done
    sleep 1
    jobs_workers=$(pgrep -P "$jobs_parent" || true)
    pkill -KILL -n -P "$jobs_parent" || {
        echo "smoke FAIL: --jobs=2 started no worker to kill" >&2
        exit 1
    }
    tries=0
    while kill -0 "$jobs_parent" 2>/dev/null && [ "$tries" -lt 100 ]; do
        sleep 0.1
        tries=$((tries + 1))
    done
    if kill -KILL "$jobs_parent" 2>/dev/null; then
        echo "smoke FAIL: --jobs parent still running 10 s after a" \
             "worker was killed" >&2
        exit 1
    fi
    jobs_rc=0
    wait "$jobs_parent" || jobs_rc=$?
    if [ "$jobs_rc" -eq 0 ] ||
        ! grep -q 'a --jobs worker failed' "$smoke_tmp/jobs-kill.err"; then
        echo "smoke FAIL: a killed --jobs worker did not fail the run" \
             "(exit $jobs_rc):" >&2
        cat "$smoke_tmp/jobs-kill.err" >&2
        exit 1
    fi
    sleep 1
    for w in $jobs_workers; do
        if kill -0 "$w" 2>/dev/null; then
            echo "smoke FAIL: --jobs worker $w outlived its parent" >&2
            exit 1
        fi
    done
    TMPDIR="$jobs_tmp" ./build/bwsim $bwsim_args --jobs=2 > /dev/null
    if ls -A "$jobs_tmp" | grep -q '^bwsim-spool-'; then
        echo "smoke FAIL: --jobs left a scratch spool in TMPDIR:" >&2
        ls -A "$jobs_tmp" >&2
        exit 1
    fi

    echo "smoke: --backend=queue parity with 2 workers"
    spool="$smoke_tmp/spool"
    ./build/bwsim --worker --spool-dir="$spool" \
        2> "$smoke_tmp/worker1.err" &
    worker1=$!
    ./build/bwsim --worker --spool-dir="$spool" \
        2> "$smoke_tmp/worker2.err" &
    worker2=$!
    # Bounded: if both workers die, the parent would poll forever --
    # better a fast diagnosable failure than a hung CI job.
    queue_rc=0
    timeout 300 \
        ./build/bwsim $bwsim_args --backend=queue --spool-dir="$spool" \
        > "$smoke_tmp/queue.out" 2> "$smoke_tmp/queue.err" \
        || queue_rc=$?
    # Stop sentinel: workers drain the queue, then exit. Wait one pid
    # at a time: `wait p1 p2` reports only the last operand's status,
    # which would mask a crash of the first worker.
    : > "$spool/stop"
    worker_fail=0
    wait "$worker1" || worker_fail=1
    wait "$worker2" || worker_fail=1
    [ "$worker_fail" -eq 0 ] || {
        echo "smoke FAIL: a queue worker exited non-zero" >&2
        exit 1
    }
    [ "$queue_rc" -eq 0 ] || {
        echo "smoke FAIL: the --backend=queue parent failed:" >&2
        cat "$smoke_tmp/queue.err" >&2
        exit 1
    }
    cmp "$smoke_tmp/single.out" "$smoke_tmp/queue.out" || {
        echo "smoke FAIL: --backend=queue tables differ from the" \
             "single-process run" >&2
        exit 1
    }

    echo "smoke: trace workloads (pack, replay parity, queue backend)"
    # Both golden traces, untagged and CTA-tagged: text and packed
    # binary must agree on the content hash (their shared cache
    # identity), and replay is bit-identical across scheduler modes
    # and the --jobs local-worker path, exactly like synthetic
    # workloads.
    for trace_name in replay replay_tagged; do
        trace_src=tests/golden/$trace_name.trace
        trace_bin="$smoke_tmp/$trace_name.bwtr"
        ./build/bwsim trace pack "$trace_src" "$trace_bin" \
            > "$smoke_tmp/pack.out"
        ./build/bwsim trace info "$trace_src" \
            | grep 'content-hash' > "$smoke_tmp/hash-text.out"
        ./build/bwsim trace info "$trace_bin" \
            | grep 'content-hash' > "$smoke_tmp/hash-bin.out"
        cmp "$smoke_tmp/hash-text.out" "$smoke_tmp/hash-bin.out" || {
            echo "smoke FAIL: trace pack changed the content hash of" \
                 "$trace_src" >&2
            exit 1
        }
        trace_args="fig4 --trace=$trace_bin --threads=2"
        trace_lock="$smoke_tmp/trace-lock-$trace_name.out"
        ./build/bwsim $trace_args --scheduler=lockstep > "$trace_lock"
        ./build/bwsim $trace_args --scheduler=skip \
            > "$smoke_tmp/trace-skip.out"
        cmp "$trace_lock" "$smoke_tmp/trace-skip.out" || {
            echo "smoke FAIL: $trace_src replay differs across" \
                 "schedulers" >&2
            exit 1
        }
        ./build/bwsim $trace_args --jobs=2 \
            --cache-dir="$smoke_tmp/trace-jobs-$trace_name" \
            > "$smoke_tmp/trace-jobs.out"
        cmp "$trace_lock" "$smoke_tmp/trace-jobs.out" || {
            echo "smoke FAIL: --jobs=2 $trace_src replay differs from" \
                 "the single-process run" >&2
            exit 1
        }
    done
    # An out-of-range CTA tag fails cleanly instead of replaying an
    # overflowed launch shape as an all-zero row.
    printf 'ld 0x1000 0\nst 0x2000 2147483647\n' > "$smoke_tmp/bigtag.trace"
    if ./build/bwsim fig4 --trace="$smoke_tmp/bigtag.trace" \
        > "$smoke_tmp/bigtag.out" 2> "$smoke_tmp/bigtag.err"; then
        echo "smoke FAIL: a CTA tag of 2^31-1 was accepted" >&2
        exit 1
    fi
    grep -q 'CTA tag 2147483647 out of range' "$smoke_tmp/bigtag.err" || {
        echo "smoke FAIL: out-of-range CTA tag gave no diagnostic:" >&2
        cat "$smoke_tmp/bigtag.err" >&2
        exit 1
    }
    # The queue and warm-cache checks below replay the untagged trace.
    trace_src=tests/golden/replay.trace
    trace_args="fig4 --trace=$smoke_tmp/replay.bwtr --threads=2"
    # A queue job embeds the trace records, so one worker with no
    # access to the original file replays it bit-identically.
    tspool="$smoke_tmp/trace-spool"
    ./build/bwsim --worker --spool-dir="$tspool" \
        2> "$smoke_tmp/trace-worker.err" &
    trace_worker=$!
    trace_queue_rc=0
    timeout 300 ./build/bwsim $trace_args --backend=queue \
        --spool-dir="$tspool" --cache-dir="$smoke_tmp/trace-cache" \
        > "$smoke_tmp/trace-queue.out" 2> "$smoke_tmp/trace-queue.err" \
        || trace_queue_rc=$?
    : > "$tspool/stop"
    wait "$trace_worker" || {
        echo "smoke FAIL: the trace queue worker exited non-zero" >&2
        exit 1
    }
    [ "$trace_queue_rc" -eq 0 ] || {
        echo "smoke FAIL: the --backend=queue trace replay failed:" >&2
        cat "$smoke_tmp/trace-queue.err" >&2
        exit 1
    }
    cmp "$smoke_tmp/trace-lock-replay.out" "$smoke_tmp/trace-queue.out" || {
        echo "smoke FAIL: --backend=queue trace replay differs from" \
             "the single-process run" >&2
        exit 1
    }
    # Warm replay of the *text* trace against the cache the *packed*
    # run just filled: content addressing must make it free.
    ./build/bwsim fig4 --trace="$trace_src" --threads=2 \
        --cache-dir="$smoke_tmp/trace-cache" --exec-stats \
        > "$smoke_tmp/trace-warm.out" 2> "$smoke_tmp/trace-warm.err"
    if ! grep -q 'sims=0 ' "$smoke_tmp/trace-warm.err"; then
        echo "smoke FAIL: warm trace replay re-simulated:" >&2
        cat "$smoke_tmp/trace-warm.err" >&2
        exit 1
    fi

    echo "smoke: --format=json parses and --dump-stats names the tree"
    ./build/bwsim fig4 --benches=bfs,lbm --shrink=16 --threads=2 \
        --format=json > "$smoke_tmp/json.out"
    python3 -m json.tool "$smoke_tmp/json.out" > /dev/null || {
        echo "smoke FAIL: --format=json output is not valid JSON:" >&2
        cat "$smoke_tmp/json.out" >&2
        exit 1
    }
    ./build/bwsim --dump-stats --benches=bfs --shrink=16 \
        > "$smoke_tmp/stats-tree.out"
    grep -q 'gpu\.core0\.issued_insts' "$smoke_tmp/stats-tree.out" || {
        echo "smoke FAIL: --dump-stats did not print the stats tree" >&2
        exit 1
    }

    echo "smoke: --profile-ticks tick-cost telemetry"
    # The profiler must report per-domain tick costs plus the fused-
    # span epilogue on stderr, and register the tick_profile stats
    # group -- and the congested bfs run must actually fuse spans.
    ./build/bwsim --dump-stats --benches=bfs --shrink=16 \
        --profile-ticks --exec-stats \
        > "$smoke_tmp/prof.out" 2> "$smoke_tmp/prof.err"
    grep -q 'tick profile: domain=core' "$smoke_tmp/prof.err" || {
        echo "smoke FAIL: --profile-ticks printed no per-domain" \
             "tick profile:" >&2
        cat "$smoke_tmp/prof.err" >&2
        exit 1
    }
    grep -q 'tick profile: fused-spans=' "$smoke_tmp/prof.err" || {
        echo "smoke FAIL: --profile-ticks printed no fused-span" \
             "epilogue:" >&2
        cat "$smoke_tmp/prof.err" >&2
        exit 1
    }
    if grep -q 'fused-spans=0 ' "$smoke_tmp/prof.err"; then
        echo "smoke FAIL: congested bfs run fused zero spans" >&2
        cat "$smoke_tmp/prof.err" >&2
        exit 1
    fi
    grep -q 'gpu\.tick_profile\.core' "$smoke_tmp/prof.out" || {
        echo "smoke FAIL: --profile-ticks did not register the" \
             "tick_profile stats group" >&2
        exit 1
    }

    echo "smoke: hierarchy-variant config end-to-end"
    # One mitigation preset through the whole engine: the run must
    # complete and publish the per-level bandwidth formulas, and the
    # sec6 sweep must produce the mitigation columns.
    ./build/bwsim --dump-stats --benches=bfs --shrink=16 \
        --config=L1-bypass > "$smoke_tmp/variant.out"
    grep -q 'gpu\.bw\.l1_icnt_bpc' "$smoke_tmp/variant.out" || {
        echo "smoke FAIL: variant --dump-stats lacks the gpu.bw" \
             "bandwidth formulas" >&2
        exit 1
    }
    grep -q 'gpu\.core0\.l1d\.bypassed_reads' "$smoke_tmp/variant.out" || {
        echo "smoke FAIL: L1-bypass run did not report bypassed reads" >&2
        exit 1
    }
    ./build/bwsim sec6 --benches=bfs --shrink=16 --threads=2 \
        > "$smoke_tmp/sec6.out"
    grep -q 'L2-sectored' "$smoke_tmp/sec6.out" || {
        echo "smoke FAIL: sec6 table lacks the mitigation columns:" >&2
        cat "$smoke_tmp/sec6.out" >&2
        exit 1
    }

    echo "smoke: --cache-stats and --cache-max-mb eviction"
    ./build/bwsim --cache-stats --cache-dir="$smoke_tmp/cache" \
        > "$smoke_tmp/stats.out"
    grep -q 'baseline' "$smoke_tmp/stats.out" || {
        echo "smoke FAIL: --cache-stats did not report the warm" \
             "baseline entries:" >&2
        cat "$smoke_tmp/stats.out" >&2
        exit 1
    }
    ./build/bwsim --cache-max-mb=0 --cache-dir="$smoke_tmp/cache" \
        2> "$smoke_tmp/evict.err"
    ./build/bwsim --cache-stats --cache-dir="$smoke_tmp/cache" \
        > "$smoke_tmp/stats2.out"
    grep -q ': 0 entries' "$smoke_tmp/stats2.out" || {
        echo "smoke FAIL: --cache-max-mb=0 left entries behind:" >&2
        cat "$smoke_tmp/stats2.out" >&2
        exit 1
    }
    echo "smoke: OK"
}

case "${1:-}" in
    quick)
        build
        run_tests -L quick
        ;;
    test)
        build
        run_tests
        ;;
    smoke)
        [ -x build/bwsim ] || build
        smoke
        ;;
    asan)
        asan
        ;;
    *)
        build
        run_tests
        smoke
        ;;
esac

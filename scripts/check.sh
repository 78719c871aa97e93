#!/bin/sh
# check.sh — the repo's expanded tier-1 verification gate.
# Runs: build, gofmt, go vet, aqppp-lint, the race-enabled test suite,
# the server smokes, and one-iteration bench smokes with the recorded
# baselines loaded. Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

# now prints the epoch second. `date +%s` is a GNU/BSD extension (POSIX
# date has no %s), so dash/minimal-sh environments need the awk route:
# srand() with no argument seeds from the clock and returns the previous
# seed, so calling it twice yields the current epoch portably.
now() {
    awk 'BEGIN { srand(); print srand() }'
}

# step/step_done bracket every gate stage with a uniform wall-clock
# line, so a CI log diff immediately shows which stage regressed.
step() {
    echo "==> $1"
    step_started=$(now)
}
step_done() {
    echo "    wall-clock: $(( $(now) - step_started ))s"
}

step "go build ./..."
go build ./...
step_done

step "gofmt -l"
# Exclude the lint testdata module: its files seed deliberate violations
# and are formatted, but keep the filter explicit in case that changes.
unformatted=$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
step_done

step "go vet ./..."
go vet ./...
step_done

step "aqppp-lint ./..."
go run ./cmd/aqppp-lint ./...
step_done

step "go test -race ./..."
go test -race ./...
step_done

step "perfbench vet + test (own module)"
# perfbench is a separate module (it has its own go.mod), so `./...`
# above never builds it, yet it drives the root API end to end. Vet and
# test it here so an API change that breaks it fails the gate.
(cd perfbench && go vet ./... && go test ./...)
step_done

step "cancellation flake hunt (-race -run Cancel -count=5)"
# Cancellation is inherently racy machinery: a stop flag armed by
# context.AfterFunc, polled by scan/climb/resample loops. Run the
# TestCancel* suite five times under the race detector to shake out
# ordering-dependent flakes before they reach CI.
go test -race -run Cancel -count=5 ./...
step_done

if [ "${AQPPP_SKIP_SERVER_SMOKE:-}" = "1" ]; then
    echo "==> server smoke skipped (AQPPP_SKIP_SERVER_SMOKE=1)"
else
    step "server smoke (serve, query, cache, shed, quota, contract, SSE, drain)"
    # Exercises the real aqppp-serve binary end to end: build it, serve a
    # small demo table on a random port, answer one exact and one approx
    # query, repeat one for a cache hit, burst distinct clients past the
    # capacity-1 admission gate expecting 429 "overloaded", exhaust one
    # client's token bucket expecting 429 "quota-exceeded" (the two sheds
    # must stay distinguishable), scrape /metrics, then SIGTERM and
    # require a clean drain (exit 0). Gated behind the env var so
    # `go test ./...` above stays fast; CI runs it on one matrix leg only.
    # The restart leg saves a store container, restarts from -data alone,
    # and requires identical answers with no rebuild. The fleet leg runs
    # two replica processes plus a coordinator against a single-process
    # sharded oracle: answers must match bit for bit, and killing a
    # replica must shed 503 "unavailable" instead of a silent partial sum.
    # The contract leg answers a feasible contract inside its bound,
    # rejects an impossible one 422 with tightest_achievable, streams a
    # progressive SSE answer to a well-formed terminal event, and proves
    # a mid-stream disconnect lands on the canceled counter.
    AQPPP_SERVER_SMOKE=1 go test -race -count=1 \
        -run 'TestServeBinarySmoke|TestServeStoreRestartSmoke|TestServeFleetSmoke|TestServeContractSmoke' \
        ./cmd/aqppp-serve
    step_done
fi

# One iteration per benchmark: catches fixture/kernel-path panics without
# turning the gate into a perf run. The output feeds benchguard below so
# the recorded baselines (BENCH_*.json) are parsed and name-checked on
# every gate run; actual regression comparison happens in CI and nightly
# where repetitions make medians meaningful.
bench_out=$(mktemp)
trap 'rm -f "$bench_out"' EXIT

step "engine bench smoke (benchtime 1x)"
go test -run '^$' -bench BenchmarkEngine -benchtime 1x ./internal/engine | tee "$bench_out"
step_done

step "store bench smoke (benchtime 1x)"
go test -run '^$' -bench BenchmarkStore -benchtime 1x ./internal/store | tee -a "$bench_out"
step_done

step "shard bench smoke (benchtime 1x, one sharded config)"
go test -run '^$' -bench 'BenchmarkShardSumShuffled4$' -benchtime 1x ./internal/shard | tee -a "$bench_out"
step_done

step "contract bench smoke (benchtime 1x)"
go test -run '^$' -bench BenchmarkContract -benchtime 1x ./internal/contract | tee -a "$bench_out"
step_done

step "answer bench smoke (benchtime 1x)"
go test -run '^$' -bench BenchmarkAnswer -benchtime 1x ./internal/core | tee -a "$bench_out"
step_done

step "benchguard baselines (report-only at 1x)"
go run ./scripts/benchguard.go \
    -baseline BENCH_engine.json,BENCH_shard.json,BENCH_store.json,BENCH_contract.json,BENCH_answer.json \
    -tolerance 10 "$bench_out"
step_done

echo "==> all checks passed"

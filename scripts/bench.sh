#!/usr/bin/env bash
# Benchmark harness and regression gate.
#
#   scripts/bench.sh [OUTPUT.json]        # run benches, write medians
#   scripts/bench.sh --check [OUTPUT.json]  # ...and gate vs baseline
#   scripts/bench.sh --check --dry-run    # gate plumbing self-test:
#                                         # reuse the baseline as the
#                                         # "fresh" run (no cargo bench)
#
# The gate compares every `median_ns` key of the baseline — the latest
# committed BENCH_*.json, or $ACCORDION_BENCH_BASELINE — against the
# fresh run and fails (nonzero exit) when it regresses by more than
# $ACCORDION_BENCH_TOL (default 1.7x). The fresh side of the ratio is
# the run's *minimum*, not its median: the min is robust against
# transient machine load (the usual source of flaky medians at 1-2
# iters/sample), while a real regression is a step function that moves
# the min just as far. A key present in the baseline but missing from
# the fresh run also fails: silently dropping a bench would retire its
# regression coverage.
#
# $ACCORDION_BENCH_INJECT_SCALE multiplies every fresh median (default
# 1) — check.sh uses it with --dry-run to prove the gate actually
# rejects a synthetic 2x slowdown.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
dryrun=0
out=""
for arg in "$@"; do
    case "$arg" in
        --check) check=1 ;;
        --dry-run) dryrun=1 ;;
        -*) echo "usage: scripts/bench.sh [--check] [--dry-run] [OUTPUT.json]" >&2; exit 2 ;;
        *) out="$arg" ;;
    esac
done
out="${out:-BENCH_PR14.json}"

baseline="${ACCORDION_BENCH_BASELINE:-}"
if [ -z "$baseline" ]; then
    baseline="$(git ls-files 'BENCH_*.json' | sort -V | tail -1 || true)"
fi

# Every `"key": value` pair inside a file's median_ns block.
medians_of() {
    awk '
        /"median_ns"/ { inblock = 1; next }
        inblock && /\}/ { inblock = 0 }
        inblock {
            gsub(/[",:]/, " ")
            if (NF >= 2) print $1, $2
        }' "$1"
}

inject="${ACCORDION_BENCH_INJECT_SCALE:-1}"

# `fresh` holds `key min_ns median_ns` lines.
if [ "$dryrun" -eq 1 ]; then
    # Plumbing self-test: the baseline replayed through the comparator.
    [ -n "$baseline" ] || { echo "error: --dry-run needs a baseline" >&2; exit 1; }
    fresh="$(medians_of "$baseline" \
        | awk -v s="$inject" '{ printf "%s %.1f %.1f\n", $1, $2 * s, $2 * s }')"
else
    echo "==> cargo bench -p accordion-bench --bench sparse --bench telemetry --bench serve --bench sweep --bench kernels"
    raw="$(cargo bench -p accordion-bench --bench sparse --bench telemetry --bench serve --bench sweep --bench kernels 2>&1 \
        | grep -E '^bench ')"
    echo "$raw"

    # The vendored criterion shim prints:
    #   bench NAME  min X u | median Y u | mean Z u (N iters/sample)
    # Keys flatten the bench path: sparse/sample/dense_612 ->
    # sample_dense_612 (matching the PR3 baseline), telemetry/...
    # keeps its group prefix.
    fresh="$(echo "$raw" | awk -v s="$inject" '
        {
            key = $2
            sub(/^sparse\//, "", key)
            # construct/dense_612 -> construct_dense_612 etc.
            gsub(/\//, "_", key)
            printf "%s", key
            for (i = 3; i <= NF; i += 1) {
                if ($i == "min" || $i == "median") {
                    v = $(i + 1); u = $(i + 2)
                    if (u == "ns") m = 1
                    else if (u == "µs") m = 1e3
                    else if (u == "ms") m = 1e6
                    else m = 1e9
                    printf " %.1f", v * m * s
                }
            }
            printf "\n"
        }')"

    # Serving-path loadtests: short closed-loop runs against an
    # in-process server, once per connection model. The reports' p99
    # and mean ns-per-request (1e9 / sustained req/s — "bigger is
    # worse", like every other median_ns key) join the regression
    # gate, so a throughput or tail regression on either serving path
    # fails --check like a kernel one. Each mode runs three times and
    # keeps the median-by-throughput run: single loadtest samples on a
    # loaded machine are too noisy to gate a ratio on.
    run_loadtest() { # extra-flags... -> "p99 ns_per_req sweep_p99" on stdout
        local json samples=""
        json="$(mktemp)"
        for _ in 1 2 3; do
            cargo run --release -q -p accordion-bench --bin repro -- \
                loadtest --duration 6 --warmup 2 --connections 4 --seed 2014 \
                --json "$json" "$@" > /dev/null
            local p99 nspr sweep
            # First "p99" line only: the headline latency_ns block.
            # The later kind_latency_ns blocks repeat the key per kind.
            p99="$(awk -F'[:,]' '/"p99"/ { gsub(/ /, "", $2); print $2; exit }' "$json")"
            nspr="$(awk -F'[:,]' '/"ns_per_req"/ { gsub(/ /, "", $2); print $2; exit }' "$json")"
            # The warm /v1/sweep p99: the sweep entry of kind_latency_ns.
            sweep="$(awk -F'[:,]' '
                /"kind_latency_ns"/ { inkl = 1 }
                inkl && /"sweep"/ { insweep = 1 }
                insweep && /"p99"/ { gsub(/ /, "", $2); print $2; exit }' "$json")"
            [ -n "$p99" ] && [ -n "$nspr" ] && [ -n "$sweep" ] \
                || { echo "error: loadtest report missing p99/ns_per_req/sweep p99" >&2; exit 1; }
            samples="$samples$nspr $p99 $sweep
"
        done
        rm -f "$json"
        printf '%s' "$samples" | sort -g | awk 'NR == 2 { print $2, $1, $3 }'
    }

    echo "==> repro loadtest x3 (serve_loadtest gate inputs, close-per-request)"
    read -r lt_p99 lt_nspr lt_sweep_p99 <<< "$(run_loadtest)"
    echo "    close-per-request median: $(awk -v n="$lt_nspr" 'BEGIN { printf "%.0f", 1e9 / n }') req/s, p99 $lt_p99 ns, sweep p99 $lt_sweep_p99 ns"
    echo "==> repro loadtest x3 --keepalive --pipeline 4 (serve_keepalive gate inputs)"
    read -r ka_p99 ka_nspr _ka_sweep_p99 <<< "$(run_loadtest --keepalive --pipeline 4)"
    echo "    keep-alive median: $(awk -v n="$ka_nspr" 'BEGIN { printf "%.0f", 1e9 / n }') req/s, p99 $ka_p99 ns"
    # Same path with the ops-plane self-scrape loop off: the ratio of
    # the two prices the per-tick TSDB sampling + alert evaluation the
    # default server config now pays. Both keys join the regression
    # gate, so scrape overhead creeping past the tolerance fails
    # --check like any other serving regression.
    echo "==> repro loadtest x3 --keepalive --pipeline 4 --no-scrape (self-scrape overhead)"
    read -r ns_p99 ns_nspr _ns_sweep_p99 <<< "$(run_loadtest --keepalive --pipeline 4 --no-scrape)"
    scrape_overhead="$(awk -v on="$ka_nspr" -v off="$ns_nspr" 'BEGIN { printf "%.3f", on / off }')"
    echo "    no-scrape median: $(awk -v n="$ns_nspr" 'BEGIN { printf "%.0f", 1e9 / n }') req/s, p99 $ns_p99 ns (scrape-on/off ${scrape_overhead}x)"
    fresh="$fresh
serve_loadtest_p99_ns $lt_p99 $lt_p99
serve_loadtest_ns_per_req $lt_nspr $lt_nspr
serve_loadtest_sweep_p99_ns $lt_sweep_p99 $lt_sweep_p99
serve_keepalive_p99_ns $ka_p99 $ka_p99
serve_keepalive_ns_per_req $ka_nspr $ka_nspr
serve_noscrape_p99_ns $ns_p99 $ns_p99
serve_noscrape_ns_per_req $ns_nspr $ns_nspr"

    # Figure-sweep wall clock, median of 3: the end-to-end cost of the
    # fig6 (4-benchmark) and fig7 (2-benchmark) artifact generations —
    # the consumer-visible number the columnar sweep engine exists to
    # shrink. `repro` pays process startup per run; that overhead is
    # identical across PRs, so the key still gates the sweep path.
    time_artifact() { # artifact-id -> median wall ns
        local samples="" t0 t1
        for _ in 1 2 3; do
            t0="$(date +%s%N)"
            cargo run --release -q -p accordion-bench --bin repro -- "$1" > /dev/null
            t1="$(date +%s%N)"
            samples="$samples$((t1 - t0))
"
        done
        printf '%s' "$samples" | sort -g | awk 'NR == 2'
    }

    echo "==> repro fig6/fig7 wall clock x3"
    fig6_wall="$(time_artifact fig6)"
    fig7_wall="$(time_artifact fig7)"
    echo "    fig6 median $(awk -v n="$fig6_wall" 'BEGIN { printf "%.0f", n / 1e6 }') ms, fig7 median $(awk -v n="$fig7_wall" 'BEGIN { printf "%.0f", n / 1e6 }') ms"
    fresh="$fresh
fig6_wall_ns $fig6_wall $fig6_wall
fig7_wall_ns $fig7_wall $fig7_wall"

    # Operating-point optimizer: a fixed-seed NSGA-II search over the
    # paper-default topology. The CLI's stderr summary line
    # (`optimize: N evals (H cache hits) in X s (Y evals/s)`) yields
    # the throughput; its inverse joins the median_ns gate as
    # opt_eval_wall_ns so an evaluator or cache regression fails
    # --check like a kernel one. The same runs double as the
    # determinism cross-check: two identical parallel runs, plus a
    # sequential one, must produce byte-identical reports, and the
    # evolved front must dominate (or tie) the equivalent sweep grid
    # (`"dominated": true` from the built-in --grid-check).
    run_optimize() { # jobs generations json-out -> "evals wall_s evals/s" on stdout
        cargo run --release -q -p accordion-bench --bin repro -- \
            optimize --chips 3 --population 16 --generations "$2" \
            --grid-check 3 --jobs "$1" --json "$3" 2>&1 > /dev/null \
            | awk '/^optimize:/ { print $2, $8, substr($10, 2) }'
    }
    echo "==> repro optimize x3 (opt gate inputs + determinism cross-check)"
    opt_a="$(mktemp)"; opt_b="$(mktemp)"; opt_seq="$(mktemp)"
    read -r opt_n4 opt_t4_a opt_eps_a <<< "$(run_optimize 8 4 "$opt_a")"
    read -r _ opt_t4_b opt_eps_b <<< "$(run_optimize 8 4 "$opt_b")"
    run_optimize 1 4 "$opt_seq" > /dev/null
    [ -n "$opt_eps_a" ] && [ -n "$opt_eps_b" ] \
        || { echo "error: optimize summary line missing evals/s" >&2; exit 1; }
    cmp -s "$opt_a" "$opt_b" \
        || { echo "FAIL: repeated fixed-seed optimize runs differ" >&2; exit 1; }
    cmp -s "$opt_a" "$opt_seq" \
        || { echo "FAIL: optimize --jobs 8 vs --jobs 1 reports differ" >&2; exit 1; }
    grep -q '"dominated": true' "$opt_a" \
        || { echo "FAIL: optimizer front does not dominate the equivalent sweep grid" >&2; exit 1; }
    # Gate on the faster of the two parallel runs (min, like every
    # other fresh-side input); record the slower as the median.
    opt_wall_min="$(awk -v a="$opt_eps_a" -v b="$opt_eps_b" \
        'BEGIN { m = (a > b) ? a : b; printf "%.1f", 1e9 / m }')"
    opt_wall_med="$(awk -v a="$opt_eps_a" -v b="$opt_eps_b" \
        'BEGIN { m = (a > b) ? b : a; printf "%.1f", 1e9 / m }')"
    opt_evals_per_s="$(awk -v w="$opt_wall_med" 'BEGIN { printf "%.1f", 1e9 / w }')"
    echo "    optimize $opt_evals_per_s evals/s (byte-identical across runs and --jobs, front dominates grid)"

    # The 4-generation request is mostly cold start (evaluator binding,
    # quality fronts, iso curves, grid check), and its archive of a
    # few hundred points hides any per-generation cost that grows
    # with the archive. The same request at the served cap of 64
    # generations splits the wall clock into a marginal cost per
    # evaluation, (t64 - t4) / (evals64 - evals4), and the cold start
    # it leaves, t4 - evals4 * marginal. The extra generations cost
    # tens of ms against a cold start that varies by about as much
    # from run to run, so the split is taken per (4, 64) pair over
    # eleven pairs: the median is recorded and, as everywhere, the
    # min is the gate input. On a shared 2-vCPU host the per-pair
    # marginal spreads over tens of us around a median of about
    # 35-40 us, so the min gate catches only a large step (an
    # O(archive^2) front rescan per generation put the median near
    # 100 us there); the median is the number to compare across
    # runs. The reports of every 4- and every 64-generation run must
    # be byte-identical too.
    echo "==> repro optimize --generations 4 / 64, 11 pairs (marginal/cold-start split)"
    opt_pairs=""
    opt_64="$(mktemp)"
    for i in $(seq 1 11); do
        read -r _ opt_t4 _ <<< "$(run_optimize 8 4 "$opt_b")"
        cmp -s "$opt_a" "$opt_b" \
            || { echo "FAIL: repeated fixed-seed optimize runs differ" >&2; exit 1; }
        read -r opt_n64 opt_t64 _ <<< "$(run_optimize 8 64 "$opt_b")"
        [ -n "$opt_t4" ] && [ -n "$opt_t64" ] \
            || { echo "error: optimize summary line missing evals/wall" >&2; exit 1; }
        if [ "$i" -eq 1 ]; then cp "$opt_b" "$opt_64"; fi
        cmp -s "$opt_64" "$opt_b" \
            || { echo "FAIL: repeated 64-generation optimize runs differ" >&2; exit 1; }
        opt_pairs="$opt_pairs$opt_t4 $opt_t64
"
    done
    rm -f "$opt_a" "$opt_b" "$opt_seq" "$opt_64"
    [ "$opt_n64" -gt "$opt_n4" ] \
        || { echo "error: 64 generations evaluated no more than 4" >&2; exit 1; }
    split_opt() { # column (1 marginal, 2 cold start) -> "min_ns median_ns"
        printf '%s' "$opt_pairs" \
            | awk -v n4="$opt_n4" -v n64="$opt_n64" -v col="$1" '{
                m = ($2 - $1) / (n64 - n4)
                printf "%.1f\n", (col == 1 ? m : $1 - n4 * m) * 1e9
            }' \
            | sort -g | awk '{ v[NR] = $1 } END { print v[1], v[int((NR + 1) / 2)] }'
    }
    read -r opt_marg_min opt_marg_med <<< "$(split_opt 1)"
    read -r opt_cold_min opt_cold_med <<< "$(split_opt 2)"
    echo "    $opt_n4 -> $opt_n64 evals: marginal $opt_marg_med ns/eval, cold start $(awk -v n="$opt_cold_med" 'BEGIN { printf "%.0f", n / 1e6 }') ms (medians of 11 pairs)"
    fresh="$fresh
opt_marginal_eval_ns $opt_marg_min $opt_marg_med
opt_cold_start_ns $opt_cold_min $opt_cold_med
opt_eval_wall_ns $opt_wall_min $opt_wall_med"
fi

# Median (field 3): what the baseline file records.
fresh_of() {
    echo "$fresh" | awk -v want="$1" '$1 == want { print $3 }'
}

# Min (field 2): what the gate compares against the baseline median.
fresh_min_of() {
    echo "$fresh" | awk -v want="$1" '$1 == want { print $2 }'
}

if [ "$dryrun" -eq 0 ]; then
    # Absolute envelope on the disabled flight recorder: the gate every
    # instrumented protocol loop pays must stay at the one-relaxed-load
    # scale PR 1 established for disabled trace events.
    flight_ns="$(fresh_of telemetry_flight_disabled_event)"
    [ -n "$flight_ns" ] || { echo "error: flight overhead bench missing" >&2; exit 1; }
    tsdb_scrape_ns="$(fresh_of tsdb_scrape_ns)"
    [ -n "$tsdb_scrape_ns" ] || { echo "error: tsdb scrape bench missing" >&2; exit 1; }
    awk -v v="$flight_ns" 'BEGIN {
        if (v > 5.0) {
            print "FAIL: disabled flight recorder costs " v " ns/event (> 5 ns envelope)" > "/dev/stderr"
            exit 1
        }
    }'

    construct_dense=$(fresh_of construct_dense_612)
    construct_env=$(fresh_of construct_envelope_612)
    sampler_construct=$(fresh_of sampler_construct_612)
    sample_dense=$(fresh_of sample_dense_612)
    sample_env=$(fresh_of sample_envelope_612)
    fab8=$(fresh_of fabricate_population_8)
    for v in "$construct_dense" "$construct_env" "$sampler_construct" \
             "$sample_dense" "$sample_env" "$fab8"; do
        [ -n "$v" ] || { echo "error: missing bench line in output" >&2; exit 1; }
    done

    serve_warm=$(fresh_of serve_latency)
    serve_cold=$(fresh_of serve_latency_cold)
    serve_sweep_warm=$(fresh_of serve_sweep_warm)
    for v in "$serve_warm" "$serve_cold" "$serve_sweep_warm"; do
        [ -n "$v" ] || { echo "error: serve latency bench missing" >&2; exit 1; }
    done

    sweep_batched=$(fresh_of sweep_extract_batched)
    sweep_scalar=$(fresh_of sweep_extract_scalar)
    for v in "$sweep_batched" "$sweep_scalar"; do
        [ -n "$v" ] || { echo "error: sweep engine bench missing" >&2; exit 1; }
    done

    construct_speedup=$(awk -v a="$construct_dense" -v b="$construct_env" 'BEGIN { printf "%.2f", a / b }')
    sample_speedup=$(awk -v a="$sample_dense" -v b="$sample_env" 'BEGIN { printf "%.2f", a / b }')
    serve_speedup=$(awk -v c="$serve_cold" -v w="$serve_warm" 'BEGIN { printf "%.2f", c / w }')
    sweep_speedup=$(awk -v s="$sweep_scalar" -v b="$sweep_batched" 'BEGIN { printf "%.2f", s / b }')
    chips_per_s=$(awk -v t="$fab8" 'BEGIN { printf "%.0f", 8e9 / t }')
    keepalive_rps=$(awk -v n="$ka_nspr" 'BEGIN { printf "%.0f", 1e9 / n }')
    keepalive_vs_close=$(awk -v c="$lt_nspr" -v k="$ka_nspr" 'BEGIN { printf "%.2f", c / k }')

    {
        echo '{'
        echo '  "bench": "sparse variation engine + telemetry hot paths + serve latency + columnar sweep engine + ops-plane self-scrape + operating-point optimizer + RMS kernels",'
        echo '  "plan": { "sites": 612, "phi": 0.1, "range_mm": 2.0 },'
        echo '  "median_ns": {'
        echo "$fresh" | awk '{ pairs[NR] = "    \"" $1 "\": " $3 }
            END { for (i = 1; i <= NR; i++) printf "%s%s\n", pairs[i], (i < NR ? "," : "") }'
        echo '  },'
        echo '  "speedup": {'
        echo "    \"sampler_construction\": $construct_speedup,"
        echo "    \"per_chip_sampling\": $sample_speedup,"
        echo "    \"serve_warm_vs_cold\": $serve_speedup,"
        echo "    \"keepalive_vs_close\": $keepalive_vs_close,"
        echo "    \"sweep_batched_vs_scalar\": $sweep_speedup"
        echo '  },'
        echo "  \"self_scrape_overhead\": $scrape_overhead,"
        echo "  \"serve_keepalive_rps\": $keepalive_rps,"
        echo "  \"opt_evals_per_s\": $opt_evals_per_s,"
        echo "  \"fabrication_chips_per_second\": $chips_per_s"
        echo '}'
    } > "$out"
    echo "wrote $out (construction ${construct_speedup}x, sampling ${sample_speedup}x, serve warm ${serve_speedup}x, keep-alive ${keepalive_vs_close}x @ ${keepalive_rps} req/s, sweep ${sweep_speedup}x, scrape overhead ${scrape_overhead}x, optimizer ${opt_evals_per_s} evals/s, ${chips_per_s} chips/s)"

    # The PR 3 acceptance floors stay pinned; PR 5 adds the service's
    # warm-cache floor (a warm /v1/simulate must be >= 5x faster than
    # one that re-fabricates its population). PR 7 adds the connection
    # model's: the keep-alive + pipelining path must sustain >= 5x the
    # close-per-request throughput at equal-or-better p99. PR 8 adds
    # the sweep engine's: the batched columnar extraction must stay
    # >= 5x faster than the legacy scalar path it replaced.
    awk -v c="$construct_speedup" -v s="$sample_speedup" -v v="$serve_speedup" \
        -v ka="$keepalive_vs_close" -v kp="$ka_p99" -v cp="$lt_p99" \
        -v sw="$sweep_speedup" 'BEGIN {
        bad = 0
        if (c < 3.0) { print "FAIL: sampler construction speedup " c "x < 3x" > "/dev/stderr"; bad = 1 }
        if (s < 2.0) { print "FAIL: per-chip sampling speedup " s "x < 2x" > "/dev/stderr"; bad = 1 }
        if (v < 5.0) { print "FAIL: warm serve latency only " v "x better than cold (< 5x)" > "/dev/stderr"; bad = 1 }
        if (ka < 5.0) { print "FAIL: keep-alive throughput only " ka "x close-per-request (< 5x)" > "/dev/stderr"; bad = 1 }
        if (kp > cp) { print "FAIL: keep-alive p99 " kp " ns worse than close-per-request " cp " ns" > "/dev/stderr"; bad = 1 }
        if (sw < 5.0) { print "FAIL: batched sweep only " sw "x faster than scalar (< 5x)" > "/dev/stderr"; bad = 1 }
        exit bad
    }'
fi

if [ "$check" -eq 1 ]; then
    [ -n "$baseline" ] || { echo "error: no committed BENCH_*.json baseline found" >&2; exit 1; }
    tol="${ACCORDION_BENCH_TOL:-1.7}"
    echo "==> regression gate vs $baseline (tolerance ${tol}x)"
    status=0
    while read -r key base; do
        now="$(fresh_min_of "$key")"
        if [ -z "$now" ]; then
            echo "FAIL: $key present in baseline but missing from this run" >&2
            status=1
            continue
        fi
        verdict="$(awk -v b="$base" -v n="$now" -v t="$tol" 'BEGIN {
            r = n / b
            printf "%.2f", r
            exit (r > t) ? 1 : 0
        }')" && ok=1 || ok=0
        if [ "$ok" -eq 1 ]; then
            printf '  ok   %-34s %12.1f -> %12.1f ns (%sx)\n' "$key" "$base" "$now" "$verdict"
        else
            printf '  FAIL %-34s %12.1f -> %12.1f ns (%sx > %sx)\n' "$key" "$base" "$now" "$verdict" "$tol" >&2
            status=1
        fi
    done < <(medians_of "$baseline")
    if [ "$status" -ne 0 ]; then
        echo "bench regression gate FAILED" >&2
        exit 1
    fi
    echo "bench regression gate passed"
fi

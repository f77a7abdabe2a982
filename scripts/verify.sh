#!/usr/bin/env bash
# Tier-1 verification gate plus solver statistics.
#
# Usage: scripts/verify.sh [--full]
#   default : tier-1 gate (release build + root tests) + solver stats
#   --full  : additionally runs the whole workspace test suite
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

# The repository benchmark is a package of its own that calls the
# crates' public items; a core API change that breaks it fails here.
echo "== benchmark package builds against the crates"
cargo check --offline --manifest-path perfbench/Cargo.toml

if [[ "${1:-}" == "--full" ]]; then
    echo "== full workspace test suite"
    cargo test --workspace -q
fi

# Snapshot the committed benchmark numbers before solver_stats
# overwrites the file — the regression gate below compares against them.
git show HEAD:BENCH_solver.json > BENCH_solver.baseline.json 2>/dev/null || : > BENCH_solver.baseline.json

echo "== solver stats (writes BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- BENCH_solver.json >/dev/null

echo "== BENCH_solver.json comparison block"
sed -n '/"comparison"/,$p' BENCH_solver.json

# Allocation/latency regression gate: the default sequential corpus
# sweep must not allocate more than ~5% over the committed baseline,
# and dataflow time must stay within 1.5x (generous — wall time on the
# shared single-core runner is noisy; allocations are deterministic).
mode_field() { # <file> <mode> <field>
    awk -v mode="\"$2\"," -v field="\"$3\":" '
        $1 == "\"mode\":" { in_mode = ($2 == mode) }
        in_mode && $1 == field { gsub(/,/, "", $2); print $2; exit }
    ' "$1"
}
echo "== regression gate vs committed BENCH_solver.json"
base_allocs=$(mode_field BENCH_solver.baseline.json sequential-interned allocations)
base_dataflow=$(mode_field BENCH_solver.baseline.json sequential-interned dataflow_ms)
rm -f BENCH_solver.baseline.json
if [[ -z "${base_allocs}" || -z "${base_dataflow}" ]]; then
    echo "no committed sequential-interned baseline; skipping regression gate"
else
    new_allocs=$(mode_field BENCH_solver.json sequential-interned allocations)
    new_dataflow=$(mode_field BENCH_solver.json sequential-interned dataflow_ms)
    echo "allocations: ${new_allocs} (baseline ${base_allocs}), dataflow_ms: ${new_dataflow} (baseline ${base_dataflow})"
    if ! awk -v new="$new_allocs" -v base="$base_allocs" 'BEGIN { exit !(new <= base * 1.05) }'; then
        echo "FAIL: corpus allocations regressed beyond 5% of the committed baseline" >&2
        exit 1
    fi
    if ! awk -v new="$new_dataflow" -v base="$base_dataflow" 'BEGIN { exit !(new <= base * 1.5) }'; then
        echo "FAIL: corpus dataflow time regressed beyond 1.5x the committed baseline" >&2
        exit 1
    fi
fi

# Warm summary-cache smoke: solver_stats runs the corpus cold-then-warm
# against one cache directory; the warm pass must actually replay stored
# summaries (nonzero hit rate) and skip re-derived path edges.
echo "== warm summary-cache smoke"
warm_hits=$(grep -o '"cache_warm_hits": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
edges_saved=$(grep -o '"cache_path_edges_saved": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
echo "warm hits: ${warm_hits:-none}, path edges saved: ${edges_saved:-none}"
if [[ -z "${warm_hits}" || "${warm_hits}" -eq 0 ]]; then
    echo "FAIL: warm summary-cache run produced no hits" >&2
    exit 1
fi
if [[ -z "${edges_saved}" || "${edges_saved}" -eq 0 ]]; then
    echo "FAIL: warm summary-cache run saved no path edges" >&2
    exit 1
fi

# Demand-driven frontend: the lazy sweep must produce the same report
# as the eager baseline while leaving bodies undecoded (solver_stats
# exits nonzero otherwise; re-check the counters here for the log).
echo "== demand-driven frontend smoke"
lazy_skipped=$(grep -o '"lazy_bodies_skipped": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
lazy_identical=$(grep -o '"lazy_report_identical": [a-z]*' BENCH_solver.json | grep -o '[a-z]*$' || true)
echo "lazy bodies skipped: ${lazy_skipped:-none}, report identical: ${lazy_identical:-none}"
if [[ -z "${lazy_skipped}" || "${lazy_skipped}" -eq 0 ]]; then
    echo "FAIL: demand-driven run skipped no method bodies" >&2
    exit 1
fi
if [[ "${lazy_identical}" != "true" ]]; then
    echo "FAIL: demand-driven leak report diverged from the eager baseline" >&2
    exit 1
fi

# Serving-mode smoke: platform-snapshot round trip, daemon boot from
# the snapshot, cold->warm cache sharing between jobs, warm
# callgraph-cache replay with setup strictly below the cold job's,
# warm setup below dataflow, in-flight cancellation, clean shutdown.
echo "== serving-mode smoke"
scripts/service_smoke.sh

# Service benchmark: floods the daemon with the corpus twice and
# splices per-job wall/queue times into BENCH_solver.json (the binary
# itself gates on warm hits and cold/warm report identity).
echo "== service stats (splices \"service\" into BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- --mode service BENCH_solver.json >/dev/null
svc_hits=$(grep -o '"warm_summary_hits": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
echo "service warm hits: ${svc_hits:-none}"
if [[ -z "${svc_hits}" || "${svc_hits}" -eq 0 ]]; then
    echo "FAIL: service warm pass replayed no summaries" >&2
    exit 1
fi
svc_source=$(grep -o '"snapshot_source": "[a-z]*"' BENCH_solver.json | grep -o '"[a-z]*"$' | tr -d '"' || true)
svc_skipped=$(grep -o '"bodies_skipped_total": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
svc_warm_gate=$(grep -o '"warm_setup_below_dataflow": [a-z]*' BENCH_solver.json | grep -o '[a-z]*$' || true)
echo "service snapshot source: ${svc_source:-none}, bodies skipped: ${svc_skipped:-none}, warm setup<=dataflow: ${svc_warm_gate:-none}"
if [[ "${svc_source}" != "file" ]]; then
    echo "FAIL: service benchmark did not boot from the platform snapshot" >&2
    exit 1
fi
if [[ -z "${svc_skipped}" || "${svc_skipped}" -eq 0 ]]; then
    echo "FAIL: service jobs decoded every method body" >&2
    exit 1
fi
if [[ "${svc_warm_gate}" != "true" ]]; then
    echo "FAIL: warm daemon job spent more time in setup than in the data-flow solver" >&2
    exit 1
fi
svc_cg_hits=$(grep -o '"warm_callgraph_hits": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
svc_setup_gate=$(grep -o '"warm_setup_below_cold": [a-z]*' BENCH_solver.json | grep -o '[a-z]*$' || true)
echo "service warm callgraph hits: ${svc_cg_hits:-none}, warm setup<cold: ${svc_setup_gate:-none}"
if [[ -z "${svc_cg_hits}" || "${svc_cg_hits}" -eq 0 ]]; then
    echo "FAIL: service warm pass replayed no cached callgraphs" >&2
    exit 1
fi
if [[ "${svc_setup_gate}" != "true" ]]; then
    echo "FAIL: warm pass setup did not drop below the cold pass despite the callgraph cache" >&2
    exit 1
fi

# Fleet-load benchmark: per-tier warm-hit attribution, namespace
# isolation, priority latency, overload backpressure, cancel storm and
# streamed-report identity. The binary gates every phase itself and
# exits nonzero on failure; the checks below re-read the headline
# numbers from the spliced JSON for the log and as a belt-and-braces
# gate (finite p99, rejections observed, a warm hit from every tier).
echo "== service-load stats (splices \"service_load\" into BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- --mode service-load BENCH_solver.json >/dev/null
for tier in memory local chunk; do
    hits=$(grep -o "\"${tier}_tier_hits\": [0-9]*" BENCH_solver.json | grep -o '[0-9]*$' || true)
    echo "service-load ${tier}-tier warm hits: ${hits:-none}"
    if [[ -z "${hits}" || "${hits}" -eq 0 ]]; then
        echo "FAIL: service-load warm pass replayed nothing from the ${tier} tier" >&2
        exit 1
    fi
done
load_rejected=$(grep -o '"rejected": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
load_p99=$(grep -o '"high_p99_ms": [0-9.]*' BENCH_solver.json | grep -o '[0-9.]*$' || true)
echo "service-load overload rejections: ${load_rejected:-none}, high-priority p99: ${load_p99:-non-finite} ms"
if [[ -z "${load_rejected}" || "${load_rejected}" -eq 0 ]]; then
    echo "FAIL: overloaded capped queue rejected nothing" >&2
    exit 1
fi
if [[ -z "${load_p99}" ]]; then
    echo "FAIL: high-priority p99 latency is missing or not finite" >&2
    exit 1
fi
if ! grep -q '"high_p99_below_batch_p99": true' BENCH_solver.json; then
    echo "FAIL: high-priority p99 did not beat batch p99" >&2
    exit 1
fi
if ! grep -q '"namespace_cold_hits": 0' BENCH_solver.json; then
    echo "FAIL: a foreign namespace observed another tenant's summaries" >&2
    exit 1
fi

# Ground-truth harness: generate the seeded synthetic corpus, sweep the
# engine matrix (the one taint solver behind eager/lazy frontends, a
# warm callgraph cache and cold/warm summary caches) and serve the
# packed archives through a daemon under the --allow-apps policy. The binary
# gates byte-identical reports, manifest agreement, the k-limit probe
# and the daemon leg itself; the checks below re-read the headline
# fields from the spliced JSON.
echo "== ground-truth stats (splices \"ground_truth\" into BENCH_solver.json)"
cargo run --release -p flowdroid-service --bin solver_stats -- --mode ground-truth BENCH_solver.json >/dev/null
gt_apps=$(grep -o '"k_limit_apps": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
gt_divergent=$(grep -o '"divergent_pairs": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
gt_drift=$(grep -o '"drift_apps": [0-9]*' BENCH_solver.json | grep -o '[0-9]*$' || true)
echo "ground-truth: divergent engine pairs: ${gt_divergent:-none}, drifted apps: ${gt_drift:-none}, widening apps: ${gt_apps:-none}"
if [[ "${gt_divergent:-1}" -ne 0 ]]; then
    echo "FAIL: engine configurations disagreed on the ground-truth corpus" >&2
    exit 1
fi
if [[ "${gt_drift:-1}" -ne 0 ]]; then
    echo "FAIL: reference engine drifted from a ground-truth manifest" >&2
    exit 1
fi
if ! grep -q '"constructive_precision": 1.0000' BENCH_solver.json; then
    echo "FAIL: constructive ground-truth corpus precision below 1.0" >&2
    exit 1
fi
if ! grep -q '"constructive_recall": 1.0000' BENCH_solver.json; then
    echo "FAIL: constructive ground-truth corpus recall below 1.0" >&2
    exit 1
fi
if ! grep -q '"icc_linked_ok": true' BENCH_solver.json; then
    echo "FAIL: linked-ICC leak counts diverged from the manifests" >&2
    exit 1
fi
if ! grep -q '"daemon_external_ok": true' BENCH_solver.json; then
    echo "FAIL: daemon-served .rpk reports diverged from local runs" >&2
    exit 1
fi
if ! grep -q '"policy_denied_works": true' BENCH_solver.json; then
    echo "FAIL: the --allow-apps path policy accepted an outside path" >&2
    exit 1
fi

echo "verify: OK"

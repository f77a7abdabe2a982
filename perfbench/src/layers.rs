//! Per-layer metrics, named after the repository's crates, in one fixed
//! order for every workload. A layer a workload does not reach reports
//! 0: `market-scan` and `deep-flow` never touch the daemon's layers.

use crate::pipeline::{Counters, Tracer, STAGES};
use crate::stats::{median, quantile, Metrics};

/// A traced in-process pass: spans plus per-app counters, and the
/// untraced time of the same apps for the tracing overhead.
pub struct InProc<'a> {
    pub tracer: &'a Tracer,
    pub counters: &'a [Counters],
    pub untraced_s: f64,
}

/// Daemon-side figures (client spans plus the final `stats` reply).
#[derive(Default)]
pub struct Service {
    pub submit_ms_p99: f64,
    pub server_ms_p50: f64,
    pub queue_wait_ms_p99: f64,
    pub latency_ms_p99_repeat: f64,
    pub latency_ms_p99_new: f64,
    pub repeat_share: f64,
    pub rejected: f64,
    pub errors: f64,
    pub stats_reply_bytes: f64,
    pub rss_growth_mb: f64,
    pub summaries_hit_ratio: f64,
    pub summaries_recorded: f64,
    pub tier_memory: f64,
    pub tier_local: f64,
    pub tier_chunk: f64,
    pub cg_cache_hit_ratio: f64,
}

/// Per app: the root span's ns and each stage's ns.
fn per_app(tracer: &Tracer) -> Vec<(u64, Vec<u64>)> {
    let mut apps: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut stages = vec![0u64; STAGES.len()];
    for s in &tracer.spans {
        match s.stage {
            Some(i) => stages[i] += s.ns(),
            None => apps.push((
                s.ns(),
                std::mem::replace(&mut stages, vec![0; STAGES.len()]),
            )),
        }
    }
    apps
}

fn stage_index(layer: &str, name: &str) -> usize {
    STAGES
        .iter()
        .position(|&(l, n)| l == layer && n == name)
        .expect("known stage")
}

/// Mean of one counter over the traced apps.
fn mean_of(counters: &[Counters], f: impl Fn(&Counters) -> u64) -> f64 {
    counters.iter().map(|c| f(c) as f64).sum::<f64>() / counters.len().max(1) as f64
}

fn put_inproc(m: &mut Metrics, p: &InProc<'_>) {
    let apps = per_app(p.tracer);
    let stage_ms = |layer: &str, name: &str| -> Vec<f64> {
        let i = stage_index(layer, name);
        apps.iter().map(|(_, s)| s[i] as f64 / 1e6).collect()
    };
    let layer_allocs = |layer: &str| {
        mean_of(p.counters, |c| {
            STAGES
                .iter()
                .zip(&c.stage_allocs)
                .filter(|((l, _), _)| *l == layer)
                .map(|(_, a)| *a)
                .sum()
        })
    };
    let frontend_ms: Vec<f64> = stage_ms("frontend", "archive")
        .iter()
        .zip(stage_ms("frontend", "load"))
        .map(|(a, b)| a + b)
        .collect();
    let stmts: f64 = p.counters.iter().map(|c| c.stmts as f64).sum();
    m.put("frontend.load_ms", median(&frontend_ms), "ms");
    m.put(
        "frontend.kstmts_per_s",
        stmts / frontend_ms.iter().sum::<f64>().max(1e-9),
        "1/s",
    );
    m.put("frontend.allocs", layer_allocs("frontend"), "count");
    let us: Vec<f64> = stage_ms("android", "overlay")
        .iter()
        .map(|v| v * 1e3)
        .collect();
    m.put("android.overlay_us", median(&us), "us");
    m.put(
        "android.entry_model_ms",
        median(&stage_ms("android", "entry_model")),
        "ms",
    );
    m.put(
        "android.dummy_main_ms",
        median(&stage_ms("android", "dummy_main")),
        "ms",
    );
    m.put(
        "android.callbacks",
        mean_of(p.counters, |c| c.callbacks),
        "count",
    );
    m.put("android.allocs", layer_allocs("android"), "count");
    m.put(
        "callgraph.build_ms",
        median(&stage_ms("callgraph", "build")),
        "ms",
    );
    m.put(
        "callgraph.icfg_ms",
        median(&stage_ms("callgraph", "icfg")),
        "ms",
    );
    m.put(
        "callgraph.edges",
        mean_of(p.counters, |c| c.cg_edges),
        "count",
    );
    m.put(
        "callgraph.reachable_methods",
        mean_of(p.counters, |c| c.reachable),
        "count",
    );

    let fixpoint_ms = stage_ms("core", "fixpoint");
    m.put("core.fixpoint_ms", median(&fixpoint_ms), "ms");
    m.put(
        "core.fw_props",
        mean_of(p.counters, |c| c.fw_props),
        "count",
    );
    m.put(
        "core.bw_props",
        mean_of(p.counters, |c| c.bw_props),
        "count",
    );
    m.put(
        "core.distinct_facts",
        mean_of(p.counters, |c| c.distinct_facts),
        "count",
    );
    m.put("core.allocs", layer_allocs("core"), "count");
    // Apps ordered by propagations; the bottom and top thirds give the
    // cost per propagation of small and large solves.
    let mut by_props: Vec<(u64, f64)> = p
        .counters
        .iter()
        .zip(&fixpoint_ms)
        .map(|(c, ms)| (c.fw_props + c.bw_props, *ms))
        .collect();
    by_props.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let third = (by_props.len() / 3).max(1).min(by_props.len());
    let ns_per_prop = |part: &[(u64, f64)]| {
        let props: u64 = part.iter().map(|x| x.0).sum();
        part.iter().map(|x| x.1 * 1e6).sum::<f64>() / props.max(1) as f64
    };
    let small = ns_per_prop(&by_props[..third]);
    let large = ns_per_prop(&by_props[by_props.len() - third..]);
    m.put("core.ns_per_prop.small", small, "ns");
    m.put("core.ns_per_prop.large", large, "ns");
    m.put("core.ns_per_prop_growth", large / small.max(1e-9), "ratio");
    let small_us: Vec<f64> = by_props[..third].iter().map(|x| x.1 * 1e3).collect();
    m.put("core.solve_fixed_us", median(&small_us), "us");
    let props: Vec<f64> = by_props.iter().map(|x| x.0 as f64).collect();
    m.put("core.props_p50", median(&props), "count");
    m.put("core.props_p90", quantile(&props, 0.9), "count");
    m.put("core.path_ms", median(&stage_ms("core", "path")), "ms");
    m.put("core.report_ms", median(&stage_ms("core", "report")), "ms");
    m.put(
        "core.report_bytes",
        mean_of(p.counters, |c| c.report_bytes),
        "bytes",
    );
    m.put(
        "core.unattributed_leaks",
        mean_of(p.counters, |c| c.unattributed),
        "count",
    );
    m.put(
        "ifds.table_rows",
        mean_of(p.counters, |c| c.table_rows),
        "count",
    );
    m.put(
        "ifds.dense_rows",
        mean_of(p.counters, |c| c.dense_rows),
        "count",
    );
    m.put(
        "ifds.widened_facts",
        mean_of(p.counters, |c| c.widened),
        "count",
    );

    // Stage self-times against the traced verdict time.
    let root: f64 = apps.iter().map(|a| a.0 as f64).sum();
    let covered: f64 = apps.iter().map(|a| a.1.iter().sum::<u64>() as f64).sum();
    m.put("trace.verdicts", apps.len() as f64, "count");
    m.put(
        "trace.overhead_share",
        root / 1e9 / p.untraced_s.max(1e-9) - 1.0,
        "ratio",
    );
    m.put(
        "trace.uncovered_share",
        1.0 - covered / root.max(1.0),
        "ratio",
    );
    let shares: Vec<String> = ["frontend", "android", "callgraph", "core"]
        .iter()
        .map(|layer| {
            let ns: f64 = apps
                .iter()
                .flat_map(|a| {
                    STAGES
                        .iter()
                        .zip(&a.1)
                        .filter(|((l, _), _)| l == layer)
                        .map(|(_, ns)| *ns as f64)
                })
                .sum();
            format!("{layer} {:.4}", ns / root.max(1.0))
        })
        .collect();
    eprintln!("stage shares of traced verdict time: {}", shares.join(", "));
}

/// Writes every per-layer metric.
pub fn per_layer(
    m: &mut Metrics,
    inproc: &InProc<'_>,
    svc: &Service,
    gen_lag_ms: &[f64],
    failed: u64,
    attempted: u64,
) {
    put_inproc(m, inproc);
    m.put("summaries.hit_ratio", svc.summaries_hit_ratio, "ratio");
    m.put("summaries.recorded", svc.summaries_recorded, "count");
    m.put("store.tier_hits.memory", svc.tier_memory, "count");
    m.put("store.tier_hits.local", svc.tier_local, "count");
    m.put("store.tier_hits.chunk", svc.tier_chunk, "count");
    m.put("cg_cache.hit_ratio", svc.cg_cache_hit_ratio, "ratio");
    m.put("service.submit_ms_p99", svc.submit_ms_p99, "ms");
    m.put("service.server_ms_p50", svc.server_ms_p50, "ms");
    m.put("service.queue_wait_ms_p99", svc.queue_wait_ms_p99, "ms");
    m.put(
        "service.latency_ms_p99.repeat",
        svc.latency_ms_p99_repeat,
        "ms",
    );
    m.put("service.latency_ms_p99.new", svc.latency_ms_p99_new, "ms");
    m.put("service.repeat_share", svc.repeat_share, "ratio");
    m.put("service.rejected", svc.rejected, "count");
    m.put("service.errors", svc.errors, "count");
    m.put("service.stats_reply_bytes", svc.stats_reply_bytes, "bytes");
    m.put("service.rss_growth_mb", svc.rss_growth_mb, "MB");
    m.put("gen.lag_ms_p99", quantile(gen_lag_ms, 0.99), "ms");
    m.put(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
}

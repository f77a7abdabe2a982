//! The analysis pipeline, twice: [`analyze`] is the CLI `analyze` path
//! (`App::from_archive` → `Infoflow::analyze_app` → report) over a
//! platform-snapshot overlay; [`analyze_traced`] re-composes the same
//! program from public layer calls and records one span per call.

use crate::alloc;
use crate::gen::Expect;
use flowdroid_android::{build_snapshot, generate_dummy_main, EntryPointModel, PlatformSnapshot};
use flowdroid_callgraph::{materialize_reachable, CallGraph, Hierarchy, Icfg};
use flowdroid_core::intern::InternedDomain;
use flowdroid_core::solver::BiSolver;
use flowdroid_core::{Infoflow, InfoflowConfig, InfoflowResults, SourceSinkManager, TaintWrapper};
use flowdroid_frontend::{App, Archive};
use flowdroid_ir::Program;
use std::time::Instant;

/// Dummy-main tag; both pipelines use it so their reports agree.
const TAG: &str = "bench";

/// Everything an in-process analysis needs before its first app.
pub struct Env {
    pub snapshot: PlatformSnapshot,
    pub sources: SourceSinkManager,
    pub wrapper: TaintWrapper,
    pub config: InfoflowConfig,
}

impl Env {
    pub fn new() -> Env {
        Env {
            snapshot: build_snapshot(),
            sources: SourceSinkManager::default_android(),
            wrapper: TaintWrapper::default_rules(),
            config: InfoflowConfig::default(),
        }
    }
}

/// What one analysis produced.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    pub leaks: usize,
    /// `(source line, sink line)` per leak, in report order.
    pub lines: Vec<(u32, u32)>,
    /// `InfoflowResults::report` with its wall-clock field masked.
    pub report: String,
    pub fw_props: u64,
    pub bw_props: u64,
}

impl Verdict {
    fn of(results: &InfoflowResults, program: &Program, report: String) -> Verdict {
        Verdict {
            leaks: results.leak_count(),
            lines: results
                .leaks
                .iter()
                .map(|l| (l.source_line(program), l.sink_line(program)))
                .collect(),
            report: mask_duration(&report),
            fw_props: results.forward_propagations,
            bw_props: results.backward_propagations,
        }
    }

    /// Whether this verdict is the known answer.
    pub fn matches(&self, expect: &Expect) -> bool {
        match *expect {
            Expect::Count(n) => self.leaks == n,
            Expect::Chain {
                source_line,
                sink_line,
                alias,
            } => match self.lines[..] {
                [(src, sink)] => sink == sink_line && (src == source_line || (alias && src == 0)),
                _ => false,
            },
        }
    }
}

/// The report's header ends with the solver's wall time — the one
/// field that differs between identical runs. Masks it.
fn mask_duration(report: &str) -> String {
    let (head, rest) = report.split_once('\n').unwrap_or((report, ""));
    let head = match head.rfind(", ") {
        Some(i) => format!("{}, -)", &head[..i]),
        None => head.to_string(),
    };
    format!("{head}\n{rest}")
}

/// The untraced path: the CLI's `analyze`, without the process spawn.
pub fn analyze(env: &Env, bytes: &[u8]) -> Result<Verdict, String> {
    let archive = Archive::from_bytes(bytes).map_err(|e| e.to_string())?;
    let mut program = env.snapshot.overlay_program();
    let app = App::from_archive(&mut program, &archive).map_err(|e| e.to_string())?;
    let analysis = Infoflow::new(&env.sources, &env.wrapper, &env.config).analyze_app(
        &mut program,
        &env.snapshot.info,
        &app,
        TAG,
    );
    let report = analysis.results.report(&program);
    Ok(Verdict::of(&analysis.results, &program, report))
}

/// The stages a traced verdict is split into, in pipeline order.
pub const STAGES: &[(&str, &str)] = &[
    ("frontend", "archive"),
    ("android", "overlay"),
    ("frontend", "load"),
    ("android", "entry_model"),
    ("android", "dummy_main"),
    ("callgraph", "build"),
    ("callgraph", "icfg"),
    ("core", "fixpoint"),
    ("core", "path"),
    ("core", "report"),
];

/// One span: a layer call of one app. `stage` indexes [`STAGES`];
/// `None` is the app's root span, parent of all its stage spans.
#[derive(Clone, Debug)]
pub struct Span {
    pub app: u32,
    pub stage: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Deterministic counts of one traced app.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    pub stmts: u64,
    pub bodies: u64,
    pub callbacks: u64,
    pub cg_edges: u64,
    pub reachable: u64,
    pub fw_props: u64,
    pub bw_props: u64,
    pub distinct_facts: u64,
    pub table_rows: u64,
    pub dense_rows: u64,
    pub widened: u64,
    pub report_bytes: u64,
    /// Leaks whose source the report leaves unattributed.
    pub unattributed: u64,
    /// Allocations per stage, indexed like [`STAGES`].
    pub stage_allocs: Vec<u64>,
}

/// Records spans against one clock origin.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as stage `stage` of app `app`, recording its span.
    fn stage<T>(&mut self, app: u32, stage: usize, f: impl FnOnce() -> T) -> T {
        let a0 = alloc::count();
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let allocs = alloc::count() - a0;
        self.spans.push(Span {
            app,
            stage: Some(stage),
            start_ns,
            end_ns,
            allocs,
        });
        out
    }

    /// Writes the spans as JSON lines, one per span.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let (layer, name) = s.stage.map_or(("app", "verdict"), |i| STAGES[i]);
            writeln!(
                w,
                "{{\"app\":{},\"layer\":\"{layer}\",\"name\":\"{name}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.app,
                if s.stage.is_some() { "\"verdict\"" } else { "null" },
                s.start_ns,
                s.end_ns,
                s.allocs
            )?;
        }
        w.flush()
    }
}

/// The traced path: the same program as [`analyze`], one public layer
/// call per span.
pub fn analyze_traced(
    env: &Env,
    bytes: &[u8],
    app_id: u32,
    tr: &mut Tracer,
) -> Result<(Verdict, Counters), String> {
    let a0 = alloc::count();
    let start_ns = tr.now();
    let archive = tr
        .stage(app_id, 0, || Archive::from_bytes(bytes))
        .map_err(|e| e.to_string())?;
    let mut program = tr.stage(app_id, 1, || env.snapshot.overlay_program());
    let app = tr
        .stage(app_id, 2, || App::from_archive(&mut program, &archive))
        .map_err(|e| e.to_string())?;
    let platform = &env.snapshot.info;
    let assoc = env.config.callback_association;
    let model = tr.stage(app_id, 3, || {
        EntryPointModel::build(&mut program, platform, &app, assoc)
    });
    let dummy_main = tr.stage(app_id, 4, || {
        generate_dummy_main(&mut program, platform, &model, TAG)
    });
    let algo = env.config.cg_algorithm;
    let cg = tr.stage(app_id, 5, || {
        if program.has_pending_bodies() {
            let hierarchy = Hierarchy::build(&program);
            materialize_reachable(&mut program, &hierarchy, &[dummy_main]);
        }
        CallGraph::build(&program, &[dummy_main], algo)
    });
    let icfg = tr.stage(app_id, 6, || Icfg::new(&program, &cg));
    let sources = app_sources(&env.sources, &app);
    let sources = sources.as_ref().unwrap_or(&env.sources);
    // One call, two spans: the solver's own fixpoint clock splits it
    // into the fixpoint and the path reconstruction after it.
    let s0 = alloc::count();
    let solve_start = tr.now();
    let results = BiSolver::<InternedDomain>::new(icfg, sources, &env.wrapper, &env.config)
        .solve(&[dummy_main]);
    let solve_end = tr.now();
    let solve_allocs = alloc::count() - s0;
    let split = (solve_start + results.duration.as_nanos() as u64).min(solve_end);
    tr.spans.push(Span {
        app: app_id,
        stage: Some(7),
        start_ns: solve_start,
        end_ns: split,
        allocs: solve_allocs,
    });
    tr.spans.push(Span {
        app: app_id,
        stage: Some(8),
        start_ns: split,
        end_ns: solve_end,
        allocs: 0,
    });
    let report = tr.stage(app_id, 9, || results.report(&program));
    let end_ns = tr.now();
    tr.spans.push(Span {
        app: app_id,
        stage: None,
        start_ns,
        end_ns,
        allocs: alloc::count() - a0,
    });

    let mut stmts = 0u64;
    let mut bodies = 0u64;
    for &c in &app.classes {
        for &m in program.class(c).methods() {
            if let Some(b) = program.method(m).body() {
                stmts += b.len() as u64;
                bodies += 1;
            }
        }
    }
    let tables = results.fact_tables.unwrap_or_default();
    let n = tr.spans.len();
    let mut stage_allocs = vec![0u64; STAGES.len()];
    for s in &tr.spans[n - STAGES.len() - 1..] {
        if let Some(i) = s.stage {
            stage_allocs[i] = s.allocs;
        }
    }
    let verdict = Verdict::of(&results, &program, report);
    let counters = Counters {
        stmts,
        bodies,
        callbacks: model
            .components
            .iter()
            .map(|c| c.callbacks.len() as u64)
            .sum(),
        cg_edges: cg.edge_count() as u64,
        reachable: cg.reachable_methods().len() as u64,
        fw_props: results.forward_propagations,
        bw_props: results.backward_propagations,
        distinct_facts: results.distinct_facts as u64,
        table_rows: tables.rows,
        dense_rows: tables.dense_rows,
        widened: tables.widened_facts,
        report_bytes: verdict.report.len() as u64,
        unattributed: verdict.lines.iter().filter(|l| l.0 == 0).count() as u64,
        stage_allocs,
    };
    Ok((verdict, counters))
}

/// UI password fields declared in the app's layouts are sources (paper
/// §3); mirrors what `Infoflow::analyze_app` adds before solving.
fn app_sources(base: &SourceSinkManager, app: &App) -> Option<SourceSinkManager> {
    let ids: Vec<i64> = app
        .layouts
        .values()
        .flat_map(|l| &l.widgets)
        .filter(|w| w.is_password)
        .filter_map(|w| {
            w.id_name
                .as_deref()
                .and_then(|n| app.resources.widget_id(n))
        })
        .collect();
    if ids.is_empty() {
        return None;
    }
    let mut s = base.clone();
    for id in ids {
        s.add_password_id(id);
    }
    Some(s)
}

//! Determinism sweeps: the parallel corpus driver must produce reports
//! identical to a single-threaded run at every thread count, the lazy
//! frontend must match eager loading, and the generic IFDS solver must
//! reach the same fixed point on every run — neither parallelism nor
//! hash iteration order may change *what* is computed.

use flowdroid_android::{generate_dummy_main, install_platform, CallbackAssociation, EntryPointModel};
use flowdroid_bench::driver::{corpus_report, droidbench_corpus, run_corpus};
use flowdroid_callgraph::{CallGraph, CgAlgorithm, Icfg};
use flowdroid_core::InfoflowConfig;
use flowdroid_droidbench::all_apps;
use flowdroid_ifds::{IfdsProblem, IfdsResults, Solver};
use flowdroid_ir::{Local, MethodId, Place, Program, Stmt, StmtRef};

/// The parallel corpus driver's leak report is byte-for-byte identical
/// to the single-threaded run at every thread count, and stable across
/// repeat runs.
#[test]
fn corpus_driver_report_identical_across_thread_counts() {
    let jobs = droidbench_corpus();
    let config = InfoflowConfig::default();
    let baseline = corpus_report(&run_corpus(&jobs, &config, 1));
    assert!(baseline.contains("leak(s)"));
    for threads in [2usize, 4, 8] {
        let report = corpus_report(&run_corpus(&jobs, &config, threads));
        assert_eq!(report, baseline, "corpus report diverged at {threads} threads");
    }
    // Repeat run: same bytes again.
    let again = corpus_report(&run_corpus(&jobs, &config, 4));
    assert_eq!(again, baseline, "corpus report not stable across repeat runs");
}

/// The demand-driven frontend (platform snapshot clone + lazy method
/// bodies, see `InfoflowConfig::lazy_frontend`) produces byte-for-byte
/// the same leak report as eager loading on the whole corpus — laziness
/// must only move *when* bodies are decoded, never what is analyzed. The
/// lazy sweep must also leave at least one body undecoded overall, or
/// it is not exercising the demand path at all.
#[test]
fn lazy_frontend_report_identical_to_eager() {
    use flowdroid_bench::full_corpus;
    let jobs = full_corpus();
    let eager = InfoflowConfig::default();
    let lazy = eager.clone().with_lazy_frontend(true);
    let eager_run = run_corpus(&jobs, &eager, 1);
    let lazy_run = run_corpus(&jobs, &lazy, 1);
    assert_eq!(
        corpus_report(&lazy_run),
        corpus_report(&eager_run),
        "lazy report diverged from eager"
    );
    let (materialized_eager, _) = eager_run.total_bodies();
    assert_eq!(materialized_eager, 0, "eager runs must not touch the demand path");
    let (materialized, skipped) = lazy_run.total_bodies();
    assert!(materialized > 0, "lazy sweep decoded no bodies on demand");
    assert!(skipped > 0, "lazy sweep left no body undecoded — nothing was lazy");
}

/// Fact for [`DefinedLocals`]: `None` is zero, `Some(l)` means local
/// `l` may have been written on some path.
type Fact = Option<Local>;

/// A simple but genuinely interprocedural IFDS problem that runs on
/// any ICFG: which locals may have been assigned. Definitions flow
/// into callees through arguments and back out through return values,
/// so the solver's summary/incoming machinery is exercised on the real
/// DroidBench supergraphs (dummy main, lifecycle methods, callbacks).
struct DefinedLocals<'a> {
    icfg: Icfg<'a>,
    entry: MethodId,
}

impl DefinedLocals<'_> {
    fn stmt(&self, n: StmtRef) -> &Stmt {
        self.icfg.stmt(n)
    }
}

impl IfdsProblem for DefinedLocals<'_> {
    type Fact = Fact;

    fn zero(&self) -> Fact {
        None
    }

    fn initial_seeds(&self) -> Vec<(StmtRef, Fact)> {
        vec![(StmtRef::new(self.entry, 0), None)]
    }

    fn normal_flow(&self, n: StmtRef, _succ: StmtRef, d: &Fact) -> Vec<Fact> {
        let mut out = vec![*d];
        if d.is_none() {
            if let Stmt::Assign { lhs: Place::Local(lhs), .. } = self.stmt(n) {
                out.push(Some(*lhs));
            }
        }
        out
    }

    fn call_flow(&self, call: StmtRef, callee: MethodId, d: &Fact) -> Vec<Fact> {
        let Some(t) = d else { return vec![None] };
        let Some(expr) = self.stmt(call).invoke_expr() else { return vec![] };
        let m = self.icfg.program().method(callee);
        let mut out = Vec::new();
        for (i, arg) in expr.args.iter().enumerate() {
            if arg.as_local() == Some(*t) {
                out.push(Some(m.param_local(i)));
            }
        }
        out
    }

    fn return_flow(
        &self,
        call: StmtRef,
        _callee: MethodId,
        exit: StmtRef,
        _return_site: StmtRef,
        d: &Fact,
    ) -> Vec<Fact> {
        let Some(t) = d else { return vec![None] };
        if let Stmt::Return { value: Some(v) } = self.stmt(exit) {
            if v.as_local() == Some(*t) {
                if let Stmt::Invoke { result: Some(res), .. } = self.stmt(call) {
                    return vec![Some(*res)];
                }
            }
        }
        vec![]
    }

    fn call_to_return_flow(&self, call: StmtRef, _return_site: StmtRef, d: &Fact) -> Vec<Fact> {
        let mut out = vec![*d];
        if d.is_none() {
            if let Stmt::Invoke { result: Some(res), .. } = self.stmt(call) {
                out.push(Some(*res));
            }
        }
        out
    }
}

/// Reached statements with their facts in a canonical order, plus the
/// propagation count: the whole observable fixed point of a run.
fn fixed_point(results: &IfdsResults<Fact>) -> (Vec<(StmtRef, Vec<Fact>)>, u64) {
    let mut stmts: Vec<StmtRef> = results.reached_stmts().copied().collect();
    stmts.sort();
    let facts = stmts
        .into_iter()
        .map(|n| {
            let mut f = results.facts_at(n).to_vec();
            f.sort();
            (n, f)
        })
        .collect();
    (facts, results.propagation_count())
}

/// The generic IFDS solver (hash-set tables over non-id facts) reaches
/// the same fixed point — same statements, same fact sets, same
/// propagation count — on repeat runs over every DroidBench app.
#[test]
fn ifds_solver_fixed_point_is_stable_on_droidbench() {
    for app in all_apps() {
        let mut p = Program::new();
        let platform = install_platform(&mut p);
        let loaded = app.load(&mut p).expect("suite app parses");
        let model =
            EntryPointModel::build(&mut p, &platform, &loaded, CallbackAssociation::PerComponent);
        let dummy = generate_dummy_main(&mut p, &platform, &model, "det");
        let cg = CallGraph::build(&p, &[dummy], CgAlgorithm::Cha);
        let icfg = Icfg::new(&p, &cg);
        let problem = DefinedLocals { icfg, entry: dummy };
        let first = fixed_point(&Solver::new(&icfg, &problem).solve());
        assert!(first.1 > 0, "{}: the solver propagated nothing", app.name);
        let again = fixed_point(&Solver::new(&icfg, &problem).solve());
        assert_eq!(first, again, "{}: fixed point changed between runs", app.name);
    }
}

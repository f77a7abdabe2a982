//! The bidirectional taint solver (paper §4, Algorithms 1 and 2).
//!
//! Two [`Tabulator`]s — one forward (taint propagation), one backward
//! (on-demand alias search) — are driven in lockstep over the same fact
//! domain. The forward solver injects edges into the backward solver at
//! heap writes (carrying its `d1` context: **context injection**); the
//! backward solver spawns forward propagation for every alias it finds
//! and, on reaching a method's start, hands the search back to the
//! forward solver, never returning to callers itself.
//!
//! Fact conventions: a forward edge `(d1, n, d2)` means `d2` holds
//! *before* `n`; a backward edge `(d1, n, d)` means `d` holds *after*
//! `n` and the solver is searching upward for its aliases.
//!
//! The transfer functions live in [`Flows`]; this driver owns only the
//! tabulation state. Every cross-solver handshake (summaries ×
//! incoming contexts, forward × backward caller facts) is written so
//! each side first records its own half and then reads the other's —
//! the "covered pair" discipline that makes the computed fixpoint
//! independent of processing order.
//!
//! Provenance (for leak-path reconstruction) is also canonical: every
//! propagation offers its origin and *all* distinct origins are kept,
//! so the provenance graph — over which attribution runs a
//! deterministic breadth-first search — does not depend on discovery
//! order.
//!
//! The solver is generic over a [`FactDomain`], whose one
//! implementation is [`InternedDomain`](crate::intern::InternedDomain):
//! every table keys on `u32` fact ids (hash-consed by the domain's
//! interner) stored in bitset rows, popped edges are resolved to real
//! [`Fact`]s once per statement visit, and each produced fact is
//! interned once before fan-out to successors / return sites.

use crate::config::InfoflowConfig;
use crate::flows::{Flows, ReachCache};
use crate::intern::FactDomain;
use crate::results::{InfoflowResults, Leak};
use crate::sourcesink::SourceSinkManager;
use crate::summary_cache::SummaryCacheSession;
use crate::taint::{Fact, Taint};
use crate::wrappers::TaintWrapper;
use flowdroid_callgraph::Icfg;
use flowdroid_ifds::{AbortReason, Tabulator};
use flowdroid_ir::{FxHashMap, MethodId, Program, Stmt, StmtRef};

/// Edges popped between [`AbortHandle`] polls in the sequential loop.
const ABORT_CHECK_EVERY: usize = 128;

/// The bidirectional solver, generic over the fact-key representation
/// (see [`FactDomain`]).
pub struct BiSolver<'a, D: FactDomain> {
    flows: Flows<'a>,
    dom: D,
    fw: Tabulator<D::Key, D::Sets>,
    bw: Tabulator<D::Key, D::Sets>,
    leaks: Vec<(StmtRef, Taint)>,
    /// (stmt, fact) → all offered predecessor (stmt, fact) origins, for
    /// path reconstruction. The *set* of offers at the fixpoint is
    /// order-independent.
    preds: FxHashMap<(StmtRef, D::Key), Vec<(StmtRef, D::Key)>>,
    /// (stmt, fact) → source statement that generated the fact.
    gen_source: FxHashMap<(StmtRef, D::Key), StmtRef>,
    /// Memoized "call site can transitively reach method" queries.
    reach_cache: ReachCache,
    /// Persistent end-summary store session, when configured.
    cache: Option<SummaryCacheSession>,
    /// Why the run aborted; `None` means the fixpoint was reached.
    abort_reason: Option<AbortReason>,
}

impl<'a, D: FactDomain> BiSolver<'a, D> {
    /// Creates a solver.
    pub fn new(
        icfg: Icfg<'a>,
        sources: &'a SourceSinkManager,
        wrapper: &'a TaintWrapper,
        config: &'a InfoflowConfig,
    ) -> Self {
        let cache = config
            .summary_cache
            .as_deref()
            .map(|dir| SummaryCacheSession::new(dir, &icfg, sources, wrapper, config));
        BiSolver {
            flows: Flows { icfg, sources, wrapper, config },
            dom: D::new(config.max_access_path_length),
            fw: Tabulator::new(),
            bw: Tabulator::new(),
            leaks: Vec::new(),
            preds: FxHashMap::default(),
            gen_source: FxHashMap::default(),
            reach_cache: ReachCache::default(),
            cache,
            abort_reason: None,
        }
    }

    fn program(&self) -> &'a Program {
        self.flows.program()
    }

    fn config(&self) -> &'a InfoflowConfig {
        self.flows.config
    }

    /// Runs the analysis from the given entry methods and collects
    /// results.
    pub fn solve(mut self, entry_points: &[MethodId]) -> InfoflowResults {
        let start = std::time::Instant::now();
        let zero = self.dom.zero();
        for &ep in entry_points {
            for sp in self.flows.icfg.start_points_of(ep) {
                self.fw.propagate(zero.clone(), sp, zero.clone());
            }
        }
        // The abort token: the caller's (deadline / external cancel)
        // when configured, else a private one that only the budget can
        // trip. Either way the tripping reason is latched on the handle
        // so supervisors polling a shared handle see it too.
        let abort = self.config().abort.clone().unwrap_or_default();
        let mut since_abort_check = 0usize;
        loop {
            if self.config().max_propagations > 0
                && self.fw.propagation_count() > self.config().max_propagations
            {
                abort.trip(AbortReason::Budget);
                self.abort_reason = Some(AbortReason::Budget);
                break;
            }
            since_abort_check += 1;
            if since_abort_check >= ABORT_CHECK_EVERY {
                since_abort_check = 0;
                // Streaming piggybacks on the abort poll interval: the
                // sink only observes, so emitting cannot perturb the
                // fixpoint (streamed and plain runs stay identical).
                self.emit_progress(None);
                if let Some(reason) = abort.poll() {
                    self.abort_reason = Some(reason);
                    break;
                }
            }
            if let Some(edge) = self.fw.pop() {
                self.process_forward(edge.d1, edge.n, edge.d2);
                continue;
            }
            if let Some(edge) = self.bw.pop() {
                self.process_backward(edge.d1, edge.n, edge.d2);
                continue;
            }
            break;
        }
        self.collect_results(start.elapsed())
    }

    // ================= shared helpers =================

    fn stmt(&self, n: StmtRef) -> &'a Stmt {
        self.flows.stmt(n)
    }

    /// Delivers a progress snapshot to the configured sink, if any.
    fn emit_progress(&self, new_leak: Option<(u32, String)>) {
        let Some(sink) = &self.config().progress else { return };
        sink.emit(&crate::config::ProgressEvent {
            forward_propagations: self.fw.propagation_count(),
            backward_propagations: self.bw.propagation_count(),
            bodies_materialized: self.program().bodies_materialized(),
            summary_hits: self.cache.as_ref().map_or(0, |c| c.hits_so_far()),
            leaks: self.leaks.len() as u64,
            new_leak,
        });
    }

    /// Records a forward path edge with provenance for path
    /// reconstruction.
    fn fw_propagate(
        &mut self,
        d1: D::Key,
        n: StmtRef,
        d2: D::Key,
        from: Option<(StmtRef, D::Key)>,
    ) {
        self.fw.propagate(d1, n, d2.clone());
        self.record_pred(n, d2, from);
    }

    /// Records a backward path edge with provenance (provenance links
    /// from both solvers share one map so alias detours stay walkable).
    fn bw_propagate(
        &mut self,
        d1: D::Key,
        n: StmtRef,
        d2: D::Key,
        from: Option<(StmtRef, D::Key)>,
    ) {
        self.bw.propagate(d1, n, d2.clone());
        self.record_pred(n, d2, from);
    }

    /// Offers a provenance link for `(n, d2)`. Every propagation offers
    /// its origin (not just the edge-inserting one), and *all* distinct
    /// origins are kept: the set of propagation calls at the fixpoint is
    /// the same whatever the processing order, so the resulting
    /// provenance graph — and hence the deterministic walk in
    /// [`BiSolver::attribute`] — is independent of it.
    fn record_pred(&mut self, n: StmtRef, d2: D::Key, from: Option<(StmtRef, D::Key)>) {
        if !self.config().track_paths {
            return;
        }
        let Some(origin) = from else { return };
        if origin == (n, d2.clone()) {
            return;
        }
        let v = self.preds.entry((n, d2)).or_default();
        if !v.contains(&origin) {
            v.push(origin);
        }
    }

    /// Marks `fact` at `n` as generated by the source statement `src`
    /// (least source statement wins, for order independence).
    fn mark_source(&mut self, n: StmtRef, fact: &D::Key, src: StmtRef) {
        if self.config().track_paths {
            let e = self.gen_source.entry((n, fact.clone())).or_insert(src);
            if src < *e {
                *e = src;
            }
        }
    }

    fn maybe_activate(&mut self, n: StmtRef, t: &Taint) -> Taint {
        self.flows.maybe_activate(&mut self.reach_cache, n, t)
    }

    /// Injects an alias query for taint `g` (which holds after the heap
    /// write / wrapper call `n`) into the backward solver, with context
    /// injection of `d1` (Algorithm 1, line 16).
    fn inject_alias_query(&mut self, d1: &D::Key, n: StmtRef, g: &Taint) {
        let Some(q) = self.flows.alias_query_taint(n, g) else { return };
        let ctx =
            if self.config().enable_context_injection { d1.clone() } else { self.dom.zero() };
        let origin = self.dom.intern(&Fact::T(*g));
        let qk = self.dom.intern(&Fact::T(q));
        self.bw_propagate(ctx, n, qk, Some((n, origin)));
    }

    // ================= forward solver =================

    fn process_forward(&mut self, d1: D::Key, n: StmtRef, d2: D::Key) {
        let d2f = self.dom.resolve(&d2);
        let stmt = self.stmt(n);
        let has_body_callees = !self.flows.icfg.callees_of_call(n).is_empty();
        if stmt.is_call() && has_body_callees {
            self.forward_call(n, &d2, &d2f);
            self.forward_call_to_return(&d1, n, &d2, &d2f);
        } else if stmt.is_call() {
            self.forward_call_to_return(&d1, n, &d2, &d2f);
        } else if stmt.is_exit() {
            self.forward_exit(&d1, n, &d2);
        } else {
            self.forward_normal(&d1, n, &d2, &d2f);
        }
    }

    fn forward_normal(&mut self, d1: &D::Key, n: StmtRef, d2: &D::Key, d2f: &Fact) {
        let out = match (self.stmt(n), d2f) {
            (Stmt::Assign { lhs, rhs }, Fact::T(t)) => {
                let (facts, alias_gens) = self.flows.forward_assign(lhs, rhs, t);
                for g in alias_gens {
                    self.inject_alias_query(d1, n, &g);
                }
                facts
            }
            _ => vec![*d2f],
        };
        // Activation and interning depend only on `n`, so intern each
        // output fact once and fan the keys out to all successors.
        let mut keys = Vec::with_capacity(out.len());
        for f in &out {
            let f = match f {
                Fact::T(t) => Fact::T(self.maybe_activate(n, t)),
                z => *z,
            };
            keys.push(self.dom.intern(&f));
        }
        let origin = Some((n, d2.clone()));
        for succ in self.flows.icfg.succs_of(n) {
            for k in &keys {
                self.fw_propagate(d1.clone(), succ, k.clone(), origin.clone());
            }
        }
    }

    fn forward_call(&mut self, n: StmtRef, d2: &D::Key, d2f: &Fact) {
        let Stmt::Invoke { call, .. } = self.stmt(n) else { return };
        let call = call.clone();
        for &callee in self.flows.icfg.callees_of_call(n) {
            let starts = self.flows.icfg.start_points_of(callee);
            let entry_facts = self.flows.call_flow(&call, callee, d2f);
            for (d3f, src_mark) in entry_facts {
                let d3 = self.dom.intern(&d3f);
                self.fw.add_incoming(callee, d3.clone(), n, d2.clone());
                let cached = self
                    .cache
                    .as_ref()
                    .and_then(|c| c.lookup(callee, &d3f))
                    .map(<[(StmtRef, Fact)]>::to_vec);
                if let Some(cached) = cached {
                    // Persisted summaries replace tabulating the callee
                    // body: install the exits and link them to this call
                    // site for provenance (the interior chain is never
                    // built on a warm hit).
                    for (exit, exit_f) in cached {
                        let ek = self.dom.intern(&exit_f);
                        self.fw.install_summary(callee, d3.clone(), exit, ek.clone());
                        self.record_pred(exit, ek, Some((n, d2.clone())));
                    }
                } else {
                    for &sp in &starts {
                        self.fw_propagate(d3.clone(), sp, d3.clone(), Some((n, d2.clone())));
                        if let Some(src) = src_mark {
                            self.mark_source(sp, &d3, src);
                        }
                    }
                }
                // Apply existing summaries (recorded *after* the
                // incoming context above: a concurrent exit either sees
                // the context or its summary is visible here).
                for (exit, d4) in self.fw.summaries_for(callee, &d3) {
                    self.apply_return_for_context(n, callee, exit, &d4, d2);
                }
            }
        }
    }

    fn forward_exit(&mut self, d1: &D::Key, n: StmtRef, d2: &D::Key) {
        let callee = self.flows.icfg.method_of(n);
        self.fw.install_summary(callee, d1.clone(), n, d2.clone());
        for (call_site, d4) in self.fw.incoming_for(callee, d1) {
            self.apply_return_for_context(call_site, callee, n, d2, &d4);
        }
    }

    fn apply_return_for_context(
        &mut self,
        call_site: StmtRef,
        callee: MethodId,
        exit: StmtRef,
        exit_key: &D::Key,
        d4: &D::Key,
    ) {
        let exit_fact = self.dom.resolve(exit_key);
        let mapped = self.flows.return_flow(call_site, callee, exit, &exit_fact);
        if mapped.is_empty() {
            return;
        }
        // Caller contexts: the union of both solvers' path edges at the
        // call site — for contexts injected by the backward solver the
        // caller fact may only be known to the backward tabulator, and
        // the same fact may surface in both; taking the union (rather
        // than a time-sensitive fallback) keeps the result independent
        // of processing order.
        let mut d3s = self.fw.d1s_at(call_site, d4);
        for d in self.bw.d1s_at(call_site, d4) {
            if !d3s.contains(&d) {
                d3s.push(d);
            }
        }
        // Activation depends only on the call site; intern once per
        // mapped taint, not per (return site × context).
        let mut acts = Vec::with_capacity(mapped.len());
        for t in &mapped {
            let t = self.maybe_activate(call_site, t);
            let k = self.dom.intern(&Fact::T(t));
            acts.push((t, k));
        }
        for ret_site in self.flows.icfg.return_sites_of_call(call_site) {
            for (t, fk) in &acts {
                for d3 in &d3s {
                    self.fw_propagate(
                        d3.clone(),
                        ret_site,
                        fk.clone(),
                        Some((exit, exit_key.clone())),
                    );
                    // Heap taints returning to the caller spawn a new
                    // alias search there (paper §4.2).
                    if !t.ap.is_empty() && t.ap.base_local().is_some() {
                        self.inject_alias_query(d3, call_site, t);
                    }
                }
            }
        }
    }

    fn forward_call_to_return(&mut self, d1: &D::Key, n: StmtRef, d2: &D::Key, d2f: &Fact) {
        let ctr = self.flows.call_to_return(n, d2f);
        for t in &ctr.leaks {
            self.leaks.push((n, *t));
            if self.config().progress.is_some() {
                let line = crate::results::line_of(self.program(), n);
                let desc = t.ap.display(self.program(), n.method);
                self.emit_progress(Some((line, desc)));
            }
        }
        for g in ctr.alias_gens {
            self.inject_alias_query(d1, n, &g);
        }
        // Intern each output fact once; fan keys out to return sites.
        let mut keys = Vec::with_capacity(ctr.out.len());
        for f in &ctr.out {
            let f = match f {
                Fact::T(t) => Fact::T(self.maybe_activate(n, t)),
                z => *z,
            };
            let non_zero = !f.is_zero();
            keys.push((self.dom.intern(&f), non_zero));
        }
        let origin = Some((n, d2.clone()));
        for ret_site in self.flows.icfg.return_sites_of_call(n) {
            for (k, non_zero) in &keys {
                if ctr.src_mark && *non_zero {
                    self.mark_source(ret_site, k, n);
                }
                self.fw_propagate(d1.clone(), ret_site, k.clone(), origin.clone());
            }
        }
    }

    // ================= backward (alias) solver =================

    fn process_backward(&mut self, d1: D::Key, n: StmtRef, d2: D::Key) {
        let d2f = self.dom.resolve(&d2);
        match self.stmt(n) {
            Stmt::Invoke { .. } => {
                self.backward_call(&d1, n, &d2, &d2f);
            }
            Stmt::Assign { lhs, rhs } => {
                let (lhs, rhs) = (lhs.clone(), rhs.clone());
                self.backward_assign(&d1, n, &d2, &d2f, &lhs, &rhs);
            }
            _ => {
                // Control flow and exits are transparent to aliasing.
                self.bw_to_preds(&d1, n, &d2);
            }
        }
    }

    /// Routes a backward fact above `n`: to `n`'s predecessors, or —
    /// when `n` has none (it is the method's first statement) — through
    /// the method-start case of Algorithm 2 (lines 11–14): install a
    /// summary, hand the fact to the forward solver (with the backward
    /// solver's calling contexts, so returns stay realizable), and
    /// stop; the backward analysis never returns into callers itself.
    fn bw_to_preds(&mut self, d1: &D::Key, n: StmtRef, d: &D::Key) {
        self.bw_to_preds_from(d1, n, d, Some((n, d.clone())));
    }

    fn bw_to_preds_from(
        &mut self,
        d1: &D::Key,
        n: StmtRef,
        d: &D::Key,
        origin: Option<(StmtRef, D::Key)>,
    ) {
        let preds = self.flows.icfg.preds_of(n);
        if preds.is_empty() {
            let m = self.flows.icfg.method_of(n);
            let sp = StmtRef::new(m, 0);
            self.bw.install_summary(m, d1.clone(), sp, d.clone());
            self.fw_propagate(d1.clone(), sp, d.clone(), origin);
            let contexts = self.bw.incoming_for(m, d1);
            if !contexts.is_empty() {
                self.fw.inject_incoming(m, d1.clone(), contexts.clone());
                // The forward solver may already hold summaries for
                // (m, d1) from an earlier handoff or a real forward
                // call; apply them to every context known now. Contexts
                // recorded later are covered by the call side
                // ([`Self::backward_call`] re-injects after its
                // `add_incoming`).
                for (exit, d2x) in self.fw.summaries_for(m, d1) {
                    for (site, d4) in &contexts {
                        self.apply_return_for_context(*site, m, exit, &d2x, d4);
                    }
                }
            }
            return;
        }
        for pred in preds {
            self.bw_propagate(d1.clone(), pred, d.clone(), origin.clone());
        }
    }

    fn backward_assign(
        &mut self,
        d1: &D::Key,
        n: StmtRef,
        d2: &D::Key,
        d2f: &Fact,
        lhs: &flowdroid_ir::Place,
        rhs: &flowdroid_ir::Rvalue,
    ) {
        let Fact::T(t) = d2f else { return };
        let flows = self.flows.backward_assign(t, lhs, rhs);
        let origin = Some((n, d2.clone()));
        for g in flows.back {
            let k = self.dom.intern(&Fact::T(g));
            self.bw_to_preds_from(d1, n, &k, origin.clone());
        }
        for g in flows.fwd_at_n {
            let k = self.dom.intern(&Fact::T(g));
            self.fw_propagate(d1.clone(), n, k, origin.clone());
        }
        for g in flows.fwd_after {
            let k = self.dom.intern(&Fact::T(g));
            for succ in self.flows.icfg.succs_of(n) {
                self.fw_propagate(d1.clone(), succ, k.clone(), origin.clone());
            }
        }
    }

    fn backward_call(&mut self, d1: &D::Key, n: StmtRef, d2: &D::Key, d2f: &Fact) {
        let Stmt::Invoke { result, call } = self.stmt(n) else { return };
        let (result, call) = (*result, call.clone());
        let Fact::T(t) = d2f else { return };
        // Pass over the call unless the traced value is its result.
        let rooted_at_result = result.is_some() && t.ap.base_local() == result;
        if !rooted_at_result {
            self.bw_to_preds(d1, n, d2);
        }
        // Descend into body-having callees (aliases may be created
        // inside).
        let callees: Vec<MethodId> = self.flows.icfg.callees_of_call(n).to_vec();
        for callee in callees {
            for (g, exits) in self.flows.backward_call_entries(t, result, &call, callee) {
                let gk = self.dom.intern(&Fact::T(g));
                self.bw.add_incoming(callee, gk.clone(), n, d2.clone());
                for exit in exits {
                    self.bw_propagate(gk.clone(), exit, gk.clone(), Some((n, d2.clone())));
                }
                // If the backward search already reached this callee's
                // start with entry fact `g` (a backward start-summary
                // exists), the forward handoff for `g` has run and did
                // not see this context: inject it now and apply any
                // forward summaries so returns reach this caller too.
                // Together with the handoff side (which injects all
                // contexts known at handoff time) every (context,
                // summary) pair is applied regardless of order.
                if !self.bw.summaries_for(callee, &gk).is_empty() {
                    self.fw.inject_incoming(callee, gk.clone(), vec![(n, d2.clone())]);
                    for (exit, d2x) in self.fw.summaries_for(callee, &gk) {
                        self.apply_return_for_context(n, callee, exit, &d2x, d2);
                    }
                }
            }
        }
    }

    // ================= results =================

    fn collect_results(mut self, duration: std::time::Duration) -> InfoflowResults {
        let program = self.program();
        let summary_cache = self.cache.as_ref().map(|c| {
            // Only a completed fixpoint is persisted — partial
            // summaries from an aborted run would be unsound to replay.
            if self.abort_reason.is_none() {
                let resolved = self
                    .fw
                    .all_summaries()
                    .into_iter()
                    .map(|(m, d1, exits)| {
                        (
                            m,
                            self.dom.resolve(&d1),
                            exits.iter().map(|(e, k)| (*e, self.dom.resolve(k))).collect(),
                        )
                    })
                    .collect();
                c.record_all(program, resolved);
            }
            c.stats()
        });
        // Canonical order before (sink, source) dedup: recorded leaks
        // are sorted by (sink, taint value) so which representative
        // survives never depends on discovery order.
        let mut recorded = std::mem::take(&mut self.leaks);
        recorded.sort();
        recorded.dedup();
        let mut seen = std::collections::HashSet::new();
        let mut leaks = Vec::new();
        for (sink, taint) in &recorded {
            let (source, path) = self.attribute(*sink, taint);
            let key = (*sink, source);
            if !seen.insert(key) {
                continue;
            }
            leaks.push(Leak {
                sink: *sink,
                source,
                taint: taint.ap.display(program, sink.method),
                path,
            });
        }
        leaks.sort_by_key(|l| (l.sink, l.source));
        let (distinct_facts, distinct_aps) = self.dom.stats();
        let fact_tables = {
            let mut t = self.fw.table_stats();
            t.merge(&self.bw.table_stats());
            t.widened_facts = self.dom.widened_count();
            (t.any() || t.widened_facts > 0).then_some(t)
        };
        InfoflowResults {
            leaks,
            forward_propagations: self.fw.propagation_count(),
            backward_propagations: self.bw.propagation_count(),
            reachable_methods: self.flows.icfg.callgraph().reachable_methods().len(),
            distinct_facts,
            distinct_aps,
            duration,
            aborted: self.abort_reason.is_some(),
            abort_reason: self.abort_reason,
            fact_tables,
            summary_cache,
        }
    }

    /// Walks the provenance graph back from a leak to the source that
    /// generated the taint.
    ///
    /// Breadth-first search with the origin sets expanded in (statement,
    /// fact *value*) order: the provenance graph is order-independent
    /// (see [`BiSolver::record_pred`]), so the first generating source
    /// this walk reaches — and the parent chain behind it — is the same
    /// whatever order the solver discovered the edges in. Cycles in the
    /// graph are harmless: the visited set skips them and the search
    /// continues through the remaining origins.
    fn attribute(&mut self, sink: StmtRef, taint: &Taint) -> (Option<StmtRef>, Vec<StmtRef>) {
        if !self.config().track_paths {
            return (None, Vec::new());
        }
        let sink_key = self.dom.intern(&Fact::T(*taint));
        let start = (sink, sink_key);
        let mut visited = std::collections::HashSet::new();
        visited.insert(start.clone());
        let mut parent: FxHashMap<(StmtRef, D::Key), (StmtRef, D::Key)> = FxHashMap::default();
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(cur) = queue.pop_front() {
            if let Some(&src) = self.gen_source.get(&cur) {
                // Parents lead from the generation point back to the
                // sink, so the collected path is already source-first.
                let mut path = vec![cur.0];
                let mut walk = cur;
                while let Some(p) = parent.get(&walk) {
                    path.push(p.0);
                    walk = p.clone();
                }
                return (Some(src), path);
            }
            let mut origins = self.preds.get(&cur).cloned().unwrap_or_default();
            origins.sort_by_cached_key(|(s, k)| (*s, self.dom.resolve(k)));
            for o in origins {
                if visited.insert(o.clone()) {
                    parent.insert(o.clone(), cur.clone());
                    queue.push_back(o);
                }
            }
        }
        (None, vec![sink])
    }
}

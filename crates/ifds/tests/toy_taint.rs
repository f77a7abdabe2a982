//! Integration tests: a minimal local-variable taint problem exercising
//! the IFDS solver's summaries, context sensitivity and fixpoints.

use flowdroid_callgraph::{CallGraph, CgAlgorithm, Icfg};
use flowdroid_ifds::{IfdsProblem, Solver};
use flowdroid_ir::{
    Local, MethodBuilder, MethodId, Operand, Place, Program, Rvalue, Stmt, StmtRef, Type,
};

/// Fact: `None` is the zero fact, `Some(l)` means local `l` is tainted.
type Fact = Option<Local>;

struct ToyTaint<'a> {
    icfg: Icfg<'a>,
    entry: MethodId,
}

impl ToyTaint<'_> {
    fn stmt(&self, n: StmtRef) -> &Stmt {
        self.icfg.stmt(n)
    }

    fn is_source_call(&self, n: StmtRef) -> bool {
        let Some(call) = self.stmt(n).invoke_expr() else { return false };
        let p = self.icfg.program();
        p.str(call.callee.subsig.name) == "source"
    }
}

impl IfdsProblem for ToyTaint<'_> {
    type Fact = Fact;

    fn zero(&self) -> Fact {
        None
    }

    fn initial_seeds(&self) -> Vec<(StmtRef, Fact)> {
        vec![(StmtRef::new(self.entry, 0), None)]
    }

    fn normal_flow(&self, n: StmtRef, _succ: StmtRef, d: &Fact) -> Vec<Fact> {
        match self.stmt(n) {
            Stmt::Assign { lhs: Place::Local(lhs), rhs } => {
                let mut out = Vec::new();
                if d != &Some(*lhs) {
                    out.push(*d); // survives unless overwritten
                }
                if let (Some(t), Rvalue::Read(Place::Local(r))) = (d, rhs) {
                    if t == r {
                        out.push(Some(*lhs));
                    }
                }
                out
            }
            _ => vec![*d],
        }
    }

    fn call_flow(&self, call: StmtRef, callee: MethodId, d: &Fact) -> Vec<Fact> {
        let Some(t) = d else { return vec![None] };
        let expr = self.stmt(call).invoke_expr().expect("call stmt");
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
        let mut out = Vec::new();
        if let Stmt::Return { value: Some(Operand::Local(r)) } = self.stmt(exit) {
            if r == t {
                if let Stmt::Invoke { result: Some(res), .. } = self.stmt(call) {
                    out.push(Some(*res));
                }
            }
        }
        out
    }

    fn call_to_return_flow(&self, call: StmtRef, _return_site: StmtRef, d: &Fact) -> Vec<Fact> {
        let mut out = vec![*d];
        // Generate taint at source() calls from the zero fact.
        if d.is_none() && self.is_source_call(call) {
            if let Stmt::Invoke { result: Some(res), .. } = self.stmt(call) {
                out.push(Some(*res));
            }
        }
        // Kill the result local otherwise (it is overwritten by the call).
        if let (Some(t), Stmt::Invoke { result: Some(res), .. }) = (d, self.stmt(call)) {
            if t == res {
                out.retain(|f| f != &Some(*res));
            }
        }
        out
    }
}

/// Declares stub `Env.source()` and `Env.sink(String)` methods.
fn declare_env(p: &mut Program) {
    let env = p.declare_class("Env", None, &[]);
    let s = p.ref_type("java.lang.String");
    let src = p.declare_method(env, "source", vec![], s.clone(), true);
    p.set_native(src, true);
    let snk = p.declare_method(env, "sink", vec![s], Type::Void, true);
    p.set_native(snk, true);
}

fn string_ty(p: &mut Program) -> Type {
    p.ref_type("java.lang.String")
}

/// Finds all `sink(...)` call sites and the taint fact of their argument.
fn sink_arg_tainted(icfg: &Icfg<'_>, results: &flowdroid_ifds::IfdsResults<Fact>, m: MethodId) -> Vec<bool> {
    let p = icfg.program();
    let body = p.method(m).body().unwrap();
    let mut out = Vec::new();
    for (i, s) in body.stmts().iter().enumerate() {
        if let Some(call) = s.invoke_expr() {
            if p.str(call.callee.subsig.name) == "sink" {
                let arg = call.args[0].as_local().unwrap();
                out.push(results.holds_at(StmtRef::new(m, i), &Some(arg)));
            }
        }
    }
    out
}

#[test]
fn context_sensitivity_no_cross_context_leak() {
    // String id(String x) { return x; }
    // main: s = source(); a = id(s); b = id("c"); sink(a); sink(b);
    let mut p = Program::new();
    declare_env(&mut p);
    let c = p.declare_class("Main", None, &[]);
    let st = string_ty(&mut p);

    let mut ib = MethodBuilder::new_static_on(&mut p, c, "id", vec![st.clone()], st.clone());
    let x = ib.param(0);
    ib.ret(Some(x.into()));
    ib.finish();

    let mut mb = MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void);
    let s = mb.local("s", st.clone());
    let a = mb.local("a", st.clone());
    let b = mb.local("b", st.clone());
    mb.call_static(Some(s), "Env", "source", vec![], st.clone(), vec![]);
    mb.call_static(Some(a), "Main", "id", vec![st.clone()], st.clone(), vec![s.into()]);
    let cst = mb.program().intern("c");
    mb.call_static(
        Some(b),
        "Main",
        "id",
        vec![st.clone()],
        st.clone(),
        vec![Operand::Const(flowdroid_ir::Constant::Str(cst))],
    );
    mb.call_static(None, "Env", "sink", vec![st.clone()], Type::Void, vec![a.into()]);
    mb.call_static(None, "Env", "sink", vec![st.clone()], Type::Void, vec![b.into()]);
    let main = mb.finish();

    let cg = CallGraph::build(&p, &[main], CgAlgorithm::Cha);
    let icfg = Icfg::new(&p, &cg);
    let problem = ToyTaint { icfg, entry: main };
    let results = Solver::new(&icfg, &problem).solve();

    assert_eq!(sink_arg_tainted(&icfg, &results, main), vec![true, false]);
}

#[test]
fn taint_generated_inside_callee_returns_to_caller() {
    // String get() { t = source(); return t; }
    // main: x = get(); sink(x);
    let mut p = Program::new();
    declare_env(&mut p);
    let c = p.declare_class("Main", None, &[]);
    let st = string_ty(&mut p);

    let mut gb = MethodBuilder::new_static_on(&mut p, c, "get", vec![], st.clone());
    let t = gb.local("t", st.clone());
    gb.call_static(Some(t), "Env", "source", vec![], st.clone(), vec![]);
    gb.ret(Some(t.into()));
    gb.finish();

    let mut mb = MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void);
    let x = mb.local("x", st.clone());
    mb.call_static(Some(x), "Main", "get", vec![], st.clone(), vec![]);
    mb.call_static(None, "Env", "sink", vec![st.clone()], Type::Void, vec![x.into()]);
    let main = mb.finish();

    let cg = CallGraph::build(&p, &[main], CgAlgorithm::Cha);
    let icfg = Icfg::new(&p, &cg);
    let problem = ToyTaint { icfg, entry: main };
    let results = Solver::new(&icfg, &problem).solve();

    assert_eq!(sink_arg_tainted(&icfg, &results, main), vec![true]);
}

#[test]
fn recursion_reaches_fixed_point() {
    // String rec(String x) { if * return rec(x); return x; }
    // main: s = source(); y = rec(s); sink(y);
    let mut p = Program::new();
    declare_env(&mut p);
    let c = p.declare_class("Main", None, &[]);
    let st = string_ty(&mut p);

    let mut rb = MethodBuilder::new_static_on(&mut p, c, "rec", vec![st.clone()], st.clone());
    let x = rb.param(0);
    let r = rb.local("r", st.clone());
    let out = rb.fresh_label();
    rb.if_opaque(out);
    rb.call_static(Some(r), "Main", "rec", vec![st.clone()], st.clone(), vec![x.into()]);
    rb.ret(Some(r.into()));
    rb.bind(out);
    rb.ret(Some(x.into()));
    rb.finish();

    let mut mb = MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void);
    let s = mb.local("s", st.clone());
    let y = mb.local("y", st.clone());
    mb.call_static(Some(s), "Env", "source", vec![], st.clone(), vec![]);
    mb.call_static(Some(y), "Main", "rec", vec![st.clone()], st.clone(), vec![s.into()]);
    mb.call_static(None, "Env", "sink", vec![st.clone()], Type::Void, vec![y.into()]);
    let main = mb.finish();

    let cg = CallGraph::build(&p, &[main], CgAlgorithm::Cha);
    let icfg = Icfg::new(&p, &cg);
    let problem = ToyTaint { icfg, entry: main };
    let results = Solver::new(&icfg, &problem).solve();

    assert_eq!(sink_arg_tainted(&icfg, &results, main), vec![true]);
}

/// Two calls of one identity method keep their contexts apart: only
/// the call fed a tainted argument returns a tainted value.
#[test]
fn identity_calls_keep_contexts_apart() {
    let mut p = Program::new();
    declare_env(&mut p);
    let c = p.declare_class("Main", None, &[]);
    let st = string_ty(&mut p);

    let mut ib = MethodBuilder::new_static_on(&mut p, c, "id", vec![st.clone()], st.clone());
    let x = ib.param(0);
    ib.ret(Some(x.into()));
    ib.finish();

    let mut mb = MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void);
    let s = mb.local("s", st.clone());
    let a = mb.local("a", st.clone());
    let b = mb.local("b", st.clone());
    mb.call_static(Some(s), "Env", "source", vec![], st.clone(), vec![]);
    mb.call_static(Some(a), "Main", "id", vec![st.clone()], st.clone(), vec![s.into()]);
    let cst = mb.program().intern("c");
    mb.call_static(
        Some(b),
        "Main",
        "id",
        vec![st.clone()],
        st.clone(),
        vec![Operand::Const(flowdroid_ir::Constant::Str(cst))],
    );
    mb.call_static(None, "Env", "sink", vec![st.clone()], Type::Void, vec![a.into()]);
    mb.call_static(None, "Env", "sink", vec![st.clone()], Type::Void, vec![b.into()]);
    let main = mb.finish();

    let cg = CallGraph::build(&p, &[main], CgAlgorithm::Cha);
    let icfg = Icfg::new(&p, &cg);
    let problem = ToyTaint { icfg, entry: main };
    let results = Solver::new(&icfg, &problem).solve();
    assert_eq!(sink_arg_tainted(&icfg, &results, main), vec![true, false]);
}

#[test]
fn overwrite_kills_taint() {
    // main: s = source(); s = "clean"; sink(s);
    let mut p = Program::new();
    declare_env(&mut p);
    let c = p.declare_class("Main", None, &[]);
    let st = string_ty(&mut p);
    let mut mb = MethodBuilder::new_static_on(&mut p, c, "main", vec![], Type::Void);
    let s = mb.local("s", st.clone());
    mb.call_static(Some(s), "Env", "source", vec![], st.clone(), vec![]);
    let clean = mb.program().intern("clean");
    mb.assign_local(s, Rvalue::Const(flowdroid_ir::Constant::Str(clean)));
    mb.call_static(None, "Env", "sink", vec![st.clone()], Type::Void, vec![s.into()]);
    let main = mb.finish();

    let cg = CallGraph::build(&p, &[main], CgAlgorithm::Cha);
    let icfg = Icfg::new(&p, &cg);
    let problem = ToyTaint { icfg, entry: main };
    let results = Solver::new(&icfg, &problem).solve();

    assert_eq!(sink_arg_tainted(&icfg, &results, main), vec![false]);
}

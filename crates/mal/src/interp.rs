//! The MAL interpreter.
//!
//! Two execution modes, matching the paper:
//! * [`run_sequential`] — "The MAL program is interpreted in a linear
//!   fashion. The overhead of the interpreter is kept low, well below one
//!   µsec per instruction" (§3.2) — the micro benchmark checks ours is.
//! * [`run_dataflow`] — "The MAL plan is executed using concurrent
//!   interpreter threads following the dataflow dependencies" (§4.1).
//!   Blocking `pin` calls park only their worker; independent instruction
//!   threads keep running, which is exactly how query execution overlaps
//!   with ring data arrival.

use crate::ast::{Arg, Instr, Program};
use crate::context::SessionCtx;
use crate::error::{MalError, Result};
use crate::modules::Registry;
use crate::value::MVal;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// Final variable environment after a successful run; index by `VarId`.
pub type Env = Vec<Option<MVal>>;

fn resolve_args(instr: &Instr, env: &[Option<MVal>], prog: &Program) -> Result<Vec<MVal>> {
    instr
        .args
        .iter()
        .map(|a| match a {
            Arg::Var(v) => env[v.0 as usize]
                .clone()
                .ok_or_else(|| MalError::Undefined(prog.var_name(*v).to_string())),
            Arg::Const(c) => Ok(match c {
                crate::ast::Const::Int(v) => MVal::Int(*v),
                crate::ast::Const::Dbl(v) => MVal::Dbl(*v),
                crate::ast::Const::Str(s) => MVal::Str(s.clone()),
                crate::ast::Const::Oid(o) => MVal::Oid(*o),
                crate::ast::Const::Nil => MVal::Void,
            }),
        })
        .collect()
}

fn apply(instr: &Instr, outs: Vec<MVal>, env: &mut [Option<MVal>]) -> Result<()> {
    if outs.len() < instr.targets.len() {
        return Err(MalError::BadCall(format!(
            "{} returned {} values for {} targets",
            instr.qualified_name(),
            outs.len(),
            instr.targets.len()
        )));
    }
    for (t, v) in instr.targets.iter().zip(outs) {
        env[t.0 as usize] = Some(v);
    }
    Ok(())
}

/// Linear interpretation with the standard registry.
pub fn run_sequential(prog: &Program, ctx: &SessionCtx) -> Result<Env> {
    run_sequential_with(prog, ctx, &Registry::standard())
}

pub fn run_sequential_with(prog: &Program, ctx: &SessionCtx, registry: &Registry) -> Result<Env> {
    let mut env: Env = vec![None; prog.vars.len()];
    for instr in &prog.instrs {
        let f = registry
            .lookup(&instr.module, &instr.func)
            .ok_or_else(|| MalError::UnknownFunction(instr.qualified_name()))?;
        let args = resolve_args(instr, &env, prog)?;
        let outs = f(ctx, &args)?;
        apply(instr, outs, &mut env)?;
    }
    Ok(env)
}

/// Dependency edges between instructions, honoring both true (read-after-
/// write) and anti (write-after-read) dependencies. Bare calls — calls
/// without targets, like `sql.rsCol(X16, …)` or `datacyclotron.unpin(X6)`
/// — are treated as writers of their variable arguments, since they
/// mutate or release the value behind them.
fn dependencies(prog: &Program) -> Vec<Vec<usize>> {
    let nvars = prog.vars.len();
    let mut last_writer: Vec<Option<usize>> = vec![None; nvars];
    let mut readers_since: Vec<Vec<usize>> = vec![Vec::new(); nvars];
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); prog.instrs.len()];

    for (i, instr) in prog.instrs.iter().enumerate() {
        let mut dep = Vec::new();
        for v in instr.uses() {
            if let Some(w) = last_writer[v.0 as usize] {
                dep.push(w);
            }
            readers_since[v.0 as usize].push(i);
        }
        let is_bare = instr.targets.is_empty();
        if is_bare {
            // Anti-dependencies: run after every prior reader of each arg.
            for v in instr.uses() {
                for &r in &readers_since[v.0 as usize] {
                    if r != i {
                        dep.push(r);
                    }
                }
                last_writer[v.0 as usize] = Some(i);
                readers_since[v.0 as usize].clear();
            }
        }
        for t in &instr.targets {
            last_writer[t.0 as usize] = Some(i);
            readers_since[t.0 as usize].clear();
        }
        dep.sort_unstable();
        dep.dedup();
        deps[i] = dep;
    }
    deps
}

struct Shared {
    env: Mutex<SchedState>,
    cond: Condvar,
}

struct SchedState {
    env: Env,
    remaining: Vec<usize>,
    ready: VecDeque<usize>,
    inflight: usize,
    completed: usize,
    error: Option<MalError>,
}

/// Dataflow-parallel interpretation with the standard registry.
pub fn run_dataflow(prog: &Program, ctx: &SessionCtx, threads: usize) -> Result<Env> {
    run_dataflow_with(prog, ctx, &Registry::standard(), threads)
}

pub fn run_dataflow_with(
    prog: &Program,
    ctx: &SessionCtx,
    registry: &Registry,
    threads: usize,
) -> Result<Env> {
    let n = prog.instrs.len();
    if n == 0 {
        return Ok(vec![None; prog.vars.len()]);
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return run_sequential_with(prog, ctx, registry);
    }

    let deps = dependencies(prog);
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut remaining = vec![0usize; n];
    for (i, dep) in deps.iter().enumerate() {
        remaining[i] = dep.len();
        for &d in dep {
            dependents[d].push(i);
        }
    }
    let ready: VecDeque<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();

    let shared = Shared {
        env: Mutex::new(SchedState {
            env: vec![None; prog.vars.len()],
            remaining,
            ready,
            inflight: 0,
            completed: 0,
            error: None,
        }),
        cond: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| worker(prog, ctx, registry, &shared, &dependents, n));
        }
    });

    let state = shared.env.into_inner();
    match state.error {
        Some(e) => Err(e),
        None => Ok(state.env),
    }
}

fn worker(
    prog: &Program,
    ctx: &SessionCtx,
    registry: &Registry,
    shared: &Shared,
    dependents: &[Vec<usize>],
    total: usize,
) {
    loop {
        let (idx, args) = {
            let mut st = shared.env.lock();
            loop {
                if st.error.is_some() || st.completed == total {
                    return;
                }
                if let Some(idx) = st.ready.pop_front() {
                    let instr = &prog.instrs[idx];
                    match resolve_args(instr, &st.env, prog) {
                        Ok(args) => {
                            st.inflight += 1;
                            break (idx, args);
                        }
                        Err(e) => {
                            st.error = Some(e);
                            shared.cond.notify_all();
                            return;
                        }
                    }
                }
                // Nothing ready: if nothing is in flight either, the plan
                // has a dependency cycle (cannot happen for straight-line
                // MAL, but guard anyway).
                if st.inflight == 0 {
                    st.error = Some(MalError::Exec("dataflow stalled (cyclic plan?)".into()));
                    shared.cond.notify_all();
                    return;
                }
                shared.cond.wait(&mut st);
            }
        };

        let instr = &prog.instrs[idx];
        let result = match registry.lookup(&instr.module, &instr.func) {
            Some(f) => f(ctx, &args),
            None => Err(MalError::UnknownFunction(instr.qualified_name())),
        };

        let mut st = shared.env.lock();
        st.inflight -= 1;
        match result {
            Err(e) => {
                st.error = Some(e);
                shared.cond.notify_all();
                return;
            }
            Ok(outs) => {
                if let Err(e) = apply(instr, outs, &mut st.env) {
                    st.error = Some(e);
                    shared.cond.notify_all();
                    return;
                }
                st.completed += 1;
                for &d in &dependents[idx] {
                    st.remaining[d] -= 1;
                    if st.remaining[d] == 0 {
                        st.ready.push_back(d);
                    }
                }
                shared.cond.notify_all();
                if st.completed == total {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, PAPER_TABLE1};
    use batstore::{BatStore, Catalog, Column};
    use parking_lot::RwLock;
    use std::sync::Arc;

    fn paper_ctx() -> SessionCtx {
        let mut catalog = Catalog::new();
        let mut store = BatStore::new();
        catalog
            .create_table_columnar(
                &mut store,
                "sys",
                "t",
                vec![("id", Column::from(vec![1, 2, 3]))],
            )
            .unwrap();
        catalog
            .create_table_columnar(
                &mut store,
                "sys",
                "c",
                vec![("t_id", Column::from(vec![2, 2, 3, 9]))],
            )
            .unwrap();
        SessionCtx::new(Arc::new(RwLock::new(catalog)), Arc::new(RwLock::new(store)))
    }

    #[test]
    fn paper_plan_runs_sequentially() {
        let prog = parse_program(PAPER_TABLE1).unwrap();
        let ctx = paper_ctx();
        run_sequential(&prog, &ctx).unwrap();
        let out = ctx.take_output();
        // select c.t_id from t, c where c.t_id = t.id → 2, 2, 3.
        assert!(out.contains("[ 2 ]"), "{out}");
        assert!(out.contains("[ 3 ]"), "{out}");
        assert_eq!(out.matches("[ 2 ]").count(), 2, "{out}");
    }

    #[test]
    fn paper_plan_runs_dataflow() {
        let prog = parse_program(PAPER_TABLE1).unwrap();
        let ctx = paper_ctx();
        run_dataflow(&prog, &ctx, 4).unwrap();
        let out = ctx.take_output();
        assert_eq!(out.matches("[ 2 ]").count(), 2, "{out}");
        assert!(out.contains("[ 3 ]"), "{out}");
    }

    #[test]
    fn dataflow_matches_sequential_output() {
        let prog = parse_program(PAPER_TABLE1).unwrap();
        let c1 = paper_ctx();
        run_sequential(&prog, &c1).unwrap();
        let c2 = paper_ctx();
        run_dataflow(&prog, &c2, 8).unwrap();
        assert_eq!(c1.take_output(), c2.take_output());
    }

    #[test]
    fn unknown_function_reported() {
        let prog = parse_program("function user.q():void;\nX1 := no.such(1);\nend q;").unwrap();
        let ctx = paper_ctx();
        let e = run_sequential(&prog, &ctx).unwrap_err();
        assert!(matches!(e, MalError::UnknownFunction(_)));
        let e = run_dataflow(&prog, &ctx, 4).unwrap_err();
        assert!(matches!(e, MalError::UnknownFunction(_)));
    }

    #[test]
    fn undefined_variable_reported() {
        let prog =
            parse_program("function user.q():void;\nX1 := bat.reverse(Xghost);\nend q;").unwrap();
        let ctx = paper_ctx();
        assert!(matches!(run_sequential(&prog, &ctx).unwrap_err(), MalError::Undefined(_)));
    }

    #[test]
    fn dependencies_order_barecalls() {
        let prog = parse_program(PAPER_TABLE1).unwrap();
        let deps = dependencies(&prog);
        // Instr 8 is sql.rsCol(X16, …) (bare); instr 10 is
        // sql.exportResult(X22, X16). exportResult must depend on rsCol.
        assert!(prog.instrs[8].is("sql", "rsCol"));
        assert!(prog.instrs[10].is("sql", "exportResult"));
        assert!(deps[10].contains(&8), "exportResult must run after rsCol: {:?}", deps[10]);
    }

    #[test]
    fn anti_dependency_for_unpin_like_calls() {
        // X1 defined; read by instr 1; bare call io.print(X1) at instr 2
        // must come after the reader at instr 1? No: print is a reader
        // itself; but a bare call is treated as a writer, so instr 2
        // depends on instr 1 (anti-dep), and instr 3 reading X1 depends
        // on instr 2.
        let prog = parse_program(
            "function user.q():void;\nX1 := io.stdout();\nX2 := io.stdout();\nio.print(X1);\nio.print(X1);\nend q;",
        )
        .unwrap();
        let deps = dependencies(&prog);
        assert_eq!(deps[2], vec![0]);
        assert!(deps[3].contains(&2), "second bare call ordered after first");
    }

    #[test]
    fn empty_program() {
        let prog = parse_program("function user.q():void;\nend q;").unwrap();
        let ctx = paper_ctx();
        assert!(run_dataflow(&prog, &ctx, 4).unwrap().is_empty());
    }
}

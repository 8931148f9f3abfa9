//! SQL → MAL code generation, in the paper's Table-1 idiom.
//!
//! The plan shape for the paper's running example
//! `select c.t_id from t, c where c.t_id = t.id` is:
//!
//! ```text
//! X1 := sql.bind("sys","t","id",0);
//! X2 := sql.bind("sys","c","t_id",0);
//! X3 := bat.reverse(X2);
//! X4 := algebra.join(X1, X3);        -- (t.oid → c.oid)
//! X5 := algebra.markT(X4, 0@0);      -- renumber into result rows
//! X6 := bat.reverse(X5);
//! X7 := algebra.join(X6, X1);        -- (res → value)
//! X8 := sql.resultSet(1, 1, X7);
//! sql.rsCol(X8, …, X7);
//! X9 := io.stdout();
//! sql.exportResult(X9, X8);
//! ```
//!
//! Internally the generator maintains, per table alias, a *row map*
//! `(result-row → table-oid)` BAT and composes it as joins accumulate.
//! Single-table predicates are pushed down onto the bound columns before
//! any join (the "selection push-down" heuristic of §3.2).

use crate::ast::*;
use crate::err;
use batstore::{Catalog, ColType, Val};
use mal::ast::{Arg, Const, Instr, Program, VarId};
use mal::Result;
use std::collections::HashMap;

struct Gen<'a> {
    prog: Program,
    next_var: usize,
    catalog: &'a Catalog,
}

impl<'a> Gen<'a> {
    fn fresh(&mut self) -> VarId {
        self.next_var += 1;
        let name = format!("X{}", self.next_var);
        self.prog.var(&name)
    }

    /// Emit `target := module.func(args)` and return the target.
    fn emit(&mut self, module: &str, func: &str, args: Vec<Arg>) -> VarId {
        let t = self.fresh();
        self.prog.push(Instr::assign(t, module, func, args));
        t
    }

    fn emit_void(&mut self, module: &str, func: &str, args: Vec<Arg>) {
        self.prog.push(Instr::call(module, func, args));
    }

    fn cstr(s: &str) -> Arg {
        Arg::Const(Const::Str(s.to_string()))
    }

    fn cint(v: i64) -> Arg {
        Arg::Const(Const::Int(v))
    }

    fn cval(v: &Val) -> Result<Arg> {
        Ok(Arg::Const(match v {
            Val::Int(x) => Const::Int(*x as i64),
            Val::Lng(x) => Const::Int(*x),
            Val::Dbl(x) => Const::Dbl(*x),
            Val::Str(s) => Const::Str(s.clone()),
            Val::Bool(b) => Const::Int(*b as i64),
            Val::Oid(o) => Const::Oid(*o),
            other => return Err(err(format!("unsupported literal {other:?}"))),
        }))
    }
}

/// Per-table compile state.
struct TableState {
    tref: TableRef,
    /// Bound column BATs (cache): column name → var.
    bound: HashMap<String, VarId>,
    /// Conjunction of pushed-down selections: `(oid → val)` var, if any.
    selection: Option<VarId>,
    /// `(result-row → oid)` once the table is part of the join result.
    rowmap: Option<VarId>,
}

struct Compiler<'a> {
    g: Gen<'a>,
    tables: Vec<TableState>,
}

impl<'a> Compiler<'a> {
    fn table_idx(&self, alias_or_none: &Option<String>, column: &str) -> Result<usize> {
        if let Some(alias) = alias_or_none {
            self.tables
                .iter()
                .position(|t| t.tref.alias == *alias || t.tref.table == *alias)
                .ok_or_else(|| err(format!("unknown table alias '{alias}'")))
        } else {
            // Resolve a bare column by searching the FROM tables.
            let mut found = None;
            for (i, t) in self.tables.iter().enumerate() {
                let def = self.g.catalog.table(&t.tref.schema, &t.tref.table)?;
                if def.column(column).is_some() {
                    if found.is_some() {
                        return Err(err(format!("ambiguous column '{column}'")));
                    }
                    found = Some(i);
                }
            }
            found.ok_or_else(|| err(format!("unknown column '{column}'")))
        }
    }

    fn column_type(&self, ti: usize, column: &str) -> Result<ColType> {
        let t = &self.tables[ti].tref;
        let def = self.g.catalog.table(&t.schema, &t.table)?;
        def.column(column)
            .map(|c| c.ty)
            .ok_or_else(|| err(format!("unknown column '{}.{}'", t.table, column)))
    }

    /// `sql.bind` a column (cached per table).
    fn bind(&mut self, ti: usize, column: &str) -> Result<VarId> {
        // Validate existence first for a clean error.
        self.column_type(ti, column)?;
        if let Some(&v) = self.tables[ti].bound.get(column) {
            return Ok(v);
        }
        let tref = self.tables[ti].tref.clone();
        let v = self.g.emit(
            "sql",
            "bind",
            vec![Gen::cstr(&tref.schema), Gen::cstr(&tref.table), Gen::cstr(column), Gen::cint(0)],
        );
        self.tables[ti].bound.insert(column.to_string(), v);
        Ok(v)
    }

    /// Apply the table's accumulated selection to a bound column:
    /// `semijoin(col, sel)`.
    fn selected(&mut self, ti: usize, col: VarId) -> VarId {
        match self.tables[ti].selection {
            Some(sel) if sel != col => {
                self.g.emit("algebra", "semijoin", vec![Arg::Var(col), Arg::Var(sel)])
            }
            _ => col,
        }
    }

    /// Push one single-table predicate down onto its column.
    fn push_selection(&mut self, pred: &Predicate) -> Result<()> {
        let (colref, filtered) = match pred {
            Predicate::Cmp { col, op, lit } => {
                let ti = self.table_idx(&col.table, &col.column)?;
                let b = self.bind(ti, &col.column)?;
                let f = if op == "=" {
                    self.g.emit("algebra", "uselect", vec![Arg::Var(b), Gen::cval(lit)?])
                } else {
                    self.g.emit(
                        "algebra",
                        "thetauselect",
                        vec![Arg::Var(b), Gen::cval(lit)?, Gen::cstr(op)],
                    )
                };
                (col, f)
            }
            Predicate::Between { col, lo, hi } => {
                let ti = self.table_idx(&col.table, &col.column)?;
                let b = self.bind(ti, &col.column)?;
                let f = self.g.emit(
                    "algebra",
                    "select",
                    vec![Arg::Var(b), Gen::cval(lo)?, Gen::cval(hi)?],
                );
                (col, f)
            }
            Predicate::InList { col, vals } => {
                if vals.is_empty() {
                    return Err(err("IN list must not be empty"));
                }
                let ti = self.table_idx(&col.table, &col.column)?;
                let b = self.bind(ti, &col.column)?;
                // Union of equality selections (head-keyed kunion).
                let mut acc =
                    self.g.emit("algebra", "uselect", vec![Arg::Var(b), Gen::cval(&vals[0])?]);
                for v in &vals[1..] {
                    let u = self.g.emit("algebra", "uselect", vec![Arg::Var(b), Gen::cval(v)?]);
                    acc = self.g.emit("algebra", "kunion", vec![Arg::Var(acc), Arg::Var(u)]);
                }
                (col, acc)
            }
            Predicate::ColEq { .. } => return Ok(()), // handled as join
        };
        let ti = self.table_idx(&colref.table, &colref.column)?;
        let slot = &mut self.tables[ti].selection;
        *slot = Some(match *slot {
            None => filtered,
            Some(prev) => {
                self.g.emit("algebra", "semijoin", vec![Arg::Var(prev), Arg::Var(filtered)])
            }
        });
        Ok(())
    }

    /// Build the join result, producing row maps for every table.
    fn build_joins(&mut self, joins: &[(ColRef, ColRef)]) -> Result<()> {
        if self.tables.len() == 1 {
            let ti = 0;
            let rowmap = match self.tables[ti].selection {
                Some(sel) => {
                    // (oid→val) → markT → (oid→res) → reverse → (res→oid)
                    let marked = self.g.emit(
                        "algebra",
                        "markT",
                        vec![Arg::Var(sel), Arg::Const(Const::Oid(0))],
                    );
                    self.g.emit("bat", "reverse", vec![Arg::Var(marked)])
                }
                None => {
                    // All rows: mirror of any column gives (oid→oid).
                    let tref = self.tables[ti].tref.clone();
                    let def = self.g.catalog.table(&tref.schema, &tref.table)?;
                    let first = def
                        .columns
                        .first()
                        .ok_or_else(|| err(format!("table '{}' has no columns", tref.table)))?
                        .name
                        .clone();
                    let b = self.bind(ti, &first)?;
                    self.g.emit("bat", "mirror", vec![Arg::Var(b)])
                }
            };
            self.tables[ti].rowmap = Some(rowmap);
            return Ok(());
        }

        if joins.is_empty() {
            return Err(err("cross products are not supported: add join predicates"));
        }

        for (lc, rc) in joins {
            let li = self.table_idx(&lc.table, &lc.column)?;
            let ri = self.table_idx(&rc.table, &rc.column)?;
            if li == ri {
                return Err(err("self-comparison within one table is not supported"));
            }
            let l_joined = self.tables[li].rowmap.is_some();
            let r_joined = self.tables[ri].rowmap.is_some();
            match (l_joined, r_joined) {
                (false, false) => {
                    if self.tables.iter().any(|t| t.rowmap.is_some()) {
                        return Err(err(
                            "join predicates must connect to already-joined tables in order",
                        ));
                    }
                    self.first_join(li, &lc.column, ri, &rc.column)?;
                }
                (true, false) => self.extend_join(li, &lc.column, ri, &rc.column)?,
                (false, true) => self.extend_join(ri, &rc.column, li, &lc.column)?,
                (true, true) => {
                    return Err(err("cyclic join predicates are not supported"));
                }
            }
        }
        if let Some(t) = self.tables.iter().find(|t| t.rowmap.is_none()) {
            return Err(err(format!(
                "table '{}' is not connected by any join predicate",
                t.tref.alias
            )));
        }
        Ok(())
    }

    /// First join: `(oidL → oidR)` pairs, then row maps via markT/markH.
    fn first_join(&mut self, li: usize, lcol: &str, ri: usize, rcol: &str) -> Result<()> {
        let lb = self.bind(li, lcol)?;
        let lb = self.selected(li, lb);
        let rb = self.bind(ri, rcol)?;
        let rb = self.selected(ri, rb);
        let rrev = self.g.emit("bat", "reverse", vec![Arg::Var(rb)]);
        let pairs = self.g.emit("algebra", "join", vec![Arg::Var(lb), Arg::Var(rrev)]);
        // (oidL→res) → reverse → (res→oidL)
        let lmark =
            self.g.emit("algebra", "markT", vec![Arg::Var(pairs), Arg::Const(Const::Oid(0))]);
        let lmap = self.g.emit("bat", "reverse", vec![Arg::Var(lmark)]);
        // (res→oidR)
        let rmap =
            self.g.emit("algebra", "markH", vec![Arg::Var(pairs), Arg::Const(Const::Oid(0))]);
        self.tables[li].rowmap = Some(lmap);
        self.tables[ri].rowmap = Some(rmap);
        Ok(())
    }

    /// Join an additional table `ni` onto the current result through
    /// `joined.jcol = new.ncol`; renumbers the result space and composes
    /// all existing row maps.
    fn extend_join(&mut self, ji: usize, jcol: &str, ni: usize, ncol: &str) -> Result<()> {
        let jmap = self.tables[ji].rowmap.expect("caller checked");
        let jb = self.bind(ji, jcol)?;
        // (res→val) for the joined side.
        let jvals = self.g.emit("algebra", "join", vec![Arg::Var(jmap), Arg::Var(jb)]);
        let nb = self.bind(ni, ncol)?;
        let nb = self.selected(ni, nb);
        let nrev = self.g.emit("bat", "reverse", vec![Arg::Var(nb)]);
        // (res_old → oidN); rows of this BAT are the new result space.
        let pairs = self.g.emit("algebra", "join", vec![Arg::Var(jvals), Arg::Var(nrev)]);
        // (res_new → res_old) to recompose the existing row maps.
        let remark =
            self.g.emit("algebra", "markT", vec![Arg::Var(pairs), Arg::Const(Const::Oid(0))]);
        let old_of_new = self.g.emit("bat", "reverse", vec![Arg::Var(remark)]);
        for t in &mut self.tables {
            if let Some(m) = t.rowmap {
                t.rowmap = None;
                let composed =
                    self.g.emit("algebra", "join", vec![Arg::Var(old_of_new), Arg::Var(m)]);
                t.rowmap = Some(composed);
            }
        }
        let nmap =
            self.g.emit("algebra", "markH", vec![Arg::Var(pairs), Arg::Const(Const::Oid(0))]);
        self.tables[ni].rowmap = Some(nmap);
        Ok(())
    }

    /// `(res → value)` for an output column.
    fn project(&mut self, col: &ColRef) -> Result<(VarId, ColType, String)> {
        let ti = self.table_idx(&col.table, &col.column)?;
        let ty = self.column_type(ti, &col.column)?;
        let b = self.bind(ti, &col.column)?;
        let rowmap = self.tables[ti].rowmap.expect("rowmaps built before projection");
        let v = self.g.emit("algebra", "join", vec![Arg::Var(rowmap), Arg::Var(b)]);
        let label = format!("{}.{}", self.tables[ti].tref.schema, self.tables[ti].tref.table);
        Ok((v, ty, label))
    }
}

/// One output column of the final result set.
struct OutCol {
    var: VarId,
    table_label: String,
    name: String,
    sql_type: &'static str,
}

/// Compile a parsed query against the catalog.
pub fn compile(q: &Query, catalog: &Catalog) -> Result<Program> {
    if q.select.is_empty() {
        return Err(err("empty select list"));
    }
    // `dc.*` system views never touch the catalog: they lower to one
    // `sql.sysview` sink that materializes live node telemetry.
    if q.from.iter().any(|t| t.schema == "dc") {
        return compile_sysview(q);
    }
    for t in &q.from {
        catalog
            .table(&t.schema, &t.table)
            .map_err(|e| err(format!("unknown table {}.{}: {e}", t.schema, t.table)))?;
    }
    let expanded;
    let q = if q.select.iter().any(|s| matches!(s, SelectItem::Star)) {
        expanded = expand_stars(q, catalog)?;
        &expanded
    } else {
        q
    };

    let gen = Gen { prog: Program::new("user", "s1_1"), next_var: 0, catalog };
    let mut c = Compiler {
        g: gen,
        tables: q
            .from
            .iter()
            .map(|t| TableState {
                tref: t.clone(),
                bound: HashMap::new(),
                selection: None,
                rowmap: None,
            })
            .collect(),
    };

    // Selection push-down.
    for p in &q.predicates {
        c.push_selection(p)?;
    }
    let joins: Vec<(ColRef, ColRef)> = q
        .predicates
        .iter()
        .filter_map(|p| match p {
            Predicate::ColEq { left, right } => Some((left.clone(), right.clone())),
            _ => None,
        })
        .collect();
    c.build_joins(&joins)?;

    let mut outs: Vec<OutCol> = Vec::new();
    if q.has_aggregates() {
        compile_aggregate_outputs(&mut c, q, &mut outs)?;
    } else {
        if !q.group_by.is_empty() {
            return Err(err("GROUP BY requires aggregates in the select list"));
        }
        for item in &q.select {
            match item {
                SelectItem::Col(col) => {
                    let (v, ty, label) = c.project(col)?;
                    outs.push(OutCol {
                        var: v,
                        table_label: label,
                        name: col.column.clone(),
                        sql_type: ty.name(),
                    });
                }
                SelectItem::Agg { .. } => unreachable!(),
                SelectItem::Star => unreachable!("stars expanded before codegen"),
            }
        }
    }

    // SELECT DISTINCT (non-aggregate queries): group the output columns
    // and keep one representative row per group.
    if q.distinct && !q.has_aggregates() {
        apply_distinct(&mut c, &mut outs);
    }

    // ORDER BY / LIMIT.
    apply_order_limit(&mut c, q, &mut outs)?;

    // Result set plumbing, exactly as the paper prints it.
    let first = outs.first().expect("non-empty select");
    let rs = c.g.emit(
        "sql",
        "resultSet",
        vec![Gen::cint(outs.len() as i64), Gen::cint(1), Arg::Var(first.var)],
    );
    for o in &outs {
        c.g.emit_void(
            "sql",
            "rsCol",
            vec![
                Arg::Var(rs),
                Gen::cstr(&o.table_label),
                Gen::cstr(&o.name),
                Gen::cstr(o.sql_type),
                Gen::cint(32),
                Gen::cint(0),
                Arg::Var(o.var),
            ],
        );
    }
    let stream = c.g.emit("io", "stdout", vec![]);
    c.g.emit_void("sql", "exportResult", vec![Arg::Var(stream), Arg::Var(rs)]);

    Ok(c.g.prog)
}

fn agg_result_type(f: AggFn, input: Option<ColType>) -> &'static str {
    match f {
        AggFn::Count => "lng",
        AggFn::Avg => "dbl",
        AggFn::Sum => match input {
            Some(ColType::Dbl) => "dbl",
            _ => "lng",
        },
        AggFn::Min | AggFn::Max => input.map(|t| t.name()).unwrap_or("lng"),
    }
}

/// Deduplicate the output columns: chain `group.new`/`group.derive`
/// over them, then re-project every column through the representative
/// rows (`ext` maps group → representative row position).
fn apply_distinct(c: &mut Compiler, outs: &mut [OutCol]) {
    let grp0 = c.g.fresh();
    let ext0 = c.g.fresh();
    c.g.prog.push(Instr {
        targets: vec![grp0, ext0],
        module: "group".into(),
        func: "new".into(),
        args: vec![Arg::Var(outs[0].var)],
    });
    let mut grp = grp0;
    for o in outs.iter().skip(1) {
        let g2 = c.g.fresh();
        let e2 = c.g.fresh();
        c.g.prog.push(Instr {
            targets: vec![g2, e2],
            module: "group".into(),
            func: "derive".into(),
            args: vec![Arg::Var(o.var), Arg::Var(grp)],
        });
        grp = g2;
    }
    if outs.len() == 1 {
        // group.new's ext is already (group → value).
        outs[0].var = ext0;
        return;
    }
    // Representative row positions come from the final derive's ext; we
    // recompute it as mirror-of-groups to keep the single-column case
    // simple: mark one row per group via ext of the last derive.
    // The last pushed instruction's second target is that ext.
    let last = c.g.prog.instrs.last().expect("derive pushed");
    let ext = last.targets[1];
    for o in outs.iter_mut() {
        o.var = c.g.emit("algebra", "join", vec![Arg::Var(ext), Arg::Var(o.var)]);
    }
}

fn compile_aggregate_outputs(c: &mut Compiler, q: &Query, outs: &mut Vec<OutCol>) -> Result<()> {
    if q.group_by.len() > 1 {
        return compile_multi_group_by(c, q, outs);
    }
    if q.group_by.is_empty() {
        // Whole-column aggregates; non-aggregate items are invalid.
        for item in &q.select {
            match item {
                SelectItem::Col(colref) => {
                    return Err(err(format!("column '{}' must appear in GROUP BY", colref.column)))
                }
                SelectItem::Star => {
                    return Err(err("SELECT * cannot be mixed with aggregates"));
                }
                SelectItem::Agg { f, col } => {
                    let (scalar, name, ty) = match col {
                        Some(colref) => {
                            let (v, ty, _) = c.project(colref)?;
                            let s = c.g.emit("aggr", f.name(), vec![Arg::Var(v)]);
                            (s, format!("{}_{}", f.name(), colref.column), Some(ty))
                        }
                        None => {
                            // COUNT(*): count over any row map.
                            let rowmap = c.tables[0].rowmap.expect("rowmaps built");
                            let s = c.g.emit("aggr", "count", vec![Arg::Var(rowmap)]);
                            (s, "count".to_string(), None)
                        }
                    };
                    // Pack under the *declared* aggregate type so the
                    // typed result schema is stable (a small SUM must
                    // still be a lng column, not an int one).
                    let sql_type = agg_result_type(*f, ty);
                    let packed =
                        c.g.emit("bat", "pack", vec![Arg::Var(scalar), Gen::cstr(sql_type)]);
                    outs.push(OutCol { var: packed, table_label: "sys".into(), name, sql_type });
                }
            }
        }
        return Ok(());
    }

    // Grouped aggregation.
    let key = &q.group_by[0];
    let (keyvals, key_ty, key_label) = c.project(key)?;
    let grp = c.g.fresh();
    let ext = c.g.fresh();
    c.g.prog.push(Instr {
        targets: vec![grp, ext],
        module: "group".into(),
        func: "new".into(),
        args: vec![Arg::Var(keyvals)],
    });
    let ngroups = c.g.emit("aggr", "count", vec![Arg::Var(ext)]);

    for item in &q.select {
        match item {
            SelectItem::Col(colref) => {
                if colref.column != key.column {
                    return Err(err(format!("column '{}' must appear in GROUP BY", colref.column)));
                }
                outs.push(OutCol {
                    var: ext,
                    table_label: key_label.clone(),
                    name: key.column.clone(),
                    sql_type: key_ty.name(),
                });
            }
            SelectItem::Agg { f: AggFn::Count, col: None } => {
                let v = c.g.emit("aggr", "countFor", vec![Arg::Var(grp), Arg::Var(ngroups)]);
                outs.push(OutCol {
                    var: v,
                    table_label: "sys".into(),
                    name: "count".into(),
                    sql_type: "lng",
                });
            }
            SelectItem::Agg { f, col: Some(colref) } => {
                let (vals, ty, _) = c.project(colref)?;
                let func = format!("{}For", f.name());
                let v =
                    c.g.emit("aggr", &func, vec![Arg::Var(vals), Arg::Var(grp), Arg::Var(ngroups)]);
                outs.push(OutCol {
                    var: v,
                    table_label: "sys".into(),
                    name: format!("{}_{}", f.name(), colref.column),
                    sql_type: agg_result_type(*f, Some(ty)),
                });
            }
            SelectItem::Agg { f, col: None } => {
                return Err(err(format!("{}(*) is not supported", f.name())))
            }
            SelectItem::Star => {
                return Err(err("SELECT * cannot be mixed with aggregates"));
            }
        }
    }
    Ok(())
}

/// Multi-column GROUP BY: `group.new` on the first key, `group.derive`
/// for each further key, key columns re-projected through the
/// representative rows, aggregates over the refined group ids.
fn compile_multi_group_by(c: &mut Compiler, q: &Query, outs: &mut Vec<OutCol>) -> Result<()> {
    // Project every key column into result space first.
    let mut key_cols = Vec::new();
    for key in &q.group_by {
        let (v, ty, label) = c.project(key)?;
        key_cols.push((key.column.clone(), v, ty, label));
    }
    let grp0 = c.g.fresh();
    let ext0 = c.g.fresh();
    c.g.prog.push(Instr {
        targets: vec![grp0, ext0],
        module: "group".into(),
        func: "new".into(),
        args: vec![Arg::Var(key_cols[0].1)],
    });
    let mut grp = grp0;
    let mut ext = ext0;
    for (_, v, _, _) in key_cols.iter().skip(1) {
        let g2 = c.g.fresh();
        let e2 = c.g.fresh();
        c.g.prog.push(Instr {
            targets: vec![g2, e2],
            module: "group".into(),
            func: "derive".into(),
            args: vec![Arg::Var(*v), Arg::Var(grp)],
        });
        grp = g2;
        ext = e2;
    }
    let ngroups = c.g.emit("aggr", "count", vec![Arg::Var(ext)]);

    for item in &q.select {
        match item {
            SelectItem::Col(colref) => {
                let Some((name, v, ty, label)) =
                    key_cols.iter().find(|(n, ..)| *n == colref.column)
                else {
                    return Err(err(format!("column '{}' must appear in GROUP BY", colref.column)));
                };
                // ext maps group → representative row; join re-projects
                // the key value per group.
                let kv = c.g.emit("algebra", "join", vec![Arg::Var(ext), Arg::Var(*v)]);
                outs.push(OutCol {
                    var: kv,
                    table_label: label.clone(),
                    name: name.clone(),
                    sql_type: ty.name(),
                });
            }
            SelectItem::Agg { f: AggFn::Count, col: None } => {
                let v = c.g.emit("aggr", "countFor", vec![Arg::Var(grp), Arg::Var(ngroups)]);
                outs.push(OutCol {
                    var: v,
                    table_label: "sys".into(),
                    name: "count".into(),
                    sql_type: "lng",
                });
            }
            SelectItem::Agg { f, col: Some(colref) } => {
                let (vals, ty, _) = c.project(colref)?;
                let func = format!("{}For", f.name());
                let v =
                    c.g.emit("aggr", &func, vec![Arg::Var(vals), Arg::Var(grp), Arg::Var(ngroups)]);
                outs.push(OutCol {
                    var: v,
                    table_label: "sys".into(),
                    name: format!("{}_{}", f.name(), colref.column),
                    sql_type: agg_result_type(*f, Some(ty)),
                });
            }
            SelectItem::Agg { f, col: None } => {
                return Err(err(format!("{}(*) is not supported", f.name())))
            }
            SelectItem::Star => {
                return Err(err("SELECT * cannot be mixed with aggregates"));
            }
        }
    }
    Ok(())
}

fn apply_order_limit(c: &mut Compiler, q: &Query, outs: &mut [OutCol]) -> Result<()> {
    if let Some(order) = &q.order_by {
        // The sort key must be one of the produced output columns.
        let key_pos = outs.iter().position(|o| o.name == order.col.column).ok_or_else(|| {
            err(format!("ORDER BY column '{}' not in select list", order.col.column))
        })?;
        let sort_fn = if order.descending { "sortReverseTail" } else { "sortTail" };
        let sorted = c.g.emit("algebra", sort_fn, vec![Arg::Var(outs[key_pos].var)]);
        // (newpos → oldpos): reverse(markT(sorted)).
        let marked =
            c.g.emit("algebra", "markT", vec![Arg::Var(sorted), Arg::Const(Const::Oid(0))]);
        let perm = c.g.emit("bat", "reverse", vec![Arg::Var(marked)]);
        for o in outs.iter_mut() {
            o.var = c.g.emit("algebra", "join", vec![Arg::Var(perm), Arg::Var(o.var)]);
        }
    }
    if let Some(n) = q.limit {
        let hi = n.saturating_sub(1) as i64;
        for o in outs.iter_mut() {
            o.var =
                c.g.emit("algebra", "slice", vec![Arg::Var(o.var), Gen::cint(0), Gen::cint(hi)]);
        }
    }
    Ok(())
}

/// Replace every bare `*` with the columns of every FROM table in
/// declared order (resolved against the catalog).
fn expand_stars(q: &Query, catalog: &Catalog) -> Result<Query> {
    if q.has_aggregates() {
        return Err(err("SELECT * cannot be mixed with aggregates"));
    }
    let mut out = q.clone();
    out.select = Vec::with_capacity(q.select.len());
    for item in &q.select {
        match item {
            SelectItem::Star => {
                for t in &q.from {
                    let def = catalog
                        .table(&t.schema, &t.table)
                        .map_err(|e| err(format!("unknown table {}.{}: {e}", t.schema, t.table)))?;
                    for col in &def.columns {
                        out.select.push(SelectItem::Col(ColRef {
                            table: Some(t.alias.clone()),
                            column: col.name.clone(),
                        }));
                    }
                }
            }
            other => out.select.push(other.clone()),
        }
    }
    Ok(out)
}

/// The `dc.*` system views and their column lists, in declared order.
/// Must match `RingHooks::sys_view` exactly.
const DC_VIEWS: [(&str, &[&str]); 4] = [
    ("stats", &["name", "value"]),
    ("latency", &["name", "count", "p50_us", "p95_us", "p99_us", "max_us"]),
    ("trace", &["ts_us", "node", "epoch", "stmt", "event", "detail"]),
    ("hotset", &["bat", "table", "state", "loi", "version", "size_bytes"]),
];

/// Lower `SELECT … FROM dc.<view>` to one `sql.sysview(view, proj)` sink.
fn compile_sysview(q: &Query) -> Result<Program> {
    if q.from.len() != 1 || q.from.iter().any(|t| t.schema != "dc") {
        return Err(err("dc.* system views cannot be joined with other tables"));
    }
    let t = &q.from[0];
    let Some((_, cols)) = DC_VIEWS.iter().find(|(name, _)| *name == t.table) else {
        return Err(err(format!(
            "unknown system view dc.{} (have: stats, latency, trace, hotset)",
            t.table
        )));
    };
    if !q.predicates.is_empty()
        || !q.group_by.is_empty()
        || q.order_by.is_some()
        || q.limit.is_some()
        || q.distinct
        || q.has_aggregates()
    {
        return Err(err(format!(
            "dc.{} supports only plain projection \
             (no WHERE/GROUP BY/ORDER BY/LIMIT/DISTINCT/aggregates)",
            t.table
        )));
    }
    let proj = if q.select.iter().any(|s| matches!(s, SelectItem::Star)) {
        if q.select.len() != 1 {
            return Err(err("'*' must be the only select item on a dc.* view"));
        }
        "*".to_string()
    } else {
        let mut names = Vec::with_capacity(q.select.len());
        for item in &q.select {
            let SelectItem::Col(c) = item else {
                unreachable!("aggregates rejected above");
            };
            if let Some(alias) = &c.table {
                if *alias != t.alias {
                    return Err(err(format!("unknown table alias '{alias}'")));
                }
            }
            if !cols.contains(&c.column.as_str()) {
                return Err(err(format!("dc.{} has no column '{}'", t.table, c.column)));
            }
            names.push(c.column.clone());
        }
        names.join(",")
    };
    let mut prog = Program::new("user", "s1_1");
    prog.push(Instr::call("sql", "sysview", vec![Gen::cstr(&t.table), Gen::cstr(&proj)]));
    Ok(prog)
}

/// Compile any parsed statement against the catalog.
pub fn compile_stmt(stmt: &Stmt, catalog: &Catalog) -> Result<Program> {
    match stmt {
        Stmt::Select(q) => compile(q, catalog),
        Stmt::CreateTable(c) => compile_create(c),
        Stmt::Insert(i) => compile_insert(i, catalog),
        Stmt::Update(u) => compile_update(u, catalog),
        Stmt::Delete(d) => compile_delete(d, catalog),
    }
}

/// `CREATE TABLE` lowers to one `sql.createTable` call; existence is
/// checked where the statement executes (on a ring, at the owner node).
fn compile_create(c: &CreateStmt) -> Result<Program> {
    let mut prog = Program::new("user", "s1_1");
    let spec: Vec<String> = c.cols.iter().map(|(n, t)| format!("{n}:{}", t.name())).collect();
    prog.push(Instr::call(
        "sql",
        "createTable",
        vec![Gen::cstr(&c.schema), Gen::cstr(&c.table), Gen::cstr(&spec.join(","))],
    ));
    Ok(prog)
}

/// `INSERT` builds one dense row-batch BAT per column — a single
/// `bat.literal` call carrying the declared column type and all the
/// column's values — and hands the whole batch to one `sql.append`
/// call, which routes it through the Data Cyclotron seam to the
/// fragment owners.
fn compile_insert(i: &InsertStmt, catalog: &Catalog) -> Result<Program> {
    let def = catalog
        .table(&i.schema, &i.table)
        .map_err(|e| err(format!("unknown table {}.{}: {e}", i.schema, i.table)))?;
    if i.rows.is_empty() {
        return Err(err("INSERT needs at least one row"));
    }
    // Position of each table column inside the VALUES tuples.
    let positions: Vec<usize> = match &i.columns {
        None => {
            if i.rows[0].len() != def.columns.len() {
                return Err(err(format!(
                    "row has {} values but {}.{} has {} columns",
                    i.rows[0].len(),
                    i.schema,
                    i.table,
                    def.columns.len()
                )));
            }
            (0..def.columns.len()).collect()
        }
        Some(listed) => {
            if listed.len() != def.columns.len() {
                return Err(err(format!(
                    "INSERT must list all {} columns of {}.{}",
                    def.columns.len(),
                    i.schema,
                    i.table
                )));
            }
            def.columns
                .iter()
                .map(|c| {
                    listed
                        .iter()
                        .position(|n| *n == c.name)
                        .ok_or_else(|| err(format!("column '{}' missing from INSERT list", c.name)))
                })
                .collect::<Result<_>>()?
        }
    };

    let mut g = Gen { prog: Program::new("user", "s1_1"), next_var: 0, catalog };
    let mut batch_vars = Vec::with_capacity(def.columns.len());
    for (col, &pos) in def.columns.iter().zip(&positions) {
        let mut args = Vec::with_capacity(i.rows.len() + 1);
        args.push(Gen::cstr(col.ty.name()));
        for row in &i.rows {
            args.push(Gen::cval(&row[pos])?);
        }
        batch_vars.push(g.emit("bat", "literal", args));
    }
    let names: Vec<&str> = def.columns.iter().map(|c| c.name.as_str()).collect();
    let mut args = vec![Gen::cstr(&i.schema), Gen::cstr(&i.table), Gen::cstr(&names.join(","))];
    args.extend(batch_vars.into_iter().map(Arg::Var));
    g.emit_void("sql", "append", args);
    Ok(g.prog)
}

/// Validate a single-table predicate column reference and append the
/// flat predicate encoding `sql.update`/`sql.delete` expect:
/// `"cmp", col, op, lit` / `"between", col, lo, hi` / `"in", col, n, v…`.
/// The mutation travels as *logical* predicates — the fragment owner
/// evaluates them against its authoritative payload (§6.4), never
/// against row ids computed from a possibly stale circulating copy.
fn push_pred_args(
    args: &mut Vec<Arg>,
    preds: &[Predicate],
    def: &batstore::TableDef,
) -> Result<()> {
    let check_col = |c: &ColRef| -> Result<()> {
        if let Some(alias) = &c.table {
            if *alias != def.name {
                return Err(err(format!("unknown table alias '{alias}'")));
            }
        }
        if def.column(&c.column).is_none() {
            return Err(err(format!("unknown column '{}.{}'", def.name, c.column)));
        }
        Ok(())
    };
    for p in preds {
        match p {
            Predicate::Cmp { col, op, lit } => {
                check_col(col)?;
                args.push(Gen::cstr("cmp"));
                args.push(Gen::cstr(&col.column));
                args.push(Gen::cstr(op));
                args.push(Gen::cval(lit)?);
            }
            Predicate::Between { col, lo, hi } => {
                check_col(col)?;
                args.push(Gen::cstr("between"));
                args.push(Gen::cstr(&col.column));
                args.push(Gen::cval(lo)?);
                args.push(Gen::cval(hi)?);
            }
            Predicate::InList { col, vals } => {
                if vals.is_empty() {
                    return Err(err("IN list must not be empty"));
                }
                check_col(col)?;
                args.push(Gen::cstr("in"));
                args.push(Gen::cstr(&col.column));
                args.push(Gen::cint(vals.len() as i64));
                for v in vals {
                    args.push(Gen::cval(v)?);
                }
            }
            Predicate::ColEq { left, right } => {
                return Err(err(format!(
                    "column-to-column predicates are not supported in UPDATE/DELETE \
                     ({}.{} = {}.{})",
                    left.table.as_deref().unwrap_or(""),
                    left.column,
                    right.table.as_deref().unwrap_or(""),
                    right.column
                )))
            }
        }
    }
    Ok(())
}

/// `UPDATE` lowers to one `sql.update` sink carrying the assignments and
/// the WHERE conjunction; the seam routes it to the fragment owner.
fn compile_update(u: &UpdateStmt, catalog: &Catalog) -> Result<Program> {
    let def = catalog
        .table(&u.schema, &u.table)
        .map_err(|e| err(format!("unknown table {}.{}: {e}", u.schema, u.table)))?;
    if u.assignments.is_empty() {
        return Err(err("UPDATE needs at least one assignment"));
    }
    let mut names = Vec::with_capacity(u.assignments.len());
    for (name, _) in &u.assignments {
        if def.column(name).is_none() {
            return Err(err(format!("unknown column '{}.{}'", u.table, name)));
        }
        if names.contains(&name.as_str()) {
            return Err(err(format!("column '{name}' assigned twice")));
        }
        names.push(name.as_str());
    }
    let mut args = vec![Gen::cstr(&u.schema), Gen::cstr(&u.table), Gen::cstr(&names.join(","))];
    for (_, v) in &u.assignments {
        args.push(Gen::cval(v)?);
    }
    push_pred_args(&mut args, &u.predicates, def)?;
    let mut prog = Program::new("user", "s1_1");
    prog.push(Instr::call("sql", "update", args));
    Ok(prog)
}

/// `DELETE` lowers to one `sql.delete` sink carrying the WHERE
/// conjunction (empty means every row).
fn compile_delete(d: &DeleteStmt, catalog: &Catalog) -> Result<Program> {
    let def = catalog
        .table(&d.schema, &d.table)
        .map_err(|e| err(format!("unknown table {}.{}: {e}", d.schema, d.table)))?;
    let mut args = vec![Gen::cstr(&d.schema), Gen::cstr(&d.table)];
    push_pred_args(&mut args, &d.predicates, def)?;
    let mut prog = Program::new("user", "s1_1");
    prog.push(Instr::call("sql", "delete", args));
    Ok(prog)
}

/// Parse and compile one statement (SELECT, CREATE TABLE, INSERT,
/// UPDATE, or DELETE) in one step.
pub fn compile_sql(sql: &str, catalog: &Catalog) -> Result<Program> {
    let stmt = crate::parser::parse_stmt(sql)?;
    compile_stmt(&stmt, catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batstore::{BatStore, Column};
    use mal::{run_sequential, SessionCtx};
    use parking_lot::RwLock;
    use std::sync::Arc;

    fn setup() -> (Catalog, Arc<RwLock<BatStore>>) {
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
                vec![
                    ("t_id", Column::from(vec![2, 2, 3, 9])),
                    ("amount", Column::from(vec![10, 20, 30, 40])),
                ],
            )
            .unwrap();
        catalog
            .create_table_columnar(
                &mut store,
                "sys",
                "sales",
                vec![
                    ("region", Column::from(vec!["eu", "us", "eu", "ap", "us"])),
                    ("amount", Column::from(vec![5, 7, 11, 13, 17])),
                ],
            )
            .unwrap();
        (catalog, Arc::new(RwLock::new(store)))
    }

    fn run(sql: &str) -> String {
        let (catalog, store) = setup();
        let prog = compile_sql(sql, &catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let ctx = SessionCtx::new(Arc::new(RwLock::new(catalog)), store);
        run_sequential(&prog, &ctx).unwrap_or_else(|e| panic!("{sql}:\n{prog}\n{e}"));
        ctx.take_output()
    }

    #[test]
    fn paper_example_results() {
        let out = run("select c.t_id from t, c where c.t_id = t.id");
        assert_eq!(out.matches("[ 2 ]").count(), 2, "{out}");
        assert_eq!(out.matches("[ 3 ]").count(), 1, "{out}");
        assert!(!out.contains("[ 9 ]"), "{out}");
    }

    #[test]
    fn plan_uses_paper_idiom() {
        let (catalog, _) = setup();
        let prog = compile_sql("select c.t_id from t, c where c.t_id = t.id", &catalog).unwrap();
        let names: Vec<String> = prog.instrs.iter().map(|i| i.qualified_name()).collect();
        for needed in [
            "sql.bind",
            "bat.reverse",
            "algebra.join",
            "algebra.markT",
            "sql.resultSet",
            "sql.rsCol",
            "io.stdout",
            "sql.exportResult",
        ] {
            assert!(names.iter().any(|n| n == needed), "plan lacks {needed}:\n{prog}");
        }
    }

    #[test]
    fn single_table_filter() {
        let out = run("select amount from c where amount > 15");
        assert!(out.contains("[ 20 ]") && out.contains("[ 30 ]") && out.contains("[ 40 ]"));
        assert!(!out.contains("[ 10 ]"));
    }

    #[test]
    fn between_filter() {
        let out = run("select amount from c where amount between 15 and 35");
        assert!(out.contains("[ 20 ]") && out.contains("[ 30 ]"));
        assert!(!out.contains("[ 40 ]"));
    }

    #[test]
    fn two_filters_conjoined() {
        let out = run("select amount from c where amount > 15 and t_id = 3");
        assert_eq!(out.matches("[ 30 ]").count(), 1, "{out}");
        assert!(!out.contains("[ 20 ]"), "{out}");
    }

    #[test]
    fn projection_multiple_columns() {
        let out = run("select t_id, amount from c where amount >= 30");
        assert!(out.contains("[ 3,\t30 ]"), "{out}");
        assert!(out.contains("[ 9,\t40 ]"), "{out}");
    }

    #[test]
    fn join_with_filter_on_other_table() {
        let out = run("select c.amount from t, c where c.t_id = t.id and t.id >= 3");
        assert!(out.contains("[ 30 ]"), "{out}");
        assert!(!out.contains("[ 10 ]") && !out.contains("[ 20 ]"), "{out}");
    }

    #[test]
    fn count_star() {
        let out = run("select count(*) from c where amount > 5");
        assert!(out.contains("[ 4 ]"), "{out}");
    }

    #[test]
    fn whole_column_aggregates() {
        let out = run("select sum(amount), min(amount), max(amount), avg(amount) from c");
        assert!(out.contains("100") && out.contains("10") && out.contains("40"), "{out}");
        assert!(out.contains("25"), "avg: {out}");
    }

    #[test]
    fn group_by_with_aggregates() {
        let out =
            run("select region, sum(amount), count(*) from sales group by region order by region");
        // ap=13, eu=16, us=24; ordered ap, eu, us.
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].contains("ap") && lines[0].contains("13"), "{out}");
        assert!(lines[1].contains("eu") && lines[1].contains("16"), "{out}");
        assert!(lines[2].contains("us") && lines[2].contains("24"), "{out}");
    }

    /// Regression: the grouped-aggregation chain must refine correctly
    /// for one, two, and three grouping keys (group.subgroup composes
    /// the group ids; a bad composition collapses or splits groups).
    #[test]
    fn group_by_one_two_three_keys() {
        let mut catalog = Catalog::new();
        let mut store = BatStore::new();
        catalog
            .create_table_columnar(
                &mut store,
                "sys",
                "g",
                vec![
                    ("a", Column::from(vec!["x", "x", "x", "y", "y", "y"])),
                    ("b", Column::from(vec![1, 1, 2, 2, 2, 2])),
                    ("c", Column::from(vec![7, 8, 7, 7, 7, 8])),
                    ("v", Column::from(vec![1, 2, 4, 8, 16, 32])),
                ],
            )
            .unwrap();
        let store = Arc::new(RwLock::new(store));
        let catalog = Arc::new(RwLock::new(catalog));
        let exec = |sql: &str| -> Vec<String> {
            let prog = compile_sql(sql, &catalog.read()).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let ctx = SessionCtx::new(Arc::clone(&catalog), Arc::clone(&store));
            run_sequential(&prog, &ctx).unwrap_or_else(|e| panic!("{sql}:\n{prog}\n{e}"));
            ctx.take_output().lines().filter(|l| l.starts_with('[')).map(String::from).collect()
        };

        // 1 key: x → 1+2+4, y → 8+16+32.
        let rows = exec("select a, sum(v), count(*) from g group by a order by a");
        assert_eq!(rows, vec!["[ \"x\",\t7,\t3 ]", "[ \"y\",\t56,\t3 ]"]);

        // 2 keys: (x,1)=3, (x,2)=4, (y,2)=56.
        let rows = exec("select a, b, sum(v) from g group by a, b order by a");
        assert_eq!(rows.len(), 3, "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t1,\t3 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t2,\t4 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"y\",\t2,\t56 ]".to_string()), "{rows:?}");

        // 3 keys: (x,1,7)=1, (x,1,8)=2, (x,2,7)=4, (y,2,7)=24, (y,2,8)=32.
        let rows = exec("select a, b, c, sum(v), count(*) from g group by a, b, c order by a");
        assert_eq!(rows.len(), 5, "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t1,\t7,\t1,\t1 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t1,\t8,\t2,\t1 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"x\",\t2,\t7,\t4,\t1 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"y\",\t2,\t7,\t24,\t2 ]".to_string()), "{rows:?}");
        assert!(rows.contains(&"[ \"y\",\t2,\t8,\t32,\t1 ]".to_string()), "{rows:?}");
    }

    #[test]
    fn order_by_desc_and_limit() {
        let out = run("select amount from c order by amount desc limit 2");
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines, vec!["[ 40 ]", "[ 30 ]"], "{out}");
    }

    #[test]
    fn three_way_join() {
        // t ⋈ c ⋈ sales via amounts equality: c.amount vs sales.amount
        // shares no values, so expect an empty result, but the plan must
        // compile and run.
        let out = run(
            "select sales.region from t, c, sales where c.t_id = t.id and c.amount = sales.amount",
        );
        let rows = out.lines().filter(|l| l.starts_with('[')).count();
        assert_eq!(rows, 0, "{out}");
    }

    #[test]
    fn dc_optimizer_applies_to_generated_plans() {
        let (catalog, store) = setup();
        let prog =
            crate::compile_sql_dc("select c.t_id from t, c where c.t_id = t.id", &catalog).unwrap();
        assert!(prog.instrs[0].is("datacyclotron", "request"), "{prog}");
        assert!(prog.instrs.iter().any(|i| i.is("datacyclotron", "pin")));
        assert!(prog.instrs.iter().any(|i| i.is("datacyclotron", "unpin")));
        // And it still runs (LocalHooks path).
        let ctx = SessionCtx::new(Arc::new(RwLock::new(catalog)), store);
        run_sequential(&prog, &ctx).unwrap();
        assert_eq!(ctx.take_output().matches("[ 2 ]").count(), 2);
    }

    #[test]
    fn error_paths() {
        let (catalog, _) = setup();
        for bad in [
            "select x from nope",
            "select ghost from t",
            "select id from t, c",                      // cross product
            "select region from sales group by region", // group-by without aggregates
            "select amount, sum(amount) from sales group by region", // non-key column
            "select id from t order by ghost",
        ] {
            assert!(compile_sql(bad, &catalog).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn create_insert_select_full_cycle() {
        // Statements run against one shared session (LocalHooks).
        let catalog = Arc::new(RwLock::new(Catalog::new()));
        let store = Arc::new(RwLock::new(BatStore::new()));
        let ctx = SessionCtx::new(Arc::clone(&catalog), Arc::clone(&store));

        let run_stmt = |sql: &str, ctx: &SessionCtx| {
            let prog = {
                let cat = catalog.read();
                compile_sql(sql, &cat).unwrap_or_else(|e| panic!("{sql}: {e}"))
            };
            run_sequential(&prog, ctx).unwrap_or_else(|e| panic!("{sql}:\n{prog}\n{e}"));
            ctx.take_output()
        };

        let out = run_stmt("create table logs (k int, msg varchar(16))", &ctx);
        assert!(out.contains("created"), "{out}");
        let out = run_stmt("insert into logs values (1, 'boot'), (2, 'ready')", &ctx);
        assert!(out.contains("2 rows affected"), "{out}");
        // Explicit column list in a different order.
        let out = run_stmt("insert into logs (msg, k) values ('late', 3)", &ctx);
        assert!(out.contains("1 rows affected"), "{out}");
        let out = run_stmt("select msg from logs where k >= 2 order by msg", &ctx);
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(rows, vec!["[ \"late\" ]", "[ \"ready\" ]"], "{out}");
    }

    #[test]
    fn insert_error_paths() {
        let (catalog, _) = setup();
        for bad in [
            "insert into ghost values (1)",
            "insert into c values (1)",                  // arity vs table
            "insert into c (t_id) values (1)",           // partial column list
            "insert into c (t_id, ghost) values (1, 2)", // unknown column
        ] {
            assert!(compile_sql(bad, &catalog).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn insert_survives_cse_and_dc_optimize() {
        // Identical literals across columns/rows must not corrupt the
        // plan when CSE merges the pure bat.* calls, and dc_optimize must
        // pass DDL/DML through untouched.
        let catalog = Arc::new(RwLock::new(Catalog::new()));
        let store = Arc::new(RwLock::new(BatStore::new()));
        let ctx = SessionCtx::new(Arc::clone(&catalog), Arc::clone(&store));
        {
            let prog = compile_sql("create table p (a int, b int)", &catalog.read()).unwrap();
            run_sequential(&prog, &ctx).unwrap();
        }
        let prog = {
            let cat = catalog.read();
            let p = compile_sql("insert into p values (7, 7), (7, 7)", &cat).unwrap();
            let p = mal::common_subexpression_eliminate(&p);
            mal::dc_optimize(&p)
        };
        run_sequential(&prog, &ctx).unwrap();
        assert!(ctx.take_output().contains("2 rows affected"));
        let key = catalog.read().bind("sys", "p", "b").unwrap();
        let b = ctx.store.read().get(key).unwrap();
        assert_eq!(b.count(), 2);
        assert_eq!(b.bun(1).1, Val::Int(7));
    }

    #[test]
    fn update_delete_full_cycle() {
        let catalog = Arc::new(RwLock::new(Catalog::new()));
        let store = Arc::new(RwLock::new(BatStore::new()));
        let ctx = SessionCtx::new(Arc::clone(&catalog), Arc::clone(&store));
        let run_stmt = |sql: &str, ctx: &SessionCtx| {
            let prog = {
                let cat = catalog.read();
                let p = compile_sql(sql, &cat).unwrap_or_else(|e| panic!("{sql}: {e}"));
                let p = mal::common_subexpression_eliminate(&p);
                mal::dc_optimize(&p)
            };
            run_sequential(&prog, ctx).unwrap_or_else(|e| panic!("{sql}:\n{prog}\n{e}"));
            ctx.take_result()
        };

        run_stmt("create table acct (id int, bal lng, tag varchar(8))", &ctx);
        run_stmt("insert into acct values (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')", &ctx);
        // Multi-column UPDATE with a predicate over a third column.
        let rs = run_stmt("update acct set bal = 99, tag = 'hot' where tag = 'a'", &ctx);
        assert_eq!(rs.affected, Some(2));
        let rs = run_stmt("select id, bal, tag from acct where tag = 'hot' order by id", &ctx);
        assert_eq!(rs.row_count(), 2);
        assert_eq!(rs.cell(0, 1), Val::Lng(99));
        assert_eq!(rs.cell(1, 0), Val::Int(3));
        // UPDATE matching nothing affects nothing.
        let rs = run_stmt("update acct set bal = 0 where id = 77", &ctx);
        assert_eq!(rs.affected, Some(0));
        // DELETE with predicate, then unconditional DELETE.
        let rs = run_stmt("delete from acct where id in (1, 3)", &ctx);
        assert_eq!(rs.affected, Some(2));
        let rs = run_stmt("select count(*) from acct", &ctx);
        assert_eq!(rs.cell(0, 0), Val::Lng(1));
        let rs = run_stmt("delete from acct", &ctx);
        assert_eq!(rs.affected, Some(1));
        let rs = run_stmt("select count(*) from acct", &ctx);
        assert_eq!(rs.cell(0, 0), Val::Lng(0));
        // The emptied table still takes inserts.
        let rs = run_stmt("insert into acct values (9, 90, 'z')", &ctx);
        assert_eq!(rs.affected, Some(1));
    }

    #[test]
    fn update_delete_error_paths() {
        let (catalog, _) = setup();
        for bad in [
            "update ghost set a = 1",
            "update c set ghost = 1",
            "update c set amount = 'oops' where ghost = 1", // unknown pred column
            "update c set amount = 1, amount = 2",          // duplicate assignment
            "update c set amount = 1 where t_id = amount",  // column-to-column
            "delete from ghost",
            "delete from c where ghost = 1",
            "delete from c where amount in ()",
        ] {
            assert!(compile_sql(bad, &catalog).is_err(), "should fail: {bad}");
        }
        // The generated plans carry the new sinks.
        let prog = compile_sql("update c set amount = 1 where t_id = 2", &catalog).unwrap();
        assert!(prog.instrs.iter().any(|i| i.is("sql", "update")), "{prog}");
        let prog = compile_sql("delete from c where amount between 1 and 5", &catalog).unwrap();
        assert!(prog.instrs.iter().any(|i| i.is("sql", "delete")), "{prog}");
    }

    #[test]
    fn in_list_predicate() {
        let out = run("select amount from c where t_id in (2, 9)");
        assert!(
            out.contains("[ 10 ]") && out.contains("[ 20 ]") && out.contains("[ 40 ]"),
            "{out}"
        );
        assert!(!out.contains("[ 30 ]"), "{out}");
    }

    #[test]
    fn in_list_strings() {
        let out = run("select amount from sales where region in ('eu', 'ap')");
        // eu: 5, 11; ap: 13.
        assert!(out.contains("[ 5 ]") && out.contains("[ 11 ]") && out.contains("[ 13 ]"), "{out}");
        assert!(!out.contains("[ 7 ]"), "{out}");
    }

    #[test]
    fn select_distinct_single_column() {
        let out = run("select distinct region from sales order by region");
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines, vec!["[ \"ap\" ]", "[ \"eu\" ]", "[ \"us\" ]"], "{out}");
    }

    #[test]
    fn select_distinct_multi_column() {
        let out = run("select distinct t_id, amount from c where amount > 5");
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines.len(), 4, "all rows unique here: {out}");
    }

    #[test]
    fn multi_column_group_by() {
        // Rows: (eu,5) (us,7) (eu,11) (ap,13) (us,17); add a second key
        // via parity of amount to force refinement.
        let out = run(
            "select region, sum(amount), count(*) from sales group by region, amount order by region",
        );
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines.len(), 5, "each (region, amount) pair is distinct: {out}");
        assert!(lines.iter().any(|l| l.contains("ap") && l.contains("13")), "{out}");
    }

    #[test]
    fn multi_group_by_aggregates_merge_duplicates() {
        let (catalog, store) = setup();
        // duplicate (region, amount) pairs via a dedicated table.
        let mut store2 = BatStore::new();
        let mut catalog2 = Catalog::new();
        catalog2
            .create_table_columnar(
                &mut store2,
                "sys",
                "pairs",
                vec![
                    ("a", Column::from(vec!["x", "x", "y", "x"])),
                    ("b", Column::from(vec![1, 1, 1, 2])),
                    ("v", Column::from(vec![10, 20, 30, 40])),
                ],
            )
            .unwrap();
        let prog = compile_sql("select a, b, sum(v), count(*) from pairs group by a, b", &catalog2)
            .unwrap();
        let ctx = SessionCtx::new(Arc::new(RwLock::new(catalog2)), Arc::new(RwLock::new(store2)));
        run_sequential(&prog, &ctx).unwrap();
        let out = ctx.take_output();
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(lines.len(), 3, "(x,1) (y,1) (x,2): {out}");
        assert!(
            lines.iter().any(|l| l.contains("\"x\"") && l.contains("30") && l.contains("2")),
            "x,1 → sum 30 count 2: {out}"
        );
        let _ = (catalog, store);
    }

    #[test]
    fn ambiguous_bare_column_rejected() {
        let (catalog, _) = setup();
        // `amount` exists in both c and sales.
        assert!(compile_sql("select amount from c, sales where c.amount = sales.amount", &catalog)
            .is_err());
    }

    #[test]
    fn select_star_expands_to_declared_columns() {
        let out = run("select * from c where amount > 25");
        // Both columns of `c`, in declared order (t_id, amount).
        assert!(out.contains("3") && out.contains("30"), "{out}");
        assert!(out.contains("9") && out.contains("40"), "{out}");
        assert!(!out.contains("20"), "{out}");
    }

    #[test]
    fn select_star_with_filter_and_order() {
        let out = run("select * from sales order by amount desc limit 2");
        assert!(out.contains("17") && out.contains("13"), "{out}");
        assert!(!out.contains("11"), "{out}");
    }

    #[test]
    fn select_star_rejected_with_aggregates() {
        let (catalog, _) = setup();
        let e = compile_sql("select *, count(*) from c", &catalog).unwrap_err();
        assert!(e.to_string().contains("cannot be mixed"), "{e}");
    }

    #[test]
    fn dc_sysview_lowers_to_single_sink() {
        let (catalog, _) = setup();
        let prog = compile_sql("select * from dc.stats", &catalog).unwrap();
        assert_eq!(prog.instrs.len(), 1, "{prog}");
        assert_eq!(prog.instrs[0].qualified_name(), "sql.sysview");
    }

    #[test]
    fn dc_sysview_projection_validated_at_compile_time() {
        let (catalog, _) = setup();
        // Valid column subset compiles.
        assert!(compile_sql("select name, value from dc.stats", &catalog).is_ok());
        assert!(compile_sql("select name, p99_us from dc.latency", &catalog).is_ok());
        assert!(compile_sql("select epoch, stmt, event from dc.trace", &catalog).is_ok());
        assert!(compile_sql("select bat, state, loi from dc.hotset", &catalog).is_ok());
        // Unknown column and unknown view are compile errors.
        assert!(compile_sql("select bogus from dc.stats", &catalog).is_err());
        assert!(compile_sql("select * from dc.nope", &catalog).is_err());
        // Anything beyond plain projection is rejected.
        assert!(compile_sql("select * from dc.stats where name = 'x'", &catalog).is_err());
        assert!(compile_sql("select count(*) from dc.stats", &catalog).is_err());
    }
}

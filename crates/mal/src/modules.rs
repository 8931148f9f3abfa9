//! The built-in MAL modules, bound to the `batstore` kernel and the Data
//! Cyclotron hooks. Function names follow MonetDB's `module.function`
//! convention as printed in the paper's plans.

use crate::context::SessionCtx;
use crate::error::{MalError, Result};
use crate::value::{MVal, ResultSet};
use batstore::{ops, Bat, Val};
use std::collections::HashMap;
use std::sync::Arc;

/// A native operator implementation. Receives resolved argument values,
/// returns the values for the instruction's targets (usually one).
pub type NativeFn = Arc<dyn Fn(&SessionCtx, &[MVal]) -> Result<Vec<MVal>> + Send + Sync>;

/// The module registry: `(module, function) → implementation`.
pub struct Registry {
    fns: HashMap<(String, String), NativeFn>,
}

impl Registry {
    pub fn empty() -> Self {
        Registry { fns: HashMap::new() }
    }

    pub fn register(
        &mut self,
        module: &str,
        func: &str,
        f: impl Fn(&SessionCtx, &[MVal]) -> Result<Vec<MVal>> + Send + Sync + 'static,
    ) {
        self.fns.insert((module.to_string(), func.to_string()), Arc::new(f));
    }

    pub fn lookup(&self, module: &str, func: &str) -> Option<&NativeFn> {
        // Avoid allocating on the hot path: (module, func) keyed lookup
        // via a borrowed tuple is not possible with String keys, so keep a
        // scratch key. Lookup cost is dominated by the hash anyway.
        self.fns.get(&(module.to_string(), func.to_string()))
    }

    pub fn len(&self) -> usize {
        self.fns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// The standard library: everything the paper's plans and the SQL
    /// front-end emit.
    pub fn standard() -> Self {
        let mut r = Registry::empty();
        register_sql(&mut r);
        register_bat_algebra(&mut r);
        register_aggregates(&mut r);
        register_io(&mut r);
        register_datacyclotron(&mut r);
        r
    }
}

// ---- argument helpers -------------------------------------------------

fn want(args: &[MVal], n: usize, name: &str) -> Result<()> {
    if args.len() != n {
        return Err(MalError::BadCall(format!("{name}: expected {n} args, got {}", args.len())));
    }
    Ok(())
}

fn arg_bat<'a>(args: &'a [MVal], i: usize, name: &str) -> Result<&'a Arc<Bat>> {
    args[i].as_bat().ok_or_else(|| {
        MalError::BadCall(format!("{name}: arg {i} must be a BAT, got {:?}", args[i]))
    })
}

fn arg_int(args: &[MVal], i: usize, name: &str) -> Result<i64> {
    args[i]
        .as_int()
        .ok_or_else(|| MalError::BadCall(format!("{name}: arg {i} must be int, got {:?}", args[i])))
}

fn arg_str<'a>(args: &'a [MVal], i: usize, name: &str) -> Result<&'a str> {
    args[i]
        .as_str()
        .ok_or_else(|| MalError::BadCall(format!("{name}: arg {i} must be str, got {:?}", args[i])))
}

/// Constant MAL value → kernel scalar for selections.
fn arg_val(args: &[MVal], i: usize, name: &str) -> Result<Val> {
    Ok(match &args[i] {
        MVal::Int(v) => {
            // Narrow to Int when it fits so comparisons against int
            // columns take the exact-type fast path.
            if let Ok(small) = i32::try_from(*v) {
                Val::Int(small)
            } else {
                Val::Lng(*v)
            }
        }
        MVal::Dbl(v) => Val::Dbl(*v),
        MVal::Str(s) => Val::Str(s.clone()),
        MVal::Oid(o) => Val::Oid(*o),
        MVal::Bool(b) => Val::Bool(*b),
        other => {
            return Err(MalError::BadCall(format!("{name}: arg {i} must be scalar, got {other:?}")))
        }
    })
}

/// Decode the flat predicate encoding the SQL front-end emits into
/// `sql.update`/`sql.delete` calls, starting at arg `i`:
///
/// ```text
/// "cmp", column, op-symbol, literal
/// "between", column, lo, hi
/// "in", column, n, v1, …, vn
/// ```
fn parse_predicates(
    args: &[MVal],
    mut i: usize,
    name: &str,
) -> Result<Vec<batstore::RowPredicate>> {
    use batstore::RowPredicate;
    let mut preds = Vec::new();
    while i < args.len() {
        let kind = arg_str(args, i, name)?;
        match kind {
            "cmp" => {
                if args.len() < i + 4 {
                    return Err(MalError::BadCall(format!("{name}: truncated cmp predicate")));
                }
                let column = arg_str(args, i + 1, name)?.to_string();
                let sym = arg_str(args, i + 2, name)?;
                let op = batstore::ops::CmpOp::from_symbol(sym)
                    .ok_or_else(|| MalError::BadCall(format!("{name}: bad op '{sym}'")))?;
                let value = arg_val(args, i + 3, name)?;
                preds.push(RowPredicate::Cmp { column, op, value });
                i += 4;
            }
            "between" => {
                if args.len() < i + 4 {
                    return Err(MalError::BadCall(format!("{name}: truncated between predicate")));
                }
                preds.push(RowPredicate::Between {
                    column: arg_str(args, i + 1, name)?.to_string(),
                    lo: arg_val(args, i + 2, name)?,
                    hi: arg_val(args, i + 3, name)?,
                });
                i += 4;
            }
            "in" => {
                if args.len() < i + 3 {
                    return Err(MalError::BadCall(format!("{name}: truncated in predicate")));
                }
                let column = arg_str(args, i + 1, name)?.to_string();
                let n = arg_int(args, i + 2, name)?.max(0) as usize;
                if args.len() < i + 3 + n {
                    return Err(MalError::BadCall(format!("{name}: in-list claims {n} values")));
                }
                let mut values = Vec::with_capacity(n);
                for k in 0..n {
                    values.push(arg_val(args, i + 3 + k, name)?);
                }
                preds.push(RowPredicate::InList { column, values });
                i += 3 + n;
            }
            other => {
                return Err(MalError::BadCall(format!("{name}: unknown predicate kind '{other}'")))
            }
        }
    }
    Ok(preds)
}

fn one(v: MVal) -> Result<Vec<MVal>> {
    Ok(vec![v])
}

fn bat(b: Bat) -> Result<Vec<MVal>> {
    one(MVal::Bat(Arc::new(b)))
}

/// Row positions in the dense BAT `base` named by the head oids of a
/// selection result over it (sorted, deduplicated).
fn selection_rows(base: &Bat, sel: &Bat, name: &str) -> Result<Vec<usize>> {
    let seq = match base.head() {
        batstore::Column::Void { seq, .. } => *seq,
        _ => return Err(MalError::BadCall(format!("{name}: base BAT must be dense"))),
    };
    let mut rows = Vec::with_capacity(sel.count());
    for i in 0..sel.count() {
        let oid = sel
            .head()
            .oid_at(i)
            .ok_or_else(|| MalError::BadCall(format!("{name}: selection head must carry oids")))?;
        if oid < seq {
            return Err(MalError::BadCall(format!(
                "{name}: oid {oid} below the base sequence {seq}"
            )));
        }
        rows.push((oid - seq) as usize);
    }
    rows.sort_unstable();
    rows.dedup();
    Ok(rows)
}

// ---- sql module -------------------------------------------------------

fn register_sql(r: &mut Registry) {
    // sql.bind(schema, table, column, access) — resolve a persistent BAT.
    r.register("sql", "bind", |ctx, args| {
        want(args, 4, "sql.bind")?;
        let (schema, table, column) = (
            arg_str(args, 0, "sql.bind")?,
            arg_str(args, 1, "sql.bind")?,
            arg_str(args, 2, "sql.bind")?,
        );
        let key = ctx.catalog.read().bind(schema, table, column)?;
        let b = ctx.store.read().get(key)?;
        one(MVal::Bat(b))
    });

    // sql.createTable(schema, table, "name:type,…") — DDL routed through
    // the Data Cyclotron seam so ring nodes take ownership of the new
    // (empty) column fragments and replicate the metadata.
    r.register("sql", "createTable", |ctx, args| {
        want(args, 3, "sql.createTable")?;
        let (schema, table, spec) = (
            arg_str(args, 0, "sql.createTable")?,
            arg_str(args, 1, "sql.createTable")?,
            arg_str(args, 2, "sql.createTable")?,
        );
        let mut cols = Vec::new();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (name, ty) = part
                .split_once(':')
                .ok_or_else(|| MalError::BadCall(format!("bad column spec '{part}'")))?;
            let ty = batstore::ColType::from_name(ty)
                .ok_or_else(|| MalError::BadCall(format!("unknown column type '{ty}'")))?;
            cols.push((name.to_string(), ty));
        }
        ctx.hooks().create_table(ctx.query_id, schema, table, &cols)?;
        ctx.set_result(batstore::ResultSet::with_info(format!("table {schema}.{table} created\n")));
        Ok(vec![])
    });

    // sql.append(schema, table, "c1,c2,…", bat1, bat2, …) — one call per
    // INSERT so the row batch reaches the seam atomically.
    r.register("sql", "append", |ctx, args| {
        if args.len() < 4 {
            return Err(MalError::BadCall("sql.append: expected at least 4 args".into()));
        }
        let (schema, table, names) = (
            arg_str(args, 0, "sql.append")?,
            arg_str(args, 1, "sql.append")?,
            arg_str(args, 2, "sql.append")?,
        );
        let names: Vec<&str> = names.split(',').filter(|n| !n.is_empty()).collect();
        if names.len() != args.len() - 3 {
            return Err(MalError::BadCall(format!(
                "sql.append: {} column names but {} BATs",
                names.len(),
                args.len() - 3
            )));
        }
        let mut cols = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let b = arg_bat(args, i + 3, "sql.append")?;
            cols.push((name.to_string(), b.tail().clone()));
        }
        let n = ctx.hooks().append_rows(ctx.query_id, schema, table, &cols)?;
        ctx.set_result(batstore::ResultSet::with_affected(n));
        Ok(vec![])
    });

    // sql.update(schema, table, "c1,c2,…", v1, v2, …, <predicates>) —
    // one call per UPDATE statement. The assignment values follow the
    // column-name list in order; the flat predicate encoding (see
    // `parse_predicates`) carries the WHERE conjuncts to the seam, which
    // routes the *logical* mutation to the fragment owner (§6.4).
    r.register("sql", "update", |ctx, args| {
        if args.len() < 4 {
            return Err(MalError::BadCall("sql.update: expected at least 4 args".into()));
        }
        let (schema, table, names) = (
            arg_str(args, 0, "sql.update")?,
            arg_str(args, 1, "sql.update")?,
            arg_str(args, 2, "sql.update")?,
        );
        let names: Vec<&str> = names.split(',').filter(|n| !n.is_empty()).collect();
        if names.is_empty() {
            return Err(MalError::BadCall("sql.update: empty assignment list".into()));
        }
        if args.len() < 3 + names.len() {
            return Err(MalError::BadCall(format!(
                "sql.update: {} assignments but only {} args",
                names.len(),
                args.len()
            )));
        }
        let mut assigns = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            assigns.push((name.to_string(), arg_val(args, i + 3, "sql.update")?));
        }
        let preds = parse_predicates(args, 3 + names.len(), "sql.update")?;
        let n = ctx.hooks().update_rows(ctx.query_id, schema, table, &assigns, &preds)?;
        ctx.set_result(batstore::ResultSet::with_affected(n));
        Ok(vec![])
    });

    // sql.delete(schema, table, <predicates>) — one call per DELETE
    // statement; no predicates means every row.
    r.register("sql", "delete", |ctx, args| {
        if args.len() < 2 {
            return Err(MalError::BadCall("sql.delete: expected at least 2 args".into()));
        }
        let (schema, table) = (arg_str(args, 0, "sql.delete")?, arg_str(args, 1, "sql.delete")?);
        let preds = parse_predicates(args, 2, "sql.delete")?;
        let n = ctx.hooks().delete_rows(ctx.query_id, schema, table, &preds)?;
        ctx.set_result(batstore::ResultSet::with_affected(n));
        Ok(vec![])
    });

    // sql.sysview(view, "c1,c2,…"|"*") — materialize a read-only `dc.*`
    // system view (stats/latency/trace) from the node's live telemetry
    // through the seam, optionally projecting a subset of its columns in
    // the requested order.
    r.register("sql", "sysview", |ctx, args| {
        want(args, 2, "sql.sysview")?;
        let (view, proj) = (arg_str(args, 0, "sql.sysview")?, arg_str(args, 1, "sql.sysview")?);
        let rs = ctx.hooks().sys_view(ctx.query_id, view)?;
        let rs = if proj == "*" {
            rs
        } else {
            let mut out = batstore::ResultSet::new();
            for name in proj.split(',').filter(|c| !c.is_empty()) {
                let col = rs.columns.iter().find(|c| c.name == name).ok_or_else(|| {
                    MalError::BadCall(format!("dc.{view} has no column '{name}'"))
                })?;
                out.columns.push(col.clone());
            }
            out
        };
        ctx.set_result(rs);
        Ok(vec![])
    });

    // sql.resultSet(ncols, special, b) — allocate a result set.
    r.register("sql", "resultSet", |_ctx, args| {
        if args.len() < 3 {
            return Err(MalError::BadCall("sql.resultSet: expected 3 args".into()));
        }
        one(MVal::ResultSet(ResultSet::new()))
    });

    // sql.rsCol(rs, table, column, type, digits, scale, b) — append a column.
    r.register("sql", "rsCol", |_ctx, args| {
        want(args, 7, "sql.rsCol")?;
        let MVal::ResultSet(rs) = &args[0] else {
            return Err(MalError::BadCall("sql.rsCol: arg 0 must be a result set".into()));
        };
        let table = arg_str(args, 1, "sql.rsCol")?;
        let column = arg_str(args, 2, "sql.rsCol")?;
        let ty = arg_str(args, 3, "sql.rsCol")?;
        let data = arg_bat(args, 6, "sql.rsCol")?;
        rs.add_column(table, column, ty, Arc::clone(data));
        Ok(vec![])
    });

    // sql.exportResult(stream, rs) — publish the typed result to the
    // session. No text is produced here: the session's consumer renders
    // (or wires) the columns as it sees fit.
    r.register("sql", "exportResult", |ctx, args| {
        want(args, 2, "sql.exportResult")?;
        let MVal::ResultSet(rs) = &args[1] else {
            return Err(MalError::BadCall("sql.exportResult: arg 1 must be a result set".into()));
        };
        ctx.set_result(rs.snapshot());
        Ok(vec![])
    });
}

// ---- bat / algebra modules --------------------------------------------

fn register_bat_algebra(r: &mut Registry) {
    r.register("bat", "reverse", |_ctx, args| {
        want(args, 1, "bat.reverse")?;
        bat(ops::reverse(arg_bat(args, 0, "bat.reverse")?))
    });

    r.register("bat", "mirror", |_ctx, args| {
        want(args, 1, "bat.mirror")?;
        bat(ops::mirror(arg_bat(args, 0, "bat.mirror")?))
    });

    // bat.pack(v[, typename]) — a single-BUN BAT from a scalar; used to
    // ship whole-column aggregates into result sets. The optional type
    // name pins the column to the *declared* aggregate type (COUNT is
    // always `lng`), so a typed result's schema does not wobble with the
    // magnitude of the value.
    r.register("bat", "pack", |_ctx, args| {
        if args.is_empty() || args.len() > 2 {
            return Err(MalError::BadCall("bat.pack: expected 1 or 2 args".into()));
        }
        let v = arg_val(args, 0, "bat.pack")?;
        let ty = match args.get(1) {
            Some(_) => {
                let name = arg_str(args, 1, "bat.pack")?;
                batstore::ColType::from_name(name)
                    .ok_or_else(|| MalError::BadCall(format!("bat.pack: unknown type '{name}'")))?
            }
            None => {
                v.col_type().ok_or_else(|| MalError::BadCall("bat.pack: nil has no type".into()))?
            }
        };
        let mut col = batstore::Column::empty(ty);
        col.push(&v)?;
        bat(Bat::dense(col))
    });

    // bat.new(typename) — empty dense BAT of the named tail type; the
    // seed of INSERT codegen's per-column row batches, so every literal
    // coerces into the declared column type.
    r.register("bat", "new", |_ctx, args| {
        want(args, 1, "bat.new")?;
        let ty = arg_str(args, 0, "bat.new")?;
        let ty = batstore::ColType::from_name(ty)
            .ok_or_else(|| MalError::BadCall(format!("bat.new: unknown type '{ty}'")))?;
        bat(Bat::empty(ty))
    });

    // bat.literal(typename, v1, …, vn) — a dense BAT of the listed
    // values. INSERT codegen emits one per column so an n-row batch is
    // a single O(n) instruction (a bat.append chain would be O(n²)).
    r.register("bat", "literal", |_ctx, args| {
        if args.is_empty() {
            return Err(MalError::BadCall("bat.literal: expected a type name".into()));
        }
        let ty = arg_str(args, 0, "bat.literal")?;
        let ty = batstore::ColType::from_name(ty)
            .ok_or_else(|| MalError::BadCall(format!("bat.literal: unknown type '{ty}'")))?;
        let mut col = batstore::Column::empty(ty);
        for i in 1..args.len() {
            col.push(&arg_val(args, i, "bat.literal")?)?;
        }
        bat(Bat::dense(col))
    });

    // bat.append(b, v) — functional append: a new dense BAT with `v` at
    // the end.
    r.register("bat", "append", |_ctx, args| {
        want(args, 2, "bat.append")?;
        let b = arg_bat(args, 0, "bat.append")?;
        let v = arg_val(args, 1, "bat.append")?;
        let mut add = batstore::Column::empty(b.tail_type());
        add.push(&v)?;
        bat(b.extend_tail(&add)?)
    });

    // bat.replace(b, sel, v) — selective mutation: a new dense BAT with
    // `v` written at the rows `sel` picked out of `b` (a selection
    // result whose head oids reference `b`'s rows). The kernel behind
    // the UPDATE sink's owner-side rewrite.
    r.register("bat", "replace", |_ctx, args| {
        want(args, 3, "bat.replace")?;
        let b = arg_bat(args, 0, "bat.replace")?;
        let sel = arg_bat(args, 1, "bat.replace")?;
        let v = arg_val(args, 2, "bat.replace")?;
        let rows = selection_rows(b, sel, "bat.replace")?;
        bat(ops::scatter_const(b, &rows, &v)?)
    });

    // bat.delete(b, sel) — selective deletion: a new dense BAT without
    // the rows `sel` picked out of `b`. The kernel behind the DELETE
    // sink's owner-side shrink.
    r.register("bat", "delete", |_ctx, args| {
        want(args, 2, "bat.delete")?;
        let b = arg_bat(args, 0, "bat.delete")?;
        let sel = arg_bat(args, 1, "bat.delete")?;
        let rows = selection_rows(b, sel, "bat.delete")?;
        bat(ops::erase_rows(b, &rows)?)
    });

    r.register("algebra", "select", |_ctx, args| {
        want(args, 3, "algebra.select")?;
        let b = arg_bat(args, 0, "algebra.select")?;
        let lo = arg_val(args, 1, "algebra.select")?;
        let hi = arg_val(args, 2, "algebra.select")?;
        bat(ops::select_range(b, &lo, &hi)?)
    });

    r.register("algebra", "uselect", |_ctx, args| {
        want(args, 2, "algebra.uselect")?;
        let b = arg_bat(args, 0, "algebra.uselect")?;
        let v = arg_val(args, 1, "algebra.uselect")?;
        bat(ops::uselect(b, &v)?)
    });

    // algebra.thetauselect(b, v, "<=") — general comparison select.
    r.register("algebra", "thetauselect", |_ctx, args| {
        want(args, 3, "algebra.thetauselect")?;
        let b = arg_bat(args, 0, "algebra.thetauselect")?;
        let v = arg_val(args, 1, "algebra.thetauselect")?;
        let sym = arg_str(args, 2, "algebra.thetauselect")?;
        let op = ops::CmpOp::from_symbol(sym)
            .ok_or_else(|| MalError::BadCall(format!("thetauselect: bad op '{sym}'")))?;
        bat(ops::theta_select(b, op, &v)?)
    });

    r.register("algebra", "join", |_ctx, args| {
        want(args, 2, "algebra.join")?;
        bat(ops::join(arg_bat(args, 0, "algebra.join")?, arg_bat(args, 1, "algebra.join")?)?)
    });

    r.register("algebra", "leftjoin", |_ctx, args| {
        want(args, 2, "algebra.leftjoin")?;
        bat(ops::leftjoin(
            arg_bat(args, 0, "algebra.leftjoin")?,
            arg_bat(args, 1, "algebra.leftjoin")?,
        )?)
    });

    r.register("algebra", "semijoin", |_ctx, args| {
        want(args, 2, "algebra.semijoin")?;
        bat(ops::semijoin(
            arg_bat(args, 0, "algebra.semijoin")?,
            arg_bat(args, 1, "algebra.semijoin")?,
        )?)
    });

    r.register("algebra", "kdifference", |_ctx, args| {
        want(args, 2, "algebra.kdifference")?;
        bat(ops::kdifference(
            arg_bat(args, 0, "algebra.kdifference")?,
            arg_bat(args, 1, "algebra.kdifference")?,
        )?)
    });

    r.register("algebra", "kunion", |_ctx, args| {
        want(args, 2, "algebra.kunion")?;
        bat(ops::kunion(arg_bat(args, 0, "algebra.kunion")?, arg_bat(args, 1, "algebra.kunion")?)?)
    });

    // algebra.tunique(b) — distinct tail values (SELECT DISTINCT kernel).
    r.register("algebra", "tunique", |_ctx, args| {
        want(args, 1, "algebra.tunique")?;
        bat(ops::distinct(arg_bat(args, 0, "algebra.tunique")?))
    });

    r.register("algebra", "markT", |_ctx, args| {
        want(args, 2, "algebra.markT")?;
        let b = arg_bat(args, 0, "algebra.markT")?;
        let base = arg_int(args, 1, "algebra.markT")? as u64;
        bat(ops::mark_tail(b, base))
    });

    r.register("algebra", "markH", |_ctx, args| {
        want(args, 2, "algebra.markH")?;
        let b = arg_bat(args, 0, "algebra.markH")?;
        let base = arg_int(args, 1, "algebra.markH")? as u64;
        bat(ops::mark_head(b, base))
    });

    r.register("algebra", "slice", |_ctx, args| {
        want(args, 3, "algebra.slice")?;
        let b = arg_bat(args, 0, "algebra.slice")?;
        let lo = arg_int(args, 1, "algebra.slice")?.max(0) as usize;
        let hi = arg_int(args, 2, "algebra.slice")?.max(0) as usize;
        bat(ops::slice(b, lo, hi))
    });

    r.register("algebra", "sortTail", |_ctx, args| {
        want(args, 1, "algebra.sortTail")?;
        bat(ops::sort_tail(arg_bat(args, 0, "algebra.sortTail")?, false))
    });

    r.register("algebra", "sortReverseTail", |_ctx, args| {
        want(args, 1, "algebra.sortReverseTail")?;
        bat(ops::sort_tail(arg_bat(args, 0, "algebra.sortReverseTail")?, true))
    });

    // algebra.firstn(b, n, asc) — ORDER BY + LIMIT kernel.
    r.register("algebra", "firstn", |_ctx, args| {
        want(args, 3, "algebra.firstn")?;
        let b = arg_bat(args, 0, "algebra.firstn")?;
        let n = arg_int(args, 1, "algebra.firstn")?.max(0) as usize;
        let asc = arg_int(args, 2, "algebra.firstn")? != 0;
        bat(ops::topn(b, n, !asc)?)
    });

    // algebra.project(b, const) — constant tail aligned with b.
    r.register("algebra", "project", |_ctx, args| {
        want(args, 2, "algebra.project")?;
        let b = arg_bat(args, 0, "algebra.project")?;
        let v = arg_val(args, 1, "algebra.project")?;
        bat(ops::project_const(b, &v)?)
    });
}

// ---- aggregates -------------------------------------------------------

fn register_aggregates(r: &mut Registry) {
    r.register("aggr", "count", |_ctx, args| {
        want(args, 1, "aggr.count")?;
        one(MVal::Int(ops::count(arg_bat(args, 0, "aggr.count")?) as i64))
    });

    r.register("aggr", "sum", |_ctx, args| {
        want(args, 1, "aggr.sum")?;
        one(MVal::from_val(ops::sum(arg_bat(args, 0, "aggr.sum")?)?))
    });

    r.register("aggr", "min", |_ctx, args| {
        want(args, 1, "aggr.min")?;
        one(MVal::from_val(ops::min(arg_bat(args, 0, "aggr.min")?)))
    });

    r.register("aggr", "max", |_ctx, args| {
        want(args, 1, "aggr.max")?;
        one(MVal::from_val(ops::max(arg_bat(args, 0, "aggr.max")?)))
    });

    r.register("aggr", "avg", |_ctx, args| {
        want(args, 1, "aggr.avg")?;
        one(MVal::from_val(ops::avg(arg_bat(args, 0, "aggr.avg")?)?))
    });

    // group.new(b) → (grp: head→groupid, ext: groupid→representative).
    r.register("group", "new", |_ctx, args| {
        want(args, 1, "group.new")?;
        let (grp, ext) = ops::group_by(arg_bat(args, 0, "group.new")?);
        Ok(vec![MVal::Bat(Arc::new(grp)), MVal::Bat(Arc::new(ext))])
    });

    // group.derive(b, grp) → (grp', ext'): refine a grouping by a further
    // column (multi-column GROUP BY). ext' maps group → representative
    // row position.
    r.register("group", "derive", |_ctx, args| {
        want(args, 2, "group.derive")?;
        let (grp, ext) = ops::group_derive(
            arg_bat(args, 0, "group.derive")?,
            arg_bat(args, 1, "group.derive")?,
        )?;
        Ok(vec![MVal::Bat(Arc::new(grp)), MVal::Bat(Arc::new(ext))])
    });

    // Grouped aggregates: aggr.<f>For(vals, grp, ngroups).
    r.register("aggr", "sumFor", |_ctx, args| {
        want(args, 3, "aggr.sumFor")?;
        let vals = arg_bat(args, 0, "aggr.sumFor")?;
        let grp = arg_bat(args, 1, "aggr.sumFor")?;
        let n = arg_int(args, 2, "aggr.sumFor")?.max(0) as usize;
        bat(ops::grouped_sum(vals, grp, n)?)
    });

    r.register("aggr", "countFor", |_ctx, args| {
        want(args, 2, "aggr.countFor")?;
        let grp = arg_bat(args, 0, "aggr.countFor")?;
        let n = arg_int(args, 1, "aggr.countFor")?.max(0) as usize;
        bat(ops::grouped_count(grp, n)?)
    });

    r.register("aggr", "avgFor", |_ctx, args| {
        want(args, 3, "aggr.avgFor")?;
        let vals = arg_bat(args, 0, "aggr.avgFor")?;
        let grp = arg_bat(args, 1, "aggr.avgFor")?;
        let n = arg_int(args, 2, "aggr.avgFor")?.max(0) as usize;
        bat(ops::grouped_avg(vals, grp, n)?)
    });

    r.register("aggr", "minFor", |_ctx, args| {
        want(args, 3, "aggr.minFor")?;
        let vals = arg_bat(args, 0, "aggr.minFor")?;
        let grp = arg_bat(args, 1, "aggr.minFor")?;
        let n = arg_int(args, 2, "aggr.minFor")?.max(0) as usize;
        bat(ops::grouped_min(vals, grp, n)?)
    });

    r.register("aggr", "maxFor", |_ctx, args| {
        want(args, 3, "aggr.maxFor")?;
        let vals = arg_bat(args, 0, "aggr.maxFor")?;
        let grp = arg_bat(args, 1, "aggr.maxFor")?;
        let n = arg_int(args, 2, "aggr.maxFor")?.max(0) as usize;
        bat(ops::grouped_max(vals, grp, n)?)
    });
}

// ---- io ---------------------------------------------------------------

fn register_io(r: &mut Registry) {
    r.register("io", "stdout", |_ctx, args| {
        want(args, 0, "io.stdout")?;
        one(MVal::Stream)
    });

    r.register("io", "print", |ctx, args| {
        for a in args {
            match a {
                MVal::Bat(b) => ctx.write_output(&b.render(64)),
                MVal::Pinned { bat, .. } => ctx.write_output(&bat.render(64)),
                other => ctx.write_output(&format!("{other:?}\n")),
            }
        }
        Ok(vec![])
    });
}

// ---- datacyclotron ----------------------------------------------------

fn register_datacyclotron(r: &mut Registry) {
    // datacyclotron.request(schema, table, column, access) → ticket.
    // Non-blocking (§4.1: "Unlike the pin() call, the request() and
    // unpin() calls do not block threads").
    r.register("datacyclotron", "request", |ctx, args| {
        want(args, 4, "datacyclotron.request")?;
        let schema = arg_str(args, 0, "datacyclotron.request")?;
        let table = arg_str(args, 1, "datacyclotron.request")?;
        let column = arg_str(args, 2, "datacyclotron.request")?;
        let ticket = ctx.hooks().request(ctx.query_id, schema, table, column)?;
        one(MVal::Ticket(ticket))
    });

    // datacyclotron.pin(ticket) → BAT; blocks until the fragment is
    // available in local memory.
    r.register("datacyclotron", "pin", |ctx, args| {
        want(args, 1, "datacyclotron.pin")?;
        let MVal::Ticket(t) = args[0] else {
            return Err(MalError::BadCall(format!(
                "datacyclotron.pin: arg must be a request ticket, got {:?}",
                args[0]
            )));
        };
        let b = ctx.hooks().pin(ctx.query_id, t)?;
        one(MVal::Pinned { bat: b, ticket: t })
    });

    // datacyclotron.unpin(pinned-bat | ticket).
    r.register("datacyclotron", "unpin", |ctx, args| {
        want(args, 1, "datacyclotron.unpin")?;
        let ticket = match &args[0] {
            MVal::Pinned { ticket, .. } => *ticket,
            MVal::Ticket(t) => *t,
            other => {
                return Err(MalError::BadCall(format!(
                    "datacyclotron.unpin: arg must be pinned BAT or ticket, got {other:?}"
                )))
            }
        };
        ctx.hooks().unpin(ctx.query_id, ticket)?;
        Ok(vec![])
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use batstore::{BatStore, Catalog, Column};
    use parking_lot::RwLock;

    fn ctx() -> SessionCtx {
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
        SessionCtx::new(Arc::new(RwLock::new(catalog)), Arc::new(RwLock::new(store)))
    }

    fn call(r: &Registry, name: (&str, &str), ctx: &SessionCtx, args: &[MVal]) -> Vec<MVal> {
        (r.lookup(name.0, name.1).unwrap())(ctx, args).unwrap()
    }

    #[test]
    fn standard_has_everything_the_paper_plans_use() {
        let r = Registry::standard();
        for (m, f) in [
            ("sql", "bind"),
            ("sql", "resultSet"),
            ("sql", "rsCol"),
            ("sql", "exportResult"),
            ("bat", "reverse"),
            ("algebra", "join"),
            ("algebra", "markT"),
            ("io", "stdout"),
            ("datacyclotron", "request"),
            ("datacyclotron", "pin"),
            ("datacyclotron", "unpin"),
        ] {
            assert!(r.lookup(m, f).is_some(), "missing {m}.{f}");
        }
        assert!(r.len() > 25);
    }

    #[test]
    fn bind_resolves_and_typechecks() {
        let r = Registry::standard();
        let c = ctx();
        let out = call(
            &r,
            ("sql", "bind"),
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("id".into()), MVal::Int(0)],
        );
        assert_eq!(out[0].as_bat().unwrap().count(), 3);
        let err = (r.lookup("sql", "bind").unwrap())(&c, &[MVal::Int(1)]);
        assert!(err.is_err());
    }

    #[test]
    fn dc_request_pin_unpin_roundtrip_local() {
        let r = Registry::standard();
        let c = ctx();
        let t = call(
            &r,
            ("datacyclotron", "request"),
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("id".into()), MVal::Int(0)],
        );
        // LocalHooks are created fresh per hooks() call; pin through a
        // stable hooks instance instead to validate the trait contract.
        let hooks = c.hooks();
        let ticket = hooks.request(0, "sys", "t", "id").unwrap();
        let b = hooks.pin(0, ticket).unwrap();
        assert_eq!(b.count(), 3);
        hooks.unpin(0, ticket).unwrap();
        assert!(matches!(t[0], MVal::Ticket(_)));
    }

    #[test]
    fn select_and_aggregate_chain() {
        let r = Registry::standard();
        let c = ctx();
        let b = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![5, 1, 9, 3]))));
        let sel =
            call(&r, ("algebra", "thetauselect"), &c, &[b, MVal::Int(3), MVal::Str(">=".into())]);
        let s = call(&r, ("aggr", "sum"), &c, &[sel[0].clone()]);
        match &s[0] {
            MVal::Int(v) => assert_eq!(*v, 17),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn group_new_returns_pair() {
        let r = Registry::standard();
        let c = ctx();
        let b = MVal::Bat(Arc::new(Bat::dense(Column::from(vec!["a", "b", "a"]))));
        let out = call(&r, ("group", "new"), &c, &[b]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].as_bat().unwrap().count(), 2);
    }

    #[test]
    fn result_set_pipeline() {
        let r = Registry::standard();
        let c = ctx();
        let data = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![9]))));
        let rs = call(&r, ("sql", "resultSet"), &c, &[MVal::Int(1), MVal::Int(1), data.clone()]);
        call(
            &r,
            ("sql", "rsCol"),
            &c,
            &[
                rs[0].clone(),
                MVal::Str("sys.c".into()),
                MVal::Str("t_id".into()),
                MVal::Str("int".into()),
                MVal::Int(32),
                MVal::Int(0),
                data,
            ],
        );
        let stream = call(&r, ("io", "stdout"), &c, &[]);
        call(&r, ("sql", "exportResult"), &c, &[stream[0].clone(), rs[0].clone()]);
        let out = c.take_output();
        assert!(out.contains("[ 9 ]"), "{out}");
    }

    #[test]
    fn export_publishes_typed_result() {
        let r = Registry::standard();
        let c = ctx();
        let data = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![4, 5]))));
        let rs = call(&r, ("sql", "resultSet"), &c, &[MVal::Int(1), MVal::Int(1), data.clone()]);
        call(
            &r,
            ("sql", "rsCol"),
            &c,
            &[
                rs[0].clone(),
                MVal::Str("sys.t".into()),
                MVal::Str("id".into()),
                MVal::Str("int".into()),
                MVal::Int(32),
                MVal::Int(0),
                data,
            ],
        );
        let stream = call(&r, ("io", "stdout"), &c, &[]);
        call(&r, ("sql", "exportResult"), &c, &[stream[0].clone(), rs[0].clone()]);
        let typed = c.take_result();
        assert_eq!((typed.column_count(), typed.row_count()), (1, 2));
        assert_eq!(typed.columns[0].name, "id");
        assert_eq!(typed.columns[0].col_type(), batstore::ColType::Int);
        assert_eq!(typed.cell(1, 0), batstore::Val::Int(5));
        assert!(typed.affected.is_none() && typed.info.is_none());
    }

    #[test]
    fn typed_pack_pins_declared_type() {
        let r = Registry::standard();
        let c = ctx();
        // Without a type, a small value narrows to int …
        let out = call(&r, ("bat", "pack"), &c, &[MVal::Int(3)]);
        assert_eq!(out[0].as_bat().unwrap().tail_type(), batstore::ColType::Int);
        // … with the declared type, the column is pinned (COUNT → lng).
        let out = call(&r, ("bat", "pack"), &c, &[MVal::Int(3), MVal::Str("lng".into())]);
        assert_eq!(out[0].as_bat().unwrap().tail_type(), batstore::ColType::Lng);
        let e = (r.lookup("bat", "pack").unwrap())(&c, &[MVal::Int(3), MVal::Str("nope".into())]);
        assert!(e.is_err());
    }

    #[test]
    fn create_append_select_through_local_hooks() {
        let r = Registry::standard();
        let c = ctx();
        call(
            &r,
            ("sql", "createTable"),
            &c,
            &[MVal::Str("sys".into()), MVal::Str("logs".into()), MVal::Str("k:int,msg:str".into())],
        );
        assert!(c.take_output().contains("created"));
        // Build row batches: k = [7, 8], msg = ["a", "b"].
        let k0 = call(&r, ("bat", "new"), &c, &[MVal::Str("int".into())]);
        let k1 = call(&r, ("bat", "append"), &c, &[k0[0].clone(), MVal::Int(7)]);
        let k2 = call(&r, ("bat", "append"), &c, &[k1[0].clone(), MVal::Int(8)]);
        let m0 = call(&r, ("bat", "new"), &c, &[MVal::Str("str".into())]);
        let m1 = call(&r, ("bat", "append"), &c, &[m0[0].clone(), MVal::Str("a".into())]);
        let m2 = call(&r, ("bat", "append"), &c, &[m1[0].clone(), MVal::Str("b".into())]);
        call(
            &r,
            ("sql", "append"),
            &c,
            &[
                MVal::Str("sys".into()),
                MVal::Str("logs".into()),
                MVal::Str("k,msg".into()),
                k2[0].clone(),
                m2[0].clone(),
            ],
        );
        assert!(c.take_output().contains("2 rows affected"));
        // Visible through sql.bind.
        let out = call(
            &r,
            ("sql", "bind"),
            &c,
            &[
                MVal::Str("sys".into()),
                MVal::Str("logs".into()),
                MVal::Str("msg".into()),
                MVal::Int(0),
            ],
        );
        assert_eq!(out[0].as_bat().unwrap().count(), 2);
    }

    #[test]
    fn bat_replace_and_delete_primitives() {
        let r = Registry::standard();
        let c = ctx();
        let base = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![5, 1, 9, 3]))));
        // Select rows >= 3 and rewrite them to 0.
        let sel = call(
            &r,
            ("algebra", "thetauselect"),
            &c,
            &[base.clone(), MVal::Int(3), MVal::Str(">=".into())],
        );
        let out = call(&r, ("bat", "replace"), &c, &[base.clone(), sel[0].clone(), MVal::Int(0)]);
        let b = out[0].as_bat().unwrap();
        let tails: Vec<batstore::Val> = (0..4).map(|i| b.bun(i).1).collect();
        assert_eq!(
            tails,
            vec![
                batstore::Val::Int(0),
                batstore::Val::Int(1),
                batstore::Val::Int(0),
                batstore::Val::Int(0)
            ]
        );
        // Delete the same selection: only the 1 survives, head re-densed.
        let out = call(&r, ("bat", "delete"), &c, &[base, sel[0].clone()]);
        let b = out[0].as_bat().unwrap();
        assert_eq!(b.count(), 1);
        assert_eq!(b.bun(0), (batstore::Val::Oid(0), batstore::Val::Int(1)));
    }

    #[test]
    fn sql_update_and_delete_through_local_hooks() {
        let r = Registry::standard();
        let c = ctx();
        // `t` has id = [1, 2, 3].
        let upd =
            |args: &[MVal]| (r.lookup("sql", "update").unwrap())(&c, args).map(|_| c.take_result());
        let rs = upd(&[
            MVal::Str("sys".into()),
            MVal::Str("t".into()),
            MVal::Str("id".into()),
            MVal::Int(7),
            MVal::Str("cmp".into()),
            MVal::Str("id".into()),
            MVal::Str(">=".into()),
            MVal::Int(2),
        ])
        .unwrap();
        assert_eq!(rs.affected, Some(2));
        let rs = upd(&[
            MVal::Str("sys".into()),
            MVal::Str("t".into()),
            MVal::Str("id".into()),
            MVal::Int(0),
            MVal::Str("in".into()),
            MVal::Str("id".into()),
            MVal::Int(2),
            MVal::Int(1),
            MVal::Int(99),
        ])
        .unwrap();
        assert_eq!(rs.affected, Some(1), "IN (1, 99) hits only the untouched row");
        // DELETE with a between predicate removes both 7s.
        let out = (r.lookup("sql", "delete").unwrap())(
            &c,
            &[
                MVal::Str("sys".into()),
                MVal::Str("t".into()),
                MVal::Str("between".into()),
                MVal::Str("id".into()),
                MVal::Int(6),
                MVal::Int(8),
            ],
        );
        out.unwrap();
        assert_eq!(c.take_result().affected, Some(2));
        assert_eq!(c.catalog.read().table("sys", "t").unwrap().row_count, 1);
        // Malformed predicate encodings are loud.
        let bad = (r.lookup("sql", "delete").unwrap())(
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("frob".into())],
        );
        assert!(bad.is_err());
        let bad = (r.lookup("sql", "update").unwrap())(
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("".into()), MVal::Int(1)],
        );
        assert!(bad.is_err(), "empty assignment list");
    }

    #[test]
    fn append_arity_and_type_errors() {
        let r = Registry::standard();
        let c = ctx();
        let b = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![1]))));
        // Name count mismatch.
        let e = (r.lookup("sql", "append").unwrap())(
            &c,
            &[MVal::Str("sys".into()), MVal::Str("t".into()), MVal::Str("a,b".into()), b.clone()],
        );
        assert!(e.is_err());
        // bat.new with a bogus type.
        assert!((r.lookup("bat", "new").unwrap())(&c, &[MVal::Str("nope".into())]).is_err());
        // bat.append type mismatch.
        let e = (r.lookup("bat", "append").unwrap())(&c, &[b, MVal::Str("x".into())]);
        assert!(e.is_err());
    }

    #[test]
    fn unknown_function_is_none() {
        let r = Registry::standard();
        assert!(r.lookup("no", "such").is_none());
    }

    #[test]
    fn int_constant_narrowing_matches_int_columns() {
        let r = Registry::standard();
        let c = ctx();
        let b = MVal::Bat(Arc::new(Bat::dense(Column::from(vec![1, 2, 3]))));
        let out = call(&r, ("algebra", "uselect"), &c, &[b, MVal::Int(2)]);
        assert_eq!(out[0].as_bat().unwrap().count(), 1);
    }
}

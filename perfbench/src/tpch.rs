//! `tpch`: TPC-H Q1, Q3 and Q6 in rotation over ~42k lineitem rows, with
//! one table per node (customer → 0, orders → 1, lineitem → 2) so every
//! join pulls fragments across the ring, plus RF1-style order inserts
//! that are there only to give the write metrics samples. Per-statement work dwarfs fixed cost here: the
//! kernels, the dataflow interpreter and ring pins of large fragments
//! carry the time, while the three query texts always hit the template
//! cache and the ring is memory-only (no WAL).

use crate::common::{Cell, Expect, Stmt};
use crate::Workload;
use batstore::{Column, Val};
use datacyclotron::Ring;
use dc_workloads::tpch::sql::{self as gen, Table, TpchData};
use netsim::DetRng;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::Duration;

/// `generate(100, seed)`: 3000 customers, 12000 orders, ~42k lineitems.
const SCALE: f64 = 100.0;
/// Repetitions per round of the eight-statement cycle Q1, Q3, Q6, RF1,
/// Q1, Q3, Q6, RF1. The inserts exist only so that the write latency
/// metrics have samples on this workload; they are a quarter of the
/// statements but a few percent of the time, and the one-in-four ratio
/// is a choice, not TPC-H's refresh rate.
const CYCLES: usize = 8;

pub struct Tpch {
    seed: u64,
    stream: Vec<Stmt>,
    checks: Vec<Stmt>,
}

fn ints(t: &Table, col: &str) -> Vec<i64> {
    let c = &t.iter().find(|(n, _)| *n == col).expect("generated column").1;
    (0..c.len())
        .map(|i| match c.get(i) {
            Val::Int(v) => v as i64,
            Val::Lng(v) => v,
            other => panic!("{col}: not an integer: {other:?}"),
        })
        .collect()
}

fn strs(t: &Table, col: &str) -> Vec<String> {
    let c = &t.iter().find(|(n, _)| *n == col).expect("generated column").1;
    (0..c.len())
        .map(|i| match c.get(i) {
            Val::Str(s) => s,
            other => panic!("{col}: not a string: {other:?}"),
        })
        .collect()
}

fn q1(d: &TpchData) -> Vec<Vec<Cell>> {
    let (flag, status) = (strs(&d.lineitem, "l_returnflag"), strs(&d.lineitem, "l_linestatus"));
    let (qty, price) = (ints(&d.lineitem, "l_quantity"), ints(&d.lineitem, "l_extendedprice"));
    let (disc, ship) = (ints(&d.lineitem, "l_discount"), ints(&d.lineitem, "l_shipdate"));
    // (sum qty, sum price, sum discount, count) per (flag, status).
    let mut groups: BTreeMap<(String, String), (i64, i64, i64, i64)> = BTreeMap::new();
    for i in 0..ship.len() {
        if ship[i] <= 19980902 {
            let g = groups.entry((flag[i].clone(), status[i].clone())).or_default();
            g.0 += qty[i];
            g.1 += price[i];
            g.2 += disc[i];
            g.3 += 1;
        }
    }
    groups
        .into_iter()
        .map(|((f, s), (q, p, dsum, n))| {
            vec![
                Cell::Str(f),
                Cell::Str(s),
                Cell::Int(q),
                Cell::Int(p),
                Cell::Dbl(dsum as f64 / n as f64),
                Cell::Int(n),
            ]
        })
        .collect()
}

fn q3(d: &TpchData) -> Vec<Vec<Cell>> {
    let building: HashSet<i64> = ints(&d.customer, "c_custkey")
        .into_iter()
        .zip(strs(&d.customer, "c_mktsegment"))
        .filter(|(_, seg)| seg == "BUILDING")
        .map(|(k, _)| k)
        .collect();
    let (okey, ocust) = (ints(&d.orders, "o_orderkey"), ints(&d.orders, "o_custkey"));
    let (odate, oprio) = (ints(&d.orders, "o_orderdate"), ints(&d.orders, "o_shippriority"));
    let mut orders: HashMap<i64, (i64, i64)> = HashMap::new();
    for i in 0..okey.len() {
        if building.contains(&ocust[i]) && odate[i] < 19950315 {
            orders.insert(okey[i], (odate[i], oprio[i]));
        }
    }
    let (lkey, lprice) = (ints(&d.lineitem, "l_orderkey"), ints(&d.lineitem, "l_extendedprice"));
    let lship = ints(&d.lineitem, "l_shipdate");
    let mut revenue: BTreeMap<i64, i64> = BTreeMap::new();
    for i in 0..lkey.len() {
        if lship[i] > 19950315 && orders.contains_key(&lkey[i]) {
            *revenue.entry(lkey[i]).or_default() += lprice[i];
        }
    }
    revenue
        .into_iter()
        .take(10)
        .map(|(k, rev)| {
            let (date, prio) = orders[&k];
            vec![Cell::Int(k), Cell::Int(date), Cell::Int(prio), Cell::Int(rev)]
        })
        .collect()
}

fn q6(d: &TpchData) -> Vec<Vec<Cell>> {
    let (qty, price) = (ints(&d.lineitem, "l_quantity"), ints(&d.lineitem, "l_extendedprice"));
    let (disc, ship) = (ints(&d.lineitem, "l_discount"), ints(&d.lineitem, "l_shipdate"));
    let (mut sum, mut n) = (0i64, 0i64);
    for i in 0..ship.len() {
        if (19940101..=19941231).contains(&ship[i]) && (5..=7).contains(&disc[i]) && qty[i] < 24 {
            sum += price[i];
            n += 1;
        }
    }
    vec![vec![Cell::Int(sum), Cell::Int(n)]]
}

impl Tpch {
    pub fn new(seed: u64) -> Tpch {
        let data = gen::generate(SCALE, seed);
        let answers = [
            (gen::Q1, Expect::Rows { rows: q1(&data), ordered: false }),
            (gen::Q3, Expect::Rows { rows: q3(&data), ordered: true }),
            (gen::Q6, Expect::Rows { rows: q6(&data), ordered: true }),
        ];
        let norders = data.orders[0].1.len() as i64;
        let ncust = data.customer[0].1.len() as u64;

        // Every fourth statement is a refresh insert of a new order with
        // no line items: it grows the orders fragment (routed to its
        // owner from the other nodes) without changing any answer.
        let mut rng = DetRng::new(seed ^ 0x7c9f);
        let mut stream = Vec::new();
        let mut inserted = 0;
        for i in 0..CYCLES * 8 {
            let node = i % 3;
            if i % 4 == 3 {
                inserted += 1;
                let sql = format!(
                    "insert into orders values ({}, {}, {}, 0, {})",
                    norders + inserted,
                    rng.uniform_u64(1, ncust),
                    rng.uniform_u64(1992, 1998) * 10000 + rng.uniform_u64(1, 12) * 100 + 1,
                    rng.uniform_u64(1_000, 500_000)
                );
                stream.push(Stmt { node, sql, write: true, expect: Expect::Affected(1) });
            } else {
                let (sql, expect) = &answers[(i / 4 * 3 + i % 4) % 3];
                stream.push(Stmt {
                    node,
                    sql: sql.to_string(),
                    write: false,
                    expect: expect.clone(),
                });
            }
        }
        let checks = vec![Stmt {
            node: 1,
            sql: "select count(*) from orders".into(),
            write: false,
            expect: Expect::Rows { rows: vec![vec![Cell::Int(norders + inserted)]], ordered: true },
        }];
        Tpch { seed, stream, checks }
    }
}

fn owned(t: Table) -> Vec<(String, Column)> {
    t.into_iter().map(|(n, c)| (n.to_string(), c)).collect()
}

impl Workload for Tpch {
    fn setup(&self, _dir: &Path) -> Ring {
        let data = gen::generate(SCALE, self.seed);
        let ring = Ring::builder(3).build();
        let placed =
            [("customer", data.customer), ("orders", data.orders), ("lineitem", data.lineitem)];
        for (i, (name, table)) in placed.into_iter().enumerate() {
            ring.node(i).load_table("sys", name, table).expect("load table");
        }
        for i in 0..3 {
            for t in ["customer", "orders", "lineitem"] {
                ring.node(i)
                    .wait_for_table_timeout("sys", t, Duration::from_secs(30))
                    .expect("catalog gossip");
            }
        }
        // Warm up: every query once on every node, so fragments are in
        // circulation and the template cache is filled.
        for (_, q) in gen::queries() {
            for i in 0..3 {
                ring.execute(i, q).expect("warm-up query");
            }
        }
        ring
    }

    fn stream(&self) -> &[Stmt] {
        &self.stream
    }

    fn final_checks(&self) -> &[Stmt] {
        &self.checks
    }

    fn tables(&self) -> Vec<(String, Vec<(String, Column)>)> {
        let d = gen::generate(SCALE, self.seed);
        vec![
            ("customer".into(), owned(d.customer)),
            ("orders".into(), owned(d.orders)),
            ("lineitem".into(), owned(d.lineitem)),
        ]
    }
}

//! The traced run: each statement of a round is taken apart layer by
//! layer from outside the program. It is compiled by `sqlfront` against
//! a local `batstore::Catalog` replica, optimized by `mal`, run by the
//! sequential interpreter through a registry whose every native function
//! is wrapped with a timer, run again by the dataflow interpreter over a
//! second replica, and finally run on the ring as a precompiled plan.
//! Node counters and histograms are read before and after the stream.

use crate::common::check;
use crate::{final_checks, teardown, Tally, Workload};
use batstore::{BatStore, Catalog, Column, ResultSet};
use datacyclotron::{NodeStats, Ring};
use dc_obs::HistogramSnapshot;
use mal::interp::run_sequential_with;
use mal::modules::Registry;
use mal::SessionCtx;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The kernel operators reported one by one (`batstore.<op>.us` and
/// `.rows`): every batstore-backed function the two workloads' plans
/// call. `sql.append` and `sql.update` apply DML through the local
/// catalog in the replica runs.
pub const OPS: &[&str] = &[
    "aggr.avgFor",
    "aggr.count",
    "aggr.countFor",
    "aggr.sum",
    "aggr.sumFor",
    "algebra.join",
    "algebra.markH",
    "algebra.markT",
    "algebra.select",
    "algebra.semijoin",
    "algebra.slice",
    "algebra.sortTail",
    "algebra.thetauselect",
    "algebra.uselect",
    "bat.pack",
    "bat.reverse",
    "group.derive",
    "group.new",
    "sql.append",
    "sql.update",
];

#[derive(Default, Clone, Copy)]
struct OpTime {
    us: f64,
    rows: f64,
}

type OpTimes = Arc<Mutex<BTreeMap<String, OpTime>>>;

/// Sums over every traced statement and round.
#[derive(Default)]
pub struct Layers {
    stmts: f64,
    writes: f64,
    rounds: f64,
    traced_wall_s: f64,
    compile_us: f64,
    optimize_us: f64,
    registry_us: f64,
    instrs: f64,
    seq_us: f64,
    dataflow_us: f64,
    ring_us: f64,
    ops: BTreeMap<String, OpTime>,
    counters: HashMap<&'static str, f64>,
    latency_ns: f64,
    latency_count: f64,
    event_loop_us: f64,
    hists: BTreeMap<&'static str, HistogramSnapshot>,
}

/// Counters and histograms of every node at one instant.
struct Probe {
    stats: Vec<NodeStats>,
    hists: Vec<HashMap<String, HistogramSnapshot>>,
}

impl Probe {
    fn take(ring: &Ring) -> Probe {
        let stats = (0..ring.len()).map(|i| ring.node(i).stats().expect("node stats")).collect();
        let hists = (0..ring.len())
            .map(|i| ring.node(i).obs().histograms().into_iter().collect())
            .collect();
        Probe { stats, hists }
    }

    fn counter(&self, name: &str) -> f64 {
        self.stats
            .iter()
            .map(|s| s.counters().into_iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| v))
            .sum::<u64>() as f64
    }

    /// Microseconds the event loops spent handling ring messages: the
    /// sums of every node's `dc_msg_<kind>_handle_us` histograms.
    fn event_loop_us(&self) -> f64 {
        let handling = |n: &str| n.starts_with("dc_msg_") && n.ends_with("_handle_us");
        self.hists
            .iter()
            .flat_map(|m| m.iter().filter(|(n, _)| handling(n)).map(|(_, h)| h.sum))
            .sum::<u64>() as f64
    }

    fn hist(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for h in self.hists.iter().filter_map(|m| m.get(name)) {
            merged.merge(h);
        }
        merged
    }
}

fn hist_since(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = after.clone();
    for (a, b) in d.buckets.iter_mut().zip(&before.buckets) {
        *a -= b;
    }
    d.count -= before.count;
    d.sum -= before.sum;
    d
}

const COUNTERS: &[&str] = &[
    "requests_resent",
    "ring_query_bytes_moved",
    "bytes_forwarded",
    "mutations_routed",
    "retries",
    "timeouts",
    "loi_evictions",
    "loi_readmits",
    "wal_bytes",
    "checkpoints",
];

fn replica(
    tables: &[(String, Vec<(String, Column)>)],
) -> (Arc<RwLock<Catalog>>, Arc<RwLock<BatStore>>) {
    let mut catalog = Catalog::new();
    let mut store = BatStore::new();
    for (name, cols) in tables {
        let cols = cols.iter().map(|(n, c)| (n.as_str(), c.clone())).collect();
        catalog.create_table_columnar(&mut store, "sys", name, cols).expect("replica table");
    }
    (Arc::new(RwLock::new(catalog)), Arc::new(RwLock::new(store)))
}

/// A registry holding the plan's functions, each wrapped to add its
/// self time and the row count of its first result to `times`.
fn timed_registry(plan: &mal::Program, standard: &Registry, times: &OpTimes) -> Registry {
    let mut reg = Registry::empty();
    for ins in &plan.instrs {
        if reg.lookup(&ins.module, &ins.func).is_some() {
            continue;
        }
        let Some(f) = standard.lookup(&ins.module, &ins.func).cloned() else { continue };
        let name = format!("{}.{}", ins.module, ins.func);
        let times = Arc::clone(times);
        reg.register(&ins.module, &ins.func, move |ctx, args| {
            let t = Instant::now();
            let out = f(ctx, args);
            let us = t.elapsed().as_secs_f64() * 1e6;
            let rows = match &out {
                Ok(vals) => vals.first().and_then(|v| v.as_bat()).map_or(0, |b| b.count()),
                Err(_) => 0,
            };
            let mut times = times.lock();
            let e = times.entry(name.clone()).or_default();
            e.us += us;
            e.rows += rows as f64;
            out
        });
    }
    reg
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Traced plans run on the ring under query ids far above the ids the
/// nodes hand out to the set-up statements themselves.
const FIRST_QID: u64 = 1 << 40;

pub fn traced_round(w: &dyn Workload, dir: &Path, layers: &mut Layers, tally: &mut Tally) {
    let ring = w.setup(dir);
    let tables = w.tables();
    let (seq_cat, seq_store) = replica(&tables);
    let (df_cat, df_store) = replica(&tables);
    let standard = Registry::standard();
    let times: OpTimes = Arc::default();

    let before = Probe::take(&ring);
    let t_round = Instant::now();
    for (i, s) in w.stream().iter().enumerate() {
        let t = Instant::now();
        let compiled = sqlfront::compile_sql(&s.sql, &seq_cat.read());
        layers.compile_us += us_since(t);
        let plan = match compiled {
            Ok(p) => p,
            Err(e) => {
                tally.record(s, false, || format!("compile: {e}"));
                continue;
            }
        };
        let t = Instant::now();
        let plan = mal::dc_optimize(&mal::common_subexpression_eliminate(&plan));
        layers.optimize_us += us_since(t);
        let t = Instant::now();
        std::hint::black_box(Registry::standard());
        layers.registry_us += us_since(t);
        layers.instrs += plan.instrs.len() as f64;

        let reg = timed_registry(&plan, &standard, &times);
        let seq = SessionCtx::new(Arc::clone(&seq_cat), Arc::clone(&seq_store));
        let t = Instant::now();
        let seq_ok = run_sequential_with(&plan, &seq, &reg).is_ok();
        layers.seq_us += us_since(t);

        let df = SessionCtx::new(Arc::clone(&df_cat), Arc::clone(&df_store));
        let t = Instant::now();
        let df_ok = mal::run_dataflow(&plan, &df, 4).is_ok();
        layers.dataflow_us += us_since(t);

        let t = Instant::now();
        let on_ring = ring.run_plan(s.node, FIRST_QID + i as u64, &plan);
        layers.ring_us += us_since(t);

        let answers: [(&str, Option<ResultSet>); 3] = [
            ("sequential", seq_ok.then(|| seq.take_result())),
            ("dataflow", df_ok.then(|| df.take_result())),
            ("ring", on_ring.as_ref().ok().cloned()),
        ];
        let wrong: Vec<&str> = answers
            .iter()
            .filter(|(_, rs)| !rs.as_ref().is_some_and(|rs| check(rs, &s.expect)))
            .map(|(path, _)| *path)
            .collect();
        tally.record(s, wrong.is_empty(), || format!("wrong on {wrong:?}; ring: {on_ring:?}"));
        layers.stmts += 1.0;
        if s.write {
            layers.writes += 1.0;
        }
    }
    layers.traced_wall_s += t_round.elapsed().as_secs_f64();
    w.settle(&ring);
    let after = Probe::take(&ring);
    final_checks(w, &ring, tally);
    teardown(ring, dir);

    layers.rounds += 1.0;
    for &c in COUNTERS {
        *layers.counters.entry(c).or_default() += after.counter(c) - before.counter(c);
    }
    let lat = |p: &Probe| -> (f64, f64) {
        p.stats.iter().fold((0.0, 0.0), |(s, c), st| {
            (s + st.latency_sum.0 as f64, c + st.latency_count as f64)
        })
    };
    let ((s1, c1), (s0, c0)) = (lat(&after), lat(&before));
    layers.latency_ns += s1 - s0;
    layers.latency_count += c1 - c0;
    layers.event_loop_us += after.event_loop_us() - before.event_loop_us();
    for h in ["spill_us", "readmit_us", "wal_append_us", "checkpoint_us"] {
        layers.hists.entry(h).or_default().merge(&hist_since(&after.hist(h), &before.hist(h)));
    }
    for (name, t) in times.lock().iter() {
        let e = layers.ops.entry(name.clone()).or_default();
        e.us += t.us;
        e.rows += t.rows;
    }
}

impl Layers {
    pub fn metrics(self) -> Vec<(String, f64, &'static str)> {
        let n = self.stmts.max(1.0);
        let per = |v: f64| v / n;
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0.0);
        let op_sum: f64 = self.ops.values().map(|o| o.us).sum();
        for (name, o) in &self.ops {
            let share = 100.0 * o.us / self.seq_us.max(1e-9);
            eprintln!(
                "  op {name:32} {:10.1} us/stmt {:6.2}% rows/stmt {:.0}",
                o.us / n,
                share,
                o.rows / n
            );
        }
        let hist_p50 = |h: &BTreeMap<&str, HistogramSnapshot>, k: &str| {
            h.get(k).map_or(0.0, |s| s.p50() as f64)
        };
        let ring_bytes = counter("ring_query_bytes_moved");
        let forwarded = counter("bytes_forwarded");
        let mut out: Vec<(String, f64, &'static str)> = vec![
            ("traced.stmt_per_s".into(), self.stmts / self.traced_wall_s.max(1e-9), "1/s"),
            ("sqlfront.compile_us".into(), per(self.compile_us), "us"),
            ("mal.optimize_us".into(), per(self.optimize_us), "us"),
            ("mal.registry_build_us".into(), per(self.registry_us), "us"),
            ("mal.plan_instrs".into(), per(self.instrs), "count"),
            ("mal.exec_local_seq_us".into(), per(self.seq_us), "us"),
            ("mal.exec_local_dataflow_us".into(), per(self.dataflow_us), "us"),
            ("mal.interp_self_us".into(), per(self.seq_us - op_sum), "us"),
        ];
        let named: f64 = OPS.iter().filter_map(|op| self.ops.get(*op)).map(|o| o.us).sum();
        out.push(("batstore.ops_us".into(), per(named), "us"));
        for op in OPS {
            let o = self.ops.get(*op).copied().unwrap_or_default();
            out.push((format!("batstore.{op}.us"), per(o.us), "us"));
            out.push((format!("batstore.{op}.rows"), per(o.rows), "count"));
        }
        let rounds = self.rounds.max(1.0);
        out.extend([
            ("core.exec_ring_us".into(), per(self.ring_us), "us"),
            ("core.ring_wait_us".into(), per(self.ring_us - self.dataflow_us), "us"),
            (
                "core.request_latency_us".into(),
                if self.latency_count > 0.0 {
                    self.latency_ns / self.latency_count / 1e3
                } else {
                    0.0
                },
                "us",
            ),
            ("core.requests_resent".into(), counter("requests_resent") / rounds, "count/round"),
            ("core.ring_query_bytes_moved_per_stmt".into(), per(ring_bytes), "B"),
            ("core.bytes_forwarded_per_stmt".into(), per(forwarded), "B"),
            (
                "core.ring_bytes_useful_ratio".into(),
                if forwarded > 0.0 { ring_bytes / forwarded } else { 0.0 },
                "ratio",
            ),
            ("core.event_loop_busy_us_per_stmt".into(), per(self.event_loop_us), "us"),
            ("core.mutations_routed".into(), counter("mutations_routed") / rounds, "count/round"),
            ("core.retries".into(), counter("retries") / rounds, "count/round"),
            ("core.timeouts".into(), counter("timeouts") / rounds, "count/round"),
            ("core.loi_evictions_per_stmt".into(), per(counter("loi_evictions")), "count"),
            ("core.loi_readmits_per_stmt".into(), per(counter("loi_readmits")), "count"),
            ("core.spill_us_p50".into(), hist_p50(&self.hists, "spill_us"), "us"),
            ("core.readmit_us_p50".into(), hist_p50(&self.hists, "readmit_us"), "us"),
            ("persist.wal_append_us_p50".into(), hist_p50(&self.hists, "wal_append_us"), "us"),
            (
                "persist.wal_bytes_per_write".into(),
                if self.writes > 0.0 { counter("wal_bytes") / self.writes } else { 0.0 },
                "B",
            ),
            ("persist.checkpoints".into(), counter("checkpoints") / rounds, "count/round"),
            ("persist.checkpoint_us_p50".into(), hist_p50(&self.hists, "checkpoint_us"), "us"),
        ]);
        out
    }
}

//! End-to-end and per-layer benchmark over a live in-process 3-node
//! Data Cyclotron ring.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpch|oltp --seed N --seconds S --trace 0|1
//! ```
//!
//! One client thread drives a closed loop: each statement is submitted
//! only after the previous one returned. A run is a sequence of rounds;
//! every round builds a fresh ring (timed as `setup_s`), runs the same
//! seeded, fixed-length statement stream against it, checks every
//! answer against an oracle that shares no code with the engine, and
//! tears the ring down. Rounds repeat until `--seconds` have passed, and
//! each metric is a median or a pooled percentile over them. A fixed
//! stream per round keeps the work a run measures — distinct SQL texts
//! compiled, WAL bytes, fragments moved — independent of how fast the
//! program is; only the number of rounds varies.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` replays the
//! same rounds with every layer timed from here, by calling the public
//! functions of `sqlfront`, `mal` and `datacyclotron` one at a time and
//! reading the counters the nodes export. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod common;
mod oltp;
mod tpch;
mod trace;

use batstore::Column;
use common::{check, median, peak_rss_mb, percentile, process_cpu_s, Stmt};
use datacyclotron::Ring;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A benchmark workload: how to build a ready ring, and the statements
/// every round replays against it.
pub trait Workload {
    /// Generate the data, load it, wait for the catalog gossip to reach
    /// every node and warm up. `dir` is an empty scratch directory for
    /// durable rings.
    fn setup(&self, dir: &Path) -> Ring;
    /// The timed statements, identical in every round.
    fn stream(&self) -> &[Stmt];
    /// Wait, untimed, for the background work the stream started to
    /// finish, so that every round ends in the same state.
    fn settle(&self, _ring: &Ring) {}
    /// Untimed checks of the ring's state after the stream.
    fn final_checks(&self) -> &[Stmt];
    /// The dataset as loaded by `setup`, for the traced run's local
    /// replicas: `(table, columns)`.
    fn tables(&self) -> Vec<(String, Vec<(String, Column)>)>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Counts every statement sent and every one that errored or returned
/// a wrong answer.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Record one outcome; the first few failures are described on
    /// stderr so a wrong answer can be reproduced from its seed.
    pub fn record(&mut self, stmt: &Stmt, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("wrong answer on node {}: {}\n  {}", stmt.node, stmt.sql, detail());
            }
        }
    }
}

/// Run the workload's after-stream checks, untimed.
pub fn final_checks(w: &dyn Workload, ring: &Ring, tally: &mut Tally) {
    for s in w.final_checks() {
        let r = ring.execute(s.node, &s.sql);
        let ok = matches!(&r, Ok(rs) if check(rs, &s.expect));
        tally.record(s, ok, || format!("{r:?}"));
    }
}

/// A per-round scratch directory under the working directory; removed
/// once the round's ring has shut down.
struct WorkDir {
    root: PathBuf,
    next: u32,
}

impl WorkDir {
    fn new(workload: &str) -> WorkDir {
        let root =
            PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        WorkDir { root, next: 0 }
    }

    fn round(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("round{}", self.next))
    }

    fn remove(&self) {
        std::fs::remove_dir_all(&self.root).ok();
        // Drop the shared parent too once no other run uses it.
        std::fs::remove_dir(".perfbench-work").ok();
    }
}

/// Stop every node before deleting the data dirs under them, so no
/// checkpointer writes into a directory that is going away.
pub fn teardown(ring: Ring, dir: &Path) {
    ring.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[derive(Default)]
struct EndToEnd {
    setup_s: Vec<f64>,
    stmt_per_s: Vec<f64>,
    cpu_s: f64,
    stmts: f64,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
}

fn end_to_end_round(w: &dyn Workload, dir: &Path, e2e: &mut EndToEnd, tally: &mut Tally) {
    let t0 = Instant::now();
    let ring = w.setup(dir);
    e2e.setup_s.push(t0.elapsed().as_secs_f64());

    let stream = w.stream();
    let cpu0 = process_cpu_s();
    let t1 = Instant::now();
    for s in stream {
        let t = Instant::now();
        let r = ring.execute(s.node, &s.sql);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if s.write {
            e2e.write_ms.push(ms);
        } else {
            e2e.read_ms.push(ms);
        }
        let ok = matches!(&r, Ok(rs) if check(rs, &s.expect));
        tally.record(s, ok, || format!("{r:?}"));
    }
    let wall = t1.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;
    e2e.stmt_per_s.push(stream.len() as f64 / wall);
    e2e.cpu_s += cpu;
    e2e.stmts += stream.len() as f64;

    w.settle(&ring);
    final_checks(w, &ring, tally);
    teardown(ring, dir);
}

fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "tpch" => Box::new(tpch::Tpch::new(seed)),
        "oltp" => Box::new(oltp::Oltp::new(seed)),
        _ => return None,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?} (tpch, oltp)", args.workload);
        std::process::exit(2);
    };
    let mut dirs = WorkDir::new(&args.workload);
    let mut tally = Tally::default();
    let start = Instant::now();
    // At least three rounds, so every median has a middle.
    let mut rounds = 0;
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut layers = trace::Layers::default();
        while rounds < 3 || start.elapsed().as_secs_f64() < args.seconds {
            trace::traced_round(w.as_ref(), &dirs.round(), &mut layers, &mut tally);
            rounds += 1;
        }
        layers.metrics()
    } else {
        let mut e2e = EndToEnd::default();
        while rounds < 3 || start.elapsed().as_secs_f64() < args.seconds {
            end_to_end_round(w.as_ref(), &dirs.round(), &mut e2e, &mut tally);
            rounds += 1;
        }
        vec![
            ("setup_s".into(), median(&mut e2e.setup_s), "s"),
            ("stmt_per_s".into(), median(&mut e2e.stmt_per_s), "1/s"),
            ("read_p50_ms".into(), percentile(&mut e2e.read_ms, 50.0), "ms"),
            ("read_p90_ms".into(), percentile(&mut e2e.read_ms, 90.0), "ms"),
            ("write_p50_ms".into(), percentile(&mut e2e.write_ms, 50.0), "ms"),
            ("write_p90_ms".into(), percentile(&mut e2e.write_ms, 90.0), "ms"),
            // Pooled over all rounds: CPU time is counted in clock ticks.
            ("cpu_ms_per_stmt".into(), e2e.cpu_s * 1e3 / e2e.stmts, "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ]
    };
    dirs.remove();
    eprintln!(
        "{}: {rounds} rounds in {:.1} s, {} statements, {} failed",
        args.workload,
        start.elapsed().as_secs_f64(),
        tally.attempted,
        tally.failed
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

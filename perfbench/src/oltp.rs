//! `oltp`: point statements against one small SQL-created table owned by
//! node 0 — distinct-literal SELECTs by key, UPDATEs by key issued from
//! the two other nodes (routed to the owner and acknowledged, §6.4), and
//! single-row INSERTs, also routed. The ring is durable with
//! `FsyncPolicy::Off`. Every statement misses the template cache,
//! builds a registry, spawns dataflow threads and crosses the event
//! loop, so this is the workload for per-statement fixed cost; the scan
//! of a few thousand rows is a minority of each statement.
//!
//! The ring has a per-node memory budget, and node 2 owns a `cold`
//! table four times that budget in 64 KiB fragments. Set-up waits
//! until the budget has spilled most of it to the data dir; one fixed
//! statement of every round reads the whole table back, so its spilled
//! fragments are re-admitted from their bat files (§4.4/§5), and the
//! round ends once every cold fragment has left the ring and spilled
//! again. Every round thus spills and re-admits the same fragments.
//!
//! SELECTs run at the owner. A non-owner may legally serve a read from
//! a fragment copy still circulating from before the last acknowledged
//! write (§6.4 stale readers); the oracle here is exact, so reads go
//! where the authoritative copy lives.

use crate::common::{Cell, Expect, Stmt};
use crate::Workload;
use batstore::Column;
use datacyclotron::{FsyncPolicy, HotsetRow, Ring};
use netsim::DetRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rows loaded at setup.
const ROWS: usize = 4000;
/// Rows per setup INSERT statement.
const LOAD_CHUNK: usize = 100;
/// Point statements per round; the cold read makes one more.
const STATEMENTS: usize = 600;
/// Per-node budget for resident owned fragments: well above `kv`'s
/// footprint on node 0, a quarter of `cold` on node 2.
const BUDGET: u64 = 128 * 1024;
/// `cold`: 16384 four-byte ints make one 64 KiB fragment per column.
const COLD_ROWS: usize = 16384;
const COLD_COLS: usize = 8;
/// The owner of `cold`, which no statement is submitted to.
const COLD_NODE: usize = 2;
/// Where in the stream the cold read sits.
const COLD_STEP: usize = STATEMENTS / 2;

pub struct Oltp {
    initial: Vec<i64>,
    cold: Vec<Vec<i32>>,
    stream: Vec<Stmt>,
    checks: Vec<Stmt>,
}

impl Oltp {
    pub fn new(seed: u64) -> Oltp {
        let mut rng = DetRng::new(seed);
        let initial: Vec<i64> = (0..ROWS).map(|_| rng.uniform_u64(0, 999_999) as i64).collect();
        let cold: Vec<Vec<i32>> = (0..COLD_COLS)
            .map(|_| (0..COLD_ROWS).map(|_| rng.uniform_u64(0, 999) as i32).collect())
            .collect();

        // The shadow table: id → v after every statement issued so far.
        let mut shadow = initial.clone();
        let mut read_keys: Vec<usize> = (0..ROWS).collect();
        rng.shuffle(&mut read_keys);
        let mut read_keys = read_keys.into_iter();
        let mut stream = Vec::with_capacity(STATEMENTS);
        // A fixed mix in seeded order: half reads, 35% updates, 15%
        // inserts in every round of every seed. The ratios are chosen,
        // not sourced: half reads gives reads and writes ~300 latency
        // samples each, updates are the routed path this workload is
        // for, and 90 inserts grow `kv` by only ~2% per round.
        let mut kinds: Vec<u8> = (0..STATEMENTS)
            .map(|i| match i * 20 / STATEMENTS {
                0..=9 => 0,
                10..=16 => 1,
                _ => 2,
            })
            .collect();
        rng.shuffle(&mut kinds);
        let mut writer = 1;
        for (i, kind) in kinds.into_iter().enumerate() {
            if i == COLD_STEP {
                let sums: Vec<String> = (0..COLD_COLS).map(|c| format!("sum(c{c})")).collect();
                let mut row = vec![Cell::Int(COLD_ROWS as i64)];
                row.extend(cold.iter().map(|c| Cell::Int(c.iter().map(|&v| v as i64).sum())));
                stream.push(Stmt {
                    node: 0,
                    sql: format!("select count(*), {} from cold", sums.join(", ")),
                    write: false,
                    expect: Expect::Rows { rows: vec![row], ordered: true },
                });
            }
            if kind == 0 {
                // Each key is read at most once per round, so every
                // SELECT text is new to the template cache.
                let id = read_keys.next().expect("fewer reads than rows");
                stream.push(Stmt {
                    node: 0,
                    sql: format!("select v from kv where id = {id}"),
                    write: false,
                    expect: Expect::Rows { rows: vec![vec![Cell::Int(shadow[id])]], ordered: true },
                });
                continue;
            }
            writer = 3 - writer;
            let v = rng.uniform_u64(0, 999_999) as i64;
            let sql = if kind == 1 {
                let id = rng.index(shadow.len());
                shadow[id] = v;
                format!("update kv set v = {v} where id = {id}")
            } else {
                shadow.push(v);
                format!("insert into kv values ({}, {v})", shadow.len() - 1)
            };
            stream.push(Stmt { node: writer, sql, write: true, expect: Expect::Affected(1) });
        }
        let checks = vec![Stmt {
            node: 0,
            sql: "select count(*), sum(v) from kv".into(),
            write: false,
            expect: Expect::Rows {
                rows: vec![vec![Cell::Int(shadow.len() as i64), Cell::Int(shadow.iter().sum())]],
                ordered: true,
            },
        }];
        Oltp { initial, cold, stream, checks }
    }
}

impl Workload for Oltp {
    fn setup(&self, dir: &Path) -> Ring {
        let ring =
            Ring::builder(3).data_dir_root(dir).fsync(FsyncPolicy::Off).mem_budget(BUDGET).build();
        ring.execute(0, "create table kv (id int, v int)").expect("create kv");
        ring.node(COLD_NODE).load_table("sys", "cold", self.cold_columns()).expect("load cold");
        for i in 0..3 {
            for table in ["kv", "cold"] {
                ring.node(i)
                    .wait_for_table_timeout("sys", table, Duration::from_secs(30))
                    .expect("catalog gossip");
            }
        }
        for (c, chunk) in self.initial.chunks(LOAD_CHUNK).enumerate() {
            let rows: Vec<String> = chunk
                .iter()
                .enumerate()
                .map(|(i, v)| format!("({}, {v})", c * LOAD_CHUNK + i))
                .collect();
            ring.execute(0, &format!("insert into kv values {}", rows.join(", ")))
                .expect("load kv");
        }
        // Warm up the routed write path and every node's read path with
        // statements that leave the data as loaded.
        for i in 1..3 {
            let sql = format!("update kv set v = {} where id = 0", self.initial[0]);
            ring.execute(i, &sql).expect("warm-up update");
        }
        for i in 0..3 {
            ring.execute(i, "select count(*) from kv").expect("warm-up read");
        }
        // The initial spill wave: `cold` shrinks to the budget before
        // anything is timed.
        wait_until(&ring, "the initial spill", |ring| {
            ring.node(COLD_NODE).hotset().expect("hotset").resident_bytes <= BUDGET
        });
        ring
    }

    fn settle(&self, ring: &Ring) {
        wait_until(ring, "the cold table to spill again", |ring| {
            let snap = ring.node(COLD_NODE).hotset().expect("hotset");
            let spilled = |r: &&HotsetRow| r.table == "sys.cold" && r.state == "spilled";
            snap.rows.iter().filter(spilled).count() == COLD_COLS
        });
    }

    fn stream(&self) -> &[Stmt] {
        &self.stream
    }

    fn final_checks(&self) -> &[Stmt] {
        &self.checks
    }

    fn tables(&self) -> Vec<(String, Vec<(String, Column)>)> {
        let ids: Vec<i32> = (0..ROWS as i32).collect();
        let vs: Vec<i32> = self.initial.iter().map(|&v| v as i32).collect();
        let cold = self.cold_columns().into_iter().map(|(n, c)| (n.to_string(), c)).collect();
        vec![
            ("kv".into(), vec![("id".into(), Column::from(ids)), ("v".into(), Column::from(vs))]),
            ("cold".into(), cold),
        ]
    }
}

impl Oltp {
    fn cold_columns(&self) -> Vec<(&'static str, Column)> {
        const NAMES: [&str; COLD_COLS] = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
        NAMES.iter().zip(&self.cold).map(|(n, c)| (*n, Column::from(c.clone()))).collect()
    }
}

/// Poll `done` until it holds; the hot-set timers finish within
/// milliseconds, so a minute means the engine is stuck.
fn wait_until(ring: &Ring, what: &str, done: impl Fn(&Ring) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done(ring) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

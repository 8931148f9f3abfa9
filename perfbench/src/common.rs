//! Pieces every workload shares: the statement stream, the answer
//! oracle's comparison, and readers for process CPU time and peak RSS.

use batstore::{ResultSet, Val};

/// One expected answer cell. Integer widths are folded together: the
/// oracle checks values, not the engine's choice of `int` vs `lng`.
#[derive(Clone, Debug)]
pub enum Cell {
    Int(i64),
    Dbl(f64),
    Str(String),
}

impl Cell {
    fn matches(&self, v: &Val) -> bool {
        match (self, v) {
            (Cell::Int(a), Val::Int(b)) => *a == *b as i64,
            (Cell::Int(a), Val::Lng(b)) => a == b,
            (Cell::Dbl(a), Val::Dbl(b)) => (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            (Cell::Str(a), Val::Str(b)) => a == b,
            _ => false,
        }
    }
}

/// What a statement must return.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Exactly these rows; `ordered: false` compares them as a multiset
    /// (for an ORDER BY that does not fix the order of every row).
    Rows { rows: Vec<Vec<Cell>>, ordered: bool },
    /// A DML statement's affected-row count.
    Affected(u64),
}

/// One statement of a seeded stream, with the node it is submitted to.
#[derive(Clone, Debug)]
pub struct Stmt {
    pub node: usize,
    pub sql: String,
    pub write: bool,
    pub expect: Expect,
}

/// A sort key shared by engine values and expected cells, so an
/// unordered comparison pairs the same rows on both sides.
fn val_key(v: &Val) -> String {
    match v {
        Val::Int(x) => format!("i{x:020}"),
        Val::Lng(x) => format!("i{x:020}"),
        Val::Dbl(x) => format!("d{x:.6}"),
        Val::Str(x) => format!("s{x}"),
        other => format!("{other:?}"),
    }
}

fn cell_key(c: &Cell) -> String {
    match c {
        Cell::Int(x) => format!("i{x:020}"),
        Cell::Dbl(x) => format!("d{x:.6}"),
        Cell::Str(x) => format!("s{x}"),
    }
}

/// Whether `rs` is the answer the oracle expects.
pub fn check(rs: &ResultSet, expect: &Expect) -> bool {
    match expect {
        Expect::Affected(n) => rs.affected == Some(*n),
        Expect::Rows { rows, ordered } => {
            if rs.row_count() != rows.len() {
                return false;
            }
            let width = rs.column_count();
            if rows.iter().any(|r| r.len() != width) {
                return false;
            }
            let mut got: Vec<Vec<Val>> =
                (0..rs.row_count()).map(|r| (0..width).map(|c| rs.cell(r, c)).collect()).collect();
            let mut want: Vec<&Vec<Cell>> = rows.iter().collect();
            if !ordered {
                got.sort_by_cached_key(|r| r.iter().map(val_key).collect::<Vec<_>>());
                want.sort_by_cached_key(|r| r.iter().map(cell_key).collect::<Vec<_>>());
            }
            got.iter().zip(want).all(|(g, w)| w.iter().zip(g).all(|(c, v)| c.matches(v)))
        }
    }
}

/// Clock ticks per second, the unit of `/proc/<pid>/stat`'s times.
fn clock_ticks_per_s() -> f64 {
    extern "C" {
        fn sysconf(name: std::ffi::c_int) -> std::ffi::c_long;
    }
    /// `_SC_CLK_TCK` on Linux.
    const SC_CLK_TCK: std::ffi::c_int = 2;
    // SAFETY: sysconf takes an int and reads no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    assert!(hz > 0, "sysconf(_SC_CLK_TCK) failed");
    hz as f64
}

/// Process CPU time (user + system, every thread, exited ones included)
/// in seconds, from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; the fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime, fields 14 and 15 of the whole line, in clock ticks.
    let ticks = |i: usize| fields[i].parse::<u64>().expect("utime/stime tick count");
    (ticks(11) + ticks(12)) as f64 / clock_ticks_per_s()
}

/// Peak resident set size (`VmHWM`) in MiB. Unlike `getrusage`'s
/// `ru_maxrss`, it starts afresh at `exec`, so the launching process's
/// footprint cannot leak into it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The `p`-th percentile (0..=100) by nearest rank; `0` when empty.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

//! The live-engine seam between the DBMS layer and the ring: blocking
//! pin/unpin semantics (§4.2.1) implemented over channels and condvars.
//!
//! Query threads call [`RingHooks`] (the [`mal::DcHooks`] implementation
//! injected into plans by the DC optimizer); the node's event loop
//! fulfills waiters when fragments arrive from the predecessor.

use crate::ids::{BatId, NodeId, QueryId};
use crate::msg::{CatalogMsg, MutOp};
use crate::stats::NodeStats;
use batstore::{Bat, ColType, Column, RowPredicate, Val};
use crossbeam::channel::Sender;
use mal::{DcHooks, MalError};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ring-wide fragment naming: `schema.table.column` → fragment identity.
/// `version` is the §6.4 counter as last advertised by the owner; every
/// owner-side mutation bumps it and re-gossips the table, so replicas
/// converge on one (size, version) view.
#[derive(Clone, Copy, Debug)]
pub struct FragInfo {
    pub bat: BatId,
    pub size: u64,
    pub owner: NodeId,
    pub version: u32,
}

#[derive(Default)]
pub struct RingCatalog {
    cols: RwLock<HashMap<String, FragInfo>>,
}

impl RingCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    fn key(schema: &str, table: &str, column: &str) -> String {
        format!("{schema}.{table}.{column}")
    }

    pub fn publish(&self, schema: &str, table: &str, column: &str, info: FragInfo) {
        self.cols.write().insert(Self::key(schema, table, column), info);
    }

    pub fn lookup(&self, schema: &str, table: &str, column: &str) -> Option<FragInfo> {
        self.cols.read().get(&Self::key(schema, table, column)).copied()
    }

    pub fn len(&self) -> usize {
        self.cols.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refresh a fragment's advertised size and version after an
    /// owner-side mutation (§6.4): bidding and queue accounting should
    /// see the new size, and replicas converge on the bumped version
    /// once the owner re-gossips.
    pub fn update_meta(&self, bat: BatId, size: u64, version: u32) {
        let mut cols = self.cols.write();
        for info in cols.values_mut() {
            if info.bat == bat {
                info.size = size;
                info.version = version;
            }
        }
    }

    /// Reverse lookup: which `(schema, table)` a fragment belongs to.
    /// Used by the owner to re-advertise a table's catalog entry after
    /// applying a mutation that arrived as bare fragment ids.
    pub fn table_of(&self, bat: BatId) -> Option<(String, String)> {
        let cols = self.cols.read();
        cols.iter().find(|(_, info)| info.bat == bat).and_then(|(key, _)| {
            // Keys are `schema.table.column`; identifiers contain no dots
            // (the SQL layer only lexes word characters).
            let mut parts = key.splitn(3, '.');
            Some((parts.next()?.to_string(), parts.next()?.to_string()))
        })
    }

    /// How many of the given fragments each node owns (the data term of a
    /// §6.1 bid).
    pub fn owner_counts(&self, bats: &[BatId]) -> HashMap<NodeId, usize> {
        let cols = self.cols.read();
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        for info in cols.values() {
            if bats.contains(&info.bat) {
                *counts.entry(info.owner).or_default() += 1;
            }
        }
        counts
    }
}

/// A blocked caller fulfilled by the node event loop: pins wait for an
/// `Arc<Bat>`, DDL/DML commands wait for a row count.
pub struct Waiter<T = Arc<Bat>> {
    slot: Mutex<Option<Result<T, String>>>,
    cv: Condvar,
}

impl<T> Default for Waiter<T> {
    fn default() -> Self {
        Waiter { slot: Mutex::new(None), cv: Condvar::new() }
    }
}

impl<T> Waiter<T> {
    pub fn fulfill(&self, result: Result<T, String>) {
        let mut slot = self.slot.lock();
        *slot = Some(result);
        self.cv.notify_all();
    }

    /// Block until fulfilled or the deadline passes.
    pub fn wait(&self, timeout: Duration) -> Result<T, String> {
        self.wait_for_outcome(timeout, "pin timed out waiting for fragment")
    }

    /// [`Waiter::wait`] with a caller-supplied timeout message, so a
    /// statement blocked on something other than a fragment pin (a
    /// mutation ack, say) fails with an error that names it.
    pub fn wait_for_outcome(&self, timeout: Duration, timeout_msg: &str) -> Result<T, String> {
        let mut slot = self.slot.lock();
        while slot.is_none() {
            if self.cv.wait_for(&mut slot, timeout).timed_out() && slot.is_none() {
                return Err(timeout_msg.to_string());
            }
        }
        slot.take().expect("checked above")
    }
}

/// Wakes table-metadata waiters when catalog state changes: the event
/// loop bumps the epoch after every applied gossip or local DDL, and
/// [`crate::RingNode::wait_for_table`] blocks on the condvar instead of
/// busy-polling the catalog.
#[derive(Default)]
pub struct CatalogNotify {
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl CatalogNotify {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the epoch *before* checking the condition it guards;
    /// pass it to [`CatalogNotify::wait_past`] so a change landing
    /// between check and wait is never missed.
    pub fn current(&self) -> u64 {
        *self.epoch.lock()
    }

    /// Announce a catalog change (called from the event loop).
    pub fn bump(&self) {
        *self.epoch.lock() += 1;
        self.cv.notify_all();
    }

    /// Block until the epoch moves past `seen` or `deadline` passes;
    /// returns whether it moved.
    pub fn wait_past(&self, seen: u64, deadline: Instant) -> bool {
        let mut epoch = self.epoch.lock();
        while *epoch == seen {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if self.cv.wait_for(&mut epoch, deadline - now).timed_out() && *epoch == seen {
                return false;
            }
        }
        true
    }
}

/// Commands query threads send into a node's event loop.
pub enum Cmd {
    /// Register interest (the `datacyclotron.request` call).
    Request { query: QueryId, bat: BatId },
    /// Blocking pin; the waiter is fulfilled with the fragment.
    Pin { query: QueryId, bat: BatId, waiter: Arc<Waiter> },
    /// Release a pin.
    Unpin { query: QueryId, bat: BatId },
    /// All work for the query is done (cleanup of S2/S3/cache).
    QueryDone { query: QueryId },
    /// Store an owned fragment payload at this node ("disk").
    StoreOwned { bat: BatId, payload: Arc<Bat> },
    /// SQL DDL: create a table whose (empty) column fragments this node
    /// owns; the metadata is gossiped clockwise around the ring.
    CreateTable {
        schema: String,
        table: String,
        cols: Vec<(String, ColType)>,
        ack: Arc<Waiter<u64>>,
    },
    /// SQL DML: append rows column-at-a-time. Fragments owned locally
    /// are updated in place (version bump, §6.4); foreign fragments are
    /// routed clockwise to their owner as [`crate::msg::AppendMsg`]s.
    Append { schema: String, table: String, cols: Vec<(String, Column)>, ack: Arc<Waiter<u64>> },
    /// SQL UPDATE/DELETE: a logical mutation. Applied in place when this
    /// node owns the table's fragments (version bump + re-advertise,
    /// §6.4); otherwise routed clockwise to the owner as a
    /// [`crate::msg::MutateMsg`], with the ack fulfilled when the
    /// owner's [`crate::msg::MutAckMsg`] comes back — so the caller
    /// reports a correct affected-row count even for remote mutations.
    Mutate {
        schema: String,
        table: String,
        op: MutOp,
        preds: Vec<RowPredicate>,
        ack: Arc<Waiter<u64>>,
    },
    /// Publish externally-assembled table metadata into this node's
    /// catalogs (driver-side loads); optionally gossip it clockwise.
    PublishTable { table: CatalogMsg, gossip: bool },
    /// Snapshot this node's protocol counters (tests and monitoring
    /// observe retries/timeouts/dedups through this, not by reaching
    /// into the event loop).
    Stats { ack: Arc<Waiter<NodeStats>> },
    /// Snapshot this node's hot-set view: per-fragment residency state
    /// and LOI, plus the node totals (the `dc.hotset` system view and
    /// the dcsh `.hotset` meta-statement read this).
    Hotset { ack: Arc<Waiter<crate::hotset::HotsetSnapshot>> },
    /// Stop the event loop.
    Shutdown,
}

/// The [`DcHooks`] implementation wired into MAL plans on ring nodes.
pub struct RingHooks {
    pub node: NodeId,
    pub tx: Sender<super::engine::NodeEvent>,
    pub catalog: Arc<RingCatalog>,
    pub pin_timeout: Duration,
    /// The node's telemetry registry; `dc.*` system views read from it.
    pub obs: Arc<dc_obs::Registry>,
    tickets: Mutex<Vec<BatId>>,
}

impl RingHooks {
    pub fn new(
        node: NodeId,
        tx: Sender<super::engine::NodeEvent>,
        catalog: Arc<RingCatalog>,
        pin_timeout: Duration,
        obs: Arc<dc_obs::Registry>,
    ) -> Self {
        RingHooks { node, tx, catalog, pin_timeout, obs, tickets: Mutex::new(Vec::new()) }
    }

    /// Snapshot the event loop's protocol counters (the same round trip
    /// [`crate::RingNode::stats`] makes). Safe to call from a MAL sink:
    /// plans run on caller threads, so the event loop is free to answer.
    fn stats_snapshot(&self) -> Result<NodeStats, MalError> {
        let ack = Arc::new(Waiter::<NodeStats>::default());
        self.send(Cmd::Stats { ack: Arc::clone(&ack) })?;
        ack.wait_for_outcome(self.pin_timeout, "stats request timed out").map_err(MalError::Dc)
    }

    /// Snapshot the event loop's hot-set view (per-fragment residency
    /// and LOI; node-wide residency totals and LOIT position).
    fn hotset_snapshot(&self) -> Result<crate::hotset::HotsetSnapshot, MalError> {
        let ack = Arc::new(Waiter::<crate::hotset::HotsetSnapshot>::default());
        self.send(Cmd::Hotset { ack: Arc::clone(&ack) })?;
        ack.wait_for_outcome(self.pin_timeout, "hotset request timed out").map_err(MalError::Dc)
    }

    fn bat_of_ticket(&self, ticket: u64) -> Result<BatId, MalError> {
        self.tickets
            .lock()
            .get(ticket as usize)
            .copied()
            .ok_or_else(|| MalError::Dc(format!("unknown ticket {ticket}")))
    }

    fn send(&self, cmd: Cmd) -> Result<(), MalError> {
        self.tx
            .send(super::engine::NodeEvent::Cmd(cmd))
            .map_err(|_| MalError::Dc("ring node is down".into()))
    }
}

impl DcHooks for RingHooks {
    fn request(
        &self,
        query: u64,
        schema: &str,
        table: &str,
        column: &str,
    ) -> Result<u64, MalError> {
        let info = self
            .catalog
            .lookup(schema, table, column)
            .ok_or_else(|| MalError::Dc(format!("unknown fragment {schema}.{table}.{column}")))?;
        let ticket = {
            let mut t = self.tickets.lock();
            t.push(info.bat);
            (t.len() - 1) as u64
        };
        self.send(Cmd::Request { query: QueryId(query), bat: info.bat })?;
        Ok(ticket)
    }

    fn pin(&self, query: u64, ticket: u64) -> Result<Arc<Bat>, MalError> {
        let bat = self.bat_of_ticket(ticket)?;
        let waiter = Arc::new(Waiter::default());
        self.send(Cmd::Pin { query: QueryId(query), bat, waiter: Arc::clone(&waiter) })?;
        waiter.wait(self.pin_timeout).map_err(MalError::Dc)
    }

    fn unpin(&self, query: u64, ticket: u64) -> Result<(), MalError> {
        let bat = self.bat_of_ticket(ticket)?;
        self.send(Cmd::Unpin { query: QueryId(query), bat })
    }

    fn create_table(
        &self,
        _query: u64,
        schema: &str,
        table: &str,
        cols: &[(String, ColType)],
    ) -> Result<(), MalError> {
        let ack = Arc::new(Waiter::<u64>::default());
        self.send(Cmd::CreateTable {
            schema: schema.to_string(),
            table: table.to_string(),
            cols: cols.to_vec(),
            ack: Arc::clone(&ack),
        })?;
        ack.wait(self.pin_timeout).map(|_| ()).map_err(MalError::Dc)
    }

    fn append_rows(
        &self,
        _query: u64,
        schema: &str,
        table: &str,
        cols: &[(String, Column)],
    ) -> Result<u64, MalError> {
        let ack = Arc::new(Waiter::<u64>::default());
        self.send(Cmd::Append {
            schema: schema.to_string(),
            table: table.to_string(),
            cols: cols.to_vec(),
            ack: Arc::clone(&ack),
        })?;
        ack.wait(self.pin_timeout).map_err(MalError::Dc)
    }

    fn update_rows(
        &self,
        _query: u64,
        schema: &str,
        table: &str,
        assigns: &[(String, Val)],
        preds: &[RowPredicate],
    ) -> Result<u64, MalError> {
        let ack = Arc::new(Waiter::<u64>::default());
        self.send(Cmd::Mutate {
            schema: schema.to_string(),
            table: table.to_string(),
            op: MutOp::Update(assigns.to_vec()),
            preds: preds.to_vec(),
            ack: Arc::clone(&ack),
        })?;
        ack.wait_for_outcome(self.pin_timeout, MUT_ACK_TIMEOUT).map_err(MalError::Dc)
    }

    fn delete_rows(
        &self,
        _query: u64,
        schema: &str,
        table: &str,
        preds: &[RowPredicate],
    ) -> Result<u64, MalError> {
        let ack = Arc::new(Waiter::<u64>::default());
        self.send(Cmd::Mutate {
            schema: schema.to_string(),
            table: table.to_string(),
            op: MutOp::Delete,
            preds: preds.to_vec(),
            ack: Arc::clone(&ack),
        })?;
        ack.wait_for_outcome(self.pin_timeout, MUT_ACK_TIMEOUT).map_err(MalError::Dc)
    }

    fn sys_view(&self, _query: u64, view: &str) -> Result<batstore::ResultSet, MalError> {
        match view {
            "stats" => {
                // Protocol counters first (exactly `NodeStats::counters`,
                // name-for-name — tests diff this against
                // `RingNode::stats()`), then registry counters and gauges
                // under an `obs_` prefix so the two namespaces cannot
                // collide.
                let stats = self.stats_snapshot()?;
                let mut names: Vec<String> = Vec::new();
                let mut values: Vec<i64> = Vec::new();
                for (name, v) in stats.counters() {
                    names.push(name.to_string());
                    values.push(v as i64);
                }
                for (name, v) in self.obs.counters() {
                    names.push(format!("obs_{name}"));
                    values.push(v as i64);
                }
                for (name, v) in self.obs.gauges() {
                    names.push(format!("obs_{name}"));
                    values.push(v);
                }
                let mut rs = batstore::ResultSet::new();
                push_str_col(&mut rs, "dc.stats", "name", names);
                push_lng_col(&mut rs, "dc.stats", "value", values);
                Ok(rs)
            }
            "latency" => {
                let hists = self.obs.histograms();
                let mut names = Vec::with_capacity(hists.len());
                let (mut counts, mut p50s, mut p95s, mut p99s, mut maxes) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
                for (name, snap) in hists {
                    names.push(name);
                    counts.push(snap.count as i64);
                    p50s.push(snap.p50() as i64);
                    p95s.push(snap.p95() as i64);
                    p99s.push(snap.p99() as i64);
                    maxes.push(snap.max as i64);
                }
                let mut rs = batstore::ResultSet::new();
                push_str_col(&mut rs, "dc.latency", "name", names);
                push_lng_col(&mut rs, "dc.latency", "count", counts);
                push_lng_col(&mut rs, "dc.latency", "p50_us", p50s);
                push_lng_col(&mut rs, "dc.latency", "p95_us", p95s);
                push_lng_col(&mut rs, "dc.latency", "p99_us", p99s);
                push_lng_col(&mut rs, "dc.latency", "max_us", maxes);
                Ok(rs)
            }
            "trace" => {
                let events = self.obs.trace_events();
                let (mut ts, mut nodes, mut epochs, mut stmts) =
                    (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                let (mut kinds, mut details) = (Vec::new(), Vec::new());
                for e in events {
                    ts.push(e.ts_micros as i64);
                    nodes.push(e.node as i32);
                    // Boot epochs are u64 nonces; the wrapping cast
                    // preserves equality, which is all the span join
                    // needs.
                    epochs.push(e.epoch as i64);
                    stmts.push(e.stmt as i64);
                    kinds.push(e.event.to_string());
                    details.push(e.detail);
                }
                let mut rs = batstore::ResultSet::new();
                push_lng_col(&mut rs, "dc.trace", "ts_us", ts);
                rs.push_column(
                    "dc.trace",
                    "node",
                    "int",
                    Arc::new(Bat::dense(Column::from(nodes))),
                );
                push_lng_col(&mut rs, "dc.trace", "epoch", epochs);
                push_lng_col(&mut rs, "dc.trace", "stmt", stmts);
                push_str_col(&mut rs, "dc.trace", "event", kinds);
                push_str_col(&mut rs, "dc.trace", "detail", details);
                Ok(rs)
            }
            "hotset" => {
                let snap = self.hotset_snapshot()?;
                let n = snap.rows.len();
                let (mut bats, mut tables, mut states) =
                    (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
                let (mut lois, mut versions, mut sizes) =
                    (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
                for r in snap.rows {
                    bats.push(r.bat.0 as i64);
                    tables.push(r.table);
                    states.push(r.state.to_string());
                    lois.push(r.loi);
                    versions.push(r.version as i64);
                    sizes.push(r.size as i64);
                }
                let mut rs = batstore::ResultSet::new();
                push_lng_col(&mut rs, "dc.hotset", "bat", bats);
                push_str_col(&mut rs, "dc.hotset", "table", tables);
                push_str_col(&mut rs, "dc.hotset", "state", states);
                rs.push_column("dc.hotset", "loi", "dbl", Arc::new(Bat::dense(Column::from(lois))));
                push_lng_col(&mut rs, "dc.hotset", "version", versions);
                push_lng_col(&mut rs, "dc.hotset", "size_bytes", sizes);
                Ok(rs)
            }
            other => Err(MalError::Dc(format!(
                "unknown system view dc.{other} (have: stats, latency, trace, hotset)"
            ))),
        }
    }
}

fn push_str_col(rs: &mut batstore::ResultSet, table: &str, name: &str, vals: Vec<String>) {
    let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
    rs.push_column(table, name, "str", Arc::new(Bat::dense(Column::from(refs))));
}

fn push_lng_col(rs: &mut batstore::ResultSet, table: &str, name: &str, vals: Vec<i64>) {
    rs.push_column(table, name, "lng", Arc::new(Bat::dense(Column::from(vals))));
}

/// Timeout message for a routed mutation whose ack never returned: the
/// owner may or may not have applied it (that status is unknowable from
/// here), which is exactly what the caller needs to hear.
const MUT_ACK_TIMEOUT: &str = "timed out waiting for the mutation acknowledgement from the \
                               fragment owner; whether the mutation applied is unknown";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_catalog_publish_lookup() {
        let c = RingCatalog::new();
        assert!(c.is_empty());
        c.publish(
            "sys",
            "t",
            "id",
            FragInfo { bat: BatId(7), size: 100, owner: NodeId(2), version: 0 },
        );
        let info = c.lookup("sys", "t", "id").unwrap();
        assert_eq!(info.bat, BatId(7));
        assert_eq!(info.owner, NodeId(2));
        assert!(c.lookup("sys", "t", "nope").is_none());
        assert_eq!(c.len(), 1);
        // A mutation at the owner refreshes both size and version.
        c.update_meta(BatId(7), 250, 4);
        let info = c.lookup("sys", "t", "id").unwrap();
        assert_eq!((info.size, info.version), (250, 4));
    }

    #[test]
    fn catalog_notify_wakes_waiters_and_times_out() {
        let n = Arc::new(CatalogNotify::new());
        let seen = n.current();
        // Timeout path: nothing bumps.
        assert!(!n.wait_past(seen, Instant::now() + Duration::from_millis(20)));
        // Wakeup path: a bump from another thread releases the waiter.
        let n2 = Arc::clone(&n);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            n2.bump();
        });
        assert!(n.wait_past(seen, Instant::now() + Duration::from_secs(5)));
        h.join().unwrap();
        // A bump that landed before the wait is seen immediately.
        assert!(n.wait_past(seen, Instant::now() + Duration::from_secs(5)));
    }

    #[test]
    fn waiter_fulfill_before_wait() {
        let w: Waiter = Waiter::default();
        w.fulfill(Err("nope".into()));
        assert_eq!(w.wait(Duration::from_millis(10)).unwrap_err(), "nope");
    }

    #[test]
    fn waiter_fulfilled_across_threads() {
        let w = Arc::new(Waiter::default());
        let w2 = Arc::clone(&w);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            w2.fulfill(Ok(Arc::new(Bat::dense(batstore::Column::from(vec![1])))));
        });
        let got = w.wait(Duration::from_secs(5)).unwrap();
        assert_eq!(got.count(), 1);
        h.join().unwrap();
    }

    #[test]
    fn waiter_times_out() {
        let w: Waiter = Waiter::default();
        let e = w.wait(Duration::from_millis(20)).unwrap_err();
        assert!(e.contains("timed out"));
    }
}

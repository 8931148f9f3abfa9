//! The live multi-threaded Data Cyclotron ring.
//!
//! Every node runs its own event loop (thread) hosting the protocol state
//! machine plus the fragment payload stores. The loop is written purely
//! against the [`RingTransport`] trait (§4.3's network layer): data
//! messages flow clockwise and requests anti-clockwise over whatever
//! fabric the transport provides. [`Ring`] wires an in-process ring over
//! the built-in memory fabric; [`RingNode`] hosts a single node over any
//! transport — hand it `dc_transport::tcp::join_ring` and the identical
//! engine runs as one process of a real distributed deployment.
//!
//! Queries execute on caller threads through the full DBMS stack:
//! SQL → MAL → DC optimizer → dataflow interpreter, with `pin` calls
//! blocking until fragments flow past. Table metadata is *not* shared:
//! each node owns its catalogs, kept in sync by [`DcMsg::Catalog`]
//! gossip circulating once around the ring, and SQL `INSERT`s route row
//! batches to the fragment owners as [`DcMsg::Append`] messages (§6.4).

use crate::catalog::OwnedState;
use crate::config::{DataDir, DcConfig};
use crate::error::DcError;
use crate::hotset::{spill_victims, HotsetAccounting, HotsetRow, HotsetSnapshot, SpillQueue};
use crate::ids::{BatId, NodeId, QueryId};
use crate::msg::{
    AppendMsg, CatalogCol, CatalogMsg, DcMsg, EvictMsg, MutAckMsg, MutOp, MutateMsg, ReadmitMsg,
};
use crate::proto::{DcNode, Effect, PinOutcome};
use crate::runtime::{CatalogNotify, Cmd, FragInfo, RingCatalog, RingHooks, Waiter};
use crate::stats::NodeStats;
use crate::transport::{mem, MeteredTransport, RingTransport};
use batstore::{ops, storage, Bat, BatStore, Catalog, Column, ResultSet, RowPredicate};
use bytes::Bytes;
use crossbeam::channel::{bounded, Receiver, Sender};
use dc_persist::{
    Checkpointer, ColRec, FragSnap, ReplacePart, Snapshot, TableRec, WalRecord, WalWriter,
};
use mal::{MalError, SessionCtx};
use netsim::SimTime;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fragment-id namespace for node-created tables: the top byte is
/// `(node % 255) + 1`, staying clear of the low id space
/// `Ring::load_table` hands out and never overflowing `u32`. Node 255
/// shares node 0's namespace — rings that large are beyond this
/// engine's scope (rings in the paper top out at 64).
fn node_frag_id(node: NodeId, n: u32) -> BatId {
    BatId(((node.0 as u32 % 255 + 1) << 24) | (n & 0x00ff_ffff))
}

/// Durable form of a catalog message (what the WAL and snapshots hold).
fn table_rec(c: &CatalogMsg) -> TableRec {
    TableRec {
        origin: c.origin.0,
        schema: c.schema.clone(),
        table: c.table.clone(),
        cols: c
            .columns
            .iter()
            .map(|col| ColRec {
                name: col.name.clone(),
                ty: col.ty,
                bat: col.bat.0,
                size: col.size,
                owner: col.owner.0,
            })
            .collect(),
    }
}

fn catalog_msg(t: &TableRec) -> CatalogMsg {
    CatalogMsg {
        origin: NodeId(t.origin),
        schema: t.schema.clone(),
        table: t.table.clone(),
        columns: t
            .cols
            .iter()
            .map(|c| CatalogCol {
                name: c.name.clone(),
                ty: c.ty,
                bat: BatId(c.bat),
                size: c.size,
                owner: NodeId(c.owner),
                // Fragment versions are recovered from the checkpoint
                // (FragSnap), not the catalog mirror; the caller
                // refreshes owned columns before re-advertising.
                version: 0,
            })
            .collect(),
    }
}

/// The wire codec frames assignment, predicate, and IN-list counts as
/// `u16`s; a statement that would overflow them must be rejected before
/// routing — silent truncation of a WHERE conjunct would *widen* the
/// match at the owner. (Owner-local mutations never hit the wire and
/// carry no such limit.)
fn mutation_fits_wire(op: &MutOp, preds: &[RowPredicate]) -> Result<(), String> {
    const MAX: usize = u16::MAX as usize;
    if preds.len() > MAX {
        return Err(format!("cannot route mutation: {} WHERE predicates (max {MAX})", preds.len()));
    }
    if let MutOp::Update(assigns) = op {
        if assigns.len() > MAX {
            return Err(format!(
                "cannot route mutation: {} assignments (max {MAX})",
                assigns.len()
            ));
        }
    }
    for p in preds {
        if let RowPredicate::InList { values, .. } = p {
            if values.len() > MAX {
                return Err(format!(
                    "cannot route mutation: IN list of {} values (max {MAX})",
                    values.len()
                ));
            }
        }
    }
    Ok(())
}

/// Merge table metadata into a node's catalogs (the in-memory half of
/// [`NodeCtx::apply_catalog`], shared with startup recovery).
fn publish_table(catalog: &RingCatalog, meta: &RwLock<Catalog>, c: &CatalogMsg) {
    for col in &c.columns {
        catalog.publish(
            &c.schema,
            &c.table,
            &col.name,
            FragInfo { bat: col.bat, size: col.size, owner: col.owner, version: col.version },
        );
    }
    let mut meta = meta.write();
    if meta.table(&c.schema, &c.table).is_err() {
        // The metadata catalog stores zero-row columns: only names
        // and types are consulted by codegen on ring nodes.
        let typed: Vec<(&str, Column)> =
            c.columns.iter().map(|col| (col.name.as_str(), Column::empty(col.ty))).collect();
        let _ = meta.create_table_columnar(&mut BatStore::new(), &c.schema, &c.table, typed);
    }
}

/// The durability subsystem of one node: its WAL generation, the
/// background checkpointer, and the durable mirror of known tables the
/// snapshots are cut from. Present only when the node was spawned with a
/// [`DataDir`].
struct PersistCtx {
    dir: dc_persist::DataDir,
    wal: WalWriter,
    /// Active WAL generation (`wal-<gen>.log`).
    gen: u64,
    fsync: dc_persist::FsyncPolicy,
    checkpoint_wal_bytes: u64,
    bytes_since_checkpoint: u64,
    checkpointer: Checkpointer,
    /// Every table this node knows, keyed `schema.table` — the catalog
    /// half of a snapshot.
    tables: HashMap<String, CatalogMsg>,
    /// WAL timing handles, kept so rotation can re-attach them to the
    /// fresh generation's writer (see [`NodeCtx::maybe_checkpoint`]).
    wal_append_hist: Arc<dc_obs::Histogram>,
    wal_sync_hist: Arc<dc_obs::Histogram>,
}

impl PersistCtx {
    fn log(&mut self, rec: &WalRecord) -> Result<u64, String> {
        let n = self.wal.append(rec).map_err(|e| format!("wal append: {e}"))?;
        self.bytes_since_checkpoint += n;
        Ok(n)
    }
}

/// Events arriving at a node's event loop.
pub enum NodeEvent {
    /// A ring message drained from the transport by the pump thread.
    Ring(DcMsg),
    /// DBMS-layer command (request/pin/unpin/…).
    Cmd(Cmd),
}

/// A fragment payload held by a node: decoded for local delivery, with
/// the serialized form memoized lazily — fragments that never enter the
/// ring (owner-local tables, or repeated appends between passes) never
/// pay the encoding.
struct StoredFrag {
    bat: Arc<Bat>,
    wire: Option<Bytes>,
}

impl StoredFrag {
    fn new(bat: Arc<Bat>) -> StoredFrag {
        StoredFrag { bat, wire: None }
    }

    fn wire(&mut self) -> Bytes {
        self.wire.get_or_insert_with(|| Bytes::from(storage::bat_to_bytes(&self.bat))).clone()
    }
}

/// The inbound payload of the message being handled, decoded at most
/// once no matter how many effects consume it.
struct PayloadSlot {
    wire: Option<Bytes>,
    decoded: Option<Arc<Bat>>,
}

impl PayloadSlot {
    fn new(wire: Option<Bytes>) -> PayloadSlot {
        PayloadSlot { wire, decoded: None }
    }

    fn bat(&mut self) -> Option<Arc<Bat>> {
        if self.decoded.is_none() {
            self.decoded =
                self.wire.as_ref().and_then(|w| storage::bat_from_bytes(w).ok()).map(Arc::new);
        }
        self.decoded.clone()
    }
}

/// A routed statement's identity: `(origin, origin boot epoch,
/// statement id)` — the owner-side dedup key and what an ack echoes.
type StmtKey = (NodeId, u64, u64);

/// The kind of a routed statement, as its origin tracks it: it names the
/// statement in traces and errors, picks the failure counter a failure
/// bumps, and says how a successful readmit settles.
enum Routed {
    Append { table: String },
    Mutation { table: String },
    Readmit(BatId),
}

impl Routed {
    /// Count a failed statement. A dead readmit is not a failed write
    /// (nothing durable failed), so it bumps no failure counter.
    fn count_failure(&self, stats: &mut NodeStats) {
        match self {
            Routed::Append { .. } => stats.appends_failed += 1,
            Routed::Mutation { .. } => stats.mutations_failed += 1,
            Routed::Readmit(_) => {}
        }
    }
}

impl fmt::Display for Routed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Routed::Append { table } => write!(f, "append on {table}"),
            Routed::Mutation { table } => write!(f, "mutation on {table}"),
            Routed::Readmit(bat) => write!(f, "readmit on {bat}"),
        }
    }
}

/// One routed statement awaiting its owner acknowledgement at the
/// origin, with everything needed to resend it and to fail it loudly.
struct PendingOp {
    ack: Arc<Waiter<u64>>,
    /// The exact frame to resend (ids make re-delivery idempotent at
    /// the owner, so resending a statement that *was* applied is safe).
    msg: DcMsg,
    /// When the current attempt gives up and the next begins.
    deadline: Instant,
    /// Wait before the attempt after next (doubles each resend).
    backoff: Duration,
    retries_left: u32,
    attempts: u32,
    what: Routed,
}

/// Entries the owner-side dedup cache retains. Old entries only matter
/// while their origin might still resend (a few seconds); 4096 covers
/// every plausible in-flight window at a few hundred bytes each.
const APPLIED_CACHE_CAP: usize = 4096;

/// A fresh statement-id epoch for one node incarnation. Statement ids
/// restart at 1 on every spawn, so the dedup cache and ack matching key
/// on `(origin, epoch, id)`: without the epoch, a restarted origin's
/// reused ids could hit a surviving owner's cached results and fresh
/// statements would be acknowledged without ever applying. Wall-clock
/// nanos distinguish incarnations across process restarts; the counter
/// distinguishes nodes spawned within one clock tick.
fn fresh_boot_epoch() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let wall = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    wall.wrapping_add(SEQ.fetch_add(1, Ordering::Relaxed))
}

/// What became of a SQL `INSERT` batch at this node: applied in place, or
/// packaged for the caller to route to the owner with ack-tracking.
enum AppendOutcome {
    /// Locally owned — the batch is durable; carries the row count.
    Applied(u64),
    /// Foreign owner — the serialized parts of one [`AppendMsg`].
    Routed { parts: Vec<(BatId, Bytes)>, table: String },
}

struct NodeCtx {
    node: DcNode,
    rx: Receiver<NodeEvent>,
    transport: Arc<dyn RingTransport>,
    /// This node's replica of the ring-wide fragment catalog.
    catalog: Arc<RingCatalog>,
    /// This node's SQL metadata catalog (names and types only; the data
    /// lives in the ring).
    meta: Arc<RwLock<Catalog>>,
    /// Owned fragment payloads ("local disk").
    disk: HashMap<BatId, StoredFrag>,
    /// Cached passing fragments (the §4.2.1 local cache).
    cache: HashMap<BatId, StoredFrag>,
    /// Blocked pins per BAT.
    waiting: HashMap<BatId, Vec<(QueryId, Arc<Waiter>)>>,
    /// Fragment-id allocator for SQL-created tables, shared with the
    /// node handle and namespaced by node id so allocations on different
    /// ring members never collide.
    next_frag: Arc<AtomicU32>,
    /// Statements this node originated that are traveling the ring
    /// toward a remote owner (`Append`/`Mutate`/`Readmit`), keyed by
    /// origin-local statement id. The owner's [`MutAckMsg`] (or the
    /// message cycling back unowned) resolves them; entries whose ack
    /// never comes are re-sent on a backoff schedule and failed loudly
    /// once the retry budget is spent — see [`NodeCtx::service_pending`].
    pending_ops: HashMap<u64, PendingOp>,
    /// The next statement id [`NodeCtx::route_op`] hands out.
    next_stmt: u64,
    /// This incarnation's statement-id epoch (see [`fresh_boot_epoch`]):
    /// stamped on every routed statement, echoed in acks, and part of
    /// the owner-side dedup key.
    boot_epoch: u64,
    /// How long one attempt waits for the owner's ack before resending.
    ack_timeout: Duration,
    /// Resends after the first attempt before the statement fails.
    ack_retries: u32,
    /// Owner-side idempotence: results of routed statements already
    /// applied here, keyed by [`StmtKey`].
    /// A re-delivered frame (duplicate, origin retry racing a slow ack)
    /// re-sends the cached ack instead of re-applying — on top of the
    /// §6.4 version gate, which protects replay but not live
    /// double-apply. The epoch keeps a restarted origin's reused
    /// statement ids from aliasing entries its prior incarnation left
    /// behind.
    applied_ops: HashMap<StmtKey, Result<u64, String>>,
    /// FIFO of `applied_ops` keys, oldest first, bounding the cache.
    applied_order: std::collections::VecDeque<StmtKey>,
    /// Wakes `wait_for_table` callers when catalog state changes.
    notify: Arc<CatalogNotify>,
    /// Durable storage, when the node has a data dir.
    persist: Option<PersistCtx>,
    /// The node's telemetry registry (shared with [`RingHooks`] and the
    /// node handle): counters, latency histograms, and the trace ring.
    obs: Arc<dc_obs::Registry>,
    /// Per-[`DcMsg`]-kind handling-latency histograms, indexed by
    /// [`msg_kind`] so the hot loop never does a name lookup.
    msg_hists: [Arc<dc_obs::Histogram>; 8],
    /// Residency accounting against the node's memory budget: which
    /// owned fragments hold RAM, which are spilled to disk.
    hotset: HotsetAccounting,
    /// Cold fragments queued for the two-phase "checkpoint, then drop"
    /// spill.
    spill_queue: SpillQueue,
    /// Fragments other ring members announced as spilled ([`EvictMsg`]):
    /// a pin that must-waits on one of these routes a `Readmit` instead
    /// of waiting for a circulation that will never come.
    remote_spilled: HashSet<BatId>,
    /// Queue-to-drop latency of finalized spills.
    spill_hist: Arc<dc_obs::Histogram>,
    /// Disk-to-ring latency of fragment re-admissions.
    readmit_hist: Arc<dc_obs::Histogram>,
    /// Live hot-set gauges, in order: resident bytes, spilled bytes,
    /// spilled fragment count, current LOIT ladder level.
    hotset_gauges: [Arc<dc_obs::Gauge>; 4],
    started: Instant,
    tick_every: Duration,
}

/// Histogram index for a ring message (see [`NodeCtx::msg_hists`]).
fn msg_kind(msg: &DcMsg) -> usize {
    match msg {
        DcMsg::Bat { .. } => 0,
        DcMsg::Request(_) => 1,
        DcMsg::Catalog(_) => 2,
        DcMsg::Append(_) => 3,
        DcMsg::Mutate(_) => 4,
        DcMsg::MutAck(_) => 5,
        DcMsg::Evict(_) => 6,
        DcMsg::Readmit(_) => 7,
    }
}

/// The histogram names backing [`NodeCtx::msg_hists`], in [`msg_kind`]
/// order.
const MSG_HIST_NAMES: [&str; 8] = [
    "dc_msg_bat_handle_us",
    "dc_msg_request_handle_us",
    "dc_msg_catalog_handle_us",
    "dc_msg_append_handle_us",
    "dc_msg_mutate_handle_us",
    "dc_msg_mutack_handle_us",
    "dc_msg_evict_handle_us",
    "dc_msg_readmit_handle_us",
];

/// Which end-to-end latency histogram a SQL statement lands in, by its
/// leading keyword. Unknown statement shapes pool into `stmt_other_us`
/// rather than minting unbounded histogram names from user input.
fn stmt_hist_name(sql: &str) -> &'static str {
    let first = sql.split_whitespace().next().unwrap_or("");
    if first.eq_ignore_ascii_case("select") {
        "stmt_select_us"
    } else if first.eq_ignore_ascii_case("insert") {
        "stmt_insert_us"
    } else if first.eq_ignore_ascii_case("update") {
        "stmt_update_us"
    } else if first.eq_ignore_ascii_case("delete") {
        "stmt_delete_us"
    } else if first.eq_ignore_ascii_case("create") {
        "stmt_create_us"
    } else {
        "stmt_other_us"
    }
}

impl NodeCtx {
    fn now(&self) -> SimTime {
        SimTime(self.started.elapsed().as_nanos() as u64)
    }

    fn sync(&mut self) {
        let now = self.now();
        self.node.set_time(now);
        self.node.set_queue_bytes(self.transport.outbound_bytes());
    }

    fn run(mut self) {
        loop {
            let ev = self.rx.recv_timeout(self.tick_every);
            self.sync();
            match ev {
                Ok(NodeEvent::Ring(msg)) => {
                    let kind = msg_kind(&msg);
                    let start = Instant::now();
                    self.on_ring(msg);
                    self.msg_hists[kind].record_elapsed_micros(start);
                }
                Ok(NodeEvent::Cmd(cmd)) => {
                    if self.handle_cmd(cmd) {
                        return; // shutdown
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
            }
            let effects = self.node.tick();
            self.execute(effects, &mut PayloadSlot::new(None));
            self.enforce_budget();
            self.maybe_checkpoint();
            self.service_spills();
            self.service_pending();
            self.sync_hotset_telemetry();
        }
    }

    /// Resend routed statements whose ack deadline passed, and fail the
    /// ones whose retry budget is spent. Runs every loop iteration (the
    /// `recv_timeout` tick bounds the check latency), so an origin
    /// blocked on a dead or severed owner edge errors out within the
    /// configured budget instead of hanging until the caller's pin
    /// timeout.
    fn service_pending(&mut self) {
        if self.pending_ops.is_empty() {
            return;
        }
        let now = Instant::now();
        let due: Vec<u64> =
            self.pending_ops.iter().filter(|(_, p)| p.deadline <= now).map(|(&id, _)| id).collect();
        for id in due {
            let p = self.pending_ops.get_mut(&id).expect("due id present");
            if p.retries_left > 0 {
                p.retries_left -= 1;
                p.attempts += 1;
                p.deadline = now + p.backoff;
                p.backoff *= 2;
                self.node.stats.retries += 1;
                self.obs.trace(
                    self.boot_epoch,
                    id,
                    "retry",
                    format!("{}, attempt {}", p.what, p.attempts),
                );
                // A failing resend (edge still severed) is fine: the
                // next deadline fires again, and the budget bounds it.
                let _ = self.transport.send_data(p.msg.clone());
            } else {
                let p = self.pending_ops.remove(&id).expect("due id present");
                self.node.stats.timeouts += 1;
                self.obs.trace(
                    self.boot_epoch,
                    id,
                    "timeout",
                    format!("{} after {} attempts", p.what, p.attempts),
                );
                // A dead readmit leaves the pending table, so a later pin
                // can route a fresh one; its blocked pin falls back to
                // the Fig. 3 timeout-resend.
                p.what.count_failure(&mut self.node.stats);
                p.ack.fulfill(Err(format!(
                    "{} timed out after {} attempts: no acknowledgement from the \
                     fragment owner within the retry budget; whether it applied is unknown",
                    p.what, p.attempts
                )));
            }
        }
    }

    /// Allocate a routed statement's id, send its first attempt, and
    /// register it for ack-tracking. `build` stamps the statement's
    /// [`StmtKey`] into the message. A failed first send (severed edge)
    /// is absorbed: the retry schedule re-sends it, and the budget
    /// bounds the wait.
    fn route_op(
        &mut self,
        what: Routed,
        ack: Arc<Waiter<u64>>,
        build: impl FnOnce(StmtKey) -> DcMsg,
    ) {
        let id = self.next_stmt;
        self.next_stmt += 1;
        let msg = build((self.node.id, self.boot_epoch, id));
        self.obs.trace(self.boot_epoch, id, "route", what.to_string());
        let _ = self.transport.send_data(msg.clone());
        self.pending_ops.insert(
            id,
            PendingOp {
                ack,
                msg,
                deadline: Instant::now() + self.ack_timeout,
                backoff: self.ack_timeout * 2,
                retries_left: self.ack_retries,
                attempts: 1,
                what,
            },
        );
    }

    /// Record a routed statement's result in the owner-side dedup cache.
    fn remember_applied(&mut self, key: StmtKey, result: Result<u64, String>) {
        if self.applied_order.len() >= APPLIED_CACHE_CAP {
            if let Some(old) = self.applied_order.pop_front() {
                self.applied_ops.remove(&old);
            }
        }
        self.applied_order.push_back(key);
        self.applied_ops.insert(key, result);
    }

    /// Owner side of every routed statement: a re-delivered one (origin
    /// retry, fabric duplicate) replays its cached result, anything else
    /// is applied once and its result remembered; then the origin gets
    /// the result as a [`MutAckMsg`] clockwise (or directly, when
    /// ownership moved to the origin mid-flight). `what` names the
    /// statement in the trace. A lost ack is counted loudly, but the
    /// origin's retry will re-deliver the statement and the dedup cache
    /// will re-send this result.
    fn serve_routed(
        &mut self,
        key: StmtKey,
        what: &str,
        apply: impl FnOnce(&mut Self) -> Result<u64, String>,
    ) {
        let (origin, epoch, id) = key;
        let result = match self.applied_ops.get(&key) {
            Some(cached) => {
                self.node.stats.mutations_deduped += 1;
                self.obs.trace(epoch, id, "dedup", format!("{what} re-delivered"));
                cached.clone()
            }
            None => {
                let r = apply(self);
                let outcome = match &r {
                    Ok(rows) => format!("{what}, {rows} rows"),
                    Err(e) => format!("{what} failed: {e}"),
                };
                self.obs.trace(epoch, id, "apply", outcome);
                self.remember_applied(key, r.clone());
                r
            }
        };
        self.obs.trace(epoch, id, "ack_sent", format!("to {origin}"));
        let ack = MutAckMsg { target: origin, epoch, id, result };
        if origin == self.node.id {
            self.finish_routed(ack);
        } else if let Err(e) = self.transport.send_data(DcMsg::MutAck(ack)) {
            self.node.stats.mutation_acks_lost += 1;
            eprintln!(
                "[dc-node {}] statement {} applied but its ack could not be sent: {e}",
                self.node.id, id
            );
        }
    }

    /// A routed statement this node does not own: pass it on clockwise,
    /// or — back at its origin without finding an owner, the §4.2.3
    /// analog of a request circling back — fail it loudly.
    fn forward_routed(&mut self, key: StmtKey, msg: DcMsg) {
        let (origin, epoch, id) = key;
        if origin != self.node.id {
            let _ = self.transport.send_data(msg);
            return;
        }
        let err = match &msg {
            DcMsg::Append(_) => {
                self.node.stats.appends_dropped += 1;
                "no owner found for the append (fragments gone?)".to_string()
            }
            DcMsg::Mutate(m) => {
                format!("no owner found for {}.{} (fragments gone?)", m.schema, m.table)
            }
            DcMsg::Readmit(r) => format!("no owner found for {} re-admission", r.bat),
            _ => unreachable!("only routed statements are forwarded"),
        };
        self.finish_routed(MutAckMsg { target: origin, epoch, id, result: Err(err) });
    }

    /// Append a durable mutation to the WAL (ahead of applying it); a
    /// no-op for diskless nodes.
    fn log_durable(&mut self, rec: &WalRecord) -> Result<(), String> {
        if let Some(p) = self.persist.as_mut() {
            let n = p.log(rec)?;
            self.node.stats.wal_records += 1;
            self.node.stats.wal_bytes += n;
        }
        Ok(())
    }

    /// Mirror table metadata durably, WAL-logging it the first time this
    /// node learns of the table. The mirror is updated only after the
    /// log succeeds: a failed attempt leaves the table unknown, so a
    /// retry (re-issued DDL, re-circulating gossip) logs it again rather
    /// than acknowledging durability that never happened.
    fn persist_table(&mut self, c: &CatalogMsg) -> Result<(), String> {
        if self.persist.is_none() {
            return Ok(());
        }
        let key = format!("{}.{}", c.schema, c.table);
        let known = self.persist.as_ref().expect("checked above").tables.contains_key(&key);
        if !known {
            self.log_durable(&WalRecord::Table(table_rec(c)))?;
        }
        self.persist.as_mut().expect("checked above").tables.insert(key, c.clone());
        Ok(())
    }

    /// Once enough WAL has accumulated, rotate to a fresh generation and
    /// hand a snapshot of owned fragments + catalog to the background
    /// checkpointer. Appends keep flowing into the new generation while
    /// the checkpoint is written behind the node.
    fn maybe_checkpoint(&mut self) {
        // A queued spill that no snapshot carries yet forces a checkpoint
        // ahead of the WAL-bytes trigger: its payload cannot be dropped
        // until a checkpoint holding it commits.
        let spill_wants = self.spill_queue.has_unsubmitted();
        let Some(p) = self.persist.as_mut() else { return };
        if (p.bytes_since_checkpoint < p.checkpoint_wal_bytes && !spill_wants)
            || !p.checkpointer.idle()
        {
            return;
        }
        let next_gen = p.gen + 1;
        let mut wal = match WalWriter::create(&p.dir.wal_path(next_gen), p.fsync) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("[dc-persist] cannot rotate WAL to gen {next_gen}: {e}");
                return;
            }
        };
        wal.set_metrics(Arc::clone(&p.wal_append_hist), Arc::clone(&p.wal_sync_hist));
        p.wal = wal;
        p.gen = next_gen;
        p.bytes_since_checkpoint = 0;
        let mut frags: Vec<FragSnap> = self
            .disk
            .iter()
            .map(|(b, f)| FragSnap {
                bat: b.0,
                version: self.node.s1.get(*b).map(|o| o.version).unwrap_or(0),
                payload: Some(Arc::clone(&f.bat)),
            })
            .collect();
        // Spilled fragments ride along payload-less: their at-rest copy
        // already exists from the checkpoint that finalized the spill,
        // and the entry keeps the file out of garbage collection and the
        // version in the catalog snapshot.
        for (bat, info) in self.hotset.spilled_iter() {
            frags.push(FragSnap { bat: bat.0, version: info.version, payload: None });
        }
        let snap = Snapshot {
            node: self.node.id.0,
            replay_from: next_gen,
            tables: p.tables.values().map(table_rec).collect(),
            frags,
        };
        if p.checkpointer.submit(snap) {
            self.node.stats.checkpoints += 1;
            // This snapshot carries every currently queued spill payload
            // and will be checkpoint `completed() + 1`.
            self.spill_queue.mark_submitted(p.checkpointer.completed() + 1);
        }
    }

    fn on_ring(&mut self, msg: DcMsg) {
        match msg {
            DcMsg::Bat { header, payload } => {
                // A circulating copy proves the fragment is back in the
                // ring, whatever Evict announcements said earlier.
                self.remote_spilled.remove(&header.bat);
                let effects = self.node.on_bat(header);
                self.execute(effects, &mut PayloadSlot::new(payload));
            }
            DcMsg::Request(req) => {
                let effects = self.node.on_request(req);
                self.execute(effects, &mut PayloadSlot::new(None));
            }
            DcMsg::Catalog(c) => {
                if c.origin == self.node.id {
                    return; // completed its cycle
                }
                self.apply_catalog(&c);
                let _ = self.transport.send_data(DcMsg::Catalog(c));
            }
            DcMsg::Append(a) => {
                // All parts of a batch share one owner (enforced at the
                // sender), so one membership test routes the whole
                // message and the owner applies it atomically in this
                // single event.
                let key = (a.origin, a.epoch, a.id);
                if a.parts.iter().any(|(bat, _)| self.node.s1.is_owner(*bat)) {
                    let what = format!("append from {}", a.origin);
                    self.serve_routed(key, &what, |n| n.apply_remote_append(&a));
                } else {
                    self.forward_routed(key, DcMsg::Append(a));
                }
            }
            DcMsg::Mutate(m) => {
                let key = (m.origin, m.epoch, m.id);
                if self.mutation_owner(&m.schema, &m.table) == Ok(self.node.id) {
                    let what = format!("mutation on {}.{}", m.schema, m.table);
                    self.serve_routed(key, &what, |n| {
                        n.apply_mutation(&m.schema, &m.table, &m.op, &m.preds)
                    });
                } else {
                    self.forward_routed(key, DcMsg::Mutate(m));
                }
            }
            DcMsg::MutAck(a) => {
                if a.target == self.node.id {
                    self.finish_routed(a);
                } else {
                    let _ = self.transport.send_data(DcMsg::MutAck(a));
                }
            }
            DcMsg::Evict(e) => {
                // Circulate once, like Catalog: every node learns the
                // fragment left the ring so its pins route `Readmit`s
                // instead of waiting for a circulation that won't come.
                if e.owner == self.node.id {
                    return; // completed its cycle
                }
                self.remote_spilled.insert(e.bat);
                self.obs.trace(
                    self.boot_epoch,
                    0,
                    "evict_seen",
                    format!("{} spilled by {} ({} bytes)", e.bat, e.owner, e.size),
                );
                let _ = self.transport.send_data(DcMsg::Evict(e));
            }
            DcMsg::Readmit(r) => {
                let key = (r.origin, r.epoch, r.id);
                if self.node.s1.is_owner(r.bat) {
                    let what = format!("readmit of {} from {}", r.bat, r.origin);
                    self.serve_routed(key, &what, |n| n.admit_fragment(r.bat));
                } else {
                    self.forward_routed(key, DcMsg::Readmit(r));
                }
            }
        }
    }

    /// Resolve a routed statement's acknowledgement to the caller blocked
    /// on it; a successful readmit also clears the fragment's spilled
    /// mark, so its circulating copy, not the Evict announcement, now
    /// governs pin behavior. Acks from a previous incarnation of this
    /// node (epoch mismatch — still circulating from before a restart)
    /// and unmatched ids are ignored without side effects — the waiter
    /// already timed out, or a duplicate ack arrived for a statement we
    /// settled on an earlier delivery (counting failures there would
    /// double-book them).
    fn finish_routed(&mut self, ack: MutAckMsg) {
        if ack.epoch != self.boot_epoch {
            return;
        }
        let Some(p) = self.pending_ops.remove(&ack.id) else { return };
        let outcome = match &ack.result {
            Ok(rows) => format!("{} ok, {rows} rows", p.what),
            Err(e) => format!("{} failed: {e}", p.what),
        };
        self.obs.trace(ack.epoch, ack.id, "ack", outcome);
        match (&p.what, &ack.result) {
            (what, Err(_)) => what.count_failure(&mut self.node.stats),
            (Routed::Readmit(bat), Ok(_)) => {
                self.remote_spilled.remove(bat);
            }
            _ => {}
        }
        p.ack.fulfill(ack.result);
    }

    /// Owner-side handling of a routed `Readmit`: make the fragment
    /// resident (reloading its checkpoint file if it was spilled) and
    /// re-inject it into ring circulation. Idempotent at every layer —
    /// already-circulating states are left alone.
    fn admit_fragment(&mut self, bat: BatId) -> Result<u64, String> {
        let Some(owned) = self.node.s1.get(bat) else {
            return Err(format!("{bat} is not owned by this node"));
        };
        let state = owned.state;
        match state {
            // Already circulating (or a load is already in flight): the
            // requester's pin will catch the copy as it passes.
            OwnedState::InRing { .. } | OwnedState::Loading | OwnedState::Pending { .. } => Ok(0),
            OwnedState::OnDisk => {
                let reloaded = self.ensure_resident(bat)?;
                self.spill_queue.cancel(bat);
                if !reloaded {
                    // No disk reload happened (the payload never left
                    // RAM), but this is still a re-admission event.
                    self.node.stats.loi_readmits += 1;
                }
                let effects = self.node.bat_loaded(bat);
                self.execute(effects, &mut PayloadSlot::new(None));
                Ok(1)
            }
        }
    }

    /// Guarantee the owned fragment's payload is in RAM, reloading the
    /// spilled checkpoint file if necessary. Returns whether a disk
    /// reload happened. The spilled version is preserved: the file was
    /// written at the version the catalog still records (spilled
    /// fragments are immutable — mutations reload first).
    fn ensure_resident(&mut self, bat: BatId) -> Result<bool, String> {
        if self.disk.contains_key(&bat) {
            return Ok(false);
        }
        let Some(info) = self.hotset.spilled_get(bat) else {
            return Err(format!("owned {bat} missing from disk"));
        };
        let Some(p) = self.persist.as_ref() else {
            return Err(format!("owned {bat} spilled but the node has no data dir"));
        };
        let start = Instant::now();
        let payload = storage::load_bat(&p.dir.bat_path(bat.0))
            .map_err(|e| format!("reloading spilled {bat}: {e}"))?;
        let size = payload.byte_size() as u64;
        self.disk.insert(bat, StoredFrag::new(Arc::new(payload)));
        self.hotset.note_reloaded(bat);
        self.hotset.note_resident(bat, size);
        self.node.stats.loi_readmits += 1;
        self.readmit_hist.record_elapsed_micros(start);
        self.obs.trace(
            self.boot_epoch,
            0,
            "readmit",
            format!("{bat} reloaded from disk ({size} bytes, spilled at v{})", info.version),
        );
        Ok(true)
    }

    /// Queue a cold fragment for the two-phase spill. No-op without a
    /// data dir (diskless nodes have nowhere to put the at-rest copy, so
    /// `Effect::Unload` stays the historical no-op) or if the payload is
    /// not actually resident.
    fn begin_spill(&mut self, bat: BatId) {
        if self.persist.is_none() {
            return;
        }
        let Some(owned) = self.node.s1.get(bat) else { return };
        let (version, size) = (owned.version, owned.size);
        if !self.disk.contains_key(&bat) {
            return;
        }
        self.spill_queue.push(bat, version, size);
    }

    /// Finalize spills whose carrying checkpoint has committed: verify
    /// the fragment is still cold and unchanged, then drop the RAM
    /// payload — the checkpoint's `bats/<id>.bat` is now the only copy —
    /// and announce the eviction around the ring.
    fn service_spills(&mut self) {
        if self.spill_queue.is_empty() {
            return;
        }
        let Some(p) = self.persist.as_ref() else { return };
        let completed = p.checkpointer.completed();
        for spill in self.spill_queue.take_ready(completed) {
            let still_cold = self
                .node
                .s1
                .get(spill.bat)
                .is_some_and(|o| o.state == OwnedState::OnDisk && o.version == spill.version);
            if !still_cold {
                // A mutation or re-demand raced the checkpoint; the RAM
                // copy is the truth, keep it.
                continue;
            }
            if self.disk.remove(&spill.bat).is_none() {
                continue;
            }
            self.hotset.note_spilled(spill.bat, spill.version, spill.size);
            self.node.stats.loi_evictions += 1;
            self.spill_hist.record_elapsed_micros(spill.queued);
            self.obs.trace(
                self.boot_epoch,
                0,
                "evict",
                format!("{} spilled ({} bytes, v{})", spill.bat, spill.size, spill.version),
            );
            let _ = self.transport.send_data(DcMsg::Evict(EvictMsg {
                owner: self.node.id,
                bat: spill.bat,
                version: spill.version,
                size: spill.size,
            }));
        }
    }

    /// Queue the coldest off-ring fragments for spill until projected
    /// residency fits the memory budget. Runs every tick; bytes already
    /// queued count as "on their way out" so an in-flight checkpoint
    /// does not cause over-spill.
    fn enforce_budget(&mut self) {
        if self.persist.is_none() {
            return;
        }
        let excess = self.hotset.excess().saturating_sub(self.spill_queue.queued_bytes());
        if excess == 0 {
            return;
        }
        let candidates: Vec<(BatId, f64, u64)> = self
            .node
            .s1
            .iter()
            .filter(|(bat, o)| {
                o.state == OwnedState::OnDisk
                    && self.disk.contains_key(bat)
                    && !self.spill_queue.is_pending(*bat)
            })
            .map(|(bat, o)| (bat, o.last_loi, o.size))
            .collect();
        for bat in spill_victims(candidates, excess) {
            self.begin_spill(bat);
        }
    }

    /// If the fragment a pin just blocked on is known to be spilled
    /// somewhere on the ring, route a `Readmit` to its owner instead of
    /// waiting for a circulation that will never come on its own.
    fn maybe_route_readmit(&mut self, bat: BatId) {
        let in_flight =
            || self.pending_ops.values().any(|p| matches!(p.what, Routed::Readmit(b) if b == bat));
        if !self.remote_spilled.contains(&bat) || in_flight() {
            return;
        }
        self.node.stats.readmits_routed += 1;
        // Nothing blocks on this waiter — the pin already waits on S3 —
        // but route_op needs one for its timeout bookkeeping.
        self.route_op(Routed::Readmit(bat), Arc::new(Waiter::default()), |(origin, epoch, id)| {
            DcMsg::Readmit(ReadmitMsg { origin, epoch, id, bat })
        });
    }

    /// Push the hot-set residency totals and LOIT level into the node's
    /// gauge registry, and mirror the ladder's transition count into
    /// [`NodeStats`].
    fn sync_hotset_telemetry(&mut self) {
        self.node.stats.loit_transitions = self.node.ladder.transitions;
        self.hotset_gauges[0].set(self.hotset.resident_bytes() as i64);
        self.hotset_gauges[1].set(self.hotset.spilled_bytes() as i64);
        self.hotset_gauges[2].set(self.hotset.spilled_count() as i64);
        self.hotset_gauges[3].set(self.node.ladder.level_index() as i64);
    }

    /// One row per owned fragment plus the node-wide residency totals,
    /// for the `dc.hotset` view and the dcsh `.hotset` meta-statement.
    fn hotset_snapshot(&self) -> HotsetSnapshot {
        let mut rows: Vec<HotsetRow> = self
            .node
            .s1
            .iter()
            .map(|(bat, o)| {
                let state = if self.hotset.is_spilled(bat) {
                    "spilled"
                } else {
                    match o.state {
                        OwnedState::InRing { .. } => "in-ring",
                        OwnedState::Loading => "loading",
                        OwnedState::Pending { .. } => "pending",
                        OwnedState::OnDisk => "on-disk",
                    }
                };
                let table = self
                    .catalog
                    .table_of(bat)
                    .map(|(s, t)| format!("{s}.{t}"))
                    .unwrap_or_else(|| "?".into());
                HotsetRow { bat, table, state, loi: o.last_loi, version: o.version, size: o.size }
            })
            .collect();
        rows.sort_by_key(|r| r.bat.0);
        HotsetSnapshot {
            rows,
            loit: self.node.ladder.current(),
            loit_level: self.node.ladder.level_index(),
            resident_bytes: self.hotset.resident_bytes(),
            spilled_bytes: self.hotset.spilled_bytes(),
            mem_budget: self.hotset.mem_budget(),
        }
    }

    /// Merge gossiped table metadata into this node's catalogs, logging
    /// it durably first. A WAL failure here cannot reject the gossip (the
    /// origin already committed), so it degrades to a warning: the node
    /// serves the table from memory but would forget it on restart.
    fn apply_catalog(&mut self, c: &CatalogMsg) {
        if let Err(e) = self.persist_table(c) {
            eprintln!(
                "[dc-node {}] table {}.{} applied but not durable: {e}",
                self.node.id, c.schema, c.table
            );
        }
        publish_table(&self.catalog, &self.meta, c);
        self.obs.counter("gossip_applied").inc();
        self.obs.trace(0, 0, "gossip", format!("{}.{} from {}", c.schema, c.table, c.origin));
        self.notify.bump();
    }

    /// Apply an append batch that traveled the ring to us, the fragment
    /// owner, returning the row count (or the failure) for the origin's
    /// ack. The whole batch applies or none of it does (a half-applied
    /// multi-column INSERT would leave the table ragged forever); dropped
    /// batches are still counted per part (`appends_dropped`).
    fn apply_remote_append(&mut self, a: &AppendMsg) -> Result<u64, String> {
        let decoded: Result<Vec<(BatId, Bat)>, String> = a
            .parts
            .iter()
            .map(|(bat, rows)| {
                storage::bat_from_bytes(rows).map(|b| (*bat, b)).map_err(|e| e.to_string())
            })
            .collect();
        let applied = decoded.and_then(|cols| {
            let rows = cols.first().map(|(_, b)| b.count() as u64).unwrap_or(0);
            let parts: Vec<(BatId, &Column)> =
                cols.iter().map(|(bat, b)| (*bat, b.tail())).collect();
            self.append_batch(&parts).map(|()| rows)
        });
        match &applied {
            Ok(_) => {
                self.node.stats.appends_applied += a.parts.len() as u64;
                if let Some((schema, table)) =
                    a.parts.first().and_then(|(bat, _)| self.catalog.table_of(*bat))
                {
                    self.readvertise_table(&schema, &table);
                }
            }
            Err(_) => self.node.stats.appends_dropped += a.parts.len() as u64,
        }
        applied
    }

    /// Append one batch of columns to locally-owned fragments: stage and
    /// validate every column, WAL the whole batch as *one* record, then
    /// replace the disk payloads and bump the versions (§6.4
    /// multi-version updates). Stale copies keep circulating for readers
    /// that accept them; the next owner pass re-enters the ring with the
    /// fresh payload. Because validation and logging precede every
    /// in-memory change and the batch shares one CRC-framed WAL record,
    /// neither a WAL failure nor a crash can leave half a row behind —
    /// an owner-acknowledged INSERT is on disk, whole.
    fn append_batch(&mut self, parts: &[(BatId, &Column)]) -> Result<(), String> {
        // Mutating a spilled fragment would invalidate its at-rest copy;
        // reload every target first so the append applies in RAM and the
        // version gate keeps the stale file from ever being finalized.
        for (bat, _) in parts {
            self.ensure_resident(*bat)?;
        }
        let mut staged = Vec::with_capacity(parts.len());
        for (bat, vals) in parts {
            let frag =
                self.disk.get(bat).ok_or_else(|| format!("owned {bat} missing from disk"))?;
            let grown = frag.bat.extend_tail(vals).map_err(|e| e.to_string())?;
            let version = self.node.s1.get(*bat).map(|o| o.version + 1).unwrap_or(1);
            staged.push((*bat, version, grown));
        }
        self.log_durable(&WalRecord::AppendBatch(
            staged
                .iter()
                .zip(parts)
                .map(|((bat, version, _), (_, vals))| dc_persist::AppendPart {
                    bat: bat.0,
                    version: *version,
                    rows: storage::bat_to_bytes(&Bat::dense((*vals).clone())),
                })
                .collect(),
        ))?;
        for (bat, version, grown) in staged {
            let frag = StoredFrag::new(Arc::new(grown));
            let size = frag.bat.byte_size() as u64;
            self.disk.insert(bat, frag);
            self.hotset.note_resident(bat, size);
            if let Some(owned) = self.node.s1.get_mut(bat) {
                owned.size = size;
                owned.version = version;
            }
            self.catalog.update_meta(bat, size, version);
        }
        Ok(())
    }

    /// Returns true on shutdown.
    fn handle_cmd(&mut self, cmd: Cmd) -> bool {
        match cmd {
            Cmd::Request { query, bat } => {
                let effects = self.node.local_request(query, bat);
                self.execute(effects, &mut PayloadSlot::new(None));
            }
            Cmd::Pin { query, bat, waiter } => {
                let (outcome, effects) = self.node.pin(query, bat);
                self.execute(effects, &mut PayloadSlot::new(None));
                match outcome {
                    PinOutcome::OwnedLocal => {
                        // The owned payload may have been spilled; a
                        // local pin re-admits it synchronously.
                        let r = self.ensure_resident(bat).and_then(|_| {
                            self.disk
                                .get(&bat)
                                .map(|f| Arc::clone(&f.bat))
                                .ok_or_else(|| format!("owned fragment {bat} missing from disk"))
                        });
                        waiter.fulfill(r);
                    }
                    PinOutcome::Cached => {
                        let r = self
                            .cache
                            .get(&bat)
                            .map(|f| Arc::clone(&f.bat))
                            .ok_or_else(|| format!("cached fragment {bat} missing payload"));
                        waiter.fulfill(r);
                    }
                    PinOutcome::MustWait => {
                        self.waiting.entry(bat).or_default().push((query, waiter));
                        // If the fragment is known spilled at its owner,
                        // a circulation will not come on its own — ask
                        // the owner to re-admit it.
                        self.maybe_route_readmit(bat);
                    }
                }
            }
            Cmd::Unpin { query, bat } => {
                let effects = self.node.unpin(query, bat);
                self.execute(effects, &mut PayloadSlot::new(None));
            }
            Cmd::QueryDone { query } => {
                let effects = self.node.query_done(query);
                self.execute(effects, &mut PayloadSlot::new(None));
            }
            Cmd::StoreOwned { bat, payload } => {
                // Driver-side bulk load: the whole payload is the durable
                // unit. Logging cannot reject the load (no ack channel);
                // a failure is loud and the fragment is memory-only.
                let log = self.log_durable(&WalRecord::Store {
                    bat: bat.0,
                    version: 0,
                    rows: storage::bat_to_bytes(&payload),
                });
                if let Err(e) = log {
                    eprintln!(
                        "[dc-node {}] fragment {bat} loaded but not durable: {e}",
                        self.node.id
                    );
                }
                let size = payload.byte_size() as u64;
                self.disk.insert(bat, StoredFrag::new(payload));
                self.hotset.note_resident(bat, size);
                self.node.register_owned(bat, size);
            }
            Cmd::CreateTable { schema, table, cols, ack } => {
                ack.fulfill(self.create_table(&schema, &table, &cols));
            }
            Cmd::Append { schema, table, cols, ack } => {
                match self.append_table(&schema, &table, &cols) {
                    Ok(AppendOutcome::Applied(rows)) => ack.fulfill(Ok(rows)),
                    Ok(AppendOutcome::Routed { parts, table }) => {
                        self.route_op(Routed::Append { table }, ack, |(origin, epoch, id)| {
                            DcMsg::Append(AppendMsg { origin, epoch, id, parts })
                        });
                    }
                    Err(e) => ack.fulfill(Err(e)),
                }
            }
            Cmd::Mutate { schema, table, op, preds, ack } => {
                match self.mutation_owner(&schema, &table) {
                    Err(e) => ack.fulfill(Err(e)),
                    Ok(owner) if owner == self.node.id => {
                        ack.fulfill(self.apply_mutation(&schema, &table, &op, &preds));
                    }
                    Ok(_) => {
                        // Route the logical mutation clockwise to the
                        // owner; the ack resolves when the MutAck comes
                        // back, and the per-attempt timeout resends it
                        // (or fails it) if the ack never does.
                        if let Err(e) = mutation_fits_wire(&op, &preds) {
                            ack.fulfill(Err(e));
                        } else {
                            self.node.stats.mutations_routed += 1;
                            let what = Routed::Mutation { table: format!("{schema}.{table}") };
                            self.route_op(what, ack, |(origin, epoch, id)| {
                                DcMsg::Mutate(MutateMsg {
                                    origin,
                                    epoch,
                                    id,
                                    schema,
                                    table,
                                    op,
                                    preds,
                                })
                            });
                        }
                    }
                }
            }
            Cmd::Stats { ack } => {
                ack.fulfill(Ok(self.node.stats.clone()));
            }
            Cmd::Hotset { ack } => {
                ack.fulfill(Ok(self.hotset_snapshot()));
            }
            Cmd::PublishTable { table, gossip } => {
                self.apply_catalog(&table);
                if gossip {
                    let _ = self.transport.send_data(DcMsg::Catalog(table));
                }
            }
            Cmd::Shutdown => {
                // Graceful exit: whatever the fsync policy deferred goes
                // to disk now.
                if let Some(p) = self.persist.as_mut() {
                    let _ = p.wal.sync();
                }
                return true;
            }
        }
        false
    }

    /// SQL `CREATE TABLE` at this node: it becomes the owner of the new
    /// (empty) column fragments and gossips the metadata clockwise.
    fn create_table(
        &mut self,
        schema: &str,
        table: &str,
        cols: &[(String, batstore::ColType)],
    ) -> Result<u64, String> {
        if self.meta.read().table(schema, table).is_ok() {
            return Err(format!("table {schema}.{table} already exists"));
        }
        let id = self.node.id;
        let mut columns = Vec::with_capacity(cols.len());
        let mut payloads = Vec::with_capacity(cols.len());
        for (name, ty) in cols {
            let bat = self.alloc_frag_id();
            let payload = Arc::new(Bat::empty(*ty));
            let size = payload.byte_size() as u64;
            payloads.push((bat, payload));
            columns.push(CatalogCol {
                name: name.clone(),
                ty: *ty,
                bat,
                size,
                owner: id,
                version: 0,
            });
        }
        let gossip = CatalogMsg {
            origin: id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns,
        };
        // WAL ahead of every in-memory effect: a failure rejects the DDL
        // outright rather than acknowledging a table that would vanish
        // on restart.
        self.persist_table(&gossip)?;
        for (bat, payload) in payloads {
            let size = payload.byte_size() as u64;
            self.disk.insert(bat, StoredFrag::new(payload));
            self.hotset.note_resident(bat, size);
            self.node.register_owned(bat, size);
        }
        publish_table(&self.catalog, &self.meta, &gossip);
        self.notify.bump();
        let _ = self.transport.send_data(DcMsg::Catalog(gossip));
        Ok(0)
    }

    /// SQL `INSERT` at this node: locally-owned fragments are appended in
    /// place ([`AppendOutcome::Applied`]); foreign ones produce
    /// [`AppendOutcome::Routed`] parts for the caller to send with
    /// [`NodeCtx::route_op`], so the statement gets the same
    /// timeout/retry protection as a routed UPDATE.
    fn append_table(
        &mut self,
        schema: &str,
        table: &str,
        cols: &[(String, Column)],
    ) -> Result<AppendOutcome, String> {
        let mut resolved = Vec::with_capacity(cols.len());
        let mut rows = None;
        for (name, vals) in cols {
            let info = self
                .catalog
                .lookup(schema, table, name)
                .ok_or_else(|| format!("unknown fragment {schema}.{table}.{name}"))?;
            match rows {
                None => rows = Some(vals.len()),
                Some(n) if n != vals.len() => {
                    return Err("ragged INSERT batch".into());
                }
                Some(_) => {}
            }
            resolved.push((info, vals));
        }
        // All fragments must share one owner: a mixed-owner INSERT would
        // apply some columns synchronously and route others through the
        // ring (or lose them if an owner is gone), leaving the table
        // ragged. SQL-created tables are always single-owner; spread
        // (round-robin loaded) tables reject SQL appends for now.
        let mut owners = resolved.iter().map(|(i, _)| i.owner);
        let first_owner = owners.next();
        if owners.any(|o| Some(o) != first_owner) {
            return Err(format!(
                "INSERT into {schema}.{table} is not supported: its fragments are owned by \
                 multiple nodes and a split append would not be atomic"
            ));
        }
        if first_owner == Some(self.node.id) {
            // One validated batch, one WAL record, then apply: the whole
            // INSERT is durable and visible together, or not at all.
            let parts: Vec<(BatId, &Column)> =
                resolved.iter().map(|(info, vals)| (info.bat, *vals)).collect();
            self.append_batch(&parts)?;
            self.node.stats.appends_applied += parts.len() as u64;
            self.readvertise_table(schema, table);
            Ok(AppendOutcome::Applied(rows.unwrap_or(0) as u64))
        } else {
            // One message carries the whole batch so the owner applies
            // every column in a single event — concurrent INSERTs from
            // different nodes cannot interleave mid-row.
            let parts = resolved
                .iter()
                .map(|(info, vals)| {
                    let rows = Bytes::from(storage::bat_to_bytes(&Bat::dense((*vals).clone())));
                    (info.bat, rows)
                })
                .collect();
            Ok(AppendOutcome::Routed { parts, table: format!("{schema}.{table}") })
        }
    }

    /// The table's column layout as this node's replica knows it:
    /// `(name, fragment)` in declared order, resolved against the ring
    /// catalog.
    fn table_frags(&self, schema: &str, table: &str) -> Result<Vec<(String, FragInfo)>, String> {
        let names: Vec<String> = {
            let meta = self.meta.read();
            let def =
                meta.table(schema, table).map_err(|_| format!("unknown table {schema}.{table}"))?;
            def.columns.iter().map(|c| c.name.clone()).collect()
        };
        names
            .into_iter()
            .map(|name| {
                self.catalog
                    .lookup(schema, table, &name)
                    .map(|info| (name.clone(), info))
                    .ok_or_else(|| format!("unknown fragment {schema}.{table}.{name}"))
            })
            .collect()
    }

    /// The single node owning every fragment of the table, or an error:
    /// a mutation split across owners could not be applied atomically
    /// (the same restriction SQL INSERT enforces).
    fn mutation_owner(&self, schema: &str, table: &str) -> Result<NodeId, String> {
        let frags = self.table_frags(schema, table)?;
        let mut owners = frags.iter().map(|(_, i)| i.owner);
        let first = owners.next().ok_or_else(|| format!("{schema}.{table} has no columns"))?;
        if owners.any(|o| o != first) {
            return Err(format!(
                "UPDATE/DELETE on {schema}.{table} is not supported: its fragments are owned \
                 by multiple nodes and a split mutation would not be atomic"
            ));
        }
        Ok(first)
    }

    /// Apply a logical UPDATE/DELETE at this node, the fragment owner
    /// (§6.4): evaluate the predicates against the authoritative disk
    /// payloads, stage the rewritten columns, WAL the whole mutation as
    /// *one* record of complete replacement payloads, then swap the disk
    /// copies, bump the fragment versions, and re-advertise the table so
    /// every replica converges on the new (size, version) view. Stale
    /// copies already circulating keep serving readers that accept them;
    /// the next owner pass re-enters the ring with the fresh payload.
    fn apply_mutation(
        &mut self,
        schema: &str,
        table: &str,
        op: &MutOp,
        preds: &[RowPredicate],
    ) -> Result<u64, String> {
        let frags = self.table_frags(schema, table)?;
        // Spilled columns reload first: a mutation must apply against the
        // RAM copy, bumping the version past the stale at-rest file.
        for (_, info) in &frags {
            if self.node.s1.is_owner(info.bat) {
                self.ensure_resident(info.bat)?;
            }
        }
        let mut payloads: Vec<(String, BatId, Arc<Bat>)> = Vec::with_capacity(frags.len());
        for (name, info) in &frags {
            if !self.node.s1.is_owner(info.bat) {
                return Err(format!("node {} does not own {schema}.{table}", self.node.id));
            }
            let frag = self
                .disk
                .get(&info.bat)
                .ok_or_else(|| format!("owned {} missing from disk", info.bat))?;
            payloads.push((name.clone(), info.bat, Arc::clone(&frag.bat)));
        }
        let row_count = payloads.first().map(|(_, _, b)| b.count()).unwrap_or(0);
        let rows = {
            let lookup = |name: &str| {
                payloads.iter().find(|(n, _, _)| n == name).map(|(_, _, b)| Arc::clone(b))
            };
            ops::matching_rows(&lookup, row_count, preds).map_err(|e| e.to_string())?
        };
        // Validate UPDATE assignments even when nothing matches, so a
        // bad statement fails identically on empty and non-empty rows:
        // columns must exist, be assigned at most once (a duplicate
        // would make live apply and version-gated WAL replay disagree on
        // which value wins), and accept the value's type.
        let targets: Vec<(BatId, &Arc<Bat>)> = match op {
            MutOp::Update(assigns) => {
                if assigns.is_empty() {
                    return Err("UPDATE needs at least one assignment".into());
                }
                let mut seen: Vec<&str> = Vec::with_capacity(assigns.len());
                assigns
                    .iter()
                    .map(|(name, v)| {
                        if seen.contains(&name.as_str()) {
                            return Err(format!("column '{name}' assigned twice"));
                        }
                        seen.push(name);
                        let (bat, payload) = payloads
                            .iter()
                            .find(|(n, _, _)| n == name)
                            .map(|(_, bat, b)| (*bat, b))
                            .ok_or_else(|| format!("unknown column {schema}.{table}.{name}"))?;
                        batstore::Column::empty(payload.tail_type())
                            .push(v)
                            .map_err(|e| e.to_string())?;
                        Ok((bat, payload))
                    })
                    .collect::<Result<_, _>>()?
            }
            MutOp::Delete => payloads.iter().map(|(_, bat, b)| (*bat, b)).collect(),
        };
        if rows.is_empty() {
            return Ok(0);
        }
        // Stage every rewritten column before logging or applying: a
        // type error must reject the whole statement.
        let staged: Vec<(BatId, u32, Bat)> = match op {
            MutOp::Update(assigns) => assigns
                .iter()
                .zip(&targets)
                .map(|((_, v), (bat, payload))| {
                    let version = self.node.s1.get(*bat).map(|o| o.version + 1).unwrap_or(1);
                    ops::scatter_const(payload, &rows, v)
                        .map(|b| (*bat, version, b))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?,
            MutOp::Delete => targets
                .iter()
                .map(|(bat, payload)| {
                    let version = self.node.s1.get(*bat).map(|o| o.version + 1).unwrap_or(1);
                    ops::erase_rows(payload, &rows)
                        .map(|b| (*bat, version, b))
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?,
        };
        // WAL ahead of every in-memory effect, all columns in one
        // CRC-framed record of complete payloads: a crash can never
        // half-apply a multi-column UPDATE, and replay is idempotent by
        // version (`> current` applies, anything else skips).
        let parts: Vec<ReplacePart> = staged
            .iter()
            .map(|(bat, version, b)| ReplacePart {
                bat: bat.0,
                version: *version,
                rows: storage::bat_to_bytes(b),
            })
            .collect();
        self.log_durable(&match op {
            MutOp::Update(_) => WalRecord::Update(parts),
            MutOp::Delete => WalRecord::Delete(parts),
        })?;
        for (bat, version, b) in staged {
            let frag = StoredFrag::new(Arc::new(b));
            let size = frag.bat.byte_size() as u64;
            self.disk.insert(bat, frag);
            self.hotset.note_resident(bat, size);
            if let Some(owned) = self.node.s1.get_mut(bat) {
                owned.size = size;
                owned.version = version;
            }
            self.catalog.update_meta(bat, size, version);
        }
        self.node.stats.mutations_applied += 1;
        self.readvertise_table(schema, table);
        Ok(rows.len() as u64)
    }

    /// Gossip the table's current catalog entry (sizes and versions as
    /// the owner now holds them) clockwise, and refresh the durable
    /// mirror, so every replica converges after a mutation (§6.4's
    /// "propagates f" re-advertisement).
    fn readvertise_table(&mut self, schema: &str, table: &str) {
        let Ok(frags) = self.table_frags(schema, table) else { return };
        let columns: Vec<CatalogCol> = {
            let meta = self.meta.read();
            let Ok(def) = meta.table(schema, table) else { return };
            frags
                .iter()
                .map(|(name, info)| CatalogCol {
                    name: name.clone(),
                    ty: def.column(name).map(|c| c.ty).unwrap_or(batstore::ColType::Int),
                    bat: info.bat,
                    size: info.size,
                    owner: info.owner,
                    version: info.version,
                })
                .collect()
        };
        let msg = CatalogMsg {
            origin: self.node.id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns,
        };
        // Refresh the durable mirror (already WAL-logged the first time
        // the table became known; this only updates the snapshot view).
        if let Some(p) = self.persist.as_mut() {
            p.tables.insert(format!("{schema}.{table}"), msg.clone());
        }
        let _ = self.transport.send_data(DcMsg::Catalog(msg));
    }

    fn alloc_frag_id(&self) -> BatId {
        node_frag_id(self.node.id, self.next_frag.fetch_add(1, Ordering::Relaxed))
    }

    fn execute(&mut self, effects: Vec<Effect>, payload: &mut PayloadSlot) {
        for e in effects {
            match e {
                Effect::SendBat(h) => {
                    // Owned fragments forward the authoritative disk copy
                    // (fresh after appends); foreign ones relay the
                    // inbound or cached payload untouched.
                    let wire = if let Some(f) = self.disk.get_mut(&h.bat) {
                        Some(f.wire())
                    } else if let Some(w) = payload.wire.clone() {
                        Some(w)
                    } else {
                        self.cache.get_mut(&h.bat).map(|f| f.wire())
                    };
                    if let Some(wire) = wire {
                        // A send error means the successor died; the ring
                        // must heal (pulsating rings, §6.3) — drop here.
                        let _ =
                            self.transport.send_data(DcMsg::Bat { header: h, payload: Some(wire) });
                    }
                }
                Effect::SendRequest(r) => {
                    let _ = self.transport.send_request(DcMsg::Request(r));
                }
                Effect::LoadFromDisk { bat, .. } => {
                    // Local "disk" is main memory — unless the fragment
                    // was spilled, in which case the checkpoint file is
                    // reloaded first. Either way the load completes
                    // within this event.
                    match self.ensure_resident(bat) {
                        Ok(_) => {
                            self.spill_queue.cancel(bat);
                            let effects = self.node.bat_loaded(bat);
                            self.execute(effects, payload);
                        }
                        Err(err) => {
                            eprintln!(
                                "[dc-node {}] cannot load {bat} for ring injection: {err}",
                                self.node.id
                            );
                            self.node.s1.set_state(bat, OwnedState::OnDisk);
                        }
                    }
                }
                Effect::Unload(bat) => {
                    // Fig. 5: the fragment leaves the hot set. With a
                    // data dir this starts the two-phase spill of the RAM
                    // payload ("checkpoint, then drop"); diskless nodes
                    // keep the historical behavior — the payload simply
                    // stops being forwarded but stays in memory.
                    self.begin_spill(bat);
                }
                Effect::Deliver { header, queries } => {
                    let off_ring = payload.bat();
                    let p = off_ring
                        .clone()
                        .or_else(|| self.cache.get(&header.bat).map(|f| Arc::clone(&f.bat)));
                    if let Some(list) = self.waiting.remove(&header.bat) {
                        let (to_serve, keep): (Vec<_>, Vec<_>) =
                            list.into_iter().partition(|(q, _)| queries.contains(q));
                        if !keep.is_empty() {
                            self.waiting.insert(header.bat, keep);
                        }
                        // §3 bytes-moved accounting: a fragment that
                        // arrived over the ring and fulfills at least one
                        // registered query cost one payload transfer.
                        // Cache- and owner-served pins move nothing.
                        if off_ring.is_some() && !to_serve.is_empty() {
                            self.node.stats.ring_query_bytes_moved += header.size;
                        }
                        for (_, w) in to_serve {
                            match &p {
                                Some(p) => w.fulfill(Ok(Arc::clone(p))),
                                None => w.fulfill(Err(format!(
                                    "fragment {} payload unavailable",
                                    header.bat
                                ))),
                            }
                        }
                    }
                }
                Effect::CacheInsert(bat) => {
                    if let (Some(b), Some(w)) = (payload.bat(), payload.wire.clone()) {
                        self.cache.insert(bat, StoredFrag { bat: b, wire: Some(w) });
                    }
                }
                Effect::CacheEvict(bat) => {
                    self.cache.remove(&bat);
                }
                Effect::QueryError { bat, queries } => {
                    if let Some(list) = self.waiting.remove(&bat) {
                        for (q, w) in list {
                            if queries.contains(&q) {
                                w.fulfill(Err(format!("{bat} does not exist in the database")));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Options shared by [`RingNode`] and [`RingBuilder`].
#[derive(Clone, Debug)]
pub struct NodeOptions {
    pub cfg: DcConfig,
    /// How long a blocked `pin` (or DDL/DML ack) waits before erroring.
    pub pin_timeout: Duration,
    /// Event-loop maintenance cadence (`loadAll`, `resend`, LOIT).
    pub tick_every: Duration,
    /// Durable node-local storage. `None` (the default) keeps the node
    /// memory-only; `Some` turns on write-ahead logging, background
    /// checkpointing, and recovery-on-spawn from the directory.
    pub data_dir: Option<DataDir>,
    /// Per-attempt wait for a routed statement's owner acknowledgement
    /// before the statement is resent. Attempts back off exponentially
    /// from here; the whole budget (`ack_timeout * (2^(ack_retries+1)-1)`)
    /// should stay under `pin_timeout` so the engine's classified error
    /// reaches the caller before the generic waiter timeout does.
    pub ack_timeout: Duration,
    /// Resends after the first attempt before a routed statement fails
    /// with a timeout error.
    pub ack_retries: u32,
    /// Soft cap on resident owned-fragment bytes. When projected
    /// residency exceeds it, the coldest off-ring fragments (lowest
    /// Eq. 1 LOI) are spilled to the data dir and dropped from RAM.
    /// Requires `data_dir`; ignored on diskless nodes (they have nowhere
    /// to put the at-rest copy). `None` disables spilling.
    pub mem_budget: Option<u64>,
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            cfg: DcConfig::default(),
            pin_timeout: Duration::from_secs(30),
            tick_every: Duration::from_millis(5),
            data_dir: None,
            // 1.2s × (1+2+4+8) = 18s worst case: inside the 30s
            // pin_timeout above AND the 20s pin_timeout `dc-node`
            // configures, so the engine's attempt-counting timeout
            // error beats the generic waiter message everywhere.
            ack_timeout: Duration::from_millis(1200),
            ack_retries: 3,
            mem_budget: None,
        }
    }
}

/// One live engine node over an arbitrary ring transport. This is the
/// unit a distributed deployment runs per process (see the `dc-node`
/// binary in `dc-transport`); [`Ring`] composes `n` of them over the
/// in-memory fabric.
pub struct RingNode {
    pub id: NodeId,
    tx: Sender<NodeEvent>,
    hooks: Arc<RingHooks>,
    session: Arc<SessionCtx>,
    catalog: Arc<RingCatalog>,
    meta: Arc<RwLock<Catalog>>,
    notify: Arc<CatalogNotify>,
    transport: Arc<dyn RingTransport>,
    obs: Arc<dc_obs::Registry>,
    event_loop: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
    next_query: AtomicU64,
    next_frag: Arc<AtomicU32>,
    templates: mal::TemplateCache,
}

impl RingNode {
    /// Start a node: spawns its event loop plus a pump thread draining
    /// the transport into it. Panics if the node's data dir (when
    /// configured) cannot be opened or recovered — see
    /// [`RingNode::try_spawn`] for the fallible form.
    pub fn spawn(id: NodeId, transport: Arc<dyn RingTransport>, opts: NodeOptions) -> RingNode {
        Self::try_spawn(id, transport, opts).unwrap_or_else(|e| panic!("spawning node: {e}"))
    }

    /// [`RingNode::spawn`], surfacing data-dir open/recovery failures.
    pub fn try_spawn(
        id: NodeId,
        transport: Arc<dyn RingTransport>,
        opts: NodeOptions,
    ) -> Result<RingNode, String> {
        let (tx, rx) = bounded::<NodeEvent>(4096);
        let catalog = Arc::new(RingCatalog::new());
        let meta = Arc::new(RwLock::new(Catalog::new()));
        let notify = Arc::new(CatalogNotify::new());
        let next_frag = Arc::new(AtomicU32::new(1));
        let obs = Arc::new(dc_obs::Registry::new(id.0));
        // Every fabric is metered the same way: wrapping here (rather
        // than inside each transport) gives the in-process and TCP rings
        // identical per-edge frame/byte counters.
        let transport: Arc<dyn RingTransport> = Arc::new(MeteredTransport::new(transport, &obs));

        let mut node = DcNode::new(id, opts.cfg.clone());
        let mut disk: HashMap<BatId, StoredFrag> = HashMap::new();
        let mut hotset = HotsetAccounting::new(opts.mem_budget);
        let mut persist = None;
        let mut readvertise: Vec<CatalogMsg> = Vec::new();

        if let Some(dd) = &opts.data_dir {
            let pdir = dc_persist::DataDir::open(&dd.path)
                .map_err(|e| format!("opening data dir {}: {e}", dd.path.display()))?;
            let rec = dc_persist::recover(&pdir, id.0)?;
            node.stats.recovered_frags = rec.frags.len() as u64;
            node.stats.recovered_wal_records = rec.wal_records;

            // Rebuild owned fragments ("local disk") and the S1 catalog.
            for (raw, f) in rec.frags {
                let bat = BatId(raw);
                let payload = Arc::new(f.bat);
                let size = payload.byte_size() as u64;
                node.register_owned(bat, size);
                if let Some(owned) = node.s1.get_mut(bat) {
                    owned.version = f.version;
                }
                hotset.note_resident(bat, size);
                disk.insert(bat, StoredFrag::new(payload));
            }

            // Rebuild both catalogs; owned tables re-enter the gossip
            // once the loop runs, with fresh sizes and versions and this
            // node as the re-advertisement origin.
            let mut tables = HashMap::new();
            for t in &rec.tables {
                let mut c = catalog_msg(t);
                for col in &mut c.columns {
                    if let Some(f) = disk.get(&col.bat) {
                        col.size = f.bat.byte_size() as u64;
                    }
                    if let Some(owned) = node.s1.get(col.bat) {
                        col.version = owned.version;
                    }
                }
                publish_table(&catalog, &meta, &c);
                tables.insert(format!("{}.{}", c.schema, c.table), c.clone());
                if c.columns.iter().any(|col| col.owner == id) {
                    c.origin = id;
                    readvertise.push(c);
                }
            }

            // Resume the fragment-id allocator past every recovered id in
            // this node's namespace — a fresh CREATE must never collide
            // with a recovered fragment.
            let ns = id.0 as u32 % 255 + 1;
            let max_allocated =
                disk.keys().filter(|b| b.0 >> 24 == ns).map(|b| b.0 & 0x00ff_ffff).max();
            if let Some(m) = max_allocated {
                next_frag.store(m + 1, Ordering::Relaxed);
            }

            // Startup compaction: fold whatever was replayed into one
            // fresh checkpoint + empty WAL, so the next crash replays a
            // short tail.
            let snap = Snapshot {
                node: id.0,
                replay_from: rec.next_gen,
                tables: tables.values().map(table_rec).collect(),
                frags: disk
                    .iter()
                    .map(|(b, f)| FragSnap {
                        bat: b.0,
                        version: node.s1.get(*b).map(|o| o.version).unwrap_or(0),
                        payload: Some(Arc::clone(&f.bat)),
                    })
                    .collect(),
            };
            dc_persist::write_checkpoint(&pdir, &snap)
                .map_err(|e| format!("startup checkpoint: {e}"))?;
            let mut wal = WalWriter::create(&pdir.wal_path(rec.next_gen), dd.fsync)
                .map_err(|e| format!("creating WAL: {e}"))?;
            let wal_append_hist = obs.histogram("wal_append_us");
            let wal_sync_hist = obs.histogram("wal_fsync_us");
            wal.set_metrics(Arc::clone(&wal_append_hist), Arc::clone(&wal_sync_hist));
            let checkpointer = Checkpointer::spawn_with_metrics(
                pdir.clone(),
                Some(obs.histogram("checkpoint_us")),
            );
            persist = Some(PersistCtx {
                dir: pdir,
                wal,
                gen: rec.next_gen,
                fsync: dd.fsync,
                checkpoint_wal_bytes: dd.checkpoint_wal_bytes,
                bytes_since_checkpoint: 0,
                checkpointer,
                tables,
                wal_append_hist,
                wal_sync_hist,
            });
        }

        let ctx = NodeCtx {
            node,
            rx,
            transport: Arc::clone(&transport),
            catalog: Arc::clone(&catalog),
            meta: Arc::clone(&meta),
            disk,
            cache: HashMap::new(),
            waiting: HashMap::new(),
            next_frag: Arc::clone(&next_frag),
            pending_ops: HashMap::new(),
            next_stmt: 1,
            boot_epoch: fresh_boot_epoch(),
            ack_timeout: opts.ack_timeout,
            ack_retries: opts.ack_retries,
            applied_ops: HashMap::new(),
            applied_order: std::collections::VecDeque::new(),
            notify: Arc::clone(&notify),
            persist,
            obs: Arc::clone(&obs),
            msg_hists: std::array::from_fn(|i| obs.histogram(MSG_HIST_NAMES[i])),
            hotset,
            spill_queue: SpillQueue::default(),
            remote_spilled: HashSet::new(),
            spill_hist: obs.histogram("spill_us"),
            readmit_hist: obs.histogram("readmit_us"),
            hotset_gauges: [
                obs.gauge("hotset_resident_bytes"),
                obs.gauge("hotset_spilled_bytes"),
                obs.gauge("hotset_spilled_frags"),
                obs.gauge("loit_level"),
            ],
            started: Instant::now(),
            tick_every: opts.tick_every,
        };
        let event_loop = std::thread::spawn(move || ctx.run());

        let pump_transport = Arc::clone(&transport);
        let pump_tx = tx.clone();
        let pump = std::thread::spawn(move || {
            while let Some(msg) = pump_transport.recv() {
                if pump_tx.send(NodeEvent::Ring(msg)).is_err() {
                    break;
                }
            }
        });

        let hooks = Arc::new(RingHooks::new(
            id,
            tx.clone(),
            Arc::clone(&catalog),
            opts.pin_timeout,
            Arc::clone(&obs),
        ));
        // The session's store holds nothing: the data lives in the ring.
        let store = Arc::new(RwLock::new(BatStore::new()));
        let session = Arc::new(
            SessionCtx::new(Arc::clone(&meta), store)
                .with_dc(hooks.clone() as Arc<dyn mal::DcHooks>),
        );

        // Recovered tables with fragments owned here re-enter the ring's
        // metadata: peers that restarted (or joined) while we were down
        // learn them again; everyone else applies them idempotently. The
        // fragments themselves stay on disk until requests summon them.
        for table in readvertise {
            let _ = tx.send(NodeEvent::Cmd(Cmd::PublishTable { table, gossip: true }));
        }

        Ok(RingNode {
            id,
            tx,
            hooks,
            session,
            catalog,
            meta,
            notify,
            transport,
            obs,
            event_loop: Some(event_loop),
            pump: Some(pump),
            next_query: AtomicU64::new(1),
            next_frag,
            templates: mal::TemplateCache::new(),
        })
    }

    /// Load a table owned entirely by this node (each node of a real
    /// deployment loads its own share from local storage); the metadata
    /// replicates around the ring.
    pub fn load_table(
        &self,
        schema: &str,
        table: &str,
        cols: Vec<(&str, Column)>,
    ) -> Result<(), MalError> {
        let mut columns = Vec::with_capacity(cols.len());
        for (name, col) in cols {
            let bat = node_frag_id(self.id, self.next_frag.fetch_add(1, Ordering::Relaxed));
            let ty = col.col_type();
            let payload = Arc::new(Bat::dense(col));
            let size = payload.byte_size() as u64;
            self.send(Cmd::StoreOwned { bat, payload })?;
            columns.push(CatalogCol {
                name: name.to_string(),
                ty,
                bat,
                size,
                owner: self.id,
                version: 0,
            });
        }
        let table = CatalogMsg {
            origin: self.id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns,
        };
        self.send(Cmd::PublishTable { table, gossip: true })
    }

    /// Compile and execute one SQL statement (SELECT, CREATE TABLE, or
    /// INSERT) on this node, returning the typed [`ResultSet`]: named,
    /// typed columns for SELECTs; affected-row counts and info text for
    /// DML/DDL. This is the engine's canonical query entry point — the
    /// wire protocol ships these columns, and text is rendered only at
    /// edges that want text.
    pub fn execute(&self, sql: &str) -> Result<ResultSet, DcError> {
        self.run_sql(sql, &self.templates).map_err(DcError::from)
    }

    /// Compile and execute one SQL statement; returns the rendered
    /// output. A thin rendering shim over [`RingNode::execute`], kept
    /// for callers that only want text.
    pub fn submit_sql(&self, sql: &str) -> Result<String, MalError> {
        self.run_sql(sql, &self.templates).map(|rs| rs.render())
    }

    /// The choke point every SQL entry path funnels through
    /// ([`RingNode::execute`], [`RingNode::submit_sql`], and the [`Ring`]
    /// equivalents): compile + run, with end-to-end latency recorded per
    /// statement kind and statement/error counters bumped — so the
    /// in-process ring, `dcsh`, and the wire server all feed the same
    /// `stmt_*_us` histograms.
    pub(crate) fn run_sql(
        &self,
        sql: &str,
        templates: &mal::TemplateCache,
    ) -> Result<ResultSet, MalError> {
        let qid = self.next_query.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = self.compile(sql, templates).and_then(|plan| self.run_plan(qid, &plan));
        self.obs.counter("sql_statements").inc();
        if result.is_err() {
            self.obs.counter("sql_errors").inc();
        }
        self.obs.histogram(stmt_hist_name(sql)).record_elapsed_micros(start);
        result
    }

    /// Compile `sql` against this node's metadata replica.
    pub(crate) fn compile(
        &self,
        sql: &str,
        templates: &mal::TemplateCache,
    ) -> Result<Arc<mal::Program>, MalError> {
        let meta = self.meta.read();
        templates.get_or_compile(sql, || {
            sqlfront::compile_sql(sql, &meta)
                .map(|p| mal::common_subexpression_eliminate(&p))
                .map(|p| mal::dc_optimize(&p))
        })
    }

    /// Execute an already-compiled MAL plan with the given query id,
    /// returning the typed result the plan's sink published.
    pub fn run_plan(&self, qid: u64, plan: &mal::Program) -> Result<ResultSet, MalError> {
        // A per-query session sharing the node's hooks.
        let session =
            SessionCtx::new(Arc::clone(&self.session.catalog), Arc::clone(&self.session.store))
                .with_dc(self.hooks.clone() as Arc<dyn mal::DcHooks>)
                .with_query_id(qid);
        let result = mal::run_dataflow(plan, &session, 4);
        // Always clean up interest, success or failure.
        let _ = self.tx.send(NodeEvent::Cmd(Cmd::QueryDone { query: QueryId(qid) }));
        result?;
        Ok(session.take_result())
    }

    /// Render the front-end plan and its Data Cyclotron rewrite.
    pub fn explain_sql(&self, sql: &str) -> Result<(String, String), MalError> {
        let meta = self.meta.read();
        let plan = sqlfront::compile_sql(sql, &meta)?;
        let dc = mal::dc_optimize(&plan);
        Ok((plan.to_string(), dc.to_string()))
    }

    /// Block until this node's metadata replica knows `schema.table`
    /// (catalog gossip is asynchronous); `false` on timeout. Waiters
    /// sleep on a condvar the event loop notifies per applied gossip —
    /// no busy-polling, so a hundred concurrent clients waiting for DDL
    /// to replicate cost nothing but memory.
    pub fn wait_for_table(&self, schema: &str, table: &str, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Epoch before check: gossip landing between the check and
            // the wait bumps the epoch, so the wait returns immediately
            // instead of losing the wakeup.
            let seen = self.notify.current();
            if self.meta.read().table(schema, table).is_ok() {
                return true;
            }
            if !self.notify.wait_past(seen, deadline) {
                return self.meta.read().table(schema, table).is_ok();
            }
        }
    }

    /// [`RingNode::wait_for_table`] as a deadline: `Err` carries which
    /// table never arrived and where, so a test hitting lost catalog
    /// gossip fails in seconds with the cause named instead of timing
    /// out minutes later on an opaque assert.
    pub fn wait_for_table_timeout(
        &self,
        schema: &str,
        table: &str,
        timeout: Duration,
    ) -> Result<(), DcError> {
        if self.wait_for_table(schema, table, timeout) {
            Ok(())
        } else {
            Err(DcError::Ring(format!(
                "table {schema}.{table} never replicated to node {} within {timeout:?} — \
                 catalog gossip lost",
                self.id
            )))
        }
    }

    /// Snapshot this node's protocol counters from the event loop. The
    /// chaos suite asserts on `retries` / `timeouts` /
    /// `mutations_deduped` through this.
    pub fn stats(&self) -> Result<NodeStats, DcError> {
        let ack = Arc::new(Waiter::default());
        self.send(Cmd::Stats { ack: Arc::clone(&ack) })
            .map_err(|e| DcError::Ring(e.to_string()))?;
        ack.wait_for_outcome(Duration::from_secs(10), "stats request timed out")
            .map_err(DcError::Ring)
    }

    /// Snapshot this node's hot-set view: one row per owned fragment
    /// (in-ring / on-disk / spilled, last LOI, version, size) plus the
    /// residency totals and the LOIT ladder position. Feeds the
    /// `dc.hotset` system view and the dcsh `.hotset` meta-statement.
    pub fn hotset(&self) -> Result<HotsetSnapshot, DcError> {
        let ack = Arc::new(Waiter::default());
        self.send(Cmd::Hotset { ack: Arc::clone(&ack) })
            .map_err(|e| DcError::Ring(e.to_string()))?;
        ack.wait_for_outcome(Duration::from_secs(10), "hotset request timed out")
            .map_err(DcError::Ring)
    }

    /// This node's telemetry registry: counters, latency histograms, and
    /// the statement trace ring. The same registry the event loop,
    /// transport metering, and `dc.*` system views feed.
    pub fn obs(&self) -> &Arc<dc_obs::Registry> {
        &self.obs
    }

    /// A one-shot Prometheus-style `name value` text dump: protocol
    /// counters (exactly [`NodeStats::counters`]) followed by the
    /// registry's counters, gauges, and expanded histograms. This is
    /// what `dc-node metrics` scrapes.
    pub fn metrics_text(&self) -> Result<String, DcError> {
        let stats = self.stats()?;
        let mut out = String::new();
        for (name, v) in stats.counters() {
            out.push_str(name);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out.push_str(&self.obs.render_text());
        Ok(out)
    }

    /// This node's replica of the ring-wide fragment catalog.
    pub fn ring_catalog(&self) -> &RingCatalog {
        &self.catalog
    }

    pub(crate) fn meta(&self) -> &Arc<RwLock<Catalog>> {
        &self.meta
    }

    pub(crate) fn send(&self, cmd: Cmd) -> Result<(), MalError> {
        self.tx.send(NodeEvent::Cmd(cmd)).map_err(|_| MalError::Dc("ring node is down".into()))
    }

    fn stop(&mut self) {
        let _ = self.tx.send(NodeEvent::Cmd(Cmd::Shutdown));
        if let Some(t) = self.event_loop.take() {
            let _ = t.join();
        }
        self.transport.close();
        if let Some(t) = self.pump.take() {
            let _ = t.join();
        }
    }

    /// Stop the node: event loop, transport links, pump.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

impl Drop for RingNode {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A live in-process Data Cyclotron ring: `n` [`RingNode`]s over the
/// in-memory fabric. The drop-in fast path for tests, examples, and
/// single-machine deployments.
pub struct Ring {
    nodes: Vec<RingNode>,
    next_bat: AtomicU64,
    templates: mal::TemplateCache,
}

/// Builder for [`Ring`].
pub struct RingBuilder {
    n: usize,
    opts: NodeOptions,
    data_dir_root: Option<PathBuf>,
    fsync: crate::config::FsyncPolicy,
}

impl RingBuilder {
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a ring needs at least one node");
        RingBuilder {
            n,
            opts: NodeOptions::default(),
            data_dir_root: None,
            fsync: crate::config::FsyncPolicy::Always,
        }
    }

    pub fn config(mut self, cfg: DcConfig) -> Self {
        self.opts.cfg = cfg;
        self
    }

    pub fn pin_timeout(mut self, d: Duration) -> Self {
        self.opts.pin_timeout = d;
        self
    }

    /// Give every node a data dir under `root` (`root/node<i>`), turning
    /// on WAL + checkpointing — and making `mem_budget` effective.
    pub fn data_dir_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.data_dir_root = Some(root.into());
        self
    }

    /// Fsync policy for the per-node data dirs (default: every record).
    pub fn fsync(mut self, policy: crate::config::FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Per-node resident-bytes budget (see [`NodeOptions::mem_budget`]).
    pub fn mem_budget(mut self, bytes: u64) -> Self {
        self.opts.mem_budget = Some(bytes);
        self
    }

    pub fn build(self) -> Ring {
        let nodes = mem::ring(self.n)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let mut opts = self.opts.clone();
                if let Some(root) = &self.data_dir_root {
                    opts.data_dir =
                        Some(DataDir::new(root.join(format!("node{i}"))).fsync(self.fsync));
                }
                RingNode::spawn(NodeId(i as u16), Arc::new(t) as Arc<dyn RingTransport>, opts)
            })
            .collect();
        Ring { nodes, next_bat: AtomicU64::new(1), templates: mal::TemplateCache::new() }
    }
}

impl Ring {
    /// Start building an in-process ring of `n` nodes.
    ///
    /// ```
    /// use batstore::Column;
    /// use datacyclotron::Ring;
    ///
    /// let ring = Ring::builder(2).build();
    /// ring.load_table("sys", "t", vec![("id", Column::from(vec![1, 2, 3]))]).unwrap();
    /// let out = ring.submit_sql(0, "select id from t where id >= 2").unwrap();
    /// assert!(out.contains("[ 2 ]") && out.contains("[ 3 ]"));
    /// ```
    pub fn builder(n: usize) -> RingBuilder {
        RingBuilder::new(n)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node(&self, i: usize) -> &RingNode {
        &self.nodes[i]
    }

    /// Create a table whose column fragments are spread over the ring
    /// round-robin — the paper's startup placement ("the BATs are
    /// randomly assigned to nodes in the ring"). The metadata gossip
    /// starts at the first owner and the call returns once every node's
    /// replica has it.
    pub fn load_table(
        &self,
        schema: &str,
        table: &str,
        cols: Vec<(&str, Column)>,
    ) -> Result<(), MalError> {
        let n = self.nodes.len();
        let mut columns = Vec::with_capacity(cols.len());
        for (idx, (name, col)) in cols.into_iter().enumerate() {
            let bat = BatId(self.next_bat.fetch_add(1, Ordering::Relaxed) as u32);
            let owner_idx = idx % n;
            let ty = col.col_type();
            let payload = Arc::new(Bat::dense(col));
            let size = payload.byte_size() as u64;
            self.nodes[owner_idx].send(Cmd::StoreOwned { bat, payload })?;
            columns.push(CatalogCol {
                name: name.to_string(),
                ty,
                bat,
                size,
                owner: NodeId(owner_idx as u16),
                version: 0,
            });
        }
        let gossip = CatalogMsg {
            origin: self.nodes[0].id,
            schema: schema.to_string(),
            table: table.to_string(),
            columns: columns.clone(),
        };
        self.nodes[0].send(Cmd::PublishTable { table: gossip, gossip: true })?;

        // The gossip circulates asynchronously; make the load synchronous
        // so a submit on any node immediately after sees the table.
        let deadline = Instant::now() + Duration::from_secs(10);
        for node in &self.nodes {
            loop {
                let ready = node.meta().read().table(schema, table).is_ok()
                    && columns
                        .iter()
                        .all(|c| node.ring_catalog().lookup(schema, table, &c.name).is_some());
                if ready {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(MalError::Dc(format!(
                        "catalog gossip for {schema}.{table} never reached {}",
                        node.id
                    )));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        Ok(())
    }

    /// Compile and execute one SQL statement on the given node,
    /// returning the typed [`ResultSet`] (the canonical query API; see
    /// [`RingNode::execute`]).
    pub fn execute(&self, node_idx: usize, sql: &str) -> Result<ResultSet, DcError> {
        self.nodes[node_idx].run_sql(sql, &self.templates).map_err(DcError::from)
    }

    /// Compile and execute one SQL statement on the given node; returns
    /// the rendered output (a rendering shim over [`Ring::execute`]).
    pub fn submit_sql(&self, node_idx: usize, sql: &str) -> Result<String, MalError> {
        self.nodes[node_idx].run_sql(sql, &self.templates).map(|rs| rs.render())
    }

    /// Execute an already-compiled MAL plan on a node.
    pub fn run_plan(
        &self,
        node_idx: usize,
        qid: u64,
        plan: &mal::Program,
    ) -> Result<ResultSet, MalError> {
        self.nodes[node_idx].run_plan(qid, plan)
    }

    /// Node placement by §6.1 bidding: returns the cheapest node for a
    /// query needing `bats` fragments.
    pub fn place_query(&self, bats: &[BatId]) -> usize {
        crate::bidding::cheapest_node(self, bats)
    }

    /// Compile `sql` against the given node's metadata replica and
    /// render both the front-end plan and its Data Cyclotron rewrite
    /// (EXPLAIN, Tables 1/2 style). Takes the node index like
    /// [`Ring::submit_sql`] — each node compiles against its own replica.
    pub fn explain_sql(&self, node_idx: usize, sql: &str) -> Result<(String, String), MalError> {
        self.nodes[node_idx].explain_sql(sql)
    }

    pub(crate) fn ring_catalog(&self) -> &RingCatalog {
        self.nodes[0].ring_catalog()
    }

    pub fn shutdown(mut self) {
        for mut n in self.nodes.drain(..) {
            n.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_ring(n: usize) -> Ring {
        let ring = Ring::builder(n)
            .config(DcConfig {
                load_interval: netsim::SimDuration::from_millis(5),
                resend_timeout: netsim::SimDuration::from_millis(500),
                ..DcConfig::default()
            })
            .pin_timeout(Duration::from_secs(20))
            .build();
        ring.load_table("sys", "t", vec![("id", Column::from(vec![1, 2, 3]))]).unwrap();
        ring.load_table(
            "sys",
            "c",
            vec![
                ("t_id", Column::from(vec![2, 2, 3, 9])),
                ("amount", Column::from(vec![10, 20, 30, 40])),
            ],
        )
        .unwrap();
        ring
    }

    #[test]
    fn paper_query_end_to_end_on_ring() {
        let ring = demo_ring(3);
        let out = ring.submit_sql(0, "select c.t_id from t, c where c.t_id = t.id").unwrap();
        assert_eq!(out.matches("[ 2 ]").count(), 2, "{out}");
        assert_eq!(out.matches("[ 3 ]").count(), 1, "{out}");
    }

    #[test]
    fn every_node_can_execute() {
        let ring = demo_ring(4);
        for i in 0..4 {
            let out = ring.submit_sql(i, "select amount from c where amount >= 30").unwrap();
            assert!(out.contains("[ 30 ]") && out.contains("[ 40 ]"), "node {i}: {out}");
        }
    }

    #[test]
    fn repeated_queries_share_templates() {
        let ring = demo_ring(2);
        // Identical statements share one cached plan; a different
        // constant compiles fresh (plans bake literals in — see
        // `TemplateCache::get_or_compile`) and must return its own rows,
        // not the cached statement's.
        ring.submit_sql(0, "select amount from c where amount >= 10").unwrap();
        ring.submit_sql(1, "select amount from c where amount >= 10").unwrap();
        let (hits, misses) = ring.templates.stats();
        assert_eq!((hits, misses), (1, 1), "identical statement reused");
        let out = ring.submit_sql(1, "select amount from c where amount >= 35").unwrap();
        assert!(out.contains("[ 40 ]") && !out.contains("[ 30 ]"), "fresh constants: {out}");
    }

    #[test]
    fn missing_table_fails_cleanly() {
        let ring = demo_ring(2);
        assert!(ring.submit_sql(0, "select x from ghost").is_err());
    }

    #[test]
    fn execute_returns_typed_results() {
        let ring = demo_ring(2);
        // SELECT: named, typed columns — no string parsing anywhere.
        let rs =
            ring.execute(1, "select amount from c where amount >= 30 order by amount").unwrap();
        assert_eq!((rs.column_count(), rs.row_count()), (1, 2));
        assert_eq!(rs.columns[0].name, "amount");
        assert_eq!(rs.columns[0].col_type(), batstore::ColType::Int);
        assert_eq!(rs.cell(0, 0), batstore::Val::Int(30));
        assert_eq!(rs.cell(1, 0), batstore::Val::Int(40));
        // DDL and DML report through the same type.
        let rs = ring.execute(0, "create table ev (k int)").unwrap();
        assert!(rs.info.as_deref().unwrap_or("").contains("created"), "{rs:?}");
        let rs = ring.execute(0, "insert into ev values (1), (2), (3)").unwrap();
        assert_eq!(rs.affected, Some(3));
        // Aggregates carry their declared type even for small values.
        let rs = ring.execute(0, "select count(*) from ev").unwrap();
        assert_eq!(rs.columns[0].col_type(), batstore::ColType::Lng);
        assert_eq!(rs.columns[0].sql_type, "lng");
        // Errors surface with their message; the shim agrees with the
        // typed path.
        let err = ring.execute(0, "select x from ghost").unwrap_err();
        assert!(err.message().contains("ghost"), "{err:?}");
        let typed = ring.execute(1, "select amount from c where amount >= 30").unwrap();
        let rendered = ring.submit_sql(1, "select amount from c where amount >= 30").unwrap();
        assert_eq!(typed.render(), rendered);
    }

    #[test]
    fn single_node_ring_works() {
        let ring = demo_ring(1);
        let out =
            ring.submit_sql(0, "select amount from c where amount between 15 and 35").unwrap();
        assert!(out.contains("[ 20 ]") && out.contains("[ 30 ]"), "{out}");
    }

    #[test]
    fn explain_shows_dc_rewrite() {
        let ring = demo_ring(2);
        let (plan, dc) =
            ring.explain_sql(1, "select c.t_id from t, c where c.t_id = t.id").unwrap();
        assert!(plan.contains("sql.bind"), "{plan}");
        // The front-end plan carries none of the DC rewrite
        // (request/pin/unpin) — that is the optimizer's.
        assert!(!plan.contains("datacyclotron.request"), "{plan}");
        assert!(!plan.contains("datacyclotron.pin"), "{plan}");
        assert!(dc.contains("datacyclotron.request"), "{dc}");
        assert!(dc.contains("datacyclotron.pin"), "{dc}");
        assert!(dc.contains("datacyclotron.unpin"), "{dc}");
    }

    #[test]
    fn distinct_and_in_list_over_ring() {
        let ring = demo_ring(3);
        let out = ring.submit_sql(1, "select distinct t_id from c order by t_id").unwrap();
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(rows, vec!["[ 2 ]", "[ 3 ]", "[ 9 ]"], "{out}");
        let out = ring
            .submit_sql(2, "select amount from c where t_id in (2, 9) order by amount")
            .unwrap();
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(rows, vec!["[ 10 ]", "[ 20 ]", "[ 40 ]"], "{out}");
    }

    #[test]
    fn group_by_multiple_columns_over_ring() {
        let ring = Ring::builder(2).build();
        ring.load_table(
            "sys",
            "pairs",
            vec![
                ("a", Column::from(vec!["x", "x", "y", "x"])),
                ("b", Column::from(vec![1, 1, 1, 2])),
                ("v", Column::from(vec![10, 20, 30, 40])),
            ],
        )
        .unwrap();
        let out = ring.submit_sql(0, "select a, b, sum(v) from pairs group by a, b").unwrap();
        let rows = out.lines().filter(|l| l.starts_with('[')).count();
        assert_eq!(rows, 3, "{out}");
        assert!(out.contains("30"), "x,1 sums to 30: {out}");
    }

    #[test]
    fn concurrent_queries_from_all_nodes() {
        let ring = Arc::new(demo_ring(3));
        let mut joins = Vec::new();
        for i in 0..3 {
            for _ in 0..4 {
                let r = Arc::clone(&ring);
                joins.push(std::thread::spawn(move || {
                    r.submit_sql(i, "select c.t_id from t, c where c.t_id = t.id").unwrap()
                }));
            }
        }
        for j in joins {
            let out = j.join().unwrap();
            assert_eq!(out.matches("[ 2 ]").count(), 2);
        }
    }

    #[test]
    fn create_insert_select_on_ring() {
        let ring = demo_ring(3);
        let out = ring.submit_sql(0, "create table logs (k int, msg varchar(16))").unwrap();
        assert!(out.contains("created"), "{out}");
        // The DDL gossip replicates; other nodes soon compile against it.
        ring.node(2).wait_for_table_timeout("sys", "logs", Duration::from_secs(5)).unwrap();
        let out = ring.submit_sql(0, "insert into logs values (1, 'boot'), (2, 'ready')").unwrap();
        assert!(out.contains("2 rows affected"), "{out}");
        // Owner-local read-your-writes.
        let out = ring.submit_sql(0, "select msg from logs where k = 2").unwrap();
        assert!(out.contains("ready"), "{out}");
        // A remote node pulls the fresh fragments through the ring.
        let out = ring.submit_sql(2, "select k, msg from logs order by k").unwrap();
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(rows, vec!["[ 1,\t\"boot\" ]", "[ 2,\t\"ready\" ]"], "{out}");
    }

    #[test]
    fn update_delete_on_owner_node() {
        let ring = demo_ring(2);
        ring.submit_sql(0, "create table acct (id int, bal lng, tag varchar(8))").unwrap();
        ring.submit_sql(0, "insert into acct values (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'a')")
            .unwrap();
        let rs = ring.execute(0, "update acct set bal = 99 where tag = 'a'").unwrap();
        assert_eq!(rs.affected, Some(2));
        let rs = ring.execute(0, "select id, bal from acct order by id").unwrap();
        assert_eq!(rs.cell(0, 1), batstore::Val::Lng(99));
        assert_eq!(rs.cell(1, 1), batstore::Val::Lng(20));
        let rs = ring.execute(0, "delete from acct where id = 2").unwrap();
        assert_eq!(rs.affected, Some(1));
        let rs = ring.execute(0, "select count(*) from acct").unwrap();
        assert_eq!(rs.cell(0, 0), batstore::Val::Lng(2));
        // Mutations bumped the owner's fragment versions and the owner's
        // catalog replica saw the update synchronously.
        let info = ring.node(0).ring_catalog().lookup("sys", "acct", "bal").unwrap();
        assert!(info.version >= 2, "update + delete each bump: {info:?}");
    }

    #[test]
    fn remote_mutation_routes_to_owner_and_acks_count() {
        let ring = demo_ring(3);
        ring.submit_sql(0, "create table kv (k int, v int)").unwrap();
        ring.node(2).wait_for_table_timeout("sys", "kv", Duration::from_secs(5)).unwrap();
        ring.submit_sql(0, "insert into kv values (1, 10), (2, 20), (3, 30)").unwrap();
        // Node 2 owns nothing: the logical mutation travels the ring to
        // node 0, is applied there, and the ack carries the real count.
        let rs = ring.execute(2, "update kv set v = 7 where k >= 2").unwrap();
        assert_eq!(rs.affected, Some(2), "remote UPDATE must return the owner's count");
        let rs = ring.execute(0, "select k, v from kv order by k").unwrap();
        assert_eq!(rs.cell(1, 1), batstore::Val::Int(7));
        let rs = ring.execute(1, "delete from kv where v = 7").unwrap();
        assert_eq!(rs.affected, Some(2));
        let rs = ring.execute(0, "select count(*) from kv").unwrap();
        assert_eq!(rs.cell(0, 0), batstore::Val::Lng(1));
        // A remote mutation matching nothing still acks zero.
        let rs = ring.execute(2, "delete from kv where k = 777").unwrap();
        assert_eq!(rs.affected, Some(0));
    }

    #[test]
    fn mutation_errors_surface_at_the_origin() {
        let ring = demo_ring(2);
        // Unknown table fails at compile time on the origin.
        assert!(ring.submit_sql(1, "update ghost set a = 1").is_err());
        // Mixed-owner table: the round-robin loaded `c` cannot be
        // mutated atomically.
        let err = ring.submit_sql(0, "update c set amount = 1 where t_id = 2").unwrap_err();
        assert!(err.to_string().contains("multiple nodes"), "{err}");
        let err = ring.submit_sql(1, "delete from c").unwrap_err();
        assert!(err.to_string().contains("multiple nodes"), "{err}");
        // Type errors detected at the owner surface in the ack.
        ring.submit_sql(0, "create table typed (n int)").unwrap();
        ring.node(1).wait_for_table_timeout("sys", "typed", Duration::from_secs(5)).unwrap();
        ring.submit_sql(0, "insert into typed values (1)").unwrap();
        let err = ring.submit_sql(1, "update typed set n = 'oops'").unwrap_err();
        assert!(err.to_string().contains("type"), "{err}");
        // … and even when the WHERE clause matches nothing: a statement
        // that can never apply must not quietly ack zero.
        let err = ring.submit_sql(1, "update typed set n = 'oops' where n = 777").unwrap_err();
        assert!(err.to_string().contains("type"), "{err}");
    }

    #[test]
    fn mutation_readvertises_versions_ring_wide() {
        let ring = demo_ring(3);
        ring.submit_sql(0, "create table seq (v int)").unwrap();
        for n in 1..3 {
            ring.node(n).wait_for_table_timeout("sys", "seq", Duration::from_secs(5)).unwrap();
        }
        ring.submit_sql(0, "insert into seq values (1), (2), (3)").unwrap();
        ring.execute(1, "update seq set v = 9 where v = 2").unwrap();
        // The owner re-gossips (size, version); every replica converges.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let views: Vec<Option<(u64, u32)>> = (0..3)
                .map(|i| {
                    ring.node(i)
                        .ring_catalog()
                        .lookup("sys", "seq", "v")
                        .map(|f| (f.size, f.version))
                })
                .collect();
            let owner = views[0];
            if owner.is_some_and(|(_, v)| v >= 2) && views.iter().all(|v| *v == owner) {
                break;
            }
            assert!(Instant::now() < deadline, "replicas never converged: {views:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    // ---- durability: data-dir recovery -----------------------------------

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("dc_engine_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    /// A single durable node over the in-process fabric (a one-node ring
    /// is a self-loop).
    fn durable_node(dir: &std::path::Path, checkpoint_bytes: u64) -> RingNode {
        let t = mem::ring(1).pop().expect("one node");
        RingNode::spawn(
            NodeId(0),
            Arc::new(t) as Arc<dyn RingTransport>,
            NodeOptions {
                cfg: DcConfig {
                    load_interval: netsim::SimDuration::from_millis(5),
                    resend_timeout: netsim::SimDuration::from_millis(500),
                    ..DcConfig::default()
                },
                pin_timeout: Duration::from_secs(10),
                tick_every: Duration::from_millis(2),
                data_dir: Some(
                    crate::config::DataDir::new(dir)
                        .fsync(crate::config::FsyncPolicy::Off)
                        .checkpoint_wal_bytes(checkpoint_bytes),
                ),
                ..NodeOptions::default()
            },
        )
    }

    #[test]
    fn node_recovers_tables_and_rows_from_data_dir() {
        let dir = scratch_dir("recover");
        let node = durable_node(&dir, 16 << 20);
        node.submit_sql("create table logs (k int, msg varchar(16))").unwrap();
        node.submit_sql("insert into logs values (1, 'boot'), (2, 'ready')").unwrap();
        node.submit_sql("insert into logs values (3, 'steady')").unwrap();
        node.shutdown();

        // Everything came back from disk: catalog, rows, and versions.
        let node = durable_node(&dir, 16 << 20);
        let out = node.submit_sql("select k, msg from logs order by k").unwrap();
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(
            rows,
            vec!["[ 1,\t\"boot\" ]", "[ 2,\t\"ready\" ]", "[ 3,\t\"steady\" ]"],
            "{out}"
        );
        // The engine keeps working durably: appends and fresh DDL use
        // fragment ids beyond the recovered ones.
        node.submit_sql("insert into logs values (4, 'again')").unwrap();
        node.submit_sql("create table other (x int)").unwrap();
        node.submit_sql("insert into other values (42)").unwrap();
        node.shutdown();

        let node = durable_node(&dir, 16 << 20);
        let out = node.submit_sql("select count(*) from logs").unwrap();
        assert!(out.contains("[ 4 ]"), "{out}");
        let out = node.submit_sql("select x from other").unwrap();
        assert!(out.contains("[ 42 ]"), "{out}");
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn node_recovers_mutations_from_data_dir() {
        let dir = scratch_dir("recover_mut");
        let node = durable_node(&dir, 16 << 20);
        node.submit_sql("create table acct (id int, bal int)").unwrap();
        node.submit_sql("insert into acct values (1, 10), (2, 20), (3, 30)").unwrap();
        node.submit_sql("update acct set bal = 99 where id in (1, 3)").unwrap();
        node.submit_sql("delete from acct where id = 2").unwrap();
        node.shutdown();

        let node = durable_node(&dir, 16 << 20);
        let out = node.submit_sql("select id, bal from acct order by id").unwrap();
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(rows, vec!["[ 1,\t99 ]", "[ 3,\t99 ]"], "{out}");
        // And keeps mutating durably after recovery.
        node.submit_sql("update acct set bal = 1 where id = 3").unwrap();
        node.shutdown();
        let node = durable_node(&dir, 16 << 20);
        let out = node.submit_sql("select bal from acct where id = 3").unwrap();
        assert!(out.contains("[ 1 ]"), "{out}");
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutations_interleaved_with_checkpoints_recover_exactly() {
        let dir = scratch_dir("mut_overlap");
        // 1-byte threshold: a checkpoint after every mutation, maximal
        // checkpoint/WAL overlap on recovery.
        let node = durable_node(&dir, 1);
        node.submit_sql("create table seq (v int)").unwrap();
        for i in 0..10 {
            node.submit_sql(&format!("insert into seq values ({i})")).unwrap();
        }
        node.submit_sql("update seq set v = 100 where v between 0 and 4").unwrap();
        node.submit_sql("delete from seq where v = 100").unwrap();
        node.shutdown();

        let node = durable_node(&dir, 1);
        let out = node.submit_sql("select count(*) from seq").unwrap();
        assert!(out.contains("[ 5 ]"), "exactly the five non-rewritten rows survive: {out}");
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_data_dir_starts_clean() {
        let dir = scratch_dir("empty");
        let node = durable_node(&dir, 16 << 20);
        assert!(node.submit_sql("select x from ghost").is_err());
        node.submit_sql("create table t (x int)").unwrap();
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_and_wal_tail_overlap_recovers_exactly_once() {
        let dir = scratch_dir("overlap");
        // A 1-byte threshold checkpoints after every mutation, so the
        // run interleaves checkpoints with WAL appends constantly.
        let node = durable_node(&dir, 1);
        node.submit_sql("create table seq (v int)").unwrap();
        for i in 0..20 {
            node.submit_sql(&format!("insert into seq values ({i})")).unwrap();
        }
        node.shutdown();

        let node = durable_node(&dir, 1);
        let out = node.submit_sql("select count(*) from seq").unwrap();
        assert!(out.contains("[ 20 ]"), "no lost or double-applied appends: {out}");
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_recovers_the_prefix() {
        let dir = scratch_dir("torn");
        let node = durable_node(&dir, 16 << 20);
        node.submit_sql("create table t (x int)").unwrap();
        node.submit_sql("insert into t values (1), (2)").unwrap();
        node.shutdown();

        // Simulate a crash mid-append: garbage at the end of the newest
        // WAL generation.
        let pdir = dc_persist::DataDir::open(&dir).unwrap();
        let gen = *pdir.wal_generations().unwrap().last().unwrap();
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(pdir.wal_path(gen)).unwrap();
        f.write_all(&[77, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(f);

        let node = durable_node(&dir, 16 << 20);
        let out = node.submit_sql("select count(*) from t").unwrap();
        assert!(out.contains("[ 2 ]"), "prefix before the tear intact: {out}");
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn data_dir_of_another_node_refused() {
        let dir = scratch_dir("foreign");
        let node = durable_node(&dir, 16 << 20);
        node.submit_sql("create table t (x int)").unwrap();
        node.shutdown();

        let t = mem::ring(1).pop().expect("one node");
        let spawned = RingNode::try_spawn(
            NodeId(3),
            Arc::new(t) as Arc<dyn RingTransport>,
            NodeOptions {
                data_dir: Some(crate::config::DataDir::new(&dir)),
                ..NodeOptions::default()
            },
        );
        let err = spawned.err().expect("foreign data dir must be refused");
        assert!(err.contains("belongs to node 0"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- hot-set management: spill and re-admission -----------------------

    /// A durable one-node ring whose resident owned fragments are capped
    /// by a memory budget: the coldest spill to the data dir.
    fn budget_node(dir: &std::path::Path, mem_budget: u64) -> RingNode {
        let t = mem::ring(1).pop().expect("one node");
        RingNode::spawn(
            NodeId(0),
            Arc::new(t) as Arc<dyn RingTransport>,
            NodeOptions {
                cfg: DcConfig {
                    load_interval: netsim::SimDuration::from_millis(5),
                    resend_timeout: netsim::SimDuration::from_millis(500),
                    ..DcConfig::default()
                },
                pin_timeout: Duration::from_secs(10),
                tick_every: Duration::from_millis(2),
                data_dir: Some(
                    crate::config::DataDir::new(dir).fsync(crate::config::FsyncPolicy::Off),
                ),
                mem_budget: Some(mem_budget),
                ..NodeOptions::default()
            },
        )
    }

    #[test]
    fn tiny_budget_spills_and_readmits_on_demand() {
        let dir = scratch_dir("budget");
        let node = budget_node(&dir, 1);
        node.submit_sql("create table cold (k int, v int)").unwrap();
        node.submit_sql("insert into cold values (1, 10), (2, 20), (3, 30)").unwrap();

        // A 1-byte budget makes every owned fragment excess: both columns
        // are checkpointed (the bat file IS the at-rest format) and their
        // in-memory payloads dropped.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = node.stats().unwrap();
            if stats.loi_evictions >= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "fragments never spilled: {stats:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        let snap = node.hotset().unwrap();
        assert!(
            snap.rows.iter().any(|r| r.state == "spilled"),
            "hotset view shows no spilled fragment: {:?}",
            snap.rows
        );
        assert!(snap.spilled_bytes > 0, "spilled bytes gauge never moved: {snap:?}");

        // Querying the evicted table re-admits its fragments from disk
        // and answers with the correct typed rows.
        let out = node.submit_sql("select k, v from cold order by k").unwrap();
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(rows, vec!["[ 1,\t10 ]", "[ 2,\t20 ]", "[ 3,\t30 ]"], "{out}");
        let stats = node.stats().unwrap();
        assert!(stats.loi_readmits >= 1, "re-admission not counted: {stats:?}");

        // Appends against spilled fragments re-admit first, then apply.
        node.submit_sql("insert into cold values (4, 40)").unwrap();
        node.shutdown();

        // Restart with the same budget: spilled fragments recover from
        // the checkpoint (payload-less snapshots keep their bat files),
        // the WAL tail replays, and queries still answer correctly.
        let node = budget_node(&dir, 1);
        let out = node.submit_sql("select count(*) from cold").unwrap();
        assert!(out.contains("[ 4 ]"), "{out}");
        let out = node.submit_sql("select v from cold where k = 4").unwrap();
        assert!(out.contains("[ 40 ]"), "{out}");
        node.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_owner_insert_rejected() {
        // Demo table `c` was round-robin loaded: its two columns have
        // different owners, so a split (non-atomic) append is refused.
        let ring = demo_ring(2);
        let err = ring.submit_sql(0, "insert into c values (5, 50)").unwrap_err();
        assert!(err.to_string().contains("multiple nodes"), "{err}");
    }

    #[test]
    fn remote_insert_routes_to_owner() {
        let ring = demo_ring(2);
        ring.submit_sql(0, "create table kv (k int, v int)").unwrap();
        ring.node(1).wait_for_table_timeout("sys", "kv", Duration::from_secs(5)).unwrap();
        // Node 1 does not own the fragments: the row batch travels the
        // ring to node 0 and is applied there (§6.4), asynchronously.
        let out = ring.submit_sql(1, "insert into kv values (7, 70)").unwrap();
        assert!(out.contains("1 rows affected"), "{out}");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let out = ring.submit_sql(0, "select v from kv where k = 7").unwrap();
            if out.contains("[ 70 ]") {
                break;
            }
            assert!(Instant::now() < deadline, "append never reached the owner: {out}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

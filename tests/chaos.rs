//! Seeded chaos acceptance: a 3-node ring where every node's transport
//! is wrapped in a [`FaultTransport`] injecting deterministic faults —
//! drops, duplicates, stalls, severed edges, scripted partitions — while
//! the engine's hardening (bounded ack timeouts, backoff retries,
//! owner-side idempotent dedup) keeps acknowledged statements exactly
//! right.
//!
//! Every scenario is seeded and reproducible: the seed is printed at the
//! start of each run, so a failure names the world it happened in. The
//! scenarios close with the same ring-wide consistency oracle the
//! concurrency suite uses (`tests/support/`): catalog replicas converge
//! and the acknowledged final state is visible from every node.
//!
//! The `#[ignore]`d soak runs the random mix under a fresh (or
//! `CHAOS_SEED`-pinned) seed: `cargo test --test chaos -- --ignored`.

mod support;

use batstore::ops::CmpOp;
use batstore::{RowPredicate, Val};
use datacyclotron::msg::{MutOp, MutateMsg, ReadmitMsg};
use datacyclotron::transport::mem;
use datacyclotron::{
    DataDir, DcConfig, DcError, DcMsg, Edge, FaultEvent, FaultPlan, FaultTransport, FsyncPolicy,
    NodeId, NodeOptions, RingNode, RingTransport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-attempt ack wait under chaos; with 4 retries the whole budget is
/// 250ms × (1+2+4+8+16) = 7.75s, well inside the 30s pin timeout.
const ACK_TIMEOUT: Duration = Duration::from_millis(250);
const ACK_RETRIES: u32 = 4;

struct ChaosRing {
    nodes: Vec<Arc<RingNode>>,
    faults: Vec<Arc<FaultTransport>>,
}

/// A 3-node in-process ring with a fault wrapper on every node's
/// transport. `plan_of(node_seed)` builds each node's plan from a seed
/// derived deterministically from the run seed.
fn chaos_ring(seed: u64, plan_of: impl Fn(u64) -> FaultPlan) -> ChaosRing {
    chaos_ring_with(seed, plan_of, |_, _| {})
}

/// Like [`chaos_ring`], with a per-node [`NodeOptions`] hook — the
/// hot-set scenarios give one node a data dir and a tiny memory budget.
fn chaos_ring_with(
    seed: u64,
    plan_of: impl Fn(u64) -> FaultPlan,
    customize: impl Fn(usize, &mut NodeOptions),
) -> ChaosRing {
    eprintln!("chaos seed: {seed:#x}");
    let mut nodes = Vec::new();
    let mut faults = Vec::new();
    for (i, inner) in mem::ring(3).into_iter().enumerate() {
        let node_seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
        let ft = Arc::new(FaultTransport::new(Arc::new(inner), plan_of(node_seed)));
        faults.push(Arc::clone(&ft));
        let mut opts = NodeOptions {
            cfg: DcConfig {
                load_interval: netsim::SimDuration::from_millis(5),
                resend_timeout: netsim::SimDuration::from_millis(200),
                ..DcConfig::default()
            },
            pin_timeout: Duration::from_secs(30),
            tick_every: Duration::from_millis(2),
            ack_timeout: ACK_TIMEOUT,
            ack_retries: ACK_RETRIES,
            ..NodeOptions::default()
        };
        customize(i, &mut opts);
        nodes.push(Arc::new(RingNode::spawn(NodeId(i as u16), ft as Arc<dyn RingTransport>, opts)));
    }
    ChaosRing { nodes, faults }
}

impl ChaosRing {
    fn set_chaos(&self, on: bool) {
        for f in &self.faults {
            f.set_chaos(on);
        }
    }

    /// Create `acct` on node 0 (the owner) with the wrappers calmed, so
    /// lost DDL gossip can't masquerade as a workload failure, and let
    /// the initial traffic settle.
    fn setup_acct(&self) {
        self.set_chaos(false);
        self.nodes[0].execute("create table acct (id int, bal int)").unwrap();
        for n in &self.nodes {
            n.wait_for_table_timeout("sys", "acct", Duration::from_secs(10)).unwrap();
        }
        self.set_chaos(true);
    }

    /// Poll until every node answers `sql` with exactly `want` rows of
    /// `(id, bal)` — acknowledged state must become visible ring-wide.
    fn await_rows(&self, sql: &str, want: &[(i32, i32)], window: Duration) {
        for (i, n) in self.nodes.iter().enumerate() {
            let deadline = Instant::now() + window;
            loop {
                let got: Option<Vec<(i32, i32)>> = n.execute(sql).ok().map(|rs| {
                    (0..rs.row_count())
                        .map(|r| match (rs.cell(r, 0), rs.cell(r, 1)) {
                            (Val::Int(id), Val::Int(bal)) => (id, bal),
                            other => panic!("node {i}: unexpected cell types {other:?}"),
                        })
                        .collect()
                });
                if got.as_deref() == Some(want) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "node {i} never converged on `{sql}`: got {got:?}, want {want:?}"
                );
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Let in-flight gossip from setup finish its ring cycle, so explicit
/// drop/duplicate counters hit the message the scenario aims at.
fn settle() {
    std::thread::sleep(Duration::from_millis(300));
}

/// Fault class 1 — drop: a routed mutation whose frames are swallowed is
/// retried by the origin until the owner's ack comes back, and it
/// applies exactly once.
#[test]
fn dropped_mutation_is_retried_and_applies_once() {
    let ring = chaos_ring(0xD201, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    // Swallow the next two sends on the origin's data edge: the first
    // attempt and (at least) one retry.
    ring.faults[1].drop_next(Edge::Data, 2);
    let rs = ring.nodes[1].execute("update acct set bal = 7 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1), "retried mutation must ack exactly one row");

    let stats = ring.nodes[1].stats().unwrap();
    assert!(stats.retries >= 1, "origin never retried: {stats:?}");
    assert!(ring.faults[1].stats().drops() >= 1, "no drop was injected");
    ring.await_rows("select id, bal from acct order by id", &[(1, 7)], Duration::from_secs(20));
}

/// Fault class 2 — stall: a held edge delays delivery (the statement
/// blocks, then succeeds) and the retries that pile up behind the stall
/// are deduplicated at the owner; order survives.
#[test]
fn stalled_edge_delays_but_dedup_keeps_state_exact() {
    let ring = chaos_ring(0xD202, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    ring.faults[1].stall(Edge::Data, Duration::from_millis(600));
    let t0 = Instant::now();
    let rs = ring.nodes[1].execute("update acct set bal = 5 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));
    assert!(
        t0.elapsed() >= Duration::from_millis(400),
        "stall did not delay the ack: {:?}",
        t0.elapsed()
    );
    assert!(ring.faults[1].stats().stalls() >= 1, "no stall was injected");
    // The 250ms retry fired into the 600ms stall, so the owner saw the
    // statement at least twice and must have deduplicated the replay.
    let owner = ring.nodes[0].stats().unwrap();
    assert!(owner.mutations_deduped >= 1, "owner never deduplicated: {owner:?}");

    // A follow-up mutation lands after the stalled batch: final state is
    // the *second* write, i.e. order was preserved.
    let rs = ring.nodes[1].execute("update acct set bal = 9 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));
    ring.await_rows("select id, bal from acct order by id", &[(1, 9)], Duration::from_secs(20));
}

/// Fault class 3 — duplicate: a routed INSERT delivered twice must not
/// append twice; the owner's statement-id dedup replays the first
/// outcome instead.
#[test]
fn duplicated_append_applies_once() {
    let ring = chaos_ring(0xD203, FaultPlan::quiet);
    ring.setup_acct();
    settle();

    ring.faults[1].duplicate_next(Edge::Data, 1);
    let rs = ring.nodes[1].execute("insert into acct values (10, 3)").unwrap();
    assert_eq!(rs.affected, Some(1));

    assert_eq!(ring.faults[1].stats().duplicates(), 1, "no duplicate was injected");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let owner = ring.nodes[0].stats().unwrap();
        if owner.mutations_deduped >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "owner never saw (and deduplicated) the duplicate: {owner:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Exactly one row — a double-applied append would show two.
    ring.await_rows("select id, bal from acct order by id", &[(10, 3)], Duration::from_secs(20));
}

/// Fault class 4 — sever: a routed mutation whose owner edge is severed
/// returns a *classified* error within the retry budget (no hang), and
/// once the edge heals the ring converges again. This is the acceptance
/// criterion for the engine hardening.
#[test]
fn severed_owner_edge_fails_fast_and_heals() {
    let ring = chaos_ring(0xD204, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    ring.faults[1].sever(Edge::Data);
    let t0 = Instant::now();
    let err = ring.nodes[1]
        .execute("update acct set bal = 3 where id = 1")
        .expect_err("mutation across a severed edge cannot succeed");
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(15),
        "severed-edge mutation hung for {elapsed:?} instead of failing inside the retry budget"
    );
    assert!(matches!(err, DcError::Ring(_)), "expected a ring-classified error, got {err:?}");
    assert!(err.message().contains("timed out"), "unhelpful error: {err}");
    let stats = ring.nodes[1].stats().unwrap();
    assert!(stats.timeouts >= 1, "timeout not counted: {stats:?}");
    assert!(stats.retries >= 1, "retries not counted: {stats:?}");
    assert!(ring.faults[1].stats().severed_sends() >= 1, "sever never bit a send");

    // Heal and re-issue: the statement succeeds and the ring converges.
    ring.faults[1].heal(Edge::Data);
    let rs = ring.nodes[1].execute("update acct set bal = 3 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));
    ring.await_rows("select id, bal from acct order by id", &[(1, 3)], Duration::from_secs(20));
    support::await_catalog_convergence(&ring.nodes, Duration::from_secs(20));
}

/// Fault class 5 — scripted partition: the data edge severs at +0ms and
/// heals at +1200ms on a schedule inside the wrapper. A mutation issued
/// during the partition rides the retry backoff across the heal and
/// succeeds without the caller doing anything.
#[test]
fn scripted_partition_heals_inside_the_retry_budget() {
    let ring = chaos_ring(0xD205, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    ring.faults[1].script_at(Duration::ZERO, FaultEvent::Sever(Edge::Data));
    ring.faults[1].script_at(Duration::from_millis(1200), FaultEvent::Heal(Edge::Data));
    let t0 = Instant::now();
    let rs = ring.nodes[1].execute("update acct set bal = 4 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1), "mutation must survive the scripted partition");
    assert!(
        t0.elapsed() >= Duration::from_millis(1000),
        "partition did not delay the statement: {:?}",
        t0.elapsed()
    );
    let stats = ring.nodes[1].stats().unwrap();
    assert!(stats.retries >= 1, "no retry crossed the partition: {stats:?}");
    assert!(ring.faults[1].stats().severed_sends() >= 1, "partition never bit a send");
    ring.await_rows("select id, bal from acct order by id", &[(1, 4)], Duration::from_secs(20));
}

/// Regression: the owner-side dedup cache keys on the origin's boot
/// epoch, not just `(origin, statement id)`. Statement ids restart at 1
/// on every spawn, so a restarted origin reuses ids a surviving owner
/// may still hold cached — without the epoch in the key, the fresh
/// statements would be answered from the stale cache and silently never
/// applied (an acknowledged-but-lost write). Forged frames sent through
/// node 1's transport handle simulate the two incarnations
/// deterministically.
#[test]
fn restarted_origin_reusing_statement_ids_is_not_deduped() {
    let ring = chaos_ring(0xD206, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    let forged = |epoch: u64, bal: i32| {
        DcMsg::Mutate(MutateMsg {
            origin: NodeId(1),
            epoch,
            id: 999,
            schema: "sys".into(),
            table: "acct".into(),
            op: MutOp::Update(vec![("bal".into(), Val::Int(bal))]),
            preds: vec![RowPredicate::Cmp {
                column: "id".into(),
                op: CmpOp::Eq,
                value: Val::Int(1),
            }],
        })
    };
    // "First incarnation" of node 1 spends statement id 999 at the
    // owner (the ack circulates back to node 1, whose live incarnation
    // ignores the foreign epoch)...
    ring.faults[1].send_data(forged(0xA, 111)).unwrap();
    ring.await_rows("select id, bal from acct order by id", &[(1, 111)], Duration::from_secs(20));
    // ...and its "restarted" self reuses the id under a fresh epoch.
    // The owner must apply it, not replay the cached 111 result.
    ring.faults[1].send_data(forged(0xB, 222)).unwrap();
    ring.await_rows("select id, bal from acct order by id", &[(1, 222)], Duration::from_secs(20));
    let owner = ring.nodes[0].stats().unwrap();
    assert_eq!(owner.mutations_deduped, 0, "fresh-epoch statement was deduped: {owner:?}");

    // A true duplicate — same epoch, same id — still dedups.
    ring.faults[1].send_data(forged(0xB, 222)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let owner = ring.nodes[0].stats().unwrap();
        if owner.mutations_deduped >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "duplicate frame never deduped: {owner:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Hot-set chaos: a Readmit retried after its ack was lost re-admits the
/// spilled fragment exactly once. Node 0 is durable with a 1-byte memory
/// budget, so its `acct` fragments really spill to disk; forged Readmit
/// frames sent through node 1's transport handle simulate the origin's
/// first demand and its retry (the ack of the first having been
/// "dropped") deterministically — the owner must reload from disk once
/// and answer the replay from its dedup cache, never double-injecting.
#[test]
fn dropped_readmit_ack_readmits_exactly_once() {
    let dir = std::env::temp_dir().join(format!("dc_chaos_readmit_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ring = chaos_ring_with(0xD209, FaultPlan::quiet, |i, opts| {
        if i == 0 {
            opts.data_dir = Some(DataDir::new(&dir).fsync(FsyncPolicy::Off));
            opts.mem_budget = Some(1);
        }
    });
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 10), (2, 20)").unwrap();
    assert_eq!(rs.affected, Some(2));
    settle();

    // The 1-byte budget evicts the fragments: checkpointed to the data
    // dir (the bat file is the at-rest format), payloads dropped. Pick a
    // spilled `acct` fragment to demand back.
    let deadline = Instant::now() + Duration::from_secs(20);
    let bat = loop {
        let snap = ring.nodes[0].hotset().unwrap();
        if let Some(r) = snap.rows.iter().find(|r| r.state == "spilled" && r.table == "sys.acct") {
            break r.bat;
        }
        assert!(Instant::now() < deadline, "acct never spilled: {snap:?}");
        std::thread::sleep(Duration::from_millis(25));
    };
    let base = ring.nodes[0].stats().unwrap();

    // "Node 1" demands re-admission; the owner reloads from disk once.
    let forged = DcMsg::Readmit(ReadmitMsg { origin: NodeId(1), epoch: 0xA, id: 424, bat });
    ring.faults[1].send_data(forged.clone()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let owner = ring.nodes[0].stats().unwrap();
        if owner.loi_readmits > base.loi_readmits {
            assert_eq!(owner.loi_readmits, base.loi_readmits + 1, "one demand, one reload");
            break;
        }
        assert!(Instant::now() < deadline, "owner never re-admitted: {owner:?}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The retry after the "dropped" ack: same (origin, epoch, id). The
    // owner answers from its dedup cache instead of reloading or
    // re-injecting a second copy. (The live node 1 ignores both acks —
    // foreign epoch — exactly as a restarted origin would.)
    ring.faults[1].send_data(forged).unwrap();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let owner = ring.nodes[0].stats().unwrap();
        if owner.mutations_deduped > base.mutations_deduped {
            assert_eq!(
                owner.loi_readmits,
                base.loi_readmits + 1,
                "the retry must not reload again: {owner:?}"
            );
            break;
        }
        assert!(Instant::now() < deadline, "retried Readmit never deduped: {owner:?}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // End to end under the same budget: queries from every node block on
    // the ring, the fragments are re-admitted on demand, and the typed
    // rows come back exact.
    ring.await_rows(
        "select id, bal from acct order by id",
        &[(1, 10), (2, 20)],
        Duration::from_secs(20),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The origin side of a readmit that never gets through: node 1 pins a
/// spilled `acct` fragment with both of its outbound edges severed, so
/// neither its routed `Readmit` nor a plain request reaches the owner,
/// and the readmit exhausts the retry budget while the pin waits. The
/// timeout is counted like any routed statement's, but a readmit is not
/// a write: neither failure counter moves. After the heal, the blocked
/// query itself returns the exact rows.
#[test]
fn severed_readmit_times_out_without_failing_a_write() {
    let dir = std::env::temp_dir().join(format!("dc_chaos_readmit_cut_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ring = chaos_ring_with(0xD20A, FaultPlan::quiet, |i, opts| {
        if i == 0 {
            opts.data_dir = Some(DataDir::new(&dir).fsync(FsyncPolicy::Off));
            opts.mem_budget = Some(1);
        }
    });
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 10), (2, 20)").unwrap();
    assert_eq!(rs.affected, Some(2));

    // Wait until node 1 has heard the owner's Evict for an `acct`
    // fragment: only then does its pin route a Readmit.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let spilled: Vec<String> = ring.nodes[0]
            .hotset()
            .unwrap()
            .rows
            .iter()
            .filter(|r| r.state == "spilled" && r.table == "sys.acct")
            .map(|r| format!("{} spilled", r.bat))
            .collect();
        let heard = ring.nodes[1].obs().trace_events().iter().any(|e| {
            e.event == "evict_seen" && spilled.iter().any(|s| e.detail.starts_with(s.as_str()))
        });
        if heard {
            break;
        }
        assert!(Instant::now() < deadline, "node 1 never heard an acct eviction");
        std::thread::sleep(Duration::from_millis(25));
    }
    let base = ring.nodes[1].stats().unwrap();

    ring.faults[1].sever(Edge::Data);
    ring.faults[1].sever(Edge::Request);
    let origin = Arc::clone(&ring.nodes[1]);
    let blocked =
        std::thread::spawn(move || origin.execute("select id, bal from acct order by id"));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = ring.nodes[1].stats().unwrap();
        if stats.readmits_routed > base.readmits_routed && stats.timeouts > base.timeouts {
            assert_eq!(stats.mutations_failed, base.mutations_failed, "{stats:?}");
            assert_eq!(stats.appends_failed, base.appends_failed, "{stats:?}");
            break;
        }
        assert!(Instant::now() < deadline, "readmit never routed and timed out: {stats:?}");
        std::thread::sleep(Duration::from_millis(25));
    }

    ring.faults[1].heal(Edge::Data);
    ring.faults[1].heal(Edge::Request);
    let rs = blocked.join().unwrap().expect("the blocked query resolves after the heal");
    let got: Vec<(Val, Val)> =
        (0..rs.row_count()).map(|r| (rs.cell(r, 0), rs.cell(r, 1))).collect();
    assert_eq!(got, [(Val::Int(1), Val::Int(10)), (Val::Int(2), Val::Int(20))]);
    ring.await_rows(
        "select id, bal from acct order by id",
        &[(1, 10), (2, 20)],
        Duration::from_secs(20),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A routed INSERT whose owner edge is severed fails loudly and shows
/// up in `appends_failed` — the INSERT twin of `mutations_failed`, so
/// failed routed appends are observable in [`datacyclotron::NodeStats`].
#[test]
fn severed_owner_edge_counts_failed_appends() {
    let ring = chaos_ring(0xD207, FaultPlan::quiet);
    ring.setup_acct();
    settle();

    ring.faults[1].sever(Edge::Data);
    let err = ring.nodes[1]
        .execute("insert into acct values (5, 50)")
        .expect_err("append across a severed edge cannot succeed");
    assert!(matches!(err, DcError::Ring(_)), "expected a ring-classified error, got {err:?}");
    let stats = ring.nodes[1].stats().unwrap();
    assert!(stats.appends_failed >= 1, "failed append not counted: {stats:?}");
    assert!(stats.timeouts >= 1, "timeout not counted: {stats:?}");

    // Heal and re-issue: exactly one row lands.
    ring.faults[1].heal(Edge::Data);
    let rs = ring.nodes[1].execute("insert into acct values (5, 50)").unwrap();
    assert_eq!(rs.affected, Some(1));
    ring.await_rows("select id, bal from acct order by id", &[(5, 50)], Duration::from_secs(20));
}

/// Counter consistency across layers: every fault the wrapper injects
/// must cast a visible shadow in the engine's own counters. A dropped
/// mutation frame shows up as an origin retry; a duplicated one shows up
/// as an owner-side dedup — so `FaultStats` reconciles with
/// `NodeStats` and no injected fault vanishes unobserved.
#[test]
fn injected_faults_reconcile_with_downstream_counters() {
    let ring = chaos_ring(0xD208, FaultPlan::quiet);
    ring.setup_acct();
    let rs = ring.nodes[0].execute("insert into acct values (1, 0)").unwrap();
    assert_eq!(rs.affected, Some(1));
    settle();

    // One dropped frame: the origin's retry is its downstream shadow.
    ring.faults[1].drop_next(Edge::Data, 1);
    let rs = ring.nodes[1].execute("update acct set bal = 1 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));

    // One duplicated frame: the owner's dedup is its downstream shadow.
    ring.faults[1].duplicate_next(Edge::Data, 1);
    let rs = ring.nodes[1].execute("update acct set bal = 2 where id = 1").unwrap();
    assert_eq!(rs.affected, Some(1));

    let injected = ring.faults[1].stats();
    assert!(injected.drops() >= 1, "no drop was injected");
    assert_eq!(injected.duplicates(), 1, "no duplicate was injected");

    // The duplicate's dedup can trail the ack by a ring hop; poll until
    // the books balance: injected faults ≤ observed retries + dedups.
    let want = injected.drops() + injected.duplicates();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let origin = ring.nodes[1].stats().unwrap();
        let owner = ring.nodes[0].stats().unwrap();
        if origin.retries >= 1
            && owner.mutations_deduped >= 1
            && origin.retries + owner.mutations_deduped >= want
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "injected faults never reconciled: {want} injected, \
             origin retries {} + owner dedups {}",
            origin.retries,
            owner.mutations_deduped
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    ring.await_rows("select id, bal from acct order by id", &[(1, 2)], Duration::from_secs(20));
}

/// The seeded mix: every node's wrapper rolls drops, duplicates, and
/// stalls from its own deterministic RNG while framed clients run the
/// concurrency suite's mixed workload. Each pinned seed must converge to
/// the exact acknowledged state on every node.
fn run_seeded_mix(seed: u64, clients: usize, keys: usize) {
    let plan = |node_seed: u64| FaultPlan {
        seed: node_seed,
        drop_p: 0.01,
        dup_p: 0.03,
        stall_p: 0.02,
        stall_for: Duration::from_millis(25),
    };
    let ring = chaos_ring(seed, plan);
    let sql_addrs = support::spawn_sql_front(&ring.nodes);

    // Schema setup under calm (its gossip is not the subject under test).
    ring.set_chaos(false);
    support::sql(sql_addrs[0], "create table acct (id int, bal int)").unwrap();
    for addr in &sql_addrs {
        support::sql(*addr, ".wait acct").unwrap();
    }
    ring.set_chaos(true);

    let mut joins = Vec::new();
    for cid in 0..clients {
        let addr = sql_addrs[cid % sql_addrs.len()];
        joins.push(std::thread::spawn(move || support::client_script(addr, cid, keys)));
    }
    for j in joins {
        j.join().expect("client thread panicked under chaos");
    }

    let injected: u64 = ring.faults.iter().map(|f| f.stats().faults_injected()).sum();
    eprintln!("seed {seed:#x}: {injected} faults injected across the ring");

    // Calm the wrappers and nudge one re-advertisement so a fault that
    // swallowed the workload's *last* catalog gossip cannot wedge the
    // convergence oracle. Key 0 survives the script with bal = 0, so
    // this settling write does not perturb the expected final state.
    ring.set_chaos(false);
    let rs = support::sql(sql_addrs[0], "update acct set bal = 0 where id = 0").unwrap();
    assert_eq!(rs.affected, Some(1), "settling write");

    support::await_catalog_convergence(&ring.nodes, Duration::from_secs(30));
    let want = support::expected_rows(clients, keys);
    support::assert_final_state(&sql_addrs, &want, Duration::from_secs(60));
}

/// Pinned seeds, run in CI: three different deterministic fault
/// sequences over the full mixed workload.
#[test]
fn seeded_random_mix_converges_under_pinned_seeds() {
    for seed in [0xDC07, 7, 42] {
        run_seeded_mix(seed, 3, 6);
    }
}

/// Randomized soak: a fresh seed per run (pin one with `CHAOS_SEED=n`),
/// printed so any failure is replayable. Minutes, not seconds:
/// `cargo test --test chaos -- --ignored`.
#[test]
#[ignore = "randomized soak: run with --ignored"]
fn chaos_soak_randomized() {
    let seed = match std::env::var("CHAOS_SEED") {
        Ok(s) => s.parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock before epoch")
            .as_nanos() as u64,
    };
    eprintln!("soak seed: {seed:#x} (replay with CHAOS_SEED={seed})");
    run_seeded_mix(seed, 6, 20);
}

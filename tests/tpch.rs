//! TPC-H acceptance over the live ring (§3 distributed query execution).
//!
//! Three engine nodes speak length-prefixed TCP frames; each loads one
//! whole TPC-H table (customer → node 0, orders → node 1, lineitem →
//! node 2), so every join in the subset crosses node boundaries and the
//! answers can only be right if fragments actually circulate. Each query
//! of the subset (Q1 scan + multi-key GROUP BY, Q3 three-table INNER
//! JOIN chain, Q6 range-predicate aggregate) must return a `ResultSet`
//! cell-for-cell identical to a single-node in-process execution of the
//! same statement over the same deterministic dataset — and the ring
//! must report nonzero `ring_query_bytes_moved`, proving the fragments
//! were pulled off the wire rather than found locally.

use datacyclotron::{DcConfig, NodeId, NodeOptions, Ring, RingNode, RingTransport};
use dc_transport::tcp::join_ring;
use dc_workloads::tpch::sql as tpch;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let ls: Vec<TcpListener> = (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    ls.iter().map(|l| l.local_addr().unwrap()).collect()
}

fn spawn_tcp_ring(n: usize) -> Vec<RingNode> {
    let addrs = free_addrs(n);
    let mut joins = Vec::new();
    for me in 0..n {
        let addrs = addrs.clone();
        joins.push(std::thread::spawn(move || {
            let transport = Arc::new(join_ring(&addrs, me).unwrap()) as Arc<dyn RingTransport>;
            let opts = NodeOptions {
                cfg: DcConfig {
                    load_interval: netsim::SimDuration::from_millis(5),
                    resend_timeout: netsim::SimDuration::from_millis(500),
                    ..DcConfig::default()
                },
                pin_timeout: Duration::from_secs(30),
                ..NodeOptions::default()
            };
            RingNode::spawn(NodeId(me as u16), transport, opts)
        }));
    }
    joins.into_iter().map(|j| j.join().unwrap()).collect()
}

#[test]
fn tpch_subset_matches_single_node_over_tcp_ring() {
    let data = tpch::generate(1.0, 42);

    // Reference: everything resident on one in-process node.
    let single = Ring::builder(1).build();
    single.load_table("sys", "customer", data.customer.clone()).unwrap();
    single.load_table("sys", "orders", data.orders.clone()).unwrap();
    single.load_table("sys", "lineitem", data.lineitem.clone()).unwrap();

    // System under test: one table per node, joined over TCP.
    let nodes = spawn_tcp_ring(3);
    nodes[0].load_table("sys", "customer", data.customer).unwrap();
    nodes[1].load_table("sys", "orders", data.orders).unwrap();
    nodes[2].load_table("sys", "lineitem", data.lineitem).unwrap();
    for n in &nodes {
        for t in ["customer", "orders", "lineitem"] {
            n.wait_for_table_timeout("sys", t, Duration::from_secs(15)).unwrap();
        }
    }

    for (name, stmt) in tpch::queries() {
        let expected = single.execute(0, stmt).unwrap();
        assert!(expected.row_count() > 0, "{name}: reference answer is empty");

        // Every ring member must produce the same typed answer, no
        // matter which tables it owns locally.
        for node in &nodes {
            let got = node.execute(stmt).unwrap();
            assert_eq!(got.column_count(), expected.column_count(), "{name} on {}", node.id);
            assert_eq!(got.row_count(), expected.row_count(), "{name} on {}", node.id);
            for c in 0..expected.column_count() {
                assert_eq!(
                    got.columns[c].col_type(),
                    expected.columns[c].col_type(),
                    "{name} on {} column {c}",
                    node.id
                );
            }
            for r in 0..expected.row_count() {
                for c in 0..expected.column_count() {
                    assert_eq!(
                        got.cell(r, c),
                        expected.cell(r, c),
                        "{name} on {} cell ({r},{c})",
                        node.id
                    );
                }
            }
        }
    }

    // The answers above are only possible because remote fragments were
    // pulled off the wire: the per-node counters must show it.
    let moved: u64 = nodes.iter().map(|n| n.stats().unwrap().ring_query_bytes_moved).sum();
    assert!(moved > 0, "no ring bytes were moved to serve queries");

    for n in nodes {
        n.shutdown();
    }
    single.shutdown();
}

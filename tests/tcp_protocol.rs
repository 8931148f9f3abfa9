//! The DC protocol over the real TCP transport: a three-node ring where
//! state machines exchange framed messages over sockets — requests
//! anti-clockwise, fragments clockwise, hot-set expiry at the owner.

use batstore::{storage, Bat, Column};
use bytes::Bytes;
use datacyclotron::{BatId, DcConfig, DcMsg, DcNode, Effect, NodeId, PinOutcome, QueryId, ReqMsg};
use dc_transport::tcp::{join_ring, read_frame, read_frame_capped, write_frame, TcpNode};
use dc_transport::RingTransport;
use netsim::SimTime;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let ls: Vec<TcpListener> = (0..n).map(|_| TcpListener::bind("127.0.0.1:0").unwrap()).collect();
    ls.iter().map(|l| l.local_addr().unwrap()).collect()
}

struct TestNode {
    dc: DcNode,
    transport: TcpNode,
    payload_bytes: Vec<u8>,
    started: Instant,
}

impl TestNode {
    fn now(&self) -> SimTime {
        SimTime(self.started.elapsed().as_nanos() as u64)
    }

    fn pump(&mut self, deadline: Instant) -> Vec<Effect> {
        let mut out = Vec::new();
        while Instant::now() < deadline {
            let Some(msg) = self.transport.try_recv() else {
                self.dc.set_time(self.now());
                let ticked = self.dc.tick();
                self.execute(ticked, &mut out);
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            self.dc.set_time(self.now());
            let effects = match msg {
                DcMsg::Request(r) => self.dc.on_request(r),
                DcMsg::Bat { header, .. } => self.dc.on_bat(header),
                DcMsg::Catalog(_)
                | DcMsg::Append(_)
                | DcMsg::Mutate(_)
                | DcMsg::MutAck(_)
                | DcMsg::Evict(_)
                | DcMsg::Readmit(_) => Vec::new(),
            };
            self.execute(effects, &mut out);
        }
        out
    }

    fn execute(&mut self, effects: Vec<Effect>, observed: &mut Vec<Effect>) {
        for e in effects {
            match &e {
                Effect::SendBat(h) => {
                    let _ = self.transport.send_data(DcMsg::Bat {
                        header: *h,
                        payload: Some(Bytes::copy_from_slice(&self.payload_bytes)),
                    });
                }
                Effect::SendRequest(r) => {
                    let _ = self.transport.send_request(DcMsg::Request(*r));
                }
                Effect::LoadFromDisk { bat, .. } => {
                    let bat = *bat;
                    observed.push(e);
                    let loaded = self.dc.bat_loaded(bat);
                    self.execute(loaded, observed);
                    continue;
                }
                _ => {}
            }
            observed.push(e);
        }
    }
}

// ---- framing edge cases -------------------------------------------------

#[test]
fn oversize_frame_rejected_without_allocation() {
    // A corrupt peer claims a frame just under u32::MAX; the reader must
    // reject it from the length prefix alone (and, below the cap, must
    // never allocate the claimed length before bytes arrive).
    let mut buf = Vec::new();
    buf.extend_from_slice(&(u32::MAX - 1).to_le_bytes());
    let err = read_frame(&mut &buf[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("cap"), "{err}");
}

#[test]
fn lowered_frame_cap_is_enforced() {
    let msg = DcMsg::Bat {
        header: datacyclotron::BatHeader::fresh(NodeId(0), BatId(1), 64),
        payload: Some(Bytes::from(vec![7u8; 64])),
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg).unwrap();
    // Under a 16-byte cap the same frame is refused…
    let err = read_frame_capped(&mut &buf[..], 16).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // …and with a generous cap it round-trips.
    assert_eq!(read_frame_capped(&mut &buf[..], 1 << 20).unwrap().unwrap(), msg);
}

#[test]
fn clean_eof_vs_truncated_prefix() {
    // Zero bytes: a clean close between frames.
    assert!(read_frame(&mut &b""[..]).unwrap().is_none());
    // EOF inside the 4-byte length prefix is NOT clean: the peer died
    // mid-frame and the reader must surface it.
    for cut in 1..4 {
        let mut buf = Vec::new();
        write_frame(&mut buf, &DcMsg::Request(ReqMsg { origin: NodeId(0), bat: BatId(1) }))
            .unwrap();
        let err = read_frame(&mut &buf[..cut]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut at {cut}");
    }
}

#[test]
fn truncated_payload_reports_shortfall() {
    let msg = DcMsg::Bat {
        header: datacyclotron::BatHeader::fresh(NodeId(0), BatId(1), 32),
        payload: Some(Bytes::from(vec![1u8; 32])),
    };
    let mut buf = Vec::new();
    write_frame(&mut buf, &msg).unwrap();
    let err = read_frame(&mut &buf[..buf.len() - 5]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(err.to_string().contains("truncated frame"), "{err}");
}

#[test]
fn back_to_back_frames_stream_cleanly() {
    let msgs = vec![
        DcMsg::Request(ReqMsg { origin: NodeId(1), bat: BatId(2) }),
        DcMsg::Bat {
            header: datacyclotron::BatHeader::fresh(NodeId(0), BatId(3), 3),
            payload: Some(Bytes::from_static(b"abc")),
        },
        DcMsg::Request(ReqMsg { origin: NodeId(2), bat: BatId(9) }),
    ];
    let mut buf = Vec::new();
    for m in &msgs {
        write_frame(&mut buf, m).unwrap();
    }
    let mut r = &buf[..];
    for m in &msgs {
        assert_eq!(&read_frame(&mut r).unwrap().unwrap(), m);
    }
    assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF after the last frame");
}

// ---- protocol over real sockets -----------------------------------------

#[test]
fn request_travels_anticlockwise_and_bat_returns_clockwise() {
    let addrs = free_addrs(3);
    let mut joins = Vec::new();
    for me in 0..3 {
        let addrs = addrs.clone();
        joins.push(std::thread::spawn(move || join_ring(&addrs, me).unwrap()));
    }
    let transports: Vec<TcpNode> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    let payload = Bat::dense(Column::Int((0..256).collect()));
    let payload_bytes = storage::bat_to_bytes(&payload);
    let size = payload.byte_size() as u64;

    let mut nodes: Vec<TestNode> = transports
        .into_iter()
        .enumerate()
        .map(|(i, transport)| {
            let cfg = DcConfig {
                load_interval: netsim::SimDuration::from_millis(5),
                ..DcConfig::default()
            };
            let mut dc = DcNode::new(NodeId(i as u16), cfg);
            if i == 2 {
                dc.register_owned(BatId(7), size);
            }
            TestNode {
                dc,
                transport,
                payload_bytes: payload_bytes.clone(),
                started: Instant::now(),
            }
        })
        .collect();

    // Node 0 wants bat 7 (owned by node 2).
    nodes[0].dc.set_time(SimTime(1));
    let effects = nodes[0].dc.local_request(QueryId(1), BatId(7));
    let mut sink = Vec::new();
    nodes[0].execute(effects, &mut sink);
    assert_eq!(nodes[0].dc.pin(QueryId(1), BatId(7)).0, PinOutcome::MustWait);

    // Pump all nodes concurrently for up to 3 seconds.
    let deadline = Instant::now() + Duration::from_secs(3);
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|mut n| {
            std::thread::spawn(move || {
                let observed = n.pump(deadline);
                (n, observed)
            })
        })
        .collect();
    let results: Vec<(TestNode, Vec<Effect>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Node 2 (owner) must have loaded the BAT.
    let owner_loaded = results[2]
        .1
        .iter()
        .any(|e| matches!(e, Effect::LoadFromDisk { bat, .. } if *bat == BatId(7)));
    assert!(owner_loaded, "owner never loaded: {:?}", results[2].1);

    // Node 0 must have been served.
    let delivered = results[0]
        .1
        .iter()
        .any(|e| matches!(e, Effect::Deliver { header, .. } if header.bat == BatId(7)));
    assert!(delivered, "requester never served: {:?}", results[0].1);

    // The fragment circulated: node 1 forwarded it at least once.
    assert!(results[1].0.dc.stats.bats_forwarded > 0, "middle node never saw the BAT");

    for (n, _) in results {
        n.transport.shutdown();
    }
}

#[test]
fn hot_set_expires_over_tcp() {
    let addrs = free_addrs(2);
    let mut joins = Vec::new();
    for me in 0..2 {
        let addrs = addrs.clone();
        joins.push(std::thread::spawn(move || join_ring(&addrs, me).unwrap()));
    }
    let mut transports: Vec<Option<TcpNode>> =
        joins.into_iter().map(|j| Some(j.join().unwrap())).collect();

    // Owner node 0 with a fragment nobody re-pins: after its cycles the
    // LOI decays below every level and the owner unloads it.
    let payload = Bat::dense(Column::Int(vec![1, 2, 3]));
    let bytes = storage::bat_to_bytes(&payload);
    let cfg = DcConfig { loit_levels: vec![0.5], loit_start: 0, ..DcConfig::default() };
    let mut owner = DcNode::new(NodeId(0), cfg.clone());
    owner.register_owned(BatId(1), payload.byte_size() as u64);
    let mut other = DcNode::new(NodeId(1), cfg);

    let t0 = transports[0].take().unwrap();
    let t1 = transports[1].take().unwrap();

    // Kick off: a request from node 1 reaches the owner (anti-clockwise).
    other.set_time(SimTime(1));
    for e in other.local_request(QueryId(9), BatId(1)) {
        if let Effect::SendRequest(r) = e {
            t1.send_request(DcMsg::Request(r)).unwrap();
        }
    }
    // Owner receives, loads, sends the BAT clockwise.
    let DcMsg::Request(req) = t0.recv().unwrap() else { panic!() };
    owner.set_time(SimTime(2));
    let mut unloaded = false;
    let mut effects = owner.on_request(req);
    for _round in 0..32 {
        let mut next = Vec::new();
        for e in effects {
            match e {
                Effect::LoadFromDisk { bat, .. } => next.extend(owner.bat_loaded(bat)),
                Effect::SendBat(h) => {
                    t0.send_data(DcMsg::Bat {
                        header: h,
                        payload: Some(Bytes::copy_from_slice(&bytes)),
                    })
                    .unwrap();
                    // Node 1 handles and forwards back.
                    let DcMsg::Bat { header, .. } = t1.recv().unwrap() else { panic!() };
                    other.set_time(SimTime(3));
                    for e2 in other.on_bat(header) {
                        if let Effect::SendBat(h2) = e2 {
                            t1.send_data(DcMsg::Bat {
                                header: h2,
                                payload: Some(Bytes::copy_from_slice(&bytes)),
                            })
                            .unwrap();
                        }
                    }
                    // Owner receives its own BAT back.
                    let DcMsg::Bat { header, .. } = t0.recv().unwrap() else { panic!() };
                    owner.set_time(SimTime(4));
                    next.extend(owner.on_bat(header));
                }
                Effect::Unload(b) => {
                    assert_eq!(b, BatId(1));
                    unloaded = true;
                }
                _ => {}
            }
        }
        if unloaded {
            break;
        }
        effects = next;
    }
    assert!(unloaded, "owner never expired the unrenewed fragment");
    t0.shutdown();
    t1.shutdown();
}

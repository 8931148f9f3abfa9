//! Property tests for the ring message codec, covering the full `DcMsg`
//! surface: the query-circulation path (`Bat`/`Request`), the framed
//! mutation path (`Mutate`/`MutAck`/`Append`/`Catalog`), and the
//! hot-set path (`Evict`/`Readmit`, acknowledged by `MutAck`).
//! Arbitrary messages round-trip byte-exactly, every strict prefix of a
//! valid frame is rejected (never mis-decoded or panicked on), and
//! hostile count/length prefixes neither panic nor provoke an unbounded
//! allocation.
//!
//! Distributed query execution (§3) deliberately introduces no new wire
//! message: registered queries ride the existing `Request` (interest)
//! and `Bat` (fragment delivery) circulation, so these two shapes carry
//! the whole distributed-join traffic and get the same hostile-input
//! discipline as the mutation path.

use batstore::ops::CmpOp;
use batstore::{ColType, RowPredicate, Val};
use bytes::Bytes;
use datacyclotron::msg::{
    decode, encode, BatHeader, EvictMsg, MutAckMsg, MutOp, MutateMsg, ReadmitMsg, ReqMsg,
};
use datacyclotron::{AppendMsg, BatId, CatalogCol, CatalogMsg, DcMsg, NodeId};
use proptest::prelude::*;

/// A deterministic value of the given kind. Doubles stay finite:
/// `Val: PartialEq` treats NaN as unequal to itself, which would fail
/// the round-trip assertion for a reason that has nothing to do with
/// the codec.
fn val_from(kind: u8, seed: i64, text: &str) -> Val {
    match kind % 8 {
        0 => Val::Nil,
        1 => Val::Oid(seed.unsigned_abs()),
        2 => Val::Int(seed as i32),
        3 => Val::Lng(seed.wrapping_mul(1_000_003)),
        4 => Val::Dbl(seed as f64 * 0.25),
        5 => Val::Str(text.to_string()),
        6 => Val::Bool(seed % 2 == 0),
        _ => Val::Date((seed % 50_000) as i32),
    }
}

fn pred_from(kind: u8, seed: i64, text: &str, nin: usize) -> RowPredicate {
    let column = format!("c{}", kind % 5);
    match kind % 3 {
        0 => RowPredicate::Cmp {
            column,
            op: [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt]
                [seed.unsigned_abs() as usize % 6],
            value: val_from(kind.wrapping_add(1), seed, text),
        },
        1 => RowPredicate::Between {
            column,
            lo: val_from(kind.wrapping_add(2), seed, text),
            hi: val_from(kind.wrapping_add(2), seed.wrapping_add(9), text),
        },
        _ => RowPredicate::InList {
            column,
            values: (0..nin)
                .map(|i| val_from(kind.wrapping_add(i as u8), seed + i as i64, text))
                .collect(),
        },
    }
}

fn mutate_from(kind: u8, seed: i64, text: &str, nassign: usize, npred: usize) -> DcMsg {
    let op = if kind.is_multiple_of(2) {
        MutOp::Update(
            (0..nassign)
                .map(|i| (format!("a{i}"), val_from(kind.wrapping_add(i as u8), seed, text)))
                .collect(),
        )
    } else {
        MutOp::Delete
    };
    DcMsg::Mutate(MutateMsg {
        origin: NodeId(seed.unsigned_abs() as u16),
        epoch: seed.unsigned_abs().wrapping_mul(31),
        id: seed.unsigned_abs().wrapping_mul(7),
        schema: "sys".into(),
        table: format!("t{}", kind % 7),
        op,
        preds: (0..npred)
            .map(|i| pred_from(kind.wrapping_add(i as u8), seed + i as i64, text, 1 + i % 4))
            .collect(),
    })
}

fn mutack_from(seed: i64, text: &str) -> DcMsg {
    DcMsg::MutAck(MutAckMsg {
        target: NodeId(seed.unsigned_abs() as u16),
        epoch: seed.unsigned_abs().wrapping_mul(13),
        id: seed.unsigned_abs(),
        result: if seed % 2 == 0 { Ok(seed.unsigned_abs()) } else { Err(text.to_string()) },
    })
}

fn catalog_from(kind: u8, seed: i64, text: &str, ncols: usize) -> DcMsg {
    DcMsg::Catalog(CatalogMsg {
        origin: NodeId(seed.unsigned_abs() as u16),
        schema: "sys".into(),
        table: format!("t{text}"),
        columns: (0..ncols)
            .map(|i| CatalogCol {
                name: format!("col{i}"),
                ty: ColType::from_tag(((kind as usize + i) % 8) as u8).unwrap(),
                bat: BatId((seed.unsigned_abs() as u32).wrapping_add(i as u32)),
                size: seed.unsigned_abs().wrapping_mul(13),
                owner: NodeId((i % 4) as u16),
                version: (seed.unsigned_abs() % 1000) as u32,
            })
            .collect(),
    })
}

fn evict_from(seed: i64) -> DcMsg {
    DcMsg::Evict(EvictMsg {
        owner: NodeId(seed.unsigned_abs() as u16),
        bat: BatId(seed.unsigned_abs() as u32),
        version: (seed.unsigned_abs() % 10_000) as u32,
        size: seed.unsigned_abs().wrapping_mul(977),
    })
}

fn readmit_from(seed: i64) -> DcMsg {
    DcMsg::Readmit(ReadmitMsg {
        origin: NodeId(seed.unsigned_abs() as u16),
        epoch: seed.unsigned_abs().wrapping_mul(17),
        id: seed.unsigned_abs().wrapping_mul(3),
        bat: BatId(seed.unsigned_abs() as u32),
    })
}

fn bat_from(kind: u8, seed: i64, npayload: usize) -> DcMsg {
    // `Some(empty)` is canonicalized to `None` on decode, so a present
    // payload always carries at least one byte.
    let payload = if kind.is_multiple_of(2) {
        Some(Bytes::copy_from_slice(
            &(0..=npayload).map(|i| (seed as usize + i) as u8).collect::<Vec<u8>>(),
        ))
    } else {
        None
    };
    DcMsg::Bat {
        header: BatHeader {
            owner: NodeId(seed.unsigned_abs() as u16),
            bat: BatId(seed.unsigned_abs() as u32),
            size: seed.unsigned_abs().wrapping_mul(41),
            loi: seed as f64 * 0.125,
            copies: (seed.unsigned_abs() % 64) as u32,
            hops: (seed.unsigned_abs() % 128) as u32,
            cycles: (seed.unsigned_abs() % 32) as u32,
            version: (seed.unsigned_abs() % 1000) as u32,
            updating: kind.is_multiple_of(3),
        },
        payload,
    }
}

fn request_from(seed: i64) -> DcMsg {
    DcMsg::Request(ReqMsg {
        origin: NodeId(seed.unsigned_abs() as u16),
        bat: BatId(seed.unsigned_abs().wrapping_mul(3) as u32),
    })
}

fn append_from(kind: u8, seed: i64, text: &str, nparts: usize) -> DcMsg {
    DcMsg::Append(AppendMsg {
        origin: NodeId(seed.unsigned_abs() as u16),
        epoch: seed.unsigned_abs().wrapping_mul(23),
        id: seed.unsigned_abs().wrapping_mul(5),
        parts: (0..nparts)
            .map(|i| {
                let mut rows = text.as_bytes().to_vec();
                rows.push(kind.wrapping_add(i as u8));
                (BatId((seed.unsigned_abs() as u32).wrapping_add(i as u32)), Bytes::from(rows))
            })
            .collect(),
    })
}

/// One message of every `DcMsg` shape from the same inputs: the
/// query-circulation path (`Bat`/`Request`), the mutation path, and the
/// hot-set path.
fn messages(kind: u8, seed: i64, text: &str, n1: usize, n2: usize) -> Vec<DcMsg> {
    vec![
        bat_from(kind, seed, n1),
        request_from(seed),
        append_from(kind, seed, text, n1),
        mutate_from(kind, seed, text, n1, n2),
        mutack_from(seed, text),
        catalog_from(kind, seed, text, n1),
        evict_from(seed),
        readmit_from(seed),
    ]
}

proptest! {
    /// Encode → decode is the identity for every message shape.
    #[test]
    fn mutation_path_messages_round_trip(kind in any::<u8>(),
                                         seed in -100_000i64..100_000,
                                         chars in prop::collection::vec(any::<char>(), 0..32),
                                         n1 in 0usize..5,
                                         n2 in 0usize..5) {
        let text: String = chars.into_iter().collect();
        for msg in messages(kind, seed, &text, n1, n2) {
            prop_assert_eq!(decode(&encode(&msg)).unwrap(), msg);
        }
    }

    /// Every strict prefix of a valid frame errors — the codec never
    /// mis-decodes a truncated mutation into a shorter valid one (which
    /// would apply a *different* statement at the owner) and never
    /// panics on one.
    #[test]
    fn truncated_frames_error_not_panic(kind in any::<u8>(),
                                        seed in -100_000i64..100_000,
                                        chars in prop::collection::vec(any::<char>(), 0..16),
                                        n1 in 0usize..4,
                                        n2 in 0usize..4,
                                        cut_pick in 0usize..4096) {
        let text: String = chars.into_iter().collect();
        for msg in messages(kind, seed, &text, n1, n2) {
            let wire = encode(&msg);
            let cut = cut_pick % wire.len(); // < len: strict prefix
            prop_assert!(
                decode(&wire[..cut]).is_err(),
                "prefix {cut}/{} of {msg:?} decoded",
                wire.len()
            );
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode(&bytes);
    }

    /// A frame whose trailing element count claims far more items than
    /// the buffer holds must fail on truncation without allocating for
    /// the claim. (The decoder caps `Vec::with_capacity` at 1024
    /// entries, so a lying 0xFFFF count cannot reserve gigabytes.)
    #[test]
    fn hostile_count_prefixes_rejected(count in 2_000u16..u16::MAX) {
        // Mutate: valid header, op = Delete, then a lying predicate count.
        let mut mutate = encode(&mutate_from(1, 7, "x", 0, 0)).to_vec();
        let len = mutate.len();
        mutate[len - 2..].copy_from_slice(&count.to_le_bytes());
        prop_assert!(decode(&mutate).is_err());

        // Catalog: valid empty-column frame, then a lying column count.
        let mut catalog = encode(&catalog_from(0, 7, "x", 0)).to_vec();
        let len = catalog.len();
        catalog[len - 2..].copy_from_slice(&count.to_le_bytes());
        prop_assert!(decode(&catalog).is_err());

        // Append: valid empty-parts frame, then a lying part count.
        let mut append = encode(&DcMsg::Append(datacyclotron::AppendMsg {
            origin: NodeId(1),
            epoch: 4,
            id: 9,
            parts: vec![],
        }))
        .to_vec();
        let len = append.len();
        append[len - 2..].copy_from_slice(&count.to_le_bytes());
        prop_assert!(decode(&append).is_err());
    }

    /// A BAT frame whose u64 payload-length field claims more bytes than
    /// the buffer holds errors before any allocation for the claim; an
    /// Append part with a lying row-bytes length does the same.
    #[test]
    fn hostile_payload_lengths_rejected(claim in 1_000u64..u64::MAX, seed in -100_000i64..100_000) {
        let mut bat = encode(&bat_from(0, seed, 4)).to_vec();
        // tag(1) + 39-byte header, then the u64 payload length.
        bat[40..48].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(decode(&bat).is_err());

        let mut append = encode(&append_from(1, seed, "rows", 1)).to_vec();
        // tag(1) + origin(2) + epoch(8) + id(8) + count(2) + bat(4) = 25
        // bytes, then the u64 row-bytes length of the only part.
        append[25..33].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(decode(&append).is_err());
    }

    /// A string field whose u16 length prefix exceeds the remaining
    /// bytes errors instead of reading out of bounds.
    #[test]
    fn hostile_string_lengths_rejected(claim in 64u16..u16::MAX) {
        // MutAck Err-result: the message text is the final field.
        let wire = encode(&DcMsg::MutAck(MutAckMsg {
            target: NodeId(2),
            epoch: 1,
            id: 3,
            result: Err("boom".into()),
        }));
        // tag(1) + target(2) + epoch(8) + id(8) + ok-flag(1) = 20 bytes
        // of header, then the u16 string length.
        let mut bytes = wire.to_vec();
        bytes[20..22].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(decode(&bytes).is_err());
    }
}

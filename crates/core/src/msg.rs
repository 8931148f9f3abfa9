//! Ring messages and their binary codec.
//!
//! "BAT messages contain the fields owner, bat_id, bat_size, loi, copies,
//! hops, and cycles. … BAT request messages contain the variables owner
//! and bat_id." (§4.3). We add `version`/`updating` for the §6.4 update
//! scheme, plus two distributed-deployment messages the paper's network
//! layer implies but does not spell out: [`CatalogMsg`] replicates table
//! metadata clockwise so every node can compile SQL without a shared
//! catalog, and [`AppendMsg`] carries row appends clockwise toward the
//! fragment owner (§6.4 updates). The codec is a hand-written
//! little-endian layout over `bytes` — small, allocation-light, and fully
//! round-trip tested.

use crate::ids::{BatId, NodeId};
use batstore::ops::CmpOp;
use batstore::{ColType, RowPredicate, Val};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// The administrative header a circulating BAT carries for hot-set
/// management (§4.2.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatHeader {
    /// The node whose data loader owns (loaded) this BAT.
    pub owner: NodeId,
    pub bat: BatId,
    /// Payload size in bytes (queue accounting and link timing).
    pub size: u64,
    /// Level of interest carried from the last owner pass.
    pub loi: f64,
    /// Nodes that used the BAT since it left its owner.
    pub copies: u32,
    /// Hops since it left its owner (age within the cycle).
    pub hops: u32,
    /// Completed ring cycles.
    pub cycles: u32,
    /// Version counter for the §6.4 multi-version update scheme.
    pub version: u32,
    /// Tagged "updating": concurrent updaters must wait for the new
    /// version; stale readers may still use it (§6.4).
    pub updating: bool,
}

impl BatHeader {
    /// A freshly loaded BAT entering the ring at its owner.
    pub fn fresh(owner: NodeId, bat: BatId, size: u64) -> Self {
        BatHeader {
            owner,
            bat,
            size,
            loi: 0.0,
            copies: 0,
            hops: 0,
            cycles: 0,
            version: 0,
            updating: false,
        }
    }

    /// Bytes this message occupies on the wire (header + payload).
    pub fn wire_size(&self) -> u64 {
        HEADER_WIRE_BYTES + self.size
    }
}

/// Wire cost of a BAT header (fixed).
pub const HEADER_WIRE_BYTES: u64 = 40;
/// Wire cost of a request message: small and constant; the paper sends
/// them anti-clockwise precisely because they are cheap.
pub const REQUEST_WIRE_BYTES: u64 = 16;

/// A BAT request traveling anti-clockwise toward the owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqMsg {
    /// The requesting node (the paper calls this field `owner` — "the
    /// request node's origin"; renamed to avoid clashing with the BAT's
    /// owner).
    pub origin: NodeId,
    pub bat: BatId,
}

/// One column's catalog entry as replicated around the ring. `version`
/// is the fragment's §6.4 version counter at the time the owner
/// advertised it: every owner-side mutation bumps it and re-gossips, so
/// replicas converge on the same (size, version) view of the table.
#[derive(Clone, Debug, PartialEq)]
pub struct CatalogCol {
    pub name: String,
    pub ty: ColType,
    pub bat: BatId,
    pub size: u64,
    pub owner: NodeId,
    pub version: u32,
}

/// Table metadata gossip. Travels clockwise (the data direction); every
/// node applies it to its local catalogs and forwards, and the origin
/// drops it when it completes the cycle — the same circulate-once shape
/// as a BAT pass, so no shared `Arc` catalog is needed across processes.
#[derive(Clone, Debug, PartialEq)]
pub struct CatalogMsg {
    pub origin: NodeId,
    pub schema: String,
    pub table: String,
    pub columns: Vec<CatalogCol>,
}

impl CatalogMsg {
    fn wire_size(&self) -> u64 {
        let names: usize = self.columns.iter().map(|c| c.name.len() + 21).sum();
        (16 + self.schema.len() + self.table.len() + names) as u64
    }
}

/// What a [`MutateMsg`] does at the fragment owner.
#[derive(Clone, Debug, PartialEq)]
pub enum MutOp {
    /// `UPDATE`: write each `(column, value)` assignment into the
    /// matching rows.
    Update(Vec<(String, Val)>),
    /// `DELETE`: remove the matching rows from every column in lockstep.
    Delete,
}

/// A SQL UPDATE/DELETE traveling clockwise toward the fragment owner
/// (§6.4: the owner rewrites its authoritative copy and bumps the
/// version). The mutation is *logical* — assignments plus WHERE
/// predicates — because row positions computed anywhere else could be
/// stale by the time the message arrives. `(epoch, id)` identifies the
/// statement: `id` counts statements within one origin incarnation and
/// `epoch` is the origin's per-boot nonce, so ids reused after an
/// origin restart can never alias a prior incarnation's statements in
/// the owner's dedup cache. The owner answers with a [`MutAckMsg`]
/// carrying both, so the origin can report a correct affected-row count
/// synchronously. If the message returns to its origin the owner is
/// gone and the origin fails the statement.
#[derive(Clone, Debug, PartialEq)]
pub struct MutateMsg {
    pub origin: NodeId,
    /// The origin's per-boot epoch nonce (statement-id namespace).
    pub epoch: u64,
    pub id: u64,
    pub schema: String,
    pub table: String,
    pub op: MutOp,
    pub preds: Vec<RowPredicate>,
}

/// The owner's answer to any routed statement ([`MutateMsg`],
/// [`AppendMsg`], [`ReadmitMsg`]), traveling clockwise until it reaches
/// `target` (the statement's origin). Echoes the statement's
/// `(epoch, id)`: an ack from before the origin's restart must not
/// resolve a statement of its new incarnation that reuses the id.
#[derive(Clone, Debug, PartialEq)]
pub struct MutAckMsg {
    pub target: NodeId,
    /// The acknowledged statement's origin-boot epoch, echoed back.
    pub epoch: u64,
    pub id: u64,
    /// Affected-row count (for a readmit: `1` if this delivery
    /// re-admitted the fragment, `0` if it was already in or entering
    /// the ring), or the owner-side failure.
    pub result: Result<u64, String>,
}

/// A row append traveling clockwise toward the fragment owner (§6.4:
/// "when a node N processes an update request, for a BAT f…"). Each
/// part pairs a fragment id with a serialized BAT of its new tail
/// values; all parts of one message share an owner, which applies the
/// whole batch in a single event so multi-column INSERTs stay atomic
/// even when appends from several nodes interleave on the ring.
/// `(epoch, id)` is origin-local (the same statement-id space as
/// [`MutateMsg`]): the owner answers with a [`MutAckMsg`] carrying
/// both, so the origin can retry a lost append and the owner can
/// suppress a re-delivered one. If the message returns to its origin
/// the owner is gone and the origin fails the statement.
#[derive(Clone, Debug, PartialEq)]
pub struct AppendMsg {
    pub origin: NodeId,
    /// The origin's per-boot epoch nonce (statement-id namespace).
    pub epoch: u64,
    pub id: u64,
    pub parts: Vec<(BatId, Bytes)>,
}

/// Hot-set management notice (§4.4): the owner took `bat` off the ring
/// (its LOI fell below LOIT) and spilled the payload to its local disk.
/// Travels clockwise, circulate-once like [`CatalogMsg`]: every node
/// notes "this fragment is at rest at its owner" so a later query knows
/// a plain request will not be answered by a passing copy and routes a
/// [`ReadmitMsg`] instead. `version` is the fragment's version at spill
/// time — versions are preserved across spill, so a reader holding the
/// Evict notice can still trust cached stale copies by the usual §6.4
/// rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictMsg {
    pub owner: NodeId,
    pub bat: BatId,
    pub version: u32,
    pub size: u64,
}

/// A re-admission demand traveling clockwise toward the owner of a
/// spilled fragment: "reload `bat` from your disk and re-inject it into
/// circulation". `(epoch, id)` is origin-local (the same statement-id
/// space as [`MutateMsg`]), so a retried Readmit deduplicates at the
/// owner instead of double-injecting, and the owner answers with a
/// [`MutAckMsg`] carrying both. If the message returns to its origin
/// the owner is gone and the origin fails the pending operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadmitMsg {
    pub origin: NodeId,
    /// The origin's per-boot epoch nonce (statement-id namespace).
    pub epoch: u64,
    pub id: u64,
    pub bat: BatId,
}

/// Everything that flows between neighbors.
#[derive(Clone, Debug, PartialEq)]
pub enum DcMsg {
    /// Clockwise data flow. `payload` carries the serialized BAT in the
    /// live engine; the simulator ships headers only.
    Bat { header: BatHeader, payload: Option<Bytes> },
    /// Anti-clockwise request flow.
    Request(ReqMsg),
    /// Clockwise catalog replication.
    Catalog(CatalogMsg),
    /// Clockwise row append routed to the fragment owner.
    Append(AppendMsg),
    /// Clockwise logical UPDATE/DELETE routed to the fragment owner.
    Mutate(MutateMsg),
    /// Clockwise acknowledgement of a routed `Append`, `Mutate` or
    /// `Readmit`, routed back to the origin.
    MutAck(MutAckMsg),
    /// Clockwise circulate-once notice that the owner spilled a fragment.
    Evict(EvictMsg),
    /// Clockwise re-admission demand routed to a spilled fragment's owner.
    Readmit(ReadmitMsg),
}

fn val_wire_size(v: &Val) -> u64 {
    match v {
        Val::Str(s) => 3 + s.len() as u64,
        _ => 9,
    }
}

fn pred_wire_size(p: &RowPredicate) -> u64 {
    3 + p.column().len() as u64
        + match p {
            RowPredicate::Cmp { value, .. } => 3 + val_wire_size(value),
            RowPredicate::Between { lo, hi, .. } => val_wire_size(lo) + val_wire_size(hi),
            RowPredicate::InList { values, .. } => {
                2 + values.iter().map(val_wire_size).sum::<u64>()
            }
        }
}

impl DcMsg {
    pub fn wire_size(&self) -> u64 {
        match self {
            DcMsg::Bat { header, .. } => header.wire_size(),
            DcMsg::Request(_) => REQUEST_WIRE_BYTES,
            DcMsg::Catalog(c) => c.wire_size(),
            DcMsg::Append(a) => {
                32 + a.parts.iter().map(|(_, rows)| 12 + rows.len() as u64).sum::<u64>()
            }
            DcMsg::Mutate(m) => {
                let assigns = match &m.op {
                    MutOp::Update(a) => {
                        a.iter().map(|(n, v)| 2 + n.len() as u64 + val_wire_size(v)).sum()
                    }
                    MutOp::Delete => 0,
                };
                24 + m.schema.len() as u64
                    + m.table.len() as u64
                    + assigns
                    + m.preds.iter().map(pred_wire_size).sum::<u64>()
            }
            DcMsg::MutAck(a) => 32 + a.result.as_ref().err().map(|e| e.len() as u64).unwrap_or(0),
            DcMsg::Evict(_) => 19,
            DcMsg::Readmit(_) => 23,
        }
    }
}

const TAG_BAT: u8 = 1;
const TAG_REQ: u8 = 2;
const TAG_CATALOG: u8 = 3;
const TAG_APPEND: u8 = 4;
const TAG_MUTATE: u8 = 5;
const TAG_MUTACK: u8 = 6;
const TAG_EVICT: u8 = 7;
const TAG_READMIT: u8 = 8;

const VAL_NIL: u8 = 0;
const VAL_OID: u8 = 1;
const VAL_INT: u8 = 2;
const VAL_LNG: u8 = 3;
const VAL_DBL: u8 = 4;
const VAL_STR: u8 = 5;
const VAL_BOOL: u8 = 6;
const VAL_DATE: u8 = 7;

const PRED_CMP: u8 = 1;
const PRED_BETWEEN: u8 = 2;
const PRED_IN: u8 = 3;

fn put_str(b: &mut BytesMut, s: &str) {
    // Identifiers longer than a u16 length cannot be framed. Truncate at
    // a char boundary rather than writing a corrupt frame that would
    // kill the peer's reader loop (the SQL layer rejects absurd
    // identifiers long before this point).
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    b.put_u16_le(len as u16);
    b.put_slice(&s.as_bytes()[..len]);
}

fn get_str(buf: &mut &[u8]) -> Result<String, String> {
    if buf.remaining() < 2 {
        return Err("truncated string length".into());
    }
    let len = buf.get_u16_le() as usize;
    if buf.remaining() < len {
        return Err(format!("truncated string: want {len}, have {}", buf.remaining()));
    }
    let s = std::str::from_utf8(&buf[..len]).map_err(|e| format!("bad utf8: {e}"))?.to_string();
    buf.advance(len);
    Ok(s)
}

fn put_val(b: &mut BytesMut, v: &Val) {
    match v {
        Val::Nil => b.put_u8(VAL_NIL),
        Val::Oid(x) => {
            b.put_u8(VAL_OID);
            b.put_u64_le(*x);
        }
        Val::Int(x) => {
            b.put_u8(VAL_INT);
            b.put_u32_le(*x as u32);
        }
        Val::Lng(x) => {
            b.put_u8(VAL_LNG);
            b.put_u64_le(*x as u64);
        }
        Val::Dbl(x) => {
            b.put_u8(VAL_DBL);
            b.put_f64_le(*x);
        }
        Val::Str(s) => {
            b.put_u8(VAL_STR);
            put_str(b, s);
        }
        Val::Bool(x) => {
            b.put_u8(VAL_BOOL);
            b.put_u8(*x as u8);
        }
        Val::Date(x) => {
            b.put_u8(VAL_DATE);
            b.put_u32_le(*x as u32);
        }
    }
}

fn get_val(buf: &mut &[u8]) -> Result<Val, String> {
    if buf.is_empty() {
        return Err("truncated value tag".into());
    }
    let tag = buf.get_u8();
    let need = |buf: &&[u8], n: usize| {
        if buf.remaining() < n {
            Err(format!("truncated value: want {n}, have {}", buf.remaining()))
        } else {
            Ok(())
        }
    };
    Ok(match tag {
        VAL_NIL => Val::Nil,
        VAL_OID => {
            need(buf, 8)?;
            Val::Oid(buf.get_u64_le())
        }
        VAL_INT => {
            need(buf, 4)?;
            Val::Int(buf.get_u32_le() as i32)
        }
        VAL_LNG => {
            need(buf, 8)?;
            Val::Lng(buf.get_u64_le() as i64)
        }
        VAL_DBL => {
            need(buf, 8)?;
            Val::Dbl(buf.get_f64_le())
        }
        VAL_STR => Val::Str(get_str(buf)?),
        VAL_BOOL => {
            need(buf, 1)?;
            Val::Bool(buf.get_u8() != 0)
        }
        VAL_DATE => {
            need(buf, 4)?;
            Val::Date(buf.get_u32_le() as i32)
        }
        other => return Err(format!("unknown value tag {other}")),
    })
}

fn put_pred(b: &mut BytesMut, p: &RowPredicate) {
    match p {
        RowPredicate::Cmp { column, op, value } => {
            b.put_u8(PRED_CMP);
            put_str(b, column);
            put_str(b, op.symbol());
            put_val(b, value);
        }
        RowPredicate::Between { column, lo, hi } => {
            b.put_u8(PRED_BETWEEN);
            put_str(b, column);
            put_val(b, lo);
            put_val(b, hi);
        }
        RowPredicate::InList { column, values } => {
            b.put_u8(PRED_IN);
            put_str(b, column);
            let n = values.len().min(u16::MAX as usize);
            b.put_u16_le(n as u16);
            for v in values.iter().take(n) {
                put_val(b, v);
            }
        }
    }
}

fn get_pred(buf: &mut &[u8]) -> Result<RowPredicate, String> {
    if buf.is_empty() {
        return Err("truncated predicate tag".into());
    }
    match buf.get_u8() {
        PRED_CMP => {
            let column = get_str(buf)?;
            let sym = get_str(buf)?;
            let op = CmpOp::from_symbol(&sym).ok_or_else(|| format!("bad op '{sym}'"))?;
            Ok(RowPredicate::Cmp { column, op, value: get_val(buf)? })
        }
        PRED_BETWEEN => {
            let column = get_str(buf)?;
            let lo = get_val(buf)?;
            let hi = get_val(buf)?;
            Ok(RowPredicate::Between { column, lo, hi })
        }
        PRED_IN => {
            let column = get_str(buf)?;
            if buf.remaining() < 2 {
                return Err("truncated in-list count".into());
            }
            let n = buf.get_u16_le() as usize;
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(get_val(buf)?);
            }
            Ok(RowPredicate::InList { column, values })
        }
        other => Err(format!("unknown predicate tag {other}")),
    }
}

/// Serialize a message for the TCP transport.
pub fn encode(msg: &DcMsg) -> Bytes {
    match msg {
        DcMsg::Bat { header, payload } => {
            let plen = payload.as_ref().map(|p| p.len()).unwrap_or(0);
            let mut b = BytesMut::with_capacity(48 + plen);
            b.put_u8(TAG_BAT);
            b.put_u16_le(header.owner.0);
            b.put_u32_le(header.bat.0);
            b.put_u64_le(header.size);
            b.put_f64_le(header.loi);
            b.put_u32_le(header.copies);
            b.put_u32_le(header.hops);
            b.put_u32_le(header.cycles);
            b.put_u32_le(header.version);
            b.put_u8(header.updating as u8);
            b.put_u64_le(plen as u64);
            if let Some(p) = payload {
                b.put_slice(p);
            }
            b.freeze()
        }
        DcMsg::Request(r) => {
            let mut b = BytesMut::with_capacity(8);
            b.put_u8(TAG_REQ);
            b.put_u16_le(r.origin.0);
            b.put_u32_le(r.bat.0);
            b.freeze()
        }
        DcMsg::Catalog(c) => {
            let mut b = BytesMut::with_capacity(c.wire_size() as usize + 16);
            b.put_u8(TAG_CATALOG);
            b.put_u16_le(c.origin.0);
            put_str(&mut b, &c.schema);
            put_str(&mut b, &c.table);
            let ncols = c.columns.len().min(u16::MAX as usize);
            b.put_u16_le(ncols as u16);
            for col in c.columns.iter().take(ncols) {
                put_str(&mut b, &col.name);
                b.put_u8(col.ty.tag());
                b.put_u32_le(col.bat.0);
                b.put_u64_le(col.size);
                b.put_u16_le(col.owner.0);
                b.put_u32_le(col.version);
            }
            b.freeze()
        }
        DcMsg::Append(a) => {
            let mut b = BytesMut::with_capacity(msg.wire_size() as usize + 8);
            b.put_u8(TAG_APPEND);
            b.put_u16_le(a.origin.0);
            b.put_u64_le(a.epoch);
            b.put_u64_le(a.id);
            let nparts = a.parts.len().min(u16::MAX as usize);
            b.put_u16_le(nparts as u16);
            for (bat, rows) in a.parts.iter().take(nparts) {
                b.put_u32_le(bat.0);
                b.put_u64_le(rows.len() as u64);
                b.put_slice(rows);
            }
            b.freeze()
        }
        DcMsg::Mutate(m) => {
            let mut b = BytesMut::with_capacity(msg.wire_size() as usize + 16);
            b.put_u8(TAG_MUTATE);
            b.put_u16_le(m.origin.0);
            b.put_u64_le(m.epoch);
            b.put_u64_le(m.id);
            put_str(&mut b, &m.schema);
            put_str(&mut b, &m.table);
            match &m.op {
                MutOp::Update(assigns) => {
                    b.put_u8(1);
                    let n = assigns.len().min(u16::MAX as usize);
                    b.put_u16_le(n as u16);
                    for (name, v) in assigns.iter().take(n) {
                        put_str(&mut b, name);
                        put_val(&mut b, v);
                    }
                }
                MutOp::Delete => b.put_u8(2),
            }
            let n = m.preds.len().min(u16::MAX as usize);
            b.put_u16_le(n as u16);
            for p in m.preds.iter().take(n) {
                put_pred(&mut b, p);
            }
            b.freeze()
        }
        DcMsg::MutAck(a) => {
            let mut b = BytesMut::with_capacity(msg.wire_size() as usize + 8);
            b.put_u8(TAG_MUTACK);
            b.put_u16_le(a.target.0);
            b.put_u64_le(a.epoch);
            b.put_u64_le(a.id);
            match &a.result {
                Ok(n) => {
                    b.put_u8(1);
                    b.put_u64_le(*n);
                }
                Err(e) => {
                    b.put_u8(0);
                    put_str(&mut b, e);
                }
            }
            b.freeze()
        }
        DcMsg::Evict(e) => {
            let mut b = BytesMut::with_capacity(24);
            b.put_u8(TAG_EVICT);
            b.put_u16_le(e.owner.0);
            b.put_u32_le(e.bat.0);
            b.put_u32_le(e.version);
            b.put_u64_le(e.size);
            b.freeze()
        }
        DcMsg::Readmit(r) => {
            let mut b = BytesMut::with_capacity(24);
            b.put_u8(TAG_READMIT);
            b.put_u16_le(r.origin.0);
            b.put_u64_le(r.epoch);
            b.put_u64_le(r.id);
            b.put_u32_le(r.bat.0);
            b.freeze()
        }
    }
}

/// Deserialize a message; rejects truncated or foreign frames.
pub fn decode(mut buf: &[u8]) -> Result<DcMsg, String> {
    if buf.is_empty() {
        return Err("empty frame".into());
    }
    let tag = buf.get_u8();
    match tag {
        TAG_BAT => {
            // 39 header bytes + the 8-byte payload length that follows.
            if buf.remaining() < 47 {
                return Err("truncated BAT header".into());
            }
            let header = BatHeader {
                owner: NodeId(buf.get_u16_le()),
                bat: BatId(buf.get_u32_le()),
                size: buf.get_u64_le(),
                loi: buf.get_f64_le(),
                copies: buf.get_u32_le(),
                hops: buf.get_u32_le(),
                cycles: buf.get_u32_le(),
                version: buf.get_u32_le(),
                updating: buf.get_u8() != 0,
            };
            let plen = buf.get_u64_le() as usize;
            if buf.remaining() < plen {
                return Err(format!(
                    "truncated BAT payload: want {plen}, have {}",
                    buf.remaining()
                ));
            }
            let payload = if plen == 0 { None } else { Some(Bytes::copy_from_slice(&buf[..plen])) };
            Ok(DcMsg::Bat { header, payload })
        }
        TAG_REQ => {
            if buf.remaining() < 6 {
                return Err("truncated request".into());
            }
            Ok(DcMsg::Request(ReqMsg {
                origin: NodeId(buf.get_u16_le()),
                bat: BatId(buf.get_u32_le()),
            }))
        }
        TAG_CATALOG => {
            if buf.remaining() < 2 {
                return Err("truncated catalog origin".into());
            }
            let origin = NodeId(buf.get_u16_le());
            let schema = get_str(&mut buf)?;
            let table = get_str(&mut buf)?;
            if buf.remaining() < 2 {
                return Err("truncated catalog column count".into());
            }
            let n = buf.get_u16_le() as usize;
            let mut columns = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = get_str(&mut buf)?;
                if buf.remaining() < 19 {
                    return Err("truncated catalog column".into());
                }
                let ty = ColType::from_tag(buf.get_u8())
                    .ok_or_else(|| "unknown column type tag".to_string())?;
                columns.push(CatalogCol {
                    name,
                    ty,
                    bat: BatId(buf.get_u32_le()),
                    size: buf.get_u64_le(),
                    owner: NodeId(buf.get_u16_le()),
                    version: buf.get_u32_le(),
                });
            }
            Ok(DcMsg::Catalog(CatalogMsg { origin, schema, table, columns }))
        }
        TAG_APPEND => {
            if buf.remaining() < 20 {
                return Err("truncated append header".into());
            }
            let origin = NodeId(buf.get_u16_le());
            let epoch = buf.get_u64_le();
            let id = buf.get_u64_le();
            let nparts = buf.get_u16_le() as usize;
            let mut parts = Vec::with_capacity(nparts.min(1024));
            for _ in 0..nparts {
                if buf.remaining() < 12 {
                    return Err("truncated append part header".into());
                }
                let bat = BatId(buf.get_u32_le());
                let len = buf.get_u64_le() as usize;
                if buf.remaining() < len {
                    return Err(format!(
                        "truncated append rows: want {len}, have {}",
                        buf.remaining()
                    ));
                }
                parts.push((bat, Bytes::copy_from_slice(&buf[..len])));
                buf.advance(len);
            }
            Ok(DcMsg::Append(AppendMsg { origin, epoch, id, parts }))
        }
        TAG_MUTATE => {
            if buf.remaining() < 18 {
                return Err("truncated mutate header".into());
            }
            let origin = NodeId(buf.get_u16_le());
            let epoch = buf.get_u64_le();
            let id = buf.get_u64_le();
            let schema = get_str(&mut buf)?;
            let table = get_str(&mut buf)?;
            if buf.is_empty() {
                return Err("truncated mutate op".into());
            }
            let op = match buf.get_u8() {
                1 => {
                    if buf.remaining() < 2 {
                        return Err("truncated assignment count".into());
                    }
                    let n = buf.get_u16_le() as usize;
                    let mut assigns = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        let name = get_str(&mut buf)?;
                        assigns.push((name, get_val(&mut buf)?));
                    }
                    MutOp::Update(assigns)
                }
                2 => MutOp::Delete,
                other => return Err(format!("unknown mutation op tag {other}")),
            };
            if buf.remaining() < 2 {
                return Err("truncated predicate count".into());
            }
            let n = buf.get_u16_le() as usize;
            let mut preds = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                preds.push(get_pred(&mut buf)?);
            }
            Ok(DcMsg::Mutate(MutateMsg { origin, epoch, id, schema, table, op, preds }))
        }
        TAG_MUTACK => {
            if buf.remaining() < 19 {
                return Err("truncated mutation ack".into());
            }
            let target = NodeId(buf.get_u16_le());
            let epoch = buf.get_u64_le();
            let id = buf.get_u64_le();
            let result = match buf.get_u8() {
                1 => {
                    if buf.remaining() < 8 {
                        return Err("truncated ack count".into());
                    }
                    Ok(buf.get_u64_le())
                }
                _ => Err(get_str(&mut buf)?),
            };
            Ok(DcMsg::MutAck(MutAckMsg { target, epoch, id, result }))
        }
        TAG_EVICT => {
            if buf.remaining() < 18 {
                return Err("truncated evict notice".into());
            }
            Ok(DcMsg::Evict(EvictMsg {
                owner: NodeId(buf.get_u16_le()),
                bat: BatId(buf.get_u32_le()),
                version: buf.get_u32_le(),
                size: buf.get_u64_le(),
            }))
        }
        TAG_READMIT => {
            if buf.remaining() < 22 {
                return Err("truncated readmit demand".into());
            }
            Ok(DcMsg::Readmit(ReadmitMsg {
                origin: NodeId(buf.get_u16_le()),
                epoch: buf.get_u64_le(),
                id: buf.get_u64_le(),
                bat: BatId(buf.get_u32_le()),
            }))
        }
        other => Err(format!("unknown message tag {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> BatHeader {
        BatHeader {
            owner: NodeId(3),
            bat: BatId(500),
            size: 5 * 1024 * 1024,
            loi: 0.75,
            copies: 4,
            hops: 7,
            cycles: 12,
            version: 2,
            updating: true,
        }
    }

    #[test]
    fn bat_round_trip_no_payload() {
        let m = DcMsg::Bat { header: hdr(), payload: None };
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn bat_round_trip_with_payload() {
        let m = DcMsg::Bat { header: hdr(), payload: Some(Bytes::from_static(b"hello-bat")) };
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn request_round_trip() {
        let m = DcMsg::Request(ReqMsg { origin: NodeId(9), bat: BatId(123) });
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn truncation_rejected() {
        let enc = encode(&DcMsg::Bat { header: hdr(), payload: Some(Bytes::from_static(b"xyz")) });
        for cut in [0, 1, 10, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(decode(&[77, 0, 0]).is_err());
    }

    #[test]
    fn fresh_header_defaults() {
        let h = BatHeader::fresh(NodeId(1), BatId(2), 1000);
        assert_eq!(h.loi, 0.0);
        assert_eq!((h.copies, h.hops, h.cycles), (0, 0, 0));
        assert!(!h.updating);
        assert_eq!(h.wire_size(), HEADER_WIRE_BYTES + 1000);
    }

    fn catalog_msg() -> DcMsg {
        DcMsg::Catalog(CatalogMsg {
            origin: NodeId(2),
            schema: "sys".into(),
            table: "sales".into(),
            columns: vec![
                CatalogCol {
                    name: "region".into(),
                    ty: ColType::Str,
                    bat: BatId(11),
                    size: 4096,
                    owner: NodeId(0),
                    version: 3,
                },
                CatalogCol {
                    name: "amount".into(),
                    ty: ColType::Int,
                    bat: BatId(12),
                    size: 2048,
                    owner: NodeId(1),
                    version: 0,
                },
            ],
        })
    }

    #[test]
    fn catalog_round_trip() {
        let m = catalog_msg();
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn catalog_truncation_rejected() {
        let enc = encode(&catalog_msg());
        for cut in [1, 3, 5, 9, 12, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn catalog_bad_type_tag_rejected() {
        let mut enc = encode(&catalog_msg()).to_vec();
        // The type tag follows origin(2) + "sys"(2+3) + "sales"(2+5) +
        // count(2) + "region"(2+6) after the message tag byte.
        let pos = 1 + 2 + 5 + 7 + 2 + 8;
        assert_eq!(
            ColType::from_tag(enc[pos]),
            Some(ColType::Str),
            "offset arithmetic must hit the tag"
        );
        enc[pos] = 200;
        assert!(decode(&enc).unwrap_err().contains("type tag"));
    }

    #[test]
    fn append_round_trip_and_truncation() {
        let m = DcMsg::Append(AppendMsg {
            origin: NodeId(3),
            epoch: 0xfeed_beef,
            id: 42,
            parts: vec![
                (BatId(9), Bytes::from_static(b"col-k-batch")),
                (BatId(10), Bytes::from_static(b"col-v")),
            ],
        });
        let enc = encode(&m);
        assert_eq!(decode(&enc).unwrap(), m);
        for cut in [2, 5, 10, 15, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
        assert!(m.wire_size() >= 32 + 11 + 5);
    }

    fn mutate_msg() -> DcMsg {
        DcMsg::Mutate(MutateMsg {
            origin: NodeId(2),
            epoch: 31_337,
            id: 77,
            schema: "sys".into(),
            table: "acct".into(),
            op: MutOp::Update(vec![
                ("bal".into(), Val::Lng(99)),
                ("tag".into(), Val::Str("hot".into())),
            ]),
            preds: vec![
                RowPredicate::Cmp { column: "id".into(), op: CmpOp::Ge, value: Val::Int(2) },
                RowPredicate::Between {
                    column: "bal".into(),
                    lo: Val::Dbl(0.5),
                    hi: Val::Dbl(9.5),
                },
                RowPredicate::InList {
                    column: "tag".into(),
                    values: vec![Val::Str("a".into()), Val::Bool(true), Val::Date(123)],
                },
            ],
        })
    }

    #[test]
    fn mutate_round_trip_and_truncation() {
        let m = mutate_msg();
        let enc = encode(&m);
        assert_eq!(decode(&enc).unwrap(), m);
        for cut in [1, 5, 12, 20, 30, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
        // DELETE with no predicates (the smallest mutation).
        let d = DcMsg::Mutate(MutateMsg {
            origin: NodeId(0),
            epoch: 1,
            id: 1,
            schema: "sys".into(),
            table: "t".into(),
            op: MutOp::Delete,
            preds: vec![],
        });
        assert_eq!(decode(&encode(&d)).unwrap(), d);
        assert!(m.wire_size() > d.wire_size());
    }

    #[test]
    fn mut_ack_round_trip_both_outcomes() {
        let ok = DcMsg::MutAck(MutAckMsg { target: NodeId(1), epoch: 5, id: 9, result: Ok(4) });
        assert_eq!(decode(&encode(&ok)).unwrap(), ok);
        let err = DcMsg::MutAck(MutAckMsg {
            target: NodeId(3),
            epoch: 6,
            id: 10,
            result: Err("no owner found".into()),
        });
        let enc = encode(&err);
        assert_eq!(decode(&enc).unwrap(), err);
        for cut in [1, 4, 11, 18, enc.len() - 1] {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn catalog_carries_versions() {
        let m = catalog_msg();
        let DcMsg::Catalog(c) = decode(&encode(&m)).unwrap() else { panic!() };
        assert_eq!(c.columns[0].version, 3);
        assert_eq!(c.columns[1].version, 0);
    }

    #[test]
    fn evict_round_trip_and_truncation() {
        let m = DcMsg::Evict(EvictMsg {
            owner: NodeId(2),
            bat: BatId(77),
            version: 5,
            size: 3 * 1024 * 1024,
        });
        let enc = encode(&m);
        assert_eq!(decode(&enc).unwrap(), m);
        assert_eq!(enc.len() as u64, m.wire_size());
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn readmit_round_trip_and_truncation() {
        let m = DcMsg::Readmit(ReadmitMsg {
            origin: NodeId(1),
            epoch: 0xdead_beef_cafe,
            id: 31,
            bat: BatId(9000),
        });
        let enc = encode(&m);
        assert_eq!(decode(&enc).unwrap(), m);
        assert_eq!(enc.len() as u64, m.wire_size());
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn retired_readmit_ack_tag_is_unknown() {
        // Readmits are acknowledged with MutAck; 9 names no message kind.
        let ack = DcMsg::MutAck(MutAckMsg { target: NodeId(1), epoch: 5, id: 9, result: Ok(1) });
        let mut frame = encode(&ack).to_vec();
        frame[0] = 9;
        assert_eq!(decode(&frame).unwrap_err(), "unknown message tag 9");
    }

    #[test]
    fn request_wire_size_small() {
        let m = DcMsg::Request(ReqMsg { origin: NodeId(0), bat: BatId(0) });
        assert_eq!(m.wire_size(), REQUEST_WIRE_BYTES);
        assert!(m.wire_size() < 100, "requests must be cheap upstream traffic");
    }
}

//! Live hot-set management (§4.4/§5): ring residency by interest.
//!
//! The protocol core ([`crate::proto`], Fig. 5) decides *when* a
//! fragment leaves the hot set; this module supplies the engine-side
//! machinery that makes the decision real on a durable node:
//!
//! * [`accounting`] — byte-accurate residency/spill bookkeeping and
//!   coldest-first victim selection against a per-node memory budget,
//! * [`evict`] — the two-phase "checkpoint, then drop" spill queue
//!   (the checkpoint `bats/<id>.bat` format *is* the at-rest format;
//!   eviction never re-serializes).
//!
//! On-demand re-admission needs no module of its own: a `Readmit` is a
//! routed statement like any `Append` or `Mutate`, tracked with them in
//! the engine's pending-statement table.

pub mod accounting;
pub mod evict;

pub use accounting::{spill_victims, HotsetAccounting, SpilledFrag};
pub use evict::{PendingSpill, SpillQueue};

use crate::ids::BatId;

/// One owned fragment in the `dc.hotset` view / `.hotset` meta-command.
#[derive(Clone, Debug)]
pub struct HotsetRow {
    pub bat: BatId,
    /// `schema.table` the fragment belongs to (`?` if not yet published).
    pub table: String,
    /// `in-ring`, `loading`, `pending`, `on-disk`, or `spilled`.
    pub state: &'static str,
    /// Most recent Eq. 1 score the owner computed (0 until a pass).
    pub loi: f64,
    pub version: u32,
    pub size: u64,
}

/// Per-node hot-set snapshot behind [`HotsetRow`].
#[derive(Clone, Debug, Default)]
pub struct HotsetSnapshot {
    pub rows: Vec<HotsetRow>,
    /// Current LOIT threshold and its ladder index.
    pub loit: f64,
    pub loit_level: usize,
    pub resident_bytes: u64,
    pub spilled_bytes: u64,
    pub mem_budget: Option<u64>,
}

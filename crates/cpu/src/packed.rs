//! The packed, pre-analyzed trace tier.
//!
//! [`crate::Trace`] is an enum-per-event recording: flexible, but replay
//! pays enum dispatch and pointer-chasing for every event. This module
//! splits trace *generation* from *replay* with a struct-of-arrays
//! representation, [`PackedTrace`]:
//!
//! * one element per **memory operation** (load/store) across parallel
//!   hot arrays — address, reference id, hints, flags, dependency, and
//!   the coalesced compute batch preceding the op — so the replay loop
//!   streams dense arrays with no per-event enum dispatch;
//! * a sorted **side table** ([`PseudoEvent`]) for the rare pseudo
//!   events (`SetLoopBound`, `IndirectPrefetch`, and any compute batch
//!   that cannot fold into a memop's `pre_compute` slot), keyed by the
//!   memop index they precede;
//! * a cold array (access sizes) kept only for lossless round-trips —
//!   the timing model is block-granular and never reads sizes;
//! * a versioned, checksummed binary file format ([`PackedTrace::to_bytes`]
//!   / [`PackedTrace::from_bytes`]) with delta-encoded addresses, so
//!   packed traces persist across processes, guarded by the word-wise
//!   [`checksum`] the trace cache shares;
//! * a pre-analysis pass ([`PackedTrace::pre_analyze`]) computing
//!   per-access cache geometry metadata (set index, tag, region id) and
//!   resolved hint bits ahead of replay.
//!
//! A packed trace replays in place: [`PackedTrace::stream`] is an
//! [`EventStream`] that yields the original events straight from the
//! arrays, so `grp-core`'s one replay loop consumes it like any other
//! stream and results are bit-identical to replaying the materialized
//! trace. The ordering contract is spelled out on [`PackedTrace::pack`]
//! and implemented once, by [`PackedStream`].

use std::fmt;

use grp_mem::{Addr, CacheConfig};

use crate::hints::HintSet;
use crate::trace::{EventStream, RefId, Trace, TraceEvent};

/// `dep` sentinel: the load's address depends on no earlier load.
pub const NO_DEP: u32 = u32::MAX;

/// Per-op flag bit: the op is a store (else a load).
pub const FLAG_STORE: u8 = 1 << 0;
/// Per-op flag bit: the op is a load with an address dependency.
pub const FLAG_DEP: u8 = 1 << 1;

/// File magic for the packed trace format.
pub const MAGIC: [u8; 4] = *b"GRPT";
/// Current packed-file format version (2: the payload is guarded by
/// [`checksum`]; version 1 used a byte-serial FNV-1a).
pub const FORMAT_VERSION: u32 = 2;

/// Header size in bytes: magic, version, five `u64` counters, payload
/// length, and the payload checksum.
const HEADER_BYTES: usize = 4 + 4 + 8 * 7;

/// A rare event carried in the side table, firing immediately before the
/// memop at index [`PseudoEvent::at_op`] (== `n_ops` for events after the
/// last memop).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PseudoEvent {
    /// Index of the memop this event precedes (`n_ops` = trace tail).
    pub at_op: u32,
    /// What fires there.
    pub kind: PseudoKind,
}

/// The side-table event kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PseudoKind {
    /// A compute batch that could not fold into the following memop's
    /// `pre_compute` slot (another pseudo event or a second batch sits
    /// between it and the memop).
    Compute(u32),
    /// `SetLoopBound` pseudo-instruction (§3.3.2).
    SetLoopBound(u32),
    /// `IndirectPrefetch` pseudo-instruction (§3.3.3).
    IndirectPrefetch {
        /// `&a[0]` — base of the indexed array.
        base: Addr,
        /// `sizeof(a[0])`.
        elem_size: u32,
        /// `&b[i]` — address of the current index element.
        index_addr: Addr,
        /// Static site of the prefetch instruction.
        ref_id: RefId,
    },
}

/// Why a [`Trace`] cannot be packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackError {
    /// The trace's instruction counter disagrees with the sum over its
    /// events — an unfinished trace (pending compute tail not flushed).
    UnfinishedTrace,
    /// More memops than the `u32` op index can address.
    TooManyOps,
    /// More loads than the `u32` dependency index can address.
    TooManyLoads,
    /// A load names a dependency that is not an earlier load.
    BadDep,
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::UnfinishedTrace => {
                write!(f, "trace not finished: instruction counter desyncs from events")
            }
            PackError::TooManyOps => write!(f, "more than u32::MAX memory operations"),
            PackError::TooManyLoads => write!(f, "more than u32::MAX loads"),
            PackError::BadDep => write!(f, "load depends on a non-earlier load"),
        }
    }
}

impl std::error::Error for PackError {}

/// Why a packed-trace file failed to decode. Every failure mode is a
/// named variant — corrupt input can never panic or yield a silently
/// partial trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedFileError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload does.
    Truncated,
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// Bytes remain after the declared payload.
    TrailingBytes,
    /// The payload decoded but violates a structural invariant.
    Malformed(&'static str),
}

impl fmt::Display for PackedFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedFileError::BadMagic => write!(f, "not a packed trace (bad magic)"),
            PackedFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported packed trace version {v}")
            }
            PackedFileError::Truncated => write!(f, "packed trace truncated"),
            PackedFileError::ChecksumMismatch => write!(f, "packed trace checksum mismatch"),
            PackedFileError::TrailingBytes => write!(f, "trailing bytes after packed trace"),
            PackedFileError::Malformed(what) => write!(f, "malformed packed trace: {what}"),
        }
    }
}

impl std::error::Error for PackedFileError {}

/// Packing statistics, for logging and cache-entry validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackStats {
    /// Memory operations in the hot arrays.
    pub memops: u64,
    /// Side-table entries.
    pub pseudo_events: u64,
    /// Memops whose preceding compute batch folded into `pre_compute`.
    pub folded_computes: u64,
}

/// A packed, replay-ready trace. See the module docs for the layout.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedTrace {
    addrs: Vec<u64>,
    ref_ids: Vec<u32>,
    hints: Vec<HintSet>,
    flags: Vec<u8>,
    deps: Vec<u32>,
    pre_compute: Vec<u32>,
    sizes: Vec<u8>,
    pseudos: Vec<PseudoEvent>,
    loads: u64,
    stores: u64,
    instructions: u64,
}

impl PackedTrace {
    /// Packs a finalized trace.
    ///
    /// Ordering contract: for each memop `i`, replay fires (1) the side
    /// table's events with `at_op == i`, in table order, then (2) a
    /// compute batch of `pre_compute[i]` instructions if nonzero, then
    /// (3) the memop itself; after the last memop, the `at_op == n_ops`
    /// tail fires. `pre_compute[i]` holds the gap's final event exactly
    /// when that event is a compute batch, so the reconstructed dispatch
    /// sequence is identical to walking [`Trace::events`].
    pub fn pack(trace: &Trace) -> Result<PackedTrace, PackError> {
        let summed: u64 = trace.events().iter().map(|e| e.instruction_count()).sum();
        if summed != trace.instructions() {
            return Err(PackError::UnfinishedTrace);
        }
        Self::pack_stream(trace.stream())
    }

    /// Packs a finished event stream — e.g. a lowered base trace — under
    /// the same ordering contract as [`PackedTrace::pack`], without the
    /// stream ever being materialized as a [`Trace`].
    pub fn pack_stream<S: EventStream>(mut events: S) -> Result<PackedTrace, PackError> {
        let (loads, stores) = (events.loads(), events.stores());
        let n_ops = loads + stores;
        if n_ops >= u32::MAX as u64 {
            return Err(PackError::TooManyOps);
        }
        if loads >= u32::MAX as u64 {
            return Err(PackError::TooManyLoads);
        }
        let n_ops = n_ops as usize;
        let mut pt = PackedTrace {
            addrs: Vec::with_capacity(n_ops),
            ref_ids: Vec::with_capacity(n_ops),
            hints: Vec::with_capacity(n_ops),
            flags: Vec::with_capacity(n_ops),
            deps: Vec::with_capacity(n_ops),
            pre_compute: Vec::with_capacity(n_ops),
            sizes: Vec::with_capacity(n_ops),
            pseudos: Vec::new(),
            loads,
            stores,
            instructions: 0,
        };
        // Events since the last memop that have not been emitted yet.
        let mut gap: Vec<PseudoKind> = Vec::new();
        let mut load_seq = 0u32;
        let mut bad_dep = false;
        events.for_each_event(|ev| {
            pt.instructions += ev.instruction_count();
            match ev {
                TraceEvent::Compute(n) => gap.push(PseudoKind::Compute(n)),
                TraceEvent::SetLoopBound(b) => gap.push(PseudoKind::SetLoopBound(b)),
                TraceEvent::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ref_id,
                } => gap.push(PseudoKind::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ref_id,
                }),
                TraceEvent::Load {
                    addr,
                    size,
                    ref_id,
                    hints,
                    dep,
                } => {
                    let i = pt.addrs.len() as u32;
                    pt.flush_gap(&mut gap, i, true);
                    let (dep, flag) = match dep {
                        Some(seq) if seq < load_seq as u64 => (seq as u32, FLAG_DEP),
                        Some(_) => {
                            bad_dep = true;
                            (NO_DEP, 0)
                        }
                        None => (NO_DEP, 0),
                    };
                    pt.addrs.push(addr.0);
                    pt.ref_ids.push(ref_id.0);
                    pt.hints.push(hints);
                    pt.flags.push(flag);
                    pt.deps.push(dep);
                    pt.sizes.push(size);
                    load_seq += 1;
                }
                TraceEvent::Store {
                    addr,
                    size,
                    ref_id,
                    hints,
                } => {
                    let i = pt.addrs.len() as u32;
                    pt.flush_gap(&mut gap, i, true);
                    pt.addrs.push(addr.0);
                    pt.ref_ids.push(ref_id.0);
                    pt.hints.push(hints);
                    pt.flags.push(FLAG_STORE);
                    pt.deps.push(NO_DEP);
                    pt.sizes.push(size);
                }
            }
        });
        if bad_dep {
            return Err(PackError::BadDep);
        }
        let tail = pt.addrs.len() as u32;
        pt.flush_gap(&mut gap, tail, false);
        Ok(pt)
    }

    /// Emits the accumulated gap before memop `at`: the last event folds
    /// into `pre_compute` when it is a compute batch *and* a memop
    /// follows; everything else goes to the side table in order.
    fn flush_gap(&mut self, gap: &mut Vec<PseudoKind>, at: u32, memop_follows: bool) {
        let folded = if memop_follows {
            match gap.last() {
                Some(&PseudoKind::Compute(n)) => {
                    gap.pop();
                    n
                }
                _ => 0,
            }
        } else {
            0
        };
        for kind in gap.drain(..) {
            self.pseudos.push(PseudoEvent { at_op: at, kind });
        }
        if memop_follows {
            self.pre_compute.push(folded);
        }
    }

    /// Number of memory operations (hot-array length).
    pub fn n_ops(&self) -> usize {
        self.addrs.len()
    }

    /// Dynamic load count.
    pub fn loads(&self) -> u64 {
        self.loads
    }

    /// Dynamic store count.
    pub fn stores(&self) -> u64 {
        self.stores
    }

    /// Committed instruction count (including pseudo-instructions).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Byte addresses, one per memop.
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// Static reference sites, one per memop.
    pub fn ref_ids(&self) -> &[u32] {
        &self.ref_ids
    }

    /// Compiler hints, one per memop.
    pub fn hints(&self) -> &[HintSet] {
        &self.hints
    }

    /// Per-op flags ([`FLAG_STORE`], [`FLAG_DEP`]).
    pub fn flags(&self) -> &[u8] {
        &self.flags
    }

    /// Address-dependency load sequence numbers ([`NO_DEP`] = none).
    pub fn deps(&self) -> &[u32] {
        &self.deps
    }

    /// Compute batch dispatched immediately before each memop (0 = none).
    pub fn pre_compute(&self) -> &[u32] {
        &self.pre_compute
    }

    /// Access sizes in bytes (cold; replay is block-granular).
    pub fn sizes(&self) -> &[u8] {
        &self.sizes
    }

    /// The side table, sorted by `at_op` (stable within one op).
    pub fn pseudos(&self) -> &[PseudoEvent] {
        &self.pseudos
    }

    /// Total materialized event count this packed trace represents:
    /// every memop, every side-table entry, and every folded compute
    /// batch is one event of the original [`Trace`]. Equal to
    /// `trace.events().len()` for the trace this was packed from — the
    /// harness reports it so packed rows stay comparable to
    /// materialized ones.
    pub fn event_count(&self) -> u64 {
        let s = self.stats();
        s.memops + s.pseudo_events + s.folded_computes
    }

    /// Packing statistics.
    pub fn stats(&self) -> PackStats {
        PackStats {
            memops: self.addrs.len() as u64,
            pseudo_events: self.pseudos.len() as u64,
            folded_computes: self.pre_compute.iter().filter(|&&c| c != 0).count() as u64,
        }
    }

    /// The packed trace as an [`EventStream`]: the original events,
    /// yielded in place from the arrays under the ordering contract of
    /// [`PackedTrace::pack`]. Replaying it is bit-identical to replaying
    /// the trace it was packed from, with nothing materialized.
    pub fn stream(&self) -> PackedStream<'_> {
        PackedStream {
            pt: self,
            next_op: 0,
            next_pseudo: 0,
        }
    }

    /// Reconstructs the materialized trace by collecting
    /// [`PackedTrace::stream`]. Lossless: the event stream, including
    /// compute-batch boundaries, dependency edges, hints, and
    /// pseudo-events, is identical to the packed original's.
    pub fn unpack(&self) -> Trace {
        let mut events = Vec::with_capacity(self.event_count() as usize);
        self.stream().for_each_event(|ev| events.push(ev));
        Trace::from_raw_parts(events, self.loads, self.stores, self.instructions)
    }

    /// Runs the pre-analysis pass against the given cache geometries.
    pub fn pre_analyze(&self, l1: &CacheConfig, l2: &CacheConfig) -> PreAnalysis {
        PreAnalysis::compute(self, l1, l2)
    }

    /// Serializes to the versioned, checksummed binary format (see
    /// DESIGN.md §13 for the layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(self.addrs.len() * 6);
        // Addresses: zigzag-varint cache-block deltas + in-block offset.
        let mut prev_block = 0u64;
        for &a in &self.addrs {
            let block = a >> 6;
            put_varint(&mut payload, zigzag(block.wrapping_sub(prev_block) as i64));
            payload.push((a & 63) as u8);
            prev_block = block;
        }
        for &r in &self.ref_ids {
            put_varint(&mut payload, r as u64);
        }
        for &h in &self.hints {
            payload.extend_from_slice(&h.to_bits().to_le_bytes());
        }
        payload.extend_from_slice(&self.flags);
        // Dependencies: backward distance (current load seq − dep), only
        // for ops with FLAG_DEP.
        let mut seq = 0u64;
        for i in 0..self.addrs.len() {
            if self.flags[i] & FLAG_STORE != 0 {
                continue;
            }
            if self.flags[i] & FLAG_DEP != 0 {
                put_varint(&mut payload, seq - self.deps[i] as u64);
            }
            seq += 1;
        }
        for &c in &self.pre_compute {
            put_varint(&mut payload, c as u64);
        }
        payload.extend_from_slice(&self.sizes);
        let mut prev_at = 0u64;
        for p in &self.pseudos {
            put_varint(&mut payload, p.at_op as u64 - prev_at);
            prev_at = p.at_op as u64;
            match p.kind {
                PseudoKind::Compute(n) => {
                    payload.push(0);
                    put_varint(&mut payload, n as u64);
                }
                PseudoKind::SetLoopBound(b) => {
                    payload.push(1);
                    put_varint(&mut payload, b as u64);
                }
                PseudoKind::IndirectPrefetch {
                    base,
                    elem_size,
                    index_addr,
                    ref_id,
                } => {
                    payload.push(2);
                    put_varint(&mut payload, base.0);
                    put_varint(&mut payload, elem_size as u64);
                    put_varint(&mut payload, index_addr.0);
                    put_varint(&mut payload, ref_id.0 as u64);
                }
            }
        }

        let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.addrs.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.loads.to_le_bytes());
        out.extend_from_slice(&self.stores.to_le_bytes());
        out.extend_from_slice(&self.instructions.to_le_bytes());
        out.extend_from_slice(&(self.pseudos.len() as u64).to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes the binary format. Every corrupt input maps to a named
    /// [`PackedFileError`]; success implies the payload checksum matched
    /// and all structural invariants hold.
    pub fn from_bytes(bytes: &[u8]) -> Result<PackedTrace, PackedFileError> {
        if bytes.len() < 4 {
            return Err(PackedFileError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(PackedFileError::BadMagic);
        }
        if bytes.len() < HEADER_BYTES {
            return Err(PackedFileError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(PackedFileError::UnsupportedVersion(version));
        }
        let word = |i: usize| u64::from_le_bytes(bytes[8 + i * 8..16 + i * 8].try_into().unwrap());
        let n_ops = word(0);
        let loads = word(1);
        let stores = word(2);
        let instructions = word(3);
        let n_pseudos = word(4);
        let payload_len = word(5);
        let want = word(6);
        if loads + stores != n_ops {
            return Err(PackedFileError::Malformed("load/store counts vs ops"));
        }
        if n_ops >= u32::MAX as u64 || loads >= u32::MAX as u64 {
            return Err(PackedFileError::Malformed("op count overflows u32 index"));
        }
        let rest = &bytes[HEADER_BYTES..];
        if (rest.len() as u64) < payload_len {
            return Err(PackedFileError::Truncated);
        }
        if (rest.len() as u64) > payload_len {
            return Err(PackedFileError::TrailingBytes);
        }
        if checksum(rest) != want {
            return Err(PackedFileError::ChecksumMismatch);
        }
        // Guard the allocations below against absurd declared counts: no
        // section packs an element into less than one payload byte.
        if n_ops > payload_len || n_pseudos > payload_len {
            return Err(PackedFileError::Malformed("counts exceed payload size"));
        }
        let n = n_ops as usize;
        let mut cur = Cursor { buf: rest, pos: 0 };
        let mut pt = PackedTrace {
            addrs: Vec::with_capacity(n),
            ref_ids: Vec::with_capacity(n),
            hints: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
            deps: Vec::with_capacity(n),
            pre_compute: Vec::with_capacity(n),
            sizes: Vec::with_capacity(n),
            pseudos: Vec::with_capacity(n_pseudos as usize),
            loads,
            stores,
            instructions,
        };
        let mut prev_block = 0u64;
        for _ in 0..n {
            let delta = unzigzag(cur.varint()?);
            let block = prev_block.wrapping_add(delta as u64);
            let off = cur.byte()?;
            if off >= 64 {
                return Err(PackedFileError::Malformed("block offset out of range"));
            }
            pt.addrs.push((block << 6) | off as u64);
            prev_block = block;
        }
        for _ in 0..n {
            let r = cur.varint()?;
            if r > u32::MAX as u64 {
                return Err(PackedFileError::Malformed("ref id out of range"));
            }
            pt.ref_ids.push(r as u32);
        }
        for _ in 0..n {
            let lo = cur.byte()?;
            let hi = cur.byte()?;
            let h = HintSet::from_bits(u16::from_le_bytes([lo, hi]))
                .ok_or(PackedFileError::Malformed("invalid hint bits"))?;
            pt.hints.push(h);
        }
        let mut seen_loads = 0u64;
        let mut seen_stores = 0u64;
        for _ in 0..n {
            let f = cur.byte()?;
            if f & !(FLAG_STORE | FLAG_DEP) != 0 {
                return Err(PackedFileError::Malformed("unknown op flag"));
            }
            if f & FLAG_STORE != 0 {
                if f & FLAG_DEP != 0 {
                    return Err(PackedFileError::Malformed("store with dependency flag"));
                }
                seen_stores += 1;
            } else {
                seen_loads += 1;
            }
            pt.flags.push(f);
        }
        if seen_loads != loads || seen_stores != stores {
            return Err(PackedFileError::Malformed("flag stream vs header counts"));
        }
        let mut seq = 0u64;
        for i in 0..n {
            if pt.flags[i] & FLAG_STORE != 0 {
                pt.deps.push(NO_DEP);
                continue;
            }
            if pt.flags[i] & FLAG_DEP != 0 {
                let dist = cur.varint()?;
                if dist == 0 || dist > seq {
                    return Err(PackedFileError::Malformed("dependency distance"));
                }
                pt.deps.push((seq - dist) as u32);
            } else {
                pt.deps.push(NO_DEP);
            }
            seq += 1;
        }
        for _ in 0..n {
            let c = cur.varint()?;
            if c > u32::MAX as u64 {
                return Err(PackedFileError::Malformed("compute batch out of range"));
            }
            pt.pre_compute.push(c as u32);
        }
        for _ in 0..n {
            pt.sizes.push(cur.byte()?);
        }
        let mut at = 0u64;
        for _ in 0..n_pseudos {
            at += cur.varint()?;
            if at > n_ops {
                return Err(PackedFileError::Malformed("pseudo event past trace end"));
            }
            let kind = match cur.byte()? {
                0 => {
                    let v = cur.varint()?;
                    if v > u32::MAX as u64 {
                        return Err(PackedFileError::Malformed("compute batch out of range"));
                    }
                    PseudoKind::Compute(v as u32)
                }
                1 => {
                    let v = cur.varint()?;
                    if v > u32::MAX as u64 {
                        return Err(PackedFileError::Malformed("loop bound out of range"));
                    }
                    PseudoKind::SetLoopBound(v as u32)
                }
                2 => {
                    let base = cur.varint()?;
                    let elem_size = cur.varint()?;
                    let index_addr = cur.varint()?;
                    let ref_id = cur.varint()?;
                    if elem_size > u32::MAX as u64 || ref_id > u32::MAX as u64 {
                        return Err(PackedFileError::Malformed("indirect prefetch field"));
                    }
                    PseudoKind::IndirectPrefetch {
                        base: Addr(base),
                        elem_size: elem_size as u32,
                        index_addr: Addr(index_addr),
                        ref_id: RefId(ref_id as u32),
                    }
                }
                _ => return Err(PackedFileError::Malformed("unknown pseudo kind")),
            };
            pt.pseudos.push(PseudoEvent {
                at_op: at as u32,
                kind,
            });
        }
        if cur.pos != rest.len() {
            return Err(PackedFileError::TrailingBytes);
        }
        // Cross-check the instruction counter against the decoded streams
        // — the same sum identity `Trace` maintains.
        let summed: u64 = pt.pre_compute.iter().map(|&c| c as u64).sum::<u64>()
            + pt.addrs.len() as u64
            + pt
                .pseudos
                .iter()
                .map(|p| match p.kind {
                    PseudoKind::Compute(c) => c as u64,
                    _ => 1,
                })
                .sum::<u64>();
        if summed != instructions {
            return Err(PackedFileError::Malformed("instruction counter desync"));
        }
        Ok(pt)
    }
}

/// [`PackedTrace::stream`]: a packed trace's events, yielded in place.
#[derive(Debug, Clone)]
pub struct PackedStream<'a> {
    pt: &'a PackedTrace,
    next_op: usize,
    next_pseudo: usize,
}

impl EventStream for PackedStream<'_> {
    fn loads(&self) -> u64 {
        self.pt.loads
    }

    fn stores(&self) -> u64 {
        self.pt.stores
    }

    #[inline]
    fn for_each_event<F: FnMut(TraceEvent)>(&mut self, mut f: F) {
        let pt = self.pt;
        let n = pt.addrs.len();
        // Equal-length reslices let the loop below index without
        // per-array bounds checks.
        let (addrs, ref_ids, hints) = (&pt.addrs[..n], &pt.ref_ids[..n], &pt.hints[..n]);
        let (flags, deps, pre_compute, sizes) = (
            &pt.flags[..n],
            &pt.deps[..n],
            &pt.pre_compute[..n],
            &pt.sizes[..n],
        );
        let pseudos = &pt.pseudos[..];
        let at = |pi: usize| pseudos.get(pi).map_or(usize::MAX, |p| p.at_op as usize);
        let (mut i, mut pi) = (self.next_op, self.next_pseudo);
        let mut next_pseudo_at = at(pi);
        // Whether memop `i`'s folded compute batch has fired.
        let mut computed = false;
        // One call site for `f`, so the replay loop's whole per-event
        // body inlines here exactly as it does over a recorded trace.
        loop {
            let ev = if next_pseudo_at == i {
                // (1) side-table events at this op (or the tail), in
                // table order.
                let kind = pseudos[pi].kind;
                pi += 1;
                next_pseudo_at = at(pi);
                kind.event()
            } else if i == n {
                break;
            } else if !computed && pre_compute[i] != 0 {
                // (2) the folded compute batch.
                computed = true;
                TraceEvent::Compute(pre_compute[i])
            } else {
                // (3) the memop itself.
                let (addr, size, ref_id, hints) =
                    (Addr(addrs[i]), sizes[i], RefId(ref_ids[i]), hints[i]);
                let ev = if flags[i] & FLAG_STORE != 0 {
                    TraceEvent::Store {
                        addr,
                        size,
                        ref_id,
                        hints,
                    }
                } else {
                    let dep = (flags[i] & FLAG_DEP != 0).then_some(deps[i] as u64);
                    TraceEvent::Load {
                        addr,
                        size,
                        ref_id,
                        hints,
                        dep,
                    }
                };
                computed = false;
                i += 1;
                ev
            };
            f(ev);
        }
        self.next_op = n;
        self.next_pseudo = pseudos.len();
    }
}

impl PseudoKind {
    fn event(self) -> TraceEvent {
        match self {
            PseudoKind::Compute(n) => TraceEvent::Compute(n),
            PseudoKind::SetLoopBound(b) => TraceEvent::SetLoopBound(b),
            PseudoKind::IndirectPrefetch {
                base,
                elem_size,
                index_addr,
                ref_id,
            } => TraceEvent::IndirectPrefetch {
                base,
                elem_size,
                index_addr,
                ref_id,
            },
        }
    }
}

/// Per-access metadata precomputed ahead of replay: cache geometry
/// projections of every memop address plus resolved hint bits. The
/// arrays parallel the hot arrays of the [`PackedTrace`] they were
/// derived from.
#[derive(Debug, Clone, Default)]
pub struct PreAnalysis {
    /// L1 set index per memop.
    pub l1_set: Vec<u32>,
    /// L1 tag per memop.
    pub l1_tag: Vec<u64>,
    /// L2 set index per memop.
    pub l2_set: Vec<u32>,
    /// L2 tag per memop.
    pub l2_tag: Vec<u64>,
    /// 4 KB region id per memop.
    pub region: Vec<u64>,
    /// Resolved pointer-chase depth seeded by each memop's hints.
    pub pointer_level: Vec<u8>,
    /// Memops carrying the `spatial` hint.
    pub spatial_refs: u64,
}

impl PreAnalysis {
    fn compute(pt: &PackedTrace, l1: &CacheConfig, l2: &CacheConfig) -> PreAnalysis {
        let n = pt.n_ops();
        let (l1_sets, l2_sets) = (l1.sets() as u64, l2.sets() as u64);
        let mut pa = PreAnalysis {
            l1_set: Vec::with_capacity(n),
            l1_tag: Vec::with_capacity(n),
            l2_set: Vec::with_capacity(n),
            l2_tag: Vec::with_capacity(n),
            region: Vec::with_capacity(n),
            pointer_level: Vec::with_capacity(n),
            spatial_refs: 0,
        };
        for i in 0..n {
            let block = pt.addrs[i] >> 6;
            pa.l1_set.push((block & (l1_sets - 1)) as u32);
            pa.l1_tag.push(block >> l1_sets.trailing_zeros());
            pa.l2_set.push((block & (l2_sets - 1)) as u32);
            pa.l2_tag.push(block >> l2_sets.trailing_zeros());
            pa.region.push(pt.addrs[i] >> 12);
            pa.pointer_level.push(pt.hints[i].pointer_level());
            if pt.hints[i].spatial() {
                pa.spatial_refs += 1;
            }
        }
        pa
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn byte(&mut self) -> Result<u8, PackedFileError> {
        let b = *self.buf.get(self.pos).ok_or(PackedFileError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, PackedFileError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(PackedFileError::Malformed("varint overflows u64"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(PackedFileError::Malformed("varint too long"));
            }
        }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The checksum of the GRPT payload and of whole trace-cache entries.
///
/// The input is read as 8-byte little-endian words dealt round-robin to
/// four independent lanes, each updated by the xxHash64 round
/// `lane = rotl(lane + w * P2, 31) * P1`; the zero-padded sub-word tail
/// is one more word. The lanes then fold, one round each, into a state
/// seeded with the input length, which a final xor-shift/multiply
/// avalanche mixes. Every step is a bijection of its lane (for a fixed
/// word) and of its word (for a fixed lane), and every fold a bijection
/// of the lane it absorbs, so a single changed byte always changes the
/// sum. The four lanes keep four multiply chains in flight, which is
/// what makes this several times faster than a byte-serial hash on
/// multi-megabyte entries.
pub fn checksum(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    let round = |lane: u64, w: u64| {
        lane.wrapping_add(w.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let word = |b: &[u8]| {
        let mut w = [0u8; 8];
        w[..b.len()].copy_from_slice(b);
        u64::from_le_bytes(w)
    };
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = round(*lane, word(w));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = round(*lane, word(w));
    }
    let mut h = (bytes.len() as u64).wrapping_mul(P3);
    for lane in lanes {
        h = round(h, lane);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic xorshift so tests stay hermetic (no rand crate).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_hints(rng: &mut Rng) -> HintSet {
        let mut h = HintSet::none();
        if rng.below(2) == 0 {
            h = h.with_spatial();
        }
        if rng.below(4) == 0 {
            h = h.with_pointer();
        }
        if rng.below(8) == 0 {
            h = h.with_recursive();
        }
        if rng.below(3) == 0 {
            h = h.with_size_coeff(rng.below(7) as u8);
        }
        h
    }

    /// Builds a randomized trace exercising every event kind, dependency
    /// edges, and adjacent pseudo-events.
    fn random_trace(seed: u64, n: usize) -> Trace {
        let mut rng = Rng(seed | 1);
        let mut t = Trace::new();
        let mut load_seqs: Vec<u64> = Vec::new();
        for _ in 0..n {
            match rng.below(10) {
                0..=4 => {
                    let dep = if !load_seqs.is_empty() && rng.below(3) == 0 {
                        Some(load_seqs[rng.below(load_seqs.len() as u64) as usize])
                    } else {
                        None
                    };
                    let h = random_hints(&mut rng);
                    let s = t.push_load(
                        Addr(rng.below(1 << 40)),
                        1 << rng.below(4),
                        RefId(rng.below(100) as u32),
                        h,
                        dep,
                    );
                    load_seqs.push(s);
                }
                5..=6 => t.push_store(
                    Addr(rng.below(1 << 40)),
                    1 << rng.below(4),
                    RefId(rng.below(100) as u32),
                    random_hints(&mut rng),
                ),
                7 => t.push_compute(rng.below(1000) as u32 + 1),
                8 => t.push_set_loop_bound(rng.below(10_000) as u32),
                _ => t.push_indirect_prefetch(
                    Addr(rng.below(1 << 40)),
                    (1 << rng.below(4)) as u32,
                    Addr(rng.below(1 << 40)),
                    RefId(rng.below(100) as u32),
                ),
            }
        }
        t.finish();
        t
    }

    fn assert_traces_identical(a: &Trace, b: &Trace) {
        assert_eq!(a.events(), b.events());
        assert_eq!(a.loads(), b.loads());
        assert_eq!(a.stores(), b.stores());
        assert_eq!(a.instructions(), b.instructions());
    }

    #[test]
    fn round_trip_property_random_traces() {
        // Pack → unpack and pack → bytes → decode → unpack must both be
        // bit-identical to the original trace across many random shapes,
        // including dep edges, hints, and pseudo-events.
        for seed in 1..=20u64 {
            let t = random_trace(seed * 0x9e37_79b9, 400);
            let pt = PackedTrace::pack(&t).expect("pack");
            assert_traces_identical(&t, &pt.unpack());
            let bytes = pt.to_bytes();
            let decoded = PackedTrace::from_bytes(&bytes).expect("decode");
            assert_traces_identical(&t, &decoded.unpack());
        }
    }

    /// Hand-built shapes at the packing boundaries: empty; pseudo-events
    /// only; a compute overflow chain; a compute before and after a
    /// pseudo-event ahead of the first memop.
    fn edge_shapes() -> [Trace; 5] {
        let mut empty = Trace::new();
        empty.finish();

        // Pure pseudo-events, no memops: everything lands in the tail.
        let mut pseudo_only = Trace::new();
        pseudo_only.push_compute(5);
        pseudo_only.push_set_loop_bound(9);
        pseudo_only.push_compute(3);
        pseudo_only.push_indirect_prefetch(Addr(0x1000), 4, Addr(0x2000), RefId(7));
        pseudo_only.finish();

        // Compute overflow chain: two adjacent Compute events (the
        // push_compute boundary flush).
        let mut overflow = Trace::new();
        overflow.push_compute(u32::MAX - 1);
        overflow.push_compute(10);
        overflow.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), None);
        overflow.finish();

        let mut compute_first = Trace::new();
        compute_first.push_compute(5);
        compute_first.push_set_loop_bound(100);
        compute_first.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), None);
        compute_first.finish();

        let mut compute_last = Trace::new();
        compute_last.push_set_loop_bound(100);
        compute_last.push_compute(5);
        compute_last.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), None);
        compute_last.finish();

        [empty, pseudo_only, overflow, compute_first, compute_last]
    }

    #[test]
    fn round_trip_edge_shapes() {
        let shapes = edge_shapes();
        for t in &shapes {
            let pt = PackedTrace::pack(t).unwrap();
            assert_traces_identical(t, &pt.unpack());
            assert_traces_identical(
                t,
                &PackedTrace::from_bytes(&pt.to_bytes()).unwrap().unpack(),
            );
        }

        let pt = PackedTrace::pack(&shapes[1]).unwrap();
        assert_eq!(pt.n_ops(), 0);
        assert_eq!(pt.pseudos().len(), 4);

        // The overflow chain's first batch must survive as a side-table
        // entry, the second folds into pre_compute.
        assert_eq!(
            shapes[2].events().len(),
            3,
            "boundary flush splits the batch"
        );
        let pt = PackedTrace::pack(&shapes[2]).unwrap();
        assert_eq!(pt.pseudos().len(), 1);
        assert!(matches!(pt.pseudos()[0].kind, PseudoKind::Compute(_)));
        assert_eq!(
            pt.pre_compute()[0],
            9,
            "10 minus the 1 that fit before the flush"
        );
    }

    #[test]
    fn fold_order_preserves_event_sequence() {
        let shapes = edge_shapes();
        // Gap [Compute, SetLoopBound]: the compute precedes the pseudo,
        // so it must NOT fold into pre_compute (which fires after the
        // side table).
        let pt = PackedTrace::pack(&shapes[3]).unwrap();
        assert_eq!(pt.pseudos().len(), 2);
        assert_eq!(pt.pseudos()[0].kind, PseudoKind::Compute(5));
        assert_eq!(pt.pseudos()[1].kind, PseudoKind::SetLoopBound(100));
        assert_eq!(pt.pre_compute()[0], 0);
        assert_traces_identical(&shapes[3], &pt.unpack());

        // Gap [SetLoopBound, Compute]: the compute is last — folds.
        let pt = PackedTrace::pack(&shapes[4]).unwrap();
        assert_eq!(pt.pseudos().len(), 1);
        assert_eq!(pt.pre_compute()[0], 5);
        assert_traces_identical(&shapes[4], &pt.unpack());
    }

    /// Drains `pt.stream()`, checking its up-front counts and that a
    /// drained stream yields nothing more.
    fn streamed(pt: &PackedTrace) -> Vec<TraceEvent> {
        let mut s = pt.stream();
        assert_eq!((s.loads(), s.stores()), (pt.loads(), pt.stores()));
        let mut out = Vec::new();
        s.for_each_event(|ev| out.push(ev));
        s.for_each_event(|ev| panic!("drained stream yielded {ev:?}"));
        out
    }

    #[test]
    fn stream_yields_exactly_the_original_events() {
        let random = (1..=20u64).map(|seed| random_trace(seed * 0x9e37_79b9, 400));
        for t in random.chain(edge_shapes()) {
            let pt = PackedTrace::pack(&t).unwrap();
            assert_eq!(streamed(&pt), t.events());
            let decoded = PackedTrace::from_bytes(&pt.to_bytes()).unwrap();
            assert_eq!(streamed(&decoded), t.events(), "after a disk round trip");
        }
    }

    #[test]
    fn checksum_detects_every_single_bit_flip_at_every_length() {
        let mut rng = Rng(0x5eed_c4ec);
        // Lengths 0..=80 cover empty input, every sub-word tail, a
        // partial lane round, and more than two full 32-byte blocks.
        for len in 0..=80usize {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let sum = checksum(&bytes);
            for pos in 0..len {
                for bit in 0..8 {
                    let mut b = bytes.clone();
                    b[pos] ^= 1 << bit;
                    assert_ne!(checksum(&b), sum, "len {len}: flip of byte {pos} bit {bit}");
                }
            }
            // The length is mixed in: a trailing zero byte is seen.
            let mut longer = bytes.clone();
            longer.push(0);
            assert_ne!(checksum(&longer), sum, "len {len}: appended zero");
        }
    }

    #[test]
    fn checksum_values_are_pinned() {
        // Entries on disk depend on these exact values: changing the
        // function means bumping both the GRPT and GRPC versions.
        let counting: Vec<u8> = (0..=255u8).collect();
        assert_eq!(
            [checksum(b""), checksum(b"GRPT"), checksum(&counting)],
            [
                0x5374_8300_ccd7_2d2b,
                0x2f23_f8f6_39ac_8faf,
                0xd79e_26fb_1bfb_cbbe
            ]
        );
    }

    #[test]
    fn pack_rejects_bad_deps() {
        let mut t = Trace::new();
        // Forward (self) dependency: seq 0 depending on seq 0.
        t.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), Some(0));
        t.finish();
        assert_eq!(PackedTrace::pack(&t), Err(PackError::BadDep));
    }

    #[test]
    fn corrupted_header_yields_named_errors() {
        let mut t = Trace::new();
        t.push_load(Addr(0x1234), 8, RefId(3), HintSet::none().with_spatial(), None);
        t.push_compute(7);
        t.finish();
        let good = PackedTrace::pack(&t).unwrap().to_bytes();

        // Bad magic.
        let mut b = good.clone();
        b[0] = b'X';
        assert_eq!(PackedTrace::from_bytes(&b), Err(PackedFileError::BadMagic));

        // Future version.
        let mut b = good.clone();
        b[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            PackedTrace::from_bytes(&b),
            Err(PackedFileError::UnsupportedVersion(99))
        );

        // Inconsistent counters.
        let mut b = good.clone();
        b[16..24].copy_from_slice(&5u64.to_le_bytes()); // loads = 5
        assert!(matches!(
            PackedTrace::from_bytes(&b),
            Err(PackedFileError::Malformed(_))
        ));

        // Flipped payload byte.
        let mut b = good.clone();
        *b.last_mut().unwrap() ^= 0x40;
        assert_eq!(
            PackedTrace::from_bytes(&b),
            Err(PackedFileError::ChecksumMismatch)
        );

        // Trailing garbage.
        let mut b = good.clone();
        b.push(0);
        assert_eq!(
            PackedTrace::from_bytes(&b),
            Err(PackedFileError::TrailingBytes)
        );

        // Empty and sub-header inputs.
        assert_eq!(PackedTrace::from_bytes(&[]), Err(PackedFileError::Truncated));
        assert_eq!(
            PackedTrace::from_bytes(&good[..3]),
            Err(PackedFileError::Truncated)
        );
    }

    #[test]
    fn truncated_files_yield_truncated_not_panic() {
        let t = random_trace(42, 300);
        let good = PackedTrace::pack(&t).unwrap().to_bytes();
        // Every prefix must decode to a named error — never panic, never
        // a silently partial trace.
        for len in 0..good.len() {
            let err = PackedTrace::from_bytes(&good[..len])
                .expect_err("prefix must not decode as a full trace");
            assert!(
                matches!(
                    err,
                    PackedFileError::Truncated
                        | PackedFileError::BadMagic
                        | PackedFileError::ChecksumMismatch
                        | PackedFileError::Malformed(_)
                ),
                "len {len}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn pre_analysis_matches_cache_geometry() {
        use grp_mem::{BlockAddr, Cache};
        let t = random_trace(7, 500);
        let pt = PackedTrace::pack(&t).unwrap();
        let (l1c, l2c) = (CacheConfig::l1_spec(), CacheConfig::l2_spec());
        let pa = pt.pre_analyze(&l1c, &l2c);
        let (l1, l2) = (Cache::new(l1c), Cache::new(l2c));
        assert_eq!(pa.l1_set.len(), pt.n_ops());
        let mut spatial = 0u64;
        for i in 0..pt.n_ops() {
            let b = BlockAddr(pt.addrs()[i] >> 6);
            assert_eq!(pa.l1_set[i] as usize, l1.set_of(b));
            assert_eq!(pa.l1_tag[i], l1.tag_of(b));
            assert_eq!(pa.l2_set[i] as usize, l2.set_of(b));
            assert_eq!(pa.l2_tag[i], l2.tag_of(b));
            assert_eq!(pa.region[i], pt.addrs()[i] >> 12);
            assert_eq!(pa.pointer_level[i], pt.hints()[i].pointer_level());
            if pt.hints()[i].spatial() {
                spatial += 1;
            }
        }
        assert_eq!(pa.spatial_refs, spatial);
    }

    #[test]
    fn stats_count_folds_and_pseudos() {
        let mut t = Trace::new();
        t.push_compute(4);
        t.push_load(Addr(0x40), 8, RefId(0), HintSet::none(), None);
        t.push_store(Addr(0x80), 8, RefId(1), HintSet::none());
        t.push_set_loop_bound(10);
        t.push_load(Addr(0xc0), 8, RefId(2), HintSet::none(), None);
        t.finish();
        let pt = PackedTrace::pack(&t).unwrap();
        let s = pt.stats();
        assert_eq!(s.memops, 3);
        assert_eq!(s.pseudo_events, 1);
        assert_eq!(s.folded_computes, 1);
    }

    #[test]
    fn delta_encoding_is_compact_for_streams() {
        // A sequential stream should pack to a few bytes per op, far
        // smaller than the 40-byte in-memory TraceEvent.
        let mut t = Trace::new();
        for i in 0..10_000u64 {
            t.push_load(Addr(0x10_0000 + i * 8), 8, RefId(0), HintSet::none(), None);
            t.push_compute(4);
        }
        t.finish();
        let pt = PackedTrace::pack(&t).unwrap();
        let bytes = pt.to_bytes();
        assert!(
            bytes.len() < 10_000 * 10,
            "stream packs compactly: {} bytes for 10k ops",
            bytes.len()
        );
    }
}

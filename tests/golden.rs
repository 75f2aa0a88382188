//! Golden contract: the simulator's observable output at test scale,
//! pinned as digests recorded from history.
//!
//! Two digests per the committed `tests/golden/test_scale.txt`:
//!
//! * `results` — one FNV-1a digest over all 216 `RunResult`s of the
//!   18 kernel × 12 scheme grid (every field, in registry × scheme
//!   order);
//! * `trace <kernel> <scheme>` — one digest per cell over the hinted
//!   event stream `BuiltWorkload::trace(scheme.compiler_config())`,
//!   event for event.
//!
//! Refactors of the interpreter, the trace representation, or the
//! replay loop must keep both byte-for-byte; a real model change
//! re-records the file and says why.

use std::collections::BTreeMap;

use grp::core::{RunResult, Scheme, SimConfig};
use grp::cpu::{Trace, TraceEvent};
use grp::workloads::{all, Scale};

const GOLDEN: &str = include_str!("golden/test_scale.txt");

/// FNV-1a 64-bit, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn result_bytes(h: &mut Fnv, r: &RunResult) {
    // Every field is an integer counter; the derived Debug form names
    // and prints all of them.
    h.bytes(format!("{r:?}").as_bytes());
}

fn trace_digest(t: &Trace) -> u64 {
    let mut h = Fnv::new();
    for ev in t.events() {
        match *ev {
            TraceEvent::Compute(n) => {
                h.u64(0);
                h.u64(n as u64);
            }
            TraceEvent::Load {
                addr,
                size,
                ref_id,
                hints,
                dep,
            } => {
                h.u64(1);
                h.u64(addr.0);
                h.u64(size as u64);
                h.u64(ref_id.0 as u64);
                h.u64(hints.to_bits() as u64);
                h.u64(dep.map_or(u64::MAX, |d| d));
            }
            TraceEvent::Store {
                addr,
                size,
                ref_id,
                hints,
            } => {
                h.u64(2);
                h.u64(addr.0);
                h.u64(size as u64);
                h.u64(ref_id.0 as u64);
                h.u64(hints.to_bits() as u64);
            }
            TraceEvent::SetLoopBound(b) => {
                h.u64(3);
                h.u64(b as u64);
            }
            TraceEvent::IndirectPrefetch {
                base,
                elem_size,
                index_addr,
                ref_id,
            } => {
                h.u64(4);
                h.u64(base.0);
                h.u64(elem_size as u64);
                h.u64(index_addr.0);
                h.u64(ref_id.0 as u64);
            }
        }
    }
    h.u64(t.instructions());
    h.u64(t.loads());
    h.u64(t.stores());
    h.0
}

/// Recomputes the contract in the file's line format.
fn recompute() -> BTreeMap<String, u64> {
    let cfg = SimConfig::paper();
    let mut out = BTreeMap::new();
    let mut results = Fnv::new();
    for w in all() {
        let built = w.build(Scale::Test);
        for scheme in Scheme::ALL {
            let (trace, _) = built.trace(scheme.compiler_config().as_ref());
            out.insert(format!("trace {} {}", w.name, scheme), trace_digest(&trace));
            result_bytes(&mut results, &built.run(scheme, &cfg));
        }
    }
    out.insert("results".to_string(), results.0);
    out
}

fn committed() -> BTreeMap<String, u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l.rsplit_once(' ').expect("`<key> <hex>` line");
            let v = u64::from_str_radix(hex, 16).expect("hex digest");
            (key.to_string(), v)
        })
        .collect()
}

#[test]
fn test_scale_grid_matches_committed_digests() {
    let want = committed();
    let got = recompute();
    let diffs: Vec<String> = got
        .iter()
        .filter(|(k, v)| want.get(*k) != Some(v))
        .map(|(k, v)| format!("{k} {v:016x}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} golden digest(s) differ; recomputed lines:\n{}",
        diffs.len(),
        diffs.join("\n")
    );
    assert_eq!(
        want.len(),
        1 + 18 * 12,
        "the contract covers the results digest plus every cell's trace"
    );
}

//! One cell's pipeline, composed from the simulator's public calls,
//! each wrapped in a span: build → analyze → interpret → (pack →
//! store | load → unpack) → replay. The same functions serve the
//! untraced runs (with [`Tracer::off`]) and the traced ones.

use std::path::Path;

use grp_bench::tracecache::TraceCache;
use grp_core::{run_trace, RunResult, Scheme, SimConfig};
use grp_cpu::{PackedTrace, Trace};
use grp_ir::HintMap;
use grp_mem::{HeapRange, Memory};
use grp_workloads::{BuiltWorkload, Scale};

use crate::inputs::Cell;
use crate::tracer::Tracer;

/// Problem size of every workload: the committed reference's scale.
pub const SCALE: Scale = Scale::Small;

/// The paper's platform, as `all` and `serve` use it.
pub fn config() -> SimConfig {
    SimConfig::paper()
}

pub fn build(t: &Tracer, kernel: &str, cell: Option<u64>) -> BuiltWorkload {
    let w = grp_workloads::by_name(kernel).expect("inputs name registry kernels");
    t.time("workloads.build", cell, || w.build(SCALE))
}

/// Derives the scheme's hints (when it has a compiler configuration)
/// and interprets the kernel into a hinted trace.
pub fn interpret(
    t: &Tracer,
    built: &BuiltWorkload,
    scheme: Scheme,
    cell: Option<u64>,
) -> (Trace, Memory) {
    let hints = match scheme.compiler_config() {
        Some(cc) => t.time("compiler.analyze", cell, || {
            grp_compiler::analyze(&built.program, &cc)
        }),
        None => HintMap::empty(),
    };
    let mut g = t.span("ir.interpret", cell);
    let out = built.trace_with_hints(&hints);
    g.count(out.0.events().len() as u64);
    out
}

pub fn replay(
    t: &Tracer,
    trace: &Trace,
    mem: &Memory,
    heap: HeapRange,
    scheme: Scheme,
    cell: Option<u64>,
) -> RunResult {
    let mut g = t.span("core.replay", cell);
    g.count(trace.events().len() as u64);
    run_trace(trace, mem, heap, scheme, &config())
}

/// Packs a trace and stores it in the trace cache (the cache's write
/// path), counting the entry's bytes on its span.
pub fn pack_store(
    t: &Tracer,
    cache: &TraceCache,
    (kernel, scheme): Cell,
    trace: &Trace,
    mem: &Memory,
    heap: HeapRange,
    cell: Option<u64>,
) -> Result<(), String> {
    let pt = t
        .time("cpu.pack", cell, || PackedTrace::pack(trace))
        .map_err(|e| format!("{kernel}/{scheme}: trace does not pack: {e}"))?;
    let cc = scheme.compiler_config();
    let mut g = t.span("tracecache.store", cell);
    cache
        .store(kernel, SCALE, cc.as_ref(), &pt, mem, heap)
        .map_err(|e| format!("{kernel}/{scheme}: trace-cache store failed: {e}"))?;
    if t.enabled() {
        g.count(entry_bytes(&cache.entry_path(kernel, SCALE, cc.as_ref())));
    }
    Ok(())
}

/// The cache's read path: load and decode an entry, then unpack it for
/// the materialized replay `serve` runs by default. `None` on a miss.
pub fn load(
    t: &Tracer,
    cache: &TraceCache,
    (kernel, scheme): Cell,
    cell: Option<u64>,
) -> Option<(Trace, Memory, HeapRange)> {
    let cc = scheme.compiler_config();
    let (pt, mem, heap) = {
        let mut g = t.span("tracecache.load", cell);
        let hit = cache.load(kernel, SCALE, cc.as_ref())?;
        if t.enabled() {
            g.count(entry_bytes(&cache.entry_path(kernel, SCALE, cc.as_ref())));
        }
        hit
    };
    let trace = t.time("cpu.unpack", cell, || pt.unpack());
    Some((trace, mem, heap))
}

fn entry_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

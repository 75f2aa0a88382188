//! Per-layer metrics of a traced run, named by the simulator's modules.
//!
//! Times come from the spans the benchmark put around each public call
//! (self time per span name); counts come from the spans' work counts
//! and from each `RunResult`. Every traced run reports the whole
//! catalogue: a layer the workload bypasses reads 0 and is listed as
//! not exercised.

use std::collections::BTreeMap;

use grp_core::{RunResult, Scheme};

use crate::inputs::Cell;
use crate::report::Report;
use crate::stats;
use crate::tracer::{self, Span};

/// A scheme's label as a metric-name component (`GRP/Var` → `grp_var`).
pub fn slug(s: Scheme) -> String {
    s.label().to_lowercase().replace(['/', '+'], "_")
}

/// The replay ladder's engine rungs: each replays the same trace as
/// `none` with one prefetch engine added.
const ENGINES: [(Scheme, &str); 3] = [
    (Scheme::Stride, "stride"),
    (Scheme::Srp, "srp"),
    (Scheme::GrpVar, "grp"),
];

/// Every per-layer metric: `(name, unit, better)`.
pub fn catalogue() -> Vec<(String, &'static str, &'static str)> {
    let mut c: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |n: &str, u, b| c.push((n.to_string(), u, b));
    add("workloads.build_s", "s", "lower");
    add("compiler.analyze_s", "s", "lower");
    add("compiler.analyze_calls", "count", "lower");
    add("ir.interpret_s", "s", "lower");
    add("ir.interpret_calls", "count", "lower");
    add("ir.events", "count", "lower");
    add("ir.ns_per_event", "ns/event", "lower");
    add("cpu.pack_s", "s", "lower");
    add("cpu.unpack_s", "s", "lower");
    add("tracecache.store_s", "s", "lower");
    add("tracecache.store_bytes", "bytes", "lower");
    add("tracecache.load_s", "s", "lower");
    add("tracecache.load_bytes", "bytes", "lower");
    add("tracecache.hits", "count", "higher");
    add("tracecache.misses", "count", "lower");
    add("serve.overhead_ms_p50", "ms", "lower");
    add("core.replay_s", "s", "lower");
    add("core.replay_events", "count", "lower");
    add("core.replay_ns_per_event", "ns/event", "lower");
    for s in Scheme::ALL {
        c.push((format!("core.replay_s.{}", slug(s)), "s", "lower"));
        c.push((
            format!("core.replay_ns_per_event.{}", slug(s)),
            "ns/event",
            "lower",
        ));
    }
    let mut add = |n: &str, u, b| c.push((n.to_string(), u, b));
    add("cpu.window_ns_per_event", "ns/event", "lower");
    add("mem.l1_ns_per_event", "ns/event", "lower");
    add("mem.l2_dram_ns_per_event", "ns/event", "lower");
    for (_, e) in ENGINES {
        c.push((format!("core.engine.{e}_ns_per_event"), "ns/event", "lower"));
    }
    let mut add = |n: &str, u, b| c.push((n.to_string(), u, b));
    add("core.ladder_events", "count", "lower");
    for s in [
        Scheme::NoPrefetch,
        Scheme::Stride,
        Scheme::Srp,
        Scheme::GrpVar,
    ] {
        c.push((
            format!("core.ladder_residual_frac.{}", slug(s)),
            "frac",
            "lower",
        ));
    }
    let mut add = |n: &str, u, b| c.push((n.to_string(), u, b));
    add("mem.l1_accesses", "count", "lower");
    add("mem.l2_demand_accesses", "count", "lower");
    add("mem.l2_demand_misses", "count", "lower");
    add("mem.dram_blocks", "count", "lower");
    add("mem.late_prefetch_merges", "count", "lower");
    add("core.prefetches_issued", "count", "lower");
    add("core.useful_prefetches", "count", "higher");
    add("core.prefetch_accuracy", "frac", "higher");
    add("sched.queue_wait_p50_ms", "ms", "lower");
    add("sched.queue_wait_p90_ms", "ms", "lower");
    add("sched.worker_utilization", "frac", "higher");
    add("sched.steals", "count", "lower");
    add("trace.spans", "count", "lower");
    add("trace.overhead_s", "s", "lower");
    c
}

/// Replay seconds and events per (kernel, scheme label).
type PerCell<'a> = BTreeMap<(&'a str, &'static str), (f64, u64)>;

/// Scheduler figures from one `sched::run_cells` grid.
#[derive(Debug, Clone, Default)]
pub struct Sched {
    pub queue_wait_ms: Vec<f64>,
    pub worker_utilization: f64,
    pub steals: u64,
}

/// Everything a traced run hands over for its per-layer metrics.
#[derive(Debug, Default)]
pub struct Inputs<'a> {
    pub spans: &'a [Span],
    /// Cell id (as recorded on spans) → the cell it ran.
    pub cells: BTreeMap<u64, Cell>,
    /// Results of the workload's own cells (the counts' source).
    pub results: Vec<RunResult>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub serve_overhead_ms: Vec<f64>,
    pub sched: Option<Sched>,
    /// Traced minus untraced `wall_s`.
    pub overhead_s: f64,
}

/// Emits every catalogue metric into `rep`, with readable accounting.
pub fn report(inp: &Inputs, rep: &mut Report) {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let tot = tracer::totals(inp.spans);
    for (span, metric) in [
        ("workloads.build", "workloads.build_s"),
        ("compiler.analyze", "compiler.analyze_s"),
        ("ir.interpret", "ir.interpret_s"),
        ("cpu.pack", "cpu.pack_s"),
        ("cpu.unpack", "cpu.unpack_s"),
        ("tracecache.store", "tracecache.store_s"),
        ("tracecache.load", "tracecache.load_s"),
    ] {
        if let Some(t) = tot.get(span) {
            v.insert(metric.into(), t.self_seconds);
        }
    }
    if let Some(t) = tot.get("compiler.analyze") {
        v.insert("compiler.analyze_calls".into(), t.spans as f64);
    }
    if let Some(t) = tot.get("ir.interpret") {
        v.insert("ir.interpret_calls".into(), t.spans as f64);
        v.insert("ir.events".into(), t.count as f64);
        v.insert("ir.ns_per_event".into(), ns_per(t.self_seconds, t.count));
    }
    if let Some(t) = tot.get("tracecache.store") {
        v.insert("tracecache.store_bytes".into(), t.count as f64);
    }
    if let Some(t) = tot.get("tracecache.load") {
        v.insert("tracecache.load_bytes".into(), t.count as f64);
    }
    if inp.cache_hits + inp.cache_misses > 0 {
        v.insert("tracecache.hits".into(), inp.cache_hits as f64);
        v.insert("tracecache.misses".into(), inp.cache_misses as f64);
    }
    if !inp.serve_overhead_ms.is_empty() {
        v.insert(
            "serve.overhead_ms_p50".into(),
            stats::median(&inp.serve_overhead_ms),
        );
        rep.timing("serve overhead (ms)", "ms", &inp.serve_overhead_ms);
    }

    // Replay time per scheme and per (kernel, scheme).
    let mut per_cell: PerCell = BTreeMap::new();
    for s in inp.spans.iter().filter(|s| s.name == "core.replay") {
        let Some(&(k, scheme)) = s.cell.and_then(|c| inp.cells.get(&c)) else {
            continue;
        };
        let e = per_cell.entry((k, scheme.label())).or_default();
        e.0 += s.seconds();
        e.1 += s.count;
    }
    let (mut all_s, mut all_e) = (0.0, 0u64);
    rep.line("replay per scheme (ns/event over its events):");
    for scheme in Scheme::ALL {
        let (s, e) = per_cell
            .iter()
            .filter(|((_, sc), _)| *sc == scheme.label())
            .fold((0.0, 0u64), |acc, (_, &(s, e))| (acc.0 + s, acc.1 + e));
        if e == 0 {
            continue;
        }
        all_s += s;
        all_e += e;
        v.insert(format!("core.replay_s.{}", slug(scheme)), s);
        v.insert(
            format!("core.replay_ns_per_event.{}", slug(scheme)),
            ns_per(s, e),
        );
        rep.line(format!(
            "  {:<11} {s:>9.4} s  {:>7.2} ns/event  base {e} events",
            scheme.label(),
            ns_per(s, e)
        ));
    }
    v.insert("core.replay_s".into(), all_s);
    v.insert("core.replay_events".into(), all_e as f64);
    v.insert("core.replay_ns_per_event".into(), ns_per(all_s, all_e));

    ladder(&per_cell, &mut v, rep);
    counts(&inp.results, &mut v, rep);

    if let Some(sc) = &inp.sched {
        v.insert(
            "sched.queue_wait_p50_ms".into(),
            stats::percentile(&sc.queue_wait_ms, 50.0),
        );
        v.insert(
            "sched.queue_wait_p90_ms".into(),
            stats::percentile(&sc.queue_wait_ms, 90.0),
        );
        v.insert("sched.worker_utilization".into(), sc.worker_utilization);
        v.insert("sched.steals".into(), sc.steals as f64);
        rep.timing("sched queue wait (ms)", "ms", &sc.queue_wait_ms);
    }
    v.insert("trace.spans".into(), inp.spans.len() as f64);
    v.insert("trace.overhead_s".into(), inp.overhead_s);

    let mut idle = Vec::new();
    for (name, unit, _) in catalogue() {
        let value = v.get(&name).copied();
        if value.is_none() {
            idle.push(name.clone());
        }
        rep.metric(name, unit, value.unwrap_or(0.0));
    }
    if !idle.is_empty() {
        rep.line(format!(
            "not exercised by this workload (reported as 0): {}",
            idle.join(", ")
        ));
    }
}

/// The replay ladder. Each rung replays the same trace under a scheme
/// that adds one layer, so a difference of ns/event isolates it:
/// perfect-L1 leaves the `Window` and the trace walk; perfect-L2 adds
/// L1; none adds L2, the MSHRs and DRAM; each engine rung adds one
/// prefetch engine *and* the L2/DRAM work its prefetches cause. A rung
/// is the median over kernels; the accounting multiplies the rungs by
/// each kernel's events and compares with the measured replay time.
fn ladder(per_cell: &PerCell, v: &mut BTreeMap<String, f64>, rep: &mut Report) {
    let ns = |k: &str, s: Scheme| {
        per_cell
            .get(&(k, s.label()))
            .filter(|c| c.1 > 0)
            .map(|c| c.0 / c.1 as f64 * 1e9)
    };
    let kernels: Vec<&str> = {
        let mut ks: Vec<&str> = per_cell.keys().map(|(k, _)| *k).collect();
        ks.dedup();
        ks.into_iter()
            .filter(|k| {
                [Scheme::PerfectL1, Scheme::PerfectL2, Scheme::NoPrefetch]
                    .iter()
                    .all(|&s| ns(k, s).is_some())
            })
            .collect()
    };
    if kernels.is_empty() {
        return;
    }
    let rung = |f: &dyn Fn(&str) -> Option<f64>| {
        let xs: Vec<f64> = kernels.iter().filter_map(|k| f(k)).collect();
        stats::median(&xs)
    };
    let window = rung(&|k| ns(k, Scheme::PerfectL1));
    let l1 = rung(&|k| Some(ns(k, Scheme::PerfectL2)? - ns(k, Scheme::PerfectL1)?));
    let l2 = rung(&|k| Some(ns(k, Scheme::NoPrefetch)? - ns(k, Scheme::PerfectL2)?));
    let base_events: u64 = kernels
        .iter()
        .map(|k| per_cell[&(*k, Scheme::NoPrefetch.label())].1)
        .sum();
    v.insert("cpu.window_ns_per_event".into(), window);
    v.insert("mem.l1_ns_per_event".into(), l1);
    v.insert("mem.l2_dram_ns_per_event".into(), l2);
    v.insert("core.ladder_events".into(), base_events as f64);
    rep.line(format!(
        "replay ladder (ns/event, median over {} kernels; base {base_events} events per scheme):",
        kernels.len()
    ));
    rep.line(format!(
        "  window {window:.2} · L1 {l1:.2} · L2+MSHR+DRAM {l2:.2}"
    ));
    let mut engines: Vec<(Scheme, f64)> = vec![(Scheme::NoPrefetch, 0.0)];
    for (scheme, name) in ENGINES {
        let xs: Vec<f64> = kernels
            .iter()
            .filter_map(|k| Some(ns(k, scheme)? - ns(k, Scheme::NoPrefetch)?))
            .collect();
        if xs.is_empty() {
            continue;
        }
        let r = stats::median(&xs);
        v.insert(format!("core.engine.{name}_ns_per_event"), r);
        rep.line(format!(
            "  {} engine {r:.2} (includes the L2/DRAM work its prefetches cause)",
            scheme.label()
        ));
        engines.push((scheme, r));
    }
    rep.line(
        "ladder accounting: Σ (rungs × events) vs measured replay, residual = measured − Σ:"
            .to_string(),
    );
    for (scheme, engine) in engines {
        let per_event = window + l1 + l2 + engine;
        let (mut predicted, mut measured) = (0.0, 0.0);
        for k in &kernels {
            if let Some(&(s, e)) = per_cell.get(&(*k, scheme.label())) {
                predicted += per_event * e as f64 * 1e-9;
                measured += s;
            }
        }
        if measured <= 0.0 {
            continue;
        }
        let residual = measured - predicted;
        v.insert(
            format!("core.ladder_residual_frac.{}", slug(scheme)),
            residual / measured,
        );
        rep.line(format!(
            "  {:<8} Σ {predicted:.4} s · measured {measured:.4} s · residual {residual:+.4} s ({:+.1}%)",
            scheme.label(),
            100.0 * residual / measured
        ));
    }
}

/// Exact simulator counts summed over the workload's results.
fn counts(results: &[RunResult], v: &mut BTreeMap<String, f64>, rep: &mut Report) {
    if results.is_empty() {
        return;
    }
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>();
    let issued = sum(&|r| r.prefetches_issued);
    let useful = sum(&|r| r.l2.useful_prefetches);
    for (name, value) in [
        ("mem.l1_accesses", sum(&|r| r.l1.demand_accesses)),
        ("mem.l2_demand_accesses", sum(&|r| r.l2.demand_accesses)),
        ("mem.l2_demand_misses", sum(&|r| r.l2.demand_misses)),
        ("mem.dram_blocks", sum(&|r| r.traffic.total_blocks())),
        ("mem.late_prefetch_merges", sum(&|r| r.late_prefetch_merges)),
        ("core.prefetches_issued", issued),
        ("core.useful_prefetches", useful),
    ] {
        v.insert(name.into(), value as f64);
    }
    let accuracy = if issued == 0 {
        0.0
    } else {
        useful as f64 / issued as f64
    };
    v.insert("core.prefetch_accuracy".into(), accuracy);
    rep.line(format!(
        "counts over {} results: prefetch accuracy {accuracy:.4} = {useful} useful / {issued} issued",
        results.len()
    ));
}

fn ns_per(seconds: f64, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        seconds / events as f64 * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let c = catalogue();
        let mut names: Vec<&str> = c.iter().map(|(n, _, _)| n.as_str()).collect();
        for n in &names {
            assert!(crate::valid_name(n), "{n}");
        }
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
        assert!(len <= 128);
    }
}

//! `paper-grid`: all 216 cells (18 kernels × 12 schemes) at small
//! scale through the fleet scheduler on two workers, with no trace
//! cache, rendered as the `all --json` document and byte-compared with
//! `results_small.json`.
//!
//! Set-up builds the 18 workloads (`Workload::build`) into the
//! scheduler's workload cache; the measured section is everything a
//! user then waits for: analysis, interpretation and replay of every
//! cell, and rendering the document. The traced run composes the same
//! pipeline from the public calls on two threads of its own, so it can
//! be split into layers, and checks it against the same reference.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use grp_bench::sched::{self, CellJob, WorkloadCache};
use grp_core::{RunResult, Scheme};
use grp_workloads::BuiltWorkload;

use crate::inputs::{self, Cell};
use crate::layers::{self, Sched};
use crate::pipeline::{self, SCALE};
use crate::report::Report;
use crate::tracer::Tracer;
use crate::{host, reference, stats, Ctx};

/// Worker threads (the host has two cores).
const WORKERS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

type Results = BTreeMap<(&'static str, usize), RunResult>;

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let cells = inputs::grid(ctx.seed);
    let names = inputs::kernels();
    let off = Tracer::off();

    let mut setups = Vec::new();
    let mut built = BTreeMap::new();
    for _ in 0..if ctx.traced { 1 } else { SETUP_REPEATS } {
        let t0 = Instant::now();
        built = build_all(&off, &names);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let cache = WorkloadCache::new();
    for (&k, b) in &built {
        cache.insert(k, SCALE, b.clone());
    }

    let mut walls = Vec::new();
    let mut cell_ms = Vec::new();
    let mut last_sched;
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let (results, sched) = scheduled_grid(&cells, &cache, &mut cell_ms, rep);
        check(ctx, &names, &results, rep);
        walls.push(t0.elapsed().as_secs_f64());
        last_sched = sched;
        if ctx.traced || !ctx.another_round(started, &walls) {
            break;
        }
    }
    let setup = rep.timing("setup: build 18 kernels", "s", &setups);
    let wall = rep.timing("grid wall", "s", &walls);
    let cell = rep.timing("cell submitted→delivered", "ms", &cell_ms);

    if ctx.traced {
        traced(ctx, &names, &cells, wall.median, last_sched, rep);
        return;
    }
    rep.metric("wall_s", "s", wall.median);
    rep.metric("setup_s", "s", setup.median);
    rep.metric("request_p50_ms", "ms", cell.median);
    rep.metric("request_p90_ms", "ms", stats::percentile(&cell_ms, 90.0));
    rep.metric(
        "peak_rss_mb",
        "MB",
        host::peak_rss_mb("self").unwrap_or(0.0),
    );
}

fn build_all(t: &Tracer, names: &[&'static str]) -> BTreeMap<&'static str, Arc<BuiltWorkload>> {
    names
        .iter()
        .map(|&k| (k, Arc::new(pipeline::build(t, k, None))))
        .collect()
}

/// One grid through `sched::run_cells`. All 216 cells are submitted at
/// once; each cell's latency, from submission to its result reaching
/// the caller, lands in `cell_ms`. Failed cells are counted in `rep`.
fn scheduled_grid(
    cells: &[Cell],
    cache: &WorkloadCache,
    cell_ms: &mut Vec<f64>,
    rep: &mut Report,
) -> (Results, Sched) {
    let jobs: Vec<CellJob> = cells
        .iter()
        .enumerate()
        .map(|(i, &(kernel, scheme))| CellJob {
            id: i as u64,
            kernel,
            scheme,
            scale: SCALE,
            cfg: pipeline::config(),
            deadline: None,
        })
        .collect();
    let mut results = Results::new();
    let mut waits = Vec::new();
    let submitted = Instant::now();
    let stats = sched::run_cells(&jobs, WORKERS, cache, |c| {
        waits.push(c.queue_micros as f64 / 1e3);
        match c.outcome {
            Ok(r) => {
                cell_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                results.insert((c.kernel, scheme_index(c.scheme)), r);
            }
            Err(e) => rep.fail(format!("{}/{}: {e}", c.kernel, c.scheme)),
        }
    });
    let util = (0..stats.workers)
        .map(|w| stats.utilization(w))
        .sum::<f64>()
        / stats.workers as f64;
    (
        results,
        Sched {
            queue_wait_ms: waits,
            worker_utilization: util,
            steals: stats.steals,
        },
    )
}

/// Checks each cell field for field and the whole document by bytes.
fn check(ctx: &Ctx, names: &[&'static str], results: &Results, rep: &mut Report) {
    for &k in names {
        let base = results.get(&(k, 0));
        for (i, _) in Scheme::ALL.iter().enumerate() {
            if let (Some(r), Some(b)) = (results.get(&(k, i)), base) {
                rep.attempt(ctx.reference.check(k, r, Some(b)));
            }
        }
    }
    match reference::render_grid(names, results) {
        Ok(doc) if doc == ctx.reference.text() => {}
        Ok(_) => rep.fail("grid document differs from the reference bytes".into()),
        Err(e) => rep.fail(format!("grid document incomplete: {e}")),
    }
}

fn traced(
    ctx: &Ctx,
    names: &[&'static str],
    cells: &[Cell],
    untraced_wall: f64,
    sched: Sched,
    rep: &mut Report,
) {
    let t = Tracer::on();
    let built = build_all(&t, names);
    let mut ordered: Vec<(u64, Cell)> = cells
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as u64, c))
        .collect();
    ordered.sort_by_key(|(_, (k, s))| std::cmp::Reverse(sched::cell_weight(k, *s)));
    let queue = Mutex::new(VecDeque::from(ordered));
    let results = Mutex::new(Results::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let Some((id, (k, scheme))) = queue.lock().expect("cell queue").pop_front() else {
                    return;
                };
                let _cell = t.span("cell", Some(id));
                let b = &built[k];
                let (trace, mem) = pipeline::interpret(&t, b, scheme, Some(id));
                let r = pipeline::replay(&t, &trace, &mem, b.heap, scheme, Some(id));
                results
                    .lock()
                    .expect("results")
                    .insert((k, scheme_index(scheme)), r);
            });
        }
    });
    let results = results.into_inner().expect("results");
    check(ctx, names, &results, rep);
    let wall = t0.elapsed().as_secs_f64();
    rep.line(format!(
        "traced grid wall {wall:.4} s (untraced median {untraced_wall:.4} s)"
    ));
    let spans = t.finish();
    let inp = layers::Inputs {
        spans: &spans,
        cells: cells
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64, c))
            .collect(),
        results: results.into_values().collect(),
        sched: Some(sched),
        overhead_s: wall - untraced_wall,
        ..Default::default()
    };
    layers::report(&inp, rep);
    ctx.write_spans(&spans, &inp.cells);
}

fn scheme_index(s: Scheme) -> usize {
    Scheme::ALL
        .iter()
        .position(|&x| x == s)
        .expect("scheme in Scheme::ALL")
}

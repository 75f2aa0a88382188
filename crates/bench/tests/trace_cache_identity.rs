//! Trace-cache identity gate over the full grid: every registered
//! kernel under every scheme, replayed from a warm trace cache through
//! the fleet scheduler (the path `serve --trace-cache` takes), must
//! produce results bit-identical to a plain [`BuiltWorkload::run`].
//! A warm hit decodes the on-disk entry and replays the packed stream
//! in place, so this covers the disk format and `PackedTrace::stream`
//! together. Any divergence in any counter of any cell fails with the
//! cell named.
//!
//! [`BuiltWorkload::run`]: grp_workloads::BuiltWorkload::run

use std::collections::HashMap;
use std::sync::Arc;

use grp_bench::sched::{self, ReplayMode, WorkloadCache};
use grp_bench::tracecache::TraceCache;
use grp_core::{RunResult, Scheme, SimConfig};
use grp_workloads::{all, Scale};

#[test]
fn warm_trace_cache_grid_matches_built_run_all_kernels_all_schemes() {
    let cfg = SimConfig::paper();
    let names: Vec<&'static str> = all().iter().map(|w| w.name).collect();
    assert_eq!(names.len(), 18, "grid covers the full registry");
    assert_eq!(Scheme::ALL.len(), 12, "grid covers every scheme");
    let jobs = sched::grid_jobs(&names, &Scheme::ALL, Scale::Test, cfg);

    let dir = std::env::temp_dir().join(format!("grp-tc-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mode = ReplayMode {
        trace_cache: Some(Arc::new(TraceCache::new(&dir))),
        telemetry: None,
    };
    let grid = |cache: &WorkloadCache| {
        let mut out: HashMap<(&'static str, Scheme), RunResult> = HashMap::new();
        let stats = sched::run_cells_ctl(&jobs, 2, cache, &mode, None, |cell| {
            let r = cell
                .outcome
                .unwrap_or_else(|e| panic!("{}/{} failed: {e}", cell.kernel, cell.scheme));
            out.insert((cell.kernel, cell.scheme), r);
        });
        assert_eq!(stats.cells, jobs.len());
        (out, stats)
    };

    let cold_builds = WorkloadCache::new();
    let (cold, cold_stats) = grid(&cold_builds);
    assert_eq!(
        cold_stats.interpretations,
        names.len() as u64,
        "cold fill interprets each kernel"
    );
    let warm_builds = WorkloadCache::new();
    let (warm, warm_stats) = grid(&warm_builds);
    assert_eq!(
        warm_stats.interpretations, 0,
        "a warm trace cache interprets nothing"
    );
    assert_eq!(
        warm_builds.built_count(),
        0,
        "a warm trace cache builds nothing"
    );

    for w in all() {
        let built = w.build(Scale::Test);
        for scheme in Scheme::ALL {
            let want = built.run(scheme, &cfg);
            assert_eq!(
                cold[&(w.name, scheme)],
                want,
                "{}/{scheme:?}: cold cell diverged",
                w.name
            );
            assert_eq!(
                warm[&(w.name, scheme)],
                want,
                "{}/{scheme:?}: warm trace-cache replay diverged",
                w.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

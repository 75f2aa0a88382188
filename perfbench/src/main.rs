//! The GRP simulator's benchmark: end-to-end host time, latency and
//! memory per workload, and an outside-in per-layer trace.
//!
//! ```text
//! bash perfbench/run.sh --workload <paper-grid|serve-warm>
//!     --seed <n> --seconds <s> --trace <0|1> [--perturb-reference]
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` makes the traced run and prints the per-layer
//! metrics. `--perturb-reference` adds one to the `cycles` of the reference
//! before checking, so the run must report a failure (the gate's teeth
//! check). Every run prints readable lines, then one JSON result line,
//! and keeps a copy of what it printed (plus the spans of a traced run)
//! under `perfbench/out/`. The exit code is 0 only when every output
//! matched the reference.

mod grid;
mod host;
mod inputs;
mod layers;
mod pipeline;
mod reference;
mod report;
mod serve;
mod stats;
mod tracer;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use grp_bench::json::Json;

use crate::inputs::Cell;
use crate::reference::Reference;
use crate::report::Report;
use crate::tracer::Span;

/// Runs one workload, recording into the report.
type Run = fn(&Ctx, &mut Report);

/// Workload names and what each one runs.
pub const WORKLOADS: [(&str, Run); 2] = [("paper-grid", grid::run), ("serve-warm", serve::run)];

/// Every end-to-end metric: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Where runs leave their outputs (ignored by git).
const OUT_DIR: &str = "perfbench/out";

/// What every workload gets.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub reference: Reference,
    pub serve_bin: PathBuf,
}

impl Ctx {
    /// Whether another repetition of the measured section still fits
    /// in `--seconds`, judged by the last one's duration.
    pub fn another_round(&self, started: Instant, walls: &[f64]) -> bool {
        let last = walls.last().copied().unwrap_or(0.0);
        started.elapsed().as_secs_f64() + last <= self.seconds
    }

    /// A fresh, empty directory under the output directory, unique to
    /// this process.
    pub fn work_dir(&self, what: &str) -> PathBuf {
        let dir = PathBuf::from(OUT_DIR).join(format!("{what}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Writes a traced run's spans as JSON lines.
    pub fn write_spans(&self, spans: &[Span], cells: &BTreeMap<u64, Cell>) {
        let mut out = String::new();
        for s in spans {
            let mut j = Json::object()
                .set("id", s.id)
                .set("name", s.name)
                .set("parent", s.parent.map_or(Json::Null, Json::UInt))
                .set("cell", s.cell.map_or(Json::Null, Json::UInt))
                .set("start_ns", s.start_ns)
                .set("end_ns", s.end_ns)
                .set("count", s.count);
            if let Some(&(k, scheme)) = s.cell.and_then(|c| cells.get(&c)) {
                j = j.set("kernel", k).set("scheme", scheme.label());
            }
            out.push_str(&j.render());
            out.push('\n');
        }
        let path =
            PathBuf::from(OUT_DIR).join(format!("{}-seed{}.spans.jsonl", self.workload, self.seed));
        if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, out)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

/// Metric names: letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    perturb: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let known = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--perturb-reference",
    ];
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--perturb-reference" => i += 1,
            a if known.contains(&a) => i += 2,
            a => return Err(format!("unknown argument {a}")),
        }
    }
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n == name)
        .ok_or_else(|| format!("unknown workload {name} (valid: paper-grid, serve-warm)"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let traced = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
        perturb: argv.iter().any(|a| a == "--perturb-reference"),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let fail = |e: String| -> ! {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    };
    let args = parse_args(&argv).unwrap_or_else(|e| fail(e));
    let mut reference = Reference::load(reference::PATH).unwrap_or_else(|e| fail(e));
    if reference.cell_count() != 18 * 12 {
        fail(format!(
            "{}: {} cells, expected 216",
            reference::PATH,
            reference.cell_count()
        ));
    }
    if args.perturb {
        reference = reference.perturbed();
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        reference,
        serve_bin: serve::binary().unwrap_or_else(|e| fail(e)),
    };

    let mut rep = Report::default();
    let fp = host::Fingerprint::collect(args.seed);
    let run = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .expect("parsed workload")
        .1;
    run(&ctx, &mut rep);

    let mut text = format!(
        "perfbench {} · seed {} · {} s · trace {}\n",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    for (k, v) in fp.fields() {
        text.push_str(&format!("host {k}: {v}\n"));
    }
    for l in rep.lines() {
        text.push_str(l);
        text.push('\n');
    }
    for (name, unit, value) in rep.metrics() {
        text.push_str(&format!(
            "metric {name} = {} {unit}\n",
            report::number(*value)
        ));
    }
    let frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    text.push_str(&format!(
        "checked {} operations against {}: {} failed (failed_frac {frac})\n",
        rep.attempted,
        reference::PATH,
        rep.failed
    ));
    for f in rep.failures() {
        text.push_str(&format!("FAIL {f}\n"));
    }
    print!("{text}");
    let path = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.txt",
        args.workload, args.seed, args.traced as u8
    ));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, &text)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{}", rep.result_line());
    if !rep.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use grp_bench::json::{run_result_json, Json};
    use grp_core::Scheme;
    use grp_workloads::Scale;

    use super::*;
    use crate::tracer::Tracer;

    /// Every cell of `kernels` at test scale, through the benchmark's
    /// own pipeline.
    fn test_grid(kernels: &[&'static str]) -> BTreeMap<(&'static str, usize), grp_core::RunResult> {
        let t = Tracer::off();
        let mut out = BTreeMap::new();
        for &k in kernels {
            let b = grp_workloads::by_name(k).unwrap().build(Scale::Test);
            for (i, &s) in Scheme::ALL.iter().enumerate() {
                let (trace, mem) = pipeline::interpret(&t, &b, s, None);
                out.insert((k, i), pipeline::replay(&t, &trace, &mem, b.heap, s, None));
            }
        }
        out
    }

    #[test]
    fn checkers_pass_a_matching_grid_and_fail_a_perturbed_reference() {
        let kernels = ["mesa", "mcf"];
        let results = test_grid(&kernels);
        let doc = reference::render_grid(&kernels, &results).unwrap();
        let good = Reference::parse(doc.clone()).unwrap();
        assert_eq!(good.text(), doc, "the grid checker compares bytes");
        assert_eq!(good.cell_count(), 24);
        for (&(k, _), r) in &results {
            let base = &results[&(k, 0)];
            assert!(
                good.check(k, r, Some(base)).is_empty(),
                "grid check {k}/{}",
                r.scheme
            );
            assert!(
                good.check(k, r, None).is_empty(),
                "cell check {k}/{}",
                r.scheme
            );
        }
        // A serve reply carries `run_result_json(r, None)` as its result.
        let r = &results[&("mcf", 2)];
        let reply = Json::object()
            .set("ok", true)
            .set("result", run_result_json(r, None));
        assert!(serve::check_reply(&good, ("mcf", r.scheme), &reply).is_empty());
        let refused = Json::object()
            .set("ok", false)
            .set("error", "overloaded: shed");
        assert_eq!(
            serve::check_reply(&good, ("mcf", r.scheme), &refused).len(),
            1
        );

        let bad = good.perturbed();
        assert_ne!(
            bad.text(),
            doc,
            "a perturbed reference fails the byte compare"
        );
        let failing: Vec<_> = results
            .iter()
            .filter(|(&(k, _), r)| !bad.check(k, r, Some(&results[&(k, 0)])).is_empty())
            .map(|(key, _)| *key)
            .collect();
        assert_eq!(failing, [("mesa", 0)], "exactly the perturbed cell fails");
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_this_code_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = list("end_to_end")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<(String, String, String)> = layers::catalogue()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(list("per_layer"), layers);
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|(n, _)| n.to_string()));
        for (n, _, _) in list("end_to_end").iter().chain(&list("per_layer")) {
            assert!(valid_name(n), "{n}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let a = parse_args(&argv(
            "pb --workload serve-warm --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.traced, a.perturb),
            ("serve-warm", 7, true, false)
        );
        assert!(parse_args(&argv("pb --workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "pb --workload paper-grid --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "pb --workload paper-grid --seed 1 --seconds 1 --trace 0 --bogus"
        ))
        .is_err());
        assert!(parse_args(&argv("pb --workload paper-grid --seed 1 --trace 0")).is_err());
        assert!(
            valid_name("core.engine.srp_ns_per_event") && !valid_name("a b") && !valid_name("")
        );
    }
}

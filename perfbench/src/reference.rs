//! The correctness gate: the committed `results_small.json` document.
//!
//! `paper-grid` compares its whole rendered document byte for byte and
//! each cell field for field; `serve-warm` compares each reply's
//! `run_result_json` fields. A field compares by its
//! rendered JSON text, so a number matches only if it prints the same.

use std::collections::BTreeMap;

use grp_bench::json::{run_result_json, Json};
use grp_core::{RunResult, Scheme};

/// Where the reference lives, relative to the repository root.
pub const PATH: &str = "results_small.json";

#[derive(Debug, Clone)]
pub struct Reference {
    text: String,
    cells: BTreeMap<(String, String), Json>,
}

impl Reference {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::parse(text).map_err(|e| format!("{path}: {e}"))
    }

    pub fn parse(text: String) -> Result<Self, String> {
        let doc = Json::parse(&text).map_err(|e| e.to_string())?;
        let mut cells = BTreeMap::new();
        for bench in doc
            .get("benchmarks")
            .and_then(Json::as_array)
            .ok_or("no benchmarks array")?
        {
            let name = bench
                .get("bench")
                .and_then(Json::as_str)
                .ok_or("benchmark without a name")?;
            for run in bench
                .get("runs")
                .and_then(Json::as_array)
                .ok_or("benchmark without runs")?
            {
                let scheme = run
                    .get("scheme")
                    .and_then(Json::as_str)
                    .ok_or("run without a scheme")?;
                cells.insert((name.to_string(), scheme.to_string()), run.clone());
            }
        }
        Ok(Self { text, cells })
    }

    /// The document's exact bytes.
    pub fn text(&self) -> &str {
        &self.text
    }

    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The fields of `actual` that differ from (or are missing in) the
    /// reference cell `(bench, scheme)`; empty when they all match.
    pub fn mismatches(&self, bench: &str, scheme: Scheme, actual: &Json) -> Vec<String> {
        let Some(want) = self
            .cells
            .get(&(bench.to_string(), scheme.label().to_string()))
        else {
            return vec![format!("{bench}/{scheme}: no reference cell")];
        };
        let mut out = Vec::new();
        for (key, got) in actual.entries().unwrap_or(&[]) {
            match want.get(key) {
                Some(w) if w.render() == got.render() => {}
                Some(w) => out.push(format!(
                    "{bench}/{scheme}.{key}: got {} want {}",
                    got.render(),
                    w.render()
                )),
                None => out.push(format!("{bench}/{scheme}.{key}: not in the reference")),
            }
        }
        out
    }

    /// [`Reference::mismatches`] for a fresh result, with its
    /// baseline-relative fields when `base` is given.
    pub fn check(&self, bench: &str, r: &RunResult, base: Option<&RunResult>) -> Vec<String> {
        self.mismatches(bench, r.scheme, &run_result_json(r, base))
    }

    /// A copy with one field changed, for the gate's teeth check: the
    /// `cycles` of the document's first cell (gzip under `none`, which
    /// every workload checks) plus one. A run against it must fail.
    pub fn perturbed(&self) -> Self {
        let mut doc = Json::parse(&self.text).expect("reference parsed once already");
        let first_run = field(&mut doc, "benchmarks")
            .and_then(|b| first(b))
            .and_then(|b| field(b, "runs"))
            .and_then(|r| first(r))
            .and_then(|r| field(r, "cycles"))
            .expect("reference has a first cell with cycles");
        *first_run = Json::UInt(first_run.as_u64().unwrap_or(0) + 1);
        Self::parse(doc.render()).expect("perturbed reference re-parses")
    }
}

fn field<'a>(j: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match j {
        Json::Object(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn first(j: &mut Json) -> Option<&mut Json> {
    match j {
        Json::Array(items) => items.first_mut(),
        _ => None,
    }
}

/// The `all --json` document for a full grid, in registry order with
/// every run relative to its kernel's no-prefetch baseline.
pub fn render_grid(
    names: &[&'static str],
    results: &BTreeMap<(&'static str, usize), RunResult>,
) -> Result<String, String> {
    let mut benches = Vec::new();
    for &name in names {
        let slot = |i: usize| {
            results
                .get(&(name, i))
                .ok_or_else(|| format!("{name}/{}: no result", Scheme::ALL[i]))
        };
        let base = slot(0)?;
        let mut runs = Vec::new();
        for i in 0..Scheme::ALL.len() {
            runs.push(run_result_json(slot(i)?, Some(base)));
        }
        benches.push(
            Json::object()
                .set("bench", name)
                .set("runs", Json::Array(runs)),
        );
    }
    let doc = Json::object()
        .set("scale", format!("{:?}", grp_bench::SuiteScale::Small))
        .set("benchmarks", Json::Array(benches));
    Ok(doc.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"scale":"Small","benchmarks":[{"bench":"k","runs":[{"scheme":"none","cycles":10,"ipc":0.5},{"scheme":"SRP","cycles":8,"ipc":0.625}]}]}"#;

    #[test]
    fn matching_cells_pass_and_a_perturbed_field_fails() {
        let r = Reference::parse(DOC.to_string()).unwrap();
        assert_eq!(r.cell_count(), 2);
        let good = Json::object()
            .set("scheme", "SRP")
            .set("cycles", 8u64)
            .set("ipc", 0.625);
        assert!(r.mismatches("k", Scheme::Srp, &good).is_empty());
        let bad = r.perturbed();
        assert_ne!(bad.text(), r.text());
        assert!(bad.mismatches("k", Scheme::Srp, &good).is_empty());
        let base = Json::object().set("scheme", "none").set("cycles", 10u64);
        let m = bad.mismatches("k", Scheme::NoPrefetch, &base);
        assert_eq!(m.len(), 1, "{m:?}");
        assert!(m[0].contains("cycles"));
    }

    #[test]
    fn unknown_cells_and_fields_fail() {
        let r = Reference::parse(DOC.to_string()).unwrap();
        assert_eq!(r.mismatches("nope", Scheme::Srp, &Json::object()).len(), 1);
        let extra = Json::object().set("bogus", 1u64);
        assert_eq!(r.mismatches("k", Scheme::Srp, &extra).len(), 1);
    }
}

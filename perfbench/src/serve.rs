//! `serve-warm`: the real `serve --scale small --jobs 2 --trace-cache
//! <dir>` binary, driven closed-loop by one client with one single-job
//! request outstanding at a time.
//!
//! Set-up starts `serve` on an empty cache and sends, the same way, one
//! cell per trace-cache entry the seeded stream touches, which takes the
//! cache's write path (interpret, pack, store). The timed
//! stream then takes the read path (load, decode, replay) on every
//! request, bypassing interpretation.
//!
//! The traced run fills a cache in-process through the same public
//! calls, measures `serve`'s per-request overhead on it, and replays the
//! stream in-process through `TraceCache::load` + replay, once untraced
//! and once traced.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use grp_bench::json::Json;
use grp_bench::tracecache::TraceCache;
use grp_core::RunResult;

use crate::inputs::{self, Cell};
use crate::layers;
use crate::pipeline;
use crate::reference::Reference;
use crate::report::Report;
use crate::stats;
use crate::tracer::Tracer;
use crate::Ctx;

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let stream = inputs::stream(ctx.seed, inputs::STREAM_LEN);
    let fill = inputs::cache_fill(&stream);
    rep.line(format!(
        "stream: {} requests over {} trace-cache entries",
        stream.len(),
        fill.len()
    ));
    if ctx.traced {
        traced(ctx, &stream, &fill, rep);
        return;
    }
    let dir = ctx.work_dir("serve-cache");
    let outcome = (|| -> Result<(), String> {
        let t0 = Instant::now();
        let mut serve = Serve::start(&ctx.serve_bin, &dir)?;
        for &c in &fill {
            serve.request(ctx, c, rep)?;
        }
        let setup_s = t0.elapsed().as_secs_f64();
        let streams = serve_streams(ctx, &mut serve, &stream, rep)?;
        let rss = serve.peak_rss_mb();
        serve.drain()?;
        rep.timing("setup: start + fill cache", "s", &[setup_s]);
        let wall = rep.timing("stream wall", "s", &streams.walls);
        let lat = rep.timing("request latency", "ms", &streams.latency_ms);
        rep.metric("wall_s", "s", wall.median);
        rep.metric("setup_s", "s", setup_s);
        rep.metric("request_p50_ms", "ms", lat.median);
        rep.metric(
            "request_p90_ms",
            "ms",
            stats::percentile(&streams.latency_ms, 90.0),
        );
        rep.metric("peak_rss_mb", "MB", rss);
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = outcome {
        rep.fail(e);
    }
}

/// What the timed streams through `serve` measured.
#[derive(Debug, Default)]
struct Streams {
    walls: Vec<f64>,
    latency_ms: Vec<f64>,
    /// Latency minus the reply's own `replay_seconds`.
    overhead_ms: Vec<f64>,
}

/// Repeats the timed stream while the run's time allows.
fn serve_streams(
    ctx: &Ctx,
    serve: &mut Serve,
    stream: &[Cell],
    rep: &mut Report,
) -> Result<Streams, String> {
    let mut out = Streams::default();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        for &c in stream {
            let (ms, replay_s) = serve.request(ctx, c, rep)?;
            out.latency_ms.push(ms);
            out.overhead_ms.push(ms - replay_s * 1e3);
        }
        out.walls.push(t0.elapsed().as_secs_f64());
        if ctx.traced || !ctx.another_round(started, &out.walls) {
            return Ok(out);
        }
    }
}

fn traced(ctx: &Ctx, stream: &[Cell], fill: &[Cell], rep: &mut Report) {
    let dir = ctx.work_dir("traced-cache");
    let t = Tracer::on();
    let cache = TraceCache::new(&dir);
    let mut cells: BTreeMap<u64, Cell> = BTreeMap::new();
    let (mut hits, mut misses) = (0u64, 0u64);

    // Set-up: the cache fill, as `serve` runs a cold request.
    let mut built = BTreeMap::new();
    for (i, &(k, scheme)) in fill.iter().enumerate() {
        let id = Some(i as u64);
        cells.insert(i as u64, (k, scheme));
        let _cell = t.span("request", id);
        let (trace, mem, heap) = match pipeline::load(&t, &cache, (k, scheme), id) {
            Some(hit) => {
                hits += 1;
                hit
            }
            None => {
                misses += 1;
                let b = built.entry(k).or_insert_with(|| pipeline::build(&t, k, id));
                let (trace, mem) = pipeline::interpret(&t, b, scheme, id);
                if let Err(e) =
                    pipeline::pack_store(&t, &cache, (k, scheme), &trace, &mem, b.heap, id)
                {
                    rep.fail(e);
                }
                (trace, mem, b.heap)
            }
        };
        let r = pipeline::replay(&t, &trace, &mem, heap, scheme, id);
        rep.attempt(ctx.reference.check(k, &r, None));
    }
    drop(built);

    // `serve` on the warm cache: its per-request overhead.
    let served = Serve::start(&ctx.serve_bin, &dir).and_then(|mut s| {
        let out = serve_streams(ctx, &mut s, stream, rep);
        s.drain()?;
        out
    });
    let served = served.unwrap_or_else(|e| {
        rep.fail(e);
        Streams::default()
    });
    rep.timing("serve stream wall", "s", &served.walls);
    rep.timing("serve request latency", "ms", &served.latency_ms);

    // The same stream in-process, untraced and then traced.
    let base = stream.len() as u64 * 10;
    let (untraced_wall, _) =
        local_stream(ctx, &Tracer::off(), &cache, stream, base, &mut cells, rep);
    let (wall, results) = local_stream(ctx, &t, &cache, stream, base, &mut cells, rep);
    hits += results.len() as u64;
    rep.line(format!(
        "in-process stream wall: traced {wall:.4} s, untraced {untraced_wall:.4} s"
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let spans = t.finish();
    let inp = layers::Inputs {
        spans: &spans,
        cells,
        results,
        cache_hits: hits,
        cache_misses: misses,
        serve_overhead_ms: served.overhead_ms,
        overhead_s: wall - untraced_wall,
        ..Default::default()
    };
    layers::report(&inp, rep);
    ctx.write_spans(&spans, &inp.cells);
}

/// Replays the stream through the cache's read path; every request
/// must hit. Returns the wall time and the results.
fn local_stream(
    ctx: &Ctx,
    t: &Tracer,
    cache: &TraceCache,
    stream: &[Cell],
    base: u64,
    cells: &mut BTreeMap<u64, Cell>,
    rep: &mut Report,
) -> (f64, Vec<RunResult>) {
    let mut results = Vec::new();
    let t0 = Instant::now();
    for (i, &(k, scheme)) in stream.iter().enumerate() {
        let id = base + i as u64;
        cells.insert(id, (k, scheme));
        let _req = t.span("request", Some(id));
        let Some((trace, mem, heap)) = pipeline::load(t, cache, (k, scheme), Some(id)) else {
            rep.fail(format!("{k}/{scheme}: trace-cache miss on a warm cache"));
            continue;
        };
        let r = pipeline::replay(t, &trace, &mem, heap, scheme, Some(id));
        rep.attempt(ctx.reference.check(k, &r, None));
        results.push(r);
    }
    (t0.elapsed().as_secs_f64(), results)
}

/// A running `serve` child on stdin/stdout. Dropping it kills and
/// reaps the child; [`Serve::drain`] is the clean shutdown.
struct Serve {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    next_id: u64,
}

impl Serve {
    fn start(bin: &Path, cache: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args([
                "--scale",
                "small",
                "--jobs",
                "2",
                "--log-level",
                "warn",
                "--trace-cache",
            ])
            .arg(cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{}: cannot start: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Self {
            child,
            stdin,
            stdout,
            next_id: 0,
        })
    }

    fn reply(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("serve closed its output".into()),
            Ok(_) => Json::parse(line.trim()).map_err(|e| format!("serve reply: {e}")),
            Err(e) => Err(format!("serve reply: {e}")),
        }
    }

    /// One single-job request, checked against the reference. Returns
    /// the latency from writing it to reading its reply, in ms, and the
    /// reply's `replay_seconds`.
    fn request(
        &mut self,
        ctx: &Ctx,
        (k, scheme): Cell,
        rep: &mut Report,
    ) -> Result<(f64, f64), String> {
        self.next_id += 1;
        let line = format!(
            "{{\"id\":{},\"kernel\":\"{k}\",\"scheme\":\"{}\"}}\n\n",
            self.next_id,
            scheme.label()
        );
        let t0 = Instant::now();
        self.send(&line)?;
        let reply = self.reply()?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut problems = check_reply(&ctx.reference, (k, scheme), &reply);
        if reply.get("id").and_then(Json::as_u64) != Some(self.next_id) {
            problems.push(format!("{k}/{scheme}: reply for another request"));
        }
        rep.attempt(problems);
        let replay_s = reply
            .get("replay_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        Ok((ms, replay_s))
    }

    fn send(&mut self, text: &str) -> Result<(), String> {
        self.stdin
            .write_all(text.as_bytes())
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("serve request: {e}"))
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::host::peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Sends the drain probe, reads its acknowledgement, and waits for
    /// the process to exit 0.
    fn drain(mut self) -> Result<(), String> {
        self.send("{\"drain\":true}\n")?;
        let ack = self.reply()?;
        if ack.get("drain").and_then(Json::as_bool) != Some(true) {
            return Err(format!("serve drain: unexpected reply {}", ack.render()));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                Ok(None) => return Err("serve did not exit after drain".into()),
                Err(e) => return Err(format!("serve wait: {e}")),
            }
        }
    }
}

/// Problems with one `serve` reply: not `ok`, or a result that differs
/// from the reference.
pub fn check_reply(reference: &Reference, (k, scheme): Cell, reply: &Json) -> Vec<String> {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let err = reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no error text");
        return vec![format!("{k}/{scheme}: reply not ok: {err}")];
    }
    match reply.get("result") {
        Some(result) => reference.mismatches(k, scheme, result),
        None => vec![format!("{k}/{scheme}: reply without a result")],
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `serve`'s path: next to this benchmark's executable (both are built
/// into the same target directory).
pub fn binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{}: not built (run the benchmark through perfbench/run.sh)",
            bin.display()
        ))
    }
}

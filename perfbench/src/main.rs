//! The repository benchmark: closed-loop workloads against the public
//! `swole` API, every output checked, end-to-end metrics from an untraced
//! run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <olap_tpch|serve_cached|adhoc_reload> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! host and engine configuration the numbers came from. A traced run also
//! writes its spans to `.bench_out/`.

mod adhoc;
mod harness;
mod host;
mod olap;
mod probe;
mod rs;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::exit;
use std::time::{Duration, Instant};

use swole::prelude::*;

use harness::{LoopOut, Report};
use probe::Stmt;

/// Spans written per client thread; the rest stay in memory only.
const SPANS_WRITTEN: usize = 10_000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Time one set-up, print its seconds and exit (used by
    /// [`harness::setup_seconds`]).
    pub setup_only: bool,
}

/// One workload: its set-up, oracle, closed loop and probes.
pub trait Workload: Sized + Sync {
    /// Tail percentile of `latency_tail_us`, in basis points.
    const TAIL_BP: u32;
    /// Set-ups timed per run for `setup_s`, each in a fresh process.
    const SETUP_REPS: usize;
    /// Whether the closed loop itself reloads tables; otherwise
    /// `write_p50_ms` comes from idle reloads after the loop.
    const RELOADS_IN_LOOP: bool = false;
    /// Precomputed answers the loop checks results against.
    type Answers: Sync;

    /// Generate the data from `seed`, build the database and the engine,
    /// and warm up.
    fn setup(seed: u64) -> Result<Self, String>;
    /// The session the probes run on.
    fn session(&self) -> &Session;
    /// Record sizes and client count.
    fn describe(&self, report: &mut Report);
    fn answers(&self, report: &mut Report) -> Result<Self::Answers, String>;
    fn run_loop(
        &self,
        answers: &Self::Answers,
        seed: u64,
        run_for: Duration,
        traced: bool,
    ) -> LoopOut;
    /// Reload the workload's fact table with no queries running; returns
    /// the `Engine::load_table` times in nanoseconds.
    fn idle_reloads(&self) -> Vec<u64>;
    /// The statements the layer probe times, with their answers.
    fn probe_stmts(&self, answers: &Self::Answers) -> Vec<Stmt>;
    /// The engine-floor metrics; by default on TPC-H data generated for
    /// the purpose.
    fn floor(
        &self,
        report: &mut Report,
        _answers: &Self::Answers,
        seed: u64,
    ) -> Result<(), String> {
        olap::floor_probe(report, seed)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--setup-only" => args.setup_only = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Record the engine settings the numbers depend on. The verify level is
/// `VerifyLevel::default_for_build()`, which `Engine::builder` applies and
/// the engine does not report back.
fn note_engine(report: &mut Report, engine: &Engine, sample: &QueryResult) {
    report.note("engine_threads", engine.threads());
    report.note("engine_worker_pool", engine.uses_worker_pool());
    report.note("engine_pool_workers", engine.live_pool_workers());
    report.note("verify_level", VerifyLevel::default_for_build());
    report.note("stats_mode", engine.stats_mode().name());
    report.note(
        "metrics_level",
        sample.metrics().map_or("off", |m| m.level.name()),
    );
}

/// Metrics shared by every traced run: plan-cache hit ratio over the
/// untraced half, the time each operation spent outside its layer calls,
/// and how much tracing slowed the loop.
fn trace_metrics(
    report: &mut Report,
    plain: &LoopOut,
    traced: LoopOut,
    cache0: &PlanCacheStats,
    cache1: &PlanCacheStats,
) {
    report.attempted += plain.attempted + traced.attempted;
    report.failed += plain.failed + traced.failed;
    let hits = cache1.hits - cache0.hits;
    let lookups = hits + cache1.misses - cache0.misses;
    report.note("plan_cache_lookups", lookups);
    report.metric(
        "plan.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    let unattributed: Vec<f64> = traced
        .spans
        .iter()
        .flat_map(|spans| {
            spans
                .iter()
                .zip(trace::self_times(spans))
                .filter(|(s, _)| s.parent.is_none())
                .map(|(_, t)| t as f64)
        })
        .collect();
    report.metric(
        "trace.unattributed_us",
        stats::median(&unattributed) / 1e3,
        "us",
    );
    report.metric(
        "trace.overhead_frac",
        1.0 - traced.throughput() / plain.throughput(),
        "ratio",
    );
    report.spans = traced.spans;
}

/// Run one workload: an untraced run for the end-to-end metrics, or a
/// traced one for the per-layer metrics.
fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let started = Instant::now();
    let setup_s = if args.trace {
        None
    } else {
        Some(harness::setup_seconds(args, W::SETUP_REPS)?)
    };
    report.note("setup_processes_s", started.elapsed().as_secs_f64());
    let w = W::setup(args.seed)?;
    w.describe(&mut report);
    let t0 = Instant::now();
    let answers = w.answers(&mut report)?;
    report.note("oracle_s", t0.elapsed().as_secs_f64());
    let sample = w.probe_stmts(&answers).swap_remove(0);
    let sample = w
        .session()
        .query_sql(&sample.sql, &sample.params)
        .map_err(|e| e.to_string())?;
    note_engine(&mut report, w.session().engine(), &sample);
    let run_for = Duration::from_secs(args.seconds);
    if let Some(setup_s) = setup_s {
        report.note("setup_reps", W::SETUP_REPS);
        let t0 = Instant::now();
        let out = w.run_loop(&answers, args.seed, run_for, false);
        report.note("loop_s", t0.elapsed().as_secs_f64());
        let peak_rss_mb = host::peak_rss_mb();
        report.attempted += out.attempted;
        report.failed += out.failed;
        let writes = if W::RELOADS_IN_LOOP {
            out.writes_ns.clone()
        } else {
            w.idle_reloads()
        };
        harness::end_to_end(&mut report, &out, W::TAIL_BP, &writes, setup_s, peak_rss_mb);
        report.note("run_s", started.elapsed().as_secs_f64());
        return Ok(report);
    }
    let engine = w.session().engine();
    let cache0 = engine.plan_cache_stats();
    let plain = w.run_loop(&answers, args.seed, run_for / 2, false);
    let cache1 = engine.plan_cache_stats();
    // Another seed, so that the traced half does not replay the plain
    // half's queries into a warm cache.
    let traced = w.run_loop(&answers, args.seed ^ 1, run_for / 2, true);
    trace_metrics(&mut report, &plain, traced, &cache0, &cache1);
    probe::layer_probe(&mut report, w.session(), &w.probe_stmts(&answers));
    w.floor(&mut report, &answers, args.seed)?;
    let mut loads = w.idle_reloads();
    loads.sort_unstable();
    report.metric(
        "storage.load_table_ms",
        stats::percentile(&loads, 5000) as f64 / 1e6,
        "ms",
    );
    report.note("run_s", started.elapsed().as_secs_f64());
    Ok(report)
}

/// With `--setup-only 1`, time one set-up of `W`, print its seconds and
/// return `None`; otherwise run the workload.
fn entry<W: Workload>(args: &Args) -> Result<Option<Report>, String> {
    if !args.setup_only {
        return run::<W>(args).map(Some);
    }
    let t0 = Instant::now();
    let w = W::setup(args.seed)?;
    println!("{}", t0.elapsed().as_secs_f64());
    drop(w);
    Ok(None)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        exit(2);
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    let result = match args.workload.as_str() {
        "olap_tpch" => entry::<olap::Olap>(&args),
        "serve_cached" => entry::<serve::Serve>(&args),
        "adhoc_reload" => entry::<adhoc::Adhoc>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            exit(2);
        }
    };
    let report = match result {
        Ok(Some(report)) => report,
        Ok(None) => return,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number", bad.name);
        exit(1);
    }

    let mut config = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("nproc".to_string(), host::nproc().to_string()),
        ("cpu_model".to_string(), host::cpu_model()),
        ("rustc".to_string(), host::RUSTC.to_string()),
    ];
    config.extend(report.config.iter().cloned());
    if args.trace {
        let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|_| std::fs::write(&path, trace::to_jsonl(&report.spans, SPANS_WRITTEN)));
        match written {
            Ok(()) => config.push(("spans_file".to_string(), path)),
            Err(e) => eprintln!("perfbench: writing {path}: {e}"),
        }
    }
    let fields: Vec<String> = config
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"config\": {{{}}}}}", fields.join(", "));

    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

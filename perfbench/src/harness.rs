//! Closed-loop clients, set-up timing and the end-to-end metrics every
//! workload reports.

use std::process::{Command, Stdio};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use crate::trace::{Recorder, Span};
use crate::{host, stats, Args};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Configuration and sample counts recorded with the result.
    pub config: Vec<(String, String)>,
    /// Spans of the traced run, one list per client thread.
    pub spans: Vec<Vec<Span>>,
}

impl Report {
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Count a correctness check outside the closed loop.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

/// How an operation ended.
pub enum Done<T> {
    /// A query; its latency is the whole operation and `T` is checked.
    Read(T),
    /// A table reload taking `ns` nanoseconds inside the engine.
    Write { ns: u64 },
}

/// Per-client state handed to each operation.
pub struct Client {
    pub id: usize,
    /// Operations this client issued before the current one.
    pub n: u64,
    rec: Option<Recorder>,
    root: Option<usize>,
}

impl Client {
    fn request(&self) -> u64 {
        ((self.id as u64) << 48) | self.n
    }

    /// Run `f` as one call into a layer: a child span of the current
    /// operation when tracing, a plain call otherwise.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let request = self.request();
        match self.rec.as_mut() {
            None => f(),
            Some(rec) => {
                let id = rec.open(name, self.root, request);
                let out = f();
                rec.close(id);
                out
            }
        }
    }

    pub fn traced(&self) -> bool {
        self.rec.is_some()
    }
}

/// Equal time windows a closed loop is cut into. Per-window figures are
/// summarised by their median, so a burst of interference from outside
/// the process moves at most the windows it falls in.
pub const WINDOWS: usize = 10;

/// Query latencies kept per window and client. Beyond this a uniform
/// sample is kept (reservoir sampling), so the memory the benchmark itself
/// holds does not grow with throughput and `peak_rss_mb` stays the
/// engine's.
const KEPT_PER_WINDOW: usize = 20_000;

/// Samples of one window.
#[derive(Debug, Default)]
pub struct Window {
    /// Queries that completed in the window.
    pub reads: u64,
    /// Latencies of those queries, or a uniform sample of them; ascending
    /// once the loop has ended.
    pub sample_ns: Vec<u64>,
    /// Reloads that completed in the window.
    pub writes: u64,
    /// Process CPU seconds spent during the window.
    pub cpu_s: f64,
}

impl Window {
    fn with_capacity() -> Window {
        Window {
            sample_ns: Vec::with_capacity(KEPT_PER_WINDOW),
            ..Window::default()
        }
    }

    /// Record a query latency; `rng` is the client's xorshift state.
    fn read(&mut self, ns: u64, rng: &mut u64) {
        self.reads += 1;
        if self.sample_ns.len() < KEPT_PER_WINDOW {
            self.sample_ns.push(ns);
        } else {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            let j = (*rng % self.reads) as usize;
            if j < KEPT_PER_WINDOW {
                self.sample_ns[j] = ns;
            }
        }
    }
}

/// Outcome of a closed loop.
pub struct LoopOut {
    pub windows: Vec<Window>,
    /// Window length in seconds.
    pub window_s: f64,
    /// Reload latencies, ascending.
    pub writes_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Vec<Span>>,
}

impl LoopOut {
    /// Median over windows of the queries completed per second.
    pub fn throughput(&self) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.reads as f64 / self.window_s)
            .collect();
        stats::median(&per_window)
    }

    /// Median over windows of each window's percentile `bp`, in ns.
    pub fn latency(&self, bp: u32) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.sample_ns.is_empty())
            .map(|w| stats::percentile(&w.sample_ns, bp) as f64)
            .collect();
        stats::median(&per_window)
    }

    /// Fewest latency samples held for one window.
    pub fn min_window_samples(&self) -> usize {
        self.windows
            .iter()
            .map(|w| w.sample_ns.len())
            .min()
            .unwrap_or(0)
    }
}

/// Run `clients` closed-loop clients for `run_for`: each sends its next
/// operation only after the previous one returned. `op` is timed; `check`
/// validates a query's output afterwards, outside the timing. A failed
/// operation or check counts in `failed`. Operations are binned into
/// [`WINDOWS`] windows by completion time; the few that complete after the
/// last window count as attempted but not in any window.
pub fn closed_loop<T, Op, Check>(
    clients: usize,
    run_for: Duration,
    traced: bool,
    op: Op,
    check: Check,
) -> LoopOut
where
    Op: Fn(&mut Client) -> Result<Done<T>, String> + Sync,
    Check: Fn(usize, T) -> Result<(), String> + Sync,
{
    let barrier = Barrier::new(clients + 1);
    let epoch = Instant::now();
    let window = run_for / WINDOWS as u32;
    let (op, check, barrier) = (&op, &check, &barrier);
    let (per_client, cpu_marks) = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                s.spawn(move || {
                    let mut c = Client {
                        id,
                        n: 0,
                        rec: traced.then(|| Recorder::new(epoch)),
                        root: None,
                    };
                    let mut windows: Vec<Window> =
                        (0..WINDOWS).map(|_| Window::with_capacity()).collect();
                    let mut rng = 0x9e37_79b9_7f4a_7c15 ^ id as u64;
                    let mut writes_ns = Vec::new();
                    let mut failed = 0u64;
                    barrier.wait();
                    let start = Instant::now();
                    while start.elapsed() < run_for {
                        let request = c.request();
                        c.root = c.rec.as_mut().map(|r| r.open("op", None, request));
                        let t0 = Instant::now();
                        let done = op(&mut c);
                        let ns = t0.elapsed().as_nanos() as u64;
                        if let (Some(rec), Some(root)) = (c.rec.as_mut(), c.root) {
                            rec.close(root);
                        }
                        let slot = (start.elapsed().as_nanos() / window.as_nanos().max(1)) as usize;
                        let verdict = match done {
                            Ok(Done::Read(out)) => {
                                if let Some(w) = windows.get_mut(slot) {
                                    w.read(ns, &mut rng);
                                }
                                check(id, out)
                            }
                            Ok(Done::Write { ns }) => {
                                if let Some(w) = windows.get_mut(slot) {
                                    w.writes += 1;
                                }
                                writes_ns.push(ns);
                                Ok(())
                            }
                            Err(e) => Err(e),
                        };
                        if let Err(e) = verdict {
                            failed += 1;
                            if failed <= 5 {
                                eprintln!("perfbench: client {id} op {}: {e}", c.n);
                            }
                        }
                        c.n += 1;
                    }
                    let spans = c.rec.map(Recorder::into_spans).unwrap_or_default();
                    (windows, writes_ns, failed, c.n, spans)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let mut cpu_marks = vec![host::cpu_seconds()];
        for i in 1..=WINDOWS as u32 {
            thread::sleep((start + window * i).saturating_duration_since(Instant::now()));
            cpu_marks.push(host::cpu_seconds());
        }
        let per_client: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (per_client, cpu_marks)
    });
    let mut out = LoopOut {
        windows: (0..WINDOWS).map(|_| Window::default()).collect(),
        window_s: window.as_secs_f64(),
        writes_ns: Vec::new(),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    for (windows, writes_ns, failed, n, spans) in per_client {
        for (all, w) in out.windows.iter_mut().zip(windows) {
            all.reads += w.reads;
            all.sample_ns.extend(w.sample_ns);
            all.writes += w.writes;
        }
        out.writes_ns.extend(writes_ns);
        out.failed += failed;
        out.attempted += n;
        out.spans.push(spans);
    }
    for (w, cpu) in out.windows.iter_mut().zip(cpu_marks.windows(2)) {
        w.sample_ns.sort_unstable();
        w.cpu_s = cpu[1] - cpu[0];
    }
    out.writes_ns.sort_unstable();
    out
}

/// Median set-up time in seconds over `reps` fresh processes. Each runs
/// this binary with `--setup-only 1` for the same workload and seed and
/// prints its set-up seconds. A fresh process per set-up keeps one
/// set-up's allocator state out of the next and out of this process's
/// memory peak.
pub fn setup_seconds(args: &Args, reps: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let times = (0..reps)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", &args.workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--setup-only", "1"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up process: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up process failed: {}", out.status));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            text.trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up process printed {text:?}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(stats::median(&times))
}

/// The end-to-end metrics of an untraced run. `tail_bp` is the workload's
/// fixed tail percentile in basis points; `writes_ns` are the reload
/// latencies the workload measured; `peak_rss_mb` is read when the loop
/// ends.
pub fn end_to_end(
    report: &mut Report,
    out: &LoopOut,
    tail_bp: u32,
    writes_ns: &[u64],
    setup_s: f64,
    peak_rss_mb: f64,
) {
    let per_window = out.min_window_samples();
    let beyond = if per_window == 0 {
        0
    } else {
        stats::beyond(per_window, tail_bp)
    };
    let tail = stats::label(tail_bp);
    let reads: u64 = out.windows.iter().map(|w| w.reads).sum();
    report.note("query_samples", reads);
    report.note("windows", out.windows.len());
    report.note("min_window_latency_samples", per_window);
    report.note("write_samples", writes_ns.len());
    let window_qps: Vec<String> = out
        .windows
        .iter()
        .map(|w| format!("{:.0}", w.reads as f64 / out.window_s))
        .collect();
    report.note("window_qps", window_qps.join(" "));
    report.note("tail_percentile", &tail);
    report.note("tail_beyond_per_window", beyond);
    report.note(
        "tail_highest_supported_per_window",
        stats::highest_supported(per_window).map_or("none".to_string(), stats::label),
    );
    if beyond < stats::MIN_BEYOND {
        eprintln!(
            "perfbench: a window has only {beyond} samples beyond {tail}; the run is too short for it"
        );
    }
    let mut writes = writes_ns.to_vec();
    writes.sort_unstable();
    let cpu_per_op: Vec<f64> = out
        .windows
        .iter()
        .filter(|w| w.reads + w.writes > 0)
        .map(|w| w.cpu_s * 1e6 / (w.reads + w.writes) as f64)
        .collect();
    report.metric("throughput_qps", out.throughput(), "1/s");
    report.metric("latency_p50_us", out.latency(5000) / 1e3, "us");
    report.metric("latency_tail_us", out.latency(tail_bp) / 1e3, "us");
    report.metric(
        "write_p50_ms",
        stats::percentile(&writes, 5000) as f64 / 1e6,
        "ms",
    );
    report.metric("cpu_us_per_op", stats::median(&cpu_per_op), "us");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("setup_s", setup_s, "s");
}

/// Median wall time in nanoseconds of `f`: at least 5 calls, more until
/// about 50 ms have passed, at most 200. The first error stops it.
pub fn time_median<T, E>(mut f: impl FnMut() -> Result<T, E>) -> Result<(f64, T), E> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = std::hint::black_box(f()?);
        times.push(t0.elapsed().as_nanos() as f64);
        let enough = times.len() >= 5 && started.elapsed() >= Duration::from_millis(50);
        if enough || times.len() >= 200 {
            return Ok((stats::median(&times), out));
        }
    }
}

/// [`time_median`] of a call that cannot fail.
pub fn time_ok<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    match time_median(|| Ok::<T, std::convert::Infallible>(f())) {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

//! `ringbench`: the end-to-end and per-layer benchmark of the FFC engine.
//!
//! ```text
//! cargo run --release --manifest-path ringbench/Cargo.toml -- \
//!     --workload <churn|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for `--seconds`
//! seconds, checks the engine's outputs outside the timed region and
//! prints readable lines followed by one JSON line. With `--trace 0` the
//! JSON holds the end-to-end metrics; with `--trace 1` every other
//! operation is traced and the JSON holds the per-layer metrics.
//! `RATIONALE.md` explains the choice of workloads and metrics.

mod gen;
mod host;
mod reference;
mod stats;
mod trace;

mod churn;
mod serve;

use std::fmt::Write as _;
use std::time::Duration;

use stats::median;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Set-ups run before the measured pass; the rest run after it, so that
/// their median samples the host across the whole run.
const SETUP_BEFORE: usize = 8;

/// Room for the spans of one traced run.
const SPAN_CAPACITY: usize = 1 << 18;

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("mem_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("ffc.new_ms", "ms"),
    ("ffc.stats_ms_p50", "ms"),
    ("ffc.ring_ms_p50", "ms"),
    ("bitreach.forward_ms_p50", "ms"),
    ("bitreach.backward_ms_p50", "ms"),
    ("ffc.scratch_mb", "MiB"),
    ("session.reset_ms", "ms"),
    ("session.apply_us_p50", "us"),
    ("session.apply_us_p99", "us"),
    ("session.rebuilds", "count"),
    ("session.delta_frac", "ratio"),
    ("session.allocated_mb", "MiB"),
    ("session.level_mb", "MiB"),
    ("snapshot.publish_us_p50", "us"),
    ("snapshot.publish_us_p99", "us"),
    ("snapshot.ring_shared_frac", "ratio"),
    ("snapshot.membership_shared_frac", "ratio"),
    ("snapshot.levels_shared_frac", "ratio"),
    ("snapshot.reclaimed_frac", "ratio"),
    ("serve.start_ms", "ms"),
    ("serve.repair_us_p50", "us"),
    ("serve.publish_us_p50", "us"),
    ("serve.publish_us_p99", "us"),
    ("serve.wait_us_p50", "us"),
    ("serve.coalesced_frac", "ratio"),
    ("serve.batches", "count"),
    ("serve.queue_max", "count"),
    ("serve.visible_ms_p99", "ms"),
    ("serve.open_ms_p50", "ms"),
    ("serve.open_ms_p90", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("reader.reloads", "count"),
    ("reader.vs_frozen", "ratio"),
    ("reader.lookups_per_s", "1/s"),
    ("host.cpus", "count"),
    ("host.copy_gbps", "GB/s"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.untraced_ops", "count"),
    ("trace.traced_ops", "count"),
    ("checks.run", "count"),
];

/// The run's parameters, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Config {
    /// Measured time.
    #[must_use]
    pub fn phase(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed: a typed error, a mismatch against the
    /// reference or a missed deadline.
    pub failed: u64,
    /// Correctness checks run.
    pub checks: u64,
    /// A description of each failure (the first few are printed).
    pub failures: Vec<String>,
    /// Fingerprint of the results; repeats exactly for one seed.
    pub digest: u64,
    /// Named values; `main` picks the ones the mode reports.
    pub metrics: Vec<(&'static str, f64)>,
    /// Readable lines printed before the JSON.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.push((name, value));
    }

    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Records the result of one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Times of one set-up, in a fresh process.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Time to the first usable ring, s.
    pub total_s: f64,
    /// `Ffc::new`, ms.
    pub new_ms: f64,
    /// `RingMaintainer::reset` alone, ms.
    pub reset_ms: f64,
    /// `RingService::start` plus the first reader, ms (`serve` only).
    pub start_ms: f64,
}

/// Median of each set-up time over `times`.
#[must_use]
pub fn setup_medians(times: &[SetupTimes]) -> SetupTimes {
    let of = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    SetupTimes {
        total_s: of(|t| t.total_s),
        new_ms: of(|t| t.new_ms),
        reset_ms: of(|t| t.reset_ms),
        start_ms: of(|t| t.start_ms),
    }
}

/// One readable line with every set-up time and their median.
#[must_use]
fn setup_line(times: &[SetupTimes]) -> String {
    let all: Vec<String> = times.iter().map(|t| format!("{:.4}", t.total_s)).collect();
    format!(
        "setup_s: median {:.6} s of [{}] (n={}, one fresh process each)",
        setup_medians(times).total_s,
        all.join(", "),
        times.len()
    )
}

/// Runs the workload's set-up `reps` times, each in a fresh process so
/// that every rep starts from the same cold memory state (within one
/// process, later reps reuse memory earlier ones freed).
fn measure_setups(workload: &str, reps: usize) -> Result<Vec<SetupTimes>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..reps)
        .map(|_| {
            let child = std::process::Command::new(&exe)
                .args(["--setup-only", workload])
                .output()
                .map_err(|e| format!("set-up process: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let v: Vec<f64> = stdout
                .lines()
                .last()
                .and_then(|l| l.strip_prefix("setup-times "))
                .map(|l| l.split(' ').filter_map(|x| x.parse().ok()).collect())
                .unwrap_or_default();
            match (child.status.success(), v.as_slice()) {
                (true, &[total_s, new_ms, reset_ms, start_ms]) => Ok(SetupTimes {
                    total_s,
                    new_ms,
                    reset_ms,
                    start_ms,
                }),
                _ => Err(format!(
                    "set-up process failed ({}): {}",
                    child.status,
                    String::from_utf8_lossy(&child.stderr).trim()
                )),
            }
        })
        .collect()
}

/// Sets `setup_s` and the set-up rows of the traced run (`serve.start_ms`
/// reads 0 on `churn`) from every set-up's times, and describes them.
fn record_setups(out: &mut Outcome, times: &[SetupTimes]) {
    let m = setup_medians(times);
    out.set("setup_s", m.total_s);
    out.set("ffc.new_ms", m.new_ms);
    out.set("session.reset_ms", m.reset_ms);
    out.set("serve.start_ms", m.start_ms);
    out.lines.insert(0, setup_line(times));
}

/// Sets the end-to-end metrics of a closed-loop run from its operations'
/// latencies in ns, and describes them; `what` names the timed operation.
pub fn end_to_end(out: &mut Outcome, latency_ns: &[f64], what: &str) {
    let w = stats::windowed(latency_ns, stats::WINDOW_NS);
    let whole = stats::Dist::new(latency_ns.iter().map(|&t| t / 1e6).collect());
    out.set("ops_per_s", w.ops_per_s);
    out.set("latency_ms_p50", w.p50 / 1e6);
    out.set("latency_ms_p90", w.p90 / 1e6);
    out.set("mem_mb", host::peak_rss_mib());
    out.lines.push(format!(
        "{what}: medians of {} windows of {:.0} s: {:.1} ops/s, p50 {:.4} ms, p90 {:.4} ms",
        w.windows,
        stats::WINDOW_NS / 1e9,
        w.ops_per_s,
        w.p50 / 1e6,
        w.p90 / 1e6
    ));
    out.lines.push(format!(
        "{what}, whole run: {:.1} ops/s, {}",
        latency_ns.len() as f64 / (latency_ns.iter().sum::<f64>() / 1e9),
        whole.describe("ms")
    ));
}

/// Nanoseconds of a duration, as f64.
#[must_use]
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Where the traced run writes its spans.
fn span_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("ringbench/target"), Into::into);
    dir.join("ringbench-spans")
        .join(format!("{workload}-{seed}.tsv"))
}

fn usage(msg: &str) -> ! {
    eprintln!("ringbench: {msg}");
    eprintln!("usage: ringbench --workload <churn|serve> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> (String, Config) {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds (0 < s <= 600) and --trace (0 or 1) are required")
    };
    (
        workload,
        Config {
            seed,
            seconds,
            trace,
        },
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::from("0")
    }
}

type Run = fn(&Config, Option<&mut Tracer>) -> Outcome;

fn workload_fns(name: &str) -> (Run, fn() -> Result<SetupTimes, String>) {
    match name {
        "churn" => (churn::run, churn::setup_times),
        "serve" => (serve::run, serve::setup_times),
        other => usage(&format!("unknown workload {other}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload] = args.as_slice() {
        if flag == "--setup-only" {
            match (workload_fns(workload).1)() {
                Ok(t) => println!(
                    "setup-times {} {} {} {}",
                    t.total_s, t.new_ms, t.reset_ms, t.start_ms
                ),
                Err(e) => {
                    eprintln!("ringbench: {e}");
                    std::process::exit(1);
                }
            }
            return;
        }
    }
    let (workload, cfg) = parse_args(&args);
    let (run, _) = workload_fns(&workload);

    let fp = host::fingerprint();
    let calib_ms = host::calib_ms();

    let mut tracer = cfg.trace.then(|| Tracer::new(SPAN_CAPACITY));
    let mut out = match measure_setups(&workload, SETUP_BEFORE) {
        Ok(before) => {
            let mut out = run(&cfg, tracer.as_mut());
            match measure_setups(&workload, SETUP_REPS - SETUP_BEFORE) {
                Ok(after) => record_setups(&mut out, &[before, after].concat()),
                Err(e) => out.fail(e),
            }
            out
        }
        Err(e) => {
            let mut out = Outcome::default();
            out.fail(e);
            out
        }
    };
    // After the workload, so that its 4x-LLC buffers stay out of mem_mb.
    let copy_gbps = host::copy_gbps(fp.llc_bytes);
    println!(
        "host: cpus={} llc={} MiB rustc=\"{}\" copy={copy_gbps:.2} GB/s calib={calib_ms:.3} ms",
        fp.cpus,
        fp.llc_bytes >> 20,
        fp.rustc
    );
    out.set("host.cpus", fp.cpus as f64);
    out.set("host.copy_gbps", copy_gbps);
    out.set("host.calib_ms", calib_ms);
    out.set("checks.run", out.checks as f64);
    if let Some(t) = &tracer {
        out.set("trace.spans", t.spans().len() as f64);
        if t.dropped() > 0 {
            println!("trace: {} spans did not fit the buffer", t.dropped());
        }
        let path = span_path(&workload, cfg.seed);
        match t.write_tsv(&path) {
            Ok(()) => println!("trace: spans written to {}", path.display()),
            Err(e) => println!("trace: could not write {}: {e}", path.display()),
        }
    }

    println!(
        "workload: {workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for line in &out.lines {
        println!("  {line}");
    }
    println!("digest: {:016x}", out.digest);
    println!(
        "ops: attempted={} failed={} checks={}",
        out.attempted, out.failed, out.checks
    );
    for f in out.failures.iter().take(10) {
        println!("FAILED: {f}");
    }

    let listed: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for (i, (name, unit)) in listed.iter().enumerate() {
        let v = out.get(name).unwrap_or(0.0);
        println!("metric {name} = {v} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        );
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

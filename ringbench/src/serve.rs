//! `serve`: a ring carrying traffic while faults come and go. Closed
//! loop, two threads: a B(2,20) churn trace goes batch by batch to a
//! `RingService` (`ServeOptions::default()`), and the next batch goes in
//! once the reader sees a snapshot that covers the previous one. The main
//! thread is both the submitting client and a reader: while it waits, it
//! walks the ring in strides through a live `ReaderHandle`.
//!
//! The measured loop is closed on purpose. An open loop at 8 ms per trace
//! time unit turned the host's millisecond stalls and idle-CPU wake-ups
//! into queueing, and its p90 moved between 2.4 and 9.5 ms from run to run
//! (`RATIONALE.md`). The traced run adds that open loop as a diagnostic.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use debruijn_core::{
    ChurnStep, Ffc, ReaderHandle, RingMaintainer, RingService, RingSnapshot, ServeOptions,
    ServiceReport,
};

use crate::gen::{churn_trace, FaultModel};
use crate::reference::{embed_layers, ring_hash, verify, Seen};
use crate::stats::{Digest, Dist};
use crate::trace::{is_traced, split, Tracer, ROOT};
use crate::{ns, Config, Outcome, SetupTimes};

const D: u64 = 2;
const N: u32 = 20;
/// Trace length, as for `churn`; a run that reaches its end starts it
/// again.
const ARRIVALS: usize = 4096;
/// Ring nodes the reader walks between two looks at the epoch.
const STRIDE: usize = 256;
/// A batch not visible this long after its submission has failed.
const DEADLINE: Duration = Duration::from_secs(2);
/// Every this many batches the visible snapshot is recorded (outside the
/// timer, with the writer idle), to be compared with a fresh embed after
/// the measured pass.
const CHECK_EVERY: u64 = 512;
/// The digest covers this many leading batches; a run always completes
/// them.
const PREFIX_BATCHES: u64 = 2048;
/// How long the reader walks a pinned snapshot for `reader.vs_frozen`.
const FROZEN_WALK: Duration = Duration::from_millis(250);
/// Wall time of one trace time unit in the traced run's open-loop pass:
/// about 350 batches/s, with the writer about 30% busy.
const OPEN_UNIT: Duration = Duration::from_millis(8);
/// Length of the open-loop pass.
const OPEN_PASS: Duration = Duration::from_secs(10);

/// Results of a closed-loop pass.
#[derive(Default)]
struct Phase {
    /// Submission to visibility, per batch, ns.
    latency_ns: Vec<f64>,
    lookups: u64,
    walk_ns: f64,
    queue_max: usize,
    reloads: u64,
    frozen_rate: f64,
    report: ServiceReport,
    /// The checkpoints, for [`verify`].
    seen: Vec<Seen>,
}

impl Phase {
    fn busy_s(&self) -> f64 {
        self.latency_ns.iter().sum::<f64>() / 1e9
    }
}

/// `RingService::start` plus the first reader.
fn start(ffc: &Arc<Ffc>) -> Result<(RingService, ReaderHandle), String> {
    let svc = RingService::start(Arc::clone(ffc), &[], ServeOptions::default())
        .map_err(|e| format!("RingService::start: {e}"))?;
    let reader = svc.reader();
    Ok((svc, reader))
}

/// `Ffc::new`, `RingService::start` and the first reader.
fn setup() -> Result<(Arc<Ffc>, RingService, ReaderHandle, SetupTimes), String> {
    let t0 = Instant::now();
    let ffc = Arc::new(Ffc::new(D, N));
    let t1 = Instant::now();
    let (svc, reader) = start(&ffc)?;
    let t2 = Instant::now();
    let times = SetupTimes {
        total_s: (t2 - t0).as_secs_f64(),
        new_ms: (t1 - t0).as_secs_f64() * 1e3,
        reset_ms: 0.0,
        start_ms: (t2 - t1).as_secs_f64() * 1e3,
    };
    Ok((ffc, svc, reader, times))
}

/// The set-up, then `RingMaintainer::reset` alone on the same graph: the
/// service runs one inside `start`.
pub fn setup_times() -> Result<SetupTimes, String> {
    let (ffc, _svc, _reader, mut times) = setup()?;
    let t0 = Instant::now();
    RingMaintainer::new()
        .reset(&ffc, &[])
        .map_err(|e| format!("reset: {e}"))?;
    times.reset_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(times)
}

pub fn run(cfg: &Config, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let (ffc, svc, reader) = match setup() {
        Ok((ffc, svc, reader, _)) => (ffc, svc, reader),
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let trace = churn_trace(&ffc, cfg.seed, ARRIVALS);

    let mut digest = Digest::default();
    let mut pass = phase(
        cfg,
        &trace,
        svc,
        reader,
        tracer.as_deref_mut(),
        &mut out,
        &mut digest,
    );
    out.digest = digest.value();
    let (untraced, traced) = split(&pass.latency_ns, cfg.trace);
    crate::end_to_end(&mut out, &untraced, "submit-to-visible latency");
    let lat = Dist::new(untraced.iter().map(|&t| t / 1e6).collect());
    out.lines.push(format!(
        "lookups_per_s: {:.0} 1/s (reader, {} ring nodes while waiting)",
        pass.lookups as f64 / pass.busy_s(),
        pass.lookups
    ));

    let open = tracer
        .is_some()
        .then(|| open_pass(&ffc, &trace, &mut pass.seen, &mut out));
    let scratch_bytes = verify(&ffc, &pass.seen, tracer.as_deref_mut(), &mut out);
    let (Some(t), Some(open)) = (tracer, open) else {
        return out;
    };
    let wait_us = service_layers(&mut out, &pass, &open);
    let traced_lat = Dist::new(traced.iter().map(|&t| t / 1e6).collect());
    let report = &pass.report;
    let pubs = report.publications.max(1) as f64;
    let done = report.repairs.incremental + report.repairs.rebuilds;
    let us = |q| q as f64 / 1e3;
    // The writer's `apply_batch` and `publish` are the session and
    // snapshot layers' calls.
    out.set("session.apply_us_p50", us(report.repair_quantile_ns(0.5)));
    out.set("session.apply_us_p99", us(report.repair_quantile_ns(0.99)));
    out.set(
        "snapshot.publish_us_p50",
        us(report.publish_quantile_ns(0.5)),
    );
    out.set(
        "snapshot.publish_us_p99",
        us(report.publish_quantile_ns(0.99)),
    );
    out.set("session.rebuilds", report.repairs.rebuilds as f64);
    out.set(
        "session.delta_frac",
        report.repairs.incremental as f64 / done.max(1) as f64,
    );
    out.set(
        "snapshot.ring_shared_frac",
        report.shared_ring as f64 / pubs,
    );
    out.set(
        "snapshot.membership_shared_frac",
        report.shared_membership as f64 / pubs,
    );
    out.set(
        "snapshot.levels_shared_frac",
        report.shared_levels as f64 / pubs,
    );
    out.set(
        "snapshot.reclaimed_frac",
        report.reclaimed_buffers as f64 / pubs,
    );
    embed_layers(t, scratch_bytes, &mut out);
    out.set("trace.overhead_ratio", traced_lat.p50() / lat.p50());
    out.set(
        "trace.accounted_frac",
        (us(report.repair_quantile_ns(0.5)) + us(report.publish_quantile_ns(0.5)) + wait_us)
            / 1e3
            / lat.p50(),
    );
    out.set("trace.untraced_ops", untraced.len() as f64);
    out.set("trace.traced_ops", traced.len() as f64);
    out
}

/// Sets the `serve.*`, `reader.*` and `gen.*` metrics from a closed-loop
/// pass and an open-loop pass, describes them, and returns the closed
/// loop's wait (queue + wake-up + refresh) p50 in us: its latency p50
/// less the writer's repair and publish p50s.
fn service_layers(out: &mut Outcome, closed: &Phase, open: &Open) -> f64 {
    let report = &closed.report;
    let lat = Dist::new(closed.latency_ns.iter().map(|&t| t / 1e6).collect());
    let open_lat = Dist::new(open.latency_ns.iter().map(|&t| t / 1e6).collect());
    let late = Dist::new(open.late_ns.iter().map(|&t| t / 1e6).collect());
    let repair_us = report.repair_quantile_ns(0.5) as f64 / 1e3;
    let publish_us = report.publish_quantile_ns(0.5) as f64 / 1e3;
    let wait_us = lat.p50() * 1e3 - repair_us - publish_us;
    let walk_rate = closed.lookups as f64 / (closed.walk_ns / 1e9);
    out.set("serve.repair_us_p50", repair_us);
    out.set("serve.publish_us_p50", publish_us);
    out.set(
        "serve.publish_us_p99",
        report.publish_quantile_ns(0.99) as f64 / 1e3,
    );
    out.set("serve.wait_us_p50", wait_us);
    out.set(
        "serve.coalesced_frac",
        report.coalesced_events() as f64 / report.events.max(1) as f64,
    );
    out.set("serve.batches", report.batches as f64);
    out.set("serve.queue_max", closed.queue_max as f64);
    out.set("serve.visible_ms_p99", lat.pct(99.0));
    out.set("serve.open_ms_p50", open_lat.p50());
    out.set("serve.open_ms_p90", open_lat.pct(90.0));
    out.set("gen.late_ms_p99", late.pct(99.0));
    out.set("reader.reloads", closed.reloads as f64);
    out.set("reader.vs_frozen", walk_rate / closed.frozen_rate);
    out.set(
        "reader.lookups_per_s",
        closed.lookups as f64 / closed.busy_s(),
    );
    let us = |v: &[u64]| Dist::new(v.iter().map(|&t| t as f64 / 1e3).collect());
    out.lines.push(format!(
        "service, closed loop: submit-to-visible latency: {}",
        lat.describe("ms")
    ));
    out.lines.push(format!(
        "service: {} writer batches for {} events; queue + wake-up + refresh p50 {wait_us:.1} us",
        report.batches, report.events
    ));
    out.lines.push(format!(
        "service writer apply_batch: {}",
        us(&report.repair_ns).describe("us")
    ));
    out.lines.push(format!(
        "service writer publish: {}",
        us(&report.publish_ns).describe("us")
    ));
    out.lines.push(format!(
        "service reader walk: live {walk_rate:.0} vs pinned {:.0} nodes/s",
        closed.frozen_rate
    ));
    out.lines.push(format!(
        "service, open loop, 1 unit = {OPEN_UNIT:?}: due-to-visible latency: {}",
        open_lat.describe("ms")
    ));
    out.lines.push(format!(
        "service, open loop: generator lateness: {}",
        late.describe("ms")
    ));
    wait_us
}

/// One closed-loop pass: batches from the start of the trace until the
/// time is up (and at least [`PREFIX_BATCHES`]). With a tracer, every
/// other batch is traced. Shuts the service down at the end.
fn phase(
    cfg: &Config,
    trace: &[ChurnStep],
    svc: RingService,
    mut reader: ReaderHandle,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
    digest: &mut Digest,
) -> Phase {
    let mut res = Phase::default();
    let mut model = FaultModel::default();
    let mut submitted = 0u64;
    let mut buf = Vec::with_capacity(STRIDE + 1);
    let mut pos = reader.refresh().root().unwrap_or(0);
    let start = Instant::now();
    let mut batch = 0u64;
    while batch < PREFIX_BATCHES || start.elapsed() < cfg.phase() {
        let step = &trace[(batch % trace.len() as u64) as usize];
        let op = tracer
            .as_deref_mut()
            .filter(|_| is_traced(batch))
            .map(|t| t.open("serve.batch", batch, ROOT));
        let t0 = Instant::now();
        for &ev in &step.batch {
            match svc.submit(ev) {
                Ok(()) => {
                    model.apply(ev);
                    submitted += 1;
                }
                Err(e) => out.fail(format!("batch {batch}: submit {ev:?}: {e}")),
            }
        }
        let t_sub = Instant::now();
        res.queue_max = res.queue_max.max(svc.queue_len());
        let visible = loop {
            if reader.refresh().applied_events() >= submitted {
                break Some(Instant::now());
            }
            if t0.elapsed() > DEADLINE {
                break None;
            }
            let w0 = Instant::now();
            res.lookups += walk(&mut reader, &mut pos, &mut buf);
            res.walk_ns += ns(w0.elapsed());
        };
        out.attempted += 1;
        let Some(t1) = visible else {
            out.fail(format!("batch {batch} not visible within {DEADLINE:?}"));
            // The writer is stuck: leave it to process exit instead of
            // joining it.
            std::mem::forget(svc);
            return res;
        };
        res.latency_ns.push(ns(t1 - t0));
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), op) {
            t.record("serve.submit", batch, root, t.at(t0), t.at(t_sub));
            t.close_at(root, t1);
        }
        if batch < PREFIX_BATCHES {
            digest.add_stats(&reader.pinned().stats());
        }
        if batch % CHECK_EVERY == CHECK_EVERY - 1 {
            let seen = observe(reader.pinned(), &model, submitted, batch, out);
            if batch < PREFIX_BATCHES {
                digest.add(seen.ring);
            }
            res.seen.push(seen);
        }
        batch += 1;
    }
    res.reloads = reader.reloads();
    res.frozen_rate = frozen_walk_rate(&reader);
    res.report = svc.shutdown();
    out.check(res.report.events == submitted, || {
        format!(
            "writer absorbed {} of {submitted} events",
            res.report.events
        )
    });
    res
}

/// Walks one stride of the ring from `pos` through the live reader and
/// returns the nodes passed.
fn walk(reader: &mut ReaderHandle, pos: &mut usize, buf: &mut Vec<usize>) -> u64 {
    match reader.ring_segment(*pos, STRIDE + 1, buf) {
        Ok(k) if k > 1 => {
            *pos = buf[k - 1];
            k as u64 - 1
        }
        // The walk left the ring after a repair: restart at the root.
        _ => {
            *pos = reader.refresh().root().unwrap_or(0);
            0
        }
    }
}

/// Checks that `snap`, seen with the writer idle, absorbed exactly the
/// submitted events, and records its stats and ring for [`verify`]
/// against a fresh embed of the model's fault set.
fn observe(
    snap: &RingSnapshot,
    model: &FaultModel,
    submitted: u64,
    batch: u64,
    out: &mut Outcome,
) -> Seen {
    out.check(snap.applied_events() == submitted, || {
        format!(
            "batch {batch}: snapshot absorbed {} of {submitted} events",
            snap.applied_events()
        )
    });
    Seen {
        what: format!("batch {batch}"),
        faults: model.excluded(),
        stats: vec![snap.stats()],
        ring: ring_hash(snap),
    }
}

/// What the open-loop pass measured, in ns.
#[derive(Default)]
struct Open {
    /// Due time to visibility, per batch.
    latency_ns: Vec<f64>,
    /// Due time to the first submit, per batch.
    late_ns: Vec<f64>,
}

/// Records every pending batch that `applied` events cover as visible at
/// `now`. A batch is timed from when it was due, not from when it was
/// submitted, so a stall of the generator counts against every batch it
/// delayed. `pending` holds `(due, events submitted up to the batch)`.
fn settle(
    pending: &mut VecDeque<(Instant, u64)>,
    applied: u64,
    now: Instant,
    latency_ns: &mut Vec<f64>,
) {
    while let Some(&(due, _)) = pending.front().filter(|&&(_, upto)| upto <= applied) {
        latency_ns.push(ns(now.saturating_duration_since(due)));
        pending.pop_front();
    }
}

/// The traced run's open-loop pass. Fault arrivals do not wait for the
/// service, so a fresh service gets each batch at its trace time (one
/// unit = [`OPEN_UNIT`]) for [`OPEN_PASS`], while the main thread walks
/// the ring between due times. Diagnostic only: its latency tail follows
/// the host's stalls too closely to gate (`RATIONALE.md`).
fn open_pass(ffc: &Arc<Ffc>, trace: &[ChurnStep], seen: &mut Vec<Seen>, out: &mut Outcome) -> Open {
    let mut res = Open::default();
    let (svc, mut reader) = match start(ffc) {
        Ok(x) => x,
        Err(e) => {
            out.fail(e);
            return res;
        }
    };
    let mut model = FaultModel::default();
    let mut pending = VecDeque::new();
    let mut submitted = 0u64;
    let mut buf = Vec::with_capacity(STRIDE + 1);
    let mut pos = reader.refresh().root().unwrap_or(0);
    let t0 = trace.first().map_or(0.0, |s| s.time);
    let start = Instant::now();
    // Waits until `until` (or until nothing is pending, with `None`),
    // walking the ring; false once a batch misses its deadline.
    let mut wait = |until: Option<Instant>, pending: &mut VecDeque<(Instant, u64)>| loop {
        let now = Instant::now();
        settle(
            pending,
            reader.refresh().applied_events(),
            now,
            &mut res.latency_ns,
        );
        if until.map_or(pending.is_empty(), |u| now >= u) {
            return true;
        }
        if pending
            .front()
            .is_some_and(|&(due, _)| now > due + DEADLINE)
        {
            return false;
        }
        walk(&mut reader, &mut pos, &mut buf);
    };
    let mut on_time = true;
    for (batch, step) in trace.iter().enumerate() {
        let due = start + OPEN_UNIT.mul_f64(step.time - t0);
        if due - start > OPEN_PASS {
            break;
        }
        on_time = wait(Some(due), &mut pending);
        if !on_time {
            break;
        }
        res.late_ns.push(ns(due.elapsed()));
        for &ev in &step.batch {
            match svc.submit(ev) {
                Ok(()) => {
                    model.apply(ev);
                    submitted += 1;
                }
                Err(e) => out.fail(format!("open batch {batch}: submit {ev:?}: {e}")),
            }
        }
        out.attempted += 1;
        pending.push_back((due, submitted));
    }
    if !(on_time && wait(None, &mut pending)) {
        out.fail(format!(
            "open loop: a batch was not visible within {DEADLINE:?} of its due time"
        ));
        // The writer is stuck: leave it to process exit instead of
        // joining it.
        std::mem::forget(svc);
        return res;
    }
    let mut last = observe(reader.pinned(), &model, submitted, 0, out);
    last.what = format!("open loop, after {} batches", res.late_ns.len());
    seen.push(last);
    let report = svc.shutdown();
    out.check(report.events == submitted, || {
        format!(
            "open loop: writer absorbed {} of {submitted} events",
            report.events
        )
    });
    res
}

/// Ring nodes per second the reader walks on its pinned snapshot, with no
/// refresh and the writer idle.
fn frozen_walk_rate(reader: &ReaderHandle) -> f64 {
    let snap = reader.pinned();
    let mut buf = Vec::with_capacity(STRIDE + 1);
    let mut pos = snap.root().unwrap_or(0);
    let (mut lookups, mut walk_ns) = (0u64, 0.0);
    let start = Instant::now();
    while start.elapsed() < FROZEN_WALK {
        let w0 = Instant::now();
        match snap.ring_segment(pos, STRIDE + 1, &mut buf) {
            Ok(k) if k > 1 => {
                lookups += k as u64 - 1;
                pos = buf[k - 1];
            }
            _ => break,
        }
        walk_ns += ns(w0.elapsed());
    }
    lookups as f64 / (walk_ns / 1e9).max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_includes_a_generator_stall() {
        let base = Instant::now();
        let ms = |m: u64| base + Duration::from_millis(m);
        // Batches of 2, 1 and 3 events were due at 0, 8 and 16 ms. The
        // generator stalled and submitted all three at 30 ms; the writer
        // had absorbed the first two by 31 ms and the third by 40 ms.
        let mut pending: VecDeque<_> = [(ms(0), 2), (ms(8), 3), (ms(16), 6)].into();
        let mut latency = Vec::new();
        settle(&mut pending, 0, ms(29), &mut latency);
        assert!(latency.is_empty());
        settle(&mut pending, 3, ms(31), &mut latency);
        assert_eq!(latency, [31e6, 23e6]);
        assert_eq!(pending.len(), 1);
        settle(&mut pending, 6, ms(40), &mut latency);
        assert_eq!(latency, [31e6, 23e6, 24e6]);
        assert!(pending.is_empty());
    }
}

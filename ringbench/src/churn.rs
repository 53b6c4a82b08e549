//! `churn`: the maintainer's write path without threads. Closed loop, one
//! thread: a B(2,20) churn trace replayed batch by batch as
//! `RingMaintainer::apply_batch` + `RingMaintainer::publish`.

use std::sync::Arc;
use std::time::Instant;

use debruijn_core::{ChurnStep, Ffc, RepairStats, RingMaintainer, RingSnapshot, SnapshotPublisher};

use crate::gen::{churn_trace, FaultModel};
use crate::reference::{embed_layers, ring_hash, verify, Seen};
use crate::stats::{Digest, Dist};
use crate::trace::{is_traced, split, Tracer, ROOT};
use crate::{ns, Config, Outcome, SetupTimes};

const D: u64 = 2;
const N: u32 = 20;
/// Trace length; about 2.75 batches per arrival. A run that reaches the
/// end of the trace starts it again: the trace ends fault-free.
const ARRIVALS: usize = 4096;
/// Every this many batches the maintainer's state is recorded, to be
/// compared with a fresh embed after the measured pass.
const CHECK_EVERY: u64 = 256;
/// The digest and the repair counts cover this many leading batches; a
/// run always completes them.
const PREFIX_BATCHES: u64 = 2048;

struct State {
    ffc: Arc<Ffc>,
    maint: RingMaintainer,
    publisher: SnapshotPublisher,
    snap: Arc<RingSnapshot>,
}

/// Results of the measured pass.
#[derive(Default)]
struct Phase {
    /// `apply_batch` + `publish` per batch, ns.
    latency: Vec<f64>,
    /// Repair counts over the first [`PREFIX_BATCHES`] batches.
    prefix_repairs: RepairStats,
    /// The checkpoints, for [`verify`].
    seen: Vec<Seen>,
}

/// `Ffc::new`, `RingMaintainer::reset` and the first publish.
fn setup() -> Result<(State, SetupTimes), String> {
    let t0 = Instant::now();
    let ffc = Arc::new(Ffc::new(D, N));
    let t1 = Instant::now();
    let mut maint = RingMaintainer::new();
    maint.reset(&ffc, &[]).map_err(|e| format!("reset: {e}"))?;
    let t2 = Instant::now();
    let mut publisher = SnapshotPublisher::new();
    let snap = maint
        .publish(&mut publisher, 0)
        .map_err(|e| format!("publish: {e}"))?;
    let t3 = Instant::now();
    let times = SetupTimes {
        total_s: (t3 - t0).as_secs_f64(),
        new_ms: (t1 - t0).as_secs_f64() * 1e3,
        reset_ms: (t2 - t1).as_secs_f64() * 1e3,
        start_ms: 0.0,
    };
    let st = State {
        ffc,
        maint,
        publisher,
        snap,
    };
    Ok((st, times))
}

pub fn setup_times() -> Result<SetupTimes, String> {
    setup().map(|(_, t)| t)
}

pub fn run(cfg: &Config, mut tracer: Option<&mut Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut st = match setup() {
        Ok((st, _)) => st,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let trace = churn_trace(&st.ffc, cfg.seed, ARRIVALS);

    let mut digest = Digest::default();
    let pass = phase(
        cfg,
        &mut st,
        &trace,
        tracer.as_deref_mut(),
        &mut out,
        &mut digest,
    );
    out.digest = digest.value();
    let (untraced, traced) = split(&pass.latency, cfg.trace);
    crate::end_to_end(&mut out, &untraced, "apply_batch + publish latency");
    let lat = Dist::new(untraced.iter().map(|&t| t / 1e6).collect());
    let r = pass.prefix_repairs;
    out.lines.push(format!(
        "first {PREFIX_BATCHES} batches: {} delta repairs, {} rebuilds",
        r.incremental, r.rebuilds
    ));

    let scratch_bytes = verify(&st.ffc, &pass.seen, tracer.as_deref_mut(), &mut out);

    if let Some(t) = tracer {
        let traced_lat = Dist::new(traced.iter().map(|&t| t / 1e6).collect());
        let apply = Dist::new(t.samples("session.apply_batch", 1e3));
        let publish = Dist::new(t.samples("snapshot.publish", 1e3));
        let p = &st.publisher;
        let pubs = p.publications().max(1) as f64;
        let done = r.incremental + r.rebuilds;
        out.set("session.apply_us_p50", apply.p50());
        out.set("session.apply_us_p99", apply.pct(99.0));
        out.set("session.rebuilds", r.rebuilds as f64);
        out.set(
            "session.delta_frac",
            r.incremental as f64 / done.max(1) as f64,
        );
        out.set(
            "session.allocated_mb",
            st.maint.allocated_bytes() as f64 / f64::from(1 << 20),
        );
        out.set(
            "session.level_mb",
            st.maint.level_bytes() as f64 / f64::from(1 << 20),
        );
        out.set("snapshot.publish_us_p50", publish.p50());
        out.set("snapshot.publish_us_p99", publish.pct(99.0));
        out.set("snapshot.ring_shared_frac", p.shared_ring() as f64 / pubs);
        out.set(
            "snapshot.membership_shared_frac",
            p.shared_membership() as f64 / pubs,
        );
        out.set(
            "snapshot.levels_shared_frac",
            p.shared_levels() as f64 / pubs,
        );
        out.set("snapshot.reclaimed_frac", p.reclaimed() as f64 / pubs);
        embed_layers(t, scratch_bytes, &mut out);
        out.set("trace.overhead_ratio", traced_lat.p50() / lat.p50());
        out.set(
            "trace.accounted_frac",
            (apply.p50() + publish.p50()) / 1e3 / lat.p50(),
        );
        out.set("trace.untraced_ops", untraced.len() as f64);
        out.set("trace.traced_ops", traced.len() as f64);
        out.lines
            .push(format!("traced batch: {}", traced_lat.describe("ms")));
        out.lines
            .push(format!("session.apply_batch: {}", apply.describe("us")));
        out.lines
            .push(format!("snapshot.publish: {}", publish.describe("us")));
        out.lines.push(format!(
            "apply p50 + publish p50 = {:.1}% of the untraced latency p50 (stated tolerance: 85-115%)",
            100.0 * (apply.p50() + publish.p50()) / 1e3 / lat.p50()
        ));
    }
    out
}

/// The measured pass: the trace from its start, until the time is up (and
/// at least [`PREFIX_BATCHES`] batches). With a tracer, every other batch
/// is traced.
fn phase(
    cfg: &Config,
    st: &mut State,
    trace: &[ChurnStep],
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
    digest: &mut Digest,
) -> Phase {
    let mut res = Phase {
        latency: Vec::with_capacity(1 << 15),
        ..Phase::default()
    };
    let mut model = FaultModel::default();
    let before = st.maint.repairs();
    let mut applied = 0u64;
    let start = Instant::now();
    let mut batch = 0u64;
    while batch < PREFIX_BATCHES || start.elapsed() < cfg.phase() {
        let step = &trace[(batch % trace.len() as u64) as usize];
        let traced = is_traced(batch);
        let op = tracer
            .as_deref_mut()
            .filter(|_| traced)
            .map(|t| t.open("churn.batch", batch, ROOT));
        let t0 = Instant::now();
        let outcome = st.maint.apply_batch(&st.ffc, &step.batch);
        let t1 = Instant::now();
        let snap = st
            .maint
            .publish(&mut st.publisher, applied + step.batch.len() as u64);
        let t2 = Instant::now();
        res.latency.push(ns(t2 - t0));
        out.attempted += 1;
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), op) {
            t.record("session.apply_batch", batch, root, t.at(t0), t.at(t1));
            t.record("snapshot.publish", batch, root, t.at(t1), t.at(t2));
            t.close(root);
        }
        match (outcome, snap) {
            (Ok(outcome), Ok(snap)) => {
                for &ev in &step.batch {
                    model.apply(ev);
                }
                applied += step.batch.len() as u64;
                st.snap = snap;
                if batch < PREFIX_BATCHES {
                    digest.add_stats(&outcome.stats());
                }
            }
            (outcome, snap) => out.fail(format!(
                "batch {batch}: {:?} / {:?}",
                outcome.err(),
                snap.err()
            )),
        }
        if batch + 1 == PREFIX_BATCHES {
            let now = st.maint.repairs();
            res.prefix_repairs = RepairStats {
                incremental: now.incremental - before.incremental,
                rebuilds: now.rebuilds - before.rebuilds,
            };
        }
        if batch % CHECK_EVERY == CHECK_EVERY - 1 {
            let seen = Seen {
                what: format!("batch {batch}"),
                faults: model.excluded(),
                stats: vec![st.maint.stats(), st.snap.stats()],
                ring: ring_hash(&st.snap),
            };
            if batch < PREFIX_BATCHES {
                digest.add(seen.ring);
            }
            res.seen.push(seen);
        }
        batch += 1;
    }
    res
}

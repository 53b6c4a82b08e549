//! From-scratch reference embeds, the oracle of the correctness checks.
//!
//! A workload records what the engine served at each checkpoint as a
//! [`Seen`] and checks them all with [`verify`] after its measured pass,
//! once `mem_mb` is read: the oracle's scratch is then never part of the
//! workload's peak RSS.

use debruijn_core::{BitReach, BitScratch, EmbedScratch, EmbedStats, Ffc, RingSnapshot};

use crate::stats::{Digest, Dist};
use crate::trace::{Tracer, ROOT};
use crate::Outcome;

/// Nodes hashed per `ring_segment` call by [`ring_hash`].
const HASH_STRIDE: usize = 1 << 12;

/// What the engine served at one checkpoint, kept for [`verify`].
#[derive(Clone, Debug)]
pub struct Seen {
    /// The checkpoint, for failure messages.
    pub what: String,
    /// The fault set the engine had absorbed, from the benchmark's own
    /// model of the trace.
    pub faults: Vec<usize>,
    /// Every stats value the engine reported for that state.
    pub stats: Vec<EmbedStats>,
    /// [`ring_hash`] of the served ring.
    pub ring: u64,
}

/// The [`Digest::add_all`] value of `snap`'s ring from its root (0 nodes
/// when infeasible), walked in strides so that no full copy is made.
#[must_use]
pub fn ring_hash(snap: &RingSnapshot) -> u64 {
    let mut d = Digest::default();
    let Some(root) = snap.root() else {
        d.add(0);
        return d.value();
    };
    let len = snap.ring_len();
    d.add(len as u64);
    let mut buf = Vec::with_capacity(HASH_STRIDE);
    let (mut pos, mut left) = (root, len);
    while left > 0 {
        match snap.ring_segment(pos, left.min(HASH_STRIDE), &mut buf) {
            Ok(k) if k > 0 => {
                for &v in &buf {
                    d.add(v as u64);
                }
                left -= k;
                pos = snap.successor(buf[k - 1]).unwrap_or(root);
            }
            // Not a ring: a hash no fresh embed matches.
            _ => return !d.value(),
        }
    }
    d.value()
}

/// Checks every checkpoint against a fresh `embed_stats_into` and
/// `embed_into` of its fault set: every reported stats value and the
/// served ring must equal them. A traced run times the fresh embeds and
/// the standalone kernels. Returns the bytes the oracle's scratch held.
pub fn verify(
    ffc: &Ffc,
    seen: &[Seen],
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> usize {
    let mut reference = Reference::new(ffc);
    for (i, s) in seen.iter().enumerate() {
        let op = u64::MAX - i as u64;
        let root = tracer
            .as_deref_mut()
            .map_or(ROOT, |t| t.open("check", op, ROOT));
        let (stats, full) = reference.embed(ffc, &s.faults, tracer.as_deref_mut(), op, root);
        if let Some(t) = tracer.as_deref_mut() {
            t.close(root);
        }
        out.check(stats == full && s.stats.iter().all(|&x| x == full), || {
            format!(
                "{}: engine {:?} != fresh embed {full:?} / stats {stats:?}",
                s.what, s.stats
            )
        });
        let mut ring = Digest::default();
        ring.add_all(reference.ring());
        out.check(ring.value() == s.ring, || {
            format!("{}: served ring differs from a fresh embed_into", s.what)
        });
    }
    reference.scratch_bytes()
}

/// Sets the `ffc.*` and `bitreach.*` per-layer rows from the spans named
/// `ffc.embed_stats_into`, `ffc.embed_into`, `bitreach.forward` and
/// `bitreach.backward` (one of each per traced embed, in the same order),
/// plus `ffc.scratch_mb` from `scratch_bytes`, and describes them. The
/// ring phases are `embed_into` less `embed_stats_into` on the same
/// faults. Returns the p50s of the stats and ring parts, ms.
pub fn embed_layers(t: &Tracer, scratch_bytes: usize, out: &mut Outcome) -> (f64, f64) {
    let part = t.samples("ffc.embed_stats_into", 1e6);
    let ring: Vec<f64> = t
        .samples("ffc.embed_into", 1e6)
        .iter()
        .zip(&part)
        .map(|(full, part)| full - part)
        .collect();
    let rows = [
        ("ffc.stats_ms_p50", "ffc.embed_stats_into", Dist::new(part)),
        (
            "ffc.ring_ms_p50",
            "ffc ring phases (embed_into - stats)",
            Dist::new(ring),
        ),
        (
            "bitreach.forward_ms_p50",
            "bitreach.forward",
            Dist::new(t.samples("bitreach.forward", 1e6)),
        ),
        (
            "bitreach.backward_ms_p50",
            "bitreach.backward",
            Dist::new(t.samples("bitreach.backward", 1e6)),
        ),
    ];
    for (metric, what, d) in &rows {
        out.set(metric, d.p50());
        out.lines.push(format!("{what}: {}", d.describe("ms")));
    }
    out.set("ffc.scratch_mb", scratch_bytes as f64 / f64::from(1 << 20));
    (rows[0].2.p50(), rows[1].2.p50())
}

/// Scratch state for fresh embeds and standalone kernel runs on one graph.
pub struct Reference {
    scratch: EmbedScratch,
    reach: BitReach,
    bits: BitScratch,
}

impl Reference {
    /// Reference state for `ffc`'s graph.
    #[must_use]
    pub fn new(ffc: &Ffc) -> Self {
        Reference {
            scratch: EmbedScratch::new(),
            reach: BitReach::new(ffc.graph().d() as usize, ffc.graph().len()),
            bits: BitScratch::new(),
        }
    }

    /// Embeds `faults` from scratch with `embed_stats_into` and then
    /// `embed_into`, returning both stats; the ring is left in
    /// [`Reference::ring`]. A traced run times both calls and the
    /// standalone kernels as children of `parent`.
    pub fn embed(
        &mut self,
        ffc: &Ffc,
        faults: &[usize],
        mut tracer: Option<&mut Tracer>,
        op: u64,
        parent: u32,
    ) -> (EmbedStats, EmbedStats) {
        let scratch = &mut self.scratch;
        let mut timed =
            |name: &'static str, f: &mut dyn FnMut() -> EmbedStats| match tracer.as_deref_mut() {
                Some(t) => t.time(name, op, parent, f),
                None => f(),
            };
        let stats = timed("ffc.embed_stats_into", &mut || {
            ffc.embed_stats_into(scratch, faults)
        });
        let full = timed("ffc.embed_into", &mut || ffc.embed_into(scratch, faults));
        if let Some(t) = tracer {
            self.kernels(ffc, faults, full.root, t, op, parent);
        }
        (stats, full)
    }

    /// Times `BitReach::forward` and `BitReach::backward` alone on the
    /// fault mask of `faults`, from `root`, and returns the component size
    /// they find.
    pub fn kernels(
        &mut self,
        ffc: &Ffc,
        faults: &[usize],
        root: usize,
        t: &mut Tracer,
        op: u64,
        parent: u32,
    ) -> usize {
        let Reference { reach, bits, .. } = self;
        reach.prepare(bits);
        let mut removed = 0;
        let mut necks: Vec<usize> = faults
            .iter()
            .map(|&v| ffc.partition().membership()[v] as usize)
            .collect();
        necks.sort_unstable();
        necks.dedup();
        for neck in necks {
            let members = ffc.necklace_members(neck);
            removed += members.len();
            for &m in members {
                reach.kill(bits, m as usize);
            }
        }
        t.time("bitreach.forward", op, parent, || reach.forward(bits, root));
        t.time("bitreach.backward", op, parent, || {
            reach.backward(bits, root)
        });
        reach.component_size(bits, removed)
    }

    /// The ring of the last [`Reference::embed`].
    #[must_use]
    pub fn ring(&self) -> &[usize] {
        self.scratch.cycle()
    }

    /// Bytes the embed scratch holds.
    #[must_use]
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.allocated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use debruijn_core::{FaultEvent, RingMaintainer, SnapshotPublisher};

    use super::*;

    #[test]
    fn ring_hash_matches_the_full_ring_and_verify_catches_a_wrong_one() {
        let ffc = Ffc::new(2, 14);
        let mut maint = RingMaintainer::new();
        maint.reset(&ffc, &[]).unwrap();
        let faults = [3usize, 77, 1000];
        let events: Vec<_> = faults.iter().map(|&v| FaultEvent::NodeDown(v)).collect();
        maint.apply_batch(&ffc, &events).unwrap();
        let snap = maint
            .publish(&mut SnapshotPublisher::new(), faults.len() as u64)
            .unwrap();
        let mut ring = Vec::new();
        snap.ring_into(&mut ring);
        assert!(ring.len() > HASH_STRIDE);
        let mut whole = Digest::default();
        whole.add_all(&ring);
        assert_eq!(ring_hash(&snap), whole.value());

        let good = Seen {
            what: String::from("good"),
            faults: faults.to_vec(),
            stats: vec![snap.stats()],
            ring: ring_hash(&snap),
        };
        let bad = Seen {
            what: String::from("bad"),
            ring: good.ring ^ 1,
            ..good.clone()
        };
        let mut out = Outcome::default();
        verify(&ffc, &[good, bad], None, &mut out);
        assert_eq!((out.checks, out.failed), (4, 1));
        assert!(out.failures[0].starts_with("bad:"));
    }
}

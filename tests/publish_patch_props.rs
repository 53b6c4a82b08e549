//! Patch-on-publish differential suite.
//!
//! The snapshot publisher refills a dirty structure group by patching a
//! recycled buffer forward through the touched-node logs of the
//! publications since that buffer's generation, and falls back to a full
//! copy when it cannot. The contract under test: every published snapshot
//! is structure-for-structure identical to a full copy of the maintainer's
//! state at publication (successor overrides including stale slots, exit
//! and membership bitmaps, broadcast levels — `RingSnapshot::same_structures`
//! against the same state published through a fresh publisher), and its
//! ring equals a fresh `Ffc::embed_into` of the accumulated exclusion set.
//!
//! Readers hold random subsets of snapshots for random spans — some past
//! the publisher's log window — so recycled buffers come back from every
//! age. Zero-budget forced rebuilds, an infeasible round trip, a log
//! overflow and a publisher reused across resets to other shapes cover the
//! fallbacks. Exhaustive over the ≤2-fault grid on B(2,5)/B(3,3) and a
//! B(2,14) property test; every run asserts that both the patch path and
//! the full-copy fallback were taken.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use debruijn_rings::core::{
    EmbedScratch, FaultEvent, Ffc, RingMaintainer, RingSnapshot, SnapshotPublisher,
};

/// Longest a simulated reader holds a snapshot, in publications. Well past
/// the publisher's log window, so some recycled buffers are too old to
/// patch.
const MAX_HOLD: u64 = 30;

/// A snapshot pinned by a simulated reader, with the full copy it must
/// keep matching for as long as it is held.
struct Held {
    snap: Arc<RingSnapshot>,
    full: Arc<RingSnapshot>,
    until: u64,
}

/// One maintainer + publisher under test, with readers pinning snapshots.
struct Harness {
    ffc: Ffc,
    maint: RingMaintainer,
    publisher: SnapshotPublisher,
    scratch: EmbedScratch,
    rng: StdRng,
    held: Vec<Held>,
    step: u64,
    applied: u64,
}

impl Harness {
    fn new(ffc: Ffc, maint: RingMaintainer, seed: u64) -> Self {
        let mut h = Harness {
            ffc,
            maint,
            publisher: SnapshotPublisher::new(),
            scratch: EmbedScratch::new(),
            rng: StdRng::seed_from_u64(seed),
            held: Vec::new(),
            step: 0,
            applied: 0,
        };
        h.maint.reset(&h.ffc, &[]).expect("reset");
        h.publish();
        h
    }

    /// Rebinds the maintainer to another graph, keeping the publisher.
    fn reset_to(&mut self, ffc: Ffc) {
        self.ffc = ffc;
        self.maint.reset(&self.ffc, &[]).expect("reset");
        self.publish();
    }

    fn apply(&mut self, events: &[FaultEvent]) {
        self.maint
            .apply_batch(&self.ffc, events)
            .expect("valid events");
        self.applied += events.len() as u64;
    }

    /// Publishes and checks the snapshot against a full copy and a fresh
    /// embed; then lets readers drop what they are done with and pin the
    /// new snapshot for a random span.
    fn publish(&mut self) -> Arc<RingSnapshot> {
        let snap = self
            .maint
            .publish(&mut self.publisher, self.applied)
            .expect("publish");
        // A clone published through a fresh publisher is a full copy of
        // the same state (and leaves the maintainer's own link to its
        // publisher untouched).
        let full = self
            .maint
            .clone()
            .publish(&mut SnapshotPublisher::new(), self.applied)
            .expect("publish");
        assert!(
            snap.same_structures(&full),
            "publication {} differs from a full copy",
            snap.seq()
        );
        let mut ring = Vec::new();
        snap.ring_into(&mut ring);
        if snap.outcome().is_infeasible() {
            assert!(ring.is_empty());
        } else {
            let want = self
                .ffc
                .embed_into(&mut self.scratch, self.maint.session().faulty_nodes());
            assert_eq!(snap.stats(), want, "publication {}", snap.seq());
            assert_eq!(
                &ring[..],
                self.scratch.cycle(),
                "publication {}",
                snap.seq()
            );
        }

        self.step += 1;
        let step = self.step;
        self.held.retain(|h| {
            assert!(
                h.snap.same_structures(&h.full),
                "held snapshot {} changed under its reader",
                h.snap.seq()
            );
            h.until > step
        });
        if self.rng.gen_range(0..2) == 0 {
            let until = step + self.rng.gen_range(1..MAX_HOLD + 1);
            self.held.push(Held {
                snap: Arc::clone(&snap),
                full,
                until,
            });
        }
        snap
    }

    fn assert_both_paths_taken(&self) {
        let p = &self.publisher;
        assert!(p.patched() > 0, "no buffer was patched");
        assert!(p.full_copies() > 0, "no buffer was fully copied");
        assert!(p.bytes_copied() > 0);
    }
}

/// Every ≤2-node fault set, played as down/down/up/up on one maintainer
/// and one publisher, with a publication after every event.
fn exhaustive_grid(h: &mut Harness) {
    let total = h.ffc.graph().len();
    for a in 0..total {
        for b in a..total {
            let mut events = vec![FaultEvent::NodeDown(a)];
            if b != a {
                events.push(FaultEvent::NodeDown(b));
                events.push(FaultEvent::NodeUp(a));
            }
            events.push(FaultEvent::NodeUp(b));
            for ev in events {
                h.apply(&[ev]);
                h.publish();
            }
        }
    }
}

#[test]
fn exhaustive_two_fault_grid_b2_5() {
    let mut h = Harness::new(Ffc::new(2, 5), RingMaintainer::new(), 5);
    exhaustive_grid(&mut h);
    h.assert_both_paths_taken();
}

#[test]
fn exhaustive_two_fault_grid_b3_3() {
    let mut h = Harness::new(Ffc::new(3, 3), RingMaintainer::new(), 33);
    exhaustive_grid(&mut h);
    h.assert_both_paths_taken();
}

#[test]
fn zero_budget_rebuilds_always_copy_in_full() {
    let maint = RingMaintainer::new().with_budget(Some(0));
    let mut h = Harness::new(Ffc::new(2, 5), maint, 7);
    // Four nodes on four different necklaces: every event kills or
    // revives one, so every event rebuilds.
    for v in [3usize, 9, 22, 7] {
        h.apply(&[FaultEvent::NodeDown(v)]);
        h.publish();
    }
    for v in [9usize, 3, 7, 22] {
        h.apply(&[FaultEvent::NodeUp(v)]);
        h.publish();
    }
    assert_eq!(h.maint.repairs().incremental, 0);
    // Every rebuild logs "everything", so nothing can be patched.
    assert_eq!(h.publisher.patched(), 0);
    assert_eq!(h.publisher.full_copies(), 4 * 9);
}

#[test]
fn infeasible_round_trip_matches_full_copies() {
    // B(2,3)'s necklaces are {0}, {1,2,4}, {3,5,6}, {7}: these four
    // faults kill every one of them.
    let mut h = Harness::new(Ffc::new(2, 3), RingMaintainer::new(), 11);
    let kill = [0usize, 1, 3, 7];
    for &v in &kill {
        h.apply(&[FaultEvent::NodeDown(v)]);
        h.publish();
    }
    assert!(h.maint.outcome().is_infeasible());
    for &v in kill.iter().rev() {
        h.apply(&[FaultEvent::NodeUp(v)]);
        h.publish();
    }
    assert!(h.maint.outcome().is_repaired());
    // And back down once more through delta repairs on the revived ring.
    for &v in &[2usize, 5] {
        h.apply(&[FaultEvent::NodeDown(v)]);
        h.publish();
        h.apply(&[FaultEvent::NodeUp(v)]);
        h.publish();
    }
    assert!(h.publisher.full_copies() > 0);
}

#[test]
fn overflowing_the_touched_log_falls_back_to_a_full_copy() {
    let ffc = Ffc::new(2, 5);
    let root_rep = ffc.representative_of(ffc.default_root());
    let mut h = Harness::new(ffc, RingMaintainer::new(), 13);
    // Warm the pools so the next publication could patch.
    for _ in 0..4 {
        h.apply(&[FaultEvent::NodeDown(9)]);
        h.publish();
        h.apply(&[FaultEvent::NodeUp(9)]);
        h.publish();
    }
    let rebuilds = h.maint.repairs().rebuilds;
    let (patched, full) = (h.publisher.patched(), h.publisher.full_copies());
    // Many delta repairs between two publications: far more touched nodes
    // than the log holds (64 entries at this size).
    let total = h.ffc.graph().len();
    for v in 0..total {
        if h.ffc.representative_of(v) != root_rep {
            h.apply(&[FaultEvent::NodeDown(v)]);
            h.apply(&[FaultEvent::NodeUp(v)]);
        }
    }
    h.apply(&[FaultEvent::NodeDown(9)]);
    assert_eq!(
        h.maint.repairs().rebuilds,
        rebuilds,
        "only delta repairs may run, so the fallback is the overflow's"
    );
    h.publish();
    assert_eq!(
        h.publisher.patched(),
        patched,
        "an overflowed log cannot patch"
    );
    assert_eq!(
        h.publisher.full_copies(),
        full + 4,
        "every group copied in full"
    );
    // The log starts afresh after the publication: patching resumes once
    // buffers from after the overflow come back.
    for _ in 0..8 {
        h.apply(&[FaultEvent::NodeUp(9)]);
        h.publish();
        h.apply(&[FaultEvent::NodeDown(9)]);
        h.publish();
    }
    assert!(h.publisher.patched() > patched);
}

#[test]
fn one_publisher_survives_resets_to_other_shapes() {
    let mut h = Harness::new(Ffc::new(2, 5), RingMaintainer::new(), 17);
    exhaustive_grid(&mut h);
    // B(2,4) and B(4,2) both have 16 nodes: buffers of the right length
    // but the wrong shape must not be patched across the reset.
    for (d, n) in [(2u64, 4u32), (4, 2), (3, 3), (2, 5)] {
        h.reset_to(Ffc::new(d, n));
        let full = h.publisher.full_copies();
        let total = h.ffc.graph().len();
        for v in [1usize, 5, total - 2] {
            h.apply(&[FaultEvent::NodeDown(v)]);
            h.publish();
            h.apply(&[FaultEvent::NodeUp(v)]);
            h.publish();
        }
        assert!(h.publisher.full_copies() > full);
    }
    h.assert_both_paths_taken();
}

/// Publishes `maint` into `publisher` and checks the snapshot against a
/// full copy of the same state.
fn publish_matches_full_copy(maint: &mut RingMaintainer, publisher: &mut SnapshotPublisher) {
    let snap = maint.publish(publisher, 0).expect("publish");
    let full = maint
        .clone()
        .publish(&mut SnapshotPublisher::new(), 0)
        .expect("publish");
    assert!(snap.same_structures(&full), "publication {}", snap.seq());
}

#[test]
fn interleaved_publishers_and_maintainers_stay_exact() {
    // The dirty flags and the touched log describe changes since the
    // session's own last publication; they must not be trusted against a
    // publisher whose latest snapshot came from elsewhere.
    let ffc = Ffc::new(2, 5);
    let mut a = RingMaintainer::new();
    a.reset(&ffc, &[]).expect("reset");
    let mut b = a.clone();
    let (mut p, mut q) = (SnapshotPublisher::new(), SnapshotPublisher::new());
    for (i, &v) in [3usize, 9, 22, 7, 9, 3].iter().enumerate() {
        let ev = if i < 4 {
            FaultEvent::NodeDown(v)
        } else {
            FaultEvent::NodeUp(v)
        };
        a.apply_batch(&ffc, &[ev]).expect("valid");
        publish_matches_full_copy(&mut a, &mut p);
        publish_matches_full_copy(&mut a, &mut q);
        publish_matches_full_copy(&mut a, &mut p);
        if i % 2 == 1 {
            // A second maintainer, lagging behind, shares publisher `p`.
            b.apply_batch(&ffc, &[ev]).expect("valid");
            publish_matches_full_copy(&mut b, &mut p);
        }
    }
}

#[test]
fn warmed_up_maintainer_and_publisher_absorb_churn_without_allocating() {
    let ffc = Ffc::new(2, 14);
    let total = ffc.graph().len();
    let mut maint = RingMaintainer::new();
    let mut publisher = SnapshotPublisher::new();
    maint.reset(&ffc, &[]).expect("in-range");
    let churn: Vec<usize> = (0..12).map(|i| (i * 241 + 7) % total).collect();
    // One event per publication, and a reader pins each snapshot for the
    // next three publications, so recycled buffers come back a few
    // generations old and are patched forward.
    let mut held: Vec<Arc<RingSnapshot>> = Vec::new();
    let mut round = |maint: &mut RingMaintainer, publisher: &mut SnapshotPublisher| {
        for ev in churn
            .iter()
            .map(|&v| FaultEvent::NodeDown(v))
            .chain(churn.iter().map(|&v| FaultEvent::NodeUp(v)))
        {
            maint.apply_batch(&ffc, &[ev]).expect("in-range");
            held.push(maint.publish(publisher, 0).expect("publish"));
            if held.len() > 3 {
                held.remove(0);
            }
        }
    };
    for _ in 0..3 {
        round(&mut maint, &mut publisher);
    }
    let session_bytes = maint.allocated_bytes();
    let publisher_bytes = publisher.allocated_bytes();
    let patched = publisher.patched();
    for _ in 0..2 {
        round(&mut maint, &mut publisher);
    }
    assert!(publisher.patched() > patched, "steady churn must patch");
    assert_eq!(maint.allocated_bytes(), session_bytes, "session grew");
    assert_eq!(
        publisher.allocated_bytes(),
        publisher_bytes,
        "publisher grew"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random node and link churn on B(2,14), with batches sometimes
    /// absorbed without a publication in between (so several batches'
    /// logs merge) and readers pinning snapshots for random spans. Batches
    /// of one or two events keep many publications within the 256-entry
    /// log of this size, so both paths run.
    #[test]
    fn b2_14_published_snapshots_match_full_copies(
        seed in any::<u64>(),
        steps in 40usize..60,
    ) {
        let ffc = Ffc::new(2, 14);
        let total = ffc.graph().len();
        let mut h = Harness::new(ffc, RingMaintainer::new(), seed);
        let mut down: Vec<usize> = Vec::new();
        for _ in 0..steps {
            let mut batch = Vec::new();
            for _ in 0..h.rng.gen_range(1..3) {
                if !down.is_empty() && h.rng.gen_range(0..3) == 0 {
                    let i = h.rng.gen_range(0..down.len());
                    batch.push(FaultEvent::NodeUp(down.swap_remove(i)));
                } else if h.rng.gen_range(0..5) == 0 {
                    let u = h.rng.gen_range(0..total);
                    let w = (u % (total / 2)) * 2 + h.rng.gen_range(0..2);
                    batch.push(FaultEvent::EdgeDown(u, w));
                } else {
                    let v = h.rng.gen_range(0..total);
                    if !down.contains(&v) {
                        down.push(v);
                    }
                    batch.push(FaultEvent::NodeDown(v));
                }
            }
            h.apply(&batch);
            if h.rng.gen_range(0..4) != 0 {
                h.publish();
            }
        }
        h.publish();
        prop_assert!(h.publisher.patched() > 0);
        prop_assert!(h.publisher.full_copies() > 0);
    }
}

//! Immutable, refcounted ring snapshots and their copy-on-publish builder.
//!
//! [`super::session::EmbedSession`] is the *mutable* half of the embedding
//! state: delta passes rewrite its levels, records and wiring in place. A
//! [`RingSnapshot`] is the immutable read-side view carved off it — the
//! successor overrides, exit bitmap, B* membership bitmap, root and stats,
//! everything a reader needs to answer `successor`/`contains`/ring-walk
//! queries — frozen behind `Arc`s so any number of readers can hold it
//! while repairs continue on the session.
//!
//! [`SnapshotPublisher`] builds snapshots **copy-on-publish**: the session
//! tracks which structure groups a repair actually touched (the ring wiring
//! `succ`/`exit_bits`; the membership bitmap; the broadcast level group),
//! and an untouched group is shared with the previous snapshot by bumping
//! its `Arc`. A no-topology-change publication (e.g. a redundant event, or
//! pure stats refresh) therefore costs O(1).
//!
//! A touched group is **patched, not copied**. Retired buffers are
//! reclaimed by refcount once their last reader drops
//! (grace-period-by-`Arc`) into per-group pools, each tagged with the
//! `seq` of the snapshot it came from. The session also hands over a log
//! of the nodes whose entries the repairs since its last publication may
//! have changed, and the publisher keeps the logs of its last few
//! publications. A dirty group takes its newest pooled buffer and replays
//! the logs from that buffer's generation up to now, rewriting only the
//! logged nodes' entries. Publication thus costs O(touched nodes ×
//! generations behind) instead of O(n): at B(2,20) a churn batch touches
//! tens to a few thousand of the 2^20 nodes. A full copy happens only
//! when patching cannot apply — after a rebuild, reset or infeasible
//! transition (whose logs say "everything"), when the logs to replay
//! outgrow one log's capacity (a copy is then about as cheap), when the
//! newest pooled buffer is older than the log window, or when the pool is
//! empty (the first publications).
//!
//! The read path is unchanged by all this: a snapshot is flat `Vec`s, so
//! [`crate::serve::ReaderHandle`] lookups pay no indirection.

use std::sync::Arc;

use super::session::RepairOutcome;
use super::EmbedStats;
use crate::bitreach::{LevelVec, UNREACHED};
use crate::mem::reserve_more;

/// Bound on pooled buffers of each group kept for reuse.
const POOL_CAP: usize = 8;
/// How many publications' touched-node logs the publisher keeps; a
/// recycled buffer from further back is refilled by a full copy. It covers
/// a [`crate::serve::RingService`], whose epoch cell pins the last
/// `epoch::DEFAULT_SLOTS` (8) snapshots, so buffers come back 9–10
/// publications old.
const LOG_WINDOW: usize = 12;
/// Bound on retired snapshots tracked for buffer reclamation; beyond this
/// the oldest are dropped from tracking (their readers still keep them
/// alive — only the *reuse* opportunity is given up).
const RETIRED_CAP: usize = 64;

/// A typed rejection from [`RingSnapshot`] read accessors — the read-side
/// mirror of [`super::session::RepairError`]'s validation (PR 6): malformed
/// queries come back as values, never panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupError {
    /// The queried id is not a node of the snapshot's B(d,n).
    NodeOutOfRange {
        /// The offending id.
        node: usize,
        /// The snapshot's node count.
        n_nodes: usize,
    },
    /// The queried node is a valid id but not on the served ring (faulty,
    /// on a dead necklace, or outside the surviving component), so it has
    /// no ring successor.
    NotOnRing {
        /// The off-ring node.
        node: usize,
    },
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LookupError::NodeOutOfRange { node, n_nodes } => {
                write!(f, "node id {node} out of range (graph has {n_nodes} nodes)")
            }
            LookupError::NotOnRing { node } => {
                write!(f, "node {node} is not on the served ring")
            }
        }
    }
}

impl std::error::Error for LookupError {}

/// One immutable generation of the maintained ring: everything the read
/// path needs, shared behind `Arc`s. Cheap to clone (three refcount bumps
/// plus a few words); safe to hold across any number of subsequent
/// repairs — the structures it references are never mutated after
/// publication.
#[derive(Clone)]
pub struct RingSnapshot {
    pub(crate) d: usize,
    pub(crate) suffix: usize,
    pub(crate) n_nodes: usize,
    /// How many fault events the producing session had absorbed when this
    /// snapshot was published — readers use it to line the snapshot up
    /// with a prefix of the event sequence.
    pub(crate) applied_events: u64,
    /// Publication sequence number (1 = the initial publication).
    pub(crate) seq: u64,
    pub(crate) stats: EmbedStats,
    pub(crate) infeasible: bool,
    /// Successor overrides (meaningful where the exit bit is set).
    pub(crate) succ: Arc<Vec<u32>>,
    /// Bit v set ⟺ node v leaves its necklace through a w-edge.
    pub(crate) exit_bits: Arc<Vec<u64>>,
    /// Bit v set ⟺ node v rides the served ring (B* membership).
    pub(crate) bstar_bits: Arc<Vec<u64>>,
    /// Broadcast level of every node at publication time, in the compact
    /// one-byte-per-node encoding ([`UNREACHED`] off the ring).
    pub(crate) bcast_level: Arc<LevelVec>,
}

impl RingSnapshot {
    /// The scalar results of the fault set this snapshot embeds — identical
    /// to [`super::Ffc::embed_into`] of that set.
    #[must_use]
    pub fn stats(&self) -> EmbedStats {
        self.stats
    }

    /// Number of nodes of the underlying B(d,n).
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Fault events absorbed when this snapshot was published.
    #[must_use]
    pub fn applied_events(&self) -> u64 {
        self.applied_events
    }

    /// Publication sequence number (monotone per publisher, starting at 1).
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The ring's root node, or `None` when the fault set is infeasible
    /// (every necklace faulty — no ring exists).
    #[must_use]
    pub fn root(&self) -> Option<usize> {
        (!self.infeasible).then_some(self.stats.root)
    }

    /// Length of the served ring (0 when infeasible).
    #[must_use]
    pub fn ring_len(&self) -> usize {
        self.stats.component_size
    }

    /// Classifies the snapshot's state exactly like
    /// [`super::session::EmbedSession::outcome`].
    #[must_use]
    pub fn outcome(&self) -> RepairOutcome {
        if self.infeasible {
            return RepairOutcome::Infeasible { stats: self.stats };
        }
        let live = self.n_nodes - self.stats.removed_nodes;
        let excluded = live - self.stats.component_size;
        if excluded == 0 {
            RepairOutcome::Repaired(self.stats)
        } else {
            RepairOutcome::Degraded {
                stats: self.stats,
                ring_len: self.stats.component_size,
                excluded,
            }
        }
    }

    #[inline]
    fn on_ring(&self, v: usize) -> bool {
        self.bstar_bits[v / 64] >> (v % 64) & 1 == 1
    }

    #[inline]
    fn check_node(&self, node: usize) -> Result<(), LookupError> {
        if node >= self.n_nodes {
            return Err(LookupError::NodeOutOfRange {
                node,
                n_nodes: self.n_nodes,
            });
        }
        Ok(())
    }

    /// Whether node `u` rides the served ring.
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] for an id outside the graph.
    pub fn contains(&self, u: usize) -> Result<bool, LookupError> {
        self.check_node(u)?;
        Ok(self.on_ring(u))
    }

    /// The broadcast level of `u` at publication time: its distance from
    /// the ring root in the surviving component, or `None` for a node off
    /// the broadcast tree (faulty or disconnected).
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] for an id outside the graph.
    pub fn broadcast_level(&self, u: usize) -> Result<Option<u32>, LookupError> {
        self.check_node(u)?;
        let l = self.bcast_level.get(u);
        Ok((l != UNREACHED).then_some(l))
    }

    /// The ring successor of `u`: the next node the embedded cycle visits.
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] for an id outside the graph,
    /// [`LookupError::NotOnRing`] for a live id that is not on the ring.
    pub fn successor(&self, u: usize) -> Result<usize, LookupError> {
        self.check_node(u)?;
        if !self.on_ring(u) {
            return Err(LookupError::NotOnRing { node: u });
        }
        Ok(self.successor_unchecked(u))
    }

    #[inline]
    fn successor_unchecked(&self, u: usize) -> usize {
        if self.exit_bits[u / 64] >> (u % 64) & 1 == 1 {
            self.succ[u] as usize
        } else {
            (u % self.suffix) * self.d + u / self.suffix
        }
    }

    /// Walks `len` consecutive ring nodes starting at `u` into `out`
    /// (clearing it first) and returns how many were written — `len`
    /// capped at the ring length, so a full lap is the maximum.
    ///
    /// # Errors
    /// [`LookupError::NodeOutOfRange`] / [`LookupError::NotOnRing`] as for
    /// [`RingSnapshot::successor`]; `out` is left empty on error.
    pub fn ring_segment(
        &self,
        u: usize,
        len: usize,
        out: &mut Vec<usize>,
    ) -> Result<usize, LookupError> {
        out.clear();
        self.check_node(u)?;
        if !self.on_ring(u) {
            return Err(LookupError::NotOnRing { node: u });
        }
        let take = len.min(self.stats.component_size);
        let mut v = u;
        for _ in 0..take {
            out.push(v);
            v = self.successor_unchecked(v);
        }
        Ok(take)
    }

    /// Whether `other` serves exactly the same ring: same graph, stats and
    /// feasibility, and identical structures — successor overrides (stale
    /// slots included), exit and membership bitmaps, broadcast levels.
    /// Publication metadata (`seq`, `applied_events`) is not compared. A
    /// snapshot whose buffers were patched forward must pass this against
    /// a full copy of the same session state.
    #[must_use]
    pub fn same_structures(&self, other: &RingSnapshot) -> bool {
        self.d == other.d
            && self.n_nodes == other.n_nodes
            && self.stats == other.stats
            && self.infeasible == other.infeasible
            && self.succ == other.succ
            && self.exit_bits == other.exit_bits
            && self.bstar_bits == other.bstar_bits
            && self.bcast_level == other.bcast_level
    }

    /// Walks the full served ring from the root into `out` — byte-identical
    /// to [`super::session::EmbedSession::ring_into`] at publication time.
    /// Leaves `out` empty when the snapshot is infeasible.
    pub fn ring_into(&self, out: &mut Vec<usize>) {
        out.clear();
        if self.infeasible || self.stats.component_size == 0 {
            return;
        }
        let root = self.stats.root;
        let mut v = root;
        loop {
            out.push(v);
            v = self.successor_unchecked(v);
            if v == root {
                break;
            }
            debug_assert!(
                out.len() <= self.stats.component_size,
                "ring walk escaped B* or looped early"
            );
        }
    }
}

impl std::fmt::Debug for RingSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSnapshot")
            .field("seq", &self.seq)
            .field("applied_events", &self.applied_events)
            .field("n_nodes", &self.n_nodes)
            .field("ring_len", &self.stats.component_size)
            .field("infeasible", &self.infeasible)
            .finish_non_exhaustive()
    }
}

/// The borrow bundle a session hands the publisher: current structure
/// slices, the copy-on-publish dirty flags saying which groups changed
/// since the last publication, and the log of nodes whose entries may
/// have changed.
pub(crate) struct SnapshotParts<'a> {
    pub d: usize,
    pub suffix: usize,
    pub n_nodes: usize,
    pub stats: EmbedStats,
    pub infeasible: bool,
    /// `succ`/`exit_bits` changed since the last publication.
    pub ring_dirty: bool,
    /// `bstar_bits` changed since the last publication.
    pub bstar_dirty: bool,
    /// `bcast_level` changed since the last publication.
    pub level_dirty: bool,
    /// Every node whose `succ` entry, exit or membership bit, or broadcast
    /// level may differ from the last publication (duplicates allowed);
    /// `None` when anything may have changed.
    pub touched: Option<&'a [u32]>,
    pub succ: &'a [u32],
    pub exit_bits: &'a [u64],
    pub bstar_bits: &'a [u64],
    pub bcast_level: &'a LevelVec,
    pub applied_events: u64,
}

/// Capacity of one touched-node log for a graph of `n_nodes` nodes; a
/// session that touches more between two publications logs "everything"
/// instead, and a refill replays at most this many entries. One entry per
/// 64 nodes is about where patching stops paying: a full copy moves
/// ~5.25 bytes per node sequentially, a patched entry rewrites four
/// scattered buffer slots. It also keeps the session's log plus the
/// publisher's `LOG_WINDOW` logs within 1 MiB at B(2,20)
/// (13 × 16 Ki entries × 4 B = 832 KiB).
pub(crate) fn touch_log_cap(n_nodes: usize) -> usize {
    (n_nodes / 64).max(64)
}

/// The session side of patch-on-publish: the nodes whose published
/// entries may have changed since the session's last publication. Bounded
/// by [`touch_log_cap`]; a rebuild, a reset or an overflowing batch marks
/// it "everything", which makes the next publication copy in full.
#[derive(Clone, Debug, Default)]
pub(crate) struct TouchLog {
    nodes: Vec<u32>,
    cap: usize,
    all: bool,
}

impl TouchLog {
    /// Sizes the log for a graph of `n_nodes` nodes and marks everything
    /// touched.
    pub(crate) fn reset(&mut self, n_nodes: usize) {
        self.cap = touch_log_cap(n_nodes);
        reserve_more(&mut self.nodes, self.cap);
        self.mark_all();
    }

    /// Anything may have changed (a rebuild or a shape change).
    pub(crate) fn mark_all(&mut self) {
        self.all = true;
        self.nodes.clear();
    }

    /// Logs `nodes` as touched, or switches to "everything" when they do
    /// not fit.
    pub(crate) fn extend(&mut self, nodes: &[u32]) {
        if self.all {
            return;
        }
        if self.nodes.len() + nodes.len() > self.cap {
            self.mark_all();
        } else {
            self.nodes.extend_from_slice(nodes);
        }
    }

    /// The logged nodes, or `None` for "everything".
    pub(crate) fn nodes(&self) -> Option<&[u32]> {
        (!self.all).then_some(&self.nodes)
    }

    /// Starts a new log after a publication.
    pub(crate) fn clear(&mut self) {
        self.all = false;
        self.nodes.clear();
    }

    pub(crate) fn allocated_bytes(&self) -> usize {
        4 * self.nodes.capacity()
    }
}

/// One publication's touched log, kept by the publisher.
#[derive(Debug, Default)]
struct LoggedPublication {
    /// The publication's sequence number (0 = empty slot).
    seq: u64,
    /// Anything may have changed in this publication.
    all: bool,
    nodes: Vec<u32>,
}

/// The touched logs of the last [`LOG_WINDOW`] publications, in recycled
/// buffers (slot `seq % LOG_WINDOW`), each reserved up front to the
/// largest log capacity seen so no publication grows one.
#[derive(Debug, Default)]
struct LogWindow {
    slots: Vec<LoggedPublication>,
    /// Capacity every slot is reserved to.
    reserved: usize,
    /// [`touch_log_cap`] of the graph last published: also the most
    /// entries one refill replays before a full copy is the cheaper way.
    cap: usize,
}

impl LogWindow {
    fn slot(&self, seq: u64) -> &LoggedPublication {
        &self.slots[(seq % LOG_WINDOW as u64) as usize]
    }

    fn record(&mut self, seq: u64, touched: Option<&[u32]>, cap: usize) {
        if self.reserved < cap {
            self.slots
                .resize_with(LOG_WINDOW, LoggedPublication::default);
            for slot in &mut self.slots {
                reserve_more(&mut slot.nodes, cap);
            }
            self.reserved = cap;
        }
        self.cap = cap;
        let slot = &mut self.slots[(seq % LOG_WINDOW as u64) as usize];
        slot.seq = seq;
        slot.all = touched.is_none();
        slot.nodes.clear();
        slot.nodes.extend_from_slice(touched.unwrap_or_default());
    }

    /// Every node logged by publications `from..=to`, or `None` when one
    /// of them is no longer in the window or logged "everything", or when
    /// together they log more than one log's capacity.
    fn replay(&self, from: u64, to: u64) -> Option<impl Iterator<Item = usize> + '_> {
        let covered = from <= to
            && to - from < LOG_WINDOW as u64
            && (from..=to).all(|k| {
                let s = self.slot(k);
                s.seq == k && !s.all
            })
            && (from..=to).map(|k| self.slot(k).nodes.len()).sum::<usize>() <= self.cap;
        covered
            .then(|| (from..=to).flat_map(move |k| self.slot(k).nodes.iter().map(|&v| v as usize)))
    }

    fn allocated_bytes(&self) -> usize {
        self.slots.iter().map(|s| 4 * s.nodes.capacity()).sum()
    }
}

/// A snapshot buffer the publisher refills from the session's live
/// structure: in full, or node by node from the touched logs.
trait Refill: Default {
    type Src: ?Sized;
    /// Bytes one patched node rewrites.
    const NODE_BYTES: usize;
    /// Whether the buffer has the source's shape, so patching applies.
    fn fits(&self, src: &Self::Src) -> bool;
    /// Overwrites the buffer with `src`; returns the bytes copied.
    fn copy_all(&mut self, src: &Self::Src) -> usize;
    /// Brings node `v`'s entry up to date with `src`.
    fn patch(&mut self, src: &Self::Src, v: usize);
}

impl Refill for Vec<u32> {
    type Src = [u32];
    const NODE_BYTES: usize = 4;

    fn fits(&self, src: &[u32]) -> bool {
        self.len() == src.len()
    }

    fn copy_all(&mut self, src: &[u32]) -> usize {
        self.clear();
        self.extend_from_slice(src);
        4 * src.len()
    }

    #[inline]
    fn patch(&mut self, src: &[u32], v: usize) {
        self[v] = src[v];
    }
}

impl Refill for Vec<u64> {
    type Src = [u64];
    const NODE_BYTES: usize = 8;

    fn fits(&self, src: &[u64]) -> bool {
        self.len() == src.len()
    }

    fn copy_all(&mut self, src: &[u64]) -> usize {
        self.clear();
        self.extend_from_slice(src);
        8 * src.len()
    }

    #[inline]
    fn patch(&mut self, src: &[u64], v: usize) {
        self[v / 64] = src[v / 64];
    }
}

impl Refill for LevelVec {
    type Src = LevelVec;
    const NODE_BYTES: usize = 1;

    fn fits(&self, src: &LevelVec) -> bool {
        self.len() == src.len()
    }

    fn copy_all(&mut self, src: &LevelVec) -> usize {
        self.copy_from(src);
        src.len() + 8 * src.overflow_len()
    }

    #[inline]
    fn patch(&mut self, src: &LevelVec, v: usize) {
        self.set(v, src.get(v));
    }
}

/// Retired buffers of one group, each tagged with the `seq` of the
/// snapshot it was reclaimed from: its contents are that publication's.
type Pool<T> = Vec<(u64, T)>;

/// The publisher's copy counters (see the accessors of the same names).
#[derive(Debug, Default)]
struct CopyCounters {
    patched: u64,
    full_copies: u64,
    bytes_copied: u64,
}

/// Fills a dirty group for publication `seq`: the newest pooled buffer,
/// patched forward through the logs of the publications after it, or a
/// full copy when a log in that range is missing or says "everything",
/// the logs are too long to beat a copy, the buffer's shape differs, or
/// the pool is empty.
fn refill<T: Refill + PartialEq<T::Src>>(
    pool: &mut Pool<T>,
    logs: &LogWindow,
    seq: u64,
    src: &T::Src,
    counters: &mut CopyCounters,
) -> Arc<T> {
    let newest = (0..pool.len()).max_by_key(|&i| pool[i].0);
    let (from, mut buf) = newest.map_or((seq, T::default()), |i| pool.swap_remove(i));
    match logs.replay(from + 1, seq).filter(|_| buf.fits(src)) {
        Some(nodes) => {
            let mut patched = 0usize;
            for v in nodes {
                buf.patch(src, v);
                patched += 1;
            }
            counters.patched += 1;
            counters.bytes_copied += (patched * T::NODE_BYTES) as u64;
        }
        None => {
            counters.full_copies += 1;
            counters.bytes_copied += buf.copy_all(src) as u64;
        }
    }
    debug_assert!(
        buf == *src,
        "refilled snapshot buffer differs from the session's structure"
    );
    Arc::new(buf)
}

/// Returns a retired buffer to its group's pool (when this was its last
/// reference); 1 if it was pooled. A full pool keeps its newest buffers,
/// the cheapest to patch forward.
fn reclaim<T>(pool: &mut Pool<T>, seq: u64, arc: Arc<T>) -> u64 {
    let Ok(buf) = Arc::try_unwrap(arc) else {
        return 0;
    };
    if pool.len() < POOL_CAP {
        pool.push((seq, buf));
        return 1;
    }
    match pool.iter_mut().min_by_key(|(s, _)| *s) {
        Some(oldest) if oldest.0 < seq => {
            *oldest = (seq, buf);
            1
        }
        _ => 0,
    }
}

fn pooled_bytes<T>(pool: &Pool<T>, bytes: impl Fn(&T) -> usize) -> usize {
    pool.iter().map(|(_, b)| bytes(b)).sum()
}

/// Builds [`RingSnapshot`]s copy-on-publish and recycles retired buffers.
///
/// Owned by whatever drives the session (the [`crate::serve::RingService`]
/// writer thread, a test harness): it is the *single-threaded* producer
/// half; distribution to concurrent readers happens by handing the returned
/// `Arc<RingSnapshot>` to an [`epoch::EpochCell`].
#[derive(Debug, Default)]
pub struct SnapshotPublisher {
    prev: Option<Arc<RingSnapshot>>,
    /// Superseded snapshots still (possibly) held by readers, tracked so
    /// their buffers can be pooled once the last reader lets go.
    retired: Vec<Arc<RingSnapshot>>,
    free_succ: Pool<Vec<u32>>,
    free_exit: Pool<Vec<u64>>,
    free_bstar: Pool<Vec<u64>>,
    free_levels: Pool<LevelVec>,
    logs: LogWindow,
    copies: CopyCounters,
    publications: u64,
    shared_ring: u64,
    shared_membership: u64,
    shared_levels: u64,
    reclaimed: u64,
}

impl SnapshotPublisher {
    /// Creates an empty publisher.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total snapshots published through this publisher.
    #[must_use]
    pub fn publications(&self) -> u64 {
        self.publications
    }

    /// Publications that shared the previous ring wiring (`succ` +
    /// `exit_bits`) instead of copying it.
    #[must_use]
    pub fn shared_ring(&self) -> u64 {
        self.shared_ring
    }

    /// Publications that shared the previous membership bitmap.
    #[must_use]
    pub fn shared_membership(&self) -> u64 {
        self.shared_membership
    }

    /// Publications that shared the previous broadcast level group.
    #[must_use]
    pub fn shared_levels(&self) -> u64 {
        self.shared_levels
    }

    /// Retired buffers recycled into the free pools so far.
    #[must_use]
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Buffers (`succ`, exit bitmap, membership bitmap, levels) brought up
    /// to date by replaying touched-node logs onto a recycled buffer.
    #[must_use]
    pub fn patched(&self) -> u64 {
        self.copies.patched
    }

    /// Buffers filled by a full copy of the session's structure (the first
    /// publication, after a rebuild or reset, or when no recycled buffer
    /// is recent enough to patch).
    #[must_use]
    pub fn full_copies(&self) -> u64 {
        self.copies.full_copies
    }

    /// Bytes written into snapshot buffers by patches and full copies.
    #[must_use]
    pub fn bytes_copied(&self) -> u64 {
        self.copies.bytes_copied
    }

    /// Bytes reserved by the free pools and the touched-log window —
    /// constant across steady-state churn once warmed up.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        pooled_bytes(&self.free_succ, |b| 4 * b.capacity())
            + pooled_bytes(&self.free_exit, |b| 8 * b.capacity())
            + pooled_bytes(&self.free_bstar, |b| 8 * b.capacity())
            + pooled_bytes(&self.free_levels, LevelVec::allocated_bytes)
            + self.logs.allocated_bytes()
    }

    /// The most recently published snapshot, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&Arc<RingSnapshot>> {
        self.prev.as_ref()
    }

    /// Assembles a snapshot from the session's current structures: clean
    /// groups are shared with the previous publication, dirty ones are
    /// refilled (patched or copied, see [`refill`]).
    pub(crate) fn build(&mut self, parts: SnapshotParts<'_>) -> Arc<RingSnapshot> {
        self.sweep_retired();
        let seq = self.publications + 1;
        self.logs
            .record(seq, parts.touched, touch_log_cap(parts.n_nodes));
        let prev = self
            .prev
            .as_ref()
            .filter(|p| p.n_nodes == parts.n_nodes && p.d == parts.d);
        let (succ, exit_bits) = match prev.filter(|_| !parts.ring_dirty) {
            Some(p) => {
                debug_assert_eq!(&**p.succ, parts.succ, "ring flagged clean but succ differs");
                debug_assert_eq!(
                    &**p.exit_bits, parts.exit_bits,
                    "ring flagged clean but exit bitmap differs"
                );
                self.shared_ring += 1;
                (Arc::clone(&p.succ), Arc::clone(&p.exit_bits))
            }
            None => (
                refill(
                    &mut self.free_succ,
                    &self.logs,
                    seq,
                    parts.succ,
                    &mut self.copies,
                ),
                refill(
                    &mut self.free_exit,
                    &self.logs,
                    seq,
                    parts.exit_bits,
                    &mut self.copies,
                ),
            ),
        };
        let bstar_bits = match prev.filter(|_| !parts.bstar_dirty) {
            Some(p) => {
                debug_assert_eq!(
                    &**p.bstar_bits, parts.bstar_bits,
                    "membership flagged clean but bitmap differs"
                );
                self.shared_membership += 1;
                Arc::clone(&p.bstar_bits)
            }
            None => refill(
                &mut self.free_bstar,
                &self.logs,
                seq,
                parts.bstar_bits,
                &mut self.copies,
            ),
        };
        let bcast_level = match prev.filter(|_| !parts.level_dirty) {
            Some(p) => {
                debug_assert_eq!(
                    &*p.bcast_level, parts.bcast_level,
                    "levels flagged clean but broadcast levels differ"
                );
                self.shared_levels += 1;
                Arc::clone(&p.bcast_level)
            }
            None => refill(
                &mut self.free_levels,
                &self.logs,
                seq,
                parts.bcast_level,
                &mut self.copies,
            ),
        };
        self.publications = seq;
        let snap = Arc::new(RingSnapshot {
            d: parts.d,
            suffix: parts.suffix,
            n_nodes: parts.n_nodes,
            applied_events: parts.applied_events,
            seq,
            stats: parts.stats,
            infeasible: parts.infeasible,
            succ,
            exit_bits,
            bstar_bits,
            bcast_level,
        });
        if let Some(old) = self.prev.replace(Arc::clone(&snap)) {
            self.retired.push(old);
        }
        snap
    }

    /// Harvests retired snapshots whose last reader has gone: their buffers
    /// (when this publisher holds the last reference to them too) go back
    /// to the free pools, tagged with the snapshot's `seq`. Readers that
    /// still hold a snapshot keep it alive untouched — reclamation is
    /// purely refcount-driven.
    fn sweep_retired(&mut self) {
        let mut i = 0;
        while i < self.retired.len() {
            if Arc::strong_count(&self.retired[i]) > 1 {
                i += 1;
                continue;
            }
            let gone = self.retired.swap_remove(i);
            // We held the only strong reference and no weaks exist, so this
            // cannot fail; if it somehow does, dropping is still correct.
            if let Ok(snap) = Arc::try_unwrap(gone) {
                let seq = snap.seq;
                self.reclaimed += reclaim(&mut self.free_succ, seq, snap.succ)
                    + reclaim(&mut self.free_exit, seq, snap.exit_bits)
                    + reclaim(&mut self.free_bstar, seq, snap.bstar_bits)
                    + reclaim(&mut self.free_levels, seq, snap.bcast_level);
            }
        }
        if self.retired.len() > RETIRED_CAP {
            // Stop tracking the oldest; their readers' refcounts free them.
            let excess = self.retired.len() - RETIRED_CAP;
            self.retired.drain(..excess);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{FaultEvent, Ffc, RingMaintainer};
    use super::*;

    fn service_pair() -> (Ffc, RingMaintainer, SnapshotPublisher) {
        let ffc = Ffc::new(2, 5);
        let mut maint = RingMaintainer::new();
        maint.reset(&ffc, &[]).expect("reset");
        (ffc, maint, SnapshotPublisher::new())
    }

    #[test]
    fn accessors_reject_out_of_range_ids_with_typed_errors() {
        let (_ffc, mut maint, mut publisher) = service_pair();
        let snap = maint.publish(&mut publisher, 0).expect("publish");
        let n = snap.n_nodes();
        for bad in [n, n + 1, usize::MAX] {
            let want = LookupError::NodeOutOfRange {
                node: bad,
                n_nodes: n,
            };
            assert_eq!(snap.contains(bad), Err(want));
            assert_eq!(snap.successor(bad), Err(want));
            let mut out = vec![7usize];
            assert_eq!(snap.ring_segment(bad, 4, &mut out), Err(want));
            assert!(out.is_empty(), "ring_segment must clear out on error");
        }
    }

    #[test]
    fn successor_rejects_off_ring_nodes() {
        let (ffc, mut maint, mut publisher) = service_pair();
        maint
            .apply_batch(&ffc, &[FaultEvent::NodeDown(3)])
            .expect("repair");
        let snap = maint.publish(&mut publisher, 1).expect("publish");
        assert_eq!(snap.contains(3), Ok(false));
        assert_eq!(snap.successor(3), Err(LookupError::NotOnRing { node: 3 }));
        let mut out = Vec::new();
        assert_eq!(
            snap.ring_segment(3, 4, &mut out),
            Err(LookupError::NotOnRing { node: 3 })
        );
    }

    #[test]
    fn segment_walk_matches_full_ring() {
        let (_ffc, mut maint, mut publisher) = service_pair();
        let snap = maint.publish(&mut publisher, 0).expect("publish");
        let mut ring = Vec::new();
        snap.ring_into(&mut ring);
        assert_eq!(ring.len(), snap.ring_len());
        let mut seg = Vec::new();
        // A segment longer than the ring caps at one full lap.
        let wrote = snap
            .ring_segment(ring[0], ring.len() + 100, &mut seg)
            .expect("segment");
        assert_eq!(wrote, ring.len());
        assert_eq!(seg, ring);
        // A short segment from mid-ring matches the corresponding window.
        let wrote = snap.ring_segment(ring[2], 3, &mut seg).expect("segment");
        assert_eq!(wrote, 3);
        assert_eq!(seg, ring[2..5]);
        // Every walked node is a member.
        for &v in &ring {
            assert_eq!(snap.contains(v), Ok(true));
            assert!(snap.successor(v).is_ok());
        }
    }

    #[test]
    fn clean_publications_share_structures_by_refcount() {
        let (ffc, mut maint, mut publisher) = service_pair();
        let first = maint.publish(&mut publisher, 0).expect("publish");
        // No events in between: everything is clean and shared.
        let second = maint.publish(&mut publisher, 0).expect("publish");
        assert!(Arc::ptr_eq(&first.succ, &second.succ));
        assert!(Arc::ptr_eq(&first.exit_bits, &second.exit_bits));
        assert!(Arc::ptr_eq(&first.bstar_bits, &second.bstar_bits));
        assert!(Arc::ptr_eq(&first.bcast_level, &second.bcast_level));
        assert_eq!(publisher.shared_ring(), 1);
        assert_eq!(publisher.shared_membership(), 1);
        assert_eq!(publisher.shared_levels(), 1);
        // A topology-changing event dirties every group.
        maint
            .apply_batch(&ffc, &[FaultEvent::NodeDown(5)])
            .expect("repair");
        let third = maint.publish(&mut publisher, 1).expect("publish");
        assert!(!Arc::ptr_eq(&second.bstar_bits, &third.bstar_bits));
        assert!(!Arc::ptr_eq(&second.bcast_level, &third.bcast_level));
        assert_eq!(third.seq(), 3);
        assert_eq!(third.applied_events(), 1);
    }

    #[test]
    fn snapshot_broadcast_levels_match_membership_and_root() {
        let (ffc, mut maint, mut publisher) = service_pair();
        maint
            .apply_batch(&ffc, &[FaultEvent::NodeDown(3), FaultEvent::NodeDown(17)])
            .expect("repair");
        let snap = maint.publish(&mut publisher, 2).expect("publish");
        let root = snap.root().expect("feasible");
        assert_eq!(snap.broadcast_level(root), Ok(Some(0)));
        for v in 0..snap.n_nodes() {
            let lvl = snap.broadcast_level(v).expect("in range");
            // Level reach and ring membership agree on B* exactly.
            assert_eq!(
                lvl.is_some(),
                snap.contains(v).expect("in range"),
                "node {v}"
            );
        }
        let n = snap.n_nodes();
        assert_eq!(
            snap.broadcast_level(n),
            Err(LookupError::NodeOutOfRange {
                node: n,
                n_nodes: n
            })
        );
    }

    #[test]
    fn touched_logs_stay_within_a_mebibyte_at_b2_20() {
        // The session's log plus the publisher's window, all reserved to
        // the per-log capacity.
        let bytes = (LOG_WINDOW + 1) * 4 * touch_log_cap(1 << 20);
        assert!(bytes <= 1 << 20, "{bytes} bytes of touched logs");
    }

    #[test]
    fn retired_buffers_are_reclaimed_once_readers_drop() {
        let (ffc, mut maint, mut publisher) = service_pair();
        let mut held = Vec::new();
        for i in 0..6u64 {
            let ev = if i % 2 == 0 {
                FaultEvent::NodeDown(9)
            } else {
                FaultEvent::NodeUp(9)
            };
            maint.apply_batch(&ffc, &[ev]).expect("repair");
            held.push(maint.publish(&mut publisher, i + 1).expect("publish"));
        }
        assert_eq!(publisher.reclaimed(), 0, "readers still hold every snap");
        held.clear();
        // Two more publishes: the first sweep pools the now-free buffers.
        maint
            .apply_batch(&ffc, &[FaultEvent::NodeDown(9)])
            .expect("repair");
        maint.publish(&mut publisher, 7).expect("publish");
        assert!(publisher.reclaimed() > 0, "dropped snapshots must recycle");
    }

    #[test]
    fn infeasible_snapshot_serves_empty_ring_and_typed_errors() {
        let ffc = Ffc::new(2, 2);
        let mut maint = RingMaintainer::new();
        // Kill every necklace of B(2,2).
        maint.reset(&ffc, &[0, 1, 3]).expect("reset");
        let mut publisher = SnapshotPublisher::new();
        let snap = maint.publish(&mut publisher, 0).expect("publish");
        assert!(snap.outcome().is_infeasible());
        assert_eq!(snap.root(), None);
        assert_eq!(snap.ring_len(), 0);
        let mut ring = vec![1usize];
        snap.ring_into(&mut ring);
        assert!(ring.is_empty());
        for v in 0..snap.n_nodes() {
            assert_eq!(snap.contains(v), Ok(false));
            assert_eq!(snap.successor(v), Err(LookupError::NotOnRing { node: v }));
        }
    }
}

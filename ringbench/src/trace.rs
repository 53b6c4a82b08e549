//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the engine itself is not instrumented. A span holds
//! its name, the operation it belongs to, its parent and its interval.
//! The buffer is preallocated so recording never allocates while timing,
//! and it is written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// Whether operation `index` of a traced run is traced. Traced and
/// untraced operations alternate, so both sample the same host phases and
/// the tracing overhead does not compare two stretches of time.
#[must_use]
pub fn is_traced(index: u64) -> bool {
    index % 2 == 1
}

/// Splits a run's per-operation samples into `(untraced, traced)` by
/// [`is_traced`]; a run without tracing has only untraced ones.
#[must_use]
pub fn split(samples: &[f64], traced_run: bool) -> (Vec<f64>, Vec<f64>) {
    if !traced_run {
        return (samples.to_vec(), Vec::new());
    }
    let (traced, untraced): (Vec<_>, Vec<_>) = samples
        .iter()
        .enumerate()
        .partition(|&(i, _)| is_traced(i as u64));
    let values = |v: Vec<(usize, &f64)>| v.into_iter().map(|(_, &x)| x).collect();
    (values(untraced), values(traced))
}

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The layer call, e.g. `session.apply_batch`.
    pub name: &'static str,
    /// Identifier shared by every span of one operation.
    pub op: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A preallocated span buffer with one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans; further spans are
    /// counted as dropped instead of growing the buffer.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            cap: capacity,
            dropped: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the recorder's creation to `at`.
    #[must_use]
    pub fn at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (or [`ROOT`] when
    /// the buffer is full, so children of a dropped span become roots).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        start: u64,
        end: u64,
    ) -> u32 {
        if self.spans.len() == self.cap {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns: start,
            end_ns: end,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: u32) -> u32 {
        let now = self.now();
        self.record(name, op, parent, now, now)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        self.close_at(id, Instant::now());
    }

    /// Sets the end of span `id` to `at`.
    pub fn close_at(&mut self, id: u32, at: Instant) {
        let end = self.at(at);
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end;
        }
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.record(name, op, parent, start, end);
        r
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that did not fit the buffer.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `(op, self time in ns)` of every span named `name`, in record order.
    #[must_use]
    pub fn self_times_of(&self, name: &str) -> Vec<(u64, u64)> {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(s, t)| (s.op, t))
            .collect()
    }

    /// Self times of the spans named `name`, in `unit_ns` units.
    #[must_use]
    pub fn samples(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.self_times_of(name)
            .into_iter()
            .map(|(_, t)| t as f64 / unit_ns)
            .collect()
    }

    /// Writes the spans as tab-separated lines
    /// (`index name op parent start_ns end_ns self_ns`).
    ///
    /// # Errors
    /// Any I/O error creating the directory or writing the file.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let own = self_times(&self.spans);
        let mut out = String::from("index\tname\top\tparent\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, t)) in self.spans.iter().zip(own).enumerate() {
            let parent = if s.parent == ROOT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{t}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children counted
/// once, parts of a child outside the parent ignored).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start: u64, end: u64) -> Span {
        Span {
            name: "x",
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(ROOT, 0, 100), // children cover 10..40, 50..70 and 90..100
            span(0, 10, 30),
            span(0, 20, 40), // overlaps its sibling: counted once
            span(0, 50, 70),
            span(3, 55, 60),  // grandchild: charged to span 3 only
            span(0, 90, 130), // runs past the parent: clipped at 100
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 30 - 20 - 10, 20, 20, 15, 5, 40]
        );
    }

    #[test]
    fn traced_and_untraced_operations_alternate() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(split(&xs, true), (vec![0.0, 2.0, 4.0], vec![1.0, 3.0]));
        assert_eq!(split(&xs, false), (xs.to_vec(), vec![]));
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(ROOT, 5, 9)]), vec![4]);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::new(2);
        let a = t.record("a", 1, ROOT, 0, 10);
        let b = t.record("b", 1, a, 2, 4);
        let c = t.record("c", 1, a, 5, 6);
        assert_eq!((a, b, c), (0, 1, ROOT));
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.self_times_of("a"), vec![(1, 8)]);
        assert_eq!(t.samples("b", 2.0), vec![1.0]);
    }
}

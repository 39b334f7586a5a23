//! The benchmark's own span recorder. Spans are opened and closed by the
//! benchmark around calls into the repo's public functions; nothing inside
//! the program is instrumented. They are kept in memory and written out as
//! JSON lines when the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The op (epoch, train call, query batch) this span belongs to.
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; give it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

/// One thread's span log.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer { origin, spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    /// The instant span times count from; a rank's tracer is made with the
    /// main thread's origin so that absorbed spans share its clock.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Spans begun from now on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn current_op(&self) -> u32 {
        self.op
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn end(&mut self, open: Open) {
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Append another thread's closed spans (a rank's, recorded inside a
    /// world that ran while `under` was open), keeping their nesting and
    /// hanging its outermost spans under `under`.
    pub fn absorb(&mut self, other: Tracer, under: &Open) {
        assert!(other.stack.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(under.0, |p| p + base));
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Milliseconds spent in spans called `name`, summed within each op
    /// that has one, in op order.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: std::collections::BTreeMap<u32, u64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += s.dur_ns();
        }
        by_op.values().map(|&ns| ns as f64 * 1e-6).collect()
    }

    /// Median over ops of [`Self::per_op_ms`]; 0 when no op has the span.
    pub fn median_ms(&self, name: &str) -> f64 {
        let v = self.per_op_ms(name);
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(&v)
        }
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times_ns(&self.spans);
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                id, s.name, s.op, parent, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f` inside a span called `name` when there is a tracer, bare when
/// there is none — the untraced pass must not pay for span bookkeeping.
pub fn spanned<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = tr.as_deref_mut().map(|t| t.begin(name));
    let out = f();
    if let (Some(t), Some(open)) = (tr.as_deref_mut(), open) {
        t.end(open);
    }
    out
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. One thread's spans nest and never overlap,
/// so the children's durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            // Saturating: a rank thread's span may outlast, by clock
            // granularity, the main-thread span it was hung under.
            selfs[p as usize] = selfs[p as usize].saturating_sub(s.dur_ns());
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("epoch", 0, 100, None, 0),
            span("layer", 10, 60, Some(0), 0),
            span("spmm", 20, 50, Some(1), 0),
            span("loss", 60, 90, Some(0), 0),
        ];
        // epoch: 100 - (50 + 30); layer: 50 - 30; leaves keep their own.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_records_nesting_and_sums_per_op() {
        let mut t = Tracer::new(Instant::now());
        for op in 0..3 {
            t.set_op(op);
            let e = t.begin("epoch");
            for _ in 0..2 {
                let l = t.begin("layer");
                t.end(l);
            }
            t.end(e);
        }
        assert_eq!(t.spans().len(), 9);
        assert_eq!(t.per_op_ms("layer").len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[4].parent, Some(3));
        assert_eq!(t.spans()[3].parent, None);
        assert_eq!(t.per_op_ms("absent").len(), 0);
        for s in t.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        let selfs = self_times_ns(t.spans());
        let roots: u64 = t.spans().iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum();
        assert_eq!(selfs.iter().sum::<u64>(), roots);

        let mut rank = Tracer::new(Instant::now());
        rank.set_op(3);
        let e = rank.begin("epoch");
        let l = rank.begin("layer");
        rank.end(l);
        rank.end(e);
        let op = t.begin("op");
        t.absorb(rank, &op);
        t.end(op);
        assert_eq!(t.spans()[10].parent, Some(9));
        assert_eq!(t.spans()[11].parent, Some(10));
        assert_eq!(t.per_op_ms("layer").len(), 4);
    }
}

//! In-memory spans recorded around calls into the program's public functions, reduced
//! to per-layer self times when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval: what ran, when, under which span, for which request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records nested spans on one thread.  When off, every call is a no-op, so the same
/// code path runs traced and untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records a child of the innermost open span from a start and a length measured
    /// elsewhere: the stage times the program reports itself (`Session::timings`),
    /// which occupy part of the enclosing call.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, length: Duration) {
        if !self.on {
            return;
        }
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + length.as_nanos() as u64,
            parent: self.open.last().copied(),
            request,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus the part of its
/// interval that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(start, end) in kids.iter() {
            let (start, end) = (start.max(reach), end.min(s.end_ns));
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps `a` by 10
            span("leaf", 12, 20, Some(1)),
            span("c", 90, 120, Some(0)), // runs past its parent's end
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], 100 - 50 - 10);
        assert_eq!(t["a"], 30 - 8);
        assert_eq!(t["b"], 30);
        assert_eq!(t["leaf"], 8);
        assert_eq!(t["c"], 30);
    }

    #[test]
    fn self_times_sum_per_name_and_tracer_nests() {
        let mut tracer = Tracer::new(true);
        tracer.span("outer", 1, |t| {
            t.span("inner", 1, |_| ());
            t.span("inner", 1, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let t = self_times(spans);
        let inner: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(t["inner"], inner);
        assert_eq!(t["outer"] + inner, spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let v = tracer.span("x", 0, |t| t.span("y", 0, |_| 7));
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
    }
}

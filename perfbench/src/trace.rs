//! Spans recorded around calls into the engine's layers.
//!
//! Each client thread owns a [`Recorder`]; spans stay in memory while the
//! workload runs and are written out once at exit. A span's self time is
//! its duration minus the part of its interval that its children cover,
//! so overlapping children are not counted twice.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `sql.parse`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request the span belongs to; all spans of one operation share it.
    pub request: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span log of one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Empty log whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its index for [`Recorder::close`] and as the
    /// parent of nested spans.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// End the span `id`.
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each child clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            s.duration_ns()
                .saturating_sub(covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals` within `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// One JSON object per line: `name`, `start_ns`, `end_ns`, `parent` (an
/// index into the same thread's spans, or null), `request` and `thread`.
pub fn to_jsonl(threads: &[Vec<Span>], limit: usize) -> String {
    let mut out = String::new();
    for (t, spans) in threads.iter().enumerate() {
        for s in spans.iter().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"thread\":{t},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
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
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children overlap on [20, 30) and one nests inside another.
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)),
            span("c", 22, 25, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        // A child that starts before or ends after its parent only covers
        // the shared part.
        let spans = [
            span("op", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn self_time_only_counts_direct_children() {
        let spans = [
            span("op", 0, 100, None),
            span("mid", 10, 90, Some(0)),
            span("leaf", 20, 80, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 60]);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.open("op", None, 7);
        let child = rec.open("execute", Some(root), 7);
        rec.close(child);
        rec.close(root);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let text = to_jsonl(&[spans], 1);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\":\"op\""));
        assert!(text.contains("\"parent\":null"));
    }
}

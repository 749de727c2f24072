//! In-memory spans: name, start, end, parent, and the counts recorded at
//! the same boundary. Spans are kept until the run ends and written out
//! then; nothing here touches the program under test.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Layer spans count as attributed time; grouping spans (an iteration,
    /// a whole study call, a re-drive pass) do not.
    pub layer: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts.iter().filter(|(k, _)| *k == key).map(|(_, v)| v).sum()
    }
}

/// Span recorder for one traced iteration. Thread-safe, since run
/// observers are called from scheduler worker threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span starting now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, layer: bool) -> usize {
        let start = self.now_ns();
        self.record(name, parent, layer, start, start, Vec::new())
    }

    /// Close a span now, attaching its counts.
    pub fn close(&self, id: usize, counts: Vec<(&'static str, u64)>) {
        let end = self.now_ns();
        self.close_at(id, end, counts);
    }

    pub fn close_at(&self, id: usize, end_ns: u64, counts: Vec<(&'static str, u64)>) {
        let mut spans = self.spans.lock().expect("span list poisoned");
        let span = &mut spans[id];
        span.end_ns = end_ns;
        span.counts = counts;
    }

    /// Record a span whose boundaries are already known.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        layer: bool,
        start_ns: u64,
        end_ns: u64,
        counts: Vec<(&'static str, u64)>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned");
        let id = spans.len();
        spans.push(Span { id, parent, name, layer, start_ns, end_ns, counts });
        id
    }

    /// Run `f` inside a layer span; `f` returns its value and the counts.
    pub fn layer<T>(
        &self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> (T, Vec<(&'static str, u64)>),
    ) -> T {
        let id = self.open(name, Some(parent), true);
        let (value, counts) = f();
        self.close(id, counts);
        value
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list poisoned")
    }
}

/// Total length of the union of `[start, end)` intervals.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match &mut current {
            Some((_, cur_end)) if start <= *cur_end => *cur_end = (*cur_end).max(end),
            _ => {
                if let Some((s, e)) = current {
                    total += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = current {
        total += e - s;
    }
    total
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let children =
        spans.iter().filter(|s| s.parent == Some(id)).map(|s| (s.start_ns, s.end_ns)).collect();
    spans[id].duration_ns().saturating_sub(union_ns(children))
}

/// Share of the root span's time that no layer span covers.
pub fn unattributed_ratio(spans: &[Span], root: usize) -> f64 {
    let total = spans[root].duration_ns();
    if total == 0 {
        return 0.0;
    }
    let covered = union_ns(
        spans.iter().filter(|s| s.layer).map(|s| (s.start_ns, s.end_ns.max(s.start_ns))).collect(),
    );
    total.saturating_sub(covered) as f64 / total as f64
}

/// Sum of durations of every span with this name, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns()).sum::<u64>() as f64 / 1e9
}

/// Sum of one count over every span with this name.
pub fn count(spans: &[Span], name: &str, key: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.count(key)).sum()
}

/// Spans as a JSON array (one object per span, self time included).
pub fn to_json(spans: &[Span], iteration: usize) -> String {
    let items: Vec<String> = spans
        .iter()
        .map(|s| {
            let counts: Vec<String> =
                s.counts.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!(
                "{{\"iteration\": {iteration}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"layer\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \
                 \"counts\": {{{}}}}}",
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                self_ns(spans, s.id),
                counts.join(", ")
            )
        })
        .collect();
    items.join(",\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn self_time_and_unattributed_share() {
        let t = Tracer::new();
        let root = t.record("root", None, false, 0, 100, Vec::new());
        let a = t.record("a", Some(root), true, 10, 50, Vec::new());
        t.record("b", Some(a), true, 20, 30, Vec::new());
        t.record("c", Some(root), true, 60, 80, Vec::new());
        let spans = t.into_spans();
        assert_eq!(self_ns(&spans, a), 30);
        assert_eq!(self_ns(&spans, root), 40);
        assert!((unattributed_ratio(&spans, root) - 0.4).abs() < 1e-12);
    }
}

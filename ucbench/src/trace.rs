//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing inside the program is instrumented:
//! a span covers exactly one call made from this crate.
//!
//! Spans are kept in memory and written out once, when the run ends.
//! A disabled tracer records nothing and costs one branch per call, so
//! the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` under `parent`. `f` receives
    /// the span's id (0 when tracing is off) to pass to child spans.
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(Span {
                id,
                parent: parent.filter(|&p| p != 0),
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Durations in seconds of every span named `name`, in end order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }
}

/// Per-name totals: span count, summed duration, summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

/// A span's self time is its duration minus the part of its interval
/// its children cover. Children may run in parallel (per-node recovery
/// on two workers), so the covered part is the union of their intervals
/// clipped to the parent's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let covered = children
            .get_mut(&s.id)
            .map(|kids| covered_ns(kids, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur as f64 * 1e-9;
        t.self_s += dur.saturating_sub(covered) as f64 * 1e-9;
    }
    totals
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// The run's trace report: per-name self times on stderr, and every span
/// plus the summary and the tracing overhead as JSON in `path`.
pub fn write_report(
    tracer: &Tracer,
    path: &Path,
    untraced_s: f64,
    traced_s: f64,
) -> std::io::Result<()> {
    let spans = tracer.spans();
    let totals = self_times(&spans);
    eprintln!("span                                   count      total_s       self_s");
    for (name, t) in &totals {
        eprintln!(
            "{name:<36} {:>8} {:>12.6} {:>12.6}",
            t.count, t.total_s, t.self_s
        );
    }
    eprintln!(
        "tracing overhead: traced {traced_s:.6} s - untraced {untraced_s:.6} s = {:.6} s",
        traced_s - untraced_s
    );
    let mut json = String::from("{\n  \"overhead\": {");
    json.push_str(&format!(
        "\"untraced_s\": {untraced_s}, \"traced_s\": {traced_s}, \"overhead_s\": {}",
        traced_s - untraced_s
    ));
    json.push_str("},\n  \"self_times\": {\n");
    let rows: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "    \"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                t.count, t.total_s, t.self_s
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  },\n  \"spans\": [\n");
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "    {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "kid", 10, 40),
            span(3, Some(1), "kid", 30, 60),
            span(4, Some(1), "kid", 90, 120),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].count, 1);
        // Children cover [10,60) and [90,100): 60 of 100 ns.
        assert!((t["root"].self_s - 40e-9).abs() < 1e-15);
        assert_eq!(t["kid"].count, 3);
        assert!((t["kid"].self_s - 90e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let v = tracer.span("x", None, |id| id + 7);
        assert_eq!(v, 7);
        assert!(tracer.spans().is_empty());
    }
}

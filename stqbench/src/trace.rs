//! Spans recorded from the benchmark's own code around each call into a
//! layer of the program. Spans stay in memory; at exit they are written
//! as JSON lines, and each layer's self time is its spans' durations
//! minus the part of each span its child spans cover.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval, in microseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The operation or request the span belongs to.
    pub req: u64,
    pub thread: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_number() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the tracer started.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let out = f(Some(id));
        let end_us = self.now_us();
        self.record(Span {
            id,
            parent,
            name,
            req,
            thread: thread_number(),
            start_us,
            end_us,
        });
        out
    }

    /// Records a span timed elsewhere (an open-loop request, from its due
    /// time to its response).
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span buffer lock").push(span);
        }
    }

    /// A fresh id for [`Tracer::record`].
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// Each span's self time in microseconds: its duration minus the union
/// of its children's intervals, clipped to the span. Children may run on
/// other threads and overlap; overlapping coverage counts once.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_us), b.min(s.end_us)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut open: Option<(f64, f64)> = None;
            for (a, b) in kids {
                open = match open {
                    Some((oa, ob)) if a <= ob => Some((oa, ob.max(b))),
                    Some((oa, ob)) => {
                        covered += ob - oa;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((oa, ob)) = open {
                covered += ob - oa;
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Total self time per span name, in microseconds.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own;
    }
    out
}

/// Operations or requests a trace file keeps; self times are computed
/// from every span, but a file of all of them runs to tens of megabytes.
const WRITTEN_REQS: usize = 200;

/// Writes one JSON object per span, with its self time, for the first
/// [`WRITTEN_REQS`] operations or requests to finish.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut kept = HashSet::new();
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if !kept.contains(&s.req) {
            if kept.len() == WRITTEN_REQS {
                continue;
            }
            kept.insert(s.req);
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"thread\":{},\
             \"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.id, s.name, s.req, s.thread, s.start_us, s.end_us, own
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            req: 0,
            thread: 0,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(1, None, 0.0, 100.0),
            // Two children overlap (as on two worker threads): 10..50
            // covers 40, not 30 + 20.
            span(2, Some(1), 10.0, 40.0),
            span(3, Some(1), 30.0, 50.0),
            // A disjoint child, partly outside its parent: clipped.
            span(4, Some(1), 90.0, 120.0),
            span(5, Some(2), 15.0, 20.0),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100.0 - 40.0 - 10.0, 30.0 - 5.0, 20.0, 30.0, 5.0]);
    }

    #[test]
    fn nested_spans_nest_and_disabled_tracing_records_nothing() {
        let t = Tracer::new(true);
        t.span("outer", None, 7, |p| t.span("inner", p, 7, |_| ()));
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
        let by_name = self_by_name(&spans);
        let total: f64 = by_name.values().sum();
        assert!((total - outer.duration_us()).abs() < 1e-6);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", None, 0, |p| p), None);
        assert!(off.take().is_empty());
    }
}

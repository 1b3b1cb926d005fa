//! Spans recorded by the benchmark around every call it makes into a
//! layer. A span has a name (`<layer>.<what>`), start and end on the
//! benchmark's monotonic clock, an optional parent, and the id of the
//! served job or trial it belongs to. Spans stay in memory; the traced run
//! writes them out at exit and folds them into per-layer self time.

use crate::stats::covered;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// An in-memory span sink. Disabled recorders ignore every call, so the
/// untraced run pays one branch per call site.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder's epoch (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index for use as a parent.
    pub fn span(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: u64,
    ) -> Option<usize> {
        self.span_ns(name, self.ns(start), self.ns(end), parent, job)
    }

    pub fn span_ns(
        &self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        job: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.spans.lock().expect("span lock poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            job,
        });
        Some(spans.len() - 1)
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }
}

/// Self time per layer, seconds: each span's duration minus the part of it
/// its children cover (overlapping children counted once), summed by the
/// layer prefix of the span name.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns) - covered(s.start_ns, s.end_ns, &children[i]);
        *out.entry(s.layer().to_string()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Renders spans as a JSON array (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        s.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}{}\n",
            sp.name,
            sp.start_ns,
            sp.end_ns,
            sp.job,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, s: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: s,
            end_ns: e,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // bench.trial [0,100) with two overlapping algorithm children
        // [10,50) and [40,60): covered 50, self 50. The first child has a
        // core phase child [20,30): algorithms self = 30 + 20 = 50.
        let spans = vec![
            sp("bench.trial", 0, 100, None),
            sp("algorithms.pagerank", 10, 50, Some(0)),
            sp("algorithms.wcc", 40, 60, Some(0)),
            sp("core.phase", 20, 30, Some(1)),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["bench"] - 50e-9).abs() < 1e-15);
        assert!((t["algorithms"] - 50e-9).abs() < 1e-15);
        assert!((t["core"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = Recorder::new(false);
        let t = Instant::now();
        assert_eq!(r.span("core.x", t, t, None, 1), None);
        assert!(r.take().is_empty());
        let r = Recorder::new(true);
        assert_eq!(r.span("core.x", t, t, None, 1), Some(0));
        assert_eq!(r.take().len(), 1);
    }
}

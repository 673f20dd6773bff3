//! In-memory span recording and wall-clock self-time attribution.
//!
//! The benchmark wraps each call it makes into a layer in a span (name,
//! start, end, parent, optional request id). Spans are kept in memory and
//! written out once, when the run ends. A span's layer is the part of its
//! name before the first `.` (`kg-train.candidate_train` → `kg-train`).
//!
//! Self time is attributed on the wall clock: at every instant of the
//! accounted window the elapsed time is split evenly among the *innermost*
//! open spans (open spans with no open child). Two candidates training on
//! two threads therefore each get half of the interval, so the layer self
//! times never add up to more than the window, and
//! `window = Σ layer self time + residual`, where the residual is the time
//! no span covered.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserve a span id before the span ends, so children can name it as
    /// their parent while it is still open.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) {
        let span =
            Span { id, parent, name, start_ns: self.ns(start), end_ns: self.ns(end), request };
        self.spans.lock().expect("span lock").push(span);
    }

    /// Run `f` inside a span; `f` receives the span's id for its children.
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, start, Instant::now(), None);
        out
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Spans with this exact name.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans().into_iter().filter(|s| s.name == name).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, request
            )?;
        }
        out.flush()
    }
}

/// Layer self times over one accounted window.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Seconds attributed to each layer.
    pub self_s: BTreeMap<&'static str, f64>,
    /// Window length, seconds.
    pub wall_s: f64,
    /// Window time no span covered, seconds.
    pub residual_s: f64,
}

/// Attribute the window `[from, to)` to the innermost open spans.
pub fn attribute(tracer: &Tracer, from: Instant, to: Instant) -> Attribution {
    let (lo, hi) = (tracer.ns(from), tracer.ns(to));
    let spans: Vec<Span> = tracer
        .spans()
        .into_iter()
        .filter(|s| s.end_ns > lo && s.start_ns < hi)
        .map(|mut s| {
            s.start_ns = s.start_ns.max(lo);
            s.end_ns = s.end_ns.min(hi);
            s
        })
        .collect();
    let index: std::collections::HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let layers: Vec<&'static str> = {
        let mut v: Vec<&'static str> = spans.iter().map(|s| s.layer()).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let layer_of: Vec<usize> =
        spans.iter().map(|s| layers.binary_search(&s.layer()).expect("layer listed")).collect();
    let parent_of: Vec<Option<usize>> =
        spans.iter().map(|s| s.parent.and_then(|p| index.get(&p).copied())).collect();

    let depth: Vec<usize> = (0..spans.len())
        .map(|i| std::iter::successors(parent_of[i], |&p| parent_of[p]).take(spans.len()).count())
        .collect();

    // Events: (time, is_start, order, span). At one instant ends come
    // before starts, parents start before their children and children end
    // before their parents.
    let mut events: Vec<(u64, bool, usize, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns, true, depth[i], i));
        events.push((s.end_ns, false, usize::MAX - depth[i], i));
    }
    events.sort_unstable();

    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0usize; spans.len()];
    let mut innermost = vec![0usize; layers.len()];
    let mut n_innermost = 0usize;
    let mut acc = vec![0.0f64; layers.len()];
    let mut covered = 0.0f64;
    let mut last = lo;
    for (t, is_start, _, i) in events {
        if t > last && n_innermost > 0 {
            let dt = (t - last) as f64 * 1e-9;
            covered += dt;
            for (l, &k) in innermost.iter().enumerate() {
                if k > 0 {
                    acc[l] += dt * k as f64 / n_innermost as f64;
                }
            }
        }
        last = last.max(t);
        let open_parent = parent_of[i].filter(|&p| open[p]);
        if is_start {
            if let Some(p) = open_parent {
                if open_children[p] == 0 {
                    innermost[layer_of[p]] -= 1;
                    n_innermost -= 1;
                }
                open_children[p] += 1;
            }
            open[i] = true;
            innermost[layer_of[i]] += 1;
            n_innermost += 1;
        } else {
            if open_children[i] == 0 {
                innermost[layer_of[i]] -= 1;
                n_innermost -= 1;
            } else {
                // A child outlives its parent: the children stay innermost.
                open_children[i] = 0;
            }
            open[i] = false;
            if let Some(p) = open_parent {
                open_children[p] -= 1;
                if open_children[p] == 0 {
                    innermost[layer_of[p]] += 1;
                    n_innermost += 1;
                }
            }
        }
    }
    let wall_s = (hi - lo) as f64 * 1e-9;
    Attribution {
        self_s: layers.into_iter().zip(acc).collect(),
        wall_s,
        residual_s: wall_s - covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_and_parallel_spans_split_the_window() {
        let tracer = Tracer::new();
        let t0 = tracer.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // parent 0..100 with two overlapping children 10..60 and 40..90
        let p = tracer.id();
        tracer.record(p, "a.parent", None, at(0), at(100), None);
        let c1 = tracer.id();
        tracer.record(c1, "b.child", Some(p), at(10), at(60), None);
        let c2 = tracer.id();
        tracer.record(c2, "c.child", Some(p), at(40), at(90), None);
        let a = attribute(&tracer, at(0), at(120));
        let get = |l: &str| a.self_s.get(l).copied().unwrap_or(0.0);
        // parent alone: 0..10 and 90..100
        assert!((get("a") - 0.020).abs() < 1e-9);
        // b alone 10..40 (30 ms) + half of 40..60 (10 ms)
        assert!((get("b") - 0.040).abs() < 1e-9);
        assert!((get("c") - 0.040).abs() < 1e-9);
        assert!((a.residual_s - 0.020).abs() < 1e-9);
        let total: f64 = a.self_s.values().sum::<f64>() + a.residual_s;
        assert!((total - a.wall_s).abs() < 1e-9);
    }

    #[test]
    fn child_starting_with_its_parent_is_innermost() {
        let tracer = Tracer::new();
        let t0 = tracer.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // the child finishes first, so it is recorded before its parent
        let (p, c) = (tracer.id(), tracer.id());
        tracer.record(c, "b.child", Some(p), at(0), at(50), None);
        tracer.record(p, "a.parent", None, at(0), at(100), None);
        let a = attribute(&tracer, at(0), at(100));
        assert!((a.self_s["a"] - 0.050).abs() < 1e-9);
        assert!((a.self_s["b"] - 0.050).abs() < 1e-9);
        assert!(a.residual_s.abs() < 1e-9);
    }
}

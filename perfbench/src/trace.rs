//! In-memory span tracing around the benchmark's calls into each layer.
//!
//! Spans are recorded only by benchmark code, never inside the program:
//! a span brackets one call into a layer's public functions. A span's
//! layer is its name up to the first `.` (`sim.step` → `sim`); the
//! harness's own root spans use the layer `bench`. Each thread records
//! into its own [`Tracer`]; [`merge`] joins them when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.step`.
    pub name: &'static str,
    /// Start, in ns since the process's clock epoch.
    pub start_ns: u64,
    /// End, in ns since the process's clock epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The run or request the span belongs to.
    pub run: u64,
    /// Optional per-span count (active nodes before a `sim.step`).
    pub tag: Option<u64>,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static EPOCH: OnceLock<std::time::Instant> = OnceLock::new(); // detlint: allow(D03) -- the benchmark harness is a timing tool; its clock never feeds program outcomes

/// Monotonic ns since the first call in this process (shared by all
/// threads, so spans of different threads share one timeline).
#[must_use]
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(std::time::Instant::now); // detlint: allow(D03) -- the benchmark harness is a timing tool; its clock never feeds program outcomes
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// Span recorder for one thread. A disabled tracer records nothing and
/// reads no clock, so untraced passes can share code with traced ones.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, passed back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A recording tracer.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.begin_tagged(name, None)
    }

    /// [`begin`](Self::begin) with a per-span count.
    pub fn begin_tagged(&mut self, name: &'static str, tag: Option<u64>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
            tag,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, which must be the innermost open span, and returns
    /// its duration in ns (0 when disabled).
    pub fn end(&mut self, span: Open) -> u64 {
        let Some(id) = span.0 else { return 0 };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let s = &mut self.spans[id];
        s.end_ns = now_ns();
        s.dur_ns()
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in ns.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// The recorded spans (all closed once the tracer's work is done).
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "trace ended with open spans");
        self.spans
    }
}

/// Concatenates per-thread traces, re-basing parent indices.
#[must_use]
pub fn merge(traces: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for trace in traces {
        let base = all.len();
        all.extend(trace.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// A span's self time is its duration minus the durations of its direct
/// children. Returns the per-layer sums of self time, in ns.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut layers = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        *layers.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(children);
    }
    layers
}

/// Sum of the root spans' durations: the traced wall time, counted once
/// per tracing thread.
#[must_use]
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// The spans as JSON lines: `id`, `name`, `start_ns`, `end_ns`, `parent`,
/// `run`, and `tag` when present.
#[must_use]
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"run\": {}",
            s.name, s.start_ns, s.end_ns, s.run
        );
        if let Some(tag) = s.tag {
            let _ = write!(out, ", \"tag\": {tag}");
        }
        out.push_str("}\n");
    }
    out
}

/// The per-layer self-time table as text: one `layer ms share` row per
/// layer, shares of the traced wall time.
#[must_use]
pub fn self_time_table(spans: &[Span]) -> String {
    let wall = root_ns(spans).max(1) as f64;
    let mut out = String::from("layer      self_ms    share\n");
    for (layer, ns) in self_times(spans) {
        let _ = writeln!(
            out,
            "{layer:<8} {:>9.3} {:>7.1}%",
            ns as f64 / 1e6,
            100.0 * ns as f64 / wall
        );
    }
    let _ = writeln!(out, "{:<8} {:>9.3}", "wall", wall / 1e6);
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
            run: 0,
            tag: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // bench [0,100) ⊃ sim.run [10,90) ⊃ sim.step [20,50), [50,80);
        // bench also holds core.verify [90,98).
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("sim.run", 10, 90, Some(0)),
            span("sim.step", 20, 50, Some(1)),
            span("sim.step", 50, 80, Some(1)),
            span("core.verify", 90, 98, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], 100 - 80 - 8);
        assert_eq!(t["sim"], (80 - 60) + 30 + 30);
        assert_eq!(t["core"], 8);
        assert_eq!(t.values().sum::<u64>(), root_ns(&spans));
    }

    #[test]
    fn merge_rebases_parents_and_sums_roots_per_thread() {
        let a = vec![
            span("bench.client", 0, 10, None),
            span("serve.submit", 1, 9, Some(0)),
        ];
        let b = vec![
            span("bench.client", 2, 12, None),
            span("serve.fetch", 3, 4, Some(0)),
        ];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(root_ns(&all), 20);
        let t = self_times(&all);
        assert_eq!(t["serve"], 8 + 1);
        assert_eq!(t["bench"], 2 + 9);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::enabled();
        tr.set_run(7);
        let root = tr.begin("bench.pass");
        let inner = tr.begin_tagged("sim.step", Some(42));
        tr.end(inner);
        tr.span("core.verify", || ());
        let root_ns = tr.end(root);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[1].run, spans[1].tag), (7, Some(42)));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(root_ns, spans[0].dur_ns());
        assert!(spans_jsonl(&spans).contains("\"tag\": 42"));

        let mut off = Tracer::disabled();
        let s = off.begin("sim.step");
        assert_eq!(off.end(s), 0);
        assert!(off.into_spans().is_empty());
    }
}

//! The traced run's span recorder and the per-layer figures derived from it.
//!
//! A span is one timed call into a layer: name, start, end, parent span and
//! op id (every span of one benchmark op shares the op id). Spans are held in
//! memory while the run measures and written out once at the end.

use crate::stats::{median, self_time};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans and counters from any number of threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    next_op: AtomicU32,
}

/// Where a new span attaches: the tracer, the op it belongs to and its
/// parent span.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    tracer: &'a Tracer,
    op: u32,
    parent: Option<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            next_op: AtomicU32::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new op: a root span named `name` under a fresh op id.
    pub fn op<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'_>) -> R) -> R {
        let op = self.next_op.fetch_add(1, Ordering::Relaxed);
        Ctx { tracer: self, op, parent: None }.span(name, f)
    }

    /// A counter's total.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.lock().expect("counter lock poisoned").get(name).copied().unwrap_or(0)
    }

    /// Every span recorded so far, in start order of their creation.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }
}

impl Ctx<'_> {
    /// Times `f` as a child span of this context.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(Ctx<'_>) -> R) -> R {
        let start_ns = self.tracer.now();
        let id = {
            let mut spans = self.tracer.spans.lock().expect("span lock poisoned");
            spans.push(Span { name, op: self.op, parent: self.parent, start_ns, end_ns: start_ns });
            u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans")
        };
        let out = f(Ctx { parent: Some(id), ..self });
        let end_ns = self.tracer.now();
        self.tracer.spans.lock().expect("span lock poisoned")[id as usize].end_ns = end_ns;
        out
    }

    /// Adds `value` to the named counter.
    pub fn add(self, counter: &'static str, value: u64) {
        *self.tracer.counters.lock().expect("counter lock poisoned").entry(counter).or_insert(0) +=
            value;
    }
}

/// Spans with their self times and op structure resolved.
pub struct Profile {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
    /// Root span index of each op, by op id.
    roots: BTreeMap<u32, usize>,
}

impl Profile {
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        let mut roots = BTreeMap::new();
        for (index, span) in spans.iter().enumerate() {
            match span.parent {
                Some(parent) => children[parent as usize].push((span.start_ns, span.end_ns)),
                None => {
                    roots.insert(span.op, index);
                }
            }
        }
        let self_ns = spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| self_time(span.start_ns, span.end_ns, kids))
            .collect();
        Self { spans, self_ns, roots }
    }

    fn root_name(&self, span: &Span) -> &'static str {
        self.spans[self.roots[&span.op]].name
    }

    /// Median duration of the spans called `name`, in ms; 0 when the layer
    /// has no such call on this workload.
    pub fn p50_ms(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        or_zero(median(&durations))
    }

    /// Time in the spans called one of `names` as a share of all self time
    /// (the work and idle gaps of every thread) inside ops matching `op`.
    pub fn share(&self, names: &[&str], op: impl Fn(&str) -> bool) -> f64 {
        let mut part = 0u64;
        let mut whole = 0u64;
        for (span, &own) in self.spans.iter().zip(&self.self_ns) {
            if !op(self.root_name(span)) {
                continue;
            }
            whole += own;
            if names.contains(&span.name) {
                part += span.duration_ns();
            }
        }
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    }

    /// Self time of the op roots — time no layer span covers on an op's
    /// blocking path — as a percentage of their wall time.
    pub fn unattributed_pct(&self) -> f64 {
        let (mut own, mut wall) = (0u64, 0u64);
        for &root in self.roots.values() {
            own += self.self_ns[root];
            wall += self.spans[root].duration_ns();
        }
        if wall == 0 {
            0.0
        } else {
            100.0 * own as f64 / wall as f64
        }
    }

    /// Fan-out figures over the ops that fanned parts out to `workers`
    /// threads: (parts per op, median op wall minus part time per worker in
    /// ms, part time over op wall times workers).
    pub fn fanout(&self, workers: usize) -> (f64, f64, f64) {
        let mut per_op: BTreeMap<u32, (u64, usize)> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == "pipeline.part") {
            let entry = per_op.entry(span.op).or_default();
            entry.0 += span.duration_ns();
            entry.1 += 1;
        }
        if per_op.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let workers = workers as f64;
        let (mut parts, mut part_ns, mut wall_ns) = (0usize, 0u64, 0u64);
        let mut overheads = Vec::with_capacity(per_op.len());
        for (op, (ns, count)) in &per_op {
            let wall = self.spans[self.roots[op]].duration_ns();
            parts += count;
            part_ns += ns;
            wall_ns += wall;
            overheads.push((wall as f64 - *ns as f64 / workers) / 1e6);
        }
        let ops = per_op.len() as f64;
        (parts as f64 / ops, median(&overheads), part_ns as f64 / (wall_ns as f64 * workers))
    }

    /// Writes the spans of the first `ops` ops as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, ops: u32) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate().filter(|(_, s)| s.op < ops) {
            let parent = span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                span.name, span.op, span.start_ns, span.end_ns, self.self_ns[index]
            )?;
        }
        out.flush()
    }
}

/// Ops whose spans a run writes out: enough to inspect every op kind of
/// every workload, few enough to keep a brick-level trace to a few MB.
const WRITTEN_OPS: u32 = 64;

/// Writes the run's spans under `out/` in the benchmark's directory, once, at
/// the end of the run. A write failure costs the file, not the run.
pub fn write_out(profile: &Profile, args: &crate::Args) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(why) = profile.write_jsonl(&path, WRITTEN_OPS) {
        eprintln!("lwcbench: could not write {}: {why}", path.display());
    }
}

/// Maps the `NaN` of an empty sample to 0: a layer with no calls on a
/// workload spent no time there.
pub fn or_zero(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_op_and_parent() {
        let tracer = Tracer::new();
        tracer.op("op.encode", |ctx| {
            ctx.span("lifting.forward", |inner| inner.span("coder.rice_encode", |_| ()));
            ctx.add("coder.rice_bits", 5);
        });
        tracer.op("op.decode", |ctx| ctx.span("lifting.inverse", |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!((spans[0].name, spans[0].op, spans[0].parent), ("op.encode", 0, None));
        assert_eq!((spans[1].op, spans[1].parent), (0, Some(0)));
        assert_eq!((spans[2].op, spans[2].parent), (0, Some(1)));
        assert_eq!((spans[3].op, spans[4].parent), (1, Some(3)));
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.counter("coder.rice_bits"), 5);
        assert_eq!(tracer.counter("missing"), 0);
    }

    fn span(name: &'static str, op: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span { name, op, parent, start_ns: start, end_ns: end }
    }

    #[test]
    fn profile_derives_self_time_shares_and_fanout() {
        // One encode op of 100 ns: a fan-out over two parallel parts of 40 ns
        // each (both under the fan-out span), 10 ns of container write and
        // 10 ns the op root itself spends uncovered.
        let spans = vec![
            span("op.encode", 0, None, 0, 100),
            span("pipeline.fanout", 0, Some(0), 0, 80),
            span("pipeline.part", 0, Some(1), 0, 40),
            span("pipeline.part", 0, Some(1), 0, 40),
            span("lifting.forward", 0, Some(2), 0, 30),
            span("lifting.forward", 0, Some(3), 0, 30),
            span("coder.container_write", 0, Some(0), 80, 90),
        ];
        let profile = Profile::new(spans);
        assert_eq!(profile.self_ns, vec![10, 40, 10, 10, 30, 30, 10]);
        assert_eq!(profile.p50_ms("lifting.forward"), 30e-6);
        assert_eq!(profile.p50_ms("lifting.inverse"), 0.0);
        // 60 ns of transform over 140 ns of self time.
        assert!((profile.share(&["lifting.forward"], |_| true) - 60.0 / 140.0).abs() < 1e-12);
        assert_eq!(profile.share(&["lifting.forward"], |n| n == "op.decode"), 0.0);
        assert!((profile.unattributed_pct() - 10.0).abs() < 1e-12);
        let (parts, overhead_ms, efficiency) = profile.fanout(2);
        assert_eq!(parts, 2.0);
        assert!((overhead_ms - 60e-6).abs() < 1e-15);
        assert!((efficiency - 0.4).abs() < 1e-12);
    }
}

//! In-memory span records for the traced run: each span has a name, a start
//! and end (ns since the recorder started), the span that caused it, the
//! job it belongs to, and how many calls or cycles it covers. Spans are
//! written out once, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// "No parent" / "no job".
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub job: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Calls or simulated cycles the span covers.
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
    timer_ns: OnceLock<f64>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            timer_ns: OnceLock::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn id(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Moves a thread-local batch of spans into the log.
    pub fn append(&self, batch: &mut Vec<Span>) {
        self.spans.lock().expect("span log poisoned").append(batch);
    }

    /// Runs `f` inside a span and returns its value.
    pub fn time<T>(&self, name: &'static str, parent: u32, job: u32, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let start = self.now();
        let value = f();
        let end = self.now();
        self.push(Span {
            id,
            parent,
            job,
            name,
            start,
            end,
            count: 1,
        });
        value
    }

    /// Every span named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .copied()
            .collect()
    }

    /// The cost of one timestamp: what an empty span measures. Measured
    /// once, on first use.
    pub fn timer_ns(&self) -> f64 {
        *self.timer_ns.get_or_init(|| {
            let mut samples: Vec<u64> = (0..20_000)
                .map(|_| {
                    let a = self.now();
                    let b = self.now();
                    b - a
                })
                .collect();
            samples.sort_unstable();
            samples[samples.len() / 2] as f64
        })
    }

    /// Mean time per call or cycle of the spans named `name`, less one
    /// timestamp's cost per span; 0 when there are none.
    pub fn per_call_ns(&self, name: &str) -> f64 {
        let spans = self.named(name);
        let calls: u64 = spans.iter().map(|s| s.count).sum();
        if calls == 0 {
            return 0.0;
        }
        let timer = self.timer_ns();
        let total: f64 = spans.iter().map(|s| s.ns() as f64 - timer).sum();
        (total / calls as f64).max(0.0)
    }

    /// Writes every span as TSV, then a per-name summary whose self time is
    /// each span's duration minus the time its recorded children cover.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns = std::collections::HashMap::<u32, u64>::new();
        for s in spans.iter().filter(|s| s.parent != NONE) {
            *child_ns.entry(s.parent).or_default() += s.ns();
        }
        let mut summary = std::collections::BTreeMap::<&str, (u64, u64, u64, u64)>::new();
        let mut out = format!("# {header}\nid\tparent\tjob\tname\tstart_ns\tend_ns\tcount\n");
        let field = |v: u32| {
            if v == NONE {
                String::from("-")
            } else {
                v.to_string()
            }
        };
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                field(s.parent),
                field(s.job),
                s.name,
                s.start,
                s.end,
                s.count
            )
            .expect("write to String");
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s
                .ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            e.3 += s.count;
        }
        out.push_str("# summary\nname\tspans\ttotal_ns\tself_ns\tcount\n");
        for (name, (n, total, own, count)) in summary {
            writeln!(out, "{name}\t{n}\t{total}\t{own}\t{count}").expect("write to String");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

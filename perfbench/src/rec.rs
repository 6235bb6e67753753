//! Timing, span recording and result reporting.
//!
//! Every layer call the benchmark makes goes through [`Rec::time`], which
//! times it from outside with [`Instant`]. An untraced recorder keeps
//! nothing but the caller's own numbers; a traced one also keeps one span
//! per call (name, start, end, operation id) for the span file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded layer call.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// Span recorder. Operation ids group the spans of one operation; the
/// operation's own span is named `op` and the coverage check compares the
/// layer spans inside it against its wall time.
pub struct Rec {
    traced: bool,
    epoch: Instant,
    op: u64,
    pub spans: Vec<Span>,
    /// Per-layer samples in milliseconds, keyed by span name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Rec {
    pub fn new(traced: bool) -> Rec {
        Rec {
            traced,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Starts a new operation; later spans belong to it.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Runs `f` as one call of layer `name`, timing it from outside.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.time_ms(name, f).0
    }

    /// [`Rec::time`] that also returns the call's milliseconds.
    pub fn time_ms<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        if self.traced {
            self.push(name, start, end);
        }
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Records an already-timed interval as span `name` of the current op.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant) {
        let s = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        let e = end.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            op: self.op,
            start_us: s,
            end_us: e,
        });
        self.samples.entry(name).or_default().push((e - s) / 1e3);
    }

    /// Adds a sample that is not a span of ours: a time the program
    /// measured itself, or a rate derived from a span.
    pub fn sample(&mut self, name: &'static str, ms: f64) {
        if self.traced {
            self.samples.entry(name).or_default().push(ms);
        }
    }

    /// Median of the samples named `name` (0 if there are none).
    pub fn median_of(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }

    /// Checks that the layer spans of every operation cover at least
    /// `share` of its `op` span. Returns the lowest coverage seen.
    pub fn coverage(&self, share: f64) -> Result<f64, String> {
        let mut ops: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = ops.entry(s.op).or_insert((0.0, 0.0));
            if s.name == "op" {
                e.0 += s.end_us - s.start_us;
            } else {
                e.1 += s.end_us - s.start_us;
            }
        }
        let mut lowest = f64::INFINITY;
        for (op, (wall, layers)) in ops {
            if wall <= 0.0 {
                continue;
            }
            let c = layers / wall;
            if c < share {
                let names: Vec<String> = self
                    .spans
                    .iter()
                    .filter(|s| s.op == op)
                    .map(|s| format!("{} {:.1}-{:.1}", s.name, s.start_us, s.end_us))
                    .collect();
                return Err(format!(
                    "operation {op}: layer spans cover {:.1}% of {:.3} ms: {}",
                    100.0 * c,
                    wall / 1e3,
                    names.join(", ")
                ));
            }
            lowest = lowest.min(c);
        }
        Ok(if lowest.is_finite() { lowest } else { 1.0 })
    }

    /// The span file: every span plus the counters read from the program.
    pub fn span_json(&self, workload: &str, seed: u64, counters: &BTreeMap<String, f64>) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"counters\": {{"
        );
        for (i, (k, v)) in counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {}", num(*v));
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"op\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}{sep}",
                s.name, s.op, s.start_us, s.end_us
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolated quantile of `v` (`q` in 0..=1).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A finite JSON number.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The metrics one run reports, in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// Counters the program itself exports through its global collector.
pub fn program_counters() -> BTreeMap<String, f64> {
    let snap = sweep_telemetry::snapshot();
    snap.counters
        .iter()
        .map(|(k, v)| (k.clone(), *v as f64))
        .collect()
}

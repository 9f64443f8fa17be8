//! The benchmark's own tracing: spans around calls into each layer, and
//! log-bucket histograms for per-operation host timings.
//!
//! Spans are recorded only in the traced pass (`--trace 1`), kept in
//! memory, and written to `benchmark/out/spans-<workload>.json` when the
//! run ends. A disabled recorder reads no clock, so the untraced pass —
//! the only source of end-to-end numbers — pays one predictable branch
//! per span site. Per-op timings (millions per repetition) go into a
//! [`LogHist`] rather than one span each.

use std::time::Instant;

use crate::json::Value;

/// One closed span. Times are host nanoseconds since the recorder was
/// created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An open span's handle; close it with [`Recorder::end`].
#[must_use = "an open span must be closed with Recorder::end"]
pub struct Open(Option<usize>);

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span named `<layer>.<what>`; its parent is the innermost
    /// span still open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.now();
        self.spans[id].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Times `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, seconds: each span's duration minus the
    /// part its direct children cover, summed over spans of that name.
    /// Sorted by name so output is stable.
    pub fn self_times(&self) -> Vec<(&'static str, f64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: Vec<(&'static str, f64, usize)> = Vec::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9;
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some((_, t, k)) => {
                    *t += own;
                    *k += 1;
                }
                None => by_name.push((s.name, own, 1)),
            }
        }
        by_name.sort_by(|a, b| a.0.cmp(b.0));
        by_name
    }

    /// The span list as a JSON document (the `spans-<workload>.json`
    /// artifact). Every span of one run shares the workload identifier.
    pub fn to_json(&self, workload: &str) -> Value {
        Value::obj([
            ("workload", Value::str(workload)),
            ("unit", Value::str("host ns since recorder start")),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .enumerate()
                        .map(|(id, s)| {
                            Value::obj([
                                ("id", Value::Num(id as f64)),
                                ("name", Value::str(s.name)),
                                ("workload", Value::str(workload)),
                                ("start", Value::Num(s.start_ns as f64)),
                                ("end", Value::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "self_time_s",
                Value::Obj(
                    self.self_times()
                        .into_iter()
                        .map(|(n, t, _)| (n.to_string(), Value::Num(t)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Sub-buckets per power of two: 2^4, so a reported quantile is within
/// 6.25 % of the true one.
const SUB_BITS: u32 = 4;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// A log-bucketed histogram of host nanoseconds per operation.
pub struct LogHist {
    counts: Vec<u64>,
    count: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    pub fn new() -> Self {
        LogHist {
            counts: vec![0; BUCKETS],
            count: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < (1 << SUB_BITS) {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) | sub
    }

    /// Midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        if i < (1 << SUB_BITS) {
            return i as f64;
        }
        let msb = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
        let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
        let lo = ((1u64 << SUB_BITS) | sub) << (msb - SUB_BITS);
        lo as f64 + (1u64 << (msb - SUB_BITS)) as f64 / 2.0
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.count += 1;
    }

    /// The value below which `num/den` of the samples fall (0 if empty).
    pub fn quantile(&self, num: u64, den: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (self.count * num).div_ceil(den).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value(i);
            }
        }
        0.0
    }

    /// `den` such that `(den - 1) / den` is the highest of p90, p99,
    /// p99.9, … that still has at least ten samples beyond it; 2 (the
    /// median) when even p90 has fewer.
    fn tail_den(&self) -> u64 {
        let mut den = 2;
        let mut next = 10u64;
        while next <= 1_000_000_000 && self.count / next >= 10 {
            den = next;
            next *= 10;
        }
        den
    }

    /// The highest percentile with at least ten samples beyond it.
    pub fn tail(&self) -> f64 {
        let den = self.tail_den();
        self.quantile(den - 1, den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let o = r.begin("core.x");
        r.end(o);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn parents_and_self_time() {
        let mut r = Recorder::new(true);
        let outer = r.begin("bench.rep");
        let inner = r.begin("core.fault");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(inner);
        r.end(outer);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[0].parent, None);
        let st = r.self_times();
        let rep = st.iter().find(|s| s.0 == "bench.rep").unwrap().1;
        let fault = st.iter().find(|s| s.0 == "core.fault").unwrap().1;
        assert!(fault >= 0.002, "inner self time {fault}");
        assert!(rep < fault, "outer self time excludes its child: {rep}");
        let doc = r.to_json("w");
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn hist_quantiles_and_tail() {
        let mut h = LogHist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(1, 2);
        assert!((p50 - 500.0).abs() / 500.0 < 0.07, "p50 {p50}");
        // 1000 samples: p99 has 10 beyond it, p99.9 has 1.
        assert_eq!(h.tail_den(), 100);
        let v = h.tail();
        assert!((v - 990.0).abs() / 990.0 < 0.07, "p99 {v}");
        let mut small = LogHist::new();
        for v in 0..50 {
            small.record(v);
        }
        assert_eq!(small.tail_den(), 2);
        let mut big = LogHist::new();
        for v in 0..100_000 {
            big.record(v);
        }
        assert_eq!(big.tail_den(), 10_000);
    }
}

//! Spans recorded from outside the program: one around every call the
//! driver makes into a public function, kept in memory and written to
//! `benchmark/out/<workload>.trace.json` when the run ends.
//!
//! A span's *self time* is its duration minus the part its child spans
//! cover. Phase spans are the roots, so the self times of one phase sum
//! to its wall time exactly; the phase span's own self time is the
//! driver's residual (scheduling waits, bookkeeping between calls).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Index of the operation within its phase (batch, cycle, round).
    pub op: u64,
}

/// Handle of an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Count and summed self time of every span name.
pub type SelfTimes = BTreeMap<&'static str, (u64, f64)>;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// A leaf span around one call.
    pub fn timed<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, op);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(count, self seconds)` per span name.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SelfTimes::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            let e = out.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += own as f64 / 1e9;
        }
        out
    }

    /// Mean duration of the spans named `name`, microseconds (0 when
    /// none were recorded).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (mut n, mut total) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            n += 1;
            total += s.end_ns - s.start_ns;
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("op", Json::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let mut t = Tracer::new(true);
        let root = t.open("phase", 0);
        for i in 0..3 {
            let outer = t.open("cycle", i);
            t.timed("call", i, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.close(outer);
        }
        t.close(root);
        let st = t.self_times();
        assert_eq!(st["call"].0, 3);
        assert_eq!(st["cycle"].0, 3);
        assert!(st["call"].1 >= 0.006);
        // The cycle's own time excludes the sleep inside it.
        assert!(st["cycle"].1 < 0.003, "{:?}", st["cycle"]);
        let root_span = &t.spans()[0];
        let wall = (root_span.end_ns - root_span.start_ns) as f64 / 1e9;
        let sum: f64 = st.values().map(|v| v.1).sum();
        assert!((sum - wall).abs() < 1e-6, "{sum} vs {wall}");
        assert_eq!(t.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.open("phase", 0);
        assert_eq!(t.timed("call", 0, || 41 + 1), 42);
        t.close(o);
        assert!(t.spans().is_empty());
        assert_eq!(t.mean_us("call"), 0.0);
    }
}

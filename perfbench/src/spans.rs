//! The benchmark's own spans: recorded around every session call and
//! every layer-replay call, kept in memory, and merged with the program's
//! telemetry spans once the run ends.
//!
//! Span ids live above [`ID_BASE`] so they never collide with the
//! program's registry ids in the merged Chrome trace. Timestamps come
//! from the telemetry clock, so both sets share one time base and one
//! thread numbering.

use fragcloud_telemetry::clock;
use fragcloud_telemetry::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// First id the benchmark hands out.
pub const ID_BASE: u64 = 1 << 48;

/// In-memory span recorder; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    next: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

/// A span that has been entered and not yet closed.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    op: u64,
    seq: u64,
    start_ns: u64,
    start: Instant,
}

impl Open {
    /// This span's id (to parent child spans on).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    /// A tracer that records (`enabled`) or drops every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            next: AtomicU64::new(ID_BASE),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enters span `name` under `parent`, tagged with op id `op`.
    pub fn open(&self, name: &'static str, parent: Option<u64>, op: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        Some(Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            op,
            seq: clock::tick(),
            start_ns: clock::since_epoch(),
            start: clock::monotonic_now(),
        })
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&self, open: Option<Open>) {
        let Some(o) = open else { return };
        let duration_ns = o.start.elapsed().as_nanos() as u64;
        let rec = SpanRecord {
            id: o.id,
            parent: o.parent,
            name: o.name,
            attrs: vec![("op", o.op.to_string())],
            seq: o.seq,
            start_ns: o.start_ns,
            tid: clock::thread_ordinal(),
            duration_ns,
        };
        self.records.lock().expect("span list poisoned").push(rec);
    }

    /// Runs `f` inside span `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let o = self.open(name, parent, op);
        let out = f();
        self.close(o);
        out
    }

    /// Every recorded span.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().expect("span list poisoned").clone()
    }
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times (duration minus child coverage), seconds.
    pub self_s: f64,
}

/// Per-name count, total time and self time over `spans`.
///
/// A span's children are the spans naming it as parent. A program span
/// with no parent is adopted by the innermost benchmark span on the same
/// thread whose interval contains it: the program's `put`/`get` spans then
/// nest under the benchmark span around the session call that caused
/// them. Self time is duration minus the union of the children's
/// intervals.
pub fn totals(spans: &[SpanRecord]) -> BTreeMap<&'static str, NameTotals> {
    let end = |s: &SpanRecord| s.start_ns + s.duration_ns;
    // Benchmark spans per thread, for adoption by containment.
    let mut by_tid: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans.iter().filter(|s| s.id >= ID_BASE) {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        let parent = s.parent.or_else(|| {
            if s.id >= ID_BASE {
                return None;
            }
            by_tid
                .get(&s.tid)?
                .iter()
                .filter(|b| b.start_ns <= s.start_ns && end(s) <= end(b))
                .min_by_key(|b| b.duration_ns)
                .map(|b| b.id)
        });
        if let Some(p) = parent {
            children.entry(p).or_default().push((s.start_ns, end(s)));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map(|c| union_len(c, s.start_ns, end(s)))
            .unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.duration_ns as f64 / 1e9;
        t.self_s += s.duration_ns.saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            attrs: Vec::new(),
            seq: 0,
            start_ns: start,
            tid: 1,
            duration_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_adopts_program_roots() {
        let spans = [
            rec(ID_BASE, None, "bench.op", 0, 100),
            // Program root inside the benchmark span: adopted.
            rec(5, None, "put", 10, 50),
            // Program child of the program root.
            rec(6, Some(5), "inner", 20, 10),
            // Overlapping explicit children of a benchmark span.
            rec(ID_BASE + 1, None, "replay", 200, 100),
            rec(ID_BASE + 2, Some(ID_BASE + 1), "call", 210, 30),
            rec(ID_BASE + 3, Some(ID_BASE + 1), "call", 230, 30),
        ];
        let t = totals(&spans);
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(t["bench.op"].self_s), 50);
        assert_eq!(ns(t["put"].self_s), 40);
        assert_eq!(ns(t["inner"].self_s), 10);
        assert_eq!(ns(t["replay"].self_s), 50);
        assert_eq!(t["call"].count, 2);
        assert_eq!(ns(t["call"].total_s), 60);
    }
}

//! The closed-loop client harness: a fixed number of client threads, each
//! holding its own session and sending its next request only after the
//! previous one returned. Every session call is timed on its own; input
//! generation and result checking happen between calls, outside the
//! timed region.

use crate::gen::hash;
use crate::rig::{CLIENT, PASSWORD};
use crate::spans::Tracer;
use fragcloud_core::{CloudDataDistributor, CoreError, Session};
use fragcloud_telemetry::clock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Client threads per workload.
pub const CLIENTS: usize = 2;

/// Kinds of session call, each with its own latency sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `put_file`.
    Put,
    /// `get_file`.
    GetFile,
    /// `get_chunk`.
    GetChunk,
    /// `update_chunk`, `restore_snapshot`, `remove_chunk`, `remove_file`,
    /// and `put_file` inside a mixed workload.
    Mutate,
    /// `repair`.
    Repair,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 5] = [
        Class::Put,
        Class::GetFile,
        Class::GetChunk,
        Class::Mutate,
        Class::Repair,
    ];

    /// Short name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Class::Put => "put",
            Class::GetFile => "get_file",
            Class::GetChunk => "get_chunk",
            Class::Mutate => "mutate",
            Class::Repair => "repair",
        }
    }

    /// Name of the benchmark span around calls of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Put => "distributor.put",
            Class::GetFile | Class::GetChunk => "distributor.get",
            Class::Mutate => "distributor.mutate",
            Class::Repair => "distributor.repair",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// What a set of clients did.
#[derive(Debug, Default, Clone)]
pub struct Log {
    /// Per class: successful call latencies, milliseconds.
    pub lat_ms: [Vec<f64>; 5],
    /// Per class: user bytes moved by successful calls.
    pub bytes: [u64; 5],
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Time spent inside calls, summed over clients, nanoseconds.
    pub busy_ns: u64,
    /// Client thread lifetimes, summed, nanoseconds.
    pub client_ns: u64,
    /// Wall time of the phase, nanoseconds.
    pub wall_ns: u64,
    /// Results that did not match the generator's expected bytes.
    pub mismatches: Vec<String>,
    /// First few errors, for the report.
    pub errors: Vec<String>,
}

impl Log {
    /// Appends `o` into `self`.
    pub fn absorb(&mut self, o: Log) {
        for c in Class::ALL {
            self.lat_ms[c.idx()].extend_from_slice(&o.lat_ms[c.idx()]);
            self.bytes[c.idx()] += o.bytes[c.idx()];
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.busy_ns += o.busy_ns;
        self.client_ns += o.client_ns;
        self.wall_ns += o.wall_ns;
        self.mismatches.extend(o.mismatches);
        for e in o.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Folds in the counts and findings of untimed checks, leaving the
    /// latency samples and wall time of the timed phase alone.
    pub fn absorb_checks(&mut self, o: Log) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches.extend(o.mismatches);
        self.errors.extend(o.errors);
    }

    /// Latency samples of one class.
    pub fn lat(&self, c: Class) -> &[f64] {
        &self.lat_ms[c.idx()]
    }

    /// User bytes moved by one class.
    pub fn bytes_of(&self, c: Class) -> u64 {
        self.bytes[c.idx()]
    }

    /// Successful calls, all classes.
    pub fn ops(&self) -> u64 {
        self.lat_ms.iter().map(|v| v.len() as u64).sum()
    }

    /// User bytes moved, all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Wall seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Counts one call outside the timed loop (checks and drills).
    pub fn untimed<T>(&mut self, what: &str, r: Result<T, CoreError>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }
}

/// Per-client context: times calls, records spans, checks results.
pub struct Ctx<'t> {
    /// This client's log.
    pub log: Log,
    tracer: &'t Tracer,
    parent: Option<u64>,
    next_op: &'t AtomicU64,
    poison: &'t AtomicBool,
}

impl Ctx<'_> {
    /// Times one session call of class `class` moving `bytes` user bytes.
    pub fn call<T>(
        &mut self,
        class: Class,
        bytes: usize,
        what: impl FnOnce() -> String,
        f: impl FnOnce() -> Result<T, CoreError>,
    ) -> Option<T> {
        self.log.attempted += 1;
        // The op counter is shared by the clients; touch it only when
        // spans need ids, so untraced clients share no written cache line.
        let span = if self.tracer.enabled() {
            let op = self.next_op.fetch_add(1, Ordering::Relaxed);
            self.tracer.open(class.span_name(), self.parent, op)
        } else {
            None
        };
        let t0 = clock::monotonic_now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.tracer.close(span);
        self.log.busy_ns += ns;
        match r {
            Ok(v) => {
                self.log.lat_ms[class.idx()].push(ns as f64 / 1e6);
                self.log.bytes[class.idx()] += bytes as u64;
                Some(v)
            }
            Err(e) => {
                self.log.failed += 1;
                if self.log.errors.len() < 8 {
                    self.log.errors.push(format!("{}: {e}", what()));
                }
                None
            }
        }
    }

    /// Checks returned bytes against the expected hash. When the run was
    /// asked to poison one expectation, the first check uses a wrong hash.
    pub fn check(&mut self, what: impl FnOnce() -> String, expected: u64, got: &[u8]) {
        // Load before swapping: the flag is shared by the clients, and a
        // read-only line is not bounced between cores on every check.
        let expected =
            if self.poison.load(Ordering::Relaxed) && self.poison.swap(false, Ordering::Relaxed) {
                expected ^ 1
            } else {
                expected
            };
        if hash(got) != expected {
            self.log.mismatches.push(what());
        }
    }
}

/// One closed-loop client: generates its next request, issues it through
/// [`Ctx::call`] and checks the result.
pub trait Client: Send {
    /// Runs one request; `false` when the client has nothing left to do.
    fn step(&mut self, s: &Session<'_>, cx: &mut Ctx<'_>) -> bool;
}

/// When a phase ends: at a deadline, after a number of requests per
/// client, or at whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    /// Stop issuing requests at this instant.
    pub deadline: Option<Instant>,
    /// Stop after this many requests per client.
    pub max_ops: Option<u64>,
}

/// Shared per-run state of the harness.
pub struct Harness<'t> {
    /// Span recorder (disabled outside traced phases).
    pub tracer: &'t Tracer,
    next_op: AtomicU64,
    poison: AtomicBool,
}

impl<'t> Harness<'t> {
    /// A harness recording into `tracer`; `poison` arms one wrong
    /// expected hash.
    pub fn new(tracer: &'t Tracer, poison: bool) -> Self {
        Harness {
            tracer,
            next_op: AtomicU64::new(1),
            poison: AtomicBool::new(poison),
        }
    }

    /// A context for checks made outside a client thread.
    pub fn ctx(&self) -> Ctx<'_> {
        Ctx {
            log: Log::default(),
            tracer: self.tracer,
            parent: None,
            next_op: &self.next_op,
            poison: &self.poison,
        }
    }

    /// Runs `clients` concurrently, one thread and one session each,
    /// until `limit`.
    pub fn run<C: Client>(&self, d: &CloudDataDistributor, clients: &mut [C], limit: Limit) -> Log {
        let t0 = clock::monotonic_now();
        let mut log = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, c)| {
                    scope.spawn(move || {
                        let mut cx = self.ctx();
                        let Some(s) = cx.log.untimed("open session", d.session(CLIENT, PASSWORD))
                        else {
                            return cx.log;
                        };
                        let span = self.tracer.open("client", None, i as u64);
                        cx.parent = span.as_ref().map(|o| o.id());
                        let start = clock::monotonic_now();
                        let mut n = 0u64;
                        while limit.max_ops.is_none_or(|m| n < m)
                            && limit.deadline.is_none_or(|t| clock::monotonic_now() < t)
                        {
                            if !c.step(&s, &mut cx) {
                                break;
                            }
                            n += 1;
                        }
                        cx.log.client_ns = start.elapsed().as_nanos() as u64;
                        self.tracer.close(span);
                        cx.log
                    })
                })
                .collect();
            let mut all = Log::default();
            for h in handles {
                all.absorb(h.join().expect("client thread panicked"));
            }
            all
        });
        log.wall_ns = t0.elapsed().as_nanos() as u64;
        log
    }
}

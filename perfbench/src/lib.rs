//! End-to-end and per-layer benchmark of the fragcloud distributor.
//!
//! One run = one workload ([`Workload`]) at one seed: set up the system
//! several times (reporting the median set-up time), run the timed
//! closed-loop phase, check every byte read back, and drill recovery.
//! An untraced run reports the end-to-end metrics of
//! [`report::END_TO_END`]; a traced run splits its timed phase into an
//! untraced and a traced half, then replays the workload's inputs through
//! each layer, and reports [`report::PER_LAYER`]. See `README.md`.

pub mod gen;
pub mod harness;
pub mod layers;
pub mod report;
pub mod rig;
pub mod spans;
pub mod stats;
pub mod workloads;

use harness::{Class, Harness, Log};
use report::{Value, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::PathBuf;
use workloads::{Budget, Clients, Finish, Scale, Setup, Timed};

pub use workloads::Workload;

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Timed-phase length, seconds (split in two halves when tracing).
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Requests per client per timed phase, instead of (or besides) the
    /// time limit; makes every count independent of thread speed.
    pub ops: Option<u64>,
    /// Checks the first read against a wrong expected hash, which must
    /// fail the run.
    pub poison: bool,
    /// Where a traced run writes its Chrome trace and layer table.
    pub out_dir: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every byte read back matched, and every check held.
    pub correct: bool,
    /// Program calls the run issued and expected to succeed.
    pub attempted: u64,
    /// Of those, the ones that returned an error.
    pub failed: u64,
    /// The reported metrics, in registration order.
    pub metrics: Vec<Value>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// What went wrong, when `correct` is false or calls failed.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.spec.name == name)
            .map(|m| m.value)
    }

    /// The final JSON line.
    pub fn result_line(&self) -> String {
        report::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

const MIB: f64 = (1u64 << 20) as f64;

fn values(specs: &'static [report::Spec], named: &[(&str, f64)]) -> Vec<Value> {
    specs
        .iter()
        .map(|spec| Value {
            spec,
            value: named
                .iter()
                .find(|(n, _)| *n == spec.name)
                .map_or(f64::NAN, |x| x.1),
        })
        .collect()
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn failed_outcome(what: String) -> Outcome {
    Outcome {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        lines: Vec::new(),
        problems: vec![what],
    }
}

/// Runs one workload.
pub fn run(o: &Opts) -> Outcome {
    let w = o.workload;
    let scale = o.scale;
    let files = match w {
        Workload::Ingest => Vec::new(),
        _ => workloads::preload_specs(o.seed, &scale),
    };

    // Set up several times; keep the last.
    let mut setup_s = Vec::with_capacity(scale.setups);
    let mut setup: Option<Setup> = None;
    for _ in 0..scale.setups.max(1) {
        drop(setup.take());
        let t0 = fragcloud_telemetry::clock::monotonic_now();
        match workloads::setup(w, o.seed, &scale, &files) {
            Ok(s) => setup = Some(s),
            Err(e) => return failed_outcome(format!("set-up failed: {e}")),
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up ran");

    let quiet_tracer = Tracer::new(false);
    let quiet = Harness::new(&quiet_tracer, o.poison);
    let tracer = Tracer::new(o.trace);
    let traced = Harness::new(&tracer, false);
    let mut clients = Clients::new(w, o.seed, &scale, &files);
    let tel = fragcloud_core::TelemetryHandle::enabled();

    // The untraced half of a traced run (`None` for an untraced run).
    let mut untraced: Option<Timed> = None;
    let mut traced_state = None;
    let timed = if o.trace {
        let half = Budget {
            seconds: Some(o.seconds / 2.0),
            ops: o.ops,
        };
        let a = workloads::phase(w, &scale, &mut setup, &mut clients, &quiet, half);
        setup.set_telemetry(&tel);
        clients.clear_record();
        let before = setup.provider_totals();
        let b = workloads::phase(w, &scale, &mut setup, &mut clients, &traced, half);
        let snap = tel.registry().expect("telemetry enabled").snapshot();
        traced_state = Some((snap, setup.provider_totals().since(before)));
        untraced = Some(a);
        b
    } else {
        let all = Budget {
            seconds: Some(o.seconds),
            ops: o.ops,
        };
        workloads::phase(w, &scale, &mut setup, &mut clients, &quiet, all)
    };
    let recover_tel = if o.trace {
        tel.clone()
    } else {
        fragcloud_core::TelemetryHandle::disabled()
    };
    let fin = workloads::finish(
        w,
        &scale,
        &setup,
        &clients,
        if o.trace { &traced } else { &quiet },
        &recover_tel,
    );

    let mut out = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        lines: Vec::new(),
        problems: Vec::new(),
    };
    let merged = timed.merged();
    let mut logs = vec![&merged, &timed.checks, &fin.log];
    let untraced_merged = untraced.as_ref().map(|a| (a.merged(), a.checks.clone()));
    if let Some((a, checks)) = &untraced_merged {
        logs.extend([a, checks]);
    }
    for l in &logs {
        out.attempted += l.attempted;
        out.failed += l.failed;
        out.problems
            .extend(l.mismatches.iter().map(|m| format!("mismatch: {m}")));
        out.problems
            .extend(l.errors.iter().map(|e| format!("error: {e}")));
    }
    out.correct = logs.iter().all(|l| l.mismatches.is_empty());
    // An end-to-end figure over an empty sample would be meaningless.
    if merged.ops() == 0 {
        out.correct = false;
        out.problems
            .push("the timed phase completed no request".into());
    }

    describe(o, &timed, &merged, &fin, &setup_s, &mut out.lines);
    if let (Some((snap, prov)), Some(a)) = (traced_state, &untraced) {
        let corpus = match w {
            Workload::Ingest => clients.recorded(),
            _ => files.clone(),
        };
        let named = layer_metrics(
            o, &setup, &tracer, &tel, &corpus, &timed, a, &snap, prov, &fin, &mut out,
        );
        out.metrics = values(PER_LAYER, &named);
    } else {
        let prim = w.primary();
        out.metrics = values(
            END_TO_END,
            &[
                ("setup_s", stats::median(&setup_s)),
                (
                    "ops_s",
                    timed.round_median(|r| Some(r.ops() as f64 / r.wall_s())),
                ),
                (
                    "mib_s",
                    timed.round_median(|r| Some(r.total_bytes() as f64 / MIB / r.wall_s())),
                ),
                (
                    "p50_ms",
                    timed.round_median(|r| {
                        (!r.lat(prim).is_empty()).then(|| stats::median(r.lat(prim)))
                    }),
                ),
                (
                    "tail_ms",
                    stats::block_tail(timed.rounds.iter().map(|r| r.lat(prim))),
                ),
                (
                    "storage_amplification",
                    fin.stored_bytes as f64 / fin.live_bytes as f64,
                ),
                ("peak_rss_mib", peak_rss_mib()),
            ],
        );
    }
    out
}

/// The human-readable report: every request class with its sample count,
/// per-round throughput, repair rate and recovery time.
fn describe(
    o: &Opts,
    rounds: &Timed,
    timed: &Log,
    fin: &Finish,
    setup_s: &[f64],
    lines: &mut Vec<String>,
) {
    let wall = timed.wall_s();
    lines.push(format!(
        "workload {} seed {} trace {} | timed {:.3} s in {} rounds, {} clients, closed loop",
        o.workload.name(),
        o.seed,
        o.trace as u8,
        wall,
        rounds.rounds.len(),
        harness::CLIENTS
    ));
    for c in Class::ALL {
        let lat = timed.lat(c);
        if lat.is_empty() {
            continue;
        }
        let s = stats::summarize(lat);
        lines.push(format!(
            "  {:<9} n={:<6} {:>9.2} ops/s {:>9.2} MiB/s  p50 {:>9.3} ms  p{:.1} {:>9.3} ms",
            c.label(),
            s.n,
            s.n as f64 / wall,
            timed.bytes_of(c) as f64 / MIB / wall,
            s.p50,
            s.tail_q * 100.0,
            s.tail
        ));
    }
    let rep = stats::summarize(fin.log.lat(Class::Repair));
    if rep.n > 0 {
        lines.push(format!(
            "  repair    n={:<6} {:>9.2} MiB/s rebuilt ({} B in {:.3} s)  p50 {:.3} ms",
            rep.n,
            fin.rebuilt_bytes as f64 / MIB / fin.repair_s,
            fin.rebuilt_bytes,
            fin.repair_s,
            rep.p50
        ));
    }
    lines.push(format!(
        "  per round: ops/s {:?}",
        rounds
            .rounds
            .iter()
            .map(|r| (r.ops() as f64 / r.wall_s()).round())
            .collect::<Vec<_>>()
    ));
    lines.push(format!(
        "  setup_s {:.4} (median of {})  recover_ms {:.3} (median of {})  storage_amplification {:.4}  busy_frac {:.3}",
        stats::median(setup_s),
        setup_s.len(),
        stats::median(&fin.recover_ms),
        fin.recover_ms.len(),
        fin.stored_bytes as f64 / fin.live_bytes as f64,
        timed.busy_ns as f64 / timed.client_ns.max(1) as f64
    ));
}

/// Per-layer metrics of a traced run, plus the layer table and Chrome
/// trace written to `o.out_dir`.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    o: &Opts,
    setup: &Setup,
    tracer: &Tracer,
    tel: &fragcloud_core::TelemetryHandle,
    corpus: &[rig::FileSpec],
    traced: &Timed,
    untraced: &Timed,
    snap: &fragcloud_telemetry::RegistrySnapshot,
    prov: rig::ProviderTotals,
    fin: &Finish,
    out: &mut Outcome,
) -> Vec<(&'static str, f64)> {
    let w = o.workload;
    let b = &traced.merged();
    let mut take = 0u64;
    let corpus: Vec<rig::FileSpec> = corpus
        .iter()
        .take_while(|f| {
            take += f.content.len as u64;
            take <= o.scale.replay_bytes || take == f.content.len as u64
        })
        .cloned()
        .collect();
    let reconstruct = snap.counter_total("parity_reconstructions") > 0;
    let rep = layers::replay(tracer, &corpus, w.mislead_rate(), reconstruct);
    let mut state_errors = 0;
    let (journal_len, checkpoint_len, state_len) = layers::replay_state(
        tracer,
        &setup.rig().d,
        &setup.rig().journal,
        3,
        &mut state_errors,
    );
    if rep.errors + state_errors > 0 {
        out.correct = false;
        out.problems.push(format!(
            "layer replay: {} wrong results",
            rep.errors + state_errors
        ));
    }

    let mut spans = tracer.records();
    if let Some(reg) = tel.registry() {
        spans.extend(reg.span_records());
    }
    let t = spans::totals(&spans);
    let self_s = |name: &str| t.get(name).map_or(0.0, |x| x.self_s);
    let busy = |name: &str| t.get(name).map_or(0.0, |x| x.total_s);
    let mean_ms = |name: &str| {
        t.get(name)
            .map_or(0.0, |x| x.self_s * 1e3 / x.count.max(1) as f64)
    };
    let rate = |bytes: u64, name: &str| {
        let s = self_s(name);
        if bytes == 0 || s == 0.0 {
            0.0
        } else {
            bytes as f64 / MIB / s
        }
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let hist_sum_s = |name: &str| {
        snap.histogram(name, "")
            .map_or(0.0, |h| h.sum() as f64 / 1e9)
    };
    let hist_q = |name: &str, q: f64| {
        snap.histogram(name, "")
            .map_or(0.0, |h| h.quantile(q) as f64)
    };
    let written = b.bytes_of(Class::Put) + b.bytes_of(Class::Mutate);
    let read = b.bytes_of(Class::GetFile) + b.bytes_of(Class::GetChunk);
    let ops_s = |t: &Timed| t.round_median(|r| Some(r.ops() as f64 / r.wall_s()));
    let live_mib = fin.live_bytes as f64 / MIB;
    let recovery = fin.recovery.clone().unwrap_or_default();

    let named: Vec<(&'static str, f64)> = vec![
        ("distributor.put.busy_s", busy("distributor.put")),
        ("distributor.get.busy_s", busy("distributor.get")),
        ("distributor.mutate.busy_s", busy("distributor.mutate")),
        ("distributor.repair.busy_s", busy("distributor.repair")),
        ("repair.rebuilt_bytes", fin.rebuilt_bytes as f64),
        (
            "repair.mib_s",
            if fin.repair_s > 0.0 {
                fin.rebuilt_bytes as f64 / MIB / fin.repair_s
            } else {
                0.0
            },
        ),
        ("client.busy_frac", ratio(b.busy_ns, b.client_ns)),
        (
            "chunker.split_mib_s",
            rate(rep.split_bytes, "chunker.split_shared"),
        ),
        ("chunker.chunks", rep.chunks as f64),
        (
            "mislead.inject_mib_s",
            rate(rep.inject_bytes, "mislead.inject"),
        ),
        (
            "mislead.strip_mib_s",
            rate(rep.strip_bytes, "mislead.strip"),
        ),
        (
            "mislead.positions_per_mib",
            rep.positions as f64 / (rep.split_bytes as f64 / MIB).max(f64::MIN_POSITIVE),
        ),
        (
            "integrity.frame_mib_s",
            rate(rep.frame_bytes, "integrity.frame"),
        ),
        (
            "integrity.unframe_mib_s",
            rate(rep.frame_bytes, "integrity.unframe"),
        ),
        (
            "integrity.corruption_detected",
            snap.counter_total("corruption_detected_total") as f64,
        ),
        ("raid.encode_mib_s", rate(rep.encode_bytes, "raid.encode")),
        ("raid.stripe_encode_s", hist_sum_s("stripe_encode_ns")),
        (
            "raid.reconstruct_mib_s",
            rate(rep.reconstruct_bytes, "raid.reconstruct"),
        ),
        (
            "raid.parity_reconstructions",
            snap.counter_total("parity_reconstructions") as f64,
        ),
        ("pool.tasks", snap.counter_total("pool_tasks_total") as f64),
        (
            "pool.queue_dwell_us_p50",
            hist_q("pool_queue_dwell_us", 0.5),
        ),
        (
            "pool.queue_depth_p99",
            hist_q("pool_queue_depth_count", 0.99),
        ),
        ("provider.puts", prov.puts as f64),
        ("provider.gets", prov.gets as f64),
        ("provider.deletes", prov.deletes as f64),
        ("provider.rejected", prov.rejected as f64),
        (
            "provider.bytes_in_per_user_byte",
            ratio(prov.bytes_in, written),
        ),
        (
            "provider.bytes_out_per_user_byte",
            ratio(prov.bytes_out, read),
        ),
        ("provider.store_s", hist_sum_s("stripe_store_ns")),
        (
            "provider.put_mib_s",
            rate(rep.provider_bytes, "provider.put"),
        ),
        (
            "provider.get_mib_s",
            rate(rep.provider_bytes, "provider.get"),
        ),
        (
            "resilience.retries",
            snap.counter_total("retries_total") as f64,
        ),
        (
            "resilience.reads_hedged",
            snap.counter_total("reads_hedged") as f64,
        ),
        (
            "resilience.degraded_chunk_reads",
            snap.counter_total("degraded_chunk_reads") as f64,
        ),
        (
            "health.breaker_transitions",
            snap.counter_total("breaker_transitions_total") as f64,
        ),
        (
            "journal.commits",
            snap.counter_total("journal_commits_total") as f64,
        ),
        (
            "journal.batch_ops_p50",
            hist_q("journal_batch_ops_count", 0.5),
        ),
        ("journal.bytes_per_user_mib", journal_len as f64 / live_mib),
        ("journal.checkpoint_bytes", checkpoint_len as f64),
        ("journal.export_ms", mean_ms("journal.export")),
        ("journal.parse_ms", mean_ms("journal.parse")),
        ("persist.export_state_ms", mean_ms("persist.export_state")),
        ("persist.export_state_bytes", state_len as f64),
        ("recovery.recover_ms", stats::median(&fin.recover_ms)),
        ("recovery.ops_seen", recovery.ops_seen as f64),
        ("recovery.replayed", recovery.replayed as f64),
        (
            "telemetry.overhead_frac",
            1.0 - ops_s(traced) / ops_s(untraced),
        ),
    ];

    out.lines.push(format!(
        "  traced half: {:.2} ops/s against {:.2} untraced; replayed {} files, {:.2} MiB",
        ops_s(traced),
        ops_s(untraced),
        corpus.len(),
        rep.split_bytes as f64 / MIB
    ));
    let mut table = format!(
        "program spans dropped past the registry's retention cap: {}\n\nspan name                              count      total_s       self_s\n",
        tel.registry().map_or(0, |r| r.snapshot().span_records_dropped)
    );
    for (name, x) in &t {
        table.push_str(&format!(
            "{name:<36} {:>8} {:>12.6} {:>12.6}\n",
            x.count, x.total_s, x.self_s
        ));
    }
    table.push_str("\nmetric                               value        unit       base\n");
    for (name, v) in &named {
        let spec = report::find(PER_LAYER, name).expect("every named metric is registered");
        table.push_str(&format!(
            "{name:<36} {v:>14.6} {:<10} {}\n",
            spec.unit, spec.base
        ));
    }
    out.lines.extend(table.lines().map(|l| format!("  {l}")));
    if let Some(dir) = &o.out_dir {
        let stem = format!("{}-seed{}", w.name(), o.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(dir.join(format!("{stem}.layers.txt")), &table))
            .and_then(|_| {
                std::fs::write(
                    dir.join(format!("{stem}.trace.json")),
                    fragcloud_telemetry::chrome_trace(&spans),
                )
            });
        match written {
            Ok(()) => out.lines.push(format!(
                "  wrote {}/{stem}.layers.txt and {stem}.trace.json",
                dir.display()
            )),
            Err(e) => out
                .problems
                .push(format!("could not write trace output: {e}")),
        }
    }
    named
}

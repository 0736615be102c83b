//! Metric definitions and the result line.
//!
//! The names, units and directions here are the ones `BENCHMARK.json`
//! registers; `base` says what every ratio and rate is taken over.

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// What is measured, and over which base.
    pub base: &'static str,
}

const fn spec(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    base: &'static str,
) -> Spec {
    Spec {
        name,
        unit,
        better,
        base,
    }
}

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", "lower", "median over the run's set-ups of: fleet + distributor + journal build and the preload (ingest: one warm-up file per level)"),
    spec("ops_s", "ops/s", "higher", "successful timed requests / timed wall seconds, 2 closed-loop clients"),
    spec("mib_s", "MiB/s", "higher", "user bytes put, read or rewritten by timed requests / timed wall seconds"),
    spec("p50_ms", "ms", "lower", "median latency of the primary request: ingest put_file, serve and degraded get_file, churn mutations pooled"),
    spec("tail_ms", "ms", "lower", "primary-request latency at the highest percentile with >= 10 samples beyond it, capped at p99"),
    spec("storage_amplification", "ratio", "lower", "bytes held across providers / live user bytes, at the end of the run"),
    spec("peak_rss_mib", "MiB", "lower", "peak resident set size of the benchmark process"),
];

/// Per-layer metrics, reported by every traced run of every workload. A
/// layer the workload's path does not use reads 0.
pub const PER_LAYER: &[Spec] = &[
    spec("distributor.put.busy_s", "s", "lower", "summed benchmark spans around put_file calls, traced half"),
    spec("distributor.get.busy_s", "s", "lower", "summed benchmark spans around get_file and get_chunk calls, traced half"),
    spec("distributor.mutate.busy_s", "s", "lower", "summed benchmark spans around update/restore/remove/put calls of churn, traced half"),
    spec("distributor.repair.busy_s", "s", "lower", "summed benchmark spans around repair calls"),
    spec("repair.rebuilt_bytes", "B", "lower", "provider bytes written by repair calls (degraded's outage cycles)"),
    spec("repair.mib_s", "MiB/s", "higher", "repair.rebuilt_bytes / summed repair wall seconds"),
    spec("client.busy_frac", "ratio", "higher", "time inside session calls / client thread lifetime, traced half"),
    spec("chunker.split_mib_s", "MiB/s", "higher", "replay: file bytes / chunker::split_shared self time"),
    spec("chunker.chunks", "count", "lower", "replay: chunks split_shared cut from the replayed files"),
    spec("mislead.inject_mib_s", "MiB/s", "higher", "replay: bytes of chunks that received decoys / mislead::inject self time"),
    spec("mislead.strip_mib_s", "MiB/s", "higher", "replay: stored bytes stripped / mislead::strip self time"),
    spec("mislead.positions_per_mib", "count/MiB", "lower", "replay: decoy positions / MiB of replayed file bytes"),
    spec("integrity.frame_mib_s", "MiB/s", "higher", "replay: payload bytes / integrity::frame self time"),
    spec("integrity.unframe_mib_s", "MiB/s", "higher", "replay: payload bytes / integrity::unframe_expecting self time"),
    spec("integrity.corruption_detected", "count", "lower", "program counter corruption_detected_total, traced half"),
    spec("raid.encode_mib_s", "MiB/s", "higher", "replay: RS(4,2) stripe data bytes / RsCodec::parity self time"),
    spec("raid.stripe_encode_s", "s", "lower", "program histogram stripe_encode_ns, summed, traced half"),
    spec("raid.reconstruct_mib_s", "MiB/s", "higher", "replay, when the program reconstructed: stripe data bytes / two-erasure RsCodec::reconstruct self time"),
    spec("raid.parity_reconstructions", "count", "lower", "program counter parity_reconstructions, traced half"),
    spec("pool.tasks", "count", "lower", "program counter pool_tasks_total, traced half"),
    spec("pool.queue_dwell_us_p50", "us", "lower", "program histogram pool_queue_dwell_us, median, traced half"),
    spec("pool.queue_depth_p99", "count", "lower", "program histogram pool_queue_depth_count, p99, traced half"),
    spec("provider.puts", "count", "lower", "summed provider stats, successful puts, traced half"),
    spec("provider.gets", "count", "lower", "summed provider stats, successful gets, traced half"),
    spec("provider.deletes", "count", "lower", "summed provider stats, successful deletes, traced half"),
    spec("provider.rejected", "count", "lower", "summed provider stats, refused requests, traced half"),
    spec("provider.bytes_in_per_user_byte", "ratio", "lower", "provider bytes written / user bytes put or rewritten, traced half (0 when none)"),
    spec("provider.bytes_out_per_user_byte", "ratio", "lower", "provider bytes read / user bytes read, traced half (0 when none)"),
    spec("provider.store_s", "s", "lower", "program histogram stripe_store_ns, summed, traced half"),
    spec("provider.put_mib_s", "MiB/s", "higher", "replay: framed bytes / scratch CloudProvider::put self time"),
    spec("provider.get_mib_s", "MiB/s", "higher", "replay: framed bytes / scratch CloudProvider::get self time"),
    spec("resilience.retries", "count", "lower", "program counter retries_total, all providers, traced half"),
    spec("resilience.reads_hedged", "count", "lower", "program counter reads_hedged, traced half"),
    spec("resilience.degraded_chunk_reads", "count", "lower", "program counter degraded_chunk_reads, traced half"),
    spec("health.breaker_transitions", "count", "lower", "program counter breaker_transitions_total, all states, traced half"),
    spec("journal.commits", "count", "lower", "program counter journal_commits_total, traced half"),
    spec("journal.batch_ops_p50", "count", "higher", "program histogram journal_batch_ops_count, median, traced half"),
    spec("journal.bytes_per_user_mib", "B/MiB", "lower", "Journal::export() length at the end / MiB of live user data"),
    spec("journal.checkpoint_bytes", "B", "lower", "length of the journal's checkpoint at the end"),
    spec("journal.export_ms", "ms", "lower", "replay: mean Journal::export self time on the end state"),
    spec("journal.parse_ms", "ms", "lower", "replay: mean Journal::parse self time on the end state"),
    spec("persist.export_state_ms", "ms", "lower", "replay: mean persist::export_state self time on the end state"),
    spec("persist.export_state_bytes", "B", "lower", "length of persist::export_state on the end state"),
    spec("recovery.recover_ms", "ms", "lower", "median wall time of recover() on the final journal over the live fleet (at least 5 calls and 2 s)"),
    spec("recovery.ops_seen", "count", "lower", "RecoveryReport::ops_seen of the first recover() on the final journal"),
    spec("recovery.replayed", "count", "lower", "RecoveryReport::replayed of the same recovery"),
    spec("telemetry.overhead_frac", "ratio", "lower", "1 - (traced half ops/s) / (untraced half ops/s)"),
];

/// Looks a metric up in `specs`.
pub fn find(specs: &'static [Spec], name: &str) -> Option<&'static Spec> {
    specs.iter().find(|s| s.name == name)
}

/// A measured value of a registered metric.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// Its definition.
    pub spec: &'static Spec,
    /// The value.
    pub value: f64,
}

/// The last line of a run: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Value]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.spec.name, v, m.spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted,
        body.join(",")
    )
}

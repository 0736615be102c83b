//! The benchmark's own checks, at smoke size: every workload runs, emits
//! every registered metric, reads every byte back correctly, shows the
//! predicted zeros on the layers it bypasses, repeats its
//! interleaving-independent counts exactly for a seed, and fails when an
//! expectation is wrong.

use fragcloud_perfbench::report::{END_TO_END, PER_LAYER};
use fragcloud_perfbench::workloads::Scale;
use fragcloud_perfbench::{run, Opts, Outcome, Workload};
use fragcloud_telemetry::export::json;

/// A smoke run: small inputs, a fixed number of requests per client and
/// phase (so counts do not depend on machine speed), no trace files.
fn smoke(w: Workload, trace: bool) -> Opts {
    Opts {
        workload: w,
        seed: 7,
        seconds: 120.0,
        trace,
        scale: Scale::smoke(),
        ops: Some(12),
        poison: false,
        out_dir: None,
    }
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metric(name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_emits_every_metric_and_reads_back_correctly() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&smoke(w, trace));
            let ctx = format!("{} trace={trace}: {:?}", w.name(), out.problems);
            assert!(out.correct, "{ctx}");
            assert_eq!(out.failed, 0, "{ctx}");
            assert!(out.attempted > 0, "{ctx}");
            let specs = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<&str> = out.metrics.iter().map(|m| m.spec.name).collect();
            let want: Vec<&str> = specs.iter().map(|s| s.name).collect();
            assert_eq!(names, want, "{ctx}");
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{ctx}: {} = {}", m.spec.name, m.value);
                if !trace {
                    assert!(
                        m.value > 0.0,
                        "{ctx}: end-to-end {} must never be 0",
                        m.spec.name
                    );
                }
            }

            let line = json::parse(&out.result_line()).expect("result line is JSON");
            let keys: Vec<&String> = line.as_object().expect("an object").keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{ctx}");
            assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
            let m = line
                .get("metrics")
                .and_then(|m| m.as_object())
                .expect("metrics");
            assert_eq!(m.len(), specs.len(), "{ctx}");
            for s in specs {
                assert_eq!(
                    m[s.name].get("unit").and_then(|u| u.as_str()),
                    Some(s.unit),
                    "{ctx}"
                );
            }
        }
    }
}

#[test]
fn bypassed_layers_read_zero_and_used_ones_do_not() {
    let serve = run(&smoke(Workload::Serve, true));
    assert_eq!(metric(&serve, "raid.parity_reconstructions"), 0.0);
    assert_eq!(metric(&serve, "raid.reconstruct_mib_s"), 0.0);
    assert_eq!(
        metric(&serve, "journal.commits"),
        0.0,
        "serve's timed phase is read-only"
    );
    assert_eq!(metric(&serve, "provider.puts"), 0.0);
    assert!(metric(&serve, "mislead.strip_mib_s") > 0.0);

    for w in [Workload::Churn, Workload::Degraded] {
        let out = run(&smoke(w, true));
        assert_eq!(
            metric(&out, "mislead.positions_per_mib"),
            0.0,
            "{}",
            w.name()
        );
        assert_eq!(metric(&out, "mislead.inject_mib_s"), 0.0, "{}", w.name());
        assert_eq!(metric(&out, "mislead.strip_mib_s"), 0.0, "{}", w.name());
        if w == Workload::Degraded {
            assert!(metric(&out, "raid.parity_reconstructions") > 0.0);
            assert!(metric(&out, "raid.reconstruct_mib_s") > 0.0);
            assert!(metric(&out, "repair.rebuilt_bytes") > 0.0);
            assert_eq!(
                metric(&out, "journal.commits"),
                0.0,
                "degraded's timed phase only reads"
            );
        } else {
            assert!(
                metric(&out, "journal.commits") > 0.0,
                "churn's puts and removals commit"
            );
            assert!(metric(&out, "distributor.mutate.busy_s") > 0.0);
        }
    }

    let ingest = run(&smoke(Workload::Ingest, true));
    assert!(metric(&ingest, "mislead.positions_per_mib") > 0.0);
    // One commit per upload of the traced half (2 clients x 12), and none
    // for the warm-up files each rebuilt epoch rig is loaded with.
    assert_eq!(metric(&ingest, "journal.commits"), 24.0);
    assert_eq!(metric(&ingest, "raid.parity_reconstructions"), 0.0);
}

#[test]
fn interleaving_independent_counts_repeat_for_a_seed() {
    const COUNTS: [&str; 4] = [
        "chunker.chunks",
        "provider.puts",
        "provider.bytes_in_per_user_byte",
        "mislead.positions_per_mib",
    ];
    for w in Workload::ALL {
        let (a, b) = (run(&smoke(w, true)), run(&smoke(w, true)));
        for name in COUNTS {
            assert_eq!(metric(&a, name), metric(&b, name), "{} {name}", w.name());
        }
        let (a, b) = (run(&smoke(w, false)), run(&smoke(w, false)));
        let amp = "storage_amplification";
        assert_eq!(metric(&a, amp), metric(&b, amp), "{} {amp}", w.name());
    }
    // A different seed draws different inputs.
    let mut other = smoke(Workload::Ingest, true);
    other.seed = 8;
    let (a, b) = (run(&smoke(Workload::Ingest, true)), run(&other));
    assert_ne!(metric(&a, "provider.puts"), metric(&b, "provider.puts"));
}

#[test]
fn a_wrong_expected_hash_fails_the_run() {
    for w in [Workload::Serve, Workload::Churn, Workload::Ingest] {
        let mut o = smoke(w, false);
        o.poison = true;
        let out = run(&o);
        assert!(!out.correct, "{}", w.name());
        assert!(
            out.problems.iter().any(|p| p.starts_with("mismatch")),
            "{}: {:?}",
            w.name(),
            out.problems
        );
        assert!(out.result_line().starts_with("{\"correct\":false,"));
    }
}

#[test]
fn benchmark_json_registers_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = json::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(|a| a.as_array())
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(|n| n.as_str())
                    .expect("a name")
                    .to_string()
            })
            .collect()
    };
    let workloads: Vec<&str> = Workload::REGISTERED.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads"), workloads);
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        assert_eq!(
            names(key),
            specs.iter().map(|s| s.name).collect::<Vec<_>>(),
            "{key}"
        );
        for (m, s) in v
            .get(key)
            .and_then(|a| a.as_array())
            .expect("array")
            .iter()
            .zip(specs)
        {
            assert_eq!(
                m.get("unit").and_then(|u| u.as_str()),
                Some(s.unit),
                "{}",
                s.name
            );
            assert_eq!(
                m.get("better").and_then(|u| u.as_str()),
                Some(s.better),
                "{}",
                s.name
            );
        }
    }
}

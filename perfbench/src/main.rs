//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line. Exits 0
//! when every byte read back was correct, 1 when not, 2 on bad arguments.

use fragcloud_perfbench::{run, workloads::Scale, Opts, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <ingest|serve|churn|degraded> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: Workload::Ingest,
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
        ops: None,
        poison: false,
        out_dir: Some(PathBuf::from("perfbench/out")),
    };
    let mut seen_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                o.workload =
                    Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?;
                seen_workload = true;
            }
            "--seed" => {
                o.seed = val
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                o.seconds = val
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {val}"));
                }
            }
            "--trace" => {
                o.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seen_workload {
        return Err("--workload is required".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);
    for l in &out.lines {
        println!("{l}");
    }
    for p in out.problems.iter().take(20) {
        eprintln!("{p}");
    }
    println!(
        "  attempted {} failed {} error_rate {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted as f64
    );
    println!("{}", out.result_line());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

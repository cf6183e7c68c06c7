//! The benchmark's command line. Run from the repository root:
//!
//! ```text
//! perfbench --workload <sim-tables|live-burst|service-uds> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! It prints the hardware fingerprint, every metric by name with its unit
//! and sample count, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and the end-to-end (`--trace 0`) or per-layer
//! (`--trace 1`) metrics.

use std::process::ExitCode;

use agossip_perfbench::{live_burst, service_uds, sim_tables, started, RunSpec, TRACE_DIR};

const USAGE: &str = "usage: perfbench --workload <sim-tables|live-burst|service-uds> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, RunSpec), String> {
    let mut workload = None;
    let mut spec = RunSpec {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                spec.seed = value
                    .parse()
                    .map_err(|e: std::num::ParseIntError| bad(e.to_string()))?
            }
            "--seconds" => {
                spec.seconds = value
                    .parse()
                    .map_err(|e: std::num::ParseFloatError| bad(e.to_string()))?
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(String::new())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if spec.seconds.is_nan() || spec.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    workload
        .map(|w| (w, spec))
        .ok_or_else(|| "--workload is required".to_string())
}

fn main() -> ExitCode {
    started();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, spec) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Unix-domain sockets live in a short relative directory inside the
    // checkout (socket paths are limited to about 100 bytes).
    let tmp = format!("{TRACE_DIR}/tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {tmp}: {e}");
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &tmp);

    let outcome = match workload.as_str() {
        "sim-tables" => sim_tables::run(&spec),
        "live-burst" => live_burst::run(&spec),
        "service-uds" => service_uds::run(&spec),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir(&tmp);

    let correct = outcome.problems.is_empty();
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        spec.seed, spec.seconds, spec.trace as u8
    );
    print!("{}", agossip_perfbench::report::fingerprint());
    for problem in &outcome.problems {
        println!("  problem: {problem}");
    }
    print!("{}", outcome.report.human());
    match outcome
        .report
        .json_line(spec.trace, correct, outcome.attempted, outcome.failed)
    {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

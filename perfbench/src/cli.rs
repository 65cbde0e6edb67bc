//! Command-line entry shared by the two benchmark binaries.

use std::process::ExitCode;

use crate::workload::{digest, generate_all, Workload};
use crate::{run, Mode};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
    })
}

/// Generate the streams, run them, and print the result as the last line
/// of standard output. A run that fails its correctness gate prints no
/// result and exits 1.
pub fn main(mode: Mode) -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = match generate_all(args.workload, args.seed) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("perfbench: stream generation failed: {e}");
            return ExitCode::from(2);
        }
    };
    let events: Vec<usize> = inputs.iter().map(|i| i.lines.len()).collect();
    println!(
        "streams: {events:?} events, digest {:016x}",
        digest(&inputs)
    );
    let report = run(&inputs, mode, args.seconds);
    if !report.correct {
        eprintln!(
            "perfbench: correctness gate failed: {} ({} of {} lines rejected)",
            report.failure.as_deref().unwrap_or("rejected lines"),
            report.failed,
            report.attempted
        );
        return ExitCode::from(1);
    }
    println!("event latency samples: {}", report.samples);
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}

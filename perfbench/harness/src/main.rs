//! `perfbench gen --workload W --seed N --seconds S --out DIR`
//! writes one workload's inputs;
//! `perfbench run --workload W --inputs DIR --seconds S --trace 0|1
//! [--setup-only]` measures them and prints one JSON line.
//! `perfbench/run.py` drives both.

use perfbench::measure::{self, Args};
use perfbench::{gen, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)
        .ok_or(format!("missing {name}"))?
        .parse()
        .map_err(|_| format!("bad {name}"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args, started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &[String], started: Instant) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload")
        .and_then(|w| Workload::parse(&w))
        .ok_or("missing or unknown --workload")?;
    let seconds: u32 = required(args, "--seconds")?;
    match args.first().map(String::as_str) {
        Some("gen") => {
            let out: PathBuf = required(args, "--out")?;
            gen::generate(
                workload,
                &workload.spec(),
                required(args, "--seed")?,
                seconds,
                &out,
            )
            .map_err(|e| format!("writing inputs: {e}"))?;
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let args = Args {
                workload,
                spec: workload.spec(),
                inputs: required(args, "--inputs")?,
                seconds,
                trace: required::<u8>(args, "--trace")? == 1,
                setup_only: args.iter().any(|a| a == "--setup-only"),
            };
            let outcome = measure::run(&args, started);
            println!("{}", outcome.to_json());
            Ok(if outcome.correct && outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        _ => Err("want `gen` or `run`".to_string()),
    }
}

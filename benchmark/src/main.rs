//! The repository's benchmark: four full-size workloads over the whole
//! URL → verdict stack, end-to-end metrics from an untraced run, per-layer
//! metrics from a traced run of the same inputs.  See `README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
//!     [--smoke] [--repeat N [--vary-seed]] [--record]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`).  The exit code is
//! non-zero when the oracle fails.

mod alloc;
mod drive;
mod metrics;
mod pool;
mod replay;
mod report;
mod run;
mod span;
mod stack;
mod stats;

use std::process::ExitCode;

use pool::{Sizes, Workload};
use run::RunConfig;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Default `--seed`.
const DEFAULT_SEED: u64 = 0x5eed;
/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
/// Default `--seconds` of a `--smoke` run.
const SMOKE_SECONDS: f64 = 1.0;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: Option<usize>,
    pub vary_seed: bool,
    pub record: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: sb-benchmark --workload <{}> [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--repeat N [--vary-seed]] [--record]",
        names.join("|")
    )
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::BrowseLocal,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        smoke: false,
        repeat: None,
        vary_seed: false,
        record: false,
    };
    let mut workload = None;
    let mut seconds = None;
    let mut at = 0;
    while at < args.len() {
        let flag = args[at].as_str();
        let mut value = |name: &str| {
            at += 1;
            args.get(at)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--workload" => {
                let name = value(flag)?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let text = value(flag)?;
                parsed.seed = parse_seed(&text).ok_or_else(|| format!("bad seed {text:?}"))?;
            }
            "--seconds" => {
                let text = value(flag)?;
                let parsed_seconds: f64 =
                    text.parse().map_err(|_| format!("bad seconds {text:?}"))?;
                if !(parsed_seconds > 0.0 && parsed_seconds <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {text}"));
                }
                seconds = Some(parsed_seconds);
            }
            "--trace" => {
                // `--trace 0|1` (the benchmark contract) or a bare flag.
                parsed.trace = match args.get(at + 1).map(String::as_str) {
                    Some("0") => {
                        at += 1;
                        false
                    }
                    Some("1") => {
                        at += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--repeat" => {
                let text = value(flag)?;
                let count: usize = text.parse().map_err(|_| format!("bad repeat {text:?}"))?;
                if count < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
                parsed.repeat = Some(count);
            }
            "--vary-seed" => parsed.vary_seed = true,
            "--record" => parsed.record = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        at += 1;
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    parsed.seconds = seconds.unwrap_or(if parsed.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if parsed.record && (parsed.smoke || parsed.trace) {
        return Err("--record takes end-to-end numbers: not with --smoke or --trace".into());
    }
    if parsed.vary_seed && parsed.repeat.is_none() {
        return Err("--vary-seed only means something with --repeat".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        return report::repeat(&args, runs);
    }

    // Closed loop from one process: at most two load threads, and as many
    // tier workers, so the load generator never outnumbers the cores by
    // more than the serving tier it drives.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = RunConfig {
        workload: args.workload,
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        clients: nproc.min(2),
        seed: args.seed,
        seconds: args.seconds,
    };
    eprintln!(
        "{}: seed {:#x}, {} s, {} client(s) on {} core(s), {} prefixes{}{}",
        config.workload.name(),
        config.seed,
        config.seconds,
        config.clients,
        nproc,
        config.sizes.prefixes,
        if args.smoke { ", smoke" } else { "" },
        if args.trace { ", traced" } else { "" },
    );
    let outcome = if args.trace {
        report::traced_run(&config)
    } else {
        report::untraced_run(&config, args.record)
    };
    outcome.print();
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Result<Args, String> {
        let words: Vec<String> = text.split_whitespace().map(String::from).collect();
        parse_args(&words)
    }

    #[test]
    fn the_contracts_command_line_parses() {
        let parsed = args("--workload hits_tcp --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(parsed.workload, Workload::HitsTcp);
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (7, 10.0, false)
        );
        assert!(args("--workload hits_tcp --trace 1").unwrap().trace);
        assert!(args("--workload hits_tcp --trace").unwrap().trace);
        assert!(args("--trace --workload hits_tcp").unwrap().trace);
        assert_eq!(
            args("--workload browse_local --seed 0x5eed").unwrap().seed,
            0x5eed
        );
    }

    #[test]
    fn defaults_and_rejections() {
        let parsed = args("--workload browse_local").unwrap();
        assert_eq!(
            (parsed.seed, parsed.seconds),
            (DEFAULT_SEED, DEFAULT_SECONDS)
        );
        assert_eq!(
            args("--workload browse_local --smoke").unwrap().seconds,
            SMOKE_SECONDS
        );
        assert!(args("").is_err());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload browse_local --seconds 0").is_err());
        assert!(args("--workload browse_local --record --smoke").is_err());
        assert!(args("--workload browse_local --record --trace 1").is_err());
        assert!(args("--workload browse_local --vary-seed").is_err());
        assert!(args("--workload browse_local --repeat 1").is_err());
    }
}

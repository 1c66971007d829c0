//! `hyppo-perfbench --workload <explore|retrieve|serve> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints every metric with its unit and sample count, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. Exits 1
//! when a correctness check fails and 3 when the run overruns its
//! deadline.

use hyppo_perfbench::guard::{Guard, Progress};
use hyppo_perfbench::layers::{END_TO_END, PER_LAYER};
use hyppo_perfbench::serve::Fault;
use hyppo_perfbench::{report, serial, serve, RunConfig};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: hyppo-perfbench --workload <explore|retrieve|serve> --seed <n> \
                     --seconds <s> --trace <0|1> [--inject-fault drop-wal-record]";

struct Args {
    workload: String,
    run: RunConfig,
    fault: Option<Fault>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut fault) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--inject-fault" if value == "drop-wal-record" => fault = Some(Fault::DropWalRecord),
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["explore", "retrieve", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if fault.is_some() && workload != "serve" {
        return Err("--inject-fault applies to the serve workload".into());
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        run: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds),
            trace: trace.ok_or("--trace is required")?,
        },
        fault,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Generous for set-up, the timed rounds and a traced replay, yet inside
    // the 180 s a run may take (longer only for runs longer than 40 s).
    let deadline = Duration::from_secs(170).max(4 * args.run.seconds);
    let progress = Arc::new(Progress::default());
    let guard = Guard::arm(deadline, Arc::clone(&progress));
    let mut outcome = match args.workload.as_str() {
        "explore" => serial::explore(&args.run, &progress),
        "retrieve" => serial::retrieve(&args.run, &progress),
        _ => serve::serve(&args.run, &progress, args.fault),
    };
    let keep: Vec<&str> = if args.run.trace { PER_LAYER.iter() } else { END_TO_END.iter() }
        .map(|(name, _)| *name)
        .collect();
    let failed_frac = report::ratio(outcome.failed as f64, outcome.attempted as f64);
    outcome.push("failed_frac", failed_frac, "1", Some(outcome.attempted as usize));
    outcome.push("host_cpus", report::host_cpus() as f64, "count", None);
    outcome.finish(&keep);
    guard.disarm();

    println!("workload {} seed {} trace {}", args.workload, args.run.seed, args.run.trace as u8);
    print!("{}", outcome.summary());
    println!("{}", outcome.json(&keep));
    std::process::exit(if outcome.correct { 0 } else { 1 });
}

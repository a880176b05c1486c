//! `servebench --workload NAME --seed N --seconds S --trace 0|1 [options]`
//!
//! Options (set once, in `BENCHMARK.json`'s command):
//!   --shardd PATH        the release fact-shardd binary (remote-open)
//!   --remote-rate R      remote-open offered rate, requests/s
//!   --slo-us LIST        latency limits, `workload=micros,...`
//!
//! The last line of standard output is the JSON result. Exit code 0 when
//! every output check passed, 1 when a check failed or the run could not
//! complete, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use servebench::workload::Workload;
use servebench::Opts;

fn parse(argv: Vec<String>) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut shardd, mut rate, mut slo) = (None, None, None::<String>);
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed: {value:?}"))?,
                )
            }
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--shardd" => shardd = Some(PathBuf::from(value)),
            "--remote-rate" => rate = Some(num(&value)?),
            "--slo-us" => slo = Some(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    let rate = rate.ok_or("--remote-rate is required")?;
    if !(rate > 0.0 && rate.is_finite()) {
        return Err(format!("--remote-rate must be positive, not {rate}"));
    }
    let slo = slo.ok_or("--slo-us is required")?;
    let slo_us = slo
        .split(',')
        .find_map(|kv| kv.strip_prefix(workload.name())?.strip_prefix('='))
        .ok_or(format!("--slo-us names no limit for {}", workload.name()))?
        .parse::<u64>()
        .map_err(|_| format!("--slo-us: bad limit for {}", workload.name()))?;
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds),
        trace: trace.ok_or("--trace is required")?,
        shardd,
        rate,
        slo_us,
        run_dir: PathBuf::from(".servebench_tmp").join(std::process::id().to_string()),
    })
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1).collect()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    let result = std::fs::create_dir_all(&opts.run_dir)
        .map_err(|e| format!("create {}: {e}", opts.run_dir.display()))
        .and_then(|()| servebench::run(&opts))
        .and_then(|outcome| outcome.render(opts.trace).map(|line| (outcome, line)));
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    // drop the parent too when no other run is using it
    let _ = std::fs::remove_dir(".servebench_tmp");
    match result {
        Ok((outcome, line)) => {
            for note in &outcome.notes {
                eprintln!("servebench: {note}");
            }
            for failure in &outcome.failures {
                eprintln!("servebench: CHECK FAILED: {failure}");
            }
            println!("{line}");
            if outcome.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

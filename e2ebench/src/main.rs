//! End-to-end benchmark of the Booting the Booters reproduction.
//!
//! ```text
//! e2ebench --workload <paper_packets|backends|seed_sweep> --seed <n> --seconds <n> --trace <0|1>
//! e2ebench --steady <runs> [--workload <name>] [--seed <first>] [--seconds <n>]
//! ```
//!
//! A run prints its pinned environment, seeds and checks, one line per
//! metric, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed check
//! exits with code 1. `--steady` runs each workload `runs` times on
//! consecutive seeds and prints, per metric, the median, quartiles and
//! spread. See README.md for the workloads and metrics.

mod checks;
mod measure;
mod oracle;
mod workloads;
mod world;

use measure::{median, quartiles};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Outcome, Workload};
use world::Knobs;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args
                .workloads
                .push(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--steady" => args.steady = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.steady.is_none() && args.workloads.len() != 1 {
        return Err("give exactly one --workload".into());
    }
    if args.workloads.is_empty() {
        args.workloads = Workload::ALL.to_vec();
    }
    Ok(args)
}

/// Replace every `BOOTERS_*` variable of the caller's shell with the
/// benchmark's values before any library reads one, and set the knobs
/// that have a programmatic switch directly.
fn pin_environment(k: &Knobs) {
    for (key, _) in std::env::vars() {
        if key.starts_with("BOOTERS_") {
            std::env::remove_var(key);
        }
    }
    for (key, value) in k.env() {
        std::env::set_var(key, value);
    }
    booters_obs::set_enabled(false);
    booters_store::set_cache_bytes(0);
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady(&args, runs);
    }
    let scratch = match std::env::current_dir() {
        Ok(d) => d
            .join(".bench_scratch")
            .join(std::process::id().to_string()),
        Err(e) => {
            eprintln!("e2ebench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let k = Knobs::new(scratch.clone());
    pin_environment(&k);
    for dir in [scratch.join("spill"), scratch.join("query")] {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("e2ebench: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let workload = args.workloads[0];
    let out = workloads::run(workload, args.seed, args.seconds, args.trace, &k, t0);
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    report(workload, &args, &k, &out)
}

fn report(workload: Workload, args: &Args, k: &Knobs, out: &Outcome) -> ExitCode {
    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let env: Vec<String> = k
        .env()
        .into_iter()
        .map(|(key, v)| format!("{key}={v}"))
        .collect();
    println!("env {}", env.join(" "));
    println!(
        "config spill_budget_bytes={} serve_shards={} serve_queue={} serve_lag_secs={} query_chunk_capacity={} cpus={}",
        k.spill_budget_bytes,
        k.serve_shards,
        k.serve_queue,
        k.serve_lag_secs,
        k.query_chunk_capacity,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for note in &out.notes {
        println!("{note}");
    }
    let c = &out.checks;
    println!(
        "checks: {} failed; flow oracle on {} weeks; {} NB2 fits scored, worst relative score {:e}",
        c.failures.len(),
        c.oracle_weeks,
        c.scored_fits,
        c.worst_score
    );
    for f in &c.failures {
        println!("CHECK FAILED: {f}");
    }
    for m in &out.metrics {
        println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = c.failures.is_empty() && !out.metrics.is_empty();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.ops.attempted.max(1),
        out.ops.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run each selected workload `runs` times, on seeds `seed..seed + runs`,
/// each in its own process, and print the order statistics of every
/// metric: the numbers the benchmark's bounds are set from.
fn steady(args: &Args, runs: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for &w in &args.workloads {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        let mut shares = Vec::new();
        for i in 0..runs as u64 {
            let seed = args.seed + i;
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if args.trace { "1" } else { "0" },
                ])
                .output();
            let stdout = match output {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!(
                        "{} seed {seed}: exit {}\n{}",
                        w.name(),
                        o.status,
                        String::from_utf8_lossy(&o.stdout)
                    );
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("{} seed {seed}: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            let Some((attempted, failed, metrics)) = stdout.lines().last().and_then(parse_result)
            else {
                eprintln!("{} seed {seed}: no result line", w.name());
                ok = false;
                continue;
            };
            shares.push(format!("{failed}/{attempted}"));
            for (name, value, unit) in metrics {
                match values.iter_mut().find(|(n, _, _)| *n == name) {
                    Some((_, _, v)) => v.push(value),
                    None => values.push((name, unit, vec![value])),
                }
            }
            println!(
                "{} seed {seed}: {}",
                w.name(),
                stdout.lines().last().unwrap_or("")
            );
        }
        println!(
            "== {} ({} runs, failed/attempted {})",
            w.name(),
            shares.len(),
            shares.join(" ")
        );
        println!(
            "{:<28} {:>14} {:>14} {:>14} {:>10}  unit",
            "metric", "median", "q1", "q3", "spread"
        );
        for (name, unit, v) in &values {
            let (q1, q3) = quartiles(v);
            let med = median(v);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            println!("{name:<28} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>10.4}  {unit}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// (attempted, failed, [(metric, value, unit)]) of one result line.
type RunResult = (u64, u64, Vec<(String, f64, String)>);

/// Parse this benchmark's own result line.
fn parse_result(line: &str) -> Option<RunResult> {
    let field = |key: &str| -> Option<u64> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        rest[..rest.find([',', '}'])?].trim().parse().ok()
    };
    let (attempted, failed) = (field("attempted")?, field("failed")?);
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut metrics = Vec::new();
    for entry in body.split("}, ") {
        let name = entry.split('"').nth(1)?.to_string();
        let value = entry
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .trim()
            .parse()
            .ok()?;
        let unit = entry
            .split("\"unit\": \"")
            .nth(1)?
            .split('"')
            .next()?
            .to_string();
        metrics.push((name, value, unit));
    }
    Some((attempted, failed, metrics))
}

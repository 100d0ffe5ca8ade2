//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`, repeats a set-up and a whole job at all cores for
//! `--seconds` and reports the end-to-end metrics as medians over the jobs
//! and set-ups. With `--trace 1`, runs one reference job at all cores, then
//! alternates untraced and traced jobs at one worker thread and reports
//! the per-layer split as medians over the traced jobs. Every job's output
//! is checked and its report digest must match the reference, so a traced
//! run also proves thread count and tracing leave the model's results
//! unchanged.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. The line before it records the machine, the
//! seed, the model digest, the simulated outcomes and the spread of the
//! samples. The exit code is 0 only when every check passed.

use perfbench::{prepare, run_job, Job, Workload, END_TO_END, PER_LAYER};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <hub_campaign|routed_1k|verify_e4> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be > 0")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite measurement as a JSON number, with every digit Rust prints.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric {v}");
    format!("{v:?}")
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The process's peak resident set (VmHWM) in MB, at kB resolution.
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    // Same source as the campaign's own gauge, which rounds down to MB.
    let coarse = sim::campaign::peak_rss_mb().ok_or("sim::campaign::peak_rss_mb unavailable")?;
    if coarse != (kb / 1024.0) as u64 {
        return Err(format!("VmHWM {kb} kB disagrees with peak_rss_mb {coarse}"));
    }
    Ok(kb / 1024.0)
}

/// Everything a run measured.
struct Outcome {
    jobs: Vec<Job>,
    problems: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Spread of the raw samples behind the metrics, as a JSON object.
    dispersion: String,
}

/// `name`'s value in one traced job's layer list; 0 when the workload
/// does not run that layer.
fn layer_of(layers: &[(&str, f64)], name: &str) -> f64 {
    layers.iter().find(|(n, _)| *n == name).map_or(0.0, |l| l.1)
}

/// Sample count, minimum, median and maximum of `xs`, as a JSON object.
fn spread_json(xs: &[f64]) -> String {
    format!(
        "{{\"n\": {}, \"min\": {}, \"median\": {}, \"max\": {}}}",
        xs.len(),
        json_num(min(xs)),
        json_num(median(xs.to_vec())),
        json_num(xs.iter().copied().fold(f64::NEG_INFINITY, f64::max))
    )
}

fn check_jobs(jobs: &[Job], problems: &mut Vec<String>) {
    let reference = &jobs[0].digest;
    for (i, job) in jobs.iter().enumerate() {
        for p in &job.problems {
            problems.push(format!("job {i}: {p}"));
        }
        if &job.digest != reference {
            problems.push(format!(
                "job {i}: report digest {} differs from the reference {reference}",
                job.digest
            ));
        }
    }
}

fn untraced(args: &Args, threads: usize, dir: &Path) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let (mut setup, mut jobs) = (Vec::new(), Vec::<Job>::new());
    // A fresh set-up before every job spreads the set-up samples over the
    // whole run, like the job samples.
    while jobs.is_empty() || t0.elapsed() < budget {
        let t = Instant::now();
        let prep = prepare(args.workload, args.seed, dir)?;
        setup.push(t.elapsed().as_secs_f64());
        let job = run_job(&prep, threads, false);
        eprintln!(
            "perfbench {} job {}: {:.3} s, {} attempted",
            args.workload.name(),
            jobs.len(),
            job.wall_s,
            job.attempted
        );
        let stop = !job.problems.is_empty();
        jobs.push(job);
        if stop {
            break;
        }
    }
    let mut problems = Vec::new();
    check_jobs(&jobs, &mut problems);
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let verify_s = median(walls.clone());
    // verify_e4's job verifies one payment instance under every schedule.
    let payments = match args.workload {
        Workload::VerifyE4 => 1.0,
        _ => jobs[0].attempted as f64,
    };
    let values = [
        payments / verify_s,
        verify_s,
        median(setup.clone()),
        peak_rss_mb()?,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    let dispersion = format!(
        "{{\"job_s\": {}, \"setup_s\": {}}}",
        spread_json(&walls),
        spread_json(&setup)
    );
    Ok(Outcome {
        jobs,
        problems,
        metrics,
        dispersion,
    })
}

fn traced(args: &Args, threads: usize, dir: &Path) -> Result<Outcome, String> {
    let prep = prepare(args.workload, args.seed, dir)?;
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    // The reference at all cores; every later job runs at one worker.
    let mut jobs = vec![run_job(&prep, threads, false)];
    let (mut plain, mut timed) = (Vec::new(), Vec::new());
    while timed.is_empty() || t0.elapsed() < budget {
        let p = run_job(&prep, 1, false);
        let t = run_job(&prep, 1, true);
        eprintln!(
            "perfbench {} pair {}: untraced {:.3} s, traced {:.3} s",
            args.workload.name(),
            timed.len(),
            p.wall_s,
            t.wall_s
        );
        plain.push(p.wall_s);
        timed.push(t.layers.clone());
        let stop = !p.problems.is_empty() || !t.problems.is_empty();
        jobs.extend([p, t]);
        if stop {
            break;
        }
    }
    let mut problems = Vec::new();
    check_jobs(&jobs, &mut problems);
    let layer = |name: &str| median(timed.iter().map(|ls| layer_of(ls, name)).collect());
    let wall = layer("trace.wall_s");
    let dispersion = format!(
        "{{\"untraced_s\": {}, \"traced_s\": {}}}",
        spread_json(&plain),
        spread_json(
            &timed
                .iter()
                .map(|ls| layer_of(ls, "trace.wall_s"))
                .collect::<Vec<_>>()
        ),
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "trace.residual_ratio" => layer("trace.residual_s") / wall,
                "trace.overhead_ratio" => wall / median(plain.clone()),
                _ => layer(name),
            };
            (name, unit, v)
        })
        .collect();
    Ok(Outcome {
        jobs,
        problems,
        metrics,
        dispersion,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = PathBuf::from(".bench_run");
    let dir = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = if args.trace {
        traced(&args, nproc, &dir)
    } else {
        untraced(&args, nproc, &dir)
    };
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir(&root);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let reference = &out.jobs[0];
    let outcomes: Vec<String> = reference
        .outcomes
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \"cpu\": {}, \
         \"jobs\": {}, \"digest\": {}, \"outcomes\": {{{}}}, \"dispersion\": {}, \
         \"problems\": [{}]}}",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        json_str(&cpu_model()),
        out.jobs.len(),
        json_str(&reference.digest),
        outcomes.join(", "),
        out.dispersion,
        problems.join(", ")
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|&(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    let correct = out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.jobs.iter().map(|j| j.attempted).sum::<u64>(),
        out.jobs.iter().map(|j| j.failed).sum::<u64>(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        for p in &out.problems {
            eprintln!("perfbench: check failed: {p}");
        }
        ExitCode::FAILURE
    }
}

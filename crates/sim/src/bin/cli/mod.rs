//! The run surface shared by `exp9`, `exp10` and `exp11`: one flag
//! parser and one crash-safe campaign driver.
//!
//! Every binary takes the same core flags — `--quick`, `--threads N`,
//! `--seed S`, `--payments N`, `--json FILE`, `--telemetry FILE`,
//! `--telemetry-interval N` for its grid, and `--campaign N`,
//! `--epoch M`, `--resume CKPT`, `--stop-after-epoch K`,
//! `--max-rss-mb M` for campaign mode — and adds only its own extras
//! through the closure it hands to [`parse`]. A malformed command line
//! prints the usage and exits 2.

use sim::campaign::{
    peak_rss_mb, telemetry_sink, telemetry_sink_with_requires, CampaignConfig, CampaignRunner,
};
use sim::{ProtocolHarness, WorkloadConfig};
use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;
use std::time::Instant;
use telemetry::TelemetrySink;

/// The protocol harnesses the grids sweep, in table order.
pub const PROTOCOLS: [&str; 5] = ["timebounded", "htlc", "ilp-untuned", "ilp-atomic", "deals"];

/// Binds `$h` to the harness named by `$label` (one of [`PROTOCOLS`])
/// and evaluates `$body` with it; an unknown label exits 2. A macro,
/// because the harness types differ and the body is generic over them.
macro_rules! with_harness {
    ($label:expr, |$h:ident| $body:expr) => {
        match $label {
            "timebounded" => {
                let $h = sim::TimeBoundedHarness;
                $body
            }
            "htlc" => {
                let $h = sim::HtlcHarness;
                $body
            }
            "ilp-untuned" => {
                let $h = sim::InterledgerHarness::untuned();
                $body
            }
            "ilp-atomic" => {
                let $h = sim::InterledgerHarness::atomic();
                $body
            }
            "deals" => {
                let $h = sim::DealsHarness;
                $body
            }
            other => {
                eprintln!(
                    "unknown --protocol {other} (want {})",
                    $crate::cli::PROTOCOLS.join("|")
                );
                std::process::exit(2)
            }
        }
    };
}
pub(crate) use with_harness;

/// The shared flags. Binary-specific flags live in the binary.
#[derive(Debug)]
pub struct Args {
    /// The binary's name: the JSON `experiment` tag and usage prefix.
    pub bin: &'static str,
    /// Smaller default grid.
    pub quick: bool,
    /// Worker threads (0 ⇒ all cores).
    pub threads: usize,
    /// Base seed.
    pub seed: u64,
    /// Payments per grid cell (0 ⇒ the mode's default).
    pub payments: usize,
    /// JSON artifact path (empty ⇒ none).
    pub json: String,
    /// Total payments for campaign mode (0 ⇒ grid mode).
    pub campaign: u64,
    /// Payments per campaign epoch.
    pub epoch: usize,
    /// Checkpoint path (written after every epoch; resumed if present).
    pub resume: String,
    /// Exit cleanly once this epoch index completes (campaign mode).
    pub stop_after_epoch: Option<u64>,
    /// Fail the process if peak RSS exceeds this many MiB (campaign mode).
    pub max_rss_mb: Option<u64>,
    /// Telemetry JSONL path (empty ⇒ no telemetry).
    pub telemetry: String,
    /// Emit campaign epoch events every N epochs.
    pub telemetry_interval: u64,
}

/// The not-yet-consumed command line, handed to a binary's extra-flag
/// closure so it can take its flag's value.
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed as a number.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag} wants a number, got {v:?}"))
    }
}

/// Parses `argv` (without the program name). `extra` sees every flag
/// that is not shared and returns `Ok(false)` for one it does not know.
pub fn parse_from(
    bin: &'static str,
    seed: u64,
    argv: Vec<String>,
    mut extra: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
) -> Result<Args, String> {
    let mut args = Args {
        bin,
        quick: false,
        threads: 0,
        seed,
        payments: 0,
        json: String::new(),
        campaign: 0,
        epoch: 50_000,
        resume: String::new(),
        stop_after_epoch: None,
        max_rss_mb: None,
        telemetry: String::new(),
        telemetry_interval: 1,
    };
    let mut it = Flags(argv.into_iter());
    while let Some(flag) = it.0.next() {
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--threads" => args.threads = it.number(&flag)?,
            "--seed" => args.seed = it.number(&flag)?,
            "--payments" => args.payments = it.number(&flag)?,
            "--json" => args.json = it.value(&flag)?,
            "--campaign" => args.campaign = it.number(&flag)?,
            "--epoch" => args.epoch = it.number(&flag)?,
            "--resume" => args.resume = it.value(&flag)?,
            "--stop-after-epoch" => args.stop_after_epoch = Some(it.number(&flag)?),
            "--max-rss-mb" => args.max_rss_mb = Some(it.number(&flag)?),
            "--telemetry" => args.telemetry = it.value(&flag)?,
            "--telemetry-interval" => args.telemetry_interval = it.number(&flag)?,
            other => {
                if !extra(other, &mut it)? {
                    return Err(format!("unknown argument: {other}"));
                }
            }
        }
    }
    Ok(args)
}

/// [`parse_from`] over the process arguments; on an error prints it
/// with the usage (`extra_usage` lists the binary's own flags) and
/// exits 2.
pub fn parse(
    bin: &'static str,
    seed: u64,
    extra_usage: &str,
    extra: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
) -> Args {
    parse_from(bin, seed, std::env::args().skip(1).collect(), extra).unwrap_or_else(|e| {
        eprintln!(
            "{bin}: {e}\n\
             usage: {bin} [--quick] [--threads N] [--seed S] [--payments N] [--json FILE]\n\
             \x20      [--telemetry FILE] [--telemetry-interval N]\n\
             campaign mode: {bin} --campaign N [--epoch M] [--resume CKPT]\n\
             \x20              [--stop-after-epoch K] [--max-rss-mb M] [--json FILE]\n\
             {extra_usage}"
        );
        std::process::exit(2);
    })
}

impl Args {
    /// Payments per grid cell: `--payments`, else the mode's default.
    pub fn per_cell(&self, quick: usize, full: usize) -> usize {
        match self.payments {
            0 if self.quick => quick,
            0 => full,
            n => n,
        }
    }

    /// The campaign of `--campaign` payments over `workload` in
    /// `--epoch`-sized epochs on `--threads` workers.
    pub fn campaign_config(&self, workload: WorkloadConfig) -> CampaignConfig {
        CampaignConfig {
            threads: self.threads,
            ..CampaignConfig::new(workload, self.campaign, self.epoch)
        }
    }

    /// Opens the `--telemetry` sink; a non-empty `requires` lands in the
    /// stream header (see [`telemetry_sink_with_requires`]). Exits 1 if
    /// the file cannot be created.
    pub fn sink(&self, requires: &str) -> Box<dyn TelemetrySink> {
        let sink = if requires.is_empty() {
            telemetry_sink(&self.telemetry)
        } else {
            telemetry_sink_with_requires(&self.telemetry, requires)
        };
        sink.unwrap_or_else(|e| fail(format!("cannot open --telemetry {}: {e}", self.telemetry)))
    }

    /// The grid artifact: a header keyed by binary, seed and cell size
    /// (plus `header` fields), then one JSON object per cell.
    pub fn grid_json(
        &self,
        per_cell: usize,
        header: &[(&str, String)],
        cells: &[String],
    ) -> String {
        let config_digest = experiments::digest::hex16(experiments::digest::fnv1a64(
            format!("{} seed={} per_cell={per_cell}", self.bin, self.seed).as_bytes(),
        ));
        let mut json = format!(
            "{{\n  \"schema_version\": 1,\n  \"experiment\": \"{}\",\n  \
             \"config_digest\": \"{config_digest}\",\n  \"quick\": {},\n  \"seed\": {},\n  \
             \"payments_per_cell\": {per_cell},\n",
            self.bin, self.quick, self.seed
        );
        for (k, v) in header {
            json.push_str(&format!("  \"{k}\": {v},\n"));
        }
        json.push_str("  \"cells\": [\n");
        for (i, c) in cells.iter().enumerate() {
            let sep = if i + 1 < cells.len() { "," } else { "" };
            json.push_str(&format!("    {c}{sep}\n"));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Flushes the grid's telemetry, then prints the table and the
    /// closing `instances:` line (`note` is appended to it).
    pub fn finish_grid(
        &self,
        mut sink: Box<dyn TelemetrySink>,
        table: &str,
        instances: usize,
        started: Instant,
        note: &str,
    ) {
        if let Err(e) = sink.flush() {
            eprintln!("telemetry flush failed: {e}");
        }
        println!("{table}");
        println!(
            "instances: {instances} in {:.2} s ({} threads requested, {} cores){note}",
            started.elapsed().as_secs_f64(),
            self.threads,
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        );
    }
}

/// Prints `msg` and exits 1.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Writes `json` to `path` (parent directories created) and prints the
/// path. Exits 1 if it cannot.
pub fn write_json(path: &str, json: &str) {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
        }
    }
    std::fs::write(path, json).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
    println!("{path}");
}

/// Campaign mode: streams `cfg` through `harness` with checkpoint/resume
/// (`--resume`), telemetry and progress lines, prints the report and its
/// throughput, writes the `--json` report (with `peak_rss_mb` and
/// `phase_ms`), and exits 1 unless every gate holds: no failed instance,
/// money conserved when `conservation` is set, the collateral audit for
/// open-system campaigns, and `--max-rss-mb`.
pub fn run_campaign<H: ProtocolHarness>(
    args: &Args,
    harness: H,
    cfg: CampaignConfig,
    requires: &str,
    conservation: bool,
) {
    let mut runner = CampaignRunner::resume_or_new(harness, cfg, Path::new(&args.resume))
        .unwrap_or_else(|e| fail(format!("cannot resume campaign: {e}")));
    if runner.next_epoch() > 0 {
        eprintln!(
            "resumed from checkpoint at epoch {}/{}",
            runner.next_epoch(),
            cfg.epochs()
        );
    }
    let t0 = Instant::now();
    let (simulated, last_rss) = drive(&mut runner, args, args.sink(requires).as_mut())
        .unwrap_or_else(|e| fail(format!("checkpoint write failed: {e}")));
    let wall = t0.elapsed().as_secs_f64();
    let report = runner.report();
    print!("{}", report.render());
    let rss = last_rss.or_else(peak_rss_mb);
    println!(
        "wall: {wall:.2} s ({:.0} pay/s)  peak RSS: {}",
        simulated as f64 / wall.max(1e-9),
        rss.map(|m| format!("{m} MiB"))
            .unwrap_or_else(|| "n/a".to_owned())
    );
    if !args.json.is_empty() {
        let extra = [
            (
                "peak_rss_mb",
                rss.map(|m| m.to_string())
                    .unwrap_or_else(|| "null".to_owned()),
            ),
            ("phase_ms", runner.profile().to_json_object()),
        ];
        write_json(&args.json, &report.to_json(args.bin, &extra));
    }
    let t = &report.tally;
    let mut ok = t.failed == 0;
    if conservation {
        ok &= t.violations == 0;
        println!(
            "money conserved in every instance: {}",
            experiments::table::check(t.violations == 0)
        );
    }
    if let Some(audit) = &t.liquidity {
        let audit_ok = audit.budget_violations == 0 && audit.drained_all;
        ok &= audit_ok;
        println!(
            "collateral conserved across all epochs (locked <= budget, venues drain): {}",
            experiments::table::check(audit_ok)
        );
    }
    if let (Some(limit), Some(peak)) = (args.max_rss_mb, rss) {
        ok &= peak <= limit;
        println!(
            "RSS gate: peak {peak} MiB {} limit {limit} MiB",
            if peak <= limit { "within" } else { "EXCEEDS" }
        );
    }
    if !ok {
        std::process::exit(1);
    }
}

/// Runs `runner` to its end (or `--stop-after-epoch`), checkpointing to
/// `--resume` and logging progress to stderr. Returns the payments this
/// process simulated — a tally restored from a checkpoint is not
/// counted — and the last peak-RSS sample.
fn drive<H: ProtocolHarness>(
    runner: &mut CampaignRunner<H>,
    args: &Args,
    sink: &mut dyn TelemetrySink,
) -> std::io::Result<(u64, Option<u64>)> {
    let restored = runner.tally().instances;
    let ckpt = (!args.resume.is_empty()).then(|| Path::new(&args.resume));
    let mut last_rss = None;
    runner.run_to_end_with_telemetry(
        ckpt,
        args.stop_after_epoch,
        sink,
        args.telemetry_interval,
        |e| {
            last_rss = e.peak_rss_mb;
            eprintln!("{}", e.progress_line());
        },
    )?;
    Ok((runner.tally().instances - restored, last_rss))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::{TimeBoundedHarness, TopologyFamily};

    /// Parses `argv` with one binary-specific flag, `--budget`.
    fn parse_test(argv: &[&str]) -> Result<(Args, u64), String> {
        let mut budget = 0u64;
        let args = parse_from(
            "exptest",
            7,
            argv.iter().map(|s| s.to_string()).collect(),
            |flag, v| {
                match flag {
                    "--budget" => budget = v.number(flag)?,
                    _ => return Ok(false),
                }
                Ok(true)
            },
        )?;
        Ok((args, budget))
    }

    #[test]
    fn shared_and_extra_flags_parse() {
        let (args, budget) = parse_test(&[
            "--quick",
            "--threads",
            "3",
            "--budget",
            "9",
            "--stop-after-epoch",
            "2",
        ])
        .unwrap();
        assert_eq!(budget, 9);
        assert!(args.quick);
        assert_eq!((args.threads, args.seed), (3, 7));
        assert_eq!(args.stop_after_epoch, Some(2));
        assert_eq!(args.per_cell(120, 1_000), 120);
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = parse_test(&["--quick", "--checkpoint", "x.ckpt"]).unwrap_err();
        assert_eq!(e, "unknown argument: --checkpoint");
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(parse_test(&["--seed"]).unwrap_err(), "--seed needs a value");
        assert_eq!(
            parse_test(&["--budget"]).unwrap_err(),
            "--budget needs a value"
        );
    }

    #[test]
    fn bad_number_is_an_error() {
        assert_eq!(
            parse_test(&["--threads", "x"]).unwrap_err(),
            "--threads wants a number, got \"x\""
        );
        assert_eq!(
            parse_test(&["--max-rss-mb", "-1"]).unwrap_err(),
            "--max-rss-mb wants a number, got \"-1\""
        );
    }

    /// A resumed campaign's throughput counts only the payments this
    /// process simulated, not the tally restored from the checkpoint.
    #[test]
    fn resumed_campaign_counts_only_payments_since_resume() {
        let ckpt = std::env::temp_dir().join(format!("cli-resume-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&ckpt);
        let (mut args, _) = parse_test(&["--campaign", "40", "--epoch", "10"]).unwrap();
        args.resume = ckpt.display().to_string();
        args.stop_after_epoch = Some(0);
        let cfg = args.campaign_config(WorkloadConfig::new(TopologyFamily::Linear { n: 2 }, 0, 5));
        let mut sink = telemetry::NullSink;

        let mut first = CampaignRunner::new(TimeBoundedHarness, cfg);
        assert_eq!(drive(&mut first, &args, &mut sink).unwrap().0, 10);

        args.stop_after_epoch = None;
        let mut resumed = CampaignRunner::resume_or_new(TimeBoundedHarness, cfg, &ckpt).unwrap();
        assert_eq!(
            resumed.tally().instances,
            10,
            "restored from the checkpoint"
        );
        let (simulated, _) = drive(&mut resumed, &args, &mut sink).unwrap();
        assert_eq!(simulated, 30);
        assert_eq!(resumed.tally().instances, 40);
        let _ = std::fs::remove_file(&ckpt);
    }
}

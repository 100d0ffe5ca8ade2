//! The repository benchmark: three long workloads, each timed end to end
//! with tracing off, plus a separate traced pass that splits the wall time
//! across the layers by timing calls into each layer's public API from
//! this crate (see `README.md` for why each workload exists and which
//! end-to-end metric each layer metric should move).
//!
//! A *job* is one complete unit of work of a workload: one campaign, one
//! routed open-system run, or one exhaustive verification. Every job's
//! output is checked; a failed check fails the run.

pub mod layers;

use anta::time::SimDuration;
use experiments::digest::{fnv1a64, hex16};
use layers::{HarnessClock, TimedHarness, TimedSink};
use sim::campaign::{CampaignConfig, CampaignRunner};
use sim::{
    ArrivalProcess, FaultPlan, LiquidityBook, LiquidityConfig, OpenReport, PaymentSpec,
    ProtocolHarness, Router, RoutingConfig, SimConfig, TimeBoundedHarness, TopologyFamily,
    VenueGraph, WorkloadConfig,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;
use telemetry::{JsonlSink, NullSink, TelemetrySink};

/// Payments per `hub_campaign` job.
const HUB_PAYMENTS: u64 = 20_000;
/// Payments per campaign epoch; a checkpoint follows every epoch.
const HUB_EPOCH: usize = 5_000;
/// Venue graphs per `routed_1k` job. Routing cost depends on the graph
/// a seed draws, so one job spans several graphs.
const ROUTED_GRAPHS: u64 = 4;
/// Payments per graph of a `routed_1k` job.
const ROUTED_PAYMENTS: usize = 1_000;
/// Escrows of the E4 instance `verify_e4` exhausts.
const E4_N: usize = 3;
/// σ quantisation buckets of the E4 instance.
const E4_SIGMA: usize = 1;
/// Run budget far above what the reduced explorer needs, so a job that
/// stops short of exhaustion is a failure, not a budget artefact.
const E4_MAX_RUNS: usize = 100_000_000;
/// Arrivals per burst of the open loop (simulated time).
const BURST: usize = 32;
/// Gap between bursts, in simulated milliseconds.
const BURST_GAP_MS: u64 = 20;

/// The end-to-end metrics a run with tracing off reports.
pub const END_TO_END: [(&str, &str); 4] = [
    ("payments_per_s", "1/s"),
    ("verify_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run reports, on every workload; a layer
/// a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("harness.instances", "count"),
    ("harness.instance_s", "s"),
    ("harness.build_s", "s"),
    ("harness.classify_s", "s"),
    ("engine.run_s", "s"),
    ("engine.msgs_sent", "count"),
    ("engine.msgs_delivered", "count"),
    ("des.self_s", "s"),
    ("des.offered", "count"),
    ("des.admitted", "count"),
    ("des.rejected", "count"),
    ("des.queued", "count"),
    ("des.shards", "count"),
    ("router.pathfind_calls", "count"),
    ("router.rerouted", "count"),
    ("router.split", "count"),
    ("router.no_path", "count"),
    ("router.rebalances", "count"),
    ("router.pathfind_per_routed", "ratio"),
    ("router.route_us", "us"),
    ("campaign.epochs", "count"),
    ("campaign.step_s", "s"),
    ("campaign.self_s", "s"),
    ("campaign.checkpoint_s", "s"),
    ("campaign.checkpoint_bytes", "bytes"),
    ("telemetry.events", "count"),
    ("telemetry.emit_s", "s"),
    ("telemetry.bytes", "bytes"),
    ("explore.runs", "count"),
    ("explore.dedup_hits", "count"),
    ("explore.dead_branch_prunes", "count"),
    ("explore.resplits", "count"),
    ("explore.cut_ratio", "ratio"),
    ("explore.self_s", "s"),
    ("workload.generate_s", "s"),
    ("workload.specs", "count"),
    ("trace.wall_s", "s"),
    ("trace.residual_s", "s"),
    ("trace.residual_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The fault mix of every simulated workload: Byzantine participants plus
/// message drop and delay at the network layer.
pub const FAULTS: FaultPlan = FaultPlan {
    crash_permille: 0,
    late_bob_permille: 25,
    forging_chloe_permille: 25,
    thieving_escrow_permille: 25,
    net: anta::net::NetFaults {
        drop_permille: 10,
        delay_permille: 100,
        extra_delay: SimDuration::from_millis(2),
        delay_buckets: 4,
    },
};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-system time-bounded campaign over a 16-spoke hub.
    HubCampaign,
    /// Liquidity-aware routed admission over a 1024-venue scale-free graph.
    Routed1k,
    /// Reduced exhaustive exploration of E4 n = 4, σ = 1.
    VerifyE4,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HubCampaign,
        Workload::Routed1k,
        Workload::VerifyE4,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HubCampaign => "hub_campaign",
            Workload::Routed1k => "routed_1k",
            Workload::VerifyE4 => "verify_e4",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

fn bursty(family: TopologyFamily, payments: usize, seed: u64) -> WorkloadConfig {
    let mut wl = WorkloadConfig::new(family, payments, seed);
    wl.arrivals = ArrivalProcess::Bursty {
        burst: BURST,
        gap: SimDuration::from_millis(BURST_GAP_MS),
    };
    wl
}

/// The `hub_campaign` configuration for `seed`.
pub fn hub_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        faults: FAULTS,
        liquidity: Some(LiquidityConfig::queue(30_000, SimDuration::from_millis(25))),
        ..CampaignConfig::new(
            bursty(TopologyFamily::HubAndSpoke { spokes: 16 }, 0, seed),
            HUB_PAYMENTS,
            HUB_EPOCH,
        )
    }
}

/// The `routed_1k` workload on graph `graph` of the job for `seed`.
pub fn routed_workload(seed: u64, graph: u64) -> WorkloadConfig {
    let mut wl = bursty(
        TopologyFamily::ScaleFree {
            venues: 1_024,
            attach: 2,
        },
        ROUTED_PAYMENTS,
        seed.wrapping_add(graph.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    );
    wl.amount = (100, 2_000);
    wl.max_commission = 0;
    wl
}

/// Collateral per venue and gate patience of `routed_1k`.
pub fn routed_liquidity() -> LiquidityConfig {
    LiquidityConfig::queue(2_500, SimDuration::from_millis(25))
}

/// Routing knobs of `routed_1k`: rebalance every 10 ms.
pub fn routed_routing() -> RoutingConfig {
    RoutingConfig::with_rebalance(SimDuration::from_millis(10))
}

/// Checks that `specs` follow the open loop: bursts of [`BURST`] arrivals
/// every [`BURST_GAP_MS`] of simulated time from the first arrival.
pub fn check_arrivals(specs: &[PaymentSpec]) -> Result<(), String> {
    let first = specs.first().ok_or("no specs generated")?.arrival.ticks();
    let gap = SimDuration::from_millis(BURST_GAP_MS).ticks();
    for (i, s) in specs.iter().enumerate() {
        let due = first + (i / BURST) as u64 * gap;
        if s.arrival.ticks() != due {
            return Err(format!(
                "spec {i} arrives at tick {}, the open loop has it due at {due}",
                s.arrival.ticks()
            ));
        }
    }
    Ok(())
}

enum Inputs {
    Hub(Box<CampaignConfig>),
    Routed(Vec<(WorkloadConfig, Vec<PaymentSpec>)>),
    E4,
}

/// Everything a job needs, built before the timed region.
pub struct Prepared {
    inputs: Inputs,
    dir: PathBuf,
    /// Seconds in `workload::generate` while preparing.
    generate_s: f64,
    /// Specs generated while preparing.
    specs: usize,
}

/// Builds the inputs of `workload` from `seed`, checking them, with
/// scratch files under `dir`.
///
/// `hub_campaign` generates and checks every epoch's specs (the campaign
/// regenerates them per epoch from the same seeds); `routed_1k` generates
/// the specs it hands the simulator; `verify_e4` has no inputs to build,
/// so its set-up is a warm-up exhaustion of the n = 2 instance.
pub fn prepare(workload: Workload, seed: u64, dir: &Path) -> Result<Prepared, String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut generate_s = 0.0;
    let mut specs = 0;
    let mut generate = |wl: &WorkloadConfig| -> Result<Vec<PaymentSpec>, String> {
        let t0 = Instant::now();
        let out = sim::workload::generate(wl);
        generate_s += t0.elapsed().as_secs_f64();
        check_arrivals(&out)?;
        specs += out.len();
        Ok(out)
    };
    let inputs = match workload {
        Workload::HubCampaign => {
            let cfg = hub_config(seed);
            for e in 0..cfg.epochs() {
                generate(&cfg.epoch_workload(e))?;
            }
            Inputs::Hub(Box::new(cfg))
        }
        Workload::Routed1k => {
            let mut runs = Vec::new();
            for graph in 0..ROUTED_GRAPHS {
                let wl = routed_workload(seed, graph);
                let out = generate(&wl)?;
                if out.iter().any(|s| s.endpoints.is_none()) {
                    return Err("routed spec without endpoints".into());
                }
                runs.push((wl, out));
            }
            Inputs::Routed(runs)
        }
        Workload::VerifyE4 => {
            let r = experiments::e4::explore_instance_dpor(2, 1, E4_MAX_RUNS, E4_SIGMA);
            if !r.exhausted || !r.violations.is_empty() {
                return Err(format!(
                    "warm-up E4 n=2: exhausted={} violations={}",
                    r.exhausted,
                    r.violations.len()
                ));
            }
            Inputs::E4
        }
    };
    Ok(Prepared {
        inputs,
        dir: dir.to_path_buf(),
        generate_s,
        specs,
    })
}

/// The result of one job.
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Host seconds of the timed call.
    pub wall_s: f64,
    /// Payments offered, or schedules attempted by the explorer.
    pub attempted: u64,
    /// Payments that panicked or broke a safety property, or explorer
    /// violations plus a missing exhaustion verdict.
    pub failed: u64,
    /// Digest of the model's report: equal for equal inputs at any thread
    /// count, with or without tracing.
    pub digest: String,
    /// Simulated outcomes, for showing that a speed-up left them alone.
    pub outcomes: Vec<(&'static str, u64)>,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced jobs only).
    pub layers: Vec<(&'static str, f64)>,
}

impl Job {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.problems.push(what.to_owned());
        }
    }
}

/// Runs one job of `prep` at `threads` workers, through the timing
/// wrappers when `traced`.
pub fn run_job(prep: &Prepared, threads: usize, traced: bool) -> Job {
    match &prep.inputs {
        Inputs::Hub(cfg) => hub_job(cfg, &prep.dir, threads, traced),
        Inputs::Routed(runs) => routed_job(prep, runs, threads, traced),
        Inputs::E4 => e4_job(threads, traced),
    }
}

/// What one campaign call returned, with the program's own phase timers.
struct CampaignRun {
    wall_s: f64,
    /// Sum of the per-epoch `step` walls the campaign reports.
    step_s: f64,
    report: sim::CampaignReport,
    generate_s: f64,
    simulate_s: f64,
    checkpoint_s: f64,
}

fn run_campaign<H: ProtocolHarness>(
    harness: H,
    cfg: CampaignConfig,
    ckpt: &Path,
    sink: &mut dyn TelemetrySink,
) -> Result<CampaignRun, String> {
    let mut runner = CampaignRunner::new(harness, cfg);
    let mut step_s = 0.0;
    let t0 = Instant::now();
    runner
        .run_to_end_with_telemetry(Some(ckpt), None, sink, 1, |e| step_s += e.epoch_wall_s)
        .map_err(|e| format!("campaign checkpoint or telemetry I/O: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    let phase = |name: &str| runner.profile().total(name).as_secs_f64();
    Ok(CampaignRun {
        wall_s,
        step_s,
        generate_s: phase("generation"),
        simulate_s: phase("simulation"),
        checkpoint_s: phase("checkpoint"),
        report: runner.report(),
    })
}

fn file_len(path: &Path) -> f64 {
    fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn hub_job(cfg: &CampaignConfig, dir: &Path, threads: usize, traced: bool) -> Job {
    let cfg = CampaignConfig { threads, ..*cfg };
    let ckpt = dir.join("hub.ckpt");
    let jsonl = dir.join("hub.jsonl");
    let _ = fs::remove_file(&ckpt);
    let mut job = Job::default();
    let mut sink = match JsonlSink::create(&jsonl) {
        Ok(s) => s,
        Err(e) => {
            job.problems
                .push(format!("creating {}: {e}", jsonl.display()));
            return job;
        }
    };
    let clock = HarnessClock::default();
    let (run, events, emit_s) = if traced {
        let mut timed = TimedSink::new(&mut sink);
        let harness = TimedHarness::new(TimeBoundedHarness, &clock);
        let run = run_campaign(harness, cfg, &ckpt, &mut timed);
        (run, timed.events, timed.busy.as_secs_f64())
    } else {
        (
            run_campaign(TimeBoundedHarness, cfg, &ckpt, &mut sink),
            0,
            0.0,
        )
    };
    job.check(sink.io_errors() == 0, "telemetry writes failed");
    drop(sink);
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            job.problems.push(e);
            return job;
        }
    };
    let t = &run.report.tally;
    let Some(l) = t.liquidity.as_ref() else {
        job.problems
            .push("open campaign without a liquidity tally".into());
        return job;
    };
    job.wall_s = run.wall_s;
    job.attempted = l.offered;
    job.failed = t.failed + t.violations + t.griefed + l.budget_violations;
    job.digest = run.report.digest.clone();
    job.outcomes = vec![
        ("instances", t.instances),
        ("success", t.success),
        ("refunds", t.refunds),
        ("stuck", t.stuck),
        ("rejected", t.rejected),
        ("byzantine", t.byzantine),
        ("admitted", l.admitted),
        ("queued", l.queued),
        ("peak_locked_venue", l.peak_locked_venue),
    ];
    job.check(
        run.report.epochs_run == cfg.epochs(),
        "campaign stopped early",
    );
    job.check(l.offered == HUB_PAYMENTS, "offered != campaign payments");
    job.check(
        t.instances == HUB_PAYMENTS,
        "instances != campaign payments",
    );
    job.check(t.failed == 0, "payments panicked (Failed)");
    job.check(t.violations == 0, "conservation violations");
    job.check(t.griefed == 0, "griefed payments");
    job.check(l.budget_violations == 0, "collateral audit failures");
    job.check(l.drained_all, "books not drained");
    job.check(
        l.admitted + l.rejected == l.offered,
        "admitted + rejected != offered",
    );
    if traced {
        let h = clock.times();
        let des_self = run.simulate_s - h.harness_s() - h.engine_s;
        let campaign_self = run.step_s - run.generate_s - run.simulate_s;
        let residual = run.wall_s - run.step_s - run.checkpoint_s - emit_s;
        job.layers = vec![
            ("harness.instances", h.instances as f64),
            ("harness.instance_s", h.instance_s),
            ("harness.build_s", h.build_s),
            ("harness.classify_s", h.classify_s),
            ("engine.run_s", h.engine_s),
            ("engine.msgs_sent", h.msgs_sent as f64),
            ("engine.msgs_delivered", h.msgs_delivered as f64),
            ("des.self_s", des_self),
            ("des.offered", l.offered as f64),
            ("des.admitted", l.admitted as f64),
            ("des.rejected", l.rejected as f64),
            ("des.queued", l.queued as f64),
            ("des.shards", hub_shards(&cfg) as f64),
            ("campaign.epochs", run.report.epochs_run as f64),
            ("campaign.step_s", run.step_s),
            ("campaign.self_s", campaign_self),
            ("campaign.checkpoint_s", run.checkpoint_s),
            ("campaign.checkpoint_bytes", file_len(&ckpt)),
            ("telemetry.events", events as f64),
            ("telemetry.emit_s", emit_s),
            ("telemetry.bytes", file_len(&jsonl)),
            ("workload.generate_s", run.generate_s),
            ("workload.specs", t.instances as f64),
            ("trace.wall_s", run.wall_s),
            ("trace.residual_s", residual),
        ];
    }
    job
}

/// Liquidity shards of the hub's first epoch. The campaign tally does not
/// carry the shard count, so one epoch runs through the plain open-system
/// entry point, outside any timed region.
fn hub_shards(cfg: &CampaignConfig) -> usize {
    let wl = cfg.epoch_workload(0);
    let specs = sim::workload::generate(&wl);
    let sim_cfg = SimConfig {
        faults: cfg.faults,
        threads: cfg.threads,
        ..SimConfig::new(wl)
    };
    let liq = cfg.liquidity.expect("hub campaign is open-system");
    sim::run_open_specs_with(&TimeBoundedHarness, &specs, &sim_cfg, &liq)
        .liquidity
        .shards
}

fn routed_job(
    prep: &Prepared,
    runs: &[(WorkloadConfig, Vec<PaymentSpec>)],
    threads: usize,
    traced: bool,
) -> Job {
    let (liq, routing) = (routed_liquidity(), routed_routing());
    let clock = HarnessClock::default();
    let mut reports = Vec::with_capacity(runs.len());
    let t0 = Instant::now();
    for (wl, specs) in runs {
        let cfg = SimConfig {
            faults: FAULTS,
            threads,
            ..SimConfig::new(*wl)
        };
        reports.push(if traced {
            let harness = TimedHarness::new(TimeBoundedHarness, &clock);
            sim::run_open_specs_routed_with(&harness, specs, &cfg, &liq, &routing)
        } else {
            sim::run_open_specs_routed_with(&TimeBoundedHarness, specs, &cfg, &liq, &routing)
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut job = open_job(&reports, runs);
    job.wall_s = wall_s;
    if traced {
        let h = clock.times();
        let sum = |f: &dyn Fn(&OpenReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        let routed = |r: &OpenReport| r.routing.unwrap_or_default();
        let pathfind_calls = sum(&|r| routed(r).pathfind_calls);
        job.layers = vec![
            ("harness.instances", h.instances as f64),
            ("harness.instance_s", h.instance_s),
            ("harness.build_s", h.build_s),
            ("harness.classify_s", h.classify_s),
            ("engine.run_s", h.engine_s),
            ("engine.msgs_sent", h.msgs_sent as f64),
            ("engine.msgs_delivered", h.msgs_delivered as f64),
            ("des.self_s", wall_s - h.harness_s() - h.engine_s),
            ("des.offered", sum(&|r| r.liquidity.offered as u64)),
            ("des.admitted", sum(&|r| r.liquidity.admitted as u64)),
            ("des.rejected", sum(&|r| r.liquidity.rejected as u64)),
            ("des.queued", sum(&|r| r.liquidity.queued as u64)),
            (
                "des.shards",
                reports
                    .iter()
                    .map(|r| r.liquidity.shards)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            ("router.pathfind_calls", pathfind_calls),
            ("router.rerouted", sum(&|r| routed(r).rerouted)),
            ("router.split", sum(&|r| routed(r).split)),
            ("router.no_path", sum(&|r| routed(r).no_path)),
            ("router.rebalances", sum(&|r| routed(r).rebalances)),
            (
                "router.pathfind_per_routed",
                ratio(pathfind_calls, sum(&|r| routed(r).routed)),
            ),
            ("router.route_us", route_replay_us(runs)),
            ("workload.generate_s", prep.generate_s),
            ("workload.specs", prep.specs as f64),
            ("trace.wall_s", wall_s),
        ];
    }
    job
}

/// Mean host microseconds of one `Router::route` call, replaying each
/// run's own endpoint pairs and amounts over its graph against a fresh
/// book at the workload's budget.
fn route_replay_us(runs: &[(WorkloadConfig, Vec<PaymentSpec>)]) -> f64 {
    let max_hops = routed_routing().max_hops;
    let mut router = Router::new();
    let (mut calls, mut found, mut busy) = (0u64, 0u64, 0.0);
    for (wl, specs) in runs {
        let family = wl
            .family
            .graph()
            .expect("routed workload has a venue graph");
        let g = VenueGraph::generate(family, wl.seed);
        let book = LiquidityBook::new(&routed_liquidity(), g.venues());
        let t0 = Instant::now();
        for s in specs {
            let (src, dst) = s.endpoints.expect("routed specs carry endpoints");
            let amount = s.plan.amounts.last().map_or(0, |a| a.amount);
            let route = router.route(&g, src, dst, amount, max_hops, &book);
            found += u64::from(std::hint::black_box(route).is_some());
        }
        busy += t0.elapsed().as_secs_f64();
        calls += specs.len() as u64;
    }
    assert!(found > 0, "the router found no route for any spec");
    busy * 1e6 / calls as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Checks the routed open-system reports of one job, one per run.
fn open_job(reports: &[OpenReport], runs: &[(WorkloadConfig, Vec<PaymentSpec>)]) -> Job {
    let mut job = Job::default();
    let mut text = String::new();
    let mut outcomes = [0u64; 9];
    for (report, (_, specs)) in reports.iter().zip(runs) {
        let s = &report.sim;
        let l = &report.liquidity;
        let r = report.routing.unwrap_or_default();
        text.push_str(&format!("{report:?}\n"));
        job.attempted += l.offered as u64;
        job.failed += (s.failed + s.violations + s.griefed + l.budget_violations) as u64;
        let success: usize = s.families.iter().map(|f| f.success.hits).sum();
        let row = [
            s.instances as u64,
            success as u64,
            s.rejected as u64,
            l.admitted as u64,
            l.queued as u64,
            r.routed,
            r.split,
            r.rebalances,
            l.goodput_value,
        ];
        for (total, v) in outcomes.iter_mut().zip(row) {
            *total += v;
        }
        job.check(l.offered == specs.len(), "offered != specs");
        job.check(s.failed == 0, "payments panicked (Failed)");
        job.check(s.violations == 0, "conservation violations");
        job.check(s.griefed == 0, "griefed payments");
        job.check(l.budget_violations == 0, "collateral audit failures");
        job.check(l.drained, "books not drained");
        job.check(
            l.admitted + l.rejected == l.offered,
            "admitted + rejected != offered",
        );
        job.check(report.routing.is_some(), "routed run without routing stats");
    }
    job.digest = hex16(fnv1a64(text.as_bytes()));
    let names = [
        "instances",
        "success",
        "rejected",
        "admitted",
        "queued",
        "routed",
        "split",
        "rebalances",
        "goodput_value",
    ];
    job.outcomes = names.into_iter().zip(outcomes).collect();
    job
}

fn e4_job(threads: usize, traced: bool) -> Job {
    let mut null = NullSink;
    let mut sink = TimedSink::new(&mut null);
    let t0 = Instant::now();
    let r = if traced {
        experiments::e4::explore_instance_dpor_with(E4_N, threads, E4_MAX_RUNS, E4_SIGMA, &mut sink)
    } else {
        experiments::e4::explore_instance_dpor(E4_N, threads, E4_MAX_RUNS, E4_SIGMA)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let verdict = format!(
        "exhausted={} violations={:?}",
        r.exhausted,
        r.distinct_violation_messages()
    );
    let mut job = Job {
        wall_s,
        attempted: (r.runs + r.dedup_hits) as u64,
        failed: r.violations.len() as u64 + u64::from(!r.exhausted),
        digest: hex16(fnv1a64(verdict.as_bytes())),
        outcomes: vec![
            ("exhausted", u64::from(r.exhausted)),
            ("violations", r.violations.len() as u64),
            ("runs", r.runs as u64),
            ("dedup_hits", r.dedup_hits as u64),
        ],
        ..Job::default()
    };
    job.check(r.exhausted, "E4 exploration not exhausted");
    job.check(r.violations.is_empty(), "E4 exploration found violations");
    if traced {
        let emit_s = sink.busy.as_secs_f64();
        job.layers = vec![
            ("telemetry.events", sink.events as f64),
            ("telemetry.emit_s", emit_s),
            ("explore.runs", r.runs as f64),
            ("explore.dedup_hits", r.dedup_hits as f64),
            ("explore.dead_branch_prunes", r.dead_branch_prunes as f64),
            ("explore.resplits", r.resplits as f64),
            ("explore.cut_ratio", r.prune_rate()),
            ("explore.self_s", wall_s - emit_s),
            ("trace.wall_s", wall_s),
        ];
    }
    job
}

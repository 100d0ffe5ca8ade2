//! `bench` — machine-readable performance measurements.
//!
//! Complements the criterion benches with a fast, scriptable runner that
//! emits `BENCH_perf.json` and `BENCH_sim.json` per invocation, so CI can
//! track a perf trajectory per PR without full criterion runs. Three
//! workload families:
//!
//! * **explorer** — exhaustive schedule exploration of E4 instances at
//!   several worker-thread counts (wall time, schedules/sec); the reports
//!   are bit-identical across thread counts, only the wall time moves;
//! * **engine** — the `engine_10k_messages` ping-pong throughput in both
//!   trace modes (wall time, events/sec), isolating the cost of cloning
//!   payloads into the trace;
//! * **sim** — the Monte-Carlo traffic simulator (`xchain-sim`) driving a
//!   hub-and-spoke workload at 1/2/4(/8) worker threads (wall time,
//!   payments/sec), written to its own `BENCH_sim.json`;
//! * **campaign** — the streaming checkpoint/resume campaign runner
//!   (`sim::campaign`) over the hub workload at 1/4 worker threads
//!   (payments/sec, written into `BENCH_sim.json`'s `campaign` array),
//!   asserting the campaign report digest is thread-count-invariant;
//!   epoch folding should cost ~nothing over the plain runner;
//! * **protocols** — the same linear workload through every protocol
//!   harness at 1/2/4 worker threads (payments/sec per protocol), written
//!   to `BENCH_protocols.json` so CI tracks the cross-protocol
//!   throughput trajectory alongside the other artifacts;
//! * **open_system** — the sharded discrete-event open-system engine over
//!   a single-shard hub and a 4-shard packetized workload at 1/2/4
//!   worker threads (payments/sec plus `scaling_t4_over_t1` ratio rows),
//!   written to `BENCH_open.json`; the ratio rows feed the regression
//!   gate so a return to flat thread scaling fails CI;
//! * **routing** — routed vs static open-system admission over a
//!   1k-venue scale-free network at 1/2/4 worker threads (payments/sec
//!   per mode — the cost of admission-time pathfinding over the live
//!   book), plus the raw pathfinder rate (`routing/pathfind_per_sec`),
//!   written to `BENCH_routing.json`; routed reports are asserted
//!   identical across thread counts while measuring.
//!
//! Usage: `cargo run --release -p xchain-bench --bin bench -- [--quick]
//! [--out DIR] [--threads 1,2,4] [--seed S] [--baseline-out FILE]
//! [--check FILE] [--tolerance T] [--handicap F]`. The seed makes every
//! seeded workload (the sim section) reproducible; the explorer and
//! engine workloads are deterministic by construction and unaffected.
//!
//! `--baseline-out` captures the run's rates as a committable
//! `BENCH_baseline.json`; `--check` re-measures and **fails (exit 1)**
//! when any payments/sec, schedules/sec or events/sec rate drops more
//! than `--tolerance` (default 0.25) below the committed baseline — the
//! CI bench-regression gate. `--handicap F` divides every measured rate
//! by `F` before baselining/checking: the self-test hook proving the
//! gate trips on an artificial slowdown.

use anta::trace::TraceMode;
use std::collections::BTreeMap;
use std::time::Instant;
use xchain_bench::regression::{self, Baseline};

/// One explorer measurement row.
struct ExplorerRow {
    instance: &'static str,
    threads: usize,
    runs: usize,
    exhausted: bool,
    violations: usize,
    wall_ms: f64,
    schedules_per_sec: f64,
}

/// One reduced-explorer (DPOR) measurement row.
struct DporRow {
    instance: &'static str,
    threads: usize,
    runs: usize,
    dedup_hits: usize,
    resplits: usize,
    exhausted: bool,
    violations: usize,
    wall_ms: f64,
    /// Attempted schedules (executed + deduplicated cuts) per second — the
    /// explorer's raw pace through the tree.
    schedules_per_sec: f64,
    /// Full-tree leaves over executed runs (higher is better); `None` when
    /// the instance's full tree size is unknown.
    reduction_factor: Option<f64>,
}

/// One engine-throughput measurement row.
struct EngineRow {
    workload: &'static str,
    trace_mode: &'static str,
    events: u64,
    wall_ms: f64,
    events_per_sec: f64,
}

/// One simulator-throughput measurement row.
struct SimRow {
    workload: &'static str,
    threads: usize,
    payments: usize,
    success: usize,
    violations: usize,
    wall_ms: f64,
    payments_per_sec: f64,
}

/// One protocol-harness throughput measurement row.
struct ProtocolRow {
    protocol: &'static str,
    threads: usize,
    payments: usize,
    success: usize,
    violations: usize,
    wall_ms: f64,
    payments_per_sec: f64,
}

/// One open-system (finite-liquidity) engine measurement row.
struct OpenRow {
    workload: &'static str,
    threads: usize,
    payments: usize,
    admitted: usize,
    rejected: usize,
    shards: usize,
    violations: usize,
    wall_ms: f64,
    payments_per_sec: f64,
}

/// One routed-vs-static open-system measurement row.
struct RoutingRow {
    mode: &'static str,
    threads: usize,
    payments: usize,
    admitted: usize,
    wall_ms: f64,
    payments_per_sec: f64,
}

struct Args {
    quick: bool,
    out: String,
    threads: Vec<usize>,
    seed: u64,
    baseline_out: Option<String>,
    check: Option<String>,
    tolerance: f64,
    handicap: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        out: ".".to_string(),
        threads: Vec::new(),
        seed: 0xBE_C4,
        baseline_out: None,
        check: None,
        tolerance: 0.25,
        handicap: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = it.next().expect("--out needs a directory"),
            "--threads" => {
                let list = it.next().expect("--threads needs a comma-separated list");
                args.threads = list
                    .split(',')
                    .map(|t| t.trim().parse().expect("thread count"))
                    .collect();
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed");
            }
            "--baseline-out" => {
                args.baseline_out = Some(it.next().expect("--baseline-out needs a file"));
            }
            "--check" => args.check = Some(it.next().expect("--check needs a baseline file")),
            "--tolerance" => {
                args.tolerance = it
                    .next()
                    .expect("--tolerance needs a fraction")
                    .parse()
                    .expect("tolerance");
            }
            "--handicap" => {
                args.handicap = it
                    .next()
                    .expect("--handicap needs a factor")
                    .parse()
                    .expect("handicap");
                assert!(args.handicap >= 1.0, "handicap slows down, never speeds up");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench [--quick] [--out DIR] [--threads 1,2,4] [--seed S] \
                     [--baseline-out FILE] [--check FILE] [--tolerance T] [--handicap F]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.threads.is_empty() {
        args.threads = if args.quick {
            vec![1, 4]
        } else {
            vec![1, 2, 4, 8]
        };
    }
    args
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Writes one artifact create-or-truncate ([`std::fs::write`] creates
/// the file or entirely replaces its contents, so a stale file from
/// another run never leaks into this run's JSON), with the path in the
/// panic message so a bad `--out` target is diagnosable.
fn write_json(path: &std::path::Path, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn main() {
    let args = parse_args();

    // Explorer instances: (label, n, sigma_buckets, max_runs). The lean
    // (σ-pinned) instances keep the tree exhaustible; see e4 module docs.
    let mut instances: Vec<(&'static str, usize, usize, usize)> =
        vec![("e4_n1", 1, 4, 200_000), ("e4_n2_lean", 2, 1, 200_000)];
    if !args.quick {
        instances.push(("e4_n3_lean", 3, 1, 1_000_000));
    }

    let mut explorer_rows: Vec<ExplorerRow> = Vec::new();
    for &(label, n, sigma_buckets, max_runs) in &instances {
        for &threads in &args.threads {
            let t0 = Instant::now();
            let r = experiments::e4::explore_instance_opts(n, threads, max_runs, sigma_buckets);
            let wall = t0.elapsed();
            let row = ExplorerRow {
                instance: label,
                threads,
                runs: r.runs,
                exhausted: r.exhausted,
                violations: r.violations.len(),
                wall_ms: ms(wall),
                schedules_per_sec: r.runs as f64 / wall.as_secs_f64().max(1e-9),
            };
            eprintln!(
                "explorer {label:<11} threads={threads} runs={} exhausted={} {:.1} ms ({:.0} schedules/s)",
                row.runs, row.exhausted, row.wall_ms, row.schedules_per_sec
            );
            explorer_rows.push(row);
        }
    }

    // Reduced (DPOR) explorer: state-hash dedup + dead-branch elision +
    // dynamic re-splitting. Full-tree sizes are known for the lean
    // (σ-pinned) instances, giving an exact reduction factor; n = 2 runs
    // full and DPOR side by side (the `explorer` rows above cover full
    // mode), n = 3 is DPOR-only at a tree full enumeration takes minutes
    // on. The scaling_t4_over_t1 keys are the signal that dynamic
    // re-splitting keeps workers busy (≈ 1.0 on a single-core runner).
    let mut dpor_instances: Vec<(&'static str, usize, usize, usize, Option<usize>)> =
        vec![("e4_n2_dpor", 2, 1, 200_000, Some(4096))];
    if !args.quick {
        dpor_instances.push(("e4_n3_dpor", 3, 1, 1_000_000, Some(262_144)));
    }
    let mut dpor_rows: Vec<DporRow> = Vec::new();
    for &(label, n, sigma_buckets, max_runs, full_tree) in &dpor_instances {
        for &threads in &args.threads {
            let t0 = Instant::now();
            let r = experiments::e4::explore_instance_dpor(n, threads, max_runs, sigma_buckets);
            let wall = t0.elapsed();
            let attempted = r.runs + r.dedup_hits;
            let row = DporRow {
                instance: label,
                threads,
                runs: r.runs,
                dedup_hits: r.dedup_hits,
                resplits: r.resplits,
                exhausted: r.exhausted,
                violations: r.violations.len(),
                wall_ms: ms(wall),
                schedules_per_sec: attempted as f64 / wall.as_secs_f64().max(1e-9),
                reduction_factor: full_tree
                    .filter(|_| r.exhausted && r.runs > 0)
                    .map(|full| full as f64 / r.runs as f64),
            };
            eprintln!(
                "dpor     {label:<11} threads={threads} runs={} dedup={} resplits={} \
                 exhausted={} {:.1} ms ({:.0} schedules/s{})",
                row.runs,
                row.dedup_hits,
                row.resplits,
                row.exhausted,
                row.wall_ms,
                row.schedules_per_sec,
                row.reduction_factor
                    .map(|f| format!(", {f:.2}x reduction"))
                    .unwrap_or_default()
            );
            dpor_rows.push(row);
        }
    }

    // Engine throughput: best-of-N to damp scheduler noise.
    let reps = if args.quick { 3 } else { 7 };
    let mut engine_rows: Vec<EngineRow> = Vec::new();
    for (mode, mode_label) in [
        (TraceMode::Full, "full"),
        (TraceMode::CountersOnly, "counters_only"),
    ] {
        let mut best: Option<(std::time::Duration, u64)> = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let events = experiments::perf::engine_events_workload(10_000, mode);
            let wall = t0.elapsed();
            if best.map(|(b, _)| wall < b).unwrap_or(true) {
                best = Some((wall, events));
            }
        }
        let (wall, events) = best.expect("reps >= 1");
        let row = EngineRow {
            workload: "engine_10k_messages",
            trace_mode: mode_label,
            events,
            wall_ms: ms(wall),
            events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
        };
        eprintln!(
            "engine   {:<11} trace_mode={mode_label} events={events} {:.2} ms ({:.0} events/s)",
            row.workload, row.wall_ms, row.events_per_sec
        );
        engine_rows.push(row);
    }

    // Simulator throughput: one seeded hub-and-spoke workload with a
    // light fault mix, re-run per thread count. The aggregate report is
    // bit-identical across thread counts, so rows differ only in wall
    // time — exactly the scaling signal CI should track. 1/2/4 are always
    // measured (plus any extra counts from --threads).
    let sim_payments = if args.quick { 2_000 } else { 10_000 };
    let mut sim_threads: Vec<usize> = vec![1, 2, 4];
    for &t in &args.threads {
        if !sim_threads.contains(&t) {
            sim_threads.push(t);
        }
    }
    let sim_faults = sim::FaultPlan {
        crash_permille: 50,
        late_bob_permille: 25,
        forging_chloe_permille: 25,
        thieving_escrow_permille: 25,
        net: anta::net::NetFaults {
            drop_permille: 10,
            delay_permille: 100,
            extra_delay: anta::time::SimDuration::from_millis(2),
            delay_buckets: 4,
        },
    };
    // Generate the (identical) spec list once, outside the timed region:
    // the rows measure the parallel runner, not serial workload generation.
    let sim_workload = sim::WorkloadConfig::new(
        sim::TopologyFamily::HubAndSpoke { spokes: 16 },
        sim_payments,
        args.seed,
    );
    let sim_specs = sim::workload::generate(&sim_workload);
    let mut sim_rows: Vec<SimRow> = Vec::new();
    for &threads in &sim_threads {
        let cfg = sim::SimConfig {
            faults: sim_faults,
            threads,
            lock_profile: false,
            ..sim::SimConfig::new(sim_workload)
        };
        let t0 = Instant::now();
        let report = sim::run_specs_with(&sim::TimeBoundedHarness, &sim_specs, &cfg);
        let wall = t0.elapsed();
        let success = report.families.iter().map(|f| f.success.hits).sum();
        let row = SimRow {
            workload: "sim_hub_16spokes",
            threads,
            payments: report.instances,
            success,
            violations: report.violations,
            wall_ms: ms(wall),
            payments_per_sec: report.instances as f64 / wall.as_secs_f64().max(1e-9),
        };
        eprintln!(
            "sim      {:<11} threads={threads} payments={} success={} {:.1} ms ({:.0} payments/s)",
            row.workload, row.payments, row.success, row.wall_ms, row.payments_per_sec
        );
        sim_rows.push(row);
    }

    // Streaming-campaign throughput: the checkpointing epoch runner
    // (sim::campaign) over the same hub workload and fault mix, at 1 and
    // 4 worker threads. Epoch folding must cost ~nothing over the plain
    // runner, and the digests double as a cross-thread determinism check.
    let campaign_payments = if args.quick { 2_000u64 } else { 10_000 };
    let mut campaign_rows: Vec<SimRow> = Vec::new();
    {
        let mut digests: Vec<String> = Vec::new();
        for threads in [1usize, 4] {
            let cfg = sim::campaign::CampaignConfig {
                threads,
                faults: sim_faults,
                ..sim::campaign::CampaignConfig::new(
                    sim_workload,
                    campaign_payments,
                    (campaign_payments / 4) as usize,
                )
            };
            let mut runner = sim::campaign::CampaignRunner::new(sim::TimeBoundedHarness, cfg);
            let t0 = Instant::now();
            runner
                .run_to_end(None, None, |_| {})
                .expect("no checkpoint I/O");
            let wall = t0.elapsed();
            let report = runner.report();
            digests.push(report.digest.clone());
            let row = SimRow {
                workload: "campaign_hub_16spokes",
                threads,
                payments: report.tally.instances as usize,
                success: report.tally.success as usize,
                violations: report.tally.violations as usize,
                wall_ms: ms(wall),
                payments_per_sec: report.tally.instances as f64 / wall.as_secs_f64().max(1e-9),
            };
            eprintln!(
                "campaign {:<11} threads={threads} payments={} success={} {:.1} ms ({:.0} payments/s)",
                row.workload, row.payments, row.success, row.wall_ms, row.payments_per_sec
            );
            campaign_rows.push(row);
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "campaign report digests diverged across thread counts: {digests:?}"
        );
    }

    // Telemetry overhead: the same single-threaded workload three ways,
    // interleaved best-of-N — the uninstrumented parallel runner
    // (generation + simulation, no campaign layer), the campaign runner
    // draining to a NullSink (the "telemetry enabled but unobserved"
    // path every campaign now runs), and the campaign runner writing a
    // real JSONL file. NullSink within 5% of the bare runner is the
    // documented budget; the ratio keys feed the regression gate (ratios
    // are hardware-independent, so the committed baseline stays
    // meaningful across runners) so creeping instrumentation cost fails
    // CI. The digests double as proof the JSONL sink observes without
    // perturbing.
    let telem_reps = if args.quick { 5 } else { 7 };
    let telem_path =
        std::env::temp_dir().join(format!("bench-telemetry-{}.jsonl", std::process::id()));
    let mut telem_rows: Vec<SimRow> = Vec::new();
    {
        let telem_cfg = sim::campaign::CampaignConfig {
            threads: 1,
            faults: sim_faults,
            ..sim::campaign::CampaignConfig::new(
                sim_workload,
                campaign_payments,
                (campaign_payments / 4) as usize,
            )
        };
        let plain_cfg = sim::SimConfig {
            faults: sim_faults,
            threads: 1,
            lock_profile: false,
            ..sim::SimConfig::new(sim::WorkloadConfig {
                payments: campaign_payments as usize,
                ..sim_workload
            })
        };
        let mut best = [std::time::Duration::MAX; 3];
        let mut digests: Vec<String> = Vec::new();
        for _ in 0..telem_reps {
            let t0 = Instant::now();
            let specs = sim::workload::generate(&plain_cfg.workload);
            let plain = sim::run_specs_with(&sim::TimeBoundedHarness, &specs, &plain_cfg);
            assert_eq!(plain.instances as u64, campaign_payments);
            best[0] = best[0].min(t0.elapsed());

            let mut runner = sim::campaign::CampaignRunner::new(sim::TimeBoundedHarness, telem_cfg);
            let t0 = Instant::now();
            runner
                .run_to_end(None, None, |_| {})
                .expect("no checkpoint I/O");
            best[1] = best[1].min(t0.elapsed());
            digests.push(runner.report().digest.clone());

            let mut runner = sim::campaign::CampaignRunner::new(sim::TimeBoundedHarness, telem_cfg);
            let mut sink = telemetry::JsonlSink::create(&telem_path).expect("temp telemetry file");
            let t0 = Instant::now();
            runner
                .run_to_end_with_telemetry(None, None, &mut sink, 1, |_| {})
                .expect("no checkpoint I/O");
            best[2] = best[2].min(t0.elapsed());
            assert_eq!(sink.io_errors(), 0, "telemetry writes failed");
            digests.push(runner.report().digest.clone());
        }
        let _ = std::fs::remove_file(&telem_path);
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "campaign report digests diverged across telemetry sinks: {digests:?}"
        );
        for (mode, wall) in [
            ("plain", best[0]),
            ("null_sink", best[1]),
            ("jsonl_sink", best[2]),
        ] {
            let row = SimRow {
                workload: mode,
                threads: 1,
                payments: campaign_payments as usize,
                success: 0,
                violations: 0,
                wall_ms: ms(wall),
                payments_per_sec: campaign_payments as f64 / wall.as_secs_f64().max(1e-9),
            };
            eprintln!(
                "telemetry {:<11} threads=1 payments={} {:.1} ms ({:.0} payments/s)",
                row.workload, row.payments, row.wall_ms, row.payments_per_sec
            );
            telem_rows.push(row);
        }
        let overhead = (best[1].as_secs_f64() / best[0].as_secs_f64().max(1e-9) - 1.0) * 100.0;
        eprintln!(
            "telemetry NullSink overhead vs uninstrumented runner: {overhead:+.1}% \
             (budget: <5%)"
        );
    }

    // Protocol-harness throughput: one seeded linear workload through
    // every harness, re-run at 1/2/4 worker threads. Reports are
    // bit-identical across thread counts per harness; rows differ in wall
    // time — the per-protocol scaling signal for BENCH_protocols.json.
    let proto_payments = if args.quick { 1_000 } else { 5_000 };
    let proto_workload = sim::WorkloadConfig::new(
        sim::TopologyFamily::Linear { n: 3 },
        proto_payments,
        args.seed,
    );
    let proto_specs = sim::workload::generate(&proto_workload);
    let mut protocol_rows: Vec<ProtocolRow> = Vec::new();
    {
        let mut bench_protocol =
            |name: &'static str, run: &dyn Fn(&sim::SimConfig) -> sim::SimReport| {
                for threads in [1usize, 2, 4] {
                    let cfg = sim::SimConfig {
                        faults: sim_faults,
                        threads,
                        lock_profile: false,
                        ..sim::SimConfig::new(proto_workload)
                    };
                    let t0 = Instant::now();
                    let report = run(&cfg);
                    let wall = t0.elapsed();
                    let row = ProtocolRow {
                        protocol: name,
                        threads,
                        payments: report.instances,
                        success: report.families.iter().map(|f| f.success.hits).sum(),
                        violations: report.violations,
                        wall_ms: ms(wall),
                        payments_per_sec: report.instances as f64 / wall.as_secs_f64().max(1e-9),
                    };
                    eprintln!(
                    "protocol {name:<12} threads={threads} payments={} success={} {:.1} ms ({:.0} payments/s)",
                    row.payments, row.success, row.wall_ms, row.payments_per_sec
                );
                    protocol_rows.push(row);
                }
            };
        let specs = &proto_specs;
        bench_protocol("timebounded", &|cfg| {
            sim::run_specs_with(&sim::TimeBoundedHarness, specs, cfg)
        });
        bench_protocol("htlc", &|cfg| {
            sim::run_specs_with(&sim::HtlcHarness, specs, cfg)
        });
        bench_protocol("ilp-untuned", &|cfg| {
            sim::run_specs_with(&sim::InterledgerHarness::untuned(), specs, cfg)
        });
        bench_protocol("ilp-atomic", &|cfg| {
            sim::run_specs_with(&sim::InterledgerHarness::atomic(), specs, cfg)
        });
        bench_protocol("deals", &|cfg| {
            sim::run_specs_with(&sim::DealsHarness, specs, cfg)
        });
    }

    // Open-system engine throughput: the sharded discrete-event engine
    // over a single-shard hub (every route crosses the hub, so its
    // contention genuinely serializes) and a 4-shard packetized workload
    // (disjoint paths land on different workers), at 1/2/4 threads under
    // a Queue admission policy. Reports are bit-identical across thread
    // counts; the scaling_t4_over_t1 ratio rows are the CI signal that
    // venue sharding keeps paying — a return to flat scaling on a
    // multi-core runner fails the regression gate.
    let open_payments = if args.quick { 2_000 } else { 8_000 };
    let open_cases: [(&'static str, sim::TopologyFamily, u64); 2] = [
        (
            "open_hub_8spokes",
            sim::TopologyFamily::HubAndSpoke { spokes: 8 },
            30_000,
        ),
        (
            "open_packetized_4x2",
            sim::TopologyFamily::Packetized { paths: 4, hops: 2 },
            9_000,
        ),
    ];
    let mut open_rows: Vec<OpenRow> = Vec::new();
    for &(label, family, budget) in &open_cases {
        let mut open_workload = sim::WorkloadConfig::new(family, open_payments, args.seed);
        open_workload.arrivals = sim::ArrivalProcess::Bursty {
            burst: 32,
            gap: anta::time::SimDuration::from_millis(20),
        };
        let open_specs = sim::workload::generate(&open_workload);
        let liq = sim::LiquidityConfig::queue(budget, anta::time::SimDuration::from_millis(25));
        for threads in [1usize, 2, 4] {
            let cfg = sim::SimConfig {
                faults: sim_faults,
                threads,
                ..sim::SimConfig::new(open_workload)
            };
            let t0 = Instant::now();
            let report =
                sim::run_open_specs_with(&sim::TimeBoundedHarness, &open_specs, &cfg, &liq);
            let wall = t0.elapsed();
            let l = &report.liquidity;
            let row = OpenRow {
                workload: label,
                threads,
                payments: l.offered,
                admitted: l.admitted,
                rejected: l.rejected,
                shards: l.shards,
                violations: l.budget_violations,
                wall_ms: ms(wall),
                payments_per_sec: l.offered as f64 / wall.as_secs_f64().max(1e-9),
            };
            eprintln!(
                "open     {label:<20} threads={threads} payments={} admitted={} shards={} {:.1} ms ({:.0} payments/s)",
                row.payments, row.admitted, row.shards, row.wall_ms, row.payments_per_sec
            );
            open_rows.push(row);
        }
    }

    // Routed vs static open-system admission over a 1k-venue scale-free
    // network: the same specs once through the admission-time pathfinder
    // (single shard — the router sees the whole book) and once over their
    // generation-time shortest paths (venue-sharded). The routed rows
    // price what dynamic routing costs per admitted payment; the
    // cross-thread admitted counts double as a determinism assertion.
    let routing_payments = if args.quick { 1_000 } else { 4_000 };
    let mut routing_workload = sim::WorkloadConfig::new(
        sim::TopologyFamily::ScaleFree {
            venues: 1_024,
            attach: 2,
        },
        routing_payments,
        args.seed,
    );
    routing_workload.amount = (100, 2_000);
    routing_workload.max_commission = 0;
    routing_workload.arrivals = sim::ArrivalProcess::Bursty {
        burst: 32,
        gap: anta::time::SimDuration::from_millis(20),
    };
    let routing_specs = sim::workload::generate(&routing_workload);
    let routing_liq = sim::LiquidityConfig::queue(2_500, anta::time::SimDuration::from_millis(25));
    let routing_cfg = sim::RoutingConfig::with_rebalance(anta::time::SimDuration::from_millis(10));
    let mut routing_rows: Vec<RoutingRow> = Vec::new();
    for mode in ["routed_1k", "static_1k"] {
        let mut admitted_seen: Option<usize> = None;
        for threads in [1usize, 2, 4] {
            let cfg = sim::SimConfig {
                faults: sim_faults,
                threads,
                ..sim::SimConfig::new(routing_workload)
            };
            let t0 = Instant::now();
            let report = if mode == "routed_1k" {
                sim::run_open_specs_routed_with(
                    &sim::TimeBoundedHarness,
                    &routing_specs,
                    &cfg,
                    &routing_liq,
                    &routing_cfg,
                )
            } else {
                sim::run_open_specs_with(
                    &sim::TimeBoundedHarness,
                    &routing_specs,
                    &cfg,
                    &routing_liq,
                )
            };
            let wall = t0.elapsed();
            let l = &report.liquidity;
            match admitted_seen {
                None => admitted_seen = Some(l.admitted),
                Some(prev) => assert_eq!(
                    prev, l.admitted,
                    "{mode} admitted count diverged across thread counts"
                ),
            }
            let row = RoutingRow {
                mode,
                threads,
                payments: l.offered,
                admitted: l.admitted,
                wall_ms: ms(wall),
                payments_per_sec: l.offered as f64 / wall.as_secs_f64().max(1e-9),
            };
            eprintln!(
                "routing  {mode:<11} threads={threads} payments={} admitted={} {:.1} ms ({:.0} payments/s)",
                row.payments, row.admitted, row.wall_ms, row.payments_per_sec
            );
            routing_rows.push(row);
        }
    }

    // Raw pathfinder rate: repeated cheapest-feasible-path searches over
    // the same 1k-venue graph against a partially loaded book, endpoints
    // cycled deterministically. This isolates the per-search cost the
    // routed rows pay at every admission.
    let pathfind_calls = if args.quick { 20_000u64 } else { 100_000 };
    let (pathfind_wall_ms, pathfind_per_sec) = {
        let g = sim::VenueGraph::generate(
            sim::GraphFamily::ScaleFree {
                venues: 1_024,
                attach: 2,
            },
            args.seed,
        );
        let mut book = sim::LiquidityBook::new(&routing_liq, g.venues());
        // Pre-load a third of the venues so feasibility pruning is real.
        let mut x = args.seed | 1;
        for v in 0..g.venues() as u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 3 == 0 {
                book.reserve(v, x % 2_500);
            }
        }
        let mut router = sim::Router::new();
        let nodes = g.nodes() as u64;
        let mut found = 0u64;
        let t0 = Instant::now();
        for i in 0..pathfind_calls {
            let src = (i * 2_654_435_761 % nodes) as u32;
            let dst = ((i * 40_503 + nodes / 2) % nodes) as u32;
            if src != dst && router.route(&g, src, dst, 500, 8, &book).is_some() {
                found += 1;
            }
        }
        let wall = t0.elapsed();
        assert!(found > 0, "pathfinder found no routes at all");
        eprintln!(
            "routing  pathfind    calls={pathfind_calls} found={found} {:.1} ms ({:.0} paths/s)",
            ms(wall),
            pathfind_calls as f64 / wall.as_secs_f64().max(1e-9)
        );
        (
            ms(wall),
            pathfind_calls as f64 / wall.as_secs_f64().max(1e-9),
        )
    };

    // Hand-rolled JSON (no serde in the offline workspace).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 2,\n");
    json.push_str(&format!("  \"quick\": {},\n", args.quick));
    json.push_str(&format!(
        "  \"threads_available\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    json.push_str(&format!(
        "  \"unix_epoch_secs\": {},\n",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    ));
    json.push_str("  \"explorer\": [\n");
    for (i, r) in explorer_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"instance\": \"{}\", \"threads\": {}, \"runs\": {}, \"exhausted\": {}, \
             \"violations\": {}, \"wall_ms\": {:.3}, \"schedules_per_sec\": {:.1}}}{}\n",
            r.instance,
            r.threads,
            r.runs,
            r.exhausted,
            r.violations,
            r.wall_ms,
            r.schedules_per_sec,
            if i + 1 < explorer_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"explorer_dpor\": [\n");
    for (i, r) in dpor_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"instance\": \"{}\", \"threads\": {}, \"runs\": {}, \"dedup_hits\": {}, \
             \"resplits\": {}, \"exhausted\": {}, \"violations\": {}, \"wall_ms\": {:.3}, \
             \"schedules_per_sec\": {:.1}, \"reduction_factor\": {}}}{}\n",
            r.instance,
            r.threads,
            r.runs,
            r.dedup_hits,
            r.resplits,
            r.exhausted,
            r.violations,
            r.wall_ms,
            r.schedules_per_sec,
            r.reduction_factor
                .map(|f| format!("{f:.4}"))
                .unwrap_or_else(|| "null".to_owned()),
            if i + 1 < dpor_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"engine\": [\n");
    for (i, r) in engine_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"trace_mode\": \"{}\", \"events\": {}, \
             \"wall_ms\": {:.3}, \"events_per_sec\": {:.1}}}{}\n",
            r.workload,
            r.trace_mode,
            r.events,
            r.wall_ms,
            r.events_per_sec,
            if i + 1 < engine_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    // BENCH_sim.json: the simulator's own trajectory file, next to (not
    // inside) BENCH_perf.json so both artifacts stay schema-stable.
    let mut sim_json = String::new();
    sim_json.push_str("{\n");
    sim_json.push_str("  \"schema_version\": 2,\n");
    sim_json.push_str(&format!("  \"quick\": {},\n", args.quick));
    sim_json.push_str(&format!("  \"seed\": {},\n", args.seed));
    sim_json.push_str(&format!(
        "  \"threads_available\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    sim_json.push_str("  \"sim\": [\n");
    for (i, r) in sim_rows.iter().enumerate() {
        sim_json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"payments\": {}, \"success\": {}, \
             \"violations\": {}, \"wall_ms\": {:.3}, \"payments_per_sec\": {:.1}}}{}\n",
            r.workload,
            r.threads,
            r.payments,
            r.success,
            r.violations,
            r.wall_ms,
            r.payments_per_sec,
            if i + 1 < sim_rows.len() { "," } else { "" }
        ));
    }
    sim_json.push_str("  ],\n");
    sim_json.push_str("  \"campaign\": [\n");
    for (i, r) in campaign_rows.iter().enumerate() {
        sim_json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"payments\": {}, \"success\": {}, \
             \"violations\": {}, \"wall_ms\": {:.3}, \"payments_per_sec\": {:.1}}}{}\n",
            r.workload,
            r.threads,
            r.payments,
            r.success,
            r.violations,
            r.wall_ms,
            r.payments_per_sec,
            if i + 1 < campaign_rows.len() { "," } else { "" }
        ));
    }
    sim_json.push_str("  ],\n");
    sim_json.push_str("  \"telemetry\": [\n");
    for (i, r) in telem_rows.iter().enumerate() {
        sim_json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"threads\": {}, \"payments\": {}, \
             \"wall_ms\": {:.3}, \"payments_per_sec\": {:.1}}}{}\n",
            r.workload,
            r.threads,
            r.payments,
            r.wall_ms,
            r.payments_per_sec,
            if i + 1 < telem_rows.len() { "," } else { "" }
        ));
    }
    sim_json.push_str("  ]\n}\n");

    // BENCH_protocols.json: per-protocol throughput trajectory, next to
    // the other artifacts so each stays schema-stable.
    let mut proto_json = String::new();
    proto_json.push_str("{\n");
    proto_json.push_str("  \"schema_version\": 2,\n");
    proto_json.push_str(&format!("  \"quick\": {},\n", args.quick));
    proto_json.push_str(&format!("  \"seed\": {},\n", args.seed));
    proto_json.push_str(&format!(
        "  \"threads_available\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    proto_json.push_str("  \"protocols\": [\n");
    for (i, r) in protocol_rows.iter().enumerate() {
        proto_json.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"threads\": {}, \"payments\": {}, \"success\": {}, \
             \"violations\": {}, \"wall_ms\": {:.3}, \"payments_per_sec\": {:.1}}}{}\n",
            r.protocol,
            r.threads,
            r.payments,
            r.success,
            r.violations,
            r.wall_ms,
            r.payments_per_sec,
            if i + 1 < protocol_rows.len() { "," } else { "" }
        ));
    }
    proto_json.push_str("  ]\n}\n");

    // BENCH_open.json: open-system engine throughput + shard structure,
    // its own artifact so the others stay schema-stable.
    let mut open_json = String::new();
    open_json.push_str("{\n");
    open_json.push_str("  \"schema_version\": 1,\n");
    open_json.push_str(&format!("  \"quick\": {},\n", args.quick));
    open_json.push_str(&format!("  \"seed\": {},\n", args.seed));
    open_json.push_str(&format!(
        "  \"threads_available\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    open_json.push_str("  \"open_system\": [\n");
    for (i, r) in open_rows.iter().enumerate() {
        open_json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"threads\": {}, \"payments\": {}, \"admitted\": {}, \
             \"rejected\": {}, \"shards\": {}, \"violations\": {}, \"wall_ms\": {:.3}, \
             \"payments_per_sec\": {:.1}}}{}\n",
            r.workload,
            r.threads,
            r.payments,
            r.admitted,
            r.rejected,
            r.shards,
            r.violations,
            r.wall_ms,
            r.payments_per_sec,
            if i + 1 < open_rows.len() { "," } else { "" }
        ));
    }
    open_json.push_str("  ]\n}\n");

    // BENCH_routing.json: routed-vs-static admission throughput and the
    // raw pathfinder rate, its own artifact like the rest.
    let mut routing_json = String::new();
    routing_json.push_str("{\n");
    routing_json.push_str("  \"schema_version\": 1,\n");
    routing_json.push_str(&format!("  \"quick\": {},\n", args.quick));
    routing_json.push_str(&format!("  \"seed\": {},\n", args.seed));
    routing_json.push_str(&format!(
        "  \"threads_available\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    routing_json.push_str("  \"routing\": [\n");
    for (i, r) in routing_rows.iter().enumerate() {
        routing_json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"threads\": {}, \"payments\": {}, \"admitted\": {}, \
             \"wall_ms\": {:.3}, \"payments_per_sec\": {:.1}}}{}\n",
            r.mode,
            r.threads,
            r.payments,
            r.admitted,
            r.wall_ms,
            r.payments_per_sec,
            if i + 1 < routing_rows.len() { "," } else { "" }
        ));
    }
    routing_json.push_str("  ],\n");
    routing_json.push_str(&format!(
        "  \"pathfind\": {{\"calls\": {pathfind_calls}, \"wall_ms\": {pathfind_wall_ms:.3}, \
         \"paths_per_sec\": {pathfind_per_sec:.1}}}\n"
    ));
    routing_json.push_str("}\n");

    std::fs::create_dir_all(&args.out).expect("create --out directory");
    let path = std::path::Path::new(&args.out).join("BENCH_perf.json");
    write_json(&path, &json);
    println!("{}", path.display());
    let sim_path = std::path::Path::new(&args.out).join("BENCH_sim.json");
    write_json(&sim_path, &sim_json);
    println!("{}", sim_path.display());
    let proto_path = std::path::Path::new(&args.out).join("BENCH_protocols.json");
    write_json(&proto_path, &proto_json);
    println!("{}", proto_path.display());
    let open_path = std::path::Path::new(&args.out).join("BENCH_open.json");
    write_json(&open_path, &open_json);
    println!("{}", open_path.display());
    let routing_path = std::path::Path::new(&args.out).join("BENCH_routing.json");
    write_json(&routing_path, &routing_json);
    println!("{}", routing_path.display());

    // The flat rate map the regression gate runs on (higher is better
    // everywhere). --handicap divides the rates here — and only here — so
    // the gate can be demonstrated without corrupting the artifacts.
    let mut rates: BTreeMap<String, f64> = BTreeMap::new();
    for r in &explorer_rows {
        rates.insert(
            format!("explorer/{}/t{}/schedules_per_sec", r.instance, r.threads),
            r.schedules_per_sec / args.handicap,
        );
    }
    for r in &dpor_rows {
        rates.insert(
            format!(
                "explorer_dpor/{}/t{}/schedules_per_sec",
                r.instance, r.threads
            ),
            r.schedules_per_sec / args.handicap,
        );
        // The reduction factor is a ratio, not a wall-clock rate: the
        // handicap (and machine speed) cancel out of it. Gate only the
        // serial row — executed-run counts at t > 1 can vary a little with
        // which worker reaches a converging state first.
        if let (1, Some(f)) = (r.threads, r.reduction_factor) {
            rates.insert(format!("explorer_dpor/{}/reduction_factor", r.instance), f);
        }
    }
    for r in &engine_rows {
        rates.insert(
            format!("engine/{}/{}/events_per_sec", r.workload, r.trace_mode),
            r.events_per_sec / args.handicap,
        );
    }
    for r in &sim_rows {
        rates.insert(
            format!("sim/{}/t{}/payments_per_sec", r.workload, r.threads),
            r.payments_per_sec / args.handicap,
        );
    }
    for r in &protocol_rows {
        rates.insert(
            format!("protocol/{}/t{}/payments_per_sec", r.protocol, r.threads),
            r.payments_per_sec / args.handicap,
        );
    }
    for r in &campaign_rows {
        rates.insert(
            format!("campaign/{}/t{}/payments_per_sec", r.workload, r.threads),
            r.payments_per_sec / args.handicap,
        );
    }
    for r in &open_rows {
        rates.insert(
            format!("open/{}/t{}/payments_per_sec", r.workload, r.threads),
            r.payments_per_sec / args.handicap,
        );
    }
    for r in &routing_rows {
        rates.insert(
            format!("routing/{}/t{}/payments_per_sec", r.mode, r.threads),
            r.payments_per_sec / args.handicap,
        );
    }
    rates.insert(
        "routing/pathfind_per_sec".to_owned(),
        pathfind_per_sec / args.handicap,
    );
    // Telemetry-overhead ratios: NullSink rate over the uninstrumented
    // runner (~1.0; a drop means the always-on instrumentation got
    // expensive) and JSONL rate over NullSink (~1.0; a drop means the
    // file sink started costing real time). The handicap cancels in the
    // quotients, so the raw rates are used.
    {
        let rate = |mode: &str| {
            telem_rows
                .iter()
                .find(|r| r.workload == mode)
                .map(|r| r.payments_per_sec)
        };
        if let (Some(plain), Some(null), Some(jsonl)) =
            (rate("plain"), rate("null_sink"), rate("jsonl_sink"))
        {
            if plain > 0.0 && null > 0.0 {
                rates.insert(
                    "telemetry_overhead/null_over_plain".to_owned(),
                    null / plain,
                );
                rates.insert(
                    "telemetry_overhead/jsonl_over_null".to_owned(),
                    jsonl / null,
                );
            }
        }
    }
    // Thread-scaling ratios: a drop below the baseline's ratio means
    // venue sharding stopped paying (flat scaling). The handicap cancels
    // in the quotient, so the raw rates are used.
    for &(label, ..) in &open_cases {
        let rate = |threads: usize| {
            open_rows
                .iter()
                .find(|r| r.workload == label && r.threads == threads)
                .map(|r| r.payments_per_sec)
        };
        if let (Some(t1), Some(t4)) = (rate(1), rate(4)) {
            if t1 > 0.0 {
                rates.insert(format!("open/{label}/scaling_t4_over_t1"), t4 / t1);
            }
        }
    }
    // Reduced-explorer thread scaling: the signal that dynamic re-splitting
    // keeps workers fed. The handicap cancels in the quotient.
    for &(label, ..) in &dpor_instances {
        let rate = |threads: usize| {
            dpor_rows
                .iter()
                .find(|r| r.instance == label && r.threads == threads)
                .map(|r| r.schedules_per_sec)
        };
        if let (Some(t1), Some(t4)) = (rate(1), rate(4)) {
            if t1 > 0.0 {
                rates.insert(format!("explorer_dpor/{label}/scaling_t4_over_t1"), t4 / t1);
            }
        }
    }

    if let Some(baseline_out) = &args.baseline_out {
        let baseline = Baseline {
            quick: args.quick,
            metrics: rates.clone(),
        };
        write_json(std::path::Path::new(baseline_out), &baseline.render());
        println!("{baseline_out}");
    }

    if let Some(check_path) = &args.check {
        let text = std::fs::read_to_string(check_path)
            .unwrap_or_else(|e| panic!("read baseline {check_path}: {e}"));
        let baseline = Baseline::parse(&text).unwrap_or_else(|e| {
            eprintln!("bad baseline {check_path}: {e}");
            eprintln!("{}", regression::refresh_instruction());
            std::process::exit(1);
        });
        if baseline.quick != args.quick {
            eprintln!(
                "baseline {check_path} was captured with quick={}, this run has quick={} — \
                 rates are not comparable across modes",
                baseline.quick, args.quick
            );
            eprintln!("{}", regression::refresh_instruction());
            std::process::exit(1);
        }
        let report = regression::check(&rates, &baseline.metrics, args.tolerance);
        for r in &report.regressions {
            eprintln!(
                "REGRESSION {}: {:.0} -> {:.0} ({:.0}% of baseline, tolerance {:.0}%)",
                r.key,
                r.baseline,
                r.current,
                r.ratio * 100.0,
                (1.0 - args.tolerance) * 100.0
            );
        }
        for key in &report.missing {
            eprintln!("STALE BASELINE: {key} is no longer measured");
        }
        for key in &report.unbaselined {
            eprintln!("note: {key} has no baseline yet (not gated)");
        }
        if report.ok() {
            eprintln!(
                "bench-regression gate PASSED: {} rates within {:.0}% of baseline",
                baseline.metrics.len(),
                args.tolerance * 100.0
            );
        } else {
            eprintln!(
                "bench-regression gate FAILED ({} regressions, {} stale keys)",
                report.regressions.len(),
                report.missing.len()
            );
            eprintln!("{}", regression::refresh_instruction());
            std::process::exit(1);
        }
    }
}

//! `exp10` — **E10: shared-liquidity frontier under offered load**.
//!
//! The paper prices success guarantees in locked collateral over time;
//! E8/E9 measured that cost against *unbounded* escrows, so lock pressure
//! never fed back into outcomes. E10 closes the loop: a hub-and-spoke
//! network whose gateway escrows hold **finite collateral budgets** runs
//! as an open system (`sim::run_open_specs_with_telemetry`) while the sweep raises the
//! offered load and tightens the budget across every protocol harness.
//! Success rate becomes a function of offered load — the
//! utilization/success/goodput frontier — instead of a constant of the
//! fault mix.
//!
//! Faults and drift are off: the axis under study is contention, and a
//! faultless drift-free workload makes every admitted payment succeed, so
//! `success = admitted` and the frontier is pure admission economics.
//!
//! The open system is a discrete-event simulation sharded by venue
//! (`sim::run_open_specs_with_telemetry`): arrivals, admission, queueing and patience
//! expiry are in-band events against the collateral book. A hub
//! workload couples every payment through the gateway venues, so each
//! E10 cell is a single shard — the per-cell numbers are exactly the
//! sequential event-order semantics, and the report stays bit-identical
//! whatever `--threads` says.
//!
//! Hard exit criteria:
//!
//! * **collateral conservation** — across every bounded cell of the
//!   time-bounded protocol, the audited locked value never exceeds any
//!   venue's budget and every venue drains to zero at the end;
//! * **load monotonicity** — on the Reject frontier (fixed collateral,
//!   no patience), every protocol's success rate is monotonically
//!   non-increasing in offered load;
//! * **the sweep bites** — the tightest budget at the highest load must
//!   actually reject payments, or the frontier degenerates.
//!
//! Usage: `cargo run --release -p xchain-sim --bin exp10 --
//! [--quick] [--threads N] [--seed S] [--payments N] [--json FILE | --out DIR]
//! [--telemetry FILE]`. `--json FILE` names the artifact directly (the
//! flag every experiment binary shares, see `cli`); `--out DIR` is the
//! historical spelling and writes `DIR/EXP10_liquidity.json`.
//!
//! **Campaign mode** (`--campaign N`): stream `N` payments through the
//! open-system engine in crash-safe epochs — each epoch an independent
//! admission timeline against fresh per-venue budgets (`--budget`), the
//! campaign carrying the cumulative collateral audit and wait sketches
//! across checkpoints (`--resume PATH`, `--stop-after-epoch K`,
//! `--max-rss-mb M`; see README "Campaigns & recovery").

mod cli;

use anta::time::SimDuration;
use experiments::table::{check, Table};
use sim::prelude::*;
use std::time::Instant;

fn render_budget(b: u64) -> String {
    if b == u64::MAX {
        "inf".to_owned()
    } else {
        format!("{}k", b / 1_000)
    }
}

fn main() {
    let mut budget = 30_000u64;
    let mut out = String::new();
    let mut args = cli::parse(
        "exp10",
        0xE10,
        "exp10 flags: [--out DIR] (grid mode), [--budget B] (campaign mode)",
        |flag, v| {
            match flag {
                "--budget" => budget = v.number(flag)?,
                "--out" => out = v.value(flag)?,
                _ => return Ok(false),
            }
            Ok(true)
        },
    );
    if args.campaign > 0 {
        // A streamed open-system hub campaign under finite per-venue
        // collateral with a 20 ms queueing gate.
        let mut workload =
            WorkloadConfig::new(TopologyFamily::HubAndSpoke { spokes: 8 }, 0, args.seed);
        workload.max_rho_ppm = (0, 0);
        let liq = if budget == 0 {
            LiquidityConfig::UNBOUNDED
        } else {
            LiquidityConfig::queue(budget, SimDuration::from_millis(20))
        };
        let cfg = sim::CampaignConfig {
            liquidity: Some(liq),
            ..args.campaign_config(workload)
        };
        cli::run_campaign(&args, TimeBoundedHarness, cfg, "", true);
        return;
    }
    if args.json.is_empty() && !out.is_empty() {
        args.json = std::path::Path::new(&out)
            .join("EXP10_liquidity.json")
            .display()
            .to_string();
    }
    let per_cell = args.per_cell(300, 2_000);

    // Offered-load axis: the same seeded traffic with compressed
    // arrival gaps (ticks are µs, so 2 000 µs ⇒ 500 pay/s offered).
    let loads: [(u64, u64); 3] = [(2_000, 500), (500, 2_000), (125, 8_000)];
    // Liquidity axis: per-venue budgets over the 8 gateway venues, with
    // the unbounded book as the E8/E9 baseline and a queueing variant
    // to price patience.
    let variants: [(&'static str, LiquidityConfig); 4] = [
        ("unbounded", LiquidityConfig::UNBOUNDED),
        ("reject", LiquidityConfig::reject(30_000)),
        ("reject", LiquidityConfig::reject(15_000)),
        (
            "queue 20ms",
            LiquidityConfig::queue(15_000, SimDuration::from_millis(20)),
        ),
    ];

    let mut table = Table::new(
        "E10 — shared-liquidity frontier: offered load × collateral budget × protocol \
         (hub of 8 gateway venues, faultless, drift-free)",
        &[
            "protocol",
            "policy",
            "budget/venue",
            "offered pay/s",
            "payments",
            "admitted",
            "rejected",
            "queued",
            "success",
            "latency p50/p99 (ms)",
            "wait p99 (ms)",
            "util",
            "peak/venue",
            "goodput val/s",
            "colviol",
        ],
    );

    let t_all = Instant::now();
    let mut sink = args.sink("");
    let mut cell_id = 0u64;
    let mut cells: Vec<String> = Vec::new();
    let mut tb_colviol = 0usize;
    let mut tb_undrained = 0usize;
    let mut monotone_ok = true;
    let mut tightest_rejected = 0usize;
    let mut total_instances = 0usize;

    for protocol in cli::PROTOCOLS {
        for (vi, (plabel, liq)) in variants.iter().enumerate() {
            let mut prev_rate = f64::INFINITY;
            for &(gap_us, offered_per_sec) in &loads {
                let mut workload = WorkloadConfig::new(
                    TopologyFamily::HubAndSpoke { spokes: 8 },
                    per_cell,
                    args.seed,
                );
                workload.arrivals = ArrivalProcess::Uniform {
                    mean_gap: SimDuration::from_ticks(gap_us),
                };
                // Liquidity only: drift-free clocks keep every protocol's
                // admitted payments successful.
                workload.max_rho_ppm = (0, 0);
                let cfg = SimConfig {
                    threads: args.threads,
                    lock_profile: false,
                    ..SimConfig::new(workload)
                };
                let specs = sim::workload::generate(&cfg.workload);
                let (open, ot) = cli::with_harness!(protocol, |h| {
                    sim::run_open_specs_with_telemetry(&h, &specs, &cfg, liq, None)
                });
                let f = open.sim.families.first().expect("one family per cell");
                let l = &open.liquidity;
                total_instances += open.sim.instances;

                cell_id += 1;
                let mut cell_event = telemetry::Event::new("cell")
                    .with_u64("cell", cell_id)
                    .with_str("protocol", protocol)
                    .with_str("policy", liq.policy.label())
                    .with_u64("offered_per_sec", offered_per_sec)
                    .with_u64("offered", l.offered as u64)
                    .with_u64("admitted", l.admitted as u64)
                    .with_u64("rejected", l.rejected as u64)
                    .with_u64("queued", l.queued as u64)
                    .with_u64("success", f.success.hits as u64)
                    .with_u64("violations", open.sim.violations as u64)
                    .with_u64("budget_violations", l.budget_violations as u64)
                    .with_bool("drained", l.drained)
                    .with_f64("goodput_per_sec", l.goodput_per_sec());
                // Unbounded budgets are u64::MAX internally — omit the
                // field rather than emit a sentinel.
                if liq.budget != u64::MAX {
                    cell_event = cell_event.with_u64("budget", liq.budget);
                }
                sink.emit(&cell_event);
                ot.emit(&[("cell", cell_id)], sink.as_mut());

                // The monotonicity gate runs on the Reject frontier: with
                // fixed collateral and no patience, raising the offered
                // load can only shed more payments. (A queueing gate
                // absorbs load into waits, so its admission count may
                // wobble by a payment or two across load levels.)
                if matches!(liq.policy, AdmissionPolicy::Reject) {
                    let rate = f.success.value().unwrap_or(0.0);
                    if rate > prev_rate + 1e-12 {
                        monotone_ok = false;
                        eprintln!(
                            "MONOTONICITY BROKEN: {protocol}/{plabel}/{} at {} pay/s: \
                             {rate:.4} > {prev_rate:.4}",
                            render_budget(liq.budget),
                            offered_per_sec
                        );
                    }
                    prev_rate = rate;
                }
                if protocol == "timebounded" && liq.policy.bounded() {
                    tb_colviol += l.budget_violations;
                    tb_undrained += usize::from(!l.drained);
                }
                if vi == 2 && offered_per_sec == loads[2].1 {
                    tightest_rejected += l.rejected;
                }

                let lat = match &f.latency {
                    None => "-".to_owned(),
                    Some(s) => format!(
                        "{:.1}/{:.1}",
                        s.p50 as f64 / 1_000.0,
                        s.p99 as f64 / 1_000.0
                    ),
                };
                table.push(&[
                    protocol.to_owned(),
                    plabel.to_string(),
                    render_budget(liq.budget),
                    offered_per_sec.to_string(),
                    l.offered.to_string(),
                    l.admitted.to_string(),
                    l.rejected.to_string(),
                    l.queued.to_string(),
                    f.success.render(),
                    lat,
                    l.wait
                        .as_ref()
                        .map(|w| format!("{:.1}", w.p99 as f64 / 1_000.0))
                        .unwrap_or_else(|| "-".to_owned()),
                    l.utilization_ppm
                        .map(|u| format!("{:.1}%", u as f64 / 10_000.0))
                        .unwrap_or_else(|| "-".to_owned()),
                    l.peak_locked_venue.to_string(),
                    format!("{:.0}", l.goodput_per_sec()),
                    l.budget_violations.to_string(),
                ]);
                // Unbounded budgets are u64::MAX internally — not
                // representable as a JSON double, so emit null.
                let budget_json = if liq.budget == u64::MAX {
                    "null".to_owned()
                } else {
                    liq.budget.to_string()
                };
                cells.push(format!(
                    "{{\"protocol\": \"{protocol}\", \"policy\": \"{}\", \"budget\": {budget_json}, \
                     \"offered_per_sec\": {offered_per_sec}, \"offered\": {}, \"admitted\": {}, \
                     \"rejected\": {}, \"queued\": {}, \"success\": {}, \"violations\": {}, \
                     \"budget_violations\": {}, \"drained\": {}, \"utilization_ppm\": {}, \
                     \"goodput_per_sec\": {:.1}}}",
                    liq.policy.label(),
                    l.offered,
                    l.admitted,
                    l.rejected,
                    l.queued,
                    f.success.hits,
                    open.sim.violations,
                    l.budget_violations,
                    l.drained,
                    l.utilization_ppm.unwrap_or(0),
                    l.goodput_per_sec(),
                ));
            }
        }
    }

    args.finish_grid(sink, &table.render(), total_instances, t_all, "");
    println!(
        "time-bounded collateral conserved (locked <= budget, all venues drain): {} \
         ({} violations, {} undrained cells)",
        check(tb_colviol == 0 && tb_undrained == 0),
        tb_colviol,
        tb_undrained
    );
    println!(
        "success monotonically non-increasing in offered load \
         (every protocol, Reject frontier): {}",
        check(monotone_ok)
    );
    println!(
        "tightest budget at highest load sheds payments: {} ({} rejections)",
        check(tightest_rejected > 0),
        tightest_rejected
    );
    println!(
        "Claims: finite collateral turns success into a function of offered load; \
         queueing buys admissions with latency; the guaranteed protocol pays its \
         locked-value cost without ever breaking the collateral budget."
    );

    if !args.json.is_empty() {
        cli::write_json(&args.json, &args.grid_json(per_cell, &[], &cells));
    }

    if tb_colviol > 0 || tb_undrained > 0 || !monotone_ok || tightest_rejected == 0 {
        eprintln!("E10 exit criteria FAILED");
        std::process::exit(1);
    }
}

//! `exp11` — **E11: liquidity-aware routing over random venue networks**.
//!
//! E10 priced finite collateral on a fixed hub; every payment's path was
//! pinned at generation time, so a drained venue meant rejection even
//! when capacity sat one hop away. E11 runs the open system over large
//! random venue networks (scale-free and small-world) and lets the
//! admission gate *choose* the path: the pathfinder
//! ([`protocol::network::Router`]) searches the live collateral book for
//! the cheapest feasible route within the hop cap, splits a payment over
//! venue-disjoint paths when no single path fits, and periodic
//! rebalancing flows restore drained venues mid-campaign. The sweep
//! measures success and goodput against the **static-route baseline**
//! (the same specs, shortest-path pinned) across network size ×
//! rebalancing period × protocol.
//!
//! Faults and drift are off, as in E10: the axis under study is where
//! liquidity sits, so `success = admitted` and any gap between routed and
//! static success is pure routing economics.
//!
//! Hard exit criteria:
//!
//! * **safety at every size** — the time-bounded protocol reports zero
//!   violations and zero griefed parties in every cell, the audited
//!   locked value never exceeds any venue's budget, and every venue
//!   drains to zero;
//! * **routing beats static routes** — per network size (time-bounded
//!   cells at the tightest rebalancing period, summed over both
//!   families), the dynamic system admits at least as many payments as
//!   the static baseline, and strictly more in aggregate. Routed mode
//!   is the *harsher* liquidity model — successful payments consume
//!   venue budget until a rebalancing flow restores it, while the
//!   static baseline's book recycles in full on release — so the
//!   routing + rebalancing system must clear the static bar despite
//!   modelling drain the baseline ignores;
//! * **rebalancing bites** — every nonzero-period cell executes at least
//!   one rebalancing flow and restores liquidity.
//!
//! Usage: `cargo run --release -p xchain-sim --bin exp11 --
//! [--quick] [--threads N] [--seed S] [--payments N]
//! [--json FILE | --out DIR] [--telemetry FILE]`.
//!
//! The telemetry stream's header declares `requires =
//! "venues,route,rebalance"` ([`sim::campaign::telemetry_sink_with_requires`]):
//! `telemetry_check` then gates on the routing event series without a new
//! flag. Full per-venue series are emitted for the smallest network only
//! (4k-venue cells would dominate the artifact); every cell emits its
//! `route`/`rebalance` counters.
//!
//! **Campaign mode** (`--campaign N`): stream `N` payments through the
//! routed open system over a scale-free network (`--venues`, default
//! 4096) with rebalancing every `--rebalance-ms` (default 10), in
//! crash-safe epochs with the usual checkpoint/resume and RSS gates
//! (`--resume`, `--stop-after-epoch`, `--max-rss-mb`).

mod cli;

use anta::time::SimDuration;
use experiments::table::{check, Table};
use sim::prelude::*;
use std::time::Instant;

/// The event series the telemetry header promises `telemetry_check`.
const REQUIRES: &str = "venues,route,rebalance";

/// The tight-budget routed workload over one network family: bursty
/// arrivals, uniform plans (the router's feasibility math is per-hop
/// value), drift-free clocks so admission is the whole story.
fn network_workload(family: TopologyFamily, payments: usize, seed: u64) -> WorkloadConfig {
    let mut w = WorkloadConfig::new(family, payments, seed);
    w.amount = (100, 2_000);
    w.max_commission = 0;
    w.max_rho_ppm = (0, 0);
    w.arrivals = ArrivalProcess::Bursty {
        burst: 16,
        gap: SimDuration::from_millis(30),
    };
    w
}

fn successes(r: &OpenReport) -> usize {
    r.sim.families.iter().map(|f| f.success.hits).sum()
}

fn main() {
    let mut budget = 2_500u64;
    let mut venues = 4_096usize;
    let mut rebalance_ms = 10u64;
    let mut out = String::new();
    let mut args = cli::parse(
        "exp11",
        0xE11,
        "exp11 flags: [--out DIR] [--budget B] (grid and campaign mode),\n\
         \x20            [--venues V] [--rebalance-ms P] (campaign mode)",
        |flag, v| {
            match flag {
                "--budget" => budget = v.number(flag)?,
                "--venues" => venues = v.number(flag)?,
                "--rebalance-ms" => rebalance_ms = v.number(flag)?,
                "--out" => out = v.value(flag)?,
                _ => return Ok(false),
            }
            Ok(true)
        },
    );
    if args.campaign > 0 {
        // A streamed routed open-system campaign over one scale-free
        // network with periodic rebalancing.
        let family = TopologyFamily::ScaleFree { venues, attach: 2 };
        let routing = if rebalance_ms > 0 {
            RoutingConfig::with_rebalance(SimDuration::from_millis(rebalance_ms))
        } else {
            RoutingConfig::new()
        };
        let cfg = sim::CampaignConfig {
            liquidity: Some(LiquidityConfig::queue(budget, SimDuration::from_millis(20))),
            routing: Some(routing),
            ..args.campaign_config(network_workload(family, 0, args.seed))
        };
        cli::run_campaign(&args, TimeBoundedHarness, cfg, REQUIRES, true);
        return;
    }
    if args.json.is_empty() && !out.is_empty() {
        args.json = std::path::Path::new(&out)
            .join("EXP11_network.json")
            .display()
            .to_string();
    }
    let per_cell = args.per_cell(250, 1_500);
    let sizes: &[usize] = if args.quick {
        &[256, 1_024]
    } else {
        &[256, 1_024, 4_096]
    };
    let periods_ms: &[u64] = if args.quick { &[0, 10] } else { &[0, 50, 10] };
    let protocols = &cli::PROTOCOLS[..if args.quick { 2 } else { 5 }];
    // Tight per-venue budget relative to the (100, 2000) amount range:
    // a drained hub venue blocks static routes outright, so the router's
    // ability to divert is exactly what the sweep prices.
    let liq = LiquidityConfig::reject(budget);

    let mut table = Table::new(
        "E11 — liquidity-aware routing over random venue networks: size × rebalancing \
         period × protocol (tight budgets, faultless, drift-free; static-route baseline \
         in parentheses)",
        &[
            "protocol",
            "family",
            "venues",
            "rebal",
            "payments",
            "admitted",
            "rejected",
            "success (static)",
            "rerouted",
            "split",
            "no-path",
            "rebalances",
            "restored",
            "goodput val/s",
            "colviol",
        ],
    );

    let t_all = Instant::now();
    let mut sink = args.sink(REQUIRES);
    let mut cell_id = 0u64;
    let mut cells: Vec<String> = Vec::new();
    let mut tb_violations = 0usize;
    let mut tb_griefed = 0usize;
    let mut tb_colviol = 0usize;
    let mut tb_undrained = 0usize;
    let mut rebal_dead_cells = 0usize;
    // Per-size routed-vs-static tallies on the time-bounded cells at the
    // tightest rebalancing period: the full dynamic system against the
    // static baseline. (Rebalancing-off routed cells fight a consuming
    // book the static baseline never models, so they are reported but
    // not gated.)
    let gate_period = *periods_ms.last().expect("at least one period");
    let mut size_routed: Vec<usize> = vec![0; sizes.len()];
    let mut size_static: Vec<usize> = vec![0; sizes.len()];
    let mut total_instances = 0usize;

    for (si, &size) in sizes.iter().enumerate() {
        let families = [
            TopologyFamily::ScaleFree {
                venues: size,
                attach: 2,
            },
            TopologyFamily::SmallWorld {
                nodes: size / 2,
                rewire_permille: 100,
            },
        ];
        for family in families {
            let workload = network_workload(family, per_cell, args.seed);
            let specs = sim::workload::generate(&workload);
            let cfg = SimConfig {
                threads: args.threads,
                lock_profile: false,
                ..SimConfig::new(workload)
            };
            for &protocol in protocols {
                // The static baseline runs the same specs over their
                // generation-time shortest paths — one run per
                // (size, family, protocol), shared by every period.
                let static_report = cli::with_harness!(protocol, |h| {
                    sim::run_open_specs_with(&h, &specs, &cfg, &liq)
                });
                let static_success = successes(&static_report);
                total_instances += static_report.sim.instances;

                for &period_ms in periods_ms {
                    let routing = if period_ms > 0 {
                        RoutingConfig::with_rebalance(SimDuration::from_millis(period_ms))
                    } else {
                        RoutingConfig::new()
                    };
                    let (open, ot) = cli::with_harness!(protocol, |h| {
                        sim::run_open_specs_with_telemetry(&h, &specs, &cfg, &liq, Some(&routing))
                    });
                    let l = &open.liquidity;
                    let rs = open.routing.expect("routed runs report routing stats");
                    let success = successes(&open);
                    total_instances += open.sim.instances;

                    cell_id += 1;
                    sink.emit(
                        &telemetry::Event::new("cell")
                            .with_u64("cell", cell_id)
                            .with_str("protocol", protocol)
                            .with_str("family", workload.family.label())
                            .with_u64("venues", size as u64)
                            .with_u64("rebalance_ms", period_ms)
                            .with_u64("offered", l.offered as u64)
                            .with_u64("admitted", l.admitted as u64)
                            .with_u64("rejected", l.rejected as u64)
                            .with_u64("success", success as u64)
                            .with_u64("static_success", static_success as u64)
                            .with_u64("violations", open.sim.violations as u64)
                            .with_u64("budget_violations", l.budget_violations as u64)
                            .with_bool("drained", l.drained)
                            .with_f64("goodput_per_sec", l.goodput_per_sec()),
                    );
                    // The full per-venue series only for the smallest
                    // network — a 4k-venue series per cell would dominate
                    // the artifact; routing counters are cheap and global,
                    // so every cell emits those.
                    if size == sizes[0] {
                        ot.emit(&[("cell", cell_id)], sink.as_mut());
                    } else {
                        ot.emit_routing(&[("cell", cell_id)], sink.as_mut());
                    }

                    if protocol == "timebounded" {
                        tb_violations += open.sim.violations;
                        tb_griefed += open.sim.griefed;
                        tb_colviol += l.budget_violations;
                        tb_undrained += usize::from(!l.drained);
                        if period_ms == gate_period {
                            size_routed[si] += success;
                            size_static[si] += static_success;
                        }
                    }
                    if period_ms > 0 && (rs.rebalances == 0 || rs.restored_value == 0) {
                        rebal_dead_cells += 1;
                        eprintln!(
                            "REBALANCING DEAD: {protocol}/{}/{} venues at {period_ms} ms: \
                             {} flows, {} restored",
                            workload.family.label(),
                            size,
                            rs.rebalances,
                            rs.restored_value
                        );
                    }

                    table.push(&[
                        protocol.to_owned(),
                        workload.family.label().to_owned(),
                        size.to_string(),
                        if period_ms == 0 {
                            "off".to_owned()
                        } else {
                            format!("{period_ms}ms")
                        },
                        l.offered.to_string(),
                        l.admitted.to_string(),
                        l.rejected.to_string(),
                        format!("{success} ({static_success})"),
                        rs.rerouted.to_string(),
                        rs.split.to_string(),
                        rs.no_path.to_string(),
                        rs.rebalances.to_string(),
                        rs.restored_value.to_string(),
                        format!("{:.0}", l.goodput_per_sec()),
                        l.budget_violations.to_string(),
                    ]);
                    cells.push(format!(
                        "{{\"protocol\": \"{protocol}\", \"family\": \"{}\", \"venues\": {size}, \
                         \"rebalance_ms\": {period_ms}, \"offered\": {}, \"admitted\": {}, \
                         \"rejected\": {}, \"success\": {success}, \
                         \"static_success\": {static_success}, \"routed\": {}, \"rerouted\": {}, \
                         \"split\": {}, \"no_path\": {}, \"pathfind_calls\": {}, \"rebalances\": {}, \
                         \"restored_value\": {}, \"violations\": {}, \"griefed\": {}, \
                         \"budget_violations\": {}, \"drained\": {}, \"goodput_per_sec\": {:.1}}}",
                        workload.family.label(),
                        l.offered,
                        l.admitted,
                        l.rejected,
                        rs.routed,
                        rs.rerouted,
                        rs.split,
                        rs.no_path,
                        rs.pathfind_calls,
                        rs.rebalances,
                        rs.restored_value,
                        open.sim.violations,
                        open.sim.griefed,
                        l.budget_violations,
                        l.drained,
                        l.goodput_per_sec(),
                    ));
                }
            }
        }
    }

    args.finish_grid(sink, &table.render(), total_instances, t_all, "");
    let safety_ok = tb_violations == 0 && tb_griefed == 0 && tb_colviol == 0 && tb_undrained == 0;
    println!(
        "time-bounded safety at every network size (0 violations, 0 griefed, \
         collateral conserved): {} ({} violations, {} griefed, {} colviol, {} undrained)",
        check(safety_ok),
        tb_violations,
        tb_griefed,
        tb_colviol,
        tb_undrained
    );
    let mut routing_wins = true;
    for (si, &size) in sizes.iter().enumerate() {
        let ok = size_routed[si] >= size_static[si];
        routing_wins &= ok;
        println!(
            "dynamic routing + rebalancing >= static routes at {size} venues: {} ({} vs {})",
            check(ok),
            size_routed[si],
            size_static[si]
        );
    }
    let agg_routed: usize = size_routed.iter().sum();
    let agg_static: usize = size_static.iter().sum();
    let strictly_better = agg_routed > agg_static;
    println!(
        "dynamic routing + rebalancing strictly beats static routes in aggregate: {} ({} vs {})",
        check(strictly_better),
        agg_routed,
        agg_static
    );
    println!(
        "rebalancing flows fire and restore liquidity in every periodic cell: {} \
         ({} dead cells)",
        check(rebal_dead_cells == 0),
        rebal_dead_cells
    );
    println!(
        "Claims: admission-time pathfinding converts stranded liquidity into admitted \
         payments; rebalancing compounds the gain; the guaranteed protocol keeps its \
         zero-violation, zero-griefing guarantees on every network size."
    );

    if !args.json.is_empty() {
        let header = [("budget", budget.to_string())];
        cli::write_json(&args.json, &args.grid_json(per_cell, &header, &cells));
    }

    if !safety_ok || !routing_wins || !strictly_better || rebal_dead_cells > 0 {
        eprintln!("E11 exit criteria FAILED");
        std::process::exit(1);
    }
}

//! `exp9` — **E8 + E9: Monte Carlo traffic simulation across every
//! protocol**.
//!
//! Runs the *same* workload grid (topology family × drift envelope ×
//! fault mix, same seeds, same per-instance fault draws) through every
//! protocol harness of the workspace and prints the paper-style
//! comparison table: success rate, griefed/stuck rate, conservation
//! violations, latency percentiles, locked-value cost, lock concurrency
//! (global locked value at the in-flight peak, spoke load) and packet
//! completion per protocol. The time-bounded rows are E8, the
//! operational table the paper's theorems only bound asymptotically.
//! The paper's comparative claims become hard exit criteria:
//!
//! * the **time-bounded** protocol must show **zero** griefing and
//!   **zero** violations everywhere (the money-conservation assertion
//!   is checked on every instance);
//! * **HTLC** must grief under faults;
//! * **untuned Interledger** must show violations (it loses money) in
//!   the faulty region of the grid — if it doesn't, the baseline has
//!   stopped demonstrating the defect the comparison exists to measure;
//! * **atomic Interledger** and **certified deals** must stay safe.
//!
//! The untuned baseline runs under the adversary its synchrony model
//! permits (worst-case δ delays, extreme in-envelope drift) — success
//! guarantees are worst-case claims, and Theorem 1's schedule tolerates
//! exactly that adversary.
//!
//! Usage: `cargo run --release -p xchain-sim --bin exp9 --
//! [--quick] [--threads N] [--seed S] [--payments N] [--json FILE]
//! [--telemetry FILE]`. `--json` writes the per-cell comparison summary
//! as a machine-readable artifact (the nightly CI uploads it).
//!
//! **Campaign mode** (`--campaign N [--protocol P] [--family F]`):
//! stream `N` payments of one family through one protocol harness via
//! the crash-safe [`sim::campaign::CampaignRunner`], with `--resume PATH`
//! checkpoint/resume, `--stop-after-epoch K` to exit cleanly
//! mid-campaign, and `--max-rss-mb M` as the constant-memory gate the
//! nightly enforces (see README "Campaigns & recovery"). A time-bounded
//! campaign also fails on any conservation violation.

mod cli;

use anta::net::NetFaults;
use anta::time::SimDuration;
use experiments::table::{check, Table};
use sim::prelude::*;
use std::time::Instant;

fn campaign_family(label: &str) -> TopologyFamily {
    match label {
        "linear" => TopologyFamily::Linear { n: 4 },
        "hub" => TopologyFamily::HubAndSpoke { spokes: 16 },
        "tree" => TopologyFamily::RandomTree { nodes: 48 },
        "packet" => TopologyFamily::Packetized { paths: 4, hops: 2 },
        other => {
            eprintln!("unknown --family {other} (want linear|hub|tree|packet)");
            std::process::exit(2);
        }
    }
}

fn fault_levels() -> Vec<(&'static str, FaultPlan)> {
    let byz = FaultPlan {
        crash_permille: 60,
        late_bob_permille: 30,
        forging_chloe_permille: 30,
        thieving_escrow_permille: 30,
        net: NetFaults::NONE,
    };
    let net = NetFaults {
        drop_permille: 20,
        delay_permille: 150,
        extra_delay: SimDuration::from_millis(5),
        delay_buckets: 4,
    };
    vec![
        ("none", FaultPlan::NONE),
        ("byz", byz),
        ("byz+net", FaultPlan { net, ..byz }),
    ]
}

/// Accumulated per-protocol tallies for the exit criteria.
#[derive(Default)]
struct ProtocolTally {
    violations: usize,
    griefed: usize,
    /// Violations restricted to faulty cells (drift > 0 or fault mix on).
    faulty_cell_violations: usize,
}

fn dash_or<T: ToString>(v: Option<T>) -> String {
    v.map(|v| v.to_string()).unwrap_or_else(|| "-".to_owned())
}

fn main() {
    let mut family = "linear".to_owned();
    let mut protocol = "timebounded".to_owned();
    let args = cli::parse(
        "exp9",
        0xE9,
        "exp9 flags: [--family linear|hub|tree|packet] [--protocol P] (campaign mode)",
        |flag, v| {
            match flag {
                "--family" => family = v.value(flag)?,
                "--protocol" => protocol = v.value(flag)?,
                _ => return Ok(false),
            }
            Ok(true)
        },
    );
    if args.campaign > 0 {
        let workload = WorkloadConfig::new(campaign_family(&family), 0, args.seed);
        // The checkpoint digest is keyed by `harness.name()`, so each
        // protocol's campaign is its own resume lineage.
        cli::with_harness!(protocol.as_str(), |h| {
            if !h.supports(&workload) {
                eprintln!(
                    "{} does not support the {family} family; pick another --protocol/--family",
                    h.name()
                );
                std::process::exit(2);
            }
            let conservation = h.name() == "timebounded";
            cli::run_campaign(&args, h, args.campaign_config(workload), "", conservation)
        });
        return;
    }
    let per_cell = args.per_cell(120, 1_000);

    let families = [
        TopologyFamily::Linear { n: 4 },
        TopologyFamily::HubAndSpoke { spokes: 16 },
        TopologyFamily::RandomTree { nodes: 48 },
        TopologyFamily::Packetized { paths: 4, hops: 2 },
    ];
    let drifts: [u64; 2] = [0, 100_000];

    let mut table = Table::new(
        "E9 — cross-protocol Monte Carlo comparison (same workload, same fault draws)",
        &[
            "protocol",
            "family",
            "rho<=(ppm)",
            "faults",
            "payments",
            "success",
            "griefed",
            "refund",
            "stuck",
            "viol",
            "latency p50/p99/max (ms)",
            "locked p99",
            "glob lock@peak",
            "inflight",
            "spoke max",
            "packets ok/part/all",
            "pay/s",
        ],
    );

    let t_all = Instant::now();
    let mut sink = args.sink("");
    let mut tallies: [ProtocolTally; 5] = Default::default();
    let mut total_instances = 0usize;
    let mut cell = 0u64;
    let mut json_cells: Vec<String> = Vec::new();
    for family in families {
        for rho in drifts {
            for (flabel, faults) in fault_levels() {
                cell += 1;
                let mut workload = WorkloadConfig::new(
                    family,
                    per_cell,
                    args.seed.wrapping_mul(0x9E37_79B9).wrapping_add(cell),
                );
                workload.max_rho_ppm = (0, rho);
                let cfg = SimConfig {
                    faults,
                    threads: args.threads,
                    ..SimConfig::new(workload)
                };
                let faulty_cell = rho > 0 || !faults.is_none();
                // Generated once per cell, outside the timed region, so
                // every protocol sees the identical spec list and the
                // pay/s column measures the parallel runner only.
                let specs = sim::workload::generate(&cfg.workload);

                for (name, tally) in cli::PROTOCOLS.into_iter().zip(&mut tallies) {
                    let run = cli::with_harness!(name, |h| h.supports(&cfg.workload).then(|| {
                        let t0 = Instant::now();
                        let report = sim::run_specs_with(&h, &specs, &cfg);
                        (report, t0.elapsed().as_secs_f64())
                    }));
                    let Some((report, wall)) = run else {
                        continue;
                    };
                    let f = report.families.first().expect("one family per cell");
                    let pay_per_s = report.instances as f64 / wall.max(1e-9);
                    json_cells.push(format!(
                        "{{\"protocol\": \"{name}\", \"family\": \"{}\", \
                         \"rho_ppm\": {rho}, \"faults\": \"{flabel}\", \"payments\": {}, \
                         \"success\": {}, \"griefed\": {}, \"refunds\": {}, \"stuck\": {}, \
                         \"violations\": {}}}",
                        f.family,
                        f.instances,
                        f.success.hits,
                        f.griefed,
                        f.refunds,
                        f.stuck,
                        f.violations,
                    ));
                    sink.emit(
                        &telemetry::Event::new("cell")
                            .with_u64("cell", cell)
                            .with_str("protocol", name)
                            .with_str("family", f.family)
                            .with_u64("rho_ppm", rho)
                            .with_str("faults", flabel)
                            .with_u64("payments", f.instances as u64)
                            .with_u64("success", f.success.hits as u64)
                            .with_u64("griefed", f.griefed as u64)
                            .with_u64("refunds", f.refunds as u64)
                            .with_u64("stuck", f.stuck as u64)
                            .with_u64("violations", f.violations as u64)
                            .with_f64("wall_s", wall)
                            .with_f64("payments_per_sec", pay_per_s),
                    );
                    tally.violations += report.violations;
                    tally.griefed += report.griefed;
                    if faulty_cell {
                        tally.faulty_cell_violations += report.violations;
                    }
                    total_instances += report.instances;
                    table.push(&[
                        name.to_owned(),
                        f.family.to_owned(),
                        rho.to_string(),
                        flabel.to_owned(),
                        f.instances.to_string(),
                        f.success.render(),
                        f.griefed.to_string(),
                        f.refunds.to_string(),
                        f.stuck.to_string(),
                        f.violations.to_string(),
                        sim::metrics::render_latency_ms(&f.latency),
                        dash_or(f.peak_locked.as_ref().map(|s| s.p99)),
                        dash_or(report.peak_locked_global),
                        report.peak_in_flight.to_string(),
                        dash_or(f.spoke_load.as_ref().map(|s| s.max)),
                        dash_or(
                            f.packets
                                .map(|p| format!("{}/{}/{}", p.complete, p.partial, p.total)),
                        ),
                        format!("{pay_per_s:.0}"),
                    ]);
                }
            }
        }
    }

    args.finish_grid(
        sink,
        &table.render(),
        total_instances,
        t_all,
        "; htlc skips packetized cells (supports() gate)",
    );
    let [tb, htlc, untuned, atomic, deals] = &tallies;
    println!(
        "time-bounded: zero griefing: {} | zero violations: {}",
        check(tb.griefed == 0),
        check(tb.violations == 0)
    );
    println!(
        "HTLC griefs under faults: {} ({} griefed instances)",
        check(htlc.griefed > 0),
        htlc.griefed
    );
    println!(
        "untuned Interledger loses money in faulty cells: {} ({} violations)",
        check(untuned.faulty_cell_violations > 0),
        untuned.faulty_cell_violations
    );
    println!(
        "atomic Interledger & deals stay safe (no violations): {} / {}",
        check(atomic.violations == 0),
        check(deals.violations == 0)
    );
    println!(
        "Claims: the time-bounded protocol alone combines guaranteed success \
         with bounded refunds — no-fault cells succeed 100%, faults cost it liveness, \
         never conservation, and drift within the envelope costs nothing; HTLC griefs, \
         untuned Interledger loses money, atomic Interledger and certified deals abort \
         honest runs."
    );

    if !args.json.is_empty() {
        cli::write_json(&args.json, &args.grid_json(per_cell, &[], &json_cells));
    }

    // Every printed criterion is an exit criterion: the comparison is
    // meaningless if the guaranteed protocol breaks, if a baseline stops
    // demonstrating its documented defect, or if a safe baseline breaks
    // conservation.
    let gate_failed = tb.griefed > 0
        || tb.violations > 0
        || htlc.griefed == 0
        || untuned.faulty_cell_violations == 0
        || atomic.violations > 0
        || deals.violations > 0;
    if gate_failed {
        eprintln!("E9 exit criteria FAILED");
        std::process::exit(1);
    }
}

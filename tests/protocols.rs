//! Workspace-level checks of the protocol abstraction layer: every
//! harness drives the same Monte-Carlo pipeline, reports are bit-identical
//! across thread counts for every protocol (the E9 determinism
//! guarantee), and the baseline classifiers are *sound* — a run whose
//! engine state shows a safety break is never reported as a success, no
//! matter which composed fault plan produced it.

use crosschain::anta::net::NetFaults;
use crosschain::anta::oracle::RandomOracle;
use crosschain::anta::time::SimDuration;
use crosschain::anta::trace::TraceMode;
use crosschain::htlc::{ChainProcess, HtlcState};
use crosschain::protocol::harness::sample_instance_faults;
use crosschain::protocol::htlc::{CHAIN_A_PID, CHAIN_B_PID};
use crosschain::protocol::interledger::IlpInstance;
use crosschain::protocol::{
    DealsHarness, HtlcHarness, InterledgerHarness, ProtocolHarness, ProtocolOutcome,
    TimeBoundedHarness,
};
use crosschain::sim::prelude::*;
use crosschain::sim::FamilyStats;
use proptest::prelude::*;

fn digest(f: &FamilyStats) -> (usize, usize, usize, usize, usize, usize, Option<u64>) {
    (
        f.instances,
        f.success.hits,
        f.refunds,
        f.stuck,
        f.violations,
        f.griefed,
        f.latency.as_ref().map(|l| l.max),
    )
}

fn faulty_plan() -> FaultPlan {
    FaultPlan {
        crash_permille: 120,
        late_bob_permille: 40,
        forging_chloe_permille: 40,
        thieving_escrow_permille: 40,
        net: NetFaults {
            drop_permille: 25,
            delay_permille: 120,
            extra_delay: SimDuration::from_millis(4),
            delay_buckets: 4,
        },
    }
}

/// The E9 determinism guarantee: for every protocol harness, the same
/// campaign produces a bit-identical report at `threads = 1` and
/// `threads = 4` — mirroring the time-bounded check in `tests/sim.rs`.
#[test]
fn every_protocol_report_is_identical_across_thread_counts() {
    let run_one = |harness: &dyn Fn(&[PaymentSpec], &SimConfig) -> SimReport, threads: usize| {
        let cfg = SimConfig {
            threads,
            faults: faulty_plan(),
            batch: 32,
            lock_profile: false,
            ..SimConfig::new(WorkloadConfig::new(
                TopologyFamily::Linear { n: 3 },
                72,
                0xE9,
            ))
        };
        harness(&crosschain::sim::workload::generate(&cfg.workload), &cfg)
    };
    type HarnessRunner = Box<dyn Fn(&[PaymentSpec], &SimConfig) -> SimReport>;
    let harnesses: Vec<(&str, HarnessRunner)> = vec![
        (
            "timebounded",
            Box::new(|specs, cfg| crosschain::sim::run_specs_with(&TimeBoundedHarness, specs, cfg)),
        ),
        (
            "htlc",
            Box::new(|specs, cfg| crosschain::sim::run_specs_with(&HtlcHarness, specs, cfg)),
        ),
        (
            "ilp-untuned",
            Box::new(|specs, cfg| {
                crosschain::sim::run_specs_with(&InterledgerHarness::untuned(), specs, cfg)
            }),
        ),
        (
            "ilp-atomic",
            Box::new(|specs, cfg| {
                crosschain::sim::run_specs_with(&InterledgerHarness::atomic(), specs, cfg)
            }),
        ),
        (
            "deals",
            Box::new(|specs, cfg| crosschain::sim::run_specs_with(&DealsHarness, specs, cfg)),
        ),
    ];
    for (name, harness) in &harnesses {
        let serial = run_one(harness, 1);
        let parallel = run_one(harness, 4);
        assert_eq!(serial.instances, parallel.instances, "{name}");
        assert_eq!(serial.violations, parallel.violations, "{name}");
        assert_eq!(serial.griefed, parallel.griefed, "{name}");
        for (a, b) in serial.families.iter().zip(&parallel.families) {
            assert_eq!(digest(a), digest(b), "{name}");
        }
    }
}

/// The comparative claims as workspace assertions on a faulty drifted
/// grid cell: time-bounded shows neither griefing nor violations; HTLC
/// griefs; the untuned schedule loses money.
#[test]
fn comparative_claims_hold_on_a_faulty_cell() {
    let mut workload = WorkloadConfig::new(TopologyFamily::Linear { n: 4 }, 96, 0xC0);
    workload.max_rho_ppm = (0, 100_000);
    let cfg = SimConfig {
        faults: FaultPlan {
            crash_permille: 60,
            late_bob_permille: 30,
            forging_chloe_permille: 30,
            thieving_escrow_permille: 30,
            net: NetFaults::NONE,
        },
        lock_profile: false,
        ..SimConfig::new(workload)
    };
    let specs = crosschain::sim::workload::generate(&cfg.workload);
    let tb = crosschain::sim::run_specs_with(&TimeBoundedHarness, &specs, &cfg);
    assert_eq!(tb.griefed, 0, "time-bounded never griefs");
    assert_eq!(tb.violations, 0, "time-bounded never violates");
    let htlc = crosschain::sim::run_specs_with(&HtlcHarness, &specs, &cfg);
    assert!(htlc.griefed > 0, "HTLC must grief under abandonment faults");
    let untuned = crosschain::sim::run_specs_with(&InterledgerHarness::untuned(), &specs, &cfg);
    assert!(
        untuned.violations > 0,
        "the untuned schedule must lose money under drift"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// Soundness of the HTLC classifier under composed fault plans: if the
    /// harness says Success, the engine's final chain state must show both
    /// legs claimed and both books balanced — i.e. a run that actually
    /// violated safety can never be reported as a success.
    #[test]
    fn prop_htlc_never_reports_violation_as_success(
        seed in 0u64..100_000,
        crash in 0u32..300,
        late in 0u32..300,
        drop in 0u32..60,
        delay in 0u32..200,
    ) {
        let plan = FaultPlan {
            crash_permille: crash,
            late_bob_permille: late,
            net: NetFaults {
                drop_permille: drop,
                delay_permille: delay,
                extra_delay: SimDuration::from_millis(4),
                delay_buckets: 4,
            },
            ..FaultPlan::NONE
        };
        let specs = crosschain::sim::workload::generate(
            &WorkloadConfig::new(TopologyFamily::Linear { n: 2 }, 3, seed),
        );
        for spec in &specs {
            let harness = HtlcHarness;
            // Re-run the exact engine the harness classified, and audit it.
            let faults = sample_instance_faults(&harness, spec, &plan);
            let inst = harness.instance(spec, &faults);
            let mut eng = harness.build_engine(
                &inst,
                spec,
                Box::new(RandomOracle::seeded(spec.seed)),
                TraceMode::CountersOnly,
            );
            let report = eng.run();
            let outcome =
                harness.classify(&eng, &inst, spec, report.quiescent, report.truncated);

            let a = eng.process_as::<ChainProcess>(CHAIN_A_PID).unwrap().chain();
            let b = eng.process_as::<ChainProcess>(CHAIN_B_PID).unwrap().chain();
            let conserved = a.ledger().check_conservation().is_ok()
                && b.ledger().check_conservation().is_ok();
            let asymmetric = matches!(
                (a.contract(0).map(|c| c.state), b.contract(0).map(|c| c.state)),
                (Some(HtlcState::Claimed), Some(HtlcState::Reclaimed))
                    | (Some(HtlcState::Reclaimed), Some(HtlcState::Claimed))
            );
            if outcome == ProtocolOutcome::Success {
                prop_assert!(conserved, "success with an unbalanced book");
                prop_assert!(!asymmetric, "success despite one-sided settlement");
                prop_assert_eq!(a.contract(0).unwrap().state, HtlcState::Claimed);
                prop_assert_eq!(b.contract(0).unwrap().state, HtlcState::Claimed);
            }
            if !conserved || asymmetric {
                prop_assert_eq!(
                    outcome,
                    ProtocolOutcome::Violation,
                    "a safety break must classify as Violation"
                );
            }
        }
    }

    /// Soundness of the untuned-Interledger classifier: a Success report
    /// requires Bob actually paid, every book balanced, net positions
    /// summing to zero, and no compliant participant out of pocket.
    #[test]
    fn prop_untuned_never_reports_violation_as_success(
        seed in 0u64..100_000,
        rho in 0u64..150_000,
        crash in 0u32..300,
        thieving in 0u32..200,
        drop in 0u32..60,
    ) {
        let plan = FaultPlan {
            crash_permille: crash,
            thieving_escrow_permille: thieving,
            net: NetFaults {
                drop_permille: drop,
                delay_permille: 100,
                extra_delay: SimDuration::from_millis(3),
                delay_buckets: 4,
            },
            ..FaultPlan::NONE
        };
        let mut w = WorkloadConfig::new(TopologyFamily::Linear { n: 3 }, 3, seed);
        w.max_rho_ppm = (0, rho);
        for spec in &crosschain::sim::workload::generate(&w) {
            let harness = InterledgerHarness::untuned();
            let faults = sample_instance_faults(&harness, spec, &plan);
            let inst = harness.instance(spec, &faults);
            let mut eng = harness.build_engine(
                &inst,
                spec,
                Box::new(RandomOracle::seeded(spec.seed)),
                TraceMode::CountersOnly,
            );
            let report = eng.run();
            let outcome =
                harness.classify(&eng, &inst, spec, report.quiescent, report.truncated);
            let IlpInstance::Untuned(chain) = &inst else {
                panic!("untuned harness built an atomic instance")
            };
            let o = crosschain::payment::timebounded::ChainOutcome::extract(
                &eng,
                &chain.setup,
                report.quiescent,
            );
            if outcome == ProtocolOutcome::Success {
                prop_assert!(o.bob_paid(), "success without payment");
                for c in o.conservation.iter().flatten() {
                    prop_assert!(*c, "success with an unbalanced escrow book");
                }
                if o.net_positions.iter().all(Option::is_some) {
                    let sum: i64 = o.net_positions.iter().flatten().sum();
                    prop_assert_eq!(sum, 0, "success with net positions {:?}", o.net_positions);
                }
            }
            if o.conservation.contains(&Some(false)) {
                prop_assert_eq!(outcome, ProtocolOutcome::Violation);
            }
        }
    }
}

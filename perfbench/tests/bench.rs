//! Tests of the benchmark's own code: the timing wrappers must not change
//! what the model computes, the metric names must be valid and match
//! `BENCHMARK.json`, and the output checks must pass on a seed other than
//! the one the benchmark was tuned on.

use perfbench::layers::{HarnessClock, TimedHarness, TimedSink};
use perfbench::{
    check_arrivals, hub_config, routed_liquidity, routed_routing, routed_workload, Workload,
    END_TO_END, FAULTS, PER_LAYER,
};
use sim::campaign::{CampaignConfig, CampaignRunner};
use sim::{SimConfig, TimeBoundedHarness};
use std::process::Command;
use telemetry::{NullSink, RingSink};

fn small_hub() -> CampaignConfig {
    CampaignConfig {
        total_payments: 1_200,
        epoch_payments: 400,
        threads: 1,
        ..hub_config(7)
    }
}

#[test]
fn timed_wrappers_leave_the_campaign_digest_bit_identical() {
    let mut plain = CampaignRunner::new(TimeBoundedHarness, small_hub());
    plain
        .run_to_end_with_telemetry(None, None, &mut NullSink, 1, |_| {})
        .unwrap();

    let clock = HarnessClock::default();
    let mut ring = RingSink::new(4_096);
    let mut sink = TimedSink::new(&mut ring);
    let mut timed = CampaignRunner::new(TimedHarness::new(TimeBoundedHarness, &clock), small_hub());
    timed
        .run_to_end_with_telemetry(None, None, &mut sink, 1, |_| {})
        .unwrap();

    assert_eq!(plain.report().digest, timed.report().digest);
    assert_eq!(plain.report().config_digest, timed.report().config_digest);
    let admitted = plain.report().tally.liquidity.unwrap().admitted;
    let times = clock.times();
    assert_eq!(
        times.instances, admitted,
        "one instance per admitted payment"
    );
    assert!(times.engine_s > 0.0 && times.msgs_sent >= times.msgs_delivered);
    assert!(sink.events > 0);
    assert_eq!(sink.events, ring.total_seen());
}

#[test]
fn timed_harness_leaves_the_routed_report_bit_identical() {
    let mut wl = routed_workload(7, 1);
    wl.payments = 300;
    let specs = sim::workload::generate(&wl);
    let cfg = SimConfig {
        faults: FAULTS,
        threads: 1,
        ..SimConfig::new(wl)
    };
    let (liq, routing) = (routed_liquidity(), routed_routing());
    let plain = sim::run_open_specs_routed_with(&TimeBoundedHarness, &specs, &cfg, &liq, &routing);
    let clock = HarnessClock::default();
    let harness = TimedHarness::new(TimeBoundedHarness, &clock);
    let timed = sim::run_open_specs_routed_with(&harness, &specs, &cfg, &liq, &routing);
    assert_eq!(format!("{plain:?}"), format!("{timed:?}"));
    assert!(clock.times().instances >= plain.liquidity.admitted as u64);
}

#[test]
fn timed_sink_leaves_the_explorer_verdict_unchanged() {
    let plain = experiments::e4::explore_instance_dpor(2, 1, 1_000_000, 1);
    let mut null = NullSink;
    let mut sink = TimedSink::new(&mut null);
    let timed = experiments::e4::explore_instance_dpor_with(2, 1, 1_000_000, 1, &mut sink);
    assert!(plain.exhausted && plain.violations.is_empty());
    assert_eq!(
        (plain.exhausted, plain.runs, plain.dedup_hits),
        (timed.exhausted, timed.runs, timed.dedup_hits)
    );
    assert!(sink.events > 0);
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn metric_names_are_valid_unique_and_listed_in_benchmark_json() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    for (name, unit) in &all {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?}"
        );
    }
    let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "duplicate metric name");

    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
    for (name, unit) in &all {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        all.len() + Workload::ALL.len(),
        "BENCHMARK.json lists a name the benchmark does not report"
    );
}

#[test]
fn arrival_check_rejects_a_late_payment() {
    let mut wl = routed_workload(3, 0);
    wl.payments = 100;
    let mut specs = sim::workload::generate(&wl);
    check_arrivals(&specs).unwrap();
    specs[40].arrival = anta::time::SimTime::from_ticks(specs[40].arrival.ticks() + 1);
    assert!(check_arrivals(&specs).is_err());
}

/// Runs the benchmark binary and returns its last stdout line.
fn bench(workload: Workload, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap().to_owned()
}

#[test]
fn output_checks_pass_on_a_second_seed() {
    for w in Workload::ALL {
        for trace in [0, 1] {
            let last = bench(w, 2, trace);
            assert!(last.starts_with("{\"correct\": true, "), "{last}");
            assert!(last.contains("\"failed\": 0, "), "{last}");
            let metrics: &[(&str, &str)] = if trace == 0 { &END_TO_END } else { &PER_LAYER };
            for (name, _) in metrics {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}: {last}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

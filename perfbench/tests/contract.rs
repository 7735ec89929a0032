//! The benchmark's own checks: the metric catalogue is well formed and
//! matches `BENCHMARK.json`, a corrupted pin is reported as a failure,
//! and the current build runs with no failures.

use bgp_perfbench::catalog::{self, END_TO_END};
use bgp_perfbench::digest::Pins;
use bgp_perfbench::measure::Report;
use bgp_perfbench::{init_process, run, RunConfig, Workload};
use std::sync::Mutex;
use std::time::Duration;

/// Workload runs share the process-global cache and obs registry, so
/// they must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn run_once(workload: Workload, trace: bool, pins: &Pins) -> Report {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    init_process();
    // A zero budget runs exactly one timed pass or round.
    run(&RunConfig { workload, seed: 7, budget: Duration::ZERO, trace }, pins)
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn catalogue_is_well_formed() {
    let per_layer = catalog::per_layer();
    assert!(END_TO_END.len() <= 16, "at most 16 end-to-end metrics");
    assert!(per_layer.len() <= 128, "at most 128 per-layer metrics");
    let all: Vec<_> = END_TO_END.iter().chain(&per_layer).collect();
    for (n, u) in &all {
        assert!(valid_name(n), "bad metric name {n:?}");
        assert!(valid_unit(u), "bad unit {u:?} for {n}");
    }
    let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names are unique");
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let per_layer = catalog::per_layer();
    for (n, u) in END_TO_END.iter().chain(&per_layer) {
        let entry = format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        END_TO_END.len() + per_layer.len(),
        "BENCHMARK.json lists exactly the catalogue"
    );
    for w in Workload::ALL {
        let listed = json.contains(&format!("{{\"name\": \"{}\"", w.name()));
        assert_eq!(listed, Workload::LISTED.contains(&w), "workload {}", w.name());
    }
}

#[test]
fn pins_parse_strictly() {
    assert!(Pins::parse("quick fig1 00ff\n# comment\n\n").is_ok());
    assert!(Pins::parse("quick fig1").is_err(), "missing digest");
    assert!(Pins::parse("quick fig1 zz").is_err(), "non-hex digest");
    assert!(Pins::parse("quick fig1 1\nquick fig1 2").is_err(), "duplicate key");
    Pins::builtin(); // the committed pins parse
}

#[test]
fn corrupted_battery_pin_is_a_failure() {
    let mut pins = Pins::builtin();
    pins.set("quick", "fig3", 0);
    let r = run_once(Workload::QuickBattery, false, &pins);
    // The five set-up passes and the one timed pass each check fig3.
    assert_eq!((r.attempted, r.failed), (72, 6));
    assert!(!r.correct());
}

#[test]
fn corrupted_sweep_pin_is_a_failure() {
    let mut pins = Pins::builtin();
    pins.set("sweep", "r4096.w2048.mapping", 0);
    let r = run_once(Workload::FlatSweep, false, &pins);
    assert_eq!(r.failed, 12, "the 12 mapping points of the corrupted trace");
    assert!(!r.correct());
}

#[test]
fn quick_battery_has_no_failures() {
    let r = run_once(Workload::QuickBattery, true, &Pins::builtin());
    assert_eq!((r.attempted, r.failed), (84, 0), "five set-up, one untraced, one traced pass");
    assert_eq!(r.get("fail_ratio"), Some(0.0));
    assert_eq!(r.get("mpi.dag.points"), Some(0.0), "the default engine evaluates no DAG point");
    for n in catalog::EXPERIMENT_BUSY {
        assert!(r.get(n).is_some_and(|v| v > 0.0), "{n} measured");
    }
    assert!(r.get("mpi.sim.replay_runs").is_some_and(|v| v > 0.0));
    assert!(r.get("cache.result.misses").is_some_and(|v| v > 0.0));
    assert!(r.get("core.report.bytes").is_some_and(|v| v > 0.0));
}

#[test]
fn flat_sweep_has_no_failures() {
    let r = run_once(Workload::FlatSweep, true, &Pins::builtin());
    assert!(r.attempted > 0);
    assert_eq!(r.failed, 0);
    assert_eq!(r.get("fail_ratio"), Some(0.0));
    for n in [
        "mpi.dag.points",
        "mpi.dag.eval.mapping.busy_s",
        "mpi.dag.eval.perturbed.busy_s",
        "mpi.record.ops",
        "mpi.dag.compile.nodes",
        "mpi.sim.check.ops",
    ] {
        assert!(r.get(n).is_some_and(|v| v > 0.0), "{n} measured");
    }
    assert_eq!(r.get("mpi.sim.replay_runs"), Some(0.0), "the timed legs never replay");
    assert_eq!(r.get("cache.result.lookups"), Some(0.0), "the sweep bypasses the cache");
}

#[test]
fn sweep_inputs_come_from_the_seed() {
    use bgp_perfbench::sweep::{samples, SAMPLES};
    assert_eq!(samples(7, SAMPLES), samples(7, SAMPLES), "same seed, same inputs");
    assert_ne!(samples(7, SAMPLES), samples(8, SAMPLES), "another seed, other inputs");
}

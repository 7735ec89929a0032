//! The `flat-sweep` workload: the DAG what-if path on the
//! flat-contention BG/P variant, at Fig 2(c,d)'s paper rank counts.
//!
//! Set-up records each HALO trace (eager and rendezvous halo sizes at
//! 4096 and 8192 ranks) and compiles it once. A timed round then runs
//! two legs over every trace: `evaluate_many` over the 12 predefined
//! mappings, and `evaluate_perturbed` over seeded Monte-Carlo samples
//! in 32-sample chunks. Replay and the scenario cache are not called
//! in the timed region.
//!
//! Checks, all outside the timed region: the mapping leg's bits match
//! their pins; a pinned-seed perturbed batch matches its pins; a fixed
//! subset of seeded samples evaluated one at a time agrees bit for bit
//! with the batched pass; a fixed subset of mapping points re-replayed
//! through `TraceSim::replay_traces` agrees bit for bit with the DAG;
//! and every round reproduces the first round's makespans.

use crate::digest::{Fnv, Pins};
use crate::measure::{
    another_fits, fresh_round, median, peak_rss_mib, ratio, report_cache, secs_since, Report,
};
use crate::RunConfig;
use hpcsim_hpcc::{halo_traces, HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::{ExecMode, MachineSpec, PerturbSpec, Perturbation, PerturbationSampler};
use hpcsim_mpi::{Op, RankLayout, SimConfig, SimResult, TraceDag, TraceSim};
use hpcsim_topo::{Grid2D, Mapping};
use std::time::Instant;

/// Fig 2(c,d) paper rank counts.
const RANKS: [usize; 2] = [4096, 8192];
/// Halo words: eager (2048) and rendezvous (32768) protocol sizes.
const WORDS: [u64; 2] = [2048, 32768];
/// Exchange rounds per trace, as Fig 2 records them.
const REPS: u32 = 2;
/// Samples per `evaluate_perturbed` call: the engine's widest lane batch.
const CHUNK: usize = 32;
/// Seeded perturbation samples per trace per round.
pub const SAMPLES: usize = 32;
/// Seed of the pinned perturbed batch, independent of `--seed`.
const PIN_SEED: u64 = 0x5eed_0001;
/// Mappings (indices into `Mapping::predefined()`) re-replayed for the
/// cross-check: XYZT and TZYX.
const CHECK_MAPPINGS: [usize; 2] = [0, 11];
/// Seeded samples per trace re-evaluated one at a time.
const CHECK_SAMPLES: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;

/// One recorded and compiled HALO trace with its sweep points.
struct Case {
    /// `r<ranks>.w<words>`: the pin key prefix.
    label: String,
    traces: Vec<Vec<Op>>,
    dag: TraceDag,
    /// One config per predefined mapping.
    mapping_cfgs: Vec<SimConfig>,
    /// The default TXYZ point the Monte-Carlo leg perturbs.
    base: SimConfig,
}

/// Seconds spent in one set-up.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    record_s: f64,
    compile_s: f64,
}

/// Record and compile every trace.
fn setup(machine: &MachineSpec) -> (Vec<Case>, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut cases = Vec::new();
    for ranks in RANKS {
        for words in WORDS {
            let grid = Grid2D::near_square(ranks);
            let cfg = HaloConfig { grid, words, protocol: HaloProtocol::IrecvIsend, reps: REPS };
            let t0 = Instant::now();
            let traces = halo_traces(&cfg);
            let t1 = Instant::now();
            let dag = TraceDag::compile_world(&traces);
            times.record_s += (t1 - t0).as_secs_f64();
            times.compile_s += secs_since(t1);
            let point = |mapping| SimConfig {
                machine: machine.clone(),
                mode: ExecMode::Vn,
                threads: 1,
                layout: RankLayout::bluegene(machine, ranks, ExecMode::Vn, mapping),
            };
            cases.push(Case {
                label: format!("r{ranks}.w{words}"),
                mapping_cfgs: Mapping::predefined().into_iter().map(|(_, m)| point(m)).collect(),
                base: point(Mapping::txyz()),
                traces,
                dag,
            });
        }
    }
    (cases, times)
}

/// The Monte-Carlo inputs drawn from `seed`: the only place the seed
/// enters the workload.
pub fn samples(seed: u64, n: usize) -> Vec<Perturbation> {
    let sampler = PerturbationSampler::new(seed, PerturbSpec::default());
    (0..n as u64).map(|i| sampler.sample(i)).collect()
}

fn perturbed(case: &Case, samples: &[Perturbation]) -> Vec<SimResult> {
    samples.chunks(CHUNK).flat_map(|ch| case.dag.evaluate_perturbed(&case.base, ch)).collect()
}

/// Digest of a list of results: every rank's finish and busy time,
/// bytes and message counts.
fn digest(results: &[SimResult]) -> u64 {
    let mut h = Fnv::default();
    for r in results {
        r.finish.iter().chain(&r.busy).for_each(|t| {
            h.u64(t.0);
        });
        h.u64(r.bytes_sent).u64(r.messages);
    }
    h.finish()
}

fn same(a: &SimResult, b: &SimResult) -> bool {
    a.finish == b.finish
        && a.busy == b.busy
        && a.bytes_sent == b.bytes_sent
        && a.messages == b.messages
        && a.marks == b.marks
}

/// Every point's makespan in a round, mapping leg first.
fn makespans(r: &Round) -> Vec<u64> {
    r.mapping.iter().chain(&r.perturbed).flatten().map(|p| p.makespan().0).collect()
}

/// One timed round's outputs and leg times.
struct Round {
    wall_s: f64,
    /// Per-leg seconds (traced rounds only).
    mapping_s: f64,
    perturbed_s: f64,
    mapping: Vec<Vec<SimResult>>,
    perturbed: Vec<Vec<SimResult>>,
}

fn round(cases: &[Case], samples: &[Perturbation], traced: bool) -> Round {
    let t0 = Instant::now();
    let mapping: Vec<Vec<SimResult>> =
        cases.iter().map(|c| c.dag.evaluate_many(&c.mapping_cfgs)).collect();
    let t1 = traced.then(Instant::now);
    let perturbed: Vec<Vec<SimResult>> = cases.iter().map(|c| perturbed(c, samples)).collect();
    let wall_s = secs_since(t0);
    let (mapping_s, perturbed_s) = match t1 {
        Some(t1) => ((t1 - t0).as_secs_f64(), wall_s - (t1 - t0).as_secs_f64()),
        None => (0.0, 0.0),
    };
    Round { wall_s, mapping_s, perturbed_s, mapping, perturbed }
}

/// Checks that run once, on the first round's outputs. Returns the
/// replay cross-check's seconds and replayed ops.
fn check_first(
    report: &mut Report,
    pins: &Pins,
    cases: &[Case],
    seeded: &[Perturbation],
    first: &Round,
) -> (f64, u64) {
    let pinned = samples(PIN_SEED, CHUNK);
    let (mut check_s, mut check_ops) = (0.0, 0u64);
    for (i, case) in cases.iter().enumerate() {
        let map = &first.mapping[i];
        let map_ok = report.verify(pins, "sweep", &format!("{}.mapping", case.label), digest(map));
        report.ops(map.len() as u64, if map_ok { 0 } else { map.len() as u64 });

        let pin_res = perturbed(case, &pinned);
        let pin_ok =
            report.verify(pins, "sweep", &format!("{}.perturbed", case.label), digest(&pin_res));
        report.ops(pin_res.len() as u64, if pin_ok { 0 } else { pin_res.len() as u64 });

        // Seeded samples: the batched lanes must equal one-at-a-time
        // evaluation, and the batch path must be the one the pins hold.
        let singles_ok = seeded[..CHECK_SAMPLES].iter().zip(&first.perturbed[i]).all(|(s, r)| {
            same(&case.dag.evaluate_perturbed(&case.base, std::slice::from_ref(s))[0], r)
        });
        let n = first.perturbed[i].len() as u64;
        report.ops(n, if singles_ok && pin_ok { 0 } else { n });

        for &m in &CHECK_MAPPINGS {
            let t0 = Instant::now();
            let replayed = TraceSim::new(case.mapping_cfgs[m].clone()).replay_traces(&case.traces);
            check_s += secs_since(t0);
            check_ops += case.traces.iter().map(|t| t.len() as u64).sum::<u64>();
            report.ops(1, u64::from(!same(&replayed, &map[m])));
        }
    }
    (check_s, check_ops)
}

/// Run the `flat-sweep` workload.
pub fn run(cfg: &RunConfig, pins: &Pins) -> Report {
    let mut report = Report::default();
    let machine = bluegene_p().with_flat_contention();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut cases = Vec::new();
    for _ in 0..SETUP_REPEATS {
        cases.clear();
        let t0 = Instant::now();
        let (c, times) = setup(&machine);
        setups.push((secs_since(t0), times));
        cases = c;
    }
    let setup_s = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let seeded = samples(cfg.seed, SAMPLES);

    let (first, obs, cache) = fresh_round(|| round(&cases, &seeded, cfg.trace));
    let (check_s, check_ops) = check_first(&mut report, pins, &cases, &seeded, &first);
    let expect = makespans(&first);
    let points_per_round = expect.len();

    let mut plain = vec![];
    let mut traced = vec![];
    let (t0, mut mark) = (Instant::now(), Instant::now());
    loop {
        for on in if cfg.trace { &[false, true][..] } else { &[false][..] } {
            let r = round(&cases, &seeded, *on);
            let bad = makespans(&r).iter().zip(&expect).filter(|(a, b)| a != b).count();
            report.ops(points_per_round as u64, bad as u64);
            if *on {
                traced.push(r)
            } else {
                plain.push(r.wall_s)
            }
        }
        if !another_fits(t0, &mut mark, cfg.budget) {
            break;
        }
    }

    let wall_s = median(&plain);
    if !cfg.trace {
        report.metric("wall_s", wall_s);
        report.metric("setup_s", setup_s);
        report.metric("points_per_s", ratio(points_per_round as f64, wall_s));
        report.metric("peak_rss_mib", peak_rss_mib());
        return report;
    }

    let record_s = median(&setups.iter().map(|s| s.1.record_s).collect::<Vec<_>>());
    let compile_s = median(&setups.iter().map(|s| s.1.compile_s).collect::<Vec<_>>());
    let ops: u64 = cases.iter().flat_map(|c| &c.traces).map(|t| t.len() as u64).sum();
    let (nodes, edges) =
        cases.iter().map(|c| c.dag.stats()).fold((0, 0), |(n, e), s| (n + s.nodes, e + s.edges));
    report.metric("mpi.record.busy_s", record_s);
    report.metric("mpi.record.ops", ops as f64);
    report.metric("mpi.record.mops_per_s", ratio(ops as f64 / 1e6, record_s));
    report.metric("mpi.dag.compile.busy_s", compile_s);
    report.metric("mpi.dag.compile.nodes", nodes as f64);
    report.metric("mpi.dag.compile.edges", edges as f64);
    report.metric("mpi.dag.compile.mnodes_per_s", ratio(nodes as f64 / 1e6, compile_s));
    let map_pts: usize = first.mapping.iter().map(Vec::len).sum();
    let pert_pts: usize = first.perturbed.iter().map(Vec::len).sum();
    let map_s = median(&traced.iter().map(|r| r.mapping_s).collect::<Vec<_>>());
    let pert_s = median(&traced.iter().map(|r| r.perturbed_s).collect::<Vec<_>>());
    report.metric("mpi.dag.eval.mapping.busy_s", map_s);
    report.metric("mpi.dag.eval.mapping.points", map_pts as f64);
    report.metric("mpi.dag.eval.mapping.us_per_point", ratio(map_s * 1e6, map_pts as f64));
    report.metric("mpi.dag.eval.perturbed.busy_s", pert_s);
    report.metric("mpi.dag.eval.perturbed.samples", pert_pts as f64);
    report.metric("mpi.dag.eval.perturbed.us_per_sample", ratio(pert_s * 1e6, pert_pts as f64));
    report.metric("mpi.sim.check.busy_s", check_s);
    report.metric("mpi.sim.check.ops", check_ops as f64);
    report.metric("mpi.sim.check.mops_per_s", ratio(check_ops as f64 / 1e6, check_s));
    obs.report(&mut report);
    report_cache(&mut report, cache);
    let traced_wall: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
    report.metric("trace.overhead_frac", median(&traced_wall) / wall_s - 1.0);
    report.metric("fail_ratio", report.fail_ratio());
    report
}

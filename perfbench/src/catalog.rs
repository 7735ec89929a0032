//! The metric catalogue: every name the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names; the crate's tests keep
//! the two in step.

use hpcsim_core::ExperimentId;

/// End-to-end metrics, reported with `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("setup_s", "s"), ("points_per_s", "1/s"), ("peak_rss_mib", "MiB")];

/// Per-experiment busy-time metric names (`core.experiment.<slug>.busy_s`).
pub const EXPERIMENT_BUSY: [&str; 12] = [
    "core.experiment.table1.busy_s",
    "core.experiment.table2.busy_s",
    "core.experiment.fig1.busy_s",
    "core.experiment.fig2.busy_s",
    "core.experiment.fig3.busy_s",
    "core.experiment.top500.busy_s",
    "core.experiment.fig4.busy_s",
    "core.experiment.fig5.busy_s",
    "core.experiment.fig6.busy_s",
    "core.experiment.fig7.busy_s",
    "core.experiment.fig8.busy_s",
    "core.experiment.table3.busy_s",
];

/// The busy-time metric of experiment `id`.
pub fn experiment_busy(id: ExperimentId) -> &'static str {
    let i = ExperimentId::all().iter().position(|&e| e == id).expect("id is in all()");
    EXPERIMENT_BUSY[i]
}

/// Per-layer metrics other than [`EXPERIMENT_BUSY`], reported with
/// `--trace 1` on every workload. A layer a workload bypasses reads 0.
pub const LAYER: [(&str, &str); 29] = [
    ("core.report.render.busy_s", "s"),
    ("core.report.bytes", "bytes"),
    ("core.runner.scenarios", "count"),
    ("mpi.sim.replay_runs", "count"),
    ("mpi.dag.points", "count"),
    ("cache.result.lookups", "count"),
    ("cache.result.hits", "count"),
    ("cache.result.misses", "count"),
    ("cache.result.hit_ratio", "ratio"),
    ("cache.trace.hits", "count"),
    ("cache.trace.misses", "count"),
    ("mpi.record.busy_s", "s"),
    ("mpi.record.ops", "count"),
    ("mpi.record.mops_per_s", "Mop/s"),
    ("mpi.dag.compile.busy_s", "s"),
    ("mpi.dag.compile.nodes", "count"),
    ("mpi.dag.compile.edges", "count"),
    ("mpi.dag.compile.mnodes_per_s", "Mnode/s"),
    ("mpi.dag.eval.mapping.busy_s", "s"),
    ("mpi.dag.eval.mapping.points", "count"),
    ("mpi.dag.eval.mapping.us_per_point", "us"),
    ("mpi.dag.eval.perturbed.busy_s", "s"),
    ("mpi.dag.eval.perturbed.samples", "count"),
    ("mpi.dag.eval.perturbed.us_per_sample", "us"),
    ("mpi.sim.check.busy_s", "s"),
    ("mpi.sim.check.ops", "count"),
    ("mpi.sim.check.mops_per_s", "Mop/s"),
    ("trace.overhead_frac", "ratio"),
    ("fail_ratio", "ratio"),
];

/// Every per-layer metric as `(name, unit)`.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    EXPERIMENT_BUSY.iter().map(|&n| (n, "s")).chain(LAYER).collect()
}

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END.iter().copied().chain(per_layer()).find(|&(n, _)| n == name).map(|(_, u)| u)
}

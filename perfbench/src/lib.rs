//! Host-time benchmark of the BG/P reproduction.
//!
//! Three single-process workloads, each at one worker (`set_jobs(1)`)
//! with the obs registry enabled the way `repro` enables it (the first
//! and last are the ones `BENCHMARK.json` lists, see [`Workload::LISTED`]):
//!
//! * `paper-battery` — all 12 experiments at [`Scale::Paper`], the
//!   replay-bound headline cost of `repro all --paper`;
//! * `quick-battery` — the same 12 at [`Scale::Quick`], where fixed
//!   per-scenario costs dominate;
//! * `flat-sweep` — the DAG what-if path on the flat-contention BG/P
//!   variant: mapping sweeps and seeded Monte-Carlo perturbations over
//!   the Fig 2(c,d) HALO traces.
//!
//! Every output is checked against pinned digests ([`digest`]); the
//! traced run (`--trace 1`) times the calls into each layer from this
//! crate's own code and reports the per-layer catalogue
//! ([`catalog::PER_LAYER`]).
//!
//! [`Scale::Paper`]: hpcsim_core::Scale::Paper
//! [`Scale::Quick`]: hpcsim_core::Scale::Quick

pub mod battery;
pub mod catalog;
pub mod digest;
pub mod measure;
pub mod sweep;

use measure::Report;
use std::time::Duration;

/// The benchmark's workloads, by the names `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 12 experiments at paper scale.
    PaperBattery,
    /// All 12 experiments at quick scale, repeated passes.
    QuickBattery,
    /// DAG mapping and Monte-Carlo sweep on the flat-contention BG/P.
    FlatSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::PaperBattery, Workload::QuickBattery, Workload::FlatSweep];

    /// The workloads `BENCHMARK.json` lists. `quick-battery` stays
    /// runnable by hand but is not listed: its run-to-run spread on a
    /// shared host exceeds the benchmark's bounds (see `NOTES.md`).
    pub const LISTED: [Workload; 2] = [Workload::PaperBattery, Workload::FlatSweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBattery => "paper-battery",
            Workload::QuickBattery => "quick-battery",
            Workload::FlatSweep => "flat-sweep",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark invocation's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed for generated inputs (the sweep's perturbation samples).
    pub seed: u64,
    /// Length of the timed region.
    pub budget: Duration,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// Put the simulator in `repro`'s configuration: one worker, obs
/// registry on, default sweep engine.
pub fn init_process() {
    hpcsim_core::set_jobs(1);
    hpcsim_obs::set_enabled(true);
}

/// Run one workload against `pins` and return its report.
pub fn run(cfg: &RunConfig, pins: &digest::Pins) -> Report {
    match cfg.workload {
        Workload::PaperBattery => battery::run(battery::Battery::Paper, cfg, pins),
        Workload::QuickBattery => battery::run(battery::Battery::Quick, cfg, pins),
        Workload::FlatSweep => sweep::run(cfg, pins),
    }
}

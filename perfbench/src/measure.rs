//! Timing helpers, obs deltas and the result record.

use crate::catalog;
use crate::digest::Pins;
use hpcsim_cache::{CacheConfig, CacheStats};
use std::time::Instant;

/// Seconds since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of `v` (the mean of the middle two for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// Whether another iteration as long as the one that started at
/// `*mark` still ends within `budget` of `t0`; moves `*mark` to now.
pub fn another_fits(t0: Instant, mark: &mut Instant, budget: std::time::Duration) -> bool {
    let now = Instant::now();
    let step = now - *mark;
    *mark = now;
    now - t0 + step <= budget
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload bypasses).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Obs counters the per-layer metrics are deltas of.
const OBS: [(&str, &str); 3] = [
    ("mpi.sim.replay_runs", "hpcsim_replay_runs_total"),
    ("mpi.dag.points", "hpcsim_dag_points_total"),
    ("core.runner.scenarios", "hpcsim_scenarios_total"),
];

/// A reading of the obs counters in [`OBS`] order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounts([u64; 3]);

impl ObsCounts {
    /// Read the process-wide registry.
    pub fn read() -> ObsCounts {
        let snap = hpcsim_obs::snapshot();
        let mut out = [0; 3];
        for (slot, &(_, prom)) in out.iter_mut().zip(&OBS) {
            *slot = snap.counters.iter().find(|c| c.name == prom).map_or(0, |c| c.value);
        }
        ObsCounts(out)
    }

    /// Counts accumulated since `before`.
    pub fn since(self, before: ObsCounts) -> ObsCounts {
        let mut d = [0; 3];
        for (i, slot) in d.iter_mut().enumerate() {
            *slot = self.0[i] - before.0[i];
        }
        ObsCounts(d)
    }

    /// Add to `report` as per-layer metrics.
    pub fn report(self, report: &mut Report) {
        for (&(name, _), &v) in OBS.iter().zip(&self.0) {
            report.metric(name, v as f64);
        }
    }
}

/// Run `f` against a fresh in-memory global scenario cache; return its
/// result with the obs counts and cache counters it accumulated.
pub fn fresh_round<T>(f: impl FnOnce() -> T) -> (T, ObsCounts, CacheStats) {
    hpcsim_cache::configure(CacheConfig::default());
    let obs0 = ObsCounts::read();
    let out = f();
    (out, ObsCounts::read().since(obs0), hpcsim_cache::global().stats())
}

/// Add a scenario cache's hit/miss counters to `report`.
pub fn report_cache(report: &mut Report, c: CacheStats) {
    let lookups = c.result_hits + c.result_misses + c.coalesced;
    report.metric("cache.result.lookups", lookups as f64);
    report.metric("cache.result.hits", c.result_hits as f64);
    report.metric("cache.result.misses", c.result_misses as f64);
    report.metric("cache.result.hit_ratio", ratio(c.result_hits as f64, lookups as f64));
    report.metric("cache.trace.hits", c.trace_hits as f64);
    report.metric("cache.trace.misses", c.trace_misses as f64);
}

/// One run's outcome: the operations checked and the metrics measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (experiments on the batteries, points on
    /// the sweep).
    pub attempted: u64,
    /// Operations that panicked or produced output differing from the
    /// pinned or cross-checked reference.
    pub failed: u64,
    /// `(name, value)` in the order measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// `(scope, key, digest)` of every pinned output, first sighting.
    pub digests: Vec<(String, String, u64)>,
}

impl Report {
    /// Count `n` operations, `bad` of which failed.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Compare `digest` against its pin, remembering it for
    /// `--print-digests`.
    pub fn verify(&mut self, pins: &Pins, scope: &str, key: &str, digest: u64) -> bool {
        if !self.digests.iter().any(|(s, k, _)| s == scope && k == key) {
            self.digests.push((scope.to_string(), key.to_string(), digest));
        }
        pins.matches(scope, key, digest)
    }

    /// Record a metric (must be catalogued).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(catalog::unit(name).is_some(), "uncatalogued metric {name}");
        self.metrics.push((name, value));
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Failed over attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// True when every operation was attempted cleanly.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Keep only the metrics named in `names` (in that order), filling
    /// any the workload does not touch with 0.
    pub fn select(
        &self,
        names: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        names.iter().map(|&(n, u)| (n, self.get(n).unwrap_or(0.0), u)).collect()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the `metrics` map.
pub fn result_json(report: &Report, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

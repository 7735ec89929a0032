//! The `paper-battery` and `quick-battery` workloads: every experiment
//! of `repro all` at one scale, each pass from a fresh in-memory global
//! scenario cache, each experiment's rendered text and CSV bytes
//! checked against its pin.

use crate::catalog;
use crate::digest::{Fnv, Pins};
use crate::measure::{
    another_fits, fresh_round, median, peak_rss_mib, ratio, report_cache, secs_since, ObsCounts,
    Report,
};
use crate::RunConfig;
use hpcsim_cache::CacheStats;
use hpcsim_core::{run_experiment, Artifact, ExperimentId, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Which battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Battery {
    /// [`Scale::Paper`]: the paper's process counts.
    Paper,
    /// [`Scale::Quick`]: reduced process counts.
    Quick,
}

impl Battery {
    /// The experiment scale.
    pub fn scale(self) -> Scale {
        match self {
            Battery::Paper => Scale::Paper,
            Battery::Quick => Scale::Quick,
        }
    }

    /// Pin scope of this battery's digests.
    pub fn scope(self) -> &'static str {
        match self {
            Battery::Paper => "paper",
            Battery::Quick => "quick",
        }
    }
}

/// The bytes `repro` emits for one experiment: the rendered text and
/// each CSV file as `(file name, contents)`.
struct Output {
    /// `Artifact::render` text.
    text: String,
    /// CSV files, named as `Artifact::write_csv` names them.
    csvs: Vec<(String, String)>,
}

impl Output {
    fn of(art: &Artifact) -> Output {
        let slug = art.id.slug();
        let tables =
            art.tables.iter().enumerate().map(|(i, t)| (format!("{slug}_{i}.csv"), t.to_csv()));
        let figures = art
            .figures
            .iter()
            .enumerate()
            .map(|(i, f)| (format!("{slug}_panel{i}.csv"), f.to_csv()));
        Output { text: art.render(), csvs: tables.chain(figures).collect() }
    }

    /// Digest of the text and every CSV, name and contents.
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.bytes(self.text.as_bytes());
        for (name, body) in &self.csvs {
            h.bytes(&[0]).bytes(name.as_bytes()).bytes(&[0]).bytes(body.as_bytes());
        }
        h.finish()
    }

    /// Size in bytes of everything the experiment emits.
    fn size(&self) -> usize {
        self.text.len() + self.csvs.iter().map(|(_, b)| b.len()).sum::<usize>()
    }
}

/// One experiment within a pass.
struct ExpRun {
    id: ExperimentId,
    /// Digest of the output; `None` when the experiment panicked.
    digest: Option<u64>,
    /// Bytes of text and CSV emitted.
    bytes: usize,
    /// Host seconds in `run_experiment` (traced passes only).
    exp_s: f64,
    /// Host seconds rendering text and CSVs (traced passes only).
    render_s: f64,
}

/// One pass over all experiments.
struct Pass {
    wall_s: f64,
    runs: Vec<ExpRun>,
    cache: CacheStats,
    obs: ObsCounts,
}

/// Run and render one experiment; `None` when it panicked. A traced
/// call also returns the seconds spent in `run_experiment` and in
/// rendering.
fn experiment(id: ExperimentId, scale: Scale, traced: bool) -> (Option<Output>, f64, f64) {
    let timed = catch_unwind(AssertUnwindSafe(|| {
        let t0 = traced.then(Instant::now);
        let art = run_experiment(id, scale);
        let t1 = traced.then(Instant::now);
        let out = Output::of(&art);
        let t2 = traced.then(Instant::now);
        let span = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
            (Some(a), Some(b)) => (b - a).as_secs_f64(),
            _ => 0.0,
        };
        (out, span(t0, t1), span(t1, t2))
    }));
    match timed {
        Ok((out, exp_s, render_s)) => (Some(out), exp_s, render_s),
        Err(_) => (None, 0.0, 0.0),
    }
}

/// Run every experiment once from a fresh global cache. A traced pass
/// also times each `run_experiment` and render call.
fn pass(scale: Scale, traced: bool) -> Pass {
    let ((outs, wall_s), obs, cache) = fresh_round(|| {
        let t0 = Instant::now();
        let outs = ExperimentId::all().map(|id| (id, experiment(id, scale, traced)));
        (outs, secs_since(t0))
    });
    let runs = outs
        .into_iter()
        .map(|(id, (out, exp_s, render_s))| ExpRun {
            id,
            digest: out.as_ref().map(Output::digest),
            bytes: out.as_ref().map_or(0, Output::size),
            exp_s,
            render_s,
        })
        .collect();
    Pass { wall_s, runs, cache, obs }
}

/// Check every experiment of `p` against the pins of `scope`.
fn check(report: &mut Report, pins: &Pins, scope: &str, p: &Pass) {
    for r in &p.runs {
        let ok = r.digest.is_some_and(|d| report.verify(pins, scope, r.id.slug(), d));
        report.ops(1, u64::from(!ok));
    }
}

/// Untimed quick-scale passes before the timed region.
const WARMUP_PASSES: usize = 5;

/// Run a battery workload.
///
/// Set-up is [`WARMUP_PASSES`] untimed quick-scale passes: the first
/// pays for lazy statics and first-touch page faults, and the rest
/// make their total, `setup_s`, long enough to repeat from run to
/// run. The timed region then repeats passes at the battery's scale
/// while another fits in the budget (at least one: a paper pass outlasts the
/// budget, so the paper battery times exactly one). With `cfg.trace`,
/// untraced and traced passes alternate so their medians give the
/// tracing overhead.
pub fn run(battery: Battery, cfg: &RunConfig, pins: &Pins) -> Report {
    let mut report = Report::default();
    let mut setup_s = 0.0;
    for _ in 0..WARMUP_PASSES {
        let warm = pass(Scale::Quick, false);
        check(&mut report, pins, Battery::Quick.scope(), &warm);
        setup_s += warm.wall_s;
    }

    let scale = battery.scale();
    let mut plain: Vec<f64> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let (t0, mut mark) = (Instant::now(), Instant::now());
    loop {
        let p = pass(scale, false);
        check(&mut report, pins, battery.scope(), &p);
        plain.push(p.wall_s);
        if cfg.trace {
            let p = pass(scale, true);
            check(&mut report, pins, battery.scope(), &p);
            traced.push(p);
        }
        if !another_fits(t0, &mut mark, cfg.budget) {
            break;
        }
    }

    let wall_s = median(&plain);
    if !cfg.trace {
        report.metric("wall_s", wall_s);
        report.metric("setup_s", setup_s);
        report.metric("points_per_s", ratio(ExperimentId::all().len() as f64, wall_s));
        report.metric("peak_rss_mib", peak_rss_mib());
        return report;
    }

    for id in ExperimentId::all() {
        let busy: Vec<f64> = traced
            .iter()
            .flat_map(|p| p.runs.iter().filter(|r| r.id == id).map(|r| r.exp_s))
            .collect();
        report.metric(catalog::experiment_busy(id), median(&busy));
    }
    let render: Vec<f64> = traced.iter().map(|p| p.runs.iter().map(|r| r.render_s).sum()).collect();
    report.metric("core.report.render.busy_s", median(&render));
    let last = traced.last().expect("a traced run makes at least one traced pass");
    let bytes: usize = last.runs.iter().map(|r| r.bytes).sum();
    report.metric("core.report.bytes", bytes as f64);
    last.obs.report(&mut report);
    report_cache(&mut report, last.cache);
    let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    report.metric("trace.overhead_frac", median(&traced_wall) / wall_s - 1.0);
    report.metric("fail_ratio", report.fail_ratio());
    report
}

/// Run one pass of `battery` and write what `repro` would emit for it:
/// `stdout.txt` (each experiment's text plus the blank line `repro`
/// prints after it, without `# ` comment lines) and the CSV files.
pub fn dump(battery: Battery, dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut stdout = String::new();
    for id in ExperimentId::all() {
        let (out, _, _) = experiment(id, battery.scale(), false);
        let out = out.ok_or_else(|| std::io::Error::other(format!("{} panicked", id.slug())))?;
        stdout.push_str(&out.text);
        stdout.push('\n');
        for (name, body) in &out.csvs {
            std::fs::write(dir.join(name), body)?;
        }
    }
    std::fs::write(dir.join("stdout.txt"), stdout)
}

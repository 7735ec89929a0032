//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <paper-battery|quick-battery|flat-sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--print-digests] [--dump-dir DIR]
//! ```
//!
//! Prints one `name value unit` line per metric, then, as the last line
//! of standard output, the JSON result object. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics of a traced
//! run. `--print-digests` writes every checked output's digest to
//! standard error in `pins.txt` form; `--dump-dir` writes one battery
//! pass's text and CSVs as `repro` would and exits.

use bgp_perfbench::digest::Pins;
use bgp_perfbench::measure::result_json;
use bgp_perfbench::{battery, catalog, init_process, run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <paper-battery|quick-battery|flat-sweep> --seed N \
         --seconds S --trace 0|1 [--print-digests] [--dump-dir DIR]"
    );
    exit(2)
}

struct Args {
    cfg: RunConfig,
    print_digests: bool,
    dump_dir: Option<PathBuf>,
}

fn parse() -> Args {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut print_digests, mut dump_dir) = (false, None);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            print_digests = true;
            continue;
        }
        let Some(val) = it.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&val)
                        .unwrap_or_else(|| usage(&format!("unknown workload {val:?}"))),
                )
            }
            "--seed" => {
                seed = Some(val.parse::<u64>().unwrap_or_else(|_| usage("--seed wants an integer")))
            }
            "--seconds" => {
                seconds = Some(
                    val.parse::<u64>()
                        .ok()
                        .filter(|&s| s >= 1)
                        .unwrap_or_else(|| usage("--seconds wants an integer >= 1")),
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace wants 0 or 1"),
                })
            }
            "--dump-dir" => dump_dir = Some(PathBuf::from(val)),
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    let Some(workload) = workload else { usage("--workload is required") };
    let cfg = RunConfig {
        workload,
        seed: seed.unwrap_or(1),
        budget: Duration::from_secs(seconds.unwrap_or(10)),
        trace: trace.unwrap_or(false),
    };
    Args { cfg, print_digests, dump_dir }
}

/// The DAG engine's lane ISA on this host, by the engine's own rule:
/// the widest of AVX-512/AVX2 the CPU reports, capped by `HPCSIM_ISA`.
fn lane_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        let cap = std::env::var("HPCSIM_ISA").unwrap_or_default();
        let avx512 = std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512dq")
            && std::is_x86_feature_detected!("avx512bw")
            && std::is_x86_feature_detected!("avx512vl");
        let avx2 = std::is_x86_feature_detected!("avx2");
        match cap.as_str() {
            "scalar" => "scalar",
            "avx2" if avx2 => "avx2",
            _ if avx512 => "avx512",
            _ if avx2 => "avx2",
            _ => "scalar",
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let isa_env = std::env::var("HPCSIM_ISA").unwrap_or_else(|_| "unset".to_string());
    format!("nproc={nproc} cpu=\"{cpu}\" dag_isa={} HPCSIM_ISA={isa_env}", lane_isa())
}

fn main() {
    let args = parse();
    init_process();
    if let Some(dir) = &args.dump_dir {
        let b = match args.cfg.workload {
            Workload::PaperBattery => battery::Battery::Paper,
            Workload::QuickBattery => battery::Battery::Quick,
            Workload::FlatSweep => usage("--dump-dir applies to the batteries"),
        };
        if let Err(e) = battery::dump(b, dir) {
            eprintln!("perfbench: dump failed: {e}");
            exit(1);
        }
        return;
    }
    eprintln!("# host: {}", host_facts());
    let report = run(&args.cfg, &Pins::builtin());
    if args.print_digests {
        for (scope, key, d) in &report.digests {
            eprintln!("{scope} {key} {d:016x}");
        }
    }
    let names = if args.cfg.trace { catalog::per_layer() } else { catalog::END_TO_END.to_vec() };
    let metrics = report.select(&names);
    println!(
        "# {} seed={} trace={}",
        args.cfg.workload.name(),
        args.cfg.seed,
        u8::from(args.cfg.trace)
    );
    for (n, v, u) in &metrics {
        println!("# {n} {v} {u}");
    }
    println!("{}", result_json(&report, &metrics));
}

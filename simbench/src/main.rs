//! End-to-end benchmark of the RLR simulator and its DQN design loop.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload spec_1core|mix_4core_event|dqn_train \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload runs in this one thread. With `--trace 0` the run is
//! untraced and reports the end-to-end metrics; with `--trace 1` it runs
//! the same work once untraced and once traced from outside the program,
//! and reports per-layer metrics. The last line of standard output is the
//! result as one JSON object. Seed 0 (the default) reproduces the library's
//! own workload streams and is checked against pinned counters; any other
//! seed reseeds every workload and is checked against invariants.

mod checks;
mod dqn;
mod host;
mod layers;
mod mix;
mod pinned;
mod probe;
mod report;
mod segments;
mod spec;
mod timed;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use experiments::fault::{with_io_plan, IoFailPlan};
use workloads::Workload;

use crate::layers::LayerReport;
use crate::report::{json_object, result_line, Outcome};

/// The seed whose outputs are pinned.
pub const DEFAULT_SEED: u64 = 0;

pub const WORKLOADS: [&str; 3] = ["spec_1core", "mix_4core_event", "dqn_train"];

/// Scratch space for checkpoint cells, inside the working directory.
const SCRATCH: &str = ".bench_scratch";

/// Command-line parameters.
#[derive(Clone, Debug)]
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Params, String> {
    let mut params = Params {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => params.workload = value.clone(),
            "--seed" => params.seed = number()?,
            "--seconds" => params.seconds = Duration::from_secs(number()?.max(1)),
            "--trace" => {
                params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&params.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(params)
}

/// SplitMix64 finalizer: spreads a small seed over all 64 bits.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The named benchmark with its stream reseeded from `seed`; the default
/// seed keeps the library's own stream.
///
/// # Panics
///
/// Panics on a name neither suite defines (the names here are constants).
pub fn workload(name: &str, seed: u64) -> Workload {
    let wl = workloads::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    if seed == DEFAULT_SEED {
        wl
    } else {
        let reseeded = wl.seed() ^ mix64(seed);
        wl.with_seed(reseeded)
    }
}

/// Records the end-to-end metrics the workload measured. Names and units
/// match `BENCHMARK.json`.
///
/// `peak_rss_mb` is the process's peak resident size once the first
/// operation is done, set-ups included: later repetitions only add
/// allocator fragmentation, which grows with the number of repetitions a
/// run fits and so with host speed.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    sim_minstr_per_s: f64,
    decisions_per_s: f64,
    peak_rss_mb: f64,
) {
    out.push("setup_s", setup_s, "s");
    out.push("sim_minstr_per_s", sim_minstr_per_s, "Minstr/s");
    out.push("train_decisions_per_s", decisions_per_s, "1/s");
    out.push("peak_rss_mb", peak_rss_mb, "MB");
}

/// Problems with a traced run's self times, which must fit in its wall time.
pub fn self_time_problems(layers: &LayerReport, wall: Duration) -> Vec<String> {
    let sum = layers.self_time_sum();
    if sum > wall {
        vec![format!(
            "per-layer self times sum to {sum:?}, more than the traced wall {wall:?}"
        )]
    } else {
        Vec::new()
    }
}

/// Scale and timing mode of each workload, for the provenance line.
fn setting(workload: &str) -> (&'static str, &'static str) {
    match workload {
        "spec_1core" => (
            "small: 2M warm-up + 10M measured instr per cell",
            "analytic",
        ),
        "mix_4core_event" => ("0.5M warm-up + 1M measured instr per core", "event"),
        _ => (
            "capture 1M warm-up + 50K instr of 450.soplex; 64-set 16-way LLC",
            "analytic (capture)",
        ),
    }
}

fn run(params: &Params, scratch: &Path) -> Outcome {
    // Storage faults come only from an explicit plan: the environment's
    // fault plan never reaches the measured checkpoint I/O.
    let mut out = with_io_plan(IoFailPlan::none(), || match params.workload.as_str() {
        "spec_1core" => spec::run(params, scratch),
        "mix_4core_event" => mix::run(params),
        _ => dqn::run(params),
    });
    if params.trace {
        out.notes.push(
            "hierarchy.self_s includes the LLC tag/fill path: SharedLlc::access is reachable \
             only through CoreHierarchy; policy.self_s is split out"
                .to_owned(),
        );
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (scale, timing) = setting(&params.workload);
    println!(
        "provenance {}",
        json_object(&[
            ("workload", params.workload.clone()),
            ("seed", params.seed.to_string()),
            ("seconds", params.seconds.as_secs().to_string()),
            ("trace", u8::from(params.trace).to_string()),
            ("commit", host::commit()),
            ("source_fnv", host::source_digest()),
            ("cpu", host::cpu_model()),
            ("nproc", host::nproc().to_string()),
            ("scale", scale.to_owned()),
            ("timing", timing.to_owned()),
            ("threads", "1".to_owned()),
        ])
    );
    let scratch: PathBuf = Path::new(SCRATCH).join(format!("cells-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("error: cannot create {}: {e}", scratch.display());
        return ExitCode::from(1);
    }
    let out = run(&params, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);

    for note in &out.notes {
        println!("note {note}");
    }
    for m in &out.metrics {
        println!("metric {:<34} {:>16} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_metric_name;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let p = parse_args(&args("--workload dqn_train --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((p.seed, p.seconds.as_secs(), p.trace), (7, 3, true));
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload dqn_train --trace 2")).is_err());
        assert!(parse_args(&args("--workload dqn_train --seed")).is_err());
        assert!(parse_args(&args("--workload dqn_train --bogus 1")).is_err());
    }

    #[test]
    fn seeds_reseed_every_workload_except_the_default() {
        let lib = workloads::by_name("429.mcf").unwrap();
        assert_eq!(workload("429.mcf", DEFAULT_SEED).seed(), lib.seed());
        assert_ne!(workload("429.mcf", 1).seed(), lib.seed());
        assert_ne!(workload("429.mcf", 1).seed(), workload("429.mcf", 2).seed());
    }

    /// `(name, unit)` of each entry in `section` of BENCHMARK.json, in order.
    fn listed(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        let until_quote = |s: &str| s[..s.find('"').expect("closing quote")].to_owned();
        body.split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let unit = entry
                    .split("\"unit\": \"")
                    .nth(1)
                    .map_or(String::new(), until_quote);
                (until_quote(entry), unit)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_every_metric_the_program_prints() {
        let mut out = Outcome::default();
        end_to_end(&mut out, 1.0, 1.0, 1.0, 1.0);
        let pairs = |metrics: Vec<crate::report::Metric>| -> Vec<(String, String)> {
            metrics
                .into_iter()
                .map(|m| (m.name, m.unit.to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), pairs(out.metrics));
        assert_eq!(listed("per_layer"), pairs(LayerReport::default().metrics()));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_per_layer_metric_name_is_valid_and_unique() {
        let names: Vec<String> = LayerReport::default()
            .metrics()
            .into_iter()
            .map(|m| m.name)
            .collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
    }
}

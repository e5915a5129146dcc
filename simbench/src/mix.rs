//! `mix_4core_event`: the Fig 13 path under the event core. Four SPEC
//! benchmarks share the paper's 8 MB LLC under multicore RLR, with MSHR
//! and DRAM bank queueing.

use std::time::Instant;

use cache_sim::{MultiCoreSystem, RunStats, SystemConfig, TimingMode};
use experiments::PolicyKind;
use workloads::TraceEntry;

use crate::layers::LayerReport;
use crate::probe::median_setup;
use crate::report::{median, secs, Outcome};
use crate::segments::SegmentClock;
use crate::timed::TracedSystem;
use crate::{checks, pinned, Params};

pub const MIX: [&str; 4] = ["429.mcf", "450.soplex", "403.gcc", "470.lbm"];
pub const POLICY: PolicyKind = PolicyKind::RlrMulticore;
/// Warm-up instructions per core (Small scale's).
pub const WARMUP: u64 = 500_000;
/// Measured instructions per core: a third of Small scale's 3M, so that one
/// run repeats the mix about ten times for a median.
pub const INSTRUCTIONS: u64 = 1_000_000;
/// Set-ups per run, for a median set-up time.
const SETUP_REPEATS: usize = 7;

type CoreStream = Box<dyn Iterator<Item = TraceEntry> + Send>;

pub fn config() -> SystemConfig {
    SystemConfig::paper_quad_core().with_timing(TimingMode::Event)
}

/// One stream per core, decorrelated as `experiments::runner::run_mix`
/// does it: a per-core seed and a per-core PC salt.
pub fn core_streams(names: [&str; 4], seed: u64) -> Vec<CoreStream> {
    names
        .iter()
        .enumerate()
        .map(|(core, name)| {
            let wl = crate::workload(name, seed);
            let seeded = wl
                .clone()
                .with_seed(wl.seed() ^ (core as u64 + 1).wrapping_mul(0x9E37));
            let pc_salt = (core as u64 + 1) << 44;
            Box::new(seeded.stream().map(move |mut e| {
                e.pc ^= pc_salt;
                e
            })) as CoreStream
        })
        .collect()
}

fn check(stats: &[RunStats], seed: u64) -> Vec<String> {
    let issue_width = config().issue_width;
    let mut problems = Vec::new();
    for (core, s) in stats.iter().enumerate() {
        let label = format!("core {core} ({})", MIX[core]);
        problems.extend(checks::run_invariants(&label, s, INSTRUCTIONS, issue_width));
        if seed == crate::DEFAULT_SEED {
            problems.extend(checks::pinned(&label, s, &pinned::MIX_4CORE_EVENT[core]));
        }
    }
    if stats.len() != MIX.len() {
        problems.push(format!(
            "{} cores reported, expected {}",
            stats.len(),
            MIX.len()
        ));
    }
    problems
}

/// The system, with its streams timed by `clock`.
fn build(seed: u64, clock: &SegmentClock) -> MultiCoreSystem<experiments::LlcPolicy> {
    let cfg = config();
    let streams = core_streams(MIX, seed)
        .into_iter()
        .map(|s| Box::new(clock.wrap(s)) as CoreStream)
        .collect();
    MultiCoreSystem::new(&cfg, POLICY.build(&cfg.llc, None), streams)
}

pub fn run(params: &Params) -> Outcome {
    if params.trace {
        return run_traced(params);
    }
    let mut out = Outcome::default();
    let ((), setup_s) = median_setup(SETUP_REPEATS, || {
        drop(build(params.seed, &SegmentClock::new()));
    });
    // Per run: thread CPU seconds, and reference seconds (`segments`).
    let mut cpus = Vec::new();
    let mut times = Vec::new();
    let mut first_rss = None;
    let deadline = Instant::now() + params.seconds;
    let (instr, decisions) = loop {
        let clock = SegmentClock::new();
        let mut system = build(params.seed, &clock);
        clock.start();
        let stats = system.run(WARMUP, INSTRUCTIONS);
        clock.stop();
        cpus.push(clock.raw());
        times.push(clock.scaled());
        out.record_op(check(&stats, params.seed));
        let instr: u64 = stats.iter().map(|s| WARMUP + s.instructions).sum();
        first_rss.get_or_insert_with(crate::host::peak_rss_mb);
        if Instant::now() >= deadline {
            break (instr, stats[0].llc.evictions);
        }
    };
    let t = median(&times);
    out.notes.push(format!(
        "mix runs {}; median {:.4} CPU s; median {t:.4} reference s",
        cpus.len(),
        median(&cpus)
    ));
    crate::end_to_end(
        &mut out,
        setup_s,
        instr as f64 / t / 1e6,
        decisions as f64 / t,
        first_rss.expect("the loop ran"),
    );
    out
}

fn run_traced(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let mut system = build(params.seed, &SegmentClock::new());
    let t = Instant::now();
    let plain = system.run(WARMUP, INSTRUCTIONS);
    let plain_wall = t.elapsed();
    out.record_op(check(&plain, params.seed));

    let cfg = config();
    let mut traced = TracedSystem::new(
        &cfg,
        POLICY.build(&cfg.llc, None),
        core_streams(MIX, params.seed),
    );
    let t = Instant::now();
    let stats = traced.run(WARMUP, INSTRUCTIONS);
    let traced_wall = t.elapsed();

    let mut layers = LayerReport {
        sim: traced.layers(),
        ..LayerReport::default()
    };
    layers.overhead_pct = (secs(traced_wall) / secs(plain_wall) - 1.0) * 100.0;
    let mut problems = check(&stats, params.seed);
    if stats != plain {
        problems.push("traced counters differ from untraced".to_owned());
    }
    problems.extend(crate::self_time_problems(&layers, traced_wall));
    out.record_op(problems);
    out.notes.push(format!(
        "scheduler (core choice, not a program layer) {:.3} s",
        secs(traced.sched_time())
    ));
    out.metrics = layers.metrics();
    out
}

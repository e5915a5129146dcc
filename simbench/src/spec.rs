//! `spec_1core`: the Table IV / Fig 10–11 path. Five benchmarks × {LRU,
//! RLR} on the paper's single-core system with analytic timing, run as
//! cells through the resilient runner (one job), each result stored as a
//! checkpoint cell and loaded back.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cache_sim::{RunStats, SingleCoreSystem, SystemConfig, TimingMode};
use experiments::checkpoint::{cell_key, load_cell, store_cell, CellKey};
use experiments::fault::FailPlan;
use experiments::runner::{run_tasks_resilient, RunOptions};
use experiments::{LlcPolicy, PolicyKind, Scale, TaskFailure};
use workloads::Stream;

use crate::segments::{Marked, SegmentClock};

use crate::host::cpu_now;
use crate::layers::LayerReport;
use crate::probe::median_setup;
use crate::report::{median, secs, Outcome};
use crate::timed::{SimLayers, TracedSystem};
use crate::{checks, pinned, Params};

pub const BENCHES: [&str; 5] = [
    "429.mcf",
    "450.soplex",
    "403.gcc",
    "416.gamess",
    "cassandra",
];
pub const POLICIES: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::Rlr];
pub const SCALE: Scale = Scale::Small;
/// Set-ups per run, for a median set-up time.
const SETUP_REPEATS: usize = 7;

/// One benchmark × policy cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub bench: &'static str,
    pub policy: PolicyKind,
}

/// The cells in run order: each benchmark under every policy.
pub fn cells() -> Vec<Cell> {
    BENCHES
        .iter()
        .flat_map(|&bench| POLICIES.iter().map(move |&policy| Cell { bench, policy }))
        .collect()
}

/// `cell_s.<bench>.<policy>` for every cell.
pub fn cell_metric_names() -> Vec<String> {
    cells()
        .iter()
        .map(|c| format!("cell_s.{}.{}", c.bench, c.policy.name().to_lowercase()))
        .collect()
}

pub fn config() -> SystemConfig {
    SystemConfig::paper_single_core().with_timing(TimingMode::Analytic)
}

enum Prepared {
    Plain(
        Box<SingleCoreSystem<LlcPolicy>>,
        Marked<Stream>,
        SegmentClock,
    ),
    Traced(Box<TracedSystem<LlcPolicy, Stream>>),
}

fn prepare(cell: &Cell, seed: u64, traced: bool) -> Prepared {
    let cfg = config();
    let stream = crate::workload(cell.bench, seed).stream();
    let policy = cell.policy.build(&cfg.llc, None);
    if traced {
        Prepared::Traced(Box::new(TracedSystem::new(&cfg, policy, vec![stream])))
    } else {
        let clock = SegmentClock::new();
        Prepared::Plain(
            Box::new(SingleCoreSystem::new(&cfg, policy)),
            clock.wrap(stream),
            clock,
        )
    }
}

fn key(cell: &Cell, seed: u64) -> CellKey {
    let params = format!(
        "simbench|spec_1core|seed{seed}|w{}|i{}|t{}",
        SCALE.warmup(),
        SCALE.instructions(),
        config().timing
    );
    cell_key(cell.bench, cell.policy.name(), &params)
}

/// What one cell produced.
struct CellRun {
    stats: RunStats,
    loaded: Option<RunStats>,
    /// Host CPU time of the whole cell, checkpoint I/O included (probe
    /// samples left out).
    cpu: Duration,
    /// The same in reference seconds (untraced cells only; `segments`).
    scaled: Option<f64>,
    store: Duration,
    load: Duration,
    layers: Option<SimLayers>,
}

fn run_cell(prepared: Prepared, key: &CellKey, dir: &Path) -> CellRun {
    let c = cpu_now();
    let (stats, layers, clock) = match prepared {
        Prepared::Plain(mut system, mut stream, clock) => {
            clock.start();
            system.warm_up(&mut stream, SCALE.warmup());
            (system.run(stream, SCALE.instructions()), None, Some(clock))
        }
        Prepared::Traced(mut system) => {
            let stats = system.run(SCALE.warmup(), SCALE.instructions());
            (stats[0], Some(system.layers()), None)
        }
    };
    let ts = Instant::now();
    store_cell(dir, key, &stats);
    let store = ts.elapsed();
    let tl = Instant::now();
    let loaded = load_cell(dir, key);
    let load = tl.elapsed();
    let (cpu, scaled) = match clock {
        Some(clock) => {
            clock.stop();
            (Duration::from_secs_f64(clock.raw()), Some(clock.scaled()))
        }
        None => (cpu_now() - c, None),
    };
    CellRun {
        stats,
        loaded,
        cpu,
        scaled,
        store,
        load,
        layers,
    }
}

/// One pass over every cell. `wall` is wall time, for the tracing
/// overhead.
struct Pass {
    wall: Duration,
    attempts: u64,
    results: Vec<Result<CellRun, TaskFailure>>,
}

fn run_pass(seed: u64, dir: &Path, traced: bool) -> Pass {
    let cells = cells();
    let prepared: Vec<Mutex<Option<Prepared>>> = cells
        .iter()
        .map(|c| Mutex::new(Some(prepare(c, seed, traced))))
        .collect();
    let attempts = AtomicU64::new(0);
    // One retry, no backoff, no injected faults: nothing read from the
    // environment changes what is measured.
    let opts = RunOptions {
        retries: 1,
        backoff_ms: 0,
        budget: None,
        fail_plan: FailPlan::none(),
    };
    let t = Instant::now();
    let results = run_tasks_resilient(&cells, 1, &opts, |i, cell| {
        attempts.fetch_add(1, Ordering::Relaxed);
        // A retried cell starts from a freshly built system.
        let p = prepared[i]
            .lock()
            .expect("no task holds the lock across a panic")
            .take()
            .unwrap_or_else(|| prepare(cell, seed, traced));
        run_cell(p, &key(cell, seed), dir)
    });
    Pass {
        wall: t.elapsed(),
        attempts: attempts.into_inner(),
        results,
    }
}

/// Checks one cell's output; returns the problems found.
fn check(cell: &Cell, i: usize, run: &Result<CellRun, TaskFailure>, seed: u64) -> Vec<String> {
    let label = format!("{}/{}", cell.bench, cell.policy.name());
    let run = match run {
        Ok(r) => r,
        Err(e) => return vec![format!("{label}: {e}")],
    };
    let mut problems = checks::run_invariants(
        &label,
        &run.stats,
        SCALE.instructions(),
        config().issue_width,
    );
    if run.loaded != Some(run.stats) {
        problems.push(format!(
            "{label}: checkpoint cell did not load back identically"
        ));
    }
    if seed == crate::DEFAULT_SEED {
        problems.extend(checks::pinned(&label, &run.stats, &pinned::SPEC_1CORE[i]));
    }
    problems
}

/// Records one operation per cell. With a `reference` pass, each cell's
/// counters must also equal the reference's; `extra[i]` holds further
/// problems charged to cell `i`.
fn check_pass(
    pass: &Pass,
    seed: u64,
    reference: Option<&Pass>,
    mut extra: Vec<Vec<String>>,
    out: &mut Outcome,
) {
    let cells = cells();
    extra.resize(cells.len(), Vec::new());
    for (i, (cell, run)) in cells.iter().zip(&pass.results).enumerate() {
        let mut problems = check(cell, i, run, seed);
        if let (Some(Ok(want)), Ok(got)) = (reference.map(|r| &r.results[i]), run) {
            if want.stats != got.stats {
                problems.push(format!(
                    "{}/{}: traced counters differ from untraced",
                    cell.bench,
                    cell.policy.name()
                ));
            }
        }
        problems.append(&mut extra[i]);
        out.record_op(problems);
    }
}

/// Warm-up plus measured instructions of the cells that completed.
fn work_of(pass: &Pass) -> u64 {
    pass.results
        .iter()
        .flatten()
        .map(|r| SCALE.warmup() + r.stats.instructions)
        .sum()
}

pub fn run(params: &Params, dir: &Path) -> Outcome {
    if params.trace {
        return run_traced(params, dir);
    }
    let mut out = Outcome::default();
    let ((), setup_s) = median_setup(SETUP_REPEATS, || {
        drop(
            cells()
                .iter()
                .map(|c| prepare(c, params.seed, false))
                .collect::<Vec<_>>(),
        );
    });
    let n = cells().len();
    // Per cell: reference seconds of each pass (`segments`); warm-up plus
    // measured instructions, and LLC decisions.
    let mut times = vec![Vec::new(); n];
    let mut work = vec![(0u64, 0u64); n];
    let mut pass_minstr = Vec::new();
    let mut first_rss = None;
    let deadline = Instant::now() + params.seconds;
    loop {
        let pass = run_pass(params.seed, dir, false);
        for (i, run) in pass.results.iter().enumerate() {
            let Ok(r) = run else { continue };
            work[i] = (SCALE.warmup() + r.stats.instructions, r.stats.llc.evictions);
            times[i].extend(r.scaled);
        }
        check_pass(&pass, params.seed, None, Vec::new(), &mut out);
        let cpu: Duration = pass.results.iter().flatten().map(|r| r.cpu).sum();
        pass_minstr.push(work_of(&pass) as f64 / secs(cpu) / 1e6);
        first_rss.get_or_insert_with(crate::host::peak_rss_mb);
        if Instant::now() >= deadline {
            break;
        }
    }
    // A cell that failed on every pass has no time; the failure is counted.
    let t: f64 = times
        .iter()
        .filter(|c| !c.is_empty())
        .map(|c| median(c))
        .sum();
    let (instr, dec) = work
        .iter()
        .fold((0, 0), |(i, d), &(wi, wd)| (i + wi, d + wd));
    out.notes.push(format!(
        "passes {} of {n} cells; median pass {:.4} Minstr/s (CPU s); cell medians sum to {t:.4} reference s",
        pass_minstr.len(),
        median(&pass_minstr),
    ));
    crate::end_to_end(
        &mut out,
        setup_s,
        instr as f64 / t / 1e6,
        dec as f64 / t,
        first_rss.expect("the loop ran"),
    );
    out
}

fn run_traced(params: &Params, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let plain = run_pass(params.seed, dir, false);
    check_pass(&plain, params.seed, None, Vec::new(), &mut out);
    let traced = run_pass(params.seed, dir, true);

    let mut layers = LayerReport::default();
    let cells = cells();
    let names = cell_metric_names();
    for (i, (p, t)) in plain.results.iter().zip(&traced.results).enumerate() {
        if let Ok(p) = p {
            layers.cell_s.push((names[i].clone(), secs(p.cpu)));
        }
        let Ok(t) = t else { continue };
        layers.sim.add(&t.layers.expect("traced pass"));
        layers.checkpoint_store += t.store;
        layers.checkpoint_load += t.load;
        let path = dir.join(key(&cells[i], params.seed).file_name());
        layers.checkpoint_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
    }
    layers.runner_tasks = traced.results.len() as u64;
    layers.runner_failures = traced.results.iter().filter(|r| r.is_err()).count() as u64;
    layers.runner_retries = traced.attempts - layers.runner_tasks;
    layers.overhead_pct = (secs(traced.wall) / secs(plain.wall) - 1.0) * 100.0;
    // Checks of the traced pass as a whole are charged to its last cell.
    let mut extra = vec![Vec::new(); cells.len()];
    extra[cells.len() - 1] = crate::self_time_problems(&layers, traced.wall);
    check_pass(&traced, params.seed, Some(&plain), extra, &mut out);
    out.metrics = layers.metrics();
    out
}

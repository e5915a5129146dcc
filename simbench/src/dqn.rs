//! `dqn_train`: the offline design loop (paper §III-A). Set-up captures an
//! LRU LLC trace of 450.soplex and encodes it to RLT1 in memory; each
//! operation decodes it, trains a fresh agent for one epoch on a scaled
//! LLC, and evaluates it greedily. Untraced times are probe-scaled
//! reference seconds (see [`crate::probe`]).

use std::time::{Duration, Instant};

use cache_sim::{CacheConfig, LlcTrace, SingleCoreSystem, SystemConfig, TimingMode};
use experiments::PolicyKind;
use rl::{AgentConfig, FeatureSet, LlcModel, ModelStats, Trainer, TrainingReport};
use trace_io::{encode_trace, TraceReader, DEFAULT_BLOCK_LEN};

use crate::layers::LayerReport;
use crate::probe::{median_setup, ProbedClock, REFERENCE_S};
use crate::report::{median, secs, Outcome};
use crate::{pinned, Params};

pub const BENCH: &str = "450.soplex";
/// Instructions simulated before capture starts.
pub const CAPTURE_WARMUP: u64 = 1_000_000;
/// Instructions whose LLC accesses form the trace.
pub const CAPTURE_INSTRUCTIONS: u64 = 50_000;
/// Set-up repetitions per run, for a median set-up time.
const SETUP_REPEATS: usize = 15;

/// A 64 KB 16-way LLC: small enough that decisions begin after ~1K fills.
pub fn llc() -> CacheConfig {
    CacheConfig {
        sets: 64,
        ways: 16,
        latency: 26,
    }
}

pub fn agent_config() -> AgentConfig {
    AgentConfig {
        hidden: 64,
        features: FeatureSet::full(),
        ..AgentConfig::default()
    }
}

/// Captures the LLC trace of [`BENCH`] under LRU on the paper's single-core
/// system.
pub fn capture(seed: u64) -> LlcTrace {
    let cfg = SystemConfig::paper_single_core().with_timing(TimingMode::Analytic);
    let mut system = SingleCoreSystem::new(&cfg, PolicyKind::Lru.build(&cfg.llc, None));
    let mut stream = crate::workload(BENCH, seed).stream();
    system.warm_up(&mut stream, CAPTURE_WARMUP);
    system.llc_mut().enable_capture();
    let _ = system.run(stream, CAPTURE_INSTRUCTIONS);
    system
        .llc_mut()
        .take_capture()
        .expect("capture was enabled")
}

/// The encoded trace and how long encoding took.
struct Setup {
    bytes: Vec<u8>,
    encode: Duration,
}

fn setup(seed: u64) -> Setup {
    let trace = capture(seed);
    let t = Instant::now();
    let bytes = encode_trace(&trace, DEFAULT_BLOCK_LEN).expect("in-memory encode cannot fail");
    Setup {
        bytes,
        encode: t.elapsed(),
    }
}

fn decode(bytes: &[u8]) -> LlcTrace {
    TraceReader::new(bytes)
        .and_then(TraceReader::read_to_trace)
        .expect("a freshly encoded trace decodes")
}

/// One operation's results.
#[derive(Clone, Debug, PartialEq)]
struct Round {
    records: usize,
    report: TrainingReport,
    eval: ModelStats,
}

/// An operation's first phase: decode, then one epoch of a fresh agent.
fn train(bytes: &[u8]) -> (LlcTrace, Trainer, TrainingReport) {
    let trace = decode(bytes);
    let mut trainer = Trainer::new(agent_config(), &llc());
    let report = trainer.train_epoch(&trace, &llc());
    (trace, trainer, report)
}

fn round(bytes: &[u8]) -> Round {
    let (trace, trainer, report) = train(bytes);
    let eval = trainer.evaluate(&trace, &llc());
    Round {
        records: trace.len(),
        report,
        eval,
    }
}

fn check(r: &Round, belady: &ModelStats, seed: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let e = &r.eval;
    if e.hits > belady.hits {
        problems.push(format!(
            "agent hits {} beat Belady's {}",
            e.hits, belady.hits
        ));
    }
    if e.demand_hits > e.demand_accesses || e.accesses != r.records as u64 {
        problems.push(format!("impossible evaluation counters {e:?}"));
    }
    if r.report.stats.decisions == 0 || e.decisions == 0 {
        problems.push("no replacement decisions were made".to_owned());
    }
    if seed == crate::DEFAULT_SEED {
        let p = &pinned::DQN_TRAIN;
        let got = (r.records, r.report.stats.decisions, e.decisions);
        if got != (p.records, p.train_decisions, p.eval_decisions) {
            problems.push(format!(
                "(records, train decisions, eval decisions) {got:?} differ from pinned {:?}",
                (p.records, p.train_decisions, p.eval_decisions)
            ));
        }
        let rate = e.demand_hit_rate();
        if (rate - p.eval_demand_hit_rate).abs() > p.hit_rate_tolerance {
            problems.push(format!(
                "eval demand hit rate {rate} is not within {} of pinned {}",
                p.hit_rate_tolerance, p.eval_demand_hit_rate
            ));
        }
        let loss = r.report.mean_loss;
        if (loss - p.mean_loss).abs() > p.loss_tolerance * p.mean_loss {
            problems.push(format!(
                "mean TD loss {loss} is not within {} of pinned {}",
                p.loss_tolerance, p.mean_loss
            ));
        }
    }
    problems
}

fn belady(bytes: &[u8]) -> ModelStats {
    let trace = decode(bytes);
    LlcModel::new(&llc(), &trace).run_belady(&trace)
}

pub fn run(params: &Params) -> Outcome {
    if params.trace {
        return run_traced(params);
    }
    let mut out = Outcome::default();
    // Times are in reference seconds: each phase is read against the host
    // probe run just before and just after it (see `probe`).
    let (prepared, setup_s) = median_setup(SETUP_REPEATS, || setup(params.seed));
    let bytes = prepared.bytes;
    let mut clock = ProbedClock::new();
    let optimal = belady(&bytes);
    let mut rounds = Vec::new();
    let mut first_rss = None;
    let raw_start = clock.raw_seconds();
    let deadline = Instant::now() + params.seconds;
    let decisions = loop {
        let ((trace, trainer, report), t_train) = clock.time(|| train(&bytes));
        let (eval, t_eval) = clock.time(|| trainer.evaluate(&trace, &llc()));
        rounds.push(t_train + t_eval);
        let r = Round {
            records: trace.len(),
            report,
            eval,
        };
        out.record_op(check(&r, &optimal, params.seed));
        first_rss.get_or_insert_with(crate::host::peak_rss_mb);
        if Instant::now() >= deadline {
            break r.report.stats.decisions + r.eval.decisions;
        }
    };
    let t = median(&rounds);
    out.notes.push(format!(
        "epoch+evaluation rounds {}; median {t:.4} reference s; mean {:.4} CPU s; \
         median probe {:.4} s (reference {REFERENCE_S} s)",
        rounds.len(),
        (clock.raw_seconds() - raw_start) / rounds.len() as f64,
        median(clock.probes()),
    ));
    crate::end_to_end(
        &mut out,
        setup_s,
        CAPTURE_INSTRUCTIONS as f64 / t / 1e6,
        decisions as f64 / t,
        first_rss.expect("the loop ran"),
    );
    out
}

fn run_traced(params: &Params) -> Outcome {
    let mut out = Outcome::default();
    let s = setup(params.seed);
    let optimal = belady(&s.bytes);
    let t = Instant::now();
    let plain = round(&s.bytes);
    let plain_wall = t.elapsed();
    out.record_op(check(&plain, &optimal, params.seed));

    let mut layers = LayerReport {
        encode: s.encode,
        ..LayerReport::default()
    };
    let llc = llc();
    let t0 = Instant::now();
    let trace = decode(&s.bytes);
    layers.decode = t0.elapsed();

    let mut trainer = Trainer::new(agent_config(), &llc);
    let t = Instant::now();
    let report = trainer.train_epoch(&trace, &llc);
    layers.train_epoch = t.elapsed();

    // `Trainer::evaluate`, rebuilt so the network's inference is timed.
    let agent = trainer.agent();
    let mut infer = Duration::ZERO;
    let t = Instant::now();
    let eval = LlcModel::new(&llc, &trace).run(&trace, &mut |view| {
        let ti = Instant::now();
        let way = agent.decide_greedy(view);
        infer += ti.elapsed();
        way
    });
    layers.evaluate = t.elapsed();
    layers.infer = infer;
    let traced_wall = t0.elapsed();

    let t = Instant::now();
    let traced_optimal = LlcModel::new(&llc, &trace).run_belady(&trace);
    layers.belady = t.elapsed();

    let traced = Round {
        records: trace.len(),
        report,
        eval,
    };
    layers.trace_records = traced.records as u64;
    layers.compressed_pct_of_raw = trace_io::scan(s.bytes.as_slice()).map_or(0.0, |summary| {
        summary.compressed_payload as f64 * 100.0 / summary.raw_payload.max(1) as f64
    });
    layers.train_decisions = report.stats.decisions;
    layers.eval_decisions = eval.decisions;
    layers.optimal_rate = report.optimal_rate();
    layers.eval_demand_hit_rate = eval.demand_hit_rate();
    layers.mean_loss = report.mean_loss;
    layers.overhead_pct = (secs(traced_wall) / secs(plain_wall) - 1.0) * 100.0;

    let mut problems = check(&traced, &traced_optimal, params.seed);
    if traced != plain || traced_optimal != optimal {
        problems.push("traced results differ from untraced".to_owned());
    }
    problems.extend(crate::self_time_problems(
        &layers,
        traced_wall + s.encode + layers.belady,
    ));
    out.record_op(problems);
    out.metrics = layers.metrics();
    out
}

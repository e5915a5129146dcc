//! Tracing from outside the program: a timing wrapper around the LLC
//! replacement policy, and a replica of the simulator's step loop that
//! times each call into the workload, hierarchy and timing layers.
//!
//! The replica drives the library's public `CoreHierarchy`, `SharedLlc`,
//! `TimingModel` and `DramTiming` in exactly the order
//! `SingleCoreSystem`/`MultiCoreSystem` do, so its `RunStats` equal theirs
//! (the tests below and every traced run check this). `SharedLlc::access`
//! is reachable only through `CoreHierarchy`, so the LLC tag and fill path
//! is counted in the hierarchy's self time; only the policy callbacks are
//! split out.

use std::time::{Duration, Instant};

use cache_sim::{
    Access, CacheConfig, CacheStats, CoreHierarchy, Decision, DramTiming, LineSnapshot, MemTraffic,
    ReplacementPolicy, RunStats, SharedLlc, SystemConfig, TimingMode, TimingModel,
};
use workloads::TraceEntry;

/// A replacement policy that forwards every trait method to `inner` and
/// times the four callbacks the cache makes on its hot path.
#[derive(Debug)]
pub struct TimedPolicy<P> {
    inner: P,
    /// Time spent inside `on_miss`, `select_victim`, `on_hit`, `on_fill`.
    pub busy: Duration,
    /// `select_victim` calls.
    pub victim_selections: u64,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            busy: Duration::ZERO,
            victim_selections: 0,
        }
    }
}

impl<P: ReplacementPolicy> ReplacementPolicy for TimedPolicy<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_miss(&mut self, set: u32, access: &Access) {
        let t = Instant::now();
        self.inner.on_miss(set, access);
        self.busy += t.elapsed();
    }

    fn select_victim(&mut self, set: u32, lines: &[LineSnapshot], access: &Access) -> Decision {
        let t = Instant::now();
        let d = self.inner.select_victim(set, lines, access);
        self.busy += t.elapsed();
        self.victim_selections += 1;
        d
    }

    fn on_hit(&mut self, set: u32, way: u16, access: &Access) {
        let t = Instant::now();
        self.inner.on_hit(set, way, access);
        self.busy += t.elapsed();
    }

    fn on_fill(&mut self, set: u32, way: u16, access: &Access) {
        let t = Instant::now();
        self.inner.on_fill(set, way, access);
        self.busy += t.elapsed();
    }

    fn overhead_bits(&self, config: &CacheConfig) -> u64 {
        self.inner.overhead_bits(config)
    }

    fn uses_line_snapshots(&self) -> bool {
        self.inner.uses_line_snapshots()
    }

    fn fill_mask(&self, access: &Access) -> u32 {
        self.inner.fill_mask(access)
    }
}

/// Per-layer time and event counts of one traced simulation, over its
/// warm-up and measured phases together.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimLayers {
    /// Inside `Stream::next`.
    pub workloads: Duration,
    /// Inside `CoreHierarchy::{instr_fetch, data_access}`, policy included.
    pub hierarchy: Duration,
    /// Inside `TimingModel` calls (and the event-mode traffic drain).
    pub timing: Duration,
    /// Inside the policy callbacks (a part of `hierarchy`).
    pub policy: Duration,
    /// Trace entries consumed.
    pub entries: u64,
    pub l1i: CacheStats,
    pub l1d: CacheStats,
    pub l2: CacheStats,
    pub llc: CacheStats,
    pub memory_reads: u64,
    pub memory_writes: u64,
    pub dram_row_hits: u64,
    pub dram_row_misses: u64,
    pub victim_selections: u64,
    /// Sum and count of `outstanding_misses()` sampled after each memory op.
    pub outstanding_sum: u64,
    pub outstanding_samples: u64,
    /// Background requests (prefetch fills, writebacks) handed to the
    /// timing model.
    pub background_traffic: u64,
}

/// Adds `b`'s counters into `a`.
pub fn add_stats(a: &mut CacheStats, b: &CacheStats) {
    for (x, y) in a.by_kind.iter_mut().zip(&b.by_kind) {
        x.accesses += y.accesses;
        x.hits += y.hits;
    }
    a.writebacks_out += b.writebacks_out;
    a.bypasses += b.bypasses;
    a.evictions += b.evictions;
}

impl SimLayers {
    /// Accumulates another run's layers into this one.
    pub fn add(&mut self, o: &SimLayers) {
        self.workloads += o.workloads;
        self.hierarchy += o.hierarchy;
        self.timing += o.timing;
        self.policy += o.policy;
        self.entries += o.entries;
        add_stats(&mut self.l1i, &o.l1i);
        add_stats(&mut self.l1d, &o.l1d);
        add_stats(&mut self.l2, &o.l2);
        add_stats(&mut self.llc, &o.llc);
        self.memory_reads += o.memory_reads;
        self.memory_writes += o.memory_writes;
        self.dram_row_hits += o.dram_row_hits;
        self.dram_row_misses += o.dram_row_misses;
        self.victim_selections += o.victim_selections;
        self.outstanding_sum += o.outstanding_sum;
        self.outstanding_samples += o.outstanding_samples;
        self.background_traffic += o.background_traffic;
    }
}

/// Attributes the time since the previous lap to one layer: one clock read
/// per layer boundary.
struct Clock(Instant);

impl Clock {
    fn lap(&mut self, into: &mut Duration) {
        let now = Instant::now();
        *into += now - self.0;
        self.0 = now;
    }
}

struct Core<S> {
    hierarchy: CoreHierarchy,
    timing: TimingModel,
    stream: S,
    finished: Option<(u64, u64)>,
}

/// The simulator's step loop, rebuilt from public parts and timed per layer.
///
/// With one stream it is `SingleCoreSystem`; with several it is
/// `MultiCoreSystem`, fewest-cycles-first scheduling included.
pub struct TracedSystem<P: ReplacementPolicy, S> {
    config: SystemConfig,
    llc: SharedLlc<TimedPolicy<P>>,
    cores: Vec<Core<S>>,
    dram: DramTiming,
    traffic: Vec<MemTraffic>,
    layers: SimLayers,
    /// Time spent choosing the next core (not a layer of the program).
    sched: Duration,
}

impl<P: ReplacementPolicy, S: Iterator<Item = TraceEntry>> TracedSystem<P, S> {
    /// # Panics
    ///
    /// Panics unless there is one stream per configured core.
    pub fn new(config: &SystemConfig, policy: P, streams: Vec<S>) -> Self {
        assert_eq!(streams.len(), config.cores as usize, "one stream per core");
        let mut llc = SharedLlc::new(config, TimedPolicy::new(policy));
        if config.timing == TimingMode::Event {
            llc.enable_traffic_tap();
        }
        let cores = streams
            .into_iter()
            .enumerate()
            .map(|(i, stream)| Core {
                hierarchy: CoreHierarchy::new(i as u8, config),
                timing: TimingModel::new(config),
                stream,
                finished: None,
            })
            .collect();
        Self {
            config: *config,
            llc,
            cores,
            dram: DramTiming::new(config),
            traffic: Vec::new(),
            layers: SimLayers::default(),
            sched: Duration::ZERO,
        }
    }

    /// Warms up for `warm_up` instructions per core, discards the
    /// statistics, then runs every core to `instructions`; returns one
    /// `RunStats` per core, as `MultiCoreSystem::run` (and, for one core,
    /// `SingleCoreSystem::warm_up` + `run`) would.
    pub fn run(&mut self, warm_up: u64, instructions: u64) -> Vec<RunStats> {
        if warm_up > 0 {
            self.run_phase(warm_up);
            self.collect_counters();
            for core in &mut self.cores {
                core.hierarchy.reset_stats();
                core.timing = TimingModel::new(&self.config);
                core.finished = None;
            }
            self.llc.reset_stats();
            self.dram.reset();
        }
        self.run_phase(instructions);
        let stats = self
            .cores
            .iter()
            .map(|core| {
                let (instructions, cycles) = core.finished.expect("run_phase finishes every core");
                RunStats {
                    instructions,
                    cycles,
                    l1d: *core.hierarchy.l1d_stats(),
                    l2: *core.hierarchy.l2_stats(),
                    llc: *self.llc.stats(),
                    memory_reads: self.llc.memory_reads(),
                    memory_writes: self.llc.memory_writes(),
                    dram_row_hits: self.llc.dram().row_hits(),
                    dram_row_misses: self.llc.dram().row_misses(),
                }
            })
            .collect();
        self.collect_counters();
        stats
    }

    /// The layers measured so far; hierarchy time excludes policy time.
    pub fn layers(&self) -> SimLayers {
        let policy = self.llc.cache().policy();
        let mut layers = self.layers;
        layers.policy = policy.busy;
        layers.hierarchy = layers.hierarchy.saturating_sub(policy.busy);
        layers.victim_selections = policy.victim_selections;
        layers
    }

    /// Time spent in the multi-core scheduler's core choice.
    pub fn sched_time(&self) -> Duration {
        self.sched
    }

    /// Adds the caches' current statistics to the layer counters (called
    /// before each reset and at the end, so warm-up is included).
    fn collect_counters(&mut self) {
        let l = &mut self.layers;
        for core in &self.cores {
            add_stats(&mut l.l1i, core.hierarchy.l1i_stats());
            add_stats(&mut l.l1d, core.hierarchy.l1d_stats());
            add_stats(&mut l.l2, core.hierarchy.l2_stats());
        }
        add_stats(&mut l.llc, self.llc.stats());
        l.memory_reads += self.llc.memory_reads();
        l.memory_writes += self.llc.memory_writes();
        l.dram_row_hits += self.llc.dram().row_hits();
        l.dram_row_misses += self.llc.dram().row_misses();
    }

    fn run_phase(&mut self, instructions: u64) {
        let mut clock = Clock(Instant::now());
        loop {
            let mut next: Option<(usize, u64)> = None;
            let mut all_done = true;
            for (i, core) in self.cores.iter().enumerate() {
                if core.finished.is_none() {
                    all_done = false;
                }
                let c = core.timing.cycles();
                if next.is_none_or(|(_, best)| c < best) {
                    next = Some((i, c));
                }
            }
            clock.lap(&mut self.sched);
            if all_done {
                break;
            }
            let (i, _) = next.expect("at least one core exists");
            let core = &mut self.cores[i];
            let l = &mut self.layers;

            let entry = core.stream.next().expect("workload streams are infinite");
            l.entries += 1;
            clock.lap(&mut l.workloads);

            let fetch_level = core.hierarchy.instr_fetch(entry.pc, &mut self.llc);
            clock.lap(&mut l.hierarchy);

            core.timing
                .instr_fetch(fetch_level, entry.pc >> 6, &mut self.dram, &self.config);
            core.timing.retire(entry.leading);
            clock.lap(&mut l.timing);

            let level =
                core.hierarchy
                    .data_access(entry.pc, entry.addr, entry.is_store, &mut self.llc);
            clock.lap(&mut l.hierarchy);

            core.timing.memory_op(
                level,
                entry.dependent,
                entry.addr >> 6,
                &mut self.dram,
                &self.config,
            );
            l.outstanding_sum += core.timing.outstanding_misses() as u64;
            l.outstanding_samples += 1;
            if core.timing.mode() == TimingMode::Event {
                self.traffic.clear();
                self.llc.drain_traffic(&mut self.traffic);
                l.background_traffic += self.traffic.len() as u64;
                core.timing.background(&self.traffic, &mut self.dram);
            }
            if core.finished.is_none() && core.timing.instructions() >= instructions {
                let mut t = core.timing.clone();
                t.finish();
                core.finished = Some((t.instructions(), t.cycles()));
            }
            clock.lap(&mut l.timing);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{MultiCoreSystem, SingleCoreSystem};
    use experiments::PolicyKind;
    use workloads::{Stream, Workload};

    const WARM: u64 = 20_000;
    const INSTR: u64 = 120_000;

    fn stream(name: &str) -> Stream {
        workloads::by_name(name).expect("known benchmark").stream()
    }

    fn mix_streams() -> Vec<Box<dyn Iterator<Item = TraceEntry> + Send>> {
        crate::mix::core_streams(crate::mix::MIX, crate::DEFAULT_SEED)
    }

    #[test]
    fn timed_policy_matches_the_bare_policy() {
        // A 128 KB LLC fills within the short run, so victims are chosen.
        let mut cfg = SystemConfig::paper_single_core();
        cfg.llc = CacheConfig::with_capacity_kb(128, 16, 26);
        for kind in [PolicyKind::Lru, PolicyKind::Rlr] {
            let bare = {
                let mut sys = SingleCoreSystem::new(&cfg, kind.build(&cfg.llc, None));
                let mut s = stream("429.mcf");
                sys.warm_up(&mut s, WARM);
                sys.run(s, INSTR)
            };
            let timed = {
                let mut sys =
                    SingleCoreSystem::new(&cfg, TimedPolicy::new(kind.build(&cfg.llc, None)));
                let mut s = stream("429.mcf");
                sys.warm_up(&mut s, WARM);
                let stats = sys.run(s, INSTR);
                assert!(sys.llc().cache().policy().victim_selections >= stats.llc.evictions);
                stats
            };
            assert!(bare.llc.evictions > 0);
            assert_eq!(bare, timed, "{kind:?}");
        }
        let mut qcfg = SystemConfig::paper_quad_core();
        qcfg.llc = CacheConfig::with_capacity_kb(256, 16, 26);
        let kind = PolicyKind::RlrMulticore;
        let bare = MultiCoreSystem::new(&qcfg, kind.build(&qcfg.llc, None), mix_streams())
            .run(WARM / 4, INSTR / 4);
        let timed = MultiCoreSystem::new(
            &qcfg,
            TimedPolicy::new(kind.build(&qcfg.llc, None)),
            mix_streams(),
        )
        .run(WARM / 4, INSTR / 4);
        assert!(bare[0].llc.evictions > 0);
        assert_eq!(bare, timed);
    }

    #[test]
    fn replica_matches_single_core_system_in_both_timing_modes() {
        for mode in [TimingMode::Analytic, TimingMode::Event] {
            let cfg = SystemConfig::paper_single_core().with_timing(mode);
            for name in ["450.soplex", "cassandra"] {
                let mut sys = SingleCoreSystem::new(&cfg, PolicyKind::Rlr.build(&cfg.llc, None));
                let mut s = stream(name);
                sys.warm_up(&mut s, WARM);
                let expected = sys.run(s, INSTR);
                let mut traced = TracedSystem::new(
                    &cfg,
                    PolicyKind::Rlr.build(&cfg.llc, None),
                    vec![stream(name)],
                );
                let got = traced.run(WARM, INSTR);
                assert_eq!(got, vec![expected], "{name} {mode:?}");
                let layers = traced.layers();
                assert!(layers.entries > 0 && layers.l1d.accesses() >= expected.l1d.accesses());
                assert!(layers.llc.accesses() >= expected.llc.accesses());
            }
        }
    }

    #[test]
    fn replica_matches_multi_core_system_in_both_timing_modes() {
        for mode in [TimingMode::Analytic, TimingMode::Event] {
            let cfg = SystemConfig::paper_quad_core().with_timing(mode);
            let kind = PolicyKind::RlrMulticore;
            let expected = MultiCoreSystem::new(&cfg, kind.build(&cfg.llc, None), mix_streams())
                .run(WARM / 4, INSTR / 4);
            let mut traced = TracedSystem::new(&cfg, kind.build(&cfg.llc, None), mix_streams());
            assert_eq!(traced.run(WARM / 4, INSTR / 4), expected, "{mode:?}");
            let layers = traced.layers();
            assert_eq!(layers.background_traffic > 0, mode == TimingMode::Event);
        }
    }

    #[test]
    fn replica_counts_warm_up_and_measured_phases() {
        let cfg = SystemConfig::paper_single_core();
        let wl = Workload::new(
            "loop",
            workloads::Recipe::Cyclic {
                bytes: 1 << 16,
                stride: 64,
                store_ratio: 0.0,
            },
        );
        let mut traced = TracedSystem::new(
            &cfg,
            PolicyKind::Lru.build(&cfg.llc, None),
            vec![wl.stream()],
        );
        let stats = traced.run(10_000, 10_000);
        let layers = traced.layers();
        assert!(layers.l1d.accesses() > stats[0].l1d.accesses());
        assert_eq!(layers.outstanding_samples, layers.entries);
    }
}

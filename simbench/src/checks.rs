//! Output checks: exact pinned counters for the default seed, invariants
//! for every seed.

use cache_sim::{CacheStats, RunStats};

/// Number of `u64` fields in a flattened [`RunStats`].
pub const FLAT_LEN: usize = 39;

fn flatten_cache(s: &CacheStats, out: &mut Vec<u64>) {
    for k in &s.by_kind {
        out.push(k.accesses);
        out.push(k.hits);
    }
    out.extend([s.writebacks_out, s.bypasses, s.evictions]);
}

/// Every counter of `s` in a fixed order: instructions, cycles, then L1D,
/// L2 and LLC as (accesses, hits) per access kind plus writebacks out,
/// bypasses and evictions, then memory reads and writes and DRAM row hits
/// and misses.
pub fn flatten(s: &RunStats) -> [u64; FLAT_LEN] {
    let mut v = vec![s.instructions, s.cycles];
    flatten_cache(&s.l1d, &mut v);
    flatten_cache(&s.l2, &mut v);
    flatten_cache(&s.llc, &mut v);
    v.extend([
        s.memory_reads,
        s.memory_writes,
        s.dram_row_hits,
        s.dram_row_misses,
    ]);
    v.try_into().expect("FLAT_LEN matches the RunStats layout")
}

/// Invariants any correct run satisfies, whatever its input.
pub fn run_invariants(label: &str, s: &RunStats, target: u64, issue_width: u32) -> Vec<String> {
    let mut problems = Vec::new();
    if s.instructions < target {
        problems.push(format!(
            "{label}: {} instructions < target {target}",
            s.instructions
        ));
    }
    if s.cycles == 0 || s.ipc() > f64::from(issue_width) {
        problems.push(format!(
            "{label}: IPC {} outside (0, {issue_width}]",
            s.ipc()
        ));
    }
    for (level, stats) in [("l1d", &s.l1d), ("l2", &s.l2), ("llc", &s.llc)] {
        if stats.by_kind.iter().any(|k| k.hits > k.accesses) {
            problems.push(format!("{label}: {level} reports more hits than accesses"));
        }
    }
    problems
}

/// Compares a run against its pinned counters.
pub fn pinned(label: &str, s: &RunStats, expected: &[u64; FLAT_LEN]) -> Vec<String> {
    let got = flatten(s);
    if &got == expected {
        Vec::new()
    } else {
        vec![format!(
            "{label}: counters {got:?} differ from pinned {expected:?}"
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::KindCounts;

    #[test]
    fn invariants_catch_impossible_counters() {
        let mut s = RunStats {
            instructions: 1000,
            cycles: 500,
            ..RunStats::default()
        };
        assert!(run_invariants("ok", &s, 1000, 3).is_empty());
        s.llc.by_kind[0] = KindCounts {
            accesses: 1,
            hits: 2,
        };
        assert_eq!(run_invariants("bad", &s, 1000, 3).len(), 1);
        let fast = RunStats {
            instructions: 1000,
            cycles: 100,
            ..RunStats::default()
        };
        assert_eq!(run_invariants("fast", &fast, 2000, 3).len(), 2);
    }

    #[test]
    fn flatten_keeps_every_field() {
        let s = RunStats {
            instructions: 1,
            cycles: 2,
            memory_reads: 3,
            dram_row_misses: 4,
            ..RunStats::default()
        };
        let f = flatten(&s);
        assert_eq!((f[0], f[1], f[35], f[38]), (1, 2, 3, 4));
        assert!(pinned("x", &s, &f).is_empty());
        assert_eq!(pinned("x", &RunStats::default(), &f).len(), 1);
    }
}

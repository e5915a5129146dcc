//! The RLR victim scan as a standalone, differential-testable kernel.
//!
//! [`RlrPolicy::select_victim`](crate::RlrPolicy) reduces a set to the
//! minimum of a packed per-way key:
//!
//! ```text
//! bits [54..64]  priority  (≤ 1023, enforced by RlrConfig::validate)
//! bits [16..54]  staleness (clock − stamp, saturated to 38 bits)
//! bits [ 0..16]  way index
//! ```
//!
//! Lowest priority loses, most-recent (smallest staleness) breaks priority
//! ties, and the way index in the low bits makes every key unique — so the
//! scan is an argmin over unique u64 keys, and `min` over them is an
//! associative, commutative fold whose result cannot depend on reduction
//! order. That order-insensitivity is what licenses the vector kernel.
//!
//! There are two kernels, both sharing the per-way [`way_key`]:
//!
//! - **AVX-512VL** (x86-64 hosts that report `avx512f` + `avx512vl`): four
//!   ways per stripe in 256-bit registers, reduced with the unsigned
//!   64-bit vector min. It serves both [`scan`] and [`scan_masked`]; the
//!   way mask enters through the mask-register min and compare.
//! - **Scalar** ([`scan_scalar`], [`scan_masked_scalar`]): the
//!   one-accumulator loop. It runs on every other host and for P_core
//!   tables that do not pack into one u64, and it is the oracle of the
//!   differential suite (`tests/simd_scan_equivalence.rs`).
//!
//! [`scan`] and [`scan_masked`] pick the kernel per call from what the CPU
//! can do; [`kernel`] names the one they pick.

use crate::packed::LineMeta;

/// Ways per stripe of the vector kernel.
pub const LANES: usize = 4;

/// Width mask of the staleness field: 38 bits cover ~2.7×10¹¹ set accesses
/// before the saturating clamp could fire.
pub const REC_MASK: u64 = (1 << 38) - 1;

/// Loop-invariant inputs of one victim scan, hoisted by the caller.
#[derive(Clone, Copy, Debug)]
pub struct ScanParams {
    /// Current value of the configured age clock (set accesses or epochs).
    pub now: u64,
    /// Current per-set access clock (exact-recency staleness).
    pub clock: u64,
    /// Predicted reuse distance, in age units.
    pub rd: u64,
    /// Saturation bound of the age counter.
    pub max_age: u64,
    /// Weight of the age term (`8` in the paper's P_line).
    pub age_weight: u32,
    /// Whether the type term (penalize unreused prefetches) is active.
    pub use_type: bool,
    /// Whether the hit term is active.
    pub use_hit: bool,
    /// Exact recency: staleness is `clock − access stamp` rather than the
    /// clamped age.
    pub exact_recency: bool,
}

/// Per-way inputs: parallel slices, one element per way.
#[derive(Clone, Copy, Debug)]
pub struct ScanWays<'a> {
    /// Stamp of the last touch in the configured age unit.
    pub age_stamps: &'a [u64],
    /// Stamp of the last touch on the per-set access clock.
    pub rec_stamps: &'a [u64],
    /// Packed hit/type metadata.
    pub metas: &'a [LineMeta],
    /// Core that inserted or last touched each way; consulted only when
    /// `core_rank` is non-empty. May be empty otherwise.
    pub cores: &'a [u8],
    /// Per-core priority levels; empty disables the P_core term.
    pub core_rank: &'a [u32],
}

/// What a scan found: the minimum packed key (victim way in the low 16
/// bits) and whether any way aged past RD (the bypass predicate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Minimum `(priority | staleness | way)` key over the set.
    pub best_key: u64,
    /// `true` when at least one way's age exceeded RD.
    pub any_past_rd: bool,
}

impl ScanOutcome {
    /// The victim way encoded in the winning key.
    #[must_use]
    pub fn victim(self) -> u16 {
        (self.best_key & 0xFFFF) as u16
    }
}

/// Key and bypass flag for a single way — the shared per-element kernel of
/// both kernels, so they can only differ in reduction schedule.
#[inline(always)]
fn way_key(p: &ScanParams, ways: &ScanWays, way: usize) -> (u64, bool) {
    let age = (p.now - ways.age_stamps[way]).min(p.max_age);
    let meta = ways.metas[way];
    let mut prio = u32::from(age <= p.rd) * p.age_weight
        + u32::from(p.use_type && !meta.last_prefetch())
        + u32::from(p.use_hit && meta.hit_count() > 0);
    if !ways.core_rank.is_empty() {
        let core = ways.cores[way];
        prio += ways.core_rank.get(usize::from(core)).copied().unwrap_or(0);
    }
    let staleness = if p.exact_recency { p.clock - ways.rec_stamps[way] } else { age };
    debug_assert!(prio < 1024, "priority must fit the key's 10-bit field");
    let key = (u64::from(prio) << 54) | (staleness.min(REC_MASK) << 16) | way as u64;
    (key, age > p.rd)
}

fn check_shape(ways: &ScanWays) -> usize {
    let n = ways.age_stamps.len();
    assert!(n > 0, "victim scan over an empty set");
    assert!(n <= 0xFFFF, "way index must fit the key's 16-bit field");
    assert_eq!(ways.rec_stamps.len(), n, "recency stamps must cover every way");
    assert_eq!(ways.metas.len(), n, "metadata must cover every way");
    if !ways.core_rank.is_empty() {
        assert_eq!(ways.cores.len(), n, "core ids must cover every way");
    }
    n
}

/// Validates a way mask for the masked scan: at least one eligible way,
/// and a set narrow enough for the 32-bit mask to cover.
fn check_mask(mask: u32, n: usize) -> u32 {
    assert!(n <= 32, "masked scans cover at most 32 ways");
    let set_bits = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mask = mask & set_bits;
    assert!(mask != 0, "masked scan with no eligible way");
    mask
}

/// One-accumulator scan: the fallback kernel and the oracle for the
/// vector one.
pub fn scan_scalar(params: &ScanParams, ways: &ScanWays) -> ScanOutcome {
    let n = check_shape(ways);
    let mut best_key = u64::MAX;
    let mut any_past_rd = false;
    for way in 0..n {
        let (key, past_rd) = way_key(params, ways, way);
        best_key = best_key.min(key);
        any_past_rd |= past_rd;
    }
    ScanOutcome { best_key, any_past_rd }
}

/// One-accumulator masked scan: identical to [`scan_scalar`] over the
/// subset of ways whose bit is set in `mask`. Ineligible ways contribute
/// nothing — neither a key nor a bypass vote — so a partitioned victim
/// scan can never name a way outside its mask.
pub fn scan_masked_scalar(params: &ScanParams, ways: &ScanWays, mask: u32) -> ScanOutcome {
    let n = check_shape(ways);
    let mask = check_mask(mask, n);
    let mut best_key = u64::MAX;
    let mut any_past_rd = false;
    for way in 0..n {
        if mask & (1 << way) == 0 {
            continue;
        }
        let (key, past_rd) = way_key(params, ways, way);
        best_key = best_key.min(key);
        any_past_rd |= past_rd;
    }
    ScanOutcome { best_key, any_past_rd }
}

/// The victim scan on the fastest kernel this host runs. Bit-identical to
/// [`scan_scalar`] for any input.
#[inline]
pub fn scan(params: &ScanParams, ways: &ScanWays) -> ScanOutcome {
    #[cfg(target_arch = "x86_64")]
    if let Some(outcome) = avx512::dispatch::<false>(params, ways, u32::MAX) {
        return outcome;
    }
    scan_scalar(params, ways)
}

/// The masked victim scan on the fastest kernel this host runs.
/// Bit-identical to [`scan_masked_scalar`] for any input.
#[inline]
pub fn scan_masked(params: &ScanParams, ways: &ScanWays, mask: u32) -> ScanOutcome {
    #[cfg(target_arch = "x86_64")]
    if let Some(outcome) = avx512::dispatch::<true>(params, ways, mask) {
        return outcome;
    }
    scan_masked_scalar(params, ways, mask)
}

/// The kernel [`scan`] and [`scan_masked`] run on this host: `"avx512vl"`
/// or `"scalar"`. P_core tables that do not pack into one u64 take the
/// scalar kernel on every host.
#[must_use]
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512::available() {
        return "avx512vl";
    }
    "scalar"
}

/// The hand-vectorized stripe kernel: AVX-512VL gives unsigned 64-bit
/// min (`vpminuq`), unsigned 64-bit compares into mask registers, and
/// per-lane variable shifts — everything the packed-key argmin needs as
/// single instructions over 4×u64 lanes. Autovectorization never fires
/// on a portable lane body (the mix of u8 widening, bool selects, and u64
/// min defeats SLP), so this kernel writes the lanes explicitly.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    use super::{
        check_mask, check_shape, way_key, ScanOutcome, ScanParams, ScanWays, LANES, REC_MASK,
    };
    use crate::packed::LineMeta;

    /// Whether the CPU runs this kernel. Detection results are cached by
    /// std; steady state is one predictable load+branch per scan.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }

    /// Runs the kernel when the CPU has it and the P_core table is empty
    /// or packs into one u64 (≤ 8 cores, every rank ≤ 255); `None` sends
    /// the caller to the scalar kernel.
    #[inline]
    pub fn dispatch<const MASKED: bool>(
        params: &ScanParams,
        ways: &ScanWays,
        mask: u32,
    ) -> Option<ScanOutcome> {
        if !available() {
            return None;
        }
        if ways.core_rank.is_empty() {
            // SAFETY: feature presence was just verified at runtime.
            Some(unsafe { scan::<false, MASKED>(params, ways, mask) })
        } else if ways.core_rank.len() <= 8 && ways.core_rank.iter().all(|&r| r <= 0xFF) {
            // SAFETY: as above.
            Some(unsafe { scan::<true, MASKED>(params, ways, mask) })
        } else {
            None
        }
    }

    /// Lane-by-lane identical to [`way_key`]: the same terms, widened to
    /// u64 (priority sums stay < 1024, so widening cannot change a key).
    /// `CORE` turns on P_core from a rank table packed into one u64 —
    /// byte `c` holds core `c`'s rank, so the per-way lookup is a variable
    /// shift instead of a gather. `MASKED` restricts the min and the
    /// bypass vote to the ways whose bit is set in `mask`; with it off the
    /// kernel does no mask work at all.
    ///
    /// # Safety
    /// Caller must have verified `avx512f` and `avx512vl` at runtime.
    #[target_feature(enable = "avx512f,avx512vl")]
    unsafe fn scan<const CORE: bool, const MASKED: bool>(
        params: &ScanParams,
        ways: &ScanWays,
        mask: u32,
    ) -> ScanOutcome {
        let n = check_shape(ways);
        let mask = if MASKED { check_mask(mask, n) } else { mask };
        let p = *params;
        let splat = |v: u64| _mm256_set1_epi64x(v as i64);
        let now = splat(p.now);
        let max_age = splat(p.max_age);
        let rd = splat(p.rd);
        let weight = splat(u64::from(p.age_weight));
        let type_on = splat(u64::from(p.use_type));
        let hit_on = splat(u64::from(p.use_hit));
        let clock = splat(p.clock);
        // All-ones selects the exact recency clock, all-zeros the age.
        let exact = splat((p.exact_recency as u64).wrapping_neg());
        let rec_mask = splat(REC_MASK);
        let pf_bit = splat(u64::from(LineMeta::PREFETCH_BIT));
        let hit_mask = splat(u64::from(LineMeta::HIT_MASK));
        let rank_table = splat(
            ways.core_rank
                .iter()
                .enumerate()
                .fold(0u64, |t, (c, &r)| t | (u64::from(r) << (8 * c))),
        );
        let rank_len = splat(ways.core_rank.len() as u64);

        let mut best = splat(u64::MAX);
        let mut past: __mmask8 = 0;
        let mut idx = _mm256_set_epi64x(3, 2, 1, 0);
        let step = splat(LANES as u64);
        let mut way = 0;
        while way + LANES <= n {
            // SAFETY: `check_shape` proved every slice holds `n` elements
            // and `way + LANES <= n`, so all four-lane loads are in
            // bounds; LineMeta is `repr(transparent)` over u8.
            let age_stamps =
                _mm256_loadu_si256(ways.age_stamps.as_ptr().add(way).cast::<__m256i>());
            let rec_stamps =
                _mm256_loadu_si256(ways.rec_stamps.as_ptr().add(way).cast::<__m256i>());
            let meta_bytes = ways.metas.as_ptr().add(way).cast::<u32>().read_unaligned();
            let metas = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(meta_bytes as i32));

            let age = _mm256_min_epu64(_mm256_sub_epi64(now, age_stamps), max_age);
            // P_age: + weight where age ≤ RD.
            let le_rd = _mm256_cmple_epu64_mask(age, rd);
            let mut prio = _mm256_maskz_mov_epi64(le_rd, weight);
            // P_type: + use_type where the last access was not a prefetch.
            let pf_clear = _mm256_testn_epi64_mask(metas, pf_bit);
            prio = _mm256_add_epi64(prio, _mm256_maskz_mov_epi64(pf_clear, type_on));
            // P_hit: + use_hit where the hit counter is non-zero.
            let hit_nz = _mm256_test_epi64_mask(metas, hit_mask);
            prio = _mm256_add_epi64(prio, _mm256_maskz_mov_epi64(hit_nz, hit_on));
            if CORE {
                let core_bytes = ways.cores.as_ptr().add(way).cast::<u32>().read_unaligned();
                let cores = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(core_bytes as i32));
                // rank = byte `core` of the table, 0 when out of range
                // (the `unwrap_or(0)` of `way_key`).
                let keep = _mm256_cmplt_epu64_mask(cores, rank_len);
                let shift = _mm256_slli_epi64(_mm256_and_si256(cores, splat(7)), 3);
                let rank =
                    _mm256_and_si256(_mm256_srlv_epi64(rank_table, shift), splat(0xFF));
                prio = _mm256_add_epi64(prio, _mm256_maskz_mov_epi64(keep, rank));
            }
            // staleness = exact ? clock − rec_stamp : age, clamped.
            let rec = _mm256_sub_epi64(clock, rec_stamps);
            let staleness = _mm256_or_si256(
                _mm256_and_si256(exact, rec),
                _mm256_andnot_si256(exact, age),
            );
            let staleness = _mm256_min_epu64(staleness, rec_mask);
            let key = _mm256_or_si256(
                _mm256_or_si256(_mm256_slli_epi64(prio, 54), _mm256_slli_epi64(staleness, 16)),
                idx,
            );
            if MASKED {
                // Ineligible lanes keep their old minimum and cast no
                // bypass vote. Their stamps are still read, which is sound:
                // every stamp in a set comes from the same per-set clock,
                // so it never exceeds `now`/`clock`.
                let eligible = ((mask >> way) & 0xF) as __mmask8;
                best = _mm256_mask_min_epu64(best, eligible, best, key);
                past |= _mm256_mask_cmpgt_epu64_mask(eligible, age, rd);
            } else {
                best = _mm256_min_epu64(best, key);
                past |= _mm256_cmpgt_epu64_mask(age, rd);
            }
            idx = _mm256_add_epi64(idx, step);
            way += LANES;
        }

        let mut lanes = [0u64; LANES];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), best);
        let mut best_key = lanes.into_iter().fold(u64::MAX, u64::min);
        let mut any_past_rd = past != 0;
        while way < n {
            if !MASKED || mask & (1 << way) != 0 {
                let (key, past_rd) = way_key(params, ways, way);
                best_key = best_key.min(key);
                any_past_rd |= past_rd;
            }
            way += 1;
        }
        ScanOutcome { best_key, any_past_rd }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScanParams {
        ScanParams {
            now: 10,
            clock: 10,
            rd: 4,
            max_age: 31,
            age_weight: 8,
            use_type: true,
            use_hit: true,
            exact_recency: true,
        }
    }

    #[test]
    fn kernels_agree_on_a_mixed_set() {
        let age_stamps = [0, 7, 9, 3, 10, 10, 2];
        let rec_stamps = [1, 7, 9, 3, 10, 10, 2];
        let metas: Vec<LineMeta> = [(0u8, false), (1, false), (0, true), (2, false), (0, true), (1, false), (0, false)]
            .iter()
            .map(|&(hits, pf)| {
                let mut m = LineMeta::filled(pf, !pf);
                m.set_hit_count(hits);
                m
            })
            .collect();
        let cores = [0u8, 1, 2, 3, 0, 1, 9];
        let core_rank = [3u32, 2, 1, 0];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &rec_stamps,
            metas: &metas,
            cores: &cores,
            core_rank: &core_rank,
        };
        let p = params();
        assert_eq!(scan(&p, &ways), scan_scalar(&p, &ways));
    }

    #[test]
    fn masked_kernels_agree_and_stay_inside_the_mask() {
        let age_stamps = [0u64, 7, 9, 3, 10, 10, 2, 5, 1];
        let rec_stamps = [1u64, 7, 9, 3, 10, 10, 2, 5, 1];
        let metas: Vec<LineMeta> = (0..9)
            .map(|i| {
                let mut m = LineMeta::filled(i % 3 == 0, i % 3 != 0);
                m.set_hit_count((i % 2) as u8);
                m
            })
            .collect();
        let cores = [0u8, 1, 2, 0, 1, 2, 0, 1, 2];
        let core_rank = [2u32, 1, 0];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &rec_stamps,
            metas: &metas,
            cores: &cores,
            core_rank: &core_rank,
        };
        let p = params();
        for mask in 1u32..(1 << 9) {
            let scalar = scan_masked_scalar(&p, &ways, mask);
            assert_eq!(scan_masked(&p, &ways, mask), scalar, "mask {mask:#b}");
            assert!(mask & (1 << scalar.victim()) != 0, "victim outside mask {mask:#b}");
        }
    }

    #[test]
    fn full_mask_matches_the_unmasked_scan() {
        let age_stamps = [0u64, 7, 9, 3, 10, 10, 2];
        let metas = vec![LineMeta::filled(false, true); 7];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &age_stamps,
            metas: &metas,
            cores: &[],
            core_rank: &[],
        };
        let p = params();
        assert_eq!(scan_masked(&p, &ways, u32::MAX), scan(&p, &ways));
    }

    #[test]
    #[should_panic(expected = "no eligible way")]
    fn empty_mask_is_rejected() {
        let age_stamps = [0u64; 4];
        let metas = vec![LineMeta::filled(false, true); 4];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &age_stamps,
            metas: &metas,
            cores: &[],
            core_rank: &[],
        };
        scan_masked(&params(), &ways, 0xF0);
    }

    #[test]
    fn full_tie_picks_the_lowest_way() {
        let age_stamps = [5u64; 6];
        let metas = vec![LineMeta::filled(false, true); 6];
        let ways = ScanWays {
            age_stamps: &age_stamps,
            rec_stamps: &age_stamps,
            metas: &metas,
            cores: &[],
            core_rank: &[],
        };
        let p = params();
        assert_eq!(scan(&p, &ways).victim(), 0);
        assert_eq!(scan_scalar(&p, &ways).victim(), 0);
    }

    #[test]
    fn kernel_names_the_vector_kernel_exactly_when_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        let has_avx512vl = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let has_avx512vl = false;
        assert_eq!(kernel(), if has_avx512vl { "avx512vl" } else { "scalar" });
    }
}

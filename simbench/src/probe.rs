//! Host-speed probe: a fixed kernel owned by the benchmark, whose time
//! shows how fast the host runs at a given moment.
//!
//! On a shared host, other tenants slow this thread by up to 2×, in bursts
//! and in spells that outlast a run, so neither the fastest nor the median
//! repetition of an operation is steady from run to run. The probe (a
//! small dense f32 network, cache-resident) slows down with the measured
//! work: a time divided by the probe time taken around it varies far less
//! than the time itself. The benchmark reports that ratio in reference
//! seconds ([`scale`]): the time on a host that runs an [`ITERS`]-iteration
//! probe in [`REFERENCE_S`] seconds. The probe is benchmark code, so a
//! change to the program moves only the numerator.
//!
//! Set-ups and `dqn_train`'s phases are timed between two probes
//! ([`ProbedClock`]). A simulator operation is probed from inside its
//! streams (`segments`), because its slow-downs come in bursts shorter
//! than the operation.

use std::hint::black_box;

use crate::host::cpu_now;
use crate::report::{median, secs};

/// Probe iterations per sample between phases: about 45 ms on a 2.1 GHz
/// Xeon vCPU.
pub const ITERS: u32 = 20_000;
/// The time of an [`ITERS`]-iteration probe that reported times are
/// scaled to, in seconds.
pub const REFERENCE_S: f64 = 0.045;
/// Probe iterations per sample inside a running operation: about 1 ms.
pub const SAMPLE_ITERS: u32 = 400;

/// `t` CPU seconds, during which an `iters`-iteration probe took `probe`
/// seconds, in reference seconds.
pub fn scale(t: f64, probe: f64, iters: u32) -> f64 {
    t / probe * REFERENCE_S * f64::from(iters) / f64::from(ITERS)
}

/// One [`SAMPLE_ITERS`]-iteration probe sample; its thread CPU seconds.
pub fn sample() -> f64 {
    compute(SAMPLE_ITERS)
}

/// Times phases in reference seconds, probing the host between them.
pub struct ProbedClock {
    last_probe: f64,
    probes: Vec<f64>,
    raw: f64,
}

impl ProbedClock {
    /// Starts with one probe sample, the one before the first phase.
    pub fn new() -> Self {
        let first = compute(ITERS);
        Self {
            last_probe: first,
            probes: vec![first],
            raw: 0.0,
        }
    }

    /// Runs `phase`, then the probe; returns the phase's result and its
    /// thread CPU time in reference seconds.
    pub fn time<T>(&mut self, phase: impl FnOnce() -> T) -> (T, f64) {
        let c = cpu_now();
        let result = phase();
        let t = secs(cpu_now() - c);
        let after = compute(ITERS);
        let scaled = scale(t, (self.last_probe + after) / 2.0, ITERS);
        self.last_probe = after;
        self.probes.push(after);
        self.raw += t;
        (result, scaled)
    }

    /// Every probe time so far, in seconds.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }

    /// Unscaled thread CPU seconds of every phase so far.
    pub fn raw_seconds(&self) -> f64 {
        self.raw
    }
}

/// Runs `setup` `repeats` times, each read against the probe; returns
/// the last result and the median time in reference seconds.
///
/// # Panics
///
/// Panics if `repeats` is 0.
pub fn median_setup<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut clock = ProbedClock::new();
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let (result, t) = clock.time(&mut setup);
        last = Some(result);
        times.push(t);
    }
    (last.expect("at least one set-up"), median(&times))
}

const IN: usize = 48;
const HIDDEN: usize = 64;
const OUT: usize = 16;

/// A dense two-layer f32 network's forward and backward pass, `iters`
/// times: the shape of the DQN's own inner loop, in code no change to the
/// program can speed up. Returns the thread CPU seconds it took.
fn compute(iters: u32) -> f64 {
    let mut w1 = vec![0.0f32; IN * HIDDEN];
    let mut w2 = vec![0.0f32; HIDDEN * OUT];
    let mut x = [0.0f32; IN];
    let mut state = 0x2545_f491_u32;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
    };
    for w in w1.iter_mut().chain(w2.iter_mut()) {
        *w = next() * 0.1;
    }
    let c = cpu_now();
    let mut h = [0.0f32; HIDDEN];
    let mut q = [0.0f32; OUT];
    for _ in 0..iters {
        for v in &mut x {
            *v = next();
        }
        for (j, hj) in h.iter_mut().enumerate() {
            let row = &w1[j * IN..(j + 1) * IN];
            let s: f32 = row.iter().zip(&x).map(|(w, v)| w * v).sum();
            *hj = s.max(0.0);
        }
        for (k, qk) in q.iter_mut().enumerate() {
            let row = &w2[k * HIDDEN..(k + 1) * HIDDEN];
            *qk = row.iter().zip(&h).map(|(w, v)| w * v).sum();
        }
        let err = q[0] - 0.5;
        for (w, hj) in w2[..HIDDEN].iter_mut().zip(&h) {
            *w -= 1e-4 * err * hj;
        }
        for (j, hj) in h.iter().enumerate() {
            if *hj > 0.0 {
                let g = 1e-4 * err * w2[j];
                for (w, v) in w1[j * IN..(j + 1) * IN].iter_mut().zip(&x) {
                    *w -= g * v;
                }
            }
        }
        black_box(&q);
    }
    black_box(&w1);
    (cpu_now() - c).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probed_phases_keep_their_results_and_probe_after_each() {
        let mut clock = ProbedClock::new();
        let (v, t) = clock.time(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(t >= 0.0 && t.is_finite());
        assert_eq!(clock.probes().len(), 2);
        assert!(clock.probes().iter().all(|&p| p > 0.0));
    }

    #[test]
    fn median_setup_returns_the_last_result() {
        let mut n = 0;
        let (last, t) = median_setup(3, || {
            n += 1;
            n
        });
        assert_eq!((last, n), (3, 3));
        assert!(t >= 0.0 && t.is_finite());
    }
}

//! Probe-scaled timing of a simulator operation.
//!
//! Host time on a shared machine swings by up to 2× as other tenants load
//! it, in bursts of a fraction of a second and in spells that outlast a
//! whole run. A probe run only before and after a multi-second operation
//! samples too little of it, so the streams an operation reads carry the
//! probe inside: at every [`SEGMENT_ENTRIES`]-th trace entry a stream
//! yields, the clock checks the thread CPU time, and once [`PROBE_GAP`] of
//! it has passed since the last sample it runs a short probe sample
//! ([`probe::sample`]). The operation's time is its CPU time without the
//! samples, scaled by their mean to reference seconds ([`probe::scale`]).
//!
//! A boundary costs one counter decrement per entry plus one read of the
//! thread CPU clock per segment; the samples add about 5% to the run and
//! are left out of its time. Nothing inside the program is timed.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use workloads::TraceEntry;

use crate::host::cpu_now;
use crate::probe;

/// Trace entries per segment, per stream.
pub const SEGMENT_ENTRIES: u32 = 1 << 16;

/// Thread CPU time between two probe samples inside an operation.
pub const PROBE_GAP: Duration = Duration::from_millis(20);

#[derive(Default)]
struct State {
    start: Duration,
    /// CPU time from start to stop, samples left out.
    elapsed: Duration,
    last_sample: Duration,
    sampling: Duration,
    samples: Vec<f64>,
}

impl State {
    fn sample(&mut self) {
        let before = cpu_now();
        self.samples.push(probe::sample());
        self.last_sample = cpu_now();
        self.sampling += self.last_sample - before;
    }
}

/// Times one operation whose streams it wraps; all streams share one
/// clock, so samples land in simulation order.
#[derive(Clone, Default)]
pub struct SegmentClock {
    state: Arc<Mutex<State>>,
}

impl SegmentClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps `inner` so every [`SEGMENT_ENTRIES`]-th entry is a boundary.
    pub fn wrap<I>(&self, inner: I) -> Marked<I> {
        Marked {
            inner,
            left: SEGMENT_ENTRIES,
            clock: self.clone(),
        }
    }

    fn with<T>(&self, f: impl FnOnce(&mut State) -> T) -> T {
        f(&mut self.state.lock().expect("timing never panics"))
    }

    /// Takes a probe sample, then starts the operation's clock.
    pub fn start(&self) {
        self.with(|s| {
            s.sample();
            s.start = s.last_sample;
            s.sampling = Duration::ZERO;
        });
    }

    /// Stops the operation's clock, then takes a probe sample.
    pub fn stop(&self) {
        self.with(|s| {
            s.elapsed = cpu_now() - s.start - s.sampling;
            s.sample();
        });
    }

    fn boundary(&self) {
        self.with(|s| {
            if cpu_now() - s.last_sample >= PROBE_GAP {
                s.sample();
            }
        });
    }

    /// Thread CPU seconds between start and stop, probe samples left out.
    pub fn raw(&self) -> f64 {
        self.with(|s| s.elapsed.as_secs_f64())
    }

    /// The operation's time in reference seconds.
    pub fn scaled(&self) -> f64 {
        let mean = self.with(|s| s.samples.iter().sum::<f64>() / s.samples.len() as f64);
        probe::scale(self.raw(), mean, probe::SAMPLE_ITERS)
    }
}

/// A stream with a timing boundary every [`SEGMENT_ENTRIES`] entries.
pub struct Marked<I> {
    inner: I,
    left: u32,
    clock: SegmentClock,
}

impl<I: Iterator<Item = TraceEntry>> Iterator for Marked<I> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        self.left -= 1;
        if self.left == 0 {
            self.left = SEGMENT_ENTRIES;
            self.clock.boundary();
        }
        self.inner.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marked_streams_pass_entries_through_and_sample_the_host() {
        let wl = workloads::by_name("416.gamess").unwrap();
        let clock = SegmentClock::new();
        clock.start();
        let n = 3 * SEGMENT_ENTRIES as usize + 5;
        let got: Vec<TraceEntry> = clock.wrap(wl.stream()).take(n).collect();
        clock.stop();
        assert_eq!(got, wl.stream().take(n).collect::<Vec<_>>());
        let samples = clock.with(|s| s.samples.len());
        assert!(samples >= 2, "{samples} probe samples");
        assert!(clock.raw() > 0.0);
        assert!(clock.scaled() > 0.0 && clock.scaled().is_finite());
    }
}

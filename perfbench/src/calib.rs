//! Timings at a fixed machine speed.
//!
//! The benchmark runs on a share of a host whose speed drifts: neighbours
//! load the shared cache, the memory system and the clock, and on a
//! two-vCPU share every timing of the program moved by up to 1.8x between
//! runs minutes apart, far more than any bound a regression check can use.
//! So the benchmark times a fixed reference job once per [`SLICE`] of
//! measured work, and reports every timing of a run scaled to the speed at
//! which that job takes [`NOMINAL_NS`]: a timing `t` of a run whose median
//! job time was `r` is reported as `t × NOMINAL_NS / r`, and a rate `x` as
//! `x × r / NOMINAL_NS`. A set-up is scaled by the jobs timed just before
//! and just after it instead. The job does the kind of work the program
//! does — Bloom filter lookups, in cache and past L2 — and never changes
//! between commits, so its time follows the machine, not the program. A
//! change to the program moves the scaled timings exactly as it moves the
//! raw ones. The factor `NOMINAL_NS / r` of a run is printed beside its
//! result, so the raw timings can be recovered.
//!
//! The correction is partial: across runs on that host, scaling cut the
//! spread of the end-to-end timings by about half, but a workload's
//! slowdown is not exactly the job's.

use crate::quantile::median;
use crate::rng::{mix64, Rng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reference-job time, in ns, of the speed that reported timings are
/// scaled to: about the job's time on a two-vCPU Intel Xeon (Emerald
/// Rapids) VM in a quiet period.
pub const NOMINAL_NS: f64 = 1.0e6;
/// Measured work between two timings of the reference job by
/// [`Speed::tick`]. Each timing evicts part of the cache, which the next
/// few hundred µs of measured work pay for, so timings are rare enough
/// that this stays far below the 1% of operations a p99 reads.
pub const SLICE: Duration = Duration::from_secs(1);

/// 64-bit words of the bit array: 8 MiB, of which the first 1 MiB is the
/// small, cache-resident filter.
const BIT_WORDS: usize = 1 << 20;
const SMALL_WORDS: usize = 1 << 17;
/// Lookups per job into each of the two filters, and bit probes per
/// lookup.
const LOOKUPS: usize = 8192;
const PROBES: usize = 6;

/// The reference job: Bloom filter lookups, written here once and never
/// changed, into a cache-resident 1 MiB filter and an 8 MiB filter past
/// L2, as the program probes its small SST filters and its large tree
/// nodes and filters.
pub struct Reference {
    bits: Vec<u64>,
    hash: u64,
}

impl Reference {
    /// The job for `seed`, over random bits.
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 0xCA11);
        Self {
            bits: (0..BIT_WORDS).map(|_| rng.next_u64()).collect(),
            hash: seed,
        }
    }

    /// Run the job once; its time in ns.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut positives = 0u32;
        for words in [SMALL_WORDS, BIT_WORDS] {
            let mask = (words * 64 - 1) as u64;
            for _ in 0..LOOKUPS {
                self.hash = mix64(self.hash);
                let mut h = self.hash;
                let mut all = true;
                for _ in 0..PROBES {
                    let bit = h & mask;
                    all &= (self.bits[(bit >> 6) as usize] >> (bit & 63)) & 1 == 1;
                    h = h.rotate_left(21).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                }
                positives += all as u32;
            }
        }
        black_box(positives);
        start.elapsed().as_nanos() as f64
    }
}

/// Tracks the machine's speed through a run.
pub struct Speed {
    reference: Reference,
    /// Job times in ns.
    times: Vec<f64>,
    due: Instant,
}

impl Speed {
    /// A tracker with a warm reference job.
    pub fn new(seed: u64) -> Self {
        let mut reference = Reference::new(seed);
        reference.time();
        Self {
            reference,
            times: Vec::new(),
            due: Instant::now(),
        }
    }

    /// Time the job if a [`SLICE`] has passed since it was last timed here,
    /// or if it never was.
    pub fn tick(&mut self) {
        if Instant::now() >= self.due {
            self.times.push(self.reference.time());
            self.due = Instant::now() + SLICE;
        }
    }

    /// The run's scale factor: [`NOMINAL_NS`] over the median time of the
    /// jobs timed by [`Speed::tick`]. Timings are
    /// multiplied by it and rates divided. 1 before the first timing.
    pub fn factor(&self) -> f64 {
        median(&self.times).map_or(1.0, |t| NOMINAL_NS / t)
    }

    /// Run `f` between two timings of the job; returns its result and its
    /// duration in ns, scaled by the mean of the two. These timings do not
    /// count towards [`Speed::factor`].
    pub fn scaled<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.reference.time();
        let start = Instant::now();
        let out = black_box(f());
        let ns = start.elapsed().as_nanos() as f64;
        let after = self.reference.time();
        (out, ns * 2.0 * NOMINAL_NS / (before + after))
    }

    /// Job timings taken so far.
    pub fn samples(&self) -> usize {
        self.times.len()
    }
}

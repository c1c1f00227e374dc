//! The workloads and what they share: the read op mix, its ground truth,
//! and the summary of per-class latency samples into end-to-end metrics.
//!
//! Every workload runs in one process with at most two threads, sized for
//! two-core machines. Clients are closed-loop: a client sends its next
//! operation when the previous one has returned. Op classes interleave in
//! an order drawn from the seed.

pub mod ingest;
pub mod lsm_read;

use bloomrf::BloomRf;
use bloomrf_lsm::ReadStatsSnapshot;
use perfbench::metrics::{Values, CLASSES};
use perfbench::quantile::{percentile, tail_percentile};
use perfbench::rng::{mix64, value_of, KeySpace, Rng};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Keys per batched call (`get_batch`, filter point and range batches,
/// filter inserts).
pub const BATCH: usize = 64;
/// Width of every range query: 2¹⁰ keys.
pub const RANGE_WIDTH: u64 = 1 << 10;
/// Filter space budget of every filter in every workload.
pub const BITS_PER_KEY: f64 = 16.0;
/// The bloomRF tuning target of every filter (`FilterKind::BloomRf`).
pub const MAX_RANGE: f64 = 1e6;
/// Ids at and above this are never written, so their keys are absent.
/// Written ids stay far below it.
const ABSENT_BASE: u64 = 1 << 48;

/// What a workload is asked to do.
pub struct Args {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: u64,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Scratch directory for durable stores and the trace file.
    pub work_dir: PathBuf,
}

impl Args {
    /// Warm-up before every measured phase: caches fill and lazy set-up
    /// finishes before any sample is taken.
    pub fn warmup(&self) -> Duration {
        Duration::from_millis(1500)
    }

    /// The measured phase: the whole `--seconds` untraced, or half of it
    /// for each of the untraced and traced phases of a traced run.
    pub fn phase(&self) -> Duration {
        let ms = self.seconds * 1000;
        Duration::from_millis(if self.trace { ms / 2 } else { ms })
    }
}

/// What a workload reports.
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Answers that contradicted ground truth, plus calls that failed.
    pub failed: u64,
    pub values: Values,
    /// Context printed beside the result (sample counts, sizes).
    pub info: Vec<(String, String)>,
}

/// The op classes of the read mix. The first five are [`CLASSES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    GetHit,
    GetMiss,
    RangeEmpty,
    RangeHit,
    BatchGet,
    /// A batch of absent keys against one filter.
    FilterPoint,
    /// A batch of empty ranges against one filter.
    FilterRange,
}

impl Class {
    pub const ALL: [Class; 7] = [
        Class::GetHit,
        Class::GetMiss,
        Class::RangeEmpty,
        Class::RangeHit,
        Class::BatchGet,
        Class::FilterPoint,
        Class::FilterRange,
    ];

    /// The five read classes of [`CLASSES`].
    pub const READS: [Class; 5] = [
        Class::GetHit,
        Class::GetMiss,
        Class::RangeEmpty,
        Class::RangeHit,
        Class::BatchGet,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    /// The class's name in metric names (read classes only).
    pub fn name(self) -> &'static str {
        CLASSES[self.index()]
    }

    /// Is this one of the five read classes of [`CLASSES`]?
    pub fn is_read(self) -> bool {
        self.index() < CLASSES.len()
    }
}

/// Weights of the classes in the store workloads' mix, in [`Class::ALL`]
/// order. Single lookups dominate the count; the batched calls cost up to
/// 64 single ones each.
pub const WEIGHTS: [u64; 7] = [16, 16, 16, 16, 1, 1, 1];

/// One operation of the read mix, with its ground truth.
pub enum ReadOp {
    /// A point lookup; `present` keys hold `value_of(key, 0, len)`.
    Get { key: u64, present: bool },
    /// A range-emptiness check over `[lo, hi]`; `hit` ranges hold a key.
    Range { lo: u64, hi: u64, hit: bool },
    /// A batched lookup, half present and half absent keys.
    Batch { keys: Vec<u64>, present: Vec<bool> },
    /// Absent keys against filter `filter` of the workload's filter set.
    FilterPoint { filter: usize, keys: Vec<u64> },
    /// Empty ranges against filter `filter` of the workload's filter set.
    FilterRange {
        filter: usize,
        ranges: Vec<(u64, u64)>,
    },
}

/// Where the mix draws its keys from.
pub trait KeyPool {
    /// A key id that is present, with its version-0 value, when the
    /// operation runs.
    fn present_id(&self, rng: &mut Rng) -> u64;
    /// Does `[lo, hi]` hold no key? Pools that cannot tell answer `true`:
    /// the check only keeps the empty-range class pure, and no answer to
    /// an empty range counts as wrong.
    fn range_is_empty(&self, lo: u64, hi: u64) -> bool;
}

/// Draws the read mix from a seeded stream.
pub struct OpGen {
    rng: Rng,
    keys: KeySpace,
    filters: usize,
}

impl OpGen {
    /// Stream `stream` of the mix under `seed` with [`WEIGHTS`], with
    /// filter ops spread over `filters` filters.
    pub fn new(seed: u64, stream: u64, filters: usize) -> Self {
        Self {
            rng: Rng::new(seed, stream),
            keys: KeySpace::new(seed),
            filters: filters.max(1),
        }
    }

    pub fn class(&mut self) -> Class {
        let mut pick = self.rng.below(WEIGHTS.iter().sum());
        for (class, w) in Class::ALL.into_iter().zip(WEIGHTS) {
            if pick < w {
                return class;
            }
            pick -= w;
        }
        unreachable!("the weights cover every draw")
    }

    fn absent_key(&mut self) -> u64 {
        self.keys.key(ABSENT_BASE + self.rng.below(ABSENT_BASE))
    }

    fn present_key(&mut self, pool: &dyn KeyPool) -> u64 {
        self.keys.key(pool.present_id(&mut self.rng))
    }

    fn empty_range(&mut self, pool: &dyn KeyPool) -> (u64, u64) {
        loop {
            let lo = self.absent_key();
            if let Some(hi) = lo.checked_add(RANGE_WIDTH - 1) {
                if pool.range_is_empty(lo, hi) {
                    return (lo, hi);
                }
            }
        }
    }

    /// The next operation of the mix.
    pub fn next(&mut self, pool: &dyn KeyPool) -> (Class, ReadOp) {
        let class = self.class();
        let op = match class {
            Class::GetHit => ReadOp::Get {
                key: self.present_key(pool),
                present: true,
            },
            Class::GetMiss => ReadOp::Get {
                key: self.absent_key(),
                present: false,
            },
            Class::RangeEmpty => {
                let (lo, hi) = self.empty_range(pool);
                ReadOp::Range { lo, hi, hit: false }
            }
            Class::RangeHit => {
                let key = self.present_key(pool);
                let lo = key.saturating_sub(self.rng.below(RANGE_WIDTH));
                ReadOp::Range {
                    lo,
                    hi: lo.saturating_add(RANGE_WIDTH - 1),
                    hit: true,
                }
            }
            Class::BatchGet => {
                // Exactly half present, in seeded positions.
                let mut present: Vec<bool> = (0..BATCH).map(|i| i % 2 == 0).collect();
                for i in (1..BATCH).rev() {
                    let j = self.rng.below(i as u64 + 1) as usize;
                    present.swap(i, j);
                }
                let keys = present
                    .iter()
                    .map(|&p| {
                        if p {
                            self.present_key(pool)
                        } else {
                            self.absent_key()
                        }
                    })
                    .collect();
                ReadOp::Batch { keys, present }
            }
            Class::FilterPoint => ReadOp::FilterPoint {
                filter: self.rng.below(self.filters as u64) as usize,
                keys: (0..BATCH).map(|_| self.absent_key()).collect(),
            },
            Class::FilterRange => ReadOp::FilterRange {
                filter: self.rng.below(self.filters as u64) as usize,
                ranges: (0..BATCH).map(|_| self.empty_range(pool)).collect(),
            },
        };
        (class, op)
    }
}

/// The answer of a read operation.
#[derive(Debug, PartialEq)]
pub enum Answer {
    One(Option<Vec<u8>>),
    Bool(bool),
    Many(Vec<Option<Vec<u8>>>),
    /// Filter verdicts of a batch, as the number of positives.
    Positives(usize),
}

impl Answer {
    /// A 64-bit digest, so a later phase can check that it computed the
    /// same answers without keeping them.
    pub fn digest(&self) -> u64 {
        fn bytes(h: u64, v: &Option<Vec<u8>>) -> u64 {
            match v {
                None => mix64(h ^ 0xDEAD),
                Some(b) => b
                    .iter()
                    .fold(mix64(h ^ b.len() as u64), |h, &x| mix64(h ^ x as u64)),
            }
        }
        match self {
            Answer::One(v) => bytes(1, v),
            Answer::Bool(b) => 2 + *b as u64,
            Answer::Many(vs) => vs.iter().fold(4, bytes),
            Answer::Positives(n) => 5 ^ ((*n as u64) << 8),
        }
    }
}

/// Does `answer` agree with the ground truth of `op`? A filter false
/// positive is not a failure; a false negative or a wrong value is.
pub fn check(op: &ReadOp, answer: &Answer, value_len: usize) -> bool {
    let value_ok = |key: u64, present: bool, got: &Option<Vec<u8>>| match got {
        Some(v) => present && v[..] == value_of(key, 0, value_len)[..],
        None => !present,
    };
    match (op, answer) {
        (ReadOp::Get { key, present }, Answer::One(got)) => value_ok(*key, *present, got),
        (ReadOp::Range { hit, .. }, Answer::Bool(got)) => *got || !*hit,
        (ReadOp::Batch { keys, present }, Answer::Many(got)) => {
            got.len() == keys.len()
                && keys
                    .iter()
                    .zip(present)
                    .zip(got)
                    .all(|((&k, &p), g)| value_ok(k, p, g))
        }
        (ReadOp::FilterPoint { .. } | ReadOp::FilterRange { .. }, Answer::Positives(_)) => true,
        _ => false,
    }
}

/// Run a 64-query filter op against `filters`.
pub fn run_filter_op(filters: &[BloomRf], op: &ReadOp, verdicts: &mut Vec<bool>) -> Answer {
    match op {
        ReadOp::FilterPoint { filter, keys } => {
            filters[*filter].contains_point_batch_into(keys, verdicts)
        }
        ReadOp::FilterRange { filter, ranges } => {
            filters[*filter].contains_range_batch_into(ranges, verdicts)
        }
        _ => unreachable!("only filter ops run against the filter set"),
    }
    Answer::Positives(verdicts.iter().filter(|&&v| v).count())
}

/// Build one filter over `keys` exactly as an SST's filter block is built
/// (`FilterKind::BloomRf { max_range: 1e6 }` at 16 bits/key).
pub fn sst_like_filter(keys: &[u64]) -> BloomRf {
    use bloomrf::FilterBuilder;
    FilterBuilder::build(&BloomRf::builder().max_range(MAX_RANGE), keys, BITS_PER_KEY)
}

/// Per-class latency samples in ns.
#[derive(Default)]
pub struct Samples {
    ns: [Vec<u64>; 7],
}

impl Samples {
    pub fn push(&mut self, class: Class, ns: u64) {
        self.ns[class.index()].push(ns);
    }

    pub fn count(&self) -> u64 {
        self.ns.iter().map(|v| v.len() as u64).sum()
    }

    /// The end-to-end latency metrics of the read mix, times `factor` (the
    /// run's speed factor, see [`perfbench::calib`]); `info` gets each
    /// percentile's sample count and the percentile actually reported.
    ///
    /// The tail reported end to end is p90, not p99: on a shared two-vCPU
    /// host, p99 of the cache-resident store moved between about 6 and 11
    /// µs from one run of the same seed to the next (1% of operations
    /// running a few µs slower in some processes), past any bound a
    /// regression check can use. p99 is a per-layer metric instead (see
    /// [`Samples::report_p99`]).
    pub fn summarize(
        &mut self,
        values: &mut Values,
        info: &mut Vec<(String, String)>,
        factor: f64,
    ) {
        for v in self.ns.iter_mut() {
            v.sort_unstable();
        }
        let per_key = BATCH as f64;
        let mut put = |name: String, class: Class, q: f64, tail: bool, scale: f64| {
            let v = &self.ns[class.index()];
            let p = if tail {
                tail_percentile(v, q)
            } else {
                percentile(v, q)
            };
            values.set(
                name.clone(),
                p.map_or(f64::NAN, |p| p.value * factor / scale),
            );
            if let Some(p) = p {
                info.push((name, format!("q={:.4} n={}", p.quantile, p.samples)));
            }
        };
        for class in [
            Class::GetHit,
            Class::GetMiss,
            Class::RangeEmpty,
            Class::RangeHit,
        ] {
            put(format!("{}_p50_us", class.name()), class, 0.5, false, 1e3);
            put(format!("{}_p90_us", class.name()), class, 0.9, true, 1e3);
        }
        put(
            "batch_get_us_per_key".into(),
            Class::BatchGet,
            0.5,
            false,
            1e3 * per_key,
        );
        put(
            "filter_point_ns".into(),
            Class::FilterPoint,
            0.5,
            false,
            per_key,
        );
        put(
            "filter_range_ns".into(),
            Class::FilterRange,
            0.5,
            false,
            per_key,
        );
    }

    /// `db.p99_us.<class>`: the unscaled p99 of each read class, per key
    /// for batches, in µs.
    pub fn report_p99(&mut self, values: &mut Values) {
        for class in Class::READS {
            let v = &mut self.ns[class.index()];
            v.sort_unstable();
            let per = if class == Class::BatchGet { BATCH } else { 1 } as f64;
            if let Some(p) = tail_percentile(v, 0.99) {
                values.set_class("db.p99_us", class.name(), p.value / per / 1e3);
            }
        }
    }
}

/// Time `f` in ns.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_nanos() as u64)
}

/// Per-class sums of `Db::stats()` deltas, for per-op counts.
#[derive(Default, Clone, Copy)]
pub struct ClassCounts {
    pub ops: u64,
    pub time_ns: u64,
    pub tree_probes: u64,
    pub ssts_probed: u64,
    pub ssts_pruned: u64,
    pub filter_probes: u64,
    pub filter_positives: u64,
    pub false_positives: u64,
    pub blocks_read: u64,
    pub io_wait_ns: u64,
}

impl ClassCounts {
    /// Add one op's time and stats delta.
    pub fn add(&mut self, time_ns: u64, before: &ReadStatsSnapshot, after: &ReadStatsSnapshot) {
        self.ops += 1;
        self.time_ns += time_ns;
        self.tree_probes += after.tree_probes - before.tree_probes;
        self.ssts_probed += after.ssts_probed - before.ssts_probed;
        self.ssts_pruned += after.ssts_pruned - before.ssts_pruned;
        self.filter_probes += after.filter_probes - before.filter_probes;
        self.filter_positives += after.filter_positives - before.filter_positives;
        self.false_positives += after.false_positives - before.false_positives;
        self.blocks_read += after.blocks_read - before.blocks_read;
        self.io_wait_ns += after.io_wait_ns - before.io_wait_ns;
    }

    /// The per-op count metrics of class `class`.
    pub fn report(&self, class: &str, values: &mut Values) {
        let per_op = |x: u64| x as f64 / self.ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        values.set_class("tree.nodes", class, per_op(self.tree_probes));
        values.set_class("tree.candidates", class, per_op(self.ssts_probed));
        values.set_class(
            "tree.pruning_ratio",
            class,
            ratio(self.ssts_pruned, self.ssts_pruned + self.ssts_probed),
        );
        values.set_class("sst.filter_probes", class, per_op(self.filter_probes));
        values.set_class("sst.blocks", class, per_op(self.blocks_read));
        values.set_class(
            "sst.false_positive_ratio",
            class,
            ratio(self.false_positives, self.filter_positives),
        );
        values.set_class("io_sim.wait_us", class, per_op(self.io_wait_ns) / 1e3);
    }

    /// Mean untraced time per op, in µs.
    pub fn mean_us(&self) -> f64 {
        self.time_ns as f64 / self.ops.max(1) as f64 / 1e3
    }
}

/// Probe-cost counters of bloomRF range lookups over `ranges`, spread over
/// `filters`: words loaded, bit checks and layers visited per lookup.
pub fn range_probe_counts(filters: &[BloomRf], ranges: &[(u64, u64)], values: &mut Values) {
    let (mut words, mut bits, mut layers) = (0usize, 0usize, 0usize);
    for (i, &(lo, hi)) in ranges.iter().enumerate() {
        let (_, s) = filters[i % filters.len()].contains_range_counted(lo, hi);
        words += s.word_accesses;
        bits += s.bit_checks;
        layers += s.layers_visited;
    }
    let n = ranges.len().max(1) as f64;
    values.set("filter.words_per_range", words as f64 / n);
    values.set("filter.bit_checks_per_range", bits as f64 / n);
    values.set("filter.layers_per_range", layers as f64 / n);
}

/// `count` empty ranges drawn from `gen`'s stream, for probe-cost counts.
pub fn sample_empty_ranges(gen: &mut OpGen, pool: &dyn KeyPool, count: usize) -> Vec<(u64, u64)> {
    (0..count).map(|_| gen.empty_range(pool)).collect()
}

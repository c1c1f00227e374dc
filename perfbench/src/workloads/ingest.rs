//! `lsm_ingest_compact`: writes and reads on one durable store.
//!
//! Why: it exercises the store's write path beside its reads. Flush, the
//! full `TREE` rewrite on every flush, and compaction holding the `ssts`
//! write lock show up here as reader tail latency and as bytes written per
//! user byte, so a read-path gain that costs writes becomes visible.
//!
//! Shape: a durable `Db::open_with` store under the run's work directory,
//! through a [`CountingIo`] over `RealIo`; BloomRf filters (`max_range`
//! 1e6) at 16 bits/key, 8 entries per block, tree routing with fan-out 16.
//! Two closed-loop clients, one per core: a writer and a reader.
//!
//! Flush policy: the writer flushes explicitly after every 4096 writes and
//! calls `maybe_compact` after each flush; `memtable_flush_entries` is set
//! out of reach so the store never flushes on its own, and the tree's
//! `leaf_keys` is pinned to 4096, because it would otherwise derive from
//! `memtable_flush_entries`.
//!
//! Writes: 64-byte values over a fixed key space of 2¹⁶ ids, all written
//! once in setup. The writer then rewrites only the mutable quarter (ids
//! divisible by 4): 90% of writes put a new version, 10% delete. The
//! store stays near 65k live keys (~5 MiB of values, more than a 2–4 MiB
//! L2; 128 KiB of SST filters, which fit), so reads and compaction reach a
//! steady state instead of slowing as the store grows.
//!
//! Reads: the read mix of [`super::WEIGHTS`]. The reader asks only for the
//! ids that are never rewritten, or for keys from a never-written id space,
//! so every answer has one right value while the writer runs.
//!
//! The traced run times `Db::flush`, `Db::maybe_compact` and the
//! `StorageIo` calls under them, on a second store that repeats the
//! untraced run's writes.

use bloomrf::BloomRf;
use bloomrf_filters::FilterKind;
use bloomrf_lsm::{Db, DbOptions, IoModel, ReadRouting, RealIo, StorageIo, TreeOptions};
use perfbench::calib::Speed;
use perfbench::countio::{CountingIo, IoCounts};
use perfbench::metrics::Values;
use perfbench::quantile::{median, percentile, tail_percentile};
use perfbench::rng::{value_of, KeySpace, Rng};
use perfbench::trace::{layer_times, Tracer};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{
    check, range_probe_counts, run_filter_op, sample_empty_ranges, sst_like_filter, timed, Answer,
    Args, Class, ClassCounts, KeyPool, OpGen, Outcome, ReadOp, Samples, BITS_PER_KEY, MAX_RANGE,
};

/// Writes per flush.
const FLUSH_EVERY: u64 = 4096;
/// Bytes per value.
const VALUE_LEN: usize = 64;
/// The key space: ids `0..KEYS`, each written once in setup.
const KEYS: u64 = 1 << 16;
/// Store setups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Filters in the filter set of the filter-probe ops, one per flush batch.
const FILTERS: usize = 16;
/// Keys checked against the writer's model after each phase.
const FINAL_CHECKS: u64 = 4096;
/// Seed streams.
const WRITE_STREAM: u64 = 10;
const READ_STREAM: u64 = 11;
const SAMPLE_STREAM: u64 = 12;
const CHECK_STREAM: u64 = 13;
/// Spans kept for the trace file.
const KEEP_SPANS: usize = 50_000;

fn options() -> DbOptions {
    DbOptions {
        memtable_flush_entries: usize::MAX,
        entries_per_block: 8,
        filter_kind: FilterKind::BloomRf {
            max_range: MAX_RANGE,
        },
        bits_per_key: BITS_PER_KEY,
        io_model: IoModel::default(),
        routing: ReadRouting::FilterTree(TreeOptions {
            leaf_keys: Some(FLUSH_EVERY as usize),
            ..TreeOptions::default()
        }),
    }
}

/// Is `id` one the writer rewrites?
fn is_mutable(id: u64) -> bool {
    id.is_multiple_of(4)
}

/// The writer and its model of the store.
struct Writer {
    keys: KeySpace,
    rng: Rng,
    /// Per mutable id (`id / 4`): current version, and whether it is live.
    mutable: Vec<(u64, bool)>,
    live: u64,
    ops: u64,
    user_bytes: u64,
    failed: u64,
    /// Post-flush index size samples, bits per live key.
    index_bits: Vec<f64>,
    /// Durations of flushes and of compactions that merged tables (ns).
    flush_ns: Vec<u64>,
    compaction_ns: Vec<u64>,
    bytes_rewritten: u64,
    /// Time in `StorageIo::write` spans (traced writes only).
    io_write_ns: u64,
}

impl Writer {
    fn new(seed: u64) -> Self {
        Self {
            keys: KeySpace::new(seed),
            rng: Rng::new(seed, WRITE_STREAM),
            mutable: vec![(0, true); (KEYS / 4) as usize],
            live: 0,
            ops: 0,
            user_bytes: 0,
            failed: 0,
            index_bits: Vec::new(),
            flush_ns: Vec::new(),
            compaction_ns: Vec::new(),
            bytes_rewritten: 0,
            io_write_ns: 0,
        }
    }

    /// Clear the measurements (not the model) at the start of a phase.
    fn reset_measurements(&mut self) {
        self.index_bits.clear();
        self.flush_ns.clear();
        self.compaction_ns.clear();
        self.bytes_rewritten = 0;
        self.io_write_ns = 0;
    }

    /// Setup: write every id of the key space once, flushing as in the run.
    fn preload(&mut self, db: &Db) {
        for id in 0..KEYS {
            let key = self.keys.key(id);
            db.put(key, value_of(key, 0, VALUE_LEN));
            self.live += 1;
            self.after_write(db, None);
        }
    }

    /// One write of the run; with a tracer, it is one traced operation.
    fn step(&mut self, db: &Db, tracer: Option<&Tracer>) {
        if let Some(t) = tracer {
            t.begin_op(self.ops);
        }
        let root = tracer.map(|t| t.enter("write"));
        let slot = self.rng.below(KEYS / 4) as usize;
        let key = self.keys.key(slot as u64 * 4);
        let delete = self.rng.below(10) == 0;
        let (version, live) = &mut self.mutable[slot];
        if delete {
            if *live {
                self.live -= 1;
            }
            *live = false;
            db.delete(key);
            self.user_bytes += 8;
        } else {
            if !*live {
                self.live += 1;
            }
            *version += 1;
            *live = true;
            db.put(key, value_of(key, *version, VALUE_LEN));
            self.user_bytes += 8 + VALUE_LEN as u64;
        }
        self.after_write(db, tracer);
        if let (Some(t), Some(root)) = (tracer, root) {
            t.exit(root);
            t.finish_op(|spans| {
                for (name, total, _) in layer_times(spans) {
                    if name == "io.write" {
                        self.io_write_ns += total;
                    }
                }
            });
        }
    }

    /// The flush policy: after every [`FLUSH_EVERY`] writes, a flush and a
    /// compaction check.
    fn after_write(&mut self, db: &Db, tracer: Option<&Tracer>) {
        self.ops += 1;
        if !self.ops.is_multiple_of(FLUSH_EVERY) {
            return;
        }
        let span = |name, f: &mut dyn FnMut()| match tracer {
            Some(t) => t.span(name, f),
            None => f(),
        };
        let (_, ns) = timed(|| span("flush", &mut || db.flush()));
        self.flush_ns.push(ns);
        let mut result = Ok(None);
        let (_, ns) = timed(|| span("compaction", &mut || result = db.maybe_compact()));
        match result {
            Ok(Some(stats)) => {
                self.compaction_ns.push(ns);
                self.bytes_rewritten += stats.output_bytes as u64;
            }
            Ok(None) => {}
            Err(_) => self.failed += 1,
        }
        let (_, _, tree_bits) = db.tree_shape().unwrap_or_default();
        self.index_bits
            .push((db.total_filter_bits() + tree_bits) as f64 / self.live.max(1) as f64);
    }

    /// Check [`FINAL_CHECKS`] ids, mutable ones included, against the
    /// model. Returns `(checked, wrong)`.
    fn verify(&self, db: &Db, seed: u64) -> (u64, u64) {
        let mut rng = Rng::new(seed, CHECK_STREAM);
        let mut wrong = 0;
        for _ in 0..FINAL_CHECKS {
            let id = rng.below(KEYS);
            let key = self.keys.key(id);
            let expect = match is_mutable(id).then(|| self.mutable[(id / 4) as usize]) {
                Some((version, true)) => Some(value_of(key, version, VALUE_LEN)),
                Some((_, false)) => None,
                None => Some(value_of(key, 0, VALUE_LEN)),
            };
            if db.get(key) != expect {
                wrong += 1;
            }
        }
        (FINAL_CHECKS, wrong)
    }
}

/// Present keys: the ids the writer never rewrites.
struct Pool;

impl KeyPool for Pool {
    fn present_id(&self, rng: &mut Rng) -> u64 {
        loop {
            let id = rng.below(KEYS);
            if !is_mutable(id) {
                return id;
            }
        }
    }

    fn range_is_empty(&self, _lo: u64, _hi: u64) -> bool {
        true
    }
}

/// One store in its own directory, removed on drop.
struct Store {
    db: Db,
    io: Arc<CountingIo<RealIo>>,
    dir: PathBuf,
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Open a fresh store and preload it; returns the store, its writer and
/// the setup time in seconds.
fn setup(
    args: &Args,
    n: usize,
    tracer: Option<Arc<Tracer>>,
) -> Result<(Store, Writer, f64), String> {
    let dir = args
        .work_dir
        .join(format!("store-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let io = Arc::new(CountingIo::new(RealIo, tracer));
    let dyn_io: Arc<dyn StorageIo> = io.clone();
    let db = Db::open_with(&dir, options(), dyn_io)
        .map_err(|e| format!("opening the store in {}: {e}", dir.display()))?;
    let store = Store { db, io, dir };
    let mut writer = Writer::new(args.seed);
    writer.preload(&store.db);
    Ok((store, writer, start.elapsed().as_secs_f64()))
}

/// What the reader measured.
struct ReaderOut {
    samples: Samples,
    counts: [ClassCounts; 5],
    attempted: u64,
    failed: u64,
}

/// The reader: the read mix until `stop`, measured from `measure_from`.
/// With `count_stats`, each read op's `Db::stats()` delta is summed per
/// class. `speed`, when given, times its reference job between slices of
/// the measured reads.
fn reader(
    db: &Db,
    filters: &[BloomRf],
    seed: u64,
    measure_from: Instant,
    stop: &AtomicBool,
    count_stats: bool,
    mut speed: Option<&mut Speed>,
) -> ReaderOut {
    let mut gen = OpGen::new(seed, READ_STREAM, filters.len());
    let mut out = ReaderOut {
        samples: Samples::default(),
        counts: Default::default(),
        attempted: 0,
        failed: 0,
    };
    let mut verdicts = Vec::new();
    while !stop.load(Ordering::Acquire) {
        if let Some(s) = speed.as_deref_mut() {
            if Instant::now() >= measure_from {
                s.tick();
            }
        }
        let (class, op) = gen.next(&Pool);
        let before = count_stats.then(|| db.stats());
        let (answer, ns) = timed(|| match &op {
            ReadOp::Get { key, .. } => Answer::One(db.get(*key)),
            ReadOp::Range { lo, hi, .. } => Answer::Bool(db.range_is_possibly_non_empty(*lo, *hi)),
            ReadOp::Batch { keys, .. } => Answer::Many(db.get_batch(keys, 1)),
            _ => run_filter_op(filters, &op, &mut verdicts),
        });
        if Instant::now() < measure_from {
            continue;
        }
        if let (Some(before), true) = (before, class.is_read()) {
            out.counts[class.index()].add(ns, &before, &db.stats());
        }
        out.samples.push(class, ns);
        out.attempted += 1;
        if !check(&op, &answer, VALUE_LEN) {
            out.failed += 1;
        }
    }
    out
}

/// How long a part of a phase lasts: a time, or a number of writes.
#[derive(Clone, Copy)]
enum Length {
    For(Duration),
    Writes(u64),
}

/// What one phase measured.
struct PhaseOut {
    reads: ReaderOut,
    /// Writes before the measured window, and in it.
    warm_ops: u64,
    ops: u64,
    /// Length of the measured window.
    elapsed: Duration,
    user_bytes: u64,
    io: IoCounts,
}

/// Run the writer and the reader together: the writer warms up, then is
/// measured for `window`; the reader runs the read mix until the writer
/// stops, measuring from the end of the warm-up. With a tracer, the
/// measured writes are traced. With `speed`, the reader tracks the
/// machine's speed.
#[allow(clippy::too_many_arguments)]
fn phase(
    store: &Store,
    writer: &mut Writer,
    filters: &[BloomRf],
    seed: u64,
    warm: Length,
    window: Length,
    tracer: Option<&Tracer>,
    count_stats: bool,
    speed: Option<&mut Speed>,
) -> PhaseOut {
    let stop = AtomicBool::new(false);
    let db = &store.db;
    let run = |writer: &mut Writer, length: Length, tracer: Option<&Tracer>| {
        let start = Instant::now();
        let mut ops = 0u64;
        while match length {
            Length::For(d) => start.elapsed() < d,
            Length::Writes(n) => ops < n,
        } {
            writer.step(db, tracer);
            ops += 1;
        }
        (ops, start.elapsed())
    };
    let measure_from = match warm {
        Length::For(w) => Instant::now() + w,
        Length::Writes(_) => Instant::now(),
    };
    std::thread::scope(|scope| {
        let reads =
            scope.spawn(|| reader(db, filters, seed, measure_from, &stop, count_stats, speed));
        let (warm_ops, _) = run(writer, warm, None);
        writer.reset_measurements();
        let io_before = store.io.counts();
        let bytes_before = writer.user_bytes;
        let (ops, elapsed) = run(writer, window, tracer);
        let io_after = store.io.counts();
        stop.store(true, Ordering::Release);
        PhaseOut {
            reads: reads.join().expect("the reader thread panicked"),
            warm_ops,
            ops,
            elapsed,
            user_bytes: writer.user_bytes - bytes_before,
            io: io_after.since(&io_before),
        }
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let keys = KeySpace::new(args.seed);
    // The filter set of the filter-probe ops: flush-sized filters over the
    // key space, built as the SST filter blocks are.
    let (filters, build_ns) = timed(|| {
        (0..FILTERS as u64)
            .map(|b| {
                let ids = b * FLUSH_EVERY..(b + 1) * FLUSH_EVERY;
                sst_like_filter(&ids.map(|id| keys.key(id)).collect::<Vec<_>>())
            })
            .collect::<Vec<_>>()
    });
    let mut values = Values::default();
    let mut info = Vec::new();

    if !args.trace {
        let mut speed = Speed::new(args.seed);
        let mut setup_times = Vec::new();
        let mut last = None;
        for n in 0..SETUP_REPEATS {
            drop(last.take());
            let (fresh, ns) = speed.scaled(|| setup(args, n, None));
            let (store, writer, _) = fresh?;
            setup_times.push(ns / 1e9);
            last = Some((store, writer));
        }
        let (store, mut writer) = last.expect("at least one setup");
        let mut out = phase(
            &store,
            &mut writer,
            &filters,
            args.seed,
            Length::For(args.warmup()),
            Length::For(args.phase()),
            None,
            false,
            Some(&mut speed),
        );
        let (checked, wrong) = writer.verify(&store.db, args.seed);
        let failed = out.reads.failed + writer.failed + wrong + store.db.stats().persist_failures;
        let factor = speed.factor();
        out.reads.samples.summarize(&mut values, &mut info, factor);
        values.set("setup_s", median(&setup_times).expect("at least one setup"));
        values.set(
            "write_ops_per_s",
            out.ops as f64 / out.elapsed.as_secs_f64() / factor,
        );
        info.push(("speed_factor".into(), format!("{factor:.4}")));
        values.set(
            "index_bits_per_key",
            median(&writer.index_bits).unwrap_or(f64::NAN),
        );
        info.push(("writes".into(), out.ops.to_string()));
        info.push(("flushes".into(), writer.flush_ns.len().to_string()));
        info.push(("compactions".into(), writer.compaction_ns.len().to_string()));
        info.push(("ssts_at_end".into(), store.db.num_ssts().to_string()));
        return Ok(Outcome {
            attempted: out.reads.attempted + out.ops + checked,
            failed,
            values,
            info,
        });
    }

    // Untraced phase: reader counts per class and the write count.
    let (store, mut writer, _) = setup(args, 0, None)?;
    let mut untraced = phase(
        &store,
        &mut writer,
        &filters,
        args.seed,
        Length::For(args.warmup()),
        Length::For(args.phase()),
        None,
        true,
        None,
    );
    let (checked, wrong) = writer.verify(&store.db, args.seed);
    let mut attempted = untraced.reads.attempted + untraced.ops + checked;
    let mut failed =
        untraced.reads.failed + writer.failed + wrong + store.db.stats().persist_failures;
    drop(store);

    // Traced phase: a second store repeats the same writes, traced.
    let tracer = Arc::new(Tracer::new(KEEP_SPANS));
    let (store, mut writer, _) = setup(args, 1, Some(tracer.clone()))?;
    let traced = phase(
        &store,
        &mut writer,
        &filters,
        args.seed,
        Length::Writes(untraced.warm_ops),
        Length::Writes(untraced.ops),
        Some(&tracer),
        false,
        None,
    );
    let (checked, wrong) = writer.verify(&store.db, args.seed);
    attempted += traced.ops + traced.reads.attempted + checked;
    failed += writer.failed + wrong + store.db.stats().persist_failures + traced.reads.failed;

    for class in Class::READS {
        untraced.reads.counts[class.index()].report(class.name(), &mut values);
    }
    untraced.reads.samples.report_p99(&mut values);
    let ms = |ns: &[u64], q: f64, tail: bool| {
        let mut v = ns.to_vec();
        v.sort_unstable();
        let p = if tail {
            tail_percentile(&v, q)
        } else {
            percentile(&v, q)
        };
        p.map_or(0.0, |p| p.value / 1e6)
    };
    values.set("flush.ms_p50", ms(&writer.flush_ns, 0.5, false));
    values.set("flush.ms_p99", ms(&writer.flush_ns, 0.99, true));
    values.set("flush.count", writer.flush_ns.len() as f64);
    values.set("compaction.ms_p50", ms(&writer.compaction_ns, 0.5, false));
    values.set("compaction.ms_p99", ms(&writer.compaction_ns, 0.99, true));
    values.set("compaction.count", writer.compaction_ns.len() as f64);
    values.set("compaction.bytes_rewritten", writer.bytes_rewritten as f64);
    let io = traced.io;
    values.set("io.bytes_written", io.bytes_written as f64);
    values.set("io.tree_bytes_written", io.tree_bytes_written as f64);
    values.set("io.write_calls", io.write_calls as f64);
    values.set("io.write_ms", writer.io_write_ns as f64 / 1e6);
    values.set("io.rename_calls", io.rename_calls as f64);
    values.set("io.bytes_read", io.bytes_read as f64);
    values.set(
        "io.write_amp",
        io.bytes_written as f64 / traced.user_bytes.max(1) as f64,
    );
    let (_, _, tree_bits) = store.db.tree_shape().unwrap_or_default();
    values.set("tree.mib", tree_bits as f64 / 8.0 / (1u64 << 20) as f64);
    values.set(
        "filter.insert_ns_per_key",
        build_ns as f64 / (FILTERS as u64 * FLUSH_EVERY) as f64,
    );
    let mut gen = OpGen::new(args.seed, SAMPLE_STREAM, filters.len());
    let ranges = sample_empty_ranges(&mut gen, &Pool, 4096);
    range_probe_counts(&filters, &ranges, &mut values);
    values.set(
        "trace.overhead_frac",
        traced.elapsed.as_secs_f64() / untraced.elapsed.as_secs_f64() - 1.0,
    );
    let path = args.work_dir.join("trace-lsm_ingest_compact.jsonl");
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    info.push(("trace_file".into(), path.display().to_string()));
    info.push(("writes".into(), traced.ops.to_string()));
    Ok(Outcome {
        attempted,
        failed,
        values,
        info,
    })
}

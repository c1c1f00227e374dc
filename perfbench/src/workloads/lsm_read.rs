//! The two read-only store workloads, `lsm_many_small` and
//! `lsm_few_large`, and their traced layer-by-layer replay.
//!
//! Both load a memory-only `Db` in setup: BloomRf filters (`max_range`
//! 1e6) at 16 bits/key, 8 entries per block, default tree routing with
//! fan-out 16, 16-byte values. Flush policy: the store flushes through
//! `memtable_flush_entries`, one SST per `keys_per_sst` puts, so the tree's
//! `leaf_keys` derives from the same number. One closed-loop client then
//! issues the read mix of [`super::WEIGHTS`]; nothing is written while it
//! is measured.
//!
//! The traced run replays the same operations through the public functions
//! of the layers a `Db` read passes through — `MemTable::get` /
//! `first_in_range`, `FilterTree::candidates_points` / `candidates_ranges`
//! over a tree built with `FilterTree::build_from_ssts`, `SsTable::filter()`
//! probes, and `SsTable::get` / `get_many_with` / `scan` over SSTs built
//! with `SsTable::build` from the same flush batches — with a span around
//! each call. Before any number is reported, the replay must have rebuilt
//! the store the `Db` holds (same SST count, filter bits and tree shape),
//! and every replayed operation must return the `Db`'s answer.

use bloomrf::BloomRf;
use bloomrf_filters::FilterKind;
use bloomrf_lsm::{
    Db, DbOptions, FilterTree, IoModel, MemTable, ReadRouting, ReadStats, SsTable, SstProbeScratch,
    TreeOptions, Value,
};
use perfbench::calib::Speed;
use perfbench::metrics::Values;
use perfbench::quantile::median;
use perfbench::rng::{value_of, KeySpace, Rng};
use perfbench::trace::{layer_times, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use super::{
    check, range_probe_counts, run_filter_op, sample_empty_ranges, sst_like_filter, timed, Answer,
    Args, Class, ClassCounts, KeyPool, OpGen, Outcome, ReadOp, Samples, BATCH, BITS_PER_KEY,
    MAX_RANGE,
};

/// A read-only store shape.
pub struct Spec {
    pub name: &'static str,
    /// SSTs in the store after loading.
    pub ssts: usize,
    /// Keys per SST: the flush size.
    pub keys_per_sst: usize,
    /// Keys left in the memtable after the last flush.
    pub memtable_keys: usize,
    /// Loads per untraced run; `setup_s` is their median, and each load
    /// serves an equal part of the measured phase. One load's time varies
    /// by 15-30% from the next, so there are several.
    pub setup_repeats: usize,
}

/// `lsm_many_small`: 10,000 SSTs × 64 keys (640k keys), empty memtable.
///
/// Why: routing does most of the work. A present key visits ~51 tree nodes;
/// the tree holds ~13.2 MiB of node filters and the SSTs ~1.3 MiB, several
/// times a 2–4 MiB L2, so node probes miss the cache; `get_batch` walks
/// every SST index per batch (O(SSTs × batch)). The memtable does nothing.
/// One closed-loop client.
pub const MANY_SMALL: Spec = Spec {
    name: "lsm_many_small",
    ssts: 10_000,
    keys_per_sst: 64,
    memtable_keys: 0,
    setup_repeats: 5,
};

/// `lsm_few_large`: 16 SSTs × 4096 keys plus 4000 keys in the memtable.
///
/// Why: everything is cache-resident (16 × 8 KiB SST filters, a two-level
/// tree of ~0.25 MiB, well inside L2), so the SST filter, block decode and
/// memtable do the work. It is the control on which routing optimisations
/// must show no change, and where the tree-vs-scan crossover on small
/// stores and the prefetch-tier cost on small filters appear. One
/// closed-loop client.
pub const FEW_LARGE: Spec = Spec {
    name: "lsm_few_large",
    ssts: 16,
    keys_per_sst: 4096,
    memtable_keys: 4000,
    setup_repeats: 15,
};

/// Bytes per value.
const VALUE_LEN: usize = 16;
/// Seed streams: warm-up ops and measured ops.
const WARM_STREAM: u64 = 1;
const MEASURE_STREAM: u64 = 2;
const SAMPLE_STREAM: u64 = 3;
/// Spans kept for the trace file.
const KEEP_SPANS: usize = 50_000;
/// Warm-up after each reload but the first, which gets the full warm-up.
const REWARM: Duration = Duration::from_millis(100);

impl Spec {
    fn total_keys(&self) -> usize {
        self.ssts * self.keys_per_sst + self.memtable_keys
    }

    fn options(&self) -> DbOptions {
        DbOptions {
            memtable_flush_entries: self.keys_per_sst,
            entries_per_block: 8,
            filter_kind: FilterKind::BloomRf {
                max_range: MAX_RANGE,
            },
            bits_per_key: BITS_PER_KEY,
            io_model: IoModel::default(),
            routing: ReadRouting::FilterTree(TreeOptions::default()),
        }
    }

    /// Keys of flush batch `b` (ids in put order).
    fn batch_keys(&self, keys: &KeySpace, b: usize) -> Vec<u64> {
        let start = (b * self.keys_per_sst) as u64;
        (start..start + self.keys_per_sst as u64)
            .map(|id| keys.key(id))
            .collect()
    }

    /// Load a fresh store.
    fn load(&self, keys: &KeySpace) -> Db {
        let db = Db::new(self.options());
        for id in 0..self.total_keys() as u64 {
            let key = keys.key(id);
            db.put(key, value_of(key, 0, VALUE_LEN));
        }
        db
    }
}

/// Present keys are ids `0..n`; emptiness is checked against every key.
struct Pool {
    n: u64,
    sorted: Vec<u64>,
}

impl KeyPool for Pool {
    fn present_id(&self, rng: &mut Rng) -> u64 {
        rng.below(self.n)
    }

    fn range_is_empty(&self, lo: u64, hi: u64) -> bool {
        let i = self.sorted.partition_point(|&k| k < lo);
        i == self.sorted.len() || self.sorted[i] > hi
    }
}

fn exec(db: &Db, filters: &[BloomRf], op: &ReadOp, verdicts: &mut Vec<bool>) -> Answer {
    match op {
        ReadOp::Get { key, .. } => Answer::One(db.get(*key)),
        ReadOp::Range { lo, hi, .. } => Answer::Bool(db.range_is_possibly_non_empty(*lo, *hi)),
        ReadOp::Batch { keys, .. } => Answer::Many(db.get_batch(keys, 1)),
        _ => run_filter_op(filters, op, verdicts),
    }
}

/// Run the mix drawn by `gen` against the `Db` for `duration`; `on_op`
/// sees each op, its answer and its time. `speed`, when given, times its
/// reference job once per [`perfbench::calib::SLICE`].
fn drive(
    db: &Db,
    filters: &[BloomRf],
    pool: &Pool,
    gen: &mut OpGen,
    duration: Duration,
    mut speed: Option<&mut Speed>,
    mut on_op: impl FnMut(Class, &ReadOp, &Answer, u64),
) {
    let mut verdicts = Vec::with_capacity(BATCH);
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        if let Some(s) = speed.as_deref_mut() {
            s.tick();
        }
        let (class, op) = gen.next(pool);
        let (answer, ns) = timed(|| exec(db, filters, &op, &mut verdicts));
        on_op(class, &op, &answer, ns);
    }
}

pub fn run(spec: &Spec, args: &Args) -> Result<Outcome, String> {
    let keys = KeySpace::new(args.seed);
    let total = spec.total_keys();

    // The filter set of the filter-probe ops: one filter per flush batch,
    // built as the SST filter blocks are.
    let (filters, build_ns) = timed(|| {
        (0..spec.ssts)
            .map(|b| sst_like_filter(&spec.batch_keys(&keys, b)))
            .collect::<Vec<_>>()
    });
    let mut sorted: Vec<u64> = (0..total as u64).map(|id| keys.key(id)).collect();
    sorted.sort_unstable();
    let pool = Pool {
        n: total as u64,
        sorted,
    };
    let load = |speed: &mut Speed| {
        let (db, ns) = speed.scaled(|| spec.load(&keys));
        if db.num_ssts() != spec.ssts {
            return Err(format!(
                "{}: expected {} SSTs after loading, found {}",
                spec.name,
                spec.ssts,
                db.num_ssts()
            ));
        }
        Ok((db, ns / 1e9))
    };

    let mut speed = Speed::new(args.seed);
    let mut values = Values::default();
    let mut info = vec![
        ("ssts".to_string(), spec.ssts.to_string()),
        ("keys".to_string(), total.to_string()),
    ];
    if args.trace {
        let (db, _) = load(&mut speed)?;
        info.push(("tree_shape".to_string(), format!("{:?}", db.tree_shape())));
        let (attempted, failed) = traced(spec, args, &db, &filters, &pool, &mut values, &mut info)?;
        values.set(
            "filter.insert_ns_per_key",
            build_ns as f64 / (spec.ssts * spec.keys_per_sst) as f64,
        );
        let mut gen = OpGen::new(args.seed, SAMPLE_STREAM, filters.len());
        range_probe_counts(
            &filters,
            &sample_empty_ranges(&mut gen, &pool, 4096),
            &mut values,
        );
        return Ok(Outcome {
            attempted,
            failed,
            values,
            info,
        });
    }

    // The measured phase is split over `setup_repeats` freshly loaded
    // stores. Where a store's memory lands decides how its hot set maps
    // onto the cache, and that moved single-store timings by up to 30%
    // from one process to the next; the parts average over placements.
    let mut load_times = Vec::new();
    let mut failed = 0u64;
    let mut samples = Samples::default();
    let mut warm_gen = OpGen::new(args.seed, WARM_STREAM, filters.len());
    let mut gen = OpGen::new(args.seed, MEASURE_STREAM, filters.len());
    let part = args.phase() / spec.setup_repeats as u32;
    let mut db = None;
    for i in 0..spec.setup_repeats {
        drop(db.take());
        let (fresh, secs) = load(&mut speed)?;
        load_times.push(secs);
        let warm = if i == 0 { args.warmup() } else { REWARM };
        drive(
            &fresh,
            &filters,
            &pool,
            &mut warm_gen,
            warm,
            None,
            |_, _, _, _| {},
        );
        drive(
            &fresh,
            &filters,
            &pool,
            &mut gen,
            part,
            Some(&mut speed),
            |class, op, answer, ns| {
                samples.push(class, ns);
                if !check(op, answer, VALUE_LEN) {
                    failed += 1;
                }
            },
        );
        db = Some(fresh);
    }
    let db = db.expect("at least one load");
    let factor = speed.factor();
    samples.summarize(&mut values, &mut info, factor);
    info.push(("speed_factor".into(), format!("{factor:.4}")));
    info.push(("tree_shape".to_string(), format!("{:?}", db.tree_shape())));
    let setup_s = median(&load_times).expect("at least one load");
    let (_, _, tree_bits) = db.tree_shape().unwrap_or_default();
    values.set("setup_s", setup_s);
    values.set("write_ops_per_s", total as f64 / setup_s);
    values.set(
        "index_bits_per_key",
        (db.total_filter_bits() + tree_bits) as f64 / total as f64,
    );
    Ok(Outcome {
        attempted: samples.count(),
        failed,
        values,
        info,
    })
}

/// The traced run: an untraced phase against the `Db` that records each
/// op's time, `Db::stats()` delta and answer digest, then the replay of the
/// same ops through the layers.
fn traced(
    spec: &Spec,
    args: &Args,
    db: &Db,
    filters: &[BloomRf],
    pool: &Pool,
    values: &mut Values,
    info: &mut Vec<(String, String)>,
) -> Result<(u64, u64), String> {
    let keys = KeySpace::new(args.seed);
    let mut mirror = Mirror::build(spec, &keys);
    mirror.check_against(db)?;

    // Untraced phase.
    drive(
        db,
        filters,
        pool,
        &mut OpGen::new(args.seed, WARM_STREAM, filters.len()),
        args.warmup(),
        None,
        |_, _, _, _| {},
    );
    let mut counts = [ClassCounts::default(); 5];
    let mut samples = Samples::default();
    let mut digests = Vec::new();
    let mut failed = 0u64;
    let mut verdicts = Vec::new();
    let mut gen = OpGen::new(args.seed, MEASURE_STREAM, filters.len());
    let deadline = Instant::now() + args.phase();
    while Instant::now() < deadline {
        let (class, op) = gen.next(pool);
        let before = db.stats();
        let (answer, ns) = timed(|| exec(db, filters, &op, &mut verdicts));
        let after = db.stats();
        if class.is_read() {
            counts[class.index()].add(ns, &before, &after);
        }
        samples.push(class, ns);
        if !check(&op, &answer, VALUE_LEN) {
            failed += 1;
        }
        digests.push(answer.digest());
    }
    let ops = digests.len() as u64;
    samples.report_p99(values);

    // Replay: warm the mirror, run the ops once untraced, then once traced.
    let off = Tracer::disabled();
    let mut warm = OpGen::new(args.seed, WARM_STREAM, filters.len());
    let deadline = Instant::now() + args.warmup();
    while Instant::now() < deadline {
        let (class, op) = warm.next(pool);
        if class.is_read() {
            black_box(mirror.replay(&off, &op));
        }
    }
    // Tracing overhead: the first quarter of the ops replayed untraced
    // before and after the traced pass, against the same ops traced.
    let overhead_ops = ops / 4;
    let untraced_pass = |mirror: &mut Mirror| {
        let mut gen = OpGen::new(args.seed, MEASURE_STREAM, filters.len());
        let mut ns = 0u64;
        for _ in 0..overhead_ops {
            let (class, op) = gen.next(pool);
            if class.is_read() {
                ns += timed(|| mirror.replay(&off, &op)).1;
            }
        }
        ns
    };
    let mut untraced_replay_ns = untraced_pass(&mut mirror);
    let tracer = Tracer::new(KEEP_SPANS);
    let mut traced_replay_ns = 0u64;
    // Per class: memtable, tree, filter span totals, SST span totals less
    // the filter probes the SST calls timed themselves (all ns), and the
    // memtable-answered fraction.
    let mut sums = [[0f64; 5]; 5];
    let mut gen = OpGen::new(args.seed, MEASURE_STREAM, filters.len());
    for (i, &digest) in digests.iter().enumerate() {
        let (class, op) = gen.next(pool);
        if !class.is_read() {
            continue;
        }
        let (replayed, ns) = timed(|| {
            tracer.begin_op(i as u64);
            let root = tracer.enter("op");
            let out = mirror.replay(&tracer, &op);
            tracer.exit(root);
            out
        });
        if (i as u64) < overhead_ops {
            traced_replay_ns += ns;
        }
        let (answer, memtable_hits, inner_probe_ns) = replayed;
        if answer.digest() != digest {
            return Err(format!(
                "{}: replayed op {i} ({:?}) answered {answer:?}, unlike the Db",
                spec.name, class
            ));
        }
        let s = &mut sums[class.index()];
        tracer.finish_op(|spans| {
            for (name, _, self_ns) in layer_times(spans) {
                let slot = match name {
                    "memtable" => 0,
                    "tree" => 1,
                    "filter" => 2,
                    "sst" => 3,
                    _ => continue,
                };
                s[slot] += self_ns as f64;
            }
        });
        s[3] -= inner_probe_ns as f64;
        s[4] += memtable_hits;
    }

    untraced_replay_ns += untraced_pass(&mut mirror);

    for class in Class::READS {
        let c = &counts[class.index()];
        let s = &sums[class.index()];
        let n = c.ops.max(1) as f64;
        let name = class.name();
        c.report(name, values);
        values.set_class("memtable.us", name, s[0] / n / 1e3);
        values.set_class("tree.us", name, s[1] / n / 1e3);
        values.set_class("sst.filter_us", name, s[2] / n / 1e3);
        values.set_class("sst.block_us", name, s[3] / n / 1e3);
        values.set_class("memtable.hit_ratio", name, s[4] / n);
        values.set_class(
            "db.unattributed_us",
            name,
            c.mean_us() - (s[0] + s[1] + s[2] + s[3]) / n / 1e3,
        );
        info.push((format!("ops.{name}"), c.ops.to_string()));
    }
    values.set(
        "trace.overhead_frac",
        2.0 * traced_replay_ns as f64 / untraced_replay_ns as f64 - 1.0,
    );
    values.set(
        "tree.mib",
        mirror.tree.memory_bits() as f64 / 8.0 / (1u64 << 20) as f64,
    );
    let path = args.work_dir.join(format!("trace-{}.jsonl", spec.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    info.push(("trace_file".to_string(), path.display().to_string()));
    Ok((ops, failed))
}

/// The store rebuilt from the same flush batches through the layers'
/// public constructors.
struct Mirror {
    memtable: MemTable,
    ssts: Vec<SsTable>,
    tree: FilterTree,
    io: IoModel,
    stats: ReadStats,
    scratch: SstProbeScratch,
    verdicts: Vec<bool>,
}

impl Mirror {
    fn build(spec: &Spec, keys: &KeySpace) -> Self {
        let opts = spec.options();
        let entries = |ids: std::ops::Range<u64>| {
            let mut e: Vec<(u64, Value)> = ids
                .map(|id| {
                    let key = keys.key(id);
                    (key, Value::Put(value_of(key, 0, VALUE_LEN)))
                })
                .collect();
            e.sort_unstable_by_key(|&(k, _)| k);
            e
        };
        let kps = spec.keys_per_sst as u64;
        let ssts: Vec<SsTable> = (0..spec.ssts as u64)
            .map(|b| {
                SsTable::build(
                    &entries(b * kps..(b + 1) * kps),
                    opts.entries_per_block,
                    opts.filter_kind,
                    opts.bits_per_key,
                )
            })
            .collect();
        let memtable = MemTable::new();
        let flushed = spec.ssts as u64 * kps;
        for (key, value) in entries(flushed..flushed + spec.memtable_keys as u64) {
            if let Value::Put(v) = value {
                memtable.put(key, v);
            }
        }
        let tree_opts = TreeOptions::default();
        let tree =
            FilterTree::build_from_ssts(tree_opts.fanout, spec.keys_per_sst, BITS_PER_KEY, &ssts);
        Self {
            memtable,
            ssts,
            tree,
            io: opts.io_model,
            stats: ReadStats::new(),
            scratch: SstProbeScratch::default(),
            verdicts: Vec::new(),
        }
    }

    /// The replay fidelity gate: the mirror must hold the store the `Db`
    /// holds.
    fn check_against(&self, db: &Db) -> Result<(), String> {
        let filter_bits: usize = self.ssts.iter().map(SsTable::filter_bits).sum();
        let shape = Some((
            self.tree.depth(),
            self.tree.num_nodes(),
            self.tree.memory_bits(),
        ));
        if db.num_ssts() != self.ssts.len()
            || db.total_filter_bits() != filter_bits
            || db.tree_shape() != shape
            || db.num_entries()
                != self.memtable.len() + self.ssts.iter().map(SsTable::num_entries).sum::<usize>()
        {
            return Err(format!(
                "replay store differs from the Db: ssts {} vs {}, filter bits {} vs {}, tree {:?} vs {:?}",
                self.ssts.len(),
                db.num_ssts(),
                filter_bits,
                db.total_filter_bits(),
                shape,
                db.tree_shape()
            ));
        }
        Ok(())
    }

    /// Run `op` as the `Db` does, through the layers, with a span around
    /// each layer call. Returns the answer, the fraction of the op's keys
    /// the memtable answered, and the filter-probe time the `SsTable`
    /// calls measured themselves (`ReadStats::filter_probe_ns`).
    ///
    /// Each SST's filter is first probed on its own, in a `filter` span,
    /// as the `Db` probes it: on a cold cache. The `SsTable` call then
    /// probes it again, warm; that second probe is taken out of the `sst`
    /// layer's time, so `filter` + `sst` model the one probe and the block
    /// work the `Db` does.
    fn replay(&mut self, tr: &Tracer, op: &ReadOp) -> (Answer, f64, u64) {
        let before = self.stats.filter_probe_ns.load(Ordering::Relaxed);
        let (answer, memtable_hits) = match op {
            ReadOp::Get { key, .. } => self.get(tr, *key),
            ReadOp::Range { lo, hi, .. } => self.range(tr, *lo, *hi),
            ReadOp::Batch { keys, .. } => self.batch(tr, keys),
            _ => unreachable!("filter ops are not replayed"),
        };
        (
            answer,
            memtable_hits,
            self.stats.filter_probe_ns.load(Ordering::Relaxed) - before,
        )
    }

    fn get(&mut self, tr: &Tracer, key: u64) -> (Answer, f64) {
        if let Some(v) = tr.span("memtable", || self.memtable.get(key)) {
            return (Answer::One(v.into_put()), 1.0);
        }
        let candidates = tr
            .span("tree", || self.tree.candidates_points(&[key], &self.stats))
            .pop()
            .unwrap_or_default();
        for &i in candidates.iter().rev() {
            let sst = &self.ssts[i];
            let (lo, hi) = sst.key_range();
            if lo <= key && key <= hi {
                tr.span("filter", || black_box(sst.filter().may_contain(key)));
            }
            if let Some(v) = tr.span("sst", || sst.get(key, &self.io, &self.stats)) {
                return (Answer::One(v.into_put()), 0.0);
            }
        }
        (Answer::One(None), 0.0)
    }

    fn range(&mut self, tr: &Tracer, lo: u64, hi: u64) -> (Answer, f64) {
        if tr.span("memtable", || {
            self.memtable.first_in_range(lo, hi).is_some()
        }) {
            return (Answer::Bool(true), 1.0);
        }
        let candidates = tr
            .span("tree", || {
                self.tree.candidates_ranges(&[(lo, hi)], &self.stats)
            })
            .pop()
            .unwrap_or_default();
        for &i in &candidates {
            let sst = &self.ssts[i];
            let (first, last) = sst.key_range();
            if lo <= hi && hi >= first && lo <= last {
                tr.span("filter", || {
                    black_box(sst.filter().may_contain_range(lo, hi))
                });
            }
            let found = tr.span("sst", || {
                !sst.scan(lo, hi, 1, &self.io, &self.stats).is_empty()
            });
            if found {
                return (Answer::Bool(true), 0.0);
            }
        }
        (Answer::Bool(false), 0.0)
    }

    fn batch(&mut self, tr: &Tracer, keys: &[u64]) -> (Answer, f64) {
        let mut out: Vec<Option<Value>> = tr.span("memtable", || {
            keys.iter().map(|&k| self.memtable.get(k)).collect()
        });
        let memtable_hits = out.iter().filter(|v| v.is_some()).count() as f64 / keys.len() as f64;
        let open: Vec<usize> = (0..keys.len()).filter(|&i| out[i].is_none()).collect();
        let open_keys: Vec<u64> = open.iter().map(|&i| keys[i]).collect();
        let candidates = tr.span("tree", || {
            self.tree.candidates_points(&open_keys, &self.stats)
        });
        // Route each open key to its candidate SSTs, newest SST first.
        let mut routes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (j, c) in candidates.iter().enumerate() {
            for &s in c {
                routes.entry(s).or_default().push(j);
            }
        }
        for (&s, js) in routes.iter().rev() {
            let routed: Vec<usize> = js
                .iter()
                .copied()
                .filter(|&j| out[open[j]].is_none())
                .collect();
            if routed.is_empty() {
                continue;
            }
            let sst = &self.ssts[s];
            let sub_keys: Vec<u64> = routed.iter().map(|&j| open_keys[j]).collect();
            let (first, last) = sst.key_range();
            let fenced: Vec<u64> = sub_keys
                .iter()
                .copied()
                .filter(|&k| first <= k && k <= last)
                .collect();
            if !fenced.is_empty() {
                let verdicts = &mut self.verdicts;
                tr.span("filter", || {
                    sst.filter().may_contain_batch_into(&fenced, verdicts)
                });
            }
            let scratch = &mut self.scratch;
            let found = tr.span("sst", || {
                sst.get_many_with(&sub_keys, &self.io, &self.stats, scratch)
            });
            for (&j, value) in routed.iter().zip(found) {
                if value.is_some() {
                    out[open[j]] = value;
                }
            }
        }
        let answers = out
            .into_iter()
            .map(|v| v.and_then(Value::into_put))
            .collect();
        (Answer::Many(answers), memtable_hits)
    }
}

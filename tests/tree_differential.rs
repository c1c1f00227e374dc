//! Differential tests for Bloofi-style filter-tree routing: tree-routed
//! reads must be byte-identical to the scan-all reference path — for every
//! read API, for every fan-out, with data split across memtable and SSTs,
//! and after fault-injected recovery rebuilt the tree and quarantined
//! filters. Plus the headline acceptance check: at 1 000 SSTs a point get
//! probes O(fan-out · depth) filters, not 1 000.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bloomrf_filters::FilterKind;
use bloomrf_lsm::io::{FaultConfig, FaultyIo, RealIo};
use bloomrf_lsm::{Db, DbOptions, IoModel, ReadRouting, TreeOptions};
use proptest::prelude::*;

/// Self-cleaning std-only temporary directory (the environment has no
/// `tempfile` crate; see vendor/README.md).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bloomrf-tree-diff-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Base seed for the fault-injection schedules; CI's `fault-injection` job
/// replays under several seeds via `FAULT_SEED` (decimal or `0x`-hex).
fn fault_seed(default: u64) -> u64 {
    match std::env::var("FAULT_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("unparsable FAULT_SEED {s:?}"))
        }
        Err(_) => default,
    }
}

fn options(flush_entries: usize, routing: ReadRouting) -> DbOptions {
    DbOptions {
        memtable_flush_entries: flush_entries,
        entries_per_block: 8,
        filter_kind: FilterKind::BloomRf { max_range: 1e6 },
        bits_per_key: 16.0,
        io_model: IoModel::default(),
        routing,
    }
}

fn tree_routing(fanout: usize) -> ReadRouting {
    ReadRouting::FilterTree(TreeOptions {
        fanout,
        leaf_keys: None,
        bits_per_key: None,
    })
}

fn value_for(key: u64, version: usize) -> Vec<u8> {
    vec![(key % 251) as u8, (version % 97) as u8, 0xA5]
}

/// Assert every read API answers identically on the two stores.
fn assert_reads_identical(
    scan: &Db,
    routed: &Db,
    probes: &[u64],
    ranges: &[(u64, u64)],
    context: &str,
) {
    for &k in probes {
        assert_eq!(scan.get(k), routed.get(k), "{context}: get({k})");
    }
    for threads in [1usize, 3] {
        assert_eq!(
            scan.get_batch(probes, threads),
            routed.get_batch(probes, threads),
            "{context}: get_batch(threads={threads})"
        );
        assert_eq!(
            scan.range_non_empty_batch(ranges, threads),
            routed.range_non_empty_batch(ranges, threads),
            "{context}: range_non_empty_batch(threads={threads})"
        );
    }
    for &(lo, hi) in ranges {
        assert_eq!(
            scan.range_is_possibly_non_empty(lo, hi),
            routed.range_is_possibly_non_empty(lo, hi),
            "{context}: range [{lo}, {hi}]"
        );
        assert_eq!(
            scan.scan(lo, hi, 16),
            routed.scan(lo, hi, 16),
            "{context}: scan [{lo}, {hi}]"
        );
    }
}

/// The ISSUE's acceptance criterion: with 1 000 SSTs and a point-sparse
/// keyspace, a tree-routed `Db::get` visits O(fan-out · depth) filter nodes
/// and selects a handful of candidate SSTs — the other ~999 are pruned
/// without ever probing their per-SST filters.
#[test]
fn thousand_ssts_point_gets_probe_fanout_times_depth_not_one_thousand() {
    let fanout = 16usize;
    let db = Db::new(options(8, tree_routing(fanout)));
    for i in 0..8_000u64 {
        db.put(i * 1_000, value_for(i * 1_000, 0)); // sparse: gaps of 1000
    }
    assert_eq!(db.num_ssts(), 1_000);
    let (levels, nodes, _bits) = db.tree_shape().expect("tree routing is on");
    assert_eq!(levels, 4, "1000 leaves at fan-out 16 need 4 levels");
    assert!(nodes >= 1_000, "one leaf per SST plus inner nodes");

    // Present keys: the descent re-probes the children of each positive
    // node, so a clean root-to-leaf walk costs at most fanout · (depth − 1)
    // + 1 tree probes; false positives add a bounded extra. The candidate
    // set is the one owning SST plus rare false-positive leaves.
    let queries = 200u64;
    db.reset_stats();
    for i in 0..queries {
        let k = (i * 37 % 8_000) * 1_000;
        assert!(db.get(k).is_some(), "present key {k}");
    }
    let stats = db.stats();
    let probe_budget = (fanout * levels) as f64; // O(fan-out · depth)
    let tree_probes_per_get = stats.tree_probes as f64 / queries as f64;
    let ssts_probed_per_get = stats.ssts_probed as f64 / queries as f64;
    assert!(
        tree_probes_per_get <= 2.0 * probe_budget,
        "descent must stay within O(fanout*depth): {tree_probes_per_get:.1} probes/get \
         vs budget {probe_budget}"
    );
    assert!(
        ssts_probed_per_get <= 8.0,
        "candidates must be the owner plus rare false positives, \
         got {ssts_probed_per_get:.1} SSTs/get out of 1000"
    );
    assert!(
        stats.ssts_pruned as f64 / queries as f64 >= 990.0,
        "nearly all 1000 tables must be pruned per get"
    );

    // Absent keys between the gaps: usually rejected high in the tree.
    db.reset_stats();
    for i in 0..queries {
        assert_eq!(db.get(i * 1_000 + 500), None, "absent key");
    }
    let stats = db.stats();
    assert!(
        stats.ssts_probed as f64 / queries as f64 <= 4.0,
        "absent keys must select (almost) no SSTs"
    );
    assert!(stats.pruning_ratio() > 0.99);
    assert!(stats.effective_fpr() < 0.05);
}

/// Drive a scan-all and a tree-routed store through the same write stream
/// and require every read API to answer identically. Every third write
/// overwrites an older key (newest-wins crosses SSTs); with `delete_every =
/// d > 0` every `d`-th write also deletes an older key, so a newer
/// tombstone must block an older put. The point probes repeat half the
/// written keys, so one batch holds the same key twice. Returns the
/// tree-routed store.
fn check_routed_matches_scan_all(
    keys: &[u64],
    delete_every: usize,
    extra_probes: &[u64],
    ranges: &[(u64, u64)],
    fanout: usize,
    flush_entries: usize,
    final_flush: bool,
) -> Db {
    let scan = Db::new(options(flush_entries, ReadRouting::ScanAll));
    let routed = Db::new(options(flush_entries, tree_routing(fanout)));
    for (i, &k) in keys.iter().enumerate() {
        let v = value_for(k, i);
        scan.put(k, v.clone());
        routed.put(k, v);
        if i % 3 == 0 {
            let older = keys[i / 2];
            let v = value_for(older, i + 1);
            scan.put(older, v.clone());
            routed.put(older, v);
        }
        if deletes_at(i, delete_every) {
            let older = keys[i / 3];
            scan.delete(older);
            routed.delete(older);
        }
    }
    if final_flush {
        scan.flush();
        routed.flush();
    }
    assert_eq!(scan.num_ssts(), routed.num_ssts());

    let mut probes: Vec<u64> = keys.to_vec();
    probes.extend_from_slice(extra_probes);
    probes.extend(keys.iter().step_by(2));
    // Deliberately include reversed ranges: they must answer exactly like
    // scan-all (the tree never prunes a reversed interval).
    let mut all_ranges = ranges.to_vec();
    all_ranges.extend(
        keys.iter()
            .map(|&k| (k.saturating_add(10), k.saturating_sub(10))),
    );
    all_ranges.extend(keys.iter().step_by(3).map(|&k| (k, k)));
    assert_reads_identical(&scan, &routed, &probes, &all_ranges, "in-memory");
    routed
}

proptest! {
    /// Tree-routed `get`/`get_batch`/`range_non_empty{,_batch}`/`scan` are
    /// byte-identical to the scan-all path across random keyspaces,
    /// fan-outs, overwrites (newest-wins), deletes whose tombstones land in
    /// newer SSTs than the puts they shadow, duplicate keys within one
    /// batch and reversed ranges, with data split between memtable and
    /// SSTs.
    #[test]
    fn tree_routed_reads_match_scan_all(
        keys in proptest::collection::vec(any::<u64>(), 1..300),
        extra_probes in proptest::collection::vec(any::<u64>(), 1..80),
        ranges in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..50),
        fanout in 2usize..9,
        flush_entries in 8usize..64,
        delete_every in 0usize..8,
        final_flush in any::<bool>(),
    ) {
        check_routed_matches_scan_all(
            &keys,
            delete_every,
            &extra_probes,
            &ranges,
            fanout,
            flush_entries,
            final_flush,
        );
    }
}

/// The same differential at 300+ SSTs and fan-out 4, over a keyspace small
/// enough that every SST's fence spans most of it: keys are overwritten
/// and deleted across many SSTs, so a batch key has several candidate SSTs,
/// and sibling leaves of the true owners pass as false positives.
#[test]
fn tree_routed_reads_match_scan_all_at_300_ssts() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let keys: Vec<u64> = (0..1_800)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % 1_024 * 2 // even keys; odd keys are never written
        })
        .collect();
    let absent: Vec<u64> = keys.iter().map(|&k| k + 1).collect();
    let ranges: Vec<(u64, u64)> = (0..2_048u64)
        .step_by(7)
        .map(|lo| (lo, lo + (lo % 5)))
        .collect();
    let flush_entries = 8;
    let routed = check_routed_matches_scan_all(&keys, 5, &absent, &ranges, 4, flush_entries, true);
    assert!(routed.num_ssts() >= 300, "{} SSTs", routed.num_ssts());

    // Candidates per present key: more than one SST owns most keys, and
    // the tree adds false-positive leaves on top of every true owner.
    let present: Vec<u64> = keys.iter().copied().step_by(3).collect();
    routed.reset_stats();
    routed.get_batch(&present, 1);
    let candidates = routed.stats().ssts_probed;
    let owners = sst_owners(&keys, 5, flush_entries);
    let true_owners: u64 = present.iter().map(|k| owners[k]).sum();
    assert!(
        true_owners > 2 * present.len() as u64,
        "keys must live in several SSTs: {true_owners} owners for {} keys",
        present.len()
    );
    assert!(
        candidates > true_owners,
        "expected false-positive leaves: {candidates} candidates, {true_owners} owners"
    );
}

/// Does write `i` of the differential stream also delete an older key?
fn deletes_at(i: usize, delete_every: usize) -> bool {
    delete_every != 0 && i % delete_every == delete_every - 1
}

/// How many SSTs hold each key (as a put or a tombstone) after
/// [`check_routed_matches_scan_all`]'s write stream with a final flush: the
/// memtable flushes whenever it holds `flush_entries` distinct keys.
fn sst_owners(
    keys: &[u64],
    delete_every: usize,
    flush_entries: usize,
) -> std::collections::HashMap<u64, u64> {
    let mut owners = std::collections::HashMap::new();
    let mut memtable = std::collections::HashSet::new();
    let mut write = |k: u64, memtable: &mut std::collections::HashSet<u64>| {
        memtable.insert(k);
        if memtable.len() >= flush_entries {
            for k in memtable.drain() {
                *owners.entry(k).or_insert(0) += 1;
            }
        }
    };
    for (i, &k) in keys.iter().enumerate() {
        write(k, &mut memtable);
        if i % 3 == 0 {
            write(keys[i / 2], &mut memtable);
        }
        if deletes_at(i, delete_every) {
            write(keys[i / 3], &mut memtable);
        }
    }
    for k in memtable.drain() {
        *owners.entry(k).or_insert(0) += 1;
    }
    owners
}

/// Fault-injected recovery: persist a tree-routed store, flip a bit inside
/// a committed SST's filter block (quarantine + rebuild) and corrupt the
/// TREE file (rebuild-from-SSTs fallback), then reopen under a sweep of
/// `FaultyIo` transient-read seeds — once per routing — and require the two
/// recovered stores to answer every read identically.
#[test]
fn faulty_recovery_keeps_tree_and_scan_all_identical() {
    let base_seed = fault_seed(0xD1FF);
    let dir = TempDir::new("recovery");
    let keys: Vec<u64> = (0..1_200u64).map(|i| i * 7_919).collect();
    {
        let db =
            Db::open_with(dir.path(), options(100, tree_routing(4)), Arc::new(RealIo)).unwrap();
        for &k in &keys {
            db.put(k, value_for(k, 1));
        }
        db.flush();
        assert_eq!(db.num_ssts(), 12);
        assert!(dir.path().join("TREE").exists(), "tree must be persisted");
    }

    // Flip one bit deep inside the oldest SST's serialized filter block —
    // recovery must quarantine and rebuild it with zero false negatives.
    let sst1 = dir.path().join("000001.sst");
    let mut bytes = std::fs::read(&sst1).unwrap();
    let filter_pos = bytes
        .windows(4)
        .position(|w| w == b"BLRF")
        .expect("persisted SST embeds the serialized filter");
    bytes[filter_pos + 64] ^= 0x04;
    std::fs::write(&sst1, &bytes).unwrap();

    let probes: Vec<u64> = keys
        .iter()
        .copied()
        .chain(keys.iter().map(|k| k + 1)) // absent neighbours
        .collect();
    let ranges: Vec<(u64, u64)> = keys
        .iter()
        .step_by(37)
        .map(|&k| (k.saturating_sub(3), k + 3))
        .chain([(500, 400)]) // reversed
        .collect();

    for salt in 0..3u64 {
        // Corrupt the persisted TREE so recovery exercises the
        // rebuild-from-SSTs fallback — every iteration, because a recovered
        // store re-persists the repaired tree.
        let tree_path = dir.path().join("TREE");
        let mut tree_bytes = std::fs::read(&tree_path).unwrap();
        let mid = tree_bytes.len() / 2;
        tree_bytes[mid] ^= 0xFF;
        std::fs::write(&tree_path, &tree_bytes).unwrap();

        let seed = base_seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9));
        let faulty = || {
            Arc::new(FaultyIo::new(
                seed,
                FaultConfig {
                    transient_read_error: 0.2,
                    max_transient_failures: 2,
                    ..Default::default()
                },
            ))
        };
        let scan = Db::open_with(dir.path(), options(100, ReadRouting::ScanAll), faulty()).unwrap();
        let routed = Db::open_with(dir.path(), options(100, tree_routing(4)), faulty()).unwrap();

        let routed_stats = routed.stats();
        assert_eq!(
            routed_stats.tree_rebuilds, 1,
            "corrupt TREE must trigger exactly one rebuild-from-SSTs (seed {seed:#x})"
        );
        assert_eq!(routed_stats.filters_quarantined, 1, "flipped filter block");
        assert_eq!(routed_stats.filters_rebuilt, 1);
        assert_eq!(scan.num_ssts(), 12);
        assert_eq!(routed.num_ssts(), 12);

        assert_reads_identical(&scan, &routed, &probes, &ranges, "post-recovery");
        for &k in &keys {
            assert_eq!(
                routed.get(k),
                Some(value_for(k, 1)),
                "zero false negatives after recovery (key {k})"
            );
        }
    }

    // The rebuilt tree was re-persisted: a clean reopen validates it and
    // does not rebuild again.
    let clean = Db::open_with(dir.path(), options(100, tree_routing(4)), Arc::new(RealIo)).unwrap();
    assert_eq!(
        clean.stats().tree_rebuilds,
        0,
        "rebuilt TREE was re-persisted"
    );
}

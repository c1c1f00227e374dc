//! Sorted string tables (SST files) of the LSM substrate.
//!
//! Each SST holds a sorted run of `(u64 key, value)` entries split into fixed
//! size data blocks, a block index (the per-block fence pointers RocksDB keeps
//! in the index block), and one *full filter block* built by a configurable
//! [`FilterKind`] — exactly how the paper integrates bloomRF into RocksDB
//! ("placing it as regular full filter block in each compaction-disabled SST
//! file of a block-based table format"). Blocks live in memory; reads charge
//! the simulated I/O model.
//!
//! Entries are typed [`Value`]s: a block record is `key (u64) | meta (u32) |
//! payload`, where bit 31 of `meta` marks a tombstone (no payload follows)
//! and the low 31 bits are the payload length. Tombstone keys are inserted
//! into the filter block like any other key, so a lookup for a deleted key
//! routes to the table holding the tombstone instead of falling through to an
//! older version.

use bloomrf::traits::PointRangeFilter;
use bloomrf_filters::FilterKind;
use bytes::{BufMut, Bytes, BytesMut};
use std::time::Instant;

use crate::persist::{self, Corruption, TOMBSTONE_FLAG};
use crate::stats::{IoModel, ReadStats};
use crate::value::Value;

/// Reusable probe buffers for the batched SST point lookup
/// ([`SsTable::get_many_with`]).
///
/// A batched lookup fans one key batch across its candidate SSTs; holding
/// one scratch per worker keeps that inner loop free of per-table
/// allocations. All buffers are cleared on entry.
#[derive(Default)]
pub struct SstProbeScratch {
    /// Indices of the batch elements that survive the fence check.
    selected: Vec<usize>,
    /// Keys handed to the filter.
    probe_keys: Vec<u64>,
    /// Filter verdicts for the selected elements.
    verdicts: Vec<bool>,
}

/// One immutable sorted run with a filter block.
pub struct SsTable {
    /// Serialized data blocks.
    blocks: Vec<Bytes>,
    /// `(first_key, last_key, entry_count)` per block.
    index: Vec<(u64, u64, u32)>,
    /// The filter covering every key of the table (tombstones included).
    filter: Box<dyn PointRangeFilter>,
    /// Smallest and largest key of the table.
    key_range: (u64, u64),
    num_entries: usize,
    /// How many of the entries are tombstones.
    num_tombstones: usize,
    /// Filter family the table was built with (persisted so recovery can
    /// rebuild the filter block from data blocks if its bytes rot).
    filter_kind: FilterKind,
    /// Filter space budget the table was built with.
    bits_per_key: f64,
    /// Time spent building + serializing the filter (Fig. 12.C).
    filter_build_time: std::time::Duration,
}

impl SsTable {
    /// Build an SST from sorted, deduplicated entries (tombstones included).
    ///
    /// `entries_per_block` mimics RocksDB's block size knob (a 4-KiB block with
    /// 512-byte values holds ~8 entries).
    pub fn build(
        entries: &[(u64, Value)],
        entries_per_block: usize,
        filter_kind: FilterKind,
        bits_per_key: f64,
    ) -> Self {
        assert!(
            !entries.is_empty(),
            "an SST must contain at least one entry"
        );
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "entries must be sorted"
        );
        let epb = entries_per_block.max(1);

        let mut blocks = Vec::new();
        let mut index = Vec::new();
        let mut num_tombstones = 0usize;
        for chunk in entries.chunks(epb) {
            let mut block = BytesMut::new();
            block.put_u32_le(chunk.len() as u32);
            for (key, value) in chunk {
                block.put_u64_le(*key);
                match value {
                    Value::Put(bytes) => {
                        assert!(
                            (bytes.len() as u64) < TOMBSTONE_FLAG as u64,
                            "value too large for the 31-bit length field"
                        );
                        block.put_u32_le(bytes.len() as u32);
                        block.put_slice(bytes);
                    }
                    Value::Tombstone => {
                        num_tombstones += 1;
                        block.put_u32_le(TOMBSTONE_FLAG);
                    }
                }
            }
            index.push((chunk[0].0, chunk[chunk.len() - 1].0, chunk.len() as u32));
            blocks.push(block.freeze());
        }

        let keys: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
        let start = Instant::now();
        let filter = filter_kind.build(&keys, bits_per_key);
        let filter_build_time = start.elapsed();

        Self {
            blocks,
            index,
            filter,
            key_range: (keys[0], *keys.last().unwrap()),
            num_entries: entries.len(),
            num_tombstones,
            filter_kind,
            bits_per_key,
            filter_build_time,
        }
    }

    /// Serialize the table into the durable `BSST` v2 file format (see
    /// [`crate::persist`]): data blocks, fence-pointer index and — for filter
    /// families with a wire format — the filter block itself, each section
    /// protected by a CRC-32 checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let filter_bytes = self.filter.serialize();
        persist::encode_sst(
            &self.blocks,
            &self.index,
            self.num_entries,
            self.key_range,
            self.filter_kind,
            self.bits_per_key,
            filter_bytes.as_deref(),
        )
    }

    /// Decode and fully verify a persisted table (recovery path).
    ///
    /// Every section is checksum- and structure-verified before the table is
    /// accepted. The filter block degrades gracefully: if its persisted bytes
    /// fail to decode it is *quarantined* and a replacement is rebuilt from
    /// the already-verified data blocks (recorded in `stats` as
    /// `filters_quarantined` / `filters_rebuilt`); families that never
    /// persist their filter are always rebuilt. Corruption anywhere else is a
    /// hard error — the caller decides whether the file is a skippable tail.
    pub fn from_bytes(bytes: &[u8], stats: &ReadStats) -> Result<Self, Corruption> {
        let decoded = persist::decode_sst(bytes)?;
        let start = Instant::now();
        let rebuild = |quarantined: bool| -> Box<dyn PointRangeFilter> {
            if quarantined {
                stats.record_filter_quarantined();
            }
            stats.record_filter_rebuilt();
            decoded
                .filter_kind
                .build(&decoded.keys, decoded.bits_per_key)
        };
        let filter: Box<dyn PointRangeFilter> = if decoded.filter_damaged {
            rebuild(true)
        } else {
            match &decoded.filter_bytes {
                Some(fb) => match bloomrf::BloomRf::from_bytes(fb) {
                    Ok(f) => Box::new(f),
                    Err(_) => rebuild(true),
                },
                None => rebuild(false),
            }
        };
        Ok(Self {
            blocks: decoded.blocks,
            index: decoded.index,
            filter,
            key_range: decoded.key_range,
            num_entries: decoded.num_entries,
            num_tombstones: decoded.num_tombstones,
            filter_kind: decoded.filter_kind,
            bits_per_key: decoded.bits_per_key,
            filter_build_time: start.elapsed(),
        })
    }

    /// Number of entries (tombstones included).
    pub fn num_entries(&self) -> usize {
        self.num_entries
    }

    /// Number of tombstone entries.
    pub fn num_tombstones(&self) -> usize {
        self.num_tombstones
    }

    /// Number of data blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Smallest and largest key.
    pub fn key_range(&self) -> (u64, u64) {
        self.key_range
    }

    /// Size of the filter block in bits.
    pub fn filter_bits(&self) -> usize {
        self.filter.memory_bits()
    }

    /// Wall-clock time spent constructing the filter block.
    pub fn filter_build_time(&self) -> std::time::Duration {
        self.filter_build_time
    }

    /// The filter itself (for experiments probing filters directly).
    pub fn filter(&self) -> &dyn PointRangeFilter {
        self.filter.as_ref()
    }

    /// Every key in the table, ascending (tombstones included). Walks the
    /// in-memory block bytes without materializing values; the filter tree
    /// uses this to (re)build its per-SST leaf and ancestor filters from the
    /// authoritative key set.
    pub(crate) fn keys(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.num_entries);
        for data in &self.blocks {
            let count = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
            let mut cursor = 4usize;
            for _ in 0..count {
                out.push(u64::from_le_bytes(
                    data[cursor..cursor + 8].try_into().unwrap(),
                ));
                cursor += 8;
                let meta = u32::from_le_bytes(data[cursor..cursor + 4].try_into().unwrap());
                cursor += 4 + (meta & !TOMBSTONE_FLAG) as usize;
            }
        }
        out
    }

    /// Every entry of the table in key order (tombstones included) — the
    /// compaction merge input.
    pub(crate) fn entries(&self) -> Vec<(u64, Value)> {
        let mut out = Vec::with_capacity(self.num_entries);
        for block_idx in 0..self.blocks.len() {
            out.extend(self.decode_block(block_idx));
        }
        out
    }

    /// Decode a block into its entries (counts as residual CPU, not I/O).
    fn decode_block(&self, block_idx: usize) -> Vec<(u64, Value)> {
        let data = &self.blocks[block_idx];
        let mut out = Vec::new();
        let mut cursor = 0usize;
        let count = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
        cursor += 4;
        for _ in 0..count {
            let key = u64::from_le_bytes(data[cursor..cursor + 8].try_into().unwrap());
            cursor += 8;
            let meta = u32::from_le_bytes(data[cursor..cursor + 4].try_into().unwrap());
            cursor += 4;
            if meta & TOMBSTONE_FLAG != 0 {
                out.push((key, Value::Tombstone));
            } else {
                let len = meta as usize;
                out.push((key, Value::Put(data[cursor..cursor + len].to_vec())));
                cursor += len;
            }
        }
        out
    }

    /// Point lookup through the filter, index and data blocks. A hit on a
    /// tombstone returns `Some(Value::Tombstone)` — the caller must treat the
    /// key as deleted rather than consult older tables.
    pub fn get(&self, key: u64, io: &IoModel, stats: &ReadStats) -> Option<Value> {
        if key < self.key_range.0 || key > self.key_range.1 {
            return None;
        }
        let start = Instant::now();
        let positive = self.filter.may_contain(key);
        stats.record_filter_probe(positive, start.elapsed().as_nanos() as u64);
        if !positive {
            return None;
        }
        self.lookup_after_filter(key, io, stats)
    }

    /// Index walk + block read for a key the filter answered positively.
    fn lookup_after_filter(&self, key: u64, io: &IoModel, stats: &ReadStats) -> Option<Value> {
        // Locate the candidate block via the index (fence pointers).
        let block_idx = self.index.partition_point(|&(_, last, _)| last < key);
        if block_idx >= self.index.len() || self.index[block_idx].0 > key {
            stats.record_false_positive();
            return None;
        }
        stats.record_block_reads(1, io);
        let cpu_start = Instant::now();
        let entries = self.decode_block(block_idx);
        let result = entries
            .binary_search_by_key(&key, |(k, _)| *k)
            .ok()
            .map(|i| entries[i].1.clone());
        stats.record_cpu(cpu_start.elapsed().as_nanos() as u64);
        if result.is_none() {
            // A found tombstone is a *true* positive — the key is present,
            // its version just happens to be a delete marker.
            stats.record_false_positive();
        }
        result
    }

    /// Batched point lookup with caller-owned probe buffers: probes the
    /// filter once for the whole batch via
    /// [`PointRangeFilter::may_contain_batch_into`] (bloomRF's engine groups
    /// the probes per dyadic level), then reads blocks only for the
    /// positives. Element `i` equals `self.get(keys[i], ..)`. A lookup wave
    /// that fans one batch across many SSTs reuses one `scratch` instead of
    /// paying three allocations per table.
    pub fn get_many_with(
        &self,
        keys: &[u64],
        io: &IoModel,
        stats: &ReadStats,
        scratch: &mut SstProbeScratch,
    ) -> Vec<Option<Value>> {
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        scratch.selected.clear();
        scratch.selected.extend(
            (0..keys.len()).filter(|&i| keys[i] >= self.key_range.0 && keys[i] <= self.key_range.1),
        );
        if scratch.selected.is_empty() {
            return out;
        }
        scratch.probe_keys.clear();
        scratch
            .probe_keys
            .extend(scratch.selected.iter().map(|&i| keys[i]));
        let start = Instant::now();
        self.filter
            .may_contain_batch_into(&scratch.probe_keys, &mut scratch.verdicts);
        // Charge the batch probe time evenly across its probes so the
        // per-probe statistics stay comparable with the sequential path.
        let per_probe_ns =
            (start.elapsed().as_nanos() as u64) / scratch.probe_keys.len().max(1) as u64;
        for (&i, &positive) in scratch.selected.iter().zip(scratch.verdicts.iter()) {
            stats.record_filter_probe(positive, per_probe_ns);
            if positive {
                out[i] = self.lookup_after_filter(keys[i], io, stats);
            }
        }
        out
    }

    /// Range scan: return up to `limit` entries with keys in `[lo, hi]`,
    /// consulting the filter first (the RocksDB `SeekForPrev`/`Seek` path with
    /// range-filter support). Tombstones are returned like any entry — the
    /// store-level merge needs them to shadow older tables.
    pub fn scan(
        &self,
        lo: u64,
        hi: u64,
        limit: usize,
        io: &IoModel,
        stats: &ReadStats,
    ) -> Vec<(u64, Value)> {
        if hi < self.key_range.0 || lo > self.key_range.1 || lo > hi {
            return Vec::new();
        }
        let start = Instant::now();
        let positive = self.filter.may_contain_range(lo, hi);
        stats.record_filter_probe(positive, start.elapsed().as_nanos() as u64);
        if !positive {
            return Vec::new();
        }
        let mut out = Vec::new();
        let first_block = self.index.partition_point(|&(_, last, _)| last < lo);
        let cpu_start = Instant::now();
        let mut blocks_read = 0u64;
        for block_idx in first_block..self.index.len() {
            if self.index[block_idx].0 > hi || out.len() >= limit {
                break;
            }
            blocks_read += 1;
            for (key, value) in self.decode_block(block_idx) {
                if key >= lo && key <= hi {
                    out.push((key, value));
                    if out.len() >= limit {
                        break;
                    }
                }
            }
        }
        stats.record_block_reads(blocks_read, io);
        stats.record_cpu(cpu_start.elapsed().as_nanos() as u64);
        if out.is_empty() {
            stats.record_false_positive();
        }
        out
    }

    /// Total serialized size of the data blocks in bytes.
    pub fn data_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_entries(entries: &[(u64, Vec<u8>)]) -> Vec<(u64, Value)> {
        entries
            .iter()
            .map(|(k, v)| (*k, Value::Put(v.clone())))
            .collect()
    }

    fn entries(n: u64, value_size: usize) -> Vec<(u64, Value)> {
        (0..n)
            .map(|i| (i * 10, Value::Put(vec![(i % 251) as u8; value_size])))
            .collect()
    }

    fn build(n: u64) -> SsTable {
        SsTable::build(
            &entries(n, 32),
            8,
            FilterKind::BloomRf { max_range: 1e6 },
            16.0,
        )
    }

    #[test]
    fn point_lookups_find_existing_keys() {
        let sst = build(1000);
        let io = IoModel::default();
        let stats = ReadStats::new();
        assert_eq!(sst.num_entries(), 1000);
        assert_eq!(sst.num_blocks(), 125);
        for i in (0..1000u64).step_by(17) {
            let v = sst.get(i * 10, &io, &stats);
            assert_eq!(
                v,
                Some(Value::Put(vec![(i % 251) as u8; 32])),
                "key {}",
                i * 10
            );
        }
        // Keys between stored keys are absent.
        assert_eq!(sst.get(5, &io, &stats), None);
        assert_eq!(sst.get(99_999, &io, &stats), None);
        let snap = stats.snapshot();
        assert!(snap.filter_probes > 0);
        assert!(snap.blocks_read > 0);
    }

    #[test]
    fn tombstones_roundtrip_through_build_and_bytes() {
        let entries = vec![
            (10u64, Value::Put(b"alive".to_vec())),
            (20, Value::Tombstone),
            (30, Value::Put(b"also alive".to_vec())),
            (40, Value::Tombstone),
        ];
        let sst = SsTable::build(&entries, 2, FilterKind::BloomRf { max_range: 1e6 }, 16.0);
        assert_eq!(sst.num_entries(), 4);
        assert_eq!(sst.num_tombstones(), 2);
        assert_eq!(sst.keys(), vec![10, 20, 30, 40]);
        assert_eq!(sst.entries(), entries);
        let io = IoModel::default();
        let stats = ReadStats::new();
        // A tombstone is found (filter + block), not treated as absent...
        assert_eq!(sst.get(20, &io, &stats), Some(Value::Tombstone));
        // ...and is not a false positive.
        assert_eq!(stats.snapshot().false_positives, 0);
        // Tombstones keep ranges "possibly non-empty" (no false negatives).
        assert_eq!(
            sst.scan(19, 21, 1, &io, &stats),
            vec![(20, Value::Tombstone)]
        );
        // Serialization roundtrips tombstones bit-exactly.
        let restored = SsTable::from_bytes(&sst.to_bytes(), &stats).unwrap();
        assert_eq!(restored.num_tombstones(), 2);
        assert_eq!(restored.entries(), entries);
        assert_eq!(restored.get(40, &io, &stats), Some(Value::Tombstone));
    }

    #[test]
    fn scans_return_expected_entries() {
        let sst = build(1000);
        let io = IoModel::default();
        let stats = ReadStats::new();
        let result = sst.scan(100, 149, 100, &io, &stats);
        assert_eq!(
            result.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![100, 110, 120, 130, 140]
        );
        let limited = sst.scan(0, 10_000, 3, &io, &stats);
        assert_eq!(limited.len(), 3);
        assert!(sst.scan(10_001, 10_100, 10, &io, &stats).is_empty());
        assert!(
            sst.scan(5, 9, 10, &io, &stats).is_empty(),
            "gap between keys"
        );
        assert!(
            sst.scan(100, 50, 10, &io, &stats).is_empty(),
            "reversed bounds"
        );
    }

    #[test]
    fn filter_prunes_out_of_range_lookups_without_io() {
        let sst = build(100);
        let io = IoModel::default();
        let stats = ReadStats::new();
        // Key range is [0, 990]; a far away key is pruned by the range check
        // before the filter, a nearby missing key by the filter.
        assert_eq!(sst.get(10_000, &io, &stats), None);
        assert_eq!(stats.snapshot().filter_probes, 0);
        let _ = sst.get(985, &io, &stats);
        assert!(stats.snapshot().filter_probes >= 1);
    }

    #[test]
    fn stats_track_false_positives_on_empty_scans() {
        let sst = build(1000);
        let io = IoModel::default();
        let stats = ReadStats::new();
        let mut positives = 0;
        for i in 0..500u64 {
            // All these ranges are empty (between the 10-spaced keys).
            let lo = i * 10 + 1;
            let result = sst.scan(lo, lo + 5, 10, &io, &stats);
            assert!(result.is_empty());
            if stats.snapshot().false_positives > positives {
                positives = stats.snapshot().false_positives;
            }
        }
        let snap = stats.snapshot();
        assert_eq!(snap.filter_probes, 500);
        assert_eq!(snap.filter_positives, snap.false_positives);
        assert!(snap.io_wait_ns >= snap.blocks_read * 90_000);
    }

    #[test]
    fn different_filter_kinds_build_ssts() {
        for kind in [
            FilterKind::Bloom,
            FilterKind::Rosetta { max_range: 1 << 12 },
            FilterKind::Surf,
            FilterKind::FencePointers,
        ] {
            let sst = SsTable::build(&entries(200, 8), 16, kind, 14.0);
            let io = IoModel::default();
            let stats = ReadStats::new();
            assert_eq!(
                sst.get(500, &io, &stats),
                Some(Value::Put(vec![50_u8; 8])),
                "{}",
                kind.label()
            );
            assert!(sst.filter_bits() > 0);
            assert!(sst.filter_build_time() >= std::time::Duration::ZERO);
        }
    }

    #[test]
    #[should_panic]
    fn empty_sst_is_rejected() {
        let _ = SsTable::build(&[], 8, FilterKind::Bloom, 10.0);
    }

    #[test]
    fn get_many_matches_sequential_gets() {
        let sst = build(1000);
        let io = IoModel::default();
        let stats = ReadStats::new();
        // Mix present keys, gaps between keys, and out-of-range keys.
        let probes: Vec<u64> = (0..600u64)
            .map(|i| match i % 3 {
                0 => (i / 3) * 30, // stored (multiples of 10)
                1 => i * 7 + 3,    // mostly absent
                _ => 20_000 + i,   // beyond the key range
            })
            .collect();
        let mut scratch = SstProbeScratch::default();
        let batched = sst.get_many_with(&probes, &io, &stats, &mut scratch);
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(batched[i], sst.get(p, &io, &stats), "key {p}");
        }
        assert!(sst.get_many_with(&[], &io, &stats, &mut scratch).is_empty());
    }

    #[test]
    fn put_entries_helper_preserves_layout() {
        // Guard the helper other test files mirror: plain puts must produce
        // the same table as the pre-tombstone encoding did.
        let raw: Vec<(u64, Vec<u8>)> = (0..50u64).map(|i| (i * 3, vec![i as u8; 4])).collect();
        let sst = SsTable::build(&put_entries(&raw), 8, FilterKind::Bloom, 12.0);
        assert_eq!(sst.num_tombstones(), 0);
        assert_eq!(sst.num_entries(), 50);
    }
}

//! Bloofi-style filter tree over the live SST set.
//!
//! With compaction disabled (the paper's RocksDB setup), every point or
//! range read must consult *every* level-0 SST's filter block: lookup cost
//! grows linearly with the number of tables even when almost all of them are
//! irrelevant. Bloofi (Crainiceanu & Lemire, *Bloofi: Multidimensional Bloom
//! filters*, Inf. Syst. 2015) fixes the analogous problem for distributed
//! Bloom filters by arranging them as a fan-out-`F` tree whose inner nodes
//! are the *union* of their children — one negative probe prunes an entire
//! subtree.
//!
//! [`FilterTree`] is that structure over bloomRF filters, so pruning works
//! for **range predicates too**: descent probes each node with
//! [`BloomRf::contains_range`], which reuses the paper's two-path dyadic
//! decomposition, and the batch entry points route whole query batches
//! through the level-grouped probe engine ([`BloomRf::contains_point_batch`]
//! / [`BloomRf::contains_range_batch`]).
//!
//! Two deliberate deviations from textbook Bloofi, both documented in
//! `docs/filter-tree.md`:
//!
//! * **Level-scaled capacity.** A node at height `h` covers up to `F^h`
//!   SSTs, so its filter is provisioned for `leaf_keys · F^h` keys (uniform
//!   per-level *memory*, bounded per-level FPR). Same-size nodes — Bloofi's
//!   choice — saturate a few levels up and stop pruning. The price is that
//!   parent and child configurations differ, so ancestors absorb the *keys*
//!   of a new leaf rather than bit-unioning its filter.
//! * **Leaf adoption.** Leaves share one configuration, so when an SST's own
//!   filter block is a bloomRF with exactly that configuration the leaf is
//!   built by [`BloomRf::merge_from`] — Bloofi's aggregation primitive — as
//!   a bit-for-bit union instead of re-hashing every key.
//!
//! Each node also keeps its subtree's min/max key as a fence, pruning
//! out-of-range queries before any hash is computed (free ZoneMap-style
//! rejection).
//!
//! Maintenance mirrors Bloofi: a flush appends a leaf and folds its keys
//! into the ancestors on the root path ([`FilterTree::push_leaf`]); because
//! Bloom bits cannot be deleted, retiring or quarantining an SST rebuilds
//! the ancestor path from the surviving leaves' keys
//! ([`FilterTree::retire_leaf`]), and compaction — which replaces a
//! contiguous window of tables with one merged table, shifting every later
//! slot — rebuilds the inner levels around the spliced leaf row
//! ([`FilterTree::retire_and_splice`]). The tree persists as the checksummed
//! `TREE` file next to the MANIFEST ([`FilterTree::to_bytes`]) and recovery
//! falls back to [`FilterTree::build_from_ssts`] when that file is missing,
//! corrupt or stale.

use bloomrf::{BloomRf, BloomRfConfig};

use crate::persist::{self, Corruption};
use crate::sst::SsTable;
use crate::stats::ReadStats;

/// Batch filter probe used by the shared descent: given a node's filter and
/// the surviving query slots, write one verdict per slot into the reused
/// output buffer.
type FilterPass<'a> = dyn FnMut(&BloomRf, &[usize], &mut Vec<bool>) + 'a;

/// Magic number of the persisted tree file (`TREE`).
pub const TREE_MAGIC: &[u8; 4] = b"BTRE";
/// Version of the persisted tree format.
pub const TREE_FORMAT_VERSION: u32 = 1;
/// Section tag: tree geometry and options.
const SECTION_META: u32 = 1;
/// Section tag: serialized node payloads, leaves first.
const SECTION_NODES: u32 = 2;

/// Tuning knobs for the [`FilterTree`], carried by
/// [`crate::db::ReadRouting::FilterTree`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeOptions {
    /// Fan-out `F`: children per inner node (min 2).
    pub fanout: usize,
    /// Key capacity a leaf filter is provisioned for; `None` derives it from
    /// [`crate::db::DbOptions::memtable_flush_entries`].
    pub leaf_keys: Option<usize>,
    /// Space budget per key for every tree node; `None` derives it from
    /// [`crate::db::DbOptions::bits_per_key`].
    pub bits_per_key: Option<f64>,
}

impl Default for TreeOptions {
    fn default() -> Self {
        Self {
            fanout: 16,
            leaf_keys: None,
            bits_per_key: None,
        }
    }
}

/// One tree node: a bloomRF filter over every key in the node's leaf span,
/// plus the span's min/max key fence.
struct TreeNode {
    filter: BloomRf,
    /// Smallest key in the span (`u64::MAX` while empty, so fences fail).
    lo: u64,
    /// Largest key in the span (`0` while empty).
    hi: u64,
    /// Leaves only: `false` once the SST has been retired/quarantined.
    live: bool,
}

impl TreeNode {
    fn empty(config: BloomRfConfig) -> Self {
        Self {
            filter: BloomRf::new(config).expect("tree level configs are always valid"),
            lo: u64::MAX,
            hi: 0,
            live: true,
        }
    }

    /// Fold a sorted key run into the node (filter bits + fences).
    fn absorb(&mut self, sorted_keys: &[u64]) {
        if sorted_keys.is_empty() {
            return;
        }
        self.filter.insert_batch(sorted_keys);
        self.lo = self.lo.min(sorted_keys[0]);
        self.hi = self.hi.max(*sorted_keys.last().unwrap());
    }
}

/// Number of levels (leaves included) a tree over `n` leaves needs so that
/// the top level is a single root: smallest `H` with `F^(H-1) >= n`.
fn required_levels(n: usize, fanout: usize) -> usize {
    let mut levels = 1;
    let mut span = 1usize;
    while span < n {
        span = span.saturating_mul(fanout);
        levels += 1;
    }
    levels
}

/// The runs of a `(node, query)` slice sorted by node: one sub-slice per
/// node, in ascending node order (`.rev()` descends, which over leaves
/// means newest SST first). `slice::chunk_by` does this, but is newer than
/// the crate's MSRV.
pub(crate) struct NodeRuns<'a>(pub(crate) &'a [(usize, usize)]);

impl<'a> Iterator for NodeRuns<'a> {
    type Item = &'a [(usize, usize)];

    fn next(&mut self) -> Option<Self::Item> {
        let node = self.0.first()?.0;
        let (run, rest) = self.0.split_at(self.0.partition_point(|p| p.0 == node));
        self.0 = rest;
        Some(run)
    }
}

impl DoubleEndedIterator for NodeRuns<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let node = self.0.last()?.0;
        let (rest, run) = self.0.split_at(self.0.partition_point(|p| p.0 < node));
        self.0 = rest;
        Some(run)
    }
}

/// Regroup `(leaf, query)` routes into one ascending candidate list per
/// query.
fn per_query(n_queries: usize, routes: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); n_queries];
    for &(leaf, q) in routes {
        out[q].push(leaf);
    }
    out
}

/// A fan-out-`F` tree of bloomRF filters over the live SST set; leaf `i`
/// covers SST `i` in age order. See the module docs for the design.
pub struct FilterTree {
    fanout: usize,
    leaf_keys: usize,
    bits_per_key: f64,
    /// `levels[0]` are the leaves; `levels[h][i]` covers leaves
    /// `[i·F^h, (i+1)·F^h)`. The top level is always a single root.
    levels: Vec<Vec<TreeNode>>,
    live_leaves: usize,
}

impl FilterTree {
    /// Create an empty tree. `fanout` is clamped to at least 2, `leaf_keys`
    /// to at least 1 and `bits_per_key` to at least 1.0.
    pub fn new(fanout: usize, leaf_keys: usize, bits_per_key: f64) -> Self {
        Self {
            fanout: fanout.max(2),
            leaf_keys: leaf_keys.max(1),
            bits_per_key: bits_per_key.max(1.0),
            levels: Vec::new(),
            live_leaves: 0,
        }
    }

    /// The filter configuration shared by every node at height `h`:
    /// basic bloomRF provisioned for `leaf_keys · F^h` keys.
    fn level_config(&self, height: usize) -> BloomRfConfig {
        let capacity = self
            .leaf_keys
            .saturating_mul(self.fanout.saturating_pow(height as u32));
        BloomRfConfig::basic(64, capacity, self.bits_per_key, 7)
            .expect("basic configs for positive capacities are always valid")
    }

    fn empty_node(&self, height: usize) -> TreeNode {
        TreeNode::empty(self.level_config(height))
    }

    /// Number of leaves (live + retired slots).
    pub fn num_leaves(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// Number of leaves still routed to.
    pub fn live_leaves(&self) -> usize {
        self.live_leaves
    }

    /// Number of levels, leaves included (0 while empty).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total node count across all levels.
    pub fn num_nodes(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Total filter payload across all nodes, in bits.
    pub fn memory_bits(&self) -> usize {
        self.levels
            .iter()
            .flatten()
            .map(|n| n.filter.memory_bits())
            .sum()
    }

    /// The configured fan-out.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Append the leaf for the newest SST (`ssts.last()`) and fold its keys
    /// into every ancestor on the root path (Bloofi's insert). `ssts` must
    /// be the full live table set in age order — the earlier tables are only
    /// consulted when the tree grows a new root level, whose node spans
    /// leaves that predate it.
    pub fn push_leaf(&mut self, ssts: &[SsTable]) {
        let sst = ssts
            .last()
            .expect("push_leaf needs the freshly flushed SST");
        let prior = ssts.len() - 1;
        assert_eq!(
            self.num_leaves(),
            prior,
            "filter tree out of sync with the SST set"
        );
        let keys = sst.keys();
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        let leaf = self.make_leaf(sst, &keys);
        self.levels[0].push(leaf);
        self.live_leaves += 1;
        // Grow a new root when the leaf count exceeds the current top's
        // span. The fresh level is seeded from every live leaf already
        // present; the new leaf itself is folded in by the ancestor pass.
        while self.levels.len() < required_levels(prior + 1, self.fanout) {
            let height = self.levels.len();
            let mut node = self.empty_node(height);
            for (i, older) in ssts.iter().take(prior).enumerate() {
                if self.levels[0][i].live {
                    node.absorb(&older.keys());
                }
            }
            self.levels.push(vec![node]);
        }
        for height in 1..self.levels.len() {
            let idx = prior / self.fanout.saturating_pow(height as u32);
            if idx == self.levels[height].len() {
                let node = self.empty_node(height);
                self.levels[height].push(node);
            }
            self.levels[height][idx].absorb(&keys);
        }
        debug_assert_eq!(
            self.num_leaves(),
            ssts.len(),
            "push_leaf must leave exactly one leaf per SST"
        );
        self.debug_check_shape();
    }

    /// Structural invariants every tree mutation must restore: the level
    /// count matches the leaf count, and inner level `h` holds exactly
    /// `ceil(leaves / fanout^h)` nodes — one per (possibly partial) span.
    /// Debug builds only; a violation here means routing would descend into
    /// nodes that do not aggregate their children.
    fn debug_check_shape(&self) {
        debug_assert_eq!(
            self.levels.len(),
            if self.num_leaves() == 0 {
                self.levels.len().min(1)
            } else {
                required_levels(self.num_leaves(), self.fanout)
            },
            "level count out of step with the leaf count"
        );
        debug_assert!(
            (1..self.levels.len()).all(|h| {
                self.levels[h].len()
                    == self
                        .num_leaves()
                        .div_ceil(self.fanout.saturating_pow(h as u32))
            }),
            "inner level width must be ceil(leaves / fanout^height)"
        );
        debug_assert_eq!(
            self.live_leaves,
            self.levels
                .first()
                .map_or(0, |l| l.iter().filter(|n| n.live).count()),
            "live-leaf count out of step with the leaf level"
        );
    }

    /// Build the leaf node for one SST. When the SST's own filter block is a
    /// bloomRF with exactly the leaf configuration, the leaf is its
    /// bit-for-bit union via [`BloomRf::merge_from`]; otherwise the keys are
    /// re-hashed into a fresh filter.
    fn make_leaf(&self, sst: &SsTable, keys: &[u64]) -> TreeNode {
        let config = self.level_config(0);
        if let Some(bytes) = sst.filter().serialize() {
            if let Ok(persisted) = BloomRf::from_bytes(&bytes) {
                if *persisted.config() == config {
                    let mut node = TreeNode::empty(config);
                    if node.filter.merge_from(&persisted).is_ok() {
                        node.lo = keys.first().copied().unwrap_or(u64::MAX);
                        node.hi = keys.last().copied().unwrap_or(0);
                        return node;
                    }
                }
            }
        }
        let mut node = self.empty_node(0);
        node.absorb(keys);
        node
    }

    /// Retire leaf `leaf` (SST retired or quarantined at runtime): the leaf
    /// stops being routed to and — because Bloom bits cannot be deleted —
    /// every ancestor on its root path is rebuilt from the surviving leaves'
    /// keys. `ssts` must be the same age-ordered table set the tree was
    /// built over (slot positions are stable; the retired slot itself is no
    /// longer read). Counted as one rebuild event in `tree_rebuilds`.
    pub fn retire_leaf(&mut self, leaf: usize, ssts: &[SsTable], stats: &ReadStats) {
        assert!(leaf < self.num_leaves(), "retire_leaf out of bounds");
        if !self.levels[0][leaf].live {
            return;
        }
        let mut dead = self.empty_node(0);
        dead.live = false;
        self.levels[0][leaf] = dead;
        self.live_leaves -= 1;
        for height in 1..self.levels.len() {
            let span = self.fanout.saturating_pow(height as u32);
            let idx = leaf / span;
            let mut node = self.empty_node(height);
            let first = idx * span;
            let last = ((idx + 1) * span).min(self.num_leaves());
            for (leaf_node, sst) in self.levels[0][first..last].iter().zip(&ssts[first..last]) {
                if leaf_node.live {
                    node.absorb(&sst.keys());
                }
            }
            self.levels[height][idx] = node;
        }
        stats.record_tree_rebuild();
    }

    /// Compaction maintenance: replace the contiguous leaf window `window`
    /// with the single leaf for `replacement` (or nothing, when the merge
    /// produced an empty table), keeping the tree aligned with an SST set
    /// that was spliced the same way. `ssts` is the **post-splice** table set
    /// in age order. Because Bloom bits cannot be deleted, every inner level
    /// is rebuilt from the surviving leaves' keys — positions shift across a
    /// splice, so ancestor spans change wholesale and the per-path rebuild of
    /// [`FilterTree::retire_leaf`] does not apply. Surviving leaf nodes are
    /// reused bit-for-bit (no re-hash); counted as one rebuild event in
    /// `tree_rebuilds`.
    pub fn retire_and_splice(
        &mut self,
        window: std::ops::Range<usize>,
        replacement: Option<&SsTable>,
        ssts: &[SsTable],
        stats: &ReadStats,
    ) {
        assert!(
            window.start <= window.end && window.end <= self.num_leaves(),
            "retire_and_splice window out of bounds"
        );
        let mut leaves = if self.levels.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut self.levels[0])
        };
        let tail = leaves.split_off(window.end);
        leaves.truncate(window.start);
        if let Some(sst) = replacement {
            leaves.push(self.make_leaf(sst, &sst.keys()));
        }
        leaves.extend(tail);
        assert_eq!(
            leaves.len(),
            ssts.len(),
            "filter tree out of sync with the spliced SST set"
        );
        let n = leaves.len();
        self.live_leaves = leaves.iter().filter(|l| l.live).count();
        if n == 0 {
            self.levels = Vec::new();
        } else {
            let mut levels = vec![leaves];
            for height in 1..required_levels(n, self.fanout) {
                let span = self.fanout.saturating_pow(height as u32);
                let mut level = Vec::with_capacity(n.div_ceil(span));
                for idx in 0..n.div_ceil(span) {
                    let mut node = self.empty_node(height);
                    let first = idx * span;
                    let last = ((idx + 1) * span).min(n);
                    for (leaf, sst) in levels[0][first..last].iter().zip(&ssts[first..last]) {
                        if leaf.live {
                            node.absorb(&sst.keys());
                        }
                    }
                    level.push(node);
                }
                levels.push(level);
            }
            self.levels = levels;
        }
        debug_assert_eq!(
            self.num_leaves(),
            ssts.len(),
            "retire_and_splice must leave one leaf per post-splice SST"
        );
        self.debug_check_shape();
        stats.record_tree_rebuild();
    }

    /// Full rebuild from the live SST set — the recovery fallback when the
    /// persisted `TREE` file is missing, corrupt or stale.
    pub fn build_from_ssts(
        fanout: usize,
        leaf_keys: usize,
        bits_per_key: f64,
        ssts: &[SsTable],
    ) -> Self {
        let mut tree = Self::new(fanout, leaf_keys, bits_per_key);
        for i in 0..ssts.len() {
            tree.push_leaf(&ssts[..=i]);
        }
        tree
    }

    /// Candidate SSTs per point lookup: element `i` lists, ascending by
    /// age, the SSTs `keys[i]` may live in. Each list is a superset of the
    /// SSTs containing the key (filters and fences never produce false
    /// negatives), so probing only the candidates is answer-preserving.
    /// Each node probes its surviving queries in one call to the
    /// level-grouped batch engine.
    pub fn candidates_points(&self, keys: &[u64], stats: &ReadStats) -> Vec<Vec<usize>> {
        per_query(keys.len(), &self.route_points(keys, stats))
    }

    /// The descent behind [`FilterTree::candidates_points`], as every
    /// `(leaf, query)` pair it reaches, sorted by leaf, then query: the
    /// order in which a batched read visits the SSTs.
    pub(crate) fn route_points(&self, keys: &[u64], stats: &ReadStats) -> Vec<(usize, usize)> {
        // One probe buffer and one kernel scratch for the whole descent: the
        // tree probes thousands of per-node batches per lookup wave, so the
        // steady state must not allocate.
        let mut probe: Vec<u64> = Vec::new();
        let mut scratch = bloomrf::ProbeScratch::new();
        let tier = bloomrf::KernelTier::detect();
        self.descend(
            keys.len(),
            &|node, q| node.lo <= keys[q] && keys[q] <= node.hi,
            &mut |filter, queries, verdicts| {
                probe.clear();
                probe.extend(queries.iter().map(|&q| keys[q]));
                filter.contains_point_batch_with(&probe, verdicts, &mut scratch, tier);
            },
            stats,
        )
    }

    /// Candidate SSTs per range-emptiness check: element `i` lists,
    /// ascending by age, the SSTs that may hold a key in `ranges[i]`.
    /// Reversed bounds (`lo > hi`) are an empty interval and have no
    /// candidates. Node probes reuse the two-path dyadic range lookup via
    /// [`BloomRf::contains_range_batch`].
    pub fn candidates_ranges(&self, ranges: &[(u64, u64)], stats: &ReadStats) -> Vec<Vec<usize>> {
        per_query(ranges.len(), &self.route_ranges(ranges, stats))
    }

    /// [`FilterTree::route_points`] for a range batch. The fence rejects a
    /// reversed range at the root, so the filters only see forward ones.
    pub(crate) fn route_ranges(
        &self,
        ranges: &[(u64, u64)],
        stats: &ReadStats,
    ) -> Vec<(usize, usize)> {
        // Reused across every node the descent visits, like the point path.
        let mut probe: Vec<(u64, u64)> = Vec::new();
        self.descend(
            ranges.len(),
            &|node, q| {
                let (lo, hi) = ranges[q];
                lo <= hi && lo <= node.hi && hi >= node.lo
            },
            &mut |filter, queries, verdicts| {
                probe.clear();
                probe.extend(queries.iter().map(|&q| ranges[q]));
                filter.contains_range_batch_into(&probe, verdicts);
            },
            stats,
        )
    }

    /// Shared level-synchronous descent. `fence_pass` cheaply rejects a
    /// query at a node; `filter_pass` batch-probes the survivors. Returns
    /// the surviving `(leaf, query)` pairs sorted by leaf, then query.
    /// Records `tree_probes` per `(node, query)` pair visited and
    /// `ssts_pruned` per `(query, live leaf)` pair the descent never reached.
    ///
    /// Each level's work is one flat frontier of `(node, query)` pairs
    /// sorted by node. Nodes are visited in ascending order and each emits
    /// its children in ascending order, so the next frontier comes out
    /// sorted without a sort; the two frontier buffers swap per level.
    fn descend(
        &self,
        n_queries: usize,
        fence_pass: &dyn Fn(&TreeNode, usize) -> bool,
        filter_pass: &mut FilterPass<'_>,
        stats: &ReadStats,
    ) -> Vec<(usize, usize)> {
        if self.num_leaves() == 0 || n_queries == 0 {
            return Vec::new();
        }
        // Buffers shared by every node probe in the descent.
        let mut fenced: Vec<usize> = Vec::new();
        let mut verdicts: Vec<bool> = Vec::new();
        // The top level is a single root by construction.
        let mut frontier: Vec<(usize, usize)> = (0..n_queries).map(|q| (0, q)).collect();
        let mut next: Vec<(usize, usize)> = Vec::new();
        for height in (0..self.levels.len()).rev() {
            let level = &self.levels[height];
            stats.record_tree_probes(frontier.len() as u64);
            next.clear();
            for group in NodeRuns(&frontier) {
                let idx = group[0].0;
                let node = &level[idx];
                if height == 0 && !node.live {
                    continue;
                }
                fenced.clear();
                fenced.extend(
                    group
                        .iter()
                        .map(|&(_, q)| q)
                        .filter(|&q| fence_pass(node, q)),
                );
                if fenced.is_empty() {
                    continue;
                }
                filter_pass(&node.filter, &fenced, &mut verdicts);
                let kept = || {
                    fenced
                        .iter()
                        .zip(verdicts.iter())
                        .filter(|&(_, &keep)| keep)
                        .map(|(&q, _)| q)
                };
                // A leaf passes itself on: the last frontier is the result.
                let children = if height == 0 {
                    idx..idx + 1
                } else {
                    let first = idx * self.fanout;
                    first..(first + self.fanout).min(self.levels[height - 1].len())
                };
                for child in children {
                    next.extend(kept().map(|q| (child, q)));
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        stats.record_ssts_pruned((n_queries * self.live_leaves - frontier.len()) as u64);
        frontier
    }

    /// Serialize the tree into the checksummed `TREE` wire format (see
    /// `docs/wire-format.md`): magic + version, then v2-style
    /// `tag | length | body | crc32(body)` sections for the geometry and the
    /// node payloads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut meta = Vec::new();
        meta.extend_from_slice(&(self.fanout as u32).to_le_bytes());
        meta.extend_from_slice(&(self.leaf_keys as u64).to_le_bytes());
        meta.extend_from_slice(&self.bits_per_key.to_bits().to_le_bytes());
        meta.extend_from_slice(&(self.live_leaves as u64).to_le_bytes());
        meta.extend_from_slice(&(self.levels.len() as u32).to_le_bytes());
        for level in &self.levels {
            meta.extend_from_slice(&(level.len() as u64).to_le_bytes());
        }

        let mut nodes = Vec::new();
        for level in &self.levels {
            for node in level {
                nodes.extend_from_slice(&node.lo.to_le_bytes());
                nodes.extend_from_slice(&node.hi.to_le_bytes());
                nodes.push(node.live as u8);
                let filter = node.filter.to_bytes();
                nodes.extend_from_slice(&(filter.len() as u64).to_le_bytes());
                nodes.extend_from_slice(&filter);
            }
        }

        let mut out = Vec::new();
        out.extend_from_slice(TREE_MAGIC);
        out.extend_from_slice(&TREE_FORMAT_VERSION.to_le_bytes());
        persist::push_section(&mut out, SECTION_META, &meta);
        persist::push_section(&mut out, SECTION_NODES, &nodes);
        out
    }

    /// Decode a persisted tree, verifying magic, version and every section
    /// checksum. Structural staleness against the live SST set is the
    /// caller's check ([`FilterTree::validate_against`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, Corruption> {
        if bytes.len() < 8 || &bytes[0..4] != TREE_MAGIC {
            return Err(Corruption::new("tree-header", "bad magic number"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if version != TREE_FORMAT_VERSION {
            return Err(Corruption::new(
                "tree-header",
                format!("unsupported format version {version}"),
            ));
        }
        let mut cursor = 8usize;
        let meta = persist::take_section(bytes, &mut cursor, SECTION_META, "tree-meta")?;
        let mut at = 0usize;
        let fanout = persist::take_u32(meta, &mut at, "tree-meta")? as usize;
        if fanout < 2 {
            return Err(Corruption::new(
                "tree-meta",
                format!("fan-out {fanout} < 2"),
            ));
        }
        let leaf_keys = persist::take_u64(meta, &mut at, "tree-meta")? as usize;
        let bits_per_key = f64::from_bits(persist::take_u64(meta, &mut at, "tree-meta")?);
        if !(bits_per_key.is_finite() && bits_per_key >= 1.0) {
            return Err(Corruption::new(
                "tree-meta",
                format!("implausible bits/key {bits_per_key}"),
            ));
        }
        let live_leaves = persist::take_u64(meta, &mut at, "tree-meta")? as usize;
        let n_levels = persist::take_u32(meta, &mut at, "tree-meta")? as usize;
        if n_levels > 64 {
            return Err(Corruption::new(
                "tree-meta",
                format!("implausible level count {n_levels}"),
            ));
        }
        let mut level_lens = Vec::with_capacity(n_levels);
        for _ in 0..n_levels {
            level_lens.push(persist::take_u64(meta, &mut at, "tree-meta")? as usize);
        }
        // The level geometry must be the complete fan-out-F shape push_leaf
        // maintains; anything else is corruption or a foreign file.
        let n_leaves = level_lens.first().copied().unwrap_or(0);
        if n_levels != 0 && n_levels != required_levels(n_leaves, fanout) {
            return Err(Corruption::new("tree-meta", "level count mismatch"));
        }
        let mut span = 1usize;
        for (height, &len) in level_lens.iter().enumerate() {
            if height > 0 {
                span = span.saturating_mul(fanout);
            }
            if len != n_leaves.div_ceil(span.max(1)) {
                return Err(Corruption::new(
                    "tree-meta",
                    format!("level {height} has {len} nodes, geometry disagrees"),
                ));
            }
        }
        if live_leaves > n_leaves {
            return Err(Corruption::new("tree-meta", "more live leaves than leaves"));
        }

        let nodes = persist::take_section(bytes, &mut cursor, SECTION_NODES, "tree-nodes")?;
        let mut at = 0usize;
        let mut levels = Vec::with_capacity(n_levels);
        let mut live_seen = 0usize;
        for (height, &len) in level_lens.iter().enumerate() {
            let mut level = Vec::with_capacity(len.min(1 << 20));
            for _ in 0..len {
                let lo = persist::take_u64(nodes, &mut at, "tree-nodes")?;
                let hi = persist::take_u64(nodes, &mut at, "tree-nodes")?;
                let live = persist::take(nodes, &mut at, 1, "tree-nodes")?[0] != 0;
                let filter_len = persist::take_u64(nodes, &mut at, "tree-nodes")? as usize;
                let filter_bytes = persist::take(nodes, &mut at, filter_len, "tree-nodes")?;
                let filter = BloomRf::from_bytes(filter_bytes)
                    .map_err(|e| Corruption::new("tree-nodes", format!("node filter: {e}")))?;
                if height == 0 && live {
                    live_seen += 1;
                }
                level.push(TreeNode {
                    filter,
                    lo,
                    hi,
                    live,
                });
            }
            levels.push(level);
        }
        if live_seen != live_leaves {
            return Err(Corruption::new("tree-nodes", "live-leaf count mismatch"));
        }
        Ok(Self {
            fanout,
            leaf_keys,
            bits_per_key,
            levels,
            live_leaves,
        })
    }

    /// Does a decoded tree still describe this SST set under these options?
    /// Checked on recovery: a `false` answer (e.g. the TREE file survived a
    /// crash the MANIFEST did not, or tuning changed) falls back to
    /// [`FilterTree::build_from_ssts`].
    pub fn validate_against(
        &self,
        ssts: &[SsTable],
        fanout: usize,
        leaf_keys: usize,
        bits_per_key: f64,
    ) -> bool {
        self.fanout == fanout.max(2)
            && self.leaf_keys == leaf_keys.max(1)
            && self.bits_per_key == bits_per_key.max(1.0)
            && self.num_leaves() == ssts.len()
            && self.live_leaves == ssts.len()
            && self.levels.first().map_or(true, |leaves| {
                leaves
                    .iter()
                    .zip(ssts)
                    .all(|(leaf, sst)| leaf.live && (leaf.lo, leaf.hi) == sst.key_range())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bloomrf_filters::FilterKind;

    fn sst_of(keys: &[u64], kind: FilterKind) -> SsTable {
        let entries: Vec<(u64, crate::value::Value)> = keys
            .iter()
            .map(|&k| (k, crate::value::Value::Put(k.to_le_bytes().to_vec())))
            .collect();
        SsTable::build(&entries, 4, kind, 14.0)
    }

    /// Candidates of one point query.
    fn point(tree: &FilterTree, key: u64, stats: &ReadStats) -> Vec<usize> {
        tree.candidates_points(&[key], stats).pop().unwrap()
    }

    /// Candidates of one range query.
    fn range(tree: &FilterTree, lo: u64, hi: u64, stats: &ReadStats) -> Vec<usize> {
        tree.candidates_ranges(&[(lo, hi)], stats).pop().unwrap()
    }

    /// 12 SSTs, fan-out 3: four disjoint key decades per "segment".
    fn build_fixture(kind: FilterKind) -> (Vec<SsTable>, FilterTree) {
        let ssts: Vec<SsTable> = (0..12u64)
            .map(|i| {
                let base = i * 1000;
                sst_of(&[base, base + 10, base + 20, base + 30], kind)
            })
            .collect();
        let tree = FilterTree::build_from_ssts(3, 4, 14.0, &ssts);
        (ssts, tree)
    }

    #[test]
    fn geometry_tracks_leaf_count() {
        let stats = ReadStats::new();
        let mut ssts = Vec::new();
        let mut tree = FilterTree::new(3, 4, 14.0);
        for i in 0..30u64 {
            ssts.push(sst_of(&[i * 100, i * 100 + 1], FilterKind::BloomRfBasic));
            tree.push_leaf(&ssts);
            let n = ssts.len();
            assert_eq!(tree.num_leaves(), n);
            assert_eq!(tree.live_leaves(), n);
            assert_eq!(tree.depth(), required_levels(n, 3));
            // Every present key routes to its SST at every size.
            for (j, sst) in ssts.iter().enumerate() {
                for &k in &sst.keys() {
                    assert!(
                        point(&tree, k, &stats).contains(&j),
                        "key {k} lost at n={n}"
                    );
                }
            }
        }
        assert!(tree.memory_bits() > 0);
        assert_eq!(tree.num_nodes(), 30 + 10 + 4 + 2 + 1);
    }

    #[test]
    fn point_descent_finds_owners_and_prunes_strangers() {
        let (_ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        // Present keys route to exactly their owner (disjoint decades, and
        // fences alone separate them).
        for i in 0..12u64 {
            let c = point(&tree, i * 1000 + 20, &stats);
            assert!(c.contains(&(i as usize)));
            assert!(c.len() <= 2, "candidates {c:?} for decade {i}");
        }
        stats.reset();
        // A key far outside every fence is pruned at the root.
        let c = point(&tree, u64::MAX / 2, &stats);
        assert!(c.is_empty());
        let snap = stats.snapshot();
        assert_eq!(snap.tree_probes, 1, "root fence should reject in one probe");
        assert_eq!(snap.ssts_pruned, 12);
    }

    #[test]
    fn range_descent_matches_brute_force_and_reversed_ranges_route_nowhere() {
        let (ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        let ranges = [
            (0u64, 5u64),
            (995, 1005),
            (3005, 3008),
            (11030, 11030),
            (500, 520),
            (20_000, 30_000),
        ];
        let batch = tree.candidates_ranges(&ranges, &stats);
        for (&(lo, hi), candidates) in ranges.iter().zip(&batch) {
            assert_eq!(*candidates, range(&tree, lo, hi, &stats));
            for (i, sst) in ssts.iter().enumerate() {
                let truly_hits = sst.keys().iter().any(|&k| k >= lo && k <= hi);
                if truly_hits {
                    assert!(candidates.contains(&i), "range ({lo},{hi}) lost SST {i}");
                }
            }
        }
        // Reversed bounds are an empty interval: the root fence rejects them.
        stats.reset();
        assert!(range(&tree, 10, 5, &stats).is_empty());
        assert_eq!(stats.snapshot().tree_probes, 1);
        assert_eq!(stats.snapshot().ssts_pruned, 12);
    }

    #[test]
    fn batch_candidates_match_singles() {
        let (_ssts, tree) = build_fixture(FilterKind::BloomRf { max_range: 1e4 });
        let stats = ReadStats::new();
        let keys: Vec<u64> = (0..40u64).map(|i| i * 317).collect();
        let batch = tree.candidates_points(&keys, &stats);
        for (&k, candidates) in keys.iter().zip(&batch) {
            assert_eq!(*candidates, point(&tree, k, &stats));
        }
    }

    #[test]
    fn batched_descent_counters_match_singles() {
        let (ssts, mut tree) = build_fixture(FilterKind::BloomRf { max_range: 1e4 });
        let keys: Vec<u64> = (0..40u64).map(|i| i * 317).collect();
        let ranges = [
            (0u64, 5u64),
            (995, 1005),
            (3005, 3008),
            (10, 5), // reversed: rejected at the root
            (500, 520),
            (20_000, 30_000),
            (11_030, 11_030),
        ];
        let counters = |stats: &ReadStats| {
            let snap = stats.snapshot();
            (snap.tree_probes, snap.ssts_pruned)
        };
        // Run twice: on the full tree, then with a retired leaf, whose
        // visits still count as probes.
        for retire in [false, true] {
            if retire {
                tree.retire_leaf(5, &ssts, &ReadStats::new());
            }
            let (batched, singles) = (ReadStats::new(), ReadStats::new());
            tree.candidates_points(&keys, &batched);
            for &k in &keys {
                point(&tree, k, &singles);
            }
            assert_eq!(counters(&batched), counters(&singles), "points");
            assert!(counters(&batched).0 > keys.len() as u64);

            let (batched, singles) = (ReadStats::new(), ReadStats::new());
            tree.candidates_ranges(&ranges, &batched);
            for &(lo, hi) in &ranges {
                range(&tree, lo, hi, &singles);
            }
            assert_eq!(counters(&batched), counters(&singles), "ranges");
            assert!(counters(&batched).0 > ranges.len() as u64);
        }
    }

    #[test]
    fn retire_leaf_stops_routing_and_rebuilds_ancestors() {
        let (ssts, mut tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        tree.retire_leaf(5, &ssts, &stats);
        assert_eq!(tree.live_leaves(), 11);
        assert_eq!(stats.snapshot().tree_rebuilds, 1);
        // The retired SST is never a candidate again...
        assert!(!point(&tree, 5020, &stats).contains(&5));
        // ...its sibling under the same rebuilt ancestors still is...
        assert!(point(&tree, 4020, &stats).contains(&4));
        // ...and retiring twice is a no-op.
        tree.retire_leaf(5, &ssts, &stats);
        assert_eq!(stats.snapshot().tree_rebuilds, 1);
        // Pruning accounting uses the live count.
        stats.reset();
        let c = point(&tree, u64::MAX / 2, &stats);
        assert!(c.is_empty());
        assert_eq!(stats.snapshot().ssts_pruned, 11);
    }

    #[test]
    fn retire_and_splice_replaces_a_window_with_one_leaf() {
        let (mut ssts, mut tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        // Merge SSTs 3..7 into one table holding all their keys.
        let merged_keys: Vec<u64> = (3..7u64)
            .flat_map(|i| {
                let base = i * 1000;
                [base, base + 10, base + 20, base + 30]
            })
            .collect();
        let merged = sst_of(&merged_keys, FilterKind::BloomRfBasic);
        let tail: Vec<SsTable> = ssts.split_off(7);
        ssts.truncate(3);
        ssts.push(merged);
        ssts.extend(tail);
        assert_eq!(ssts.len(), 9);
        tree.retire_and_splice(3..7, Some(&ssts[3]), &ssts, &stats);
        assert_eq!(tree.num_leaves(), 9);
        assert_eq!(tree.live_leaves(), 9);
        assert_eq!(tree.depth(), required_levels(9, 3));
        assert_eq!(stats.snapshot().tree_rebuilds, 1);
        // Every key still routes to the table now holding it.
        for (i, sst) in ssts.iter().enumerate() {
            for &k in &sst.keys() {
                assert!(
                    point(&tree, k, &stats).contains(&i),
                    "key {k} lost after splice"
                );
            }
        }
        // The spliced tree stays compatible with validation, persistence and
        // further growth.
        assert!(tree.validate_against(&ssts, 3, 4, 14.0));
        let decoded = FilterTree::from_bytes(&tree.to_bytes()).expect("roundtrip");
        assert!(decoded.validate_against(&ssts, 3, 4, 14.0));
        ssts.push(sst_of(&[90_000, 90_001], FilterKind::BloomRfBasic));
        tree.push_leaf(&ssts);
        assert_eq!(tree.num_leaves(), 10);
        assert!(point(&tree, 90_000, &stats).contains(&9));
    }

    #[test]
    fn retire_and_splice_without_replacement_shrinks_the_tree() {
        let (mut ssts, mut tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        // A merge that produced an empty table: the window just disappears.
        let tail = ssts.split_off(4);
        ssts.truncate(2);
        ssts.extend(tail);
        tree.retire_and_splice(2..4, None, &ssts, &stats);
        assert_eq!(tree.num_leaves(), 10);
        assert_eq!(tree.live_leaves(), 10);
        assert!(tree.validate_against(&ssts, 3, 4, 14.0));
        for (i, sst) in ssts.iter().enumerate() {
            for &k in &sst.keys() {
                assert!(point(&tree, k, &stats).contains(&i));
            }
        }
        // Splicing everything away empties the tree.
        let none: Vec<SsTable> = Vec::new();
        tree.retire_and_splice(0..10, None, &none, &stats);
        assert_eq!(tree.num_leaves(), 0);
        assert_eq!(tree.depth(), 0);
        assert!(point(&tree, 1000, &stats).is_empty());
        // An emptied tree accepts fresh leaves again.
        let fresh = vec![sst_of(&[5, 6], FilterKind::BloomRfBasic)];
        tree.push_leaf(&fresh);
        assert!(point(&tree, 5, &stats).contains(&0));
    }

    #[test]
    fn leaf_adoption_unions_matching_sst_filters() {
        // leaf_keys == per-SST key count and the same bits/key with the
        // basic family ⇒ the SST's own filter block has exactly the leaf
        // configuration, so make_leaf takes the merge_from path. The leaf
        // must be bit-identical to the re-hash path.
        let keys: Vec<u64> = (0..64u64).map(|i| i * 97).collect();
        let sst = sst_of(&keys, FilterKind::BloomRfBasic);
        let tree = FilterTree::new(4, keys.len(), 14.0);
        let adopted = tree.make_leaf(&sst, &keys);
        assert_eq!(adopted.filter.key_count(), keys.len() as u64);
        let mut rehashed = tree.empty_node(0);
        rehashed.absorb(&keys);
        assert_eq!(
            adopted.filter.snapshot_bits(),
            rehashed.filter.snapshot_bits()
        );
        assert_eq!((adopted.lo, adopted.hi), (keys[0], keys[63]));
    }

    #[test]
    fn wire_roundtrip_and_validation() {
        let (ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let stats = ReadStats::new();
        let bytes = tree.to_bytes();
        let decoded = FilterTree::from_bytes(&bytes).expect("roundtrip");
        assert!(decoded.validate_against(&ssts, 3, 4, 14.0));
        assert_eq!(decoded.num_leaves(), 12);
        assert_eq!(decoded.depth(), tree.depth());
        // The decoded tree routes identically.
        for i in 0..12u64 {
            assert_eq!(
                point(&decoded, i * 1000, &stats),
                point(&tree, i * 1000, &stats)
            );
        }
        // Stale against a different SST set or different tuning.
        assert!(!decoded.validate_against(&ssts[..11], 3, 4, 14.0));
        assert!(!decoded.validate_against(&ssts, 4, 4, 14.0));
        assert!(!decoded.validate_against(&ssts, 3, 4, 18.0));
    }

    #[test]
    fn wire_corruption_is_detected() {
        let (_ssts, tree) = build_fixture(FilterKind::BloomRfBasic);
        let good = tree.to_bytes();
        assert!(FilterTree::from_bytes(&good[..6]).is_err(), "truncation");
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(FilterTree::from_bytes(&bad_magic).is_err(), "magic");
        // Flip one byte in every 97th position: each flip must surface as a
        // checksum/structure error, never a silently different tree.
        for at in (8..good.len()).step_by(97) {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(FilterTree::from_bytes(&bad).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn empty_tree_is_inert() {
        let tree = FilterTree::new(16, 8, 14.0);
        let stats = ReadStats::new();
        assert_eq!(tree.num_leaves(), 0);
        assert_eq!(tree.depth(), 0);
        assert!(point(&tree, 7, &stats).is_empty());
        assert!(range(&tree, 0, 100, &stats).is_empty());
        assert_eq!(stats.snapshot().tree_probes, 0);
        let decoded = FilterTree::from_bytes(&tree.to_bytes()).expect("empty roundtrip");
        assert!(decoded.validate_against(&[], 16, 8, 14.0));
    }
}

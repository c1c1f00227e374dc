//! The metric registry and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics with the
//! same units; a test keeps the two in step.

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// One metric: name, unit and direction.
pub type MetricDef = (&'static str, &'static str, Better);

/// The read op classes. Per-layer read metrics are reported once per class
/// as `<layer>.<quantity>.<class>`.
pub const CLASSES: [&str; 5] = [
    "get_hit",
    "get_miss",
    "range_empty",
    "range_hit",
    "batch_get",
];

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", Lower),
    ("get_hit_p50_us", "us", Lower),
    ("get_hit_p90_us", "us", Lower),
    ("get_miss_p50_us", "us", Lower),
    ("get_miss_p90_us", "us", Lower),
    ("range_empty_p50_us", "us", Lower),
    ("range_empty_p90_us", "us", Lower),
    ("range_hit_p50_us", "us", Lower),
    ("range_hit_p90_us", "us", Lower),
    ("batch_get_us_per_key", "us", Lower),
    ("write_ops_per_s", "1/s", Higher),
    ("index_bits_per_key", "bits", Lower),
    ("filter_point_ns", "ns", Lower),
    ("filter_range_ns", "ns", Lower),
];

/// Per-layer read metrics, reported per op class.
pub const PER_CLASS: &[MetricDef] = &[
    ("tree.us", "us", Lower),
    ("tree.nodes", "count", Lower),
    ("tree.candidates", "count", Lower),
    ("tree.pruning_ratio", "ratio", Higher),
    ("sst.filter_us", "us", Lower),
    ("sst.filter_probes", "count", Lower),
    ("sst.block_us", "us", Lower),
    ("sst.blocks", "count", Lower),
    ("sst.false_positive_ratio", "ratio", Lower),
    ("io_sim.wait_us", "us", Lower),
    ("memtable.us", "us", Lower),
    ("memtable.hit_ratio", "ratio", Higher),
    ("db.unattributed_us", "us", Lower),
    ("db.p99_us", "us", Lower),
];

/// Per-layer metrics reported once per run.
pub const PER_RUN: &[MetricDef] = &[
    ("tree.mib", "MiB", Lower),
    ("flush.ms_p50", "ms", Lower),
    ("flush.ms_p99", "ms", Lower),
    ("flush.count", "count", Lower),
    ("compaction.ms_p50", "ms", Lower),
    ("compaction.ms_p99", "ms", Lower),
    ("compaction.count", "count", Lower),
    ("compaction.bytes_rewritten", "bytes", Lower),
    ("io.bytes_written", "bytes", Lower),
    ("io.tree_bytes_written", "bytes", Lower),
    ("io.write_calls", "count", Lower),
    ("io.write_ms", "ms", Lower),
    ("io.rename_calls", "count", Lower),
    ("io.bytes_read", "bytes", Lower),
    ("io.write_amp", "ratio", Lower),
    ("filter.insert_ns_per_key", "ns", Lower),
    ("filter.words_per_range", "count", Lower),
    ("filter.bit_checks_per_range", "count", Lower),
    ("filter.layers_per_range", "count", Lower),
    ("trace.overhead_frac", "ratio", Lower),
];

/// Every per-layer metric, per-class ones first, with full names.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for &(name, unit, better) in PER_CLASS {
        for class in CLASSES {
            out.push((format!("{name}.{class}"), unit, better));
        }
    }
    out.extend(
        PER_RUN
            .iter()
            .map(|&(name, unit, better)| (name.to_string(), unit, better)),
    );
    out
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Record a per-class metric `<name>.<class>`.
    pub fn set_class(&mut self, name: &str, class: &str, value: f64) {
        self.set(format!("{name}.{class}"), value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The final result line: every metric of `defs` with its unit. A metric
/// missing from `values` is reported as 0 when `missing_is_zero` (per-layer
/// quantities a workload's op mix does not exercise); otherwise it is an
/// error, as is any value that is not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[(String, &'static str, Better)],
    values: &Values,
    missing_is_zero: bool,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(defs.len());
    for (name, unit, _) in defs {
        let value = match values.get(name) {
            Some(v) => v,
            None if missing_is_zero => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

/// The end-to-end registry in the shape [`result_line`] takes.
pub fn end_to_end() -> Vec<(String, &'static str, Better)> {
    END_TO_END
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect()
}

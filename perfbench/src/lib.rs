//! The repository benchmark: end-to-end and per-layer measurements of the
//! bloomRF LSM store (`bloomrf_lsm::Db`) and of its filters
//! (`bloomrf::BloomRf`). Timings are reported at a fixed machine speed
//! (see [`calib`]).
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lsm_few_large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, taken from a traced run (see
//! [`trace`]). The workloads and the reasons they were chosen are documented
//! in `src/workloads/`.
//!
//! This library holds the parts of the benchmark that have their own tests:
//! the span tracer and its self-time arithmetic, percentile selection, the
//! counting storage wrapper, the seeded input generator, the speed
//! reference and the metric registry.

pub mod calib;
pub mod countio;
pub mod metrics;
pub mod quantile;
pub mod rng;
pub mod trace;

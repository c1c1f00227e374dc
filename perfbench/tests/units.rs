//! Unit tests of the benchmark's own arithmetic and instruments.

use bloomrf_lsm::StorageIo;
use perfbench::calib::{Speed, NOMINAL_NS};
use perfbench::countio::{CountingIo, IoCounts};
use perfbench::metrics::{end_to_end, per_layer, result_line, Values, END_TO_END};
use perfbench::quantile::{median, percentile, tail_percentile, MIN_TAIL};
use perfbench::rng::KeySpace;
use perfbench::trace::{layer_times, self_time_ns, Span, Tracer};
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: 7,
    }
}

#[test]
fn self_time_subtracts_overlapping_children_once() {
    let parent = span("op", 0, 100, None);
    // [10, 30] and [20, 50] overlap: together they cover 40 ns.
    let children = [span("a", 10, 30, Some(0)), span("b", 20, 50, Some(0))];
    assert_eq!(self_time_ns(&parent, &children), 60);
    // A child running past the parent's end counts only inside it.
    let children = [
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)),
        span("c", 90, 120, Some(0)),
    ];
    assert_eq!(self_time_ns(&parent, &children), 50);
    // A child fully covering the parent leaves no self time.
    assert_eq!(self_time_ns(&parent, &[span("d", 0, 100, Some(0))]), 0);
    assert_eq!(self_time_ns(&parent, &[]), 100);
}

#[test]
fn layer_times_charge_nested_spans_to_their_own_parent() {
    let spans = [
        span("op", 0, 100, None),
        span("tree", 10, 60, Some(0)),
        span("filter", 20, 30, Some(1)),
        span("sst", 60, 80, Some(0)),
        span("filter", 65, 75, Some(3)),
    ];
    let times = layer_times(&spans);
    let get = |name| *times.iter().find(|(n, _, _)| *n == name).unwrap();
    // op: children tree [10,60] and sst [50,80] cover [10,80].
    assert_eq!(get("op"), ("op", 100, 30));
    // The grandchild filter [20,30] is tree's child, not op's.
    assert_eq!(get("tree"), ("tree", 50, 40));
    assert_eq!(get("sst"), ("sst", 20, 10));
    // Both filter spans are summed under one name.
    assert_eq!(get("filter"), ("filter", 20, 20));
    // Without overlapping siblings, self times add up to the root's
    // duration.
    assert_eq!(times.iter().map(|t| t.2).sum::<u64>(), 100);
}

#[test]
fn tracer_records_parents_and_keeps_spans_for_the_file() {
    let tracer = Tracer::new(3);
    tracer.begin_op(1);
    let root = tracer.enter("op");
    tracer.span("memtable", || ());
    let tree = tracer.enter("tree");
    tracer.span("filter", || ());
    tracer.exit(tree);
    tracer.exit(root);
    let spans = tracer.finish_op(|spans| spans.to_vec());
    let parents: Vec<(&str, Option<usize>)> = spans.iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        parents,
        [
            ("op", None),
            ("memtable", Some(0)),
            ("tree", Some(0)),
            ("filter", Some(2)),
        ]
    );
    assert!(spans.iter().all(|s| s.op == 1 && s.start_ns <= s.end_ns));
    assert!(spans[0].end_ns >= spans[3].end_ns);

    // Four spans do not fit the three kept; a later small op does.
    tracer.begin_op(2);
    tracer.span("op", || tracer.span("tree", || ()));
    tracer.finish_op(|_| ());
    let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    tracer.write_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("{\"op\":2,\"name\":\"op\""));
    assert!(lines[1].contains("\"name\":\"tree\"") && lines[1].ends_with("\"parent\":0}"));
}

#[test]
fn disabled_tracer_runs_the_code_and_records_nothing() {
    let tracer = Tracer::disabled();
    tracer.begin_op(0);
    assert_eq!(tracer.span("op", || 5), 5);
    assert!(tracer.finish_op(|spans| spans.is_empty()));
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    let sample = |n: u64| (0..n).collect::<Vec<u64>>();
    // 1000 samples support p99 exactly: ranks 991..=1000 lie beyond it,
    // and the ±20-rank window may not reach them.
    let p = tail_percentile(&sample(1000), 0.99).unwrap();
    assert_eq!((p.value, p.quantile, p.samples), (989.0, 0.99, 1000));
    // 2000 samples: p99 is averaged over ranks 1970..=1990.
    let p = tail_percentile(&sample(2000), 0.99).unwrap();
    assert_eq!((p.value, p.quantile), (1979.0, 0.99));
    // 500 samples do not: the highest supported percentile is p98.
    let p = tail_percentile(&sample(500), 0.99).unwrap();
    assert_eq!((p.value, p.quantile), (489.0, 0.98));
    assert_eq!(500 - 1 - p.value as usize, MIN_TAIL);
    // Eleven samples support only their minimum; ten support nothing.
    assert_eq!(tail_percentile(&sample(11), 0.99).unwrap().value, 0.0);
    assert!(tail_percentile(&sample(10), 0.99).is_none());
    assert!(percentile(&[], 0.5).is_none());
}

#[test]
fn percentiles_average_a_window_but_never_reach_the_tail() {
    // 2000 samples: the p50 window is ±200 ranks (800..=1200).
    let mut s: Vec<u64> = (0..2000).map(|i| i * 10).collect();
    s[1001] += 401;
    let p = percentile(&s, 0.5).unwrap();
    assert_eq!(p.value, 9991.0);
    // A p90 window is ±40 ranks, and is cut short at the ten largest.
    let p = tail_percentile(&s, 0.9).unwrap();
    assert_eq!(p.value, 17990.0);
    let p = tail_percentile(&s, 0.99).unwrap();
    assert_eq!(p.value, 19790.0);
    // Near the supported limit the window shrinks instead of taking in
    // the ten largest samples.
    let p = tail_percentile(&s, 0.9999).unwrap();
    assert_eq!(p.value, 19890.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
}

/// An in-memory [`StorageIo`].
#[derive(Default)]
struct MemIo(Mutex<HashMap<PathBuf, Vec<u8>>>);

impl StorageIo for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0
            .lock()
            .unwrap()
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::from(io::ErrorKind::NotFound))
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.0.lock().unwrap().insert(path.into(), data.to_vec());
        Ok(())
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.0.lock().unwrap();
        let data = files.remove(from).ok_or(io::ErrorKind::NotFound)?;
        files.insert(to.into(), data);
        Ok(())
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.0.lock().unwrap().remove(path);
        Ok(())
    }
    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
    fn list(&self, _dir: &Path) -> io::Result<Vec<PathBuf>> {
        Ok(self.0.lock().unwrap().keys().cloned().collect())
    }
    fn exists(&self, path: &Path) -> bool {
        self.0.lock().unwrap().contains_key(path)
    }
}

#[test]
fn counting_io_counts_bytes_and_calls() {
    let tracer = Arc::new(Tracer::new(100));
    let io = CountingIo::new(MemIo::default(), Some(tracer.clone()));
    let dir = Path::new("/store");
    tracer.begin_op(0);
    io.write(&dir.join("000001.sst"), &[1; 100]).unwrap();
    io.write(&dir.join("TREE.tmp"), &[2; 50]).unwrap();
    io.rename(&dir.join("TREE.tmp"), &dir.join("TREE")).unwrap();
    io.write(&dir.join("MANIFEST.tmp"), &[3; 7]).unwrap();
    assert_eq!(io.read(&dir.join("000001.sst")).unwrap().len(), 100);
    assert!(io.read(&dir.join("missing")).is_err());
    io.remove(&dir.join("000001.sst")).unwrap();
    let counts = io.counts();
    assert_eq!(
        counts,
        IoCounts {
            bytes_written: 157,
            tree_bytes_written: 50,
            write_calls: 3,
            rename_calls: 1,
            bytes_read: 100,
        }
    );
    let earlier = IoCounts {
        bytes_written: 100,
        write_calls: 1,
        ..IoCounts::default()
    };
    assert_eq!(counts.since(&earlier).bytes_written, 57);
    assert_eq!(counts.since(&earlier).write_calls, 2);
    // Each call became one span.
    let names = tracer.finish_op(|spans| spans.iter().map(|s| s.name).collect::<Vec<_>>());
    assert_eq!(
        names,
        [
            "io.write",
            "io.write",
            "io.rename",
            "io.write",
            "io.read",
            "io.read",
            "io.remove"
        ]
    );
}

#[test]
fn keys_of_distinct_ids_are_distinct_and_seeded() {
    let a = KeySpace::new(1);
    let keys: HashSet<u64> = (0..100_000).map(|id| a.key(id)).collect();
    assert_eq!(keys.len(), 100_000);
    assert_ne!(a.key(5), KeySpace::new(2).key(5));
    assert_eq!(a.key(5), KeySpace::new(1).key(5));
}

#[test]
fn result_line_refuses_missing_or_non_finite_end_to_end_metrics() {
    let mut values = Values::default();
    for (name, _, _) in END_TO_END.iter().skip(1) {
        values.set(*name, 1.5);
    }
    let defs = end_to_end();
    assert!(result_line(true, 1, 0, &defs, &values, false).is_err());
    values.set("setup_s", f64::NAN);
    assert!(result_line(true, 1, 0, &defs, &values, false).is_err());
    values.set("setup_s", 0.25);
    let line = result_line(true, 3, 0, &defs, &values, false).unwrap();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    // Per-layer metrics a workload does not exercise read 0.
    let line = result_line(true, 3, 0, &per_layer(), &Values::default(), true).unwrap();
    assert!(line.contains("\"tree.us.get_hit\": {\"value\": 0.0, \"unit\": \"us\"}"));
}

#[test]
fn speed_factor_is_nominal_over_the_median_job_time() {
    let mut speed = Speed::new(3);
    assert_eq!(speed.factor(), 1.0, "no job timed yet");
    speed.tick();
    speed.tick();
    assert_eq!(speed.samples(), 1, "tick waits a slice between timings");
    let (out, ns) = speed.scaled(|| std::hint::black_box(7));
    assert_eq!(out, 7);
    assert!(ns.is_finite() && ns >= 0.0);
    assert_eq!(speed.samples(), 1, "a scaled call keeps its own timings");
    let factor = speed.factor();
    assert!(factor.is_finite() && factor > 0.0);
    // The job does 16384 Bloom lookups: on any machine that takes between
    // a microsecond and a second.
    let job_ns = NOMINAL_NS / factor;
    assert!((1e3..1e9).contains(&job_ns), "job took {job_ns} ns");
}

#[test]
fn benchmark_json_lists_the_registry() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let mut all: Vec<(String, &str, &str)> = end_to_end()
        .into_iter()
        .map(|(n, u, b)| (n, u, b.as_str()))
        .collect();
    all.extend(per_layer().into_iter().map(|(n, u, b)| (n, u, b.as_str())));
    for (name, unit, better) in &all {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(text.matches("\"unit\"").count(), all.len());
}

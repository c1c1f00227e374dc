//! A [`StorageIo`] wrapper that counts the bytes and calls passing through
//! it and, when given a tracer, records a span around each call.

use bloomrf_lsm::StorageIo;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::trace::Tracer;

/// Counts of the calls made through a [`CountingIo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// Bytes handed to `write`.
    pub bytes_written: u64,
    /// Bytes handed to `write` for the filter-tree file (`TREE`, written
    /// as `TREE.tmp` and renamed into place).
    pub tree_bytes_written: u64,
    /// Calls to `write`.
    pub write_calls: u64,
    /// Calls to `rename`.
    pub rename_calls: u64,
    /// Bytes returned by successful `read` calls.
    pub bytes_read: u64,
}

impl IoCounts {
    /// The counts accrued since `earlier`.
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            bytes_written: self.bytes_written - earlier.bytes_written,
            tree_bytes_written: self.tree_bytes_written - earlier.tree_bytes_written,
            write_calls: self.write_calls - earlier.write_calls,
            rename_calls: self.rename_calls - earlier.rename_calls,
            bytes_read: self.bytes_read - earlier.bytes_read,
        }
    }
}

#[derive(Default)]
struct Counters {
    bytes_written: AtomicU64,
    tree_bytes_written: AtomicU64,
    write_calls: AtomicU64,
    rename_calls: AtomicU64,
    bytes_read: AtomicU64,
}

/// Wraps a [`StorageIo`], counting what passes through. The counters are
/// statistics only and publish no other data, so they use relaxed atomics.
pub struct CountingIo<I: StorageIo> {
    inner: I,
    counters: Counters,
    tracer: Option<Arc<Tracer>>,
}

impl<I: StorageIo> CountingIo<I> {
    /// Count the calls made to `inner`; with a tracer, also record a span
    /// (`io.read`, `io.write`, `io.rename`, `io.remove`) around each.
    pub fn new(inner: I, tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            inner,
            counters: Counters::default(),
            tracer,
        }
    }

    /// The counts so far.
    pub fn counts(&self) -> IoCounts {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoCounts {
            bytes_written: get(&c.bytes_written),
            tree_bytes_written: get(&c.tree_bytes_written),
            write_calls: get(&c.write_calls),
            rename_calls: get(&c.rename_calls),
            bytes_read: get(&c.bytes_read),
        }
    }

    fn traced<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.tracer {
            Some(t) => t.span(name, f),
            None => f(),
        }
    }
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

fn is_tree_file(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n == "TREE" || n.starts_with("TREE."))
}

impl<I: StorageIo> StorageIo for CountingIo<I> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let out = self.traced("io.read", || self.inner.read(path));
        if let Ok(bytes) = &out {
            add(&self.counters.bytes_read, bytes.len() as u64);
        }
        out
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        add(&self.counters.write_calls, 1);
        add(&self.counters.bytes_written, data.len() as u64);
        if is_tree_file(path) {
            add(&self.counters.tree_bytes_written, data.len() as u64);
        }
        self.traced("io.write", || self.inner.write(path, data))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        add(&self.counters.rename_calls, 1);
        self.traced("io.rename", || self.inner.rename(from, to))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.traced("io.remove", || self.inner.remove(path))
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

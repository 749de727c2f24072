//! Content-addressed on-disk entry store.
//!
//! Two persistent artifacts outlive a run: the incremental result cache
//! (per-file execution replay) and the bug repository (minimized
//! repros). Both are the same machine — one text file per entry under a
//! schema-versioned directory, atomic writes, and *any* read problem
//! degrading to a miss — so both are a [`Store`] instantiated with their
//! own [`EntryCodec`]. The store owns every mechanical decision:
//!
//! * the layout `<root>/v<VERSION>/<shard>/<stem>.<EXT>`, where the shard
//!   is the stem's first two hex digits (the top byte of the key's
//!   leading hash) so no directory grows large;
//! * the atomic write: a complete entry goes to a uniquely named temp
//!   file, then is renamed into place, so racing writers of one key each
//!   leave a valid entry and readers never see a partial one;
//! * corrupt ⇒ miss: absent files are misses; files that exist but fail
//!   to decode (wrong version, truncated, garbage, not UTF-8, filed under
//!   another key) are misses counted as `corrupt`, never errors;
//! * the counters ([`StoreStats`]), the sorted entry walk, disk
//!   accounting, removal and predicate-driven garbage collection.
//!
//! A codec supplies only what differs: its version, its file extension,
//! the file stem for a key, and the text encoding of a value.

use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide counter making concurrent writers' temp file names unique.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The per-format half of a [`Store`]: how keys name files and how values
/// become text.
pub trait EntryCodec {
    /// What a lookup is addressed by.
    type Key;
    /// What an entry holds.
    type Value;
    /// On-disk format version: the `v<N>` directory, and by convention the
    /// entry's header line. Bumping it orphans every older entry.
    const VERSION: u32;
    /// Entry file extension (without the dot).
    const EXT: &'static str;
    /// The entry's file name without extension: fixed-width lowercase hex,
    /// so file names sort in key order. The first two digits name the
    /// shard directory.
    fn stem(key: &Self::Key) -> String;
    /// Invert [`EntryCodec::stem`]; `None` for a foreign file name.
    fn parse_stem(stem: &str) -> Option<Self::Key>;
    /// The complete entry text.
    fn encode(key: &Self::Key, value: &Self::Value) -> String;
    /// Parse an entry read from `key`'s path. `None` on any defect,
    /// including an entry that names a different key.
    fn decode(key: &Self::Key, text: &str) -> Option<Self::Value>;
}

/// Lookup/store counters of one store instance over one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that found no valid entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries that existed but failed validation (bad version, truncated,
    /// garbage) — a subset of `misses`.
    pub corrupt: u64,
}

impl StoreStats {
    /// Fraction of lookups answered from the store, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A content-addressed directory of entries in codec `C`'s format.
///
/// Cheap to construct; all methods take `&self` and are thread-safe. IO
/// failures on write are swallowed — a store that cannot write simply
/// never hits.
pub struct Store<C> {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    codec: PhantomData<fn() -> C>,
}

impl<C> std::fmt::Debug for Store<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("root", &self.root).finish_non_exhaustive()
    }
}

impl<C: EntryCodec> Store<C> {
    /// A store rooted at `root` (created lazily on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Store {
            root: root.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            codec: PhantomData,
        }
    }

    /// [`Store::new`] wrapped for sharing across workers.
    pub fn shared(root: impl Into<PathBuf>) -> Arc<Self> {
        Arc::new(Self::new(root))
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where `key`'s entry lives.
    pub fn entry_path(&self, key: &C::Key) -> PathBuf {
        let stem = C::stem(key);
        self.root
            .join(format!("v{}", C::VERSION))
            .join(&stem[..2])
            .join(format!("{stem}.{}", C::EXT))
    }

    /// Fetch `key`'s entry. Any failure — absent entry, version mismatch,
    /// truncation, garbage — is a miss, never an error.
    pub fn lookup(&self, key: &C::Key) -> Option<C::Value> {
        let Ok(bytes) = std::fs::read(self.entry_path(key)) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match String::from_utf8(bytes).ok().and_then(|text| C::decode(key, &text)) {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist `value` under `key` atomically: write a complete entry to a
    /// uniquely named temp file, then rename it into place.
    pub fn store(&self, key: &C::Key, value: &C::Value) {
        let path = self.entry_path(key);
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, C::encode(key, value)).is_ok()
            && std::fs::rename(&tmp, &path).is_ok()
        {
            self.stores.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Delete `key`'s entry. Returns `true` if it existed.
    pub fn remove(&self, key: &C::Key) -> bool {
        std::fs::remove_file(self.entry_path(key)).is_ok()
    }

    /// Snapshot of this instance's lookup/store counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Every entry file currently on disk (all versions), sorted — so
    /// within one version, sorted by key.
    pub fn entry_paths(&self) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else { continue };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == C::EXT) {
                    out.push(path);
                }
            }
        }
        out.sort();
        out
    }

    /// Every valid entry on disk in [`Store::entry_paths`] order. A walk,
    /// not a lookup: the counters are untouched.
    pub fn entries(&self) -> Vec<(C::Key, C::Value)> {
        self.entry_paths().iter().filter_map(|path| read_entry::<C>(path)).collect()
    }

    /// Delete every entry that fails to decode or that `keep` rejects.
    /// Returns `(removed, kept)`.
    pub fn retain(&self, mut keep: impl FnMut(&C::Value) -> bool) -> (usize, usize) {
        let mut removed = 0;
        let mut kept = 0;
        for path in self.entry_paths() {
            let live = read_entry::<C>(&path).is_some_and(|(_, value)| keep(&value));
            if !live && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            } else {
                kept += 1;
            }
        }
        (removed, kept)
    }

    /// `(entry count, total bytes)` on disk.
    pub fn disk_usage(&self) -> (usize, u64) {
        let paths = self.entry_paths();
        let bytes = paths.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
        (paths.len(), bytes)
    }

    /// Delete the entire store directory.
    pub fn clear(&self) -> std::io::Result<()> {
        match std::fs::remove_dir_all(&self.root) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Record this instance's counters as the store's "last run" stats,
    /// read back by [`Store::last_run_stats`].
    pub fn persist_stats(&self) {
        let s = self.stats();
        if std::fs::create_dir_all(&self.root).is_ok() {
            let _ = std::fs::write(
                self.root.join("last-run-stats"),
                format!("{} {} {} {}\n", s.hits, s.misses, s.stores, s.corrupt),
            );
        }
    }

    /// The counters persisted by the most recent [`Store::persist_stats`]
    /// under `root`, if any.
    pub fn last_run_stats(root: &Path) -> Option<StoreStats> {
        let text = std::fs::read_to_string(root.join("last-run-stats")).ok()?;
        let mut nums = text.split_whitespace().map(|n| n.parse::<u64>());
        let mut next = || nums.next()?.ok();
        Some(StoreStats { hits: next()?, misses: next()?, stores: next()?, corrupt: next()? })
    }
}

/// Decode the entry at `path`, keyed by its file name.
fn read_entry<C: EntryCodec>(path: &Path) -> Option<(C::Key, C::Value)> {
    let key = C::parse_stem(path.file_stem()?.to_str()?)?;
    let text = String::from_utf8(std::fs::read(path).ok()?).ok()?;
    let value = C::decode(&key, &text)?;
    Some((key, value))
}

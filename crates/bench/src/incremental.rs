//! The incremental-study workload: cold vs warm vs dirty wall-clock for
//! a cached study run.
//!
//! The content-addressed result cache ([`squality_core::ResultCache`])
//! turns a repeated study into pure replay: every cell file hits, nothing
//! executes. This workload measures the three interesting points —
//!
//! * **cold** — empty cache, everything executes and is stored,
//! * **warm** — identical rerun, everything replays,
//! * **dirty** — one cached entry evicted (equivalent to editing one
//!   donor file), exactly that file re-executes,
//!
//! and reports the wall-clock plus per-phase hit/miss counters that the
//! `study_incremental` section of `BENCH_engine.json` tracks.

use squality_core::{run_study_cached, ResultCache, StoreStats, StudyConfig};
use std::sync::Arc;
use std::time::Instant;

/// One measured cold/warm/dirty triple.
pub struct IncrementalBenchResult {
    /// Corpus scale the study ran at.
    pub scale: f64,
    /// Study seed.
    pub seed: u64,
    /// Worker count (0 = all cores).
    pub workers: usize,
    /// Cold (empty-cache) study wall-clock in milliseconds.
    pub cold_ms: f64,
    /// Warm (all-hit) study wall-clock in milliseconds.
    pub warm_ms: f64,
    /// Dirty (one entry evicted) study wall-clock in milliseconds.
    pub dirty_ms: f64,
    /// Hit/miss/store counters from the cold run.
    pub cold_stats: StoreStats,
    /// Hit/miss/store counters from the warm run.
    pub warm_stats: StoreStats,
    /// Hit/miss/store counters from the dirty run.
    pub dirty_stats: StoreStats,
}

impl IncrementalBenchResult {
    /// Cold-over-warm speedup factor.
    pub fn warm_speedup(&self) -> f64 {
        if self.warm_ms > 0.0 {
            self.cold_ms / self.warm_ms
        } else {
            f64::INFINITY
        }
    }

    /// Cold-over-dirty speedup factor.
    pub fn dirty_speedup(&self) -> f64 {
        if self.dirty_ms > 0.0 {
            self.cold_ms / self.dirty_ms
        } else {
            f64::INFINITY
        }
    }
}

/// Run the study three times against one on-disk cache (cold, warm, and
/// with one entry evicted) and measure each pass. The cache lives in a
/// private temp directory that is removed afterwards.
pub fn run_incremental_bench(scale: f64, seed: u64, workers: usize) -> IncrementalBenchResult {
    let dir =
        std::env::temp_dir().join(format!("squality-incremental-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StudyConfig::default().with_seed(seed).with_scale(scale).with_workers(workers);

    // A fresh ResultCache per phase over the same directory keeps the
    // hit/miss counters per-phase while sharing the stored entries.
    let run = |cache: Arc<ResultCache>| {
        let start = Instant::now();
        let study = run_study_cached(config.clone(), &[], Some(cache));
        (start.elapsed().as_nanos() as f64 / 1e6, study.result_cache)
    };

    let (cold_ms, cold_stats) = run(Arc::new(ResultCache::new(&dir)));
    let (warm_ms, warm_stats) = run(Arc::new(ResultCache::new(&dir)));

    // Evict one entry — the on-disk equivalent of editing one donor file.
    let dirty_cache = Arc::new(ResultCache::new(&dir));
    if let Some(victim) = dirty_cache.entry_paths().first() {
        let _ = std::fs::remove_file(victim);
    }
    let (dirty_ms, dirty_stats) = run(dirty_cache);

    let _ = std::fs::remove_dir_all(&dir);
    IncrementalBenchResult {
        scale,
        seed,
        workers,
        cold_ms,
        warm_ms,
        dirty_ms,
        cold_stats,
        warm_stats,
        dirty_stats,
    }
}

/// Render the `study_incremental` section for `BENCH_engine.json`.
pub fn render_incremental_json(r: &IncrementalBenchResult) -> String {
    let mut s = String::from("  \"study_incremental\": {\n");
    s.push_str(&format!(
        "    \"scale\": {}, \"seed\": {}, \"workers\": {},\n",
        r.scale, r.seed, r.workers
    ));
    s.push_str(&format!(
        "    \"cold_ms\": {:.1}, \"warm_ms\": {:.1}, \"dirty_ms\": {:.1},\n",
        r.cold_ms, r.warm_ms, r.dirty_ms
    ));
    s.push_str(&format!(
        "    \"warm_speedup\": {:.1}, \"dirty_speedup\": {:.1},\n",
        r.warm_speedup(),
        r.dirty_speedup()
    ));
    s.push_str(&format!(
        "    \"cold\": {{\"hits\": {}, \"misses\": {}, \"stores\": {}}},\n",
        r.cold_stats.hits, r.cold_stats.misses, r.cold_stats.stores
    ));
    s.push_str(&format!(
        "    \"warm\": {{\"hits\": {}, \"misses\": {}, \"stores\": {}}},\n",
        r.warm_stats.hits, r.warm_stats.misses, r.warm_stats.stores
    ));
    s.push_str(&format!(
        "    \"dirty\": {{\"hits\": {}, \"misses\": {}, \"stores\": {}}}\n",
        r.dirty_stats.hits, r.dirty_stats.misses, r.dirty_stats.stores
    ));
    s.push_str("  }\n");
    s
}

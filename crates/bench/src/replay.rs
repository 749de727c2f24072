//! The bug-store workload: cold triage vs incremental re-triage wall
//! clock, plus regression-replay throughput over the persisted corpus.
//!
//! The persistent bug repository ([`squality_core::BugStore`]) turns a
//! repeated `triage --reduce` into pure replay: every cluster whose
//! signature already has a stored repro is answered from disk with zero
//! ddmin probes. This workload measures the round trip the
//! `bug_replay` section of `BENCH_engine.json` tracks —
//!
//! * **cold triage** — empty store, every cluster is minimized and
//!   persisted,
//! * **warm triage** — identical re-triage, every cluster reuses its
//!   stored entry (zero probes, asserted),
//! * **replay** — the stored repro corpus re-executes as a regression
//!   suite through the harness.

use squality_core::triage::{triage_study_with_observers, TriageConfig};
use squality_core::{replay_store_with_observers, BugStore, ReplayConfig};
use std::sync::Arc;
use std::time::Instant;

/// One measured bug-store round trip.
pub struct ReplayBenchResult {
    /// Corpus scale the triaged study ran at.
    pub scale: f64,
    /// Worker count (0 = all cores).
    pub workers: usize,
    /// Empty-store triage wall-clock in milliseconds (full ddmin).
    pub cold_triage_ms: f64,
    /// Re-triage wall-clock against the populated store (zero probes).
    pub warm_triage_ms: f64,
    /// Regression-replay wall-clock over the stored repro corpus.
    pub replay_ms: f64,
    /// Probes the cold pass spent minimizing.
    pub cold_probes: usize,
    /// Verified entries replayed (tombstones excluded).
    pub entries: usize,
    /// Records executed across all replay group runs.
    pub statements: usize,
}

impl ReplayBenchResult {
    /// Cold-over-warm triage speedup factor.
    pub fn incremental_speedup(&self) -> f64 {
        if self.warm_triage_ms > 0.0 {
            self.cold_triage_ms / self.warm_triage_ms
        } else {
            f64::INFINITY
        }
    }

    /// Replay throughput in executed statements per second.
    pub fn statements_per_sec(&self) -> f64 {
        if self.replay_ms > 0.0 {
            self.statements as f64 / (self.replay_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// Triage the study twice against one on-disk store (cold, then warm)
/// and replay the persisted corpus, measuring each pass. The store lives
/// in a private temp directory that is removed afterwards.
pub fn run_replay_bench(scale: f64, workers: usize) -> ReplayBenchResult {
    let dir = std::env::temp_dir().join(format!("squality-replay-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let study = crate::study_at_scale_with_workers(scale, workers);
    let store = BugStore::shared(&dir);
    let config = TriageConfig::default()
        .with_reduce(true)
        .with_workers(workers)
        .with_store(Arc::clone(&store));

    let start = Instant::now();
    let cold = triage_study_with_observers(&study, &config, &[]);
    let cold_triage_ms = start.elapsed().as_nanos() as f64 / 1e6;

    let start = Instant::now();
    let warm = triage_study_with_observers(&study, &config, &[]);
    let warm_triage_ms = start.elapsed().as_nanos() as f64 / 1e6;
    // The acceptance invariant the bench rides on: an unchanged study
    // re-triages without a single ddmin probe.
    assert_eq!(warm.stats.probes, 0, "warm re-triage must be probe-free");

    let start = Instant::now();
    let replay_config = ReplayConfig::default().with_workers(workers);
    let report = replay_store_with_observers(&store, &replay_config, &[]);
    let replay_ms = start.elapsed().as_nanos() as f64 / 1e6;

    let _ = std::fs::remove_dir_all(&dir);
    ReplayBenchResult {
        scale,
        workers,
        cold_triage_ms,
        warm_triage_ms,
        replay_ms,
        cold_probes: cold.stats.probes,
        entries: report.entries.len(),
        statements: report.total_statements,
    }
}

/// Render the `bug_replay` section for `BENCH_engine.json`.
pub fn render_replay_json(r: &ReplayBenchResult) -> String {
    let mut s = String::from("  \"bug_replay\": {\n");
    s.push_str(&format!("    \"scale\": {}, \"workers\": {},\n", r.scale, r.workers));
    s.push_str(&format!(
        "    \"cold_triage_ms\": {:.1}, \"warm_triage_ms\": {:.1}, \"replay_ms\": {:.1},\n",
        r.cold_triage_ms, r.warm_triage_ms, r.replay_ms
    ));
    s.push_str(&format!(
        "    \"incremental_speedup\": {:.1}, \"cold_probes\": {},\n",
        r.incremental_speedup(),
        r.cold_probes
    ));
    s.push_str(&format!(
        "    \"entries\": {}, \"statements\": {}, \"statements_per_sec\": {:.0}\n",
        r.entries,
        r.statements,
        r.statements_per_sec()
    ));
    s.push_str("  }\n");
    s
}

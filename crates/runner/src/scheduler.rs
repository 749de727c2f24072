//! Parallel suite execution: shard test files across a worker pool.
//!
//! The paper's runner executes suites statement-by-statement over one
//! connection; the follow-up work on scaling automated DBMS testing shows
//! the same loop fans out naturally at *file* granularity, because donor
//! suites assume independent files (each starts from a fresh database).
//! [`Runner::run_files`] exploits exactly that: a [`ConnectorFactory`]
//! mints one connection per worker (lazily, on the worker's first file),
//! workers claim files through the ordered [`pool`](crate::pool), and
//! records come back **in input order**, so the output is byte-identical
//! whatever the worker count — parallelism is purely a throughput knob,
//! never an observability one.
//!
//! The scheduler emits per-file events only; suite-level events belong to
//! the caller, which alone knows the whole suite (the `Harness` in
//! `squality-core` replays cached files alongside the ones that ran).
//!
//! Files that need cross-file state (`fresh_database: false` carry-over)
//! are inherently sequential and must keep using [`Runner::run_file`];
//! the scheduler resets every connection before every file.

use crate::connector::{Connector, ConnectorError, ConnectorFactory};
use crate::events::RunObserver;
use crate::outcome::{FileResult, Outcome, RecordResult};
use crate::runner::{Runner, RunnerOptions};
use squality_formats::TestFile;
use squality_sqlast::translate::{TranslationCounts, TranslationStats};
use std::sync::Arc;

/// The result a file gets when no connection could be opened for it: a
/// single synthetic crash record, so a down backend surfaces as a
/// counted, classified crash in every table and event log instead of a
/// harness abort. The worker retries [`ConnectorFactory::connect`] for
/// its next file — a transient outage fails only the files it covered.
fn connect_failure_result(file: &str, error: &ConnectorError) -> FileResult {
    let message = format!("connect failed: {error}");
    FileResult {
        file: file.to_string(),
        results: vec![RecordResult { line: 0, sql: None, outcome: Outcome::Crash(message) }],
        crashed: true,
        hung: false,
    }
}

/// One file's complete execution record from [`Runner::run_files`]:
/// its outcomes plus everything the study result cache needs to persist
/// so the file can be skipped — and its effects replayed — on the next
/// run.
pub struct FileRunRecord {
    /// The caller's index for this file (its position in the *original*
    /// suite, not in the possibly-partial slice that ran).
    pub index: usize,
    /// The per-record outcomes.
    pub result: FileResult,
    /// Translation counter deltas attributable to this file alone.
    pub translation: TranslationCounts,
}

impl Runner {
    /// Execute `files` — `(original_index, file)` pairs, a whole suite or
    /// any subset of one — on `workers` parallel connections minted by
    /// `factory` (`0` = all cores). Each file runs on a freshly-reset
    /// connection: `prepare` runs on it first (the seam for environment
    /// provisioning: data files, extensions, set-up SQL), then the file,
    /// then `epilogue` with the file's original index (the harness closes
    /// its per-file coverage capture window there).
    ///
    /// With an `observer`, every file streams its
    /// `FileStarted`/`RecordFinished`/`FileFinished` block under its
    /// original index, so a log interleaves correctly with blocks the
    /// caller replays for files that did not run. Suite-level events are
    /// the caller's.
    ///
    /// Records come back in slice order, byte-identical at every worker
    /// count, together with the retired worker connections — one per
    /// worker that opened one, carrying accumulated coverage and other
    /// run-scoped state. Each file's translation counters are measured
    /// with a private counter set so the deltas are per-file exact, while
    /// the memoisation cache stays shared (it replays counter deltas on
    /// hit, so totals are unchanged).
    pub fn run_files<F: ConnectorFactory>(
        &self,
        factory: &F,
        files: &[(usize, &TestFile)],
        workers: usize,
        prepare: impl Fn(&mut F::Conn) + Sync,
        epilogue: impl Fn(&mut F::Conn, usize) + Sync,
        observer: Option<&dyn RunObserver>,
    ) -> (Vec<FileRunRecord>, Vec<F::Conn>) {
        crate::pool::map_ordered(files, workers, |conn: &mut Option<F::Conn>, _, &(index, file)| {
            let conn = match conn {
                Some(conn) => conn,
                None => match factory.connect() {
                    Ok(fresh) => conn.insert(fresh),
                    Err(e) => {
                        let result = connect_failure_result(&file.name, &e);
                        if let Some(observer) = observer {
                            crate::events::replay_file_events(observer, index, &result);
                        }
                        let translation = TranslationCounts::default();
                        return FileRunRecord { index, result, translation };
                    }
                },
            };
            conn.reset();
            prepare(conn);
            // The scheduler owns the per-file reset (reset → prepare →
            // run), so the inner runner must not reset again and wipe the
            // preparation. A private counter set per file isolates this
            // file's translation deltas; the shared memo cache still
            // deduplicates the parse/print work.
            let stats = Arc::new(TranslationStats::new());
            let per_file = Runner {
                options: RunnerOptions { fresh_database: false, ..self.options },
                translation_stats: Arc::clone(&stats),
                translation_cache: Arc::clone(&self.translation_cache),
            };
            let result = match observer {
                Some(observer) => per_file.run_file_observed(conn, file, index, observer),
                None => per_file.run_file(conn, file),
            };
            epilogue(conn, index);
            FileRunRecord { index, result, translation: stats.counts() }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::{EngineConnectorFactory, FnFactory};
    use crate::EngineConnector;
    use squality_engine::{ClientKind, EngineDialect, PlanCache};
    use squality_formats::{parse_slt, SltFlavor};

    /// A small synthetic suite with loops, passes, and skips. The first
    /// loop substitutes its variable (distinct SQL each iteration); the
    /// second replays one constant statement many times — the loop-heavy
    /// shape that makes a parse cache pay off.
    fn suite(n_files: usize) -> Vec<TestFile> {
        (0..n_files)
            .map(|i| {
                let slt = format!(
                    "statement ok\n\
                     CREATE TABLE t{i}(a INTEGER)\n\n\
                     loop v 0 {vreps}\n\n\
                     statement ok\n\
                     INSERT INTO t{i} VALUES (${{v}})\n\n\
                     endloop\n\n\
                     loop v 0 25\n\n\
                     statement ok\n\
                     INSERT INTO t{i} VALUES (7)\n\n\
                     endloop\n\n\
                     query I nosort\n\
                     SELECT count(*) FROM t{i}\n\
                     ----\n\
                     {total}\n\n\
                     skipif sqlite\n\
                     statement ok\n\
                     SELECT 1\n",
                    vreps = 3 + i % 5,
                    total = 25 + 3 + i % 5,
                );
                parse_slt(&format!("file{i}.test"), &slt, SltFlavor::Duckdb)
            })
            .collect()
    }

    /// Run every file of `files` through the one scheduler entry with no
    /// hooks and no observer, returning the results in input order.
    fn run_all<F: ConnectorFactory>(
        runner: &Runner,
        factory: &F,
        files: &[TestFile],
        workers: usize,
    ) -> Vec<FileResult> {
        let indexed: Vec<(usize, &TestFile)> = files.iter().enumerate().collect();
        let (records, _) = runner.run_files(factory, &indexed, workers, |_| {}, |_, _| {}, None);
        records.into_iter().map(|record| record.result).collect()
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let files = suite(13);
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let runner = Runner::default();
        let baseline = run_all(&runner, &factory, &files, 1);
        for workers in [2, 3, 8] {
            let got = run_all(&runner, &factory, &files, workers);
            assert_eq!(got, baseline, "worker count {workers} changed results");
        }
    }

    #[test]
    fn plan_cache_does_not_change_results_and_hits() {
        let files = suite(6);
        let runner = Runner::default();
        let plain = EngineConnectorFactory::new(EngineDialect::Duckdb, ClientKind::Cli);
        let cache = PlanCache::shared();
        let cached = EngineConnectorFactory::new(EngineDialect::Duckdb, ClientKind::Cli)
            .plan_cache(std::sync::Arc::clone(&cache));
        let a = run_all(&runner, &plain, &files, 4);
        let b = run_all(&runner, &cached, &files, 4);
        assert_eq!(a, b);
        let stats = cache.stats();
        // The loop bodies replay the same INSERT text: hits must dominate.
        assert!(stats.hits > stats.misses, "{stats:?}");
    }

    #[test]
    fn prepare_hook_runs_before_every_file() {
        let files = suite(5);
        let indexed: Vec<(usize, &TestFile)> = files.iter().enumerate().collect();
        let factory = EngineConnectorFactory::new(EngineDialect::Postgres, ClientKind::Cli);
        let runner = Runner::default();
        let bare = run_all(&runner, &factory, &files, 2);
        // Provision a marker table; every file must then see it.
        let provision = |conn: &mut EngineConnector| {
            conn.execute("CREATE TABLE provisioned(x INTEGER)").unwrap();
        };
        let (records, connectors) =
            runner.run_files(&factory, &indexed, 2, provision, |_, _| {}, None);
        assert_eq!(records.len(), bare.len());
        // Workers connect lazily, so every retired connector claimed at
        // least one file and carries accumulated coverage.
        assert!(!connectors.is_empty());
        assert!(connectors.iter().all(|conn| conn.engine().coverage().line_ratio() > 0.0));
        let probe = parse_slt(
            "probe.test",
            "statement ok\nSELECT * FROM provisioned\n",
            SltFlavor::Classic,
        );
        let (with_env, _) =
            runner.run_files(&factory, &[(0, &probe)], 1, provision, |_, _| {}, None);
        assert_eq!(with_env[0].result.passed(), 1);
        let without_env = run_all(&runner, &factory, &[probe], 1);
        assert_eq!(without_env[0].failed(), 1);
    }

    #[test]
    fn epilogue_runs_after_every_file_with_its_original_index() {
        let files = suite(6);
        // A partial slice: only the odd files run, under their suite index.
        let odd: Vec<(usize, &TestFile)> = files.iter().enumerate().skip(1).step_by(2).collect();
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let seen = std::sync::Mutex::new(Vec::new());
        let (records, _) = Runner::default().run_files(
            &factory,
            &odd,
            2,
            |_| {},
            |_, index| seen.lock().unwrap().push(index),
            None,
        );
        assert_eq!(records.iter().map(|r| r.index).collect::<Vec<_>>(), [1, 3, 5]);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, [1, 3, 5]);
    }

    #[test]
    fn connect_failure_becomes_crashed_results_not_a_panic() {
        use crate::connector::{ConnectorError, TransportError, TransportErrorKind};
        use crate::events::CollectingObserver;
        struct DownFactory;
        impl ConnectorFactory for DownFactory {
            type Conn = EngineConnector;
            fn connect(&self) -> Result<EngineConnector, ConnectorError> {
                Err(TransportError::new(TransportErrorKind::Connect, "worker binary not found")
                    .into())
            }
            fn info(&self) -> crate::events::ConnectorInfo {
                crate::events::ConnectorInfo::named("down")
            }
        }
        let files = suite(4);
        let indexed: Vec<(usize, &TestFile)> = files.iter().enumerate().collect();
        let obs = CollectingObserver::new();
        let (records, connectors) =
            Runner::default().run_files(&DownFactory, &indexed, 2, |_| {}, |_, _| {}, Some(&obs));
        assert_eq!(records.len(), 4);
        assert!(connectors.is_empty());
        for (i, record) in records.iter().enumerate() {
            let r = &record.result;
            assert!(r.crashed, "file {i} not marked crashed");
            assert_eq!(r.results.len(), 1);
            let Outcome::Crash(m) = &r.results[0].outcome else { panic!("{:?}", r.results) };
            assert!(m.contains("connect failed"), "{m}");
            assert_eq!(record.translation, TranslationCounts::default());
        }
        // The event stream still forms complete per-file blocks.
        let lines = obs.lines();
        assert_eq!(lines.iter().filter(|l| l.contains("\"event\":\"file_started\"")).count(), 4);
        assert_eq!(lines.iter().filter(|l| l.contains("\"event\":\"file_finished\"")).count(), 4);
    }

    #[test]
    fn closure_factories_work() {
        let files = suite(4);
        let factory =
            FnFactory(|| EngineConnector::new(EngineDialect::Mysql, ClientKind::Connector));
        let results = run_all(&Runner::default(), &factory, &files, 3);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.failed() == 0), "{results:?}");
    }

    #[test]
    fn zero_workers_means_auto_and_empty_suites_are_fine() {
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let results = run_all(&Runner::default(), &factory, &[], 0);
        assert!(results.is_empty());
        let files = suite(2);
        let results = run_all(&Runner::default(), &factory, &files, 0);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn observed_run_emits_deterministic_event_multiset() {
        use crate::events::CollectingObserver;
        let files = suite(7);
        let indexed: Vec<(usize, &TestFile)> = files.iter().enumerate().collect();
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        let runner = Runner::default();
        let collect = |workers: usize| {
            let obs = CollectingObserver::new();
            let (records, _) =
                runner.run_files(&factory, &indexed, workers, |_| {}, |_, _| {}, Some(&obs));
            let results: Vec<FileResult> = records.into_iter().map(|r| r.result).collect();
            (results, obs.lines())
        };
        let (base_results, base_lines) = collect(1);
        // Event bookkeeping against the stitched results.
        let records: usize = base_results.iter().map(FileResult::total).sum();
        assert_eq!(
            base_lines.iter().filter(|l| l.contains("\"event\":\"record\"")).count(),
            records
        );
        assert_eq!(
            base_lines.iter().filter(|l| l.contains("\"event\":\"file_started\"")).count(),
            files.len()
        );
        // Suite-level events belong to the caller, never the scheduler.
        assert!(!base_lines.iter().any(|l| l.contains("suite_started")));
        assert!(!base_lines.iter().any(|l| l.contains("suite_finished")));
        // The multiset contract: identical events at any worker count,
        // whatever the interleaving.
        let mut base_sorted = base_lines.clone();
        base_sorted.sort();
        for workers in [2, 8] {
            let (results, lines) = collect(workers);
            assert_eq!(results, base_results, "workers={workers}");
            let mut sorted = lines;
            sorted.sort();
            assert_eq!(sorted, base_sorted, "workers={workers}");
        }
    }

    #[test]
    fn translated_same_dialect_pair_is_byte_identical_to_verbatim() {
        use crate::runner::TranslationMode;
        use squality_sqltext::TextDialect;
        // The satellite invariant: Translated on a same-dialect pair must
        // equal Verbatim exactly, across the scheduler at 1 and 4 workers.
        let files = suite(9);
        let indexed: Vec<(usize, &TestFile)> = files.iter().enumerate().collect();
        let factory = EngineConnectorFactory::new(EngineDialect::Duckdb, ClientKind::Cli);
        let verbatim = run_all(&Runner::default(), &factory, &files, 1);
        let translated = Runner::new(RunnerOptions {
            translation: TranslationMode::Translated {
                from: TextDialect::Duckdb,
                to: TextDialect::Duckdb,
            },
            ..RunnerOptions::default()
        });
        for workers in [1, 4] {
            let (records, _) =
                translated.run_files(&factory, &indexed, workers, |_| {}, |_, _| {}, None);
            let mut counts = TranslationCounts::default();
            let mut got = Vec::new();
            for record in records {
                counts.merge(&record.translation);
                got.push(record.result);
            }
            assert_eq!(got, verbatim, "workers={workers}");
            // Identity means no statement was rewritten at all.
            assert_eq!(counts.translated, 0);
            assert_eq!(counts.applied_total(), 0);
        }
    }
}

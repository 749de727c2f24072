//! The unified public entry point: a builder for suite × host runs.
//!
//! [`Harness`] is one builder — suite → host engine → client → faults →
//! translation → workers → plan cache, all defaulted — whose [`Run`]s
//! execute through one path for every backend: result-cache replay, the
//! parallel scheduler for everything else, and the typed [`RunEvent`]
//! stream to any number of [`RunObserver`] sinks.
//!
//! The determinism contract carries over unchanged: summaries and the
//! event multiset are byte-identical at every worker count (timing fields
//! aside); see [`squality_runner::events`].

use crate::cache::{CachedFileRun, CellSpec, FileKey, ResultCache};
use crate::stability::StabilityConfig;
use crate::transplant::{summarize, Provision, RunConfig, SuiteRunSummary};
use squality_backend::{
    discover_worker_bin, BackendFaultBreakdown, BackendSpec, SubprocessConnector,
    SubprocessConnectorFactory,
};
use squality_corpus::{donor_dialect, DonorEnvironment, GeneratedSuite};
use squality_engine::{
    execution_fingerprint, ClientKind, Coverage, EngineDialect, ExecStrategy, FaultProfile,
    PlanCache,
};
use squality_formats::{file_content_hash, SuiteKind, TestFile};
use squality_runner::{
    emit_suite_finished, replay_file_events, Connector, ConnectorFactory, ConnectorInfo,
    EngineConnector, EngineConnectorFactory, FanoutObserver, FileResult, NumericMode, RunEvent,
    RunObserver, Runner, RunnerOptions, TranslationCounts, TranslationMode,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a harness executes: a generated donor suite (with its recorded
/// environment) or a bare slice of parsed test files.
enum SuiteSource<'a> {
    Generated(&'a GeneratedSuite),
    Files { kind: SuiteKind, files: &'a [TestFile] },
}

impl SuiteSource<'_> {
    fn kind(&self) -> SuiteKind {
        match self {
            SuiteSource::Generated(gs) => gs.suite,
            SuiteSource::Files { kind, .. } => *kind,
        }
    }

    fn files(&self) -> &[TestFile] {
        match self {
            SuiteSource::Generated(gs) => &gs.files,
            SuiteSource::Files { files, .. } => files,
        }
    }
}

/// Why a [`HarnessBuilder`] could not produce a [`Harness`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HarnessError {
    /// No suite was given: call [`HarnessBuilder::suite`] or
    /// [`HarnessBuilder::files`] before [`HarnessBuilder::build`].
    MissingSuite,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::MissingSuite => {
                write!(f, "no suite configured: call .suite(..) or .files(..) before .build()")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

/// Builder for a [`Harness`]. Every knob is defaulted; only the suite is
/// required. See [`Harness::builder`] for a complete example.
pub struct HarnessBuilder<'a> {
    source: Option<SuiteSource<'a>>,
    environment: Option<&'a DonorEnvironment>,
    host: Option<EngineDialect>,
    client: ClientKind,
    provision: Option<Provision>,
    numeric: NumericMode,
    faults: FaultProfile,
    translate: bool,
    workers: usize,
    backend: BackendSpec,
    backend_env: Vec<(String, String)>,
    exec_strategy: ExecStrategy,
    plan_cache: Option<Arc<PlanCache>>,
    result_cache: Option<Arc<ResultCache>>,
    stability: Option<StabilityConfig>,
    observers: Vec<&'a dyn RunObserver>,
    label: Option<String>,
}

impl<'a> HarnessBuilder<'a> {
    fn new() -> HarnessBuilder<'a> {
        HarnessBuilder {
            source: None,
            environment: None,
            host: None,
            client: ClientKind::Connector,
            provision: None,
            numeric: NumericMode::Exact,
            faults: FaultProfile::default(),
            translate: false,
            workers: 1,
            backend: BackendSpec::InProcess,
            backend_env: Vec::new(),
            exec_strategy: ExecStrategy::default(),
            plan_cache: None,
            result_cache: None,
            stability: None,
            observers: Vec::new(),
            label: None,
        }
    }

    /// The donor suite to execute, with its recorded environment
    /// (provisioned per [`HarnessBuilder::provision`]).
    pub fn suite(mut self, suite: &'a GeneratedSuite) -> Self {
        self.source = Some(SuiteSource::Generated(suite));
        self
    }

    /// Execute bare parsed test files of donor format `kind` instead of a
    /// generated suite. There is no environment to provision, so the run
    /// behaves like [`Provision::Bare`].
    pub fn files(mut self, kind: SuiteKind, files: &'a [TestFile]) -> Self {
        self.source = Some(SuiteSource::Files { kind, files });
        self
    }

    /// Provision runs from this donor environment instead of the suite's
    /// own. This is what lets a [`HarnessBuilder::files`] run — a triage
    /// reduction probe, a minimized repro re-execution — replay under the
    /// exact environment its cell observed. A generated suite defaults to
    /// its recorded environment; bare files default to none.
    pub fn environment(mut self, env: &'a DonorEnvironment) -> Self {
        self.environment = Some(env);
        self
    }

    /// Host engine the suite runs on. Default: the suite's own donor
    /// engine.
    pub fn host(mut self, host: EngineDialect) -> Self {
        self.host = Some(host);
        self
    }

    /// Client the results are rendered through. Default:
    /// [`ClientKind::Connector`] (the paper's unified runner).
    pub fn client(mut self, client: ClientKind) -> Self {
        self.client = client;
        self
    }

    /// How much of the donor environment the host receives. Default:
    /// [`Provision::CrossHost`] for a generated suite, [`Provision::Bare`]
    /// for bare files.
    pub fn provision(mut self, provision: Provision) -> Self {
        self.provision = Some(provision);
        self
    }

    /// Numeric comparison mode. Default: [`NumericMode::Exact`].
    pub fn numeric(mut self, numeric: NumericMode) -> Self {
        self.numeric = numeric;
        self
    }

    /// Fault profile of the host engine. Default: the paper-version
    /// profile (every studied bug present).
    pub fn faults(mut self, faults: FaultProfile) -> Self {
        self.faults = faults;
        self
    }

    /// Adapt each statement from the donor dialect to the host dialect
    /// before execution (the translated arm). Default: off — donor text
    /// runs verbatim, the paper's methodology. A same-dialect pair is the
    /// identity either way.
    pub fn translate(mut self, translate: bool) -> Self {
        self.translate = translate;
        self
    }

    /// Worker connections to shard files over (`0` = all cores, clamped
    /// to the file count). Default: 1. Purely a throughput knob: results
    /// and events are byte-identical at every count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Where host engines run. Default: [`BackendSpec::InProcess`] — the
    /// engine as a library call, byte-identical to every prior release.
    /// [`BackendSpec::Subprocess`] puts each worker connection behind a
    /// `squality-backend-worker` child process with per-statement
    /// deadlines and bounded restart: an engine crash or hang becomes a
    /// classified failure instead of taking the harness down.
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Set an environment variable on every spawned backend worker
    /// process (no effect in-process). Entries set here override any
    /// forwarded variable of the same name from the harness's own
    /// environment — this is how the stability arm injects *seeded*
    /// `SQUALITY_CRASH_AFTER`/`SQUALITY_HANG_AFTER` schedules without
    /// mutating (thread-unsafe) process-global state.
    pub fn backend_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.backend_env.push((key.into(), value.into()));
        self
    }

    /// Execution strategy of the host engine (the stability arm's
    /// naive-vs-hash perturbation axis). Default: [`ExecStrategy::Hash`].
    /// Participates in the result-cache cell key, so strategies never
    /// share cached results.
    pub fn exec_strategy(mut self, strategy: ExecStrategy) -> Self {
        self.exec_strategy = strategy;
        self
    }

    /// Re-execute every failing record under the stability arm's
    /// perturbation matrix after the run, annotating each failure's
    /// [`FailureSignature`](squality_runner::FailureSignature) with a
    /// [`Stability`](squality_runner::Stability) verdict. Stability runs
    /// bypass the result cache: verdicts must come from live perturbed
    /// re-execution, never replayed entries. Default: off.
    pub fn stability(mut self, config: StabilityConfig) -> Self {
        self.stability = Some(config);
        self
    }

    /// Share a statement-plan cache across this run's connections (and,
    /// by passing the same `Arc`, across runs). Default: none.
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = Some(cache);
        self
    }

    /// Use a content-addressed result cache: files whose content and run
    /// configuration match a cached entry are **not executed** — their
    /// recorded results are replayed through the observer path instead,
    /// byte-identical to a live run. Share one cache `Arc` across runs
    /// (and across studies) for cross-run reuse. Default: off.
    pub fn result_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.result_cache = Some(cache);
        self
    }

    /// Register an event sink. May be called repeatedly; observers
    /// receive every [`RunEvent`] in registration order.
    pub fn observer(mut self, observer: &'a dyn RunObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Human-readable label carried in `SuiteStarted`/`SuiteFinished`
    /// events. Default: `"<donor>→<host>"`, with a ` (translated)`
    /// suffix when translation is on.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Resolve defaults and produce the [`Harness`].
    pub fn build(self) -> Result<Harness<'a>, HarnessError> {
        let source = self.source.ok_or(HarnessError::MissingSuite)?;
        let host = self.host.unwrap_or_else(|| donor_dialect(source.kind()));
        let provision = self.provision.unwrap_or(match source {
            SuiteSource::Generated(_) => Provision::CrossHost,
            SuiteSource::Files { .. } => Provision::Bare,
        });
        let label = self.label.unwrap_or_else(|| {
            format!(
                "{}→{}{}",
                source.kind().donor_name(),
                host.name(),
                if self.translate { " (translated)" } else { "" }
            )
        });
        Ok(Harness {
            source,
            environment: self.environment,
            host,
            client: self.client,
            provision,
            numeric: self.numeric,
            faults: self.faults,
            translate: self.translate,
            workers: self.workers,
            backend: self.backend,
            backend_env: self.backend_env,
            exec_strategy: self.exec_strategy,
            plan_cache: self.plan_cache,
            result_cache: self.result_cache,
            stability: self.stability,
            observers: self.observers,
            label,
        })
    }
}

/// A fully-configured suite × host execution. Build one with
/// [`Harness::builder`], then call [`Harness::run`] (scheduler-backed,
/// any worker count) or [`Harness::run_on`] (a caller-owned connection).
pub struct Harness<'a> {
    source: SuiteSource<'a>,
    environment: Option<&'a DonorEnvironment>,
    host: EngineDialect,
    client: ClientKind,
    provision: Provision,
    numeric: NumericMode,
    faults: FaultProfile,
    translate: bool,
    workers: usize,
    backend: BackendSpec,
    backend_env: Vec<(String, String)>,
    exec_strategy: ExecStrategy,
    plan_cache: Option<Arc<PlanCache>>,
    result_cache: Option<Arc<ResultCache>>,
    stability: Option<StabilityConfig>,
    observers: Vec<&'a dyn RunObserver>,
    label: String,
}

/// Everything one [`Harness::run`] produces: the aggregate summary plus
/// the retired worker connections (whose engines carry accumulated
/// coverage and other run-scoped state).
pub struct Run {
    /// Aggregate result of the run, in input order.
    pub summary: SuiteRunSummary,
    /// The retired worker connections — one per worker that claimed at
    /// least one file. A fully-cached run retires none.
    pub connectors: Vec<EngineConnector>,
    /// Coverage rehydrated from cache hits (empty unless a result cache
    /// replayed files). The union of this recorder with the retired
    /// connectors' coverage equals a cold run's connector coverage, so
    /// coverage experiments read both.
    pub replayed_coverage: Coverage,
    /// Backend fault counters (crashes, timeouts, restarts) when the run
    /// executed on [`BackendSpec::Subprocess`]; `None` in-process.
    pub backend_faults: Option<BackendFaultBreakdown>,
}

impl<'a> Harness<'a> {
    /// Start configuring a run. Everything except the suite is defaulted.
    ///
    /// ```
    /// use squality_core::Harness;
    /// use squality_corpus::generate_suite_scaled;
    /// use squality_engine::EngineDialect;
    /// use squality_formats::SuiteKind;
    /// use squality_runner::JsonlObserver;
    ///
    /// let suite = generate_suite_scaled(SuiteKind::Slt, 7, 0.02);
    /// let events = JsonlObserver::new();
    /// let run = Harness::builder()
    ///     .suite(&suite)
    ///     .host(EngineDialect::Duckdb)
    ///     .workers(2)
    ///     .observer(&events)
    ///     .build()
    ///     .expect("a suite was configured")
    ///     .run();
    /// assert_eq!(run.summary.host, EngineDialect::Duckdb);
    /// assert!(events.log().contains("\"event\":\"suite_finished\""));
    /// ```
    pub fn builder() -> HarnessBuilder<'a> {
        HarnessBuilder::new()
    }

    /// The resolved host engine.
    pub fn host(&self) -> EngineDialect {
        self.host
    }

    /// The run label used in suite events.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The run's host, client, provision, numeric mode and translation
    /// flag as a [`RunConfig`] value.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            host: self.host,
            client: self.client,
            provision: self.provision,
            numeric: self.numeric,
            translate: self.translate,
        }
    }

    fn translation_mode(&self) -> TranslationMode {
        if self.translate {
            TranslationMode::Translated {
                from: donor_dialect(self.source.kind()).text_dialect(),
                to: self.host.text_dialect(),
            }
        } else {
            TranslationMode::Verbatim
        }
    }

    /// The donor environment this run provisions from: an explicit
    /// [`HarnessBuilder::environment`] wins; a generated suite falls back
    /// to its recorded environment; bare files have none.
    fn resolved_environment(&self) -> Option<&DonorEnvironment> {
        match (&self.environment, &self.source) {
            (Some(env), _) => Some(env),
            (None, SuiteSource::Generated(gs)) => Some(&gs.environment),
            (None, SuiteSource::Files { .. }) => None,
        }
    }

    /// Apply the configured provision level to a freshly-reset connection.
    fn provision_conn(&self, conn: &mut EngineConnector) {
        let Some(env) = self.resolved_environment() else { return };
        match self.provision {
            Provision::Full => env.provision(conn),
            Provision::CrossHost => {
                for (path, lines) in &env.data_files {
                    conn.provide_file(path, lines.clone());
                }
                for sql in &env.setup_sql {
                    let _ = conn.execute(sql);
                }
            }
            Provision::Bare => {}
        }
    }

    fn runner(&self) -> Runner {
        Runner::new(RunnerOptions {
            numeric: self.numeric,
            fresh_database: false,
            translation: self.translation_mode(),
        })
    }

    fn factory(&self) -> EngineConnectorFactory {
        let mut factory = EngineConnectorFactory::with_faults(self.host, self.client, self.faults)
            .exec_strategy(self.exec_strategy);
        if let Some(cache) = &self.plan_cache {
            factory = factory.plan_cache(Arc::clone(cache));
        }
        factory
    }

    /// The content-addressed keys this run's files cache under. The cell
    /// half hashes every outcome-relevant knob of this harness; the file
    /// half hashes each file's canonical content.
    fn file_keys(&self) -> Vec<FileKey> {
        let fingerprint = execution_fingerprint(self.host, self.exec_strategy);
        let cell = CellSpec {
            suite: self.source.kind(),
            engine_fingerprint: &fingerprint,
            client: self.client,
            provision: self.provision,
            numeric: self.numeric,
            translation: self.translation_mode(),
            faults: self.faults,
            environment: self.resolved_environment(),
            backend: self.backend.tag(),
        }
        .cell_hash();
        self.source.files().iter().map(|f| FileKey { cell, file: file_content_hash(f) }).collect()
    }

    /// Execute through the parallel scheduler: the configured worker
    /// count, a fresh provisioned connection per file, results stitched
    /// in input order, events streamed to every registered observer.
    ///
    /// With a [`HarnessBuilder::result_cache`], files whose key matches a
    /// cached entry are replayed instead of executed; everything
    /// observable (summary, events, tables, coverage unions) is
    /// byte-identical either way. The cache is consulted only in-process
    /// and without a stability arm: subprocess runs exist to observe live
    /// process faults (and their coverage stays worker-side), and a warm
    /// cache must not replay stale stability verdicts.
    pub fn run(&self) -> Run {
        let mut run = match &self.backend {
            BackendSpec::Subprocess { bin, deadline, max_restarts } => {
                let bin = bin
                    .clone()
                    .or_else(discover_worker_bin)
                    // Last resort: let the OS search PATH at spawn time.
                    .unwrap_or_else(|| std::path::PathBuf::from("squality-backend-worker"));
                let mut factory = SubprocessConnectorFactory::new(bin, self.host, self.client)
                    .with_faults(self.faults)
                    .deadline(*deadline)
                    .max_restarts(*max_restarts);
                for (key, value) in std::env::vars() {
                    // Forward the fault-injection hooks so crash-containment
                    // tests (and CI fault legs) reach the workers.
                    if key == "SQUALITY_CRASH_AFTER" || key == "SQUALITY_HANG_AFTER" {
                        factory = factory.env(&key, &value);
                    }
                }
                // Explicit per-harness entries land after the forwarded
                // ones, so they win (Command::env is last-wins) — seeded
                // stability-arm schedules override whatever the parent
                // process carries.
                for (key, value) in &self.backend_env {
                    factory = factory.env(key, value);
                }
                let provision = |conn: &mut SubprocessConnector| self.provision_subprocess(conn);
                let (summary, _, _) = self.execute(&factory, provision, None);
                Run {
                    summary,
                    connectors: Vec::new(),
                    replayed_coverage: Coverage::new(),
                    backend_faults: Some(factory.stats().snapshot()),
                }
            }
            BackendSpec::InProcess => {
                let cache = self.result_cache.as_deref().filter(|_| self.stability.is_none());
                let capture: CoverageCapture<EngineConnector> = (
                    EngineConnector::begin_coverage_capture,
                    EngineConnector::end_coverage_capture,
                );
                let provision = |conn: &mut EngineConnector| self.provision_conn(conn);
                let (summary, connectors, replayed_coverage) =
                    self.execute(&self.factory(), provision, cache.map(|cache| (cache, capture)));
                Run { summary, connectors, replayed_coverage, backend_faults: None }
            }
        };
        if let Some(config) = &self.stability {
            crate::stability::annotate_summary(
                &self.probe_cell(),
                self.source.files(),
                &mut run.summary,
                config,
            );
        }
        run
    }

    /// The probe configuration the stability arm replicates this
    /// harness's failures under.
    fn probe_cell(&self) -> crate::stability::ProbeCell<'_> {
        crate::stability::ProbeCell {
            kind: self.source.kind(),
            host: self.host,
            client: self.client,
            provision: self.provision,
            translate: self.translate,
            faults: self.faults,
            env: self.resolved_environment(),
            label: self.label.clone(),
        }
    }

    /// Provision a subprocess connection the way [`Harness::provision_conn`]
    /// provisions an in-process one.
    fn provision_subprocess(&self, conn: &mut SubprocessConnector) {
        let Some(env) = self.resolved_environment() else { return };
        if matches!(self.provision, Provision::Bare) {
            return;
        }
        for (path, lines) in &env.data_files {
            conn.provide_file(path, lines.clone());
        }
        if matches!(self.provision, Provision::Full) {
            for ext in &env.extensions {
                conn.provide_extension(ext);
            }
        }
        for sql in &env.setup_sql {
            let _ = conn.execute(sql);
        }
    }

    /// The one execution path, for any connector factory: replay the
    /// cache hits, run the remaining files through the scheduler (each
    /// on a fresh connection `provision`ed first), store what ran, and
    /// stitch everything back in input order between the suite events.
    ///
    /// With a cache, each file that runs is bracketed by the `capture`
    /// pair so its coverage is recorded alongside its result. Suite-level
    /// events are always emitted live — only per-file event blocks replay
    /// — and the [`JsonlObserver`](squality_runner::JsonlObserver) orders
    /// blocks by input index, so the log is byte-identical whatever mix
    /// of hits and misses occurred. Summary translation counters are
    /// summed from per-file deltas, which equals a shared-counter total
    /// because counters record per execution.
    fn execute<F: ConnectorFactory>(
        &self,
        factory: &F,
        provision: impl Fn(&mut F::Conn) + Sync,
        cache: Option<(&ResultCache, CoverageCapture<F::Conn>)>,
    ) -> (SuiteRunSummary, Vec<F::Conn>, Coverage) {
        let files = self.source.files();
        let fanout = FanoutObserver(&self.observers);
        let observer = (!self.observers.is_empty()).then_some(&fanout as &dyn RunObserver);
        let started = self.open_suite(observer, || factory.info());

        let keys = if cache.is_some() { self.file_keys() } else { Vec::new() };
        let hits: Vec<Option<CachedFileRun>> = match cache {
            Some((store, _)) => keys.iter().map(|key| store.lookup(key)).collect(),
            None => files.iter().map(|_| None).collect(),
        };
        let stale: Vec<(usize, &TestFile)> =
            files.iter().enumerate().filter(|(i, _)| hits[*i].is_none()).collect();
        if let Some(observer) = observer {
            for (i, hit) in hits.iter().enumerate() {
                if let Some(hit) = hit {
                    replay_file_events(observer, i, &hit.result);
                }
            }
        }

        // Open the per-file coverage window before provisioning so
        // provision hits are captured too — a run without the cache
        // accumulates them on its connectors the same way.
        let captured: Mutex<BTreeMap<usize, Coverage>> = Mutex::new(BTreeMap::new());
        let (records, connectors) = self.runner().run_files(
            factory,
            &stale,
            self.workers,
            |conn| {
                if let Some((_, (begin, _))) = cache {
                    begin(conn);
                }
                provision(conn);
            },
            |conn, index| {
                if let Some((_, (_, end))) = cache {
                    let window = end(conn);
                    captured.lock().expect("coverage capture poisoned").insert(index, window);
                }
            },
            observer,
        );
        let mut captured = captured.into_inner().expect("coverage capture poisoned");

        let mut records = records.into_iter();
        let mut results = Vec::with_capacity(files.len());
        let mut translation = TranslationCounts::default();
        let mut replayed_coverage = Coverage::new();
        for hit in hits {
            let run = match hit {
                Some(hit) => {
                    replayed_coverage.union_with(&hit.coverage);
                    hit
                }
                None => {
                    let record = records.next().expect("scheduler ran every stale file");
                    let coverage = captured.remove(&record.index).unwrap_or_default();
                    let run = CachedFileRun {
                        result: record.result,
                        translation: record.translation,
                        coverage,
                    };
                    if let Some((store, _)) = cache {
                        store.store(&keys[record.index], &run);
                    }
                    run
                }
            };
            translation.merge(&run.translation);
            results.push(run.result);
        }
        (self.close_suite(observer, started, &results, translation), connectors, replayed_coverage)
    }

    /// Open a suite: `SuiteStarted` (with the connection metadata `info`
    /// reports) to the observer, and the clock `close_suite` reads.
    fn open_suite(
        &self,
        observer: Option<&dyn RunObserver>,
        info: impl FnOnce() -> ConnectorInfo,
    ) -> Instant {
        let started = Instant::now();
        if let Some(observer) = observer {
            let info = info();
            observer.on_event(&RunEvent::SuiteStarted {
                label: &self.label,
                files: self.source.files().len(),
                connector: &info,
            });
        }
        started
    }

    /// Close a suite: `SuiteFinished` to the observer, then the summary
    /// of `results` carrying `translation`.
    fn close_suite(
        &self,
        observer: Option<&dyn RunObserver>,
        started: Instant,
        results: &[FileResult],
        translation: TranslationCounts,
    ) -> SuiteRunSummary {
        if let Some(observer) = observer {
            let elapsed = started.elapsed().as_nanos() as u64;
            emit_suite_finished(observer, &self.label, results, elapsed);
        }
        let mut summary = summarize(self.source.kind(), self.host, results);
        summary.translation = translation;
        summary
    }

    /// Execute sequentially on one existing, caller-owned connection —
    /// for callers that accumulate engine state (coverage, extensions)
    /// across several suites on a single connection. Emits the same event
    /// stream as a 1-worker [`Harness::run`].
    pub fn run_on(&self, conn: &mut EngineConnector) -> SuiteRunSummary {
        let runner = self.runner();
        let fanout = FanoutObserver(&self.observers);
        let observer = (!self.observers.is_empty()).then_some(&fanout as &dyn RunObserver);
        let started = self.open_suite(observer, || conn.info());
        let mut results = Vec::with_capacity(self.source.files().len());
        for (i, file) in self.source.files().iter().enumerate() {
            // Fresh database per file, then provision per the config.
            conn.reset();
            self.provision_conn(conn);
            results.push(match observer {
                Some(observer) => runner.run_file_observed(conn, file, i, observer),
                None => runner.run_file(conn, file),
            });
        }
        self.close_suite(observer, started, &results, runner.translation_stats.counts())
    }
}

/// The coverage capture window a cached run brackets each executed file
/// with: open on the freshly-reset connection, close after the file.
type CoverageCapture<C> = (fn(&mut C), fn(&mut C) -> Coverage);

#[cfg(test)]
mod tests {
    use super::*;
    use squality_corpus::generate_suite_scaled;
    use squality_runner::JsonlObserver;

    #[test]
    fn builder_requires_a_suite() {
        let err = Harness::builder().build().err().expect("suite missing must error");
        assert_eq!(err, HarnessError::MissingSuite);
        assert!(err.to_string().contains("suite"));
    }

    #[test]
    fn defaults_are_the_unified_runner_on_the_donor() {
        let gs = generate_suite_scaled(SuiteKind::PgRegress, 3, 0.05);
        let h = Harness::builder().suite(&gs).build().unwrap();
        assert_eq!(h.host(), EngineDialect::Postgres);
        assert_eq!(h.label(), "PostgreSQL→PostgreSQL");
        let cfg = h.run_config();
        assert_eq!(cfg.client, ClientKind::Connector);
        assert_eq!(cfg.provision, Provision::CrossHost);
        assert!(!cfg.translate);
    }

    #[test]
    fn run_matches_any_worker_count_and_run_on() {
        let gs = generate_suite_scaled(SuiteKind::Duckdb, 5, 0.06);
        let build = |workers: usize| {
            Harness::builder()
                .suite(&gs)
                .host(EngineDialect::Sqlite)
                .workers(workers)
                .build()
                .unwrap()
        };
        let base = build(1).run().summary;
        for workers in [2, 4] {
            let got = build(workers).run().summary;
            assert_eq!(got.passed, base.passed, "workers={workers}");
            assert_eq!(got.failed, base.failed, "workers={workers}");
            assert_eq!(got.failures, base.failures, "workers={workers}");
            assert_eq!(got.skip_reasons, base.skip_reasons, "workers={workers}");
        }
        let mut conn = EngineConnector::new(EngineDialect::Sqlite, ClientKind::Connector);
        let seq = build(1).run_on(&mut conn);
        assert_eq!(seq.passed, base.passed);
        assert_eq!(seq.failures, base.failures);
    }

    #[test]
    fn files_source_runs_bare() {
        use squality_formats::{parse_slt, SltFlavor};
        let files = vec![parse_slt("probe.test", "statement ok\nSELECT 1\n", SltFlavor::Classic)];
        let events = JsonlObserver::new();
        let run = Harness::builder()
            .files(SuiteKind::Slt, &files)
            .host(EngineDialect::Mysql)
            .label("probe")
            .observer(&events)
            .build()
            .unwrap()
            .run();
        assert_eq!(run.summary.passed, 1);
        let log = events.log();
        assert!(log.contains("\"label\":\"probe\""), "{log}");
        assert!(log.contains("\"engine\":\"mysql\""), "{log}");
        assert!(log.contains("\"outcome\":\"pass\""), "{log}");
    }

    #[test]
    fn suite_events_bracket_every_run_path() {
        let gs = generate_suite_scaled(SuiteKind::Slt, 9, 0.04);
        let dir =
            std::env::temp_dir().join(format!("squality-harness-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::shared(&dir);
        let log = |workers: usize, cache: Option<&Arc<ResultCache>>| {
            let events = JsonlObserver::new();
            let mut builder = Harness::builder()
                .suite(&gs)
                .host(EngineDialect::Postgres)
                .workers(workers)
                .label("bracketed")
                .observer(&events);
            if let Some(cache) = cache {
                builder = builder.result_cache(Arc::clone(cache));
            }
            let run = builder.build().unwrap().run();
            (run.summary, events.log())
        };
        let (summary, base) = log(1, None);
        let lines: Vec<&str> = base.lines().collect();
        // Exactly one SuiteStarted first and one SuiteFinished last, with
        // one per-file block for every file in between.
        assert!(lines[0].contains("\"event\":\"suite_started\""), "{}", lines[0]);
        assert!(lines[0].contains("\"label\":\"bracketed\""), "{}", lines[0]);
        let last = lines.last().unwrap();
        assert!(last.contains("\"event\":\"suite_finished\""), "{last}");
        assert!(last.contains(&format!("\"passed\":{}", summary.passed)), "{last}");
        assert_eq!(base.matches("\"event\":\"suite_started\"").count(), 1);
        assert_eq!(base.matches("\"event\":\"suite_finished\"").count(), 1);
        assert_eq!(base.matches("\"event\":\"file_started\"").count(), gs.files.len());
        // Uncached, cold cache and warm cache emit the same log at any
        // worker count.
        for workers in [1, 2, 8] {
            assert_eq!(log(workers, None).1, base, "uncached, workers={workers}");
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(log(workers, Some(&cache)).1, base, "cold cache, workers={workers}");
            assert_eq!(log(workers, Some(&cache)).1, base, "warm cache, workers={workers}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreachable_backend_is_a_crashed_suite_not_a_panic() {
        let gs = generate_suite_scaled(SuiteKind::Slt, 9, 0.04);
        let events = JsonlObserver::new();
        let bin = std::path::PathBuf::from("/nonexistent/squality-backend-worker");
        let run = Harness::builder()
            .suite(&gs)
            .backend(BackendSpec::Subprocess {
                bin: Some(bin),
                deadline: std::time::Duration::from_secs(1),
                max_restarts: 0,
            })
            .workers(2)
            .observer(&events)
            .build()
            .unwrap()
            .run();
        let n = gs.files.len();
        assert_eq!(run.summary.crashes.len(), n, "every file is one connect-failure crash");
        let log = events.log();
        assert_eq!(log.matches("\"event\":\"file_finished\"").count(), n);
        let last = log.lines().last().unwrap();
        assert!(last.contains(&format!("\"crashes\":{n}")), "{last}");
    }

    #[test]
    fn translated_harness_counts_rules() {
        let gs = generate_suite_scaled(SuiteKind::PgRegress, 5, 0.08);
        let verbatim =
            Harness::builder().suite(&gs).host(EngineDialect::Sqlite).build().unwrap().run();
        let translated = Harness::builder()
            .suite(&gs)
            .host(EngineDialect::Sqlite)
            .translate(true)
            .build()
            .unwrap()
            .run();
        assert!(translated.summary.syntax_failures() < verbatim.summary.syntax_failures());
        assert!(translated.summary.translation.applied_total() > 0);
    }
}

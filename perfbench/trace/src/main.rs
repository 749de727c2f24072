//! Traced in-process re-drive of one perfbench workload.
//!
//! ```text
//! perfbench-trace --workload NAME --seed N --scale F --seconds S
//!                 --workdir DIR --spans-out PATH
//! ```
//!
//! Every flag is required. Studies, triage and replay run with one worker,
//! as the timed CLI runs do.
//!
//! Each iteration repeats the workload's CLI call sequence through the
//! library's public functions, with spans recorded around every call into
//! a layer. The study runs through `run_study_cached` with an observer that
//! stamps cell boundaries; a second pass re-drives every cell file by file
//! through `Runner::run_file` behind a timing connector, which splits
//! engine time from runner time; on `study` a third pass re-drives the
//! non-coverage cells through the subprocess backend, which gives the
//! backend's time and its transport share. The program's parse count is
//! its plan cache's misses; the cost of one parse is measured by replaying
//! the distinct statement texts the engine saw. Translation costs are
//! measured by replaying each translated cell's distinct donor statements.
//!
//! Iterations repeat until `--seconds` is spent and at least 1000 file
//! samples are pooled (so `runner.file_ms.p99` has ten samples beyond
//! it), at most five times. The last stdout line is a JSON object with
//! the per-iteration metrics; the rendered output (report text, or the
//! verified repro sets) is written under `--workdir` for the caller to
//! check against its reference, and every span goes to `--spans-out`.

mod redrive;
mod spans;

use redrive::{redrive_cell, study_cells, Arm, CellPlan, Via};
use spans::{count, total_s, unattributed_ratio, Span, Tracer};
use squality_analysis::{
    command_usage, compliance, loc_stats, predicate_distribution, statement_distribution,
};
use squality_core::triage::{cluster_failures, triage_study_with_observers, TriageConfig};
use squality_core::{
    full_report, replay_store_with_observers, run_study_cached, triage_table, BackendSpec,
    BugStore, CellSpec, FileKey, ReplayConfig, ResultCache, Study, StudyConfig,
};
use squality_corpus::GeneratedSuite;
use squality_engine::{
    execution_fingerprint, EngineDialect, ExecStrategy, FaultProfile, PlanCache,
};
use squality_formats::{file_content_hash, RecordKind, SuiteKind};
use squality_runner::{NumericMode, RunEvent, RunObserver, TranslationMode, TranslationStats};
use squality_sqlast::{parse_statement, translate_sql};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

const MIN_FILE_SAMPLES: usize = 1000;
const MAX_ITERATIONS: usize = 5;
const WORKERS: usize = 1;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Study,
    TriageCached,
    Rq1Tables,
}

struct Ctx {
    workload: Workload,
    seed: u64,
    scale: f64,
    seconds: f64,
    workdir: PathBuf,
    spans_out: PathBuf,
}

impl Ctx {
    fn config(&self, translated_arm: bool) -> StudyConfig {
        StudyConfig::default()
            .with_seed(self.seed)
            .with_scale(self.scale)
            .with_workers(WORKERS)
            .with_translated_arm(translated_arm)
    }
}

/// What one iteration produced: its spans, metrics, the durations of its
/// re-driven files, and the output the CLI would have written.
struct Iteration {
    spans: Vec<Span>,
    metrics: BTreeMap<&'static str, f64>,
    file_ms: Vec<f64>,
    output: Output,
}

#[derive(PartialEq)]
enum Output {
    /// The CLI's stdout for a report workload.
    Text(String),
    /// Verified repro sets (name, text) of the cold and warm triage runs.
    Repros { cold: Vec<(String, String)>, warm: Vec<(String, String)> },
}

fn main() {
    let ctx = parse_args();
    let _ = std::fs::create_dir_all(&ctx.workdir);
    let started = Instant::now();
    let mut iterations: Vec<Iteration> = Vec::new();
    loop {
        let it = run_iteration(&ctx, iterations.len());
        iterations.push(it);
        let wall = iterations.last().map_or(0.0, |it| it.metrics["trace.wall_s"]);
        let pooled: usize = iterations.iter().map(|it| it.file_ms.len()).sum();
        let time_left = started.elapsed().as_secs_f64() + wall <= ctx.seconds;
        let need_files = pooled > 0 && pooled < MIN_FILE_SAMPLES;
        if iterations.len() >= MAX_ITERATIONS || !(time_left || need_files) {
            break;
        }
    }

    let differing = iterations.iter().filter(|it| it.output != iterations[0].output).count();
    write_output(&ctx.workdir, &iterations[0].output);
    let body: Vec<String> =
        iterations.iter().enumerate().map(|(i, it)| spans::to_json(&it.spans, i)).collect();
    if let Some(dir) = ctx.spans_out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&ctx.spans_out, format!("[\n{}\n]\n", body.join(",\n"))) {
        fail(&format!("cannot write {}: {e}", ctx.spans_out.display()));
    }

    let metrics: Vec<String> = iterations
        .iter()
        .map(|it| {
            let fields: Vec<String> =
                it.metrics.iter().map(|(k, v)| format!("\"{k}\": {}", json_num(*v))).collect();
            format!("{{{}}}", fields.join(", "))
        })
        .collect();
    let file_ms: Vec<String> =
        iterations.iter().flat_map(|it| it.file_ms.iter().map(|v| json_num(*v))).collect();
    println!(
        "{{\"iterations\": [{}], \"file_ms\": [{}], \"outputs_differing\": {differing}}}",
        metrics.join(", "),
        file_ms.join(", ")
    );
}

fn run_iteration(ctx: &Ctx, index: usize) -> Iteration {
    let tracer = Tracer::new();
    let (measured, output) = match ctx.workload {
        Workload::TriageCached => drive_triage(ctx, &tracer, index),
        _ => drive_study(ctx, &tracer),
    };
    let spans = tracer.into_spans();
    let root = spans.iter().find(|s| s.name == "trace.iteration").expect("root span").id;
    let mut metrics = empty_metrics();
    metrics.extend(measured);
    for (name, metric) in [
        ("corpus.generate", "corpus.generate_s"),
        ("analysis.census", "analysis.census_s"),
        ("sqlast.translate", "sqlast.translate_s"),
        ("study.donor", "study.donor_s"),
        ("study.matrix", "study.matrix_s"),
        ("study.translated", "study.translated_s"),
        ("study.coverage", "study.coverage_s"),
        ("cache.lookup", "cache.lookup_s"),
        ("cache.store", "cache.store_s"),
        ("triage.cluster", "triage.cluster_s"),
        ("bugstore.lookup", "bugstore.lookup_s"),
        ("bugstore.store", "bugstore.store_s"),
        ("replay", "replay.s"),
    ] {
        metrics.insert(metric, total_s(&spans, name));
    }
    // Every study call generates the corpus again; the corpus is one.
    let records =
        spans.iter().find(|s| s.name == "corpus.generate").map_or(0, |s| s.count("records"));
    metrics.insert("corpus.records", records as f64);
    metrics.insert("analysis.statements", count(&spans, "analysis.census", "statements") as f64);
    // The program parses once per plan-cache miss; the replay of the
    // distinct texts gives the cost of one parse.
    let parses = metrics["engine.plan_cache.misses"];
    let replayed = count(&spans, "sqlast.parse", "texts");
    if replayed > 0 {
        let per_parse = total_s(&spans, "sqlast.parse") / replayed as f64;
        metrics.insert("sqlast.parse_s", per_parse * parses);
    }
    metrics.insert("sqlast.parse_calls", parses);
    metrics.insert("sqlast.parse_errors", count(&spans, "sqlast.parse", "errors") as f64);
    metrics.insert(
        "report.render_s",
        total_s(&spans, "report.render") + total_s(&spans, "report.emit"),
    );
    // Triage clusters again inside `triage.run`; its reduction share is
    // the run minus the separately timed clustering.
    if count(&spans, "triage.run", "runs") > 0 {
        metrics.insert(
            "triage.reduce_s",
            (total_s(&spans, "triage.run") - total_s(&spans, "triage.cluster")).max(0.0),
        );
    }

    // The layer split: engine (or backend) time inside each re-driven
    // file, and the runner's own time around it.
    let mut file_ms = Vec::new();
    let (mut exec, mut render, mut runner_self, mut exec_study_cells) = (0u64, 0u64, 0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == "runner.file") {
        let (e, r, c) = (s.count("exec_ns"), s.count("render_ns"), s.count("collect_ns"));
        exec += e;
        render += r;
        runner_self += s.duration_ns().saturating_sub(e + r + c);
        file_ms.push(s.duration_ns() as f64 / 1e6);
        let coverage_cell = s.parent.is_some_and(|p| spans[p].count("coverage") > 0);
        if !coverage_cell {
            exec_study_cells += e;
        }
    }
    metrics.insert("engine.execute_s", exec as f64 / 1e9);
    metrics.insert("engine.render_s", render as f64 / 1e9);
    metrics.insert("engine.statements", count(&spans, "runner.file", "statements") as f64);
    metrics.insert("engine.errors", count(&spans, "runner.file", "errors") as f64);
    metrics.insert("runner.self_s", runner_self as f64 / 1e9);
    metrics.insert("runner.files", file_ms.len() as f64);
    metrics.insert("runner.records", count(&spans, "runner.file", "records") as f64);
    metrics.insert("runner.records_failed", count(&spans, "runner.file", "records_failed") as f64);
    let backend_ns: u64 = count(&spans, "backend.file", "exec_ns");
    if backend_ns > 0 {
        metrics.insert("backend.execute_s", backend_ns as f64 / 1e9);
        metrics.insert("backend.transport_s", (backend_ns as f64 - exec_study_cells as f64) / 1e9);
    }
    for (key, metric) in [
        ("spawns", "backend.spawns"),
        ("restarts", "backend.restarts"),
        ("faults", "backend.faults"),
    ] {
        metrics.insert(metric, count(&spans, "redrive.cell", key) as f64);
    }
    metrics.insert("trace.wall_s", spans[root].duration_ns() as f64 / 1e9);
    metrics.insert("trace.unattributed_ratio", unattributed_ratio(&spans, root));
    Iteration { spans, metrics, file_ms, output }
}

/// Every per-layer metric this binary reports, zero until measured.
fn empty_metrics() -> BTreeMap<&'static str, f64> {
    [
        "corpus.generate_s",
        "corpus.records",
        "analysis.census_s",
        "analysis.statements",
        "sqlast.parse_s",
        "sqlast.parse_calls",
        "sqlast.parse_errors",
        "sqlast.translate_s",
        "sqlast.translate_calls",
        "sqlast.rules_applied",
        "engine.plan_cache.hit_ratio",
        "engine.plan_cache.misses",
        "engine.execute_s",
        "engine.render_s",
        "engine.statements",
        "engine.errors",
        "runner.self_s",
        "runner.files",
        "runner.records",
        "runner.records_failed",
        "study.donor_s",
        "study.matrix_s",
        "study.translated_s",
        "study.coverage_s",
        "backend.execute_s",
        "backend.transport_s",
        "backend.spawns",
        "backend.restarts",
        "backend.faults",
        "cache.lookup_s",
        "cache.store_s",
        "cache.hits",
        "cache.misses",
        "cache.bytes",
        "triage.cluster_s",
        "triage.reduce_s",
        "triage.probes",
        "triage.eliminated_ratio",
        "triage.verified",
        "triage.unverified",
        "bugstore.lookup_s",
        "bugstore.store_s",
        "bugstore.hits",
        "bugstore.misses",
        "bugstore.bytes",
        "replay.s",
        "replay.statements",
        "replay.regressed",
        "report.render_s",
        "trace.wall_s",
        "trace.unattributed_ratio",
        "trace.cells_mismatched",
        "trace.replays_mismatched",
    ]
    .into_iter()
    .map(|k| (k, 0.0))
    .collect()
}

/// Stamps study cell boundaries as run events arrive: one span per cell,
/// named by its arm, plus the time of the first cell (corpus generation
/// ends there).
struct Stamp<'a> {
    tracer: &'a Tracer,
    parent: usize,
    plan: &'a [CellPlan],
    state: Mutex<StampState>,
}

#[derive(Default)]
struct StampState {
    next: usize,
    open: Option<usize>,
    first_cell_ns: Option<u64>,
    finished: Vec<redrive::CellCounts>,
}

impl RunObserver for Stamp<'_> {
    fn on_event(&self, event: &RunEvent<'_>) {
        match event {
            RunEvent::SuiteStarted { .. } => {
                let now = self.tracer.now_ns();
                let mut st = self.state.lock().expect("stamp state poisoned");
                st.first_cell_ns.get_or_insert(now);
                let name = self.plan.get(st.next).map_or("study.unplanned", |c| c.arm.span_name());
                st.open = Some(self.tracer.record(name, Some(self.parent), true, now, now, vec![]));
            }
            RunEvent::SuiteFinished { files, total, passed, skipped, .. } => {
                let now = self.tracer.now_ns();
                let mut st = self.state.lock().expect("stamp state poisoned");
                let counts = redrive::CellCounts {
                    total: *total as u64,
                    passed: *passed as u64,
                    skipped: *skipped as u64,
                };
                if let Some(id) = st.open.take() {
                    self.tracer.close_at(
                        id,
                        now,
                        vec![
                            ("files", *files as u64),
                            ("total", counts.total),
                            ("passed", counts.passed),
                            ("skipped", counts.skipped),
                        ],
                    );
                }
                st.finished.push(counts);
                st.next += 1;
            }
            _ => {}
        }
    }
}

/// Run the study the way the CLI does, under a `study` grouping span with
/// stamped cell spans and a `corpus.generate` span up to the first cell.
fn traced_study(
    tracer: &Tracer,
    root: usize,
    config: StudyConfig,
    plan: &[CellPlan],
    cache: Option<std::sync::Arc<ResultCache>>,
) -> (Study, StampState) {
    let span = tracer.open("study", Some(root), false);
    let stamp = Stamp { tracer, parent: span, plan, state: Mutex::new(StampState::default()) };
    let started = tracer.now_ns();
    let study = run_study_cached(config, &[&stamp], cache);
    let pc = study.parse_cache;
    tracer.close(span, vec![("plan_cache_hits", pc.hits), ("plan_cache_misses", pc.misses)]);
    let state = stamp.state.into_inner().expect("stamp state poisoned");
    let records: usize = study.suites.iter().map(GeneratedSuite::total_records).sum();
    let first = state.first_cell_ns.unwrap_or(started);
    tracer.record(
        "corpus.generate",
        Some(span),
        true,
        started,
        first,
        vec![("records", records as u64)],
    );
    (study, state)
}

/// The study-shaped workloads: `all` and the RQ1 sections, which today
/// run the verbatim study too.
fn drive_study(ctx: &Ctx, tracer: &Tracer) -> (Vec<(&'static str, f64)>, Output) {
    let rq1 = ctx.workload == Workload::Rq1Tables;
    let plan = study_cells(!rq1);
    let root = tracer.open("trace.iteration", None, false);
    let (study, stamped) = traced_study(tracer, root, ctx.config(!rq1), &plan, None);

    let text = tracer.layer("report.render", root, || {
        let text = if rq1 {
            use squality_core::report::*;
            [table1, table2, table3, figure1, figure2, figure3]
                .iter()
                .map(|section| format!("{}\n", section(&study)))
                .collect::<String>()
        } else {
            format!("{}\n", full_report(&study))
        };
        let bytes = text.len() as u64;
        (text, vec![("bytes", bytes)])
    });
    tracer.layer("analysis.census", root, || ((), census(&study.suites)));

    // The layer split, cell by cell, checked against the study's own
    // per-cell outcome counts.
    let plan_cache = PlanCache::shared();
    let mut texts: HashSet<(EngineDialect, String)> = HashSet::new();
    let mut mismatched = stamped.finished.len().abs_diff(plan.len());
    let pass = tracer.open("redrive", Some(root), false);
    for (i, cell) in plan.iter().enumerate() {
        let counts = redrive_cell(
            tracer,
            pass,
            cell,
            study.suite(cell.suite),
            Via::InProcess,
            &plan_cache,
            &mut texts,
        );
        mismatched += usize::from(stamped.finished.get(i) != Some(&counts));
    }
    tracer.close(pass, vec![]);
    if ctx.workload == Workload::Study {
        let pass = tracer.open("redrive.backend", Some(root), false);
        for (i, cell) in plan.iter().enumerate().filter(|(_, c)| c.arm != Arm::Coverage) {
            let counts = redrive_cell(
                tracer,
                pass,
                cell,
                study.suite(cell.suite),
                Via::Subprocess,
                &plan_cache,
                &mut HashSet::new(),
            );
            mismatched += usize::from(stamped.finished.get(i) != Some(&counts));
        }
        tracer.close(pass, vec![]);
    }

    tracer.layer("sqlast.parse", root, || {
        let errors =
            texts.iter().filter(|(host, sql)| parse_statement(sql, host.text_dialect()).is_err());
        let errors = errors.count() as u64;
        ((), vec![("texts", texts.len() as u64), ("errors", errors)])
    });
    tracer.layer("sqlast.translate", root, || ((), translate_replay(&study, &plan)));
    tracer.close(root, vec![]);

    let tc = study.translation_counts();
    let metrics = vec![
        ("sqlast.translate_calls", (tc.translated + tc.passthrough) as f64),
        ("sqlast.rules_applied", tc.applied_total() as f64),
        ("engine.plan_cache.hit_ratio", study.parse_cache.hit_rate()),
        ("engine.plan_cache.misses", study.parse_cache.misses as f64),
        ("trace.cells_mismatched", mismatched as f64),
    ];
    (metrics, Output::Text(text))
}

/// The census the RQ1 sections are built from, called directly.
fn census(suites: &[GeneratedSuite]) -> Vec<(&'static str, u64)> {
    let mut statements = 0u64;
    for gs in suites {
        black_box(loc_stats(&gs.files));
        black_box(command_usage(&gs.files));
    }
    for gs in suites.iter().filter(|gs| gs.suite != SuiteKind::MysqlTest) {
        statements += statement_distribution(&gs.files).total as u64;
        black_box(compliance(&gs.files));
        black_box(predicate_distribution(&gs.files));
    }
    vec![("statements", statements)]
}

/// Translate every distinct donor statement of each translated cell once,
/// as the runner's per-cell translation memo does.
fn translate_replay(study: &Study, plan: &[CellPlan]) -> Vec<(&'static str, u64)> {
    let stats = TranslationStats::new();
    let mut calls = 0u64;
    for cell in plan.iter().filter(|c| c.translate) {
        let TranslationMode::Translated { from, to } = cell.translation() else { continue };
        let mut seen: HashSet<&str> = HashSet::new();
        for file in &study.suite(cell.suite).files {
            for record in &file.records {
                let (RecordKind::Statement { sql, .. } | RecordKind::Query { sql, .. }) =
                    &record.kind
                else {
                    continue;
                };
                if seen.insert(sql.as_str()) {
                    black_box(translate_sql(sql, from, to, &stats));
                    calls += 1;
                }
            }
        }
    }
    vec![("calls", calls), ("rules", stats.counts().applied_total())]
}

/// The result-cache keys of the cached study's cells, derived the way the
/// harness derives them.
fn cell_keys(study: &Study, plan: &[CellPlan]) -> Vec<FileKey> {
    let mut keys = Vec::new();
    for cell in plan {
        let gs = study.suite(cell.suite);
        let fingerprint = execution_fingerprint(cell.host, ExecStrategy::default());
        let hash = CellSpec {
            suite: cell.suite,
            engine_fingerprint: &fingerprint,
            client: cell.client,
            provision: cell.provision,
            numeric: NumericMode::Exact,
            translation: cell.translation(),
            faults: FaultProfile::default(),
            environment: Some(&gs.environment),
            backend: BackendSpec::InProcess.tag(),
        }
        .cell_hash();
        keys.extend(gs.files.iter().map(|f| FileKey { cell: hash, file: file_content_hash(f) }));
    }
    keys
}

/// The developer's iterate loop: triage against a cold bug store, the same
/// triage against the now-warm store, and a regression replay of the
/// store. Each triage reads its study from the result cache, as each CLI
/// invocation does. The cache fill is set-up and stays outside the
/// iteration span, as it stays outside the CLI's timed phase.
fn drive_triage(ctx: &Ctx, tracer: &Tracer, index: usize) -> (Vec<(&'static str, f64)>, Output) {
    let dir = |name: &str| ctx.workdir.join(format!("{name}-{index}"));
    let (cache_dir, store_dir) = (dir("trace-cache"), dir("trace-store"));
    let config = || ctx.config(false);
    let fill = tracer.open("cache.fill", None, false);
    run_study_cached(config(), &[], Some(ResultCache::shared(&cache_dir)));
    tracer.close(fill, vec![]);

    let plan = study_cells(false);
    let root = tracer.open("trace.iteration", None, false);
    // One `triage --reduce --store --cache-dir` invocation: cached study,
    // triage against the store, the table, and the verified repro set.
    let triage = |name: &'static str| {
        let cache = ResultCache::shared(&cache_dir);
        let (study, _) = traced_study(tracer, root, config(), &plan, Some(cache));
        let store = BugStore::shared(&store_dir);
        let config = TriageConfig::default()
            .with_reduce(true)
            .with_workers(WORKERS)
            .with_store(std::sync::Arc::clone(&store));
        let report = tracer.layer(name, root, || {
            (triage_study_with_observers(&study, &config, &[]), vec![("runs", 1)])
        });
        tracer.layer("report.render", root, || (black_box(triage_table(&report)), vec![]));
        let repros: Vec<(String, String)> = tracer.layer("report.emit", root, || {
            let mut set: Vec<_> = report
                .verified_repros()
                .map(|r| (r.repro_name.clone(), r.repro_text.clone()))
                .collect();
            set.sort();
            (set, vec![])
        });
        (study, report, store.stats(), repros)
    };

    let (study, cold, cold_store, cold_repros) = triage("triage.run");
    // A replay that finds other entries than the program did would time
    // the wrong work; each such replay is counted and fails the run.
    let mut replays_mismatched = 0u64;
    tracer.layer("triage.cluster", root, || {
        let (failures, clusters) = cluster_failures(&study);
        ((), vec![("failures", failures as u64), ("clusters", clusters.len() as u64)])
    });
    let probe = ResultCache::new(&cache_dir);
    let entries = tracer.layer("cache.lookup", root, || {
        let keys = cell_keys(&study, &plan);
        let found: Vec<_> =
            keys.iter().filter_map(|k| probe.lookup(k).map(|run| (*k, run))).collect();
        let hits = found.len() as u64;
        (found, vec![("lookups", keys.len() as u64), ("hits", hits)])
    });
    let rc = study.result_cache;
    replays_mismatched += u64::from(entries.is_empty() || entries.len() as u64 != rc.hits);
    let copy = ResultCache::new(dir("trace-cache-copy"));
    tracer.layer("cache.store", root, || {
        for (key, run) in &entries {
            copy.store(key, run);
        }
        ((), vec![("stores", entries.len() as u64)])
    });
    let stored: Vec<_> = tracer.layer("bugstore.lookup", root, || {
        let reader = BugStore::new(&store_dir);
        let keys = reader.entries();
        let found: Vec<_> = keys.iter().filter_map(|(key, _)| reader.lookup_key(*key)).collect();
        let n = found.len() as u64;
        (found, vec![("lookups", keys.len() as u64), ("hits", n)])
    });
    replays_mismatched += u64::from(stored.is_empty() || stored.len() as u64 != cold_store.stores);
    let store_copy = BugStore::new(dir("trace-store-copy"));
    tracer.layer("bugstore.store", root, || {
        for entry in &stored {
            store_copy.store(entry);
        }
        ((), vec![("stores", stored.len() as u64)])
    });

    let (rerun_study, _, warm_store, warm_repros) = triage("triage.rerun");
    let replay = tracer.layer("replay", root, || {
        let config = ReplayConfig::default().with_workers(WORKERS);
        let report = replay_store_with_observers(&BugStore::new(&store_dir), &config, &[]);
        let statements = report.total_statements as u64;
        (report, vec![("statements", statements)])
    });
    tracer.close(root, vec![]);

    let stats = cold.stats;
    let eliminated = if stats.records_before == 0 {
        0.0
    } else {
        stats.records_eliminated() as f64 / stats.records_before as f64
    };
    let rw = rerun_study.result_cache;
    let metrics = vec![
        ("engine.plan_cache.hit_ratio", study.parse_cache.hit_rate()),
        ("engine.plan_cache.misses", study.parse_cache.misses as f64),
        ("cache.hits", (rc.hits + rw.hits) as f64),
        ("cache.misses", (rc.misses + rw.misses) as f64),
        ("cache.bytes", ResultCache::new(&cache_dir).disk_usage().1 as f64),
        ("triage.probes", stats.probes as f64),
        ("triage.eliminated_ratio", eliminated),
        ("triage.verified", cold_repros.len() as f64),
        ("triage.unverified", (cold.reductions.len() - cold_repros.len()) as f64),
        ("bugstore.hits", (cold_store.hits + warm_store.hits) as f64),
        ("bugstore.misses", (cold_store.misses + warm_store.misses) as f64),
        ("bugstore.bytes", BugStore::new(&store_dir).disk_usage().1 as f64),
        ("replay.statements", replay.total_statements as f64),
        ("replay.regressed", replay.regressed() as f64),
        ("trace.replays_mismatched", replays_mismatched as f64),
    ];
    (metrics, Output::Repros { cold: cold_repros, warm: warm_repros })
}

/// Write what the CLI would have written: the report text, or the two
/// verified repro sets as directories of `.test` files.
fn write_output(workdir: &Path, output: &Output) {
    let result = match output {
        Output::Text(text) => std::fs::write(workdir.join("trace-output.txt"), text),
        Output::Repros { cold, warm } => write_repros(&workdir.join("trace-repros-cold"), cold)
            .and_then(|()| write_repros(&workdir.join("trace-repros-warm"), warm)),
    };
    if let Err(e) = result {
        fail(&format!("cannot write traced output under {}: {e}", workdir.display()));
    }
}

fn write_repros(dir: &Path, repros: &[(String, String)]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, text) in repros {
        std::fs::write(dir.join(name), text)?;
    }
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| fail(&format!("missing {flag}")))
    };
    let workload = match arg("--workload").as_str() {
        "study" => Workload::Study,
        "triage_cached" => Workload::TriageCached,
        "rq1_tables" => Workload::Rq1Tables,
        other => fail(&format!("unknown --workload {other:?}")),
    };
    Ctx {
        workload,
        seed: arg("--seed").parse().unwrap_or_else(|_| fail("bad --seed")),
        scale: arg("--scale").parse().unwrap_or_else(|_| fail("bad --scale")),
        seconds: arg("--seconds").parse().unwrap_or_else(|_| fail("bad --seconds")),
        workdir: PathBuf::from(arg("--workdir")),
        spans_out: PathBuf::from(arg("--spans-out")),
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-trace: {msg}");
    std::process::exit(2);
}

//! The layer split: re-drive a study's cells file by file through
//! `Runner::run_file`, with the connector wrapped in a timing shim, so the
//! time inside the engine (or the backend) separates from the runner's own.

use crate::spans::Tracer;
use squality_backend::{
    discover_worker_bin, BackendFaultBreakdown, SubprocessConnector, SubprocessConnectorFactory,
};
use squality_core::{Provision, EXECUTED_SUITES};
use squality_corpus::{donor_dialect, DonorEnvironment, GeneratedSuite};
use squality_engine::{ClientKind, EngineDialect, FaultProfile, PlanCache, QueryResult, Value};
use squality_formats::SuiteKind;
use squality_runner::{
    Connector, ConnectorError, ConnectorFactory, ConnectorInfo, EngineConnector, NumericMode,
    Runner, RunnerOptions, TranslationMode,
};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Which part of the study a cell belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    Donor,
    Matrix,
    Translated,
    Coverage,
}

impl Arm {
    pub fn span_name(self) -> &'static str {
        match self {
            Arm::Donor => "study.donor",
            Arm::Matrix => "study.matrix",
            Arm::Translated => "study.translated",
            Arm::Coverage => "study.coverage",
        }
    }
}

/// One suite × host cell, configured the way the study configures it.
#[derive(Debug, Clone, Copy)]
pub struct CellPlan {
    pub arm: Arm,
    pub suite: SuiteKind,
    pub host: EngineDialect,
    pub client: ClientKind,
    pub provision: Provision,
    pub translate: bool,
}

impl CellPlan {
    pub fn translation(&self) -> TranslationMode {
        if self.translate {
            TranslationMode::Translated {
                from: donor_dialect(self.suite).text_dialect(),
                to: self.host.text_dialect(),
            }
        } else {
            TranslationMode::Verbatim
        }
    }
}

/// The study's cells in the order it runs them: donor validation, the
/// verbatim matrix, the translated matrix (when enabled), then coverage.
pub fn study_cells(translated_arm: bool) -> Vec<CellPlan> {
    let mut cells = Vec::new();
    for suite in EXECUTED_SUITES {
        cells.push(CellPlan {
            arm: Arm::Donor,
            suite,
            host: donor_dialect(suite),
            client: ClientKind::Connector,
            provision: Provision::Bare,
            translate: false,
        });
    }
    let arms: &[(Arm, bool)] = if translated_arm {
        &[(Arm::Matrix, false), (Arm::Translated, true)]
    } else {
        &[(Arm::Matrix, false)]
    };
    for &(arm, translate) in arms {
        for suite in EXECUTED_SUITES {
            for host in EngineDialect::ALL {
                let is_donor = host == donor_dialect(suite);
                cells.push(CellPlan {
                    arm,
                    suite,
                    host,
                    client: if is_donor { ClientKind::Cli } else { ClientKind::Connector },
                    provision: if is_donor { Provision::Full } else { Provision::CrossHost },
                    translate,
                });
            }
        }
    }
    for engine in [EngineDialect::Sqlite, EngineDialect::Duckdb, EngineDialect::Postgres] {
        let own = EXECUTED_SUITES
            .into_iter()
            .find(|s| donor_dialect(*s) == engine)
            .expect("every coverage engine has its own suite");
        for suite in std::iter::once(own).chain(EXECUTED_SUITES) {
            cells.push(CellPlan {
                arm: Arm::Coverage,
                suite,
                host: engine,
                client: ClientKind::Connector,
                provision: if donor_dialect(suite) == engine {
                    Provision::Full
                } else {
                    Provision::CrossHost
                },
                translate: false,
            });
        }
    }
    cells
}

/// Counters the timing shim accumulates.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    exec_ns: u64,
    render_ns: u64,
    collect_ns: u64,
    statements: u64,
    errors: u64,
}

/// A connector wrapper that times `execute` and `render` and, optionally,
/// collects the distinct statement texts it sees (for the parse replay).
struct Timed<C> {
    inner: C,
    totals: Totals,
    render_ns: Cell<u64>,
    texts: Option<HashSet<String>>,
}

impl<C: Connector> Timed<C> {
    fn new(inner: C, collect: bool) -> Timed<C> {
        Timed {
            inner,
            totals: Totals::default(),
            render_ns: Cell::new(0),
            texts: collect.then(HashSet::new),
        }
    }

    fn snapshot(&self) -> Totals {
        Totals { render_ns: self.render_ns.get(), ..self.totals }
    }
}

impl<C: Connector> Connector for Timed<C> {
    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }

    fn info(&self) -> ConnectorInfo {
        self.inner.info()
    }

    fn execute(&mut self, sql: &str) -> Result<QueryResult, ConnectorError> {
        let started = Instant::now();
        let result = self.inner.execute(sql);
        let executed = Instant::now();
        self.totals.exec_ns += (executed - started).as_nanos() as u64;
        self.totals.statements += 1;
        if result.is_err() {
            self.totals.errors += 1;
        }
        if let Some(texts) = &mut self.texts {
            if !texts.contains(sql) {
                texts.insert(sql.to_string());
            }
            self.totals.collect_ns += executed.elapsed().as_nanos() as u64;
        }
        result
    }

    fn render(&self, v: &Value) -> String {
        let started = Instant::now();
        let text = self.inner.render(v);
        self.render_ns.set(self.render_ns.get() + started.elapsed().as_nanos() as u64);
        text
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn has_extension(&self, name: &str) -> bool {
        self.inner.has_extension(name)
    }
}

/// Provision an in-process connection the way the harness does.
fn provision_engine(conn: &mut EngineConnector, provision: Provision, env: &DonorEnvironment) {
    match provision {
        Provision::Full => env.provision(conn),
        Provision::CrossHost => {
            for (path, lines) in &env.data_files {
                conn.provide_file(path, lines.clone());
            }
            for sql in &env.setup_sql {
                let _ = Connector::execute(conn, sql);
            }
        }
        Provision::Bare => {}
    }
}

/// Provision a subprocess connection the way the harness does.
fn provision_subprocess(
    conn: &mut SubprocessConnector,
    provision: Provision,
    env: &DonorEnvironment,
) {
    if matches!(provision, Provision::Bare) {
        return;
    }
    for (path, lines) in &env.data_files {
        conn.provide_file(path, lines.clone());
    }
    if matches!(provision, Provision::Full) {
        for ext in &env.extensions {
            conn.provide_extension(ext);
        }
    }
    for sql in &env.setup_sql {
        let _ = Connector::execute(conn, sql);
    }
}

/// Per-cell record outcome counts, for the fidelity check against the
/// study's own cell summaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CellCounts {
    pub total: u64,
    pub passed: u64,
    pub skipped: u64,
}

/// Which connection a re-drive pass uses.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Via {
    InProcess,
    Subprocess,
}

/// Run every file of one cell through `Runner::run_file`, recording a
/// `runner.file` (in-process) or `backend.file` (subprocess) span per file
/// carrying the shim's counters. Returns the cell's outcome counts.
pub fn redrive_cell(
    tracer: &Tracer,
    parent: usize,
    cell: &CellPlan,
    gs: &GeneratedSuite,
    via: Via,
    plan_cache: &Arc<PlanCache>,
    texts: &mut HashSet<(EngineDialect, String)>,
) -> CellCounts {
    let runner = Runner::new(RunnerOptions {
        numeric: NumericMode::Exact,
        fresh_database: false,
        translation: cell.translation(),
    });
    let span = tracer.open("redrive.cell", Some(parent), false);
    let mut backend = BackendFaultBreakdown::default();
    let counts = match via {
        Via::InProcess => {
            let mut engine =
                EngineConnector::with_faults(cell.host, cell.client, FaultProfile::default());
            engine.set_plan_cache(Arc::clone(plan_cache));
            let mut conn = Timed::new(engine, true);
            let counts = run_files(tracer, span, "runner.file", &runner, &mut conn, gs, |c| {
                provision_engine(c, cell.provision, &gs.environment)
            });
            for text in conn.texts.take().unwrap_or_default() {
                texts.insert((cell.host, text));
            }
            counts
        }
        Via::Subprocess => {
            let bin = discover_worker_bin()
                .unwrap_or_else(|| std::path::PathBuf::from("squality-backend-worker"));
            let factory = SubprocessConnectorFactory::new(bin, cell.host, cell.client)
                .with_faults(FaultProfile::default());
            let counts = match factory.connect() {
                Ok(inner) => {
                    let mut conn = Timed::new(inner, false);
                    run_files(tracer, span, "backend.file", &runner, &mut conn, gs, |c| {
                        provision_subprocess(c, cell.provision, &gs.environment)
                    })
                }
                Err(e) => {
                    eprintln!("perfbench-trace: cannot start a backend worker: {e}");
                    CellCounts::default()
                }
            };
            backend = factory.stats().snapshot();
            counts
        }
    };
    tracer.close(
        span,
        vec![
            ("total", counts.total),
            ("passed", counts.passed),
            ("skipped", counts.skipped),
            ("coverage", u64::from(cell.arm == Arm::Coverage)),
            ("spawns", backend.spawns),
            ("restarts", backend.restarts),
            ("faults", backend.faults()),
        ],
    );
    counts
}

fn run_files<C: Connector>(
    tracer: &Tracer,
    parent: usize,
    file_span: &'static str,
    runner: &Runner,
    conn: &mut Timed<C>,
    gs: &GeneratedSuite,
    provision: impl Fn(&mut C),
) -> CellCounts {
    let mut counts = CellCounts::default();
    for file in &gs.files {
        let span = tracer.open(file_span, Some(parent), true);
        // Reset and provisioning are engine work: time them into exec_ns.
        let prepared = Instant::now();
        conn.inner.reset();
        provision(&mut conn.inner);
        let prepare_ns = prepared.elapsed().as_nanos() as u64;
        let before = conn.snapshot();
        let result = runner.run_file(conn, file);
        let after = conn.snapshot();
        let (total, passed, skipped) =
            (result.total() as u64, result.passed() as u64, result.skipped() as u64);
        counts.total += total;
        counts.passed += passed;
        counts.skipped += skipped;
        tracer.close(
            span,
            vec![
                ("exec_ns", after.exec_ns - before.exec_ns + prepare_ns),
                ("render_ns", after.render_ns - before.render_ns),
                ("collect_ns", after.collect_ns - before.collect_ns),
                ("statements", after.statements - before.statements),
                ("errors", after.errors - before.errors),
                ("records", total),
                ("records_failed", result.failed() as u64),
            ],
        );
    }
    counts
}

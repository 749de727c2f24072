//! Scaling benches for the parallel suite-execution pipeline:
//!
//! * suite × host matrix throughput at 1 / 2 / 4 / 8 workers (the
//!   acceptance target is ≥2× at 4 workers vs 1),
//! * cached vs uncached statement parsing on a loop-heavy SLT file, with
//!   the observed plan-cache hit rate printed alongside.

use criterion::{criterion_group, criterion_main, Criterion};
use squality_bench::study_at_scale_with_workers;
use squality_core::Harness;
use squality_corpus::generate_suite_scaled;
use squality_engine::{ClientKind, EngineDialect, PlanCache};
use squality_formats::{parse_slt, SltFlavor, SuiteKind};
use squality_runner::{EngineConnectorFactory, Runner};
use std::sync::Arc;

/// Large enough that per-cell sharding has work to chew on, small enough
/// that a full study fits a bench sample.
const MATRIX_SCALE: f64 = 0.05;

fn bench_matrix_workers(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_scale_matrix");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        g.bench_function(format!("full_study_{workers}_workers"), |b| {
            b.iter(|| study_at_scale_with_workers(MATRIX_SCALE, workers))
        });
    }
    g.finish();
}

fn bench_cell_workers(c: &mut Criterion) {
    // One hot cell (the largest suite on a cross host) isolates scheduler
    // scaling from corpus generation, which bench_matrix_workers includes.
    let suite = generate_suite_scaled(SuiteKind::Slt, 0x5C0A11, 0.2);
    let mut g = c.benchmark_group("parallel_scale_cell");
    g.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let harness = Harness::builder()
            .suite(&suite)
            .host(EngineDialect::Duckdb)
            .workers(workers)
            .build()
            .expect("suite set");
        g.bench_function(format!("slt_on_duckdb_{workers}_workers"), |b| b.iter(|| harness.run()));
    }
    g.finish();
}

/// A loop-heavy SLT file in the shape the paper's SLT corpus uses: most
/// statements replayed verbatim hundreds of times.
fn loop_heavy_file() -> squality_formats::TestFile {
    let slt = "\
statement ok
CREATE TABLE t(a INTEGER, b INTEGER)

loop i 0 200

statement ok
INSERT INTO t SELECT 1, 2 WHERE 1 = 1

query I nosort
SELECT count(*) > 0 FROM t
----
1

endloop
";
    parse_slt("loop_heavy.test", slt, SltFlavor::Duckdb)
}

fn bench_plan_cache(c: &mut Criterion) {
    let file = loop_heavy_file();
    let runner = Runner::default();
    let mut g = c.benchmark_group("plan_cache");
    g.sample_size(10);
    g.bench_function("loop_heavy_uncached", |b| {
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli);
        b.iter(|| runner.run_files(&factory, &[(0, &file)], 1, |_| {}, |_, _| {}, None));
    });
    g.bench_function("loop_heavy_cached", |b| {
        let cache = PlanCache::shared();
        let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli)
            .plan_cache(Arc::clone(&cache));
        b.iter(|| runner.run_files(&factory, &[(0, &file)], 1, |_| {}, |_, _| {}, None));
    });
    g.finish();

    // Report the hit rate a single cold pass over the file achieves.
    let cache = PlanCache::shared();
    let factory = EngineConnectorFactory::new(EngineDialect::Sqlite, ClientKind::Cli)
        .plan_cache(Arc::clone(&cache));
    runner.run_files(&factory, &[(0, &loop_heavy_file())], 1, |_| {}, |_, _| {}, None);
    let stats = cache.stats();
    println!(
        "plan_cache: loop-heavy SLT file: {} hits / {} misses ({:.1}% hit rate)",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
}

fn bench_study_cache_stats(c: &mut Criterion) {
    // Not a timing bench: surface the study-wide cache effectiveness once.
    let study = study_at_scale_with_workers(MATRIX_SCALE, 4);
    println!(
        "plan_cache: full study at scale {MATRIX_SCALE}: {} hits / {} misses ({:.1}% hit rate)",
        study.parse_cache.hits,
        study.parse_cache.misses,
        study.parse_cache.hit_rate() * 100.0
    );
    let _ = c;
}

criterion_group!(
    benches,
    bench_cell_workers,
    bench_plan_cache,
    bench_matrix_workers,
    bench_study_cache_stats
);
criterion_main!(benches);

//! One benchmark per table and figure: measures the cost of regenerating
//! each artifact from a prebuilt study, plus the cost of the full study
//! pipeline itself (corpus generation → execution matrix → classification).

use criterion::{criterion_group, criterion_main, Criterion};
use squality_bench::{study_at_scale, BENCH_SCALE};
use squality_core::report;

fn bench_tables(c: &mut Criterion) {
    let study = study_at_scale(BENCH_SCALE);
    let mut g = c.benchmark_group("tables");
    g.bench_function("table1_dbms_metadata", |b| b.iter(|| report::table1(&study)));
    g.bench_function("figure1_loc_distribution", |b| b.iter(|| report::figure1(&study)));
    g.bench_function("table2_runner_commands", |b| b.iter(|| report::table2(&study)));
    g.bench_function("figure2_statement_types", |b| b.iter(|| report::figure2(&study)));
    g.bench_function("table3_standard_compliance", |b| b.iter(|| report::table3(&study)));
    g.bench_function("figure3_where_tokens", |b| b.iter(|| report::figure3(&study)));
    g.bench_function("table4_donor_validation", |b| b.iter(|| report::table4(&study)));
    g.bench_function("table5_dependency_classes", |b| b.iter(|| report::table5(&study)));
    g.bench_function("figure4_success_heatmap", |b| b.iter(|| report::figure4(&study)));
    g.bench_function("table6_incompatibilities", |b| b.iter(|| report::table6(&study)));
    g.bench_function("table7_reuse_difficulty", |b| b.iter(|| report::table7(&study)));
    g.bench_function("table8_coverage", |b| b.iter(|| report::table8(&study)));
    g.bench_function("bug_report", |b| b.iter(|| report::bug_report(&study)));
    g.finish();
}

fn bench_study_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("study");
    g.sample_size(10);
    g.bench_function("full_study_scale_0.02", |b| {
        b.iter(|| {
            squality_core::run_study_cached(
                squality_core::StudyConfig::default()
                    .with_seed(7)
                    .with_scale(0.02)
                    .with_translated_arm(false),
                &[],
                None,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_tables, bench_study_pipeline);
criterion_main!(benches);

//! Time corpus generation through `generate_suite_scaled`.
//!
//! ```text
//! perfbench-gen --seeds N[,N...] --scale F
//! ```
//!
//! Both flags are required. For each seed, generates all four donor
//! corpora once and prints one JSON object: per seed, the wall time of the
//! generation in seconds plus the corpus's record and file counts.

use squality_corpus::{generate_suite_scaled, GeneratedSuite};
use squality_formats::SuiteKind;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| fail(&format!("missing {flag}")))
    };
    let seeds: Vec<u64> = arg("--seeds")
        .split(',')
        .map(|v| v.trim().parse().unwrap_or_else(|_| fail("bad --seeds")))
        .collect();
    let scale: f64 = arg("--scale").parse().unwrap_or_else(|_| fail("bad --scale"));

    let corpora: Vec<String> = seeds.iter().map(|seed| time_corpus(*seed, scale)).collect();
    println!("{{\"corpora\": [{}]}}", corpora.join(", "));
}

/// Generate one seed's corpus; its timing and shape as JSON.
fn time_corpus(seed: u64, scale: f64) -> String {
    let started = Instant::now();
    let suites: Vec<GeneratedSuite> = SuiteKind::ALL
        .iter()
        .map(|kind| generate_suite_scaled(*kind, black_box(seed), black_box(scale)))
        .collect();
    let time_s = started.elapsed().as_secs_f64();
    let records: usize = suites.iter().map(GeneratedSuite::total_records).sum();
    let files: usize = suites.iter().map(|s| s.files.len()).sum();
    black_box(suites);
    format!(
        "{{\"seed\": {seed}, \"records\": {records}, \"files\": {files}, \"time_s\": {time_s:.9}}}"
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench-gen: {msg}");
    std::process::exit(2);
}

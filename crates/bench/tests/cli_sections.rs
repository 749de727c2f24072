//! The `squality-tables` section plan, driven through the built binary:
//! corpus sections render from the generated corpora alone, and an
//! unknown section or flag is a usage error before any work.

use squality_core::generate_corpora;
use squality_core::report::{figure1, figure2, figure3, table1, table2, table3};
use std::path::PathBuf;
use std::process::{Command, Output};

const SCALE: f64 = 0.03;
const SEED: u64 = 7;

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_squality-tables"))
        .args(args)
        .output()
        .expect("squality-tables starts")
}

#[test]
fn corpus_sections_run_no_study_cells() {
    let events = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-sections/rq1-events.jsonl");
    let _ = std::fs::remove_file(&events);
    let out = tables(&[
        "table1",
        "figure1",
        "table2",
        "figure2",
        "table3",
        "figure3",
        "--scale",
        &SCALE.to_string(),
        "--seed",
        &SEED.to_string(),
        "--workers",
        "1",
        "--events",
        events.to_str().expect("utf-8 temp path"),
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // The CLI prints each section followed by a newline.
    let corpora = generate_corpora(SEED, SCALE);
    let expected: String = [table1, figure1, table2, figure2, table3, figure3]
        .iter()
        .map(|render| format!("{}\n", render(&corpora)))
        .collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);

    // The requested log exists, but no study cell ran to fill it.
    let log = std::fs::read_to_string(&events).expect("events log created");
    assert!(!log.contains(r#""event":"suite_started""#), "a study cell ran:\n{log}");
}

#[test]
fn unknown_section_or_flag_is_a_usage_error() {
    for (args, error) in [
        (["tabel1", "--scale", "0.03"], "unknown section: tabel1"),
        (["table1", "--scael", "0.03"], "unknown flag --scael"),
    ] {
        let out = tables(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
        assert!(String::from_utf8_lossy(&out.stderr).contains(error), "{args:?}");
    }
}

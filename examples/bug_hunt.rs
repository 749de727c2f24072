//! Cross-DBMS bug hunting (paper §6): execute each donor suite on every
//! other engine and report the crashes and hangs that surface.
//!
//! ```sh
//! cargo run --example bug_hunt
//! ```
//!
//! With the paper-version fault profiles this rediscoveres all six findings:
//! three crashes (DuckDB `ALTER SCHEMA`, DuckDB update-after-commit, MySQL
//! recursive-CTE / CVE-2024-20962) and three hangs (DuckDB recursive CTE,
//! SQLite `generate_series` overflow, MySQL join-order search).

use squality::core::{run_study_cached, StudyConfig};

fn main() {
    let scale = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(0.1);
    eprintln!("running the cross-DBMS execution matrix (scale {scale}, all cores)...");
    let config =
        StudyConfig::default().with_seed(0xB16B00).with_scale(scale).with_translated_arm(false);
    let study = run_study_cached(config, &[], None);

    let crashes: Vec<_> = study.bugs.iter().filter(|b| b.is_crash).collect();
    let hangs: Vec<_> = study.bugs.iter().filter(|b| !b.is_crash).collect();

    println!(
        "found {} crash signature(s) and {} hang signature(s) (paper: 3 + 3)\n",
        crashes.len(),
        hangs.len()
    );
    for bug in &study.bugs {
        println!(
            "[{}] {} crashed-by-suite={}",
            if bug.is_crash { "CRASH" } else { "HANG " },
            bug.host.name(),
            bug.donor_suite.donor_name(),
        );
        println!("    file: {}", bug.incident.file);
        if let Some(sql) = &bug.incident.sql {
            println!("    sql:  {sql}");
        }
        println!("    msg:  {}\n", bug.incident.message);
    }

    // The paper's §9 advice: "INTERNAL Error" messages are never expected
    // and indicate bugs — show the pattern-matching workflow.
    let internal =
        study.bugs.iter().filter(|b| b.incident.message.contains("INTERNAL Error")).count();
    println!("{internal} finding(s) match the \"INTERNAL Error\" bug pattern (paper §9).");
}

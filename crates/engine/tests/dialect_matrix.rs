//! Systematic divergence matrix: one test per paper-documented semantic
//! split, executed on all four simulators, asserting exactly which engines
//! agree. Complements `engine_behavior.rs` by pinning the *full* 4-way
//! outcome for each probe, not just the headline pair.

use squality_engine::{ClientKind, Engine, EngineDialect};

/// Run one SQL probe on all engines and render the first value (or the
/// error class) as a signature string.
fn signature(sql: &str) -> Vec<(EngineDialect, String)> {
    EngineDialect::ALL
        .iter()
        .map(|d| {
            let mut e = Engine::new(*d);
            let out = match e.execute(sql) {
                Ok(r) => match r.rows.first().and_then(|row| row.first()) {
                    Some(v) => squality_engine::render_value(v, *d, ClientKind::Cli),
                    None => "<empty>".to_string(),
                },
                Err(err) => format!("<{:?}>", err.kind),
            };
            (*d, out)
        })
        .collect()
}

fn outcome_of(sig: &[(EngineDialect, String)], d: EngineDialect) -> &str {
    &sig.iter().find(|(e, _)| *e == d).expect("dialect present").1
}

#[test]
fn division_matrix() {
    let sig = signature("SELECT 7 / 2");
    assert_eq!(outcome_of(&sig, EngineDialect::Sqlite), "3");
    assert_eq!(outcome_of(&sig, EngineDialect::Postgres), "3");
    assert_eq!(outcome_of(&sig, EngineDialect::Duckdb), "3.5");
    assert_eq!(outcome_of(&sig, EngineDialect::Mysql), "3.5");
}

#[test]
fn string_number_comparison_matrix() {
    // '10' = 10: SQLite compares storage classes (false); MySQL coerces
    // (true); PostgreSQL/DuckDB parse the literal (true).
    let sig = signature("SELECT '10' = 10");
    assert_eq!(outcome_of(&sig, EngineDialect::Sqlite), "0");
    assert_eq!(outcome_of(&sig, EngineDialect::Mysql), "1");
    assert_eq!(outcome_of(&sig, EngineDialect::Postgres), "t");
    assert_eq!(outcome_of(&sig, EngineDialect::Duckdb), "true");
}

#[test]
fn nonnumeric_string_comparison_matrix() {
    // 'abc' = 0: SQLite false (class), MySQL true ('abc' coerces to 0),
    // PostgreSQL/DuckDB conversion errors.
    let sig = signature("SELECT 'abc' = 0");
    assert_eq!(outcome_of(&sig, EngineDialect::Sqlite), "0");
    assert_eq!(outcome_of(&sig, EngineDialect::Mysql), "1");
    assert!(outcome_of(&sig, EngineDialect::Postgres).contains("Conversion"));
    assert!(outcome_of(&sig, EngineDialect::Duckdb).contains("Conversion"));
}

#[test]
fn mysql_text_collation_matrix() {
    // MySQL's default collation is case-insensitive; the rest compare bytes.
    let sig = signature("SELECT 'ABC' = 'abc'");
    assert_eq!(outcome_of(&sig, EngineDialect::Mysql), "1");
    assert_eq!(outcome_of(&sig, EngineDialect::Sqlite), "0");
    assert_eq!(outcome_of(&sig, EngineDialect::Postgres), "f");
    assert_eq!(outcome_of(&sig, EngineDialect::Duckdb), "false");
}

#[test]
fn modulo_by_zero_matrix() {
    let sig = signature("SELECT 5 % 0");
    assert_eq!(outcome_of(&sig, EngineDialect::Sqlite), "NULL");
    assert_eq!(outcome_of(&sig, EngineDialect::Mysql), "NULL");
    assert!(outcome_of(&sig, EngineDialect::Postgres).contains("Arithmetic"));
    assert!(outcome_of(&sig, EngineDialect::Duckdb).contains("Arithmetic"));
}

#[test]
fn integer_overflow_matrix() {
    let sig = signature("SELECT 9223372036854775807 + 1");
    for d in EngineDialect::ALL {
        assert!(outcome_of(&sig, d).contains("Arithmetic"), "{d}: {}", outcome_of(&sig, d));
    }
}

#[test]
fn min_int_modulo_minus_one_is_zero_everywhere() {
    // i64::MIN % -1 is the one remainder that overflows a machine
    // division; SQLite, PostgreSQL and MySQL special-case it to 0.
    for sql in [
        "SELECT -9223372036854775808 % -1",
        "SELECT mod(-9223372036854775808, -1)",
        "SELECT (-9223372036854775807 - 1) % -1",
    ] {
        let sig = signature(sql);
        for d in EngineDialect::ALL {
            assert_eq!(outcome_of(&sig, d), "0", "{d}: {sql}");
        }
    }
}

#[test]
fn min_int_divided_by_minus_one_matrix() {
    // Integer division overflows only for i64::MIN / -1. SQLite falls
    // back to a float quotient; PostgreSQL reports out of range; DuckDB
    // and MySQL divide in floating point anyway.
    let sig = signature("SELECT (-9223372036854775807 - 1) / -1");
    assert_eq!(outcome_of(&sig, EngineDialect::Sqlite), "9223372036854776000.0");
    assert_eq!(outcome_of(&sig, EngineDialect::Postgres), "<Arithmetic>");
    assert_eq!(outcome_of(&sig, EngineDialect::Duckdb), "9223372036854776000.0");
    assert_eq!(outcome_of(&sig, EngineDialect::Mysql), "9223372036854776000.0");
}

#[test]
fn boolean_literal_rendering_matrix() {
    let sig = signature("SELECT 1 = 1");
    assert_eq!(outcome_of(&sig, EngineDialect::Sqlite), "1");
    assert_eq!(outcome_of(&sig, EngineDialect::Mysql), "1");
    assert_eq!(outcome_of(&sig, EngineDialect::Postgres), "t");
    assert_eq!(outcome_of(&sig, EngineDialect::Duckdb), "true");
}

#[test]
fn concat_with_null_matrix() {
    let sig = signature("SELECT 'a' || NULL");
    // Concat engines: NULL-propagating. MySQL: logical OR, 'a' OR NULL →
    // 0 OR NULL → NULL as well — but via a different path.
    for d in EngineDialect::ALL {
        assert_eq!(outcome_of(&sig, d), "NULL", "{d}");
    }
}

#[test]
fn float_trailing_zero_rendering_matrix() {
    let sig = signature("SELECT 2.0 + 1");
    assert_eq!(outcome_of(&sig, EngineDialect::Postgres), "3");
    assert_eq!(outcome_of(&sig, EngineDialect::Sqlite), "3.0");
    assert_eq!(outcome_of(&sig, EngineDialect::Duckdb), "3.0");
    assert_eq!(outcome_of(&sig, EngineDialect::Mysql), "3.0");
}

#[test]
fn like_case_sensitivity_matrix() {
    let sig = signature("SELECT 'Paper' LIKE 'paper'");
    assert_eq!(outcome_of(&sig, EngineDialect::Sqlite), "1");
    assert_eq!(outcome_of(&sig, EngineDialect::Mysql), "1");
    assert_eq!(outcome_of(&sig, EngineDialect::Postgres), "f");
    assert_eq!(outcome_of(&sig, EngineDialect::Duckdb), "false");
}

#[test]
fn division_probe_full_listing4() {
    // The exact Listing 4 pair: DIV parses only on MySQL; `/` splits the
    // engines into integer vs decimal camps.
    let div = signature("SELECT ALL 62 DIV ( + - 2 )");
    assert_eq!(outcome_of(&div, EngineDialect::Mysql), "-31");
    for d in [EngineDialect::Sqlite, EngineDialect::Postgres, EngineDialect::Duckdb] {
        assert!(outcome_of(&div, d).contains("Syntax"), "{d}");
    }
    let slash = signature("SELECT ALL 62 / ( + - 2 )");
    assert_eq!(outcome_of(&slash, EngineDialect::Sqlite), "-31");
    assert_eq!(outcome_of(&slash, EngineDialect::Postgres), "-31");
    assert_eq!(outcome_of(&slash, EngineDialect::Duckdb), "-31.0");
    assert_eq!(outcome_of(&slash, EngineDialect::Mysql), "-31.0");
}

#[test]
fn unknown_config_matrix() {
    let sig = signature("SET definitely_not_a_parameter = 1");
    assert!(outcome_of(&sig, EngineDialect::Sqlite).contains("Syntax")); // no SET at all
    for d in [EngineDialect::Postgres, EngineDialect::Duckdb, EngineDialect::Mysql] {
        assert!(outcome_of(&sig, d).contains("UnknownConfig"), "{d}");
    }
}

#[test]
fn start_transaction_matrix() {
    // START TRANSACTION is standard; SQLite only accepts BEGIN (paper §4).
    let sig = signature("START TRANSACTION");
    assert!(outcome_of(&sig, EngineDialect::Sqlite).contains("Syntax"));
    for d in [EngineDialect::Postgres, EngineDialect::Duckdb, EngineDialect::Mysql] {
        assert_eq!(outcome_of(&sig, d), "<empty>", "{d}");
    }
}

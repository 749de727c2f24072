//! The unified intermediate representation.
//!
//! The paper converts all four suites into "an internal intermediate
//! representation" (§2, SQuaLity); this module is that IR. Every parser in
//! this crate produces [`TestFile`]s, and the unified runner consumes them,
//! so a DuckDB test can execute against the SQLite simulator without either
//! knowing the other's native format.

/// Which donor suite a test file came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// SQLite's sqllogictest (SLT).
    Slt,
    /// DuckDB's SLT-derived format.
    Duckdb,
    /// PostgreSQL regression tests (`.sql` + expected `.out`).
    PgRegress,
    /// MySQL test framework (`.test` + `.result`).
    MysqlTest,
}

impl SuiteKind {
    /// Donor DBMS display name (paper Table 1).
    pub fn donor_name(self) -> &'static str {
        match self {
            SuiteKind::Slt => "SQLite",
            SuiteKind::Duckdb => "DuckDB",
            SuiteKind::PgRegress => "PostgreSQL",
            SuiteKind::MysqlTest => "MySQL",
        }
    }

    /// All suites.
    pub const ALL: [SuiteKind; 4] =
        [SuiteKind::Slt, SuiteKind::Duckdb, SuiteKind::PgRegress, SuiteKind::MysqlTest];

    /// The canonical numeric tag. It feeds content hashes and on-disk
    /// entries, so a suite's tag never changes.
    pub fn tag(self) -> u8 {
        match self {
            SuiteKind::Slt => 0,
            SuiteKind::Duckdb => 1,
            SuiteKind::PgRegress => 2,
            SuiteKind::MysqlTest => 3,
        }
    }

    /// Invert [`SuiteKind::tag`].
    pub fn from_tag(tag: u8) -> Option<SuiteKind> {
        SuiteKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

/// A parsed test file.
#[derive(Debug, Clone, PartialEq)]
pub struct TestFile {
    pub name: String,
    pub suite: SuiteKind,
    pub records: Vec<TestRecord>,
}

impl TestFile {
    /// Assign synthetic, unique 1-based `line` numbers to every record in
    /// definition order (loop bodies included). Files parsed from text
    /// carry their true source lines; files built directly in IR (the
    /// generated corpora) default every record to line 0, which breaks
    /// anything that keys on the line — the event stream's [`RecordId`]s
    /// and, critically, record-level [`slice()`](crate::slice())-ing.
    pub fn assign_synthetic_lines(&mut self) {
        fn number(records: &mut [TestRecord], next: &mut usize) {
            for rec in records {
                rec.line = *next;
                *next += 1;
                if let RecordKind::Control(
                    ControlCommand::Loop { body, .. } | ControlCommand::Foreach { body, .. },
                ) = &mut rec.kind
                {
                    number(body, next);
                }
            }
        }
        let mut next = 1usize;
        number(&mut self.records, &mut next);
    }

    /// Count records of every kind, including those nested in loops.
    pub fn record_count(&self) -> usize {
        fn count(records: &[TestRecord]) -> usize {
            records
                .iter()
                .map(|r| match &r.kind {
                    RecordKind::Control(ControlCommand::Loop { body, .. })
                    | RecordKind::Control(ControlCommand::Foreach { body, .. }) => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.records)
    }
}

/// Stable identity of one executed record within a file.
///
/// The source `line` alone is ambiguous: loop bodies replay the same line
/// once per iteration. Pairing it with the execution `ordinal` (the
/// record's position in the file's deterministic execution order) yields an
/// id that is stable across runs, worker counts, and host engines — the
/// anchor the event stream and failure sampling use to point at a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// 1-based source line of the record.
    pub line: u32,
    /// 0-based position in the file's execution order (loop iterations
    /// expanded).
    pub ordinal: u32,
}

impl RecordId {
    /// Id for the `ordinal`-th executed record, which came from `line`.
    pub fn new(line: usize, ordinal: usize) -> RecordId {
        RecordId { line: line as u32, ordinal: ordinal as u32 }
    }
}

impl std::fmt::Display for RecordId {
    /// Rendered as `L<line>#<ordinal>`, e.g. `L42#7`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}#{}", self.line, self.ordinal)
    }
}

/// One record: a conditioned statement, query, or control command.
#[derive(Debug, Clone, PartialEq)]
pub struct TestRecord {
    /// `skipif`/`onlyif` conditions guarding this record.
    pub conditions: Vec<Condition>,
    pub kind: RecordKind,
    /// 1-based line in the source file.
    pub line: usize,
}

impl TestRecord {
    /// Unconditioned record.
    pub fn new(kind: RecordKind) -> TestRecord {
        TestRecord { conditions: Vec::new(), kind, line: 0 }
    }

    /// Should this record run on `engine_name` (lowercase, e.g. "duckdb")?
    pub fn applies_to(&self, engine_name: &str) -> bool {
        self.conditions.iter().all(|c| match c {
            Condition::SkipIf(db) => !db.eq_ignore_ascii_case(engine_name),
            Condition::OnlyIf(db) => db.eq_ignore_ascii_case(engine_name),
        })
    }
}

/// Record guard, as in paper Listing 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    SkipIf(String),
    OnlyIf(String),
}

/// The payload of a record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordKind {
    /// A statement with an expected status.
    Statement { sql: String, expect: StatementExpect },
    /// A query with an expected result.
    Query {
        sql: String,
        /// SLT type string, e.g. `III` / `TTR`.
        types: String,
        sort: SortMode,
        /// SLT label for cross-referencing equivalent queries.
        label: Option<String>,
        expected: QueryExpectation,
    },
    /// A non-SQL runner command.
    Control(ControlCommand),
}

/// Expected status of a statement record.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementExpect {
    /// `statement ok`
    Ok,
    /// `statement error`, optionally with an expected message substring.
    Error { message: Option<String> },
    /// MySQL-style expected affected-row count.
    Count(usize),
}

/// SLT result-comparison modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortMode {
    NoSort,
    RowSort,
    ValueSort,
}

impl SortMode {
    /// The keyword as written in SLT files.
    pub fn keyword(self) -> &'static str {
        match self {
            SortMode::NoSort => "nosort",
            SortMode::RowSort => "rowsort",
            SortMode::ValueSort => "valuesort",
        }
    }
}

/// Expected result of a query record.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryExpectation {
    /// Value-wise: one value per line (SLT; paper Listing 1).
    Values(Vec<String>),
    /// Row-wise: each line is a whitespace-joined row (DuckDB/MySQL;
    /// paper Listing 3).
    Rows(Vec<Vec<String>>),
    /// Hashed: `N values hashing to H` (SLT hash-threshold compression).
    Hash { count: usize, hash: String },
}

/// Non-SQL runner commands across all four formats (paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlCommand {
    /// Stop processing the file (SLT `halt`).
    Halt,
    /// SLT `hash-threshold N`.
    HashThreshold(usize),
    /// DuckDB `require <extension>`: skip the rest if not loaded.
    Require(String),
    /// Load data / a database file.
    Load(String),
    /// Set a runner variable.
    SetVar { name: String, value: String },
    /// Loop over an integer range (DuckDB `loop i 0 10`).
    Loop { var: String, start: i64, end: i64, body: Vec<TestRecord> },
    /// Loop over a value list (DuckDB `foreach`).
    Foreach { var: String, values: Vec<String>, body: Vec<TestRecord> },
    /// Switch the active connection (multi-connection tests).
    Connection(String),
    /// Sleep for N milliseconds (timing-dependent tests).
    Sleep(u64),
    /// Include another test file (MySQL `source`, psql `\i`).
    Include(String),
    /// Echo text into the result stream (MySQL `--echo`).
    Echo(String),
    /// A psql backslash meta-command, passed to the CLI (paper: 114
    /// commands, processed by the client, not the runner).
    CliCommand(String),
    /// Shell execution (MySQL `exec`) — never executed by this runner.
    ShellExec(String),
    /// DuckDB `mode skip` / `mode unskip`.
    Mode(String),
    /// Restart the database (DuckDB `restart`).
    Restart,
    /// Anything unrecognised, preserved verbatim for the census.
    Unknown(String),
}

impl ControlCommand {
    /// The command's census name (first word, lowercased).
    pub fn census_name(&self) -> String {
        match self {
            ControlCommand::Halt => "halt".into(),
            ControlCommand::HashThreshold(_) => "hash-threshold".into(),
            ControlCommand::Require(_) => "require".into(),
            ControlCommand::Load(_) => "load".into(),
            ControlCommand::SetVar { .. } => "set".into(),
            ControlCommand::Loop { .. } => "loop".into(),
            ControlCommand::Foreach { .. } => "foreach".into(),
            ControlCommand::Connection(_) => "connection".into(),
            ControlCommand::Sleep(_) => "sleep".into(),
            ControlCommand::Include(_) => "source".into(),
            ControlCommand::Echo(_) => "echo".into(),
            ControlCommand::CliCommand(c) => {
                c.split_whitespace().next().unwrap_or("\\").to_lowercase()
            }
            ControlCommand::ShellExec(_) => "exec".into(),
            ControlCommand::Mode(_) => "mode".into(),
            ControlCommand::Restart => "restart".into(),
            ControlCommand::Unknown(s) => s.split_whitespace().next().unwrap_or("?").to_lowercase(),
        }
    }
}

/// Stable FNV-1a-based result hash used for `hash-threshold` compression.
/// (The real SLT uses MD5; any stable hash works since this repo generates
/// and validates with the same function.)
pub fn result_hash(values: &[String]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        for b in v.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0x0a; // newline separator, like SLT's md5 over joined lines
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditions_gate_records() {
        let mut r = TestRecord::new(RecordKind::Control(ControlCommand::Halt));
        assert!(r.applies_to("sqlite"));
        r.conditions.push(Condition::SkipIf("mysql".into()));
        assert!(r.applies_to("sqlite"));
        assert!(!r.applies_to("mysql"));
        r.conditions.push(Condition::OnlyIf("sqlite".into()));
        assert!(r.applies_to("sqlite"));
        assert!(!r.applies_to("duckdb"));
    }

    #[test]
    fn record_count_descends_into_loops() {
        let inner = TestRecord::new(RecordKind::Statement {
            sql: "SELECT 1".into(),
            expect: StatementExpect::Ok,
        });
        let file = TestFile {
            name: "f".into(),
            suite: SuiteKind::Duckdb,
            records: vec![TestRecord::new(RecordKind::Control(ControlCommand::Loop {
                var: "i".into(),
                start: 0,
                end: 3,
                body: vec![inner],
            }))],
        };
        assert_eq!(file.record_count(), 2);
    }

    #[test]
    fn result_hash_is_stable_and_order_sensitive() {
        let a = result_hash(&["1".into(), "2".into()]);
        let b = result_hash(&["1".into(), "2".into()]);
        let c = result_hash(&["2".into(), "1".into()]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn census_names() {
        assert_eq!(ControlCommand::Halt.census_name(), "halt");
        assert_eq!(ControlCommand::CliCommand("\\d t1".into()).census_name(), "\\d");
        assert_eq!(ControlCommand::Unknown("weird_cmd arg".into()).census_name(), "weird_cmd");
    }

    #[test]
    fn suite_names() {
        assert_eq!(SuiteKind::Slt.donor_name(), "SQLite");
        assert_eq!(SuiteKind::PgRegress.donor_name(), "PostgreSQL");
    }
}

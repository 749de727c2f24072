//! Engine dialects: the semantic knobs that make the four simulators
//! disagree in exactly the ways the paper documents.

use squality_sqltext::TextDialect;

/// Which DBMS this engine simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineDialect {
    Sqlite,
    Postgres,
    Duckdb,
    Mysql,
}

impl EngineDialect {
    /// The matching lexical/grammar dialect for the parser.
    pub fn text_dialect(self) -> TextDialect {
        match self {
            EngineDialect::Sqlite => TextDialect::Sqlite,
            EngineDialect::Postgres => TextDialect::Postgres,
            EngineDialect::Duckdb => TextDialect::Duckdb,
            EngineDialect::Mysql => TextDialect::Mysql,
        }
    }

    /// Human name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            EngineDialect::Sqlite => "SQLite",
            EngineDialect::Postgres => "PostgreSQL",
            EngineDialect::Duckdb => "DuckDB",
            EngineDialect::Mysql => "MySQL",
        }
    }

    /// `/` on two integers: integer division (SQLite, PostgreSQL) or
    /// non-integer division (DuckDB decimal, MySQL float). The paper's
    /// single largest semantic divergence (104K failing SLT cases).
    pub fn integer_division(self) -> bool {
        matches!(self, EngineDialect::Sqlite | EngineDialect::Postgres)
    }

    /// `||`: string concatenation everywhere except MySQL, where the default
    /// SQL mode reads it as logical OR.
    pub fn pipes_are_concat(self) -> bool {
        self != EngineDialect::Mysql
    }

    /// Dynamic typing: any value may be stored in any column (SQLite's
    /// flexible typing, which the paper credits for SQLite's higher success
    /// rate on foreign suites).
    pub fn dynamic_typing(self) -> bool {
        self == EngineDialect::Sqlite
    }

    /// Must `VARCHAR` declare a maximum length? (MySQL; paper Table 6
    /// "Types" failures.)
    pub fn varchar_requires_length(self) -> bool {
        self == EngineDialect::Mysql
    }

    /// Are NULLs greatest in row-value comparisons? DuckDB orders NULL last
    /// and decides row comparisons totally, so `(NULL,0) > (0,0)` is true
    /// (paper Listing 17); the others return NULL.
    pub fn row_compare_total_order(self) -> bool {
        self == EngineDialect::Duckdb
    }

    /// Default NULL position in ASC ORDER BY: smallest (SQLite, MySQL) or
    /// largest (PostgreSQL, DuckDB default `nulls_last`).
    pub fn default_nulls_smallest(self) -> bool {
        matches!(self, EngineDialect::Sqlite | EngineDialect::Mysql)
    }

    /// Unknown PRAGMAs are silently ignored (SQLite; the paper notes this
    /// masks misconfigured tests).
    pub fn ignores_unknown_pragma(self) -> bool {
        self == EngineDialect::Sqlite
    }

    /// Does BEGIN inside a transaction implicitly commit (MySQL) rather
    /// than error (the embedded engines and PostgreSQL)?
    pub fn begin_implicitly_commits(self) -> bool {
        self == EngineDialect::Mysql
    }

    /// Does the engine support nested LIST/STRUCT values?
    pub fn supports_nested_types(self) -> bool {
        self == EngineDialect::Duckdb
    }

    /// Does the engine support PostgreSQL-style ARRAY values?
    pub fn supports_arrays(self) -> bool {
        matches!(self, EngineDialect::Postgres | EngineDialect::Duckdb)
    }

    /// Recursive CTE whose self-reference appears inside a subquery:
    /// PostgreSQL/MySQL/SQLite reject it; DuckDB deliberately allows it
    /// (and loops forever on paper Listing 15 — a design decision its
    /// developers defended).
    pub fn allows_recursive_ref_in_subquery(self) -> bool {
        self == EngineDialect::Duckdb
    }

    /// All four simulated engines.
    pub const ALL: [EngineDialect; 4] = [
        EngineDialect::Sqlite,
        EngineDialect::Postgres,
        EngineDialect::Duckdb,
        EngineDialect::Mysql,
    ];

    /// The canonical numeric tag. It feeds on-disk entries and replay
    /// grouping, so a dialect's tag never changes.
    pub fn tag(self) -> u8 {
        match self {
            EngineDialect::Sqlite => 0,
            EngineDialect::Postgres => 1,
            EngineDialect::Duckdb => 2,
            EngineDialect::Mysql => 3,
        }
    }

    /// Invert [`EngineDialect::tag`].
    pub fn from_tag(tag: u8) -> Option<EngineDialect> {
        EngineDialect::ALL.into_iter().find(|d| d.tag() == tag)
    }
}

impl std::fmt::Display for EngineDialect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn division_semantics_match_paper() {
        assert!(EngineDialect::Sqlite.integer_division());
        assert!(EngineDialect::Postgres.integer_division());
        assert!(!EngineDialect::Duckdb.integer_division());
        assert!(!EngineDialect::Mysql.integer_division());
    }

    #[test]
    fn mysql_pipes_are_or() {
        assert!(!EngineDialect::Mysql.pipes_are_concat());
        assert!(EngineDialect::Sqlite.pipes_are_concat());
    }

    #[test]
    fn only_sqlite_is_dynamic() {
        let dynamic: Vec<_> = EngineDialect::ALL.iter().filter(|d| d.dynamic_typing()).collect();
        assert_eq!(dynamic, vec![&EngineDialect::Sqlite]);
    }

    #[test]
    fn only_duckdb_totalizes_row_compare() {
        let total: Vec<_> =
            EngineDialect::ALL.iter().filter(|d| d.row_compare_total_order()).collect();
        assert_eq!(total, vec![&EngineDialect::Duckdb]);
    }
}

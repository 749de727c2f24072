//! Lexical dialect selection.
//!
//! The four studied DBMSs differ at the *lexical* level before any grammar
//! question arises: MySQL allows `#` line comments and backtick-quoted
//! identifiers, SQLite accepts `[bracket]` identifiers, PostgreSQL and
//! DuckDB support dollar-quoted strings and the `::` cast operator.

/// Which DBMS's lexical conventions to honour while tokenizing.
///
/// `Generic` accepts the union of all conventions and is what the corpus
/// analyses use, mirroring the paper's dialect-agnostic best-effort parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TextDialect {
    /// SQLite lexical rules (`[x]` identifiers, no `#` comments).
    Sqlite,
    /// PostgreSQL lexical rules (dollar quoting, `::`, no backticks).
    Postgres,
    /// DuckDB lexical rules (PostgreSQL-like).
    Duckdb,
    /// MySQL lexical rules (`#` comments, backtick identifiers, `@` user vars).
    Mysql,
    /// Union of every convention; never rejects a quoting style.
    Generic,
}

impl TextDialect {
    /// `#` starts a line comment (MySQL only, plus Generic).
    pub fn hash_comments(self) -> bool {
        matches!(self, TextDialect::Mysql | TextDialect::Generic)
    }

    /// Backtick-quoted identifiers are recognised.
    pub fn backtick_identifiers(self) -> bool {
        matches!(self, TextDialect::Mysql | TextDialect::Sqlite | TextDialect::Generic)
    }

    /// `[bracket]` identifiers are recognised (SQLite / SQL Server style).
    pub fn bracket_identifiers(self) -> bool {
        matches!(self, TextDialect::Sqlite | TextDialect::Generic)
    }

    /// Dollar-quoted strings (`$$ ... $$`, `$tag$ ... $tag$`) are recognised.
    pub fn dollar_quoting(self) -> bool {
        matches!(self, TextDialect::Postgres | TextDialect::Duckdb | TextDialect::Generic)
    }

    /// The `::` cast operator is a single token.
    pub fn double_colon_cast(self) -> bool {
        matches!(self, TextDialect::Postgres | TextDialect::Duckdb | TextDialect::Generic)
    }

    /// `@name` user variables are single tokens (MySQL).
    pub fn at_variables(self) -> bool {
        matches!(self, TextDialect::Mysql | TextDialect::Generic)
    }

    /// All dialects, for exhaustive tests.
    pub const ALL: [TextDialect; 5] = [
        TextDialect::Sqlite,
        TextDialect::Postgres,
        TextDialect::Duckdb,
        TextDialect::Mysql,
        TextDialect::Generic,
    ];

    /// The canonical numeric tag. It feeds content hashes and on-disk
    /// entries, so a dialect's tag never changes.
    pub fn tag(self) -> u8 {
        match self {
            TextDialect::Sqlite => 0,
            TextDialect::Postgres => 1,
            TextDialect::Duckdb => 2,
            TextDialect::Mysql => 3,
            TextDialect::Generic => 4,
        }
    }

    /// Invert [`TextDialect::tag`].
    pub fn from_tag(tag: u8) -> Option<TextDialect> {
        TextDialect::ALL.into_iter().find(|d| d.tag() == tag)
    }
}

impl std::fmt::Display for TextDialect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            TextDialect::Sqlite => "sqlite",
            TextDialect::Postgres => "postgresql",
            TextDialect::Duckdb => "duckdb",
            TextDialect::Mysql => "mysql",
            TextDialect::Generic => "generic",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_accepts_everything() {
        let d = TextDialect::Generic;
        assert!(d.hash_comments());
        assert!(d.backtick_identifiers());
        assert!(d.bracket_identifiers());
        assert!(d.dollar_quoting());
        assert!(d.double_colon_cast());
        assert!(d.at_variables());
    }

    #[test]
    fn postgres_rejects_mysqlisms() {
        let d = TextDialect::Postgres;
        assert!(!d.hash_comments());
        assert!(!d.backtick_identifiers());
        assert!(d.dollar_quoting());
        assert!(d.double_colon_cast());
    }

    #[test]
    fn mysql_rejects_postgresisms() {
        let d = TextDialect::Mysql;
        assert!(d.hash_comments());
        assert!(!d.dollar_quoting());
        assert!(!d.double_colon_cast());
    }

    #[test]
    fn display_names() {
        assert_eq!(TextDialect::Postgres.to_string(), "postgresql");
        assert_eq!(TextDialect::Sqlite.to_string(), "sqlite");
    }
}

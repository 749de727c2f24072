//! In-memory relational engine simulators for four SQL dialects.
//!
//! The SQuaLity paper executes real SQLite, PostgreSQL, DuckDB, and MySQL
//! binaries; this crate substitutes dialect-faithful simulators that
//! reproduce the *semantic surface* the paper's experiments depend on:
//!
//! * division, concatenation, typing, and NULL-ordering divergences (§6),
//! * per-dialect statement/function/type/operator vocabularies (Table 6),
//! * configuration stores with differing parameter sets (Table 5/6),
//! * client render layers (CLI vs connector — Table 5),
//! * the six bugs the paper found, injected as deterministic faults
//!   (Listings 12–16 plus the MySQL join-search hang), and
//! * feature/branch coverage instrumentation (Table 8).
//!
//! # Example
//!
//! ```
//! use squality_engine::{Engine, EngineDialect, Value};
//!
//! let mut sqlite = Engine::new(EngineDialect::Sqlite);
//! let mut duckdb = Engine::new(EngineDialect::Duckdb);
//! for e in [&mut sqlite, &mut duckdb] {
//!     e.execute("CREATE TABLE t(a INTEGER)").unwrap();
//!     e.execute("INSERT INTO t VALUES (62)").unwrap();
//! }
//! // The paper's headline divergence: `/` is integer division on SQLite,
//! // decimal division on DuckDB.
//! let s = sqlite.execute("SELECT a / 4 FROM t").unwrap();
//! let d = duckdb.execute("SELECT a / 4 FROM t").unwrap();
//! assert_eq!(s.rows[0][0], Value::Integer(15));
//! assert_eq!(d.rows[0][0], Value::Float(15.5));
//! ```

pub mod client;
pub mod config;
pub mod coverage;
pub mod dialect;
pub mod engine;
pub mod env;
pub mod error;
pub mod eval;
pub mod exec;
pub mod explain;
pub mod faults;
pub mod functions;
mod index;
pub mod plan_cache;
pub mod schema;
pub mod types;
pub mod value;

pub use client::{render_value, ClientKind};
pub use coverage::Coverage;
pub use dialect::EngineDialect;
pub use engine::{
    coverage_universe, execution_fingerprint, Engine, QueryResult, DEFAULT_STEP_BUDGET,
    ENGINE_SEMANTICS_VERSION,
};
pub use env::ExecStrategy;
pub use error::{EngineError, ErrorKind};
pub use faults::{FaultId, FaultProfile};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use value::{GroupKey, Value};

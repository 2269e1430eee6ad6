//! # LyriC — querying constraint objects
//!
//! A from-scratch implementation of the data model and query language of
//! Brodsky & Kornatzky, *The LyriC Language: Querying Constraint Objects*
//! (SIGMOD 1995): an object-oriented database in which spatial, temporal
//! and constraint data are first-class **constraint objects** (linear
//! equality/inequality point sets), queried by an XSQL-style language with
//! extended path expressions, CST formulas, entailment (`|=`) and linear-
//! programming operators.
//!
//! ```
//! use lyric::{execute, paper_example};
//!
//! // The office-design database of Figures 1 and 2.
//! let mut db = paper_example::database();
//!
//! // §4.1: the extent of each catalog object in room coordinates,
//! // assuming its center is at (6, 4).
//! let result = execute(
//!     &mut db,
//!     "SELECT CO, ((u,v) | E AND D AND x = 6 AND y = 4)
//!      FROM Office_Object CO
//!      WHERE CO.extent[E] AND CO.translation[D]",
//! )
//! .unwrap();
//! let desk_extent = result.rows[0][1].as_cst().unwrap();
//! // The paper's printed answer: ((u,v) | 2 <= u <= 10 ∧ 2 <= v <= 6).
//! assert!(desk_extent.contains_point(&[6.into(), 4.into()]));
//! assert!(!desk_extent.contains_point(&[1.into(), 4.into()]));
//! ```
//!
//! The crate is layered:
//!
//! * [`parse_query`] / [`parse_formula`] — the §4.2 grammar;
//! * [`execute`] — the XSQL-extension semantics: binding enumeration over
//!   path expressions, schema-derived implicit equality constraints
//!   (`scope`), CST-formula instantiation, predicate evaluation, CST-object
//!   creation, `MAX`/`MIN`/`MAX_POINT`/`MIN_POINT`, and
//!   `CREATE VIEW … AS SUBCLASS OF` materialization (including
//!   variable-named views);
//! * [`paper_example`] — the exact schema of Figure 1 and instance of
//!   Figure 2, used by the test suite and benchmarks.

pub mod analyze;
pub mod ast;
pub mod diag;
mod error;
mod eval;
mod explain;
mod formula;
mod lexer;
pub mod paper_example;
mod parser;
mod printer;
mod scope;
mod sink;
pub mod snapshot;
pub mod span;
pub mod storage;
mod token;

pub use analyze::{analyze, analyze_src, AnalyzerOptions};
pub use diag::{Diagnostic, Severity};
pub use error::{LexError, LyricError, ParseError};
pub use eval::{execute, execute_shared, execute_unchecked, execute_with_options, QueryResult};
pub use explain::{explain, ExplainReport};
pub use lexer::{lex, lex_spanned};
pub use parser::{parse_formula, parse_query};
pub use span::Span;
pub use token::Token;

pub use snapshot::SnapshotExt;

// Re-export the building blocks users need to construct databases.
pub use lyric_constraint as constraint;
pub use lyric_oodb as oodb;

/// The storage engine: the generation-stamped scan index and the binary
/// snapshot container (re-exported so dependents need no direct
/// `lyric-store` dependency).
pub use lyric_store as store;

// Re-export the budget/statistics surface so downstream code does not need
// a direct lyric-engine dependency.
pub use lyric_engine as engine;
pub use lyric_engine::{default_threads, EngineBudget, EngineStats, ExecOptions};

/// Process-lifetime metrics: the global registry, Prometheus exposition,
/// and the structured query log (re-exported so dependents need no
/// direct `lyric-metrics` dependency).
pub use lyric_metrics as metrics;

// Re-export the tracing surface (span trees, renderers, exporters) for
// consumers of [`QueryResult::trace`].
pub use lyric_engine::trace;

// Re-export the flight recorder and in-flight registry so the serving
// surfaces (HTTP endpoints, REPL commands) reach them through one
// dependency.
pub use lyric_engine::flight;

//! In-memory relational table substrate for ANMAT.
//!
//! The paper's demo system ingests CSV uploads, profiles them, and stores
//! results in MongoDB. This crate provides the equivalent storage layer as
//! a plain Rust library:
//!
//! * [`Value`] / [`Schema`] / [`Table`] — a columnar, string-centric
//!   relational store (PFDs operate on cell *strings*, so cells are text
//!   with an explicit null marker; typed interpretation happens at
//!   profiling time); tables are mutable streams — [`Op`]
//!   insert/delete/update over interned cells, executed by
//!   [`Table::apply`], with tombstoned slots and stable `RowId`s
//!   ([`RowOp`] is the same op over owned values, which `Op::from`
//!   interns);
//! * [`csv`] — an RFC-4180 CSV reader/writer (quoting, embedded
//!   separators/newlines, escaped quotes);
//! * [`oplog`] — the op-log reader behind `anmat stream --ops`: one
//!   [`Op`] per CSV record, its cells interned from borrowed records;
//! * [`profile`] — the data profiler behind Figure 3: inferred column
//!   types, distinct/null statistics, and per-level pattern histograms; it
//!   also implements the `CandidateDependencies` pruning of the discovery
//!   algorithm (line 1 of Figure 2);
//! * [`tokenize`](mod@tokenize) — the `Tokenize` and `NGrams` functions
//!   of Figure 2, with token/char positions;
//! * [`pool`] — the dictionary-encoding layer: a process-global string
//!   interner ([`ValuePool`]) and the `Copy` cell handle ([`ValueId`])
//!   every downstream index and engine keys on;
//! * [`atomic`] — [`write_atomic`], the temporary-file-and-rename write
//!   every output file goes through.

pub mod atomic;
pub mod cow;
pub mod csv;
pub mod error;
pub mod oplog;
pub mod pool;
pub mod profile;
pub mod schema;
pub mod table;
pub mod tokenize;
pub mod value;

pub use atomic::write_atomic;
pub use cow::CowVec;
pub use error::TableError;
pub use pool::{PoolFootprint, ReclaimStats, ValueId, ValuePool};
pub use profile::{ColumnProfile, InferredType, PatternHistogram, TableProfile};
pub use schema::Schema;
pub use table::{MemFootprint, Op, RowId, RowIdRemap, RowOp, Table, TableSnapshot};
pub use tokenize::{
    for_each_ngram, for_each_prefix, for_each_token, ngrams, prefixes, tokenize, NGram, Token,
};
pub use value::{NullPolicy, Value};

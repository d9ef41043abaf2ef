//! # ANMAT — pattern functional dependencies in Rust
//!
//! A from-scratch reproduction of *ANMAT: Automatic Knowledge Discovery
//! and Error Detection through Pattern Functional Dependencies* (Qahtan,
//! Tang, Ouzzani, Cao, Stonebraker — SIGMOD 2019 demo).
//!
//! A **pattern functional dependency** (PFD) couples a functional
//! dependency with a tableau of regex-like patterns over *partial*
//! attribute values: `900\D{2} → city = Los Angeles` says any five-digit
//! zip starting `900` maps to Los Angeles; `[\LU\LL*\ ]\A* → gender` says
//! rows sharing a first name share a gender. PFDs are discovered
//! automatically from dirty data and then used to flag (and suggest
//! repairs for) violating cells.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`pattern`] — the restricted pattern language (generalization tree,
//!   matching, containment, induction, constrained patterns);
//! * [`table`] — the relational substrate (columnar tables, CSV,
//!   profiling, tokenization);
//! * [`index`] — discovery's inverted lists, the tableau memo (which
//!   patterns of a list a value matches), and blocking (batch and
//!   incrementally updatable);
//! * [`core`] — PFD model, discovery, detection, FD/CFD baselines,
//!   violation ledger, report rendering;
//! * [`stream`] — the incremental violation engine for *mutable*
//!   streams: apply inserts/deletes/updates, receive violation
//!   creations *and retractions*, monitor rule drift;
//! * [`obs`] — the lock-free metrics registry the hot paths report
//!   into (counters, gauges, log₂ latency histograms, span timers),
//!   surfaced via `anmat stream --stats-every/--metrics-out`;
//! * [`datagen`] — seeded synthetic datasets mirroring the paper's demo
//!   data, with ground-truth error labels.
//!
//! ## Batch vs. streaming
//!
//! `detect_all` recomputes the violation set from scratch — right for a
//! one-shot audit. When the data changes continuously, seed a
//! [`StreamEngine`](stream::StreamEngine) with the confirmed rules
//! instead and feed it [`Op`](table::Op)s — inserts, deletes, and
//! in-place updates, as [`oplog`](table::oplog) reads them from an
//! op-log — through [`StreamEngine::apply`](stream::StreamEngine::apply).
//! No op costs `O(table)`: validation is `O(batch)`,
//! the constant-PFD path is one memo probe plus the matched tableau
//! tuples per op (a new LHS value is evaluated only against the tuples
//! whose literal prefix it starts with), and the variable path
//! is `O(log block + run cap)` per op, with `O(block)` work only when a
//! block's majority flips. The final state provably equals batch
//! detection on the surviving rows, whatever the interleaving.
//!
//! ## Quickstart
//!
//! ```
//! use anmat::prelude::*;
//! use anmat::table::{Schema, Table};
//!
//! // The paper's Table 2: a zip table with one seeded error.
//! let table = Table::from_str_rows(
//!     Schema::new(["zip", "city"]).unwrap(),
//!     [
//!         ["90001", "Los Angeles"],
//!         ["90002", "Los Angeles"],
//!         ["90003", "Los Angeles"],
//!         ["90004", "New York"], // ← s4, the error
//!     ],
//! )
//! .unwrap();
//!
//! let config = DiscoveryConfig {
//!     max_violation_ratio: 0.3,
//!     ..DiscoveryConfig::default()
//! };
//! let pfds = discover(&table, &config);
//! let violations = detect_all(&table, &pfds);
//! assert!(violations.iter().any(|v| v.row == 3));
//! ```

pub use anmat_core as core;
pub use anmat_datagen as datagen;
pub use anmat_index as index;
pub use anmat_obs as obs;
pub use anmat_pattern as pattern;
pub use anmat_stream as stream;
pub use anmat_table as table;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use anmat_core::baselines::cfd::{CfdConfig, CfdMiner};
    pub use anmat_core::baselines::fd::{FdConfig, FdMiner};
    pub use anmat_core::store::{DatasetRecord, RuleStatus, RuleStore, StoredRule};
    pub use anmat_core::{
        apply_repairs, detect_all, detect_pfd, detect_variable_bruteforce, discover,
        repair_to_fixpoint, report, ContextStyle, DiscoveryConfig, LedgerEvent, LhsCell,
        PatternTuple, Pfd, PfdKind, RepairReport, RhsCell, Violation, ViolationKind,
        ViolationLedger,
    };
    pub use anmat_pattern::{ConstrainedPattern, Pattern};
    pub use anmat_stream::{
        CompactionStats, DriftReport, EngineSnapshot, StreamConfig, StreamEngine,
    };
    pub use anmat_table::{
        csv, oplog, MemFootprint, Op, ReclaimStats, RowId, RowIdRemap, RowOp, Schema, Table,
        TableProfile, Value, ValueId, ValuePool,
    };
}

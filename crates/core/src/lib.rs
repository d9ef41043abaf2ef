//! Pattern functional dependencies: model, discovery, error detection,
//! baselines and reporting.
//!
//! This crate is the primary contribution of the ANMAT paper (SIGMOD
//! 2019): it defines [`Pfd`] — a functional dependency whose tableau cells
//! are *constrained patterns* over partial attribute values — and
//! implements the two halves of the demo:
//!
//! * **Discovery** ([`discovery`]) — the algorithm of Figure 2: profile
//!   the table to prune candidates, build inverted lists over tokens /
//!   n-grams / prefixes, apply a decision function to each entry, and keep
//!   tableaux whose coverage passes the user's minimum-coverage threshold
//!   γ, tolerating the user's allowed-violation ratio.
//! * **Error detection** ([`detect`]) — constant PFDs are checked with a
//!   pattern-index-assisted scan; variable PFDs with lossless blocking on
//!   the constrained-capture key (avoiding the quadratic pair
//!   enumeration). Violations carry the cells involved and repair
//!   suggestions.
//!
//! [`baselines`] implements the prior art the paper positions against —
//! exact/approximate FD discovery (TANE-style partition refinement) and
//! constant CFD mining — so the "errors PFDs catch that FDs/CFDs cannot"
//! claim is reproducible. [`report`] renders the profiling, tableau and
//! violation views of Figures 3–5 as text.
//!
//! # Streaming architecture
//!
//! Batch detection and incremental maintenance share one semantics.
//! [`detect::constant::violation_at`] decides a single `(row, constant
//! tuple)` pair and [`detect::variable::flag_block_minority`] resolves a
//! single block by majority vote; `detect_all` drives them across a whole
//! table. The `anmat-stream` crate's `StreamEngine` applies the same
//! rules per arriving row against incrementally maintained `anmat-index`
//! structures and records what each violation asserts, as ids, in the
//! [`ledger`] module's [`ViolationLedger`]: live violations with
//! reference counts and retraction support, because an append can
//! *withdraw* an earlier violation (a late run of agreeing rows flips a
//! block's majority RHS). The ledger renders a [`Violation`] — witnesses
//! and repair included — only when one is shown, and the stream harness
//! holds the rendered ledger equal to `detect_all` after every step of
//! random op scripts.
//!
//! # Quickstart
//!
//! ```
//! use anmat_core::prelude::*;
//! use anmat_table::{Schema, Table};
//!
//! // Table 1 of the paper: first name determines gender, with one error.
//! let table = Table::from_str_rows(
//!     Schema::new(["name", "gender"]).unwrap(),
//!     [
//!         ["John Charles", "M"],
//!         ["John Bosco", "M"],
//!         ["Susan Orlean", "F"],
//!         ["Susan Boyle", "M"], // ← the seeded error
//!     ],
//! )
//! .unwrap();
//!
//! let pfds = discover(&table, &DiscoveryConfig::default());
//! assert!(!pfds.is_empty());
//! let violations = detect_all(&table, &pfds);
//! assert!(violations.iter().any(|v| v.rows().contains(&3)));
//! ```

pub mod baselines;
pub mod detect;
pub mod discovery;
pub mod ledger;
pub mod pfd;
pub mod report;
pub mod store;

pub use detect::{
    apply_repairs, detect_all, detect_pfd, repair_to_fixpoint, Detector, Repair, RepairReport,
    Violation, ViolationKind,
};
pub use discovery::{discover, ContextStyle, DiscoveryConfig};
pub use ledger::{
    Assertion, LedgerEvent, LedgerSnapshot, SignatureId, TupleSignature, ViolationLedger,
};
pub use pfd::{LhsCell, PatternTuple, Pfd, PfdKind, RhsCell};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::baselines::{cfd::CfdMiner, fd::FdMiner};
    pub use crate::detect::{
        apply_repairs, detect_all, detect_pfd, repair_to_fixpoint, Detector, RepairReport,
        Violation, ViolationKind,
    };
    pub use crate::discovery::{discover, ContextStyle, DiscoveryConfig};
    pub use crate::ledger::{
        Assertion, LedgerEvent, LedgerSnapshot, SignatureId, TupleSignature, ViolationLedger,
    };
    pub use crate::pfd::{LhsCell, PatternTuple, Pfd, PfdKind, RhsCell};
    pub use crate::report;
    pub use crate::store::{DatasetRecord, RuleStatus, RuleStore, StoredRule};
}

//! Restricted pattern language over a generalization tree.
//!
//! This crate implements the pattern machinery that underpins pattern
//! functional dependencies (PFDs) as described in *ANMAT: Automatic
//! Knowledge Discovery and Error Detection through Pattern Functional
//! Dependencies* (SIGMOD 2019):
//!
//! * [`SymbolClass`] — the generalization tree of Figure 1 (`\A`, `\LU`,
//!   `\LL`, `\D`, `\S`, literals);
//! * [`Pattern`] — a concatenation of quantified symbol classes (no
//!   alternation, no nested repetition), parsed from / printed to the
//!   paper's textual syntax (e.g. `900\D{2}`, `\LU\LL*\ \A*`);
//! * [`matcher`] — an `O(|s|·|P|)` matching engine with capture-span
//!   recovery;
//! * [`compile`](mod@compile) — patterns compiled to flat bytecode with
//!   precomputed class bitsets (full-UTF-8 via sorted-range spillover),
//!   evaluated by a non-recursive backtracking VM ([`vm`]) directly over
//!   `&str` bytes with SWAR class-run scans ([`scan`]), or — when
//!   compilation proves the pattern backtrack-free — by the fused
//!   single-pass matcher ([`fuse`]); each program's tier is fixed when
//!   it is compiled, and the [`matcher`] interpreter is the oracle both
//!   tiers are tested against;
//! * [`containment`] — sound and complete language-inclusion checking
//!   (`P ⊆ P'`) plus least-general generalization of two patterns;
//! * [`induce`](mod@induce) — pattern induction from string samples, the primitive the
//!   discovery algorithm uses to turn inverted-list keys into tableau
//!   patterns;
//! * [`ConstrainedPattern`] — patterns with constrained (annotated)
//!   segments, the `≡_Q` string equivalence, and blocking keys.
//!
//! The language is deliberately small: the paper argues (citing the
//! PSPACE-completeness of general regex equivalence) that a restricted
//! class is easier to specify, discover, apply and reason about, and is
//! sufficient for error detection in practice.
//!
//! # Quick example
//!
//! ```
//! use anmat_pattern::{Pattern, ConstrainedPattern};
//!
//! // λ3 from the paper: zip codes starting with 900.
//! let p: Pattern = "900\\D{2}".parse().unwrap();
//! assert!(p.matches("90001"));
//! assert!(!p.matches("10001"));
//!
//! // λ4's LHS: first name constrained, rest free.
//! let q: ConstrainedPattern = "[\\LU\\LL*\\ ]\\A*".parse().unwrap();
//! assert!(q.equivalent("John Charles", "John Bosco")); // same first name
//! assert!(!q.equivalent("John Charles", "Susan Boyle"));
//! ```

pub mod ast;
pub mod compile;
pub mod constrained;
pub mod containment;
pub mod error;
pub mod fuse;
pub mod induce;
pub mod matcher;
pub mod parser;
pub mod scan;
pub mod symbol;
pub mod vm;

pub use ast::{Element, Pattern, Quantifier};
pub use compile::{AsciiSet, ClassSet, CompiledConstrained, CompiledPattern, Op};
pub use constrained::{ConstrainedPattern, Segment};
pub use containment::{contains, equivalent, generalize_patterns};
pub use error::PatternError;
pub use induce::{induce, loosen, signature, PatternLevel};
pub use matcher::{match_pattern, match_spans, MatchSpans};
pub use scan::ScanKind;
pub use symbol::SymbolClass;

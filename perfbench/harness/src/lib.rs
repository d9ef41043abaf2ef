//! Benchmark harness for the `anmat` library.
//!
//! Two process kinds, never mixed:
//!
//! * [`gen`] turns a seed into each workload's input files. It is the
//!   only code that calls `anmat_datagen`, whose generators intern every
//!   string into the process-global `ValuePool`; running it in its own
//!   process keeps the measured process's pool cold, so pool misses and
//!   peak memory are the engine's own.
//! * [`measure`] reads those files, drives the library the way
//!   `anmat stream` and `anmat detect` do, times every call from outside
//!   (spans live in [`trace`], none inside the library) and checks the
//!   outputs after the timed phases.

pub mod gen;
pub mod host;
pub mod measure;
pub mod trace;

use std::fmt;

/// The workloads the harness runs. Each loads a different layer;
/// `BENCHMARK.json` gates `audit`, `append` and `churn`, and
/// `perfbench/README.md` says why `expire` and `append_x2` are not gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch discovery at set-up, then detect + report over fresh CSVs.
    Audit,
    /// Zip/city/state op-log, ~90% inserts, low LHS cardinality.
    Append,
    /// Phone/state op-log on a stationary table, a new phone per row,
    /// with compaction, reclamation and snapshot readers at marks.
    Churn,
    /// Zip/city/state retention window: each insert expires the oldest.
    Expire,
    /// `Append`'s inputs through the key-sharded engine, 2 shards.
    AppendX2,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Audit,
        Workload::Append,
        Workload::Churn,
        Workload::Expire,
        Workload::AppendX2,
    ];

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Audit => "audit",
            Workload::Append => "append",
            Workload::Churn => "churn",
            Workload::Expire => "expire",
            Workload::AppendX2 => "append_x2",
        }
    }

    /// The sizes and rates this workload runs at.
    #[must_use]
    pub fn spec(self) -> Spec {
        match self {
            Workload::Audit => Spec {
                base_rows: 12_000,
                closed_per_s: 150.0,
                rate: 50.0,
                batch: 1,
                // One fresh CSV per dataset arrives at a time.
                cap: 3,
                group: 3,
                mix: Mix::NONE,
                compact_every: 0,
            },
            Workload::Append | Workload::AppendX2 => Spec {
                base_rows: 200_000,
                closed_per_s: 45_000.0,
                rate: 120.0,
                batch: 256,
                cap: 256,
                group: 1,
                mix: Mix {
                    insert: 0.90,
                    update: 0.05,
                },
                compact_every: 0,
            },
            Workload::Churn => Spec {
                base_rows: 150_000,
                closed_per_s: 80_000.0,
                rate: 400.0,
                batch: 256,
                cap: 256,
                group: 1,
                mix: Mix {
                    insert: 0.35,
                    update: 0.30,
                },
                compact_every: 40_000,
            },
            Workload::Expire => Spec {
                base_rows: 150_000,
                closed_per_s: 700.0,
                rate: 200.0,
                batch: 256,
                cap: 256,
                // An insert and the expiry it causes arrive together.
                group: 2,
                mix: Mix::NONE,
                compact_every: 0,
            },
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Shares of an op-log's ops; deletes take the rest.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub insert: f64,
    pub update: f64,
}

impl Mix {
    const NONE: Mix = Mix {
        insert: 0.0,
        update: 0.0,
    };
}

/// One workload's sizes. Unit counts scale with the run length, so a
/// longer run measures more of the same stream, never a different one.
/// A unit is one op (audit: one fresh CSV of [`gen::REQUEST_ROWS`] rows).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Rows bulk-loaded at set-up (audit: training rows per dataset).
    pub base_rows: usize,
    /// Closed-loop units per second of the phase: about the throughput
    /// the parent commit reaches, so the phase lasts about its share of
    /// the run.
    pub closed_per_s: f64,
    /// Offered rate of the paced phase, units/s.
    pub rate: f64,
    /// Closed-loop batch size, units.
    pub batch: usize,
    /// Most units one paced step takes.
    pub cap: usize,
    /// Units that arrive together in the paced phase.
    pub group: usize,
    /// Op mix of the generated log.
    pub mix: Mix,
    /// Ops between compaction marks (0 = none).
    pub compact_every: usize,
}

/// Shares of the run length given to the closed-loop phase (which
/// yields the gated `ops_per_s`) and to the paced phase.
pub const CLOSED_SHARE: f64 = 0.65;
pub const PACED_SHARE: f64 = 0.35;

impl Spec {
    /// Units in the closed-loop phase.
    #[must_use]
    pub fn closed_ops(&self, seconds: u32) -> usize {
        (self.closed_per_s * f64::from(seconds) * CLOSED_SHARE).ceil() as usize
    }

    /// Units in the paced phase.
    #[must_use]
    pub fn paced_ops(&self, seconds: u32) -> usize {
        (self.rate * f64::from(seconds) * PACED_SHARE).ceil() as usize
    }

    /// Units in the input: the closed-loop phase's, then the paced phase's.
    #[must_use]
    pub fn units(&self, seconds: u32) -> usize {
        self.closed_ops(seconds) + self.paced_ops(seconds)
    }
}

//! # fastpath-serve
//!
//! Verification-as-a-service on top of the FastPath flow: a long-running
//! daemon (`fastpathd`) that accepts netlists or named Table I case
//! studies as jobs, verifies them with the hybrid flow, and memoizes
//! every expensive artifact in a content-addressed store so repeated and
//! *incrementally revised* submissions are answered from cache.
//!
//! Three layers, smallest trust surface first:
//!
//! - [`store`] — the content-addressed artifact store. Implements the
//!   core [`fastpath::ProofCache`] for solver-level memoization
//!   (`checks/`, `sims/`) and adds service-level records: per-cone
//!   verdicts keyed by canonical cone hash (`cones/`) and per-design cone
//!   manifests (`modules/`). Plus an oldest-first GC to a byte budget,
//!   and a byte ledger that reports the store's size without listing it.
//! - [`job`] — the wire formats and the `inbox/` → `work/` → `done/`
//!   directory spool. The transport is atomic renames; there is no
//!   socket protocol to keep deterministic. Job ids come from a locked
//!   sequence counter, so submitting never lists the spool.
//! - [`daemon`] — the serve loop and the verification modes: `full` (one
//!   flow run, constraint vocabulary intact) and `cones` (per-control-
//!   output decomposition, the incremental-revision path).
//!
//! Soundness note: the daemon never *trusts* the store. The core flow
//! re-certifies every cached solver verdict on load (proof replay /
//! counterexample replay), and every service-level record carries a
//! checksum; anything corrupt decodes as a miss and is re-proved.

#![warn(missing_docs)]

mod counter;
pub mod daemon;
pub mod job;
pub mod store;

pub use daemon::{process_job, serve, ServeOptions, ServeSummary};
pub use job::{ConeOutcome, Job, JobMode, JobOutcome, JobSource, Spool};
pub use store::{ConeVerdict, DiskStore, GcStats};

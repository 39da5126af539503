//! # fastpath
//!
//! A reproduction of **FastPath: A Hybrid Approach for Efficient Hardware
//! Security Verification** (DAC 2025): a verification methodology that
//! proves hardware *data-obliviousness* (no confidential data input can
//! influence attacker-observable control outputs) by combining
//!
//! 1. **structural analysis** over a HyperFlow Graph (`fastpath-hfg`),
//! 2. **IFT-enhanced simulation** (`fastpath-sim`), and
//! 3. **UPEC-DIT formal verification** (`fastpath-formal`).
//!
//! The flow's key trick: the set of state signals that stay *untainted*
//! during simulation (`Z'`) seeds the formal induction, eliminating most of
//! the manual counterexample inspection that the formal-only approach
//! requires, at identical exhaustiveness.
//!
//! Entry points: [`run_fastpath`] for the hybrid flow, [`run_baseline`] for
//! the formal-only comparison baseline, and [`CaseStudy`] for packaging a
//! design with its security specification.
//!
//! # Examples
//!
//! ```
//! use fastpath::{run_fastpath, CaseStudy, DesignInstance, Verdict};
//! use fastpath_rtl::ModuleBuilder;
//!
//! # fn main() -> Result<(), fastpath_rtl::RtlError> {
//! // A round-based accumulator whose handshake timing is driven purely by
//! // a counter: data-oblivious by construction.
//! let mut b = ModuleBuilder::new("demo");
//! let secret = b.data_input("secret", 32);
//! let s = b.sig(secret);
//! let acc = b.reg("acc", 32, 0);
//! let a = b.sig(acc);
//! let mixed = b.xor(a, s);
//! b.set_next(acc, mixed)?;
//! b.data_output("digest", a);
//! let round = b.reg("round", 5, 0);
//! let r = b.sig(round);
//! let one = b.lit(5, 1);
//! let inc = b.add(r, one);
//! b.set_next(round, inc)?;
//! let done = b.eq_lit(r, 31);
//! b.control_output("done", done);
//! let module = b.build()?;
//!
//! let study = CaseStudy::new("demo", DesignInstance::new(module));
//! let report = run_fastpath(&study);
//! assert_eq!(report.verdict, Verdict::DataOblivious);
//! assert_eq!(report.manual_inspections, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod baseline;
pub mod cache;
mod flow;
mod pairwise;
pub mod parallel;
mod report;
mod study;
mod witness;

pub use baseline::{run_baseline, run_baseline_with};
pub use cache::{CacheStats, MemoryCache, ProofCache};
pub use fastpath_formal::{ClauseStore, Ic3Stats, ProductStats, UpecEncoding, UpecEngine};
pub use flow::{run_fastpath, run_fastpath_with, FlowOptions};
pub use pairwise::{DynamicPairwise, PairResult, PairwiseAnalysis};
pub use report::{
    effort_reduction, CertificationSummary, CompletionMethod, FlowEvent, FlowReport, SimStats,
    Stage, StageTimings, Verdict,
};
pub use study::{CaseStudy, DesignInstance, NamedCondEq, NamedPredicate, TestbenchRestriction};
pub use witness::{confirm_counterexample, settle_env, WitnessReplay};

//! # fastpath-formal
//!
//! The exhaustive formal-verification leg of FastPath: a bit-level model
//! checker built on an And-Inverter Graph, a Tseitin CNF encoder, and the
//! `fastpath-sat` CDCL solver.
//!
//! The main entry point is [`Upec2Safety`], the UPEC-DIT 2-safety inductive
//! engine of the paper's Sec. III-C / IV-C: it decides, for a candidate set
//! of untainted state signals `Z'`, whether `Z'` is a true semantic
//! partitioning — i.e. no input sequence can ever make a `Z'` signal or an
//! attacker-observable control output diverge between two instances that
//! agree on `Z'` and on all control inputs. [`bmc_check`] provides bounded
//! model checking from reset for invariant validation and counterexample
//! reachability confirmation.
//!
//! # Examples
//!
//! ```
//! use fastpath_formal::{Upec2Safety, UpecSpec};
//! use fastpath_rtl::ModuleBuilder;
//!
//! # fn main() -> Result<(), fastpath_rtl::RtlError> {
//! let mut b = ModuleBuilder::new("m");
//! let secret = b.data_input("secret", 8);
//! let s = b.sig(secret);
//! let store = b.reg("store", 8, 0);
//! b.set_next(store, s)?;
//! let st = b.sig(store);
//! b.data_output("out", st);
//! let tick = b.reg("tick", 1, 0);
//! let t = b.sig(tick);
//! let nt = b.not(t);
//! b.set_next(tick, nt)?;
//! b.control_output("phase", t);
//! let module = b.build()?;
//!
//! let tick_id = module.signal_by_name("tick").expect("exists");
//! let mut upec = Upec2Safety::new(&module, &UpecSpec::default());
//! // Z' = {tick}: the phase generator can never be influenced by secret.
//! assert!(upec.check(&[tick_id]).holds());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod aig;
mod aiger;
mod blast;
mod bmc;
mod certify;
mod ic3;
mod reuse;
mod tseitin;
mod upec;
mod words;

pub use aig::{Aig, AigLit};
pub use aiger::to_aiger;
pub use blast::{
    blast_expr_in_frame, build_frame, build_frame_with_leaves, next_state, ConstantLeaves, Frame,
    LazyFrame, LeafSource, SymbolicLeaves,
};
pub use bmc::{
    bmc_check, invariant_is_inductive, invariants_are_jointly_inductive, two_safety_bmc, BmcResult,
    TwoSafetyBmcResult,
};
pub use certify::{CertStats, CertifiedOutcome, CheckCertificate};
pub use ic3::{
    Ic3Engine, Ic3Outcome, Ic3Stats, RelationalClause, RelationalInvariant, RelationalLit,
    UpecEngine, IC3_PROPAGATION_BUDGET,
};
pub use reuse::{ClauseStore, MAX_REUSE_CLAUSE_LEN};
pub use tseitin::CnfEncoder;
pub use upec::{
    ElaborationMode, ElaborationStats, ProductStats, ProofArtifact, StateWitness, Upec2Safety,
    UpecCounterexample, UpecEncoding, UpecOutcome, UpecSpec,
};
pub use words::{
    add_with_carry, add_word, and_word, constant_word, eq_word, mul_word, mux_word, neg_word,
    not_word, or_word, reduce_and_word, reduce_or_word, reduce_xor_word, sext_word, shift_word,
    sle_word, slt_word, sub_word, ule_word, ult_word, xor_word, zext_word, ShiftKind,
};

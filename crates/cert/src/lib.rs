//! # fastpath-cert
//!
//! Independent certification of `fastpath-sat` verdicts.
//!
//! Every "proven data-oblivious" verdict in the FastPath reproduction rests
//! on an UNSAT answer from the home-grown CDCL solver. This crate closes
//! that trust gap: the solver emits a DRUP-style proof trace
//! ([`fastpath_sat::Proof`]), and this crate replays it with a
//! **unit-propagation RUP checker** that shares *none* of the solver's
//! data structures — different clause storage, different propagation
//! scheme (occurrence lists with non-false-literal counters instead of two
//! watched literals), different assignment representation. A correlated
//! bug would have to be independently implemented twice to slip through.
//!
//! The engine certifies through three entry points:
//!
//! - [`HintedTracker`] is the incremental UNSAT checker: a long-lived UPEC
//!   engine feeds each check's new trace steps exactly once, avoiding
//!   quadratic re-replay across the hundreds of incremental `solve` calls
//!   one elaborated design produces. It checks backward — only the learnt
//!   clauses a refutation depends on are RUP-probed — and emits each
//!   refuted check as a `(core CNF, hinted proof)` pair, the one form a
//!   certified UNSAT answer is handed out and stored in.
//! - [`check_hinted_unsat_artifact`] re-certifies such a pair from text
//!   alone by walking its LRAT-style hints: the proof cache's load path.
//! - [`check_model`] certifies a SAT answer: the returned assignment must
//!   satisfy every axiom clause and every assumption.
//!
//! The forward [`Checker`] ([`Checker::new`]) and its one-shot form
//! [`check_unsat_certificate`] probe every learnt clause on admission.
//! They are the reference the tests hold the backward checker to, and
//! [`revalidate_unsat_artifact`] replays the plain `(CNF, DRUP)` pairs the
//! engine dumps for external tools through them.
//!
//! The [`artifacts`] module renders traces in textual DRUP (and models in
//! SAT-competition `v`-line format) so external tools such as `drat-trim`
//! can cross-audit the same certificates.
//!
//! # Soundness argument
//!
//! The forward checker admits a `Learn` step only after proving it RUP with
//! respect to its current database (axioms plus previously admitted
//! learns, minus applied deletions). By induction every admitted clause is
//! implied by the axiom set, so a derived contradiction — or a successful
//! RUP probe of the negated-assumption clause — certifies genuine
//! unsatisfiability. Deletions can only *weaken* the checker's
//! propagation; at worst a valid proof fails to check (incompleteness),
//! never the reverse. Root-level assignments are kept across deletions for
//! the same reason: they were derived from implied clauses and remain
//! logical consequences of the axioms.
//!
//! The backward checker admits `Learn` steps unchecked, but a refutation
//! is only accepted once every learnt clause in its dependency closure has
//! passed a RUP probe against the clauses admitted strictly before it, so
//! the same induction runs over the closure and no lemma can justify
//! itself.

#![warn(missing_docs)]

pub mod artifacts;
mod checker;

pub use artifacts::{
    check_hinted_unsat_artifact, revalidate_unsat_artifact, HintedTracker, RevalidateError,
};
pub use checker::{check_model, check_unsat_certificate, CertError, Checker, CheckerStats};

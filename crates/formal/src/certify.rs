//! Certified UPEC verdicts.
//!
//! Types carrying the result of independently checking one
//! [`Upec2Safety`](crate::Upec2Safety) check with the `fastpath-cert`
//! checker: a per-check [`CheckCertificate`] (or the [`CertError`] that
//! rejected it) bundled with the ordinary outcome in
//! [`CertifiedOutcome`], plus accumulated [`CertStats`].

use crate::upec::UpecOutcome;
use fastpath_cert::{CertError, CheckerStats};

/// How one check's verdict was independently validated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckCertificate {
    /// Every difference monitor folded to constant false in the AIG, so
    /// no SAT instance was ever built. The verdict rests on structural
    /// hashing, not on the solver — recorded honestly as its own kind
    /// rather than dressed up as a proof.
    TrivialUnsat,
    /// The solver's UNSAT answer was replayed by the backward RUP checker:
    /// assuming this check's activation literal propagates to a conflict,
    /// and every learnt clause in that refutation's dependency closure
    /// was verified against the clauses admitted before it.
    UnsatProof {
        /// Length of the trace prefix that constitutes the certificate.
        steps: usize,
    },
    /// The solver's SAT answer was validated by evaluating every axiom
    /// clause (and the activation assumption) under the returned model.
    SatModel {
        /// Number of clauses the model was checked against.
        clauses: usize,
    },
}

/// An outcome plus the result of independently certifying it.
#[derive(Clone, Debug)]
pub struct CertifiedOutcome {
    /// The verdict, exactly as the uncertified engine would return it.
    pub outcome: UpecOutcome,
    /// The certificate, or why certification failed. A failure means the
    /// solver's answer could not be independently validated — a solver
    /// bug, not a property of the design.
    pub certificate: Result<CheckCertificate, CertError>,
}

impl CertifiedOutcome {
    /// `true` if the verdict was independently validated.
    pub fn is_certified(&self) -> bool {
        self.certificate.is_ok()
    }
}

/// Certification work counters, accumulated per engine and aggregated
/// across designs by the flow layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CertStats {
    /// Checks that went through certification.
    pub certified_checks: u64,
    /// UNSAT verdicts certified by a RUP proof replay.
    pub unsat_proofs: u64,
    /// UNSAT verdicts that were trivial (all monitors constant false).
    pub trivial_unsat: u64,
    /// SAT verdicts certified by model evaluation.
    pub sat_models: u64,
    /// Checks whose certificate was rejected.
    pub cert_failures: u64,
    /// Artifact file pairs written (when an artifact directory is set).
    pub artifacts_written: u64,
    /// Artifact writes that failed with an I/O error.
    pub artifact_failures: u64,
    /// The independent checker's own work counters.
    pub checker: CheckerStats,
}

impl CertStats {
    /// Folds another engine's counters into this one.
    pub fn merge(&mut self, other: &CertStats) {
        self.certified_checks += other.certified_checks;
        self.unsat_proofs += other.unsat_proofs;
        self.trivial_unsat += other.trivial_unsat;
        self.sat_models += other.sat_models;
        self.cert_failures += other.cert_failures;
        self.artifacts_written += other.artifacts_written;
        self.artifact_failures += other.artifact_failures;
        self.checker.merge(&other.checker);
    }
}

impl std::ops::AddAssign for CertStats {
    fn add_assign(&mut self, rhs: CertStats) {
        self.merge(&rhs);
    }
}

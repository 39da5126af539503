//! Solver work counters.

/// Statistics accumulated across `solve` calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Conflicts resolved by a chronological backtrack (one level) instead
    /// of a full non-chronological backjump.
    pub chrono_backtracks: u64,
    /// Phase-reset events (target/best rephasing).
    pub rephases: u64,
    /// Clauses shortened by vivification.
    pub vivified: u64,
    /// Literals removed by self-subsuming resolution.
    pub strengthened: u64,
    /// Clauses deleted because another clause subsumes them.
    pub subsumed: u64,
    /// Cross-design store clauses RUP-probed against this solver.
    pub reuse_probed: u64,
    /// Cross-design store clauses accepted by the probe and imported.
    pub reuse_imported: u64,
    /// Bytes appended to the buffered DRUP text renderer (0 unless
    /// [`Solver::enable_proof_text`](crate::Solver::enable_proof_text)
    /// turned incremental rendering on).
    pub proof_bytes: u64,
}

impl SolverStats {
    /// Folds another solver's statistics into this one. Used to aggregate
    /// across engines (one per design).
    pub fn merge(&mut self, other: &SolverStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.chrono_backtracks += other.chrono_backtracks;
        self.rephases += other.rephases;
        self.vivified += other.vivified;
        self.strengthened += other.strengthened;
        self.subsumed += other.subsumed;
        self.reuse_probed += other.reuse_probed;
        self.reuse_imported += other.reuse_imported;
        self.proof_bytes += other.proof_bytes;
    }
}

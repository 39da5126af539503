//! Verdicts, flow events, and verification reports.

use fastpath_formal::{CertStats, ElaborationStats, ProductStats};
use fastpath_rtl::SignalId;
use fastpath_sat::SolverStats;
use std::fmt;
use std::time::Duration;

/// The analysis result for a design (Table I "Data-Oblivious" column).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Data-oblivious unconditionally (*True*).
    DataOblivious,
    /// Data-oblivious only under the listed derived software constraints
    /// (*Constrained*).
    ConstrainedDataOblivious(Vec<String>),
    /// Not data-oblivious under any reasonable constraint (*False*).
    NotDataOblivious,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::DataOblivious => write!(f, "True"),
            Verdict::ConstrainedDataOblivious(_) => write!(f, "Constrained"),
            Verdict::NotDataOblivious => write!(f, "False"),
        }
    }
}

/// The FastPath stage at which the analysis completed (Table I "Method").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompletionMethod {
    /// Structural proof: no HFG path from `X_D` to `Y_C`.
    Hfg,
    /// Terminated during IFT simulation (an unconstrained leak was found).
    Ift,
    /// Exhaustive UPEC-DIT proof.
    Upec,
}

impl fmt::Display for CompletionMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletionMethod::Hfg => write!(f, "HFG"),
            CompletionMethod::Ift => write!(f, "IFT"),
            CompletionMethod::Upec => write!(f, "UPEC"),
        }
    }
}

/// The stage of the flow an event occurred in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Structural analysis (Sec. IV-A).
    Structural,
    /// IFT-enhanced simulation (Sec. IV-B).
    Simulation,
    /// UPEC-DIT formal verification (Sec. IV-C).
    Formal,
}

/// One step of the flow — together these trace every edge of the paper's
/// Fig. 1 diagram.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FlowEvent {
    /// HFG built; records whether any `X_D → Y_C` path exists.
    HfgAnalysis {
        /// `false` enables the early exit.
        paths_exist: bool,
    },
    /// Early termination by structural proof.
    StructuralProof,
    /// One IFT simulation run.
    IftRun {
        /// Property violations observed.
        violations: usize,
        /// State signals tainted.
        tainted: usize,
        /// State signals untainted (`|Z'|`).
        untainted: usize,
    },
    /// A counterexample led to deriving a software constraint
    /// (feedback edge: constraint ⇒ re-simulate).
    ConstraintDerived {
        /// Constraint name.
        name: String,
        /// Where the counterexample came from.
        stage: Stage,
    },
    /// The IFT flow policy was refined (declassification).
    PolicyRefined {
        /// The declassified signal.
        signal: SignalId,
    },
    /// A spurious formal counterexample was excluded with an invariant.
    InvariantAdded {
        /// Invariant name.
        name: String,
    },
    /// A genuine vulnerability was confirmed.
    VulnerabilityFound {
        /// Description for the report.
        description: String,
        /// Stage that exposed it.
        stage: Stage,
    },
    /// The design was replaced by its fixed variant and the flow restarted.
    DesignFixed,
    /// A formal counterexample showed legal data propagation; the listed
    /// number of signals were inspected and removed from `Z'`.
    PropagationsRemoved {
        /// How many signals were removed (each one manual inspection).
        count: usize,
    },
    /// One UPEC-DIT property check.
    UpecCheck {
        /// Whether the inductive property held.
        holds: bool,
    },
    /// The IC3 engine discharged the remaining obligations with a
    /// machine-derived relational invariant (re-validated through the
    /// standard certified check path before being trusted).
    Ic3Discharged {
        /// Clauses in the derived inductive invariant.
        clauses: usize,
    },
    /// The fixed point was reached: `Z'` is a semantic partitioning.
    FixedPoint,
}

/// Wall-clock timings per stage (reproduces the Sec. V-E discussion).
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// HFG construction + path queries.
    pub structural: Duration,
    /// All IFT simulation runs.
    pub simulation: Duration,
    /// 2-safety model elaboration (AIG + CNF).
    pub formal_elaboration: Duration,
    /// All UPEC property checks.
    pub formal_checks: Duration,
    /// Hinted backward certification (feed + core-tracked verify + hinted
    /// artifact emission); a subset of `formal_checks` wall-clock.
    pub cert_backward: Duration,
    /// Number of UPEC checks performed.
    pub check_count: u64,
}

/// Simulation work done during one flow run on the compiled tape.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Complete IFT simulation runs (including constraint/policy trials).
    pub runs: u64,
    /// Simulated cycles summed over those runs.
    pub cycles: u64,
}

impl SimStats {
    /// Simulated cycles per second of simulation wall-clock time, the
    /// headline throughput number of the `sim` bench group.
    pub fn cycles_per_second(&self, simulation: Duration) -> f64 {
        let secs = simulation.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.cycles as f64 / secs
        }
    }
}

/// Certification results accumulated over one flow (or baseline) run.
///
/// Present in a [`FlowReport`] only when the run was started with
/// certification enabled. A run is *fully certified* when every UPEC
/// verdict was independently validated — every UNSAT answer by a RUP
/// proof replay, every SAT answer by a model check — **and** every
/// counterexample the flow acted on was reproduced by concrete
/// simulation.
#[derive(Clone, Debug, Default)]
pub struct CertificationSummary {
    /// Per-check certification counters, folded across every UPEC engine
    /// of the run (the fixed design variant included).
    pub stats: CertStats,
    /// Counterexamples replayed through the concrete simulator.
    pub counterexamples_replayed: u64,
    /// Human-readable descriptions of every certificate rejection or
    /// replay mismatch. Empty on a fully certified run.
    pub failures: Vec<String>,
}

impl CertificationSummary {
    /// `true` iff every verdict and counterexample was validated.
    pub fn fully_certified(&self) -> bool {
        self.stats.cert_failures == 0 && self.failures.is_empty()
    }

    /// Folds another run's counters into this one.
    pub fn merge(&mut self, other: &CertificationSummary) {
        self.stats.merge(&other.stats);
        self.counterexamples_replayed += other.counterexamples_replayed;
        self.failures.extend(other.failures.iter().cloned());
    }
}

/// The result of running the FastPath flow (or the formal-only baseline)
/// on one case study.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// Design name.
    pub design: String,
    /// Final verdict.
    pub verdict: Verdict,
    /// Completing method (Table I "Method").
    pub method: CompletionMethod,
    /// Number of state-holding word-level signals.
    pub state_signals: usize,
    /// Total state bits.
    pub state_bits: u64,
    /// Data propagations found by IFT alone (`None` if the IFT stage never
    /// ran — e.g. HFG early exit or the baseline flow).
    pub ift_propagations: Option<usize>,
    /// Total data propagations (state signals outside the final `Z'`).
    pub total_propagations: Option<usize>,
    /// The paper's effort metric: manually inspected counterexamples /
    /// divergent signals.
    pub manual_inspections: u64,
    /// Derived software constraints (names).
    pub derived_constraints: Vec<String>,
    /// Invariants that were needed.
    pub invariants_added: Vec<String>,
    /// Confirmed vulnerabilities.
    pub vulnerabilities: Vec<String>,
    /// The full event trace (Fig. 1 edges).
    pub events: Vec<FlowEvent>,
    /// Stage timings.
    pub timings: StageTimings,
    /// SAT-solver work accumulated across every UPEC check of the run.
    pub solver_stats: SolverStats,
    /// Elaboration-cache effectiveness across every UPEC engine of the
    /// run (AIG node construction avoided by the cached frame template).
    pub elaboration: ElaborationStats,
    /// Product-construction size across every UPEC check of the run
    /// (AIG nodes, SAT variables and clauses, predicate and guard
    /// counts) — the counters the word-level encoding shrinks.
    pub product: ProductStats,
    /// Simulation backend and workload of the run.
    pub sim: SimStats,
    /// Verification-cache effectiveness (`None` unless a cache was
    /// attached). Provenance only: verdicts, events, and counts are
    /// byte-identical whether a run was served warm or cold.
    pub cache: Option<crate::cache::CacheStats>,
    /// IC3 engine work (`None` unless at least one IC3 discharge attempt
    /// ran — the induction reference engine never sets this).
    pub ic3: Option<fastpath_formal::Ic3Stats>,
    /// Certification results (`None` unless the run certified verdicts).
    pub certification: Option<CertificationSummary>,
}

impl FlowReport {
    /// `true` iff the flow completed by structural proof — the HFG found
    /// no `X_D → Y_C` path and the design was discharged without
    /// simulation or formal checks.
    pub fn structural_proof(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FlowEvent::StructuralProof))
    }

    /// Number of `Z'` refinement steps: formal counterexamples that led
    /// to signals being inspected and removed from the untainted set (one
    /// per [`FlowEvent::PropagationsRemoved`] event).
    pub fn refinement_steps(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, FlowEvent::PropagationsRemoved { .. }))
            .count()
    }

    /// Total state signals removed from `Z'` by formal refinement, summed
    /// over every [`FlowEvent::PropagationsRemoved`] event.
    pub fn refined_signals(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                FlowEvent::PropagationsRemoved { count } => *count,
                _ => 0,
            })
            .sum()
    }

    /// Whether the run was fully certified: `None` if certification was
    /// not enabled, otherwise whether every UPEC verdict and replayed
    /// counterexample validated.
    pub fn fully_certified(&self) -> Option<bool> {
        self.certification.as_ref().map(|c| c.fully_certified())
    }

    /// Formats a single Table-I-style row.
    pub fn table_row(&self) -> String {
        format!(
            "{:<16} {:<12} {:<6} {:>8} {:>8} {:>6} {:>7} {:>10}",
            self.design,
            self.verdict.to_string(),
            self.method.to_string(),
            self.state_signals,
            self.state_bits,
            self.ift_propagations
                .map_or("-".to_string(), |n| n.to_string()),
            self.total_propagations
                .map_or("-".to_string(), |n| n.to_string()),
            self.manual_inspections
        )
    }
}

/// Reduction in manual effort of `fastpath` over `baseline`, in percent
/// (the paper's final Table I column).
pub fn effort_reduction(baseline: &FlowReport, fastpath: &FlowReport) -> f64 {
    if baseline.manual_inspections == 0 {
        return 0.0;
    }
    100.0
        * (baseline
            .manual_inspections
            .saturating_sub(fastpath.manual_inspections)) as f64
        / baseline.manual_inspections as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(inspections: u64) -> FlowReport {
        FlowReport {
            design: "d".into(),
            verdict: Verdict::DataOblivious,
            method: CompletionMethod::Hfg,
            state_signals: 0,
            state_bits: 0,
            ift_propagations: None,
            total_propagations: None,
            manual_inspections: inspections,
            derived_constraints: vec![],
            invariants_added: vec![],
            vulnerabilities: vec![],
            events: vec![],
            timings: StageTimings::default(),
            solver_stats: SolverStats::default(),
            elaboration: ElaborationStats::default(),
            product: ProductStats::default(),
            sim: SimStats::default(),
            cache: None,
            ic3: None,
            certification: None,
        }
    }

    #[test]
    fn reduction_formula() {
        assert_eq!(effort_reduction(&dummy(33), &dummy(0)), 100.0);
        assert!((effort_reduction(&dummy(12), &dummy(3)) - 75.0).abs() < 1e-9);
        assert_eq!(effort_reduction(&dummy(0), &dummy(0)), 0.0);
    }

    #[test]
    fn certification_summary_merges_and_reports_status() {
        let mut a = CertificationSummary::default();
        assert!(a.fully_certified());
        a.stats.certified_checks = 3;
        a.counterexamples_replayed = 2;
        let mut b = CertificationSummary::default();
        b.stats.certified_checks = 1;
        b.failures.push("replay mismatch".into());
        a.merge(&b);
        assert_eq!(a.stats.certified_checks, 4);
        assert_eq!(a.counterexamples_replayed, 2);
        assert!(!a.fully_certified());
    }

    #[test]
    fn oracle_hooks_summarize_events() {
        let mut r = dummy(0);
        assert!(!r.structural_proof());
        assert_eq!(r.refinement_steps(), 0);
        assert_eq!(r.refined_signals(), 0);
        assert_eq!(r.fully_certified(), None);
        r.events = vec![
            FlowEvent::HfgAnalysis { paths_exist: true },
            FlowEvent::PropagationsRemoved { count: 2 },
            FlowEvent::UpecCheck { holds: false },
            FlowEvent::PropagationsRemoved { count: 1 },
            FlowEvent::FixedPoint,
        ];
        assert!(!r.structural_proof());
        assert_eq!(r.refinement_steps(), 2);
        assert_eq!(r.refined_signals(), 3);
        r.events.push(FlowEvent::StructuralProof);
        assert!(r.structural_proof());
        r.certification = Some(CertificationSummary::default());
        assert_eq!(r.fully_certified(), Some(true));
        r.certification
            .as_mut()
            .unwrap()
            .failures
            .push("bad".into());
        assert_eq!(r.fully_certified(), Some(false));
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::DataOblivious.to_string(), "True");
        assert_eq!(
            Verdict::ConstrainedDataOblivious(vec!["x".into()]).to_string(),
            "Constrained"
        );
        assert_eq!(Verdict::NotDataOblivious.to_string(), "False");
    }
}

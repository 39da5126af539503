//! The formal-only baseline: original UPEC-DIT as in [22].
//!
//! The baseline skips structural analysis and simulation entirely. It
//! starts the iterative partitioning from `Z' = Z` (all state signals) and
//! inspects **every** counterexample manually: each divergent signal
//! removed from `Z'`, each derived constraint, each added invariant, and
//! each confirmed vulnerability counts toward the effort metric. The gap
//! between this count and FastPath's is exactly Table I's "Reduction".
//!
//! It runs the FastPath flow's refinement loop under a plan of its own:
//! no structural or simulation stage, a state-only check before each full
//! one, and `Z'` kept across a derived constraint.

use crate::cache::CheckKind;
use crate::flow::{run_flow, FlowOptions, FlowPlan};
use crate::report::FlowReport;
use crate::study::CaseStudy;

/// Runs the formal-only UPEC-DIT baseline on a case study.
pub fn run_baseline(study: &CaseStudy) -> FlowReport {
    run_baseline_with(study, FlowOptions::default())
}

/// Runs the baseline with options. Only the certification, cache, clause
/// store, encoding and engine switches of [`FlowOptions`] apply — the
/// baseline has no structural or simulation stage to ablate.
pub fn run_baseline_with(study: &CaseStudy, options: FlowOptions) -> FlowReport {
    let plan = FlowPlan {
        tag: "baseline",
        structural: false,
        simulate: false,
        // The original procedure inspects internal propagations in
        // discovery order; only when the state partitioning is stable is
        // the full property (including the attacker-observable outputs)
        // concluded.
        checks: &[CheckKind::StateOnly, CheckKind::Full],
    };
    run_flow(study, &options, &plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::run_fastpath;
    use crate::report::{effort_reduction, Verdict};
    use crate::study::DesignInstance;
    use fastpath_rtl::ModuleBuilder;

    /// A wide data path: IFT discharges it for free, the baseline inspects
    /// every register on it.
    fn wide_datapath() -> CaseStudy {
        let mut b = ModuleBuilder::new("wide");
        let data = b.data_input("data", 8);
        let d = b.sig(data);
        let mut prev = d;
        for i in 0..6 {
            let r = b.reg(&format!("stage{i}"), 8, 0);
            b.set_next(r, prev).expect("drive");
            prev = b.sig(r);
        }
        b.data_output("out", prev);
        let tick = b.reg("tick", 1, 0);
        let t = b.sig(tick);
        let nt = b.not(t);
        b.set_next(tick, nt).expect("drive");
        b.control_output("phase", t);
        // A benign structural connection so the HFG cannot discharge the
        // design early: both mux branches are identical, so no information
        // actually flows.
        let data_bit = b.bit(d, 0);
        let shaped = b.mux(data_bit, t, t);
        b.control_output("phase_dbg", shaped);
        let mut study = CaseStudy::new("wide", DesignInstance::new(b.build().expect("valid")));
        study.cycles = 100;
        study
    }

    #[test]
    fn baseline_inspects_the_pipeline_fastpath_does_not() {
        let study = wide_datapath();
        let base = run_baseline(&study);
        let fast = run_fastpath(&study);
        assert_eq!(base.verdict, Verdict::DataOblivious);
        assert_eq!(fast.verdict, Verdict::DataOblivious);
        // All six pipeline registers are data propagations.
        assert_eq!(base.total_propagations, Some(6));
        assert_eq!(fast.total_propagations, Some(6));
        // The baseline inspected them manually; FastPath's IFT pass found
        // them automatically.
        assert_eq!(base.manual_inspections, 6);
        assert_eq!(fast.manual_inspections, 0);
        assert_eq!(effort_reduction(&base, &fast), 100.0);
    }

    #[test]
    fn certified_baseline_replays_every_counterexample() {
        let study = wide_datapath();
        let report = run_baseline_with(
            &study,
            FlowOptions {
                certify: true,
                ..FlowOptions::default()
            },
        );
        assert_eq!(report.verdict, Verdict::DataOblivious);
        let cert = report.certification.expect("certification requested");
        assert!(cert.fully_certified(), "{:?}", cert.failures);
        // Every divergence the baseline inspected was replayed concretely.
        assert!(cert.counterexamples_replayed >= 1);
        assert!(cert.stats.sat_models >= 1, "{:?}", cert.stats);
        assert!(
            cert.stats.unsat_proofs + cert.stats.trivial_unsat >= 1,
            "{:?}",
            cert.stats
        );
    }
}

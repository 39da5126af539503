//! Fig. 1 reproduction: the FastPath flow diagram's nodes and feedback
//! edges must all be exercised somewhere across the case-study suite.
//!
//! Fig. 1's elements:
//! - the three stages (structural analysis, IFT simulation, UPEC);
//! - early exit by structural proof;
//! - "counterexample -> update specification with new constraints";
//! - "counterexample -> property refinement" (invariants / removals);
//! - "security violation -> fix design";
//! - "guarantee that the design is secure" (fixed point).

use fastpath::{run_fastpath, FlowEvent, Stage};

fn all_events() -> Vec<FlowEvent> {
    fastpath_designs::all_case_studies()
        .iter()
        .flat_map(|s| run_fastpath(s).events)
        .collect()
}

#[test]
fn every_fig1_edge_is_taken_somewhere_in_the_suite() {
    let events = all_events();

    // Stage nodes.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FlowEvent::HfgAnalysis { .. })),
        "structural analysis runs"
    );
    assert!(
        events.iter().any(|e| matches!(e, FlowEvent::IftRun { .. })),
        "IFT simulation runs"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FlowEvent::UpecCheck { .. })),
        "UPEC property checks run"
    );

    // Early structural exit (the crypto accelerators).
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FlowEvent::StructuralProof)),
        "structural early exit taken"
    );

    // Constraint derivation from both stages (feedback edge: update the
    // specification and re-simulate).
    assert!(
        events.iter().any(|e| matches!(
            e,
            FlowEvent::ConstraintDerived {
                stage: Stage::Simulation,
                ..
            }
        )),
        "constraint derived from a simulation counterexample"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            FlowEvent::ConstraintDerived {
                stage: Stage::Formal,
                ..
            }
        )),
        "constraint derived from a formal counterexample (backtrack edge)"
    );

    // Property refinements.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FlowEvent::InvariantAdded { .. })),
        "spurious counterexamples handled with invariants"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FlowEvent::PropagationsRemoved { .. })),
        "legal propagations removed from Z'"
    );

    // Flow-policy refinement (the CVA6 conservative-policy anecdote).
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FlowEvent::PolicyRefined { .. })),
        "IFT flow policy refined"
    );

    // The vulnerability edge: violation -> fix design -> start over.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, FlowEvent::VulnerabilityFound { .. })),
        "a genuine vulnerability is confirmed"
    );
    assert!(
        events.iter().any(|e| matches!(e, FlowEvent::DesignFixed)),
        "the design-fix restart edge is taken"
    );

    // The exit: a proven fixed point.
    assert!(
        events.iter().any(|e| matches!(e, FlowEvent::FixedPoint)),
        "a security guarantee (fixed point) is produced"
    );
}

#[test]
fn fixed_point_is_always_preceded_by_a_holding_check() {
    for study in fastpath_designs::all_case_studies() {
        let report = run_fastpath(&study);
        let events = &report.events;
        for (i, e) in events.iter().enumerate() {
            if matches!(e, FlowEvent::FixedPoint) {
                assert!(
                    matches!(
                        events.get(i.wrapping_sub(1)),
                        Some(FlowEvent::UpecCheck { holds: true })
                    ),
                    "{}: fixed point must follow a successful check",
                    study.name
                );
            }
        }
    }
}

#[test]
fn ablations_change_effort_but_not_verdicts() {
    use fastpath::{run_fastpath_with, FlowOptions, Verdict};
    // Without the HFG early exit, SHA512 still proves via UPEC — but it
    // costs IFT + formal work instead of a structural lookup, and the
    // baseline-style inspections stay at zero because IFT seeds the proof.
    let sha = fastpath_designs::sha512::case_study();
    let no_hfg = run_fastpath_with(
        &sha,
        FlowOptions {
            skip_hfg: true,
            ..FlowOptions::default()
        },
    );
    assert_eq!(no_hfg.verdict, Verdict::DataOblivious);
    assert_eq!(no_hfg.method, fastpath::CompletionMethod::Upec);
    // The random testbench never completes a full 80-round digest, so the
    // eight digest registers stay untainted and the formal step discovers
    // them as legal propagations — more effort than the structural proof
    // (0), still far below the baseline (~32).
    assert!(no_hfg.manual_inspections > 0);
    assert!(no_hfg.manual_inspections <= 10);

    // Without IFT seeding, the same verdict is reached but the inspections
    // degenerate toward the baseline's.
    let fwrisc = fastpath_designs::fwrisc_mds::case_study();
    let with_ift = run_fastpath_with(&fwrisc, FlowOptions::default());
    let without_ift = run_fastpath_with(
        &fwrisc,
        FlowOptions {
            skip_ift_seeding: true,
            ..FlowOptions::default()
        },
    );
    assert_eq!(with_ift.verdict, without_ift.verdict);
    assert!(
        without_ift.manual_inspections > with_ift.manual_inspections,
        "IFT seeding must reduce manual effort: {} vs {}",
        without_ift.manual_inspections,
        with_ift.manual_inspections
    );
    // A constraint derived without simulation keeps `Z'`, so every
    // register is found and counted as a propagation exactly once.
    let removed: usize = without_ift
        .events
        .iter()
        .map(|e| match e {
            FlowEvent::PropagationsRemoved { count } => *count,
            _ => 0,
        })
        .sum();
    assert_eq!(Some(removed), without_ift.total_propagations);
}

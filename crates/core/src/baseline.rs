//! The formal-only baseline: original UPEC-DIT as in [22].
//!
//! The baseline skips structural analysis and simulation entirely. It
//! starts the iterative partitioning from `Z' = Z` (all state signals) and
//! inspects **every** counterexample manually: each divergent signal
//! removed from `Z'`, each derived constraint, each added invariant, and
//! each confirmed vulnerability counts toward the effort metric. The gap
//! between this count and FastPath's is exactly Table I's "Reduction".

use crate::cache::CheckKind;
use crate::flow::{
    active_check_key, ensure_upec_engine, finish_upec_proved, sync_spec_entries, try_ic3_discharge,
    DischargeResult, FlowContext, FlowOptions, Ic3State, SyncedSpec,
};
use crate::report::{
    CertificationSummary, CompletionMethod, FlowEvent, FlowReport, Stage, Verdict,
};
use crate::study::CaseStudy;
use crate::witness::WitnessReplay;
use fastpath_formal::{Upec2Safety, UpecEngine, UpecOutcome};
use fastpath_rtl::SignalId;
use std::collections::BTreeSet;
use std::time::Instant;

/// Runs the formal-only UPEC-DIT baseline on a case study.
pub fn run_baseline(study: &CaseStudy) -> FlowReport {
    run_baseline_with(study, FlowOptions::default())
}

/// Runs the baseline with options. Only the certification switches of
/// [`FlowOptions`] apply — the baseline has no structural or simulation
/// stage to ablate.
pub fn run_baseline_with(study: &CaseStudy, options: FlowOptions) -> FlowReport {
    let mut ctx = FlowContext::new(study);
    ctx.cache = options.cache.clone();
    if options.certify || ctx.cache.is_some() {
        ctx.certification = Some(CertificationSummary::default());
    }
    let mut instance = &study.instance;
    let mut fixed_used = false;

    'design: loop {
        let module = &instance.module;
        let canon = ctx
            .cache
            .is_some()
            .then(|| fastpath_rtl::canonical_form(module));
        let mut z_prime: BTreeSet<SignalId> = module.state_signals().into_iter().collect();
        let mut active_constraints: Vec<usize> = Vec::new();
        let mut active_invariants: Vec<usize> = Vec::new();
        let mut active_cond_eqs: Vec<usize> = Vec::new();
        // How much of the active spec has been pushed into the engine.
        let mut synced = SyncedSpec::default();
        // The design's SecIC3 engine, created lazily on the first cold
        // escalation attempt.
        let mut ic3: Option<Ic3State<'_>> = None;

        // One engine per design instance, created lazily on the first
        // cache miss: the frame template is elaborated once and the
        // incremental SAT solver survives every refinement iteration
        // below (spec growth included). A fully warm cache run never
        // elaborates at all.
        let mut upec: Option<Upec2Safety<'_>> = None;

        // Ensures the engine exists and is synced with every active spec
        // entry, then evaluates to `&mut` on it. A macro (not a closure)
        // so the borrows of `ctx` and the activation vectors stay local
        // to each expansion.
        macro_rules! engine {
            () => {{
                let engine = ensure_upec_engine(&mut upec, module, &options, &mut ctx, "baseline");
                sync_spec_entries(
                    engine,
                    instance,
                    &active_constraints,
                    &active_invariants,
                    &active_cond_eqs,
                    &mut synced,
                );
                engine
            }};
        }

        {
            loop {
                let z_vec: Vec<SignalId> = z_prime.iter().copied().collect();
                // The original procedure inspects internal propagations in
                // discovery order; only when the state partitioning is
                // stable is the full property (including the attacker
                // -observable outputs) concluded.
                let key = canon.as_ref().map(|canon| {
                    active_check_key(
                        canon,
                        CheckKind::StateOnly,
                        options.upec_encoding,
                        instance,
                        &z_vec,
                        &active_constraints,
                        &active_invariants,
                        &active_cond_eqs,
                    )
                });
                let mut cached = None;
                if let Some(key) = &key {
                    let t0 = Instant::now();
                    cached = ctx.try_cached_check(key, module, instance, &active_cond_eqs);
                    ctx.timings.formal_checks += t0.elapsed();
                }
                let mut outcome = match cached {
                    Some(outcome) => outcome,
                    None => {
                        let engine = engine!();
                        let t0 = Instant::now();
                        let outcome = if ctx.certification.is_some() {
                            let certified = engine.check_state_only_certified(&z_vec);
                            ctx.record_certificate(&certified);
                            let artifact = engine.take_last_artifact();
                            ctx.store_cached_check(key.as_ref(), &certified, artifact);
                            certified.outcome
                        } else {
                            engine.check_state_only(&z_vec)
                        };
                        ctx.timings.formal_checks += t0.elapsed();
                        outcome
                    }
                };
                if outcome.holds() {
                    let key = canon.as_ref().map(|canon| {
                        active_check_key(
                            canon,
                            CheckKind::Full,
                            options.upec_encoding,
                            instance,
                            &z_vec,
                            &active_constraints,
                            &active_invariants,
                            &active_cond_eqs,
                        )
                    });
                    let mut cached = None;
                    if let Some(key) = &key {
                        let t0 = Instant::now();
                        cached = ctx.try_cached_check(key, module, instance, &active_cond_eqs);
                        ctx.timings.formal_checks += t0.elapsed();
                    }
                    outcome = match cached {
                        Some(outcome) => outcome,
                        None => {
                            let engine = engine!();
                            let t0 = Instant::now();
                            let outcome = if ctx.certification.is_some() {
                                let certified = engine.check_certified(&z_vec);
                                ctx.record_certificate(&certified);
                                let artifact = engine.take_last_artifact();
                                ctx.store_cached_check(key.as_ref(), &certified, artifact);
                                certified.outcome
                            } else {
                                engine.check(&z_vec)
                            };
                            ctx.timings.formal_checks += t0.elapsed();
                            outcome
                        }
                    };
                }
                ctx.timings.check_count += 1;
                ctx.events.push(FlowEvent::UpecCheck {
                    holds: outcome.holds(),
                });
                let cex = match outcome {
                    UpecOutcome::Holds => {
                        return finish_upec_proved(
                            ctx,
                            module,
                            instance,
                            upec.as_ref(),
                            &active_constraints,
                            z_prime.len(),
                            None,
                        );
                    }
                    UpecOutcome::Counterexample(cex) => cex,
                };

                ctx.confirm_replay(module, instance, &active_cond_eqs, &cex);
                let replay = WitnessReplay::new(module, &cex);

                // Same escalation policy as the FastPath flow: on the
                // constrained track, before any classification that costs
                // manual inspections, SecIC3 may discharge the
                // obligations outright (unconstrained runs, scenario
                // exclusion and genuine output divergence are never
                // escalated). The discharge re-validates through the
                // full-property check, which subsumes the state-only one.
                macro_rules! escalate {
                    () => {
                        if options.upec_engine == UpecEngine::Ic3 && !active_constraints.is_empty()
                        {
                            match try_ic3_discharge(
                                &mut ctx,
                                &options,
                                module,
                                instance,
                                canon.as_ref(),
                                &mut upec,
                                &mut synced,
                                &mut ic3,
                                &z_vec,
                                &active_constraints,
                                &active_invariants,
                                &active_cond_eqs,
                            ) {
                                DischargeResult::Proved => {
                                    return finish_upec_proved(
                                        ctx,
                                        module,
                                        instance,
                                        upec.as_ref(),
                                        &active_constraints,
                                        z_prime.len(),
                                        None,
                                    );
                                }
                                DischargeResult::Failed => {}
                            }
                        }
                    };
                }

                if let Some(ii) = instance.invariants.iter().enumerate().position(|(i, inv)| {
                    !active_invariants.contains(&i) && !replay.invariant_holds(module, inv.expr)
                }) {
                    escalate!();
                    ctx.inspections += 1;
                    active_invariants.push(ii);
                    ctx.events.push(FlowEvent::InvariantAdded {
                        name: instance.invariants[ii].name.clone(),
                    });
                    continue;
                }

                if let Some(ci) = instance.cond_eqs.iter().enumerate().position(|(i, ce)| {
                    !active_cond_eqs.contains(&i)
                        && crate::flow::cond_eq_violated_in_witness(module, &replay, ce)
                }) {
                    escalate!();
                    ctx.inspections += 1;
                    active_cond_eqs.push(ci);
                    ctx.events.push(FlowEvent::InvariantAdded {
                        name: instance.cond_eqs[ci].name.clone(),
                    });
                    continue;
                }

                if let Some(ci) = instance.constraints.iter().enumerate().position(|(i, c)| {
                    !active_constraints.contains(&i) && !replay.constraint_holds(module, c.expr)
                }) {
                    ctx.inspections += 1;
                    active_constraints.push(ci);
                    ctx.events.push(FlowEvent::ConstraintDerived {
                        name: instance.constraints[ci].name.clone(),
                        stage: Stage::Formal,
                    });
                    continue;
                }

                if !cex.divergent_outputs.is_empty() {
                    ctx.inspections += 1;
                    let names: Vec<String> = cex
                        .divergent_outputs
                        .iter()
                        .map(|&y| module.signal(y).name.clone())
                        .collect();
                    let description = format!(
                        "confidential data reaches control output(s) {}",
                        names.join(", ")
                    );
                    ctx.vulnerabilities.push(description.clone());
                    ctx.events.push(FlowEvent::VulnerabilityFound {
                        description,
                        stage: Stage::Formal,
                    });
                    ctx.absorb_engine(upec.as_ref());
                    if let (Some(fixed), false) = (&study.fixed_instance, fixed_used) {
                        fixed_used = true;
                        instance = fixed;
                        ctx.events.push(FlowEvent::DesignFixed);
                        continue 'design;
                    }
                    return ctx.finish(
                        module,
                        Verdict::NotDataOblivious,
                        CompletionMethod::Upec,
                        None,
                        Some(module.state_signals().len() - z_prime.len()),
                    );
                }

                escalate!();
                debug_assert!(!cex.divergent_state.is_empty());
                ctx.inspections += cex.divergent_state.len() as u64;
                for s in &cex.divergent_state {
                    z_prime.remove(s);
                }
                ctx.events.push(FlowEvent::PropagationsRemoved {
                    count: cex.divergent_state.len(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::run_fastpath;
    use crate::report::effort_reduction;
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
        use crate::flow::FlowOptions;
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

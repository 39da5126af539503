//! The differential oracle: run one [`FuzzCase`] through all three
//! FastPath stages and check the soundness lattice that ties them
//! together (see DESIGN.md, "Differential oracle & soundness lattice").
//!
//! The invariants, in the order they are checked:
//!
//! 1. **HfgQuiet** — if the HFG proves no structural path from `X_D` to
//!    `Y_C`, then no IFT run under any testbench seed may observe taint
//!    on a control output (the HFG over-approximates real flows).
//! 2. **TaintInCone** — every state signal the IFT step taints, and every
//!    violated control output, lies inside the HFG reachable cone of
//!    `X_D` (the contrapositive of over-approximation, per signal).
//! 3. **ConeInductive** — the state *outside* the reachable cone is
//!    inductively 2-safety equal for *any* design: non-cone registers
//!    have next-state functions over non-cone signals only, which are
//!    all either shared or constrained equal. If additionally no flow is
//!    possible at all, the full check (including output observation)
//!    must hold.
//! 4. **ReplayConcrete** / **RefinementTermination** — every UPEC
//!    counterexample produced while refining the IFT-seeded `Z'` must
//!    replay concretely in 2 cycles of plain simulation, and the
//!    refinement loop must terminate within `|state| + 2` checks.
//! 5. **VerdictAgreement** — the fastpath must never prove a design the
//!    exhaustive baseline rejects. (The other direction is legal: taint
//!    labels over-approximate, e.g. `xor(d, d)` is constant yet
//!    tainted, so fastpath *False* with baseline *True* only documents
//!    policy imprecision; the oracle records it but does not fail.)
//! 6. **CertificateValid** — with certification enabled, every SAT-level
//!    verdict along the way carries a DRUP certificate that the
//!    independent checker accepts.
//! 7. **EncodingAgreement** — the word-level guarded-predicate UPEC
//!    encoding (the flow default) and the flat bit-equality reference
//!    oracle must reproduce each other's verdict, completing stage, and
//!    inspection count exactly; with certification on, the bits re-run
//!    must also be fully certified.
//! 8. **Ic3Agreement** — the IC3-escalating flow (the engine default)
//!    must never be *weaker* than the escalation-free induction
//!    reference: its verdict ranks at least as strong, it never inspects
//!    more counterexamples, and any constraint it activates the
//!    reference activated too (a certified discharge may only remove
//!    work, never add it); with certification on, the induction re-run
//!    must also be fully certified.
//!
//! An extra, zero-trust cross-check — **EngineEquivalence** — runs the
//! compiled and interpretive simulators side by side on the same case
//! (values, taint, IFT reports) via [`fastpath_sim::diff`].

use crate::gen::FuzzCase;
use fastpath::{
    confirm_counterexample, run_baseline_with, run_fastpath_with, CaseStudy, CompletionMethod,
    DesignInstance, FlowOptions, UpecEncoding, UpecEngine, Verdict,
};
use fastpath_formal::{Upec2Safety, UpecOutcome, UpecSpec};
use fastpath_hfg::{extract_hfg, PathQuery};
use fastpath_rtl::SignalId;
use fastpath_sim::{diff, IftReport, IftSimulation, RandomTestbench};
use std::fmt;

/// Which lattice invariant a [`Violation`] falls under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvariantKind {
    /// HFG says no flow, yet IFT taint reached a control output.
    HfgQuiet,
    /// IFT tainted something outside the HFG reachable cone.
    TaintInCone,
    /// State outside the reachable cone failed the inductive 2-safety
    /// check (or, under no-flow, the full check).
    ConeInductive,
    /// A UPEC counterexample did not replay concretely.
    ReplayConcrete,
    /// The refinement loop exceeded its check budget or stopped making
    /// progress without a divergent output.
    RefinementTermination,
    /// Fastpath proved a design the exhaustive baseline rejects, or the
    /// stage verdicts are otherwise structurally inconsistent.
    VerdictAgreement,
    /// A certification-enabled verdict failed its DRUP check.
    CertificateValid,
    /// The word-level UPEC encoding diverged from the bit-level
    /// reference encoding.
    EncodingAgreement,
    /// The IC3-escalating flow produced a weaker verdict, more
    /// inspections, or a larger constraint set than the escalation-free
    /// induction reference.
    Ic3Agreement,
    /// Compiled and interpretive simulators disagreed.
    EngineEquivalence,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantKind::HfgQuiet => "hfg-quiet",
            InvariantKind::TaintInCone => "taint-in-cone",
            InvariantKind::ConeInductive => "cone-inductive",
            InvariantKind::ReplayConcrete => "replay-concrete",
            InvariantKind::RefinementTermination => "refinement-termination",
            InvariantKind::VerdictAgreement => "verdict-agreement",
            InvariantKind::CertificateValid => "certificate-valid",
            InvariantKind::EncodingAgreement => "encoding-agreement",
            InvariantKind::Ic3Agreement => "ic3-agreement",
            InvariantKind::EngineEquivalence => "engine-equivalence",
        };
        f.write_str(s)
    }
}

/// One invariant violation, with a human-readable diagnosis.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The invariant that failed.
    pub kind: InvariantKind,
    /// What exactly went wrong.
    pub detail: String,
}

/// Test-only fault injection, used to prove the oracle actually has
/// teeth: a fuzzer whose oracle cannot catch a planted bug is theater.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultInjection {
    /// No fault: check the real pipeline.
    #[default]
    None,
    /// Pretend the HFG found no paths at all (sources-only cone,
    /// `no_flow = true`), simulating a structurally unsound HFG
    /// extraction. Any design with a real data flow must now trip
    /// HfgQuiet / TaintInCone / ConeInductive.
    HfgUnderApprox,
}

/// Oracle configuration.
#[derive(Clone, Debug)]
pub struct OracleOptions {
    /// Certify every SAT verdict with DRUP proofs and check them.
    pub certify: bool,
    /// Also run the compiled-vs-interpretive simulator battery.
    pub check_engines: bool,
    /// Re-run both flows with the bit-level UPEC encoding and demand
    /// verdict/method/inspection agreement with the word-level runs.
    pub check_encodings: bool,
    /// Re-run both flows with the escalation-free induction engine and
    /// demand the IC3-escalating runs are never weaker.
    pub check_ic3: bool,
    /// Fault injection (tests only).
    pub fault: FaultInjection,
}

impl Default for OracleOptions {
    fn default() -> Self {
        OracleOptions {
            certify: false,
            check_engines: true,
            check_encodings: true,
            check_ic3: true,
            fault: FaultInjection::None,
        }
    }
}

/// Everything the oracle observed about one case.
#[derive(Clone, Debug)]
pub struct OracleOutcome {
    /// HFG verdict: no structural path from `X_D` to `Y_C`.
    pub no_flow: bool,
    /// Size of the HFG reachable cone of `X_D` (in signals).
    pub cone_size: usize,
    /// IFT violations observed (first run).
    pub ift_violations: usize,
    /// Fastpath verdict.
    pub fast_verdict: Verdict,
    /// Stage that completed the fastpath.
    pub fast_method: CompletionMethod,
    /// Exhaustive-baseline verdict.
    pub base_verdict: Verdict,
    /// Fastpath said False where the baseline said True — legal taint
    /// over-approximation, recorded for corpus bucketing.
    pub soft_disagreement: bool,
    /// All invariant violations, in check order.
    pub violations: Vec<Violation>,
}

impl OracleOutcome {
    /// A short bucket label ("flow/IFT/False/False") used for outcome
    /// statistics and corpus file names.
    pub fn signature(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            if self.no_flow { "noflow" } else { "flow" },
            self.fast_method,
            verdict_tag(&self.fast_verdict),
            verdict_tag(&self.base_verdict),
        )
    }
}

fn verdict_tag(v: &Verdict) -> &'static str {
    match v {
        Verdict::DataOblivious => "True",
        Verdict::ConstrainedDataOblivious(_) => "Constrained",
        Verdict::NotDataOblivious => "False",
    }
}

/// Runs one engine-level UPEC check, certified when requested, recording
/// a [`InvariantKind::CertificateValid`] violation if the DRUP check
/// fails.
fn run_check(
    engine: &mut Upec2Safety<'_>,
    z: &[SignalId],
    state_only: bool,
    certify: bool,
    label: &str,
    violations: &mut Vec<Violation>,
) -> UpecOutcome {
    if certify {
        let certified = if state_only {
            engine.check_state_only_certified(z)
        } else {
            engine.check_certified(z)
        };
        if !certified.is_certified() {
            violations.push(Violation {
                kind: InvariantKind::CertificateValid,
                detail: format!(
                    "{label}: certificate rejected: {:?}",
                    certified.certificate.as_ref().err()
                ),
            });
        }
        certified.outcome
    } else if state_only {
        engine.check_state_only(z)
    } else {
        engine.check(z)
    }
}

/// Runs the full oracle on one case.
pub fn check_case(case: &FuzzCase, opts: &OracleOptions) -> OracleOutcome {
    let module = &case.module;
    let mut violations = Vec::new();

    // Stage 1: the HFG verdict and the reachable cone of X_D.
    let data_inputs = module.data_inputs();
    let control_outputs = module.control_outputs();
    let hfg = extract_hfg(module);
    let query = PathQuery::new(&hfg);
    let (no_flow, cone) = match opts.fault {
        FaultInjection::None => (
            query.no_flow_possible(&data_inputs, &control_outputs),
            query.reachable_cone(&data_inputs),
        ),
        FaultInjection::HfgUnderApprox => {
            let mut cone = data_inputs.clone();
            cone.sort_unstable();
            (true, cone)
        }
    };

    // Stage 2: IFT under two independent testbench seeds. Invariants 1
    // and 2 must hold for every run.
    let mut reports: Vec<IftReport> = Vec::new();
    for ift_seed in [case.sim_seed, case.sim_seed ^ 0x9E37_79B9_7F4A_7C15] {
        let sim = IftSimulation::new(case.cycles)
            .with_policy(case.policy)
            .with_declassified(&case.declassified);
        let mut tb = RandomTestbench::new(module, ift_seed);
        let report = sim.run(module, &mut tb);
        if no_flow && !report.property_holds() {
            violations.push(Violation {
                kind: InvariantKind::HfgQuiet,
                detail: format!(
                    "HFG proved no flow, but IFT (seed {ift_seed}) saw \
                     {} violation(s), first on `{}`",
                    report.violations.len(),
                    module.signal(report.violations[0].output).name,
                ),
            });
        }
        for &z in &report.tainted_state {
            if cone.binary_search(&z).is_err() {
                violations.push(Violation {
                    kind: InvariantKind::TaintInCone,
                    detail: format!(
                        "state `{}` is IFT-tainted (seed {ift_seed}) but \
                         outside the HFG reachable cone of X_D",
                        module.signal(z).name,
                    ),
                });
            }
        }
        for v in &report.violations {
            if cone.binary_search(&v.output).is_err() {
                violations.push(Violation {
                    kind: InvariantKind::TaintInCone,
                    detail: format!(
                        "control output `{}` is IFT-violated (seed \
                         {ift_seed}) but outside the HFG reachable cone",
                        module.signal(v.output).name,
                    ),
                });
            }
        }
        reports.push(report);
    }

    // Stage 3a: cone-complement induction. Registers outside the
    // reachable cone have next-state functions over non-cone signals
    // only — all shared or constrained equal across the two instances —
    // so their equality is inductive for ANY design, reachable or not.
    let state = module.state_signals();
    let spec = UpecSpec::default();
    let z_cone: Vec<SignalId> = state
        .iter()
        .copied()
        .filter(|s| cone.binary_search(s).is_err())
        .collect();
    {
        let mut engine = Upec2Safety::new(module, &spec);
        if opts.certify {
            engine.enable_certification();
        }
        let outcome = run_check(
            &mut engine,
            &z_cone,
            true,
            opts.certify,
            "cone-complement state-only",
            &mut violations,
        );
        if let UpecOutcome::Counterexample(cex) = &outcome {
            violations.push(Violation {
                kind: InvariantKind::ConeInductive,
                detail: format!(
                    "state outside the HFG cone diverged inductively: {:?}",
                    cex.divergent_state
                        .iter()
                        .map(|&s| module.signal(s).name.as_str())
                        .collect::<Vec<_>>(),
                ),
            });
        }
        if no_flow {
            let outcome = run_check(
                &mut engine,
                &z_cone,
                false,
                opts.certify,
                "no-flow full check",
                &mut violations,
            );
            if !outcome.holds() {
                violations.push(Violation {
                    kind: InvariantKind::ConeInductive,
                    detail: "HFG proved no flow, yet the full 2-safety \
                             check on the cone complement failed"
                        .to_string(),
                });
            }
        }
    }

    // Stage 3b: the IFT-seeded refinement loop. Every counterexample
    // must replay concretely, every step must make progress, and the
    // loop must terminate within |state| + 2 checks.
    {
        let mut engine = Upec2Safety::new(module, &spec);
        if opts.certify {
            engine.enable_certification();
        }
        let mut z: Vec<SignalId> = reports[0].untainted_state.clone();
        let budget = state.len() + 2;
        let mut checks = 0usize;
        loop {
            if checks >= budget {
                violations.push(Violation {
                    kind: InvariantKind::RefinementTermination,
                    detail: format!(
                        "refinement loop still running after {budget} \
                         checks over {} state signals",
                        state.len(),
                    ),
                });
                break;
            }
            checks += 1;
            let outcome = run_check(
                &mut engine,
                &z,
                false,
                opts.certify,
                "refinement check",
                &mut violations,
            );
            let cex = match outcome {
                UpecOutcome::Holds => break,
                UpecOutcome::Counterexample(cex) => cex,
            };
            if let Err(err) = confirm_counterexample(module, &[], &cex) {
                violations.push(Violation {
                    kind: InvariantKind::ReplayConcrete,
                    detail: format!(
                        "counterexample at refinement step {checks} did \
                         not replay concretely: {err}",
                    ),
                });
                break;
            }
            let before = z.len();
            z.retain(|s| !cex.divergent_state.contains(s));
            if z.len() == before {
                // No state removed: only legitimate if observable
                // outputs genuinely diverged (a real leak).
                if cex.divergent_outputs.is_empty() {
                    violations.push(Violation {
                        kind: InvariantKind::RefinementTermination,
                        detail: format!(
                            "refinement step {checks} made no progress: \
                             no divergent state, no divergent outputs",
                        ),
                    });
                }
                break;
            }
        }
    }

    // Full-flow level: fastpath vs exhaustive baseline.
    let mut instance = DesignInstance::new(module.clone());
    instance.initial_declassified = case.declassified.clone();
    let mut study = CaseStudy::new(module.name().to_string(), instance);
    study.cycles = case.cycles;
    study.seed = case.sim_seed;
    study.policy = case.policy;
    let flow_opts = FlowOptions {
        certify: opts.certify,
        ..FlowOptions::default()
    };
    let fast = run_fastpath_with(&study, flow_opts.clone());
    let base = run_baseline_with(&study, flow_opts);

    if no_flow && opts.fault == FaultInjection::None {
        if !(fast.structural_proof()
            && fast.method == CompletionMethod::Hfg
            && fast.manual_inspections == 0
            && fast.verdict == Verdict::DataOblivious)
        {
            violations.push(Violation {
                kind: InvariantKind::HfgQuiet,
                detail: format!(
                    "oracle HFG proved no flow, but the fastpath \
                     completed via {} with verdict {} and {} \
                     inspection(s)",
                    fast.method, fast.verdict, fast.manual_inspections,
                ),
            });
        }
        if base.verdict != Verdict::DataOblivious {
            violations.push(Violation {
                kind: InvariantKind::HfgQuiet,
                detail: format!(
                    "oracle HFG proved no flow, but the exhaustive \
                     baseline returned {}",
                    base.verdict,
                ),
            });
        }
    }
    if no_flow && opts.fault == FaultInjection::HfgUnderApprox {
        // The injected fault claims no-flow; if the real flow disagrees
        // (it ran the honest HFG), the under-approximation is exposed.
        if !fast.structural_proof() {
            violations.push(Violation {
                kind: InvariantKind::HfgQuiet,
                detail: "injected no-flow claim contradicted by the \
                         flow's own HFG stage"
                    .to_string(),
            });
        }
    }
    let soft_disagreement =
        fast.verdict == Verdict::NotDataOblivious && base.verdict == Verdict::DataOblivious;
    if fast.verdict == Verdict::DataOblivious && base.verdict == Verdict::NotDataOblivious {
        violations.push(Violation {
            kind: InvariantKind::VerdictAgreement,
            detail: "fastpath proved the design data-oblivious, but the \
                     exhaustive baseline found it leaky"
                .to_string(),
        });
    }
    if opts.certify {
        for (label, report) in [("fastpath", &fast), ("baseline", &base)] {
            if report.fully_certified() != Some(true) {
                violations.push(Violation {
                    kind: InvariantKind::CertificateValid,
                    detail: format!(
                        "{label} flow ran with --certify but is not \
                         fully certified: {:?}",
                        report.certification.as_ref().map(|c| &c.failures),
                    ),
                });
            }
        }
    }

    // Encoding equivalence: the word-level guarded-predicate encoding
    // (the flow default) and the flat bit-equality reference oracle
    // solve different CNFs over the same property, so the whole hybrid
    // flow and the exhaustive baseline re-run under `bits` must
    // reproduce the word-level verdict, completing stage, and
    // inspection count exactly.
    if opts.check_encodings {
        let bits_opts = FlowOptions {
            certify: opts.certify,
            upec_encoding: UpecEncoding::Bits,
            ..FlowOptions::default()
        };
        let fast_b = run_fastpath_with(&study, bits_opts.clone());
        let base_b = run_baseline_with(&study, bits_opts);
        for (label, words, bits) in [("fastpath", &fast, &fast_b), ("baseline", &base, &base_b)] {
            if words.verdict != bits.verdict
                || words.method != bits.method
                || words.manual_inspections != bits.manual_inspections
            {
                violations.push(Violation {
                    kind: InvariantKind::EncodingAgreement,
                    detail: format!(
                        "{label} diverged between UPEC encodings: words \
                         ({}, {}, {} inspections) vs bits ({}, {}, {} \
                         inspections)",
                        words.verdict,
                        words.method,
                        words.manual_inspections,
                        bits.verdict,
                        bits.method,
                        bits.manual_inspections,
                    ),
                });
            }
            if opts.certify && bits.fully_certified() != Some(true) {
                violations.push(Violation {
                    kind: InvariantKind::CertificateValid,
                    detail: format!(
                        "{label} bits-encoding re-run is not fully \
                         certified: {:?}",
                        bits.certification.as_ref().map(|c| &c.failures),
                    ),
                });
            }
        }
    }

    // Engine differential: the IC3-escalating default vs the
    // escalation-free induction reference. Escalation may only remove
    // work — a weaker verdict, extra inspections, or a constraint the
    // reference never needed all mean an unsound discharge.
    if opts.check_ic3 {
        let rank = |v: &Verdict| match v {
            Verdict::DataOblivious => 2,
            Verdict::ConstrainedDataOblivious(_) => 1,
            Verdict::NotDataOblivious => 0,
        };
        let ind_opts = FlowOptions {
            certify: opts.certify,
            upec_engine: UpecEngine::Induction,
            ..FlowOptions::default()
        };
        let fast_i = run_fastpath_with(&study, ind_opts.clone());
        let base_i = run_baseline_with(&study, ind_opts);
        for (label, ic3, ind) in [("fastpath", &fast, &fast_i), ("baseline", &base, &base_i)] {
            let extra_constraint = match (&ic3.verdict, &ind.verdict) {
                (Verdict::ConstrainedDataOblivious(c3), Verdict::ConstrainedDataOblivious(ci)) => {
                    c3.iter().any(|c| !ci.contains(c))
                }
                _ => false,
            };
            if rank(&ic3.verdict) < rank(&ind.verdict)
                || ic3.manual_inspections > ind.manual_inspections
                || extra_constraint
            {
                violations.push(Violation {
                    kind: InvariantKind::Ic3Agreement,
                    detail: format!(
                        "{label} ic3 run is weaker than the induction \
                         reference: ic3 ({}, {} inspections) vs induction \
                         ({}, {} inspections)",
                        ic3.verdict, ic3.manual_inspections, ind.verdict, ind.manual_inspections,
                    ),
                });
            }
            if opts.certify && ind.fully_certified() != Some(true) {
                violations.push(Violation {
                    kind: InvariantKind::CertificateValid,
                    detail: format!(
                        "{label} induction re-run is not fully certified: \
                         {:?}",
                        ind.certification.as_ref().map(|c| &c.failures),
                    ),
                });
            }
        }
    }

    // Cross-engine battery (compiled vs interpretive simulators).
    if opts.check_engines {
        if let Err(err) = diff::check_engine_equivalence(
            module,
            case.sim_seed,
            case.cycles.min(100),
            &case.declassified,
        ) {
            violations.push(Violation {
                kind: InvariantKind::EngineEquivalence,
                detail: err,
            });
        }
    }

    OracleOutcome {
        no_flow,
        cone_size: cone.len(),
        ift_violations: reports[0].violations.len(),
        fast_verdict: fast.verdict,
        fast_method: fast.method,
        base_verdict: base.verdict,
        soft_disagreement,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_case;

    #[test]
    fn clean_cases_produce_no_violations() {
        for seed in 0..6 {
            let case = generate_case(seed);
            let outcome = check_case(&case, &OracleOptions::default());
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.violations
            );
        }
    }

    #[test]
    fn encoding_agreement_holds_certified() {
        // Words vs bits with full certification on both re-runs: the
        // EncodingAgreement and CertificateValid invariants together.
        let opts = OracleOptions {
            certify: true,
            check_engines: false,
            ..OracleOptions::default()
        };
        for seed in 0..3 {
            let case = generate_case(seed);
            let outcome = check_case(&case, &opts);
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.violations
            );
        }
    }

    #[test]
    fn ic3_agreement_holds_certified() {
        // The IC3-escalating default vs the escalation-free induction
        // reference with full certification on the re-runs: the
        // Ic3Agreement and CertificateValid invariants together.
        let opts = OracleOptions {
            certify: true,
            check_engines: false,
            check_encodings: false,
            ..OracleOptions::default()
        };
        for seed in 0..3 {
            let case = generate_case(seed);
            let outcome = check_case(&case, &opts);
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.violations
            );
        }
    }

    #[test]
    fn injected_hfg_underapproximation_is_caught() {
        let opts = OracleOptions {
            fault: FaultInjection::HfgUnderApprox,
            check_engines: false,
            ..OracleOptions::default()
        };
        let caught = (0..12).any(|seed| {
            !check_case(&generate_case(seed), &opts)
                .violations
                .is_empty()
        });
        assert!(caught, "no seed tripped the planted HFG fault");
    }
}

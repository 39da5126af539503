//! The FastPath verification flow (paper Fig. 1 / Sec. IV).
//!
//! `run_fastpath` drives the three stages with all of Fig. 1's feedback
//! edges:
//!
//! 1. **Structural analysis**: build the HFG; if no path connects any data
//!    input to any control output, terminate with a structural proof.
//! 2. **IFT-enhanced simulation**: check `X_D =/=> Y_C` under the active
//!    software constraints. Violations are *inspected* (each inspection
//!    counted): a violation that disappears under a candidate constraint
//!    derives that constraint (re-simulate); one that disappears under a
//!    flow-policy refinement declassifies a signal (re-simulate); anything
//!    else is a genuine vulnerability — switch to the fixed design variant
//!    and start over, or report *False*.
//! 3. **UPEC-DIT formal verification**: seed the induction with the
//!    untainted state set `Z'` from simulation. Counterexamples are
//!    classified by *replaying the witness*: an invariant false in the
//!    witness marks it spurious (add invariant, re-check); a constraint
//!    false in the witness derives that constraint (backtrack to
//!    simulation, since `Z'` may grow); divergent control outputs are a
//!    vulnerability; otherwise the divergence is legal data propagation and
//!    the divergent signals leave `Z'` (one inspection each).
//!
//! The formal-only baseline of [22] ([`run_baseline`](crate::run_baseline))
//! runs the same loop under a plan of its own: no structural or simulation
//! stage, and a state-only check before each full one.

use crate::cache::{self, CacheKind, CacheStats, CheckKind, ProofCache};
use crate::report::{
    CertificationSummary, CompletionMethod, FlowEvent, FlowReport, SimStats, Stage, StageTimings,
    Verdict,
};
use crate::study::{CaseStudy, DesignInstance};
use crate::witness::{confirm_counterexample, WitnessReplay};
use fastpath_formal::{
    CertifiedOutcome, CheckCertificate, ElaborationStats, Ic3Engine, Ic3Outcome, Ic3Stats,
    ProductStats, ProofArtifact, RelationalInvariant, Upec2Safety, UpecCounterexample,
    UpecEncoding, UpecEngine, UpecOutcome, UpecSpec,
};
use fastpath_hfg::{extract_hfg, PathQuery};
use fastpath_rtl::{CanonicalForm, Digest, ExprId, Module, SignalId};
use fastpath_sat::SolverStats;
use fastpath_sim::{IftReport, IftSimulation, RandomTestbench, SimTape};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Ablation and certification switches for [`run_fastpath_with`].
///
/// Disabling a stage removes its contribution while keeping the rest of
/// the flow intact — the `flow_ablation` benchmarks quantify what each
/// stage buys.
#[derive(Clone, Debug)]
pub struct FlowOptions {
    /// Skip the structural early-exit check (Sec. IV-A).
    pub skip_hfg: bool,
    /// Skip IFT simulation: the formal stage starts from `Z' = Z` like the
    /// original UPEC-DIT, derives constraints and policy purely from
    /// formal counterexamples, and keeps `Z'` across a derived constraint.
    pub skip_ift_seeding: bool,
    /// Independently certify every UPEC verdict: UNSAT answers are
    /// replayed through the `fastpath-cert` RUP proof checker, SAT
    /// answers are model-checked and the counterexample is reproduced by
    /// concrete simulation. The report then carries a
    /// [`CertificationSummary`].
    pub certify: bool,
    /// With [`certify`](Self::certify), also dump each check's DIMACS
    /// formula plus its DRUP proof or model into this directory, in
    /// formats external checkers such as `drat-trim` consume.
    pub dump_artifacts: Option<PathBuf>,
    /// Persistent learnt-clause store: clauses recorded by earlier runs
    /// over structurally identical next-state cones are RUP-probed into
    /// each design's solver, and this run's own short cone-local learnt
    /// clauses are published back to the store's pending set (the caller
    /// decides when to [`save`](fastpath_formal::ClauseStore::save)).
    /// Imports read only the store's immutable base snapshot, so results
    /// stay byte-identical across every parallelism knob.
    pub clause_store: Option<Arc<fastpath_formal::ClauseStore>>,
    /// Content-addressed verification cache (see [`crate::cache`]).
    /// Attaching a cache implies certification: every served verdict is
    /// re-validated on load (UNSAT proofs replayed through the RUP
    /// checker, counterexamples reproduced by concrete simulation), so
    /// the report from a warm run is identical to a cold certified run.
    pub cache: Option<Arc<dyn ProofCache>>,
    /// SAT encoding the flow's UPEC engines start in. A word check that
    /// exhausts its conflict budget is answered through the bit path, and
    /// that engine stays in bits from then on (counted in
    /// [`ProductStats::word_fallbacks`]). Cache keys carry this option,
    /// not the encoding that answered, so a warm run hits every check the
    /// cold run answered. Each encoding steers refinement by its own
    /// counterexamples, so inspection counts can differ between them:
    /// Table I renders identically in both, but the fuzz case at seed 1,
    /// iteration 313 takes 2 inspections under `words` and 1 under `bits`.
    /// Defaults to the word-level guarded-predicate encoding; `bits` is
    /// the flat bit-equality reference oracle.
    pub upec_encoding: UpecEncoding,
    /// Formal engine policy. With [`UpecEngine::Ic3`] (the production
    /// default), whenever a formal counterexample would cost manual
    /// inspections — adding a vocabulary invariant, activating a
    /// conditional equality, or removing legal propagations from `Z'` —
    /// the SecIC3 engine first attempts to derive a relational invariant
    /// that discharges the remaining obligations outright. A discharge is
    /// never trusted on IC3's word alone: the invariant's clauses are
    /// staged into the standard (certified) induction check, whose UNSAT
    /// answer is exactly IC3's consecution theorem. `UpecEngine::default()`
    /// stays `Induction`, the escalation-free reference oracle.
    pub upec_engine: UpecEngine,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            skip_hfg: false,
            skip_ift_seeding: false,
            certify: false,
            dump_artifacts: None,
            clause_store: None,
            cache: None,
            // Word-level guarded predicates are the production default;
            // `UpecEncoding::default()` stays `Bits` so the bare engine
            // remains the reference oracle.
            upec_encoding: UpecEncoding::Words,
            // IC3 escalation is the production default; the engine enum's
            // own default stays `Induction` as the reference oracle.
            upec_engine: UpecEngine::Ic3,
        }
    }
}

/// Runs the complete FastPath flow on a case study.
pub fn run_fastpath(study: &CaseStudy) -> FlowReport {
    run_fastpath_with(study, FlowOptions::default())
}

/// Runs the FastPath flow with ablation options.
pub fn run_fastpath_with(study: &CaseStudy, options: FlowOptions) -> FlowReport {
    let plan = FlowPlan {
        tag: "fastpath",
        structural: !options.skip_hfg,
        simulate: !options.skip_ift_seeding,
        checks: &[CheckKind::Full],
    };
    run_flow(study, &options, &plan)
}

/// What sets one refinement flow apart from another. The FastPath flow
/// and the formal-only baseline differ only in these; everything else is
/// [`run_flow`].
pub(crate) struct FlowPlan {
    /// Names the flow in dumped artifact files.
    pub(crate) tag: &'static str,
    /// Run structural analysis (stage 1) first.
    pub(crate) structural: bool,
    /// Seed `Z'` by IFT simulation (stage 2), and simulate again when the
    /// formal stage derives a constraint, since `Z'` may then grow. A flow
    /// that does not simulate starts from `Z' = Z` and keeps `Z'` across a
    /// derived constraint.
    pub(crate) simulate: bool,
    /// The properties each refinement step checks, in order: the step
    /// answers with the first counterexample, or holds once all hold.
    pub(crate) checks: &'static [CheckKind],
}

/// How the refinement of one design instance ended.
struct Exit {
    verdict: Verdict,
    method: CompletionMethod,
    ift_propagations: Option<usize>,
    total_propagations: Option<usize>,
}

/// Runs a refinement flow on a case study, switching once to the fixed
/// design variant after a confirmed leak.
pub(crate) fn run_flow(study: &CaseStudy, options: &FlowOptions, plan: &FlowPlan) -> FlowReport {
    let mut ctx = FlowContext::new(study, options);
    let mut instance = &study.instance;
    let mut fixed_used = false;
    loop {
        let exit = run_instance(&mut ctx, study, instance, options, plan);
        if exit.verdict == Verdict::NotDataOblivious {
            if let (Some(fixed), false) = (&study.fixed_instance, fixed_used) {
                fixed_used = true;
                instance = fixed;
                ctx.events.push(FlowEvent::DesignFixed);
                continue;
            }
        }
        return ctx.finish(&instance.module, exit);
    }
}

/// Runs the plan's stages on one design instance.
fn run_instance(
    ctx: &mut FlowContext,
    study: &CaseStudy,
    instance: &DesignInstance,
    options: &FlowOptions,
    plan: &FlowPlan,
) -> Exit {
    let module = &instance.module;
    // ---- Stage 1: structural analysis ------------------------------------
    if plan.structural {
        let t0 = Instant::now();
        let hfg = extract_hfg(module);
        let query = PathQuery::new(&hfg);
        let no_flow = query.no_flow_possible(&module.data_inputs(), &module.control_outputs());
        ctx.timings.structural += t0.elapsed();
        ctx.events.push(FlowEvent::HfgAnalysis {
            paths_exist: !no_flow,
        });
        if no_flow {
            ctx.events.push(FlowEvent::StructuralProof);
            return Exit {
                verdict: Verdict::DataOblivious,
                method: CompletionMethod::Hfg,
                ift_propagations: None,
                total_propagations: None,
            };
        }
    }
    let mut formal = FormalStage::new(ctx, instance, options, plan.tag);
    let exit = formal.refine(ctx, study, plan);
    ctx.absorb_engine(formal.upec.as_ref());
    exit
}

/// The spec entries activated so far, as indices into the instance's
/// vocabularies, in activation order.
#[derive(Default)]
struct ActiveSpec {
    constraints: Vec<usize>,
    invariants: Vec<usize>,
    cond_eqs: Vec<usize>,
}

/// How much of the active spec has been fed into an engine. Entries
/// activated by classification are encoded right before that engine's
/// next run (cache-served checks leave the counts lagging on purpose).
#[derive(Clone, Copy, Default)]
struct SyncedSpec {
    constraints: usize,
    invariants: usize,
    cond_eqs: usize,
}

impl SyncedSpec {
    /// Marks the whole active spec as fed, returning the constraints,
    /// invariants and conditional equalities that were not yet.
    fn catch_up<'s>(&mut self, spec: &'s ActiveSpec) -> (&'s [usize], &'s [usize], &'s [usize]) {
        let new = (
            &spec.constraints[self.constraints..],
            &spec.invariants[self.invariants..],
            &spec.cond_eqs[self.cond_eqs..],
        );
        *self = SyncedSpec {
            constraints: spec.constraints.len(),
            invariants: spec.invariants.len(),
            cond_eqs: spec.cond_eqs.len(),
        };
        new
    }
}

/// Failed cold attempts per design instance before escalation stops
/// offering obligations to SecIC3. Every failed attempt costs real
/// solver work (divergence exhausts one of the engine's deterministic
/// budgets), so a design whose obligations IC3 cannot crack must not pay
/// that price at every remaining classification step.
const IC3_ESCALATION_FUSE: u32 = 2;

/// What one counterexample shows: the first step of the classification
/// whose test its witness meets, in this order.
enum Finding {
    /// (1) An inactive invariant is false in the witness: the
    /// counterexample is spurious.
    Invariant(usize),
    /// (1b) An inactive conditional 2-safety equality is violated in the
    /// witness (an invariant-writing step).
    CondEq(usize),
    /// (2) An inactive software constraint is false in the witness: the
    /// scenario is excludable by software.
    Constraint(usize),
    /// (3) Control outputs diverged: a genuine vulnerability.
    Leak,
    /// (4) Legal data propagation missed by simulation: the divergent
    /// signals leave `Z'`.
    Propagation,
}

/// One design instance's formal stage: the active spec and the engines
/// that check it.
struct FormalStage<'a> {
    module: &'a Module,
    instance: &'a DesignInstance,
    options: &'a FlowOptions,
    /// Names the flow in dumped artifact files.
    tag: &'static str,
    /// Canonical form for cache keys (rename- and reorder-invariant);
    /// `None` without a cache.
    canon: Option<CanonicalForm>,
    spec: ActiveSpec,
    /// The UPEC engine, created on the first check the cache does not
    /// answer. It elaborates its frame template once and keeps one
    /// incremental SAT solver alive across every refinement step, so
    /// structurally proven, simulation-terminated and fully cache-served
    /// designs never pay for elaboration.
    upec: Option<Upec2Safety<'a>>,
    /// How much of `spec` the UPEC engine holds.
    synced: SyncedSpec,
    /// The SecIC3 engine and how much of `spec` it holds, created on the
    /// first cold escalation attempt: reference `induction` runs and warm
    /// invariant-cache discharges never build it.
    ic3: Option<(Ic3Engine<'a>, SyncedSpec)>,
    /// Cold attempts that ended in anything but a certified discharge
    /// since the spec last grew.
    ic3_failed: u32,
}

impl<'a> FormalStage<'a> {
    fn new(
        ctx: &FlowContext,
        instance: &'a DesignInstance,
        options: &'a FlowOptions,
        tag: &'static str,
    ) -> Self {
        FormalStage {
            module: &instance.module,
            instance,
            options,
            tag,
            canon: ctx
                .cache
                .is_some()
                .then(|| fastpath_rtl::canonical_form(&instance.module)),
            spec: ActiveSpec::default(),
            upec: None,
            synced: SyncedSpec::default(),
            ic3: None,
            ic3_failed: 0,
        }
    }

    /// Stages 2 and 3: seed `Z'` (by simulation when the plan simulates),
    /// then refine `Z'` and the spec by UPEC counterexamples until a fixed
    /// point or a leak.
    fn refine(&mut self, ctx: &mut FlowContext, study: &CaseStudy, plan: &FlowPlan) -> Exit {
        let module = self.module;
        let mut declassified: Vec<SignalId> = self.instance.initial_declassified.clone();
        'simulate: loop {
            // ---- Stage 2: IFT-enhanced simulation ------------------------
            let (ift_propagations, mut z_prime): (_, BTreeSet<SignalId>) = if plan.simulate {
                let stage = ctx.simulation_stage(
                    study,
                    self.instance,
                    &mut self.spec.constraints,
                    &mut declassified,
                );
                match stage {
                    Ok(report) => (
                        Some(report.tainted_state.len()),
                        report.untainted_state.iter().copied().collect(),
                    ),
                    Err(description) => {
                        return ctx.leak(
                            description,
                            Stage::Simulation,
                            CompletionMethod::Ift,
                            None,
                            None,
                        );
                    }
                }
            } else {
                (None, module.state_signals().into_iter().collect())
            };

            // ---- Stage 3: UPEC-DIT ---------------------------------------
            loop {
                let z_vec: Vec<SignalId> = z_prime.iter().copied().collect();
                let outcome = plan
                    .checks
                    .iter()
                    .map(|&kind| self.check(ctx, kind, &z_vec))
                    .find(|outcome| !outcome.holds())
                    .unwrap_or(UpecOutcome::Holds);
                ctx.timings.check_count += 1;
                ctx.events.push(FlowEvent::UpecCheck {
                    holds: outcome.holds(),
                });
                let cex = match outcome {
                    UpecOutcome::Holds => return self.proved(ctx, z_prime.len(), ift_propagations),
                    UpecOutcome::Counterexample(cex) => cex,
                };
                ctx.confirm_replay(module, self.instance, &self.spec.cond_eqs, &cex);

                let finding = self.classify(&cex);
                // A finding that costs manual inspections without excluding
                // a scenario or confirming a leak is first offered to
                // SecIC3: a certified discharge proves the current `Z'`
                // outright. No reachability argument can stand in for
                // software intent or excuse a real leak, so (2) and (3)
                // are never escalated.
                let escalates = matches!(
                    finding,
                    Finding::Invariant(_) | Finding::CondEq(_) | Finding::Propagation
                );
                if escalates && self.discharge(ctx, &z_vec) {
                    return self.proved(ctx, z_prime.len(), ift_propagations);
                }
                ctx.inspections += match finding {
                    Finding::Propagation => cex.divergent_state.len() as u64,
                    _ => 1,
                };
                let instance = self.instance;
                match finding {
                    Finding::Invariant(i) => {
                        self.spec.invariants.push(i);
                        ctx.events.push(FlowEvent::InvariantAdded {
                            name: instance.invariants[i].name.clone(),
                        });
                    }
                    Finding::CondEq(i) => {
                        self.spec.cond_eqs.push(i);
                        ctx.events.push(FlowEvent::InvariantAdded {
                            name: instance.cond_eqs[i].name.clone(),
                        });
                    }
                    Finding::Constraint(i) => {
                        self.spec.constraints.push(i);
                        ctx.events.push(FlowEvent::ConstraintDerived {
                            name: instance.constraints[i].name.clone(),
                            stage: Stage::Formal,
                        });
                        if plan.simulate {
                            continue 'simulate;
                        }
                    }
                    Finding::Leak => {
                        let names: Vec<String> = cex
                            .divergent_outputs
                            .iter()
                            .map(|&y| module.signal(y).name.clone())
                            .collect();
                        let description = format!(
                            "confidential data reaches control output(s) {}",
                            names.join(", ")
                        );
                        let total = module.state_signals().len() - z_prime.len();
                        return ctx.leak(
                            description,
                            Stage::Formal,
                            CompletionMethod::Upec,
                            ift_propagations,
                            Some(total),
                        );
                    }
                    Finding::Propagation => {
                        debug_assert!(!cex.divergent_state.is_empty());
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
    }

    /// The fixed point was reached (by induction or by a certified IC3
    /// discharge): the verdict follows from the active constraints.
    fn proved(&self, ctx: &mut FlowContext, z_len: usize, ift_propagations: Option<usize>) -> Exit {
        ctx.events.push(FlowEvent::FixedPoint);
        let verdict = if self.spec.constraints.is_empty() {
            Verdict::DataOblivious
        } else {
            Verdict::ConstrainedDataOblivious(
                self.spec
                    .constraints
                    .iter()
                    .map(|&i| self.instance.constraints[i].name.clone())
                    .collect(),
            )
        };
        Exit {
            verdict,
            method: CompletionMethod::Upec,
            ift_propagations,
            total_propagations: Some(self.module.state_signals().len() - z_len),
        }
    }

    /// Classifies a counterexample by the first inactive spec entry its
    /// witness violates: invariants, then conditional equalities, then
    /// constraints; failing those, by its divergent outputs.
    fn classify(&self, cex: &UpecCounterexample) -> Finding {
        let (module, instance, spec) = (self.module, self.instance, &self.spec);
        let replay = WitnessReplay::new(module, cex);
        let first = |n: usize, active: &[usize], violated: &dyn Fn(usize) -> bool| {
            (0..n).find(|&i| !active.contains(&i) && violated(i))
        };
        if let Some(i) = first(instance.invariants.len(), &spec.invariants, &|i| {
            !replay.invariant_holds(module, instance.invariants[i].expr)
        }) {
            Finding::Invariant(i)
        } else if let Some(i) = first(instance.cond_eqs.len(), &spec.cond_eqs, &|i| {
            cond_eq_violated_in_witness(module, &replay, &instance.cond_eqs[i])
        }) {
            Finding::CondEq(i)
        } else if let Some(i) = first(instance.constraints.len(), &spec.constraints, &|i| {
            !replay.constraint_holds(module, instance.constraints[i].expr)
        }) {
            Finding::Constraint(i)
        } else if !cex.divergent_outputs.is_empty() {
            Finding::Leak
        } else {
            Finding::Propagation
        }
    }

    /// The content address of a check under the active spec, built from
    /// its entries in activation order; `None` without a cache.
    fn key(&self, kind: CheckKind, z: &[SignalId]) -> Option<Digest> {
        let canon = self.canon.as_ref()?;
        let (instance, spec) = (self.instance, &self.spec);
        let constraints: Vec<ExprId> = spec
            .constraints
            .iter()
            .map(|&i| instance.constraints[i].expr)
            .collect();
        let invariants: Vec<ExprId> = spec
            .invariants
            .iter()
            .map(|&i| instance.invariants[i].expr)
            .collect();
        Some(cache::check_key(
            canon,
            kind,
            self.options.upec_encoding,
            z,
            &constraints,
            &invariants,
            &cond_eqs_in_force(instance, &spec.cond_eqs),
        ))
    }

    /// The design's UPEC engine, created and elaborated on first use, with
    /// every active spec entry encoded. Entries activated since the last
    /// engine run are fed in now; nothing already encoded is redone.
    fn engine(&mut self, ctx: &mut FlowContext) -> &mut Upec2Safety<'a> {
        let (module, instance, options, tag) = (self.module, self.instance, self.options, self.tag);
        let engine = self.upec.get_or_insert_with(|| {
            let t0 = Instant::now();
            let mut engine = Upec2Safety::new(module, &UpecSpec::default());
            engine.set_encoding(options.upec_encoding);
            if let Some(store) = &options.clause_store {
                engine.set_clause_store(Arc::clone(store));
            }
            if ctx.certification.is_some() {
                engine.enable_certification();
                if ctx.cache.is_some() {
                    engine.enable_artifact_capture();
                }
                if let Some(dir) = &options.dump_artifacts {
                    engine.set_artifact_output(dir.clone(), format!("{}_{tag}_", module.name()));
                }
            }
            engine.elaborate();
            ctx.timings.formal_elaboration += t0.elapsed();
            engine
        });
        let (constraints, invariants, cond_eqs) = self.synced.catch_up(&self.spec);
        for &i in constraints {
            engine.add_software_constraint(instance.constraints[i].expr);
        }
        for &i in invariants {
            engine.add_invariant(instance.invariants[i].expr);
        }
        for &i in cond_eqs {
            let ce = &instance.cond_eqs[i];
            engine.add_conditional_equality(ce.cond, ce.signal);
        }
        engine
    }

    /// Answers one check: from the cache when a stored verdict survives
    /// re-validation, else on the engine, storing what it certifies.
    fn check(&mut self, ctx: &mut FlowContext, kind: CheckKind, z: &[SignalId]) -> UpecOutcome {
        let key = self.key(kind, z);
        if let Some(key) = &key {
            let t0 = Instant::now();
            let cached = ctx.try_cached_check(key, self.module, self.instance, &self.spec.cond_eqs);
            ctx.timings.formal_checks += t0.elapsed();
            if let Some(outcome) = cached {
                return outcome;
            }
        }
        let (outcome, entry) = self.solve(ctx, kind, z);
        if let (Some(cache), Some(key), Some(entry)) = (&ctx.cache, &key, entry) {
            let t0 = Instant::now();
            cache.store(CacheKind::Check, key, &cache::encode_check(&entry));
            ctx.timings.formal_checks += t0.elapsed();
        }
        outcome
    }

    /// Runs one check on the engine, certified when the run certifies.
    /// With a cache attached, also returns the entry the certified verdict
    /// may be stored as.
    fn solve(
        &mut self,
        ctx: &mut FlowContext,
        kind: CheckKind,
        z: &[SignalId],
    ) -> (UpecOutcome, Option<cache::CachedCheck>) {
        let engine = self.engine(ctx);
        let t0 = Instant::now();
        let solved = if ctx.certification.is_some() {
            let certified = match kind {
                CheckKind::Full => engine.check_certified(z),
                CheckKind::StateOnly => engine.check_state_only_certified(z),
            };
            ctx.record_certificate(&certified);
            let artifact = engine.take_last_artifact();
            let entry = ctx
                .cache
                .is_some()
                .then(|| cache_entry(&certified, artifact))
                .flatten();
            (certified.outcome, entry)
        } else {
            let outcome = match kind {
                CheckKind::Full => engine.check(z),
                CheckKind::StateOnly => engine.check_state_only(z),
            };
            (outcome, None)
        };
        ctx.timings.formal_checks += t0.elapsed();
        solved
    }

    /// Offers the current obligations to SecIC3 on the constrained track,
    /// where the refinement is heading toward a `Constrained` verdict;
    /// unconstrained runs never escalate (their remaining divergences are
    /// genuine data propagations, not unreachable-state artifacts).
    /// Returns `true` iff a certified discharge proves the current `Z'`.
    ///
    /// The derivation itself is never trusted: a warm cache entry must
    /// re-certify its stored proof and re-check its clauses against the
    /// module and its reset state, and a cold IC3 proof is re-validated by
    /// staging the clauses into the standard (certified) full check —
    /// whose UNSAT answer is precisely the consecution theorem for the
    /// derived invariant. IC3 bugs can therefore only cause a failure to
    /// discharge, never an unsound verdict.
    fn discharge(&mut self, ctx: &mut FlowContext, z: &[SignalId]) -> bool {
        if self.options.upec_engine != UpecEngine::Ic3 || self.spec.constraints.is_empty() {
            return false;
        }
        let key = self.key(CheckKind::Full, z);

        // Warm path: a stored invariant for this exact check configuration
        // skips frame reconstruction entirely — no IC3 engine, no UPEC
        // engine, no solver.
        if let (Some(cache), Some(key)) = (ctx.cache.clone(), &key) {
            let t0 = Instant::now();
            let served = ctx.validate_cached_invariant(&*cache, key, self.module);
            ctx.timings.formal_checks += t0.elapsed();
            // An empty probe is not a miss yet: most escalation attempts
            // fail, nothing is stored for them, and a warm resubmission
            // must replay a fully-proved run without miss counts. The
            // miss is booked below iff this attempt derives (and stores)
            // an invariant the probe should have found.
            if let Some(clauses) = served {
                ctx.cache_stats.hits += 1;
                ctx.timings.check_count += 1;
                ctx.events.push(FlowEvent::Ic3Discharged { clauses });
                ctx.events.push(FlowEvent::UpecCheck { holds: true });
                return true;
            }
        }

        // Cold path: derive, then re-validate on the UPEC engine.
        let Some(inv) = self.derive_invariant(ctx, z) else {
            return false;
        };
        self.engine(ctx).add_relational_clauses(&inv.clauses);
        let (outcome, entry) = self.solve(ctx, CheckKind::Full, z);
        ctx.timings.check_count += 1;
        if !outcome.holds() {
            // The strengthened check failed (e.g. a solver-budget
            // artifact): its counterexample may have an empty divergence
            // set, so it is dropped — never classified, never replayed.
            self.ic3_failed += 1;
            ctx.events.push(FlowEvent::UpecCheck { holds: false });
            return false;
        }
        let clauses = inv.clauses.len();
        // Persist the invariant with its certified proof so warm
        // resubmissions discharge without rebuilding any frames.
        if let (Some(cache), Some(key), Some(check @ cache::CachedCheck::HoldsHinted { .. })) =
            (&ctx.cache, &key, entry)
        {
            let entry = cache::CachedInvariant {
                clauses: inv.clauses,
                check,
            };
            cache.store(CacheKind::Invariant, key, &cache::encode_invariant(&entry));
            ctx.cache_stats.misses += 1;
        }
        ctx.events.push(FlowEvent::Ic3Discharged { clauses });
        ctx.events.push(FlowEvent::UpecCheck { holds: true });
        true
    }

    /// Runs (or resumes) the design's SecIC3 engine on the current
    /// obligations. Learned frames and lemmas persist across attempts.
    /// Returns a well-formed invariant that holds at reset, or `None`.
    fn derive_invariant(
        &mut self,
        ctx: &mut FlowContext,
        z: &[SignalId],
    ) -> Option<RelationalInvariant> {
        let (module, instance) = (self.module, self.instance);
        let (engine, synced) = self.ic3.get_or_insert_with(|| {
            let t0 = Instant::now();
            let engine = Ic3Engine::new(module);
            ctx.timings.formal_elaboration += t0.elapsed();
            (engine, SyncedSpec::default())
        });
        let (constraints, invariants, cond_eqs) = synced.catch_up(&self.spec);
        // A failure under a weaker spec says nothing about the strengthened
        // one, so newly activated entries re-arm the fuse.
        if !(constraints.is_empty() && invariants.is_empty() && cond_eqs.is_empty()) {
            self.ic3_failed = 0;
        } else if self.ic3_failed >= IC3_ESCALATION_FUSE {
            return None;
        }
        for &i in constraints {
            engine.add_software_constraint(instance.constraints[i].expr);
        }
        for &i in invariants {
            engine.add_invariant(instance.invariants[i].expr);
        }
        for &i in cond_eqs {
            let ce = &instance.cond_eqs[i];
            engine.add_conditional_equality(ce.cond, ce.signal);
        }

        let before = engine.stats();
        let t0 = Instant::now();
        let outcome = engine.prove(z);
        ctx.timings.formal_checks += t0.elapsed();
        ctx.ic3
            .get_or_insert_with(Ic3Stats::default)
            .merge(&engine.stats().since(&before));
        match outcome {
            // Defensive gate on the derivation itself: a malformed or
            // reset-violating invariant is a failed attempt, nothing more,
            // because the flow only ever acts on the re-validated check.
            Ic3Outcome::Proved(inv) if inv.is_well_formed(module) && inv.holds_at_reset(module) => {
                Some(inv)
            }
            _ => {
                self.ic3_failed += 1;
                None
            }
        }
    }
}

/// The cache entry a certified verdict is stored as: an UNSAT verdict
/// needs its captured proof artifact, a counterexample its validated
/// model; a rejected certificate stores nothing.
fn cache_entry(
    certified: &CertifiedOutcome,
    artifact: Option<ProofArtifact>,
) -> Option<cache::CachedCheck> {
    match (&certified.outcome, &certified.certificate) {
        (UpecOutcome::Holds, Ok(CheckCertificate::UnsatProof { .. })) => {
            artifact.map(|a| cache::CachedCheck::HoldsHinted {
                cnf: a.cnf,
                proof: a.drup,
            })
        }
        (UpecOutcome::Holds, Ok(CheckCertificate::TrivialUnsat)) => {
            Some(cache::CachedCheck::HoldsTrivial)
        }
        (UpecOutcome::Counterexample(cex), Ok(CheckCertificate::SatModel { .. })) => Some(
            cache::CachedCheck::Cex(cache::CachedCex::from_counterexample(cex)),
        ),
        _ => None,
    }
}

/// The `(condition, signal)` pairs of the active conditional equalities,
/// in activation order — the order the engine's spec holds them in.
fn cond_eqs_in_force(instance: &DesignInstance, active: &[usize]) -> Vec<(ExprId, SignalId)> {
    active
        .iter()
        .map(|&i| {
            let ce = &instance.cond_eqs[i];
            (ce.cond, ce.signal)
        })
        .collect()
}

/// `true` iff the conditional equality fails in the replayed witness at
/// time `t`: the condition holds in both instances but the values differ.
fn cond_eq_violated_in_witness(
    module: &Module,
    replay: &WitnessReplay,
    ce: &crate::study::NamedCondEq,
) -> bool {
    let c0 = replay.eval_predicate(module, 0, 0, ce.cond);
    let c1 = replay.eval_predicate(module, 1, 0, ce.cond);
    c0 && c1 && replay.value(0, 0, ce.signal) != replay.value(1, 0, ce.signal)
}

/// Shared bookkeeping for a flow run.
struct FlowContext {
    design: String,
    events: Vec<FlowEvent>,
    inspections: u64,
    vulnerabilities: Vec<String>,
    timings: StageTimings,
    derived_constraints: Vec<String>,
    invariants_added: Vec<String>,
    solver_stats: SolverStats,
    elaboration: ElaborationStats,
    product: ProductStats,
    certification: Option<CertificationSummary>,
    /// Compiled-tape cache, keyed by module address (both design
    /// instances stay alive inside the study for the whole run, so
    /// addresses are stable and distinct).
    tape: Option<(usize, Arc<SimTape>)>,
    sim_runs: u64,
    sim_cycles: u64,
    /// Cross-run verification cache, when attached.
    cache: Option<Arc<dyn ProofCache>>,
    /// Hit/miss counters for this run (store-side numbers join at finish).
    cache_stats: CacheStats,
    /// Exact-netlist hash memo, keyed like `tape`.
    exact_hash: Option<(usize, Digest)>,
    /// SecIC3 work done this run; `None` unless at least one cold IC3
    /// discharge attempt ran (warm invariant-cache hits and reference
    /// `induction` runs leave it unset).
    ic3: Option<Ic3Stats>,
}

impl FlowContext {
    fn new(study: &CaseStudy, options: &FlowOptions) -> Self {
        FlowContext {
            design: study.name.clone(),
            events: Vec::new(),
            inspections: 0,
            vulnerabilities: Vec::new(),
            timings: StageTimings::default(),
            derived_constraints: Vec::new(),
            invariants_added: Vec::new(),
            solver_stats: SolverStats::default(),
            elaboration: ElaborationStats::default(),
            product: ProductStats::default(),
            // Attaching a cache implies certification.
            certification: (options.certify || options.cache.is_some())
                .then(CertificationSummary::default),
            tape: None,
            sim_runs: 0,
            sim_cycles: 0,
            cache: options.cache.clone(),
            cache_stats: CacheStats::default(),
            exact_hash: None,
            ic3: None,
        }
    }

    /// The exact (text-level) module hash, computed on first use.
    fn exact_hash_for(&mut self, module: &Module) -> Digest {
        let key = module as *const Module as usize;
        match self.exact_hash {
            Some((k, digest)) if k == key => digest,
            _ => {
                let digest = cache::exact_module_hash(module);
                self.exact_hash = Some((key, digest));
                digest
            }
        }
    }

    /// Serves one UPEC check from the cache if a stored entry exists *and*
    /// survives re-validation: an UNSAT proof's hints must walk to a
    /// refutation, a counterexample must reproduce under concrete
    /// two-instance simulation. Anything less is a miss.
    fn try_cached_check(
        &mut self,
        key: &Digest,
        module: &Module,
        instance: &DesignInstance,
        active_cond_eqs: &[usize],
    ) -> Option<UpecOutcome> {
        let cache = self.cache.clone()?;
        let outcome = self.validate_cached_check(&*cache, key, module, instance, active_cond_eqs);
        match &outcome {
            Some(_) => self.cache_stats.hits += 1,
            None => self.cache_stats.misses += 1,
        }
        outcome
    }

    fn validate_cached_check(
        &mut self,
        cache: &dyn ProofCache,
        key: &Digest,
        module: &Module,
        instance: &DesignInstance,
        active_cond_eqs: &[usize],
    ) -> Option<UpecOutcome> {
        let text = cache.load(CacheKind::Check, key)?;
        match cache::decode_check(&text).ok()? {
            cache::CachedCheck::HoldsTrivial => {
                let summary = self.certification.as_mut()?;
                summary.stats.certified_checks += 1;
                summary.stats.trivial_unsat += 1;
                Some(UpecOutcome::Holds)
            }
            cache::CachedCheck::Cex(cached) => {
                let cex = cached.to_counterexample(module)?;
                let in_force = cond_eqs_in_force(instance, active_cond_eqs);
                confirm_counterexample(module, &in_force, &cex).ok()?;
                let summary = self.certification.as_mut()?;
                summary.stats.certified_checks += 1;
                summary.stats.sat_models += 1;
                Some(UpecOutcome::Counterexample(cex))
            }
            proof => {
                self.replay_stored_proof(&proof)?;
                Some(UpecOutcome::Holds)
            }
        }
    }

    /// Serves a stored SecIC3 invariant if one exists for this exact check
    /// configuration *and* survives full re-validation: the clauses must be
    /// well-formed for this module and hold in its reset state, and the
    /// embedded strengthened-check proof must replay through the checker.
    /// Returns the clause count on success; anything less is a miss.
    fn validate_cached_invariant(
        &mut self,
        cache: &dyn ProofCache,
        key: &Digest,
        module: &Module,
    ) -> Option<usize> {
        let text = cache.load(CacheKind::Invariant, key)?;
        let entry = cache::decode_invariant(&text).ok()?;
        let inv = RelationalInvariant {
            clauses: entry.clauses,
        };
        if !inv.is_well_formed(module) || !inv.holds_at_reset(module) {
            return None;
        }
        // A stored invariant always carries a genuine UNSAT proof — trivial
        // or SAT entries are structurally impossible here and rejected.
        self.replay_stored_proof(&entry.check)?;
        Some(inv.clauses.len())
    }

    /// Re-certifies a stored UNSAT proof by walking its hints and counts
    /// it; `None` for an entry that carries no proof or one that fails.
    fn replay_stored_proof(&mut self, entry: &cache::CachedCheck) -> Option<()> {
        let cache::CachedCheck::HoldsHinted { cnf, proof } = entry else {
            return None;
        };
        let checker = fastpath_cert::check_hinted_unsat_artifact(cnf, proof).ok()?;
        let summary = self.certification.as_mut()?;
        summary.stats.certified_checks += 1;
        summary.stats.unsat_proofs += 1;
        summary.stats.checker.merge(&checker);
        Some(())
    }

    /// The compiled tape for `module`, compiling on first use.
    fn tape_for(&mut self, module: &Module) -> Arc<SimTape> {
        let key = module as *const Module as usize;
        match &self.tape {
            Some((k, tape)) if *k == key => Arc::clone(tape),
            _ => {
                let tape = Arc::new(SimTape::compile(module));
                self.tape = Some((key, Arc::clone(&tape)));
                tape
            }
        }
    }

    /// Folds a retiring UPEC engine's counters into the run totals. Must
    /// be called on every path that drops or abandons an engine.
    fn absorb_engine(&mut self, engine: Option<&Upec2Safety<'_>>) {
        if let Some(engine) = engine {
            self.solver_stats.merge(&engine.solver_stats());
            self.elaboration.merge(&engine.elaboration_stats());
            self.product.merge(&engine.product_stats());
            self.timings.cert_backward += engine.cert_time();
            // A retiring engine offers its short cone-local learnt clauses
            // to the attached store (a no-op without one); the caller
            // decides when the pending set is saved to disk.
            engine.export_learnt_clauses();
            if let (Some(summary), Some(stats)) = (self.certification.as_mut(), engine.cert_stats())
            {
                summary.stats.merge(&stats);
            }
        }
    }

    /// Records a certificate rejection (the counters themselves live in
    /// the engine and are folded in by [`absorb_engine`](Self::absorb_engine)).
    fn record_certificate(&mut self, outcome: &CertifiedOutcome) {
        if let (Some(summary), Err(e)) = (self.certification.as_mut(), &outcome.certificate) {
            summary
                .failures
                .push(format!("{}: certificate rejected: {e}", self.design));
        }
    }

    /// Replays a counterexample through concrete simulation when
    /// certification is on, recording the result.
    fn confirm_replay(
        &mut self,
        module: &Module,
        instance: &DesignInstance,
        active_cond_eqs: &[usize],
        cex: &UpecCounterexample,
    ) {
        let Some(summary) = self.certification.as_mut() else {
            return;
        };
        summary.counterexamples_replayed += 1;
        let in_force = cond_eqs_in_force(instance, active_cond_eqs);
        if let Err(e) = confirm_counterexample(module, &in_force, cex) {
            summary
                .failures
                .push(format!("{}: replay mismatch: {e}", self.design));
        }
    }

    /// Records a confirmed leak; [`run_flow`] then retries on the
    /// design's fixed variant, if it has one.
    fn leak(
        &mut self,
        description: String,
        stage: Stage,
        method: CompletionMethod,
        ift_propagations: Option<usize>,
        total_propagations: Option<usize>,
    ) -> Exit {
        self.vulnerabilities.push(description.clone());
        self.events
            .push(FlowEvent::VulnerabilityFound { description, stage });
        Exit {
            verdict: Verdict::NotDataOblivious,
            method,
            ift_propagations,
            total_propagations,
        }
    }

    fn finish(mut self, module: &Module, exit: Exit) -> FlowReport {
        for event in &self.events {
            match event {
                FlowEvent::ConstraintDerived { name, .. }
                    if !self.derived_constraints.contains(name) =>
                {
                    self.derived_constraints.push(name.clone());
                }
                FlowEvent::InvariantAdded { name } if !self.invariants_added.contains(name) => {
                    self.invariants_added.push(name.clone());
                }
                _ => {}
            }
        }
        FlowReport {
            design: self.design,
            verdict: exit.verdict,
            method: exit.method,
            state_signals: module.state_signals().len(),
            state_bits: module.state_bits(),
            ift_propagations: exit.ift_propagations,
            total_propagations: exit.total_propagations,
            manual_inspections: self.inspections,
            derived_constraints: self.derived_constraints,
            invariants_added: self.invariants_added,
            vulnerabilities: self.vulnerabilities,
            events: self.events,
            timings: self.timings,
            solver_stats: self.solver_stats,
            elaboration: self.elaboration,
            product: self.product,
            sim: SimStats {
                runs: self.sim_runs,
                cycles: self.sim_cycles,
            },
            cache: self.cache.as_ref().map(|cache| {
                let usage = cache.usage();
                CacheStats {
                    bytes: usage.bytes,
                    evictions: usage.evictions,
                    ..self.cache_stats
                }
            }),
            ic3: self.ic3,
            certification: self.certification,
        }
    }

    /// Runs IFT simulations, classifying violations until none remain (the
    /// clean report) or a genuine vulnerability is confirmed (its
    /// description).
    fn simulation_stage(
        &mut self,
        study: &CaseStudy,
        instance: &DesignInstance,
        active_constraints: &mut Vec<usize>,
        declassified: &mut Vec<SignalId>,
    ) -> Result<IftReport, String> {
        loop {
            let report = self.run_ift_once(study, instance, active_constraints, declassified);
            self.events.push(FlowEvent::IftRun {
                violations: report.violations.len(),
                tainted: report.tainted_state.len(),
                untainted: report.untainted_state.len(),
            });
            if report.violations.is_empty() {
                return Ok(report);
            }

            // The engineer inspects a counterexample (one inspection per
            // classification event), then determines the root cause by
            // re-running the scenario under each hypothesis. Violations
            // with an identifiable single cause are addressed first;
            // compound causes resolve over successive iterations.
            self.inspections += 1;

            // Hypothesis A: some violated scenario contradicts the
            // intended application — a candidate constraint excludes it.
            // A constraint explains a violation if, under it, that output
            // either never becomes tainted or only becomes tainted much
            // later through an unrelated scenario (the concrete
            // counterexample under inspection is gone). The "much later"
            // margin stands in for the engineer's root-cause judgement.
            let explains = |old: &fastpath_sim::IftViolation, trial: &IftReport| -> bool {
                match trial.violations.iter().find(|v| v.output == old.output) {
                    None => true,
                    Some(new) => new.cycle > old.cycle * 2 + 16,
                }
            };
            let mut derived = None;
            'search_constraints: for violation in &report.violations {
                for (ci, c) in instance.constraints.iter().enumerate() {
                    if active_constraints.contains(&ci) || c.restrict_testbench.is_none() {
                        continue;
                    }
                    let mut trial = active_constraints.clone();
                    trial.push(ci);
                    let trial_report = self.run_ift_once(study, instance, &trial, declassified);
                    if explains(violation, &trial_report) {
                        derived = Some(ci);
                        break 'search_constraints;
                    }
                }
            }
            if let Some(ci) = derived {
                active_constraints.push(ci);
                self.events.push(FlowEvent::ConstraintDerived {
                    name: instance.constraints[ci].name.clone(),
                    stage: Stage::Simulation,
                });
                continue;
            }

            // Hypothesis B: the flow policy is too conservative — an
            // intended flow should be declassified.
            let mut refined = None;
            'search_policy: for violation in &report.violations {
                for &d in &instance.declassify_candidates {
                    if declassified.contains(&d) {
                        continue;
                    }
                    let mut trial = declassified.clone();
                    trial.push(d);
                    let trial_report =
                        self.run_ift_once(study, instance, active_constraints, &trial);
                    let still_violates = trial_report
                        .violations
                        .iter()
                        .any(|v| v.output == violation.output);
                    if !still_violates {
                        refined = Some(d);
                        break 'search_policy;
                    }
                }
            }
            if let Some(d) = refined {
                declassified.push(d);
                self.events.push(FlowEvent::PolicyRefined { signal: d });
                continue;
            }

            // Hypothesis C: genuine leak.
            let violation = report.violations[0];
            let output = instance.module.signal(violation.output);
            return Err(format!(
                "confidential data observed on control output `{}` at \
                 cycle {} of simulation",
                output.name, violation.cycle
            ));
        }
    }

    fn run_ift_once(
        &mut self,
        study: &CaseStudy,
        instance: &DesignInstance,
        active_constraints: &[usize],
        declassified: &[SignalId],
    ) -> IftReport {
        let module = &instance.module;
        let key = self.cache.is_some().then(|| {
            let exact = self.exact_hash_for(module);
            let names: Vec<&str> = active_constraints
                .iter()
                .map(|&ci| instance.constraints[ci].name.as_str())
                .collect();
            cache::sim_key(
                exact,
                &study.name,
                study.seed,
                study.cycles,
                study.policy,
                instance.configure_testbench.is_some(),
                &names,
                declassified,
            )
        });
        if let (Some(cache), Some(key)) = (self.cache.clone(), key) {
            let t0 = Instant::now();
            let hit = cache
                .load(CacheKind::Sim, &key)
                .and_then(|text| cache::decode_sim(&text).ok())
                .and_then(|entry| entry.to_report(module));
            if let Some(report) = hit {
                // Deterministic memoization: the counters stay identical
                // to a live run so reports match byte for byte; the cache
                // block records the provenance.
                self.cache_stats.hits += 1;
                self.timings.simulation += t0.elapsed();
                self.sim_runs += 1;
                self.sim_cycles += report.cycles_run;
                return report;
            }
            self.cache_stats.misses += 1;
            let report = self.run_ift_live(study, instance, active_constraints, declassified);
            cache.store(
                CacheKind::Sim,
                &key,
                &cache::encode_sim(&cache::CachedSim::from_report(&report)),
            );
            return report;
        }
        self.run_ift_live(study, instance, active_constraints, declassified)
    }

    fn run_ift_live(
        &mut self,
        study: &CaseStudy,
        instance: &DesignInstance,
        active_constraints: &[usize],
        declassified: &[SignalId],
    ) -> IftReport {
        let module = &instance.module;
        let mut tb = RandomTestbench::new(module, study.seed);
        if let Some(configure) = &instance.configure_testbench {
            configure(module, &mut tb);
        }
        for &ci in active_constraints {
            if let Some(restrict) = &instance.constraints[ci].restrict_testbench {
                restrict(module, &mut tb);
            }
        }
        let sim = IftSimulation::new(study.cycles)
            .with_policy(study.policy)
            .with_declassified(declassified);
        let t0 = Instant::now();
        let tape = self.tape_for(module);
        let report = sim.run_compiled(module, &tape, &mut tb);
        self.timings.simulation += t0.elapsed();
        self.sim_runs += 1;
        self.sim_cycles += report.cycles_run;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::NamedPredicate;
    use fastpath_rtl::ModuleBuilder;
    use std::time::Duration;

    /// Round-based "crypto" toy: secret only reaches the data output.
    fn structural_case() -> CaseStudy {
        let mut b = ModuleBuilder::new("round_core");
        let secret = b.data_input("secret", 16);
        let s = b.sig(secret);
        let acc = b.reg("acc", 16, 0);
        let a = b.sig(acc);
        let mixed = b.xor(a, s);
        b.set_next(acc, mixed).expect("drive");
        b.data_output("digest", a);
        let round = b.reg("round", 4, 0);
        let r = b.sig(round);
        let one = b.lit(4, 1);
        let inc = b.add(r, one);
        b.set_next(round, inc).expect("drive");
        let done = b.eq_lit(r, 15);
        b.control_output("done", done);
        let m = b.build().expect("valid");
        CaseStudy::new("toy_crypto", DesignInstance::new(m))
    }

    #[test]
    fn structural_proof_short_circuits() {
        let report = run_fastpath(&structural_case());
        assert_eq!(report.verdict, Verdict::DataOblivious);
        assert_eq!(report.method, CompletionMethod::Hfg);
        assert_eq!(report.manual_inspections, 0);
        assert!(report.events.contains(&FlowEvent::StructuralProof));
    }

    /// Inherent timing leak with no constraint vocabulary -> False at IFT.
    fn leaky_case() -> CaseStudy {
        let mut b = ModuleBuilder::new("early_term");
        let start = b.control_input("start", 1);
        let data = b.data_input("data", 8);
        let counter = b.reg("counter", 4, 0);
        let c = b.sig(counter);
        let d = b.sig(data);
        let st = b.sig(start);
        let is_zero = b.eq_lit(d, 0);
        let one = b.lit(4, 1);
        let eight = b.lit(4, 8);
        let init = b.mux(is_zero, one, eight);
        let zero4 = b.lit(4, 0);
        let c_zero = b.eq_lit(c, 0);
        let dec = b.sub(c, one);
        let hold = b.mux(c_zero, zero4, dec);
        let next = b.mux(st, init, hold);
        b.set_next(counter, next).expect("drive");
        let busy = b.ne(c, zero4);
        b.control_output("busy", busy);
        let m = b.build().expect("valid");
        let mut study = CaseStudy::new("toy_leak", DesignInstance::new(m));
        study.cycles = 300;
        study
    }

    #[test]
    fn unconstrained_leak_is_false_at_ift() {
        let report = run_fastpath(&leaky_case());
        assert_eq!(report.verdict, Verdict::NotDataOblivious);
        assert_eq!(report.method, CompletionMethod::Ift);
        assert_eq!(report.vulnerabilities.len(), 1);
        assert!(report.manual_inspections >= 1);
    }

    /// Leak only under mode==1, with "mode off" in the constraint
    /// vocabulary -> Constrained via UPEC.
    fn constrained_case() -> CaseStudy {
        let mut b = ModuleBuilder::new("modal");
        let mode = b.control_input("mode", 1);
        let data = b.data_input("data", 8);
        let d = b.sig(data);
        let acc = b.reg("acc", 8, 0);
        let a = b.sig(acc);
        b.set_next(acc, d).expect("drive");
        b.data_output("result", a);
        let m_sig = b.sig(mode);
        let zero = b.lit(8, 0);
        let visible = b.mux(m_sig, a, zero);
        let leak = b.red_or(visible);
        b.control_output("debug_flag", leak);
        let tick = b.reg("tick", 1, 0);
        let t = b.sig(tick);
        let nt = b.not(t);
        b.set_next(tick, nt).expect("drive");
        b.control_output("phase", t);
        let mode_off = b.eq_lit(m_sig, 0);
        let m = b.build().expect("valid");
        let mode_id = m.signal_by_name("mode").expect("mode");
        let mut instance = DesignInstance::new(m);
        instance.constraints.push(NamedPredicate::with_restriction(
            "debug_mode_disabled",
            mode_off,
            move |_, tb| {
                tb.fix(mode_id, 0);
            },
        ));
        let mut study = CaseStudy::new("toy_modal", instance);
        study.cycles = 200;
        study
    }

    #[test]
    fn constraint_is_derived_and_verdict_constrained() {
        let report = run_fastpath(&constrained_case());
        assert_eq!(
            report.verdict,
            Verdict::ConstrainedDataOblivious(vec!["debug_mode_disabled".into()])
        );
        assert_eq!(report.method, CompletionMethod::Upec);
        assert_eq!(
            report.derived_constraints,
            vec!["debug_mode_disabled".to_string()]
        );
        // acc is tainted data state; it must be outside Z' and counted.
        assert_eq!(report.total_propagations, Some(1));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, FlowEvent::FixedPoint)));
    }

    #[test]
    fn certified_flow_validates_every_verdict() {
        let report = run_fastpath_with(
            &constrained_case(),
            FlowOptions {
                certify: true,
                ..FlowOptions::default()
            },
        );
        assert_eq!(
            report.verdict,
            Verdict::ConstrainedDataOblivious(vec!["debug_mode_disabled".into()])
        );
        let cert = report.certification.expect("certification requested");
        assert!(cert.fully_certified(), "{:?}", cert.failures);
        assert!(cert.stats.certified_checks >= 1);
        assert_eq!(
            cert.stats.certified_checks, report.timings.check_count,
            "every check must be certified"
        );
        // Without certification the report must not pretend otherwise.
        let plain = run_fastpath(&constrained_case());
        assert!(plain.certification.is_none());
    }

    /// Vulnerable design with a fixed variant: flow confirms the leak,
    /// switches, and completes on the fix.
    #[test]
    fn fixed_variant_is_adopted_after_leak() {
        fn build(leaky: bool) -> DesignInstance {
            let mut b = ModuleBuilder::new(if leaky { "dev_leaky" } else { "dev_fixed" });
            let data = b.data_input("data", 8);
            let d = b.sig(data);
            let buf = b.reg("buf", 8, 0);
            let a = b.sig(buf);
            b.set_next(buf, d).expect("drive");
            b.data_output("wdata", a);
            let tick = b.reg("tick", 1, 0);
            let t = b.sig(tick);
            let nt = b.not(t);
            b.set_next(tick, nt).expect("drive");
            b.control_output("phase", t);
            // Bus address: the leaky variant exposes the buffer; the fixed
            // one keeps the structural shape (mux with equal branches) but
            // no actual flow.
            let addr = if leaky {
                b.red_or(a)
            } else {
                let a0 = b.bit(a, 0);
                b.mux(a0, t, t)
            };
            b.control_output("bus_addr_valid", addr);
            DesignInstance::new(b.build().expect("valid"))
        }
        let mut study = CaseStudy::new("toy_fixable", build(true));
        study.fixed_instance = Some(build(false));
        study.cycles = 100;
        let report = run_fastpath(&study);
        assert_eq!(report.verdict, Verdict::DataOblivious);
        assert_eq!(report.method, CompletionMethod::Upec);
        assert_eq!(report.vulnerabilities.len(), 1);
        assert!(report.events.contains(&FlowEvent::DesignFixed));
    }

    /// Warm runs against a shared cache must be byte-identical to cold runs
    /// and serve every check and simulation from the cache.
    #[test]
    fn warm_cache_run_is_identical_and_fully_served() {
        let shared: Arc<dyn ProofCache> = Arc::new(cache::MemoryCache::new());
        let with_cache = || FlowOptions {
            cache: Some(Arc::clone(&shared)),
            ..FlowOptions::default()
        };
        let cold = run_fastpath_with(&constrained_case(), with_cache());
        let warm = run_fastpath_with(&constrained_case(), with_cache());

        // Everything a consumer can observe besides `cache` is identical.
        assert_eq!(cold.verdict, warm.verdict);
        assert_eq!(cold.method, warm.method);
        assert_eq!(cold.events, warm.events);
        assert_eq!(cold.derived_constraints, warm.derived_constraints);
        assert_eq!(cold.manual_inspections, warm.manual_inspections);
        assert_eq!(cold.timings.check_count, warm.timings.check_count);
        assert_eq!(cold.sim.runs, warm.sim.runs);
        assert_eq!(cold.sim.cycles, warm.sim.cycles);

        // The warm run never touched the solver or the simulator: every
        // lookup hit, and no engine was ever elaborated.
        let warm_stats = warm.cache.expect("cache attached");
        assert_eq!(warm_stats.misses, 0, "warm run must be fully served");
        assert!(warm_stats.hits >= warm.timings.check_count);
        assert_eq!(warm.timings.formal_elaboration, Duration::ZERO);
        assert_eq!(warm.product.checks, 0);
        assert_eq!(warm.product.word_fallbacks, 0);

        // Attaching a cache implies certification, and cached verdicts are
        // re-validated on load so the accounting still balances.
        for report in [&cold, &warm] {
            let cert = report.certification.as_ref().expect("cache => certify");
            assert!(cert.fully_certified(), "{:?}", cert.failures);
            assert_eq!(cert.stats.certified_checks, report.timings.check_count);
        }
        let cold_stats = cold.cache.expect("cache attached");
        assert!(cold_stats.misses > 0, "cold run must populate the cache");
        assert!(cold_stats.bytes > 0);
    }

    /// [`constrained_case`] plus a capture register guarded by a cycle
    /// counter that tops out past the simulated horizon: simulation never
    /// sees taint in it, but the symbolic product starts from an
    /// arbitrary counter value, so the first UPEC check finds the legal
    /// propagation (one inspection, the register leaves the clean set)
    /// and the flow re-checks — a second check on the same engine, whose
    /// clause-store import pass probes the cones the first check encoded.
    fn constrained_ghost_case() -> CaseStudy {
        let mut b = ModuleBuilder::new("modal_ghost");
        let mode = b.control_input("mode", 1);
        let data = b.data_input("data", 8);
        let d = b.sig(data);
        let acc = b.reg("acc", 8, 0);
        let a = b.sig(acc);
        b.set_next(acc, d).expect("drive");
        b.data_output("result", a);
        let cnt = b.reg("cnt", 8, 0);
        let c = b.sig(cnt);
        let one = b.lit(8, 1);
        let inc = b.add(c, one);
        b.set_next(cnt, inc).expect("drive");
        let rare = b.eq_lit(c, 255);
        let ghost = b.reg("ghost", 8, 0);
        let gh = b.sig(ghost);
        let capture = b.mux(rare, d, gh);
        b.set_next(ghost, capture).expect("drive");
        b.data_output("ghost_out", gh);
        let m_sig = b.sig(mode);
        let zero = b.lit(8, 0);
        let visible = b.mux(m_sig, a, zero);
        let leak = b.red_or(visible);
        b.control_output("debug_flag", leak);
        let tick = b.reg("tick", 1, 0);
        let t = b.sig(tick);
        let nt = b.not(t);
        b.set_next(tick, nt).expect("drive");
        b.control_output("phase", t);
        let mode_off = b.eq_lit(m_sig, 0);
        let m = b.build().expect("valid");
        let mode_id = m.signal_by_name("mode").expect("mode");
        let mut instance = DesignInstance::new(m);
        instance.constraints.push(NamedPredicate::with_restriction(
            "debug_mode_disabled",
            mode_off,
            move |_, tb| {
                tb.fix(mode_id, 0);
            },
        ));
        let mut study = CaseStudy::new("toy_modal_ghost", instance);
        study.cycles = 200;
        study
    }

    /// Clause-store round trip at flow level: a store seeded with one
    /// implied cone-local clause per state register (`x ∨ ¬x`, trivially
    /// RUP under any encoding of the cone) is probed and imported by the
    /// run's UPEC checks, the imported clauses — short and wholly inside
    /// one cone — are republished by the engine's export pass on
    /// retirement, and attaching the store changes no observable result.
    /// (Organic exports need thousands of conflicts before clause
    /// minimization sheds the activation literal, so the toy designs
    /// can't produce them; the engine-level test in `fastpath-formal`
    /// and the CI warm-store smoke on the real case studies cover that
    /// half.)
    #[test]
    fn clause_store_round_trips_through_the_flow() {
        let dir = std::env::temp_dir().join(format!(
            "fastpath_flow_store_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("store dir");
        let path = dir.join("clauses.txt");
        let study = constrained_ghost_case();
        let canon = fastpath_rtl::canonical_form(&study.instance.module);
        {
            let seed = fastpath_formal::ClauseStore::open(&path);
            for reg in study.instance.module.state_signals() {
                seed.publish(canon.signal_label(reg), [vec![1, -1]]);
            }
            seed.save().expect("seed store");
        }
        let store = Arc::new(fastpath_formal::ClauseStore::open(&path));
        assert!(store.base_clauses() > 0, "save/reopen promotes the seeds");
        let stored = run_fastpath_with(
            &study,
            FlowOptions {
                clause_store: Some(Arc::clone(&store)),
                ..FlowOptions::default()
            },
        );
        let plain = run_fastpath_with(&constrained_ghost_case(), FlowOptions::default());

        // The store never changes what a consumer observes.
        assert_eq!(stored.verdict, plain.verdict);
        assert_eq!(stored.method, plain.method);
        assert_eq!(stored.manual_inspections, plain.manual_inspections);
        assert_eq!(stored.timings.check_count, plain.timings.check_count);

        // Every cone the checks encoded probed its seed clause and the
        // tautology passed the RUP probe.
        assert!(
            stored.solver_stats.reuse_probed > 0,
            "the run must probe stored clauses (checks={} verdict={:?})",
            stored.timings.check_count,
            stored.verdict,
        );
        assert_eq!(
            stored.solver_stats.reuse_imported, stored.solver_stats.reuse_probed,
            "an implied clause must survive the probe"
        );
        assert_eq!(plain.solver_stats.reuse_probed, 0);

        // The engine's retirement export republished the imported
        // clauses, and saving promotes them for the next run.
        assert!(
            store.pending_clauses() > 0,
            "imported cone-local clauses must be re-exported"
        );
        store.save().expect("save");
        let reopened = fastpath_formal::ClauseStore::open(&path);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(reopened.base_clauses() >= store.base_clauses());
    }

    /// A cache that serves corrupted hinted proofs: revalidation must
    /// reject them and the flow must re-prove rather than trust the entry.
    #[derive(Debug)]
    struct CorruptProofs(cache::MemoryCache);

    impl ProofCache for CorruptProofs {
        fn load(&self, kind: CacheKind, key: &fastpath_rtl::Digest) -> Option<String> {
            let text = self.0.load(kind, key)?;
            if kind == CacheKind::Check {
                // Well-formed entry (checksum intact) whose proof is
                // garbage: only semantic revalidation can catch this.
                if let Ok(cache::CachedCheck::HoldsHinted { cnf, .. }) = cache::decode_check(&text)
                {
                    let bad = cache::CachedCheck::HoldsHinted {
                        cnf,
                        proof: "garbage\n".into(),
                    };
                    return Some(cache::encode_check(&bad));
                }
            }
            Some(text)
        }

        fn store(&self, kind: CacheKind, key: &fastpath_rtl::Digest, entry: &str) {
            self.0.store(kind, key, entry);
        }
    }

    #[test]
    fn corrupted_cached_proof_is_detected_and_reproved() {
        let shared: Arc<dyn ProofCache> = Arc::new(CorruptProofs(cache::MemoryCache::new()));
        let with_cache = || FlowOptions {
            cache: Some(Arc::clone(&shared)),
            ..FlowOptions::default()
        };
        let cold = run_fastpath_with(&constrained_case(), with_cache());
        let warm = run_fastpath_with(&constrained_case(), with_cache());

        // Identical observable results: the corrupted entries were simply
        // re-proved, never trusted.
        assert_eq!(cold.verdict, warm.verdict);
        assert_eq!(cold.events, warm.events);
        let cert = warm.certification.as_ref().expect("cache => certify");
        assert!(cert.fully_certified(), "{:?}", cert.failures);
        assert_eq!(cert.stats.certified_checks, warm.timings.check_count);

        // At least one proof-backed entry failed revalidation on the warm
        // run and was recounted as a miss.
        let warm_stats = warm.cache.expect("cache attached");
        assert!(
            warm_stats.misses > 0,
            "corrupted proofs must surface as misses"
        );
    }
}

//! SecIC3: an IC3/PDR engine specialized for the 2-safety UPEC product.
//!
//! One-step induction over a fully symbolic starting state is the flow's
//! reference oracle, but it rejects every property whose inductive
//! strengthening it cannot see: the symbolic `t` frame includes unreachable
//! states, and designs whose security argument rests on reachability
//! facts ("the debug mask is tied off", "the shadow register mirrors the
//! latch") terminate `Constrained` and pay manual inspections. [`Ic3Engine`]
//! closes that gap mechanically: it runs IC3/PDR over the *fully split*
//! 2-safety product — both instances start from the concrete reset state,
//! no `Z'` leaf sharing — and derives the missing strengthening as a
//! conjunction of **relational clauses** over the product's state bits.
//!
//! # Property shape
//!
//! The engine proves a *transition* safety property, not a state property:
//! a frame state is fine, a frame *step* is bad when it makes a `Z'`
//! register differ at `t+1`, a control output differ at `t` or `t+1`, or a
//! conditional equality break at `t+1` — exactly the monitor disjunction
//! of the induction engine's check. Consequently the inductive invariant
//! that closes the proof satisfies precisely the theorem the induction
//! engine re-validates:
//!
//! ```text
//! Inv(t) ∧ constraints(t, t+1) ∧ invariants(t) ∧ T  →  Inv(t+1) ∧ ¬Bad-step
//! ```
//!
//! The flow never trusts this engine's internals. A successful
//! [`Ic3Engine::prove`] only yields a candidate [`RelationalInvariant`];
//! the caller re-validates it through the standard (certifiable) induction
//! check via [`crate::Upec2Safety::add_relational_clauses`], so an IC3 bug
//! can cause a failed discharge but never an unsound verdict.
//!
//! # Mechanics
//!
//! - **Product**: elaborated once per engine through the same machinery as
//!   the induction template ([`build_frame_with_leaves`] / [`next_state`]),
//!   with split per-instance register leaves and the shared-control /
//!   split-data input policy of the 2-safety model. Spec growth
//!   (constraints, invariants, conditional equalities) is incremental on
//!   the persistent AIG and solver, mirroring the refinement loop.
//! - **Frames**: delta-encoded lemma sets over one incremental CDCL
//!   solver. Each frame level gets an activation literal; a lemma lives at
//!   its highest proven level `j` as the clause `¬act_j ∨ ¬cube`, and a
//!   query against frame `F_m` assumes `{act_j : j ≥ m}`. Frame 0 is the
//!   concrete reset state, assumed bit by bit.
//! - **Generalization**: counterexamples-to-induction are first shrunk by
//!   ternary simulation (drop a state bit, three-valued re-evaluation of
//!   its fanout must keep the requirement definite), then minimized by
//!   literal dropping with down-generalization (join the candidate with
//!   the SAT model on failure), always preserving syntactic disjointness
//!   from reset.
//! - **Determinism**: every query searches in place on the one internal
//!   solver under a per-query conflict budget and a per-attempt
//!   propagation cap, obligations are processed in a fixed
//!   `(level, sequence)` order, and all shrink loops walk fixed literal
//!   orders under deterministic operation budgets — verdicts, lemmas and
//!   [`Ic3Stats`] are byte-identical across `--jobs` values.

use crate::aig::{Aig, AigLit};
use crate::blast::{build_frame_with_leaves, next_state, Frame};
use crate::tseitin::CnfEncoder;
use crate::upec::{alloc_input, blast_predicate};
use crate::words::eq_word;
use fastpath_rtl::{ExprId, Module, SignalId, SignalKind};
use fastpath_sat::{Lit, SolveResult, Var};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which formal engine decides the UPEC obligations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum UpecEngine {
    /// 1-step induction only (the reference oracle): non-inductive
    /// obligations terminate `Constrained`.
    #[default]
    Induction,
    /// Induction first, then SecIC3 escalation: when the refinement loop
    /// would fall back to constraining or inspection, IC3 attempts to
    /// discharge the residual obligation with a machine-derived relational
    /// invariant, re-validated through the induction engine.
    Ic3,
}

impl std::str::FromStr for UpecEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "induction" => Ok(UpecEngine::Induction),
            "ic3" => Ok(UpecEngine::Ic3),
            other => Err(format!(
                "unknown UPEC engine `{other}` (expected `induction` or `ic3`)"
            )),
        }
    }
}

impl std::fmt::Display for UpecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UpecEngine::Induction => "induction",
            UpecEngine::Ic3 => "ic3",
        })
    }
}

/// Cumulative IC3 effort counters, merged across discharge attempts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ic3Stats {
    /// Frame levels opened across all proofs.
    pub frames: u64,
    /// Counterexamples-to-induction extracted from bad-state queries.
    pub ctis: u64,
    /// Lemmas learned (blocked generalized cubes).
    pub lemmas: u64,
    /// Literals removed by generalization (ternary drops + MIC drops).
    pub generalization_drops: u64,
    /// Lemmas pushed forward during propagation.
    pub pushes: u64,
    /// Proof attempts ([`Ic3Engine::prove`] calls).
    pub attempts: u64,
    /// SAT propagations the engine's solver spent inside proof attempts —
    /// the unit [`IC3_PROPAGATION_BUDGET`] caps per attempt.
    pub propagations: u64,
}

impl Ic3Stats {
    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &Ic3Stats) {
        self.frames += other.frames;
        self.ctis += other.ctis;
        self.lemmas += other.lemmas;
        self.generalization_drops += other.generalization_drops;
        self.pushes += other.pushes;
        self.attempts += other.attempts;
        self.propagations += other.propagations;
    }

    /// Per-field difference against an earlier snapshot of the same
    /// engine's counters: the work done in between.
    pub fn since(&self, earlier: &Ic3Stats) -> Ic3Stats {
        Ic3Stats {
            frames: self.frames - earlier.frames,
            ctis: self.ctis - earlier.ctis,
            lemmas: self.lemmas - earlier.lemmas,
            generalization_drops: self.generalization_drops - earlier.generalization_drops,
            pushes: self.pushes - earlier.pushes,
            attempts: self.attempts - earlier.attempts,
            propagations: self.propagations - earlier.propagations,
        }
    }
}

/// One literal of a relational clause: a single bit of one instance's
/// copy of a register, at time `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationalLit {
    /// Register position in [`Module::state_signals`] order.
    pub reg: usize,
    /// Product instance, `0` or `1`.
    pub inst: usize,
    /// Bit index within the register.
    pub bit: u32,
    /// `true` for the positive literal (bit is 1), `false` for negated.
    pub positive: bool,
}

/// A disjunction of [`RelationalLit`]s over the 2-safety product state.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationalClause {
    /// The clause's literals.
    pub lits: Vec<RelationalLit>,
}

/// A machine-derived inductive strengthening: a conjunction of relational
/// clauses that holds in every reachable state of the constrained
/// 2-safety product and is closed under the transition relation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelationalInvariant {
    /// The clauses, in the deterministic order IC3 derived them.
    pub clauses: Vec<RelationalClause>,
}

impl RelationalInvariant {
    /// `true` iff every clause is satisfied by the all-equal reset state
    /// (the product's initial state). IC3 derives only reset-disjoint
    /// lemmas, so this holds by construction; callers use it as an
    /// independent base-case check on cached or replayed invariants.
    pub fn holds_at_reset(&self, module: &Module) -> bool {
        let state_ids = module.state_signals();
        self.clauses.iter().all(|clause| {
            clause.lits.iter().any(|lit| {
                state_ids.get(lit.reg).is_some_and(|&reg| {
                    let signal = module.signal(reg);
                    lit.bit < signal.width
                        && signal
                            .init
                            .as_ref()
                            .is_some_and(|init| init.bit(lit.bit) == lit.positive)
                })
            })
        })
    }

    /// `true` iff every literal names an existing register bit of the
    /// module and a valid instance. Decoded cache entries are validated
    /// with this before being replayed into an engine.
    pub fn is_well_formed(&self, module: &Module) -> bool {
        let state_ids = module.state_signals();
        self.clauses.iter().all(|clause| {
            !clause.lits.is_empty()
                && clause.lits.iter().all(|lit| {
                    lit.inst < 2
                        && state_ids
                            .get(lit.reg)
                            .is_some_and(|&reg| lit.bit < module.signal(reg).width)
                })
        })
    }
}

/// The result of one [`Ic3Engine::prove`] call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ic3Outcome {
    /// An inductive invariant closed the proof; the property holds in all
    /// reachable states of the constrained product. The invariant is a
    /// *candidate* until the caller re-validates it.
    Proved(RelationalInvariant),
    /// A concrete path from reset violates the property — the obligation
    /// is genuinely non-dischargeable under the current spec.
    Counterexample,
    /// A deterministic effort budget ran out before convergence.
    Diverged,
}

/// Maximum frame levels before a proof attempt gives up as
/// [`Ic3Outcome::Diverged`]. Security obligations with small relational
/// strengthenings converge in a handful of frames; anything needing more
/// is better left to inspection than to an unbounded search.
const IC3_MAX_LEVELS: usize = 20;

/// Conflict budget per SAT query, the same determinism device as the word
/// encoding's fallback budget: conflict counts don't depend on wall time,
/// so budget exhaustion — reported as [`Ic3Outcome::Diverged`] — is
/// reproducible across machines and runs.
const IC3_QUERY_CONFLICT_BUDGET: u64 = 8192;

/// Total SAT queries per `prove` call (blocking, generalization and
/// propagation combined) before the attempt diverges.
const IC3_TOTAL_QUERY_BUDGET: u64 = 1_000;

/// Total solver propagations per `prove` call, summed across its queries
/// and checked before each one, so an attempt overshoots the cap by at
/// most one query. Propagations, not conflicts, are what a product query
/// costs: queries under a frame's assumptions are mostly unit
/// propagation, and a divergent attempt on a large product spends tens of
/// millions of propagations on its 1 000 queries with only a few hundred
/// conflicts. Propagation counts are deterministic, so this is the
/// reproducible wall-clock proxy that prices a failed attempt. The cap
/// sits above every attempt that the Table I designs with small products
/// (CVA6-DIV, FWRISCV-MDS) make, including the one discharge.
pub const IC3_PROPAGATION_BUDGET: u64 = 2_000_000;

/// Total ternary-simulation node visits per `prove` call. Every tested
/// literal is charged a full pass below its requirement (`limit` nodes),
/// whatever the event-driven kernel actually re-evaluates, so the budget
/// bounds literal tests and cubes do not depend on the kernel. When
/// exhausted, remaining shrink candidates are deterministically skipped
/// (cubes stay larger; MIC still minimizes them with solver queries).
const IC3_TERNARY_VISIT_BUDGET: u64 = 50_000_000;

/// Down-generalization join iterations per dropped literal.
const IC3_DOWN_MAX_ITERS: usize = 4;

/// Ternary value encoding for the three-valued AIG walker.
const T_FALSE: u8 = 0;
const T_TRUE: u8 = 1;
const T_X: u8 = 2;

/// A cube over flat product state-bit indices, sorted ascending. `true`
/// means the bit is 1 in every state of the cube.
type Cube = Vec<(u32, bool)>;

/// One flat state bit of the product: a register bit of one instance.
#[derive(Debug)]
struct StateBit {
    /// Register position in `state_signals` order.
    reg: usize,
    /// Instance 0 or 1.
    inst: usize,
    /// Bit within the register.
    bit: u32,
    /// The bit's AIG input at `t`.
    at_t: AigLit,
    /// The bit's next-state function (value at `t+1`).
    at_t1: AigLit,
    /// Frozen SAT literal for `at_t` (positive phase).
    sat_t: Lit,
    /// The bit's concrete reset value.
    reset: bool,
}

/// One delta-encoded frame level: its activation literal and the lemmas
/// whose highest proven level this is.
#[derive(Debug)]
struct Level {
    act: Var,
    lemmas: Vec<Cube>,
}

/// The IC3/PDR engine over the fully split 2-safety product of one
/// design. Create once per design, grow the spec incrementally, and call
/// [`prove`](Self::prove) per escalation attempt — the product AIG, its
/// CNF encoding and everything the solver learned persist across calls,
/// while frame activation literals are retired per call.
#[derive(Debug)]
pub struct Ic3Engine<'m> {
    module: &'m Module,
    aig: Aig,
    encoder: CnfEncoder,
    state_ids: Vec<SignalId>,
    /// Flat product state bits: register-major, instance 0 before 1, bit
    /// ascending. Cube indices index this table.
    bits: Vec<StateBit>,
    /// Reset-state assumption literals, one per flat bit.
    init_assumps: Vec<Lit>,
    /// All product input bits (both frames, both instances) for ternary
    /// seeding from SAT models.
    input_lits: Vec<AigLit>,
    frame0_t: Frame,
    frame1_t: Frame,
    frame0_t1: Frame,
    frame1_t1: Frame,
    next0: Vec<Vec<AigLit>>,
    next1: Vec<Vec<AigLit>>,
    /// Per-control-output difference monitors (`t` or `t+1` differs),
    /// built once; structurally-fine outputs fold to constant false and
    /// are dropped.
    out_diff: Vec<AigLit>,
    /// Per-conditional-equality violation monitors at `t+1`.
    cond_viol: Vec<AigLit>,
    /// Memoized per-register next-state difference monitors.
    reg_diff: Vec<Option<AigLit>>,
    /// Frame levels of the in-flight proof (index = level; 0 is reset).
    levels: Vec<Level>,
    /// SAT queries spent in the in-flight proof.
    queries: u64,
    /// Solver propagation total at the start of the in-flight proof.
    propagations_at_prove: u64,
    ternary: Ternary,
    stats: Ic3Stats,
}

impl<'m> Ic3Engine<'m> {
    /// Elaborates the split 2-safety product for `module`.
    pub fn new(module: &'m Module) -> Self {
        let mut aig = Aig::new();
        let mut encoder = CnfEncoder::new();
        let state_ids = module.state_signals();
        let n = module.signal_count();

        // Split register leaves first so their node indices are small and
        // stable regardless of later spec growth.
        let mut reg_leaves: Vec<(Vec<AigLit>, Vec<AigLit>)> = Vec::new();
        for &reg in &state_ids {
            let width = module.signal(reg).width;
            let b0: Vec<AigLit> = (0..width).map(|_| aig.input()).collect();
            let b1: Vec<AigLit> = (0..width).map(|_| aig.input()).collect();
            reg_leaves.push((b0, b1));
        }

        // Inputs at `t`: shared control, split data — the 2-safety input
        // policy of the induction template.
        let mut input_lits = Vec::new();
        let mut leaves0: Vec<Vec<AigLit>> = vec![Vec::new(); n];
        let mut leaves1: Vec<Vec<AigLit>> = vec![Vec::new(); n];
        for (id, signal) in module.signals() {
            if signal.kind == SignalKind::Input {
                let (b0, b1) = alloc_input(&mut aig, signal.role, signal.width);
                input_lits.extend(b0.iter().copied());
                input_lits.extend(b1.iter().copied());
                leaves0[id.index()] = b0;
                leaves1[id.index()] = b1;
            }
        }
        for (i, &reg) in state_ids.iter().enumerate() {
            leaves0[reg.index()] = reg_leaves[i].0.clone();
            leaves1[reg.index()] = reg_leaves[i].1.clone();
        }
        let frame0_t = build_frame_with_leaves(&mut aig, module, leaves0);
        let frame1_t = build_frame_with_leaves(&mut aig, module, leaves1);
        let next0 = next_state(&mut aig, module, &frame0_t);
        let next1 = next_state(&mut aig, module, &frame1_t);

        // Frames at `t+1`: next-state register leaves plus fresh inputs.
        let mut leaves0_t1: Vec<Vec<AigLit>> = vec![Vec::new(); n];
        let mut leaves1_t1: Vec<Vec<AigLit>> = vec![Vec::new(); n];
        for (i, &reg) in state_ids.iter().enumerate() {
            leaves0_t1[reg.index()] = next0[i].clone();
            leaves1_t1[reg.index()] = next1[i].clone();
        }
        for (id, signal) in module.signals() {
            if signal.kind == SignalKind::Input {
                let (b0, b1) = alloc_input(&mut aig, signal.role, signal.width);
                input_lits.extend(b0.iter().copied());
                input_lits.extend(b1.iter().copied());
                leaves0_t1[id.index()] = b0;
                leaves1_t1[id.index()] = b1;
            }
        }
        let frame0_t1 = build_frame_with_leaves(&mut aig, module, leaves0_t1);
        let frame1_t1 = build_frame_with_leaves(&mut aig, module, leaves1_t1);

        // Output monitors: a control output diverging at `t` or `t+1`.
        let mut out_diff = Vec::new();
        for y in module.control_outputs() {
            let eq_a = eq_word(&mut aig, frame0_t.signal(y), frame1_t.signal(y));
            let eq_b = eq_word(&mut aig, frame0_t1.signal(y), frame1_t1.signal(y));
            let both = aig.and(eq_a, eq_b);
            let diff = !both;
            if diff != AigLit::FALSE {
                out_diff.push(diff);
            }
        }

        // Flat state-bit table with its SAT handles (needed for reset
        // assumptions, cube clauses and model extraction).
        let mut bits = Vec::new();
        let mut init_assumps = Vec::new();
        for (i, &reg) in state_ids.iter().enumerate() {
            let signal = module.signal(reg);
            let init = signal.init.as_ref().expect("register init");
            for inst in 0..2 {
                let leaves = if inst == 0 {
                    &reg_leaves[i].0
                } else {
                    &reg_leaves[i].1
                };
                for bit in 0..signal.width {
                    let at_t = leaves[bit as usize];
                    let sat_t = encoder.lit(&aig, at_t);
                    let reset = init.bit(bit);
                    init_assumps.push(if reset { sat_t } else { !sat_t });
                    bits.push(StateBit {
                        reg: i,
                        inst,
                        bit,
                        at_t,
                        at_t1: if inst == 0 {
                            next0[i][bit as usize]
                        } else {
                            next1[i][bit as usize]
                        },
                        sat_t,
                        reset,
                    });
                }
            }
        }

        let reg_count = state_ids.len();
        Ic3Engine {
            module,
            aig,
            encoder,
            state_ids,
            bits,
            init_assumps,
            input_lits,
            frame0_t,
            frame1_t,
            frame0_t1,
            frame1_t1,
            next0,
            next1,
            out_diff,
            cond_viol: Vec::new(),
            reg_diff: vec![None; reg_count],
            levels: Vec::new(),
            queries: 0,
            propagations_at_prove: 0,
            ternary: Ternary::new(IC3_TERNARY_VISIT_BUDGET),
            stats: Ic3Stats::default(),
        }
    }

    /// Cumulative effort counters across all `prove` calls.
    pub fn stats(&self) -> Ic3Stats {
        self.stats
    }

    /// Asserts a software constraint on both instances in both frames
    /// (unguarded: the spec only ever grows, matching the flow).
    pub fn add_software_constraint(&mut self, expr: ExprId) {
        let module = self.module;
        for frame in [
            &self.frame0_t,
            &self.frame1_t,
            &self.frame0_t1,
            &self.frame1_t1,
        ] {
            let lit = blast_predicate(&mut self.aig, module, frame, expr);
            self.encoder.assert_true(&self.aig, lit);
        }
    }

    /// Asserts an invariant on both instances at `t`. Mirroring the
    /// induction engine, invariants are `t`-frame assumptions only — IC3's
    /// consecution theorem then matches the re-validation check's premise.
    pub fn add_invariant(&mut self, expr: ExprId) {
        let module = self.module;
        for frame in [&self.frame0_t, &self.frame1_t] {
            let lit = blast_predicate(&mut self.aig, module, frame, expr);
            self.encoder.assert_true(&self.aig, lit);
        }
    }

    /// Registers a conditional equality's violation monitor: condition
    /// holds in both instances at `t+1` but the target register's next
    /// states differ. The equality is deliberately *not* assumed at `t`
    /// (a larger reachable set is sound, and the re-validation check's
    /// extra `t` premise only helps).
    pub fn add_conditional_equality(&mut self, cond: ExprId, signal: SignalId) {
        let module = self.module;
        let c0 = blast_predicate(&mut self.aig, module, &self.frame0_t1, cond);
        let c1 = blast_predicate(&mut self.aig, module, &self.frame1_t1, cond);
        let both = self.aig.and(c0, c1);
        let idx = self
            .state_ids
            .iter()
            .position(|&r| r == signal)
            .expect("conditional equality must target a register");
        let eqn = eq_word(&mut self.aig, &self.next0[idx], &self.next1[idx]);
        let viol = {
            let ne = !eqn;
            self.aig.and(both, ne)
        };
        if viol != AigLit::FALSE {
            self.cond_viol.push(viol);
        }
    }

    /// Runs IC3 for the partitioning `z_prime`: prove that no reachable
    /// product step diverges a `Z'` register, a control output, or a
    /// conditional equality.
    pub fn prove(&mut self, z_prime: &[SignalId]) -> Ic3Outcome {
        self.queries = 0;
        self.propagations_at_prove = self.propagations();
        self.ternary.visits = 0;
        let out = self.prove_inner(z_prime);
        // Retire this proof's frame stack: the unit `¬act` permanently
        // satisfies every lemma clause of the level, so the next prove
        // starts from clean frames while learned clauses carry over.
        let levels = std::mem::take(&mut self.levels);
        for level in levels {
            self.encoder.add_clause(&[level.act.negative()]);
        }
        self.stats.attempts += 1;
        self.stats.propagations += self.propagations() - self.propagations_at_prove;
        out
    }

    /// The engine solver's cumulative propagation count.
    fn propagations(&self) -> u64 {
        self.encoder.solver().stats().propagations
    }

    fn prove_inner(&mut self, z_prime: &[SignalId]) -> Ic3Outcome {
        let bad = self.build_bad(z_prime);
        if bad == AigLit::FALSE {
            // Structurally nothing to diverge: trivially safe.
            return Ic3Outcome::Proved(RelationalInvariant::default());
        }
        self.ternary.sync(&self.aig);
        let bad_sat = self.encoder.lit(&self.aig, bad);

        // Base: can reset itself step into Bad? (Bad spans t and t+1, so
        // this covers both the 0-step and 1-step base cases.)
        let mut assumps = self.init_assumps.clone();
        assumps.push(bad_sat);
        match self.solve(&assumps) {
            Err(o) => return o,
            Ok(SolveResult::Sat) => return Ic3Outcome::Counterexample,
            Ok(SolveResult::Unsat) => {}
        }

        // Level 0 is the reset state (assumed, no activation literal, but
        // a placeholder keeps indices aligned); level 1 starts empty.
        self.levels = Vec::new();
        for _ in 0..2 {
            let act = self.encoder.fresh_var();
            self.levels.push(Level {
                act,
                lemmas: Vec::new(),
            });
        }

        for k in 1..=IC3_MAX_LEVELS {
            self.stats.frames += 1;
            if let Err(o) = self.block_all(k, bad, bad_sat) {
                return o;
            }
            let act = self.encoder.fresh_var();
            self.levels.push(Level {
                act,
                lemmas: Vec::new(),
            });
            match self.propagate(k) {
                Err(o) => return o,
                Ok(Some(fixpoint)) => {
                    let mut clauses = Vec::new();
                    for level in &self.levels[fixpoint + 1..] {
                        for cube in &level.lemmas {
                            clauses.push(cube_to_clause(&self.bits, cube));
                        }
                    }
                    return Ic3Outcome::Proved(RelationalInvariant { clauses });
                }
                Ok(None) => {}
            }
        }
        Ic3Outcome::Diverged
    }

    /// The bad-step monitor for `z_prime`: some `Z'` register differs at
    /// `t+1`, some control output differs at `t` or `t+1`, or some
    /// conditional equality is violated at `t+1`.
    fn build_bad(&mut self, z_prime: &[SignalId]) -> AigLit {
        let mut in_z = vec![false; self.module.signal_count()];
        for &z in z_prime {
            in_z[z.index()] = true;
        }
        let mut terms = Vec::new();
        for i in 0..self.state_ids.len() {
            if !in_z[self.state_ids[i].index()] {
                continue;
            }
            let diff = match self.reg_diff[i] {
                Some(d) => d,
                None => {
                    let eq = eq_word(&mut self.aig, &self.next0[i], &self.next1[i]);
                    let d = !eq;
                    self.reg_diff[i] = Some(d);
                    d
                }
            };
            if diff != AigLit::FALSE {
                terms.push(diff);
            }
        }
        terms.extend(self.out_diff.iter().copied());
        terms.extend(self.cond_viol.iter().copied());
        self.aig.or_all(&terms)
    }

    /// Blocks every CTI reachable in frame `k`'s over-approximation.
    fn block_all(&mut self, k: usize, bad: AigLit, bad_sat: Lit) -> Result<(), Ic3Outcome> {
        loop {
            let mut assumps = self.act_assumps(k);
            assumps.push(bad_sat);
            match self.solve(&assumps)? {
                SolveResult::Unsat => return Ok(()),
                SolveResult::Sat => {
                    self.stats.ctis += 1;
                    let mut cube = self.model_cube();
                    self.seed_ternary(&cube);
                    if !self.init_disjoint(&cube) {
                        // The over-approximation claims reset steps into
                        // Bad, which the base check refuted: an artifact
                        // of unassigned model bits. Don't block a cube
                        // containing reset — give up instead.
                        return Err(Ic3Outcome::Diverged);
                    }
                    self.ternary_shrink(&mut cube, &[(bad, true)]);
                    self.block_obligations(cube, k)?;
                }
            }
        }
    }

    /// Recursively blocks `cube` at `level` through the obligation queue.
    fn block_obligations(&mut self, cube: Cube, k: usize) -> Result<(), Ic3Outcome> {
        let mut queue: BinaryHeap<Reverse<(usize, u64, Cube)>> = BinaryHeap::new();
        let mut seq = 0u64;
        queue.push(Reverse((k, seq, cube)));
        while let Some(Reverse((lvl, _, cube))) = queue.pop() {
            if lvl == 0 {
                return Err(Ic3Outcome::Counterexample);
            }
            match self.block_query(&cube, lvl, true)? {
                None => {
                    // Inductive relative to F_{lvl-1}: generalize, learn,
                    // and chase the same cube at the next level.
                    let lemma = self.mic(cube.clone(), lvl)?;
                    self.insert_lemma(lemma, lvl);
                    self.stats.lemmas += 1;
                    if lvl < k {
                        seq += 1;
                        queue.push(Reverse((lvl + 1, seq, cube)));
                    }
                }
                Some(mut pred) => {
                    if lvl == 1 {
                        // The predecessor lies in the concrete reset
                        // state: a real path from reset reaches Bad.
                        return Err(Ic3Outcome::Counterexample);
                    }
                    if !self.init_disjoint(&pred) {
                        return Err(Ic3Outcome::Counterexample);
                    }
                    let req: Vec<(AigLit, bool)> = cube
                        .iter()
                        .map(|&(idx, val)| (self.bits[idx as usize].at_t1, val))
                        .collect();
                    self.ternary_shrink(&mut pred, &req);
                    seq += 1;
                    queue.push(Reverse((lvl - 1, seq, pred)));
                    seq += 1;
                    queue.push(Reverse((lvl, seq, cube)));
                }
            }
        }
        Ok(())
    }

    /// The relative-induction query `F_{lvl-1} ∧ ¬cube ∧ T ∧ cube'`.
    /// `Ok(None)` means UNSAT (blocked); `Ok(Some(pred))` returns the
    /// model's full `t`-state cube, with the ternary simulator seeded
    /// from the model when `seed` is set.
    fn block_query(
        &mut self,
        cube: &Cube,
        lvl: usize,
        seed: bool,
    ) -> Result<Option<Cube>, Ic3Outcome> {
        let q = self.encoder.fresh_var();
        let mut clause = vec![q.negative()];
        for &(idx, val) in cube {
            let sat_t = self.bits[idx as usize].sat_t;
            clause.push(if val { !sat_t } else { sat_t });
        }
        self.encoder.add_clause(&clause);
        let mut assumps = if lvl == 1 {
            self.init_assumps.clone()
        } else {
            self.act_assumps(lvl - 1)
        };
        assumps.push(q.positive());
        for &(idx, val) in cube {
            let at_t1 = self.bits[idx as usize].at_t1;
            let l = self.encoder.lit(&self.aig, at_t1);
            assumps.push(if val { l } else { !l });
        }
        let result = self.solve(&assumps);
        let out = match result {
            Err(o) => Err(o),
            Ok(SolveResult::Unsat) => Ok(None),
            Ok(SolveResult::Sat) => {
                let pred = self.model_cube();
                if seed {
                    self.seed_ternary(&pred);
                }
                Ok(Some(pred))
            }
        };
        self.encoder.add_clause(&[q.negative()]);
        out
    }

    /// MIC: minimal inductive cube by literal dropping with bounded
    /// down-generalization, in deterministic literal order.
    fn mic(&mut self, mut cube: Cube, lvl: usize) -> Result<Cube, Ic3Outcome> {
        let mut i = 0;
        while i < cube.len() && cube.len() > 1 {
            let mut cand = cube.clone();
            cand.remove(i);
            if !self.init_disjoint(&cand) {
                i += 1;
                continue;
            }
            match self.down(cand, lvl)? {
                Some(better) => {
                    self.stats.generalization_drops += (cube.len() - better.len()) as u64;
                    cube = better;
                    // Position i now holds the next un-examined literal.
                }
                None => i += 1,
            }
        }
        Ok(cube)
    }

    /// Down-generalization: join the candidate with SAT models until it
    /// becomes relatively inductive or the iteration budget runs out.
    fn down(&mut self, mut cand: Cube, lvl: usize) -> Result<Option<Cube>, Ic3Outcome> {
        for _ in 0..IC3_DOWN_MAX_ITERS {
            match self.block_query(&cand, lvl, false)? {
                None => return Ok(Some(cand)),
                Some(model) => {
                    cand.retain(|entry| model.binary_search(entry).is_ok());
                    if cand.is_empty() || !self.init_disjoint(&cand) {
                        return Ok(None);
                    }
                }
            }
        }
        Ok(None)
    }

    /// Lemma propagation after frame `k` is blocked: push every lemma
    /// whose consecution holds one level up. Returns the fixpoint level if
    /// some level's delta emptied.
    fn propagate(&mut self, k: usize) -> Result<Option<usize>, Ic3Outcome> {
        for j in 1..=k {
            let lemmas = std::mem::take(&mut self.levels[j].lemmas);
            let mut kept = Vec::new();
            for lemma in lemmas {
                let mut assumps = self.act_assumps(j);
                for &(idx, val) in &lemma {
                    let at_t1 = self.bits[idx as usize].at_t1;
                    let l = self.encoder.lit(&self.aig, at_t1);
                    assumps.push(if val { l } else { !l });
                }
                match self.solve(&assumps) {
                    Err(o) => {
                        // Put the lemma back before bailing so the frame
                        // stack retires consistently.
                        kept.push(lemma);
                        self.levels[j].lemmas.extend(kept);
                        return Err(o);
                    }
                    Ok(SolveResult::Unsat) => {
                        self.insert_lemma(lemma, j + 1);
                        self.stats.pushes += 1;
                    }
                    Ok(SolveResult::Sat) => kept.push(lemma),
                }
            }
            self.levels[j].lemmas = kept;
            if self.levels[j].lemmas.is_empty() {
                return Ok(Some(j));
            }
        }
        Ok(None)
    }

    /// Adds `cube`'s blocking clause at `lvl` (both to the solver, under
    /// the level's activation literal, and to the level's lemma list).
    fn insert_lemma(&mut self, cube: Cube, lvl: usize) {
        let act = self.levels[lvl].act;
        let mut clause = vec![act.negative()];
        for &(idx, val) in &cube {
            let sat_t = self.bits[idx as usize].sat_t;
            clause.push(if val { !sat_t } else { sat_t });
        }
        self.encoder.add_clause(&clause);
        self.levels[lvl].lemmas.push(cube);
    }

    /// Activation assumptions for frame `from` (delta encoding: every
    /// level at or above `from`).
    fn act_assumps(&self, from: usize) -> Vec<Lit> {
        self.levels[from..]
            .iter()
            .map(|level| level.act.positive())
            .collect()
    }

    /// One budgeted solver call, with global query accounting. Budget
    /// exhaustion — per query or total — is a deterministic divergence.
    fn solve(&mut self, assumps: &[Lit]) -> Result<SolveResult, Ic3Outcome> {
        self.queries += 1;
        if self.queries > IC3_TOTAL_QUERY_BUDGET {
            return Err(Ic3Outcome::Diverged);
        }
        if self.propagations() - self.propagations_at_prove > IC3_PROPAGATION_BUDGET {
            return Err(Ic3Outcome::Diverged);
        }
        match self
            .encoder
            .solve_with_budget(assumps, IC3_QUERY_CONFLICT_BUDGET)
        {
            None => Err(Ic3Outcome::Diverged),
            Some(r) => Ok(r),
        }
    }

    /// The full `t`-state cube of the current SAT model (bits the solver
    /// left unassigned are omitted — any value works for them).
    fn model_cube(&self) -> Cube {
        let mut cube = Vec::new();
        for (i, bit) in self.bits.iter().enumerate() {
            if let Some(v) = self.encoder.model_value(bit.at_t) {
                cube.push((i as u32, v));
            }
        }
        cube
    }

    /// `true` iff some literal of `cube` differs from the reset state.
    fn init_disjoint(&self, cube: &Cube) -> bool {
        cube.iter()
            .any(|&(idx, val)| val != self.bits[idx as usize].reset)
    }

    /// Seeds the ternary simulator from the current SAT model: inputs at
    /// their model values, state bits at `cube`'s values, everything else
    /// unknown.
    fn seed_ternary(&mut self, cube: &Cube) {
        let preset = &mut self.ternary.preset;
        for &l in &self.input_lits {
            preset[l.node()] = match self.encoder.model_value(l) {
                Some(v) => tval(v),
                None => T_X,
            };
        }
        for bit in &self.bits {
            preset[bit.at_t.node()] = T_X;
        }
        for &(idx, val) in cube {
            preset[self.bits[idx as usize].at_t.node()] = tval(val);
        }
    }

    /// Ternary cube shrinking ([`Ternary::shrink`]) from the current seed,
    /// counted as generalization drops.
    fn ternary_shrink(&mut self, cube: &mut Cube, req: &[(AigLit, bool)]) {
        self.stats.generalization_drops += self.ternary.shrink(&self.aig, &self.bits, cube, req);
    }
}

/// Three-valued simulation for cube shrinking, event-driven.
///
/// A shrink evaluates the AIG below `limit` once. Each tested literal then
/// turns its state bit to X and re-evaluates only that bit's fanout, in
/// node order, until values stop changing; when the literal must stay, the
/// change is undone from a log. Every test is charged `limit` visits, what
/// a full re-evaluation below `limit` costs, so the visit budget cuts the
/// literal sequence off where the full-pass oracle in the test module
/// does, and every cube is independent of the kernel.
#[derive(Debug)]
struct Ternary {
    /// Seeded node values: inputs from the SAT model, state bits from the
    /// cube, X elsewhere.
    preset: Vec<u8>,
    /// Evaluated node values, valid below the in-flight shrink's `limit`.
    values: Vec<u8>,
    /// AND gates reading each node, ascending; extended as the AIG grows.
    fanout: Vec<Vec<u32>>,
    /// Gates awaiting re-evaluation, lowest node first.
    queue: BinaryHeap<Reverse<u32>>,
    /// `(node, old value)` for every value the in-flight test changed.
    undo: Vec<(u32, u8)>,
    /// Node visits charged in the in-flight proof.
    visits: u64,
    /// Node visits allowed per proof.
    budget: u64,
}

impl Ternary {
    fn new(budget: u64) -> Self {
        Ternary {
            preset: Vec::new(),
            values: Vec::new(),
            fanout: Vec::new(),
            queue: BinaryHeap::new(),
            undo: Vec::new(),
            visits: 0,
            budget,
        }
    }

    /// Extends the per-node tables to every node of `aig`. Nodes are only
    /// ever appended, so existing fanout lists gain the new gates at
    /// their ends and stay sorted.
    fn sync(&mut self, aig: &Aig) {
        let n = aig.node_count();
        for node in self.fanout.len()..n {
            self.fanout.push(Vec::new());
            if let Some((a, b)) = aig.and_fanins(node) {
                self.fanout[a.node()].push(node as u32);
                self.fanout[b.node()].push(node as u32);
            }
        }
        self.preset.resize(n, T_X);
        self.values.resize(n, T_X);
    }

    /// Drops cube literals whose removal keeps every requirement literal
    /// ternary-definite at its required value, never dropping the last
    /// reset-differing literal. Fixed order, budgeted. Leaves dropped
    /// literals at X in `preset` and returns how many were dropped.
    fn shrink(
        &mut self,
        aig: &Aig,
        bits: &[StateBit],
        cube: &mut Cube,
        req: &[(AigLit, bool)],
    ) -> u64 {
        if cube.len() <= 1 || req.is_empty() {
            return 0;
        }
        let limit = req.iter().map(|&(l, _)| l.node()).max().unwrap_or(0) + 1;
        let pass_cost = limit as u64;
        if self.visits + pass_cost > self.budget {
            return 0;
        }
        ternary_pass(aig, &self.preset, &mut self.values, limit);
        self.visits += pass_cost;
        if !req_holds(&self.values, req) {
            // Unassigned model bits already make the requirement
            // indefinite; nothing can be dropped on top of that.
            return 0;
        }
        let mut diff_count = cube
            .iter()
            .filter(|&&(idx, val)| val != bits[idx as usize].reset)
            .count();
        let mut drops = 0;
        let mut i = 0;
        while i < cube.len() && cube.len() > 1 {
            let (idx, val) = cube[i];
            let is_diff = val != bits[idx as usize].reset;
            if is_diff && diff_count == 1 {
                i += 1;
                continue;
            }
            if self.visits + pass_cost > self.budget {
                break;
            }
            self.visits += pass_cost;
            let node = bits[idx as usize].at_t.node();
            self.preset[node] = T_X;
            self.propagate_x(aig, node, limit);
            if req_holds(&self.values, req) {
                self.undo.clear();
                cube.remove(i);
                if is_diff {
                    diff_count -= 1;
                }
                drops += 1;
            } else {
                self.preset[node] = tval(val);
                for (node, old) in self.undo.drain(..).rev() {
                    self.values[node as usize] = old;
                }
                i += 1;
            }
        }
        drops
    }

    /// Sets `node` to X and re-evaluates its fanout below `limit`, lowest
    /// node first, so every gate reads final fanin values and is evaluated
    /// at most once. Each changed value is logged in `undo`.
    fn propagate_x(&mut self, aig: &Aig, node: usize, limit: usize) {
        self.undo.push((node as u32, self.values[node]));
        self.values[node] = T_X;
        self.enqueue_fanout(node, limit);
        let mut last = None;
        while let Some(Reverse(gate)) = self.queue.pop() {
            if last == Some(gate) {
                // Queued by both fanins; already evaluated.
                continue;
            }
            last = Some(gate);
            let gate = gate as usize;
            let (a, b) = aig.and_fanins(gate).expect("fanout lists hold AND gates");
            let value = tand(tlit(&self.values, a), tlit(&self.values, b));
            if value != self.values[gate] {
                self.undo.push((gate as u32, self.values[gate]));
                self.values[gate] = value;
                self.enqueue_fanout(gate, limit);
            }
        }
    }

    /// Queues the gates reading `node` below `limit` (a prefix, since
    /// fanout lists are ascending).
    fn enqueue_fanout(&mut self, node: usize, limit: usize) {
        let below = self.fanout[node]
            .iter()
            .take_while(|&&gate| (gate as usize) < limit);
        self.queue.extend(below.map(|&gate| Reverse(gate)));
    }
}

/// Converts a blocked cube into its relational clause (the negation).
fn cube_to_clause(bits: &[StateBit], cube: &Cube) -> RelationalClause {
    RelationalClause {
        lits: cube
            .iter()
            .map(|&(idx, val)| {
                let b = &bits[idx as usize];
                RelationalLit {
                    reg: b.reg,
                    inst: b.inst,
                    bit: b.bit,
                    positive: !val,
                }
            })
            .collect(),
    }
}

/// The definite ternary value of a Boolean.
fn tval(b: bool) -> u8 {
    if b {
        T_TRUE
    } else {
        T_FALSE
    }
}

/// Three-valued AND over `{0, 1, X}`.
fn tand(a: u8, b: u8) -> u8 {
    if a == T_FALSE || b == T_FALSE {
        T_FALSE
    } else if a == T_TRUE && b == T_TRUE {
        T_TRUE
    } else {
        T_X
    }
}

/// Three-valued literal read (complement maps X to X).
fn tlit(values: &[u8], lit: AigLit) -> u8 {
    let v = values[lit.node()];
    if lit.is_complemented() {
        match v {
            T_FALSE => T_TRUE,
            T_TRUE => T_FALSE,
            _ => T_X,
        }
    } else {
        v
    }
}

/// One forward three-valued evaluation pass over nodes `[0, limit)`.
/// Fanins precede their AND gates (the AIG is built topologically), so a
/// single sweep settles every node.
fn ternary_pass(aig: &Aig, preset: &[u8], values: &mut [u8], limit: usize) {
    if limit == 0 {
        return;
    }
    values[0] = T_FALSE;
    for node in 1..limit {
        values[node] = match aig.and_fanins(node) {
            Some((a, b)) => tand(tlit(values, a), tlit(values, b)),
            None => preset[node],
        };
    }
}

/// `true` iff every requirement literal is ternary-definite at its
/// required value.
fn req_holds(values: &[u8], req: &[(AigLit, bool)]) -> bool {
    req.iter()
        .all(|&(l, v)| tlit(values, l) == if v { T_TRUE } else { T_FALSE })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_rtl::ModuleBuilder;

    /// Leaks only while `mask` is 1 — but `mask` resets to 0 and never
    /// changes, so the leak is unreachable. 1-step induction cannot see
    /// that (its symbolic `t` state includes `mask = 1`); IC3 derives the
    /// strengthening `mask0 = 0 ∧ mask1 = 0`.
    fn masked_leak() -> Module {
        let mut b = ModuleBuilder::new("masked");
        let data = b.data_input("data", 4);
        let d = b.sig(data);
        let acc = b.reg("acc", 4, 0);
        b.set_next(acc, d).expect("drive");
        let a = b.sig(acc);
        let mask = b.reg("mask", 1, 0);
        let m = b.sig(mask);
        b.set_next(mask, m).expect("drive");
        let zero = b.lit(4, 0);
        let gated = b.mux(m, a, zero);
        let leak = b.red_or(gated);
        b.control_output("leak", leak);
        b.build().expect("valid")
    }

    /// Genuinely leaky: the control output reads data state directly.
    fn leaky() -> Module {
        let mut b = ModuleBuilder::new("leak");
        let data = b.data_input("data", 2);
        let d = b.sig(data);
        let acc = b.reg("acc", 2, 0);
        b.set_next(acc, d).expect("drive");
        let a = b.sig(acc);
        let low = b.bit(a, 0);
        b.control_output("tap", low);
        b.build().expect("valid")
    }

    /// A free-running counter drives the only control output; IC3 must
    /// derive the relational equality `cnt0 = cnt1` bit by bit.
    fn counter() -> Module {
        let mut b = ModuleBuilder::new("cnt");
        let data = b.data_input("data", 4);
        let d = b.sig(data);
        let acc = b.reg("acc", 4, 0);
        let a = b.sig(acc);
        let sum = b.add(a, d);
        b.set_next(acc, sum).expect("drive");
        let cnt = b.reg("cnt", 3, 0);
        let c = b.sig(cnt);
        let one = b.lit(3, 1);
        let inc = b.add(c, one);
        b.set_next(cnt, inc).expect("drive");
        let busy = b.eq_lit(c, 0);
        b.control_output("busy", busy);
        b.build().expect("valid")
    }

    #[test]
    fn masked_leak_is_not_inductive_but_ic3_proves_it() {
        let m = masked_leak();
        let mask = m.signal_by_name("mask").expect("mask");
        // Reference: 1-step induction rejects Z' = {mask}.
        let mut upec = crate::Upec2Safety::new(&m, &crate::UpecSpec::default());
        assert!(!upec.check(&[mask]).holds(), "induction must fail");
        // IC3 proves it with a reset-true invariant.
        let mut ic3 = Ic3Engine::new(&m);
        match ic3.prove(&[mask]) {
            Ic3Outcome::Proved(inv) => {
                assert!(!inv.clauses.is_empty());
                assert!(inv.holds_at_reset(&m));
                assert!(inv.is_well_formed(&m));
            }
            other => panic!("expected proof, got {other:?}"),
        }
        let stats = ic3.stats();
        assert!(stats.lemmas > 0);
        assert!(stats.frames > 0);
        assert!(stats.ctis > 0);
    }

    #[test]
    fn leaky_design_yields_a_counterexample() {
        let m = leaky();
        let mut ic3 = Ic3Engine::new(&m);
        assert_eq!(ic3.prove(&[]), Ic3Outcome::Counterexample);
    }

    #[test]
    fn counter_equality_invariant_is_derived() {
        let m = counter();
        let cnt = m.signal_by_name("cnt").expect("cnt");
        let mut ic3 = Ic3Engine::new(&m);
        match ic3.prove(&[cnt]) {
            Ic3Outcome::Proved(inv) => {
                assert!(inv.holds_at_reset(&m));
                // The strengthening must tie the two counter instances
                // together: some clause mentions both instances.
                assert!(inv
                    .clauses
                    .iter()
                    .any(|c| c.lits.iter().any(|l| l.inst == 0)
                        && c.lits.iter().any(|l| l.inst == 1)));
            }
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn prove_is_deterministic_and_repeatable() {
        let m = masked_leak();
        let mask = m.signal_by_name("mask").expect("mask");
        let run = || {
            let mut ic3 = Ic3Engine::new(&m);
            let out = ic3.prove(&[mask]);
            (out, ic3.stats())
        };
        let (o1, s1) = run();
        let (o2, s2) = run();
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        // A second prove on the same engine still proves (frames are
        // retired between calls). Its lemmas may differ — the solver
        // carries learned clauses — but that sequence is itself replayed
        // identically on every run, which is what the fresh-engine
        // equality above pins down.
        let mut ic3 = Ic3Engine::new(&m);
        assert!(matches!(ic3.prove(&[mask]), Ic3Outcome::Proved(_)));
        assert!(matches!(ic3.prove(&[mask]), Ic3Outcome::Proved(_)));
    }

    #[test]
    fn planted_non_invariant_clause_fails_reset_check() {
        let m = masked_leak();
        let state_ids = m.state_signals();
        let mask_pos = state_ids
            .iter()
            .position(|&r| m.signal(r).name == "mask")
            .expect("mask position");
        // "mask0 is 1" is false at reset.
        let planted = RelationalInvariant {
            clauses: vec![RelationalClause {
                lits: vec![RelationalLit {
                    reg: mask_pos,
                    inst: 0,
                    bit: 0,
                    positive: true,
                }],
            }],
        };
        assert!(!planted.holds_at_reset(&m));
        // Out-of-range literals are rejected as malformed.
        let malformed = RelationalInvariant {
            clauses: vec![RelationalClause {
                lits: vec![RelationalLit {
                    reg: state_ids.len(),
                    inst: 0,
                    bit: 0,
                    positive: true,
                }],
            }],
        };
        assert!(!malformed.is_well_formed(&m));
    }

    /// The full-pass shrink the event-driven kernel replaced, kept as its
    /// oracle: every tested literal re-evaluates all nodes below `limit`.
    /// Returns the drops; `visits` accumulates like `Ternary::visits`.
    fn shrink_full_pass(
        aig: &Aig,
        preset: &mut [u8],
        bits: &[StateBit],
        cube: &mut Cube,
        req: &[(AigLit, bool)],
        visits: &mut u64,
        budget: u64,
    ) -> u64 {
        if cube.len() <= 1 || req.is_empty() {
            return 0;
        }
        let mut values = vec![T_X; aig.node_count()];
        let limit = req.iter().map(|&(l, _)| l.node()).max().unwrap_or(0) + 1;
        let pass_cost = limit as u64;
        if *visits + pass_cost > budget {
            return 0;
        }
        ternary_pass(aig, preset, &mut values, limit);
        *visits += pass_cost;
        if !req_holds(&values, req) {
            return 0;
        }
        let mut diff_count = cube
            .iter()
            .filter(|&&(idx, val)| val != bits[idx as usize].reset)
            .count();
        let mut drops = 0;
        let mut i = 0;
        while i < cube.len() && cube.len() > 1 {
            let (idx, val) = cube[i];
            let is_diff = val != bits[idx as usize].reset;
            if is_diff && diff_count == 1 {
                i += 1;
                continue;
            }
            if *visits + pass_cost > budget {
                break;
            }
            let node = bits[idx as usize].at_t.node();
            preset[node] = T_X;
            ternary_pass(aig, preset, &mut values, limit);
            *visits += pass_cost;
            if req_holds(&values, req) {
                cube.remove(i);
                if is_diff {
                    diff_count -= 1;
                }
                drops += 1;
            } else {
                preset[node] = tval(val);
                i += 1;
            }
        }
        drops
    }

    /// A deterministic xorshift stream for the randomized kernel test.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// Adds random AND gates over the AIG's non-constant nodes; `nodes`
    /// holds every node's positive literal, indexed by node.
    fn grow_random(aig: &mut Aig, nodes: &mut Vec<AigLit>, rng: &mut XorShift, gates: usize) {
        for _ in 0..gates {
            let mut pick = || {
                let lit = nodes[1 + rng.below(nodes.len() - 1)];
                if rng.below(2) == 1 {
                    !lit
                } else {
                    lit
                }
            };
            let (a, b) = (pick(), pick());
            let gate = aig.and(a, b);
            if aig.node_count() > nodes.len() {
                nodes.push(gate);
            }
        }
    }

    #[test]
    fn event_driven_shrink_matches_the_full_pass() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for case in 0..300 {
            let mut aig = Aig::new();
            let inputs: Vec<AigLit> = (0..2 + rng.below(12)).map(|_| aig.input()).collect();
            let mut nodes = vec![AigLit::FALSE];
            nodes.extend(&inputs);
            let gates = 5 + rng.below(60);
            grow_random(&mut aig, &mut nodes, &mut rng, gates);
            // State bits: a random subset of the inputs, in input order.
            let mut bits = Vec::new();
            for &at_t in &inputs {
                if rng.below(3) != 0 {
                    bits.push(StateBit {
                        reg: 0,
                        inst: 0,
                        bit: 0,
                        at_t,
                        at_t1: at_t,
                        sat_t: Var::from_index(0).positive(),
                        reset: rng.below(2) == 1,
                    });
                }
            }
            // Small budgets exercise the cut-off; large ones never bind.
            let budget = if case % 3 == 0 {
                rng.below(400) as u64
            } else {
                u64::MAX
            };
            let mut kernel = Ternary::new(budget);
            let mut ref_visits = 0;
            // Several shrinks per engine, growing the AIG in between, so
            // stale values above a smaller `limit` and incrementally
            // extended fanout lists are both covered.
            for _round in 0..4 {
                kernel.sync(&aig);
                for &l in &inputs {
                    kernel.preset[l.node()] = [T_FALSE, T_TRUE, T_X][rng.below(3)];
                }
                let mut cube: Cube = Vec::new();
                for (i, bit) in bits.iter().enumerate() {
                    let v = rng.below(2) == 1;
                    kernel.preset[bit.at_t.node()] = tval(v);
                    cube.push((i as u32, v));
                }
                let mut values = vec![T_X; aig.node_count()];
                ternary_pass(&aig, &kernel.preset, &mut values, aig.node_count());
                let req: Vec<(AigLit, bool)> = (0..1 + rng.below(3))
                    .map(|_| {
                        let lit = nodes[1 + rng.below(nodes.len() - 1)];
                        // Mostly requirements that hold, sometimes not.
                        let v = match tlit(&values, lit) {
                            T_X => rng.below(2) == 1,
                            t if rng.below(8) == 0 => t != T_TRUE,
                            t => t == T_TRUE,
                        };
                        (lit, v)
                    })
                    .collect();
                let mut ref_preset = kernel.preset.clone();
                let mut ref_cube = cube.clone();
                let ref_drops = shrink_full_pass(
                    &aig,
                    &mut ref_preset,
                    &bits,
                    &mut ref_cube,
                    &req,
                    &mut ref_visits,
                    budget,
                );
                let drops = kernel.shrink(&aig, &bits, &mut cube, &req);
                assert_eq!(cube, ref_cube, "case {case}: cubes differ");
                assert_eq!(drops, ref_drops, "case {case}: drops differ");
                assert_eq!(kernel.visits, ref_visits, "case {case}: visits differ");
                assert_eq!(kernel.preset, ref_preset, "case {case}: presets differ");
                assert!(kernel.undo.is_empty() && kernel.queue.is_empty());
                let gates = rng.below(20);
                grow_random(&mut aig, &mut nodes, &mut rng, gates);
            }
        }
    }

    #[test]
    fn engine_name_round_trips() {
        for e in [UpecEngine::Induction, UpecEngine::Ic3] {
            assert_eq!(e.to_string().parse::<UpecEngine>(), Ok(e));
        }
        assert!("pdr".parse::<UpecEngine>().is_err());
        assert_eq!(UpecEngine::default(), UpecEngine::Induction);
    }
}

//! The UPEC-DIT 2-safety inductive engine (paper Sec. III-C / IV-C).
//!
//! [`Upec2Safety`] builds the 2-safety computational model once: two
//! instances of the design under verification, both starting from a fully
//! *symbolic* state at time `t` (implicitly modelling every reachable — and
//! some unreachable — histories), with
//!
//! - control inputs `X_C` **shared** between the instances (equality by
//!   construction),
//! - data inputs `X_D` free and independent per instance,
//! - software constraints asserted on both instances during `[t, t+1]`,
//! - invariants asserted at `t` (property refinements against spurious
//!   counterexamples from the symbolic state).
//!
//! [`Upec2Safety::check`] then decides the key property of the paper's
//! Listing 1 for a given candidate partitioning `Z'`:
//!
//! ```text
//! assume  at t:        two_safety_eq(Z')
//! assume  during:      software_constraints()
//! prove   at t+1:      two_safety_eq(Z')
//! prove   during:      two_safety_eq(Y_C)
//! ```
//!
//! # Cached elaboration and incremental solving
//!
//! The refinement loop of Listing 1 calls `check` with a shrinking `Z'`
//! many times on the same design. In the default
//! [`ElaborationMode::Cached`] the engine therefore splits the model into
//! a `Z'`-independent *template* and a cheap per-check *instantiation*:
//!
//! - The template — instance 0's frame at `t`, its next-state functions,
//!   its frame at `t+1`, and the leaf pools for both instances — is
//!   elaborated once per engine lifetime into a persistent AIG.
//! - Each `check` derives instance 1 by **leaf substitution**: a register
//!   in `Z'` reuses instance 0's leaf (equality by construction), every
//!   other register keeps its private split leaf. Re-deriving instance
//!   1's cones over the persistent AIG is mostly structural-hash lookups
//!   (see [`ElaborationStats`]): cones untouched by the substitution hash
//!   to their existing nodes — including collapsing onto instance 0's
//!   cones — and their Tseitin encoding in the persistent CNF is reused
//!   as-is.
//! - One SAT solver lives for the engine's whole lifetime. `Z'`-independent
//!   obligations (constraints and invariants on instance 0) are asserted
//!   once; per-check obligations (everything touching instance 1, plus
//!   the difference monitors) are guarded by a fresh activation literal
//!   `g` and solved under the assumption `g`. Retiring a check is a unit
//!   clause `¬g`, so learned clauses — which are implied by the clause
//!   database alone — stay valid across the whole refinement loop.
//!
//! [`ElaborationMode::Fresh`] re-elaborates everything per check (the
//! pre-caching behaviour); it serves as the reference in equivalence
//! tests and cold-elaboration benchmarks.

use crate::aig::{Aig, AigLit};
use crate::blast::{build_frame_with_leaves, next_state, Frame, LazyFrame};
use crate::certify::{CertStats, CertifiedOutcome, CheckCertificate};
use crate::ic3::RelationalClause;
use crate::reuse::{ClauseStore, MAX_REUSE_CLAUSE_LEN};
use crate::tseitin::CnfEncoder;
use crate::words::eq_word;
use fastpath_cert::{artifacts, CertError, HintedTracker};
use fastpath_rtl::{
    canonical_form, comb_cone_mask, BitVec, Digest, ExprId, Module, SignalId, SignalKind,
    SignalRole,
};
use fastpath_sat::{Cnf, Lit, SolveResult, SolverStats, Var};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Declarative inputs to the 2-safety model beyond the module itself.
#[derive(Clone, Debug, Default)]
pub struct UpecSpec {
    /// 1-bit expressions that must hold on both instances in both frames
    /// (the derived software usage constraints).
    pub software_constraints: Vec<ExprId>,
    /// 1-bit expressions assumed at time `t` on both instances to exclude
    /// unreachable symbolic states.
    pub invariants: Vec<ExprId>,
    /// Conditional 2-safety equalities `(cond, signal)`: *assumed* at `t`
    /// and *proven* at `t+1` — whenever `cond` holds in both instances,
    /// `signal` is equal between them. These express facts like "the
    /// operand buffer is equal whenever its secrecy flag is clear", which
    /// single-instance invariants cannot state.
    pub conditional_equalities: Vec<(ExprId, SignalId)>,
}

/// Witness values for one state signal in a counterexample.
#[derive(Clone, Debug)]
pub struct StateWitness {
    /// The signal.
    pub signal: SignalId,
    /// Value in instance 1 at time `t`.
    pub inst0: BitVec,
    /// Value in instance 2 at time `t`.
    pub inst1: BitVec,
}

/// A failed 2-safety check: something observable diverged.
#[derive(Clone, Debug)]
pub struct UpecCounterexample {
    /// State signals in `Z'` that differ between the instances at `t+1`.
    pub divergent_state: Vec<SignalId>,
    /// Control outputs that differ in `[t, t+1]`.
    pub divergent_outputs: Vec<SignalId>,
    /// Values of every state signal at time `t` in both instances.
    pub state_values: Vec<StateWitness>,
    /// Values of every primary input at time `t` in both instances
    /// (control inputs are equal by construction).
    pub input_values_t: Vec<StateWitness>,
    /// Values of every primary input at time `t+1` in both instances.
    pub input_values_t1: Vec<StateWitness>,
    /// Conditional equalities (by index into the spec) whose *proof
    /// obligation* failed at `t+1` in this counterexample.
    pub violated_cond_eqs: Vec<usize>,
}

/// Outcome of one inductive check.
#[derive(Clone, Debug)]
pub enum UpecOutcome {
    /// The property holds: `Z'` is a fixed point and `Y_C` never diverges.
    Holds,
    /// The property fails with the given witness.
    Counterexample(UpecCounterexample),
}

impl UpecOutcome {
    /// `true` for [`UpecOutcome::Holds`].
    pub fn holds(&self) -> bool {
        matches!(self, UpecOutcome::Holds)
    }
}

/// How [`Upec2Safety`] elaborates the 2-safety model across checks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ElaborationMode {
    /// Elaborate a `Z'`-independent template once, instantiate instance 1
    /// per check by leaf substitution over a persistent AIG, and solve
    /// every check on one long-lived SAT solver with activation literals.
    /// The default.
    Cached,
    /// Re-elaborate the full model and a fresh solver on every check —
    /// the reference semantics for equivalence testing and the baseline
    /// for cold-elaboration benchmarks.
    Fresh,
}

/// Elaboration-cache effectiveness counters, exposed next to
/// [`Upec2Safety::aig_nodes`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElaborationStats {
    /// AIG nodes created by one-time work: the `Z'`-independent template
    /// plus frame-0-side constraint/invariant obligations.
    pub template_nodes: usize,
    /// AIG nodes created by per-check instantiation, accumulated over all
    /// checks.
    pub check_nodes: usize,
    /// AIG nodes created by the most recent check alone.
    pub last_check_nodes: usize,
    /// How many times a template was elaborated (1 for a cached engine's
    /// lifetime; once per check in fresh mode).
    pub template_builds: u64,
    /// Structural-hash hits: `and` calls answered by the persistent AIG
    /// instead of creating a node. Replaying instance 1's cones over the
    /// template turns almost all elaboration work into hits.
    pub strash_hits: u64,
    /// Structural-hash misses: `and` calls that created a node.
    pub strash_misses: u64,
}

impl ElaborationStats {
    /// Folds another engine's counters into this one (for aggregating
    /// across designs or parallel workers).
    pub fn merge(&mut self, other: &ElaborationStats) {
        self.template_nodes += other.template_nodes;
        self.check_nodes += other.check_nodes;
        self.last_check_nodes = other.last_check_nodes;
        self.template_builds += other.template_builds;
        self.strash_hits += other.strash_hits;
        self.strash_misses += other.strash_misses;
    }
}

impl std::ops::AddAssign for ElaborationStats {
    fn add_assign(&mut self, rhs: ElaborationStats) {
        self.merge(&rhs);
    }
}

/// How `Z'` is lowered into the 2-safety SAT instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum UpecEncoding {
    /// Flat bit equality by leaf substitution: a register in `Z'` shares
    /// instance 0's leaves, and each check re-derives instance 1's cones
    /// over the persistent AIG. The reference oracle.
    #[default]
    Bits,
    /// Guarded word-level equivalence predicates: instance 1 is built
    /// exactly once with fully split leaves, each register `r` gets a
    /// persistent predicate `sel_r ⇒ words equal`, and a check merely
    /// *assumes* the selectors of the current `Z'`. Refinement weakens
    /// guards by flipping assumptions instead of re-elaborating anything,
    /// and only the fan-in cones actually monitored are ever bit-blasted
    /// (see [`crate::blast::LazyFrame`]).
    Words,
}

impl std::str::FromStr for UpecEncoding {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bits" => Ok(UpecEncoding::Bits),
            "words" => Ok(UpecEncoding::Words),
            other => Err(format!(
                "unknown UPEC encoding `{other}` (expected `bits` or `words`)"
            )),
        }
    }
}

impl std::fmt::Display for UpecEncoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UpecEncoding::Bits => "bits",
            UpecEncoding::Words => "words",
        })
    }
}

/// Conflict budget for a word-mode check before it falls back to the
/// bit-level path. The split product trades structural folding for reuse:
/// on cones where bit mode's shared leaves would have folded both
/// instances to one, the solver must instead derive the equivalence by
/// search. Healthy word checks across the Table I designs stay around a
/// thousand conflicts; pathological ones (deep dirty cones over many
/// selected registers) run tens of thousands, and the bit path answers
/// them almost for free. The budget is deterministic — conflict counts
/// don't depend on wall time — so verdicts and refinement traces stay
/// reproducible.
const WORD_CONFLICT_BUDGET: u64 = 8192;

/// Product-size counters: how much AIG / CNF each check actually costs,
/// split into one-time construction (template, static word product, spec
/// obligations) and recurring per-check work. The word-level encoding's
/// whole point is driving the per-check columns toward zero; `bench_diff`
/// gates on these so the pruning win is measured, not eyeballed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProductStats {
    /// Number of checks measured.
    pub checks: u64,
    /// AIG nodes created by per-check work, summed over all checks.
    pub check_aig_nodes: u64,
    /// SAT variables allocated by per-check work, summed over all checks.
    pub check_sat_vars: u64,
    /// CNF clauses added by per-check work, summed over all checks.
    pub check_sat_clauses: u64,
    /// SAT variables allocated by one-time construction.
    pub one_time_sat_vars: u64,
    /// CNF clauses added by one-time construction.
    pub one_time_sat_clauses: u64,
    /// Guarded word-equivalence predicates instantiated (0 in bit mode).
    pub predicates: u64,
    /// Guard literals assumed across all checks (the activation literal
    /// plus, in word mode, one selector per state register).
    pub guard_assumptions: u64,
    /// Word-mode checks that exhausted the conflict budget on the split
    /// product and were answered through the bit-level path. The engine
    /// then stays in bit mode, so this is at most 1 per engine (0 in bit
    /// mode).
    pub word_fallbacks: u64,
}

impl ProductStats {
    /// Folds another engine's counters into this one.
    pub fn merge(&mut self, other: &ProductStats) {
        self.checks += other.checks;
        self.check_aig_nodes += other.check_aig_nodes;
        self.check_sat_vars += other.check_sat_vars;
        self.check_sat_clauses += other.check_sat_clauses;
        self.one_time_sat_vars += other.one_time_sat_vars;
        self.one_time_sat_clauses += other.one_time_sat_clauses;
        self.predicates += other.predicates;
        self.guard_assumptions += other.guard_assumptions;
        self.word_fallbacks += other.word_fallbacks;
    }
}

impl std::ops::AddAssign for ProductStats {
    fn add_assign(&mut self, rhs: ProductStats) {
        self.merge(&rhs);
    }
}

/// Live certification state: the incremental checker plus accumulated
/// counters. The checker consumes each new slice of the solver's proof
/// trace exactly once (`consumed` marks progress), so certifying a
/// refinement loop's many checks on one long-lived solver stays linear in
/// the trace instead of quadratic. It records conflict cores during
/// replay, so a check's artifact is emitted backward-trimmed with inline
/// LRAT-style hints.
#[derive(Debug)]
struct CertState {
    checker: HintedTracker,
    /// Trace steps already fed to `checker`.
    consumed: usize,
    /// Accumulated counters; `stats.checker` holds only the counters of
    /// checkers already discarded by fresh-mode resets — the live
    /// checker's are folded in on read.
    stats: CertStats,
    /// Wall-clock spent in hinted (backward-emitting) certification.
    backward_time: Duration,
    /// Where to write per-check DIMACS + proof/model artifacts, if
    /// requested.
    artifact_dir: Option<PathBuf>,
    artifact_prefix: String,
    /// Whether to retain the most recent check's artifact text in memory
    /// (for proof caches), independent of `artifact_dir`.
    capture: bool,
    last_artifact: Option<ProofArtifact>,
}

impl CertState {
    fn new() -> Self {
        CertState {
            checker: HintedTracker::new(),
            consumed: 0,
            stats: CertStats::default(),
            backward_time: Duration::ZERO,
            artifact_dir: None,
            artifact_prefix: String::new(),
            capture: false,
            last_artifact: None,
        }
    }
}

/// An in-memory copy of the textual certificate of one successfully
/// certified non-trivial UNSAT check: the backward-trimmed UNSAT core of
/// the formula the verdict is about (activation assumptions appended as
/// units) plus its hinted refutation, as
/// [`fastpath_cert::HintedTracker::emit_hinted`] emits them.
///
/// [`fastpath_cert::check_hinted_unsat_artifact`] re-certifies the pair
/// from text alone. A proof cache stores it; on a later hit the hints are
/// walked again, so the cached verdict is re-certified rather than
/// trusted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProofArtifact {
    /// DIMACS CNF text of the refutation's core.
    pub cnf: String,
    /// The hinted refutation of that core: one
    /// `<lits> 0 <1-based clause hints> 0` line per needed learnt clause,
    /// ending with the empty clause.
    pub drup: String,
}

/// Cross-run learnt-clause reuse state: the persistent store plus the
/// engine's per-register cone identities (WL-canonical signal labels, in
/// `state_signals()` order) and the once-per-solver import bookkeeping.
#[derive(Debug)]
struct ReuseState {
    store: Arc<ClauseStore>,
    /// Cone key per register: the WL-canonical label of the register
    /// signal, identical across renames, reorderings, and machines.
    labels: Vec<Digest>,
    /// Registers whose stored clauses were already probed against the
    /// current solver (imports happen once per solver lifetime).
    tried: Vec<bool>,
}

/// The `Z'`-independent half of the 2-safety model, elaborated once.
#[derive(Debug)]
struct Template {
    /// Per register: `(signal, instance-0 leaf, instance-1 split leaf)`.
    /// A check picks instance 1's actual leaf from the last two.
    state_leaves: Vec<(SignalId, Vec<AigLit>, Vec<AigLit>)>,
    /// Instance 1 input leaves at `t`, indexed by signal.
    inputs1_t: Vec<Vec<AigLit>>,
    /// Instance 1 input leaves at `t+1`, indexed by signal.
    inputs1_t1: Vec<Vec<AigLit>>,
    /// Instance 0 at time `t`.
    frame0_t: Frame,
    /// Instance 0 next-state words, in `state_signals()` order.
    next0: Vec<Vec<AigLit>>,
    /// Instance 0 at time `t+1`.
    frame0_t1: Frame,
    /// Input witnesses `(signal, inst0, inst1)` at `t` and `t+1`.
    input_bits_t: Vec<(SignalId, Vec<AigLit>, Vec<AigLit>)>,
    input_bits_t1: Vec<(SignalId, Vec<AigLit>, Vec<AigLit>)>,
}

/// The time-frame boundary of a combinational cone: whether it reads any
/// confidential (split-leaf) input, and the registers on its edge.
///
/// This is the cone-pruning oracle of the word encoding. A difference
/// monitor over the cone can only be satisfied when the boundary meets a
/// *divergence source* — a data input, or a register outside the current
/// `Z'` whose split leaves are free. When every boundary register is
/// covered by an assumed guarded equivalence predicate (and no data input
/// is read), both instances compute the same function of pairwise-equal
/// leaves, so the predicate holds by propagation and is skipped without
/// ever being built or solved — the structural analogue of the constant
/// folding that shared leaves buy the bit encoding.
#[derive(Clone, Debug)]
struct ConeBoundary {
    /// The cone reads at least one `DataIn` input (split per instance).
    reads_data: bool,
    /// Registers on the cone's time-frame edge.
    regs: Vec<SignalId>,
}

impl ConeBoundary {
    /// Computes the boundary of the combinational cone of `targets`.
    fn of(module: &Module, targets: &[SignalId]) -> ConeBoundary {
        let mask = comb_cone_mask(module, targets);
        let mut reads_data = false;
        let mut regs = Vec::new();
        for (id, signal) in module.signals() {
            if !mask[id.index()] {
                continue;
            }
            match signal.kind {
                SignalKind::Register => regs.push(id),
                SignalKind::Input => reads_data |= signal.role == SignalRole::DataIn,
                _ => {}
            }
        }
        ConeBoundary { reads_data, regs }
    }

    /// Computes the boundary of `reg`'s next-state function.
    fn of_next(module: &Module, reg: SignalId) -> ConeBoundary {
        match module.driver(reg) {
            Some(driver) => ConeBoundary::of(module, &module.expr_supports(driver)),
            None => ConeBoundary {
                reads_data: false,
                regs: Vec::new(),
            },
        }
    }

    /// Whether the boundary meets a divergence source under `in_z`.
    fn dirty(&self, in_z: &[bool]) -> bool {
        self.reads_data || self.regs.iter().any(|r| !in_z[r.index()])
    }
}

/// The static word-level half of the product ([`UpecEncoding::Words`]):
/// one fully-split instance 1 plus per-register guarded equivalence
/// predicates, built lazily cone by cone and then reused — as-is — by
/// every subsequent check.
#[derive(Debug)]
struct WordProduct {
    /// For each register in `state_signals()` order: the index of its
    /// entry in `Template::state_leaves`.
    leaf_idx: Vec<usize>,
    /// Per register (`state_signals()` order): the selector variable of
    /// its guarded equivalence predicate `sel ⇒ inst0 == inst1`, created
    /// the first time the register appears in a `Z'`. Registers that never
    /// enter `Z'` (IFT-tainted data state) never pay for a predicate.
    selectors: Vec<Option<fastpath_sat::Var>>,
    /// Instance 1 at `t`: split leaves for every register, template input
    /// leaves, cones elaborated on demand.
    frame1_t: LazyFrame,
    /// Instance 1 at `t+1`: register leaves are patched in from `next1`
    /// on demand.
    frame1_t1: LazyFrame,
    /// Instance 1 next-state words (`state_signals()` order), on demand.
    next1: Vec<Option<Vec<AigLit>>>,
    /// Difference monitors `inst0.next != inst1.next` per register, on
    /// demand — only ever built for *dirty* cones (see [`ConeBoundary`]).
    diff_next: Vec<Option<AigLit>>,
    /// Per register (`state_signals()` order): the boundary of its
    /// next-state fan-in cone, computed once on first use.
    next_cone: Vec<Option<ConeBoundary>>,
    /// The module's control outputs, pinning the index space of
    /// `out_cone` / `diff_out`.
    outs: Vec<SignalId>,
    /// Per control output: its combinational fan-in boundary.
    out_cone: Vec<Option<ConeBoundary>>,
    /// Control-output difference monitors over `[t, t+1]`, built on the
    /// output's first dirty appearance.
    diff_out: Vec<Option<AigLit>>,
    /// Conditional-equality violation monitors at `t+1`, grown with the
    /// spec.
    cond_eq_violation: Vec<AigLit>,
    /// How many spec entries already have their instance-1-side
    /// obligations asserted (word obligations are `Z'`-independent, so
    /// they are asserted once, unguarded, like the frame-0 side).
    w_constraints: usize,
    w_invariants: usize,
    w_cond_eqs: usize,
}

/// The 2-safety UPEC-DIT model over one module.
///
/// Each [`check`](Self::check) instantiates a 2-safety model in which the
/// registers of the candidate partitioning `Z'` are *shared* between the
/// two instances (equality by construction, exactly UPEC's computational
/// model: only the tracked difference is free). Structural hashing then
/// collapses the identical parts of the two cones, so the difference
/// monitors of unaffected signals fold to constant false and the SAT
/// instance only contains logic genuinely influenced by the data.
///
/// In the default [`ElaborationMode::Cached`] the engine keeps one AIG
/// and one SAT solver alive for its whole lifetime (see the module docs);
/// the specification may grow between checks through
/// [`add_software_constraint`](Self::add_software_constraint),
/// [`add_invariant`](Self::add_invariant), and
/// [`add_conditional_equality`](Self::add_conditional_equality), so a
/// refinement loop never rebuilds the engine.
#[derive(Debug)]
pub struct Upec2Safety<'m> {
    module: &'m Module,
    spec: UpecSpec,
    mode: ElaborationMode,
    encoding: UpecEncoding,
    aig: Aig,
    encoder: CnfEncoder,
    template: Option<Template>,
    /// The static word-level product, when `encoding` is `Words`.
    product: Option<WordProduct>,
    /// Product-size counters (see [`ProductStats`]).
    product_stats: ProductStats,
    /// How many spec entries already have their frame-0-side (one-time)
    /// obligations asserted on the persistent solver.
    f0_constraints: usize,
    f0_invariants: usize,
    last_aig_nodes: usize,
    checks: u64,
    /// Solver statistics of encoders discarded by fresh-mode resets.
    stats_at_reset: SolverStats,
    /// Elaboration counters of AIGs discarded by fresh-mode resets, plus
    /// node accounting for the live AIG.
    elab: ElaborationStats,
    /// Independent certification, when enabled.
    cert: Option<CertState>,
    /// Cross-run learnt-clause reuse, when a store is attached.
    reuse: Option<ReuseState>,
    /// Relational clauses staged for the *next* check only (an IC3
    /// discharge re-validation); consumed and guarded per check.
    pending_relational: Vec<RelationalClause>,
}

impl<'m> Upec2Safety<'m> {
    /// Creates the engine for a module and its specification, in the
    /// default [`ElaborationMode::Cached`].
    ///
    /// Inputs whose role is neither `DataIn` nor `DataOut` (including
    /// unannotated ones) are treated as control and shared between the
    /// instances — "everything not confidential is attacker-controlled".
    pub fn new(module: &'m Module, spec: &UpecSpec) -> Self {
        Self::with_mode(module, spec, ElaborationMode::Cached)
    }

    /// Creates the engine with an explicit [`ElaborationMode`].
    pub fn with_mode(module: &'m Module, spec: &UpecSpec, mode: ElaborationMode) -> Self {
        Upec2Safety {
            module,
            spec: spec.clone(),
            mode,
            encoding: UpecEncoding::Bits,
            aig: Aig::new(),
            encoder: CnfEncoder::new(),
            template: None,
            product: None,
            product_stats: ProductStats::default(),
            f0_constraints: 0,
            f0_invariants: 0,
            last_aig_nodes: 0,
            checks: 0,
            stats_at_reset: SolverStats::default(),
            elab: ElaborationStats::default(),
            cert: None,
            reuse: None,
            pending_relational: Vec::new(),
        }
    }

    /// Attaches a persistent learnt-clause store: before each check,
    /// clauses recorded by earlier runs over structurally identical
    /// next-state cones are translated onto this design's variables and
    /// RUP-probed into the solver (sound regardless of translation
    /// correctness — a probe failure just skips the clause); after the
    /// run, [`export_learnt_clauses`](Self::export_learnt_clauses)
    /// publishes this solver's own short cone-local learnt clauses back.
    ///
    /// Imports only read the store's immutable base snapshot and happen
    /// before any solving, so verdicts and proofs stay byte-identical
    /// for every `--jobs` value; cross-design clauses materialize on the
    /// *next* run against the saved store.
    pub fn set_clause_store(&mut self, store: Arc<ClauseStore>) {
        let canon = canonical_form(self.module);
        let state_ids = self.module.state_signals();
        let labels: Vec<Digest> = state_ids.iter().map(|&r| canon.signal_label(r)).collect();
        let tried = vec![false; state_ids.len()];
        self.reuse = Some(ReuseState {
            store,
            labels,
            tried,
        });
    }

    /// Wall-clock spent certifying; zero when certification is off. Kept
    /// out of [`CertStats`] so deterministic reports never embed timings.
    pub fn cert_time(&self) -> Duration {
        self.cert
            .as_ref()
            .map_or(Duration::ZERO, |c| c.backward_time)
    }

    /// Selects how `Z'` is lowered into the SAT instance (see
    /// [`UpecEncoding`]). Defaults to [`UpecEncoding::Bits`], the
    /// reference oracle. A word check that exhausts its conflict budget
    /// switches the engine to bits by itself: the bit path runs on the
    /// same solver, next to the word product, and answers that check and
    /// every later one.
    ///
    /// # Panics
    ///
    /// Panics if any check has already run — the encoding is the
    /// caller's choice for the engine's first check only.
    pub fn set_encoding(&mut self, encoding: UpecEncoding) {
        assert_eq!(
            self.checks, 0,
            "encoding must be chosen before the first check"
        );
        self.encoding = encoding;
    }

    /// The encoding currently in force.
    pub fn encoding(&self) -> UpecEncoding {
        self.encoding
    }

    /// Product-size counters accumulated over all checks (see
    /// [`ProductStats`]).
    pub fn product_stats(&self) -> ProductStats {
        self.product_stats
    }

    /// Turns on independent certification: the solver logs a DRUP-style
    /// proof trace and every subsequent check's verdict is replayed
    /// through the `fastpath-cert` checker (see
    /// [`check_certified`](Self::check_certified)). Plain
    /// [`check`](Self::check) calls also certify internally once enabled,
    /// so [`cert_stats`](Self::cert_stats) covers them too.
    ///
    /// # Panics
    ///
    /// Panics if any check has already run — the trace must cover the
    /// whole formula.
    pub fn enable_certification(&mut self) {
        assert_eq!(
            self.checks, 0,
            "certification must be enabled before the first check"
        );
        if self.cert.is_none() {
            self.encoder.enable_proof_logging();
            self.cert = Some(CertState::new());
        }
    }

    /// `true` once [`enable_certification`](Self::enable_certification)
    /// has been called.
    pub fn certification_enabled(&self) -> bool {
        self.cert.is_some()
    }

    /// Requests per-check artifact dumps: each certified check writes
    /// `{prefix}check{N}.cnf` (the exact DIMACS formula solved, with the
    /// activation assumption as a unit) plus `.drup` (UNSAT) or `.model`
    /// (SAT) into `dir`, in formats external checkers such as `drat-trim`
    /// consume. Trivially-UNSAT checks solve nothing and dump nothing.
    ///
    /// # Panics
    ///
    /// Panics if certification is not enabled.
    pub fn set_artifact_output(&mut self, dir: PathBuf, prefix: impl Into<String>) {
        let cert = self
            .cert
            .as_mut()
            .expect("artifact output requires enable_certification()");
        cert.artifact_dir = Some(dir);
        cert.artifact_prefix = prefix.into();
        // On-disk dumps are plain DRUP (the format drat-trim consumes),
        // so the buffered renderer pays off here. Backfills already-logged
        // steps.
        self.encoder.enable_proof_text();
    }

    /// Retains each non-trivial UNSAT check's hinted `(core CNF, proof)`
    /// text in memory so a proof cache can store it; read it back with
    /// [`take_last_artifact`](Self::take_last_artifact) after the check.
    ///
    /// # Panics
    ///
    /// Panics if certification is not enabled.
    pub fn enable_artifact_capture(&mut self) {
        let cert = self
            .cert
            .as_mut()
            .expect("artifact capture requires enable_certification()");
        cert.capture = true;
    }

    /// Takes the artifact captured by the most recent check, if that
    /// check was a successfully certified non-trivial UNSAT (SAT and
    /// trivially-UNSAT checks capture nothing — their verdicts are
    /// re-validated by replay and by construction respectively).
    pub fn take_last_artifact(&mut self) -> Option<ProofArtifact> {
        self.cert.as_mut().and_then(|c| c.last_artifact.take())
    }

    /// Accumulated certification counters, if certification is enabled.
    pub fn cert_stats(&self) -> Option<CertStats> {
        self.cert.as_ref().map(|cert| {
            let mut stats = cert.stats;
            stats.checker.merge(&cert.checker.stats());
            stats
        })
    }

    /// The engine's elaboration mode.
    pub fn mode(&self) -> ElaborationMode {
        self.mode
    }

    /// The number of `check` calls performed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// The specification currently in force.
    pub fn spec(&self) -> &UpecSpec {
        &self.spec
    }

    /// Solver statistics accumulated over all checks.
    pub fn solver_stats(&self) -> SolverStats {
        let mut s = self.stats_at_reset;
        s.merge(&self.encoder.solver().stats());
        s
    }

    /// Size of the elaborated AIG after the most recent check. In cached
    /// mode this is the persistent AIG (template plus everything the
    /// checks added); in fresh mode it is the last check's private AIG —
    /// the seed engine's "elaboration cost" indicator.
    pub fn aig_nodes(&self) -> usize {
        self.last_aig_nodes
    }

    /// Elaboration-cache effectiveness counters (see
    /// [`ElaborationStats`]).
    pub fn elaboration_stats(&self) -> ElaborationStats {
        let mut e = self.elab;
        e.strash_hits += self.aig.strash_hits();
        e.strash_misses += self.aig.strash_misses();
        e
    }

    /// Forces the one-time template elaboration now (it otherwise happens
    /// lazily on the first check). Lets callers time elaboration apart
    /// from solving. In word mode this also sets up the static guarded
    /// product skeleton (individual cones still materialize on demand).
    pub fn elaborate(&mut self) {
        self.ensure_template();
        if self.encoding == UpecEncoding::Words {
            self.ensure_word_product();
        }
    }

    /// Adds a derived software constraint to the specification. It takes
    /// effect from the next check; previously learned clauses stay valid
    /// because the clause database only grows.
    pub fn add_software_constraint(&mut self, expr: ExprId) {
        self.spec.software_constraints.push(expr);
    }

    /// Adds an invariant to the specification (effective from the next
    /// check).
    pub fn add_invariant(&mut self, expr: ExprId) {
        self.spec.invariants.push(expr);
    }

    /// Adds a conditional 2-safety equality to the specification
    /// (effective from the next check).
    pub fn add_conditional_equality(&mut self, cond: ExprId, signal: SignalId) {
        self.spec.conditional_equalities.push((cond, signal));
    }

    /// Stages machine-derived relational clauses (an IC3 candidate
    /// invariant, see [`crate::Ic3Engine`]) for the **next check only**.
    /// That check then decides IC3's consecution theorem: each clause is
    /// assumed over the product state at `t` and its negation joins the
    /// monitored disjunction at `t+1`, so `Holds` certifies
    /// `Inv ∧ premises ∧ T → Inv' ∧ ¬Bad` through the standard
    /// (certifiable) induction path. Everything is guarded by the check's
    /// activation literal and retired with it — a failed re-validation
    /// leaves no trace on later checks.
    pub fn add_relational_clauses(&mut self, clauses: &[RelationalClause]) {
        self.pending_relational.extend_from_slice(clauses);
    }

    /// Runs the inductive property of Listing 1 for the candidate
    /// partitioning `z_prime`.
    ///
    /// Returns [`UpecOutcome::Holds`] iff, assuming all signals of
    /// `z_prime` equal at `t` (plus constraints/invariants), no signal of
    /// `z_prime` differs at `t+1` and no control output differs during
    /// `[t, t+1]`.
    pub fn check(&mut self, z_prime: &[SignalId]) -> UpecOutcome {
        self.check_internal(z_prime, true).0
    }

    /// Like [`check`](Self::check) but only monitors the `Z'` next-state
    /// equalities, not the control outputs. The original UPEC-DIT
    /// iterative-partitioning procedure inspects internal propagations in
    /// discovery order before concluding anything about the outputs; the
    /// formal-only baseline uses this mode for its inner iterations.
    pub fn check_state_only(&mut self, z_prime: &[SignalId]) -> UpecOutcome {
        self.check_internal(z_prime, false).0
    }

    /// [`check`](Self::check) with its verdict independently certified.
    ///
    /// # Panics
    ///
    /// Panics unless
    /// [`enable_certification`](Self::enable_certification) was called.
    pub fn check_certified(&mut self, z_prime: &[SignalId]) -> CertifiedOutcome {
        let (outcome, certificate) = self.check_internal(z_prime, true);
        CertifiedOutcome {
            outcome,
            certificate: certificate.expect("certification enabled"),
        }
    }

    /// [`check_state_only`](Self::check_state_only) with its verdict
    /// independently certified.
    ///
    /// # Panics
    ///
    /// Panics unless
    /// [`enable_certification`](Self::enable_certification) was called.
    pub fn check_state_only_certified(&mut self, z_prime: &[SignalId]) -> CertifiedOutcome {
        let (outcome, certificate) = self.check_internal(z_prime, false);
        CertifiedOutcome {
            outcome,
            certificate: certificate.expect("certification enabled"),
        }
    }

    /// Discards all cached state (fresh-mode per-check amnesia), folding
    /// the outgoing solver/AIG counters into the running totals.
    fn reset(&mut self) {
        self.stats_at_reset.merge(&self.encoder.solver().stats());
        self.elab.strash_hits += self.aig.strash_hits();
        self.elab.strash_misses += self.aig.strash_misses();
        self.aig = Aig::new();
        self.encoder = CnfEncoder::new();
        self.template = None;
        self.product = None;
        self.f0_constraints = 0;
        self.f0_invariants = 0;
        if let Some(cert) = &mut self.cert {
            // A fresh solver means a fresh trace: fold the outgoing
            // checker's counters and start a matching fresh checker.
            cert.stats.checker.merge(&cert.checker.stats());
            cert.checker = HintedTracker::new();
            cert.consumed = 0;
            self.encoder.enable_proof_logging();
            if cert.artifact_dir.is_some() {
                self.encoder.enable_proof_text();
            }
        }
        if let Some(reuse) = &mut self.reuse {
            // Fresh solver, fresh import bookkeeping: the stored clauses
            // are probed against the new solver once its cones exist.
            reuse.tried.iter_mut().for_each(|t| *t = false);
        }
    }

    /// Elaborates the `Z'`-independent template if it does not exist yet,
    /// then asserts the frame-0-side obligations of any spec entries added
    /// since the last check. Both are one-time work on the persistent
    /// AIG/solver, accounted as `template_nodes`.
    fn ensure_template(&mut self) {
        let module = self.module;
        let nodes_before = self.aig.node_count();
        let vars_before = self.encoder.num_vars();
        let clauses_before = self.encoder.num_clauses();
        if self.template.is_none() {
            let aig = &mut self.aig;
            let n = module.signal_count();
            let mut leaves0: Vec<Vec<AigLit>> = vec![Vec::new(); n];
            let mut inputs1_t: Vec<Vec<AigLit>> = vec![Vec::new(); n];
            let mut inputs1_t1: Vec<Vec<AigLit>> = vec![Vec::new(); n];
            let mut state_leaves = Vec::new();
            let mut input_bits_t = Vec::new();
            let mut input_bits_t1 = Vec::new();
            for (id, signal) in module.signals() {
                match signal.kind {
                    SignalKind::Register => {
                        let b0: Vec<AigLit> = (0..signal.width).map(|_| aig.input()).collect();
                        let s1: Vec<AigLit> = (0..signal.width).map(|_| aig.input()).collect();
                        state_leaves.push((id, b0.clone(), s1));
                        leaves0[id.index()] = b0;
                    }
                    SignalKind::Input => {
                        let (b0, b1) = alloc_input(aig, signal.role, signal.width);
                        input_bits_t.push((id, b0.clone(), b1.clone()));
                        leaves0[id.index()] = b0;
                        inputs1_t[id.index()] = b1;
                    }
                    _ => {}
                }
            }
            let frame0_t = build_frame_with_leaves(aig, module, leaves0);
            let next0 = next_state(aig, module, &frame0_t);
            let state_ids = module.state_signals();
            let mut leaves0_t1: Vec<Vec<AigLit>> = vec![Vec::new(); n];
            for (reg, n0) in state_ids.iter().zip(next0.iter()) {
                leaves0_t1[reg.index()] = n0.clone();
            }
            for (id, signal) in module.signals() {
                if signal.kind == SignalKind::Input {
                    let (b0, b1) = alloc_input(aig, signal.role, signal.width);
                    input_bits_t1.push((id, b0.clone(), b1.clone()));
                    leaves0_t1[id.index()] = b0;
                    inputs1_t1[id.index()] = b1;
                }
            }
            let frame0_t1 = build_frame_with_leaves(aig, module, leaves0_t1);
            self.template = Some(Template {
                state_leaves,
                inputs1_t,
                inputs1_t1,
                frame0_t,
                next0,
                frame0_t1,
                input_bits_t,
                input_bits_t1,
            });
            self.elab.template_builds += 1;
        }
        // Frame-0-side obligations for spec entries not yet encoded:
        // Z'-independent, so asserted once, unguarded. (The solver only
        // ever *gains* assumptions, matching the flow's monotonically
        // growing specification.)
        let tmpl = self.template.as_ref().expect("template just built");
        let aig = &mut self.aig;
        let encoder = &mut self.encoder;
        for &constraint in &self.spec.software_constraints[self.f0_constraints..] {
            for frame in [&tmpl.frame0_t, &tmpl.frame0_t1] {
                let lit = blast_predicate(aig, module, frame, constraint);
                encoder.assert_true(aig, lit);
            }
        }
        self.f0_constraints = self.spec.software_constraints.len();
        for &invariant in &self.spec.invariants[self.f0_invariants..] {
            let lit = blast_predicate(aig, module, &tmpl.frame0_t, invariant);
            encoder.assert_true(aig, lit);
        }
        self.f0_invariants = self.spec.invariants.len();
        self.elab.template_nodes += aig.node_count() - nodes_before;
        self.product_stats.one_time_sat_vars += (self.encoder.num_vars() - vars_before) as u64;
        self.product_stats.one_time_sat_clauses +=
            self.encoder.num_clauses().saturating_sub(clauses_before) as u64;
    }

    fn check_internal(
        &mut self,
        z_prime: &[SignalId],
        include_outputs: bool,
    ) -> (UpecOutcome, Option<Result<CheckCertificate, CertError>>) {
        self.checks += 1;
        if self.mode == ElaborationMode::Fresh {
            self.reset();
        }
        self.ensure_template();
        if self.encoding == UpecEncoding::Words {
            self.ensure_word_product();
        }
        // Stored clauses over cones the previous checks materialized are
        // probed in now, at decision level 0, before anything solves —
        // the one point where imports cannot perturb verdict trajectories.
        self.import_reusable_clauses();
        // Product-size accounting: everything the one-time ensure steps
        // added is already booked as `one_time_*`; the deltas from here to
        // the end of the check are its recurring cost.
        let vars_before = self.encoder.num_vars();
        let clauses_before = self.encoder.num_clauses();
        let nodes_before = self.aig.node_count();
        // Staged relational clauses pin *individual* split leaves of both
        // instances, so the word product's equality predicates add no
        // abstraction value to a strengthened check — and its structural
        // folding can leave an instance-1 leaf the clause references
        // disconnected from the monitored cones, weakening the check.
        // Strengthened checks therefore always decide through the bit
        // path (on the same incremental solver), which keeps the verdict
        // byte-identical across encodings by construction.
        let out = match self.encoding {
            UpecEncoding::Bits => self.check_bits(z_prime, include_outputs),
            UpecEncoding::Words if self.pending_relational.is_empty() => {
                self.check_words(z_prime, include_outputs)
            }
            UpecEncoding::Words => self.check_bits(z_prime, include_outputs),
        };
        self.product_stats.checks += 1;
        self.product_stats.check_sat_vars +=
            self.encoder.num_vars().saturating_sub(vars_before) as u64;
        self.product_stats.check_sat_clauses +=
            self.encoder.num_clauses().saturating_sub(clauses_before) as u64;
        self.product_stats.check_aig_nodes +=
            self.aig.node_count().saturating_sub(nodes_before) as u64;
        out
    }

    /// The flat bit-equality check ([`UpecEncoding::Bits`]): derive
    /// instance 1 per check by leaf substitution and guard everything with
    /// one activation literal.
    fn check_bits(
        &mut self,
        z_prime: &[SignalId],
        include_outputs: bool,
    ) -> (UpecOutcome, Option<Result<CheckCertificate, CertError>>) {
        let module = self.module;
        let n = module.signal_count();
        let mut in_z = vec![false; n];
        for &z in z_prime {
            in_z[z.index()] = true;
        }

        let tmpl = self.template.as_ref().expect("template built");
        let aig = &mut self.aig;
        let encoder = &mut self.encoder;
        let nodes_before = aig.node_count();

        // --- instance 1 at `t` by leaf substitution: Z' registers reuse
        // instance 0's leaf, the rest keep their split leaves -------------
        let mut leaves1: Vec<Vec<AigLit>> = vec![Vec::new(); n];
        let mut state_bits_t = Vec::with_capacity(tmpl.state_leaves.len());
        for (id, b0, s1) in &tmpl.state_leaves {
            let b1 = if in_z[id.index()] {
                b0.clone()
            } else {
                s1.clone()
            };
            state_bits_t.push((*id, b0.clone(), b1.clone()));
            leaves1[id.index()] = b1;
        }
        for (idx, bits) in tmpl.inputs1_t.iter().enumerate() {
            if !bits.is_empty() {
                leaves1[idx] = bits.clone();
            }
        }
        let frame1_t = build_frame_with_leaves(aig, module, leaves1);

        // --- instance 1's transition to t+1 ------------------------------
        let next1 = next_state(aig, module, &frame1_t);
        let state_ids = module.state_signals();
        let mut leaves1_t1: Vec<Vec<AigLit>> = vec![Vec::new(); n];
        for (reg, n1) in state_ids.iter().zip(next1.iter()) {
            leaves1_t1[reg.index()] = n1.clone();
        }
        for (idx, bits) in tmpl.inputs1_t1.iter().enumerate() {
            if !bits.is_empty() {
                leaves1_t1[idx] = bits.clone();
            }
        }
        let frame1_t1 = build_frame_with_leaves(aig, module, leaves1_t1);

        // --- per-check obligations, guarded by an activation literal -----
        // Everything touching instance 1 depends on this check's leaf
        // substitution, so it may not constrain later checks: each clause
        // carries ¬g and only bites under the assumption g.
        let guard = encoder.fresh_var();
        let g = guard.positive();
        let ng = guard.negative();
        for &constraint in &self.spec.software_constraints {
            for frame in [&frame1_t, &frame1_t1] {
                let lit = blast_predicate(aig, module, frame, constraint);
                let l = encoder.lit(aig, lit);
                encoder.add_clause(&[ng, l]);
            }
        }
        for &invariant in &self.spec.invariants {
            let lit = blast_predicate(aig, module, &frame1_t, invariant);
            let l = encoder.lit(aig, lit);
            encoder.add_clause(&[ng, l]);
        }
        let mut cond_eq_violation = Vec::new();
        for &(cond, signal) in &self.spec.conditional_equalities {
            let c0 = blast_predicate(aig, module, &tmpl.frame0_t, cond);
            let c1 = blast_predicate(aig, module, &frame1_t, cond);
            let both = aig.and(c0, c1);
            let eq = eq_word(aig, tmpl.frame0_t.signal(signal), frame1_t.signal(signal));
            let implied = {
                let nb = !both;
                aig.or(nb, eq)
            };
            let l = encoder.lit(aig, implied);
            encoder.add_clause(&[ng, l]);
            let c0n = blast_predicate(aig, module, &tmpl.frame0_t1, cond);
            let c1n = blast_predicate(aig, module, &frame1_t1, cond);
            let bothn = aig.and(c0n, c1n);
            let idx = state_ids
                .iter()
                .position(|&r| r == signal)
                .expect("conditional equality must target a register");
            let eqn = eq_word(aig, &tmpl.next0[idx], &next1[idx]);
            let viol = {
                let ne = !eqn;
                aig.and(bothn, ne)
            };
            cond_eq_violation.push(viol);
        }

        // --- staged relational clauses (IC3 re-validation), one-shot -----
        // Assumed over the product state at `t` (guarded), with their
        // negations monitored at `t+1`: exactly IC3's consecution theorem.
        let relational = std::mem::take(&mut self.pending_relational);
        let mut relational_broken = Vec::new();
        for clause in &relational {
            debug_assert!(!clause.lits.is_empty(), "empty relational clause");
            let mut cl = vec![ng];
            for lit in &clause.lits {
                let (_, b0, b1) = &state_bits_t[lit.reg];
                let bits = if lit.inst == 0 { b0 } else { b1 };
                let l = encoder.lit(aig, bits[lit.bit as usize]);
                cl.push(if lit.positive { l } else { !l });
            }
            encoder.add_clause(&cl);
            let neg: Vec<AigLit> = clause
                .lits
                .iter()
                .map(|lit| {
                    let next = if lit.inst == 0 {
                        &tmpl.next0[lit.reg]
                    } else {
                        &next1[lit.reg]
                    };
                    let b = next[lit.bit as usize];
                    if lit.positive {
                        !b
                    } else {
                        b
                    }
                })
                .collect();
            relational_broken.push(aig.and_all(&neg));
        }

        // --- monitors ----------------------------------------------------
        let mut diff_next = Vec::new();
        for (i, &reg) in state_ids.iter().enumerate() {
            if in_z[reg.index()] {
                let eq_next = eq_word(aig, &tmpl.next0[i], &next1[i]);
                diff_next.push((reg, !eq_next));
            }
        }
        let mut diff_out = Vec::new();
        for y in module.control_outputs() {
            let eq_a = eq_word(aig, tmpl.frame0_t.signal(y), frame1_t.signal(y));
            let eq_b = eq_word(aig, tmpl.frame0_t1.signal(y), frame1_t1.signal(y));
            let both = aig.and(eq_a, eq_b);
            diff_out.push((y, !both));
        }

        // --- solve -------------------------------------------------------
        // The monitor disjunction is also guarded: it asks "can anything
        // observable diverge *under this check's sharing*".
        let mut monitored: Vec<Lit> = vec![ng];
        for &(_, d) in &diff_next {
            if d != AigLit::FALSE {
                monitored.push(encoder.lit(aig, d));
            }
        }
        if include_outputs {
            for &(_, d) in &diff_out {
                if d != AigLit::FALSE {
                    monitored.push(encoder.lit(aig, d));
                }
            }
        }
        for &d in &cond_eq_violation {
            if d != AigLit::FALSE {
                monitored.push(encoder.lit(aig, d));
            }
        }
        for &d in &relational_broken {
            if d != AigLit::FALSE {
                monitored.push(encoder.lit(aig, d));
            }
        }
        self.last_aig_nodes = aig.node_count();
        let created = aig.node_count() - nodes_before;
        self.elab.check_nodes += created;
        self.elab.last_check_nodes = created;
        self.product_stats.guard_assumptions += 1;

        let outcome = if monitored.len() == 1 {
            SolveResult::Unsat
        } else {
            encoder.add_clause(&monitored);
            encoder.solve_with(&[g])
        };
        let result = match outcome {
            SolveResult::Unsat => UpecOutcome::Holds,
            SolveResult::Sat => {
                let divergent_state = diff_next
                    .iter()
                    .filter(|&&(_, l)| encoder.model_value(l).unwrap_or(false))
                    .map(|&(s, _)| s)
                    .collect();
                // Outputs are only meaningful monitors when requested; in
                // state-only mode their cones may coincide with encoded
                // state cones, which would misreport them as targets.
                let divergent_outputs = if include_outputs {
                    diff_out
                        .iter()
                        .filter(|&&(_, l)| encoder.model_value(l).unwrap_or(false))
                        .map(|&(s, _)| s)
                        .collect()
                } else {
                    Vec::new()
                };
                let violated_cond_eqs = cond_eq_violation
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| encoder.model_value(l).unwrap_or(false))
                    .map(|(i, _)| i)
                    .collect();
                let witness = |bits: &[(SignalId, Vec<AigLit>, Vec<AigLit>)]| {
                    bits.iter()
                        .map(|(s, b0, b1)| StateWitness {
                            signal: *s,
                            inst0: word_value(encoder, b0),
                            inst1: word_value(encoder, b1),
                        })
                        .collect::<Vec<_>>()
                };
                UpecOutcome::Counterexample(UpecCounterexample {
                    divergent_state,
                    divergent_outputs,
                    state_values: witness(&state_bits_t),
                    input_values_t: witness(&tmpl.input_bits_t),
                    input_values_t1: witness(&tmpl.input_bits_t1),
                    violated_cond_eqs,
                })
            }
        };
        // Certify BEFORE retiring: the retirement unit ¬g would make the
        // refutation of `g` vacuous. The certificate prefix is delimited
        // by the trace length right after the solve.
        let certificate = if self.cert.is_some() {
            let trivial = monitored.len() == 1;
            let sat = matches!(result, UpecOutcome::Counterexample(_));
            Some(self.certify_check(trivial, sat, &[g]))
        } else {
            None
        };
        // Retire this check: the unit clause ¬g permanently satisfies all
        // of its guarded obligations, while everything the solver learned
        // (implied by the clause database alone) carries over.
        self.encoder.add_clause(&[ng]);
        (result, certificate)
    }

    /// Builds the static word-level product skeleton if needed, then
    /// asserts the instance-1-side obligations of any spec entries added
    /// since the last check. In the word encoding instance 1 always reads
    /// its own split leaves — the guarded predicates restore sharing per
    /// check by *assumption* — so all of this is `Z'`-independent one-time
    /// work, asserted unguarded on the persistent solver exactly like the
    /// frame-0 side.
    fn ensure_word_product(&mut self) {
        let module = self.module;
        let nodes_before = self.aig.node_count();
        let vars_before = self.encoder.num_vars();
        let clauses_before = self.encoder.num_clauses();
        let state_ids = module.state_signals();
        if self.product.is_none() {
            let tmpl = self.template.as_ref().expect("template built");
            let n = module.signal_count();
            let leaf_idx: Vec<usize> = state_ids
                .iter()
                .map(|&r| {
                    tmpl.state_leaves
                        .iter()
                        .position(|(id, _, _)| *id == r)
                        .expect("every register has a leaf pair")
                })
                .collect();
            let mut leaves1: Vec<Vec<AigLit>> = vec![Vec::new(); n];
            for (id, _, s1) in &tmpl.state_leaves {
                leaves1[id.index()] = s1.clone();
            }
            for (idx, bits) in tmpl.inputs1_t.iter().enumerate() {
                if !bits.is_empty() {
                    leaves1[idx] = bits.clone();
                }
            }
            let mut leaves1_t1: Vec<Vec<AigLit>> = vec![Vec::new(); n];
            for (idx, bits) in tmpl.inputs1_t1.iter().enumerate() {
                if !bits.is_empty() {
                    leaves1_t1[idx] = bits.clone();
                }
            }
            let outs = module.control_outputs();
            self.product = Some(WordProduct {
                leaf_idx,
                selectors: vec![None; state_ids.len()],
                frame1_t: LazyFrame::new(module, leaves1),
                frame1_t1: LazyFrame::new(module, leaves1_t1),
                next1: vec![None; state_ids.len()],
                diff_next: vec![None; state_ids.len()],
                next_cone: vec![None; state_ids.len()],
                out_cone: vec![None; outs.len()],
                diff_out: vec![None; outs.len()],
                outs,
                cond_eq_violation: Vec::new(),
                w_constraints: 0,
                w_invariants: 0,
                w_cond_eqs: 0,
            });
        }
        let tmpl = self.template.as_ref().expect("template built");
        let product = self.product.as_mut().expect("product just built");
        let aig = &mut self.aig;
        let encoder = &mut self.encoder;
        for &constraint in &self.spec.software_constraints[product.w_constraints..] {
            let lit = word_predicate_t(aig, module, product, constraint);
            encoder.assert_true(aig, lit);
            let lit = word_predicate_t1(aig, module, product, &state_ids, constraint);
            encoder.assert_true(aig, lit);
        }
        product.w_constraints = self.spec.software_constraints.len();
        for &invariant in &self.spec.invariants[product.w_invariants..] {
            let lit = word_predicate_t(aig, module, product, invariant);
            encoder.assert_true(aig, lit);
        }
        product.w_invariants = self.spec.invariants.len();
        for &(cond, signal) in &self.spec.conditional_equalities[product.w_cond_eqs..] {
            let i = state_ids
                .iter()
                .position(|&r| r == signal)
                .expect("conditional equality must target a register");
            // Assumed at `t`: whenever `cond` holds in both instances the
            // target register is equal. Over the split leaves this is a
            // genuine constraint (over shared bit-mode leaves it was
            // per-check); it states the same spec fact in every check, so
            // it is asserted once.
            let c0 = blast_predicate(aig, module, &tmpl.frame0_t, cond);
            let c1 = word_predicate_t(aig, module, product, cond);
            let both = aig.and(c0, c1);
            let eq = {
                let (_, b0, s1) = &tmpl.state_leaves[product.leaf_idx[i]];
                eq_word(aig, b0, s1)
            };
            let implied = {
                let nb = !both;
                aig.or(nb, eq)
            };
            encoder.assert_true(aig, implied);
            // Proven at `t+1`: the violation monitor joins every check's
            // monitor disjunction.
            let c0n = blast_predicate(aig, module, &tmpl.frame0_t1, cond);
            let c1n = word_predicate_t1(aig, module, product, &state_ids, cond);
            let bothn = aig.and(c0n, c1n);
            let n1 = ensure_next1(aig, module, product, &state_ids, i);
            let eqn = eq_word(aig, &tmpl.next0[i], &n1);
            let viol = {
                let ne = !eqn;
                aig.and(bothn, ne)
            };
            product.cond_eq_violation.push(viol);
        }
        product.w_cond_eqs = self.spec.conditional_equalities.len();
        self.elab.template_nodes += aig.node_count() - nodes_before;
        self.product_stats.one_time_sat_vars +=
            encoder.num_vars().saturating_sub(vars_before) as u64;
        self.product_stats.one_time_sat_clauses +=
            encoder.num_clauses().saturating_sub(clauses_before) as u64;
    }

    /// The word-level check ([`UpecEncoding::Words`]): no re-elaboration,
    /// no fresh clauses beyond lazily-created predicates/monitors and one
    /// guarded monitor disjunction — `Z'` is selected purely by assuming
    /// selectors over the static product, and refinement weakens guards by
    /// flipping those assumptions.
    fn check_words(
        &mut self,
        z_prime: &[SignalId],
        include_outputs: bool,
    ) -> (UpecOutcome, Option<Result<CheckCertificate, CertError>>) {
        let module = self.module;
        let n = module.signal_count();
        let mut in_z = vec![false; n];
        for &z in z_prime {
            in_z[z.index()] = true;
        }
        let state_ids = module.state_signals();
        let tmpl = self.template.as_ref().expect("template built");
        let product = self.product.as_mut().expect("product built");
        let aig = &mut self.aig;
        let encoder = &mut self.encoder;
        let nodes_before = aig.node_count();

        // Guarded equivalence predicates and difference monitors for the
        // current Z', created on a register's first appearance and reused
        // ever after. Registers that never enter Z' never pay for either,
        // and a monitor whose fan-in boundary is *clean* — every edge
        // register selected, no data input read — is pruned outright: the
        // assumed predicates force both cones onto pairwise-equal leaves,
        // so the difference is unsatisfiable by propagation and neither
        // its AIG cone nor its CNF is ever built.
        let mut new_predicates = 0u64;
        let mut dirty_state = vec![false; state_ids.len()];
        for (i, &reg) in state_ids.iter().enumerate() {
            if !in_z[reg.index()] {
                continue;
            }
            if product.selectors[i].is_none() {
                let sel = encoder.fresh_var();
                let ns = sel.negative();
                let (_, b0, s1) = &tmpl.state_leaves[product.leaf_idx[i]];
                for (&a, &b) in b0.iter().zip(s1.iter()) {
                    let la = encoder.lit(aig, a);
                    let lb = encoder.lit(aig, b);
                    encoder.add_clause(&[ns, !la, lb]);
                    encoder.add_clause(&[ns, la, !lb]);
                }
                product.selectors[i] = Some(sel);
                new_predicates += 1;
            }
            if product.next_cone[i].is_none() {
                product.next_cone[i] = Some(ConeBoundary::of_next(module, reg));
            }
            dirty_state[i] = product.next_cone[i]
                .as_ref()
                .expect("just built")
                .dirty(&in_z);
            if dirty_state[i] && product.diff_next[i].is_none() {
                let n1 = ensure_next1(aig, module, product, &state_ids, i);
                let eq = eq_word(aig, &tmpl.next0[i], &n1);
                product.diff_next[i] = Some(!eq);
            }
        }
        // Output monitors, cone-pruned the same way. At `t+1` an output
        // reads next-state words, so the divergence sources are the data
        // inputs of its own cone plus any edge register whose *next-state*
        // boundary is dirty (whether or not that register is in Z': its
        // `t+1` value is a function of the `t` leaves alone).
        let mut dirty_outs: Vec<(SignalId, AigLit)> = Vec::new();
        if include_outputs {
            for j in 0..product.outs.len() {
                let y = product.outs[j];
                if product.out_cone[j].is_none() {
                    product.out_cone[j] = Some(ConeBoundary::of(module, &[y]));
                }
                let boundary = product.out_cone[j].clone().expect("just built");
                let dirty_t = boundary.dirty(&in_z);
                let dirty_t1 = boundary.reads_data
                    || boundary.regs.iter().any(|&r| {
                        let i = state_ids
                            .iter()
                            .position(|&s| s == r)
                            .expect("boundary registers are state signals");
                        if product.next_cone[i].is_none() {
                            product.next_cone[i] = Some(ConeBoundary::of_next(module, r));
                        }
                        product.next_cone[i]
                            .as_ref()
                            .expect("just built")
                            .dirty(&in_z)
                    });
                if !dirty_t && !dirty_t1 {
                    continue;
                }
                if product.diff_out[j].is_none() {
                    let mask_t = comb_cone_mask(module, &[y]);
                    product.frame1_t.ensure(aig, module, &mask_t);
                    ensure_frame1_t1(aig, module, product, &state_ids, &[y]);
                    let eq_a = eq_word(aig, tmpl.frame0_t.signal(y), product.frame1_t.signal(y));
                    let eq_b = eq_word(aig, tmpl.frame0_t1.signal(y), product.frame1_t1.signal(y));
                    let both = aig.and(eq_a, eq_b);
                    product.diff_out[j] = Some(!both);
                }
                dirty_outs.push((y, product.diff_out[j].expect("just built")));
            }
        }

        // The current Z' as assumptions: the activation guard for this
        // check's monitor clause, the selector of every Z' register
        // (strengthening its predicate to "words equal by propagation"),
        // and the *negated* selector of every instantiated predicate not
        // currently selected — the weakened guard, restoring the free
        // split exactly as bit mode's private leaves do.
        let guard = encoder.fresh_var();
        let g = guard.positive();
        let ng = guard.negative();
        let mut assumptions = vec![g];
        for (i, &reg) in state_ids.iter().enumerate() {
            if in_z[reg.index()] {
                let sel = product.selectors[i].expect("predicate created above");
                assumptions.push(sel.positive());
            } else if let Some(sel) = product.selectors[i] {
                assumptions.push(sel.negative());
            }
        }

        // Strengthened checks never reach this path: `check_internal`
        // routes them through the bit encoding (see its dispatch).
        debug_assert!(self.pending_relational.is_empty());

        // --- monitors + solve -------------------------------------------
        // Only dirty monitors reach the clause; a pruned predicate is
        // exactly one whose bit-mode counterpart would have folded to
        // constant false under shared leaves.
        let mut diff_state: Vec<(SignalId, AigLit)> = Vec::new();
        for (i, &reg) in state_ids.iter().enumerate() {
            if in_z[reg.index()] && dirty_state[i] {
                let d = product.diff_next[i].expect("monitor created above");
                if d != AigLit::FALSE {
                    diff_state.push((reg, d));
                }
            }
        }
        let diff_out = dirty_outs;
        let cond_eq_violation = product.cond_eq_violation.clone();
        let mut monitored: Vec<Lit> = vec![ng];
        for &(_, d) in &diff_state {
            monitored.push(encoder.lit(aig, d));
        }
        for &(_, d) in &diff_out {
            if d != AigLit::FALSE {
                monitored.push(encoder.lit(aig, d));
            }
        }
        for &d in &cond_eq_violation {
            if d != AigLit::FALSE {
                monitored.push(encoder.lit(aig, d));
            }
        }
        self.last_aig_nodes = aig.node_count();
        let created = aig.node_count() - nodes_before;
        self.elab.check_nodes += created;
        self.elab.last_check_nodes = created;
        self.product_stats.predicates += new_predicates;
        self.product_stats.guard_assumptions += assumptions.len() as u64;

        let outcome = if monitored.len() == 1 {
            Some(SolveResult::Unsat)
        } else {
            encoder.add_clause(&monitored);
            encoder.solve_with_budget(&assumptions, WORD_CONFLICT_BUDGET)
        };
        let Some(outcome) = outcome else {
            // Budget exhausted: this check's dirty cones sit where bit
            // mode's shared leaves would have folded the two instances
            // structurally, and the solver is re-deriving those internal
            // equivalences one conflict at a time. Retire the word
            // attempt's guard (its learnt clauses are implied and stay
            // useful) and answer the check through the bit-level path on
            // the same solver — verdict, model shape, and certification
            // all follow the bit path from here. The engine stays in bit
            // mode for the rest of its life, so it pays for at most one
            // exhausted word budget.
            self.product_stats.word_fallbacks += 1;
            self.encoder.add_clause(&[ng]);
            self.encoding = UpecEncoding::Bits;
            return self.check_bits(z_prime, include_outputs);
        };
        let result = match outcome {
            SolveResult::Unsat => UpecOutcome::Holds,
            SolveResult::Sat => {
                let divergent_state = diff_state
                    .iter()
                    .filter(|&&(_, l)| encoder.model_value(l).unwrap_or(false))
                    .map(|&(s, _)| s)
                    .collect();
                let divergent_outputs = if include_outputs {
                    diff_out
                        .iter()
                        .filter(|&&(_, l)| encoder.model_value(l).unwrap_or(false))
                        .map(|&(s, _)| s)
                        .collect()
                } else {
                    Vec::new()
                };
                let violated_cond_eqs = cond_eq_violation
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| encoder.model_value(l).unwrap_or(false))
                    .map(|(i, _)| i)
                    .collect();
                // Witnesses read the split leaves directly: under an
                // assumed selector the model is forced to inst1 == inst0,
                // so the witness is consistent with this check's sharing.
                let witness = |bits: &[(SignalId, Vec<AigLit>, Vec<AigLit>)]| {
                    bits.iter()
                        .map(|(s, b0, b1)| StateWitness {
                            signal: *s,
                            inst0: word_value(encoder, b0),
                            inst1: word_value(encoder, b1),
                        })
                        .collect::<Vec<_>>()
                };
                UpecOutcome::Counterexample(UpecCounterexample {
                    divergent_state,
                    divergent_outputs,
                    state_values: witness(&tmpl.state_leaves),
                    input_values_t: witness(&tmpl.input_bits_t),
                    input_values_t1: witness(&tmpl.input_bits_t1),
                    violated_cond_eqs,
                })
            }
        };
        // Certify BEFORE retiring, exactly as in bit mode; the refutation
        // is of the full assumption set (guard plus selector phases).
        let certificate = if self.cert.is_some() {
            let trivial = monitored.len() == 1;
            let sat = matches!(result, UpecOutcome::Counterexample(_));
            Some(self.certify_check(trivial, sat, &assumptions))
        } else {
            None
        };
        // Retire only the activation guard; predicates and their monitors
        // are permanent and reused by later checks.
        self.encoder.add_clause(&[ng]);
        (result, certificate)
    }

    /// Probes stored clauses into the solver for every register whose
    /// instance-0 next-state cone is fully Tseitin-encoded. Each register
    /// is tried at most once per solver lifetime; a cone that is not yet
    /// (or not fully) encoded is skipped *without* marking it tried, so
    /// it retries once a later check's monitors materialize it — imports
    /// never force encoding.
    fn import_reusable_clauses(&mut self) {
        let Some(reuse) = &mut self.reuse else { return };
        let Some(tmpl) = &self.template else { return };
        for (i, roots) in tmpl.next0.iter().enumerate() {
            if reuse.tried[i] {
                continue;
            }
            let stored = reuse.store.lookup(&reuse.labels[i]);
            if stored.is_empty() || roots.is_empty() {
                reuse.tried[i] = true;
                continue;
            }
            // Cheap gate before the full cone walk: the roots encode last,
            // so unencoded roots mean the cone is not materialized yet.
            if roots
                .iter()
                .any(|r| self.encoder.node_sat_var(r.node()).is_none())
            {
                continue;
            }
            let nodes = cone_nodes(&self.aig, roots);
            let vars: Option<Vec<Var>> = nodes
                .iter()
                .map(|&n| self.encoder.node_sat_var(n))
                .collect();
            let Some(vars) = vars else { continue };
            reuse.tried[i] = true;
            for clause in stored {
                // Cone-local literal ±k maps to the k-th node of the
                // deterministic cone DFS. An ordinal beyond this cone is a
                // label collision with a differently-sized cone: skip.
                let lits: Option<Vec<Lit>> = clause
                    .iter()
                    .map(|&l| {
                        let ordinal = (l.unsigned_abs() as usize).checked_sub(1)?;
                        let var = *vars.get(ordinal)?;
                        Some(var.lit(l > 0))
                    })
                    .collect();
                if let Some(lits) = lits {
                    self.encoder.import_clause(&lits);
                }
            }
        }
    }

    /// Publishes this solver's short learnt clauses that live entirely
    /// inside one register's instance-0 next-state cone to the attached
    /// clause store's pending set, keyed by the cone's WL-canonical label
    /// and renumbered cone-locally (see [`ClauseStore`]). Returns how many
    /// clauses were offered. Call once when the engine retires; a no-op
    /// without a store.
    pub fn export_learnt_clauses(&self) -> u64 {
        let Some(reuse) = &self.reuse else { return 0 };
        let Some(tmpl) = &self.template else { return 0 };
        // First-cone-wins assignment of solver variables to (cone,
        // ordinal), in state order — deterministic, and clauses touching
        // shared or unclaimed variables (guards, selectors, instance-1
        // cones, Tseitin interiors outside any next-state cone) simply
        // fail to map and are not exported.
        let mut assign: HashMap<Var, (usize, i32)> = HashMap::new();
        for (i, roots) in tmpl.next0.iter().enumerate() {
            if roots.is_empty()
                || roots
                    .iter()
                    .any(|r| self.encoder.node_sat_var(r.node()).is_none())
            {
                continue;
            }
            let nodes = cone_nodes(&self.aig, roots);
            let vars: Option<Vec<Var>> = nodes
                .iter()
                .map(|&n| self.encoder.node_sat_var(n))
                .collect();
            let Some(vars) = vars else { continue };
            for (ordinal, var) in vars.into_iter().enumerate() {
                assign.entry(var).or_insert((i, ordinal as i32 + 1));
            }
        }
        let mut per_cone: HashMap<usize, Vec<Vec<i32>>> = HashMap::new();
        self.encoder.for_each_learnt(MAX_REUSE_CLAUSE_LEN, |lits| {
            let mut cone: Option<usize> = None;
            let mut out = Vec::with_capacity(lits.len());
            for &l in lits {
                match assign.get(&l.var()) {
                    Some(&(c, ordinal)) if cone.is_none() || cone == Some(c) => {
                        cone = Some(c);
                        out.push(if l.is_positive() { ordinal } else { -ordinal });
                    }
                    _ => return,
                }
            }
            if let Some(c) = cone {
                per_cone.entry(c).or_default().push(out);
            }
        });
        let mut cones: Vec<usize> = per_cone.keys().copied().collect();
        cones.sort_unstable();
        let mut published = 0u64;
        for c in cones {
            let clauses = per_cone.remove(&c).expect("key just listed");
            published += clauses.len() as u64;
            reuse.store.publish(reuse.labels[c], clauses);
        }
        published
    }

    /// Certifies the check that just solved: feed the checker the trace
    /// slice this check appended, then validate the verdict — a RUP
    /// refutation of the activation literal for UNSAT, a model evaluation
    /// for SAT. Captures the hinted artifact of a certified refutation
    /// and writes external-checker artifacts, if requested.
    fn certify_check(
        &mut self,
        trivial: bool,
        sat: bool,
        assumptions: &[Lit],
    ) -> Result<CheckCertificate, CertError> {
        let started = Instant::now();
        let cert = self.cert.as_mut().expect("certification enabled");
        let proof = self.encoder.proof().expect("proof logging on");
        let snapshot = proof.len();
        let steps = proof.steps();
        cert.stats.certified_checks += 1;
        let verdict = cert
            .checker
            .feed(&steps[cert.consumed..snapshot])
            .and_then(|()| {
                if trivial {
                    cert.stats.trivial_unsat += 1;
                    Ok(CheckCertificate::TrivialUnsat)
                } else if sat {
                    let clauses = fastpath_cert::check_model(
                        &steps[..snapshot],
                        assumptions,
                        self.encoder.model(),
                    )?;
                    cert.stats.sat_models += 1;
                    Ok(CheckCertificate::SatModel { clauses })
                } else {
                    cert.checker.verify_unsat(assumptions)?;
                    cert.stats.unsat_proofs += 1;
                    Ok(CheckCertificate::UnsatProof { steps: snapshot })
                }
            });
        cert.consumed = snapshot;
        if verdict.is_err() {
            cert.stats.cert_failures += 1;
        }
        // The tracker emits the backward-trimmed core and hinted
        // refutation straight from the cores it recorded during replay.
        // Should emission ever fail, the check stays certified and is
        // simply not stored.
        cert.last_artifact = if cert.capture && verdict.is_ok() && !trivial && !sat {
            cert.checker
                .emit_hinted(assumptions)
                .ok()
                .map(|(cnf, drup)| ProofArtifact { cnf, drup })
        } else {
            None
        };
        if let (Some(dir), false) = (&cert.artifact_dir, trivial) {
            // Rejected certificates are dumped too — that is exactly when
            // an external cross-audit matters most.
            let cnf = Cnf::from_steps(&steps[..snapshot], assumptions).to_dimacs();
            let index = cert.stats.certified_checks;
            let base = dir.join(format!("{}check{:04}", cert.artifact_prefix, index));
            let (path, payload) = if sat {
                (
                    base.with_extension("model"),
                    artifacts::model_to_text(self.encoder.model()),
                )
            } else {
                (
                    base.with_extension("drup"),
                    proof.render_drup(snapshot, assumptions).unwrap_or_else(|| {
                        artifacts::proof_to_drup(&steps[..snapshot], assumptions)
                    }),
                )
            };
            let wrote = std::fs::create_dir_all(dir).and_then(|()| {
                std::fs::write(base.with_extension("cnf"), cnf)?;
                std::fs::write(path, payload)
            });
            match wrote {
                Ok(()) => cert.stats.artifacts_written += 1,
                Err(_) => cert.stats.artifact_failures += 1,
            }
        }
        cert.backward_time += started.elapsed();
        verdict
    }
}

/// The AIG cone of `roots` in deterministic preorder-DFS first-visit
/// order: roots in word order, then fanin 0 before fanin 1. The ordinal a
/// node gets is a pure function of the cone's *structure*, so two
/// isomorphic cones — across checks, runs, designs, or machines — number
/// their nodes identically. Cone-local clause-store literals are ordinals
/// into this order.
fn cone_nodes(aig: &Aig, roots: &[AigLit]) -> Vec<usize> {
    let mut order = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut stack: Vec<usize> = roots.iter().rev().map(|r| r.node()).collect();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        order.push(n);
        if let Some((a, b)) = aig.and_fanins(n) {
            stack.push(b.node());
            stack.push(a.node());
        }
    }
    order
}

fn word_value(encoder: &CnfEncoder, bits: &[AigLit]) -> BitVec {
    let mut v = BitVec::zero(bits.len().max(1) as u32);
    for (i, &b) in bits.iter().enumerate() {
        if encoder.model_value(b).unwrap_or(false) {
            v.set_bit(i as u32, true);
        }
    }
    v
}

pub(crate) fn alloc_input(
    aig: &mut Aig,
    role: SignalRole,
    width: u32,
) -> (Vec<AigLit>, Vec<AigLit>) {
    match role {
        SignalRole::DataIn => {
            // Confidential: free and independent per instance.
            let b0 = (0..width).map(|_| aig.input()).collect();
            let b1 = (0..width).map(|_| aig.input()).collect();
            (b0, b1)
        }
        _ => {
            // Control (or unannotated): shared, hence equal by construction.
            let shared: Vec<AigLit> = (0..width).map(|_| aig.input()).collect();
            (shared.clone(), shared)
        }
    }
}

pub(crate) fn blast_predicate(
    aig: &mut Aig,
    module: &Module,
    frame: &Frame,
    expr: ExprId,
) -> AigLit {
    let word = crate::blast::blast_expr_in_frame(aig, module, frame, expr);
    assert_eq!(word.len(), 1, "constraints and invariants must be 1 bit");
    word[0]
}

/// Blasts a 1-bit predicate over instance 1's `t` frame, materializing
/// exactly the combinational cone it reads.
fn word_predicate_t(
    aig: &mut Aig,
    module: &Module,
    product: &mut WordProduct,
    expr: ExprId,
) -> AigLit {
    let supports = module.expr_supports(expr);
    let mask = comb_cone_mask(module, &supports);
    product.frame1_t.ensure(aig, module, &mask);
    let word = product.frame1_t.expr(aig, module, expr);
    assert_eq!(word.len(), 1, "constraints and invariants must be 1 bit");
    word[0]
}

/// Blasts a 1-bit predicate over instance 1's `t+1` frame.
fn word_predicate_t1(
    aig: &mut Aig,
    module: &Module,
    product: &mut WordProduct,
    state_ids: &[SignalId],
    expr: ExprId,
) -> AigLit {
    let supports = module.expr_supports(expr);
    ensure_frame1_t1(aig, module, product, state_ids, &supports);
    let word = product.frame1_t1.expr(aig, module, expr);
    assert_eq!(word.len(), 1, "constraints and invariants must be 1 bit");
    word[0]
}

/// Materializes instance 1's `t+1` cones of `targets`: next-state words
/// for the boundary registers first (themselves demand-driven over the
/// `t` frame), then the combinational interior.
fn ensure_frame1_t1(
    aig: &mut Aig,
    module: &Module,
    product: &mut WordProduct,
    state_ids: &[SignalId],
    targets: &[SignalId],
) {
    let mask = comb_cone_mask(module, targets);
    for (i, &reg) in state_ids.iter().enumerate() {
        if mask[reg.index()] && !product.frame1_t1.has(reg) {
            let w = ensure_next1(aig, module, product, state_ids, i);
            product.frame1_t1.set_leaf(reg, w);
        }
    }
    product.frame1_t1.ensure(aig, module, &mask);
}

/// Instance 1's next-state word for register `i` (in `state_signals()`
/// order), elaborating exactly its fan-in cone over the `t` frame on
/// first use.
fn ensure_next1(
    aig: &mut Aig,
    module: &Module,
    product: &mut WordProduct,
    state_ids: &[SignalId],
    i: usize,
) -> Vec<AigLit> {
    if let Some(w) = &product.next1[i] {
        return w.clone();
    }
    let driver = module.driver(state_ids[i]).expect("register driven");
    let supports = module.expr_supports(driver);
    let mask = comb_cone_mask(module, &supports);
    product.frame1_t.ensure(aig, module, &mask);
    let w = product.frame1_t.expr(aig, module, driver);
    product.next1[i] = Some(w.clone());
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_rtl::ModuleBuilder;

    /// Oblivious: output timing driven by a free-running counter.
    fn oblivious() -> Module {
        let mut b = ModuleBuilder::new("obl");
        let data = b.data_input("data", 8);
        let d = b.sig(data);
        let acc = b.reg("acc", 8, 0);
        let a = b.sig(acc);
        let sum = b.add(a, d);
        b.set_next(acc, sum).expect("drive");
        b.data_output("result", a);
        let cnt = b.reg("cnt", 4, 0);
        let c = b.sig(cnt);
        let one = b.lit(4, 1);
        let inc = b.add(c, one);
        b.set_next(cnt, inc).expect("drive");
        let busy = b.eq_lit(c, 0);
        b.control_output("busy", busy);
        b.build().expect("valid")
    }

    /// Leaky: the control output looks at the (data) accumulator.
    fn leaky() -> Module {
        let mut b = ModuleBuilder::new("leak");
        let data = b.data_input("data", 8);
        let d = b.sig(data);
        let acc = b.reg("acc", 8, 0);
        let a = b.sig(acc);
        let sum = b.add(a, d);
        b.set_next(acc, sum).expect("drive");
        let odd = b.bit(a, 0);
        b.control_output("parity", odd);
        b.build().expect("valid")
    }

    #[test]
    fn oblivious_design_holds_with_data_state_excluded() {
        let m = oblivious();
        let cnt = m.signal_by_name("cnt").expect("cnt");
        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        // Z' = {cnt}: acc is known-tainted data state.
        let outcome = upec.check(&[cnt]);
        assert!(outcome.holds(), "{outcome:?}");
    }

    #[test]
    fn full_state_check_finds_data_propagation() {
        let m = oblivious();
        let acc = m.signal_by_name("acc").expect("acc");
        let cnt = m.signal_by_name("cnt").expect("cnt");
        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        // Baseline starting point: all state in Z'. The data input reaches
        // `acc`, so the check must produce a counterexample diverging there.
        match upec.check(&[acc, cnt]) {
            UpecOutcome::Counterexample(cex) => {
                assert_eq!(cex.divergent_state, vec![acc]);
                assert!(cex.divergent_outputs.is_empty());
            }
            UpecOutcome::Holds => panic!("expected divergence on acc"),
        }
        // After removing acc (the paper's refinement step), it holds.
        assert!(upec.check(&[cnt]).holds());
    }

    #[test]
    fn leaky_design_shows_output_divergence() {
        let m = leaky();
        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        // acc is data state (excluded); the parity output still reads it.
        match upec.check(&[]) {
            UpecOutcome::Counterexample(cex) => {
                let parity = m.signal_by_name("parity").expect("parity");
                assert_eq!(cex.divergent_outputs, vec![parity]);
            }
            UpecOutcome::Holds => panic!("expected output divergence"),
        }
    }

    #[test]
    fn witness_values_differ_where_expected() {
        let m = leaky();
        let acc = m.signal_by_name("acc").expect("acc");
        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        let UpecOutcome::Counterexample(cex) = upec.check(&[]) else {
            panic!("expected counterexample");
        };
        let w = cex
            .state_values
            .iter()
            .find(|w| w.signal == acc)
            .expect("acc witness");
        assert_ne!(w.inst0, w.inst1, "acc must differ to flip parity");
    }

    #[test]
    fn software_constraint_can_restore_obliviousness() {
        // A design that leaks only when mode==1; constraining mode==0
        // makes it data-oblivious. Constraint expressions are built in the
        // module's own arena (the pattern the designs crate uses).
        let mut b = ModuleBuilder::new("modal");
        let mode = b.control_input("mode", 1);
        let data = b.data_input("data", 4);
        let d = b.sig(data);
        let acc = b.reg("acc", 4, 0);
        let a = b.sig(acc);
        b.set_next(acc, d).expect("drive");
        let m_sig = b.sig(mode);
        let zero = b.lit(4, 0);
        let acc_or_zero = b.mux(m_sig, a, zero);
        let leak_bit = b.red_or(acc_or_zero);
        b.control_output("leak", leak_bit);
        let mode_off = b.eq_lit(m_sig, 0); // the software constraint
        let module = b.build().expect("valid");

        // Unconstrained: leaks even with acc excluded from Z'.
        let mut upec = Upec2Safety::new(&module, &UpecSpec::default());
        assert!(!upec.check(&[]).holds());

        // Adding the derived constraint `mode == 0` incrementally on the
        // SAME engine (the flow's refinement loop): data-oblivious.
        upec.add_software_constraint(mode_off);
        assert!(upec.check(&[]).holds());

        // A fresh engine with the constraint from the start agrees.
        let spec = UpecSpec {
            software_constraints: vec![mode_off],
            invariants: vec![],
            conditional_equalities: vec![],
        };
        let mut upec = Upec2Safety::new(&module, &spec);
        assert!(upec.check(&[]).holds());
    }

    #[test]
    fn invariant_excludes_spurious_counterexample() {
        // A one-hot FSM: states 01 and 10 are the only reachable encodings,
        // and the control output leaks data only in the unreachable state
        // 11. The symbolic initial state produces a spurious counterexample
        // unless the one-hot invariant is supplied — the paper's
        // "refine the property with an invariant" case.
        let mut b = ModuleBuilder::new("onehot");
        let data = b.data_input("data", 1);
        let d = b.sig(data);
        let state = b.reg("state", 2, 0b01);
        let s = b.sig(state);
        let s0 = b.bit(s, 0);
        let s1 = b.bit(s, 1);
        // 01 <-> 10 toggle.
        let swapped = b.concat(s0, s1);
        b.set_next(state, swapped).expect("drive");
        let data_reg = b.reg("data_reg", 1, 0);
        b.set_next(data_reg, d).expect("drive");
        let dr = b.sig(data_reg);
        let both = b.and(s0, s1);
        let leak = b.and(both, dr);
        b.control_output("leak", leak);
        let onehot = b.xor(s0, s1); // exactly one bit set
        let module = b.build().expect("valid");

        let state_id = module.signal_by_name("state").expect("state");
        // Without the invariant: spurious counterexample from state 11.
        let mut upec = Upec2Safety::new(&module, &UpecSpec::default());
        assert!(!upec.check(&[state_id]).holds());

        // Adding the one-hot invariant on the same engine: holds.
        upec.add_invariant(onehot);
        assert!(upec.check(&[state_id]).holds());

        // A fresh engine with the invariant from the start agrees.
        let spec = UpecSpec {
            software_constraints: vec![],
            invariants: vec![onehot],
            conditional_equalities: vec![],
        };
        let mut upec = Upec2Safety::new(&module, &spec);
        assert!(upec.check(&[state_id]).holds());
    }

    #[test]
    fn certified_checks_validate_in_both_modes() {
        let m = oblivious();
        let acc = m.signal_by_name("acc").expect("acc");
        let cnt = m.signal_by_name("cnt").expect("cnt");
        for mode in [ElaborationMode::Cached, ElaborationMode::Fresh] {
            let mut upec = Upec2Safety::with_mode(&m, &UpecSpec::default(), mode);
            upec.enable_certification();
            let holds = upec.check_certified(&[cnt]);
            assert!(holds.outcome.holds(), "{mode:?}");
            assert!(
                matches!(
                    holds.certificate,
                    Ok(CheckCertificate::UnsatProof { .. }) | Ok(CheckCertificate::TrivialUnsat)
                ),
                "{mode:?}: {:?}",
                holds.certificate
            );
            let cex = upec.check_certified(&[acc, cnt]);
            assert!(!cex.outcome.holds(), "{mode:?}");
            assert!(
                matches!(cex.certificate, Ok(CheckCertificate::SatModel { .. })),
                "{mode:?}: {:?}",
                cex.certificate
            );
            // A third check on the same engine: retirement of the earlier
            // guards must not leak vacuity into later certificates.
            let again = upec.check_certified(&[cnt]);
            assert!(again.outcome.holds(), "{mode:?}");
            assert!(again.is_certified(), "{mode:?}");
            let stats = upec.cert_stats().expect("enabled");
            assert_eq!(stats.certified_checks, 3, "{mode:?}");
            assert_eq!(stats.cert_failures, 0, "{mode:?}");
            assert_eq!(stats.sat_models, 1, "{mode:?}");
        }
    }

    /// The modal design: leaks only when `mode == 1`. Returns the module
    /// and the `mode == 0` software-constraint expression.
    fn modal() -> (Module, ExprId) {
        let mut b = ModuleBuilder::new("modal");
        let mode = b.control_input("mode", 1);
        let data = b.data_input("data", 4);
        let d = b.sig(data);
        let acc = b.reg("acc", 4, 0);
        let a = b.sig(acc);
        b.set_next(acc, d).expect("drive");
        let m_sig = b.sig(mode);
        let zero = b.lit(4, 0);
        let acc_or_zero = b.mux(m_sig, a, zero);
        let leak_bit = b.red_or(acc_or_zero);
        b.control_output("leak", leak_bit);
        let mode_off = b.eq_lit(m_sig, 0);
        (b.build().expect("valid"), mode_off)
    }

    #[test]
    fn certified_spec_growth_with_constraint() {
        // The modal design with certification on while the spec grows
        // mid-engine.
        let (module, mode_off) = modal();
        let mut upec = Upec2Safety::new(&module, &UpecSpec::default());
        upec.enable_certification();
        let leaky = upec.check_certified(&[]);
        assert!(!leaky.outcome.holds());
        assert!(leaky.is_certified(), "{:?}", leaky.certificate);
        upec.add_software_constraint(mode_off);
        let fixed = upec.check_certified(&[]);
        assert!(fixed.outcome.holds());
        assert!(fixed.is_certified(), "{:?}", fixed.certificate);
        let stats = upec.cert_stats().expect("enabled");
        assert_eq!(stats.cert_failures, 0);
        assert_eq!(stats.sat_models, 1);
        assert!(stats.unsat_proofs + stats.trivial_unsat == 1);
    }

    #[test]
    fn captured_artifacts_revalidate_in_memory() {
        let (module, mode_off) = modal();
        let mut upec = Upec2Safety::new(&module, &UpecSpec::default());
        upec.enable_certification();
        upec.enable_artifact_capture();
        // SAT check: nothing captured (the verdict re-validates by
        // concrete replay instead).
        assert!(!upec.check_certified(&[]).outcome.holds());
        assert!(upec.take_last_artifact().is_none());
        // UNSAT check: the captured pair is the hinted backward trim, and
        // must re-certify from text alone — exactly what a proof cache
        // does on a hit.
        upec.add_software_constraint(mode_off);
        assert!(upec.check_certified(&[]).outcome.holds());
        let artifact = upec.take_last_artifact().expect("captured");
        fastpath_cert::check_hinted_unsat_artifact(&artifact.cnf, &artifact.drup)
            .expect("captured artifact certifies");
        assert!(upec.cert_time() > std::time::Duration::ZERO);
        // Take is destructive.
        assert!(upec.take_last_artifact().is_none());
    }

    #[test]
    fn state_only_empty_partition_is_trivially_certified() {
        let m = oblivious();
        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        upec.enable_certification();
        let out = upec.check_state_only_certified(&[]);
        assert!(out.outcome.holds());
        assert_eq!(out.certificate, Ok(CheckCertificate::TrivialUnsat));
    }

    #[test]
    fn artifacts_round_trip_through_dimacs() {
        let (module, mode_off) = modal();
        let dir =
            std::env::temp_dir().join(format!("fastpath_cert_artifacts_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut upec = Upec2Safety::new(&module, &UpecSpec::default());
        upec.enable_certification();
        upec.set_artifact_output(dir.clone(), "modal_");
        // Check 1: unconstrained, leaks — a SAT verdict with a model dump.
        assert!(!upec.check_certified(&[]).outcome.holds());
        // Check 2: constrained, holds — an UNSAT verdict with a DRUP dump.
        upec.add_software_constraint(mode_off);
        assert!(upec.check_certified(&[]).outcome.holds());
        let stats = upec.cert_stats().expect("enabled");
        assert_eq!(stats.artifacts_written, 2);
        assert_eq!(stats.artifact_failures, 0);
        // Check 1 (SAT): CNF satisfiable, model file alongside.
        let cnf1 = std::fs::read_to_string(dir.join("modal_check0001.cnf")).expect("cnf written");
        let parsed = fastpath_sat::parse_dimacs(&cnf1).expect("valid DIMACS");
        assert_eq!(parsed.into_solver().solve(), fastpath_sat::SolveResult::Sat);
        let model =
            std::fs::read_to_string(dir.join("modal_check0001.model")).expect("model written");
        assert!(model.starts_with('v') && model.trim_end().ends_with('0'));
        // Check 2 (UNSAT): the dumped CNF must be unsatisfiable on its
        // own — the activation assumption is baked in as a unit — and the
        // DRUP proof must be checkable against exactly that CNF.
        let cnf2 = std::fs::read_to_string(dir.join("modal_check0002.cnf")).expect("cnf written");
        let parsed = fastpath_sat::parse_dimacs(&cnf2).expect("valid DIMACS");
        assert_eq!(
            parsed.into_solver().solve(),
            fastpath_sat::SolveResult::Unsat,
            "dumped UNSAT instance must reproduce externally"
        );
        let drup2 =
            std::fs::read_to_string(dir.join("modal_check0002.drup")).expect("drup written");
        fastpath_cert::revalidate_unsat_artifact(&cnf2, &drup2)
            .expect("dumped pair certifies under the forward checker");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bits-engine and a words-engine over the same module, for
    /// agreement tests.
    fn bits_and_words<'a>(
        module: &'a Module,
        spec: &UpecSpec,
    ) -> (Upec2Safety<'a>, Upec2Safety<'a>) {
        let bits = Upec2Safety::new(module, spec);
        let mut words = Upec2Safety::new(module, spec);
        words.set_encoding(UpecEncoding::Words);
        (bits, words)
    }

    #[test]
    fn words_and_bits_agree_on_verdicts_and_divergence() {
        let m = oblivious();
        let acc = m.signal_by_name("acc").expect("acc");
        let cnt = m.signal_by_name("cnt").expect("cnt");
        let (mut bits, mut words) = bits_and_words(&m, &UpecSpec::default());
        for z in [vec![acc, cnt], vec![cnt], vec![acc], vec![], vec![cnt]] {
            let a = bits.check(&z);
            let b = words.check(&z);
            assert_eq!(a.holds(), b.holds(), "disagree on Z'={z:?}");
            if let (UpecOutcome::Counterexample(ca), UpecOutcome::Counterexample(cb)) = (&a, &b) {
                assert_eq!(ca.divergent_state, cb.divergent_state, "Z'={z:?}");
                assert_eq!(ca.divergent_outputs, cb.divergent_outputs, "Z'={z:?}");
            }
        }
        // Output divergence agrees on the leaky design too.
        let m = leaky();
        let (mut bits, mut words) = bits_and_words(&m, &UpecSpec::default());
        let (a, b) = (bits.check(&[]), words.check(&[]));
        assert!(!a.holds() && !b.holds());
        let (UpecOutcome::Counterexample(ca), UpecOutcome::Counterexample(cb)) = (&a, &b) else {
            unreachable!()
        };
        assert_eq!(ca.divergent_outputs, cb.divergent_outputs);
        // And the words-mode witness genuinely diverges where expected.
        let acc = m.signal_by_name("acc").expect("acc");
        let w = cb
            .state_values
            .iter()
            .find(|w| w.signal == acc)
            .expect("acc witness");
        assert_ne!(w.inst0, w.inst1, "acc must differ to flip parity");
    }

    #[test]
    fn words_spec_growth_agrees_with_bits() {
        // Constraints added mid-engine.
        let (module, mode_off) = modal();
        let (mut bits, mut words) = bits_and_words(&module, &UpecSpec::default());
        assert!(!bits.check(&[]).holds());
        assert!(!words.check(&[]).holds());
        bits.add_software_constraint(mode_off);
        words.add_software_constraint(mode_off);
        assert!(bits.check(&[]).holds());
        assert!(words.check(&[]).holds());
    }

    #[test]
    fn words_invariant_excludes_spurious_counterexample() {
        // The one-hot FSM from the bits-mode invariant test.
        let mut b = ModuleBuilder::new("onehot");
        let data = b.data_input("data", 1);
        let d = b.sig(data);
        let state = b.reg("state", 2, 0b01);
        let s = b.sig(state);
        let s0 = b.bit(s, 0);
        let s1 = b.bit(s, 1);
        let swapped = b.concat(s0, s1);
        b.set_next(state, swapped).expect("drive");
        let data_reg = b.reg("data_reg", 1, 0);
        b.set_next(data_reg, d).expect("drive");
        let dr = b.sig(data_reg);
        let both = b.and(s0, s1);
        let leak = b.and(both, dr);
        b.control_output("leak", leak);
        let onehot = b.xor(s0, s1);
        let module = b.build().expect("valid");
        let state_id = module.signal_by_name("state").expect("state");
        let mut words = Upec2Safety::new(&module, &UpecSpec::default());
        words.set_encoding(UpecEncoding::Words);
        assert!(!words.check(&[state_id]).holds());
        words.add_invariant(onehot);
        assert!(words.check(&[state_id]).holds());
    }

    #[test]
    fn words_checks_certify_with_selector_assumptions() {
        let m = oblivious();
        let acc = m.signal_by_name("acc").expect("acc");
        let cnt = m.signal_by_name("cnt").expect("cnt");
        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        upec.set_encoding(UpecEncoding::Words);
        upec.enable_certification();
        let holds = upec.check_certified(&[cnt]);
        assert!(holds.outcome.holds());
        assert!(holds.is_certified(), "{:?}", holds.certificate);
        let cex = upec.check_certified(&[acc, cnt]);
        assert!(!cex.outcome.holds());
        assert!(
            matches!(cex.certificate, Ok(CheckCertificate::SatModel { .. })),
            "{:?}",
            cex.certificate
        );
        let again = upec.check_certified(&[cnt]);
        assert!(again.outcome.holds());
        assert!(again.is_certified(), "{:?}", again.certificate);
        let stats = upec.cert_stats().expect("enabled");
        assert_eq!(stats.certified_checks, 3);
        assert_eq!(stats.cert_failures, 0);
    }

    #[test]
    fn words_artifacts_revalidate_in_memory() {
        let (module, mode_off) = modal();
        let mut upec = Upec2Safety::new(&module, &UpecSpec::default());
        upec.set_encoding(UpecEncoding::Words);
        upec.enable_certification();
        upec.enable_artifact_capture();
        assert!(!upec.check_certified(&[]).outcome.holds());
        assert!(upec.take_last_artifact().is_none());
        upec.add_software_constraint(mode_off);
        assert!(upec.check_certified(&[]).outcome.holds());
        let artifact = upec.take_last_artifact().expect("captured");
        // The CNF bakes in the full assumption set (guard + selector
        // phases), so it must re-certify from text alone.
        fastpath_cert::check_hinted_unsat_artifact(&artifact.cnf, &artifact.drup)
            .expect("captured artifact certifies");
    }

    /// One register whose next-state cone is a single AND of a control
    /// input and a *data* input — the smallest cone that cannot constant-
    /// fold away (the split data leaf keeps the difference monitor live,
    /// so the cone really gets Tseitin-encoded), with a numbering known
    /// by construction: ordinal 1 = the AND root, 2 and 3 = its fanins.
    fn conjunction_reg() -> Module {
        let mut b = ModuleBuilder::new("conj");
        let x = b.control_input("x", 1);
        let d = b.data_input("d", 1);
        let xs = b.sig(x);
        let ds = b.sig(d);
        let both = b.and(xs, ds);
        let r = b.reg("r", 1, 0);
        b.set_next(r, both).expect("drive");
        let rs = b.sig(r);
        b.control_output("out", rs);
        b.build().expect("valid")
    }

    #[test]
    fn clause_store_imports_probe_and_reexport() {
        let m = conjunction_reg();
        let r = m.signal_by_name("r").expect("r");
        let label = fastpath_rtl::canonical_form(&m).signal_label(r);
        let path =
            std::env::temp_dir().join(format!("fastpath_clause_store_{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Seed the store with one implied cone-local clause (¬root ∨
        // fanin: half of the AND's Tseitin definition, hence RUP) and
        // one garbage clause the probe must reject (root ∧ ¬fanin is
        // satisfiable).
        {
            let store = ClauseStore::open(&path);
            store.publish(label, [vec![-1, 2], vec![1, -2]]);
            store.save().expect("save seed store");
        }
        let store = Arc::new(ClauseStore::open(&path));
        assert_eq!(store.base_clauses(), 2);
        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        upec.set_clause_store(store.clone());
        let mut plain = Upec2Safety::new(&m, &UpecSpec::default());
        // First check materializes the cone; the second one's import pass
        // finds it encoded and probes the stored clauses. Verdicts agree
        // with the store-less engine throughout (r takes data, so Z'={r}
        // leaks in both).
        for _ in 0..2 {
            assert!(!upec.check(&[r]).holds());
            assert!(!plain.check(&[r]).holds());
        }
        let stats = upec.solver_stats();
        assert_eq!(stats.reuse_probed, 2);
        assert_eq!(stats.reuse_imported, 1, "the garbage clause is rejected");
        assert_eq!(plain.solver_stats().reuse_probed, 0);
        // The imported clause is a short learnt clause wholly inside the
        // cone, so the export pass republishes it to the pending set.
        assert!(upec.export_learnt_clauses() >= 1);
        assert!(store.pending_clauses() >= 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn words_refinement_reuses_the_static_product() {
        let m = oblivious();
        let acc = m.signal_by_name("acc").expect("acc");
        let cnt = m.signal_by_name("cnt").expect("cnt");
        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        upec.set_encoding(UpecEncoding::Words);
        let _ = upec.check(&[acc, cnt]);
        let _ = upec.check(&[cnt]);
        let after_two = upec.product_stats();
        // Both registers got predicates on the first check; the second
        // created none.
        assert_eq!(after_two.predicates, 2);
        // Re-checking a seen Z' adds no AIG nodes and only the activation
        // guard on the SAT side: the product is static.
        let _ = upec.check(&[cnt]);
        let s = upec.product_stats();
        assert_eq!(upec.elaboration_stats().last_check_nodes, 0);
        assert_eq!(s.predicates, 2);
        assert!(
            s.check_sat_vars - after_two.check_sat_vars <= 1,
            "repeat check allocated {} vars",
            s.check_sat_vars - after_two.check_sat_vars
        );
        assert!(
            s.check_sat_clauses - after_two.check_sat_clauses <= 2,
            "repeat check added {} clauses",
            s.check_sat_clauses - after_two.check_sat_clauses
        );
        // Guard assumptions: one activation per check plus the selector
        // phases of both instantiated predicates from check 2 onward.
        assert_eq!(s.guard_assumptions, 3 + 3 + 3);
    }

    #[test]
    fn words_fresh_mode_agrees() {
        let m = oblivious();
        let acc = m.signal_by_name("acc").expect("acc");
        let cnt = m.signal_by_name("cnt").expect("cnt");
        let mut cached = Upec2Safety::new(&m, &UpecSpec::default());
        cached.set_encoding(UpecEncoding::Words);
        let mut fresh = Upec2Safety::with_mode(&m, &UpecSpec::default(), ElaborationMode::Fresh);
        fresh.set_encoding(UpecEncoding::Words);
        for z in [vec![acc, cnt], vec![cnt], vec![]] {
            assert_eq!(cached.check(&z).holds(), fresh.check(&z).holds(), "{z:?}");
        }
    }

    #[test]
    fn relational_clauses_discharge_a_non_inductive_check() {
        // A persistent mask bit gates the leak: `Z' = {mask}` is a true
        // partitioning but not 1-inductive, because the symbolic product
        // state includes the unreachable mask=1 half. IC3 derives the
        // reachability invariant; staging its clauses turns the same
        // induction check into the consecution theorem, which holds.
        let mut b = ModuleBuilder::new("masked");
        let data = b.data_input("data", 4);
        let d = b.sig(data);
        let mask = b.reg("mask", 1, 0);
        let msig = b.sig(mask);
        b.set_next(mask, msig).expect("self-loop");
        let acc = b.reg("acc", 4, 0);
        let a = b.sig(acc);
        b.set_next(acc, d).expect("drive");
        let zero = b.lit(4, 0);
        let gated = b.mux(msig, a, zero);
        let leak = b.red_or(gated);
        b.control_output("leak", leak);
        let m = b.build().expect("valid");
        let mask_id = m.signal_by_name("mask").expect("mask");

        let mut engine = crate::ic3::Ic3Engine::new(&m);
        let crate::ic3::Ic3Outcome::Proved(inv) = engine.prove(&[mask_id]) else {
            panic!("ic3 must prove the masked leak");
        };

        for enc in [UpecEncoding::Bits, UpecEncoding::Words] {
            let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
            upec.set_encoding(enc);
            assert!(
                !upec.check(&[mask_id]).holds(),
                "{enc}: plain induction should fail"
            );
            upec.add_relational_clauses(&inv.clauses);
            assert!(
                upec.check(&[mask_id]).holds(),
                "{enc}: invariant-strengthened induction should hold"
            );
            // Staging is one-shot: the clauses retire with their check's
            // activation literal and a plain re-check fails again.
            assert!(
                !upec.check(&[mask_id]).holds(),
                "{enc}: staged clauses must not persist"
            );
        }
    }

    #[test]
    fn relational_clause_discharge_is_certifiable() {
        // The strengthened check's UNSAT proof must survive independent
        // RUP re-validation — the exact artifact flow/cache re-check.
        let mut b = ModuleBuilder::new("masked_cert");
        let data = b.data_input("data", 2);
        let d = b.sig(data);
        let mask = b.reg("mask", 1, 0);
        let msig = b.sig(mask);
        b.set_next(mask, msig).expect("self-loop");
        let acc = b.reg("acc", 2, 0);
        let a = b.sig(acc);
        b.set_next(acc, d).expect("drive");
        let zero = b.lit(2, 0);
        let gated = b.mux(msig, a, zero);
        let leak = b.red_or(gated);
        b.control_output("leak", leak);
        let m = b.build().expect("valid");
        let mask_id = m.signal_by_name("mask").expect("mask");

        let mut engine = crate::ic3::Ic3Engine::new(&m);
        let crate::ic3::Ic3Outcome::Proved(inv) = engine.prove(&[mask_id]) else {
            panic!("ic3 must prove the masked leak");
        };
        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        upec.enable_certification();
        upec.add_relational_clauses(&inv.clauses);
        let certified = upec.check_certified(&[mask_id]);
        assert!(certified.outcome.holds(), "strengthened check should hold");
        assert!(
            certified.is_certified(),
            "UNSAT proof must re-validate: {:?}",
            certified.certificate
        );
    }

    #[test]
    fn cached_and_fresh_modes_agree_and_cache_saves_nodes() {
        let m = oblivious();
        let acc = m.signal_by_name("acc").expect("acc");
        let cnt = m.signal_by_name("cnt").expect("cnt");
        let mut cached = Upec2Safety::new(&m, &UpecSpec::default());
        let mut fresh = Upec2Safety::with_mode(&m, &UpecSpec::default(), ElaborationMode::Fresh);
        for z in [vec![acc, cnt], vec![cnt], vec![acc], vec![]] {
            let a = cached.check(&z);
            let b = fresh.check(&z);
            assert_eq!(a.holds(), b.holds(), "disagree on Z'={z:?}");
        }
        let e = cached.elaboration_stats();
        assert_eq!(e.template_builds, 1);
        assert_eq!(fresh.elaboration_stats().template_builds, 4);
        // Re-checking an already-seen Z' replays entirely through the
        // structural hash: no new nodes at all.
        let _ = cached.check(&[cnt]);
        assert_eq!(cached.elaboration_stats().last_check_nodes, 0);
        // And the cached engine's per-check node creation is strictly
        // below a full re-elaboration.
        assert!(
            e.check_nodes
                < fresh.elaboration_stats().template_nodes + fresh.elaboration_stats().check_nodes,
            "cache created {} nodes, fresh created {}",
            e.check_nodes,
            fresh.elaboration_stats().template_nodes + fresh.elaboration_stats().check_nodes,
        );
        assert!(e.strash_hits > 0, "replay must hit the cache");
    }
}

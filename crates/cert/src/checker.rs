//! The forward unit-propagation RUP checker.

use fastpath_sat::{Lit, ProofStep};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;

/// Why a certificate was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertError {
    /// A `Learn` step failed its RUP probe: assuming the clause's negation
    /// and unit-propagating did not produce a conflict, so the clause is
    /// not justified by the trace up to that point.
    LearnNotRup {
        /// Position of the offending step in the fed trace.
        step: usize,
        /// The unjustified clause.
        clause: Vec<Lit>,
    },
    /// An empty `Learn` step (the solver claims the formula itself became
    /// unsatisfiable) arrived while the checker's root propagation had not
    /// derived a contradiction.
    EmptyLearnWithoutConflict {
        /// Position of the offending step in the fed trace.
        step: usize,
    },
    /// The final UNSAT claim failed: assuming every assumption literal and
    /// unit-propagating over the replayed database did not conflict.
    AssumptionsNotRefuted {
        /// The assumptions that were supposed to be refuted.
        assumptions: Vec<Lit>,
    },
    /// A claimed model falsifies an axiom clause.
    ClauseFalsified {
        /// Index of the clause among the trace's axiom steps.
        axiom: usize,
        /// The falsified clause.
        clause: Vec<Lit>,
    },
    /// A claimed model falsifies an assumption literal.
    AssumptionFalsified {
        /// The falsified assumption.
        lit: Lit,
    },
    /// A claimed model does not cover a variable referenced by the
    /// formula or the assumptions.
    ModelTooShort {
        /// Index of the first uncovered variable.
        var: usize,
    },
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::LearnNotRup { step, clause } => {
                write!(f, "learnt clause at step {step} is not RUP: {clause:?}")
            }
            CertError::EmptyLearnWithoutConflict { step } => write!(
                f,
                "empty clause at step {step} but root propagation found no \
                 conflict"
            ),
            CertError::AssumptionsNotRefuted { assumptions } => write!(
                f,
                "assumptions not refuted by unit propagation: {assumptions:?}"
            ),
            CertError::ClauseFalsified { axiom, clause } => {
                write!(f, "model falsifies axiom clause #{axiom}: {clause:?}")
            }
            CertError::AssumptionFalsified { lit } => {
                write!(f, "model falsifies assumption {lit}")
            }
            CertError::ModelTooShort { var } => {
                write!(f, "model does not cover variable x{var}")
            }
        }
    }
}

impl std::error::Error for CertError {}

/// Work counters accumulated by a [`Checker`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Axiom clauses admitted.
    pub axioms: u64,
    /// Learnt clauses verified (RUP probes that succeeded). In deferred
    /// (backward) mode this counts only the clauses a refutation actually
    /// needed — the rest are admitted unchecked and never probed.
    pub learns: u64,
    /// Deletions applied.
    pub deletions: u64,
    /// Literals propagated (root fixpoint plus probes).
    pub propagations: u64,
}

impl CheckerStats {
    /// Folds another checker's counters into this one.
    pub fn merge(&mut self, other: &CheckerStats) {
        self.axioms += other.axioms;
        self.learns += other.learns;
        self.deletions += other.deletions;
        self.propagations += other.propagations;
    }
}

#[derive(Clone, Debug)]
struct CClause {
    lits: Vec<Lit>,
    /// Count of literals not currently assigned false. When it reaches 1
    /// the clause is unit (or satisfied); at 0 it is conflicting.
    nonfalse: u32,
    active: bool,
}

/// Sentinel reason for assumed (probe) literals.
const NO_REASON: u32 = u32::MAX;

/// What triggered a conflict, for core extraction.
#[derive(Clone, Copy, Debug)]
enum ConflictSeed {
    /// A clause's literals all became false.
    Clause(u32),
    /// An assumed literal was already false under the current assignment.
    Lit(Lit),
}

/// An incremental forward RUP checker.
///
/// Feed trace steps in order with [`Checker::feed`]; between feeds, call
/// [`Checker::verify_unsat`] to certify that the formula replayed so far
/// is unsatisfiable under given assumptions. The checker deliberately uses
/// a propagation scheme different from the solver's (occurrence lists with
/// per-clause non-false counters, not watched literals) so the two
/// implementations do not share failure modes.
#[derive(Debug, Default)]
pub struct Checker {
    clauses: Vec<CClause>,
    /// `occ[lit.index()]`: clauses containing `lit`.
    occ: Vec<Vec<u32>>,
    /// Per-variable truth value: 0 = unassigned, 1 = true, -1 = false.
    assign: Vec<i8>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Root propagation derived the empty clause; everything is implied.
    contradiction: bool,
    /// Sorted-and-deduped literal vector → active clause indices, for
    /// resolving `Delete` steps (the solver mutates literal order in
    /// place, so deletions match up to permutation only).
    by_lits: HashMap<Vec<Lit>, Vec<u32>>,
    /// Steps fed so far (for error positions across incremental feeds).
    steps_fed: usize,
    stats: CheckerStats,
    /// `reason[var]`: clause that propagated the variable's current
    /// assignment, or [`NO_REASON`] for probe assumptions. Only read for
    /// assigned variables, so stale entries are harmless.
    reason: Vec<u32>,
    /// `order[var]`: monotone stamp of the variable's current assignment,
    /// for ordering derivation chains. Stale for unassigned variables.
    order: Vec<u64>,
    /// Next assignment stamp.
    stamp: u64,
    /// Record conflict cores for [backward trimming](crate::trim_unsat_artifact).
    track_cores: bool,
    /// Seed of the most recent conflict (valid until the next `undo_to`).
    conflict_seed: Option<ConflictSeed>,
    /// Per learnt clause (by clause index): the clauses its RUP probe's
    /// conflict derivation touched. Populated only when `track_cores`.
    learn_cores: HashMap<u32, Vec<u32>>,
    /// Core of the root-level contradiction, captured the moment
    /// `contradiction` was set. Populated only when `track_cores`.
    root_core: Option<Vec<u32>>,
    /// Core left behind by the most recent conflicting probe.
    last_probe_core: Option<Vec<u32>>,
    /// Core of the most recent successful `verify_unsat` probe.
    final_core: Option<Vec<u32>>,
    /// Backward mode: admit `Learn` steps without probing them and verify
    /// only the needed closure at [`Checker::verify_unsat`] time.
    deferred: bool,
    /// Deferred mode: clause index → trace position of its `Learn` step.
    /// Doubles as the is-learnt predicate during backward verification.
    learn_step: HashMap<u32, usize>,
    /// Deferred mode: learnt clauses whose bounded RUP probe succeeded
    /// (memoized across incremental `verify_unsat` calls).
    verified: HashSet<u32>,
}

impl Checker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Checker::default()
    }

    /// Creates a checker that records, for every learnt clause and for the
    /// final refutation, the set of clauses its conflict derivation
    /// actually used — the raw material for backward proof trimming.
    pub(crate) fn with_core_tracking() -> Self {
        Checker {
            track_cores: true,
            ..Checker::default()
        }
    }

    /// Creates a *backward* checker: `Learn` steps are admitted without
    /// their RUP probe, and [`Checker::verify_unsat`] verifies only the
    /// clauses in the refutation's dependency closure, each against the
    /// strictly earlier portion of the database (so no circular
    /// justification is possible). Lemmas no refutation ever needs are
    /// never probed at all — the standard backward-checking trade: far
    /// less propagation work on SAT-heavy incremental traces, in exchange
    /// for not flagging junk lemmas that nothing depends on.
    pub(crate) fn with_deferred_checking() -> Self {
        Checker {
            track_cores: true,
            deferred: true,
            ..Checker::default()
        }
    }

    /// Clauses admitted so far (including inactive ones); the next added
    /// clause gets this index.
    pub(crate) fn clause_count(&self) -> usize {
        self.clauses.len()
    }

    /// The recorded conflict core of the learnt clause at `cref`, if any.
    pub(crate) fn learn_core(&self, cref: u32) -> Option<&[u32]> {
        self.learn_cores.get(&cref).map(Vec::as_slice)
    }

    /// The core of the most recent successful [`Checker::verify_unsat`]
    /// (falling back to the root contradiction's core).
    pub(crate) fn final_core(&self) -> Option<&[u32]> {
        self.final_core.as_deref().or(self.root_core.as_deref())
    }

    /// Walks reasons transitively from the recorded conflict seed and
    /// returns every clause index on the derivation, ordered so that each
    /// clause is unit under the assignments made by its predecessors (plus
    /// the probe assumptions), with the conflicting clause last — a
    /// ready-made LRAT-style hint chain. Must run before the conflicting
    /// probe is undone (reasons are only valid while their assignments
    /// stand).
    fn capture_core(&self) -> Vec<u32> {
        let mut visited = vec![false; self.assign.len()];
        let mut stack: Vec<usize> = Vec::new();
        let seed_clause = match self.conflict_seed {
            Some(ConflictSeed::Clause(cref)) => {
                stack.extend(
                    self.clauses[cref as usize]
                        .lits
                        .iter()
                        .map(|l| l.var().index()),
                );
                Some(cref)
            }
            Some(ConflictSeed::Lit(lit)) => {
                stack.push(lit.var().index());
                None
            }
            None => None,
        };
        // (assignment stamp, reason clause) per derivation literal: a
        // clause propagated exactly one literal, so stamps order the
        // chain and no clause appears twice.
        let mut chain: Vec<(u64, u32)> = Vec::new();
        while let Some(v) = stack.pop() {
            if visited[v] {
                continue;
            }
            visited[v] = true;
            match self.reason.get(v) {
                Some(&r) if r != NO_REASON => {
                    chain.push((self.order[v], r));
                    stack.extend(
                        self.clauses[r as usize]
                            .lits
                            .iter()
                            .map(|l| l.var().index()),
                    );
                }
                _ => {}
            }
        }
        chain.sort_unstable();
        let mut core: Vec<u32> = chain.into_iter().map(|(_, r)| r).collect();
        if let Some(cref) = seed_clause {
            core.push(cref);
        }
        core
    }

    /// Work counters.
    pub fn stats(&self) -> CheckerStats {
        self.stats
    }

    /// `true` once root propagation has derived the empty clause: the
    /// replayed formula is unsatisfiable outright.
    pub fn contradiction(&self) -> bool {
        self.contradiction
    }

    /// The number of trace steps fed so far.
    pub fn steps_fed(&self) -> usize {
        self.steps_fed
    }

    fn ensure_var(&mut self, lit: Lit) {
        let need = lit.var().index() + 1;
        if self.assign.len() < need {
            self.assign.resize(need, 0);
            self.occ.resize(2 * need, Vec::new());
            self.reason.resize(need, NO_REASON);
            self.order.resize(need, 0);
        }
    }

    fn value(&self, lit: Lit) -> i8 {
        let v = self.assign[lit.var().index()];
        if lit.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Assigns `lit` true and pushes it on the trail, recording the clause
    /// that forced it ([`NO_REASON`] for assumptions). Returns `false` if
    /// it was already false (immediate conflict).
    fn enqueue(&mut self, lit: Lit, reason: u32) -> bool {
        match self.value(lit) {
            1 => true,
            -1 => false,
            _ => {
                self.assign[lit.var().index()] = if lit.is_positive() { 1 } else { -1 };
                self.reason[lit.var().index()] = reason;
                self.order[lit.var().index()] = self.stamp;
                self.stamp += 1;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Propagates to fixpoint from the current queue head. Returns `true`
    /// on conflict.
    ///
    /// Invariant maintained for [`Checker::undo_to`]: clause counters
    /// reflect exactly the assignments of `trail[..qhead]` — on conflict
    /// the partially applied pass for the current literal is rolled back
    /// before returning, leaving that literal at `qhead`.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let falsified = !self.trail[self.qhead];
            let mut conflict_at: Option<usize> = None;
            for idx in 0..self.occ[falsified.index()].len() {
                let cref = self.occ[falsified.index()][idx] as usize;
                if !self.clauses[cref].active {
                    continue;
                }
                self.clauses[cref].nonfalse -= 1;
                match self.clauses[cref].nonfalse {
                    0 => {
                        // Only falsified literals are ever decremented, so
                        // zero non-false means no satisfied literal either.
                        conflict_at = Some(idx);
                        self.conflict_seed = Some(ConflictSeed::Clause(cref as u32));
                        break;
                    }
                    1 => {
                        // The counter can overstate: a counted literal may
                        // already be false but still pending in the queue.
                        // Scan defensively rather than trusting it.
                        let unit = self.clauses[cref]
                            .lits
                            .iter()
                            .copied()
                            .find(|&l| self.value(l) != -1);
                        match unit {
                            Some(u) if self.value(u) == 0 => {
                                let enqueued = self.enqueue(u, cref as u32);
                                debug_assert!(enqueued);
                            }
                            Some(_) => {} // satisfied clause
                            None => {
                                conflict_at = Some(idx);
                                self.conflict_seed = Some(ConflictSeed::Clause(cref as u32));
                                break;
                            }
                        }
                    }
                    _ => {}
                }
            }
            if let Some(stop) = conflict_at {
                for idx in (0..=stop).rev() {
                    let cref = self.occ[falsified.index()][idx] as usize;
                    if self.clauses[cref].active {
                        self.clauses[cref].nonfalse += 1;
                    }
                }
                return true;
            }
            self.qhead += 1;
            self.stats.propagations += 1;
        }
        false
    }

    /// Rolls the trail back to length `mark`, restoring counters.
    fn undo_to(&mut self, mark: usize) {
        // Counters were decremented exactly for trail entries whose
        // occurrence pass completed, i.e. entries before `qhead` (the
        // `propagate` invariant). Re-increment exactly those.
        for i in (mark..self.qhead).rev() {
            let falsified = !self.trail[i];
            for idx in 0..self.occ[falsified.index()].len() {
                let cref = self.occ[falsified.index()][idx] as usize;
                if self.clauses[cref].active {
                    self.clauses[cref].nonfalse += 1;
                }
            }
        }
        for &lit in &self.trail[mark..] {
            self.assign[lit.var().index()] = 0;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
    }

    /// Sorted, deduped literals; `None` for tautologies.
    fn normalize(lits: &[Lit]) -> Option<Vec<Lit>> {
        let mut sorted = lits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.windows(2).any(|w| w[0] == !w[1]) {
            return None;
        }
        Some(sorted)
    }

    /// Admits a (pre-normalized) clause into the database and runs root
    /// propagation.
    fn add_clause(&mut self, lits: Vec<Lit>) {
        if self.contradiction {
            return;
        }
        for &l in &lits {
            self.ensure_var(l);
        }
        if lits.is_empty() {
            self.contradiction = true;
            return;
        }
        let nonfalse = lits.iter().filter(|&&l| self.value(l) != -1).count() as u32;
        let cref = self.clauses.len() as u32;
        for &l in &lits {
            self.occ[l.index()].push(cref);
        }
        self.by_lits.entry(lits.clone()).or_default().push(cref);
        self.clauses.push(CClause {
            lits: lits.clone(),
            nonfalse,
            active: true,
        });
        match nonfalse {
            0 => {
                // All literals false at root (a True literal counts as
                // non-false, so none is satisfied): conflict.
                self.conflict_seed = Some(ConflictSeed::Clause(cref));
                self.note_root_conflict();
                self.contradiction = true;
            }
            1 => {
                let unit = lits
                    .iter()
                    .copied()
                    .find(|&l| self.value(l) != -1)
                    .expect("one non-false literal");
                if self.value(unit) == 0 {
                    let enqueued = self.enqueue(unit, cref);
                    debug_assert!(enqueued);
                    if self.propagate() {
                        self.note_root_conflict();
                        self.contradiction = true;
                    }
                }
                // `unit` already true ⇒ clause satisfied, nothing to do.
            }
            _ => {}
        }
    }

    /// Captures the core of a conflict reached at root level (while the
    /// reasons behind it are still live) for [`Checker::final_core`].
    fn note_root_conflict(&mut self) {
        if self.track_cores && self.root_core.is_none() {
            self.root_core = Some(self.capture_core());
        }
    }

    /// RUP probe: temporarily assume every literal of `assumed` true,
    /// propagate, report whether a conflict was reached, and undo. When
    /// core tracking is on, a conflicting probe leaves its derivation's
    /// clause set in `last_probe_core`.
    fn probes_to_conflict(&mut self, assumed: &[Lit]) -> bool {
        if self.contradiction {
            self.last_probe_core = self.root_core.clone();
            return true;
        }
        for &l in assumed {
            self.ensure_var(l);
        }
        let mark = self.trail.len();
        debug_assert_eq!(self.qhead, mark, "root state is a fixpoint");
        let mut conflict = false;
        for &l in assumed {
            if !self.enqueue(l, NO_REASON) {
                self.conflict_seed = Some(ConflictSeed::Lit(l));
                conflict = true;
                break;
            }
        }
        let conflict = conflict || self.propagate();
        if conflict && self.track_cores {
            self.last_probe_core = Some(self.capture_core());
        }
        self.undo_to(mark);
        conflict
    }

    /// Replays trace steps in order, verifying each `Learn` step's RUP
    /// property before admitting it.
    ///
    /// # Errors
    ///
    /// [`CertError::LearnNotRup`] if a learnt clause is not justified by
    /// the database built so far; [`CertError::EmptyLearnWithoutConflict`]
    /// if the trace claims outright unsatisfiability the checker cannot
    /// reproduce.
    pub fn feed(&mut self, steps: &[ProofStep]) -> Result<(), CertError> {
        for step in steps {
            let pos = self.steps_fed;
            self.steps_fed += 1;
            match step {
                ProofStep::Axiom(lits) => {
                    self.stats.axioms += 1;
                    if let Some(norm) = Self::normalize(lits) {
                        self.add_clause(norm);
                    }
                }
                ProofStep::Learn(lits) if lits.is_empty() => {
                    if !self.contradiction {
                        return Err(CertError::EmptyLearnWithoutConflict { step: pos });
                    }
                }
                ProofStep::Learn(lits) => {
                    if self.deferred {
                        // Admit without probing; `verify_unsat` will
                        // RUP-check this clause iff a refutation's
                        // dependency closure reaches it.
                        if let Some(norm) = Self::normalize(lits) {
                            let cref = self.clauses.len() as u32;
                            self.add_clause(norm);
                            if self.clauses.len() > cref as usize {
                                self.learn_step.insert(cref, pos);
                            }
                        }
                        continue;
                    }
                    let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                    if !self.probes_to_conflict(&negated) {
                        return Err(CertError::LearnNotRup {
                            step: pos,
                            clause: lits.clone(),
                        });
                    }
                    self.stats.learns += 1;
                    let core = self.track_cores.then(|| self.last_probe_core.take());
                    if let Some(norm) = Self::normalize(lits) {
                        let cref = self.clauses.len() as u32;
                        self.add_clause(norm);
                        if let (Some(core), true) =
                            (core.flatten(), self.clauses.len() > cref as usize)
                        {
                            self.learn_cores.insert(cref, core);
                        }
                    }
                }
                ProofStep::Delete(lits) => {
                    self.delete(lits);
                }
            }
        }
        Ok(())
    }

    /// Applies a deletion. Unknown clauses are ignored: deletions only
    /// ever weaken propagation, so skipping one is sound (the solver also
    /// deletes nothing the checker relies on for already-derived root
    /// literals — those stay assigned, as consequences of the axioms).
    fn delete(&mut self, lits: &[Lit]) {
        let Some(norm) = Self::normalize(lits) else {
            return;
        };
        let Some(refs) = self.by_lits.get_mut(&norm) else {
            return;
        };
        let Some(cref) = refs.pop() else {
            return;
        };
        if refs.is_empty() {
            self.by_lits.remove(&norm);
        }
        self.clauses[cref as usize].active = false;
        self.stats.deletions += 1;
    }

    /// Certifies that the replayed formula is unsatisfiable under
    /// `assumptions` (empty slice ⇒ unconditionally unsatisfiable): the
    /// negated-assumption clause must have the RUP property, which covers
    /// both of the solver's UNSAT return paths — an empty learnt clause in
    /// the trace, or an assumption literal falsified by propagation.
    ///
    /// # Errors
    ///
    /// [`CertError::AssumptionsNotRefuted`] if assuming every assumption
    /// and unit-propagating does not conflict.
    pub fn verify_unsat(&mut self, assumptions: &[Lit]) -> Result<(), CertError> {
        if self.probes_to_conflict(assumptions) {
            if self.track_cores {
                self.final_core = self.last_probe_core.take();
            }
            if self.deferred {
                let seed = self.final_core.clone().unwrap_or_default();
                self.verify_backward(&seed)?;
            }
            Ok(())
        } else {
            Err(CertError::AssumptionsNotRefuted {
                assumptions: assumptions.to_vec(),
            })
        }
    }

    /// Backward verification pass: RUP-checks every unverified learnt
    /// clause in the dependency closure of `seed`, in decreasing clause
    /// order, each against only the clauses admitted *before* it. Cores
    /// recorded here feed [`Checker::learn_core`] exactly as the eager
    /// mode's probes would, so hint emission is mode-agnostic.
    ///
    /// The scratch assignment starts as the root trail restricted to
    /// literals whose derivation lies entirely below the current bound —
    /// for a lemma at index `i` that is precisely the root fixpoint the
    /// eager checker would have probed against at admission time (every
    /// literal assigned before step `i` has a derivation chain through
    /// clauses `< i`; later literals cannot, because their chain passes
    /// through the clause that triggered them). Bounds only decrease
    /// across the pass, so the restriction is a single monotone sweep.
    fn verify_backward(&mut self, seed: &[u32]) -> Result<(), CertError> {
        let mut heap: BinaryHeap<u32> = seed
            .iter()
            .copied()
            .filter(|c| self.learn_step.contains_key(c) && !self.verified.contains(c))
            .collect();
        if heap.is_empty() {
            return Ok(());
        }
        let nvars = self.assign.len();
        let mut val = vec![0i8; nvars];
        let mut reason2 = vec![NO_REASON; nvars];
        let mut order2 = vec![0u64; nvars];
        // chain_max[v]: the largest clause index on the derivation of v's
        // root assignment. Trail order guarantees reason antecedents are
        // computed before their consequences.
        let mut chain_max = vec![0u32; nvars];
        for &lit in &self.trail {
            let v = lit.var().index();
            let r = self.reason[v];
            let mut m = 0u32;
            if r != NO_REASON {
                m = r;
                for &l in &self.clauses[r as usize].lits {
                    let u = l.var().index();
                    if u != v {
                        m = m.max(chain_max[u]);
                    }
                }
            }
            chain_max[v] = m;
            val[v] = self.assign[v];
            reason2[v] = r;
            order2[v] = self.order[v];
        }
        let mut by_chain: Vec<(u32, Lit)> = self
            .trail
            .iter()
            .map(|&l| (chain_max[l.var().index()], l))
            .collect();
        by_chain.sort_unstable_by_key(|&(m, _)| m);
        let mut active_end = by_chain.len();
        let mut stamp2 = self.stamp;
        let mut seen = vec![0u32; nvars];
        let mut generation = 0u32;
        let value2 = |val: &[i8], lit: Lit| -> i8 {
            let v = val[lit.var().index()];
            if lit.is_positive() {
                v
            } else {
                -v
            }
        };
        // Per-clause non-false counters under the scratch assignment, kept
        // consistent across probes and base shrinks so each clause touch
        // during probe propagation is O(1) — the same scheme the eager
        // path uses, rebuilt once per backward pass.
        let mut nonfalse2: Vec<u32> = self
            .clauses
            .iter()
            .map(|c| c.lits.iter().filter(|&&l| value2(&val, l) != -1).count() as u32)
            .collect();
        while let Some(cref) = heap.pop() {
            if self.verified.contains(&cref) {
                continue;
            }
            while active_end > 0 && by_chain[active_end - 1].0 >= cref {
                let lit = by_chain[active_end - 1].1;
                val[lit.var().index()] = 0;
                // `!lit` occurrences were false and are now open again.
                for &c2 in &self.occ[(!lit).index()] {
                    nonfalse2[c2 as usize] += 1;
                }
                active_end -= 1;
            }
            let lits = self.clauses[cref as usize].lits.clone();
            let mut trail2: Vec<Lit> = Vec::new();
            let mut conflict: Option<ConflictSeed> = None;
            for &l in &lits {
                let nl = !l;
                match value2(&val, nl) {
                    1 => {}
                    -1 => {
                        conflict = Some(ConflictSeed::Lit(nl));
                        break;
                    }
                    _ => {
                        let v = nl.var().index();
                        val[v] = if nl.is_positive() { 1 } else { -1 };
                        reason2[v] = NO_REASON;
                        order2[v] = stamp2;
                        stamp2 += 1;
                        trail2.push(nl);
                    }
                }
            }
            // Counting propagation, mirroring `propagate`'s invariant:
            // counters reflect exactly the assignments of fully-processed
            // trail entries; on conflict the partial pass for the current
            // literal is rolled back. Counters are maintained for *every*
            // clause (the undo needs symmetry), but only clauses below the
            // bound may act as units or conflicts.
            let mut qh = 0usize;
            while conflict.is_none() && qh < trail2.len() {
                let falsified = !trail2[qh];
                let mut conflict_at: Option<usize> = None;
                for idx in 0..self.occ[falsified.index()].len() {
                    let c2 = self.occ[falsified.index()][idx];
                    nonfalse2[c2 as usize] -= 1;
                    if c2 >= cref {
                        continue;
                    }
                    match nonfalse2[c2 as usize] {
                        0 => {
                            conflict_at = Some(idx);
                            conflict = Some(ConflictSeed::Clause(c2));
                            break;
                        }
                        1 => {
                            let unit = self.clauses[c2 as usize]
                                .lits
                                .iter()
                                .copied()
                                .find(|&l| value2(&val, l) != -1);
                            match unit {
                                Some(u) if value2(&val, u) == 0 => {
                                    let v = u.var().index();
                                    val[v] = if u.is_positive() { 1 } else { -1 };
                                    reason2[v] = c2;
                                    order2[v] = stamp2;
                                    stamp2 += 1;
                                    trail2.push(u);
                                }
                                Some(_) => {}
                                None => {
                                    conflict_at = Some(idx);
                                    conflict = Some(ConflictSeed::Clause(c2));
                                    break;
                                }
                            }
                        }
                        _ => {}
                    }
                }
                if let Some(stop) = conflict_at {
                    for idx in (0..=stop).rev() {
                        nonfalse2[self.occ[falsified.index()][idx] as usize] += 1;
                    }
                    break;
                }
                qh += 1;
                self.stats.propagations += 1;
            }
            let undo_probe = |val: &mut [i8], nonfalse2: &mut [u32], trail2: &[Lit], qh: usize| {
                for i in (0..qh).rev() {
                    let falsified = !trail2[i];
                    for &c2 in &self.occ[falsified.index()] {
                        nonfalse2[c2 as usize] += 1;
                    }
                }
                for &l in trail2 {
                    val[l.var().index()] = 0;
                }
            };
            let Some(conflict) = conflict else {
                undo_probe(&mut val, &mut nonfalse2, &trail2, qh);
                return Err(CertError::LearnNotRup {
                    step: self.learn_step[&cref],
                    clause: lits,
                });
            };
            // Core capture on the scratch state, mirroring `capture_core`.
            generation += 1;
            let mut stack: Vec<usize> = Vec::new();
            let seed_clause = match conflict {
                ConflictSeed::Clause(c) => {
                    stack.extend(
                        self.clauses[c as usize]
                            .lits
                            .iter()
                            .map(|l| l.var().index()),
                    );
                    Some(c)
                }
                ConflictSeed::Lit(lit) => {
                    stack.push(lit.var().index());
                    None
                }
            };
            let mut chain: Vec<(u64, u32)> = Vec::new();
            while let Some(v) = stack.pop() {
                if seen[v] == generation {
                    continue;
                }
                seen[v] = generation;
                let r = reason2[v];
                if r != NO_REASON && val[v] != 0 {
                    chain.push((order2[v], r));
                    stack.extend(
                        self.clauses[r as usize]
                            .lits
                            .iter()
                            .map(|l| l.var().index()),
                    );
                }
            }
            chain.sort_unstable();
            let mut core: Vec<u32> = chain.into_iter().map(|(_, r)| r).collect();
            if let Some(c) = seed_clause {
                core.push(c);
            }
            undo_probe(&mut val, &mut nonfalse2, &trail2, qh);
            for &c in &core {
                if self.learn_step.contains_key(&c) && !self.verified.contains(&c) {
                    heap.push(c);
                }
            }
            self.learn_cores.insert(cref, core);
            self.verified.insert(cref);
            self.stats.learns += 1;
        }
        Ok(())
    }
}

/// One-shot certification that `steps` proves unsatisfiability under
/// `assumptions`. Equivalent to feeding a fresh [`Checker`] the whole
/// trace and calling [`Checker::verify_unsat`].
///
/// # Errors
///
/// Any [`CertError`] produced during replay or the final refutation probe.
pub fn check_unsat_certificate(
    steps: &[ProofStep],
    assumptions: &[Lit],
) -> Result<CheckerStats, CertError> {
    let mut checker = Checker::new();
    checker.feed(steps)?;
    checker.verify_unsat(assumptions)?;
    Ok(checker.stats())
}

/// Certifies a SAT answer: `model` (indexed by variable, `true` =
/// positive) must satisfy every axiom clause of `steps` and every
/// assumption literal. Learnt clauses are not checked — they are logical
/// consequences of the axioms, so a model of the axioms satisfies them
/// (and checking axioms only keeps this sound even against a corrupted
/// trace). Returns the number of clauses checked.
///
/// # Errors
///
/// [`CertError::ClauseFalsified`], [`CertError::AssumptionFalsified`], or
/// [`CertError::ModelTooShort`].
pub fn check_model(
    steps: &[ProofStep],
    assumptions: &[Lit],
    model: &[bool],
) -> Result<usize, CertError> {
    let lit_true = |l: Lit| -> Result<bool, CertError> {
        model
            .get(l.var().index())
            .map(|&b| b == l.is_positive())
            .ok_or(CertError::ModelTooShort {
                var: l.var().index(),
            })
    };
    let mut checked = 0usize;
    for step in steps {
        let ProofStep::Axiom(lits) = step else {
            continue;
        };
        let mut satisfied = false;
        for &l in lits {
            if lit_true(l)? {
                satisfied = true;
                break;
            }
        }
        if !satisfied {
            return Err(CertError::ClauseFalsified {
                axiom: checked,
                clause: lits.clone(),
            });
        }
        checked += 1;
    }
    for &a in assumptions {
        if !lit_true(a)? {
            return Err(CertError::AssumptionFalsified { lit: a });
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_sat::{SolveResult, Solver, Var};

    fn pigeonhole_unsat_solver() -> Solver {
        let mut s = Solver::new();
        s.enable_proof_logging();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (a, b) in row_i.iter().zip(row_j) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        s
    }

    #[test]
    fn certifies_pigeonhole_unsat() {
        let s = pigeonhole_unsat_solver();
        let stats =
            check_unsat_certificate(s.proof().expect("logged").steps(), &[]).expect("valid proof");
        assert!(stats.learns > 0, "proof exercises conflict analysis");
    }

    #[test]
    fn corrupted_proof_is_rejected() {
        let s = pigeonhole_unsat_solver();
        let mut steps = s.proof().expect("logged").steps().to_vec();
        // Replace the first learnt clause with an unjustified unit over a
        // fresh, unconstrained variable: nothing propagates, no conflict.
        let fresh = Var::from_index(99).positive();
        let learn_pos = steps
            .iter()
            .position(|st| matches!(st, ProofStep::Learn(l) if !l.is_empty()))
            .expect("trace has learns");
        steps[learn_pos] = ProofStep::Learn(vec![fresh]);
        match check_unsat_certificate(&steps, &[]) {
            Err(CertError::LearnNotRup { step, clause }) => {
                assert_eq!(step, learn_pos);
                assert_eq!(clause, vec![fresh]);
            }
            other => panic!("expected LearnNotRup, got {other:?}"),
        }
    }

    #[test]
    fn dropped_axiom_breaks_the_proof() {
        let s = pigeonhole_unsat_solver();
        let steps = s.proof().expect("logged").steps();
        // Removing the final step (the empty clause) must break the
        // certificate: without it, nothing refutes the empty assumption
        // set.
        let truncated = &steps[..steps.len() - 1];
        // The truncated trace may still be internally consistent, but the
        // UNSAT claim must fail unless propagation alone conflicts.
        let mut checker = Checker::new();
        checker.feed(truncated).expect("prefix is consistent");
        if !checker.contradiction() {
            assert!(matches!(
                checker.verify_unsat(&[]),
                Err(CertError::AssumptionsNotRefuted { .. })
            ));
        }
        // Dropping an axiom invalidates later learns (or the final empty
        // clause) — the checker must reject somewhere, not accept.
        let without_axiom: Vec<ProofStep> = steps
            .iter()
            .enumerate()
            .filter(|(i, st)| !(matches!(st, ProofStep::Axiom(_)) && *i == 0))
            .map(|(_, st)| st.clone())
            .collect();
        let mut checker = Checker::new();
        let fed = checker.feed(&without_axiom);
        assert!(
            fed.is_err() || checker.verify_unsat(&[]).is_err() || checker.contradiction(),
            "either the replay or the final claim must fail, or the \
             remaining clauses are genuinely UNSAT"
        );
    }

    #[test]
    fn certifies_unsat_under_assumptions_without_solver_logging() {
        // The solver's assumption-failure return path logs nothing; the
        // checker's own propagation must close the gap.
        let mut s = Solver::new();
        s.enable_proof_logging();
        let x = s.new_var();
        let g = s.new_var();
        s.add_clause(&[g.negative(), x.positive()]);
        s.add_clause(&[g.negative(), x.negative()]);
        assert_eq!(s.solve_with(&[g.positive()]), SolveResult::Unsat);
        let snapshot = s.proof_len();
        let steps = &s.proof().expect("logged").steps()[..snapshot];
        check_unsat_certificate(steps, &[g.positive()]).expect("assumption UNSAT certifies");
        // Without the assumption the formula is satisfiable — the claim
        // must be rejected, not rubber-stamped.
        assert!(matches!(
            check_unsat_certificate(steps, &[]),
            Err(CertError::AssumptionsNotRefuted { .. })
        ));
    }

    #[test]
    fn certificate_prefix_survives_retirement() {
        // The activation-literal protocol: the certificate snapshot is
        // taken before the retirement unit !g is asserted. Replaying the
        // full trace and probing at the snapshot must still certify, and
        // the retired trace must NOT certify `g` being assumable (the
        // vacuity hazard this design avoids).
        let mut s = Solver::new();
        s.enable_proof_logging();
        let x = s.new_var();
        let g = s.new_var();
        s.add_clause(&[g.negative(), x.positive()]);
        s.add_clause(&[g.negative(), x.negative()]);
        assert_eq!(s.solve_with(&[g.positive()]), SolveResult::Unsat);
        let snapshot = s.proof_len();
        s.add_clause(&[g.negative()]); // retire the check
        let steps = s.proof().expect("logged").steps();
        // Prefix check (what the engine does): genuine refutation.
        check_unsat_certificate(&steps[..snapshot], &[g.positive()]).expect("prefix certifies");
        // Full-trace check still succeeds but only vacuously (!g is an
        // axiom), which is why the engine snapshots before retirement.
        check_unsat_certificate(steps, &[g.positive()]).expect("vacuous but consistent");
    }

    #[test]
    fn deletions_are_applied_and_unknown_deletions_ignored() {
        let a = Var::from_index(0).positive();
        let b = Var::from_index(1).positive();
        let steps = vec![
            ProofStep::Axiom(vec![a, b]),
            ProofStep::Axiom(vec![!a, b]),
            // (a|b) & (!a|b) ⊨ b by resolution; RUP: assume !b, propagate
            // !a from clause 1... counters: both clauses become unit on !b.
            ProofStep::Learn(vec![b]),
            // Delete in permuted order — must still resolve.
            ProofStep::Delete(vec![b, a]),
            // Deleting something never added is ignored, not an error.
            ProofStep::Delete(vec![!b]),
            ProofStep::Axiom(vec![!b]),
        ];
        let mut checker = Checker::new();
        checker.feed(&steps).expect("valid");
        assert_eq!(checker.stats().deletions, 1);
        // b was learnt, then !b asserted: contradiction at root.
        assert!(checker.contradiction());
        checker.verify_unsat(&[]).expect("empty-assumption UNSAT");
    }

    #[test]
    fn incremental_feed_equals_one_shot() {
        let s = pigeonhole_unsat_solver();
        let steps = s.proof().expect("logged").steps();
        let one_shot = check_unsat_certificate(steps, &[]).expect("valid");
        let mut inc = Checker::new();
        for chunk in steps.chunks(3) {
            inc.feed(chunk).expect("valid chunk");
        }
        inc.verify_unsat(&[]).expect("valid");
        assert_eq!(inc.stats(), one_shot);
        assert_eq!(inc.steps_fed(), steps.len());
    }

    #[test]
    fn model_check_accepts_and_rejects() {
        let mut s = Solver::new();
        s.enable_proof_logging();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        s.add_clause(&[a.negative(), b.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let steps = s.proof().expect("logged").steps();
        let model = s.model().to_vec();
        let checked = check_model(steps, &[], &model).expect("model satisfies");
        assert_eq!(checked, 2);
        // Corrupt the model: force b false — clause (a|b) or (!a|b) breaks.
        let mut bad = model.clone();
        bad[b.index()] = false;
        assert!(matches!(
            check_model(steps, &[], &bad),
            Err(CertError::ClauseFalsified { .. })
        ));
        // A model that ignores an assumption is rejected.
        assert!(matches!(
            check_model(steps, &[b.negative()], &model),
            Err(CertError::AssumptionFalsified { .. })
        ));
        // A truncated model is rejected, not silently extended.
        assert!(matches!(
            check_model(steps, &[], &model[..1]),
            Err(CertError::ModelTooShort { .. })
        ));
    }

    #[test]
    fn deferred_mode_certifies_pigeonhole_with_fewer_probes() {
        let s = pigeonhole_unsat_solver();
        let steps = s.proof().expect("logged").steps();
        let mut eager = Checker::new();
        eager.feed(steps).expect("valid");
        eager.verify_unsat(&[]).expect("valid");
        let mut deferred = Checker::with_deferred_checking();
        deferred.feed(steps).expect("replay is probe-free");
        deferred.verify_unsat(&[]).expect("backward pass certifies");
        assert!(
            deferred.stats().learns <= eager.stats().learns,
            "backward checking verifies at most the eager set \
             ({} > {})",
            deferred.stats().learns,
            eager.stats().learns
        );
    }

    #[test]
    fn deferred_mode_rejects_corrupt_needed_lemma() {
        // Two units force a root contradiction through a learnt clause the
        // refutation needs; corrupting that clause must surface LearnNotRup
        // from the backward pass even though feeding admitted it silently.
        let a = Var::from_index(0).positive();
        let b = Var::from_index(1).positive();
        let steps = vec![
            ProofStep::Axiom(vec![a, b]),
            ProofStep::Axiom(vec![!a, b]),
            ProofStep::Learn(vec![b]),
            ProofStep::Axiom(vec![!b]),
        ];
        let mut ok = Checker::with_deferred_checking();
        ok.feed(&steps).expect("admitted");
        ok.verify_unsat(&[]).expect("b is RUP, closure certifies");
        // Corrupt: claim `a` instead — not RUP, and the contradiction
        // through it must not be accepted.
        let bad = vec![
            ProofStep::Axiom(vec![a, b]),
            ProofStep::Learn(vec![!b]),
            ProofStep::Axiom(vec![!a]),
        ];
        let mut checker = Checker::with_deferred_checking();
        checker.feed(&bad).expect("feeding never probes");
        match checker.verify_unsat(&[]) {
            Err(CertError::LearnNotRup { step, clause }) => {
                assert_eq!(step, 1);
                assert_eq!(clause, vec![!b]);
            }
            other => panic!("expected LearnNotRup, got {other:?}"),
        }
    }

    #[test]
    fn deferred_mode_ignores_unused_junk_lemma() {
        // A lemma nothing depends on is never probed — the backward
        // checker's defining trade-off. The eager checker rejects the same
        // trace at feed time.
        let s = pigeonhole_unsat_solver();
        let mut steps = s.proof().expect("logged").steps().to_vec();
        let junk = ProofStep::Learn(vec![Var::from_index(97).positive()]);
        // Insert before the first learn: admitted, over a variable no
        // other clause mentions, so no derivation can depend on it.
        let pos = steps
            .iter()
            .position(|st| matches!(st, ProofStep::Learn(_)))
            .expect("trace has learns");
        steps.insert(pos, junk);
        let mut deferred = Checker::with_deferred_checking();
        deferred.feed(&steps).expect("admitted unchecked");
        deferred
            .verify_unsat(&[])
            .expect("junk is outside the closure");
        let mut eager = Checker::new();
        assert!(
            eager.feed(&steps).is_err(),
            "forward replay probes every lemma and rejects the junk"
        );
    }

    #[test]
    fn deferred_incremental_matches_eager_on_random_traces() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBAC4);
        for round in 0..100 {
            let num_vars = rng.gen_range(2..=10usize);
            let mut s = Solver::new();
            s.enable_proof_logging();
            let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
            for _ in 0..rng.gen_range(1..=30usize) {
                let len = rng.gen_range(1..=3usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| vars[rng.gen_range(0..num_vars)].lit(rng.gen_bool(0.5)))
                    .collect();
                s.add_clause(&lits);
            }
            // Several incremental probes over one growing trace, the
            // engine's usage pattern: feed the delta, then verify.
            let mut deferred = Checker::with_deferred_checking();
            let mut fed = 0usize;
            for _ in 0..rng.gen_range(1..=3usize) {
                let assumptions: Vec<Lit> = (0..rng.gen_range(0..=2usize))
                    .map(|_| vars[rng.gen_range(0..num_vars)].lit(rng.gen_bool(0.5)))
                    .collect();
                let result = s.solve_with(&assumptions);
                let snapshot = s.proof_len();
                let steps = &s.proof().expect("logged").steps()[..snapshot];
                deferred.feed(&steps[fed..]).expect("admitted");
                fed = snapshot;
                if result == SolveResult::Unsat {
                    check_unsat_certificate(steps, &assumptions)
                        .unwrap_or_else(|e| panic!("round {round}: eager rejected: {e}"));
                    deferred
                        .verify_unsat(&assumptions)
                        .unwrap_or_else(|e| panic!("round {round}: deferred rejected: {e}"));
                }
            }
        }
    }

    #[test]
    fn random_cnfs_certify_both_ways() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xCE47);
        for round in 0..200 {
            let num_vars = rng.gen_range(2..=10usize);
            let num_clauses = rng.gen_range(1..=30usize);
            let mut s = Solver::new();
            s.enable_proof_logging();
            let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
            for _ in 0..num_clauses {
                let len = rng.gen_range(1..=3usize);
                let lits: Vec<Lit> = (0..len)
                    .map(|_| vars[rng.gen_range(0..num_vars)].lit(rng.gen_bool(0.5)))
                    .collect();
                s.add_clause(&lits);
            }
            let assumptions: Vec<Lit> = (0..rng.gen_range(0..=2usize))
                .map(|_| vars[rng.gen_range(0..num_vars)].lit(rng.gen_bool(0.5)))
                .collect();
            let result = s.solve_with(&assumptions);
            let snapshot = s.proof_len();
            let steps = &s.proof().expect("logged").steps()[..snapshot];
            match result {
                SolveResult::Unsat => {
                    check_unsat_certificate(steps, &assumptions)
                        .unwrap_or_else(|e| panic!("round {round}: proof rejected: {e}"));
                }
                SolveResult::Sat => {
                    check_model(steps, &assumptions, s.model())
                        .unwrap_or_else(|e| panic!("round {round}: model rejected: {e}"));
                }
            }
        }
    }
}

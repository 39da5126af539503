//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! The core follows the MiniSat architecture — two-watched-literal
//! propagation, first-UIP conflict analysis with clause learning, VSIDS
//! variable activities with an indexed max-heap, phase saving, and
//! Luby-sequence restarts — extended with the techniques of contemporary
//! solvers: special-cased binary-clause watches, a glue-aware three-tier
//! learnt-clause database (see `reduce.rs`), chronological backtracking
//! (see [`Solver::backtrack`]), target-phase rephasing, and inprocessing
//! between restarts (see `inprocess.rs`). Incremental solving under
//! assumptions is supported, which is what the UPEC-DIT engine uses for
//! its repeated property checks: every check searches in place on the
//! one persistent solver, so the learnt clauses and heuristics of each
//! search carry over to the next.

use crate::heap::VarHeap;
use crate::proof::{Proof, ProofStep};
use crate::stats::SolverStats;
use crate::types::{LBool, Lit, SolveResult, Var};

pub(crate) const VAR_DECAY: f64 = 0.95;
pub(crate) const CLAUSE_DECAY: f64 = 0.999;
pub(crate) const RESCALE_LIMIT: f64 = 1e100;
pub(crate) const LUBY_UNIT: u64 = 128;
/// Backjumps longer than this become single-level chronological
/// backtracks, so the long propagation prefix below stays intact.
pub(crate) const CHRONO_THRESHOLD: u32 = 100;
/// Conflicts between phase resets.
pub(crate) const REPHASE_INTERVAL: u64 = 4096;
/// Conflicts before the first inprocessing pass; doubles after each pass.
pub(crate) const INPROCESS_INTERVAL: u64 = 4096;

/// Learnt-clause storage tier. Glue (low-LBD) clauses are kept forever,
/// mid-tier clauses survive while they keep participating in conflicts,
/// and local clauses face activity-ranked reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    /// LBD ≤ 2: kept unconditionally.
    Core,
    /// LBD ≤ 6: kept while recently used, demoted to Local when stale.
    Mid,
    /// Everything else: the reduction pool.
    Local,
}

pub(crate) fn tier_for_lbd(lbd: u32) -> Tier {
    match lbd {
        0..=2 => Tier::Core,
        3..=6 => Tier::Mid,
        _ => Tier::Local,
    }
}

#[derive(Clone, Debug)]
pub(crate) struct Clause {
    pub(crate) lits: Vec<Lit>,
    pub(crate) learnt: bool,
    pub(crate) activity: f64,
    /// Literal-block distance at learning time (glue level), updated
    /// downward when the clause participates in later conflicts.
    pub(crate) lbd: u32,
    pub(crate) tier: Tier,
    /// Reduction-protection counter: bumped when the clause appears in a
    /// conflict, decremented by `reduce_db` instead of deleting.
    pub(crate) used: u8,
    pub(crate) deleted: bool,
}

/// A watch-list entry. The clause reference and the is-binary bit share
/// one word so binary clauses propagate without touching clause memory:
/// for them `blocker` *is* the other literal.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watch {
    tag: u32,
    pub(crate) blocker: Lit,
}

impl Watch {
    pub(crate) fn new(cref: u32, blocker: Lit, binary: bool) -> Watch {
        debug_assert!(cref < u32::MAX / 2, "clause arena overflow");
        Watch {
            tag: (cref << 1) | u32::from(binary),
            blocker,
        }
    }

    pub(crate) fn cref(self) -> u32 {
        self.tag >> 1
    }

    pub(crate) fn with_blocker(self, blocker: Lit) -> Watch {
        Watch { blocker, ..self }
    }

    pub(crate) fn is_binary(self) -> bool {
        self.tag & 1 != 0
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use fastpath_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// // (a | b) & (!a | b) & (a | !b)  =>  a=1, b=1
/// solver.add_clause(&[a.positive(), b.positive()]);
/// solver.add_clause(&[a.negative(), b.positive()]);
/// solver.add_clause(&[a.positive(), b.negative()]);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// assert_eq!(solver.value(a), Some(true));
/// assert_eq!(solver.value(b), Some(true));
/// ```
#[derive(Debug)]
pub struct Solver {
    pub(crate) clauses: Vec<Clause>,
    pub(crate) watches: Vec<Vec<Watch>>,
    pub(crate) assigns: Vec<LBool>,
    pub(crate) levels: Vec<u32>,
    pub(crate) reasons: Vec<Option<u32>>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    pub(crate) activity: Vec<f64>,
    pub(crate) var_inc: f64,
    pub(crate) clause_inc: f64,
    pub(crate) heap: VarHeap,
    pub(crate) phase: Vec<bool>,
    /// Phase snapshot of the deepest trail reached since the last restart
    /// window — the "target phases" used by rephasing.
    pub(crate) target_phase: Vec<bool>,
    pub(crate) best_trail: usize,
    pub(crate) seen: Vec<bool>,
    /// Scratch for conflict analysis: literals whose `seen` marks need
    /// clearing (reused across conflicts; no per-conflict allocation).
    pub(crate) analyze_toclear: Vec<Lit>,
    pub(crate) ok: bool,
    pub(crate) stats: SolverStats,
    pub(crate) model: Vec<bool>,
    pub(crate) max_learnts: f64,
    /// DRUP-style proof trace; `None` keeps logging at zero cost.
    pub(crate) proof: Option<Proof>,
    /// Decision-level stamp buffer for allocation-free LBD computation.
    pub(crate) lbd_stamp: Vec<u32>,
    pub(crate) lbd_gen: u32,
    pub(crate) inprocess_passes: u32,
    pub(crate) next_inprocess: u64,
    /// Base conflict gap between inprocessing passes (doubles per pass).
    pub(crate) inprocess_interval: u64,
    /// Round-robin cursor so vivification resumes where the last pass
    /// stopped instead of re-probing the same prefix.
    pub(crate) vivify_head: usize,
    pub(crate) next_rephase: u64,
    pub(crate) rephase_kind: u8,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            levels: Vec::new(),
            reasons: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            heap: VarHeap::default(),
            phase: Vec::new(),
            target_phase: Vec::new(),
            best_trail: 0,
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            model: Vec::new(),
            max_learnts: 1000.0,
            proof: None,
            lbd_stamp: vec![0],
            lbd_gen: 0,
            inprocess_passes: 0,
            next_inprocess: INPROCESS_INTERVAL,
            inprocess_interval: INPROCESS_INTERVAL,
            vivify_head: 0,
            next_rephase: REPHASE_INTERVAL,
            rephase_kind: 0,
        }
    }

    /// Turns on DRUP-style proof logging: every asserted clause, every
    /// learnt (or inprocessing-derived) clause, and every deletion is
    /// appended to an in-memory trace that an independent checker can
    /// replay (see the `fastpath-cert` crate). Logging must be enabled
    /// before the first clause is added so the trace covers the whole
    /// formula.
    ///
    /// # Panics
    ///
    /// Panics if any clause (or unit fact) has already been added.
    pub fn enable_proof_logging(&mut self) {
        assert!(
            self.clauses.is_empty() && self.trail.is_empty() && self.ok,
            "proof logging must be enabled before any clause is added"
        );
        self.proof = Some(Proof::new());
    }

    /// The proof trace, if logging is enabled.
    pub fn proof(&self) -> Option<&Proof> {
        self.proof.as_ref()
    }

    /// The current trace length (0 when logging is disabled). Taken right
    /// after a `solve` call, this delimits that call's certificate even
    /// while later activity keeps appending.
    pub fn proof_len(&self) -> usize {
        self.proof.as_ref().map_or(0, Proof::len)
    }

    /// The full model of the most recent [`SolveResult::Sat`] outcome
    /// (empty before the first successful solve), indexed by variable.
    pub fn model(&self) -> &[bool] {
        &self.model
    }

    #[inline]
    pub(crate) fn log(&mut self, step: impl FnOnce() -> ProofStep) {
        if let Some(proof) = &mut self.proof {
            self.stats.proof_bytes += proof.push(step()) as u64;
        }
    }

    /// Turns on the proof trace's buffered DRUP text renderer (see
    /// [`Proof::enable_text`]): each step is rendered once as it is
    /// logged, and any prefix certificate is served as a byte slice
    /// instead of an O(prefix) re-render per check. A no-op until proof
    /// logging is enabled; already-recorded steps are backfilled.
    /// Rendered bytes are counted in `SolverStats::proof_bytes`.
    pub fn enable_proof_text(&mut self) {
        if let Some(proof) = &mut self.proof {
            self.stats.proof_bytes += proof.enable_text() as u64;
        }
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// The number of (original, non-deleted) problem clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .count()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Sets the conflict interval between inprocessing passes (default
    /// 4096; the gap also doubles with each completed pass). Lowering it
    /// makes inprocessing fire on short queries — useful for tests and
    /// for workloads dominated by many small incremental checks.
    pub fn set_inprocess_interval(&mut self, conflicts: u64) {
        self.inprocess_interval = conflicts.max(1);
        self.next_inprocess = self.stats.conflicts + self.inprocess_interval;
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.levels.push(0);
        self.reasons.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.target_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.lbd_stamp.push(0);
        self.heap.grow(self.assigns.len());
        self.heap.push(v, &self.activity);
        v
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver is already in an unsatisfiable state
    /// (adding the empty clause, or a level-0 conflict).
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable that was never allocated.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        for &lit in lits {
            assert!(
                lit.var().index() < self.num_vars(),
                "literal {lit} references unallocated variable"
            );
        }
        // Record the clause verbatim (pre-simplification): the axiom
        // stream must cover the exact CNF the caller asserted, and the
        // checker's own propagation re-derives whatever the
        // simplification below exploits.
        self.log(|| ProofStep::Axiom(lits.to_vec()));
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0);
        // Simplify: sort, dedup, drop false lits, detect tautology/sat.
        let mut sorted = lits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        // After sorting, `v` and `!v` are adjacent.
        if sorted.windows(2).any(|w| w[0] == !w[1]) {
            return true; // tautology: x | !x
        }
        let mut simplified: Vec<Lit> = Vec::with_capacity(sorted.len());
        for &lit in &sorted {
            match self.lit_value(lit) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => simplified.push(lit),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(simplified[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(simplified, false);
                true
            }
        }
    }

    pub(crate) fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        let binary = lits.len() == 2;
        self.watches[(!lits[0]).index()].push(Watch::new(cref, lits[1], binary));
        self.watches[(!lits[1]).index()].push(Watch::new(cref, lits[0], binary));
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        let lbd = if learnt { self.compute_lbd(&lits) } else { 0 };
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            lbd,
            tier: if learnt {
                tier_for_lbd(lbd)
            } else {
                Tier::Core
            },
            used: 2,
            deleted: false,
        });
        cref
    }

    /// Removes the clause's two watch entries. Must be called before a
    /// clause is deleted or its watched literals change, so propagation
    /// never sees stale references (binary watches cannot re-check).
    pub(crate) fn detach_clause(&mut self, cref: u32) {
        let (w0, w1) = {
            let c = &self.clauses[cref as usize];
            (c.lits[0], c.lits[1])
        };
        for w in [w0, w1] {
            let list = &mut self.watches[(!w).index()];
            if let Some(pos) = list.iter().position(|watch| watch.cref() == cref) {
                list.swap_remove(pos);
            }
        }
    }

    /// Detaches and marks a clause deleted, logging the deletion.
    pub(crate) fn delete_clause(&mut self, cref: u32) {
        debug_assert!(!self.clauses[cref as usize].deleted);
        self.detach_clause(cref);
        let c = &mut self.clauses[cref as usize];
        c.deleted = true;
        if c.learnt {
            self.stats.learnt_clauses -= 1;
        }
        if self.proof.is_some() {
            let lits = self.clauses[cref as usize].lits.clone();
            self.log(|| ProofStep::Delete(lits));
        }
    }

    pub(crate) fn lit_value(&self, lit: Lit) -> LBool {
        self.assigns[lit.var().index()].of_lit(lit)
    }

    /// The model value of a variable after a [`SolveResult::Sat`] outcome.
    /// `None` before the first successful solve.
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).copied()
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    pub(crate) fn enqueue(&mut self, lit: Lit, reason: Option<u32>) {
        self.enqueue_at(lit, reason, self.decision_level());
    }

    /// Assigns a literal at an explicit level, which may lie below the
    /// current decision level (an "out-of-order" assignment, the heart of
    /// chronological backtracking: the asserting literal of a learnt
    /// clause is recorded at the level where its reason became unit).
    pub(crate) fn enqueue_at(&mut self, lit: Lit, reason: Option<u32>, level: u32) {
        debug_assert_eq!(self.lit_value(lit), LBool::Undef);
        debug_assert!(level <= self.decision_level());
        let v = lit.var();
        self.assigns[v.index()] = LBool::from_bool(lit.is_positive());
        self.levels[v.index()] = level;
        // Root facts need no antecedent (analysis skips level 0), and a
        // `None` reason lets inprocessing delete or strengthen any clause
        // at the root without dangling reason references.
        self.reasons[v.index()] = if level == 0 { None } else { reason };
        self.trail.push(lit);
    }

    /// Backtracks to `level`. Chronology-aware: trail entries assigned at
    /// or below the target level (out-of-order assignments from
    /// chronological backtracking) keep their assignments and are
    /// re-appended in order; everything else is unassigned.
    pub(crate) fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        let mut kept = 0usize;
        for i in bound..self.trail.len() {
            let lit = self.trail[i];
            let v = lit.var();
            if self.levels[v.index()] <= level {
                self.trail[bound + kept] = lit;
                kept += 1;
            } else {
                self.phase[v.index()] = lit.is_positive();
                self.assigns[v.index()] = LBool::Undef;
                self.reasons[v.index()] = None;
                self.heap.push(v, &self.activity);
            }
        }
        self.trail.truncate(bound + kept);
        self.trail_lim.truncate(level as usize);
        // Everything below `bound` was propagated to fixpoint before the
        // level above it was opened. Survivors compacted into
        // `bound..bound+kept` (out-of-order assignments kept by
        // chronological backtracking) may still carry unpropagated
        // implications — in particular when a conflict cut propagation
        // short — so propagation must resume no later than `bound`.
        // Re-propagating an already-propagated literal is idempotent.
        self.qhead = self.qhead.min(bound);
    }

    pub(crate) fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals: the formula plus each
    /// assumption as a unit constraint for this call only.
    ///
    /// The search runs in place. Whatever it answers, its learnt clauses,
    /// variable activities and saved phases stay with the solver for the
    /// next call, and its proof steps stay in the trace.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_with_budget(assumptions, u64::MAX)
            .expect("an unbudgeted search always answers")
    }

    /// RUP-probes an externally supplied clause (e.g. from a cross-design
    /// learnt-clause store) against *this* solver's database and imports
    /// it on success: the clause is attached and `Learn`-logged only if
    /// assuming its negation propagates to a conflict locally, so the
    /// proof trace stays self-contained and a mistranslated clause is
    /// merely rejected, never unsound. Must be called between solves
    /// (decision level 0). Returns `true` if the clause was imported.
    pub fn import_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0);
        // Flush any pending root propagation so the probe starts from a
        // fixpoint; a conflict here refutes the formula itself.
        if self.propagate().is_some() {
            self.ok = false;
            self.log(|| ProofStep::Learn(Vec::new()));
            return false;
        }
        self.stats.reuse_probed += 1;
        let imported = self.import_one(lits);
        if imported {
            self.stats.reuse_imported += 1;
        }
        imported
    }

    /// The probe-then-attach step behind [`Solver::import_clause`].
    /// Returns `true` when the clause was accepted.
    fn import_one(&mut self, lits: &[Lit]) -> bool {
        // Root-satisfied imports carry no information; root-false
        // literals are stripped by the probe itself.
        let mut filtered: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.lit_value(l) {
                LBool::True => return false,
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        // RUP probe: assume the negation, propagate, demand a conflict.
        // A conflict partway through (or a probe-derived true literal,
        // which the checker's all-at-once assumption turns into a
        // conflict) already proves the clause.
        self.trail_lim.push(self.trail.len());
        let mut conflict = false;
        for &l in &filtered {
            match self.lit_value(l) {
                LBool::True => {
                    conflict = true;
                    break;
                }
                LBool::False => continue,
                LBool::Undef => {
                    self.enqueue(!l, None);
                    if self.propagate().is_some() {
                        conflict = true;
                        break;
                    }
                }
            }
        }
        self.backtrack(0);
        if !conflict {
            return false;
        }
        if self.proof.is_some() {
            let copy = filtered.clone();
            self.log(|| ProofStep::Learn(copy));
        }
        match filtered.len() {
            0 => self.ok = false,
            1 => match self.lit_value(filtered[0]) {
                LBool::False => self.ok = false,
                LBool::True => {}
                LBool::Undef => {
                    self.enqueue(filtered[0], None);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                }
            },
            _ => {
                let cref = self.attach_clause(filtered, true);
                // The local LBD is 0 at the root; give the clause the
                // glue bound of the core tier instead, so reduction
                // treats it like a low-LBD clause of this solver.
                self.clauses[cref as usize].lbd = 2;
            }
        }
        true
    }

    /// Visits every live learnt clause of length at most `max_len`, in
    /// database order. The feed for a cross-design clause store: short
    /// learnt clauses are the ones likely to transfer, and database order
    /// is deterministic, so the export is a pure function of the solver's
    /// state.
    pub fn for_each_learnt(&self, max_len: usize, mut f: impl FnMut(&[Lit])) {
        for c in &self.clauses {
            if c.learnt && !c.deleted && c.lits.len() <= max_len {
                f(&c.lits);
            }
        }
    }

    /// Solves under the given assumptions with a per-call conflict
    /// budget, on the same in-place search as [`Solver::solve_with`].
    /// Returns `None` when the budget is exhausted before an answer;
    /// learnt clauses from the aborted attempt are implied by the
    /// formula and stay in the database (and in the proof trace), so the
    /// caller may simply re-solve or fall back to a different query.
    pub fn solve_with_budget(
        &mut self,
        assumptions: &[Lit],
        conflict_budget: u64,
    ) -> Option<SolveResult> {
        if !self.ok {
            return Some(SolveResult::Unsat);
        }
        self.best_trail = self.trail.len();
        let conflict_limit = self.stats.conflicts.saturating_add(conflict_budget);
        let result = self.search(assumptions, conflict_limit);
        self.backtrack(0);
        result
    }

    /// The CDCL loop. Returns `None` once `stats.conflicts` reaches
    /// `conflict_limit` without an answer.
    fn search(&mut self, assumptions: &[Lit], conflict_limit: u64) -> Option<SolveResult> {
        let mut conflicts_until_restart = luby(self.stats.restarts) * LUBY_UNIT;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                // Chronological backtracking can leave the conflict's
                // literals strictly below the current decision level;
                // drop to the conflict's own level before analysis so
                // the 1-UIP walk sees a standard picture.
                let conflict_level = self.clauses[conflict as usize]
                    .lits
                    .iter()
                    .map(|l| self.levels[l.var().index()])
                    .max()
                    .unwrap_or(0);
                if conflict_level == 0 {
                    self.ok = false;
                    self.log(|| ProofStep::Learn(Vec::new()));
                    return Some(SolveResult::Unsat);
                }
                if conflict_level < self.decision_level() {
                    self.backtrack(conflict_level);
                }
                let (mut learnt, backjump) = self.analyze(conflict);
                if self.proof.is_some() {
                    let lits = learnt.clone();
                    self.log(|| ProofStep::Learn(lits));
                }
                if learnt.len() == 1 {
                    // Unit learnt clause: assert at the root.
                    self.backtrack(0);
                    match self.lit_value(learnt[0]) {
                        LBool::False => {
                            self.ok = false;
                            self.log(|| ProofStep::Learn(Vec::new()));
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => self.enqueue(learnt[0], None),
                        LBool::True => {}
                    }
                } else {
                    // Deep backjumps throw away a long, expensively built
                    // propagation prefix only to rebuild most of it.
                    // Past the threshold, backtrack a single level
                    // instead and record the asserting literal at its
                    // real (backjump) level.
                    let current = self.decision_level();
                    let jump = if current - backjump > CHRONO_THRESHOLD {
                        self.stats.chrono_backtracks += 1;
                        current - 1
                    } else {
                        backjump
                    };
                    // Backjump may land below the assumption levels; the
                    // main loop re-asserts assumptions as
                    // pseudo-decisions, so this is safe and keeps the
                    // learning machinery uniform.
                    self.backtrack(jump);
                    // Watch the asserting literal and a literal from the
                    // backjump level so the watch invariant survives
                    // backtracking.
                    let max_pos = (1..learnt.len())
                        .max_by_key(|&i| self.levels[learnt[i].var().index()])
                        .expect("clause has at least two literals");
                    learnt.swap(1, max_pos);
                    let asserting = learnt[0];
                    let cref = self.attach_clause(learnt, true);
                    debug_assert_eq!(self.lit_value(asserting), LBool::Undef);
                    self.enqueue_at(asserting, Some(cref), backjump);
                }
                self.var_inc /= VAR_DECAY;
                self.clause_inc /= CLAUSE_DECAY;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if self.stats.learnt_clauses as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
                if self.stats.conflicts >= conflict_limit {
                    return None;
                }
            } else {
                // No conflict: restart, assume, or decide.
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    if self.trail.len() > self.best_trail {
                        self.best_trail = self.trail.len();
                        for i in 0..self.trail.len() {
                            let lit = self.trail[i];
                            self.target_phase[lit.var().index()] = lit.is_positive();
                        }
                    }
                    self.backtrack(0);
                    // Flush survivor re-propagation before inprocessing
                    // touches the clause database; a root conflict here
                    // refutes the formula.
                    if self.propagate().is_some() {
                        self.ok = false;
                        self.log(|| ProofStep::Learn(Vec::new()));
                        return Some(SolveResult::Unsat);
                    }
                    conflicts_until_restart = luby(self.stats.restarts) * LUBY_UNIT;
                    self.maybe_rephase();
                    if self.stats.conflicts >= self.next_inprocess {
                        self.inprocess();
                        self.next_inprocess = self.stats.conflicts
                            + (self.inprocess_interval << self.inprocessings_done());
                        if !self.ok {
                            self.log(|| ProofStep::Learn(Vec::new()));
                            return Some(SolveResult::Unsat);
                        }
                    }
                    continue;
                }
                // Re-assert pending assumptions as pseudo-decisions (one
                // decision level per assumption, in order).
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already implied; open an empty level to keep
                            // the level↔assumption indexing aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => return Some(SolveResult::Unsat),
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, None);
                        }
                    }
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        self.extract_model();
                        return Some(SolveResult::Sat);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        let lit = v.lit(self.phase[v.index()]);
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }

    /// Number of inprocessing passes run so far, bounded for use as a
    /// shift amount in the doubling schedule.
    fn inprocessings_done(&self) -> u32 {
        self.inprocess_passes.min(16)
    }

    /// Periodic phase reset: cycle between the target phases (deepest
    /// trail seen) and the saved phases. Cheap — runs only at restart
    /// boundaries, a handful of times per solve.
    fn maybe_rephase(&mut self) {
        if self.stats.conflicts < self.next_rephase {
            return;
        }
        self.next_rephase = self.stats.conflicts + REPHASE_INTERVAL;
        self.stats.rephases += 1;
        match self.rephase_kind {
            0 | 2 => self.phase.copy_from_slice(&self.target_phase),
            1 => {} // keep saved phases
            _ => {
                for p in &mut self.phase {
                    *p = false; // original phases
                }
            }
        }
        self.rephase_kind = (self.rephase_kind + 1) % 4;
    }

    fn extract_model(&mut self) {
        self.model = self.assigns.iter().map(|&a| a == LBool::True).collect();
        #[cfg(debug_assertions)]
        self.debug_check_model();
    }

    /// Debug-build tripwire: a [`SolveResult::Sat`] model must satisfy
    /// every live clause in the database. Runs at the moment the model is
    /// extracted, so an unsound answer is caught even when certification
    /// is off.
    #[cfg(debug_assertions)]
    fn debug_check_model(&self) {
        for (i, clause) in self.clauses.iter().enumerate() {
            if clause.deleted {
                continue;
            }
            let satisfied = clause
                .lits
                .iter()
                .any(|&l| self.model[l.var().index()] == l.is_positive());
            assert!(
                satisfied,
                "SAT model falsifies clause #{i} {:?} (assigns {:?} at levels {:?})",
                clause.lits,
                clause
                    .lits
                    .iter()
                    .map(|l| self.assigns[l.var().index()])
                    .collect::<Vec<_>>(),
                clause
                    .lits
                    .iter()
                    .map(|l| self.levels[l.var().index()])
                    .collect::<Vec<_>>(),
            );
        }
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, … (0-indexed).
pub(crate) fn luby(x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = x;
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn trivially_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        s.add_clause(&[a.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.positive(), a.negative()]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn implication_chain_propagates() {
        // a & (a->b) & (b->c) & (c->d)  =>  all true
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[vars[0].positive()]);
        for w in vars.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][h] = pigeon i in hole h.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        // Every pigeon somewhere.
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        // No two pigeons share a hole.
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (a, b) in row_i.iter().zip(row_j) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve_with(&[a.negative()]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        assert_eq!(
            s.solve_with(&[a.negative(), b.negative()]),
            SolveResult::Unsat
        );
        // The solver is still usable and SAT without those assumptions.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn budget_zero_still_solves_conflict_free_formulas() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        // No conflicts needed, so a zero budget never trips.
        assert_eq!(s.solve_with_budget(&[], 0), Some(SolveResult::Sat));
    }

    #[test]
    fn budget_exhaustion_returns_none_and_solver_stays_usable() {
        // 5 pigeons, 4 holes: small enough to stay fast, hard enough
        // that one conflict cannot refute it.
        let mut s = Solver::new();
        let mut p = [[Var(0); 4]; 5];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
        for row in &p {
            let lits: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&lits);
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (a, b) in row_i.iter().zip(row_j) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve_with_budget(&[], 1), None);
        // The limit is per-call: a follow-up unbudgeted solve finishes,
        // and the aborted attempt's learnt clauses were implied.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn conflicting_assumptions_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert_eq!(
            s.solve_with(&[a.positive(), a.negative()]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[a.negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        s.add_clause(&[b.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn proof_logging_off_by_default() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.positive()]);
        assert!(s.proof().is_none());
        assert_eq!(s.proof_len(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.proof().is_none());
    }

    #[test]
    fn proof_records_axioms_verbatim() {
        let mut s = Solver::new();
        s.enable_proof_logging();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        s.add_clause(&[b.negative(), b.positive(), a.negative()]); // tautology
        let proof = s.proof().expect("enabled");
        assert_eq!(proof.len(), 2);
        // Axioms are logged before simplification — tautologies included.
        assert_eq!(
            proof.steps()[1],
            ProofStep::Axiom(vec![b.negative(), b.positive(), a.negative()])
        );
        assert_eq!(proof.axioms(2).count(), 2);
    }

    #[test]
    fn unsat_trace_ends_with_empty_learn() {
        // Pigeonhole 3-into-2 forces real conflict analysis; with logging
        // on, the trace must contain Learn steps and terminate in the
        // empty clause.
        let mut s = Solver::new();
        s.enable_proof_logging();
        let mut p = [[Var(0); 2]; 3];
        for row in &mut p {
            for slot in row.iter_mut() {
                *slot = s.new_var();
            }
        }
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
        let proof = s.proof().expect("enabled");
        let learns: Vec<&ProofStep> = proof
            .steps()
            .iter()
            .filter(|st| matches!(st, ProofStep::Learn(_)))
            .collect();
        assert!(!learns.is_empty(), "conflict analysis must log learns");
        assert_eq!(
            proof.steps().last(),
            Some(&ProofStep::Learn(Vec::new())),
            "UNSAT trace must end with the empty clause"
        );
    }

    #[test]
    fn proof_len_snapshots_are_stable_across_later_activity() {
        // The activation-literal protocol takes a trace snapshot right
        // after each solve; later retirement units and new obligations
        // must extend the trace, never disturb the prefix.
        let mut s = Solver::new();
        s.enable_proof_logging();
        let x = s.new_var();
        let g = s.new_var();
        s.add_clause(&[g.negative(), x.positive()]);
        s.add_clause(&[g.negative(), x.negative()]);
        assert_eq!(s.solve_with(&[g.positive()]), SolveResult::Unsat);
        let snapshot = s.proof_len();
        let prefix: Vec<ProofStep> = s.proof().expect("enabled").steps()[..snapshot].to_vec();
        s.add_clause(&[g.negative()]); // retire
        assert_eq!(s.solve(), SolveResult::Sat);
        let proof = s.proof().expect("enabled");
        assert!(proof.len() > snapshot);
        assert_eq!(&proof.steps()[..snapshot], prefix.as_slice());
    }

    #[test]
    fn import_clause_probes_and_attaches() {
        let mut s = Solver::new();
        s.enable_proof_logging();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause(&[a.negative(), b.positive()]);
        s.add_clause(&[b.negative(), c.positive()]);
        // a → c is implied (RUP): accepted, attached, Learn-logged.
        assert!(s.import_clause(&[a.negative(), c.positive()]));
        assert_eq!(s.stats().reuse_probed, 1);
        assert_eq!(s.stats().reuse_imported, 1);
        assert!(matches!(
            s.proof().expect("enabled").steps().last(),
            Some(ProofStep::Learn(_))
        ));
        // a → ¬c is not implied: probed, rejected, nothing logged.
        let len = s.proof_len();
        assert!(!s.import_clause(&[a.negative(), c.negative()]));
        assert_eq!(s.stats().reuse_probed, 2);
        assert_eq!(s.stats().reuse_imported, 1);
        assert_eq!(s.proof_len(), len);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// Brute-force evaluation of a CNF for cross-checking.
    fn brute_force_sat(num_vars: usize, cnf: &[Vec<(usize, bool)>]) -> bool {
        for bits in 0u64..(1 << num_vars) {
            let assignment = |v: usize| -> bool { (bits >> v) & 1 == 1 };
            if cnf
                .iter()
                .all(|clause| clause.iter().any(|&(v, pos)| assignment(v) == pos))
            {
                return true;
            }
        }
        false
    }

    #[test]
    fn random_cnfs_match_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xFA57);
        for _ in 0..300 {
            let num_vars = rng.gen_range(1..=8usize);
            let num_clauses = rng.gen_range(1..=20usize);
            let cnf: Vec<Vec<(usize, bool)>> = (0..num_clauses)
                .map(|_| {
                    let len = rng.gen_range(1..=3usize);
                    (0..len)
                        .map(|_| (rng.gen_range(0..num_vars), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
            for clause in &cnf {
                let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
                s.add_clause(&lits);
            }
            let expected = brute_force_sat(num_vars, &cnf);
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, expected, "cnf: {cnf:?}");
            if got {
                // Verify the model actually satisfies the CNF.
                for clause in &cnf {
                    assert!(clause
                        .iter()
                        .any(|&(v, pos)| { s.value(vars[v]) == Some(pos) }));
                }
            }
        }
    }
}

//! Deterministic cube-and-conquer on top of the CDCL core.
//!
//! [`Solver::solve_with`] with a cube width (`set_cube`) runs a hard
//! check in three stages:
//!
//! 1. **Canonical attempt.** A speculative clone of the persistent solver
//!    (the width-1 portfolio discipline) searches under a fixed conflict
//!    budget ([`CUBE_TRIGGER_CONFLICTS`]). Checks that finish inside the
//!    budget — the overwhelming majority — take exactly the monolithic
//!    trajectory: SAT adopts the clone wholesale, UNSAT splices its
//!    learns. The budget is a conflict *count*, so the split decision is
//!    machine-independent.
//! 2. **Lookahead cubing.** On budget exhaustion, a discardable clone of
//!    the attempt scores branch candidates by ternary lookahead (top
//!    VSIDS variables, both polarities propagated, product of the
//!    propagation yields; failed literals score zero) and splits the
//!    check into a cube tree of depth ≤ [`CUBE_DEPTH`]. Generation is
//!    purely sequential and side-effect free, so the tree is a function
//!    of the attempt's deterministic end state.
//! 3. **Conquest.** Each leaf cube is solved on a fresh clone of the
//!    attempt (inheriting its learnt clauses) under `assumptions ∪ cube`,
//!    scheduled over `cube_jobs` threads from an atomic work queue — the
//!    same FIFO work-claiming discipline `fastpath::parallel` uses at the
//!    flow layer (the sat crate sits below it and cannot depend on it).
//!
//! # Determinism rules
//!
//! The persistent solver's evolution must be a pure function of its
//! starting state, independent of `cube_jobs` and thread timing:
//!
//! * **SAT** answers come from the *minimum-index* satisfiable cube `m`.
//!   Early-stop flags are only ever raised for cubes with index greater
//!   than the current minimum SAT index, which only decreases — so no
//!   cube at or below the final `m` is ever interrupted, and `m` is the
//!   same for every width. The winner's entire clone state is adopted
//!   wholesale (its trace extends the attempt's, which extends the
//!   persistent trace). Stats absorb only the attempt, the winner, and
//!   the refuted cubes *below* `m` — cubes above `m` may or may not have
//!   completed depending on timing, so their work is discarded.
//! * **UNSAT** (every cube refuted — nothing was ever stopped) adopts
//!   no state. The attempt's learns are spliced first, then each cube's
//!   learns in leaf order, interleaved with the **spine clauses** that
//!   stitch the per-cube refutations into one DRUP artifact: for a tree
//!   node with assumption set `A` and cube prefix `C`, the spine clause
//!   `¬A ∨ ¬C` is RUP — at a leaf because the cube solver's final
//!   database (a subset of the checker's: splicing strips deletions, and
//!   RUP is monotone in the clause set) propagates `A ∪ C` to a
//!   conflict, and at an internal node because its two children's spines
//!   differ only in the split literal and resolve in two propagation
//!   steps. The root spine is the negated-assumption clause itself, so
//!   the stitched trace refutes the assumptions exactly like a
//!   monolithic UNSAT trace and `--certify` still checks one artifact.

use crate::proof::ProofStep;
use crate::solver::Solver;
use crate::stats::SolverStats;
use crate::types::{LBool, Lit, SolveResult, Var};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Conflicts granted to the canonical monolithic attempt before a check
/// is declared hard and split into cubes (`Solver::set_cube_trigger`
/// overrides per solver).
pub const CUBE_TRIGGER_CONFLICTS: u64 = 20_000;
/// Maximum cube-tree depth (at most `2^CUBE_DEPTH` leaf cubes).
const CUBE_DEPTH: usize = 3;
/// Branch candidates scored by lookahead at each tree node.
const CUBE_CANDIDATES: usize = 24;

/// A binary cube tree. Leaves carry the index of their cube in leaf
/// (DFS) order; every node knows its cube prefix for spine emission.
enum CubeTree {
    Leaf {
        index: usize,
    },
    Split {
        prefix: Vec<Lit>,
        first: Box<CubeTree>,
        second: Box<CubeTree>,
    },
}

/// What the conquest of one cube produced. UNSAT keeps only the splice
/// material so at most one full solver clone (a SAT winner) is retained.
enum CubeOutcome {
    Sat(Box<Solver>),
    Unsat {
        learns: Vec<Vec<Lit>>,
        stats: SolverStats,
        ok: bool,
    },
    Stopped,
}

impl Solver {
    /// The cube-and-conquer solve path (see the module docs).
    pub(crate) fn solve_cube(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        // Freeze/restore assumption variables on the persistent solver
        // before cloning, exactly like the portfolio: UNSAT outcomes
        // adopt nothing, but the frozen contract must survive them.
        for a in assumptions {
            let v = a.var();
            if self.eliminated[v.index()] {
                self.restore_var(v);
            }
            self.frozen[v.index()] = true;
        }
        if !self.ok {
            return SolveResult::Unsat;
        }
        let base_stats = self.stats;
        let base_proof_len = self.proof_len();

        // Stage 1: the canonical budgeted attempt.
        let mut attempt = self.clone();
        attempt.cube_jobs = 0;
        attempt.portfolio_workers = 0;
        match attempt.solve_with_budget(assumptions, self.cube_trigger) {
            Some(SolveResult::Sat) => {
                self.adopt_canonical(attempt);
                return SolveResult::Sat;
            }
            Some(SolveResult::Unsat) => {
                self.adopt_unsat(&attempt, &base_stats, base_proof_len);
                return SolveResult::Unsat;
            }
            None => {}
        }

        // Stage 2: build the cube tree on a discardable clone of the
        // attempt (proof logging off — generation never derives clauses).
        let mut cuber = attempt.clone();
        cuber.proof = None;
        let mut cubes: Vec<Vec<Lit>> = Vec::new();
        let tree = build_tree(&mut cuber, assumptions, Vec::new(), CUBE_DEPTH, &mut cubes);
        drop(cuber);
        let attempt_stats = attempt.stats;
        let attempt_proof_len = attempt.proof_len();

        // Stage 3: conquer the cubes over `cube_jobs` workers.
        let jobs = self.cube_jobs.max(1).min(cubes.len());
        let stops: Vec<Arc<AtomicBool>> = (0..cubes.len())
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let min_sat = AtomicUsize::new(usize::MAX);
        let run_cube = |index: usize| -> CubeOutcome {
            if index > min_sat.load(Ordering::Relaxed) {
                return CubeOutcome::Stopped;
            }
            let mut worker = attempt.clone();
            worker.cube_jobs = 0;
            worker.portfolio_workers = 0;
            worker.stop = Some(stops[index].clone());
            let mut asmps = assumptions.to_vec();
            asmps.extend_from_slice(&cubes[index]);
            match worker.solve_with_core(&asmps) {
                Some(SolveResult::Sat) => {
                    // Stop only cubes *above* the new minimum: the
                    // minimum only decreases, so nothing at or below the
                    // final winner is ever interrupted.
                    let prev = min_sat.fetch_min(index, Ordering::Relaxed);
                    let m = prev.min(index);
                    for stop in &stops[m + 1..] {
                        stop.store(true, Ordering::Relaxed);
                    }
                    CubeOutcome::Sat(Box::new(worker))
                }
                Some(SolveResult::Unsat) => {
                    let learns = worker
                        .proof()
                        .map(|p| {
                            p.steps()[attempt_proof_len..]
                                .iter()
                                .filter_map(|s| match s {
                                    ProofStep::Learn(lits) => Some(lits.clone()),
                                    _ => None,
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    CubeOutcome::Unsat {
                        learns,
                        stats: worker.stats,
                        ok: worker.ok,
                    }
                }
                None => CubeOutcome::Stopped,
            }
        };
        let mut outcomes: Vec<Option<CubeOutcome>> = if jobs <= 1 {
            (0..cubes.len()).map(|i| Some(run_cube(i))).collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<CubeOutcome>>> =
                (0..cubes.len()).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..jobs)
                    .map(|_| {
                        scope.spawn(|| loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= cubes.len() {
                                break;
                            }
                            let outcome = run_cube(i);
                            *slots[i].lock().expect("cube slot poisoned") = Some(outcome);
                        })
                    })
                    .collect();
                for handle in handles {
                    handle.join().expect("cube worker panicked");
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("cube slot poisoned"))
                .collect()
        };

        // Adjudication (see the module-level determinism rules).
        let winner_index = outcomes
            .iter()
            .position(|o| matches!(o, Some(CubeOutcome::Sat(_))));
        if let Some(m) = winner_index {
            let Some(CubeOutcome::Sat(winner)) = outcomes[m].take() else {
                unreachable!("winner slot checked above");
            };
            let refuted_below: SolverStats = outcomes[..m]
                .iter()
                .map(|o| match o {
                    Some(CubeOutcome::Unsat { stats, .. }) => stats.delta_since(&attempt_stats),
                    _ => unreachable!("cubes below the winner are never stopped"),
                })
                .fold(SolverStats::default(), |mut acc, d| {
                    acc += d;
                    acc
                });
            self.adopt_canonical(*winner);
            self.stats += refuted_below;
            self.stats.cubes_generated += cubes.len() as u64;
            self.stats.cubes_refuted += m as u64;
            return SolveResult::Sat;
        }

        // All cubes refuted: splice and stitch.
        self.adopt_unsat(&attempt, &base_stats, base_proof_len);
        let mut formula_unsat = false;
        let mut spliced = SolverStats::default();
        let mut unsat_cubes: Vec<Vec<Vec<Lit>>> = Vec::with_capacity(cubes.len());
        for outcome in outcomes {
            match outcome {
                Some(CubeOutcome::Unsat { learns, stats, ok }) => {
                    spliced += stats.delta_since(&attempt_stats);
                    formula_unsat |= !ok;
                    unsat_cubes.push(learns);
                }
                _ => unreachable!("no SAT cube, so no cube was ever stopped"),
            }
        }
        self.stats += spliced;
        self.stats.cubes_generated += cubes.len() as u64;
        self.stats.cubes_refuted += cubes.len() as u64;
        let mut bytes = 0usize;
        if self.proof.is_some() {
            let mut steps: Vec<ProofStep> = Vec::new();
            emit_stitched(&tree, assumptions, &unsat_cubes, &mut steps);
            if let Some(proof) = &mut self.proof {
                for step in steps {
                    bytes += proof.push(step);
                }
            }
        }
        self.stats.proof_bytes += bytes as u64;
        if formula_unsat || assumptions.is_empty() {
            // Either a cube derived the empty clause outright, or the
            // cubes cover the whole space with nothing assumed — the
            // formula itself is unsatisfiable.
            self.ok = false;
        }
        SolveResult::Unsat
    }
}

/// Emits each refuted cube's learns followed by its spine clause, then
/// the internal spines bottom-up (post-order), so every spine is RUP
/// where it lands (see the module docs).
fn emit_stitched(
    tree: &CubeTree,
    assumptions: &[Lit],
    unsat_cubes: &[Vec<Vec<Lit>>],
    out: &mut Vec<ProofStep>,
) {
    match tree {
        CubeTree::Leaf { index } => {
            for lits in &unsat_cubes[*index] {
                out.push(ProofStep::Learn(lits.clone()));
            }
        }
        CubeTree::Split {
            prefix,
            first,
            second,
        } => {
            emit_stitched(first, assumptions, unsat_cubes, out);
            emit_stitched(second, assumptions, unsat_cubes, out);
            let spine: Vec<Lit> = assumptions
                .iter()
                .chain(prefix.iter())
                .map(|&l| !l)
                .collect();
            out.push(ProofStep::Learn(spine));
        }
    }
}

/// Recursively builds the cube tree. At each node the generation solver
/// re-establishes the node's context (assumptions + prefix as
/// pseudo-decision levels) from the root, scores candidates, and splits
/// on the best one; contexts that conflict under unit propagation alone
/// become leaves (their conquest refutes them in near-zero conflicts,
/// yielding the spine material cheaply).
fn build_tree(
    gen: &mut Solver,
    assumptions: &[Lit],
    prefix: Vec<Lit>,
    depth: usize,
    cubes: &mut Vec<Vec<Lit>>,
) -> CubeTree {
    let leaf = |cubes: &mut Vec<Vec<Lit>>, prefix: Vec<Lit>| {
        cubes.push(prefix);
        CubeTree::Leaf {
            index: cubes.len() - 1,
        }
    };
    if depth == 0 {
        return leaf(cubes, prefix);
    }
    if !establish_context(gen, assumptions, &prefix) {
        return leaf(cubes, prefix);
    }
    let split = pick_split(gen);
    gen.backtrack(0);
    let Some(var) = split else {
        return leaf(cubes, prefix);
    };
    // Saved-phase polarity first, so a satisfiable check tends to put
    // its model in the lowest-index cube (the adjudication winner).
    let lit = var.lit(gen.phase[var.index()]);
    let mut first_prefix = prefix.clone();
    first_prefix.push(lit);
    let mut second_prefix = prefix.clone();
    second_prefix.push(!lit);
    let first = Box::new(build_tree(gen, assumptions, first_prefix, depth - 1, cubes));
    let second = Box::new(build_tree(
        gen,
        assumptions,
        second_prefix,
        depth - 1,
        cubes,
    ));
    CubeTree::Split {
        prefix,
        first,
        second,
    }
}

/// Propagates `assumptions ++ prefix` as pseudo-decision levels from the
/// root. Returns `false` (leaving the solver backtracked to the root) if
/// the context conflicts under unit propagation alone.
fn establish_context(gen: &mut Solver, assumptions: &[Lit], prefix: &[Lit]) -> bool {
    gen.backtrack(0);
    if gen.propagate().is_some() {
        gen.ok = false;
        return false;
    }
    for &lit in assumptions.iter().chain(prefix.iter()) {
        match gen.lit_value(lit) {
            LBool::False => {
                gen.backtrack(0);
                return false;
            }
            LBool::True => continue,
            LBool::Undef => {
                gen.trail_lim.push(gen.trail.len());
                gen.enqueue(lit, None);
                if gen.propagate().is_some() {
                    gen.backtrack(0);
                    return false;
                }
            }
        }
    }
    true
}

/// Ternary-lookahead scoring over the top-VSIDS unassigned variables in
/// the current context: both polarities are probed one level deeper and
/// a candidate scores the product of the two propagation yields. A
/// probe that conflicts is a failed literal — asserting it is the
/// conquest solver's job, so the candidate simply scores zero here.
/// Returns the best-scoring variable (ties to the lowest index), or
/// `None` when nothing scores above zero.
fn pick_split(gen: &mut Solver) -> Option<Var> {
    let mut candidates: Vec<Var> = (0..gen.num_vars())
        .map(Var::from_index)
        .filter(|v| gen.assigns[v.index()] == LBool::Undef && !gen.eliminated[v.index()])
        .collect();
    candidates.sort_by(|a, b| {
        gen.activity[b.index()]
            .partial_cmp(&gen.activity[a.index()])
            .expect("VSIDS activities are never NaN")
            .then(a.index().cmp(&b.index()))
    });
    candidates.truncate(CUBE_CANDIDATES);
    let context_level = gen.decision_level();
    let context_trail = gen.trail.len();
    let mut best: Option<(u64, Var)> = None;
    for v in candidates {
        if gen.assigns[v.index()] != LBool::Undef {
            continue; // assigned by an earlier probe? probes are undone — defensive
        }
        let mut yields = [0u64; 2];
        let mut failed = false;
        for (slot, lit) in [v.positive(), v.negative()].into_iter().enumerate() {
            gen.trail_lim.push(gen.trail.len());
            gen.enqueue(lit, None);
            let conflict = gen.propagate().is_some();
            yields[slot] = (gen.trail.len() - context_trail) as u64;
            gen.backtrack(context_level);
            if conflict {
                failed = true;
                break;
            }
        }
        if failed {
            continue;
        }
        let score = yields[0] * yields[1];
        if score > 0 && best.is_none_or(|(s, _)| score > s) {
            best = Some((score, v));
        }
    }
    best.map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use crate::proof::ProofStep;
    use crate::solver::Solver;
    use crate::types::{Lit, SolveResult, Var};

    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) -> Vec<Vec<Var>> {
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
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
        p
    }

    fn random_cnf(rng: &mut impl rand::Rng, num_vars: usize) -> Vec<Vec<(usize, bool)>> {
        let num_clauses = rng.gen_range(1..=25usize);
        (0..num_clauses)
            .map(|_| {
                let len = rng.gen_range(1..=3usize);
                (0..len)
                    .map(|_| (rng.gen_range(0..num_vars), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect()
    }

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
    fn cube_agrees_with_brute_force_even_with_tiny_trigger() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0BE);
        for round in 0..120 {
            let num_vars = rng.gen_range(2..=7usize);
            let cnf = random_cnf(&mut rng, num_vars);
            let mut s = Solver::new();
            s.set_cube(2);
            s.set_cube_trigger(1); // force the split machinery on
            let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
            for clause in &cnf {
                let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
                s.add_clause(&lits);
            }
            let expected = brute_force_sat(num_vars, &cnf);
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, expected, "round {round}: cnf {cnf:?}");
            if got {
                for clause in &cnf {
                    assert!(
                        clause.iter().any(|&(v, pos)| s.value(vars[v]) == Some(pos)),
                        "round {round}: model falsifies {clause:?}"
                    );
                }
                // The split must leave the solver usable and incremental.
                let pin = vars[0].lit(s.value(vars[0]).unwrap());
                assert_eq!(s.solve_with(&[pin]), SolveResult::Sat);
            }
        }
    }

    #[test]
    fn cube_results_are_identical_across_widths() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for _ in 0..40 {
            let num_vars = rng.gen_range(3..=7usize);
            let cnf = random_cnf(&mut rng, num_vars);
            let build = |jobs: usize| {
                let mut s = Solver::new();
                s.set_cube(jobs);
                s.set_cube_trigger(1);
                let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
                for clause in &cnf {
                    let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
                    s.add_clause(&lits);
                }
                let res = s.solve();
                (res, s.model().to_vec(), s.stats())
            };
            let (res1, model1, stats1) = build(1);
            for jobs in [2usize, 4] {
                let (res, model, stats) = build(jobs);
                assert_eq!(res, res1, "verdict must not depend on cube width");
                assert_eq!(model, model1, "model must not depend on cube width");
                assert_eq!(stats, stats1, "stats must not depend on cube width");
            }
        }
    }

    #[test]
    fn stitched_unsat_trace_certifies_under_assumptions() {
        // Pigeonhole under a guard assumption, forced through the cube
        // path: the stitched trace must still refute the assumptions by
        // unit propagation (the root spine is the negated-assumption
        // clause), which is exactly what the downstream checker probes.
        let mut s = Solver::new();
        s.enable_proof_logging();
        s.set_cube(2);
        s.set_cube_trigger(1);
        let g = s.new_var();
        let p: Vec<Vec<Var>> = (0..4)
            .map(|_| (0..3).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            let mut lits: Vec<Lit> = vec![g.negative()];
            lits.extend(row.iter().map(|v| v.positive()));
            s.add_clause(&lits);
        }
        for (i, row_i) in p.iter().enumerate() {
            for row_j in &p[i + 1..] {
                for (a, b) in row_i.iter().zip(row_j) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve_with(&[g.positive()]), SolveResult::Unsat);
        assert!(s.stats().cubes_generated > 0, "check must actually cube");
        assert_eq!(s.stats().cubes_refuted, s.stats().cubes_generated);
        let steps = s.proof().expect("enabled").steps();
        // The root spine is the negated assumption: propagating g must
        // hit it, which is what certification's final probe relies on.
        assert!(
            steps
                .iter()
                .any(|st| *st == ProofStep::Learn(vec![g.negative()])),
            "stitched trace must end in the root spine clause"
        );
        // The solver stays usable: retiring the guard flips to SAT.
        s.add_clause(&[g.negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unassumed_unsat_through_cubes_poisons_the_solver() {
        let mut s = Solver::new();
        s.enable_proof_logging();
        s.set_cube(3);
        s.set_cube_trigger(1);
        pigeonhole(&mut s, 4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // With nothing assumed, all-cubes-UNSAT refutes the formula
        // itself; the trace must end in the empty clause (the root
        // spine) and the solver must stay UNSAT forever.
        assert_eq!(
            s.proof().expect("enabled").steps().last(),
            Some(&ProofStep::Learn(Vec::new()))
        );
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn within_budget_checks_match_the_monolithic_trajectory() {
        // With the default (large) trigger, easy checks never split and
        // the cube path is byte-identical to the width-1 portfolio.
        let build = |cube: usize| {
            let mut s = Solver::new();
            s.set_cube(cube);
            pigeonhole(&mut s, 4, 3);
            let res = s.solve();
            (res, s.stats().conflicts, s.stats().cubes_generated)
        };
        let (res0, conflicts0, _) = build(0);
        let (res1, conflicts1, cubes1) = build(1);
        assert_eq!(res0, res1);
        assert_eq!(conflicts0, conflicts1);
        assert_eq!(cubes1, 0, "an easy check must not cube");
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
}

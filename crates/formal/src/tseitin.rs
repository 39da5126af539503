//! Tseitin encoding of AIG cones into a CDCL solver.
//!
//! [`CnfEncoder`] maps AIG literals to SAT literals lazily: only the cone
//! of influence of the literals the caller asks about is encoded, and each
//! node is encoded once even across multiple queries (the UPEC engine
//! relies on this for its incremental fixed-point loop). Every solve runs
//! in place on the one solver, so each check starts from the clauses the
//! earlier checks learnt.

use crate::aig::{Aig, AigLit};
use fastpath_sat::{Lit, Proof, SolveResult, Solver, Var};

/// An incremental AIG→CNF encoder wrapping a [`Solver`].
#[derive(Debug)]
pub struct CnfEncoder {
    solver: Solver,
    node_vars: Vec<Option<Var>>,
}

impl Default for CnfEncoder {
    fn default() -> Self {
        CnfEncoder::new()
    }
}

impl CnfEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        CnfEncoder {
            solver: Solver::new(),
            node_vars: Vec::new(),
        }
    }

    /// Access to the underlying solver (e.g. for statistics).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Number of solver variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of original (non-learnt, non-deleted) clauses in the
    /// solver. Learned clauses are excluded, so before/after snapshots
    /// measure exactly what an encoding step added.
    pub fn num_clauses(&self) -> usize {
        self.solver.num_clauses()
    }

    /// Turns on DRUP proof logging on the underlying solver. Must be
    /// called before anything is encoded (see
    /// [`fastpath_sat::Solver::enable_proof_logging`]).
    pub fn enable_proof_logging(&mut self) {
        self.solver.enable_proof_logging();
    }

    /// Turns on the proof trace's buffered DRUP text renderer (see
    /// [`fastpath_sat::Solver::enable_proof_text`]); a no-op until
    /// proof logging is enabled.
    pub fn enable_proof_text(&mut self) {
        self.solver.enable_proof_text();
    }

    /// The solver's proof trace, if logging is enabled.
    pub fn proof(&self) -> Option<&Proof> {
        self.solver.proof()
    }

    /// The current proof-trace length (0 when logging is disabled).
    pub fn proof_len(&self) -> usize {
        self.solver.proof_len()
    }

    /// The raw SAT model of the most recent satisfiable solve, indexed by
    /// solver variable.
    pub fn model(&self) -> &[bool] {
        self.solver.model()
    }

    /// RUP-probes an externally supplied clause against the underlying
    /// solver and imports it on success (see
    /// [`fastpath_sat::Solver::import_clause`]). Must be called between
    /// solves.
    pub fn import_clause(&mut self, lits: &[Lit]) -> bool {
        self.solver.import_clause(lits)
    }

    /// The SAT variable already encoding an AIG node, if its cone has
    /// been Tseitin-encoded; never encodes anything. The clause-store
    /// import/export paths use this to translate between cone-local
    /// numberings and solver variables without forcing elaboration.
    pub fn node_sat_var(&self, node: usize) -> Option<Var> {
        *self.node_vars.get(node)?
    }

    /// Visits every live learnt clause of length at most `max_len` on
    /// the underlying solver (see
    /// [`fastpath_sat::Solver::for_each_learnt`]).
    pub fn for_each_learnt(&self, max_len: usize, f: impl FnMut(&[Lit])) {
        self.solver.for_each_learnt(max_len, f);
    }

    /// Allocates a fresh, unconstrained SAT variable (for selectors,
    /// activation guards etc.).
    pub fn fresh_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Adds a clause over SAT literals directly.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.solver.add_clause(lits);
    }

    /// Returns the SAT literal equisatisfiably representing `lit`,
    /// Tseitin-encoding its cone on first use.
    pub fn lit(&mut self, aig: &Aig, lit: AigLit) -> Lit {
        let var = self.node_var(aig, lit.node());
        var.lit(!lit.is_complemented())
    }

    fn node_var(&mut self, aig: &Aig, node: usize) -> Var {
        if self.node_vars.len() < aig.node_count() {
            self.node_vars.resize(aig.node_count(), None);
        }
        if let Some(v) = self.node_vars[node] {
            return v;
        }
        // Iterative DFS to avoid recursion depth issues on deep AIGs.
        let mut stack = vec![(node, false)];
        while let Some((n, expanded)) = stack.pop() {
            if self.node_vars[n].is_some() {
                continue;
            }
            match aig.and_fanins(n) {
                None => {
                    // Input or constant node.
                    let v = self.solver.new_var();
                    if n == 0 {
                        // Node 0 is the constant FALSE.
                        self.solver.add_clause(&[v.negative()]);
                    }
                    self.node_vars[n] = Some(v);
                }
                Some((a, b)) => {
                    if !expanded {
                        stack.push((n, true));
                        if self.node_vars[a.node()].is_none() {
                            stack.push((a.node(), false));
                        }
                        if self.node_vars[b.node()].is_none() {
                            stack.push((b.node(), false));
                        }
                    } else {
                        let va = self.node_vars[a.node()].expect("fanin a encoded");
                        let vb = self.node_vars[b.node()].expect("fanin b encoded");
                        let la = va.lit(!a.is_complemented());
                        let lb = vb.lit(!b.is_complemented());
                        let v = self.solver.new_var();
                        // v <-> (la & lb)
                        self.solver.add_clause(&[v.negative(), la]);
                        self.solver.add_clause(&[v.negative(), lb]);
                        self.solver.add_clause(&[v.positive(), !la, !lb]);
                        self.node_vars[n] = Some(v);
                    }
                }
            }
        }
        self.node_vars[node].expect("node encoded")
    }

    /// Asserts that an AIG literal is true (a hard constraint).
    pub fn assert_true(&mut self, aig: &Aig, lit: AigLit) {
        let l = self.lit(aig, lit);
        self.solver.add_clause(&[l]);
    }

    /// Solves under SAT-literal assumptions, in place (see
    /// [`Solver::solve_with`]).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.solve_with(assumptions)
    }

    /// Solves under SAT-literal assumptions with a conflict budget;
    /// `None` when the budget ran out before an answer. See
    /// [`Solver::solve_with_budget`].
    pub fn solve_with_budget(
        &mut self,
        assumptions: &[Lit],
        conflict_budget: u64,
    ) -> Option<SolveResult> {
        self.solver.solve_with_budget(assumptions, conflict_budget)
    }

    /// The model value of an already-encoded AIG literal after a SAT
    /// result. `None` if the literal's cone was never encoded.
    pub fn model_value(&self, lit: AigLit) -> Option<bool> {
        let var = (*self.node_vars.get(lit.node())?)?;
        let v = self.solver.value(var)?;
        Some(v ^ lit.is_complemented())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_simple_cone() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.and(a, b);
        let mut enc = CnfEncoder::new();
        enc.assert_true(&aig, c);
        assert_eq!(enc.solve_with(&[]), SolveResult::Sat);
        assert_eq!(enc.model_value(a), Some(true));
        assert_eq!(enc.model_value(b), Some(true));
        assert_eq!(enc.model_value(c), Some(true));
    }

    #[test]
    fn constant_false_is_respected() {
        let mut aig = Aig::new();
        let a = aig.input();
        let never = aig.and(a, AigLit::FALSE);
        assert_eq!(never, AigLit::FALSE);
        let mut enc = CnfEncoder::new();
        enc.assert_true(&aig, never);
        assert_eq!(enc.solve_with(&[]), SolveResult::Unsat);
    }

    #[test]
    fn xor_unsat_when_forced_equal() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.xor(a, b);
        let same = aig.xnor(a, b);
        let mut enc = CnfEncoder::new();
        enc.assert_true(&aig, x);
        enc.assert_true(&aig, same);
        assert_eq!(enc.solve_with(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_toggle_behaviour() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let x = aig.xor(a, b);
        let mut enc = CnfEncoder::new();
        let la = enc.lit(&aig, a);
        let lb = enc.lit(&aig, b);
        let lx = enc.lit(&aig, x);
        assert_eq!(enc.solve_with(&[lx, la, lb]), SolveResult::Unsat);
        assert_eq!(enc.solve_with(&[lx, la, !lb]), SolveResult::Sat);
        assert_eq!(enc.solve_with(&[!lx, la, lb]), SolveResult::Sat);
    }

    #[test]
    fn a_repeated_check_starts_from_what_the_first_learnt() {
        // Five pigeons in four holes, each "the pigeon sits somewhere"
        // clause guarded by `act`: UNSAT under `[act]`, and only after
        // real conflict analysis. The solve runs in place, so the second
        // identical check starts from the first one's learnt clauses and
        // needs fewer conflicts.
        let mut enc = CnfEncoder::new();
        let act = enc.fresh_var();
        let pigeons: Vec<Vec<Var>> = (0..5)
            .map(|_| (0..4).map(|_| enc.fresh_var()).collect())
            .collect();
        for holes in &pigeons {
            let mut lits = vec![act.negative()];
            lits.extend(holes.iter().map(|v| v.positive()));
            enc.add_clause(&lits);
        }
        for (i, first) in pigeons.iter().enumerate() {
            for second in &pigeons[i + 1..] {
                for (a, b) in first.iter().zip(second) {
                    enc.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        let conflicts = |enc: &CnfEncoder| enc.solver().stats().conflicts;
        assert_eq!(enc.solve_with(&[act.positive()]), SolveResult::Unsat);
        let first = conflicts(&enc);
        assert!(first > 0, "the check must need conflict analysis");
        assert_eq!(enc.solve_with(&[act.positive()]), SolveResult::Unsat);
        let second = conflicts(&enc) - first;
        assert!(
            second < first,
            "the second check took {second} conflicts, the first {first}"
        );
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut aig = Aig::new();
        let mut acc = aig.input();
        let mut keep = Vec::new();
        for _ in 0..50_000 {
            let x = aig.input();
            keep.push(x);
            acc = aig.and(acc, x);
        }
        let mut enc = CnfEncoder::new();
        enc.assert_true(&aig, acc);
        assert_eq!(enc.solve_with(&[]), SolveResult::Sat);
    }
}

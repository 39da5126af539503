//! Inprocessing: formula simplification between restarts.
//!
//! Three techniques run at the root level, every one of them DRUP-sound:
//!
//! * **Root simplification** — clauses satisfied at the root are
//!   deleted; root-false literals are stripped (the stripped clause is
//!   RUP from the root units, so it is logged as `Learn` before the
//!   original is `Delete`d).
//! * **Subsumption / self-subsuming resolution** — occurrence-list
//!   driven. `C ⊆ D` deletes `D`; `C` almost-subsuming `D` with one
//!   flipped literal strengthens `D` (the resolvent `D \ {¬l}` is RUP
//!   while both parents are present, hence `Learn` before `Delete`).
//! * **Vivification** — assert the negation of a clause's literals one
//!   by one; a conflict, an implied literal, or a falsified literal each
//!   yield a shorter RUP replacement.
//!
//! None of them removes a variable, so every variable stays available
//! to later clauses and assumptions of an incremental caller.

use crate::proof::ProofStep;
use crate::solver::{tier_for_lbd, Solver, Tier};
use crate::types::{LBool, Lit};

/// Per-pass work bound for the subsumption sweep (literal visits).
const SUBSUME_BUDGET: u64 = 2_000_000;
/// Clauses probed by one vivification pass.
const VIVIFY_CLAUSES: usize = 128;
/// Per-pass propagation bound for vivification probes.
const VIVIFY_PROPS: u64 = 200_000;

impl Solver {
    /// One inprocessing pass. Called at a restart boundary (decision
    /// level 0). May set `ok = false` when a root conflict is derived;
    /// the search loop is responsible for logging the empty clause.
    pub(crate) fn inprocess(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.inprocess_passes += 1;
        self.root_simplify();
        if !self.ok {
            return;
        }
        self.subsume_pass();
        if !self.ok {
            return;
        }
        self.vivify_pass();
    }

    /// Replaces a clause with a strictly stronger (RUP) version, first
    /// reconciling `new` with the *current* root assignment: the caller
    /// may hold literals that root units derived earlier in the same
    /// inprocessing pass have since satisfied or falsified. A root-true
    /// literal means the clause is permanently satisfied (deleted); root
    /// -false literals are stripped (the result is still RUP — it adds
    /// the root units as resolution antecedents). Without this,
    /// `replace_lits` could install a watch on an already-propagated
    /// false literal, silently breaking the two-watched-literal
    /// invariant and with it soundness.
    fn replace_clause(&mut self, cref: u32, new: Vec<Lit>) {
        debug_assert_eq!(self.decision_level(), 0);
        if new.iter().any(|&l| self.lit_value(l) == LBool::True) {
            self.delete_clause(cref);
            return;
        }
        let new: Vec<Lit> = new
            .into_iter()
            .filter(|&l| self.lit_value(l) != LBool::False)
            .collect();
        if new.len() >= 2 {
            self.replace_lits(cref, new);
        } else {
            self.replace_with_unit(cref, new);
        }
    }

    /// Replaces a clause's literals in place with a strictly stronger
    /// (RUP) version: `Learn(new)` then `Delete(old)`, watches moved.
    /// `new` must have at least 2 root-unassigned literals (see
    /// `replace_clause`).
    fn replace_lits(&mut self, cref: u32, new: Vec<Lit>) {
        debug_assert!(new.len() >= 2);
        debug_assert!(new.iter().all(|&l| self.lit_value(l) == LBool::Undef));
        self.detach_clause(cref);
        if self.proof.is_some() {
            let new_copy = new.clone();
            self.log(|| ProofStep::Learn(new_copy));
            let old = self.clauses[cref as usize].lits.clone();
            self.log(|| ProofStep::Delete(old));
        }
        let binary = new.len() == 2;
        self.watches[(!new[0]).index()].push(crate::solver::Watch::new(cref, new[1], binary));
        self.watches[(!new[1]).index()].push(crate::solver::Watch::new(cref, new[0], binary));
        let c = &mut self.clauses[cref as usize];
        c.lits = new;
        if c.learnt {
            let shorter = c.lits.len() as u32;
            if shorter < c.lbd {
                c.lbd = shorter;
                c.tier = tier_for_lbd(shorter);
            }
        }
    }

    /// Replaces a clause with a unit (or empty) RUP consequence: logs the
    /// learn, deletes the clause, asserts the unit at the root.
    fn replace_with_unit(&mut self, cref: u32, new: Vec<Lit>) {
        debug_assert!(new.len() <= 1);
        if self.proof.is_some() && !new.is_empty() {
            let new_copy = new.clone();
            self.log(|| ProofStep::Learn(new_copy));
        }
        self.delete_clause(cref);
        match new.first() {
            None => self.ok = false,
            Some(&u) => match self.lit_value(u) {
                LBool::False => self.ok = false,
                LBool::True => {}
                LBool::Undef => {
                    self.enqueue(u, None);
                    if self.propagate().is_some() {
                        self.ok = false;
                    }
                }
            },
        }
    }

    /// Deletes clauses satisfied at the root and strips root-false
    /// literals from the rest.
    fn root_simplify(&mut self) {
        for cref in 0..self.clauses.len() as u32 {
            if self.clauses[cref as usize].deleted {
                continue;
            }
            let mut satisfied = false;
            let mut false_lits = 0usize;
            for &l in &self.clauses[cref as usize].lits {
                match self.lit_value(l) {
                    LBool::True if self.levels[l.var().index()] == 0 => {
                        satisfied = true;
                        break;
                    }
                    LBool::False if self.levels[l.var().index()] == 0 => false_lits += 1,
                    _ => {}
                }
            }
            if satisfied {
                self.delete_clause(cref);
                continue;
            }
            if false_lits == 0 {
                continue;
            }
            let new: Vec<Lit> = self.clauses[cref as usize]
                .lits
                .iter()
                .copied()
                .filter(|&l| {
                    !(self.lit_value(l) == LBool::False && self.levels[l.var().index()] == 0)
                })
                .collect();
            if new.len() >= 2 {
                self.replace_lits(cref, new);
            } else {
                self.replace_with_unit(cref, new);
                if !self.ok {
                    return;
                }
            }
        }
    }

    /// Subsumption and self-subsuming resolution over occurrence lists.
    fn subsume_pass(&mut self) {
        let occ = self.build_occ();
        // Membership stamps for the candidate clause being tested.
        let mut mark = vec![0u32; 2 * self.num_vars()];
        let mut generation = 0u32;
        let mut budget = SUBSUME_BUDGET;
        for cref in 0..self.clauses.len() as u32 {
            if budget == 0 {
                break;
            }
            if self.clauses[cref as usize].deleted {
                continue;
            }
            // Pick the literal with the fewest occurrences to scan.
            let best = self.clauses[cref as usize]
                .lits
                .iter()
                .copied()
                .min_by_key(|l| occ[l.index()].len());
            let Some(best) = best else { continue };
            // Candidates containing `best` (subsumption, and strengthening
            // on any other literal) plus candidates containing `¬best`
            // (strengthening on `best` itself).
            for phase in 0..2 {
                let key = if phase == 0 { best } else { !best };
                for &dref in &occ[key.index()] {
                    if budget == 0 || self.clauses[cref as usize].deleted {
                        break;
                    }
                    if dref == cref || self.clauses[dref as usize].deleted {
                        continue;
                    }
                    let (clen, dlen) = (
                        self.clauses[cref as usize].lits.len(),
                        self.clauses[dref as usize].lits.len(),
                    );
                    if dlen < clen {
                        continue;
                    }
                    budget = budget.saturating_sub(dlen as u64);
                    // Stamp D's literals.
                    generation += 1;
                    for &l in &self.clauses[dref as usize].lits {
                        mark[l.index()] = generation;
                    }
                    // Every literal of C must be in D, allowing at most
                    // one to appear flipped.
                    let mut flipped: Option<Lit> = None;
                    let mut subset = true;
                    for &l in &self.clauses[cref as usize].lits {
                        if mark[l.index()] == generation {
                            continue;
                        }
                        if mark[(!l).index()] == generation && flipped.is_none() {
                            flipped = Some(l);
                            continue;
                        }
                        subset = false;
                        break;
                    }
                    if !subset {
                        continue;
                    }
                    match flipped {
                        None => {
                            // C subsumes D. If D is irredundant and C is
                            // learnt, C inherits irredundancy first so the
                            // solver never drops the constraint later.
                            if !self.clauses[dref as usize].learnt
                                && self.clauses[cref as usize].learnt
                            {
                                self.clauses[cref as usize].learnt = false;
                                self.clauses[cref as usize].tier = Tier::Core;
                                self.stats.learnt_clauses -= 1;
                            }
                            self.delete_clause(dref);
                            self.stats.subsumed += 1;
                        }
                        Some(l) => {
                            // Self-subsuming resolution: D \ {¬l} is RUP.
                            let new: Vec<Lit> = self.clauses[dref as usize]
                                .lits
                                .iter()
                                .copied()
                                .filter(|&d| d != !l)
                                .collect();
                            self.replace_clause(dref, new);
                            if !self.ok {
                                return;
                            }
                            self.stats.strengthened += 1;
                        }
                    }
                }
            }
        }
    }

    /// Vivification: probe a bounded batch of clauses by asserting their
    /// negated literals in order, shortening when propagation conflicts,
    /// satisfies, or falsifies a literal.
    fn vivify_pass(&mut self) {
        let total = self.clauses.len();
        if total == 0 {
            return;
        }
        let props_before = self.stats.propagations;
        let mut probed = 0usize;
        let mut scanned = 0usize;
        while probed < VIVIFY_CLAUSES
            && scanned < total
            && self.stats.propagations - props_before < VIVIFY_PROPS
        {
            let cref = (self.vivify_head % total) as u32;
            self.vivify_head = (self.vivify_head + 1) % total;
            scanned += 1;
            let c = &self.clauses[cref as usize];
            // Local-tier learnts are not worth the probe; they churn.
            if c.deleted || c.lits.len() < 3 || (c.learnt && c.tier == Tier::Local) {
                continue;
            }
            probed += 1;
            self.vivify_one(cref);
            if !self.ok {
                return;
            }
        }
    }

    fn vivify_one(&mut self, cref: u32) {
        let lits = self.clauses[cref as usize].lits.clone();
        self.detach_clause(cref);
        self.trail_lim.push(self.trail.len());
        let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut shortened = false;
        for &l in &lits {
            match self.lit_value(l) {
                LBool::True => {
                    // Prefix negations imply l: clause `kept + [l]` is RUP.
                    kept.push(l);
                    shortened = kept.len() < lits.len();
                    break;
                }
                LBool::False => {
                    // Prefix negations imply ¬l: drop l.
                    shortened = true;
                }
                LBool::Undef => {
                    self.enqueue(!l, None);
                    kept.push(l);
                    if self.propagate().is_some() {
                        // ¬kept is contradictory: `kept` alone is RUP.
                        shortened = kept.len() < lits.len();
                        break;
                    }
                }
            }
        }
        self.backtrack(0);
        if !shortened {
            // Unchanged: reattach the original watches.
            let binary = lits.len() == 2;
            self.watches[(!lits[0]).index()].push(crate::solver::Watch::new(cref, lits[1], binary));
            self.watches[(!lits[1]).index()].push(crate::solver::Watch::new(cref, lits[0], binary));
            return;
        }
        self.stats.vivified += 1;
        self.replace_clause(cref, kept);
    }

    /// Occurrence lists over live clauses: `occ[lit.index()]` holds the
    /// clause references containing `lit`. Entries go stale as clauses
    /// are strengthened or deleted — users re-validate membership.
    fn build_occ(&self) -> Vec<Vec<u32>> {
        let mut occ: Vec<Vec<u32>> = vec![Vec::new(); 2 * self.num_vars()];
        for (cref, c) in self.clauses.iter().enumerate() {
            if c.deleted {
                continue;
            }
            for &l in &c.lits {
                occ[l.index()].push(cref as u32);
            }
        }
        occ
    }
}

#[cfg(test)]
mod tests {
    use crate::solver::Solver;
    use crate::types::{Lit, SolveResult, Var};

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
    fn subsumption_strengthening_and_vivification_preserve_answers() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1A9F);
        for round in 0..200 {
            let num_vars = rng.gen_range(2..=8usize);
            let num_clauses = rng.gen_range(2..=25usize);
            let cnf: Vec<Vec<(usize, bool)>> = (0..num_clauses)
                .map(|_| {
                    let len = rng.gen_range(1..=4usize);
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
            // Hammer the formula with repeated inprocessing passes.
            for _ in 0..3 {
                if s.ok {
                    s.inprocess();
                }
            }
            let expected = brute_force_sat(num_vars, &cnf);
            let got = s.solve() == SolveResult::Sat;
            assert_eq!(got, expected, "round {round}: cnf {cnf:?}");
            if got {
                // The model must satisfy the ORIGINAL cnf, including any
                // clauses inprocessing deleted or strengthened.
                for clause in &cnf {
                    assert!(
                        clause.iter().any(|&(v, pos)| s.value(vars[v]) == Some(pos)),
                        "round {round}: model falsifies {clause:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn inprocessing_during_search_keeps_unsat_traces_well_formed() {
        use crate::proof::ProofStep;
        // Pigeonhole 7-into-6 generates enough conflicts to restart many
        // times; trigger inprocessing at the first restart.
        let mut s = Solver::new();
        s.enable_proof_logging();
        let p: Vec<Vec<Var>> = (0..7)
            .map(|_| (0..6).map(|_| s.new_var()).collect())
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
        s.next_inprocess = 1;
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.inprocess_passes > 0, "inprocessing must have run");
        let proof = s.proof().expect("enabled");
        assert_eq!(
            proof.steps().last(),
            Some(&ProofStep::Learn(Vec::new())),
            "UNSAT trace must still end with the empty clause"
        );
    }

    #[test]
    fn incremental_solving_with_inprocessing_between_calls() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB7E2);
        for _ in 0..100 {
            let num_vars = rng.gen_range(2..=7usize);
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
            let mut cnf: Vec<Vec<(usize, bool)>> = Vec::new();
            for _batch in 0..3 {
                for _ in 0..rng.gen_range(1..=6usize) {
                    let len = rng.gen_range(1..=3usize);
                    let clause: Vec<(usize, bool)> = (0..len)
                        .map(|_| (rng.gen_range(0..num_vars), rng.gen_bool(0.5)))
                        .collect();
                    let lits: Vec<Lit> = clause.iter().map(|&(v, pos)| vars[v].lit(pos)).collect();
                    s.add_clause(&lits);
                    cnf.push(clause);
                }
                if s.ok {
                    s.inprocess();
                }
                let expected = brute_force_sat(num_vars, &cnf);
                let got = s.solve() == SolveResult::Sat;
                assert_eq!(got, expected, "cnf {cnf:?}");
                if !expected {
                    break;
                }
            }
        }
    }
}

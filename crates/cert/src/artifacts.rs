//! Textual certificate artifacts: the stored UNSAT certificate and the
//! dumps for external cross-auditing.
//!
//! An UNSAT certificate has one stored form. [`HintedTracker`] replays the
//! engine's live trace backward and emits each refuted check as a
//! `(core CNF, hinted proof)` pair: the clauses the refutation used, and
//! one line per needed learnt clause carrying its LRAT-style propagation
//! hints. [`check_hinted_unsat_artifact`] re-certifies such a pair from
//! text alone, so a verdict served from a content-addressed proof cache
//! is *re-certified on load* instead of trusted — a tampered or bit-rotted
//! artifact is rejected and the check falls back to a fresh proof.
//!
//! A dumped check is two files: a DIMACS CNF (the exact formula the
//! incremental engine held, rendered by [`fastpath_sat::Cnf::from_steps`]
//! with the check's assumptions baked in as unit clauses) and either a
//! plain DRUP proof ([`proof_to_drup`], UNSAT checks) or a
//! SAT-competition model line ([`model_to_text`], SAT checks).
//! `drat-trim CHECK.cnf CHECK.drup` verifies the former; any DIMACS-aware
//! solver confirms the latter. [`parse_drup`] reads a plain proof back
//! into steps and [`revalidate_unsat_artifact`] replays a `(CNF, DRUP)`
//! pair through the forward RUP checker: the in-repo reference for the
//! dumped pairs.

use crate::checker::{check_unsat_certificate, CertError, Checker, CheckerStats};
use fastpath_sat::{parse_dimacs, Lit, ProofStep, Var};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

fn write_clause(out: &mut String, lits: &[Lit]) {
    for &lit in lits {
        let n = lit.var().index() as i64 + 1;
        let _ = write!(out, "{} ", if lit.is_positive() { n } else { -n });
    }
    let _ = writeln!(out, "0");
}

/// Renders a trace prefix as a textual DRUP proof of unsatisfiability for
/// the companion CNF (which must contain the trace's axioms *plus* one
/// unit clause per assumption — exactly what
/// [`fastpath_sat::Cnf::from_steps`] emits).
///
/// Axiom steps are skipped (they live in the CNF); `Learn` steps become
/// clause lines and `Delete` steps become `d` lines. The proof ends with
/// the negated-assumption clause — RUP because propagating the assumption
/// units into the replayed database conflicts — followed by the empty
/// clause. A trace that already ends in an empty `Learn` terminates at
/// that line instead; checkers stop at the first empty clause.
pub fn proof_to_drup(steps: &[ProofStep], assumptions: &[Lit]) -> String {
    let mut out = String::new();
    for step in steps {
        match step {
            ProofStep::Axiom(_) => {}
            ProofStep::Learn(lits) => {
                write_clause(&mut out, lits);
                if lits.is_empty() {
                    return out;
                }
            }
            ProofStep::Delete(lits) => {
                let _ = write!(out, "d ");
                write_clause(&mut out, lits);
            }
        }
    }
    if !assumptions.is_empty() {
        let negated: Vec<Lit> = assumptions.iter().map(|&a| !a).collect();
        write_clause(&mut out, &negated);
    }
    let _ = writeln!(out, "0");
    out
}

/// Renders a model as a SAT-competition style `v` line terminated by `0`,
/// using 1-based DIMACS variable numbering.
pub fn model_to_text(model: &[bool]) -> String {
    let mut out = String::from("v");
    for (index, &value) in model.iter().enumerate() {
        let n = index as i64 + 1;
        let _ = write!(out, " {}", if value { n } else { -n });
    }
    let _ = writeln!(out, " 0");
    out
}

/// An error while re-validating a stored proof artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RevalidateError {
    /// The stored CNF text is not valid DIMACS.
    Cnf(String),
    /// The stored proof text is not valid DRUP.
    Drup(String),
    /// Both artifacts parsed, but the proof does not certify the CNF
    /// unsatisfiable (tampering, truncation, or mismatched pairing).
    Check(CertError),
}

impl fmt::Display for RevalidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RevalidateError::Cnf(m) => write!(f, "artifact CNF: {m}"),
            RevalidateError::Drup(m) => write!(f, "artifact DRUP: {m}"),
            RevalidateError::Check(e) => write!(f, "artifact proof rejected: {e}"),
        }
    }
}

impl Error for RevalidateError {}

/// Parses textual DRUP (the format [`proof_to_drup`] emits) back into
/// [`ProofStep::Learn`]/[`ProofStep::Delete`] steps.
///
/// Literal magnitudes must stay within `num_vars` — our proofs never use
/// extension variables, so an out-of-range literal means corruption.
/// Parsing stops at the first empty clause, mirroring how checkers read
/// DRUP files.
///
/// # Errors
///
/// Returns [`RevalidateError::Drup`] on non-integer tokens, missing `0`
/// terminators, or out-of-range literals.
pub fn parse_drup(text: &str, num_vars: usize) -> Result<Vec<ProofStep>, RevalidateError> {
    let bad = |m: String| RevalidateError::Drup(m);
    let mut steps = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (is_delete, body) = match line.strip_prefix("d ") {
            Some(rest) => (true, rest),
            None => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for token in body.split_whitespace() {
            let n: i64 = token
                .parse()
                .map_err(|_| bad(format!("line {}: bad token `{token}`", lineno + 1)))?;
            if n == 0 {
                terminated = true;
                break;
            }
            let index = n.unsigned_abs() as usize - 1;
            if index >= num_vars {
                return Err(bad(format!(
                    "line {}: literal {n} exceeds {num_vars} variables",
                    lineno + 1
                )));
            }
            let var = Var::from_index(index);
            lits.push(if n > 0 {
                var.positive()
            } else {
                var.negative()
            });
        }
        if !terminated {
            return Err(bad(format!("line {}: clause not 0-terminated", lineno + 1)));
        }
        if is_delete {
            steps.push(ProofStep::Delete(lits));
        } else {
            let empty = lits.is_empty();
            steps.push(ProofStep::Learn(lits));
            if empty {
                return Ok(steps);
            }
        }
    }
    Ok(steps)
}

/// Re-validates a `(DIMACS CNF, DRUP proof)` artifact pair from scratch:
/// the CNF clauses become axioms, the DRUP lines replay as learn/delete
/// steps, and the whole derivation must certify UNSAT under the forward
/// RUP checker.
///
/// This is the reference check for the plain pairs the engine dumps for
/// external tools; stored proofs are hinted and re-certified by
/// [`check_hinted_unsat_artifact`].
///
/// # Errors
///
/// Returns [`RevalidateError`] if either artifact fails to parse or the
/// replayed proof is rejected.
pub fn revalidate_unsat_artifact(
    cnf_text: &str,
    drup_text: &str,
) -> Result<CheckerStats, RevalidateError> {
    let cnf = parse_dimacs(cnf_text).map_err(|e| RevalidateError::Cnf(e.to_string()))?;
    let mut steps: Vec<ProofStep> = cnf.clauses.iter().cloned().map(ProofStep::Axiom).collect();
    steps.extend(parse_drup(drup_text, cnf.num_vars)?);
    check_unsat_certificate(&steps, &[]).map_err(RevalidateError::Check)
}

/// An incremental, core-tracking replay that emits trimmed hinted
/// artifacts directly from the live trace.
///
/// This is how the engine certifies: a long-lived engine feeds each
/// check's new trace steps exactly once, and after a successful
/// [`HintedTracker::verify_unsat`] the caller asks for the check's
/// artifact with [`HintedTracker::emit_hinted`] — the UNSAT core is
/// extracted from conflict cores recorded *during* the replay, so no DRUP
/// text is rendered, parsed back, or replayed a second time.
///
/// Assumptions are not baked into the fed trace, so the emitted core CNF
/// appends one unit clause per assumption (the stored-artifact
/// convention) and the final hint chain starts with those units —
/// replaying them reproduces the probe's assumed literals before the
/// recorded derivation runs.
#[derive(Debug, Default)]
pub struct HintedTracker {
    checker: Checker,
    /// Admitted axiom clauses: `(cref, literals)` in admission order.
    axioms: Vec<(u32, Vec<Lit>)>,
    /// Admitted learnt clauses: `(cref, literals)` in admission order.
    learns: Vec<(u32, Vec<Lit>)>,
}

impl HintedTracker {
    /// Creates an empty tracker.
    ///
    /// The underlying checker runs in *deferred* (backward) mode: `Learn`
    /// steps are admitted without an eager RUP probe, and each
    /// [`HintedTracker::verify_unsat`] verifies only the lemmas in the
    /// refutation's dependency closure, each against the strictly earlier
    /// part of the trace. On SAT-heavy incremental traces (most UPEC
    /// checks end in a model, not a refutation) this skips nearly all of
    /// the forward replay's probe work; lemmas nothing ever depends on
    /// are never checked, which is the standard backward-checking trade.
    pub fn new() -> Self {
        HintedTracker {
            checker: Checker::with_deferred_checking(),
            axioms: Vec::new(),
            learns: Vec::new(),
        }
    }

    /// Replays trace steps in order (see [`Checker::feed`]), recording
    /// which clause each admitted step became so cores can be mapped back
    /// to sources at emission time.
    ///
    /// # Errors
    ///
    /// Any [`CertError`] produced during replay.
    pub fn feed(&mut self, steps: &[ProofStep]) -> Result<(), CertError> {
        for step in steps {
            let cref = self.checker.clause_count() as u32;
            self.checker.feed(std::slice::from_ref(step))?;
            if self.checker.clause_count() > cref as usize {
                match step {
                    ProofStep::Axiom(lits) => self.axioms.push((cref, lits.clone())),
                    ProofStep::Learn(lits) => self.learns.push((cref, lits.clone())),
                    ProofStep::Delete(_) => {}
                }
            }
        }
        Ok(())
    }

    /// Certifies the replayed formula unsatisfiable under `assumptions`
    /// and records the refutation's core (see [`Checker::verify_unsat`]).
    ///
    /// # Errors
    ///
    /// [`CertError::AssumptionsNotRefuted`] if the probe does not conflict.
    pub fn verify_unsat(&mut self, assumptions: &[Lit]) -> Result<(), CertError> {
        self.checker.verify_unsat(assumptions)
    }

    /// Work counters of the underlying checker.
    pub fn stats(&self) -> CheckerStats {
        self.checker.stats()
    }

    /// `true` once root propagation has derived the empty clause.
    pub fn contradiction(&self) -> bool {
        self.checker.contradiction()
    }

    /// The number of trace steps fed so far.
    pub fn steps_fed(&self) -> usize {
        self.checker.steps_fed()
    }

    /// Emits the trimmed `(core CNF, hinted proof)` pair for the most
    /// recent successful [`HintedTracker::verify_unsat`]: a backward pass
    /// from the final conflict's core closes over each needed learnt
    /// clause's own probe core, kept clauses are renumbered (axioms,
    /// then assumption units, then learns), and every learn line carries
    /// its recorded LRAT-style hint chain. The pair is validated through
    /// [`check_hinted_unsat_artifact`] before being returned, so a caller
    /// can store it knowing it will certify on load.
    ///
    /// `assumptions` must be the same literals passed to `verify_unsat`.
    ///
    /// # Errors
    ///
    /// Returns [`RevalidateError`] if no refutation core is available or
    /// the emitted pair fails its own validation.
    pub fn emit_hinted(&self, assumptions: &[Lit]) -> Result<(String, String), RevalidateError> {
        let final_hints: Vec<u32> = self
            .checker
            .final_core()
            .ok_or_else(|| RevalidateError::Drup("no refutation core recorded".into()))?
            .to_vec();

        // Backward pass: the final conflict's core, closed under each
        // needed learnt clause's own probe core. Cores recorded while a
        // since-deleted clause was active may still reach it — deletions
        // only remove clauses from *future* derivations — so deleted
        // clauses stay emittable and the closure never dangles.
        let mut needed: HashSet<u32> = HashSet::new();
        let mut stack: Vec<u32> = final_hints.clone();
        while let Some(cref) = stack.pop() {
            if needed.insert(cref) {
                if let Some(core) = self.checker.learn_core(cref) {
                    stack.extend_from_slice(core);
                }
            }
        }

        let kept_axioms: Vec<&(u32, Vec<Lit>)> = self
            .axioms
            .iter()
            .filter(|(cref, _)| needed.contains(cref))
            .collect();
        let kept_learns: Vec<&(u32, Vec<Lit>)> = self
            .learns
            .iter()
            .filter(|(cref, _)| needed.contains(cref))
            .collect();

        // Renumber: kept axioms first, assumption units next, kept learns
        // after — matching the database order the hinted checker builds.
        let mut new_index: HashMap<u32, u32> = HashMap::new();
        for (next, (cref, _)) in kept_axioms.iter().enumerate() {
            new_index.insert(*cref, next as u32);
        }
        let assumption_base = kept_axioms.len() as u32;
        let learn_base = assumption_base + assumptions.len() as u32;
        for (offset, (cref, _)) in kept_learns.iter().enumerate() {
            new_index.insert(*cref, learn_base + offset as u32);
        }
        let map_hints = |hints: &[u32]| -> Result<Vec<u32>, RevalidateError> {
            hints
                .iter()
                .map(|h| {
                    new_index
                        .get(h)
                        .copied()
                        .ok_or_else(|| RevalidateError::Drup("hint outside trimmed core".into()))
                })
                .collect()
        };

        let num_vars = kept_axioms
            .iter()
            .flat_map(|(_, lits)| lits.iter())
            .chain(kept_learns.iter().flat_map(|(_, lits)| lits.iter()))
            .chain(assumptions.iter())
            .map(|l| l.var().index() + 1)
            .max()
            .unwrap_or(0);

        let mut core_cnf = format!(
            "p cnf {} {}\n",
            num_vars,
            kept_axioms.len() + assumptions.len()
        );
        for (_, lits) in &kept_axioms {
            write_clause(&mut core_cnf, lits);
        }
        for &a in assumptions {
            write_clause(&mut core_cnf, &[a]);
        }

        let mut hinted = String::new();
        for (cref, lits) in &kept_learns {
            write_hinted_line(
                &mut hinted,
                lits,
                &map_hints(self.checker.learn_core(*cref).unwrap_or(&[]))?,
            );
        }
        // The final refutation assumed the assumption literals before
        // propagating; scripting the assumption units first reproduces
        // those seeds in the hint walk.
        let mut last: Vec<u32> = (assumption_base..learn_base).collect();
        last.extend(map_hints(&final_hints)?);
        write_hinted_line(&mut hinted, &[], &last);

        // Never hand back a pair that would miss on load.
        check_hinted_unsat_artifact(&core_cnf, &hinted)?;
        Ok((core_cnf, hinted))
    }
}

fn write_hinted_line(out: &mut String, lits: &[Lit], hints: &[u32]) {
    for &lit in lits {
        let n = lit.var().index() as i64 + 1;
        let _ = write!(out, "{} ", if lit.is_positive() { n } else { -n });
    }
    let _ = write!(out, "0");
    // Hints are 1-based on the wire: index 0 would collide with the
    // section terminator (the same reason LRAT numbers clauses from 1).
    for h in hints {
        let _ = write!(out, " {}", h + 1);
    }
    let _ = writeln!(out, " 0");
}

/// Validates a `(core CNF, hinted proof)` pair produced by
/// [`HintedTracker::emit_hinted`] without running unit propagation: for
/// each proof line the learnt clause's negation is assumed and the hint
/// clauses are walked in order — each must be unit (its literal is
/// assigned) or conflicting (ends the line). The final line must be the
/// empty clause. Anything else — a hint that is satisfied or has two free
/// literals, a missing conflict, literals out of range — is a typed
/// rejection, so a corrupted artifact falls back to a fresh proof.
///
/// Soundness: every accepted line is a clause with the RUP property over
/// the axioms and previously accepted lines (the hint walk *is* a unit
/// propagation derivation, just one the prover scripted in advance), so
/// an accepted empty clause certifies the CNF unsatisfiable exactly as
/// the forward checker would — only the search for the derivation is
/// skipped, never the derivation itself.
///
/// # Errors
///
/// Returns [`RevalidateError`] on parse failure or any invalid hint step.
pub fn check_hinted_unsat_artifact(
    cnf_text: &str,
    proof_text: &str,
) -> Result<CheckerStats, RevalidateError> {
    let cnf = parse_dimacs(cnf_text).map_err(|e| RevalidateError::Cnf(e.to_string()))?;
    let bad = |m: String| RevalidateError::Drup(m);
    // Duplicate literals would double-count as "free" and make a unit
    // hint look two-free, so clauses are deduplicated up front.
    let dedup = |lits: &[Lit]| -> Vec<Lit> {
        let mut c = lits.to_vec();
        c.sort_unstable_by_key(|l| (l.var().index(), l.is_positive()));
        c.dedup();
        c
    };
    let mut db: Vec<Vec<Lit>> = cnf.clauses.iter().map(|c| dedup(c)).collect();
    let mut assign: Vec<i8> = vec![0; cnf.num_vars];
    let mut touched: Vec<usize> = Vec::new();
    let mut stats = CheckerStats {
        axioms: db.len() as u64,
        ..CheckerStats::default()
    };
    let value = |assign: &[i8], l: Lit| -> i8 {
        let v = assign[l.var().index()];
        if l.is_positive() {
            v
        } else {
            -v
        }
    };
    let mut refuted = false;
    for (lineno, raw) in proof_text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if refuted {
            break;
        }
        // `<lit>... 0 <hint>... 0`
        let mut lits: Vec<Lit> = Vec::new();
        let mut hints: Vec<usize> = Vec::new();
        let mut section = 0usize;
        for token in line.split_whitespace() {
            let n: i64 = token
                .parse()
                .map_err(|_| bad(format!("line {}: bad token `{token}`", lineno + 1)))?;
            if n == 0 {
                section += 1;
                continue;
            }
            match section {
                0 => {
                    let index = n.unsigned_abs() as usize - 1;
                    if index >= cnf.num_vars {
                        return Err(bad(format!("line {}: literal out of range", lineno + 1)));
                    }
                    let var = Var::from_index(index);
                    lits.push(if n > 0 {
                        var.positive()
                    } else {
                        var.negative()
                    });
                }
                1 => {
                    if n < 1 {
                        return Err(bad(format!("line {}: bad hint index", lineno + 1)));
                    }
                    hints.push(n as usize - 1);
                }
                _ => return Err(bad(format!("line {}: trailing tokens", lineno + 1))),
            }
        }
        if section != 2 {
            return Err(bad(format!("line {}: missing terminator", lineno + 1)));
        }
        // Assume the clause's negation...
        let mut conflict = false;
        for &l in &lits {
            match value(&assign, l) {
                1 => {
                    // The literal is already true: the clause is a
                    // tautology under the assumed negation — conflict.
                    conflict = true;
                    break;
                }
                -1 => {}
                _ => {
                    assign[l.var().index()] = if l.is_positive() { -1 } else { 1 };
                    touched.push(l.var().index());
                }
            }
        }
        // ...and walk the scripted propagation chain.
        if !conflict {
            for &h in &hints {
                let clause = db
                    .get(h)
                    .ok_or_else(|| bad(format!("line {}: hint {h} out of range", lineno + 1)))?;
                let mut unit: Option<Lit> = None;
                let mut nonfalse = 0usize;
                let mut satisfied = false;
                for &l in clause {
                    match value(&assign, l) {
                        -1 => {}
                        1 => {
                            satisfied = true;
                            break;
                        }
                        _ => {
                            nonfalse += 1;
                            unit = Some(l);
                        }
                    }
                }
                stats.propagations += 1;
                if satisfied {
                    // Already-true hints are inert (their conclusion is
                    // assigned); skipping them never adds an assignment,
                    // so the walk stays a valid propagation derivation.
                    continue;
                }
                match (nonfalse, unit) {
                    (0, _) => {
                        conflict = true;
                        break;
                    }
                    (1, Some(u)) => {
                        assign[u.var().index()] = if u.is_positive() { 1 } else { -1 };
                        touched.push(u.var().index());
                    }
                    _ => {
                        return Err(bad(format!(
                            "line {}: hint {h} is neither unit nor conflicting",
                            lineno + 1
                        )));
                    }
                }
            }
        }
        for v in touched.drain(..) {
            assign[v] = 0;
        }
        if !conflict {
            return Err(RevalidateError::Check(CertError::LearnNotRup {
                step: lineno,
                clause: lits,
            }));
        }
        if lits.is_empty() {
            refuted = true;
        } else {
            stats.learns += 1;
            db.push(dedup(&lits));
        }
    }
    if refuted {
        Ok(stats)
    } else {
        Err(RevalidateError::Check(CertError::AssumptionsNotRefuted {
            assumptions: Vec::new(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_sat::Var;

    #[test]
    fn drup_renders_learns_deletes_and_final_claim() {
        let a = Var::from_index(0).positive();
        let b = Var::from_index(1).positive();
        let steps = vec![
            ProofStep::Axiom(vec![a, b]),
            ProofStep::Learn(vec![b]),
            ProofStep::Delete(vec![a, b]),
        ];
        let text = proof_to_drup(&steps, &[!b]);
        assert_eq!(text, "2 0\nd 1 2 0\n2 0\n0\n");
    }

    #[test]
    fn drup_stops_at_empty_clause() {
        let a = Var::from_index(0).positive();
        let steps = vec![
            ProofStep::Axiom(vec![a]),
            ProofStep::Learn(Vec::new()),
            ProofStep::Learn(vec![a]), // never emitted
        ];
        assert_eq!(proof_to_drup(&steps, &[]), "0\n");
    }

    #[test]
    fn model_line_is_dimacs_numbered() {
        assert_eq!(model_to_text(&[true, false, true]), "v 1 -2 3 0\n");
        assert_eq!(model_to_text(&[]), "v 0\n");
    }

    #[test]
    fn parse_drup_round_trips_renderer() {
        let a = Var::from_index(0).positive();
        let b = Var::from_index(1).positive();
        let steps = vec![
            ProofStep::Axiom(vec![a, b]),
            ProofStep::Learn(vec![b]),
            ProofStep::Delete(vec![a, b]),
        ];
        let text = proof_to_drup(&steps, &[!b]);
        let parsed = parse_drup(&text, 2).expect("parses");
        assert_eq!(
            parsed,
            vec![
                ProofStep::Learn(vec![b]),
                ProofStep::Delete(vec![a, b]),
                ProofStep::Learn(vec![b]),
                ProofStep::Learn(Vec::new()),
            ]
        );
        // Corruption is typed, not panicked.
        assert!(matches!(
            parse_drup("x 0\n", 2),
            Err(RevalidateError::Drup(_))
        ));
        assert!(matches!(
            parse_drup("7 0\n", 2),
            Err(RevalidateError::Drup(_))
        ));
        assert!(matches!(
            parse_drup("1 2\n", 2),
            Err(RevalidateError::Drup(_))
        ));
    }

    fn unsat_artifact() -> (String, String) {
        use fastpath_sat::{Cnf, SolveResult, Solver};
        let mut s = Solver::new();
        s.enable_proof_logging();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[x.positive(), y.positive()]);
        s.add_clause(&[x.positive(), y.negative()]);
        s.add_clause(&[x.negative(), y.positive()]);
        s.add_clause(&[x.negative(), y.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let steps = s.proof().expect("logged").steps().to_vec();
        let cnf = Cnf::from_steps(&steps, &[]).to_dimacs();
        let drup = proof_to_drup(&steps, &[]);
        (cnf, drup)
    }

    /// A proof-logging solver over `2..=9` fresh variables and `4..=40`
    /// random clauses of one to three literals.
    fn random_instance(rng: &mut rand::rngs::StdRng) -> (fastpath_sat::Solver, Vec<Var>) {
        use rand::Rng;
        let num_vars = rng.gen_range(2..=9usize);
        let num_clauses = rng.gen_range(4..=40usize);
        let mut s = fastpath_sat::Solver::new();
        s.enable_proof_logging();
        let vars: Vec<Var> = (0..num_vars).map(|_| s.new_var()).collect();
        for _ in 0..num_clauses {
            let len = rng.gen_range(1..=3usize);
            let lits: Vec<Lit> = (0..len)
                .map(|_| vars[rng.gen_range(0..num_vars)].lit(rng.gen_bool(0.5)))
                .collect();
            s.add_clause(&lits);
        }
        (s, vars)
    }

    /// Up to two random assumption literals over `vars`.
    fn random_assumptions(rng: &mut rand::rngs::StdRng, vars: &[Var]) -> Vec<Lit> {
        use rand::Rng;
        (0..rng.gen_range(0..=2usize))
            .map(|_| vars[rng.gen_range(0..vars.len())].lit(rng.gen_bool(0.5)))
            .collect()
    }

    #[test]
    fn hinted_artifacts_certify_and_reject_corruption() {
        use fastpath_sat::{Cnf, SolveResult, Solver};
        // A formula with an obvious irrelevant half: x/y force UNSAT, the
        // a/b clauses are satisfiable padding no refutation needs.
        let mut s = Solver::new();
        s.enable_proof_logging();
        let x = s.new_var();
        let y = s.new_var();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        s.add_clause(&[a.negative(), b.positive()]);
        s.add_clause(&[x.positive(), y.positive()]);
        s.add_clause(&[x.positive(), y.negative()]);
        s.add_clause(&[x.negative(), y.positive()]);
        s.add_clause(&[x.negative(), y.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let steps = s.proof().expect("logged").steps();
        let mut tracker = HintedTracker::new();
        tracker.feed(steps).expect("replay ok");
        tracker.verify_unsat(&[]).expect("refuted");
        let (core_cnf, hinted) = tracker.emit_hinted(&[]).expect("emits");
        let stats = check_hinted_unsat_artifact(&core_cnf, &hinted).expect("hinted certifies");
        assert!(stats.axioms > 0);
        // The padding clauses over a/b never enter the core, so the
        // emitted CNF is smaller than the whole formula.
        let full_cnf = Cnf::from_steps(steps, &[]).to_dimacs();
        assert!(core_cnf.len() < full_cnf.len());
        let core = parse_dimacs(&core_cnf).expect("core parses");
        for clause in &core.clauses {
            assert!(
                !clause.iter().any(|l| l.var() == a || l.var() == b),
                "irrelevant clause entered the core: {clause:?}"
            );
        }
        // Dropping an axiom makes the scripted hints dangle or the final
        // refutation fail — either way a typed rejection, never a verdict.
        let tampered = core_cnf.replacen("-1 -2 0\n", "", 1);
        assert_ne!(tampered, core_cnf);
        assert!(check_hinted_unsat_artifact(&tampered, &hinted).is_err());
        // Truncating the proof removes the final empty clause.
        let truncated: String = hinted
            .lines()
            .take(hinted.lines().count().saturating_sub(1))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(check_hinted_unsat_artifact(&core_cnf, &truncated).is_err());
        // Mangled hint indices are out of range or non-unit.
        assert!(check_hinted_unsat_artifact(&core_cnf, "0 99 0\n").is_err());
        // Garbage text is a typed parse error.
        assert!(matches!(
            check_hinted_unsat_artifact(&core_cnf, "1 x 0 0\n"),
            Err(RevalidateError::Drup(_))
        ));
    }

    #[test]
    fn hinting_random_unsat_instances_preserves_certification() {
        use fastpath_sat::SolveResult;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // The engine's pattern on random formulas: one solver and one
        // tracker across several solves, each trace slice fed once and
        // each refutation emitted at its own snapshot.
        let mut rng = StdRng::seed_from_u64(0x51c3);
        let mut checked = 0usize;
        for round in 0..120 {
            let (mut s, vars) = random_instance(&mut rng);
            let mut tracker = HintedTracker::new();
            let mut fed = 0usize;
            for _ in 0..3 {
                let assumptions = random_assumptions(&mut rng, &vars);
                let result = s.solve_with(&assumptions);
                let snapshot = s.proof_len();
                tracker
                    .feed(&s.proof().expect("logged").steps()[fed..snapshot])
                    .expect("replay ok");
                fed = snapshot;
                if result == SolveResult::Unsat {
                    tracker
                        .verify_unsat(&assumptions)
                        .unwrap_or_else(|e| panic!("round {round}: verify failed: {e}"));
                    let (core_cnf, hinted) = tracker
                        .emit_hinted(&assumptions)
                        .unwrap_or_else(|e| panic!("round {round}: emit failed: {e}"));
                    check_hinted_unsat_artifact(&core_cnf, &hinted)
                        .unwrap_or_else(|e| panic!("round {round}: hinted pair rejected: {e}"));
                    checked += 1;
                }
            }
        }
        assert!(checked > 10, "too few UNSAT instances exercised: {checked}");
    }

    #[test]
    fn hinted_tracker_emits_per_check_artifacts_incrementally() {
        use fastpath_sat::{SolveResult, Solver};
        // The engine pattern: one long-lived solver + tracker, several
        // guarded UNSAT checks, each fed exactly once and emitted at its
        // own snapshot.
        let mut s = Solver::new();
        s.enable_proof_logging();
        let x = s.new_var();
        let y = s.new_var();
        let g1 = s.new_var();
        let g2 = s.new_var();
        s.add_clause(&[g1.negative(), x.positive()]);
        s.add_clause(&[g1.negative(), x.negative()]);
        let mut tracker = HintedTracker::new();
        let mut consumed = 0usize;

        assert_eq!(s.solve_with(&[g1.positive()]), SolveResult::Unsat);
        let snapshot = s.proof_len();
        let steps = s.proof().expect("logged").steps();
        tracker.feed(&steps[consumed..snapshot]).expect("replay ok");
        consumed = snapshot;
        tracker.verify_unsat(&[g1.positive()]).expect("check 1");
        let (cnf1, hinted1) = tracker.emit_hinted(&[g1.positive()]).expect("emit 1");
        check_hinted_unsat_artifact(&cnf1, &hinted1).expect("artifact 1 certifies");
        // The g2 clauses don't exist yet; the y clauses never will be
        // relevant — the core must only mention x and g1.
        assert!(!cnf1.contains(&format!("{} ", g2.index() + 1)));

        // Second check over a disjoint cone, same tracker.
        s.add_clause(&[g2.negative(), y.positive()]);
        s.add_clause(&[g2.negative(), y.negative()]);
        assert_eq!(s.solve_with(&[g2.positive()]), SolveResult::Unsat);
        let snapshot = s.proof_len();
        let steps = s.proof().expect("logged").steps();
        tracker.feed(&steps[consumed..snapshot]).expect("replay ok");
        tracker.verify_unsat(&[g2.positive()]).expect("check 2");
        let (cnf2, hinted2) = tracker.emit_hinted(&[g2.positive()]).expect("emit 2");
        check_hinted_unsat_artifact(&cnf2, &hinted2).expect("artifact 2 certifies");

        // A wrong claim is rejected, not silently emitted.
        assert!(tracker.verify_unsat(&[x.positive()]).is_err());
    }

    #[test]
    fn hinted_tracker_agrees_with_forward_checker_on_random_instances() {
        use fastpath_sat::SolveResult;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xA11C);
        let mut checked = 0usize;
        for round in 0..120 {
            let (mut s, vars) = random_instance(&mut rng);
            let assumptions = random_assumptions(&mut rng, &vars);
            let unsat = s.solve_with(&assumptions) == SolveResult::Unsat;
            let snapshot = s.proof_len();
            let steps = &s.proof().expect("logged").steps()[..snapshot];
            // The forward checker probes every learnt clause; it accepts
            // exactly the refutations the solver claims.
            let forward = check_unsat_certificate(steps, &assumptions);
            assert_eq!(forward.is_ok(), unsat, "round {round}: {forward:?}");
            let mut tracker = HintedTracker::new();
            tracker.feed(steps).expect("replay ok");
            let backward = tracker.verify_unsat(&assumptions);
            assert_eq!(backward.is_ok(), unsat, "round {round}: {backward:?}");
            if !unsat {
                continue;
            }
            let (core_cnf, hinted) = tracker
                .emit_hinted(&assumptions)
                .unwrap_or_else(|e| panic!("round {round}: emit failed: {e}"));
            check_hinted_unsat_artifact(&core_cnf, &hinted)
                .unwrap_or_else(|e| panic!("round {round}: tracker pair rejected: {e}"));
            checked += 1;
        }
        assert!(checked > 10, "too few UNSAT instances exercised: {checked}");
    }

    #[test]
    fn revalidates_stored_artifacts_and_rejects_tampering() {
        let (cnf, drup) = unsat_artifact();
        revalidate_unsat_artifact(&cnf, &drup).expect("genuine artifact certifies");
        // Truncating the proof must fail the refutation probe.
        let truncated: String = String::new();
        assert!(matches!(
            revalidate_unsat_artifact(&cnf, &truncated),
            Err(RevalidateError::Check(_))
        ));
        // Deleting an axiom makes the formula satisfiable; a sound
        // checker must now reject the stale proof rather than certify a
        // SAT formula unsatisfiable.
        let tampered = cnf.replacen("-1 -2 0\n", "", 1);
        assert_ne!(tampered, cnf);
        assert!(matches!(
            revalidate_unsat_artifact(&tampered, &drup),
            Err(RevalidateError::Check(_))
        ));
        // Garbage artifacts are typed errors.
        assert!(matches!(
            revalidate_unsat_artifact("p cnf x", &drup),
            Err(RevalidateError::Cnf(_))
        ));
    }
}

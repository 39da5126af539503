//! Certification of traces produced by an *inprocessing* solver.
//!
//! The inprocessing passes (root simplification, subsumption /
//! self-subsuming resolution, vivification) rewrite the clause database
//! mid-search, so their DRUP obligations are subtler than plain
//! conflict-analysis learns: original clauses get `Delete`d, and
//! strengthened replacements must be `Learn`ed *before* the original
//! disappears. These tests pin that contract from the checker's side:
//! genuine traces certify, DIMACS/DRUP artifacts round-trip, and a
//! planted *unsound* resolvent is rejected.

use fastpath_cert::artifacts::proof_to_drup;
use fastpath_cert::{check_unsat_certificate, CertError, Checker};
use fastpath_sat::{parse_dimacs, Cnf, Lit, ProofStep, SolveResult, Solver, Var};

/// Pigeonhole: `holes + 1` pigeons into `holes` holes — hard enough to
/// drive restarts (and therefore inprocessing passes) before UNSAT.
fn add_pigeonhole(s: &mut Solver, holes: usize) {
    let pigeons = holes + 1;
    let vars: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &vars {
        let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    for (i, row_i) in vars.iter().enumerate() {
        for row_j in &vars[i + 1..] {
            for (a, b) in row_i.iter().zip(row_j) {
                s.add_clause(&[a.negative(), b.negative()]);
            }
        }
    }
}

/// An UNSAT solve whose trace provably contains inprocessing deletions:
/// a root-satisfied clause and a root-strippable clause ride along with
/// a pigeonhole core that forces restarts. Returns the solver plus the
/// two side clauses.
fn inprocessed_unsat_solver() -> (Solver, Vec<Lit>, Vec<Lit>) {
    let mut s = Solver::new();
    s.enable_proof_logging();
    // Fire inprocessing on the first eligible restart instead of after
    // the default 4096 conflicts — the pigeonhole core below conflicts
    // a few hundred times, enough for restarts but not for the default.
    s.set_inprocess_interval(256);
    let u = s.new_var();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    let d = s.new_var();
    // Added while `u` is unassigned, so both enter the clause database.
    let satisfied = vec![u.positive(), a.positive(), b.positive()];
    let strippable = vec![u.negative(), c.positive(), d.positive()];
    s.add_clause(&satisfied);
    s.add_clause(&strippable);
    // Now `u` becomes a root unit: `satisfied` is satisfied at the root
    // and `strippable` carries a root-false literal. The first
    // inprocessing pass must delete the former and strengthen the
    // latter to (c | d).
    s.add_clause(&[u.positive()]);
    add_pigeonhole(&mut s, 6);
    assert_eq!(s.solve(), SolveResult::Unsat);
    (s, satisfied, strippable)
}

fn normalized(lits: &[Lit]) -> Vec<Lit> {
    let mut v = lits.to_vec();
    v.sort_unstable();
    v
}

#[test]
fn inprocessed_unsat_proof_certifies_and_deletes_originals() {
    let (s, satisfied, strippable) = inprocessed_unsat_solver();
    let steps = s.proof().expect("logging on").steps();

    // The trace really exercised inprocessing deletions of *original*
    // clauses, not just learnt-clause reduction.
    let deleted: Vec<&ProofStep> = steps
        .iter()
        .filter(|st| matches!(st, ProofStep::Delete(_)))
        .collect();
    assert!(!deleted.is_empty(), "trace must contain deletions");
    assert!(
        deleted
            .iter()
            .any(|st| normalized(st.lits()) == normalized(&satisfied)),
        "root-satisfied original must be Delete-logged"
    );
    assert!(
        deleted
            .iter()
            .any(|st| normalized(st.lits()) == normalized(&strippable)),
        "strengthened original must be Delete-logged"
    );
    // ... and the strengthened replacement (c | d) was learnt BEFORE the
    // original was deleted, so the checker can justify it.
    let stripped: Vec<Lit> = strippable
        .iter()
        .copied()
        .filter(|l| *l != strippable[0])
        .collect();
    let learn_pos = steps
        .iter()
        .position(|st| matches!(st, ProofStep::Learn(l) if normalized(l) == normalized(&stripped)))
        .expect("strengthened clause is Learn-logged");
    let delete_pos = steps
        .iter()
        .position(
            |st| matches!(st, ProofStep::Delete(l) if normalized(l) == normalized(&strippable)),
        )
        .expect("original is Delete-logged");
    assert!(learn_pos < delete_pos, "Learn(strengthened) before Delete");

    // The independent checker certifies the whole inprocessed trace.
    let stats = check_unsat_certificate(steps, &[]).expect("inprocessed proof certifies");
    assert!(stats.learns > 0);
    assert!(stats.deletions > 0, "checker applied the deletions");
}

#[test]
fn dimacs_drup_artifacts_roundtrip_with_inprocessing() {
    let (s, _, _) = inprocessed_unsat_solver();
    let steps = s.proof().expect("logging on").steps();

    // DIMACS side: the axiom stream survives the writer⇄parser loop and
    // stays UNSAT when re-solved from scratch (by a solver that will
    // make its own, different inprocessing decisions).
    let cnf = Cnf::from_steps(steps, &[]);
    let reparsed = parse_dimacs(&cnf.to_dimacs()).expect("writer output parses");
    assert_eq!(reparsed, cnf, "DIMACS round trip");
    assert_eq!(reparsed.into_solver().solve(), SolveResult::Unsat);

    // DRUP side: deletions appear as `d` lines, the proof terminates in
    // the empty clause, and every non-deletion line is a Learn step.
    let drup = proof_to_drup(steps, &[]);
    assert!(drup.lines().any(|l| l.starts_with("d ")), "has d-lines");
    assert_eq!(drup.lines().last(), Some("0"), "ends with empty clause");
    let learns = steps
        .iter()
        .filter(|st| matches!(st, ProofStep::Learn(l) if !l.is_empty()))
        .count();
    let clause_lines = drup
        .lines()
        .filter(|l| !l.starts_with("d ") && *l != "0")
        .count();
    assert_eq!(clause_lines, learns, "one DRUP line per learnt clause");
}

#[test]
fn planted_unsound_elimination_is_rejected() {
    // A fraudulent "variable elimination" of `a`: the genuine resolvent
    // of (a|b) and (!a|c) on `a` is (b|c), but the planted trace claims
    // the stronger (c) — exactly the kind of bug an unsound BVE
    // implementation would produce. The checker's RUP probe must refuse
    // it: assuming !c propagates !a (from !a|c) and b (from a|b) with no
    // conflict.
    let a = Var::from_index(0);
    let b = Var::from_index(1);
    let c = Var::from_index(2);
    let steps = vec![
        ProofStep::Axiom(vec![a.positive(), b.positive()]),
        ProofStep::Axiom(vec![a.negative(), c.positive()]),
        ProofStep::Learn(vec![c.positive()]),
    ];
    match check_unsat_certificate(&steps, &[c.negative()]) {
        Err(CertError::LearnNotRup { step, clause }) => {
            assert_eq!(step, 2);
            assert_eq!(clause, vec![c.positive()]);
        }
        other => panic!("unsound resolvent must be rejected, got {other:?}"),
    }

    // Ordering fraud: the true resolvent (b|c) logged only AFTER its
    // parent (a|b) was deleted is no longer RUP — the checker enforces
    // the Learn-before-Delete discipline strengthening relies on.
    let steps = vec![
        ProofStep::Axiom(vec![a.positive(), b.positive()]),
        ProofStep::Axiom(vec![a.negative(), c.positive()]),
        ProofStep::Delete(vec![a.positive(), b.positive()]),
        ProofStep::Learn(vec![b.positive(), c.positive()]),
    ];
    let mut checker = Checker::new();
    assert!(
        matches!(
            checker.feed(&steps),
            Err(CertError::LearnNotRup { step: 3, .. })
        ),
        "resolvent after parent deletion must fail its RUP probe"
    );
}

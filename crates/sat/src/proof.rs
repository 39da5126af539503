//! DRUP-style proof traces.
//!
//! When proof logging is enabled (see
//! [`Solver::enable_proof_logging`](crate::Solver::enable_proof_logging)),
//! the solver records every clause the caller asserts
//! ([`ProofStep::Axiom`]), every clause it derives by conflict analysis
//! ([`ProofStep::Learn`]), and every learnt clause it discards
//! ([`ProofStep::Delete`]) — in order. That stream is exactly a DRUP
//! (Delete Reverse Unit Propagation) proof interleaved with the original
//! formula, which is what an *incremental* solver needs: clauses keep
//! arriving between `solve` calls, so a certificate for the k-th call is a
//! prefix of the trace, not a fixed CNF plus a proof.
//!
//! The trace is deliberately dumb data — plain literal vectors with no
//! references into the solver — so an independent checker (the
//! `fastpath-cert` crate) can replay it while sharing *none* of the
//! solver's data structures.

use crate::types::Lit;

/// One step of a proof trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// An original clause asserted by the caller, recorded verbatim
    /// (before any solver-side simplification). The concatenation of all
    /// `Axiom` steps is the exact CNF the solver holds.
    Axiom(Vec<Lit>),
    /// A clause derived by conflict analysis. Every `Learn` clause has the
    /// RUP property with respect to the clauses preceding it in the trace
    /// (minus prior deletions): assuming its negation and unit-propagating
    /// yields a conflict. An empty `Learn` clause records that the formula
    /// itself became unsatisfiable.
    Learn(Vec<Lit>),
    /// A clause removed from the database: a learnt clause dropped by
    /// tiered reduction, or an original clause retired by inprocessing
    /// (satisfied at the root, subsumed, or replaced by a strengthened
    /// RUP version that was `Learn`-logged first).
    Delete(Vec<Lit>),
}

impl ProofStep {
    /// The literals of the step's clause.
    pub fn lits(&self) -> &[Lit] {
        match self {
            ProofStep::Axiom(l) | ProofStep::Learn(l) | ProofStep::Delete(l) => l,
        }
    }
}

/// Incrementally rendered DRUP text for the trace: `Learn` steps become
/// clause lines, `Delete` steps become `d` lines, `Axiom` steps render to
/// nothing (they live in the companion CNF). Kept in step lockstep so a
/// certificate for any trace prefix is a byte slice of the buffer instead
/// of an O(prefix) re-render per check.
#[derive(Clone, Debug, Default)]
struct DrupText {
    buf: String,
    /// `ends[i]` = buffer length right after step `i` rendered.
    ends: Vec<usize>,
    /// Step index and buffer end of the first empty `Learn`, if any:
    /// checkers stop at the first empty clause, so rendering truncates
    /// there too.
    empty_learn: Option<(usize, usize)>,
}

impl DrupText {
    fn append(&mut self, step: &ProofStep) -> usize {
        let before = self.buf.len();
        match step {
            ProofStep::Axiom(_) => {}
            ProofStep::Learn(lits) => {
                write_drup_clause(&mut self.buf, lits);
                if lits.is_empty() && self.empty_learn.is_none() {
                    self.empty_learn = Some((self.ends.len(), self.buf.len()));
                }
            }
            ProofStep::Delete(lits) => {
                self.buf.push_str("d ");
                write_drup_clause(&mut self.buf, lits);
            }
        }
        self.ends.push(self.buf.len());
        self.buf.len() - before
    }
}

fn write_drup_clause(out: &mut String, lits: &[Lit]) {
    use std::fmt::Write as _;
    for &lit in lits {
        let n = lit.var().index() as i64 + 1;
        let _ = write!(out, "{} ", if lit.is_positive() { n } else { -n });
    }
    out.push_str("0\n");
}

/// An append-only proof trace.
///
/// Positions into the trace are stable: [`Proof::len`] taken right after a
/// `solve` call delimits the certificate for that call even while later
/// calls keep appending.
#[derive(Clone, Debug, Default)]
pub struct Proof {
    steps: Vec<ProofStep>,
    /// Buffered DRUP text, maintained per push when enabled.
    text: Option<DrupText>,
}

impl Proof {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Proof::default()
    }

    /// Turns on the buffered DRUP text renderer: every subsequent step is
    /// rendered once into an in-memory buffer as it is pushed, and
    /// [`Proof::render_drup`] serves any prefix as a byte slice. Steps
    /// already recorded are backfilled in one pass. Returns the bytes
    /// rendered by the backfill; later pushes report their own byte
    /// deltas through the return value of `push`.
    pub fn enable_text(&mut self) -> usize {
        if self.text.is_some() {
            return 0;
        }
        let mut text = DrupText::default();
        let mut bytes = 0usize;
        for step in &self.steps {
            bytes += text.append(step);
        }
        self.text = Some(text);
        bytes
    }

    /// `true` if the buffered DRUP renderer is on.
    pub fn text_enabled(&self) -> bool {
        self.text.is_some()
    }

    /// Renders the first `len` steps as a textual DRUP proof of the
    /// claim "`assumptions` are jointly inconsistent with the axioms":
    /// the buffered prefix followed by the negated-assumption clause and
    /// the empty clause (or truncated at an in-prefix empty `Learn` —
    /// checkers stop at the first empty clause). Byte-identical to
    /// `fastpath-cert`'s `proof_to_drup` on the same prefix.
    ///
    /// Returns `None` when the renderer is disabled (the caller falls
    /// back to an O(prefix) re-render).
    pub fn render_drup(&self, len: usize, assumptions: &[Lit]) -> Option<String> {
        let text = self.text.as_ref()?;
        debug_assert!(len <= text.ends.len());
        if let Some((step, end)) = text.empty_learn {
            if step < len {
                return Some(text.buf[..end].to_string());
            }
        }
        let end = if len == 0 { 0 } else { text.ends[len - 1] };
        let mut out = text.buf[..end].to_string();
        if !assumptions.is_empty() {
            let negated: Vec<Lit> = assumptions.iter().map(|&a| !a).collect();
            write_drup_clause(&mut out, &negated);
        }
        out.push_str("0\n");
        Some(out)
    }

    /// All steps recorded so far.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// The number of steps recorded so far.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The original-formula clauses (the `Axiom` steps) within the first
    /// `len` steps.
    pub fn axioms(&self, len: usize) -> impl Iterator<Item = &[Lit]> {
        self.steps[..len].iter().filter_map(|s| match s {
            ProofStep::Axiom(lits) => Some(lits.as_slice()),
            _ => None,
        })
    }

    /// Appends a step, returning the bytes the buffered DRUP renderer
    /// wrote for it (0 when the renderer is off).
    pub(crate) fn push(&mut self, step: ProofStep) -> usize {
        let bytes = match &mut self.text {
            Some(text) => text.append(&step),
            None => 0,
        };
        self.steps.push(step);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    #[test]
    fn axioms_filters_and_respects_prefix() {
        let a = Var::from_index(0).positive();
        let b = Var::from_index(1).positive();
        let mut p = Proof::new();
        p.push(ProofStep::Axiom(vec![a, b]));
        p.push(ProofStep::Learn(vec![a]));
        p.push(ProofStep::Axiom(vec![b]));
        assert_eq!(p.len(), 3);
        assert_eq!(p.axioms(3).count(), 2);
        assert_eq!(p.axioms(2).count(), 1);
        assert_eq!(p.steps()[1].lits(), &[a]);
    }

    #[test]
    fn buffered_text_serves_prefixes_and_counts_bytes() {
        let a = Var::from_index(0).positive();
        let b = Var::from_index(1).positive();
        let mut p = Proof::new();
        assert!(p.render_drup(0, &[]).is_none(), "disabled until enabled");
        p.push(ProofStep::Axiom(vec![a, b]));
        let backfill = p.enable_text();
        assert_eq!(backfill, 0, "axioms render to nothing");
        let learn_bytes = p.push(ProofStep::Learn(vec![b]));
        assert_eq!(learn_bytes, "2 0\n".len());
        p.push(ProofStep::Delete(vec![a, b]));
        // Byte-identical to the cert crate's proof_to_drup on the same
        // prefix + assumptions.
        assert_eq!(p.render_drup(3, &[!b]).unwrap(), "2 0\nd 1 2 0\n2 0\n0\n");
        assert_eq!(p.render_drup(2, &[]).unwrap(), "2 0\n0\n");
        assert_eq!(p.render_drup(0, &[]).unwrap(), "0\n");
        // An in-prefix empty learn truncates the rendering there.
        p.push(ProofStep::Learn(Vec::new()));
        p.push(ProofStep::Learn(vec![a]));
        assert_eq!(p.render_drup(5, &[!b]).unwrap(), "2 0\nd 1 2 0\n0\n");
        // A prefix that stops before the empty learn is unaffected.
        assert_eq!(p.render_drup(3, &[]).unwrap(), "2 0\nd 1 2 0\n0\n");
        // Late enabling backfills in one pass.
        let mut q = Proof::new();
        q.push(ProofStep::Axiom(vec![a]));
        q.push(ProofStep::Learn(vec![a]));
        assert_eq!(q.enable_text(), "1 0\n".len());
        assert_eq!(q.render_drup(2, &[]).unwrap(), "1 0\n0\n");
    }
}

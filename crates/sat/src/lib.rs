//! # fastpath-sat
//!
//! A CDCL SAT solver, the decision-procedure substrate under FastPath's
//! formal verification step (the paper used a commercial property checker;
//! see DESIGN.md for the substitution argument).
//!
//! Features: two-watched-literal propagation with a binary-clause fast
//! path, 1-UIP learning with clause minimization, VSIDS, phase saving and
//! target-phase rephasing, Luby restarts, chronological backtracking, a
//! three-tier (core/mid/local) learnt database, DRUP-sound inprocessing
//! (vivification, subsumption), in-place incremental solving under
//! assumptions, RUP-probed clause import, and DIMACS I/O.
//!
//! # Examples
//!
//! ```
//! use fastpath_sat::{SolveResult, Solver};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var();
//! let y = solver.new_var();
//! solver.add_clause(&[x.positive(), y.positive()]);
//! solver.add_clause(&[x.negative()]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.value(y), Some(true));
//! ```

#![warn(missing_docs)]

mod analyze;
mod dimacs;
mod heap;
mod inprocess;
mod proof;
mod propagate;
mod reduce;
mod solver;
mod stats;
mod types;

pub use dimacs::{parse_dimacs, Cnf, ParseDimacsError};
pub use proof::{Proof, ProofStep};
pub use solver::Solver;
pub use stats::SolverStats;
pub use types::{LBool, Lit, SolveResult, Var};

//! The fuzzing loop: generate → oracle → (shrink, persist) with
//! iteration-boxed and time-boxed budgets.
//!
//! In iteration-boxed mode the produced log is a pure function of the
//! options — no wall-clock content — so two runs with the same seed and
//! iteration count are byte-identical. That property is itself asserted
//! in CI.

use crate::corpus::{render_case, Corpus};
use crate::gen::generate_case;
use crate::oracle::{check_case, FaultInjection, OracleOptions};
use crate::shrink::{node_count, regression_test_source, shrink_case};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration for one fuzzing run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Iteration budget (iteration-boxed mode).
    pub iters: Option<u64>,
    /// Wall-clock budget (time-boxed mode; wins over `iters` if both
    /// are set).
    pub time_limit: Option<Duration>,
    /// Base seed; case `i` uses a seed derived from `(seed, i)`.
    pub seed: u64,
    /// Corpus directory for violating and minimized cases.
    pub corpus: Option<PathBuf>,
    /// Certify every SAT verdict along the way.
    pub certify: bool,
    /// Run the compiled-vs-interpretive engine battery per case.
    pub check_engines: bool,
    /// Fault injection (tests only).
    pub fault: FaultInjection,
    /// Re-run both flows with the bit-level UPEC encoding and require
    /// agreement with the word-level verdicts.
    pub check_encodings: bool,
    /// Re-run both flows with the escalation-free induction engine and
    /// require the IC3-escalating runs are never weaker.
    pub check_ic3: bool,
    /// Shrink violating cases.
    pub shrink: bool,
    /// Oracle-evaluation budget per shrink.
    pub max_shrink_evals: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            iters: Some(200),
            time_limit: None,
            seed: 1,
            corpus: None,
            certify: false,
            check_engines: true,
            fault: FaultInjection::None,
            check_encodings: true,
            check_ic3: true,
            shrink: true,
            max_shrink_evals: 250,
        }
    }
}

/// One violating case as recorded by the run.
#[derive(Clone, Debug)]
pub struct ViolationRecord {
    /// The generating seed.
    pub case_seed: u64,
    /// Invariant kind (display form) of the first violation.
    pub kind: String,
    /// Diagnosis of the first violation.
    pub detail: String,
    /// Node count of the minimized case, when shrinking ran.
    pub min_nodes: Option<usize>,
}

/// Aggregate result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Cases executed.
    pub cases: u64,
    /// Violations found (one record per violating case).
    pub violations: Vec<ViolationRecord>,
    /// Outcome-signature histogram ("flow/IFT/False/False" → count).
    pub outcome_counts: BTreeMap<String, u64>,
    /// Soft fast-False/base-True disagreements (taint imprecision).
    pub soft_disagreements: u64,
    /// Deterministic run log (iteration-boxed mode) for display.
    pub log: String,
}

/// Derives the case seed for iteration `i` of a run (splitmix64 over
/// the base seed — avoids correlated neighbouring cases).
fn case_seed(base: u64, i: u64) -> u64 {
    let mut z = base.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the fuzzing loop.
///
/// # Panics
///
/// Panics if neither an iteration nor a time budget is set, or if a
/// corpus directory was requested but cannot be written.
pub fn fuzz_run(opts: &RunOptions) -> RunSummary {
    assert!(
        opts.iters.is_some() || opts.time_limit.is_some(),
        "fuzz_run needs an iteration or time budget"
    );
    let corpus = opts
        .corpus
        .as_ref()
        .map(|dir| Corpus::open(dir).expect("corpus directory is writable"));
    let oracle_opts = OracleOptions {
        certify: opts.certify,
        check_engines: opts.check_engines,
        fault: opts.fault,
        check_encodings: opts.check_encodings,
        check_ic3: opts.check_ic3,
    };
    let started = Instant::now();
    let mut summary = RunSummary::default();
    let mut i = 0u64;
    loop {
        let out_of_budget = match (opts.time_limit, opts.iters) {
            (Some(limit), _) => started.elapsed() >= limit,
            (None, Some(iters)) => i >= iters,
            (None, None) => true,
        };
        if out_of_budget {
            break;
        }
        let seed = case_seed(opts.seed, i);
        let case = generate_case(seed);
        let outcome = check_case(&case, &oracle_opts);
        *summary
            .outcome_counts
            .entry(outcome.signature())
            .or_insert(0) += 1;
        summary.soft_disagreements += u64::from(outcome.soft_disagreement);
        if let Some(first) = outcome.violations.first() {
            let _ = writeln!(
                summary.log,
                "[iter {i}] seed {seed}: VIOLATION {}: {}",
                first.kind, first.detail,
            );
            let mut record = ViolationRecord {
                case_seed: seed,
                kind: first.kind.to_string(),
                detail: first.detail.clone(),
                min_nodes: None,
            };
            if let Some(c) = &corpus {
                let name = format!("viol_{}_{seed}.nl", first.kind);
                let _ = c.save(&name, &render_case(&case));
            }
            if opts.shrink {
                if let Some(min) = shrink_case(&case, &oracle_opts, opts.max_shrink_evals) {
                    let nodes = node_count(&min.case.module);
                    record.min_nodes = Some(nodes);
                    let _ = writeln!(
                        summary.log,
                        "[iter {i}] seed {seed}: shrunk to {nodes} nodes \
                         in {} evals",
                        min.evals,
                    );
                    if let Some(c) = &corpus {
                        let name = format!("min_{}_{seed}.nl", min.kind);
                        let _ = c.save(&name, &render_case(&min.case));
                        let name = format!("min_{}_{seed}.rs", min.kind);
                        let _ = c.save(&name, &regression_test_source(&min.case, min.kind));
                    }
                }
            }
            summary.violations.push(record);
        }
        summary.cases += 1;
        i += 1;
    }
    let _ = writeln!(
        summary.log,
        "fuzz: {} case(s), {} violation(s), {} soft disagreement(s)",
        summary.cases,
        summary.violations.len(),
        summary.soft_disagreements,
    );
    for (signature, count) in &summary.outcome_counts {
        let _ = writeln!(summary.log, "  {signature}: {count}");
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_case_seeds_do_not_collide_locally() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..512 {
            assert!(seen.insert(case_seed(1, i)));
        }
    }
}

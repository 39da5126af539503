//! Diffs a fresh `table1 --bench-json` record against the committed
//! baseline and gates on semantic drift.
//!
//!   bench_diff BASELINE.json CURRENT.json
//!
//! Verdict, completing method, and inspection counts must match the
//! baseline exactly for every design, and so must the deterministic work
//! counters both records carry (product size, solver conflicts and
//! propagations, IC3 propagations) — any drift prints a `REGRESSION`
//! line and exits 1 (update `BENCH_table1.json` in the same PR if the
//! change is intentional). Wall-clock is machine-dependent and only
//! reported. A markdown summary table is always printed for the CI job
//! log.

use fastpath_bench::benchdiff::diff_bench_records;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline, current] = args.as_slice() else {
        eprintln!("usage: bench_diff BASELINE.json CURRENT.json");
        std::process::exit(2);
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        })
    };
    let diff = diff_bench_records(&read(baseline), &read(current)).unwrap_or_else(|e| {
        eprintln!("bench_diff: {e}");
        std::process::exit(2);
    });
    println!("## Table I benchmark diff\n");
    print!("{}", diff.markdown);
    if !diff.warnings.is_empty() {
        println!("\nWall-clock notes (report-only):");
        for w in &diff.warnings {
            println!("  - {w}");
        }
    }
    if diff.regressions.is_empty() {
        println!("\nNo semantic drift against the committed baseline.");
    } else {
        println!();
        for r in &diff.regressions {
            println!("REGRESSION: {r}");
        }
        std::process::exit(1);
    }
}

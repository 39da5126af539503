//! Differential fuzzing driver for the FastPath pipeline.
//!
//! Subcommands:
//!
//! ```text
//!   fuzz run [OPTIONS]        run the generate→oracle→shrink loop
//!   fuzz repro FILE           re-run the oracle on one corpus file
//! ```
//!
//! `run` options:
//!
//! ```text
//!   --iters N        iteration budget (default 200; deterministic —
//!                    two runs with the same seed print identical logs)
//!   --time-secs S    wall-clock budget in seconds (wins over --iters)
//!   --seed S         base seed (default 1)
//!   --corpus DIR     persist violating cases, minimized netlists and
//!                    generated regression tests into DIR
//!   --certify        certify every SAT verdict with DRUP proofs and
//!                    check them (slower)
//!   --no-shrink      keep violating cases unminimized
//!   --no-engine-diff skip the compiled-vs-interpretive sim battery
//!   --no-encoding-diff
//!                    skip the words-vs-bits UPEC encoding agreement
//!                    re-runs
//!   --no-ic3-diff    skip the ic3-vs-induction engine agreement
//!                    re-runs
//!   --inject-hfg-underapprox
//!                    plant a fake "no paths" HFG verdict (oracle
//!                    self-test: the run MUST report violations)
//! ```
//!
//! Exit status: 0 when every case is clean, 1 when any invariant was
//! violated, 2 on usage errors.

use fastpath_fuzz::{check_case, fuzz_run, parse_case, FaultInjection, OracleOptions, RunOptions};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("repro") => repro(&args[1..]),
        _ => {
            eprintln!("usage: fuzz run [OPTIONS] | fuzz repro FILE");
            std::process::exit(2);
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
            eprintln!("{flag} expects a value");
            std::process::exit(2);
        })
    })
}

fn parsed_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: bad value {v:?}");
            std::process::exit(2);
        })
    })
}

fn run(args: &[String]) {
    let time_limit = parsed_flag::<u64>(args, "--time-secs").map(Duration::from_secs);
    let iters = parsed_flag::<u64>(args, "--iters");
    let opts = RunOptions {
        iters: if time_limit.is_some() {
            None
        } else {
            iters.or(Some(200))
        },
        time_limit,
        seed: parsed_flag(args, "--seed").unwrap_or(1),
        corpus: flag_value(args, "--corpus").map(Into::into),
        certify: args.iter().any(|a| a == "--certify"),
        check_engines: !args.iter().any(|a| a == "--no-engine-diff"),
        fault: if args.iter().any(|a| a == "--inject-hfg-underapprox") {
            FaultInjection::HfgUnderApprox
        } else {
            FaultInjection::None
        },
        check_encodings: !args.iter().any(|a| a == "--no-encoding-diff"),
        check_ic3: !args.iter().any(|a| a == "--no-ic3-diff"),
        shrink: !args.iter().any(|a| a == "--no-shrink"),
        max_shrink_evals: 250,
    };
    let summary = fuzz_run(&opts);
    print!("{}", summary.log);
    if !summary.violations.is_empty() {
        std::process::exit(1);
    }
}

fn repro(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: fuzz repro FILE [--certify]");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let case = parse_case(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(2);
    });
    let opts = OracleOptions {
        certify: args.iter().any(|a| a == "--certify"),
        ..OracleOptions::default()
    };
    let outcome = check_case(&case, &opts);
    println!(
        "{}: {} [{}]",
        path,
        if outcome.violations.is_empty() {
            "clean"
        } else {
            "VIOLATES"
        },
        outcome.signature(),
    );
    for v in &outcome.violations {
        println!("  {}: {}", v.kind, v.detail);
    }
    if !outcome.violations.is_empty() {
        std::process::exit(1);
    }
}

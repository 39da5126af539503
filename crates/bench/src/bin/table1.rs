//! Regenerates the paper's **Table I** (case studies) by running both the
//! FastPath hybrid flow and the formal-only UPEC-DIT baseline on all eight
//! designs, and prints the same columns the paper reports.
//!
//! Options:
//!   --jobs N     run the 2×8 verification flows on N work-stealing
//!                worker threads (default 1; output is byte-identical
//!                for every N)
//!   --trace      also print the Fig. 1 flow-event trace per design
//!   --pairwise   also print the fine-grained per-(x_D, y_C) structural
//!                analysis mentioned in Sec. V
//!   --design X   run a single design (row) only; an unknown name exits
//!                with status 2 and lists the known names
//!   --runtime    also print the Sec. V-E runtime breakdown plus solver
//!                and elaboration-cache statistics
//!   --markdown   emit the table as GitHub-flavoured markdown
//!   --certify    independently certify every UPEC verdict (RUP proof
//!                replay for UNSAT, model check + concrete counterexample
//!                replay for SAT) and print a certification line per run
//!   --dump-artifacts DIR
//!                with --certify, write each check's DIMACS formula and
//!                DRUP proof / model into DIR for external checkers
//!                (e.g. drat-trim)
//!   --bench-json PATH
//!                write a machine-readable per-design benchmark record
//!                (wall-clock, sim cycles/s, solver stats) to PATH
//!   --proof-cache DIR
//!                attach the content-addressed proof cache at DIR
//!                (implies certification; cached verdicts are revalidated
//!                on load). The rendered table is byte-identical to a
//!                cache-less --certify run; hit/miss counters appear only
//!                in --bench-json
//!   --upec-encoding bits|words
//!                SAT encoding the UPEC engines start in (default: words,
//!                the guarded word-level equivalence predicates; bits is
//!                the flat bit-equality reference oracle). A word check
//!                that runs out of its conflict budget is answered in
//!                bits, and its engine stays in bits. Table I renders
//!                identically in both; each encoding still steers
//!                refinement by its own counterexamples, so counts can
//!                differ elsewhere (fuzz seed 1, iteration 313: 2
//!                inspections in words, 1 in bits)
//!   --upec-engine induction|ic3
//!                formal engine policy (default: ic3). ic3 escalates
//!                inspection-costing counterexamples to the SecIC3
//!                engine, whose certified relational-invariant discharges
//!                can convert constrained verdicts into proved ones;
//!                induction is the escalation-free reference oracle
//!   --clause-store PATH
//!                persist learnt clauses keyed by canonical cone hash in
//!                PATH and RUP-probe them for reuse in later runs —
//!                including runs on other designs with isomorphic cones

use fastpath_bench::{run_table1, Table1Options};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = Table1Options {
        jobs: args
            .iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs expects a number, got {v:?}");
                    std::process::exit(2);
                })
            })
            .unwrap_or(1),
        markdown: args.iter().any(|a| a == "--markdown"),
        trace: args.iter().any(|a| a == "--trace"),
        runtime: args.iter().any(|a| a == "--runtime"),
        pairwise: args.iter().any(|a| a == "--pairwise"),
        only: args.iter().position(|a| a == "--design").map(|i| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("--design expects a design name");
                std::process::exit(2);
            })
        }),
        certify: args.iter().any(|a| a == "--certify"),
        dump_artifacts: args.iter().position(|a| a == "--dump-artifacts").map(|i| {
            args.get(i + 1)
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| {
                    eprintln!("--dump-artifacts expects a directory");
                    std::process::exit(2);
                })
        }),
        bench_json: args.iter().position(|a| a == "--bench-json").map(|i| {
            args.get(i + 1)
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| {
                    eprintln!("--bench-json expects a file path");
                    std::process::exit(2);
                })
        }),
        proof_cache: args.iter().position(|a| a == "--proof-cache").map(|i| {
            args.get(i + 1)
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| {
                    eprintln!("--proof-cache expects a directory");
                    std::process::exit(2);
                })
        }),
        upec_encoding: args
            .iter()
            .position(|a| a == "--upec-encoding")
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            })
            .unwrap_or(fastpath::UpecEncoding::Words),
        upec_engine: args
            .iter()
            .position(|a| a == "--upec-engine")
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            })
            .unwrap_or(fastpath::UpecEngine::Ic3),
        clause_store: args.iter().position(|a| a == "--clause-store").map(|i| {
            args.get(i + 1)
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| {
                    eprintln!("--clause-store expects a file path");
                    std::process::exit(2);
                })
        }),
    };
    if opts.dump_artifacts.is_some() && !opts.certify {
        eprintln!("--dump-artifacts requires --certify");
        std::process::exit(2);
    }

    let studies = fastpath_designs::all_case_studies();
    if let Some(name) = &opts.only {
        if !studies.iter().any(|s| &s.name == name) {
            let known: Vec<&str> = studies.iter().map(|s| s.name.as_str()).collect();
            eprintln!(
                "unknown design {name:?}; known designs: {}",
                known.join(", ")
            );
            std::process::exit(2);
        }
    }
    print!("{}", run_table1(&studies, &opts));
}

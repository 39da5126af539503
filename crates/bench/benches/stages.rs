//! Per-stage runtime benchmarks, reproducing the Sec. V-E discussion:
//! HFG construction and path queries are trivial, a full IFT simulation is
//! the bulk of the (still small) tool runtime, formal elaboration is a
//! one-off cost, and a single UPEC property check is fast by merit of the
//! symbolic initial state.

use criterion::{criterion_group, criterion_main, Criterion};
use fastpath_bench::{run_table1, Table1Options};
use fastpath_formal::{ElaborationMode, Upec2Safety, UpecEncoding, UpecSpec};
use fastpath_hfg::{extract_hfg, PathQuery};
use fastpath_sim::{IftSimulation, RandomTestbench, SimTape};
use std::sync::Arc;

fn bench_hfg(c: &mut Criterion) {
    let mut group = c.benchmark_group("hfg");
    for study in fastpath_designs::all_case_studies() {
        let module = study.instance.module.clone();
        group.bench_function(format!("extract/{}", study.name), |b| {
            b.iter(|| extract_hfg(&module));
        });
        let hfg = extract_hfg(&module);
        group.bench_function(format!("no_flow_query/{}", study.name), |b| {
            let xd = module.data_inputs();
            let yc = module.control_outputs();
            b.iter(|| PathQuery::new(&hfg).no_flow_possible(&xd, &yc));
        });
    }
    group.finish();
}

fn bench_ift_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ift_simulation");
    group.sample_size(10);
    for study in fastpath_designs::all_case_studies() {
        let module = study.instance.module.clone();
        let seed = study.seed;
        group.bench_function(format!("200_cycles/{}", study.name), |b| {
            b.iter(|| {
                let mut tb = RandomTestbench::new(&module, seed);
                IftSimulation::new(200).run(&module, &mut tb)
            });
        });
    }
    group.finish();
}

/// Interpreter vs compiled tape, head to head on the two IFT-heaviest
/// Table I designs: each runs one 200-cycle testbench through
/// `IftSimulation` (the compiled case reuses a pre-built tape, as the
/// flow driver does).
fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim");
    group.sample_size(10);
    let studies = [
        fastpath_designs::fwrisc_mds::case_study(),
        fastpath_designs::cva6_div::case_study(),
    ];
    for study in &studies {
        let module = &study.instance.module;
        let seed = study.seed;
        group.bench_function(format!("interp/{}", study.name), |b| {
            b.iter(|| {
                let mut tb = RandomTestbench::new(module, seed);
                IftSimulation::new(200).run(module, &mut tb).cycles_run
            });
        });
        let tape = Arc::new(SimTape::compile(module));
        group.bench_function(format!("compiled/{}", study.name), |b| {
            b.iter(|| {
                let mut tb = RandomTestbench::new(module, seed);
                IftSimulation::new(200)
                    .run_compiled(module, &tape, &mut tb)
                    .cycles_run
            });
        });
    }
    group.finish();
}

/// FWRISCV-MDS with its simulation-derived `Z'` and constraint spec — the
/// representative formal workload shared by the `formal` and
/// `certification` groups.
fn fwrisc_workload() -> (fastpath::CaseStudy, Vec<fastpath_rtl::SignalId>, UpecSpec) {
    let study = fastpath_designs::fwrisc_mds::case_study();
    let instance = &study.instance;
    let module = &instance.module;
    let mut tb = RandomTestbench::new(module, study.seed);
    if let Some(cfg) = &instance.configure_testbench {
        cfg(module, &mut tb);
    }
    for constraint in &instance.constraints {
        if let Some(r) = &constraint.restrict_testbench {
            r(module, &mut tb);
        }
    }
    let report = IftSimulation::new(study.cycles).run(module, &mut tb);
    let z_prime = report.untainted_state;
    let spec = UpecSpec {
        software_constraints: instance.constraints.iter().map(|p| p.expr).collect(),
        invariants: vec![],
        conditional_equalities: vec![],
    };
    (study, z_prime, spec)
}

fn bench_formal(c: &mut Criterion) {
    let mut group = c.benchmark_group("formal");
    group.sample_size(10);
    // A representative design whose Z' is known from simulation:
    // FWRISCV-MDS under the no-shifting constraint.
    let (study, z_prime, spec) = fwrisc_workload();
    let module = &study.instance.module;
    group.bench_function("property_check/FWRISCV-MDS", |b| {
        b.iter(|| {
            let mut upec = Upec2Safety::new(module, &spec);
            upec.check(&z_prime).holds()
        });
    });

    let boom = fastpath_designs::boom::case_study();
    let bmodule = &boom.instance.module;
    let bspec = UpecSpec {
        software_constraints: boom.instance.constraints.iter().map(|p| p.expr).collect(),
        invariants: vec![],
        conditional_equalities: vec![],
    };
    group.bench_function("elaboration/BOOM", |b| {
        b.iter(|| {
            // Elaboration cost = the model build inside the first check
            // with an empty partitioning (no solving work of note).
            let mut upec = Upec2Safety::new(bmodule, &bspec);
            let _ = upec.check(&[]);
            upec.aig_nodes()
        });
    });

    // The elaboration cache, measured head-to-head on a refinement-style
    // query sequence (shrinking Z'): `cold` rebuilds AIG + CNF + solver
    // per check (the pre-optimisation behaviour, kept as the
    // `ElaborationMode::Fresh` reference), `cached` reuses one frame
    // template and one incremental solver across all checks.
    let z_sets: Vec<Vec<_>> = (0..4)
        .map(|skip| z_prime.iter().copied().skip(skip).collect())
        .collect();
    group.bench_function("elaboration_cold/FWRISCV-MDS", |b| {
        b.iter(|| {
            let mut upec = Upec2Safety::with_mode(module, &spec, ElaborationMode::Fresh);
            let mut holds = 0u32;
            for z in &z_sets {
                holds += upec.check(z).holds() as u32;
            }
            holds
        });
    });
    group.bench_function("elaboration_cached/FWRISCV-MDS", |b| {
        b.iter(|| {
            let mut upec = Upec2Safety::new(module, &spec);
            let mut holds = 0u32;
            for z in &z_sets {
                holds += upec.check(z).holds() as u32;
            }
            holds
        });
    });
    group.finish();
}

/// Bit-blasted flat equality vs word-level guarded predicates with
/// cone-pruned product construction, head to head on the CVA6 and BOOM
/// slices. Each iteration drives one engine through a refinement-style
/// query sequence (the full state set, then progressively smaller `Z'`
/// sets as if divergent signals had been evicted), so the per-check
/// product size — not just one solve — dominates the measurement.
fn bench_product_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("product_encoding");
    group.sample_size(10);
    let studies = [
        fastpath_designs::cva6_div::case_study(),
        fastpath_designs::boom::case_study(),
    ];
    for study in &studies {
        let module = &study.instance.module;
        let spec = UpecSpec {
            software_constraints: study.instance.constraints.iter().map(|p| p.expr).collect(),
            invariants: vec![],
            conditional_equalities: vec![],
        };
        let state = module.state_signals();
        let z_sets: Vec<Vec<_>> = (0..4)
            .map(|skip| state.iter().copied().skip(skip).collect())
            .collect();
        for (label, encoding) in [("bits", UpecEncoding::Bits), ("words", UpecEncoding::Words)] {
            group.bench_function(format!("{label}/{}", study.name), |b| {
                b.iter(|| {
                    let mut upec = Upec2Safety::new(module, &spec);
                    upec.set_encoding(encoding);
                    let mut holds = 0u32;
                    for z in &z_sets {
                        holds += upec.check(z).holds() as u32;
                    }
                    holds
                });
            });
        }
    }
    group.finish();
}

/// Solves the pigeonhole instance PHP(n+1, n) — reliably UNSAT with a
/// non-trivial resolution proof — optionally logging and checking it.
fn pigeonhole(holes: usize, log: bool, check: bool) -> usize {
    use fastpath_sat::{SolveResult, Solver};
    let mut solver = Solver::new();
    if log {
        solver.enable_proof_logging();
    }
    let pigeons = holes + 1;
    let vars: Vec<_> = (0..pigeons * holes).map(|_| solver.new_var()).collect();
    for i in 0..pigeons {
        let clause: Vec<_> = (0..holes).map(|j| vars[i * holes + j].positive()).collect();
        solver.add_clause(&clause);
    }
    for j in 0..holes {
        for i1 in 0..pigeons {
            for i2 in (i1 + 1)..pigeons {
                solver.add_clause(&[
                    vars[i1 * holes + j].negative(),
                    vars[i2 * holes + j].negative(),
                ]);
            }
        }
    }
    assert_eq!(solver.solve_with(&[]), SolveResult::Unsat);
    if check {
        let proof = solver.proof().expect("logging enabled");
        fastpath_cert::check_unsat_certificate(proof.steps(), &[]).expect("proof must check");
    }
    solver.proof_len()
}

/// Proof-logging overhead (Sec. V-E style ablation for the certification
/// subsystem): the same UNSAT workload with logging off, logging on, and
/// logging plus the independent RUP replay; then the end-to-end UPEC
/// check uncertified vs certified.
fn bench_certification(c: &mut Criterion) {
    let mut group = c.benchmark_group("certification");
    group.sample_size(10);
    const HOLES: usize = 7;
    group.bench_function("php_logging_off", |b| {
        b.iter(|| pigeonhole(HOLES, false, false));
    });
    group.bench_function("php_logging_on", |b| {
        b.iter(|| pigeonhole(HOLES, true, false));
    });
    group.bench_function("php_logged_and_checked", |b| {
        b.iter(|| pigeonhole(HOLES, true, true));
    });

    let (study, z_prime, spec) = fwrisc_workload();
    let module = &study.instance.module;
    group.bench_function("upec_check_uncertified/FWRISCV-MDS", |b| {
        b.iter(|| {
            let mut upec = Upec2Safety::new(module, &spec);
            upec.check(&z_prime).holds()
        });
    });
    group.bench_function("upec_check_certified/FWRISCV-MDS", |b| {
        b.iter(|| {
            let mut upec = Upec2Safety::new(module, &spec);
            upec.enable_certification();
            upec.check_certified(&z_prime).outcome.holds()
        });
    });
    group.finish();
}

fn bench_parallel_driver(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1");
    group.sample_size(10);
    // The four cheap designs (structural / IFT completions) keep the
    // sample time sane; scheduling overhead and speed-up shape are the
    // same as for the full table.
    let studies = vec![
        fastpath_designs::sha512::case_study(),
        fastpath_designs::aes_opencores::case_study(),
        fastpath_designs::aes_secworks::case_study(),
        fastpath_designs::zipcpu_div::case_study(),
    ];
    for jobs in [1, 4] {
        group.bench_function(format!("parallel/jobs_{jobs}"), |b| {
            let opts = Table1Options {
                jobs,
                markdown: true,
                ..Table1Options::default()
            };
            b.iter(|| run_table1(&studies, &opts).len());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_hfg,
    bench_ift_simulation,
    bench_sim,
    bench_formal,
    bench_product_encoding,
    bench_certification,
    bench_parallel_driver
);
criterion_main!(benches);

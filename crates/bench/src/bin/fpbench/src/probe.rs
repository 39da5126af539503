//! The per-layer probe sequence of the traced run.
//!
//! The flows run as single calls into `fastpath`, so a span around them
//! cannot say which layer spent the time. After each job the traced run
//! therefore repeats that job's design through each layer's own public
//! entry point, one span per call: rtl, hfg, sim, formal, sat, cert.

use crate::trace::Tracer;
use crate::workload::Counts;
use fastpath::CaseStudy;
use fastpath_formal::{Upec2Safety, UpecEncoding, UpecOutcome, UpecSpec};
use fastpath_hfg::{extract_hfg, PathQuery};
use fastpath_rtl::{canonical_form, extract_cone, module_hash, parse_netlist, Module};
use fastpath_sat::{parse_dimacs, SolveResult};
use fastpath_sim::{IftSimulation, RandomTestbench, SimTape};
use std::hint::black_box;
use std::sync::Arc;

/// The front of the daemon's ingest path on netlist text: parse, hash,
/// cone extraction, then the structural analysis. Returns the module.
pub fn netlist(t: &mut Tracer, text: &str, counts: &mut Counts) -> Result<Module, String> {
    let module = t.span("rtl.parse", |_| {
        parse_netlist(text).map_err(|e| e.to_string())
    })?;
    t.span("rtl.hash", |_| {
        black_box(canonical_form(&module));
        black_box(module_hash(&module));
    });
    t.span("rtl.cone", |_| {
        for sid in module.control_outputs() {
            black_box(extract_cone(&module, &[sid]));
        }
    });
    let hfg = t.span("hfg.extract", |_| extract_hfg(&module));
    t.span("hfg.query", |_| {
        black_box(
            PathQuery::new(&hfg).no_flow_possible(&module.data_inputs(), &module.control_outputs()),
        )
    });
    *counts.entry("hfg.edges").or_default() += hfg.stats().edges as u64;
    Ok(module)
}

/// The whole sequence on a case study: [`netlist`] on its rendered
/// netlist, one IFT run with the study's configured testbench, the
/// production-encoding UPEC engine checked from the IFT-derived `Z'`
/// down to an inductive one, and, when that last check is a non-trivial
/// certified UNSAT, a fresh solve of its captured CNF and a replay of its
/// hinted proof.
pub fn study(t: &mut Tracer, study: &CaseStudy, counts: &mut Counts) -> Result<(), String> {
    let instance = &study.instance;
    let module = &instance.module;
    let text = fastpath_rtl::write_netlist(module);
    netlist(t, &text, counts)?;

    let tape = t.span("sim.compile", |_| Arc::new(SimTape::compile(module)));
    let ift = t.span("sim.ift", |_| {
        let mut tb = RandomTestbench::new(module, study.seed);
        if let Some(configure) = &instance.configure_testbench {
            configure(module, &mut tb);
        }
        for constraint in &instance.constraints {
            if let Some(restrict) = &constraint.restrict_testbench {
                restrict(module, &mut tb);
            }
        }
        IftSimulation::new(study.cycles)
            .with_policy(study.policy)
            .with_declassified(&instance.initial_declassified)
            .run_compiled(module, &tape, &mut tb)
    });

    let spec = UpecSpec {
        software_constraints: instance.constraints.iter().map(|p| p.expr).collect(),
        invariants: vec![],
        conditional_equalities: vec![],
    };
    let mut upec = t.span("formal.elab", |_| {
        let mut upec = Upec2Safety::new(module, &spec);
        upec.set_encoding(UpecEncoding::Words);
        upec.enable_certification();
        upec.enable_artifact_capture();
        upec.elaborate();
        upec
    });
    // Shrink `Z'` by each counterexample's divergent registers until it
    // is inductive (the formal-only refinement step, without the
    // inspections), so the last check is the certified UNSAT whose
    // artifact the sat and cert probes replay.
    t.span("formal.check", |_| {
        let mut z = ift.untainted_state.clone();
        while let UpecOutcome::Counterexample(cex) = upec.check_state_only(&z) {
            if cex.divergent_state.is_empty() {
                break;
            }
            z.retain(|s| !cex.divergent_state.contains(s));
        }
    });
    let Some(artifact) = upec.take_last_artifact() else {
        return Ok(());
    };
    let solved = t.span("sat.solve", |_| {
        parse_dimacs(&artifact.cnf).map(|cnf| cnf.into_solver().solve())
    });
    if solved.map_err(|e| e.to_string())? != SolveResult::Unsat {
        return Err(format!("{}: captured CNF is not UNSAT", study.name));
    }
    t.span("cert.check", |_| {
        fastpath_cert::check_hinted_unsat_artifact(&artifact.cnf, &artifact.drup)
    })
    .map_err(|e| format!("{}: captured proof rejected: {e}", study.name))?;
    Ok(())
}

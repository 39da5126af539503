//! Cross-engine differential checking.
//!
//! The compiled simulation engine ([`SimTape`] + [`CompiledSim`] /
//! [`CompiledTaintSim`]) must implement the exact same RTL and taint
//! semantics as the interpretive [`Simulator`] / [`TaintSimulator`]
//! oracle. The checkers here drive both backends with identical random
//! stimuli and compare every signal's value *and* taint mask bit for bit,
//! each cycle — they are shared between the proptest suite
//! (`tests/sim_engine_equivalence.rs`) and the `fastpath-fuzz`
//! differential oracle.
//!
//! Each checker returns `Err(description)` on the first divergence, so
//! callers can attach the failure to whatever reporting they use.

use crate::ift::IftSimulation;
use crate::simulator::Simulator;
use crate::taint::{FlowPolicy, TaintSimulator};
use crate::tape::{CompiledSim, CompiledTaintSim, SimTape};
use crate::testbench::RandomTestbench;
use fastpath_rtl::{BitVec, Module, SignalId, SignalKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn inputs_of(module: &Module) -> Vec<(SignalId, u32)> {
    module
        .signals()
        .filter(|(_, s)| s.kind == SignalKind::Input)
        .map(|(id, s)| (id, s.width))
        .collect()
}

fn random_value(rng: &mut StdRng, width: u32) -> BitVec {
    let limbs: Vec<u64> = (0..(width as usize).div_ceil(64))
        .map(|_| rng.gen())
        .collect();
    BitVec::from_limbs(width, &limbs)
}

/// Runs the plain interpreter and the compiled tape side by side for
/// `cycles` cycles of random stimuli; every signal's value must agree on
/// every cycle.
///
/// # Errors
///
/// Returns a description of the first diverging signal.
pub fn check_values(module: &Module, seed: u64, cycles: u64) -> Result<(), String> {
    let mut interp = Simulator::new(module);
    let mut comp = CompiledSim::new(module);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5117_AB1E);
    let inputs = inputs_of(module);
    for cycle in 0..cycles {
        for &(id, w) in &inputs {
            let v = random_value(&mut rng, w);
            interp.set_input(id, v.clone());
            comp.set_input(id, v);
        }
        interp.settle();
        comp.settle();
        for (id, s) in module.signals() {
            if interp.value(id) != &comp.value(id) {
                return Err(format!(
                    "{}: value of `{}` differs at cycle {} \
                     (interp {:?}, compiled {:?})",
                    module.name(),
                    s.name,
                    cycle,
                    interp.value(id),
                    comp.value(id)
                ));
            }
        }
        interp.clock();
        comp.clock();
    }
    Ok(())
}

/// Runs the taint interpreter and the compiled taint tape side by side
/// under the given policy, toggling every input's taint randomly per
/// cycle; values and taint masks must agree on every signal, every cycle.
///
/// # Errors
///
/// Returns a description of the first diverging signal.
pub fn check_taint(
    module: &Module,
    seed: u64,
    cycles: u64,
    policy: FlowPolicy,
    declassify: &[SignalId],
) -> Result<(), String> {
    let tape = Arc::new(SimTape::compile(module));
    let mut interp = TaintSimulator::new(module, policy);
    let mut comp = CompiledTaintSim::with_tape(module, Arc::clone(&tape), policy);
    for &d in declassify {
        interp.declassify(d);
        comp.declassify(d);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A17_7A17);
    let inputs = inputs_of(module);
    for cycle in 0..cycles {
        for &(id, w) in &inputs {
            let v = random_value(&mut rng, w);
            let tainted = rng.gen_bool(0.5);
            interp.set_input(id, v.clone(), tainted);
            comp.set_input(id, v, tainted);
        }
        interp.settle();
        comp.settle();
        for (id, s) in module.signals() {
            if interp.value(id) != &comp.value(id) {
                return Err(format!(
                    "{}: value of `{}` differs at cycle {} ({:?})",
                    module.name(),
                    s.name,
                    cycle,
                    policy
                ));
            }
            if interp.taint(id) != &comp.taint(id) {
                return Err(format!(
                    "{}: taint of `{}` differs at cycle {} ({:?})",
                    module.name(),
                    s.name,
                    cycle,
                    policy
                ));
            }
        }
        interp.clock();
        comp.clock();
    }
    Ok(())
}

/// Runs one [`IftSimulation`] through both engines with the same
/// testbench seed; the reports must be identical field by field.
///
/// # Errors
///
/// Returns a description of the first report field that differs.
pub fn check_ift_report(
    module: &Module,
    seed: u64,
    cycles: u64,
    policy: FlowPolicy,
    declassify: &[SignalId],
) -> Result<(), String> {
    let sim = IftSimulation::new(cycles)
        .with_policy(policy)
        .with_declassified(declassify);
    let mut tb = RandomTestbench::new(module, seed);
    let interp = sim.run(module, &mut tb);
    let mut tb = RandomTestbench::new(module, seed);
    let comp = sim.run_compiled(module, &Arc::new(SimTape::compile(module)), &mut tb);
    let name = module.name();
    if interp.violations != comp.violations {
        return Err(format!("{name}: IFT violations differ ({policy:?})"));
    }
    if interp.tainted_state != comp.tainted_state {
        return Err(format!("{name}: tainted state differs ({policy:?})"));
    }
    if interp.untainted_state != comp.untainted_state {
        return Err(format!("{name}: untainted state differs ({policy:?})"));
    }
    if interp.first_taint_cycle != comp.first_taint_cycle {
        return Err(format!("{name}: first-taint cycles differ ({policy:?})"));
    }
    Ok(())
}

/// The full cross-engine equivalence battery: values, taint under both
/// policies (with the given declassification set), and the IFT reports.
///
/// # Errors
///
/// Returns the first divergence found by any sub-check.
pub fn check_engine_equivalence(
    module: &Module,
    seed: u64,
    cycles: u64,
    declassify: &[SignalId],
) -> Result<(), String> {
    check_values(module, seed, cycles)?;
    for policy in [FlowPolicy::Precise, FlowPolicy::Conservative] {
        check_taint(module, seed, cycles, policy, declassify)?;
        check_ift_report(module, seed, cycles, policy, declassify)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_rtl::random::{random_module, RandomModuleConfig};

    #[test]
    fn random_netlists_pass_the_battery() {
        for seed in 0..8 {
            let m = random_module(seed, RandomModuleConfig::default());
            check_engine_equivalence(&m, seed, 50, &[])
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn extended_generator_output_passes_the_battery() {
        let config = RandomModuleConfig {
            wide_signals: true,
            memories: true,
            ..RandomModuleConfig::default()
        };
        for seed in 0..8 {
            let m = random_module(seed, config);
            check_engine_equivalence(&m, seed, 50, &[])
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}

//! The IFT-enhanced simulation step of FastPath (paper Sec. IV-B).
//!
//! [`IftSimulation`] runs a testbench against a design with all confidential
//! data inputs `X_D` tainted HIGH every cycle and checks the global IFT
//! property `X_D =/=> Y_C`: no control output may ever become tainted.
//!
//! The run produces an [`IftReport`] containing:
//!
//! - any property **violations** (a tainted control output = a complete,
//!   concrete propagation path from reset — the paper's "efficient
//!   debugging" advantage);
//! - the set of state signals that *did* get tainted (data propagations
//!   found by IFT, Table I column "Data Prop. Found / IFT");
//! - the **untainted state set `Z'`** (Def. 2), which seeds the UPEC-DIT
//!   induction and eliminates most of the manual partitioning effort.

use crate::taint::{FlowPolicy, TaintEngine, TaintSimulator};
use crate::tape::{CompiledTaintSim, SimTape};
use crate::testbench::Testbench;
use fastpath_rtl::{Module, SignalId, SignalRole};
use std::collections::HashSet;
use std::sync::Arc;

/// Configuration for one IFT simulation run.
#[derive(Debug)]
pub struct IftSimulation {
    /// Taint propagation policy.
    pub policy: FlowPolicy,
    /// Number of cycles to simulate.
    pub cycles: u64,
    /// Signals whose taint is cleared as computed (flow-policy
    /// declassification, e.g. intended flows into data outputs).
    pub declassify: Vec<SignalId>,
    /// Stop at the first property violation instead of completing the run.
    pub stop_at_first_violation: bool,
}

impl IftSimulation {
    /// A default configuration: precise policy, `cycles` cycles, no
    /// declassification, run to completion.
    pub fn new(cycles: u64) -> Self {
        IftSimulation {
            policy: FlowPolicy::Precise,
            cycles,
            declassify: Vec::new(),
            stop_at_first_violation: false,
        }
    }

    /// Selects the taint propagation policy.
    pub fn with_policy(mut self, policy: FlowPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Adds declassified signals.
    pub fn with_declassified(mut self, signals: &[SignalId]) -> Self {
        self.declassify.extend_from_slice(signals);
        self
    }

    /// Runs the IFT property `X_D =/=> Y_C` for `module` under `testbench`.
    ///
    /// Inputs are driven each cycle; all `DataIn` inputs carry HIGH labels,
    /// everything else LOW.
    pub fn run(&self, module: &Module, testbench: &mut dyn Testbench) -> IftReport {
        let sim = TaintSimulator::new(module, self.policy);
        self.run_inner(module, testbench, sim, None)
    }

    /// Like [`run`](Self::run), but also records every cycle — values and
    /// taint labels — into the given [`VcdRecorder`](crate::VcdRecorder),
    /// so a violation can be debugged in a waveform viewer.
    pub fn run_with_vcd(
        &self,
        module: &Module,
        testbench: &mut dyn Testbench,
        recorder: &mut crate::VcdRecorder,
    ) -> IftReport {
        let sim = TaintSimulator::new(module, self.policy);
        self.run_inner(module, testbench, sim, Some(recorder))
    }

    /// Runs on the compiled engine over a precompiled tape (which must
    /// have been compiled from this exact `module`). Sharing one tape
    /// across runs — or threads, via `Arc` clones — amortizes the
    /// compilation cost.
    pub fn run_compiled(
        &self,
        module: &Module,
        tape: &Arc<SimTape>,
        testbench: &mut dyn Testbench,
    ) -> IftReport {
        let sim = CompiledTaintSim::with_tape(module, Arc::clone(tape), self.policy);
        self.run_inner(module, testbench, sim, None)
    }

    fn run_inner<E: TaintEngine>(
        &self,
        module: &Module,
        testbench: &mut dyn Testbench,
        mut sim: E,
        mut recorder: Option<&mut crate::VcdRecorder>,
    ) -> IftReport {
        let data_inputs: HashSet<SignalId> = module.data_inputs().into_iter().collect();
        let control_outputs = module.control_outputs();

        for &d in &self.declassify {
            sim.declassify(d);
        }

        let mut violations = Vec::new();
        let mut first_taint_cycle: Vec<Option<u64>> = vec![None; module.signal_count()];

        'cycles: for cycle in 0..self.cycles {
            for (input, value) in testbench.drive(cycle) {
                let tainted = data_inputs.contains(&input);
                sim.drive_input(input, value, tainted);
            }
            sim.settle();
            if let Some(rec) = recorder.as_deref_mut() {
                rec.sample_taint(&sim);
            }
            // Record first-taint cycles for combinational signals and check
            // the property on the settled outputs.
            for (id, _) in module.signals() {
                if sim.is_tainted(id) && first_taint_cycle[id.index()].is_none() {
                    first_taint_cycle[id.index()] = Some(cycle);
                }
            }
            for &yc in &control_outputs {
                if sim.is_tainted(yc) {
                    let already_reported = violations.iter().any(|v: &IftViolation| v.output == yc);
                    if !already_reported {
                        violations.push(IftViolation { output: yc, cycle });
                        if self.stop_at_first_violation {
                            break 'cycles;
                        }
                    }
                }
            }
            sim.clock();
            // Registers latch at the edge; record their first-taint cycle
            // against the cycle whose inputs caused it.
            for reg in module.state_signals() {
                if sim.is_tainted(reg) && first_taint_cycle[reg.index()].is_none() {
                    first_taint_cycle[reg.index()] = Some(cycle);
                }
            }
        }

        let tainted_state: Vec<SignalId> = module
            .state_signals()
            .into_iter()
            .filter(|&z| first_taint_cycle[z.index()].is_some())
            .collect();
        let untainted_state: Vec<SignalId> = module
            .state_signals()
            .into_iter()
            .filter(|&z| first_taint_cycle[z.index()].is_none())
            .collect();

        IftReport {
            cycles_run: self.cycles,
            violations,
            tainted_state,
            untainted_state,
            first_taint_cycle,
        }
    }
}

/// A violation of `X_D =/=> Y_C`: a control output became tainted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IftViolation {
    /// The tainted control output `y_c`.
    pub output: SignalId,
    /// The first cycle at which it was observed tainted.
    pub cycle: u64,
}

/// Result of an IFT-enhanced simulation run.
#[derive(Clone, Debug)]
pub struct IftReport {
    /// Cycles simulated (may be fewer if stopped at a violation).
    pub cycles_run: u64,
    /// Control outputs that received taint, i.e. property violations.
    pub violations: Vec<IftViolation>,
    /// State signals influenced by `X_D` during the run.
    pub tainted_state: Vec<SignalId>,
    /// The untainted state set `Z'` (Def. 2) handed to the formal step.
    pub untainted_state: Vec<SignalId>,
    /// First cycle each signal became tainted (`None` = never), indexed by
    /// signal.
    pub first_taint_cycle: Vec<Option<u64>>,
}

impl IftReport {
    /// `true` iff the property `X_D =/=> Y_C` held throughout the run.
    pub fn property_holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of state signals reached by the data (Table I "IFT" column).
    pub fn propagation_count(&self) -> usize {
        self.tainted_state.len()
    }

    /// Pretty one-line summary.
    pub fn summary(&self, module: &Module) -> String {
        format!(
            "{}: {} cycles, {} tainted / {} untainted state signals, {} \
             violation(s)",
            module.name(),
            self.cycles_run,
            self.tainted_state.len(),
            self.untainted_state.len(),
            self.violations.len()
        )
    }
}

/// Checks a user-specified no-flow assertion `{srcs} =/=> {dsts}` over a
/// fixed number of cycles: returns `Ok(())` if no destination ever becomes
/// tainted when exactly `srcs` are tainted, or the first offending
/// destination.
///
/// This is the assertion form of hardware IFT described in Sec. III-B,
/// generalized beyond the `X_D`/`Y_C` partitioning.
///
/// # Errors
///
/// Returns the violating destination and cycle as `Err((dst, cycle))`.
pub fn check_no_flow(
    module: &Module,
    testbench: &mut dyn Testbench,
    srcs: &[SignalId],
    dsts: &[SignalId],
    cycles: u64,
    policy: FlowPolicy,
) -> Result<(), (SignalId, u64)> {
    let src_set: HashSet<SignalId> = srcs.iter().copied().collect();
    let mut sim = TaintSimulator::new(module, policy);
    for cycle in 0..cycles {
        for (input, value) in testbench.drive(cycle) {
            sim.set_input(input, value, src_set.contains(&input));
        }
        sim.settle();
        for &d in dsts {
            if sim.is_tainted(d) {
                return Err((d, cycle));
            }
        }
        sim.clock();
        for &d in dsts {
            if sim.is_tainted(d) {
                return Err((d, cycle));
            }
        }
    }
    Ok(())
}

/// Returns the signals whose role makes them observation targets for the
/// data-obliviousness property (all `ControlOut` signals).
pub fn observation_targets(module: &Module) -> Vec<SignalId> {
    module.signals_of_role(SignalRole::ControlOut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::RandomTestbench;
    use fastpath_rtl::ModuleBuilder;

    /// A leaky divider-like toy: `busy` drops early when the data is zero.
    fn early_termination_module() -> Module {
        let mut b = ModuleBuilder::new("leaky");
        let start = b.control_input("start", 1);
        let data = b.data_input("data", 8);
        let counter = b.reg("counter", 4, 0);
        let counter_sig = b.sig(counter);
        let data_sig = b.sig(data);
        let start_sig = b.sig(start);
        // counter <= start ? (data == 0 ? 1 : 8) : max(counter-1, 0)
        let zero8 = b.lit(8, 0);
        let is_zero = b.eq(data_sig, zero8);
        let one4 = b.lit(4, 1);
        let eight4 = b.lit(4, 8);
        let initial = b.mux(is_zero, one4, eight4);
        let zero4 = b.lit(4, 0);
        let counter_is_zero = b.eq(counter_sig, zero4);
        let dec = b.sub(counter_sig, one4);
        let dec_clamped = b.mux(counter_is_zero, zero4, dec);
        let next = b.mux(start_sig, initial, dec_clamped);
        b.set_next(counter, next).expect("drive");
        let busy = b.ne(counter_sig, zero4);
        b.control_output("busy", busy);
        b.build().expect("valid")
    }

    /// An oblivious counterpart: latency never depends on the data.
    fn oblivious_module() -> Module {
        let mut b = ModuleBuilder::new("oblivious");
        let start = b.control_input("start", 1);
        let data = b.data_input("data", 8);
        let acc = b.reg("acc", 8, 0);
        let acc_sig = b.sig(acc);
        let data_sig = b.sig(data);
        let sum = b.add(acc_sig, data_sig);
        let start_sig = b.sig(start);
        b.set_next_if(acc, start_sig, sum).expect("drive");
        let counter = b.reg("counter", 4, 0);
        let counter_sig = b.sig(counter);
        let one = b.lit(4, 1);
        let inc = b.add(counter_sig, one);
        b.set_next(counter, inc).expect("drive");
        let zero4 = b.lit(4, 0);
        let busy = b.ne(counter_sig, zero4);
        b.control_output("busy", busy);
        b.data_output("result", acc_sig);
        b.build().expect("valid")
    }

    #[test]
    fn detects_timing_leak() {
        let m = early_termination_module();
        let mut tb = RandomTestbench::new(&m, 11);
        let report = IftSimulation::new(200).run(&m, &mut tb);
        assert!(!report.property_holds());
        let busy = m.signal_by_name("busy").expect("busy");
        assert_eq!(report.violations[0].output, busy);
    }

    #[test]
    fn oblivious_design_passes() {
        let m = oblivious_module();
        let mut tb = RandomTestbench::new(&m, 11);
        let report = IftSimulation::new(200).run(&m, &mut tb);
        assert!(report.property_holds(), "{:?}", report.violations);
        // The accumulator is tainted, the timing counter is not.
        let acc = m.signal_by_name("acc").expect("acc");
        let counter = m.signal_by_name("counter").expect("counter");
        assert!(report.tainted_state.contains(&acc));
        assert!(report.untainted_state.contains(&counter));
    }

    #[test]
    fn untainted_state_partitions_all_state() {
        let m = oblivious_module();
        let mut tb = RandomTestbench::new(&m, 5);
        let report = IftSimulation::new(50).run(&m, &mut tb);
        let total = report.tainted_state.len() + report.untainted_state.len();
        assert_eq!(total, m.state_signals().len());
    }

    #[test]
    fn stop_at_first_violation_stops_early() {
        let m = early_termination_module();
        let mut tb = RandomTestbench::new(&m, 11);
        let mut cfg = IftSimulation::new(1000);
        cfg.stop_at_first_violation = true;
        let report = cfg.run(&m, &mut tb);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn check_no_flow_assertion_form() {
        let m = oblivious_module();
        let data = m.signal_by_name("data").expect("data");
        let busy = m.signal_by_name("busy").expect("busy");
        let result = m.signal_by_name("result").expect("result");
        let mut tb = RandomTestbench::new(&m, 3);
        assert!(check_no_flow(&m, &mut tb, &[data], &[busy], 100, FlowPolicy::Precise).is_ok());
        let mut tb = RandomTestbench::new(&m, 3);
        // Data is *supposed* to flow into the result.
        assert!(check_no_flow(&m, &mut tb, &[data], &[result], 100, FlowPolicy::Precise).is_err());
    }

    use fastpath_rtl::Module;
}

#[cfg(test)]
mod vcd_tests {
    use super::*;
    use crate::testbench::RandomTestbench;
    use crate::VcdRecorder;
    use fastpath_rtl::ModuleBuilder;

    #[test]
    fn violating_run_produces_a_taint_waveform() {
        // data flows straight to a control output: immediate violation.
        let mut b = ModuleBuilder::new("leak");
        let d = b.data_input("d", 4);
        let ds = b.sig(d);
        let r = b.reg("r", 4, 0);
        b.set_next(r, ds).expect("drive");
        let rs = b.sig(r);
        let any = b.red_or(rs);
        b.control_output("busy", any);
        let m = b.build().expect("valid");
        let mut tb = RandomTestbench::new(&m, 1);
        let mut rec = VcdRecorder::all_signals(&m);
        let report = IftSimulation::new(20).run_with_vcd(&m, &mut tb, &mut rec);
        assert!(!report.property_holds());
        assert_eq!(rec.len(), 20);
        let text = rec.render();
        assert!(text.contains("busy_taint"));
        assert!(text.contains("r_taint"));
        // The taint companion of `r` must eventually go high.
        assert!(text.contains("b1111"));
    }
}

//! Cycle-accurate functional simulation of a [`Module`].
//!
//! The simulator holds one value per signal. A cycle proceeds as:
//!
//! 1. the caller drives the primary inputs ([`Simulator::set_input`]);
//! 2. combinational wires and outputs settle in topological order
//!    ([`Simulator::settle`]);
//! 3. the clock edge commits every register's next-state expression
//!    ([`Simulator::clock`]).
//!
//! [`Simulator::step`] performs 2 + 3 in one call.

use fastpath_rtl::{BitVec, Module, SignalId, SignalKind};

/// A cycle-based two-valued simulator.
///
/// # Examples
///
/// ```
/// use fastpath_rtl::{BitVec, ModuleBuilder};
/// use fastpath_sim::Simulator;
///
/// # fn main() -> Result<(), fastpath_rtl::RtlError> {
/// let mut b = ModuleBuilder::new("ctr");
/// let count = b.reg("count", 8, 0);
/// let count_sig = b.sig(count);
/// let one = b.lit(8, 1);
/// let next = b.add(count_sig, one);
/// b.set_next(count, next)?;
/// let module = b.build()?;
/// let mut sim = Simulator::new(&module);
/// for _ in 0..5 {
///     sim.step();
/// }
/// assert_eq!(sim.value(count).to_u64(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'m> {
    module: &'m Module,
    values: Vec<BitVec>,
    memo: Vec<Option<BitVec>>,
    cycle: u64,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator in the reset state: registers hold their reset
    /// values, inputs and combinational signals are zero (inputs must be
    /// driven before the first [`step`](Self::step)).
    pub fn new(module: &'m Module) -> Self {
        let values = module
            .signals()
            .map(|(_, s)| match (&s.init, s.kind) {
                (Some(init), SignalKind::Register) => init.clone(),
                _ => BitVec::zero(s.width),
            })
            .collect();
        Simulator {
            module,
            values,
            memo: vec![None; module.expr_count()],
            cycle: 0,
        }
    }

    /// The module under simulation.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The number of completed clock cycles since reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Returns to the reset state.
    pub fn reset(&mut self) {
        for (id, s) in self.module.signals() {
            self.values[id.index()] = match (&s.init, s.kind) {
                (Some(init), SignalKind::Register) => init.clone(),
                _ => BitVec::zero(s.width),
            };
        }
        self.cycle = 0;
    }

    /// Drives a primary input for the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an input or the width does not match.
    pub fn set_input(&mut self, id: SignalId, value: BitVec) {
        let signal = self.module.signal(id);
        assert_eq!(
            signal.kind,
            SignalKind::Input,
            "`{}` is not an input",
            signal.name
        );
        assert_eq!(
            signal.width,
            value.width(),
            "width mismatch driving `{}`",
            signal.name
        );
        self.values[id.index()] = value;
    }

    /// Convenience: drives an input with a `u64` (truncated to width).
    pub fn set_input_u64(&mut self, id: SignalId, value: u64) {
        let width = self.module.signal(id).width;
        self.set_input(id, BitVec::from_u64(width, value));
    }

    /// The current value of any signal (after the last settle/step).
    pub fn value(&self, id: SignalId) -> &BitVec {
        &self.values[id.index()]
    }

    /// Recomputes all combinational signals from the current inputs and
    /// register values.
    pub fn settle(&mut self) {
        self.memo.iter_mut().for_each(|m| *m = None);
        for i in 0..self.module.comb_order().len() {
            let sig = self.module.comb_order()[i];
            let driver = self.module.driver(sig).expect("comb signal driven");
            let value = self.module.eval_memo(driver, &self.values, &mut self.memo);
            self.values[sig.index()] = value;
        }
    }

    /// Commits all registers to their next-state values (a clock edge).
    /// Assumes [`settle`](Self::settle) ran for the current input values.
    pub fn clock(&mut self) {
        self.memo.iter_mut().for_each(|m| *m = None);
        let nexts: Vec<(SignalId, BitVec)> = self
            .module
            .state_signals()
            .into_iter()
            .map(|reg| {
                let driver = self.module.driver(reg).expect("reg driven");
                let v = self.module.eval_memo(driver, &self.values, &mut self.memo);
                (reg, v)
            })
            .collect();
        for (reg, v) in nexts {
            self.values[reg.index()] = v;
        }
        self.cycle += 1;
    }

    /// Settles combinational logic, then clocks the registers.
    pub fn step(&mut self) {
        self.settle();
        self.clock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_rtl::ModuleBuilder;

    fn counter_with_enable() -> Module {
        let mut b = ModuleBuilder::new("ctr");
        let en = b.input("en", 1);
        let count = b.reg("count", 8, 0);
        let count_sig = b.sig(count);
        let one = b.lit(8, 1);
        let inc = b.add(count_sig, one);
        let en_sig = b.sig(en);
        b.set_next_if(count, en_sig, inc).expect("drive");
        let wrapped = b.eq_lit(count_sig, 0xFF);
        b.output("wrapped", wrapped);
        b.build().expect("valid")
    }

    use fastpath_rtl::Module;

    #[test]
    fn counter_counts_when_enabled() {
        let m = counter_with_enable();
        let en = m.signal_by_name("en").expect("en");
        let count = m.signal_by_name("count").expect("count");
        let mut sim = Simulator::new(&m);
        sim.set_input_u64(en, 1);
        for _ in 0..10 {
            sim.step();
        }
        assert_eq!(sim.value(count).to_u64(), 10);
        sim.set_input_u64(en, 0);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.value(count).to_u64(), 10);
    }

    #[test]
    fn outputs_settle_before_clock() {
        let m = counter_with_enable();
        let en = m.signal_by_name("en").expect("en");
        let wrapped = m.signal_by_name("wrapped").expect("wrapped");
        let mut sim = Simulator::new(&m);
        sim.set_input_u64(en, 1);
        for _ in 0..255 {
            sim.step();
        }
        sim.settle();
        assert!(sim.value(wrapped).is_true());
        sim.step();
        sim.settle();
        assert!(!sim.value(wrapped).is_true());
    }

    #[test]
    fn reset_restores_initial_state() {
        let m = counter_with_enable();
        let en = m.signal_by_name("en").expect("en");
        let count = m.signal_by_name("count").expect("count");
        let mut sim = Simulator::new(&m);
        sim.set_input_u64(en, 1);
        sim.step();
        sim.step();
        assert_eq!(sim.cycle(), 2);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert!(sim.value(count).is_zero());
    }

    #[test]
    #[should_panic(expected = "is not an input")]
    fn driving_a_register_panics() {
        let m = counter_with_enable();
        let count = m.signal_by_name("count").expect("count");
        let mut sim = Simulator::new(&m);
        sim.set_input(count, BitVec::from_u64(8, 1));
    }
}

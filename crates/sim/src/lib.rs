//! # fastpath-sim
//!
//! Cycle-accurate simulation and Information Flow Tracking (IFT) for the
//! FastPath hybrid verification flow (paper Sec. III-B / IV-B).
//!
//! The crate offers two simulators over `fastpath-rtl` modules:
//!
//! - [`Simulator`]: plain two-valued functional simulation;
//! - [`TaintSimulator`]: IFT-enhanced simulation where every signal carries
//!   a per-bit taint label, under a [`FlowPolicy`] (precise cell-level rules
//!   or a conservative any-taint-propagates rule).
//!
//! Both have **compiled** counterparts — [`CompiledSim`] and
//! [`CompiledTaintSim`] — that execute a levelized instruction tape
//! ([`SimTape`]) over a flat `u64` arena instead of walking the
//! expression tree, with an allocation-free fast path for signals at most
//! 64 bits wide. The flow simulates on the compiled tape; the
//! interpretive simulators are the reference oracle that [`diff`] and the
//! engine-equivalence tests compare it against.
//!
//! On top of these, [`IftSimulation`] runs the FastPath IFT step: taint all
//! data inputs `X_D`, simulate a [`Testbench`], check `X_D =/=> Y_C`, and
//! extract the untainted state set `Z'` that seeds the UPEC-DIT induction.
//!
//! # Examples
//!
//! ```
//! use fastpath_rtl::ModuleBuilder;
//! use fastpath_sim::{IftSimulation, RandomTestbench};
//!
//! # fn main() -> Result<(), fastpath_rtl::RtlError> {
//! // A design whose handshake is independent of the data it processes.
//! let mut b = ModuleBuilder::new("demo");
//! let data = b.data_input("data", 16);
//! let acc = b.reg("acc", 16, 0);
//! let d = b.sig(data);
//! let a = b.sig(acc);
//! let sum = b.add(a, d);
//! b.set_next(acc, sum)?;
//! b.data_output("result", a);
//! let tick = b.reg("tick", 1, 0);
//! let t = b.sig(tick);
//! let nt = b.not(t);
//! b.set_next(tick, nt)?;
//! b.control_output("phase", t);
//! let module = b.build()?;
//!
//! let mut tb = RandomTestbench::new(&module, 42);
//! let report = IftSimulation::new(100).run(&module, &mut tb);
//! assert!(report.property_holds());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod compile;
pub mod diff;
mod ift;
mod simulator;
mod taint;
mod tape;
mod testbench;
mod vcd;

pub use ift::{check_no_flow, observation_targets, IftReport, IftSimulation, IftViolation};
pub use simulator::Simulator;
pub use taint::{FlowPolicy, Labeled, TaintEngine, TaintSimulator};
pub use tape::{CompiledSim, CompiledTaintSim, SimTape};
pub use testbench::{RandomTestbench, Testbench};
pub use vcd::VcdRecorder;

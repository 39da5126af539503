//! IFT-enhanced simulation: taint-label propagation alongside values.
//!
//! Every signal carries, in addition to its functional value, a *taint mask*
//! of the same width: bit `i` of the mask is set iff bit `i` of the value
//! may have been influenced by a tainted source (label HIGH in the paper's
//! terminology, Sec. III-B). Two propagation policies are provided:
//!
//! - [`FlowPolicy::Precise`] uses per-operator rules that account for
//!   controlling values (an untainted 0 into an AND kills taint, a mux with
//!   an untainted selector only propagates the chosen branch, equal mux
//!   branches mask a tainted selector, …).
//! - [`FlowPolicy::Conservative`] taints the whole result whenever any input
//!   bit is tainted. This reproduces the "overly conservative flow policy"
//!   false positive the paper reports for the hardened CVA6 divider.
//!
//! Both policies **over-approximate** true information flow, so an
//! untainted signal at the end of simulation genuinely received no
//! influence from the sources *for the stimuli exercised*.

use fastpath_rtl::{BinaryOp, BitVec, Expr, ExprId, Module, SignalId, SignalKind, UnaryOp};
use std::collections::HashSet;

/// The common interface of the interpretive [`TaintSimulator`] and the
/// compiled [`CompiledTaintSim`](crate::CompiledTaintSim): everything the
/// IFT step ([`IftSimulation`](crate::IftSimulation)) and the VCD recorder
/// need to drive a design and observe taint.
pub trait TaintEngine {
    /// Drives an input; `tainted` taints all bits (HIGH) or none (LOW).
    fn drive_input(&mut self, id: SignalId, value: BitVec, tainted: bool);
    /// Settles combinational logic, propagating taint.
    fn settle(&mut self);
    /// Clocks the registers, committing value and taint.
    fn clock(&mut self);
    /// Marks a signal as declassified (taint cleared as computed).
    fn declassify(&mut self, id: SignalId);
    /// `true` iff any bit of the signal is currently tainted.
    fn is_tainted(&self, id: SignalId) -> bool;
    /// An owned copy of the signal's current value.
    fn value_bits(&self, id: SignalId) -> BitVec;
    /// An owned copy of the signal's current taint mask.
    fn taint_bits(&self, id: SignalId) -> BitVec;
}

/// Taint propagation policy.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FlowPolicy {
    /// Cell-level precise rules (default).
    #[default]
    Precise,
    /// Any tainted input bit taints the entire output.
    Conservative,
}

/// A value/taint pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Labeled {
    /// Functional value.
    pub value: BitVec,
    /// Taint mask (same width; set bit = HIGH label).
    pub taint: BitVec,
}

impl Labeled {
    /// An untainted value.
    pub fn clean(value: BitVec) -> Self {
        let taint = BitVec::zero(value.width());
        Labeled { value, taint }
    }

    /// A fully tainted value.
    pub fn tainted(value: BitVec) -> Self {
        let taint = BitVec::ones(value.width());
        Labeled { value, taint }
    }

    /// `true` iff any bit is tainted.
    pub fn is_tainted(&self) -> bool {
        !self.taint.is_zero()
    }
}

/// IFT-enhanced simulator: like
/// [`Simulator`](crate::Simulator) but tracking a taint label per bit.
#[derive(Debug)]
pub struct TaintSimulator<'m> {
    module: &'m Module,
    values: Vec<BitVec>,
    taints: Vec<BitVec>,
    memo: Vec<Option<Labeled>>,
    policy: FlowPolicy,
    declassified: HashSet<SignalId>,
    cycle: u64,
}

impl<'m> TaintSimulator<'m> {
    /// Creates an IFT simulator in the reset state with no taint anywhere.
    pub fn new(module: &'m Module, policy: FlowPolicy) -> Self {
        let values: Vec<BitVec> = module
            .signals()
            .map(|(_, s)| match (&s.init, s.kind) {
                (Some(init), SignalKind::Register) => init.clone(),
                _ => BitVec::zero(s.width),
            })
            .collect();
        let taints = module
            .signals()
            .map(|(_, s)| BitVec::zero(s.width))
            .collect();
        TaintSimulator {
            module,
            values,
            taints,
            memo: vec![None; module.expr_count()],
            policy,
            declassified: HashSet::new(),
            cycle: 0,
        }
    }

    /// The module under simulation.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The active flow policy.
    pub fn policy(&self) -> FlowPolicy {
        self.policy
    }

    /// Completed clock cycles since reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Marks a signal as declassified: its taint is cleared after every
    /// settle and clock. This models a *flow policy* restriction (e.g.
    /// "flows into the data result are intended").
    pub fn declassify(&mut self, id: SignalId) {
        self.declassified.insert(id);
    }

    /// Drives an input with an explicit taint mask.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an input or widths mismatch.
    pub fn set_input_labeled(&mut self, id: SignalId, labeled: Labeled) {
        let signal = self.module.signal(id);
        assert_eq!(
            signal.kind,
            SignalKind::Input,
            "`{}` is not an input",
            signal.name
        );
        assert_eq!(signal.width, labeled.value.width(), "value width");
        assert_eq!(signal.width, labeled.taint.width(), "taint width");
        self.values[id.index()] = labeled.value;
        self.taints[id.index()] = labeled.taint;
    }

    /// Drives an input; `tainted` taints all bits (HIGH) or none (LOW).
    pub fn set_input(&mut self, id: SignalId, value: BitVec, tainted: bool) {
        let labeled = if tainted {
            Labeled::tainted(value)
        } else {
            Labeled::clean(value)
        };
        self.set_input_labeled(id, labeled);
    }

    /// Convenience `u64` variant of [`set_input`](Self::set_input).
    pub fn set_input_u64(&mut self, id: SignalId, value: u64, tainted: bool) {
        let width = self.module.signal(id).width;
        self.set_input(id, BitVec::from_u64(width, value), tainted);
    }

    /// The functional value of a signal.
    pub fn value(&self, id: SignalId) -> &BitVec {
        &self.values[id.index()]
    }

    /// The taint mask of a signal.
    pub fn taint(&self, id: SignalId) -> &BitVec {
        &self.taints[id.index()]
    }

    /// `true` iff any bit of the signal is tainted.
    pub fn is_tainted(&self, id: SignalId) -> bool {
        !self.taints[id.index()].is_zero()
    }

    /// All currently tainted signals.
    pub fn tainted_signals(&self) -> Vec<SignalId> {
        self.module
            .signals()
            .filter(|(id, _)| self.is_tainted(*id))
            .map(|(id, _)| id)
            .collect()
    }

    /// Settles combinational logic, propagating taint.
    ///
    /// Declassified signals have their taint cleared *as they are computed*,
    /// so downstream consumers within the same cycle see them as LOW.
    pub fn settle(&mut self) {
        // Declassified inputs are cleared up front.
        for &id in &self.declassified {
            if self.module.signal(id).kind == SignalKind::Input {
                let width = self.module.signal(id).width;
                self.taints[id.index()] = BitVec::zero(width);
            }
        }
        self.memo.iter_mut().for_each(|m| *m = None);
        for i in 0..self.module.comb_order().len() {
            let sig = self.module.comb_order()[i];
            let driver = self.module.driver(sig).expect("comb driven");
            let labeled = self.eval(driver);
            self.values[sig.index()] = labeled.value;
            self.taints[sig.index()] = if self.declassified.contains(&sig) {
                BitVec::zero(labeled.taint.width())
            } else {
                labeled.taint
            };
            // No memo invalidation is needed: consumers of `sig` come later
            // in topological order, so `Expr::Signal(sig)` is first
            // memoized only after the (possibly declassified) label above
            // has been committed.
        }
    }

    /// Clocks the registers, committing value and taint.
    pub fn clock(&mut self) {
        self.memo.iter_mut().for_each(|m| *m = None);
        let nexts: Vec<(SignalId, Labeled)> = self
            .module
            .state_signals()
            .into_iter()
            .map(|reg| {
                let driver = self.module.driver(reg).expect("reg driven");
                (reg, self.eval(driver))
            })
            .collect();
        for (reg, labeled) in nexts {
            self.values[reg.index()] = labeled.value;
            self.taints[reg.index()] = if self.declassified.contains(&reg) {
                BitVec::zero(labeled.taint.width())
            } else {
                labeled.taint
            };
        }
        self.cycle += 1;
    }

    /// Settle + clock.
    pub fn step(&mut self) {
        self.settle();
        self.clock();
    }

    fn eval(&mut self, root: ExprId) -> Labeled {
        if let Some(l) = &self.memo[root.index()] {
            return l.clone();
        }
        let labeled = self.eval_uncached(root);
        self.memo[root.index()] = Some(labeled.clone());
        labeled
    }

    fn eval_uncached(&mut self, root: ExprId) -> Labeled {
        // Clone to end the borrow of the arena before recursing.
        let expr = self.module.expr(root).clone();
        match expr {
            Expr::Const(v) => Labeled::clean(v),
            Expr::Signal(s) => Labeled {
                value: self.values[s.index()].clone(),
                taint: self.taints[s.index()].clone(),
            },
            Expr::Unary(op, a) => {
                let a = self.eval(a);
                label_unary(self.policy, op, &a)
            }
            Expr::Binary(op, a, b) => {
                let a = self.eval(a);
                let b = self.eval(b);
                label_binary(self.policy, op, &a, &b)
            }
            Expr::Mux {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.eval(cond);
                let t = self.eval(then_expr);
                let e = self.eval(else_expr);
                label_mux(self.policy, &c, &t, &e)
            }
            Expr::Slice { arg, hi, lo } => {
                let a = self.eval(arg);
                Labeled {
                    value: a.value.slice(hi, lo),
                    taint: a.taint.slice(hi, lo),
                }
            }
            Expr::Concat(hi, lo) => {
                let h = self.eval(hi);
                let l = self.eval(lo);
                Labeled {
                    value: h.value.concat(&l.value),
                    taint: h.taint.concat(&l.taint),
                }
            }
            Expr::Zext { arg, width } => {
                let a = self.eval(arg);
                Labeled {
                    value: a.value.zext(width),
                    taint: a.taint.zext(width),
                }
            }
            Expr::Sext { arg, width } => {
                let a = self.eval(arg);
                Labeled {
                    value: a.value.sext(width),
                    // Replicated sign bits inherit the sign bit's taint,
                    // which is exactly sign-extension of the mask.
                    taint: a.taint.sext(width),
                }
            }
        }
    }
}

impl TaintEngine for TaintSimulator<'_> {
    fn drive_input(&mut self, id: SignalId, value: BitVec, tainted: bool) {
        self.set_input(id, value, tainted);
    }

    fn settle(&mut self) {
        TaintSimulator::settle(self);
    }

    fn clock(&mut self) {
        TaintSimulator::clock(self);
    }

    fn declassify(&mut self, id: SignalId) {
        TaintSimulator::declassify(self, id);
    }

    fn is_tainted(&self, id: SignalId) -> bool {
        TaintSimulator::is_tainted(self, id)
    }

    fn value_bits(&self, id: SignalId) -> BitVec {
        self.value(id).clone()
    }

    fn taint_bits(&self, id: SignalId) -> BitVec {
        self.taint(id).clone()
    }
}

/// The conservative policy's single rule: any tainted input taints the
/// whole result.
fn conservative(value: BitVec, inputs: &[&Labeled]) -> Labeled {
    if inputs.iter().any(|l| l.is_tainted()) {
        Labeled::tainted(value)
    } else {
        Labeled::clean(value)
    }
}

/// Per-op taint kernel for unary operators in the interpretive
/// [`TaintSimulator`]: the reference the compiled tape's `u64` and
/// multi-limb kernels are checked against.
fn label_unary(policy: FlowPolicy, op: UnaryOp, a: &Labeled) -> Labeled {
    use fastpath_rtl::UnaryOp::*;
    let value = match op {
        Not => !&a.value,
        Neg => a.value.wrapping_neg(),
        RedAnd => a.value.reduce_and(),
        RedOr => a.value.reduce_or(),
        RedXor => a.value.reduce_xor(),
    };
    if policy == FlowPolicy::Conservative {
        return conservative(value, &[a]);
    }
    let taint = match op {
        Not => a.taint.clone(),
        Neg => carry_taint(&a.taint),
        RedAnd => {
            // A definite (untainted) 0 bit forces the result to 0.
            let forced_zero = (0..a.value.width()).any(|i| !a.taint.bit(i) && !a.value.bit(i));
            BitVec::from_bool(!forced_zero && !a.taint.is_zero())
        }
        RedOr => {
            // A definite 1 bit forces the result to 1.
            let forced_one = (0..a.value.width()).any(|i| !a.taint.bit(i) && a.value.bit(i));
            BitVec::from_bool(!forced_one && !a.taint.is_zero())
        }
        RedXor => BitVec::from_bool(!a.taint.is_zero()),
    };
    Labeled { value, taint }
}

/// Per-op taint kernel for binary operators (see [`label_unary`]).
fn label_binary(policy: FlowPolicy, op: BinaryOp, a: &Labeled, b: &Labeled) -> Labeled {
    use fastpath_rtl::BinaryOp::*;
    let value = fastpath_rtl::eval_binary(op, &a.value, &b.value);
    if policy == FlowPolicy::Conservative {
        return conservative(value, &[a, b]);
    }
    let taint = match op {
        And => {
            // Tainted bit passes only if the other side could be 1.
            let tt = &a.taint & &b.taint;
            let ta = &a.taint & &b.value;
            let tb = &b.taint & &a.value;
            &(&tt | &ta) | &tb
        }
        Or => {
            // Tainted bit passes only if the other side could be 0.
            let tt = &a.taint & &b.taint;
            let ta = &a.taint & &!&b.value;
            let tb = &b.taint & &!&a.value;
            &(&tt | &ta) | &tb
        }
        Xor => &a.taint | &b.taint,
        Add | Sub => carry_taint(&(&a.taint | &b.taint)),
        Mul => {
            if a.taint.is_zero() && b.taint.is_zero() {
                BitVec::zero(value.width())
            } else if (a.taint.is_zero() && a.value.is_zero())
                || (b.taint.is_zero() && b.value.is_zero())
            {
                // Multiplication by a definite zero yields zero.
                BitVec::zero(value.width())
            } else {
                carry_taint(&(&a.taint | &b.taint))
            }
        }
        Shl | Lshr | Ashr => {
            if !b.taint.is_zero() {
                // Taint-steered shift amount: unless the shifted value
                // is a definite zero, the whole result is tainted.
                if a.taint.is_zero() && a.value.is_zero() {
                    Labeled::clean(value.clone()).taint
                } else {
                    BitVec::ones(value.width())
                }
            } else {
                let amount = b.value.try_to_u64().unwrap_or(u64::MAX);
                match op {
                    Shl => a.taint.shl(amount),
                    Lshr => a.taint.lshr(amount),
                    Ashr => a.taint.ashr(amount),
                    _ => unreachable!(),
                }
            }
        }
        Eq | Ne => {
            // If any bit position is untainted on both sides and the
            // values differ there, the comparison outcome is fixed.
            let both_clean = &!&a.taint & &!&b.taint;
            let diff = &a.value ^ &b.value;
            let determined = !(&both_clean & &diff).is_zero();
            let any_taint = !a.taint.is_zero() || !b.taint.is_zero();
            BitVec::from_bool(!determined && any_taint)
        }
        Ult | Ule | Slt | Sle => BitVec::from_bool(!a.taint.is_zero() || !b.taint.is_zero()),
    };
    Labeled { value, taint }
}

/// Per-op taint kernel for the 2:1 mux (see [`label_unary`]).
fn label_mux(policy: FlowPolicy, c: &Labeled, t: &Labeled, e: &Labeled) -> Labeled {
    let take_then = c.value.is_true();
    let value = if take_then {
        t.value.clone()
    } else {
        e.value.clone()
    };
    if policy == FlowPolicy::Conservative {
        return conservative(value, &[c, t, e]);
    }
    if !c.is_tainted() {
        let taint = if take_then {
            t.taint.clone()
        } else {
            e.taint.clone()
        };
        return Labeled { value, taint };
    }
    // Tainted selector: a bit leaks iff the branches can differ there.
    let branch_diff = &t.value ^ &e.value;
    let taint = &(&t.taint | &e.taint) | &branch_diff;
    Labeled { value, taint }
}

/// Models carry propagation: taint spreads from the lowest tainted bit to
/// all more-significant bits.
pub(crate) fn carry_taint(taint: &BitVec) -> BitVec {
    let width = taint.width();
    let mut out = BitVec::zero(width);
    let mut propagating = false;
    for i in 0..width {
        propagating |= taint.bit(i);
        if propagating {
            out.set_bit(i, true);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_rtl::ModuleBuilder;

    /// Builds `out = f(a, b)` for a closure over the builder, returning the
    /// module and the three signal ids.
    fn binop_module(
        f: impl Fn(&mut ModuleBuilder, ExprId, ExprId) -> ExprId,
        width: u32,
    ) -> (fastpath_rtl::Module, SignalId, SignalId, SignalId) {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", width);
        let c = b.input("b", width);
        let a_sig = b.sig(a);
        let c_sig = b.sig(c);
        let out_expr = f(&mut b, a_sig, c_sig);
        let out = b.output("out", out_expr);
        (b.build().expect("valid"), a, c, out)
    }

    #[test]
    fn and_with_untainted_zero_blocks_taint() {
        let (m, a, b, out) = binop_module(|bld, x, y| bld.and(x, y), 8);
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        sim.set_input_u64(a, 0xFF, true); // tainted secret
        sim.set_input_u64(b, 0x00, false); // untainted mask of 0
        sim.settle();
        assert!(!sim.is_tainted(out));
        sim.set_input_u64(b, 0x0F, false);
        sim.settle();
        assert_eq!(sim.taint(out).to_u64(), 0x0F);
    }

    #[test]
    fn conservative_policy_taints_through_zero_mask() {
        let (m, a, b, out) = binop_module(|bld, x, y| bld.and(x, y), 8);
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Conservative);
        sim.set_input_u64(a, 0xFF, true);
        sim.set_input_u64(b, 0x00, false);
        sim.settle();
        assert!(sim.is_tainted(out)); // the false positive
    }

    #[test]
    fn or_with_untainted_ones_blocks_taint() {
        let (m, a, b, out) = binop_module(|bld, x, y| bld.or(x, y), 8);
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        sim.set_input_u64(a, 0x5A, true);
        sim.set_input_u64(b, 0xFF, false);
        sim.settle();
        assert!(!sim.is_tainted(out));
    }

    #[test]
    fn xor_unions_taint() {
        let (m, a, b, out) = binop_module(|bld, x, y| bld.xor(x, y), 8);
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        let mut labeled = Labeled::clean(BitVec::from_u64(8, 0xAA));
        labeled.taint = BitVec::from_u64(8, 0x0F);
        sim.set_input_labeled(a, labeled);
        sim.set_input_u64(b, 0x55, false);
        sim.settle();
        assert_eq!(sim.taint(out).to_u64(), 0x0F);
    }

    #[test]
    fn add_spreads_taint_upward_only() {
        let (m, a, b, out) = binop_module(|bld, x, y| bld.add(x, y), 8);
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        let mut labeled = Labeled::clean(BitVec::from_u64(8, 0x10));
        labeled.taint = BitVec::from_u64(8, 0x10); // bit 4 tainted
        sim.set_input_labeled(a, labeled);
        sim.set_input_u64(b, 0x01, false);
        sim.settle();
        assert_eq!(sim.taint(out).to_u64(), 0xF0); // bits 4..7
    }

    #[test]
    fn untainted_shift_amount_shifts_mask() {
        let (m, a, b, out) = binop_module(|bld, x, y| bld.shl(x, y), 8);
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        let mut labeled = Labeled::clean(BitVec::from_u64(8, 0x01));
        labeled.taint = BitVec::from_u64(8, 0x01);
        sim.set_input_labeled(a, labeled);
        sim.set_input_u64(b, 3, false);
        sim.settle();
        assert_eq!(sim.taint(out).to_u64(), 0x08);
    }

    #[test]
    fn tainted_shift_amount_taints_everything() {
        let (m, a, b, out) = binop_module(|bld, x, y| bld.lshr(x, y), 8);
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        sim.set_input_u64(a, 0xA5, false);
        sim.set_input_u64(b, 1, true);
        sim.settle();
        assert!(sim.taint(out).is_ones());
    }

    #[test]
    fn eq_on_determined_bits_is_untainted() {
        let (m, a, b, out) = binop_module(|bld, x, y| bld.eq(x, y), 8);
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        // High nibble untainted and differs -> outcome fixed at "not equal".
        let mut labeled = Labeled::clean(BitVec::from_u64(8, 0x1F));
        labeled.taint = BitVec::from_u64(8, 0x0F);
        sim.set_input_labeled(a, labeled);
        sim.set_input_u64(b, 0xF0, false);
        sim.settle();
        assert!(!sim.is_tainted(out));
        // Make them agree on untainted bits -> outcome depends on taint.
        let mut labeled = Labeled::clean(BitVec::from_u64(8, 0xF3));
        labeled.taint = BitVec::from_u64(8, 0x0F);
        sim.set_input_labeled(a, labeled);
        sim.settle();
        assert!(sim.is_tainted(out));
    }

    #[test]
    fn mux_untainted_selector_keeps_branch_taint() {
        let mut bld = ModuleBuilder::new("m");
        let sel = bld.input("sel", 1);
        let a = bld.input("a", 8);
        let b = bld.input("b", 8);
        let sel_sig = bld.sig(sel);
        let a_sig = bld.sig(a);
        let b_sig = bld.sig(b);
        let mx = bld.mux(sel_sig, a_sig, b_sig);
        let out = bld.output("out", mx);
        let m = bld.build().expect("valid");
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        sim.set_input_u64(sel, 0, false);
        sim.set_input_u64(a, 1, true);
        sim.set_input_u64(b, 2, false);
        sim.settle();
        assert!(!sim.is_tainted(out)); // untainted branch selected
        sim.set_input_u64(sel, 1, false);
        sim.settle();
        assert!(sim.is_tainted(out));
    }

    #[test]
    fn mux_tainted_selector_with_equal_branches_is_clean() {
        let mut bld = ModuleBuilder::new("m");
        let sel = bld.input("sel", 1);
        let a = bld.input("a", 8);
        let sel_sig = bld.sig(sel);
        let a_sig = bld.sig(a);
        let mx = bld.mux(sel_sig, a_sig, a_sig);
        let out = bld.output("out", mx);
        let m = bld.build().expect("valid");
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        sim.set_input_u64(sel, 1, true); // tainted selector
        sim.set_input_u64(a, 7, false);
        sim.settle();
        assert!(!sim.is_tainted(out)); // branches identical -> no leak
    }

    #[test]
    fn taint_persists_in_registers() {
        let mut bld = ModuleBuilder::new("m");
        let d = bld.input("d", 4);
        let d_sig = bld.sig(d);
        let q = bld.reg("q", 4, 0);
        bld.set_next(q, d_sig).expect("drive");
        let m = bld.build().expect("valid");
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        sim.set_input_u64(d, 5, true);
        sim.step();
        assert!(sim.is_tainted(q));
        // Even after the input goes clean, the stored taint remains until
        // overwritten.
        sim.set_input_u64(d, 0, false);
        sim.settle();
        assert!(sim.is_tainted(q));
        sim.clock();
        assert!(!sim.is_tainted(q));
    }

    #[test]
    fn declassification_clears_taint() {
        let mut bld = ModuleBuilder::new("m");
        let d = bld.input("d", 4);
        let d_sig = bld.sig(d);
        let w = bld.wire("w", d_sig);
        let w_sig = bld.sig(w);
        let out = bld.output("out", w_sig);
        let m = bld.build().expect("valid");
        let mut sim = TaintSimulator::new(&m, FlowPolicy::Precise);
        sim.declassify(w);
        sim.set_input_u64(d, 3, true);
        sim.settle();
        // The declassified wire and everything downstream of it are LOW.
        assert!(!sim.is_tainted(w));
        assert!(!sim.is_tainted(out));
    }

    use fastpath_rtl::ExprId;
}

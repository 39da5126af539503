//! The `Module` → [`SimTape`] compiler.
//!
//! Compilation is a single levelization pass over the module's already
//! topologically-sorted structure:
//!
//! 1. every signal gets a dedicated arena slot (so inputs can be driven
//!    and any signal probed without an index translation at runtime);
//! 2. for every combinational signal in `comb_order`, the driving
//!    expression cone is emitted depth-first (shared sub-expressions are
//!    emitted exactly once, into whichever section needs them first) and
//!    committed to the signal's slot with a `Copy`;
//! 3. for every register, the next-state cone is emitted into the clock
//!    section; commits whose source is *another register's slot* are
//!    routed through a staging slot first, so simultaneous
//!    register-to-register moves see the pre-edge values;
//! 4. constants and register reset values are baked into the arena's
//!    `init` image — `reset` is a single `memcpy`.
//!
//! Because expression slots are written only by their own instruction
//! (SSA discipline) and the sections are levelized, a settle pass leaves
//! every expression slot consistent with the current inputs, which is
//! exactly the precondition the clock section relies on — the same
//! settle-then-clock contract as the interpretive simulators.

use crate::tape::{Instr, Op, SimTape, Slot};
use fastpath_rtl::{BinaryOp, BitVec, Expr, ExprId, Module, SignalKind, UnaryOp};
use std::collections::HashSet;

const UNASSIGNED: u32 = u32::MAX;

fn unary_opcode(op: UnaryOp) -> Op {
    match op {
        UnaryOp::Not => Op::Not,
        UnaryOp::Neg => Op::Neg,
        UnaryOp::RedAnd => Op::RedAnd,
        UnaryOp::RedOr => Op::RedOr,
        UnaryOp::RedXor => Op::RedXor,
    }
}

fn binary_opcode(op: BinaryOp) -> Op {
    match op {
        BinaryOp::And => Op::And,
        BinaryOp::Or => Op::Or,
        BinaryOp::Xor => Op::Xor,
        BinaryOp::Add => Op::Add,
        BinaryOp::Sub => Op::Sub,
        BinaryOp::Mul => Op::Mul,
        BinaryOp::Shl => Op::Shl,
        BinaryOp::Lshr => Op::Lshr,
        BinaryOp::Ashr => Op::Ashr,
        BinaryOp::Eq => Op::Eq,
        BinaryOp::Ne => Op::Ne,
        BinaryOp::Ult => Op::Ult,
        BinaryOp::Ule => Op::Ule,
        BinaryOp::Slt => Op::Slt,
        BinaryOp::Sle => Op::Sle,
    }
}

struct Compiler<'m> {
    module: &'m Module,
    slots: Vec<Slot>,
    arena_len: u32,
    signal_slot: Vec<u32>,
    /// Expression index → slot id, `UNASSIGNED` until emitted.
    expr_slot: Vec<u32>,
    /// Constant slots to bake into the init image.
    consts: Vec<(u32, BitVec)>,
}

impl<'m> Compiler<'m> {
    fn new(module: &'m Module) -> Self {
        Compiler {
            module,
            slots: Vec::new(),
            arena_len: 0,
            signal_slot: Vec::with_capacity(module.signal_count()),
            expr_slot: vec![UNASSIGNED; module.expr_count()],
            consts: Vec::new(),
        }
    }

    fn alloc_slot(&mut self, width: u32) -> u32 {
        let limbs = width.div_ceil(64);
        self.slots.push(Slot {
            offset: self.arena_len,
            limbs,
            width,
        });
        self.arena_len += limbs;
        (self.slots.len() - 1) as u32
    }

    /// Appends `dest <- op(operands)` with the small-path flag
    /// precomputed.
    fn push(&self, out: &mut Vec<Instr>, op: Op, dest: u32, operands: &[u32], imm: u32) {
        let small = std::iter::once(dest)
            .chain(operands.iter().copied())
            .all(|s| self.slots[s as usize].limbs == 1);
        let get = |i: usize| operands.get(i).copied().unwrap_or(0);
        out.push(Instr {
            op,
            dest,
            a: get(0),
            b: get(1),
            c: get(2),
            imm,
            small,
        });
    }

    /// Emits the cone of `e` into `out` (shared nodes only once,
    /// whichever section reaches them first) and returns its slot.
    fn emit(&mut self, e: ExprId, out: &mut Vec<Instr>) -> u32 {
        if self.expr_slot[e.index()] != UNASSIGNED {
            return self.expr_slot[e.index()];
        }
        let width = self.module.expr_width(e);
        let slot = match self.module.expr(e).clone() {
            Expr::Signal(s) => self.signal_slot[s.index()],
            Expr::Const(v) => {
                let slot = self.alloc_slot(v.width());
                self.consts.push((slot, v));
                slot
            }
            Expr::Unary(op, a) => {
                let a_s = self.emit(a, out);
                let d = self.alloc_slot(width);
                self.push(out, unary_opcode(op), d, &[a_s], 0);
                d
            }
            Expr::Binary(op, a, b) => {
                let a_s = self.emit(a, out);
                let b_s = self.emit(b, out);
                let d = self.alloc_slot(width);
                self.push(out, binary_opcode(op), d, &[a_s, b_s], 0);
                d
            }
            Expr::Mux {
                cond,
                then_expr,
                else_expr,
            } => {
                let c_s = self.emit(cond, out);
                let t_s = self.emit(then_expr, out);
                let e_s = self.emit(else_expr, out);
                let d = self.alloc_slot(width);
                self.push(out, Op::Mux, d, &[c_s, t_s, e_s], 0);
                d
            }
            Expr::Slice { arg, hi: _, lo } => {
                let a_s = self.emit(arg, out);
                let d = self.alloc_slot(width);
                self.push(out, Op::Slice, d, &[a_s], lo);
                d
            }
            Expr::Concat(hi, lo) => {
                let h_s = self.emit(hi, out);
                let l_s = self.emit(lo, out);
                let d = self.alloc_slot(width);
                self.push(out, Op::Concat, d, &[h_s, l_s], 0);
                d
            }
            Expr::Zext { arg, .. } => {
                let a_s = self.emit(arg, out);
                let d = self.alloc_slot(width);
                self.push(out, Op::Zext, d, &[a_s], 0);
                d
            }
            Expr::Sext { arg, .. } => {
                let a_s = self.emit(arg, out);
                let d = self.alloc_slot(width);
                self.push(out, Op::Sext, d, &[a_s], 0);
                d
            }
        };
        self.expr_slot[e.index()] = slot;
        slot
    }

    fn run(mut self) -> SimTape {
        // 1. One slot per signal, in signal order.
        let signal_widths: Vec<u32> = self.module.signals().map(|(_, s)| s.width).collect();
        for width in signal_widths {
            let slot = self.alloc_slot(width);
            self.signal_slot.push(slot);
        }

        // 2. Settle section: cones + commits in levelized order.
        let mut settle = Vec::new();
        let comb: Vec<_> = self.module.comb_order().to_vec();
        for sig in comb {
            let drv = self
                .module
                .driver(sig)
                .expect("combinational signals are driven");
            let src = self.emit(drv, &mut settle);
            let dest = self.signal_slot[sig.index()];
            self.push(&mut settle, Op::Copy, dest, &[src], 0);
        }

        // 3. Clock section: next-state cones, staging, commits.
        let regs = self.module.state_signals();
        let reg_slots: HashSet<u32> = regs.iter().map(|r| self.signal_slot[r.index()]).collect();
        let mut clock = Vec::new();
        let mut srcs = Vec::with_capacity(regs.len());
        for &reg in &regs {
            let drv = self.module.driver(reg).expect("registers are driven");
            srcs.push(self.emit(drv, &mut clock));
        }
        // A source that *is* a register slot (next-state is directly
        // another register's value) must be latched before any commit
        // overwrites it.
        for src in &mut srcs {
            if reg_slots.contains(src) {
                let width = self.slots[*src as usize].width;
                let staging = self.alloc_slot(width);
                self.push(&mut clock, Op::Copy, staging, &[*src], 0);
                *src = staging;
            }
        }
        for (k, &reg) in regs.iter().enumerate() {
            let dest = self.signal_slot[reg.index()];
            self.push(&mut clock, Op::Copy, dest, &[srcs[k]], 0);
        }

        // 4. Reset image: constants + register init values.
        let mut init = vec![0u64; self.arena_len as usize];
        for (slot, v) in &self.consts {
            let s = self.slots[*slot as usize];
            v.write_limbs(&mut init[s.offset as usize..][..s.limbs as usize]);
        }
        for (id, signal) in self.module.signals() {
            if signal.kind != SignalKind::Register {
                continue;
            }
            if let Some(iv) = &signal.init {
                let s = self.slots[self.signal_slot[id.index()] as usize];
                iv.write_limbs(&mut init[s.offset as usize..][..s.limbs as usize]);
            }
        }

        let max_limbs = self
            .slots
            .iter()
            .map(|s| s.limbs as usize)
            .max()
            .unwrap_or(0);
        SimTape {
            slots: self.slots,
            signal_slot: self.signal_slot,
            init,
            settle,
            clock,
            max_limbs,
            signal_count: self.module.signal_count(),
        }
    }
}

impl SimTape {
    /// Compiles `module` into a levelized instruction tape (see the
    /// module-level docs of `tape` for the layout).
    pub fn compile(module: &Module) -> SimTape {
        Compiler::new(module).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_rtl::ModuleBuilder;

    #[test]
    fn tape_shape_for_a_small_design() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        let a_sig = b.sig(a);
        let one = b.lit(8, 1);
        let sum = b.add(a_sig, one);
        let r = b.reg("r", 8, 7);
        b.set_next(r, sum).expect("drive");
        let r_sig = b.sig(r);
        b.output("out", r_sig);
        let m = b.build().expect("valid");
        let tape = SimTape::compile(&m);
        assert!(tape.is_small_only());
        assert!(tape.instruction_count() > 0);
        // Register init value must be in the reset image.
        let r_slot = tape.slots[tape.signal_slot[r.index()] as usize];
        assert_eq!(tape.init[r_slot.offset as usize], 7);
    }

    #[test]
    fn wide_signals_disable_small_only() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 130);
        let a_sig = b.sig(a);
        let n = b.not(a_sig);
        b.output("out", n);
        let m = b.build().expect("valid");
        let tape = SimTape::compile(&m);
        assert!(!tape.is_small_only());
        assert!(tape.arena_len() >= 3 * 2);
    }
}

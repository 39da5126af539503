//! The compiled simulation backend: a levelized instruction tape over a
//! flat `u64` value arena.
//!
//! [`SimTape::compile`](crate::SimTape::compile) (see `compile.rs`) turns
//! a [`Module`] into a dense, topologically-sorted instruction stream:
//!
//! - every signal and every reachable expression node gets a **slot** — a
//!   `(offset, limbs, width)` view into one contiguous `Vec<u64>` arena;
//! - the **settle** section evaluates each combinational cone in levelized
//!   order and commits it to its signal slot;
//! - the **clock** section evaluates the remaining next-state cones,
//!   stages register-to-register moves through scratch slots, and commits
//!   every register.
//!
//! Instructions whose slots are all at most 64 bits wide take the **small
//! fast path**: one limb per slot and pure `u64` arithmetic. Every other
//! instruction runs a **multi-limb kernel** that applies the same rules
//! limb by limb, for any limb count, reading its operands' limbs in place
//! in the arena. Its result is staged in the executor's scratch buffer
//! (sized once, from the tape's widest slot) and then committed, so no
//! instruction touches the heap and a steady-state cycle performs zero
//! allocations at any width.
//!
//! The same tape drives two executors:
//!
//! - [`CompiledSim`]: functional values only (mirrors
//!   [`Simulator`](crate::Simulator));
//! - [`CompiledTaintSim`]: values **and** per-bit taint masks — the
//!   [`FlowPolicy`] rules of `taint.rs` restated as `u64` and multi-limb
//!   kernels (mirrors [`TaintSimulator`](crate::TaintSimulator)).
//!
//! The interpretive simulators remain the reference oracle; the
//! `sim_engine_equivalence` suite asserts bit-for-bit agreement on values
//! and taint masks under both policies.

use crate::taint::{FlowPolicy, Labeled, TaintEngine};
use fastpath_rtl::{BitVec, Module, SignalId, SignalKind};
use std::cmp::Ordering;
use std::sync::Arc;

/// A value's view into the arena: `limbs` little-endian `u64`s starting at
/// `offset`, of which the low `width` bits are meaningful (and the rest
/// are kept zero).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot {
    pub(crate) offset: u32,
    pub(crate) limbs: u32,
    pub(crate) width: u32,
}

/// Dense opcode of one tape instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    Copy,
    Not,
    Neg,
    RedAnd,
    RedOr,
    RedXor,
    And,
    Or,
    Xor,
    Add,
    Sub,
    Mul,
    Shl,
    Lshr,
    Ashr,
    Eq,
    Ne,
    Ult,
    Ule,
    Slt,
    Sle,
    Mux,
    Slice,
    Concat,
    Zext,
    Sext,
}

/// One tape instruction: `dest <- op(a, b, c)`, all operands slot ids.
///
/// Field use per op: unary/`Copy`/`Zext`/`Sext` read `a`; binary ops read
/// `a`, `b`; `Mux` reads `a` (cond), `b` (then), `c` (else); `Slice` reads
/// `a` with `imm` = low bit; `Concat` reads `a` (high), `b` (low). `small`
/// is precomputed at compile time: every involved slot is single-limb, so
/// the `u64` fast path applies.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Instr {
    pub(crate) op: Op,
    pub(crate) dest: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
    pub(crate) imm: u32,
    pub(crate) small: bool,
}

/// A module compiled into a flat instruction tape (see the module docs).
///
/// A tape is immutable and shareable: wrap it in an [`Arc`] and hand one
/// clone to each worker for batched runs — executors only hold per-run
/// arenas.
#[derive(Debug)]
pub struct SimTape {
    pub(crate) slots: Vec<Slot>,
    /// Signal index → slot id.
    pub(crate) signal_slot: Vec<u32>,
    /// Arena image at reset: constants and register init values.
    pub(crate) init: Vec<u64>,
    /// Combinational cones + signal commits, levelized.
    pub(crate) settle: Vec<Instr>,
    /// Next-state cones, staging moves, register commits.
    pub(crate) clock: Vec<Instr>,
    /// Limb count of the widest slot: the size of an executor's scratch
    /// buffer, per arena.
    pub(crate) max_limbs: usize,
    pub(crate) signal_count: usize,
}

impl SimTape {
    /// Arena length in 64-bit limbs.
    pub fn arena_len(&self) -> usize {
        self.init.len()
    }

    /// Total instructions executed per full cycle (settle + clock).
    pub fn instruction_count(&self) -> usize {
        self.settle.len() + self.clock.len()
    }

    /// `true` iff every slot is at most 64 bits wide, i.e. every
    /// instruction runs on the single-limb `u64` kernels and none on the
    /// multi-limb ones.
    pub fn is_small_only(&self) -> bool {
        self.max_limbs <= 1
    }

    fn slot_of(&self, id: SignalId) -> Slot {
        self.slots[self.signal_slot[id.index()] as usize]
    }
}

#[inline(always)]
fn mask_of(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[inline(always)]
fn sign_extend(x: u64, width: u32) -> i64 {
    let sh = 64 - width;
    ((x << sh) as i64) >> sh
}

/// `u64` restatement of [`carry_taint`](crate::taint::carry_taint): all
/// bits from the lowest tainted bit upward, clipped to `mask`.
#[inline(always)]
fn carry_smear(taint: u64, mask: u64) -> u64 {
    if taint == 0 {
        0
    } else {
        mask & (taint & taint.wrapping_neg()).wrapping_neg()
    }
}

fn load_bits(values: &[u64], slot: Slot) -> BitVec {
    BitVec::from_limbs(slot.width, limbs_of(values, slot))
}

fn store_bits(values: &mut [u64], slot: Slot, v: &BitVec) {
    debug_assert_eq!(slot.width, v.width(), "slot/value width mismatch");
    v.write_limbs(&mut values[slot.offset as usize..][..slot.limbs as usize]);
}

fn zero_slot(values: &mut [u64], slot: Slot) {
    for l in &mut values[slot.offset as usize..][..slot.limbs as usize] {
        *l = 0;
    }
}

/// The `u64` fast-path value kernel. All operands and the destination are
/// single-limb; stored values are kept masked to their width.
#[inline(always)]
fn small_value(slots: &[Slot], i: &Instr, v: &[u64]) -> u64 {
    let s = |x: u32| slots[x as usize];
    let val = |x: u32| v[slots[x as usize].offset as usize];
    let d = s(i.dest);
    let dm = mask_of(d.width);
    match i.op {
        Op::Copy => val(i.a),
        Op::Not => !val(i.a) & dm,
        Op::Neg => val(i.a).wrapping_neg() & dm,
        Op::RedAnd => (val(i.a) == mask_of(s(i.a).width)) as u64,
        Op::RedOr => (val(i.a) != 0) as u64,
        Op::RedXor => (val(i.a).count_ones() & 1) as u64,
        Op::And => val(i.a) & val(i.b),
        Op::Or => val(i.a) | val(i.b),
        Op::Xor => val(i.a) ^ val(i.b),
        Op::Add => val(i.a).wrapping_add(val(i.b)) & dm,
        Op::Sub => val(i.a).wrapping_sub(val(i.b)) & dm,
        Op::Mul => val(i.a).wrapping_mul(val(i.b)) & dm,
        Op::Shl => {
            let sh = val(i.b);
            if sh >= d.width as u64 {
                0
            } else {
                (val(i.a) << sh) & dm
            }
        }
        Op::Lshr => {
            let sh = val(i.b);
            if sh >= d.width as u64 {
                0
            } else {
                val(i.a) >> sh
            }
        }
        Op::Ashr => {
            let aw = s(i.a).width;
            let x = val(i.a);
            let sh = val(i.b);
            let sign = (x >> (aw - 1)) & 1 == 1;
            if sh >= aw as u64 {
                if sign {
                    dm
                } else {
                    0
                }
            } else {
                let mut r = x >> sh;
                if sign && sh > 0 {
                    r |= dm & !(dm >> sh);
                }
                r
            }
        }
        Op::Eq => (val(i.a) == val(i.b)) as u64,
        Op::Ne => (val(i.a) != val(i.b)) as u64,
        Op::Ult => (val(i.a) < val(i.b)) as u64,
        Op::Ule => (val(i.a) <= val(i.b)) as u64,
        Op::Slt => {
            let w = s(i.a).width;
            (sign_extend(val(i.a), w) < sign_extend(val(i.b), w)) as u64
        }
        Op::Sle => {
            let w = s(i.a).width;
            (sign_extend(val(i.a), w) <= sign_extend(val(i.b), w)) as u64
        }
        Op::Mux => {
            if val(i.a) != 0 {
                val(i.b)
            } else {
                val(i.c)
            }
        }
        Op::Slice => (val(i.a) >> i.imm) & dm,
        Op::Concat => {
            let lw = s(i.b).width;
            ((val(i.a) << lw) & dm) | val(i.b)
        }
        Op::Zext => val(i.a) & dm,
        Op::Sext => {
            let aw = s(i.a).width;
            let x = val(i.a);
            if d.width <= aw {
                x & dm
            } else if (x >> (aw - 1)) & 1 == 1 {
                x | (dm & !mask_of(aw))
            } else {
                x
            }
        }
    }
}

/// The `u64` fast-path taint kernel under [`FlowPolicy::Precise`] — the
/// per-op rules of `taint.rs` as bit-twiddling over the masks. Reads the
/// *pre-instruction* operand values (SSA slots never alias), so it may run
/// before or after the value write.
#[inline(always)]
fn small_taint_precise(slots: &[Slot], i: &Instr, v: &[u64], t: &[u64]) -> u64 {
    let s = |x: u32| slots[x as usize];
    let val = |x: u32| v[slots[x as usize].offset as usize];
    let tnt = |x: u32| t[slots[x as usize].offset as usize];
    let d = s(i.dest);
    let dm = mask_of(d.width);
    match i.op {
        Op::Copy | Op::Not => tnt(i.a),
        Op::Neg => carry_smear(tnt(i.a), dm),
        Op::RedAnd => {
            let ta = tnt(i.a);
            if ta == 0 {
                0
            } else {
                // A definite (untainted) 0 bit forces the result to 0.
                let am = mask_of(s(i.a).width);
                ((!ta & !val(i.a) & am) == 0) as u64
            }
        }
        Op::RedOr => {
            let ta = tnt(i.a);
            if ta == 0 {
                0
            } else {
                // A definite 1 bit forces the result to 1.
                ((!ta & val(i.a)) == 0) as u64
            }
        }
        Op::RedXor => (tnt(i.a) != 0) as u64,
        Op::And => {
            let (ta, tb) = (tnt(i.a), tnt(i.b));
            (ta & tb) | (ta & val(i.b)) | (tb & val(i.a))
        }
        Op::Or => {
            let (ta, tb) = (tnt(i.a), tnt(i.b));
            (ta & tb) | (ta & !val(i.b) & dm) | (tb & !val(i.a) & dm)
        }
        Op::Xor => tnt(i.a) | tnt(i.b),
        Op::Add | Op::Sub => carry_smear(tnt(i.a) | tnt(i.b), dm),
        Op::Mul => {
            let (ta, tb) = (tnt(i.a), tnt(i.b));
            let untainted = ta == 0 && tb == 0;
            // Multiplication by a definite zero yields a definite zero.
            let definite_zero = (ta == 0 && val(i.a) == 0) || (tb == 0 && val(i.b) == 0);
            if untainted || definite_zero {
                0
            } else {
                carry_smear(ta | tb, dm)
            }
        }
        Op::Shl | Op::Lshr | Op::Ashr => {
            let (ta, tb) = (tnt(i.a), tnt(i.b));
            if tb != 0 {
                // Taint-steered shift amount: unless the shifted value is
                // a definite zero, the whole result is tainted.
                if ta == 0 && val(i.a) == 0 {
                    0
                } else {
                    dm
                }
            } else {
                let aw = s(i.a).width;
                let sh = val(i.b);
                match i.op {
                    Op::Shl => {
                        if sh >= aw as u64 {
                            0
                        } else {
                            (ta << sh) & dm
                        }
                    }
                    Op::Lshr => {
                        if sh >= aw as u64 {
                            0
                        } else {
                            ta >> sh
                        }
                    }
                    _ => {
                        // Ashr of the taint mask (sign = taint's top bit).
                        let tsign = (ta >> (aw - 1)) & 1 == 1;
                        if sh >= aw as u64 {
                            if tsign {
                                dm
                            } else {
                                0
                            }
                        } else {
                            let mut r = ta >> sh;
                            if tsign && sh > 0 {
                                r |= dm & !(dm >> sh);
                            }
                            r
                        }
                    }
                }
            }
        }
        Op::Eq | Op::Ne => {
            let (ta, tb) = (tnt(i.a), tnt(i.b));
            // An untainted differing bit position fixes the outcome.
            let determined = (!ta & !tb & (val(i.a) ^ val(i.b))) != 0;
            (!determined && (ta != 0 || tb != 0)) as u64
        }
        Op::Ult | Op::Ule | Op::Slt | Op::Sle => (tnt(i.a) != 0 || tnt(i.b) != 0) as u64,
        Op::Mux => {
            if tnt(i.a) == 0 {
                if val(i.a) != 0 {
                    tnt(i.b)
                } else {
                    tnt(i.c)
                }
            } else {
                // Tainted selector: a bit leaks iff the branches differ.
                tnt(i.b) | tnt(i.c) | (val(i.b) ^ val(i.c))
            }
        }
        Op::Slice => (tnt(i.a) >> i.imm) & dm,
        Op::Concat => {
            let lw = s(i.b).width;
            ((tnt(i.a) << lw) & dm) | tnt(i.b)
        }
        Op::Zext => tnt(i.a) & dm,
        Op::Sext => {
            // Replicated sign bits inherit the sign bit's taint.
            let aw = s(i.a).width;
            let ta = tnt(i.a);
            if d.width <= aw {
                ta & dm
            } else if (ta >> (aw - 1)) & 1 == 1 {
                ta | (dm & !mask_of(aw))
            } else {
                ta
            }
        }
    }
}

/// The `u64` fast-path taint kernel under [`FlowPolicy::Conservative`]:
/// any tainted operand of a logic/arith/mux op taints the whole result;
/// structural ops (copy, slice, concat, extensions) map taint
/// structurally, exactly like the interpreter.
#[inline(always)]
fn small_taint_conservative(slots: &[Slot], i: &Instr, t: &[u64]) -> u64 {
    let s = |x: u32| slots[x as usize];
    let tnt = |x: u32| t[slots[x as usize].offset as usize];
    let d = s(i.dest);
    let dm = mask_of(d.width);
    match i.op {
        Op::Copy => tnt(i.a),
        Op::Slice => (tnt(i.a) >> i.imm) & dm,
        Op::Concat => {
            let lw = s(i.b).width;
            ((tnt(i.a) << lw) & dm) | tnt(i.b)
        }
        Op::Zext => tnt(i.a) & dm,
        Op::Sext => {
            let aw = s(i.a).width;
            let ta = tnt(i.a);
            if d.width <= aw {
                ta & dm
            } else if (ta >> (aw - 1)) & 1 == 1 {
                ta | (dm & !mask_of(aw))
            } else {
                ta
            }
        }
        Op::Not | Op::Neg | Op::RedAnd | Op::RedOr | Op::RedXor => {
            if tnt(i.a) != 0 {
                dm
            } else {
                0
            }
        }
        Op::Mux => {
            if tnt(i.a) != 0 || tnt(i.b) != 0 || tnt(i.c) != 0 {
                dm
            } else {
                0
            }
        }
        _ => {
            // All binary operators.
            if tnt(i.a) != 0 || tnt(i.b) != 0 {
                dm
            } else {
                0
            }
        }
    }
}

/// The limbs of `slot` in `arena`.
#[inline(always)]
fn limbs_of(arena: &[u64], slot: Slot) -> &[u64] {
    &arena[slot.offset as usize..][..slot.limbs as usize]
}

/// Mask of the meaningful bits in the top limb of a `width`-bit value.
#[inline(always)]
fn top_mask(width: u32) -> u64 {
    mask_of((width - 1) % 64 + 1)
}

/// Keeps a multi-limb result masked to its width.
#[inline(always)]
fn mask_top(out: &mut [u64], width: u32) {
    if let Some(top) = out.last_mut() {
        *top &= top_mask(width);
    }
}

#[inline(always)]
fn is_zero(x: &[u64]) -> bool {
    x.iter().all(|&l| l == 0)
}

/// Bit `index` of a little-endian limb vector.
#[inline(always)]
fn bit_of(x: &[u64], index: u32) -> bool {
    (x[(index / 64) as usize] >> (index % 64)) & 1 == 1
}

/// The 64 bits of `x` starting at bit `pos`, zero past its end.
#[inline(always)]
fn bits_at(x: &[u64], pos: u64) -> u64 {
    let limb = |k: u64| x.get(k as usize).copied().unwrap_or(0);
    let (k, sh) = (pos / 64, pos % 64);
    if sh == 0 {
        limb(k)
    } else {
        (limb(k) >> sh) | (limb(k + 1) << (64 - sh))
    }
}

/// Limb `k` of `x << amount`, unbounded (the caller masks the top).
#[inline(always)]
fn shifted_limb(x: &[u64], amount: u64, k: usize) -> u64 {
    let base = 64 * k as u64;
    if base >= amount {
        bits_at(x, base - amount)
    } else if amount - base < 64 {
        x[0] << (amount - base)
    } else {
        0
    }
}

/// Sets every bit of `out` from bit `from` upward (the caller masks the
/// top).
fn fill_from(out: &mut [u64], from: u32) {
    for (k, o) in out.iter_mut().enumerate() {
        let base = 64 * k as u32;
        if base + 64 > from {
            *o |= u64::MAX << from.saturating_sub(base);
        }
    }
}

/// All ones if `on`, else all zeros, at `width` bits.
#[inline(always)]
fn fill(out: &mut [u64], on: bool, width: u32) {
    out.fill(if on { u64::MAX } else { 0 });
    mask_top(out, width);
}

/// A multi-limb shift amount; any set high limb saturates it, as
/// `try_to_u64().unwrap_or(u64::MAX)` does in the interpreter.
#[inline(always)]
fn shift_amount(b: &[u64]) -> u64 {
    if is_zero(&b[1..]) {
        b[0]
    } else {
        u64::MAX
    }
}

/// `x` (`width` bits) shifted by `op` (`Shl`, `Lshr` or `Ashr`), with
/// the `u64` kernels' saturation at `width`; `Ashr` takes the sign from
/// `x`'s top bit.
fn wide_shift(op: Op, x: &[u64], amount: u64, width: u32, out: &mut [u64]) {
    let sign = op == Op::Ashr && bit_of(x, width - 1);
    if amount >= width as u64 {
        fill(out, sign, width);
        return;
    }
    for (k, o) in out.iter_mut().enumerate() {
        *o = if op == Op::Shl {
            shifted_limb(x, amount, k)
        } else {
            bits_at(x, amount + 64 * k as u64)
        };
    }
    if sign && amount > 0 {
        fill_from(out, width - amount as u32);
    }
    mask_top(out, width);
}

/// `x + y`, or `x - y` as `x + !y + 1`, with the carry crossing limbs.
fn wide_add(x: &[u64], y: &[u64], subtract: bool, width: u32, out: &mut [u64]) {
    let mut carry = subtract;
    for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
        let b = if subtract { !b } else { b };
        let (s1, c1) = a.overflowing_add(b);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        *o = s2;
        carry = c1 || c2;
    }
    mask_top(out, width);
}

/// Truncated schoolbook product of two `width`-bit operands.
fn wide_mul(x: &[u64], y: &[u64], width: u32, out: &mut [u64]) {
    out.fill(0);
    for (k, &a) in x.iter().enumerate() {
        let mut carry = 0u128;
        for (o, &b) in out[k..].iter_mut().zip(y) {
            let cur = *o as u128 + (a as u128) * (b as u128) + carry;
            *o = cur as u64;
            carry = cur >> 64;
        }
    }
    mask_top(out, width);
}

/// Multi-limb [`carry_smear`] of `x | y`: every bit from the lowest set
/// bit upward, across limb boundaries, masked to `width`.
fn wide_carry_smear(x: &[u64], y: &[u64], width: u32, out: &mut [u64]) {
    let mut carrying = false;
    for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
        *o = if carrying {
            u64::MAX
        } else {
            carry_smear(a | b, u64::MAX)
        };
        carrying |= (a | b) != 0;
    }
    mask_top(out, width);
}

/// The structural ops (`Copy`, `Slice`, `Concat`, `Zext`, `Sext`) over
/// one arena, at any bit offset. Values and taint masks map alike under
/// either policy: a sign-extended mask gives the replicated sign bits
/// the sign bit's taint.
fn wide_structural(slots: &[Slot], i: &Instr, arena: &[u64], out: &mut [u64]) {
    let s = |x: u32| slots[x as usize];
    let (d, sa) = (s(i.dest), s(i.a));
    let a = limbs_of(arena, sa);
    match i.op {
        Op::Copy => out.copy_from_slice(a),
        Op::Slice => {
            for (k, o) in out.iter_mut().enumerate() {
                *o = bits_at(a, i.imm as u64 + 64 * k as u64);
            }
            mask_top(out, d.width);
        }
        Op::Concat => {
            let sb = s(i.b);
            let low = limbs_of(arena, sb);
            for (k, o) in out.iter_mut().enumerate() {
                *o = low.get(k).copied().unwrap_or(0) | shifted_limb(a, sb.width as u64, k);
            }
        }
        Op::Zext | Op::Sext => {
            for (k, o) in out.iter_mut().enumerate() {
                *o = a.get(k).copied().unwrap_or(0);
            }
            if i.op == Op::Sext && d.width > sa.width && bit_of(a, sa.width - 1) {
                fill_from(out, sa.width);
            }
            mask_top(out, d.width);
        }
        _ => unreachable!("{:?} is not structural", i.op),
    }
}

/// The multi-limb value kernel: [`small_value`]'s rules limb by limb, for
/// operands of any limb count. Writes every limb of `out` (the
/// destination's size), masked to the destination width.
fn wide_value(slots: &[Slot], i: &Instr, v: &[u64], out: &mut [u64]) {
    let s = |x: u32| slots[x as usize];
    let val = |x: u32| limbs_of(v, s(x));
    let dw = s(i.dest).width;
    match i.op {
        Op::Copy | Op::Slice | Op::Concat | Op::Zext | Op::Sext => {
            wide_structural(slots, i, v, out)
        }
        Op::Not => {
            for (o, &x) in out.iter_mut().zip(val(i.a)) {
                *o = !x;
            }
            mask_top(out, dw);
        }
        Op::Neg => {
            let mut carry = true;
            for (o, &x) in out.iter_mut().zip(val(i.a)) {
                let (r, c) = (!x).overflowing_add(carry as u64);
                *o = r;
                carry = c;
            }
            mask_top(out, dw);
        }
        Op::RedAnd => {
            let (top, rest) = val(i.a).split_last().expect("width > 0");
            let ones = rest.iter().all(|&l| l == u64::MAX) && *top == top_mask(s(i.a).width);
            out[0] = ones as u64;
        }
        Op::RedOr => out[0] = !is_zero(val(i.a)) as u64,
        Op::RedXor => {
            let ones: u32 = val(i.a).iter().map(|l| l.count_ones()).sum();
            out[0] = (ones & 1) as u64;
        }
        Op::And | Op::Or | Op::Xor => {
            for ((o, &a), &b) in out.iter_mut().zip(val(i.a)).zip(val(i.b)) {
                *o = match i.op {
                    Op::And => a & b,
                    Op::Or => a | b,
                    _ => a ^ b,
                };
            }
        }
        Op::Add | Op::Sub => wide_add(val(i.a), val(i.b), i.op == Op::Sub, dw, out),
        Op::Mul => wide_mul(val(i.a), val(i.b), dw, out),
        Op::Shl | Op::Lshr | Op::Ashr => {
            wide_shift(i.op, val(i.a), shift_amount(val(i.b)), dw, out)
        }
        Op::Eq => out[0] = (val(i.a) == val(i.b)) as u64,
        Op::Ne => out[0] = (val(i.a) != val(i.b)) as u64,
        Op::Ult | Op::Ule | Op::Slt | Op::Sle => {
            let (a, b) = (val(i.a), val(i.b));
            let sign = s(i.a).width - 1;
            let signed = matches!(i.op, Op::Slt | Op::Sle);
            // Signed: a set sign bit orders below a clear one.
            let ord = match (signed, bit_of(a, sign), bit_of(b, sign)) {
                (true, true, false) => Ordering::Less,
                (true, false, true) => Ordering::Greater,
                _ => a.iter().rev().cmp(b.iter().rev()),
            };
            out[0] = match i.op {
                Op::Ult | Op::Slt => ord.is_lt(),
                _ => ord.is_le(),
            } as u64;
        }
        Op::Mux => {
            let pick = if val(i.a)[0] != 0 { i.b } else { i.c };
            out.copy_from_slice(val(pick));
        }
    }
}

/// The multi-limb taint kernel under [`FlowPolicy::Precise`]:
/// [`small_taint_precise`]'s rules limb by limb. Reads the
/// *pre-instruction* operand values.
fn wide_taint_precise(slots: &[Slot], i: &Instr, v: &[u64], t: &[u64], out: &mut [u64]) {
    let s = |x: u32| slots[x as usize];
    let val = |x: u32| limbs_of(v, s(x));
    let tnt = |x: u32| limbs_of(t, s(x));
    let dw = s(i.dest).width;
    match i.op {
        Op::Copy | Op::Slice | Op::Concat | Op::Zext | Op::Sext => {
            wide_structural(slots, i, t, out)
        }
        Op::Not => out.copy_from_slice(tnt(i.a)),
        Op::Neg => wide_carry_smear(tnt(i.a), tnt(i.a), dw, out),
        Op::RedAnd => {
            let (ta, va) = (tnt(i.a), val(i.a));
            let (last, top) = (ta.len() - 1, top_mask(s(i.a).width));
            // A definite (untainted) 0 bit forces the result to 0.
            let forced_zero = ta.iter().zip(va).enumerate().any(|(k, (&t, &v))| {
                let m = if k == last { top } else { u64::MAX };
                (!t & !v & m) != 0
            });
            out[0] = (!forced_zero && !is_zero(ta)) as u64;
        }
        Op::RedOr => {
            let (ta, va) = (tnt(i.a), val(i.a));
            // A definite 1 bit forces the result to 1.
            let forced_one = ta.iter().zip(va).any(|(&t, &v)| (!t & v) != 0);
            out[0] = (!forced_one && !is_zero(ta)) as u64;
        }
        Op::RedXor => out[0] = !is_zero(tnt(i.a)) as u64,
        Op::And => {
            let (ta, tb, va, vb) = (tnt(i.a), tnt(i.b), val(i.a), val(i.b));
            for (k, o) in out.iter_mut().enumerate() {
                *o = (ta[k] & tb[k]) | (ta[k] & vb[k]) | (tb[k] & va[k]);
            }
        }
        Op::Or => {
            let (ta, tb, va, vb) = (tnt(i.a), tnt(i.b), val(i.a), val(i.b));
            for (k, o) in out.iter_mut().enumerate() {
                *o = (ta[k] & tb[k]) | (ta[k] & !vb[k]) | (tb[k] & !va[k]);
            }
        }
        Op::Xor => {
            for ((o, &a), &b) in out.iter_mut().zip(tnt(i.a)).zip(tnt(i.b)) {
                *o = a | b;
            }
        }
        Op::Add | Op::Sub => wide_carry_smear(tnt(i.a), tnt(i.b), dw, out),
        Op::Mul => {
            let (ta, tb) = (tnt(i.a), tnt(i.b));
            let untainted = is_zero(ta) && is_zero(tb);
            // Multiplication by a definite zero yields a definite zero.
            let definite_zero =
                (is_zero(ta) && is_zero(val(i.a))) || (is_zero(tb) && is_zero(val(i.b)));
            if untainted || definite_zero {
                out.fill(0);
            } else {
                wide_carry_smear(ta, tb, dw, out);
            }
        }
        Op::Shl | Op::Lshr | Op::Ashr => {
            let ta = tnt(i.a);
            if !is_zero(tnt(i.b)) {
                // Taint-steered shift amount: unless the shifted value is
                // a definite zero, the whole result is tainted.
                fill(out, !(is_zero(ta) && is_zero(val(i.a))), dw);
            } else {
                wide_shift(i.op, ta, shift_amount(val(i.b)), dw, out);
            }
        }
        Op::Eq | Op::Ne => {
            let (ta, tb, va, vb) = (tnt(i.a), tnt(i.b), val(i.a), val(i.b));
            // An untainted differing bit position fixes the outcome.
            let determined = (0..ta.len()).any(|k| (!ta[k] & !tb[k] & (va[k] ^ vb[k])) != 0);
            let tainted = !(is_zero(ta) && is_zero(tb));
            out[0] = (tainted && !determined) as u64;
        }
        Op::Ult | Op::Ule | Op::Slt | Op::Sle => {
            out[0] = !(is_zero(tnt(i.a)) && is_zero(tnt(i.b))) as u64;
        }
        Op::Mux => {
            let (tb, tc) = (tnt(i.b), tnt(i.c));
            if tnt(i.a)[0] == 0 {
                out.copy_from_slice(if val(i.a)[0] != 0 { tb } else { tc });
            } else {
                // Tainted selector: a bit leaks iff the branches differ.
                let (vb, vc) = (val(i.b), val(i.c));
                for (k, o) in out.iter_mut().enumerate() {
                    *o = tb[k] | tc[k] | (vb[k] ^ vc[k]);
                }
            }
        }
    }
}

/// The multi-limb taint kernel under [`FlowPolicy::Conservative`]: any
/// tainted operand of a logic/arith/mux op taints the whole result;
/// structural ops map taint structurally.
fn wide_taint_conservative(slots: &[Slot], i: &Instr, t: &[u64], out: &mut [u64]) {
    let s = |x: u32| slots[x as usize];
    let tainted = |x: u32| !is_zero(limbs_of(t, s(x)));
    let dw = s(i.dest).width;
    match i.op {
        Op::Copy | Op::Slice | Op::Concat | Op::Zext | Op::Sext => {
            wide_structural(slots, i, t, out)
        }
        Op::Not | Op::Neg | Op::RedAnd | Op::RedOr | Op::RedXor => fill(out, tainted(i.a), dw),
        Op::Mux => fill(out, tainted(i.a) || tainted(i.b) || tainted(i.c), dw),
        // All binary operators.
        _ => fill(out, tainted(i.a) || tainted(i.b), dw),
    }
}

fn run_values(tape: &SimTape, instrs: &[Instr], values: &mut [u64], scratch: &mut [u64]) {
    for i in instrs {
        if i.small {
            let r = small_value(&tape.slots, i, values);
            values[tape.slots[i.dest as usize].offset as usize] = r;
        } else {
            let d = tape.slots[i.dest as usize];
            let out = &mut scratch[..d.limbs as usize];
            wide_value(&tape.slots, i, values, out);
            values[d.offset as usize..][..d.limbs as usize].copy_from_slice(out);
        }
    }
}

/// `scratch` holds `2 * tape.max_limbs` limbs: the value half, then the
/// taint half.
fn run_labeled(
    tape: &SimTape,
    instrs: &[Instr],
    values: &mut [u64],
    taints: &mut [u64],
    scratch: &mut [u64],
    policy: FlowPolicy,
    declassified: &[bool],
) {
    let (val_out, tnt_out) = scratch.split_at_mut(tape.max_limbs);
    for i in instrs {
        if i.small {
            let val = small_value(&tape.slots, i, values);
            let tnt = match policy {
                FlowPolicy::Precise => small_taint_precise(&tape.slots, i, values, taints),
                FlowPolicy::Conservative => small_taint_conservative(&tape.slots, i, taints),
            };
            let off = tape.slots[i.dest as usize].offset as usize;
            values[off] = val;
            taints[off] = tnt;
        } else {
            let d = tape.slots[i.dest as usize];
            let n = d.limbs as usize;
            let (val, tnt) = (&mut val_out[..n], &mut tnt_out[..n]);
            wide_value(&tape.slots, i, values, val);
            match policy {
                FlowPolicy::Precise => wide_taint_precise(&tape.slots, i, values, taints, tnt),
                FlowPolicy::Conservative => wide_taint_conservative(&tape.slots, i, taints, tnt),
            }
            values[d.offset as usize..][..n].copy_from_slice(val);
            taints[d.offset as usize..][..n].copy_from_slice(tnt);
        }
        // Declassification clears the taint of a signal slot as it is
        // committed, exactly like the interpreter (only signal slots are
        // ever marked, and only `Copy` commits target them).
        if declassified[i.dest as usize] {
            zero_slot(taints, tape.slots[i.dest as usize]);
        }
    }
}

/// Compiled functional simulator: the tape-backed counterpart of
/// [`Simulator`](crate::Simulator), with the identical two-phase cycle
/// contract (`settle` assumes current inputs; `clock` assumes `settle` ran
/// for them).
///
/// # Examples
///
/// ```
/// use fastpath_rtl::ModuleBuilder;
/// use fastpath_sim::CompiledSim;
///
/// # fn main() -> Result<(), fastpath_rtl::RtlError> {
/// let mut b = ModuleBuilder::new("ctr");
/// let count = b.reg("count", 8, 0);
/// let c = b.sig(count);
/// let one = b.lit(8, 1);
/// let next = b.add(c, one);
/// b.set_next(count, next)?;
/// let module = b.build()?;
/// let mut sim = CompiledSim::new(&module);
/// for _ in 0..5 {
///     sim.step();
/// }
/// assert_eq!(sim.value(count).to_u64(), 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompiledSim<'m> {
    module: &'m Module,
    tape: Arc<SimTape>,
    values: Vec<u64>,
    /// Staging for the multi-limb kernels' results (`max_limbs` limbs).
    scratch: Vec<u64>,
    cycle: u64,
}

impl<'m> CompiledSim<'m> {
    /// Compiles `module` and creates an executor in the reset state.
    pub fn new(module: &'m Module) -> Self {
        Self::with_tape(module, Arc::new(SimTape::compile(module)))
    }

    /// Creates an executor over a precompiled tape (must have been
    /// compiled from this exact `module`).
    ///
    /// # Panics
    ///
    /// Panics if the tape's signal count disagrees with the module's.
    pub fn with_tape(module: &'m Module, tape: Arc<SimTape>) -> Self {
        assert_eq!(
            tape.signal_count,
            module.signal_count(),
            "tape was compiled from a different module"
        );
        let values = tape.init.clone();
        let scratch = vec![0u64; tape.max_limbs];
        CompiledSim {
            module,
            tape,
            values,
            scratch,
            cycle: 0,
        }
    }

    /// The module under simulation.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The shared tape driving this executor.
    pub fn tape(&self) -> &Arc<SimTape> {
        &self.tape
    }

    /// Completed clock cycles since reset.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Returns to the reset state.
    pub fn reset(&mut self) {
        self.values.copy_from_slice(&self.tape.init);
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
        store_bits(&mut self.values, self.tape.slot_of(id), &value);
    }

    /// Forces a register to a value, overriding its current state.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a register or the width does not match.
    pub fn set_register(&mut self, id: SignalId, value: BitVec) {
        let signal = self.module.signal(id);
        assert_eq!(
            signal.kind,
            SignalKind::Register,
            "`{}` is not a register",
            signal.name
        );
        assert_eq!(
            signal.width,
            value.width(),
            "width mismatch driving `{}`",
            signal.name
        );
        store_bits(&mut self.values, self.tape.slot_of(id), &value);
    }

    /// Drives an input from a `u64` (truncated to width) without any
    /// allocation.
    pub fn set_input_u64(&mut self, id: SignalId, value: u64) {
        let signal = self.module.signal(id);
        assert_eq!(
            signal.kind,
            SignalKind::Input,
            "`{}` is not an input",
            signal.name
        );
        let slot = self.tape.slot_of(id);
        zero_slot(&mut self.values, slot);
        self.values[slot.offset as usize] = value & mask_of(slot.width);
    }

    /// The current value of any signal (after the last settle/step).
    pub fn value(&self, id: SignalId) -> BitVec {
        load_bits(&self.values, self.tape.slot_of(id))
    }

    /// The low 64 bits of a signal's current value, allocation-free.
    pub fn value_u64(&self, id: SignalId) -> u64 {
        self.values[self.tape.slot_of(id).offset as usize]
    }

    /// Recomputes all combinational signals from the current inputs and
    /// register values.
    pub fn settle(&mut self) {
        let tape = Arc::clone(&self.tape);
        run_values(&tape, &tape.settle, &mut self.values, &mut self.scratch);
    }

    /// Commits all registers to their next-state values (a clock edge).
    /// Assumes [`settle`](Self::settle) ran for the current input values.
    pub fn clock(&mut self) {
        let tape = Arc::clone(&self.tape);
        run_values(&tape, &tape.clock, &mut self.values, &mut self.scratch);
        self.cycle += 1;
    }

    /// Settles combinational logic, then clocks the registers.
    pub fn step(&mut self) {
        self.settle();
        self.clock();
    }
}

/// Compiled IFT simulator: the tape-backed counterpart of
/// [`TaintSimulator`](crate::TaintSimulator), tracking a per-bit taint
/// mask alongside every value over the same instruction tape.
#[derive(Debug)]
pub struct CompiledTaintSim<'m> {
    module: &'m Module,
    tape: Arc<SimTape>,
    values: Vec<u64>,
    taints: Vec<u64>,
    /// Staging for the multi-limb kernels' results: `max_limbs` value
    /// limbs, then `max_limbs` taint limbs.
    scratch: Vec<u64>,
    policy: FlowPolicy,
    /// Per-slot declassification flags (only signal slots are ever set).
    declassified: Vec<bool>,
    /// Declassified signals, for the settle-start input clearing.
    declassified_ids: Vec<SignalId>,
    cycle: u64,
}

impl<'m> CompiledTaintSim<'m> {
    /// Compiles `module` and creates an executor with no taint anywhere.
    pub fn new(module: &'m Module, policy: FlowPolicy) -> Self {
        Self::with_tape(module, Arc::new(SimTape::compile(module)), policy)
    }

    /// Creates an executor over a precompiled tape (must have been
    /// compiled from this exact `module`).
    ///
    /// # Panics
    ///
    /// Panics if the tape's signal count disagrees with the module's.
    pub fn with_tape(module: &'m Module, tape: Arc<SimTape>, policy: FlowPolicy) -> Self {
        assert_eq!(
            tape.signal_count,
            module.signal_count(),
            "tape was compiled from a different module"
        );
        let values = tape.init.clone();
        let taints = vec![0u64; tape.init.len()];
        let scratch = vec![0u64; 2 * tape.max_limbs];
        let declassified = vec![false; tape.slots.len()];
        CompiledTaintSim {
            module,
            tape,
            values,
            taints,
            scratch,
            policy,
            declassified,
            declassified_ids: Vec::new(),
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

    /// Returns to the reset state with no taint anywhere (declassification
    /// marks are kept).
    pub fn reset(&mut self) {
        self.values.copy_from_slice(&self.tape.init);
        self.taints.iter_mut().for_each(|t| *t = 0);
        self.cycle = 0;
    }

    /// Marks a signal as declassified: its taint is cleared after every
    /// settle and clock.
    pub fn declassify(&mut self, id: SignalId) {
        self.declassified[self.tape.signal_slot[id.index()] as usize] = true;
        if !self.declassified_ids.contains(&id) {
            self.declassified_ids.push(id);
        }
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
        let slot = self.tape.slot_of(id);
        store_bits(&mut self.values, slot, &labeled.value);
        store_bits(&mut self.taints, slot, &labeled.taint);
    }

    /// Drives an input; `tainted` taints all bits (HIGH) or none (LOW).
    pub fn set_input(&mut self, id: SignalId, value: BitVec, tainted: bool) {
        let signal = self.module.signal(id);
        assert_eq!(
            signal.kind,
            SignalKind::Input,
            "`{}` is not an input",
            signal.name
        );
        assert_eq!(signal.width, value.width(), "value width");
        let slot = self.tape.slot_of(id);
        store_bits(&mut self.values, slot, &value);
        let region = &mut self.taints[slot.offset as usize..][..slot.limbs as usize];
        if tainted {
            let (last, rest) = region.split_last_mut().expect("width > 0");
            for l in rest {
                *l = u64::MAX;
            }
            let rem = slot.width % 64;
            *last = if rem == 0 {
                u64::MAX
            } else {
                (1u64 << rem) - 1
            };
        } else {
            for l in region {
                *l = 0;
            }
        }
    }

    /// Drives an input from a `u64` (truncated to width) without any
    /// allocation.
    pub fn set_input_u64(&mut self, id: SignalId, value: u64, tainted: bool) {
        let signal = self.module.signal(id);
        assert_eq!(
            signal.kind,
            SignalKind::Input,
            "`{}` is not an input",
            signal.name
        );
        let slot = self.tape.slot_of(id);
        zero_slot(&mut self.values, slot);
        self.values[slot.offset as usize] = value & mask_of(slot.width);
        zero_slot(&mut self.taints, slot);
        if tainted {
            let region = &mut self.taints[slot.offset as usize..][..slot.limbs as usize];
            let (last, rest) = region.split_last_mut().expect("width > 0");
            for l in rest {
                *l = u64::MAX;
            }
            let rem = slot.width % 64;
            *last = if rem == 0 {
                u64::MAX
            } else {
                (1u64 << rem) - 1
            };
        }
    }

    /// The functional value of a signal.
    pub fn value(&self, id: SignalId) -> BitVec {
        load_bits(&self.values, self.tape.slot_of(id))
    }

    /// The taint mask of a signal.
    pub fn taint(&self, id: SignalId) -> BitVec {
        load_bits(&self.taints, self.tape.slot_of(id))
    }

    /// `true` iff any bit of the signal is tainted (allocation-free).
    pub fn is_tainted(&self, id: SignalId) -> bool {
        !is_zero(limbs_of(&self.taints, self.tape.slot_of(id)))
    }

    /// All currently tainted signals.
    pub fn tainted_signals(&self) -> Vec<SignalId> {
        self.module
            .signals()
            .filter(|(id, _)| self.is_tainted(*id))
            .map(|(id, _)| id)
            .collect()
    }

    /// Settles combinational logic, propagating taint. Declassified
    /// signals have their taint cleared as they are committed.
    pub fn settle(&mut self) {
        let tape = Arc::clone(&self.tape);
        // Declassified inputs are cleared up front.
        for &id in &self.declassified_ids {
            if self.module.signal(id).kind == SignalKind::Input {
                let slot = tape.slot_of(id);
                for l in &mut self.taints[slot.offset as usize..][..slot.limbs as usize] {
                    *l = 0;
                }
            }
        }
        run_labeled(
            &tape,
            &tape.settle,
            &mut self.values,
            &mut self.taints,
            &mut self.scratch,
            self.policy,
            &self.declassified,
        );
    }

    /// Clocks the registers, committing value and taint. Assumes
    /// [`settle`](Self::settle) ran for the current input values.
    pub fn clock(&mut self) {
        let tape = Arc::clone(&self.tape);
        run_labeled(
            &tape,
            &tape.clock,
            &mut self.values,
            &mut self.taints,
            &mut self.scratch,
            self.policy,
            &self.declassified,
        );
        self.cycle += 1;
    }

    /// Settle + clock.
    pub fn step(&mut self) {
        self.settle();
        self.clock();
    }
}

impl TaintEngine for CompiledTaintSim<'_> {
    fn drive_input(&mut self, id: SignalId, value: BitVec, tainted: bool) {
        self.set_input(id, value, tainted);
    }

    fn settle(&mut self) {
        CompiledTaintSim::settle(self);
    }

    fn clock(&mut self) {
        CompiledTaintSim::clock(self);
    }

    fn declassify(&mut self, id: SignalId) {
        CompiledTaintSim::declassify(self, id);
    }

    fn is_tainted(&self, id: SignalId) -> bool {
        CompiledTaintSim::is_tainted(self, id)
    }

    fn value_bits(&self, id: SignalId) -> BitVec {
        self.value(id)
    }

    fn taint_bits(&self, id: SignalId) -> BitVec {
        self.taint(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Simulator, TaintSimulator};
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

    #[test]
    fn compiled_counter_matches_interpreter() {
        let m = counter_with_enable();
        let en = m.signal_by_name("en").expect("en");
        let count = m.signal_by_name("count").expect("count");
        let mut interp = Simulator::new(&m);
        let mut comp = CompiledSim::new(&m);
        for cycle in 0..300u64 {
            let v = (cycle % 3 != 0) as u64;
            interp.set_input_u64(en, v);
            comp.set_input_u64(en, v);
            interp.step();
            comp.step();
            for (id, _) in m.signals() {
                assert_eq!(
                    interp.value(id),
                    &comp.value(id),
                    "cycle {cycle}, signal {}",
                    m.signal(id).name
                );
            }
        }
        assert_eq!(comp.value(count).to_u64(), 200);
        comp.reset();
        assert_eq!(comp.cycle(), 0);
        assert!(comp.value(count).is_zero());
    }

    #[test]
    fn register_to_register_move_is_staged() {
        // r2 <- r1 <- input: without staging, committing r1 before r2
        // would make r2 skip a cycle.
        let mut b = ModuleBuilder::new("shift2");
        let d = b.input("d", 4);
        let ds = b.sig(d);
        let r1 = b.reg("r1", 4, 0);
        let r2 = b.reg("r2", 4, 0);
        let r1s = b.sig(r1);
        b.set_next(r1, ds).expect("drive");
        b.set_next(r2, r1s).expect("drive");
        let m = b.build().expect("valid");
        let mut interp = Simulator::new(&m);
        let mut comp = CompiledSim::new(&m);
        for cycle in 0..10u64 {
            interp.set_input_u64(d, cycle);
            comp.set_input_u64(d, cycle);
            interp.step();
            comp.step();
            assert_eq!(interp.value(r1), &comp.value(r1), "r1 @{cycle}");
            assert_eq!(interp.value(r2), &comp.value(r2), "r2 @{cycle}");
        }
        assert_eq!(comp.value(r2).to_u64(), 8);
    }

    #[test]
    fn compiled_taint_and_masking_rules_match() {
        let mut b = ModuleBuilder::new("m");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        let a_sig = b.sig(a);
        let c_sig = b.sig(c);
        let anded = b.and(a_sig, c_sig);
        let out = b.output("out", anded);
        let m = b.build().expect("valid");
        let mut sim = CompiledTaintSim::new(&m, FlowPolicy::Precise);
        sim.set_input_u64(a, 0xFF, true);
        sim.set_input_u64(c, 0x00, false);
        sim.settle();
        assert!(!sim.is_tainted(out));
        sim.set_input_u64(c, 0x0F, false);
        sim.settle();
        assert_eq!(sim.taint(out).to_u64(), 0x0F);
        let mut cons = CompiledTaintSim::new(&m, FlowPolicy::Conservative);
        cons.set_input_u64(a, 0xFF, true);
        cons.set_input_u64(c, 0x00, false);
        cons.settle();
        assert!(cons.is_tainted(out));
    }

    #[test]
    fn compiled_declassification_matches_interpreter() {
        let mut b = ModuleBuilder::new("m");
        let d = b.input("d", 4);
        let d_sig = b.sig(d);
        let w = b.wire("w", d_sig);
        let w_sig = b.sig(w);
        let out = b.output("out", w_sig);
        let m = b.build().expect("valid");
        let mut interp = TaintSimulator::new(&m, FlowPolicy::Precise);
        let mut comp = CompiledTaintSim::new(&m, FlowPolicy::Precise);
        interp.declassify(w);
        comp.declassify(w);
        interp.set_input(d, BitVec::from_u64(4, 3), true);
        comp.set_input_u64(d, 3, true);
        interp.settle();
        comp.settle();
        for id in [d, w, out] {
            assert_eq!(interp.taint(id), &comp.taint(id));
        }
        assert!(!comp.is_tainted(w));
        assert!(!comp.is_tainted(out));
    }

    #[test]
    fn small_helpers_behave_at_the_64_bit_boundary() {
        assert_eq!(mask_of(64), u64::MAX);
        assert_eq!(mask_of(1), 1);
        assert_eq!(mask_of(63), u64::MAX >> 1);
        assert_eq!(sign_extend(1, 1), -1);
        assert_eq!(sign_extend(u64::MAX, 64), -1);
        assert_eq!(sign_extend(0x80, 8), -128);
        assert_eq!(carry_smear(0, u64::MAX), 0);
        assert_eq!(carry_smear(0b100, 0xFF), 0xFC);
        assert_eq!(carry_smear(1 << 63, u64::MAX), 1 << 63);
    }

    #[test]
    fn multi_limb_helpers_cross_limb_boundaries() {
        let x = [0x8000_0000_0000_0001, 0x3];
        assert_eq!(bits_at(&x, 63), 0b111);
        assert_eq!(bits_at(&x, 64), 0x3);
        assert_eq!(bits_at(&x, 200), 0);
        assert_eq!(shifted_limb(&x, 1, 0), 0x2);
        assert_eq!(shifted_limb(&x, 1, 1), 0x7);
        assert_eq!(shifted_limb(&x, 130, 2), 0x4);
        assert_eq!(shifted_limb(&x, 130, 1), 0);
        let mut out = [0u64; 3];
        fill_from(&mut out, 70);
        assert_eq!(out, [0, u64::MAX << 6, u64::MAX]);
        assert_eq!(shift_amount(&[5, 0, 0]), 5);
        assert_eq!(shift_amount(&[5, 0, 1]), u64::MAX);
        // A taint at bit 63 smears through the next limb, clipped at 70.
        wide_carry_smear(&[1 << 63, 0], &[0, 0], 70, &mut out[..2]);
        assert_eq!(out[..2], [1 << 63, 0x3F]);
        // 2^64 - 1 times 2^64 - 1, truncated to 130 bits.
        wide_mul(&[u64::MAX, 0, 0], &[u64::MAX, 0, 0], 130, &mut out);
        assert_eq!(out, [1, u64::MAX - 1, 0]);
    }
}

//! Steady-state allocation audit for the compiled simulation engine.
//!
//! At any signal width, the compiled tape must run entirely on its
//! preallocated arenas and scratch buffers: after the first cycle,
//! `set_input_u64` / `settle` / `clock` must never touch the heap. Two
//! designs are audited, one whose signals are all ≤ 64 bits wide (the
//! `u64` kernels) and one with 70-, 128- and 130-bit signals (the
//! multi-limb kernels). A counting `#[global_allocator]` measures this
//! directly, so this suite lives in its own test binary with a single
//! `#[test]` (no concurrent tests mutating the counter).

use fastpath_rtl::{Module, ModuleBuilder};
use fastpath_sim::{CompiledSim, CompiledTaintSim, FlowPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// An all-small design: 32-bit datapath with a mux, comparisons, shifts
/// and a couple of registers — enough to touch most small-value kernels.
fn small_design() -> Module {
    let mut b = ModuleBuilder::new("alloc_probe");
    let data = b.data_input("data", 32);
    let ctrl = b.control_input("ctrl", 1);
    let d = b.sig(data);
    let c = b.sig(ctrl);
    let acc = b.reg("acc", 32, 1);
    let a = b.sig(acc);
    let sum = b.add(a, d);
    let two = b.lit(32, 2);
    let dbl = b.mul(a, two);
    let next = b.mux(c, sum, dbl);
    b.set_next(acc, next).expect("drive");
    b.data_output("result", a);
    let phase = b.reg("phase", 8, 0);
    let p = b.sig(phase);
    let one = b.lit(8, 1);
    let inc = b.add(p, one);
    b.set_next(phase, inc).expect("drive");
    let hi = b.slice(p, 7, 4);
    let any = b.red_or(hi);
    b.control_output("busy", any);
    b.build().expect("valid")
}

/// A design whose ≤ 64-bit inputs feed 70-, 128- and 130-bit wires and
/// registers, touching every class of multi-limb kernel: multiply, shifts
/// by a wide amount, signed compares, slices and concats across limb
/// boundaries, sign extension, the reductions and a mux.
fn wide_design() -> Module {
    let mut b = ModuleBuilder::new("wide_alloc_probe");
    let data = b.data_input("data", 64);
    let ctrl = b.control_input("ctrl", 8);
    let d = b.sig(data);
    let c = b.sig(ctrl);
    let d_wide = b.sext(d, 130);
    let amount = b.zext(c, 130);

    // 130-bit accumulator: arithmetic, shifts and a compare-steered mux.
    let acc = b.reg("acc", 130, 1);
    let a = b.sig(acc);
    let sum = b.add(a, d_wide);
    let prod = b.mul(a, d_wide);
    let shl = b.shl(prod, amount);
    let lshr = b.lshr(a, amount);
    let ashr = b.ashr(sum, amount);
    let less = b.slt(a, d_wide);
    let at_most = b.sle(d_wide, a);
    let mixed = b.xor(shl, lshr);
    let next = b.mux(less, mixed, ashr);
    b.set_next(acc, next).expect("drive");

    // 128-bit wire: two 64-bit slices that each straddle a limb boundary.
    let hi = b.slice(a, 129, 66);
    let lo = b.slice(a, 65, 2);
    let cat = b.concat(hi, lo);
    let joined = b.wire("joined", cat);
    let j = b.sig(joined);

    // 70-bit wire and register.
    let window = b.slice(j, 100, 31);
    let part = b.wire("part", window);
    let p = b.sig(part);
    let tail = b.reg("tail", 70, 0);
    let t = b.sig(tail);
    let diff = b.sub(p, t);
    let neg = b.neg(diff);
    let keep = b.mux(at_most, diff, neg);
    b.set_next(tail, keep).expect("drive");

    let all = b.red_and(t);
    let any = b.red_or(j);
    let parity = b.red_xor(a);
    let flags = b.concat(all, any);
    let flags = b.concat(flags, parity);
    b.control_output("flags", flags);
    let low = b.slice(a, 63, 0);
    b.data_output("result", low);
    b.build().expect("valid")
}

/// Allocations over 1000 steady-state cycles of `CompiledSim`, then of
/// `CompiledTaintSim` under both policies together.
fn steady_state_allocations(module: &Module) -> (u64, u64) {
    let data = module.signal_by_name("data").expect("data");
    let ctrl = module.signal_by_name("ctrl").expect("ctrl");

    // Plain value simulation.
    let mut sim = CompiledSim::new(module);
    sim.set_input_u64(data, 0xDEAD_BEEF);
    sim.set_input_u64(ctrl, 1);
    sim.step(); // warm-up: first settle/clock after construction
    let before = allocations();
    for cycle in 0..1000u64 {
        sim.set_input_u64(data, cycle.wrapping_mul(0x9E37_79B9));
        sim.set_input_u64(ctrl, cycle);
        sim.step();
    }
    let value_allocs = allocations() - before;

    // Taint simulation, both policies.
    let mut taint_allocs = 0;
    for policy in [FlowPolicy::Precise, FlowPolicy::Conservative] {
        let mut sim = CompiledTaintSim::new(module, policy);
        sim.set_input_u64(data, 0xDEAD_BEEF, true);
        sim.set_input_u64(ctrl, 1, false);
        sim.step();
        let before = allocations();
        for cycle in 0..1000u64 {
            sim.set_input_u64(data, cycle.wrapping_mul(0x9E37_79B9), cycle % 3 != 0);
            sim.set_input_u64(ctrl, cycle, false);
            sim.step();
        }
        taint_allocs += allocations() - before;
    }
    (value_allocs, taint_allocs)
}

#[test]
fn steady_state_cycles_do_not_allocate() {
    for (module, small_only) in [(small_design(), true), (wide_design(), false)] {
        assert_eq!(
            CompiledSim::new(&module).tape().is_small_only(),
            small_only,
            "{}",
            module.name()
        );
        let (value_allocs, taint_allocs) = steady_state_allocations(&module);
        assert_eq!(
            value_allocs,
            0,
            "{}: CompiledSim allocated {value_allocs} times in 1000 \
             steady-state cycles",
            module.name()
        );
        assert_eq!(
            taint_allocs,
            0,
            "{}: CompiledTaintSim allocated {taint_allocs} times in 2×1000 \
             steady-state cycles",
            module.name()
        );
    }
}

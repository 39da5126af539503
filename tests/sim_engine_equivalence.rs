//! Compiled-tape vs interpreter equivalence fuzzing.
//!
//! The compiled simulation engine (`SimTape` + `CompiledSim` /
//! `CompiledTaintSim`) must implement the exact same RTL and taint
//! semantics as the interpretive `Simulator` / `TaintSimulator` oracle.
//! For random netlists driven 200 cycles with random stimuli, every
//! signal's value *and* taint mask must match bit for bit, under both
//! flow policies — and the `IftSimulation` reports built on top must be
//! identical too. The checkers themselves live in `fastpath_sim::diff`
//! (shared with the `fastpath-fuzz` differential oracle); this suite
//! drives them from proptest. Hand-built wide (>64-bit) designs cover
//! the limb boundaries and limb counts the random generator never
//! reaches.

use fastpath_rtl::random::{random_module, RandomModuleConfig};
use fastpath_rtl::{BitVec, Module, ModuleBuilder, SignalId, SignalKind};
use fastpath_sim::{
    diff, CompiledSim, CompiledTaintSim, FlowPolicy, Labeled, SimTape, Simulator, TaintSimulator,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const CYCLES: u64 = 200;

fn inputs_of(module: &Module) -> Vec<(SignalId, u32)> {
    module
        .signals()
        .filter(|(_, s)| s.kind == SignalKind::Input)
        .map(|(id, s)| (id, s.width))
        .collect()
}

fn prop(result: Result<(), String>) -> Result<(), TestCaseError> {
    result.map_err(TestCaseError::fail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn values_agree_on_random_netlists(seed in 0u64..1_000_000) {
        let module = random_module(seed, RandomModuleConfig::default());
        prop(diff::check_values(&module, seed, CYCLES))?;
    }

    #[test]
    fn taint_agrees_under_precise_policy(seed in 0u64..1_000_000) {
        let module = random_module(seed, RandomModuleConfig::default());
        prop(diff::check_taint(
            &module, seed, CYCLES, FlowPolicy::Precise, &[],
        ))?;
    }

    #[test]
    fn taint_agrees_under_conservative_policy(seed in 0u64..1_000_000) {
        let module = random_module(seed, RandomModuleConfig::default());
        prop(diff::check_taint(
            &module, seed, CYCLES, FlowPolicy::Conservative, &[],
        ))?;
    }

    #[test]
    fn taint_agrees_with_declassification(seed in 0u64..1_000_000) {
        let module = random_module(seed, RandomModuleConfig::default());
        // Declassify a couple of driven signals, deterministically.
        let declassify: Vec<SignalId> = module
            .signals()
            .filter(|(_, s)| {
                matches!(s.kind, SignalKind::Wire | SignalKind::Register)
            })
            .map(|(id, _)| id)
            .step_by(2)
            .take(2)
            .collect();
        prop(diff::check_taint(
            &module, seed, CYCLES, FlowPolicy::Precise, &declassify,
        ))?;
    }

    #[test]
    fn ift_reports_agree_across_engines(seed in 0u64..1_000_000) {
        let module = random_module(seed, RandomModuleConfig::default());
        for policy in [FlowPolicy::Precise, FlowPolicy::Conservative] {
            prop(diff::check_ift_report(
                &module, seed, CYCLES, policy, &[],
            ))?;
        }
    }

    #[test]
    fn extended_netlists_pass_the_full_battery(seed in 0u64..1_000_000) {
        // Wide signals and memories, through every checker at once.
        let config = RandomModuleConfig {
            wide_signals: true,
            memories: true,
            ..RandomModuleConfig::default()
        };
        let module = random_module(seed, config);
        prop(diff::check_engine_equivalence(&module, seed, 100, &[]))?;
    }
}

/// A design exercising every operator class on `width`-bit signals
/// (`width` > 64). Random netlists stay at 13 bits by default; with
/// `wide_signals` they add 33 and 70, and cap expressions at 128 bits, so
/// only these modules reach an exact limb boundary or three limbs.
fn wide_module(width: u32) -> Module {
    let mut b = ModuleBuilder::new(format!("wide{width}"));
    let a = b.input("a", width);
    let c = b.input("c", width);
    let sh = b.input("sh", 8);
    let sel = b.input("sel", 1);
    let a_s = b.sig(a);
    let c_s = b.sig(c);
    let sh_s = b.sig(sh);
    let sel_s = b.sig(sel);
    let sh_w = b.zext(sh_s, width);

    let sum = b.add(a_s, c_s);
    let dif = b.sub(a_s, c_s);
    let prod = b.mul(a_s, c_s);
    let band = b.and(a_s, c_s);
    let bxor = b.xor(a_s, c_s);
    let inv = b.not(a_s);
    let neg = b.neg(c_s);
    let shl = b.shl(a_s, sh_w);
    let lshr = b.lshr(a_s, sh_w);
    let ashr = b.ashr(a_s, sh_w);
    // Full-width amounts: a set high limb saturates the shift, even
    // under a small low limb.
    let sh64 = b.zext(sh_s, 64);
    let c_lo = b.slice(c_s, width - 65, 0);
    let far = b.concat(c_lo, sh64);
    let shl_far = b.shl(a_s, far);
    let ashr_wide = b.ashr(c_s, a_s);
    let bor = b.or(a_s, c_s);
    b.output("sum", sum);
    b.output("dif", dif);
    b.output("prod", prod);
    // Read every limb of the product, and borrow across every limb.
    let prod_parity = b.red_xor(prod);
    let self_dif = b.sub(a_s, a_s);
    b.output("prod_parity", prod_parity);
    b.output("self_dif", self_dif);
    b.output("band", band);
    b.output("bxor", bxor);
    b.output("inv", inv);
    b.output("neg", neg);
    b.output("shl", shl);
    b.output("lshr", lshr);
    b.output("ashr", ashr);
    b.output("shl_far", shl_far);
    b.output("ashr_wide", ashr_wide);
    b.output("bor", bor);

    // Structural ops crossing limb boundaries at odd offsets.
    let hi_slice = b.slice(a_s, width - 1, 60);
    let lo_slice = b.slice(c_s, 59, 0);
    let cat = b.concat(hi_slice, lo_slice);
    let sext = b.sext(hi_slice, width);
    let mid = b.slice(a_s, width - 2, 3);
    let mid_cat = b.concat(mid, c_s);
    let sext_a = b.sext(a_s, width + 70);
    b.output("cat", cat);
    b.output("sext", sext);
    b.output("mid_cat", mid_cat);
    b.output("sext_a", sext_a);

    // Reductions and comparisons (wide operands, 1-bit results).
    let rand_ = b.red_and(a_s);
    let ror = b.red_or(a_s);
    let rxor = b.red_xor(a_s);
    let eq = b.eq(a_s, c_s);
    let ne = b.ne(a_s, inv);
    let ult = b.ult(a_s, c_s);
    let ule = b.ule(a_s, c_s);
    let slt = b.slt(a_s, c_s);
    let sle = b.sle(c_s, a_s);
    b.output("rand", rand_);
    b.output("ror", ror);
    b.output("rxor", rxor);
    b.output("eq", eq);
    b.output("ne", ne);
    b.output("ult", ult);
    b.output("ule", ule);
    b.output("slt", slt);
    b.output("sle", sle);

    // A wide register with a muxed feedback and a reg-to-reg move.
    let r1 = b.reg("r1", width, 0);
    let r2 = b.reg("r2", width, 0);
    let r1_s = b.sig(r1);
    let mixed = b.xor(r1_s, a_s);
    let next = b.mux(sel_s, mixed, sum);
    b.set_next(r1, next).expect("drive");
    b.set_next(r2, r1_s).expect("drive");
    let r2_s = b.sig(r2);
    b.output("r2_tap", r2_s);
    b.build().expect("valid")
}

fn drive_wide(rng: &mut StdRng, w: u32) -> BitVec {
    let limbs: Vec<u64> = (0..w.div_ceil(64)).map(|_| rng.gen()).collect();
    BitVec::from_limbs(w, &limbs)
}

/// A taint mask: clean, fully tainted, random bits, or one random bit (a
/// lone low bit must smear carries through every limb above it).
fn drive_taint(rng: &mut StdRng, w: u32) -> BitVec {
    match rng.gen_range(0..4) {
        0 => BitVec::zero(w),
        1 => BitVec::ones(w),
        2 => drive_wide(rng, w),
        _ => {
            let mut t = BitVec::zero(w);
            t.set_bit(rng.gen_range(0..w), true);
            t
        }
    }
}

#[test]
fn wide_values_and_taint_agree() {
    for width in [65, 127, 128, 129, 130, 192, 193] {
        let module = wide_module(width);
        let tape = Arc::new(SimTape::compile(&module));
        assert!(!tape.is_small_only());
        for policy in [FlowPolicy::Precise, FlowPolicy::Conservative] {
            let mut plain_i = Simulator::new(&module);
            let mut plain_c = CompiledSim::with_tape(&module, Arc::clone(&tape));
            let mut taint_i = TaintSimulator::new(&module, policy);
            let mut taint_c = CompiledTaintSim::with_tape(&module, Arc::clone(&tape), policy);
            let mut rng = StdRng::seed_from_u64(0xD1CE_0000_0001 ^ u64::from(width));
            let inputs = inputs_of(&module);
            for cycle in 0..100u64 {
                for &(id, w) in &inputs {
                    let value = drive_wide(&mut rng, w);
                    let taint = drive_taint(&mut rng, w);
                    plain_i.set_input(id, value.clone());
                    plain_c.set_input(id, value.clone());
                    let labeled = Labeled { value, taint };
                    taint_i.set_input_labeled(id, labeled.clone());
                    taint_c.set_input_labeled(id, labeled);
                }
                plain_i.settle();
                plain_c.settle();
                taint_i.settle();
                taint_c.settle();
                for (id, s) in module.signals() {
                    assert_eq!(
                        plain_i.value(id),
                        &plain_c.value(id),
                        "value of `{}` @{cycle} (width {width})",
                        s.name
                    );
                    assert_eq!(
                        taint_i.value(id),
                        &taint_c.value(id),
                        "taint-sim value of `{}` @{cycle} ({policy:?}, width {width})",
                        s.name
                    );
                    assert_eq!(
                        taint_i.taint(id),
                        &taint_c.taint(id),
                        "taint of `{}` @{cycle} ({policy:?}, width {width})",
                        s.name
                    );
                }
                plain_i.clock();
                plain_c.clock();
                taint_i.clock();
                taint_c.clock();
            }
        }
    }
}

/// Shift amounts beyond the operand width — including amounts only
/// representable above 64 bits — must agree with the oracle.
#[test]
fn oversized_shift_amounts_agree() {
    let mut b = ModuleBuilder::new("bigshift");
    let a = b.input("a", 64);
    let amt = b.input("amt", 70);
    let a_s = b.sig(a);
    let amt_s = b.sig(amt);
    let a_w = b.zext(a_s, 70);
    let shl = b.shl(a_w, amt_s);
    let lshr = b.lshr(a_w, amt_s);
    let ashr = b.ashr(a_w, amt_s);
    b.output("shl", shl);
    b.output("lshr", lshr);
    b.output("ashr", ashr);
    let module = b.build().expect("valid");
    let a_id = module.signal_by_name("a").expect("a");
    let amt_id = module.signal_by_name("amt").expect("amt");
    let mut interp = Simulator::new(&module);
    let mut comp = CompiledSim::new(&module);
    let amounts: [BitVec; 4] = [
        BitVec::from_u64(70, 3),
        BitVec::from_u64(70, 69),
        BitVec::from_u64(70, 1000),
        BitVec::from_limbs(70, &[0, 0x20]), // bit 69 set: amount 2^69
    ];
    for amount in amounts {
        for value in [u64::MAX, 0x8000_0000_0000_0001] {
            interp.set_input(a_id, BitVec::from_u64(64, value));
            comp.set_input(a_id, BitVec::from_u64(64, value));
            interp.set_input(amt_id, amount.clone());
            comp.set_input(amt_id, amount.clone());
            interp.settle();
            comp.settle();
            for (id, s) in module.signals() {
                assert_eq!(
                    interp.value(id),
                    &comp.value(id),
                    "`{}` for amount {amount:?}",
                    s.name
                );
            }
        }
    }
}

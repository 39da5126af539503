//! A simplified Berkeley Out-of-Order Machine (BOOM) model — the largest
//! design in the suite, as in the paper.
//!
//! The model keeps the *partition structure* that makes BOOM interesting
//! for FastPath: a small control core (fetch FIFO, dispatch, scheduling
//! flags) steering a **large data path** — a 16-entry integer register
//! file, an 8-entry floating-point register file, and a 3-stage FP pipeline
//! with overlapped (out-of-order) completion against the single-cycle
//! integer pipe and a multi-cycle divider.
//!
//! Three FP special-case sticky registers are written only for exact
//! operand patterns (a specific subnormal, a specific NaN payload, an
//! exact-rounding-boundary product). Random simulation never reaches them;
//! the formal step discovers each as a legal data propagation — the
//! paper's "corner cases, such as special cases for FP computations".
//!
//! Like the cv32e40s study, usage constraints are the `data_ind_timing`
//! analogue for the divider plus a secret-register discipline (x8–x15 are
//! the secret integer registers; all FP registers hold secrets).

use fastpath::{CaseStudy, DesignInstance, NamedPredicate};
use fastpath_rtl::{BitVec, ExprId, Module, ModuleBuilder, RegFile};
use rand::Rng as _;
use std::sync::Arc;

const XLEN: u32 = 16;

/// Instruction classes in bits `[15:13]`.
pub mod class {
    /// Integer ALU: `rd[12:9]`, `rs1[8:5]`, `rs2[4:1]`.
    pub const ALU: u64 = 0;
    /// Load-immediate-from-port into an integer register (imports secrets).
    pub const LDI: u64 = 1;
    /// Floating-point op: `fd[12:10]`, `fa[9:7]`, `fb[6:4]`, `funct[3:1]`.
    pub const FPOP: u64 = 2;
    /// Load-from-port into an FP register.
    pub const FLDI: u64 = 3;
    /// Integer divide (multi-cycle).
    pub const DIV: u64 = 4;
    /// Branch on integer equality (flushes the fetch queue).
    pub const BRANCH: u64 = 5;
    /// Move FP bits into an integer register.
    pub const FMV: u64 = 6;
    /// No operation.
    pub const NOP: u64 = 7;
}

/// Builder outputs for the case study.
struct Built {
    module: Module,
    dit_on: ExprId,
    discipline: ExprId,
}

/// Builds the model.
pub fn build_module() -> Module {
    construct().module
}

#[allow(clippy::too_many_lines)]
fn construct() -> Built {
    let mut b = ModuleBuilder::new("boom");

    // ---- interface ----------------------------------------------------------
    let instr_i = b.control_input("instr_i", 16);
    let instr_valid_i = b.control_input("instr_valid_i", 1);
    let dit_mode = b.control_input("data_ind_timing", 1);
    let ld_data_i = b.data_input("ld_data_i", XLEN);
    let instr = b.sig(instr_i);
    let instr_valid = b.sig(instr_valid_i);
    let dit = b.sig(dit_mode);
    let ld_data = b.sig(ld_data_i);

    // ---- fetch queue: 4-entry FIFO -------------------------------------------
    let fq_data: Vec<_> = (0..4)
        .map(|i| b.reg(&format!("fq_data_{i}"), 16, 0))
        .collect();
    let fq_valid: Vec<_> = (0..4)
        .map(|i| b.reg(&format!("fq_valid_{i}"), 1, 0))
        .collect();
    let fq_head = b.reg("fq_head", 2, 0);
    let fq_tail = b.reg("fq_tail", 2, 0);
    let fetch_pc = b.reg("fetch_pc", 16, 0);

    let fq_data_s: Vec<ExprId> = fq_data.iter().map(|&r| b.sig(r)).collect();
    let fq_valid_s: Vec<ExprId> = fq_valid.iter().map(|&r| b.sig(r)).collect();
    let head_s = b.sig(fq_head);
    let tail_s = b.sig(fq_tail);
    let fetch_pc_s = b.sig(fetch_pc);

    // Full / empty.
    let mut tail_valid = b.bit_lit(false);
    let mut head_valid = b.bit_lit(false);
    let mut head_instr = b.lit(16, 0);
    for i in 0..4 {
        let at_tail = b.eq_lit(tail_s, i as u64);
        let at_head = b.eq_lit(head_s, i as u64);
        let tv = b.and(at_tail, fq_valid_s[i]);
        tail_valid = b.or(tail_valid, tv);
        let hv = b.and(at_head, fq_valid_s[i]);
        head_valid = b.or(head_valid, hv);
        head_instr = b.mux(at_head, fq_data_s[i], head_instr);
    }
    let fq_full = tail_valid;
    let not_full = b.not(fq_full);
    let push = b.and(instr_valid, not_full);

    // ---- decode of the dispatching (head) instruction ------------------------
    let d_class = b.slice(head_instr, 15, 13);
    let d_rd = b.slice(head_instr, 12, 9);
    let d_rs1 = b.slice(head_instr, 8, 5);
    let d_rs2 = b.slice(head_instr, 4, 1);
    let d_fd = b.slice(head_instr, 12, 10);
    let d_fa = b.slice(head_instr, 9, 7);
    let d_fb = b.slice(head_instr, 6, 4);
    let d_ffunct = b.slice(head_instr, 3, 1);
    let d_is = |b: &mut ModuleBuilder, c: u64| b.eq_lit(d_class, c);
    let is_alu = d_is(&mut b, class::ALU);
    let is_ldi = d_is(&mut b, class::LDI);
    let is_fpop = d_is(&mut b, class::FPOP);
    let is_fldi = d_is(&mut b, class::FLDI);
    let is_div = d_is(&mut b, class::DIV);
    let is_branch = d_is(&mut b, class::BRANCH);
    let is_fmv = d_is(&mut b, class::FMV);

    // ---- register files -------------------------------------------------------
    let mut xrf = RegFile::new(&mut b, "x", 16, XLEN).with_zero_register();
    let mut frf = RegFile::new(&mut b, "f", 8, XLEN);
    let rs1_val = xrf.read(&mut b, d_rs1);
    let rs2_val = xrf.read(&mut b, d_rs2);
    let fa_val = frf.read(&mut b, d_fa);
    let fb_val = frf.read(&mut b, d_fb);

    // ---- divider (integer, multi-cycle) ----------------------------------------
    let div_busy = b.reg("div_busy", 1, 0);
    let div_count = b.reg("div_count", 6, 0);
    let div_den = b.reg("div_den", XLEN, 0);
    let div_stream = b.reg("div_stream", XLEN, 0);
    let div_quo = b.reg("div_quo", XLEN, 0);
    let div_rd = b.reg("div_rd", 4, 0);
    let div_busy_s = b.sig(div_busy);
    let div_count_s = b.sig(div_count);
    let div_den_s = b.sig(div_den);
    let div_stream_s = b.sig(div_stream);
    let div_quo_s = b.sig(div_quo);
    let div_rd_s = b.sig(div_rd);

    // Dispatch gating: divider structural hazard.
    let not_div_busy = b.not(div_busy_s);
    let t1_early = b.bit_lit(true);
    let structural_ok = b.mux(is_div, not_div_busy, t1_early);
    let dispatch = b.and(head_valid, structural_ok);

    // ---- integer ALU (single cycle at dispatch) ---------------------------------
    let alu_funct = b.bit(head_instr, 0);
    let alu_add = b.add(rs1_val, rs2_val);
    let alu_xor = b.xor(rs1_val, rs2_val);
    let alu_res = b.mux(alu_funct, alu_xor, alu_add);

    // ---- FP pipeline: 3 stages, fully pipelined ----------------------------------
    let s1_valid = b.reg("fp_s1_valid", 1, 0);
    let s1_a = b.reg("fp_s1_a", XLEN, 0);
    let s1_b = b.reg("fp_s1_b", XLEN, 0);
    let s1_fd = b.reg("fp_s1_fd", 3, 0);
    let s1_funct = b.reg("fp_s1_funct", 3, 0);
    let s2_valid = b.reg("fp_s2_valid", 1, 0);
    let s2_sum = b.reg("fp_s2_sum", XLEN, 0);
    let s2_exp = b.reg("fp_s2_exp", 5, 0);
    let s2_sign = b.reg("fp_s2_sign", 1, 0);
    let s2_fd = b.reg("fp_s2_fd", 3, 0);
    let s3_valid = b.reg("fp_s3_valid", 1, 0);
    let s3_res = b.reg("fp_s3_res", XLEN, 0);
    let s3_fd = b.reg("fp_s3_fd", 3, 0);
    let s1_valid_s = b.sig(s1_valid);
    let s1_a_s = b.sig(s1_a);
    let s1_b_s = b.sig(s1_b);
    let s1_fd_s = b.sig(s1_fd);
    let s1_funct_s = b.sig(s1_funct);
    let s2_valid_s = b.sig(s2_valid);
    let s2_sum_s = b.sig(s2_sum);
    let s2_exp_s = b.sig(s2_exp);
    let s2_sign_s = b.sig(s2_sign);
    let s2_fd_s = b.sig(s2_fd);
    let s3_valid_s = b.sig(s3_valid);
    let s3_res_s = b.sig(s3_res);
    let s3_fd_s = b.sig(s3_fd);

    let fp_issue = b.and(dispatch, is_fpop);
    b.set_next(s1_valid, fp_issue).expect("s1_valid");
    let s1_a_next = b.mux(fp_issue, fa_val, s1_a_s);
    b.set_next(s1_a, s1_a_next).expect("s1_a");
    let s1_b_next = b.mux(fp_issue, fb_val, s1_b_s);
    b.set_next(s1_b, s1_b_next).expect("s1_b");
    let s1_fd_next = b.mux(fp_issue, d_fd, s1_fd_s);
    b.set_next(s1_fd, s1_fd_next).expect("s1_fd");
    let s1_funct_next = b.mux(fp_issue, d_ffunct, s1_funct_s);
    b.set_next(s1_funct, s1_funct_next).expect("s1_funct");

    // Stage 2: unpack + mantissa arithmetic (structurally FP-like).
    // Half-precision-style packing: sign[15] | exp[14:10] | mant[9:0].
    let exp_a = b.slice(s1_a_s, 14, 10);
    let exp_b = b.slice(s1_b_s, 14, 10);
    let mant_a = b.slice(s1_a_s, 9, 0);
    let mant_b = b.slice(s1_b_s, 9, 0);
    let sign_a = b.bit(s1_a_s, 15);
    let sign_b = b.bit(s1_b_s, 15);
    let exp_max = {
        let gt = b.ule(exp_b, exp_a);
        b.mux(gt, exp_a, exp_b)
    };
    let exp_diff = {
        let gt = b.ule(exp_b, exp_a);
        let d1 = b.sub(exp_a, exp_b);
        let d2 = b.sub(exp_b, exp_a);
        b.mux(gt, d1, d2)
    };
    let mant_a32 = b.zext(mant_a, XLEN);
    let mant_b32 = b.zext(mant_b, XLEN);
    let diff32 = b.zext(exp_diff, XLEN);
    let mant_b_aligned = b.lshr(mant_b32, diff32);
    let mant_sum = b.add(mant_a32, mant_b_aligned);
    let mant_prod = b.mul(mant_a32, mant_b32);
    let is_fmul = b.eq_lit(s1_funct_s, 1);
    let mant_res = b.mux(is_fmul, mant_prod, mant_sum);
    b.set_next(s2_valid, s1_valid_s).expect("s2_valid");
    let s2_sum_next = b.mux(s1_valid_s, mant_res, s2_sum_s);
    b.set_next(s2_sum, s2_sum_next).expect("s2_sum");
    let s2_exp_next = b.mux(s1_valid_s, exp_max, s2_exp_s);
    b.set_next(s2_exp, s2_exp_next).expect("s2_exp");
    let s2_sign_calc = b.xor(sign_a, sign_b);
    let s2_sign_next = b.mux(s1_valid_s, s2_sign_calc, s2_sign_s);
    b.set_next(s2_sign, s2_sign_next).expect("s2_sign");
    let s2_fd_next = b.mux(s1_valid_s, s1_fd_s, s2_fd_s);
    b.set_next(s2_fd, s2_fd_next).expect("s2_fd");

    // Stage 3: normalize one step and pack.
    let overflowed = b.bit(s2_sum_s, 10);
    let shifted = {
        let one = b.lit(XLEN, 1);
        b.lshr(s2_sum_s, one)
    };
    let normalized = b.mux(overflowed, shifted, s2_sum_s);
    let one5e = b.lit(5, 1);
    let exp_inc = b.add(s2_exp_s, one5e);
    let final_exp = b.mux(overflowed, exp_inc, s2_exp_s);
    let packed = {
        let mant = b.slice(normalized, 9, 0);
        let se = b.concat(s2_sign_s, final_exp);
        b.concat(se, mant)
    };
    b.set_next(s3_valid, s2_valid_s).expect("s3_valid");
    let s3_res_next = b.mux(s2_valid_s, packed, s3_res_s);
    b.set_next(s3_res, s3_res_next).expect("s3_res");
    let s3_fd_next = b.mux(s2_valid_s, s2_fd_s, s3_fd_s);
    b.set_next(s3_fd, s3_fd_next).expect("s3_fd");

    // FP special-case capture registers — guarded by *rare funct codes*
    // (the slow-path square root, reciprocal and class-inspect ops) that
    // the rudimentary testbench never issues. They structurally receive
    // confidential operand data, so only the formal step discovers them —
    // the paper's "special cases for FP computations".
    let fp_sqrt_seed = b.reg("fp_sqrt_seed", XLEN, 0);
    let fp_recip_seed = b.reg("fp_recip_seed", XLEN, 0);
    let fp_class_capture = b.reg("fp_class_capture", XLEN, 0);
    let sqrt_s = b.sig(fp_sqrt_seed);
    let recip_s = b.sig(fp_recip_seed);
    let classcap_s = b.sig(fp_class_capture);
    let is_fsqrt = b.eq_lit(s1_funct_s, 5);
    let is_frecip = b.eq_lit(s1_funct_s, 6);
    let is_fclass = b.eq_lit(s1_funct_s, 7);
    let sqrt_fire = b.and(s1_valid_s, is_fsqrt);
    let recip_fire = b.and(s1_valid_s, is_frecip);
    let class_fire = b.and(s1_valid_s, is_fclass);
    let sqrt_next = b.mux(sqrt_fire, s1_a_s, sqrt_s);
    b.set_next(fp_sqrt_seed, sqrt_next).expect("sqrt");
    let recip_next = b.mux(recip_fire, s1_b_s, recip_s);
    b.set_next(fp_recip_seed, recip_next).expect("recip");
    let class_bits = b.xor(s1_a_s, s1_b_s);
    let class_next = b.mux(class_fire, class_bits, classcap_s);
    b.set_next(fp_class_capture, class_next).expect("classcap");

    // ---- divider sequencing ------------------------------------------------------
    let div_start = b.and(dispatch, is_div);
    let mut sig_bits = b.lit(6, 1);
    for i in 1..XLEN {
        let bit = b.bit(rs1_val, i);
        let this = b.lit(6, (i + 1) as u64);
        sig_bits = b.mux(bit, this, sig_bits);
    }
    let full_lat = b.lit(6, 16);
    let div_latency = b.mux(dit, full_lat, sig_bits);
    let one6 = b.lit(6, 1);
    let count_dec = b.sub(div_count_s, one6);
    let count_run = b.mux(div_busy_s, count_dec, div_count_s);
    let count_next = b.mux(div_start, div_latency, count_run);
    b.set_next(div_count, count_next).expect("div_count");
    let div_finishing = {
        let at1 = b.eq_lit(div_count_s, 1);
        b.and(div_busy_s, at1)
    };
    let nfin = b.not(div_finishing);
    let keep = b.and(div_busy_s, nfin);
    let t1 = b.bit_lit(true);
    let div_busy_next = b.mux(div_start, t1, keep);
    b.set_next(div_busy, div_busy_next).expect("div_busy");
    let lat_x = b.zext(div_latency, XLEN);
    let cmax = b.lit(XLEN, 16);
    let pre_shift = b.sub(cmax, lat_x);
    let aligned = b.shl(rs1_val, pre_shift);
    let one_w = b.lit(XLEN, 1);
    let stream_shl = b.shl(div_stream_s, one_w);
    let stream_run = b.mux(div_busy_s, stream_shl, div_stream_s);
    let stream_next = b.mux(div_start, aligned, stream_run);
    b.set_next(div_stream, stream_next).expect("div_stream");
    let den_next = b.mux(div_start, rs2_val, div_den_s);
    b.set_next(div_den, den_next).expect("div_den");
    // Non-restoring-lite: track quotient only (remainder folded in).
    let div_rem = b.reg("div_rem", XLEN, 0);
    let div_rem_s = b.sig(div_rem);
    let rem_shift = {
        let low = b.slice(div_rem_s, XLEN - 2, 0);
        let msb = b.bit(div_stream_s, XLEN - 1);
        b.concat(low, msb)
    };
    let ge = b.ule(div_den_s, rem_shift);
    let rem_sub = b.sub(rem_shift, div_den_s);
    let rem_stepped = b.mux(ge, rem_sub, rem_shift);
    let rem_run = b.mux(div_busy_s, rem_stepped, div_rem_s);
    let zero_w = b.lit(XLEN, 0);
    let rem_next = b.mux(div_start, zero_w, rem_run);
    b.set_next(div_rem, rem_next).expect("div_rem");
    let quo_shift = {
        let low = b.slice(div_quo_s, XLEN - 2, 0);
        b.concat(low, ge)
    };
    let quo_run = b.mux(div_busy_s, quo_shift, div_quo_s);
    let quo_next = b.mux(div_start, zero_w, quo_run);
    b.set_next(div_quo, quo_next).expect("div_quo");
    let div_rd_next = b.mux(div_start, d_rd, div_rd_s);
    b.set_next(div_rd, div_rd_next).expect("div_rd");

    // ---- write-back (out-of-order completion) --------------------------------------
    // Integer: ALU/LDI/FMV complete at dispatch; the divider completes
    // later on its own port.
    let x_we_now = {
        let a = b.or(is_alu, is_ldi);
        let af = b.or(a, is_fmv);
        b.and(dispatch, af)
    };
    // FMV addresses the FP file through the low bits of the rs1 field (the
    // fa field overlaps rd for FP-format instructions).
    let d_fmv_fa = b.slice(head_instr, 7, 5);
    let fmv_val = frf.read(&mut b, d_fmv_fa);
    let ldi_or = b.mux(is_ldi, ld_data, alu_res);
    let x_val = b.mux(is_fmv, fmv_val, ldi_or);
    xrf.write(&mut b, x_we_now, d_rd, x_val);
    // Divider port (quotient finalized with the combinational last step).
    xrf.write(&mut b, div_finishing, div_rd_s, quo_shift);
    xrf.finish(&mut b).expect("x register file");
    let f_we_now = b.and(dispatch, is_fldi);
    frf.write(&mut b, f_we_now, d_fd, ld_data);
    frf.write(&mut b, s3_valid_s, s3_fd_s, s3_res_s);
    frf.finish(&mut b).expect("f register file");

    // ---- fetch queue update -----------------------------------------------------------
    let branch_taken = {
        let eq = b.eq(rs1_val, rs2_val);
        let bd = b.and(dispatch, is_branch);
        b.and(bd, eq)
    };
    let one2 = b.lit(2, 1);
    let zero2 = b.lit(2, 0);
    let head_inc = b.add(head_s, one2);
    let head_step = b.mux(dispatch, head_inc, head_s);
    // On a taken branch the queue is flushed: both pointers reset and all
    // valid bits clear (any same-cycle push is discarded with them).
    let head_next = b.mux(branch_taken, zero2, head_step);
    b.set_next(fq_head, head_next).expect("fq_head");
    let tail_inc = b.add(tail_s, one2);
    let tail_step = b.mux(push, tail_inc, tail_s);
    let tail_next = b.mux(branch_taken, zero2, tail_step);
    b.set_next(fq_tail, tail_next).expect("fq_tail");
    for i in 0..4 {
        let at_tail = b.eq_lit(tail_s, i as u64);
        let at_head = b.eq_lit(head_s, i as u64);
        let write = b.and(push, at_tail);
        let data_next = b.mux(write, instr, fq_data_s[i]);
        b.set_next(fq_data[i], data_next).expect("fq_data");
        let popped = b.and(dispatch, at_head);
        let keep_valid = {
            let np = b.not(popped);
            b.and(fq_valid_s[i], np)
        };
        let with_push = b.or(keep_valid, write);
        let f1 = b.bit_lit(false);
        let valid_next = b.mux(branch_taken, f1, with_push);
        b.set_next(fq_valid[i], valid_next).expect("fq_valid");
    }
    let pc_inc = {
        let one16 = b.lit(16, 1);
        b.add(fetch_pc_s, one16)
    };
    let pc_step = b.mux(push, pc_inc, fetch_pc_s);
    let br_off = {
        let imm = b.slice(head_instr, 8, 1);
        b.zext(imm, 16)
    };
    let br_target = b.add(fetch_pc_s, br_off);
    let pc_next = b.mux(branch_taken, br_target, pc_step);
    b.set_next(fetch_pc, pc_next).expect("fetch_pc");

    // ---- observable control interface ----------------------------------------------
    b.control_output("fetch_ready_o", not_full);
    b.control_output("fetch_pc_o", fetch_pc_s);
    b.control_output("dispatch_valid_o", dispatch);
    b.control_output("div_busy_o", div_busy_s);
    b.control_output("fp_commit_o", s3_valid_s);
    // FP capture state is visible on a data output (debug port).
    let flags = {
        let a = b.xor(sqrt_s, recip_s);
        b.xor(a, classcap_s)
    };
    b.data_output("fp_debug_o", flags);

    // ---- specification vocabulary -------------------------------------------------
    let dit_on = b.eq_lit(dit, 1);
    // Secret-register discipline over the incoming instruction and the
    // queue contents: x8..x15 secret, FP registers always secret.
    let mut discipline = discipline_word(&mut b, instr);
    for i in 0..4 {
        let entry_ok = discipline_word(&mut b, fq_data_s[i]);
        let nv = b.not(fq_valid_s[i]);
        let entry_rule = b.or(nv, entry_ok);
        discipline = b.and(discipline, entry_rule);
    }
    // Divider destination must be secret (its operands may be secret) —
    // covered per instruction word; in-flight divider state:
    let div_rd_sec = b.bit(div_rd_s, 3);
    let div_ok = {
        let nb = b.not(div_busy_s);
        b.or(nb, div_rd_sec)
    };
    discipline = b.and(discipline, div_ok);
    // In-flight FP destinations are always FP registers (secret class), no
    // extra rule needed.

    Built {
        module: b.build().expect("boom module is valid"),
        dit_on,
        discipline,
    }
}

/// The discipline over one instruction word: arithmetic mixing secret
/// integer registers targets secret registers; LDI/FLDI import secrets into
/// secret/FP registers; branches compare public registers only; FMV moves
/// FP (secret) bits only into secret integer registers; DIV operands may be
/// secret but the destination must be secret.
fn discipline_word(b: &mut ModuleBuilder, word: ExprId) -> ExprId {
    let cls = b.slice(word, 15, 13);
    let rd = b.slice(word, 12, 9);
    let rs1 = b.slice(word, 8, 5);
    let rs2 = b.slice(word, 4, 1);
    let sec_rd = b.bit(rd, 3);
    let sec_rs1 = b.bit(rs1, 3);
    let sec_rs2 = b.bit(rs2, 3);

    let is_alu = b.eq_lit(cls, class::ALU);
    let any_src = b.or(sec_rs1, sec_rs2);
    let n_src = b.not(any_src);
    let alu_ok = b.or(n_src, sec_rd);
    let alu_rule = {
        let n = b.not(is_alu);
        b.or(n, alu_ok)
    };

    let is_ldi = b.eq_lit(cls, class::LDI);
    let ldi_rule = {
        let n = b.not(is_ldi);
        b.or(n, sec_rd)
    };

    let is_div = b.eq_lit(cls, class::DIV);
    let div_rule = {
        let n = b.not(is_div);
        b.or(n, sec_rd)
    };

    let is_branch = b.eq_lit(cls, class::BRANCH);
    // Branch compares rs1/rs2 (rd field holds offset bits — exempt).
    let no_sec = {
        let a = b.not(sec_rs1);
        let c = b.not(sec_rs2);
        b.and(a, c)
    };
    let branch_rule = {
        let n = b.not(is_branch);
        b.or(n, no_sec)
    };

    let is_fmv = b.eq_lit(cls, class::FMV);
    let fmv_rule = {
        let n = b.not(is_fmv);
        b.or(n, sec_rd)
    };

    let r1 = b.and(alu_rule, ldi_rule);
    let r2 = b.and(r1, div_rule);
    let r3 = b.and(r2, branch_rule);
    b.and(r3, fmv_rule)
}

/// Generates a random discipline-conforming instruction.
pub fn random_disciplined_instr(rng: &mut rand::rngs::StdRng) -> u64 {
    let pub_x = |rng: &mut rand::rngs::StdRng| rng.gen_range(0..8u64);
    let sec_x = |rng: &mut rand::rngs::StdRng| rng.gen_range(8..16u64);
    let any_x = |rng: &mut rand::rngs::StdRng| rng.gen_range(0..16u64);
    let classes = [
        class::ALU,
        class::LDI,
        class::FPOP,
        class::FLDI,
        class::DIV,
        class::BRANCH,
        class::FMV,
        class::NOP,
    ];
    let cls = classes[rng.gen_range(0..classes.len())];
    let (rd, rs1, rs2): (u64, u64, u64) = match cls {
        class::ALU => {
            let rs1 = any_x(rng);
            let rs2 = any_x(rng);
            let rd = if rs1 >= 8 || rs2 >= 8 {
                sec_x(rng)
            } else {
                any_x(rng)
            };
            (rd, rs1, rs2)
        }
        class::LDI | class::DIV | class::FMV => (sec_x(rng), any_x(rng), any_x(rng)),
        class::BRANCH => (any_x(rng), pub_x(rng), pub_x(rng)),
        // FPOP: keep the funct bits (low rs2 field bits) in the simple
        // add/mul range — the rudimentary testbench never exercises the
        // rare FP slow-path ops (functs 5..7).
        class::FPOP => (any_x(rng), any_x(rng), rng.gen_range(0..16u64) & 0b1001),
        _ => (any_x(rng), any_x(rng), any_x(rng)),
    };
    (cls << 13) | (rd << 9) | (rs1 << 5) | (rs2 << 1) | rng.gen_range(0..2u64)
}

/// The BOOM case study.
pub fn case_study() -> CaseStudy {
    let built = construct();
    let module = built.module;
    let instr = module.signal_by_name("instr_i").expect("instr");
    let instr_valid = module.signal_by_name("instr_valid_i").expect("instr_valid");
    let dit = module.signal_by_name("data_ind_timing").expect("dit");

    let mut instance = DesignInstance::new(module);
    instance.constraints.push(NamedPredicate {
        name: "data_ind_timing_enabled".into(),
        expr: built.dit_on,
        restrict_testbench: Some(Arc::new(move |_m, tb| {
            tb.fix(dit, 1);
        })),
    });
    instance.constraints.push(NamedPredicate {
        name: "secret_register_discipline".into(),
        expr: built.discipline,
        restrict_testbench: Some(Arc::new(move |_m, tb| {
            tb.with_generator(instr, |_c, rng| {
                BitVec::from_u64(16, random_disciplined_instr(rng))
            });
        })),
    });
    instance.configure_testbench = Some(Arc::new(move |_m, tb| {
        tb.with_generator(instr_valid, |_c, rng| BitVec::from_bool(rng.gen_bool(0.7)));
    }));

    let mut study = CaseStudy::new("BOOM", instance);
    study.cycles = 2000;
    study.seed = 0xB0;
    study
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_sim::Simulator;

    fn encode(cls: u64, rd: u64, rs1: u64, rs2: u64) -> u64 {
        (cls << 13) | (rd << 9) | (rs1 << 5) | (rs2 << 1)
    }

    /// Feeds instructions one per cycle (when ready) and runs to quiescence.
    fn run(program: &[(u64, u64)]) -> (Module, Vec<u64>, Vec<u64>) {
        // (instruction, ld_data for that cycle)
        let m = build_module();
        let instr = m.signal_by_name("instr_i").expect("instr");
        let valid = m.signal_by_name("instr_valid_i").expect("valid");
        let dit = m.signal_by_name("data_ind_timing").expect("dit");
        let ld = m.signal_by_name("ld_data_i").expect("ld");
        let mut sim = Simulator::new(&m);
        sim.set_input_u64(dit, 1);
        // The load port is sampled at *dispatch*, one cycle after the push,
        // so each instruction's data rides one cycle behind it.
        let mut pending_data = 0u64;
        for &(word, data) in program {
            sim.set_input_u64(instr, word);
            sim.set_input_u64(valid, 1);
            sim.set_input_u64(ld, pending_data);
            sim.step();
            pending_data = data;
        }
        sim.set_input_u64(valid, 0);
        sim.set_input_u64(ld, pending_data);
        sim.step();
        sim.set_input_u64(ld, 0);
        for _ in 0..80 {
            sim.step();
        }
        let xs: Vec<u64> = (0..16)
            .map(|i| {
                let id = m.signal_by_name(&format!("x_{i}")).expect("x");
                sim.value(id).to_u64()
            })
            .collect();
        let fs: Vec<u64> = (0..8)
            .map(|i| {
                let id = m.signal_by_name(&format!("f_{i}")).expect("f");
                sim.value(id).to_u64()
            })
            .collect();
        (m.clone(), xs, fs)
    }

    #[test]
    fn ldi_and_alu_flow() {
        let program = [
            (encode(class::LDI, 8, 0, 0), 111u64),
            (encode(class::LDI, 9, 0, 0), 222),
            (encode(class::ALU, 10, 8, 9), 0), // x10 = x8 + x9
        ];
        let (_m, xs, _fs) = run(&program);
        assert_eq!(xs[8], 111);
        assert_eq!(xs[9], 222);
        assert_eq!(xs[10], 333);
    }

    #[test]
    fn division_completes_out_of_order() {
        let program = [
            (encode(class::LDI, 8, 0, 0), 1000u64),
            (encode(class::LDI, 9, 0, 0), 7),
            (encode(class::DIV, 10, 8, 9), 0),
            // These dispatch while the divider is busy.
            (encode(class::LDI, 11, 0, 0), 42),
            (encode(class::ALU, 12, 11, 11), 0),
        ];
        let (_m, xs, _fs) = run(&program);
        assert_eq!(xs[10], 1000 / 7);
        assert_eq!(xs[11], 42);
        assert_eq!(xs[12], 84);
    }

    #[test]
    fn fp_pipeline_produces_results() {
        // f1 = bits, f2 = bits, f3 = f1 +fp f2 (structural add).
        let a = 0x3C00u64; // 1.0 (half precision)
        let b_val = 0x3C00u64;
        let program = [
            (encode(class::FLDI, 0, 0, 0) | (1 << 10), a), // fd in [12:10]
            (encode(class::FLDI, 0, 0, 0) | (2 << 10), b_val),
            // FPOP fd=3 fa=1 fb=2 funct=0 (add)
            ((class::FPOP << 13) | (3 << 10) | (1 << 7) | (2 << 4), 0),
        ];
        let (_m, _xs, fs) = run(&program);
        assert_eq!(fs[1], a);
        assert_eq!(fs[2], b_val);
        assert_ne!(fs[3], 0, "the FP result must have been written");
    }

    #[test]
    fn branch_flushes_fetch_queue() {
        let m = build_module();
        let instr = m.signal_by_name("instr_i").expect("instr");
        let valid = m.signal_by_name("instr_valid_i").expect("valid");
        let dit = m.signal_by_name("data_ind_timing").expect("dit");
        let pc_o = m.signal_by_name("fetch_pc_o").expect("pc");
        let mut sim = Simulator::new(&m);
        sim.set_input_u64(dit, 1);
        // Branch x0 == x0 (taken) with offset bits from rs1/rs2 fields.
        let branch = encode(class::BRANCH, 0, 0, 0) | (5 << 1);
        sim.set_input_u64(instr, branch);
        sim.set_input_u64(valid, 1);
        sim.step();
        sim.set_input_u64(valid, 0);
        let before = sim.value(pc_o).to_u64();
        for _ in 0..4 {
            sim.step();
        }
        sim.settle();
        let after = sim.value(pc_o).to_u64();
        assert!(after > before + 1, "taken branch must redirect the pc");
    }

    #[test]
    fn state_footprint_is_the_largest_in_the_suite() {
        let boom = build_module();
        let cv = crate::cv32e40s::build_module(true);
        let sha = crate::sha512::build_module();
        assert!(boom.state_bits() > cv.state_bits());
        assert!(boom.state_signals().len() > cv.state_signals().len());
        let _ = sha;
    }

    #[test]
    fn disciplined_generator_satisfies_predicate() {
        use rand::SeedableRng as _;
        let built = construct();
        let m = &built.module;
        let instr = m.signal_by_name("instr_i").expect("instr");
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut env: Vec<BitVec> = m.signals().map(|(_, s)| BitVec::zero(s.width)).collect();
        for _ in 0..500 {
            let word = random_disciplined_instr(&mut rng);
            env[instr.index()] = BitVec::from_u64(16, word);
            assert!(
                m.eval(built.discipline, &env).is_true(),
                "instruction {word:#06x} violates the discipline"
            );
        }
    }
}

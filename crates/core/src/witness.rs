//! Concrete replay of formal counterexamples.
//!
//! A UPEC counterexample supplies values for every register and input of
//! both instances at time `t` (and inputs at `t+1`). This module rebuilds
//! the full concrete environments — combinational signals included — so the
//! inspection logic can *evaluate* candidate constraints and invariants on
//! the witness instead of guessing: an invariant that is false in the
//! witness marks the counterexample as spurious; a constraint that is false
//! in the witness marks the scenario as excludable by software.

use fastpath_formal::UpecCounterexample;
use fastpath_rtl::{BitVec, ExprId, Module, SignalId};

/// Full concrete environments for both instances at `t` and `t+1`,
/// reconstructed from a counterexample.
#[derive(Clone, Debug)]
pub struct WitnessReplay {
    /// `envs[instance][frame]`, each a value per signal index.
    envs: [[Vec<BitVec>; 2]; 2],
}

impl WitnessReplay {
    /// Rebuilds the environments from a counterexample of `module`.
    pub fn new(module: &Module, cex: &UpecCounterexample) -> Self {
        let mut envs: [[Vec<BitVec>; 2]; 2] = [
            [blank_env(module), blank_env(module)],
            [blank_env(module), blank_env(module)],
        ];
        // Frame t: state + inputs, then settle.
        for w in &cex.state_values {
            envs[0][0][w.signal.index()] = w.inst0.clone();
            envs[1][0][w.signal.index()] = w.inst1.clone();
        }
        for w in &cex.input_values_t {
            envs[0][0][w.signal.index()] = w.inst0.clone();
            envs[1][0][w.signal.index()] = w.inst1.clone();
        }
        for env in envs.iter_mut() {
            settle_env(module, &mut env[0]);
        }
        // Frame t+1: next state from frame t, inputs at t+1, settle.
        for env in envs.iter_mut() {
            let mut memo: Vec<Option<BitVec>> = vec![None; module.expr_count()];
            let nexts: Vec<(SignalId, BitVec)> = module
                .state_signals()
                .into_iter()
                .map(|reg| {
                    let driver = module.driver(reg).expect("reg driven");
                    (reg, module.eval_memo(driver, &env[0], &mut memo))
                })
                .collect();
            for (reg, v) in nexts {
                env[1][reg.index()] = v;
            }
        }
        for w in &cex.input_values_t1 {
            envs[0][1][w.signal.index()] = w.inst0.clone();
            envs[1][1][w.signal.index()] = w.inst1.clone();
        }
        for env in envs.iter_mut() {
            settle_env(module, &mut env[1]);
        }
        WitnessReplay { envs }
    }

    /// The value of `signal` in `instance` (0/1) at `frame` (0 = t,
    /// 1 = t+1).
    pub fn value(&self, instance: usize, frame: usize, signal: SignalId) -> &BitVec {
        &self.envs[instance][frame][signal.index()]
    }

    /// Evaluates a 1-bit predicate in one instance/frame.
    pub fn eval_predicate(
        &self,
        module: &Module,
        instance: usize,
        frame: usize,
        expr: ExprId,
    ) -> bool {
        module.eval(expr, &self.envs[instance][frame]).is_true()
    }

    /// `true` iff the predicate holds in **both** instances at time `t`
    /// (the invariant obligation).
    pub fn invariant_holds(&self, module: &Module, expr: ExprId) -> bool {
        self.eval_predicate(module, 0, 0, expr) && self.eval_predicate(module, 1, 0, expr)
    }

    /// `true` iff the predicate holds in both instances during `[t, t+1]`
    /// (the software-constraint obligation).
    pub fn constraint_holds(&self, module: &Module, expr: ExprId) -> bool {
        (0..2).all(|inst| (0..2).all(|frame| self.eval_predicate(module, inst, frame, expr)))
    }
}

/// Confirms every claim of a counterexample by concrete evaluation.
///
/// One [`WitnessReplay`] loads both instances with the witness state and
/// inputs at `t`, settles them, commits the registers, applies the `t+1`
/// inputs and settles again — the netlist interpreter
/// ([`Module::eval_memo`]), sharing nothing with the SAT-based engine
/// that produced the witness. The claims checked:
///
/// * every signal in `divergent_state` really differs at `t+1`;
/// * every output in `divergent_outputs` really differs at `t` or `t+1`;
/// * every index in `violated_cond_eqs` names a conditional equality
///   whose condition holds in both instances at `t+1` while the target
///   register differs there.
///
/// `cond_eqs` must list the conditional equalities in the order they were
/// added to the engine's spec (the indices in `violated_cond_eqs` refer
/// to that order). Returns `Err` describing the first claim the concrete
/// replay does not reproduce — which would mean the formal model and the
/// simulation semantics disagree.
pub fn confirm_counterexample(
    module: &Module,
    cond_eqs: &[(ExprId, SignalId)],
    cex: &UpecCounterexample,
) -> Result<(), String> {
    let replay = WitnessReplay::new(module, cex);
    let differs =
        |frame: usize, s: SignalId| replay.value(0, frame, s) != replay.value(1, frame, s);
    for &s in &cex.divergent_state {
        if !differs(1, s) {
            return Err(format!(
                "claimed divergent state `{}` agrees between the \
                 instances at t+1 in the concrete replay",
                module.signal(s).name
            ));
        }
    }
    for &y in &cex.divergent_outputs {
        if !differs(0, y) && !differs(1, y) {
            return Err(format!(
                "claimed divergent output `{}` agrees between the \
                 instances at both t and t+1 in the concrete replay",
                module.signal(y).name
            ));
        }
    }
    for &i in &cex.violated_cond_eqs {
        let &(cond, signal) = cond_eqs.get(i).ok_or_else(|| {
            format!(
                "counterexample violates conditional equality #{i} but \
                 only {} are in force",
                cond_eqs.len()
            )
        })?;
        let both =
            replay.eval_predicate(module, 0, 1, cond) && replay.eval_predicate(module, 1, 1, cond);
        if !both || !differs(1, signal) {
            return Err(format!(
                "claimed violation of conditional equality on `{}` does \
                 not reproduce at t+1 in the replay",
                module.signal(signal).name
            ));
        }
    }
    Ok(())
}

fn blank_env(module: &Module) -> Vec<BitVec> {
    module
        .signals()
        .map(|(_, s)| BitVec::zero(s.width))
        .collect()
}

/// Computes all combinational signals of `env` in place.
pub fn settle_env(module: &Module, env: &mut [BitVec]) {
    let mut memo: Vec<Option<BitVec>> = vec![None; module.expr_count()];
    for i in 0..module.comb_order().len() {
        let sig = module.comb_order()[i];
        let driver = module.driver(sig).expect("comb driven");
        let value = module.eval_memo(driver, env, &mut memo);
        env[sig.index()] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_formal::{Upec2Safety, UpecOutcome, UpecSpec};
    use fastpath_rtl::ModuleBuilder;

    #[test]
    fn replay_reconstructs_comb_and_next_state() {
        // A leaky design: counterexample witness must be replayable and
        // the replay must show the diverging output actually diverging.
        let mut b = ModuleBuilder::new("m");
        let data = b.data_input("data", 8);
        let d = b.sig(data);
        let acc = b.reg("acc", 8, 0);
        let a = b.sig(acc);
        b.set_next(acc, d).expect("drive");
        let parity = b.red_xor(a);
        b.control_output("leak", parity);
        let m = b.build().expect("valid");
        let leak = m.signal_by_name("leak").expect("leak");
        let acc_id = m.signal_by_name("acc").expect("acc");

        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        let UpecOutcome::Counterexample(cex) = upec.check(&[]) else {
            panic!("expected counterexample");
        };
        let replay = WitnessReplay::new(&m, &cex);
        // The two instances must disagree on the leak output at t or t+1.
        let diverges_somewhere =
            (0..2).any(|frame| replay.value(0, frame, leak) != replay.value(1, frame, leak));
        assert!(diverges_somewhere, "replayed witness must show the leak");
        // acc at t+1 equals the data input at t (next-state reconstruction).
        for inst in 0..2 {
            assert_eq!(replay.value(inst, 1, acc_id), replay.value(inst, 0, data));
        }
    }

    #[test]
    fn counterexamples_confirm_concretely_and_corruption_is_caught() {
        // Same leaky design as above: the output-parity divergence must
        // reproduce in concrete simulation.
        let mut b = ModuleBuilder::new("m");
        let data = b.data_input("data", 8);
        let d = b.sig(data);
        let acc = b.reg("acc", 8, 0);
        let a = b.sig(acc);
        b.set_next(acc, d).expect("drive");
        let parity = b.red_xor(a);
        b.control_output("leak", parity);
        let m = b.build().expect("valid");
        let acc_id = m.signal_by_name("acc").expect("acc");

        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        let UpecOutcome::Counterexample(cex) = upec.check(&[acc_id]) else {
            panic!("expected counterexample");
        };
        assert_eq!(confirm_counterexample(&m, &[], &cex), Ok(()));

        // Corrupt the witness: claim a divergence the replay cannot show.
        let mut bad = cex.clone();
        bad.divergent_state.push(acc_id);
        for w in bad.state_values.iter_mut() {
            if w.signal == acc_id {
                w.inst1 = w.inst0.clone();
            }
        }
        // With acc forced equal at t and driven only by the (differing)
        // data input, acc itself still diverges at t+1 — so corrupt the
        // t-inputs too, making the two instances fully identical.
        for w in bad.input_values_t.iter_mut() {
            w.inst1 = w.inst0.clone();
        }
        for w in bad.input_values_t1.iter_mut() {
            w.inst1 = w.inst0.clone();
        }
        let err =
            confirm_counterexample(&m, &[], &bad).expect_err("identical instances cannot diverge");
        assert!(err.contains("agrees between the instances"), "{err}");

        // A cond-eq index past the spec is rejected, not ignored.
        let mut out_of_range = cex;
        out_of_range.violated_cond_eqs.push(7);
        assert!(confirm_counterexample(&m, &[], &out_of_range).is_err());
    }

    #[test]
    fn predicate_evaluation_on_witness() {
        let mut b = ModuleBuilder::new("m");
        let data = b.data_input("data", 4);
        let d = b.sig(data);
        let r = b.reg("r", 4, 0);
        b.set_next(r, d).expect("drive");
        let r_sig = b.sig(r);
        let out = b.red_or(r_sig);
        b.control_output("o", out);
        // Candidate constraint: data == 0 (would make the design trivially
        // oblivious).
        let data_zero = b.eq_lit(d, 0);
        let m = b.build().expect("valid");
        let r_id = m.signal_by_name("r").expect("r");

        let mut upec = Upec2Safety::new(&m, &UpecSpec::default());
        // With r constrained equal at t, any divergence must come from the
        // data input differing — i.e. nonzero data in some instance.
        let UpecOutcome::Counterexample(cex) = upec.check(&[r_id]) else {
            panic!("expected counterexample");
        };
        let replay = WitnessReplay::new(&m, &cex);
        // The witness must violate `data == 0` in at least one instance —
        // otherwise the outputs could not diverge.
        assert!(!replay.constraint_holds(&m, data_zero));
    }
}

//! End-to-end reproduction of the paper's Table I: runs the FastPath flow
//! and the formal-only baseline on every case study and asserts that the
//! *shape* of the published results holds — verdicts, completing methods,
//! who finds which propagations, and the direction/magnitude class of the
//! manual-effort reduction. (Absolute counts differ from the paper because
//! the substrates are reimplemented models; see EXPERIMENTS.md.)

use fastpath::cache::CacheKind;
use fastpath::{
    effort_reduction, run_baseline, run_baseline_with, run_fastpath, run_fastpath_with,
    CompletionMethod, FlowEvent, FlowOptions, MemoryCache, ProofCache, UpecEngine, Verdict,
};
use fastpath_formal::IC3_PROPAGATION_BUDGET;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn crypto_accelerators_prove_structurally_with_zero_effort() {
    for study in [
        fastpath_designs::sha512::case_study(),
        fastpath_designs::aes_opencores::case_study(),
        fastpath_designs::aes_secworks::case_study(),
    ] {
        let fast = run_fastpath(&study);
        assert_eq!(fast.verdict, Verdict::DataOblivious, "{}", study.name);
        assert_eq!(fast.method, CompletionMethod::Hfg, "{}", study.name);
        assert_eq!(fast.manual_inspections, 0, "{}", study.name);
    }
}

#[test]
fn crypto_baselines_require_many_inspections() {
    // The formal-only baseline must iterate through the whole data path;
    // the paper reports 33/19/11 inspections for the three accelerators.
    for (study, min_inspections) in [
        (fastpath_designs::sha512::case_study(), 20),
        (fastpath_designs::aes_opencores::case_study(), 20),
    ] {
        let base = run_baseline(&study);
        assert_eq!(base.verdict, Verdict::DataOblivious, "{}", study.name);
        assert!(
            base.manual_inspections >= min_inspections,
            "{}: expected >= {min_inspections}, got {}",
            study.name,
            base.manual_inspections
        );
    }
}

#[test]
fn zipcpu_divider_is_false_at_ift_with_one_inspection() {
    let study = fastpath_designs::zipcpu_div::case_study();
    let fast = run_fastpath(&study);
    assert_eq!(fast.verdict, Verdict::NotDataOblivious);
    assert_eq!(fast.method, CompletionMethod::Ift);
    assert_eq!(fast.manual_inspections, 1);
    assert_eq!(fast.vulnerabilities.len(), 1);

    // Paper: 9 baseline inspections vs 1 -> 88.8% reduction. Ours: ~90%.
    let base = run_baseline(&study);
    assert_eq!(base.verdict, Verdict::NotDataOblivious);
    let reduction = effort_reduction(&base, &fast);
    assert!(
        reduction > 80.0,
        "ZipCPU reduction should be large, got {reduction:.1}%"
    );
}

#[test]
fn fwrisc_derives_no_shifting_and_upec_finds_missed_propagations() {
    let study = fastpath_designs::fwrisc_mds::case_study();
    let fast = run_fastpath(&study);
    assert_eq!(
        fast.verdict,
        Verdict::ConstrainedDataOblivious(vec!["no_shifting".into()])
    );
    assert_eq!(fast.method, CompletionMethod::Upec);
    // Paper: IFT found 5, UPEC found 3 more (total 8). Shape: the formal
    // step finds exactly the three abort-path snapshots.
    let ift = fast.ift_propagations.expect("ift ran");
    let total = fast.total_propagations.expect("upec ran");
    assert_eq!(total - ift, 3, "UPEC must find the 3 abort snapshots");
}

#[test]
fn cva6_needs_policy_refinement_and_two_invariants() {
    let study = fastpath_designs::cva6_div::case_study();
    let fast = run_fastpath(&study);
    assert_eq!(
        fast.verdict,
        Verdict::ConstrainedDataOblivious(vec!["no_label_override".into()])
    );
    assert_eq!(fast.method, CompletionMethod::Upec);
    assert_eq!(
        fast.invariants_added.len(),
        2,
        "two invariants were required (paper Sec. V-B)"
    );
    // The conservative-policy false positives were handled by refining the
    // flow policy, not by fixing the design.
    assert!(fast.vulnerabilities.is_empty());
}

#[test]
fn cv32e40s_leak_is_found_fixed_and_reproven() {
    let study = fastpath_designs::cv32e40s::case_study();
    let fast = run_fastpath(&study);
    // The previously unknown operand leak on the data-memory interface.
    assert!(
        fast.vulnerabilities
            .iter()
            .any(|v| v.contains("data_addr_o")),
        "the operand leak must be reported: {:?}",
        fast.vulnerabilities
    );
    // After the fix, the core is data-oblivious under the two derived
    // constraints.
    assert!(matches!(fast.verdict, Verdict::ConstrainedDataOblivious(_)));
    assert_eq!(fast.method, CompletionMethod::Upec);
    assert!(fast
        .derived_constraints
        .contains(&"data_ind_timing_enabled".to_string()));
    assert!(fast
        .derived_constraints
        .contains(&"secret_register_discipline".to_string()));
    // Paper: the only IFT-missed state signal was inside the multiplier.
    let ift = fast.ift_propagations.expect("ift ran");
    let total = fast.total_propagations.expect("upec ran");
    assert_eq!(total - ift, 1, "UPEC finds exactly the MULH register");
    // The MULH check exhausts the word budget once; the engine answers it
    // in bits and stays there.
    assert_eq!(fast.product.word_fallbacks, 1);
    let ic3 = fast.ic3.expect("cv32e40s escalates to IC3");
    assert_eq!(ic3.attempts, 7);
}

#[test]
fn boom_has_the_largest_state_and_a_large_reduction() {
    let study = fastpath_designs::boom::case_study();
    let fast = run_fastpath(&study);
    assert!(matches!(fast.verdict, Verdict::ConstrainedDataOblivious(_)));
    assert_eq!(fast.method, CompletionMethod::Upec);
    // Largest design in the suite.
    let cv = fastpath_designs::cv32e40s::case_study();
    assert!(fast.state_signals > cv.instance.module.state_signals().len());
    // The formal step's extra work is confined to the FP special cases.
    let ift = fast.ift_propagations.expect("ift ran");
    let total = fast.total_propagations.expect("upec ran");
    assert_eq!(total - ift, 3, "UPEC finds the 3 FP capture registers");

    // Every escalation diverges, and each stops at the first query past
    // the propagation cap, overshooting it by at most one query (BOOM's
    // largest IC3 query is about 26 k propagations).
    const ONE_QUERY: u64 = 100_000;
    let ic3 = fast.ic3.expect("BOOM escalates to IC3");
    assert_eq!(ic3.attempts, 2);
    assert!(
        ic3.propagations < ic3.attempts * (IC3_PROPAGATION_BUDGET + ONE_QUERY),
        "{} attempts spent {} propagations",
        ic3.attempts,
        ic3.propagations
    );

    // The FP mantissa product exhausts one word budget per side. The
    // engine answers that check in bits and the run goes on, so each side
    // shows one fallback and the fuse's two escalations.
    assert_eq!(fast.product.word_fallbacks, 1);
    let base = run_baseline(&study);
    assert_eq!(base.product.word_fallbacks, 1);
    assert_eq!(
        base.ic3.expect("BOOM baseline escalates to IC3").attempts,
        2
    );
    let reduction = effort_reduction(&base, &fast);
    assert!(
        reduction > 75.0,
        "BOOM reduction should be large (paper: 87%), got {reduction:.1}%"
    );
}

#[test]
fn boom_warm_cache_replay_is_identical_and_fully_served() {
    // BOOM's FP mantissa check exhausts the word budget. The cold run
    // answers it in bits and caches that answer under the run's words
    // key, so the warm run serves every check without a UPEC engine.
    // Induction only: failed IC3 attempts are never cached, so under
    // `ic3` the warm side would rebuild an engine to repeat them.
    let study = fastpath_designs::boom::case_study();
    let shared: Arc<dyn ProofCache> = Arc::new(MemoryCache::new());
    let with_cache = || FlowOptions {
        cache: Some(Arc::clone(&shared)),
        upec_engine: UpecEngine::Induction,
        ..FlowOptions::default()
    };
    let cold = run_fastpath_with(&study, with_cache());
    let warm = run_fastpath_with(&study, with_cache());
    assert_eq!(cold.product.word_fallbacks, 1);

    assert_eq!(cold.verdict, warm.verdict);
    assert_eq!(cold.method, warm.method);
    assert_eq!(cold.events, warm.events);
    assert_eq!(cold.derived_constraints, warm.derived_constraints);
    assert_eq!(cold.manual_inspections, warm.manual_inspections);
    assert_eq!(cold.timings.check_count, warm.timings.check_count);
    assert_eq!(cold.sim.runs, warm.sim.runs);
    assert_eq!(cold.sim.cycles, warm.sim.cycles);

    let warm_stats = warm.cache.expect("cache attached");
    assert_eq!(warm_stats.misses, 0, "warm run must be fully served");
    assert!(warm_stats.hits >= warm.timings.check_count);
    assert_eq!(warm.timings.formal_elaboration, Duration::ZERO);
    assert_eq!(warm.product.checks, 0);
    assert_eq!(warm.product.word_fallbacks, 0);

    for report in [&cold, &warm] {
        let cert = report.certification.as_ref().expect("cache => certify");
        assert!(cert.fully_certified(), "{:?}", cert.failures);
        assert_eq!(cert.stats.certified_checks, report.timings.check_count);
    }
}

#[test]
fn cva6_baseline_ic3_discharge_saves_one_inspection() {
    // Table I's one SecIC3 discharge: a machine-derived invariant closes
    // a baseline obligation that induction alone charges as an inspection
    // (8 -> 7). The counters pin every CVA6-DIV attempt, which no IC3
    // budget may cut short.
    let study = fastpath_designs::cva6_div::case_study();
    let base = run_baseline(&study);
    assert_eq!(base.manual_inspections, 7);
    let discharges = base
        .events
        .iter()
        .filter(|e| matches!(e, FlowEvent::Ic3Discharged { .. }))
        .count();
    assert_eq!(discharges, 1);
    let ic3 = base.ic3.expect("CVA6-DIV baseline escalates to IC3");
    assert_eq!(
        (
            ic3.frames,
            ic3.ctis,
            ic3.lemmas,
            ic3.generalization_drops,
            ic3.pushes
        ),
        (3, 110, 109, 22_915, 56)
    );
    assert_eq!(ic3.attempts, 3);
}

/// A cache that stores everything but never serves a SecIC3 invariant.
#[derive(Debug)]
struct NoInvariants(MemoryCache);

impl ProofCache for NoInvariants {
    fn load(&self, kind: CacheKind, key: &fastpath_rtl::Digest) -> Option<String> {
        (kind != CacheKind::Invariant)
            .then(|| self.0.load(kind, key))
            .flatten()
    }

    fn store(&self, kind: CacheKind, key: &fastpath_rtl::Digest, entry: &str) {
        self.0.store(kind, key, entry);
    }
}

#[test]
fn a_cold_discharge_after_cached_checks_dumps_under_the_baseline_name() {
    // The warm run serves every check of CVA6-DIV's baseline from the
    // cache, but not the invariant, so its SecIC3 discharge runs cold and
    // is the first to need a UPEC engine. The strengthened check's
    // artifacts must carry the baseline's name: under the FastPath
    // flow's they would overwrite that flow's own files.
    let study = fastpath_designs::cva6_div::case_study();
    let shared: Arc<dyn ProofCache> = Arc::new(NoInvariants(MemoryCache::new()));
    let dir = std::env::temp_dir().join(format!(
        "fastpath_baseline_artifacts_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let options = |dump_artifacts| FlowOptions {
        cache: Some(Arc::clone(&shared)),
        dump_artifacts,
        ..FlowOptions::default()
    };
    let cold = run_baseline_with(&study, options(None));
    let warm = run_baseline_with(&study, options(Some(dir.clone())));
    let names: Vec<String> = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .map(|e| {
                    e.expect("artifact entry")
                        .file_name()
                        .to_string_lossy()
                        .into()
                })
                .collect()
        })
        .unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(warm.manual_inspections, cold.manual_inspections);
    assert!(warm
        .events
        .iter()
        .any(|e| matches!(e, FlowEvent::Ic3Discharged { .. })));
    assert!(!names.is_empty(), "the cold discharge dumps its check");
    assert!(
        names.iter().all(|name| name.contains("_baseline_")),
        "{names:?}"
    );
}

#[test]
fn reductions_span_the_published_range() {
    // Paper: 36% .. 100%. Check the suite-wide envelope on a representative
    // subset (crypto = 100%, CVA6 = the smallest).
    let sha = fastpath_designs::sha512::case_study();
    let fast = run_fastpath(&sha);
    let base = run_baseline(&sha);
    assert_eq!(effort_reduction(&base, &fast), 100.0);

    let cva6 = fastpath_designs::cva6_div::case_study();
    let fast = run_fastpath(&cva6);
    let base = run_baseline(&cva6);
    let r = effort_reduction(&base, &fast);
    assert!(
        (10.0..=80.0).contains(&r),
        "CVA6 should show the smallest, but nonzero, reduction: {r:.1}%"
    );
}

//! The parallel Table I driver must be a pure speed-up: the rendered
//! report has to be **byte-identical** for every `--jobs` value. Worker
//! threads finish in nondeterministic order; determinism comes from
//! `fastpath::parallel::run_ordered` collecting results by task id and
//! the renderer walking them in submission order.
//!
//! Uses the two cheapest case studies with non-trivial rows (AES
//! opencores proves structurally but its baseline still refines; ZipCPU
//! stops at IFT) so the repeated table builds stay fast in debug builds;
//! scheduling is exercised identically regardless of how long each task
//! runs, and four tasks across four workers still interleave.

use fastpath_bench::{run_table1, Table1Options};

fn studies() -> Vec<fastpath::CaseStudy> {
    vec![
        fastpath_designs::aes_opencores::case_study(),
        fastpath_designs::zipcpu_div::case_study(),
    ]
}

#[test]
fn markdown_table_is_byte_identical_across_jobs() {
    let studies = studies();
    let opts = |jobs| Table1Options {
        jobs,
        markdown: true,
        ..Table1Options::default()
    };
    let sequential = run_table1(&studies, &opts(1));
    assert!(
        sequential.lines().count() >= 2 + studies.len(),
        "header plus one row per design:\n{sequential}"
    );
    let parallel = run_table1(&studies, &opts(4));
    assert_eq!(
        sequential, parallel,
        "output differs between --jobs 1 and --jobs 4"
    );
}

#[test]
fn certified_table_is_byte_identical_across_jobs() {
    let studies = studies();
    let opts = |jobs| Table1Options {
        jobs,
        certify: true,
        ..Table1Options::default()
    };
    let sequential = run_table1(&studies, &opts(1));
    assert!(
        sequential.contains("certified:"),
        "certification lines must render:\n{sequential}"
    );
    assert!(
        !sequential.contains("NOT CERTIFIED") && !sequential.contains("FAILURE"),
        "every verdict must certify:\n{sequential}"
    );
    let parallel = run_table1(&studies, &opts(4));
    assert_eq!(
        sequential, parallel,
        "certified output differs between --jobs 1 and --jobs 4"
    );
}

#[test]
fn text_table_with_design_filter_is_byte_identical_across_jobs() {
    let studies = studies();
    let opts = |jobs| Table1Options {
        jobs,
        only: Some("ZipCPU-DIV".into()),
        ..Table1Options::default()
    };
    let sequential = run_table1(&studies, &opts(1));
    assert!(sequential.contains("ZipCPU-DIV"), "{sequential}");
    let parallel = run_table1(&studies, &opts(4));
    assert_eq!(sequential, parallel);
}

#[test]
fn unknown_design_exits_2_and_lists_the_known_names() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--design", "ZipCPU-DIVV"])
        .output()
        .expect("table1 runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no table for an unknown design");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for known in ["ZipCPU-DIV", "CVA6-DIV", "BOOM", "AES (secworks)"] {
        assert!(stderr.contains(known), "{known} missing from: {stderr}");
    }
}

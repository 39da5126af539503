//! The four workloads: their inputs, one pass over them, the reference
//! every answer is checked against, and the counters read back from each
//! answer.

use crate::probe;
use crate::trace::Tracer;
use fastpath::{run_baseline_with, run_fastpath_with, CaseStudy, FlowOptions, FlowReport};
use fastpath_rtl::random::{random_module, RandomModuleConfig};
use fastpath_serve::{serve, Job, JobMode, JobSource, ServeOptions, Spool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Deterministic work counters, keyed by per-layer metric name.
pub type Counts = BTreeMap<&'static str, u64>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The hybrid flow on the Table I designs.
    Fastpath,
    /// The formal-only UPEC-DIT baseline on the Table I designs.
    Baseline,
    /// Table I studies through the daemon's spool, cold then warm.
    Service,
    /// Random netlists through the daemon's spool, cold then warm.
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fastpath,
        Workload::Baseline,
        Workload::Service,
        Workload::Ingest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fastpath => "fastpath",
            Workload::Baseline => "baseline",
            Workload::Service => "service",
            Workload::Ingest => "ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seconds one pass takes on the reference machine (2 cores, release
    /// build). `--seconds` becomes a pass count through this constant, so
    /// the same arguments always measure the same number of passes.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::Fastpath => 5.5,
            Workload::Baseline => 4.0,
            Workload::Service => 0.5,
            Workload::Ingest => 7.0,
        }
    }
}

/// Table I: per design, the verdict, method and inspections of the
/// FastPath flow and of the formal-only baseline.
struct Reference {
    design: &'static str,
    fastpath: (&'static str, &'static str, u64),
    baseline: (&'static str, &'static str, u64),
}

const TABLE_I: [Reference; 8] = [
    Reference {
        design: "SHA512",
        fastpath: ("True", "HFG", 0),
        baseline: ("True", "UPEC", 32),
    },
    Reference {
        design: "AES (opencores)",
        fastpath: ("True", "HFG", 0),
        baseline: ("True", "UPEC", 32),
    },
    Reference {
        design: "AES (secworks)",
        fastpath: ("True", "HFG", 0),
        baseline: ("True", "UPEC", 61),
    },
    Reference {
        design: "CVA6-DIV",
        fastpath: ("Constrained", "UPEC", 5),
        baseline: ("Constrained", "UPEC", 7),
    },
    Reference {
        design: "FWRISCV-MDS",
        fastpath: ("Constrained", "UPEC", 4),
        baseline: ("Constrained", "UPEC", 14),
    },
    Reference {
        design: "ZipCPU-DIV",
        fastpath: ("False", "IFT", 1),
        baseline: ("False", "UPEC", 11),
    },
    Reference {
        design: "cv32e40s",
        fastpath: ("Constrained", "UPEC", 12),
        baseline: ("Constrained", "UPEC", 43),
    },
    Reference {
        design: "BOOM",
        fastpath: ("Constrained", "UPEC", 5),
        baseline: ("Constrained", "UPEC", 31),
    },
];

// A pass must fit several times into one run so that its median is
// steady. On the reference machine cv32e40s alone takes 18 s (FastPath)
// and 27 s (baseline), so no workload runs it. BOOM's baseline (10 s) and
// its daemon round trips (7 s cold + 10 s warm) are left out for the same
// reason; its FastPath run (5 s) stays, and with it the word-to-bits
// router.
const FASTPATH_DESIGNS: &[&str] = &[
    "SHA512",
    "AES (opencores)",
    "AES (secworks)",
    "CVA6-DIV",
    "FWRISCV-MDS",
    "ZipCPU-DIV",
    "BOOM",
];
const SMALL_DESIGNS: &[&str] = &[
    "SHA512",
    "AES (opencores)",
    "AES (secworks)",
    "CVA6-DIV",
    "FWRISCV-MDS",
    "ZipCPU-DIV",
];
const QUICK_DESIGNS: &[&str] = &["ZipCPU-DIV", "FWRISCV-MDS"];

// The ingest netlists are one pinned corpus; `--seed` only shuffles their
// submission order. Random netlists are heavy-tailed under the formal
// stage: across ten generator seeds one netlist in 400 took up to 4.8 s
// against about 10 ms for the median, so totals ranged 6.0-10.6 s and
// peak memory 36-57 MB with the seed alone, wider than any bound.
const CORPUS_SEED: u64 = 1;
const INGEST_NETLISTS: usize = 400;
const QUICK_NETLISTS: usize = 20;
const INGEST_SHAPE: RandomModuleConfig = RandomModuleConfig {
    max_control_inputs: 4,
    max_data_inputs: 4,
    max_registers: 32,
    max_expressions: 600,
    wide_signals: true,
    memories: true,
};

/// How one workload run is measured.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// One pass over a two-design (or 20-netlist) input: the smoke run
    /// the tests drive.
    pub quick: bool,
    /// Scratch directory for spool roots and traces.
    pub work: PathBuf,
}

impl Config {
    pub fn passes(&self) -> usize {
        if self.quick {
            1
        } else {
            ((self.seconds as f64 / self.workload.nominal_pass_s()) as usize).max(1)
        }
    }

    fn designs(&self) -> &'static [&'static str] {
        match (self.quick, self.workload) {
            (true, _) => QUICK_DESIGNS,
            (false, Workload::Fastpath) => FASTPATH_DESIGNS,
            (false, _) => SMALL_DESIGNS,
        }
    }
}

/// What the timed passes run on, built by [`setup`].
pub struct Inputs {
    /// Case studies in run order (`fastpath`, `baseline`), or the studies
    /// behind the service jobs (kept for the traced probes).
    pub studies: Vec<CaseStudy>,
    /// Spool submissions in order (`service`, `ingest`).
    pub jobs: Vec<Job>,
}

/// Builds a workload's inputs: the case studies, and for the daemon
/// workloads the job list in the order the seed shuffles it into.
pub fn setup(cfg: &Config) -> Inputs {
    let designs = cfg.designs();
    let studies: Vec<CaseStudy> = match cfg.workload {
        Workload::Ingest => Vec::new(),
        _ => fastpath_designs::all_case_studies()
            .into_iter()
            .filter(|s| designs.contains(&s.name.as_str()))
            .collect(),
    };
    let mut jobs: Vec<Job> = match cfg.workload {
        Workload::Fastpath | Workload::Baseline => Vec::new(),
        Workload::Service => studies
            .iter()
            .map(|s| Job {
                name: s.name.clone(),
                mode: JobMode::Full,
                cycles: None,
                seed: None,
                source: JobSource::Study(s.name.clone()),
            })
            .collect(),
        Workload::Ingest => {
            let count = if cfg.quick {
                QUICK_NETLISTS
            } else {
                INGEST_NETLISTS
            };
            let mut corpus = StdRng::seed_from_u64(CORPUS_SEED);
            (0..count)
                .map(|i| {
                    let module = random_module(corpus.gen::<u64>(), INGEST_SHAPE);
                    Job {
                        name: format!("net{i:04}"),
                        mode: JobMode::Cones,
                        cycles: None,
                        seed: None,
                        source: JobSource::Netlist(fastpath_rtl::write_netlist(&module)),
                    }
                })
                .collect()
        }
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.gen_range(0..=i));
    }
    Inputs { studies, jobs }
}

/// The result of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Latency in seconds of each flow call, or of each cold
    /// submit-to-result round trip, in job order.
    pub latencies: Vec<f64>,
    /// Latency of each warm resubmission, in job order.
    pub warm_latencies: Vec<f64>,
    /// Counters read from the answers; identical on every pass.
    pub counts: Counts,
    /// Counters from the traced probes.
    pub probe_counts: Counts,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Runs one pass. With `probes` (traced runs only) each Table I job and
/// each netlist is followed by its layer probe sequence.
pub fn run_pass(cfg: &Config, inputs: &Inputs, index: usize, t: &mut Tracer, probes: bool) -> Pass {
    let mut pass = Pass::default();
    match cfg.workload {
        Workload::Fastpath | Workload::Baseline => {
            let t0 = Instant::now();
            t.span("pass", |t| {
                flow_pass(cfg.workload, inputs, t, probes, &mut pass)
            });
            pass.wall_s = t0.elapsed().as_secs_f64();
        }
        Workload::Service | Workload::Ingest => {
            let root = cfg.work.join(format!(
                "{}-{}-pass{index}",
                cfg.workload.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            match Spool::open(root.join("queue")) {
                Ok(spool) => {
                    let opts = ServeOptions {
                        root: root.clone(),
                        jobs: 1,
                        once: true,
                        ..ServeOptions::default()
                    };
                    let t0 = Instant::now();
                    t.span("pass", |t| {
                        spool_pass(cfg.workload, inputs, &spool, &opts, t, probes, &mut pass)
                    });
                    pass.wall_s = t0.elapsed().as_secs_f64();
                }
                Err(e) => pass.failures.push(format!("cannot open spool: {e}")),
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
    pass
}

fn flow_pass(workload: Workload, inputs: &Inputs, t: &mut Tracer, probes: bool, pass: &mut Pass) {
    for study in &inputs.studies {
        t.span("job", |t| {
            pass.attempted += 1;
            let t0 = Instant::now();
            let report = t.span("core.flow", |_| {
                catch_unwind(AssertUnwindSafe(|| {
                    if workload == Workload::Baseline {
                        run_baseline_with(study, FlowOptions::default())
                    } else {
                        run_fastpath_with(study, FlowOptions::default())
                    }
                }))
            });
            pass.latencies.push(t0.elapsed().as_secs_f64());
            match report {
                Ok(report) => {
                    if let Err(e) = check_flow(workload, &report) {
                        pass.failures.push(e);
                    }
                    add_flow_counts(&mut pass.counts, &report);
                }
                Err(_) => pass.failures.push(format!("{}: flow panicked", study.name)),
            }
            if probes {
                if let Err(e) = t.span("probe", |t| probe::study(t, study, &mut pass.probe_counts))
                {
                    pass.failures.push(e);
                }
            }
        });
    }
}

/// The Table I row for `design` on this workload's side of the table.
fn reference(workload: Workload, design: &str) -> Option<(&'static str, &'static str, u64)> {
    let row = TABLE_I.iter().find(|r| r.design == design)?;
    Some(if workload == Workload::Baseline {
        row.baseline
    } else {
        row.fastpath
    })
}

/// Verdict and method must equal Table I. Inspections may fall below the
/// Table I count (fewer is better) but never rise above it.
fn check_answer(
    workload: Workload,
    design: &str,
    verdict: &str,
    method: &str,
    inspections: u64,
) -> Result<(), String> {
    let (want_verdict, want_method, max_inspections) =
        reference(workload, design).ok_or_else(|| format!("{design}: not a Table I design"))?;
    if verdict != want_verdict || method != want_method {
        return Err(format!(
            "{design}: answered {verdict} via {method}, Table I says {want_verdict} via {want_method}"
        ));
    }
    if inspections > max_inspections {
        return Err(format!(
            "{design}: {inspections} inspections, Table I needs only {max_inspections}"
        ));
    }
    Ok(())
}

fn check_flow(workload: Workload, report: &FlowReport) -> Result<(), String> {
    check_answer(
        workload,
        &report.design,
        &report.verdict.to_string(),
        &report.method.to_string(),
        report.manual_inspections,
    )
}

fn add_flow_counts(counts: &mut Counts, r: &FlowReport) {
    let mut add = |name, v: u64| *counts.entry(name).or_default() += v;
    add("core.inspections", r.manual_inspections);
    add("sim.runs", r.sim.runs);
    add("sim.cycles", r.sim.cycles);
    add("formal.checks", r.product.checks);
    add("formal.aig_nodes", r.product.check_aig_nodes);
    add("formal.sat_clauses", r.product.check_sat_clauses);
    add("formal.word_fallbacks", r.product.word_fallbacks);
    if let Some(ic3) = &r.ic3 {
        add("ic3.frames", ic3.frames);
        add("ic3.ctis", ic3.ctis);
        add("ic3.lemmas", ic3.lemmas);
        add("ic3.gen_drops", ic3.generalization_drops);
    }
    let s = &r.solver_stats;
    add("sat.conflicts", s.conflicts);
    add("sat.decisions", s.decisions);
    add("sat.propagations", s.propagations);
    add("sat.learnt", s.learnt_clauses);
    add("sat.reuse_probed", s.reuse_probed);
    add("sat.reuse_imported", s.reuse_imported);
}

/// Cold sweep over every job on a fresh root, then the same jobs again
/// (warm). One client, closed loop: each job is submitted, served by one
/// `serve --once` drain, and its result read before the next goes in.
fn spool_pass(
    workload: Workload,
    inputs: &Inputs,
    spool: &Spool,
    opts: &ServeOptions,
    t: &mut Tracer,
    probes: bool,
    pass: &mut Pass,
) {
    let mut cold_answers = Vec::with_capacity(inputs.jobs.len());
    t.span("cold", |t| {
        for job in &inputs.jobs {
            t.span("job", |t| {
                let (latency, answer) = submit(workload, spool, opts, job, t, pass);
                pass.latencies.push(latency);
                cold_answers.push(answer);
                if probes {
                    if let Err(e) = t.span("probe", |t| probe_job(t, inputs, job, pass)) {
                        pass.failures.push(e);
                    }
                }
            });
        }
    });
    t.span("warm", |t| {
        for (job, cold) in inputs.jobs.iter().zip(&cold_answers) {
            let (latency, answer) = t.span("job", |t| submit(workload, spool, opts, job, t, pass));
            pass.warm_latencies.push(latency);
            if answer.is_some() && cold.is_some() && answer != *cold {
                pass.failures
                    .push(format!("{}: warm answer differs from cold", job.name));
            }
        }
    });
}

fn probe_job(t: &mut Tracer, inputs: &Inputs, job: &Job, pass: &mut Pass) -> Result<(), String> {
    match &job.source {
        JobSource::Study(name) => match inputs.studies.iter().find(|s| &s.name == name) {
            Some(study) => probe::study(t, study, &mut pass.probe_counts),
            None => Err(format!("{name}: no case study to probe")),
        },
        JobSource::Netlist(text) => probe::netlist(t, text, &mut pass.probe_counts).map(|_| ()),
    }
}

/// One closed-loop round trip. Returns the latency and the answer with
/// its provenance removed, or `None` after recording a failure.
fn submit(
    workload: Workload,
    spool: &Spool,
    opts: &ServeOptions,
    job: &Job,
    t: &mut Tracer,
    pass: &mut Pass,
) -> (f64, Option<String>) {
    pass.attempted += 1;
    let t0 = Instant::now();
    let id = match t.span("serve.submit", |_| spool.submit(job)) {
        Ok(id) => id,
        Err(e) => {
            pass.failures
                .push(format!("{}: submit failed: {e}", job.name));
            return (t0.elapsed().as_secs_f64(), None);
        }
    };
    let served = t.span("serve.serve", |_| {
        catch_unwind(AssertUnwindSafe(|| serve(opts)))
    });
    let text = t.span("serve.result", |_| spool.result(&id));
    let latency = t0.elapsed().as_secs_f64();
    let answer = match (served, text) {
        (Err(_), _) => Err("daemon panicked".to_string()),
        (Ok(Err(e)), _) => Err(format!("daemon failed: {e}")),
        (Ok(Ok(_)), None) => Err("no result".to_string()),
        (Ok(Ok(_)), Some(text)) => read_result(workload, job, &text, &mut pass.counts),
    };
    match answer {
        Ok(answer) => (latency, Some(answer)),
        Err(e) => {
            pass.failures.push(format!("{}: {e}", job.name));
            (latency, None)
        }
    }
}

/// The value of the first `key value...` line of a result file.
fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
}

fn number(text: &str, key: &str) -> Result<u64, String> {
    field(text, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("result has no `{key}` count"))
}

/// Checks one result file, adds its counters, and returns the answer with
/// the cold/warm provenance stripped: the verdict and method lines, and
/// each cone's hash, verdict and output without `proved`/`reused`.
fn read_result(
    workload: Workload,
    job: &Job,
    text: &str,
    counts: &mut Counts,
) -> Result<String, String> {
    if let Some(reason) = field(text, "error") {
        return Err(format!("error result: {reason}"));
    }
    let verdict = field(text, "verdict").ok_or("result has no verdict")?;
    let method = field(text, "method").ok_or("result has no method")?;
    let inspections = number(text, "inspections")?;
    let checks = number(text, "checks")?;
    if field(text, "certified") != Some("true") {
        return Err("result is not certified".to_string());
    }
    if workload == Workload::Service {
        let word = verdict.split_whitespace().next().unwrap_or_default();
        check_answer(workload, &job.name, word, method, inspections)?;
    }
    let mut add = |name, v: u64| *counts.entry(name).or_default() += v;
    add("core.inspections", inspections);
    add("formal.checks", checks);
    add("cert.checks", checks);
    let cache: Vec<u64> = field(text, "cache")
        .ok_or("result has no cache line")?
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    if let [hits, misses, ..] = cache[..] {
        add("core.cache_hits", hits);
        add("core.cache_misses", misses);
    }
    if let Some(cones) = field(text, "cones") {
        let n: Vec<u64> = cones
            .split_whitespace()
            .filter_map(|w| w.parse().ok())
            .collect();
        if let [total, reused, ..] = n[..] {
            add("serve.cones", total);
            add("serve.cones_reused", reused);
        }
    }
    let mut answer = format!("{verdict}\n{method}\n");
    for cone in text.lines().filter(|l| l.starts_with("cone ")) {
        let words: Vec<&str> = cone.split_whitespace().collect();
        if words.len() < 5 {
            return Err(format!("malformed cone line `{cone}`"));
        }
        answer.push_str(&format!(
            "{} {} {}\n",
            words[1],
            words[3],
            words[4..].join(" ")
        ));
    }
    Ok(answer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_gates_verdict_method_and_extra_inspections() {
        assert!(check_answer(Workload::Fastpath, "BOOM", "Constrained", "UPEC", 5).is_ok());
        assert!(check_answer(Workload::Fastpath, "BOOM", "Constrained", "UPEC", 4).is_ok());
        assert!(check_answer(Workload::Fastpath, "BOOM", "Constrained", "UPEC", 6).is_err());
        assert!(check_answer(Workload::Fastpath, "BOOM", "True", "UPEC", 5).is_err());
        assert!(check_answer(Workload::Baseline, "ZipCPU-DIV", "False", "UPEC", 11).is_ok());
        assert!(check_answer(Workload::Baseline, "ZipCPU-DIV", "False", "IFT", 11).is_err());
        assert!(check_answer(Workload::Fastpath, "nope", "True", "HFG", 0).is_err());
    }

    #[test]
    fn result_files_are_read_and_stripped_of_provenance() {
        let job = Job {
            name: "net0000".into(),
            mode: JobMode::Cones,
            cycles: None,
            seed: None,
            source: JobSource::Netlist(String::new()),
        };
        let cold = "fastpathd result 1\nname net0000\nverdict True\nmethod cones\n\
                    inspections 2\nchecks 3\ncertified true\n\
                    cache hits 0 misses 3 bytes 10 evictions 0\n\
                    cones 1 reused 0 reproved 1\ncone abcd proved True o1\n";
        let warm = cold
            .replace("inspections 2", "inspections 0")
            .replace("hits 0 misses 3", "hits 3 misses 0")
            .replace("reused 0 reproved 1", "reused 1 reproved 0")
            .replace("proved True", "reused True");
        let mut counts = Counts::new();
        let a = read_result(Workload::Ingest, &job, cold, &mut counts).unwrap();
        let b = read_result(Workload::Ingest, &job, &warm, &mut counts).unwrap();
        assert_eq!(a, b);
        assert_eq!(counts["core.cache_hits"], 3);
        assert_eq!(counts["core.cache_misses"], 3);
        assert_eq!(counts["serve.cones_reused"], 1);
        assert_eq!(counts["core.inspections"], 2);
        let uncertified = cold.replace("certified true", "certified false");
        assert!(read_result(Workload::Ingest, &job, &uncertified, &mut counts).is_err());
        let error = "fastpathd result 1\nname net0000\nerror parse failure\n";
        assert!(read_result(Workload::Ingest, &job, error, &mut counts).is_err());
    }
}

//! `fpbench`: the FastPath end-to-end benchmark (see `README.md`).
//!
//! ```text
//! fpbench --workload W [--seed N] [--seconds T] [--trace 0|1] [--quick] [--work DIR]
//! fpbench [--seed N] [--seconds T] [--quick] [--out PATH]
//! fpbench --trace DIR [--seed N] [--seconds T] [--quick]
//! fpbench compare A.json B.json
//! ```
//!
//! The first form measures one workload in this process and prints its
//! result as the last line of standard output. The second runs all four
//! workloads, each in a child process, and writes their results under a
//! protocol header to `PATH`. The third runs each workload once traced,
//! writing `DIR/<workload>.trace.json`. `compare` gates one result file
//! against another with the bounds in `BENCHMARK.json`.

mod compare;
mod probe;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{layer_of, Tracer};
use workload::{run_pass, setup, Config, Workload};

/// End-to-end metrics, measured untraced, in result order. `verify_s`
/// sums every job's median latency (warm resubmissions included);
/// the percentiles range over the jobs' median latencies, excluding
/// warm resubmissions.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A `_s` metric is the self time of
/// the spans of that name; the others are counters or their ratios.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("rtl.parse_s", "s"),
    ("rtl.hash_s", "s"),
    ("rtl.cone_s", "s"),
    ("hfg.extract_s", "s"),
    ("hfg.query_s", "s"),
    ("hfg.edges", "count"),
    ("sim.compile_s", "s"),
    ("sim.ift_s", "s"),
    ("sim.runs", "count"),
    ("sim.cycles", "count"),
    ("formal.elab_s", "s"),
    ("formal.check_s", "s"),
    ("formal.checks", "count"),
    ("formal.aig_nodes", "count"),
    ("formal.sat_clauses", "count"),
    ("formal.word_fallbacks", "count"),
    ("ic3.frames", "count"),
    ("ic3.ctis", "count"),
    ("ic3.lemmas", "count"),
    ("ic3.gen_drops", "count"),
    ("sat.solve_s", "s"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.learnt", "count"),
    ("sat.reuse_ratio", "ratio"),
    ("cert.check_s", "s"),
    ("cert.checks", "count"),
    ("core.flow_s", "s"),
    ("core.inspections", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("serve.submit_s", "s"),
    ("serve.serve_s", "s"),
    ("serve.result_s", "s"),
    ("serve.cone_reuse_ratio", "ratio"),
    ("bench.self_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Set-up is repeated and its median reported, so one slow set-up does
/// not move `setup_s`.
const SETUP_REPS: usize = 5;
const DEFAULT_SECONDS: u64 = 25;

/// One workload run: the benchmark's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile: always one of the samples, never a blend of
/// two designs' latencies.
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Each job's median latency over the passes, in job order. A burst of
/// load from elsewhere on the machine slows the jobs it overlaps in one
/// pass; the per-job median drops those samples, where the median of
/// whole-pass times would need a pass that no burst touched.
fn job_medians(passes: &[workload::Pass], pick: fn(&workload::Pass) -> &Vec<f64>) -> Vec<f64> {
    let jobs = passes.iter().map(|p| pick(p).len()).max().unwrap_or(0);
    (0..jobs)
        .map(|j| {
            let samples: Vec<f64> = passes
                .iter()
                .filter_map(|p| pick(p).get(j).copied())
                .collect();
            median(&samples)
        })
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Measures one workload in this process.
pub fn measure(cfg: &Config, traced: bool) -> Outcome {
    let reps = if cfg.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut inputs = None;
    for _ in 0..reps {
        // Free the previous set-up's inputs outside the timed region.
        drop(inputs.take());
        let t0 = Instant::now();
        let built = setup(cfg);
        setup_s.push(t0.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let _ = std::fs::create_dir_all(&cfg.work);

    let mut failures = Vec::new();
    let mut attempted = 0;
    let outcome_metrics;
    let stable;
    if traced {
        // Tracing overhead compares a pass with spans but no probes
        // against an untraced one; the probes are extra work, not
        // overhead, so they run in a third pass that feeds the trace.
        let plain = run_pass(cfg, &inputs, 0, &mut Tracer::new(false), false);
        let bare = run_pass(cfg, &inputs, 1, &mut Tracer::new(true), false);
        let mut tracer = Tracer::new(true);
        let pass = tracer.span("workload", |t| run_pass(cfg, &inputs, 2, t, true));
        stable = plain.counts == bare.counts && plain.counts == pass.counts;
        let path = cfg.work.join(format!("{}.trace.json", cfg.workload.name()));
        if let Err(e) = std::fs::write(&path, tracer.chrome_json()) {
            failures.push(format!("cannot write {}: {e}", path.display()));
        }
        let overhead = 100.0 * (bare.wall_s - plain.wall_s) / plain.wall_s;
        outcome_metrics = per_layer(&tracer, &pass, overhead);
        for p in [plain, bare, pass] {
            attempted += p.attempted;
            failures.extend(p.failures);
        }
    } else {
        let passes: Vec<_> = (0..cfg.passes())
            .map(|i| run_pass(cfg, &inputs, i, &mut Tracer::new(false), false))
            .collect();
        stable = passes.windows(2).all(|w| w[0].counts == w[1].counts);
        let jobs = job_medians(&passes, |p| &p.latencies);
        let warm = job_medians(&passes, |p| &p.warm_latencies);
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            failures.push(e);
            0.0
        });
        outcome_metrics = vec![
            ("setup_s", median(&setup_s), "s"),
            ("verify_s", jobs.iter().chain(&warm).sum(), "s"),
            ("job_p50_ms", 1e3 * percentile(&jobs, 0.5), "ms"),
            ("job_p90_ms", 1e3 * percentile(&jobs, 0.9), "ms"),
            ("peak_rss_mb", rss, "MB"),
        ];
        for p in passes {
            attempted += p.attempted;
            failures.extend(p.failures);
        }
    }
    if !stable {
        failures.push("work counters differ between passes".to_string());
    }
    for f in &failures {
        eprintln!("fpbench: {}: {f}", cfg.workload.name());
    }
    Outcome {
        correct: failures.is_empty(),
        attempted: attempted.max(1),
        failed: failures.len() as u64,
        metrics: outcome_metrics,
    }
}

fn per_layer(
    tracer: &Tracer,
    pass: &workload::Pass,
    overhead_pct: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let selfs = tracer.self_times();
    let count = |name: &str| {
        pass.counts
            .get(name)
            .or_else(|| pass.probe_counts.get(name))
            .copied()
            .unwrap_or(0)
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "bench.self_s" => selfs
                    .iter()
                    .filter(|(span, _)| layer_of(span) == "bench")
                    .map(|(_, s)| s)
                    .sum(),
                "trace.overhead_pct" => overhead_pct,
                "sat.reuse_ratio" => ratio(count("sat.reuse_imported"), count("sat.reuse_probed")),
                "core.cache_hit_ratio" => {
                    let hits = count("core.cache_hits");
                    ratio(hits, hits + count("core.cache_misses"))
                }
                "serve.cone_reuse_ratio" => {
                    ratio(count("serve.cones_reused"), count("serve.cones"))
                }
                _ => match name.strip_suffix("_s") {
                    Some(span) => selfs.get(span).copied().unwrap_or(0.0),
                    None => count(name) as f64,
                },
            };
            (name, value, unit)
        })
        .collect()
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: Option<String>,
    quick: bool,
    work: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        quick: false,
        work: PathBuf::from(".fpbench"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = Some(value.clone()),
            "--work" => parsed.work = PathBuf::from(value),
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn config(args: &Args, workload: Workload) -> Config {
    Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        work: args.work.clone(),
    }
}

/// The arguments that pin a measurement (everything but the workload,
/// trace and output paths). Two result files compare only when equal.
fn protocol_argv(args: &Args) -> Vec<String> {
    let mut argv = vec![
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
    ];
    if args.quick {
        argv.push("--quick".to_string());
    }
    argv
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// Runs `fpbench --workload W <argv> <extra>` as a child process and
/// echoes its report. Returns its result line (a run that was not
/// correct still has one), and an error when it did not exit cleanly.
fn run_child(
    workload: Workload,
    argv: &[String],
    extra: &[&str],
) -> (Option<String>, Option<String>) {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return (None, Some(e.to_string())),
    };
    let output = match Command::new(exe)
        .args(["--workload", workload.name()])
        .args(argv)
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
    {
        Ok(output) => output,
        Err(e) => return (None, Some(format!("cannot start {}: {e}", workload.name()))),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines
        .pop()
        .filter(|l| l.starts_with('{'))
        .map(str::to_string);
    for line in lines {
        println!("{line}");
    }
    let error = (!output.status.success())
        .then(|| format!("{} failed ({})", workload.name(), output.status));
    (result, error)
}

/// All four workloads, one child process each, one after another.
fn run_suite(args: &Args) -> Result<(), String> {
    let argv = protocol_argv(args);
    let work = args.work.display().to_string();
    let mut results = Vec::new();
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let (line, error) = run_child(w, &argv, &["--trace", "0", "--work", &work]);
        if let Some(line) = line {
            results.push(format!("    \"{}\": {line}", w.name()));
        }
        failed.extend(error);
    }
    let passes: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| format!("\"{}\": {}", w.name(), config(args, w).passes()))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = format!(
        "{{\n  \"protocol\": {{\"argv\": {}, \"seed\": {}, \"seconds\": {}, \"quick\": {}, \
         \"git_rev\": \"{}\", \"nproc\": {nproc}, \"passes\": {{{}}}}},\n  \
         \"workloads\": {{\n{}\n  }}\n}}\n",
        json_str_list(&argv),
        args.seed,
        args.seconds,
        args.quick,
        git_revision(),
        passes.join(", "),
        results.join(",\n")
    );
    if let Some(out) = &args.out {
        std::fs::write(out, &doc).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// Each workload once, traced, in its own child process.
fn run_traced_suite(args: &Args, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let argv = protocol_argv(args);
    let dir = dir.display().to_string();
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let (line, error) = run_child(w, &argv, &["--trace", "1", "--work", &dir]);
        if let Some(line) = line {
            println!("{line}");
        }
        failed.extend(error);
    }
    if failed.is_empty() {
        println!("traces in {dir}/<workload>.trace.json");
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let traced = match args.trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace with --workload takes 0 or 1, not {other}")),
    };
    let cfg = config(args, workload);
    let outcome = measure(&cfg, traced);
    let mode = if traced {
        "traced".to_string()
    } else {
        format!("{} passes", cfg.passes())
    };
    println!(
        "{} (seed {}, {mode}): {} jobs, {} failed",
        workload.name(),
        cfg.seed,
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<24} {value:>14.6} {unit}");
    }
    println!("{}", outcome.json());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("compare") {
        match &argv[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b), Path::new("BENCHMARK.json")),
            _ => Err("usage: fpbench compare A.json B.json".to_string()),
        }
    } else {
        parse_args(&argv).and_then(|args| match (args.workload, &args.trace) {
            (Some(w), _) => run_one(&args, w),
            (None, Some(dir)) => run_traced_suite(&args, Path::new(dir)).map(|()| true),
            (None, None) => run_suite(&args).map(|()| true),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fpbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastpath_bench::benchdiff::{parse_json, Json};

    fn quick(workload: Workload, test: &str) -> Config {
        Config {
            workload,
            seed: 1,
            seconds: 1,
            quick: true,
            work: std::env::temp_dir().join(format!("fpbench-{test}-{}", std::process::id())),
        }
    }

    #[test]
    fn quick_runs_emit_every_end_to_end_metric() {
        for w in Workload::ALL {
            let cfg = quick(w, "e2e");
            let outcome = measure(&cfg, false);
            let _ = std::fs::remove_dir_all(&cfg.work);
            assert!(outcome.correct, "{}", w.name());
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 2);
            let emitted: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(emitted, END_TO_END.to_vec(), "{}", w.name());
            for (name, value, _) in &outcome.metrics {
                assert!(*value > 0.0, "{}: {name} = {value}", w.name());
            }
            let line = parse_json(&outcome.json()).expect("result line is JSON");
            let Json::Obj(top) = line else {
                panic!("result line is not an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        }
    }

    #[test]
    fn traced_run_writes_a_trace_whose_layers_partition_the_root() {
        for w in [Workload::Fastpath, Workload::Ingest] {
            let cfg = quick(w, "trace");
            let outcome = measure(&cfg, true);
            let path = cfg.work.join(format!("{}.trace.json", w.name()));
            let text = std::fs::read_to_string(&path).expect("trace written");
            let _ = std::fs::remove_dir_all(&cfg.work);
            assert!(outcome.correct, "{}", w.name());
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
            assert_eq!(names, expected);

            let trace = parse_json(&text).expect("trace is JSON");
            let Json::Obj(doc) = trace else {
                panic!("trace is not an object")
            };
            let Some(Json::Arr(events)) = doc.get("traceEvents") else {
                panic!("no traceEvents")
            };
            let root_us = events
                .iter()
                .find_map(|e| match e {
                    Json::Obj(e) if e.get("name") == Some(&Json::Str("workload".into())) => {
                        match e.get("dur") {
                            Some(Json::Num(d)) => Some(*d),
                            _ => None,
                        }
                    }
                    _ => None,
                })
                .expect("a workload root span");
            let self_sum_us: f64 = outcome
                .metrics
                .iter()
                .filter(|(name, _, unit)| *unit == "s" && name.ends_with("_s"))
                .map(|(_, v, _)| v * 1e6)
                .sum();
            assert!(
                (self_sum_us - root_us).abs() <= 0.01 * root_us,
                "{}: layers {self_sum_us} us vs root {root_us} us",
                w.name()
            );
        }
    }

    fn result_doc(verify_s: f64, failed: u64) -> String {
        format!(
            "{{\"protocol\": {{\"argv\": [\"--seed\", \"1\"], \"passes\": {{\"fastpath\": 3}}}}, \
             \"workloads\": {{\"fastpath\": {{\"correct\": {}, \"attempted\": 7, \
             \"failed\": {failed}, \"metrics\": {{\
             \"verify_s\": {{\"value\": {verify_s}, \"unit\": \"s\"}}, \
             \"peak_rss_mb\": {{\"value\": 60, \"unit\": \"MB\"}}}}}}}}}}",
            failed == 0
        )
    }

    const BOUNDS: &str = "{\"end_to_end\": [\
        {\"name\": \"verify_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1},\
        {\"name\": \"peak_rss_mb\", \"unit\": \"MB\", \"better\": \"lower\", \"bound\": 0.1}]}";

    fn judgement(rows: &[compare::Row], metric: &str) -> compare::Judgement {
        rows.iter()
            .find(|r| r.metric == metric)
            .map(|r| r.judgement)
            .expect("row present")
    }

    #[test]
    fn compare_flags_a_slower_pass_and_an_extra_inspection() {
        use compare::Judgement::*;
        let base = result_doc(5.0, 0);
        let rows = compare::compare(&base, &result_doc(6.0, 0), BOUNDS).unwrap();
        assert_eq!(judgement(&rows, "verify_s"), Worse);
        assert_eq!(judgement(&rows, "peak_rss_mb"), Same);
        assert_eq!(judgement(&rows, "failed"), Same);
        let rows = compare::compare(&base, &result_doc(5.2, 0), BOUNDS).unwrap();
        assert_eq!(judgement(&rows, "verify_s"), Same);
        let rows = compare::compare(&base, &result_doc(4.0, 0), BOUNDS).unwrap();
        assert_eq!(judgement(&rows, "verify_s"), Better);
        // One inspection above Table I fails that design's job: the run
        // is not correct, so its timings cannot be judged, and its
        // failure count rose.
        let rows = compare::compare(&base, &result_doc(5.0, 1), BOUNDS).unwrap();
        assert_eq!(judgement(&rows, "failed"), Worse);
        assert_eq!(judgement(&rows, "verify_s"), Unresolved);
    }

    #[test]
    fn compare_refuses_different_protocols() {
        let other = result_doc(5.0, 0).replace("\"1\"", "\"2\"");
        assert!(compare::compare(&result_doc(5.0, 0), &other, BOUNDS).is_err());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.9), 5.0);
        assert_eq!(percentile(&v, 0.2), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}

//! The verification daemon: claim jobs, verify, memoize, answer.
//!
//! One [`serve`] call drains the spool in batches: every pending job is
//! claimed, the batch is fanned out over the work-stealing pool
//! ([`fastpath::parallel::run_ordered`]), and each worker runs the flow
//! with the shared [`DiskStore`] attached as its proof cache. Because
//! attaching a cache forces certification in the core flow, **every
//! verdict the daemon serves is independently certified** — freshly
//! computed ones by RUP proof replay / model check at solve time, cached
//! ones by revalidation at load time.
//!
//! Cone mode is the incremental-revision path: the submitted design is
//! decomposed into one fan-in cone per control output, each cone is
//! verified as a stand-alone module, and the verdict is stored under the
//! cone's *canonical* hash. Resubmitting an edited design re-proves only
//! the cones whose canonical hash changed; renames, reordered
//! declarations, and edits outside a cone's fan-in are all hash-neutral
//! and hit the cache.

use fastpath::cache::CacheStats;
use fastpath::{CaseStudy, ClauseStore, DesignInstance, FlowOptions, ProofCache, Verdict};
use fastpath_rtl::{extract_cone, module_hash, parse_netlist, Module};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use crate::job::{
    decode_job, encode_error, encode_result, ConeOutcome, Job, JobMode, JobOutcome, JobSource,
};
use crate::store::{name_key, ConeVerdict, DiskStore};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Service root; the spool lives in `<root>/queue`, artifacts in
    /// `<root>/store`.
    pub root: PathBuf,
    /// Worker threads for a batch of claimed jobs.
    pub jobs: usize,
    /// Drain the spool once and exit (CI / test mode).
    pub once: bool,
    /// Inbox poll interval in milliseconds.
    pub poll_ms: u64,
    /// Exit after this many consecutive empty polls (`None` = run until
    /// killed).
    pub idle_exit: Option<u32>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            root: PathBuf::from("fastpathd"),
            jobs: 1,
            once: false,
            poll_ms: 200,
            idle_exit: None,
        }
    }
}

/// What one [`serve`] call did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Jobs processed to completion (including error results).
    pub processed: u64,
}

/// Runs the daemon loop over `<root>/queue` with the store at
/// `<root>/store`.
pub fn serve(opts: &ServeOptions) -> io::Result<ServeSummary> {
    let store = Arc::new(DiskStore::open(opts.root.join("store"))?);
    let spool = crate::job::Spool::open(opts.root.join("queue"))?;
    // The persistent learnt-clause store lives next to the proof store.
    // One snapshot serves a whole batch: in-flight jobs only read the
    // immutable base (so results never depend on batch companions or
    // worker count) and publish their own clauses to the pending set,
    // which is saved and reloaded between batches.
    let clause_path = opts.root.join("store").join("clauses.txt");
    let mut clauses = Arc::new(ClauseStore::open(&clause_path));
    let mut summary = ServeSummary::default();
    let mut idle = 0u32;
    loop {
        let claimed: Vec<PathBuf> = spool
            .pending()
            .iter()
            .filter_map(|p| spool.claim(p))
            .collect();
        if claimed.is_empty() {
            if opts.once {
                break;
            }
            idle += 1;
            if opts.idle_exit.is_some_and(|limit| idle >= limit) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(opts.poll_ms));
            continue;
        }
        idle = 0;
        let tasks: Vec<_> = claimed
            .into_iter()
            .map(|path| {
                let store = Arc::clone(&store);
                let clauses = Arc::clone(&clauses);
                move || {
                    let result = match std::fs::read_to_string(&path) {
                        Ok(text) => match decode_job(&text) {
                            Ok(job) => match process_job(&store, &clauses, &job) {
                                Ok(outcome) => encode_result(&outcome),
                                Err(reason) => encode_error(&job.name, &reason),
                            },
                            Err(reason) => encode_error("unknown", &reason),
                        },
                        Err(e) => encode_error("unknown", &e.to_string()),
                    };
                    (path, result)
                }
            })
            .collect();
        // Every result of the batch is already computed: write them all,
        // and report the first write that failed only once the batch is
        // done. A failed job's claim stays in `work/`.
        let mut failed = None;
        for (path, result) in fastpath::parallel::run_ordered(opts.jobs, tasks) {
            match spool.finish(&path, &result) {
                Ok(()) => summary.processed += 1,
                Err(e) => {
                    failed.get_or_insert(e);
                }
            }
        }
        // Persist the batch's published clauses and reload, so the next
        // batch's base snapshot includes them — cross-job reuse advances
        // one batch at a time, deterministically.
        if clauses.pending_clauses() > 0 && clauses.save().is_ok() {
            clauses = Arc::new(ClauseStore::open(&clause_path));
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if opts.once {
            break;
        }
    }
    Ok(summary)
}

fn resolve_study(job: &Job) -> Result<CaseStudy, String> {
    let mut study = match &job.source {
        JobSource::Study(name) => fastpath_designs::all_case_studies()
            .into_iter()
            .find(|s| &s.name == name)
            .ok_or_else(|| format!("unknown case study {name:?}"))?,
        JobSource::Netlist(text) => {
            let module = parse_netlist(text).map_err(|e| e.to_string())?;
            CaseStudy::new(job.name.clone(), DesignInstance::new(module))
        }
    };
    if let Some(cycles) = job.cycles {
        study.cycles = cycles;
    }
    if let Some(seed) = job.seed {
        study.seed = seed;
    }
    Ok(study)
}

fn flow_options(store: &Arc<DiskStore>, clauses: &Arc<ClauseStore>) -> FlowOptions {
    FlowOptions {
        cache: Some(Arc::clone(store) as Arc<dyn ProofCache>),
        clause_store: Some(Arc::clone(clauses)),
        ..FlowOptions::default()
    }
}

/// The per-control-output cone manifest of a module.
fn cone_manifest(module: &Module) -> Vec<(String, fastpath_rtl::Digest)> {
    module
        .control_outputs()
        .into_iter()
        .map(|sid| {
            let cone = extract_cone(module, &[sid]);
            (module.signal(sid).name.clone(), module_hash(&cone.module))
        })
        .collect()
}

/// Verifies one job against the shared store. `clauses` is the batch's
/// learnt-clause snapshot: jobs read its base and publish to its pending
/// set; the daemon persists it between batches.
pub fn process_job(
    store: &Arc<DiskStore>,
    clauses: &Arc<ClauseStore>,
    job: &Job,
) -> Result<JobOutcome, String> {
    let study = resolve_study(job)?;
    match job.mode {
        JobMode::Full => {
            let report = fastpath::run_fastpath_with(&study, flow_options(store, clauses));
            store.store_manifest(&name_key(&job.name), &cone_manifest(&study.instance.module));
            Ok(JobOutcome {
                name: job.name.clone(),
                verdict: report.verdict.clone(),
                method: report.method.to_string(),
                inspections: report.manual_inspections,
                checks: report.timings.check_count,
                certified: report.fully_certified() == Some(true),
                cache: report.cache.unwrap_or_default(),
                cones: Vec::new(),
            })
        }
        JobMode::Cones => run_cones(store, clauses, job, &study),
    }
}

fn run_cones(
    store: &Arc<DiskStore>,
    clauses: &Arc<ClauseStore>,
    job: &Job,
    study: &CaseStudy,
) -> Result<JobOutcome, String> {
    let module = &study.instance.module;
    let mut outcome = JobOutcome {
        name: job.name.clone(),
        verdict: Verdict::DataOblivious,
        method: "cones".to_string(),
        inspections: 0,
        checks: 0,
        certified: true,
        cache: CacheStats::default(),
        cones: Vec::new(),
    };
    let mut manifest = Vec::new();
    for sid in module.control_outputs() {
        let output = module.signal(sid).name.clone();
        let cone = extract_cone(module, &[sid]);
        let hash = module_hash(&cone.module);
        manifest.push((output.clone(), hash));
        if let Some(cached) = store.load_cone(&hash) {
            // Unchanged cone of a revised design (or an isomorphic cone
            // of this one): the certified verdict is reused outright —
            // no simulation, no solver, no inspections.
            outcome.cones.push(ConeOutcome {
                output,
                hash,
                reused: true,
                verdict: cached.verdict,
            });
            continue;
        }
        let mut cone_study = CaseStudy::new(
            format!("{}::{}", job.name, output),
            DesignInstance::new(cone.module),
        );
        cone_study.cycles = job.cycles.unwrap_or(study.cycles);
        cone_study.seed = job.seed.unwrap_or(study.seed);
        cone_study.policy = study.policy;
        let report = fastpath::run_fastpath_with(&cone_study, flow_options(store, clauses));
        let certified = report.fully_certified() == Some(true);
        outcome.certified &= certified;
        outcome.inspections += report.manual_inspections;
        outcome.checks += report.timings.check_count;
        if let Some(stats) = &report.cache {
            outcome.cache.merge(stats);
        }
        if certified {
            // Only independently certified verdicts enter the cone cache.
            store.store_cone(
                &hash,
                &ConeVerdict {
                    verdict: report.verdict.clone(),
                    inspections: report.manual_inspections,
                    checks: report.timings.check_count,
                },
            );
        }
        outcome.cones.push(ConeOutcome {
            output,
            hash,
            reused: false,
            verdict: report.verdict,
        });
    }
    store.store_manifest(&name_key(&job.name), &manifest);
    outcome.verdict = merge_verdicts(outcome.cones.iter().map(|c| &c.verdict));
    Ok(outcome)
}

/// Folds per-cone verdicts into a whole-design verdict: any *False* cone
/// makes the design *False*; otherwise the design is *Constrained* under
/// the union of every cone's constraints; otherwise *True*.
fn merge_verdicts<'v>(verdicts: impl Iterator<Item = &'v Verdict>) -> Verdict {
    let mut constraints: Vec<String> = Vec::new();
    for verdict in verdicts {
        match verdict {
            Verdict::NotDataOblivious => return Verdict::NotDataOblivious,
            Verdict::ConstrainedDataOblivious(names) => {
                constraints.extend(names.iter().cloned());
            }
            Verdict::DataOblivious => {}
        }
    }
    if constraints.is_empty() {
        Verdict::DataOblivious
    } else {
        constraints.sort();
        constraints.dedup();
        Verdict::ConstrainedDataOblivious(constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Spool;
    use std::fs;

    #[test]
    fn a_failed_result_write_still_finishes_the_batch() {
        let root = std::env::temp_dir().join(format!("fastpath-batch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let spool = Spool::open(root.join("queue")).expect("open");
        // An unknown study answers at once with an error result.
        let ids: Vec<String> = ["first", "second"]
            .iter()
            .map(|name| {
                let job = Job {
                    name: name.to_string(),
                    mode: JobMode::Full,
                    cycles: None,
                    seed: None,
                    source: JobSource::Study(format!("no such study {name}")),
                };
                spool.submit(&job).expect("submit")
            })
            .collect();
        // A directory where the first result's temporary file goes makes
        // that one write fail.
        fs::create_dir(root.join("queue/done").join(format!(".{}.tmp", ids[0]))).expect("plant");
        let opts = ServeOptions {
            root: root.clone(),
            once: true,
            ..ServeOptions::default()
        };
        assert!(serve(&opts).is_err(), "--once must still fail");
        assert!(spool.result(&ids[0]).is_none());
        let second = spool.result(&ids[1]).expect("second job answered");
        assert!(second.contains("error unknown case study"), "{second}");
        let (inbox, work, done) = spool.status();
        assert!(inbox.is_empty());
        assert_eq!(
            work,
            vec![ids[0].clone()],
            "the failed claim stays in work/"
        );
        assert_eq!(done, vec![ids[1].clone()]);
        let _ = fs::remove_dir_all(&root);
    }
}

//! Job and result wire formats, and the directory-based submission spool.
//!
//! The daemon's transport is the filesystem: `submit` drops a job file
//! into `queue/inbox/`, the daemon *claims* it with an atomic rename into
//! `queue/work/` (so concurrent daemons never double-process), and writes
//! the finished result into `queue/done/`. No sockets, no wire protocol to
//! version beyond these two text formats — and a crashed daemon leaves its
//! claims visible in `work/` for inspection. Sequence numbers come from
//! the locked counter file `queue/seq`.

use fastpath::{CacheStats, Verdict};
use fastpath_rtl::{Digest, StableHasher};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::counter::update_counter;
use crate::store::name_key;

const JOB_MAGIC: &str = "fastpathd job 1";
const RESULT_MAGIC: &str = "fastpathd result 1";

/// What a job verifies: a named built-in case study (full constraint
/// vocabulary) or a raw netlist submitted over the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSource {
    /// A Table I case study by exact name, e.g. `"AES (opencores)"`.
    Study(String),
    /// A netlist in the `fastpath-rtl` text format.
    Netlist(String),
}

/// Verification granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobMode {
    /// One flow run over the whole design (constraint vocabulary intact).
    Full,
    /// Decompose into per-control-output fan-in cones; verify each cone
    /// separately and reuse cached verdicts for cones whose canonical
    /// hash is unchanged — the incremental-revision path.
    Cones,
}

impl JobMode {
    fn as_str(self) -> &'static str {
        match self {
            JobMode::Full => "full",
            JobMode::Cones => "cones",
        }
    }
}

/// One verification request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    /// Display name; also the manifest key for incremental revision.
    pub name: String,
    /// Verification granularity.
    pub mode: JobMode,
    /// Simulation cycle override (`None` = the study's default).
    pub cycles: Option<u64>,
    /// Testbench seed override (`None` = the study's default).
    pub seed: Option<u64>,
    /// The design under verification.
    pub source: JobSource,
}

/// Per-cone outcome inside a [`JobOutcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConeOutcome {
    /// The control output whose fan-in cone was verified.
    pub output: String,
    /// Canonical hash of the extracted cone module.
    pub hash: Digest,
    /// `true` when the verdict was served from the cone cache.
    pub reused: bool,
    /// The cone's verdict.
    pub verdict: Verdict,
}

/// The daemon's answer to one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job's display name.
    pub name: String,
    /// Merged verdict (full-design or across cones).
    pub verdict: Verdict,
    /// Completion method: `HFG`/`IFT`/`UPEC` for full runs, `cones` for
    /// decomposed runs.
    pub method: String,
    /// Manual inspections charged.
    pub inspections: u64,
    /// UPEC checks performed (cache hits included, reused cones not).
    pub checks: u64,
    /// Whether every verdict that was *computed* this run was
    /// independently certified (reused cone verdicts were certified when
    /// first stored and are checksummed on load).
    pub certified: bool,
    /// Proof-cache counters aggregated over the run's flow invocations.
    pub cache: CacheStats,
    /// Per-cone outcomes (empty for full-mode jobs).
    pub cones: Vec<ConeOutcome>,
}

/// Renders a job file.
pub fn encode_job(job: &Job) -> String {
    let mut out = format!(
        "{JOB_MAGIC}\nname {}\nmode {}\n",
        job.name,
        job.mode.as_str()
    );
    match job.cycles {
        Some(n) => out.push_str(&format!("cycles {n}\n")),
        None => out.push_str("cycles default\n"),
    }
    match job.seed {
        Some(n) => out.push_str(&format!("seed {n}\n")),
        None => out.push_str("seed default\n"),
    }
    match &job.source {
        JobSource::Study(name) => out.push_str(&format!("study {name}\n")),
        JobSource::Netlist(text) => {
            out.push_str(&format!("netlist {}\n", text.len()));
            out.push_str(text);
        }
    }
    out
}

/// Parses a job file; `Err` carries a human-readable reason.
pub fn decode_job(text: &str) -> Result<Job, String> {
    fn take_line<'a>(rest: &mut &'a str) -> Result<&'a str, String> {
        let at = rest.find('\n').ok_or("truncated job file")?;
        let (l, r) = rest.split_at(at);
        *rest = &r[1..];
        Ok(l)
    }
    let mut rest = text;
    if take_line(&mut rest)? != JOB_MAGIC {
        return Err("not a fastpathd job file".into());
    }
    let name = take_line(&mut rest)?
        .strip_prefix("name ")
        .ok_or("missing name")?
        .to_string();
    let mode = match take_line(&mut rest)?
        .strip_prefix("mode ")
        .ok_or("missing mode")?
    {
        "full" => JobMode::Full,
        "cones" => JobMode::Cones,
        other => return Err(format!("unknown mode {other:?}")),
    };
    let opt = |l: &str, prefix: &str| -> Result<Option<u64>, String> {
        match l
            .strip_prefix(prefix)
            .ok_or_else(|| format!("missing {prefix}"))?
        {
            "default" => Ok(None),
            n => n.parse().map(Some).map_err(|_| format!("bad {prefix}{n}")),
        }
    };
    let cycles = opt(take_line(&mut rest)?, "cycles ")?;
    let seed = opt(take_line(&mut rest)?, "seed ")?;
    let src = take_line(&mut rest)?.to_string();
    let source = if let Some(study) = src.strip_prefix("study ") {
        JobSource::Study(study.to_string())
    } else if let Some(len) = src.strip_prefix("netlist ") {
        let len: usize = len.parse().map_err(|_| "bad netlist length")?;
        if rest.len() < len {
            return Err("truncated netlist blob".into());
        }
        let blob = rest
            .get(..len)
            .ok_or("netlist length ends inside a UTF-8 character")?;
        JobSource::Netlist(blob.to_string())
    } else {
        return Err("missing study/netlist source".into());
    };
    Ok(Job {
        name,
        mode,
        cycles,
        seed,
        source,
    })
}

/// Renders a result file. Deliberately free of wall-clock content so a
/// warm rerun of an identical job produces a byte-identical result apart
/// from the honest `cache`/`reused` provenance lines.
pub fn encode_result(outcome: &JobOutcome) -> String {
    let mut out = format!("{RESULT_MAGIC}\nname {}\n", outcome.name);
    match &outcome.verdict {
        Verdict::DataOblivious => out.push_str("verdict True\n"),
        Verdict::ConstrainedDataOblivious(names) => {
            out.push_str(&format!("verdict Constrained ({})\n", names.join(", ")));
        }
        Verdict::NotDataOblivious => out.push_str("verdict False\n"),
    }
    out.push_str(&format!("method {}\n", outcome.method));
    out.push_str(&format!("inspections {}\n", outcome.inspections));
    out.push_str(&format!("checks {}\n", outcome.checks));
    out.push_str(&format!("certified {}\n", outcome.certified));
    out.push_str(&format!(
        "cache hits {} misses {} bytes {} evictions {}\n",
        outcome.cache.hits, outcome.cache.misses, outcome.cache.bytes, outcome.cache.evictions
    ));
    if !outcome.cones.is_empty() {
        let reused = outcome.cones.iter().filter(|c| c.reused).count();
        out.push_str(&format!(
            "cones {} reused {} reproved {}\n",
            outcome.cones.len(),
            reused,
            outcome.cones.len() - reused
        ));
        for cone in &outcome.cones {
            out.push_str(&format!(
                "cone {} {} {} {}\n",
                cone.hash.to_hex(),
                if cone.reused { "reused" } else { "proved" },
                match &cone.verdict {
                    Verdict::DataOblivious => "True",
                    Verdict::ConstrainedDataOblivious(_) => "Constrained",
                    Verdict::NotDataOblivious => "False",
                },
                cone.output,
            ));
        }
    }
    out
}

/// Renders the result file for a job that could not run at all.
pub fn encode_error(name: &str, reason: &str) -> String {
    format!("{RESULT_MAGIC}\nname {name}\nerror {reason}\n")
}

/// The `inbox/` → `work/` → `done/` submission spool.
#[derive(Debug)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Opens (creating if necessary) a spool rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Spool> {
        let root = root.into();
        for sub in ["inbox", "work", "done"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(Spool { root })
    }

    fn dir(&self, sub: &str) -> PathBuf {
        self.root.join(sub)
    }

    /// Files in `sub`, sorted by name (sequence order).
    fn listing(&self, sub: &str) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(self.dir(sub))
            .map(|dir| dir.flatten().map(|e| e.path()).collect())
            .unwrap_or_default();
        files.sort();
        files
    }

    /// Writes a job into the inbox and returns its id
    /// (`<seq>-<content hash prefix>`). Sequence numbers make ids unique
    /// across resubmissions of an identical design — exactly the warm
    /// cache case — while keeping processing order deterministic.
    ///
    /// The sequence number is taken from the counter file `seq` under an
    /// exclusive lock, so concurrent submitters, in one process or many,
    /// always get distinct ids, and a submit costs the same however many
    /// jobs the spool holds. Only a missing or unreadable counter, as in a
    /// spool written before it existed, is seeded by listing the spool.
    pub fn submit(&self, job: &Job) -> io::Result<String> {
        let text = encode_job(job);
        let mut h = StableHasher::new(0x6670_6a62); // "fpjb"
        h.write_bytes(text.as_bytes());
        let seq = update_counter(
            &self.root.join("seq"),
            || self.highest_seq(),
            |seq| {
                *seq += 1;
                *seq
            },
        )?;
        let id = format!("{seq:06}-{}", &h.finish().to_hex()[..8]);
        let path = self.dir("inbox").join(format!("{id}.job"));
        let tmp = self.dir("inbox").join(format!(".{id}.tmp"));
        fs::write(&tmp, &text)?;
        fs::rename(&tmp, &path)?;
        Ok(id)
    }

    /// The highest sequence number of any job in the spool, 0 if none.
    fn highest_seq(&self) -> u64 {
        ["inbox", "work", "done"]
            .iter()
            .flat_map(|sub| self.listing(sub))
            .filter_map(|p| {
                let stem = p.file_name()?.to_str()?;
                stem.split('-').next()?.parse::<u64>().ok()
            })
            .max()
            .unwrap_or(0)
    }

    /// Jobs waiting in the inbox, oldest sequence first.
    pub fn pending(&self) -> Vec<PathBuf> {
        self.listing("inbox")
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "job"))
            .collect()
    }

    /// Atomically claims an inbox job for processing; `None` if another
    /// daemon got there first.
    pub fn claim(&self, inbox_path: &Path) -> Option<PathBuf> {
        let name = inbox_path.file_name()?;
        let work = self.dir("work").join(name);
        fs::rename(inbox_path, &work).ok()?;
        Some(work)
    }

    /// Writes the result for a claimed job and retires the claim.
    pub fn finish(&self, work_path: &Path, result_text: &str) -> io::Result<()> {
        let stem = work_path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("unknown");
        let done = self.dir("done").join(format!("{stem}.result"));
        let tmp = self.dir("done").join(format!(".{stem}.tmp"));
        fs::write(&tmp, result_text)?;
        fs::rename(&tmp, &done)?;
        fs::remove_file(work_path)
    }

    /// Job ids in each stage: `(inbox, work, done)`.
    pub fn status(&self) -> (Vec<String>, Vec<String>, Vec<String>) {
        let names = |sub: &str| {
            self.listing(sub)
                .iter()
                .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
                .filter(|s| !s.starts_with('.'))
                .collect()
        };
        (names("inbox"), names("work"), names("done"))
    }

    /// The result text for a finished job id, if present.
    pub fn result(&self, id: &str) -> Option<String> {
        fs::read_to_string(self.dir("done").join(format!("{id}.result"))).ok()
    }
}

/// The manifest key for a job (see [`name_key`]).
pub fn job_manifest_key(job: &Job) -> Digest {
    name_key(&job.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_files_round_trip() {
        for job in [
            Job {
                name: "AES (opencores)".into(),
                mode: JobMode::Full,
                cycles: None,
                seed: None,
                source: JobSource::Study("AES (opencores)".into()),
            },
            Job {
                name: "dut".into(),
                mode: JobMode::Cones,
                cycles: Some(250),
                seed: Some(7),
                source: JobSource::Netlist("module dut\nend\n".into()),
            },
        ] {
            assert_eq!(decode_job(&encode_job(&job)).as_ref(), Ok(&job));
        }
        assert!(decode_job("garbage").is_err());
        // A truncated netlist blob must be rejected, not silently short.
        let mut text = encode_job(&Job {
            name: "dut".into(),
            mode: JobMode::Cones,
            cycles: None,
            seed: None,
            source: JobSource::Netlist("module dut\nend\n".into()),
        });
        text.truncate(text.len() - 4);
        assert!(decode_job(&text).is_err());
        // A length that ends inside a multi-byte character is rejected
        // with a typed error, not a panic: byte 9 is the middle of "é".
        let text = encode_job(&Job {
            name: "dut".into(),
            mode: JobMode::Cones,
            cycles: None,
            seed: None,
            source: JobSource::Netlist("module dé\nend\n".into()),
        })
        .replace("netlist 15\n", "netlist 9\n");
        assert!(decode_job(&text).unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn spool_claims_are_exclusive_and_ids_sequence() {
        let root = std::env::temp_dir().join(format!("fastpath-spool-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let spool = Spool::open(&root).expect("open");
        let job = Job {
            name: "dut".into(),
            mode: JobMode::Full,
            cycles: None,
            seed: None,
            source: JobSource::Study("dut".into()),
        };
        let id1 = spool.submit(&job).expect("submit");
        let id2 = spool.submit(&job).expect("submit");
        assert_ne!(id1, id2, "identical jobs still get distinct ids");
        assert!(id2 > id1, "sequence numbers order submissions");

        let pending = spool.pending();
        assert_eq!(pending.len(), 2);
        let claimed = spool.claim(&pending[0]).expect("claim");
        assert!(spool.claim(&pending[0]).is_none(), "claims are exclusive");
        spool.finish(&claimed, "result\n").expect("finish");
        let (inbox, work, done) = spool.status();
        assert_eq!(inbox.len(), 1);
        assert!(work.is_empty());
        assert_eq!(done, vec![id1.clone()]);
        assert_eq!(spool.result(&id1).as_deref(), Some("result\n"));
        let _ = fs::remove_dir_all(&root);
    }

    fn study_job(name: &str) -> Job {
        Job {
            name: name.into(),
            mode: JobMode::Full,
            cycles: None,
            seed: None,
            source: JobSource::Study(name.into()),
        }
    }

    fn seq_of(id: &str) -> u64 {
        id.split('-')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("seq")
    }

    #[test]
    fn concurrent_submitters_get_distinct_ids() {
        let root = std::env::temp_dir().join(format!("fastpath-spool-mt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let spool = Spool::open(&root).expect("open");
        let job = study_job("dut");
        // Identical jobs hash alike, so only the sequence number tells
        // their ids apart. The barrier starts all four submitters at once.
        let start = std::sync::Barrier::new(4);
        let mut ids: Vec<String> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..50)
                            .map(|_| spool.submit(&job).expect("submit"))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("submitter"))
                .collect()
        });
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 200, "every submission gets its own id");
        assert_eq!(spool.pending().len(), 200, "no job replaced another");
        let seqs: Vec<u64> = ids.iter().map(|id| seq_of(id)).collect();
        assert_eq!(seqs, (1..=200).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_spool_without_a_counter_continues_after_its_highest_job() {
        let root = std::env::temp_dir().join(format!("fastpath-spool-seed-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let spool = Spool::open(&root).expect("open");
        fs::write(root.join("done/000007-0123abcd.result"), "result\n").expect("plant");
        assert!(!root.join("seq").exists());
        let id = spool.submit(&study_job("dut")).expect("submit");
        assert_eq!(seq_of(&id), 8, "{id}");
        // From here on the counter answers; the listing is not consulted.
        fs::remove_file(root.join("done/000007-0123abcd.result")).expect("remove");
        assert_eq!(seq_of(&spool.submit(&study_job("dut")).expect("submit")), 9);
        // A garbled counter is seeded from the spool again.
        fs::write(root.join("seq"), "x\n").expect("garble");
        assert_eq!(
            seq_of(&spool.submit(&study_job("dut")).expect("submit")),
            10
        );
        let _ = fs::remove_dir_all(&root);
    }
}

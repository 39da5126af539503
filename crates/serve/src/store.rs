//! Content-addressed on-disk artifact store.
//!
//! The store is a plain directory tree addressed by [`Digest`] hex names —
//! no database, no index files, so concurrent readers and writers compose
//! with nothing more than atomic renames and two locked counter files:
//!
//! ```text
//! store/
//!   checks/<digest>      memoized UPEC verdicts (core cache wire format)
//!   sims/<digest>        memoized IFT simulation results
//!   invariants/<digest>  machine-derived IC3 invariants + their certified
//!                        strengthened-check proofs, keyed like checks
//!   cones/<digest>       per-cone flow verdicts, keyed by canonical cone hash
//!   modules/<digest>     cone manifests, keyed by the *design name* digest
//!   bytes                byte ledger: total size of the namespace entries
//!   evictions            cumulative GC eviction counter
//! ```
//!
//! The byte ledger is what [`ProofCache::usage`] reports, so the size of
//! the store is known without listing it. Every entry write adjusts the
//! ledger under its lock; [`DiskStore::open`] re-inventories a ledger that
//! is missing or unreadable, and [`DiskStore::gc`] sets it back to the
//! exact total it sweeps.
//!
//! `checks/`, `sims/` and `invariants/` implement [`ProofCache`], so the same store that
//! backs the daemon's cone decomposition also memoizes individual solver
//! calls inside each flow run. Entries are written atomically (temp file +
//! rename) and carry their own checksums: the core cache entries embed a
//! `sum` line, and the service-level records written here do the same, so
//! a corrupted or truncated artifact decodes as a miss and is re-proved,
//! never trusted.

use fastpath::cache::{CacheKind, CacheUsage};
use fastpath::{ProofCache, Verdict};
use fastpath_rtl::{Digest, StableHasher};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::counter::update_counter;

/// Domain tag for service-level record checksums ("fpsv").
const TAG_STORE_SUM: u64 = 0x66707376;

const CONE_MAGIC: &str = "fastpath-store cone 1";
const MANIFEST_MAGIC: &str = "fastpath-store module 1";

/// The five object namespaces, in deterministic GC scan order.
const NAMESPACES: [&str; 5] = ["checks", "sims", "invariants", "cones", "modules"];

/// A content-addressed artifact store rooted at one directory.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
}

/// Verdict record for one extracted fan-in cone, stored under the cone's
/// canonical (rename/reorder-invariant) hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConeVerdict {
    /// The flow verdict for the stand-alone cone module.
    pub verdict: Verdict,
    /// Manual inspections the flow charged for this cone.
    pub inspections: u64,
    /// UPEC checks performed to reach the verdict.
    pub checks: u64,
}

/// What one garbage-collection sweep did.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcStats {
    /// Entries examined across all namespaces.
    pub examined: u64,
    /// Entries deleted (oldest-first) to honour the byte budget.
    pub evicted: u64,
    /// Store size before the sweep.
    pub bytes_before: u64,
    /// Store size after the sweep.
    pub bytes_after: u64,
}

impl DiskStore {
    /// Opens (creating if necessary) a store rooted at `root`. A byte
    /// ledger that is missing or unreadable, as in a store written before
    /// the ledger existed, is rebuilt from a full inventory here; a valid
    /// one is only read.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskStore> {
        let root = root.into();
        for ns in NAMESPACES {
            fs::create_dir_all(root.join(ns))?;
        }
        let store = DiskStore { root };
        let _ = store.ledger(|_| ());
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, namespace: &str, key: &Digest) -> PathBuf {
        self.root.join(namespace).join(key.to_hex())
    }

    /// Runs `update` on the byte ledger under its lock, rebuilding a
    /// missing or unreadable ledger from a full inventory first.
    fn ledger<R>(&self, update: impl FnOnce(&mut u64) -> R) -> io::Result<R> {
        update_counter(&self.root.join("bytes"), || self.inventory_bytes(), update)
    }

    /// Atomically writes `text` under `namespace/<key>`: a rename makes
    /// the entry appear complete or not at all, never truncated.
    ///
    /// The write and the rename happen under the ledger's lock, which then
    /// moves by the new size minus the size of the entry replaced. So no
    /// half-written temporary file is ever counted by a ledger rebuild or
    /// a [`gc`](Self::gc) sweep. The store is a performance layer: when the
    /// ledger cannot be locked, the entry is written all the same.
    fn write_entry(&self, namespace: &str, key: &Digest, text: &str) {
        let path = self.entry_path(namespace, key);
        let write = || {
            let tmp = path.with_extension("tmp");
            fs::write(&tmp, text).is_ok() && fs::rename(&tmp, &path).is_ok()
        };
        let mut attempted = false;
        let _ = self.ledger(|bytes| {
            attempted = true;
            let old = fs::metadata(&path).map_or(0, |meta| meta.len());
            if write() {
                *bytes = bytes.saturating_sub(old) + text.len() as u64;
            }
        });
        if !attempted {
            write();
        }
    }

    fn read_entry(&self, namespace: &str, key: &Digest) -> Option<String> {
        fs::read_to_string(self.entry_path(namespace, key)).ok()
    }

    /// Loads and validates the cone-verdict record for `key`.
    pub fn load_cone(&self, key: &Digest) -> Option<ConeVerdict> {
        decode_cone(&self.read_entry("cones", key)?)
    }

    /// Stores the cone-verdict record for `key`.
    pub fn store_cone(&self, key: &Digest, verdict: &ConeVerdict) {
        self.write_entry("cones", key, &encode_cone(verdict));
    }

    /// Loads the cone manifest (control output name, cone hash) recorded
    /// for a design-name digest.
    pub fn load_manifest(&self, key: &Digest) -> Option<Vec<(String, Digest)>> {
        decode_manifest(&self.read_entry("modules", key)?)
    }

    /// Stores the cone manifest for a design-name digest.
    pub fn store_manifest(&self, key: &Digest, cones: &[(String, Digest)]) {
        self.write_entry("modules", key, &encode_manifest(cones));
    }

    /// Every entry in the store as `(mtime, size, path)`, sorted oldest
    /// first (ties broken by path for determinism).
    fn inventory(&self) -> Vec<(std::time::SystemTime, u64, PathBuf)> {
        let mut entries = Vec::new();
        for ns in NAMESPACES {
            let Ok(dir) = fs::read_dir(self.root.join(ns)) else {
                continue;
            };
            for entry in dir.flatten() {
                let Ok(meta) = entry.metadata() else { continue };
                if !meta.is_file() {
                    continue;
                }
                let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                entries.push((mtime, meta.len(), entry.path()));
            }
        }
        entries.sort();
        entries
    }

    /// Total size of every entry, by a full inventory.
    fn inventory_bytes(&self) -> u64 {
        self.inventory().iter().map(|(_, len, _)| len).sum()
    }

    /// Deletes oldest-written entries until the store fits `max_bytes`.
    ///
    /// Eviction order is write-time (FIFO), not access-time: reads never
    /// touch entry metadata, which keeps warm lookups pure and the sweep
    /// deterministic. The sweep holds the byte ledger's lock and writes
    /// back the exact total that remains, so a ledger that drifted (an
    /// entry deleted by hand, a write that could not update it) is correct
    /// again afterwards. The cumulative eviction count is persisted so
    /// [`CacheUsage::evictions`] survives daemon restarts.
    pub fn gc(&self, max_bytes: u64) -> GcStats {
        let mut swept = None;
        // The sweep sets the ledger outright, so a missing one needs no
        // inventory of its own first.
        let _ = update_counter(
            &self.root.join("bytes"),
            || 0,
            |bytes| {
                let stats = self.sweep(max_bytes);
                *bytes = stats.bytes_after;
                swept = Some(stats);
            },
        );
        let stats = swept.unwrap_or_else(|| self.sweep(max_bytes));
        if stats.evicted > 0 {
            let _ = update_counter(
                &self.root.join("evictions"),
                || 0,
                |total| *total += stats.evicted,
            );
        }
        stats
    }

    fn sweep(&self, max_bytes: u64) -> GcStats {
        let inventory = self.inventory();
        let mut stats = GcStats {
            examined: inventory.len() as u64,
            bytes_before: inventory.iter().map(|(_, len, _)| len).sum(),
            ..GcStats::default()
        };
        let mut remaining = stats.bytes_before;
        for (_, len, path) in &inventory {
            if remaining <= max_bytes {
                break;
            }
            if fs::remove_file(path).is_ok() {
                remaining -= len;
                stats.evicted += 1;
            }
        }
        stats.bytes_after = remaining;
        stats
    }
}

impl ProofCache for DiskStore {
    fn load(&self, kind: CacheKind, key: &Digest) -> Option<String> {
        self.read_entry(kind.as_str(), key)
    }

    fn store(&self, kind: CacheKind, key: &Digest, entry: &str) {
        self.write_entry(kind.as_str(), key, entry);
    }

    /// Reads the byte ledger and the eviction counter: two small files,
    /// whatever the number of entries.
    fn usage(&self) -> CacheUsage {
        CacheUsage {
            bytes: self
                .ledger(|bytes| *bytes)
                .unwrap_or_else(|_| self.inventory_bytes()),
            evictions: update_counter(&self.root.join("evictions"), || 0, |total| *total)
                .unwrap_or(0),
        }
    }
}

/// Digest of a design name — the manifest key, so a *revised* design
/// submitted under the same name diffs against its predecessor's cones.
pub fn name_key(name: &str) -> Digest {
    let mut h = StableHasher::new(TAG_STORE_SUM);
    h.write_bytes(name.as_bytes());
    h.finish()
}

fn checksum(body: &str) -> Digest {
    let mut h = StableHasher::new(TAG_STORE_SUM);
    h.write_bytes(body.as_bytes());
    h.finish()
}

fn seal(mut body: String) -> String {
    let sum = checksum(&body);
    body.push_str(&format!("sum {}\n", sum.to_hex()));
    body
}

/// Splits off and verifies the trailing `sum` line; `None` on mismatch.
fn unseal<'t>(text: &'t str, magic: &str) -> Option<&'t str> {
    let rest = text.strip_suffix('\n')?;
    let at = rest.rfind('\n')?;
    let (body, last) = (&text[..at + 1], &rest[at + 1..]);
    let sum = Digest::from_hex(last.strip_prefix("sum ")?)?;
    if sum != checksum(body) || !body.starts_with(magic) {
        return None;
    }
    Some(body)
}

fn verdict_lines(verdict: &Verdict) -> String {
    match verdict {
        Verdict::DataOblivious => "verdict True\nconstraints 0\n".to_string(),
        Verdict::ConstrainedDataOblivious(names) => {
            let mut out = format!("verdict Constrained\nconstraints {}\n", names.len());
            for name in names {
                out.push_str(&format!("c {name}\n"));
            }
            out
        }
        Verdict::NotDataOblivious => "verdict False\nconstraints 0\n".to_string(),
    }
}

fn parse_verdict(lines: &mut std::str::Lines<'_>) -> Option<Verdict> {
    let kind = lines.next()?.strip_prefix("verdict ")?.to_string();
    let count: usize = lines.next()?.strip_prefix("constraints ")?.parse().ok()?;
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        names.push(lines.next()?.strip_prefix("c ")?.to_string());
    }
    match kind.as_str() {
        "True" if names.is_empty() => Some(Verdict::DataOblivious),
        "Constrained" if !names.is_empty() => Some(Verdict::ConstrainedDataOblivious(names)),
        "False" if names.is_empty() => Some(Verdict::NotDataOblivious),
        _ => None,
    }
}

fn encode_cone(v: &ConeVerdict) -> String {
    let mut body = format!("{CONE_MAGIC}\n");
    body.push_str(&verdict_lines(&v.verdict));
    body.push_str(&format!("inspections {}\n", v.inspections));
    body.push_str(&format!("checks {}\n", v.checks));
    seal(body)
}

fn decode_cone(text: &str) -> Option<ConeVerdict> {
    let body = unseal(text, CONE_MAGIC)?;
    let mut lines = body.lines();
    lines.next()?; // magic
    let verdict = parse_verdict(&mut lines)?;
    let inspections = lines.next()?.strip_prefix("inspections ")?.parse().ok()?;
    let checks = lines.next()?.strip_prefix("checks ")?.parse().ok()?;
    Some(ConeVerdict {
        verdict,
        inspections,
        checks,
    })
}

fn encode_manifest(cones: &[(String, Digest)]) -> String {
    let mut body = format!("{MANIFEST_MAGIC}\ncones {}\n", cones.len());
    for (output, hash) in cones {
        body.push_str(&format!("o {output} {}\n", hash.to_hex()));
    }
    seal(body)
}

fn decode_manifest(text: &str) -> Option<Vec<(String, Digest)>> {
    let body = unseal(text, MANIFEST_MAGIC)?;
    let mut lines = body.lines();
    lines.next()?; // magic
    let count: usize = lines.next()?.strip_prefix("cones ")?.parse().ok()?;
    let mut cones = Vec::with_capacity(count);
    for _ in 0..count {
        let line = lines.next()?.strip_prefix("o ")?;
        let (output, hex) = line.rsplit_once(' ')?;
        cones.push((output.to_string(), Digest::from_hex(hex)?));
    }
    Some(cones)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fastpath-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cone_records_round_trip_and_reject_tampering() {
        let store = DiskStore::open(tmp_dir("cone")).expect("open");
        let key = name_key("dut");
        let verdict = ConeVerdict {
            verdict: Verdict::ConstrainedDataOblivious(vec!["mode_off".into()]),
            inspections: 3,
            checks: 7,
        };
        store.store_cone(&key, &verdict);
        assert_eq!(store.load_cone(&key), Some(verdict));

        // Flip one byte in the stored file: the checksum must reject it.
        let path = store.entry_path("cones", &key);
        let tampered = fs::read_to_string(&path).expect("read").replace("7", "8");
        fs::write(&path, tampered).expect("write");
        assert_eq!(store.load_cone(&key), None);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn manifests_round_trip_with_spaces_in_names() {
        let store = DiskStore::open(tmp_dir("manifest")).expect("open");
        let cones = vec![
            ("bus addr valid".to_string(), name_key("a")),
            ("done".to_string(), name_key("b")),
        ];
        let key = name_key("AES (opencores)");
        store.store_manifest(&key, &cones);
        assert_eq!(store.load_manifest(&key), Some(cones));
        assert_eq!(store.load_manifest(&name_key("other")), None);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_evicts_oldest_first_to_budget() {
        let store = DiskStore::open(tmp_dir("gc")).expect("open");
        // Three 100-byte proof-cache entries with strictly ordered mtimes;
        // the newest is then overwritten by a 60-byte one.
        for (i, (name, len)) in [("a", 100), ("b", 100), ("c", 100), ("c", 60)]
            .into_iter()
            .enumerate()
        {
            store.store(CacheKind::Check, &name_key(name), &"x".repeat(len));
            let path = store.entry_path("checks", &name_key(name));
            let t = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1000 + i as u64);
            let f = fs::File::options().write(true).open(path).expect("open");
            f.set_modified(t).expect("set mtime");
        }
        assert_eq!(store.usage().bytes, 260, "the ledger follows the overwrite");
        let stats = store.gc(150);
        assert_eq!(stats.examined, 3);
        assert_eq!(stats.evicted, 2);
        assert_eq!(stats.bytes_before, 260);
        assert_eq!(stats.bytes_after, 60);
        // Oldest two gone, newest survives; the counter persists.
        assert!(store.load(CacheKind::Check, &name_key("a")).is_none());
        assert!(store.load(CacheKind::Check, &name_key("b")).is_none());
        assert!(store.load(CacheKind::Check, &name_key("c")).is_some());
        assert_eq!(store.usage().evictions, 2);
        // After a reopen the ledger still equals a full inventory.
        let store = DiskStore::open(store.root()).expect("reopen");
        assert_eq!(store.usage().bytes, 60);
        assert_eq!(store.usage().bytes, store.gc(u64::MAX).bytes_before);
        assert_eq!(store.usage().evictions, 2);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn a_lost_or_garbled_ledger_is_inventoried_on_open() {
        let root = tmp_dir("ledger");
        let store = DiskStore::open(&root).expect("open");
        store.store(CacheKind::Sim, &name_key("a"), &"x".repeat(70));
        store.store_cone(
            &name_key("b"),
            &ConeVerdict {
                verdict: Verdict::DataOblivious,
                inspections: 0,
                checks: 1,
            },
        );
        let total = store.usage().bytes;
        assert!(total > 70, "{total}");
        assert_eq!(total, store.gc(u64::MAX).bytes_before);
        for garbage in [None, Some("lots\n"), Some("")] {
            match garbage {
                None => fs::remove_file(root.join("bytes")).expect("delete ledger"),
                Some(text) => fs::write(root.join("bytes"), text).expect("garble ledger"),
            }
            let store = DiskStore::open(&root).expect("reopen");
            assert_eq!(
                fs::read_to_string(root.join("bytes")).expect("ledger"),
                format!("{total}\n")
            );
            assert_eq!(store.usage().bytes, total, "not restarted at 0");
        }
        // A ledger that cannot be opened at all costs no entry: the write
        // goes ahead, and the size falls back to an inventory.
        fs::remove_file(root.join("bytes")).expect("delete ledger");
        fs::create_dir(root.join("bytes")).expect("block ledger");
        let store = DiskStore::open(&root).expect("reopen");
        store.store(CacheKind::Check, &name_key("c"), &"x".repeat(30));
        assert_eq!(
            store.load(CacheKind::Check, &name_key("c")).as_deref(),
            Some("x".repeat(30).as_str())
        );
        assert_eq!(store.usage().bytes, total + 30);
        let _ = fs::remove_dir_all(&root);
    }
}

//! Cross-design learnt-clause reuse.
//!
//! Two designs that share a combinational cone — the divider of one core
//! grafted into another, a vendored FIFO, a common CSR file — make the
//! SAT core re-derive the same cone-local lemmas from scratch. This
//! module persists short learnt clauses keyed by a *structural* cone
//! identity so a later run (over the same design or a different one) can
//! seed its solver with them.
//!
//! # Keying and encoding
//!
//! A cone is identified by the WL-canonical label of the register whose
//! next-state function it computes ([`fastpath_rtl::CanonicalForm::signal_label`]):
//! rename- and reorder-invariant, machine-independent, and equal for
//! behaviourally indistinguishable registers across designs. Clauses are
//! stored in a *cone-local* numbering: a deterministic DFS over the
//! cone's AIG nodes (see `upec.rs`'s `cone_nodes`) assigns ordinals
//! `0..`, and a stored literal is `±(ordinal + 1)` — no solver variable,
//! AIG index, or design name ever reaches the file, so the encoding is
//! identical wherever the cone structure is.
//!
//! # Soundness and determinism
//!
//! Imports are *probed*, never trusted:
//! [`fastpath_sat::Solver::import_clause`] attaches a stored clause only
//! after a local RUP check, so a colliding key or a mistranslated
//! literal costs a rejected probe, nothing more. Determinism comes from
//! the split between `base` and `pending`: the base snapshot is loaded
//! once and immutable for the lifetime of the store, and lookups read
//! only the base — so every `--jobs` value of one run sees the same
//! imports in the same order, and each engine probes them into its one
//! in-place solver before its first check.
//! Clauses published during a run buffer in `pending` and only become
//! visible to lookups after [`ClauseStore::save`] and a re-open (a warm
//! run).

use fastpath_rtl::{Digest, StableHasher};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Maximum stored clause length. Short clauses are the ones that prune
/// (and the ones cheap to RUP-probe); everything longer is never
/// exported.
pub const MAX_REUSE_CLAUSE_LEN: usize = 8;

/// Per-cone clause cap applied at save time (first-published wins, after
/// deduplication), bounding file growth across many runs.
const MAX_CLAUSES_PER_CONE: usize = 64;

const MAGIC: &str = "fastpath-clause-store v1";
const CHECKSUM_SEED: u64 = 0x51E3_C0DE;

/// A persistent store of cone-keyed learnt clauses (see the module docs).
#[derive(Debug, Default)]
pub struct ClauseStore {
    path: Option<PathBuf>,
    /// Immutable snapshot loaded at open time; the only side lookups read.
    base: HashMap<Digest, Vec<Vec<i32>>>,
    /// Clauses published during this run, merged into the file by `save`.
    pending: Mutex<HashMap<Digest, Vec<Vec<i32>>>>,
}

impl ClauseStore {
    /// Opens the store at `path`, loading the base snapshot. A missing
    /// file is an empty store; a corrupt or tampered file (bad magic,
    /// parse error, checksum mismatch) is treated as empty too — the
    /// store is a performance cache, and every import is RUP-probed
    /// anyway, so discarding is always safe.
    pub fn open(path: impl Into<PathBuf>) -> ClauseStore {
        let path = path.into();
        let base = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| parse_store(&text))
            .unwrap_or_default();
        ClauseStore {
            path: Some(path),
            base,
            pending: Mutex::new(HashMap::new()),
        }
    }

    /// An in-memory store with no backing file (`save` is then a no-op);
    /// for tests and for runs that opt out of persistence.
    pub fn in_memory() -> ClauseStore {
        ClauseStore::default()
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The stored clauses for a cone, from the immutable base snapshot
    /// only (see the determinism notes in the module docs).
    pub fn lookup(&self, cone: &Digest) -> &[Vec<i32>] {
        self.base.get(cone).map_or(&[], Vec::as_slice)
    }

    /// Number of cones in the base snapshot.
    pub fn cones(&self) -> usize {
        self.base.len()
    }

    /// Number of clauses in the base snapshot.
    pub fn base_clauses(&self) -> usize {
        self.base.values().map(Vec::len).sum()
    }

    /// Buffers clauses for a cone. Invisible to `lookup` until the store
    /// is saved and re-opened; clauses longer than
    /// [`MAX_REUSE_CLAUSE_LEN`] or empty are dropped.
    pub fn publish(&self, cone: Digest, clauses: impl IntoIterator<Item = Vec<i32>>) {
        let mut pending = self.pending.lock().expect("clause store poisoned");
        let slot = pending.entry(cone).or_default();
        for clause in clauses {
            if !clause.is_empty() && clause.len() <= MAX_REUSE_CLAUSE_LEN {
                slot.push(clause);
            }
        }
    }

    /// Number of clauses buffered by `publish` so far this run.
    pub fn pending_clauses(&self) -> usize {
        let pending = self.pending.lock().expect("clause store poisoned");
        pending.values().map(Vec::len).sum()
    }

    /// Merges the base snapshot with everything published this run and
    /// atomically rewrites the backing file (write to a sibling temp
    /// file, then rename). Deduplicates per cone keeping first
    /// occurrence (base clauses first, so proven-useful entries survive
    /// the per-cone cap), and emits cones in sorted key order so the
    /// file is byte-deterministic for a given content. A no-op for
    /// in-memory stores.
    pub fn save(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut merged: HashMap<Digest, Vec<Vec<i32>>> = self.base.clone();
        {
            let pending = self.pending.lock().expect("clause store poisoned");
            for (cone, clauses) in pending.iter() {
                merged
                    .entry(*cone)
                    .or_default()
                    .extend(clauses.iter().cloned());
            }
        }
        let mut cones: Vec<(Digest, Vec<Vec<i32>>)> = merged
            .into_iter()
            .map(|(cone, mut clauses)| {
                let mut seen = std::collections::HashSet::new();
                clauses.retain(|c| seen.insert(c.clone()));
                clauses.truncate(MAX_CLAUSES_PER_CONE);
                (cone, clauses)
            })
            .filter(|(_, clauses)| !clauses.is_empty())
            .collect();
        cones.sort_by_key(|(cone, _)| (cone.0[0], cone.0[1]));

        let mut body = String::new();
        for (cone, clauses) in &cones {
            body.push_str(&format!("cone {} {}\n", cone.to_hex(), clauses.len()));
            for clause in clauses {
                for lit in clause {
                    body.push_str(&format!("{lit} "));
                }
                body.push_str("0\n");
            }
        }
        let mut hasher = StableHasher::new(CHECKSUM_SEED);
        hasher.write_bytes(body.as_bytes());
        let text = format!("{MAGIC}\n{body}checksum {}\n", hasher.finish().to_hex());

        let tmp = path.with_extension("tmp");
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

/// Parses a store file; `None` on any malformation (treated as empty).
fn parse_store(text: &str) -> Option<HashMap<Digest, Vec<Vec<i32>>>> {
    let rest = text.strip_prefix(MAGIC)?.strip_prefix('\n')?;
    let sum_at = rest.rfind("checksum ")?;
    if sum_at != 0 && !rest[..sum_at].ends_with('\n') {
        return None;
    }
    let body = &rest[..sum_at];
    let expected = Digest::from_hex(rest[sum_at..].trim_end().strip_prefix("checksum ")?)?;
    let mut hasher = StableHasher::new(CHECKSUM_SEED);
    hasher.write_bytes(body.as_bytes());
    if hasher.finish() != expected {
        return None;
    }

    let mut base: HashMap<Digest, Vec<Vec<i32>>> = HashMap::new();
    let mut lines = body.lines();
    while let Some(line) = lines.next() {
        let mut header = line.strip_prefix("cone ")?.split(' ');
        let cone = Digest::from_hex(header.next()?)?;
        let count: usize = header.next()?.parse().ok()?;
        if header.next().is_some() {
            return None;
        }
        let mut clauses = Vec::with_capacity(count);
        for _ in 0..count {
            let mut clause = Vec::new();
            for tok in lines.next()?.split_whitespace() {
                let lit: i32 = tok.parse().ok()?;
                if lit == 0 {
                    break;
                }
                clause.push(lit);
            }
            if clause.is_empty() || clause.len() > MAX_REUSE_CLAUSE_LEN {
                return None;
            }
            clauses.push(clause);
        }
        base.insert(cone, clauses);
    }
    Some(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(n: u64) -> Digest {
        Digest([n, n.wrapping_mul(0x9E37_79B9_7F4A_7C15)])
    }

    #[test]
    fn round_trips_through_save_and_open() {
        let dir = std::env::temp_dir().join("fastpath_reuse_roundtrip");
        let path = dir.join("clauses.store");
        let _ = std::fs::remove_file(&path);

        let store = ClauseStore::open(&path);
        assert_eq!(store.cones(), 0, "missing file is an empty store");
        store.publish(digest(1), vec![vec![1, -2], vec![3]]);
        store.publish(digest(2), vec![vec![-4, 5, 6]]);
        // Over-long and empty clauses are dropped at publish time.
        store.publish(digest(2), vec![vec![1; MAX_REUSE_CLAUSE_LEN + 1], vec![]]);
        assert_eq!(store.pending_clauses(), 3);
        // Nothing published is visible to lookups this run.
        assert!(store.lookup(&digest(1)).is_empty());
        store.save().expect("save");

        let warm = ClauseStore::open(&path);
        assert_eq!(warm.cones(), 2);
        assert_eq!(warm.base_clauses(), 3);
        assert_eq!(warm.lookup(&digest(1)), &[vec![1, -2], vec![3]]);
        assert_eq!(warm.lookup(&digest(2)), &[vec![-4, 5, 6]]);
        assert!(warm.lookup(&digest(3)).is_empty());

        // Saving a re-opened store with fresh pendings merges and dedups.
        warm.publish(digest(1), vec![vec![1, -2], vec![7, 8]]);
        warm.save().expect("save");
        let merged = ClauseStore::open(&path);
        assert_eq!(
            merged.lookup(&digest(1)),
            &[vec![1, -2], vec![3], vec![7, 8]]
        );

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_files_load_as_empty() {
        let dir = std::env::temp_dir().join("fastpath_reuse_corrupt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("clauses.store");

        // Garbage, truncations, and bit flips all degrade to empty.
        std::fs::write(&path, "not a store\n").expect("write");
        assert_eq!(ClauseStore::open(&path).cones(), 0);

        let store = ClauseStore::open(&path);
        store.publish(digest(9), vec![vec![1, 2, -3]]);
        store.save().expect("save");
        let good = std::fs::read_to_string(&path).expect("read");
        assert_eq!(ClauseStore::open(&path).base_clauses(), 1);

        let flipped = good.replace("1 2 -3", "1 2 -4");
        std::fs::write(&path, flipped).expect("write");
        assert_eq!(
            ClauseStore::open(&path).cones(),
            0,
            "checksum must catch a content flip"
        );

        std::fs::write(&path, &good[..good.len() / 2]).expect("write");
        assert_eq!(ClauseStore::open(&path).cones(), 0);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_caps_clauses_per_cone_keeping_base_first() {
        let dir = std::env::temp_dir().join("fastpath_reuse_cap");
        let path = dir.join("clauses.store");
        let _ = std::fs::remove_file(&path);

        let store = ClauseStore::open(&path);
        store.publish(
            digest(5),
            (0..2 * MAX_CLAUSES_PER_CONE as i32).map(|i| vec![i + 1]),
        );
        store.save().expect("save");
        let warm = ClauseStore::open(&path);
        let kept = warm.lookup(&digest(5));
        assert_eq!(kept.len(), MAX_CLAUSES_PER_CONE);
        assert_eq!(kept[0], vec![1], "first published survives the cap");

        let _ = std::fs::remove_file(&path);
    }
}

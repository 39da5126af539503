//! Small persisted counters: one decimal number per file, read and
//! rewritten under an exclusive file lock.
//!
//! The spool's sequence number (`queue/seq`), the store's byte ledger
//! (`store/bytes`) and its eviction count (`store/evictions`) all live in
//! such files, so that submitting a job or reporting the store's size
//! costs the same whatever the history of the service root. Threads and
//! processes that share a root serialize on the lock: each open of the
//! file takes its own lock, so two threads of one daemon exclude each
//! other as two daemons do.

use std::fs::OpenOptions;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Runs `update` on the counter stored at `path` while holding an
/// exclusive lock on the file, and returns what `update` returns.
///
/// A file that is missing, empty or unparsable holds no valid count:
/// `seed` recomputes it (under the lock) from whatever the counter
/// summarizes. The new value is written back in place, at offset 0, and
/// the file is then cut to its length; emptying it first would free its
/// block and allocate it again on every update. Nothing is written when
/// the value is unchanged, so a plain read or a no-op update costs no
/// write.
pub(crate) fn update_counter<R>(
    path: &Path,
    seed: impl FnOnce() -> u64,
    update: impl FnOnce(&mut u64) -> R,
) -> io::Result<R> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    file.lock()?;
    let mut old = Vec::new();
    file.read_to_end(&mut old)?;
    let stored = std::str::from_utf8(&old)
        .ok()
        .and_then(|text| text.trim().parse().ok());
    let mut value = stored.unwrap_or_else(seed);
    let out = update(&mut value);
    if stored != Some(value) {
        let line = format!("{value}\n");
        file.seek(SeekFrom::Start(0))?;
        file.write_all(line.as_bytes())?;
        file.set_len(line.len() as u64)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn counters_seed_update_and_rewrite_in_place() {
        let dir = std::env::temp_dir().join(format!("fastpath-counter-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("n");

        // Missing file: the seed supplies the count.
        assert_eq!(update_counter(&path, || 41, |n| *n).expect("read"), 41);
        assert_eq!(fs::read_to_string(&path).expect("file"), "41\n");
        // A valid count wins over the seed.
        let seen = update_counter(
            &path,
            || unreachable!("valid count"),
            |n| {
                *n += 1000;
                *n
            },
        );
        assert_eq!(seen.expect("update"), 1041);
        // Shrinking the number cuts the file; nothing of the old digits stays.
        update_counter(&path, || 0, |n| *n = 7).expect("update");
        assert_eq!(fs::read_to_string(&path).expect("file"), "7\n");
        // Garbage, text or not, is reseeded and cut away.
        for garbage in [&b"seven\n"[..], &[0xff; 12][..]] {
            fs::write(&path, garbage).expect("write");
            assert_eq!(update_counter(&path, || 9, |n| *n).expect("read"), 9);
            assert_eq!(fs::read_to_string(&path).expect("file"), "9\n");
        }
        // A longer value overwrites the shorter one in place.
        update_counter(&path, || 0, |n| *n = 12345).expect("update");
        assert_eq!(fs::read_to_string(&path).expect("file"), "12345\n");
        let _ = fs::remove_dir_all(&dir);
    }
}

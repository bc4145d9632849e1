//! The fingerprinted proof cache: incremental, crash-safe soundness
//! checking.
//!
//! Every discharged obligation is keyed by its structural
//! [`Fingerprint`] (axioms + hypotheses + goal with de-Bruijn-indexed
//! binders, base budget, retry ladder, prover version — see
//! [`stq_logic::fingerprint`]). Because the prover is deterministic, a
//! *conclusive* outcome — `Proved` or `Refuted` — is a pure function of
//! that key, so re-checking an unchanged qualifier is a hash lookup
//! instead of a proof search. `ResourceOut` (including timed-out and
//! cancelled attempts) and `Crashed` outcomes are never cached: the
//! former is what the retry ladder exists to re-run, the latter says
//! nothing about the obligation.
//!
//! The cache is two-level:
//!
//! * an **in-memory map** behind a `RwLock`, shared by all workers of a
//!   parallel run (reads take the read lock; the map is tiny compared to
//!   a proof search, so contention is negligible);
//! * an optional **on-disk store** (`stqc --cache-dir DIR`): an
//!   append-only journal designed to survive crashes, torn writes, and
//!   concurrent writers.
//!
//! # The journal format (v2)
//!
//! The store file starts with a header line naming the format and the
//! [`PROVER_VERSION`]; every following line is one entry whose final
//! tab-separated field is the CRC-32 (IEEE) of everything before it:
//!
//! ```text
//! stq-proof-cache v2 stq-prover-0.1.0-r1
//! 00ab…ff\tP\t3f27ab90
//! 00cd…01\tR\tx = 1\u{1f}y = 0\t9c114e02
//! ```
//!
//! Crash safety rests on three mechanisms:
//!
//! * **Append-only persistence** — a run's fresh conclusive entries are
//!   appended, never rewritten, so a crash mid-persist can tear at most
//!   the journal's *tail*. On load, any line that fails to parse or
//!   fails its CRC is dropped and counted as an invalidation; every
//!   intact entry is kept. A torn tail therefore costs re-proving the
//!   torn entries, never a wrong verdict.
//! * **Atomic compaction** — when a load found anything untrustworthy
//!   (or the file is new/stale), the next [`ProofCache::persist`]
//!   rewrites the whole journal via a temp file + `rename`, so the store
//!   is only ever replaced by a fully formed file.
//! * **An advisory lock file** (`proofs.stqcache.lock`, `flock(2)` on
//!   Unix) — loading, appending, compacting, and tail-following all run
//!   under an exclusive lock, so two `stqc` processes sharing a
//!   `--cache-dir` serialize their writes instead of interleaving them.
//!   Entries the two runs both prove are simply appended twice; the
//!   journal's last-entry-wins load makes duplicates harmless (the
//!   prover is deterministic, so they are identical anyway).
//!
//! # Journal follow (shared warm cache)
//!
//! Long-lived processes sharing a `--cache-dir` (an HA daemon pool) do
//! not reload the whole journal per lookup. Instead the cache remembers
//! how far into the journal it has read (`{inode, offset}`); on an
//! in-memory **miss**, [`ProofCache::lookup`] re-scans the journal
//! *tail* — entries a peer appended since our last scan — and adopts
//! them before conceding the miss. A proof a peer process discharged
//! and persisted is therefore served warm here, counted in
//! [`ProofCache::follow_hits`] (and as a hit, not a miss). A cheap
//! `stat(2)` probe skips the lock and the read entirely when nothing
//! changed; an inode change (a peer compacted) or a shrink triggers a
//! full re-scan with the header re-verified; only complete,
//! newline-terminated lines are consumed, so a peer's in-flight append
//! is never half-read.
//!
//! A file whose header names a different [`PROVER_VERSION`] (or cannot
//! be parsed) is **ignored, not trusted**: its entries are counted as
//! invalidations and every obligation re-proves. Fingerprints embed the
//! version too, so even a hand-edited header cannot resurrect stale
//! entries.
//!
//! Persistence consults [`stq_logic::fault::next_io_write`], so tests
//! can inject full-disk and torn-write faults at specific write
//! operations and prove that neither poisons a verdict.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use stq_logic::fault::{self, IoFaultKind};
use stq_logic::solver::Outcome;
use stq_logic::{Fingerprint, PROVER_VERSION};
use stq_util::flock::FileLock;

/// The on-disk file name inside a `--cache-dir`.
pub const CACHE_FILE: &str = "proofs.stqcache";
/// The advisory lock file guarding the journal against concurrent
/// writers (see the module docs).
pub const LOCK_FILE: &str = "proofs.stqcache.lock";
/// The on-disk format version (independent of the prover version).
/// v2 = CRC-checked append-only journal; v1 files fail the header check
/// and are invalidated wholesale.
pub const FORMAT_VERSION: &str = "v2";

/// A cached conclusive proof outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedProof {
    /// The obligation was proved.
    Proved,
    /// The search saturated; the candidate countermodel is replayed so a
    /// cached refutation is as diagnosable as a fresh one.
    Refuted {
        /// Pretty-printed literals of the surviving assignment.
        model: Vec<String>,
    },
}

impl CachedProof {
    /// Extracts the cacheable part of an outcome, if it is conclusive.
    pub fn from_outcome(outcome: &Outcome) -> Option<CachedProof> {
        match outcome {
            Outcome::Proved { .. } => Some(CachedProof::Proved),
            Outcome::Refuted { model, .. } => Some(CachedProof::Refuted {
                model: model.clone(),
            }),
            Outcome::ResourceOut { .. } | Outcome::Crashed { .. } => None,
        }
    }
}

/// What [`ProofCache::persist`] actually did, for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersistOutcome {
    /// No fresh entries and nothing to repair: no write was performed.
    /// Counted in [`ProofCache::persist_skips`] when disk-backed.
    Skipped,
    /// This many fresh entries were appended to the journal.
    Appended(usize),
    /// The journal was rewritten atomically with this many entries
    /// (fresh store, stale/corrupt load, or an explicit
    /// [`ProofCache::compact`]).
    Compacted(usize),
}

/// The journal's health as observed at load time; decides whether the
/// next persist may append or must compact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DiskState {
    /// No store file existed (or the cache is in-memory).
    Fresh,
    /// Valid header, every entry intact: appends are safe.
    Clean,
    /// Stale header or at least one invalid entry: the next persist
    /// rewrites the file from scratch.
    Corrupt,
}

/// How far into the on-disk journal this cache has read: the file's
/// identity (inode on Unix) and the byte offset up to which entries have
/// been folded into the in-memory map. `offset == u64::MAX` marks a
/// journal we observed but refused to trust (stale header installed by a
/// peer) — every probe mismatches, so the header is re-checked until our
/// own persist compacts it away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct JournalPos {
    ino: u64,
    offset: u64,
}

/// A concurrent, optionally disk-backed map from obligation fingerprints
/// to conclusive proof outcomes. See the module docs for semantics.
#[derive(Debug)]
pub struct ProofCache {
    mem: RwLock<HashMap<Fingerprint, CachedProof>>,
    /// Entries recorded since the last successful persist, in record
    /// order — the journal's append batch.
    dirty: Mutex<Vec<(Fingerprint, CachedProof)>>,
    state: Mutex<DiskState>,
    /// Journal-follow cursor (see the module docs). Lock order: `pos`
    /// before the advisory file lock, never the reverse.
    pos: Mutex<JournalPos>,
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    follow_hits: AtomicU64,
    invalidations: AtomicU64,
    persist_skips: AtomicU64,
}

impl Default for ProofCache {
    fn default() -> ProofCache {
        ProofCache::in_memory()
    }
}

impl ProofCache {
    /// A purely in-memory cache (no disk backing).
    pub fn in_memory() -> ProofCache {
        ProofCache {
            mem: RwLock::new(HashMap::new()),
            dirty: Mutex::new(Vec::new()),
            state: Mutex::new(DiskState::Fresh),
            pos: Mutex::new(JournalPos::default()),
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            follow_hits: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            persist_skips: AtomicU64::new(0),
        }
    }

    /// A disk-backed cache rooted at `dir` (created if missing). Any
    /// existing journal is loaded now, under the advisory lock; entries
    /// from a different prover version, malformed lines, and CRC
    /// failures (torn tails) are dropped and counted as
    /// [`ProofCache::invalidations`].
    ///
    /// # Errors
    ///
    /// Only on filesystem errors (cannot create `dir`, cannot read an
    /// existing store, cannot take the lock). A *stale or corrupt* store
    /// is not an error — it is invalidated, which is the designed
    /// behaviour.
    pub fn at_dir(dir: impl AsRef<Path>) -> io::Result<ProofCache> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let cache = ProofCache {
            dir: Some(dir.clone()),
            ..ProofCache::in_memory()
        };
        let file = dir.join(CACHE_FILE);
        if file.exists() {
            let _lock = FileLock::exclusive(&dir.join(LOCK_FILE))?;
            let text = fs::read_to_string(&file)?;
            let meta = fs::metadata(&file)?;
            let state = cache.load_store(&text);
            *cache.state.lock().expect("state lock") = state;
            *cache.pos.lock().expect("pos lock") = JournalPos {
                ino: file_id(&meta),
                offset: text.len() as u64,
            };
        }
        Ok(cache)
    }

    /// Parses a journal into the in-memory map, invalidating anything
    /// untrustworthy, and reports the journal's health.
    fn load_store(&self, text: &str) -> DiskState {
        let mut lines = text.lines();
        let header_ok = lines.next().is_some_and(|header| {
            let mut parts = header.split(' ');
            parts.next() == Some("stq-proof-cache")
                && parts.next() == Some(FORMAT_VERSION)
                && parts.next() == Some(PROVER_VERSION)
                && parts.next().is_none()
        });
        if !header_ok {
            // Count what we refused to trust; `max(1)` so even an
            // entry-less stale (or zero-length) file registers as an
            // invalidation.
            let stale = text.lines().skip(1).filter(|l| !l.is_empty()).count() as u64;
            self.invalidations.fetch_add(stale.max(1), Ordering::Relaxed);
            return DiskState::Corrupt;
        }
        let mut corrupt = false;
        let mut map = self.mem.write().expect("cache lock");
        for line in lines {
            if line.is_empty() {
                continue;
            }
            match parse_entry(line) {
                Some((fp, proof)) => {
                    // Duplicates (concurrent writers, re-proved entries)
                    // resolve last-wins; the prover's determinism makes
                    // the values identical anyway.
                    map.insert(fp, proof);
                }
                None => {
                    // A torn tail, a flipped bit, a hand-edited line:
                    // drop exactly this entry, keep the rest.
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    corrupt = true;
                }
            }
        }
        if corrupt {
            DiskState::Corrupt
        } else {
            DiskState::Clean
        }
    }

    /// Looks up a fingerprint, counting the hit or miss. On an in-memory
    /// miss of a disk-backed cache, the journal tail is re-scanned first
    /// (see the module docs): a proof a peer process appended since our
    /// last scan is adopted and served as a hit — counted additionally
    /// in [`ProofCache::follow_hits`] — not conceded as a miss.
    pub fn lookup(&self, fp: Fingerprint) -> Option<CachedProof> {
        let found = self.mem.read().expect("cache lock").get(&fp).cloned();
        if let Some(proof) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(proof);
        }
        if self.dir.is_some() {
            // Look again even when this pass adopted nothing: a
            // concurrent lookup's pass may have adopted `fp` while this
            // one waited for the journal cursor.
            self.follow();
            let found = self.mem.read().expect("cache lock").get(&fp).cloned();
            if let Some(proof) = found {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.follow_hits.fetch_add(1, Ordering::Relaxed);
                return Some(proof);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The journal-follow pass: re-scans whatever a peer appended to the
    /// journal since our last scan and folds it into the in-memory map.
    /// Returns whether anything new was adopted. Never an error: a
    /// vanished file, a lock failure, or an untrusted journal simply
    /// declines to follow — the caller re-proves, which is always sound.
    fn follow(&self) -> bool {
        let Some(dir) = &self.dir else {
            return false;
        };
        if *self.state.lock().expect("state lock") == DiskState::Corrupt {
            // Our own load already distrusts this journal; adopting its
            // tail would resurrect what we invalidated.
            return false;
        }
        let file = dir.join(CACHE_FILE);
        let mut pos = self.pos.lock().expect("pos lock");
        // Cheap probe: same file, same length — nothing appended, no
        // lock taken, no bytes read.
        let Ok(meta) = fs::metadata(&file) else {
            return false;
        };
        if file_id(&meta) == pos.ino && meta.len() == pos.offset {
            return false;
        }
        let Ok(_lock) = FileLock::exclusive(&dir.join(LOCK_FILE)) else {
            return false;
        };
        // Re-read under the lock: the probe may have raced a compaction
        // rename, and an appender's partial flush is excluded by the
        // complete-lines-only rule in `fold_tail`.
        let Ok(text) = fs::read_to_string(&file) else {
            return false;
        };
        let Ok(meta) = fs::metadata(&file) else {
            return false;
        };
        let id = file_id(&meta);
        let rescan = id != pos.ino || (text.len() as u64) < pos.offset;
        if rescan && text.lines().next() != Some(current_header().as_str()) {
            // A peer installed a journal we must not trust (stale
            // prover version, foreign format). The MAX-offset sentinel
            // keeps the header re-checked on every miss until our own
            // persist compacts the file back to health.
            *pos = JournalPos { ino: id, offset: u64::MAX };
            return false;
        }
        self.fold_tail(&text, &mut pos, id) > 0
    }

    /// Folds the journal bytes beyond `pos` into the in-memory map,
    /// advancing the cursor past exactly the complete, newline-terminated
    /// lines consumed. Entries already known stay as they are (the
    /// prover is deterministic, so a duplicate is identical anyway);
    /// complete lines that fail to parse or fail their CRC are counted
    /// as invalidations and skipped. Returns how many entries were newly
    /// adopted. The caller holds the advisory lock and, when scanning
    /// from the top, has already verified the header.
    fn fold_tail(&self, text: &str, pos: &mut JournalPos, id: u64) -> usize {
        let rescan = id != pos.ino || (text.len() as u64) < pos.offset;
        let mut start = if rescan { 0 } else { pos.offset as usize };
        if start == 0 {
            match text.find('\n') {
                Some(nl) => start = nl + 1,
                None => {
                    *pos = JournalPos { ino: id, offset: 0 };
                    return 0;
                }
            }
        }
        let tail = &text[start..];
        let Some(last_nl) = tail.rfind('\n') else {
            *pos = JournalPos { ino: id, offset: start as u64 };
            return 0;
        };
        let mut adopted = 0;
        {
            let mut map = self.mem.write().expect("cache lock");
            for line in tail[..=last_nl].lines() {
                if line.is_empty() {
                    continue;
                }
                match parse_entry(line) {
                    Some((fp, proof)) => {
                        if map.insert(fp, proof.clone()) != Some(proof) {
                            adopted += 1;
                        }
                    }
                    None => {
                        self.invalidations.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        *pos = JournalPos {
            ino: id,
            offset: (start + last_nl + 1) as u64,
        };
        adopted
    }

    /// Records a conclusive outcome under `fp`, marking it dirty for the
    /// next [`ProofCache::persist`]. Inconclusive outcomes
    /// (`ResourceOut` — including timed-out and cancelled attempts — and
    /// `Crashed`) are ignored, which is what lets an interrupted run
    /// resume: unreached work was never cached, so it re-proves.
    pub fn record(&self, fp: Fingerprint, outcome: &Outcome) {
        if let Some(proof) = CachedProof::from_outcome(outcome) {
            let fresh = {
                let mut map = self.mem.write().expect("cache lock");
                map.insert(fp, proof.clone()) != Some(proof.clone())
            };
            if fresh {
                self.dirty
                    .lock()
                    .expect("dirty lock")
                    .push((fp, proof));
            }
        }
    }

    /// Flushes to disk, when this cache is disk-backed. Called at the
    /// end of a run — including an *interrupted* one, so conclusive
    /// outcomes survive a SIGINT. Under the advisory lock it either:
    ///
    /// * **skips** the write entirely (no fresh entries, journal clean —
    ///   counted in [`ProofCache::persist_skips`]),
    /// * **appends** the fresh entries to the journal, or
    /// * **compacts**: rewrites the whole journal atomically (temp
    ///   file plus rename), merging any entries a concurrent process
    ///   appended since our load, when the load found the file
    ///   missing, stale, or corrupt.
    ///
    /// # Errors
    ///
    /// Filesystem errors only (including injected I/O faults). On error
    /// the fresh entries stay dirty, so a later retry can still save
    /// them; an append that failed mid-write may leave a torn tail,
    /// which the next load recovers from by design.
    pub fn persist(&self) -> io::Result<PersistOutcome> {
        let Some(dir) = &self.dir else {
            return Ok(PersistOutcome::Skipped);
        };
        let mut dirty = self.dirty.lock().expect("dirty lock");
        let mut state = self.state.lock().expect("state lock");
        let file = dir.join(CACHE_FILE);
        // Appending assumes the journal on disk still has a valid
        // current header; if it vanished since load, fall back to a full
        // rewrite.
        let must_compact = *state != DiskState::Clean || !file.exists();
        if dirty.is_empty() && !must_compact {
            self.persist_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(PersistOutcome::Skipped);
        }
        if dirty.is_empty() && *state == DiskState::Fresh {
            // Nothing proved and nothing on disk to repair: writing a
            // header-only journal would be pure churn.
            self.persist_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(PersistOutcome::Skipped);
        }
        let mut pos = self.pos.lock().expect("pos lock");
        let _lock = FileLock::exclusive(&dir.join(LOCK_FILE))?;
        let outcome = if must_compact {
            self.compact_locked(dir, &mut pos)?
        } else {
            // The multi-writer append discipline: re-verify the header
            // *under the lock* (a peer may have replaced the journal
            // since our load), fold in whatever peers appended since our
            // last scan, and only then append our own batch.
            let text = fs::read_to_string(&file)?;
            if text.lines().next() != Some(current_header().as_str()) {
                self.compact_locked(dir, &mut pos)?
            } else {
                self.fold_tail(&text, &mut pos, file_id(&fs::metadata(&file)?));
                let mut out = String::new();
                for (fp, proof) in dirty.iter() {
                    out.push_str(&render_entry(*fp, proof));
                }
                let mut f = fs::OpenOptions::new().append(true).open(&file)?;
                faulted_write(&mut f, out.as_bytes())?;
                f.sync_all()?;
                // The append lands at the true end of file, which may
                // sit past the last complete line `fold_tail` stopped
                // at (a dead peer's torn fragment); skip straight over.
                pos.offset = (text.len() + out.len()) as u64;
                PersistOutcome::Appended(dirty.len())
            }
        };
        dirty.clear();
        *state = DiskState::Clean;
        Ok(outcome)
    }

    /// Rewrites the journal from the full in-memory map, atomically
    /// (temp file + rename), under the advisory lock. Entries appended
    /// by a concurrent process since our load are merged in rather than
    /// clobbered. Rarely needed directly — [`ProofCache::persist`]
    /// compacts on its own when the load found anything untrustworthy —
    /// but exposed for tooling that wants to repair or deduplicate a
    /// journal eagerly.
    ///
    /// # Errors
    ///
    /// Filesystem errors only.
    pub fn compact(&self) -> io::Result<PersistOutcome> {
        let Some(dir) = &self.dir else {
            return Ok(PersistOutcome::Skipped);
        };
        let mut dirty = self.dirty.lock().expect("dirty lock");
        let mut state = self.state.lock().expect("state lock");
        let mut pos = self.pos.lock().expect("pos lock");
        let _lock = FileLock::exclusive(&dir.join(LOCK_FILE))?;
        let outcome = self.compact_locked(dir, &mut pos)?;
        dirty.clear();
        *state = DiskState::Clean;
        Ok(outcome)
    }

    /// The compaction body; the caller holds the advisory lock.
    fn compact_locked(&self, dir: &Path, pos: &mut JournalPos) -> io::Result<PersistOutcome> {
        // Merge entries a concurrent writer appended since our load.
        // Only a current-header file contributes; a stale or corrupt
        // prefix was already invalidated at load time and new corruption
        // here would only double-count, so parse failures are skipped
        // silently.
        let file = dir.join(CACHE_FILE);
        let mut merged: HashMap<Fingerprint, CachedProof> = HashMap::new();
        if let Ok(text) = fs::read_to_string(&file) {
            let mut lines = text.lines();
            let current = lines.next().is_some_and(|h| h == current_header());
            if current {
                for line in lines {
                    if let Some((fp, proof)) = parse_entry(line) {
                        merged.insert(fp, proof);
                    }
                }
            }
        }
        {
            // Ours win over the disk's (identical anyway — the prover
            // is deterministic), and peer-only entries are adopted into
            // memory: the cursor jumps to the end of the compacted file
            // below, so this is their only chance to be followed.
            let mut map = self.mem.write().expect("cache lock");
            for (fp, proof) in map.iter() {
                merged.insert(*fp, proof.clone());
            }
            for (fp, proof) in merged.iter() {
                map.entry(*fp).or_insert_with(|| proof.clone());
            }
        }
        let mut entries: Vec<_> = merged.iter().collect();
        entries.sort_by_key(|(fp, _)| **fp);
        let mut out = format!("{}\n", current_header());
        for (fp, proof) in &entries {
            out.push_str(&render_entry(**fp, proof));
        }
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
        let write_result = (|| -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            faulted_write(&mut f, out.as_bytes())?;
            f.sync_all()
        })();
        if let Err(e) = write_result {
            // A torn or failed temp file must never replace the store.
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, &file)?;
        // The compacted file is entirely of our making: the follow
        // cursor jumps straight to its end.
        *pos = JournalPos {
            ino: fs::metadata(&file).map(|m| file_id(&m)).unwrap_or(0),
            offset: out.len() as u64,
        };
        Ok(PersistOutcome::Compacted(entries.len()))
    }

    /// Number of cached entries currently in memory.
    pub fn len(&self) -> usize {
        self.mem.read().expect("cache lock").len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits that were served by the journal-follow path: the entry was
    /// absent from memory but a peer process had appended it to the
    /// shared journal since our last scan. A subset of
    /// [`ProofCache::hits`].
    pub fn follow_hits(&self) -> u64 {
        self.follow_hits.load(Ordering::Relaxed)
    }

    /// Entries refused at load time (version/format mismatch, malformed
    /// lines, CRC failures from torn or corrupted writes).
    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    /// Persist calls that skipped the write because there was nothing
    /// new to save and nothing to repair.
    pub fn persist_skips(&self) -> u64 {
        self.persist_skips.load(Ordering::Relaxed)
    }

    /// Entries recorded since the last successful persist.
    pub fn dirty_len(&self) -> usize {
        self.dirty.lock().expect("dirty lock").len()
    }

    /// The backing directory, when disk-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

/// The exact header line a trustworthy journal must start with.
fn current_header() -> String {
    format!("stq-proof-cache {FORMAT_VERSION} {PROVER_VERSION}")
}

/// The file's identity for journal-follow: the inode on Unix (rename
/// changes it, append does not), a constant elsewhere (follow then
/// degrades to offset-only tracking, still never unsound).
#[cfg(unix)]
fn file_id(meta: &fs::Metadata) -> u64 {
    use std::os::unix::fs::MetadataExt;
    meta.ino()
}

#[cfg(not(unix))]
fn file_id(_meta: &fs::Metadata) -> u64 {
    0
}

/// Writes `bytes`, honouring any injected I/O fault scheduled for this
/// write operation: a full disk writes nothing, a torn write flushes
/// only a prefix; both then fail. See [`stq_logic::fault::IoFaultKind`].
fn faulted_write(f: &mut fs::File, bytes: &[u8]) -> io::Result<()> {
    match fault::next_io_write() {
        Some(IoFaultKind::FullDisk) => Err(io::Error::other("injected fault: disk full")),
        Some(IoFaultKind::TornWrite) => {
            f.write_all(&bytes[..bytes.len() / 2])?;
            f.sync_all()?;
            Err(io::Error::other("injected fault: torn write"))
        }
        None => f.write_all(bytes),
    }
}

/// Renders one journal line: tab-separated fields with a trailing CRC-32
/// of everything before it.
fn render_entry(fp: Fingerprint, proof: &CachedProof) -> String {
    let body = match proof {
        CachedProof::Proved => format!("{fp}\tP"),
        CachedProof::Refuted { model } => {
            let joined: Vec<String> = model.iter().map(|s| escape(s)).collect();
            format!("{fp}\tR\t{}", joined.join("\u{1f}"))
        }
    };
    format!("{body}\t{:08x}\n", crc32(body.as_bytes()))
}

fn parse_entry(line: &str) -> Option<(Fingerprint, CachedProof)> {
    // The CRC is the final tab-separated field; verify it before
    // trusting anything else on the line. A torn line loses (part of)
    // the CRC field, so it fails here.
    let (body, crc_hex) = line.rsplit_once('\t')?;
    if crc_hex.len() != 8 || u32::from_str_radix(crc_hex, 16).ok()? != crc32(body.as_bytes()) {
        return None;
    }
    let mut fields = body.split('\t');
    let fp: Fingerprint = fields.next()?.parse().ok()?;
    match fields.next()? {
        "P" => fields.next().is_none().then_some((fp, CachedProof::Proved)),
        "R" => {
            let payload = fields.next().unwrap_or("");
            let model = if payload.is_empty() {
                Vec::new()
            } else {
                payload.split('\u{1f}').map(unescape).collect()
            };
            fields
                .next()
                .is_none()
                .then_some((fp, CachedProof::Refuted { model }))
        }
        _ => None,
    }
}

// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven and computed at
// compile time — the registry is unreachable, so no `crc32fast` here.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Escapes a countermodel line for the single-line store format.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\u{1f}' => out.push_str("\\u"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('u') => out.push('\u{1f}'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stq_logic::fault::IoFaultPlan;
    use stq_logic::ProverStats;

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    fn proved() -> Outcome {
        Outcome::Proved {
            stats: ProverStats::default(),
        }
    }

    fn refuted(model: &[&str]) -> Outcome {
        Outcome::Refuted {
            model: model.iter().map(|s| s.to_string()).collect(),
            stats: ProverStats::default(),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("stq-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let c = ProofCache::in_memory();
        assert_eq!(c.lookup(fp(1)), None);
        c.record(fp(1), &proved());
        assert_eq!(c.lookup(fp(1)), Some(CachedProof::Proved));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn inconclusive_outcomes_are_never_cached() {
        let c = ProofCache::in_memory();
        for resource in [
            stq_logic::Resource::Rounds,
            stq_logic::Resource::Time,
            stq_logic::Resource::Cancelled,
        ] {
            c.record(
                fp(2),
                &Outcome::ResourceOut {
                    resource,
                    stats: ProverStats::default(),
                },
            );
        }
        c.record(
            fp(3),
            &Outcome::Crashed {
                message: "boom".into(),
                stats: ProverStats::default(),
            },
        );
        assert!(c.is_empty());
        assert_eq!(c.dirty_len(), 0);
    }

    #[test]
    fn disk_round_trip_preserves_entries_and_models() {
        let dir = tmpdir("roundtrip");
        let c = ProofCache::at_dir(&dir).unwrap();
        c.record(fp(10), &proved());
        c.record(fp(11), &refuted(&["x = 1", "weird\tmodel\nline \\ with \u{1f} bytes"]));
        c.persist().unwrap();

        let reloaded = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.invalidations(), 0);
        assert_eq!(reloaded.lookup(fp(10)), Some(CachedProof::Proved));
        match reloaded.lookup(fp(11)) {
            Some(CachedProof::Refuted { model }) => {
                assert_eq!(model[0], "x = 1");
                assert_eq!(model[1], "weird\tmodel\nline \\ with \u{1f} bytes");
            }
            other => panic!("expected refutation, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_prover_version_is_invalidated_not_trusted() {
        let dir = tmpdir("stale");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(CACHE_FILE),
            format!(
                "stq-proof-cache {FORMAT_VERSION} stq-prover-0.0.0-ancient\n\
                 {}\tP\n{}\tP\n",
                fp(7),
                fp(8)
            ),
        )
        .unwrap();
        let c = ProofCache::at_dir(&dir).unwrap();
        assert!(c.is_empty(), "stale entries must not load");
        assert_eq!(c.invalidations(), 2);
        assert_eq!(c.lookup(fp(7)), None, "stale entry is re-proved");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v1_format_files_are_invalidated_wholesale() {
        let dir = tmpdir("v1");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(CACHE_FILE),
            format!("stq-proof-cache v1 {PROVER_VERSION}\n{}\tP\n", fp(5)),
        )
        .unwrap();
        let c = ProofCache::at_dir(&dir).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.invalidations(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_lines_are_invalidated_individually() {
        let dir = tmpdir("malformed");
        fs::create_dir_all(&dir).unwrap();
        let good = render_entry(fp(20), &CachedProof::Proved);
        fs::write(
            dir.join(CACHE_FILE),
            format!(
                "stq-proof-cache {FORMAT_VERSION} {PROVER_VERSION}\n\
                 {good}not-hex\tP\tdeadbeef\n{}\tX\t00000000\n",
                fp(21)
            ),
        )
        .unwrap();
        let c = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(c.len(), 1, "the good entry survives");
        assert_eq!(c.invalidations(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_file_is_wholly_invalidated() {
        let dir = tmpdir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CACHE_FILE), "not a cache file at all\n").unwrap();
        let c = ProofCache::at_dir(&dir).unwrap();
        assert!(c.is_empty());
        assert!(c.invalidations() >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_length_file_counts_as_an_invalidation() {
        let dir = tmpdir("zerolen");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(CACHE_FILE), "").unwrap();
        let c = ProofCache::at_dir(&dir).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.invalidations(), 1);
        // The next persist repairs the file even with nothing new.
        assert!(matches!(c.persist(), Ok(PersistOutcome::Compacted(0))));
        let healed = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(healed.invalidations(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_final_entry_is_recovered_and_counted() {
        let dir = tmpdir("torn-tail");
        let c = ProofCache::at_dir(&dir).unwrap();
        c.record(fp(30), &proved());
        c.record(fp(31), &refuted(&["x = 1"]));
        c.persist().unwrap();
        // Tear the journal mid-way through its final entry, as a crash
        // or power loss during an append would.
        let file = dir.join(CACHE_FILE);
        let text = fs::read_to_string(&file).unwrap();
        let keep = text.len() - 5;
        fs::write(&file, &text.as_bytes()[..keep]).unwrap();

        let reloaded = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(reloaded.len(), 1, "intact prefix survives");
        assert_eq!(reloaded.invalidations(), 1, "the torn entry is counted");
        // The torn entry is a miss — re-proved, never guessed at.
        assert_eq!(reloaded.lookup(fp(31)), None);
        assert_eq!(reloaded.lookup(fp(30)), Some(CachedProof::Proved));
        // The next persist compacts the corruption away.
        reloaded.record(fp(31), &refuted(&["x = 1"]));
        assert!(matches!(
            reloaded.persist(),
            Ok(PersistOutcome::Compacted(2))
        ));
        let healed = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(healed.invalidations(), 0);
        assert_eq!(healed.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_crc_byte_invalidates_exactly_that_entry() {
        let dir = tmpdir("crc-flip");
        let c = ProofCache::at_dir(&dir).unwrap();
        c.record(fp(40), &proved());
        c.record(fp(41), &proved());
        c.persist().unwrap();
        let file = dir.join(CACHE_FILE);
        let text = fs::read_to_string(&file).unwrap();
        // Flip one hex digit of the first entry's CRC field.
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let entry = &mut lines[1];
        let crc_start = entry.rfind('\t').unwrap() + 1;
        let old = entry.as_bytes()[crc_start];
        let new = if old == b'0' { b'1' } else { b'0' };
        entry.replace_range(crc_start..crc_start + 1, std::str::from_utf8(&[new]).unwrap());
        fs::write(&file, lines.join("\n") + "\n").unwrap();

        let reloaded = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(reloaded.len(), 1, "only the flipped entry is dropped");
        assert_eq!(reloaded.invalidations(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_skips_when_nothing_is_dirty() {
        let dir = tmpdir("skip");
        let c = ProofCache::at_dir(&dir).unwrap();
        // Fresh dir, nothing proved: no file is written at all.
        assert!(matches!(c.persist(), Ok(PersistOutcome::Skipped)));
        assert_eq!(c.persist_skips(), 1);
        assert!(!dir.join(CACHE_FILE).exists());

        c.record(fp(50), &proved());
        assert!(matches!(c.persist(), Ok(PersistOutcome::Compacted(1))));
        // Nothing new since: the write is skipped, not repeated.
        assert!(matches!(c.persist(), Ok(PersistOutcome::Skipped)));
        assert_eq!(c.persist_skips(), 2);

        // A warm re-run (all hits, no fresh conclusions) also skips.
        let warm = ProofCache::at_dir(&dir).unwrap();
        assert!(warm.lookup(fp(50)).is_some());
        assert!(matches!(warm.persist(), Ok(PersistOutcome::Skipped)));
        assert_eq!(warm.persist_skips(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_entries_append_to_a_clean_journal() {
        let dir = tmpdir("append");
        let c = ProofCache::at_dir(&dir).unwrap();
        c.record(fp(60), &proved());
        c.persist().unwrap();

        let second = ProofCache::at_dir(&dir).unwrap();
        second.record(fp(61), &refuted(&["y = 0"]));
        assert!(matches!(second.persist(), Ok(PersistOutcome::Appended(1))));
        // Append means the first entry's bytes were not rewritten.
        let text = fs::read_to_string(dir.join(CACHE_FILE)).unwrap();
        assert_eq!(text.lines().count(), 3, "header + two entries");

        let reloaded = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.invalidations(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_full_disk_fails_cleanly_and_poisons_nothing() {
        let dir = tmpdir("fulldisk");
        let c = ProofCache::at_dir(&dir).unwrap();
        c.record(fp(70), &proved());
        c.persist().unwrap();

        let second = ProofCache::at_dir(&dir).unwrap();
        second.record(fp(71), &proved());
        fault::install_io(IoFaultPlan::new().inject(0, IoFaultKind::FullDisk));
        let err = second.persist().unwrap_err();
        fault::clear_io();
        assert!(err.to_string().contains("disk full"));
        // Nothing reached the file; the entry stays dirty and a retry
        // saves it.
        assert_eq!(second.dirty_len(), 1);
        let observer = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(observer.len(), 1);
        assert_eq!(observer.invalidations(), 0);
        assert!(matches!(second.persist(), Ok(PersistOutcome::Appended(1))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_append_recovers_to_the_valid_prefix() {
        let dir = tmpdir("torn-append");
        let c = ProofCache::at_dir(&dir).unwrap();
        c.record(fp(80), &proved());
        c.persist().unwrap();

        let second = ProofCache::at_dir(&dir).unwrap();
        second.record(fp(81), &refuted(&["a = 2", "b = 3"]));
        fault::install_io(IoFaultPlan::new().inject(0, IoFaultKind::TornWrite));
        assert!(second.persist().is_err());
        fault::clear_io();

        // The journal now has a torn tail; loading recovers the valid
        // prefix, counts the tear, and never serves a wrong verdict.
        let reloaded = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(reloaded.lookup(fp(80)), Some(CachedProof::Proved));
        assert_eq!(reloaded.lookup(fp(81)), None, "torn entry re-proves");
        assert_eq!(reloaded.invalidations(), 1);
        // And the recovered cache compacts the tear away on persist.
        reloaded.record(fp(81), &refuted(&["a = 2", "b = 3"]));
        assert!(matches!(
            reloaded.persist(),
            Ok(PersistOutcome::Compacted(2))
        ));
        let healed = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(healed.invalidations(), 0);
        assert_eq!(healed.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_compaction_never_replaces_the_store() {
        let dir = tmpdir("torn-compact");
        let c = ProofCache::at_dir(&dir).unwrap();
        c.record(fp(90), &proved());
        c.persist().unwrap();
        // Corrupt the file so the next persist must compact.
        let file = dir.join(CACHE_FILE);
        let mut text = fs::read_to_string(&file).unwrap();
        text.push_str("torn garbage");
        fs::write(&file, &text).unwrap();

        let second = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(second.invalidations(), 1);
        second.record(fp(91), &proved());
        fault::install_io(IoFaultPlan::new().inject(0, IoFaultKind::TornWrite));
        assert!(second.persist().is_err());
        fault::clear_io();
        // The torn temp file was discarded; the (corrupt but recoverable)
        // store is still exactly what it was.
        assert_eq!(fs::read_to_string(&file).unwrap(), text);
        assert!(matches!(second.persist(), Ok(PersistOutcome::Compacted(2))));
        let healed = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(healed.invalidations(), 0);
        assert_eq!(healed.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_concurrent_writers_never_interleave_entries() {
        let dir = tmpdir("contention");
        // Seed the journal so both writers run in append mode.
        let seed = ProofCache::at_dir(&dir).unwrap();
        seed.record(fp(0), &proved());
        seed.persist().unwrap();

        // Two independent cache instances (modelling two `stqc`
        // processes sharing --cache-dir) append batches of long entries
        // concurrently. The advisory lock must serialize the appends:
        // every line of the final journal parses, nothing interleaves.
        let model: Vec<&str> = vec!["some = countermodel", "with = several", "long = literals"];
        std::thread::scope(|s| {
            for writer in 0..2u128 {
                let dir = &dir;
                let model = &model;
                s.spawn(move || {
                    let c = ProofCache::at_dir(dir).unwrap();
                    for i in 0..25u128 {
                        c.record(fp(1000 + writer * 100 + i), &refuted(model));
                        c.persist().unwrap();
                    }
                });
            }
        });

        let merged = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(merged.invalidations(), 0, "no interleaved/torn lines");
        assert_eq!(merged.len(), 51, "both writers' entries all present");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follow_adopts_a_peer_appended_entry_as_a_warm_hit() {
        let dir = tmpdir("follow");
        // Both caches open the same (initially empty) dir, as two
        // daemons sharing --cache-dir do at startup.
        let a = ProofCache::at_dir(&dir).unwrap();
        let b = ProofCache::at_dir(&dir).unwrap();
        a.record(fp(100), &proved());
        a.record(fp(101), &refuted(&["m = 9"]));
        a.persist().unwrap();

        // b never saw these fingerprints: the in-memory miss re-scans
        // the journal tail and serves them warm.
        assert_eq!(b.lookup(fp(100)), Some(CachedProof::Proved));
        assert_eq!(b.lookup(fp(101)), Some(CachedProof::Refuted { model: vec!["m = 9".into()] }));
        assert_eq!(b.misses(), 0, "follow hits are hits, not misses");
        assert_eq!(b.hits(), 2);
        // One follow pass adopted the whole tail; the second lookup was
        // then an ordinary in-memory hit.
        assert_eq!(b.follow_hits(), 1);
        // A genuinely unknown fingerprint still misses (one stat probe,
        // nothing adopted).
        assert_eq!(b.lookup(fp(102)), None);
        assert_eq!(b.misses(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_misses_hit_what_another_lookup_followed() {
        let dir = tmpdir("follow-concurrent");
        let a = ProofCache::at_dir(&dir).unwrap();
        let b = ProofCache::at_dir(&dir).unwrap();
        for n in 0..64 {
            a.record(fp(200 + n), &proved());
        }
        a.persist().unwrap();

        // Eight threads miss in memory at once; one follow pass adopts
        // the whole tail while the others wait for the cursor, and those
        // must still find their entries rather than re-prove them.
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (b, start) = (&b, &start);
                s.spawn(move || {
                    start.wait();
                    for n in 0..8 {
                        assert_eq!(b.lookup(fp(200 + t * 8 + n)), Some(CachedProof::Proved));
                    }
                });
            }
        });
        assert_eq!((b.hits(), b.misses()), (64, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follow_survives_a_peer_compaction_rename() {
        let dir = tmpdir("follow-compact");
        let a = ProofCache::at_dir(&dir).unwrap();
        a.record(fp(110), &proved());
        a.persist().unwrap();

        let b = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(b.lookup(fp(110)), Some(CachedProof::Proved));

        // Peer a records a fresh entry and compacts: everything lands
        // in a brand-new file (new inode). b's cursor points into the
        // old inode; the follow must detect the rename and re-scan from
        // the top.
        a.record(fp(111), &proved());
        a.compact().unwrap();
        assert_eq!(b.lookup(fp(111)), Some(CachedProof::Proved));
        assert!(b.follow_hits() >= 1);
        assert_eq!(b.misses(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follow_never_adopts_an_incomplete_tail_line() {
        let dir = tmpdir("follow-torn");
        let a = ProofCache::at_dir(&dir).unwrap();
        a.record(fp(120), &proved());
        a.persist().unwrap();
        let b = ProofCache::at_dir(&dir).unwrap();

        // A peer crashes mid-append: the tail has no trailing newline.
        let file = dir.join(CACHE_FILE);
        let entry = render_entry(fp(121), &CachedProof::Proved);
        let torn = &entry[..entry.len() - 3];
        fs::OpenOptions::new()
            .append(true)
            .open(&file)
            .unwrap()
            .write_all(torn.as_bytes())
            .unwrap();
        assert_eq!(b.lookup(fp(121)), None, "incomplete line is not consumed");
        assert_eq!(b.follow_hits(), 0);

        // The line completes later (here: a second append finishing the
        // entry); only now is it adopted.
        fs::OpenOptions::new()
            .append(true)
            .open(&file)
            .unwrap()
            .write_all(&entry.as_bytes()[entry.len() - 3..])
            .unwrap();
        assert_eq!(b.lookup(fp(121)), Some(CachedProof::Proved));
        assert_eq!(b.follow_hits(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn follow_refuses_a_journal_swapped_for_a_stale_version() {
        let dir = tmpdir("follow-stale");
        let a = ProofCache::at_dir(&dir).unwrap();
        a.record(fp(130), &proved());
        a.persist().unwrap();
        let b = ProofCache::at_dir(&dir).unwrap();

        // Replace the journal wholesale with a stale-prover file whose
        // entries must not be trusted. rename gives it a new inode, so
        // the follow re-scans — and must refuse the header.
        let file = dir.join(CACHE_FILE);
        let evil = dir.join("evil");
        fs::write(
            &evil,
            format!(
                "stq-proof-cache {FORMAT_VERSION} stq-prover-0.0.0-ancient\n{}",
                render_entry(fp(131), &CachedProof::Proved)
            ),
        )
        .unwrap();
        fs::rename(&evil, &file).unwrap();
        assert_eq!(b.lookup(fp(131)), None);
        assert_eq!(b.follow_hits(), 0);
        // b's own persist compacts the distrusted file back to health.
        b.record(fp(132), &proved());
        b.persist().unwrap();
        let healed = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(healed.lookup(fp(131)), None, "stale entry stays dead");
        assert_eq!(healed.lookup(fp(132)), Some(CachedProof::Proved));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_under_lock_folds_peer_entries_before_writing() {
        let dir = tmpdir("append-fold");
        let seed = ProofCache::at_dir(&dir).unwrap();
        seed.record(fp(140), &proved());
        seed.persist().unwrap();

        // Two clean-loaded caches append in turn; each append must fold
        // the other's entries rather than losing track of the journal.
        let a = ProofCache::at_dir(&dir).unwrap();
        let b = ProofCache::at_dir(&dir).unwrap();
        a.record(fp(141), &proved());
        a.persist().unwrap();
        b.record(fp(142), &proved());
        b.persist().unwrap();
        // b's persist folded a's entry on the way through.
        assert_eq!(b.lookup(fp(141)), Some(CachedProof::Proved));
        assert_eq!(b.misses(), 0);

        let merged = ProofCache::at_dir(&dir).unwrap();
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.invalidations(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_without_dir_is_a_no_op() {
        let c = ProofCache::in_memory();
        c.record(fp(1), &proved());
        assert!(matches!(c.persist(), Ok(PersistOutcome::Skipped)));
        assert_eq!(c.persist_skips(), 0, "in-memory skips are not counted");
        assert!(c.dir().is_none());
    }

    #[test]
    fn escape_unescape_round_trips() {
        for s in ["plain", "tab\there", "nl\nthere", "back\\slash", "\u{1f}sep"] {
            assert_eq!(unescape(&escape(s)), s);
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn render_parse_round_trips_and_crc_guards_the_body() {
        let entry = render_entry(fp(7), &CachedProof::Refuted { model: vec!["m".into()] });
        let line = entry.trim_end();
        let (got_fp, got) = parse_entry(line).expect("round trip");
        assert_eq!(got_fp, fp(7));
        assert_eq!(got, CachedProof::Refuted { model: vec!["m".into()] });
        // Any body mutation breaks the CRC.
        let tampered = line.replacen('R', "P", 1);
        assert_eq!(parse_entry(&tampered), None);
    }
}

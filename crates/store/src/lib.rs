//! `powerplay-store` — the durable, revisioned, multi-user design store.
//!
//! The 1996 PowerPlay persisted "the individual user's defaults" as
//! flat files; this crate is its production-grade replacement, the
//! storage layer a shared exploration server needs once many users
//! mutate designs concurrently over HTTP:
//!
//! * **Write-ahead log per user** — every save/delete is one
//!   length+CRC32-framed record appended to `<root>/<user>/wal.log` and
//!   fsynced before the call returns ([`wal`]). A crash can lose at
//!   most the record being written; it can never corrupt committed
//!   state.
//! * **Crash recovery** — opening a user's shard replays the WAL over
//!   the last snapshot and truncates any torn tail (partial header,
//!   partial payload, or checksum mismatch), counting the repair in
//!   `powerplay_store_recoveries_total`.
//! * **Revisions + optimistic concurrency** — each design carries a
//!   monotonic revision number. [`DesignStore::save`] takes the
//!   revision the writer *expects* to replace and fails with
//!   [`StoreError::Conflict`] on mismatch, so two racing editors can
//!   never silently overwrite each other. A bounded history of past
//!   revisions supports listing and [`DesignStore::rollback`].
//! * **Snapshot compaction** — once a WAL passes a size threshold its
//!   state is folded into `snapshot.json` (written to a temp file,
//!   fsynced, atomically renamed) and the log is truncated, on a
//!   background thread by default.
//!
//! Reads are served from the in-memory shard state (the WAL replay
//! result), so a load is a reference-count bump — this is the
//! `(user, name, rev)` read cache the web layer's revision-based ETags
//! (`"{rev}"`) and plan cache key off.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use parking_lot::{Mutex, RwLock};
use powerplay_json::Json;
use powerplay_sheet::Sheet;

mod obs;
pub mod wal;

use obs::metrics;

/// Error produced by the design store.
#[derive(Debug)]
pub enum StoreError {
    /// Usernames are path components; only `[a-zA-Z0-9_-]{1,32}` is safe.
    InvalidUsername(String),
    /// Design names share the same restriction.
    InvalidDesignName(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// A snapshot, WAL record, or legacy design file failed to decode.
    Corrupt(String),
    /// Optimistic-concurrency failure: the design's current revision is
    /// not the one the writer expected to replace.
    Conflict {
        /// The design being saved.
        design: String,
        /// The revision the writer presented.
        expected: u64,
        /// The revision actually current in the store.
        actual: u64,
    },
    /// The design does not exist (operations that need one, e.g.
    /// rollback; plain loads report absence as `Ok(None)`).
    NotFound {
        /// The missing design.
        design: String,
    },
    /// The requested revision is not in the design's bounded history.
    UnknownRevision {
        /// The design.
        design: String,
        /// The revision asked for.
        rev: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidUsername(u) => write!(f, "invalid username `{u}`"),
            StoreError::InvalidDesignName(d) => write!(f, "invalid design name `{d}`"),
            StoreError::Io(e) => write!(f, "storage error: {e}"),
            StoreError::Corrupt(what) => write!(f, "corrupt store data: {what}"),
            StoreError::Conflict {
                design,
                expected,
                actual,
            } => write!(
                f,
                "revision conflict on `{design}`: expected {expected}, store is at {actual}"
            ),
            StoreError::NotFound { design } => write!(f, "no design `{design}`"),
            StoreError::UnknownRevision { design, rev } => {
                write!(f, "design `{design}` has no revision {rev} in its history")
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// A committed mutation, as delivered to the registered change hook.
///
/// Borrowed views into the committing shard's state: the hook runs
/// *inside* the shard's write lock, immediately after the WAL fsync, so
/// observers see changes in exactly commit order with no gaps.
#[derive(Debug)]
pub enum StoreChange<'a> {
    /// A design gained a new revision (save, rollback, or v1 PUT).
    Saved {
        /// The shard owner.
        user: &'a str,
        /// The design name.
        design: &'a str,
        /// The newly committed revision.
        rev: u64,
        /// The committed content.
        sheet: &'a Arc<Sheet>,
    },
    /// A design's whole history was erased.
    Deleted {
        /// The shard owner.
        user: &'a str,
        /// The design name.
        design: &'a str,
        /// The last revision it held before erasure.
        rev: u64,
    },
}

/// Observer invoked for every committed design mutation.
///
/// Runs on the committing thread with the shard write lock held: it
/// must be quick and must **not** call back into the store (self
/// deadlock). WAL replay and legacy import never fire it — only live
/// mutations after [`DesignStore::set_change_hook`].
pub type ChangeHook = Arc<dyn Fn(&StoreChange<'_>) + Send + Sync>;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 32
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Tuning knobs for [`DesignStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Past revisions kept per design (the current one included).
    pub history_limit: usize,
    /// WAL size past which a snapshot compaction is triggered.
    pub compact_threshold_bytes: u64,
    /// Run threshold-triggered compactions on a background thread
    /// (`true`, the default) or inline on the committing call (`false`,
    /// deterministic — for tests).
    pub background_compaction: bool,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            history_limit: 16,
            compact_threshold_bytes: 1024 * 1024,
            background_compaction: true,
        }
    }
}

/// One design's bounded revision history, oldest first.
#[derive(Debug, Clone)]
struct DesignRecord {
    revisions: Vec<(u64, Arc<Sheet>)>,
}

impl DesignRecord {
    fn current(&self) -> u64 {
        self.revisions.last().map_or(0, |(rev, _)| *rev)
    }
}

/// A design name with its current revision, from [`DesignStore::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSummary {
    /// The design name.
    pub name: String,
    /// Its current revision.
    pub rev: u64,
    /// How many revisions the bounded history currently holds.
    pub revisions: usize,
}

/// One document's bounded revision history, oldest first. Documents are
/// arbitrary JSON values sharing the designs' WAL/snapshot machinery —
/// the persistence substrate for imported cell libraries and other
/// non-sheet artifacts.
#[derive(Debug, Clone)]
struct DocRecord {
    revisions: Vec<(u64, Arc<Json>)>,
}

impl DocRecord {
    fn current(&self) -> u64 {
        self.revisions.last().map_or(0, |(rev, _)| *rev)
    }
}

/// A document name with its current revision, from
/// [`DesignStore::list_docs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocSummary {
    /// The document name.
    pub name: String,
    /// Its current revision.
    pub rev: u64,
    /// How many revisions the bounded history currently holds.
    pub revisions: usize,
}

struct ShardState {
    wal: File,
    wal_bytes: u64,
    designs: BTreeMap<String, DesignRecord>,
    /// Last revision of deleted designs, so a re-created name keeps a
    /// monotonic revision number (and revision-based ETags stay unique).
    erased: BTreeMap<String, u64>,
    /// Revisioned JSON documents, keyed by name like designs.
    docs: BTreeMap<String, DocRecord>,
    /// Last revision of deleted documents (same monotonicity guarantee).
    erased_docs: BTreeMap<String, u64>,
}

/// One user's designs: in-memory state plus the WAL handle.
struct Shard {
    dir: PathBuf,
    user: String,
    config: StoreConfig,
    compacting: AtomicBool,
    state: RwLock<ShardState>,
    /// Shared with the owning store; a hook registered after open is
    /// seen by every shard, including ones opened earlier.
    hook: Arc<RwLock<Option<ChangeHook>>>,
}

/// A durable, revisioned store of per-user designs.
///
/// One process must own a store directory at a time; shards are opened
/// lazily per user and held for the store's lifetime.
pub struct DesignStore {
    root: PathBuf,
    config: StoreConfig,
    shards: Mutex<BTreeMap<String, Arc<Shard>>>,
    hook: Arc<RwLock<Option<ChangeHook>>>,
}

impl DesignStore {
    /// Opens (creating if needed) a store rooted at `root` with default
    /// tuning.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<DesignStore, StoreError> {
        Self::open_with(root, StoreConfig::default())
    }

    /// Opens a store with explicit [`StoreConfig`] tuning.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory cannot be created.
    pub fn open_with(
        root: impl Into<PathBuf>,
        config: StoreConfig,
    ) -> Result<DesignStore, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DesignStore {
            root,
            config,
            shards: Mutex::new(BTreeMap::new()),
            hook: Arc::new(RwLock::new(None)),
        })
    }

    /// The storage root (for diagnostics).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Registers the change hook observing every committed design
    /// mutation (see [`ChangeHook`] for the calling contract). Replaces
    /// any previous hook. Register *after* open: recovery replay and
    /// legacy import never notify, so the hook only sees live traffic.
    pub fn set_change_hook(&self, hook: ChangeHook) {
        *self.hook.write() = Some(hook);
    }

    /// The shard for `user`, opening (and recovering) it on first
    /// touch. With `create == false` a user with no on-disk presence is
    /// `Ok(None)` and nothing is created.
    fn shard(&self, user: &str, create: bool) -> Result<Option<Arc<Shard>>, StoreError> {
        if !valid_name(user) {
            return Err(StoreError::InvalidUsername(user.to_owned()));
        }
        let mut shards = self.shards.lock();
        if let Some(shard) = shards.get(user) {
            return Ok(Some(Arc::clone(shard)));
        }
        let dir = self.root.join(user);
        if !create && !dir.exists() {
            return Ok(None);
        }
        let shard = Shard::open(
            dir,
            user.to_owned(),
            self.config.clone(),
            Arc::clone(&self.hook),
        )?;
        shards.insert(user.to_owned(), Arc::clone(&shard));
        Ok(Some(shard))
    }

    /// Saves a design, creating revision `current + 1`.
    ///
    /// `expected` is the optimistic-concurrency guard: `Some(rev)`
    /// requires the design's current revision to be exactly `rev`
    /// (`Some(0)` = "must not exist yet"); `None` saves
    /// unconditionally. Returns the new revision. The store keeps the
    /// sheet it is handed: the change hook and later loads see this
    /// `Arc`, not a copy.
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] on a revision mismatch, plus the usual
    /// name/I/O errors. The commit is on stable storage when this
    /// returns `Ok`.
    pub fn save(
        &self,
        user: &str,
        design: &str,
        sheet: Arc<Sheet>,
        expected: Option<u64>,
    ) -> Result<u64, StoreError> {
        let shard = self
            .shard(user, true)?
            .expect("create=true always yields a shard");
        shard.save(design, sheet, expected)
    }

    /// Loads a design's current revision as `(rev, sheet)`. A missing
    /// design (or unknown user) is `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid names or shard-open failure.
    pub fn load(&self, user: &str, design: &str) -> Result<Option<(u64, Arc<Sheet>)>, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            return Ok(None);
        };
        if !valid_name(design) {
            return Err(StoreError::InvalidDesignName(design.to_owned()));
        }
        let state = shard.state.read();
        Ok(state.designs.get(design).and_then(|d| {
            d.revisions
                .last()
                .map(|(rev, sheet)| (*rev, Arc::clone(sheet)))
        }))
    }

    /// Loads a specific revision from a design's bounded history.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid names or shard-open failure; a
    /// missing design or revision is `Ok(None)`.
    pub fn load_rev(
        &self,
        user: &str,
        design: &str,
        rev: u64,
    ) -> Result<Option<Arc<Sheet>>, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            return Ok(None);
        };
        if !valid_name(design) {
            return Err(StoreError::InvalidDesignName(design.to_owned()));
        }
        let state = shard.state.read();
        Ok(state.designs.get(design).and_then(|d| {
            d.revisions
                .iter()
                .find(|(r, _)| *r == rev)
                .map(|(_, sheet)| Arc::clone(sheet))
        }))
    }

    /// The design's current revision, `0` if it does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid names or shard-open failure.
    pub fn current_rev(&self, user: &str, design: &str) -> Result<u64, StoreError> {
        Ok(self.load(user, design)?.map_or(0, |(rev, _)| rev))
    }

    /// The revisions held for a design, newest first. `Ok(None)` if the
    /// design does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid names or shard-open failure.
    pub fn revisions(&self, user: &str, design: &str) -> Result<Option<Vec<u64>>, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            return Ok(None);
        };
        if !valid_name(design) {
            return Err(StoreError::InvalidDesignName(design.to_owned()));
        }
        let state = shard.state.read();
        Ok(state.designs.get(design).map(|d| {
            let mut revs: Vec<u64> = d.revisions.iter().map(|(r, _)| *r).collect();
            revs.reverse();
            revs
        }))
    }

    /// Like [`Self::revisions`], but paired with the design's *floor*:
    /// the greatest revision number that once existed but is no longer
    /// retained (`0` when the full history survives). Trimming and
    /// delete-then-recreate both raise the floor, so clients can tell a
    /// short history from a truncated one.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid names or shard-open failure.
    pub fn revision_history(
        &self,
        user: &str,
        design: &str,
    ) -> Result<Option<(Vec<u64>, u64)>, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            return Ok(None);
        };
        if !valid_name(design) {
            return Err(StoreError::InvalidDesignName(design.to_owned()));
        }
        let state = shard.state.read();
        Ok(state.designs.get(design).map(|d| {
            let floor = d.revisions.first().map_or(0, |(r, _)| r.saturating_sub(1));
            let mut revs: Vec<u64> = d.revisions.iter().map(|(r, _)| *r).collect();
            revs.reverse();
            (revs, floor)
        }))
    }

    /// Re-commits a past revision's content as a *new* revision (the
    /// history is append-only; rollback never rewrites it). `expected`
    /// guards like [`Self::save`]. Returns the new revision.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for a missing design,
    /// [`StoreError::UnknownRevision`] if `rev` fell out of the bounded
    /// history, [`StoreError::Conflict`] on an `expected` mismatch.
    pub fn rollback(
        &self,
        user: &str,
        design: &str,
        rev: u64,
        expected: Option<u64>,
    ) -> Result<u64, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            return Err(StoreError::NotFound {
                design: design.to_owned(),
            });
        };
        if !valid_name(design) {
            return Err(StoreError::InvalidDesignName(design.to_owned()));
        }
        shard.rollback(design, rev, expected)
    }

    /// Lists a user's designs with their current revisions (empty for
    /// unknown users).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid usernames or shard-open failure.
    pub fn list(&self, user: &str) -> Result<Vec<DesignSummary>, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            return Ok(Vec::new());
        };
        let state = shard.state.read();
        Ok(state
            .designs
            .iter()
            .map(|(name, d)| DesignSummary {
                name: name.clone(),
                rev: d.current(),
                revisions: d.revisions.len(),
            })
            .collect())
    }

    /// Every user with on-disk state, sorted.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the root cannot be read.
    pub fn users(&self) -> Result<Vec<String>, StoreError> {
        let mut users = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                if let Some(name) = entry.file_name().to_str() {
                    users.push(name.to_owned());
                }
            }
        }
        users.sort();
        Ok(users)
    }

    /// Deletes a design (its whole history). Returns whether it
    /// existed; deleting a missing design is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid names or I/O failure.
    pub fn delete(&self, user: &str, design: &str) -> Result<bool, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            if !valid_name(design) {
                return Err(StoreError::InvalidDesignName(design.to_owned()));
            }
            return Ok(false);
        };
        shard.delete(design)
    }

    /// Saves a revisioned JSON document, creating revision `current + 1`.
    /// Documents share the designs' durability machinery (WAL commit,
    /// snapshot compaction, crash recovery) but hold arbitrary JSON —
    /// imported cell libraries live here. `expected` guards exactly like
    /// [`Self::save`]. Returns the new revision.
    ///
    /// # Errors
    ///
    /// [`StoreError::Conflict`] on a revision mismatch, plus the usual
    /// name/I/O errors.
    pub fn save_doc(
        &self,
        user: &str,
        name: &str,
        body: &Json,
        expected: Option<u64>,
    ) -> Result<u64, StoreError> {
        let shard = self
            .shard(user, true)?
            .expect("create=true always yields a shard");
        shard.save_doc(name, body, expected)
    }

    /// Loads a document's current revision as `(rev, body)`. A missing
    /// document (or unknown user) is `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid names or shard-open failure.
    pub fn load_doc(&self, user: &str, name: &str) -> Result<Option<(u64, Arc<Json>)>, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            return Ok(None);
        };
        if !valid_name(name) {
            return Err(StoreError::InvalidDesignName(name.to_owned()));
        }
        let state = shard.state.read();
        Ok(state.docs.get(name).and_then(|d| {
            d.revisions
                .last()
                .map(|(rev, body)| (*rev, Arc::clone(body)))
        }))
    }

    /// Lists a user's documents with their current revisions (empty for
    /// unknown users).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid usernames or shard-open failure.
    pub fn list_docs(&self, user: &str) -> Result<Vec<DocSummary>, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            return Ok(Vec::new());
        };
        let state = shard.state.read();
        Ok(state
            .docs
            .iter()
            .map(|(name, d)| DocSummary {
                name: name.clone(),
                rev: d.current(),
                revisions: d.revisions.len(),
            })
            .collect())
    }

    /// Deletes a document (its whole history). Returns whether it
    /// existed; deleting a missing document is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid names or I/O failure.
    pub fn delete_doc(&self, user: &str, name: &str) -> Result<bool, StoreError> {
        let Some(shard) = self.shard(user, false)? else {
            if !valid_name(name) {
                return Err(StoreError::InvalidDesignName(name.to_owned()));
            }
            return Ok(false);
        };
        shard.delete_doc(name)
    }

    /// Bytes currently in `user`'s WAL (0 for unknown users).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid usernames or shard-open failure.
    pub fn wal_bytes(&self, user: &str) -> Result<u64, StoreError> {
        Ok(self
            .shard(user, false)?
            .map_or(0, |s| s.state.read().wal_bytes))
    }

    /// Folds `user`'s WAL into a snapshot right now, synchronously
    /// (threshold-triggered compactions normally do this in the
    /// background).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on invalid usernames or I/O failure; a
    /// user with no state is a no-op.
    pub fn compact_now(&self, user: &str) -> Result<(), StoreError> {
        if let Some(shard) = self.shard(user, false)? {
            shard.compact()?;
        }
        Ok(())
    }
}

impl Shard {
    fn open(
        dir: PathBuf,
        user: String,
        config: StoreConfig,
        hook: Arc<RwLock<Option<ChangeHook>>>,
    ) -> Result<Arc<Shard>, StoreError> {
        fs::create_dir_all(&dir)?;
        let wal_path = dir.join("wal.log");
        let snapshot_path = dir.join("snapshot.json");
        let had_wal = wal_path.exists();
        let had_snapshot = snapshot_path.exists();

        let mut shard_data = ShardData::default();
        if had_snapshot {
            let text = fs::read_to_string(&snapshot_path)?;
            let json =
                Json::parse(&text).map_err(|e| StoreError::Corrupt(format!("snapshot: {e}")))?;
            load_snapshot(&json, &config, &mut shard_data)?;
        }

        // Replay the WAL over the snapshot, dropping any torn tail.
        let image = if had_wal {
            fs::read(&wal_path)?
        } else {
            Vec::new()
        };
        let scan = wal::scan(&image);
        for payload in &scan.records {
            apply_record(payload, &config, &mut shard_data)?;
        }
        if scan.torn {
            let repair = OpenOptions::new().write(true).open(&wal_path)?;
            repair.set_len(scan.valid_len)?;
            repair.sync_data()?;
            metrics().recoveries.inc();
        }

        let wal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)?;
        metrics().wal_bytes.add(scan.valid_len as i64);
        let shard = Arc::new(Shard {
            dir,
            user,
            config,
            compacting: AtomicBool::new(false),
            state: RwLock::new(ShardState {
                wal,
                wal_bytes: scan.valid_len,
                designs: shard_data.designs,
                erased: shard_data.erased,
                docs: shard_data.docs,
                erased_docs: shard_data.erased_docs,
            }),
            hook,
        });

        // First open over a pre-revision data directory: import the
        // legacy flat `<design>.json` files as revision 1, through the
        // WAL so they are durable in the new format immediately.
        if !had_wal && !had_snapshot {
            shard.import_legacy()?;
        }
        Ok(shard)
    }

    fn import_legacy(self: &Arc<Self>) -> Result<(), StoreError> {
        let mut legacy = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(design) = name.to_str().and_then(|n| n.strip_suffix(".json")) else {
                continue;
            };
            if design == "snapshot" || !valid_name(design) {
                continue;
            }
            legacy.push((design.to_owned(), entry.path()));
        }
        legacy.sort();
        for (design, path) in legacy {
            let text = fs::read_to_string(&path)?;
            let json = Json::parse(&text)
                .map_err(|e| StoreError::Corrupt(format!("legacy design `{design}`: {e}")))?;
            let sheet = Sheet::from_json(&json)
                .map_err(|e| StoreError::Corrupt(format!("legacy design `{design}`: {e}")))?;
            // Import is recovery, not live traffic: never notify.
            self.save_inner(&design, Arc::new(sheet), None, false)?;
        }
        Ok(())
    }

    fn save(
        self: &Arc<Self>,
        design: &str,
        sheet: Arc<Sheet>,
        expected: Option<u64>,
    ) -> Result<u64, StoreError> {
        self.save_inner(design, sheet, expected, true)
    }

    fn save_inner(
        self: &Arc<Self>,
        design: &str,
        sheet: Arc<Sheet>,
        expected: Option<u64>,
        notify: bool,
    ) -> Result<u64, StoreError> {
        if !valid_name(design) {
            return Err(StoreError::InvalidDesignName(design.to_owned()));
        }
        let over_threshold;
        let rev;
        {
            let mut state = self.state.write();
            let current = state.designs.get(design).map_or(0, DesignRecord::current);
            if let Some(exp) = expected {
                if exp != current {
                    return Err(StoreError::Conflict {
                        design: design.to_owned(),
                        expected: exp,
                        actual: current,
                    });
                }
            }
            let base = current.max(state.erased.get(design).copied().unwrap_or(0));
            rev = base + 1;
            let payload = Json::object([
                ("op", Json::from("save")),
                ("design", Json::from(design)),
                ("rev", Json::from(rev as f64)),
                ("sheet", sheet.to_json()),
            ])
            .to_string();
            self.commit(&mut state, payload.as_bytes())?;
            let record = state
                .designs
                .entry(design.to_owned())
                .or_insert_with(|| DesignRecord {
                    revisions: Vec::new(),
                });
            record.revisions.push((rev, Arc::clone(&sheet)));
            trim_history(record, self.config.history_limit);
            state.erased.remove(design);
            over_threshold = state.wal_bytes > self.config.compact_threshold_bytes;
            if notify {
                // Still under the write lock: observers see saves in
                // exactly commit order.
                let hook = self.hook.read().clone();
                if let Some(hook) = hook {
                    hook(&StoreChange::Saved {
                        user: &self.user,
                        design,
                        rev,
                        sheet: &sheet,
                    });
                }
            }
        }
        if over_threshold {
            self.maybe_compact();
        }
        Ok(rev)
    }

    fn save_doc(
        self: &Arc<Self>,
        name: &str,
        body: &Json,
        expected: Option<u64>,
    ) -> Result<u64, StoreError> {
        if !valid_name(name) {
            return Err(StoreError::InvalidDesignName(name.to_owned()));
        }
        let over_threshold;
        let rev;
        {
            let mut state = self.state.write();
            let current = state.docs.get(name).map_or(0, DocRecord::current);
            if let Some(exp) = expected {
                if exp != current {
                    return Err(StoreError::Conflict {
                        design: name.to_owned(),
                        expected: exp,
                        actual: current,
                    });
                }
            }
            let base = current.max(state.erased_docs.get(name).copied().unwrap_or(0));
            rev = base + 1;
            let payload = Json::object([
                ("op", Json::from("doc_save")),
                ("doc", Json::from(name)),
                ("rev", Json::from(rev as f64)),
                ("body", body.clone()),
            ])
            .to_string();
            self.commit(&mut state, payload.as_bytes())?;
            let record = state
                .docs
                .entry(name.to_owned())
                .or_insert_with(|| DocRecord {
                    revisions: Vec::new(),
                });
            record.revisions.push((rev, Arc::new(body.clone())));
            trim_revisions(&mut record.revisions, self.config.history_limit);
            state.erased_docs.remove(name);
            over_threshold = state.wal_bytes > self.config.compact_threshold_bytes;
        }
        if over_threshold {
            self.maybe_compact();
        }
        Ok(rev)
    }

    fn delete_doc(&self, name: &str) -> Result<bool, StoreError> {
        if !valid_name(name) {
            return Err(StoreError::InvalidDesignName(name.to_owned()));
        }
        let mut state = self.state.write();
        let Some(record) = state.docs.get(name) else {
            return Ok(false);
        };
        let rev = record.current();
        let payload = Json::object([
            ("op", Json::from("doc_delete")),
            ("doc", Json::from(name)),
            ("rev", Json::from(rev as f64)),
        ])
        .to_string();
        self.commit(&mut state, payload.as_bytes())?;
        state.docs.remove(name);
        state.erased_docs.insert(name.to_owned(), rev);
        Ok(true)
    }

    fn delete(&self, design: &str) -> Result<bool, StoreError> {
        if !valid_name(design) {
            return Err(StoreError::InvalidDesignName(design.to_owned()));
        }
        let mut state = self.state.write();
        let Some(record) = state.designs.get(design) else {
            return Ok(false);
        };
        let rev = record.current();
        let payload = Json::object([
            ("op", Json::from("delete")),
            ("design", Json::from(design)),
            ("rev", Json::from(rev as f64)),
        ])
        .to_string();
        self.commit(&mut state, payload.as_bytes())?;
        state.designs.remove(design);
        state.erased.insert(design.to_owned(), rev);
        let hook = self.hook.read().clone();
        if let Some(hook) = hook {
            hook(&StoreChange::Deleted {
                user: &self.user,
                design,
                rev,
            });
        }
        Ok(true)
    }

    fn rollback(
        self: &Arc<Self>,
        design: &str,
        rev: u64,
        expected: Option<u64>,
    ) -> Result<u64, StoreError> {
        // Take the target revision under the read lock, then go through
        // the ordinary save path (which re-checks `expected` under the
        // write lock, so the guard cannot be raced).
        let sheet = {
            let state = self.state.read();
            let record = state
                .designs
                .get(design)
                .ok_or_else(|| StoreError::NotFound {
                    design: design.to_owned(),
                })?;
            let found = record.revisions.iter().find(|(r, _)| *r == rev);
            Arc::clone(
                &found
                    .ok_or(StoreError::UnknownRevision {
                        design: design.to_owned(),
                        rev,
                    })?
                    .1,
            )
        };
        self.save(design, sheet, expected)
    }

    /// Appends one framed record to the WAL and fsyncs it — the commit
    /// point. Called with the state write lock held.
    fn commit(&self, state: &mut ShardState, payload: &[u8]) -> Result<(), StoreError> {
        let m = metrics();
        let timer = m.commit_seconds.start_timer();
        let added = wal::append_record(&mut state.wal, payload)?;
        timer.stop();
        m.commits.inc();
        state.wal_bytes += added;
        m.wal_bytes.add(added as i64);
        Ok(())
    }

    /// Triggers one compaction if none is in flight, in the background
    /// when configured.
    fn maybe_compact(self: &Arc<Self>) {
        if self.compacting.swap(true, Ordering::SeqCst) {
            return;
        }
        if self.config.background_compaction {
            let shard = Arc::clone(self);
            thread::spawn(move || {
                let _ = shard.compact_locked();
                shard.compacting.store(false, Ordering::SeqCst);
            });
        } else {
            let _ = self.compact_locked();
            self.compacting.store(false, Ordering::SeqCst);
        }
    }

    fn compact(&self) -> Result<(), StoreError> {
        self.compact_locked()
    }

    /// Folds in-memory state into `snapshot.json` (temp file + fsync +
    /// atomic rename), then truncates the WAL. Crash-ordering: the WAL
    /// only shrinks *after* the snapshot is durably in place, so every
    /// committed revision is always recoverable from snapshot + WAL.
    fn compact_locked(&self) -> Result<(), StoreError> {
        let mut state = self.state.write();
        let snapshot = snapshot_json(&state).to_string();
        let tmp_path = self.dir.join("snapshot.json.tmp");
        let snapshot_path = self.dir.join("snapshot.json");
        {
            let mut tmp = File::create(&tmp_path)?;
            use std::io::Write;
            tmp.write_all(snapshot.as_bytes())?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &snapshot_path)?;
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all(); // durability of the rename; best-effort
        }
        state.wal.set_len(0)?;
        state.wal.sync_data()?;
        metrics().wal_bytes.sub(state.wal_bytes as i64);
        state.wal_bytes = 0;
        metrics().compactions.inc();
        Ok(())
    }
}

/// The replayable shard content (everything but the WAL handle), as
/// rebuilt from snapshot + WAL on open.
#[derive(Default)]
struct ShardData {
    designs: BTreeMap<String, DesignRecord>,
    erased: BTreeMap<String, u64>,
    docs: BTreeMap<String, DocRecord>,
    erased_docs: BTreeMap<String, u64>,
}

fn trim_revisions<T>(revisions: &mut Vec<(u64, T)>, limit: usize) {
    let limit = limit.max(1);
    if revisions.len() > limit {
        let drop = revisions.len() - limit;
        revisions.drain(..drop);
    }
}

fn trim_history(record: &mut DesignRecord, limit: usize) {
    trim_revisions(&mut record.revisions, limit);
}

fn rev_of(json: &Json, what: &str) -> Result<u64, StoreError> {
    json.get("rev")
        .and_then(Json::as_f64)
        .filter(|r| *r >= 0.0)
        .map(|r| r as u64)
        .ok_or_else(|| StoreError::Corrupt(format!("{what}: missing revision")))
}

/// Applies one CRC-verified WAL record to in-memory state.
fn apply_record(
    payload: &[u8],
    config: &StoreConfig,
    data: &mut ShardData,
) -> Result<(), StoreError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| StoreError::Corrupt("wal record is not UTF-8".into()))?;
    let json = Json::parse(text).map_err(|e| StoreError::Corrupt(format!("wal record: {e}")))?;
    let rev = rev_of(&json, "wal record")?;
    let name_field = |field: &str| -> Result<String, StoreError> {
        json.get(field)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| StoreError::Corrupt(format!("wal record: missing {field}")))
    };
    match json.get("op").and_then(Json::as_str) {
        Some("save") => {
            let design = name_field("design")?;
            let sheet_json = json
                .get("sheet")
                .ok_or_else(|| StoreError::Corrupt("wal save record: missing sheet".into()))?;
            let sheet = Sheet::from_json(sheet_json)
                .map_err(|e| StoreError::Corrupt(format!("wal save record: {e}")))?;
            let record = data
                .designs
                .entry(design.clone())
                .or_insert_with(|| DesignRecord {
                    revisions: Vec::new(),
                });
            record.revisions.push((rev, Arc::new(sheet)));
            trim_history(record, config.history_limit);
            data.erased.remove(&design);
        }
        Some("delete") => {
            let design = name_field("design")?;
            data.designs.remove(&design);
            data.erased.insert(design, rev);
        }
        Some("doc_save") => {
            let doc = name_field("doc")?;
            let body = json
                .get("body")
                .ok_or_else(|| StoreError::Corrupt("wal doc_save record: missing body".into()))?;
            let record = data.docs.entry(doc.clone()).or_insert_with(|| DocRecord {
                revisions: Vec::new(),
            });
            record.revisions.push((rev, Arc::new(body.clone())));
            trim_revisions(&mut record.revisions, config.history_limit);
            data.erased_docs.remove(&doc);
        }
        Some("doc_delete") => {
            let doc = name_field("doc")?;
            data.docs.remove(&doc);
            data.erased_docs.insert(doc, rev);
        }
        other => {
            return Err(StoreError::Corrupt(format!(
                "wal record: unknown op {other:?}"
            )))
        }
    }
    Ok(())
}

fn snapshot_json(state: &ShardState) -> Json {
    let designs: Json = state
        .designs
        .iter()
        .map(|(name, record)| {
            let revisions: Json = record
                .revisions
                .iter()
                .map(|(rev, sheet)| {
                    Json::object([("rev", Json::from(*rev as f64)), ("sheet", sheet.to_json())])
                })
                .collect();
            Json::object([
                ("name", Json::from(name.as_str())),
                ("revisions", revisions),
            ])
        })
        .collect();
    let erased_json = |map: &BTreeMap<String, u64>| -> Json {
        map.iter()
            .map(|(name, rev)| {
                Json::object([
                    ("name", Json::from(name.as_str())),
                    ("rev", Json::from(*rev as f64)),
                ])
            })
            .collect()
    };
    let docs: Json = state
        .docs
        .iter()
        .map(|(name, record)| {
            let revisions: Json = record
                .revisions
                .iter()
                .map(|(rev, body)| {
                    Json::object([("rev", Json::from(*rev as f64)), ("body", (**body).clone())])
                })
                .collect();
            Json::object([
                ("name", Json::from(name.as_str())),
                ("revisions", revisions),
            ])
        })
        .collect();
    Json::object([
        ("version", Json::from(1.0)),
        ("designs", designs),
        ("erased", erased_json(&state.erased)),
        ("docs", docs),
        ("erased_docs", erased_json(&state.erased_docs)),
    ])
}

fn load_snapshot(
    json: &Json,
    config: &StoreConfig,
    data: &mut ShardData,
) -> Result<(), StoreError> {
    let listed = json
        .get("designs")
        .and_then(Json::as_array)
        .ok_or_else(|| StoreError::Corrupt("snapshot: missing designs".into()))?;
    for entry in listed {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| StoreError::Corrupt("snapshot design: missing name".into()))?
            .to_owned();
        let revisions = entry
            .get("revisions")
            .and_then(Json::as_array)
            .ok_or_else(|| StoreError::Corrupt("snapshot design: missing revisions".into()))?;
        let mut record = DesignRecord {
            revisions: Vec::new(),
        };
        for revision in revisions {
            let rev = rev_of(revision, "snapshot revision")?;
            let sheet_json = revision
                .get("sheet")
                .ok_or_else(|| StoreError::Corrupt("snapshot revision: missing sheet".into()))?;
            let sheet = Sheet::from_json(sheet_json)
                .map_err(|e| StoreError::Corrupt(format!("snapshot revision: {e}")))?;
            record.revisions.push((rev, Arc::new(sheet)));
        }
        trim_history(&mut record, config.history_limit);
        data.designs.insert(name, record);
    }
    // `docs`/`erased*` sections are optional so snapshots written before
    // the document store (and the erased map) still load.
    for entry in json.get("docs").and_then(Json::as_array).unwrap_or(&[]) {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| StoreError::Corrupt("snapshot doc: missing name".into()))?
            .to_owned();
        let revisions = entry
            .get("revisions")
            .and_then(Json::as_array)
            .ok_or_else(|| StoreError::Corrupt("snapshot doc: missing revisions".into()))?;
        let mut record = DocRecord {
            revisions: Vec::new(),
        };
        for revision in revisions {
            let rev = rev_of(revision, "snapshot doc revision")?;
            let body = revision
                .get("body")
                .ok_or_else(|| StoreError::Corrupt("snapshot doc revision: missing body".into()))?;
            record.revisions.push((rev, Arc::new(body.clone())));
        }
        trim_revisions(&mut record.revisions, config.history_limit);
        data.docs.insert(name, record);
    }
    for (section, map) in [
        ("erased", &mut data.erased),
        ("erased_docs", &mut data.erased_docs),
    ] {
        for entry in json.get(section).and_then(Json::as_array).unwrap_or(&[]) {
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| StoreError::Corrupt(format!("snapshot {section}: missing name")))?;
            map.insert(name.to_owned(), rev_of(entry, "snapshot erased")?);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("powerplay-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn store(tag: &str) -> DesignStore {
        DesignStore::open(temp_root(tag)).unwrap()
    }

    fn shared(vdd: &str) -> Arc<Sheet> {
        Arc::new(sheet(vdd))
    }

    fn sheet(vdd: &str) -> Sheet {
        let mut sheet = Sheet::new("Luminance");
        sheet.set_global("vdd", vdd).unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("LUT", "ucb/sram", [("words", "4096"), ("bits", "6")])
            .unwrap();
        sheet
    }

    #[test]
    fn save_load_roundtrip_with_revisions() {
        let store = store("roundtrip");
        assert_eq!(store.save("alice", "lum", shared("1.5"), None).unwrap(), 1);
        assert_eq!(store.save("alice", "lum", shared("1.2"), None).unwrap(), 2);
        let (rev, loaded) = store.load("alice", "lum").unwrap().unwrap();
        assert_eq!(rev, 2);
        assert_eq!(*loaded, sheet("1.2"));
        assert_eq!(
            *store.load_rev("alice", "lum", 1).unwrap().unwrap(),
            sheet("1.5")
        );
        assert_eq!(store.revisions("alice", "lum").unwrap().unwrap(), [2, 1]);

        // Cold reopen over the same directory replays the WAL.
        let cold = DesignStore::open(store.root().to_owned()).unwrap();
        let (rev, loaded) = cold.load("alice", "lum").unwrap().unwrap();
        assert_eq!(rev, 2);
        assert_eq!(*loaded, sheet("1.2"));
        assert_eq!(cold.revisions("alice", "lum").unwrap().unwrap(), [2, 1]);
    }

    #[test]
    fn optimistic_concurrency_conflicts() {
        let store = store("occ");
        assert_eq!(store.save("a", "d", shared("1.5"), Some(0)).unwrap(), 1);
        // Re-create with must-not-exist fails.
        let err = store.save("a", "d", shared("1.5"), Some(0)).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Conflict {
                expected: 0,
                actual: 1,
                ..
            }
        ));
        // Save against the right revision wins, a stale one loses.
        assert_eq!(store.save("a", "d", shared("1.2"), Some(1)).unwrap(), 2);
        assert!(matches!(
            store.save("a", "d", shared("0.9"), Some(1)),
            Err(StoreError::Conflict {
                expected: 1,
                actual: 2,
                ..
            })
        ));
    }

    #[test]
    fn missing_design_is_none() {
        let store = store("missing");
        assert!(store.load("alice", "nothing").unwrap().is_none());
        assert_eq!(store.current_rev("alice", "nothing").unwrap(), 0);
        assert!(store.revisions("alice", "nothing").unwrap().is_none());
        // Reads must not create user directories.
        assert!(!store.root().join("alice").exists());
    }

    #[test]
    fn listing_and_deletion_keep_revisions_monotonic() {
        let store = store("list");
        store.save("bob", "a", shared("1.5"), None).unwrap();
        store.save("bob", "a", shared("1.2"), None).unwrap();
        store.save("bob", "b", shared("1.5"), None).unwrap();
        let listed = store.list("bob").unwrap();
        assert_eq!(
            listed,
            vec![
                DesignSummary {
                    name: "a".into(),
                    rev: 2,
                    revisions: 2
                },
                DesignSummary {
                    name: "b".into(),
                    rev: 1,
                    revisions: 1
                },
            ]
        );
        assert!(store.list("nobody").unwrap().is_empty());

        assert!(store.delete("bob", "a").unwrap());
        assert!(!store.delete("bob", "a").unwrap()); // idempotent
        assert!(store.load("bob", "a").unwrap().is_none());
        // A re-created design continues the revision sequence, so
        // revision-based ETags can never collide across a delete.
        assert_eq!(store.save("bob", "a", shared("0.9"), Some(0)).unwrap(), 3);

        // ... including across a reopen.
        let cold = DesignStore::open(store.root().to_owned()).unwrap();
        assert_eq!(cold.current_rev("bob", "a").unwrap(), 3);
    }

    #[test]
    fn rollback_appends_a_new_revision() {
        let store = store("rollback");
        store.save("a", "d", shared("1.5"), None).unwrap();
        store.save("a", "d", shared("3.0"), None).unwrap();
        let rev = store.rollback("a", "d", 1, Some(2)).unwrap();
        assert_eq!(rev, 3);
        let (_, loaded) = store.load("a", "d").unwrap().unwrap();
        assert_eq!(*loaded, sheet("1.5"));
        assert_eq!(store.revisions("a", "d").unwrap().unwrap(), [3, 2, 1]);

        assert!(matches!(
            store.rollback("a", "d", 99, None),
            Err(StoreError::UnknownRevision { rev: 99, .. })
        ));
        assert!(matches!(
            store.rollback("a", "nope", 1, None),
            Err(StoreError::NotFound { .. })
        ));
    }

    #[test]
    fn history_is_bounded() {
        let config = StoreConfig {
            history_limit: 3,
            ..StoreConfig::default()
        };
        let store = DesignStore::open_with(temp_root("bounded"), config).unwrap();
        for i in 0..10 {
            store
                .save("a", "d", shared(&format!("1.{i}")), None)
                .unwrap();
        }
        assert_eq!(store.revisions("a", "d").unwrap().unwrap(), [10, 9, 8]);
        assert!(store.load_rev("a", "d", 1).unwrap().is_none());
        assert!(store.load_rev("a", "d", 9).unwrap().is_some());
    }

    #[test]
    fn compaction_preserves_state_and_truncates_wal() {
        let store = store("compact");
        store.save("a", "d", shared("1.5"), None).unwrap();
        store.save("a", "d", shared("1.2"), None).unwrap();
        store.save("a", "gone", shared("1.0"), None).unwrap();
        store.delete("a", "gone").unwrap();
        assert!(store.wal_bytes("a").unwrap() > 0);

        store.compact_now("a").unwrap();
        assert_eq!(store.wal_bytes("a").unwrap(), 0);
        assert!(store.root().join("a/snapshot.json").exists());

        // Warm state unchanged.
        assert_eq!(store.revisions("a", "d").unwrap().unwrap(), [2, 1]);
        // Cold reopen restores from the snapshot alone...
        let cold = DesignStore::open(store.root().to_owned()).unwrap();
        assert_eq!(cold.revisions("a", "d").unwrap().unwrap(), [2, 1]);
        assert_eq!(*cold.load_rev("a", "d", 1).unwrap().unwrap(), sheet("1.5"));
        // ...including the erased-name floor.
        assert_eq!(cold.save("a", "gone", shared("2.0"), Some(0)).unwrap(), 2);
    }

    #[test]
    fn threshold_triggers_inline_compaction() {
        let config = StoreConfig {
            compact_threshold_bytes: 1, // every commit crosses it
            background_compaction: false,
            ..StoreConfig::default()
        };
        let store = DesignStore::open_with(temp_root("threshold"), config).unwrap();
        store.save("a", "d", shared("1.5"), None).unwrap();
        assert_eq!(store.wal_bytes("a").unwrap(), 0, "compacted inline");
        assert!(store.root().join("a/snapshot.json").exists());
        let cold = DesignStore::open(store.root().to_owned()).unwrap();
        assert_eq!(cold.current_rev("a", "d").unwrap(), 1);
    }

    #[test]
    fn torn_tail_is_dropped_on_reopen() {
        let root = temp_root("torn");
        {
            let store = DesignStore::open(root.clone()).unwrap();
            store.save("a", "d", shared("1.5"), None).unwrap();
            store.save("a", "d", shared("1.2"), None).unwrap();
        }
        // Tear the log mid-record: chop 3 bytes off the tail.
        let wal_path = root.join("a/wal.log");
        let len = fs::metadata(&wal_path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&wal_path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let store = DesignStore::open(root).unwrap();
        let (rev, loaded) = store.load("a", "d").unwrap().unwrap();
        assert_eq!(rev, 1, "the torn second commit is gone");
        assert_eq!(*loaded, sheet("1.5"));
        // The tail was truncated away on disk, and the log accepts new
        // commits cleanly.
        assert_eq!(store.save("a", "d", shared("0.9"), Some(1)).unwrap(), 2);
    }

    #[test]
    fn garbage_appended_to_wal_is_dropped() {
        let root = temp_root("garbage");
        {
            let store = DesignStore::open(root.clone()).unwrap();
            store.save("a", "d", shared("1.5"), None).unwrap();
        }
        use std::io::Write;
        let mut f = OpenOptions::new()
            .append(true)
            .open(root.join("a/wal.log"))
            .unwrap();
        f.write_all(&[0x40, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef])
            .unwrap();
        drop(f);
        let store = DesignStore::open(root).unwrap();
        assert_eq!(store.current_rev("a", "d").unwrap(), 1);
    }

    #[test]
    fn legacy_flat_files_are_imported_as_revision_one() {
        let root = temp_root("legacy");
        fs::create_dir_all(root.join("alice")).unwrap();
        fs::write(
            root.join("alice/old.json"),
            sheet("1.5").to_json().to_pretty(),
        )
        .unwrap();
        let store = DesignStore::open(root.clone()).unwrap();
        let (rev, loaded) = store.load("alice", "old").unwrap().unwrap();
        assert_eq!(rev, 1);
        assert_eq!(*loaded, sheet("1.5"));
        // The import is durable in the new format.
        assert!(root.join("alice/wal.log").exists());
    }

    #[test]
    fn corrupt_legacy_files_are_reported() {
        let root = temp_root("corrupt-legacy");
        fs::create_dir_all(root.join("carol")).unwrap();
        fs::write(root.join("carol/d.json"), "{nonsense").unwrap();
        let store = DesignStore::open(root).unwrap();
        assert!(matches!(
            store.load("carol", "d"),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn path_traversal_is_rejected() {
        let store = store("traversal");
        let s = sheet("1.5");
        for bad in [
            "../../etc/passwd",
            "a/b",
            "",
            "x".repeat(64).as_str(),
            "a b",
        ] {
            assert!(
                matches!(
                    store.save(bad, "d", Arc::new(s.clone()), None),
                    Err(StoreError::InvalidUsername(_))
                ),
                "accepted username {bad:?}"
            );
            assert!(
                matches!(
                    store.save("alice", bad, Arc::new(s.clone()), None),
                    Err(StoreError::InvalidDesignName(_))
                ),
                "accepted design {bad:?}"
            );
            assert!(matches!(
                store.load(bad, "d"),
                Err(StoreError::InvalidUsername(_))
            ));
        }
    }

    fn doc(tag: &str) -> Json {
        Json::object([("kind", Json::from("library")), ("tag", Json::from(tag))])
    }

    #[test]
    fn doc_roundtrip_survives_reopen_and_compaction() {
        let store = store("docs");
        assert_eq!(
            store
                .save_doc("_libs", "gscl", &doc("v1"), Some(0))
                .unwrap(),
            1
        );
        assert_eq!(
            store
                .save_doc("_libs", "gscl", &doc("v2"), Some(1))
                .unwrap(),
            2
        );
        let (rev, body) = store.load_doc("_libs", "gscl").unwrap().unwrap();
        assert_eq!(rev, 2);
        assert_eq!(*body, doc("v2"));
        assert!(matches!(
            store.save_doc("_libs", "gscl", &doc("v3"), Some(1)),
            Err(StoreError::Conflict { .. })
        ));

        // Designs and docs coexist in one shard.
        store.save("_libs", "design", shared("1.5"), None).unwrap();
        let listed = store.list_docs("_libs").unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "gscl");
        assert_eq!(listed[0].rev, 2);

        // WAL replay on a cold reopen restores both.
        let cold = DesignStore::open(store.root().to_owned()).unwrap();
        let (rev, body) = cold.load_doc("_libs", "gscl").unwrap().unwrap();
        assert_eq!((rev, &*body), (2, &doc("v2")));
        assert_eq!(cold.current_rev("_libs", "design").unwrap(), 1);

        // Snapshot compaction keeps docs too.
        cold.compact_now("_libs").unwrap();
        assert_eq!(cold.wal_bytes("_libs").unwrap(), 0);
        let colder = DesignStore::open(store.root().to_owned()).unwrap();
        let (rev, body) = colder.load_doc("_libs", "gscl").unwrap().unwrap();
        assert_eq!((rev, &*body), (2, &doc("v2")));
    }

    #[test]
    fn doc_deletion_keeps_revisions_monotonic() {
        let store = store("doc-del");
        store.save_doc("u", "lib", &doc("a"), None).unwrap();
        assert!(store.delete_doc("u", "lib").unwrap());
        assert!(!store.delete_doc("u", "lib").unwrap());
        assert!(store.load_doc("u", "lib").unwrap().is_none());
        assert_eq!(store.save_doc("u", "lib", &doc("b"), Some(0)).unwrap(), 2);
        let cold = DesignStore::open(store.root().to_owned()).unwrap();
        assert_eq!(cold.load_doc("u", "lib").unwrap().unwrap().0, 2);
    }

    #[test]
    fn pre_doc_snapshots_still_load() {
        // A snapshot written before the document store had no `docs`
        // section; opening over one must not fail.
        let root = temp_root("old-snap");
        fs::create_dir_all(root.join("a")).unwrap();
        let old = Json::object([
            ("version", Json::from(1.0)),
            ("designs", Json::array([])),
            ("erased", Json::array([])),
        ]);
        fs::write(root.join("a/snapshot.json"), old.to_string()).unwrap();
        let store = DesignStore::open(root).unwrap();
        assert!(store.list_docs("a").unwrap().is_empty());
        assert!(store.list("a").unwrap().is_empty());
    }

    #[test]
    fn users_lists_on_disk_shards() {
        let store = store("users");
        store.save("alice", "d", shared("1.5"), None).unwrap();
        store.save("bob", "d", shared("1.5"), None).unwrap();
        assert_eq!(store.users().unwrap(), ["alice", "bob"]);
    }

    #[test]
    fn the_store_keeps_the_sheet_it_is_handed() {
        let store = store("keep");
        let seen: Arc<Mutex<Vec<Arc<Sheet>>>> = Arc::default();
        let log = Arc::clone(&seen);
        store.set_change_hook(Arc::new(move |change| {
            if let StoreChange::Saved { sheet, .. } = change {
                log.lock().push(Arc::clone(sheet));
            }
        }));
        let handed = shared("1.5");
        store.save("a", "d", Arc::clone(&handed), None).unwrap();
        let (_, loaded) = store.load("a", "d").unwrap().unwrap();
        assert!(Arc::ptr_eq(&loaded, &handed));
        // A rollback commits the stored revision's own `Arc`.
        store.save("a", "d", shared("1.2"), None).unwrap();
        store.rollback("a", "d", 1, None).unwrap();
        let (_, rolled_back) = store.load("a", "d").unwrap().unwrap();
        assert!(Arc::ptr_eq(&rolled_back, &handed));
        let seen = seen.lock();
        assert_eq!(seen.len(), 3);
        assert!(Arc::ptr_eq(&seen[0], &handed));
        assert!(Arc::ptr_eq(&seen[2], &handed));
    }

    #[test]
    fn change_hook_sees_commits_in_order() {
        let store = store("hook");
        store.save("alice", "d", shared("1.5"), None).unwrap();

        let seen: Arc<Mutex<Vec<String>>> = Arc::default();
        let log = Arc::clone(&seen);
        store.set_change_hook(Arc::new(move |change| {
            let line = match change {
                StoreChange::Saved {
                    user, design, rev, ..
                } => format!("save {user}/{design}@{rev}"),
                StoreChange::Deleted { user, design, rev } => {
                    format!("delete {user}/{design}@{rev}")
                }
            };
            log.lock().push(line);
        }));

        store.save("alice", "d", shared("1.2"), None).unwrap();
        store.rollback("alice", "d", 1, Some(2)).unwrap();
        store.save("bob", "d", shared("0.9"), None).unwrap(); // new shard sees the shared hook
        store.delete("alice", "d").unwrap();
        assert_eq!(
            *seen.lock(),
            [
                "save alice/d@2",
                "save alice/d@3",
                "save bob/d@1",
                "delete alice/d@3",
            ]
        );

        // Recovery replay on a cold reopen must not notify.
        seen.lock().clear();
        let cold = DesignStore::open(store.root().to_owned()).unwrap();
        assert_eq!(cold.current_rev("bob", "d").unwrap(), 1);
        assert!(seen.lock().is_empty());
    }

    #[test]
    fn revision_floor_tracks_trimming_and_deletes() {
        let store = DesignStore::open_with(
            temp_root("floor"),
            StoreConfig {
                history_limit: 3,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        assert!(store.revision_history("u", "d").unwrap().is_none());

        store.save("u", "d", shared("1.5"), None).unwrap();
        store.save("u", "d", shared("1.2"), None).unwrap();
        // Full history retained: floor 0 means "nothing was ever lost".
        assert_eq!(
            store.revision_history("u", "d").unwrap().unwrap(),
            (vec![2, 1], 0)
        );

        store.save("u", "d", shared("1.0"), None).unwrap();
        store.save("u", "d", shared("0.9"), None).unwrap();
        store.save("u", "d", shared("0.8"), None).unwrap();
        // history_limit 3 keeps [3, 4, 5]; revisions 1..=2 were trimmed.
        assert_eq!(
            store.revision_history("u", "d").unwrap().unwrap(),
            (vec![5, 4, 3], 2)
        );

        // Delete then recreate: the erased floor (5) carries over, so
        // the fresh single-revision history reports floor 5, not 0.
        store.delete("u", "d").unwrap();
        assert!(store.revision_history("u", "d").unwrap().is_none());
        assert_eq!(store.save("u", "d", shared("0.7"), Some(0)).unwrap(), 6);
        assert_eq!(
            store.revision_history("u", "d").unwrap().unwrap(),
            (vec![6], 5)
        );
    }
}

//! The persistent, content-addressed artifact store.
//!
//! The in-memory [`ArtifactCache`](crate::ArtifactCache) dies with its
//! process; a server restarted between identical request mixes would pay
//! every compile again.  The `DiskStore` persists compiled artifacts
//! sccache-style — one file per
//! [`CompileRequest::key`](crate::CompileRequest::key) — and is consulted
//! between the memory cache and a fresh compile by
//! [`compile_stored`](crate::compile_stored).
//!
//! # File format (`{request_key:016x}.psba`)
//!
//! ```text
//!   magic        "PSBA"                          4 bytes
//!   version      u32 LE (currently 1)
//!   request_key  u64 LE
//!   content_hash u64 LE
//!   payload_len  u64 LE
//!   payload      edge profile + VLIW program     (codec below)
//!   checksum     u64 LE, FNV-1a over the payload bytes only
//! ```
//!
//! The payload carries only the two inputs that are expensive to
//! reproduce — the training [`EdgeProfile`] and the scheduled
//! [`VliwProgram`].  Everything else re-derives on load: the decoded
//! issue arena (`DecodedProgram::decode`), the static [`ScheduleStats`],
//! and the branch count.  Stage wall timings are zeroed — a disk hit did
//! no compile work.  The header fields are not under the checksum; each
//! is checked on its own below.
//!
//! # Validation-on-load and invalidation
//!
//! A load is accepted only if the magic/version match, the payload
//! checksum verifies, the stored `request_key` equals the requesting
//! key, and the content hash *recomputed* over the decoded program, the
//! decoded profile and the request's scheduling configuration (by the
//! same [`ContentHash`] that artifacts compute lazily) equals the
//! stored one.  Any failure is a typed [`StoreError`] — never a panic —
//! and the caller falls back to a fresh compile, whose save then
//! overwrites the bad file.  Invalidation is therefore implicit: a codec
//! change bumps `STORE_VERSION`, and a scheduler change alters the
//! content hash, so stale files read as errors and self-heal.  A change
//! of the request key's derivation (its tag, or the toolchain's derived
//! `Hash` words) needs no version bump: the file layout is unchanged, and
//! files under old keys are simply never looked up again — orphans,
//! which a size-capped store evicts as its oldest files.
//!
//! A program that decodes but breaks the machine's limits (a word wider
//! than the issue width, say) loads, and every run of it fails at
//! machine construction with a typed `VliwError::Malformed`.
//!
//! Writes go to a process-unique temp file followed by a rename, so a
//! concurrent reader in another process sees either the old complete
//! file or the new complete file, never a torn one.

use crate::{CompileStats, CompiledArtifact, ContentHash};
use psb_core::DecodedProgram;
use psb_isa::{
    AluOp, BlockId, CmpOp, CondReg, MemImage, MemTag, MultiOp, Op, PredTerm, Predicate, Reg, Slot,
    SlotOp, Src, VliwProgram, MAX_CONDS, NUM_REGS,
};
use psb_scalar::EdgeProfile;
use psb_sched::{SchedConfig, ScheduleStats};
use psb_telemetry::{names, Telemetry};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const MAGIC: [u8; 4] = *b"PSBA";
/// Bumped whenever the payload codec changes shape; old files then read
/// as [`StoreError::Version`] and recompile.
pub const STORE_VERSION: u32 = 1;

/// A store operation that failed, with enough structure for tests to
/// pin the failure mode and for logs to say what happened.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// Filesystem error (message carries the rendered `io::Error`).
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The rendered I/O error.
        message: String,
    },
    /// The file does not start with the `PSBA` magic.
    Magic,
    /// The file's codec version is not [`STORE_VERSION`].
    Version(u32),
    /// The file ended before the codec was done reading.
    Truncated {
        /// Byte offset at which input ran out.
        offset: usize,
    },
    /// The payload checksum did not verify.
    Checksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The file's `request_key` is not the requesting key (a misnamed
    /// or cross-linked file).
    KeyMismatch {
        /// Key the caller asked for.
        requested: u64,
        /// Key recorded in the file.
        stored: u64,
    },
    /// The content hash recomputed from the decoded payload and the
    /// request's scheduling configuration disagrees with the stored one
    /// (bit rot, or an artifact from a different toolchain state).
    ContentHash {
        /// Hash recorded in the file.
        stored: u64,
        /// Hash recomputed on load.
        actual: u64,
    },
    /// A structural decode error (bad tag, out-of-range register, …).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, message } => {
                write!(f, "store i/o on {}: {message}", path.display())
            }
            StoreError::Magic => write!(f, "not a PSBA artifact file"),
            StoreError::Version(v) => {
                write!(f, "artifact codec version {v}, expected {STORE_VERSION}")
            }
            StoreError::Truncated { offset } => write!(f, "artifact truncated at byte {offset}"),
            StoreError::Checksum { stored, actual } => write!(
                f,
                "artifact checksum mismatch: stored {stored:016x}, actual {actual:016x}"
            ),
            StoreError::KeyMismatch { requested, stored } => write!(
                f,
                "artifact key mismatch: requested {requested:016x}, file holds {stored:016x}"
            ),
            StoreError::ContentHash { stored, actual } => write!(
                f,
                "artifact content-hash mismatch: stored {stored:016x}, recomputed {actual:016x}"
            ),
            StoreError::Corrupt(m) => write!(f, "artifact payload corrupt: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Counter snapshot of one [`DiskStore`]'s lifetime.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Loads that validated and produced an artifact.
    pub hits: u64,
    /// Loads that found no file for the key.
    pub misses: u64,
    /// Loads that found a file but rejected it ([`StoreError`]).
    pub errors: u64,
    /// Artifacts persisted.
    pub writes: u64,
    /// Artifacts deleted to stay under the size cap.
    pub evictions: u64,
}

/// A directory of persisted artifacts, shared across processes.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    /// Total-size cap in bytes (`--store-max-bytes`); `None` = unbounded.
    max_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<DiskStore, StoreError> {
        DiskStore::open_with_limit(root, None)
    }

    /// [`DiskStore::open`] with a total-size cap.  Every save that
    /// pushes the store past `max_bytes` evicts oldest-modified `.psba`
    /// files (never the one just written) until it fits again; hits
    /// refresh a file's mtime, so eviction order approximates LRU
    /// across processes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn open_with_limit(
        root: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> Result<DiskStore, StoreError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|e| StoreError::Io {
            path: root.clone(),
            message: e.to_string(),
        })?;
        Ok(DiskStore {
            root,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The directory this store persists into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a given request key persists to.
    pub fn path_for(&self, request_key: u64) -> PathBuf {
        self.root.join(format!("{request_key:016x}.psba"))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Looks up the persisted artifact for the request with key `key`
    /// ([`CompileRequest::key`](crate::CompileRequest::key)) and
    /// scheduling configuration `sched`, fully validating it (see
    /// [`decode_artifact`]).  The caller passes the key it already
    /// computed for the memory cache.
    ///
    /// `Ok(None)` means no file exists for the key (a clean miss).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when a file exists but cannot be trusted; the
    /// caller should recompile (and its save will overwrite the file).
    pub fn load<T: Telemetry>(
        &self,
        key: u64,
        sched: &SchedConfig,
        tel: &T,
    ) -> Result<Option<Arc<CompiledArtifact>>, StoreError> {
        let path = self.path_for(key);
        let start = Instant::now();
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                tel.counter(names::STORE_MISSES, 1);
                return Ok(None);
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                tel.counter(names::STORE_ERRORS, 1);
                return Err(StoreError::Io {
                    path,
                    message: e.to_string(),
                });
            }
        };
        match decode_artifact(&bytes, key, sched) {
            Ok(artifact) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                tel.counter(names::STORE_HITS, 1);
                tel.observe_host(names::STORE_LOAD_NS, start.elapsed().as_nanos() as u64);
                // Touch the file so size-capped stores evict least
                // recently *used*, not least recently written.  Best
                // effort — a failed touch only skews eviction order.
                if self.max_bytes.is_some() {
                    if let Ok(f) = std::fs::File::options().write(true).open(&path) {
                        let now =
                            std::fs::FileTimes::new().set_modified(std::time::SystemTime::now());
                        let _ = f.set_times(now);
                    }
                }
                Ok(Some(Arc::new(artifact)))
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                tel.counter(names::STORE_ERRORS, 1);
                Err(e)
            }
        }
    }

    /// Persists `artifact` under its request key (atomic overwrite).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the temp write or rename fails.
    pub fn save<T: Telemetry>(
        &self,
        artifact: &CompiledArtifact,
        tel: &T,
    ) -> Result<(), StoreError> {
        let start = Instant::now();
        let bytes = encode_artifact(artifact);
        let path = self.path_for(artifact.request_key);
        let tmp = self.root.join(format!(
            ".tmp-{:016x}-{}",
            artifact.request_key,
            std::process::id()
        ));
        let io_err = |p: &Path, e: std::io::Error| {
            self.errors.fetch_add(1, Ordering::Relaxed);
            StoreError::Io {
                path: p.to_path_buf(),
                message: e.to_string(),
            }
        };
        std::fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        tel.counter(names::STORE_WRITES, 1);
        tel.observe_host(names::STORE_SAVE_NS, start.elapsed().as_nanos() as u64);
        self.enforce_limit(&path, tel);
        Ok(())
    }

    /// Deletes oldest-modified `.psba` files until the store fits under
    /// `max_bytes` again.  `keep` (the file just written) is never
    /// evicted — a save must not immediately undo itself, even when one
    /// artifact alone exceeds the cap.  Ties on mtime break on the file
    /// name, so concurrent same-second writes still evict in a
    /// deterministic order.  Best effort throughout: another process
    /// racing a delete is not an error.
    fn enforce_limit<T: Telemetry>(&self, keep: &Path, tel: &T) {
        let Some(cap) = self.max_bytes else { return };
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut total = 0u64;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|s| s.to_str()) != Some("psba") {
                continue;
            }
            let Ok(md) = entry.metadata() else { continue };
            total += md.len();
            let mtime = md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            files.push((mtime, path, md.len()));
        }
        if total <= cap {
            return;
        }
        files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (_, path, len) in files {
            if total <= cap {
                break;
            }
            if path == keep {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total -= len;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                tel.counter(names::STORE_EVICTIONS, 1);
            }
        }
    }
}

/// Serializes an artifact into the `.psba` byte layout.
pub fn encode_artifact(artifact: &CompiledArtifact) -> Vec<u8> {
    let mut payload = Writer::default();
    payload.profile(&artifact.profile);
    payload.program(&artifact.program);
    let payload = payload.buf;

    let mut out = Vec::with_capacity(payload.len() + 40);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    out.extend_from_slice(&artifact.request_key.to_le_bytes());
    out.extend_from_slice(&artifact.content_hash.get().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out
}

/// Decodes and fully validates a `.psba` byte image against the request
/// with key `key` ([`CompileRequest::key`](crate::CompileRequest::key))
/// and scheduling configuration `sched`.
///
/// # Errors
///
/// [`StoreError`] describing the first validation failure.
pub fn decode_artifact(
    bytes: &[u8],
    key: u64,
    sched: &SchedConfig,
) -> Result<CompiledArtifact, StoreError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.bytes(4)? != MAGIC {
        return Err(StoreError::Magic);
    }
    let version = r.u32()?;
    if version != STORE_VERSION {
        return Err(StoreError::Version(version));
    }
    let stored_key = r.u64()?;
    if stored_key != key {
        return Err(StoreError::KeyMismatch {
            requested: key,
            stored: stored_key,
        });
    }
    let stored_hash = r.u64()?;
    let payload_len = r.u64()? as usize;
    let payload = r.bytes(payload_len)?;
    let stored_sum = r.u64()?;
    r.end()?;
    let actual_sum = fnv1a(payload);
    if stored_sum != actual_sum {
        return Err(StoreError::Checksum {
            stored: stored_sum,
            actual: actual_sum,
        });
    }

    let mut p = Reader {
        buf: payload,
        pos: 0,
    };
    let profile = Arc::new(p.read_profile()?);
    let program = Arc::new(p.read_program()?);
    p.end()?;

    // Recompute the content hash with the artifact's own accessor; a
    // mismatch means the payload is not the artifact this request would
    // compile today (scheduler drift, profile drift, or plain bit rot).
    // The artifact keeps the checked value.
    let content_hash = ContentHash::new(Arc::clone(&program), Arc::clone(&profile), sched.clone());
    let actual_hash = content_hash.get();
    if actual_hash != stored_hash {
        return Err(StoreError::ContentHash {
            stored: stored_hash,
            actual: actual_hash,
        });
    }

    let decoded = DecodedProgram::decode(&program);
    let sched_stats = ScheduleStats::analyze(&program);
    let stats = CompileStats {
        profile_seconds: 0.0,
        schedule_seconds: 0.0,
        decode_seconds: 0.0,
        profile_branches: profile.total(),
        words: program.words.len(),
        slots: decoded.slot_count(),
    };
    Ok(CompiledArtifact {
        request_key: stored_key,
        content_hash,
        profile,
        program,
        sched_stats,
        decoded: Arc::new(decoded),
        stats,
    })
}

/// FNV-1a over a byte slice (the payload checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Payload codec.  All integers little-endian; collections are a u32
// count followed by the elements.  Enum tags are single bytes chosen
// once and frozen — reordering a source enum must not change the format.
// ---------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn len(&mut self, n: usize) {
        self.u32(n as u32);
    }
    fn string(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn profile(&mut self, profile: &EdgeProfile) {
        self.len(profile.num_blocks());
        for i in 0..profile.num_blocks() {
            let (taken, not_taken) = profile.counts(BlockId(i as u32));
            self.u64(taken);
            self.u64(not_taken);
        }
    }

    fn program(&mut self, prog: &VliwProgram) {
        self.string(&prog.name);
        self.len(prog.words.len());
        for word in &prog.words {
            self.len(word.slots.len());
            for slot in &word.slots {
                self.pred(&slot.pred);
                self.slot_op(&slot.op);
            }
        }
        self.len(prog.region_starts.len());
        for &start in &prog.region_starts {
            self.u64(start as u64);
        }
        self.u32(prog.num_conds as u32);
        self.len(prog.init_regs.len());
        for &(reg, value) in &prog.init_regs {
            self.u8(reg.index() as u8);
            self.i64(value);
        }
        self.i64(prog.memory.size);
        self.len(prog.memory.cells.len());
        for &(addr, value) in &prog.memory.cells {
            self.i64(addr);
            self.i64(value);
        }
        self.len(prog.live_out.len());
        for &reg in &prog.live_out {
            self.u8(reg.index() as u8);
        }
    }

    fn pred(&mut self, pred: &Predicate) {
        let (mut pos, mut neg) = (0u8, 0u8);
        for (c, term) in pred.terms() {
            match term {
                PredTerm::Pos => pos |= 1 << c.index(),
                PredTerm::Neg => neg |= 1 << c.index(),
                PredTerm::DontCare => {}
            }
        }
        self.u8(pos);
        self.u8(neg);
    }

    fn slot_op(&mut self, op: &SlotOp) {
        match op {
            SlotOp::Op(inner) => {
                self.u8(0);
                self.op(inner);
            }
            SlotOp::Jump { target } => {
                self.u8(1);
                self.u64(*target as u64);
            }
            SlotOp::CmpBr {
                c,
                cmp,
                a,
                b,
                target,
            } => {
                self.u8(2);
                self.opt_cond(*c);
                self.u8(cmp_tag(*cmp));
                self.src(*a);
                self.src(*b);
                self.u64(*target as u64);
            }
            SlotOp::Halt => self.u8(3),
        }
    }

    fn op(&mut self, op: &Op) {
        match *op {
            Op::Alu { op, rd, a, b } => {
                self.u8(0);
                self.u8(alu_tag(op));
                self.u8(rd.index() as u8);
                self.src(a);
                self.src(b);
            }
            Op::Copy { rd, src } => {
                self.u8(1);
                self.u8(rd.index() as u8);
                self.src(src);
            }
            Op::Load {
                rd,
                base,
                offset,
                tag,
            } => {
                self.u8(2);
                self.u8(rd.index() as u8);
                self.src(base);
                self.i64(offset);
                self.u16(tag.0);
            }
            Op::Store {
                base,
                offset,
                value,
                tag,
            } => {
                self.u8(3);
                self.src(base);
                self.i64(offset);
                self.src(value);
                self.u16(tag.0);
            }
            Op::SetCond { c, cmp, a, b } => {
                self.u8(4);
                self.u8(c.index() as u8);
                self.u8(cmp_tag(cmp));
                self.src(a);
                self.src(b);
            }
            Op::Nop => self.u8(5),
        }
    }

    fn src(&mut self, src: Src) {
        match src {
            Src::Reg { reg, shadow } => {
                self.u8(0);
                self.u8(reg.index() as u8);
                self.u8(shadow as u8);
            }
            Src::Imm(v) => {
                self.u8(1);
                self.i64(v);
            }
        }
    }

    fn opt_cond(&mut self, c: Option<CondReg>) {
        match c {
            Some(c) => self.u8(c.index() as u8),
            None => self.u8(0xff),
        }
    }
}

fn alu_tag(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::And => 2,
        AluOp::Or => 3,
        AluOp::Xor => 4,
        AluOp::Sll => 5,
        AluOp::Srl => 6,
        AluOp::Sra => 7,
        AluOp::Slt => 8,
        AluOp::Mul => 9,
    }
}

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(StoreError::Truncated { offset: self.pos })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn end(&self) -> Result<(), StoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(StoreError::Corrupt(format!(
                "{} trailing bytes at offset {}",
                self.buf.len() - self.pos,
                self.pos
            )))
        }
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.bytes(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn count(&mut self) -> Result<usize, StoreError> {
        Ok(self.u32()? as usize)
    }

    fn string(&mut self) -> Result<String, StoreError> {
        let n = self.count()?;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Corrupt("non-utf8 string".into()))
    }

    fn reg(&mut self) -> Result<Reg, StoreError> {
        let idx = self.u8()? as usize;
        if idx >= NUM_REGS {
            return Err(StoreError::Corrupt(format!("register index {idx}")));
        }
        Ok(Reg::new(idx))
    }

    fn cond(&mut self) -> Result<CondReg, StoreError> {
        let idx = self.u8()? as usize;
        if idx >= MAX_CONDS {
            return Err(StoreError::Corrupt(format!("condition index {idx}")));
        }
        Ok(CondReg::new(idx))
    }

    fn read_profile(&mut self) -> Result<EdgeProfile, StoreError> {
        let blocks = self.count()?;
        let mut counts = Vec::with_capacity(blocks.min(1 << 20));
        for _ in 0..blocks {
            counts.push((self.u64()?, self.u64()?));
        }
        Ok(EdgeProfile::from_counts(counts))
    }

    fn read_program(&mut self) -> Result<VliwProgram, StoreError> {
        let name = self.string()?;
        let word_count = self.count()?;
        let mut words = Vec::with_capacity(word_count.min(1 << 20));
        for _ in 0..word_count {
            let slot_count = self.count()?;
            let mut slots = Vec::with_capacity(slot_count.min(1 << 10));
            for _ in 0..slot_count {
                let pred = self.pred()?;
                let op = self.slot_op()?;
                slots.push(Slot::new(pred, op));
            }
            words.push(MultiOp::new(slots));
        }
        let start_count = self.count()?;
        let mut region_starts = Vec::with_capacity(start_count.min(1 << 20));
        for _ in 0..start_count {
            region_starts.push(self.u64()? as usize);
        }
        let num_conds = self.u32()? as usize;
        if num_conds > MAX_CONDS {
            return Err(StoreError::Corrupt(format!("num_conds {num_conds}")));
        }
        let init_count = self.count()?;
        let mut init_regs = Vec::with_capacity(init_count.min(NUM_REGS));
        for _ in 0..init_count {
            init_regs.push((self.reg()?, self.i64()?));
        }
        let size = self.i64()?;
        let cell_count = self.count()?;
        let mut cells = Vec::with_capacity(cell_count.min(1 << 20));
        for _ in 0..cell_count {
            cells.push((self.i64()?, self.i64()?));
        }
        let live_count = self.count()?;
        let mut live_out = Vec::with_capacity(live_count.min(NUM_REGS));
        for _ in 0..live_count {
            live_out.push(self.reg()?);
        }
        Ok(VliwProgram {
            name,
            words,
            region_starts,
            num_conds,
            init_regs,
            memory: MemImage { size, cells },
            live_out,
        })
    }

    fn pred(&mut self) -> Result<Predicate, StoreError> {
        let pos = self.u8()?;
        let neg = self.u8()?;
        if pos & neg != 0 {
            return Err(StoreError::Corrupt(format!(
                "predicate masks overlap: pos {pos:#04x}, neg {neg:#04x}"
            )));
        }
        let mut pred = Predicate::always();
        for i in 0..MAX_CONDS {
            let bit = 1u8 << i;
            if pos & bit != 0 {
                pred = pred.with_term(CondReg::new(i), PredTerm::Pos);
            } else if neg & bit != 0 {
                pred = pred.with_term(CondReg::new(i), PredTerm::Neg);
            }
        }
        Ok(pred)
    }

    fn slot_op(&mut self) -> Result<SlotOp, StoreError> {
        match self.u8()? {
            0 => Ok(SlotOp::Op(self.op()?)),
            1 => Ok(SlotOp::Jump {
                target: self.u64()? as usize,
            }),
            2 => {
                let c = match self.u8()? {
                    0xff => None,
                    idx if (idx as usize) < MAX_CONDS => Some(CondReg::new(idx as usize)),
                    idx => {
                        return Err(StoreError::Corrupt(format!("condition index {idx}")));
                    }
                };
                Ok(SlotOp::CmpBr {
                    c,
                    cmp: self.cmp()?,
                    a: self.src()?,
                    b: self.src()?,
                    target: self.u64()? as usize,
                })
            }
            3 => Ok(SlotOp::Halt),
            t => Err(StoreError::Corrupt(format!("slot-op tag {t}"))),
        }
    }

    fn op(&mut self) -> Result<Op, StoreError> {
        match self.u8()? {
            0 => Ok(Op::Alu {
                op: self.alu()?,
                rd: self.reg()?,
                a: self.src()?,
                b: self.src()?,
            }),
            1 => Ok(Op::Copy {
                rd: self.reg()?,
                src: self.src()?,
            }),
            2 => Ok(Op::Load {
                rd: self.reg()?,
                base: self.src()?,
                offset: self.i64()?,
                tag: MemTag(self.u16()?),
            }),
            3 => Ok(Op::Store {
                base: self.src()?,
                offset: self.i64()?,
                value: self.src()?,
                tag: MemTag(self.u16()?),
            }),
            4 => Ok(Op::SetCond {
                c: self.cond()?,
                cmp: self.cmp()?,
                a: self.src()?,
                b: self.src()?,
            }),
            5 => Ok(Op::Nop),
            t => Err(StoreError::Corrupt(format!("op tag {t}"))),
        }
    }

    fn src(&mut self) -> Result<Src, StoreError> {
        match self.u8()? {
            0 => {
                let reg = self.reg()?;
                let shadow = match self.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(StoreError::Corrupt(format!("shadow flag {b}"))),
                };
                Ok(Src::Reg { reg, shadow })
            }
            1 => Ok(Src::Imm(self.i64()?)),
            t => Err(StoreError::Corrupt(format!("src tag {t}"))),
        }
    }

    fn alu(&mut self) -> Result<AluOp, StoreError> {
        Ok(match self.u8()? {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::And,
            3 => AluOp::Or,
            4 => AluOp::Xor,
            5 => AluOp::Sll,
            6 => AluOp::Srl,
            7 => AluOp::Sra,
            8 => AluOp::Slt,
            9 => AluOp::Mul,
            t => return Err(StoreError::Corrupt(format!("alu tag {t}"))),
        })
    }

    fn cmp(&mut self) -> Result<CmpOp, StoreError> {
        Ok(match self.u8()? {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            t => return Err(StoreError::Corrupt(format!("cmp tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_core::MachineConfig;
    use psb_sched::Model;

    /// A store file may hold a word far wider than any machine issues;
    /// loading it must not panic, and running it must be a typed error.
    #[test]
    fn a_word_of_256_stores_loads_and_fails_to_run() {
        let store = Slot::alw(SlotOp::Op(Op::Store {
            base: Src::imm(0),
            offset: 0,
            value: Src::imm(1),
            tag: MemTag::ANY,
        }));
        let program = Arc::new(VliwProgram {
            name: "wide-store-word".into(),
            words: vec![
                MultiOp::new(vec![store; 256]),
                MultiOp::new(vec![Slot::alw(SlotOp::Halt)]),
            ],
            region_starts: vec![0],
            num_conds: 1,
            init_regs: vec![],
            memory: MemImage::zeroed(8),
            live_out: vec![],
        });
        let profile = Arc::new(EdgeProfile::default());
        let sched = SchedConfig::new(Model::RegionPred);
        let artifact = CompiledArtifact {
            request_key: 7,
            content_hash: ContentHash::new(
                Arc::clone(&program),
                Arc::clone(&profile),
                sched.clone(),
            ),
            profile,
            sched_stats: ScheduleStats::analyze(&program),
            decoded: Arc::new(DecodedProgram::decode(&program)),
            program,
            stats: CompileStats::default(),
        };
        let loaded = decode_artifact(&encode_artifact(&artifact), 7, &sched)
            .expect("a well-formed file loads");
        let err = loaded.run(MachineConfig::default()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed program: word 0 has 256 slots, issue width is 4"
        );
    }
}

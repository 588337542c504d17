//! `FileBackend`: one file plus one dedicated worker thread per "disk".
//!
//! This is the physical realization of the PDM: each simulated disk is a
//! regular file, and each file is owned by a persistent worker thread
//! with its own submission queue. A batch is split per disk, **issued to
//! every queue before any completion is joined**, so the per-disk device
//! waits overlap in real time — a D-disk parallel round takes roughly
//! one disk's latency, not D of them. That overlap is what the
//! `io_wallclock` bench measures and gates on.
//!
//! ## Layout
//!
//! A backend directory holds `disk-<d>.bin` (blocks at stride `B · 8`
//! bytes, words little-endian) and `meta` — text: the magic
//! `pdm-file-backend v2`, `disks D`, `block_words B`, and `blocks n0 n1 …`,
//! one count per disk, since each disk is as long as the tallest region
//! on it. A version 1 `meta` (`blocks N` for all disks) still opens. Files
//! are fully materialized at create/grow time: extent allocation is paid
//! up front, so wall-clock measurements time I/O, not filesystem metadata
//! churn.
//!
//! Growing lengthens the files, then renames `meta.tmp` over `meta`; a
//! discard renames the shorter `meta` in first, then truncates the files.
//! Either way a kill at any point leaves a directory that opens:
//! [`FileBackend::open`] trims a file longer than its recorded length
//! (blocks never handed out, or already given back) and rejects a shorter
//! or missing one with a typed error. Neither step is synced; the next
//! barrier a writer waits on covers them.
//!
//! ## Durability and `O_DIRECT`
//!
//! * [`FileBackendOptions::sync_on_write`] — the fsync-on-commit toggle:
//!   every write submission ends with `fdatasync` on each disk it
//!   touched. Independent of that toggle, a submission's `sync_after`
//!   (or [`StorageBackend::flush_begin`]) forces a barrier, which syncs the
//!   files written (grown, trimmed) since the last one and no other.
//! * [`FileBackendOptions::direct_io`] — open disk files with `O_DIRECT`
//!   (Linux): reads bypass the page cache and hit the device, which is
//!   what makes overlapped queues measurably faster than serial issue
//!   even on one CPU core. Requires the block size to be a multiple of
//!   4096 bytes (rejected with a typed [`BackendError`] otherwise);
//!   sub-block writes are performed as read-modify-write of the full
//!   block inside the worker.
//!
//! Open/create failures (missing disk file, geometry change on reopen,
//! unreadable meta) are **typed** [`BackendError`]s, not panics; runtime
//! I/O failures on a healthy backend (e.g. the filesystem disappearing
//! mid-run) abort the worker via panic, matching the in-memory backend's
//! "storage itself never fails" contract — *modelled* faults stay in the
//! fault-injection layer above.

use crate::backend::{BackendError, CompletionSet, FlushTicket, IoSubmission, StorageBackend};
use crate::blocks::BlockBuf;
use crate::disk::BlockAddr;
use crate::Word;
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;

const META_MAGIC: &str = "pdm-file-backend v2";
const META_MAGIC_V1: &str = "pdm-file-backend v1"; // `blocks` is one count
const WORD_BYTES: usize = std::mem::size_of::<Word>();
const DIRECT_ALIGN: usize = 4096;

/// Configuration for [`FileBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileBackendOptions {
    /// `fdatasync` each touched disk at the end of every write
    /// submission (the fsync-on-commit toggle).
    pub sync_on_write: bool,
    /// Open disk files with `O_DIRECT` and do device-direct reads.
    /// Requires `B · 8` to be a multiple of 4096.
    pub direct_io: bool,
}

impl FileBackendOptions {
    /// Enable or disable fsync-on-commit.
    #[must_use]
    pub fn sync_on_write(mut self, on: bool) -> Self {
        self.sync_on_write = on;
        self
    }

    /// Enable or disable `O_DIRECT` device-direct reads.
    #[must_use]
    pub fn direct_io(mut self, on: bool) -> Self {
        self.direct_io = on;
        self
    }
}

/// Words of reads in flight at once (1 MiB): what a large planned batch
/// holds in worker replies beside the buffer they are copied into. One
/// block per disk is the least a wave holds.
const WAVE_WORDS: usize = 128 * 1024;

/// One job for a disk worker: block reads (tagged with their result
/// slot), encoded block writes, and an optional durability barrier.
struct Job {
    reads: Vec<(usize, u64)>,
    writes: Vec<(u64, Vec<u8>)>,
    sync: bool,
    reply: mpsc::Sender<DiskReply>,
}

struct DiskReply {
    /// The job's read slots, and their decoded blocks back to back.
    slots: Vec<(usize, u64)>,
    words: Vec<Word>,
}

enum Cmd {
    Run(Job),
    Flush(mpsc::Sender<()>),
    Shutdown,
}

struct DiskWorker {
    tx: mpsc::Sender<Cmd>,
    join: Option<JoinHandle<()>>,
}

/// File-per-disk storage backend with one worker thread per disk.
///
/// See the [module docs](self) for layout, durability, and `O_DIRECT`
/// semantics. Construct with [`FileBackend::create`] (fresh directory)
/// or [`FileBackend::open`] (existing directory), then hand it to
/// [`crate::DiskArray::with_backend`].
pub struct FileBackend {
    dir: PathBuf,
    block_words: usize,
    blocks: Vec<usize>, // on each disk
    opts: FileBackendOptions,
    // Buffered main-thread handle per disk, for the uncharged hooks
    // (peek/poke/snapshot) and for grow; workers hold their own handles.
    control: Vec<File>,
    workers: Vec<DiskWorker>,
    // Per disk: written since its last sync, so a barrier syncs it.
    dirty: Vec<bool>,
    // Wrapped in a Mutex only to keep the backend `Sync` for shared
    // readers; it is touched exclusively through `&mut self`.
    pending_flush: Mutex<Option<mpsc::Receiver<()>>>,
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .field("disks", &self.workers.len())
            .field("block_words", &self.block_words)
            .field("blocks", &self.blocks)
            .field("opts", &self.opts)
            .finish()
    }
}

fn io_err(disk: usize, what: &str, err: &std::io::Error) -> BackendError {
    BackendError::misconfigured(disk, format!("{what}: {err}"))
}

fn disk_path(dir: &Path, disk: usize) -> PathBuf {
    dir.join(format!("disk-{disk}.bin"))
}

/// Write (not `set_len`: extents are paid now) `len` zero bytes at `offset`.
fn materialize(file: &File, offset: u64, len: usize) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    let zeros = vec![0u8; len.min(1 << 20)];
    let mut written = 0;
    while written < len {
        let n = (len - written).min(zeros.len());
        file.write_all_at(&zeros[..n], offset + written as u64)?;
        written += n;
    }
    Ok(())
}

/// A zeroed buffer of `len` bytes whose payload starts at an
/// `align`-aligned address (returned as `(buffer, offset)`); computing
/// the offset from the allocation address needs no unsafe code.
fn aligned_buf(len: usize, align: usize) -> (Vec<u8>, usize) {
    let v = vec![0u8; len + align];
    let addr = v.as_ptr() as usize;
    let off = (align - (addr % align)) % align;
    (v, off)
}

fn encode_words(words: &[Word]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * WORD_BYTES);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn decode_words(bytes: &[u8]) -> impl Iterator<Item = Word> + '_ {
    bytes
        .chunks_exact(WORD_BYTES)
        .map(|c| Word::from_le_bytes(c.try_into().expect("chunk is WORD_BYTES long")))
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const O_DIRECT: i32 = 0x10000;
#[cfg(all(target_os = "linux", not(target_arch = "aarch64")))]
const O_DIRECT: i32 = 0x4000;

fn open_worker_file(path: &Path, direct: bool) -> std::io::Result<File> {
    let mut oo = OpenOptions::new();
    oo.read(true).write(true);
    #[cfg(target_os = "linux")]
    if direct {
        use std::os::unix::fs::OpenOptionsExt;
        oo.custom_flags(O_DIRECT);
    }
    #[cfg(not(target_os = "linux"))]
    let _ = direct; // no O_DIRECT off Linux; buffered I/O is still correct
    oo.open(path)
}

/// The worker loop: owns its disk's file handle, drains its queue, and
/// answers each job on the job's own reply channel (reads are performed
/// before writes; see the backend ordering contract).
fn worker_loop(file: File, block_bytes: usize, direct: bool, rx: mpsc::Receiver<Cmd>) {
    use std::os::unix::fs::FileExt;
    let (mut buf, off) = aligned_buf(block_bytes, DIRECT_ALIGN);
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Run(job) => {
                let mut words = Vec::with_capacity(job.reads.len() * block_bytes / WORD_BYTES);
                for (_, offset) in &job.reads {
                    let dst = &mut buf[off..off + block_bytes];
                    file.read_exact_at(dst, *offset).expect("disk file read");
                    words.extend(decode_words(dst));
                }
                for (offset, bytes) in &job.writes {
                    if direct {
                        let dst = &mut buf[off..off + block_bytes];
                        if bytes.len() < block_bytes {
                            // Sub-block write under O_DIRECT: read-modify-
                            // write the full (aligned) block.
                            file.read_exact_at(dst, *offset).expect("disk file read");
                        }
                        dst[..bytes.len()].copy_from_slice(bytes);
                        file.write_all_at(dst, *offset).expect("disk file write");
                    } else {
                        file.write_all_at(bytes, *offset).expect("disk file write");
                    }
                }
                if job.sync {
                    file.sync_data().expect("disk file sync");
                }
                // A dropped array mid-reply is fine; ignore send errors.
                let _ = job.reply.send(DiskReply {
                    slots: job.reads,
                    words,
                });
            }
            Cmd::Flush(reply) => {
                file.sync_data().expect("disk file sync");
                let _ = reply.send(());
            }
            Cmd::Shutdown => break,
        }
    }
}

impl FileBackend {
    /// Create a fresh backend directory: `disks` files of
    /// `blocks_per_disk` zeroed, fully materialized blocks, plus the
    /// `meta` geometry record.
    ///
    /// # Errors
    /// Typed [`BackendError`] if the directory or files cannot be
    /// created, or `direct_io` is requested with a block size that is
    /// not a multiple of 4096 bytes.
    pub fn create(
        dir: impl AsRef<Path>,
        disks: usize,
        block_words: usize,
        blocks_per_disk: usize,
        opts: FileBackendOptions,
    ) -> Result<Self, BackendError> {
        let dir = dir.as_ref();
        Self::check_direct(block_words, opts)?;
        if disks == 0 || block_words == 0 {
            return Err(BackendError::misconfigured(
                0,
                format!("degenerate geometry: D = {disks}, B = {block_words}"),
            ));
        }
        std::fs::create_dir_all(dir).map_err(|e| io_err(0, "creating backend directory", &e))?;
        for d in 0..disks {
            let path = disk_path(dir, d);
            let f = File::create(&path).map_err(|e| io_err(d, "creating disk file", &e))?;
            materialize(&f, 0, block_words * WORD_BYTES * blocks_per_disk)
                .map_err(|e| io_err(d, "materializing disk file", &e))?;
            f.sync_all().map_err(|e| io_err(d, "syncing disk file", &e))?;
        }
        let blocks = vec![blocks_per_disk; disks];
        Self::write_meta(dir, block_words, &blocks)?;
        Self::attach(dir.to_path_buf(), block_words, blocks, opts)
    }

    /// Open an existing backend directory, verifying the recorded
    /// geometry against the disk files actually present.
    ///
    /// A disk file longer than its recorded length (a kill inside a grow
    /// or a discard) is trimmed back to it.
    /// # Errors
    /// Typed [`BackendError`] on a missing/corrupt `meta`, a **missing
    /// disk file**, or a disk file shorter than the meta geometry needs
    /// (e.g. the directory was written under a different block size). A
    /// block-size change on reopen surfaces either here (file size
    /// mismatch) or in [`crate::DiskArray::with_backend`] (config
    /// mismatch) — both as typed errors, never a panic.
    pub fn open(dir: impl AsRef<Path>, opts: FileBackendOptions) -> Result<Self, BackendError> {
        let dir = dir.as_ref();
        let (block_words, blocks) = Self::read_meta(dir)?;
        Self::check_direct(block_words, opts)?;
        for (d, &n) in blocks.iter().enumerate() {
            let path = disk_path(dir, d);
            let md = std::fs::metadata(&path).map_err(|_| {
                BackendError::misconfigured(d, format!("missing disk file {}", path.display()))
            })?;
            let expected_len = (block_words * WORD_BYTES * n) as u64;
            if md.len() < expected_len {
                return Err(BackendError::misconfigured(
                    d,
                    format!(
                        "disk file {} is {} bytes but the meta geometry \
                         (B = {block_words} words, {n} blocks) needs {expected_len}",
                        path.display(),
                        md.len()
                    ),
                ));
            }
            if md.len() > expected_len {
                let trim = OpenOptions::new().write(true).open(&path);
                trim.and_then(|f| f.set_len(expected_len))
                    .map_err(|e| io_err(d, "trimming disk file to its recorded length", &e))?;
            }
        }
        Self::attach(dir.to_path_buf(), block_words, blocks, opts)
    }

    fn check_direct(block_words: usize, opts: FileBackendOptions) -> Result<(), BackendError> {
        if opts.direct_io && !(block_words * WORD_BYTES).is_multiple_of(DIRECT_ALIGN) {
            return Err(BackendError::misconfigured(
                0,
                format!(
                    "direct_io needs the block size ({} bytes) to be a multiple of {DIRECT_ALIGN}",
                    block_words * WORD_BYTES
                ),
            ));
        }
        Ok(())
    }

    /// Replace `meta` in one step: a kill leaves the old one or the new.
    fn write_meta(dir: &Path, block_words: usize, blocks: &[usize]) -> Result<(), BackendError> {
        let lens: String = blocks.iter().map(|n| format!(" {n}")).collect();
        let body = format!("{META_MAGIC}\ndisks {}\nblock_words {block_words}\nblocks{lens}\n", blocks.len());
        let tmp = dir.join("meta.tmp");
        std::fs::write(&tmp, body)
            .and_then(|()| std::fs::rename(&tmp, dir.join("meta")))
            .map_err(|e| io_err(0, "writing meta", &e))
    }

    /// `(block_words, blocks on each disk)` as `meta` records them.
    fn read_meta(dir: &Path) -> Result<(usize, Vec<usize>), BackendError> {
        let path = dir.join("meta");
        let body = std::fs::read_to_string(&path).map_err(|_| {
            BackendError::misconfigured(
                0,
                format!("missing or unreadable meta file {}", path.display()),
            )
        })?;
        let mut lines = body.lines();
        let magic = lines.next();
        if magic != Some(META_MAGIC) && magic != Some(META_MAGIC_V1) {
            return Err(BackendError::misconfigured(
                0,
                format!("{} is not a pdm file-backend meta file", path.display()),
            ));
        }
        let mut field = |name: &str| -> Result<Vec<usize>, BackendError> {
            lines
                .next()
                .and_then(|l| l.strip_prefix(name))
                .and_then(|v| v.split_whitespace().map(|n| n.parse().ok()).collect())
                .filter(|v: &Vec<usize>| !v.is_empty())
                .ok_or_else(|| {
                    BackendError::misconfigured(0, format!("meta file is missing field {name:?}"))
                })
        };
        let (disks, block_words) = (field("disks")?[0], field("block_words")?[0]);
        let mut blocks = field("blocks")?;
        if magic == Some(META_MAGIC_V1) {
            blocks.resize(disks, blocks[0]);
        }
        if blocks.len() != disks {
            return Err(BackendError::misconfigured(
                0,
                format!("meta lists {} disk lengths for {disks} disks", blocks.len()),
            ));
        }
        Ok((block_words, blocks))
    }

    fn attach(
        dir: PathBuf,
        block_words: usize,
        blocks: Vec<usize>,
        opts: FileBackendOptions,
    ) -> Result<Self, BackendError> {
        let block_bytes = block_words * WORD_BYTES;
        let mut control = Vec::with_capacity(blocks.len());
        let mut workers = Vec::with_capacity(blocks.len());
        for d in 0..blocks.len() {
            let path = disk_path(&dir, d);
            control.push(
                OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err(d, "opening disk file", &e))?,
            );
            let wf = open_worker_file(&path, opts.direct_io)
                .map_err(|e| io_err(d, "opening disk file for the worker", &e))?;
            let (tx, rx) = mpsc::channel();
            let join = std::thread::Builder::new()
                .name(format!("pdm-disk-{d}"))
                .spawn(move || worker_loop(wf, block_bytes, opts.direct_io, rx))
                .map_err(|e| io_err(d, "spawning disk worker", &e))?;
            workers.push(DiskWorker {
                tx,
                join: Some(join),
            });
        }
        Ok(FileBackend {
            dir,
            block_words,
            blocks,
            opts,
            control,
            dirty: vec![false; workers.len()],
            workers,
            pending_flush: Mutex::new(None),
        })
    }

    /// The backend directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn offset_of(&self, block: usize) -> u64 {
        (block * self.block_words * WORD_BYTES) as u64
    }

    /// Execute a submission: its reads in waves of about [`WAVE_WORDS`]
    /// (one wave, for anything but a large planned batch), its writes and
    /// barrier with the last wave. The per-disk queues are FIFO, so every
    /// read still precedes every write of the submission on its disk.
    fn run(&self, batch: IoSubmission<'_>) -> CompletionSet {
        let wave = (WAVE_WORDS / self.block_words).max(self.workers.len());
        let mut out = BlockBuf::zeroed(self.block_words, batch.reads.len());
        let mut first = 0;
        loop {
            let last = (first + wave).min(batch.reads.len());
            let reads = &batch.reads[first..last];
            if last < batch.reads.len() {
                self.run_wave(IoSubmission::reads(reads), first, &mut out);
                first = last;
            } else {
                self.run_wave(IoSubmission { reads, ..batch }, first, &mut out);
                return CompletionSet { reads: out };
            }
        }
    }

    /// Split one wave per disk, send every disk's job before joining any,
    /// then copy the read completions into their request-order places in
    /// `out`, the wave's first read being request `first` (on this thread:
    /// the workers cannot share one buffer without unsafe code, and the
    /// copy is what canonical order costs).
    fn run_wave(&self, batch: IoSubmission<'_>, first: usize, out: &mut BlockBuf) {
        let d = self.workers.len();
        let mut reads_by_disk: Vec<Vec<(usize, u64)>> = vec![Vec::new(); d];
        for (slot, a) in batch.reads.iter().enumerate() {
            debug_assert!(a.disk < d && a.block < self.blocks[a.disk]);
            reads_by_disk[a.disk].push((first + slot, self.offset_of(a.block)));
        }
        let mut writes_by_disk: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(); d];
        for (a, data) in batch.writes {
            debug_assert!(a.disk < d && a.block < self.blocks[a.disk]);
            writes_by_disk[a.disk].push((self.offset_of(a.block), encode_words(data)));
        }
        let sync = batch.sync_after || (self.opts.sync_on_write && !batch.writes.is_empty());
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut outstanding = 0usize;
        for (disk, (reads, writes)) in reads_by_disk
            .into_iter()
            .zip(writes_by_disk)
            .enumerate()
        {
            if reads.is_empty() && writes.is_empty() && !sync {
                continue;
            }
            self.workers[disk]
                .tx
                .send(Cmd::Run(Job {
                    reads,
                    writes,
                    sync,
                    reply: reply_tx.clone(),
                }))
                .expect("disk worker alive");
            outstanding += 1;
        }
        drop(reply_tx);
        for _ in 0..outstanding {
            let reply = reply_rx.recv().expect("disk worker reply");
            for ((slot, _), words) in reply.slots.iter().zip(reply.words.chunks_exact(self.block_words)) {
                out.block_mut(*slot).copy_from_slice(words);
            }
        }
    }
}

impl StorageBackend for FileBackend {
    fn kind(&self) -> &'static str {
        "file"
    }

    fn disks(&self) -> usize {
        self.workers.len()
    }

    fn block_words(&self) -> usize {
        self.block_words
    }

    fn blocks_on(&self, disk: usize) -> usize {
        self.blocks[disk]
    }

    fn grow(&mut self, blocks_per_disk: usize) {
        self.grow_disks(0, self.workers.len(), blocks_per_disk);
    }

    fn grow_disks(&mut self, first_disk: usize, disks: usize, blocks: usize) {
        let mut grew = false;
        for d in first_disk..first_disk + disks {
            if blocks > self.blocks[d] {
                let add = (blocks - self.blocks[d]) * self.block_words * WORD_BYTES;
                materialize(&self.control[d], self.offset_of(self.blocks[d]), add)
                    .expect("growing disk file");
                self.blocks[d] = blocks;
                self.dirty[d] = true;
                grew = true;
            }
        }
        if grew {
            Self::write_meta(&self.dir, self.block_words, &self.blocks)
                .expect("rewriting meta after grow");
        }
    }

    /// Replaces `meta` with the shorter lengths, then truncates the files:
    /// a kill between the two leaves files longer than their meta, which
    /// [`open`](FileBackend::open) trims.
    fn discard_tail(&mut self, first_disk: usize, disks: usize, first_block: usize) {
        let range = first_disk..first_disk + disks;
        let shorter: Vec<usize> = range.filter(|&d| self.blocks[d] > first_block).collect();
        if shorter.is_empty() {
            return;
        }
        for &d in &shorter {
            self.blocks[d] = first_block;
        }
        Self::write_meta(&self.dir, self.block_words, &self.blocks).expect("rewriting meta before a discard");
        for d in shorter {
            self.dirty[d] = true;
            self.control[d].set_len(self.offset_of(first_block)).expect("truncating disk file");
        }
    }

    fn submit(&mut self, batch: IoSubmission<'_>) -> CompletionSet {
        if batch.sync_after || (self.opts.sync_on_write && !batch.writes.is_empty()) {
            self.dirty.fill(false);
        } else {
            batch.writes.iter().for_each(|(a, _)| self.dirty[a.disk] = true);
        }
        self.run(batch)
    }

    fn submit_reads(&self, reads: &[BlockAddr]) -> CompletionSet {
        self.run(IoSubmission::reads(reads))
    }

    fn peek(&self, addr: BlockAddr) -> Vec<Word> {
        use std::os::unix::fs::FileExt;
        let mut buf = vec![0u8; self.block_words * WORD_BYTES];
        self.control[addr.disk]
            .read_exact_at(&mut buf, self.offset_of(addr.block))
            .expect("disk file read");
        decode_words(&buf).collect()
    }

    fn poke(&mut self, addr: BlockAddr, data: &[Word]) {
        use std::os::unix::fs::FileExt;
        self.dirty[addr.disk] = true;
        self.control[addr.disk]
            .write_all_at(&encode_words(data), self.offset_of(addr.block))
            .expect("disk file write");
    }

    fn snapshot(&self) -> Vec<Vec<Box<[Word]>>> {
        (0..self.workers.len())
            .map(|d| {
                (0..self.blocks[d])
                    .map(|b| self.peek(BlockAddr::new(d, b)).into_boxed_slice())
                    .collect()
            })
            .collect()
    }

    fn flush_begin(&mut self) -> FlushTicket {
        let (tx, rx) = mpsc::channel();
        let mut pending = 0;
        for (w, dirty) in self.workers.iter().zip(&mut self.dirty).filter(|(_, dirty)| **dirty) {
            w.tx.send(Cmd::Flush(tx.clone())).expect("disk worker alive");
            (*dirty, pending) = (false, pending + 1);
        }
        *self.pending_flush.lock().expect("flush lock") = Some(rx);
        FlushTicket { pending }
    }

    fn flush_join(&mut self, ticket: FlushTicket) {
        if let Some(rx) = self.pending_flush.lock().expect("flush lock").take() {
            for _ in 0..ticket.pending {
                rx.recv().expect("disk worker flush ack");
            }
        }
    }
}

impl Drop for FileBackend {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.tx.send(Cmd::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(j) = w.join.take() {
                let _ = j.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::config::PdmConfig;
    use crate::DiskArray;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pdm-fb-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_read_of_several_waves_is_one_submission() {
        let dir = tmpdir("waves");
        let (d, b, blocks) = (3, 4, 12_000);
        let mut fb = FileBackend::create(&dir, d, b, blocks, FileBackendOptions::default()).unwrap();
        let mut mb = MemBackend::new(d, b, blocks);
        for block in (0..blocks).step_by(7) {
            for disk in 0..d {
                let tag = [(disk * blocks + block) as Word; 4];
                fb.poke(BlockAddr::new(disk, block), &tag);
                mb.poke(BlockAddr::new(disk, block), &tag);
            }
        }
        // More blocks than one wave holds, in an order that mixes disks.
        let reads: Vec<BlockAddr> = (0..d * blocks)
            .map(|i| BlockAddr::new(i % d, (i * 5) % blocks))
            .collect();
        assert!(reads.len() * b > WAVE_WORDS);
        // Reads come before the submission's own writes, in every wave.
        let w = [9 as Word; 4];
        let writes: Vec<(BlockAddr, &[Word])> = vec![(reads[0], &w[..]), (reads[35_999], &w[..])];
        let batch = IoSubmission {
            reads: &reads,
            writes: &writes,
            sync_after: true,
        };
        assert_eq!(fb.submit(batch).reads, mb.submit(batch).reads);
        assert_eq!(fb.peek(reads[35_999]), w);
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_roundtrips_like_mem() {
        let dir = tmpdir("roundtrip");
        let mut fb = FileBackend::create(&dir, 3, 4, 2, FileBackendOptions::default()).unwrap();
        let mut mb = MemBackend::new(3, 4, 2);
        let w1 = [7 as Word, 1, 2, 3];
        let writes: Vec<(BlockAddr, &[Word])> = vec![
            (BlockAddr::new(2, 1), &w1[..]),
            (BlockAddr::new(0, 0), &w1[..2]),
        ];
        fb.submit(IoSubmission::writes(&writes));
        mb.submit(IoSubmission::writes(&writes));
        let addrs = [
            BlockAddr::new(0, 0),
            BlockAddr::new(2, 1),
            BlockAddr::new(1, 0),
        ];
        assert_eq!(
            fb.submit(IoSubmission::reads(&addrs)).reads,
            mb.submit(IoSubmission::reads(&addrs)).reads
        );
        assert_eq!(fb.snapshot(), mb.snapshot());
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_barrier_syncs_only_the_files_written_since_the_last() {
        let dir = tmpdir("dirty");
        let mut fb = FileBackend::create(&dir, 40, 4, 2, FileBackendOptions::default()).unwrap();
        let w = [3 as Word; 4];
        let barrier = |fb: &mut FileBackend| {
            let ticket = fb.flush_begin();
            let synced = ticket.pending;
            fb.flush_join(ticket);
            synced
        };
        assert_eq!(barrier(&mut fb), 0, "nothing written since create");
        fb.submit(IoSubmission::writes(&[(BlockAddr::new(17, 1), &w[..])]));
        assert_eq!(barrier(&mut fb), 1, "one disk written, one file synced");
        assert_eq!(barrier(&mut fb), 0, "and not again");
        fb.submit(IoSubmission::reads(&[BlockAddr::new(3, 0)]));
        assert_eq!(barrier(&mut fb), 0, "a read dirties nothing");
        let writes: Vec<(BlockAddr, &[Word])> = [4, 9, 4].map(|d| (BlockAddr::new(d, 0), &w[..])).into();
        fb.submit(IoSubmission::writes(&writes));
        assert_eq!(barrier(&mut fb), 2);
        fb.submit(IoSubmission { reads: &[], writes: &writes, sync_after: true });
        assert_eq!(barrier(&mut fb), 0, "a synced submission leaves nothing to sync");
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_persists_across_reopen() {
        let dir = tmpdir("reopen");
        {
            let mut fb =
                FileBackend::create(&dir, 2, 4, 2, FileBackendOptions::default()).unwrap();
            fb.poke(BlockAddr::new(1, 1), &[5; 4]);
            fb.sync();
        }
        let fb = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!(fb.peek(BlockAddr::new(1, 1)), vec![5; 4]);
        assert_eq!(fb.disks(), 2);
        assert_eq!(fb.block_words(), 4);
        assert_eq!(fb.blocks_on(0), 2);
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_missing_disk_file_with_typed_error() {
        let dir = tmpdir("missing");
        {
            let _fb =
                FileBackend::create(&dir, 2, 4, 2, FileBackendOptions::default()).unwrap();
        }
        std::fs::remove_file(disk_path(&dir, 1)).unwrap();
        let err = FileBackend::open(&dir, FileBackendOptions::default()).unwrap_err();
        assert_eq!(err.kind, crate::IoFaultKind::Misconfigured);
        assert_eq!(err.disk, 1);
        assert!(err.message.contains("missing disk file"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_under_changed_block_size_is_a_typed_error() {
        let dir = tmpdir("blocksize");
        {
            let _fb =
                FileBackend::create(&dir, 2, 4, 4, FileBackendOptions::default()).unwrap();
        }
        // The array was written with B = 4; a caller reopening it under a
        // B = 8 config gets a typed geometry error from with_backend.
        let fb = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        let err = DiskArray::with_backend(PdmConfig::new(2, 8), Box::new(fb)).unwrap_err();
        assert_eq!(err.kind, crate::IoFaultKind::Misconfigured);
        assert!(err.message.contains("block size"), "{}", err.message);
        // And a meta file edited to a mismatched block size fails at open.
        let meta = dir.join("meta");
        let body = std::fs::read_to_string(&meta).unwrap();
        std::fs::write(&meta, body.replace("block_words 4", "block_words 8")).unwrap();
        let err = FileBackend::open(&dir, FileBackendOptions::default()).unwrap_err();
        assert_eq!(err.kind, crate::IoFaultKind::Misconfigured);
        assert!(err.message.contains("needs"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn direct_io_requires_aligned_blocks() {
        let dir = tmpdir("align");
        let err = FileBackend::create(&dir, 2, 4, 2, FileBackendOptions::default().direct_io(true))
            .unwrap_err();
        assert_eq!(err.kind, crate::IoFaultKind::Misconfigured);
        assert!(err.message.contains("multiple of 4096"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn direct_io_reads_and_writes_roundtrip() {
        let b = DIRECT_ALIGN / WORD_BYTES; // exactly one 4 KiB block
        let dir = tmpdir("direct");
        let mut fb =
            FileBackend::create(&dir, 2, b, 3, FileBackendOptions::default().direct_io(true))
                .unwrap();
        let full: Vec<Word> = (0..b as Word).collect();
        let part = [9 as Word; 3];
        let writes: Vec<(BlockAddr, &[Word])> = vec![
            (BlockAddr::new(0, 1), &full[..]),
            (BlockAddr::new(1, 2), &part[..]),
        ];
        fb.submit(IoSubmission::writes(&writes).with_sync(true));
        let got = fb.submit(IoSubmission::reads(&[BlockAddr::new(0, 1), BlockAddr::new(1, 2)]));
        assert_eq!(got.reads[0], full[..]);
        assert_eq!(got.reads[1][..3], [9, 9, 9]);
        assert_eq!(got.reads[1][3..], vec![0; b - 3][..]);
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grow_extends_every_disk_and_survives_reopen() {
        let dir = tmpdir("grow");
        {
            let mut fb =
                FileBackend::create(&dir, 2, 4, 2, FileBackendOptions::default()).unwrap();
            fb.poke(BlockAddr::new(0, 1), &[3; 4]);
            fb.grow(5);
            assert_eq!(fb.blocks_on(0), 5);
            assert_eq!(fb.peek(BlockAddr::new(0, 4)), vec![0; 4]);
            assert_eq!(fb.peek(BlockAddr::new(0, 1)), vec![3; 4]);
        }
        let fb = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!(fb.blocks_on(1), 5);
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grow_disks_extends_its_range_and_survives_reopen() {
        let dir = tmpdir("growdisks");
        {
            let mut fb =
                FileBackend::create(&dir, 4, 4, 0, FileBackendOptions::default()).unwrap();
            fb.grow_disks(0, 2, 3);
            fb.grow_disks(1, 3, 2); // disk 1 stays at 3
            fb.poke(BlockAddr::new(1, 2), &[6; 4]);
            fb.discard_tail(0, 4, 1); // disk 0 and the short ones alike
            fb.grow_disks(0, 2, 3);
            fb.grow_disks(2, 2, 2);
            fb.poke(BlockAddr::new(3, 1), &[8; 4]);
        }
        let body = std::fs::read_to_string(dir.join("meta")).unwrap();
        assert!(body.starts_with(META_MAGIC) && body.contains("blocks 3 3 2 2"), "{body}");
        assert!(!dir.join("meta.tmp").exists(), "the rename consumed it");
        let fb = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        let lens: Vec<usize> = (0..4).map(|d| fb.blocks_on(d)).collect();
        assert_eq!(lens, [3, 3, 2, 2]);
        assert_eq!(fb.snapshot().iter().map(Vec::len).collect::<Vec<_>>(), lens);
        assert_eq!(fb.peek(BlockAddr::new(1, 2)), vec![0; 4], "discarded");
        assert_eq!(fb.peek(BlockAddr::new(3, 1)), vec![8; 4]);
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill between a grow's two steps — files lengthened, `meta` not
    /// yet replaced — leaves a directory that opens at the old geometry.
    #[test]
    fn open_trims_a_file_longer_than_meta_and_rejects_a_shorter_one() {
        let dir = tmpdir("killedgrow");
        {
            let mut fb =
                FileBackend::create(&dir, 2, 4, 2, FileBackendOptions::default()).unwrap();
            fb.poke(BlockAddr::new(1, 1), &[5; 4]);
        }
        let grown = OpenOptions::new().write(true).open(disk_path(&dir, 1)).unwrap();
        grown.set_len(5 * 4 * WORD_BYTES as u64).unwrap();
        std::fs::write(dir.join("meta.tmp"), "half a meta").unwrap();
        let fb = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!((fb.blocks_on(0), fb.blocks_on(1)), (2, 2));
        assert_eq!(fb.peek(BlockAddr::new(1, 1)), vec![5; 4]);
        drop(fb);
        let len = std::fs::metadata(disk_path(&dir, 1)).unwrap().len();
        assert_eq!(len, 2 * 4 * WORD_BYTES as u64, "trimmed back to its recorded length");
        grown.set_len(4 * WORD_BYTES as u64).unwrap();
        let err = FileBackend::open(&dir, FileBackendOptions::default()).unwrap_err();
        assert_eq!((err.kind, err.disk), (crate::IoFaultKind::Misconfigured, 1));
        assert!(err.message.contains("needs"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_meta_opens_as_uniform_disks() {
        let dir = tmpdir("metav1");
        drop(FileBackend::create(&dir, 3, 4, 2, FileBackendOptions::default()).unwrap());
        let v1 = format!("{META_MAGIC_V1}\ndisks 3\nblock_words 4\nblocks 2\n");
        std::fs::write(dir.join("meta"), v1).unwrap();
        let mut fb = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!((0..3).map(|d| fb.blocks_on(d)).collect::<Vec<_>>(), [2; 3]);
        // The next grow rewrites it as version 2.
        fb.grow_disks(2, 1, 3);
        drop(fb);
        let body = std::fs::read_to_string(dir.join("meta")).unwrap();
        assert!(body.starts_with(META_MAGIC) && body.contains("blocks 2 2 3"), "{body}");
        // A length list that does not match the disk count is refused.
        std::fs::write(dir.join("meta"), body.replace("blocks 2 2 3", "blocks 2 2")).unwrap();
        let err = FileBackend::open(&dir, FileBackendOptions::default()).unwrap_err();
        assert!(err.message.contains("2 disk lengths for 3 disks"), "{}", err.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discard_tail_reads_zero_and_survives_reopen() {
        let dir = tmpdir("discard");
        {
            let mut fb =
                FileBackend::create(&dir, 3, 4, 4, FileBackendOptions::default()).unwrap();
            for d in 0..3 {
                for b in 0..4 {
                    fb.poke(BlockAddr::new(d, b), &[9; 4]);
                }
            }
            fb.discard_tail(1, 2, 2);
            assert_eq!((0..3).map(|d| fb.blocks_on(d)).collect::<Vec<_>>(), [4, 2, 2]);
            let body = std::fs::read_to_string(dir.join("meta")).unwrap();
            assert!(body.contains("blocks 4 2 2"), "{body}");
            let len = std::fs::metadata(disk_path(&dir, 2)).unwrap().len();
            assert_eq!(len, 2 * 4 * WORD_BYTES as u64, "the file is truncated");
            // Regrown, the range reads zeros — through the workers' own
            // handles too — and takes writes again.
            fb.grow_disks(1, 2, 4);
            let got = fb.submit(IoSubmission::reads(&[
                BlockAddr::new(1, 1),
                BlockAddr::new(1, 2),
                BlockAddr::new(2, 3),
                BlockAddr::new(0, 3),
            ]));
            assert_eq!(got.reads.into_words(), [[9; 4], [0; 4], [0; 4], [9; 4]].concat());
            let w = [5 as Word; 4];
            let writes: Vec<(BlockAddr, &[Word])> = vec![(BlockAddr::new(2, 3), &w[..])];
            fb.submit(IoSubmission::writes(&writes).with_sync(true));
        }
        let fb = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!(fb.blocks_on(1), 4);
        assert_eq!(fb.peek(BlockAddr::new(1, 3)), vec![0; 4]);
        assert_eq!(fb.peek(BlockAddr::new(2, 3)), vec![5; 4]);
        assert_eq!(fb.peek(BlockAddr::new(2, 1)), vec![9; 4]);
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill between a discard's two steps — `meta` replaced, files not yet
    /// truncated — leaves a directory that opens at the new geometry.
    #[test]
    fn a_kill_between_a_discards_meta_and_its_truncation_reopens_trimmed() {
        let dir = tmpdir("killeddiscard");
        {
            let mut fb = FileBackend::create(&dir, 2, 4, 4, FileBackendOptions::default()).unwrap();
            fb.poke(BlockAddr::new(1, 1), &[5; 4]);
            fb.poke(BlockAddr::new(1, 3), &[7; 4]);
        }
        FileBackend::write_meta(&dir, 4, &[4, 2]).unwrap();
        let mut fb = FileBackend::open(&dir, FileBackendOptions::default()).unwrap();
        assert_eq!((fb.blocks_on(0), fb.blocks_on(1)), (4, 2));
        let len = std::fs::metadata(disk_path(&dir, 1)).unwrap().len();
        assert_eq!(len, 2 * 4 * WORD_BYTES as u64, "trimmed to its recorded length");
        assert_eq!(fb.peek(BlockAddr::new(1, 1)), vec![5; 4]);
        fb.grow_disks(1, 1, 4);
        assert_eq!(fb.peek(BlockAddr::new(1, 3)), vec![0; 4], "what was given back stays gone");
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_tickets_ack_once_per_disk() {
        let dir = tmpdir("flush");
        let mut fb = FileBackend::create(&dir, 3, 4, 1, FileBackendOptions::default()).unwrap();
        let w = [1 as Word; 4];
        let writes: Vec<(BlockAddr, &[Word])> = vec![(BlockAddr::new(0, 0), &w[..])];
        fb.submit(IoSubmission::writes(&writes));
        let t = fb.flush_begin();
        // Work queued after the barrier lands behind it per disk.
        fb.submit(IoSubmission::writes(&writes));
        fb.flush_join(t);
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_on_write_toggle_syncs_every_write_batch() {
        let dir = tmpdir("synctoggle");
        let mut fb = FileBackend::create(
            &dir,
            2,
            4,
            2,
            FileBackendOptions::default().sync_on_write(true),
        )
        .unwrap();
        let w = [2 as Word; 4];
        let writes: Vec<(BlockAddr, &[Word])> = vec![(BlockAddr::new(1, 0), &w[..])];
        fb.submit(IoSubmission::writes(&writes));
        assert_eq!(fb.peek(BlockAddr::new(1, 0)), vec![2; 4]);
        drop(fb);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

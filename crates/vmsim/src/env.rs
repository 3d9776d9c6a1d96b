//! `SimEnv`: an execution-driven simulated memory-mapped environment.
//!
//! `SimEnv` implements [`mmjoin_env::Env`] by actually storing file
//! contents in memory (so the join algorithms run for real and produce
//! real output) while charging virtual time for everything the paper's
//! machine would pay for:
//!
//! * page faults through a per-process [`Pager`] with budget
//!   `M_Rproc`/`M_Sproc` (strict LRU by default, §3);
//! * disk service through the mechanistic [`Disk`] model, including
//!   deferred elevator write-back (§3.1);
//! * `newMap`/`openMap`/`deleteMap` setup charges, serialized across
//!   processes (§5.3: "the setup time is multiplied by D since
//!   manipulating a mapping is a serial operation");
//! * CPU operations, memory moves and context switches declared by the
//!   algorithms, priced by [`MachineParams`];
//! * the `Sproc` shared-buffer protocol for all access to `S` (§5.1).
//!
//! Each process accumulates its own virtual clock; the elapsed time of a
//! join is the maximum over the `Rproc` clocks, exactly as the paper's
//! analysis assumes (§4). Optional queued contention mode models disks
//! as serially-reusable resources for the naive-baseline experiments.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mmjoin_env::machine::MachineParams;
use mmjoin_env::trace::{null_sink, MapOp, TraceEvent as StructuredEvent, TraceSink};
use mmjoin_env::{
    CpuOp, DiskId, Env, EnvError, EnvStats, FileOps, MoveKind, ProcId, ProcStats, Result, SCatalog,
    SPtr,
};
use parking_lot::{Mutex, RwLock};

use crate::disk::{Disk, DiskParams};
use crate::pager::{Access, PageKey, Pager, Policy};
use crate::trace::{TraceEvent, TraceKind};

/// How simultaneous requests for one disk are arbitrated (§3: "we leave
/// unspecified the disk arbitration mechanism", listing alternatives).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ContentionMode {
    /// Processes never wait for one another (the paper's default
    /// assumption: "there is little or no contention during the D-fold
    /// parallelism").
    #[default]
    Independent,
    /// Overlapping requests serialize: each disk tracks a virtual
    /// `busy_until` and a request starting earlier waits. Used for the
    /// naive-baseline and synchronization ablations.
    Queued,
}

/// Everything needed to stand up a simulated machine.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Measured machine parameters (shared with the analytical model).
    pub machine: MachineParams,
    /// Disk geometry/timing; every disk is identical.
    pub disk: DiskParams,
    /// `D`: number of disks (= number of R/S partitions).
    pub num_disks: u32,
    /// `M_Rproc_i` in pages, for every Rproc.
    pub rproc_pages: usize,
    /// `M_Sproc_i` in pages, for every Sproc.
    pub sproc_pages: usize,
    /// Page replacement policy.
    pub policy: Policy,
    /// Disk arbitration.
    pub contention: ContentionMode,
    /// Record every disk access for [`crate::trace`] analysis (off by
    /// default: tracing a full paper-scale join collects ~10⁵ events).
    pub trace: bool,
}

impl SimConfig {
    /// A machine shaped like the paper's test bed: 4 disks, 4 KB pages.
    pub fn waterloo96(num_disks: u32) -> Self {
        SimConfig {
            machine: MachineParams::waterloo96(),
            disk: DiskParams::waterloo96(),
            num_disks,
            rproc_pages: 1024,
            sproc_pages: 1024,
            policy: Policy::Lru,
            contention: ContentionMode::Independent,
            trace: false,
        }
    }

    /// The test bed with `machine`'s parameters and per-process grants
    /// of `rproc_pages`/`sproc_pages`: the one simulated machine the
    /// service, the CLI and the experiments run a join on.
    pub fn granted(
        num_disks: u32,
        machine: MachineParams,
        rproc_pages: usize,
        sproc_pages: usize,
    ) -> Self {
        SimConfig {
            machine,
            rproc_pages,
            sproc_pages,
            ..SimConfig::waterloo96(num_disks)
        }
    }

    fn validate(&self) -> Result<()> {
        if self.num_disks == 0 {
            return Err(EnvError::InvalidConfig("num_disks must be > 0".into()));
        }
        if self.machine.page_size != self.disk.block_size {
            return Err(EnvError::InvalidConfig(format!(
                "page size {} != disk block size {}",
                self.machine.page_size, self.disk.block_size
            )));
        }
        Ok(())
    }
}

/// Contents and write-back state of one file.
///
/// Contents are held page by page: a page's buffer is allocated by its
/// first write, and a page never written reads as zeros. A fresh file
/// therefore costs one pointer per page, and the 4 KiB buffers come from
/// the heap, which reuses the buffers of deleted files, instead of one
/// fresh file-sized region whose every page the host faults in on first
/// touch. Storage never affects what is charged: the pager and the
/// `materialized` bits alone decide hits, faults and disk traffic.
struct FileBody {
    page: usize,
    pages: Vec<Option<Box<[u8]>>>,
    /// Bit per page: has this page ever been materialized on disk? A
    /// fault on a never-materialized page of a temporary area is a
    /// zero-fill fault and costs no disk read.
    materialized: Vec<u64>,
}

impl FileBody {
    fn new(bytes: u64, page: u64) -> Self {
        let pages = bytes.div_ceil(page) as usize;
        FileBody {
            page: page as usize,
            pages: (0..pages).map(|_| None).collect(),
            materialized: vec![0u64; pages.div_ceil(64)],
        }
    }

    /// Split `offset..offset + len` at page boundaries: `(page, offset
    /// within it, offset within the range, bytes)` per piece.
    fn pieces(
        &self,
        offset: u64,
        len: usize,
    ) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let page = self.page;
        let start = offset as usize;
        let mut done = 0;
        std::iter::from_fn(move || {
            (done < len).then(|| {
                let at = start + done;
                let n = (page - at % page).min(len - done);
                let piece = (at / page, at % page, done, n);
                done += n;
                piece
            })
        })
    }

    /// Copy `buf.len()` bytes at `offset` out (the caller has checked
    /// the range).
    fn read(&self, offset: u64, buf: &mut [u8]) {
        for (p, within, at, n) in self.pieces(offset, buf.len()) {
            let dst = &mut buf[at..at + n];
            match &self.pages[p] {
                Some(data) => dst.copy_from_slice(&data[within..within + n]),
                None => dst.fill(0),
            }
        }
    }

    /// Copy `data` in at `offset` (the caller has checked the range).
    fn write(&mut self, offset: u64, data: &[u8]) {
        let page = self.page;
        for (p, within, at, n) in self.pieces(offset, data.len()) {
            let buf = self.pages[p].get_or_insert_with(|| vec![0u8; page].into_boxed_slice());
            buf[within..within + n].copy_from_slice(&data[at..at + n]);
        }
    }

    fn is_materialized(&self, page: u64) -> bool {
        let (w, b) = (page / 64, page % 64);
        self.materialized
            .get(w as usize)
            .is_some_and(|word| word & (1 << b) != 0)
    }

    fn set_materialized(&mut self, page: u64) {
        let (w, b) = (page / 64, page % 64);
        if let Some(word) = self.materialized.get_mut(w as usize) {
            *word |= 1 << b;
        }
    }

    fn set_all_materialized(&mut self) {
        for w in &mut self.materialized {
            *w = u64::MAX;
        }
    }
}

/// Immutable metadata plus locked body of one file.
struct FileEntry {
    name: String,
    disk: DiskId,
    start_block: u64,
    bytes: u64,
    deleted: AtomicBool,
    body: Mutex<FileBody>,
}

impl FileEntry {
    fn blocks(&self, page: u64) -> u64 {
        self.bytes.div_ceil(page)
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<()> {
        if self.deleted.load(Ordering::Acquire) {
            return Err(EnvError::NotFound(self.name.clone()));
        }
        if offset.checked_add(len).is_none_or(|end| end > self.bytes) {
            return Err(EnvError::OutOfBounds {
                file: self.name.clone(),
                offset,
                len,
                size: self.bytes,
            });
        }
        Ok(())
    }
}

/// Per-disk mutable state: the drive model, the extent allocator and the
/// virtual busy horizon for queued contention.
struct DiskState {
    disk: Disk,
    /// Bump pointer for extent allocation.
    next_block: u64,
    /// Freed extents `(start, blocks)` available for exact-fit reuse
    /// (keeps the Merge/RS swap of sort-merge at a stable disk address).
    free: Vec<(u64, u64)>,
    /// Virtual time until which the disk is busy (queued mode).
    busy_until: f64,
}

/// Per-process mutable state.
struct ProcState {
    pager: Pager,
    stats: ProcStats,
}

struct FileTable {
    by_name: HashMap<String, u32>,
    entries: Vec<Option<Arc<FileEntry>>>,
}

struct SState {
    catalog: SCatalog,
    parts: Vec<(u32, Arc<FileEntry>)>,
}

struct SimInner {
    cfg: SimConfig,
    files: RwLock<FileTable>,
    disks: Vec<Mutex<DiskState>>,
    procs: Vec<Mutex<ProcState>>,
    s_state: RwLock<Option<SState>>,
    trace: Mutex<Vec<TraceEvent>>,
    /// Structured event sink (`mmjoin_env::trace`), distinct from the
    /// low-level per-access `trace` above.
    sink: RwLock<Arc<dyn TraceSink>>,
}

/// Which physical operation to charge.
enum DiskOp {
    Read(u64),
    Write(u64),
}

/// The simulated environment. Cheap to clone (shared interior).
#[derive(Clone)]
pub struct SimEnv {
    inner: Arc<SimInner>,
}

/// Handle to a simulated file.
#[derive(Clone)]
pub struct SimFile {
    inner: Arc<SimInner>,
    idx: u32,
    entry: Arc<FileEntry>,
}

impl SimEnv {
    /// Build a simulated machine from `cfg`.
    pub fn new(cfg: SimConfig) -> Result<Self> {
        cfg.validate()?;
        let d = cfg.num_disks;
        let disks = (0..d)
            .map(|_| {
                Mutex::new(DiskState {
                    disk: Disk::new(cfg.disk.clone()),
                    next_block: 0,
                    free: Vec::new(),
                    busy_until: 0.0,
                })
            })
            .collect();
        let procs = (0..ProcId::slots(d))
            .map(|slot| {
                let budget = if slot < d as usize {
                    cfg.rproc_pages
                } else {
                    cfg.sproc_pages
                };
                Mutex::new(ProcState {
                    pager: Pager::new(budget, cfg.policy),
                    stats: ProcStats::default(),
                })
            })
            .collect();
        Ok(SimEnv {
            inner: Arc::new(SimInner {
                cfg,
                files: RwLock::new(FileTable {
                    by_name: HashMap::new(),
                    entries: Vec::new(),
                }),
                disks,
                procs,
                s_state: RwLock::new(None),
                trace: Mutex::new(Vec::new()),
                sink: RwLock::new(null_sink()),
            }),
        })
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &SimConfig {
        &self.inner.cfg
    }

    /// Drain the recorded access trace (empty unless
    /// `SimConfig::trace` was set).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.inner.trace.lock())
    }

    /// Install a structured trace sink (`mmjoin_env::trace`). Map
    /// setup/teardown events from this environment and pass events from
    /// the join algorithms flow to it, stamped with the emitting
    /// process's virtual clock.
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) {
        *self.inner.sink.write() = sink;
    }

    /// Direct read of file contents without paging charges (test and
    /// verification aid).
    pub fn peek(&self, name: &str, offset: u64, buf: &mut [u8]) -> Result<()> {
        let entry = self.lookup(name)?;
        entry.check_range(offset, buf.len() as u64)?;
        entry.body.lock().read(offset, buf);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Result<Arc<FileEntry>> {
        let files = self.inner.files.read();
        let idx = *files
            .by_name
            .get(name)
            .ok_or_else(|| EnvError::NotFound(name.into()))?;
        files.entries[idx as usize]
            .clone()
            .ok_or_else(|| EnvError::NotFound(name.into()))
    }

    /// Charge a mapping operation ×D: mapping manipulation is serial
    /// across the `D` processes (paper Fig. 1b), as the model prices it.
    fn charge_map_op(&self, proc: ProcId, seconds: f64) {
        let factor = self.inner.cfg.num_disks as f64;
        let mut ps = self.inner.procs[proc.0 as usize].lock();
        ps.stats.map_ops += 1;
        ps.stats.map_time += seconds * factor;
        ps.stats.clock += seconds * factor;
    }
}

impl SimInner {
    /// Panic with a useful message on a process id outside this
    /// machine's `2D` slots (programmer error, like slice indexing).
    fn proc_state(&self, proc: ProcId) -> &Mutex<ProcState> {
        self.procs.get(proc.0 as usize).unwrap_or_else(|| {
            panic!(
                "{proc} out of range: this machine has {} process slots ({} disks)",
                self.procs.len(),
                self.cfg.num_disks
            )
        })
    }

    /// Charge one disk access to `proc`, honoring the contention mode
    /// and recording a trace event when tracing is enabled. Note that
    /// deferred writes charge their whole elevator batch to the access
    /// that fills the queue, so traced write services are lumpy; the
    /// analyzer only uses their mean.
    fn charge_disk(&self, proc: ProcId, disk: DiskId, op: DiskOp) -> f64 {
        // Only queued arbitration reads the requester's clock.
        let queued_at = (self.cfg.contention == ContentionMode::Queued)
            .then(|| self.proc_state(proc).lock().stats.clock);
        let mut ds = self.disks[disk.0 as usize].lock();
        let (svc, block, kind) = match op {
            DiskOp::Read(b) => (ds.disk.read(b), b, TraceKind::Read),
            DiskOp::Write(b) => (ds.disk.write(b), b, TraceKind::Write),
        };
        let charged = match queued_at {
            None => svc,
            Some(clock_now) => {
                let start = clock_now.max(ds.busy_until);
                let end = start + svc;
                ds.busy_until = end;
                end - clock_now
            }
        };
        drop(ds);
        if self.cfg.trace {
            self.trace.lock().push(TraceEvent {
                disk: disk.0,
                proc: proc.0,
                block,
                kind,
                service: svc,
            });
        }
        charged
    }

    /// Page one range of `entry` in through `pager_proc`'s pager,
    /// charging costs to `charge_proc`. `dirty` marks the touched pages
    /// modified.
    #[allow(clippy::too_many_arguments)]
    fn page_range(
        &self,
        pager_proc: ProcId,
        charge_proc: ProcId,
        entry: &Arc<FileEntry>,
        idx: u32,
        offset: u64,
        len: u64,
        dirty: bool,
    ) -> Result<()> {
        entry.check_range(offset, len)?;
        if len == 0 {
            return Ok(());
        }
        let page = self.cfg.machine.page_size;
        let first = offset / page;
        let last = (offset + len - 1) / page;
        let fault_overhead = self.cfg.machine.op(CpuOp::FaultOverhead);
        let (pager_state, charge_state) =
            (self.proc_state(pager_proc), self.proc_state(charge_proc));
        for p in first..=last {
            // Decide hit/fault under the pager lock, then price I/O
            // outside it. A hit on the charged process's own pager is
            // counted under that one lock.
            let key = PageKey { file: idx, page: p };
            let access = if pager_proc == charge_proc {
                let mut ps = pager_state.lock();
                let access = ps.pager.touch(key, dirty);
                ps.stats.page_hits += u64::from(access == Access::Hit);
                access
            } else {
                let access = pager_state.lock().pager.touch(key, dirty);
                if access == Access::Hit {
                    charge_state.lock().stats.page_hits += 1;
                }
                access
            };
            match access {
                Access::Hit => {}
                Access::Fault { evicted } => {
                    let mut io = 0.0;
                    let mut wrote = 0u64;
                    if let Some(ev) = evicted {
                        if ev.dirty {
                            // Write the victim back to its own file's disk.
                            if let Some(victim) =
                                self.files.read().entries[ev.key.file as usize].clone()
                            {
                                if !victim.deleted.load(Ordering::Acquire) {
                                    victim.body.lock().set_materialized(ev.key.page);
                                    let block = victim.start_block + ev.key.page;
                                    io += self.charge_disk(
                                        charge_proc,
                                        victim.disk,
                                        DiskOp::Write(block),
                                    );
                                    wrote = 1;
                                }
                            }
                        }
                    }
                    // Read the faulting page unless it is a zero-fill
                    // fault on a never-materialized page.
                    let needs_read = entry.body.lock().is_materialized(p);
                    let mut read = 0u64;
                    if needs_read {
                        let block = entry.start_block + p;
                        io += self.charge_disk(charge_proc, entry.disk, DiskOp::Read(block));
                        read = 1;
                    }
                    let mut ps = charge_state.lock();
                    ps.stats.fault_read_blocks += read;
                    ps.stats.fault_write_blocks += wrote;
                    ps.stats.io_time += io;
                    ps.stats.clock += io;
                    ps.stats.add_cpu(CpuOp::FaultOverhead, 1, fault_overhead);
                }
            }
        }
        Ok(())
    }
}

impl FileOps for SimFile {
    fn len(&self) -> u64 {
        self.entry.bytes
    }

    fn read_at(&self, proc: ProcId, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner.page_range(
            proc,
            proc,
            &self.entry,
            self.idx,
            offset,
            buf.len() as u64,
            false,
        )?;
        self.entry.body.lock().read(offset, buf);
        Ok(())
    }

    fn write_at(&self, proc: ProcId, offset: u64, buf: &[u8]) -> Result<()> {
        self.inner.page_range(
            proc,
            proc,
            &self.entry,
            self.idx,
            offset,
            buf.len() as u64,
            true,
        )?;
        self.entry.body.lock().write(offset, buf);
        Ok(())
    }

    fn sync(&self, _proc: ProcId) -> Result<()> {
        // The simulator updates file bodies synchronously at `write_at`
        // time (the pager only models *costs*), so durability is
        // immediate and this honors the flush-before-commit contract as
        // a no-op. Deliberately uncharged: the paper's model has no
        // msync operation.
        Ok(())
    }
}

impl Env for SimEnv {
    type File = SimFile;

    fn page_size(&self) -> u64 {
        self.inner.cfg.machine.page_size
    }

    fn num_disks(&self) -> u32 {
        self.inner.cfg.num_disks
    }

    fn create_file(
        &self,
        proc: ProcId,
        name: &str,
        disk: DiskId,
        bytes: u64,
    ) -> Result<Self::File> {
        if disk.0 >= self.inner.cfg.num_disks {
            return Err(EnvError::InvalidConfig(format!("no such disk {disk}")));
        }
        let page = self.page_size();
        let blocks = bytes.div_ceil(page);
        let start_block = {
            let mut ds = self.inner.disks[disk.0 as usize].lock();
            // Exact-fit reuse first (stable addresses for swap areas).
            if let Some(pos) = ds.free.iter().position(|&(_, len)| len == blocks) {
                let (start, _) = ds.free.swap_remove(pos);
                start
            } else {
                let start = ds.next_block;
                if start + blocks > self.inner.cfg.disk.capacity_blocks() {
                    return Err(EnvError::DiskFull(disk));
                }
                ds.next_block += blocks;
                start
            }
        };
        let entry = Arc::new(FileEntry {
            name: name.to_string(),
            disk,
            start_block,
            bytes,
            deleted: AtomicBool::new(false),
            body: Mutex::new(FileBody::new(bytes, page)),
        });
        let idx = {
            let mut files = self.inner.files.write();
            if files.by_name.contains_key(name) {
                return Err(EnvError::AlreadyExists(name.into()));
            }
            let idx = files.entries.len() as u32;
            files.entries.push(Some(entry.clone()));
            files.by_name.insert(name.to_string(), idx);
            idx
        };
        self.charge_map_op(proc, self.inner.cfg.machine.map_cost.new_map(blocks));
        self.trace(
            proc,
            StructuredEvent::MapSetup {
                proc: proc.0,
                op: MapOp::New,
                name: name.to_string(),
                disk: disk.0,
                bytes,
            },
        );
        Ok(SimFile {
            inner: self.inner.clone(),
            idx,
            entry,
        })
    }

    fn open_file(&self, proc: ProcId, name: &str) -> Result<Self::File> {
        let (idx, entry) = {
            let files = self.inner.files.read();
            let idx = *files
                .by_name
                .get(name)
                .ok_or_else(|| EnvError::NotFound(name.into()))?;
            let entry = files.entries[idx as usize]
                .clone()
                .ok_or_else(|| EnvError::NotFound(name.into()))?;
            (idx, entry)
        };
        let blocks = entry.blocks(self.page_size());
        self.charge_map_op(proc, self.inner.cfg.machine.map_cost.open_map(blocks));
        self.trace(
            proc,
            StructuredEvent::MapSetup {
                proc: proc.0,
                op: MapOp::Open,
                name: name.to_string(),
                disk: entry.disk.0,
                bytes: entry.bytes,
            },
        );
        Ok(SimFile {
            inner: self.inner.clone(),
            idx,
            entry,
        })
    }

    fn delete_file(&self, proc: ProcId, name: &str) -> Result<()> {
        let (idx, entry) = {
            let mut files = self.inner.files.write();
            let idx = files
                .by_name
                .remove(name)
                .ok_or_else(|| EnvError::NotFound(name.into()))?;
            let entry = files.entries[idx as usize]
                .take()
                .ok_or_else(|| EnvError::NotFound(name.into()))?;
            (idx, entry)
        };
        entry.deleted.store(true, Ordering::Release);
        // Discard resident pages everywhere; destroyed data is never
        // written back.
        for proc_state in &self.inner.procs {
            proc_state.lock().pager.drop_file(idx);
        }
        let blocks = entry.blocks(self.page_size());
        {
            let mut ds = self.inner.disks[entry.disk.0 as usize].lock();
            ds.free.push((entry.start_block, blocks));
        }
        self.charge_map_op(proc, self.inner.cfg.machine.map_cost.delete_map(blocks));
        self.trace(
            proc,
            StructuredEvent::MapTeardown {
                proc: proc.0,
                name: name.to_string(),
                disk: entry.disk.0,
            },
        );
        Ok(())
    }

    fn list_files(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.files.read().by_name.keys().cloned().collect();
        names.sort();
        names
    }

    fn cpu(&self, proc: ProcId, op: CpuOp, count: u64) {
        if count == 0 {
            return;
        }
        let each = self.inner.cfg.machine.op(op);
        self.inner
            .proc_state(proc)
            .lock()
            .stats
            .add_cpu(op, count, each);
    }

    fn move_bytes(&self, proc: ProcId, kind: MoveKind, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let per_byte = self.inner.cfg.machine.mt(kind);
        self.inner
            .proc_state(proc)
            .lock()
            .stats
            .add_move(kind, bytes, per_byte);
    }

    fn context_switches(&self, proc: ProcId, count: u64) {
        if count == 0 {
            return;
        }
        let each = self.inner.cfg.machine.cs;
        self.inner
            .proc_state(proc)
            .lock()
            .stats
            .add_ctx(count, each);
    }

    fn register_s(&self, catalog: SCatalog) -> Result<()> {
        if catalog.num_parts() != self.inner.cfg.num_disks {
            return Err(EnvError::BadSRequest(format!(
                "catalog has {} partitions, machine has {} disks",
                catalog.num_parts(),
                self.inner.cfg.num_disks
            )));
        }
        let mut parts = Vec::with_capacity(catalog.part_files.len());
        for name in &catalog.part_files {
            let files = self.inner.files.read();
            let idx = *files
                .by_name
                .get(name)
                .ok_or_else(|| EnvError::NotFound(name.clone()))?;
            let entry = files.entries[idx as usize]
                .clone()
                .ok_or_else(|| EnvError::NotFound(name.clone()))?;
            parts.push((idx, entry));
        }
        *self.inner.s_state.write() = Some(SState { catalog, parts });
        Ok(())
    }

    fn s_fetch_batch(
        &self,
        proc: ProcId,
        spart: u32,
        ptrs: &[SPtr],
        req_bytes_each: u64,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if ptrs.is_empty() {
            return Ok(());
        }
        let guard = self.inner.s_state.read();
        let s = guard
            .as_ref()
            .ok_or_else(|| EnvError::BadSRequest("no S catalog registered".into()))?;
        let (idx, entry) = s
            .parts
            .get(spart as usize)
            .ok_or_else(|| EnvError::BadSRequest(format!("no S partition {spart}")))?;
        let obj = s.catalog.s_obj_size as u64;
        let part_bytes = s.catalog.part_bytes;
        let d = self.inner.cfg.num_disks;
        let sproc = ProcId::sproc(spart, d);
        // Refuse the whole batch before charging anything.
        for ptr in ptrs {
            if ptr.partition(part_bytes) != spart {
                return Err(EnvError::BadSRequest(format!(
                    "{ptr} is not in partition {spart}"
                )));
            }
            entry.check_range(ptr.offset(part_bytes), obj)?;
        }
        // One shared-buffer exchange: two context switches, and
        // (req + s) bytes per object through shared memory (§5.3).
        self.context_switches(proc, 2);
        self.move_bytes(
            proc,
            MoveKind::PS,
            ptrs.len() as u64 * (req_bytes_each + obj),
        );
        let start = out.len();
        out.resize(start + ptrs.len() * obj as usize, 0);
        for (i, ptr) in ptrs.iter().enumerate() {
            let off = ptr.offset(part_bytes);
            // Fault through the owning Sproc's pager; the requesting
            // Rproc waits, so the time lands on its clock.
            if let Err(e) = self
                .inner
                .page_range(sproc, proc, entry, *idx, off, obj, false)
            {
                out.truncate(start);
                return Err(e);
            }
            let at = start + i * obj as usize;
            entry.body.lock().read(off, &mut out[at..at + obj as usize]);
        }
        let mut ps = self.inner.procs[proc.0 as usize].lock();
        ps.stats.s_batches += 1;
        ps.stats.s_objects += ptrs.len() as u64;
        Ok(())
    }

    /// See [`SimEnv`]-level docs: loads contents and marks every touched
    /// page as already materialized on disk — the relation pre-exists,
    /// so its first access during a join is a real (charged) read fault.
    fn preload(&self, name: &str, offset: u64, data: &[u8]) -> Result<()> {
        let entry = self.lookup(name)?;
        entry.check_range(offset, data.len() as u64)?;
        let mut body = entry.body.lock();
        body.write(offset, data);
        body.set_all_materialized();
        Ok(())
    }

    fn reset_stats(&self) {
        for p in &self.inner.procs {
            p.lock().stats = ProcStats::default();
        }
    }

    fn now(&self, proc: ProcId) -> f64 {
        self.inner.proc_state(proc).lock().stats.clock
    }

    fn stats(&self) -> EnvStats {
        EnvStats {
            procs: self
                .inner
                .procs
                .iter()
                .map(|p| p.lock().stats.clone())
                .collect(),
        }
    }

    fn trace_sink(&self) -> Arc<dyn TraceSink> {
        self.inner.sink.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_env() -> SimEnv {
        let mut cfg = SimConfig::waterloo96(2);
        cfg.rproc_pages = 4;
        cfg.sproc_pages = 4;
        SimEnv::new(cfg).unwrap()
    }

    const R0: ProcId = ProcId(0);

    #[test]
    fn rejects_mismatched_page_and_block_size() {
        let mut cfg = SimConfig::waterloo96(1);
        cfg.machine.page_size = 8192;
        assert!(SimEnv::new(cfg).is_err());
    }

    #[test]
    fn create_open_delete_lifecycle() {
        let env = small_env();
        let f = env.create_file(R0, "t", DiskId(0), 10_000).unwrap();
        assert_eq!(f.len(), 10_000);
        assert!(env.open_file(R0, "t").is_ok());
        assert!(matches!(
            env.create_file(R0, "t", DiskId(0), 1),
            Err(EnvError::AlreadyExists(_))
        ));
        env.delete_file(R0, "t").unwrap();
        assert!(matches!(env.open_file(R0, "t"), Err(EnvError::NotFound(_))));
        // Stale handle turns into NotFound.
        let mut buf = [0u8; 4];
        assert!(f.read_at(R0, 0, &mut buf).is_err());
    }

    #[test]
    fn read_write_roundtrip() {
        let env = small_env();
        let f = env.create_file(R0, "t", DiskId(0), 8192).unwrap();
        f.write_at(R0, 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        f.read_at(R0, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let env = small_env();
        let f = env.create_file(R0, "t", DiskId(0), 100).unwrap();
        let mut buf = [0u8; 8];
        assert!(f.read_at(R0, 96, &mut buf).is_err());
        assert!(f.write_at(R0, u64::MAX - 2, &[1, 2, 3]).is_err());
    }

    #[test]
    fn zero_fill_faults_cost_no_disk_read() {
        let env = small_env();
        let f = env.create_file(R0, "t", DiskId(0), 4 * 4096).unwrap();
        f.write_at(R0, 0, &[1u8; 4096]).unwrap();
        let st = env.stats();
        assert_eq!(st.procs[0].fault_read_blocks, 0, "fresh page is zero-fill");
        // CPU fault overhead is still charged.
        assert_eq!(st.procs[0].cpu_ops[CpuOp::FaultOverhead.index()], 1);
    }

    #[test]
    fn preloaded_pages_cost_disk_reads() {
        let env = small_env();
        env.create_file(R0, "r", DiskId(0), 4 * 4096).unwrap();
        env.preload("r", 0, &vec![7u8; 4 * 4096]).unwrap();
        let before = env.stats().procs[0].fault_read_blocks;
        let f = env.open_file(R0, "r").unwrap();
        let mut buf = vec![0u8; 4 * 4096];
        f.read_at(R0, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 7);
        let st = env.stats();
        assert_eq!(st.procs[0].fault_read_blocks - before, 4);
        assert!(st.procs[0].io_time > 0.0);
    }

    #[test]
    fn lru_eviction_writes_dirty_pages_back() {
        let env = small_env(); // 4-page budget
        let f = env.create_file(R0, "t", DiskId(0), 8 * 4096).unwrap();
        for p in 0..8u64 {
            f.write_at(R0, p * 4096, &[p as u8; 4096]).unwrap();
        }
        // 8 writes through a 4-page budget: 4 evictions, all dirty.
        let st = env.stats();
        assert_eq!(st.procs[0].fault_write_blocks, 4);
        // Evicted pages are re-readable with correct contents (and now
        // cost real reads).
        let mut buf = [0u8; 1];
        f.read_at(R0, 0, &mut buf).unwrap();
        assert_eq!(buf[0], 0);
        assert!(env.stats().procs[0].fault_read_blocks >= 1);
    }

    #[test]
    fn clock_accumulates_io_and_cpu() {
        let env = small_env();
        env.create_file(R0, "r", DiskId(0), 4096).unwrap();
        env.preload("r", 0, &[1u8; 4096]).unwrap();
        let f = env.open_file(R0, "r").unwrap();
        let mut b = [0u8; 1];
        f.read_at(R0, 0, &mut b).unwrap();
        env.cpu(R0, CpuOp::Compare, 1000);
        env.move_bytes(R0, MoveKind::PP, 10_000);
        let t = env.now(R0);
        let st = env.stats();
        let sum = st.procs[0].io_time
            + st.procs[0].cpu_time
            + st.procs[0].move_time
            + st.procs[0].ctx_time
            + st.procs[0].map_time;
        assert!((t - sum).abs() < 1e-12);
        assert!(t > 0.0);
    }

    #[test]
    fn serial_maps_charge_d_times() {
        let cfg = SimConfig::waterloo96(4);
        let priced = cfg.machine.map_cost.new_map(100);
        let env = SimEnv::new(cfg).unwrap();
        env.create_file(R0, "t", DiskId(0), 4096 * 100).unwrap();
        let st = env.stats();
        assert_eq!(st.procs[0].map_ops, 1);
        assert!((st.procs[0].map_time - 4.0 * priced).abs() < 1e-12);
    }

    #[test]
    fn s_fetch_returns_objects_and_charges_protocol() {
        let env = small_env();
        let part_bytes = 8 * 4096u64;
        for j in 0..2u32 {
            let name = format!("S_{j}");
            env.create_file(R0, &name, DiskId(j), part_bytes).unwrap();
            let mut data = vec![0u8; part_bytes as usize];
            for (i, chunk) in data.chunks_mut(128).enumerate() {
                chunk[0] = j as u8;
                chunk[1] = i as u8;
            }
            env.preload(&name, 0, &data).unwrap();
        }
        env.register_s(SCatalog {
            part_files: vec!["S_0".into(), "S_1".into()],
            part_bytes,
            s_obj_size: 128,
        })
        .unwrap();
        let ptrs = vec![
            SPtr::new(1, 0, part_bytes),
            SPtr::new(1, 3 * 128, part_bytes),
        ];
        let mut out = Vec::new();
        env.s_fetch_batch(R0, 1, &ptrs, 128 + 8, &mut out).unwrap();
        assert_eq!(out.len(), 2 * 128);
        assert_eq!((out[0], out[1]), (1, 0));
        assert_eq!((out[128], out[129]), (1, 3));
        let st = env.stats();
        assert_eq!(st.procs[0].ctx_switches, 2);
        assert_eq!(st.procs[0].s_batches, 1);
        assert_eq!(st.procs[0].s_objects, 2);
        assert_eq!(
            st.procs[0].move_bytes[MoveKind::PS.index()],
            2 * (128 + 8 + 128)
        );
        // Wrong partition is rejected.
        let bad = vec![SPtr::new(0, 0, part_bytes)];
        assert!(env.s_fetch_batch(R0, 1, &bad, 8, &mut out).is_err());
    }

    #[test]
    fn sproc_pager_caches_across_batches() {
        let env = small_env();
        let part_bytes = 4096u64;
        env.create_file(R0, "S_0", DiskId(0), part_bytes).unwrap();
        env.create_file(R0, "S_1", DiskId(1), part_bytes).unwrap();
        env.preload("S_0", 0, &vec![9u8; 4096]).unwrap();
        env.register_s(SCatalog {
            part_files: vec!["S_0".into(), "S_1".into()],
            part_bytes,
            s_obj_size: 64,
        })
        .unwrap();
        let p = vec![SPtr::new(0, 0, part_bytes)];
        let mut out = Vec::new();
        env.s_fetch_batch(R0, 0, &p, 8, &mut out).unwrap();
        let faults_after_first = env.stats().procs[0].fault_read_blocks;
        env.s_fetch_batch(R0, 0, &p, 8, &mut out).unwrap();
        let faults_after_second = env.stats().procs[0].fault_read_blocks;
        assert_eq!(faults_after_first, 1);
        assert_eq!(faults_after_second, 1, "second fetch hits Sproc cache");
    }

    #[test]
    fn queued_contention_inflates_no_single_proc() {
        // With a single process, queued mode must equal independent mode.
        let mut cfg = SimConfig::waterloo96(1);
        cfg.contention = ContentionMode::Queued;
        let env = SimEnv::new(cfg).unwrap();
        env.create_file(R0, "t", DiskId(0), 16 * 4096).unwrap();
        env.preload("t", 0, &vec![1u8; 16 * 4096]).unwrap();
        let f = env.open_file(R0, "t").unwrap();
        let mut buf = vec![0u8; 4096];
        for p in 0..16u64 {
            f.read_at(R0, p * 4096, &mut buf).unwrap();
        }
        let queued_io = env.stats().procs[0].io_time;

        let mut cfg2 = SimConfig::waterloo96(1);
        cfg2.contention = ContentionMode::Independent;
        let env2 = SimEnv::new(cfg2).unwrap();
        env2.create_file(R0, "t", DiskId(0), 16 * 4096).unwrap();
        env2.preload("t", 0, &vec![1u8; 16 * 4096]).unwrap();
        let f2 = env2.open_file(R0, "t").unwrap();
        for p in 0..16u64 {
            f2.read_at(R0, p * 4096, &mut buf).unwrap();
        }
        let indep_io = env2.stats().procs[0].io_time;
        assert!((queued_io - indep_io).abs() < 1e-9);
    }

    #[test]
    fn extent_reuse_is_exact_fit() {
        let env = small_env();
        env.create_file(R0, "a", DiskId(0), 10 * 4096).unwrap();
        env.create_file(R0, "b", DiskId(0), 5 * 4096).unwrap();
        env.delete_file(R0, "a").unwrap();
        // Same-size re-creation reuses a's extent (start block 0).
        env.create_file(R0, "c", DiskId(0), 10 * 4096).unwrap();
        // Different size does not; it bumps.
        env.create_file(R0, "d", DiskId(0), 1).unwrap();
        // No assertion on internals beyond success; behaviour is
        // observable through stable performance of swap patterns, and
        // exercised heavily by the sort-merge tests.
        env.delete_file(R0, "c").unwrap();
        env.delete_file(R0, "d").unwrap();
    }

    proptest::proptest! {
        /// The page-backed body reads back exactly what a flat buffer
        /// would: pieces that straddle pages, pages never written (zeros,
        /// and no buffer allocated), and the whole file at the end.
        #[test]
        fn file_body_matches_a_flat_buffer(
            page in 1u64..40,
            bytes in 1u64..300,
            ops in proptest::collection::vec(
                (proptest::bool::ANY, 0u64..300, 0usize..100, 0u8..255),
                0..60,
            ),
        ) {
            let mut body = FileBody::new(bytes, page);
            let mut flat = vec![0u8; bytes as usize];
            let mut written = vec![false; body.pages.len()];
            for (write, offset, len, fill) in ops {
                let offset = offset % bytes;
                let at = offset as usize;
                let len = len.min(flat.len() - at);
                if write {
                    let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                    body.write(offset, &data);
                    flat[at..at + len].copy_from_slice(&data);
                    for b in at..at + len {
                        written[b / page as usize] = true;
                    }
                } else {
                    let mut got = vec![0xAA; len];
                    body.read(offset, &mut got);
                    proptest::prop_assert_eq!(&got[..], &flat[at..at + len]);
                }
            }
            let mut all = vec![0xAA; flat.len()];
            body.read(0, &mut all);
            proptest::prop_assert_eq!(all, flat);
            let allocated: Vec<bool> = body.pages.iter().map(Option::is_some).collect();
            proptest::prop_assert_eq!(allocated, written);
        }

        /// `preload` in chunks at offsets that straddle pages, then
        /// `s_fetch_batch` of objects whose size does not divide the
        /// page: both agree with a flat copy of the partition.
        #[test]
        fn preload_and_s_fetch_match_a_flat_partition(
            obj in 1u64..300,
            objects in 1u64..120,
            chunk in 1usize..5000,
            picks in proptest::collection::vec(0u64..1_000, 1..40),
        ) {
            let env = small_env();
            let part_bytes = obj * objects;
            let mut flats = Vec::new();
            for j in 0..2u32 {
                let name = format!("S_{j}");
                env.create_file(R0, &name, DiskId(j), part_bytes).unwrap();
                let flat: Vec<u8> = (0..part_bytes).map(|b| (b * 7 + u64::from(j)) as u8).collect();
                for (k, piece) in flat.chunks(chunk).enumerate() {
                    env.preload(&name, (k * chunk) as u64, piece).unwrap();
                }
                let mut back = vec![0u8; flat.len()];
                env.peek(&name, 0, &mut back).unwrap();
                proptest::prop_assert_eq!(&back, &flat);
                flats.push(flat);
            }
            env.register_s(SCatalog {
                part_files: vec!["S_0".into(), "S_1".into()],
                part_bytes,
                s_obj_size: obj as u32,
            })
            .unwrap();
            let slots: Vec<u64> = picks.iter().map(|p| p % objects).collect();
            let ptrs: Vec<SPtr> = slots.iter().map(|s| SPtr::new(1, s * obj, part_bytes)).collect();
            let mut out = vec![0xEE; 3];
            env.s_fetch_batch(R0, 1, &ptrs, 8, &mut out).unwrap();
            let mut want = vec![0xEE; 3];
            for s in &slots {
                want.extend_from_slice(&flats[1][(s * obj) as usize..((s + 1) * obj) as usize]);
            }
            proptest::prop_assert_eq!(out, want);
        }
    }
}

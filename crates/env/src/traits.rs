//! The [`Env`] and [`FileOps`] traits: everything a parallel
//! pointer-based join algorithm needs from its environment.
//!
//! The abstraction deliberately mirrors how the paper's algorithms touch
//! the machine:
//!
//! * partitions and temporary areas are *memory-mapped files on specific
//!   disks* — created, opened and deleted at measured `newMap`/`openMap`/
//!   `deleteMap` cost;
//! * reads and writes are implicit: "when we speak of reading a block of
//!   data, the implementation actually accesses a location in virtual
//!   memory mapped to that block" (§4) — so [`FileOps::read_at`]/
//!   [`FileOps::write_at`] may fault and cost disk time, or hit and cost
//!   nothing, depending on the environment's paging state;
//! * all access to the inner relation `S` goes through the owning
//!   `Sproc` via a shared-memory buffer exchange
//!   ([`Env::s_fetch_batch`]), which is where context switches and
//!   private↔shared transfer costs arise;
//! * CPU-side costs (`map`, `hash`, heap operations, memory moves) are
//!   *declared* by the algorithm via [`Env::cpu`]/[`Env::move_bytes`] so
//!   the simulated environment can price them with the measured machine
//!   parameters. The real environment ignores these declarations — there
//!   the costs are incurred physically.

use crate::error::Result;
use crate::trace::{null_sink, TraceEvent, TraceSink};
use crate::{CpuOp, DiskId, EnvStats, MoveKind, ProcId, SPtr};
use std::sync::Arc;

/// Byte-addressed access to one mapped file (a relation partition or a
/// temporary area).
pub trait FileOps: Send + Sync {
    /// Allocated size in bytes.
    fn len(&self) -> u64;

    /// True if the file has zero allocated bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read `buf.len()` bytes starting at `offset`, charging the
    /// requesting process for any page faults.
    fn read_at(&self, proc: ProcId, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Write `buf` starting at `offset`, dirtying the touched pages;
    /// write-back happens on page replacement, as in a memory-mapped
    /// store.
    fn write_at(&self, proc: ProcId, offset: u64, buf: &[u8]) -> Result<()>;

    /// Force every byte previously written through this handle to
    /// durable storage before returning (`msync` semantics).
    ///
    /// This is the primitive behind the journal's *flush-before-commit*
    /// ordering contract: a writer that performs
    ///
    /// 1. `write_at(data)` → `sync()` → 2. `write_at(commit)` → `sync()`
    ///
    /// is guaranteed that no post-crash state exists in which the commit
    /// record is durable but the data it covers is not. Within a single
    /// step writes may still be torn (persisted prefix-only) or
    /// corrupted — that is what the journal's per-record checksums
    /// detect.
    ///
    /// Environments with immediate durability (e.g. the simulator, whose
    /// file bodies are updated synchronously at `write_at` time) may
    /// implement this as a no-op; the default does exactly that.
    fn sync(&self, proc: ProcId) -> Result<()> {
        let _ = proc;
        Ok(())
    }
}

/// Catalog describing where the inner relation `S` lives, registered
/// once before a join so the environment can serve `Sproc` exchanges
/// over it.
#[derive(Clone, Debug)]
pub struct SCatalog {
    /// File name of each partition `S_j`, indexed by partition.
    pub part_files: Vec<String>,
    /// Logical bytes spanned by each partition (uniform, per §4's
    /// equal-sized partitions); `MAP(sptr) = sptr / part_bytes`.
    pub part_bytes: u64,
    /// Size in bytes of one S-object (`s` in the paper).
    pub s_obj_size: u32,
}

impl SCatalog {
    /// Number of S partitions.
    pub fn num_parts(&self) -> u32 {
        self.part_files.len() as u32
    }
}

/// A memory-mapped execution environment for parallel pointer-based
/// joins.
///
/// Implementations must be shareable across the `D` Rproc threads of a
/// join, which may fetch from one `S` partition at once.
pub trait Env: Send + Sync {
    /// Handle to a mapped file.
    type File: FileOps + Clone + Send + Sync;

    /// `B`: the virtual-memory page size in bytes.
    fn page_size(&self) -> u64;

    /// `D`: the number of parallel disks.
    fn num_disks(&self) -> u32;

    /// Create (and map) a new file of `bytes` bytes on `disk`, charging
    /// `newMap`. Files are laid out on the disk in creation order,
    /// matching the layout diagrams in §5.3/§6.3.
    fn create_file(&self, proc: ProcId, name: &str, disk: DiskId, bytes: u64)
        -> Result<Self::File>;

    /// Map an existing file, charging `openMap`.
    fn open_file(&self, proc: ProcId, name: &str) -> Result<Self::File>;

    /// Destroy a mapping and its data, charging `deleteMap`.
    fn delete_file(&self, proc: ProcId, name: &str) -> Result<()>;

    /// Names of every live file, in unspecified order, without
    /// measurement charges. Recovery code diffs this table around a
    /// failed join to find (and delete) orphaned temporary areas, and
    /// tests use it as a leak check.
    fn list_files(&self) -> Vec<String>;

    /// Declare `count` occurrences of CPU operation `op` by `proc`.
    fn cpu(&self, proc: ProcId, op: CpuOp, count: u64);

    /// Declare a memory move of `bytes` bytes of kind `kind` by `proc`.
    fn move_bytes(&self, proc: ProcId, kind: MoveKind, bytes: u64);

    /// Declare `count` context switches experienced by `proc`.
    fn context_switches(&self, proc: ProcId, count: u64);

    /// Register the inner relation: check the catalog and hold its
    /// partitions for [`Env::s_fetch_batch`]. No environment runs an
    /// `Sproc` thread: `SimEnv` charges a fetch's faults to
    /// `Sproc_{spart}`'s pager, and `MmapEnv` copies out of the
    /// partition's mapping in the requesting thread. On both, each
    /// exchange's counters (two context switches, the PS bytes) are the
    /// protocol's declared cost.
    fn register_s(&self, catalog: SCatalog) -> Result<()>;

    /// One shared-buffer exchange with `Sproc_{spart}` (§5.1's buffer of
    /// size `G`): request the S-objects named by `ptrs` (all of which
    /// must lie in partition `spart`) and append them, in request order,
    /// to `out`.
    ///
    /// `req_bytes_each` is the number of R-side bytes accompanying each
    /// pointer in the shared buffer (the R-object plus the copied-out
    /// `sptr`), so the environment can charge the private→shared
    /// transfers of §5.3: per joined object, `(r + sptr + s)` bytes move
    /// through shared memory and the batch costs two context switches.
    ///
    /// Appends on success; on `Err`, `out` and the counters are
    /// unchanged — a batch with any pointer outside `spart` or past the
    /// end of its file is refused whole.
    fn s_fetch_batch(
        &self,
        proc: ProcId,
        spart: u32,
        ptrs: &[SPtr],
        req_bytes_each: u64,
        out: &mut Vec<u8>,
    ) -> Result<()>;

    /// Release the registered partitions (join drivers call this once
    /// the join completes); `MmapEnv` refuses later fetches until the
    /// next [`Env::register_s`]. Default: nothing to release.
    fn shutdown_s(&self) {}

    /// Bulk-load file contents outside any measurement: no paging, no
    /// cost. Models relations that already exist on disk before a join
    /// begins — loading them is the workload generator's job, not the
    /// join's. A range past the file's end is refused whole
    /// (`OutOfBounds`) and writes nothing.
    ///
    /// "No cost" means, per environment: `SimEnv` copies `data` into
    /// the file body and marks every page materialized on disk, so the
    /// join's first touch of a page is a charged read fault. `MmapEnv`
    /// writes through the file descriptor, not the mapping, then maps
    /// the written pages writable with one `madvise` per call: loading
    /// takes no fault per page, and the join and later `write_at`
    /// patches find the pages mapped, as a copy through the mapping
    /// would leave them.
    fn preload(&self, name: &str, offset: u64, data: &[u8]) -> Result<()>;

    /// Zero every per-process counter and clock. Drivers call this after
    /// workload setup so a join is measured from a clean origin (caches
    /// start cold either way: `preload` bypasses them).
    fn reset_stats(&self);

    /// Current clock of `proc` in seconds (virtual time in a simulator,
    /// wall time in a real environment).
    fn now(&self, proc: ProcId) -> f64;

    /// Snapshot all per-process counters.
    fn stats(&self) -> EnvStats;

    /// The structured trace sink this environment emits to. Defaults to
    /// the shared [`NullSink`](crate::NullSink) (tracing off); concrete
    /// environments override this with a settable sink.
    fn trace_sink(&self) -> Arc<dyn TraceSink> {
        null_sink()
    }

    /// Emit a structured trace event stamped with `proc`'s current
    /// clock. Wrappers (e.g. `FaultyEnv`) inherit the inner sink via
    /// [`Env::trace_sink`], so events flow to one place.
    fn trace(&self, proc: ProcId, event: TraceEvent) {
        let sink = self.trace_sink();
        if sink.enabled() {
            sink.emit(self.now(proc), event);
        }
    }
}

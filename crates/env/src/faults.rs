//! Deterministic fault injection: [`FaultyEnv`] wraps any [`Env`] and
//! injects seeded faults described by a parsed [`FaultSpec`].
//!
//! The paper's algorithms (and the `mmjoin-serve` worker pool built on
//! them) assume every disk read, write and map-setup call succeeds. This
//! module is the chaos layer that lets the rest of the workspace drop
//! that assumption without touching real hardware: transient read/write
//! I/O errors, map-setup failures, `DiskFull` on create, and wall-clock
//! latency spikes, all drawn from a seeded generator so a failing run
//! replays exactly.
//!
//! # Spec grammar
//!
//! A spec is `;`-separated rules (empty string or `none` = no faults,
//! full passthrough):
//!
//! ```text
//! spec  := '' | 'none' | item (';' item)*
//! item  := 'seed=' N | rule
//! rule  := kind (':' key '=' value)*
//! kind  := read | write | create | open | delete | sfetch | diskfull | delay
//!        | torn_write | bit_corrupt | crash
//! key   := p      injection probability per matching op   (default 1.0)
//!        | count  max injections for this rule            (default 1)
//!        | after  matching ops skipped before arming      (default 0)
//!        | disk   only ops touching this disk             (default any)
//!        | file   only files whose name contains this     (default any)
//!        | ms     delay kind only: spike length in ms     (default 10)
//!        | frac   torn_write only: persisted prefix frac  (default 0.5)
//!        | hard   crash only: 1 = abort the whole process (default 0)
//! ```
//!
//! Example: `seed=7;read:p=0.05:count=3:disk=1;delay:p=0.01:ms=5:count=20`
//! injects up to three transient read errors on disk 1 with 5%
//! probability each, plus up to twenty 5 ms latency spikes.
//!
//! The three crash-consistency kinds model storage failures rather than
//! transient errors. `torn_write` silently persists only a prefix of the
//! buffer (`frac` of its length) — the op *appears* to succeed, exactly
//! like a write torn by power loss; the journal's CRC32 record checksums
//! are what detect it. `bit_corrupt` flips one seeded bit of the buffer
//! before persisting it. `crash` stops execution at a seeded point
//! (counted across every read/write/map/sfetch candidate op): by default
//! it fails the operation with a *non-transient* error so the current
//! iteration aborts; with `hard=1` it calls `std::process::abort()` —
//! the in-process equivalent of `kill -9`, used by the chaos-restart
//! tests to kill a serve mid-job at a deterministic op index.
//!
//! Because the temporary areas of the join algorithms have pass-specific
//! names (`R_i` is read in pass 0, `RP_i` written in pass 0 and read in
//! pass 1, `RS_i` written in pass 1 and read in the join pass, `S_j`
//! read in the join pass), `file=` targets faults at a specific pass of
//! the re-partitioning prologue.
//!
//! # Determinism
//!
//! One seeded xorshift generator is shared by all rules; every matching
//! candidate op consumes exactly one draw. Under
//! `ExecMode::Sequential` (the service default) the op order is fixed,
//! so a given seed injects the same faults at the same points on every
//! run. Threaded joins interleave ops and are deterministic only in
//! aggregate probability.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::error::{EnvError, Result};
use crate::trace::{TraceEvent, TraceSink};
use crate::{CpuOp, DiskId, Env, EnvStats, FileOps, MoveKind, ProcId, SCatalog, SPtr};

/// Operations a fault rule can target.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Transient I/O error on `read_at`.
    Read,
    /// Transient I/O error on `write_at`.
    Write,
    /// Transient map-setup failure on `create_file` (`newMap`).
    Create,
    /// Transient map-setup failure on `open_file` (`openMap`).
    Open,
    /// Transient failure on `delete_file` (`deleteMap`).
    Delete,
    /// Transient failure of one shared-buffer exchange with an `Sproc`.
    SFetch,
    /// `DiskFull` on `create_file` — non-transient; exercises the
    /// service's graceful-degradation path.
    DiskFull,
    /// Wall-clock latency spike on `read_at`/`write_at` (no error).
    Delay,
    /// Silently persist only a prefix of a `write_at` buffer (the op
    /// reports success), modeling a write torn by power loss.
    TornWrite,
    /// Flip one seeded bit of a `write_at` buffer before persisting.
    BitCorrupt,
    /// Stop at a seeded point: non-transient failure of the op, or
    /// `std::process::abort()` when the rule sets `hard=1`.
    Crash,
}

impl FaultKind {
    /// Parse a rule kind name.
    pub fn from_name(s: &str) -> Option<FaultKind> {
        Some(match s {
            "read" => FaultKind::Read,
            "write" => FaultKind::Write,
            "create" => FaultKind::Create,
            "open" => FaultKind::Open,
            "delete" => FaultKind::Delete,
            "sfetch" => FaultKind::SFetch,
            "diskfull" => FaultKind::DiskFull,
            "delay" => FaultKind::Delay,
            "torn_write" => FaultKind::TornWrite,
            "bit_corrupt" => FaultKind::BitCorrupt,
            "crash" => FaultKind::Crash,
            _ => return None,
        })
    }

    /// Display name (round-trips through [`FaultKind::from_name`]).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Read => "read",
            FaultKind::Write => "write",
            FaultKind::Create => "create",
            FaultKind::Open => "open",
            FaultKind::Delete => "delete",
            FaultKind::SFetch => "sfetch",
            FaultKind::DiskFull => "diskfull",
            FaultKind::Delay => "delay",
            FaultKind::TornWrite => "torn_write",
            FaultKind::BitCorrupt => "bit_corrupt",
            FaultKind::Crash => "crash",
        }
    }

    /// The env operation this rule kind watches.
    fn watches(self, op: FaultKind) -> bool {
        match self {
            // DiskFull arms on creates; Delay arms on reads and writes.
            FaultKind::DiskFull => op == FaultKind::Create,
            FaultKind::Delay => matches!(op, FaultKind::Read | FaultKind::Write),
            // Data-mutating kinds only make sense on writes.
            FaultKind::TornWrite | FaultKind::BitCorrupt => op == FaultKind::Write,
            // A crash point is counted across every candidate op, so
            // `after=K` names the K-th environment operation of any kind.
            FaultKind::Crash => true,
            k => op == k,
        }
    }
}

/// One parsed injection rule.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// What to inject, and into which operation.
    pub kind: FaultKind,
    /// Injection probability per armed matching op.
    pub p: f64,
    /// Max injections before the rule exhausts.
    pub count: u64,
    /// Matching ops to skip before the rule arms.
    pub after: u64,
    /// Only ops on this disk (when the wrapper knows the disk).
    pub disk: Option<u32>,
    /// Only files whose name contains this substring.
    pub file: Option<String>,
    /// Spike length for `delay` rules, in milliseconds.
    pub delay_ms: u64,
    /// Fraction of the buffer persisted by `torn_write` rules.
    pub frac: f64,
    /// `crash` rules: abort the whole process instead of failing the op.
    pub hard: bool,
}

impl FaultRule {
    fn new(kind: FaultKind) -> Self {
        FaultRule {
            kind,
            p: 1.0,
            count: 1,
            after: 0,
            disk: None,
            file: None,
            delay_ms: 10,
            frac: 0.5,
            hard: false,
        }
    }

    fn matches(&self, op: FaultKind, disk: Option<DiskId>, name: &str) -> bool {
        self.kind.watches(op)
            && self.disk.is_none_or(|d| disk.is_some_and(|got| got.0 == d))
            && self.file.as_ref().is_none_or(|f| name.contains(f))
    }
}

/// A parsed fault specification: a seed plus a list of rules.
#[derive(Clone, Debug, Default)]
pub struct FaultSpec {
    /// Seed of the shared draw generator.
    pub seed: u64,
    /// Rules, consulted in order for every candidate op.
    pub rules: Vec<FaultRule>,
}

impl FaultSpec {
    /// No faults: [`FaultyEnv`] with an empty spec is a pure
    /// passthrough.
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// True if no rule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Parse the grammar described at module level. A key given twice,
    /// `seed=` or one within a rule, is refused by name.
    pub fn parse(s: &str) -> std::result::Result<FaultSpec, String> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> std::result::Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{key}: cannot parse '{value}'"))
        }
        let twice = |key: &str| format!("{key}= given more than once");
        let mut spec = FaultSpec::none();
        let s = s.trim();
        if s.is_empty() || s == "none" {
            return Ok(spec);
        }
        let mut seeded = false;
        for item in s.split(';') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            if let Some(seed) = item.strip_prefix("seed=") {
                if seeded {
                    return Err(twice("seed"));
                }
                seeded = true;
                spec.seed = num("seed", seed)?;
                continue;
            }
            let mut parts = item.split(':');
            let kind_name = parts.next().unwrap_or_default();
            let kind = FaultKind::from_name(kind_name).ok_or_else(|| {
                format!(
                    "unknown fault kind '{kind_name}' \
                     (read|write|create|open|delete|sfetch|diskfull|delay\
                     |torn_write|bit_corrupt|crash)"
                )
            })?;
            let mut rule = FaultRule::new(kind);
            let mut keys = Vec::new();
            for kv in parts {
                let (key, value) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value in fault rule, got '{kv}'"))?;
                if keys.contains(&key) {
                    return Err(twice(key));
                }
                keys.push(key);
                match key {
                    "p" => {
                        rule.p = num(key, value)?;
                        if !(0.0..=1.0).contains(&rule.p) {
                            return Err(format!("p must be in [0,1], got {value}"));
                        }
                    }
                    "count" => rule.count = num(key, value)?,
                    "after" => rule.after = num(key, value)?,
                    "disk" => rule.disk = Some(num(key, value)?),
                    "file" => rule.file = Some(value.to_string()),
                    "ms" => rule.delay_ms = num(key, value)?,
                    "frac" => {
                        rule.frac = num(key, value)?;
                        if !(0.0..=1.0).contains(&rule.frac) {
                            return Err(format!("frac must be in [0,1], got {value}"));
                        }
                    }
                    "hard" => {
                        rule.hard = match value {
                            "0" => false,
                            "1" => true,
                            _ => return Err(format!("hard must be 0 or 1, got '{value}'")),
                        };
                    }
                    other => return Err(format!("unknown fault rule key '{other}'")),
                }
            }
            spec.rules.push(rule);
        }
        Ok(spec)
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        FaultSpec::parse(s)
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            return write!(f, "none");
        }
        write!(f, "seed={}", self.seed)?;
        for r in &self.rules {
            write!(f, ";{}", r.kind.name())?;
            if r.p != 1.0 {
                write!(f, ":p={}", r.p)?;
            }
            if r.count != 1 {
                write!(f, ":count={}", r.count)?;
            }
            if r.after != 0 {
                write!(f, ":after={}", r.after)?;
            }
            if let Some(d) = r.disk {
                write!(f, ":disk={d}")?;
            }
            if let Some(file) = &r.file {
                write!(f, ":file={file}")?;
            }
            if r.kind == FaultKind::Delay {
                write!(f, ":ms={}", r.delay_ms)?;
            }
            if r.kind == FaultKind::TornWrite && r.frac != 0.5 {
                write!(f, ":frac={}", r.frac)?;
            }
            if r.hard {
                write!(f, ":hard=1")?;
            }
        }
        Ok(())
    }
}

/// Injection counters, mirrored live by every wrapped operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient errors injected into `read_at`.
    pub read_errors: u64,
    /// Transient errors injected into `write_at`.
    pub write_errors: u64,
    /// Map-setup failures injected into `create_file`/`open_file`/
    /// `delete_file`.
    pub map_errors: u64,
    /// Transient errors injected into `s_fetch_batch`.
    pub sfetch_errors: u64,
    /// `DiskFull` errors injected into `create_file`.
    pub disk_full: u64,
    /// Latency spikes injected.
    pub delays: u64,
    /// Total injected delay, in milliseconds.
    pub delay_ms: u64,
    /// Writes persisted prefix-only by `torn_write` rules.
    pub torn_writes: u64,
    /// Writes with one bit flipped by `bit_corrupt` rules.
    pub bit_corrupts: u64,
    /// `crash` rules fired in soft (op-failing) mode. Hard crashes
    /// abort the process and are never observed here.
    pub crashes: u64,
}

impl FaultStats {
    /// All injected faults (latency spikes included).
    pub fn total(&self) -> u64 {
        self.read_errors
            + self.write_errors
            + self.map_errors
            + self.sfetch_errors
            + self.disk_full
            + self.delays
            + self.torn_writes
            + self.bit_corrupts
            + self.crashes
    }
}

/// What the injector decided to do to one candidate operation.
#[derive(Debug)]
pub enum Outcome {
    /// Proceed unchanged.
    Pass,
    /// Fail the operation with this error.
    Fail(EnvError),
    /// Write ops only: silently persist only the first `len` bytes.
    Torn {
        /// Bytes of the buffer to persist.
        len: usize,
    },
    /// Write ops only: flip `mask` in byte `byte` before persisting.
    Corrupt {
        /// Index of the byte to corrupt.
        byte: usize,
        /// Single-bit mask to XOR into the byte.
        mask: u8,
    },
}

/// Per-rule arming state.
#[derive(Default)]
struct RuleState {
    seen: u64,
    injected: u64,
}

/// The shared injector: spec + RNG + counters.
struct Injector {
    spec: FaultSpec,
    /// xorshift64* state; `0` draws are avoided by seeding with a
    /// non-zero constant mix.
    rng: AtomicU64,
    rule_states: Vec<Mutex<RuleState>>,
    stats: Mutex<FaultStats>,
}

impl Injector {
    fn new(spec: FaultSpec) -> Self {
        let rng = AtomicU64::new(spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let rule_states = spec.rules.iter().map(|_| Mutex::default()).collect();
        Injector {
            spec,
            rng,
            rule_states,
            stats: Mutex::new(FaultStats::default()),
        }
    }

    /// One uniform draw in [0,1).
    fn draw(&self) -> f64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        loop {
            let mut y = x;
            y ^= y << 13;
            y ^= y >> 7;
            y ^= y << 17;
            match self
                .rng
                .compare_exchange_weak(x, y, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return (y >> 11) as f64 / (1u64 << 53) as f64,
                Err(actual) => x = actual,
            }
        }
    }

    fn stats_mut(&self) -> std::sync::MutexGuard<'_, FaultStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consult every rule for one candidate `op`; sleeps for matching
    /// delay rules and returns the first injected error. (Test-facing
    /// wrapper over [`Injector::check_op`]; production callers go
    /// through `FaultyInner`, which also mirrors trace events.)
    #[cfg(test)]
    fn check(&self, op: FaultKind, disk: Option<DiskId>, name: &str) -> Result<()> {
        match self.check_op(op, disk, name, None).0 {
            Outcome::Pass | Outcome::Torn { .. } | Outcome::Corrupt { .. } => Ok(()),
            Outcome::Fail(e) => Err(e),
        }
    }

    /// Consult every rule for one candidate `op`. `write_len` is the
    /// buffer length for write ops (enabling the data-mutating
    /// `torn_write`/`bit_corrupt` outcomes). Sleeps for matching delay
    /// rules. Returns the outcome plus the fired rule kind's name (for
    /// trace mirroring); a delay that fired without a later error
    /// reports `Some("delay")`.
    fn check_op(
        &self,
        op: FaultKind,
        disk: Option<DiskId>,
        name: &str,
        write_len: Option<usize>,
    ) -> (Outcome, Option<&'static str>) {
        if self.spec.is_empty() {
            return (Outcome::Pass, None);
        }
        let mut fired = None;
        for (rule, state) in self.spec.rules.iter().zip(&self.rule_states) {
            if !rule.matches(op, disk, name) {
                continue;
            }
            let armed = {
                let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                st.seen += 1;
                st.seen > rule.after && st.injected < rule.count
            };
            if !armed || (rule.p < 1.0 && self.draw() >= rule.p) {
                continue;
            }
            state.lock().unwrap_or_else(|e| e.into_inner()).injected += 1;
            let mut stats = self.stats_mut();
            match rule.kind {
                FaultKind::Delay => {
                    stats.delays += 1;
                    stats.delay_ms += rule.delay_ms;
                    drop(stats);
                    std::thread::sleep(std::time::Duration::from_millis(rule.delay_ms));
                    // A spike is not an error; later rules still apply.
                    fired = Some(FaultKind::Delay.name());
                    continue;
                }
                FaultKind::DiskFull => {
                    stats.disk_full += 1;
                    return (
                        Outcome::Fail(EnvError::DiskFull(disk.unwrap_or(DiskId(0)))),
                        Some(FaultKind::DiskFull.name()),
                    );
                }
                FaultKind::TornWrite => {
                    let Some(len) = write_len else { continue };
                    stats.torn_writes += 1;
                    let keep = (len as f64 * rule.frac) as usize;
                    return (
                        Outcome::Torn { len: keep.min(len) },
                        Some(FaultKind::TornWrite.name()),
                    );
                }
                FaultKind::BitCorrupt => {
                    let Some(len) = write_len else { continue };
                    if len == 0 {
                        continue;
                    }
                    stats.bit_corrupts += 1;
                    drop(stats);
                    let byte = ((self.draw() * len as f64) as usize).min(len - 1);
                    let mask = 1u8 << ((self.draw() * 8.0) as u32 & 7);
                    return (
                        Outcome::Corrupt { byte, mask },
                        Some(FaultKind::BitCorrupt.name()),
                    );
                }
                FaultKind::Crash => {
                    if rule.hard {
                        // The in-process `kill -9`: no unwinding, no
                        // destructors, no journal flush. Recovery must
                        // work from whatever was synced before this op.
                        std::process::abort();
                    }
                    stats.crashes += 1;
                    return (
                        Outcome::Fail(EnvError::Faulted {
                            op: format!("crash at {} {name}", op_label(op)),
                            transient: false,
                        }),
                        Some(FaultKind::Crash.name()),
                    );
                }
                FaultKind::Read => stats.read_errors += 1,
                FaultKind::Write => stats.write_errors += 1,
                FaultKind::Create | FaultKind::Open | FaultKind::Delete => stats.map_errors += 1,
                FaultKind::SFetch => stats.sfetch_errors += 1,
            }
            return (
                Outcome::Fail(EnvError::Faulted {
                    op: format!("{} {name}", op_label(rule.kind)),
                    transient: true,
                }),
                Some(rule.kind.name()),
            );
        }
        (Outcome::Pass, fired)
    }
}

fn op_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Read => "read_at",
        FaultKind::Write => "write_at",
        FaultKind::Create => "create_file(newMap)",
        FaultKind::Open => "open_file(openMap)",
        FaultKind::Delete => "delete_file(deleteMap)",
        FaultKind::SFetch => "s_fetch_batch",
        FaultKind::DiskFull
        | FaultKind::Delay
        | FaultKind::TornWrite
        | FaultKind::BitCorrupt
        | FaultKind::Crash => "",
    }
}

/// Best-effort disk recovery from the workspace naming convention
/// (`R_3`, `S_3`, `RP_3`, `RS_3`, `Merge_3`, possibly scoped as
/// `prefix.NAME_3#tag` — partition `i` always lives on disk `i`), for
/// files the wrapper did not see being created.
fn guess_disk(name: &str) -> Option<DiskId> {
    let base = name.split('#').next().unwrap_or(name);
    let digits = base.rsplit('_').next()?;
    digits.parse::<u32>().ok().map(DiskId)
}

struct FaultyInner<E: Env> {
    env: E,
    injector: Injector,
    /// Disk of every file created through this wrapper.
    disks: Mutex<HashMap<String, DiskId>>,
}

impl<E: Env> FaultyInner<E> {
    /// Run the injector for one candidate op, mirroring every injection
    /// — transient errors, `DiskFull`, data mutations, and delay spikes
    /// alike — into the wrapped environment's structured trace. An empty
    /// spec stays a strict no-op: no draws, no events.
    fn check_op(
        &self,
        proc: ProcId,
        op: FaultKind,
        disk: Option<DiskId>,
        name: &str,
        write_len: Option<usize>,
    ) -> Outcome {
        if self.injector.spec.is_empty() {
            return Outcome::Pass;
        }
        let (outcome, fired) = self.injector.check_op(op, disk, name, write_len);
        if let Some(kind) = fired {
            self.env.trace(
                proc,
                TraceEvent::FaultInjected {
                    proc: proc.0,
                    op: op.name().to_string(),
                    kind: kind.to_string(),
                    name: name.to_string(),
                    disk: disk.map(|d| d.0),
                },
            );
        }
        outcome
    }

    fn check(&self, proc: ProcId, op: FaultKind, disk: Option<DiskId>, name: &str) -> Result<()> {
        match self.check_op(proc, op, disk, name, None) {
            Outcome::Pass | Outcome::Torn { .. } | Outcome::Corrupt { .. } => Ok(()),
            Outcome::Fail(e) => Err(e),
        }
    }
}

/// An [`Env`] wrapper injecting seeded deterministic faults (see the
/// module docs). With an empty [`FaultSpec`] every call forwards
/// unchanged — same results, same measured costs.
#[derive(Clone)]
pub struct FaultyEnv<E: Env> {
    inner: std::sync::Arc<FaultyInner<E>>,
}

/// A file handle whose reads and writes pass through the injector.
pub struct FaultyFile<E: Env> {
    file: E::File,
    inner: std::sync::Arc<FaultyInner<E>>,
    name: String,
    disk: Option<DiskId>,
}

impl<E: Env> Clone for FaultyFile<E> {
    fn clone(&self) -> Self {
        FaultyFile {
            file: self.file.clone(),
            inner: self.inner.clone(),
            name: self.name.clone(),
            disk: self.disk,
        }
    }
}

impl<E: Env> FaultyEnv<E> {
    /// Wrap `env`, injecting faults per `spec`.
    pub fn new(env: E, spec: FaultSpec) -> Self {
        FaultyEnv {
            inner: std::sync::Arc::new(FaultyInner {
                env,
                injector: Injector::new(spec),
                disks: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The wrapped environment.
    pub fn inner(&self) -> &E {
        &self.inner.env
    }

    /// Snapshot of the injection counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.injector.stats_mut().clone()
    }

    /// The spec this wrapper was built with.
    pub fn spec(&self) -> &FaultSpec {
        &self.inner.injector.spec
    }

    fn disk_of(&self, name: &str) -> Option<DiskId> {
        self.inner
            .disks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .copied()
            .or_else(|| guess_disk(name))
    }
}

impl<E: Env> FileOps for FaultyFile<E> {
    fn len(&self) -> u64 {
        self.file.len()
    }

    fn read_at(&self, proc: ProcId, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.inner
            .check(proc, FaultKind::Read, self.disk, &self.name)?;
        self.file.read_at(proc, offset, buf)
    }

    fn write_at(&self, proc: ProcId, offset: u64, buf: &[u8]) -> Result<()> {
        match self.inner.check_op(
            proc,
            FaultKind::Write,
            self.disk,
            &self.name,
            Some(buf.len()),
        ) {
            Outcome::Pass => self.file.write_at(proc, offset, buf),
            Outcome::Fail(e) => Err(e),
            // Persist only a prefix, then report success — the caller
            // believes the whole buffer is durable, exactly as after a
            // torn write. Checksums downstream are what catch this.
            Outcome::Torn { len } => self.file.write_at(proc, offset, &buf[..len]),
            Outcome::Corrupt { byte, mask } => {
                let mut corrupted = buf.to_vec();
                corrupted[byte] ^= mask;
                self.file.write_at(proc, offset, &corrupted)
            }
        }
    }

    fn sync(&self, proc: ProcId) -> Result<()> {
        // Flushes pass through uninstrumented: the fault model tears and
        // corrupts data at write time, and an injected sync failure
        // would be indistinguishable from a write error to callers.
        self.file.sync(proc)
    }
}

impl<E: Env> Env for FaultyEnv<E> {
    type File = FaultyFile<E>;

    fn page_size(&self) -> u64 {
        self.inner.env.page_size()
    }

    fn num_disks(&self) -> u32 {
        self.inner.env.num_disks()
    }

    fn create_file(
        &self,
        proc: ProcId,
        name: &str,
        disk: DiskId,
        bytes: u64,
    ) -> Result<Self::File> {
        self.inner
            .check(proc, FaultKind::Create, Some(disk), name)?;
        let file = self.inner.env.create_file(proc, name, disk, bytes)?;
        self.inner
            .disks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), disk);
        Ok(FaultyFile {
            file,
            inner: self.inner.clone(),
            name: name.to_string(),
            disk: Some(disk),
        })
    }

    fn open_file(&self, proc: ProcId, name: &str) -> Result<Self::File> {
        let disk = self.disk_of(name);
        self.inner.check(proc, FaultKind::Open, disk, name)?;
        let file = self.inner.env.open_file(proc, name)?;
        Ok(FaultyFile {
            file,
            inner: self.inner.clone(),
            name: name.to_string(),
            disk,
        })
    }

    fn delete_file(&self, proc: ProcId, name: &str) -> Result<()> {
        let disk = self.disk_of(name);
        self.inner.check(proc, FaultKind::Delete, disk, name)?;
        self.inner.env.delete_file(proc, name)?;
        self.inner
            .disks
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name);
        Ok(())
    }

    fn list_files(&self) -> Vec<String> {
        self.inner.env.list_files()
    }

    fn cpu(&self, proc: ProcId, op: CpuOp, count: u64) {
        self.inner.env.cpu(proc, op, count);
    }

    fn move_bytes(&self, proc: ProcId, kind: MoveKind, bytes: u64) {
        self.inner.env.move_bytes(proc, kind, bytes);
    }

    fn context_switches(&self, proc: ProcId, count: u64) {
        self.inner.env.context_switches(proc, count);
    }

    fn register_s(&self, catalog: SCatalog) -> Result<()> {
        self.inner.env.register_s(catalog)
    }

    fn s_fetch_batch(
        &self,
        proc: ProcId,
        spart: u32,
        ptrs: &[SPtr],
        req_bytes_each: u64,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        self.inner
            .check(proc, FaultKind::SFetch, Some(DiskId(spart)), "S_fetch")?;
        self.inner
            .env
            .s_fetch_batch(proc, spart, ptrs, req_bytes_each, out)
    }

    fn shutdown_s(&self) {
        self.inner.env.shutdown_s();
    }

    fn preload(&self, name: &str, offset: u64, data: &[u8]) -> Result<()> {
        // Workload setup is outside the fault domain by design.
        self.inner.env.preload(name, offset, data)
    }

    fn reset_stats(&self) {
        self.inner.env.reset_stats();
    }

    fn now(&self, proc: ProcId) -> f64 {
        self.inner.env.now(proc)
    }

    fn stats(&self) -> EnvStats {
        self.inner.env.stats()
    }

    fn trace_sink(&self) -> std::sync::Arc<dyn TraceSink> {
        // Wrapper events (fault injections) and inner events (map ops,
        // passes) interleave into the one sink the inner env holds.
        self.inner.env.trace_sink()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_none_specs_parse_empty() {
        assert!(FaultSpec::parse("").unwrap().is_empty());
        assert!(FaultSpec::parse("none").unwrap().is_empty());
        assert!(FaultSpec::parse("  ").unwrap().is_empty());
    }

    #[test]
    fn full_grammar_round_trips() {
        let s = "seed=7;read:p=0.5:count=3:disk=1;delay:p=0.25:count=20:ms=5;\
                 diskfull:after=2:file=RP";
        let spec = FaultSpec::parse(s).unwrap();
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.rules.len(), 3);
        assert_eq!(spec.rules[0].kind, FaultKind::Read);
        assert_eq!(spec.rules[0].p, 0.5);
        assert_eq!(spec.rules[0].count, 3);
        assert_eq!(spec.rules[0].disk, Some(1));
        assert_eq!(spec.rules[1].kind, FaultKind::Delay);
        assert_eq!(spec.rules[1].delay_ms, 5);
        assert_eq!(spec.rules[2].kind, FaultKind::DiskFull);
        assert_eq!(spec.rules[2].after, 2);
        assert_eq!(spec.rules[2].file.as_deref(), Some("RP"));
        // Display output parses back to the same rules.
        let reparsed = FaultSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(reparsed.to_string(), spec.to_string());
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for (input, needle) in [
            ("explode", "unknown fault kind"),
            ("read:p=2.0", "p must be in [0,1]"),
            ("read:frequency=1", "unknown fault rule key"),
            ("read:p", "key=value"),
            ("seed=banana", "seed"),
        ] {
            let err = FaultSpec::parse(input).unwrap_err();
            assert!(err.contains(needle), "'{input}' → {err}");
        }
    }

    #[test]
    fn a_repeated_rule_key_is_refused_by_name() {
        for (input, key) in [("read:p=0.5:p=1", "p"), ("delay:ms=5:count=2:ms=9", "ms")] {
            let err = FaultSpec::parse(input).unwrap_err();
            assert_eq!(err, format!("{key}= given more than once"), "'{input}'");
        }
        // Two rules of one kind are two rules, not a repeated key.
        let spec = FaultSpec::parse("read:p=0.5;read:count=2").unwrap();
        assert_eq!(spec.rules.len(), 2);
    }

    #[test]
    fn a_repeated_seed_is_refused_by_name() {
        for input in ["seed=1;seed=2", "seed=1;read:p=1;seed=1"] {
            let err = FaultSpec::parse(input).unwrap_err();
            assert_eq!(err, "seed= given more than once", "'{input}'");
        }
    }

    #[test]
    fn guess_disk_reads_the_naming_convention() {
        assert_eq!(guess_disk("R_3"), Some(DiskId(3)));
        assert_eq!(guess_disk("w.RP_1#t2"), Some(DiskId(1)));
        assert_eq!(guess_disk("Merge_0"), Some(DiskId(0)));
        assert_eq!(guess_disk("catalog"), None);
    }

    #[test]
    fn injector_respects_count_and_after() {
        let spec = FaultSpec::parse("read:after=2:count=2").unwrap();
        let inj = Injector::new(spec);
        let outcomes: Vec<bool> = (0..6)
            .map(|_| inj.check(FaultKind::Read, None, "R_0").is_err())
            .collect();
        // Two armed skips, two injections, then exhausted.
        assert_eq!(outcomes, [false, false, true, true, false, false]);
        assert_eq!(inj.stats_mut().read_errors, 2);
    }

    #[test]
    fn injector_draws_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let spec = FaultSpec::parse(&format!("seed={seed};write:p=0.3:count=1000")).unwrap();
            let inj = Injector::new(spec);
            (0..200)
                .map(|_| inj.check(FaultKind::Write, None, "RP_0").is_err())
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds give different traces");
        let hits = run(42).iter().filter(|&&b| b).count();
        assert!((20..=100).contains(&hits), "p=0.3 over 200 draws: {hits}");
    }

    #[test]
    fn disk_and_file_filters_select_targets() {
        let spec = FaultSpec::parse("read:disk=1:count=100;write:file=RS:count=100").unwrap();
        let inj = Injector::new(spec);
        assert!(inj.check(FaultKind::Read, Some(DiskId(0)), "R_0").is_ok());
        assert!(
            inj.check(FaultKind::Read, None, "R_1").is_ok(),
            "unknown disk never matches"
        );
        assert!(inj.check(FaultKind::Read, Some(DiskId(1)), "R_1").is_err());
        assert!(inj.check(FaultKind::Write, Some(DiskId(1)), "RP_1").is_ok());
        assert!(inj
            .check(FaultKind::Write, Some(DiskId(1)), "RS_1")
            .is_err());
    }

    #[test]
    fn diskfull_rule_yields_typed_disk_full() {
        let spec = FaultSpec::parse("diskfull").unwrap();
        let inj = Injector::new(spec);
        match inj.check(FaultKind::Create, Some(DiskId(2)), "RP_2") {
            Err(EnvError::DiskFull(d)) => assert_eq!(d, DiskId(2)),
            other => panic!("expected DiskFull, got {other:?}"),
        }
        // Non-transient: the retry layer must not spin on it.
        assert!(!EnvError::DiskFull(DiskId(2)).is_transient());
    }

    #[test]
    fn injected_errors_are_transient_and_informative() {
        let spec = FaultSpec::parse("sfetch").unwrap();
        let inj = Injector::new(spec);
        let err = inj
            .check(FaultKind::SFetch, Some(DiskId(0)), "S_fetch")
            .unwrap_err();
        assert!(err.is_transient());
        assert!(err.to_string().contains("s_fetch_batch"), "{err}");
    }

    #[test]
    fn torn_write_yields_prefix_outcome() {
        let spec = FaultSpec::parse("torn_write:frac=0.25:count=2").unwrap();
        let inj = Injector::new(spec);
        // Reads never match a torn_write rule.
        assert!(matches!(
            inj.check_op(FaultKind::Read, None, "R_0", None).0,
            Outcome::Pass
        ));
        match inj.check_op(FaultKind::Write, None, "RP_0", Some(100)) {
            (Outcome::Torn { len }, Some("torn_write")) => assert_eq!(len, 25),
            other => panic!("expected torn outcome, got {other:?}"),
        }
        // frac=0 keeps nothing; still reported as success to the writer.
        let spec = FaultSpec::parse("torn_write:frac=0").unwrap();
        let inj = Injector::new(spec);
        match inj.check_op(FaultKind::Write, None, "RP_0", Some(64)).0 {
            Outcome::Torn { len } => assert_eq!(len, 0),
            other => panic!("expected torn outcome, got {other:?}"),
        }
    }

    #[test]
    fn bit_corrupt_flips_exactly_one_seeded_bit() {
        let spec = FaultSpec::parse("seed=9;bit_corrupt:count=100").unwrap();
        let inj = Injector::new(spec);
        for _ in 0..20 {
            match inj.check_op(FaultKind::Write, None, "RS_1", Some(33)).0 {
                Outcome::Corrupt { byte, mask } => {
                    assert!(byte < 33);
                    assert_eq!(mask.count_ones(), 1);
                }
                other => panic!("expected corrupt outcome, got {other:?}"),
            }
        }
        // Determinism: the same seed picks the same byte/bit sequence.
        let replay = |seed: u64| {
            let spec = FaultSpec::parse(&format!("seed={seed};bit_corrupt:count=10")).unwrap();
            let inj = Injector::new(spec);
            (0..10)
                .map(
                    |_| match inj.check_op(FaultKind::Write, None, "x", Some(256)).0 {
                        Outcome::Corrupt { byte, mask } => (byte, mask),
                        other => panic!("{other:?}"),
                    },
                )
                .collect::<Vec<_>>()
        };
        assert_eq!(replay(5), replay(5));
    }

    #[test]
    fn soft_crash_fails_non_transient_at_seeded_op_index() {
        // `after` counts candidate ops of every kind.
        let spec = FaultSpec::parse("crash:after=3").unwrap();
        let inj = Injector::new(spec);
        assert!(inj.check(FaultKind::Read, None, "R_0").is_ok());
        assert!(inj
            .check(FaultKind::Create, Some(DiskId(1)), "RP_1")
            .is_ok());
        assert!(inj.check(FaultKind::Write, None, "RP_1").is_ok());
        let err = inj.check(FaultKind::Write, None, "RP_1").unwrap_err();
        assert!(!err.is_transient(), "a crash must not be retried");
        assert!(err.to_string().contains("crash"), "{err}");
        assert_eq!(inj.stats_mut().crashes, 1);
        // Exhausted after `count` (default 1).
        assert!(inj.check(FaultKind::Write, None, "RP_1").is_ok());
    }

    #[test]
    fn crash_consistency_grammar_round_trips() {
        let s =
            "seed=3;torn_write:frac=0.75:count=2:file=RS;bit_corrupt:p=0.5;crash:after=40:hard=1";
        let spec = FaultSpec::parse(s).unwrap();
        assert_eq!(spec.rules[0].kind, FaultKind::TornWrite);
        assert_eq!(spec.rules[0].frac, 0.75);
        assert_eq!(spec.rules[1].kind, FaultKind::BitCorrupt);
        assert_eq!(spec.rules[2].kind, FaultKind::Crash);
        assert!(spec.rules[2].hard);
        let reparsed = FaultSpec::parse(&spec.to_string()).unwrap();
        assert_eq!(reparsed.to_string(), spec.to_string());
        // Bad values are rejected.
        assert!(FaultSpec::parse("torn_write:frac=1.5").is_err());
        assert!(FaultSpec::parse("crash:hard=yes").is_err());
    }

    #[test]
    fn delay_rule_sleeps_and_counts_but_does_not_fail() {
        let spec = FaultSpec::parse("delay:count=2:ms=1").unwrap();
        let inj = Injector::new(spec);
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            inj.check(FaultKind::Read, None, "R_0").unwrap();
        }
        assert!(t0.elapsed() >= std::time::Duration::from_millis(2));
        let stats = inj.stats_mut().clone();
        assert_eq!(stats.delays, 2);
        assert_eq!(stats.delay_ms, 2);
        assert_eq!(stats.total(), 2);
    }
}

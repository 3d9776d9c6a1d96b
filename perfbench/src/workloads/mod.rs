//! The named workloads. Each drives one tier of the program through
//! its public functions only, verifies every output, and reports
//! readings by metric name.
//!
//! Ground rules shared by all of them: one process; `D = 2`; inputs
//! come from `--seed` alone; every timed quantity is a median over
//! repeated rounds inside the `--seconds` budget, with its quartiles kept
//! beside it; the bounded latencies are closed-loop (one operation in
//! flight); tails are pooled over all rounds and reported at the highest
//! percentile the sample count supports; the open loops of the traced
//! pass time an op from the instant it was *due*.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use mmjoin_env::{DiskId, Env, FileOps, ProcId};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_recovery::Journal;

use crate::metrics::Readings;
use crate::scratch::Scratch;
use crate::spans::{self, Tracer};

mod cluster;
mod fig5_sim;
mod join_modern;
mod serve;
mod stream;

/// Everything a workload needs to know about this run.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Seconds the measured phases may take.
    pub seconds: f64,
    /// ~1/50 scale with sub-second phases: the unit-test and CI size.
    pub smoke: bool,
    /// How many times set-up is repeated (its median is `setup_s`).
    pub setup_reps: usize,
    pub scratch: &'a Scratch,
    pub tracer: Tracer,
}

impl Ctx<'_> {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Whether set-up should be repeated once more, given the seconds
    /// each repetition took so far: at least `setup_reps` times, and a
    /// set-up of milliseconds (a service start is one `msync`) until a
    /// quarter of a second has gone into it, so that its median is of
    /// dozens of samples, not five.
    pub fn setup_again(&self, samples: &[f64]) -> bool {
        let cheap = !self.smoke
            && self.setup_reps > 1
            && samples.iter().sum::<f64>() < 0.25
            && samples.len() < 40;
        samples.len() < self.setup_reps || cheap
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that errored, failed verification, were refused, or
    /// were acknowledged without the journal commits they owe.
    pub failed: u64,
    /// The first few failure reasons, for the log.
    pub failures: Vec<String>,
    pub readings: Readings,
    /// Rates, rounds and sizes echoed in the run header.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Count a failure that is not an operation of its own (a gate over
    /// the whole run, such as a journal that is short of commits).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Times a run repeats its set-up; `setup_s` is the median. Store
/// creation on the checkout's filesystem has a first-touch tail of 3x
/// (block allocation, writeback of the previous store), which a median
/// of five rides out where one of three does not.
const SETUP_REPS: usize = 5;

/// Share of the traced run's budget spent on an untraced pass over the
/// same inputs; the difference in `latency_p50_ms` between the two
/// passes is `env.trace_overhead_pct`.
const UNTRACED_SHARE: f64 = 0.3;

/// Run one workload. The untraced run measures the end-to-end metrics;
/// the traced run measures them twice — briefly with tracing off, then
/// with spans and the program's `CollectingSink` on — and reports the
/// per-layer metrics of the second pass plus the overhead between the
/// two.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    scratch: &Scratch,
) -> Result<(Outcome, Tracer), String> {
    let pass = |seconds: f64, traced: bool, setup_reps: usize| {
        let ctx = Ctx {
            seed,
            seconds,
            smoke,
            setup_reps,
            scratch,
            tracer: Tracer::new(traced),
        };
        run_one(name, &ctx).map(|out| (out, ctx.tracer))
    };
    if !traced {
        return pass(seconds, false, SETUP_REPS);
    }
    let (base, _) = pass(seconds * UNTRACED_SHARE, false, 1)?;
    let (mut out, tracer) = pass(seconds * (1.0 - UNTRACED_SHARE), true, SETUP_REPS)?;
    let (off, on) = (
        base.readings.value("latency_p50_ms"),
        out.readings.value("latency_p50_ms"),
    );
    if off > 0.0 {
        out.readings
            .put("env.trace_overhead_pct", (on - off) / off * 100.0);
    }
    for (layer, own) in spans::self_by_layer(&tracer.spans()) {
        if layer != "bench" {
            out.readings.put(&format!("self_s.{layer}"), own);
        }
    }
    out.attempted += base.attempted;
    out.failed += base.failed;
    out.failures.extend(base.failures);
    Ok((out, tracer))
}

fn run_one(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    // The two join workloads keep the machine as it is: one is a single
    // thread, the other is two Rprocs that stay busy throughout. The
    // tiers whose threads hand work to each other and then sleep run on
    // one CPU.
    let pinned = (!matches!(name, "join-modern-mmap" | "paper-fig5-sim")).then(OneCpu::pin);
    let mut out = match name {
        "join-modern-mmap" => join_modern::run(ctx),
        "paper-fig5-sim" => fig5_sim::run(ctx),
        "stream-probe" => stream::run_probe(ctx),
        "stream-durable" => stream::run_durable(ctx),
        "stream-resume" => stream::run_resume(ctx),
        "serve-mix" => serve::run(ctx),
        "cluster-2node" => cluster::run(ctx),
        other => Err(format!("unknown workload '{other}'")),
    }?;
    out.note(
        "cpus",
        match &pinned {
            Some(OneCpu { previous: Some(_) }) => "1 (pinned)",
            Some(_) => "all (pinning refused)",
            None => "all",
        },
    );
    Ok(out)
}

/// A CPU affinity mask as the kernel takes it (1024 CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Runs a workload on one CPU: pins the calling thread, and so every
/// thread the program spawns from it, to the first CPU it is allowed
/// on, and restores the mask when dropped.
///
/// Why: this host gives a guest its second core only under sustained
/// load. Two busy threads take 2.5x the time of one for the first
/// second or two after an idle spell and 1.26x afterwards, so a tier
/// whose threads pass work through queues and then sleep (generator,
/// worker, Sprocs) is bimodal from run to run on two vCPUs: the same
/// `stream-probe` inputs measured 1.25 to 1.85 ms per batch, and 0.90 to
/// 0.93 ms on one CPU. On one CPU a hand-off is a context switch, never
/// a wake-up of a parked vCPU.
struct OneCpu {
    /// The mask to restore; `None` when the kernel refused to pin.
    previous: Option<CpuSet>,
}

impl OneCpu {
    fn pin() -> OneCpu {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
        let first = allowed.iter().enumerate().find(|(_, w)| **w != 0);
        let (Some((word, bits)), true) = (first, got == 0) else {
            return OneCpu { previous: None };
        };
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << bits.trailing_zeros();
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
        OneCpu {
            previous: (set == 0).then_some(allowed),
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(previous) = &self.previous {
            // SAFETY: as in `pin`; a failure leaves the thread pinned,
            // which only matters to whatever this process runs next.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), previous.as_ptr()) };
        }
    }
}

/// Read a closed journal back from its file: bytes of record area in
/// use, and how many CRC-valid records of each kind it holds. This is
/// the durability check that needs nothing but the bytes on disk.
pub(crate) fn journal_record_counts(
    dir: &Path,
    file: &str,
) -> Result<(u64, BTreeMap<&'static str, u64>), String> {
    let (env, _) = MmapEnv::recover(MmapEnvConfig {
        root: dir.to_path_buf(),
        num_disks: 1,
        page_size: 4096,
    })
    .map_err(|e| format!("recover {}: {e}", dir.display()))?;
    let (journal, replayed) =
        Journal::open(env, file, ProcId(0)).map_err(|e| format!("open {file}: {e}"))?;
    let mut kinds = BTreeMap::new();
    for rec in &replayed.records {
        *kinds.entry(rec.kind()).or_insert(0) += 1;
    }
    Ok((journal.used_bytes(), kinds))
}

/// `mmstore.sync_us`: microseconds of each of `reps` `msync`s of a
/// journal-sized (4 MiB) mapping in `env`, each after a 64-byte write.
/// Reported beside every journaled number, so a reader can tell a
/// change in the code from a change in the device.
pub(crate) fn msync_micros(ctx: &Ctx, env: &MmapEnv, reps: u64) -> Result<Vec<f64>, String> {
    const PROC: ProcId = ProcId(0);
    let err = |e| format!("msync probe: {e}");
    let wal = env
        .create_file(PROC, "probe.wal", DiskId(0), 4 << 20)
        .map_err(err)?;
    let mut micros = Vec::new();
    for k in 0..reps {
        wal.write_at(PROC, k * 64, &[k as u8; 64]).map_err(err)?;
        let (synced, secs, _) = ctx
            .tracer
            .time("mmstore", "sync", k, None, || wal.sync(PROC));
        synced.map_err(err)?;
        micros.push(secs * 1e6);
    }
    env.delete_file(PROC, "probe.wal").map_err(err)?;
    Ok(micros)
}

/// Sleep until `due` (a no-op when it has passed) and return how late
/// the caller now is, in seconds.
pub(crate) fn sleep_until(due: Instant) -> f64 {
    let now = Instant::now();
    if now < due {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due).as_secs_f64()
}

/// `t0 + seconds`.
pub(crate) fn after(t0: Instant, seconds: f64) -> Instant {
    t0 + Duration::from_secs_f64(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
    use crate::report;
    use crate::scratch::SCRATCH_BASE;

    /// Every workload at smoke scale through the traced run — which
    /// makes an untraced pass first — with every correctness gate on:
    /// nothing fails, every end-to-end metric is measured and non-zero,
    /// every reading names a declared metric, both kinds of driver line
    /// can be settled, and spans are left behind. (About five seconds
    /// alone on this host; not asserted, since `cargo test` runs it beside
    /// the other tests.)
    #[test]
    fn smoke_pass_over_every_workload() {
        let scratch = Scratch::new(Path::new(SCRATCH_BASE), "test-smoke").unwrap();
        for w in WORKLOADS {
            let (mut out, tracer) = run(w.name, 1996, 0.2, true, true, &scratch)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.failures);
            assert!(out.attempted > 0, "{}", w.name);
            out.readings
                .put("peak_rss_mb", crate::scratch::peak_rss_mb());
            for traced in [false, true] {
                report::settle(&mut out.readings, traced)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
            for m in END_TO_END {
                assert!(
                    out.readings.value(m.name) > 0.0,
                    "{}: {} is 0",
                    w.name,
                    m.name
                );
            }
            assert!(!tracer.spans().is_empty(), "{}: no spans", w.name);
            let own = PER_LAYER
                .iter()
                .filter(|m| out.readings.value(m.name) != 0.0)
                .count();
            assert!(
                own >= 5,
                "{}: only {own} per-layer metrics measured",
                w.name
            );
        }
    }

    #[test]
    fn pinning_to_one_cpu_is_undone_on_drop() {
        let mask = || {
            let mut m: CpuSet = [0; 16];
            // SAFETY: a writable buffer of the size passed.
            assert_eq!(
                unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), m.as_mut_ptr()) },
                0
            );
            m
        };
        let before = mask();
        {
            let pinned = OneCpu::pin();
            assert_eq!(pinned.previous, Some(before));
            assert_eq!(mask().iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        }
        assert_eq!(mask(), before);
    }
}

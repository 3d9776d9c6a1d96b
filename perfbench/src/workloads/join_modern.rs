//! `join-modern-mmap`: the four paper algorithms in `ExecMode::Modern`
//! on the real memory-mapped store. `core::modern` kernels and bulk
//! `mmstore` reads do nearly all the work; schedulers, journal and
//! simulator do nothing — so this is where a kernel change must show,
//! and where a journal or scheduler change must not.

use std::collections::BTreeMap;
use std::time::Instant;

use mmjoin::{join, new_files_since, verify, Algo, ExecMode, JoinOutput, JoinSpec};
use mmjoin_calibrate::{probe_context_switch, probe_memcpy, ProbeSpec};
use mmjoin_env::trace::{CollectingSink, TraceEvent, TraceRecord};
use mmjoin_env::{DiskId, Env, FileOps, MoveKind, ProcId, SPtr};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_relstore::{build, sample_relation, PointerDist, RelConfig, Relations, WorkloadSpec};

use super::{msync_micros, Ctx, Outcome};
use crate::gen::Rng;
use crate::stats::median;

const D: u32 = 2;
const PAGE: u64 = 4096;
const MEM_PAGES: u64 = 8192;
const OBJ_SIZE: u32 = 128;
const ALGS: [Algo; 4] = [
    Algo::NestedLoops,
    Algo::SortMerge,
    Algo::Grace,
    Algo::HybridHash,
];
/// Seconds of rounds (one join per algorithm each; at least one round)
/// run before timing starts. Long enough for the host to have given a
/// guest that was idle its second core back (see `OneCpu`): the two
/// Rprocs of a join are the one place the benchmark needs both.
const WARMUP_SECONDS: f64 = 2.0;
/// Rounds measured however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
const PROC: ProcId = ProcId(0);

struct Scale {
    objects: u64,
    /// Size of the second relation pair the informational
    /// faithful-vs-modern comparison runs on.
    faithful_objects: u64,
    /// Bytes per host memcpy measurement.
    memcpy_bytes: usize,
    /// Repetitions of each `mmstore` micro-call.
    micro_reps: usize,
}

const FULL: Scale = Scale {
    objects: 1_000_000,
    faithful_objects: 100_000,
    memcpy_bytes: 64 << 20,
    micro_reps: 15,
};

const SMOKE: Scale = Scale {
    objects: 8_000,
    faithful_objects: 2_000,
    memcpy_bytes: 1 << 20,
    micro_reps: 2,
};

fn workload(objects: u64, seed: u64, prefix: &str) -> WorkloadSpec {
    WorkloadSpec {
        rel: RelConfig {
            r_size: OBJ_SIZE,
            s_size: OBJ_SIZE,
            d: D,
            r_objects: objects,
            s_objects: objects,
        },
        dist: PointerDist::Uniform,
        seed,
        prefix: prefix.to_string(),
    }
}

/// One verified join. The store's clock is reset first so the output's
/// stage boundaries count from zero, and the temporary areas the join
/// left are deleted afterwards — both outside the timed region.
fn one_join(
    ctx: &Ctx,
    env: &MmapEnv,
    rels: &Relations,
    alg: Algo,
    mode: ExecMode,
    op: u64,
    sink: Option<&CollectingSink>,
) -> Result<(f64, JoinOutput, Vec<TraceRecord>), String> {
    let before = env.list_files();
    let spec = JoinSpec::new(MEM_PAGES * PAGE, MEM_PAGES * PAGE)
        .with_mode(mode)
        .with_tag(&format!("op{op}"));
    env.reset_stats();
    let t0 = ctx.tracer.now();
    let (result, wall, span) = ctx
        .tracer
        .time("core", alg.name(), op, None, || join(env, rels, alg, &spec));
    let records = sink.map_or_else(Vec::new, |s| {
        let r = s.records();
        s.clear();
        r
    });
    ctx.tracer.record_passes(&records, t0, op, span);
    for name in new_files_since(env, &before) {
        env.delete_file(PROC, &name)
            .map_err(|e| format!("delete {name}: {e}"))?;
    }
    let out = result.map_err(|e| format!("{} join: {e}", alg.name()))?;
    Ok((wall, out, records))
}

/// Durations of a join's stages from its cumulative boundary clocks.
fn stage_seconds(out: &JoinOutput) -> Vec<f64> {
    let mut prev = 0.0;
    out.stage_times
        .iter()
        .map(|&(_, t)| {
            let d = t - prev;
            prev = t;
            d
        })
        .collect()
}

/// Per-layer name of stage `k` of `alg` (nested loops is one stage).
fn stage_metric(alg: Algo, k: usize) -> Option<&'static str> {
    match (alg, k) {
        (Algo::SortMerge, 0) => Some("core.sort-merge.scan_sort_s"),
        (Algo::SortMerge, 1) => Some("core.sort-merge.merge_join_s"),
        (Algo::Grace, 0) => Some("core.grace.scan_radix_s"),
        (Algo::Grace, 1) => Some("core.grace.bucket_join_s"),
        (Algo::HybridHash, 0) => Some("core.hybrid-hash.scan_f0_s"),
        (Algo::HybridHash, 1) => Some("core.hybrid-hash.spill_join_s"),
        _ => None,
    }
}

/// Exact kernel work of one round, from the program's `kernel_*` events.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct KernelCounts {
    radix_objects: u64,
    merge_objects: u64,
    probe_objects: u64,
    probe_batches: u64,
}

impl KernelCounts {
    fn add(&mut self, records: &[TraceRecord]) {
        for r in records {
            match &r.event {
                TraceEvent::KernelRadix { objects, .. } => self.radix_objects += objects,
                TraceEvent::KernelMerge { objects, .. } => self.merge_objects += objects,
                TraceEvent::KernelProbe {
                    objects, batches, ..
                } => {
                    self.probe_objects += objects;
                    self.probe_batches += batches;
                }
                _ => {}
            }
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = if ctx.smoke { &SMOKE } else { &FULL };
    let mut out = Outcome::default();
    let spec = workload(scale.objects, ctx.seed, "");

    // Set-up: store creation plus `build`, repeated on a fresh store.
    let mut setup = Vec::new();
    let mut store: Option<(MmapEnv, Relations)> = None;
    while ctx.setup_again(&setup) {
        drop(store.take());
        let root = ctx.scratch.dir("store");
        let (built, secs, _) =
            ctx.tracer
                .time("relstore", "build", setup.len() as u64, None, || {
                    let env = MmapEnv::new(MmapEnvConfig {
                        root,
                        num_disks: D,
                        page_size: PAGE,
                    })?;
                    let rels = build(&env, &spec)?;
                    Ok::<_, mmjoin_env::EnvError>((env, rels))
                });
        store = Some(built.map_err(|e| format!("build: {e}"))?);
        setup.push(secs);
    }
    let (env, rels) = store.expect("setup_reps >= 1");
    out.readings.put_median("setup_s", &setup);

    let sink = ctx.traced().then(CollectingSink::new);
    if let Some(s) = &sink {
        env.set_trace_sink(s.clone());
    }

    let mut walls: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut stages: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut first_counts: Option<KernelCounts> = None;
    let mut op = 0u64;
    let mut round = 0usize;
    let warmup = if ctx.smoke { 0.0 } else { WARMUP_SECONDS };
    let started = Instant::now();
    // Set when timing starts: the instant, and the rounds run before it.
    let mut measured: Option<(Instant, usize)> = None;
    loop {
        if measured.is_none() && round >= 1 && started.elapsed().as_secs_f64() >= warmup {
            measured = Some((Instant::now(), round));
        }
        if let Some((from, warm_rounds)) = measured {
            if round - warm_rounds >= MIN_ROUNDS && from.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
        }
        let mut counts = KernelCounts::default();
        for alg in ALGS {
            op += 1;
            let (wall, joined, records) =
                one_join(ctx, &env, &rels, alg, ExecMode::Modern, op, sink.as_deref())?;
            let verdict = verify(&joined, &rels);
            if measured.is_none() {
                verdict.map_err(|e| format!("{} warm-up: {e}", alg.name()))?;
                continue;
            }
            out.check(verdict.is_ok(), || {
                format!("{}: {}", alg.name(), verdict.unwrap_err())
            });
            walls.entry(alg.name()).or_default().push(wall);
            for (k, secs) in stage_seconds(&joined).into_iter().enumerate() {
                if let Some(name) = stage_metric(alg, k) {
                    stages.entry(name).or_default().push(secs);
                }
            }
            counts.add(&records);
        }
        if measured.is_some() && sink.is_some() {
            // Kernel work is a function of the inputs alone.
            let first = *first_counts.get_or_insert(counts);
            if counts != first {
                out.fail(format!(
                    "round {round}: kernel counts {counts:?} != {first:?}"
                ));
            }
        }
        round += 1;
    }
    let rounds = round - measured.map_or(0, |(_, warm_rounds)| warm_rounds);
    out.note("objects", scale.objects);
    out.note("rounds", rounds);

    // One "operation" is a round: each algorithm once over the inputs.
    let join_s: f64 = walls.values().map(|w| median(w)).sum();
    let total_wall: f64 = walls.values().flatten().sum();
    let tuples = (rounds * ALGS.len()) as f64 * scale.objects as f64;
    out.readings.put("latency_p50_ms", join_s * 1e3);
    out.readings.put("throughput_per_s", tuples / total_wall);

    if ctx.traced() {
        for (alg, w) in &walls {
            out.readings.put_median(&format!("core.{alg}.s"), w);
        }
        for (name, s) in &stages {
            out.readings.put_median(name, s);
        }
        let per_join_tuples = ALGS.len() as f64 * scale.objects as f64;
        out.readings
            .put("core.ns_per_tuple", join_s / per_join_tuples * 1e9);
        let counts = first_counts.unwrap_or_default();
        out.readings
            .put("core.kernel_radix.objects", counts.radix_objects as f64);
        out.readings
            .put("core.kernel_merge.objects", counts.merge_objects as f64);
        out.readings
            .put("core.kernel_probe.objects", counts.probe_objects as f64);
        out.readings
            .put("core.kernel_probe.batches", counts.probe_batches as f64);
        out.readings.put(
            "relstore.build_mobj_per_s",
            2.0 * scale.objects as f64 / median(&setup) / 1e6,
        );
        // Pass events of the probes below are not the workload's.
        env.set_trace_sink(mmjoin_env::null_sink());

        // Host ceiling, then the fraction of it the joins reach: bytes
        // of R and S one round touches, over the round's seconds, over
        // the private-to-private memcpy rate.
        let mut probe = ProbeSpec::quick();
        probe.memcpy_bytes = scale.memcpy_bytes;
        let (mt, _, _) = ctx.tracer.time("calibrate", "probe_memcpy", 0, None, || {
            probe_memcpy(&probe)
        });
        let mt = mt.map_err(|e| format!("probe_memcpy: {e}"))?;
        let gbps = |kind: MoveKind| 1.0 / mt[kind.index()] / 1e9;
        out.readings.put("calibrate.mt_pp_gbps", gbps(MoveKind::PP));
        out.readings.put("calibrate.mt_ss_gbps", gbps(MoveKind::SS));
        let (cs, _, _) = ctx
            .tracer
            .time("calibrate", "probe_context_switch", 0, None, || {
                probe_context_switch(&probe)
            });
        out.readings.put(
            "calibrate.cs_us",
            cs.map_err(|e| format!("probe_cs: {e}"))? * 1e6,
        );
        let touched = per_join_tuples * (2 * OBJ_SIZE) as f64;
        out.readings.put(
            "core.frac_of_memcpy",
            touched / join_s / 1e9 / gbps(MoveKind::PP),
        );

        mmstore_probes(ctx, &env, &rels, scale, &mut out)?;
        faithful_comparison(ctx, &env, scale, &mut out)?;
    }
    Ok(out)
}

/// Timed calls straight into `mmstore` on the workload's own store:
/// Fig. 1b's three mapping costs, block and object reads, block writes,
/// the two shared-buffer exchange sizes, and `msync`.
fn mmstore_probes(
    ctx: &Ctx,
    env: &MmapEnv,
    rels: &Relations,
    scale: &Scale,
    out: &mut Outcome,
) -> Result<(), String> {
    const AREA: u64 = 16 << 20;
    const BLOCK: usize = 256 << 10;
    let t = &ctx.tracer;
    let err = |what: &str, e: mmjoin_env::EnvError| format!("mmstore probe {what}: {e}");

    let (mut create, mut open, mut delete) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..scale.micro_reps {
        let name = format!("probe.area{rep}");
        let (r, secs, _) = t.time("mmstore", "create_file", 0, None, || {
            env.create_file(PROC, &name, DiskId(0), AREA)
        });
        r.map_err(|e| err("create", e))?;
        create.push(secs * 1e6);
        let (r, secs, _) = t.time("mmstore", "open_file", 0, None, || {
            env.open_file(PROC, &name)
        });
        r.map_err(|e| err("open", e))?;
        open.push(secs * 1e6);
        let (r, secs, _) = t.time("mmstore", "delete_file", 0, None, || {
            env.delete_file(PROC, &name)
        });
        r.map_err(|e| err("delete", e))?;
        delete.push(secs * 1e6);
    }
    out.readings.put_median("mmstore.create_file_us", &create);
    out.readings.put_median("mmstore.open_file_us", &open);
    out.readings.put_median("mmstore.delete_file_us", &delete);

    // Block reads over R_0, as the modern scans issue them.
    let r0 = env
        .open_file(PROC, &rels.r_files[0])
        .map_err(|e| err("open R_0", e))?;
    let mut block = vec![0u8; BLOCK];
    let blocks = r0.len() as usize / BLOCK;
    if blocks == 0 {
        return Err(format!(
            "R_0 ({} B) is smaller than one {BLOCK} B block",
            r0.len()
        ));
    }
    let mut rates = Vec::new();
    for _ in 0..scale.micro_reps {
        let (r, secs, _) = t.time("mmstore", "read_at 256KiB", 0, None, || {
            (0..blocks).try_for_each(|b| r0.read_at(PROC, (b * BLOCK) as u64, &mut block))
        });
        r.map_err(|e| err("read block", e))?;
        rates.push((blocks * BLOCK) as f64 / secs / 1e9);
    }
    out.readings.put_median("mmstore.read_block_gbps", &rates);

    // Object reads at seeded random offsets, as the faithful scans do.
    let mut rng = Rng::new(ctx.seed, 0x0B1E);
    let objects = r0.len() / OBJ_SIZE as u64;
    let offsets: Vec<u64> = (0..100_000.min(objects * 4))
        .map(|_| rng.below(objects) * OBJ_SIZE as u64)
        .collect();
    let mut obj = [0u8; OBJ_SIZE as usize];
    let (r, secs, _) = t.time("mmstore", "read_at 128B", 0, None, || {
        offsets
            .iter()
            .try_for_each(|&off| r0.read_at(PROC, off, &mut obj))
    });
    r.map_err(|e| err("read object", e))?;
    out.readings
        .put("mmstore.read_obj_ns", secs / offsets.len() as f64 * 1e9);

    // Block writes into a temporary area.
    let area = env
        .create_file(PROC, "probe.write", DiskId(0), AREA)
        .map_err(|e| err("create", e))?;
    let mut rates = Vec::new();
    for _ in 0..scale.micro_reps {
        let (r, secs, _) = t.time("mmstore", "write_at 256KiB", 0, None, || {
            (0..AREA as usize / BLOCK)
                .try_for_each(|b| area.write_at(PROC, (b * BLOCK) as u64, &block))
        });
        r.map_err(|e| err("write block", e))?;
        rates.push(AREA as f64 / secs / 1e9);
    }
    out.readings.put_median("mmstore.write_block_gbps", &rates);
    env.delete_file(PROC, "probe.write")
        .map_err(|e| err("delete", e))?;

    // Shared-buffer exchanges with Sproc_0: the modern probe's 2048
    // ascending pointers, and one faithful G = 4 KiB exchange of 15.
    env.register_s(rels.catalog.clone())
        .map_err(|e| err("register_s", e))?;
    let per_part = rels.rel.s_per_part();
    let mut fetched = Vec::new();
    let mut exchange = |ptrs_per: usize, exchanges: usize| -> Result<f64, String> {
        let batches: Vec<Vec<SPtr>> = (0..exchanges)
            .map(|_| {
                let mut idx: Vec<u64> = (0..ptrs_per).map(|_| rng.below(per_part)).collect();
                idx.sort_unstable();
                idx.into_iter().map(|i| rels.rel.sptr_of(i)).collect()
            })
            .collect();
        let name = format!("s_fetch_batch {ptrs_per}");
        let (r, secs, _) = t.time("mmstore", &name, 0, None, || {
            batches.iter().try_for_each(|ptrs| {
                fetched.clear();
                env.s_fetch_batch(PROC, 0, ptrs, 16, &mut fetched)
            })
        });
        r.map_err(|e| err("s_fetch_batch", e))?;
        Ok(secs / exchanges as f64)
    };
    let big = exchange(2048, 20 * scale.micro_reps)?;
    out.readings
        .put("mmstore.s_fetch_2048_ns_per_ptr", big / 2048.0 * 1e9);
    let small = exchange(15, 400 * scale.micro_reps)?;
    out.readings.put("mmstore.s_fetch_15_us", small * 1e6);
    env.shutdown_s();

    out.readings.put_median(
        "mmstore.sync_us",
        &msync_micros(ctx, env, 20 * scale.micro_reps as u64)?,
    );

    let mut samples = Vec::new();
    for _ in 0..scale.micro_reps {
        let (r, secs, _) = t.time("relstore", "sample_relation", 0, None, || {
            sample_relation(env, rels, 4096)
        });
        r.map_err(|e| err("sample_relation", e))?;
        samples.push(secs * 1e6);
    }
    out.readings.put_median("relstore.sample_us", &samples);
    Ok(())
}

/// Informational only: the faithful 1996 loops (`ExecMode::Threaded`)
/// against the modern kernels on a smaller relation pair in the same
/// store. Faithful joins on the mmap store are scheduler-bimodal
/// (Sproc ping-pong placement), so nothing is gated on this.
fn faithful_comparison(
    ctx: &Ctx,
    env: &MmapEnv,
    scale: &Scale,
    out: &mut Outcome,
) -> Result<(), String> {
    let rels = build(
        env,
        &workload(scale.faithful_objects, ctx.seed ^ 0xFA17, "f"),
    )
    .map_err(|e| format!("build faithful pair: {e}"))?;
    let (mut faithful, mut modern) = (0.0, 0.0);
    for (k, alg) in ALGS.into_iter().enumerate() {
        for (mode, sum) in [
            (ExecMode::Modern, &mut modern),
            (ExecMode::Threaded, &mut faithful),
        ] {
            let op = 1_000_000 + 2 * k as u64 + u64::from(mode == ExecMode::Threaded);
            let (wall, joined, _) = one_join(ctx, env, &rels, alg, mode, op, None)?;
            let verdict = verify(&joined, &rels);
            out.check(verdict.is_ok(), || {
                format!("{} {mode:?}: {}", alg.name(), verdict.unwrap_err())
            });
            *sum += wall;
        }
    }
    out.readings.put("core.faithful_threaded_s", faithful);
    out.readings.put("core.modern_speedup", faithful / modern);
    Ok(())
}

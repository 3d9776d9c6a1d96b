//! The extension experiments E1–E12: the paper's §9 future work
//! (speedup, scaleup, skew, the algorithm crossover), ablations of its
//! design and model choices, and the hybrid hash join it defers (§7).

use mmjoin::{inputs_for, join, verify, Algo, ExecMode, JoinSpec};
use mmjoin_bench::{
    calibrated_machine, fig5_json, fig5_sweep, one_sim_join, paper_workload, r_bytes, render_fig5,
    sim_env, PAGE,
};
use mmjoin_env::machine::{DttCurve, MachineParams};
use mmjoin_env::CpuOp;
use mmjoin_model::predict;
use mmjoin_relstore::{build, PointerDist, Relations, WorkloadSpec};
use mmjoin_vmsim::{
    analyze, calibrated_params, ContentionMode, DiskParams, Policy, SimConfig, SimEnv,
};

/// [`one_sim_join`]'s elapsed time in the paper's setup: strict LRU,
/// independent disks, sequential execution, free-running phases.
fn paper_join(alg: Algo, workload: &WorkloadSpec, pages: usize) -> f64 {
    let (policy, contention) = (Policy::Lru, ContentionMode::Independent);
    let mode = ExecMode::Sequential;
    one_sim_join(alg, workload, pages, policy, contention, mode, false).0
}

/// Extension E1 (paper §9 future work): speedup — elapsed time vs the
/// number of disks/process pairs D at a fixed total workload.
pub fn speedup() {
    println!("E1 speedup: Time vs D, |R| = |S| = 102,400 fixed, M/|R| = 0.05 per proc");
    println!(
        "{:>12} {:>4} {:>12} {:>9}",
        "algorithm", "D", "time (s)", "speedup"
    );
    for alg in [Algo::NestedLoops, Algo::SortMerge, Algo::Grace] {
        let mut base = None;
        for d in [1u32, 2, 4, 8] {
            let w = paper_workload(d, 300 + d as u64);
            let pages = ((0.05 * r_bytes(&w) as f64) as u64 / PAGE) as usize;
            let t = paper_join(alg, &w, pages);
            let b = *base.get_or_insert(t);
            println!("{:>12} {d:>4} {t:>12.1} {:>8.2}x", alg.name(), b / t);
        }
    }
    println!();
    println!("expected: near-linear speedup (each Rproc handles |R|/D against its");
    println!("own disk). Nested loops goes super-linear because per-proc memory is");
    println!("held at 0.05|R| while each S partition shrinks with D, so the Sproc");
    println!("buffers cover ever more of S — the classic aggregate-memory effect.");
}

/// Extension E2 (paper §9 future work): scaleup — grow D and |R|
/// together; flat curves mean perfect scaleup.
pub fn scaleup() {
    println!("E2 scaleup: |R| = 25,600 x D (per-disk share fixed), M/|R| = 0.05");
    println!(
        "{:>12} {:>4} {:>10} {:>12} {:>10}",
        "algorithm", "D", "|R|", "time (s)", "vs D=1"
    );
    for alg in [Algo::NestedLoops, Algo::SortMerge, Algo::Grace] {
        let mut base = None;
        for d in [1u32, 2, 4, 8] {
            let mut w = paper_workload(d, 400 + d as u64);
            w.rel.r_objects = 25_600 * d as u64;
            w.rel.s_objects = 25_600 * d as u64;
            let pages = ((0.05 * r_bytes(&w) as f64 / d as f64) as u64 / PAGE).max(8) as usize;
            let t = paper_join(alg, &w, pages);
            let b = *base.get_or_insert(t);
            println!(
                "{:>12} {d:>4} {:>10} {t:>12.1} {:>9.2}x",
                alg.name(),
                w.rel.r_objects,
                t / b
            );
        }
    }
    println!();
    println!("expected: ratios near 1.0x (flat) — the per-proc share is constant");
    println!("and the staggered phases keep disks private. The residual growth in");
    println!("sort-merge/Grace is the mapping-setup term: manipulating a mapping is");
    println!("serial (charged xD, paper 5.3), an inherent scaleup limiter.");
}

/// Extension E3: pointer-distribution skew sensitivity, executed and
/// modelled. Zipf-distributed join pointers concentrate references;
/// CrossPartition concentrates whole partitions (skew = D).
pub fn skew() {
    println!("E3 skew sensitivity (M/|R| = 0.05, D = 4)");
    println!(
        "{:>12} {:>16} {:>8} {:>12} {:>12}",
        "algorithm", "distribution", "skew", "model (s)", "experim (s)"
    );
    for alg in [Algo::NestedLoops, Algo::SortMerge, Algo::Grace] {
        for (name, dist) in [
            ("uniform", PointerDist::Uniform),
            ("zipf(0.8)", PointerDist::Zipf { theta: 0.8 }),
            ("cross-partition", PointerDist::CrossPartition),
        ] {
            let mut w = paper_workload(4, 500);
            w.dist = dist;
            let pages = ((0.05 * r_bytes(&w) as f64) as u64 / PAGE) as usize;
            let env = sim_env(4, pages, Policy::Lru, ContentionMode::Independent);
            let rels = build(&env, &w).expect("workload");
            let spec = JoinSpec::new(pages as u64 * PAGE, pages as u64 * PAGE)
                .with_mode(ExecMode::Sequential);
            let out = join(&env, &rels, alg, &spec).expect("join");
            verify(&out, &rels).expect("oracle");
            let model = alg
                .modelled()
                .map(|a| predict(a, calibrated_machine(), &inputs_for(&rels, &spec)).total())
                .unwrap_or(f64::NAN);
            println!(
                "{:>12} {:>16} {:>8.2} {:>12.1} {:>12.1}",
                alg.name(),
                name,
                rels.skew,
                model,
                out.elapsed
            );
        }
    }
    println!();
    println!("expected: skew inflates the synchronized algorithms (worst-case");
    println!("partition gates each pass) more than free-running nested loops.");
    println!("note: the model's skew terms are the paper's worst-case bounds;");
    println!("for pathological distributions (cross-partition) the bound is loose");
    println!("and the model over-predicts — conservatively — by design.");
}

/// Extension E4: all three algorithms (plus the naive baseline) on one
/// memory axis — who wins where (the comparative analysis §9 lists as
/// future work).
pub fn crossover() {
    let w = paper_workload(4, 600);
    let fracs = [0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7];
    println!("E4 algorithm crossover: Time/Rproc (s) vs M/|R|, D = 4");
    print!("{:>8}", "M/|R|");
    for alg in Algo::ALL {
        print!(" {:>13}", alg.name());
    }
    println!(" {:>13}", "winner");
    for frac in fracs {
        let pages = ((frac * r_bytes(&w) as f64) as u64 / PAGE).max(4) as usize;
        print!("{frac:>8.2}");
        let mut best = (f64::INFINITY, "");
        for alg in Algo::ALL {
            let t = paper_join(alg, &w, pages);
            if t < best.0 {
                best = (t, alg.name());
            }
            print!(" {t:>13.1}");
        }
        println!(" {:>13}", best.1);
    }
    println!();
    println!("expected: Grace wins at small memory; the re-partitioned algorithms");
    println!("always beat the naive baseline; nested loops catches up only once S");
    println!("is effectively memory-resident.");
}

/// Extension E5: page-replacement policy ablation. The paper blames
/// part of its residual error on Dynix's replacement policy and works
/// around LRU's mid-merge mistakes by under-using memory (NRUN =
/// M/(3B), §6.2). Here the same joins run under strict LRU, FIFO and
/// second-chance.
pub fn replacement_ablation() {
    let w = paper_workload(4, 700);
    println!("E5 replacement-policy ablation (M/|R| = 0.03)");
    println!(
        "{:>12} {:>14} {:>12} {:>10} {:>10}",
        "algorithm", "policy", "time (s)", "faults-r", "faults-w"
    );
    let pages = ((0.03 * r_bytes(&w) as f64) as u64 / PAGE) as usize;
    for alg in [Algo::SortMerge, Algo::Grace] {
        for (name, policy) in [
            ("LRU", Policy::Lru),
            ("FIFO", Policy::Fifo),
            ("second-chance", Policy::SecondChance),
        ] {
            let (t, fr, fw) = one_sim_join(
                alg,
                &w,
                pages,
                policy,
                ContentionMode::Independent,
                ExecMode::Sequential,
                false,
            );
            println!("{:>12} {name:>14} {t:>12.1} {fr:>10} {fw:>10}", alg.name());
        }
    }
    println!();
    println!("expected: differences are modest because the algorithms already");
    println!("under-use memory (NRUN = M/3B, K slack) to sidestep LRU's mistakes —");
    println!("the paper's own compensation, §6.2/§7.2.");
}

/// `json`: also write `results/hybrid.json` and
/// `results/hybrid_grace_baseline.json`.
/// Extension E6: hybrid hash vs Grace — the "more modern hash-based
/// join" the paper defers to future work (§7), on the Fig. 5(c) axis.
/// Hybrid hash keeps bucket 0 memory-resident, so its advantage over
/// Grace should grow with memory.
pub fn hybrid() -> Vec<(&'static str, String)> {
    let w = paper_workload(4, 1996);
    let fracs = [0.015, 0.02, 0.03, 0.04, 0.06, 0.08];
    let grace = fig5_sweep(Algo::Grace, &fracs, &w, |_, _| String::new());
    let hybrid = fig5_sweep(Algo::HybridHash, &fracs, &w, |rels: &Relations, spec| {
        let plan = mmjoin::hybrid::plan_for(rels, spec);
        format!("f0={:.2} K={}", plan.f0, plan.k)
    });
    println!("{}", render_fig5("E6 hybrid hash (extension)", &hybrid));
    println!("Grace on the same axis, for comparison:");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "M/|R|", "grace mdl", "grace exp", "hybrid mdl", "hybrid exp"
    );
    for (g, h) in grace.iter().zip(&hybrid) {
        println!(
            "{:>8.3} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            g.frac, g.model, g.sim, h.model, h.sim
        );
    }
    println!();
    println!("expected: hybrid <= grace everywhere, with the gap widening as");
    println!("memory (and with it bucket 0's share f0) grows.");
    vec![
        ("hybrid", fig5_json(&hybrid)),
        ("hybrid_grace_baseline", fig5_json(&grace)),
    ]
}

fn flat_dtt(m: &MachineParams) -> MachineParams {
    MachineParams {
        dttr: DttCurve::constant(m.dttr.eval(12_800.0)),
        dttw: DttCurve::constant(m.dttw.eval(12_800.0)),
        ..m.clone()
    }
}

fn no_fault_overhead(m: &MachineParams) -> MachineParams {
    let mut out = m.clone();
    out.cpu[CpuOp::FaultOverhead.index()] = 0.0;
    out
}

/// Extension E7: what the paper's modelling refinements buy.
///
/// §2.3 criticizes Shekita & Carey's model for assuming "the cost of
/// I/O on a single byte to be a constant, not taking into account seek
/// times or the possibility of savings using block transfer; they do
/// not distinguish between sequential and random I/O". This ablation
/// evaluates three model variants against the execution-driven
/// experiment at several Fig. 5 operating points:
///
/// * `full` — the paper's model as implemented here (band-size
///   dependent dtt curves, fault overhead, urn model);
/// * `flat-dtt` — dttr/dttw replaced by constants (their band-12800
///   values): no sequential/random distinction;
/// * `no-fault` — the per-fault CPU overhead term removed.
pub fn model_ablation() {
    let w = paper_workload(4, 1996);
    let full = calibrated_machine();
    let flat = flat_dtt(full);
    let nofault = no_fault_overhead(full);
    println!("E7 model ablation: prediction error vs the executed experiment");
    println!(
        "{:>12} {:>7} {:>10} {:>9} {:>9} {:>9}",
        "algorithm", "M/|R|", "experim", "full", "flat-dtt", "no-fault"
    );
    for (alg, fracs) in [
        (Algo::NestedLoops, [0.1, 0.3]),
        (Algo::SortMerge, [0.01, 0.04]),
        (Algo::Grace, [0.02, 0.06]),
    ] {
        for frac in fracs {
            let pages = ((frac * r_bytes(&w) as f64) as u64 / PAGE).max(4);
            let env = sim_env(4, pages as usize, Policy::Lru, ContentionMode::Independent);
            let rels = build(&env, &w).expect("workload");
            let spec = JoinSpec::new(pages * PAGE, pages * PAGE).with_mode(ExecMode::Sequential);
            let out = join(&env, &rels, alg, &spec).expect("join");
            verify(&out, &rels).expect("oracle");
            let inputs = inputs_for(&rels, &spec);
            let ma = alg.modelled().expect("modelled");
            let err = |m: &MachineParams| {
                let p = predict(ma, m, &inputs).total();
                format!("{:+.0}%", (p - out.elapsed) / out.elapsed * 100.0)
            };
            println!(
                "{:>12} {frac:>7.2} {:>9.1}s {:>9} {:>9} {:>9}",
                alg.name(),
                out.elapsed,
                err(full),
                err(&flat),
                err(&nofault),
            );
        }
    }
    println!();
    println!("expected: the flat-dtt (Shekita–Carey-style) variant misses the");
    println!("memory sensitivity that band-dependent curves capture — most visibly");
    println!("for nested loops, whose cost is dominated by random S reads whose");
    println!("band shrinks as memory grows. Removing the fault-overhead term");
    println!("uniformly under-predicts.");
}

/// Extension E8: is pass-0/1 access really "random within the band"?
///
/// The paper's §3.1 prices every I/O of a pass at `dtt(BandSize)`, the
/// measured cost of uniformly random access across the whole band.
/// This experiment records the simulator's actual disk accesses during
/// each algorithm's run and compares:
///
/// * the *model band* (the §5.3/§6.3/§7.3 formulas) and its `dttr`;
/// * the *effective band* the trace actually exhibits (3 × mean arm
///   jump — for uniform access in a span W the mean jump is W/3);
/// * the empirical mean read cost.
///
/// This pins down the residual bias discussed in EXPERIMENTS.md: the
/// algorithms' access is *structured*, so the random-in-band assumption
/// over-prices sort-merge and Grace while barely affecting nested loops
/// (whose S fetches genuinely are random).
pub fn trace_stats() {
    let w = paper_workload(4, 1996);
    let machine = calibrated_machine();
    println!("E8 trace analysis: actual access pattern vs the random-in-band assumption");
    println!(
        "{:>12} {:>7} {:>11} {:>11} {:>13} {:>12} {:>12}",
        "algorithm", "M/|R|", "reads/disk", "span(blk)", "eff-band(blk)", "dttr(eff)", "mean-read"
    );
    for (alg, frac) in [
        (Algo::NestedLoops, 0.1),
        (Algo::SortMerge, 0.03),
        (Algo::Grace, 0.04),
    ] {
        let pages = ((frac * r_bytes(&w) as f64) as u64 / PAGE).max(4);
        let mut cfg = SimConfig::granted(4, machine.clone(), pages as usize, pages as usize);
        cfg.trace = true;
        let env = SimEnv::new(cfg).expect("config");
        let rels = build(&env, &w).expect("workload");
        let spec = JoinSpec::new(pages * PAGE, pages * PAGE).with_mode(ExecMode::Sequential);
        let out = join(&env, &rels, alg, &spec).expect("join");
        verify(&out, &rels).expect("oracle");
        let stats = analyze(&env.take_trace());
        // Disk 0 is representative (uniform workload).
        if let Some(s) = stats.first() {
            println!(
                "{:>12} {:>7.2} {:>11} {:>11} {:>13.0} {:>10.2}ms {:>10.2}ms",
                alg.name(),
                frac,
                s.reads,
                s.touched_span,
                s.effective_band,
                machine.dttr.eval(s.effective_band) * 1e3,
                s.mean_read * 1e3,
            );
        }
    }
    println!();
    println!("reading: if access were truly random over the touched span, eff-band");
    println!("would approach span and mean-read would approach dttr(span). A small");
    println!("eff-band/span ratio quantifies how structured the algorithm's access");
    println!("is — and therefore how much the paper's simplification over-prices it.");
}

/// Extension E9: the opening claim of §5 — "parallelism [of the naive
/// version] is inhibited by contention when several R_i reference the
/// same S_j". The naive baseline and the two-pass nested loops run
/// under both disk-arbitration modes; contention should hurt the naive
/// version much more, because the staggered phases give each S_j a
/// single suitor per phase.
pub fn contention() {
    let w = paper_workload(4, 800);
    let pages = ((0.1 * r_bytes(&w) as f64) as u64 / PAGE) as usize;
    println!("E9 disk contention: naive vs staggered nested loops (M/|R| = 0.1, threaded)");
    println!(
        "{:>14} {:>14} {:>12} {:>12}",
        "algorithm", "arbitration", "time (s)", "slowdown"
    );
    for alg in [Algo::NaiveNestedLoops, Algo::NestedLoops] {
        let mut base = None;
        for (name, mode) in [
            ("independent", ContentionMode::Independent),
            ("queued", ContentionMode::Queued),
        ] {
            let (t, _, _) =
                one_sim_join(alg, &w, pages, Policy::Lru, mode, ExecMode::Threaded, false);
            let b = *base.get_or_insert(t);
            println!(
                "{:>14} {:>14} {:>12.1} {:>11.2}x",
                alg.name(),
                name,
                t,
                t / b
            );
        }
    }
    println!();
    println!("expected: the naive version suffers noticeably more than the staggered");
    println!("one. Note the arbiter is conservative: it serializes any requests whose");
    println!("virtual intervals overlap, without global event ordering, so *both*");
    println!("rows inflate under 'queued'; the paper's claim lives in the gap between");
    println!("them (naive pays extra because several Rprocs genuinely want the same");
    println!("S_j at once, which staggering forbids).");
}

fn ssd_point(disk: &DiskParams, alg: Algo, pages: u64, w: &WorkloadSpec) -> f64 {
    let machine = calibrated_params(disk).expect("calibration");
    let mut cfg = SimConfig::granted(4, machine, pages as usize, pages as usize);
    cfg.disk = disk.clone();
    let env = SimEnv::new(cfg).expect("config");
    let rels = build(&env, w).expect("workload");
    let spec = JoinSpec::new(pages * PAGE, pages * PAGE).with_mode(ExecMode::Sequential);
    let out = join(&env, &rels, alg, &spec).expect("join");
    verify(&out, &rels).expect("oracle");
    out.elapsed
}

/// Extension E10: do these algorithms still matter without seeks?
///
/// The paper's entire design space — re-partitioning passes, pointer
/// sorting, staggered phases — exists because *random disk access is
/// expensive*. This experiment swaps the mechanistic 1996 drive for a
/// flat-cost SSD-like device (no seek, no rotation), recalibrates, and
/// re-runs a Fig.-5-style point for each algorithm. The expected
/// collapse of the nested-loops penalty is the quantitative version of
/// why this once-hot niche went quiet.
pub fn ssd() {
    let w = paper_workload(4, 2000);
    let pages = ((0.05 * r_bytes(&w) as f64) as u64 / PAGE).max(4);
    let hdd = DiskParams::waterloo96();
    let ssd = DiskParams::flat_ssd();
    println!("E10 device ablation at M/|R| = 0.05 (seconds; ratio vs the best)");
    println!(
        "{:>14} {:>12} {:>8} {:>12} {:>8}",
        "algorithm", "1996 disk", "ratio", "flat ssd", "ratio"
    );
    let mut rows = Vec::new();
    for alg in [
        Algo::NestedLoops,
        Algo::SortMerge,
        Algo::Grace,
        Algo::HybridHash,
    ] {
        rows.push((
            alg,
            ssd_point(&hdd, alg, pages, &w),
            ssd_point(&ssd, alg, pages, &w),
        ));
    }
    let best_hdd = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let best_ssd = rows.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
    for (alg, h, s) in &rows {
        println!(
            "{:>14} {:>11.1}s {:>7.1}x {:>11.1}s {:>7.1}x",
            alg.name(),
            h,
            h / best_hdd,
            s,
            s / best_ssd
        );
    }
    println!();
    println!("expected: on the seeking disk, nested loops pays several-fold for its");
    println!("random S access; on the flat device the spread collapses toward CPU +");
    println!("transfer costs — the re-partitioning machinery stops paying for itself,");
    println!("which is why pointer-join re-partitioning faded with cheap random I/O.");
}

/// Extension E11: isolating the Mackert–Lohman term.
///
/// Fig. 5 sweeps `M_Rproc` with `M_Sproc` along for the ride. Nested
/// loops' cost, though, is dominated by the `Ylru(...)` faults of the
/// *Sproc* buffer — so sweeping `M_Sproc` alone, at fixed `M_Rproc`,
/// tests the Ylru approximation in isolation: the model's S-read terms
/// are the only ones that move.
pub fn msproc() {
    let w = paper_workload(4, 900);
    let machine = calibrated_machine();
    let r_pages = ((0.3 * r_bytes(&w) as f64) as u64 / PAGE) as usize; // fixed, ample
    println!("E11 M_Sproc sweep (nested loops, M_Rproc fixed at 0.3·|R|)");
    println!(
        "{:>10} {:>12} {:>12} {:>8} {:>10}",
        "S pages", "model (s)", "experim (s)", "err%", "S faults"
    );
    for s_frac in [0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3] {
        let s_pages = ((s_frac * r_bytes(&w) as f64) as u64 / PAGE).max(4) as usize;
        let cfg = SimConfig::granted(4, machine.clone(), r_pages, s_pages);
        let env = SimEnv::new(cfg).expect("config");
        let rels = build(&env, &w).expect("workload");
        let spec = JoinSpec::new(r_pages as u64 * PAGE, s_pages as u64 * PAGE)
            .with_mode(ExecMode::Sequential);
        let out = join(&env, &rels, Algo::NestedLoops, &spec).expect("join");
        verify(&out, &rels).expect("oracle");
        let model = predict(
            mmjoin_model::Algorithm::NestedLoops,
            machine,
            &inputs_for(&rels, &spec),
        )
        .total();
        // S faults are the Sproc-side reads: total reads minus the
        // R/RP compulsory traffic, visible directly as the delta.
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>+7.1}% {:>10}",
            s_pages,
            model,
            out.elapsed,
            (model - out.elapsed) / out.elapsed * 100.0,
            out.stats.total_read_faults(),
        );
    }
    println!();
    println!("expected: both series fall together as the Sproc buffer grows, with");
    println!("model error staying in single digits — Ylru earning its validation.");
}

/// Extension E12: the §5.2 parameter choice for `G`.
///
/// "G should be large enough to avoid many context switches between
/// Rproc_i and Sproc_i, but small enough so that the volume of pending
/// requests does not force important information out of memory. The
/// implementation used a value of B for G." This sweep varies `G` for
/// nested loops and reports elapsed time and context switches — the
/// trade-off the paper describes, with its chosen point (G = B = 4096)
/// marked.
pub fn gbuffer() {
    let w = paper_workload(4, 1100);
    let pages = ((0.15 * r_bytes(&w) as f64) as u64 / PAGE) as usize;
    println!("E12 shared-buffer size G (nested loops, M/|R| = 0.15)");
    println!(
        "{:>10} {:>12} {:>14} {:>12}",
        "G (bytes)", "time (s)", "ctx switches", "batch objs"
    );
    for g in [264u64, 1024, 4096, 16_384, 65_536] {
        let env = sim_env(4, pages, Policy::Lru, ContentionMode::Independent);
        let rels = build(&env, &w).expect("workload");
        let mut spec =
            JoinSpec::new(pages as u64 * PAGE, pages as u64 * PAGE).with_mode(ExecMode::Sequential);
        spec.g_buffer = g;
        let out = join(&env, &rels, Algo::NestedLoops, &spec).expect("join");
        verify(&out, &rels).expect("oracle");
        let ctx: u64 = out.stats.procs.iter().map(|p| p.ctx_switches).sum();
        let marker = if g == PAGE {
            "  <- paper's choice (G = B)"
        } else {
            ""
        };
        println!(
            "{g:>10} {:>12.1} {:>14} {:>12}{marker}",
            out.elapsed,
            ctx,
            g / (128 + 8 + 128),
        );
    }
    println!();
    println!("expected: context switches fall ~linearly with G while elapsed time");
    println!("flattens once exchanges are cheap relative to the S reads — G = B");
    println!("already sits on the flat part, as §5.2 chose.");
}

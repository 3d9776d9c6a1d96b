//! The paper's own evidence: Fig. 1's band and map-cost curves, Fig. 5's
//! model-vs-experiment sweeps, and the §5.1 synchronization claim.

use mmjoin::{Algo, ExecMode};
use mmjoin_bench::{
    calibrated_machine, fig5_json, fig5_sweep, one_sim_join, paper_workload, r_bytes, render_fig5,
    PAGE,
};
use mmjoin_mmstore::measure_map_costs;
use mmjoin_relstore::Relations;
use mmjoin_vmsim::{measure_dtt, CalibrationSpec, ContentionMode, DiskParams, Policy};

/// Figure 1(a): measured disk transfer time (ms per 4 KB block) as a
/// function of band size, for random reads and deferred writes — the
/// paper's banding measurement run against the simulated drive.
pub fn fig1a() {
    let disk = DiskParams::waterloo96();
    let spec = CalibrationSpec::default();
    println!("Fig 1(a): disk transfer time vs band size");
    println!(
        "disk: {} blocks/track, {} tracks/cyl, {} cylinders, {} rpm",
        disk.blocks_per_track, disk.tracks_per_cyl, disk.cylinders, disk.rpm
    );
    println!(
        "{:>12} {:>14} {:>14}",
        "band (blks)", "dttr (ms/blk)", "dttw (ms/blk)"
    );
    for s in measure_dtt(&disk, &spec) {
        println!(
            "{:>12} {:>14.2} {:>14.2}",
            s.band,
            s.read * 1e3,
            s.write * 1e3
        );
    }
    println!();
    println!("paper (Fujitsu M2344K/M2372K): dttr 6..~20+ ms, dttw below dttr,");
    println!("both rising with band size; compare the shapes above.");
}

/// Figure 1(b): memory-mapping setup time (newMap / openMap /
/// deleteMap) as a function of map size — measured for real on this
/// machine's mmap (mmjoin-mmstore), and shown against the linear cost
/// model the simulator charges.
pub fn fig1b() {
    let dir = std::env::temp_dir().join(format!("mmjoin-fig1b-{}", std::process::id()));
    let blocks = [1600u64, 3200, 4800, 6400, 8000, 9600, 11200, 12800];
    println!("Fig 1(b): mapping setup time vs map size (4 KB blocks)");
    println!("measured on this machine's real mmap:");
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "blocks", "newMap (s)", "openMap (s)", "deleteMap (s)"
    );
    match measure_map_costs(&dir, 4096, &blocks, 3) {
        Ok(samples) => {
            for s in &samples {
                println!(
                    "{:>12} {:>12.4} {:>12.4} {:>12.4}",
                    s.blocks, s.new_map, s.open_map, s.delete_map
                );
            }
        }
        Err(e) => println!("  measurement failed: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!();
    println!("modelled 1996 machine (linear fits used by the simulator/model):");
    let mc = calibrated_machine().map_cost;
    println!(
        "{:>12} {:>12} {:>12} {:>12}",
        "blocks", "newMap (s)", "openMap (s)", "deleteMap (s)"
    );
    for b in blocks {
        println!(
            "{:>12} {:>12.2} {:>12.2} {:>12.2}",
            b,
            mc.new_map(b),
            mc.open_map(b),
            mc.delete_map(b)
        );
    }
    println!();
    println!("paper: all three linear in size; newMap > openMap > deleteMap.");
}

/// Figure 5(a): nested loops — model vs experiment, Time/Rproc against
/// M_Rproc/|R| ∈ [0.1, 0.7] on the §8 workload.
pub fn fig5a() -> Vec<(&'static str, String)> {
    let w = paper_workload(4, 1996);
    let fracs = [0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7];
    let rows = fig5_sweep(Algo::NestedLoops, &fracs, &w, |_, _| String::new());
    println!(
        "{}",
        render_fig5("Fig 5(a): parallel pointer-based nested loops", &rows)
    );
    println!("paper: ~2000 s at 0.1 falling monotonically to ~800 s at 0.7;");
    println!("model tracks experiment closely. Check the same decline+flatten here.");
    vec![("fig5a", fig5_json(&rows))]
}

/// Figure 5(b): sort-merge — model vs experiment over M_Rproc/|R| ∈
/// [0.01, 0.05]; the discontinuities mark extra merge passes.
pub fn fig5b() -> Vec<(&'static str, String)> {
    let w = paper_workload(4, 1996);
    let fracs = [
        0.008, 0.01, 0.012, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04, 0.045, 0.05,
    ];
    let rows =
        fig5_sweep(
            Algo::SortMerge,
            &fracs,
            &w,
            |rels, spec| match mmjoin::sort_merge::plan_for(PAGE, rels, spec, 0) {
                Ok(p) => format!(
                    "IRUN-runs={} NPASS={} LRUN={}",
                    p.initial_runs, p.npass, p.lrun
                ),
                Err(_) => String::new(),
            },
        );
    println!(
        "{}",
        render_fig5("Fig 5(b): parallel pointer-based sort-merge", &rows)
    );
    println!("paper: ~700 s at 0.01 stepping down to ~500 s at 0.05, with");
    println!("discontinuities where an extra merging pass appears (see NPASS).");
    vec![("fig5b", fig5_json(&rows))]
}

/// Figure 5(c): Grace — model vs experiment over M_Rproc/|R| ∈
/// [0.02, 0.08]; the curve at low memory is paging-induced thrashing
/// (urn model).
pub fn fig5c() -> Vec<(&'static str, String)> {
    let w = paper_workload(4, 1996);
    let fracs = [0.015, 0.02, 0.025, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08];
    let rows = fig5_sweep(Algo::Grace, &fracs, &w, |rels: &Relations, spec| {
        format!("K={}", mmjoin::grace::k_for(rels, spec))
    });
    println!(
        "{}",
        render_fig5("Fig 5(c): parallel pointer-based Grace", &rows)
    );
    println!("paper: ~460 s at 0.02 falling to ~340 s at 0.08; the low-memory");
    println!("rise is thrashing from the page replacement algorithm.");
    vec![("fig5c", fig5_json(&rows))]
}

/// §5.1 claim: adding synchronization between the phases of nested
/// loops' pass 1 changes I/O and total time by at most ~0.5% (best case
/// a small decrease from reduced contention).
pub fn sync_ablation() {
    let w = paper_workload(4, 77);
    let pages = ((0.3 * r_bytes(&w) as f64) as u64 / PAGE) as usize;
    println!("Nested loops, pass-1 phase synchronization ablation (M/|R| = 0.3)");
    println!(
        "{:>22} {:>12} {:>10} {:>10}",
        "variant", "time (s)", "faults-r", "faults-w"
    );
    for (name, contention, sync) in [
        ("free-running", ContentionMode::Independent, false),
        ("free-running+queued", ContentionMode::Queued, false),
        ("synchronized+queued", ContentionMode::Queued, true),
    ] {
        // Threaded execution so phases can actually overlap.
        let (t, fr, fw) = one_sim_join(
            Algo::NestedLoops,
            &w,
            pages,
            Policy::Lru,
            contention,
            ExecMode::Threaded,
            sync,
        );
        println!("{name:>22} {t:>12.1} {fr:>10} {fw:>10}");
    }
    println!();
    println!("paper: synchronization bought at most a 0.5% decrease in I/O and");
    println!("total time; the offset scheme already removes nearly all contention.");
}

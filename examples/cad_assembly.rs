//! CAD assembly explosion on the **real** memory-mapped store.
//!
//! The paper motivates single-level stores with applications like
//! computer-aided design (§1): a design holds millions of component
//! instances, each referencing its part master by pointer. Joining
//! `instances ⋈ part_masters` is exactly a pointer-based join — and
//! standard parts (screws, washers) are referenced far more often than
//! custom ones, so the pointer distribution is Zipf-skewed.
//!
//! This example runs on `MmapEnv`: real mmap-ed files under a
//! temporary directory, real Rproc threads, wall-clock timing.
//!
//! ```sh
//! cargo run --release -p mmjoin --example cad_assembly
//! ```

use mmjoin::{join, verify, Algo, ExecMode, JoinSpec};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_relstore::{build, PointerDist, RelConfig, WorkloadSpec};

fn main() {
    let root = std::env::temp_dir().join(format!("mmjoin-cad-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let d = 4;
    let env = MmapEnv::new(MmapEnvConfig {
        root: root.clone(),
        num_disks: d,
        page_size: 4096,
    })
    .expect("environment builds");

    // 200 000 component instances (R) over 50 000 part masters (S);
    // popular parts dominate (Zipf θ = 0.9).
    let workload = WorkloadSpec {
        rel: RelConfig {
            r_size: 128, // instance: transform matrix + the part pointer
            s_size: 256, // part master: geometry summary, attributes
            d,
            r_objects: 200_000,
            s_objects: 50_000,
        },
        dist: PointerDist::Zipf { theta: 0.9 },
        seed: 42,
        prefix: String::new(),
    };
    let rels = build(&env, &workload).expect("assembly loads");

    println!("CAD assembly explosion on the real memory-mapped store");
    println!(
        "  {} component instances over {} part masters, D = {d} disks",
        workload.rel.r_objects, workload.rel.s_objects
    );
    println!("  store root: {} (one directory per disk)", root.display());
    println!("  measured pointer skew: {:.2}\n", rels.skew);

    let spec = JoinSpec::new(1 << 22, 1 << 22).with_mode(ExecMode::Threaded);
    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "algorithm", "pairs", "wall time", "S batches"
    );
    for alg in [Algo::Grace, Algo::SortMerge, Algo::NestedLoops] {
        let spec = spec.clone().with_tag(alg.name());
        let out = join(&env, &rels, alg, &spec).expect("join runs");
        verify(&out, &rels).expect("explosion matches the oracle");
        let batches: u64 = out.stats.procs.iter().map(|p| p.s_batches).sum();
        println!(
            "{:<14} {:>10} {:>10.3}s {:>12}",
            alg.name(),
            out.pairs,
            out.elapsed,
            batches
        );
    }

    println!("\nEvery instance matched its part master; the join results were");
    println!("identical across algorithms. The relation files remain ordinary");
    println!("files on disk — reopenable by a later session with no load step.");
    let _ = std::fs::remove_dir_all(&root);
}

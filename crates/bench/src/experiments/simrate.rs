//! Simulator rate: how fast the execution-driven simulator runs the
//! paper's Fig. 5 sweep on this host. Wall clock, so nothing compares
//! its output; the virtual-time tables are the `fig5*` goldens.
//!
//! ```sh
//! mmjoin-bench simrate [--objects N]   # default: the §8 workload, 102 400 objects
//! ```
//!
//! Per algorithm it prints the host seconds spent building and loading
//! the relations and running the joins, the pager touches (hits plus
//! faults) per join second, and this process's minor page faults over
//! the sweep (`/proc/self/stat`; `-` where there is none).

use mmjoin_bench::{fig5_point, paper_workload, PointWall, FIG5_SWEEP};
use mmjoin_env::Options;

pub fn run(opts: &Options) -> Result<(), String> {
    let objects: u64 = opts.parse_or("objects", 102_400)?;
    opts.finish("simrate")?;
    let mut w = paper_workload(4, 1996);
    w.rel.r_objects = objects;
    w.rel.s_objects = objects;
    w.rel
        .validate()
        .map_err(|e| format!("--objects {objects}: {e}"))?;
    println!(
        "simrate: the Fig. 5 sweep once, {objects} x {} B over D = {} (host wall clock)",
        w.rel.r_size, w.rel.d
    );
    println!(
        "{:<13} {:>6} {:>10} {:>10} {:>14} {:>13}",
        "algorithm", "points", "build (s)", "join (s)", "touches/s (M)", "minor faults"
    );
    let (mut total, mut total_faults) = (PointWall::default(), Some(0));
    for (alg, fracs) in FIG5_SWEEP {
        let faults_before = minor_faults();
        let mut wall = PointWall::default();
        for &frac in fracs {
            let (_, point) = fig5_point(alg, frac, &w, |_, _| String::new());
            add(&mut wall, &point);
        }
        let faults = faults_before.zip(minor_faults()).map(|(a, b)| b - a);
        print_line(alg.name(), fracs.len(), &wall, faults);
        add(&mut total, &wall);
        total_faults = total_faults.zip(faults).map(|(a, b)| a + b);
    }
    let points = FIG5_SWEEP.iter().map(|(_, f)| f.len()).sum();
    print_line("total", points, &total, total_faults);
    Ok(())
}

fn add(sum: &mut PointWall, point: &PointWall) {
    sum.build_s += point.build_s;
    sum.join_s += point.join_s;
    sum.touches += point.touches;
}

fn print_line(what: &str, points: usize, wall: &PointWall, faults: Option<u64>) {
    println!(
        "{:<13} {:>6} {:>10.3} {:>10.3} {:>14.2} {:>13}",
        what,
        points,
        wall.build_s,
        wall.join_s,
        wall.touches as f64 / wall.join_s / 1e6,
        faults.map_or("-".to_string(), |f| f.to_string())
    );
}

/// This process's minor page faults so far: field 10 of
/// `/proc/self/stat`, counted after the parenthesised command name.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(7)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minor_faults_grow_when_fresh_memory_is_touched() {
        let Some(before) = minor_faults() else {
            return; // no procfs on this host
        };
        let mut block = vec![0u8; 8 << 20];
        for page in block.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&block);
        assert!(minor_faults().unwrap() > before);
    }
}

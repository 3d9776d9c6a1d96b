//! Loading is environment-independent: relations preloaded block by
//! block (`mmjoin_relstore::preload_objects`) hold the same bytes on the
//! real mmap store, which writes them through the file descriptor, as
//! on the simulator, which copies them into its file bodies.
//!
//! The shapes sit on the writer's block edges: object sizes that do not
//! divide the block, partitions smaller than one block, exactly one
//! block, one block plus one object, and objects larger than a block.

use std::path::PathBuf;
use std::sync::Arc;

use mmjoin_env::machine::MachineParams;
use mmjoin_env::{Env, FileOps, ProcId};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_relstore::{
    build, build_explicit, encode_s, splitmix64, PointerDist, RelConfig, Relations, WorkloadSpec,
    PRELOAD_BLOCK,
};
use mmjoin_stream::{ResidentSet, StreamHeader};
use mmjoin_vmsim::{SimConfig, SimEnv};

/// Objects of `size` bytes in one preload block.
fn per_block(size: u32) -> u64 {
    (PRELOAD_BLOCK / size as usize).max(1) as u64
}

/// `(r_size, s_size, d, |R_i|, |S_i|)` on the block edges.
fn shapes() -> Vec<(u32, u32, u32, u64, u64)> {
    vec![
        // 24 B does not divide the block: two blocks and a partial one
        // of R; S smaller than one block.
        (24, 200, 2, 2 * per_block(24) + 5, 7),
        // Exactly one block of each.
        (200, 24, 2, per_block(200), per_block(24)),
        // One block plus one object.
        (200, 200, 1, per_block(200) + 1, per_block(200) + 1),
        // Objects larger than a block: one object per preload.
        (300_000, 270_000, 2, 2, 3),
    ]
}

fn rel(r_size: u32, s_size: u32, d: u32, r_per: u64, s_per: u64) -> RelConfig {
    RelConfig {
        r_size,
        s_size,
        d,
        r_objects: r_per * d as u64,
        s_objects: s_per * d as u64,
    }
}

fn sim(d: u32) -> SimEnv {
    SimEnv::new(SimConfig::waterloo96(d)).unwrap()
}

fn mmap(d: u32, tag: &str) -> (MmapEnv, PathBuf) {
    let root = std::env::temp_dir().join(format!("mmjoin-preload-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let env = MmapEnv::new(MmapEnvConfig {
        root: root.clone(),
        num_disks: d,
        page_size: 4096,
    })
    .unwrap();
    (env, root)
}

fn mmap_bytes(env: &MmapEnv, name: &str) -> Vec<u8> {
    let f = env.open_file(ProcId(0), name).unwrap();
    let mut buf = vec![0u8; f.len() as usize];
    f.read_at(ProcId(0), 0, &mut buf).unwrap();
    buf
}

fn sim_bytes(env: &SimEnv, name: &str) -> Vec<u8> {
    let f = env.open_file(ProcId(0), name).unwrap();
    let mut buf = vec![0u8; f.len() as usize];
    env.peek(name, 0, &mut buf).unwrap();
    buf
}

/// Every R and S file of the two builds holds the same bytes, and the
/// two oracles agree.
fn assert_same_relations(mm: &MmapEnv, on_mmap: &Relations, sm: &SimEnv, on_sim: &Relations) {
    assert_eq!(on_mmap.expected_checksum, on_sim.expected_checksum);
    assert_eq!(on_mmap.sub_counts, on_sim.sub_counts);
    assert_eq!(on_mmap.r_files, on_sim.r_files);
    assert_eq!(on_mmap.s_files, on_sim.s_files);
    for name in on_mmap.r_files.iter().chain(&on_mmap.s_files) {
        let (a, b) = (mmap_bytes(mm, name), sim_bytes(sm, name));
        assert_eq!(a.len(), b.len(), "{name}");
        assert!(a == b, "{name} differs between MmapEnv and SimEnv");
    }
}

#[test]
fn built_relations_are_byte_identical_on_mmap_and_sim() {
    for (n, (r_size, s_size, d, r_per, s_per)) in shapes().into_iter().enumerate() {
        let spec = WorkloadSpec {
            rel: rel(r_size, s_size, d, r_per, s_per),
            dist: PointerDist::Uniform,
            seed: 11 + n as u64,
            prefix: "w".into(),
        };
        let (mm, root) = mmap(d, &format!("build{n}"));
        let sm = sim(d);
        let (a, b) = (build(&mm, &spec).unwrap(), build(&sm, &spec).unwrap());
        assert_same_relations(&mm, &a, &sm, &b);
        drop(mm);
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn explicit_relations_are_byte_identical_on_mmap_and_sim() {
    for (n, (r_size, s_size, d, r_per, s_per)) in shapes().into_iter().enumerate() {
        let rel = rel(r_size, s_size, d, r_per, s_per);
        let s_keys: Vec<u64> = (0..rel.s_objects).map(|k| splitmix64(k) >> 1).collect();
        let rows: Vec<(u64, u64)> = (0..rel.r_objects)
            .map(|k| (splitmix64(!k), splitmix64(k) % rel.s_objects))
            .collect();
        let (mm, root) = mmap(d, &format!("explicit{n}"));
        let sm = sim(d);
        let a = build_explicit(&mm, rel, "x", &s_keys, &rows).unwrap();
        let b = build_explicit(&sm, rel, "x", &s_keys, &rows).unwrap();
        assert_same_relations(&mm, &a, &sm, &b);
        drop(mm);
        std::fs::remove_dir_all(&root).unwrap();
    }
}

#[test]
fn resident_s_equals_built_s() {
    let machine = MachineParams::waterloo96();
    for (n, (_, s_size, d, _, s_per)) in shapes().into_iter().enumerate() {
        let header = StreamHeader {
            name: "v".into(),
            s_objects: s_per * d as u64,
            s_size,
            d,
            mem_pages: 64,
            seed: 0,
            modern: false,
        };
        // `build` under the stream's name: S slot k has key k.
        let spec = WorkloadSpec {
            rel: header.rel(),
            dist: PointerDist::Uniform,
            seed: 1,
            prefix: header.name.clone(),
        };
        let (mm, root) = mmap(d, &format!("built{n}"));
        let built = build(&mm, &spec).unwrap();

        let (resident_mm, resident_root) = mmap(d, &format!("resident{n}"));
        let on_mmap = ResidentSet::build(Arc::new(resident_mm.clone()), &header, &machine).unwrap();
        let resident_sm = sim(d);
        let on_sim = ResidentSet::build(Arc::new(resident_sm.clone()), &header, &machine).unwrap();
        for (j, name) in built.s_files.iter().enumerate() {
            // Encoded one object at a time, independent of the blocks.
            let want: Vec<u8> = (0..s_per)
                .flat_map(|k| {
                    let mut obj = vec![0u8; s_size as usize];
                    encode_s(&mut obj, j as u64 * s_per + k);
                    obj
                })
                .collect();
            assert!(mmap_bytes(&mm, name) == want, "{name} built on MmapEnv");
            assert!(mmap_bytes(&resident_mm, name) == want, "{name} on MmapEnv");
            assert!(sim_bytes(&resident_sm, name) == want, "{name} on SimEnv");
        }
        on_mmap.teardown().unwrap();
        on_sim.teardown().unwrap();
        drop((mm, resident_mm));
        std::fs::remove_dir_all(&root).unwrap();
        std::fs::remove_dir_all(&resident_root).unwrap();
    }
}

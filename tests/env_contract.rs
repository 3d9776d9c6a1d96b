//! The `Env` trait contract, checked generically against **both**
//! implementations. Anything the join algorithms rely on must behave
//! identically on the simulator and on the real memory-mapped store:
//! file lifecycle semantics, bounds checking, preload/reset behaviour,
//! the Sproc fetch protocol, and the event counters. The mmap store's
//! files also outlive the environment that wrote them.

use std::path::PathBuf;

use mmjoin_env::{DiskId, Env, EnvError, FileOps, ProcId, SCatalog, SPtr};
use mmjoin_mmstore::{MmapEnv, MmapEnvConfig};
use mmjoin_vmsim::{SimConfig, SimEnv};

const P: ProcId = ProcId(0);

/// The shared battery. `name_tag` keeps mmap roots distinct.
fn contract<E: Env>(env: &E) {
    // --- create / open / duplicate / delete ---
    let f = env.create_file(P, "alpha", DiskId(0), 10_000).unwrap();
    assert_eq!(f.len(), 10_000);
    assert!(!f.is_empty());
    assert!(matches!(
        env.create_file(P, "alpha", DiskId(0), 1),
        Err(EnvError::AlreadyExists(_))
    ));
    let f2 = env.open_file(P, "alpha").unwrap();
    assert_eq!(f2.len(), 10_000);
    assert!(matches!(
        env.open_file(P, "missing"),
        Err(EnvError::NotFound(_))
    ));

    // --- read/write round trip, including page-straddling ranges ---
    let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
    f.write_at(P, 3_000, &data).unwrap();
    let mut back = vec![0u8; 5000];
    f2.read_at(P, 3_000, &mut back).unwrap();
    assert_eq!(back, data);

    // --- bounds ---
    let mut buf = [0u8; 16];
    assert!(matches!(
        f.read_at(P, 9_990, &mut buf),
        Err(EnvError::OutOfBounds { .. })
    ));
    assert!(f.write_at(P, u64::MAX - 4, &buf).is_err());
    // Zero-length access at the end boundary is fine.
    f.read_at(P, 10_000, &mut []).unwrap();

    // --- preload is visible through normal reads ---
    env.create_file(P, "beta", DiskId(0), 4096).unwrap();
    env.preload("beta", 100, b"preloaded").unwrap();
    let b = env.open_file(P, "beta").unwrap();
    let mut nine = [0u8; 9];
    b.read_at(P, 100, &mut nine).unwrap();
    assert_eq!(&nine, b"preloaded");

    // --- delete invalidates by name ---
    env.delete_file(P, "beta").unwrap();
    assert!(matches!(
        env.open_file(P, "beta"),
        Err(EnvError::NotFound(_))
    ));
    assert!(matches!(
        env.delete_file(P, "beta"),
        Err(EnvError::NotFound(_))
    ));

    // --- S service protocol ---
    let d = env.num_disks();
    let part_bytes = 4096u64;
    let mut names = Vec::new();
    for j in 0..d {
        let n = format!("S_{j}");
        env.create_file(P, &n, DiskId(j), part_bytes).unwrap();
        let mut payload = vec![0u8; part_bytes as usize];
        for (i, c) in payload.chunks_mut(64).enumerate() {
            c[0] = j as u8;
            c[1] = i as u8;
        }
        env.preload(&n, 0, &payload).unwrap();
        names.push(n);
    }
    // Fetch before registration fails.
    let mut out = Vec::new();
    assert!(env
        .s_fetch_batch(P, 0, &[SPtr::new(0, 0, part_bytes)], 8, &mut out)
        .is_err());
    env.register_s(SCatalog {
        part_files: names,
        part_bytes,
        s_obj_size: 64,
    })
    .unwrap();
    let ptrs = [
        SPtr::new(d - 1, 2 * 64, part_bytes),
        SPtr::new(d - 1, 0, part_bytes),
    ];
    env.s_fetch_batch(P, d - 1, &ptrs, 72, &mut out).unwrap();
    assert_eq!(out.len(), 128);
    assert_eq!((out[0], out[1]), ((d - 1) as u8, 2));
    assert_eq!((out[64], out[65]), ((d - 1) as u8, 0));
    // A batch appends after what `out` already holds.
    env.s_fetch_batch(P, d - 1, &[SPtr::new(d - 1, 64, part_bytes)], 72, &mut out)
        .unwrap();
    assert_eq!(out.len(), 192);
    assert_eq!((out[0], out[1]), ((d - 1) as u8, 2));
    assert_eq!((out[64], out[65]), ((d - 1) as u8, 0));
    assert_eq!((out[128], out[129]), ((d - 1) as u8, 1));
    // Wrong-partition pointers are rejected.
    assert!(env
        .s_fetch_batch(P, 0, &[SPtr::new(d - 1, 0, part_bytes)], 8, &mut out)
        .is_err());
    // A refused batch is refused whole: a bad *last* pointer (in the
    // wrong partition, or in the partition but with its object running
    // past the end of the file) leaves `out` byte-identical and charges
    // nothing.
    let held = out.clone();
    let before = env.stats().procs[0].clone();
    let good = SPtr::new(d - 1, 3 * 64, part_bytes);
    assert!(d > 1, "the battery needs a second partition");
    for bad in [
        SPtr::new(0, 0, part_bytes),
        SPtr::new(d - 1, part_bytes - 32, part_bytes),
    ] {
        assert!(env
            .s_fetch_batch(P, d - 1, &[good, good, bad], 72, &mut out)
            .is_err());
        assert_eq!(out, held, "{bad}: out changed on a refused batch");
        let after = env.stats().procs[0].clone();
        assert_eq!(after.s_batches, before.s_batches, "{bad}");
        assert_eq!(after.s_objects, before.s_objects, "{bad}");
        assert_eq!(after.ctx_switches, before.ctx_switches, "{bad}");
        assert_eq!(after.move_bytes, before.move_bytes, "{bad}");
    }
    // Empty batch is a no-op.
    let before = env.stats().procs[0].s_batches;
    env.s_fetch_batch(P, 0, &[], 8, &mut out).unwrap();
    assert_eq!(env.stats().procs[0].s_batches, before);

    // --- counters and reset ---
    env.cpu(P, mmjoin_env::CpuOp::Map, 5);
    env.move_bytes(P, mmjoin_env::MoveKind::PP, 100);
    env.context_switches(P, 3);
    let st = env.stats();
    assert_eq!(st.procs[0].cpu_ops[mmjoin_env::CpuOp::Map.index()], 5);
    assert_eq!(
        st.procs[0].move_bytes[mmjoin_env::MoveKind::PP.index()],
        100
    );
    assert!(st.procs[0].ctx_switches >= 3);
    assert_eq!(st.procs.len(), ProcId::slots(d));
    env.reset_stats();
    let st = env.stats();
    assert_eq!(st.procs[0].ctx_switches, 0);
    assert_eq!(st.procs[0].cpu_ops[mmjoin_env::CpuOp::Map.index()], 0);

    env.shutdown_s();
}

#[test]
fn sim_env_honors_the_contract() {
    let mut cfg = SimConfig::waterloo96(2);
    cfg.rproc_pages = 16;
    cfg.sproc_pages = 16;
    let env = SimEnv::new(cfg).unwrap();
    contract(&env);
}

#[test]
fn mmap_env_honors_the_contract() {
    let root = std::env::temp_dir().join(format!("mmjoin-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let env = MmapEnv::new(MmapEnvConfig {
        root: root.clone(),
        num_disks: 2,
        page_size: 4096,
    })
    .unwrap();
    contract(&env);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn sim_clock_is_monotone_and_reset_zeroes_it() {
    let env = SimEnv::new(SimConfig::waterloo96(1)).unwrap();
    assert_eq!(env.now(P), 0.0);
    env.create_file(P, "t", DiskId(0), 4096).unwrap();
    let after_create = env.now(P);
    assert!(after_create > 0.0, "newMap charges time");
    env.cpu(P, mmjoin_env::CpuOp::Hash, 1000);
    assert!(env.now(P) > after_create);
    env.reset_stats();
    assert_eq!(env.now(P), 0.0);
}

#[test]
fn invalid_configs_are_rejected_by_both() {
    assert!(SimEnv::new(SimConfig::waterloo96(0)).is_err());
    assert!(MmapEnv::new(MmapEnvConfig {
        root: std::env::temp_dir().join("mmjoin-zero"),
        num_disks: 0,
        page_size: 4096,
    })
    .is_err());
    let env = SimEnv::new(SimConfig::waterloo96(1)).unwrap();
    assert!(env.create_file(P, "x", DiskId(9), 1).is_err(), "bad disk");
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mmjoin-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn env_files_survive_process_style_reopen() {
    let root = tmpdir("env");
    let pattern: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
    {
        let env = MmapEnv::new(MmapEnvConfig {
            root: root.clone(),
            num_disks: 2,
            page_size: 4096,
        })
        .unwrap();
        let f = env
            .create_file(ProcId(0), "data", DiskId(1), pattern.len() as u64)
            .unwrap();
        f.write_at(ProcId(0), 0, &pattern).unwrap();
        // Dropping the env unmaps everything (simulating process exit).
    }
    let on_disk = std::fs::read(root.join("disk1").join("data")).unwrap();
    assert_eq!(&on_disk[..pattern.len()], &pattern[..]);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn relation_files_reload_after_reopen() {
    use mmjoin_relstore::{build, r_key, PointerDist, RelConfig, WorkloadSpec};
    let root = tmpdir("rels");
    let w = WorkloadSpec {
        rel: RelConfig {
            r_size: 64,
            s_size: 64,
            d: 2,
            r_objects: 1_000,
            s_objects: 1_000,
        },
        dist: PointerDist::Uniform,
        seed: 8,
        prefix: String::new(),
    };
    {
        let env = MmapEnv::new(MmapEnvConfig {
            root: root.clone(),
            num_disks: 2,
            page_size: 4096,
        })
        .unwrap();
        build(&env, &w).unwrap();
    }
    // The relation partitions are ordinary files a later session can
    // read back; check an R-object decodes to its generated key.
    let raw = std::fs::read(root.join("disk1").join("R_1")).unwrap();
    let key = r_key(&raw[0..64]);
    assert_eq!(key, 500, "first object of partition 1 has key |R|/D");
    std::fs::remove_dir_all(&root).unwrap();
}

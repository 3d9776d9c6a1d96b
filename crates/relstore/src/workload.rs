//! Workload generation: build the paper's relations inside any
//! environment, with a known-correct join oracle.
//!
//! `S` is laid out in storage order (S-object `k`'s key is `k`), and
//! each R-object's join attribute is a virtual pointer to one S-object,
//! drawn either uniformly (the paper's assumption — "we assume that the
//! join attributes are randomly distributed in R", §4, which makes skew
//! ≈ 1.0) or Zipf-distributed for the skew-sensitivity extension.
//!
//! Because the generator knows every pointer it draws, it can compute
//! the exact expected join checksum up front; every algorithm must
//! reproduce it, on every environment.

use mmjoin_env::{DiskId, Env, ProcId, Result, SCatalog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::names;
use crate::object::{encode_r, encode_s, pair_digest, RelConfig};

/// Distribution of join pointers across S-objects.
#[derive(Clone, Debug, PartialEq)]
pub enum PointerDist {
    /// Uniform over all of `S` (paper default; skew ≈ 1).
    Uniform,
    /// Zipf with exponent `theta` over S-object ranks; rank 0 is the
    /// most popular object. `theta = 0` degenerates to uniform.
    Zipf {
        /// Skew exponent, typically in `(0, 1)`.
        theta: f64,
    },
    /// Every R-object in partition `i` points into S partition
    /// `(i + 1) mod D`: the worst case for the phase-staggering design,
    /// used in contention tests.
    CrossPartition,
}

impl std::str::FromStr for PointerDist {
    type Err = String;

    /// Parse the CLI/job-file syntax: `uniform`, `cross`, or `zipf:T`.
    fn from_str(s: &str) -> std::result::Result<PointerDist, String> {
        match s {
            "uniform" => Ok(PointerDist::Uniform),
            "cross" => Ok(PointerDist::CrossPartition),
            _ => {
                if let Some(theta) = s.strip_prefix("zipf:") {
                    let theta: f64 = theta
                        .parse()
                        .map_err(|_| format!("bad zipf parameter in '{s}'"))?;
                    Ok(PointerDist::Zipf { theta })
                } else {
                    Err(format!(
                        "unknown distribution '{s}' (uniform | zipf:T | cross)"
                    ))
                }
            }
        }
    }
}

/// Full workload description.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Relation shapes.
    pub rel: RelConfig,
    /// Pointer distribution.
    pub dist: PointerDist,
    /// RNG seed (generation is fully deterministic).
    pub seed: u64,
    /// Optional name prefix so several workloads can coexist in one
    /// environment.
    pub prefix: String,
}

impl WorkloadSpec {
    /// The paper's §8 validation workload.
    pub fn waterloo96(seed: u64) -> Self {
        WorkloadSpec {
            rel: RelConfig::waterloo96(),
            dist: PointerDist::Uniform,
            seed,
            prefix: String::new(),
        }
    }

    /// Planning-time estimate of the skew factor this spec will
    /// generate, available before any data exists (an admission
    /// controller must rank jobs it has not yet built). Exact for
    /// uniform and cross-partition pointers; for Zipf the busiest
    /// partition is approximated as the uniform share plus the most
    /// popular object's excess mass (integral approximation of the
    /// zeta normalizer).
    pub fn estimated_skew(&self) -> f64 {
        let d = self.rel.d as f64;
        match self.dist {
            PointerDist::Uniform => 1.0,
            PointerDist::CrossPartition => d,
            PointerDist::Zipf { theta } => {
                let n = self.rel.s_objects as f64;
                let zeta = if (theta - 1.0).abs() < 1e-9 {
                    n.ln() + 0.5772
                } else {
                    (n.powf(1.0 - theta) - 1.0) / (1.0 - theta) + 1.0
                };
                (1.0 + d / zeta.max(1.0)).min(d)
            }
        }
    }
}

/// Everything a join driver needs to know about generated relations.
#[derive(Clone, Debug)]
pub struct Relations {
    /// Relation shapes.
    pub rel: RelConfig,
    /// File names of `R_0..R_{D-1}`.
    pub r_files: Vec<String>,
    /// File names of `S_0..S_{D-1}`.
    pub s_files: Vec<String>,
    /// Catalog for [`Env::register_s`].
    pub catalog: SCatalog,
    /// Expected number of join pairs (= |R|, every pointer resolves).
    pub expected_pairs: u64,
    /// Expected order-independent join checksum.
    pub expected_checksum: u64,
    /// `|R_{i,j}|` counts: `sub_counts[i][j]` R-objects of partition `i`
    /// pointing into S partition `j`.
    pub sub_counts: Vec<Vec<u64>>,
    /// The paper's skew factor: `max_{i,j} |R_{i,j}| / (|R_i| / D)`.
    pub skew: f64,
    /// Name prefix used for the files.
    pub prefix: String,
}

impl Relations {
    /// `|R_{i,j}|` for this workload.
    pub fn sub_count(&self, i: u32, j: u32) -> u64 {
        self.sub_counts[i as usize][j as usize]
    }
}

/// Precomputed Zipf sampler over `0..n` (rank-ordered).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the sampler: O(n) zeta computation.
    pub fn new(n: u64, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// Draw one S-object target for an R-object of partition `part`.
fn draw_one(
    rel: &RelConfig,
    dist: &PointerDist,
    part: u32,
    rng: &mut StdRng,
    zipf: Option<&Zipf>,
) -> u64 {
    match dist {
        PointerDist::Uniform => rng.random_range(0..rel.s_objects),
        PointerDist::Zipf { .. } => {
            // Scatter ranks over storage order so popularity is not
            // correlated with address (rank r -> object (r * PRIME) mod n).
            let rank = zipf.expect("zipf sampler").sample(rng);
            (rank.wrapping_mul(0x9E37_79B1)) % rel.s_objects
        }
        PointerDist::CrossPartition => {
            let target_part = (part + 1) % rel.d;
            let within = rng.random_range(0..rel.s_per_part());
            target_part as u64 * rel.s_per_part() + within
        }
    }
}

/// Choose the S-object targets for one R partition.
fn draw_targets(
    rel: &RelConfig,
    dist: &PointerDist,
    part: u32,
    rng: &mut StdRng,
    zipf: Option<&Zipf>,
) -> Vec<u64> {
    (0..rel.r_per_part())
        .map(|_| draw_one(rel, dist, part, rng, zipf))
        .collect()
}

/// Draw a bounded, deterministic sample of the pointers this spec's
/// distribution will generate — *before* any data exists. Returns
/// `(source R partition, target S-index)` pairs.
///
/// This is the submit-time sampling path: an admission controller must
/// plan jobs whose relations have not been built yet, and the relations
/// are generated from this very distribution, so drawing
/// `min(cap, |R|)` pointers from it (seeded off the workload seed, on a
/// stream distinct from the generator's) is an honest bounded-cost
/// sample of the data to come. Draws round-robin across R partitions so
/// partition-correlated distributions (cross-partition) are represented
/// exactly.
pub fn sample_spec_pointers(spec: &WorkloadSpec, cap: usize) -> Vec<(u32, u64)> {
    let rel = spec.rel;
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xA5A5_5A5A_0BAD_CAFE);
    let zipf = match spec.dist {
        PointerDist::Zipf { theta } => Some(Zipf::new(rel.s_objects, theta)),
        _ => None,
    };
    let n = (cap as u64).min(rel.r_objects);
    (0..n)
        .map(|k| {
            let part = (k % rel.d as u64) as u32;
            (
                part,
                draw_one(&rel, &spec.dist, part, &mut rng, zipf.as_ref()),
            )
        })
        .collect()
}

/// Sample the join pointers of *built* relations with a strided scan:
/// at most `cap` objects are read across all R partitions (`cap / D`
/// per partition, evenly strided), so the I/O cost is bounded
/// regardless of `|R|`. Returns `(source R partition, target S-index)`
/// pairs.
///
/// The reads go through the environment and therefore advance its
/// clocks and fault counters; callers measuring the join itself should
/// `env.reset_stats()` afterwards.
pub fn sample_relation<E: Env>(env: &E, rels: &Relations, cap: usize) -> Result<Vec<(u32, u64)>> {
    use crate::object::r_sptr;
    use mmjoin_env::FileOps as _;

    let rel = rels.rel;
    let proc = ProcId(0);
    let per = rel.r_per_part();
    let budget = ((cap as u64) / rel.d as u64).clamp(1, per);
    let stride = per.div_ceil(budget);
    let mut out = Vec::with_capacity((budget * rel.d as u64) as usize);
    let mut buf = vec![0u8; rel.r_size as usize];
    for i in 0..rel.d {
        let file = env.open_file(proc, &rels.r_files[i as usize])?;
        let mut k = 0u64;
        while k < per {
            file.read_at(proc, k * rel.r_size as u64, &mut buf)?;
            out.push((i, rel.s_index_of(r_sptr(&buf))));
            k += stride;
        }
    }
    Ok(out)
}

/// Generate the relations inside `env`, preload them (cost-free), reset
/// the environment's counters, and return the descriptor.
///
/// Layout order per disk `i` is `R_i` then `S_i`, matching the layout
/// diagrams in §5.3/§6.3 (temporary areas are created later, by the
/// join algorithms themselves, and land after these extents).
pub fn build<E: Env>(env: &E, spec: &WorkloadSpec) -> Result<Relations> {
    spec.rel.validate()?;
    let rel = spec.rel;

    // Generate all pointer targets first so the checksum oracle and skew
    // are known before any I/O.
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let zipf = match spec.dist {
        PointerDist::Zipf { theta } => Some(Zipf::new(rel.s_objects, theta)),
        _ => None,
    };
    let targets: Vec<Vec<u64>> = (0..rel.d)
        .map(|i| draw_targets(&rel, &spec.dist, i, &mut rng, zipf.as_ref()))
        .collect();
    // S-object keys equal their storage index by construction, and R
    // row `n` has key `n`.
    let per = rel.r_per_part();
    let row = |n: u64| (n, targets[(n / per) as usize][(n % per) as usize]);
    materialize(env, rel, &spec.prefix, |idx| idx, row)
}

/// Build relations from *explicit* content: a key for every S slot and
/// an explicit `(key, target S-index)` row list for R, partitioned in
/// order (`R_i` holds rows `i*|R|/D .. (i+1)*|R|/D`).
///
/// [`build`] assumes S-object `k`'s key is `k`; the streaming tier
/// breaks that assumption the moment an `append=` or `delete=` mutates
/// a slot, so its differential oracle needs a one-shot builder that
/// materializes the *final* mutated S image (tombstoned slots carry
/// sentinel keys no row targets) and prices the checksum with the real
/// per-slot keys.
pub fn build_explicit<E: Env>(
    env: &E,
    rel: RelConfig,
    prefix: &str,
    s_keys: &[u64],
    r_rows: &[(u64, u64)],
) -> Result<Relations> {
    rel.validate()?;
    let (s_len, r_len) = (s_keys.len() as u64, r_rows.len() as u64);
    let (s_objects, r_objects) = (rel.s_objects, rel.r_objects);
    let problem = if s_len != s_objects {
        format!("{s_len} S keys for {s_objects} slots")
    } else if r_len != r_objects {
        format!("{r_len} R rows for |R| = {r_objects}")
    } else if let Some(n) = r_rows.iter().position(|&(_, s)| s >= s_objects) {
        format!("row {n} targets S-index {} >= {s_objects}", r_rows[n].1)
    } else {
        let s_key = |idx: u64| s_keys[idx as usize];
        return materialize(env, rel, prefix, s_key, |n| r_rows[n as usize]);
    };
    let invalid = mmjoin_env::EnvError::InvalidConfig;
    Err(invalid(format!("build_explicit: {problem}")))
}

/// Bytes encoded per [`Env::preload`] call by [`preload_objects`]:
/// large enough that the per-call cost vanishes, small enough to stay
/// in cache between encoding and the copy into storage.
pub const PRELOAD_BLOCK: usize = 256 * 1024;

/// Preload `count` fixed-size objects into file `name`, object `k` at
/// byte `k · obj_size` (nonzero), encoded by `encode(k, bytes)`, which
/// must write all `obj_size` bytes. Objects are encoded into one reused buffer of
/// whole objects, at most [`PRELOAD_BLOCK`] bytes unless one object is
/// larger, and each full buffer is one `preload`, so a partition is
/// never held in memory whole and is copied into storage once.
pub fn preload_objects<E: Env>(
    env: &E,
    name: &str,
    obj_size: u32,
    count: u64,
    mut encode: impl FnMut(u64, &mut [u8]),
) -> Result<()> {
    let obj = obj_size as usize;
    let per_block = ((PRELOAD_BLOCK / obj).max(1) as u64).min(count);
    let mut block = vec![0u8; per_block as usize * obj];
    let mut first = 0u64;
    while first < count {
        let n = per_block.min(count - first) as usize;
        let bytes = &mut block[..n * obj];
        for (k, o) in bytes.chunks_exact_mut(obj).enumerate() {
            encode(first + k as u64, o);
        }
        env.preload(name, first * obj as u64, bytes)?;
        first += n as u64;
    }
    Ok(())
}

/// Write a validated relation pair into `env`: S slot `idx` holds key
/// `s_key(idx)`, and R row `n` (of partition `n / |R_i|`) is
/// `r_row(n) = (key, target S-index)`. Computes the checksum oracle and
/// the partition-pair counts first, creates and preloads S then R on
/// each disk (cost-free, block by block through [`preload_objects`]),
/// and resets the environment's counters.
fn materialize<E: Env>(
    env: &E,
    rel: RelConfig,
    prefix: &str,
    s_key: impl Fn(u64) -> u64,
    r_row: impl Fn(u64) -> (u64, u64),
) -> Result<Relations> {
    let d = rel.d;
    let proc = ProcId(0);

    let mut sub_counts = vec![vec![0u64; d as usize]; d as usize];
    let mut checksum = 0u64;
    for n in 0..rel.r_objects {
        let (r_key, s_idx) = r_row(n);
        checksum = checksum.wrapping_add(pair_digest(r_key, s_key(s_idx)));
        let (i, j) = (n / rel.r_per_part(), s_idx / rel.s_per_part());
        sub_counts[i as usize][j as usize] += 1;
    }
    let per = rel.r_per_part() as f64 / d as f64;
    let skew = sub_counts
        .iter()
        .flatten()
        .map(|&c| c as f64 / per)
        .fold(0.0, f64::max);

    let mut r_files = Vec::with_capacity(d as usize);
    let mut s_files = Vec::with_capacity(d as usize);
    for i in 0..d {
        let r_name = names::scoped(prefix, &names::r_part(i));
        let s_name = names::scoped(prefix, &names::s_part(i));
        env.create_file(proc, &r_name, DiskId(i), rel.r_part_bytes())?;
        env.create_file(proc, &s_name, DiskId(i), rel.s_part_bytes())?;

        let s_first = i as u64 * rel.s_per_part();
        preload_objects(env, &s_name, rel.s_size, rel.s_per_part(), |k, obj| {
            encode_s(obj, s_key(s_first + k))
        })?;
        let r_first = i as u64 * rel.r_per_part();
        preload_objects(env, &r_name, rel.r_size, rel.r_per_part(), |k, obj| {
            let (key, s_idx) = r_row(r_first + k);
            encode_r(obj, key, rel.sptr_of(s_idx))
        })?;

        r_files.push(r_name);
        s_files.push(s_name);
    }

    let catalog = SCatalog {
        part_files: s_files.clone(),
        part_bytes: rel.s_part_bytes(),
        s_obj_size: rel.s_size,
    };
    env.reset_stats();

    Ok(Relations {
        rel,
        r_files,
        s_files,
        catalog,
        expected_pairs: rel.r_objects,
        expected_checksum: checksum,
        sub_counts,
        skew,
        prefix: prefix.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{r_key, r_sptr, s_key};
    use mmjoin_env::FileOps;
    use mmjoin_vmsim::{SimConfig, SimEnv};

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            rel: RelConfig {
                r_size: 32,
                s_size: 32,
                d: 4,
                r_objects: 400,
                s_objects: 400,
            },
            dist: PointerDist::Uniform,
            seed: 7,
            prefix: String::new(),
        }
    }

    fn env() -> SimEnv {
        SimEnv::new(SimConfig::waterloo96(4)).unwrap()
    }

    #[test]
    fn build_is_deterministic() {
        let a = build(&env(), &small_spec()).unwrap();
        let b = build(&env(), &small_spec()).unwrap();
        assert_eq!(a.expected_checksum, b.expected_checksum);
        assert_eq!(a.sub_counts, b.sub_counts);
        let mut spec2 = small_spec();
        spec2.seed = 8;
        let c = build(&env(), &spec2).unwrap();
        assert_ne!(a.expected_checksum, c.expected_checksum);
    }

    #[test]
    fn stored_objects_decode_correctly() {
        let e = env();
        let rels = build(&e, &small_spec()).unwrap();
        let rel = rels.rel;
        let proc = ProcId(0);
        // Check one R partition object and the S-object it points to.
        let rf = e.open_file(proc, &rels.r_files[2]).unwrap();
        let mut rbuf = vec![0u8; rel.r_size as usize];
        rf.read_at(proc, 5 * rel.r_size as u64, &mut rbuf).unwrap();
        let key = r_key(&rbuf);
        assert_eq!(key, 2 * rel.r_per_part() + 5);
        let ptr = r_sptr(&rbuf);
        let s_idx = rel.s_index_of(ptr);
        assert!(s_idx < rel.s_objects);
        let j = ptr.partition(rel.s_part_bytes());
        let sf = e.open_file(proc, &rels.s_files[j as usize]).unwrap();
        let mut sbuf = vec![0u8; rel.s_size as usize];
        sf.read_at(proc, ptr.offset(rel.s_part_bytes()), &mut sbuf)
            .unwrap();
        assert_eq!(s_key(&sbuf), s_idx);
    }

    #[test]
    fn sub_counts_sum_to_partition_sizes() {
        let rels = build(&env(), &small_spec()).unwrap();
        for i in 0..4usize {
            let total: u64 = rels.sub_counts[i].iter().sum();
            assert_eq!(total, rels.rel.r_per_part());
        }
        assert!(rels.skew >= 1.0, "skew is a max over means");
    }

    #[test]
    fn uniform_skew_is_near_one() {
        let mut spec = small_spec();
        spec.rel.r_objects = 40_000;
        spec.rel.s_objects = 40_000;
        let rels = build(&env(), &spec).unwrap();
        assert!(
            rels.skew < 1.2,
            "uniform pointers should have low skew, got {}",
            rels.skew
        );
    }

    #[test]
    fn cross_partition_concentrates_pointers() {
        let mut spec = small_spec();
        spec.dist = PointerDist::CrossPartition;
        let rels = build(&env(), &spec).unwrap();
        for i in 0..4u32 {
            let j = (i + 1) % 4;
            assert_eq!(rels.sub_count(i, j), rels.rel.r_per_part());
            assert_eq!(rels.sub_count(i, i), 0);
        }
        assert_eq!(rels.skew, 4.0);
    }

    #[test]
    fn zipf_is_more_skewed_than_uniform_at_object_level() {
        let n = 10_000u64;
        let z = Zipf::new(n, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 must dominate: with theta ~1 it receives ~ 1/ln(n) of
        // all draws.
        assert!(counts[0] > 1000, "rank 0 got {}", counts[0]);
        assert!(counts[0] > 50 * counts[n as usize / 2].max(1));
    }

    #[test]
    fn estimated_skew_matches_distribution_shape() {
        assert_eq!(small_spec().estimated_skew(), 1.0);
        let mut cross = small_spec();
        cross.dist = PointerDist::CrossPartition;
        assert_eq!(cross.estimated_skew(), 4.0);
        let mut z = small_spec();
        z.dist = PointerDist::Zipf { theta: 0.9 };
        let est = z.estimated_skew();
        assert!(est > 1.0 && est <= 4.0, "zipf estimate {est}");
        // Sharper skew, larger estimate.
        z.dist = PointerDist::Zipf { theta: 1.2 };
        assert!(z.estimated_skew() > est);
    }

    #[test]
    fn workload_reset_leaves_clean_stats() {
        let e = env();
        let _ = build(&e, &small_spec()).unwrap();
        let st = e.stats();
        assert_eq!(st.elapsed(), 0.0);
        assert_eq!(st.total_blocks(), 0);
    }

    #[test]
    fn spec_sample_is_deterministic_and_bounded() {
        let spec = small_spec();
        let a = sample_spec_pointers(&spec, 100);
        let b = sample_spec_pointers(&spec, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&(src, p)| src < 4 && p < spec.rel.s_objects));
        // Cap beyond |R| is clamped to |R|.
        assert_eq!(sample_spec_pointers(&spec, 10_000).len(), 400);
        let mut spec2 = small_spec();
        spec2.seed = 8;
        assert_ne!(sample_spec_pointers(&spec2, 100), a);
    }

    #[test]
    fn spec_sample_sees_cross_partition_concentration() {
        let mut spec = small_spec();
        spec.dist = PointerDist::CrossPartition;
        let sample = sample_spec_pointers(&spec, 200);
        // Round-robin draws across R partitions: every pointer drawn
        // from partition i lands in S partition (i+1) % 4, so the
        // global counts are flat while every source row concentrates.
        let per = spec.rel.s_per_part();
        let mut counts = [0u64; 4];
        for &(src, p) in &sample {
            assert_eq!(p / per, (src as u64 + 1) % 4);
            counts[(p / per) as usize] += 1;
        }
        assert_eq!(counts, [50, 50, 50, 50]);
    }

    #[test]
    fn relation_sample_matches_stored_pointers() {
        let e = env();
        let spec = small_spec();
        let rels = build(&e, &spec).unwrap();
        let sample = sample_relation(&e, &rels, 80).unwrap();
        // cap/d = 20 per partition, stride 5 over 100 objects.
        assert_eq!(sample.len(), 80);
        assert!(sample
            .iter()
            .all(|&(src, p)| src < 4 && p < spec.rel.s_objects));
        // Strided reads must see the very pointers the generator wrote:
        // re-derive the first sampled index from partition 0 directly.
        let rf = e.open_file(ProcId(0), &rels.r_files[0]).unwrap();
        let mut buf = vec![0u8; spec.rel.r_size as usize];
        rf.read_at(ProcId(0), 0, &mut buf).unwrap();
        assert_eq!(sample[0], (0, rels.rel.s_index_of(r_sptr(&buf))));
        e.reset_stats();
    }

    #[test]
    fn relation_sample_of_cross_partition_reports_full_skew() {
        let e = env();
        let mut spec = small_spec();
        spec.dist = PointerDist::CrossPartition;
        let rels = build(&e, &spec).unwrap();
        let sample = sample_relation(&e, &rels, 80).unwrap();
        let per = spec.rel.s_per_part();
        let mut counts = [0u64; 4];
        for &(src, p) in &sample {
            // Each R partition points only at its successor...
            assert_eq!(p / per, (src as u64 + 1) % 4);
            counts[(p / per) as usize] += 1;
        }
        // ...and the scan covers all four partitions evenly.
        assert_eq!(counts, [20, 20, 20, 20]);
    }

    #[test]
    fn build_explicit_matches_implicit_build_on_identity_keys() {
        // With identity S keys and build()'s own (key, target) rows,
        // the explicit builder must reproduce build()'s oracle exactly.
        let e = env();
        let spec = small_spec();
        let implicit = build(&e, &spec).unwrap();
        let rel = spec.rel;
        let s_keys: Vec<u64> = (0..rel.s_objects).collect();
        // sample_relation at full cap walks partitions in order with
        // stride 1, so row n has key n and build()'s target for it.
        let sample = sample_relation(&e, &implicit, usize::MAX).unwrap();
        let rows: Vec<(u64, u64)> = sample
            .iter()
            .enumerate()
            .map(|(n, &(_, s))| (n as u64, s))
            .collect();
        let e2 = env();
        let explicit = build_explicit(&e2, rel, "x", &s_keys, &rows).unwrap();
        assert_eq!(explicit.expected_checksum, implicit.expected_checksum);
        assert_eq!(explicit.expected_pairs, implicit.expected_pairs);
        assert_eq!(explicit.sub_counts, implicit.sub_counts);
    }

    #[test]
    fn build_explicit_prices_checksum_with_slot_keys() {
        let e = env();
        let rel = RelConfig {
            r_size: 32,
            s_size: 32,
            d: 2,
            r_objects: 4,
            s_objects: 4,
        };
        // Non-identity S keys: slot 2 carries key 900.
        let s_keys = vec![100u64, 101, 900, 103];
        let rows = vec![(7u64, 0u64), (8, 2), (9, 2), (10, 3)];
        let rels = build_explicit(&e, rel, "", &s_keys, &rows).unwrap();
        let want = pair_digest(7, 100)
            .wrapping_add(pair_digest(8, 900))
            .wrapping_add(pair_digest(9, 900))
            .wrapping_add(pair_digest(10, 103));
        assert_eq!(rels.expected_checksum, want);
        assert_eq!(rels.sub_counts, vec![vec![1, 1], vec![0, 2]]);
        // Stored S-objects really carry the explicit keys.
        let sf = e.open_file(ProcId(0), &rels.s_files[1]).unwrap();
        let mut buf = vec![0u8; 32];
        sf.read_at(ProcId(0), 0, &mut buf).unwrap();
        assert_eq!(s_key(&buf), 900);
    }

    #[test]
    fn build_explicit_rejects_shape_mismatches() {
        let e = env();
        let rel = small_spec().rel;
        let s_keys: Vec<u64> = (0..rel.s_objects).collect();
        let rows: Vec<(u64, u64)> = (0..rel.r_objects).map(|n| (n, 0)).collect();
        assert!(build_explicit(&e, rel, "", &s_keys[..10], &rows).is_err());
        assert!(build_explicit(&e, rel, "", &s_keys, &rows[..10]).is_err());
        let mut bad = rows.clone();
        bad[3].1 = rel.s_objects; // out of range
        assert!(build_explicit(&e, rel, "", &s_keys, &bad).is_err());
    }

    #[test]
    fn prefixed_workloads_coexist() {
        let e = env();
        let mut s1 = small_spec();
        s1.prefix = "a".into();
        let mut s2 = small_spec();
        s2.prefix = "b".into();
        let r1 = build(&e, &s1).unwrap();
        let r2 = build(&e, &s2).unwrap();
        assert_ne!(r1.r_files[0], r2.r_files[0]);
    }
}

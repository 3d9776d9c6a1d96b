//! Sampled pointer statistics for data-aware planning.
//!
//! The paper's model prices skew with the *worst-case* bound
//! `skew = max |R_{i,j}| / (|R_i|/D)`; `results/skew.txt` shows that
//! bound over-predicting by 3–4× on pathological distributions. This
//! module replaces the assumption with observation: a bounded-cost
//! sample of R's join pointers (a seeded reservoir, or a strided file
//! scan — both feed `(source R partition, target S-index)` pairs) is
//! folded into a [`SampleSummary`] — the `D × D` source→target cell
//! counts, a duplication factor with a Chao1 distinct-target estimate,
//! and a small equi-depth histogram — from which the planner derives a
//! histogram-based skew estimate instead of the worst-case term, and
//! an effective `|S|` (the hot set repeated pointers actually touch)
//! instead of the full target space. The cell counts matter: a
//! cross-partition workload is perfectly flat *globally* (every S
//! partition receives `|R|/D` pointers) while every individual Rproc
//! still hammers a single remote partition, so skew only shows up in
//! the per-source rows.
//!
//! Everything here is deterministic for a fixed seed.

use mmjoin_relstore::{sample_spec_pointers, WorkloadSpec};

/// Default number of pointers a submit-time sample draws.
pub const SAMPLE_CAP: usize = 4096;

/// Default number of equi-depth histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A seeded reservoir sampler (Vitter's algorithm R) over a stream of
/// pointers (or any copyable item). Deterministic: the same seed and
/// stream always keep the same sample.
#[derive(Clone, Debug)]
pub struct Reservoir<T = u64> {
    cap: usize,
    seen: u64,
    items: Vec<T>,
    state: u64,
}

impl<T: Copy> Reservoir<T> {
    /// A reservoir keeping at most `cap` items.
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap: cap.max(1),
            seen: 0,
            items: Vec::with_capacity(cap.clamp(1, 1 << 20)),
            // splitmix64 of the seed so seed 0 still mixes.
            state: splitmix64(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// Offer one stream element.
    pub fn push(&mut self, value: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(value);
            return;
        }
        // Replace a random slot with probability cap/seen.
        let j = self.next_u64() % self.seen;
        if (j as usize) < self.cap {
            let slot = j as usize;
            self.items[slot] = value;
        }
    }

    /// The current sample.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Stream elements offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A compact statistical summary of sampled join pointers: enough for
/// the planner to replace the worst-case skew bound with an observed
/// per-partition maximum, plus a duplication factor and an equi-depth
/// histogram for finer diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub struct SampleSummary {
    /// `|R|`: the population the sample describes.
    pub population: u64,
    /// Pointers actually sampled.
    pub sampled: u64,
    /// `|S|`: the pointer target space.
    pub s_objects: u64,
    /// `D`: partitions.
    pub d: u32,
    /// Sampled pointers landing in each S partition (length `d`).
    pub part_counts: Vec<u64>,
    /// Row-major `d × d` source→target counts: `cells[i*d + j]` is the
    /// number of sampled pointers drawn from R partition `i` that land
    /// in S partition `j` — the sampled analogue of `|R_{i,j}|`.
    pub cells: Vec<u64>,
    /// Distinct S-indices in the sample.
    pub distinct: u64,
    /// Sampled S-indices seen exactly once (Chao1's `f1`).
    pub singletons: u64,
    /// Sampled S-indices seen exactly twice (Chao1's `f2`).
    pub doubletons: u64,
    /// `sampled / distinct` — the pointer duplication (correlation)
    /// factor; 1.0 means every sampled pointer hit a different object.
    pub duplication: f64,
    /// Equi-depth histogram: `bounds[b]` is the largest S-index in
    /// bucket `b` (ascending), `depths[b]` its sample count.
    pub bounds: Vec<u64>,
    /// Per-bucket sample counts (same length as `bounds`).
    pub depths: Vec<u64>,
}

impl SampleSummary {
    /// Fold raw sampled `(source R partition, target S-index)` pairs
    /// into a summary. `population` is the size of the stream the
    /// sample was drawn from (`|R|`).
    pub fn from_pointers(
        pointers: &[(u32, u64)],
        population: u64,
        s_objects: u64,
        d: u32,
        buckets: usize,
    ) -> SampleSummary {
        let d = d.max(1);
        let s_per_part = (s_objects / d as u64).max(1);
        let mut cells = vec![0u64; d as usize * d as usize];
        for &(src, idx) in pointers {
            let i = (src as usize).min(d as usize - 1);
            let j = ((idx / s_per_part) as usize).min(d as usize - 1);
            cells[i * d as usize + j] += 1;
        }
        let mut sorted: Vec<u64> = pointers.iter().map(|&(_, idx)| idx).collect();
        sorted.sort_unstable();

        let mut part_counts = vec![0u64; d as usize];
        let mut distinct = 0u64;
        let mut singletons = 0u64;
        let mut doubletons = 0u64;
        let mut run = 0u64;
        // Close out one run of equal targets: its length decides
        // whether the target was a singleton or a doubleton.
        fn close_run(run: u64, singletons: &mut u64, doubletons: &mut u64) {
            match run {
                1 => *singletons += 1,
                2 => *doubletons += 1,
                _ => {}
            }
        }
        for (k, &idx) in sorted.iter().enumerate() {
            let part = ((idx / s_per_part) as usize).min(d as usize - 1);
            part_counts[part] += 1;
            if k == 0 || sorted[k - 1] != idx {
                close_run(run, &mut singletons, &mut doubletons);
                distinct += 1;
                run = 1;
            } else {
                run += 1;
            }
        }
        close_run(run, &mut singletons, &mut doubletons);

        let buckets = buckets.max(1).min(sorted.len().max(1));
        let mut bounds = Vec::with_capacity(buckets);
        let mut depths = Vec::with_capacity(buckets);
        if !sorted.is_empty() {
            let n = sorted.len();
            let mut start = 0usize;
            for b in 0..buckets {
                let end = (n * (b + 1)) / buckets;
                if end <= start {
                    continue;
                }
                bounds.push(sorted[end - 1]);
                depths.push((end - start) as u64);
                start = end;
            }
        }

        let sampled = sorted.len() as u64;
        SampleSummary {
            population,
            sampled,
            s_objects,
            d,
            part_counts,
            cells,
            distinct,
            singletons,
            doubletons,
            duplication: if distinct > 0 {
                sampled as f64 / distinct as f64
            } else {
                1.0
            },
            bounds,
            depths,
        }
    }

    /// Draw `cap` pointers from the workload's own distribution
    /// ([`sample_spec_pointers`]) and fold them into a summary: the
    /// submit-time sample `plan=auto`, `join --auto` and `plan --sample`
    /// plan from, before the relations exist.
    pub fn of_spec(w: &WorkloadSpec, cap: usize) -> SampleSummary {
        SampleSummary::from_pointers(
            &sample_spec_pointers(w, cap),
            w.rel.r_objects,
            w.rel.s_objects,
            w.rel.d,
            HISTOGRAM_BUCKETS,
        )
    }

    /// The histogram-derived skew factor: the observed analogue of the
    /// paper's `max |R_{i,j}| / (|R_i|/D)`, computed per source row —
    /// `max_i D × max_j cells[i][j] / Σ_j cells[i][j]` — and clamped to
    /// the factor's valid range `[1, D]`. Rows must be priced
    /// separately: a cross-partition workload is flat in the global
    /// per-S-partition counts yet maximally skewed in every row.
    pub fn estimated_skew(&self) -> f64 {
        if self.sampled == 0 {
            return 1.0;
        }
        let d = self.d as usize;
        let mut worst = 1.0f64;
        for row in self.cells.chunks(d) {
            let total: u64 = row.iter().sum();
            if total == 0 {
                continue;
            }
            let max = row.iter().copied().max().unwrap_or(0) as f64;
            worst = worst.max(self.d as f64 * max / total as f64);
        }
        worst.clamp(1.0, self.d as f64)
    }

    /// Chao1 estimate of the distinct S-objects the *full* pointer
    /// population touches: `distinct + f1(f1-1) / 2(f2+1)` (the
    /// bias-corrected form), clamped to `[distinct, s_objects]`. A
    /// uniform sample is nearly all singletons and the estimate
    /// recovers ~`|S|`; a hot-key sample has few singletons and the
    /// estimate collapses to the hot-set size — which is what decides
    /// whether repeated pointer fetches hit memory or disk.
    pub fn estimated_distinct(&self) -> u64 {
        if self.distinct == 0 {
            // No information: assume the whole target space is touched.
            return self.s_objects;
        }
        let f1 = self.singletons as f64;
        let f2 = self.doubletons as f64;
        let est = self.distinct as f64 + f1 * (f1 - 1.0) / (2.0 * (f2 + 1.0));
        (est.round() as u64).clamp(self.distinct, self.s_objects.max(self.distinct))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn uniformish(n: u64, s_objects: u64, d: u32, seed: u64) -> Vec<(u32, u64)> {
        // A deterministic low-discrepancy stream over 0..s_objects,
        // drawn round-robin from the d source partitions.
        (0..n)
            .map(|k| {
                (
                    (k % d as u64) as u32,
                    splitmix64(seed.wrapping_add(k)) % s_objects,
                )
            })
            .collect()
    }

    #[test]
    fn reservoir_keeps_cap_and_is_deterministic() {
        let mut a = Reservoir::new(64, 7);
        let mut b = Reservoir::new(64, 7);
        for v in 0..10_000u64 {
            a.push(v);
            b.push(v);
        }
        assert_eq!(a.items().len(), 64);
        assert_eq!(a.seen(), 10_000);
        assert_eq!(a.items(), b.items(), "same seed, same sample");
        let mut c = Reservoir::new(64, 8);
        for v in 0..10_000u64 {
            c.push(v);
        }
        assert_ne!(a.items(), c.items(), "different seed, different sample");
    }

    #[test]
    fn reservoir_short_stream_keeps_everything() {
        let mut r = Reservoir::new(100, 1);
        for v in 0..10u64 {
            r.push(v);
        }
        assert_eq!(r.items(), (0..10).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn reservoir_sample_is_roughly_unbiased() {
        // Sample 1000 of 100k sequential values; the mean must land
        // near the stream mean (a grossly biased reservoir would skew
        // toward early or late elements).
        let mut r = Reservoir::new(1000, 42);
        for v in 0..100_000u64 {
            r.push(v);
        }
        let mean = r.items().iter().sum::<u64>() as f64 / r.items().len() as f64;
        assert!(
            (mean - 50_000.0).abs() < 5_000.0,
            "reservoir mean {mean} far from stream mean"
        );
    }

    #[test]
    fn summary_counts_partitions_and_distinct() {
        // 4 partitions of 100 S-objects; all pointers into partition 2.
        let ptrs: Vec<(u32, u64)> = (0..50u64)
            .map(|k| ((k % 4) as u32, 200 + (k % 10)))
            .collect();
        let s = SampleSummary::from_pointers(&ptrs, 1_000, 400, 4, 8);
        assert_eq!(s.part_counts, vec![0, 0, 50, 0]);
        assert_eq!(s.cells.iter().sum::<u64>(), 50);
        assert_eq!(s.distinct, 10);
        assert_eq!((s.singletons, s.doubletons), (0, 0), "every target seen 5x");
        assert_eq!(
            s.estimated_distinct(),
            10,
            "no singletons: hot set is closed"
        );
        assert!((s.duplication - 5.0).abs() < 1e-12);
        assert_eq!(s.estimated_skew(), 4.0, "fully concentrated = skew D");
        assert_eq!(s.depths.iter().sum::<u64>(), 50);
        assert!(s.bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cross_partition_skew_survives_flat_global_counts() {
        // Source partition i points only at S partition (i+1) % 4: the
        // global per-S-partition counts are perfectly even, but every
        // source row is fully concentrated — the paper's skew-D case.
        let ptrs: Vec<(u32, u64)> = (0..400u64)
            .map(|k| {
                let src = (k % 4) as u32;
                let tgt = (src + 1) % 4;
                (src, tgt as u64 * 100 + k % 100)
            })
            .collect();
        let s = SampleSummary::from_pointers(&ptrs, 4_000, 400, 4, 8);
        assert_eq!(s.part_counts, vec![100, 100, 100, 100], "globally flat");
        assert_eq!(s.estimated_skew(), 4.0, "but every row is concentrated");
    }

    #[test]
    fn chao1_separates_uniform_from_hot_targets() {
        // A mostly-singleton sample must extrapolate far beyond what it
        // saw; a hot-key sample (few targets, many repeats) must not.
        let uniform: Vec<(u32, u64)> = (0..4_000u64)
            .map(|k| ((k % 4) as u32, splitmix64(k) % 40_000))
            .collect();
        let u = SampleSummary::from_pointers(&uniform, 40_000, 40_000, 4, 8);
        assert!(
            u.estimated_distinct() > 20_000,
            "uniform sample must extrapolate: {} singletons {} doubletons {}",
            u.estimated_distinct(),
            u.singletons,
            u.doubletons
        );
        let hot: Vec<(u32, u64)> = (0..4_000u64).map(|k| ((k % 4) as u32, k % 64)).collect();
        let h = SampleSummary::from_pointers(&hot, 40_000, 40_000, 4, 8);
        assert_eq!(h.estimated_distinct(), 64, "closed hot set stays small");
    }

    #[test]
    fn summary_handles_empty_sample() {
        let s = SampleSummary::from_pointers(&[], 0, 400, 4, 8);
        assert_eq!(s.estimated_skew(), 1.0);
        assert_eq!(s.duplication, 1.0);
        assert_eq!(s.estimated_distinct(), 400, "no sample: assume full |S|");
        assert!(s.bounds.is_empty() && s.depths.is_empty());
    }

    #[test]
    fn empty_relation_yields_neutral_statistics() {
        // An empty relation sampled through the reservoir: no items
        // offered, and the summary must fall back to the planner's
        // neutral assumptions rather than divide by zero.
        let r: Reservoir<(u32, u64)> = Reservoir::new(SAMPLE_CAP, 9);
        assert_eq!(r.seen(), 0);
        assert!(r.items().is_empty());
        let s = SampleSummary::from_pointers(r.items(), 40_000, 40_000, 4, 16);
        assert_eq!(s.sampled, 0);
        assert_eq!(s.estimated_skew(), 1.0, "no evidence: assume uniform");
        assert_eq!(s.estimated_distinct(), 40_000, "no evidence: full |S|");
        assert_eq!(s.duplication, 1.0);
        assert_eq!(s.part_counts, vec![0, 0, 0, 0]);
        assert!(s.cells.iter().all(|&c| c == 0));
    }

    #[test]
    fn single_key_relation_collapses_to_one_target() {
        // Every pointer hits one S-object: the degenerate hot set.
        let ptrs: Vec<(u32, u64)> = (0..500u64).map(|k| ((k % 4) as u32, 123)).collect();
        let s = SampleSummary::from_pointers(&ptrs, 5_000, 400, 4, 8);
        assert_eq!(s.distinct, 1);
        assert_eq!((s.singletons, s.doubletons), (0, 0));
        assert_eq!(s.estimated_distinct(), 1, "closed single-key hot set");
        assert!((s.duplication - 500.0).abs() < 1e-12);
        assert_eq!(
            s.estimated_skew(),
            4.0,
            "one target means every row concentrates on its partition"
        );
        // The equi-depth histogram degenerates to buckets that all end
        // at the single key, never an empty or out-of-order bound.
        assert!(s.bounds.iter().all(|&b| b == 123));
        assert_eq!(s.depths.iter().sum::<u64>(), 500);
    }

    #[test]
    fn reservoir_behaves_exactly_at_the_cap_boundary() {
        // Stream length == cap: everything kept, in order, no
        // replacement randomness consumed.
        let mut at = Reservoir::new(SAMPLE_CAP, 3);
        for v in 0..SAMPLE_CAP as u64 {
            at.push(v);
        }
        assert_eq!(at.items().len(), SAMPLE_CAP);
        assert_eq!(at.items(), (0..SAMPLE_CAP as u64).collect::<Vec<_>>());
        // One more element: size stays pinned at cap and the sample is
        // still a permutation-free subset of the stream.
        let mut over = Reservoir::new(SAMPLE_CAP, 3);
        for v in 0..SAMPLE_CAP as u64 + 1 {
            over.push(v);
        }
        assert_eq!(over.items().len(), SAMPLE_CAP);
        assert_eq!(over.seen(), SAMPLE_CAP as u64 + 1);
        assert!(over.items().iter().all(|&v| v <= SAMPLE_CAP as u64));
        // The element at seen = cap+1 is accepted with probability
        // cap/(cap+1): across seeds, both accept and reject happen.
        let mut kept = 0;
        for seed in 0..32u64 {
            let mut r = Reservoir::new(4, seed);
            for v in 0..5u64 {
                r.push(v);
            }
            if r.items().contains(&4) {
                kept += 1;
            }
        }
        assert!(kept > 0 && kept < 32, "boundary element kept {kept}/32");
        // A cap of 0 is clamped to 1, never a zero-capacity panic.
        let mut tiny = Reservoir::new(0, 1);
        for v in 0..100u64 {
            tiny.push(v);
        }
        assert_eq!(tiny.items().len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn uniform_stream_sample_has_low_skew(
            seed in 0u64..1_000_000,
            d in 1u32..9,
        ) {
            // Issue acceptance: a sample of a uniform stream yields a
            // skew factor within ε of 1. With 4096 samples over d ≤ 8
            // partitions the busiest-partition fraction concentrates
            // tightly around 1/d.
            let s_objects = 8_000 * d as u64;
            let stream = uniformish(20_000, s_objects, d, seed);
            let mut res = Reservoir::new(SAMPLE_CAP, seed);
            for &v in &stream {
                res.push(v);
            }
            let sum = SampleSummary::from_pointers(
                res.items(), stream.len() as u64, s_objects, d, HISTOGRAM_BUCKETS,
            );
            let skew = sum.estimated_skew();
            // Each source row holds ~cap/d samples over d cells; the
            // busiest cell of a uniform row exceeds its mean by a few
            // binomial standard deviations, i.e. the estimate is
            // 1 + O(sqrt(d² / cap)). ε = 4·sqrt(d²/cap) covers the
            // worst row at d = 8 with margin.
            let eps = 4.0 * ((d as f64) * (d as f64) / SAMPLE_CAP as f64).sqrt();
            prop_assert!(
                skew <= 1.0 + eps,
                "uniform stream sampled skew {skew} > 1 + {eps} (d={d}, seed={seed})"
            );
        }

        #[test]
        fn estimated_skew_stays_in_range(
            seed in 0u64..1_000_000,
            n in 0usize..2_000,
            d in 1u32..9,
        ) {
            let s_objects = 100 * d as u64;
            let ptrs = uniformish(n as u64, s_objects, d, seed);
            let sum = SampleSummary::from_pointers(&ptrs, n as u64, s_objects, d, 8);
            let skew = sum.estimated_skew();
            prop_assert!((1.0..=d as f64).contains(&skew), "skew {skew} outside [1, {d}]");
        }
    }
}

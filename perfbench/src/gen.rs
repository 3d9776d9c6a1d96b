//! Seeded input generation. Everything a workload feeds the program is
//! a pure function of `--seed`; the generator is the harness's own
//! (SplitMix64), so a later change to the repository's `rand` shim
//! cannot silently change the benchmark's inputs.

use mmjoin::ExecMode;
use mmjoin_relstore::PointerDist;
use mmjoin_serve::{JobRequest, PlanMode};

/// SplitMix64: tiny, seedable, and good enough for workload draws.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `purpose` so two pools
    /// drawn from one `--seed` do not share a sequence.
    pub fn new(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due times (seconds from phase start) of an open loop at a fixed
/// `rate` per second lasting `seconds`: evenly spaced.
pub fn fixed_schedule(rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).floor() as usize;
    (0..n).map(|i| i as f64 / rate).collect()
}

/// Due times (seconds from phase start, ascending) of a seeded Poisson
/// arrival process of mean `rate` per second, ending before `seconds`
/// (pass `f64::MAX` and `take(n)` for a fixed number of arrivals).
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> impl Iterator<Item = f64> {
    let mut rng = Rng::new(seed, 0x5C4E_D01E);
    let mut t = 0.0;
    std::iter::from_fn(move || {
        t += -rng.unit().ln() / rate;
        (t < seconds).then_some(t)
    })
}

/// A pool of `batches` explicit-row micro-batches of `rows` rows each
/// over slots `0..s_objects`. Row keys stay below `key_bound`, which
/// keeps a journaled batch line short when it is small.
pub fn batch_pool(
    seed: u64,
    s_objects: u64,
    rows: usize,
    batches: usize,
    key_bound: u64,
) -> Vec<Vec<(u64, u64)>> {
    let mut rng = Rng::new(seed, 0xBA7C_4900);
    (0..batches)
        .map(|_| {
            (0..rows)
                .map(|_| (rng.below(key_bound), rng.below(s_objects)))
                .collect()
        })
        .collect()
}

/// The two job shapes of the serve/cluster mix.
#[derive(Clone, Copy, Debug)]
pub struct JobMix {
    pub small_objects: u64,
    pub small_pages: u64,
    pub large_objects: u64,
    pub large_pages: u64,
}

/// True for the large shape of `mix`.
pub fn is_large(req: &JobRequest, mix: &JobMix) -> bool {
    req.workload.rel.r_objects == mix.large_objects
}

/// The seeded serve/cluster job list: all `mode=modern` with a
/// planner-chosen algorithm, `D = 2`, 128-byte objects. The *make-up*
/// of the list does not depend on the seed — of every 16 jobs exactly 4
/// are large, 8 draw `zipf:0.8` pointers and 8 are `plan=auto`, in every
/// combination — so two seeds load the tier alike; the seed decides the
/// order and each job's data.
pub fn job_list(seed: u64, n: usize, mix: &JobMix) -> Vec<JobRequest> {
    let mut rng = Rng::new(seed, 0x10B5_1157);
    let mut jobs: Vec<JobRequest> = (0..n)
        .map(|i| {
            let c = i % 16;
            let (objects, pages) = if [0, 5, 10, 15].contains(&c) {
                (mix.large_objects, mix.large_pages)
            } else {
                (mix.small_objects, mix.small_pages)
            };
            let mut req = JobRequest::new(objects, 128, 2, pages, rng.next() >> 16);
            req.mode = ExecMode::Modern;
            if c % 2 == 1 {
                req.workload.dist = PointerDist::Zipf { theta: 0.8 };
            }
            if (c / 2) % 2 == 1 {
                req.plan = PlanMode::Auto;
            }
            req
        })
        .collect();
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for (i, job) in jobs.iter_mut().enumerate() {
        job.name = format!("j{i}");
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: JobMix = JobMix {
        small_objects: 2_000,
        small_pages: 32,
        large_objects: 20_000,
        large_pages: 128,
    };

    fn job_lines(seed: u64) -> Vec<String> {
        job_list(seed, 64, &MIX)
            .iter()
            .map(JobRequest::to_line)
            .collect()
    }

    #[test]
    fn pools_and_schedules_repeat_for_a_seed_and_differ_across_seeds() {
        let poisson = |seed| poisson_schedule(seed, 50.0, 2.0).collect::<Vec<_>>();
        assert_eq!(poisson(7), poisson(7));
        assert_ne!(poisson(7), poisson(8));
        assert_eq!(
            batch_pool(7, 1000, 16, 8, 1 << 32),
            batch_pool(7, 1000, 16, 8, 1 << 32)
        );
        assert_ne!(
            batch_pool(7, 1000, 16, 8, 1 << 32),
            batch_pool(8, 1000, 16, 8, 1 << 32)
        );
        assert_eq!(job_lines(7), job_lines(7));
        assert_ne!(job_lines(7), job_lines(8));
    }

    #[test]
    fn schedules_have_the_asked_rate_and_stay_inside_the_phase() {
        let fixed = fixed_schedule(100.0, 1.5);
        assert_eq!(fixed.len(), 150);
        assert!(fixed.windows(2).all(|w| (w[1] - w[0] - 0.01).abs() < 1e-12));
        let poisson: Vec<f64> = poisson_schedule(1996, 200.0, 10.0).collect();
        assert_eq!(poisson_schedule(1996, 200.0, f64::MAX).take(64).count(), 64);
        assert!(poisson.windows(2).all(|w| w[1] > w[0]));
        assert!(poisson.last().is_some_and(|&t| t < 10.0));
        let rate = poisson.len() as f64 / 10.0;
        assert!((rate - 200.0).abs() < 20.0, "mean rate {rate}");
    }

    #[test]
    fn job_mix_is_valid_and_has_both_shapes() {
        let jobs = job_list(1996, 160, &MIX);
        let count = |f: &dyn Fn(&JobRequest) -> bool| jobs.iter().filter(|j| f(j)).count();
        assert_eq!(count(&|j| is_large(j, &MIX)), 40);
        assert_eq!(count(&|j| j.plan == PlanMode::Auto), 80);
        assert_eq!(count(&|j| j.workload.dist != PointerDist::Uniform), 80);
        assert_eq!(
            count(&|j| is_large(j, &MIX) && j.plan == PlanMode::Auto),
            20
        );
        // Shuffled, not in generation order.
        assert!(jobs
            .windows(16)
            .any(|w| w.iter().filter(|j| is_large(j, &MIX)).count() != 4));
        for j in &jobs {
            j.workload.rel.validate().unwrap();
            // The journal stores the line; it must parse back.
            assert!(JobRequest::parse_line(&j.to_line()).unwrap().is_some());
        }
    }

    #[test]
    fn batch_rows_respect_their_bounds() {
        for batch in batch_pool(3, 500, 64, 4, 1 << 32) {
            assert_eq!(batch.len(), 64);
            assert!(batch.iter().all(|&(k, s)| k < 1 << 32 && s < 500));
        }
    }
}

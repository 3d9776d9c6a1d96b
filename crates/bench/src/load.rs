//! The randomized job mix of the `chaos` fault-injection harness.

use mmjoin_serve::JobRequest;
use rand::rngs::StdRng;
use rand::Rng;

/// One randomized job: the shapes stay small enough that a 32-job run
/// finishes in seconds, while footprints (4–16 pages × D) still
/// oversubscribe the default budget and exercise the queue.
pub fn random_job(rng: &mut StdRng, seed: u64) -> JobRequest {
    let d = [2u32, 4][rng.random_range(0..2usize)];
    let objects = rng.random_range(500..2_000u64) * d as u64;
    let mem_pages = rng.random_range(4..16u64);
    let mut req = JobRequest::new(objects, 64, d, mem_pages, seed);
    req.name = format!("load{seed}");
    if rng.random_bool(0.3) {
        req.workload.dist = mmjoin_relstore::PointerDist::Zipf {
            theta: rng.random_range(0.2..0.9),
        };
    }
    req
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_jobs_are_valid_and_seed_deterministic() {
        let gen = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10)
                .map(|i| {
                    let req = random_job(&mut rng, i);
                    req.workload.rel.validate().unwrap();
                    req.footprint()
                })
                .collect()
        };
        assert_eq!(gen(42), gen(42));
        assert_ne!(gen(42), gen(43));
    }
}

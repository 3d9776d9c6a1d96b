//! The live-slot index behind `ResidentSet`: rank/select over slot
//! liveness.
//!
//! One bit per slot, a Fenwick tree over the per-64-slot word
//! popcounts, and the live count. `select(k)` — the `k`-th live slot in
//! ascending order — and `select0(k)` — the `k`-th tombstoned one —
//! descend the tree to the word holding the answer in O(log |S|) and
//! finish inside that word; flipping a slot is one bit plus one tree
//! update, also O(log |S|); the live count is a field. Building a full
//! index is O(|S| / 64).

/// Slot liveness with order statistics over live and tombstoned slots.
pub(super) struct LiveSlots {
    /// Bit `s % 64` of word `s / 64` is set iff slot `s` is live.
    words: Vec<u64>,
    /// Fenwick tree (1-based) over `words[w].count_ones()`.
    tree: Vec<u64>,
    /// Live slots.
    live: u64,
    /// Slots, live or tombstoned.
    slots: u64,
}

impl LiveSlots {
    /// `slots` slots, every one live.
    pub(super) fn full(slots: u64) -> LiveSlots {
        let n = slots.div_ceil(64) as usize;
        let mut words = vec![u64::MAX; n];
        if slots % 64 != 0 {
            words[n - 1] = (1 << (slots % 64)) - 1;
        }
        LiveSlots::from_words(words, slots)
    }

    /// `slots` slots, slot `s` live iff bit `s % 64` of `words[s / 64]`
    /// is set; bits past the last slot must be clear.
    pub(super) fn from_words(words: Vec<u64>, slots: u64) -> LiveSlots {
        let n = words.len();
        debug_assert_eq!(n as u64, slots.div_ceil(64));
        // Linear build: each node adds its finished sum to its parent.
        let mut tree = vec![0u64; n + 1];
        for i in 1..=n {
            tree[i] += u64::from(words[i - 1].count_ones());
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                tree[parent] += tree[i];
            }
        }
        let live = words.iter().map(|w| u64::from(w.count_ones())).sum();
        LiveSlots {
            words,
            tree,
            live,
            slots,
        }
    }

    /// Live slots.
    pub(super) fn len(&self) -> u64 {
        self.live
    }

    /// Tombstoned slots.
    pub(super) fn dead(&self) -> u64 {
        self.slots - self.live
    }

    /// Tombstone live slot `slot`.
    pub(super) fn remove(&mut self, slot: u64) {
        self.flip(slot, false);
    }

    /// Revive tombstoned slot `slot`.
    pub(super) fn insert(&mut self, slot: u64) {
        self.flip(slot, true);
    }

    /// The `k`-th live slot in ascending order; `k < len()`.
    pub(super) fn select(&self, k: u64) -> u64 {
        let (w, rank) = self.descend(k, |_, live| live);
        w as u64 * 64 + nth_set_bit(self.words[w], rank)
    }

    /// The `k`-th tombstoned slot in ascending order; `k < dead()`.
    pub(super) fn select0(&self, k: u64) -> u64 {
        // A node spanning `w` words holds `64 w - live` zero bits. The
        // last word's padding bits count as zeros too, but they lie
        // above every real slot, so no `k < dead()` reaches them.
        let (w, rank) = self.descend(k, |words, live| 64 * words - live);
        w as u64 * 64 + nth_set_bit(!self.words[w], rank)
    }

    fn flip(&mut self, slot: u64, live: bool) {
        let w = (slot / 64) as usize;
        let bit = 1u64 << (slot % 64);
        debug_assert_eq!(
            self.words[w] & bit == 0,
            live,
            "slot {slot} flipped to its own state"
        );
        self.words[w] ^= bit;
        let delta = if live { 1 } else { u64::MAX };
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
        self.live = self.live.wrapping_add(delta);
    }

    /// Fenwick descent to the word holding the `k`-th counted slot.
    /// `count(words, live)` is how many slots a node spanning `words`
    /// words with `live` live slots counts. Returns the word and `k`'s
    /// rank inside it.
    fn descend(&self, mut k: u64, count: impl Fn(u64, u64) -> u64) -> (usize, u64) {
        let n = self.words.len();
        let mut pos = 0;
        let mut step = (n + 1).next_power_of_two() / 2;
        while step > 0 {
            let next = pos + step;
            if next <= n {
                let c = count(step as u64, self.tree[next]);
                if c <= k {
                    pos = next;
                    k -= c;
                }
            }
            step /= 2;
        }
        (pos, k)
    }
}

/// Bit position of the `rank`-th (0-based) set bit of `word`.
fn nth_set_bit(mut word: u64, rank: u64) -> u64 {
    for _ in 0..rank {
        word &= word - 1;
    }
    u64::from(word.trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::LiveSlots;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const SIZES: [u64; 6] = [1, 63, 64, 65, 4_097, 100_003];

    /// The reference the index must agree with: the two sorted sets.
    struct Model {
        live: BTreeSet<u64>,
        dead: BTreeSet<u64>,
    }

    impl Model {
        fn full(n: u64) -> Model {
            Model {
                live: (0..n).collect(),
                dead: BTreeSet::new(),
            }
        }

        fn kill(&mut self, idx: &mut LiveSlots, slot: u64) {
            assert!(self.live.remove(&slot), "select gave non-live slot {slot}");
            self.dead.insert(slot);
            idx.remove(slot);
            self.check_counts(idx);
        }

        fn revive(&mut self, idx: &mut LiveSlots, slot: u64) {
            assert!(self.dead.remove(&slot), "select0 gave non-dead slot {slot}");
            self.live.insert(slot);
            idx.insert(slot);
            self.check_counts(idx);
        }

        fn check_counts(&self, idx: &LiveSlots) {
            assert_eq!(idx.len(), self.live.len() as u64);
            assert_eq!(idx.dead(), self.dead.len() as u64);
        }

        /// Every rank of both selects, against the sets' own order.
        fn check_order(&self, idx: &LiveSlots) {
            self.check_counts(idx);
            assert!((0..idx.len())
                .map(|k| idx.select(k))
                .eq(self.live.iter().copied()));
            assert!((0..idx.dead())
                .map(|k| idx.select0(k))
                .eq(self.dead.iter().copied()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random deletes, lowest-first and ranked refills, and queries.
        #[test]
        fn random_mutations_match_a_btreeset_model(
            ops in proptest::collection::vec((0u8..4, 0u64..1 << 40), 1..200),
        ) {
            for n in SIZES {
                let mut idx = LiveSlots::full(n);
                let mut m = Model::full(n);
                for &(kind, x) in &ops {
                    let (live, dead) = (idx.len(), idx.dead());
                    match kind {
                        0 if live > 0 => {
                            let slot = idx.select(x % live);
                            prop_assert_eq!(m.live.iter().nth((x % live) as usize), Some(&slot));
                            m.kill(&mut idx, slot);
                        }
                        1 if dead > 0 => {
                            let slot = idx.select0(0);
                            prop_assert_eq!(m.dead.first(), Some(&slot));
                            m.revive(&mut idx, slot);
                        }
                        2 if dead > 0 => {
                            let slot = idx.select0(x % dead);
                            prop_assert_eq!(m.dead.iter().nth((x % dead) as usize), Some(&slot));
                            m.revive(&mut idx, slot);
                        }
                        _ => {
                            if live > 0 {
                                prop_assert_eq!(
                                    m.live.iter().nth((x % live) as usize),
                                    Some(&idx.select(x % live))
                                );
                            }
                            if dead > 0 {
                                prop_assert_eq!(
                                    m.dead.iter().nth((x % dead) as usize),
                                    Some(&idx.select0(x % dead))
                                );
                            }
                        }
                    }
                }
                if n <= 4_097 {
                    m.check_order(&idx);
                }
                // A reopened set indexes the scanned bitmap alone: the
                // result must be the index the mutations maintained.
                let rebuilt = LiveSlots::from_words(idx.words.clone(), n);
                prop_assert_eq!(&rebuilt.tree, &idx.tree);
                prop_assert_eq!(rebuilt.len(), idx.len());
            }
        }
    }

    #[test]
    fn drains_to_empty_and_refills_to_full() {
        for n in SIZES {
            let mut idx = LiveSlots::full(n);
            let mut m = Model::full(n);
            m.check_order(&idx);
            let every = (n / 4).max(1);
            let mut x = n;
            let mut next_rank = |bound: u64| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) % bound
            };
            for step in 1..=n {
                let slot = idx.select(next_rank(idx.len()));
                m.kill(&mut idx, slot);
                if step % every == 0 {
                    m.check_order(&idx);
                }
            }
            assert_eq!(idx.len(), 0);
            m.check_order(&idx);
            for step in 1..=n {
                let slot = idx.select0(next_rank(idx.dead()));
                m.revive(&mut idx, slot);
                if step % every == 0 {
                    m.check_order(&idx);
                }
            }
            assert_eq!(idx.dead(), 0);
            m.check_order(&idx);
        }
    }
}

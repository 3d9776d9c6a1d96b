//! Per-process virtual-memory pager.
//!
//! Each simulated process owns a pager with a fixed page budget
//! (`M_Rproc_i` / `M_Sproc_i` in the paper, expressed in pages). The
//! pager decides hits, faults and evictions; the environment prices the
//! resulting disk traffic.
//!
//! The default policy is strict LRU, matching the paper's analysis
//! (which uses the Mackert–Lohman LRU model and discusses at length how
//! "the LRU paging scheme makes the wrong decisions" during merge passes
//! — §6.2, §7.2). FIFO and second-chance variants are provided for the
//! replacement-policy ablation, since the paper attributes part of its
//! residual error to Dynix's "simple page replacement algorithm" (§8).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Identity of one page: which file, which page within it.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct PageKey {
    /// Environment-level file index.
    pub file: u32,
    /// Page number within the file.
    pub page: u64,
}

/// Multiplicative hasher for [`PageKey`]s: a rotate, xor and multiply
/// per word (the `FxHash` recipe) instead of std's SipHash, which is
/// built to resist chosen keys and costs a large share of a hit. Page
/// keys are not chosen by an adversary, and no simulated decision
/// depends on the map's iteration order.
#[derive(Default)]
struct PageHasher(u64);

impl PageHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

type PageMap = HashMap<PageKey, u32, BuildHasherDefault<PageHasher>>;

/// Page replacement policy.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Policy {
    /// Strict least-recently-used.
    #[default]
    Lru,
    /// First-in first-out (no use-based promotion).
    Fifo,
    /// Clock / second-chance: FIFO order with one reprieve for
    /// referenced pages.
    SecondChance,
}

/// A page pushed out of memory.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Eviction {
    /// Which page was evicted.
    pub key: PageKey,
    /// Whether it was dirty (must be written back).
    pub dirty: bool,
}

/// Outcome of touching one page.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Access {
    /// The page was resident.
    Hit,
    /// The page was not resident; it is now, possibly at the cost of an
    /// eviction.
    Fault {
        /// The page evicted to make room, if the budget was full.
        evicted: Option<Eviction>,
    },
}

const NIL: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Slot {
    key: PageKey,
    dirty: bool,
    referenced: bool,
    prev: u32,
    next: u32,
}

/// Fixed-budget pager with an intrusive recency list.
///
/// List order: head = most recently inserted/used, tail = eviction
/// candidate. LRU promotes on hit; FIFO and second-chance do not (the
/// latter sets a reference bit instead).
///
/// ```
/// use mmjoin_vmsim::{Access, PageKey, Pager, Policy};
/// let mut pager = Pager::new(2, Policy::Lru);
/// let page = |p| PageKey { file: 0, page: p };
/// assert!(matches!(pager.touch(page(1), false), Access::Fault { evicted: None }));
/// assert!(matches!(pager.touch(page(2), true), Access::Fault { evicted: None }));
/// assert_eq!(pager.touch(page(1), false), Access::Hit);
/// // Page 2 is now least-recent — and dirty when evicted.
/// match pager.touch(page(3), false) {
///     Access::Fault { evicted: Some(ev) } => assert!(ev.dirty && ev.key == page(2)),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Pager {
    budget: usize,
    policy: Policy,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    map: PageMap,
    hits: u64,
    faults: u64,
}

impl Pager {
    /// A pager holding at most `budget_pages` pages (minimum 1) under
    /// `policy`.
    pub fn new(budget_pages: usize, policy: Policy) -> Self {
        let budget = budget_pages.max(1);
        Pager {
            budget,
            policy,
            slots: Vec::with_capacity(budget.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            map: PageMap::default(),
            hits: 0,
            faults: 0,
        }
    }

    /// Configured budget in pages.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.map.len()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Faults so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// True if `key` is resident (does not affect recency).
    pub fn is_resident(&self, key: PageKey) -> bool {
        self.map.contains_key(&key)
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_head(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    fn alloc_slot(&mut self, key: PageKey, dirty: bool) -> u32 {
        let slot = Slot {
            key,
            dirty,
            referenced: false,
            prev: NIL,
            next: NIL,
        };
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = slot;
            idx
        } else {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        }
    }

    /// Choose and remove the victim slot according to the policy.
    fn evict_one(&mut self) -> Eviction {
        debug_assert!(self.tail != NIL, "evicting from an empty pager");
        let victim = match self.policy {
            Policy::Lru | Policy::Fifo => self.tail,
            Policy::SecondChance => {
                // Sweep from the tail; referenced pages get one reprieve
                // (cleared and moved to the head). Terminates because
                // every page's bit is cleared at most once per sweep.
                let mut idx = self.tail;
                loop {
                    if self.slots[idx as usize].referenced {
                        self.slots[idx as usize].referenced = false;
                        let next_candidate = self.slots[idx as usize].prev;
                        self.unlink(idx);
                        self.push_head(idx);
                        idx = if next_candidate != NIL {
                            next_candidate
                        } else {
                            self.tail
                        };
                    } else {
                        break idx;
                    }
                }
            }
        };
        self.unlink(victim);
        let slot = &self.slots[victim as usize];
        let ev = Eviction {
            key: slot.key,
            dirty: slot.dirty,
        };
        self.map.remove(&ev.key);
        self.free.push(victim);
        ev
    }

    /// Touch one page; `dirty` marks it modified. Returns whether the
    /// access hit, and on a fault, which page (if any) was evicted.
    pub fn touch(&mut self, key: PageKey, dirty: bool) -> Access {
        // Fast path: the list head is the page touched last (or, under
        // FIFO and second-chance, inserted last). Re-touching it skips the
        // map; promoting the head is a no-op, so only the bits change.
        if let Some(s) = self.slots.get_mut(self.head as usize) {
            if s.key == key {
                self.hits += 1;
                s.dirty |= dirty;
                s.referenced = true;
                return Access::Hit;
            }
        }
        if let Some(&idx) = self.map.get(&key) {
            self.hits += 1;
            {
                let s = &mut self.slots[idx as usize];
                s.dirty |= dirty;
                s.referenced = true;
            }
            if self.policy == Policy::Lru {
                self.unlink(idx);
                self.push_head(idx);
            }
            return Access::Hit;
        }
        self.faults += 1;
        let evicted = if self.map.len() >= self.budget {
            Some(self.evict_one())
        } else {
            None
        };
        let idx = self.alloc_slot(key, dirty);
        self.map.insert(key, idx);
        self.push_head(idx);
        Access::Fault { evicted }
    }

    /// Discard every resident page of `file` without write-back (the
    /// file's data is being destroyed, as in `deleteMap`). Returns the
    /// discarded pages.
    pub fn drop_file(&mut self, file: u32) -> Vec<PageKey> {
        let victims: Vec<(PageKey, u32)> = self
            .map
            .iter()
            .filter(|(k, _)| k.file == file)
            .map(|(k, &v)| (*k, v))
            .collect();
        let mut dropped = Vec::with_capacity(victims.len());
        for (key, idx) in victims {
            self.unlink(idx);
            self.map.remove(&key);
            self.free.push(idx);
            dropped.push(key);
        }
        dropped
    }

    /// Mark every resident dirty page clean and return their keys (an
    /// explicit sync).
    pub fn take_dirty(&mut self) -> Vec<PageKey> {
        let mut dirty = Vec::new();
        for (&key, &idx) in &self.map {
            if self.slots[idx as usize].dirty {
                dirty.push(key);
            }
        }
        for key in &dirty {
            let idx = self.map[key];
            self.slots[idx as usize].dirty = false;
        }
        dirty.sort_unstable_by_key(|k| (k.file, k.page));
        dirty
    }

    /// Resident pages in recency order, most recent first (test/debug
    /// aid).
    pub fn recency_order(&self) -> Vec<PageKey> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut idx = self.head;
        while idx != NIL {
            out.push(self.slots[idx as usize].key);
            idx = self.slots[idx as usize].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(page: u64) -> PageKey {
        PageKey { file: 0, page }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = Pager::new(2, Policy::Lru);
        assert!(matches!(
            p.touch(k(1), false),
            Access::Fault { evicted: None }
        ));
        assert!(matches!(
            p.touch(k(2), false),
            Access::Fault { evicted: None }
        ));
        assert_eq!(p.touch(k(1), false), Access::Hit); // 1 now MRU
        match p.touch(k(3), false) {
            Access::Fault { evicted: Some(ev) } => assert_eq!(ev.key, k(2)),
            other => panic!("expected eviction of page 2, got {other:?}"),
        }
        assert!(p.is_resident(k(1)) && p.is_resident(k(3)) && !p.is_resident(k(2)));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut p = Pager::new(2, Policy::Fifo);
        p.touch(k(1), false);
        p.touch(k(2), false);
        p.touch(k(1), false); // hit, but FIFO does not promote
        match p.touch(k(3), false) {
            Access::Fault { evicted: Some(ev) } => assert_eq!(ev.key, k(1)),
            other => panic!("expected eviction of page 1, got {other:?}"),
        }
    }

    #[test]
    fn second_chance_gives_one_reprieve() {
        let mut p = Pager::new(2, Policy::SecondChance);
        p.touch(k(1), false);
        p.touch(k(2), false);
        p.touch(k(1), false); // sets 1's reference bit
                              // Victim sweep: tail is 1 (referenced → reprieved), then 2.
        match p.touch(k(3), false) {
            Access::Fault { evicted: Some(ev) } => assert_eq!(ev.key, k(2)),
            other => panic!("expected eviction of page 2, got {other:?}"),
        }
        assert!(p.is_resident(k(1)));
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut p = Pager::new(1, Policy::Lru);
        p.touch(k(1), true);
        match p.touch(k(2), false) {
            Access::Fault { evicted: Some(ev) } => {
                assert_eq!(ev.key, k(1));
                assert!(ev.dirty);
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        // Re-read page 1 clean: eviction of it must now be clean.
        p.touch(k(1), false);
        match p.touch(k(3), false) {
            Access::Fault { evicted: Some(ev) } => {
                assert_eq!(ev.key, k(1));
                assert!(!ev.dirty);
            }
            other => panic!("expected clean eviction, got {other:?}"),
        }
    }

    #[test]
    fn hit_with_dirty_marks_page_dirty() {
        let mut p = Pager::new(1, Policy::Lru);
        p.touch(k(1), false);
        assert_eq!(p.touch(k(1), true), Access::Hit);
        match p.touch(k(2), false) {
            Access::Fault { evicted: Some(ev) } => assert!(ev.dirty),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn drop_file_discards_without_writeback() {
        let mut p = Pager::new(8, Policy::Lru);
        p.touch(PageKey { file: 1, page: 0 }, true);
        p.touch(PageKey { file: 1, page: 1 }, true);
        p.touch(PageKey { file: 2, page: 0 }, true);
        let dropped = p.drop_file(1);
        assert_eq!(dropped.len(), 2);
        assert_eq!(p.resident(), 1);
        assert!(p.is_resident(PageKey { file: 2, page: 0 }));
    }

    #[test]
    fn take_dirty_cleans_pages() {
        let mut p = Pager::new(4, Policy::Lru);
        p.touch(k(1), true);
        p.touch(k(2), false);
        p.touch(k(3), true);
        let d = p.take_dirty();
        assert_eq!(d, vec![k(1), k(3)]);
        assert!(p.take_dirty().is_empty());
    }

    #[test]
    fn budget_is_respected() {
        let mut p = Pager::new(3, Policy::Lru);
        for i in 0..100 {
            p.touch(k(i), i % 2 == 0);
            assert!(p.resident() <= 3);
        }
        assert_eq!(p.resident(), 3);
        assert_eq!(p.faults(), 100);
        assert_eq!(p.hits(), 0);
    }

    #[test]
    fn zero_budget_is_clamped_to_one() {
        let mut p = Pager::new(0, Policy::Lru);
        assert!(matches!(p.touch(k(1), false), Access::Fault { .. }));
        assert_eq!(p.touch(k(1), false), Access::Hit);
        assert_eq!(p.budget(), 1);
    }

    /// Reference model of all three policies: a `Vec` of `(key, dirty,
    /// referenced)` ordered head first, with no shortcut: every hit
    /// searches the list, and LRU moves the page to the front.
    struct RefPager {
        policy: Policy,
        budget: usize,
        pages: Vec<(PageKey, bool, bool)>,
    }

    impl RefPager {
        fn touch(&mut self, key: PageKey, dirty: bool) -> Access {
            if let Some(pos) = self.pages.iter().position(|p| p.0 == key) {
                self.pages[pos].1 |= dirty;
                self.pages[pos].2 = true;
                if self.policy == Policy::Lru {
                    let page = self.pages.remove(pos);
                    self.pages.insert(0, page);
                }
                return Access::Hit;
            }
            let evicted = (self.pages.len() >= self.budget).then(|| {
                if self.policy == Policy::SecondChance {
                    // Referenced pages at the tail go back to the head
                    // with their bit cleared, one at a time.
                    while self.pages.last().is_some_and(|p| p.2) {
                        let mut page = self.pages.pop().unwrap();
                        page.2 = false;
                        self.pages.insert(0, page);
                    }
                }
                let (key, dirty, _) = self.pages.pop().unwrap();
                Eviction { key, dirty }
            });
            self.pages.insert(0, (key, dirty, false));
            Access::Fault { evicted }
        }

        fn drop_file(&mut self, file: u32) -> Vec<PageKey> {
            let mut dropped: Vec<PageKey> = self
                .pages
                .iter()
                .filter(|p| p.0.file == file)
                .map(|p| p.0)
                .collect();
            self.pages.retain(|p| p.0.file != file);
            dropped.sort_unstable_by_key(|k| (k.file, k.page));
            dropped
        }

        fn take_dirty(&mut self) -> Vec<PageKey> {
            let mut dirty: Vec<PageKey> = self.pages.iter().filter(|p| p.1).map(|p| p.0).collect();
            for p in &mut self.pages {
                p.1 = false;
            }
            dirty.sort_unstable_by_key(|k| (k.file, k.page));
            dirty
        }
    }

    /// Drive `policy`'s pager and the reference model through `ops` —
    /// `(op, file, page, dirty)`, where op 0 drops `file`, op 1 takes
    /// the dirty pages and any other op touches `(file, page)` — and
    /// require the same hits, victims, dirty bits and final order.
    fn check_against_reference(policy: Policy, budget: usize, ops: &[(u8, u32, u64, bool)]) {
        let mut p = Pager::new(budget, policy);
        let mut r = RefPager {
            policy,
            budget,
            pages: Vec::new(),
        };
        for &(op, file, page, dirty) in ops {
            match op {
                0 => {
                    let mut got = p.drop_file(file);
                    got.sort_unstable_by_key(|k| (k.file, k.page));
                    proptest::prop_assert_eq!(got, r.drop_file(file));
                }
                1 => proptest::prop_assert_eq!(p.take_dirty(), r.take_dirty()),
                _ => {
                    let key = PageKey { file, page };
                    let (got, want) = (p.touch(key, dirty), r.touch(key, dirty));
                    proptest::prop_assert_eq!(got, want, "{:?} touching {:?}", policy, key);
                }
            }
            proptest::prop_assert_eq!(p.resident(), r.pages.len());
        }
        let order: Vec<PageKey> = r.pages.iter().map(|page| page.0).collect();
        proptest::prop_assert_eq!(p.recency_order(), order);
    }

    proptest::proptest! {
        #[test]
        fn lru_matches_reference_model(
            budget in 1usize..16,
            ops in proptest::collection::vec((0u8..24, 0u32..3, 0u64..12, proptest::bool::ANY), 0..400),
        ) {
            check_against_reference(Policy::Lru, budget, &ops);
        }

        /// FIFO and second-chance never reorder on a hit, so the head
        /// fast path must leave their victims exactly as they were.
        /// Few distinct pages make repeated touches of the head common.
        #[test]
        fn fifo_and_second_chance_match_reference_models(
            budget in 1usize..8,
            ops in proptest::collection::vec((0u8..40, 0u32..2, 0u64..6, proptest::bool::ANY), 0..400),
        ) {
            check_against_reference(Policy::Fifo, budget, &ops);
            check_against_reference(Policy::SecondChance, budget, &ops);
        }
    }
}

//! Fixed-size object layouts for the two relations.
//!
//! The paper joins `R` with `S` where the join attribute of an R-object
//! is a virtual pointer to an S-object (§4). Objects are fixed-size
//! (`r` and `s` bytes; 128 each in the validation experiments, §8) and
//! are stored raw in mapped files — no serialization step, which is the
//! whole point of a single-level store. Field access goes through
//! explicit little-endian reads/writes of byte slices, so the layout is
//! identical in the simulator, in the real memory-mapped store, and on
//! disk.
//!
//! Layouts (offsets in bytes):
//!
//! ```text
//! R-object: [0..8) key  [8..16) sptr  [16..r) payload
//! S-object: [0..8) key  [8..s)  payload
//! ```

use mmjoin_env::{EnvError, Result, SPtr};

/// Minimum size of either object kind: room for the key and (for R) the
/// pointer.
pub const MIN_R_SIZE: u32 = 16;
/// Minimum S-object size.
pub const MIN_S_SIZE: u32 = 8;
/// Size of a stored virtual pointer (`sptr` in the paper's formulas).
pub const SPTR_SIZE: u32 = 8;

/// Byte offset of the key field in both object kinds.
const KEY_OFF: usize = 0;
/// Byte offset of the join pointer in an R-object.
const SPTR_OFF: usize = 8;

/// Sizes and partitioning of the two relations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelConfig {
    /// `r`: size of one R-object in bytes (≥ 16).
    pub r_size: u32,
    /// `s`: size of one S-object in bytes (≥ 8).
    pub s_size: u32,
    /// `D`: number of partitions / disks.
    pub d: u32,
    /// Total R-objects, `|R|` (must divide evenly by `d`).
    pub r_objects: u64,
    /// Total S-objects, `|S|` (must divide evenly by `d`).
    pub s_objects: u64,
}

impl RelConfig {
    /// The paper's validation workload: |R| = |S| = 102 400 objects of
    /// 128 bytes over 4 partitions (§8).
    pub fn waterloo96() -> Self {
        RelConfig {
            r_size: 128,
            s_size: 128,
            d: 4,
            r_objects: 102_400,
            s_objects: 102_400,
        }
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<()> {
        if self.r_size < MIN_R_SIZE {
            return Err(EnvError::InvalidConfig(format!(
                "r_size {} < minimum {MIN_R_SIZE}",
                self.r_size
            )));
        }
        if self.s_size < MIN_S_SIZE {
            return Err(EnvError::InvalidConfig(format!(
                "s_size {} < minimum {MIN_S_SIZE}",
                self.s_size
            )));
        }
        if self.d == 0 {
            return Err(EnvError::InvalidConfig("d must be > 0".into()));
        }
        if !self.r_objects.is_multiple_of(self.d as u64)
            || !self.s_objects.is_multiple_of(self.d as u64)
        {
            return Err(EnvError::InvalidConfig(
                "object counts must divide evenly across partitions".into(),
            ));
        }
        if self.r_objects == 0 || self.s_objects == 0 {
            return Err(EnvError::InvalidConfig(
                "relations must be non-empty".into(),
            ));
        }
        Ok(())
    }

    /// `|R_i|`: R-objects per partition.
    pub fn r_per_part(&self) -> u64 {
        self.r_objects / self.d as u64
    }

    /// `|S_j|`: S-objects per partition.
    pub fn s_per_part(&self) -> u64 {
        self.s_objects / self.d as u64
    }

    /// Bytes of one R partition.
    pub fn r_part_bytes(&self) -> u64 {
        self.r_per_part() * self.r_size as u64
    }

    /// Bytes of one S partition — the `part_bytes` of the logical S
    /// address space.
    pub fn s_part_bytes(&self) -> u64 {
        self.s_per_part() * self.s_size as u64
    }

    /// The virtual pointer to S-object number `global_idx` (in storage
    /// order across all partitions).
    pub fn sptr_of(&self, global_idx: u64) -> SPtr {
        debug_assert!(global_idx < self.s_objects);
        let per = self.s_per_part();
        let part = (global_idx / per) as u32;
        let off = (global_idx % per) * self.s_size as u64;
        SPtr::new(part, off, self.s_part_bytes())
    }

    /// Inverse of [`RelConfig::sptr_of`].
    pub fn s_index_of(&self, ptr: SPtr) -> u64 {
        let pb = self.s_part_bytes();
        ptr.partition(pb) as u64 * self.s_per_part() + ptr.offset(pb) / self.s_size as u64
    }
}

/// Write an R-object into `buf` (which must be exactly `r_size` long).
pub fn encode_r(buf: &mut [u8], key: u64, sptr: SPtr) {
    buf[KEY_OFF..KEY_OFF + 8].copy_from_slice(&key.to_le_bytes());
    buf[SPTR_OFF..SPTR_OFF + 8].copy_from_slice(&sptr.0.to_le_bytes());
    // Deterministic payload so corruption is detectable.
    for (i, b) in buf[16..].iter_mut().enumerate() {
        *b = (key as u8).wrapping_add(i as u8);
    }
}

/// Key of an encoded R-object.
pub fn r_key(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[KEY_OFF..KEY_OFF + 8].try_into().expect("8 bytes"))
}

/// Join pointer of an encoded R-object.
pub fn r_sptr(buf: &[u8]) -> SPtr {
    SPtr(u64::from_le_bytes(
        buf[SPTR_OFF..SPTR_OFF + 8].try_into().expect("8 bytes"),
    ))
}

/// Write an S-object into `buf` (exactly `s_size` long).
pub fn encode_s(buf: &mut [u8], key: u64) {
    buf[KEY_OFF..KEY_OFF + 8].copy_from_slice(&key.to_le_bytes());
    for (i, b) in buf[8..].iter_mut().enumerate() {
        *b = (key as u8).wrapping_mul(3).wrapping_add(i as u8);
    }
}

/// Key of an encoded S-object.
pub fn s_key(buf: &[u8]) -> u64 {
    u64::from_le_bytes(buf[KEY_OFF..KEY_OFF + 8].try_into().expect("8 bytes"))
}

/// One step of the splitmix64 generator: advance `z` by the golden
/// gamma and finalize it. Deterministic and dependency-free, so every
/// seeded draw outside the workload generator itself (samplers,
/// stream batches) repeats bit for bit across hosts.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent digest of one joined `(R.key, S.key)` pair.
///
/// The digests of all produced pairs are combined with wrapping
/// addition, so any algorithm producing the same *set* of pairs in any
/// order yields the same join checksum — the correctness oracle used by
/// every cross-environment and cross-algorithm test.
pub fn pair_digest(r_key: u64, s_key: u64) -> u64 {
    // splitmix64 finalizer over a combination that is not symmetric in
    // (r, s), so swapped pairs are distinguishable.
    let mut z = r_key
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(s_key.rotate_left(17))
        .wrapping_add(0xA076_1D64_78BD_642F); // keep (0, 0) off the fixed point

    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waterloo_config_is_valid() {
        RelConfig::waterloo96().validate().unwrap();
    }

    #[test]
    fn config_rejects_bad_shapes() {
        let mut c = RelConfig::waterloo96();
        c.r_size = 8;
        assert!(c.validate().is_err());
        let mut c = RelConfig::waterloo96();
        c.r_objects = 102_401;
        assert!(c.validate().is_err());
        let mut c = RelConfig::waterloo96();
        c.d = 0;
        assert!(c.validate().is_err());
        let mut c = RelConfig::waterloo96();
        c.s_objects = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn r_object_roundtrip() {
        let cfg = RelConfig::waterloo96();
        let mut buf = vec![0u8; cfg.r_size as usize];
        let ptr = cfg.sptr_of(77_777);
        encode_r(&mut buf, 42, ptr);
        assert_eq!(r_key(&buf), 42);
        assert_eq!(r_sptr(&buf), ptr);
    }

    #[test]
    fn s_object_roundtrip() {
        let mut buf = vec![0u8; 128];
        encode_s(&mut buf, 1234);
        assert_eq!(s_key(&buf), 1234);
    }

    #[test]
    fn sptr_of_inverts() {
        let cfg = RelConfig::waterloo96();
        for idx in [0u64, 1, 25_599, 25_600, 70_000, 102_399] {
            let ptr = cfg.sptr_of(idx);
            assert_eq!(cfg.s_index_of(ptr), idx);
        }
    }

    #[test]
    fn sptr_order_matches_index_order() {
        let cfg = RelConfig::waterloo96();
        let mut prev = cfg.sptr_of(0);
        for idx in 1..200u64 {
            let cur = cfg.sptr_of(idx * 500 % cfg.s_objects);
            // Only compare when index increases.
            if idx * 500 % cfg.s_objects > (idx - 1) * 500 % cfg.s_objects {
                let _ = prev; // ordering checked below instead
            }
            prev = cur;
        }
        // Direct check: monotone index → monotone pointer.
        let a = cfg.sptr_of(100);
        let b = cfg.sptr_of(101);
        let c = cfg.sptr_of(25_600); // first object of partition 1
        assert!(a < b && b < c);
    }

    #[test]
    fn pair_digest_is_asymmetric_and_spread() {
        assert_ne!(pair_digest(1, 2), pair_digest(2, 1));
        assert_ne!(pair_digest(0, 0), 0);
        // Distinct pairs produce distinct digests in a small sample.
        let mut seen = std::collections::HashSet::new();
        for r in 0..50u64 {
            for s in 0..50u64 {
                assert!(seen.insert(pair_digest(r, s)));
            }
        }
    }
}

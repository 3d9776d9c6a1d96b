//! # mmjoin-relstore — relations, virtual pointers, workloads
//!
//! The storage vocabulary of the reproduction: fixed-size R/S object
//! layouts with a virtual-pointer join attribute ([`object`]), canonical
//! partition/temporary-area names ([`names`]), sequential object scans
//! ([`scan`]), multi-stream chunked files for the data-dependent
//! sub-partitions of pass 0/1 ([`chunk`]), and a deterministic workload
//! generator with an exact join-checksum oracle ([`workload`]).

pub mod chunk;
pub mod names;
pub mod object;
pub mod scan;
pub mod workload;

pub use chunk::{chunked_capacity, ChunkedFile, StreamReader};
pub use object::{
    encode_r, encode_s, pair_digest, r_key, r_sptr, s_key, splitmix64, RelConfig, MIN_R_SIZE,
    MIN_S_SIZE, SPTR_SIZE,
};
pub use scan::ObjScan;
pub use workload::{
    build, build_explicit, preload_objects, sample_relation, sample_spec_pointers, PointerDist,
    Relations, WorkloadSpec, Zipf, PRELOAD_BLOCK,
};

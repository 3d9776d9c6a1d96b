//! # mmjoin-mmstore — a real memory-mapped single-level store
//!
//! The µDatabase-style substrate of the reproduction (paper §2.1):
//!
//! * [`arena`]/[`segment`]: persistent segments mapped at recorded fixed
//!   virtual addresses inside a reserved arena, so intra-segment raw
//!   pointers survive process restarts with **zero** swizzling — the
//!   "exact positioning of data" approach, with explicit detection and
//!   repair when exact positioning fails;
//! * [`plist`]: a pointer-based persistent linked list demonstrating —
//!   and testing — that claim (the simplest of the structures the
//!   paper's reference \[11\] built in µDatabase);
//! * [`mod@env`]: [`env::MmapEnv`], the [`mmjoin_env::Env`] implementation
//!   over real `mmap`-ed files with real `Sproc` threads — the
//!   functional-validation twin of the simulator;
//! * [`setup_cost`]: wall-clock measurement of `newMap`/`openMap`/
//!   `deleteMap` versus mapping size (Fig. 1b).

pub mod arena;
pub mod env;
pub mod plist;
pub mod segment;
pub mod setup_cost;

pub use arena::{page_size, Placement, SegmentArena, DEFAULT_ARENA_BASE, DEFAULT_ARENA_SIZE};
pub use env::{MmapEnv, MmapEnvConfig, MmapFile};
pub use plist::PersistentList;
pub use segment::{Segment, HEADER_SIZE};
pub use setup_cost::{measure_map_costs, MapCostSample};

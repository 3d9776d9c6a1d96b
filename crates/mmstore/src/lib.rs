//! # mmjoin-mmstore — a real memory-mapped single-level store
//!
//! The µDatabase-style substrate of the reproduction (paper §2.1):
//!
//! * [`mod@env`]: [`env::MmapEnv`], the [`mmjoin_env::Env`] implementation
//!   over real `mmap`-ed files, serving `S` in the requesting thread —
//!   the functional-validation twin of the simulator. Every read and write
//!   goes through the mapping except [`mmjoin_env::Env::preload`], the
//!   pre-join load, which writes through the file descriptor and then
//!   maps the loaded pages;
//! * [`setup_cost`]: wall-clock measurement of `newMap`/`openMap`/
//!   `deleteMap` versus mapping size (Fig. 1b).

pub mod env;
pub mod setup_cost;

pub use env::{MmapEnv, MmapEnvConfig, MmapFile};
pub use setup_cost::{measure_map_costs, MapCostSample};

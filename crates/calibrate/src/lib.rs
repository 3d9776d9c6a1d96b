//! Host calibration for mmjoin: measure the paper's §3 machine
//! parameters on the machine actually running the joins, and persist
//! them as versioned JSON machine profiles.
//!
//! The paper grounds its analytical model in measured constants — the
//! banded `dtt` disk curves of Fig. 1a, the `newMap`/`openMap`/
//! `deleteMap` lines of Fig. 1b, the `MT` memory-transfer rates, the
//! context-switch time `CS`, and per-operation CPU costs. The rest of
//! the workspace ships those constants as the `waterloo96` preset
//! digitized from the paper; this crate re-runs the *measurement
//! procedures themselves* against the host:
//!
//! * [`probes`] — the individual measurement procedures,
//! * [`fit`] — median-of-k noise control and least-squares fitting,
//! * [`host`] — [`calibrate_host`], the all-probes driver,
//! * [`profile`] — the versioned, provenance-stamped JSON profile,
//! * [`json`] — the small strict JSON reader the profile loader uses
//!   (the build environment has no `serde`).
//!
//! A persisted profile plugs straight into the model and both
//! environments via `MachineParams`, replacing the preset end to end:
//!
//! ```
//! use mmjoin_calibrate::{calibrate_host, CalibrateOptions, MachineProfile};
//!
//! let mut opts = CalibrateOptions::quick();
//! opts.spec.band_sizes = vec![1, 8];
//! opts.spec.area_blocks = 32;
//! opts.spec.cpu_iters = 1000;
//! opts.spec.cs_rounds = 50;
//! opts.spec.fault_pages = 8;
//! opts.spec.memcpy_bytes = 4096;
//! opts.spec.map_blocks = vec![1, 4, 8];
//! let profile = calibrate_host(&opts).unwrap();
//! let text = profile.to_json();
//! assert_eq!(MachineProfile::from_json(&text).unwrap(), profile);
//! ```

#![warn(missing_docs)]

pub mod fit;
pub mod host;
pub mod json;
pub mod probes;
pub mod profile;

pub use fit::{fit_linear, median, LinearFit};
pub use host::{calibrate_host, CalibrateOptions};
pub use probes::{
    probe_context_switch, probe_cpu, probe_dtt, probe_map_costs, probe_memcpy, DttProbe, MapProbe,
    ProbeSpec,
};
pub use profile::{machine_override, MachineProfile, Provenance, PROFILE_FORMAT, PROFILE_VERSION};

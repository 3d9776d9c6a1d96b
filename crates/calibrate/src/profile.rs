//! Versioned on-disk machine profiles.
//!
//! A profile is a JSON document carrying a complete
//! [`MachineParams`] plus the provenance of the measurement: which
//! host and device produced it, when, under how many repetitions, and
//! how well the linear map-cost fits matched the samples. The format is
//! explicitly versioned ([`PROFILE_VERSION`]) and tagged
//! ([`PROFILE_FORMAT`]); loading rejects unknown versions and foreign
//! documents instead of guessing.
//!
//! Floats are emitted through Rust's shortest-roundtrip `Display`, so a
//! profile survives `MachineParams → JSON → MachineParams` **bitwise**
//! — a loaded profile drives the cost model to exactly the same
//! predictions as the in-memory original (a property test pins this
//! down).

use std::fmt::Write as _;
use std::path::Path;

use mmjoin_env::machine::{DttCurve, MachineParams, MapCostModel};
use mmjoin_env::{CpuOp, EnvError, MoveKind, Result};

use crate::json::{escape, Json};

/// Format marker every profile document must carry.
pub const PROFILE_FORMAT: &str = "mmjoin-machine-profile";

/// Current profile schema version. Bump on any incompatible layout
/// change; loaders reject mismatches outright.
pub const PROFILE_VERSION: u64 = 1;

/// How, where and how carefully a profile was measured.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// Hostname of the measured machine.
    pub host: String,
    /// The device or scratch path the disk sweep ran against.
    pub device: String,
    /// Measurement time, seconds since the Unix epoch.
    pub created_unix: u64,
    /// Whether the disk sweep ran under `O_DIRECT`. `false` means the
    /// buffered fallback was used and the `dtt` curves largely measure
    /// the page cache, not the device.
    pub direct_io: bool,
    /// Whether this was the reduced `--quick` calibration.
    pub quick: bool,
    /// Recorded repetitions per measurement (median-of-k).
    pub reps: u32,
    /// Unrecorded warmup repetitions per measurement.
    pub warmup: u32,
    /// RMS residuals of the three Fig. 1b linear fits, in seconds:
    /// `newMap`, `openMap`, `deleteMap`.
    pub fit_residuals: [f64; 3],
}

/// A machine profile: versioned, provenance-stamped machine parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineProfile {
    /// Schema version ([`PROFILE_VERSION`] when produced by this build).
    pub version: u64,
    /// Measurement provenance.
    pub provenance: Provenance,
    /// The measured parameters, ready for the model and simulators.
    pub machine: MachineParams,
}

fn curve_json(curve: &DttCurve) -> String {
    let pts: Vec<String> = curve
        .points()
        .iter()
        .map(|(band, sec)| format!("[{band}, {sec}]"))
        .collect();
    format!("[{}]", pts.join(", "))
}

fn curve_from(value: &Json, name: &str) -> Result<DttCurve> {
    let mut points = Vec::new();
    for item in value.as_arr()? {
        let pair = item.as_arr()?;
        if pair.len() != 2 {
            return Err(EnvError::InvalidConfig(format!(
                "profile: {name} points must be [band, seconds] pairs"
            )));
        }
        points.push((pair[0].as_f64()?, pair[1].as_f64()?));
    }
    DttCurve::from_points(points)
}

fn finite_positive(v: f64, what: &str) -> Result<f64> {
    if !v.is_finite() || v <= 0.0 {
        return Err(EnvError::InvalidConfig(format!(
            "profile: {what} must be positive and finite, got {v}"
        )));
    }
    Ok(v)
}

fn finite_nonneg(v: f64, what: &str) -> Result<f64> {
    if !v.is_finite() || v < 0.0 {
        return Err(EnvError::InvalidConfig(format!(
            "profile: {what} must be non-negative and finite, got {v}"
        )));
    }
    Ok(v)
}

const MT_KEYS: [(&str, MoveKind); 4] = [
    ("pp", MoveKind::PP),
    ("ps", MoveKind::PS),
    ("sp", MoveKind::SP),
    ("ss", MoveKind::SS),
];

const CPU_KEYS: [(&str, CpuOp); 6] = [
    ("map", CpuOp::Map),
    ("hash", CpuOp::Hash),
    ("compare", CpuOp::Compare),
    ("swap", CpuOp::Swap),
    ("heap_transfer", CpuOp::HeapTransfer),
    ("fault_overhead", CpuOp::FaultOverhead),
];

impl MachineProfile {
    /// Serialize to the versioned JSON document.
    pub fn to_json(&self) -> String {
        let p = &self.provenance;
        let m = &self.machine;
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"format\": \"{PROFILE_FORMAT}\",");
        let _ = writeln!(out, "  \"version\": {},", self.version);
        out.push_str("  \"provenance\": {\n");
        let _ = writeln!(out, "    \"host\": \"{}\",", escape(&p.host));
        let _ = writeln!(out, "    \"device\": \"{}\",", escape(&p.device));
        let _ = writeln!(out, "    \"created_unix\": {},", p.created_unix);
        let _ = writeln!(out, "    \"direct_io\": {},", p.direct_io);
        let _ = writeln!(out, "    \"quick\": {},", p.quick);
        let _ = writeln!(out, "    \"reps\": {},", p.reps);
        let _ = writeln!(out, "    \"warmup\": {},", p.warmup);
        out.push_str("    \"fit_residuals\": {\n");
        let _ = writeln!(out, "      \"new_map\": {},", p.fit_residuals[0]);
        let _ = writeln!(out, "      \"open_map\": {},", p.fit_residuals[1]);
        let _ = writeln!(out, "      \"delete_map\": {}", p.fit_residuals[2]);
        out.push_str("    }\n  },\n");
        out.push_str("  \"machine\": {\n");
        let _ = writeln!(out, "    \"page_size\": {},", m.page_size);
        let _ = writeln!(out, "    \"cs\": {},", m.cs);
        out.push_str("    \"mt\": {");
        for (i, (key, kind)) in MT_KEYS.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{key}\": {}", m.mt[kind.index()]);
        }
        out.push_str("},\n    \"cpu\": {");
        for (i, (key, op)) in CPU_KEYS.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{key}\": {}", m.cpu[op.index()]);
        }
        out.push_str("},\n");
        let _ = writeln!(out, "    \"dttr\": {},", curve_json(&m.dttr));
        let _ = writeln!(out, "    \"dttw\": {},", curve_json(&m.dttw));
        let mc = &m.map_cost;
        out.push_str("    \"map_cost\": {\n");
        let _ = writeln!(out, "      \"new_base\": {},", mc.new_base);
        let _ = writeln!(out, "      \"new_per_block\": {},", mc.new_per_block);
        let _ = writeln!(out, "      \"open_base\": {},", mc.open_base);
        let _ = writeln!(out, "      \"open_per_block\": {},", mc.open_per_block);
        let _ = writeln!(out, "      \"delete_base\": {},", mc.delete_base);
        let _ = writeln!(out, "      \"delete_per_block\": {}", mc.delete_per_block);
        out.push_str("    }\n  }\n}\n");
        out
    }

    /// Parse and validate a profile document.
    pub fn from_json(text: &str) -> Result<MachineProfile> {
        let doc = Json::parse(text)?;
        let format = doc.req("format")?.as_str()?;
        if format != PROFILE_FORMAT {
            return Err(EnvError::InvalidConfig(format!(
                "profile: not a machine profile (format '{format}', expected '{PROFILE_FORMAT}')"
            )));
        }
        let version = doc.req("version")?.as_u64()?;
        if version != PROFILE_VERSION {
            return Err(EnvError::InvalidConfig(format!(
                "profile: unsupported version {version} (this build reads version {PROFILE_VERSION}); re-run `mmjoin calibrate`"
            )));
        }
        let prov = doc.req("provenance")?;
        let residuals = prov.req("fit_residuals")?;
        let provenance = Provenance {
            host: prov.req("host")?.as_str()?.to_string(),
            device: prov.req("device")?.as_str()?.to_string(),
            created_unix: prov.req("created_unix")?.as_u64()?,
            direct_io: prov.req("direct_io")?.as_bool()?,
            quick: prov.req("quick")?.as_bool()?,
            reps: prov.req("reps")?.as_u64()? as u32,
            warmup: prov.req("warmup")?.as_u64()? as u32,
            fit_residuals: [
                finite_nonneg(residuals.req("new_map")?.as_f64()?, "fit residual")?,
                finite_nonneg(residuals.req("open_map")?.as_f64()?, "fit residual")?,
                finite_nonneg(residuals.req("delete_map")?.as_f64()?, "fit residual")?,
            ],
        };
        let mach = doc.req("machine")?;
        let page_size = mach.req("page_size")?.as_u64()?;
        if page_size == 0 {
            return Err(EnvError::InvalidConfig(
                "profile: page_size must be positive".into(),
            ));
        }
        let mut mt = [0.0f64; 4];
        let mt_obj = mach.req("mt")?;
        for (key, kind) in MT_KEYS {
            mt[kind.index()] = finite_positive(mt_obj.req(key)?.as_f64()?, &format!("mt.{key}"))?;
        }
        let mut cpu = [0.0f64; 6];
        let cpu_obj = mach.req("cpu")?;
        for (key, op) in CPU_KEYS {
            cpu[op.index()] = finite_positive(cpu_obj.req(key)?.as_f64()?, &format!("cpu.{key}"))?;
        }
        let mc = mach.req("map_cost")?;
        let map_cost = MapCostModel {
            new_base: finite_nonneg(mc.req("new_base")?.as_f64()?, "map_cost.new_base")?,
            new_per_block: finite_nonneg(
                mc.req("new_per_block")?.as_f64()?,
                "map_cost.new_per_block",
            )?,
            open_base: finite_nonneg(mc.req("open_base")?.as_f64()?, "map_cost.open_base")?,
            open_per_block: finite_nonneg(
                mc.req("open_per_block")?.as_f64()?,
                "map_cost.open_per_block",
            )?,
            delete_base: finite_nonneg(mc.req("delete_base")?.as_f64()?, "map_cost.delete_base")?,
            delete_per_block: finite_nonneg(
                mc.req("delete_per_block")?.as_f64()?,
                "map_cost.delete_per_block",
            )?,
        };
        let machine = MachineParams {
            page_size,
            cs: finite_positive(mach.req("cs")?.as_f64()?, "cs")?,
            mt,
            cpu,
            dttr: curve_from(mach.req("dttr")?, "dttr")?,
            dttw: curve_from(mach.req("dttw")?, "dttw")?,
            map_cost,
        };
        Ok(MachineProfile {
            version,
            provenance,
            machine,
        })
    }

    /// Write the profile to `path` (parent directories created).
    pub fn save(&self, path: &Path) -> Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())?;
        Ok(())
    }

    /// Read and validate a profile from `path`, naming the file in any
    /// error.
    pub fn load(path: &Path) -> Result<MachineProfile> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            EnvError::InvalidConfig(format!("cannot read profile {}: {e}", path.display()))
        })?;
        Self::from_json(&text)
            .map_err(|e| EnvError::InvalidConfig(format!("{}: {e}", path.display())))
    }
}

/// The `--machine-profile FILE` option of the CLI and the bench tools:
/// `None` without a file (the caller keeps its default machine), else
/// the profile's parameters, with its provenance announced on stderr.
pub fn machine_override(path: Option<&str>) -> std::result::Result<Option<MachineParams>, String> {
    let Some(path) = path else { return Ok(None) };
    let profile =
        MachineProfile::load(Path::new(path)).map_err(|e| format!("--machine-profile: {e}"))?;
    let p = &profile.provenance;
    let quick = if p.quick { ", quick" } else { "" };
    eprintln!(
        "machine profile: {path} (host {}, device {}, direct_io {}, reps {}{quick})",
        p.host, p.device, p.direct_io, p.reps
    );
    Ok(Some(profile.machine))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> MachineProfile {
        MachineProfile {
            version: PROFILE_VERSION,
            provenance: Provenance {
                host: "testhost".into(),
                device: "/tmp/scratch".into(),
                created_unix: 1_700_000_000,
                direct_io: false,
                quick: true,
                reps: 3,
                warmup: 1,
                fit_residuals: [1.5e-4, 2.0e-5, 0.0],
            },
            machine: MachineParams::waterloo96(),
        }
    }

    #[test]
    fn json_round_trip_is_identity() {
        let profile = sample();
        let back = MachineProfile::from_json(&profile.to_json()).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn save_and_load_round_trip() {
        let path = std::env::temp_dir().join(format!("mmjoin-profile-{}.json", std::process::id()));
        let profile = sample();
        profile.save(&path).unwrap();
        let back = MachineProfile::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn version_and_format_mismatches_are_rejected() {
        let good = sample().to_json();
        let wrong_version = good.replace("\"version\": 1,", "\"version\": 99,");
        let err = MachineProfile::from_json(&wrong_version)
            .unwrap_err()
            .to_string();
        assert!(err.contains("version 99"), "{err}");
        let wrong_format = good.replace(PROFILE_FORMAT, "something-else");
        let err = MachineProfile::from_json(&wrong_format)
            .unwrap_err()
            .to_string();
        assert!(err.contains("not a machine profile"), "{err}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let good = sample().to_json();
        for (needle, replacement) in [
            ("\"cs\": 0.00006,", "\"cs\": 0,"),
            ("\"cs\": 0.00006,", "\"cs\": -1,"),
            ("\"page_size\": 4096,", "\"page_size\": 0,"),
            ("\"hash\": 0.000004", "\"hash\": 0"),
            ("\"new_base\": 0.05,", "\"new_base\": -0.05,"),
        ] {
            let bad = good.replace(needle, replacement);
            assert_ne!(bad, good, "replacement '{needle}' did not apply");
            assert!(
                MachineProfile::from_json(&bad).is_err(),
                "accepted: {replacement}"
            );
        }
        // Non-increasing dtt bands.
        let bad = good.replace("[200, 0.009]", "[1, 0.009]");
        assert!(MachineProfile::from_json(&bad).is_err());
    }

    #[test]
    fn load_errors_name_the_file() {
        let missing = std::path::Path::new("/nonexistent/profile.json");
        let err = MachineProfile::load(missing).unwrap_err().to_string();
        assert!(err.contains("/nonexistent/profile.json"), "{err}");
    }
}

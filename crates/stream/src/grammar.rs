//! The streaming job grammar: one *header* line describing the resident
//! inner relation, followed by an unbounded sequence of *op* lines —
//! probe micro-batches and incremental maintenance of the resident set.
//!
//! The grammar deliberately mirrors `mmjoin-serve`'s `key=value` job
//! lines so scripts for the two tiers read alike:
//!
//! ```text
//! resident=hot objects=4096 obj-size=64 d=4 mem-pages=64 seed=7 mode=modern
//! batch=b0 objects=256 seed=1
//! append=32 seed=2
//! delete=16 seed=3
//! batch-rows=bx rows=17:0,99:5,3:12
//! ```
//!
//! Blank lines and `#` comments are skipped. Every line round-trips
//! through [`StreamHeader::to_line`] / [`StreamOp::to_line`], which is
//! what the journal stores and replays on `--resume`.

use mmjoin_env::Options;
use mmjoin_relstore::{RelConfig, MIN_R_SIZE};

/// Page size used to convert `mem-pages=` into byte budgets (matches
/// the serve tier's convention).
pub const PAGE: u64 = 4096;

/// The resident-relation declaration that opens a stream.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamHeader {
    /// Stream name; scopes the resident set's file names.
    pub name: String,
    /// `|S|`: number of resident inner objects (slots).
    pub s_objects: u64,
    /// S-object size in bytes.
    pub s_size: u32,
    /// `D`: disks / partitions of the resident set.
    pub d: u32,
    /// Per-process memory budget in pages (both Rproc and Sproc side).
    pub mem_pages: u64,
    /// Parsed and journaled (`seed=`) but selects nothing: the resident
    /// build is deterministic. Kept so journals written before the
    /// resident index was removed still pass the header-line equality
    /// check on `--resume`, and because the benchmark harness sets it
    /// (removal is listed in ROADMAP).
    pub seed: u64,
    /// Parsed and journaled (`mode=modern`) but selects nothing, for
    /// the same reasons as `seed`.
    pub modern: bool,
}

impl StreamHeader {
    /// The resident set's relation shape. The R side is a placeholder
    /// (micro-batches arrive over the wire, not from stored `R_i`
    /// files); it is sized minimally so `RelConfig::validate` holds.
    pub fn rel(&self) -> RelConfig {
        RelConfig {
            r_size: MIN_R_SIZE,
            s_size: self.s_size,
            d: self.d,
            r_objects: self.d as u64,
            s_objects: self.s_objects,
        }
    }

    /// Byte budget per process (`mem-pages` × page size).
    pub fn budget_bytes(&self) -> u64 {
        self.mem_pages * PAGE
    }

    /// Parse a header line. Returns `Ok(None)` for blank/comment lines.
    pub fn parse_line(line: &str) -> Result<Option<StreamHeader>, String> {
        let Some(opts) = Options::line(line)? else {
            return Ok(None);
        };
        let h = StreamHeader {
            name: opts.get("resident")?.unwrap_or_default().to_string(),
            s_objects: opts.parse_or("objects", 0)?,
            s_size: opts.parse_or("obj-size", 64)?,
            d: opts.parse_or("d", 2)?,
            mem_pages: opts.parse_or("mem-pages", 64)?,
            seed: opts.parse_or("seed", 42)?,
            modern: match opts.get("mode")? {
                None | Some("faithful") => false,
                Some("modern") => true,
                Some(v) => return Err(format!("unknown mode {v:?}")),
            },
        };
        opts.finish("a stream header")?;
        if h.name.is_empty() {
            return Err("header needs resident=NAME".into());
        }
        h.rel().validate().map_err(|e| e.to_string())?;
        Ok(Some(h))
    }

    /// Canonical line form (what the journal stores).
    pub fn to_line(&self) -> String {
        format!(
            "resident={} objects={} obj-size={} d={} mem-pages={} seed={}{}",
            self.name,
            self.s_objects,
            self.s_size,
            self.d,
            self.mem_pages,
            self.seed,
            if self.modern { " mode=modern" } else { "" }
        )
    }
}

/// One op line of an open stream.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamOp {
    /// Probe micro-batch: `objects` generated R-rows drawn over the
    /// live slots with `seed`.
    Batch {
        name: String,
        objects: u64,
        seed: u64,
    },
    /// Probe micro-batch with explicit `(key, slot)` rows.
    BatchRows { name: String, rows: Vec<(u64, u64)> },
    /// Refill `count` tombstoned slots with fresh keys.
    Append { count: u64, seed: u64 },
    /// Tombstone `count` live slots drawn with `seed`.
    Delete { count: u64, seed: u64 },
}

impl StreamOp {
    /// Parse an op line. Returns `Ok(None)` for blank/comment lines.
    /// The op is named by its `batch=`, `batch-rows=`, `append=` or
    /// `delete=` key; a key that op does not read is an error.
    pub fn parse_line(line: &str) -> Result<Option<StreamOp>, String> {
        let Some(opts) = Options::line(line)? else {
            return Ok(None);
        };
        let Some(kind) = ["batch", "batch-rows", "append", "delete"]
            .into_iter()
            .find(|k| opts.lookup(k).is_some())
        else {
            // No op key, so every key is unread: this names the first.
            return opts.finish("an op line").map(|()| None);
        };
        let seed = || opts.parse_or("seed", 0);
        let op = match kind {
            "batch" => StreamOp::Batch {
                name: opts.get("batch")?.unwrap_or_default().to_string(),
                objects: opts.parse("objects")?.ok_or("batch needs objects=")?,
                seed: seed()?,
            },
            "batch-rows" => {
                let raw = opts.get("rows")?.ok_or("batch-rows needs rows=")?;
                let mut rows = Vec::new();
                for pair in raw.split(',').filter(|p| !p.is_empty()) {
                    let (k, s) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("bad row {pair:?} (expected key:slot)"))?;
                    rows.push((num("key", k)?, num("slot", s)?));
                }
                StreamOp::BatchRows {
                    name: opts.get("batch-rows")?.unwrap_or_default().to_string(),
                    rows,
                }
            }
            "append" => StreamOp::Append {
                count: opts.parse("append")?.unwrap_or_default(),
                seed: seed()?,
            },
            _ => StreamOp::Delete {
                count: opts.parse("delete")?.unwrap_or_default(),
                seed: seed()?,
            },
        };
        opts.finish(kind)?;
        Ok(Some(op))
    }

    /// Canonical line form.
    pub fn to_line(&self) -> String {
        match self {
            StreamOp::Batch {
                name,
                objects,
                seed,
            } => format!("batch={name} objects={objects} seed={seed}"),
            StreamOp::BatchRows { name, rows } => {
                let body: Vec<String> = rows.iter().map(|(k, s)| format!("{k}:{s}")).collect();
                format!("batch-rows={name} rows={}", body.join(","))
            }
            StreamOp::Append { count, seed } => format!("append={count} seed={seed}"),
            StreamOp::Delete { count, seed } => format!("delete={count} seed={seed}"),
        }
    }

    /// Display label for results and stats.
    pub fn label(&self) -> &str {
        match self {
            StreamOp::Batch { name, .. } | StreamOp::BatchRows { name, .. } => name,
            StreamOp::Append { .. } => "append",
            StreamOp::Delete { .. } => "delete",
        }
    }

    /// True for the resident-set maintenance ops.
    pub fn is_mutation(&self) -> bool {
        matches!(self, StreamOp::Append { .. } | StreamOp::Delete { .. })
    }
}

fn num(key: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("{key}={v:?} is not a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_its_line_form() {
        for line in [
            "resident=hot objects=4096 obj-size=64 d=4 mem-pages=64 seed=7",
            "resident=hot objects=4096 obj-size=64 d=4 mem-pages=64 seed=7 mode=modern",
        ] {
            let h = StreamHeader::parse_line(line).unwrap().unwrap();
            assert_eq!(h.to_line(), line);
            let again = StreamHeader::parse_line(&h.to_line()).unwrap().unwrap();
            assert_eq!(again, h);
        }
    }

    #[test]
    fn header_rejects_bad_shapes() {
        assert!(
            StreamHeader::parse_line("objects=100 d=2").is_err(),
            "no name"
        );
        assert!(
            StreamHeader::parse_line("resident=x objects=100 d=3").is_err(),
            "objects not divisible by d"
        );
        assert!(StreamHeader::parse_line("resident=x objects=100 d=2 mode=warp").is_err());
        assert!(StreamHeader::parse_line("resident=x frobnicate=1").is_err());
        let err = StreamHeader::parse_line("resident=x objects=100 d=2 objects=200").unwrap_err();
        assert!(err.contains("objects= given more than once"), "{err}");
        assert!(StreamHeader::parse_line("# comment").unwrap().is_none());
        assert!(StreamHeader::parse_line("   ").unwrap().is_none());
    }

    #[test]
    fn ops_round_trip_through_their_line_forms() {
        let ops = [
            StreamOp::Batch {
                name: "b0".into(),
                objects: 256,
                seed: 9,
            },
            StreamOp::BatchRows {
                name: "bx".into(),
                rows: vec![(17, 0), (99, 5), (3, 12)],
            },
            StreamOp::Append { count: 32, seed: 2 },
            StreamOp::Delete { count: 16, seed: 3 },
        ];
        for op in ops {
            let line = op.to_line();
            let again = StreamOp::parse_line(&line).unwrap().unwrap();
            assert_eq!(again, op, "{line}");
        }
    }

    #[test]
    fn ops_reject_malformed_lines() {
        assert!(StreamOp::parse_line("batch=b0").is_err(), "no objects");
        assert!(StreamOp::parse_line("batch-rows=bx rows=1-2").is_err());
        assert!(StreamOp::parse_line("resume=yes").is_err());
        assert!(StreamOp::parse_line("batch=b0 objects=ten").is_err());
        // A key the op does not read is an error, not silently ignored.
        let err = StreamOp::parse_line("append=3 seed=1 objects=9").unwrap_err();
        assert!(err.contains("append does not take objects="), "{err}");
        assert!(StreamOp::parse_line("batch=b0 objects=5 rows=1:2").is_err());
        let err = StreamOp::parse_line("delete=4 seed=1 seed=2").unwrap_err();
        assert!(err.contains("seed= given more than once"), "{err}");
        assert!(StreamOp::parse_line("").unwrap().is_none());
        assert!(StreamOp::parse_line("# nothing").unwrap().is_none());
    }
}

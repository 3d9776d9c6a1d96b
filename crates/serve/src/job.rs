//! Job descriptions: what a client submits, and what comes back.

use mmjoin::{Algo, ExecMode, PlanChoice};
use mmjoin_env::Options;
use mmjoin_model::JoinInputs;
use mmjoin_relstore::{PointerDist, RelConfig, WorkloadSpec, SPTR_SIZE};

/// Identifier assigned to a job at submission, in arrival order.
pub type JobId = u64;

/// Default page size used for budget arithmetic (the paper's 4 KB).
pub const PAGE: u64 = 4096;

/// How the job's plan (algorithm, memory grant, partitions) is chosen.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Run with exactly the submitted configuration.
    #[default]
    Fixed,
    /// Sample the workload's pointer distribution at submit time and
    /// let [`mmjoin::choose_auto`] pick algorithm, `m_rproc`, and
    /// partition count; admission control then budgets against the
    /// *chosen* grant.
    Auto,
}

/// One join job as submitted by a client.
#[derive(Clone, Debug)]
pub struct JobRequest {
    /// Optional client label, echoed in the result.
    pub name: String,
    /// The relations to generate and join.
    pub workload: WorkloadSpec,
    /// `M_Rproc_i` in bytes.
    pub m_rproc: u64,
    /// `M_Sproc_i` in bytes.
    pub m_sproc: u64,
    /// Algorithm to run; `None` lets the planner pick the predicted
    /// cheapest.
    pub alg: Option<Algo>,
    /// Execution mode of the D Rprocs inside this job.
    pub mode: ExecMode,
    /// Whether the service may re-plan this job from sampled
    /// statistics (`plan=auto`) or must take it as-is (`plan=fixed`).
    pub plan: PlanMode,
}

impl JobRequest {
    /// A request with the given shape and defaults everywhere else
    /// (uniform pointers, planner-chosen algorithm, sequential Rprocs).
    pub fn new(objects: u64, obj_size: u32, d: u32, mem_pages: u64, seed: u64) -> Self {
        JobRequest {
            name: String::new(),
            workload: WorkloadSpec {
                rel: RelConfig {
                    r_size: obj_size,
                    s_size: obj_size,
                    d,
                    r_objects: objects,
                    s_objects: objects,
                },
                dist: PointerDist::Uniform,
                seed,
                prefix: String::new(),
            },
            m_rproc: mem_pages * PAGE,
            m_sproc: mem_pages * PAGE,
            alg: None,
            mode: ExecMode::Sequential,
            plan: PlanMode::Fixed,
        }
    }

    /// The memory this job pins while running: `m_rproc × D` — one
    /// R-process budget per partition, the quantity the admission
    /// controller charges against the global budget.
    pub fn footprint(&self) -> u64 {
        self.m_rproc * self.workload.rel.d as u64
    }

    /// Planner inputs derivable *before* the relations exist, using the
    /// workload's distribution-level skew estimate. This is what lets
    /// the admission controller rank jobs it has not yet built.
    pub fn planner_inputs(&self) -> JoinInputs {
        JoinInputs {
            r_objects: self.workload.rel.r_objects,
            s_objects: self.workload.rel.s_objects,
            r_size: self.workload.rel.r_size,
            s_size: self.workload.rel.s_size,
            sptr_size: SPTR_SIZE,
            d: self.workload.rel.d,
            skew: self.workload.estimated_skew(),
            m_rproc: self.m_rproc,
            m_sproc: self.m_sproc,
            g_buffer: PAGE,
        }
    }

    /// Overwrite the workload shape from the keys `opts` carries —
    /// `objects` (|R| = |S|), `obj-size`, `d`, `mem-pages`, `seed` and
    /// `dist` (`uniform` | `zipf:T` | `cross`) — keeping this request's
    /// value for each absent key. A job line and a `join` command line
    /// name the workload with the same keys.
    pub fn read_workload(&mut self, opts: &Options) -> Result<(), String> {
        let rel = &mut self.workload.rel;
        if let Some(n) = opts.parse("objects")? {
            rel.r_objects = n;
            rel.s_objects = n;
        }
        if let Some(n) = opts.parse("obj-size")? {
            rel.r_size = n;
            rel.s_size = n;
        }
        if let Some(d) = opts.parse("d")? {
            rel.d = d;
        }
        if let Some(pages) = opts.parse::<u64>("mem-pages")? {
            self.m_rproc = pages * PAGE;
            self.m_sproc = pages * PAGE;
        }
        if let Some(seed) = opts.parse("seed")? {
            self.workload.seed = seed;
        }
        if let Some(dist) = opts.get("dist")? {
            self.workload.dist = dist.parse()?;
        }
        Ok(())
    }

    /// Parse one newline-delimited job line: whitespace-separated
    /// `key=value` tokens. Recognized keys: the workload keys of
    /// [`JobRequest::read_workload`], `name`, `alg` (an algorithm name
    /// or `auto`), `mode` (`seq` | `threads` | `modern`) and `plan`
    /// (`fixed` | `auto`). Blank lines and `#` comments yield `None`.
    pub fn parse_line(line: &str) -> Result<Option<JobRequest>, String> {
        let Some(opts) = Options::line(line)? else {
            return Ok(None);
        };
        let mut req = JobRequest::new(10_000, 128, 4, 64, 1);
        req.read_workload(&opts)?;
        if let Some(name) = opts.get("name")? {
            req.name = name.to_string();
        }
        match opts.get("alg")? {
            None => {}
            Some("auto") => req.alg = None,
            Some(v) => {
                req.alg =
                    Some(Algo::from_name(v).ok_or_else(|| format!("unknown algorithm '{v}'"))?)
            }
        }
        if let Some(v) = opts.get("mode")? {
            req.mode = match v {
                "seq" => ExecMode::Sequential,
                "threads" => ExecMode::Threaded,
                "modern" => ExecMode::Modern,
                other => return Err(format!("unknown mode '{other}' (seq | threads | modern)")),
            }
        }
        if let Some(v) = opts.get("plan")? {
            req.plan = match v {
                "fixed" => PlanMode::Fixed,
                "auto" => PlanMode::Auto,
                other => return Err(format!("unknown plan '{other}' (fixed | auto)")),
            }
        }
        opts.finish("a job line")?;
        req.workload.rel.validate().map_err(|e| e.to_string())?;
        Ok(Some(req))
    }

    /// Re-encode this request in the job-file grammar accepted by
    /// [`JobRequest::parse_line`]. This is what the write-ahead journal
    /// stores at submission, so a restarted service can re-submit the
    /// job verbatim; `parse_line(to_line())` round-trips every
    /// parse-reachable request.
    pub fn to_line(&self) -> String {
        let dist = match self.workload.dist {
            PointerDist::Uniform => "uniform".to_string(),
            PointerDist::Zipf { theta } => format!("zipf:{theta}"),
            PointerDist::CrossPartition => "cross".to_string(),
        };
        let mode = match self.mode {
            ExecMode::Sequential => "seq",
            ExecMode::Threaded => "threads",
            ExecMode::Modern => "modern",
        };
        let alg = self.alg.map_or("auto", |a| a.name());
        let name = if self.name.is_empty() {
            String::new()
        } else {
            format!("name={} ", self.name)
        };
        // `plan=fixed` is the default and is omitted so pre-existing
        // journals and fixtures round-trip byte-identically.
        let plan = if self.plan == PlanMode::Auto {
            " plan=auto"
        } else {
            ""
        };
        format!(
            "{name}alg={alg} objects={} obj-size={} d={} mem-pages={} seed={} dist={dist} mode={mode}{plan}",
            self.workload.rel.r_objects,
            self.workload.rel.r_size,
            self.workload.rel.d,
            self.m_rproc / PAGE,
            self.workload.seed,
        )
    }
}

/// Everything the service reports about one finished job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Submission-order id.
    pub id: JobId,
    /// Shard the placement policy chose, whose worker executed the
    /// job — 0 on the single-queue service.
    pub shard: u32,
    /// Client label from the request.
    pub name: String,
    /// Algorithm that actually ran.
    pub alg: Algo,
    /// Planner-predicted seconds for the winning algorithm (the
    /// admission priority key under shortest-predicted-first).
    pub predicted_seconds: f64,
    /// Joined pairs produced.
    pub pairs: u64,
    /// Order-independent join checksum.
    pub checksum: u64,
    /// Whether pairs and checksum matched the workload oracle.
    pub verified: bool,
    /// Environment-reported elapsed seconds (virtual on `SimEnv`).
    pub env_elapsed: f64,
    /// Wall seconds spent queued before admission.
    pub queue_wait: f64,
    /// Wall seconds from admission to completion.
    pub exec_wall: f64,
    /// Read faults across the job's processes.
    pub read_faults: u64,
    /// Write-backs across the job's processes.
    pub write_backs: u64,
    /// Join attempts executed (1 = first try succeeded).
    pub attempts: u32,
    /// Transient errors absorbed by retrying.
    pub retries: u64,
    /// Faults the injection layer fired into this job.
    pub faults_injected: u64,
    /// Times the job was re-planned with a halved memory footprint
    /// after `DiskFull`.
    pub degraded: u32,
    /// Bytes of the job's original budget reservation returned to the
    /// global pool mid-run by degradations.
    pub released_bytes: u64,
    /// Orphaned temporary files deleted by recovery.
    pub cleaned_files: u64,
    /// The job's executor panicked (isolated by `catch_unwind`).
    pub panicked: bool,
    /// The result was reconstructed from the write-ahead journal by a
    /// restarted service rather than executed in this process.
    pub resumed: bool,
    /// Failure message, if the job errored.
    pub error: Option<String>,
}

impl JobResult {
    /// The result of job `id` before anything ran: identity and plan
    /// fields from the request and its queued plan, every outcome field
    /// zeroed. Callers set what differs.
    pub(crate) fn new(id: JobId, req: &JobRequest, plan: &PlanChoice) -> JobResult {
        JobResult {
            id,
            shard: 0,
            name: req.name.clone(),
            alg: req.alg.unwrap_or_else(|| Algo::from(plan.algorithm)),
            predicted_seconds: plan.predicted_seconds(),
            pairs: 0,
            checksum: 0,
            verified: false,
            env_elapsed: 0.0,
            queue_wait: 0.0,
            exec_wall: 0.0,
            read_faults: 0,
            write_backs: 0,
            attempts: 0,
            retries: 0,
            faults_injected: 0,
            degraded: 0,
            released_bytes: 0,
            cleaned_files: 0,
            panicked: false,
            resumed: false,
            error: None,
        }
    }

    /// Wall-clock latency a client observes: queue wait plus execution.
    pub fn latency(&self) -> f64 {
        self.queue_wait + self.exec_wall
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_line_roundtrip() {
        let req = JobRequest::parse_line(
            "name=q1 alg=grace objects=2000 obj-size=64 d=2 mem-pages=32 seed=9 dist=zipf:0.8 mode=threads",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.name, "q1");
        assert_eq!(req.alg, Some(Algo::Grace));
        assert_eq!(req.workload.rel.r_objects, 2000);
        assert_eq!(req.workload.rel.r_size, 64);
        assert_eq!(req.workload.rel.d, 2);
        assert_eq!(req.m_rproc, 32 * PAGE);
        assert_eq!(req.workload.seed, 9);
        assert!(matches!(
            req.workload.dist,
            PointerDist::Zipf { theta } if (theta - 0.8).abs() < 1e-12
        ));
        assert_eq!(req.mode, ExecMode::Threaded);
        assert_eq!(req.footprint(), 2 * 32 * PAGE);
    }

    #[test]
    fn to_line_round_trips_through_parse_line() {
        for line in [
            "alg=auto objects=2000 obj-size=64 d=2 mem-pages=32 seed=9 dist=uniform mode=seq",
            "name=q1 alg=grace objects=2000 obj-size=64 d=2 mem-pages=32 seed=9 dist=zipf:0.8 mode=threads",
            "name=x alg=hybrid-hash objects=400 obj-size=32 d=4 mem-pages=8 seed=3 dist=cross mode=seq",
            "name=m alg=sort-merge objects=800 obj-size=64 d=4 mem-pages=16 seed=5 dist=uniform mode=modern",
            "name=a alg=auto objects=2000 obj-size=64 d=2 mem-pages=32 seed=9 dist=cross mode=seq plan=auto",
        ] {
            let req = JobRequest::parse_line(line).unwrap().unwrap();
            let encoded = req.to_line();
            let back = JobRequest::parse_line(&encoded).unwrap().unwrap();
            assert_eq!(back.to_line(), encoded, "unstable encoding for {line}");
            assert_eq!(back.name, req.name);
            assert_eq!(back.alg, req.alg);
            assert_eq!(back.workload.rel, req.workload.rel);
            assert_eq!(back.workload.seed, req.workload.seed);
            assert_eq!(back.m_rproc, req.m_rproc);
            assert_eq!(back.mode, req.mode);
            assert_eq!(back.plan, req.plan);
        }
    }

    #[test]
    fn plan_key_parses_and_defaults_to_fixed() {
        let fixed = JobRequest::parse_line("alg=auto").unwrap().unwrap();
        assert_eq!(fixed.plan, PlanMode::Fixed);
        assert!(!fixed.to_line().contains("plan="), "default omitted");
        let auto = JobRequest::parse_line("alg=auto plan=auto")
            .unwrap()
            .unwrap();
        assert_eq!(auto.plan, PlanMode::Auto);
        assert!(auto.to_line().ends_with(" plan=auto"));
        assert!(JobRequest::parse_line("plan=maybe").is_err());
    }

    #[test]
    fn parse_line_skips_blanks_and_comments() {
        assert!(JobRequest::parse_line("").unwrap().is_none());
        assert!(JobRequest::parse_line("  # a comment").unwrap().is_none());
    }

    #[test]
    fn parse_line_rejects_bad_input() {
        assert!(JobRequest::parse_line("objects").is_err());
        assert!(JobRequest::parse_line("alg=quantum").is_err());
        assert!(JobRequest::parse_line("mode=fast").is_err());
        assert!(JobRequest::parse_line("frobnicate=1").is_err());
        // A repeated key is an error naming it, not "last value wins".
        let err = JobRequest::parse_line("objects=800 d=2 objects=400").unwrap_err();
        assert!(err.contains("objects= given more than once"), "{err}");
        // d must divide the object counts (RelConfig::validate).
        assert!(JobRequest::parse_line("objects=1001 d=4").is_err());
    }

    #[test]
    fn auto_algorithm_defers_to_planner() {
        let req = JobRequest::parse_line("alg=auto").unwrap().unwrap();
        assert_eq!(req.alg, None);
        let inputs = req.planner_inputs();
        assert_eq!(inputs.r_objects, 10_000);
        assert_eq!(inputs.skew, 1.0);
    }
}

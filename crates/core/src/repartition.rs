//! The two-pass re-partitioning prologue the paper's algorithms share
//! (§5–§7), written once.
//!
//! Setup: `Rproc_i` opens `R_i`/`S_i`, creates `RP_i` and (unless the
//! algorithm joins every object on sight) `RS_i`, which it publishes for
//! its peers. Pass 0 scans `R_i` once: objects pointing into `S_i` are
//! *placed*, the rest are scattered into the `RP_{i,j}` sub-partitions
//! on the same disk. Pass 1 is `D−1` staggered phases; in phase `t`,
//! `Rproc_i` drains `RP_{i, offset(i,t)}` and places each object against
//! partition `offset(i,t)`, so every `S_j`/`RS_j` is wanted by exactly
//! one Rproc per phase.
//!
//! An algorithm is its placement rule — [`Place::Rs`] into a bucket of
//! the owner's `RS_j`, or [`Place::JoinNow`] through `Sproc_j`'s shared
//! buffer — plus the local join pass over its own `RS_i` ([`RsArea`]).

use std::sync::Arc;

use mmjoin_env::{CpuOp, DiskId, Env, EnvError, MoveKind, ProcId, Result, SPtr, TraceEvent};
use mmjoin_relstore::{chunked_capacity, names, r_key, r_sptr, ChunkedFile, ObjScan, Relations};

use crate::exec::{
    finish, phase_partner, run_stages, stage_summary, JoinAcc, JoinOutput, JoinSpec, SBatcher,
    SharedSlots,
};

/// Where one R-object goes once the partition `S_j` it points into is
/// reachable (pass 0 for `j = i`, phase `t` for `j = offset(i,t)`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Place {
    /// Append to this bucket (stream) of `RS_j` for the owner's local
    /// join pass.
    Rs(u32),
    /// Join immediately through `Sproc_j`'s shared buffer.
    JoinNow,
}

/// The identity of one pass (or one phase of pass 1), carried by its
/// [`TraceEvent::PassStart`]/[`TraceEvent::PassEnd`] pair.
pub struct Pass {
    /// Emitting process.
    pub proc: u32,
    /// Pass id: 0 scan, 1 staggered phases, 2 local join.
    pub pass: u32,
    /// Phase `t` within pass 1 (0 elsewhere).
    pub phase: u32,
    /// Disk the pass touches.
    pub disk: u32,
    /// Storage area in paper notation.
    pub area: String,
}

impl Pass {
    /// Pass 0: `Rproc_i` scans `R_i`.
    pub fn scan(i: u32) -> Pass {
        Pass {
            proc: i,
            pass: 0,
            phase: 0,
            disk: i,
            area: format!("R_{i}"),
        }
    }

    /// Pass 1, phase `t`: `Rproc_i` handles `R_{i,j}` against disk `j`.
    pub fn phase(i: u32, t: u32, j: u32) -> Pass {
        Pass {
            proc: i,
            pass: 1,
            phase: t,
            disk: j,
            area: format!("R({i},{j})"),
        }
    }

    /// Pass 2: `Rproc_i`'s local join over `RS_i`.
    pub fn local(i: u32) -> Pass {
        Pass {
            proc: i,
            pass: 2,
            phase: 0,
            disk: i,
            area: format!("RS_{i}"),
        }
    }

    /// Emit the `PassStart`.
    pub fn start<E: Env>(&self, env: &E) {
        env.trace(
            ProcId(self.proc),
            TraceEvent::PassStart {
                proc: self.proc,
                pass: self.pass,
                phase: self.phase,
                disk: self.disk,
                area: self.area.clone(),
            },
        );
    }

    /// Emit the matching `PassEnd` for `objects` objects of `obj_size`
    /// bytes.
    pub fn end<E: Env>(self, env: &E, objects: u64, obj_size: u64) {
        env.trace(
            ProcId(self.proc),
            TraceEvent::PassEnd {
                proc: self.proc,
                pass: self.pass,
                phase: self.phase,
                disk: self.disk,
                area: self.area,
                bytes: objects * obj_size,
                objects,
            },
        );
    }
}

/// `|RS_i|`: every R-object pointing into `S_i`, known exactly from the
/// workload's sub-partition counts (the catalog statistics a real system
/// would keep).
pub fn rs_objects(rels: &Relations, i: u32) -> u64 {
    (0..rels.rel.d).map(|k| rels.sub_count(k, i)).sum()
}

/// An algorithm's local join pass over its own `RS_i`: `(i, RS_i, acc)`.
pub type LocalJoin<'a, E> =
    dyn Fn(u32, &ChunkedFile<<E as Env>::File>, &mut JoinAcc) -> Result<()> + Sync + 'a;

/// The `RS_i` areas of an algorithm that defers (some of) its joins, and
/// the local pass that consumes them.
pub struct RsArea<'a, E: Env> {
    /// Streams (hash buckets) per `RS_i`.
    pub buckets: u32,
    /// Name of a second temporary area of `RS_i`'s capacity, created
    /// right after it so the setup stage carries its mapping cost
    /// (sort-merge's alternate merge area).
    pub scratch: Option<fn(u32) -> String>,
    /// Name of the final stage.
    pub local_stage: &'a str,
    /// The pass that consumes `RS_i`.
    pub local_join: &'a LocalJoin<'a, E>,
}

enum Step {
    Pass0,
    Phase(u32),
    Local,
}

/// What stage 0 leaves each proc holding.
struct Areas<E: Env> {
    rf: E::File,
    rp: ChunkedFile<E::File>,
}

struct ProcState<E: Env> {
    acc: JoinAcc,
    areas: Option<Areas<E>>,
}

/// Execute a re-partitioning join (S catalog must be registered).
///
/// With an [`RsArea`] the stages are setup | pass0 | phase 1..d−1 | the
/// local join, each behind a barrier (§6.3). Without one — every object
/// placed [`Place::JoinNow`], i.e. nested loops — there is nothing to
/// hand over between procs, so everything runs in one free-running stage
/// unless `spec.sync_phases` asks for per-phase barriers (§5.1).
///
/// `place` is called exactly once per R-object, on the proc that holds
/// it, and declares its own CPU cost.
pub fn run<E: Env>(
    env: &E,
    rels: &Relations,
    spec: &JoinSpec,
    rs_area: Option<RsArea<'_, E>>,
    place: impl Fn(ProcId, SPtr) -> Place + Sync,
) -> Result<JoinOutput> {
    let d = rels.rel.d;
    // Setup always opens stage 0; these are the steps that follow it.
    let phases = (1..d).map(|t| (format!("phase{t}"), vec![Step::Phase(t)]));
    let plan: Vec<(String, Vec<Step>)> = match &rs_area {
        Some(area) => [
            ("setup".to_string(), vec![]),
            ("pass0".to_string(), vec![Step::Pass0]),
        ]
        .into_iter()
        .chain(phases)
        .chain([(area.local_stage.to_string(), vec![Step::Local])])
        .collect(),
        None if spec.sync_phases => [("setup+pass0".to_string(), vec![Step::Pass0])]
            .into_iter()
            .chain(phases)
            .collect(),
        None => {
            let all = std::iter::once(Step::Pass0).chain((1..d).map(Step::Phase));
            vec![("all".to_string(), all.collect())]
        }
    };
    let prologue = Prologue {
        env,
        rels,
        spec,
        rs_area,
        slots: SharedSlots::new(d),
        place,
    };

    let (states, times) = run_stages(
        env,
        d,
        spec.mode,
        plan.len(),
        |_| ProcState::<E> {
            acc: JoinAcc::default(),
            areas: None,
        },
        |stage, i, state: &mut ProcState<E>| {
            let areas: &Areas<E> = if stage == 0 {
                state.areas.insert(prologue.setup(i)?)
            } else {
                state.areas.as_ref().ok_or_else(|| {
                    EnvError::InvalidConfig("repartition: stage 0 has not run".into())
                })?
            };
            for step in &plan[stage].1 {
                match *step {
                    Step::Pass0 => prologue.pass0(i, areas, &mut state.acc)?,
                    Step::Phase(t) => prologue.phase(i, t, areas, &mut state.acc)?,
                    Step::Local => prologue.local(i, &mut state.acc)?,
                }
            }
            Ok(())
        },
    )?;

    let names: Vec<&str> = plan.iter().map(|(name, _)| name.as_str()).collect();
    let summary = stage_summary(&names, &times);
    Ok(finish(
        env,
        d,
        states.into_iter().map(|s| s.acc),
        summary,
        &times,
    ))
}

/// One run's constants, shared by its `D` Rprocs.
struct Prologue<'a, E: Env, P> {
    env: &'a E,
    rels: &'a Relations,
    spec: &'a JoinSpec,
    rs_area: Option<RsArea<'a, E>>,
    /// `RS_j`, published by its owner during setup.
    slots: Arc<SharedSlots<ChunkedFile<E::File>>>,
    place: P,
}

impl<'a, E: Env, P: Fn(ProcId, SPtr) -> Place> Prologue<'a, E, P> {
    /// Open `R_i`/`S_i`, create `RP_i`, then `RS_i` (published for the
    /// peers) and its scratch twin.
    fn setup(&self, i: u32) -> Result<Areas<E>> {
        let (env, rels, spec) = (self.env, self.rels, self.spec);
        let proc = ProcId::rproc(i);
        let d = rels.rel.d;
        let page = env.page_size();
        let r_size = rels.rel.r_size;
        let rf = env.open_file(proc, &rels.r_files[i as usize])?;
        let _sf = env.open_file(proc, &rels.s_files[i as usize])?;
        let rp_capacity = chunked_capacity(rels.rel.r_per_part(), r_size, d, page);
        let rp_file = env.create_file(
            proc,
            &spec.temp_name(rels, &names::rp(i)),
            DiskId(i),
            rp_capacity,
        )?;
        let rp = ChunkedFile::new(rp_file, d, r_size, page)?;
        if let Some(area) = &self.rs_area {
            let rs_capacity = chunked_capacity(rs_objects(rels, i), r_size, area.buckets, page);
            let rs_file = env.create_file(
                proc,
                &spec.temp_name(rels, &names::rs(i)),
                DiskId(i),
                rs_capacity,
            )?;
            let rs = ChunkedFile::new(rs_file, area.buckets, r_size, page)?;
            self.slots.publish(i, rs);
            if let Some(scratch) = area.scratch {
                env.create_file(
                    proc,
                    &spec.temp_name(rels, &scratch(i)),
                    DiskId(i),
                    rs_capacity,
                )?;
            }
        }
        Ok(Areas { rf, rp })
    }

    /// Where `Rproc_i` puts the objects pointing into `S_j` this pass.
    fn sink(&self, i: u32, j: u32) -> Result<Sink<'a, E>> {
        let proc = ProcId::rproc(i);
        Ok(Sink {
            env: self.env,
            proc,
            rs: match self.rs_area {
                Some(_) => Some(self.slots.try_get(j)?),
                None => None,
            },
            batcher: SBatcher::new(self.env, proc, j, self.rels, self.spec.g_buffer),
            r_size: self.rels.rel.r_size as u64,
        })
    }

    /// Pass 0: scan `R_i`, placing `R_{i,i}` and scattering the rest
    /// into `RP_i`.
    fn pass0(&self, i: u32, areas: &Areas<E>, acc: &mut JoinAcc) -> Result<()> {
        let (env, rels) = (self.env, self.rels);
        let proc = ProcId::rproc(i);
        let r_size = rels.rel.r_size;
        let part_bytes = rels.rel.s_part_bytes();
        let ri_objects = rels.rel.r_per_part();
        let pass = Pass::scan(i);
        pass.start(env);
        let mut sink = self.sink(i, i)?;
        let mut scan = ObjScan::new(&areas.rf, 0, r_size, ri_objects);
        let mut obj = vec![0u8; r_size as usize];
        while scan.next_into(proc, &mut obj)? {
            env.cpu(proc, CpuOp::Map, 1);
            let ptr = r_sptr(&obj);
            let j = ptr.partition(part_bytes);
            if j == i {
                sink.put((self.place)(proc, ptr), &obj, ptr, acc)?;
            } else {
                areas.rp.append(proc, j, &obj)?;
                env.move_bytes(proc, MoveKind::PP, r_size as u64);
            }
        }
        sink.batcher.flush(acc)?;
        pass.end(env, ri_objects, r_size as u64);
        Ok(())
    }

    /// Pass 1, phase `t`: drain `RP_{i,j}` for `j = offset(i,t)`,
    /// placing every object against partition `j`.
    fn phase(&self, i: u32, t: u32, areas: &Areas<E>, acc: &mut JoinAcc) -> Result<()> {
        let proc = ProcId::rproc(i);
        let r_size = self.rels.rel.r_size;
        let j = phase_partner(i, t, self.rels.rel.d);
        let pass = Pass::phase(i, t, j);
        pass.start(self.env);
        let mut sink = self.sink(i, j)?;
        let mut reader = areas.rp.stream_reader(j);
        let mut obj = vec![0u8; r_size as usize];
        let mut objects = 0u64;
        while reader.next_into(proc, &mut obj)? {
            let ptr = r_sptr(&obj);
            sink.put((self.place)(proc, ptr), &obj, ptr, acc)?;
            objects += 1;
        }
        sink.batcher.flush(acc)?;
        pass.end(self.env, objects, r_size as u64);
        Ok(())
    }

    /// The algorithm's own pass over `RS_i`.
    fn local(&self, i: u32, acc: &mut JoinAcc) -> Result<()> {
        match &self.rs_area {
            Some(area) => (area.local_join)(i, &self.slots.try_get(i)?, acc),
            None => Ok(()),
        }
    }
}

/// Destination of one pass's placed objects: a bucket of `RS_j`, or
/// `Sproc_j`'s shared buffer.
struct Sink<'e, E: Env> {
    env: &'e E,
    proc: ProcId,
    rs: Option<ChunkedFile<E::File>>,
    batcher: SBatcher<'e, E>,
    r_size: u64,
}

impl<E: Env> Sink<'_, E> {
    fn put(&mut self, place: Place, obj: &[u8], ptr: SPtr, acc: &mut JoinAcc) -> Result<()> {
        match place {
            Place::Rs(bucket) => {
                let rs = self.rs.as_ref().ok_or_else(|| {
                    EnvError::InvalidConfig("placement into RS without an RS area".into())
                })?;
                rs.append(self.proc, bucket, obj)?;
                self.env.move_bytes(self.proc, MoveKind::PP, self.r_size);
                Ok(())
            }
            Place::JoinNow => self.batcher.add(r_key(obj), ptr, acc),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    use mmjoin_relstore::{build, PointerDist, RelConfig, WorkloadSpec};
    use mmjoin_vmsim::{SimConfig, SimEnv};

    use super::*;
    use crate::exec::ExecMode;
    use crate::hybrid;

    const D: u32 = 4;
    const K: u32 = 5;
    const OBJECTS: u64 = 1_200;
    const OBJ_SIZE: u32 = 32;
    /// Bytes per `S` partition of the `D`-way fixture.
    const PART_BYTES: u64 = OBJECTS / D as u64 * OBJ_SIZE as u64;

    /// A small simulated machine with `R` and `S` built and the S catalog
    /// registered.
    fn fixture(d: u32, dist: PointerDist) -> (SimEnv, Relations) {
        let mut cfg = SimConfig::waterloo96(d);
        cfg.rproc_pages = 16;
        cfg.sproc_pages = 16;
        let env = SimEnv::new(cfg).unwrap();
        let rels = build(
            &env,
            &WorkloadSpec {
                rel: RelConfig {
                    r_size: OBJ_SIZE,
                    s_size: OBJ_SIZE,
                    d,
                    r_objects: OBJECTS,
                    s_objects: OBJECTS,
                },
                dist,
                seed: 21,
                prefix: String::new(),
            },
        )
        .unwrap();
        env.register_s(rels.catalog.clone()).unwrap();
        (env, rels)
    }

    fn spec() -> JoinSpec {
        JoinSpec::new(16 * 4096, 16 * 4096).with_mode(ExecMode::Sequential)
    }

    /// Run the prologue under `rule`, with a local join that only records
    /// the `RS_j` bucket populations, and check that every object was
    /// placed exactly once: per target partition `j`, the objects found
    /// in `RS_j` plus those joined on sight are exactly the `R_{k,j}`.
    fn check_rule(buckets: Option<u32>, rule: impl Fn(SPtr) -> Place + Sync) {
        let (env, rels) = fixture(D, PointerDist::Zipf { theta: 0.6 });

        // Decisions per (target partition, bucket); the last column
        // counts `JoinNow`.
        let cols = K as usize + 1;
        let decided: Vec<AtomicU64> = (0..D as usize * cols).map(|_| AtomicU64::new(0)).collect();
        let found = Mutex::new(vec![0u64; D as usize * cols]);
        let local_join = |j: u32, rs: &ChunkedFile<_>, _: &mut JoinAcc| {
            let mut found = found.lock().unwrap();
            for b in 0..rs.num_streams() {
                found[j as usize * cols + b as usize] = rs.stream_len(b);
            }
            Ok(())
        };
        let area = buckets.map(|buckets| RsArea {
            buckets,
            scratch: None,
            local_stage: "local",
            local_join: &local_join,
        });
        let out = run(&env, &rels, &spec(), area, |_, ptr| {
            let place = rule(ptr);
            let col = match place {
                Place::Rs(b) => b as usize,
                Place::JoinNow => K as usize,
            };
            let j = ptr.partition(PART_BYTES) as usize;
            decided[j * cols + col].fetch_add(1, Ordering::Relaxed);
            place
        })
        .unwrap();

        let decided: Vec<u64> = decided.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let found = found.into_inner().unwrap();
        let mut joined_now = 0;
        for j in 0..D as usize {
            let row = &decided[j * cols..(j + 1) * cols];
            assert_eq!(
                row.iter().sum::<u64>(),
                rs_objects(&rels, j as u32),
                "partition {j}: one placement per object pointing into it"
            );
            assert_eq!(
                &found[j * cols..j * cols + K as usize],
                &row[..K as usize],
                "partition {j}: RS bucket populations match the placements"
            );
            joined_now += row[K as usize];
        }
        assert_eq!(out.pairs, joined_now, "JoinNow objects were joined");
    }

    #[test]
    fn nested_loops_rule_joins_every_object_on_sight() {
        check_rule(None, |_| Place::JoinNow);
    }

    #[test]
    fn sort_merge_rule_fills_one_stream_per_rs() {
        check_rule(Some(1), |_| Place::Rs(0));
    }

    #[test]
    fn grace_rule_fills_k_buckets_per_rs() {
        let hash = hybrid::HybridHashFn::new(PART_BYTES, &hybrid::HybridPlan::grace(K as u64));
        check_rule(Some(K), |ptr| {
            Place::Rs(hash.route(ptr).expect("no in-memory range"))
        });
    }

    #[test]
    fn hybrid_rule_splits_between_join_now_and_spill_buckets() {
        let plan = hybrid::HybridPlan {
            f0_bytes: PART_BYTES / 4,
            f0: 0.25,
            k: K as u64,
        };
        let hash = hybrid::HybridHashFn::new(PART_BYTES, &plan);
        check_rule(Some(K), |ptr| {
            hash.route(ptr).map_or(Place::JoinNow, Place::Rs)
        });
    }

    #[test]
    fn rs_placement_without_an_rs_area_is_an_error() {
        let (env, rels) = fixture(1, PointerDist::Uniform);
        assert!(run(&env, &rels, &spec(), None, |_, _| Place::Rs(0)).is_err());
    }
}

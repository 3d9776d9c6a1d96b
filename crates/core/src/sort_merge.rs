//! Parallel pointer-based sort-merge (paper §6).
//!
//! Placement rule for the shared prologue ([`crate::repartition`]):
//! every object is *written* to the single stream of its owner's `RS`
//! area, so after pass 1 `RS_i` holds every R-object (from all
//! partitions) whose join pointer lands in `S_i`. Because the join
//! attribute is a virtual pointer, `S` itself never needs sorting —
//! sorting `RS_i` by pointer already yields a sequential scan of `S_i`
//! in the final pass (§4, §6.1).
//!
//! The local sort is a multi-way external merge sort: runs of `IRUN`
//! objects are heap-sorted in place via an array of pointers (Floyd
//! construction + drain), then groups of `NRUN` runs are merged with
//! delete-insert heaps, alternating between the `RS_i` and `Merge_i`
//! areas (swapped with `deleteMap`/`newMap`, as the paper charges). The
//! last merge joins directly against `S_i` through the shared buffer.

use mmjoin_env::{DiskId, Env, EnvError, MoveKind, ProcId, Result, SPtr};
use mmjoin_model::{choose_irun, choose_nrun_abl, choose_nrun_last, merge_plan, MergePlan};
use mmjoin_relstore::{chunked_capacity, names, r_key, r_sptr, ChunkedFile, Relations};

use crate::exec::{JoinAcc, JoinOutput, JoinSpec, SBatcher};
use crate::pheap::{heapsort, HeapEntry, MergeHeap};
use crate::repartition::{self, rs_objects, Pass, Place, RsArea};

/// Execute the join (S catalog must be registered).
pub fn run<E: Env>(env: &E, rels: &Relations, spec: &JoinSpec) -> Result<JoinOutput> {
    let area = RsArea {
        buckets: 1,
        scratch: Some(names::merge),
        local_stage: "sort+merge+join",
        local_join: &|i, rs, acc| local_sort_merge_join(env, rels, spec, i, rs, acc),
    };
    repartition::run(env, rels, spec, Some(area), |_, _| Place::Rs(0))
}

fn local_sort_merge_join<E: Env>(
    env: &E,
    rels: &Relations,
    spec: &JoinSpec,
    i: u32,
    rs: &ChunkedFile<E::File>,
    acc: &mut JoinAcc,
) -> Result<()> {
    let proc = ProcId::rproc(i);
    let r_size = rels.rel.r_size as usize;
    let n = rs.stream_len(0);
    let pass = Pass::local(i);
    pass.start(env);
    if n == 0 {
        pass.end(env, 0, r_size as u64);
        return Ok(());
    }

    // ---- run formation (pass 2) ----
    let irun = choose_irun(spec.m_rproc, rels.rel.r_size);
    let plan: MergePlan = merge_plan(
        n,
        irun,
        choose_nrun_abl(spec.m_rproc, env.page_size()),
        choose_nrun_last(spec.m_rproc, env.page_size()),
    )?;
    let mut buf = vec![0u8; r_size];
    let mut run_objs: Vec<u8> = Vec::with_capacity((irun as usize) * r_size);
    let mut entries: Vec<HeapEntry> = Vec::with_capacity(irun as usize);
    let mut start = 0u64;
    while start < n {
        let len = irun.min(n - start);
        run_objs.clear();
        entries.clear();
        for k in 0..len {
            rs.read_obj(proc, 0, start + k, &mut buf)?;
            entries.push((r_sptr(&buf), k as u32));
            run_objs.extend_from_slice(&buf);
        }
        let ops = heapsort(&mut entries);
        ops.charge(env, proc);
        // Write the objects back in sorted order ("sorted in place";
        // the OS ages the dirty pages out).
        for (k, &(_, idx)) in entries.iter().enumerate() {
            let src = &run_objs[idx as usize * r_size..(idx as usize + 1) * r_size];
            rs.write_obj(proc, 0, start + k as u64, src)?;
        }
        env.move_bytes(proc, MoveKind::PP, len * r_size as u64);
        start += len;
    }

    // ---- merging passes ----
    // Sources alternate between the RS and Merge areas; each swap
    // deletes and re-creates the emptied area (charged deleteMap/newMap,
    // with exact-fit extent reuse keeping the disk layout stable).
    let rs_name = spec.temp_name(rels, &names::rs(i));
    let merge_name = spec.temp_name(rels, &names::merge(i));
    let mut src = rs.clone();
    let mut src_is_rs = true;
    let mut run_len = irun;
    let page = env.page_size();

    for _abl in 0..plan.npass - 1 {
        let dst_name = if src_is_rs { &merge_name } else { &rs_name };
        // Re-create the destination area fresh.
        let dst_capacity = chunked_capacity(n, rels.rel.r_size, 1, page);
        env.delete_file(proc, dst_name)?;
        let dst_file = env.create_file(proc, dst_name, DiskId(i), dst_capacity)?;
        let dst = ChunkedFile::new(dst_file, 1, rels.rel.r_size, page)?;

        merge_pass(
            env,
            proc,
            rels,
            &src,
            &dst,
            n,
            run_len,
            plan.nrun_abl,
            None,
            acc,
        )?;

        src = dst;
        src_is_rs = !src_is_rs;
        run_len = run_len.saturating_mul(plan.nrun_abl);
    }

    // ---- last pass: merge + join against a sequential S_i scan ----
    let mut batcher = SBatcher::new(env, proc, i, rels, spec.g_buffer);
    merge_pass(
        env,
        proc,
        rels,
        &src,
        &src, // unused when joining
        n,
        run_len,
        u64::MAX, // merge every remaining run at once
        Some(&mut batcher),
        acc,
    )?;
    pass.end(env, n, r_size as u64);
    Ok(())
}

/// Merge consecutive groups of up to `fan_in` runs of `run_len` objects
/// from `src`. With `batcher` set this is the final pass: emit each
/// object to the Sproc batcher (ascending pointer order ⇒ sequential S
/// reads). Otherwise append merged runs to `dst`.
#[allow(clippy::too_many_arguments)]
fn merge_pass<E: Env>(
    env: &E,
    proc: ProcId,
    rels: &Relations,
    src: &ChunkedFile<E::File>,
    dst: &ChunkedFile<E::File>,
    n: u64,
    run_len: u64,
    fan_in: u64,
    mut batcher: Option<&mut SBatcher<'_, E>>,
    acc: &mut JoinAcc,
) -> Result<()> {
    let r_size = rels.rel.r_size as usize;
    let num_runs = n.div_ceil(run_len);
    let mut group_start_run = 0u64;
    // Per-run scratch reused across merge groups: cursor ranges and the
    // current object bytes grow to the widest fan-in once and are then
    // recycled — no per-group reallocation in the steady state.
    let mut cursors: Vec<(u64, u64)> = Vec::new();
    let mut current: Vec<Vec<u8>> = Vec::new();
    while group_start_run < num_runs {
        let group_runs = fan_in.min(num_runs - group_start_run);
        // Cursor state per run: next index and end index in the stream.
        cursors.clear();
        cursors.extend((0..group_runs).map(|g| {
            let run = group_start_run + g;
            let lo = run * run_len;
            let hi = ((run + 1) * run_len).min(n);
            (lo, hi)
        }));
        if current.len() < group_runs as usize {
            current.resize_with(group_runs as usize, || vec![0u8; r_size]);
        }
        let mut firsts: Vec<(SPtr, u32)> = Vec::with_capacity(group_runs as usize);
        for (g, cur) in cursors.iter_mut().enumerate() {
            if cur.0 < cur.1 {
                src.read_obj(proc, 0, cur.0, &mut current[g])?;
                cur.0 += 1;
                firsts.push((r_sptr(&current[g]), g as u32));
            }
        }
        let mut heap = MergeHeap::new(firsts);
        while let Some((_, g)) = heap.peek() {
            let gi = g as usize;
            let obj = &current[gi];
            if let Some(b) = batcher.as_deref_mut() {
                b.add(r_key(obj), r_sptr(obj), acc)?;
            } else {
                dst.append(proc, 0, obj)?;
                env.move_bytes(proc, MoveKind::PP, r_size as u64);
            }
            let (next, hi) = cursors[gi];
            if next < hi {
                src.read_obj(proc, 0, next, &mut current[gi])?;
                cursors[gi].0 += 1;
                heap.replace_min(r_sptr(&current[gi]));
            } else {
                heap.pop_min();
            }
        }
        heap.ops().charge(env, proc);
        group_start_run += group_runs;
    }
    if let Some(b) = batcher {
        b.flush(acc)?;
    }
    Ok(())
}

/// The merge schedule the implementation will use — for experiment
/// annotation; must agree with `mmjoin_model::sort_merge::plan_for`.
pub fn plan_for(page_size: u64, rels: &Relations, spec: &JoinSpec, i: u32) -> Result<MergePlan> {
    let n = rs_objects(rels, i);
    if n == 0 {
        return Err(EnvError::InvalidConfig("empty RS_i has no plan".into()));
    }
    merge_plan(
        n,
        choose_irun(spec.m_rproc, rels.rel.r_size),
        choose_nrun_abl(spec.m_rproc, page_size),
        choose_nrun_last(spec.m_rproc, page_size),
    )
}

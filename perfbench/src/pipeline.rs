//! The library layers a schedule passes through, called from outside and
//! timed call by call. Each layer is one function here; the two batch
//! operations and the traced runs' probe are sequences of them, so no
//! layer call exists twice.

use std::collections::BTreeMap;
use std::time::Instant;

use sweep_core::trials::{best_of_trials_with_pool, BestOfTrials};
use sweep_core::{
    c1_interprocessor_edges, c2_comm_delay, dfds_priorities, level_priorities, lower_bounds,
    validate, Algorithm, Assignment,
};
use sweep_dag::{InduceStats, SweepInstance};
use sweep_mesh::{CellId, ImportFormat, Imported, MeshPreset, SweepMesh, TetMesh, Vec3};
use sweep_partition::{block_partition, edge_cut, CsrGraph, PartitionOptions};
use sweep_pool::ThreadPool;
use sweep_quadrature::QuadratureSet;
use sweep_sim::{async_makespan, simulate, AsyncReport, SimConfig, SimReport};

use crate::check;
use crate::rec::Rec;

/// Exact counts, summed over the first pass only.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn count(counts: &mut Option<&mut Counts>, name: &'static str, v: f64) {
    if let Some(c) = counts.as_deref_mut() {
        *c.entry(name).or_insert(0.0) += v;
    }
}

/// The fixed parameters of a batch operation.
pub struct Case {
    pub preset: MeshPreset,
    pub scale: f64,
    pub sn: usize,
    pub m: usize,
    pub b: usize,
    pub algorithm: Algorithm,
    /// Cells per block: blocks-dfds's partition, and the probe's on the
    /// workloads whose operations assign cells one by one.
    pub block: usize,
}

/// What one operation produced, for the checks and the exact sums.
pub struct OpOut {
    pub inst: Option<SweepInstance>,
    pub assignment: Assignment,
    pub best: BestOfTrials,
    pub c1: u64,
    pub c2: u64,
    pub paper_bound: u64,
    pub sim: Option<(SimReport, AsyncReport)>,
    pub blocks: Option<Vec<u32>>,
}

pub fn omegas(quad: &QuadratureSet) -> Vec<Vec3> {
    quad.iter().map(|(_, w)| w).collect()
}

// ---- the layers ------------------------------------------------------

pub fn build(rec: &mut Rec, preset: MeshPreset, scale: f64) -> Result<TetMesh, String> {
    rec.time("mesh.build", || preset.build_scaled(scale))
        .map_err(|e| format!("{}: {e}", preset.name()))
}

/// `import_bytes`, timed, with its throughput as a sample.
pub fn import(rec: &mut Rec, text: &str, format: ImportFormat) -> Result<Imported, String> {
    let (got, ms) = rec.time_ms("mesh.import", || {
        sweep_mesh::import_bytes(text.as_bytes(), format)
    });
    rec.sample(
        "mesh.import_mb_per_s",
        text.len() as f64 / 1e6 / (ms / 1e3).max(1e-9),
    );
    got.map_err(|e| e.to_string())
}

pub fn induce(
    rec: &mut Rec,
    mesh: &(impl SweepMesh + Sync),
    quad: &QuadratureSet,
    name: &str,
) -> (SweepInstance, Vec<InduceStats>) {
    rec.time("dag.induce", || SweepInstance::from_mesh(mesh, quad, name))
}

/// Raw induction and the geometric cycle repair on every direction;
/// checks them against the instance `inst` induced from the same mesh
/// and counts raw, dropped and cyclic.
pub fn break_cycles(
    rec: &mut Rec,
    mesh: &impl SweepMesh,
    quad: &QuadratureSet,
    inst: &SweepInstance,
    mut counts: Option<&mut Counts>,
) -> Result<(), String> {
    let omegas = omegas(quad);
    let n = mesh.num_cells();
    let heights: Vec<Vec<f64>> = omegas
        .iter()
        .map(|&w| {
            (0..n as u32)
                .map(|c| mesh.centroid(CellId(c)).dot(w))
                .collect()
        })
        .collect();
    let (raw, dropped) = rec.time("dag.break_cycles", || {
        let mut raw = Vec::with_capacity(omegas.len());
        let mut dropped = Vec::with_capacity(omegas.len());
        for (w, h) in omegas.iter().zip(&heights) {
            let edges = sweep_dag::induce_raw(mesh, *w);
            raw.push(edges.clone());
            dropped.push(sweep_dag::break_cycles(n, edges, h).1);
        }
        (raw, dropped)
    });
    let raw_n: Vec<usize> = raw.iter().map(Vec::len).collect();
    check::induction(mesh, &omegas, &raw_n, &dropped, inst)?;
    count(
        &mut counts,
        "dag.raw_edges",
        raw_n.iter().sum::<usize>() as f64,
    );
    count(
        &mut counts,
        "dag.dropped_edges",
        dropped.iter().sum::<usize>() as f64,
    );
    count(
        &mut counts,
        "dag.cyclic_directions",
        check::cyclic_directions(n, &raw) as f64,
    );
    Ok(())
}

pub fn cell_graph(mesh: &impl SweepMesh) -> CsrGraph {
    let (xadj, adjncy) = mesh.adjacency_csr();
    CsrGraph::from_csr_parts(xadj, adjncy)
}

fn partition(rec: &mut Rec, graph: &CsrGraph, block: usize, seed: u64) -> Vec<u32> {
    let opts = PartitionOptions {
        seed,
        ..PartitionOptions::default()
    };
    rec.time("partition.block", || block_partition(graph, block, &opts))
}

/// Best-of-b on `pool`, timed as `core.trials` or, at one worker,
/// `core.trials_1t` with its cost per scheduled task.
fn trials(
    rec: &mut Rec,
    pool: &ThreadPool,
    inst: &SweepInstance,
    a: &Assignment,
    case: &Case,
    seed: u64,
) -> BestOfTrials {
    if !pool.is_sequential() {
        return rec.time("core.trials", || {
            best_of_trials_with_pool(pool, inst, a, case.algorithm, case.b, seed)
        });
    }
    let (best, ms) = rec.time_ms("core.trials_1t", || {
        best_of_trials_with_pool(pool, inst, a, case.algorithm, case.b, seed)
    });
    rec.sample(
        "core.trial_ns_per_task",
        ms * 1e6 / (case.b * inst.num_tasks()) as f64,
    );
    best
}

/// `validate`, then C1 and C2.
fn costs(
    rec: &mut Rec,
    inst: &SweepInstance,
    a: &Assignment,
    best: &BestOfTrials,
) -> Result<(u64, u64), String> {
    rec.time("core.validate", || validate(inst, &best.schedule))
        .map_err(|e| format!("validate: {e}"))?;
    let c1 = rec.time("core.c1", || c1_interprocessor_edges(inst, a));
    let c2 = rec.time("core.c2", || c2_comm_delay(inst, &best.schedule));
    Ok((c1, c2))
}

/// The synchronous replay and the asynchronous sweep (latency 1, the
/// schedule's start times as priorities).
fn sims(
    rec: &mut Rec,
    inst: &SweepInstance,
    a: &Assignment,
    best: &BestOfTrials,
) -> (SimReport, AsyncReport) {
    let sync = rec.time("sim.sync", || {
        simulate(inst, &best.schedule, &SimConfig::default())
    });
    let asyn = rec.time("sim.async", || {
        let prio: Vec<i64> = best
            .schedule
            .starts()
            .iter()
            .map(|&t| i64::from(t))
            .collect();
        async_makespan(inst, a, &prio, None, 1.0)
    });
    (sync, asyn)
}

// ---- the operations --------------------------------------------------

/// kernel-rdp: induce → per-cell assignment → best-of-b → validate →
/// C1/C2/lower bounds.
pub fn kernel_op(
    case: &Case,
    mesh: &(impl SweepMesh + Sync),
    quad: &QuadratureSet,
    seed: u64,
    threads: usize,
    rec: &mut Rec,
) -> Result<OpOut, String> {
    let pool = ThreadPool::new(threads);
    sweep_pool::set_global_threads(threads);
    let (inst, _) = induce(rec, mesh, quad, case.preset.name());
    let a = rec.time("core.assign", || {
        Assignment::random_cells(inst.num_cells(), case.m, seed)
    });
    let best = trials(rec, &pool, &inst, &a, case, seed);
    let (c1, c2) = costs(rec, &inst, &a, &best)?;
    let lb = rec.time("core.lower_bounds", || lower_bounds(&inst, case.m));
    Ok(OpOut {
        inst: Some(inst),
        assignment: a,
        best,
        c1,
        c2,
        paper_bound: lb.paper(),
        sim: None,
        blocks: None,
    })
}

/// blocks-dfds: block partition → per-block assignment → best-of-b DFDS
/// with delays → validate → C1/C2 → synchronous and asynchronous sweep.
pub fn blocks_op(
    case: &Case,
    inst: &SweepInstance,
    graph: &CsrGraph,
    seed: u64,
    threads: usize,
    rec: &mut Rec,
) -> Result<OpOut, String> {
    let pool = ThreadPool::new(threads);
    sweep_pool::set_global_threads(threads);
    let blocks = partition(rec, graph, case.block, seed);
    let a = rec.time("core.assign", || {
        Assignment::random_blocks(&blocks, case.m, seed)
    });
    let best = trials(rec, &pool, inst, &a, case, seed);
    let (c1, c2) = costs(rec, inst, &a, &best)?;
    let sim = sims(rec, inst, &a, &best);
    let paper_bound = (inst.num_tasks().div_ceil(case.m))
        .max(inst.num_directions())
        .max(inst.max_depth()) as u64;
    Ok(OpOut {
        inst: None,
        assignment: a,
        best,
        c1,
        c2,
        paper_bound,
        sim: Some(sim),
        blocks: Some(blocks),
    })
}

/// The traced runs' probe: after an operation, the layers it did not
/// call, on its own mesh, instance and outputs. Cycle breaking, levels,
/// the priorities and the rematerialisation run belong to no operation;
/// after a kernel operation the probe adds blocks-dfds's partition and
/// sweeps, after a blocks operation kernel-rdp's induction and bounds.
/// The winning trial's seed seeds the probe's own calls. Every result is
/// checked.
pub fn probe(
    case: &Case,
    mesh: &(impl SweepMesh + Sync),
    quad: &QuadratureSet,
    inst: &SweepInstance,
    out: &OpOut,
    rec: &mut Rec,
    mut counts: Option<&mut Counts>,
) -> Result<(), String> {
    let (a, best) = (&out.assignment, &out.best);
    let seed = best.seed;
    break_cycles(rec, mesh, quad, inst, counts.as_deref_mut())?;
    rec.time("dag.levels", || inst.all_levels());
    let t = Instant::now();
    let dfds = rec.time("core.dfds_priorities", || dfds_priorities(inst, a));
    let level = level_priorities(inst);
    rec.push("core.priorities", t, Instant::now());
    std::hint::black_box((dfds, level));
    rec.time("core.dfds_trial", || {
        Algorithm::Dfds { delays: true }.run(inst, a.clone(), seed)
    });
    let again = rec.time("core.list_schedule", || {
        case.algorithm.run(inst, a.clone(), best.seed)
    });
    if again.starts() != best.schedule.starts() {
        return Err("rerunning the winning seed gives another schedule".to_string());
    }
    if out.blocks.is_none() {
        let graph = cell_graph(mesh);
        let blocks = partition(rec, &graph, case.block, seed);
        count(
            &mut counts,
            "partition.cut_edges",
            edge_cut(&graph, &blocks) as f64,
        );
        let (sync, asyn) = sims(rec, inst, a, best);
        check_sim(&sync, &asyn, out.c1, best.schedule.makespan())?;
        count(&mut counts, "sim.async_makespan", asyn.makespan);
        count(&mut counts, "sim.messages", asyn.messages as f64);
    } else {
        let (again, _) = induce(rec, mesh, quad, case.preset.name());
        if again.total_edges() != inst.total_edges() {
            return Err("induction differs from the set-up's".to_string());
        }
        let lb = rec.time("core.lower_bounds", || lower_bounds(inst, case.m));
        if lb.paper() != out.paper_bound {
            return Err("lower_bounds disagrees with the own paper bound".to_string());
        }
    }
    Ok(())
}

/// The simulators must agree with the schedule they replay: one message
/// per cut edge, and the synchronous replay takes the schedule's steps.
pub fn check_sim(
    sync: &SimReport,
    asyn: &AsyncReport,
    c1: u64,
    makespan: u32,
) -> Result<(), String> {
    if sync.compute_steps != u64::from(makespan) || sync.total_messages != c1 || asyn.messages != c1
    {
        return Err(format!(
            "simulation disagrees: {} steps / {} and {} messages for makespan {makespan}, C1 {c1}",
            sync.compute_steps, sync.total_messages, asyn.messages
        ));
    }
    if !(asyn.makespan.is_finite() && asyn.makespan > 0.0) {
        return Err("asynchronous makespan is not positive".to_string());
    }
    Ok(())
}

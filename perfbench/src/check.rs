//! Output checks written against the paper's definitions, not against the
//! program's own `validate`, `lower_bounds`, C1 or C2 code. Every check
//! runs outside the timed regions; any mismatch is an error.

use sweep_core::{Assignment, Schedule};
use sweep_dag::{SweepInstance, TaskDag};
use sweep_mesh::{SweepMesh, Vec3};

/// The costs the checker recounted for one schedule.
pub struct Recount {
    pub c1: u64,
    pub c2: u64,
}

/// Own Kahn pass: the longest path in nodes, or `None` on a cycle.
pub fn kahn_depth(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> Option<usize> {
    let mut indeg = vec![0u32; n];
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, v) in edges {
        indeg[v as usize] += 1;
        succ[u as usize].push(v);
    }
    let mut depth = vec![1usize; n];
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut seen = 0usize;
    while let Some(u) = queue.pop() {
        seen += 1;
        for &v in &succ[u as usize] {
            depth[v as usize] = depth[v as usize].max(depth[u as usize] + 1);
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                queue.push(v);
            }
        }
    }
    (seen == n).then(|| depth.into_iter().max().unwrap_or(0))
}

fn dag_depth(dag: &TaskDag) -> Result<usize, String> {
    kahn_depth(dag.num_nodes(), dag.edges()).ok_or_else(|| "induced DAG has a cycle".to_string())
}

/// Checks one schedule of `inst` under `assignment` on `m` processors and
/// recounts its makespan, C1 and C2.
pub fn schedule(
    inst: &SweepInstance,
    assignment: &Assignment,
    sched: &Schedule,
    m: usize,
) -> Result<Recount, String> {
    let n = inst.num_cells();
    let k = inst.num_directions();
    let starts = sched.starts();
    if starts.len() != n * k {
        return Err(format!("{} start times for {} tasks", starts.len(), n * k));
    }
    // All copies of a cell run on the processor the assignment gave it.
    for v in 0..n as u32 {
        if sched.proc_of_cell(v) != assignment.proc_of(v) || assignment.proc_of(v) as usize >= m {
            return Err(format!("cell {v} is not on its assigned processor"));
        }
    }
    let start = |v: u32, i: usize| starts[i * n + v as usize];
    // Precedence on every edge, and acyclicity by an own Kahn pass.
    let mut depth = 0usize;
    let mut c1 = 0u64;
    for (i, dag) in inst.dags().iter().enumerate() {
        depth = depth.max(dag_depth(dag)?);
        for (u, v) in dag.edges() {
            if start(u, i) >= start(v, i) {
                return Err(format!("direction {i}: edge {u}->{v} runs out of order"));
            }
            if assignment.proc_of(u) != assignment.proc_of(v) {
                c1 += 1;
            }
        }
    }
    // At most one task per processor per step.
    let mut slots: Vec<u64> = (0..n * k)
        .map(|t| (u64::from(assignment.proc_of((t % n) as u32)) << 32) | u64::from(starts[t]))
        .collect();
    slots.sort_unstable();
    if slots.windows(2).any(|w| w[0] == w[1]) {
        return Err("two tasks share a processor step".to_string());
    }
    let makespan = starts.iter().map(|&s| s + 1).max().unwrap_or(0);
    if makespan != sched.makespan() {
        return Err(format!(
            "makespan {} but tasks end at {makespan}",
            sched.makespan()
        ));
    }
    let bound = ((n * k).div_ceil(m)).max(k).max(depth) as u32;
    if makespan < bound {
        return Err(format!("makespan {makespan} below the lower bound {bound}"));
    }
    // C2: per step, the largest number of cut-edge messages one processor
    // sends after it; messages leave when their source task runs.
    let mut sends: Vec<(u32, u32)> = Vec::new();
    for (i, dag) in inst.dags().iter().enumerate() {
        for (u, v) in dag.edges() {
            let (pu, pv) = (assignment.proc_of(u), assignment.proc_of(v));
            if pu != pv {
                sends.push((start(u, i), pu));
            }
        }
    }
    sends.sort_unstable();
    let mut c2 = 0u64;
    let mut per_step = std::collections::HashMap::new();
    let mut step = None;
    for (t, p) in sends {
        if step != Some(t) {
            c2 += per_step.values().copied().max().unwrap_or(0);
            per_step.clear();
            step = Some(t);
        }
        *per_step.entry(p).or_insert(0u64) += 1;
    }
    c2 += per_step.values().copied().max().unwrap_or(0);
    Ok(Recount { c1, c2 })
}

/// Checks the program's C1, C2 and paper bound against the recount.
pub fn costs(
    inst: &SweepInstance,
    m: usize,
    rc: &Recount,
    c1: u64,
    c2: u64,
    paper_bound: u64,
) -> Result<(), String> {
    if rc.c1 != c1 || rc.c2 != c2 {
        return Err(format!(
            "C1/C2 {c1}/{c2} from the program, {}/{} recounted",
            rc.c1, rc.c2
        ));
    }
    let mut depth = 0;
    for dag in inst.dags() {
        depth = depth.max(dag_depth(dag)?);
    }
    let own = (inst.num_tasks().div_ceil(m))
        .max(inst.num_directions())
        .max(depth) as u64;
    if own != paper_bound {
        return Err(format!(
            "paper bound {paper_bound} from the program, {own} recounted"
        ));
    }
    Ok(())
}

/// Per direction: the interior faces with a nonzero `n·ω` must equal the
/// raw induced edge count, and the DAG must keep exactly the raw edges
/// minus the ones cycle breaking dropped.
pub fn induction(
    mesh: &impl SweepMesh,
    omegas: &[Vec3],
    raw: &[usize],
    dropped: &[usize],
    inst: &SweepInstance,
) -> Result<(), String> {
    for (i, &omega) in omegas.iter().enumerate() {
        let faces = mesh
            .interior_faces()
            .iter()
            .filter(|f| f.normal.dot(omega).abs() > 1e-12)
            .count();
        if faces != raw[i] {
            return Err(format!(
                "direction {i}: {faces} crossing faces, {} raw edges",
                raw[i]
            ));
        }
        let dag = inst.dag(i);
        if dag.num_edges() + dropped[i] != raw[i] {
            return Err(format!(
                "direction {i}: {} kept + {} dropped != {} raw",
                dag.num_edges(),
                dropped[i],
                raw[i]
            ));
        }
        dag_depth(dag)?;
    }
    Ok(())
}

/// Directions whose raw edge list has a directed cycle (own Kahn pass).
pub fn cyclic_directions(n: usize, raw: &[Vec<(u32, u32)>]) -> usize {
    raw.iter()
        .filter(|e| kahn_depth(n, e.iter().copied()).is_none())
        .count()
}

/// A schedule response body as `key -> raw value` pairs.
pub fn body_fields(body: &str) -> Vec<(String, String)> {
    body.lines()
        .filter_map(|l| {
            let (k, v) = l.trim().split_once(':')?;
            Some((
                k.trim().trim_matches('"').to_string(),
                v.trim().trim_end_matches(',').trim_matches('"').to_string(),
            ))
        })
        .collect()
}

pub fn field<'a>(fields: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("response has no '{key}'"))
}

pub fn field_u64(fields: &[(String, String)], key: &str) -> Result<u64, String> {
    field(fields, key)?
        .parse()
        .map_err(|_| format!("'{key}' is not an integer"))
}

/// The body without its cache flags: a hit must equal the miss it repeats.
pub fn strip_cache_flags(body: &str) -> String {
    body.lines()
        .filter(|l| {
            let t = l.trim_start();
            !t.starts_with("\"cache\"") && !t.starts_with("\"instance_cache\"")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Sanity of one successful schedule response.
pub fn response(fields: &[(String, String)]) -> Result<(), String> {
    let cells = field_u64(fields, "cells")?;
    let dirs = field_u64(fields, "directions")?;
    let tasks = field_u64(fields, "tasks")?;
    let m = field_u64(fields, "m")?;
    let makespan = field_u64(fields, "makespan")?;
    let lb = field_u64(fields, "lower_bound")?;
    if tasks != cells * dirs {
        return Err(format!(
            "{tasks} tasks for {cells} cells x {dirs} directions"
        ));
    }
    let own = tasks.div_ceil(m.max(1)).max(dirs);
    if lb < own || makespan < lb {
        return Err(format!("makespan {makespan}, bound {lb}, own bound {own}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_core::{c1_interprocessor_edges, c2_comm_delay, lower_bounds, Algorithm};

    fn solved() -> (SweepInstance, Assignment, Schedule) {
        let inst = SweepInstance::random_layered(60, 4, 6, 2, 7);
        let a = Assignment::random_cells(60, 4, 3);
        let s = Algorithm::RandomDelayPriorities.run(&inst, a.clone(), 11);
        (inst, a, s)
    }

    #[test]
    fn recount_matches_the_program_on_a_feasible_schedule() {
        let (inst, a, s) = solved();
        let rc = schedule(&inst, &a, &s, 4).expect("feasible");
        let lb = lower_bounds(&inst, 4);
        costs(
            &inst,
            4,
            &rc,
            c1_interprocessor_edges(&inst, &a),
            c2_comm_delay(&inst, &s),
            lb.paper(),
        )
        .expect("same costs");
    }

    #[test]
    fn out_of_order_edge_is_caught() {
        let (inst, a, s) = solved();
        let n = inst.num_cells();
        let (u, v) = inst.dag(0).edges().next().expect("an edge");
        let mut starts = s.starts().to_vec();
        starts.swap(u as usize, v as usize);
        starts[v as usize] = starts[u as usize];
        let bad = Schedule::new(starts, a.clone()).expect("shape");
        assert!(schedule(&inst, &a, &bad, 4).is_err());
        assert_eq!(bad.starts().len(), n * inst.num_directions());
    }

    #[test]
    fn shared_processor_step_is_caught() {
        let inst = SweepInstance::identical_chains(1, 2);
        let a = Assignment::single(1);
        // Both directions of the single cell at step 0 on processor 0.
        let bad = Schedule::new(vec![0, 0], a.clone()).expect("shape");
        let err = schedule(&inst, &a, &bad, 1).err().expect("caught");
        assert!(err.contains("share"), "{err}");
    }

    #[test]
    fn wrong_costs_are_caught() {
        let (inst, a, s) = solved();
        let rc = schedule(&inst, &a, &s, 4).expect("feasible");
        let lb = lower_bounds(&inst, 4).paper();
        assert!(costs(&inst, 4, &rc, rc.c1 + 1, rc.c2, lb).is_err());
        assert!(costs(&inst, 4, &rc, rc.c1, rc.c2, lb + 1).is_err());
    }

    #[test]
    fn kahn_finds_cycles() {
        assert_eq!(kahn_depth(3, [(0, 1), (1, 2)].into_iter()), Some(3));
        assert_eq!(kahn_depth(2, [(0, 1), (1, 0)].into_iter()), None);
    }

    #[test]
    fn hit_body_compares_without_cache_flags() {
        let miss = "{\n  \"makespan\": 9,\n  \"cache\": \"miss\",\n  \"instance_cache\": \"miss\",\n  \"digest\": \"ab\"\n}\n";
        let hit = miss.replace("\"miss\"", "\"hit\"");
        assert_eq!(strip_cache_flags(miss), strip_cache_flags(&hit));
        assert_eq!(field_u64(&body_fields(miss), "makespan"), Ok(9));
    }
}

//! The sweep-scheduling pipeline benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kernel-rdp --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! All four flags are required; `--smoke` stands alone.
//!
//! Workloads: `kernel-rdp`, `blocks-dfds`, `serve-mixed` (see README.md).
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Everything else
//! goes to standard error. Any failed output check exits with code 1.

mod check;
mod gen;
mod pipeline;
mod rec;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use sweep_core::Algorithm;
use sweep_dag::SweepInstance;
use sweep_mesh::{ImportFormat, MeshPreset, SweepMesh, TetMesh};
use sweep_partition::CsrGraph;
use sweep_quadrature::QuadratureSet;
use sweep_serve::{ScheduleRequest, ServiceConfig, SweepService};

use crate::gen::Rng;
use crate::pipeline::{Case, Counts, OpOut};
use crate::rec::{median, ms_since, quantile, Metrics, Rec};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Pool width of the end-to-end figures.
pub const WIDTH: usize = 2;
const WORKLOADS: [&str; 3] = ["kernel-rdp", "blocks-dfds", "serve-mixed"];
/// Least share of a traced operation its layer spans must cover.
const COVERAGE: f64 = 0.9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Tiny inputs and no timed loop beyond one pass.
    smoke: bool,
}

/// `--smoke` alone, or all of `--workload`, `--seed`, `--seconds` and
/// `--trace`.
fn parse_args() -> Result<Vec<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--smoke") {
        if argv.len() > 1 {
            return Err("--smoke takes no other flags".to_string());
        }
        return Ok(WORKLOADS
            .iter()
            .flat_map(|w| {
                [false, true].map(|trace| Args {
                    workload: w.to_string(),
                    seed: 1,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                })
            })
            .collect());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(bad()),
        }
    }
    let need = |flag: &str| format!("{flag} is required (or --smoke alone)");
    Ok(vec![Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds: seconds.ok_or_else(|| need("--seconds"))?,
        trace: trace.ok_or_else(|| need("--trace"))?,
        smoke: false,
    }])
}

/// What one run reports.
struct Outcome {
    e2e: Metrics,
    layers: Metrics,
    attempted: u64,
    failed: u64,
}

fn main() -> ExitCode {
    let runs = match parse_args() {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for run in runs {
        let started = Instant::now();
        match run_workload(&run) {
            Ok(out) => {
                let m = if run.trace { &out.layers } else { &out.e2e };
                eprintln!(
                    "perfbench: {} trace {} done in {:.1} s",
                    run.workload,
                    u8::from(run.trace),
                    started.elapsed().as_secs_f64()
                );
                println!("{}", m.result_line(true, out.attempted, out.failed));
            }
            Err(e) => {
                eprintln!("perfbench: {} failed a check: {e}", run.workload);
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    sweep_telemetry::set_enabled(args.trace);
    let out = match args.workload.as_str() {
        "kernel-rdp" => run_batch(args, false),
        "blocks-dfds" => run_batch(args, true),
        _ => run_serve(args),
    };
    sweep_telemetry::set_enabled(false);
    sweep_telemetry::reset();
    out
}

/// Runs `f` [`SETUPS`] times; returns the last result and the median
/// seconds.
fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let v = f()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    let v = last.ok_or("no set-up ran")?;
    Ok((v, median(&secs)))
}

fn batch_case(blocks: bool, smoke: bool) -> Case {
    match (blocks, smoke) {
        (false, false) => Case {
            preset: MeshPreset::Tetonly,
            scale: 0.2,
            sn: 4,
            m: 64,
            b: 8,
            algorithm: Algorithm::RandomDelayPriorities,
            block: 16,
        },
        (false, true) => Case {
            preset: MeshPreset::Tetonly,
            scale: 0.01,
            sn: 2,
            m: 8,
            b: 2,
            algorithm: Algorithm::RandomDelayPriorities,
            block: 8,
        },
        (true, false) => Case {
            preset: MeshPreset::Long,
            scale: 0.05,
            sn: 4,
            m: 16,
            b: 8,
            algorithm: Algorithm::Dfds { delays: true },
            block: 16,
        },
        (true, true) => Case {
            preset: MeshPreset::Long,
            scale: 0.005,
            sn: 2,
            m: 8,
            b: 2,
            algorithm: Algorithm::Dfds { delays: true },
            block: 8,
        },
    }
}

/// Operation inputs per pass, each with its own seed drawn from `--seed`.
/// The exact sums run over one pass, so more inputs narrow their spread
/// from seed to seed.
const PASS: usize = 16;

struct BatchSetup {
    mesh: TetMesh,
    quad: QuadratureSet,
    /// blocks-dfds: the instance and cell graph, built during set-up.
    induced: Option<(SweepInstance, Vec<sweep_dag::InduceStats>, CsrGraph)>,
    seeds: Vec<u64>,
}

fn batch_setup(case: &Case, blocks: bool, seed: u64, rec: &mut Rec) -> Result<BatchSetup, String> {
    let mesh = pipeline::build(rec, case.preset, case.scale)?;
    let quad = QuadratureSet::level_symmetric(case.sn).map_err(|e| e.to_string())?;
    let induced = if blocks {
        let (inst, stats) = SweepInstance::from_mesh(&mesh, &quad, case.preset.name());
        Some((inst, stats, pipeline::cell_graph(&mesh)))
    } else {
        None
    };
    let mut rng = Rng::new(seed);
    let seeds = (0..PASS).map(|_| rng.below(1 << 40)).collect();
    Ok(BatchSetup {
        mesh,
        quad,
        induced,
        seeds,
    })
}

/// What a traced run gathers besides its spans.
#[derive(Default)]
struct Traced {
    /// Exact counts of the benchmark's own, over the first pass.
    counts: Counts,
    /// Totals of the program's own counters over the span-recording
    /// operations, and how many there were.
    program: BTreeMap<String, f64>,
    program_ops: u64,
    /// Operation times at full width with the program's tracing on
    /// (`[1]`) and off (`[0]`), from back-to-back pairs.
    tracing: [Vec<f64>; 2],
}

impl Traced {
    /// Adds the collector's counters and clears it.
    fn take_program(&mut self, ops: u64) {
        for (k, v) in rec::program_counters() {
            *self.program.entry(k).or_insert(0.0) += v;
        }
        self.program_ops += ops;
        sweep_telemetry::reset();
    }

    fn program_per_op(&self, name: &str) -> f64 {
        self.program.get(name).copied().unwrap_or(0.0) / self.program_ops.max(1) as f64
    }

    /// Adds the scratch arenas' grow events since the collector was last
    /// cleared. Read after one-worker operations only: at two workers the
    /// count depends on whether both workers got a trial.
    fn scratch_grows(&mut self) {
        let grows = sweep_telemetry::counter_value("sched.scratch.grows");
        *self.counts.entry("core.scratch_grows").or_insert(0.0) += grows as f64;
    }

    /// The order of a round's tracing-on/off pair, alternating so that
    /// neither side always runs first.
    fn pair_order(round: usize) -> [bool; 2] {
        if round.is_multiple_of(2) {
            [true, false]
        } else {
            [false, true]
        }
    }
}

/// A later run of an input must repeat its first run exactly.
fn same_as_first(first: &OpOut, out: &OpOut, what: &str) -> Result<(), String> {
    if out.best.schedule.starts() != first.best.schedule.starts()
        || out.c1 != first.c1
        || out.c2 != first.c2
    {
        return Err(format!("{what} is not bit-identical to its first run"));
    }
    Ok(())
}

fn run_batch(args: &Args, blocks: bool) -> Result<Outcome, String> {
    let case = batch_case(blocks, args.smoke);
    let mut rec = Rec::new(args.trace);
    let (setup, setup_s) = timed_setup(|| batch_setup(&case, blocks, args.seed, &mut rec))?;
    let BatchSetup {
        mesh,
        quad,
        induced,
        seeds,
    } = setup;
    let msh = args
        .trace
        .then(|| gen::msh_v4(mesh.vertices(), mesh.cells()));
    let op = |i: usize, threads: usize, rec: &mut Rec| -> Result<OpOut, String> {
        match &induced {
            None => pipeline::kernel_op(&case, &mesh, &quad, seeds[i], threads, rec),
            Some((inst, _, graph)) => {
                pipeline::blocks_op(&case, inst, graph, seeds[i], threads, rec)
            }
        }
    };

    // Warm-up: one operation at each width, untimed.
    for threads in [WIDTH, 1] {
        op(0, threads, &mut Rec::new(false))?;
    }
    sweep_telemetry::reset();

    let mut times: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    // The first pass's outputs, checked after the loop; kernel-rdp keeps
    // the instance of its first operation only (induction is deterministic).
    let mut first: Vec<OpOut> = Vec::new();
    let mut kept_inst: Option<SweepInstance> = None;
    let mut traced = Traced::default();
    let loop_start = Instant::now();
    let mut round = 0usize;
    loop {
        let i = round % PASS;
        let first_pass = round < PASS;
        // Every round runs its input at the full width; every other one
        // also at one worker, alternating inputs from pass to pass.
        let widths: &[usize] = if (round + round / PASS) % 2 == 1 {
            &[WIDTH, 1]
        } else {
            &[WIDTH]
        };
        for &threads in widths {
            rec.begin_op();
            let t = Instant::now();
            let mut out = op(i, threads, &mut rec)?;
            let end = Instant::now();
            times
                .entry(threads)
                .or_default()
                .push((end - t).as_secs_f64() * 1e3);
            if rec.traced() {
                rec.push("op", t, end);
                if first_pass && threads == 1 {
                    traced.scratch_grows();
                }
                if threads == WIDTH {
                    traced.take_program(1);
                    // The layers the operation does not reach, on its inputs.
                    rec.begin_op();
                    let inst = out
                        .inst
                        .as_ref()
                        .or(induced.as_ref().map(|x| &x.0))
                        .ok_or("no instance")?;
                    let mut counts = first_pass.then_some(&mut traced.counts);
                    pipeline::probe(
                        &case,
                        &mesh,
                        &quad,
                        inst,
                        &out,
                        &mut rec,
                        counts.as_deref_mut(),
                    )?;
                    let text = msh.as_deref().ok_or("no .msh text")?;
                    let got = pipeline::import(&mut rec, text, ImportFormat::Msh)?;
                    if got.mesh.num_cells() != mesh.num_cells() {
                        return Err("the written .msh imports to another cell count".to_string());
                    }
                    serve_probe(&case, seeds[i], &mut rec, counts)?;
                }
                sweep_telemetry::reset();
            }
            if first_pass && threads == WIDTH {
                match (&kept_inst, out.inst.take()) {
                    (None, Some(inst)) => kept_inst = Some(inst),
                    (Some(kept), Some(inst)) if kept.total_edges() != inst.total_edges() => {
                        return Err("induction differs between operations".to_string())
                    }
                    _ => {}
                }
                first.push(out);
            } else {
                same_as_first(
                    &first[i],
                    &out,
                    &format!("input {i} at {threads} worker(s)"),
                )?;
            }
        }
        if rec.traced() {
            // The same operation with the program's tracing on and off,
            // back to back with nothing in between: the tracing overhead.
            for on in Traced::pair_order(round) {
                sweep_telemetry::set_enabled(on);
                let t = Instant::now();
                let out = op(i, WIDTH, &mut Rec::new(false))?;
                traced.tracing[usize::from(on)].push(ms_since(t));
                same_as_first(&first[i], &out, &format!("input {i} with tracing {on}"))?;
            }
            sweep_telemetry::set_enabled(true);
            sweep_telemetry::reset();
        }
        round += 1;
        if round >= PASS && loop_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Peak memory before the checks, which allocate on their own.
    let peak_rss = rec::peak_rss_mb();
    let inst = match (&induced, &kept_inst) {
        (Some((inst, _, _)), _) | (None, Some(inst)) => inst,
        (None, None) => return Err("no instance to check".to_string()),
    };
    let mut sums = [0u64; 3];
    for out in &first {
        check_batch_op(
            &case,
            inst,
            out,
            &mut traced.counts,
            induced.as_ref().map(|x| &x.2),
        )?;
        sums[0] += u64::from(out.best.schedule.makespan());
        sums[1] += out.c1;
        sums[2] += out.c2;
    }
    // The induction itself, against the mesh's faces.
    let stats = match &induced {
        Some((_, stats, _)) => stats.clone(),
        None => SweepInstance::from_mesh(&mesh, &quad, "check").1,
    };
    let raw: Vec<usize> = stats.iter().map(|s| s.raw_edges).collect();
    let dropped: Vec<usize> = stats.iter().map(|s| s.dropped_edges).collect();
    check::induction(&mesh, &pipeline::omegas(&quad), &raw, &dropped, inst)?;

    let wide = &times[&WIDTH];
    let mut e2e = Metrics::default();
    e2e.add("setup_s", setup_s, "s");
    e2e.add("op_p50_ms", median(wide), "ms");
    e2e.add("op_p90_ms", quantile(wide, 0.9), "ms");
    e2e.add(
        "ops_per_s",
        wide.len() as f64 / (wide.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    e2e.add("op_1t_ms", median(&times[&1]), "ms");
    e2e.add("makespan", sums[0] as f64, "steps");
    e2e.add("c1_edges", sums[1] as f64, "count");
    e2e.add("c2_delay", sums[2] as f64, "count");
    e2e.add("peak_rss_mb", peak_rss, "MiB");
    let attempted = (times.values().map(Vec::len).sum::<usize>()
        + traced.tracing.iter().map(Vec::len).sum::<usize>()) as u64;
    let layers = if args.trace {
        finish_trace(args, &rec, &traced)?
    } else {
        Metrics::default()
    };
    Ok(Outcome {
        e2e,
        layers,
        attempted,
        failed: 0,
    })
}

/// The first-pass checks of one batch operation.
fn check_batch_op(
    case: &Case,
    inst: &SweepInstance,
    out: &OpOut,
    counts: &mut Counts,
    graph: Option<&CsrGraph>,
) -> Result<(), String> {
    let rc = check::schedule(inst, &out.assignment, &out.best.schedule, case.m)?;
    check::costs(inst, case.m, &rc, out.c1, out.c2, out.paper_bound)?;
    if let (Some(blocks), Some(graph)) = (&out.blocks, graph) {
        // Every block sits whole on one processor.
        let mut proc_of_block: BTreeMap<u32, u32> = BTreeMap::new();
        for (v, &blk) in blocks.iter().enumerate() {
            let p = out.assignment.proc_of(v as u32);
            if *proc_of_block.entry(blk).or_insert(p) != p {
                return Err(format!("block {blk} is split across processors"));
            }
        }
        *counts.entry("partition.cut_edges").or_insert(0.0) +=
            sweep_partition::edge_cut(graph, blocks) as f64;
    }
    if let Some((sync, asyn)) = &out.sim {
        pipeline::check_sim(sync, asyn, out.c1, out.best.schedule.makespan())?;
        *counts.entry("sim.async_makespan").or_insert(0.0) += asyn.makespan;
        *counts.entry("sim.messages").or_insert(0.0) += asyn.messages as f64;
    }
    Ok(())
}

/// The serve layer on a batch workload's own request: a cold miss and
/// the hit that repeats it, on a fresh service. The tier counts are read
/// from the two response bodies.
fn serve_probe(
    case: &Case,
    seed: u64,
    rec: &mut Rec,
    counts: Option<&mut Counts>,
) -> Result<(), String> {
    sweep_pool::set_global_threads(WIDTH);
    let (alg, delays) = match case.algorithm {
        Algorithm::Dfds { delays } => ("dfds", delays),
        _ => ("rdp", false),
    };
    let body = format!(
        "{{\"preset\": \"{}\", \"scale\": {:?}, \"sn\": {}, \"m\": {}, \"algorithm\": \"{alg}\", \"delays\": {delays}, \"seed\": {seed}, \"b\": {}}}",
        case.preset.name(),
        case.scale,
        case.sn,
        case.m,
        case.b
    );
    let raw = gen::http_post("/v1/schedule", &body);
    rec.time("serve.json_parse", || ScheduleRequest::from_json(&body))
        .map_err(|e| format!("serve probe: {e:?}"))?;
    let svc = SweepService::new(ServiceConfig::default());
    let miss = serve::serve_one(&svc, &raw, rec, 1, true)?;
    let hit = serve::serve_one(&svc, &raw, rec, 2, true)?;
    let mut sums = serve::Sums::default();
    let mut hits = Vec::new();
    for s in [&miss, &hit] {
        if s.status != 200 {
            return Err(format!("serve probe: status {}", s.status));
        }
        let f = check::body_fields(&s.body);
        check::response(&f)?;
        hits.push(sums.add(&f)?);
    }
    if hits != [false, true]
        || check::strip_cache_flags(&miss.body) != check::strip_cache_flags(&hit.body)
    {
        return Err("serve probe: the repeat is not an identical hit".to_string());
    }
    if let Some(c) = counts {
        *c.entry("serve.tier1_hits").or_insert(0.0) += sums.tier1_hits as f64;
        *c.entry("serve.tier2_hits").or_insert(0.0) += sums.tier2_hits as f64;
        *c.entry("serve.tier2_misses").or_insert(0.0) += sums.tier2_misses as f64;
    }
    Ok(())
}

fn run_serve(args: &Args) -> Result<Outcome, String> {
    let sizes = if args.smoke {
        serve::Sizes::smoke()
    } else {
        serve::Sizes::full()
    };
    serve::quiet_panics();
    let (stream, setup_s) = timed_setup(|| serve::build_stream(args.seed, &sizes))?;
    serve::check_uploads(&stream)?;

    // Warm-up pass, untimed: it also fixes the reference bodies.
    let warm = serve::run_pass(&stream, &sizes, WIDTH, &mut Rec::new(false), false)?;
    let sums = serve::check_pass(&stream, &warm)?;
    sweep_telemetry::reset();

    let mut rec = Rec::new(args.trace);
    let mut traced = Traced::default();
    let mut times: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut wall: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    let (mut attempted, mut failed, mut passes) = (0u64, 0u64, 0u64);
    let mut peak_rss = 0.0;
    // Every pass at either width, traced or not, must answer as the
    // warm-up did; returns the times of its successful requests.
    let mut replay = |pass: &serve::Pass, what: &str| -> Result<Vec<f64>, String> {
        if pass.evictions != warm.evictions {
            return Err("cache evictions differ between passes".to_string());
        }
        passes += 1;
        let mut ok = Vec::with_capacity(pass.served.len());
        for (i, s) in pass.served.iter().enumerate() {
            attempted += 1;
            if serve::failed(&stream, i, s)? {
                failed += 1;
            } else {
                ok.push(s.ms);
            }
            // A scrape reports live counters; every other body repeats.
            if stream.items[i].kind != serve::Kind::Metrics && s.body != warm.served[i].body {
                return Err(format!("request {i} {what} answered differently"));
            }
        }
        Ok(ok)
    };
    let loop_start = Instant::now();
    let mut round = 0usize;
    loop {
        for threads in [WIDTH, 1] {
            let t = Instant::now();
            let pass = serve::run_pass(&stream, &sizes, threads, &mut rec, args.trace)?;
            let pass_ms = ms_since(t);
            let w = wall.entry(threads).or_insert((0.0, 0));
            w.0 += pass_ms;
            w.1 += pass.served.len();
            let ok = replay(&pass, &format!("at {threads} worker(s)"))?;
            times.entry(threads).or_default().extend(ok);
            if rec.traced() {
                if round == 0 && threads == 1 {
                    traced.scratch_grows();
                }
                traced.take_program(pass.served.len() as u64);
                if threads == WIDTH {
                    let counts = (round == 0).then_some(&mut traced.counts);
                    serve::probe_stream(&stream, &sizes, &mut rec, counts)?;
                }
                sweep_telemetry::reset();
            }
        }
        if rec.traced() {
            // Two passes back to back, request tracing and the collector
            // on in one and off in the other: the tracing overhead.
            for on in Traced::pair_order(round) {
                sweep_telemetry::set_enabled(on);
                let pass = serve::run_pass(&stream, &sizes, WIDTH, &mut Rec::new(false), on)?;
                let ok = replay(&pass, &format!("with tracing {on}"))?;
                traced.tracing[usize::from(on)].extend(ok);
            }
            sweep_telemetry::set_enabled(true);
            sweep_telemetry::reset();
        }
        if round == 0 {
            // After a fixed amount of work, so the figure does not grow
            // with the number of passes a run happens to fit.
            peak_rss = rec::peak_rss_mb();
        }
        round += 1;
        if loop_start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let wide = &times[&WIDTH];
    let (wide_ms, wide_n) = wall[&WIDTH];
    let mut e2e = Metrics::default();
    e2e.add("setup_s", setup_s, "s");
    e2e.add("op_p50_ms", median(wide), "ms");
    e2e.add("op_p90_ms", quantile(wide, 0.9), "ms");
    e2e.add("ops_per_s", wide_n as f64 / (wide_ms / 1e3), "1/s");
    e2e.add("op_1t_ms", median(&times[&1]), "ms");
    e2e.add("makespan", sums.makespan as f64, "steps");
    e2e.add("c1_edges", sums.c1 as f64, "count");
    e2e.add("c2_delay", sums.c2 as f64, "count");
    e2e.add("peak_rss_mb", peak_rss, "MiB");
    let layers = if args.trace {
        let c = &mut traced.counts;
        c.insert("serve.tier1_hits", sums.tier1_hits as f64);
        c.insert("serve.tier2_hits", sums.tier2_hits as f64);
        c.insert("serve.tier2_misses", sums.tier2_misses as f64);
        c.insert("serve.evictions", warm.evictions as f64);
        c.insert("serve.overflow_failures", failed as f64 / passes as f64);
        finish_trace(args, &rec, &traced)?
    } else {
        Metrics::default()
    };
    Ok(Outcome {
        e2e,
        layers,
        attempted,
        failed,
    })
}

/// Checks span coverage, writes the span file and derives the per-layer
/// metrics of a traced run.
fn finish_trace(args: &Args, rec: &Rec, traced: &Traced) -> Result<Metrics, String> {
    let lowest = rec.coverage(COVERAGE)?;
    let mut file_counters = traced.program.clone();
    for (k, v) in &traced.counts {
        file_counters.insert(k.to_string(), *v);
    }
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("perfbench-spans")))
        .ok_or("no directory for the span file")?;
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    std::fs::write(
        &path,
        rec.span_json(&args.workload, args.seed, &file_counters),
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "perfbench: {} spans to {} (lowest coverage {:.1}%)",
        rec.spans.len(),
        path.display(),
        100.0 * lowest
    );

    let ms = |name: &str| rec.median_of(name);
    let c = |name: &str| traced.counts.get(name).copied().unwrap_or(0.0);
    let mut m = Metrics::default();
    m.add("mesh.build_ms", ms("mesh.build"), "ms");
    m.add("mesh.import_ms", ms("mesh.import"), "ms");
    m.add("mesh.import_mb_per_s", ms("mesh.import_mb_per_s"), "MB/s");
    m.add("dag.induce_ms", ms("dag.induce"), "ms");
    m.add("dag.break_cycles_ms", ms("dag.break_cycles"), "ms");
    m.add("dag.levels_ms", ms("dag.levels"), "ms");
    m.add("dag.raw_edges", c("dag.raw_edges"), "count");
    m.add("dag.dropped_edges", c("dag.dropped_edges"), "count");
    m.add("dag.cyclic_directions", c("dag.cyclic_directions"), "count");
    m.add("partition.block_ms", ms("partition.block"), "ms");
    m.add("partition.cut_edges", c("partition.cut_edges"), "count");
    m.add("core.assign_ms", ms("core.assign"), "ms");
    m.add("core.priorities_ms", ms("core.priorities"), "ms");
    m.add(
        "core.priorities_share",
        ms("core.dfds_priorities") / ms("core.dfds_trial").max(1e-9),
        "ratio",
    );
    m.add("core.trials_ms", ms("core.trials"), "ms");
    m.add("core.trials_1t_ms", ms("core.trials_1t"), "ms");
    m.add("core.trial_ns_per_task", ms("core.trial_ns_per_task"), "ns");
    m.add("core.list_schedule_ms", ms("core.list_schedule"), "ms");
    m.add("core.validate_ms", ms("core.validate"), "ms");
    m.add("core.c1_ms", ms("core.c1"), "ms");
    m.add("core.c2_ms", ms("core.c2"), "ms");
    m.add("core.lower_bounds_ms", ms("core.lower_bounds"), "ms");
    m.add("core.scratch_grows", c("core.scratch_grows"), "count");
    m.add(
        "pool.speedup",
        ms("core.trials_1t") / ms("core.trials").max(1e-9),
        "x",
    );
    m.add("pool.steals", traced.program_per_op("pool.steals"), "count");
    m.add(
        "pool.steal_failures",
        traced.program_per_op("pool.steal_failures"),
        "count",
    );
    m.add("pool.parked", traced.program_per_op("pool.parked"), "count");
    m.add("sim.sync_ms", ms("sim.sync"), "ms");
    m.add("sim.async_ms", ms("sim.async"), "ms");
    m.add("sim.async_makespan", c("sim.async_makespan"), "units");
    m.add("sim.messages", c("sim.messages"), "count");
    m.add("serve.http_parse_us", 1e3 * ms("serve.http_parse"), "us");
    m.add("serve.json_parse_us", 1e3 * ms("serve.json_parse"), "us");
    m.add("serve.write_us", 1e3 * ms("serve.write"), "us");
    m.add("serve.hit_ms", ms("serve.hit"), "ms");
    m.add("serve.miss_ms", ms("serve.miss"), "ms");
    m.add("serve.stage.cache_ms", ms("serve.stage.cache"), "ms");
    m.add("serve.stage.induce_ms", ms("serve.stage.induce"), "ms");
    m.add("serve.stage.schedule_ms", ms("serve.stage.schedule"), "ms");
    m.add("serve.tier1_hits", c("serve.tier1_hits"), "count");
    m.add("serve.tier2_hits", c("serve.tier2_hits"), "count");
    m.add("serve.tier2_misses", c("serve.tier2_misses"), "count");
    m.add("serve.evictions", c("serve.evictions"), "count");
    let t2 = c("serve.tier2_hits") + c("serve.tier2_misses");
    m.add(
        "serve.tier2_hit_ratio",
        c("serve.tier2_hits") / t2.max(1.0),
        "ratio",
    );
    m.add(
        "serve.overflow_failures",
        c("serve.overflow_failures"),
        "count",
    );
    let [off, on] = &traced.tracing;
    m.add("telemetry.traced_op_p50_ms", median(on), "ms");
    m.add(
        "telemetry.overhead_ratio",
        median(on) / median(off).max(1e-9),
        "ratio",
    );
    Ok(m)
}

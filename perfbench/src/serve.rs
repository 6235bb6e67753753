//! serve-mixed: one closed-loop client passes a seeded stream of raw
//! request bytes through `Request::read_from` → `SweepService::route` →
//! `Response::write_to`, in process, with no socket.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::Mutex;
use std::time::Instant;

use sweep_core::Algorithm;
use sweep_mesh::{ImportFormat, MeshPreset, SweepMesh};
use sweep_quadrature::QuadratureSet;
use sweep_serve::{Request, ScheduleRequest, ServiceConfig, SweepService};
use sweep_telemetry::TraceCtx;

use crate::check;
use crate::gen::{self, Rng};
use crate::pipeline::{self, Case, Counts};
use crate::rec::Rec;
use crate::WIDTH;

/// `examples/meshes/warped.msh`: hanging nodes and a cycle in every S2
/// and S4 direction.
const WARPED: &str = include_str!("../../examples/meshes/warped.msh");

/// Sizes of the stream.
pub struct Sizes {
    /// Preset episodes: (preset, scale).
    pub presets: Vec<(MeshPreset, f64)>,
    pub m: usize,
    pub b: usize,
    /// Meshes written as `.msh` / `.obj` uploads: (preset, scale).
    pub msh_from: (MeshPreset, f64),
    pub obj_from: (MeshPreset, f64),
    /// Cells of the random inline instances.
    pub inline_cells: usize,
    /// Cells per block of the probe's partition.
    pub block: usize,
    /// Byte budget of each cache tier.
    pub cache_bytes: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            presets: vec![(MeshPreset::Tetonly, 0.1), (MeshPreset::Long, 0.05)],
            m: 64,
            b: 8,
            msh_from: (MeshPreset::Prismtet, 0.005),
            obj_from: (MeshPreset::Tetonly, 0.02),
            inline_cells: 400,
            block: 16,
            cache_bytes: 3 << 20,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            presets: vec![(MeshPreset::Tetonly, 0.005), (MeshPreset::Long, 0.003)],
            m: 8,
            b: 2,
            msh_from: (MeshPreset::Prismtet, 0.002),
            obj_from: (MeshPreset::Tetonly, 0.005),
            inline_cells: 60,
            block: 8,
            cache_bytes: 256 << 10,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Preset,
    Upload,
    Inline,
    Metrics,
    Overflow,
}

/// One request of the stream.
pub struct Item {
    pub raw: Vec<u8>,
    pub kind: Kind,
}

/// A mesh the stream uploads, kept for the checks and the traced probes.
pub struct Upload {
    pub name: &'static str,
    pub text: String,
    pub format: ImportFormat,
}

pub struct Stream {
    pub items: Vec<Item>,
    pub uploads: Vec<Upload>,
    /// (preset, scale, seed of the first request) per preset episode.
    pub episodes: Vec<(MeshPreset, f64, u64)>,
}

fn schedule_body(
    source: &str,
    sn: usize,
    m: usize,
    alg: &str,
    delays: bool,
    seed: u64,
    b: usize,
) -> String {
    format!(
        "{{{source}, \"sn\": {sn}, \"m\": {m}, \"algorithm\": \"{alg}\", \"delays\": {delays}, \"seed\": {seed}, \"b\": {b}}}"
    )
}

/// Builds the stream. It is a seeded shuffle of episodes; each episode
/// touches its own cache entries only and keeps them most recently used
/// while it runs, so every request's cache disposition (tier-1 and tier-2
/// hit or miss) is fixed by the stream's shape, whatever the order.
pub fn build_stream(seed: u64, sizes: &Sizes) -> Result<Stream, String> {
    let mut rng = Rng::new(seed);
    let post = |body: String| gen::http_post("/v1/schedule", &body);
    let mut episodes: Vec<Vec<Item>> = Vec::new();
    let mut preset_eps = Vec::new();
    for &(preset, scale) in &sizes.presets {
        let src = format!("\"preset\": \"{}\", \"scale\": {scale:?}", preset.name());
        let s0 = rng.below(1 << 40);
        preset_eps.push((preset, scale, s0));
        let mut ep = Vec::new();
        let mut add = |body: String, times: usize| {
            for _ in 0..times {
                ep.push(Item {
                    raw: post(body.clone()),
                    kind: Kind::Preset,
                });
            }
        };
        // One first request and five repeats.
        add(
            schedule_body(&src, 4, sizes.m, "rdp", false, s0, sizes.b),
            6,
        );
        // Three new seeds on the cached instance, each repeated once.
        for _ in 0..3 {
            let s = rng.below(1 << 40);
            add(schedule_body(&src, 4, sizes.m, "rdp", false, s, sizes.b), 2);
        }
        // Heuristics without delays, each repeated once.
        for alg in ["level", "dfds"] {
            add(schedule_body(&src, 4, sizes.m, alg, false, s0, sizes.b), 2);
        }
        rng.shuffle(&mut ep);
        episodes.push(ep);
    }

    // Uploads: a rotated preset mesh as .msh, a rotated tet boundary
    // surface as .obj, the twisted polytopal rings as .obj, and warped.msh.
    let mut uploads = Vec::new();
    let (p, s) = sizes.msh_from;
    let tet = p.build_scaled(s).map_err(|e| e.to_string())?;
    let rot = gen::random_rotation(&mut rng);
    let verts: Vec<_> = tet
        .vertices()
        .iter()
        .map(|&v| gen::rotate(&rot, v))
        .collect();
    uploads.push(Upload {
        name: "preset.msh",
        text: gen::msh_v4(&verts, tet.cells()),
        format: ImportFormat::Msh,
    });
    let (p, s) = sizes.obj_from;
    let tet = p.build_scaled(s).map_err(|e| e.to_string())?;
    let rot = gen::random_rotation(&mut rng);
    let verts: Vec<_> = tet
        .vertices()
        .iter()
        .map(|&v| gen::rotate(&rot, v))
        .collect();
    let tris = gen::tet_boundary(&verts, tet.cells());
    uploads.push(Upload {
        name: "surface.obj",
        text: gen::obj(&verts, &tris),
        format: ImportFormat::Obj,
    });
    let (verts, tris) = gen::twisted_rings(&mut rng);
    uploads.push(Upload {
        name: "rings.obj",
        text: gen::obj(&verts, &tris),
        format: ImportFormat::Obj,
    });
    uploads.push(Upload {
        name: "warped.msh",
        text: WARPED.to_string(),
        format: ImportFormat::Msh,
    });
    for up in &uploads {
        let src = format!(
            "\"mesh\": {}, \"mesh_format\": \"{}\"",
            gen::json_str(&up.text),
            up.format.name()
        );
        let body = schedule_body(&src, 4, 16, "rdp", false, rng.below(1 << 40), 4);
        episodes.push(
            (0..2)
                .map(|_| Item {
                    raw: post(body.clone()),
                    kind: Kind::Upload,
                })
                .collect(),
        );
    }

    // Inline instances: two random ones and one induced from a small mesh.
    let mut docs = Vec::new();
    for i in 0..2 {
        let dags = gen::random_instance(sizes.inline_cells, 8, &mut rng);
        docs.push(gen::instance_text(
            &format!("random-{i}"),
            sizes.inline_cells,
            &dags,
        ));
    }
    {
        let mesh = MeshPreset::WellLogging
            .build_scaled(0.003)
            .map_err(|e| e.to_string())?;
        let quad = QuadratureSet::level_symmetric(2).map_err(|e| e.to_string())?;
        let (inst, _) = sweep_dag::SweepInstance::from_mesh(&mesh, &quad, "x");
        let dags: Vec<Vec<(u32, u32)>> = inst.dags().iter().map(|d| d.edges().collect()).collect();
        docs.push(gen::instance_text("well_logging", inst.num_cells(), &dags));
    }
    for doc in docs {
        let src = format!("\"instance\": {}", gen::json_str(&doc));
        let body = schedule_body(&src, 4, 16, "rdp", false, rng.below(1 << 40), 4);
        episodes.push(
            (0..2)
                .map(|_| Item {
                    raw: post(body.clone()),
                    kind: Kind::Inline,
                })
                .collect(),
        );
    }
    rng.shuffle(&mut episodes);
    let mut items: Vec<Item> = episodes.into_iter().flatten().collect();

    // Stateless requests at seeded positions: four scrapes and two
    // overflow bodies (they fail before touching any cache entry).
    let mut extra: Vec<Item> = (0..4)
        .map(|_| Item {
            raw: gen::http_get("/metrics"),
            kind: Kind::Metrics,
        })
        .collect();
    for _ in 0..2 {
        let src = format!(
            "\"instance\": {}",
            gen::json_str(&gen::overflow_text(&mut rng))
        );
        extra.push(Item {
            raw: post(schedule_body(&src, 4, 4, "rdp", false, 1, 1)),
            kind: Kind::Overflow,
        });
    }
    for it in extra {
        let at = rng.below(items.len() as u64 + 1) as usize;
        items.insert(at, it);
    }
    Ok(Stream {
        items,
        uploads,
        episodes: preset_eps,
    })
}

static PANICS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Keeps panic messages for the caller; the expected capacity-overflow
/// panic is not printed.
pub fn quiet_panics() {
    std::panic::set_hook(Box::new(|info| {
        let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
            s.to_string()
        } else if let Some(s) = info.payload().downcast_ref::<String>() {
            s.clone()
        } else {
            "panic".to_string()
        };
        if !msg.contains("capacity overflow") {
            eprintln!("panic: {msg} at {:?}", info.location());
        }
        PANICS.lock().unwrap_or_else(|p| p.into_inner()).push(msg);
    }));
}

/// One served request.
pub struct Served {
    pub status: u16,
    pub body: String,
    /// The route panicked (what the server turns into a 500).
    pub panicked: Option<String>,
    pub ms: f64,
}

/// Sends one raw request through the service; timed as one operation.
/// With `trace`, the service routes it under a recording trace context.
pub fn serve_one(
    svc: &SweepService,
    raw: &[u8],
    rec: &mut Rec,
    id: u64,
    trace: bool,
) -> Result<Served, String> {
    rec.begin_op();
    // The three spans tile the operation: parse, route (with the trace
    // context it routes under), then serialization into a buffer.
    let t0 = Instant::now();
    let req = Request::read_from(&mut &raw[..]);
    let t1 = Instant::now();
    let req = req.map_err(|e| format!("request did not parse: {e:?}"))?;
    let ctx = if trace {
        TraceCtx::root(id)
    } else {
        TraceCtx::disabled()
    };
    let routed = std::panic::catch_unwind(AssertUnwindSafe(|| svc.route_traced(&req, &ctx)));
    let t2 = Instant::now();
    let (status, body, panicked, route_span) = match routed {
        Ok(resp) => {
            let mut out = Vec::with_capacity(resp.body.len() + 256);
            resp.write_to(&mut out)
                .map_err(|e| format!("write_to: {e}"))?;
            let span = if resp.status != 200 || req.method != "POST" {
                "serve.route"
            } else if resp.body.contains("\"cache\": \"hit\"") {
                "serve.hit"
            } else {
                "serve.miss"
            };
            (resp.status, resp.body, None, span)
        }
        Err(_) => {
            let msg = PANICS
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pop()
                .unwrap_or_default();
            (500, String::new(), Some(msg), "serve.route")
        }
    };
    let end = Instant::now();
    if rec.traced() {
        rec.push("serve.http_parse", t0, t1);
        rec.push(route_span, t1, t2);
        if panicked.is_none() {
            rec.push("serve.write", t2, end);
        }
        rec.push("op", t0, end);
        if let Some(trace) = ctx.finish() {
            if status == 200 && req.method == "POST" {
                for (stage, name) in [
                    ("cache", "serve.stage.cache"),
                    ("induce", "serve.stage.induce"),
                    ("schedule", "serve.stage.schedule"),
                ] {
                    // A stage that did not run (a cache hit) has no sample.
                    let us = trace.stage_us(stage);
                    if us > 0 {
                        rec.sample(name, us as f64 / 1e3);
                    }
                }
            }
        }
    }
    Ok(Served {
        status,
        body,
        panicked,
        ms: (end - t0).as_secs_f64() * 1e3,
    })
}

/// What one pass of the stream produced.
pub struct Pass {
    pub served: Vec<Served>,
    pub evictions: u64,
}

/// One pass of the stream on a fresh service; `trace` as in [`serve_one`].
pub fn run_pass(
    stream: &Stream,
    sizes: &Sizes,
    threads: usize,
    rec: &mut Rec,
    trace: bool,
) -> Result<Pass, String> {
    sweep_pool::set_global_threads(threads);
    let svc = SweepService::new(ServiceConfig {
        cache_bytes: sizes.cache_bytes,
        ..ServiceConfig::default()
    });
    let mut served = Vec::with_capacity(stream.items.len());
    for (i, it) in stream.items.iter().enumerate() {
        served.push(serve_one(&svc, &it.raw, rec, i as u64 + 1, trace)?);
    }
    Ok(Pass {
        served,
        evictions: svc.cache().stats().evictions,
    })
}

/// Whether request `i` of a pass failed; unexpected outcomes are errors.
pub fn failed(stream: &Stream, i: usize, s: &Served) -> Result<bool, String> {
    match stream.items[i].kind {
        Kind::Overflow => match (&s.panicked, s.status) {
            (Some(msg), _) if msg.contains("capacity overflow") => Ok(true),
            (None, status) if (400..500).contains(&status) => Ok(false),
            (None, status) if status >= 500 => Ok(true),
            other => Err(format!("overflow body: unexpected outcome {other:?}")),
        },
        kind => match (&s.panicked, s.status) {
            (None, 200) => Ok(false),
            (p, status) => Err(format!(
                "{kind:?} request {i}: status {status}, panic {p:?}: {}",
                s.body.lines().next().unwrap_or("")
            )),
        },
    }
}

/// Exact sums over the 200 responses of a pass, plus the tier
/// dispositions read from the bodies.
#[derive(Default, Debug, PartialEq)]
pub struct Sums {
    pub makespan: u64,
    pub c1: u64,
    pub c2: u64,
    pub tier1_hits: u64,
    pub tier2_hits: u64,
    pub tier2_misses: u64,
}

impl Sums {
    /// Adds one successful response's figures and tier dispositions;
    /// returns whether it was a tier-2 hit.
    pub fn add(&mut self, f: &[(String, String)]) -> Result<bool, String> {
        self.makespan += check::field_u64(f, "makespan")?;
        self.c1 += check::field_u64(f, "c1")?;
        self.c2 += check::field_u64(f, "c2")?;
        if check::field(f, "instance_cache")? == "hit" {
            self.tier1_hits += 1;
        }
        let hit = check::field(f, "cache")? == "hit";
        if hit {
            self.tier2_hits += 1;
        } else {
            self.tier2_misses += 1;
        }
        Ok(hit)
    }
}

/// Checks a pass against the stream: every request has its expected
/// outcome, every response is sane, and every hit's body equals the miss
/// body of the same request apart from the cache flags.
pub fn check_pass(stream: &Stream, pass: &Pass) -> Result<Sums, String> {
    let mut sums = Sums::default();
    let mut first: HashMap<&[u8], String> = HashMap::new();
    for (i, s) in pass.served.iter().enumerate() {
        if failed(stream, i, s)? {
            continue;
        }
        let it = &stream.items[i];
        if it.kind == Kind::Metrics || it.kind == Kind::Overflow {
            continue;
        }
        let f = check::body_fields(&s.body);
        check::response(&f)?;
        let hit = sums.add(&f)?;
        let stripped = check::strip_cache_flags(&s.body);
        match first.get(it.raw.as_slice()) {
            None if hit => return Err(format!("request {i} hit before any miss")),
            None => {
                first.insert(&it.raw, stripped);
            }
            Some(_) if !hit => {
                return Err(format!(
                    "{:?} request {i} repeated but missed the cache",
                    it.kind
                ))
            }
            Some(miss) if *miss != stripped => {
                return Err(format!("request {i}: hit body differs from its miss body"))
            }
            Some(_) => {}
        }
    }
    Ok(sums)
}

/// The uploads must import, induce with exact raw-edge counts, and end
/// acyclic; the twisted rings and warped.msh must carry cycles.
pub fn check_uploads(stream: &Stream) -> Result<(), String> {
    let quad = QuadratureSet::level_symmetric(4).map_err(|e| e.to_string())?;
    let omegas = pipeline::omegas(&quad);
    for up in &stream.uploads {
        let got = sweep_mesh::import_bytes(up.text.as_bytes(), up.format)
            .map_err(|e| format!("{}: {e}", up.name))?;
        if got.report.has_errors() {
            return Err(format!(
                "{}: import reports {} non-manifold faces and {} degenerate cells",
                up.name,
                got.report.non_manifold.len(),
                got.report.degenerate_cells.len()
            ));
        }
        let mesh = &got.mesh;
        let (inst, stats) = sweep_dag::SweepInstance::from_mesh(mesh, &quad, up.name);
        let raw: Vec<usize> = stats.iter().map(|s| s.raw_edges).collect();
        let dropped: Vec<usize> = stats.iter().map(|s| s.dropped_edges).collect();
        check::induction(mesh, &omegas, &raw, &dropped, &inst)
            .map_err(|e| format!("{}: {e}", up.name))?;
        let raws: Vec<Vec<(u32, u32)>> = omegas
            .iter()
            .map(|&w| sweep_dag::induce_raw(mesh, w))
            .collect();
        let cyclic = check::cyclic_directions(mesh.num_cells(), &raws);
        if (up.name == "rings.obj" || up.name == "warped.msh") && cyclic == 0 {
            return Err(format!("{}: no direction has a cycle", up.name));
        }
    }
    Ok(())
}

/// The traced run's probe of the stream: the library layers behind its
/// requests, called directly on the same meshes and parameters. Each
/// preset episode's mesh goes through kernel-rdp's operation at both
/// widths and the batch probe; each upload through import, induction
/// and cycle breaking; each request body through the JSON parser.
pub fn probe_stream(
    stream: &Stream,
    sizes: &Sizes,
    rec: &mut Rec,
    mut counts: Option<&mut Counts>,
) -> Result<(), String> {
    let quad = QuadratureSet::level_symmetric(4).map_err(|e| e.to_string())?;
    for &(preset, scale, seed) in &stream.episodes {
        let case = Case {
            preset,
            scale,
            sn: 4,
            m: sizes.m,
            b: sizes.b,
            algorithm: Algorithm::RandomDelayPriorities,
            block: sizes.block,
        };
        rec.begin_op();
        let mesh = pipeline::build(rec, preset, scale)?;
        let out = pipeline::kernel_op(&case, &mesh, &quad, seed, WIDTH, rec)?;
        let one = pipeline::kernel_op(&case, &mesh, &quad, seed, 1, rec)?;
        if one.best.schedule.starts() != out.best.schedule.starts() {
            return Err("best-of-trials differs between 1 and 2 workers".to_string());
        }
        let inst = out.inst.as_ref().ok_or("no instance")?;
        let rc = check::schedule(inst, &out.assignment, &out.best.schedule, case.m)?;
        check::costs(inst, case.m, &rc, out.c1, out.c2, out.paper_bound)?;
        pipeline::probe(&case, &mesh, &quad, inst, &out, rec, counts.as_deref_mut())?;
    }
    for up in &stream.uploads {
        rec.begin_op();
        let got =
            pipeline::import(rec, &up.text, up.format).map_err(|e| format!("{}: {e}", up.name))?;
        let (inst, _) = pipeline::induce(rec, &got.mesh, &quad, up.name);
        pipeline::break_cycles(rec, &got.mesh, &quad, &inst, counts.as_deref_mut())
            .map_err(|e| format!("{}: {e}", up.name))?;
    }
    rec.begin_op();
    for it in &stream.items {
        let req = Request::read_from(&mut &it.raw[..]).map_err(|e| format!("{e:?}"))?;
        if req.method == "POST" {
            let body = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
            let _ = rec.time("serve.json_parse", || ScheduleRequest::from_json(body));
        }
    }
    Ok(())
}

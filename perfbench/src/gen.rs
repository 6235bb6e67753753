//! Input generators, all driven by the workload seed: a SplitMix64 stream,
//! `.msh` v4 and `.obj` writers, the inline-instance writer, the overflow
//! bodies and the request-stream shuffler.

use std::fmt::Write as _;

use sweep_mesh::{Point3, Vec3};

/// SplitMix64: a small, fully specified generator, so the inputs do not
/// depend on the program's own random-number code.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// A seeded rotation matrix (rows), from a random unit quaternion.
pub fn random_rotation(rng: &mut Rng) -> [[f64; 3]; 3] {
    let (u1, u2, u3) = (rng.unit(), rng.unit(), rng.unit());
    let tau = std::f64::consts::TAU;
    let (a, b) = ((1.0 - u1).sqrt(), u1.sqrt());
    let (w, x, y, z) = (
        a * (tau * u2).sin(),
        a * (tau * u2).cos(),
        b * (tau * u3).sin(),
        b * (tau * u3).cos(),
    );
    [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ],
        [
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
        ],
        [
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ]
}

pub fn rotate(r: &[[f64; 3]; 3], p: Point3) -> Point3 {
    Vec3::new(
        r[0][0] * p.x + r[0][1] * p.y + r[0][2] * p.z,
        r[1][0] * p.x + r[1][1] * p.y + r[1][2] * p.z,
        r[2][0] * p.x + r[2][1] * p.y + r[2][2] * p.z,
    )
}

/// Gmsh `.msh` v4.1 ASCII text of a tetrahedral mesh (one node block,
/// one element block of 4-node tetrahedra, 1-based tags).
pub fn msh_v4(vertices: &[Point3], tets: &[[u32; 4]]) -> String {
    let (n, c) = (vertices.len(), tets.len());
    let mut out = String::with_capacity(64 * (n + c) + 256);
    out.push_str("$MeshFormat\n4.1 0 8\n$EndMeshFormat\n$Nodes\n");
    let _ = writeln!(out, "1 {n} 1 {n}\n3 1 0 {n}");
    for tag in 1..=n {
        let _ = writeln!(out, "{tag}");
    }
    for p in vertices {
        let _ = writeln!(out, "{:.12} {:.12} {:.12}", p.x, p.y, p.z);
    }
    let _ = writeln!(out, "$EndNodes\n$Elements\n1 {c} 1 {c}\n3 1 4 {c}");
    for (i, t) in tets.iter().enumerate() {
        let _ = writeln!(
            out,
            "{} {} {} {} {}",
            i + 1,
            t[0] + 1,
            t[1] + 1,
            t[2] + 1,
            t[3] + 1
        );
    }
    out.push_str("$EndElements\n");
    out
}

/// Wavefront `.obj` text of a triangle surface.
pub fn obj(vertices: &[Point3], tris: &[[u32; 3]]) -> String {
    let mut out = String::with_capacity(48 * (vertices.len() + tris.len()));
    for p in vertices {
        let _ = writeln!(out, "v {:.12} {:.12} {:.12}", p.x, p.y, p.z);
    }
    for t in tris {
        let _ = writeln!(out, "f {} {} {}", t[0] + 1, t[1] + 1, t[2] + 1);
    }
    out
}

/// The boundary surface of a tetrahedral mesh, every triangle oriented
/// outward: the faces that belong to exactly one tetrahedron.
pub fn tet_boundary(vertices: &[Point3], tets: &[[u32; 4]]) -> Vec<[u32; 3]> {
    let mut faces: Vec<([u32; 3], [u32; 3], u32)> = Vec::with_capacity(4 * tets.len());
    for t in tets {
        for skip in 0..4 {
            let f: Vec<u32> = (0..4).filter(|&i| i != skip).map(|i| t[i]).collect();
            let tri = [f[0], f[1], f[2]];
            let mut key = tri;
            key.sort_unstable();
            faces.push((key, tri, t[skip]));
        }
    }
    faces.sort_unstable_by_key(|f| f.0);
    let mut out = Vec::new();
    let mut i = 0;
    while i < faces.len() {
        let mut j = i + 1;
        while j < faces.len() && faces[j].0 == faces[i].0 {
            j += 1;
        }
        if j - i == 1 {
            let ([_, _, _], [a, b, c], opp) = faces[i];
            let (pa, pb, pc) = (
                vertices[a as usize],
                vertices[b as usize],
                vertices[c as usize],
            );
            let normal = (pb - pa).cross(pc - pa);
            let outward = normal.dot(pa - vertices[opp as usize]) > 0.0;
            out.push(if outward { [a, b, c] } else { [a, c, b] });
        }
        i = j;
    }
    // A trimmed mesh can pinch its surface: drop the triangles on an edge
    // that more than two of them share, so the surface stays manifold.
    let edge = |a: u32, b: u32| (a.min(b), a.max(b));
    let mut uses = std::collections::HashMap::new();
    for t in &out {
        for (a, b) in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
            *uses.entry(edge(a, b)).or_insert(0u32) += 1;
        }
    }
    out.retain(|t| {
        [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])]
            .iter()
            .all(|&(a, b)| uses[&edge(a, b)] <= 2)
    });
    out
}

/// A polytopal "ring" surface in the spirit of the ring presets: three
/// cylindrical bands of `sectors` cells each, around the x, y and z axes,
/// whose inter-sector cuts are sheared by `tilt` radians. The shear gives
/// every cut normal a consistent component along the band's axis, so a
/// direction close to that axis crosses every cut downstream: a directed
/// cycle around the band, which cycle breaking must remove.
pub fn twisted_rings(rng: &mut Rng) -> (Vec<Point3>, Vec<[u32; 3]>) {
    // Ten to sixteen sectors sheared by 0.40-0.55 rad: a range in which
    // every S4 direction finds a cycle in at least one band.
    let sectors = 10 + rng.below(7) as usize;
    let tilt = 0.4 + 0.15 * rng.unit();
    let half_h = 0.25;
    let mut vertices = Vec::new();
    let mut tris = Vec::new();
    let axes = [
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        Vec3::new(0.0, 0.0, 1.0),
    ];
    for (k, w) in axes.into_iter().enumerate() {
        let center = Vec3::new(4.0 * k as f64, 0.0, 0.0);
        let pick = if w.x.abs() < 0.9 {
            Vec3::new(1.0, 0.0, 0.0)
        } else {
            Vec3::new(0.0, 1.0, 0.0)
        };
        let u = pick.cross(w).normalized();
        let v = w.cross(u);
        let base = vertices.len() as u32;
        for i in 0..sectors {
            let theta = std::f64::consts::TAU * i as f64 / sectors as f64;
            let at = |th: f64, z: f64| center + u * th.cos() + v * th.sin() + w * z;
            vertices.push(at(theta, -half_h));
            vertices.push(at(theta + tilt, half_h));
        }
        for i in 0..sectors as u32 {
            let j = (i + 1) % sectors as u32;
            let (b0, t0, b1, t1) = (
                base + 2 * i,
                base + 2 * i + 1,
                base + 2 * j,
                base + 2 * j + 1,
            );
            tris.push([b0, b1, t1]);
            tris.push([b0, t1, t0]);
        }
    }
    (vertices, tris)
}

/// A seeded random instance: `k` directions over `n` cells, each DAG
/// taking edges forward along its own random permutation within a window
/// of eight, so depths and widths resemble a mesh sweep.
pub fn random_instance(n: usize, k: usize, rng: &mut Rng) -> Vec<Vec<(u32, u32)>> {
    (0..k)
        .map(|_| {
            let mut order: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut order);
            let mut edges = Vec::new();
            for i in 0..n {
                for j in i + 1..(i + 9).min(n) {
                    if rng.below(3) == 0 {
                        edges.push((order[i], order[j]));
                    }
                }
            }
            edges
        })
        .collect()
}

/// `sweep-instance v1` text of `n` cells and one edge list per direction.
pub fn instance_text(name: &str, n: usize, dags: &[Vec<(u32, u32)>]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep-instance v1\nname {name}\ncells {n}\ndirections {}",
        dags.len()
    );
    for (i, edges) in dags.iter().enumerate() {
        let _ = writeln!(out, "dag {i} edges {}", edges.len());
        for (u, v) in edges {
            let _ = writeln!(out, "{u} {v}");
        }
    }
    out.push_str("end\n");
    out
}

/// An inline document whose `dag 0 edges` header declares at least 2^61
/// edges while the body holds none.
pub fn overflow_text(rng: &mut Rng) -> String {
    let edges = (1u64 << 61) + rng.below(1 << 61);
    format!(
        "sweep-instance v1\nname overflow\ncells 4\ndirections 1\ndag 0 edges {edges}\n0 1\nend\n"
    )
}

/// JSON string escaping for request bodies.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Raw bytes of an HTTP/1.1 POST.
pub fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Raw bytes of an HTTP/1.1 GET.
pub fn http_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep_mesh::{import_bytes, ImportFormat, SweepMesh};
    use sweep_quadrature::QuadratureSet;

    #[test]
    fn twisted_rings_carry_a_cycle_for_every_seed() {
        let quad = QuadratureSet::level_symmetric(4).expect("S4");
        for seed in 0..200 {
            let (v, t) = twisted_rings(&mut Rng::new(seed));
            let got = import_bytes(obj(&v, &t).as_bytes(), ImportFormat::Obj).expect("imports");
            assert!(!got.report.has_errors(), "seed {seed}");
            let raw: Vec<Vec<(u32, u32)>> = quad
                .iter()
                .map(|(_, w)| sweep_dag::induce_raw(&got.mesh, w))
                .collect();
            let cyclic = crate::check::cyclic_directions(got.mesh.num_cells(), &raw);
            assert!(cyclic >= 6, "seed {seed}: {cyclic} cyclic directions");
        }
    }

    #[test]
    fn tet_boundary_is_a_manifold_surface() {
        for scale in [0.002, 0.005, 0.02] {
            let tet = sweep_mesh::MeshPreset::Tetonly
                .build_scaled(scale)
                .expect("mesh");
            let tris = tet_boundary(tet.vertices(), tet.cells());
            let got = import_bytes(obj(tet.vertices(), &tris).as_bytes(), ImportFormat::Obj)
                .expect("imports");
            assert!(!got.report.has_errors(), "scale {scale}");
            assert!(got.mesh.num_cells() > 0);
        }
    }
}

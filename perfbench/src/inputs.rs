//! Seeded inputs: graphs, their on-disk forms, and a small PRNG for
//! query sequences.

use std::io::Write;
use std::path::Path;

use xstream_core::Edge;
use xstream_graph::{generators, EdgeList, Rmat};

/// SplitMix64: a seeded generator for query sequences, kept in the
/// benchmark so that sequences never change with a library's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * n as f64) as usize % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The RMAT graph both batch workloads run on: 2^scale vertices,
/// 16 edges per vertex, directed, unweighted.
pub fn rmat(scale: u32, seed: u64) -> EdgeList {
    Rmat::new(scale).with_seed(seed).generate()
}

/// The serve workload's graph: the `web` generator (hosts of 64
/// consecutive ids, 80 % intra-host links) with `degree` out-edges per
/// vertex and weights uniform in [0, 1).
pub fn web(num_vertices: usize, degree: usize, seed: u64) -> EdgeList {
    let mut g = generators::webgraph(num_vertices, degree, 64, seed);
    let mut rng = Rng::new(seed ^ 0x5eed);
    for e in g.edges_mut() {
        e.weight = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
    }
    g
}

/// Writes `src dst` lines (SNAP text) for `edges`.
pub fn write_snap(path: &Path, edges: &[Edge]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    writeln!(out, "# RMAT edge list: src dst")?;
    let mut line = Vec::with_capacity(32);
    for e in edges {
        line.clear();
        push_u32(&mut line, e.src);
        line.push(b' ');
        push_u32(&mut line, e.dst);
        line.push(b'\n');
        out.write_all(&line)?;
    }
    out.flush()
}

fn push_u32(buf: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_text_round_trips_through_import() {
        let dir = std::env::temp_dir().join(format!("perfbench-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = rmat(8, 3);
        write_snap(&dir.join("g.txt"), g.edges()).unwrap();
        let opts = xstream_graph::import::ImportOptions {
            num_vertices: Some(g.num_vertices()),
            ..Default::default()
        };
        xstream_graph::import::import(&dir.join("g.txt"), &dir.join("g.xse"), &opts).unwrap();
        let back = xstream_graph::fileio::read_edge_file(&dir.join("g.xse")).unwrap();
        assert_eq!(back.edges(), g.edges());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(9);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}

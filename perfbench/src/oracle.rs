//! Reference answers computed without either engine: a queue BFS over
//! a CSR, Dijkstra, union-find and a dense f64 power iteration.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use xstream_core::Edge;

/// Level of a vertex the BFS never reached (the engines use the same).
pub const UNREACHED: u32 = u32::MAX;

/// Forward adjacency in compressed sparse rows.
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f32>,
}

impl Csr {
    /// Builds the forward (or, with `reverse`, the backward) adjacency.
    pub fn build(num_vertices: usize, edges: &[Edge], reverse: bool, weighted: bool) -> Self {
        let key = |e: &Edge| if reverse { e.dst } else { e.src } as usize;
        let mut offsets = vec![0usize; num_vertices + 1];
        for e in edges {
            offsets[key(e) + 1] += 1;
        }
        for v in 0..num_vertices {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        let mut weights = if weighted {
            vec![0f32; edges.len()]
        } else {
            Vec::new()
        };
        for e in edges {
            let slot = &mut fill[key(e)];
            targets[*slot] = if reverse { e.src } else { e.dst };
            if weighted {
                weights[*slot] = e.weight;
            }
            *slot += 1;
        }
        Self {
            offsets,
            targets,
            weights,
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    fn range(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize]..self.offsets[v as usize + 1]
    }

    /// BFS levels from `root`.
    pub fn bfs(&self, root: u32) -> Vec<u32> {
        let mut levels = vec![UNREACHED; self.num_vertices()];
        let mut queue = std::collections::VecDeque::new();
        levels[root as usize] = 0;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            let next = levels[v as usize] + 1;
            for &w in &self.targets[self.range(v)] {
                if levels[w as usize] == UNREACHED {
                    levels[w as usize] = next;
                    queue.push_back(w);
                }
            }
        }
        levels
    }

    /// Shortest-path distances from `root` (Dijkstra, f64 sums);
    /// `f64::INFINITY` for unreachable vertices.
    pub fn dijkstra(&self, root: u32) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; self.num_vertices()];
        let mut heap = BinaryHeap::new();
        dist[root as usize] = 0.0;
        heap.push(Reverse((OrdF64(0.0), root)));
        while let Some(Reverse((OrdF64(d), v))) = heap.pop() {
            if d > dist[v as usize] {
                continue;
            }
            let r = self.range(v);
            for (&w, &wt) in self.targets[r.clone()].iter().zip(&self.weights[r]) {
                let nd = d + wt as f64;
                if nd < dist[w as usize] {
                    dist[w as usize] = nd;
                    heap.push(Reverse((OrdF64(nd), w)));
                }
            }
        }
        dist
    }
}

#[derive(PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Weakly connected component representatives by union-find.
pub fn components(num_vertices: usize, edges: &[Edge]) -> Vec<u32> {
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            let grand = parent[parent[v as usize] as usize];
            parent[v as usize] = grand;
            v = grand;
        }
        v
    }
    let mut parent: Vec<u32> = (0..num_vertices as u32).collect();
    for e in edges {
        let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
        if a != b {
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    (0..num_vertices as u32)
        .map(|v| find(&mut parent, v))
        .collect()
}

/// PageRank by dense f64 power iteration, with the engines' update
/// rule: start at 1/V, `rank = (1 - d)/V + d * sum(rank[u] / deg[u])`
/// over in-edges, rank of dangling vertices dropped.
pub fn pagerank(num_vertices: usize, edges: &[Edge], iterations: usize) -> Vec<f64> {
    const DAMPING: f64 = 0.85;
    let n = num_vertices as f64;
    let mut degree = vec![0u32; num_vertices];
    for e in edges {
        degree[e.src as usize] += 1;
    }
    let mut rank = vec![1.0 / n; num_vertices];
    let mut acc = vec![0f64; num_vertices];
    for _ in 0..iterations {
        for e in edges {
            acc[e.dst as usize] += rank[e.src as usize] / degree[e.src as usize] as f64;
        }
        for (r, a) in rank.iter_mut().zip(acc.iter_mut()) {
            *r = (1.0 - DAMPING) / n + DAMPING * *a;
            *a = 0.0;
        }
    }
    rank
}

/// Relative tolerance for comparing f32 engine values with f64 oracles.
pub const F32_TOL: f64 = 1e-4;

pub fn close(engine: f64, oracle: f64) -> bool {
    (engine - oracle).abs() <= F32_TOL * oracle.abs().max(1e-6)
}

/// Checks an engine's top-k `(vertex, rank)` list against oracle ranks:
/// the i-th entry's vertex must have an oracle rank equal (within the
/// f32 tolerance, so near-ties may swap) to the oracle's i-th largest,
/// and its reported rank must match the oracle's for that vertex.
pub fn check_topk(top: &[(u32, f64)], oracle: &[f64]) -> Result<(), String> {
    let mut sorted: Vec<f64> = oracle.to_vec();
    let k = top.len().min(sorted.len());
    if k == 0 {
        return Err("empty top-k list".into());
    }
    sorted.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
    sorted.truncate(k);
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut seen = std::collections::HashSet::new();
    for (i, &(v, r)) in top.iter().enumerate() {
        let Some(&want) = oracle.get(v as usize) else {
            return Err(format!("top-k vertex {v} out of range"));
        };
        if !seen.insert(v) {
            return Err(format!("top-k lists vertex {v} twice"));
        }
        if !close(want, sorted[i]) {
            return Err(format!(
                "top-k[{i}] is vertex {v} (oracle rank {want:.9}), expected rank {:.9}",
                sorted[i]
            ));
        }
        if !close(r, want) {
            return Err(format!(
                "vertex {v}: engine rank {r:.9} vs oracle {want:.9}"
            ));
        }
    }
    Ok(())
}

/// Order-sensitive 64-bit fingerprint of a word array (FNV-1a over
/// 32-bit words); equal fingerprints stand in for bitwise-equal arrays.
pub fn fingerprint(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32, f32)]) -> Vec<Edge> {
        pairs
            .iter()
            .map(|&(s, d, w)| Edge::weighted(s, d, w))
            .collect()
    }

    #[test]
    fn bfs_dijkstra_and_components_on_a_small_graph() {
        let g = edges(&[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0), (3, 4, 1.0)]);
        let csr = Csr::build(5, &g, false, true);
        assert_eq!(csr.bfs(0), vec![0, 1, 1, UNREACHED, UNREACHED]);
        let d = csr.dijkstra(0);
        assert_eq!(&d[..3], &[0.0, 1.0, 2.0]);
        assert!(d[3].is_infinite());
        let back = Csr::build(5, &g, true, false);
        assert_eq!(back.bfs(2), vec![1, 1, 0, UNREACHED, UNREACHED]);
        let c = components(5, &g);
        assert_eq!(c[0], c[2]);
        assert_eq!(c[3], c[4]);
        assert_ne!(c[0], c[3]);
    }

    #[test]
    fn pagerank_is_uniform_on_a_cycle() {
        let g = edges(&[(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)]);
        for r in pagerank(3, &g, 5) {
            assert!((r - 1.0 / 3.0).abs() < 1e-12);
        }
        let top = [(0, 1.0 / 3.0), (1, 1.0 / 3.0)];
        assert!(check_topk(&top, &[1.0 / 3.0; 3]).is_ok());
        assert!(check_topk(&[(0, 0.5)], &[1.0 / 3.0; 3]).is_err());
    }
}

//! Engine-facing query execution: one [`GraphService`] owns the
//! graph, builds per-query-family engines lazily, and runs batched
//! multi-source traversals on behalf of the server's executor.
//!
//! Engines persist across queries — the graph is ingested once when a
//! family's first query arrives, and every later query of that family
//! re-initializes vertex state via `vertex_map` (O(V)) instead of
//! re-streaming the edge file. The disk backend namespaces each family
//! into its own sub-store under the serve store root (`bfs/`, `sssp/`,
//! `pagerank/`, `wcc/`) so their stream names never collide; each
//! sub-store carries its own PR 8 manifest, and
//! [`GraphService::generation_of`] re-reads a family's manifest from
//! disk on every call so an out-of-band re-ingest or `scrub --repair`
//! invalidates that family's cached answers immediately — without
//! touching the other families' cache entries.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use xstream_algorithms::multi::{run_multi_bfs, run_multi_sssp, MultiBfs, MultiSssp, UNREACHED};
use xstream_algorithms::pagerank::{self, Pagerank};
use xstream_algorithms::table::{self, Answer, DiskSource, EngineSource, MemorySource, Params};
use xstream_core::{EdgeProgram, EngineConfig, RunStats};
use xstream_graph::fileio::EdgeFileReader;
use xstream_graph::{EdgeList, MirrorMode};
use xstream_storage::manifest::{Manifest, MANIFEST_NAME};
use xstream_storage::StreamStore;

/// Traversal lanes per batched pass: up to this many distinct roots
/// share one multi-source frontier run.
pub const LANES: usize = 4;

/// Per-family sub-store directory names under the serve store root.
pub const FAMILY_DIRS: [&str; 4] = ["bfs", "sssp", "pagerank", "wcc"];

/// The query-execution half of `xstream serve`.
pub struct GraphService {
    families: Box<dyn Families + Send>,
    /// Disk backend: the serve store root holding one sub-store (and
    /// manifest) per family. `None` for the memory backend.
    store_root: Option<PathBuf>,
    num_vertices: usize,
    num_edges: usize,
    /// Default PageRank iteration count (`--iterations`).
    pub iterations: usize,
    /// WCC labels, computed once per generation and shared.
    wcc: Option<(u64, Arc<Vec<u32>>)>,
}

impl GraphService {
    /// Serves an already-loaded in-memory graph. Every family engine is
    /// built from this one graph; its generation is fixed at 0 (no
    /// manifest exists to bump).
    pub fn open_memory(graph: EdgeList, cfg: EngineConfig, iterations: usize) -> Self {
        let (num_vertices, num_edges) = (graph.num_vertices(), graph.num_edges());
        let graph = Arc::new(graph);
        let open = move |_: &str| Ok(MemorySource::new(Arc::clone(&graph), cfg.clone()));
        Self {
            families: Box::new(Engines::new(open)),
            store_root: None,
            num_vertices,
            num_edges,
            iterations,
            wcc: None,
        }
    }

    /// Serves an edge file out-of-core: family engines ingest into
    /// sub-stores under `store_root` on first use.
    pub fn open_disk(
        input: &Path,
        store_root: &Path,
        cfg: EngineConfig,
        iterations: usize,
    ) -> Result<Self, String> {
        let reader =
            EdgeFileReader::open(input).map_err(|e| format!("{}: {e}", input.display()))?;
        let (input, root) = (input.to_path_buf(), store_root.to_path_buf());
        let open = move |family: &str| {
            let store = StreamStore::new(&root.join(family), cfg.io_unit)
                .map_err(|e| format!("opening {family} store: {e}"))?;
            Ok(DiskSource::new(&input, store, cfg.clone()))
        };
        Ok(Self {
            families: Box::new(Engines::new(open)),
            store_root: Some(store_root.to_path_buf()),
            num_vertices: reader.num_vertices(),
            num_edges: reader.num_edges(),
            iterations,
            wcc: None,
        })
    }

    /// Vertex count of the served graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edge count of the served graph (as ingested; undirected
    /// families stream the doubled expansion).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Current generation of one family's sub-store (a [`FAMILY_DIRS`]
    /// name), re-read from its manifest on every call so external
    /// repairs are seen immediately. Generations are per family — a
    /// family's first-query ingest seals only its own sub-store, which
    /// must not invalidate every other family's cached answers. The
    /// memory backend has no manifests and stays at generation 0.
    pub fn generation_of(&self, family: &str) -> u64 {
        self.store_root
            .as_ref()
            .map_or(0, |root| read_generation(&root.join(family)))
    }

    /// Rejects out-of-range roots before they reach a batch (the
    /// multi-source drivers assert on them).
    pub fn validate_vertex(&self, v: u32) -> Result<(), String> {
        if (v as usize) < self.num_vertices {
            Ok(())
        } else {
            Err(format!(
                "vertex {v} out of range (graph has {} vertices)",
                self.num_vertices
            ))
        }
    }

    /// Validates up to [`LANES`] roots and pads the unused lanes with
    /// the first root: they recompute lane 0 for free (no extra active
    /// partitions) and are discarded.
    fn lanes(&self, roots: &[u32]) -> Result<[u32; LANES], String> {
        assert!(!roots.is_empty() && roots.len() <= LANES);
        for &r in roots {
            self.validate_vertex(r)?;
        }
        let mut lanes = [roots[0]; LANES];
        lanes[..roots.len()].copy_from_slice(roots);
        Ok(lanes)
    }

    /// Runs one batched BFS pass over up to [`LANES`] distinct roots;
    /// returns lane-major level vectors (one per root, in order) and
    /// the pass statistics.
    pub fn run_bfs_batch(&mut self, roots: &[u32]) -> Result<(Vec<Vec<u32>>, RunStats), String> {
        let (states, stats) = self.families.bfs(&self.lanes(roots)?)?;
        Ok((lane_major(&states, roots.len()), stats))
    }

    /// Runs one batched SSSP pass over up to [`LANES`] distinct roots;
    /// returns lane-major distance vectors and the pass statistics.
    pub fn run_sssp_batch(&mut self, roots: &[u32]) -> Result<(Vec<Vec<f32>>, RunStats), String> {
        let (states, stats) = self.families.sssp(&self.lanes(roots)?)?;
        Ok((lane_major(&states, roots.len()), stats))
    }

    /// Runs PageRank for `iterations` supersteps (0 = server default);
    /// returns per-vertex ranks and run statistics.
    pub fn run_pagerank(&mut self, iterations: usize) -> Result<(Vec<f32>, RunStats), String> {
        let iterations = if iterations == 0 {
            self.iterations
        } else {
            iterations
        };
        self.families.pagerank(iterations)
    }

    /// Weakly-connected-component labels, computed once per graph
    /// generation (over the undirected expansion) and shared. Returns
    /// the labels and the run statistics when this call computed them.
    pub fn wcc_labels(&mut self) -> Result<(Arc<Vec<u32>>, Option<RunStats>), String> {
        let generation = self.generation_of("wcc");
        if let Some((cached_gen, labels)) = &self.wcc {
            if *cached_gen == generation {
                return Ok((Arc::clone(labels), None));
            }
        }
        let (labels, stats) = self.families.wcc()?;
        let labels = Arc::new(labels);
        // Stamp the cached labels with the generation observed *after*
        // the run: on the disk backend every WCC run ingests the wcc
        // sub-store afresh and seals its manifest at a higher
        // generation, so the pre-run value would mark these labels
        // stale forever.
        self.wcc = Some((self.generation_of("wcc"), Arc::clone(&labels)));
        Ok((labels, Some(stats)))
    }
}

/// Splits per-vertex lane arrays into one vector per used lane.
fn lane_major<T: Copy>(states: &[[T; LANES]], used: usize) -> Vec<Vec<T>> {
    (0..used)
        .map(|lane| states.iter().map(|s| s[lane]).collect())
        .collect()
}

/// The query families of one backend, so that a single
/// [`GraphService`] type serves either engine.
trait Families {
    fn bfs(&mut self, lanes: &[u32; LANES]) -> Result<(Vec<[u32; LANES]>, RunStats), String>;
    fn sssp(&mut self, lanes: &[u32; LANES]) -> Result<(Vec<[f32; LANES]>, RunStats), String>;
    fn pagerank(&mut self, iterations: usize) -> Result<(Vec<f32>, RunStats), String>;
    fn wcc(&mut self) -> Result<(Vec<u32>, RunStats), String>;
}

/// Opens the engine source a family builds from, given its
/// [`FAMILY_DIRS`] name.
type Open<S> = Box<dyn Fn(&str) -> Result<S, String> + Send>;

/// The family engines over one kind of [`EngineSource`], written once
/// for both engines. WCC labels are immutable per generation, so its
/// engine (and, in memory, its undirected edge copy) is transient.
struct Engines<S: EngineSource> {
    open: Open<S>,
    bfs: Option<S::Engine<MultiBfs<LANES>>>,
    sssp: Option<S::Engine<MultiSssp<LANES>>>,
    pagerank: Option<(S::Engine<Pagerank>, Vec<u32>)>,
}

impl<S: EngineSource> Engines<S> {
    fn new(open: impl Fn(&str) -> Result<S, String> + Send + 'static) -> Self {
        Self {
            open: Box::new(open),
            bfs: None,
            sssp: None,
            pagerank: None,
        }
    }
}

/// Builds `family`'s engine over the directed graph, with out-degrees
/// when `degrees` is set.
fn build<S: EngineSource, P: EdgeProgram>(
    open: &Open<S>,
    family: &str,
    program: &P,
    degrees: bool,
) -> Result<(S::Engine<P>, Vec<u32>), String> {
    open(family)?
        .build(MirrorMode::None, degrees, program)
        .map_err(|e| format!("{family} ingest: {e}"))
}

impl<S: EngineSource> Families for Engines<S> {
    fn bfs(&mut self, lanes: &[u32; LANES]) -> Result<(Vec<[u32; LANES]>, RunStats), String> {
        let program = MultiBfs::<LANES>::new();
        let engine = match &mut self.bfs {
            Some(e) => e,
            slot => slot.insert(build(&self.open, "bfs", &program, false)?.0),
        };
        Ok(run_multi_bfs(engine, &program, lanes))
    }

    fn sssp(&mut self, lanes: &[u32; LANES]) -> Result<(Vec<[f32; LANES]>, RunStats), String> {
        let program = MultiSssp::<LANES>::new();
        let engine = match &mut self.sssp {
            Some(e) => e,
            slot => slot.insert(build(&self.open, "sssp", &program, false)?.0),
        };
        Ok(run_multi_sssp(engine, &program, lanes))
    }

    fn pagerank(&mut self, iterations: usize) -> Result<(Vec<f32>, RunStats), String> {
        let (engine, degrees) = match &mut self.pagerank {
            Some(pair) => pair,
            slot => slot.insert(build(&self.open, "pagerank", &Pagerank, true)?),
        };
        Ok(pagerank::run(engine, &Pagerank, degrees, iterations))
    }

    fn wcc(&mut self) -> Result<(Vec<u32>, RunStats), String> {
        let row = table::find::<S>("wcc").expect("wcc is a table row");
        let (answer, stats) = row
            .run(&mut (self.open)("wcc")?, &Params::default())
            .map_err(|e| format!("wcc ingest: {e}"))?;
        match answer {
            Answer::Components(labels) => Ok((labels, stats)),
            other => unreachable!("the wcc row answered {other:?}"),
        }
    }
}

fn read_generation(dir: &Path) -> u64 {
    let Ok(bytes) = std::fs::read(dir.join(MANIFEST_NAME)) else {
        return 0;
    };
    Manifest::decode(&bytes).map(|m| m.generation).unwrap_or(0)
}

/// Level sentinel re-exported for response building.
pub const BFS_UNREACHED: u32 = UNREACHED;

#[cfg(test)]
mod tests {
    use super::*;
    use xstream_algorithms::bfs;
    use xstream_graph::generators;

    fn cfg() -> EngineConfig {
        EngineConfig::default().with_threads(2).with_partitions(4)
    }

    #[test]
    fn memory_service_matches_single_runs_and_reuses_engines() {
        let g = generators::erdos_renyi(200, 1200, 3);
        let mut svc = GraphService::open_memory(g.clone(), cfg(), 5);
        let (levels, _) = svc.run_bfs_batch(&[0, 5, 9]).unwrap();
        assert_eq!(levels.len(), 3);
        for (i, &root) in [0u32, 5, 9].iter().enumerate() {
            let (single, _) = bfs::bfs_in_memory(&g, root, cfg());
            assert_eq!(levels[i], single, "root {root}");
        }
        // Second batch reuses the engine (no rebuild): still correct.
        let (levels2, _) = svc.run_bfs_batch(&[7]).unwrap();
        let (single7, _) = bfs::bfs_in_memory(&g, 7, cfg());
        assert_eq!(levels2[0], single7);
    }

    #[test]
    fn wcc_labels_cached_per_generation() {
        let g = generators::erdos_renyi(100, 300, 11);
        let mut svc = GraphService::open_memory(g, cfg(), 5);
        let (l1, stats1) = svc.wcc_labels().unwrap();
        assert!(stats1.is_some(), "first call computes");
        let (l2, stats2) = svc.wcc_labels().unwrap();
        assert!(stats2.is_none(), "second call is served from cache");
        assert!(Arc::ptr_eq(&l1, &l2));
    }

    #[test]
    fn out_of_range_roots_are_rejected_not_panicked() {
        let g = generators::path(10);
        let mut svc = GraphService::open_memory(g, cfg(), 5);
        assert!(svc.run_bfs_batch(&[10]).is_err());
        assert!(svc.run_sssp_batch(&[99]).is_err());
    }
}

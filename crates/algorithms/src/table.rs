//! The algorithm table: the one place that wires algorithms to engines,
//! so one program runs unchanged in memory (§4) and out of core (§3).
//!
//! Each [`Algorithm`] row holds an algorithm's name, the [`MirrorMode`]
//! its input is expanded with, whether its driver needs out-degrees,
//! and a step that constructs the program, builds an engine, calls the
//! driver and wraps the result in a typed [`Answer`] whose `Display` is
//! the summary `xstream run` prints. Rows are generic over an
//! [`EngineSource`], with one impl per engine: [`MemorySource`] and
//! [`DiskSource`].

use std::borrow::Borrow;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use xstream_core::{EdgeProgram, Engine, EngineConfig, Error, Result, RunStats, VertexId};
use xstream_disk::{DiskEngine, EdgeIngest};
use xstream_graph::fileio::EdgeFileReader;
use xstream_graph::{EdgeList, MirrorMode};
use xstream_memory::InMemoryEngine;
use xstream_storage::StreamStore;

use crate::bfs::{self, Bfs};
use crate::conductance::{self, Conductance, ConductanceResult};
use crate::mcst::{self, Mcst, MstResult};
use crate::mis::{self, Mis};
use crate::pagerank::{self, Pagerank};
use crate::pagerank_delta::{self, PagerankDelta};
use crate::scc::{self, Scc};
use crate::spmv::{self, Spmv};
use crate::sssp::{self, Sssp};
use crate::wcc::{self, Wcc};

/// Where a table row gets its engine from: one impl per engine.
pub trait EngineSource {
    /// The engine this source builds for program `P`.
    type Engine<P: EdgeProgram>: Engine<P>;

    /// Builds an engine running `program` over the source graph
    /// expanded by `mirror`. With `degrees`, also returns the expanded
    /// graph's out-degree of every vertex (otherwise an empty vector).
    fn build<P: EdgeProgram>(
        &mut self,
        mirror: MirrorMode,
        degrees: bool,
        program: &P,
    ) -> Result<(Self::Engine<P>, Vec<u32>)>;
}

/// Builds [`InMemoryEngine`]s from an edge list held in memory.
pub struct MemorySource<G> {
    graph: G,
    config: EngineConfig,
}

impl<G: Borrow<EdgeList>> MemorySource<G> {
    /// A source over `graph` (owned or shared) with engine `config`.
    pub fn new(graph: G, config: EngineConfig) -> Self {
        Self { graph, config }
    }
}

impl<G: Borrow<EdgeList>> EngineSource for MemorySource<G> {
    type Engine<P: EdgeProgram> = InMemoryEngine<P>;

    fn build<P: EdgeProgram>(
        &mut self,
        mirror: MirrorMode,
        degrees: bool,
        program: &P,
    ) -> Result<(InMemoryEngine<P>, Vec<u32>)> {
        let graph = self.graph.borrow();
        // The engine takes ownership of one edge copy: the mirrored
        // expansion is handed over as is instead of being copied again.
        let edges = match mirror {
            MirrorMode::None => graph.edges().to_vec(),
            MirrorMode::Undirected => graph.to_undirected().into_edges(),
            MirrorMode::Bidirectional => graph.to_bidirectional().into_edges(),
        };
        let input = EdgeList::from_parts_unchecked(graph.num_vertices(), edges);
        let degrees = if degrees {
            input.out_degrees()
        } else {
            Vec::new()
        };
        let engine = InMemoryEngine::new(
            input.num_vertices(),
            input.into_edges(),
            program,
            self.config.clone(),
        );
        Ok((engine, degrees))
    }
}

/// Builds one [`DiskEngine`] by streaming an edge file into the
/// partition store it is handed.
pub struct DiskSource {
    input: PathBuf,
    store: Option<StreamStore>,
    config: EngineConfig,
    resumed: Option<u64>,
}

impl DiskSource {
    /// A source that ingests `input` into `store` under `config`,
    /// striping the store over the devices of
    /// [`EngineConfig::device_map`] when one is set (Fig. 15).
    pub fn new(input: impl Into<PathBuf>, store: StreamStore, config: EngineConfig) -> Self {
        let store = match config.device_map {
            Some(map) => store.with_device_fn(map.num_devices(), move |name| map.device_of(name)),
            None => store,
        };
        Self {
            input: input.into(),
            store: Some(store),
            config,
            resumed: None,
        }
    }

    /// After a build under [`EngineConfig::resume`]: the superstep
    /// after which the restored checkpoint was taken, or `None` when
    /// the store held no valid checkpoint and the run starts fresh.
    pub fn resumed(&self) -> Option<u64> {
        self.resumed
    }
}

impl EngineSource for DiskSource {
    type Engine<P: EdgeProgram> = DiskEngine<P>;

    fn build<P: EdgeProgram>(
        &mut self,
        mirror: MirrorMode,
        degrees: bool,
        program: &P,
    ) -> Result<(DiskEngine<P>, Vec<u32>)> {
        let store = self.store.take().ok_or_else(|| {
            Error::Config("a disk source builds one engine; hand it a fresh store".into())
        })?;
        let mut ingest = EdgeIngest::new(&self.input).with_mirror(mirror);
        // The O(V) degree counts fold into the ingest pass through the
        // per-chunk observer: one streaming read of the edge file.
        let counts = Arc::new(Mutex::new(Vec::new()));
        if degrees {
            *counts.lock().expect("degree counter poisoned") =
                vec![0u32; EdgeFileReader::open(&self.input)?.num_vertices()];
            let counts = Arc::clone(&counts);
            ingest = ingest.with_observer(move |chunk| {
                let mut d = counts.lock().expect("degree counter poisoned");
                for e in chunk {
                    d[e.src as usize] += 1;
                }
            });
        }
        let mut engine = DiskEngine::from_ingest(store, &ingest, program, self.config.clone())?;
        if self.config.resume {
            self.resumed = engine.resume_from_checkpoint()?;
        }
        let degrees = std::mem::take(&mut *counts.lock().expect("degree counter poisoned"));
        Ok((engine, degrees))
    }
}

/// Per-run parameters of the table's algorithms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Params {
    /// Source vertex of bfs and sssp.
    pub root: VertexId,
    /// Rounds of pagerank, and the round cap of pagerank-delta.
    pub iterations: usize,
    /// pagerank-delta activation tolerance.
    pub epsilon: f32,
}

/// The typed result of a table row. `Display` renders the summary
/// `xstream run` prints after `<name>: `.
#[derive(Debug, Clone)]
pub enum Answer {
    /// wcc: per-vertex component labels.
    Components(Vec<u32>),
    /// bfs: per-vertex levels, [`bfs::UNREACHED`] where unreached.
    Levels(Vec<u32>),
    /// sssp: per-vertex distances, infinite where unreachable.
    Distances(Vec<f32>),
    /// pagerank and pagerank-delta: per-vertex ranks.
    Ranks(Vec<f32>),
    /// spmv: `y = A^T x` for the all-ones `x`.
    Product(Vec<f32>),
    /// mis: per-vertex [`mis::status`] values.
    Independent(Vec<u32>),
    /// scc: per-vertex component ids.
    Strong(Vec<u32>),
    /// mcst: the minimum-cost spanning forest.
    Forest(MstResult),
    /// conductance: cut and side volumes of the id-parity bisection.
    Cut(ConductanceResult),
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Components(labels) => {
                write!(f, "{} components", wcc::count_components(labels))
            }
            Answer::Levels(levels) => {
                let reached = levels.iter().filter(|&&l| l != bfs::UNREACHED).count();
                write!(f, "{reached} vertices reached")
            }
            Answer::Distances(dist) => {
                let reached = dist.iter().filter(|d| d.is_finite()).count();
                write!(f, "{reached} vertices reachable")
            }
            Answer::Ranks(ranks) => {
                match ranks.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) {
                    Some((v, r)) => write!(f, "top vertex {v} (rank {r:.6})"),
                    None => Ok(()),
                }
            }
            Answer::Product(y) => {
                let norm: f64 = y.iter().map(|v| f64::from(*v) * f64::from(*v)).sum();
                write!(f, "|y|^2 = {norm:.3}")
            }
            Answer::Independent(statuses) => {
                let members = statuses
                    .iter()
                    .filter(|&&s| s == mis::status::IN_SET)
                    .count();
                write!(f, "{members} members")
            }
            Answer::Strong(ids) => write!(
                f,
                "{} strongly connected components",
                wcc::count_components(ids)
            ),
            Answer::Forest(r) => write!(
                f,
                "forest weight {:.3} over {} trees",
                r.total_weight, r.components
            ),
            Answer::Cut(r) => write!(f, "cut {} / volumes {} : {}", r.cut, r.vol0, r.vol1),
        }
    }
}

/// One row of the algorithm table (see the [module docs](self)).
pub struct Algorithm<S> {
    /// Name on the `xstream run` command line.
    pub name: &'static str,
    /// Expansion applied to the input edges before the engine streams
    /// them.
    pub mirror: MirrorMode,
    /// Whether the driver needs the expanded graph's out-degrees.
    pub degrees: bool,
    drive: fn(&Self, &mut S, &Params) -> Result<(Answer, RunStats)>,
}

impl<S: EngineSource> Algorithm<S> {
    /// Builds an engine from `source` and runs the algorithm on it.
    pub fn run(&self, source: &mut S, params: &Params) -> Result<(Answer, RunStats)> {
        (self.drive)(self, source, params)
    }

    /// Builds the engine this row's facts ask for, runs `driver` on it
    /// and wraps its result with `wrap`.
    fn exec<P: EdgeProgram, T>(
        &self,
        source: &mut S,
        program: P,
        wrap: fn(T) -> Answer,
        driver: impl FnOnce(&mut S::Engine<P>, &P, &[u32]) -> (T, RunStats),
    ) -> Result<(Answer, RunStats)> {
        let (mut engine, degrees) = source.build(self.mirror, self.degrees, &program)?;
        let (result, stats) = driver(&mut engine, &program, &degrees);
        Ok((wrap(result), stats))
    }
}

/// The table: every algorithm `xstream run` accepts, in usage order.
pub fn algorithms<S: EngineSource>() -> [Algorithm<S>; 10] {
    use Answer::*;
    [
        Algorithm {
            name: "wcc",
            mirror: MirrorMode::Undirected,
            degrees: false,
            drive: |a, s, _| a.exec(s, Wcc::new(), Components, |e, p, _| wcc::run(e, p)),
        },
        Algorithm {
            name: "bfs",
            mirror: MirrorMode::None,
            degrees: false,
            drive: |a, s, x| a.exec(s, Bfs::new(), Levels, |e, p, _| bfs::run(e, p, x.root)),
        },
        Algorithm {
            name: "sssp",
            mirror: MirrorMode::None,
            degrees: false,
            drive: |a, s, x| a.exec(s, Sssp::new(), Distances, |e, p, _| sssp::run(e, p, x.root)),
        },
        Algorithm {
            name: "pagerank",
            mirror: MirrorMode::None,
            degrees: true,
            drive: |a, s, x| {
                a.exec(s, Pagerank, Ranks, |e, p, d| {
                    pagerank::run(e, p, d, x.iterations)
                })
            },
        },
        Algorithm {
            name: "pagerank-delta",
            mirror: MirrorMode::None,
            degrees: true,
            drive: |a, s, x| {
                let program = PagerankDelta::new(x.epsilon);
                a.exec(s, program, Ranks, |e, p, d| {
                    pagerank_delta::run(e, p, d, x.iterations)
                })
            },
        },
        Algorithm {
            name: "spmv",
            mirror: MirrorMode::None,
            degrees: false,
            drive: |a, s, _| {
                a.exec(s, Spmv, Product, |e, p, _| {
                    let (y, it) = spmv::run(e, p, &vec![1.0; e.num_vertices()]);
                    (y, it.into())
                })
            },
        },
        Algorithm {
            name: "mis",
            mirror: MirrorMode::Undirected,
            degrees: false,
            drive: |a, s, _| a.exec(s, Mis::new(), Independent, |e, p, _| mis::run(e, p)),
        },
        Algorithm {
            name: "scc",
            mirror: MirrorMode::Bidirectional,
            degrees: false,
            drive: |a, s, _| a.exec(s, Scc::new(), Strong, |e, p, _| scc::run(e, p)),
        },
        Algorithm {
            name: "mcst",
            mirror: MirrorMode::Undirected,
            degrees: false,
            drive: |a, s, _| a.exec(s, Mcst, Forest, |e, p, _| mcst::run(e, p)),
        },
        Algorithm {
            name: "conductance",
            mirror: MirrorMode::None,
            degrees: false,
            drive: |a, s, _| {
                a.exec(s, Conductance, Cut, |e, p, _| {
                    let (cut, it) = conductance::run(e, p, &|v| v & 1);
                    (cut, it.into())
                })
            },
        },
    ]
}

/// The table row named `name`, if any.
pub fn find<S: EngineSource>(name: &str) -> Option<Algorithm<S>> {
    algorithms().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xstream_graph::fileio::write_edge_file;
    use xstream_graph::generators;

    fn cfg() -> EngineConfig {
        EngineConfig::default()
            .with_threads(2)
            .with_partitions(4)
            .with_memory_budget(1 << 20)
            .with_io_unit(16 << 10)
    }

    #[test]
    fn every_row_reports_its_runtime_on_both_engines() {
        let g = generators::erdos_renyi(300, 2000, 5);
        let dir = std::env::temp_dir().join(format!("xstream_table_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("g.xse");
        write_edge_file(&input, &g).unwrap();
        let params = Params {
            iterations: 3,
            ..Params::default()
        };
        for algo in algorithms::<MemorySource<&EdgeList>>() {
            let (answer, stats) = algo
                .run(&mut MemorySource::new(&g, cfg()), &params)
                .unwrap();
            assert!(stats.total_ns > 0, "{} on mem: {answer}", algo.name);
        }
        for algo in algorithms::<DiskSource>() {
            let store = StreamStore::new(&dir.join(algo.name), cfg().io_unit).unwrap();
            let (answer, stats) = algo
                .run(&mut DiskSource::new(&input, store, cfg()), &params)
                .unwrap();
            assert!(stats.total_ns > 0, "{} on disk: {answer}", algo.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! End-to-end pipelines and cross-system agreement: the comparison
//! baselines must compute the same answers as X-Stream (they exist to
//! be *raced*, not to disagree), the binary edge-file path must round
//! trip, and every dataset stand-in must run the algorithm the paper
//! pairs it with.

use xstream::algorithms::{als, bfs, hyperanf, wcc};
use xstream::baselines::graphchi::{apps, GraphChiEngine};
use xstream::baselines::{hybrid, ligra, localqueue};
use xstream::core::EngineConfig;
use xstream::disk::{DiskEngine, EdgeIngest};
use xstream::graph::datasets::{by_name, DATASETS};
use xstream::graph::fileio::{read_edge_file, write_edge_file};
use xstream::graph::generators::{bipartite_split, preferential_attachment};
use xstream::graph::{generators, Csr};
use xstream::storage::StreamStore;

fn temp_store(tag: &str) -> StreamStore {
    let root = std::env::temp_dir().join(format!("xstream_e2e_{tag}"));
    let _ = std::fs::remove_dir_all(&root);
    StreamStore::new(&root, 1 << 16).expect("store")
}

#[test]
fn all_bfs_implementations_agree() {
    let g = generators::erdos_renyi(800, 6000, 11).to_undirected();
    let csr = Csr::from_edge_list(&g);
    let csc = Csr::reversed_from_edge_list(&g);
    let pre = ligra::Preprocessed::build(&g);
    let root = 3;

    let (xs, _) = bfs::bfs_in_memory(&g, root, EngineConfig::default().with_threads(2));
    let lq = localqueue::bfs(&csr, root, 2);
    let hy = hybrid::bfs(&csr, &csc, root, 2);
    let li = ligra::bfs(&pre, root, 2);
    assert_eq!(xs, lq, "local queue disagrees");
    assert_eq!(xs, hy, "hybrid disagrees");
    assert_eq!(xs, li, "ligra disagrees");
}

#[test]
fn ligra_pagerank_tracks_xstream() {
    let g = preferential_attachment(500, 8, 12);
    let pre = ligra::Preprocessed::build(&g);
    let (xs, _) =
        xstream::algorithms::pagerank::pagerank_in_memory(&g, 20, EngineConfig::default());
    let li = ligra::pagerank(&pre, 20, 2);
    for v in 0..500 {
        assert!(
            (xs[v] - li[v]).abs() < 1e-4,
            "vertex {v}: xstream {} vs ligra {}",
            xs[v],
            li[v]
        );
    }
}

#[test]
fn graphchi_wcc_agrees_with_xstream() {
    let g = generators::erdos_renyi(400, 3000, 13).to_undirected();
    let (xs, _) = wcc::wcc_in_memory(&g, EngineConfig::default());
    let program = apps::WccVc;
    let mut engine = GraphChiEngine::build(temp_store("gc_wcc"), &g, &program, 5).expect("build");
    engine.run(&program, 200).expect("run");
    assert_eq!(engine.vertex_data(), &xs[..]);
}

#[test]
fn graphchi_als_reduces_error_like_xstream() {
    // Ratings from a ground-truth rank-2 model, so a rank-8 fit can
    // drive the error well below the predict-the-mean baseline.
    let users = 80usize;
    let items = 20usize;
    let mut edges = Vec::new();
    let truth = |v: usize| {
        let a = 0.5 + (v % 7) as f32 / 7.0;
        let b = 0.5 + (v % 5) as f32 / 5.0;
        [a, b]
    };
    for u in 0..users {
        for i in 0..items {
            if (u + i) % 3 == 0 {
                let tu = truth(u);
                let ti = truth(users + i);
                let rating = (tu[0] * ti[0] + tu[1] * ti[1]).clamp(0.5, 5.0);
                edges.push(xstream::core::Edge::weighted(
                    u as u32,
                    (users + i) as u32,
                    rating,
                ));
            }
        }
    }
    let ratings = xstream::graph::EdgeList::from_parts_unchecked(users + items, edges);
    let bidir = ratings.to_undirected();

    // X-Stream ALS: RMSE after five sweeps.
    let (result, _) = als::als_in_memory(&ratings, users, 5, EngineConfig::default());
    let xs_rmse = *result.rmse.last().expect("rmse");

    // GraphChi ALS: compute RMSE from the factor output.
    let program = apps::AlsVc::new(users);
    let mut engine =
        GraphChiEngine::build(temp_store("gc_als"), &bidir, &program, 4).expect("build");
    engine.run(&program, 5).expect("run");
    let factors = engine.vertex_data();
    let mut sse = 0f64;
    let mut cnt = 0f64;
    for e in ratings.edges() {
        let (u, i) = (e.src as usize, e.dst as usize);
        let dot: f32 = factors[u].iter().zip(&factors[i]).map(|(a, b)| a * b).sum();
        sse += f64::from((dot - e.weight) * (dot - e.weight));
        cnt += 1.0;
    }
    let gc_rmse = (sse / cnt).sqrt();
    // Both systems must recover the rank-2 structure to similar error.
    assert!(xs_rmse < 0.5, "xstream rmse {xs_rmse}");
    assert!(gc_rmse < 0.5, "graphchi rmse {gc_rmse}");
}

#[test]
fn edge_file_roundtrip_feeds_disk_engine() {
    let g = generators::erdos_renyi(300, 2000, 15).to_undirected();
    // Note: distinct from the `temp_store` naming scheme, which wipes
    // its directory on creation.
    let dir = std::env::temp_dir().join("xstream_e2e_edgefile_input");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let path = dir.join("g.edges");
    write_edge_file(&path, &g).expect("write");

    let back = read_edge_file(&path).expect("read");
    assert_eq!(back.num_vertices(), g.num_vertices());
    assert_eq!(back.edges(), g.edges());

    let p = wcc::Wcc::new();
    let cfg = EngineConfig::default()
        .with_memory_budget(1 << 20)
        .with_io_unit(1 << 14);
    let mut engine = DiskEngine::from_ingest(temp_store("file"), &EdgeIngest::new(&path), &p, cfg)
        .expect("engine");
    let (from_file, _) = wcc::run(&mut engine, &p);
    let (from_mem, _) = wcc::wcc_in_memory(&g, EngineConfig::default());
    assert_eq!(from_file, from_mem);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_dataset_stand_in_runs_its_paper_algorithm() {
    for ds in DATASETS {
        let g = ds.generate(ds.paper_edges / 20_000 + 1);
        match ds.name {
            // The bipartite stand-in runs ALS.
            "Netflix" => {
                let users = bipartite_split(g.num_vertices());
                let (result, _) = als::als_in_memory(&g, users, 2, EngineConfig::default());
                assert_eq!(result.rmse.len(), 2, "{}", ds.name);
            }
            // Everything else runs WCC over the undirected expansion.
            _ => {
                let und = g.to_undirected();
                let (labels, stats) = wcc::wcc_in_memory(&und, EngineConfig::default());
                assert_eq!(labels.len(), und.num_vertices(), "{}", ds.name);
                assert!(stats.num_iterations() > 0, "{}", ds.name);
            }
        }
    }
}

#[test]
fn streaming_models_agree_with_the_engine() {
    // The three computation models the crate offers — edge-centric
    // scatter-gather, semi-streaming, and W-Stream — must produce the
    // same component labels (all use union-by-minimum, so labels are
    // comparable bit-for-bit).
    use xstream::streams::{semi, wstream};
    let g = generators::preferential_attachment(600, 6, 77).to_undirected();
    let (engine_labels, _) = wcc::wcc_in_memory(&g, EngineConfig::default());
    let semi_labels = semi::connected_components(&g).expect("semi");
    assert_eq!(engine_labels, semi_labels);
    let w = wstream::connected_components(&g, 32, wstream::Backing::Memory).expect("wstream");
    assert_eq!(engine_labels, w.labels);
    assert!(w.passes > 1, "capacity 32 must force multiple passes");
}

#[test]
fn hyperanf_separates_grid_from_scale_free() {
    let grid = by_name("dimacs-usa").expect("ds").generate(4000);
    let social = by_name("soc-livejournal").expect("ds").generate(4000);
    let (nf_grid, _) =
        hyperanf::hyperanf_in_memory(&grid.to_undirected(), 4096, EngineConfig::default());
    let (nf_social, _) =
        hyperanf::hyperanf_in_memory(&social.to_undirected(), 4096, EngineConfig::default());
    assert!(
        nf_grid.steps > 3 * nf_social.steps.max(1),
        "grid {} vs social {}",
        nf_grid.steps,
        nf_social.steps
    );
}

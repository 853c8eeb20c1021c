//! The batch workloads, `pagerank-ooc` and `traversal-ooc`.
//!
//! The driving process generates the RMAT graph, computes the oracle
//! answers and then starts a *worker*: this same executable with the
//! `worker` subcommand. The worker holds only the engine, so its peak
//! RSS is the program's; it loads the graph (timed as set-up), answers
//! queries on the one engine until the measured window closes, and
//! reports each query's latency, answer fingerprint and `RunStats`
//! counters as `tag key=value ...` lines on its standard output. The
//! driving process then checks every answer against the oracle.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xstream_algorithms::{bfs, pagerank};
use xstream_core::{EngineConfig, IterationStats, RunStats, TargetedUpdate};
use xstream_disk::{DiskEngine, EdgeIngest};
use xstream_graph::import::{import, ImportOptions};
use xstream_storage::StreamStore;

use crate::inputs::{self, Rng};
use crate::oracle::{self, Csr};
use crate::report::{median, quantile, Report};
use crate::sys;
use crate::trace::{SpanId, Tracer};

/// RMAT scale of both batch workloads (2^20 vertices, 16 Mi edges).
pub const SCALE: u32 = 20;
/// PageRank iterations per query (the CLI default).
const PR_ITERATIONS: usize = 5;
/// Top-k ids checked against the oracle on every PageRank answer.
const TOP_K: usize = 10;
/// Maximum L1 distance between engine and oracle rank vectors.
const L1_TOL: f64 = 1e-4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// BFS roots drawn per run (more than any run answers).
const ROOTS: usize = 4096;

/// The forced out-of-core layout: 16 streaming partitions, a 16 MiB
/// budget and a 1 MiB I/O unit, with one worker thread fewer than
/// `nproc` (at least one). The default, one worker per CPU, leaves no
/// CPU for the superstep thread and the I/O thread: on 2 vCPUs one
/// competing busy thread then slowed the median BFS query by 67 % and
/// PageRank by 48 %, against 8 % and 13 % with one worker.
fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_partitions(16)
        .with_memory_budget(16 << 20)
        .with_io_unit(1 << 20)
        .with_threads(sys::nproc().saturating_sub(1).max(1))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Pagerank,
    Traversal,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Pagerank => "pagerank-ooc",
            Kind::Traversal => "traversal-ooc",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "pagerank-ooc" => Some(Kind::Pagerank),
            "traversal-ooc" => Some(Kind::Traversal),
            _ => None,
        }
    }
}

/// One `tag key=value ...` line of worker output.
struct Record {
    tag: String,
    fields: BTreeMap<String, String>,
}

impl Record {
    fn parse(line: &str) -> Option<Self> {
        let mut it = line.split_whitespace();
        let tag = it.next()?.to_string();
        let fields = it
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Some(Self { tag, fields })
    }

    fn num(&self, key: &str) -> f64 {
        self.fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    }

    fn int(&self, key: &str) -> u64 {
        self.fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }
}

/// The counters of one query that must repeat exactly for the same
/// query on the same input.
const EXACT: &[&str] = &[
    "supersteps",
    "edges",
    "updates",
    "bytes_read",
    "bytes_written",
    "chunks",
    "skipped",
    "sparse",
];

// ------------------------------------------------------- driving process

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
    work: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let vertices = 1usize << SCALE;
    let t = Instant::now();
    let graph = inputs::rmat(SCALE, seed);
    let mut notes = vec![format!(
        "generated RMAT-{SCALE} in {:.2} s",
        t.elapsed().as_secs_f64()
    )];
    let t = Instant::now();
    let (input, roots_file) = match kind {
        Kind::Pagerank => {
            let text = work.join("graph.txt");
            inputs::write_snap(&text, graph.edges()).map_err(|e| format!("write text: {e}"))?;
            (text, None)
        }
        Kind::Traversal => {
            let xse = work.join("graph.xse");
            xstream_graph::fileio::write_edge_file(&xse, &graph)
                .map_err(|e| format!("write edge file: {e}"))?;
            (xse, Some(work.join("roots.txt")))
        }
    };
    sys::sync_tree(&input).map_err(|e| format!("sync input: {e}"))?;
    notes.push(format!("wrote input in {:.2} s", t.elapsed().as_secs_f64()));

    // Oracle data, computed before the worker starts and kept here.
    let t = Instant::now();
    let mut pr_oracle = Vec::new();
    let mut csr = None;
    match kind {
        Kind::Pagerank => {
            pr_oracle = oracle::pagerank(vertices, graph.edges(), PR_ITERATIONS);
        }
        Kind::Traversal => {
            let roots = giant_scc_roots(vertices, graph.edges(), seed);
            let mut f = std::fs::File::create(roots_file.as_ref().expect("roots file"))
                .map_err(|e| format!("roots file: {e}"))?;
            for r in roots {
                writeln!(f, "{r}").map_err(|e| format!("roots file: {e}"))?;
            }
            csr = Some(Csr::build(vertices, graph.edges(), false, false));
        }
    }
    drop(graph);
    notes.push(format!(
        "oracle set-up in {:.2} s",
        t.elapsed().as_secs_f64()
    ));

    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(&exe);
    cmd.arg("worker")
        .args(["--workload", kind.name()])
        .arg("--input")
        .arg(&input)
        .args(["--vertices", &vertices.to_string()])
        .arg("--work")
        .arg(work)
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(r) = &roots_file {
        cmd.arg("--roots").arg(r);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("worker failed: {}", out.status));
    }
    let records: Vec<Record> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(Record::parse)
        .collect();
    let queries: Vec<&Record> = records.iter().filter(|r| r.tag == "query").collect();
    if queries.is_empty() {
        return Err("worker answered no queries".into());
    }
    report.attempted = queries.len() as u64;

    // Answers.
    let t = Instant::now();
    let wrong = match kind {
        Kind::Pagerank => check_pagerank(&queries, &pr_oracle, work, &mut report),
        Kind::Traversal => check_bfs(&queries, csr.as_ref().expect("csr"), &mut report),
    };
    report.failed = wrong;
    notes.push(format!(
        "answers checked in {:.2} s",
        t.elapsed().as_secs_f64()
    ));
    let replay = records.iter().find(|r| r.tag == "replay");
    check_exact_counts(kind, seed, &queries, replay, work, &mut report);

    summarize(&records, &queries, &mut report);
    report.notes.extend(notes);
    Ok(report)
}

/// Roots for `traversal-ooc`: uniform over the giant strongly
/// connected component (the SCC of the highest-degree vertex: all
/// vertices both reachable from it and reaching it). Every such root
/// reaches the same out-component, so query cost is unimodal; the 38 %
/// isolated vertices of RMAT-20 would answer in milliseconds instead.
fn giant_scc_roots(vertices: usize, edges: &[xstream_core::Edge], seed: u64) -> Vec<u32> {
    let mut degree = vec![0u32; vertices];
    for e in edges {
        degree[e.src as usize] += 1;
        degree[e.dst as usize] += 1;
    }
    let hub = (0..vertices).max_by_key(|&v| degree[v]).unwrap_or(0) as u32;
    drop(degree);
    let fwd = Csr::build(vertices, edges, false, false).bfs(hub);
    let bwd = Csr::build(vertices, edges, true, false).bfs(hub);
    let scc: Vec<u32> = (0..vertices as u32)
        .filter(|&v| fwd[v as usize] != oracle::UNREACHED && bwd[v as usize] != oracle::UNREACHED)
        .collect();
    let mut rng = Rng::new(seed ^ 0xb0f5);
    (0..ROOTS).map(|_| scc[rng.below(scc.len())]).collect()
}

fn check_pagerank(
    queries: &[&Record],
    oracle_ranks: &[f64],
    work: &Path,
    report: &mut Report,
) -> u64 {
    let mut wrong = 0;
    let first = queries[0].int("hash");
    let ranks: Vec<f32> = match std::fs::read(work.join("ranks.bin")) {
        Ok(bytes) => bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
        Err(e) => {
            report.error(format!("first PageRank answer unreadable: {e}"));
            return queries.len() as u64;
        }
    };
    let answer_ok = if oracle::fingerprint(ranks.iter().map(|r| r.to_bits())) != first {
        report.error("saved ranks do not match the first query's fingerprint".into());
        false
    } else if ranks.len() != oracle_ranks.len() {
        report.error(format!(
            "{} ranks for {} vertices",
            ranks.len(),
            oracle_ranks.len()
        ));
        false
    } else {
        let l1: f64 = ranks
            .iter()
            .zip(oracle_ranks)
            .map(|(&r, &o)| (r as f64 - o).abs())
            .sum();
        report.meta("pagerank_l1_vs_oracle", format!("{l1:.3e}"));
        let mut order: Vec<u32> = (0..ranks.len() as u32).collect();
        order.sort_by(|&a, &b| {
            ranks[b as usize]
                .total_cmp(&ranks[a as usize])
                .then(a.cmp(&b))
        });
        let top: Vec<(u32, f64)> = order[..TOP_K]
            .iter()
            .map(|&v| (v, ranks[v as usize] as f64))
            .collect();
        match oracle::check_topk(&top, oracle_ranks) {
            Err(e) => {
                report.error(format!("PageRank top-{TOP_K}: {e}"));
                false
            }
            Ok(()) if l1 > L1_TOL => {
                report.error(format!("PageRank L1 distance {l1:.3e} exceeds {L1_TOL:e}"));
                false
            }
            Ok(()) => true,
        }
    };
    for q in queries {
        if !answer_ok || q.int("hash") != first {
            if answer_ok {
                report.error(format!(
                    "PageRank query {} is not bitwise identical to the first",
                    q.int("idx")
                ));
            }
            wrong += 1;
        }
    }
    wrong
}

fn check_bfs(queries: &[&Record], csr: &Csr, report: &mut Report) -> u64 {
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let chunks: Vec<&[&Record]> = queries.chunks(queries.len().div_ceil(2)).collect();
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|q| {
                            let root = q.int("root") as u32;
                            let levels = csr.bfs(root);
                            let reached =
                                levels.iter().filter(|&&l| l != oracle::UNREACHED).count() as u64;
                            if oracle::fingerprint(levels.iter().copied()) == q.int("hash") {
                                Ok(())
                            } else {
                                Err(format!(
                                    "BFS query {} from {root}: levels differ from the oracle \
                                     (engine reached {}, oracle {reached})",
                                    q.int("idx"),
                                    q.int("reached")
                                ))
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut wrong = 0;
    for r in results {
        if let Err(e) = r {
            report.error(e);
            wrong += 1;
        }
    }
    wrong
}

/// Exact-count self-check. Within a run, queries with the same key
/// (every PageRank query; BFS queries from the same root) must report
/// identical counters, and so must the replay of query 0 after the
/// window, whose answer must match query 0's as well. Across runs, the
/// counters of query `i` are stored per (workload, seed, binary
/// contents) and a later run of the same build with the same seed must
/// reproduce them.
fn check_exact_counts(
    kind: Kind,
    seed: u64,
    queries: &[&Record],
    replay: Option<&Record>,
    work: &Path,
    report: &mut Report,
) {
    let key = |q: &Record| match kind {
        Kind::Pagerank => 0,
        Kind::Traversal => q.int("root"),
    };
    let counts = |q: &Record| -> String {
        EXACT
            .iter()
            .map(|k| format!("{k}={}", q.int(k)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    match replay {
        None => report.error("the worker did not replay query 0".into()),
        Some(r) => {
            let q0 = queries[0];
            if counts(r) != counts(q0) || r.int("hash") != q0.int("hash") {
                report.error(format!(
                    "replay of query 0 differs: [{} hash={}] vs [{} hash={}]",
                    counts(r),
                    r.int("hash"),
                    counts(q0),
                    q0.int("hash")
                ));
            }
        }
    }
    let mut first: BTreeMap<u64, String> = BTreeMap::new();
    for q in queries {
        let c = counts(q);
        let want = first.entry(key(q)).or_insert_with(|| c.clone());
        if *want != c {
            report.error(format!(
                "query {} counters [{c}] differ from an identical earlier query [{want}]",
                q.int("idx")
            ));
        }
    }
    let Some(dir) = work.parent().map(|p| p.join("counts")) else {
        return;
    };
    let Ok(binary) = std::env::current_exe().and_then(std::fs::read) else {
        report.error("cannot read the benchmark binary to key its exact counts".into());
        return;
    };
    let tag = oracle::fingerprint(binary.iter().map(|&b| u32::from(b)));
    let file = dir.join(format!("{}-{seed}-{tag:016x}.txt", kind.name()));
    let mine: Vec<String> = queries
        .iter()
        .map(|q| format!("idx={} {}", q.int("idx"), counts(q)))
        .collect();
    match std::fs::read_to_string(&file) {
        Ok(prev) => {
            let mut compared = 0;
            for (a, b) in prev.lines().zip(&mine) {
                compared += 1;
                if a != b {
                    report.error(format!(
                        "counters differ from an earlier run with seed {seed}: [{a}] vs [{b}]"
                    ));
                }
            }
            report.meta(
                "exact_counts_vs_earlier_run",
                format!("{compared} queries compared"),
            );
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&file, mine.join("\n") + "\n");
            report.meta("exact_counts_vs_earlier_run", "first run with this seed");
        }
    }
}

fn summarize(records: &[Record], queries: &[&Record], report: &mut Report) {
    let setups: Vec<&Record> = records.iter().filter(|r| r.tag == "setup").collect();
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|r| (r.num("import_ns") + r.num("build_ns")) / 1e9)
        .collect();
    report.set("setup_s", median(&setup_s), setup_s.len());
    let lat: Vec<f64> = queries.iter().map(|q| q.num("ns") / 1e6).collect();
    let n = lat.len();
    report.notes.push(format!(
        "query latencies in order (ms): {}",
        lat.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.set("query_p50_ms", median(&lat), n);
    for (q, label) in [(0.9, "query_p90_ms"), (0.99, "query_p99_ms")] {
        match quantile(&lat, q) {
            Some((v, beyond)) if beyond >= 10 => report.set(label, v, n),
            _ => report.notes.push(format!(
                "{label} not reported: fewer than 10 of {n} queries lie beyond it"
            )),
        }
    }
    if let Some(w) = records.iter().find(|r| r.tag == "window") {
        report.set("queries_per_s", n as f64 / (w.num("ns") / 1e9), n);
    }
    if let Some(r) = records.iter().find(|r| r.tag == "rss") {
        report.set("rss_peak_mb", r.num("mb"), 1);
    }
    report.set("failed_frac", report.failed as f64 / n as f64, n);

    // Per-layer figures.
    let per_setup = |key: &str| setups.iter().map(|r| r.num(key)).collect::<Vec<_>>();
    let import_s: Vec<f64> = per_setup("import_ns").iter().map(|ns| ns / 1e9).collect();
    if import_s.iter().any(|&s| s > 0.0) {
        let edges = setups.first().map_or(0.0, |r| r.num("edges"));
        report.set("graph.import_s", median(&import_s), import_s.len());
        report.set(
            "graph.import_medges_per_s",
            edges / 1e6 / median(&import_s),
            import_s.len(),
        );
    }
    let build_s: Vec<f64> = per_setup("build_ns").iter().map(|ns| ns / 1e9).collect();
    report.set("disk-engine.build_s", median(&build_s), build_s.len());
    report.set(
        "disk-engine.build_mb_written",
        median(&per_setup("build_written")) / 1e6,
        setups.len(),
    );
    report.set(
        "disk-engine.partitions",
        median(&per_setup("partitions")),
        setups.len(),
    );
    let steps: Vec<f64> = records
        .iter()
        .filter(|r| r.tag == "step")
        .map(|r| r.num("ns") / 1e6)
        .collect();
    report.set("disk-engine.superstep_p50_ms", median(&steps), steps.len());
    match quantile(&steps, 0.9) {
        Some((v, beyond)) if beyond >= 10 => {
            report.set("disk-engine.superstep_p90_ms", v, steps.len())
        }
        _ => report.notes.push(format!(
            "disk-engine.superstep_p90_ms reads 0: fewer than 10 of {} supersteps lie beyond it",
            steps.len()
        )),
    }
    let per_query = |key: &str| queries.iter().map(|q| q.num(key)).sum::<f64>() / n as f64;
    report.set(
        "disk-engine.scatter_ms_per_query",
        per_query("scatter_ns") / 1e6,
        n,
    );
    report.set(
        "disk-engine.shuffle_ms_per_query",
        per_query("shuffle_ns") / 1e6,
        n,
    );
    report.set(
        "disk-engine.gather_ms_per_query",
        per_query("gather_ns") / 1e6,
        n,
    );
    report.set(
        "disk-engine.stream_wait_ms_per_query",
        per_query("streaming_ns") / 1e6,
        n,
    );
    let steady: f64 = queries.iter().skip(1).map(|q| q.num("allocs")).sum();
    report.set("disk-engine.steady_allocs", steady, n.saturating_sub(1));
    report.set(
        "disk-engine.io_retries",
        queries.iter().map(|q| q.num("io_retries")).sum(),
        n,
    );
    let cap = queries
        .iter()
        .map(|q| q.num("shuffle_capacity_bytes"))
        .fold(0.0, f64::max);
    report.set("disk-engine.shuffle_capacity_mb", cap / 1e6, n);
    report.set(
        "storage.mb_read_per_query",
        per_query("bytes_read") / 1e6,
        n,
    );
    report.set(
        "storage.mb_written_per_query",
        per_query("bytes_written") / 1e6,
        n,
    );
    report.set("storage.chunks_verified_per_query", per_query("chunks"), n);
    report.set(
        "storage.corruptions_detected",
        queries.iter().map(|q| q.num("corruptions")).sum(),
        n,
    );
    let moved = per_query("bytes_read") + per_query("bytes_written");
    report.set(
        "storage.stream_gbps",
        moved / (per_query("ns") / 1e9) / 1e9,
        n,
    );
    if let Some(r) = records.iter().find(|r| r.tag == "membw") {
        report.set("storage.membw_ceiling_gbps", r.num("gbps"), 1);
    }
    let supersteps = per_query("supersteps");
    let k = setups.first().map_or(1.0, |r| r.num("partitions"));
    report.set(
        "core.frontier.skipped_frac",
        per_query("skipped") / (supersteps * k),
        n,
    );
    report.set(
        "core.frontier.sparse_frac",
        per_query("sparse") / (supersteps * k),
        n,
    );
    report.set(
        "core.frontier.medges_per_query",
        per_query("edges") / 1e6,
        n,
    );
    report.set("algorithms.supersteps_per_query", supersteps, n);
    report.set(
        "algorithms.useful_edge_frac",
        per_query("updates") / per_query("edges").max(1.0),
        n,
    );
    if let Some(r) = records.iter().find(|r| r.tag == "tracing") {
        report.set("trace.spans", r.num("spans"), 1);
        let (on, off): (Vec<&Record>, Vec<&Record>) =
            queries.iter().partition(|q| q.int("traced") == 1);
        let ms = |qs: &[&Record]| qs.iter().map(|q| q.num("ns") / 1e6).collect::<Vec<_>>();
        report.overhead(&ms(&on), &ms(&off));
    }
    for r in records.iter().filter(|r| r.tag == "span") {
        report.notes.push(format!(
            "span {:<28} n={:<5} total {:>10.1} ms  self {:>10.1} ms",
            r.fields.get("name").map_or("?", |s| s.as_str()),
            r.int("count"),
            r.num("total_ns") / 1e6,
            r.num("self_ns") / 1e6
        ));
    }
}

// ---------------------------------------------------------------- worker

pub struct WorkerArgs {
    pub kind: Kind,
    pub input: PathBuf,
    pub vertices: usize,
    pub work: PathBuf,
    pub seconds: u64,
    pub traced: bool,
    pub roots: Option<PathBuf>,
}

/// Worker output, one line per record.
fn emit(tag: &str, fields: &[(&str, String)]) {
    let mut line = tag.to_string();
    for (k, v) in fields {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(v);
    }
    println!("{line}");
}

pub fn worker(a: &WorkerArgs) -> Result<(), String> {
    let mut tracer = Tracer::new(a.traced);
    let cfg = engine_config();
    let window = match a.kind {
        Kind::Pagerank => {
            let program = pagerank::Pagerank;
            let mut kept = None;
            for i in 0..SETUPS {
                drop(kept.take()); // the previous engine goes before the next set-up
                let setup = tracer.begin("setup", None, None);
                let xse = a.work.join("graph.xse");
                let _ = std::fs::remove_file(&xse);
                let span = tracer.begin("graph.import", Some(setup), None);
                let t = Instant::now();
                let opts = ImportOptions {
                    num_vertices: Some(a.vertices),
                    ..ImportOptions::default()
                };
                let imported = import(&a.input, &xse, &opts).map_err(|e| format!("import: {e}"))?;
                let import_ns = t.elapsed().as_nanos();
                tracer.end(span);
                let degrees = Arc::new(Mutex::new(vec![0u32; a.vertices]));
                let ingest = {
                    let degrees = Arc::clone(&degrees);
                    EdgeIngest::new(&xse).with_observer(move |chunk| {
                        let mut d = degrees.lock().expect("degree counter poisoned");
                        for e in chunk {
                            d[e.src as usize] += 1;
                        }
                    })
                };
                let (engine, build) =
                    build(&mut tracer, setup, i, &a.work, &ingest, &program, &cfg)?;
                emit(
                    "setup",
                    &[
                        ("i", i.to_string()),
                        ("import_ns", import_ns.to_string()),
                        ("edges", imported.num_edges.to_string()),
                        ("build_ns", build.ns.to_string()),
                        ("build_written", build.bytes_written.to_string()),
                        ("partitions", build.partitions.to_string()),
                    ],
                );
                tracer.end(setup);
                let degrees =
                    std::mem::take(&mut *degrees.lock().expect("degree counter poisoned"));
                kept = Some((engine, degrees));
            }
            let (mut engine, degrees) = kept.expect("at least one set-up");
            let update_bytes = std::mem::size_of::<TargetedUpdate<f32>>();
            let ranks_file = a.work.join("ranks.bin");
            measure(
                &mut tracer,
                &a.work,
                a.seconds,
                update_bytes,
                |_| {
                    let (ranks, stats) =
                        pagerank::run(&mut engine, &program, &degrees, PR_ITERATIONS);
                    (0, ranks, stats)
                },
                |ranks| {
                    // The first answer goes to the driving process in full.
                    if !ranks_file.exists() {
                        let bytes: Vec<u8> = ranks.iter().flat_map(|r| r.to_le_bytes()).collect();
                        std::fs::write(&ranks_file, bytes).expect("write ranks.bin");
                    }
                    let hash = oracle::fingerprint(ranks.iter().map(|r| r.to_bits()));
                    (hash, ranks.len() as u64)
                },
            )?
        }
        Kind::Traversal => {
            let roots: Vec<u32> =
                std::fs::read_to_string(a.roots.as_ref().ok_or("--roots missing")?)
                    .map_err(|e| format!("roots: {e}"))?
                    .lines()
                    .filter_map(|l| l.trim().parse().ok())
                    .collect();
            let program = bfs::Bfs::new();
            let ingest = EdgeIngest::new(&a.input);
            let mut kept = None;
            for i in 0..SETUPS {
                drop(kept.take());
                let setup = tracer.begin("setup", None, None);
                let (engine, build) =
                    build(&mut tracer, setup, i, &a.work, &ingest, &program, &cfg)?;
                emit(
                    "setup",
                    &[
                        ("i", i.to_string()),
                        ("import_ns", "0".into()),
                        ("build_ns", build.ns.to_string()),
                        ("build_written", build.bytes_written.to_string()),
                        ("partitions", build.partitions.to_string()),
                    ],
                );
                tracer.end(setup);
                kept = Some(engine);
            }
            let mut engine = kept.expect("at least one set-up");
            let update_bytes = std::mem::size_of::<TargetedUpdate<u32>>();
            measure(
                &mut tracer,
                &a.work,
                a.seconds,
                update_bytes,
                |idx| {
                    let root = roots[idx as usize % roots.len()];
                    let (levels, stats) = bfs::run(&mut engine, &program, root);
                    (root, levels, stats)
                },
                |levels| {
                    let reached = levels.iter().filter(|&&l| l != bfs::UNREACHED).count() as u64;
                    (oracle::fingerprint(levels.iter().copied()), reached)
                },
            )?
        }
    };
    emit("window", &[("ns", window.to_string())]);
    if a.traced {
        let gbps = xstream_bench::membw::measure(
            sys::nproc(),
            xstream_bench::membw::default_buffer_bytes() / 4,
            4,
            xstream_bench::membw::Pattern::Sequential,
            xstream_bench::membw::Dir::Read,
        ) / 1e9;
        emit("membw", &[("gbps", gbps.to_string())]);
        for (name, t) in tracer.totals() {
            emit(
                "span",
                &[
                    ("name", name.to_string()),
                    ("count", t.count.to_string()),
                    ("total_ns", t.total_ns.to_string()),
                    ("self_ns", t.self_ns.to_string()),
                ],
            );
        }
        emit("tracing", &[("spans", tracer.len().to_string())]);
        tracer
            .write(&a.work.join("trace-worker.jsonl"))
            .map_err(|e| format!("write trace: {e}"))?;
    }
    let rss = sys::peak_rss_mb("self").ok_or("no VmHWM in /proc/self/status")?;
    emit("rss", &[("mb", rss.to_string())]);
    std::io::stdout().flush().map_err(|e| e.to_string())
}

/// What one `DiskEngine::from_ingest` cost.
struct Built {
    ns: u128,
    bytes_written: u64,
    partitions: usize,
}

/// `DiskEngine::from_ingest` into a fresh store.
fn build<P: xstream_core::EdgeProgram>(
    tracer: &mut Tracer,
    setup: SpanId,
    i: usize,
    work: &Path,
    ingest: &EdgeIngest,
    program: &P,
    cfg: &EngineConfig,
) -> Result<(DiskEngine<P>, Built), String> {
    let dir = work.join("store");
    let _ = std::fs::remove_dir_all(&dir);
    let span = tracer.begin("disk-engine.build", Some(setup), None);
    let t = Instant::now();
    let store = StreamStore::new(&dir, cfg.io_unit).map_err(|e| format!("store: {e}"))?;
    let engine = DiskEngine::from_ingest(store, ingest, program, cfg.clone())
        .map_err(|e| format!("build {i}: {e}"))?;
    let ns = t.elapsed().as_nanos();
    tracer.end(span);
    let bytes_written = engine.store().accounting().snapshot().bytes_written();
    let partitions = engine.partitioner().num_partitions();
    Ok((
        engine,
        Built {
            ns,
            bytes_written,
            partitions,
        },
    ))
}

/// Flushes the set-up's files, runs query 0 once as an untimed and
/// unrecorded warm-up, then runs `query(idx)` until `seconds` have
/// passed (at least one query) and emits one record per query and per
/// superstep. Only the `query` call is timed; `digest` turns its
/// answer into a fingerprint and a reached count afterwards. In a traced
/// run every other query runs with tracing paused, so that the tracing
/// overhead is measured against untraced queries on the same engine.
/// After the window, query 0 is replayed once (untimed) as a `replay`
/// record, whose counters and answer must match query 0's. Returns the
/// measured window in nanoseconds.
fn measure<A>(
    tracer: &mut Tracer,
    work: &Path,
    seconds: u64,
    update_bytes: usize,
    mut query: impl FnMut(u64) -> (u32, A, RunStats),
    mut digest: impl FnMut(&A) -> (u64, u64),
) -> Result<u128, String> {
    sys::sync_tree(work).map_err(|e| format!("sync set-up output: {e}"))?;
    let tracing = tracer.enabled();
    tracer.set_enabled(false);
    drop(query(0));
    let start = Instant::now();
    let mut idx = 0u64;
    while idx == 0 || start.elapsed().as_secs_f64() < seconds as f64 {
        let traced = tracing && idx.is_multiple_of(2);
        tracer.set_enabled(traced);
        let span = tracer.begin("query", None, Some(idx));
        let t = Instant::now();
        let (root, answer, stats) = query(idx);
        let ns = t.elapsed().as_nanos();
        tracer.end(span);
        let tot = stats.totals();
        for (key, v) in [
            ("scatter_ns", tot.scatter_ns),
            ("shuffle_ns", tot.shuffle_ns),
            ("gather_ns", tot.gather_ns),
            ("stream_wait_ns", tot.streaming_ns),
            ("edges", tot.edges_streamed),
            ("updates", tot.updates_generated),
        ] {
            tracer.attr(span, key, v as f64);
        }
        for it in &stats.iterations {
            emit(
                "step",
                &[("q", idx.to_string()), ("ns", it.total_ns().to_string())],
            );
        }
        let (hash, reached) = digest(&answer);
        let mut fields = query_fields(idx, root, hash, reached, &tot, &stats, update_bytes);
        fields.push(("ns", ns.to_string()));
        fields.push(("traced", u8::from(traced).to_string()));
        emit("query", &fields);
        idx += 1;
    }
    let window = start.elapsed().as_nanos();
    tracer.set_enabled(tracing);
    let (root, answer, stats) = query(0);
    let (hash, reached) = digest(&answer);
    emit(
        "replay",
        &query_fields(
            0,
            root,
            hash,
            reached,
            &stats.totals(),
            &stats,
            update_bytes,
        ),
    );
    Ok(window)
}

/// The answer and counter fields of one query record.
fn query_fields(
    idx: u64,
    root: u32,
    hash: u64,
    reached: u64,
    tot: &IterationStats,
    stats: &RunStats,
    update_bytes: usize,
) -> Vec<(&'static str, String)> {
    vec![
        ("idx", idx.to_string()),
        ("root", root.to_string()),
        ("hash", hash.to_string()),
        ("reached", reached.to_string()),
        ("supersteps", stats.num_iterations().to_string()),
        ("edges", tot.edges_streamed.to_string()),
        ("updates", tot.updates_generated.to_string()),
        ("bytes_read", tot.bytes_read.to_string()),
        ("bytes_written", tot.bytes_written.to_string()),
        ("chunks", tot.chunks_verified.to_string()),
        ("skipped", tot.partitions_skipped.to_string()),
        ("sparse", tot.partitions_sparse.to_string()),
        ("scatter_ns", tot.scatter_ns.to_string()),
        ("shuffle_ns", tot.shuffle_ns.to_string()),
        ("gather_ns", tot.gather_ns.to_string()),
        ("streaming_ns", tot.streaming_ns.to_string()),
        ("allocs", tot.alloc_count.to_string()),
        ("io_retries", tot.io_retries.to_string()),
        ("corruptions", tot.corruptions_detected.to_string()),
        (
            "shuffle_capacity_bytes",
            (tot.shuffle_capacity as usize * update_bytes).to_string(),
        ),
    ]
}

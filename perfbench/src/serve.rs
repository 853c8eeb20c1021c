//! The `serve-mixed` workload: the real `xstream serve` binary with the
//! memory engine, driven over TCP by a closed loop on two connections.
//!
//! Each connection sends its next line only after the previous reply
//! arrived. Its queries come from its own seeded sequence: a fixed mix
//! of `bfs`, `sssp`, `reach`, `same-component`, `pagerank` top-k and
//! `ping` ([`MIX`]), with traversal roots drawn from a Zipf law and a
//! share of exact repeats of recent queries ([`REPEAT_SHARE`]), which
//! the server's cache can answer. Every reply is checked against the
//! oracle after the window closes.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use xstream_server::json::{self, Json};

use crate::inputs::{self, Rng};
use crate::oracle::{self, Csr};
use crate::report::{median, quantile, Report};
use crate::sys;
use crate::trace::Tracer;

/// Graph size: 2^16 vertices with 16 out-edges each.
const VERTICES: usize = 1 << 16;
const DEGREE: usize = 16;
/// The graph is the same for every seed; the seed picks the queries.
/// Weighted shortest paths on `web` graphs differ in depth from one
/// generator seed to the next, and with one executor every query waits
/// behind the SSSP passes, so a seeded graph moved throughput by a third
/// between seeds.
const GRAPH_SEED: u64 = 0x3eb;
/// Closed-loop connections (no more than the machine's 2 CPUs).
const CONNECTIONS: usize = 2;
/// Set-ups (server starts) per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// PageRank iterations the server runs by default.
const PR_ITERATIONS: usize = 5;
/// Fresh-query shares in percent; they sum to 100. Traversals
/// dominate so that the median reply falls inside the latency mode of
/// traversals that wait behind the other connection's pass. With more
/// fast replies (ping, cache hits, same-component) the median sat where
/// that mode meets the mode of traversals that ran alone, and moved
/// between the two from run to run with the machine's speed.
const MIX: [(Op, u32); 6] = [
    (Op::Bfs, 40),
    (Op::Sssp, 15),
    (Op::Reach, 35),
    (Op::SameComponent, 5),
    (Op::Pagerank, 3),
    (Op::Ping, 2),
];
/// Share of queries that repeat one of the connection's last
/// [`REPEAT_WINDOW`] non-ping queries exactly.
const REPEAT_SHARE: f64 = 0.05;
const REPEAT_WINDOW: usize = 64;
/// Zipf exponent of traversal roots. Below 1 so that no single root
/// carries more than a few percent of the traffic: with s = 1 the
/// hottest root alone draws 8 %, and which root that is changes with
/// the seed.
const ZIPF_S: f64 = 0.8;
/// Longest wait for one reply before the run gives up.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Bfs,
    Sssp,
    Reach,
    SameComponent,
    Pagerank,
    Ping,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Bfs => "bfs",
            Op::Sssp => "sssp",
            Op::Reach => "reach",
            Op::SameComponent => "same-component",
            Op::Pagerank => "pagerank",
            Op::Ping => "ping",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Op::Bfs => "client.bfs",
            Op::Sssp => "client.sssp",
            Op::Reach => "client.reach",
            Op::SameComponent => "client.same-component",
            Op::Pagerank => "client.pagerank",
            Op::Ping => "client.ping",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Query {
    op: Op,
    a: u32,
    b: u32,
}

impl Query {
    fn line(&self, id: u64) -> String {
        let (a, b) = (self.a, self.b);
        match self.op {
            Op::Bfs => format!(r#"{{"op":"bfs","root":{a},"target":{b},"id":{id}}}"#),
            Op::Sssp => format!(r#"{{"op":"sssp","root":{a},"target":{b},"id":{id}}}"#),
            Op::Reach => format!(r#"{{"op":"reach","src":{a},"dst":{b},"id":{id}}}"#),
            Op::SameComponent => format!(r#"{{"op":"same-component","u":{a},"v":{b},"id":{id}}}"#),
            Op::Pagerank => format!(r#"{{"op":"pagerank","k":{a},"id":{id}}}"#),
            Op::Ping => format!(r#"{{"op":"ping","id":{id}}}"#),
        }
    }
}

/// One connection's seeded query sequence.
struct Sequence<'a> {
    rng: Rng,
    zipf_cdf: &'a [f64],
    by_rank: &'a [u32],
    history: Vec<Query>,
}

impl Sequence<'_> {
    /// The next query and whether it repeats an earlier one.
    fn next(&mut self) -> (Query, bool) {
        if !self.history.is_empty() && self.rng.unit() < REPEAT_SHARE {
            let q = self.history[self.rng.below(self.history.len())];
            return (q, true);
        }
        let mut pick = self.rng.below(100) as u32;
        let op = MIX
            .iter()
            .find(|&&(_, share)| {
                let hit = pick < share;
                pick = pick.saturating_sub(share);
                hit
            })
            .map_or(Op::Ping, |&(op, _)| op);
        let u = self.rng.unit();
        let rank = self.zipf_cdf.partition_point(|&c| c < u);
        let root = self.by_rank[rank.min(self.by_rank.len() - 1)];
        let other = self.rng.below(VERTICES) as u32;
        let q = match op {
            Op::Pagerank => Query {
                op,
                a: 1 + self.rng.below(8) as u32,
                b: 0,
            },
            Op::Ping => Query { op, a: 0, b: 0 },
            _ => Query {
                op,
                a: root,
                b: other,
            },
        };
        if op != Op::Ping {
            if self.history.len() == REPEAT_WINDOW {
                self.history.remove(0);
            }
            self.history.push(q);
        }
        (q, false)
    }
}

struct Sample {
    query: Query,
    repeat: bool,
    /// Sent while the tracer was recording.
    traced: bool,
    ns: u64,
    reply: String,
}

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Starts `xstream serve` and waits for its listening line.
    fn start(xstream: &Path, graph: &Path) -> Result<Self, String> {
        let mut child = Command::new(xstream)
            .arg("serve")
            .arg(graph)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start {}: {e}", xstream.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "xstream serve did not report its address: {line:?}"
                ))
            }
        }
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }
}

/// Every exit path, error paths included, ends the server process and
/// waits for it.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("no reply within {REPLY_TIMEOUT:?}: {e}")),
        }
    }

    fn stats(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let reply = self.ask(r#"{"op":"stats"}"#)?;
        let v = json::parse(reply.as_bytes()).map_err(|e| format!("stats reply: {e}"))?;
        match v {
            Json::Obj(fields) => Ok(fields
                .into_iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k, n)))
                .collect()),
            _ => Err("stats reply is not an object".into()),
        }
    }
}

pub fn run(
    xstream: &Path,
    seed: u64,
    seconds: u64,
    traced: bool,
    work: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let graph = inputs::web(VERTICES, DEGREE, GRAPH_SEED);
    let input = work.join("web.xse");
    xstream_graph::fileio::write_edge_file(&input, &graph)
        .map_err(|e| format!("write graph: {e}"))?;
    sys::sync_tree(&input).map_err(|e| format!("sync graph: {e}"))?;
    let csr = Csr::build(VERTICES, graph.edges(), false, true);
    let components = oracle::components(VERTICES, graph.edges());
    let ranks = oracle::pagerank(VERTICES, graph.edges(), PR_ITERATIONS);
    drop(graph);

    // Zipf roots over a seeded permutation, so popular roots differ by seed.
    let mut rng = Rng::new(seed ^ 0x21bf);
    let mut by_rank: Vec<u32> = (0..VERTICES as u32).collect();
    for i in (1..VERTICES).rev() {
        by_rank.swap(i, rng.below(i + 1));
    }
    let zipf_cdf = zipf_cdf(VERTICES, ZIPF_S);

    let origin = Instant::now();
    let mut tracer = Tracer::with_origin(traced, origin);
    let (mut ready, mut warm) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let setup = tracer.begin("setup", None, None);
        let span = tracer.begin("cli.serve_ready", Some(setup), None);
        let t = Instant::now();
        let server = Server::start(xstream, &input)?;
        ready.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        let span = tracer.begin("cli.warm", Some(setup), None);
        let t = Instant::now();
        // One answered query per engine family, with keys the mix
        // never sends (no target, k = 16, u = v), so no measured query
        // is answered from a warm-up's cache entry.
        let mut conn = server.connect()?;
        for line in [
            r#"{"op":"bfs","root":0}"#.to_string(),
            r#"{"op":"sssp","root":0}"#.to_string(),
            r#"{"op":"pagerank","k":16}"#.to_string(),
            r#"{"op":"same-component","u":0,"v":0}"#.to_string(),
        ] {
            let reply = conn.ask(&line)?;
            if !reply.contains(r#""ok":true"#) {
                return Err(format!("warm-up query {line} failed: {reply}"));
            }
        }
        warm.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        tracer.end(setup);
        kept = Some(server);
    }
    let server = kept.expect("at least one set-up");
    let result = measure(&server, seed, seconds, origin, traced, &zipf_cdf, &by_rank);
    let rss = sys::peak_rss_mb(&server.child.id().to_string());
    drop(server);
    let (samples, before, after, window_ns, client_tracers) = result?;
    for t in client_tracers {
        tracer.absorb(t);
    }

    report.attempted = samples.len() as u64;
    let wrong = check(&samples, &csr, &components, &ranks, &mut report);
    report.failed = wrong;

    // End-to-end.
    let setup_s: Vec<f64> = ready.iter().zip(&warm).map(|(r, w)| r + w).collect();
    report.set("setup_s", median(&setup_s), setup_s.len());
    let lat: Vec<f64> = samples.iter().map(|s| s.ns as f64 / 1e6).collect();
    let n = lat.len();
    report.set("query_p50_ms", median(&lat), n);
    for (q, label) in [(0.9, "query_p90_ms"), (0.99, "query_p99_ms")] {
        match quantile(&lat, q) {
            Some((v, beyond)) if beyond >= 10 => report.set(label, v, n),
            _ => report.notes.push(format!(
                "{label} not reported: fewer than 10 of {n} queries lie beyond it"
            )),
        }
    }
    report.set("queries_per_s", n as f64 / (window_ns as f64 / 1e9), n);
    report.set(
        "rss_peak_mb",
        rss.ok_or("no VmHWM for the server process")?,
        1,
    );
    report.set("failed_frac", wrong as f64 / n.max(1) as f64, n);

    // Per-layer.
    for (op, _) in MIX {
        let xs: Vec<f64> = samples
            .iter()
            .filter(|s| s.query.op == op && !s.repeat)
            .map(|s| s.ns as f64 / 1e6)
            .collect();
        report.set(
            &format!("server.{}_p50_ms", op.name()),
            median(&xs),
            xs.len(),
        );
    }
    let repeats: Vec<f64> = samples
        .iter()
        .filter(|s| s.repeat)
        .map(|s| s.ns as f64 / 1e6)
        .collect();
    report.set("server.repeat_p50_ms", median(&repeats), repeats.len());
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let non_ping = samples
        .iter()
        .filter(|s| s.query.op != Op::Ping)
        .count()
        .max(1) as f64;
    report.set("server.cache_hit_frac", delta("cache_hits") / non_ping, n);
    report.set(
        "server.batched_frac",
        delta("batched_queries") / delta("admitted").max(1.0),
        n,
    );
    report.set(
        "server.engine_runs_per_query",
        delta("engine_runs") / non_ping,
        n,
    );
    report.set(
        "server.medges_per_run",
        delta("edges_streamed") / 1e6 / delta("engine_runs").max(1.0),
        n,
    );
    report.set(
        "server.inflight_peak",
        after.get("inflight_peak").copied().unwrap_or(0.0),
        1,
    );
    for k in ["rejected", "timed_out", "parse_errors"] {
        report.set(&format!("server.{k}"), delta(k), n);
    }
    report.set("cli.serve_ready_s", median(&ready), ready.len());
    report.set("cli.warm_s", median(&warm), warm.len());
    report.meta(
        "mix",
        MIX.iter()
            .map(|(op, share)| format!("{}={share}%", op.name()))
            .collect::<Vec<_>>()
            .join(",")
            + &format!(",repeats={:.0}%", REPEAT_SHARE * 100.0),
    );
    if traced {
        report.set("trace.spans", tracer.len() as f64, 1);
        let ms = |traced: bool| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.ns as f64 / 1e6)
                .collect()
        };
        report.overhead(&ms(true), &ms(false));
        for (name, t) in tracer.totals() {
            report.notes.push(format!(
                "span {name:<28} n={:<5} total {:>10.1} ms  self {:>10.1} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        tracer
            .write(&work.join("trace-client.jsonl"))
            .map_err(|e| format!("write trace: {e}"))?;
    }
    Ok(report)
}

/// Cumulative Zipf(`s`) probabilities of ranks `0..n`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect()
}

type Measured = (
    Vec<Sample>,
    BTreeMap<String, f64>,
    BTreeMap<String, f64>,
    u64,
    Vec<Tracer>,
);

/// The measured window: `stats` before, the closed loop on every
/// connection, `stats` after.
fn measure(
    server: &Server,
    seed: u64,
    seconds: u64,
    origin: Instant,
    traced: bool,
    zipf_cdf: &[f64],
    by_rank: &[u32],
) -> Result<Measured, String> {
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| server.connect())
        .collect::<Result<_, _>>()?;
    let before = conns[0].stats()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let per_conn: Vec<Result<(Vec<Sample>, Tracer), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut seq = Sequence {
                        rng: Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(c as u64 + 1)),
                        zipf_cdf,
                        by_rank,
                        history: Vec::with_capacity(REPEAT_WINDOW),
                    };
                    let mut tracer = Tracer::with_origin(traced, origin);
                    let mut samples = Vec::new();
                    let mut id = 0u64;
                    while Instant::now() < deadline {
                        // Every other query runs untraced, to measure
                        // the tracing overhead within the same run.
                        let recorded = traced && id.is_multiple_of(2);
                        tracer.set_enabled(recorded);
                        let (query, repeat) = seq.next();
                        let span = tracer.begin(query.op.span_name(), None, Some(id));
                        let t = Instant::now();
                        let reply = conn.ask(&query.line(id))?;
                        let ns = t.elapsed().as_nanos() as u64;
                        tracer.end(span);
                        samples.push(Sample {
                            query,
                            repeat,
                            traced: recorded,
                            ns,
                            reply,
                        });
                        id += 1;
                    }
                    Ok((samples, tracer))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_ns = start.elapsed().as_nanos() as u64;
    let after = conns[0].stats()?;
    let mut samples = Vec::new();
    let mut tracers = Vec::new();
    for r in per_conn {
        let (s, t) = r?;
        samples.extend(s);
        tracers.push(t);
    }
    Ok((samples, before, after, window_ns, tracers))
}

/// Checks every reply; returns the number of failed queries (error
/// replies and wrong answers).
fn check(
    samples: &[Sample],
    csr: &Csr,
    components: &[u32],
    ranks: &[f64],
    report: &mut Report,
) -> u64 {
    // Visit replies grouped by root, so each root's BFS levels and
    // Dijkstra distances are computed once and only one of each is held.
    let mut order: Vec<&Sample> = samples.iter().collect();
    order.sort_by_key(|s| (s.query.op == Op::Sssp, s.query.a));
    let mut levels: Option<(u32, Vec<u32>, usize)> = None;
    let mut dists: Option<(u32, Vec<f64>, usize)> = None;
    let mut wrong = 0;
    for s in order {
        let q = s.query;
        let verdict = match json::parse(s.reply.as_bytes()) {
            Err(e) => Err(format!("unparseable reply: {e}")),
            Ok(v) if v.get("ok").and_then(Json::as_bool) != Some(true) => {
                Err("error reply".to_string())
            }
            Ok(v) => match q.op {
                Op::Ping => Ok(()),
                Op::Bfs | Op::Reach => {
                    if levels.as_ref().map(|l| l.0) != Some(q.a) {
                        let lv = csr.bfs(q.a);
                        let n = lv.iter().filter(|&&l| l != oracle::UNREACHED).count();
                        levels = Some((q.a, lv, n));
                    }
                    let (_, lv, reached) = levels.as_ref().expect("levels for this root");
                    let target = lv[q.b as usize];
                    if q.op == Op::Bfs {
                        let reached = *reached as f64;
                        let want = (target != oracle::UNREACHED).then_some(target as f64);
                        expect(
                            v.get("reached").and_then(Json::as_f64) == Some(reached),
                            "reached count",
                        )
                        .and(expect(
                            v.get("level").map(Json::as_f64) == Some(want),
                            "target level",
                        ))
                    } else {
                        expect(
                            v.get("reachable").and_then(Json::as_bool)
                                == Some(target != oracle::UNREACHED),
                            "reachable",
                        )
                    }
                }
                Op::Sssp => {
                    if dists.as_ref().map(|d| d.0) != Some(q.a) {
                        let d = csr.dijkstra(q.a);
                        let n = d.iter().filter(|x| x.is_finite()).count();
                        dists = Some((q.a, d, n));
                    }
                    let (_, d, reachable) = dists.as_ref().expect("distances for this root");
                    let want = d[q.b as usize];
                    let got = v.get("dist").map(Json::as_f64);
                    let dist_ok = match got {
                        Some(None) => want.is_infinite(),
                        Some(Some(x)) => want.is_finite() && oracle::close(x, want),
                        None => false,
                    };
                    expect(
                        v.get("reachable").and_then(Json::as_f64) == Some(*reachable as f64),
                        "reachable count",
                    )
                    .and(expect(dist_ok, "distance"))
                }
                Op::SameComponent => {
                    let same = components[q.a as usize] == components[q.b as usize];
                    expect(
                        v.get("same").and_then(Json::as_bool) == Some(same),
                        "same-component",
                    )
                }
                Op::Pagerank => match v.get("top") {
                    Some(Json::Arr(items)) if items.len() == q.a as usize => {
                        let top: Option<Vec<(u32, f64)>> = items
                            .iter()
                            .map(|it| match it {
                                Json::Arr(p) if p.len() == 2 => {
                                    Some((p[0].as_f64()? as u32, p[1].as_f64()?))
                                }
                                _ => None,
                            })
                            .collect();
                        top.ok_or_else(|| "malformed top list".to_string())
                            .and_then(|t| oracle::check_topk(&t, ranks))
                    }
                    _ => Err(format!("top list of length {} expected", q.a)),
                },
            },
        };
        if let Err(e) = verdict {
            wrong += 1;
            report.error(format!(
                "{} {:?} -> {}: {e}",
                q.op.name(),
                (q.a, q.b),
                s.reply
            ));
        }
    }
    wrong
}

fn expect(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("wrong {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_follow_the_mix_and_repeat() {
        let cdf = zipf_cdf(VERTICES, ZIPF_S);
        let by_rank: Vec<u32> = (0..VERTICES as u32).collect();
        let mut seq = Sequence {
            rng: Rng::new(5),
            zipf_cdf: &cdf,
            by_rank: &by_rank,
            history: Vec::new(),
        };
        let draws: Vec<(Query, bool)> = (0..40_000).map(|_| seq.next()).collect();
        let repeats = draws.iter().filter(|d| d.1).count() as f64 / draws.len() as f64;
        assert!((repeats - REPEAT_SHARE).abs() < 0.03, "{repeats}");
        for (op, share) in MIX {
            let got =
                draws.iter().filter(|d| !d.1 && d.0.op == op).count() as f64 / draws.len() as f64;
            let want = share as f64 / 100.0 * (1.0 - REPEAT_SHARE);
            assert!((got - want).abs() < 0.03, "{op:?}: {got} vs {want}");
        }
        assert!(seq.history.len() <= REPEAT_WINDOW);

        // Fresh traversal roots follow the Zipf law: rank r (vertex r
        // here) is drawn with probability (r + 1)^-s / H(n, s).
        let roots: Vec<u32> = draws
            .iter()
            .filter(|d| !d.1 && matches!(d.0.op, Op::Bfs | Op::Sssp | Op::Reach))
            .map(|d| d.0.a)
            .collect();
        let h: f64 = (1..=VERTICES).map(|r| (r as f64).powf(-ZIPF_S)).sum();
        for rank in [0u32, 1, 9] {
            let want = (rank as f64 + 1.0).powf(-ZIPF_S) / h;
            let got = roots.iter().filter(|&&r| r == rank).count() as f64 / roots.len() as f64;
            assert!(
                (got - want).abs() < 0.25 * want,
                "rank {rank}: {got} vs {want}"
            );
        }
        let median = {
            let mut r = roots.clone();
            r.sort_unstable();
            r[r.len() / 2]
        };
        let want = cdf.partition_point(|&c| c < 0.5) as u32;
        assert!(
            median.abs_diff(want) < want / 5,
            "median rank {median} vs {want}"
        );
    }
}

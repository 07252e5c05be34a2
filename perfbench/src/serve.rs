//! `serve-mixed`: a closed loop of 2 `ServeClient` connections against an
//! in-process `Server` on 127.0.0.1:0. Each client alternates a
//! fresh-seed request (cache miss, `base`) with a repeat of one of its
//! earlier requests (cache hit, `fast`). Every request is feedback, 2
//! runs on gnp n = 20000, d≈16. The only workload that exercises the
//! protocol, the result store and the job queue.
//!
//! Two runs, not four: a client's status polls each stall ~88 ms in
//! transport, so a miss whose engine time sits near that quantum needs
//! one poll on some requests and two on others. Four runs took ~90 ms
//! here, which made the miss p75 flip between ~285 and ~380 ms from run
//! to run; two runs keep the engine well inside the first poll.

use std::sync::Arc;

use mis_beeping::json::Json;
use mis_serve::handlers::{dispatch, Reply};
use mis_serve::server::ServerState;
use mis_serve::{cache_key, RunRequest, ServeClient, ServeConfig, Server, ServerHandle};

use crate::harness::{derive_seed, insert_latencies, median, ms, ratio, Report};
use crate::layers::scan;
use crate::trace::{merge, now_ns, Span, Tracer};
use crate::{Args, Metrics, Outcome};

const NODES: usize = 20_000;
const MEAN_DEGREE: f64 = 16.0;
const RUNS: usize = 2;
const CLIENTS: usize = 2;
/// Miss/hit pairs each client completes at least, so each class has at
/// least 40 samples and at least 10 beyond its p75.
const MIN_PAIRS: usize = 20;
/// Miss/hit pairs per client in the traced pass and its untraced twin.
const TRACED_PAIRS: usize = 8;
/// Daemon start-ups timed for `setup_s` (each well under a millisecond,
/// so many, to steady the median).
const SETUPS: usize = 15;
/// Repeats of each in-process measurement in the traced pass.
const IN_PROCESS_REPEATS: usize = 9;

const GRAPH_STREAM: u64 = 1;
const REQUEST_STREAM: u64 = 2;
const PICK_STREAM: u64 = 3;

fn config() -> ServeConfig {
    ServeConfig::default()
        .with_addr("127.0.0.1:0")
        .with_workers(2)
        .with_job_jobs(1)
}

fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn request(graph_seed: u64, run_seed: u64) -> Json {
    obj(vec![
        (
            "graph",
            obj(vec![
                ("generator", Json::Str("gnp".to_owned())),
                ("n", Json::Num(NODES as f64)),
                ("p", Json::Num(MEAN_DEGREE / (NODES - 1) as f64)),
                ("graph_seed", Json::u64_str(graph_seed)),
            ]),
        ),
        (
            "algorithm",
            obj(vec![("family", Json::Str("feedback".to_owned()))]),
        ),
        ("seed", Json::u64_str(run_seed)),
        ("runs", Json::Num(RUNS as f64)),
    ])
}

/// A running daemon and the benchmark's connections to it.
struct Daemon {
    handle: ServerHandle,
    clients: Vec<ServeClient>,
}

/// Spawns a daemon, connects every client and pings it once: the time
/// until the service answers.
fn start() -> Result<Daemon, String> {
    let handle = Server::spawn(config()).map_err(|e| format!("cannot start mis-serve: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let mut client =
            ServeClient::connect(handle.addr()).map_err(|e| format!("cannot connect: {e}"))?;
        if !client.ping().map_err(|e| format!("ping failed: {e}"))? {
            return Err("daemon did not answer ping".to_owned());
        }
        clients.push(client);
    }
    Ok(Daemon { handle, clients })
}

fn stop(mut daemon: Daemon) -> Result<(), String> {
    daemon.clients[0]
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    drop(daemon.clients);
    daemon.handle.join();
    Ok(())
}

/// One submit → wait → fetch round trip, as `ServeClient::run_to_completion`
/// makes it, with a span around each call.
struct Call {
    ok: bool,
    total_ns: u64,
    submit_ns: u64,
    wait_ns: u64,
    fetch_ns: u64,
    /// The payload bytes spliced into the fetch reply.
    result: Option<String>,
}

/// The `result` bytes of a successful fetch reply (always its last field).
fn fetched_result(line: &str) -> Option<String> {
    if !line.starts_with("{\"ok\":true,") {
        return None;
    }
    let at = line.find(",\"result\":")?;
    let payload = line[at + ",\"result\":".len()..].strip_suffix('}')?;
    Some(payload.to_owned())
}

fn round_trip(client: &mut ServeClient, tr: &mut Tracer, request: &Json, cached: bool) -> Call {
    let start = now_ns();
    let mut call = Call {
        ok: false,
        total_ns: 0,
        submit_ns: 0,
        wait_ns: 0,
        fetch_ns: 0,
        result: None,
    };
    let open = tr.begin("serve.submit");
    let ack = client.submit(request);
    call.submit_ns = tr.end(open);
    let job = match &ack {
        Ok(ack) if ack.get("ok") == Some(&Json::Bool(true)) => {
            ack.get("job").and_then(Json::as_str).map(str::to_owned)
        }
        _ => None,
    };
    let cached_ok = ack.ok().and_then(|a| a.get("cached").cloned()) == Some(Json::Bool(cached));
    if let Some(job) = job {
        let open = tr.begin("serve.wait");
        let status = client.wait(&job);
        call.wait_ns = tr.end(open);
        let done = status
            .ok()
            .is_some_and(|s| s.get("state").and_then(Json::as_str) == Some("done"));
        let open = tr.begin("serve.fetch");
        let line = client.fetch_line(&job);
        call.fetch_ns = tr.end(open);
        call.result = line.ok().as_deref().and_then(fetched_result);
        call.ok = cached_ok && done && call.result.is_some();
    }
    call.total_ns = now_ns() - start;
    call
}

/// When a client's closed loop ends.
#[derive(Clone, Copy)]
enum Stop {
    /// After the deadline, once `MIN_PAIRS` pairs are done.
    Deadline(u64),
    /// After exactly this many pairs.
    Pairs(usize),
}

#[derive(Default)]
struct ClientLog {
    hits: Vec<Call>,
    misses: Vec<Call>,
    wall_ns: u64,
    report: Report,
}

fn client_loop(
    client: &mut ServeClient,
    c: usize,
    seed: u64,
    graph_seed: u64,
    stop: Stop,
    tr: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut sent: Vec<(Json, Option<String>)> = Vec::new();
    let start = now_ns();
    let root = tr.begin("bench.client");
    for k in 0.. {
        let done = match stop {
            Stop::Deadline(t) => k >= MIN_PAIRS && now_ns() >= t,
            Stop::Pairs(n) => k >= n,
        };
        if done {
            break;
        }
        let id = (c * 1_000_000 + 2 * k) as u64;
        tr.set_run(id);
        let fresh = request(
            graph_seed,
            derive_seed(seed, REQUEST_STREAM, c as u64, k as u64),
        );
        let miss = round_trip(client, tr, &fresh, false);
        log.report.check(miss.ok);
        sent.push((fresh, miss.result.clone()));
        log.misses.push(miss);

        tr.set_run(id + 1);
        let pick = derive_seed(seed, PICK_STREAM, c as u64, k as u64) % sent.len() as u64;
        let (repeat, expected) = &sent[pick as usize];
        let hit = round_trip(client, tr, repeat, true);
        log.report
            .check(hit.ok && expected.is_some() && hit.result == *expected);
        log.hits.push(hit);
    }
    tr.end(root);
    log.wall_ns = now_ns() - start;
    log
}

/// Runs every client's closed loop on its own thread; returns the logs
/// and (when `traced`) each thread's spans.
fn closed_loop(
    daemon: &mut Daemon,
    seed: u64,
    graph_seed: u64,
    stop: Stop,
    traced: bool,
) -> (Vec<ClientLog>, Vec<Vec<Span>>) {
    std::thread::scope(|scope| {
        let threads: Vec<_> = daemon
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut tr = if traced {
                        Tracer::enabled()
                    } else {
                        Tracer::disabled()
                    };
                    let log = client_loop(client, c, seed, graph_seed, stop, &mut tr);
                    (log, tr.into_spans())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .unzip()
    })
}

fn absorb(report: &mut Report, logs: &[ClientLog]) {
    for log in logs {
        report.attempted += log.report.attempted;
        report.failed += log.report.failed;
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let graph_seed = derive_seed(args.seed, GRAPH_STREAM, 0, 0);
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            stop(previous)?;
        }
        let t = now_ns();
        daemon = Some(start()?);
        setup.push((now_ns() - t) as f64 / 1e9);
    }
    let mut daemon = daemon.expect("at least one setup");
    let mut out = Outcome::default();
    let m = &mut out.metrics;
    if args.trace {
        stop(daemon)?;
        out.spans = traced(args.seed, graph_seed, &mut out.report, m)?;
    } else {
        let t = now_ns();
        let stop_at = Stop::Deadline(args.deadline_ns());
        let (logs, _) = closed_loop(&mut daemon, args.seed, graph_seed, stop_at, false);
        let wall_ns = now_ns() - t;
        stop(daemon)?;
        absorb(&mut out.report, &logs);
        let class = |f: fn(&ClientLog) -> &Vec<Call>| -> Vec<f64> {
            logs.iter().flat_map(f).map(|c| ms(c.total_ns)).collect()
        };
        let (hits, misses) = (class(|l| &l.hits), class(|l| &l.misses));
        insert_latencies(m, &misses, &hits);
        let requests = (hits.len() + misses.len()) as f64;
        m.insert("work_per_s", ratio(requests, wall_ns as f64 / 1e9));
        m.insert("setup_s", median(&setup));
        out.samples = vec![("base (misses)", misses.len()), ("fast (hits)", hits.len())];
    }
    Ok(out)
}

/// Dispatches `line` in-process and returns the single reply line.
fn dispatch_line(state: &Arc<ServerState>, line: &str) -> Option<String> {
    match dispatch(state, line) {
        Reply::Single(text) => Some(text),
        _ => None,
    }
}

/// A hit's three commands (submit, status, fetch) dispatched in-process
/// on a bound-but-idle daemon state whose store already holds the
/// payload: the daemon's own share of a hit. Returns the fetched payload.
fn dispatch_hit(state: &Arc<ServerState>, request: &Json) -> Option<String> {
    let submit = obj(vec![
        ("cmd", Json::Str("submit".to_owned())),
        ("request", request.clone()),
    ]);
    let ack = Json::parse(&dispatch_line(state, &submit.render())?).ok()?;
    let job = ack.get("job")?.clone();
    let status = obj(vec![
        ("cmd", Json::Str("status".to_owned())),
        ("job", job.clone()),
    ]);
    dispatch_line(state, &status.render())?;
    let fetch = obj(vec![("cmd", Json::Str("fetch".to_owned())), ("job", job)]);
    fetched_result(&dispatch_line(state, &fetch.render())?)
}

/// An untraced closed loop of `TRACED_PAIRS` pairs per client, then the
/// same requests traced on a fresh daemon: `serve.submit`/`serve.wait`/
/// `serve.fetch` per call on each client thread. Then, on the main
/// thread, the daemon's own work for a hit measured in-process:
/// `graph.build` + `graph.scan` of the request graph, `serve.key` (graph
/// digest and cache key) and `serve.dispatch` (a hit's three commands
/// through `handlers::dispatch`), and `serve.stats`.
fn traced(
    seed: u64,
    graph_seed: u64,
    report: &mut Report,
    m: &mut Metrics,
) -> Result<Vec<Span>, String> {
    let mut twin = start()?;
    let (logs, _) = closed_loop(
        &mut twin,
        seed,
        graph_seed,
        Stop::Pairs(TRACED_PAIRS),
        false,
    );
    stop(twin)?;
    absorb(report, &logs);
    let untraced_ns: u64 = logs.iter().map(|l| l.wall_ns).sum();

    let mut daemon = start()?;
    let (logs, mut traces) = closed_loop(
        &mut daemon,
        seed,
        graph_seed,
        Stop::Pairs(TRACED_PAIRS),
        true,
    );
    absorb(report, &logs);
    let traced_ns: u64 = logs.iter().map(|l| l.wall_ns).sum();

    let mut tr = Tracer::enabled();
    let root = tr.begin("bench.serve");
    let probe = request(graph_seed, derive_seed(seed, REQUEST_STREAM, 0, 0));
    let parsed = RunRequest::parse(&probe).map_err(|e| format!("request rejected: {e}"))?;
    let (mut build, mut key, mut dispatched) = (Vec::new(), Vec::new(), Vec::new());
    let mut graph = None;
    for _ in 0..IN_PROCESS_REPEATS {
        let (g, ns) = tr.span("graph.build", || parsed.graph.build());
        build.push(ms(ns));
        graph = Some(g.map_err(|e| format!("request graph rejected: {e}"))?);
    }
    let graph = graph.expect("at least one build");
    let (_, scan_ns) = tr.span("graph.scan", || scan(&graph));
    let mut cache_key_text = String::new();
    for _ in 0..IN_PROCESS_REPEATS {
        let (k, ns) = tr.span("serve.key", || cache_key(&parsed, &graph));
        key.push(ms(ns));
        cache_key_text = k;
    }
    // The first miss of client 0 fetched the probe request's payload.
    let payload = logs[0].misses[0].result.clone().unwrap_or_default();
    let idle = Server::bind(config()).map_err(|e| format!("cannot bind: {e}"))?;
    let state = idle.state();
    state.store.insert(&cache_key_text, payload.clone());
    for _ in 0..IN_PROCESS_REPEATS {
        let (fetched, ns) = tr.span("serve.dispatch", || dispatch_hit(&state, &probe));
        report.check(fetched.as_deref() == Some(payload.as_str()) && !payload.is_empty());
        dispatched.push(ms(ns));
    }
    let (stats, _) = tr.span("serve.stats", || daemon.clients[0].cache_stats());
    tr.end(root);
    stop(daemon)?;
    drop(idle);

    let stats = stats.map_err(|e| format!("cache_stats failed: {e}"))?;
    let counter = |path: &[&str]| -> f64 {
        let mut j = Some(&stats);
        for key in path {
            j = j.and_then(|j| j.get(key));
        }
        j.and_then(|j| j.as_f64().or_else(|| j.as_u64_str().map(|v| v as f64)))
            .unwrap_or(f64::NAN)
    };
    let (hits, misses) = (counter(&["stats", "hits"]), counter(&["stats", "misses"]));
    let per_call = |calls: Vec<&Call>, f: fn(&Call) -> u64| -> f64 {
        median(&calls.into_iter().map(|c| ms(f(c))).collect::<Vec<_>>())
    };
    let hit_calls = || logs.iter().flat_map(|l| &l.hits).collect::<Vec<_>>();
    let miss_calls = || logs.iter().flat_map(|l| &l.misses).collect::<Vec<_>>();
    let dispatch_hit_ms = median(&dispatched);
    m.insert("graph.build_ms", median(&build));
    m.insert("graph.scan_ms", ms(scan_ns));
    m.insert("serve.key_ms", median(&key));
    m.insert("serve.submit_ms", per_call(hit_calls(), |c| c.submit_ns));
    m.insert("serve.wait_ms", per_call(hit_calls(), |c| c.wait_ns));
    m.insert("serve.fetch_ms", per_call(hit_calls(), |c| c.fetch_ns));
    m.insert("serve.miss_wait_ms", per_call(miss_calls(), |c| c.wait_ns));
    m.insert("serve.dispatch_hit_ms", dispatch_hit_ms);
    m.insert(
        "serve.transport_ms",
        per_call(hit_calls(), |c| c.total_ns) - dispatch_hit_ms,
    );
    m.insert("serve.engine_runs", counter(&["engine_runs"]));
    m.insert("serve.hit_ratio", ratio(hits, hits + misses));
    m.insert("trace.overhead_ms", ms(traced_ns) - ms(untraced_ns));
    traces.push(tr.into_spans());
    Ok(merge(traces))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetched_result_is_the_spliced_payload() {
        let line = r#"{"ok":true,"cached":true,"job":"3","key":"ab","result":{"runs":[1,2]}}"#;
        assert_eq!(fetched_result(line).as_deref(), Some(r#"{"runs":[1,2]}"#));
        assert_eq!(fetched_result(r#"{"ok":false,"error":"x"}"#), None);
    }
}

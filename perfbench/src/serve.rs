//! serve-churn: one `ServeSession` over Expo2D driven through the daemon's
//! strict-JSON line protocol (`handle_line`) by a seeded request stream of
//! ε-queries, whole joins, and streaming inserts and removes — the only
//! workload with writes beside reads and with latency under load.
//!
//! The same stream is replayed unpaced (closed loop: capacity), before
//! and after it is replayed paced by its Poisson schedule from one thread
//! (open loop: latency from each request's due time). The client sends no flushes of its own: queries
//! wait in the session's admission queue until the next write, a barrier
//! that runs them first, as the repository's `serve` experiment drives the
//! session. Every answer of every replay is checked against an answer key
//! built by replaying the stream on a mirror dataset with swap-remove
//! semantics.

use std::time::{Duration, Instant};

use epsgrid::Point;
use simjoin::{SelfJoinConfig, ServeConfig, ServeReport, ServeSession};
use sj_telemetry::json::{self, JsonValue};
use sj_telemetry::JsonTelemetry;
use superego::super_ego_join;

use crate::batch::{same_model, superego_config, table_batching};
use crate::check::{brute_neighbors, mix, Rng};
use crate::report::{minor_faults, peak_rss_mb, Outcome};
use crate::stats::{due_time_latencies, median, percentile, samples_beyond};
use crate::trace::{write_pass, ExecutorTimes, JoinLayers, Span};
use crate::{generate, Args, SETUP_REPEATS};

const DATASET: &str = "Expo2D2M";
const POINTS: usize = 5_000;
/// The ε the session's grid is maintained at.
const EPS: f32 = 0.2;
/// A second ε: each launch at it builds a throwaway grid.
const SECOND_EPS: f32 = 0.1;
/// Host threads inside each launch.
pub const HOST_JOBS: usize = 1;
/// Open-loop arrival rate, requests per second of schedule time: about
/// 40% of `capacity_rps` at seed 1 on a 2-vCPU x86-64 virtual machine,
/// where four runs measured 480 to 650 req/s.
const RATE_RPS: f64 = 220.0;
/// Client requests per replay at least, so that p99 has ten samples
/// beyond it.
const MIN_REQUESTS: usize = 1000;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Query,
    SecondQuery,
    Join,
    Insert,
    Remove,
}

/// The request mix, a fixed interleaving repeated every 200 requests: a
/// write every 20th request (inserts and removes alternating, 5%), a
/// query at the second ε every 25th (4%), a whole join every 100th (1%),
/// and queries at the maintained ε in between (90%). Each write is a
/// barrier that runs the queries queued since the last one, one launch
/// per ε, so at most 19 requests wait in the queue, below its default
/// capacity of 64, and the last request of a stream of whole blocks is a
/// write. Every seed sends the same kinds in the same order and makes the
/// same launches; seeds vary the dataset, the arrival times, the point ids
/// and the inserted points. A random order would change the launch count,
/// and so every end-to-end metric, by ±7% between seeds.
fn kind_at(i: usize) -> Kind {
    let k = i % BLOCK_LEN;
    if k % 20 == 19 {
        if k % 40 == 19 {
            Kind::Insert
        } else {
            Kind::Remove
        }
    } else if k % 25 == 12 {
        Kind::SecondQuery
    } else if k % 100 == 50 {
        Kind::Join
    } else {
        Kind::Query
    }
}
const BLOCK_LEN: usize = 200;

/// One request line of the stream.
#[derive(Debug, Clone, PartialEq)]
enum Req {
    Query {
        pid: u32,
        eps: f32,
    },
    Join {
        eps: f32,
    },
    Insert(Point<2>),
    Remove(u32),
    /// A flush the traced replay sends before each write; not a client
    /// request.
    Flush,
}

impl Req {
    fn line(&self) -> String {
        match self {
            Req::Query { pid, eps } => format!(
                "{{\"op\": \"query\", \"point_id\": {pid}, \"eps\": {}}}",
                f64::from(*eps)
            ),
            Req::Join { eps } => format!("{{\"op\": \"join\", \"eps\": {}}}", f64::from(*eps)),
            Req::Insert([x, y]) => format!(
                "{{\"op\": \"insert\", \"point\": [{}, {}]}}",
                f64::from(*x),
                f64::from(*y)
            ),
            Req::Remove(pid) => format!("{{\"op\": \"remove\", \"point_id\": {pid}}}"),
            Req::Flush => "{\"op\": \"flush\"}".into(),
        }
    }

    fn is_client(&self) -> bool {
        !matches!(self, Req::Flush)
    }

    fn is_write(&self) -> bool {
        matches!(self, Req::Insert(_) | Req::Remove(_))
    }
}

/// A request with the schedule time it is due at.
#[derive(Debug, Clone)]
struct Sent {
    due_s: f64,
    req: Req,
    line: String,
}

/// Insert requests among the first `requests` of the mix.
fn inserts_in(requests: usize) -> usize {
    (0..requests).filter(|&i| kind_at(i) == Kind::Insert).count()
}

/// The seeded request stream: `requests` requests of the [`kind_at`] mix
/// with Poisson arrivals at `rate`, over a dataset of `points` points, each
/// insert sending the next point of `inserts`. Ids always name a point of
/// the dataset as it will be when the request runs.
fn stream(
    seed: u64,
    points: usize,
    inserts: &[Point<2>],
    requests: usize,
    rate: f64,
) -> Vec<Sent> {
    let mut rng = Rng::new(mix(seed));
    let mut inserts = inserts.iter();
    let (mut size, mut t) = (points, 0.0f64);
    (0..requests)
        .map(|i| {
            t += -(1.0 - rng.unit()).ln() / rate;
            let req = match kind_at(i) {
                Kind::Query => Req::Query {
                    pid: rng.below(size) as u32,
                    eps: EPS,
                },
                Kind::SecondQuery => Req::Query {
                    pid: rng.below(size) as u32,
                    eps: SECOND_EPS,
                },
                Kind::Join => Req::Join { eps: EPS },
                Kind::Insert => {
                    size += 1;
                    Req::Insert(*inserts.next().expect("a point for every insert"))
                }
                Kind::Remove => {
                    size -= 1;
                    Req::Remove(rng.below(size + 1) as u32)
                }
            };
            Sent {
                due_s: t,
                line: req.line(),
                req,
            }
        })
        .collect()
}

/// `stream` with a flush before each write, for the traced replay: the
/// flush runs the queries the write would have run first, so the launches
/// and their model seconds stay the same, and the write's own call then
/// times the grid mutation alone.
fn split_barriers(stream: &[Sent]) -> Vec<Sent> {
    let mut out = Vec::with_capacity(stream.len() * 21 / 20 + 1);
    for s in stream {
        if s.req.is_write() {
            out.push(Sent {
                due_s: s.due_s,
                line: Req::Flush.line(),
                req: Req::Flush,
            });
        }
        out.push(s.clone());
    }
    out
}

/// What a client request must be answered with.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Neighbors(Vec<u32>),
    Pairs(u64),
    Inserted(u32),
    Removed(Option<u32>),
}

/// The answer key: replays `stream` on a mirror of the dataset with
/// swap-remove semantics. Queries are answered by a linear scan, joins
/// by SUPER-EGO; `None` for flushes.
fn answer_key(points: &[Point<2>], stream: &[Sent]) -> Vec<Option<Answer>> {
    let mut mirror = points.to_vec();
    stream
        .iter()
        .map(|s| match s.req {
            Req::Query { pid, eps } => Some(Answer::Neighbors(brute_neighbors(
                &mirror,
                pid as usize,
                eps,
            ))),
            Req::Join { eps } => Some(Answer::Pairs(
                super_ego_join(&mirror, &superego_config(eps)).pairs.len() as u64,
            )),
            Req::Insert(p) => {
                mirror.push(p);
                Some(Answer::Inserted(mirror.len() as u32 - 1))
            }
            Req::Remove(pid) => {
                let last = mirror.len() as u32 - 1;
                mirror.swap_remove(pid as usize);
                Some(Answer::Removed((pid != last).then_some(last)))
            }
            Req::Flush => None,
        })
        .collect()
}

/// The answer a response line carries, or `None` for an error reply.
fn parse_answer(v: &JsonValue) -> Option<Answer> {
    if !v.get("ok")?.as_bool()? {
        return None;
    }
    let u32_of = |key: &str| v.get(key)?.as_u64().and_then(|x| u32::try_from(x).ok());
    Some(match v.get("op")?.as_str()? {
        "query" => Answer::Neighbors(
            v.get("neighbors")?
                .as_array()?
                .iter()
                .map(|n| n.as_u64().and_then(|x| u32::try_from(x).ok()))
                .collect::<Option<_>>()?,
        ),
        "join" => Answer::Pairs(v.get("pairs")?.as_u64()?),
        "insert" => Answer::Inserted(u32_of("point_id")?),
        "remove" => Answer::Removed(u32_of("moved_id")),
        _ => return None,
    })
}

/// One `handle_line` call of a replay.
#[derive(Debug)]
struct Call {
    /// When the line was sent, from the replay's start.
    sent_s: f64,
    /// When the call returned.
    done_s: f64,
    /// Response lines it returned.
    lines: Vec<String>,
}

/// Sends every line of `stream` to `session`. Paced, each line waits for
/// its due time (an open loop from one thread); unpaced, each goes as soon
/// as the previous call returns (a closed loop with one client).
///
/// The paced wait spins instead of sleeping: on a virtual machine a
/// sleeping thread's CPU can be handed to another guest, and waking it
/// again added a varying delay that moved p99 by ±6% between runs of one
/// seed (±3% spinning).
fn replay(session: &mut ServeSession<'_, 2>, stream: &[Sent], paced: bool) -> Vec<Call> {
    let mut calls = Vec::with_capacity(stream.len());
    let start = Instant::now();
    for s in stream {
        if paced {
            let due = Duration::from_secs_f64(s.due_s);
            while start.elapsed() < due {
                std::hint::spin_loop();
            }
        }
        let sent_s = start.elapsed().as_secs_f64();
        let lines = session.handle_line(&s.line);
        calls.push(Call {
            sent_s,
            done_s: start.elapsed().as_secs_f64(),
            lines,
        });
    }
    calls
}

/// A replay's responses matched to its requests. The session numbers
/// requests in arrival order, so a response's id is its request's index
/// in the stream.
#[derive(Debug)]
struct Replayed {
    /// Completion time of each client request answered correctly.
    done_s: Vec<Option<f64>>,
    /// Whether each call's responses include a launched (uncached) answer.
    launched: Vec<bool>,
    /// Hash of every response line in order.
    digest: u64,
}

fn check_replay(stream: &[Sent], key: &[Option<Answer>], calls: &[Call]) -> Replayed {
    let mut done_s = vec![None; stream.len()];
    let mut answered: Vec<Option<Answer>> = vec![None; stream.len()];
    let mut launched = vec![false; calls.len()];
    let mut digest = 0u64;
    for (ci, call) in calls.iter().enumerate() {
        for line in &call.lines {
            digest = mix(digest ^ line.bytes().fold(0u64, |h, b| mix(h ^ u64::from(b))));
            let Ok(v) = json::parse(line) else { continue };
            let Some(id) = v.get("id").and_then(JsonValue::as_u64) else {
                continue;
            };
            let Some(slot) = usize::try_from(id).ok().filter(|&i| i < stream.len()) else {
                continue;
            };
            if v.get("cache_hit").and_then(JsonValue::as_bool) == Some(false) {
                launched[ci] = true;
            }
            if answered[slot].is_none() {
                answered[slot] = parse_answer(&v);
                done_s[slot] = Some(call.done_s);
            }
        }
    }
    for (i, expected) in key.iter().enumerate() {
        if expected.is_none() || answered[i] != *expected {
            done_s[i] = None;
        }
    }
    Replayed {
        done_s,
        launched,
        digest,
    }
}

/// Replays `stream` on `session`, checks every client answer against
/// `key`, and counts each in `out`. Returns the calls, the checked replay,
/// its wall time and the session's report.
fn run_replay(
    session: &mut ServeSession<'_, 2>,
    stream: &[Sent],
    key: &[Option<Answer>],
    paced: bool,
    out: &mut Outcome,
) -> (Vec<Call>, Replayed, f64, ServeReport) {
    let calls = replay(session, stream, paced);
    let wall_s = calls.last().map_or(0.0, |c| c.done_s);
    let checked = check_replay(stream, key, &calls);
    for (s, done) in stream.iter().zip(&checked.done_s) {
        if s.req.is_client() {
            out.check(done.is_some(), || {
                format!("request {:?} answered wrong", s.line)
            });
        }
    }
    (calls, checked, wall_s, session.report())
}

/// Wall time of each [`BLOCK_LEN`]-request block of an unpaced replay,
/// from the end of the block before it to the end of its last call; the
/// blocks add up to the replay's wall time.
fn block_walls(calls: &[Call]) -> Vec<f64> {
    let mut prev = 0.0;
    calls
        .chunks(BLOCK_LEN)
        .filter_map(|block| block.last())
        .map(|last| {
            let wall = last.done_s - prev;
            prev = last.done_s;
            wall
        })
        .collect()
}

/// Runs the workload and records its metrics in `out`.
pub fn run(args: &Args, out: &mut Outcome) {
    let requests = MIN_REQUESTS
        .max((RATE_RPS * args.seconds).ceil() as usize)
        .next_multiple_of(BLOCK_LEN);
    let config = SelfJoinConfig::optimized(EPS)
        .with_batching(table_batching())
        .with_host_jobs(HOST_JOBS);
    let sink = JsonTelemetry::new("perfbench");

    // Set-up, repeated for a median: the dataset and the points to insert
    // (the first `POINTS` of one seeded draw, then the rest), the stream,
    // and a fresh session for each replay (warm-up, closed loop, open loop,
    // closed loop again, traced).
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mut pts: Vec<Point<2>> = generate(DATASET, POINTS + inserts_in(requests), args.seed);
        generate_s.push(t.elapsed().as_secs_f64());
        let inserts = pts.split_off(POINTS);
        let sent = stream(args.seed, pts.len(), &inserts, requests, RATE_RPS);
        let sessions: Result<Vec<ServeSession<'_, 2>>, _> = (0..5)
            .map(|_| ServeSession::new(pts.clone(), config.clone(), ServeConfig::default()))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some((pts, sent, sessions));
    }
    let (pts, sent, sessions) = inputs.expect("set-up runs at least once");
    let mut sessions = match sessions {
        Ok(s) => s.into_iter(),
        Err(e) => {
            out.check(false, || format!("ServeSession::new: {e}"));
            return;
        }
    };
    let mut session = || sessions.next().expect("a session per replay");
    let key = answer_key(&pts, &sent);

    let (_, warm, warm_wall, report) = run_replay(&mut session(), &sent, &key, false, out);
    let model_s = report.execute_model_s;
    let same_replay = |which: &str, r: &Replayed, report: ServeReport, out: &mut Outcome| {
        same_model(out, which, model_s, report.execute_model_s);
        out.check(r.digest == warm.digest, || {
            format!("{which} transcript differs from the warm-up replay's")
        });
    };
    // The closed loop runs before and after the open loop, so that its
    // blocks sample the host's speed across the whole run.
    let faults = minor_faults();
    let (calls, closed, closed_wall, closed_report) =
        run_replay(&mut session(), &sent, &key, false, out);
    let faults_per_replay = minor_faults() - faults;
    same_replay("closed-loop", &closed, closed_report, out);
    let (open_calls, open, _, open_report) = run_replay(&mut session(), &sent, &key, true, out);
    same_replay("open-loop", &open, open_report, out);
    let (calls_after, closed_after, closed_wall_after, report_after) =
        run_replay(&mut session(), &sent, &key, false, out);
    same_replay("closed-loop", &closed_after, report_after, out);
    // Every block sends the same mix, so the median block of both replays
    // is the replay's pace with the host's passing slow spells left out.
    let mut blocks = block_walls(&calls);
    blocks.extend(block_walls(&calls_after));
    let block_s = median(&blocks);
    let wall_s = block_s * (requests / BLOCK_LEN) as f64;

    let due: Vec<f64> = sent.iter().map(|s| s.due_s).collect();
    let latency = due_time_latencies(&due, &open.done_s);
    let lag: Vec<f64> = open_calls
        .iter()
        .zip(&due)
        .map(|(call, due)| call.sent_s - due)
        .collect();
    out.set("wall_s", wall_s);
    out.set("model_s", model_s);
    out.set("p50_ms", percentile(&latency, 0.50) * 1e3);
    out.set("serve.latency_ms_p99", percentile(&latency, 0.99) * 1e3);
    out.set("capacity_rps", BLOCK_LEN as f64 / block_s);
    out.set("setup_s", median(&setup_s) + warm_wall);
    out.set("sjdata.generate_s", median(&generate_s));
    out.set("serve.gen_lag_ms_p99", percentile(&lag, 0.99) * 1e3);
    out.set("host.minor_faults", faults_per_replay as f64);

    println!(
        "# inputs: {} points of {DATASET}, maintained eps {EPS}, second eps {SECOND_EPS}; \
         {requests} requests, open loop at {RATE_RPS} req/s, writes are the only barriers",
        pts.len(),
    );
    println!(
        "# replays: warm-up {warm_wall} s, closed loop {closed_wall} s with {faults_per_replay} page faults \
         and {closed_wall_after} s after the open loop, median {BLOCK_LEN}-request block of both \
         {block_s} s; {} launches, {} cache hits, {} full rebuilds; \
         open loop {} samples, {} beyond p99",
        report.launches,
        report.cache_hits,
        report.full_rebuilds,
        latency.len(),
        samples_beyond(latency.len(), 0.99)
    );
    println!(
        "# open-loop latency ms: p50 {:.2} p90 {:.2} p95 {:.2} p99 {:.2} max {:.2}; generator lag p99 {:.2}",
        percentile(&latency, 0.50) * 1e3,
        percentile(&latency, 0.90) * 1e3,
        percentile(&latency, 0.95) * 1e3,
        percentile(&latency, 0.99) * 1e3,
        percentile(&latency, 1.0) * 1e3,
        percentile(&lag, 0.99) * 1e3
    );
    println!(
        "# digest: model_s {:#018x} transcript {:#018x}",
        model_s.to_bits(),
        warm.digest
    );

    if args.trace {
        let traced_sent = split_barriers(&sent);
        let traced_key = answer_key(&pts, &traced_sent);
        let (calls, traced, traced_wall, r) = run_replay(
            &mut session().with_telemetry(&sink),
            &traced_sent,
            &traced_key,
            false,
            out,
        );
        same_model(out, "traced", model_s, r.execute_model_s);
        let ms = |i: usize| (calls[i].done_s - calls[i].sent_s) * 1e3;
        let writes: Vec<f64> = (0..calls.len())
            .filter(|&i| traced_sent[i].req.is_write())
            .map(ms)
            .collect();
        let launches: Vec<f64> = (0..calls.len())
            .filter(|&i| traced.launched[i])
            .map(ms)
            .collect();
        out.set("epsgrid.mutate_ms_p50", percentile(&writes, 0.50));
        out.set("epsgrid.mutate_ms_p99", percentile(&writes, 0.99));
        out.set("epsgrid.requantified_cells", r.requantified_cells as f64);
        out.set("epsgrid.full_rebuilds", r.full_rebuilds as f64);
        out.set("serve.launch_ms_p50", percentile(&launches, 0.50));
        out.set("serve.launch_ms_p99", percentile(&launches, 0.99));
        out.set(
            "serve.requests_per_launch",
            (r.queries + r.joins - r.cache_hits) as f64 / r.launches.max(1) as f64,
        );
        out.set("serve.cache_hits", r.cache_hits as f64);
        out.set("serve.rejected", r.rejected as f64);
        out.set("serve.model_p99_s", r.total_p99_s);

        let read = Instant::now();
        let times = ExecutorTimes::from_events(&sink.events());
        let read_ns = read.elapsed().as_nanos() as u64;
        let call_ns = |pred: &dyn Fn(usize) -> bool| -> u64 {
            (0..calls.len())
                .filter(|&i| pred(i))
                .map(|i| ((calls[i].done_s - calls[i].sent_s) * 1e9) as u64)
                .sum()
        };
        let write_ns = call_ns(&|i| traced_sent[i].req.is_write());
        let mut children = vec![Span::new("epsgrid", write_ns)];
        children.extend(times.new_children());
        children.extend(times.run_children());
        let mut layers = JoinLayers::default();
        layers.times = times;
        layers.spans = vec![
            Span::outer("serve", call_ns(&|_| true)).with(children),
            Span::new("sj_telemetry", read_ns),
        ];
        layers.write(out);
        write_pass(
            out,
            &layers.spans,
            traced_wall + read_ns as f64 * 1e-9,
            (closed_wall + closed_wall_after) / 2.0,
        );
    }
    out.set("peak_heap_mb", crate::heap::peak_mb());
    out.set("host.peak_rss_mb", peak_rss_mb());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_seeded(seed: u64) -> (Vec<Point<2>>, Vec<Sent>) {
        let mut pts: Vec<Point<2>> = generate(DATASET, 300 + inserts_in(400), seed);
        let inserts = pts.split_off(300);
        let sent = stream(seed, pts.len(), &inserts, 400, 1000.0);
        (pts, sent)
    }

    fn tiny() -> (Vec<Point<2>>, Vec<Sent>) {
        tiny_seeded(5)
    }

    fn session(pts: &[Point<2>]) -> ServeSession<'static, 2> {
        let config = SelfJoinConfig::optimized(EPS).with_host_jobs(1);
        ServeSession::new(pts.to_vec(), config, ServeConfig::default()).unwrap()
    }

    #[test]
    fn stream_is_seeded_and_sends_the_exact_mix() {
        let (_, sent) = tiny();
        let lines = |s: &[Sent]| s.iter().map(|s| s.line.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&sent), lines(&tiny_seeded(5).1));
        assert_ne!(lines(&sent), lines(&tiny_seeded(6).1));
        let count = |f: &dyn Fn(&Req) -> bool| sent.iter().filter(|s| f(&s.req)).count();
        assert_eq!(count(&|r| r.is_client()), 400);
        assert_eq!(
            count(&|r| matches!(r, Req::Query { eps, .. } if *eps == SECOND_EPS)),
            16
        );
        assert_eq!(count(&|r| matches!(r, Req::Join { .. })), 4);
        assert_eq!(count(&|r| matches!(r, Req::Insert(_))), 10);
        assert_eq!(count(&|r| matches!(r, Req::Remove(_))), 10);
        assert!(sent.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        // Writes are the only barriers: the queue never fills, and the
        // last request runs whatever is still queued.
        let longest_wait = sent
            .split(|s| s.req.is_write())
            .map(<[Sent]>::len)
            .max();
        assert!(longest_wait < Some(ServeConfig::default().queue_capacity));
        assert!(sent.last().is_some_and(|s| s.req.is_write()));
    }

    #[test]
    fn split_barriers_keep_the_launches() {
        let (pts, sent) = tiny();
        let split = split_barriers(&sent);
        assert_eq!(split.len(), sent.len() + 20);
        let mut plain = session(&pts);
        let mut traced = session(&pts);
        let calls = replay(&mut traced, &split, false);
        replay(&mut plain, &sent, false);
        let (a, b) = (plain.report(), traced.report());
        assert_eq!(a.launches, b.launches);
        assert_eq!(a.execute_model_s.to_bits(), b.execute_model_s.to_bits());
        // Every answer is right, and no write's call runs a launch.
        let r = check_replay(&split, &answer_key(&pts, &split), &calls);
        for (i, s) in split.iter().enumerate() {
            assert_eq!(r.done_s[i].is_some(), s.req.is_client());
            assert!(!(s.req.is_write() && r.launched[i]));
        }
    }

    #[test]
    fn mirror_replay_matches_the_session_on_a_tiny_dataset() {
        let (pts, sent) = tiny();
        let key = answer_key(&pts, &sent);
        let calls = replay(&mut session(&pts), &sent, false);
        let r = check_replay(&sent, &key, &calls);
        assert!(r.launched.iter().any(|&l| l));
        // Every client request completed; flushes are not counted.
        for (s, done) in sent.iter().zip(&r.done_s) {
            assert_eq!(done.is_some(), s.req.is_client());
        }
        // Replays of the same stream are bit-identical.
        let again = check_replay(&sent, &key, &replay(&mut session(&pts), &sent, false));
        assert_eq!(again.digest, r.digest);
    }

    #[test]
    fn mirror_replay_catches_a_wrong_answer() {
        let (pts, sent) = tiny();
        let key = answer_key(&pts, &sent);
        let mut calls = replay(&mut session(&pts), &sent, false);
        let (ci, li) = calls
            .iter()
            .enumerate()
            .find_map(|(ci, c)| {
                let li = c
                    .lines
                    .iter()
                    .position(|l| l.contains("\"neighbors\": [") && !l.contains("[]"))?;
                Some((ci, li))
            })
            .expect("a non-empty neighbourhood");
        calls[ci].lines[li] =
            calls[ci].lines[li].replacen("\"neighbors\": [", "\"neighbors\": [299999, ", 1);
        let r = check_replay(&sent, &key, &calls);
        assert_eq!(r.done_s.iter().filter(|d| d.is_some()).count(), 399);
    }

    #[test]
    fn blocks_partition_an_unpaced_replay() {
        let calls: Vec<Call> = (1..=2 * BLOCK_LEN + 1)
            .map(|i| Call {
                sent_s: i as f64 - 1.0,
                done_s: i as f64,
                lines: Vec::new(),
            })
            .collect();
        let walls = block_walls(&calls);
        assert_eq!(walls, vec![BLOCK_LEN as f64, BLOCK_LEN as f64, 1.0]);
        assert_eq!(walls.iter().sum::<f64>(), calls.last().unwrap().done_s);
    }

    #[test]
    fn removes_rename_the_last_point() {
        let pts: Vec<Point<2>> = vec![[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]];
        let sent: Vec<Sent> = [
            Req::Remove(0),
            Req::Remove(1),
            Req::Query { pid: 0, eps: EPS },
        ]
        .into_iter()
        .map(|req| Sent {
            due_s: 0.0,
            line: req.line(),
            req,
        })
        .collect();
        let key = answer_key(&pts, &sent);
        assert_eq!(key[0], Some(Answer::Removed(Some(2))));
        assert_eq!(key[1], Some(Answer::Removed(None)));
        assert_eq!(key[2], Some(Answer::Neighbors(vec![])));
    }
}

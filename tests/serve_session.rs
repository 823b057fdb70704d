//! End-to-end tests of the always-on serve daemon ([`simjoin::serve`]):
//! the strict-JSON line protocol stays exact against a brute-force oracle
//! while the dataset churns, admission failures are typed (never panics,
//! never a dead session), and the service telemetry stream is strict JSON.
//!
//! Barrier-flush semantics under test: mutations, `flush`, `stats`, and
//! `shutdown` all execute the queued queries first, so every queued query
//! is answered against the dataset exactly as it stood at admission.

use simjoin::{Reply, Request, SelfJoinConfig, ServeConfig, ServeSession};
use sj_telemetry::json::{self, JsonValue};
use sj_telemetry::JsonTelemetry;
use sjdata::DatasetSpec;

/// A small skewed 2-D dataset plus a mid-sweep ε — the serve sessions here
/// are oracle-checked, so they stay brute-forceable.
fn serve_dataset() -> (Vec<[f32; 2]>, f32) {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(250).as_fixed::<2>().unwrap();
    let eps = spec.epsilons[2] * 1.5;
    (pts, eps)
}

/// The exact ε-neighborhood of `point_id` in `pts`, ascending.
fn oracle_neighbors(pts: &[[f32; 2]], point_id: u32, eps: f32) -> Vec<u32> {
    let mut out: Vec<u32> = simjoin::brute_force_join(pts, eps)
        .into_iter()
        .filter(|&(a, _)| a == point_id)
        .map(|(_, b)| b)
        .collect();
    out.sort_unstable();
    out
}

/// Drives a whole churn-and-query session through the line protocol and
/// checks every answer against a brute-force mirror of the point set.
/// Every response line must also round-trip through the strict JSON
/// parser — the protocol promises RFC 8259 output, not almost-JSON.
#[test]
fn line_protocol_session_is_exact_under_churn() {
    let (pts, eps) = serve_dataset();
    let mut mirror = pts.clone();
    let mut session =
        ServeSession::new(pts, SelfJoinConfig::new(eps), ServeConfig::default()).unwrap();

    let probe = |mirror: &Vec<[f32; 2]>| [3u32, 17, 42, (mirror.len() - 1) as u32];
    let mut lines: Vec<String> = Vec::new();
    for round in 0..3 {
        // Mutate first: the swap-remove mirror must apply the same moves.
        let seed = mirror[(round * 7) % mirror.len()];
        let new_point = [seed[0] + 0.02, seed[1] + 0.01];
        lines.push(format!(
            "{{\"op\": \"insert\", \"point\": [{}, {}]}}",
            new_point[0], new_point[1]
        ));
        mirror.push(new_point);
        let victim = (round * 11) as u32;
        lines.push(format!("{{\"op\": \"remove\", \"point_id\": {victim}}}"));
        mirror.swap_remove(victim as usize);
        // Queries admitted after the mutations see the mutated dataset.
        for pid in probe(&mirror) {
            lines.push(format!(
                "{{\"op\": \"query\", \"point_id\": {pid}, \"eps\": {eps}}}"
            ));
        }
        lines.push(format!("{{\"op\": \"join\", \"eps\": {eps}}}"));
        lines.push("{\"op\": \"flush\"}".to_string());
    }
    lines.push("{\"op\": \"stats\"}".to_string());
    lines.push("{\"op\": \"shutdown\"}".to_string());

    // Expected answers, in protocol order: the flush at the end of each
    // round answers that round's queries against that round's mirror.
    let mut expected: Vec<Vec<u32>> = Vec::new();
    {
        let mut m = serve_dataset().0;
        for round in 0..3 {
            let seed = m[(round * 7) % m.len()];
            m.push([seed[0] + 0.02, seed[1] + 0.01]);
            m.swap_remove(round * 11);
            for pid in probe(&m) {
                expected.push(oracle_neighbors(&m, pid, eps));
            }
        }
    }
    let expected_pairs = simjoin::brute_force_join(&mirror, eps).len() as u64;

    let mut answers: Vec<Vec<u32>> = Vec::new();
    let mut join_pairs: Vec<u64> = Vec::new();
    for line in &lines {
        for response in session.handle_line(line) {
            let doc = json::parse(&response)
                .unwrap_or_else(|e| panic!("response is not strict JSON: {e}\n{response}"));
            assert_eq!(
                doc.get("ok").and_then(JsonValue::as_bool),
                Some(true),
                "unexpected failure line: {response}"
            );
            match doc.get("op").and_then(JsonValue::as_str) {
                Some("query") => answers.push(
                    doc.get("neighbors")
                        .and_then(JsonValue::as_array)
                        .expect("neighbors array")
                        .iter()
                        .map(|v| v.as_u64().expect("neighbor id") as u32)
                        .collect(),
                ),
                Some("join") => {
                    join_pairs.push(doc.get("pairs").and_then(JsonValue::as_u64).unwrap());
                }
                _ => {}
            }
        }
    }
    assert!(session.is_shut_down());
    assert_eq!(
        answers, expected,
        "a served neighborhood diverged from brute force"
    );
    assert_eq!(join_pairs.last().copied(), Some(expected_pairs));
    let report = session.report();
    assert_eq!(report.queries, 12);
    assert_eq!(report.joins, 3);
    assert_eq!(report.inserts, 3);
    assert_eq!(report.removes, 3);
    assert_eq!(report.errors, 0);
    assert_eq!(report.rejected, 0);
    assert_eq!(
        report.incremental_reindexes + report.full_rebuilds,
        6,
        "every mutation must be accounted as incremental or rebuild"
    );
}

/// Overflowing the bounded admission queue is a typed `queue_full` line;
/// the session keeps serving afterwards, and the queued work still
/// executes exactly.
#[test]
fn queue_overflow_is_typed_and_the_session_survives() {
    let (pts, eps) = serve_dataset();
    let mirror = pts.clone();
    let cfg = ServeConfig {
        queue_capacity: 2,
        ..ServeConfig::default()
    };
    let mut session = ServeSession::new(pts, SelfJoinConfig::new(eps), cfg).unwrap();
    for pid in [1u32, 2] {
        assert!(session
            .handle_line(&format!(
                "{{\"op\": \"query\", \"point_id\": {pid}, \"eps\": {eps}}}"
            ))
            .is_empty());
    }
    let rejected = session.handle_line(&format!(
        "{{\"op\": \"query\", \"point_id\": 3, \"eps\": {eps}}}"
    ));
    assert_eq!(rejected.len(), 1);
    let doc = json::parse(&rejected[0]).unwrap();
    assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false));
    assert_eq!(
        doc.get("kind").and_then(JsonValue::as_str),
        Some("queue_full")
    );
    // The two admitted queries still flush exactly.
    let flushed = session.handle_line("{\"op\": \"flush\"}");
    let mut seen = 0;
    for line in &flushed {
        let doc = json::parse(line).unwrap();
        if doc.get("op").and_then(JsonValue::as_str) == Some("query") {
            let pid = doc.get("point_id").and_then(JsonValue::as_u64).unwrap() as u32;
            let neighbors: Vec<u32> = doc
                .get("neighbors")
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_u64().unwrap() as u32)
                .collect();
            assert_eq!(neighbors, oracle_neighbors(&mirror, pid, eps));
            seen += 1;
        }
    }
    assert_eq!(seen, 2);
    let report = session.report();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.errors, 0);
}

/// The service telemetry stream (request, coalesce, reindex events) is a
/// strict-JSON document, and every mutation emits exactly one reindex
/// event naming its maintenance kind.
#[test]
fn serve_telemetry_is_strict_json_and_names_reindex_kinds() {
    let (pts, eps) = serve_dataset();
    let sink = JsonTelemetry::new("serve-test");
    let mut session = ServeSession::new(pts, SelfJoinConfig::new(eps), ServeConfig::default())
        .unwrap()
        .with_telemetry(&sink);
    session.request(Request::Insert {
        point: [0.21, 0.17],
    });
    session.request(Request::Query {
        point_id: 0,
        epsilon: eps,
    });
    session.request(Request::Query {
        point_id: 9,
        epsilon: eps,
    });
    session.request(Request::Remove { point_id: 4 });
    session.request(Request::Shutdown);
    drop(session);

    let doc = json::parse(&sink.to_json()).expect("serve telemetry must be strict JSON");
    let events = doc.get("events").and_then(JsonValue::as_array).unwrap();
    let named = |name: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("scope").and_then(JsonValue::as_str) == Some("serve")
                    && e.get("name").and_then(JsonValue::as_str) == Some(name)
            })
            .count()
    };
    assert_eq!(named("reindex"), 2, "one reindex event per mutation");
    assert!(
        named("request") >= 4,
        "every query and mutation is recorded"
    );
    assert!(
        named("coalesce") >= 1,
        "the two same-ε queries share a launch and record it"
    );
    for event in events {
        if event.get("name").and_then(JsonValue::as_str) == Some("reindex") {
            let kind = event
                .get("fields")
                .and_then(|f| f.get("kind"))
                .and_then(JsonValue::as_str)
                .unwrap();
            assert!(kind == "incremental" || kind == "rebuild", "kind = {kind}");
        }
    }
}

/// Structured-API churn at a foreign ε (≠ the maintained grid's ε) still
/// answers exactly: the daemon falls back to a throwaway index rather
/// than serving approximate answers from the wrong grid.
#[test]
fn foreign_epsilon_queries_stay_exact_after_churn() {
    let (pts, eps) = serve_dataset();
    let mut mirror = pts.clone();
    let mut session =
        ServeSession::new(pts, SelfJoinConfig::new(eps), ServeConfig::default()).unwrap();
    session.request(Request::Insert {
        point: [0.42, 0.13],
    });
    mirror.push([0.42, 0.13]);
    session.request(Request::Remove { point_id: 2 });
    mirror.swap_remove(2);

    let foreign = eps * 1.7;
    let responses = session.request(Request::Query {
        point_id: 5,
        epsilon: foreign,
    });
    assert!(responses.is_empty(), "queries queue until a barrier");
    let flushed = session.request(Request::Flush);
    let neighbors = flushed
        .iter()
        .find_map(|r| match &r.reply {
            Reply::Neighbors { neighbors, .. } => Some(neighbors.clone()),
            _ => None,
        })
        .expect("the flush answers the queued query");
    assert_eq!(neighbors, oracle_neighbors(&mirror, 5, foreign));
}

/// Hostile lines get one typed error line each and leave the session
/// serving: a request nested 100,000 arrays deep is a `bad_request` (the
/// parser stops at its depth bound instead of overflowing the stack), and
/// an insert far outside the grid is an `out_of_range` that leaves the
/// maintained index unchanged. A query queued before the first hostile
/// line, and queries sent after each one, are answered exactly.
#[test]
fn hostile_lines_are_typed_errors_and_the_session_stays_exact() {
    let spec = DatasetSpec::by_name("Expo2D2M").unwrap();
    let pts = spec.generate(500).as_fixed::<2>().unwrap();
    // Wide enough that every probed point has neighbors to get right.
    let eps = 0.5f32;
    let mirror = pts.clone();
    let mut session =
        ServeSession::new(pts, SelfJoinConfig::new(eps), ServeConfig::default()).unwrap();
    let query = |pid: u32| format!("{{\"op\": \"query\", \"point_id\": {pid}, \"eps\": {eps}}}");
    let error_kind = |lines: &[String]| {
        assert_eq!(lines.len(), 1, "{lines:?}");
        let doc = json::parse(&lines[0]).unwrap();
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(false));
        doc.get("kind")
            .and_then(JsonValue::as_str)
            .unwrap()
            .to_string()
    };
    let answers = |lines: Vec<String>| -> Vec<(u32, Vec<u32>)> {
        lines
            .iter()
            .map(|line| json::parse(line).unwrap())
            .filter(|doc| doc.get("op").and_then(JsonValue::as_str) == Some("query"))
            .map(|doc| {
                let pid = doc.get("point_id").and_then(JsonValue::as_u64).unwrap() as u32;
                let neighbors = doc
                    .get("neighbors")
                    .and_then(JsonValue::as_array)
                    .unwrap()
                    .iter()
                    .map(|v| v.as_u64().unwrap() as u32)
                    .collect();
                (pid, neighbors)
            })
            .collect()
    };

    assert!(session.handle_line(&query(7)).is_empty());
    let deep = format!(
        "{{\"op\": \"query\", \"point_id\": {}1{}, \"eps\": {eps}}}",
        "[".repeat(100_000),
        "]".repeat(100_000)
    );
    assert_eq!(error_kind(&session.handle_line(&deep)), "bad_request");
    assert!(session.handle_line(&query(19)).is_empty());
    let flushed = answers(session.handle_line("{\"op\": \"flush\"}"));
    assert_eq!(
        flushed,
        [7, 19]
            .map(|pid| (pid, oracle_neighbors(&mirror, pid, eps)))
            .to_vec()
    );
    assert!(flushed.iter().all(|(_, neighbors)| !neighbors.is_empty()));

    let far = session.handle_line("{\"op\": \"insert\", \"point\": [1e30, 1e30]}");
    assert_eq!(error_kind(&far), "out_of_range");
    assert!(session.handle_line(&query(42)).is_empty());
    let flushed = answers(session.handle_line("{\"op\": \"flush\"}"));
    assert_eq!(flushed, vec![(42, oracle_neighbors(&mirror, 42, eps))]);
    assert!(!flushed[0].1.is_empty());

    let report = session.report();
    assert_eq!(report.errors, 2);
    assert_eq!(report.inserts, 0);
    assert_eq!(report.queries, 3);
}

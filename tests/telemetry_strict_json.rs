//! Every telemetry document the workspace emits must be *strict* JSON:
//! parseable by a validating parser with no extensions — no `NaN`, no
//! `Infinity`, no trailing commas. This guards the estimator-accuracy
//! event in particular: a zero-pair join must not leak a NaN accuracy
//! ratio into the stream (it flags `zero_actual` and omits the ratio
//! instead), and any telemetry artifact recorded under `results/` must
//! round-trip through the same parser.

use simjoin::{Balancing, SelfJoinConfig, ShardStrategy};
use sj_telemetry::JsonTelemetry;

// ---------------------------------------------------------------------------
// A minimal validating JSON parser (recursive descent, RFC 8259 grammar).
// Deliberately hand-rolled: the point is to accept *only* strict JSON, not
// whatever a lenient production parser happens to tolerate.
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn fail(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    fn document(mut self) -> Result<(), String> {
        self.skip_ws();
        self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.fail("trailing content"));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &[u8]) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.fail("bad literal"))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.bump() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => return Ok(()),
                Some(b'\\') => match self.bump() {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                    Some(b'u') => {
                        for _ in 0..4 {
                            if !self.bump().is_some_and(|c| c.is_ascii_hexdigit()) {
                                return Err(self.fail("bad \\u escape"));
                            }
                        }
                    }
                    _ => return Err(self.fail("bad escape")),
                },
                Some(c) if c < 0x20 => return Err(self.fail("raw control char in string")),
                Some(_) => {}
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.fail("bad number (NaN/Infinity are not JSON)")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.fail("bad fraction"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.fail("bad exponent"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        Ok(())
    }
}

fn assert_strict_json(doc: &str, what: &str) {
    if let Err(e) = Parser::new(doc).document() {
        let ctx_start = doc.len().min(200);
        panic!(
            "{what} is not strict JSON: {e}\nhead: {}",
            &doc[..ctx_start]
        );
    }
}

#[test]
fn the_validator_rejects_json_extensions() {
    for bad in [
        r#"{"x": NaN}"#,
        r#"{"x": Infinity}"#,
        r#"{"x": -Infinity}"#,
        r#"{"x": 1,}"#,
        r#"[1, 2,]"#,
        r#"{"x": .5}"#,
        r#"{"x": 01}"#,
        r#"{'x': 1}"#,
        r#"{"x": 1} extra"#,
    ] {
        assert!(
            Parser::new(bad).document().is_err(),
            "validator accepted {bad:?}"
        );
    }
    for good in [
        r#"{"x": -1.5e-3, "y": [true, false, null], "z": "aé\n"}"#,
        r#"[]"#,
        r#"0"#,
    ] {
        Parser::new(good).document().unwrap_or_else(|e| {
            panic!("validator rejected {good:?}: {e}");
        });
    }
}

/// The estimator-accuracy regression: a join that finds zero pairs used to
/// emit `estimated / actual = NaN` into the JSON stream. It must now flag
/// `zero_actual` and omit the ratio, keeping the document strict JSON.
#[test]
fn zero_pair_join_telemetry_is_strict_json() {
    // Three points far beyond ε of each other: an exact zero-pair join.
    let pts: Vec<[f32; 2]> = vec![[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]];
    let sink = JsonTelemetry::new("zero-pairs");
    let outcome = simjoin::SelfJoin::new(&pts, SelfJoinConfig::new(0.1))
        .unwrap()
        .with_telemetry(&sink)
        .run()
        .unwrap();
    assert_eq!(outcome.result.len(), 0);
    let doc = sink.to_json();
    assert_strict_json(&doc, "zero-pair join telemetry");
    assert!(!doc.contains("NaN"), "NaN leaked into telemetry:\n{doc}");
    assert!(
        doc.contains("\"zero_actual\": true"),
        "zero-pair join must flag zero_actual:\n{doc}"
    );
    assert!(
        !doc.contains("estimate_over_actual"),
        "accuracy ratio must be omitted on zero-pair joins:\n{doc}"
    );
}

/// A join that does find pairs still reports the accuracy ratio — the fix
/// must not silence the healthy path.
#[test]
fn nonzero_pair_join_still_reports_the_accuracy_ratio() {
    let pts: Vec<[f32; 2]> = (0..40).map(|i| [0.01 * i as f32, 0.0]).collect();
    let sink = JsonTelemetry::new("nonzero-pairs");
    let outcome = simjoin::SelfJoin::new(&pts, SelfJoinConfig::new(0.05))
        .unwrap()
        .with_telemetry(&sink)
        .run()
        .unwrap();
    assert!(!outcome.result.is_empty());
    let doc = sink.to_json();
    assert_strict_json(&doc, "nonzero-pair join telemetry");
    assert!(
        doc.contains("estimate_over_actual"),
        "ratio missing:\n{doc}"
    );
    assert!(
        doc.contains("\"zero_actual\": false"),
        "flag missing:\n{doc}"
    );
}

/// The fleet path tags per-device events and emits the fleet summary —
/// all of it strict JSON.
#[test]
fn fleet_join_telemetry_is_strict_json() {
    let pts: Vec<[f32; 2]> = (0..120)
        .map(|i| [0.03 * (i % 12) as f32, 0.05 * (i / 12) as f32])
        .collect();
    let config = SelfJoinConfig::new(0.08).with_balancing(Balancing::WorkQueue);
    let sink = JsonTelemetry::new("fleet");
    let fleet = warpsim::DeviceFleet::homogeneous(3, config.gpu);
    simjoin::SelfJoin::new(&pts, config)
        .unwrap()
        .with_telemetry(&sink)
        .run_on_fleet(&fleet, ShardStrategy::WorkloadAware)
        .unwrap();
    let doc = sink.to_json();
    assert_strict_json(&doc, "fleet telemetry");
    for needle in [
        "\"scope\": \"executor.fleet\"",
        "\"name\": \"shard_plan\"",
        "\"name\": \"shard_done\"",
        "\"name\": \"fleet_summary\"",
        "\"device\":",
        "\"makespan_model_s\":",
    ] {
        assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
    }
}

/// The hybrid co-executor's `hybrid.*` events — the cut decision and both
/// backend completions, including the CPU side's host-time observation —
/// are strict JSON and carry the schema EXPERIMENTS.md documents.
#[test]
fn hybrid_join_telemetry_is_strict_json() {
    let pts: Vec<[f32; 2]> = (0..120)
        .map(|i| [0.03 * (i % 12) as f32, 0.05 * (i / 12) as f32])
        .collect();
    let config = SelfJoinConfig::new(0.08).with_balancing(Balancing::WorkQueue);
    let sink = JsonTelemetry::new("hybrid");
    simjoin::SelfJoin::new(&pts, config)
        .unwrap()
        .with_telemetry(&sink)
        .run_hybrid(&simjoin::HybridPolicy::default().with_jobs(2))
        .unwrap();
    let doc = sink.to_json();
    assert_strict_json(&doc, "hybrid telemetry");
    for needle in [
        "\"scope\": \"hybrid\"",
        "\"name\": \"cut\"",
        "\"name\": \"backend_done\"",
        "\"backend\": \"gpu\"",
        "\"backend\": \"cpu\"",
        "\"predicted_gpu_model_s\":",
        "\"predicted_cpu_model_s\":",
        "\"host_ns\":",
    ] {
        assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
    }
}

/// Replaces the numeric value of every `host_*`-prefixed field with `0`.
/// Host-time observations (`host_ns`, `host_exec_ns`, `host_total_ns`, …)
/// are the *only* fields allowed to differ across `host_jobs` runs —
/// everything else in the document must be byte-identical.
fn mask_host_fields(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc;
    while let Some(hit) = rest.find("\"host_") {
        let Some(value_start) = rest[hit..].find("\": ").map(|p| hit + p + 3) else {
            break;
        };
        out.push_str(&rest[..value_start]);
        let tail = &rest[value_start..];
        let value_len = tail.find([',', '}']).unwrap_or(tail.len());
        out.push('0');
        rest = &tail[value_len..];
    }
    out.push_str(rest);
    out
}

/// The host-parallel byte-identity invariant: the telemetry document of a
/// join is byte-for-byte identical for any `host_jobs`, once the values of
/// `host_*`-prefixed fields (the explicitly host-dependent wall-clock and
/// worker-count observations) are masked. The executor's documented total
/// order — events appear exactly where the serial plan-order execution
/// would record them, with run-global indices restored at splice time —
/// means event kinds, order, counts, and every model-side value must not
/// move when the inside of the join runs on threads.
#[test]
fn telemetry_documents_are_byte_identical_across_host_jobs() {
    let pts: Vec<[f32; 2]> = (0..200)
        .map(|i| [0.03 * (i % 20) as f32, 0.05 * (i / 20) as f32])
        .collect();
    let doc_at = |jobs: usize| {
        let mut config = SelfJoinConfig::new(0.08)
            .with_balancing(Balancing::WorkQueue)
            .with_host_jobs(jobs);
        // Several batches plus overflow splits, so the batch layer both
        // has pool work and exercises the split/retry splice path.
        config.batching.batch_result_capacity = 64;
        let sink = JsonTelemetry::new("host-jobs");
        simjoin::SelfJoin::new(&pts, config)
            .unwrap()
            .with_telemetry(&sink)
            .run()
            .unwrap();
        mask_host_fields(&sink.to_json())
    };
    let base = doc_at(1);
    assert_strict_json(&base, "masked host-jobs telemetry");
    assert!(
        base.contains("\"name\": \"batch\""),
        "expected batch events in:\n{base}"
    );
    for jobs in [2usize, 4, 8] {
        assert_eq!(
            base,
            doc_at(jobs),
            "single-device telemetry drifted at host_jobs={jobs}"
        );
    }
    // The fleet path: per-device event streams are spliced in device order
    // and must land byte-identically too.
    let fleet_doc_at = |jobs: usize| {
        let mut config = SelfJoinConfig::new(0.08)
            .with_balancing(Balancing::WorkQueue)
            .with_host_jobs(jobs);
        config.batching.batch_result_capacity = 64;
        let sink = JsonTelemetry::new("host-jobs-fleet");
        let fleet = warpsim::DeviceFleet::homogeneous(3, config.gpu);
        simjoin::SelfJoin::new(&pts, config)
            .unwrap()
            .with_telemetry(&sink)
            .run_on_fleet(&fleet, ShardStrategy::WorkloadAware)
            .unwrap();
        mask_host_fields(&sink.to_json())
    };
    let fleet_base = fleet_doc_at(1);
    assert_strict_json(&fleet_base, "masked host-jobs fleet telemetry");
    for jobs in [2usize, 4, 8] {
        assert_eq!(
            fleet_base,
            fleet_doc_at(jobs),
            "fleet telemetry drifted at host_jobs={jobs}"
        );
    }
}

/// Every telemetry artifact recorded under `results/` must round-trip
/// through the strict parser. Skips silently when no artifacts exist (the
/// experiment driver hasn't been run in this checkout).
#[test]
fn recorded_result_artifacts_are_strict_json() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    let Ok(entries) = std::fs::read_dir(&results) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let doc = std::fs::read_to_string(&path).expect("readable artifact");
        assert_strict_json(&doc, &format!("{}", path.display()));
    }
}

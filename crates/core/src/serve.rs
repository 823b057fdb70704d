//! Always-on serve daemon: a long-running request loop over a maintained
//! ε-grid.
//!
//! The batch binaries (`simjoin join`, `sj-bench`) pay the full pipeline on
//! every invocation: read the dataset, build the ε-grid, quantify workloads,
//! launch, print, exit. A service answering a *stream* of ε-neighborhood
//! queries and whole self-joins over a slowly churning dataset should pay
//! none of that per request. [`ServeSession`] is that service:
//!
//! - the index lives in an [`epsgrid::DynamicGrid`] — inserts and removes
//!   patch the canonical layout in place and re-quantify only the touched
//!   cell windows, with a full-rebuild escape hatch (`serve.reindex`
//!   telemetry distinguishes the two);
//! - queries and joins pass through **admission control**: a bounded queue
//!   with typed rejection ([`ServeError::QueueFull`]) instead of unbounded
//!   buffering;
//! - queued requests at the same ε are **coalesced** into one batched
//!   launch on [`ServeConfig::target`] (through [`SelfJoin::run_on`]);
//!   the launch's pairs are grouped once into a per-query
//!   [`NeighborIndex`] (a linear-time counting sort), and each query
//!   answer sorts only its own point's row. Repeated flushes in the same
//!   churn epoch answer from that cache without launching at all;
//! - every request is timed in **model seconds** on the session's service
//!   clock (queue wait + execute), recorded as `serve.request` events and
//!   rolled up into P50/P99 latencies in the [`ServeReport`].
//!
//! Exactness is non-negotiable: every query answer is the exact
//! ε-neighborhood the brute-force join would produce, whatever the access
//! pattern, balancing mode, or execution substrate.
//!
//! The session speaks two dialects: a structured [`Request`]/[`Response`]
//! API for benches and tests, and a line-delimited strict-JSON protocol
//! ([`ServeSession::handle_line`]) for the CLI daemon and socket front-ends.

use std::collections::VecDeque;
use std::fmt::Write as _;

use epsgrid::{ChurnError, DynamicGrid, GridBuildError, Point};
use sj_telemetry::{json, Event, Telemetry};

use crate::config::{validate_epsilon, EpsilonError, SelfJoinConfig};
use crate::executor::{JoinError, SelfJoin};
use crate::result::NeighborIndex;
use crate::target::ExecTarget;

/// Default bound on the admission queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Service-level knobs, layered over the join's own [`SelfJoinConfig`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum queued (admitted but unexecuted) queries and joins. Further
    /// submissions are rejected with [`ServeError::QueueFull`].
    pub queue_capacity: usize,
    /// Merge queued requests at the same ε into one launch and answer
    /// repeated same-epoch flushes from the result cache. When `false` the
    /// session degrades to the naive daemon: every admitted request becomes
    /// its own launch, immediately (the serial baseline of the serve
    /// benchmark).
    pub coalesce: bool,
    /// Dirty-cell fraction above which the maintained grid abandons
    /// incremental patching and rebuilds (see
    /// [`epsgrid::DynamicGrid::with_rebuild_limit`]).
    pub rebuild_limit: f64,
    /// Where every launch executes.
    pub target: ExecTarget<'static>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            coalesce: true,
            rebuild_limit: epsgrid::dynamic::DEFAULT_REBUILD_LIMIT,
            target: ExecTarget::Gpu,
        }
    }
}

/// Typed failures at the serve boundary.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The admission queue is full; the request was rejected, not buffered.
    QueueFull {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// The request's ε failed validation.
    Epsilon(EpsilonError),
    /// The request names a point id outside the current dataset.
    UnknownPoint(u32),
    /// A streaming insert/remove was rejected by the maintained grid.
    Churn(ChurnError),
    /// The request line/document was not a valid protocol message.
    BadRequest(String),
    /// The grid cannot index the dataset at the request's ε: a valid ε so
    /// small that the cell count overflows the linear cell id space.
    Unindexable(GridBuildError),
    /// The coalesced launch itself failed.
    Join(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "serve queue is full (capacity {capacity})")
            }
            Self::Epsilon(e) => write!(f, "{e}"),
            Self::UnknownPoint(pid) => {
                write!(f, "point id {pid} is not in the current dataset")
            }
            Self::Churn(e) => write!(f, "{e}"),
            Self::BadRequest(msg) => write!(f, "bad request: {msg}"),
            Self::Unindexable(e) => write!(f, "cannot index the dataset at this ε: {e}"),
            Self::Join(msg) => write!(f, "join failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl ServeError {
    /// Stable machine-readable discriminant used in protocol error lines.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::QueueFull { .. } => "queue_full",
            Self::Epsilon(_) => "bad_epsilon",
            Self::UnknownPoint(_) => "unknown_point",
            Self::Churn(ChurnError::NonFinitePoint) => "bad_point",
            Self::Churn(ChurnError::UnknownPoint(_)) => "unknown_point",
            Self::Churn(ChurnError::WouldEmptyDataset) => "would_empty",
            Self::Churn(ChurnError::OutOfRange(_)) | Self::Unindexable(_) => "out_of_range",
            Self::BadRequest(_) => "bad_request",
            Self::Join(_) => "join_failed",
        }
    }
}

/// One request submitted to a [`ServeSession`].
#[derive(Debug, Clone, PartialEq)]
pub enum Request<const N: usize> {
    /// The exact ε-neighborhood of one dataset point.
    Query {
        /// Id of the query point (current dataset numbering).
        point_id: u32,
        /// Distance threshold for this request.
        epsilon: f32,
    },
    /// A whole self-join at the given ε (answered with summary statistics).
    Join {
        /// Distance threshold for this request.
        epsilon: f32,
    },
    /// Streaming insert of one point (assigned the next dense id).
    Insert {
        /// The new point's coordinates.
        point: Point<N>,
    },
    /// Streaming removal of one point (swap-remove id semantics: the
    /// response names which point, if any, was renamed to the freed id).
    Remove {
        /// Id of the point to remove.
        point_id: u32,
    },
    /// Execute everything queued without mutating the dataset.
    Flush,
    /// A [`ServeReport`] snapshot (flushes the queue first).
    Stats,
    /// Flush, answer, and mark the session finished.
    Shutdown,
}

/// The payload of one response line.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to a [`Request::Query`].
    Neighbors {
        /// The query point.
        point_id: u32,
        /// The request's ε.
        epsilon: f32,
        /// Exact ε-neighborhood (ascending point ids, `point_id` excluded).
        neighbors: Vec<u32>,
        /// Latency accounting for this request, in model seconds.
        latency: Latency,
        /// How many requests shared this launch (1 = not coalesced).
        coalesced: u64,
        /// Whether the answer came from the same-epoch result cache.
        cache_hit: bool,
    },
    /// Answer to a [`Request::Join`].
    JoinSummary {
        /// The request's ε.
        epsilon: f32,
        /// Total ordered pairs within ε.
        pairs: u64,
        /// Mean neighbors per point.
        mean_neighbors: f64,
        /// Latency accounting for this request, in model seconds.
        latency: Latency,
        /// How many requests shared this launch (1 = not coalesced).
        coalesced: u64,
        /// Whether the answer came from the same-epoch result cache.
        cache_hit: bool,
    },
    /// Answer to a [`Request::Insert`].
    Inserted {
        /// The id assigned to the new point.
        point_id: u32,
        /// `"incremental"` or `"rebuild"`.
        reindex: &'static str,
    },
    /// Answer to a [`Request::Remove`].
    Removed {
        /// The removed id.
        point_id: u32,
        /// The point renamed into the freed id, if any.
        moved_id: Option<u32>,
        /// `"incremental"` or `"rebuild"`.
        reindex: &'static str,
    },
    /// Answer to a [`Request::Flush`].
    Flushed {
        /// How many queued requests the flush executed.
        executed: u64,
    },
    /// Answer to a [`Request::Stats`].
    Stats(ServeReport),
    /// Answer to a [`Request::Shutdown`].
    ShuttingDown,
    /// A typed failure (the request did not execute).
    Error {
        /// Human-readable description (unified across entry points).
        message: String,
        /// Machine-readable discriminant (see [`ServeError::kind`]).
        kind: &'static str,
    },
}

/// Per-request latency in model seconds on the session's service clock.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Latency {
    /// Model seconds spent queued before the launch started.
    pub queue_s: f64,
    /// Model seconds of the launch that answered the request.
    pub execute_s: f64,
    /// `queue_s + execute_s`.
    pub total_s: f64,
}

/// One response: the id of the request it answers plus the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id assigned to the request at submission.
    pub id: u64,
    /// The payload.
    pub reply: Reply,
}

/// Aggregate service counters plus latency percentiles, all model seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServeReport {
    /// Requests submitted (including rejected and malformed ones).
    pub requests: u64,
    /// Admitted ε-neighborhood queries.
    pub queries: u64,
    /// Admitted whole-join requests.
    pub joins: u64,
    /// Applied inserts.
    pub inserts: u64,
    /// Applied removes.
    pub removes: u64,
    /// Requests rejected by admission control (queue full).
    pub rejected: u64,
    /// Requests that failed validation or execution.
    pub errors: u64,
    /// Join launches actually executed.
    pub launches: u64,
    /// Admitted requests answered by a launch shared with at least one
    /// other request.
    pub coalesced_requests: u64,
    /// Admitted requests answered from the same-epoch result cache.
    pub cache_hits: u64,
    /// Mutations absorbed incrementally by the maintained grid.
    pub incremental_reindexes: u64,
    /// Mutations (or dirt accumulation) that forced a full rebuild.
    pub full_rebuilds: u64,
    /// Cells re-quantified by incremental maintenance.
    pub requantified_cells: u64,
    /// Total launch model seconds accumulated on the service clock.
    pub execute_model_s: f64,
    /// Median queue wait.
    pub queue_p50_s: f64,
    /// 99th-percentile queue wait.
    pub queue_p99_s: f64,
    /// Median launch time.
    pub execute_p50_s: f64,
    /// 99th-percentile launch time.
    pub execute_p99_s: f64,
    /// Median total latency.
    pub total_p50_s: f64,
    /// 99th-percentile total latency.
    pub total_p99_s: f64,
}

#[derive(Debug, Clone, Copy)]
enum PendingKind {
    Query(u32),
    Join,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    kind: PendingKind,
    epsilon: f32,
    arrival_s: f64,
}

struct CachedAnswer {
    eps_bits: u32,
    /// The launch's pairs grouped by query point, in production order.
    index: NeighborIndex,
    mean_neighbors: f64,
}

/// The serve daemon's state machine. See the module docs for semantics.
pub struct ServeSession<'a, const N: usize> {
    grid: DynamicGrid<N>,
    base: SelfJoinConfig,
    cfg: ServeConfig,
    telemetry: &'a dyn Telemetry,
    pending: VecDeque<Pending>,
    /// Same-epoch result cache (cleared on every mutation).
    cache: Vec<CachedAnswer>,
    next_id: u64,
    /// The service clock, in model seconds: advanced only by launches.
    clock_s: f64,
    samples: Vec<Latency>,
    report: ServeReport,
    shut_down: bool,
}

impl<const N: usize> std::fmt::Debug for ServeSession<'_, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeSession")
            .field("points", &self.grid.len())
            .field("cfg", &self.cfg)
            .field("pending", &self.pending.len())
            .field("clock_s", &self.clock_s)
            .field("shut_down", &self.shut_down)
            .finish_non_exhaustive()
    }
}

impl<'a, const N: usize> ServeSession<'a, N> {
    /// Builds the maintained index over the initial dataset.
    ///
    /// `base.epsilon` is the ε the index is quantized at: requests at
    /// (bit-)equal ε reuse the maintained index and its incremental
    /// workload quantification; requests at other ε build a throwaway grid
    /// for their launch (still exact, just unamortized).
    pub fn new(
        points: Vec<Point<N>>,
        base: SelfJoinConfig,
        cfg: ServeConfig,
    ) -> Result<Self, ServeError> {
        validate_epsilon(base.epsilon).map_err(ServeError::Epsilon)?;
        let grid = DynamicGrid::new(points, base.epsilon)
            .map_err(|e| ServeError::BadRequest(grid_build_message(&e)))?
            .with_rebuild_limit(cfg.rebuild_limit);
        Ok(Self {
            grid,
            base,
            cfg,
            telemetry: &sj_telemetry::NULL,
            pending: VecDeque::new(),
            cache: Vec::new(),
            next_id: 0,
            clock_s: 0.0,
            samples: Vec::new(),
            report: ServeReport::default(),
            shut_down: false,
        })
    }

    /// Attaches a telemetry sink receiving `serve.*` events (plus the
    /// executor events of every launch the session performs).
    pub fn with_telemetry(mut self, telemetry: &'a dyn Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Current dataset size.
    pub fn num_points(&self) -> usize {
        self.grid.len()
    }

    /// The service clock, in model seconds.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Whether a [`Request::Shutdown`] has been processed.
    pub fn is_shut_down(&self) -> bool {
        self.shut_down
    }

    /// Counter + percentile snapshot.
    pub fn report(&self) -> ServeReport {
        let mut r = self.report;
        let stats = self.grid.stats();
        r.incremental_reindexes = stats.incremental_inserts + stats.incremental_removes;
        r.full_rebuilds = stats.full_rebuilds;
        r.requantified_cells = stats.requantified_cells;
        let q: Vec<f64> = self.samples.iter().map(|l| l.queue_s).collect();
        let e: Vec<f64> = self.samples.iter().map(|l| l.execute_s).collect();
        let t: Vec<f64> = self.samples.iter().map(|l| l.total_s).collect();
        (r.queue_p50_s, r.queue_p99_s) = percentiles(&q);
        (r.execute_p50_s, r.execute_p99_s) = percentiles(&e);
        (r.total_p50_s, r.total_p99_s) = percentiles(&t);
        r
    }

    /// Submits one request. Queries and joins are admitted to the queue
    /// (responses arrive at the next flush); every other request flushes
    /// the queue first, so the returned batch preserves submission order.
    pub fn request(&mut self, req: Request<N>) -> Vec<Response> {
        let id = self.next_id;
        self.next_id += 1;
        self.report.requests += 1;
        match req {
            Request::Query { point_id, epsilon } => {
                self.admit(id, PendingKind::Query(point_id), epsilon)
            }
            Request::Join { epsilon } => self.admit(id, PendingKind::Join, epsilon),
            Request::Insert { point } => self.mutate(id, MutateOp::Insert(point)),
            Request::Remove { point_id } => self.mutate(id, MutateOp::Remove(point_id)),
            Request::Flush => {
                let mut out = self.flush_queue();
                let executed = out.len() as u64;
                out.push(Response {
                    id,
                    reply: Reply::Flushed { executed },
                });
                out
            }
            Request::Stats => {
                let mut out = self.flush_queue();
                out.push(Response {
                    id,
                    reply: Reply::Stats(self.report()),
                });
                out
            }
            Request::Shutdown => {
                let mut out = self.flush_queue();
                self.shut_down = true;
                out.push(Response {
                    id,
                    reply: Reply::ShuttingDown,
                });
                out
            }
        }
    }

    fn reject(&mut self, id: u64, err: ServeError) -> Vec<Response> {
        if matches!(err, ServeError::QueueFull { .. }) {
            self.report.rejected += 1;
        } else {
            self.report.errors += 1;
        }
        let reply = Reply::Error {
            message: err.to_string(),
            kind: err.kind(),
        };
        self.telemetry.record(
            Event::new("serve", "request")
                .u64("id", id)
                .bool("ok", false)
                .str("kind", err.kind()),
        );
        vec![Response { id, reply }]
    }

    fn admit(&mut self, id: u64, kind: PendingKind, epsilon: f32) -> Vec<Response> {
        if let Err(e) = validate_epsilon(epsilon) {
            return self.reject(id, ServeError::Epsilon(e));
        }
        if let PendingKind::Query(pid) = kind {
            // The queue only flushes before mutations, so ids stay valid
            // between admission and execution.
            if pid as usize >= self.grid.len() {
                return self.reject(id, ServeError::UnknownPoint(pid));
            }
        }
        if self.pending.len() >= self.cfg.queue_capacity {
            return self.reject(
                id,
                ServeError::QueueFull {
                    capacity: self.cfg.queue_capacity,
                },
            );
        }
        match kind {
            PendingKind::Query(_) => self.report.queries += 1,
            PendingKind::Join => self.report.joins += 1,
        }
        self.pending.push_back(Pending {
            id,
            kind,
            epsilon,
            arrival_s: self.clock_s,
        });
        if self.cfg.coalesce {
            Vec::new()
        } else {
            // Serial baseline: no admission window, launch immediately.
            self.flush_queue()
        }
    }

    /// Executes everything queued, one launch per distinct ε (in first-
    /// arrival order), and returns the responses sorted by request id.
    fn flush_queue(&mut self) -> Vec<Response> {
        let mut groups: Vec<(u32, Vec<Pending>)> = Vec::new();
        while let Some(p) = self.pending.pop_front() {
            let bits = p.epsilon.to_bits();
            match groups.iter_mut().find(|(b, _)| *b == bits) {
                Some((_, members)) => members.push(p),
                None => groups.push((bits, vec![p])),
            }
        }
        let mut out = Vec::new();
        for (_, members) in groups {
            out.extend(self.execute_group(members));
        }
        out.sort_by_key(|r| r.id);
        out
    }

    fn execute_group(&mut self, members: Vec<Pending>) -> Vec<Response> {
        let epsilon = members[0].epsilon;
        let eps_bits = epsilon.to_bits();
        let coalesced = members.len() as u64;
        let hit = if self.cfg.coalesce {
            self.cache.iter().position(|c| c.eps_bits == eps_bits)
        } else {
            None
        };
        let cached = hit.is_some();
        let start_s = self.clock_s;
        let (answer_at, execute_s) = match hit {
            Some(at) => (at, 0.0),
            None => match self.launch(epsilon) {
                Ok(launched) => launched,
                Err(e) => {
                    let err = match e {
                        JoinError::Grid(e) => ServeError::Unindexable(e),
                        e => ServeError::Join(e.to_string()),
                    };
                    return members
                        .iter()
                        .flat_map(|p| self.reject(p.id, err.clone()).into_iter())
                        .collect();
                }
            },
        };
        self.clock_s += execute_s;
        self.telemetry.record(
            Event::new("serve", "coalesce")
                .f64("eps", f64::from(epsilon))
                .u64("merged", coalesced)
                .bool("cache_hit", cached)
                .f64("execute_model_s", execute_s),
        );
        let mut out = Vec::with_capacity(members.len());
        for p in members {
            let latency = Latency {
                queue_s: (start_s - p.arrival_s).max(0.0),
                execute_s,
                total_s: (start_s - p.arrival_s).max(0.0) + execute_s,
            };
            self.samples.push(latency);
            if coalesced > 1 {
                self.report.coalesced_requests += 1;
            }
            if cached {
                self.report.cache_hits += 1;
            }
            let answer = &self.cache[answer_at];
            let (op, reply) = match p.kind {
                PendingKind::Query(pid) => (
                    "query",
                    Reply::Neighbors {
                        point_id: pid,
                        epsilon,
                        neighbors: sorted(answer.index.neighbors(pid)),
                        latency,
                        coalesced,
                        cache_hit: cached,
                    },
                ),
                PendingKind::Join => (
                    "join",
                    Reply::JoinSummary {
                        epsilon,
                        pairs: answer.index.num_pairs() as u64,
                        mean_neighbors: answer.mean_neighbors,
                        latency,
                        coalesced,
                        cache_hit: cached,
                    },
                ),
            };
            self.telemetry.record(
                Event::new("serve", "request")
                    .str("op", op)
                    .u64("id", p.id)
                    .bool("ok", true)
                    .f64("eps", f64::from(epsilon))
                    .f64("queue_s", latency.queue_s)
                    .f64("execute_s", latency.execute_s)
                    .f64("total_s", latency.total_s)
                    .u64("coalesced", coalesced)
                    .bool("cache_hit", cached),
            );
            out.push(Response { id: p.id, reply });
        }
        out
    }

    /// Runs one join launch at `epsilon` and caches its answers. Returns
    /// where in the cache they are and the launch's model seconds.
    fn launch(&mut self, epsilon: f32) -> Result<(usize, f64), JoinError> {
        let maintained = epsilon.to_bits() == self.grid.epsilon().to_bits();
        let per_cell: Vec<u64> = self.grid.per_cell_workload().to_vec();
        let index = self.grid.index().clone();
        let points: Vec<Point<N>> = self.grid.points().to_vec();
        let mut config = self.base.clone();
        config.epsilon = epsilon;
        let join = if maintained {
            SelfJoin::with_maintained_index(&points, config, index, Some(&per_cell))?
        } else {
            SelfJoin::new(&points, config)?
        }
        .with_telemetry(self.telemetry);
        let outcome = join.run_on(&self.cfg.target)?;
        let execute_s = outcome.model_s();
        let result = outcome.result;
        let n = points.len();
        let answer = CachedAnswer {
            eps_bits: epsilon.to_bits(),
            index: result.neighbor_index(n),
            mean_neighbors: result.mean_neighbors(n),
        };
        self.cache.retain(|c| c.eps_bits != answer.eps_bits);
        self.cache.push(answer);
        self.report.launches += 1;
        self.report.execute_model_s += execute_s;
        Ok((self.cache.len() - 1, execute_s))
    }

    fn mutate(&mut self, id: u64, op: MutateOp<N>) -> Vec<Response> {
        // Barrier semantics: queued queries see the pre-mutation dataset.
        let mut out = self.flush_queue();
        let rebuilds_before = self.grid.stats().full_rebuilds;
        let requantified_before = self.grid.stats().requantified_cells;
        let (op_name, churn) = match op {
            MutateOp::Insert(point) => ("insert", self.grid.insert(point).map(ChurnOk::Inserted)),
            MutateOp::Remove(pid) => (
                "remove",
                self.grid.remove(pid).map(|moved_id| ChurnOk::Removed {
                    point_id: pid,
                    moved_id,
                }),
            ),
        };
        match churn {
            Err(e) => out.extend(self.reject(id, ServeError::Churn(e))),
            Ok(ok) => {
                match ok {
                    ChurnOk::Inserted(_) => self.report.inserts += 1,
                    ChurnOk::Removed { .. } => self.report.removes += 1,
                }
                // New epoch: cached answers describe the old dataset.
                self.cache.clear();
                let stats = self.grid.stats();
                let reindex = if stats.full_rebuilds > rebuilds_before {
                    "rebuild"
                } else {
                    "incremental"
                };
                self.telemetry.record(
                    Event::new("serve", "reindex")
                        .str("op", op_name)
                        .str("kind", reindex)
                        .u64("dirty", self.grid.pending_dirty() as u64)
                        .u64(
                            "requantified_cells",
                            stats.requantified_cells - requantified_before,
                        )
                        .u64("points", self.grid.len() as u64),
                );
                self.telemetry.record(
                    Event::new("serve", "request")
                        .str("op", op_name)
                        .u64("id", id)
                        .bool("ok", true),
                );
                let reply = match ok {
                    ChurnOk::Inserted(pid) => Reply::Inserted {
                        point_id: pid,
                        reindex,
                    },
                    ChurnOk::Removed { point_id, moved_id } => Reply::Removed {
                        point_id,
                        moved_id,
                        reindex,
                    },
                };
                out.push(Response { id, reply });
            }
        }
        out
    }

    /// Parses one line of the strict-JSON request protocol, executes it,
    /// and returns the response lines (strict JSON, one per response).
    ///
    /// Blank lines produce no output. A malformed line consumes a request
    /// id and answers with a single `"kind": "bad_request"` error line —
    /// the session itself never dies on bad input.
    pub fn handle_line(&mut self, line: &str) -> Vec<String> {
        if line.trim().is_empty() {
            return Vec::new();
        }
        match self.parse_request(line) {
            Ok(req) => self
                .request(req)
                .iter()
                .map(Response::to_json_line)
                .collect(),
            Err(msg) => {
                let id = self.next_id;
                self.next_id += 1;
                self.report.requests += 1;
                self.reject(id, ServeError::BadRequest(msg))
                    .iter()
                    .map(Response::to_json_line)
                    .collect()
            }
        }
    }

    fn parse_request(&self, line: &str) -> Result<Request<N>, String> {
        let doc = json::parse(line)?;
        let op = doc
            .get("op")
            .and_then(json::JsonValue::as_str)
            .ok_or_else(|| "missing \"op\"".to_string())?;
        let point_id = |key: &str| -> Result<u32, String> {
            doc.get(key)
                .and_then(json::JsonValue::as_u64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| format!("{op:?} needs a u32 {key:?}"))
        };
        let eps = || -> Result<f32, String> {
            doc.get("eps")
                .and_then(json::JsonValue::as_f64)
                .map(|v| v as f32)
                .ok_or_else(|| format!("{op:?} needs a numeric \"eps\""))
        };
        match op {
            "query" => Ok(Request::Query {
                point_id: point_id("point_id")?,
                epsilon: eps()?,
            }),
            "join" => Ok(Request::Join { epsilon: eps()? }),
            "insert" => {
                let coords = doc
                    .get("point")
                    .and_then(json::JsonValue::as_array)
                    .ok_or_else(|| "\"insert\" needs a \"point\" array".to_string())?;
                if coords.len() != N {
                    return Err(format!(
                        "\"point\" has {} coordinates but the dataset is {N}-dimensional",
                        coords.len()
                    ));
                }
                let mut point = [0.0f32; N];
                for (slot, value) in point.iter_mut().zip(coords) {
                    *slot = value
                        .as_f64()
                        .ok_or_else(|| "\"point\" coordinates must be numbers".to_string())?
                        as f32;
                }
                Ok(Request::Insert { point })
            }
            "remove" => Ok(Request::Remove {
                point_id: point_id("point_id")?,
            }),
            "flush" => Ok(Request::Flush),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

enum MutateOp<const N: usize> {
    Insert(Point<N>),
    Remove(u32),
}

enum ChurnOk {
    Inserted(u32),
    Removed {
        point_id: u32,
        moved_id: Option<u32>,
    },
}

fn grid_build_message(e: &GridBuildError) -> String {
    format!("cannot index the initial dataset: {e:?}")
}

/// A query answer: one cached row, ascending.
fn sorted(row: &[u32]) -> Vec<u32> {
    let mut neighbors = row.to_vec();
    neighbors.sort_unstable();
    neighbors
}

/// `(p50, p99)` of `samples` (0.0 when empty).
fn percentiles(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    };
    (at(0.50), at(0.99))
}

impl Response {
    /// Serializes the response as one strict-JSON line (no trailing
    /// newline). Non-finite floats serialize as `null`, mirroring the
    /// telemetry writer.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(out, "{{\"id\": {}", self.id);
        match &self.reply {
            Reply::Neighbors {
                point_id,
                epsilon,
                neighbors,
                latency,
                coalesced,
                cache_hit,
            } => {
                out.push_str(", \"op\": \"query\", \"ok\": true");
                let _ = write!(out, ", \"point_id\": {point_id}");
                json_f64(&mut out, "eps", f64::from(*epsilon));
                out.push_str(", \"neighbors\": [");
                for (i, n) in neighbors.iter().enumerate() {
                    let _ = write!(out, "{}{n}", if i == 0 { "" } else { ", " });
                }
                out.push(']');
                json_latency(&mut out, latency);
                let _ = write!(
                    out,
                    ", \"coalesced\": {coalesced}, \"cache_hit\": {cache_hit}"
                );
            }
            Reply::JoinSummary {
                epsilon,
                pairs,
                mean_neighbors,
                latency,
                coalesced,
                cache_hit,
            } => {
                out.push_str(", \"op\": \"join\", \"ok\": true");
                json_f64(&mut out, "eps", f64::from(*epsilon));
                let _ = write!(out, ", \"pairs\": {pairs}");
                json_f64(&mut out, "mean_neighbors", *mean_neighbors);
                json_latency(&mut out, latency);
                let _ = write!(
                    out,
                    ", \"coalesced\": {coalesced}, \"cache_hit\": {cache_hit}"
                );
            }
            Reply::Inserted { point_id, reindex } => {
                let _ = write!(
                    out,
                    ", \"op\": \"insert\", \"ok\": true, \"point_id\": {point_id}, \
                     \"reindex\": \"{reindex}\""
                );
            }
            Reply::Removed {
                point_id,
                moved_id,
                reindex,
            } => {
                let _ = write!(
                    out,
                    ", \"op\": \"remove\", \"ok\": true, \"point_id\": {point_id}, \
                     \"moved_id\": "
                );
                match moved_id {
                    Some(m) => {
                        let _ = write!(out, "{m}");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ", \"reindex\": \"{reindex}\"");
            }
            Reply::Flushed { executed } => {
                let _ = write!(
                    out,
                    ", \"op\": \"flush\", \"ok\": true, \"executed\": {executed}"
                );
            }
            Reply::Stats(r) => {
                out.push_str(", \"op\": \"stats\", \"ok\": true");
                let _ = write!(
                    out,
                    ", \"requests\": {}, \"queries\": {}, \"joins\": {}, \"inserts\": {}, \
                     \"removes\": {}, \"rejected\": {}, \"errors\": {}, \"launches\": {}, \
                     \"coalesced_requests\": {}, \"cache_hits\": {}, \
                     \"incremental_reindexes\": {}, \"full_rebuilds\": {}, \
                     \"requantified_cells\": {}",
                    r.requests,
                    r.queries,
                    r.joins,
                    r.inserts,
                    r.removes,
                    r.rejected,
                    r.errors,
                    r.launches,
                    r.coalesced_requests,
                    r.cache_hits,
                    r.incremental_reindexes,
                    r.full_rebuilds,
                    r.requantified_cells
                );
                json_f64(&mut out, "execute_model_s", r.execute_model_s);
                json_f64(&mut out, "queue_p50_s", r.queue_p50_s);
                json_f64(&mut out, "queue_p99_s", r.queue_p99_s);
                json_f64(&mut out, "execute_p50_s", r.execute_p50_s);
                json_f64(&mut out, "execute_p99_s", r.execute_p99_s);
                json_f64(&mut out, "total_p50_s", r.total_p50_s);
                json_f64(&mut out, "total_p99_s", r.total_p99_s);
            }
            Reply::ShuttingDown => {
                out.push_str(", \"op\": \"shutdown\", \"ok\": true");
            }
            Reply::Error { message, kind } => {
                out.push_str(", \"ok\": false, \"error\": ");
                json_string(&mut out, message);
                let _ = write!(out, ", \"kind\": \"{kind}\"");
            }
        }
        out.push('}');
        out
    }
}

fn json_latency(out: &mut String, latency: &Latency) {
    json_f64(out, "queue_s", latency.queue_s);
    json_f64(out, "execute_s", latency.execute_s);
    json_f64(out, "total_s", latency.total_s);
}

fn json_f64(out: &mut String, key: &str, v: f64) {
    let _ = write!(out, ", \"{key}\": ");
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_join;
    use crate::result::ResultSet;

    fn dataset() -> Vec<Point<2>> {
        let mut pts = Vec::new();
        for i in 0..40u32 {
            let a = i as f32 * 0.37;
            pts.push([a.sin() * 5.0, (a * 1.7).cos() * 5.0]);
        }
        pts
    }

    /// The brute-force ε-neighbourhood of `pid` in `pts`, ascending.
    fn oracle(pts: &[Point<2>], eps: f32, pid: u32) -> Vec<u32> {
        let index = ResultSet::from_pairs(brute_force_join(pts, eps)).neighbor_index(pts.len());
        sorted(index.neighbors(pid))
    }

    fn session<'a>(cfg: ServeConfig) -> ServeSession<'a, 2> {
        ServeSession::new(dataset(), SelfJoinConfig::new(0.8), cfg).unwrap()
    }

    fn expect_neighbors(resp: &Response) -> (&Vec<u32>, Latency, u64, bool) {
        match &resp.reply {
            Reply::Neighbors {
                neighbors,
                latency,
                coalesced,
                cache_hit,
                ..
            } => (neighbors, *latency, *coalesced, *cache_hit),
            other => panic!("expected Neighbors, got {other:?}"),
        }
    }

    #[test]
    fn coalesced_queries_are_exact_and_share_one_launch() {
        let mut s = session(ServeConfig::default());
        assert!(s
            .request(Request::Query {
                point_id: 3,
                epsilon: 0.8
            })
            .is_empty());
        assert!(s
            .request(Request::Query {
                point_id: 7,
                epsilon: 0.8
            })
            .is_empty());
        let out = s.request(Request::Flush);
        assert_eq!(out.len(), 3);
        for (resp, pid) in out[..2].iter().zip([3, 7]) {
            let (neighbors, latency, coalesced, cache_hit) = expect_neighbors(resp);
            assert_eq!(neighbors, &oracle(&dataset(), 0.8, pid));
            assert_eq!(coalesced, 2);
            assert!(!cache_hit);
            assert!(latency.execute_s > 0.0);
        }
        let r = s.report();
        assert_eq!(r.launches, 1);
        assert_eq!(r.coalesced_requests, 2);
    }

    #[test]
    fn every_target_answers_exactly_and_is_charged_its_model_seconds() {
        let policy = crate::HybridPolicy::default();
        for target in [
            ExecTarget::Gpu,
            ExecTarget::Hybrid(policy),
            ExecTarget::Hybrid(policy.with_forced_cpu_fraction(1.0)),
        ] {
            let mut s = session(ServeConfig {
                target,
                ..ServeConfig::default()
            });
            s.request(Request::Query {
                point_id: 5,
                epsilon: 0.8,
            });
            let out = s.request(Request::Flush);
            let (neighbors, latency, _, _) = expect_neighbors(&out[0]);
            assert_eq!(neighbors, &oracle(&dataset(), 0.8, 5), "{target:?}");
            // A hybrid launch costs its makespan, not the GPU shadow's
            // response time.
            let points = dataset();
            let join = SelfJoin::new(&points, SelfJoinConfig::new(0.8)).unwrap();
            let expected_s = join.run_on(&target).unwrap().model_s();
            assert_eq!(
                latency.execute_s.to_bits(),
                expected_s.to_bits(),
                "{target:?}"
            );
        }
    }

    #[test]
    fn cache_answers_repeat_flushes_until_a_mutation() {
        let mut s = session(ServeConfig::default());
        s.request(Request::Query {
            point_id: 0,
            epsilon: 0.8,
        });
        s.request(Request::Flush);
        s.request(Request::Query {
            point_id: 0,
            epsilon: 0.8,
        });
        let out = s.request(Request::Flush);
        let (_, latency, _, cache_hit) = expect_neighbors(&out[0]);
        assert!(cache_hit);
        assert_eq!(latency.execute_s, 0.0);
        // A mutation invalidates the cache.
        s.request(Request::Insert {
            point: [0.01, 0.01],
        });
        s.request(Request::Query {
            point_id: 0,
            epsilon: 0.8,
        });
        let out = s.request(Request::Flush);
        let (_, _, _, cache_hit) = expect_neighbors(&out[0]);
        assert!(!cache_hit);
        assert_eq!(s.report().launches, 2);
    }

    #[test]
    fn queue_overflow_is_a_typed_rejection() {
        let mut s = session(ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        s.request(Request::Query {
            point_id: 0,
            epsilon: 0.8,
        });
        s.request(Request::Query {
            point_id: 1,
            epsilon: 0.8,
        });
        let out = s.request(Request::Query {
            point_id: 2,
            epsilon: 0.8,
        });
        assert_eq!(out.len(), 1);
        match &out[0].reply {
            Reply::Error { kind, .. } => assert_eq!(*kind, "queue_full"),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(s.report().rejected, 1);
        // The queued pair still executes fine.
        assert_eq!(s.request(Request::Flush).len(), 3);
    }

    #[test]
    fn invalid_epsilon_and_unknown_points_are_rejected_before_queueing() {
        let mut s = session(ServeConfig::default());
        for (req, kind) in [
            (
                Request::Query {
                    point_id: 0,
                    epsilon: f32::NAN,
                },
                "bad_epsilon",
            ),
            (
                Request::Query {
                    point_id: 0,
                    epsilon: -1.0,
                },
                "bad_epsilon",
            ),
            (Request::Join { epsilon: 0.0 }, "bad_epsilon"),
            (
                Request::Query {
                    point_id: 999,
                    epsilon: 0.5,
                },
                "unknown_point",
            ),
            (Request::Remove { point_id: 999 }, "unknown_point"),
        ] {
            let out = s.request(req);
            match &out[out.len() - 1].reply {
                Reply::Error { kind: k, .. } => assert_eq!(*k, kind),
                other => panic!("expected {kind}, got {other:?}"),
            }
        }
        assert_eq!(s.report().errors, 5);
        assert_eq!(s.report().launches, 0);
    }

    #[test]
    fn churn_then_query_stays_exact_at_foreign_epsilon() {
        let mut s = session(ServeConfig::default());
        s.request(Request::Insert { point: [0.3, -0.2] });
        s.request(Request::Remove { point_id: 5 });
        // ε different from the maintained index's ε forces the throwaway-
        // grid path; the answer must still be exact.
        s.request(Request::Query {
            point_id: 2,
            epsilon: 1.3,
        });
        let out = s.request(Request::Flush);
        let (neighbors, ..) = expect_neighbors(&out[0]);
        let mut pts = dataset();
        pts.push([0.3, -0.2]);
        pts.swap_remove(5);
        assert_eq!(neighbors, &oracle(&pts, 1.3, 2));
    }

    #[test]
    fn serial_mode_launches_per_request() {
        let mut s = session(ServeConfig {
            coalesce: false,
            ..ServeConfig::default()
        });
        let out = s.request(Request::Query {
            point_id: 0,
            epsilon: 0.8,
        });
        assert_eq!(out.len(), 1);
        s.request(Request::Query {
            point_id: 1,
            epsilon: 0.8,
        });
        s.request(Request::Query {
            point_id: 2,
            epsilon: 0.8,
        });
        let r = s.report();
        assert_eq!(r.launches, 3);
        assert_eq!(r.cache_hits, 0);
        assert_eq!(r.coalesced_requests, 0);
    }

    #[test]
    fn line_protocol_round_trips_and_survives_garbage() {
        let sink = sj_telemetry::JsonTelemetry::new("serve-unit");
        let mut s = session(ServeConfig::default()).with_telemetry(&sink);
        assert!(s.handle_line("   ").is_empty());
        let err = s.handle_line("{not json");
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("\"kind\": \"bad_request\""), "{}", err[0]);
        let err = s.handle_line("{\"op\": \"warp\"}");
        assert!(err[0].contains("\"kind\": \"bad_request\""));
        assert!(s
            .handle_line("{\"op\": \"query\", \"point_id\": 4, \"eps\": 0.8}")
            .is_empty());
        let lines = s.handle_line("{\"op\": \"insert\", \"point\": [0.5, 0.5]}");
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("\"op\": \"query\""));
        assert!(lines[1].contains("\"op\": \"insert\""));
        let lines = s.handle_line("{\"op\": \"stats\"}");
        assert!(lines[0].contains("\"op\": \"stats\""));
        let lines = s.handle_line("{\"op\": \"shutdown\"}");
        assert!(lines[0].contains("\"op\": \"shutdown\""));
        assert!(s.is_shut_down());
        // Every response line is strict JSON.
        for line in s.handle_line("{\"op\": \"stats\"}") {
            json::parse(&line).unwrap();
        }
        assert!(!sink.events_named("serve", "request").is_empty());
        assert!(!sink.events_named("serve", "reindex").is_empty());
    }

    #[test]
    fn shutdown_flushes_the_queue_first() {
        let mut s = session(ServeConfig::default());
        s.request(Request::Join { epsilon: 0.8 });
        let out = s.request(Request::Shutdown);
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].reply, Reply::JoinSummary { .. }));
        assert!(matches!(out[1].reply, Reply::ShuttingDown));
    }
}

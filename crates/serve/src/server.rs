//! The serving layer: request handling over an [`EngineService`], a TCP
//! accept loop, and a stdio transport.
//!
//! [`ServeCore`] is transport-agnostic — it turns a parsed
//! [`Request`](crate::protocol::Request) into a single-line JSON response
//! and owns the engine service plus the result cache. [`Server`] wraps it
//! in a `TcpListener` with one thread per connection; [`serve_stdio`] runs
//! the same core over any `BufRead`/`Write` pair (used by `serve --stdio`
//! and the integration tests).
//!
//! Engine jobs run on the thread that handles the request, through the
//! service's caller path ([`EngineService::call_spec`] and its siblings):
//! no request is handed to another thread. The service still admits each
//! job against the outstanding-work bound and runs at most `workers` jobs
//! at once; a request that finds every slot busy waits for one, and that
//! wait is its `admission` stage.
//!
//! # Response invariants
//!
//! * The `"net"` object inside a `result` response is exactly
//!   [`rlc_engine::net_json`] of the engine's verdict — byte-identical to
//!   what a direct [`Engine`](rlc_engine::Engine) run reports for the
//!   same deck, for any worker count.
//! * Admission failures never masquerade as analysis results: they are
//!   `error` responses with `kind` `overloaded`, `shutting_down` or
//!   `lint_denied`.
//! * The lint report is computed from the deck text *before* the cache
//!   lookup, so a `result` response carries the identical `"lint"`
//!   member (present only when there are findings) whether it was a hit
//!   or a miss, and `lint=deny` gates hits and misses alike.
//! * The final `stats` line never mentions the worker count, so shutdown
//!   reports from differently sized pools are byte-comparable.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use rlc_couple::GroupTiming;
use rlc_engine::{
    group_json, net_json, synth_json, CoupleSpec, EngineError, EngineService,
    EngineTelemetrySnapshot, JobSpec, NetTiming, ServiceConfig, ServiceStats, SynthSpec,
};
use rlc_lint::LintReport;
use rlc_obs::json;
use rlc_synth::SynthTiming;
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::netlist::Netlist;
use rlc_tree::synth::SynthDeck;
use rlc_tree::TreeError;

use crate::cache::{CacheConfig, CacheStats, ResultCache};
use crate::protocol::{
    read_request, AnalyzeRequest, CoupleRequest, LintMode, LintRequest, OptimizeRequest,
    ProtocolError, ReadOutcome, Request,
};
use crate::telemetry::{RequestTrace, ServeTelemetry, TelemetryConfig};

/// Sizing of a serving stack: engine slots, admission bound, cache policy,
/// telemetry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeConfig {
    /// Engine jobs that execute at once (the service's execution slots);
    /// `0` sizes to the machine.
    pub workers: usize,
    /// Bound on outstanding engine jobs; `0` takes the engine default.
    pub queue_capacity: usize,
    /// Result-cache policy.
    pub cache: CacheConfig,
    /// Telemetry policy (always-on by default; see [`TelemetryConfig`]).
    /// The configured [`TimeSource`](rlc_obs::TimeSource) is shared with
    /// the engine service so all histograms quantize identically.
    pub telemetry: TelemetryConfig,
}

impl ServeConfig {
    fn service_config(&self) -> ServiceConfig {
        let default = ServiceConfig::default();
        ServiceConfig {
            workers: self.workers,
            capacity: if self.queue_capacity == 0 {
                default.capacity
            } else {
                self.queue_capacity
            },
            time: self.telemetry.time,
        }
    }
}

/// Transport-independent request handling: engine service, result cache,
/// request counters and telemetry.
pub struct ServeCore {
    service: EngineService,
    cache: Mutex<ResultCache<NetTiming>>,
    /// Coupled-group results live in their own cache instance: the value
    /// types differ and a `"couple"` model id already separates the key
    /// spaces, but splitting the instances also keeps group results from
    /// competing with single-net results for LRU residency.
    couple_cache: Mutex<ResultCache<GroupTiming>>,
    /// Synthesis results likewise get their own instance: an optimize run
    /// is orders of magnitude more expensive to recompute than a timing
    /// query, so its entries must not be evicted by cheap analyze traffic.
    synth_cache: Mutex<ResultCache<SynthTiming>>,
    requests: AtomicU64,
    bad_requests: AtomicU64,
    lint_denied: AtomicU64,
    telemetry: ServeTelemetry,
}

impl ServeCore {
    /// Starts the engine service and an empty cache.
    pub fn new(config: ServeConfig) -> Self {
        Self {
            service: EngineService::start(config.service_config()),
            cache: Mutex::new(ResultCache::new(config.cache)),
            couple_cache: Mutex::new(ResultCache::new(config.cache)),
            synth_cache: Mutex::new(ResultCache::new(config.cache)),
            requests: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            lint_denied: AtomicU64::new(0),
            telemetry: ServeTelemetry::new(config.telemetry),
        }
    }

    /// Live engine counters (admissions, completions, rejections).
    pub fn engine_stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// Live engine latency/depth histograms.
    pub fn engine_telemetry(&self) -> EngineTelemetrySnapshot {
        self.service.telemetry()
    }

    /// Live cache counters, summed over the single-net and coupled-group
    /// caches (one cache subsystem as far as reports are concerned).
    pub fn cache_stats(&self) -> CacheStats {
        let net = lock(&self.cache).stats();
        let couple = lock(&self.couple_cache).stats();
        let synth = lock(&self.synth_cache).stats();
        CacheStats {
            hits: net.hits + couple.hits + synth.hits,
            misses: net.misses + couple.misses + synth.misses,
            evictions: net.evictions + couple.evictions + synth.evictions,
            expired: net.expired + couple.expired + synth.expired,
            entries: net.entries + couple.entries + synth.entries,
        }
    }

    /// Handles one analyze request, returning the response line.
    ///
    /// The deck is linted first (see [`LintMode`]): `deny` rejects a deck
    /// with errors or warnings before any cache or engine work, `warn`
    /// (the default) attaches a `"lint"` summary to the response when
    /// there are findings. The deck is then parsed here (the canonical
    /// form is the cache address), so the engine job only ever sees an
    /// already-built tree; a parse failure renders the same
    /// [`EngineError::Netlist`] the engine itself would report for the
    /// deck.
    pub fn analyze(&self, request: AnalyzeRequest) -> String {
        self.analyze_with_read(request, None)
    }

    /// [`analyze`](Self::analyze) with the transport's raw read-stage
    /// measurement attached to the request's trace.
    pub(crate) fn analyze_with_read(
        &self,
        request: AnalyzeRequest,
        read_ns: Option<u64>,
    ) -> String {
        let _span = rlc_obs::span!("serve/analyze");
        let mut trace = self.telemetry.begin("analyze", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("serve.request");
        // Lint before the cache lookup: the report depends only on the
        // deck text, so hits and misses carry identical annotations and
        // the deny gate cannot be dodged by a warm cache. Linting parses
        // the deck too (one front-end pass yields both), so with lint on
        // the parse stage below only derives the cache key.
        let staged = self.lint_stage(&mut trace, request.lint, &request.name, || {
            rlc_lint::lint_and_parse(&request.deck)
        });
        let (annotation, linted) = match staged {
            Ok(staged) => staged,
            Err(denied) => {
                self.telemetry.finish(trace, "lint_denied");
                return denied;
            }
        };
        let annotation = annotation.as_deref();
        // Parse (unless lint already did) + canonicalize: the canonical
        // deck is the cache address.
        let parsed = trace.time("parse", || {
            linted
                .unwrap_or_else(|| Netlist::parse(&request.deck))
                .map(|netlist| {
                    let tree = netlist.into_tree();
                    let key = ResultCache::tree_key(request.model.id(), &tree);
                    (tree, key)
                })
        });
        let (tree, key) = match parsed {
            Ok(parsed) => parsed,
            Err(source) => {
                let error = EngineError::Netlist {
                    net: request.name,
                    source,
                };
                let line = trace.time("render", || {
                    result_response("miss", &net_json(&Err(error)), annotation)
                });
                self.telemetry.finish(trace, "error");
                return line;
            }
        };
        let cached = trace.time("cache", || {
            lock(&self.cache).get(&key, self.telemetry.now())
        });
        if let Some(mut timing) = cached {
            // Content-addressed: the cached circuit answers under the
            // requester's label.
            timing.name = request.name;
            let line = trace.time("render", || {
                result_response("hit", &net_json(&Ok(timing)), annotation)
            });
            self.telemetry.finish(trace, "cache_hit");
            return line;
        }
        let mut spec = JobSpec::tree(&request.name, tree).model(request.model);
        if let Some(ms) = request.deadline_ms {
            spec = spec.deadline(self.telemetry.now() + Duration::from_millis(ms));
        }
        if let Some(ms) = request.sleep_ms {
            spec = spec.hold(Duration::from_millis(ms));
        }
        match self.service.call_spec(spec) {
            Err(rejection) => {
                let outcome = match &rejection {
                    EngineError::Overloaded { .. } => "overloaded",
                    _ => "shutting_down",
                };
                let line = trace.time("render", || admission_response(&rejection));
                self.telemetry.finish(trace, outcome);
                line
            }
            Ok((result, timing)) => {
                trace.add_stage("admission", timing.queue_ns);
                trace.add_stage("engine", timing.exec_ns);
                if let Ok(timing) = &result {
                    lock(&self.cache).insert(key, timing.clone(), self.telemetry.now());
                }
                let outcome = match &result {
                    Ok(_) => "ok",
                    Err(EngineError::DeadlineExceeded { .. }) => "deadline",
                    Err(EngineError::ShuttingDown { .. }) => "shutting_down",
                    Err(_) => "error",
                };
                let line = trace.time("render", || {
                    result_response("miss", &net_json(&result), annotation)
                });
                self.telemetry.finish(trace, outcome);
                line
            }
        }
    }

    /// The lint stage of every engine verb. With lint on,
    /// `lint_and_parse` lints the deck and parses it in the same pass.
    /// `Err` is the rendered `lint_denied` response for a deck the `deny`
    /// gate rejects; `Ok` carries the `"lint"` annotation (none for a
    /// spotless deck or with lint off) and, with lint on, the parse
    /// outcome.
    fn lint_stage<T>(
        &self,
        trace: &mut RequestTrace,
        mode: LintMode,
        name: &str,
        lint_and_parse: impl FnOnce() -> (LintReport, Result<T, TreeError>),
    ) -> Result<Linted<T>, String> {
        let (report, linted) = trace.time("lint", || match mode {
            LintMode::Off => (None, None),
            LintMode::Warn | LintMode::Deny => {
                let (report, parsed) = lint_and_parse();
                (Some(report), Some(parsed))
            }
        });
        if let (LintMode::Deny, Some(report)) = (mode, &report) {
            if !report.passes(true) {
                self.lint_denied.fetch_add(1, Ordering::Relaxed);
                rlc_obs::counter!("serve.lint.denied");
                return Err(trace.time("render", || lint_denied_response(name, report)));
            }
        }
        let annotation = report
            .filter(|r| !r.is_spotless())
            .map(|r| r.annotation_json());
        Ok((annotation, linted))
    }

    /// Handles one coupled-group request, returning the response line.
    ///
    /// The pipeline mirrors [`analyze`](Self::analyze) stage for stage,
    /// swapping in the coupled substrate: the deck is linted and parsed
    /// as a [`CoupledGroup`] in one pass with
    /// [`rlc_lint::lint_and_parse_coupled`] (parsed alone when lint is
    /// off), content-addressed by its *canonical coupled deck* under the
    /// `"couple"` model id, and analyzed through the shared engine service
    /// via [`CoupleSpec::group`]. The `"group"` member of the
    /// response is exactly [`rlc_engine::group_json`] of the engine's
    /// verdict — the single-line `rlc-couple/1` report, byte-identical for
    /// any worker count.
    pub fn couple(&self, request: CoupleRequest) -> String {
        self.couple_with_read(request, None)
    }

    pub(crate) fn couple_with_read(&self, request: CoupleRequest, read_ns: Option<u64>) -> String {
        let _span = rlc_obs::span!("serve/couple");
        let mut trace = self.telemetry.begin("couple", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("serve.request");
        let staged = self.lint_stage(&mut trace, request.lint, &request.name, || {
            rlc_lint::lint_and_parse_coupled(&request.deck)
        });
        let (annotation, linted) = match staged {
            Ok(staged) => staged,
            Err(denied) => {
                self.telemetry.finish(trace, "lint_denied");
                return denied;
            }
        };
        let annotation = annotation.as_deref();
        let parsed = trace.time("parse", || {
            linted
                .unwrap_or_else(|| CoupledGroup::parse(&request.deck))
                .map(|group| {
                    let key = ResultCache::key("couple", &group.canonical_deck());
                    (group, key)
                })
        });
        let (group, key) = match parsed {
            Ok(parsed) => parsed,
            Err(source) => {
                let error = EngineError::Netlist {
                    net: request.name,
                    source,
                };
                let line = trace.time("render", || {
                    couple_response("miss", &group_json(&Err(error)), annotation)
                });
                self.telemetry.finish(trace, "error");
                return line;
            }
        };
        let cached = trace.time("cache", || {
            lock(&self.couple_cache).get(&key, self.telemetry.now())
        });
        if let Some(mut timing) = cached {
            // Content-addressed: the cached group answers under the
            // requester's label.
            timing.name = request.name;
            let line = trace.time("render", || {
                couple_response("hit", &group_json(&Ok(timing)), annotation)
            });
            self.telemetry.finish(trace, "cache_hit");
            return line;
        }
        let mut spec = CoupleSpec::group(&request.name, group);
        if let Some(ms) = request.deadline_ms {
            spec = spec.deadline(self.telemetry.now() + Duration::from_millis(ms));
        }
        if let Some(ms) = request.sleep_ms {
            spec = spec.hold(Duration::from_millis(ms));
        }
        match self.service.call_couple_spec(spec) {
            Err(rejection) => {
                let outcome = match &rejection {
                    EngineError::Overloaded { .. } => "overloaded",
                    _ => "shutting_down",
                };
                let line = trace.time("render", || admission_response(&rejection));
                self.telemetry.finish(trace, outcome);
                line
            }
            Ok((result, timing)) => {
                trace.add_stage("admission", timing.queue_ns);
                trace.add_stage("engine", timing.exec_ns);
                if let Ok(timing) = &result {
                    lock(&self.couple_cache).insert(key, timing.clone(), self.telemetry.now());
                }
                let outcome = match &result {
                    Ok(_) => "couple",
                    Err(EngineError::DeadlineExceeded { .. }) => "deadline",
                    Err(EngineError::ShuttingDown { .. }) => "shutting_down",
                    Err(_) => "error",
                };
                let line = trace.time("render", || {
                    couple_response("miss", &group_json(&result), annotation)
                });
                self.telemetry.finish(trace, outcome);
                line
            }
        }
    }

    /// Handles one synthesis request, returning the response line.
    ///
    /// The pipeline mirrors [`analyze`](Self::analyze) stage for stage,
    /// swapping in the synthesis substrate: the deck is linted and parsed
    /// as a [`SynthDeck`] in one pass with
    /// [`rlc_lint::lint_and_parse_synth`] (parsed alone when lint is off),
    /// content-addressed by its *canonical synthesis deck* (which embeds
    /// the selected buffer card, driver resistance, and constraints) under
    /// the `"synth"` model id, and optimized through the shared engine
    /// service via [`SynthSpec::parsed`]. The `"synth"` member of the response is
    /// exactly [`rlc_engine::synth_json`] of the engine's verdict — the
    /// single-line `rlc-synth/1` report, byte-identical for any worker
    /// count.
    pub fn optimize(&self, request: OptimizeRequest) -> String {
        self.optimize_with_read(request, None)
    }

    pub(crate) fn optimize_with_read(
        &self,
        request: OptimizeRequest,
        read_ns: Option<u64>,
    ) -> String {
        let _span = rlc_obs::span!("serve/optimize");
        let mut trace = self.telemetry.begin("optimize", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("serve.request");
        let staged = self.lint_stage(&mut trace, request.lint, &request.name, || {
            rlc_lint::lint_and_parse_synth(&request.deck)
        });
        let (annotation, linted) = match staged {
            Ok(staged) => staged,
            Err(denied) => {
                self.telemetry.finish(trace, "lint_denied");
                return denied;
            }
        };
        let annotation = annotation.as_deref();
        let parsed = trace.time("parse", || {
            linted
                .unwrap_or_else(|| SynthDeck::parse(&request.deck))
                .map(|deck| {
                    let key = ResultCache::key("synth", &deck.canonical_deck());
                    (deck, key)
                })
        });
        let (deck, key) = match parsed {
            Ok(parsed) => parsed,
            Err(source) => {
                let error = EngineError::Netlist {
                    net: request.name,
                    source,
                };
                let line = trace.time("render", || {
                    synth_response("miss", &synth_json(&Err(error)), annotation)
                });
                self.telemetry.finish(trace, "error");
                return line;
            }
        };
        let cached = trace.time("cache", || {
            lock(&self.synth_cache).get(&key, self.telemetry.now())
        });
        if let Some(mut timing) = cached {
            // Content-addressed: the cached net answers under the
            // requester's label.
            timing.name = request.name;
            let line = trace.time("render", || {
                synth_response("hit", &synth_json(&Ok(timing)), annotation)
            });
            self.telemetry.finish(trace, "cache_hit");
            return line;
        }
        let mut spec = SynthSpec::parsed(&request.name, deck);
        if let Some(ms) = request.deadline_ms {
            spec = spec.deadline(self.telemetry.now() + Duration::from_millis(ms));
        }
        if let Some(ms) = request.sleep_ms {
            spec = spec.hold(Duration::from_millis(ms));
        }
        match self.service.call_synth_spec(spec) {
            Err(rejection) => {
                let outcome = match &rejection {
                    EngineError::Overloaded { .. } => "overloaded",
                    _ => "shutting_down",
                };
                let line = trace.time("render", || admission_response(&rejection));
                self.telemetry.finish(trace, outcome);
                line
            }
            Ok((result, timing)) => {
                trace.add_stage("admission", timing.queue_ns);
                trace.add_stage("engine", timing.exec_ns);
                if let Ok(timing) = &result {
                    lock(&self.synth_cache).insert(key, timing.clone(), self.telemetry.now());
                }
                let outcome = match &result {
                    Ok(_) => "synth",
                    Err(EngineError::DeadlineExceeded { .. }) => "deadline",
                    Err(EngineError::ShuttingDown { .. }) => "shutting_down",
                    Err(_) => "error",
                };
                let line = trace.time("render", || {
                    synth_response("miss", &synth_json(&result), annotation)
                });
                self.telemetry.finish(trace, outcome);
                line
            }
        }
    }

    /// Handles a `lint` request: the full `rlc-lint` report for one deck.
    /// Never touches the cache or the engine service.
    pub fn lint(&self, request: &LintRequest) -> String {
        self.lint_with_read(request, None)
    }

    pub(crate) fn lint_with_read(&self, request: &LintRequest, read_ns: Option<u64>) -> String {
        let _span = rlc_obs::span!("serve/lint");
        let mut trace = self.telemetry.begin("lint", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("serve.request");
        let report = trace.time("lint", || rlc_lint::lint_deck(&request.deck));
        let line = trace.time("render", || {
            format!(
                "{{\"proto\": \"rlc-serve/1\", \"type\": \"lint\", \"report\": {}}}",
                report.to_json_object(&request.name)
            )
        });
        self.telemetry.finish(trace, "ok");
        line
    }

    /// Handles a probe, returning the live-counters response line.
    pub fn probe(&self) -> String {
        self.probe_with_read(None)
    }

    pub(crate) fn probe_with_read(&self, read_ns: Option<u64>) -> String {
        let mut trace = self.telemetry.begin("probe", read_ns);
        self.requests.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("serve.request");
        let line = trace.time("render", || {
            format!(
                "{{\"proto\": \"rlc-serve/1\", \"type\": \"probe\", {}}}",
                self.stats_body()
            )
        });
        self.telemetry.finish(trace, "ok");
        line
    }

    /// Handles a `metrics` request: the cumulative `rlc-trace/1`
    /// telemetry report. The snapshot is taken *before* this request's
    /// own counters are recorded, so the report describes exactly the
    /// requests finished before it — which is what keeps the output
    /// byte-deterministic for a given request sequence.
    pub fn metrics(&self) -> String {
        self.metrics_with_read(None)
    }

    pub(crate) fn metrics_with_read(&self, read_ns: Option<u64>) -> String {
        let mut trace = self.telemetry.begin("metrics", read_ns);
        let report = self.metrics_report();
        self.requests.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("serve.request");
        let line = trace.time("render", || {
            format!("{{\"proto\": \"rlc-serve/1\", \"type\": \"metrics\", \"report\": {report}}}")
        });
        self.telemetry.finish(trace, "ok");
        line
    }

    /// The bare `rlc-trace/1` cumulative report (the `"report"` member of
    /// a `metrics` response): outcome counters, per-stage latency
    /// histograms, engine and cache statistics. Also what the
    /// `--metrics-interval` heartbeat prints.
    pub fn metrics_report(&self) -> String {
        self.telemetry.report(
            self.requests.load(Ordering::Relaxed),
            self.bad_requests.load(Ordering::Relaxed),
            self.lint_denied.load(Ordering::Relaxed),
            &self.service.stats(),
            &self.service.telemetry(),
            &self.cache_stats(),
        )
    }

    /// Handles a `trace` request: per-request stage breakdowns from the
    /// flight recorder (raw nanoseconds — excluded from the determinism
    /// guarantees). `last = 0` means all retained recent requests.
    pub fn trace(&self, last: usize) -> String {
        self.trace_with_read(last, None)
    }

    pub(crate) fn trace_with_read(&self, last: usize, read_ns: Option<u64>) -> String {
        let mut trace = self.telemetry.begin("trace", read_ns);
        let body = self.telemetry.trace_body(last);
        self.requests.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("serve.request");
        let line = trace.time("render", || {
            format!("{{\"proto\": \"rlc-serve/1\", \"type\": \"trace\", \"report\": {body}}}")
        });
        self.telemetry.finish(trace, "ok");
        line
    }

    /// Records and answers a framing violation.
    pub fn bad_request(&self, error: &ProtocolError) -> String {
        self.bad_request_with_read(error, None)
    }

    pub(crate) fn bad_request_with_read(
        &self,
        error: &ProtocolError,
        read_ns: Option<u64>,
    ) -> String {
        let mut trace = self.telemetry.begin("bad_request", read_ns);
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
        rlc_obs::counter!("serve.request.bad");
        let line = trace.time("render", || {
            format!(
                "{{\"proto\": \"rlc-serve/1\", \"type\": \"error\", \"kind\": \"bad_request\", \"message\": {}}}",
                json::quote(&error.message)
            )
        });
        self.telemetry.finish(trace, "bad_request");
        line
    }

    /// Stops admission and blocks until every accepted job has delivered
    /// its result. Idempotent.
    pub fn drain(&self) {
        self.service.drain();
    }

    /// The final `rlc-serve/1` stats report. Call after [`drain`]
    /// (enforced nowhere — a pre-drain call just reports a moving count).
    pub fn final_stats(&self) -> String {
        format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"stats\", {}}}",
            self.stats_body()
        )
    }

    fn stats_body(&self) -> String {
        let engine = self.service.stats();
        let cache = self.cache_stats();
        format!(
            "\"requests\": {}, \"bad_requests\": {}, \"lint_denied\": {}, \
             \"engine\": {{\"submitted\": {}, \"completed\": {}, \"failed\": {}, \
             \"rejected_overload\": {}, \"rejected_shutdown\": {}}}, \
             \"cache\": {{\"entries\": {}, \"hits\": {}, \"misses\": {}, \
             \"evictions\": {}, \"expired\": {}}}",
            self.requests.load(Ordering::Relaxed),
            self.bad_requests.load(Ordering::Relaxed),
            self.lint_denied.load(Ordering::Relaxed),
            engine.submitted,
            engine.completed,
            engine.failed,
            engine.rejected_overload,
            engine.rejected_shutdown,
            cache.entries,
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.expired,
        )
    }
}

/// A `couple` result line: like [`result_response`] but the verdict is the
/// group's `rlc-couple/1` object under `"group"`.
fn couple_response(cache: &str, group: &str, lint: Option<&str>) -> String {
    match lint {
        Some(annotation) => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"group\": {group}, \"lint\": {annotation}}}"
        ),
        None => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"group\": {group}}}"
        ),
    }
}

/// An `optimize` result line: like [`result_response`] but the verdict is
/// the net's `rlc-synth/1` object under `"synth"`.
fn synth_response(cache: &str, synth: &str, lint: Option<&str>) -> String {
    match lint {
        Some(annotation) => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"synth\": {synth}, \"lint\": {annotation}}}"
        ),
        None => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"synth\": {synth}}}"
        ),
    }
}

fn result_response(cache: &str, net: &str, lint: Option<&str>) -> String {
    match lint {
        Some(annotation) => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"net\": {net}, \"lint\": {annotation}}}"
        ),
        None => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"net\": {net}}}"
        ),
    }
}

/// The `lint=deny` rejection: typed like `overloaded`, citing the
/// report's most severe finding and carrying the full annotation.
/// What the lint stage hands on: the `"lint"` annotation, and the parse
/// outcome when linting produced one.
type Linted<T> = (Option<String>, Option<Result<T, TreeError>>);

fn lint_denied_response(net: &str, report: &LintReport) -> String {
    let primary = report.primary();
    let code = primary.map_or("L000", |d| d.rule.code());
    let message = primary.map_or_else(
        || "lint gate failed".to_owned(),
        |d| format!("{} {}: {}", d.rule.code(), d.rule.severity(), d.message),
    );
    format!(
        "{{\"proto\": \"rlc-serve/1\", \"type\": \"error\", \"kind\": \"lint_denied\", \"net\": {}, \"code\": {}, \"message\": {}, \"lint\": {}}}",
        json::quote(net),
        json::quote(code),
        json::quote(&message),
        report.annotation_json(),
    )
}

fn admission_response(error: &EngineError) -> String {
    let kind = match error {
        EngineError::Overloaded { .. } => "overloaded",
        EngineError::ShuttingDown { .. } => "shutting_down",
        // Admission only ever rejects with the two variants above.
        _ => "rejected",
    };
    format!(
        "{{\"proto\": \"rlc-serve/1\", \"type\": \"error\", \"kind\": \"{kind}\", \"net\": {}, \"message\": {}}}",
        json::quote(error.net()),
        json::quote(&error.to_string())
    )
}

/// Runs the request loop over arbitrary streams: read a request, write
/// one response line, flush. Returns `true` if the peer asked for
/// shutdown (as opposed to hanging up or breaking framing).
///
/// On [`Request::Shutdown`] the core is drained and the final stats line
/// is the response. A [`ReadOutcome::Malformed`] request gets a
/// `bad_request` response and ends the loop — the stream can no longer be
/// trusted to align with request boundaries.
fn serve_streams<R: BufRead, W: Write>(
    core: &ServeCore,
    input: &mut R,
    output: &mut W,
) -> io::Result<bool> {
    loop {
        // The read stage spans from "ready for a request" to "request
        // framed", so it includes any wait for the peer to speak.
        let read_start = core.telemetry.now();
        let outcome = read_request(input)?;
        let read_ns = Some(u64::try_from(read_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        let (line, done) = match outcome {
            ReadOutcome::Eof => return Ok(false),
            ReadOutcome::Malformed(error) => {
                (core.bad_request_with_read(&error, read_ns), Some(false))
            }
            ReadOutcome::Request(Request::Probe) => (core.probe_with_read(read_ns), None),
            ReadOutcome::Request(Request::Metrics) => (core.metrics_with_read(read_ns), None),
            ReadOutcome::Request(Request::Trace { last }) => {
                (core.trace_with_read(last, read_ns), None)
            }
            ReadOutcome::Request(Request::Analyze(request)) => {
                (core.analyze_with_read(request, read_ns), None)
            }
            ReadOutcome::Request(Request::Couple(request)) => {
                (core.couple_with_read(request, read_ns), None)
            }
            ReadOutcome::Request(Request::Optimize(request)) => {
                (core.optimize_with_read(request, read_ns), None)
            }
            ReadOutcome::Request(Request::Lint(request)) => {
                (core.lint_with_read(&request, read_ns), None)
            }
            ReadOutcome::Request(Request::Shutdown) => {
                core.drain();
                (core.final_stats(), Some(true))
            }
        };
        write_response(output, line)?;
        if let Some(shutdown) = done {
            return Ok(shutdown);
        }
    }
}

/// Serves the `rlc-serve/1` protocol over a single `BufRead`/`Write`
/// pair (stdin/stdout in `serve --stdio`). Drains the engine and flushes
/// the final stats report when the input ends — unless the peer already
/// received it by asking for `shutdown`.
pub fn serve_stdio<R: BufRead, W: Write>(
    config: ServeConfig,
    input: &mut R,
    output: &mut W,
) -> io::Result<()> {
    let core = ServeCore::new(config);
    let shutdown_reported = serve_streams(&core, input, output)?;
    if !shutdown_reported {
        core.drain();
        write_response(output, core.final_stats())?;
    }
    Ok(())
}

/// Writes one response line in a single `write_all`, then flushes.
///
/// A separate write for the newline would leave the peer's last bytes in
/// a second TCP segment, held back until the first is acknowledged —
/// a delayed-ACK stall on every response.
fn write_response<W: Write>(output: &mut W, mut line: String) -> io::Result<()> {
    line.push('\n');
    output.write_all(line.as_bytes())?;
    output.flush()
}

/// The live-connection registry: a read-half clone of every open
/// connection, keyed by accept sequence number.
type PeerRegistry = Mutex<BTreeMap<u64, TcpStream>>;

/// Locks a shared structure, tolerating poison. A thread that panicked
/// while holding a cache or the peer registry must not take every later
/// request down with it. Recovering is sound for both: every cache update
/// leaves a map of complete entries and a hit needs a full-key match, so a
/// half-finished update can at worst miscount a statistic or cost a
/// recomputation; and a panicked connection must not stop the others from
/// deregistering or shutdown from reaching idle peers.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Accepts one connection with Nagle's algorithm off. Responses are
/// single writes, and a pipelining peer sends its next request before it
/// reads the previous answer; with Nagle on, a response would wait for
/// the ACK of the one before it, which the peer's delayed ACK holds back
/// until its next request goes out.
fn accept_connection(listener: &TcpListener) -> io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    // Best effort: a socket that refuses the option still serves, just
    // with Nagle's batching, so it must not stop the accept loop.
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// A TCP front end over a shared [`ServeCore`]: one thread per
/// connection, graceful stop on the `shutdown` verb.
pub struct Server {
    core: Arc<ServeCore>,
    listener: TcpListener,
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    /// Read-half clones of every live connection, so shutdown can
    /// deliver EOF to peers parked in `read_request`. Each connection
    /// removes its own entry when it ends.
    peers: Arc<PeerRegistry>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the engine service.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Self {
            core: Arc::new(ServeCore::new(config)),
            listener,
            addr,
            stopping: Arc::new(AtomicBool::new(false)),
            peers: Arc::new(Mutex::new(BTreeMap::new())),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle on the shared core, e.g. for the `--metrics-interval`
    /// heartbeat thread to read [`ServeCore::metrics_report`] while the
    /// accept loop runs.
    pub fn core(&self) -> Arc<ServeCore> {
        Arc::clone(&self.core)
    }

    /// Accepts connections until a peer sends `shutdown`, then stops
    /// every remaining connection, drains the engine, and returns the
    /// final stats report (the same line the shutting-down peer
    /// received).
    ///
    /// Connections idle at shutdown are not waited on indefinitely:
    /// their read halves are shut down, so a peer parked between
    /// requests sees EOF while any response still being written goes
    /// out intact.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures; per-connection I/O errors
    /// only end their own connection.
    pub fn run(self) -> io::Result<String> {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        for id in 0u64.. {
            let stream = accept_connection(&self.listener)?;
            if self.stopping.load(Ordering::SeqCst) {
                // The wake-up connection from the shutdown handler (or a
                // late client); stop accepting.
                break;
            }
            // Join ended connections as we go, so only live ones are
            // held for the final join.
            for ended in connections.extract_if(.., |c| c.is_finished()) {
                let _ = ended.join();
            }
            if let Ok(clone) = stream.try_clone() {
                lock(&self.peers).insert(id, clone);
            }
            let core = Arc::clone(&self.core);
            let stopping = Arc::clone(&self.stopping);
            let peers = Arc::clone(&self.peers);
            let addr = self.addr;
            connections.push(std::thread::spawn(move || {
                handle_connection(&core, stream, &stopping, addr);
                lock(&peers).remove(&id);
            }));
        }
        for peer in lock(&self.peers).values() {
            let _ = peer.shutdown(std::net::Shutdown::Read);
        }
        for connection in connections {
            let _ = connection.join();
        }
        self.core.drain();
        Ok(self.core.final_stats())
    }
}

fn handle_connection(
    core: &ServeCore,
    stream: TcpStream,
    stopping: &AtomicBool,
    server_addr: SocketAddr,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let shutdown = serve_streams(core, &mut reader, &mut writer).unwrap_or(false);
    // The peer registry still holds a clone of this socket until the
    // caller deregisters it; shut it down now so the peer sees EOF as
    // soon as its session ends.
    let _ = writer.shutdown(std::net::Shutdown::Both);
    if shutdown && !stopping.swap(true, Ordering::SeqCst) {
        // First shutdown request: unblock the accept loop with a
        // throwaway connection so `run` can join and report.
        let _ = TcpStream::connect(server_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Write` that records every `write` call's bytes separately.
    #[derive(Default)]
    struct RecordingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn accepted_connections_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let accepted = accept_connection(&listener).unwrap();
        assert!(accepted.nodelay().unwrap());
        drop(client);
    }

    #[test]
    fn a_panic_under_the_cache_lock_does_not_poison_later_requests() {
        let core = Arc::new(ServeCore::new(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        }));
        let deck = ".input in\nR1 in n1 25\nC1 n1 0 0.5p\n";
        let expected = core.analyze(AnalyzeRequest::new("a", deck));
        assert!(expected.contains("\"cache\": \"miss\""), "{expected}");

        let holder = Arc::clone(&core);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.cache.lock().unwrap();
            panic!("injected panic while holding the result cache");
        })
        .join();
        assert!(panicked.is_err());
        assert!(core.cache.is_poisoned());

        // The hit path reads the poisoned cache and answers as before.
        let again = core.analyze(AnalyzeRequest::new("a", deck));
        assert_eq!(again, expected.replace("\"miss\"", "\"hit\""));
        // The miss path inserts into it.
        let other = core.analyze(AnalyzeRequest::new(
            "b",
            ".input in\nR1 in n1 50\nC1 n1 0 1p\n",
        ));
        assert!(other.contains("\"cache\": \"miss\""), "{other}");
        assert!(other.contains("\"status\": \"ok\""), "{other}");
        assert_eq!(core.cache_stats().entries, 2);
        core.drain();
    }

    #[test]
    fn each_response_is_written_in_one_call() {
        let mut input = io::Cursor::new(b"probe\nmetrics\n".to_vec());
        let mut output = RecordingWriter::default();
        serve_stdio(ServeConfig::default(), &mut input, &mut output).unwrap();
        // probe, metrics, and the final stats line on EOF.
        assert_eq!(output.writes.len(), 3, "one write per response");
        for write in &output.writes {
            let newlines = write.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(newlines, 1, "{:?}", String::from_utf8_lossy(write));
            assert_eq!(write.last(), Some(&b'\n'));
        }
    }
}

//! The traced run: per-layer metrics.
//!
//! Short TCP phases against the real server give the transport-side
//! numbers: latency at the fixed rate, connect time, fds and threads at the
//! end, sender lag, the server's own cache counts, the stall without quick
//! ACKs, the highest ladder rate that meets the latency limit, and the
//! saturation throughput. Then the same workload's requests are replayed
//! in-process through each layer's public functions in the order the serve
//! path calls them, with a span around every call. Untraced and traced
//! replays of the same inputs alternate; the ratio of their median wall
//! times is the tracing overhead.

use std::path::Path;
use std::time::{Duration, Instant};

use eed::SecondOrderModel;
use rlc_couple::{analyze_group_with, CoupleScratch};
use rlc_engine::{
    group_json, net_json, synth_json, CoupleSpec, EngineError, EngineService, JobSpec, NetTiming,
    ServiceConfig, SinkSummary, SynthSpec,
};
use rlc_moments::{flat_sums_into, ElmoreSums};
use rlc_serve::protocol::{read_request, ReadOutcome, Request as WireRequest};
use rlc_serve::{CacheConfig, ResultCache};
use rlc_synth::{synthesize, SynthConfig, SynthTiming};
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::flat::FlatTree;
use rlc_tree::netlist::Netlist;
use rlc_tree::synth::SynthDeck;
use rlc_tree::RlcTree;

use crate::engine_bench::{self, Batches};
use crate::ledger::{self, Ledger, Span};
use crate::report::{Metric, Tally};
use crate::serve_bench::{self, Inputs, Phase};
use crate::server::Gauges;
use crate::stats;
use crate::workload::{Corpus, Request, Workload, LIMIT_MS, RATE};

/// Replays of each kind (untraced, traced), alternated.
const REPLAYS: usize = 3;
/// Measured requests replayed per serve replay.
const REPLAY_REQUESTS: usize = 400;

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// does not exercise reports 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("latency.p50_ms", "ms"),
    ("latency.p99_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("throughput_per_s", "1/s"),
    ("serve.stall_ms", "ms"),
    ("serve.read_us", "us"),
    ("serve.connect_ms", "ms"),
    ("serve.fds_end", "count"),
    ("serve.threads_end", "count"),
    ("lint.us", "us"),
    ("lint.ns_per_card", "ns"),
    ("lint.findings", "count"),
    ("tree.parse.ns_per_card", "ns"),
    ("tree.canon_us", "us"),
    ("tree.canon_bytes", "bytes"),
    ("tree.flatten_us", "us"),
    ("serve.cache.key_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("engine.queue_ms", "ms"),
    ("engine.exec_ms", "ms"),
    ("engine.jobs", "count"),
    ("engine.rejected", "count"),
    ("moments.sums_us", "us"),
    ("moments.ns_per_node", "ns"),
    ("eed.model_us", "us"),
    ("eed.sinks", "count"),
    ("couple.analyze_ms", "ms"),
    ("couple.noise_pairs", "count"),
    ("synth.run_ms", "ms"),
    ("synth.sites", "count"),
    ("synth.buffers", "count"),
    ("engine.render_us", "us"),
    ("gen.lag_p99_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("share.serve", "ratio"),
    ("share.lint", "ratio"),
    ("share.tree", "ratio"),
    ("share.serve.cache", "ratio"),
    ("share.engine", "ratio"),
    ("share.moments", "ratio"),
    ("share.eed", "ratio"),
    ("share.couple", "ratio"),
    ("share.synth", "ratio"),
    ("share.render", "ratio"),
    ("share.residual", "ratio"),
    ("kind.couple_share", "ratio"),
    ("kind.synth_share", "ratio"),
];

/// Which share each span name's self time counts toward.
fn share_of(span: &str) -> &'static str {
    match span {
        "serve.read" => "share.serve",
        "lint" => "share.lint",
        "tree.parse" | "tree.canon" | "tree.flatten" => "share.tree",
        "serve.cache.key" | "serve.cache" => "share.serve.cache",
        "engine" => "share.engine",
        "moments.sums" => "share.moments",
        "eed.model" => "share.eed",
        "couple" => "share.couple",
        "synth" => "share.synth",
        "render" => "share.render",
        _ => "share.residual",
    }
}

/// Counts one replay accrues, identical for every replay of one input.
#[derive(Debug, Default, Clone)]
struct Counters {
    cards: u64,
    findings: u64,
    canon_bytes: u64,
    canon_decks: u64,
    nodes: u64,
    sinks: u64,
    lookups: u64,
    hits: u64,
    evictions: u64,
    jobs: u64,
    rejected: u64,
    noise_pairs: u64,
    sites: u64,
    buffers: u64,
    queue_ms: Vec<f64>,
    exec_ms: Vec<f64>,
}

/// Deck lines that are cards or directives (not blank, not comments).
fn cards(deck: &str) -> u64 {
    deck.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('*') && !l.starts_with(';'))
        .count() as u64
}

/// The metric table, filled from the spans and counters.
struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Layers {
    fn new() -> Self {
        Self {
            values: LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = value;
    }

    /// Medians and totals per span name, shares of request time.
    fn record_spans(&mut self, spans: &[Span], request: &str) {
        let names = ledger::by_name(spans);
        let median_us = |name: &str| {
            names.get(name).map_or(0.0, |s| {
                let d: Vec<f64> = s.durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
                stats::median(&d)
            })
        };
        self.set("serve.read_us", median_us("serve.read"));
        self.set("lint.us", median_us("lint"));
        self.set("tree.canon_us", median_us("tree.canon"));
        self.set("tree.flatten_us", median_us("tree.flatten"));
        self.set("serve.cache.key_us", median_us("serve.cache.key"));
        self.set("moments.sums_us", median_us("moments.sums"));
        self.set("eed.model_us", median_us("eed.model"));
        self.set("couple.analyze_ms", median_us("couple") / 1e3);
        self.set("synth.run_ms", median_us("synth") / 1e3);
        self.set("engine.render_us", median_us("render"));

        let total: u64 = names.get(request).map_or(0, |s| s.total_ns);
        let mut shares = std::collections::BTreeMap::<&str, u64>::new();
        for (name, s) in &names {
            *shares.entry(share_of(name)).or_default() += s.self_ns;
        }
        for (share, ns) in shares {
            self.set(share, ns as f64 / total.max(1) as f64);
        }
    }

    fn per_unit(&mut self, metric: &str, spans: &[Span], span: &str, units: u64, replays: usize) {
        let ns: u64 = spans
            .iter()
            .filter(|s| s.name == span)
            .map(Span::duration_ns)
            .sum();
        let per_replay = ns as f64 / replays as f64;
        self.set(
            metric,
            if units == 0 {
                0.0
            } else {
                per_replay / units as f64
            },
        );
    }

    fn counters(&mut self, c: &Counters) {
        self.set("lint.findings", c.findings as f64);
        self.set(
            "tree.canon_bytes",
            c.canon_bytes as f64 / c.canon_decks.max(1) as f64,
        );
        self.set(
            "serve.cache.hit_ratio",
            c.hits as f64 / c.lookups.max(1) as f64,
        );
        self.set("serve.cache.evictions", c.evictions as f64);
        self.set("engine.jobs", c.jobs as f64);
        self.set("engine.rejected", c.rejected as f64);
        if !c.queue_ms.is_empty() {
            self.set("engine.queue_ms", stats::median(&c.queue_ms));
            self.set("engine.exec_ms", stats::median(&c.exec_ms));
        }
        self.set("eed.sinks", c.sinks as f64);
        self.set("couple.noise_pairs", c.noise_pairs as f64);
        self.set("synth.sites", c.sites as f64);
        self.set("synth.buffers", c.buffers as f64);
    }

    fn metrics(&self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &(_, value))| Metric::new(name, value, unit))
            .collect()
    }
}

/// Writes the spans next to the build outputs, inside the checkout.
fn write_spans(repo: &Path, workload: &str, seed: u64, ledger: &Ledger) {
    let dir = repo.join(".bench_out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, ledger.to_jsonl())) {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), ledger.spans.len()),
        Err(e) => eprintln!("spans not written: {e}"),
    }
}

/// Median traced wall time over median untraced wall time.
fn overhead(untraced: &[f64], traced: &[f64]) -> f64 {
    stats::median(traced) / stats::median(untraced)
}

// ---------------------------------------------------------------------------
// Serve workloads.
// ---------------------------------------------------------------------------

/// What one serve replay produced.
struct Replay {
    /// Wall time of the measured part.
    wall: Duration,
    /// Each measured answer's rendered `net` member.
    rendered: Vec<String>,
    /// Indices of the measured requests that missed the cache.
    misses: Vec<usize>,
}

/// The engine worker's job for one tree under the EED model, run on the
/// calling thread so that each kernel layer gets a span of its own:
/// flatten into the resident snapshot, the two moment sweeps, then the
/// second-order model per sink. The replay's answers are compared byte for
/// byte with the server's, which pins this to the worker's own code.
fn eed_job(
    ledger: &mut Ledger,
    name: &str,
    tree: &RlcTree,
    flat: &mut FlatTree,
    sums: &mut ElmoreSums,
    counters: &mut Counters,
) -> Result<NetTiming, EngineError> {
    if tree.is_empty() {
        return Err(EngineError::EmptyNet {
            net: name.to_owned(),
        });
    }
    ledger.time("tree.flatten", || flat.rebuild_from(tree));
    ledger.time("moments.sums", || flat_sums_into(flat, sums));
    counters.nodes += flat.len() as u64;
    let sinks: Vec<SinkSummary> = ledger.time("eed.model", || {
        flat.leaf_ids()
            .filter_map(|node| {
                let (rc, lc) = (sums.rc(node), sums.lc(node));
                if rc.as_seconds() == 0.0 && lc.as_seconds_squared() == 0.0 {
                    return None;
                }
                let model = SecondOrderModel::from_sums(rc, lc);
                Some(SinkSummary {
                    node,
                    delay_50: model.delay_50(),
                    rise_time: model.rise_time(),
                    zeta: model.zeta(),
                    damping: model.damping(),
                })
            })
            .collect()
    });
    counters.sinks += sinks.len() as u64;
    Ok(NetTiming {
        name: name.to_owned(),
        sections: tree.len(),
        sinks,
    })
}

/// One replay of `requests` (warm-up first, counters reset after it)
/// through the serve path's layers, all on the calling thread.
fn replay_serve(
    warmup: &[Request],
    requests: &[Request],
    ledger: &mut Ledger,
    counters: &mut Counters,
    first_id: u64,
) -> Replay {
    let mut cache: ResultCache<NetTiming> = ResultCache::new(CacheConfig::default());
    let (mut flat, mut sums) = (FlatTree::default(), ElmoreSums::default());
    let wires: Vec<Vec<u8>> = warmup.iter().chain(requests).map(Request::wire).collect();
    let mut rendered = Vec::with_capacity(requests.len());
    let mut misses = Vec::new();
    let mut evictions_before = 0;
    let mut start = Instant::now();
    for (k, wire) in wires.iter().enumerate() {
        if k == warmup.len() {
            *counters = Counters::default();
            evictions_before = cache.stats().evictions;
            start = Instant::now();
        }
        let measured = k >= warmup.len();
        ledger.begin_request(first_id + k as u64, "request");
        let outcome = ledger.time("serve.read", || read_request(&mut wire.as_slice()));
        let Ok(ReadOutcome::Request(WireRequest::Analyze(request))) = outcome else {
            ledger.end_request();
            rendered.push(String::new());
            continue;
        };
        let report = ledger.time("lint", || rlc_lint::lint_deck(&request.deck));
        counters.findings += report.diagnostics().len() as u64;
        counters.cards += cards(&request.deck);
        let parsed = ledger.time("tree.parse", || Netlist::parse(&request.deck));
        let result = match parsed {
            Err(source) => Err(EngineError::Netlist {
                net: request.name.clone(),
                source,
            }),
            Ok(netlist) => {
                let tree = netlist.into_tree();
                let canon = ledger.time("tree.canon", || tree.canonical_deck());
                counters.canon_bytes += canon.len() as u64;
                counters.canon_decks += 1;
                let key = ledger.time("serve.cache.key", || {
                    ResultCache::key(request.model.id(), &canon)
                });
                let before = cache.stats();
                let cached = ledger.time("serve.cache", || cache.get(&key, Instant::now()));
                counters.lookups += 1;
                counters.hits += cache.stats().hits - before.hits;
                match cached {
                    Some(mut timing) => {
                        timing.name = request.name.clone();
                        Ok(timing)
                    }
                    None => {
                        // Generated requests name no model: the default, EED.
                        counters.jobs += 1;
                        if measured {
                            misses.push(k - warmup.len());
                        }
                        let result = ledger.nest("engine", |ledger| {
                            eed_job(ledger, &request.name, &tree, &mut flat, &mut sums, counters)
                        });
                        if let Ok(timing) = &result {
                            ledger.time("serve.cache", || {
                                cache.insert(key, timing.clone(), Instant::now())
                            });
                        }
                        result
                    }
                }
            }
        };
        let line = ledger.time("render", || net_json(&result));
        ledger.end_request();
        if measured {
            rendered.push(line);
        }
    }
    counters.evictions = cache.stats().evictions - evictions_before;
    Replay {
        wall: start.elapsed(),
        rendered,
        misses,
    }
}

/// The requests that missed the cache, through the engine's own service
/// one at a time (as one connection submits them): queue and execution
/// time per job from the engine's `JobTiming`. This runs outside the
/// replay's spans, so no work is timed twice; each answer must match the
/// replay's.
fn serve_service_pass(
    requests: &[Request],
    replay: &Replay,
    counters: &mut Counters,
    tally: &mut Tally,
) {
    let service = EngineService::start(ServiceConfig {
        workers: engine_bench::WORKERS,
        ..ServiceConfig::default()
    });
    for &k in &replay.misses {
        let wire = requests[k].wire();
        let Ok(ReadOutcome::Request(WireRequest::Analyze(request))) =
            read_request(&mut wire.as_slice())
        else {
            tally.fail_run(format!("{}: not an analyze request", requests[k].name));
            continue;
        };
        let Ok(netlist) = Netlist::parse(&request.deck) else {
            continue; // answered by the parser, never by the engine
        };
        let spec = JobSpec::tree(&request.name, netlist.into_tree()).model(request.model);
        let result = match service.submit_spec(spec) {
            Ok(ticket) => {
                let (result, timing) = ticket.wait_timed();
                counters.queue_ms.push(timing.queue_ns as f64 / 1e6);
                counters.exec_ms.push(timing.exec_ns as f64 / 1e6);
                result
            }
            Err(rejection) => {
                counters.rejected += 1;
                Err(rejection)
            }
        };
        if net_json(&result) != replay.rendered[k] {
            tally.fail_run(format!(
                "{}: engine service and in-thread job answers differ",
                requests[k].name
            ));
        }
    }
    let _ = service.shutdown();
}

/// A phase at the fixed rate; as in the untraced run, a phase where the
/// sender fell behind is discarded and run again, a few times at most.
fn valid_phase(
    workload: Workload,
    exe: &Path,
    inputs: &mut Inputs,
    seconds: f64,
    tally: &mut Tally,
) -> Result<(Phase, f64), String> {
    for attempt in 0..3 {
        let phase = serve_bench::run_phase(
            exe,
            inputs,
            attempt,
            (RATE * seconds).ceil() as usize,
            RATE,
            workload.churn(),
            true,
        )?;
        phase.verify(inputs, tally);
        let lag = serve_bench::lag_tail_ms(&phase.run.records);
        if lag <= serve_bench::LAG_BOUND_MS {
            return Ok((phase, lag));
        }
        eprintln!("phase discarded: the sender ran {lag:.2} ms late at its tail");
    }
    Err("run invalid: the sender kept falling behind its schedule".to_owned())
}

/// Send-to-answer times of the answered requests, in milliseconds.
fn send_to_answer_ms(phase: &Phase) -> Vec<f64> {
    phase
        .run
        .records
        .iter()
        .filter_map(|r| Some(r.done?.saturating_sub(r.sent?).as_secs_f64() * 1e3))
        .collect()
}

pub fn serve(
    workload: Workload,
    seed: u64,
    seconds: f64,
    exe: &Path,
    repo: &Path,
) -> Result<(Vec<Metric>, Tally), String> {
    let mut inputs = Inputs::new(workload, seed)?;
    let mut tally = Tally::default();
    let (phase, lag) = valid_phase(
        workload,
        exe,
        &mut inputs,
        (0.25 * seconds).max(1.0),
        &mut tally,
    )?;
    let connects: Vec<f64> = phase
        .run
        .connects
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let latencies = serve_bench::latencies_ms(&phase.run.records);
    let server_hit_ratio =
        phase.counts.hits as f64 / (phase.counts.hits + phase.counts.misses).max(1) as f64;

    // The same load without quick ACKs: what the server's transport stall
    // adds to the median send-to-answer time. The stall may hold up the
    // sender itself (a churning connection waits for its answers), so this
    // phase is timed from the send and is not discarded for lag.
    let stalled = serve_bench::run_phase(
        exe,
        &mut inputs,
        5,
        (RATE * (0.15 * seconds).max(1.0)).ceil() as usize,
        RATE,
        workload.churn(),
        false,
    )?;
    stalled.verify(&inputs, &mut tally);
    let stall_ms =
        stats::median(&send_to_answer_ms(&stalled)) - stats::median(&send_to_answer_ms(&phase));
    eprintln!(
        "{}: median send-to-answer time {stall_ms:.3} ms higher without quick ACKs",
        workload.name()
    );

    let max_rate = if serve_bench::rung_passes(&phase.run, RATE, LIMIT_MS).0 {
        let base = serve_bench::delivered_rps(&phase.run);
        let rung_seconds = 0.075 * seconds;
        serve_bench::max_rate(workload, exe, &mut inputs, base, rung_seconds, &mut tally)?
    } else {
        eprintln!(
            "{}: the fixed rate itself misses the {} ms limit",
            workload.name(),
            LIMIT_MS
        );
        0.0
    };

    let throughput = serve_bench::saturation(workload, exe, &mut inputs, seconds, &mut tally)?;

    let measured = &phase.requests[..phase.requests.len().min(REPLAY_REQUESTS)];
    let mut traced_ledger = Ledger::new();
    let mut counters = Counters::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first_id = 0;
    for round in 0..REPLAYS {
        let mut off = Ledger::disabled();
        let replay = replay_serve(
            &phase.warmup,
            measured,
            &mut off,
            &mut Counters::default(),
            0,
        );
        untraced.push(replay.wall.as_secs_f64());
        let mut round_counters = Counters::default();
        let replay = replay_serve(
            &phase.warmup,
            measured,
            &mut traced_ledger,
            &mut round_counters,
            first_id,
        );
        first_id += (phase.warmup.len() + measured.len()) as u64;
        traced.push(replay.wall.as_secs_f64());
        if round == 0 {
            // The replay must answer exactly what the server answered.
            for ((record, line), request) in
                phase.run.records.iter().zip(&replay.rendered).zip(measured)
            {
                let served = record.response.as_deref().and_then(serve_bench::net_member);
                if served != Some(line.as_str()) {
                    tally.fail_run(format!(
                        "{}: replay and server answers differ",
                        request.name
                    ));
                    break;
                }
            }
            serve_service_pass(measured, &replay, &mut round_counters, &mut tally);
            counters = round_counters;
        }
    }

    // Measured requests only: the warm-up requests are not part of the
    // ledger's shares either.
    let warm = phase.warmup.len() as u64;
    let per_round = warm + measured.len() as u64;
    let spans = keep(&traced_ledger.spans, |s| s.request % per_round >= warm);

    let mut layers = Layers::new();
    layers.record_spans(&spans, "request");
    layers.counters(&counters);
    layers.per_unit("lint.ns_per_card", &spans, "lint", counters.cards, REPLAYS);
    layers.per_unit(
        "tree.parse.ns_per_card",
        &spans,
        "tree.parse",
        counters.cards,
        REPLAYS,
    );
    layers.per_unit(
        "moments.ns_per_node",
        &spans,
        "moments.sums",
        counters.nodes,
        REPLAYS,
    );
    layers.set(
        "serve.connect_ms",
        if connects.is_empty() {
            0.0
        } else {
            stats::median(&connects)
        },
    );
    layers.set("serve.fds_end", phase.gauges.fds as f64);
    layers.set("serve.stall_ms", stall_ms);
    layers.set("max_rate_rps", max_rate);
    layers.set("throughput_per_s", throughput);
    layers.set("serve.threads_end", phase.gauges.threads as f64);
    layers.set("gen.lag_p99_ms", lag);
    layers.set("latency.p50_ms", stats::quantile(&latencies, 0.5));
    layers.set("latency.p99_ms", stats::tail(&latencies).0);
    layers.set("bench.trace_overhead", overhead(&untraced, &traced));
    check_hit_ratio(workload, &counters, server_hit_ratio, &mut tally);
    print_gauges(&phase.gauges, server_hit_ratio, phase.counts.evictions);
    write_spans(repo, workload.name(), seed, &traced_ledger);
    Ok((layers.metrics(), tally))
}

/// The spans `wanted` keeps, with parent links remapped; a link to a
/// dropped span becomes a root.
fn keep(all: &[Span], wanted: impl Fn(&Span) -> bool) -> Vec<Span> {
    let mut map = vec![None; all.len()];
    let mut kept = Vec::new();
    for (i, s) in all.iter().enumerate() {
        if wanted(s) {
            map[i] = Some(kept.len());
            kept.push(s.clone());
        }
    }
    for s in &mut kept {
        s.parent = s.parent.and_then(|p| map[p]);
    }
    kept
}

fn check_hit_ratio(workload: Workload, c: &Counters, server: f64, tally: &mut Tally) {
    let replay = c.hits as f64 / c.lookups.max(1) as f64;
    let ok = match workload {
        Workload::ServeRepeat => replay >= 0.95 && server >= 0.95 && c.jobs == 0,
        _ => replay == 0.0 && server == 0.0,
    };
    eprintln!(
        "{}: cache hit ratio {replay:.4} in the replay, {server:.4} at the server",
        workload.name()
    );
    if !ok {
        tally.fail_run(format!(
            "{}: hit ratio {replay} (replay) / {server} (server) is not what the workload is built for",
            workload.name()
        ));
    }
}

fn print_gauges(g: &Gauges, hit_ratio: f64, evictions: u64) {
    eprintln!(
        "server at end: {} fds, {} threads, VmHWM {} kB, hit ratio {hit_ratio:.4}, {evictions} evictions",
        g.fds, g.threads, g.vm_hwm_kb
    );
}

// ---------------------------------------------------------------------------
// engine_batch.
// ---------------------------------------------------------------------------

/// One sequential replay of the corpus through the batch jobs' layers.
fn replay_engine(
    corpus: &Corpus,
    expected: &[String],
    ledger: &mut Ledger,
    counters: &mut Counters,
    first_id: u64,
    mismatches: &mut Vec<String>,
) -> Duration {
    let mut scratch = CoupleScratch::default();
    let config = SynthConfig::default();
    let start = Instant::now();
    let mut id = first_id;
    for (k, (name, deck)) in corpus.couple.iter().enumerate() {
        ledger.begin_request(id, "job.couple");
        id += 1;
        counters.cards += cards(deck);
        let group = ledger.time("tree.parse", || CoupledGroup::parse(deck));
        let line = match group {
            Ok(group) => {
                let timing =
                    ledger.time("couple", || analyze_group_with(&group, name, &mut scratch));
                for (v, victim) in timing.victims.iter().enumerate() {
                    counters.noise_pairs +=
                        (victim.sinks.len() * group.couplings_of(v).count()) as u64;
                }
                ledger.time("render", || group_json(&Ok(timing)))
            }
            Err(e) => e.to_string(),
        };
        ledger.end_request();
        if line != expected[k] {
            mismatches.push(format!("{name}: replay differs from the engine"));
        }
    }
    for (k, (name, deck)) in corpus.synth.iter().enumerate() {
        ledger.begin_request(id, "job.synth");
        id += 1;
        counters.cards += cards(deck);
        let parsed = ledger.time("tree.parse", || SynthDeck::parse(deck));
        let line = match parsed {
            Ok(parsed) => {
                let timing = ledger.time("synth", || {
                    SynthTiming::new(name, &parsed, &synthesize(&parsed, &config))
                });
                counters.sites += timing.sites as u64;
                counters.buffers += timing.buffers.len() as u64;
                ledger.time("render", || synth_json(&Ok(timing)))
            }
            Err(e) => e.to_string(),
        };
        ledger.end_request();
        if line != expected[corpus.couple.len() + k] {
            mismatches.push(format!("{name}: replay differs from the engine"));
        }
    }
    start.elapsed()
}

/// The corpus through the engine's service once: queue and execution
/// time per job, from the engine's own job timing.
fn service_pass(corpus: &Corpus, expected: &[String], counters: &mut Counters, tally: &mut Tally) {
    let jobs = corpus.couple.len() + corpus.synth.len();
    let service = EngineService::start(ServiceConfig {
        workers: engine_bench::WORKERS,
        capacity: jobs,
        ..ServiceConfig::default()
    });
    let mut couple = Vec::new();
    for (name, deck) in &corpus.couple {
        match service.submit_couple_spec(CoupleSpec::deck(name, deck)) {
            Ok(ticket) => couple.push(ticket),
            Err(_) => counters.rejected += 1,
        }
    }
    let mut synth = Vec::new();
    for (name, deck) in &corpus.synth {
        match service.submit_synth_spec(SynthSpec::deck(name, deck)) {
            Ok(ticket) => synth.push(ticket),
            Err(_) => counters.rejected += 1,
        }
    }
    let mut lines = Vec::new();
    for ticket in couple {
        let (result, timing) = ticket.wait_timed();
        counters.queue_ms.push(timing.queue_ns as f64 / 1e6);
        counters.exec_ms.push(timing.exec_ns as f64 / 1e6);
        lines.push(group_json(&result));
    }
    for ticket in synth {
        let (result, timing) = ticket.wait_timed();
        counters.queue_ms.push(timing.queue_ns as f64 / 1e6);
        counters.exec_ms.push(timing.exec_ns as f64 / 1e6);
        lines.push(synth_json(&result));
    }
    counters.jobs = lines.len() as u64;
    if lines != expected {
        tally.fail_run("engine service answers differ from the batch engine".to_owned());
    }
    let _ = service.shutdown();
}

pub fn engine(seed: u64, seconds: f64, repo: &Path) -> Result<(Vec<Metric>, Tally), String> {
    let corpus = Corpus::new(seed);
    let batches = Batches::new(&corpus);
    let expected = engine_bench::reference(&batches)?;
    let mut tally = Tally::default();

    // Round latency of the untraced closed loop, for a short while.
    let engine = rlc_engine::Engine::with_workers(engine_bench::WORKERS);
    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < 0.3 * seconds {
        let t0 = Instant::now();
        let couple = engine.run_couple(&batches.couple);
        let synth = engine.run_synth(&batches.synth);
        let got = engine_bench::rendered(&couple, &synth);
        rounds.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.attempted += got.len() as u64;
        for (k, (got, want)) in got.iter().zip(&expected).enumerate() {
            if got == want {
                tally.succeeded += 1;
            } else {
                tally.fail(format!("job {k} differs from the one-worker run"));
            }
        }
    }
    let rounds = stats::sorted(rounds);
    let throughput = batches.jobs() as f64 / (stats::median(&rounds) / 1e3);

    let mut traced_ledger = Ledger::new();
    let mut counters = Counters::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let jobs = batches.jobs() as u64;
    for round in 0..REPLAYS {
        let mut mismatches = Vec::new();
        let mut off = Ledger::disabled();
        let wall = replay_engine(
            &corpus,
            &expected,
            &mut off,
            &mut Counters::default(),
            0,
            &mut mismatches,
        );
        untraced.push(wall.as_secs_f64());
        let mut round_counters = Counters::default();
        let wall = replay_engine(
            &corpus,
            &expected,
            &mut traced_ledger,
            &mut round_counters,
            round as u64 * jobs,
            &mut mismatches,
        );
        traced.push(wall.as_secs_f64());
        tally.attempted += 2 * jobs;
        tally.succeeded += 2 * jobs - mismatches.len() as u64;
        for m in mismatches {
            tally.fail(m);
        }
        if round == 0 {
            counters = round_counters;
        }
    }
    service_pass(&corpus, &expected, &mut counters, &mut tally);

    let spans = &traced_ledger.spans;
    let names = ledger::by_name(spans);
    let kind_ns = |n: &str| names.get(n).map_or(0, |s| s.total_ns) as f64;
    let (couple_ns, synth_ns) = (kind_ns("job.couple"), kind_ns("job.synth"));
    let mut layers = Layers::new();
    // Shares are of all job time: rename both job kinds to one request
    // name for the share computation.
    let jobs_as_requests: Vec<Span> = spans
        .iter()
        .cloned()
        .map(|mut s| {
            if s.name.starts_with("job.") {
                s.name = "job";
            }
            s
        })
        .collect();
    layers.record_spans(&jobs_as_requests, "job");
    layers.counters(&counters);
    layers.per_unit(
        "tree.parse.ns_per_card",
        spans,
        "tree.parse",
        counters.cards,
        REPLAYS,
    );
    layers.set("bench.trace_overhead", overhead(&untraced, &traced));
    layers.set("throughput_per_s", throughput);
    layers.set("latency.p50_ms", stats::quantile(&rounds, 0.5));
    layers.set("latency.p99_ms", stats::tail(&rounds).0);
    let total = couple_ns + synth_ns;
    layers.set("kind.couple_share", couple_ns / total);
    layers.set("kind.synth_share", synth_ns / total);
    eprintln!(
        "engine_batch: couple jobs {:.1}% and synthesis jobs {:.1}% of traced job time",
        100.0 * couple_ns / total,
        100.0 * synth_ns / total
    );
    if couple_ns < total / 3.0 || synth_ns < total / 3.0 {
        tally.fail_run("engine_batch: a job kind fell below a third of the traced time".to_owned());
    }
    write_spans(repo, "engine_batch", seed, &traced_ledger);
    Ok((layers.metrics(), tally))
}

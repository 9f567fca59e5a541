//! The end-to-end run of the two serve workloads against the real
//! `serve` binary over TCP loopback.

use std::path::Path;
use std::time::Duration;

use rlc_engine::{net_json, Batch, Engine};

use crate::load::{self, Churn, Record, RunResult};
use crate::report::{Metric, Tally};
use crate::server::{Counts, Server, TICKS_PER_SECOND};
use crate::stats;
use crate::workload::{
    self, KeySet, RepeatSet, Request, Workload, LIMIT_MS, RATE, SATURATION_PER_S,
};

/// Set-up samples (spawn to first probe answered) taken before each
/// window, so that a run's samples span its whole length.
const SETUP_SPAWNS: usize = 12;
/// Windows of the fixed-rate phase.
const WINDOWS: usize = 5;
/// Closed-loop windows of the traced run's saturation phase.
const SATURATION_WINDOWS: usize = 3;
/// Windows that may be discarded as invalid (the sender fell behind)
/// before the whole run is.
const MAX_INVALID_WINDOWS: usize = 2;
/// The open-loop sender may run at most this late (at its tail) before the
/// run counts as invalid instead of as a measurement: half the latency
/// limit of both serve workloads.
pub const LAG_BOUND_MS: f64 = 25.0;
/// The cache-warming pass runs at this rate.
const WARMUP_RPS: f64 = 400.0;

/// The inputs of one seed, made before any timing.
pub enum Inputs {
    Fresh { seed: u64, keys: KeySet },
    Repeat { seed: u64, set: RepeatSet },
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64) -> Result<Self, String> {
        match workload {
            Workload::ServeFresh => Ok(Self::Fresh {
                seed,
                keys: KeySet::default(),
            }),
            _ => {
                let set = RepeatSet::new(seed);
                set.check()?;
                Ok(Self::Repeat { seed, set })
            }
        }
    }

    /// The requests of `phase`, `count` of them. For `serve_fresh` their
    /// cache keys join the run's key set, which fails on any repeat.
    pub fn requests(&mut self, phase: u64, count: usize) -> Result<Vec<Request>, String> {
        match self {
            Self::Fresh { seed, keys } => {
                let seed = *seed;
                let requests: Vec<Request> = (0..count)
                    .map(|i| workload::fresh_request(seed, phase, i))
                    .collect();
                for key in parallel_keys(&requests)? {
                    keys.insert(&key)?;
                }
                Ok(requests)
            }
            Self::Repeat { seed, set } => Ok(set.requests(*seed, phase, count)),
        }
    }

    /// Requests that must precede a measured phase on a fresh server.
    pub fn warmup(&self) -> Vec<Request> {
        match self {
            Self::Fresh { .. } => Vec::new(),
            Self::Repeat { set, .. } => set.warmup(),
        }
    }

    fn expect_hits(&self) -> bool {
        matches!(self, Self::Repeat { .. })
    }
}

/// Cache keys of `requests`, computed on two threads.
fn parallel_keys(requests: &[Request]) -> Result<Vec<String>, String> {
    let half = requests.len().div_ceil(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|r| workload::cache_key(&r.deck))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut keys = Vec::with_capacity(requests.len());
        for h in handles {
            keys.extend(h.join().expect("key thread panicked")?);
        }
        Ok(keys)
    })
}

/// One phase on a server of its own: warm-up, then the measured load,
/// with the server's counts read before and after.
pub struct Phase {
    pub requests: Vec<Request>,
    pub warmup: Vec<Request>,
    pub run: RunResult,
    pub warm_run: Option<RunResult>,
    pub counts: Counts,
    pub gauges: crate::server::Gauges,
    /// Server CPU time spent on the measured load, in clock ticks.
    pub cpu_ticks: u64,
    pub requests_seen: u64,
    pub requests_sent: u64,
}

/// `rate` is `f64::INFINITY` for a closed loop: every request is due at
/// once, and each connection keeps its pipeline full. `quickack` is off
/// only for the traced run's stall phase.
pub fn run_phase(
    exe: &Path,
    inputs: &mut Inputs,
    phase: u64,
    count: usize,
    rate: f64,
    churn: Option<Churn>,
    quickack: bool,
) -> Result<Phase, String> {
    let requests = inputs.requests(phase, count)?;
    let warmup = inputs.warmup();
    let wires: Vec<Vec<u8>> = requests.iter().map(Request::wire).collect();
    let server = Server::spawn(exe)?;
    let warm_run = (!warmup.is_empty()).then(|| {
        let wires: Vec<Vec<u8>> = warmup.iter().map(Request::wire).collect();
        load::run(server.addr, &wires, WARMUP_RPS, None, phase, true)
    });
    let before = server.metrics()?;
    let cpu_before = crate::server::cpu_ticks(server.pid())?;
    let run = load::run(server.addr, &wires, rate, churn, phase, quickack);
    let gauges = server.gauges()?;
    let after = server.metrics()?;
    server.stop()?;
    let sent = |r: &RunResult| r.records.iter().filter(|x| x.sent.is_some()).count() as u64;
    let requests_sent = warm_run.as_ref().map_or(0, sent) + sent(&run);
    Ok(Phase {
        requests,
        warmup,
        counts: after.since(&before),
        cpu_ticks: gauges.cpu_ticks - cpu_before,
        gauges,
        // The probe at spawn and the first `metrics` call precede the
        // final snapshot, which excludes its own request.
        requests_seen: after.requests - 2,
        requests_sent,
        run,
        warm_run,
    })
}

impl Phase {
    /// Checks the server's own counts against what the client did, and
    /// every answer against a direct in-process engine run of its deck,
    /// recording the outcome in `tally`.
    pub fn verify(&self, inputs: &Inputs, tally: &mut Tally) {
        if self.requests_seen != self.requests_sent {
            tally.fail_run(format!(
                "server counted {} requests, client sent {}",
                self.requests_seen, self.requests_sent
            ));
        }
        let measured = self.run.records.iter().filter(|r| r.sent.is_some()).count() as u64;
        if inputs.expect_hits() {
            if self.counts.hits != measured || self.counts.misses != 0 {
                tally.fail_run(format!(
                    "serve_repeat: server saw {} hits, {} misses for {measured} resubmissions",
                    self.counts.hits, self.counts.misses
                ));
            }
            if self.counts.submitted != 0 {
                tally.fail_run(format!(
                    "serve_repeat: {} engine jobs ran on cache hits",
                    self.counts.submitted
                ));
            }
        } else if self.counts.hits != 0 || self.counts.misses != measured {
            tally.fail_run(format!(
                "serve_fresh: server saw {} hits, {} misses for {measured} distinct decks",
                self.counts.hits, self.counts.misses
            ));
        }
        // Every request must end as a hit or an engine result, with nothing
        // rejected, failed or left running. The `metrics` request that took
        // the first snapshot also finished as `ok` after it.
        let c = &self.counts;
        if c.ok + c.cache_hit_outcomes != measured + 1
            || c.errors != 0
            || c.rejected != 0
            || c.completed != c.submitted
        {
            tally.fail_run(format!(
                "server outcomes: {} ok, {} cache hits, {} errors, {} rejected, {} of {} engine jobs completed, for {measured} requests",
                c.ok, c.cache_hit_outcomes, c.errors, c.rejected, c.completed, c.submitted
            ));
        }
        if let Some(warm) = &self.warm_run {
            verify_answers(&self.warmup, &warm.records, None, tally);
        }
        let cache = if inputs.expect_hits() { "hit" } else { "miss" };
        verify_answers(&self.requests, &self.run.records, Some(cache), tally);
    }
}

/// Compares each answer's `net` member byte for byte with
/// [`net_json`] of a direct engine run of the same deck, and its cache
/// field with `cache` when given.
fn verify_answers(
    requests: &[Request],
    records: &[Record],
    cache: Option<&str>,
    tally: &mut Tally,
) {
    let engine = Engine::with_workers(2);
    for (chunk_requests, chunk_records) in requests.chunks(256).zip(records.chunks(256)) {
        let mut batch = Batch::new();
        for r in chunk_requests {
            batch.push_deck(r.name.clone(), r.deck.clone());
        }
        let report = engine.run(&batch);
        for ((request, record), direct) in
            chunk_requests.iter().zip(chunk_records).zip(&report.nets)
        {
            tally.attempted += 1;
            let Some(answer) = &record.response else {
                tally.fail(format!("{}: no answer", request.name));
                continue;
            };
            let expected = net_json(direct);
            match net_member(answer) {
                Some(net) if net == expected => {}
                Some(_) => {
                    tally.fail(format!(
                        "{}: net member differs from the direct run",
                        request.name
                    ));
                    continue;
                }
                None => {
                    tally.fail(format!("{}: not a result: {answer:.120}", request.name));
                    continue;
                }
            }
            if let Some(cache) = cache {
                if !answer.contains(&format!("\"cache\": \"{cache}\"")) {
                    tally.fail(format!("{}: expected a cache {cache}", request.name));
                    continue;
                }
            }
            tally.succeeded += 1;
        }
    }
}

/// The bytes of the `"net"` object of a `result` answer.
pub fn net_member(answer: &str) -> Option<&str> {
    if !answer.starts_with("{\"proto\": \"rlc-serve/1\", \"type\": \"result\"") {
        return None;
    }
    let start = answer.find("\"net\": ")? + "\"net\": ".len();
    let bytes = answer.as_bytes();
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes.iter().enumerate().skip(start) {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(&answer[start..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Latencies of every attempted request in milliseconds; unanswered
/// requests count as infinitely late.
pub fn latencies_ms(records: &[Record]) -> Vec<f64> {
    stats::sorted(
        records
            .iter()
            .map(|r| r.latency().map_or(f64::INFINITY, |d| d.as_secs_f64() * 1e3))
            .collect(),
    )
}

pub fn lag_tail_ms(records: &[Record]) -> f64 {
    let lags = stats::sorted(
        records
            .iter()
            .filter_map(|r| r.lag().map(|d| d.as_secs_f64() * 1e3))
            .collect(),
    );
    if lags.is_empty() {
        return 0.0;
    }
    stats::tail(&lags).0
}

/// Delivered rate of a run: answers over first-due to last-answer.
pub fn delivered_rps(run: &RunResult) -> f64 {
    let answered = run.records.iter().filter(|r| r.done.is_some()).count();
    let first = run.records.first().map_or(Duration::ZERO, |r| r.due);
    answered as f64 / (run.elapsed.saturating_sub(first)).as_secs_f64().max(1e-9)
}

/// Whether a run at `rate` met the limit: everything answered, the tail
/// within `limit_ms`, and no backlog left when the last request fell due.
pub fn rung_passes(run: &RunResult, rate: f64, limit_ms: f64) -> (bool, f64) {
    let lat = latencies_ms(&run.records);
    let (tail, _) = stats::tail(&lat);
    let last_due = run.records.last().map_or(Duration::ZERO, |r| r.due);
    let backlog = run
        .records
        .iter()
        .filter(|r| r.done.is_none_or(|d| d > last_due))
        .count() as f64;
    let allowed = (2.0 * rate * limit_ms / 1e3).max(8.0);
    (tail <= limit_ms && backlog <= allowed, tail)
}

/// `max_rate_rps`: the delivered rate at the highest rate of the
/// workload's fixed ladder that meets the latency limit, found by
/// bisection over the ladder (a rate passes if one of two tries meets
/// the limit). `base` is the delivered rate at the fixed rate, which is
/// known to pass. Each rate is driven for `rung_seconds`.
pub fn max_rate(
    workload: Workload,
    exe: &Path,
    inputs: &mut Inputs,
    base: f64,
    rung_seconds: f64,
    tally: &mut Tally,
) -> Result<f64, String> {
    let ladder = workload::ladder();
    // `lo` passes (ladder index + 1; 0 is the fixed rate), `hi` fails.
    let (mut lo, mut hi) = (0usize, ladder.len() + 1);
    let mut best = base;
    let mut phase = 20;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let rate = ladder[mid - 1];
        let mut delivered = None;
        for _ in 0..2 {
            let rung = run_phase(
                exe,
                inputs,
                phase,
                (rate * rung_seconds).ceil() as usize,
                rate,
                workload.churn(),
                true,
            )?;
            phase += 1;
            let (passes, tail) = rung_passes(&rung.run, rate, LIMIT_MS);
            eprintln!(
                "{}: ladder {rate:.0} rps: tail {tail:.3} ms -> {}",
                workload.name(),
                if passes {
                    "meets the limit"
                } else {
                    "misses the limit"
                }
            );
            rung.verify(inputs, tally);
            if passes {
                delivered = Some(delivered_rps(&rung.run));
                break;
            }
        }
        match delivered {
            Some(d) => {
                lo = mid;
                best = d;
            }
            None => hi = mid,
        }
    }
    Ok(best)
}

/// Saturation throughput: the median delivered rate of closed-loop
/// windows, each on a server of its own, with every connection keeping its
/// pipeline full. The loop runs on persistent connections even for
/// `serve_repeat`: with churn, each new connection first waits for the old
/// one's answers, and the loop becomes bound by wake-up latency.
pub fn saturation(
    workload: Workload,
    exe: &Path,
    inputs: &mut Inputs,
    seconds: f64,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut rates = Vec::new();
    for w in 0..SATURATION_WINDOWS {
        let window = run_phase(
            exe,
            inputs,
            40 + w as u64,
            (SATURATION_PER_S * seconds).ceil() as usize,
            f64::INFINITY,
            None,
            true,
        )?;
        window.verify(inputs, tally);
        let rps = delivered_rps(&window.run);
        eprintln!(
            "{}: closed loop window {w}, {} requests: {rps:.1} answers/s",
            workload.name(),
            window.run.records.len()
        );
        rates.push(rps);
    }
    Ok(stats::median(&rates))
}

/// Spawns `SETUP_SPAWNS` servers one after another, each stopped once it
/// has answered its first probe, and records each one's set-up time.
fn sample_setup(exe: &Path, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUP_SPAWNS {
        let server = Server::spawn(exe)?;
        setups.push(server.setup.as_secs_f64());
        server.stop()?;
    }
    Ok(())
}

/// The whole `--trace 0` run of a serve workload.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    exe: &Path,
) -> Result<(Vec<Metric>, Tally), String> {
    let mut inputs = Inputs::new(workload, seed)?;
    let mut tally = Tally::default();
    let mut setups = Vec::new();

    // The fixed-rate phase runs as `WINDOWS` windows, each on a server and
    // connections of its own. CPU time is pooled over the windows (it is
    // read in 10 ms ticks); peak memory is the median over windows.
    let window_len = 0.8 * seconds / WINDOWS as f64;
    let mut rss = Vec::new();
    let (mut cpu_ticks, mut answered) = (0u64, 0usize);
    let mut pooled = Vec::new();
    let mut invalid = 0;
    let mut w = 0;
    while w < WINDOWS {
        sample_setup(exe, &mut setups)?;
        let window = run_phase(
            exe,
            &mut inputs,
            (w + invalid) as u64,
            (RATE * window_len).ceil() as usize,
            RATE,
            workload.churn(),
            true,
        )?;
        let lat = latencies_ms(&window.run.records);
        let (tail, q) = stats::tail(&lat);
        let lag = lag_tail_ms(&window.run.records);
        eprintln!(
            "{}: {:.0} rps window {w}, {} requests: p50 {:.3} ms, p{:.1} {tail:.3} ms, sender lag tail {lag:.3} ms",
            workload.name(),
            RATE,
            window.run.records.len(),
            stats::quantile(&lat, 0.5),
            q * 100.0
        );
        // Its answers are checked either way; an invalid window's figures
        // are not used.
        window.verify(&inputs, &mut tally);
        if lag > LAG_BOUND_MS {
            invalid += 1;
            eprintln!(
                "{}: window invalid: the sender ran {lag:.2} ms late (bound {LAG_BOUND_MS} ms)",
                workload.name()
            );
            if invalid > MAX_INVALID_WINDOWS {
                return Err("run invalid: the sender kept falling behind its schedule".to_owned());
            }
            continue;
        }
        pooled.extend(lat);
        cpu_ticks += window.cpu_ticks;
        answered += window
            .run
            .records
            .iter()
            .filter(|r| r.done.is_some())
            .count();
        rss.push(window.gauges.vm_hwm_kb as f64 / 1024.0);
        w += 1;
    }

    let pooled = stats::sorted(pooled);
    let (tail, q) = stats::tail(&pooled);
    eprintln!(
        "{}: {} requests at {:.0} rps: p50 {:.3} ms, p{:.2} {tail:.3} ms",
        workload.name(),
        pooled.len(),
        RATE,
        stats::quantile(&pooled, 0.5),
        q * 100.0
    );
    let metrics = vec![
        Metric::new(
            "cpu_us_per_op",
            cpu_ticks as f64 / TICKS_PER_SECOND * 1e6 / answered.max(1) as f64,
            "us",
        ),
        Metric::new("rss_mb", stats::median(&rss), "MB"),
        Metric::new("setup_s", stats::median(&setups), "s"),
    ];
    Ok((metrics, tally))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_member_is_the_exact_object_bytes() {
        let net = r#"{"name": "a}\"", "status": "ok", "sinks": [{"node": 1}]}"#;
        let answer = format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"miss\", \"net\": {net}, \"lint\": {{\"findings\": 1}}}}"
        );
        assert_eq!(net_member(&answer), Some(net));
        assert_eq!(
            net_member("{\"proto\": \"rlc-serve/1\", \"type\": \"error\", \"net\": {}}"),
            None
        );
    }
}

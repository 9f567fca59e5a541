//! The end-to-end run of `engine_batch`: a closed loop over the
//! in-process batch API.

use std::time::Instant;

use rlc_engine::{
    group_json, synth_json, CoupleBatch, CoupleReport, Engine, SynthBatch, SynthReport,
};

use crate::report::{Metric, Tally};
use crate::server::{cpu_ticks, proc_gauges, TICKS_PER_SECOND};
use crate::stats;
use crate::workload::Corpus;

/// Engine worker threads, as in the workload's definition.
pub const WORKERS: usize = 2;
/// Set-up is timed on one-job batches of the first `SETUP_JOBS` coupled
/// groups, `SETUP_PER_ROUND` of them before every round of the closed
/// loop (so the samples span the run), and reported as the median.
const SETUP_JOBS: usize = 16;
const SETUP_PER_ROUND: usize = 4;

pub struct Batches {
    pub couple: CoupleBatch,
    pub synth: SynthBatch,
    /// The first coupled groups, one per batch: what set-up runs.
    pub first: Vec<CoupleBatch>,
}

impl Batches {
    pub fn new(corpus: &Corpus) -> Self {
        let mut couple = CoupleBatch::new();
        for (name, deck) in &corpus.couple {
            couple.push_deck(name.clone(), deck.clone());
        }
        let mut synth = SynthBatch::new();
        for (name, deck) in &corpus.synth {
            synth.push_deck(name.clone(), deck.clone());
        }
        let first = corpus.couple[..SETUP_JOBS]
            .iter()
            .map(|(name, deck)| {
                let mut one = CoupleBatch::new();
                one.push_deck(name.clone(), deck.clone());
                one
            })
            .collect();
        Self {
            couple,
            synth,
            first,
        }
    }

    pub fn jobs(&self) -> usize {
        self.couple.len() + self.synth.len()
    }
}

/// Per-job rendered results: what the reports' `to_json` concatenates.
pub fn rendered(couple: &CoupleReport, synth: &SynthReport) -> Vec<String> {
    couple
        .groups
        .iter()
        .map(group_json)
        .chain(synth.nets.iter().map(synth_json))
        .collect()
}

/// The reference: a one-worker run of the same corpus. Every job must
/// succeed there, or the corpus is not a valid workload.
pub fn reference(batches: &Batches) -> Result<Vec<String>, String> {
    let solo = Engine::with_workers(1);
    let couple = solo.run_couple(&batches.couple);
    let synth = solo.run_synth(&batches.synth);
    if let Some(e) = couple.failures().chain(synth.failures()).next() {
        return Err(format!("generated engine_batch job fails: {e}"));
    }
    Ok(rendered(&couple, &synth))
}

pub fn run(seed: u64, seconds: f64) -> Result<(Vec<Metric>, Tally), String> {
    let corpus = Corpus::new(seed);
    let batches = Batches::new(&corpus);
    let expected = reference(&batches)?;
    let engine = Engine::with_workers(WORKERS);

    let mut tally = Tally::default();
    let check = |tally: &mut Tally, k: usize, got: &str| {
        tally.attempted += 1;
        if got == expected[k] {
            tally.succeeded += 1;
        } else {
            tally.fail(format!("job {k} differs from the one-worker run"));
        }
    };
    let (mut setups, mut rounds) = (Vec::new(), Vec::new());
    let cpu_before = cpu_ticks(std::process::id())?;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        // Engine start to first job completed: a batch engine starts its
        // workers per run, so a one-job run times exactly that.
        for _ in 0..SETUP_PER_ROUND {
            let k = setups.len() % SETUP_JOBS;
            let t0 = Instant::now();
            let report = engine.run_couple(&batches.first[k]);
            setups.push(t0.elapsed().as_secs_f64());
            check(&mut tally, k, &group_json(&report.groups[0]));
        }
        let t0 = Instant::now();
        let couple = engine.run_couple(&batches.couple);
        let synth = engine.run_synth(&batches.synth);
        rounds.push(t0.elapsed().as_secs_f64());
        for (k, got) in rendered(&couple, &synth).iter().enumerate() {
            check(&mut tally, k, got);
        }
    }
    let cpu_s = (cpu_ticks(std::process::id())? - cpu_before) as f64 / TICKS_PER_SECOND;
    let rss_mb = proc_gauges(std::process::id())?.vm_hwm_kb as f64 / 1024.0;
    let sorted = stats::sorted(rounds.iter().map(|s| s * 1e3).collect());
    let (tail, q) = stats::tail(&sorted);
    eprintln!(
        "engine_batch: {} rounds of {} jobs, round p50 {:.3} ms, p{:.1} {tail:.3} ms",
        sorted.len(),
        batches.jobs(),
        stats::quantile(&sorted, 0.5),
        q * 100.0
    );
    let metrics = vec![
        Metric::new(
            "cpu_us_per_op",
            // Every job run, the set-up runs' one job each included.
            cpu_s * 1e6 / tally.attempted.max(1) as f64,
            "us",
        ),
        Metric::new("rss_mb", rss_mb, "MB"),
        Metric::new("setup_s", stats::median(&setups), "s"),
    ];
    Ok((metrics, tally))
}

//! The three workloads: their fixed parameters, their seeded inputs, and
//! the checks that make each workload's cache behaviour hold by
//! construction.

use std::collections::HashMap;

use rlc_serve::{fnv1a_64, ResultCache};
use rlc_tree::netlist::Netlist;

use crate::decks::{self, Circuit, Regime, Shape};
use crate::load::Churn;
use crate::rng::Rng;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeFresh,
    ServeRepeat,
    EngineBatch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeFresh,
        Workload::ServeRepeat,
        Workload::EngineBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeFresh => "serve_fresh",
            Workload::ServeRepeat => "serve_repeat",
            Workload::EngineBatch => "engine_batch",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The connection churn of a serve workload.
    pub fn churn(self) -> Option<Churn> {
        match self {
            Workload::ServeRepeat => Some(Churn { lo: 2, hi: 6 }),
            _ => None,
        }
    }
}

// The serve workloads' fixed parameters, recorded in `BENCHMARK.json`'s
// `why` for each workload; never recomputed from a run.

/// Offered rate of the fixed-rate phase, requests per second. No traffic
/// record exists for the service, so it is fixed at about a tenth of both
/// serve workloads' saturation throughput on the reference host (2 vCPUs,
/// 4300–5500 answers/s at seed 7): the fixed-rate phase then times an
/// unloaded request path.
pub const RATE: f64 = 400.0;
/// Ratio of neighbouring ladder rates, and the ladder's top: it reaches
/// past saturation, to twenty times the fixed rate.
pub const LADDER_STEP: f64 = 1.2;
pub const LADDER_TOP: f64 = 20.0 * RATE;
/// The tail-latency limit a ladder rate must meet.
pub const LIMIT_MS: f64 = 50.0;
/// Requests per closed-loop window of the traced run's saturation phase,
/// per second of the run's length: the three windows take about a fifth of
/// the run at saturation.
pub const SATURATION_PER_S: f64 = 250.0;

/// The rates tried above [`RATE`] for `max_rate_rps`, ascending.
pub fn ladder() -> Vec<f64> {
    let mut rates = Vec::new();
    let mut rate = RATE * LADDER_STEP;
    while rate <= LADDER_TOP * (1.0 + 1e-9) {
        rates.push(rate);
        rate *= LADDER_STEP;
    }
    rates
}

/// Section counts of the analysis decks.
///
/// No traffic record exists for the service either, so the mix gives
/// every size the same share of the cards: requests of the four sizes
/// come in proportion 64:16:4:1. No one size then dominates the per-card
/// figures, and the many small requests keep per-request overhead in view.
pub const SIZES: [usize; 4] = [12, 48, 192, 768];
const SIZE_WEIGHTS: [usize; 4] = [64, 16, 4, 1];
/// Slots after which the mix repeats: the sum of the weights.
const MIX_PERIOD: usize = 85;
const SHAPES: [Shape; 3] = [Shape::Line, Shape::Balanced, Shape::Random];
const REGIMES: [Regime; 3] = [Regime::Over, Regime::Near, Regime::Under];

/// Working-set size of `serve_repeat`: fits the default 128-entry cache.
pub const WORKING_SET: usize = 96;
/// Respellings held per working-set circuit.
const VARIANTS: usize = 6;

/// The size (index into [`SIZES`]) of slot `i`: each size gets its weight
/// of every `MIX_PERIOD` slots, spread evenly (smooth weighted
/// round-robin: the size furthest ahead in credit goes next).
fn size_index(i: usize) -> usize {
    let mut credit = [0i64; 4];
    let mut pick = 0;
    for _ in 0..=i % MIX_PERIOD {
        for (c, w) in credit.iter_mut().zip(SIZE_WEIGHTS) {
            *c += w as i64;
        }
        pick = (0..4).rev().max_by_key(|&s| credit[s]).expect("four sizes");
        credit[pick] -= MIX_PERIOD as i64;
    }
    pick
}

/// The analysis circuit in slot `i` of a stream: size, shape and damping
/// regime are stratified by `i`, values are seeded.
fn circuit(seed: u64, stream: u64, i: usize) -> Circuit {
    let mut rng = Rng::new(seed, (stream << 40) + i as u64);
    let sections = SIZES[size_index(i)];
    let shape = SHAPES[i % SHAPES.len()];
    let regime = REGIMES[(i / SHAPES.len()) % REGIMES.len()];
    Circuit::analysis(&mut rng, shape, sections, regime)
}

/// A request the serve workloads send: its label and deck.
#[derive(Debug, Clone)]
pub struct Request {
    pub name: String,
    pub deck: String,
}

impl Request {
    /// The request on the wire: header, deck, terminating `.` line.
    pub fn wire(&self) -> Vec<u8> {
        format!("analyze name={}\n{}.\n", self.name, self.deck).into_bytes()
    }
}

/// `serve_fresh` request `i`: a circuit no other request of the seed
/// shares. `phase` separates the index ranges of a run's phases.
pub fn fresh_request(seed: u64, phase: u64, i: usize) -> Request {
    Request {
        name: format!("f{phase}.{i}"),
        deck: circuit(seed, 1 + phase, i).deck(),
    }
}

/// The `serve_repeat` inputs of one seed: the working set in its first
/// spelling, and `VARIANTS` respellings of each.
pub struct RepeatSet {
    pub originals: Vec<String>,
    pub variants: Vec<Vec<String>>,
}

impl RepeatSet {
    pub fn new(seed: u64) -> Self {
        let circuits: Vec<Circuit> = (0..WORKING_SET).map(|c| circuit(seed, 100, c)).collect();
        let originals = circuits.iter().map(Circuit::deck).collect();
        let variants = circuits
            .iter()
            .enumerate()
            .map(|(c, circuit)| {
                let mut rng = Rng::new(seed, (101 << 40) + c as u64);
                (0..VARIANTS).map(|_| circuit.respell(&mut rng)).collect()
            })
            .collect();
        Self {
            originals,
            variants,
        }
    }

    /// The cache-warming pass: every original once.
    pub fn warmup(&self) -> Vec<Request> {
        self.originals
            .iter()
            .enumerate()
            .map(|(c, deck)| Request {
                name: format!("w{c}"),
                deck: deck.clone(),
            })
            .collect()
    }

    /// `count` resubmissions: the working set in seeded shuffled rounds
    /// (each circuit equally often, so the size mix is fixed), each a
    /// seeded respelling.
    pub fn requests(&self, seed: u64, phase: u64, count: usize) -> Vec<Request> {
        let mut rng = Rng::new(seed, (102 << 40) + phase);
        let mut order: Vec<usize> = Vec::new();
        (0..count)
            .map(|i| {
                if order.is_empty() {
                    order = (0..WORKING_SET).collect();
                    rng.shuffle(&mut order);
                }
                let c = order.pop().expect("refilled above");
                let v = rng.below(VARIANTS);
                Request {
                    name: format!("r{phase}.{i}"),
                    deck: self.variants[c][v].clone(),
                }
            })
            .collect()
    }

    /// Construction check: every respelling has its original's cache key,
    /// and the originals' keys are pairwise distinct (so the working set
    /// really occupies `WORKING_SET` entries).
    pub fn check(&self) -> Result<(), String> {
        let mut keys = KeySet::default();
        for (c, original) in self.originals.iter().enumerate() {
            let key = cache_key(original)?;
            for (v, variant) in self.variants[c].iter().enumerate() {
                if cache_key(variant)? != key {
                    return Err(format!(
                        "serve_repeat respelling {v} of circuit {c} changes the cache key"
                    ));
                }
            }
            keys.insert(&key)?;
        }
        Ok(())
    }
}

/// The server's cache key for an `analyze` deck under the default model,
/// derived exactly as the serve path derives it.
pub fn cache_key(deck: &str) -> Result<String, String> {
    let tree = Netlist::parse(deck)
        .map_err(|e| format!("generated deck does not parse: {e}"))?
        .into_tree();
    Ok(ResultCache::key("eed", &tree.canonical_deck()))
}

/// A set of cache keys held by digest, that fails on a repeat. Two keys
/// with one digest are compared in full, so a digest collision is never
/// mistaken for a repeat.
#[derive(Default)]
pub struct KeySet {
    seen: HashMap<(u64, usize), String>,
}

impl KeySet {
    pub fn insert(&mut self, key: &str) -> Result<(), String> {
        let digest = (fnv1a_64(key.as_bytes()), key.len());
        match self.seen.get(&digest) {
            Some(other) if other == key => {
                Err("two generated decks share one cache key".to_owned())
            }
            Some(_) => Ok(()),
            None => {
                self.seen.insert(digest, key.to_owned());
                Ok(())
            }
        }
    }
}

/// `engine_batch`'s seeded corpus.
pub struct Corpus {
    pub couple: Vec<(String, String)>,
    pub synth: Vec<(String, String)>,
}

/// Coupled groups and synthesis decks per corpus, sized so that each kind
/// takes about half of a round.
pub const COUPLE_GROUPS: usize = 480;
pub const SYNTH_DECKS: usize = 288;

impl Corpus {
    pub fn new(seed: u64) -> Self {
        let couple = (0..COUPLE_GROUPS)
            .map(|j| {
                let mut rng = Rng::new(seed, (200 << 40) + j as u64);
                (
                    format!("bus{j}"),
                    decks::coupled_deck(&mut rng, 2 + j % 3, j / 3),
                )
            })
            .collect();
        let synth = (0..SYNTH_DECKS)
            .map(|j| {
                let mut rng = Rng::new(seed, (201 << 40) + j as u64);
                // Lines over the whole 16–64 site range, forks (whose DP
                // cost grows fastest) over 16–32; sites stratified by j.
                let deck = if j % 2 == 0 {
                    decks::synth_deck(&mut rng, Shape::Line, 16 + (j / 2 * 7) % 49)
                } else {
                    decks::synth_deck(&mut rng, Shape::Fork, 16 + (j / 2 * 5) % 17)
                };
                (format!("net{j}"), deck)
            })
            .collect();
        Self { couple, synth }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(fresh_request(7, 0, 3).deck, fresh_request(7, 0, 3).deck);
        assert_ne!(fresh_request(7, 0, 3).deck, fresh_request(8, 0, 3).deck);
        assert_ne!(fresh_request(7, 0, 3).deck, fresh_request(7, 1, 3).deck);
        let (a, b) = (RepeatSet::new(7), RepeatSet::new(7));
        assert_eq!(a.variants, b.variants);
        let names = |s: &RepeatSet| -> Vec<String> {
            s.requests(7, 0, 50).into_iter().map(|r| r.deck).collect()
        };
        assert_eq!(names(&a), names(&b));
        let (a, b) = (Corpus::new(7), Corpus::new(7));
        assert_eq!(a.couple, b.couple);
        assert_eq!(a.synth, b.synth);
        assert_ne!(a.synth, Corpus::new(8).synth);
    }

    #[test]
    fn fresh_decks_follow_the_size_mix_and_never_repeat() {
        let mut keys = KeySet::default();
        let mut sizes = [0usize; 4];
        for i in 0..MIX_PERIOD {
            let deck = fresh_request(3, 0, i).deck;
            let sections = Netlist::parse(&deck).expect("parses").tree().len();
            sizes[SIZES
                .iter()
                .position(|&s| s == sections)
                .expect("a mix size")] += 1;
            keys.insert(&cache_key(&deck).expect("parses"))
                .expect("distinct");
        }
        assert_eq!(sizes, SIZE_WEIGHTS);
        // Every size carries the same number of cards.
        let cards: Vec<usize> = sizes.iter().zip(SIZES).map(|(n, s)| n * s).collect();
        assert!(cards.iter().all(|&c| c == cards[0]), "{cards:?}");
        let again = cache_key(&fresh_request(3, 0, 5).deck).expect("parses");
        assert!(keys.insert(&again).is_err(), "a repeated key is caught");
    }

    #[test]
    fn the_mix_is_spread_through_its_period() {
        // Every run of 12 slots holds a 12- and a 48-section deck.
        let slots: Vec<usize> = (0..2 * MIX_PERIOD).map(size_index).collect();
        for window in slots.windows(12) {
            assert!(window.contains(&0) && window.contains(&1), "{window:?}");
        }
    }

    #[test]
    fn the_ladder_is_geometric_up_to_its_top() {
        let ladder = ladder();
        assert!((ladder[0] / RATE - LADDER_STEP).abs() < 1e-9);
        for pair in ladder.windows(2) {
            assert!((pair[1] / pair[0] - LADDER_STEP).abs() < 1e-9);
        }
        let last = *ladder.last().expect("rungs");
        assert!(last <= LADDER_TOP * (1.0 + 1e-9) && last * LADDER_STEP > LADDER_TOP);
    }

    #[test]
    fn respellings_keep_the_cache_key() {
        let set = RepeatSet::new(11);
        set.check()
            .expect("every respelling has its original's key");
        assert!(set.variants[0].iter().all(|v| *v != set.originals[0]));
    }
}

//! Experiment A6 (extension) — **fidelity** of the equivalent Elmore
//! model as an optimization objective.
//!
//! The paper's Section I argues that Elmore-class models are used for
//! synthesis because of their *fidelity*: "an optimal or near-optimal
//! solution achieved by a design methodology based on the Elmore delay is
//! also near-optimal based on a more accurate delay" \[25\]. This binary
//! tests that claim for buffer insertion on RLC nets: the `rlc-synth`
//! buffer DP run on an L = 0 copy of each net — its RC limit, the classic
//! Elmore-objective van Ginneken recurrence — picks a placement;
//! exhaustive search scored by the *full RLC model* on the real net finds
//! the true optimum; we report how close the Elmore choice lands.
//!
//! Run with: `cargo run -p rlc-bench --bin fig_a6_fidelity --release`

use rlc_bench::{conclude, BenchError, FigureCsv, ShapeChecks};
use rlc_opt::repeater::Repeater;
use rlc_synth::{plan_buffers, score_placement, BufferSpec};
use rlc_tree::{topology, NodeId, RlcSection, RlcTree};
use rlc_units::{Capacitance, Inductance, Resistance, Time};

/// A size-`size` instance of `lib` as a DP buffer: the scaled output
/// resistance and input capacitance, with the self-loading delay
/// `ln 2 · R_out · C_out` as the intrinsic delay.
fn buffer_spec(lib: &Repeater, size: f64) -> BufferSpec {
    let resistance = lib.resistance.as_ohms() / size;
    BufferSpec {
        resistance,
        input_capacitance: lib.input_capacitance.as_farads() * size,
        intrinsic_delay: std::f64::consts::LN_2
            * resistance
            * (lib.output_capacitance.as_farads() * size),
    }
}

/// The net with every inductance zeroed: the DP's Elmore (RC) limit.
fn rc_limit(tree: &RlcTree) -> RlcTree {
    let mut rc = tree.clone();
    for id in tree.node_ids() {
        let section = *tree.section(id);
        *rc.section_mut(id) = RlcSection::rc(section.resistance(), section.capacitance());
    }
    rc
}

fn corpus() -> Vec<(String, RlcTree)> {
    let mut cases = Vec::new();
    // Resistive nets: the regime classic buffer insertion was built for.
    for seed in 0..6u64 {
        let tree = topology::random_tree(
            seed,
            7,
            (Resistance::from_ohms(50.0), Resistance::from_ohms(500.0)),
            (
                Inductance::from_picohenries(50.0),
                Inductance::from_nanohenries(1.0),
            ),
            (
                Capacitance::from_femtofarads(50.0),
                Capacitance::from_picofarads(0.8),
            ),
        );
        cases.push((format!("random-{seed}"), tree));
    }
    // Strongly inductive nets: where the Elmore objective and the RLC
    // objective could plausibly diverge — the stress case for fidelity.
    for seed in 0..4u64 {
        let tree = topology::random_tree(
            100 + seed,
            7,
            (Resistance::from_ohms(5.0), Resistance::from_ohms(60.0)),
            (
                Inductance::from_nanohenries(2.0),
                Inductance::from_nanohenries(12.0),
            ),
            (
                Capacitance::from_femtofarads(100.0),
                Capacitance::from_picofarads(0.6),
            ),
        );
        cases.push((format!("inductive-{seed}"), tree));
    }
    cases
}

fn main() -> Result<(), BenchError> {
    let buffer = buffer_spec(&Repeater::typical_cmos_250nm(), 15.0);
    let driver = 400.0; // Ω

    let mut csv = FigureCsv::create(
        "fig_a6_fidelity",
        "case,elmore_choice_delay_ps,true_optimum_delay_ps,excess_percent,rank",
    )?;
    println!("case        Elmore-chosen (RLC-timed)   true RLC optimum   excess   rank/128");
    let mut excesses = Vec::new();
    let mut ranks = Vec::new();
    for (idx, (name, tree)) in corpus().into_iter().enumerate() {
        let elmore = plan_buffers(&rc_limit(&tree), driver, &buffer);
        let chosen = score_placement(&tree, driver, &buffer, &elmore.buffers);

        // Exhaustive search over all 2^7 placements, scored by the RLC
        // model.
        let nodes: Vec<NodeId> = tree.node_ids().collect();
        let mut all: Vec<f64> = Vec::with_capacity(1 << nodes.len());
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << nodes.len()) {
            let set: Vec<NodeId> = nodes
                .iter()
                .enumerate()
                .filter(|(k, _)| mask & (1 << k) != 0)
                .map(|(_, &n)| n)
                .collect();
            let d = score_placement(&tree, driver, &buffer, &set);
            best = best.min(d);
            all.push(d);
        }
        let excess = chosen / best - 1.0;
        let rank = all.iter().filter(|&&d| d < chosen * (1.0 - 1e-12)).count() + 1;
        let (chosen, best) = (Time::from_seconds(chosen), Time::from_seconds(best));
        excesses.push(excess);
        ranks.push(rank);
        csv.row(&[
            idx as f64,
            chosen.as_picoseconds(),
            best.as_picoseconds(),
            excess * 100.0,
            rank as f64,
        ]);
        println!(
            "{name:<11} {:<27} {:<18} {:<8} {rank}/128",
            chosen.to_string(),
            best.to_string(),
            format!("{:.2}%", excess * 100.0),
        );
    }
    let mean_excess = excesses.iter().sum::<f64>() / excesses.len() as f64;
    let worst_excess = excesses.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nmean excess over the true optimum: {:.2}%; worst {:.2}%",
        mean_excess * 100.0,
        worst_excess * 100.0
    );
    println!("wrote {}", csv.finish()?.display());

    let mut checks = ShapeChecks::new();
    checks.check(
        "the Elmore-chosen placement is within 10% of the true RLC optimum on average",
        mean_excess < 0.10,
    );
    checks.check("no case exceeds 30% excess", worst_excess < 0.30);
    checks.check(
        "the Elmore choice ranks in the top 10% of all 128 placements in most cases",
        ranks.iter().filter(|&&r| r <= 13).count() * 2 > ranks.len(),
    );

    conclude("fig_a6_fidelity", checks)
}

//! Wire sizing with a continuous delay model — the synthesis use case that
//! motivates closed-form delay expressions (paper Section I and the
//! references on wire sizing under the Elmore model [17]–[23]).
//!
//! Widening a wire lowers its resistance but raises its capacitance, so the
//! sink delay has an interior optimum. Because the paper's delay expression
//! is a *continuous* function of the electrical parameters, it can drive a
//! derivative-free optimizer directly — no simulation in the loop. This
//! example sizes a 3 mm point-to-point line with golden-section search on
//! the closed-form delay, then verifies the chosen width with transient
//! simulation.
//!
//! Run with: `cargo run --example wire_sizing`

use equivalent_elmore::numeric::minimize::golden_min;
use equivalent_elmore::prelude::*;

const LINE_LENGTH_UM: f64 = 3000.0;
const SEGMENTS: usize = 8;
/// Receiver gate load.
const LOAD: f64 = 120.0; // fF

/// Builds the sized line and returns (tree, sink).
fn build(width: f64) -> (RlcTree, NodeId) {
    let wire = WireModel::MINIMUM_WIDTH_SIGNAL.widened(width);
    let mut net = RlcTree::new();
    let sink = wire.route(&mut net, None, LINE_LENGTH_UM, SEGMENTS);
    let sec = net.section_mut(sink);
    *sec = sec.with_added_capacitance(Capacitance::from_femtofarads(LOAD));
    (net, sink)
}

/// Closed-form 50% delay of the sized line, in seconds.
fn delay_model(width: f64) -> f64 {
    let (net, sink) = build(width);
    TreeAnalysis::new(&net).delay_50(sink).as_seconds()
}

fn main() {
    println!("sizing a {LINE_LENGTH_UM} µm line driving {LOAD} fF\n");
    println!("width   ζ(sink)   model 50% delay");
    for w in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let (net, sink) = build(w);
        let timing = TreeAnalysis::new(&net);
        println!(
            "{w:>5.1}   {:>7.3}   {}",
            timing.model(sink).zeta(),
            timing.delay_50(sink)
        );
    }

    // Golden-section search on the closed form, over widths 1–40.
    let (best, best_delay) = golden_min(1.0, 40.0, delay_model);
    println!("\noptimal width factor (golden-section on the closed form): {best:.2}");
    println!("model delay at optimum: {}", Time::from_seconds(best_delay));

    // Verify with simulation: the optimum found on the model should be
    // within a few percent of the simulated optimum delay curve.
    let simulate_delay = |w: f64| {
        let (net, sink) = build(w);
        let rough = delay_model(w);
        let options = SimOptions::new(
            Time::from_seconds(rough / 300.0),
            Time::from_seconds(rough * 20.0),
        );
        simulate(&net, &Source::step(1.0), &options, &[sink])[0]
            .delay_50(1.0)
            .expect("signal crosses 50%")
            .as_seconds()
    };
    let sim_at_best = simulate_delay(best);
    println!(
        "simulated delay at chosen width: {} ({:+.1}% vs model)",
        Time::from_seconds(sim_at_best),
        (best_delay - sim_at_best) / sim_at_best * 100.0
    );
    // Fidelity check (the paper's argument for Elmore-class models): the
    // model's optimum is near-optimal under simulation too.
    let probe = [best * 0.5, best * 0.75, best, best * 1.5, best * 2.0];
    let sim_delays: Vec<f64> = probe.iter().map(|&w| simulate_delay(w)).collect();
    let best_probe = sim_delays.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "fidelity: simulated delay at model optimum is within {:.2}% of the best probed width",
        (sim_at_best - best_probe) / best_probe * 100.0
    );
}

//! Clock-distribution analysis: the workload the paper's introduction
//! motivates.
//!
//! Clock networks use wide, low-resistance wires on upper metal layers —
//! exactly where inductance matters most. This example builds a four-level
//! H-tree clock network from physical wire lengths, then:
//!
//! 1. shows that the classic (RC-only) Elmore/Wyatt flow *underestimates*
//!    the clock arrival time and misses the overshoot entirely;
//! 2. computes arrival time, rise time, overshoot, and settling time at
//!    every clock pin with the paper's closed-form model;
//! 3. validates the numbers against transient simulation.
//!
//! Run with: `cargo run --example clock_tree`

use equivalent_elmore::opt::skew::clock_skew_at;
use equivalent_elmore::prelude::*;

/// Builds an H-tree: at each level the wire halves in length and the
/// branch count doubles. Returns the tree and its clock pins (sinks).
fn build_h_tree(wire: WireModel, levels: usize, top_length_um: f64) -> RlcTree {
    let mut net = RlcTree::new();
    let mut frontier: Vec<Option<NodeId>> = vec![None];
    let mut length = top_length_um;
    for level in 0..levels {
        let mut next = Vec::with_capacity(frontier.len() * 2);
        // Split each wire into enough lumped sections for accuracy.
        let segments = 4;
        for parent in frontier {
            let end = wire.route(&mut net, parent, length, segments);
            if level + 1 < levels {
                next.push(Some(end));
                next.push(Some(end));
            } else {
                // Leaf level: attach the clocked-latch load capacitance.
                let load = Capacitance::from_femtofarads(50.0);
                let sec = net.section_mut(end);
                *sec = sec.with_added_capacitance(load);
            }
        }
        frontier = next;
        length /= 2.0;
    }
    net
}

fn main() {
    let wire = WireModel::CLOCK_SPINE;
    let net = build_h_tree(wire, 4, 4000.0);
    println!(
        "H-tree: {} sections, {} clock pins, {} total load",
        net.len(),
        net.leaves().count(),
        net.total_capacitance()
    );

    let timing = TreeAnalysis::new(&net);
    let pins: Vec<NodeId> = net.leaves().collect();

    // All pins of a balanced H-tree are electrically identical; report one.
    let pin = pins[0];
    let model = timing.model(pin);
    println!("\nclock pin model: {model}");
    println!("  arrival (50%)      : {}", model.delay_50());
    println!("  rise time (10-90%) : {}", model.rise_time());
    if let Some(os) = model.max_overshoot() {
        println!(
            "  max overshoot      : {:.1}% at {}",
            os * 100.0,
            model.overshoot_time(1).expect("underdamped")
        );
        println!("  settling (±10%)    : {}", model.settling_time(0.1));
    }

    // What the classic RC flow would have said.
    println!("\nclassic Elmore/Wyatt (RC) prediction:");
    println!("  arrival (50%)      : {}", model.wyatt_delay_50());
    println!("  overshoot          : (cannot predict ringing)");

    // Validate against the transient simulator.
    let t_stop = model.settling_time(0.01) * 2.0;
    let dt = Time::from_seconds(model.delay_50().as_seconds() / 400.0);
    let options = SimOptions::new(dt, t_stop);
    let wave = &simulate(&net, &Source::step(1.0), &options, &[pin])[0];
    let sim_delay = wave.delay_50(1.0).expect("clock arrives");
    let model_err =
        (model.delay_50().as_seconds() - sim_delay.as_seconds()).abs() / sim_delay.as_seconds();
    let wyatt_err = (model.wyatt_delay_50().as_seconds() - sim_delay.as_seconds()).abs()
        / sim_delay.as_seconds();
    println!("\nsimulated arrival    : {sim_delay}");
    println!("  equivalent Elmore error : {:.1}%", model_err * 100.0);
    println!("  classic Wyatt error     : {:.1}%", wyatt_err * 100.0);
    println!(
        "  simulated overshoot     : {:.1}%",
        wave.overshoot_fraction(1.0) * 100.0
    );

    // Clock skew under the model: latest − earliest arrival over all pins
    // (zero for a perfectly balanced tree; interesting once the tree is
    // perturbed).
    let skew = clock_skew_at(&net, &pins).expect("clock pins have dynamics");
    println!("\nclock skew across {} pins: {}", pins.len(), skew.skew());
}

//! Optimal buffer placement in a branching net — van Ginneken's dynamic
//! program (the paper's reference [27]) run on the equivalent Elmore
//! delay by `rlc-synth`, compared with the same DP on the net's RC limit
//! (the classic Elmore objective).
//!
//! The scenario: a weak driver, a long trunk, a critical near sink, and a
//! heavily loaded far branch. The DP discovers that buffering the heavy
//! branch shields the critical path.
//!
//! Run with: `cargo run --example buffer_insertion`

use equivalent_elmore::prelude::*;
use equivalent_elmore::synth::{plan_buffers, score_placement};

fn main() {
    // Build the net: 6-section trunk, then a split into
    //  - a short branch to the critical receiver (small load), and
    //  - a long branch to a bank of receivers (large load).
    let wire = WireModel::MINIMUM_WIDTH_SIGNAL;
    let mut net = RlcTree::new();
    let split = wire.route(&mut net, None, 1500.0, 6);
    let critical = wire.route(&mut net, Some(split), 400.0, 2);
    {
        let sec = net.section_mut(critical);
        *sec = sec.with_added_capacitance(Capacitance::from_femtofarads(20.0));
    }
    let far = wire.route(&mut net, Some(split), 2500.0, 6);
    {
        let sec = net.section_mut(far);
        *sec = sec.with_added_capacitance(Capacitance::from_picofarads(1.2));
    }

    let driver = 800.0; // Ω

    // A size-15 0.25 µm inverter: 200 Ω output resistance, 30 fF input
    // capacitance, and its self-loading delay ln 2 · 200 Ω · 22.5 fF.
    let buffer = BufferSpec {
        resistance: 200.0,
        input_capacitance: 30e-15,
        intrinsic_delay: std::f64::consts::LN_2 * 200.0 * 22.5e-15,
    };
    let delay =
        |sites: &[NodeId]| Time::from_seconds(score_placement(&net, driver, &buffer, sites));

    println!(
        "net: {} sections, {} sinks, driver {driver} Ω",
        net.len(),
        net.leaves().count()
    );

    // Baseline: no buffers.
    let unbuffered = delay(&[]);
    println!("\nunbuffered: EED 50% delay {unbuffered}");

    // The same DP on the RC limit (every inductance zeroed): what a
    // classic Elmore-driven van Ginneken would choose.
    let mut rc_net = net.clone();
    for id in net.node_ids() {
        let s = *net.section(id);
        *rc_net.section_mut(id) = RlcSection::rc(s.resistance(), s.capacitance());
    }
    let elmore = plan_buffers(&rc_net, driver, &buffer);
    println!(
        "\nElmore objective places {} buffer(s) at {:?}; EED delay {}",
        elmore.buffers.len(),
        elmore.buffers,
        delay(&elmore.buffers)
    );

    // The DP on the EED objective itself.
    let plan = plan_buffers(&net, driver, &buffer);
    let buffered = Time::from_seconds(plan.cost);
    println!(
        "EED objective places {} buffer(s) at {:?}; EED delay {buffered}",
        plan.buffers.len(),
        plan.buffers
    );
    println!(
        "improvement over unbuffered: {:.1}%",
        (1.0 - buffered.as_seconds() / unbuffered.as_seconds()) * 100.0
    );

    // Fidelity check: no neighbouring placement (one buffer moved to its
    // parent or first child) should beat the DP's choice.
    let mut better_found = false;
    for &b in &plan.buffers {
        for candidate in [net.parent(b), net.children(b).first().copied()] {
            let Some(alt) = candidate else { continue };
            let mut moved = plan.buffers.clone();
            for slot in &mut moved {
                if *slot == b {
                    *slot = alt;
                }
            }
            moved.sort_unstable_by_key(|n| n.index());
            moved.dedup();
            if delay(&moved) < buffered * 0.98 {
                better_found = true;
            }
        }
    }
    println!(
        "fidelity: {}",
        if better_found {
            "a neighbouring placement beats the DP choice by >2% (unexpected)"
        } else {
            "no neighbouring placement beats the DP choice by >2%"
        }
    );
}

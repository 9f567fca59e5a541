//! Uniform repeater insertion on long wires.
//!
//! A long resistive wire's delay grows quadratically with length; breaking
//! it into `k` stages separated by repeaters restores linear growth. The
//! optimization couples the repeater count `k` and size `h` (in multiples
//! of a minimum inverter). The classic closed forms (Bakoğlu) assume RC
//! wires; with inductance the wire's own delay grows more slowly than RC
//! (time-of-flight floor), so **fewer repeaters are optimal** — the central
//! observation of the authors' follow-on repeater study (TVLSI 2000). Here
//! the stage delay is evaluated with the paper's model, so that effect
//! falls out naturally.

use eed::TreeAnalysis;
use rlc_numeric::minimize::golden_min;
use rlc_tree::wire::WireModel;
use rlc_tree::RlcTree;
use rlc_units::{Capacitance, Resistance, Time};

/// A repeater (inverter) characterized at unit size.
///
/// Scaling a repeater by `h` divides its output resistance by `h` and
/// multiplies both capacitances by `h`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Repeater {
    /// Output (channel) resistance at unit size.
    pub resistance: Resistance,
    /// Gate input capacitance at unit size.
    pub input_capacitance: Capacitance,
    /// Drain/output capacitance at unit size.
    pub output_capacitance: Capacitance,
}

impl Repeater {
    /// A representative late-1990s 0.25 µm CMOS inverter: 3 kΩ output
    /// resistance, 2 fF input capacitance, 1.5 fF output capacitance at
    /// unit size.
    pub fn typical_cmos_250nm() -> Self {
        Self {
            resistance: Resistance::from_kiloohms(3.0),
            input_capacitance: Capacitance::from_femtofarads(2.0),
            output_capacitance: Capacitance::from_femtofarads(1.5),
        }
    }

    /// Creates a repeater from its unit-size parameters.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is non-positive or non-finite.
    pub fn new(
        resistance: Resistance,
        input_capacitance: Capacitance,
        output_capacitance: Capacitance,
    ) -> Self {
        assert!(
            resistance.is_finite() && resistance.as_ohms() > 0.0,
            "repeater resistance must be positive and finite"
        );
        assert!(
            input_capacitance.is_finite() && input_capacitance.as_farads() > 0.0,
            "repeater input capacitance must be positive and finite"
        );
        assert!(
            output_capacitance.is_finite() && output_capacitance.as_farads() >= 0.0,
            "repeater output capacitance must be non-negative and finite"
        );
        Self {
            resistance,
            input_capacitance,
            output_capacitance,
        }
    }
}

/// A repeater insertion plan: `count` repeaters of relative size `size`,
/// and the resulting end-to-end 50% delay predicted by the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Insertion {
    /// Number of stages (count = 1 means a single driver, no intermediate
    /// repeaters).
    pub count: usize,
    /// Repeater size in multiples of the unit inverter.
    pub size: f64,
    /// Predicted end-to-end 50% delay.
    pub delay: Time,
}

/// Number of lumped sections used per wire stage in delay evaluation.
const SEGMENTS_PER_STAGE: usize = 6;

/// The 50% delay of **one** repeater stage: a size-`h` repeater driving
/// `stage_len_um` of `wire` into the input capacitance of the next
/// (size-`h`) repeater.
///
/// The stage is modeled as an RLC tree: a driver section carrying the
/// repeater's output resistance and output capacitance, the lumped wire,
/// and the receiver's input capacitance added at the far node — exactly
/// how the paper's model is meant to be embedded in a repeater loop.
///
/// # Panics
///
/// Panics if `h` or `stage_len_um` is not positive and finite.
pub fn stage_delay(wire: &WireModel, stage_len_um: f64, h: f64, lib: &Repeater) -> Time {
    assert!(h.is_finite() && h > 0.0, "repeater size must be positive");
    assert!(
        stage_len_um.is_finite() && stage_len_um > 0.0,
        "stage length must be positive"
    );
    let mut tree = RlcTree::new();
    // Driver: pure-R section with the repeater's output capacitance at its
    // node (inductance of the device itself is negligible).
    let driver = rlc_tree::RlcSection::rc(lib.resistance / h, lib.output_capacitance * h);
    let driver_node = tree.add_root_section(driver);
    let far = wire.route(
        &mut tree,
        Some(driver_node),
        stage_len_um,
        SEGMENTS_PER_STAGE,
    );
    let sec = tree.section_mut(far);
    *sec = sec.with_added_capacitance(lib.input_capacitance * h);
    TreeAnalysis::new(&tree).delay_50(far)
}

/// End-to-end delay of `count` equal stages covering `length_um`.
///
/// # Panics
///
/// Same conditions as [`stage_delay`]; additionally `count ≥ 1`.
pub fn total_delay(wire: &WireModel, length_um: f64, count: usize, h: f64, lib: &Repeater) -> Time {
    assert!(count >= 1, "at least one driving stage is required");
    stage_delay(wire, length_um / count as f64, h, lib) * count as f64
}

/// Finds the `(count, size)` pair minimizing the end-to-end delay, scanning
/// stage counts and golden-section-searching the size for each.
///
/// The search covers `count ∈ [1, 64]` and `size ∈ [1, 1000]`, ample for
/// on-chip wires up to centimetres.
pub fn optimize(wire: &WireModel, length_um: f64, lib: &Repeater) -> Insertion {
    let mut best = Insertion {
        count: 1,
        size: 1.0,
        delay: Time::from_seconds(f64::INFINITY),
    };
    let mut worse_streak = 0;
    for count in 1..=64 {
        let (size, delay) = golden_min(1.0, 1000.0, |h| {
            total_delay(wire, length_um, count, h, lib).as_seconds()
        });
        if delay < best.delay.as_seconds() {
            best = Insertion {
                count,
                size,
                delay: Time::from_seconds(delay),
            };
            worse_streak = 0;
        } else {
            worse_streak += 1;
            if worse_streak >= 4 {
                // Delay is convex in the stage count; stop once clearly past
                // the optimum.
                break;
            }
        }
    }
    best
}

/// The classic RC-only Bakoğlu closed form:
/// `k = √(0.4·R_t·C_t / (0.7·R_0·C_0))`, `h = √(R_0·C_t / (R_t·C_0))`,
/// where `R_t, C_t` are wire totals and `R_0, C_0` the unit repeater's
/// resistance and input capacitance.
///
/// Used as the baseline the RLC-aware optimization is compared against.
///
/// # Panics
///
/// Panics if `length_um` is not positive and finite.
pub fn bakoglu_rc(wire: &WireModel, length_um: f64, lib: &Repeater) -> (f64, f64) {
    assert!(
        length_um.is_finite() && length_um > 0.0,
        "length must be positive"
    );
    let rt = (wire.resistance_per_um() * length_um).as_ohms();
    let ct = (wire.capacitance_per_um() * length_um).as_farads();
    let r0 = lib.resistance.as_ohms();
    let c0 = lib.input_capacitance.as_farads();
    let k = (0.4 * rt * ct / (0.7 * r0 * c0)).sqrt();
    let h = (r0 * ct / (rt * c0)).sqrt();
    (k, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_delay_shrinks_with_bigger_repeaters_up_to_a_point() {
        let wire = WireModel::MINIMUM_WIDTH_SIGNAL;
        let lib = Repeater::typical_cmos_250nm();
        let d1 = stage_delay(&wire, 1000.0, 1.0, &lib);
        let d20 = stage_delay(&wire, 1000.0, 20.0, &lib);
        assert!(d20 < d1, "larger repeater should drive the wire faster");
        // But enormous repeaters self-load.
        let d5000 = stage_delay(&wire, 1000.0, 5000.0, &lib);
        assert!(d5000 > d20, "oversized repeater should be slower");
    }

    #[test]
    fn repeaters_help_long_resistive_wires() {
        let wire = WireModel::MINIMUM_WIDTH_SIGNAL;
        let lib = Repeater::typical_cmos_250nm();
        let unrepeated = total_delay(&wire, 10_000.0, 1, 30.0, &lib);
        let plan = optimize(&wire, 10_000.0, &lib);
        assert!(plan.count > 1, "a 1 cm minimum-width wire needs repeaters");
        assert!(plan.delay < unrepeated);
    }

    #[test]
    fn optimum_is_locally_optimal() {
        let wire = WireModel::IBM_COPPER_GLOBAL;
        let lib = Repeater::typical_cmos_250nm();
        let plan = optimize(&wire, 8_000.0, &lib);
        let d = |k: usize, h: f64| total_delay(&wire, 8_000.0, k, h, &lib);
        // Perturbing the count or size does not improve the delay.
        if plan.count > 1 {
            assert!(d(plan.count - 1, plan.size) >= plan.delay);
        }
        assert!(d(plan.count + 1, plan.size) >= plan.delay * 0.999);
        assert!(d(plan.count, plan.size * 1.3) >= plan.delay);
        assert!(d(plan.count, plan.size / 1.3) >= plan.delay);
    }

    #[test]
    fn inductance_reduces_optimal_repeater_count() {
        // The follow-on paper's headline: RC-only sizing over-inserts.
        let lib = Repeater::typical_cmos_250nm();
        let rlc_wire = WireModel::CLOCK_SPINE;
        let rc_wire = WireModel::new(
            rlc_wire.resistance_per_um(),
            rlc_units::Inductance::ZERO,
            rlc_wire.capacitance_per_um(),
        );
        let length = 15_000.0;
        let plan_rlc = optimize(&rlc_wire, length, &lib);
        let plan_rc = optimize(&rc_wire, length, &lib);
        assert!(
            plan_rlc.count <= plan_rc.count,
            "inductance should not increase the optimal count: RLC {} vs RC {}",
            plan_rlc.count,
            plan_rc.count
        );
    }

    #[test]
    fn bakoglu_matches_rc_search_within_tolerance() {
        // On a purely RC wire, the numerical optimum should land near the
        // closed form (the closed form uses the 0.4/0.7 Elmore-ramp
        // coefficients, so agreement is approximate).
        let lib = Repeater::typical_cmos_250nm();
        let wire = WireModel::new(
            WireModel::MINIMUM_WIDTH_SIGNAL.resistance_per_um(),
            rlc_units::Inductance::ZERO,
            WireModel::MINIMUM_WIDTH_SIGNAL.capacitance_per_um(),
        );
        let length = 12_000.0;
        let (k_formula, h_formula) = bakoglu_rc(&wire, length, &lib);
        let plan = optimize(&wire, length, &lib);
        assert!(
            (plan.count as f64 - k_formula).abs() <= k_formula * 0.5 + 1.0,
            "count {} vs formula {k_formula}",
            plan.count
        );
        assert!(
            plan.size / h_formula > 0.4 && plan.size / h_formula < 2.5,
            "size {} vs formula {h_formula}",
            plan.size
        );
    }

    #[test]
    fn optimized_plan_validates_against_simulation() {
        // Build the full repeated line as separate stage trees and check
        // the predicted stage delay against the transient simulator.
        let wire = WireModel::IBM_COPPER_GLOBAL;
        let lib = Repeater::typical_cmos_250nm();
        let plan = optimize(&wire, 6_000.0, &lib);
        let stage_len = 6_000.0 / plan.count as f64;

        let mut tree = RlcTree::new();
        let driver = rlc_tree::RlcSection::rc(
            lib.resistance / plan.size,
            lib.output_capacitance * plan.size,
        );
        let root = tree.add_root_section(driver);
        let far = wire.route(&mut tree, Some(root), stage_len, SEGMENTS_PER_STAGE);
        let sec = tree.section_mut(far);
        *sec = sec.with_added_capacitance(lib.input_capacitance * plan.size);

        let model_delay = stage_delay(&wire, stage_len, plan.size, &lib);
        let options = rlc_sim::SimOptions::new(
            rlc_units::Time::from_seconds(model_delay.as_seconds() / 300.0),
            rlc_units::Time::from_seconds(model_delay.as_seconds() * 40.0),
        );
        let wave = &rlc_sim::simulate(&tree, &rlc_sim::Source::step(1.0), &options, &[far])[0];
        let sim = wave.delay_50(1.0).expect("crosses 50%");
        let err = ((model_delay - sim).as_seconds() / sim.as_seconds()).abs();
        assert!(err < 0.15, "stage delay error {err}");
    }

    #[test]
    #[should_panic(expected = "repeater size must be positive")]
    fn stage_delay_rejects_zero_size() {
        let _ = stage_delay(
            &WireModel::IBM_COPPER_GLOBAL,
            100.0,
            0.0,
            &Repeater::typical_cmos_250nm(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one driving stage")]
    fn total_delay_rejects_zero_count() {
        let _ = total_delay(
            &WireModel::IBM_COPPER_GLOBAL,
            100.0,
            0,
            1.0,
            &Repeater::typical_cmos_250nm(),
        );
    }

    #[test]
    #[should_panic(expected = "input capacitance must be positive")]
    fn repeater_validates_parameters() {
        let _ = Repeater::new(
            Resistance::from_ohms(100.0),
            Capacitance::ZERO,
            Capacitance::ZERO,
        );
    }
}

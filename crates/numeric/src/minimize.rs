//! Scalar minimization primitives shared by the optimization loops.
//!
//! The higher crates (`rlc-opt`, `rlc-synth`) drive every sizing search
//! through this one kernel so that a size found by repeater sizing or the
//! synthesis DP's joint wire-sizing pass comes from *identical*
//! bracketing arithmetic — a prerequisite for byte-stable reports.

/// Golden-section minimization over `[lo, hi]`, returning `(argmin, min)`.
///
/// 80 iterations shrink the bracket by φ⁸⁰ ≈ 10⁻¹⁷ — far below the
/// resolution any physical width or size bound needs — and the objective
/// is evaluated one extra time at the final bracket midpoint so the
/// returned minimum is exactly `f(argmin)`. The search assumes `f` is
/// unimodal on the bracket; on a non-unimodal objective it still returns
/// a local minimum.
///
/// This is the search used by every golden-section loop in the workspace:
/// `rlc-opt`'s repeater sizing, the `rlc-synth` wire width pass, and the
/// `wire_sizing` example.
///
/// # Examples
///
/// ```
/// use rlc_numeric::minimize::golden_min;
///
/// let (x, fx) = golden_min(0.0, 4.0, |x| (x - 1.5) * (x - 1.5));
/// assert!((x - 1.5).abs() < 1e-9);
/// assert!(fx < 1e-18);
/// ```
pub fn golden_min(mut lo: f64, mut hi: f64, mut f: impl FnMut(f64) -> f64) -> (f64, f64) {
    let phi = (5.0f64.sqrt() - 1.0) / 2.0;
    let mut c = hi - phi * (hi - lo);
    let mut d = lo + phi * (hi - lo);
    let (mut fc, mut fd) = (f(c), f(d));
    for _ in 0..80 {
        if fc < fd {
            hi = d;
            d = c;
            fd = fc;
            c = hi - phi * (hi - lo);
            fc = f(c);
        } else {
            lo = c;
            c = d;
            fc = fd;
            d = lo + phi * (hi - lo);
            fd = f(d);
        }
    }
    let x = 0.5 * (lo + hi);
    (x, f(x))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_quadratic_minimum() {
        // The bracket stalls near √ε on a perfectly symmetric objective
        // (the two probe values become float-equal), so the attainable
        // argmin accuracy is ~1e-8, not the φ⁸⁰ bracket width.
        let (x, fx) = golden_min(-10.0, 10.0, |x| x * x + 3.0);
        assert!(x.abs() < 1e-6);
        assert!((fx - 3.0).abs() < 1e-12);
    }

    #[test]
    fn boundary_minimum_converges_to_the_edge() {
        let (x, _) = golden_min(2.0, 9.0, |x| x);
        assert!((x - 2.0).abs() < 1e-9, "monotone objective pins lo: {x}");
    }

    #[test]
    fn accepts_stateful_objectives() {
        let mut evals = 0usize;
        let (x, _) = golden_min(0.0, 1.0, |x| {
            evals += 1;
            (x - 0.25).abs()
        });
        assert!((x - 0.25).abs() < 1e-9);
        // Two seed evaluations, one per iteration, one final midpoint.
        assert_eq!(evals, 83);
    }
}

//! Engineering-notation (SI prefix) formatting and parsing.

use core::fmt;

/// Why a quantity string was rejected.
///
/// Distinguishing syntax errors from value errors lets callers (netlist
/// parsing, fault-injection harnesses) report precisely which contract a
/// malformed input violated instead of funnelling everything through one
/// opaque message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuantityErrorKind {
    /// The string does not match `<number> [prefix][unit]`.
    Syntax,
    /// The string parsed, but the value is NaN or overflows to ±∞
    /// (e.g. `"1e999"`).
    NonFinite,
}

/// Error returned when a quantity string cannot be parsed.
///
/// # Examples
///
/// ```
/// use rlc_units::{QuantityErrorKind, Resistance};
/// let err = "ohms".parse::<Resistance>().unwrap_err();
/// assert!(err.to_string().contains("invalid quantity"));
/// assert_eq!(err.kind(), QuantityErrorKind::Syntax);
///
/// let err = "1e999".parse::<Resistance>().unwrap_err();
/// assert_eq!(err.kind(), QuantityErrorKind::NonFinite);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQuantityError {
    input: String,
    kind: QuantityErrorKind,
}

impl ParseQuantityError {
    pub(crate) fn new(input: &str) -> Self {
        Self {
            input: input.to_owned(),
            kind: QuantityErrorKind::Syntax,
        }
    }

    pub(crate) fn non_finite(input: &str) -> Self {
        Self {
            input: input.to_owned(),
            kind: QuantityErrorKind::NonFinite,
        }
    }

    /// The offending input string.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// What was wrong with it.
    pub fn kind(&self) -> QuantityErrorKind {
        self.kind
    }
}

impl fmt::Display for ParseQuantityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            QuantityErrorKind::Syntax => write!(f, "invalid quantity syntax: {:?}", self.input),
            QuantityErrorKind::NonFinite => {
                write!(f, "quantity value is not finite: {:?}", self.input)
            }
        }
    }
}

impl std::error::Error for ParseQuantityError {}

/// SI prefixes from yocto to yotta, as `(symbol, exponent-of-ten)`.
const PREFIXES: &[(&str, i32)] = &[
    ("y", -24),
    ("z", -21),
    ("a", -18),
    ("f", -15),
    ("p", -12),
    ("n", -9),
    ("u", -6),
    ("µ", -6),
    ("m", -3),
    ("k", 3),
    ("M", 6),
    ("G", 9),
    ("T", 12),
    ("P", 15),
];

/// Formats `value` with an SI prefix chosen so the mantissa lies in `[1, 1000)`.
pub(crate) fn format_engineering(value: f64, unit: &str) -> String {
    if value == 0.0 {
        return format!("0 {unit}");
    }
    if !value.is_finite() {
        return format!("{value} {unit}");
    }
    let magnitude = value.abs();
    // Pick the largest prefix whose scale does not exceed the magnitude.
    let mut best: Option<(&str, i32)> = None;
    for &(sym, exp) in PREFIXES.iter().filter(|&&(s, _)| s != "µ") {
        let scale = 10f64.powi(exp);
        if magnitude >= scale && best.is_none_or(|(_, b)| exp > b) {
            best = Some((sym, exp));
        }
    }
    match best {
        Some((sym, exp)) if magnitude < 10f64.powi(exp + 3) || exp == 15 => {
            let mantissa = value / 10f64.powi(exp);
            format!("{} {}{}", trim_float(mantissa), sym, unit)
        }
        _ if (1.0..1000.0).contains(&magnitude) => {
            format!("{} {}", trim_float(value), unit)
        }
        _ => format!("{value:e} {unit}"),
    }
}

/// Renders a float with up to 4 significant decimals and no trailing zeros.
fn trim_float(v: f64) -> String {
    let s = format!("{v:.4}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    s.to_owned()
}

/// Parses `"2.5p"`, `"2.5pF"`, `"2.5 pF"`, `"100"` etc. into a base-unit value.
pub(crate) fn parse_engineering(s: &str, unit: &str) -> Result<f64, ParseQuantityError> {
    let original = s;
    let s = s.trim();
    if s.is_empty() {
        return Err(ParseQuantityError::new(original));
    }
    // Split numeric head from the suffix. Every character the head may
    // hold is ASCII, so a byte scan stops at the same (char-boundary)
    // index a char scan would: a multi-byte character's lead byte is
    // never accepted.
    let bytes = s.as_bytes();
    let split = (0..bytes.len())
        .find(|&i| {
            let b = bytes[i];
            !(b.is_ascii_digit()
                || matches!(b, b'.' | b'-' | b'+')
                || (matches!(b, b'e' | b'E')
                    && bytes
                        .get(i + 1)
                        .is_some_and(|n| n.is_ascii_digit() || matches!(n, b'-' | b'+'))))
        })
        .unwrap_or(bytes.len());
    let (head, tail) = s.split_at(split);
    let number: f64 = head
        .parse()
        .map_err(|_| ParseQuantityError::new(original))?;
    if !number.is_finite() {
        // "1e999" parses as +∞ under Rust's f64 grammar; a quantity that
        // overflows its unit is a value error, not a syntax error.
        return Err(ParseQuantityError::non_finite(original));
    }
    let tail = tail.trim();
    // Strip a trailing unit symbol if present.
    let tail = tail
        .strip_suffix(unit)
        .or_else(|| {
            // Accept the plain-ASCII fallback "ohm"/"Ohm" for Ω.
            if unit == "Ω" {
                tail.strip_suffix("ohm")
                    .or_else(|| tail.strip_suffix("Ohm"))
            } else {
                None
            }
        })
        .unwrap_or(tail)
        .trim();
    if tail.is_empty() {
        return Ok(number);
    }
    for &(sym, exp) in PREFIXES {
        if tail == sym {
            let scaled = number * 10f64.powi(exp);
            if !scaled.is_finite() {
                // A large-but-finite mantissa can still overflow once the
                // prefix scale is applied (e.g. "1e300 T").
                return Err(ParseQuantityError::non_finite(original));
            }
            return Ok(scaled);
        }
    }
    Err(ParseQuantityError::new(original))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_prefixed_values() {
        assert_eq!(format_engineering(2.5e-12, "F"), "2.5 pF");
        assert_eq!(format_engineering(1.0e-9, "s"), "1 ns");
        assert_eq!(format_engineering(25.0, "Ω"), "25 Ω");
        assert_eq!(format_engineering(4.7e3, "Ω"), "4.7 kΩ");
        assert_eq!(format_engineering(-3.0e-3, "V"), "-3 mV");
        assert_eq!(format_engineering(0.0, "H"), "0 H");
        assert_eq!(format_engineering(2.0e9, "rad/s"), "2 Grad/s");
    }

    #[test]
    fn formats_non_finite() {
        assert_eq!(format_engineering(f64::INFINITY, "s"), "inf s");
        assert!(format_engineering(f64::NAN, "s").starts_with("NaN"));
    }

    #[test]
    fn parses_bare_numbers() {
        assert_eq!(parse_engineering("42", "Ω").unwrap(), 42.0);
        assert_eq!(parse_engineering("-1.5", "F").unwrap(), -1.5);
        assert_eq!(parse_engineering("1e-12", "F").unwrap(), 1e-12);
    }

    #[test]
    fn parses_prefixes() {
        assert_eq!(parse_engineering("2.5p", "F").unwrap(), 2.5e-12);
        assert_eq!(parse_engineering("2.5pF", "F").unwrap(), 2.5e-12);
        assert_eq!(parse_engineering("2.5 pF", "F").unwrap(), 2.5e-12);
        assert_eq!(parse_engineering("10n", "H").unwrap(), 10.0e-9);
        assert_eq!(parse_engineering("3u", "s").unwrap(), 3.0e-6);
        assert_eq!(parse_engineering("3µ", "s").unwrap(), 3.0e-6);
        assert_eq!(parse_engineering("1k", "Ω").unwrap(), 1000.0);
        assert_eq!(parse_engineering("2M", "Ω").unwrap(), 2.0e6);
    }

    #[test]
    fn parses_ascii_ohm_fallback() {
        assert_eq!(parse_engineering("25 ohm", "Ω").unwrap(), 25.0);
        assert_eq!(parse_engineering("25 Ohm", "Ω").unwrap(), 25.0);
        assert_eq!(parse_engineering("1.2 kohm", "Ω").unwrap(), 1200.0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_engineering("", "F").is_err());
        assert!(parse_engineering("abc", "F").is_err());
        assert!(parse_engineering("1.2.3", "F").is_err());
        assert!(parse_engineering("1 xF", "F").is_err());
    }

    #[test]
    fn scientific_notation_with_prefix() {
        assert_eq!(parse_engineering("1.5e2 m", "s").unwrap(), 0.15);
    }

    #[test]
    fn error_reports_input() {
        let err = parse_engineering("bogus", "F").unwrap_err();
        assert_eq!(err.input(), "bogus");
        assert!(err.to_string().contains("bogus"));
        assert_eq!(err.kind(), QuantityErrorKind::Syntax);
    }

    #[test]
    fn overflowing_values_are_typed_non_finite() {
        // Overflow in the mantissa itself…
        let err = parse_engineering("1e999", "Ω").unwrap_err();
        assert_eq!(err.kind(), QuantityErrorKind::NonFinite);
        assert!(err.to_string().contains("not finite"), "{err}");
        // …and overflow introduced by the prefix scale.
        let err = parse_engineering("1e300 T", "Ω").unwrap_err();
        assert_eq!(err.kind(), QuantityErrorKind::NonFinite);
        // NaN spellings never reach the value stage: the numeric head is
        // empty, so they stay syntax errors.
        let err = parse_engineering("NaN", "Ω").unwrap_err();
        assert_eq!(err.kind(), QuantityErrorKind::Syntax);
    }

    #[test]
    fn display_parse_roundtrip() {
        for &v in &[1.0, 2.5e-12, 4.7e3, 0.25, 9.9e-9] {
            let s = format_engineering(v, "F");
            let back = parse_engineering(&s, "F").unwrap();
            assert!((back - v).abs() <= v.abs() * 1e-4, "{v} -> {s} -> {back}");
        }
    }
}

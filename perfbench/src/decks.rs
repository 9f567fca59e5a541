//! Seeded deck generators: analysis decks (RLC lines, balanced and random
//! trees), coupled buses, synthesis decks, and respellings that keep a
//! circuit's canonical identity while changing every byte they can.

use std::fmt::Write as _;

use rlc_units::{Capacitance, Inductance, Resistance};

use crate::rng::Rng;

/// Which quantity a value card carries; decides the parser that checks a
/// spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    R,
    L,
    C,
}

impl Kind {
    fn unit(self) -> &'static str {
        match self {
            Kind::R => "ohm",
            Kind::L => "H",
            Kind::C => "F",
        }
    }

    /// The bits of the base-unit value `text` parses to, as the deck parser
    /// reads it.
    fn bits(self, text: &str) -> Option<u64> {
        let value = match self {
            Kind::R => text.parse::<Resistance>().ok()?.as_ohms(),
            Kind::L => text.parse::<Inductance>().ok()?.as_henries(),
            Kind::C => text.parse::<Capacitance>().ok()?.as_farads(),
        };
        Some(value.to_bits())
    }
}

/// A value with three significant digits: `digits × 10^exp` base units.
#[derive(Debug, Clone, Copy)]
struct Value {
    kind: Kind,
    digits: u32,
    exp: i32,
}

/// `digits × 10^exp` in plain decimal notation.
fn decimal(digits: u32, exp: i32) -> String {
    let text = digits.to_string();
    if exp >= 0 {
        return format!("{text}{}", "0".repeat(exp as usize));
    }
    let shift = (-exp) as usize;
    if shift < text.len() {
        let (int, frac) = text.split_at(text.len() - shift);
        format!("{int}.{frac}")
    } else {
        format!("0.{}{text}", "0".repeat(shift - text.len()))
    }
}

const PREFIXES: [(&str, i32); 7] = [
    ("f", -15),
    ("p", -12),
    ("n", -9),
    ("u", -6),
    ("m", -3),
    ("", 0),
    ("k", 3),
];

impl Value {
    /// Three random significant digits scaled by `10^exp` or `10^(exp+1)`:
    /// a value in `[100·10^exp, 9990·10^exp]`.
    fn draw(rng: &mut Rng, kind: Kind, exp: i32) -> Self {
        Self {
            kind,
            digits: rng.range(100, 999) as u32,
            exp: exp + rng.below(2) as i32,
        }
    }

    /// Every spelling of this value the benchmark knows: engineering
    /// prefixes with and without a unit symbol, plain and scientific.
    fn spellings(self) -> Vec<String> {
        let mut out = Vec::new();
        for (sym, p) in PREFIXES {
            let k = self.exp - p;
            if !(-7..=4).contains(&k) {
                continue;
            }
            let mantissa = decimal(self.digits, k);
            out.push(format!("{mantissa}{sym}"));
            if !sym.is_empty() && self.kind != Kind::R {
                out.push(format!("{mantissa}{sym}{}", self.kind.unit()));
            }
        }
        let d = self.digits.to_string();
        let (lead, rest) = d.split_at(1);
        out.push(format!("{lead}.{rest}e{}", self.exp + 2));
        out.push(format!("{d}e{}", self.exp));
        out
    }

    /// The spellings that parse to exactly the bits of `reference`.
    fn spellings_equal_to(self, reference: &str) -> Vec<String> {
        let want = self.kind.bits(reference);
        self.spellings()
            .into_iter()
            .filter(|s| self.kind.bits(s) == want)
            .collect()
    }
}

/// One wire segment: an `R` card, an optional `L` card and a `C` card at
/// the segment's far end. Each series card is one tree section.
#[derive(Debug, Clone)]
struct Segment {
    parent: Option<usize>,
    r: Value,
    l: Option<Value>,
    c: Value,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Line,
    Balanced,
    Random,
    /// A trunk that forks once into 2–3 leaf runs (a clock-net shape).
    Fork,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Line => "line",
            Shape::Balanced => "balanced",
            Shape::Random => "random",
            Shape::Fork => "fork",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Resistive wires: large R, small L.
    Over,
    /// Comparable R and L.
    Near,
    /// Inductive wires: small R, large L.
    Under,
}

fn parents(shape: Shape, segments: usize, rng: &mut Rng) -> Vec<Option<usize>> {
    // Fork: the trunk is the first third; the rest splits into 2–3 runs
    // that all hang off the trunk's last segment.
    let trunk = (segments / 3).max(1);
    let runs = 2 + rng.below(2);
    let run_len = ((segments - trunk) / runs).max(1);
    (0..segments)
        .map(|k| match (k, shape) {
            (0, _) => None,
            (_, Shape::Line) => Some(k - 1),
            (_, Shape::Balanced) => Some((k - 1) / 2),
            (_, Shape::Random) => Some(rng.below(k)),
            (_, Shape::Fork) if k < trunk || !(k - trunk).is_multiple_of(run_len) => Some(k - 1),
            (_, Shape::Fork) => Some(trunk - 1),
        })
        .collect()
}

/// A circuit as the generator holds it: topology, values, and the
/// spelling each value had in its first deck.
#[derive(Debug, Clone)]
pub struct Circuit {
    segments: Vec<Segment>,
    /// First spelling of each segment's (R, L, C), used as the reference
    /// bits that respellings must reproduce.
    spelled: Vec<[String; 3]>,
    header: Option<String>,
}

impl Circuit {
    /// An analysis circuit of exactly `sections` series cards (`sections`
    /// even: every segment carries both R and L).
    pub fn analysis(rng: &mut Rng, shape: Shape, sections: usize, regime: Regime) -> Self {
        let (r_exp, l_exp, c_exp) = match regime {
            Regime::Over => (-1, -13, -16),
            Regime::Near => (-2, -12, -16),
            Regime::Under => (-3, -11, -16),
        };
        let count = sections / 2;
        let links = parents(shape, count, rng);
        let segments = links
            .into_iter()
            .map(|parent| Segment {
                parent,
                r: Value::draw(rng, Kind::R, r_exp),
                l: Some(Value::draw(rng, Kind::L, l_exp)),
                c: Value::draw(rng, Kind::C, c_exp),
            })
            .collect();
        let header = (rng.below(3) == 0).then(|| {
            format!(
                "* {} {} net, {sections} sections, seeded",
                shape.name(),
                ["resistive", "balanced", "inductive"][regime as usize]
            )
        });
        Self::spell(segments, header, rng)
    }

    /// A resistive synthesis trunk of `sites` series cards: segments with
    /// and without a small series inductance, so the count is exact.
    fn synthesis(rng: &mut Rng, shape: Shape, sites: usize) -> Self {
        let mut segments = Vec::new();
        let mut left = sites;
        while left > 0 {
            let with_l = left >= 2 && rng.below(2) == 0;
            left -= if with_l { 2 } else { 1 };
            segments.push(Segment {
                parent: None,
                r: Value::draw(rng, Kind::R, -1),
                l: with_l.then(|| Value::draw(rng, Kind::L, -13)),
                c: Value::draw(rng, Kind::C, -16),
            });
        }
        let links = parents(shape, segments.len(), rng);
        for (segment, parent) in segments.iter_mut().zip(links) {
            segment.parent = parent;
        }
        Self::spell(segments, None, rng)
    }

    fn spell(segments: Vec<Segment>, header: Option<String>, rng: &mut Rng) -> Self {
        let pick = |v: Value, rng: &mut Rng| {
            let all = v.spellings();
            all[rng.below(all.len())].clone()
        };
        let spelled = segments
            .iter()
            .map(|s| {
                [
                    pick(s.r, rng),
                    s.l.map(|l| pick(l, rng)).unwrap_or_default(),
                    pick(s.c, rng),
                ]
            })
            .collect();
        Self {
            segments,
            spelled,
            header,
        }
    }

    /// Names of the segments that drive nothing (the sinks).
    fn leaves(&self) -> Vec<usize> {
        let mut has_child = vec![false; self.segments.len()];
        for s in &self.segments {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        (0..self.segments.len())
            .filter(|&k| !has_child[k])
            .collect()
    }

    /// The deck in its first spelling: plain names, single spaces.
    pub fn deck(&self) -> String {
        let mut out = String::new();
        if let Some(header) = &self.header {
            let _ = writeln!(out, "{header}");
        }
        for (_, card) in self.cards(&Names::plain(), " ", |k, which| {
            self.spelled[k][which].clone()
        }) {
            let _ = writeln!(out, "{card}");
        }
        out
    }

    /// A respelling: renamed nodes and card labels, other whitespace,
    /// other value spellings (only ones that parse to the same bits),
    /// shunt cards moved, comments added or dropped. The series cards keep
    /// their order, which is what fixes the tree's section order.
    pub fn respell(&self, rng: &mut Rng) -> String {
        let names = Names::random(self.segments.len(), rng);
        let sep = ["  ", "\t", " \t ", "   "][rng.below(4)];
        let mut out = String::new();
        match rng.below(3) {
            0 => {}
            1 => out.push_str("* resubmitted net\n"),
            _ => out.push_str("; scratch copy\n* respelled\n"),
        }
        let _ = writeln!(out, ".input{sep}{}", names.input);
        let cards = self.cards(&names, sep, |k, which| {
            let s = &self.segments[k];
            let v = match which {
                0 => s.r,
                1 => s.l.expect("only segments with an L card spell one"),
                _ => s.c,
            };
            let options = v.spellings_equal_to(&self.spelled[k][which]);
            options[rng.below(options.len())].clone()
        });
        let move_shunts = rng.below(2) == 0;
        let mut shunts = Vec::new();
        for (kind, card) in cards {
            if kind == Kind::C && move_shunts {
                shunts.push(card);
            } else {
                let _ = writeln!(out, "{card}");
            }
        }
        rng.shuffle(&mut shunts);
        for card in shunts {
            let _ = writeln!(out, "{card}");
        }
        if rng.below(2) == 0 {
            out.push_str(".end\n");
        }
        out
    }

    /// The element cards in segment order under `names`; `value(k, j)`
    /// spells segment `k`'s R (`j = 0`), L (`1`) or C (`2`) value.
    fn cards(
        &self,
        names: &Names,
        sep: &str,
        mut value: impl FnMut(usize, usize) -> String,
    ) -> Vec<(Kind, String)> {
        let mut out = Vec::with_capacity(3 * self.segments.len());
        for (k, s) in self.segments.iter().enumerate() {
            let from = match s.parent {
                Some(p) => names.end(p),
                None => names.input.clone(),
            };
            let label = names.label(k);
            let end = names.end(k);
            if s.l.is_some() {
                let mid = names.mid(k);
                out.push((
                    Kind::R,
                    format!("R{label}{sep}{from}{sep}{mid}{sep}{}", value(k, 0)),
                ));
                out.push((
                    Kind::L,
                    format!("L{label}{sep}{mid}{sep}{end}{sep}{}", value(k, 1)),
                ));
            } else {
                out.push((
                    Kind::R,
                    format!("R{label}{sep}{from}{sep}{end}{sep}{}", value(k, 0)),
                ));
            }
            out.push((
                Kind::C,
                format!(
                    "C{label}{sep}{end}{sep}{}{sep}{}",
                    names.ground,
                    value(k, 2)
                ),
            ));
        }
        out
    }
}

/// A coupled bus for the crosstalk engine: `nets` nets of 12–96 sections,
/// each adjacent pair of nets tied by 2–4 coupling capacitors. Section
/// counts and shapes are stratified by `slot`, so a corpus's total work
/// depends little on the seed.
pub fn coupled_deck(rng: &mut Rng, nets: usize, slot: usize) -> String {
    let circuits: Vec<Circuit> = (0..nets)
        .map(|net| {
            let sections = 2 * (6 + (slot * 7 + net * 19) % 43);
            let shape = [Shape::Line, Shape::Random][(slot + net) % 2];
            let regime = [Regime::Over, Regime::Near, Regime::Under][rng.below(3)];
            Circuit::analysis(rng, shape, sections, regime)
        })
        .collect();
    let mut out = String::from("* seeded coupled bus\n");
    for (j, circuit) in circuits.iter().enumerate() {
        let _ = writeln!(out, ".net b{j}\n.input in");
        for (_, card) in circuit.cards(&Names::plain(), " ", |k, which| {
            circuit.spelled[k][which].clone()
        }) {
            let _ = writeln!(out, "{card}");
        }
    }
    let mut label = 0;
    for j in 1..nets {
        for _ in 0..2 + rng.below(3) {
            let a = 1 + rng.below(circuits[j - 1].segments.len());
            let b = 1 + rng.below(circuits[j].segments.len());
            label += 1;
            let cc = Value::draw(rng, Kind::C, -17).spellings()[0].clone();
            let _ = writeln!(out, "K{label} b{}.n{a} b{j}.n{b} {cc}", j - 1);
        }
    }
    out.push_str(".end\n");
    out
}

/// A synthesis deck: a resistive line or tree with 16–64 candidate sites,
/// 1–3 `.lib` buffers (`.use` picks one), an explicit `.driver` and,
/// sometimes, `.require` constraints on sinks.
pub fn synth_deck(rng: &mut Rng, shape: Shape, sites: usize) -> String {
    let circuit = Circuit::synthesis(rng, shape, sites);
    let mut out = format!(
        "* seeded {} synthesis net, {sites} sites\n.input in\n",
        shape.name()
    );
    for (_, card) in circuit.cards(&Names::plain(), " ", |k, which| {
        circuit.spelled[k][which].clone()
    }) {
        let _ = writeln!(out, "{card}");
    }
    let buffers = 1 + rng.below(3);
    for b in 0..buffers {
        let _ = writeln!(
            out,
            ".lib buf{b} r={} cin={}f tin={}p",
            60 + rng.below(150),
            3 + rng.below(8),
            10 + rng.below(16)
        );
    }
    if buffers > 1 {
        let _ = writeln!(out, ".use buf{}", rng.below(buffers));
    }
    let _ = writeln!(out, ".driver {}", 60 + rng.below(100));
    let leaves = circuit.leaves();
    if rng.below(2) == 0 {
        let leaf = leaves[rng.below(leaves.len())];
        let _ = writeln!(out, ".require n{} {}n", leaf + 1, 1 + rng.below(4));
    }
    out.push_str(".end\n");
    out
}

/// Node and label naming for one spelling of a circuit.
struct Names {
    input: String,
    prefix: &'static str,
    perm: Vec<usize>,
    labels: Vec<usize>,
    ground: &'static str,
}

impl Names {
    fn plain() -> Self {
        Self {
            input: "in".to_owned(),
            prefix: "n",
            perm: Vec::new(),
            labels: Vec::new(),
            ground: "0",
        }
    }

    fn random(count: usize, rng: &mut Rng) -> Self {
        let mut perm: Vec<usize> = (0..count).collect();
        rng.shuffle(&mut perm);
        let mut labels: Vec<usize> = (0..count).collect();
        rng.shuffle(&mut labels);
        Self {
            input: ["src", "drv", "pin", "root"][rng.below(4)].to_owned(),
            prefix: ["w", "net_", "x", "N"][rng.below(4)],
            perm,
            labels,
            ground: ["0", "gnd", "GND"][rng.below(3)],
        }
    }

    fn index(&self, k: usize) -> usize {
        self.perm.get(k).copied().unwrap_or(k) + 1
    }

    fn end(&self, k: usize) -> String {
        format!("{}{}", self.prefix, self.index(k))
    }

    fn mid(&self, k: usize) -> String {
        format!("{}{}m", self.prefix, self.index(k))
    }

    fn label(&self, k: usize) -> String {
        match self.labels.get(k) {
            Some(&l) => format!("_{l}"),
            None => (k + 1).to_string(),
        }
    }
}

//! Replayable fuzz cases: a generator configuration plus seed (and an
//! optional surviving-net subset left behind by the shrinker),
//! serialized in a small line-oriented text format.
//!
//! A case is *pure data* — rebuilding the [`Problem`] from an equal case
//! always yields a bit-identical instance, which is what makes fuzz
//! findings replayable across machines and sessions.

use std::error::Error;
use std::fmt;

use route_benchdata::gen::{ChannelGen, ObstructedGen, SwitchboxGen};
use route_model::{Problem, ProblemBuilder, RouteError};

/// The generator family and shape of a fuzz case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseShape {
    /// A random switchbox ([`SwitchboxGen`]).
    Switchbox {
        /// Grid width.
        width: u32,
        /// Grid height.
        height: u32,
        /// Number of two-pin nets.
        nets: u32,
    },
    /// A random switchbox with interior obstacles ([`ObstructedGen`]).
    Obstructed {
        /// Grid width.
        width: u32,
        /// Grid height.
        height: u32,
        /// Number of two-pin nets.
        nets: u32,
        /// Obstacle coverage of the interior, percent.
        obstacle_pct: u32,
    },
    /// A random channel ([`ChannelGen`]) realized as a grid problem.
    Channel {
        /// Number of columns.
        width: usize,
        /// Number of nets.
        nets: u32,
        /// Multi-pin pressure, percent.
        extra_pin_pct: u32,
        /// Span window (0 = unbounded).
        window: usize,
        /// Track count of the realized grid.
        tracks: usize,
    },
}

impl CaseShape {
    /// Number of nets the generator will produce.
    pub fn nets(&self) -> u32 {
        match *self {
            CaseShape::Switchbox { nets, .. }
            | CaseShape::Obstructed { nets, .. }
            | CaseShape::Channel { nets, .. } => nets,
        }
    }

    /// The family keyword used in case files.
    pub fn family(&self) -> &'static str {
        match self {
            CaseShape::Switchbox { .. } => "switchbox",
            CaseShape::Obstructed { .. } => "obstructed",
            CaseShape::Channel { .. } => "channel",
        }
    }
}

/// A replayable fuzz case: shape, seed, and the net subset kept by the
/// shrinker (`None` = all generated nets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// Generator family and dimensions.
    pub shape: CaseShape,
    /// RNG seed fed to the generator.
    pub seed: u64,
    /// Indices (0-based net ids) of the generated nets kept in the
    /// instance, ascending. `None` keeps every net.
    pub keep: Option<Vec<u32>>,
}

impl FuzzCase {
    /// A case covering every net of the generated instance.
    pub fn full(shape: CaseShape, seed: u64) -> Self {
        FuzzCase { shape, seed, keep: None }
    }

    /// Number of nets in the built instance.
    pub fn net_count(&self) -> usize {
        match &self.keep {
            Some(keep) => keep.len(),
            None => self.shape.nets() as usize,
        }
    }

    /// Generates the full instance (ignoring any `keep` subset).
    fn generate(&self) -> Problem {
        match self.shape {
            CaseShape::Switchbox { width, height, nets } => {
                SwitchboxGen { width, height, nets, seed: self.seed }.build()
            }
            CaseShape::Obstructed { width, height, nets, obstacle_pct } => {
                ObstructedGen { width, height, nets, obstacle_pct, seed: self.seed }.build()
            }
            CaseShape::Channel { width, nets, extra_pin_pct, window, tracks } => {
                ChannelGen { width, nets, extra_pin_pct, span_window: window, seed: self.seed }
                    .build()
                    .to_problem(tracks)
            }
        }
    }

    /// Builds the instance this case describes: the generated problem,
    /// restricted to the `keep` subset when one is present.
    pub fn build(&self) -> Problem {
        let full = self.generate();
        match &self.keep {
            None => full,
            Some(keep) => restrict(&full, keep),
        }
    }

    /// Panic-safe [`build`](Self::build): the workload generators
    /// assert on infeasible shapes (e.g. a channel too crowded to seat
    /// every pin), and hand-written case files can describe such
    /// shapes. Returns `None` instead of propagating the panic.
    pub fn try_build(&self) -> Option<Problem> {
        RouteError::isolate(|| self.build()).ok()
    }

    /// Serializes the case in the `fuzzcase v1` text format.
    pub fn write(&self) -> String {
        let mut out = String::from("fuzzcase v1\n");
        out.push_str(&format!("family {}\n", self.shape.family()));
        match self.shape {
            CaseShape::Switchbox { width, height, nets } => {
                out.push_str(&format!("width {width}\nheight {height}\nnets {nets}\n"));
            }
            CaseShape::Obstructed { width, height, nets, obstacle_pct } => {
                out.push_str(&format!(
                    "width {width}\nheight {height}\nnets {nets}\nobstacle-pct {obstacle_pct}\n"
                ));
            }
            CaseShape::Channel { width, nets, extra_pin_pct, window, tracks } => {
                out.push_str(&format!(
                    "width {width}\nnets {nets}\nextra-pin-pct {extra_pin_pct}\n\
                     window {window}\ntracks {tracks}\n"
                ));
            }
        }
        out.push_str(&format!("seed {}\n", self.seed));
        if let Some(keep) = &self.keep {
            let list: Vec<String> = keep.iter().map(u32::to_string).collect();
            out.push_str(&format!("keep {}\n", list.join(" ")));
        }
        out
    }

    /// Parses a case from the `fuzzcase v1` text format.
    ///
    /// # Errors
    ///
    /// Returns [`CaseParseError`] for a bad header, unknown keys,
    /// malformed numbers, missing fields, or an out-of-range `keep` list.
    pub fn parse(text: &str) -> Result<FuzzCase, CaseParseError> {
        let bad = |line: usize, message: String| CaseParseError { line, message };
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim()))
            .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
        match lines.next() {
            Some((_, "fuzzcase v1")) => {}
            Some((n, other)) => {
                return Err(bad(n, format!("expected `fuzzcase v1` header, found `{other}`")))
            }
            None => return Err(bad(1, "empty case file".to_string())),
        }
        let mut family = None;
        let mut fields: Vec<(usize, String, String)> = Vec::new();
        let mut keep: Option<Vec<u32>> = None;
        for (n, line) in lines {
            let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match key {
                "family" => family = Some((n, rest.to_string())),
                "keep" => {
                    let mut list = Vec::new();
                    for tok in rest.split_whitespace() {
                        list.push(
                            tok.parse::<u32>()
                                .map_err(|_| bad(n, format!("bad keep index `{tok}`")))?,
                        );
                    }
                    if !list.windows(2).all(|w| w[0] < w[1]) {
                        return Err(bad(n, "keep list must be strictly ascending".to_string()));
                    }
                    keep = Some(list);
                }
                _ => fields.push((n, key.to_string(), rest.to_string())),
            }
        }
        let (fline, family) =
            family.ok_or_else(|| bad(1, "case file has no `family` line".to_string()))?;
        let get = |name: &str| -> Result<Option<u64>, CaseParseError> {
            for (n, key, value) in &fields {
                if key == name {
                    return value
                        .parse::<u64>()
                        .map(Some)
                        .map_err(|_| bad(*n, format!("bad {name} value `{value}`")));
                }
            }
            Ok(None)
        };
        let need = |name: &str, v: Option<u64>| -> Result<u64, CaseParseError> {
            v.ok_or_else(|| bad(fline, format!("family `{family}` needs a `{name}` field")))
        };
        let width = get("width")?;
        let height = get("height")?;
        let nets = get("nets")?;
        let seed = get("seed")?.unwrap_or(0);
        let shape = match family.as_str() {
            "switchbox" => CaseShape::Switchbox {
                width: need("width", width)? as u32,
                height: need("height", height)? as u32,
                nets: need("nets", nets)? as u32,
            },
            "obstructed" => CaseShape::Obstructed {
                width: need("width", width)? as u32,
                height: need("height", height)? as u32,
                nets: need("nets", nets)? as u32,
                obstacle_pct: need("obstacle-pct", get("obstacle-pct")?)? as u32,
            },
            "channel" => CaseShape::Channel {
                width: need("width", width)? as usize,
                nets: need("nets", nets)? as u32,
                extra_pin_pct: get("extra-pin-pct")?.unwrap_or(0) as u32,
                window: get("window")?.unwrap_or(0) as usize,
                tracks: need("tracks", get("tracks")?)? as usize,
            },
            other => return Err(bad(fline, format!("unknown case family `{other}`"))),
        };
        if let Some(keep) = &keep {
            if keep.iter().any(|&i| i >= shape.nets()) {
                return Err(bad(
                    1,
                    format!("keep index out of range for {} generated nets", shape.nets()),
                ));
            }
        }
        Ok(FuzzCase { shape, seed, keep })
    }
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shape {
            CaseShape::Switchbox { width, height, nets } => {
                write!(f, "switchbox {width}x{height} nets {nets}")?;
            }
            CaseShape::Obstructed { width, height, nets, obstacle_pct } => {
                write!(f, "obstructed {width}x{height} nets {nets} obstacles {obstacle_pct}%")?;
            }
            CaseShape::Channel { width, nets, tracks, .. } => {
                write!(f, "channel {width}w nets {nets} tracks {tracks}")?;
            }
        }
        write!(f, " seed {}", self.seed)?;
        if let Some(keep) = &self.keep {
            write!(f, " keep {}/{}", keep.len(), self.shape.nets())?;
        }
        Ok(())
    }
}

/// Error produced when parsing a case file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseParseError {
    /// 1-based line number the error was detected on.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for CaseParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for CaseParseError {}

/// Rebuilds `problem` keeping only the nets whose 0-based ids appear in
/// `keep` (geometry, obstacles and layer count are preserved).
pub fn restrict(problem: &Problem, keep: &[u32]) -> Problem {
    let mut b = match problem.region() {
        Some(region) => ProblemBuilder::region(region.clone()),
        None => ProblemBuilder::switchbox(problem.width(), problem.height()),
    };
    b.layers(problem.layers());
    for &(at, layer) in problem.obstacles() {
        match layer {
            Some(l) => b.obstacle_on(at, l),
            None => b.obstacle(at),
        };
    }
    for net in problem.nets() {
        if !keep.contains(&net.id.0) {
            continue;
        }
        let mut nb = b.net(net.name.clone());
        for pin in &net.pins {
            nb.pin_at(pin.at, pin.layer);
        }
    }
    b.build().expect("a net subset of a valid problem is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cases() -> Vec<FuzzCase> {
        vec![
            FuzzCase::full(CaseShape::Switchbox { width: 10, height: 8, nets: 5 }, 42),
            FuzzCase {
                shape: CaseShape::Obstructed { width: 12, height: 12, nets: 4, obstacle_pct: 10 },
                seed: 7,
                keep: Some(vec![0, 2]),
            },
            FuzzCase {
                shape: CaseShape::Channel {
                    width: 20,
                    nets: 8,
                    extra_pin_pct: 30,
                    window: 8,
                    tracks: 9,
                },
                seed: 3,
                keep: None,
            },
        ]
    }

    #[test]
    fn round_trips_through_text() {
        for case in sample_cases() {
            let text = case.write();
            let back = FuzzCase::parse(&text).unwrap();
            assert_eq!(back, case, "case text:\n{text}");
        }
    }

    #[test]
    fn build_is_deterministic() {
        for case in sample_cases() {
            let a = case.build();
            let b = case.build();
            assert_eq!(a.nets(), b.nets());
            assert_eq!(a.obstacles(), b.obstacles());
            assert_eq!(a.nets().len(), case.net_count());
        }
    }

    #[test]
    fn restrict_keeps_geometry_and_subset() {
        let case = FuzzCase::full(CaseShape::Switchbox { width: 10, height: 8, nets: 5 }, 42);
        let full = case.build();
        let sub = restrict(&full, &[1, 3]);
        assert_eq!(sub.width(), full.width());
        assert_eq!(sub.height(), full.height());
        assert_eq!(sub.nets().len(), 2);
        // Names and pins survive; ids are re-densified.
        assert_eq!(sub.nets()[0].name, full.nets()[1].name);
        assert_eq!(sub.nets()[0].pins, full.nets()[1].pins);
        assert_eq!(sub.nets()[1].pins, full.nets()[3].pins);
    }

    #[test]
    fn parse_rejects_malformed_cases() {
        assert!(FuzzCase::parse("").is_err());
        assert!(FuzzCase::parse("fuzzcase v2\n").is_err());
        assert!(FuzzCase::parse("fuzzcase v1\nfamily martian\nwidth 4\n").is_err());
        assert!(FuzzCase::parse("fuzzcase v1\nfamily switchbox\nwidth 4\n").is_err());
        assert!(FuzzCase::parse(
            "fuzzcase v1\nfamily switchbox\nwidth 8\nheight 8\nnets 2\nseed 0\nkeep 5\n"
        )
        .is_err());
        assert!(FuzzCase::parse(
            "fuzzcase v1\nfamily switchbox\nwidth 8\nheight 8\nnets 3\nseed 0\nkeep 2 1\n"
        )
        .is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# a fuzz find\n\nfuzzcase v1\n# shape\nfamily switchbox\nwidth 8\n\
                    height 6\nnets 2\nseed 11\n";
        let case = FuzzCase::parse(text).unwrap();
        assert_eq!(case.shape, CaseShape::Switchbox { width: 8, height: 6, nets: 2 });
        assert_eq!(case.seed, 11);
        assert_eq!(case.keep, None);
    }
}

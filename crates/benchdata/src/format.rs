//! A small line-oriented text format for routing instances.
//!
//! Switchbox problems:
//!
//! ```text
//! sb 8 6
//! obstacle 3 3
//! obstacle 4 4 M2
//! net clk 0 2 M1  7 5 M1
//! net d0  2 0 M2  2 5 M2
//! ```
//!
//! Irregular regions replace the `sb` header with one or more `region`
//! rectangles (`X Y WIDTH HEIGHT`, lower-left corner first); their union
//! is the routing area and everything outside it is blocked:
//!
//! ```text
//! region 0 0 12 4
//! region 0 0 4 12
//! net a 1 11 M2  11 1 M1
//! ```
//!
//! Channels:
//!
//! ```text
//! channel
//! top    1 2 0 3
//! bottom 0 1 3 2
//! ```
//!
//! Blank lines and `#` comments are ignored. The format exists for the
//! examples and for exchanging instances with external tools; it is not
//! a stable archival format.

use std::error::Error;
use std::fmt;

use route_channel::{ChannelSpec, SpecError};
use route_geom::{Layer, Point};
use route_model::{Problem, ProblemBuilder, ProblemError};

/// Error produced when parsing an instance file.
#[derive(Debug)]
pub enum ParseError {
    /// A line could not be interpreted.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The parsed problem failed validation.
    Problem(ProblemError),
    /// The parsed channel failed validation.
    Channel(SpecError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::Problem(e) => write!(f, "invalid problem: {e}"),
            ParseError::Channel(e) => write!(f, "invalid channel: {e}"),
        }
    }
}

impl Error for ParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseError::Syntax { .. } => None,
            ParseError::Problem(e) => Some(e),
            ParseError::Channel(e) => Some(e),
        }
    }
}

impl From<ProblemError> for ParseError {
    fn from(e: ProblemError) -> Self {
        ParseError::Problem(e)
    }
}

impl From<SpecError> for ParseError {
    fn from(e: SpecError) -> Self {
        ParseError::Channel(e)
    }
}

fn syntax(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Syntax { line, message: message.into() }
}

fn parse_layer(tok: &str, line: usize) -> Result<Layer, ParseError> {
    match tok {
        "M1" | "m1" => Ok(Layer::M1),
        "M2" | "m2" => Ok(Layer::M2),
        "M3" | "m3" => Ok(Layer::M3),
        other => Err(syntax(line, format!("unknown layer `{other}`"))),
    }
}

/// Parses a switchbox problem in the `sb` format.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines or if the assembled problem
/// fails validation.
pub fn parse_problem(text: &str) -> Result<Problem, ParseError> {
    let mut builder: Option<ProblemBuilder> = None;
    let mut region_rects: Vec<route_geom::Rect> = Vec::new();
    // Materializes the builder from collected `region` lines when the
    // first obstacle/net directive arrives.
    fn materialize<'a>(
        builder: &'a mut Option<ProblemBuilder>,
        region_rects: &[route_geom::Rect],
        line_no: usize,
        what: &str,
    ) -> Result<&'a mut ProblemBuilder, ParseError> {
        if builder.is_none() {
            if region_rects.is_empty() {
                return Err(syntax(line_no, format!("`{what}` before `sb`/`region` header")));
            }
            *builder = Some(ProblemBuilder::region(route_geom::Region::from_rects(
                region_rects.iter().copied(),
            )));
        }
        Ok(builder.as_mut().expect("just materialized"))
    }
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "sb" => {
                if tokens.len() != 3 {
                    return Err(syntax(line_no, "expected `sb WIDTH HEIGHT`"));
                }
                let w: u32 = tokens[1].parse().map_err(|_| syntax(line_no, "bad width"))?;
                let h: u32 = tokens[2].parse().map_err(|_| syntax(line_no, "bad height"))?;
                side(line_no, "width", w.into())?;
                side(line_no, "height", h.into())?;
                builder = Some(ProblemBuilder::switchbox(w, h));
            }
            "region" => {
                if builder.is_some() {
                    return Err(syntax(line_no, "`region` cannot follow an `sb` header"));
                }
                if tokens.len() != 5 {
                    return Err(syntax(line_no, "expected `region X Y WIDTH HEIGHT`"));
                }
                let x: i32 = tokens[1].parse().map_err(|_| syntax(line_no, "bad x"))?;
                let y: i32 = tokens[2].parse().map_err(|_| syntax(line_no, "bad y"))?;
                let w: u32 = tokens[3].parse().map_err(|_| syntax(line_no, "bad width"))?;
                let h: u32 = tokens[4].parse().map_err(|_| syntax(line_no, "bad height"))?;
                side(line_no, "region width", w.into())?;
                side(line_no, "region height", h.into())?;
                side(line_no, "region x + width", i64::from(x) + i64::from(w))?;
                side(line_no, "region y + height", i64::from(y) + i64::from(h))?;
                region_rects.push(route_geom::Rect::with_size(Point::new(x, y), w, h));
            }
            "layers" => {
                let b = materialize(&mut builder, &region_rects, line_no, "layers")?;
                if tokens.len() != 2 {
                    return Err(syntax(line_no, "expected `layers N`"));
                }
                let n: u8 = tokens[1].parse().map_err(|_| syntax(line_no, "bad layer count"))?;
                if !(2..=3).contains(&n) {
                    return Err(syntax(line_no, "layer count must be 2 or 3"));
                }
                b.layers(n);
            }
            "obstacle" => {
                let b = materialize(&mut builder, &region_rects, line_no, "obstacle")?;
                if tokens.len() != 3 && tokens.len() != 4 {
                    return Err(syntax(line_no, "expected `obstacle X Y [LAYER]`"));
                }
                let x: i32 = tokens[1].parse().map_err(|_| syntax(line_no, "bad x"))?;
                let y: i32 = tokens[2].parse().map_err(|_| syntax(line_no, "bad y"))?;
                if tokens.len() == 4 {
                    b.obstacle_on(Point::new(x, y), parse_layer(tokens[3], line_no)?);
                } else {
                    b.obstacle(Point::new(x, y));
                }
            }
            "net" => {
                let b = materialize(&mut builder, &region_rects, line_no, "net")?;
                if tokens.len() < 5 || !(tokens.len() - 2).is_multiple_of(3) {
                    return Err(syntax(line_no, "expected `net NAME (X Y LAYER)+`"));
                }
                let mut nb = b.net(tokens[1]);
                for chunk in tokens[2..].chunks(3) {
                    let x: i32 = chunk[0].parse().map_err(|_| syntax(line_no, "bad pin x"))?;
                    let y: i32 = chunk[1].parse().map_err(|_| syntax(line_no, "bad pin y"))?;
                    nb.pin_at(Point::new(x, y), parse_layer(chunk[2], line_no)?);
                }
            }
            other => return Err(syntax(line_no, format!("unknown directive `{other}`"))),
        }
    }
    let builder = match builder {
        Some(b) => b,
        None if !region_rects.is_empty() => {
            ProblemBuilder::region(route_geom::Region::from_rects(region_rects))
        }
        None => return Err(syntax(0, "missing `sb` or `region` header")),
    };
    Ok(builder.build()?)
}

/// Largest grid side or far corner an instance file may declare — the
/// bound `vroute gen` and `vroute chip` enforce — so no cell count or
/// corner coordinate can overflow.
const MAX_SIDE: i64 = 4096;

/// Checks one side or far-corner coordinate of a header against
/// `1..=MAX_SIDE`.
fn side(line_no: usize, what: &str, value: i64) -> Result<(), ParseError> {
    if (1..=MAX_SIDE).contains(&value) {
        Ok(())
    } else {
        Err(syntax(line_no, format!("{what} must be in 1..={MAX_SIDE}")))
    }
}

/// Serializes a problem in the `sb` format (inverse of [`parse_problem`]).
pub fn write_problem(problem: &Problem) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    match problem.region() {
        Some(region) => {
            for r in region.rects() {
                let _ = writeln!(
                    out,
                    "region {} {} {} {}",
                    r.min().x,
                    r.min().y,
                    r.width(),
                    r.height()
                );
            }
        }
        None => {
            let _ = writeln!(out, "sb {} {}", problem.width(), problem.height());
        }
    }
    if problem.layers() != 2 {
        let _ = writeln!(out, "layers {}", problem.layers());
    }
    for &(p, layer) in problem.obstacles() {
        match layer {
            Some(l) => {
                let _ = writeln!(out, "obstacle {} {} {}", p.x, p.y, l);
            }
            None => {
                let _ = writeln!(out, "obstacle {} {}", p.x, p.y);
            }
        }
    }
    for net in problem.nets() {
        let _ = write!(out, "net {}", net.name);
        for pin in &net.pins {
            let _ = write!(out, "  {} {} {}", pin.at.x, pin.at.y, pin.layer);
        }
        out.push('\n');
    }
    out
}

/// Serializes a routing database's committed traces in the `routes`
/// format (one `trace` line per committed trace, grouped by net):
///
/// ```text
/// routes
/// net clk
/// trace 0 2 M1  1 2 M1  2 2 M1  2 2 M2  2 3 M2
/// ```
///
/// Reload with [`parse_routes`]; together they let a routing be saved,
/// exchanged and independently re-verified.
pub fn write_routes(problem: &Problem, db: &route_model::RouteDb) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("routes\n");
    for net in problem.nets() {
        let traces: Vec<_> = db.traces(net.id).collect();
        if traces.is_empty() {
            continue;
        }
        let _ = writeln!(out, "net {}", net.name);
        for (_, trace) in traces {
            out.push_str("trace");
            for step in trace.steps() {
                let _ = write!(out, "  {} {} {}", step.at.x, step.at.y, step.layer);
            }
            out.push('\n');
        }
    }
    out
}

/// Parses a `routes` file against `problem`, committing every trace into
/// a fresh database.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines, unknown net names,
/// non-contiguous traces, or traces that conflict with obstacles, pins
/// or each other.
pub fn parse_routes(problem: &Problem, text: &str) -> Result<route_model::RouteDb, ParseError> {
    use route_model::{RouteDb, Step, Trace};
    let mut db = RouteDb::new(problem);
    let mut current: Option<route_model::NetId> = None;
    let mut seen_header = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "routes" => seen_header = true,
            "net" => {
                if !seen_header {
                    return Err(syntax(line_no, "`net` before `routes` header"));
                }
                if tokens.len() != 2 {
                    return Err(syntax(line_no, "expected `net NAME`"));
                }
                let net = problem
                    .net_by_name(tokens[1])
                    .ok_or_else(|| syntax(line_no, format!("unknown net `{}`", tokens[1])))?;
                current = Some(net.id);
            }
            "trace" => {
                let net =
                    current.ok_or_else(|| syntax(line_no, "`trace` before any `net` line"))?;
                if tokens.len() < 4 || !(tokens.len() - 1).is_multiple_of(3) {
                    return Err(syntax(line_no, "expected `trace (X Y LAYER)+`"));
                }
                let mut steps = Vec::with_capacity((tokens.len() - 1) / 3);
                for chunk in tokens[1..].chunks(3) {
                    let x: i32 = chunk[0].parse().map_err(|_| syntax(line_no, "bad x"))?;
                    let y: i32 = chunk[1].parse().map_err(|_| syntax(line_no, "bad y"))?;
                    steps.push(Step::new(Point::new(x, y), parse_layer(chunk[2], line_no)?));
                }
                let trace = Trace::from_steps(steps)
                    .map_err(|e| syntax(line_no, format!("invalid trace: {e}")))?;
                db.commit(net, trace)
                    .map_err(|e| syntax(line_no, format!("trace conflicts: {e}")))?;
            }
            other => return Err(syntax(line_no, format!("unknown directive `{other}`"))),
        }
    }
    if !seen_header {
        return Err(syntax(0, "missing `routes` header"));
    }
    Ok(db)
}

/// Parses a channel in the `channel` format.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed lines or if the channel fails
/// validation.
pub fn parse_channel(text: &str) -> Result<ChannelSpec, ParseError> {
    let mut top: Option<Vec<u32>> = None;
    let mut bottom: Option<Vec<u32>> = None;
    let mut seen_header = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "channel" => seen_header = true,
            "top" | "bottom" => {
                if !seen_header {
                    return Err(syntax(line_no, "pin row before `channel` header"));
                }
                let nets: Result<Vec<u32>, _> = tokens[1..].iter().map(|t| t.parse()).collect();
                let nets = nets.map_err(|_| syntax(line_no, "bad net number"))?;
                if tokens[0] == "top" {
                    top = Some(nets);
                } else {
                    bottom = Some(nets);
                }
            }
            other => return Err(syntax(line_no, format!("unknown directive `{other}`"))),
        }
    }
    match (top, bottom) {
        (Some(t), Some(b)) => Ok(ChannelSpec::new(t, b)?),
        _ => Err(syntax(0, "missing `top` or `bottom` row")),
    }
}

/// Serializes a channel in the `channel` format (inverse of
/// [`parse_channel`]).
pub fn write_channel(spec: &ChannelSpec) -> String {
    use std::fmt::Write as _;
    let join = |pins: &[u32]| pins.iter().map(|n| n.to_string()).collect::<Vec<_>>().join(" ");
    let mut out = String::from("channel\n");
    let _ = writeln!(out, "top {}", join(spec.top_pins()));
    let _ = writeln!(out, "bottom {}", join(spec.bottom_pins()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SB: &str = "\
# a toy switchbox
sb 8 6
obstacle 3 3
obstacle 4 4 M2
net clk 0 2 M1  7 5 M1
net d0  2 0 M2  2 5 M2
";

    #[test]
    fn three_layer_problem_round_trips() {
        let text = "sb 6 6\nlayers 3\nnet a 0 1 M1  5 1 M3\n";
        let p = parse_problem(text).unwrap();
        assert_eq!(p.layers(), 3);
        let out = write_problem(&p);
        assert!(out.contains("layers 3"));
        assert_eq!(parse_problem(&out).unwrap(), p);
        // M3 pins are rejected without the directive.
        assert!(matches!(
            parse_problem("sb 6 6\nnet a 0 1 M1  5 1 M3\n"),
            Err(ParseError::Problem(_))
        ));
        // Invalid counts are rejected.
        assert!(matches!(parse_problem("sb 6 6\nlayers 4\n"), Err(ParseError::Syntax { .. })));
        assert!(matches!(parse_problem("sb 6 6\nlayers 1\n"), Err(ParseError::Syntax { .. })));
    }

    #[test]
    fn parse_and_write_problem_round_trip() {
        let p = parse_problem(SB).unwrap();
        assert_eq!(p.width(), 8);
        assert_eq!(p.nets().len(), 2);
        assert_eq!(p.obstacles().len(), 2);
        let text = write_problem(&p);
        let p2 = parse_problem(&text).unwrap();
        assert_eq!(p, p2);
    }

    const L_REGION: &str = "\
region 0 0 12 4
region 0 0 4 12
obstacle 2 2
net a 1 11 M2  11 1 M1
net b 0 8 M1  3 10 M1
";

    #[test]
    fn parse_and_write_region_problem_round_trip() {
        let p = parse_problem(L_REGION).unwrap();
        assert!(p.region().is_some());
        assert_eq!(p.width(), 12);
        assert_eq!(p.height(), 12);
        assert!(!p.in_region(route_geom::Point::new(10, 10)));
        assert!(p.in_region(route_geom::Point::new(1, 11)));
        let text = write_problem(&p);
        assert!(text.starts_with("region "));
        let p2 = parse_problem(&text).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn region_header_errors() {
        // `region` after `sb` is rejected.
        assert!(matches!(parse_problem("sb 4 4\nregion 0 0 2 2"), Err(ParseError::Syntax { .. })));
        // Zero-size region rects are rejected.
        assert!(matches!(
            parse_problem("region 0 0 0 4\nnet a 0 0 M1 1 0 M1"),
            Err(ParseError::Syntax { .. })
        ));
        // Region not anchored at the origin fails problem validation.
        assert!(matches!(
            parse_problem("region 2 2 4 4\nnet a 2 2 M1 3 3 M1"),
            Err(ParseError::Problem(_))
        ));
    }

    #[test]
    fn parse_problem_errors() {
        assert!(matches!(parse_problem(""), Err(ParseError::Syntax { .. })));
        assert!(matches!(parse_problem("net x 0 0 M1"), Err(ParseError::Syntax { .. })));
        assert!(matches!(parse_problem("sb 0 5"), Err(ParseError::Syntax { .. })));
        // Grids whose cell count wraps `u32`, or whose far corner
        // overflows `i32`, are refused before any allocation.
        for text in [
            "sb 65536 65536\nnet a 0 0 M1 5 5 M1",
            "sb 70000 70000\nnet a 0 0 M1 5 5 M1",
            "region 2147483647 2147483647 5 5\nnet a 0 0 M1 1 1 M1",
            "sb 4097 8",
            "region 4090 0 7 7",
        ] {
            assert!(matches!(parse_problem(text), Err(ParseError::Syntax { .. })), "{text}");
        }
        assert!(parse_problem("sb 4096 1\nnet a 0 0 M1 5 0 M1").is_ok());
        assert!(matches!(
            parse_problem("sb 4 4\nnet x 0 0 M9 1 1 M1"),
            Err(ParseError::Syntax { .. })
        ));
        // Validation failures propagate.
        assert!(matches!(
            parse_problem("sb 4 4\nnet x 9 9 M1 0 0 M1"),
            Err(ParseError::Problem(_))
        ));
    }

    #[test]
    fn routes_round_trip_through_routing() {
        use route_maze::{sequential, CostModel, SearchArena};
        use route_model::NopObserver;
        use route_verify::verify;
        let p = parse_problem(SB).unwrap();
        let mut arena = SearchArena::new();
        let out = sequential::route_all(&mut arena, &p, CostModel::default(), &mut NopObserver);
        assert!(out.is_complete());
        let text = write_routes(&p, &out.db);
        assert!(text.starts_with("routes\n"));
        let reloaded = parse_routes(&p, &text).expect("saved routes reload");
        assert!(verify(&p, &reloaded).is_clean());
        assert_eq!(reloaded.stats(), out.db.stats());
    }

    #[test]
    fn routes_errors() {
        let p = parse_problem(SB).unwrap();
        assert!(matches!(parse_routes(&p, ""), Err(ParseError::Syntax { .. })));
        assert!(matches!(
            parse_routes(&p, "routes\ntrace 0 0 M1 1 0 M1"),
            Err(ParseError::Syntax { .. })
        ));
        assert!(matches!(
            parse_routes(&p, "routes\nnet nonexistent"),
            Err(ParseError::Syntax { .. })
        ));
        // Non-contiguous trace.
        assert!(matches!(
            parse_routes(&p, "routes\nnet clk\ntrace 0 2 M1  5 5 M1"),
            Err(ParseError::Syntax { .. })
        ));
        // Trace over the obstacle at (3,3).
        assert!(matches!(
            parse_routes(&p, "routes\nnet clk\ntrace 3 3 M1"),
            Err(ParseError::Syntax { .. })
        ));
    }

    #[test]
    fn parse_and_write_channel_round_trip() {
        let text = "channel\ntop 1 2 0 2\nbottom 0 1 2 0\n";
        let spec = parse_channel(text).unwrap();
        assert_eq!(spec.width(), 4);
        let spec2 = parse_channel(&write_channel(&spec)).unwrap();
        assert_eq!(spec, spec2);
    }

    #[test]
    fn parse_channel_errors() {
        assert!(matches!(parse_channel("top 1 1"), Err(ParseError::Syntax { .. })));
        assert!(matches!(parse_channel("channel\ntop 1 x"), Err(ParseError::Syntax { .. })));
        assert!(matches!(parse_channel("channel\ntop 1 1"), Err(ParseError::Syntax { .. })));
        assert!(matches!(
            parse_channel("channel\ntop 1 1\nbottom 2 0"),
            Err(ParseError::Channel(_))
        ));
    }
}

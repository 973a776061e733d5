//! The diagnostics engine shared by both analysis passes.
//!
//! Every rule — feasibility certificate or database lint — reports
//! through one [`Diagnostic`] type modelled on compiler output: a
//! severity, a stable rule code, the grid span it anchors to, a
//! human-readable message and an optional fix hint. Diagnostics order
//! deterministically ([`sort_diagnostics`]) and render as text
//! ([`render_text`]).

use std::fmt;

use route_geom::{Layer, Point};
use route_model::NetId;

/// How serious a diagnostic is.
///
/// Errors make a problem unroutable or a database illegal; warnings
/// flag suspect but legal constructs; notes carry context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The instance is provably broken: infeasible or rule-violating.
    Error,
    /// Legal but suspect: likely waste or fragility worth a look.
    Warning,
    /// Informational context attached to other diagnostics.
    Note,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        })
    }
}

/// The grid region a diagnostic points at: an inclusive point range,
/// optionally pinned to a single layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridSpan {
    /// Lower-left corner of the span.
    pub from: Point,
    /// Upper-right corner of the span (inclusive; equal to `from` for a
    /// single cell).
    pub to: Point,
    /// Layer the span lives on, or `None` when it covers all layers.
    pub layer: Option<Layer>,
}

impl GridSpan {
    /// A single-cell span on one layer.
    pub fn cell(at: Point, layer: Layer) -> Self {
        GridSpan { from: at, to: at, layer: Some(layer) }
    }

    /// A single-column/row/area span covering every layer.
    pub fn area(from: Point, to: Point) -> Self {
        GridSpan { from, to, layer: None }
    }

    /// A single point across all layers.
    pub fn point(at: Point) -> Self {
        GridSpan { from: at, to: at, layer: None }
    }
}

impl fmt::Display for GridSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.from == self.to {
            write!(f, "{}", self.from)?;
        } else {
            write!(f, "{}..{}", self.from, self.to)?;
        }
        if let Some(layer) = self.layer {
            write!(f, " on {layer}")?;
        }
        Ok(())
    }
}

/// One finding from an analysis pass, in compiler style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// How serious the finding is.
    pub severity: Severity,
    /// Stable machine-readable rule code (`F001`, `L003`, ...).
    pub code: &'static str,
    /// Stable kebab-case rule name (`density-overflow`, ...).
    pub rule: &'static str,
    /// Human-readable, instance-specific description.
    pub message: String,
    /// Where on the grid the finding anchors, if anywhere.
    pub span: Option<GridSpan>,
    /// The net chiefly involved, if one is.
    pub net: Option<NetId>,
    /// A suggested fix, when one is mechanical enough to state.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// The key diagnostics sort by: severity first (errors lead), then
    /// rule code, then grid position, then net, then message — total
    /// and deterministic, independent of discovery order.
    fn sort_key(&self) -> impl Ord + '_ {
        (self.severity, self.code, self.span, self.net.map(|n| n.0), &self.message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}/{}]: {}", self.severity, self.code, self.rule, self.message)?;
        if let Some(span) = &self.span {
            write!(f, "\n  --> {span}")?;
        }
        if let Some(hint) = &self.hint {
            write!(f, "\n  = hint: {hint}")?;
        }
        Ok(())
    }
}

/// Sorts diagnostics into their stable reporting order.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
}

/// Renders diagnostics as compiler-style text, one block per finding,
/// ending with a one-line summary count. Empty input renders empty.
///
/// # Examples
///
/// ```
/// use route_analyze::{render_text, Diagnostic, Severity};
///
/// let d = Diagnostic {
///     severity: Severity::Warning,
///     code: "L006",
///     rule: "stacked-via",
///     message: "demo".into(),
///     span: None,
///     net: None,
///     hint: None,
/// };
/// let text = render_text(&[d]);
/// assert!(text.starts_with("warning[L006/stacked-via]: demo"));
/// assert!(text.ends_with("1 warning\n"));
/// ```
pub fn render_text(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.iter().filter(|d| d.severity == Severity::Warning).count();
    let mut parts = Vec::new();
    if errors > 0 {
        parts.push(format!("{errors} error{}", plural(errors)));
    }
    if warnings > 0 {
        parts.push(format!("{warnings} warning{}", plural(warnings)));
    }
    if parts.is_empty() {
        parts.push(format!("{} note{}", diags.len(), plural(diags.len())));
    }
    out.push_str(&parts.join(", "));
    out.push('\n');
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity, code: &'static str, at: Point, msg: &str) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            rule: "rule",
            message: msg.into(),
            span: Some(GridSpan::cell(at, Layer::M1)),
            net: None,
            hint: None,
        }
    }

    #[test]
    fn ordering_puts_errors_first_then_code_then_position() {
        let mut diags = vec![
            diag(Severity::Warning, "L006", Point::new(0, 0), "w"),
            diag(Severity::Error, "L005", Point::new(9, 9), "e2"),
            diag(Severity::Error, "L001", Point::new(3, 1), "e1b"),
            diag(Severity::Error, "L001", Point::new(2, 1), "e1a"),
        ];
        sort_diagnostics(&mut diags);
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert_eq!(msgs, ["e1a", "e1b", "e2", "w"]);
    }

    #[test]
    fn text_rendering_includes_span_hint_and_counts() {
        let mut d = diag(Severity::Error, "F001", Point::new(4, 2), "cut saturated");
        d.hint = Some("drop a net".into());
        let text =
            render_text(&[d.clone(), diag(Severity::Warning, "L008", Point::new(1, 1), "x")]);
        assert!(text.contains("error[F001/rule]: cut saturated"), "{text}");
        assert!(text.contains("--> (4, 2) on M1"), "{text}");
        assert!(text.contains("= hint: drop a net"), "{text}");
        assert!(text.ends_with("1 error, 1 warning\n"), "{text}");
    }

    #[test]
    fn empty_renderings() {
        assert_eq!(render_text(&[]), "");
    }

    #[test]
    fn span_display_forms() {
        assert_eq!(GridSpan::cell(Point::new(1, 2), Layer::M2).to_string(), "(1, 2) on M2");
        assert_eq!(
            GridSpan::area(Point::new(0, 0), Point::new(3, 4)).to_string(),
            "(0, 0)..(3, 4)"
        );
        assert_eq!(GridSpan::point(Point::new(5, 6)).to_string(), "(5, 6)");
    }
}

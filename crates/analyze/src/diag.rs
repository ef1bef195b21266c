//! Structured diagnostics: stable codes, severities, locations, hints.

use std::fmt;

use cmfuzz_telemetry::json::ObjectWriter;

/// Version discriminator opening every JSON diagnostics document, so
/// downstream consumers can dispatch on shape before parsing findings.
pub const DIAGNOSTICS_SCHEMA: &str = "cmfuzz.diagnostics.v1";

/// How bad a finding is; the ordering drives exit codes and campaign
/// preflight (`Error` aborts, the rest report).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or likely-benign: the campaign runs, the model could be
    /// tighter.
    Lint,
    /// Suspicious: almost certainly wastes budget (dead model, empty
    /// partition) but cannot crash the campaign.
    Warn,
    /// Broken: the campaign would panic, refuse to boot, or burn an
    /// instance's whole budget. Preflight rejects these.
    Error,
}

impl Severity {
    /// Lowercase label used in rendered output (`lint`/`warn`/`error`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Severity::Lint => "lint",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }

    /// Process exit code for `cmfuzz-lint`: clean runs exit 0, the worst
    /// diagnostic otherwise decides (1 lint, 2 warn, 3 error).
    #[must_use]
    pub fn exit_code(self) -> i32 {
        match self {
            Severity::Lint => 1,
            Severity::Warn => 2,
            Severity::Error => 3,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding: a stable `CM0xx` code, a severity, where it is (model
/// name plus item path), what is wrong, and how to fix it.
///
/// # Examples
///
/// ```
/// use cmfuzz_analyze::{Diagnostic, Severity};
///
/// let d = Diagnostic::new(
///     "CM003",
///     Severity::Warn,
///     "mosquitto",
///     "state:Orphan",
///     "state is unreachable from the initial state",
///     "add a transition into it or remove the state",
/// );
/// assert_eq!(
///     d.to_string(),
///     "warn[CM003] mosquitto/state:Orphan: state is unreachable from the initial state \
///      (fix: add a transition into it or remove the state)"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    code: &'static str,
    severity: Severity,
    model: String,
    path: String,
    message: String,
    hint: String,
}

impl Diagnostic {
    /// Builds a diagnostic. `model` locates the owning model (usually the
    /// subject name); `path` locates the item within it (e.g.
    /// `state:Init`, `item:port`, `instance:2`).
    #[must_use]
    pub fn new(
        code: &'static str,
        severity: Severity,
        model: &str,
        path: &str,
        message: &str,
        hint: &str,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            model: model.to_owned(),
            path: path.to_owned(),
            message: message.to_owned(),
            hint: hint.to_owned(),
        }
    }

    /// The stable `CM0xx` code.
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.code
    }

    /// The severity.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// The owning model (subject) name.
    #[must_use]
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The item path within the model.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The one-line description of the defect.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The one-line fix hint.
    #[must_use]
    pub fn hint(&self) -> &str {
        &self.hint
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}/{}: {} (fix: {})",
            self.severity.label(),
            self.code,
            self.model,
            self.path,
            self.message,
            self.hint
        )
    }
}

/// An ordered collection of diagnostics from one analysis run.
///
/// Ordering is canonical — `push` keeps insertion order, [`Report::sort`]
/// reorders by (model, code, path, message) — so rendered output is
/// byte-identical across runs over the same models.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Appends every diagnostic of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Canonical order: model, then code, then path, then message.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.model(), a.code(), a.path(), a.message()).cmp(&(
                b.model(),
                b.code(),
                b.path(),
                b.message(),
            ))
        });
    }

    /// The findings in their current order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Consumes the report, yielding its findings.
    #[must_use]
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diagnostics
    }

    /// Number of findings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// Whether the report is clean.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The worst severity present, if any.
    #[must_use]
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(Diagnostic::severity).max()
    }

    /// Whether any finding is an [`Severity::Error`].
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// Findings of exactly `severity`.
    #[must_use]
    pub fn count_of(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == severity)
            .count()
    }

    /// Renders the report as human-readable text: one line per finding
    /// plus a summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for diagnostic in &self.diagnostics {
            out.push_str(&diagnostic.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} lint(s)\n",
            self.count_of(Severity::Error),
            self.count_of(Severity::Warn),
            self.count_of(Severity::Lint)
        ));
        out
    }

    /// Renders the report as a versioned JSON document (machine
    /// consumption; `cmfuzz-lint --format json`): a top-level object
    /// opening with a `"schema"` discriminator — the diagnostics analogue
    /// of the telemetry v1 envelope — followed by the findings array.
    #[must_use]
    pub fn render_json(&self) -> String {
        let findings: Vec<String> = self
            .diagnostics
            .iter()
            .map(|d| {
                let mut finding = ObjectWriter::new();
                finding.str_field("code", d.code());
                finding.str_field("severity", d.severity().label());
                finding.str_field("model", d.model());
                finding.str_field("path", d.path());
                finding.str_field("message", d.message());
                finding.str_field("hint", d.hint());
                finding.finish()
            })
            .collect();
        let mut document = ObjectWriter::new();
        document.str_field("schema", DIAGNOSTICS_SCHEMA);
        document.raw_field("findings", &format!("[{}]", findings.join(",")));
        document.finish()
    }
}

impl FromIterator<Diagnostic> for Report {
    fn from_iter<I: IntoIterator<Item = Diagnostic>>(iter: I) -> Self {
        Report {
            diagnostics: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: &'static str, severity: Severity, model: &str, path: &str) -> Diagnostic {
        Diagnostic::new(code, severity, model, path, "msg", "hint")
    }

    #[test]
    fn severity_orders_lint_warn_error() {
        assert!(Severity::Lint < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Error.exit_code(), 3);
        assert_eq!(Severity::Lint.label(), "lint");
    }

    #[test]
    fn max_severity_and_counts() {
        let mut report = Report::new();
        assert_eq!(report.max_severity(), None);
        assert!(!report.has_errors());
        report.push(diag("CM003", Severity::Warn, "m", "a"));
        report.push(diag("CM001", Severity::Error, "m", "b"));
        report.push(diag("CM005", Severity::Lint, "m", "c"));
        assert_eq!(report.max_severity(), Some(Severity::Error));
        assert!(report.has_errors());
        assert_eq!(report.count_of(Severity::Warn), 1);
        assert_eq!(report.len(), 3);
    }

    #[test]
    fn sort_is_canonical() {
        let mut report = Report::new();
        report.push(diag("CM003", Severity::Warn, "b", "z"));
        report.push(diag("CM001", Severity::Error, "b", "a"));
        report.push(diag("CM001", Severity::Error, "a", "q"));
        report.sort();
        let order: Vec<(&str, &str, &str)> = report
            .diagnostics()
            .iter()
            .map(|d| (d.model(), d.code(), d.path()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a", "CM001", "q"),
                ("b", "CM001", "a"),
                ("b", "CM003", "z")
            ]
        );
    }

    #[test]
    fn text_rendering_has_one_line_per_finding_plus_summary() {
        let mut report = Report::new();
        report.push(diag("CM010", Severity::Error, "qpid", "item:x"));
        let text = report.render_text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("error[CM010] qpid/item:x"));
        assert!(text.contains("1 error(s), 0 warning(s), 0 lint(s)"));
    }

    #[test]
    fn json_rendering_escapes_and_lists() {
        let mut report = Report::new();
        report.push(Diagnostic::new(
            "CM001",
            Severity::Error,
            "m\"x",
            "p",
            "line\nbreak",
            "h",
        ));
        let json = report.render_json();
        assert!(
            json.starts_with("{\"schema\":\"cmfuzz.diagnostics.v1\",\"findings\":["),
            "{json}"
        );
        assert!(json.contains("\"model\":\"m\\\"x\""));
        assert!(json.contains("line\\nbreak"));
        assert_eq!(
            Report::new().render_json(),
            "{\"schema\":\"cmfuzz.diagnostics.v1\",\"findings\":[]}"
        );
    }

    #[test]
    fn json_findings_parse_back_to_the_original_strings() {
        use cmfuzz_telemetry::json::parse;

        let awkward = "quote\" backslash\\ newline\n tab\t ctrl\u{1}";
        let mut report = Report::new();
        report.push(Diagnostic::new(
            "CM001",
            Severity::Warn,
            awkward,
            "path\\x",
            "line\nbreak",
            awkward,
        ));
        let document = parse(&report.render_json()).expect("valid JSON");
        assert_eq!(
            document.get("schema").and_then(|v| v.as_str()),
            Some(DIAGNOSTICS_SCHEMA)
        );
        let findings = document
            .get("findings")
            .and_then(|v| v.as_array())
            .expect("findings array");
        assert_eq!(findings.len(), 1);
        let field = |name: &str| findings[0].get(name).and_then(|v| v.as_str());
        assert_eq!(field("code"), Some("CM001"));
        assert_eq!(field("severity"), Some("warn"));
        assert_eq!(field("model"), Some(awkward));
        assert_eq!(field("path"), Some("path\\x"));
        assert_eq!(field("message"), Some("line\nbreak"));
        assert_eq!(field("hint"), Some(awkward));
    }

    #[test]
    fn merge_and_from_iterator() {
        let mut a: Report = vec![diag("CM001", Severity::Error, "m", "p")]
            .into_iter()
            .collect();
        let b: Report = vec![diag("CM003", Severity::Warn, "m", "q")]
            .into_iter()
            .collect();
        a.merge(b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.into_diagnostics().len(), 2);
    }
}

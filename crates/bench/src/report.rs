//! Plain-text rendering of experiment results in the paper's layout.

use crate::experiments::{AblationRow, Figure4Series, Table1Row, Table2Row};

/// Renders Table I in the paper's column layout.
#[must_use]
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "TABLE I: Average number of branches covered by each fuzzer running in parallel.\n",
    );
    out.push_str(&format!(
        "{:<12} {:>8} {:>8} {:>8} {:>9} {:>8} {:>8} {:>9}\n",
        "Subject", "CMFuzz", "Peach", "Improv", "Speedup", "SPFuzz", "Improv", "Speedup"
    ));
    let mut improv_peach = 0.0;
    let mut improv_spfuzz = 0.0;
    let mut speedup_peach = 0.0;
    let mut speedup_spfuzz = 0.0;
    for row in rows {
        out.push_str(&format!(
            "{:<12} {:>8.0} {:>8.0} {:>+7.1}% {:>8.1}x {:>8.0} {:>+7.1}% {:>8.1}x\n",
            row.subject,
            row.cmfuzz,
            row.peach,
            row.improv_peach,
            row.speedup_peach,
            row.spfuzz,
            row.improv_spfuzz,
            row.speedup_spfuzz,
        ));
        improv_peach += row.improv_peach;
        improv_spfuzz += row.improv_spfuzz;
        speedup_peach += row.speedup_peach;
        speedup_spfuzz += row.speedup_spfuzz;
    }
    let n = rows.len().max(1) as f64;
    out.push_str(&format!(
        "{:<12} {:>8} {:>8} {:>+7.1}% {:>8.1}x {:>8} {:>+7.1}% {:>8.1}x\n",
        "AVERAGE",
        "",
        "",
        improv_peach / n,
        speedup_peach / n,
        "",
        improv_spfuzz / n,
        speedup_spfuzz / n,
    ));
    out
}

/// Renders Figure 4 as per-subject time series (CSV-like blocks a plotting
/// script can consume directly).
#[must_use]
pub fn render_figure4(series: &[Figure4Series]) -> String {
    let mut out = String::new();
    out.push_str("Figure 4: branches over virtual time, 3 fuzzers per subject.\n");
    for s in series {
        out.push_str(&format!("# subject={}\n", s.subject));
        out.push_str("time,cmfuzz,peach,spfuzz\n");
        let len = s
            .cmfuzz
            .points()
            .len()
            .min(s.peach.points().len())
            .min(s.spfuzz.points().len());
        for i in 0..len {
            let (t, cm) = s.cmfuzz.points()[i];
            let (_, pe) = s.peach.points()[i];
            let (_, sp) = s.spfuzz.points()[i];
            out.push_str(&format!("{},{cm},{pe},{sp}\n", t.get()));
        }
    }
    out
}

/// Renders Table II in the paper's layout, with a `Found by` column the
/// paper implies (all 14 are CMFuzz finds).
#[must_use]
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE II: Summary of vulnerabilities detected.\n");
    out.push_str(&format!(
        "{:<4} {:<9} {:<26} {:<38} {}\n",
        "No.", "Protocol", "Vulnerability Type", "Affected Function", "Found by"
    ));
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "{:<4} {:<9} {:<26} {:<38} {}\n",
            i + 1,
            row.protocol,
            row.kind.to_string(),
            row.function,
            row.found_by.join("+"),
        ));
    }
    out
}

/// Renders the ablation comparison.
#[must_use]
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str("Ablation: mean branches covered per scheduler variant.\n");
    out.push_str(&format!(
        "{:<18} {:<12} {:>10}\n",
        "Variant", "Subject", "Branches"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<18} {:<12} {:>10.0}\n",
            row.variant, row.subject, row.branches
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmfuzz::metrics::CoverageCurve;
    use cmfuzz_coverage::Ticks;
    use cmfuzz_fuzzer::FaultKind;

    #[test]
    fn table1_renders_all_rows_and_average() {
        let rows = vec![Table1Row {
            subject: "mosquitto".into(),
            cmfuzz: 100.0,
            peach: 70.0,
            improv_peach: 42.9,
            speedup_peach: 12.0,
            spfuzz: 80.0,
            improv_spfuzz: 25.0,
            speedup_spfuzz: 6.0,
        }];
        let text = render_table1(&rows);
        assert!(text.contains("mosquitto"));
        assert!(text.contains("AVERAGE"));
        assert!(text.contains("+42.9%"));
    }

    #[test]
    fn figure4_renders_csv_blocks() {
        let mut curve = CoverageCurve::new();
        curve.push(Ticks::ZERO, 5).unwrap();
        curve.push(Ticks::new(100), 9).unwrap();
        let series = vec![Figure4Series {
            subject: "dnsmasq".into(),
            cmfuzz: curve.clone(),
            peach: curve.clone(),
            spfuzz: curve,
        }];
        let text = render_figure4(&series);
        assert!(text.contains("# subject=dnsmasq"));
        assert!(text.contains("0,5,5,5"));
        assert!(text.contains("100,9,9,9"));
    }

    #[test]
    fn table2_renders_numbered_rows() {
        let rows = vec![Table2Row {
            protocol: "CoAP".into(),
            kind: FaultKind::Segv,
            function: "coap_handle_request_put_block".into(),
            found_by: vec!["cmfuzz".into()],
        }];
        let text = render_table2(&rows);
        assert!(text.contains("1    CoAP"));
        assert!(text.contains("SEGV"));
        assert!(text.contains("cmfuzz"));
    }

    #[test]
    fn ablation_renders() {
        let rows = vec![AblationRow {
            variant: "grouping-random".into(),
            subject: "mosquitto".into(),
            branches: 99.0,
        }];
        let text = render_ablation(&rows);
        assert!(text.contains("grouping-random"));
    }
}

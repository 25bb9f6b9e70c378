//! The regression gate: compare a freshly written `results/<table>.json`
//! document against its committed copy.
//!
//! Every committed table holds simulated counters, derived figures,
//! model errors and the paper's reference values only — nothing that
//! depends on the host — so every leaf must match exactly. The simulator is deterministic, so any
//! drift is a real behavioural change: fix it, or regenerate the file
//! and commit it. Host time is measured by `perfbench`, not here.
//!
//! Comparison is structural and recursive; every divergence is
//! reported with its JSON path. A table keys its rows and columns by
//! name (`$.rows.<row>.<column>`), so a failing gate names the row and
//! column of every moved cell, and by how much it moved.

use ndc_types::Json;

/// One divergence between baseline and current, with its JSON path.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    pub path: String,
    pub detail: String,
}

impl std::fmt::Display for Diff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Compare `current` against `baseline`. Empty result means the gate
/// passes.
pub fn compare(baseline: &Json, current: &Json) -> Vec<Diff> {
    let mut diffs = Vec::new();
    walk(baseline, current, "$", &mut diffs);
    diffs
}

fn push(diffs: &mut Vec<Diff>, path: &str, detail: String) {
    diffs.push(Diff {
        path: path.to_string(),
        detail,
    });
}

fn type_name(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "bool",
        Json::Int(_) | Json::UInt(_) | Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    }
}

fn walk(base: &Json, cur: &Json, path: &str, diffs: &mut Vec<Diff>) {
    match (base, cur) {
        (Json::Obj(b), Json::Obj(c)) => {
            for (k, bv) in b {
                let child = format!("{path}.{k}");
                match cur.get(k) {
                    Some(cv) => walk(bv, cv, &child, diffs),
                    None => push(diffs, &child, "missing in current".into()),
                }
            }
            for (k, _) in c {
                if base.get(k).is_none() {
                    push(diffs, &format!("{path}.{k}"), "missing in baseline".into());
                }
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            if b.len() != c.len() {
                push(
                    diffs,
                    path,
                    format!(
                        "array length {} in baseline vs {} in current",
                        b.len(),
                        c.len()
                    ),
                );
                return;
            }
            for (i, (bv, cv)) in b.iter().zip(c).enumerate() {
                walk(bv, cv, &format!("{path}[{i}]"), diffs);
            }
        }
        _ => {
            // Int/UInt/Num cross-compare by value; everything else
            // (and type mismatches) compares as a value tree.
            let (Some(bn), Some(cn)) = (base.as_f64(), cur.as_f64()) else {
                if base != cur {
                    push(
                        diffs,
                        path,
                        format!(
                            "{} {} in baseline vs {} {} in current",
                            type_name(base),
                            base.render(),
                            type_name(cur),
                            cur.render()
                        ),
                    );
                }
                return;
            };
            if bn != cn {
                push(
                    diffs,
                    path,
                    format!(
                        "counter changed: baseline {} vs current {}",
                        base.render(),
                        cur.render()
                    ),
                );
            }
        }
    }
}

/// Load a baseline file and compare a current document against it.
/// Returns the diffs (empty = pass); `Err` means the baseline could
/// not be read or parsed.
pub fn gate_against_file(baseline_path: &str, current: &Json) -> Result<Vec<Diff>, String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline =
        Json::parse(&text).map_err(|e| format!("cannot parse baseline {baseline_path}: {e}"))?;
    Ok(compare(&baseline, current))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(cycles: u64, ns: f64) -> Json {
        Json::obj().with("suite", "s").with(
            "benches",
            Json::Arr(vec![Json::obj()
                .with("name", "b")
                .with("median_ns", ns)
                .with("counters", Json::obj().with("total_cycles", cycles))]),
        )
    }

    #[test]
    fn identical_documents_pass() {
        assert!(compare(&doc(100, 5e6), &doc(100, 5e6)).is_empty());
    }

    #[test]
    fn perturbed_simulated_counter_fails_exactly() {
        let diffs = compare(&doc(100, 5e6), &doc(101, 5e6));
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(
            diffs[0].path.ends_with("counters.total_cycles"),
            "{diffs:?}"
        );
    }

    #[test]
    fn host_time_and_host_shape_keys_compare_exactly_too() {
        // No key is exempt: a wall-clock or host-shape value in a
        // committed file is itself the defect, and the gate says so.
        let diffs = compare(&doc(100, 5e6), &doc(100, 5.1e6));
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].path, "$.benches[0].median_ns");
        let b = Json::obj().with("host_parallelism", 4u64).with("x", 1u64);
        let c = Json::obj().with("host_parallelism", 64u64).with("x", 1u64);
        let diffs = compare(&b, &c);
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].path, "$.host_parallelism");
    }

    #[test]
    fn a_moved_table_cell_is_named_by_row_and_column() {
        use ndc::table::{Cell, Table};
        let table = |alg1: f64| {
            let mut t = Table::new("fig4", "Figure 4", "bench").columns(&["oracle", "alg1"], 1);
            t.row("md", vec![Cell::Num(-2.4), Cell::Num(8.5)]);
            t.row("swim", vec![Cell::Num(0.0), Cell::Num(alg1)]);
            Json::parse(&t.to_json(Some("Test"))).unwrap()
        };
        assert!(compare(&table(12.25), &table(12.25)).is_empty());
        let diffs = compare(&table(12.25), &table(12.5));
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert_eq!(diffs[0].path, "$.rows.swim.alg1");
        assert!(diffs[0].detail.contains("12.25"), "{diffs:?}");
    }

    #[test]
    fn structural_drift_is_reported_with_paths() {
        let b = Json::obj().with("rows", vec![1u64, 2]);
        let c = Json::obj()
            .with("rows", vec![1u64, 2, 3])
            .with("extra", true);
        let diffs = compare(&b, &c);
        let paths: Vec<&str> = diffs.iter().map(|d| d.path.as_str()).collect();
        assert!(paths.contains(&"$.rows"), "{diffs:?}");
        assert!(paths.contains(&"$.extra"), "{diffs:?}");
    }
}

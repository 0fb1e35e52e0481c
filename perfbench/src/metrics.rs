//! The metric catalogue and the run report.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a
//! self-test keeps the two in step. See `perfbench/README.md` for what
//! each metric means and which end-to-end metric each per-layer metric
//! should move.

use htforge_obs::Json;

/// Whether a larger or smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// `(name, unit, better)` of every end-to-end metric the contract line
/// of an untraced run carries, in print order.
pub const END_TO_END: &[(&str, &str, Better)] = &[
    ("setup_s", "s", Better::Lower),
    ("ops_per_s", "1/s", Better::Higher),
    ("op_p50_s", "s", Better::Lower),
    ("op_tail_s", "s", Better::Lower),
    ("trojans_per_s", "1/s", Better::Higher),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// `(name, unit)` of every per-layer metric the contract line of a
/// traced run carries, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.load_s", "s"),
    ("netlist.scan_cut_s", "s"),
    ("sim.compile_s", "s"),
    ("sim.compile_calls", "count"),
    ("sim.run_s", "s"),
    ("sim.patterns", "count"),
    ("sim.patterns_per_s", "1/s"),
    ("sim.rare_extract_s", "s"),
    ("sim.rare_nodes", "count"),
    ("atpg.podem_calls", "count"),
    ("atpg.podem_s", "s"),
    ("atpg.podem_p50_ms", "ms"),
    ("atpg.podem_p99_ms", "ms"),
    ("atpg.podem_max_ms", "ms"),
    ("atpg.podem_tests", "count"),
    ("atpg.podem_aborted", "count"),
    ("atpg.podem_untestable", "count"),
    ("atpg.cube_yield", "ratio"),
    ("atpg.cube_care_bits_mean", "count"),
    ("atpg.ndetect_calls", "count"),
    ("atpg.ndetect_s", "s"),
    ("atpg.ndetect_p99_ms", "ms"),
    ("atpg.ndetect_cubes", "count"),
    ("scoap.compute_s", "s"),
    ("core.compat_build_s", "s"),
    ("core.compat_vertices", "count"),
    ("core.compat_dropped", "count"),
    ("core.compat_edges", "count"),
    ("core.edge_density", "ratio"),
    ("core.clique_s", "s"),
    ("core.clique_yield", "ratio"),
    ("core.insert_s", "s"),
    ("core.validate_s", "s"),
    ("detect.random_gen_s", "s"),
    ("detect.mero_gen_s", "s"),
    ("detect.ndatpg_gen_s", "s"),
    ("detect.random_tests", "count"),
    ("detect.mero_tests", "count"),
    ("detect.ndatpg_tests", "count"),
    ("detect.grade_s", "s"),
    ("detect.tc", "ratio"),
    ("detect.dc", "ratio"),
    ("server.queue_wait_p50_ms", "ms"),
    ("server.simulate_p50_ms", "ms"),
    ("server.insert_p50_ms", "ms"),
    ("server.grade_p50_ms", "ms"),
    ("server.detect_p50_ms", "ms"),
    ("server.cache_hit_rate", "ratio"),
    ("server.progress_frames_per_job", "count"),
    ("server.rejected", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// Reported beside the catalogue in the detailed report only: it is 0
/// on a correct run, and the contract line carries it as `failed` ÷
/// `attempted`.
pub const REPORT_ONLY: &[(&str, &str)] = &[("failed_frac", "ratio")];

/// One measured value with the unit the catalogue gives it and the
/// quantities it was derived from.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Bases and sample counts, e.g. the numerator and denominator of a
    /// ratio or the percentile a tail was read at.
    pub detail: Vec<(&'static str, Json)>,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric {
            name,
            value,
            detail: Vec::new(),
        }
    }

    /// `num / den`, stored with both bases (0 when `den` is 0).
    pub fn ratio(name: &'static str, num: f64, den: f64) -> Self {
        let value = if den > 0.0 { num / den } else { 0.0 };
        Metric::new(name, value)
            .with("num", Json::Num(num))
            .with("den", Json::Num(den))
    }

    /// Adds a detail field.
    pub fn with(mut self, key: &'static str, value: Json) -> Self {
        self.detail.push((key, value));
        self
    }
}

/// The unit the catalogue assigns to `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().copied())
        .chain(REPORT_ONLY.iter().copied())
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// Orders `measured` by `catalogue`, filling metrics of layers the
/// workload never calls with 0 (marked `"exercised": false`).
///
/// # Panics
///
/// Panics if `measured` names a metric outside `catalogue` or twice, or
/// a name breaks the charset rule.
pub fn complete(catalogue: &[&'static str], mut measured: Vec<Metric>) -> Vec<Metric> {
    for (i, m) in measured.iter().enumerate() {
        assert!(
            catalogue.contains(&m.name),
            "metric `{}` is not in the catalogue",
            m.name
        );
        assert!(
            crate::stats::valid_metric_name(m.name),
            "bad metric name `{}`",
            m.name
        );
        assert!(
            !measured[..i].iter().any(|o| o.name == m.name),
            "metric `{}` measured twice",
            m.name
        );
    }
    catalogue
        .iter()
        .map(|&name| match measured.iter().position(|m| m.name == name) {
            Some(i) => measured.swap_remove(i),
            None => Metric::new(name, 0.0).with("exercised", Json::Bool(false)),
        })
        .collect()
}

/// `{"name": {"value": v, "unit": u, ...}, ...}`: the contract's metric
/// map, with every detail field beside the value when `detail` is set.
pub fn metric_map(metrics: &[Metric], detail: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let unit = unit_of(m.name).expect("catalogued metric");
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(unit.into())),
                ];
                if detail {
                    fields.extend(m.detail.iter().cloned());
                }
                (m.name.to_owned(), Json::obj(fields))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    fn names_in(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_owned(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_owned(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(valid_metric_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} listed twice");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = htforge_obs::parse_json(&text).expect("valid JSON");
        let e2e: Vec<(String, String)> = names_in(&doc, "end_to_end");
        let layers: Vec<(String, String)> = names_in(&doc, "per_layer");
        let want_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_owned(), u.to_owned()))
            .collect();
        let want_layers: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(e2e, want_e2e);
        assert_eq!(layers, want_layers);
        for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let better = m.get("better").and_then(Json::as_str).unwrap();
            let want = END_TO_END.iter().find(|e| e.0 == name).unwrap().2;
            assert_eq!(better == "higher", want == Better::Higher, "{name}");
        }
    }

    #[test]
    fn complete_fills_unexercised_layers_in_catalogue_order() {
        let got = complete(&["a.x", "b.y", "c.z"], vec![Metric::new("c.z", 2.0)]);
        let names: Vec<&str> = got.iter().map(|m| m.name).collect();
        assert_eq!(names, ["a.x", "b.y", "c.z"]);
        assert_eq!(got[2].value, 2.0);
        assert_eq!(got[0].value, 0.0);
    }

    #[test]
    fn ratios_keep_their_bases() {
        let m = Metric::ratio("core.edge_density", 3.0, 4.0);
        assert_eq!(m.value, 0.75);
        assert_eq!(m.detail[0], ("num", Json::Num(3.0)));
        assert_eq!(m.detail[1], ("den", Json::Num(4.0)));
        assert_eq!(Metric::ratio("x", 1.0, 0.0).value, 0.0);
    }
}

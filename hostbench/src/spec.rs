//! What the benchmark promises to print: its workloads and the name and
//! unit of every metric. `BENCHMARK.json` at the repository root must
//! name exactly these (checked by `tests/contract.rs`).

/// Most end-to-end metrics one run may report.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics one run may report.
pub const MAX_PER_LAYER: usize = 128;
/// Longest metric or workload name.
pub const MAX_NAME_LEN: usize = 64;

/// Gated workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["serial-avq.large", "hybrid-avq.large-p2-1cpu"];

/// Workloads the command runs on request but `BENCHMARK.json` does not
/// list: their solve times spread too far between runs to gate on
/// (see README.md).
pub const UNGATED_WORKLOADS: [&str; 2] = ["netwise-industry2-p2", "hybrid-avq.large-p2"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_s_tail", "s"),
    ("nets_per_s", "1/s"),
    ("cpu_s_per_solve", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_s", "sim_s"),
    ("tracks", "count"),
    ("wirelength", "count"),
    ("area", "count"),
    ("verified_frac", "frac"),
];

/// The seven router phases, as `pgr_obs::Phase::name` spells them.
pub const PHASES: [&str; 7] = [
    "setup",
    "steiner",
    "coarse",
    "feedthrough",
    "connect",
    "switchable",
    "assemble",
];

/// Per-layer metric name of a phase's host seconds. The setup phase is
/// `route.setup_phase_s` so it cannot be mistaken for `setup_s`.
pub fn phase_seconds_name(phase: &str) -> String {
    if phase == "setup" {
        "route.setup_phase_s".to_string()
    } else {
        format!("route.{phase}_s")
    }
}

/// Per-layer metrics (`--trace 1`): name and unit, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("circuit.parse_s".into(), "s"),
        ("circuit.parse_mb_per_s".into(), "MB/s"),
    ];
    m.extend(PHASES.iter().map(|p| (phase_seconds_name(p), "s")));
    m.extend(
        PHASES
            .iter()
            .map(|p| (format!("route.{p}.wall_share"), "frac")),
    );
    m.extend(
        PHASES
            .iter()
            .map(|p| (format!("route.{p}.sim_share"), "frac")),
    );
    for name in [
        "route.segments",
        "route.crossings",
        "route.spans",
        "route.switch_candidates",
        "route.switch_flips",
    ] {
        m.push((name.into(), "count"));
    }
    m.extend([
        ("route.flip_ratio".into(), "frac"),
        ("geom.mst_s".into(), "s"),
        ("parallel.rank_wall_imbalance".into(), "ratio"),
        ("parallel.sim_imbalance".into(), "ratio"),
        ("mpi.msgs_per_solve".into(), "count"),
        ("mpi.bytes_per_solve".into(), "bytes"),
        ("mpi.modeled_peak_mb".into(), "MB"),
        ("mpi.crc_replay_s".into(), "s"),
        ("mpi.critical_compute_s".into(), "sim_s"),
        ("mpi.critical_recv_wait_s".into(), "sim_s"),
        ("mpi.critical_transport_s".into(), "sim_s"),
        ("verify.s".into(), "s"),
        ("verify.violations".into(), "count"),
        ("obs.emit_s".into(), "s"),
        ("obs.trace_overhead_frac".into(), "frac"),
        ("host.steal_frac".into(), "frac"),
        ("host.ref_sample_ms".into(), "ms"),
    ]);
    m
}

/// A metric or workload name: 1 to 64 of `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= MAX_NAME_LEN
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Check a metric list against the naming rule, uniqueness and a count
/// limit. Returns the first problem found.
pub fn check_metric_names<'a>(
    names: impl IntoIterator<Item = &'a str>,
    limit: usize,
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        if !seen.insert(name) {
            return Err(format!("metric {name:?} listed twice"));
        }
    }
    if seen.len() > limit {
        return Err(format!(
            "{} metrics exceed the limit of {limit}",
            seen.len()
        ));
    }
    Ok(())
}

/// Validate the whole specification: every name well formed and unique,
/// and both lists within their limits.
pub fn check_spec() -> Result<(), String> {
    for w in WORKLOADS.iter().chain(&UNGATED_WORKLOADS) {
        if !valid_name(w) {
            return Err(format!("invalid workload name {w:?}"));
        }
    }
    check_metric_names(END_TO_END.iter().map(|(n, _)| *n), MAX_END_TO_END)?;
    let layer = per_layer();
    check_metric_names(layer.iter().map(|(n, _)| n.as_str()), MAX_PER_LAYER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_rule() {
        for good in ["setup_s", "route.steiner_s", "serial-avq.large", "9lives"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_lead", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn duplicate_and_invalid_names_are_refused() {
        assert!(check_metric_names(["a", "b"], 2).is_ok());
        assert!(check_metric_names(["a", "a"], 4).is_err());
        assert!(check_metric_names(["a", "b c"], 4).is_err());
    }

    #[test]
    fn count_limits_hold_at_the_boundary() {
        let names: Vec<String> = (0..17).map(|i| format!("m{i}")).collect();
        let refs = names.iter().map(|s| s.as_str());
        assert!(check_metric_names(refs.clone().take(16), MAX_END_TO_END).is_ok());
        assert!(check_metric_names(refs, MAX_END_TO_END).is_err());
        let names: Vec<String> = (0..129).map(|i| format!("m{i}")).collect();
        let refs = names.iter().map(|s| s.as_str());
        assert!(check_metric_names(refs.clone().take(128), MAX_PER_LAYER).is_ok());
        assert!(check_metric_names(refs, MAX_PER_LAYER).is_err());
    }

    #[test]
    fn the_specification_is_valid() {
        check_spec().unwrap();
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }
}

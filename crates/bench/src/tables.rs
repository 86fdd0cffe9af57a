//! Regeneration of the paper's tables and figures.
//!
//! Table 1  — circuit characteristics.
//! Table 2 / Figure 4 — row-wise pin partition: scaled tracks + speedups.
//! Table 3 / Figure 5 — net-wise pin partition: scaled tracks + speedups.
//! Table 4 / Figure 6 — hybrid pin partition: scaled tracks + speedups.
//! Table 5  — hybrid, absolute results on the SMP and DMP machine models.
//! Extras   — §5 partition ablation, net-wise sync-period sweep,
//!            machine-model sensitivity, the net-wise sync-protocol and
//!            Steiner-refinement ablations, per-phase time breakdowns,
//!            detailed channel-routing validation, and communication
//!            matrices (all beyond the paper's own tables).

use crate::{circuits, fmt_secs, serial_baseline, SEED};
use pgr_circuit::Circuit;
use pgr_mpi::trace::{chrome_trace_json, chrome_trace_with_path, stats_json, RankTrace};
use pgr_mpi::{
    build_profile, ChaosConfig, ChaosLayer, ClockMode, InstrumentConfig, MachineModel,
    MetricsConfig, RankMetrics, RankStats, ReliabilityConfig, RunMeta,
};
use pgr_obs::{metrics_json, recovery_names, BlameClass, Profile};
use pgr_router::{
    route_parallel, route_parallel_instrumented, Algorithm, PartitionKind, RecoveryPolicy,
    RouterConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Harness options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Circuit scale: 1.0 = the paper's full sizes.
    pub scale: f64,
    /// Restrict to these circuit names (None = all six).
    pub filter: Option<Vec<String>>,
    /// Directory to write per-run Chrome traces and stats JSON into
    /// (`--trace-out`). None = tracing off, zero overhead.
    pub trace_out: Option<PathBuf>,
    /// `chaos` target: recovery-round budget override (`--max-rounds`).
    pub max_rounds: Option<u32>,
    /// `chaos` target: surviving-rank floor override (`--min-ranks`).
    pub min_ranks: Option<usize>,
    /// `chaos` target: kill-schedule override (`--kill R@B`, repeatable)
    /// as `(rank, phase-boundary index)`; boundaries are validated
    /// against the [`pgr_mpi::Phase`] registry at parse time. Empty =
    /// the default one-kill schedule.
    pub kills: Vec<(usize, usize)>,
    /// `stress` target: restrict to these adversarial families
    /// (`--family NAME`, repeatable; validated against the
    /// [`pgr_circuit::scenarios::ScenarioFamily`] registry at parse
    /// time). None = the full registry.
    pub families: Option<Vec<String>>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            filter: None,
            trace_out: None,
            max_rounds: None,
            min_ranks: None,
            kills: Vec::new(),
            families: None,
        }
    }
}

impl Opts {
    /// Full instrumentation (trace + metrics) when `--trace-out` is set;
    /// everything off — and allocation-free — otherwise.
    fn instrument(&self) -> InstrumentConfig {
        if self.trace_out.is_some() {
            InstrumentConfig::full()
        } else {
            InstrumentConfig::off()
        }
    }

    /// The run descriptor stamped into every artifact of this harness.
    fn run_meta(
        &self,
        circuit: &str,
        algorithm: &str,
        procs: usize,
        machine: &MachineModel,
    ) -> RunMeta {
        RunMeta {
            circuit: circuit.to_string(),
            algorithm: algorithm.to_string(),
            procs,
            machine: machine.name.to_string(),
            scale: self.scale,
            seed: SEED,
            degraded: false,
            clock: "virtual".into(),
            scenario: String::new(),
            budget_degraded: false,
        }
    }
}

/// Write one run's artifacts into `dir` (created if missing): the Chrome
/// trace (`<label>.trace.json`, for `chrome://tracing` / Perfetto), the
/// per-rank stats (`<label>.stats.json`), and — when metric shards were
/// collected — the per-rank metrics (`<label>.metrics.json`). Returns
/// the trace path.
pub fn write_traces(
    dir: &Path,
    label: &str,
    traces: &[RankTrace],
    stats: &[RankStats],
    machine: &MachineModel,
    run: &RunMeta,
    metrics: &[RankMetrics],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let trace_path = dir.join(format!("{label}.trace.json"));
    std::fs::write(&trace_path, chrome_trace_json(traces))?;
    std::fs::write(
        dir.join(format!("{label}.stats.json")),
        stats_json(stats, machine, run),
    )?;
    if !metrics.is_empty() {
        std::fs::write(
            dir.join(format!("{label}.metrics.json")),
            metrics_json(run, metrics),
        )?;
    }
    Ok(trace_path)
}

impl Opts {
    fn circuits(&self) -> Vec<Circuit> {
        circuits(self.scale, self.filter.as_deref())
    }

    fn note_scale(&self) {
        if self.scale < 1.0 {
            println!(
                "(circuits scaled to {:.0} % of the paper's sizes)",
                self.scale * 100.0
            );
        }
    }
}

fn cfg() -> RouterConfig {
    RouterConfig::with_seed(SEED)
}

/// Clamp a rank count to the circuit's row count (row partitions need at
/// least one row per rank).
fn clamp_procs(p: usize, circuit: &Circuit) -> usize {
    p.min(circuit.num_rows())
}

/// Table 1: characteristics of the test circuits.
pub fn table1(opts: &Opts) {
    println!("Table 1: Characteristics of test circuits");
    opts.note_scale();
    println!(
        "{:<12} {:>6} {:>8} {:>8} {:>8} {:>12}",
        "circuit", "rows", "pins", "cells", "nets", "max net deg"
    );
    for c in opts.circuits() {
        let s = c.stats();
        println!(
            "{:<12} {:>6} {:>8} {:>8} {:>8} {:>12}",
            s.name, s.rows, s.pins, s.cells, s.nets, s.max_net_degree
        );
    }
    println!();
}

/// Tables 2–4 + Figures 4–6: scaled track quality and speedups of one
/// algorithm on the SparcCenter 1000 model, P ∈ {1, 2, 4, 8}.
pub fn quality_and_speedup(algo: Algorithm, opts: &Opts) {
    let (tno, fno) = match algo {
        Algorithm::RowWise => (2, 4),
        Algorithm::NetWise => (3, 5),
        Algorithm::Hybrid => (4, 6),
    };
    let machine = MachineModel::sparc_center_1000();
    let procs = [1usize, 2, 4, 8];
    let cfg = cfg();

    println!(
        "Table {tno}: Scaled track results of the {} pin partition algorithm",
        algo.name()
    );
    opts.note_scale();
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "circuit", "1 proc", "2 procs", "4 procs", "8 procs"
    );
    let mut speedups: Vec<(String, Vec<f64>)> = Vec::new();
    for c in opts.circuits() {
        let base = serial_baseline(&c, &cfg, machine);
        if let Some(dir) = &opts.trace_out {
            // One instrumented serial run per circuit (virtual time is
            // identical to the baseline's) so the aggregator gets the
            // `algorithm="serial"` record every speedup is scaled to.
            let (report, traces, metrics) =
                pgr_mpi::run_instrumented(1, machine, opts.instrument(), |comm| {
                    pgr_router::route_serial(&c, &cfg, comm);
                });
            let run = opts.run_meta(&c.name, "serial", 1, &machine);
            if let Err(e) = write_traces(
                dir,
                &format!("{}_serial", c.name),
                &traces,
                &report.stats,
                &machine,
                &run,
                &metrics,
            ) {
                eprintln!("trace write failed for {}_serial: {e}", c.name);
            }
        }
        let mut row = format!("{:<12}", c.name);
        let mut sp = Vec::new();
        for &p in &procs {
            let p = clamp_procs(p, &c);
            let out = route_parallel_instrumented(
                &c,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                p,
                machine,
                opts.instrument(),
            );
            pgr_router::verify::assert_verified(&c, &out.result);
            if let Some(dir) = &opts.trace_out {
                let label = format!("{}_{}_p{}", c.name, algo.name(), p);
                let run = opts.run_meta(&c.name, algo.name(), p, &machine);
                if let Err(e) = write_traces(
                    dir,
                    &label,
                    &out.traces,
                    &out.stats,
                    &machine,
                    &run,
                    &out.metrics,
                ) {
                    eprintln!("trace write failed for {label}: {e}");
                }
            }
            row.push_str(&format!(" {:>8.3}", out.result.scaled_tracks(&base.result)));
            sp.push(base.time / out.time);
        }
        println!("{row}");
        speedups.push((c.name.clone(), sp));
    }
    println!();
    println!(
        "Figure {fno}: Speedup results of the {} pin partition algorithm",
        algo.name()
    );
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "circuit", "1 proc", "2 procs", "4 procs", "8 procs"
    );
    let mut avg = vec![0.0; procs.len()];
    for (name, sp) in &speedups {
        let mut row = format!("{:<12}", name);
        for (i, s) in sp.iter().enumerate() {
            row.push_str(&format!(" {s:>8.2}"));
            avg[i] += s / speedups.len() as f64;
        }
        println!("{row}");
    }
    let mut row = format!("{:<12}", "average");
    for a in &avg {
        row.push_str(&format!(" {a:>8.2}"));
    }
    println!("{row}");
    println!();
}

/// Table 5: the hybrid algorithm's absolute results (track count, area,
/// simulated runtime, speedup) on both platform models. A serial run
/// whose modeled working set exceeds the Paragon's 32 MB/node is marked
/// `mem>32MB` and its speedups carry a `*` (computed against the
/// simulated serial time, which the hardware could not have produced —
/// the paper extrapolated those entries the same way).
pub fn table5(opts: &Opts) {
    let cfg = cfg();
    println!("Table 5: Hybrid pin partition results on both platforms");
    opts.note_scale();
    for (machine, procs) in [
        (MachineModel::sparc_center_1000(), vec![1usize, 4, 8]),
        (MachineModel::intel_paragon(), vec![1usize, 8, 16]),
    ] {
        println!("--- {} ---", machine.name);
        println!(
            "{:<12} {:>6} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9}",
            "circuit", "procs", "tracks", "area", "time(s)", "speedup", "sc.trk", "sc.area"
        );
        for c in opts.circuits() {
            let base = serial_baseline(&c, &cfg, machine);
            let serial_fits = machine.fits_in_node(base.peak_mem);
            let star = if serial_fits { "" } else { "*" };
            // Serial row.
            println!(
                "{:<12} {:>6} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9}",
                c.name,
                1,
                base.result.track_count(),
                base.result.area(),
                if serial_fits {
                    fmt_secs(base.time)
                } else {
                    "mem>32MB".to_string()
                },
                "1.00",
                "1.000",
                "1.000"
            );
            for &p in procs.iter().skip(1) {
                let p = clamp_procs(p, &c);
                let out = route_parallel(
                    &c,
                    &cfg,
                    Algorithm::Hybrid,
                    PartitionKind::PinWeight,
                    p,
                    machine,
                );
                pgr_router::verify::assert_verified(&c, &out.result);
                let mem_note = if out.fits_memory { "" } else { "!" };
                println!(
                    "{:<12} {:>6} {:>9} {:>12} {:>9} {:>8}{}{} {:>9.3} {:>9.3}",
                    "",
                    p,
                    out.result.track_count(),
                    out.result.area(),
                    format!("{}{}", fmt_secs(out.time), mem_note),
                    format!("{:.2}", base.time / out.time),
                    star,
                    if star.is_empty() { " " } else { "" },
                    out.result.scaled_tracks(&base.result),
                    out.result.scaled_area(&base.result),
                );
            }
        }
    }
    println!(
        "(*: serial run exceeds the Paragon's 32 MB/node — speedup vs. simulated serial time)"
    );
    println!();
}

/// Big-circuit smoke: generate a synthetic circuit an order of magnitude
/// beyond the paper's largest (~200k nets at scale 1.0) and route it
/// serially, proving the chunked columnar store and the per-net sweep
/// paths hold up past the MCNC sizes. Prints the chunk count so CI can
/// gate that the chunked path (not a single degenerate chunk) was
/// exercised, and the host seconds of every phase (the route runs under
/// [`ClockMode::Wall`]) so the per-doubling growth of each phase comes
/// from one command at several `--scale`s.
pub fn big_circuit(opts: &Opts) {
    use pgr_circuit::{generate, GeneratorConfig, NET_CHUNK_SIZE};

    let nets = ((200_000f64 * opts.scale).round() as usize).max(4_000);
    let rows = ((160f64 * opts.scale.sqrt()).round() as usize).max(8);
    let clock_nets = vec![(nets / 100).max(64), (nets / 200).max(32)];
    let clock_pins: usize = clock_nets.iter().sum();
    let gen_cfg = GeneratorConfig {
        name: "big-synth".into(),
        rows,
        cells: nets.max(rows * 4),
        pins: nets * 3 + nets / 2 + clock_pins,
        nets,
        seed: SEED,
        cell_width: (4, 10),
        equivalent_fraction: 0.35,
        locality: 0.85,
        clock_nets,
    };
    let wall = std::time::Instant::now();
    let c = generate(&gen_cfg);
    let gen_secs = wall.elapsed().as_secs_f64();
    let chunks = c.nets_chunks().count();
    println!("Big-circuit smoke: chunked columnar store beyond MCNC sizes");
    println!(
        "generated nets={} pins={} cells={} rows={} chunks={} (chunk size {}) in {:.1}s",
        c.num_nets(),
        c.num_pins(),
        c.num_cells(),
        c.num_rows(),
        chunks,
        NET_CHUNK_SIZE,
        gen_secs
    );
    assert_eq!(chunks, c.num_nets().div_ceil(NET_CHUNK_SIZE));
    // Route on a wall-clocked solo communicator so every phase's host
    // seconds are measured next to the untouched virtual account.
    let cfg = RouterConfig {
        clock: ClockMode::Wall,
        ..cfg()
    };
    let instr = InstrumentConfig {
        clock: ClockMode::Wall,
        ..InstrumentConfig::off()
    };
    let machine = MachineModel::sparc_center_1000();
    let (report, _, _) = pgr_mpi::run_instrumented(1, machine, instr, |comm| {
        pgr_router::route_serial(&c, &cfg, comm)
    });
    let (result, stats) = (&report.results[0], &report.stats[0]);
    pgr_router::verify::assert_verified(&c, result);
    let wall = stats
        .wall
        .as_ref()
        .expect("wall seconds measured in Wall mode");
    println!(
        "routed serially: tracks={} wirelength={} feedthroughs={} simulated {} (wall {:.1}s), verified",
        result.track_count(),
        result.wirelength,
        result.feedthroughs,
        fmt_secs(stats.time),
        wall.time
    );
    let phases: Vec<String> = stats
        .phases
        .iter()
        .zip(&wall.phases)
        .map(|((name, _), secs)| format!("{name}={secs:.3}s"))
        .collect();
    println!("host seconds per phase: {}", phases.join(" "));
    println!();
}

/// §5 ablation: the four net-partition heuristics under the net-wise
/// algorithm (and the hybrid's connection phase), on the clock-heavy
/// avq.large instance where pin-number-weight matters most.
pub fn partition_ablation(opts: &Opts) {
    let cfg = cfg();
    let machine = MachineModel::sparc_center_1000();
    println!("Net-partition heuristic ablation (8 procs, SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<12} {:<12} {:>10} {:>9} {:>9}",
        "circuit", "partition", "sc.tracks", "time(s)", "speedup"
    );
    for c in opts.circuits() {
        let base = serial_baseline(&c, &cfg, machine);
        for kind in PartitionKind::ALL {
            let p = clamp_procs(8, &c);
            let out = route_parallel(&c, &cfg, Algorithm::NetWise, kind, p, machine);
            println!(
                "{:<12} {:<12} {:>10.3} {:>9} {:>9.2}",
                c.name,
                kind.name(),
                out.result.scaled_tracks(&base.result),
                fmt_secs(out.time),
                base.time / out.time
            );
        }
    }
    println!();
}

/// Beyond the paper: the net-wise quality/runtime trade-off as the
/// synchronization period varies (§5 discusses it qualitatively).
pub fn sync_sweep(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    println!("Net-wise synchronization-period sweep (8 procs, SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<12} {:>8} {:>10} {:>9} {:>9}",
        "circuit", "period", "sc.tracks", "time(s)", "speedup"
    );
    for c in opts.circuits() {
        let base = serial_baseline(&c, &cfg(), machine);
        for period in [16usize, 64, 256, 1024, 8192] {
            let mut cfg = cfg();
            cfg.sync_period = period;
            let p = clamp_procs(8, &c);
            let out = route_parallel(
                &c,
                &cfg,
                Algorithm::NetWise,
                PartitionKind::PinWeight,
                p,
                machine,
            );
            println!(
                "{:<12} {:>8} {:>10.3} {:>9} {:>9.2}",
                c.name,
                period,
                out.result.scaled_tracks(&base.result),
                fmt_secs(out.time),
                base.time / out.time
            );
        }
    }
    println!();
}

/// Beyond the paper: the reproduction's synchronization-protocol
/// ablation. The paper's net-wise quality loss is reproduced by (a) the
/// coarse replicated grid every rank keeps and (b) lossy
/// snapshot-overwrite conflict resolution; exact delta merging over a
/// full-resolution replica (impossible to afford in 1997, trivial today)
/// removes most of the quality loss while the communication bill — and
/// hence the poor speedup — remains.
pub fn exact_sync_ablation(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    println!("Net-wise synchronization-protocol ablation (8 procs, SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<12} {:<22} {:>10} {:>9} {:>9}",
        "circuit", "protocol", "sc.tracks", "time(s)", "speedup"
    );
    for c in opts.circuits() {
        let base = serial_baseline(&c, &cfg(), machine);
        for (label, exact, factor) in [
            ("1997 snapshot (paper)", false, 8),
            ("exact deltas, coarse", true, 8),
            ("exact deltas, full-res", true, 1),
        ] {
            let mut cfg = cfg();
            cfg.netwise_exact_sync = exact;
            cfg.netwise_grid_factor = factor;
            let p = clamp_procs(8, &c);
            let out = route_parallel(
                &c,
                &cfg,
                Algorithm::NetWise,
                PartitionKind::PinWeight,
                p,
                machine,
            );
            println!(
                "{:<12} {:<22} {:>10.3} {:>9} {:>9.2}",
                c.name,
                label,
                out.result.scaled_tracks(&base.result),
                fmt_secs(out.time),
                base.time / out.time
            );
        }
    }
    println!();
}

/// Beyond the paper: the communication matrix (KB sent per src→dst
/// pair) of each algorithm at 8 ranks — making the partition structure
/// visible: row-wise/hybrid talk mostly to rank 0 (distribution/gather)
/// and their row neighbors; net-wise hammers everyone (all channels are
/// shared).
pub fn comm_matrix(opts: &Opts) {
    use pgr_mpi::run;
    println!("Communication matrices (KB sent, src rows × dst columns, 8 ranks)");
    opts.note_scale();
    for c in opts.circuits() {
        let p = clamp_procs(8, &c);
        for algo in Algorithm::ALL {
            let report = run(p, MachineModel::sparc_center_1000(), |comm| {
                algo.route(&c, &cfg(), PartitionKind::PinWeight, comm);
            });
            let m = report.comm_matrix();
            println!("{} / {}:", c.name, algo.name());
            print!("{:>8}", "src\\dst");
            for d in 0..p {
                print!(" {d:>7}");
            }
            println!();
            for (s, row) in m.iter().enumerate() {
                print!("{s:>8}");
                for &b in row {
                    print!(" {:>7}", b / 1024);
                }
                println!();
            }
        }
    }
    println!();
}

/// Extension ablation: median-point Steiner refinement of the step-1
/// trees (off in the paper's TWGR). Reports serial wirelength / track /
/// runtime deltas, and the refined flow's hybrid speedup.
pub fn steiner_ablation(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    println!("Steiner-refinement ablation (serial, and hybrid at 8 procs)");
    opts.note_scale();
    println!(
        "{:<12} {:<8} {:>12} {:>9} {:>10} {:>12} {:>10}",
        "circuit", "steiner", "wirelength", "tracks", "serial(s)", "hybrid sc.trk", "hybrid spd"
    );
    for c in opts.circuits() {
        for refine in [false, true] {
            let mut cfg = cfg();
            cfg.steiner_refine = refine;
            let base = serial_baseline(&c, &cfg, machine);
            let p = clamp_procs(8, &c);
            let out = route_parallel(
                &c,
                &cfg,
                Algorithm::Hybrid,
                PartitionKind::PinWeight,
                p,
                machine,
            );
            println!(
                "{:<12} {:<8} {:>12} {:>9} {:>10} {:>12.3} {:>10.2}",
                c.name,
                if refine { "median" } else { "plain" },
                base.result.wirelength,
                base.result.track_count(),
                fmt_secs(base.time),
                out.result.scaled_tracks(&base.result),
                base.time / out.time,
            );
        }
    }
    println!();
}

/// Beyond the paper: run the left-edge detailed channel router over the
/// serial global solution, proving each channel packs into its density
/// (the theorem the paper's track metric stands on) and quantifying the
/// small refinement same-net merging buys.
pub fn detailed_refinement(opts: &Opts) {
    use pgr_router::detailed::route_channels;
    println!("Detailed (left-edge) channel routing vs. the density metric (serial solutions)");
    opts.note_scale();
    println!(
        "{:<12} {:>12} {:>12} {:>9} {:>12}",
        "circuit", "density Σ", "LEA tracks", "ratio", "utilization"
    );
    for c in opts.circuits() {
        let base = serial_baseline(&c, &cfg(), MachineModel::ideal());
        let d = route_channels(&base.result);
        assert!(d.validate(), "no shorts");
        println!(
            "{:<12} {:>12} {:>12} {:>9.3} {:>12.3}",
            c.name,
            base.result.track_count(),
            d.track_count(),
            d.track_count() as f64 / base.result.track_count() as f64,
            d.mean_utilization()
        );
    }
    println!();
}

/// Beyond the paper: per-phase virtual-time breakdown (serial and each
/// algorithm's slowest rank at 8 procs). Shows where each algorithm's
/// time goes — coarse routing dominates serially; the net-wise sync cost
/// lands in its coarse/switchable phases.
pub fn phase_breakdown(opts: &Opts) {
    use pgr_mpi::run_instrumented;
    let machine = MachineModel::sparc_center_1000();
    let cfg = cfg();
    println!("Per-phase virtual time (seconds; slowest rank at 8 procs)");
    opts.note_scale();
    print!("{:<12} {:<10}", "circuit", "algorithm");
    for p in pgr_obs::Phase::ALL {
        print!(" {:>11}", p.name());
    }
    println!(" {:>11}", "total");
    type PhaseRow = (String, Vec<(&'static str, f64)>, f64);
    let emit = |label: &str,
                run: &RunMeta,
                traces: &[RankTrace],
                stats: &[RankStats],
                metrics: &[RankMetrics]| {
        if let Some(dir) = &opts.trace_out {
            match write_traces(dir, label, traces, stats, &machine, run, metrics) {
                Ok(path) => eprintln!("trace written: {}", path.display()),
                Err(e) => eprintln!("trace write failed for {label}: {e}"),
            }
        }
    };
    for c in opts.circuits() {
        let mut rows: Vec<PhaseRow> = Vec::new();
        let (serial_report, serial_traces, serial_metrics) =
            run_instrumented(1, machine, opts.instrument(), |comm| {
                pgr_router::route_serial(&c, &cfg, comm);
            });
        emit(
            &format!("{}_serial", c.name),
            &opts.run_meta(&c.name, "serial", 1, &machine),
            &serial_traces,
            &serial_report.stats,
            &serial_metrics,
        );
        rows.push((
            "serial".into(),
            serial_report.stats[0].phases.clone(),
            serial_report.stats[0].time,
        ));
        for algo in Algorithm::ALL {
            let p = clamp_procs(8, &c);
            let (report, traces, metrics) =
                run_instrumented(p, machine, opts.instrument(), |comm| {
                    algo.route(&c, &cfg, PartitionKind::PinWeight, comm);
                });
            emit(
                &format!("{}_{}", c.name, algo.name()),
                &opts.run_meta(&c.name, algo.name(), p, &machine),
                &traces,
                &report.stats,
                &metrics,
            );
            let slowest = report
                .stats
                .iter()
                .max_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"))
                .expect("ranks");
            rows.push((algo.name().into(), slowest.phases.clone(), slowest.time));
        }
        for (name, phases, total) in rows {
            print!("{:<12} {:<10}", c.name, name);
            for want in pgr_obs::Phase::ALL {
                let d: f64 = phases
                    .iter()
                    .filter(|(n, _)| *n == want.name())
                    .map(|(_, d)| d)
                    .sum();
                print!(" {:>11}", fmt_secs(d));
            }
            println!(" {:>11}", fmt_secs(total));
        }
    }
    println!();
}

/// Beyond the paper: wall-clock execution mode. All four drivers run
/// with [`ClockMode::Wall`] — ranks run free, real host time is measured
/// from one shared epoch — and the table reports the deterministic
/// virtual seconds *and* the measured wall seconds side by side. Routing
/// never reads either clock, so results (and the virtual account) are
/// bit-identical to a virtual-mode run; the wall column is what this
/// host actually did. With `--trace-out` each run's stats are stamped
/// `"clock":"wall"` and carry per-rank/per-phase wall seconds.
pub fn wall_clock(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    let cfg = RouterConfig {
        clock: ClockMode::Wall,
        ..cfg()
    };
    println!("Wall-clock mode: virtual vs. host seconds, all four drivers (SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<12} {:<10} {:>2} {:>12} {:>12} {:>8}",
        "circuit", "algorithm", "P", "virtual(s)", "wall(s)", "tracks"
    );
    let emit = |label: &str,
                run: &mut RunMeta,
                traces: &[RankTrace],
                stats: &[RankStats],
                metrics: &[RankMetrics]| {
        if let Some(dir) = &opts.trace_out {
            run.clock = "wall".into();
            if let Err(e) = write_traces(dir, label, traces, stats, &machine, run, metrics) {
                eprintln!("trace write failed for {label}: {e}");
            }
        }
    };
    for c in opts.circuits() {
        // Serial driver on a wall-clocked solo communicator.
        let instr = InstrumentConfig {
            clock: ClockMode::Wall,
            ..opts.instrument()
        };
        let (report, traces, metrics) = pgr_mpi::run_instrumented(1, machine, instr, |comm| {
            pgr_router::route_serial(&c, &cfg, comm)
        });
        let serial = &report.stats[0];
        let wall = report
            .wall_makespan()
            .expect("wall seconds measured in Wall mode");
        println!(
            "{:<12} {:<10} {:>2} {:>12} {:>12.3} {:>8}",
            c.name,
            "serial",
            1,
            fmt_secs(serial.time),
            wall,
            report.results[0].track_count(),
        );
        emit(
            &format!("{}_serial_wall", c.name),
            &mut opts.run_meta(&c.name, "serial", 1, &machine),
            &traces,
            &report.stats,
            &metrics,
        );
        // The three parallel drivers, clock threaded via RouterConfig.
        for algo in Algorithm::ALL {
            let p = clamp_procs(8, &c);
            let out = route_parallel_instrumented(
                &c,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                p,
                machine,
                opts.instrument(),
            );
            pgr_router::verify::assert_verified(&c, &out.result);
            let wall = out.wall_time.expect("wall seconds measured in Wall mode");
            println!(
                "{:<12} {:<10} {:>2} {:>12} {:>12.3} {:>8}",
                c.name,
                algo.name(),
                p,
                fmt_secs(out.time),
                wall,
                out.result.track_count(),
            );
            emit(
                &format!("{}_{}_wall_p{p}", c.name, algo.name()),
                &mut opts.run_meta(&c.name, algo.name(), p, &machine),
                &out.traces,
                &out.stats,
                &out.metrics,
            );
        }
    }
    println!(
        "(virtual seconds are the deterministic simulated account; wall seconds are this host)"
    );
    println!();
}

/// §5's β knob: the pin-number-weight exponent, swept on the
/// clock-net-heavy circuits where it matters ("our experiments shows
/// that this technique works well for β≈… for AVQ-LARGE").
pub fn beta_sweep(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    println!("Pin-number-weight β sweep (hybrid, 8 procs, SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<12} {:>6} {:>10} {:>9} {:>9}",
        "circuit", "beta", "sc.tracks", "time(s)", "speedup"
    );
    for c in opts.circuits() {
        let base = serial_baseline(&c, &cfg(), machine);
        for beta in [0.5, 1.0, 1.6, 2.0, 3.0] {
            let mut cfg = cfg();
            cfg.pin_weight_beta = beta;
            let p = clamp_procs(8, &c);
            let out = route_parallel(
                &c,
                &cfg,
                Algorithm::Hybrid,
                PartitionKind::PinWeight,
                p,
                machine,
            );
            println!(
                "{:<12} {:>6.1} {:>10.3} {:>9} {:>9.2}",
                c.name,
                beta,
                out.result.scaled_tracks(&base.result),
                fmt_secs(out.time),
                base.time / out.time
            );
        }
    }
    println!();
}

/// Beyond the paper: speedup sensitivity to the machine's latency and
/// bandwidth (8 procs). The hybrid algorithm barely notices the network
/// (it is compute-bound); the net-wise algorithm's all-channel
/// synchronization makes it acutely bandwidth-sensitive — quantifying
/// the paper's "communication is more costly than computation".
pub fn machine_sweep(opts: &Opts) {
    println!("Machine-model sensitivity of speedup (8 procs)");
    opts.note_scale();
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>12}",
        "circuit", "latency", "bandwidth", "hybrid", "net-wise"
    );
    for c in opts.circuits() {
        for lat_us in [20.0, 500.0] {
            for bw_mb in [2.0, 18.0, 200.0] {
                let mut m = MachineModel::sparc_center_1000();
                m.latency = lat_us * 1e-6;
                m.sec_per_byte = 1.0 / (bw_mb * 1e6);
                let base = serial_baseline(&c, &cfg(), m);
                let p = clamp_procs(8, &c);
                let hybrid = route_parallel(
                    &c,
                    &cfg(),
                    Algorithm::Hybrid,
                    PartitionKind::PinWeight,
                    p,
                    m,
                );
                let netwise = route_parallel(
                    &c,
                    &cfg(),
                    Algorithm::NetWise,
                    PartitionKind::PinWeight,
                    p,
                    m,
                );
                println!(
                    "{:<12} {:>8}us {:>10}MB/s {:>12.2} {:>12.2}",
                    c.name,
                    lat_us,
                    bw_mb,
                    base.time / hybrid.time,
                    base.time / netwise.time
                );
            }
        }
    }
    println!();
}

/// Beyond the paper: chaos smoke — every algorithm routed under a seeded
/// fault schedule (drop + delay + reorder + duplicate + corruption) with
/// the reliable transport on, plus the highest rank killed at a phase
/// boundary. Each degraded result is verified against the circuit; the
/// table shows the protocol effort (retransmits, reorder-buffer fills,
/// suppressed duplicates, corrupt frames healed) and the recovery
/// accounting (rounds survived, ranks lost). A second, kill-heavy pass
/// per circuit runs hybrid under a one-round [`RecoveryPolicy`], forcing
/// the serial fallback — degraded, stamped in the stats, and
/// auto-verified. With `--trace-out` the per-run artifacts are written
/// under `<circuit>_<algo>_chaos_p<P>` / `<circuit>_hybrid_fallback_p<P>`
/// labels with algorithms `"<name>-chaos"` / `"hybrid-fallback"`, so
/// `repro aggregate` can trend robustness separately from the clean
/// runs.
///
/// The schedule and the recovery policy are overridable from the CLI:
/// `--kill R@B` (repeatable) replaces the default one-kill schedule,
/// `--max-rounds` / `--min-ranks` override the [`RecoveryPolicy`]
/// bounds. The printed `redone` / `restore` columns expose the
/// checkpoint-resume accounting (`recovery.redone_phases`,
/// `recovery.checkpoint.restores`): a resumed round redoes only the
/// phases past the agreed boundary, a full restart redoes them all.
pub fn chaos_smoke(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    let default_policy = RecoveryPolicy::default();
    let policy = RecoveryPolicy {
        max_rounds: opts.max_rounds.unwrap_or(default_policy.max_rounds),
        min_ranks: opts.min_ranks.unwrap_or(default_policy.min_ranks),
    };
    let cfg = RouterConfig {
        recovery: policy,
        ..cfg()
    };
    println!("Chaos smoke: message faults + rank kills, reliable transport on");
    opts.note_scale();
    println!(
        "{:<12} {:<10} {:>2} {:>6} {:>8} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6} {:>7} {:>8}",
        "circuit",
        "algorithm",
        "P",
        "killed",
        "tracks",
        "retran",
        "reord",
        "dup",
        "corrupt",
        "recovery",
        "lost",
        "redone",
        "restore"
    );
    for c in opts.circuits() {
        let p = clamp_procs(4, &c);
        for &(rank, _) in &opts.kills {
            if rank >= p {
                eprintln!(
                    "repro: --kill rank {rank} is out of range for circuit {} (P = {p})",
                    c.name
                );
                std::process::exit(2);
            }
        }
        for algo in Algorithm::ALL {
            let mut chaos = ChaosConfig::messages_with_corruption(SEED);
            // Default schedule: the highest rank dies entering its third
            // phase; the survivors restore its coarse-boundary snapshot
            // and resume on P-1. `--kill` replaces the schedule wholesale.
            if p > 1 {
                chaos.kills = if opts.kills.is_empty() {
                    vec![(p - 1, 2)]
                } else {
                    opts.kills.iter().map(|&(r, b)| (r, b as u64)).collect()
                };
            }
            let killed = if chaos.kills.is_empty() {
                "-".to_string()
            } else {
                chaos
                    .kills
                    .iter()
                    .map(|(r, _)| r.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            };
            let instr = InstrumentConfig {
                metrics: MetricsConfig::on(),
                fault: Some(Arc::new(ChaosLayer::new(chaos))),
                reliability: ReliabilityConfig::on(),
                ..opts.instrument()
            };
            let out = route_parallel_instrumented(
                &c,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                p,
                machine,
                instr,
            );
            pgr_router::verify::assert_verified(&c, &out.result);
            let sum =
                |name: &str| -> u64 { out.metrics.iter().filter_map(|m| m.counter(name)).sum() };
            println!(
                "{:<12} {:<10} {:>2} {:>6} {:>8} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6} {:>7} {:>8}",
                c.name,
                algo.name(),
                p,
                killed,
                out.result.track_count(),
                sum(pgr_mpi::reliable::RETRANSMITS),
                sum(pgr_mpi::reliable::REORDER_BUFFERED),
                sum(pgr_mpi::reliable::DUPLICATES_DROPPED),
                sum(pgr_mpi::reliable::CORRUPT_DROPPED),
                sum(pgr_router::metrics::names::RECOVERY_EVENTS),
                sum(pgr_router::metrics::names::RANKS_LOST),
                sum(recovery_names::REDONE_PHASES),
                sum(recovery_names::CHECKPOINT_RESTORES),
            );
            if let Some(dir) = &opts.trace_out {
                let label = format!("{}_{}_chaos_p{p}", c.name, algo.name());
                let run = opts.run_meta(&c.name, &format!("{}-chaos", algo.name()), p, &machine);
                if let Err(e) = write_traces(
                    dir,
                    &label,
                    &out.traces,
                    &out.stats,
                    &machine,
                    &run,
                    &out.metrics,
                ) {
                    eprintln!("trace write failed for {label}: {e}");
                }
            }
        }

        // Kill-heavy pass: the same schedule under a one-round recovery
        // budget breaches the policy, so the run must finish via the
        // serial fallback — degraded, stamped, and auto-verified.
        if p > 1 {
            let mut chaos = ChaosConfig::messages_with_corruption(SEED);
            chaos.kills = vec![(p - 1, 1)];
            let fallback_cfg = RouterConfig {
                recovery: RecoveryPolicy {
                    max_rounds: 1,
                    min_ranks: 1,
                },
                ..cfg.clone()
            };
            let instr = InstrumentConfig {
                metrics: MetricsConfig::on(),
                fault: Some(Arc::new(ChaosLayer::new(chaos))),
                reliability: ReliabilityConfig::on(),
                ..opts.instrument()
            };
            let out = route_parallel_instrumented(
                &c,
                &fallback_cfg,
                Algorithm::Hybrid,
                PartitionKind::PinWeight,
                p,
                machine,
                instr,
            );
            assert!(out.degraded, "{}: the one-round budget must breach", c.name);
            pgr_router::verify::assert_verified(&c, &out.result);
            let sum =
                |name: &str| -> u64 { out.metrics.iter().filter_map(|m| m.counter(name)).sum() };
            println!(
                "{:<12} {:<10} {:>2} {:>6} {:>8} {:>7} {:>7} {:>7} {:>7} {:>8} {:>6} {:>7} {:>8}  (serial fallback, verified)",
                c.name,
                "fallback",
                p,
                p - 1,
                out.result.track_count(),
                sum(pgr_mpi::reliable::RETRANSMITS),
                sum(pgr_mpi::reliable::REORDER_BUFFERED),
                sum(pgr_mpi::reliable::DUPLICATES_DROPPED),
                sum(pgr_mpi::reliable::CORRUPT_DROPPED),
                sum(pgr_router::metrics::names::RECOVERY_EVENTS),
                sum(pgr_router::metrics::names::RANKS_LOST),
                sum(recovery_names::REDONE_PHASES),
                sum(recovery_names::CHECKPOINT_RESTORES),
            );
            if let Some(dir) = &opts.trace_out {
                let label = format!("{}_hybrid_fallback_p{p}", c.name);
                let mut run = opts.run_meta(&c.name, "hybrid-fallback", p, &machine);
                run.degraded = out.degraded;
                if let Err(e) = write_traces(
                    dir,
                    &label,
                    &out.traces,
                    &out.stats,
                    &machine,
                    &run,
                    &out.metrics,
                ) {
                    eprintln!("trace write failed for {label}: {e}");
                }
            }
        }
    }
    println!();
}

/// One stress-matrix cell's observed result, compared bit-for-bit
/// across the determinism re-run.
#[derive(Debug, Clone, PartialEq)]
struct StressCell {
    /// `routed` | `degraded` | `budget_exceeded` | `panic`.
    outcome: &'static str,
    /// Track count of a completed route (None on error/panic).
    tracks: Option<i64>,
    /// Virtual makespan bits (0 on panic).
    time_bits: u64,
    /// Breach / shed / recovery detail for the table.
    note: String,
}

/// Budget lever applied to one stress cell. `Time` and `Mem` are
/// derived from the family's own unbudgeted serial probe, so the matrix
/// self-calibrates across scales; `Rounds` arms
/// [`pgr_mpi::ResourceBudget::max_recovery_rounds`] `= 0` under a kill
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StressBudget {
    Unlimited,
    Time,
    Mem,
    Rounds,
}

impl StressBudget {
    fn name(self) -> &'static str {
        match self {
            StressBudget::Unlimited => "unlimited",
            StressBudget::Time => "time",
            StressBudget::Mem => "mem",
            StressBudget::Rounds => "rounds",
        }
    }

    /// Materialize against the family's serial probe.
    fn materialize(self, probe: &StressProbe) -> pgr_mpi::ResourceBudget {
        let mut b = pgr_mpi::ResourceBudget::unlimited();
        match self {
            StressBudget::Unlimited => {}
            StressBudget::Time => b.max_phase_seconds = Some(probe.time_limit),
            StressBudget::Mem => b.max_rank_bytes = Some((probe.peak_mem / 2).max(1)),
            StressBudget::Rounds => b.max_recovery_rounds = Some(0),
        }
        b
    }
}

/// One family's unbudgeted serial probe: the self-calibration every
/// budget lever of its row block derives from.
struct StressProbe {
    peak_mem: u64,
    /// The per-phase time lever. When the optional coarse phase is the
    /// slowest phase of the probe, the lever lands midway between it and
    /// the slowest mandatory phase — mandatory phases fit, coarse
    /// overruns and *sheds*, and the run completes `budget_degraded`.
    /// On families whose mandatory work dominates, the lever falls back
    /// to a third of the total, and the overrun lands in a mandatory
    /// phase as the structured hard breach.
    time_limit: f64,
}

fn stress_probe(circuit: &Circuit, cfg: &RouterConfig, machine: MachineModel) -> StressProbe {
    let (report, _, _) = pgr_mpi::run_instrumented(1, machine, InstrumentConfig::off(), |comm| {
        let result = pgr_router::route_serial(circuit, cfg, comm);
        pgr_router::verify::assert_verified(circuit, &result);
    });
    let s = &report.stats[0];
    let phase_secs = |name: &str| -> f64 {
        s.phases
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| d)
            .sum()
    };
    let coarse = phase_secs("coarse");
    let mandatory_max = s
        .phases
        .iter()
        .filter(|(n, _)| *n != "coarse" && *n != "switchable")
        .map(|(_, d)| *d)
        .fold(0.0f64, f64::max);
    let time_limit = if coarse > mandatory_max && mandatory_max > 0.0 {
        (mandatory_max + coarse) / 2.0
    } else {
        s.time / 3.0
    };
    StressProbe {
        peak_mem: s.peak_mem,
        time_limit,
    }
}

/// Chaos schedule applied to one stress cell (parallel cells only).
#[derive(Debug, Clone, Copy, PartialEq)]
enum StressChaos {
    None,
    Messages,
    Kill,
}

impl StressChaos {
    fn name(self) -> &'static str {
        match self {
            StressChaos::None => "none",
            StressChaos::Messages => "messages",
            StressChaos::Kill => "kill",
        }
    }
}

/// `repro stress`: the adversarial workload × chaos × algorithm matrix.
///
/// Every [`pgr_circuit::scenarios::ScenarioFamily`] (or the `--family`
/// subset) is generated at `--scale`, probed once serially without
/// limits, and then driven through every driver under budget levers
/// derived from its own probe and under seeded chaos schedules. Each
/// cell ends in a structured outcome — `routed`, `degraded` (completed
/// by shedding refinement or by the recovery fallback, verified), or
/// `budget_exceeded` (the agreed [`pgr_router::RouteError`]) — and is
/// run twice: any bitwise divergence between the two runs, any panic,
/// or a full matrix that fails to exhibit all three outcomes (including
/// a congestion-stress shed) exits non-zero. With `--trace-out` every
/// cell's stats/metrics artifacts are stamped with the self-describing
/// scenario name and the `budget_degraded` flag, so `repro aggregate`
/// can trend shed rates.
pub fn stress(opts: &Opts) {
    use pgr_circuit::scenarios::{ScenarioFamily, ScenarioSpec};
    use pgr_router::RouteError;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let machine = MachineModel::sparc_center_1000();
    let families: Vec<ScenarioFamily> = match &opts.families {
        None => ScenarioFamily::ALL.to_vec(),
        Some(names) => names
            .iter()
            .map(|n| ScenarioFamily::from_name(n).expect("validated at parse time"))
            .collect(),
    };
    let full_matrix = opts.families.is_none();
    println!("Stress matrix: adversarial workloads × chaos × drivers (SparcCenter model)");
    opts.note_scale();
    println!(
        "{:<20} {:<9} {:>2} {:<9} {:<10} {:<16} {:>7}  detail",
        "family", "algorithm", "P", "chaos", "budget", "outcome", "tracks"
    );

    let mut panics = 0usize;
    let mut divergent = 0usize;
    let mut seen_routed = false;
    let mut seen_degraded = false;
    let mut seen_exceeded = false;
    let mut congestion_shed = false;

    for family in families {
        let spec = ScenarioSpec::new(family, opts.scale, SEED);
        let circuit = spec.generate();
        circuit
            .validate()
            .unwrap_or_else(|e| panic!("{}: generated circuit invalid: {e:?}", spec.name()));
        let probe = stress_probe(&circuit, &cfg(), machine);
        let p = clamp_procs(3, &circuit);

        // (algorithm, procs, chaos, budget) cells of this family's row
        // block. Serial takes the budget levers without chaos; every
        // parallel driver takes budgets, message chaos, and — where the
        // clamped world is big enough to lose a rank — kill chaos with
        // the recovery-round budget.
        let mut cells: Vec<(Option<Algorithm>, usize, StressChaos, StressBudget)> = vec![
            (None, 1, StressChaos::None, StressBudget::Unlimited),
            (None, 1, StressChaos::None, StressBudget::Time),
            (None, 1, StressChaos::None, StressBudget::Mem),
        ];
        for algo in Algorithm::ALL {
            for budget in [
                StressBudget::Unlimited,
                StressBudget::Time,
                StressBudget::Mem,
            ] {
                cells.push((Some(algo), p, StressChaos::None, budget));
            }
            for budget in [StressBudget::Unlimited, StressBudget::Time] {
                cells.push((Some(algo), p, StressChaos::Messages, budget));
            }
            if p > 1 {
                cells.push((Some(algo), p, StressChaos::Kill, StressBudget::Unlimited));
                cells.push((Some(algo), p, StressChaos::Kill, StressBudget::Rounds));
            }
        }

        for (algo, p, chaos, budget) in cells {
            let algo_name = algo.map_or("serial", |a| a.name());
            let run_cell = |write_artifacts: bool| -> StressCell {
                let cfg = RouterConfig {
                    budget: budget.materialize(&probe),
                    ..cfg()
                };
                match algo {
                    None => {
                        // Instrumented even though it is one rank: the
                        // serial time lever is the cell that actually
                        // sheds (parallel gate collectives resync every
                        // boundary), so its dumps carry the shed-rate
                        // series the aggregator trends.
                        let instr = InstrumentConfig {
                            metrics: MetricsConfig::on(),
                            ..opts.instrument()
                        };
                        let (report, traces, metrics) =
                            pgr_mpi::run_instrumented(1, machine, instr, |comm| {
                                let routed = pgr_router::try_route_serial(&circuit, &cfg, comm);
                                let shed = comm.budget_shed_any();
                                let time = comm.now();
                                (routed, shed, time)
                            });
                        let (routed, shed, time) =
                            report.results.into_iter().next().expect("one rank");
                        if write_artifacts {
                            if let Some(dir) = &opts.trace_out {
                                let label = format!(
                                    "stress_{}_serial_none_{}_p1",
                                    family.name(),
                                    budget.name()
                                );
                                let mut run = opts.run_meta(&circuit.name, "serial", 1, &machine);
                                run.scenario = format!("{}/none/{}", spec.name(), budget.name());
                                run.budget_degraded = shed;
                                if let Err(e) = write_traces(
                                    dir,
                                    &label,
                                    &traces,
                                    &report.stats,
                                    &machine,
                                    &run,
                                    &metrics,
                                ) {
                                    eprintln!("trace write failed for {label}: {e}");
                                }
                            }
                        }
                        match routed {
                            Ok(result) => {
                                pgr_router::verify::assert_verified(&circuit, &result);
                                StressCell {
                                    outcome: if shed { "degraded" } else { "routed" },
                                    tracks: Some(result.track_count()),
                                    time_bits: time.to_bits(),
                                    note: if shed {
                                        "shed refinement".into()
                                    } else {
                                        String::new()
                                    },
                                }
                            }
                            Err(e @ RouteError::BudgetExceeded { .. }) => StressCell {
                                outcome: "budget_exceeded",
                                tracks: None,
                                time_bits: time.to_bits(),
                                note: e.to_string(),
                            },
                        }
                    }
                    Some(algo) => {
                        let mut instr = InstrumentConfig {
                            metrics: MetricsConfig::on(),
                            ..opts.instrument()
                        };
                        match chaos {
                            StressChaos::None => {}
                            StressChaos::Messages => {
                                let chaos = ChaosConfig::messages_with_corruption(SEED);
                                instr.fault = Some(Arc::new(ChaosLayer::new(chaos)));
                                instr.reliability = ReliabilityConfig::on();
                            }
                            StressChaos::Kill => {
                                // Kills only: zero out the message faults
                                // so the cell isolates the recovery path.
                                let mut chaos = ChaosConfig::messages_only(SEED);
                                chaos.drop = 0.0;
                                chaos.reorder = 0.0;
                                chaos.duplicate = 0.0;
                                chaos.delay = 0.0;
                                chaos.kills = vec![(p - 1, 2)];
                                instr.fault = Some(Arc::new(ChaosLayer::new(chaos)));
                                instr.reliability = ReliabilityConfig::on();
                            }
                        }
                        let out = pgr_router::route_parallel_guarded(
                            &circuit,
                            &cfg,
                            algo,
                            PartitionKind::PinWeight,
                            p,
                            machine,
                            instr,
                        );
                        if write_artifacts {
                            if let Some(dir) = &opts.trace_out {
                                let label = format!(
                                    "stress_{}_{}_{}_{}_p{p}",
                                    family.name(),
                                    algo.name(),
                                    chaos.name(),
                                    budget.name()
                                );
                                let mut run =
                                    opts.run_meta(&circuit.name, algo.name(), p, &machine);
                                // The cell coordinates ride in the
                                // scenario stamp: every other RunMeta
                                // field is shared across this family's
                                // budget/chaos cells, and the aggregator
                                // keys records by it.
                                run.scenario =
                                    format!("{}/{}/{}", spec.name(), chaos.name(), budget.name());
                                run.degraded = out.degraded;
                                run.budget_degraded = out.budget_degraded;
                                if let Err(e) = write_traces(
                                    dir,
                                    &label,
                                    &out.traces,
                                    &out.stats,
                                    &machine,
                                    &run,
                                    &out.metrics,
                                ) {
                                    eprintln!("trace write failed for {label}: {e}");
                                }
                            }
                        }
                        match out.result {
                            Ok(result) => {
                                pgr_router::verify::assert_verified(&circuit, &result);
                                let degraded = out.degraded || out.budget_degraded;
                                let mut notes = Vec::new();
                                if out.budget_degraded {
                                    notes.push("shed refinement");
                                }
                                if out.degraded {
                                    notes.push("serial fallback");
                                }
                                if chaos == StressChaos::Kill && !out.degraded {
                                    notes.push("recovered");
                                }
                                StressCell {
                                    outcome: if degraded { "degraded" } else { "routed" },
                                    tracks: Some(result.track_count()),
                                    time_bits: out.time.to_bits(),
                                    note: notes.join(", "),
                                }
                            }
                            Err(e @ RouteError::BudgetExceeded { .. }) => StressCell {
                                outcome: "budget_exceeded",
                                tracks: None,
                                time_bits: out.time.to_bits(),
                                note: e.to_string(),
                            },
                        }
                    }
                }
            };

            let first = catch_unwind(AssertUnwindSafe(|| run_cell(true)));
            let second = catch_unwind(AssertUnwindSafe(|| run_cell(false)));
            let cell = match (&first, &second) {
                (Ok(a), Ok(b)) => {
                    if a != b {
                        divergent += 1;
                        eprintln!(
                            "stress: NONDETERMINISTIC cell {} {} {} {}: {a:?} vs {b:?}",
                            spec.name(),
                            algo_name,
                            chaos.name(),
                            budget.name()
                        );
                    }
                    a.clone()
                }
                _ => {
                    panics += 1;
                    StressCell {
                        outcome: "panic",
                        tracks: None,
                        time_bits: 0,
                        note: "routing panicked — see stderr".into(),
                    }
                }
            };
            match cell.outcome {
                "routed" => seen_routed = true,
                "degraded" => {
                    seen_degraded = true;
                    if family == ScenarioFamily::CongestionStress && budget == StressBudget::Time {
                        congestion_shed = true;
                    }
                }
                "budget_exceeded" => seen_exceeded = true,
                _ => {}
            }
            println!(
                "{:<20} {:<9} {:>2} {:<9} {:<10} {:<16} {:>7}  {}",
                family.name(),
                algo_name,
                p,
                chaos.name(),
                budget.name(),
                cell.outcome,
                cell.tracks.map_or("-".to_string(), |t| t.to_string()),
                cell.note
            );
        }
    }

    let mut failures = Vec::new();
    if panics > 0 {
        failures.push(format!("{panics} cell(s) panicked"));
    }
    if divergent > 0 {
        failures.push(format!("{divergent} cell(s) were nondeterministic"));
    }
    if full_matrix {
        if !seen_routed {
            failures.push("no cell routed cleanly".into());
        }
        if !seen_degraded {
            failures.push("no cell degraded gracefully".into());
        }
        if !seen_exceeded {
            failures.push("no cell reported a structured budget error".into());
        }
        if !congestion_shed {
            failures.push("congestion-stress never shed under the time budget".into());
        }
    }
    if failures.is_empty() {
        println!("stress matrix clean: every cell structured, deterministic, panic-free");
        println!();
    } else {
        for f in &failures {
            eprintln!("stress matrix FAILED: {f}");
        }
        std::process::exit(1);
    }
}

/// `repro profile`: cross-rank causal profiles — critical-path
/// extraction and makespan blame attribution for every driver.
///
/// Runs the serial driver at P = 1 and the three parallel algorithms at
/// P ∈ {2, 4} per circuit, always fully instrumented (the profiler
/// consumes the trace whether or not `--trace-out` is set). Each run's
/// matched send→recv happens-before DAG yields the critical path of the
/// makespan; a summary row and the per-phase × rank blame table are
/// printed. Lossless runs are gated in-process: a path that does not
/// sum exactly to the makespan panics, so any smoke invocation doubles
/// as the acceptance check.
///
/// With `--trace-out DIR`, each run additionally writes
/// `<label>.profile.json` (the schema-versioned blame report),
/// `<label>.blame.md` (the markdown table), a Chrome trace annotated
/// with send→recv flow arrows and color-tagged critical-path slices
/// (`<label>.trace.json`), and the usual stats/metrics dumps — so
/// `repro aggregate` over DIR picks up the wait-fraction series.
pub fn profile(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    let cfg = cfg();
    println!("Causal profile: critical-path extraction and makespan blame");
    opts.note_scale();
    println!(
        "{:<34} {:>10} {:>9} {:>9} {:>9} {:>6}",
        "run", "makespan", "compute%", "wait%", "fault%", "segs"
    );
    for c in opts.circuits() {
        let (report, traces, metrics) =
            pgr_mpi::run_instrumented(1, machine, InstrumentConfig::full(), |comm| {
                pgr_router::route_serial(&c, &cfg, comm);
            });
        let label = format!("{}_serial_profile", c.name);
        let run = opts.run_meta(&c.name, "serial", 1, &machine);
        let prof = build_profile(&traces, &machine);
        report_profile(
            opts,
            &label,
            &run,
            &prof,
            &traces,
            &report.stats,
            &metrics,
            &machine,
        );
        for algo in Algorithm::ALL {
            let mut procs: Vec<usize> = [2usize, 4].iter().map(|&p| clamp_procs(p, &c)).collect();
            procs.dedup();
            for p in procs {
                let out = route_parallel_instrumented(
                    &c,
                    &cfg,
                    algo,
                    PartitionKind::PinWeight,
                    p,
                    machine,
                    InstrumentConfig::full(),
                );
                pgr_router::verify::assert_verified(&c, &out.result);
                let label = format!("{}_{}_profile_p{p}", c.name, algo.name());
                let run = opts.run_meta(&c.name, algo.name(), p, &machine);
                let prof = build_profile(&out.traces, &machine);
                report_profile(
                    opts,
                    &label,
                    &run,
                    &prof,
                    &out.traces,
                    &out.stats,
                    &out.metrics,
                    &machine,
                );
            }
        }
    }
    println!();
}

/// Gate one profile, print its summary row and blame table, and write
/// the artifact set when `--trace-out` is given.
#[allow(clippy::too_many_arguments)]
fn report_profile(
    opts: &Opts,
    label: &str,
    run: &RunMeta,
    prof: &Profile,
    traces: &[RankTrace],
    stats: &[RankStats],
    metrics: &[RankMetrics],
    machine: &MachineModel,
) {
    if prof.truncated {
        eprintln!(
            "warning: {label}: trace ring dropped {} event(s); per-phase attribution only",
            prof.dropped_events
        );
    } else {
        // In-process acceptance gate: every smoke run re-checks that
        // the extracted chain partitions the makespan exactly.
        assert!(
            prof.warnings.is_empty()
                && prof.is_contiguous()
                && prof.critical_path_seconds().to_bits() == prof.makespan.to_bits(),
            "{label}: critical path does not partition the makespan ({:?})",
            prof.warnings
        );
    }
    let pct = |class: BlameClass| {
        if prof.makespan > 0.0 {
            100.0 * prof.class_seconds[class.index()] / prof.makespan
        } else {
            0.0
        }
    };
    println!(
        "{:<34} {:>10} {:>8.1}% {:>8.1}% {:>8.1}% {:>6}",
        label,
        fmt_secs(prof.makespan),
        pct(BlameClass::Compute),
        pct(BlameClass::RecvWait),
        pct(BlameClass::Transport) + pct(BlameClass::Recovery) + pct(BlameClass::Degraded),
        prof.critical_path.len()
    );
    match &opts.trace_out {
        Some(dir) => {
            if let Err(e) =
                write_profile_artifacts(dir, label, prof, run, traces, stats, machine, metrics)
            {
                eprintln!("profile write failed for {label}: {e}");
            }
        }
        // No artifact dir: the blame table goes to stdout instead.
        None => print!("{}", prof.blame_markdown(run)),
    }
}

/// Write one profiled run's artifacts: the blame report JSON, the
/// markdown table, the annotated Chrome trace, and the stats/metrics
/// dumps the aggregator consumes. Returns the profile path.
#[allow(clippy::too_many_arguments)]
fn write_profile_artifacts(
    dir: &Path,
    label: &str,
    prof: &Profile,
    run: &RunMeta,
    traces: &[RankTrace],
    stats: &[RankStats],
    machine: &MachineModel,
    metrics: &[RankMetrics],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let profile_path = dir.join(format!("{label}.profile.json"));
    std::fs::write(&profile_path, prof.to_json(run))?;
    std::fs::write(
        dir.join(format!("{label}.blame.md")),
        prof.blame_markdown(run),
    )?;
    std::fs::write(
        dir.join(format!("{label}.trace.json")),
        chrome_trace_with_path(traces, Some(&prof.critical_path)),
    )?;
    std::fs::write(
        dir.join(format!("{label}.stats.json")),
        stats_json(stats, machine, run),
    )?;
    if !metrics.is_empty() {
        std::fs::write(
            dir.join(format!("{label}.metrics.json")),
            metrics_json(run, metrics),
        )?;
    }
    Ok(profile_path)
}

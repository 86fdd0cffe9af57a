//! Host-time benchmark of the router.
//!
//! ```text
//! pgr-hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's netlist is generated from `--seed` and handed to the
//! program as text only. With `--trace 0` the command times a closed loop
//! of solves (one client: the next solve starts when the previous one
//! has returned and been verified) with tracing off and prints the
//! end-to-end metrics. With `--trace 1` it alternates untraced solves
//! with traced ones (`ClockMode::Wall` + `InstrumentConfig::full()`) and
//! prints the per-layer metrics. Host times are scaled to a nominal host
//! speed by a reference kernel timed between the solves (`calib`). Every
//! result is checked; the last line of standard output is one JSON
//! object, and the exit code is non-zero when any check failed.

use pgr_circuit::format::{from_text, to_text};
use pgr_circuit::mcnc::Mcnc;
use pgr_circuit::{generate, Circuit};
use pgr_geom::{derive_seed, mst_prim};
use pgr_hostbench::calib;
use pgr_hostbench::spec::{self, phase_seconds_name, END_TO_END, PHASES};
use pgr_hostbench::stats::{median, tail};
use pgr_hostbench::sys;
use pgr_mpi::{
    build_profile, chrome_trace_json, stats_json, ClockMode, Comm, InstrumentConfig, MachineModel,
    RankMetrics, RankStats, RankTrace, RunMeta, Wire,
};
use pgr_obs::{json_escape, merge_ranks, metrics_json, BlameClass};
use pgr_router::metrics::names;
use pgr_router::{
    route_parallel_guarded, try_route_serial, verify, Algorithm, PartitionKind, RouterConfig,
    RoutingResult,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Router seeds the solves cycle through. Quality metrics average over
/// all of them, and every repeat of a seed must reproduce its first
/// result exactly.
const ROUTER_SEEDS: [u64; 3] = [1, 2, 3];
/// Fewest rounds over `ROUTER_SEEDS` a run makes, however long they take.
const MIN_ROUNDS: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Driver {
    Serial,
    Parallel(Algorithm, usize),
}

#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    circuit: Mcnc,
    driver: Driver,
    /// Run the whole process on one CPU: the reference samples then
    /// time the CPU the solves ran on, and a parallel driver's ranks
    /// take turns on it instead of waiting for each other's CPU.
    one_cpu: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: spec::WORKLOADS[0],
        circuit: Mcnc::AvqLarge,
        driver: Driver::Serial,
        one_cpu: true,
    },
    Workload {
        name: spec::WORKLOADS[1],
        circuit: Mcnc::AvqLarge,
        driver: Driver::Parallel(Algorithm::Hybrid, 2),
        one_cpu: true,
    },
    Workload {
        name: spec::UNGATED_WORKLOADS[0],
        circuit: Mcnc::Industry2,
        driver: Driver::Parallel(Algorithm::NetWise, 2),
        one_cpu: false,
    },
    Workload {
        name: spec::UNGATED_WORKLOADS[1],
        circuit: Mcnc::AvqLarge,
        driver: Driver::Parallel(Algorithm::Hybrid, 2),
        one_cpu: false,
    },
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            k @ ("--workload" | "--seed" | "--seconds" | "--trace") => k,
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or(format!("{key} needs a value"))?;
        if flags.insert(key, value).is_some() {
            return Err(format!("{key} given twice"));
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = *WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let seconds = Duration::try_from_secs_f64(seconds)
        .ok()
        .filter(|d| !d.is_zero())
        .ok_or("--seconds must be a positive number of seconds")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn machine() -> MachineModel {
    MachineModel::sparc_center_1000()
}

/// The workload's netlist text: the full-size Table 1 shape with the
/// generator seed derived from `seed`.
fn netlist_text(w: &Workload, seed: u64) -> String {
    let mut cfg = w.circuit.config();
    cfg.seed = derive_seed(cfg.seed, seed);
    to_text(&generate(&cfg))
}

/// Parse the netlist text into a validated circuit; returns it with the
/// parse's host seconds (one set-up sample).
fn parse_timed(text: &str) -> Result<(Circuit, f64), String> {
    let t = Instant::now();
    let c = from_text(black_box(text)).map_err(|e| format!("netlist does not parse: {e}"))?;
    Ok((c, t.elapsed().as_secs_f64()))
}

/// One verified solve.
struct Solve {
    result: RoutingResult,
    /// Virtual makespan on the machine model.
    sim: f64,
    /// Host seconds of the driver call plus verification.
    wall: f64,
    verify_s: f64,
    violations: usize,
}

/// Run `route` under `catch_unwind`, then verify its result. Errors,
/// panics and violations come back as `Err`.
fn checked<T>(
    circuit: &Circuit,
    route: impl FnOnce() -> Result<(RoutingResult, f64, T), String>,
) -> Result<(Solve, T), String> {
    let t = Instant::now();
    let (result, sim, extra) =
        catch_unwind(AssertUnwindSafe(route)).map_err(|_| "the driver panicked".to_string())??;
    let tv = Instant::now();
    let violations = verify::verify(circuit, &result);
    let verify_s = tv.elapsed().as_secs_f64();
    let wall = t.elapsed().as_secs_f64();
    if let Some(v) = violations.first() {
        return Err(format!(
            "{} verify violations, first: {v:?}",
            violations.len()
        ));
    }
    let solve = Solve {
        result,
        sim,
        wall,
        verify_s,
        violations: violations.len(),
    };
    Ok((solve, extra))
}

/// One untraced solve: tracing off, virtual clock.
fn solve(w: &Workload, circuit: &Circuit, seed: u64) -> Result<Solve, String> {
    let cfg = RouterConfig::with_seed(seed);
    checked(circuit, || match w.driver {
        Driver::Serial => {
            let mut comm = Comm::solo(machine());
            let r = try_route_serial(circuit, &cfg, &mut comm).map_err(|e| e.to_string())?;
            Ok((r, comm.now(), ()))
        }
        Driver::Parallel(algo, procs) => {
            let out = route_parallel_guarded(
                circuit,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                procs,
                machine(),
                InstrumentConfig::off(),
            );
            Ok((out.result.map_err(|e| e.to_string())?, out.time, ()))
        }
    })
    .map(|(s, ())| s)
}

/// What a repeat of a router seed must reproduce: a hash over every
/// field of the result (spans in wire encoding), the bits of the virtual
/// makespan and the quality figures. The run keeps this instead of a
/// copy of the result, so its peak memory is the program's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    hash: u64,
    sim_bits: u64,
    tracks: i64,
    wirelength: u64,
    area: i64,
}

impl Digest {
    fn of(r: &RoutingResult, sim: f64) -> Digest {
        let mut h = DefaultHasher::new();
        r.circuit.hash(&mut h);
        r.channel_density.hash(&mut h);
        (r.chip_width, r.rows, r.wirelength, r.feedthroughs).hash(&mut h);
        h.write_usize(r.spans.len());
        let mut buf = Vec::with_capacity(64);
        for span in &r.spans {
            buf.clear();
            span.encode(&mut buf);
            h.write(&buf);
        }
        Digest {
            hash: h.finish(),
            sim_bits: sim.to_bits(),
            tracks: r.track_count(),
            wirelength: r.wirelength,
            area: r.area(),
        }
    }

    fn sim(&self) -> f64 {
        f64::from_bits(self.sim_bits)
    }
}

/// First digest per router seed; later solves of a seed must equal it.
#[derive(Default)]
struct Reference {
    first: BTreeMap<u64, Digest>,
}

impl Reference {
    fn check(
        &mut self,
        seed: u64,
        result: &RoutingResult,
        sim: f64,
        what: &str,
    ) -> Result<(), String> {
        let d = Digest::of(result, sim);
        match self.first.get(&seed) {
            None => {
                self.first.insert(seed, d);
                Ok(())
            }
            Some(first) if *first == d => Ok(()),
            Some(first) => Err(format!(
                "{what} with router seed {seed} differs from the first solve \
                 (tracks {} vs {}, sim {} vs {sim})",
                first.tracks,
                d.tracks,
                first.sim()
            )),
        }
    }

    /// Mean of `f` over the router seeds seen.
    fn mean(&self, f: impl Fn(&Digest) -> f64) -> f64 {
        let n = self.first.len().max(1) as f64;
        self.first.values().map(f).sum::<f64>() / n
    }
}

/// Solve counts and the problems met on the way.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        eprintln!("FAIL: {msg}");
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(msg);
        }
    }
}

/// Metrics in print order: name → (value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

// ---------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------

fn run_untraced(args: &Args, text: &str, tally: &mut Tally) -> Result<Metrics, String> {
    let w = &args.workload;
    let mut refs = Reference::default();

    // Whole rounds over the router seeds, so every run weighs the seeds
    // equally; at least two, so every seed is solved twice and its
    // repeat is checked against the first result. Each solve starts
    // from a fresh parse of the text, so the set-up samples spread over
    // the run like the solve samples do, and is followed by a reference
    // sample, so those spread over the run too.
    let mut ref_samples = vec![calib::sample()];
    let steal0 = sys::steal_ticks()?;
    let t0 = Instant::now();
    let (mut times, mut parse_times, mut listed) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_s, mut nets_routed) = (0.0, 0.0);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || t0.elapsed() < args.seconds {
        rounds += 1;
        for seed in ROUTER_SEEDS {
            let (circuit, parse_s) = parse_timed(text)?;
            parse_times.push(parse_s);
            tally.attempted += 1;
            let cpu0 = sys::cpu_seconds()?;
            let outcome = solve(w, &circuit, seed);
            cpu_s += sys::cpu_seconds()? - cpu0;
            match outcome {
                Ok(s) => match refs.check(seed, &s.result, s.sim, "solve") {
                    Ok(()) => {
                        times.push(s.wall);
                        nets_routed += circuit.num_nets() as f64;
                        listed.push(format!("{:.4}@{seed}(sim {:.1})", s.wall, s.sim));
                    }
                    Err(e) => tally.fail(e),
                },
                Err(e) => tally.fail(format!("solve with router seed {seed}: {e}")),
            }
            ref_samples.push(calib::sample());
        }
    }
    let steal = sys::steal_frac(steal0, sys::steal_ticks()?);
    let solves = (rounds * ROUTER_SEEDS.len()) as f64;

    println!(
        "solve seconds@router seed (virtual seconds), in order: {}",
        listed.join(" ")
    );
    println!(
        "host CPU time stolen by the hypervisor during the loop: {:.1} %",
        100.0 * steal
    );
    let p50 = median(&times).ok_or("no solve succeeded")?;
    let t = tail(&times).ok_or("no solve succeeded")?;
    println!(
        "solve_s_tail is p{:.1} of n={} solves with {} beyond{}",
        t.percentile,
        t.n,
        t.beyond,
        if t.beyond < 10 {
            " (fewer than 11 solves: the maximum is reported)"
        } else {
            ""
        }
    );
    let setup_s = median(&parse_times).expect("parsed at least once");
    let k = run_speed_factor(&ref_samples);
    println!(
        "measured host seconds, before scaling by {k:.4}: setup_s {setup_s:.6}, \
         solve_s_p50 {p50:.6}, solve_s_tail {:.6}",
        t.value
    );
    let ok = (tally.attempted - tally.failed) as f64;
    let values: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", k * setup_s),
        ("solve_s_p50", k * p50),
        ("solve_s_tail", k * t.value),
        ("nets_per_s", nets_routed / (k * times.iter().sum::<f64>())),
        ("cpu_s_per_solve", k * cpu_s / solves),
        ("peak_rss_mb", sys::peak_rss_mb()?),
        ("sim_makespan_s", refs.mean(Digest::sim)),
        ("tracks", refs.mean(|d| d.tracks as f64)),
        ("wirelength", refs.mean(|d| d.wirelength as f64)),
        ("area", refs.mean(|d| d.area as f64)),
        ("verified_frac", ok / tally.attempted as f64),
    ]);
    in_spec_order(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)), |n| {
        values.get(n).copied()
    })
}

/// The factor that scales this run's host seconds to the nominal host
/// speed, from its reference samples; printed with them.
fn run_speed_factor(ref_samples: &[f64]) -> f64 {
    let ref_s = median(ref_samples).expect("one reference sample at least");
    let k = calib::speed_factor(ref_s);
    println!(
        "reference sample: median {:.3} ms of {} (nominal {:.1} ms); host seconds are scaled by {k:.4}",
        1e3 * ref_s,
        ref_samples.len(),
        1e3 * calib::NOMINAL_SAMPLE_S
    );
    k
}

/// The metrics of `spec`, in its order, each looked up in the measured
/// values: the command prints exactly what the specification names.
fn in_spec_order(
    spec: impl Iterator<Item = (String, &'static str)>,
    value: impl Fn(&str) -> Option<f64>,
) -> Result<Metrics, String> {
    spec.map(|(name, unit)| {
        let v = value(&name).ok_or_else(|| format!("metric {name} was not measured"))?;
        Ok((name, v, unit))
    })
    .collect()
}

// ---------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------

/// Seconds of each of the seven phases, summed over every mark of that
/// name; marks of other names are ignored.
fn phase_totals<'a>(marks: impl Iterator<Item = (&'a str, f64)>) -> [f64; 7] {
    let mut out = [0.0; 7];
    for (name, secs) in marks {
        if let Some(i) = PHASES.iter().position(|p| *p == name) {
            out[i] += secs;
        }
    }
    out
}

fn wall_phases(s: &RankStats) -> [f64; 7] {
    let wall = s.wall.as_ref().expect("traced runs use the wall clock");
    phase_totals(
        s.phases
            .iter()
            .map(|(n, _)| *n)
            .zip(wall.phases.iter().copied()),
    )
}

fn sim_phases(s: &RankStats) -> [f64; 7] {
    phase_totals(s.phases.iter().map(|&(n, t)| (n, t)))
}

fn shares(v: &[f64; 7]) -> [f64; 7] {
    let total: f64 = v.iter().sum();
    v.map(|x| if total > 0.0 { x / total } else { 0.0 })
}

/// What one traced solve measured, before the run takes medians.
struct Traced {
    solve: Solve,
    layer: BTreeMap<String, f64>,
}

fn max_by_key(stats: &[RankStats], key: impl Fn(&RankStats) -> f64) -> &RankStats {
    stats
        .iter()
        .max_by(|a, b| key(a).total_cmp(&key(b)))
        .expect("at least one rank")
}

/// Layer metrics every traced solve shares: transport volume, critical
/// path blame, imbalance, verification and the cost of emitting the
/// traced run's reports.
fn common_layers(
    layer: &mut BTreeMap<String, f64>,
    w: &Workload,
    seed: u64,
    solve: &Solve,
    stats: &[RankStats],
    traces: &[RankTrace],
    metrics: &[RankMetrics],
) {
    let mut put = |k: &str, v: f64| {
        layer.insert(k.to_string(), v);
    };
    let wall_time = |s: &RankStats| s.wall.as_ref().map_or(0.0, |w| w.time);
    let mean_wall = stats.iter().map(wall_time).sum::<f64>() / stats.len() as f64;
    let max_wall = wall_time(max_by_key(stats, wall_time));
    put("parallel.rank_wall_imbalance", max_wall / mean_wall);
    let sim_imbalance = metrics
        .first()
        .and_then(|m| m.gauge(names::LOAD_IMBALANCE))
        .unwrap_or_else(|| {
            // A one-rank run carries no gauge; its max/mean is 1.
            let mean = stats.iter().map(|s| s.time).sum::<f64>() / stats.len() as f64;
            max_by_key(stats, |s| s.time).time / mean
        });
    put("parallel.sim_imbalance", sim_imbalance);
    put(
        "mpi.msgs_per_solve",
        stats.iter().map(|s| s.msgs_sent).sum::<u64>() as f64,
    );
    put(
        "mpi.bytes_per_solve",
        stats.iter().map(|s| s.bytes_sent).sum::<u64>() as f64,
    );
    put(
        "mpi.modeled_peak_mb",
        stats.iter().map(|s| s.peak_mem).max().unwrap_or(0) as f64 / 1e6,
    );
    let profile = build_profile(traces, &machine());
    let blame = |c: BlameClass| profile.class_seconds[c as usize];
    put("mpi.critical_compute_s", blame(BlameClass::Compute));
    put("mpi.critical_recv_wait_s", blame(BlameClass::RecvWait));
    put("mpi.critical_transport_s", blame(BlameClass::Transport));
    put("verify.s", solve.verify_s);
    put("verify.violations", solve.violations as f64);

    let (algorithm, procs) = match w.driver {
        Driver::Serial => ("serial", 1),
        Driver::Parallel(a, p) => (a.name(), p),
    };
    let run = RunMeta {
        circuit: solve.result.circuit.clone(),
        algorithm: algorithm.into(),
        procs,
        machine: machine().name.to_string(),
        scale: 1.0,
        seed,
        degraded: false,
        clock: "wall".into(),
        scenario: String::new(),
        budget_degraded: false,
    };
    let t = Instant::now();
    let emitted = stats_json(stats, &machine(), &run).len()
        + metrics_json(&run, metrics).len()
        + chrome_trace_json(traces).len();
    black_box(emitted);
    put("obs.emit_s", t.elapsed().as_secs_f64());
}

fn put_phases(layer: &mut BTreeMap<String, f64>, wall: &[f64; 7], sim: &[f64; 7]) {
    for (i, p) in PHASES.iter().enumerate() {
        layer.insert(phase_seconds_name(p), wall[i]);
        layer.insert(format!("route.{p}.wall_share"), shares(wall)[i]);
        layer.insert(format!("route.{p}.sim_share"), shares(sim)[i]);
    }
}

fn put_counts(layer: &mut BTreeMap<String, f64>, c: [u64; 5]) {
    let [segments, crossings, spans, candidates, flips] = c;
    for (k, v) in [
        ("route.segments", segments),
        ("route.crossings", crossings),
        ("route.spans", spans),
        ("route.switch_candidates", candidates),
        ("route.switch_flips", flips),
    ] {
        layer.insert(k.to_string(), v as f64);
    }
    let ratio = if candidates > 0 {
        flips as f64 / candidates as f64
    } else {
        0.0
    };
    layer.insert("route.flip_ratio".to_string(), ratio);
}

/// One traced solve: the driver itself under `ClockMode::Wall` with full
/// instrumentation. Per-phase host seconds come from `RankStats.wall` of
/// the rank with the largest wall time, and the work counts from the
/// merged metrics and the result.
fn traced_solve(w: &Workload, circuit: &Circuit, seed: u64) -> Result<Traced, String> {
    let cfg = RouterConfig {
        clock: ClockMode::Wall,
        ..RouterConfig::with_seed(seed)
    };
    let instr = InstrumentConfig {
        clock: ClockMode::Wall,
        ..InstrumentConfig::full()
    };
    let (solve, (stats, traces, metrics)) = checked(circuit, || match w.driver {
        Driver::Serial => {
            let (mut report, traces, metrics) =
                pgr_mpi::run_instrumented(1, machine(), instr, |comm| {
                    try_route_serial(circuit, &cfg, comm)
                });
            let sim = report.makespan();
            let result = report
                .results
                .pop()
                .expect("one rank")
                .map_err(|e| e.to_string())?;
            Ok((result, sim, (report.stats, traces, metrics)))
        }
        Driver::Parallel(algo, procs) => {
            let out = route_parallel_guarded(
                circuit,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                procs,
                machine(),
                instr,
            );
            let result = out.result.map_err(|e| e.to_string())?;
            Ok((result, out.time, (out.stats, out.traces, out.metrics)))
        }
    })?;
    let mut layer = BTreeMap::new();
    let slow_wall = max_by_key(&stats, |s| s.wall.as_ref().map_or(0.0, |w| w.time));
    let slow_sim = max_by_key(&stats, |s| s.time);
    put_phases(&mut layer, &wall_phases(slow_wall), &sim_phases(slow_sim));
    let merged = merge_ranks(&metrics);
    let counter = |k: &str| merged.counter(k).unwrap_or(0);
    let segments = match w.driver {
        Driver::Serial => counter(names::SEGMENTS),
        // Segment pieces after boundary splitting, over all ranks.
        Driver::Parallel(..) => counter(names::SEGMENTS_OWNED),
    };
    let r = &solve.result;
    put_counts(
        &mut layer,
        [
            segments,
            // One feedthrough is inserted per row crossing.
            r.feedthroughs,
            r.span_count() as u64,
            r.spans.iter().filter(|s| s.switch_row.is_some()).count() as u64,
            counter(names::SEGMENTS_FLIPPED),
        ],
    );
    common_layers(&mut layer, w, seed, &solve, &stats, &traces, &metrics);
    Ok(Traced { solve, layer })
}

/// `pgr_mpi::wire::crc32` over `bytes` bytes, in 1 MiB frames: the
/// checksum work one solve's transport volume implies. Returns seconds.
fn crc_replay(bytes: u64) -> f64 {
    const FRAME: usize = 1 << 20;
    let buf: Vec<u8> = (0..FRAME).map(|i| (i * 131 % 251) as u8).collect();
    let t = Instant::now();
    let mut left = bytes as usize;
    while left > 0 {
        let n = left.min(FRAME);
        black_box(pgr_mpi::wire::crc32(black_box(&buf[..n])));
        left -= n;
    }
    t.elapsed().as_secs_f64()
}

/// `pgr_geom::mst_prim` over every net's pin set, as step 1 builds it.
/// Returns seconds spent inside the MST calls.
fn mst_replay(circuit: &Circuit) -> f64 {
    let mut points = Vec::new();
    let mut secs = 0.0;
    for chunk in circuit.nets_chunks() {
        for net in chunk.net_ids() {
            points.clear();
            circuit.pin_points_into(circuit.net_pins(net), &mut points);
            let t = Instant::now();
            black_box(mst_prim(black_box(&points)));
            secs += t.elapsed().as_secs_f64();
        }
    }
    secs
}

fn run_traced(args: &Args, text: &str, tally: &mut Tally) -> Result<Metrics, String> {
    let w = &args.workload;
    let (circuit, first_parse_s) = parse_timed(text)?;
    let mut parse_times = vec![first_parse_s];
    let mut layer_runs: Vec<BTreeMap<String, f64>> = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut refs = Reference::default();
    let mst_s = mst_replay(&circuit);
    drop(circuit);
    let mut ref_samples = vec![calib::sample()];

    let steal0 = sys::steal_ticks()?;
    let t0 = Instant::now();
    let mut i = 0;
    while i == 0 || t0.elapsed() < args.seconds {
        let seed = ROUTER_SEEDS[i % ROUTER_SEEDS.len()];
        i += 1;
        let (circuit, parse_s) = parse_timed(text)?;
        parse_times.push(parse_s);
        tally.attempted += 1;
        match solve(w, &circuit, seed) {
            Ok(s) => match refs.check(seed, &s.result, s.sim, "untraced solve") {
                Ok(()) => untraced.push(s.wall),
                Err(e) => tally.fail(e),
            },
            Err(e) => tally.fail(format!("untraced solve with router seed {seed}: {e}")),
        }
        // The traced solve must return exactly what the untraced one
        // did, or the traced numbers describe a different program.
        tally.attempted += 1;
        match traced_solve(w, &circuit, seed) {
            Ok(t) => match refs.check(seed, &t.solve.result, t.solve.sim, "traced solve") {
                Ok(()) => {
                    traced.push(t.solve.wall);
                    layer_runs.push(t.layer);
                }
                Err(e) => tally.fail(e),
            },
            Err(e) => tally.fail(format!("traced solve with router seed {seed}: {e}")),
        }
        ref_samples.push(calib::sample());
    }
    if layer_runs.is_empty() {
        return Err("no traced solve succeeded".into());
    }
    let steal = sys::steal_frac(steal0, sys::steal_ticks()?);

    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    let keys: Vec<String> = layer_runs[0].keys().cloned().collect();
    for k in keys {
        let vals: Vec<f64> = layer_runs
            .iter()
            .filter_map(|m| m.get(&k).copied())
            .collect();
        layer.insert(k, median(&vals).expect("one traced solve at least"));
    }
    let parse_s = median(&parse_times).expect("parsed at least once");
    layer.insert("circuit.parse_s".into(), parse_s);
    layer.insert(
        "circuit.parse_mb_per_s".into(),
        text.len() as f64 / parse_s / 1e6,
    );
    layer.insert("geom.mst_s".into(), mst_s);
    layer.insert("host.steal_frac".into(), steal);
    let median_bytes = layer["mpi.bytes_per_solve"];
    layer.insert("mpi.crc_replay_s".into(), crc_replay(median_bytes as u64));
    let overhead = match (median(&traced), median(&untraced)) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => return Err("no untraced solve to compare the traced ones with".into()),
    };
    layer.insert("obs.trace_overhead_frac".into(), overhead);
    // Host seconds and rates scale to the nominal host speed, as the
    // end-to-end metrics do; the reference sample itself stays measured.
    let k = run_speed_factor(&ref_samples);
    for (name, unit) in spec::per_layer() {
        if let Some(v) = layer.get_mut(&name) {
            match unit {
                "s" => *v *= k,
                "MB/s" => *v /= k,
                _ => {}
            }
        }
    }
    layer.insert(
        "host.ref_sample_ms".into(),
        1e3 * median(&ref_samples).expect("one reference sample at least"),
    );
    println!(
        "traced solves: {} (median {:.4} s); untraced: {} (median {:.4} s); \
         mpi.crc_replay_s is computed over the median byte volume, not traced",
        traced.len(),
        median(&traced).unwrap_or(0.0),
        untraced.len(),
        median(&untraced).unwrap_or(0.0)
    );

    in_spec_order(spec::per_layer().into_iter(), |n| layer.get(n).copied())
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

fn result_json(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                json_escape(n),
                json_escape(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    if let Err(e) = spec::check_spec() {
        eprintln!("benchmark specification is invalid: {e}");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: pgr-hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    // Before the netlist is generated, so every allocation of the run
    // sees the same allocator settings, and every thread the run starts
    // inherits the CPU mask.
    let fixed = sys::fix_mmap_threshold();
    let w = &args.workload;
    if w.one_cpu {
        if let Err(e) = sys::pin_to_one_cpu() {
            eprintln!("FAIL: workload {} runs on one CPU: {e}", w.name);
            return ExitCode::FAILURE;
        }
    }
    println!(
        "workload {} (circuit {}, seed {}, {} s, trace {}), host parallelism {}, CPUs {}",
        w.name,
        w.circuit.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        sys::allowed_cpus().unwrap_or_else(|e| e)
    );
    if !fixed {
        println!("the allocator's mmap threshold could not be fixed: peak_rss_mb may vary by run");
    }
    let text = netlist_text(w, args.seed);
    let mut tally = Tally::default();
    let measured = if args.trace {
        run_traced(&args, &text, &mut tally)
    } else {
        run_untraced(&args, &text, &mut tally)
    };
    let metrics = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("FAIL: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (n, v, u) in &metrics {
        println!("{n:<32} {v:>18.6} {u}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        tally.fail("a metric is not a finite number".into());
    }
    let correct = tally.failed == 0;
    println!("{}", result_json(correct, &tally, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        for p in &tally.problems {
            eprintln!("problem: {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_router::route::Span;

    fn result() -> RoutingResult {
        RoutingResult {
            circuit: "t".into(),
            channel_density: vec![2, 3],
            chip_width: 40,
            rows: 1,
            wirelength: 77,
            feedthroughs: 1,
            spans: (0..4)
                .map(|i| Span {
                    net: pgr_circuit::NetId(i),
                    channel: i % 2,
                    lo: 0,
                    hi: 10 + i as i64,
                    switch_row: None,
                })
                .collect(),
        }
    }

    #[test]
    fn digest_tells_results_apart_by_any_span_field_or_the_sim_bits() {
        let r = result();
        assert_eq!(Digest::of(&r, 1.5), Digest::of(&r.clone(), 1.5));
        assert_ne!(Digest::of(&r, 1.5), Digest::of(&r, 1.5000000000000002));
        let mut moved = r.clone();
        moved.spans[3].switch_row = Some(0);
        assert_ne!(Digest::of(&r, 1.5), Digest::of(&moved, 1.5));
        let mut dropped = r.clone();
        dropped.spans.pop();
        assert_ne!(Digest::of(&r, 1.5), Digest::of(&dropped, 1.5));
        let d = Digest::of(&r, 1.5);
        assert_eq!(
            (d.tracks, d.wirelength, d.area, d.sim()),
            (5, 77, 40 * 13, 1.5)
        );
    }
}

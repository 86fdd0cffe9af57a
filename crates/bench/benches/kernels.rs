//! Micro-benchmarks of the computational kernels under the router:
//! rectilinear MSTs (step 1 and 4's dominant work), the lazy segment-tree
//! density profile (the structure every step-5 switchable decision
//! probes) and its bulk build from a span list, the flat coarse grid's
//! routing sweep and the bucketed feedthrough assignment on avq.large-shaped
//! inputs, union-find, the wire codec the ranks serialize with, and the
//! columnar circuit store's per-net sweep paths.

use pgr_bench::harness::{black_box, Harness};
use pgr_geom::rng::{rng_from_seed, shuffled_indices};
use pgr_geom::{mst_adjacency_limited, mst_prim, DensityProfile, Point, UnionFind};
use pgr_mpi::Wire;

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|_| Point::new(rng.gen_range(0..2000), rng.gen_range(0..64)))
        .collect()
}

fn bench_mst(h: &mut Harness) {
    for &n in &[4usize, 32, 256, 2048] {
        let pts = random_points(n, 42);
        h.bench(&format!("mst_prim/{n}"), |b| {
            b.iter(|| mst_prim(black_box(&pts)))
        });
    }
    for &n in &[32usize, 256, 1024] {
        let pts = random_points(n, 43);
        h.bench(&format!("mst_adjacency_limited/{n}"), |b| {
            b.iter(|| mst_adjacency_limited(black_box(&pts)))
        });
    }
    // Shaped like avq.large's 2100-pin clock net after feedthrough
    // insertion: the pins scattered over 86 rows of 8365 columns, plus
    // 49 feedthroughs on every row — about 6.3k nodes.
    let mut rng = rng_from_seed(44);
    let mut clock: Vec<Point> = (0..2100)
        .map(|_| Point::new(rng.gen_range(0..8365), rng.gen_range(0..86)))
        .collect();
    for row in 0..86 {
        clock.extend((0..49).map(|_| Point::new(rng.gen_range(0..8365), row)));
    }
    clock.sort_by_key(|p| (p.y, p.x));
    h.bench("mst_adjacency_limited/clock-6k", |b| {
        b.iter(|| mst_adjacency_limited(black_box(&clock)))
    });
}

fn bench_profile(h: &mut Harness) {
    for &width in &[256usize, 4096] {
        h.bench(&format!("density_profile/add_remove/{width}"), |b| {
            let mut p = DensityProfile::new(width);
            let mut rng = rng_from_seed(7);
            b.iter(|| {
                let lo = rng.gen_range(0..width as i64);
                let hi = (lo + rng.gen_range(1..200)).min(width as i64 - 1);
                p.add_span(lo, hi, 1);
                black_box(p.max());
                p.add_span(lo, hi, -1);
            })
        });
        h.bench(&format!("density_profile/max_if_added/{width}"), |b| {
            let mut p = DensityProfile::new(width);
            let mut rng = rng_from_seed(8);
            for _ in 0..200 {
                let lo = rng.gen_range(0..width as i64);
                p.add_span(lo, (lo + 40).min(width as i64 - 1), 1);
            }
            b.iter(|| {
                let lo = rng.gen_range(0..width as i64);
                black_box(p.max_if_added(lo, (lo + 60).min(width as i64 - 1)))
            })
        });
        h.bench(&format!("density_profile/counts_into/{width}"), |b| {
            let mut p = DensityProfile::new(width);
            let mut rng = rng_from_seed(9);
            for _ in 0..200 {
                let lo = rng.gen_range(0..width as i64);
                p.add_span(lo, (lo + 40).min(width as i64 - 1), 1);
            }
            let mut out = vec![0i64; width];
            b.iter(|| {
                p.counts_into(&mut out);
                black_box(out[width / 2])
            })
        });
    }
}

fn bench_channel_state(h: &mut Harness) {
    use pgr_circuit::NetId;
    use pgr_router::route::state::Span;
    use pgr_router::route::switchable::ChannelState;

    // avq.large at full size: 287k connect spans over 87 channels of a
    // chip 8365 columns wide.
    let (channels, width) = (87u32, 8365i64);
    let mut rng = rng_from_seed(0xC4A7);
    let spans: Vec<Span> = (0..287_000u32)
        .map(|i| {
            let lo = rng.gen_range(0..width - 1);
            Span {
                net: NetId(i / 12),
                channel: rng.gen_range(0..channels),
                lo,
                hi: (lo + rng.gen_range(1..120)).min(width - 1),
                switch_row: None,
            }
        })
        .collect();
    h.bench("channel_state/from_spans/avq", |b| {
        b.iter(|| {
            let chans =
                ChannelState::from_spans(0, channels as usize, width, black_box(&spans), false);
            black_box(chans.channel_max(channels / 2))
        })
    });
}

fn bench_coarse_eval(h: &mut Harness) {
    use pgr_circuit::NetId;
    use pgr_mpi::{Comm, MachineModel};
    use pgr_router::route::coarse::CoarseState;
    use pgr_router::route::state::{Node, Segment};
    use pgr_router::RouterConfig;

    for &n in &[64usize, 512] {
        let mut rng = rng_from_seed(0xC0A5);
        let segs: Vec<Segment> = (0..n)
            .map(|i| {
                let r1 = rng.gen_range(0..8u32);
                let r2 = rng.gen_range(0..8u32);
                let a = Node::fake(rng.gen_range(0..600i64), r1);
                let b = Node::fake(rng.gen_range(0..600i64), r2);
                Segment::new(NetId(i as u32), a, b)
            })
            .collect();
        let order: Vec<u32> = (0..segs.len() as u32).collect();
        let cfg = RouterConfig::default();
        h.bench(&format!("coarse_eval/improve_slice/{n}"), |b| {
            let mut comm = Comm::solo(MachineModel::ideal());
            let mut st = CoarseState::new(0, 9, 640, 8);
            let mut orients = st.init_random(&segs, &mut rng_from_seed(7), &mut comm);
            b.iter(|| black_box(st.improve_slice(&mut orients, &order, &cfg, &mut comm)))
        });
    }
}

/// Segments shaped like a `serial-avq.large` solve's step-2 input: 86
/// rows of 293 grid columns (8 columns each), 57k segments of which 89 %
/// cross rows, about 11 grid columns wide and crossing about 4.6 rows on
/// average.
fn avq_shaped_segments() -> Vec<pgr_router::route::state::Segment> {
    use pgr_circuit::NetId;
    use pgr_router::route::state::{ChannelPref, Node, Segment};
    let mut rng = rng_from_seed(0xA7C);
    (0..57_000u32)
        .map(|i| {
            let lo_row = rng.gen_range(0..86u32);
            let rows = if rng.gen_bool(0.89) {
                // Geometric row distance with mean 5.6 (4.6 crossed rows).
                let mut d = 1;
                while rng.gen_bool(1.0 - 1.0 / 5.6) {
                    d += 1;
                }
                d
            } else {
                0
            };
            let hi_row = (lo_row + rows).min(85);
            let x = rng.gen_range(0..2344i64);
            let x2 = (x + rng.gen_range(-88..88i64)).clamp(0, 2343);
            let pin = |x, row| Node::pin(i, x, row, ChannelPref::Either);
            Segment::new(NetId(i / 3), pin(x, lo_row), pin(x2, hi_row))
        })
        .collect()
}

fn bench_coarse_route(h: &mut Harness) {
    use pgr_mpi::{Comm, MachineModel};
    use pgr_router::route::coarse::CoarseState;
    use pgr_router::RouterConfig;

    let segs = avq_shaped_segments();
    let cfg = RouterConfig::default();
    h.bench("coarse/route/avq-shaped", |b| {
        b.iter(|| {
            let mut comm = Comm::solo(MachineModel::ideal());
            let mut st = CoarseState::new(0, 86, 2344, cfg.grid_w);
            black_box(st.route(&segs, &cfg, &mut rng_from_seed(1), &mut comm))
        })
    });
}

fn bench_feedthrough_assign(h: &mut Harness) {
    use pgr_circuit::NetId;
    use pgr_mpi::{Comm, MachineModel};
    use pgr_router::route::feedthrough::{assign, Crossing, FtPlan};

    // 233k crossings of 25k nets over the 86 × 293 grid of
    // `serial-avq.large`, and the plan their counts imply.
    let mut rng = rng_from_seed(0xF7);
    let crossings: Vec<Crossing> = (0..233_000)
        .map(|_| Crossing {
            net: NetId(rng.gen_range(0..25_000u32)),
            row: rng.gen_range(0..86u32),
            x: rng.gen_range(0..2344i64),
        })
        .collect();
    let mut demand = vec![vec![0i64; 293]; 86];
    for c in &crossings {
        demand[c.row as usize][(c.x / 8) as usize] += 1;
    }
    let plan = FtPlan::new(0, demand, 8, 2);
    h.bench("feedthrough/assign/avq-shaped", |b| {
        let mut comm = Comm::solo(MachineModel::ideal());
        b.iter(|| black_box(assign(&plan, &crossings, &mut comm)))
    });
}

fn bench_unionfind(h: &mut Harness) {
    h.bench("unionfind_1k_random_unions", |b| {
        let mut rng = rng_from_seed(3);
        let pairs: Vec<(usize, usize)> = (0..1000)
            .map(|_| (rng.gen_range(0..1000), rng.gen_range(0..1000)))
            .collect();
        b.iter(|| {
            let mut uf = UnionFind::new(1000);
            for &(x, y) in &pairs {
                uf.union(x, y);
            }
            black_box(uf.components())
        })
    });
}

fn bench_wire(h: &mut Harness) {
    let payload: Vec<(u32, i64, i64, Option<u32>)> = (0..1000)
        .map(|i| (i, i as i64 * 3, -(i as i64), (i % 3 == 0).then_some(i)))
        .collect();
    h.bench("wire_encode_1k_records", |b| {
        b.iter(|| black_box(payload.to_bytes()))
    });
    let bytes = payload.to_bytes();
    h.bench("wire_decode_1k_records", |b| {
        b.iter(|| black_box(Vec::<(u32, i64, i64, Option<u32>)>::from_bytes(&bytes).unwrap()))
    });
}

fn bench_channel_router(h: &mut Harness) {
    use pgr_channel::{assign_tracks, merge_net_intervals, Interval};
    for &n in &[100usize, 2000] {
        let mut rng = rng_from_seed(17);
        let ivs: Vec<Interval> = (0..n)
            .map(|i| {
                let lo = rng.gen_range(0..3000i64);
                Interval::new((i % 200) as u32, lo, lo + rng.gen_range(1..150))
            })
            .collect();
        h.bench(&format!("left_edge_router/{n}"), |b| {
            b.iter(|| black_box(assign_tracks(&merge_net_intervals(&ivs))))
        });
    }
}

fn bench_critical_path(h: &mut Harness) {
    use pgr_mpi::{build_profile, run_instrumented, InstrumentConfig, MachineModel};

    // One instrumented ring run outside the timed loop; the kernel under
    // test is the profiler itself — matching, backward walk, blame.
    let machine = MachineModel::sparc_center_1000();
    let instr = InstrumentConfig::full();
    let (_, traces, _) = run_instrumented(4, machine, instr, |comm| {
        let p = comm.size();
        let me = comm.rank();
        for round in 0..200u64 {
            comm.compute(1_000 + (me as u64 + round) % 512);
            let next = (me + 1) % p;
            comm.send(next, 1, &round);
            comm.recv::<u64>((me + p - 1) % p, 1);
        }
    });
    h.bench("critical_path/extract", |b| {
        b.iter(|| black_box(build_profile(black_box(&traces), black_box(&machine))))
    });
}

fn bench_circuit_store(h: &mut Harness) {
    use pgr_circuit::mcnc::Mcnc;
    use pgr_circuit::NetId;

    // The columnar store's hot paths: sweeping every net's slice of the
    // shared pin-index arena, and resolving pin positions in batch from
    // the SoA columns — the access pattern of the Steiner/coarse loops.
    let c = Mcnc::Primary2.circuit_scaled(0.2);
    h.bench("circuit/net_pins_sweep", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for chunk in c.nets_chunks() {
                for net in chunk.net_ids() {
                    total += black_box(c.net_pins(net)).len();
                }
            }
            black_box(total)
        })
    });
    h.bench("circuit/pin_points_batch", |b| {
        let mut points = Vec::new();
        b.iter(|| {
            let mut sum = 0i64;
            for i in 0..c.num_nets() {
                let pins = c.net_pins(NetId::from_index(i));
                points.clear();
                c.pin_points_into(pins, &mut points);
                sum += points.iter().map(|p| p.x).sum::<i64>();
            }
            black_box(sum)
        })
    });
}

fn bench_scenarios(h: &mut Harness) {
    use pgr_circuit::scenarios::{ScenarioFamily, ScenarioSpec};

    // The adversarial workload generator: one representative per shape
    // class — the dense-degree-tail family, the giant-fanout family,
    // and a degenerate family. Each spec is deterministic, so the bench
    // measures pure generation cost.
    for family in [
        ScenarioFamily::CongestionStress,
        ScenarioFamily::ClockTree,
        ScenarioFamily::DuplicateGeometry,
    ] {
        let spec = ScenarioSpec::new(family, 0.25, 1997);
        h.bench(&format!("scenarios/generate/{}", family.name()), |b| {
            b.iter(|| black_box(spec.generate()))
        });
    }
}

fn bench_shuffle(h: &mut Harness) {
    h.bench("shuffle_10k", |b| {
        let mut rng = rng_from_seed(5);
        b.iter(|| black_box(shuffled_indices(10_000, &mut rng)))
    });
}

fn main() {
    let mut h = Harness::from_args();
    bench_mst(&mut h);
    bench_profile(&mut h);
    bench_channel_state(&mut h);
    bench_coarse_eval(&mut h);
    bench_coarse_route(&mut h);
    bench_feedthrough_assign(&mut h);
    bench_unionfind(&mut h);
    bench_wire(&mut h);
    bench_channel_router(&mut h);
    bench_circuit_store(&mut h);
    bench_scenarios(&mut h);
    bench_critical_path(&mut h);
    bench_shuffle(&mut h);
    h.finish();
}

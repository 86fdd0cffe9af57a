//! The hybrid pin partition algorithm (§6).
//!
//! Identical to the row-wise algorithm through coarse routing and
//! feedthrough assignment — rows, cells, and pins are partitioned
//! row-wise and fake pins keep sub-nets connected. The difference is the
//! final connection: "instead of letting each processor connect the pins
//! of a net in adjacent rows for the subnets, we let one processor do it
//! for each whole net." Sub-net fragments travel to the net's owner,
//! which builds one MST over the union — eliminating the redundant
//! tracks independent fragment connection can create (Figure 3). The
//! resulting spans are dealt back to the ranks owning their channels for
//! switchable optimization.
//!
//! The paper's verdict, which the benchmarks reproduce: best quality
//! (≈2 % track degradation), at slightly lower speedups than row-wise
//! because of the extra fragment/span exchange.

use crate::config::RouterConfig;
use crate::cost;
use crate::engine::{self, Phase, Pipeline, RouteCtx};
use crate::metrics::{names, record_ft_plan, RoutingResult};
use crate::parallel::common::{
    assemble_works, distribute, gather_result, merge_steiner_payloads, owned_ckpt,
    replay_split_arrival, split_segment, steiner_snapshot, sync_boundaries, PORTABLE_HORIZON,
};
use crate::parallel::partition::{partition_nets, PartitionKind};
use crate::route::coarse::CoarseState;
use crate::route::connect::{connect_net_with, ConnectArena};
use crate::route::feedthrough::{assign, FtPlan};
use crate::route::serial::{attach_feedthroughs, crossings_of, shift_pins};
use crate::route::state::{Orientation, Segment, Span, WorkNet};
use crate::route::steiner::{build_segments_with, whole_net};
use crate::route::switchable::{optimize, ChannelState};
use pgr_circuit::{Circuit, RowId};
use pgr_mpi::Comm;

/// Run the hybrid algorithm on the calling rank. Returns the global
/// result on the lowest surviving rank, `None` elsewhere.
///
/// Phase boundaries are recovery checkpoints (see
/// [`crate::engine::with_recovery`]): a rank killed there unwinds with
/// `None` and the survivors redo the attempt on the shrunken world.
pub fn route_hybrid(
    circuit: &Circuit,
    cfg: &RouterConfig,
    kind: PartitionKind,
    comm: &mut Comm,
) -> Option<RoutingResult> {
    try_route_hybrid(circuit, cfg, kind, comm)
        .expect("budgeted run breached its budget — use try_route_hybrid")
}

/// [`route_hybrid`], but an armed [`pgr_mpi::ResourceBudget`] breach
/// returns the agreed structured error instead of panicking.
pub fn try_route_hybrid(
    circuit: &Circuit,
    cfg: &RouterConfig,
    kind: PartitionKind,
    comm: &mut Comm,
) -> Result<Option<RoutingResult>, crate::engine::RouteError> {
    engine::drive::<HybridPipeline>(circuit, cfg, kind, comm)
}

/// Pipeline state carried between the hybrid passes.
#[derive(Default)]
struct HybridPipeline {
    /// Owned nets with their unsplit Steiner segments, retained (only
    /// when a checkpoint store is attached) for the portable
    /// phase-boundary snapshot.
    ckpt: Vec<(u32, Vec<Segment>)>,
    owners: Vec<u32>,
    segments: Vec<Segment>,
    works: Vec<WorkNet>,
    orients: Vec<Orientation>,
    coarse: Option<CoarseState>,
    plan: Option<FtPlan>,
    chip_width: i64,
    spans: Vec<Span>,
    wirelength: u64,
    result: Option<RoutingResult>,
}

impl Pipeline for HybridPipeline {
    fn pass(&mut self, phase: Phase, ctx: &mut RouteCtx<'_>, comm: &mut Comm) {
        let (circuit, cfg) = (ctx.circuit, ctx.cfg);
        match phase {
            Phase::Setup => distribute(circuit, false, comm),

            // Steps 1–3: exactly the row-wise flow (fake pins and all).
            Phase::Steiner => {
                self.owners =
                    partition_nets(circuit, ctx.kind, &ctx.rows, ctx.size, cfg.pin_weight_beta);
                let owned = self
                    .owners
                    .iter()
                    .filter(|&&o| o as usize == ctx.rank)
                    .count();
                comm.metric_add(names::NETS_OWNED, owned as u64);
                let keep = comm.checkpointing();
                let mut outgoing: Vec<Vec<Segment>> = vec![Vec::new(); ctx.size];
                for net in circuit.nets_chunks().flat_map(|c| c.net_ids()) {
                    let i = net.index();
                    if self.owners[i] as usize != ctx.rank {
                        continue;
                    }
                    // Mandatory work: a latched breach stops local
                    // building; the alltoall below still runs and the
                    // engine aborts at the next phase boundary.
                    if comm.budget_poll_abort() {
                        break;
                    }
                    let w = whole_net(circuit, net);
                    if w.nodes.len() < 2 {
                        continue;
                    }
                    let segs = build_segments_with(&w, cfg.steiner_refine, comm);
                    for seg in &segs {
                        for (part, piece) in split_segment(seg, &ctx.rows) {
                            outgoing[part].push(piece);
                        }
                    }
                    if keep {
                        self.ckpt.push((i as u32, segs));
                    }
                }
                self.segments = comm.alltoall(outgoing).into_iter().flatten().collect();
                comm.metric_add(names::SEGMENTS_OWNED, self.segments.len() as u64);
                self.works = assemble_works(&self.segments);
            }

            Phase::Coarse => {
                comm.metric_add(names::ROWS_OWNED, ctx.nrows() as u64);
                let mut coarse =
                    CoarseState::new(ctx.row0(), ctx.nrows(), circuit.width, cfg.grid_w);
                comm.charge_alloc(coarse.modeled_bytes());
                self.orients = coarse.route(&self.segments, cfg, &mut ctx.rng, comm);
                self.coarse = Some(coarse);
            }

            Phase::Feedthrough => {
                let demand = self.coarse.take().expect("coarse pass ran").into_demand();
                let plan = FtPlan::new(ctx.row0(), demand, cfg.grid_w, cfg.ft_width);
                let local_cells: usize = ctx
                    .rows
                    .range(ctx.rank)
                    .map(|r| circuit.row_cells(RowId(r as u32)).len())
                    .sum();
                comm.compute(cost::FT_INSERT_CELL * local_cells as u64);
                let crossings = crossings_of(&self.segments, &self.orients);
                let ft_nodes = assign(&plan, &crossings, comm);
                record_ft_plan(&plan, comm);
                shift_pins(&mut self.works, &plan);
                attach_feedthroughs(&mut self.works, ft_nodes);
                self.chip_width = comm.allreduce(circuit.width + plan.max_growth(), i64::max);
                self.plan = Some(plan);
            }

            // Step 4 (the hybrid difference): ship each net's fragment to
            // the net's owner, merge, and connect the whole net there.
            Phase::Connect => {
                let mut work_out: Vec<Vec<WorkNet>> = vec![Vec::new(); ctx.size];
                for w in std::mem::take(&mut self.works) {
                    work_out[self.owners[w.net.index()] as usize].push(w);
                }
                let fragments: Vec<WorkNet> =
                    comm.alltoall(work_out).into_iter().flatten().collect();
                let mut merged: Vec<WorkNet> = Vec::new();
                {
                    let mut index = std::collections::HashMap::new();
                    for frag in fragments {
                        let &mut i = index.entry(frag.net).or_insert_with(|| {
                            merged.push(WorkNet {
                                net: frag.net,
                                nodes: Vec::new(),
                            });
                            merged.len() - 1
                        });
                        merged[i].nodes.extend(frag.nodes);
                    }
                    for w in &mut merged {
                        w.nodes.sort_unstable_by_key(|n| n.sort_key());
                        w.nodes.dedup();
                    }
                    // Deterministic order regardless of fragment arrival.
                    merged.sort_unstable_by_key(|w| w.net);
                }

                let mut all_spans: Vec<Span> = Vec::new();
                let mut arena = ConnectArena::default();
                for w in &merged {
                    // Mandatory work: stop on a latched breach (the
                    // span alltoall below still runs; the engine aborts
                    // at the next boundary).
                    if comm.budget_poll_abort() {
                        break;
                    }
                    let conn = connect_net_with(w, comm, &mut arena);
                    self.wirelength += conn.wirelength;
                    all_spans.extend(conn.spans);
                }

                // Deal spans back to channel owners: switchable spans
                // follow their row (the owner covers both candidate
                // channels); fixed spans follow their channel (the top
                // channel belongs to the last rank).
                let mut span_out: Vec<Vec<Span>> = vec![Vec::new(); ctx.size];
                for s in all_spans {
                    let dest = match s.switch_row {
                        Some(r) => ctx.rows.owner(RowId(r)),
                        None => {
                            if s.channel as usize == circuit.num_rows() {
                                ctx.size - 1
                            } else {
                                ctx.rows.owner(RowId(s.channel))
                            }
                        }
                    };
                    span_out[dest].push(s);
                }
                // Arrival order is deterministic (alltoall delivers in
                // sender-rank order, each sender's list is
                // deterministic), and at P = 1 it is exactly the serial
                // span order.
                self.spans = comm.alltoall(span_out).into_iter().flatten().collect();
            }

            // Step 5: row-local switchable optimization with boundary
            // sync.
            Phase::Switchable => {
                let mut chans = ChannelState::from_spans(
                    ctx.row0(),
                    ctx.nrows() + 1,
                    self.chip_width,
                    &self.spans,
                    false,
                );
                comm.charge_alloc(chans.modeled_bytes());
                comm.compute(cost::SPAN_APPLY * self.spans.len() as u64);
                sync_boundaries(&mut chans, &ctx.rows, comm);
                let flips = optimize(&mut chans, &mut self.spans, cfg, &mut ctx.rng, comm);
                comm.metric_add(names::SEGMENTS_FLIPPED, flips as u64);
            }

            Phase::Assemble => {
                self.result = gather_result(
                    circuit,
                    cfg,
                    std::mem::take(&mut self.spans),
                    self.wirelength,
                    self.plan.as_ref().expect("feedthrough pass ran").total(),
                    self.chip_width,
                    comm,
                );
            }
        }
    }

    fn snapshot(&self, at: Phase, _ctx: &RouteCtx<'_>) -> Option<Vec<u8>> {
        steiner_snapshot(at, &self.ckpt)
    }

    fn restore(&mut self, at: Phase, payloads: &[Vec<u8>], ctx: &mut RouteCtx<'_>) {
        if at.index() != PORTABLE_HORIZON {
            return; // resuming at Steiner: default state, setup re-runs
        }
        // The hybrid keeps the net partition live past Steiner (the
        // connect pass ships fragments to net owners), so the restore
        // re-derives it for the current world alongside the segments.
        self.owners = partition_nets(
            ctx.circuit,
            ctx.kind,
            &ctx.rows,
            ctx.size,
            ctx.cfg.pin_weight_beta,
        );
        let by_net = merge_steiner_payloads(payloads, ctx.circuit.num_nets());
        self.segments = replay_split_arrival(&by_net, &self.owners, &ctx.rows, ctx.size, ctx.rank);
        self.works = assemble_works(&self.segments);
        self.ckpt = owned_ckpt(&by_net, &self.owners, ctx.rank);
    }

    fn take_result(&mut self) -> Option<RoutingResult> {
        self.result.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::rowwise::route_rowwise;
    use crate::route::route_serial;
    use pgr_circuit::{generate, GeneratorConfig};
    use pgr_mpi::{run, MachineModel};

    fn small() -> Circuit {
        generate(&GeneratorConfig::small("hybrid-test", 31))
    }

    fn run_hybrid(circuit: &Circuit, cfg: &RouterConfig, procs: usize) -> (RoutingResult, f64) {
        let report = run(procs, MachineModel::sparc_center_1000(), |comm| {
            route_hybrid(circuit, cfg, PartitionKind::PinWeight, comm)
        });
        let result = report
            .results
            .iter()
            .flatten()
            .next()
            .expect("rank 0 result")
            .clone();
        (result, report.makespan())
    }

    #[test]
    fn multi_rank_quality_close_to_serial() {
        let c = small();
        let cfg = RouterConfig::with_seed(5);
        let serial = route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal()));
        for procs in [2, 4] {
            let (par, _) = run_hybrid(&c, &cfg, procs);
            let scaled = par.scaled_tracks(&serial);
            // Small circuits are noisy: different rank-local random orders
            // can even beat the serial run slightly.
            assert!((0.85..1.25).contains(&scaled), "P={procs}: scaled {scaled}");
        }
    }

    #[test]
    fn hybrid_beats_rowwise_quality_on_average() {
        // The paper's headline (§6): whole-net connection removes the
        // redundant tracks of independent fragment connection. Compare
        // total tracks across seeds at 4 ranks.
        let mut hybrid_total = 0i64;
        let mut rowwise_total = 0i64;
        for seed in 0..3 {
            let c = generate(&GeneratorConfig::small("hb-cmp", 100 + seed));
            let cfg = RouterConfig::with_seed(seed);
            let (h, _) = run_hybrid(&c, &cfg, 4);
            let r = run(4, MachineModel::sparc_center_1000(), |comm| {
                route_rowwise(&c, &cfg, PartitionKind::PinWeight, comm)
            });
            let r = r.results.iter().flatten().next().unwrap().clone();
            hybrid_total += h.track_count();
            rowwise_total += r.track_count();
        }
        // Tiny test circuits give the two algorithms near-identical track
        // counts; allow noise. The real separation is asserted by the
        // full-size Table 2 vs Table 4 benchmarks.
        assert!(
            hybrid_total <= rowwise_total + rowwise_total / 20,
            "hybrid ({hybrid_total}) must not clearly lose to row-wise ({rowwise_total})"
        );
    }

    #[test]
    fn single_rank_matches_serial_exactly() {
        let c = small();
        let cfg = RouterConfig::with_seed(9);
        let serial = route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal()));
        let (par, _) = run_hybrid(&c, &cfg, 1);
        assert_eq!(par, serial, "P=1 hybrid is the serial algorithm");
    }

    #[test]
    fn deterministic() {
        let c = small();
        let cfg = RouterConfig::with_seed(2);
        let a = run_hybrid(&c, &cfg, 3);
        let b = run_hybrid(&c, &cfg, 3);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn speedup_grows_with_ranks() {
        let c = small();
        let cfg = RouterConfig::with_seed(3);
        let (_, t1) = run_hybrid(&c, &cfg, 1);
        let (_, t4) = run_hybrid(&c, &cfg, 4);
        assert!(t4 < t1);
        assert!(
            t1 / t4 > 1.3,
            "simulated hybrid speedup too low: {}",
            t1 / t4
        );
    }
}

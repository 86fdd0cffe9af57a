//! The row-wise pin partition algorithm (§4).
//!
//! Rows are partitioned contiguously; a rank owns every cell and pin of
//! its rows. Nets are split into sub-nets at partition boundaries with
//! fake pins, and each rank then runs the whole TWGR pipeline on its
//! row-local sub-circuit:
//!
//! 1. nets are dealt to ranks with a §5 net partition; each owner builds
//!    its nets' Steiner trees and splits the segments at boundaries;
//! 2. segments travel to the rank owning their rows (all-to-all);
//! 3. each rank coarse-routes, inserts and assigns feedthroughs, and
//!    connects its sub-nets *independently* — this independence is where
//!    the algorithm's speed comes from, and also where its track-count
//!    degradation comes from (Figure 3: two ranks may each open a span
//!    the serial router would have shared);
//! 4. shared boundary channels are synchronized with the vertical
//!    neighbors, then switchable segments are optimized row-locally;
//! 5. rank 0 gathers all spans and assembles the global result.

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
use crate::route::state::{Segment, Span, WorkNet};
use crate::route::steiner::{build_segments_with, whole_net};
use crate::route::switchable::{optimize, ChannelState};
use pgr_circuit::{Circuit, RowId};
use pgr_mpi::Comm;

/// Run the row-wise algorithm on the calling rank. Returns the global
/// result on the lowest surviving rank, `None` elsewhere.
///
/// Phase boundaries are recovery checkpoints (driven by
/// [`crate::engine`]): if a fault layer's kill schedule fires at one,
/// survivors shrink the world and restart the attempt (re-deriving the
/// row partition and rank-seeded RNG streams for the smaller world), the
/// victim unwinds with `None`, and the run completes in degraded mode
/// instead of panicking.
pub fn route_rowwise(
    circuit: &Circuit,
    cfg: &RouterConfig,
    kind: PartitionKind,
    comm: &mut Comm,
) -> Option<RoutingResult> {
    try_route_rowwise(circuit, cfg, kind, comm)
        .expect("budgeted run breached its budget — use try_route_rowwise")
}

/// [`route_rowwise`], but an armed [`pgr_mpi::ResourceBudget`] breach
/// returns the agreed structured error instead of panicking.
pub fn try_route_rowwise(
    circuit: &Circuit,
    cfg: &RouterConfig,
    kind: PartitionKind,
    comm: &mut Comm,
) -> Result<Option<RoutingResult>, crate::engine::RouteError> {
    engine::drive::<RowWisePipeline>(circuit, cfg, kind, comm)
}

/// Pipeline state carried between the row-wise passes.
#[derive(Default)]
struct RowWisePipeline {
    /// Owned nets with their unsplit Steiner segments, retained (only
    /// when a checkpoint store is attached) for the portable
    /// phase-boundary snapshot.
    ckpt: Vec<(u32, Vec<Segment>)>,
    segments: Vec<Segment>,
    works: Vec<WorkNet>,
    orients: Vec<crate::route::state::Orientation>,
    coarse: Option<CoarseState>,
    plan: Option<FtPlan>,
    chip_width: i64,
    chans: Option<ChannelState>,
    spans: Vec<Span>,
    wirelength: u64,
    result: Option<RoutingResult>,
}

impl Pipeline for RowWisePipeline {
    fn pass(&mut self, phase: Phase, ctx: &mut RouteCtx<'_>, comm: &mut Comm) {
        let (circuit, cfg) = (ctx.circuit, ctx.cfg);
        match phase {
            // Front end + distribution (rank 0 is the master that read
            // the file).
            Phase::Setup => distribute(circuit, false, comm),

            // Step 1 (net-parallel): Steiner trees for owned nets, split
            // at partition boundaries, dealt to the rank owning each
            // piece's rows.
            Phase::Steiner => {
                let owners =
                    partition_nets(circuit, ctx.kind, &ctx.rows, ctx.size, cfg.pin_weight_beta);
                let owned = owners.iter().filter(|&&o| o as usize == ctx.rank).count();
                comm.metric_add(names::NETS_OWNED, owned as u64);
                let keep = comm.checkpointing();
                let mut outgoing: Vec<Vec<Segment>> = vec![Vec::new(); ctx.size];
                for net in circuit.nets_chunks().flat_map(|c| c.net_ids()) {
                    let i = net.index();
                    if owners[i] as usize != ctx.rank {
                        continue;
                    }
                    // Mandatory work: a latched breach stops local
                    // building; the alltoall below still runs (walking
                    // away would deadlock peers) and the engine aborts
                    // at the next phase boundary.
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
                let incoming = comm.alltoall(outgoing);
                self.segments = incoming.into_iter().flatten().collect();
                comm.metric_add(names::SEGMENTS_OWNED, self.segments.len() as u64);
                self.works = assemble_works(&self.segments);
            }

            // Step 2: coarse global routing on the local row band.
            Phase::Coarse => {
                comm.metric_add(names::ROWS_OWNED, ctx.nrows() as u64);
                let mut coarse =
                    CoarseState::new(ctx.row0(), ctx.nrows(), circuit.width, cfg.grid_w);
                comm.charge_alloc(coarse.modeled_bytes());
                self.orients = coarse.route(&self.segments, cfg, &mut ctx.rng, comm);
                self.coarse = Some(coarse);
            }

            // Step 3: feedthrough insertion + assignment for the local
            // rows, then the global chip width (the widest row anywhere).
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

            // Step 4: connect each sub-net independently.
            Phase::Connect => {
                comm.charge_alloc(ChannelState::modeled_bytes_for(
                    ctx.nrows() + 1,
                    self.chip_width,
                ));
                let mut arena = ConnectArena::default();
                for w in &self.works {
                    // Mandatory work: stop on a latched breach (the
                    // engine aborts at the next boundary).
                    if comm.budget_poll_abort() {
                        break;
                    }
                    let conn = connect_net_with(w, comm, &mut arena);
                    self.wirelength += conn.wirelength;
                    self.spans.extend(conn.spans);
                }
                comm.compute(cost::SPAN_APPLY * self.spans.len() as u64);
                self.chans = Some(ChannelState::from_spans(
                    ctx.row0(),
                    ctx.nrows() + 1,
                    self.chip_width,
                    &self.spans,
                    false,
                ));
            }

            // Boundary synchronization, then step 5 on the local rows.
            Phase::Switchable => {
                let chans = self.chans.as_mut().expect("connect pass ran");
                sync_boundaries(chans, &ctx.rows, comm);
                let flips = optimize(chans, &mut self.spans, cfg, &mut ctx.rng, comm);
                comm.metric_add(names::SEGMENTS_FLIPPED, flips as u64);
            }

            // Back end: gather everything at the lowest surviving rank.
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
        let owners = partition_nets(
            ctx.circuit,
            ctx.kind,
            &ctx.rows,
            ctx.size,
            ctx.cfg.pin_weight_beta,
        );
        let by_net = merge_steiner_payloads(payloads, ctx.circuit.num_nets());
        self.segments = replay_split_arrival(&by_net, &owners, &ctx.rows, ctx.size, ctx.rank);
        self.works = assemble_works(&self.segments);
        self.ckpt = owned_ckpt(&by_net, &owners, ctx.rank);
    }

    fn take_result(&mut self) -> Option<RoutingResult> {
        self.result.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::route_serial;
    use pgr_circuit::{generate, GeneratorConfig};
    use pgr_mpi::{run, MachineModel};

    fn small() -> Circuit {
        generate(&GeneratorConfig::small("rowwise-test", 11))
    }

    fn run_rowwise(circuit: &Circuit, cfg: &RouterConfig, procs: usize) -> (RoutingResult, f64) {
        let report = run(procs, MachineModel::sparc_center_1000(), |comm| {
            route_rowwise(circuit, cfg, PartitionKind::PinWeight, comm)
        });
        let result = report
            .results
            .iter()
            .flatten()
            .next()
            .expect("rank 0 returns the result")
            .clone();
        (result, report.makespan())
    }

    #[test]
    fn single_rank_matches_serial_exactly() {
        let c = small();
        let cfg = RouterConfig::with_seed(5);
        let serial = route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal()));
        let (par, _) = run_rowwise(&c, &cfg, 1);
        assert_eq!(par, serial, "P=1 row-wise is the serial algorithm");
    }

    #[test]
    fn multi_rank_connects_everything_with_bounded_degradation() {
        let c = small();
        let cfg = RouterConfig::with_seed(5);
        let serial = route_serial(&c, &cfg, &mut Comm::solo(MachineModel::ideal()));
        for procs in [2, 4] {
            let (par, _) = run_rowwise(&c, &cfg, procs);
            assert_eq!(par.channel_density.len(), c.num_rows() + 1);
            let scaled = par.scaled_tracks(&serial);
            // Small circuits are noisy in either direction; the paper's
            // ~3 % systematic degradation is a large-circuit average
            // (checked by the Table 2 benchmark, not here).
            assert!(
                (0.80..1.35).contains(&scaled),
                "P={procs}: scaled tracks {scaled} out of plausible range (serial {}, par {})",
                serial.track_count(),
                par.track_count()
            );
            assert!(par.wirelength > 0);
            assert!(par.span_count() > 0);
        }
    }

    #[test]
    fn speedup_grows_with_ranks() {
        let c = small();
        let cfg = RouterConfig::with_seed(3);
        let (_, t1) = run_rowwise(&c, &cfg, 1);
        let (_, t4) = run_rowwise(&c, &cfg, 4);
        assert!(t4 < t1, "4 ranks beat 1: {t4} vs {t1}");
        let speedup = t1 / t4;
        assert!(speedup > 1.5, "simulated speedup {speedup} too low");
    }

    #[test]
    fn deterministic_across_runs() {
        let c = small();
        let cfg = RouterConfig::with_seed(7);
        let (a, ta) = run_rowwise(&c, &cfg, 3);
        let (b, tb) = run_rowwise(&c, &cfg, 3);
        assert_eq!(a, b);
        assert_eq!(ta, tb, "virtual time is deterministic");
    }

    #[test]
    fn memory_is_partitioned() {
        let c = small();
        let cfg = RouterConfig::with_seed(1);
        let solo = run(1, MachineModel::sparc_center_1000(), |comm| {
            route_rowwise(&c, &cfg, PartitionKind::PinWeight, comm)
        });
        let four = run(4, MachineModel::sparc_center_1000(), |comm| {
            route_rowwise(&c, &cfg, PartitionKind::PinWeight, comm)
        });
        // Non-root ranks hold roughly a quarter of the serial footprint.
        let serial_mem = solo.stats[0].peak_mem;
        let worker_mem = four.stats[1..].iter().map(|s| s.peak_mem).max().unwrap();
        assert!(
            worker_mem < serial_mem * 2 / 3,
            "worker {worker_mem} vs serial {serial_mem}"
        );
    }
}

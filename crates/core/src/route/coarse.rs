//! Step 2: coarse global routing.
//!
//! "The core is partitioned into a coarse global routing grid. Each
//! segment is assumed to be routed by some one bend L-shaped wire. To
//! reduce the order dependence of the segments processed, a segment is
//! randomly picked from the whole segment pool. By evaluating the needed
//! feedthrough number and the channel density change when the side of an
//! L shaped segment is switched, the L shape for this segment can be
//! determined." (§2)
//!
//! [`CoarseState`] holds the grid-resolution channel-density profiles and
//! the per-(row, grid-column) feedthrough demand. The improvement loop
//! scores both L orientations of one segment (density delta plus
//! feedthrough crowding) and moves the segment to the better one. The
//! state optionally logs deltas so the net-wise parallel algorithm can
//! synchronize replicated copies (§5).
//!
//! The coarse grid is narrow (avq.large: 293 grid columns, spans 11
//! columns on average), so each channel is a flat per-column count array
//! with its cached peak and the number of columns at the peak. Both
//! scores a sweep needs are then O(span) scans with one comparison per
//! column, which beats the O(log W) recursive range-max walks of a lazy
//! segment tree at this width (about 80 ns against 500–700 ns per
//! segment measured on avq.large). The segment tree
//! ([`pgr_geom::DensityProfile`]) stays for step 5, whose channels are
//! full-resolution (8,365 columns on avq.large).
//!
//! Every segment is reduced once per phase to a [`SegRec`]: its
//! grid-column span, the channel and vertical grid column of each
//! orientation, and its demand-row range. Demand is stored column-major,
//! so the crowding along a vertical is one contiguous slice sum.

use crate::config::RouterConfig;
use crate::cost;
use crate::route::state::{Orientation, Segment};
use pgr_geom::rng::SmallRng;
use pgr_mpi::Comm;

/// Delta log for replicated-state synchronization: per-channel
/// grid-column count changes and per-row feedthrough demand changes
/// since the last [`CoarseState::take_deltas`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoarseDeltas {
    /// `chan[c][g]` — change of channel `chan0 + c` at grid column `g`.
    pub chan: Vec<Vec<i64>>,
    /// `demand[r][g]` — change of row `row0 + r` at grid column `g`.
    pub demand: Vec<Vec<i64>>,
}

impl CoarseDeltas {
    fn zero(nchan: usize, nrows: usize, gcols: usize) -> Self {
        CoarseDeltas {
            chan: vec![vec![0; gcols]; nchan],
            demand: vec![vec![0; gcols]; nrows],
        }
    }

    pub fn is_zero(&self) -> bool {
        self.chan.iter().all(|v| v.iter().all(|&x| x == 0))
            && self.demand.iter().all(|v| v.iter().all(|&x| x == 0))
    }

    /// Elementwise sum (the allreduce combiner).
    pub fn merged_with(mut self, other: CoarseDeltas) -> CoarseDeltas {
        for (a, b) in self.chan.iter_mut().zip(&other.chan) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }
        for (a, b) in self.demand.iter_mut().zip(&other.demand) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += *y;
            }
        }
        self
    }

    /// Elementwise difference: `self - other` (to exclude a rank's own
    /// contribution from an allreduced total).
    pub fn minus(mut self, other: &CoarseDeltas) -> CoarseDeltas {
        for (a, b) in self.chan.iter_mut().zip(&other.chan) {
            for (x, y) in a.iter_mut().zip(b) {
                *x -= *y;
            }
        }
        for (a, b) in self.demand.iter_mut().zip(&other.demand) {
            for (x, y) in a.iter_mut().zip(b) {
                *x -= *y;
            }
        }
        self
    }
}

impl pgr_mpi::Wire for CoarseDeltas {
    fn encode(&self, out: &mut Vec<u8>) {
        self.chan.encode(out);
        self.demand.encode(out);
    }
    fn decode(r: &mut pgr_mpi::Reader<'_>) -> Result<Self, pgr_mpi::WireError> {
        Ok(CoarseDeltas {
            chan: Vec::decode(r)?,
            demand: Vec::decode(r)?,
        })
    }
}

/// One channel at grid resolution: per-column density with its peak and
/// the number of columns at the peak kept exact under every update.
#[derive(Debug, Clone)]
struct GridChannel {
    counts: Vec<i64>,
    peak: i64,
    peak_mult: usize,
}

impl GridChannel {
    fn new(gcols: usize) -> Self {
        GridChannel {
            counts: vec![0; gcols],
            peak: 0,
            peak_mult: gcols,
        }
    }

    /// Recompute the peak and its multiplicity from the counts.
    fn recount(&mut self) {
        self.peak = *self.counts.iter().max().expect("at least one grid column");
        self.peak_mult = self.counts.iter().filter(|&&c| c == self.peak).count();
    }

    /// Add `sign` (±1) over the columns `lo..=hi`. An increment that
    /// lifts any column above the peak makes those columns the new peak;
    /// a decrement needs a recount only when it lowers every peak column.
    fn add_unit(&mut self, lo: usize, hi: usize, sign: i64) {
        let peak = self.peak;
        let span = &mut self.counts[lo..=hi];
        if sign > 0 {
            let (mut above, mut at) = (0, 0);
            for c in span {
                *c += 1;
                if *c > peak {
                    above += 1;
                } else if *c == peak {
                    at += 1;
                }
            }
            if above > 0 {
                self.peak = peak + 1;
                self.peak_mult = above;
            } else {
                self.peak_mult += at;
            }
        } else {
            debug_assert_eq!(sign, -1, "coarse updates are unit spans");
            let mut lowered = 0;
            for c in span {
                lowered += usize::from(*c == peak);
                *c -= 1;
            }
            if lowered == self.peak_mult {
                self.recount();
            } else {
                self.peak_mult -= lowered;
            }
        }
    }

    /// Peak rise of re-adding a unit span over `lo..=hi` after
    /// withdrawing it: with `without = max(max_in − 1, max_out)` this is
    /// 1 exactly when the span covers every peak column.
    fn rise_if_withdrawn(&self, lo: usize, hi: usize) -> i64 {
        let span = &self.counts[lo..=hi];
        if span.len() < self.peak_mult {
            return 0;
        }
        let covered = span.iter().filter(|&&c| c == self.peak).count();
        i64::from(covered == self.peak_mult)
    }

    /// Peak rise of adding a unit span over `lo..=hi`:
    /// `max(peak, max_in + 1) − peak` is 1 exactly when the span touches
    /// a peak column.
    fn rise_if_added(&self, lo: usize, hi: usize) -> i64 {
        i64::from(self.counts[lo..=hi].contains(&self.peak))
    }
}

/// A segment reduced to what the coarse router reads, computed once per
/// phase. Per-orientation arrays are indexed by [`orient_idx`].
#[derive(Debug, Clone, Copy)]
struct SegRec {
    glo: u32,
    ghi: u32,
    /// Channel index (relative to `chan0`) of the horizontal run.
    chan: [u32; 2],
    /// Grid column of the vertical run.
    gcol: [u32; 2],
    /// Demand rows `r0..r1`, relative to `row0`.
    r0: u32,
    r1: u32,
    cross: bool,
}

fn orient_idx(orient: Orientation) -> usize {
    match orient {
        Orientation::VertAtLower => 0,
        Orientation::VertAtUpper => 1,
    }
}

/// Coarse-grid routing state over channels `chan0 ..= chan0 + nchan - 1`
/// and rows `row0 ..= row0 + nrows - 1`.
pub struct CoarseState {
    grid_w: i64,
    gcols: usize,
    chan0: u32,
    row0: u32,
    nrows: usize,
    channels: Vec<GridChannel>,
    /// Feedthrough demand, column-major: `dem[g * nrows + r]`.
    dem: Vec<i64>,
    /// Records of the segments passed to [`Self::init_random`].
    recs: Vec<SegRec>,
    log: Option<CoarseDeltas>,
}

impl CoarseState {
    /// State covering `nrows` rows starting at `row0` (hence `nrows + 1`
    /// channels starting at `row0`), over a core `width` columns wide.
    pub fn new(row0: u32, nrows: usize, width: i64, grid_w: i64) -> Self {
        assert!(nrows > 0 && width > 0 && grid_w > 0);
        let gcols = ((width + grid_w - 1) / grid_w).max(1) as usize;
        CoarseState {
            grid_w,
            gcols,
            chan0: row0,
            row0,
            nrows,
            channels: vec![GridChannel::new(gcols); nrows + 1],
            dem: vec![0; gcols * nrows],
            recs: Vec::new(),
            log: None,
        }
    }

    pub fn gcols(&self) -> usize {
        self.gcols
    }

    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    pub fn num_rows(&self) -> usize {
        self.nrows
    }

    /// Modeled memory footprint (for the per-node memory gate).
    pub fn modeled_bytes(&self) -> u64 {
        (self.channels.len() as u64 * 2 + self.nrows as u64) * self.gcols as u64 * 16
    }

    /// Start logging deltas for replicated-state sync.
    pub fn enable_logging(&mut self) {
        self.log = Some(CoarseDeltas::zero(
            self.channels.len(),
            self.nrows,
            self.gcols,
        ));
    }

    /// Drain the delta log (resets it to zero).
    pub fn take_deltas(&mut self) -> CoarseDeltas {
        let fresh = CoarseDeltas::zero(self.channels.len(), self.nrows, self.gcols);
        std::mem::replace(self.log.as_mut().expect("logging enabled"), fresh)
    }

    /// Apply another rank's deltas (not logged). Charges a scan over the
    /// delta arrays plus per-nonzero update work.
    pub fn merge_external(&mut self, d: &CoarseDeltas, comm: &mut Comm) {
        self.merge(d, None, comm);
    }

    /// Apply another rank's deltas under snapshot-overwrite semantics:
    /// a remote *density* update to a grid cell this rank also wrote
    /// since the last sync (`own` nonzero there) is **dropped** — the
    /// write-write conflict resolution of a periodic full-state
    /// exchange. Lost updates under-count congestion on exactly the
    /// contended cells, which is the net-wise algorithm's quality
    /// failure mode (§5). Feedthrough *demand* merges exactly — it is
    /// physical bookkeeping the row owners keep authoritative, and an
    /// inconsistent copy would desynchronize insertion, not just degrade
    /// decisions.
    pub fn merge_external_masked(&mut self, d: &CoarseDeltas, own: &CoarseDeltas, comm: &mut Comm) {
        self.merge(d, Some(own), comm);
    }

    /// Add `d` per column (density updates masked by `own` where given),
    /// recounting each touched channel's peak once.
    fn merge(&mut self, d: &CoarseDeltas, own: Option<&CoarseDeltas>, comm: &mut Comm) {
        assert_eq!(d.chan.len(), self.channels.len());
        assert_eq!(d.demand.len(), self.nrows);
        let mut nonzero = 0u64;
        for (ci, (ch, dc)) in self.channels.iter_mut().zip(&d.chan).enumerate() {
            let before = nonzero;
            for (g, &v) in dc.iter().enumerate() {
                if v != 0 && own.is_none_or(|o| o.chan[ci][g] == 0) {
                    nonzero += 1;
                    ch.counts[g] += v;
                }
            }
            if nonzero != before {
                ch.recount();
            }
        }
        for (r, dr) in d.demand.iter().enumerate() {
            for (g, &v) in dr.iter().enumerate() {
                if v != 0 {
                    nonzero += 1;
                }
                self.dem[g * self.nrows + r] += v;
            }
        }
        let entries = ((d.chan.len() + d.demand.len()) * self.gcols) as u64;
        comm.compute(entries / 8 + cost::MERGE_COL * nonzero);
    }

    fn gcol(&self, x: i64) -> u32 {
        (x / self.grid_w).clamp(0, self.gcols as i64 - 1) as u32
    }

    fn chan_idx(&self, channel: u32) -> u32 {
        let i = channel
            .checked_sub(self.chan0)
            .expect("channel below range");
        assert!(
            (i as usize) < self.channels.len(),
            "channel {channel} above range"
        );
        i
    }

    fn row_idx(&self, row: u32) -> u32 {
        let i = row.checked_sub(self.row0).expect("row below range");
        assert!((i as usize) < self.nrows, "row {row} above range");
        i
    }

    /// Reduce `seg` to its record; panics if either shape's channel or a
    /// demand row lies outside this state's range.
    fn record(&self, seg: &Segment) -> SegRec {
        let (lo, hi) = seg.x_span();
        let cross = seg.is_cross_row();
        let chan = if cross {
            [
                seg.horizontal_channel(Orientation::VertAtLower),
                seg.horizontal_channel(Orientation::VertAtUpper),
            ]
        } else {
            [seg.same_row_channel(); 2]
        };
        let rows = seg.demand_rows();
        let (r0, r1) = if rows.is_empty() {
            (0, 0)
        } else {
            (self.row_idx(rows.start), self.row_idx(rows.end - 1) + 1)
        };
        SegRec {
            glo: self.gcol(lo),
            ghi: self.gcol(hi),
            chan: chan.map(|c| self.chan_idx(c)),
            gcol: [
                self.gcol(seg.vertical_x(Orientation::VertAtLower)),
                self.gcol(seg.vertical_x(Orientation::VertAtUpper)),
            ],
            r0,
            r1,
            cross,
        }
    }

    fn apply_rec(&mut self, rec: &SegRec, oi: usize, sign: i64) {
        let (lo, hi) = (rec.glo as usize, rec.ghi as usize);
        let (ci, g) = (rec.chan[oi] as usize, rec.gcol[oi] as usize);
        let (r0, r1) = (rec.r0 as usize, rec.r1 as usize);
        self.channels[ci].add_unit(lo, hi, sign);
        let base = g * self.nrows;
        for v in &mut self.dem[base + r0..base + r1] {
            *v += sign;
        }
        if let Some(log) = &mut self.log {
            for v in &mut log.chan[ci][lo..=hi] {
                *v += sign;
            }
            for row in &mut log.demand[r0..r1] {
                row[g] += sign;
            }
        }
    }

    /// Add (`sign = 1`) or remove (`sign = -1`) a segment routed with
    /// `orient` from the coarse state.
    pub fn apply(&mut self, seg: &Segment, orient: Orientation, sign: i64) {
        let rec = self.record(seg);
        self.apply_rec(&rec, orient_idx(orient), sign);
    }

    /// Reduce `segments` to records, initialize orientations randomly
    /// (cross-row) and insert every segment into the state. Same-row
    /// segments get their side-derived channel and a placeholder
    /// orientation. Later [`Self::improve_slice`] calls index these
    /// segments.
    pub fn init_random(
        &mut self,
        segments: &[Segment],
        rng: &mut SmallRng,
        comm: &mut Comm,
    ) -> Vec<Orientation> {
        comm.compute(cost::COARSE_APPLY * segments.len() as u64);
        let recs: Vec<SegRec> = segments.iter().map(|seg| self.record(seg)).collect();
        let orients = recs
            .iter()
            .map(|rec| {
                let orient = if rec.cross && rng.gen_bool(0.5) {
                    Orientation::VertAtUpper
                } else {
                    Orientation::VertAtLower
                };
                self.apply_rec(rec, orient_idx(orient), 1);
                orient
            })
            .collect();
        self.recs = recs;
        orients
    }

    /// One improvement sweep over `order` (indices into the segments of
    /// [`Self::init_random`]). Re-decides each cross-row segment's L
    /// shape; returns how many changed. Same-row indices are skipped
    /// (their channel is step 5's business).
    ///
    /// The sweep scores both shapes from the *current* state instead of
    /// physically removing and re-inserting the segment: the withdrawn
    /// channel's peak rise is [`GridChannel::rise_if_withdrawn`], and
    /// withdrawn feedthrough demand is the stored count minus one at the
    /// segment's present vertical column. The arithmetic reproduces the
    /// remove-eval-reinsert numbers exactly (same i64 peaks, same
    /// integer-valued f64 sums), so decisions — and the virtual-clock
    /// charges — are unchanged; the state mutates only when a segment
    /// actually flips.
    pub fn improve_slice(
        &mut self,
        orients: &mut [Orientation],
        order: &[u32],
        cfg: &RouterConfig,
        comm: &mut Comm,
    ) -> usize {
        let mut changed = 0;
        let mut ops = 0u64;
        let nrows = self.nrows;
        for &i in order {
            let rec = self.recs[i as usize];
            if !rec.cross {
                continue;
            }
            let cur = orients[i as usize];
            let ci = orient_idx(cur);
            let (lo, hi) = (rec.glo as usize, rec.ghi as usize);
            let (r0, r1) = (rec.r0 as usize, rec.r1 as usize);
            let rise_cur = self.channels[rec.chan[ci] as usize].rise_if_withdrawn(lo, hi);
            let cost_of = |oi: usize| -> f64 {
                let density_rise = if rec.chan[oi] == rec.chan[ci] {
                    // Adjacent-row segments share one channel for both
                    // shapes; reuse the withdrawn-state rise.
                    rise_cur
                } else {
                    self.channels[rec.chan[oi] as usize].rise_if_added(lo, hi)
                } as f64;
                let g = rec.gcol[oi] as usize;
                let base = g * nrows;
                let mut demand: i64 = self.dem[base + r0..base + r1].iter().sum();
                if rec.gcol[oi] == rec.gcol[ci] {
                    demand -= (r1 - r0) as i64;
                }
                cfg.w_density * density_rise + cfg.w_feedthrough * demand as f64
            };
            let c_lower = cost_of(0);
            let c_upper = cost_of(1);
            ops += 2 * cost::COARSE_EVAL + 2 * cost::COARSE_APPLY;
            // Strict improvement only, so sweeps converge instead of
            // oscillating between equal-cost shapes.
            let best = match cur {
                Orientation::VertAtLower if c_upper < c_lower => Orientation::VertAtUpper,
                Orientation::VertAtUpper if c_lower < c_upper => Orientation::VertAtLower,
                _ => cur,
            };
            if best != cur {
                changed += 1;
                self.apply_rec(&rec, ci, -1);
                orients[i as usize] = best;
                self.apply_rec(&rec, orient_idx(best), 1);
            }
        }
        comm.compute(ops);
        changed
    }

    /// The full serial driver: random init plus up to `coarse_passes`
    /// randomly ordered improvement sweeps with early exit.
    pub fn route(
        &mut self,
        segments: &[Segment],
        cfg: &RouterConfig,
        rng: &mut SmallRng,
        comm: &mut Comm,
    ) -> Vec<Orientation> {
        let mut orients = self.init_random(segments, rng, comm);
        for _ in 0..cfg.coarse_passes {
            let order = pgr_geom::shuffled_indices(segments.len(), rng);
            // The improvement sweeps are *optional* refinement: under an
            // armed budget each sweep runs in chunks with a shed poll
            // between them (and one after the last, so an overrun inside
            // the final chunk registers as a shed — not as a hard breach
            // at the next phase boundary), dropping the remaining
            // iterations when the phase overruns. Unbudgeted runs take
            // the single-call path — bit-identical (virtual clock
            // included) to the pre-budget code.
            let changed = if comm.budget_limited() {
                let chunk_len = crate::route::shed_chunk_len(order.len());
                let mut changed = 0;
                let mut shed = false;
                for chunk in order.chunks(chunk_len) {
                    if comm.budget_poll_shed() {
                        shed = true;
                        break;
                    }
                    changed += self.improve_slice(&mut orients, chunk, cfg, comm);
                }
                if !shed && !order.is_empty() {
                    comm.budget_poll_shed();
                }
                changed
            } else {
                self.improve_slice(&mut orients, &order, cfg, comm)
            };
            if changed == 0 {
                break;
            }
        }
        orients
    }

    /// Peak density of a channel (grid resolution).
    pub fn channel_max(&self, channel: u32) -> i64 {
        self.channels[self.chan_idx(channel) as usize].peak
    }

    /// Feedthrough demand, indexed `[row - row0][gcol]`.
    pub fn demand(&self) -> Vec<Vec<i64>> {
        (0..self.nrows)
            .map(|r| {
                (0..self.gcols)
                    .map(|g| self.dem[g * self.nrows + r])
                    .collect()
            })
            .collect()
    }

    /// Consume the state, returning the demand grid for step 3.
    pub fn into_demand(self) -> Vec<Vec<i64>> {
        self.demand()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::state::Node;
    use pgr_circuit::NetId;
    use pgr_geom::rng::rng_from_seed;
    use pgr_mpi::MachineModel;

    fn comm() -> Comm {
        Comm::solo(MachineModel::ideal())
    }

    /// Cost of inserting `seg` with `orient` into the current state (the
    /// segment must currently be removed): the historical scorer, with
    /// the peak rise taken from the raw counts as
    /// `max(peak, max_in + 1) − peak` rather than from cached peaks.
    fn eval(st: &CoarseState, seg: &Segment, orient: Orientation, cfg: &RouterConfig) -> f64 {
        let rec = st.record(seg);
        let oi = orient_idx(orient);
        let counts = &st.channels[rec.chan[oi] as usize].counts;
        let peak = *counts.iter().max().unwrap();
        let max_in = *counts[rec.glo as usize..=rec.ghi as usize]
            .iter()
            .max()
            .unwrap();
        let density_rise = (peak.max(max_in + 1) - peak) as f64;
        let g = rec.gcol[oi] as usize;
        let mut crowding = 0.0;
        for r in rec.r0..rec.r1 {
            crowding += st.dem[g * st.nrows + r as usize] as f64;
        }
        cfg.w_density * density_rise + cfg.w_feedthrough * crowding
    }

    /// Plain pin-endpoint segment: demand rows == strictly-crossed rows.
    fn seg(x1: i64, r1: u32, x2: i64, r2: u32) -> Segment {
        use crate::route::state::ChannelPref;
        Segment::new(
            NetId(0),
            Node::pin(0, x1, r1, ChannelPref::Either),
            Node::pin(1, x2, r2, ChannelPref::Either),
        )
    }

    #[test]
    fn apply_and_remove_are_inverse() {
        let mut st = CoarseState::new(0, 4, 64, 8);
        let s = seg(0, 0, 40, 3);
        st.apply(&s, Orientation::VertAtLower, 1);
        assert_eq!(st.channel_max(3), 1);
        assert_eq!(st.demand()[1][0], 1, "crossing rows 1,2 at gcol 0");
        assert_eq!(st.demand()[2][0], 1);
        st.apply(&s, Orientation::VertAtLower, -1);
        assert_eq!(st.channel_max(3), 0);
        assert!(st.demand().iter().all(|r| r.iter().all(|&d| d == 0)));
    }

    #[test]
    fn orientations_use_different_channels_and_columns() {
        let mut st = CoarseState::new(0, 4, 64, 8);
        let s = seg(0, 0, 40, 3);
        st.apply(&s, Orientation::VertAtUpper, 1);
        assert_eq!(st.channel_max(1), 1, "horizontal just above row 0");
        assert_eq!(st.channel_max(3), 0);
        assert_eq!(st.demand()[1][5], 1, "vertical at x=40 → gcol 5");
        assert_eq!(st.demand()[1][0], 0);
    }

    #[test]
    fn same_row_segment_only_adds_density() {
        let mut st = CoarseState::new(0, 2, 32, 8);
        let s = seg(0, 1, 16, 1);
        st.apply(&s, Orientation::VertAtLower, 1);
        assert_eq!(
            st.channel_max(1),
            1,
            "either-pref defaults to lower channel"
        );
        assert!(st.demand().iter().all(|r| r.iter().all(|&d| d == 0)));
    }

    #[test]
    fn eval_scores_peak_rise_not_raw_density() {
        let mut st = CoarseState::new(0, 3, 64, 8);
        let cfg = RouterConfig {
            w_feedthrough: 0.0,
            ..Default::default()
        };
        let s = seg(0, 0, 40, 2);
        // Channel 2 (VertAtLower's horizontal) is covered exactly where s
        // would go: its peak must rise.
        for _ in 0..2 {
            st.apply(&seg(0, 1, 60, 2), Orientation::VertAtLower, 1);
        }
        // Channel 1 (VertAtUpper's horizontal) has a higher peak, but
        // only *outside* s's extent — adding s into its valley is free.
        // A same-row segment on row 1 with Lower-preferring endpoints
        // lands in channel 1.
        let mut hi = Node::fake(56, 1);
        hi.pref = crate::route::state::ChannelPref::Lower;
        let mut hi2 = Node::fake(63, 1);
        hi2.pref = crate::route::state::ChannelPref::Lower;
        let off = Segment::new(NetId(1), hi, hi2);
        for _ in 0..5 {
            st.apply(&off, Orientation::VertAtLower, 1);
        }
        let lower = eval(&st, &s, Orientation::VertAtLower, &cfg);
        let upper = eval(&st, &s, Orientation::VertAtUpper, &cfg);
        assert_eq!(lower, 1.0, "covered channel: peak rises");
        assert_eq!(
            upper, 0.0,
            "peak is elsewhere: adding in the valley is free"
        );
        assert!(upper < lower);
    }

    #[test]
    fn eval_penalizes_feedthrough_crowding() {
        let mut st = CoarseState::new(0, 5, 64, 8);
        let cfg = RouterConfig {
            w_density: 0.0,
            w_feedthrough: 1.0,
            ..Default::default()
        };
        // Pile demand at (row 2, gcol 0) — where VertAtLower of s would go.
        for _ in 0..4 {
            st.apply(&seg(0, 1, 0, 3), Orientation::VertAtLower, 1);
        }
        let s = seg(0, 0, 40, 4);
        let lower = eval(&st, &s, Orientation::VertAtLower, &cfg);
        let upper = eval(&st, &s, Orientation::VertAtUpper, &cfg);
        assert!(upper < lower, "vertical at x=40 avoids the crowded column");
    }

    #[test]
    fn route_converges_and_reduces_peak() {
        let mut rng = rng_from_seed(1);
        let mut cm = comm();
        // Pure density objective: with unit spans the peak is then
        // provably non-increasing under the strict-improvement rule.
        let cfg = RouterConfig {
            w_feedthrough: 0.0,
            ..Default::default()
        };
        // Many parallel segments between rows 0 and 2 at staggered x:
        // random init stacks some channels; improvement should spread load
        // across channels 1 and 2.
        let segs: Vec<Segment> = (0..40).map(|i| seg(i * 3, 0, i * 3 + 30, 2)).collect();
        let mut st = CoarseState::new(0, 3, 160, 8);
        let init: Vec<Orientation> = {
            let mut s2 = CoarseState::new(0, 3, 160, 8);
            s2.init_random(&segs, &mut rng_from_seed(1), &mut comm())
        };
        let init_peak = {
            let mut s2 = CoarseState::new(0, 3, 160, 8);
            for (s, &o) in segs.iter().zip(&init) {
                s2.apply(s, o, 1);
            }
            s2.channel_max(1).max(s2.channel_max(2))
        };
        let orients = st.route(&segs, &cfg, &mut rng, &mut cm);
        let final_peak = st.channel_max(1).max(st.channel_max(2));
        assert!(
            final_peak <= init_peak,
            "improvement never worsens the peak: {final_peak} vs {init_peak}"
        );
        assert_eq!(orients.len(), segs.len());
        // Load must be split: neither channel takes everything.
        assert!(
            st.channel_max(1) > 0 && st.channel_max(2) > 0,
            "both channels used"
        );
    }

    #[test]
    fn route_is_deterministic_per_seed() {
        let cfg = RouterConfig::default();
        let segs: Vec<Segment> = (0..25).map(|i| seg(i * 5, 0, 120 - i * 4, 2)).collect();
        let run = |seed| {
            let mut st = CoarseState::new(0, 3, 160, 8);
            let o = st.route(&segs, &cfg, &mut rng_from_seed(seed), &mut comm());
            (o, st.channel_max(1), st.channel_max(2))
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn fake_endpoints_demand_their_own_rows() {
        // A partition-boundary piece passes *through* its fake rows, so
        // they need feedthroughs too (the pieces of a split edge must
        // tile the serial edge's demand).
        let mut st = CoarseState::new(0, 4, 64, 8);
        let piece = Segment::new(NetId(0), Node::fake(0, 1), Node::fake(0, 3));
        st.apply(&piece, Orientation::VertAtLower, 1);
        assert_eq!(st.demand()[1][0], 1, "fake lower endpoint row");
        assert_eq!(st.demand()[2][0], 1, "strictly-crossed row");
        assert_eq!(st.demand()[3][0], 1, "fake upper endpoint row");
        assert_eq!(st.demand()[0][0], 0);
        st.apply(&piece, Orientation::VertAtLower, -1);
        assert!(st.demand().iter().all(|r| r.iter().all(|&d| d == 0)));
    }

    #[test]
    fn delta_logging_captures_changes() {
        let mut st = CoarseState::new(0, 3, 64, 8);
        st.enable_logging();
        let s = seg(0, 0, 40, 2);
        st.apply(&s, Orientation::VertAtLower, 1);
        let d = st.take_deltas();
        assert!(!d.is_zero());
        assert_eq!(d.chan[2][0], 1, "channel 2 gcol 0 gained a span");
        assert_eq!(d.demand[1][0], 1);
        assert!(st.take_deltas().is_zero(), "drained");
    }

    #[test]
    fn merge_external_reproduces_remote_state() {
        // Rank A applies a segment with logging; rank B merges the deltas
        // and must end up with identical probe results.
        let s = seg(8, 0, 40, 2);
        let mut a = CoarseState::new(0, 3, 64, 8);
        a.enable_logging();
        a.apply(&s, Orientation::VertAtUpper, 1);
        let d = a.take_deltas();

        let mut b = CoarseState::new(0, 3, 64, 8);
        b.merge_external(&d, &mut comm());
        for ch in 0..=3 {
            assert_eq!(a.channel_max(ch), b.channel_max(ch), "channel {ch}");
        }
        assert_eq!(a.demand(), b.demand());
    }

    #[test]
    fn deltas_add_and_sub() {
        let mut a = CoarseDeltas::zero(2, 1, 4);
        a.chan[0][1] = 3;
        let mut b = CoarseDeltas::zero(2, 1, 4);
        b.chan[0][1] = 2;
        b.demand[0][0] = 5;
        let sum = a.clone().merged_with(b.clone());
        assert_eq!(sum.chan[0][1], 5);
        assert_eq!(sum.demand[0][0], 5);
        let diff = sum.minus(&b);
        assert_eq!(diff, a);
    }

    #[test]
    fn offset_ranges_map_channels_and_rows() {
        // Rows 4..8 → channels 4..=8.
        let mut st = CoarseState::new(4, 4, 64, 8);
        let s = seg(0, 4, 20, 7);
        st.apply(&s, Orientation::VertAtLower, 1);
        assert_eq!(st.channel_max(7), 1);
        assert_eq!(st.demand()[1][0], 1, "row 5 is demand[1]");
        assert_eq!(st.demand()[2][0], 1, "row 6 is demand[2]");
    }

    #[test]
    #[should_panic(expected = "channel below range")]
    fn out_of_range_channel_panics() {
        let st = CoarseState::new(4, 4, 64, 8);
        st.channel_max(3);
    }

    /// The historical remove-eval-reinsert sweep the incremental one
    /// must reproduce.
    fn reference_sweep(
        st: &mut CoarseState,
        segs: &[Segment],
        orients: &mut [Orientation],
        order: &[u32],
        cfg: &RouterConfig,
    ) -> usize {
        let mut changed = 0;
        for &i in order {
            let s = &segs[i as usize];
            if !s.is_cross_row() {
                continue;
            }
            let cur = orients[i as usize];
            st.apply(s, cur, -1);
            let c_lower = eval(st, s, Orientation::VertAtLower, cfg);
            let c_upper = eval(st, s, Orientation::VertAtUpper, cfg);
            let best = match cur {
                Orientation::VertAtLower if c_upper < c_lower => Orientation::VertAtUpper,
                Orientation::VertAtUpper if c_lower < c_upper => Orientation::VertAtLower,
                _ => cur,
            };
            if best != cur {
                changed += 1;
                orients[i as usize] = best;
            }
            st.apply(s, best, 1);
        }
        changed
    }

    type Snapshot = (Vec<(Vec<i64>, i64, usize)>, Vec<i64>);

    fn snapshot(st: &CoarseState) -> Snapshot {
        let chans = st
            .channels
            .iter()
            .map(|c| (c.counts.clone(), c.peak, c.peak_mult))
            .collect();
        (chans, st.dem.clone())
    }

    #[test]
    fn incremental_sweep_matches_remove_reinsert_reference() {
        // The incremental scorer must make the same choices as the
        // historical remove-eval-reinsert sweep, including adjacent-row
        // segments (both shapes share one channel) and shared vertical
        // columns, and leave identical state and deltas behind — as one
        // call, in the budget path's chunks, and in net-wise sync rounds
        // that drain the delta log between chunks.
        let mut rng = rng_from_seed(0xC0A5);
        let segs: Vec<Segment> = (0..60)
            .map(|_| {
                let r1 = rng.gen_range(0..5u32);
                let r2 = rng.gen_range(0..5u32);
                let x1 = rng.gen_range(0..150i64);
                let x2 = rng.gen_range(0..150i64);
                seg(x1, r1.min(r2), x2, r1.max(r2))
            })
            .collect();
        let cfg = RouterConfig::default();
        let build = || {
            let mut st = CoarseState::new(0, 6, 160, 8);
            st.enable_logging();
            let init = st.init_random(&segs, &mut rng_from_seed(7), &mut comm());
            st.take_deltas();
            (st, init)
        };
        let order: Vec<u32> = (0..segs.len() as u32).collect();

        let (mut st_ref, mut or_ref) = build();
        let changed_ref = reference_sweep(&mut st_ref, &segs, &mut or_ref, &order, &cfg);
        let deltas_ref = st_ref.take_deltas();
        assert!(changed_ref > 0, "instance must exercise the flip path");

        let (mut st, mut or) = build();
        let changed = st.improve_slice(&mut or, &order, &cfg, &mut comm());
        assert_eq!(changed, changed_ref);
        assert_eq!(or, or_ref);
        assert_eq!(snapshot(&st), snapshot(&st_ref));
        assert_eq!(
            st.take_deltas(),
            deltas_ref,
            "aggregated delta arrays must cancel identically"
        );

        let chunked = |chunk_len: usize, drain: bool| {
            let (mut st, mut or) = build();
            let mut changed = 0;
            let mut deltas = CoarseDeltas::zero(st.num_channels(), st.num_rows(), st.gcols());
            for chunk in order.chunks(chunk_len) {
                changed += st.improve_slice(&mut or, chunk, &cfg, &mut comm());
                if drain {
                    deltas = deltas.merged_with(st.take_deltas());
                }
            }
            deltas = deltas.merged_with(st.take_deltas());
            (changed, or, snapshot(&st), deltas)
        };
        let want = (changed_ref, or_ref, snapshot(&st_ref), deltas_ref);
        assert_eq!(
            chunked(crate::route::shed_chunk_len(order.len()), false),
            want
        );
        assert_eq!(chunked(7, true), want, "net-wise sync rounds");
    }

    #[test]
    fn budget_chunked_route_matches_reference_passes() {
        // `route()` under an armed budget that never trips takes the
        // chunked path; it must make the same decisions as the
        // unbudgeted single-call path and the reference sweep.
        let mut rng = rng_from_seed(0xB0D6);
        let segs: Vec<Segment> = (0..300)
            .map(|_| {
                let r1 = rng.gen_range(0..7u32);
                let r2 = rng.gen_range(0..7u32);
                seg(
                    rng.gen_range(0..200i64),
                    r1.min(r2),
                    rng.gen_range(0..200i64),
                    r1.max(r2),
                )
            })
            .collect();
        let cfg = RouterConfig::default();
        let run = |budget: bool| {
            let mut cm = comm();
            if budget {
                cm.set_budget(pgr_mpi::ResourceBudget {
                    max_phase_seconds: Some(1e12),
                    ..pgr_mpi::ResourceBudget::unlimited()
                });
            }
            assert_eq!(cm.budget_limited(), budget);
            let mut st = CoarseState::new(0, 7, 200, 8);
            st.enable_logging();
            let or = st.route(&segs, &cfg, &mut rng_from_seed(3), &mut cm);
            let d = st.take_deltas();
            (or, snapshot(&st), d)
        };
        let reference = {
            let mut rng = rng_from_seed(3);
            let mut st = CoarseState::new(0, 7, 200, 8);
            st.enable_logging();
            let mut or = st.init_random(&segs, &mut rng, &mut comm());
            for _ in 0..cfg.coarse_passes {
                let order = pgr_geom::shuffled_indices(segs.len(), &mut rng);
                if reference_sweep(&mut st, &segs, &mut or, &order, &cfg) == 0 {
                    break;
                }
            }
            let d = st.take_deltas();
            (or, snapshot(&st), d)
        };
        assert_eq!(run(false), reference);
        assert_eq!(run(true), reference);
    }

    #[test]
    fn modeled_bytes_is_pinned() {
        // The virtual peak-memory model must not follow the storage
        // layout: 5 rows → 6 channels, 160 columns / 8 → 20 grid columns.
        let st = CoarseState::new(2, 5, 160, 8);
        assert_eq!(st.modeled_bytes(), 5_440);
        assert_eq!(CoarseState::new(0, 86, 8365, 32).modeled_bytes(), 1_089_920);
    }

    /// Drive a [`GridChannel`] and a [`DensityProfile`] through the same
    /// updates and check the cached peak, its multiplicity, both rise
    /// scores and the counts against the tree after every step.
    fn check_against_tree(width: usize, seed: u64) {
        use pgr_geom::DensityProfile;
        let mut rng = rng_from_seed(seed);
        let mut flat = GridChannel::new(width);
        let mut tree = DensityProfile::new(width);
        let w = width as i64;
        let span = |rng: &mut SmallRng| {
            let lo = rng.gen_range(0..w);
            (lo, (lo + rng.gen_range(0..w.min(40))).min(w - 1))
        };
        for step in 0..400 {
            match rng.gen_range(0..5u32) {
                0 | 1 => {
                    let (lo, hi) = span(&mut rng);
                    flat.add_unit(lo as usize, hi as usize, 1);
                    tree.add_span(lo, hi, 1);
                }
                2 => {
                    // Unit decrements may drive densities negative.
                    let (lo, hi) = span(&mut rng);
                    flat.add_unit(lo as usize, hi as usize, -1);
                    tree.add_span(lo, hi, -1);
                }
                3 => {
                    // Lower one peak column: removes the sole peak when
                    // the multiplicity is one.
                    let p = flat.counts.iter().position(|&c| c == flat.peak).unwrap();
                    let hi = (p + rng.gen_range(0..3usize)).min(width - 1);
                    flat.add_unit(p, hi, -1);
                    tree.add_span(p as i64, hi as i64, -1);
                }
                _ => {
                    // Arbitrary per-column deltas, as a merge applies
                    // them: add, then recount once.
                    let (lo, hi) = span(&mut rng);
                    let v = rng.gen_range(-4..5i64);
                    for c in &mut flat.counts[lo as usize..=hi as usize] {
                        *c += v;
                    }
                    flat.recount();
                    tree.add_span(lo, hi, v);
                }
            }
            let counts = tree.counts();
            assert_eq!(flat.counts, counts, "width {width} step {step}");
            assert_eq!(flat.peak, tree.max(), "width {width} step {step}");
            let mult = counts.iter().filter(|&&c| c == tree.max()).count();
            assert_eq!(flat.peak_mult, mult, "width {width} step {step}");
            for _ in 0..8 {
                let (lo, hi) = span(&mut rng);
                let added = tree.max_if_added(lo, hi) - tree.max();
                assert_eq!(flat.rise_if_added(lo as usize, hi as usize), added);
                let mut without = tree.max_in(lo, hi) - 1;
                if lo > 0 {
                    without = without.max(tree.max_in(0, lo - 1));
                }
                if hi < w - 1 {
                    without = without.max(tree.max_in(hi + 1, w - 1));
                }
                assert_eq!(
                    flat.rise_if_withdrawn(lo as usize, hi as usize),
                    tree.max() - without,
                    "width {width} step {step} span [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn grid_channel_matches_segment_tree_oracle() {
        for width in [1usize, 3, 13, 293, 1212] {
            for seed in 0..6 {
                check_against_tree(width, seed * 31 + width as u64);
            }
        }
    }

    #[test]
    fn merges_recount_the_peak_after_negative_deltas() {
        // A remote delta that lowers the sole peak must hand the peak to
        // the next-highest columns, counted exactly.
        let mut st = CoarseState::new(0, 2, 64, 8);
        let mut d = CoarseDeltas::zero(3, 2, 8);
        d.chan[1] = vec![3, 1, 3, 0, 0, 0, 0, 0];
        st.merge_external(&d, &mut comm());
        assert_eq!(st.channel_max(1), 3);
        assert_eq!(st.channels[1].peak_mult, 2);
        let mut lower = CoarseDeltas::zero(3, 2, 8);
        lower.chan[1][0] = -5;
        lower.chan[1][2] = -2;
        st.merge_external(&lower, &mut comm());
        assert_eq!(st.channels[1].counts, vec![-2, 1, 1, 0, 0, 0, 0, 0]);
        assert_eq!((st.channel_max(1), st.channels[1].peak_mult), (1, 2));
        // A masked merge drops the density update where this rank wrote.
        let mut own = CoarseDeltas::zero(3, 2, 8);
        own.chan[1][1] = 1;
        let mut up = CoarseDeltas::zero(3, 2, 8);
        up.chan[1][1] = 4;
        up.chan[1][3] = 2;
        up.demand[1][5] = 2;
        st.merge_external_masked(&up, &own, &mut comm());
        assert_eq!((st.channel_max(1), st.channels[1].peak_mult), (2, 1));
        assert_eq!(st.demand()[1][5], 2);
    }
}

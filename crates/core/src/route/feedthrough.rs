//! Step 3: feedthrough insertion and assignment.
//!
//! After coarse routing, "the feedthrough numbers needed at each grid
//! point are roughly determined, and those needed feedthroughs will be
//! added at each grid point. In the third step, for each row, TWGR
//! assigns each segment which crosses this row a feedthrough from those
//! available in this row." (§2)
//!
//! [`FtPlan`] turns the demand grid into concrete feedthrough cells:
//! `demand[r][g]` cells of width `ft_width` inserted at the left edge of
//! grid column `g` of row `r`, shifting every cell to the right of them —
//! this is what makes rows grow and why minimizing feedthroughs matters
//! for area. [`assign`] then matches each crossing to a feedthrough in
//! x-sorted order (counts match by construction, since the demand grid
//! was built from the same crossings).

use crate::cost;
use crate::route::state::Node;
use pgr_circuit::NetId;
use pgr_mpi::wire::{Reader, Wire, WireError};
use pgr_mpi::Comm;

/// A request for one vertical crossing of `row` at (original) column `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crossing {
    pub net: NetId,
    pub row: u32,
    pub x: i64,
}

impl Wire for Crossing {
    fn encode(&self, out: &mut Vec<u8>) {
        self.net.0.encode(out);
        self.row.encode(out);
        self.x.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Crossing {
            net: NetId(u32::decode(r)?),
            row: u32::decode(r)?,
            x: i64::decode(r)?,
        })
    }
}

/// Concrete feedthrough insertion plan for rows `row0 ..`.
#[derive(Debug, Clone)]
pub struct FtPlan {
    grid_w: i64,
    ft_width: i64,
    row0: u32,
    /// `demand[r][g]`: feedthroughs at the left edge of grid column `g`
    /// of row `row0 + r`.
    demand: Vec<Vec<i64>>,
    /// Inclusive prefix sums of `demand` per row.
    cum: Vec<Vec<i64>>,
}

impl FtPlan {
    /// Build the plan from the coarse router's final demand grid.
    pub fn new(row0: u32, demand: Vec<Vec<i64>>, grid_w: i64, ft_width: i64) -> Self {
        assert!(grid_w > 0 && ft_width > 0);
        let cum = demand
            .iter()
            .map(|row| {
                debug_assert!(row.iter().all(|&d| d >= 0), "demand must be non-negative");
                row.iter()
                    .scan(0i64, |acc, &d| {
                        *acc += d;
                        Some(*acc)
                    })
                    .collect()
            })
            .collect();
        FtPlan {
            grid_w,
            ft_width,
            row0,
            demand,
            cum,
        }
    }

    pub fn row0(&self) -> u32 {
        self.row0
    }

    pub fn num_rows(&self) -> usize {
        self.demand.len()
    }

    fn gcol(&self, x: i64) -> usize {
        let g = (x / self.grid_w).max(0) as usize;
        g.min(self.demand.first().map(|r| r.len() - 1).unwrap_or(0))
    }

    fn row_idx(&self, row: u32) -> usize {
        let i = row.checked_sub(self.row0).expect("row below plan range") as usize;
        assert!(i < self.demand.len(), "row {row} above plan range");
        i
    }

    /// Total feedthroughs inserted in `row`.
    pub fn row_count(&self, row: u32) -> i64 {
        *self.cum[self.row_idx(row)].last().unwrap_or(&0)
    }

    /// Width growth of `row` in columns.
    pub fn row_growth(&self, row: u32) -> i64 {
        self.row_count(row) * self.ft_width
    }

    /// Largest row growth across the plan (drives chip width).
    pub fn max_growth(&self) -> i64 {
        (0..self.demand.len())
            .map(|i| self.row_growth(self.row0 + i as u32))
            .max()
            .unwrap_or(0)
    }

    /// Total feedthroughs inserted.
    pub fn total(&self) -> u64 {
        self.cum
            .iter()
            .map(|row| *row.last().unwrap_or(&0) as u64)
            .sum()
    }

    /// New column of something originally at column `x` in `row`: shifted
    /// right by every feedthrough inserted at or left of its grid column.
    pub fn shifted_x(&self, row: u32, x: i64) -> i64 {
        x + self.cum[self.row_idx(row)][self.gcol(x)] * self.ft_width
    }

    /// Post-insertion column of the `i`-th feedthrough at `(row, gcol)`.
    pub fn ft_x(&self, row: u32, gcol: usize, i: i64) -> i64 {
        let r = self.row_idx(row);
        let before = self.cum[r][gcol] - self.demand[r][gcol];
        gcol as i64 * self.grid_w + (before + i) * self.ft_width
    }
}

/// Step 3 proper: match every crossing of a row to a feedthrough of that
/// row. Requests are matched left-to-right within each grid column, which
/// is the order-optimal non-crossing matching.
///
/// Returns one feedthrough [`Node`] per crossing, tagged with its net, in
/// `(row, gcol, x, net)` order. The crossings are counting-sorted into
/// `(row, gcol)` buckets (each grid column computed once) and only the
/// small buckets are sorted by `(x, net)`. Only non-empty buckets are
/// checked against the plan: a rank may hold the crossings of some rows
/// of a plan that has demand everywhere.
///
/// # Panics
/// Panics if a non-empty bucket's crossing count differs from the plan's
/// demand there (a router bug — demand was derived from the same
/// crossings).
pub fn assign(plan: &FtPlan, crossings: &[Crossing], comm: &mut Comm) -> Vec<(NetId, Node)> {
    comm.compute(cost::FT_ASSIGN * crossings.len() as u64);
    if crossings.is_empty() {
        return Vec::new();
    }
    // `gcol` clamps to the last grid column.
    let gcols = plan.gcol(i64::MAX) + 1;
    let mut start = vec![0u32; plan.num_rows() * gcols + 1];
    let buckets: Vec<u32> = crossings
        .iter()
        .map(|c| {
            let b = plan.row_idx(c.row) * gcols + plan.gcol(c.x);
            start[b + 1] += 1;
            b as u32
        })
        .collect();
    for b in 1..start.len() {
        start[b] += start[b - 1];
    }
    let mut next = start.clone();
    let mut keys = vec![(0i64, 0u32); crossings.len()];
    for (c, &b) in crossings.iter().zip(&buckets) {
        keys[next[b as usize] as usize] = (c.x, c.net.0);
        next[b as usize] += 1;
    }

    let mut out = Vec::with_capacity(crossings.len());
    for (b, w) in start.windows(2).enumerate() {
        let bucket = &mut keys[w[0] as usize..w[1] as usize];
        if bucket.is_empty() {
            continue;
        }
        bucket.sort_unstable();
        let (r, gcol) = (b / gcols, b % gcols);
        let row = plan.row0 + r as u32;
        let avail = plan.demand[r][gcol];
        assert_eq!(
            bucket.len() as i64,
            avail,
            "crossings at (row {row}, gcol {gcol}) must equal planned demand"
        );
        for (k, &(_, net)) in bucket.iter().enumerate() {
            let x = plan.ft_x(row, gcol, k as i64);
            out.push((NetId(net), Node::feedthrough(x, row)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_mpi::MachineModel;

    fn comm() -> Comm {
        Comm::solo(MachineModel::ideal())
    }

    fn plan(demand: Vec<Vec<i64>>) -> FtPlan {
        FtPlan::new(0, demand, 8, 2)
    }

    /// The sort-based assignment the bucketed one replaced: one global
    /// sort by `(row, gcol, x, net)`, then a run per bucket.
    fn assign_by_sort(plan: &FtPlan, crossings: &[Crossing]) -> Vec<(NetId, Node)> {
        let mut sorted: Vec<&Crossing> = crossings.iter().collect();
        sorted.sort_unstable_by_key(|c| (c.row, plan.gcol(c.x), c.x, c.net.0));
        let mut out = Vec::with_capacity(sorted.len());
        let mut i = 0;
        while i < sorted.len() {
            let row = sorted[i].row;
            let gcol = plan.gcol(sorted[i].x);
            let mut j = i;
            while j < sorted.len() && sorted[j].row == row && plan.gcol(sorted[j].x) == gcol {
                j += 1;
            }
            let count = (j - i) as i64;
            let avail = plan.demand[plan.row_idx(row)][gcol];
            assert_eq!(
                count, avail,
                "crossings at (row {row}, gcol {gcol}) must equal planned demand"
            );
            for (k, c) in sorted[i..j].iter().enumerate() {
                out.push((
                    c.net,
                    Node::feedthrough(plan.ft_x(row, gcol, k as i64), row),
                ));
            }
            i = j;
        }
        out
    }

    #[test]
    fn bucketed_assign_matches_sort_oracle() {
        use pgr_geom::rng::rng_from_seed;
        for seed in 0..300u64 {
            let mut rng = rng_from_seed(seed);
            let row0 = rng.gen_range(0..6u32);
            let nrows = rng.gen_range(1..7usize);
            let gcols = rng.gen_range(1..12usize);
            let grid_w = 8;
            // Crossings land on a subset of the plan's rows only; the
            // other rows get demand without crossings (the net-wise and
            // row-wise shape, where a rank holds some rows' crossings).
            let owned: Vec<bool> = (0..nrows).map(|_| rng.gen_bool(0.6)).collect();
            let crossings: Vec<Crossing> = (0..rng.gen_range(0..120usize))
                .filter_map(|_| {
                    let r = rng.gen_range(0..nrows);
                    // Few distinct x and nets: many (x, net) ties; x
                    // below 0 and past the last column clamp.
                    let x = rng.gen_range(-3..(gcols as i64 * grid_w / 4 + 3)) * 4;
                    let net = NetId(rng.gen_range(0..4u32));
                    owned[r].then_some(Crossing {
                        net,
                        row: row0 + r as u32,
                        x,
                    })
                })
                .collect();
            let mut demand = vec![vec![0i64; gcols]; nrows];
            for (r, row) in demand.iter_mut().enumerate() {
                if !owned[r] {
                    row.iter_mut().for_each(|d| *d = rng.gen_range(0..3));
                }
            }
            let p = FtPlan::new(row0, demand, grid_w, 2);
            let mut demand = p.demand.clone();
            for c in &crossings {
                demand[(c.row - row0) as usize][p.gcol(c.x)] += 1;
            }
            let p = FtPlan::new(row0, demand, grid_w, 2);
            let want = assign_by_sort(&p, &crossings);
            assert_eq!(assign(&p, &crossings, &mut comm()), want, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "must equal planned demand")]
    fn too_few_crossings_panic() {
        let p = FtPlan::new(2, vec![vec![0, 0], vec![0, 2]], 8, 2);
        let crossings = vec![Crossing {
            net: NetId(0),
            row: 3,
            x: 9,
        }];
        assign(&p, &crossings, &mut comm());
    }

    #[test]
    fn empty_plan_is_a_no_op() {
        let p = plan(vec![vec![0, 0, 0], vec![0, 0, 0]]);
        assert_eq!(p.total(), 0);
        assert_eq!(p.max_growth(), 0);
        assert_eq!(p.shifted_x(1, 17), 17);
        assert!(assign(&p, &[], &mut comm()).is_empty());
    }

    #[test]
    fn shifts_accumulate_left_to_right() {
        // Row 0: 2 fts at gcol 0, 1 ft at gcol 2. ft_width = 2.
        let p = plan(vec![vec![2, 0, 1, 0]]);
        assert_eq!(p.row_count(0), 3);
        assert_eq!(p.row_growth(0), 6);
        // x = 4 (gcol 0): shifted by the 2 fts at gcol 0 → +4.
        assert_eq!(p.shifted_x(0, 4), 8);
        // x = 12 (gcol 1): still +4.
        assert_eq!(p.shifted_x(0, 12), 16);
        // x = 20 (gcol 2): +6.
        assert_eq!(p.shifted_x(0, 20), 26);
    }

    #[test]
    fn ft_positions_interleave_with_shifts() {
        let p = plan(vec![vec![2, 0, 1, 0]]);
        // gcol 0 fts at columns 0 and 2 (nothing shifted before them).
        assert_eq!(p.ft_x(0, 0, 0), 0);
        assert_eq!(p.ft_x(0, 0, 1), 2);
        // gcol 2 ft: base 16, plus the 2 earlier fts × width 2 → 20.
        assert_eq!(p.ft_x(0, 2, 0), 20);
    }

    #[test]
    fn assignment_matches_sorted_order() {
        let p = plan(vec![vec![0, 2, 0, 0]]);
        let crossings = vec![
            Crossing {
                net: NetId(5),
                row: 0,
                x: 14,
            },
            Crossing {
                net: NetId(3),
                row: 0,
                x: 9,
            },
        ];
        let out = assign(&p, &crossings, &mut comm());
        assert_eq!(out.len(), 2);
        // Net 3 (x=9) comes first within the gcol; gets the left ft.
        assert_eq!(out[0].0, NetId(3));
        assert_eq!(out[1].0, NetId(5));
        assert!(out[0].1.x < out[1].1.x);
        assert_eq!(out[0].1.row, 0);
        assert!(out[0].1.switchable(), "feedthroughs reach both channels");
    }

    #[test]
    #[should_panic(expected = "must equal planned demand")]
    fn mismatched_crossings_panic() {
        let p = plan(vec![vec![1, 0, 0, 0]]);
        let crossings = vec![
            Crossing {
                net: NetId(0),
                row: 0,
                x: 0,
            },
            Crossing {
                net: NetId(1),
                row: 0,
                x: 1,
            },
        ];
        assign(&p, &crossings, &mut comm());
    }

    #[test]
    fn multi_row_plans_are_independent() {
        let p = FtPlan::new(3, vec![vec![1, 0], vec![0, 2]], 8, 2);
        assert_eq!(p.row_count(3), 1);
        assert_eq!(p.row_count(4), 2);
        assert_eq!(p.max_growth(), 4);
        assert_eq!(p.total(), 3);
        // Row 4 gcol 1 first ft: base 8 + 0 earlier fts.
        assert_eq!(p.ft_x(4, 1, 0), 8);
        assert_eq!(p.ft_x(4, 1, 1), 10);
        assert_eq!(p.shifted_x(3, 20), 22);
    }

    #[test]
    fn out_of_range_x_clamps_to_last_gcol() {
        let p = plan(vec![vec![0, 0, 0, 1]]);
        // Column beyond the grid is treated as the last gcol.
        assert_eq!(p.shifted_x(0, 10_000), 10_002);
    }

    #[test]
    fn crossing_wire_roundtrip() {
        let c = Crossing {
            net: NetId(7),
            row: 3,
            x: -4,
        };
        assert_eq!(Crossing::from_bytes(&c.to_bytes()).unwrap(), c);
    }
}

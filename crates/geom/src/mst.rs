//! Minimum spanning trees over explicit point sets.
//!
//! Two variants are needed by the TimberWolfSC flow:
//!
//! * [`mst_prim`] — MST of the *complete* rectilinear graph over a net's
//!   pins (step 1: the approximate Steiner tree is derived from this MST).
//!   Prim's algorithm in O(n²) time and O(n) space, which is the right
//!   trade-off for nets ranging from 2 pins to the multi-thousand-pin clock
//!   nets in avq.large.
//! * [`mst_adjacency_limited`] — MST where edges are only allowed between
//!   nodes on the same or vertically adjacent rows (step 4: final
//!   connection of pins and feedthroughs; a wire may only live in the
//!   channel between the rows it connects). Kruskal over a sparse
//!   candidate subset of the restricted edges. Feedthrough insertion
//!   guarantees the restricted graph is connected; if it is not (a router
//!   bug), the function reports a forest.
//!
//! # Sparse candidates for the adjacency-limited MST
//!
//! Kruskal orders edges by the strict total order `(weight, a, b)`, so
//! the minimum spanning forest is unique, and by the cycle property an
//! edge is not in it whenever a path joins its ends through edges that
//! all come earlier in the order. Nodes with equal `(row, x)` form a
//! group whose representative is its lowest index. The candidates are
//! (1) a zero-weight star from each representative to the rest of its
//! group, (2) representative edges between consecutive x-groups of a
//! row, and (3) from each representative on row `r`, edges to the row
//! `r + 1` representatives at `lower_bound(x)` and its predecessor —
//! about four per node, O(n log n) with the sort. Every other admissible
//! edge `(u, v)` is beaten by such a path: within a group, through the
//! representative's star; on one row, through the stars of `u` and `v`
//! and the chain of consecutive-group edges between them, each shorter
//! than `|dx|` unless the groups are adjacent, in which case the one
//! chain edge has the same weight and endpoints no larger than `u` and
//! `v`, so it sorts first; across rows, through `u`'s star, the
//! candidate from `u`'s representative to the upper-row group nearest
//! `u` on `v`'s side (weight at most the edge's, endpoints again no
//! larger), and the upper row's chain to `v`'s group, whose edges are
//! strictly lighter. So the forest over the candidates is exactly the
//! forest over every same-row and adjacent-row pair.

use crate::point::{manhattan, Point};
use crate::unionfind::UnionFind;

/// An MST edge between node indices `a` and `b` with rectilinear weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MstEdge {
    pub a: u32,
    pub b: u32,
    pub weight: u64,
}

/// Prim's algorithm over the complete rectilinear graph on `points`.
///
/// Returns `points.len().saturating_sub(1)` edges. Deterministic: ties are
/// broken towards the lowest-index node, so identical inputs yield identical
/// trees on every platform.
///
/// ```
/// use pgr_geom::{mst_prim, Point};
/// let pts = [Point::new(0, 0), Point::new(5, 0), Point::new(5, 3)];
/// let edges = mst_prim(&pts);
/// assert_eq!(edges.len(), 2);
/// assert_eq!(edges.iter().map(|e| e.weight).sum::<u64>(), 8);
/// ```
pub fn mst_prim(points: &[Point]) -> Vec<MstEdge> {
    let n = points.len();
    if n <= 1 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    // best[i] = (weight, tree node) of the cheapest edge connecting i to the tree.
    let mut best = vec![(u64::MAX, 0u32); n];
    let mut edges = Vec::with_capacity(n - 1);

    in_tree[0] = true;
    for (i, p) in points.iter().enumerate().skip(1) {
        best[i] = (manhattan(points[0], *p), 0);
    }
    for _ in 1..n {
        // Pick the non-tree node with the cheapest connecting edge.
        let mut pick = usize::MAX;
        let mut pick_w = u64::MAX;
        for i in 0..n {
            if !in_tree[i] && best[i].0 < pick_w {
                pick = i;
                pick_w = best[i].0;
            }
        }
        debug_assert!(pick != usize::MAX);
        in_tree[pick] = true;
        edges.push(MstEdge {
            a: best[pick].1,
            b: pick as u32,
            weight: pick_w,
        });
        for i in 0..n {
            if !in_tree[i] {
                let w = manhattan(points[pick], points[i]);
                if w < best[i].0 {
                    best[i] = (w, pick as u32);
                }
            }
        }
    }
    edges
}

/// Result of an adjacency-limited spanning-tree construction.
#[derive(Debug, Clone)]
pub struct LimitedMst {
    pub edges: Vec<MstEdge>,
    /// `true` when the restricted graph was connected and `edges` spans it.
    pub spanning: bool,
}

/// Kruskal MST where an edge `(i, j)` is admissible only if
/// `|points[i].y - points[j].y| <= 1`: `y` is the node's row.
///
/// Weights are rectilinear distances over `points`. Kruskal runs over
/// the sparse candidate set of the module docs, in the strict order
/// `(weight, a, b)`; same-row edges are stored with `a < b` and
/// adjacent-row edges with `a` on the lower row. The result is the
/// unique minimum spanning forest of the full adjacency-limited graph
/// under that order, so it is deterministic.
pub fn mst_adjacency_limited(points: &[Point]) -> LimitedMst {
    let n = points.len();
    if n <= 1 {
        return LimitedMst {
            edges: Vec::new(),
            spanning: true,
        };
    }
    let edge = |a: u32, b: u32| MstEdge {
        a,
        b,
        weight: manhattan(points[a as usize], points[b as usize]),
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| (points[i as usize].y, points[i as usize].x, i));

    // Group equal points; the sort puts each group's lowest index first,
    // and that node represents the group. `reps` lists representatives
    // in (row, x) order; `row_starts` marks where each row begins.
    let mut cand: Vec<MstEdge> = Vec::with_capacity(4 * n);
    let mut reps: Vec<u32> = Vec::new();
    let mut row_starts: Vec<usize> = Vec::new();
    let mut k = 0;
    while k < n {
        let rep = order[k];
        let p = points[rep as usize];
        if reps.last().is_none_or(|&r| points[r as usize].y != p.y) {
            row_starts.push(reps.len());
        }
        reps.push(rep);
        k += 1;
        while k < n && points[order[k] as usize] == p {
            cand.push(edge(rep, order[k]));
            k += 1;
        }
    }
    row_starts.push(reps.len());

    let rows: Vec<&[u32]> = row_starts.windows(2).map(|w| &reps[w[0]..w[1]]).collect();
    for (r, row) in rows.iter().enumerate() {
        for pair in row.windows(2) {
            cand.push(edge(pair[0].min(pair[1]), pair[0].max(pair[1])));
        }
        // Adjacent-row edges, from each lower-row representative to the
        // upper row's representatives at `lower_bound(x)` and just left
        // of it. Every row slice is non-empty.
        let Some(up) = rows.get(r + 1) else {
            continue;
        };
        if points[up[0] as usize].y != points[row[0] as usize].y + 1 {
            continue;
        }
        let mut j = 0;
        for &a in row.iter() {
            let x = points[a as usize].x;
            while j < up.len() && points[up[j] as usize].x < x {
                j += 1;
            }
            if j < up.len() {
                cand.push(edge(a, up[j]));
            }
            if j > 0 {
                cand.push(edge(a, up[j - 1]));
            }
        }
    }
    cand.sort_unstable_by_key(|e| (e.weight, e.a, e.b));

    let mut uf = UnionFind::new(n);
    let mut edges = Vec::with_capacity(n - 1);
    for e in cand {
        if uf.union(e.a as usize, e.b as usize) {
            edges.push(e);
            if edges.len() == n - 1 {
                break;
            }
        }
    }
    let spanning = edges.len() == n - 1;
    LimitedMst { edges, spanning }
}

/// Total weight of a set of edges.
pub fn total_weight(edges: &[MstEdge]) -> u64 {
    edges.iter().map(|e| e.weight).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(i64, i64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn prim_trivial_sizes() {
        assert!(mst_prim(&[]).is_empty());
        assert!(mst_prim(&pts(&[(0, 0)])).is_empty());
        let e = mst_prim(&pts(&[(0, 0), (3, 4)]));
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].weight, 7);
    }

    #[test]
    fn prim_collinear_points_chain() {
        let e = mst_prim(&pts(&[(0, 0), (10, 0), (5, 0), (2, 0)]));
        assert_eq!(e.len(), 3);
        assert_eq!(
            total_weight(&e),
            10,
            "MST of collinear points spans the extent"
        );
    }

    #[test]
    fn prim_square_plus_center() {
        // 4 corners of a 2x2 square plus center: MST weight is 4 * dist(center, corner) = 8.
        let e = mst_prim(&pts(&[(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]));
        assert_eq!(total_weight(&e), 8);
    }

    #[test]
    fn prim_duplicate_points_zero_edges() {
        let e = mst_prim(&pts(&[(1, 1), (1, 1), (1, 1)]));
        assert_eq!(e.len(), 2);
        assert_eq!(total_weight(&e), 0);
    }

    #[test]
    fn limited_same_as_prim_when_rows_adjacent() {
        let p = pts(&[(0, 0), (4, 1), (8, 0)]);
        let lm = mst_adjacency_limited(&p);
        assert!(lm.spanning);
        assert_eq!(total_weight(&lm.edges), total_weight(&mst_prim(&p)));
    }

    #[test]
    fn limited_reports_disconnection() {
        // Rows 0 and 5 with nothing between: no admissible edge.
        let p = pts(&[(0, 0), (0, 5)]);
        let lm = mst_adjacency_limited(&p);
        assert!(!lm.spanning);
        assert!(lm.edges.is_empty());
    }

    #[test]
    fn limited_uses_intermediate_rows() {
        // A pin on rows 0 and 2 plus a "feedthrough" on row 1 makes it spanning.
        let p = pts(&[(0, 0), (0, 1), (0, 2)]);
        let lm = mst_adjacency_limited(&p);
        assert!(lm.spanning);
        assert_eq!(lm.edges.len(), 2);
        assert_eq!(total_weight(&lm.edges), 2);
    }

    #[test]
    fn limited_prefers_cheap_same_row_edges() {
        // Two clusters on the same row far apart, with an adjacent-row bridge.
        let p = pts(&[(0, 0), (1, 0), (100, 0), (101, 0), (50, 1)]);
        let lm = mst_adjacency_limited(&p);
        assert!(lm.spanning);
        assert_eq!(lm.edges.len(), 4);
        // The two unit edges must be chosen.
        assert!(lm.edges.iter().filter(|e| e.weight == 1).count() >= 2);
    }

    #[test]
    fn prim_deterministic() {
        let p = pts(&[(3, 1), (0, 0), (7, 2), (4, 4), (9, 9), (2, 8)]);
        assert_eq!(mst_prim(&p), mst_prim(&p));
    }
}

//! Differential test of the sparse adjacency-limited MST against the
//! dense Kruskal it replaced, which survives here only as an oracle.
//!
//! The oracle enumerates every same-row and adjacent-row pair and runs
//! Kruskal in `(weight, a, b)` order. Under that strict order the
//! minimum spanning forest is unique, so the sparse construction must
//! return the very same edges, in the same order, with the same
//! `spanning` flag. The inputs are built to be rich in ties: narrow
//! x-ranges, duplicate points, row gaps that split the graph into
//! forests, and node indices in no particular order.

use pgr_geom::mst::LimitedMst;
use pgr_geom::rng::{rng_from_seed, SmallRng};
use pgr_geom::{manhattan, mst_adjacency_limited, shuffled_indices, MstEdge, Point, UnionFind};

/// Dense Kruskal over all admissible pairs: same-row pairs with
/// `a < b`, adjacent-row pairs with `a` on the lower row.
fn dense_oracle(points: &[Point]) -> LimitedMst {
    let n = points.len();
    if n <= 1 {
        return LimitedMst {
            edges: Vec::new(),
            spanning: true,
        };
    }
    let min_row = points.iter().map(|p| p.y).min().expect("nonempty");
    let max_row = points.iter().map(|p| p.y).max().expect("nonempty");
    let span = (max_row - min_row) as usize + 1;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); span];
    for (i, p) in points.iter().enumerate() {
        buckets[(p.y - min_row) as usize].push(i as u32);
    }
    let edge = |a: u32, b: u32| MstEdge {
        a,
        b,
        weight: manhattan(points[a as usize], points[b as usize]),
    };
    let mut cand = Vec::new();
    for (bi, bucket) in buckets.iter().enumerate() {
        for (k, &a) in bucket.iter().enumerate() {
            for &b in &bucket[k + 1..] {
                cand.push(edge(a, b));
            }
        }
        if bi + 1 < span {
            for &a in bucket {
                for &b in &buckets[bi + 1] {
                    cand.push(edge(a, b));
                }
            }
        }
    }
    cand.sort_unstable_by_key(|e| (e.weight, e.a, e.b));
    let mut uf = UnionFind::new(n);
    let mut edges = Vec::new();
    for e in cand {
        if uf.union(e.a as usize, e.b as usize) {
            edges.push(e);
        }
    }
    let spanning = edges.len() == n - 1;
    LimitedMst { edges, spanning }
}

/// A tie-heavy random input: a few rows with occasional gaps of two or
/// more, columns from a range of 2–10, some exact duplicates, and
/// indices either in generation order, sorted by `(y, x)` (as the
/// router hands them over) or shuffled.
fn tie_heavy_points(rng: &mut SmallRng) -> Vec<Point> {
    let n = if rng.gen_bool(0.05) {
        rng.gen_range(60usize..240)
    } else {
        rng.gen_range(0usize..40)
    };
    let xrange = rng.gen_range(2i64..=10);
    let x0 = rng.gen_range(-5i64..5);
    let mut rows = vec![rng.gen_range(-3i64..3)];
    for _ in 0..rng.gen_range(0usize..5) {
        let gap = if rng.gen_bool(0.2) {
            rng.gen_range(2i64..4)
        } else {
            1
        };
        rows.push(rows[rows.len() - 1] + gap);
    }
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    for _ in 0..n {
        if !pts.is_empty() && rng.gen_bool(0.2) {
            let k = rng.gen_range(0..pts.len());
            pts.push(pts[k]);
        } else {
            let y = rows[rng.gen_range(0..rows.len())];
            pts.push(Point::new(x0 + rng.gen_range(0..xrange), y));
        }
    }
    match rng.gen_range(0u32..3) {
        0 => pts,
        1 => {
            pts.sort_by_key(|p| (p.y, p.x));
            pts
        }
        _ => shuffled_indices(pts.len(), rng)
            .into_iter()
            .map(|i| pts[i as usize])
            .collect(),
    }
}

#[test]
fn sparse_mst_matches_dense_kruskal_on_tie_heavy_inputs() {
    let mut rng = rng_from_seed(0x5BA5_E000);
    let mut forests = 0;
    for case in 0..12_000 {
        let pts = tie_heavy_points(&mut rng);
        let want = dense_oracle(&pts);
        let got = mst_adjacency_limited(&pts);
        assert_eq!(got.edges, want.edges, "case {case}: {pts:?}");
        assert_eq!(got.spanning, want.spanning, "case {case}: {pts:?}");
        forests += usize::from(!want.spanning);
    }
    assert!(forests > 500, "row gaps must exercise forests ({forests})");
}

#[test]
fn sparse_mst_matches_dense_kruskal_on_wide_rows() {
    // Wider x-ranges and more rows: fewer ties, longer chains.
    let mut rng = rng_from_seed(0x5BA5_E001);
    for case in 0..500 {
        let n = rng.gen_range(2usize..300);
        let rows = rng.gen_range(1i64..12);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0i64..400), rng.gen_range(0..rows)))
            .collect();
        let want = dense_oracle(&pts);
        let got = mst_adjacency_limited(&pts);
        assert_eq!(got.edges, want.edges, "case {case}");
        assert_eq!(got.spanning, want.spanning, "case {case}");
    }
}

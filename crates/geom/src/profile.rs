//! Column-indexed congestion profiles.
//!
//! A routing channel's *density* at column `x` is the number of horizontal
//! wire spans covering `x`; the channel needs `max_x density(x)` tracks.
//! The switchable-segment optimizer (step 5) evaluates "what does the peak
//! density become if this span moves here?" on full-resolution channels
//! thousands of columns wide, so the profile is a lazy range-add /
//! range-max segment tree: span insertion, removal, and hypothetical-peak
//! queries are all O(log W) in the channel width W. (The coarse router's
//! grid is a few hundred columns wide; there an O(span) scan over flat
//! counts with a cached peak is faster, see `pgr-router`'s `route::coarse`.)

/// A density profile over columns `0..width`.
///
/// ```
/// use pgr_geom::DensityProfile;
/// let mut p = DensityProfile::new(64);
/// p.add_span(10, 40, 1);
/// p.add_span(30, 50, 1);
/// assert_eq!(p.max(), 2);                  // the spans overlap on [30, 40]
/// assert_eq!(p.max_if_added(0, 9), 2);     // adding off-peak changes nothing
/// assert_eq!(p.max_if_added(35, 36), 3);   // adding on-peak raises it
/// ```
#[derive(Debug, Clone)]
pub struct DensityProfile {
    width: usize,
    /// Segment tree node maxima (1-indexed, size 2*cap).
    tree: Vec<i64>,
    /// Pending lazy additions per internal node.
    lazy: Vec<i64>,
    cap: usize,
}

impl DensityProfile {
    /// An all-zero profile over `width` columns. `width` must be > 0.
    pub fn new(width: usize) -> Self {
        Self::with_leaves(width, |_| {})
    }

    /// A profile holding the given per-column densities, built bottom-up
    /// in O(width) with every lazy tag zero. Observably identical to
    /// adding the same columns to [`Self::new`] span by span.
    pub fn from_counts(counts: &[i64]) -> Self {
        Self::with_leaves(counts.len(), |leaves| leaves.copy_from_slice(counts))
    }

    /// Build the tree bottom-up from leaves written by `fill`.
    fn with_leaves(width: usize, fill: impl FnOnce(&mut [i64])) -> Self {
        assert!(width > 0, "DensityProfile needs at least one column");
        let cap = width.next_power_of_two();
        let mut tree = vec![0i64; 2 * cap];
        fill(&mut tree[cap..cap + width]);
        // Phantom columns (width..cap) must never win a max query — a
        // profile driven negative everywhere would otherwise report 0.
        // They are never targeted by updates, so a sentinel suffices.
        const PHANTOM: i64 = i64::MIN / 4;
        tree[cap + width..].fill(PHANTOM);
        for node in (1..cap).rev() {
            tree[node] = tree[2 * node].max(tree[2 * node + 1]);
        }
        DensityProfile {
            width,
            tree,
            lazy: vec![0; 2 * cap],
            cap,
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// Clamp an inclusive span to columns `0..width` and normalize its
    /// ordering, as every span-taking method does: `lo > hi` means
    /// `[hi, lo]`, and `None` means no column is covered.
    pub fn clamp_span(width: usize, lo: i64, hi: i64) -> Option<(usize, usize)> {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let lo = lo.max(0);
        let hi = hi.min(width as i64 - 1);
        if lo > hi {
            None
        } else {
            Some((lo as usize, hi as usize))
        }
    }

    fn clamp(&self, lo: i64, hi: i64) -> Option<(usize, usize)> {
        Self::clamp_span(self.width, lo, hi)
    }

    /// Add `delta` over the inclusive column span `[lo, hi]`.
    /// Spans are clamped to the profile; a fully out-of-range span or a
    /// zero delta is an exact no-op (the tree is untouched).
    /// `lo > hi` is treated as the span `[hi, lo]`.
    pub fn add_span(&mut self, lo: i64, hi: i64, delta: i64) {
        if delta == 0 {
            return;
        }
        if let Some((lo, hi)) = self.clamp(lo, hi) {
            self.update(1, 0, self.cap - 1, lo, hi, delta);
        }
    }

    /// Current peak density over the whole channel.
    pub fn max(&self) -> i64 {
        self.tree[1]
    }

    /// Peak density over the inclusive span `[lo, hi]` (clamped).
    pub fn max_in(&self, lo: i64, hi: i64) -> i64 {
        match self.clamp(lo, hi) {
            Some((lo, hi)) => self.query(1, 0, self.cap - 1, lo, hi),
            None => 0,
        }
    }

    /// Peak density the channel would have after adding a unit span over
    /// `[lo, hi]` — without mutating the profile.
    ///
    /// Correct because a unit add only raises columns inside the span:
    /// `new_max = max(old_global_max, span_max + 1)`.
    pub fn max_if_added(&self, lo: i64, hi: i64) -> i64 {
        if self.clamp(lo, hi).is_none() {
            return self.max();
        }
        self.max().max(self.max_in(lo, hi) + 1)
    }

    /// Density at a single column.
    pub fn at(&self, col: usize) -> i64 {
        assert!(col < self.width);
        self.query(1, 0, self.cap - 1, col, col)
    }

    /// Materialize per-column densities (used when merging profiles across
    /// partition boundaries).
    pub fn counts(&self) -> Vec<i64> {
        let mut out = vec![0; self.width];
        self.counts_into(&mut out);
        out
    }

    /// Write per-column densities into a caller-owned buffer of length
    /// [`Self::width`] — the allocation-free twin of [`Self::counts`] for
    /// the assemble/verify hot path.
    pub fn counts_into(&self, out: &mut [i64]) {
        assert_eq!(out.len(), self.width, "counts_into buffer width mismatch");
        self.collect(1, 0, self.cap - 1, 0, out);
    }

    /// Pointwise-add another profile's counts into this one.
    /// Both profiles must have the same width.
    pub fn merge_counts(&mut self, counts: &[i64]) {
        assert_eq!(
            counts.len(),
            self.width,
            "merging mismatched profile widths"
        );
        for (col, &c) in counts.iter().enumerate() {
            if c != 0 {
                self.add_span(col as i64, col as i64, c);
            }
        }
    }

    fn update(&mut self, node: usize, nlo: usize, nhi: usize, lo: usize, hi: usize, delta: i64) {
        if lo <= nlo && nhi <= hi {
            self.tree[node] += delta;
            self.lazy[node] += delta;
            return;
        }
        let mid = (nlo + nhi) / 2;
        if lo <= mid {
            self.update(2 * node, nlo, mid, lo, hi.min(mid), delta);
        }
        if hi > mid {
            self.update(2 * node + 1, mid + 1, nhi, lo.max(mid + 1), hi, delta);
        }
        self.tree[node] = self.tree[2 * node].max(self.tree[2 * node + 1]) + self.lazy[node];
    }

    fn query(&self, node: usize, nlo: usize, nhi: usize, lo: usize, hi: usize) -> i64 {
        if lo <= nlo && nhi <= hi {
            return self.tree[node];
        }
        let mid = (nlo + nhi) / 2;
        let mut m = i64::MIN;
        if lo <= mid {
            m = m.max(self.query(2 * node, nlo, mid, lo, hi.min(mid)));
        }
        if hi > mid {
            m = m.max(self.query(2 * node + 1, mid + 1, nhi, lo.max(mid + 1), hi));
        }
        m + self.lazy[node]
    }

    fn collect(&self, node: usize, nlo: usize, nhi: usize, acc: i64, out: &mut [i64]) {
        if nlo >= self.width {
            return;
        }
        if nlo == nhi {
            out[nlo] = acc + self.tree[node];
            return;
        }
        let acc = acc + self.lazy[node];
        let mid = (nlo + nhi) / 2;
        self.collect(2 * node, nlo, mid, acc, out);
        self.collect(2 * node + 1, mid + 1, nhi, acc, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_is_zero() {
        let p = DensityProfile::new(16);
        assert_eq!(p.max(), 0);
        assert_eq!(p.at(7), 0);
        assert_eq!(p.counts(), vec![0; 16]);
    }

    #[test]
    fn single_span_raises_max() {
        let mut p = DensityProfile::new(10);
        p.add_span(2, 5, 1);
        assert_eq!(p.max(), 1);
        assert_eq!(p.at(2), 1);
        assert_eq!(p.at(5), 1);
        assert_eq!(p.at(6), 0);
        assert_eq!(p.max_in(6, 9), 0);
    }

    #[test]
    fn overlapping_spans_stack() {
        let mut p = DensityProfile::new(10);
        p.add_span(0, 4, 1);
        p.add_span(3, 9, 1);
        p.add_span(3, 3, 1);
        assert_eq!(p.max(), 3);
        assert_eq!(p.at(3), 3);
        assert_eq!(p.at(4), 2);
    }

    #[test]
    fn removal_restores() {
        let mut p = DensityProfile::new(8);
        p.add_span(0, 7, 1);
        p.add_span(2, 4, 1);
        assert_eq!(p.max(), 2);
        p.add_span(2, 4, -1);
        assert_eq!(p.max(), 1);
        p.add_span(0, 7, -1);
        assert_eq!(p.max(), 0);
        assert_eq!(p.counts(), vec![0; 8]);
    }

    #[test]
    fn max_if_added_matches_actual_add() {
        let mut p = DensityProfile::new(12);
        p.add_span(0, 3, 2);
        p.add_span(8, 11, 5);
        let predicted = p.max_if_added(2, 9);
        p.add_span(2, 9, 1);
        assert_eq!(predicted, p.max());
    }

    #[test]
    fn spans_are_clamped() {
        let mut p = DensityProfile::new(4);
        p.add_span(-10, 100, 1);
        assert_eq!(p.max(), 1);
        assert_eq!(p.counts(), vec![1; 4]);
        p.add_span(50, 60, 1); // entirely outside: no-op
        assert_eq!(p.max(), 1);
        assert_eq!(p.max_if_added(50, 60), 1);
    }

    #[test]
    fn reversed_span_is_normalized() {
        let mut p = DensityProfile::new(8);
        p.add_span(5, 2, 1);
        assert_eq!(p.at(2), 1);
        assert_eq!(p.at(5), 1);
        assert_eq!(p.at(6), 0);
    }

    #[test]
    fn merge_counts_adds_pointwise() {
        let mut a = DensityProfile::new(6);
        a.add_span(0, 2, 1);
        let mut b = DensityProfile::new(6);
        b.add_span(2, 5, 3);
        a.merge_counts(&b.counts());
        assert_eq!(a.counts(), vec![1, 1, 4, 3, 3, 3]);
        assert_eq!(a.max(), 4);
    }

    #[test]
    fn non_power_of_two_width() {
        let mut p = DensityProfile::new(13);
        p.add_span(0, 12, 1);
        assert_eq!(p.max(), 1);
        assert_eq!(p.counts().len(), 13);
        assert!(p.counts().iter().all(|&c| c == 1));
    }

    #[test]
    fn all_negative_profile_reports_negative_max() {
        // Regression: phantom columns beyond a non-power-of-two width
        // must not clamp the max at 0.
        let mut p = DensityProfile::new(3);
        p.add_span(0, 2, -1);
        assert_eq!(p.max(), -1);
        assert_eq!(p.max_in(0, 2), -1);
        assert_eq!(
            p.max_if_added(10, 10),
            -1,
            "out-of-range hypothetical keeps the real max"
        );
        assert_eq!(p.counts(), vec![-1, -1, -1]);
        p.add_span(1, 1, 3);
        assert_eq!(p.max(), 2);
    }

    #[test]
    fn width_one() {
        let mut p = DensityProfile::new(1);
        p.add_span(0, 0, 7);
        assert_eq!(p.max(), 7);
        assert_eq!(p.counts(), vec![7]);
    }

    #[test]
    fn counts_into_matches_counts() {
        let mut p = DensityProfile::new(13);
        p.add_span(1, 6, 2);
        p.add_span(4, 12, -1);
        let mut buf = vec![0i64; 13];
        p.counts_into(&mut buf);
        assert_eq!(buf, p.counts());
    }

    #[test]
    fn counts_into_overwrites_stale_buffer() {
        let mut p = DensityProfile::new(5);
        p.add_span(1, 3, 1);
        let mut buf = vec![99i64; 5];
        p.counts_into(&mut buf);
        assert_eq!(buf, vec![0, 1, 1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn counts_into_rejects_wrong_width() {
        let p = DensityProfile::new(5);
        let mut buf = vec![0i64; 4];
        p.counts_into(&mut buf);
    }

    #[test]
    fn zero_delta_span_is_exact_noop() {
        let mut p = DensityProfile::new(11);
        p.add_span(2, 9, 3);
        let before = p.clone();
        p.add_span(0, 10, 0);
        p.add_span(4, 4, 0);
        p.add_span(-5, 50, 0);
        assert_eq!(p.tree, before.tree, "zero delta must not touch the tree");
        assert_eq!(p.lazy, before.lazy, "zero delta must not touch lazy tags");
    }

    #[test]
    fn fully_clamped_span_is_exact_noop() {
        let mut p = DensityProfile::new(11);
        p.add_span(3, 7, 2);
        let before = p.clone();
        p.add_span(11, 20, 1); // starts exactly at width
        p.add_span(-9, -1, 1); // ends exactly before 0
        p.add_span(i64::MAX - 1, i64::MAX, 1);
        assert_eq!(
            p.tree, before.tree,
            "clamped-away spans must not touch the tree"
        );
        assert_eq!(p.lazy, before.lazy);
    }

    #[test]
    fn from_counts_matches_incremental_build() {
        use crate::rng::rng_from_seed;
        for &width in &[1usize, 3, 13, 16, 100, 257] {
            let mut rng = rng_from_seed(0xF00C + width as u64);
            let counts: Vec<i64> = (0..width).map(|_| rng.gen_range(-3..=9i64)).collect();
            let mut bulk = DensityProfile::from_counts(&counts);
            let mut inc = DensityProfile::new(width);
            inc.merge_counts(&counts);
            let w = width as i64;
            for step in 0..200 {
                assert_eq!(bulk.counts(), inc.counts(), "width {width} step {step}");
                assert_eq!(bulk.max(), inc.max(), "width {width} step {step}");
                let lo = rng.gen_range(-w - 2..=2 * w + 2);
                let hi = rng.gen_range(-w - 2..=2 * w + 2);
                assert_eq!(bulk.max_in(lo, hi), inc.max_in(lo, hi));
                assert_eq!(bulk.max_if_added(lo, hi), inc.max_if_added(lo, hi));
                let delta = rng.gen_range(-2..=2i64);
                bulk.add_span(hi, lo, delta);
                inc.add_span(hi, lo, delta);
            }
        }
    }

    /// Property check against a naive dense model: random spans (including
    /// reversed, out-of-range, and zero-delta ones) at non-power-of-two
    /// widths must agree with per-column bookkeeping on every observable.
    #[test]
    fn random_spans_match_naive_model() {
        use crate::rng::rng_from_seed;
        for &width in &[1usize, 3, 7, 13, 16, 27, 100] {
            let mut rng = rng_from_seed(0x5EED_0000 + width as u64);
            let mut p = DensityProfile::new(width);
            let mut naive = vec![0i64; width];
            let w = width as i64;
            for step in 0..400 {
                let lo = rng.gen_range(-w - 2..=2 * w + 2);
                let hi = rng.gen_range(-w - 2..=2 * w + 2);
                let delta = rng.gen_range(-2..=2i64);
                p.add_span(lo, hi, delta);
                let (nlo, nhi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                for (col, v) in naive.iter_mut().enumerate() {
                    if nlo <= col as i64 && col as i64 <= nhi {
                        *v += delta;
                    }
                }
                let naive_max = *naive.iter().max().expect("width > 0");
                assert_eq!(p.max(), naive_max, "width {width} step {step}");
                let mut buf = vec![0i64; width];
                p.counts_into(&mut buf);
                assert_eq!(buf, naive, "width {width} step {step}");
                // Random max_in / max_if_added probes, again unclamped.
                let qlo = rng.gen_range(-w - 2..=2 * w + 2);
                let qhi = rng.gen_range(-w - 2..=2 * w + 2);
                let (cl, ch) = if qlo <= qhi { (qlo, qhi) } else { (qhi, qlo) };
                let in_range: Vec<i64> = naive
                    .iter()
                    .enumerate()
                    .filter(|(c, _)| cl <= *c as i64 && *c as i64 <= ch)
                    .map(|(_, &v)| v)
                    .collect();
                if in_range.is_empty() {
                    assert_eq!(p.max_in(qlo, qhi), 0, "clamped-away query is 0");
                    assert_eq!(
                        p.max_if_added(qlo, qhi),
                        naive_max,
                        "out-of-range hypothetical keeps the real max"
                    );
                } else {
                    let span_max = *in_range.iter().max().expect("non-empty");
                    assert_eq!(p.max_in(qlo, qhi), span_max);
                    assert_eq!(p.max_if_added(qlo, qhi), naive_max.max(span_max + 1));
                }
            }
        }
    }
}
